illegal(A) :-
    wk(A, B, C),
    bk(A, E, F),
    adj(B, E),
    adj(C, F).
illegal(A) :-
    wr(A, D, E),
    bk(A, F, E).
illegal(A) :-
    wr(A, B, D),
    bk(A, B, E).
illegal(A) :-
    wk(A, B, C),
    wr(A, B, C).
