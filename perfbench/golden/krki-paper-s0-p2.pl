illegal(A) :-
    wr(A, D, E),
    bk(A, D, B).
illegal(A) :-
    wr(A, C, D),
    bk(A, E, D).
illegal(A) :-
    wk(A, B, C),
    bk(A, E, F),
    adj(B, E),
    adj(C, F).
illegal(A) :-
    wk(A, B, C),
    wr(A, B, C).
