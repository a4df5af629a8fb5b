mesh(A, 1) :-
    etype(A, short).
mesh(A, 4) :-
    etype(A, long).
mesh(A, 2) :-
    etype(A, short),
    load(A, loaded).
mesh(A, 2) :-
    etype(A, short).
mesh(A, 2) :-
    load(A, loaded).
mesh(A, 6) :-
    etype(A, long),
    support(A, fixed).
mesh(A, 5) :-
    etype(A, circuit).
mesh(A, 3) :-
    etype(A, half_circuit).
mesh(A, 8) :-
    etype(A, half_circuit).
mesh(A, 7) :-
    etype(A, circuit),
    neighbor(A, C),
    support(C, fixed).
mesh(A, 7) :-
    neighbor(A, C),
    support(C, fixed).
mesh(A, 8) :-
    load(A, loaded),
    neighbor(A, C),
    load(C, cont_loaded).
mesh(A, 8) :-
    load(A, loaded),
    neighbor(A, B),
    support(B, free).
mesh(A, 5) :-
    etype(A, short),
    neighbor(A, B),
    etype(B, short).
mesh(A, 5) :-
    support(A, free),
    neighbor(A, B),
    support(B, fixed).
mesh(A, 8) :-
    neighbor(A, B),
    support(B, one_side_fixed).
