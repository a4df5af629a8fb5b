mesh(A, 1) :-
    etype(A, short).
mesh(A, 4) :-
    etype(A, long).
mesh(A, 6) :-
    etype(A, long),
    support(A, fixed).
mesh(A, 2) :-
    etype(A, short),
    load(A, loaded).
mesh(A, 5) :-
    etype(A, circuit).
mesh(A, 7) :-
    etype(A, circuit),
    neighbor(A, B),
    support(B, fixed).
mesh(A, 3) :-
    etype(A, half_circuit).
mesh(A, 8) :-
    etype(A, half_circuit).
mesh(A, 6) :-
    etype(A, short),
    neighbor(A, C),
    etype(C, circuit).
mesh(A, 1) :-
    etype(A, long),
    neighbor(A, C),
    load(C, cont_loaded).
mesh(A, 6) :-
    etype(A, short),
    load(A, cont_loaded).
mesh(A, 3) :-
    etype(A, short),
    load(A, loaded).
mesh(A, 7) :-
    neighbor(A, B),
    etype(B, half_circuit).
mesh(A, 3) :-
    load(A, cont_loaded),
    neighbor(A, B),
    etype(B, long).
mesh(A, 7) :-
    support(A, free),
    load(A, loaded).
mesh(A, 1) :-
    etype(A, long),
    neighbor(A, B),
    etype(B, half_circuit).
mesh(A, 2) :-
    etype(A, circuit),
    neighbor(A, C),
    etype(C, half_circuit).
mesh(A, 6) :-
    neighbor(A, B),
    etype(B, short),
    load(B, loaded).
mesh(A, 3) :-
    etype(A, long),
    neighbor(A, B),
    etype(B, circuit).
mesh(A, 2) :-
    load(A, cont_loaded),
    neighbor(A, B),
    support(B, fixed).
mesh(A, 5) :-
    etype(A, long),
    neighbor(A, B),
    etype(B, long).
mesh(A, 2) :-
    etype(A, half_circuit),
    neighbor(A, B),
    support(B, one_side_fixed).
mesh(A, 7) :-
    etype(A, short),
    load(A, not_loaded).
mesh(A, 3) :-
    etype(A, circuit),
    neighbor(A, B),
    load(B, loaded).
mesh(A, 4) :-
    neighbor(A, B),
    etype(B, short),
    load(B, cont_loaded).
mesh(A, 5) :-
    neighbor(A, B),
    etype(B, short),
    load(B, cont_loaded).
mesh(A, 1) :-
    neighbor(A, C),
    etype(C, long),
    load(C, not_loaded).
mesh(A, 8) :-
    etype(A, long),
    support(A, free),
    load(A, loaded).
mesh(A, 4) :-
    load(A, not_loaded),
    neighbor(A, B),
    support(B, fixed).
mesh(A, 2) :-
    etype(A, circuit),
    load(A, not_loaded).
mesh(A, 6) :-
    neighbor(A, B),
    support(B, fixed).
mesh(A, 7) :-
    etype(A, long),
    neighbor(A, C),
    support(C, one_side_fixed).
mesh(A, 8) :-
    etype(A, short),
    load(A, loaded).
mesh(A, 8) :-
    load(A, not_loaded),
    neighbor(A, B),
    support(B, one_side_fixed).
mesh(A, 4) :-
    neighbor(A, B),
    etype(B, short),
    support(B, fixed).
mesh(A, 2) :-
    support(A, free),
    neighbor(A, C),
    support(C, fixed).
mesh(A, 8) :-
    neighbor(A, C),
    etype(C, long),
    load(C, loaded).
mesh(A, 2) :-
    etype(A, long),
    neighbor(A, C),
    etype(C, short).
mesh(A, 5) :-
    neighbor(A, C),
    etype(C, circuit),
    support(C, fixed).
mesh(A, 5) :-
    neighbor(A, C),
    etype(C, short),
    support(C, fixed).
