active(A) :-
    atom_of(A, C),
    elem(C, cl),
    charge(C, c_neg).
active(A) :-
    atom_of(A, F),
    elem(F, cl),
    charge(F, c_pos).
active(A) :-
    atom_of(A, C),
    elem(C, cl),
    bond(C, D, 2).
active(A) :-
    atom_of(A, D),
    elem(D, o),
    bond(D, E, 2).
