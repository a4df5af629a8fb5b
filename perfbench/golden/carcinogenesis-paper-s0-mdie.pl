active(A) :-
    atom_of(A, B),
    elem(B, o),
    bond(B, C, 2).
active(A) :-
    atom_of(A, E),
    elem(E, cl),
    charge(E, c_neg).
