"""Reference H1 action matrix, kept for tests only.

``oracle_h1_action_matrix`` is the row-by-row version of
:func:`posetgroups.h1_action_matrix`: each image cycle is pushed forward
whole, and every free row of ``U`` is then walked for every column, which
costs b × nnz(U) per map.  ``U`` is taken from its own Smith reduction of
the relation matrix, so the column view the fast path reads is not used.
The property tests compare the two.
"""

from __future__ import annotations

from posetgroups import smith_normal_form


def oracle_u_rows(basis):
    """Rows of ``U`` as ``{nontree slot: value}``, reduced afresh."""
    cx = basis.complex
    triangles = cx.simplices[2] if len(cx.simplices) > 2 else ()
    slot = {pos: t for t, pos in enumerate(basis.nontree)}
    triples = []
    for col, (a, b, c) in enumerate(triangles):
        for key, sign in (((b, c), 1), ((a, c), -1), ((a, b), 1)):
            pos = basis.edge_positions[key]
            if pos in slot:
                triples.append((slot[pos], col, sign))
    return smith_normal_form(
        triples, len(slot), len(triangles), want_transform=True
    ).u


def oracle_h1_action_matrix(basis, automorphism):
    """The matrix of an automorphism on free first homology, as dense rows."""
    u = oracle_u_rows(basis)
    cx = basis.complex
    edges = cx.simplices[1] if len(cx.simplices) > 1 else ()
    images = automorphism.images
    slot = {pos: t for t, pos in enumerate(basis.nontree)}
    columns = []
    for chain in basis.basis_chains:
        pushed: dict[int, int] = {}
        for pos, coeff in chain.items():
            a, b = edges[pos]
            fa, fb = images[a], images[b]
            if fa < fb:
                key, sign = (fa, fb), coeff
            else:
                key, sign = (fb, fa), -coeff
            new_pos = basis.edge_positions[key]
            pushed[new_pos] = pushed.get(new_pos, 0) + sign
        # fundamental coordinates = coefficients on nontree edges
        w = {slot[pos]: v for pos, v in pushed.items() if v and pos in slot}
        columns.append(
            tuple(
                sum(v * w[t] for t, v in u[row].items() if t in w)
                for row in basis.free_rows
            )
        )
    # transpose: rows are output coordinates
    b = len(basis.free_rows)
    return tuple(tuple(columns[j][i] for j in range(b)) for i in range(b))
