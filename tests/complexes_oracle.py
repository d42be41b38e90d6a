"""Reference cycle bases and H1 actions, kept for tests only.

``oracle_h1_action_matrix`` is the row-by-row version of
:func:`posetgroups.h1_action_matrix`: each image cycle is pushed forward
whole, and every free row of ``U`` is then walked for every column, which
costs b × nnz(U) per map.  ``U`` is taken from its own Smith reduction of
the relation matrix, so the column view the fast path reads is not used.

``oracle_h1_action_columns`` is the push-forward form of
:func:`posetgroups.h1_action_columns`: every edge of every basis chain is
pushed through the map and scattered through ``u_columns``.
``oracle_basis_chains`` rebuilds the basis chains from its own spanning
forest and Smith reduction, with the fundamental cycle of every non-tree
edge built up front.  The property tests compare all three with the
library.

``betti`` reads Betti numbers off the boundary matrices of
:func:`posetgroups.complexes.chain_complex`, one Smith reduction per
boundary (``rank_of_boundary``): the homology oracle that
:func:`posetgroups.homology_summary` is compared against.
"""

from __future__ import annotations

from collections import deque

from posetgroups import smith_normal_form


def rank_of_boundary(cc, k: int) -> int:
    """Rank of ``cc.boundary[k]``; zero outside the complex."""
    if k < 1 or k >= len(cc.counts):
        return 0
    return smith_normal_form(cc.boundary[k], cc.counts[k - 1], cc.counts[k]).rank


def betti(cc, k: int) -> int:
    """The k-th Betti number of a chain complex."""
    if k < 0 or k >= len(cc.counts):
        return 0
    return cc.counts[k] - rank_of_boundary(cc, k) - rank_of_boundary(cc, k + 1)


def oracle_basis_chains(cx):
    """Basis chains as ``{edge position: coefficient}``, rebuilt independently."""
    n = len(cx.space)
    edges = cx.simplices[1] if len(cx.simplices) > 1 else ()
    triangles = cx.simplices[2] if len(cx.simplices) > 2 else ()
    position = {e: k for k, e in enumerate(edges)}
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    parent, depth, seen, tree = [-1] * n, [0] * n, [False] * n, set()
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            here = queue.popleft()
            for there in sorted(adjacency[here]):
                if not seen[there]:
                    seen[there], parent[there] = True, here
                    depth[there] = depth[here] + 1
                    tree.add((min(here, there), max(here, there)))
                    queue.append(there)
    nontree = [k for k, e in enumerate(edges) if e not in tree]

    def add(chain, a, b):
        key, sign = ((a, b), 1) if a < b else ((b, a), -1)
        chain[position[key]] = chain.get(position[key], 0) + sign

    fundamentals = []
    for k in nontree:
        u, v = edges[k]
        chain = {}
        add(chain, u, v)
        a, b = v, u
        while a != b:
            if depth[a] >= depth[b]:
                add(chain, a, parent[a])
                a = parent[a]
            else:
                add(chain, parent[b], b)
                b = parent[b]
        fundamentals.append({pos: c for pos, c in chain.items() if c})

    slot = {k: t for t, k in enumerate(nontree)}
    triples = [
        (slot[position[key]], col, sign)
        for col, (a, b, c) in enumerate(triangles)
        for key, sign in (((b, c), 1), ((a, c), -1), ((a, b), 1))
        if position[key] in slot
    ]
    snf = smith_normal_form(triples, len(nontree), len(triangles), want_transform=True)
    chains = []
    for row in snf.free_rows():
        chain = {}
        for t, coeff in snf.u_inv[row].items():
            for pos, v in fundamentals[t].items():
                chain[pos] = chain.get(pos, 0) + coeff * v
        chains.append({pos: v for pos, v in chain.items() if v})
    return tuple(chains)


def oracle_h1_action_columns(basis, automorphism):
    """Sparse columns of the action, each chain edge pushed forward."""
    cx = basis.complex
    edges = cx.simplices[1] if len(cx.simplices) > 1 else ()
    images = automorphism.images
    positions, u_columns = basis.edge_positions, basis.u_columns
    columns = []
    for chain in basis.basis_chains:
        acc: dict[int, int] = {}
        for pos, coeff in chain.items():
            a, b = edges[pos]
            fa, fb = images[a], images[b]
            if fa < fb:
                entries = u_columns.get(positions[fa, fb], ())
            else:
                entries = u_columns.get(positions[fb, fa], ())
                coeff = -coeff
            for coordinate, value in entries:
                acc[coordinate] = acc.get(coordinate, 0) + coeff * value
        columns.append(tuple(sorted((k, v) for k, v in acc.items() if v)))
    return tuple(columns)


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
