"""Reference cycle bases and H1 actions, kept for tests only.

``oracle_cycle_basis`` is the reduction on the order complex itself: its
1-cells are all comparable pairs (index-sorted, so a pair's orientation is
its index order), its spanning forest is an index-ordered BFS forest of
that 1-skeleton, and the Smith reduction with transforms runs on the
(non-tree pairs × triangles) matrix.  It returns a
:class:`posetgroups.complexes.CycleBasis` over those pairs, its forest
recorded and its ``cover_rows`` memo seeded with the oracle's own chains,
so the library's expansion never runs on it.  The library's
basis lives on the covers after a Morse matching, so the two bases differ
by an integer change of basis; ``oracle_coordinates`` reads a cover chain
in the oracle's coordinates, which is how the tests build that change of
basis.

``oracle_h1_action_matrix`` is the row-by-row action on the oracle basis:
each image cycle is pushed forward whole, and every free row of ``U`` is
then walked for every column, which costs b × nnz(U) per map.  ``U`` is
taken from its own Smith reduction of the triangles (``oracle_u_rows``),
so the column view is not used.

``h1_action_columns`` is the library's former column scatter: each
cover in the support of ``U`` is pulled back through the inverse map and
its column of ``U`` scattered into the basis cycles through the preimage
cover.  Its transpose must equal the rows of
:func:`posetgroups.h1_action_ids`, which gathers rows instead;
``dense_matrix`` writes its columns out as dense rows.  ``oracle_h1_action_columns`` is the push-forward form: every edge of
every basis chain is pushed through the map and scattered through the
columns of ``U``.  It reads any basis, the library's or the oracle's.

``betti`` reads Betti numbers off the boundary matrices of
:func:`posetgroups.complexes.chain_complex`, one Smith reduction per
boundary (``rank_of_boundary``).

``basis_chains`` reads a basis's ``cover_rows`` back into one chain per
cycle, the form the oracles and the tests check.

``oracle_h1_action_rows`` is the library's former row gather, with no
ids: each non-tree cover's preimage row is gathered as a tuple and every
free row of ``U`` sums the rows it names (``oracle_row_times``);
``dense_rows`` writes such rows out with their zeros.
``oracle_h1_faithful`` is the former ``h1-action-faithful`` check over
those row tuples, each row times a generator's matrix computed once
through a ``functools.cache`` keyed by the row.  Its generators are
picked greedily from the whole composition table, first validated as a
group table, not taken from the search; it returns the library check's
``(status, detail)`` pair.
"""

from __future__ import annotations

from collections import deque
from functools import cache, partial

from posetgroups import smith_normal_form
from posetgroups.complexes import CycleBasis
from posetgroups.groups import _greedy_generators

from homotopy_oracle import automorphism_group


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


def basis_chains(basis) -> tuple[dict[int, int], ...]:
    """The basis cycles as ``{edge position: coefficient}`` chains, read
    back from ``cover_rows`` (each chain's positions ascending)."""
    chains: list[dict[int, int]] = [{} for _ in range(basis.betti)]
    for pos, row in enumerate(basis.cover_rows):
        for j, coeff in row:
            chains[j][pos] = coeff
    return tuple(chains)


def _triangle_triples(triangles, position, slot):
    """The boundaries of ``triangles`` on the non-tree pairs, as triples."""
    return [
        (slot[position[key]], col, sign)
        for col, (a, b, c) in enumerate(triangles)
        for key, sign in (((b, c), 1), ((a, c), -1), ((a, b), 1))
        if position[key] in slot
    ]


def oracle_cycle_basis(cx) -> CycleBasis:
    """A basis of first homology reduced on the order complex's triangles."""
    n = len(cx.space)
    edges = cx.simplices[1] if len(cx.simplices) > 1 else ()
    triangles = cx.simplices[2] if len(cx.simplices) > 2 else ()
    position = {e: k for k, e in enumerate(edges)}
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    parent, depth, seen, tree = [-1] * n, [0] * n, [False] * n, set()
    step = [(-1, 0)] * n
    components = 0
    for root in range(n):
        if seen[root]:
            continue
        components += 1
        seen[root] = True
        queue = deque([root])
        while queue:
            here = queue.popleft()
            for there in sorted(adjacency[here]):
                if not seen[there]:
                    seen[there], parent[there] = True, here
                    depth[there] = depth[here] + 1
                    pair = (min(here, there), max(here, there))
                    step[there] = (position[pair], 1 if here > there else -1)
                    tree.add(pair)
                    queue.append(there)
    nontree = tuple(k for k, e in enumerate(edges) if e not in tree)

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
    snf = smith_normal_form(_triangle_triples(triangles, position, slot),
                            len(nontree), len(triangles), want_transform=True)
    free = snf.free_rows()
    chains = []
    for row in free:
        chain = {}
        for t, coeff in snf.u_inv[row].items():
            for pos, v in fundamentals[t].items():
                chain[pos] = chain.get(pos, 0) + coeff * v
        chains.append({pos: v for pos, v in chain.items() if v})
    cover_rows: list[list] = [[] for _ in edges]
    for j, chain in enumerate(chains):
        for pos, coeff in chain.items():
            cover_rows[pos].append((j, coeff))
    basis = CycleBasis(
        points=n,
        edges=edges,
        nontree=nontree,
        u_rows=tuple(tuple(snf.u[row].items()) for row in free),
        u_inv_rows=tuple(tuple(snf.u_inv[row].items()) for row in free),
        torsion=snf.torsion,
        components=components,
        depth=tuple(depth),
        parent=tuple(parent),
        step=tuple(step),
    )
    vars(basis)["cover_rows"] = tuple(map(tuple, cover_rows))
    return basis


def edge_positions(basis) -> dict[tuple[int, int], int]:
    """Each edge of a basis, as its ``(lower, upper)`` pair, to its position."""
    return {e: k for k, e in enumerate(basis.edges)}


def _pushed(basis, chain, images):
    """``chain`` pushed through ``images``, by the basis's edge positions."""
    edges, positions = basis.edges, edge_positions(basis)
    pushed: dict[int, int] = {}
    for pos, coeff in chain.items():
        a, b = edges[pos]
        key = (images[a], images[b])
        if key not in positions:
            key, coeff = key[::-1], -coeff
        pushed[positions[key]] = pushed.get(positions[key], 0) + coeff
    return pushed


def u_columns(basis) -> dict[int, list[tuple[int, int]]]:
    """The free rows of ``U`` by columns: a non-tree edge position maps to
    its ``(coordinate, value)`` nonzeros, and an edge with none is absent."""
    columns: dict[int, list[tuple[int, int]]] = {}
    for coordinate, entries in enumerate(basis.u_rows):
        for t, value in entries:
            columns.setdefault(basis.nontree[t], []).append((coordinate, value))
    return columns


def _coordinates(columns, chain) -> dict[int, int]:
    """Free coordinates of a 1-cycle given by edge positions, through ``U``'s columns."""
    acc: dict[int, int] = {}
    for pos, coeff in chain.items():
        for coordinate, value in columns.get(pos, ()):
            acc[coordinate] = acc.get(coordinate, 0) + coeff * value
    return {k: v for k, v in acc.items() if v}


def h1_action_columns(basis, automorphism):
    """Sparse columns of the action: column ``j`` lists the nonzeros of the
    image of basis cycle ``j`` as ``(coordinate, value)`` pairs."""
    edges, positions = basis.edges, edge_positions(basis)
    inverse = [-1] * len(automorphism.images)
    for i, image in enumerate(automorphism.images):
        inverse[image] = i
    accs: list[dict[int, int]] = [{} for _ in range(basis.betti)]
    for target, entries in u_columns(basis).items():
        u, v = edges[target]
        for j, coeff in basis.cover_rows[positions[inverse[u], inverse[v]]]:
            acc = accs[j]
            for coordinate, value in entries:
                acc[coordinate] = acc.get(coordinate, 0) + coeff * value
    return tuple(tuple(sorted((k, v) for k, v in acc.items() if v)) for acc in accs)


def dense_matrix(columns) -> tuple[tuple[int, ...], ...]:
    """Square sparse columns as a tuple of rows (zeros written out)."""
    rows = [[0] * len(columns) for _ in columns]
    for j, column in enumerate(columns):
        for i, value in column:
            rows[i][j] = value
    return tuple(map(tuple, rows))


def oracle_h1_action_columns(basis, automorphism):
    """Sparse columns of the action, each chain edge pushed forward."""
    columns = u_columns(basis)
    return tuple(
        tuple(sorted(_coordinates(columns, _pushed(basis, chain, automorphism.images)).items()))
        for chain in basis_chains(basis)
    )


def oracle_coordinates(oracle, cover_chain, covers) -> tuple[int, ...]:
    """The oracle's free coordinates of a chain on ``covers`` (lower, upper)."""
    chain: dict[int, int] = {}
    positions = edge_positions(oracle)
    for pos, coeff in cover_chain.items():
        a, b = covers[pos]
        key, sign = ((a, b), coeff) if a < b else ((b, a), -coeff)
        chain[positions[key]] = chain.get(positions[key], 0) + sign
    coords = _coordinates(u_columns(oracle), chain)
    return tuple(coords.get(i, 0) for i in range(oracle.betti))


def oracle_u_rows(basis):
    """The Smith reduction of the triangles, afresh: its rows of ``U`` are
    ``{nontree slot: value}``."""
    # The triangles are the sorted 3-cliques of the edges (the comparable pairs).
    above: dict[int, list[int]] = {}
    for a, b in basis.edges:
        above.setdefault(a, []).append(b)
    positions = edge_positions(basis)
    triangles = sorted((a, b, c) for a, b in basis.edges for c in above.get(b, ())
                       if (a, c) in positions)
    slot = {pos: t for t, pos in enumerate(basis.nontree)}
    return smith_normal_form(
        _triangle_triples(triangles, positions, slot),
        len(slot), len(triangles), want_transform=True,
    )


def oracle_h1_action_matrix(basis, automorphism):
    """The action on an oracle basis, as dense rows."""
    snf = oracle_u_rows(basis)
    u, free = snf.u, snf.free_rows()
    slot = {pos: t for t, pos in enumerate(basis.nontree)}
    columns = []
    for chain in basis_chains(basis):
        pushed = _pushed(basis, chain, automorphism.images)
        # fundamental coordinates = coefficients on nontree edges
        w = {slot[pos]: v for pos, v in pushed.items() if v and pos in slot}
        columns.append(
            tuple(
                sum(v * w[t] for t, v in u[row].items() if t in w)
                for row in free
            )
        )
    # transpose: rows are output coordinates
    b = len(free)
    return tuple(tuple(columns[j][i] for j in range(b)) for i in range(b))


def oracle_row_times(row, matrix):
    """The sparse row ``row`` times the matrix of sparse rows ``matrix``,
    summed entry by entry (no shortcut for a unit row)."""
    acc: dict[int, int] = {}
    for k, x in row:
        for j, y in matrix[k]:
            acc[j] = acc.get(j, 0) + x * y
    return tuple(sorted((j, v) for j, v in acc.items() if v))


def oracle_h1_action_rows(basis, automorphism):
    """The action's sparse rows: each non-tree cover's preimage row
    gathered, then summed through the free rows of ``U``."""
    inverse = [-1] * len(automorphism.images)
    for i, image in enumerate(automorphism.images):
        inverse[image] = i
    positions, gathered = edge_positions(basis), []
    for pos in basis.nontree:
        u, v = basis.edges[pos]
        gathered.append(basis.cover_rows[positions[inverse[u], inverse[v]]])
    return tuple(oracle_row_times(row, gathered) for row in basis.u_rows)


def dense_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Square sparse rows written out with their zeros."""
    dense = []
    for row in rows:
        values = [0] * len(rows)
        for j, value in row:
            values[j] = value
        dense.append(tuple(values))
    return tuple(dense)


def oracle_h1_faithful(basis, auts):
    """``h1-action-faithful`` over row tuples: M(e) = I, the matrices
    pairwise distinct, and M(a·s) = M(a)·M(s) for each generator s."""
    matrices = [oracle_h1_action_rows(basis, m) for m in auts.maps]
    if matrices[auts.identity_index()] != tuple(((j, 1),) for j in range(basis.betti)):
        return "FAIL", "the identity automorphism does not act as the identity matrix"
    if len(set(matrices)) != len(matrices):
        return "FAIL", "two automorphisms induce the same matrix on first homology"
    for j in _greedy_generators(automorphism_group(auts)):
        times = cache(partial(oracle_row_times, matrix=matrices[j]))
        for i in range(auts.order):
            if tuple(map(times, matrices[i])) != matrices[auts.table[i][j]]:
                return "FAIL", f"matrix composition disagrees for pair ({i}, {j})"
    return "PASS", (
        f"{len(matrices)} automorphisms act by {basis.betti}x{basis.betti} "
        "matrices, pairwise distinct, composition respected"
    )
