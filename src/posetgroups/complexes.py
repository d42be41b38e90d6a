"""Order complexes, exact homology, and induced actions on first homology.

The simplicial complex of a finite poset has the totally ordered subsets
as simplices; its geometric realization carries the same weak homotopy
type as the poset viewed as a finite space, so Betti numbers computed here
are honest invariants of the space.  As a cheap cross-check, the
undirected covering graph of the spaces built in this package has the same
first Betti number as the full complex (asserted in tests, and exposed via
:func:`hasse_undirected`).

Everything is exact integer arithmetic through :mod:`posetgroups.snf`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import SizeLimitExceeded
from .posets import FinitePoset, PosetMap, bits
from .snf import smith_normal_form

DEFAULT_SIMPLEX_LIMIT = 2_000_000
TOP_DIM = 2  # chains up to triangles suffice for b0, b1 and H1 torsion


@dataclass(frozen=True)
class OrderComplex:
    """Chains of a poset, by dimension: ``simplices[k]`` lists the
    (k+1)-point chains as index-sorted tuples, each list sorted."""

    space: FinitePoset
    simplices: tuple[tuple[tuple[int, ...], ...], ...]

    def count(self, dim: int) -> int:
        if dim >= len(self.simplices):
            return 0
        return len(self.simplices[dim])

    @cached_property
    def _basis(self) -> CycleBasis:
        """The one Smith reduction behind :func:`homology_summary` and
        :func:`cycle_basis`, computed on first use."""
        return _reduce(self)


def order_complex(space: FinitePoset, *, limit: int = DEFAULT_SIMPLEX_LIMIT) -> OrderComplex:
    """Enumerate chains up to dimension :data:`TOP_DIM`."""
    n = len(space)
    strict_up = [space.up_mask(i) & ~(1 << i) for i in range(n)]
    by_dim: list[list[tuple[int, ...]]] = [[(i,) for i in range(n)]]
    total = n
    frontier = [((i,), i) for i in range(n)]
    for _ in range(TOP_DIM):
        grown: list[tuple[tuple[int, ...], int]] = []
        for chain, top in frontier:
            for nxt in bits(strict_up[top]):
                grown.append((chain + (nxt,), nxt))
                total += 1
                if total > limit:
                    raise SizeLimitExceeded(
                        f"order complex enumeration stopped after {limit} simplices, "
                        "its limit; raise it with the limit argument of order_complex()"
                    )
        if not grown:
            break
        by_dim.append(sorted(tuple(sorted(chain)) for chain, _ in grown))
        frontier = grown
    return OrderComplex(space, tuple(tuple(level) for level in by_dim))


@dataclass(frozen=True)
class ChainComplex:
    """Integer boundary matrices of an order complex.

    ``boundary[k]`` maps k-chains to (k-1)-chains, stored as
    ``(row, col, coeff)`` triples; validated to compose to zero.
    """

    counts: tuple[int, ...]
    boundary: tuple[tuple[tuple[int, int, int], ...], ...]


def chain_complex(cx: OrderComplex) -> ChainComplex:
    counts = tuple(cx.count(d) for d in range(len(cx.simplices)))
    boundaries: list[tuple[tuple[int, int, int], ...]] = [()]
    for k in range(1, len(cx.simplices)):
        index = {s: i for i, s in enumerate(cx.simplices[k - 1])}
        triples: list[tuple[int, int, int]] = []
        for col, simplex in enumerate(cx.simplices[k]):
            for drop in range(len(simplex)):
                face = simplex[:drop] + simplex[drop + 1:]
                triples.append((index[face], col, (-1) ** drop))
        boundaries.append(tuple(triples))

    # d(d(x)) = 0, checked on every top simplex.  The triples are built
    # column by column, so column c of boundary[k] is the slice
    # [c(k+1), (c+1)(k+1)).
    for k in range(2, len(cx.simplices)):
        upper, lower = boundaries[k], boundaries[k - 1]
        for start in range(0, len(upper), k + 1):
            acc: dict[int, int] = {}
            for r, _, v in upper[start:start + k + 1]:
                for r2, _, v2 in lower[r * k:(r + 1) * k]:
                    acc[r2] = acc.get(r2, 0) + v * v2
            if any(acc.values()):
                raise AssertionError("boundary of boundary is not zero")
    return ChainComplex(counts, tuple(boundaries))


@dataclass(frozen=True)
class HomologySummary:
    b0: int
    b1: int
    h1_torsion: tuple[int, ...]


def homology_summary(cx: OrderComplex) -> HomologySummary:
    """b0, b1 and the torsion coefficients of first homology."""
    basis = cx._basis
    return HomologySummary(b0=basis.components, b1=basis.betti, h1_torsion=basis.torsion)


@dataclass(frozen=True)
class HasseGraph:
    """The undirected covering graph: vertices, edges, and its cycle rank."""

    vertices: int
    edges: tuple[tuple[int, int], ...]
    components: int

    @property
    def cycle_rank(self) -> int:
        return len(self.edges) - self.vertices + self.components


def hasse_undirected(space: FinitePoset) -> HasseGraph:
    return HasseGraph(
        vertices=len(space),
        edges=space.hasse,
        components=len(space.components()),
    )


# -- induced action on first homology ----------------------------------------


@dataclass(frozen=True)
class CycleBasis:
    """A basis of first homology in fundamental-cycle coordinates.

    ``edges`` are the complex's edges, ``simplices[1]``.  Fundamental
    cycles come from an index-ordered spanning forest of the 1-skeleton;
    triangle boundaries expressed in those coordinates make up the relation
    matrix, whose Smith reduction (with transforms) turns any 1-cycle into
    free-part coordinates: ``coords = (U @ nontree_coeffs)`` restricted to
    the non-pivot rows.  ``u_columns`` is that restriction by columns,
    keyed by edge position: a non-tree edge maps to its ``(coordinate,
    value)`` nonzeros, and an edge with none is absent.  ``chains_by_edge``
    is ``basis_chains`` by edges: an edge position maps to its ``(basis
    index, coefficient)`` nonzeros.  ``components`` counts the trees of the
    forest, which is b0.

    It is the complex's memo, shared by every caller; treat it as
    read-only.  It must not refer back to the complex: the pair would then
    be a reference cycle, freed only by the cyclic collector.
    """

    edges: tuple[tuple[int, int], ...]
    edge_positions: dict[tuple[int, int], int]
    nontree: tuple[int, ...]
    basis_chains: tuple[dict[int, int], ...]
    u_columns: dict[int, tuple[tuple[int, int], ...]]
    chains_by_edge: dict[int, tuple[tuple[int, int], ...]]
    free_rows: tuple[int, ...]
    torsion: tuple[int, ...]
    components: int

    @property
    def betti(self) -> int:
        return len(self.free_rows)


def cycle_basis(cx: OrderComplex) -> CycleBasis:
    """The complex's memoized basis (built on first use)."""
    return cx._basis


def _reduce(cx: OrderComplex) -> CycleBasis:
    n = len(cx.space)
    edges = cx.simplices[1] if len(cx.simplices) > 1 else ()
    triangles = cx.simplices[2] if len(cx.simplices) > 2 else ()
    edge_positions = {e: k for k, e in enumerate(edges)}

    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)

    parent = [-1] * n
    depth = [0] * n
    seen = [False] * n
    tree_edges: set[tuple[int, int]] = set()
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
                    seen[there] = True
                    parent[there] = here
                    depth[there] = depth[here] + 1
                    tree_edges.add((min(here, there), max(here, there)))
                    queue.append(there)

    nontree = tuple(
        k for k, e in enumerate(edges) if e not in tree_edges
    )
    nontree_slot = {k: t for t, k in enumerate(nontree)}

    def step_chain(chain: dict[int, int], a: int, b: int, sign: int):
        """Add the oriented edge a->b to a 1-chain."""
        if a < b:
            key, coeff = (a, b), sign
        else:
            key, coeff = (b, a), -sign
        pos = edge_positions[key]
        chain[pos] = chain.get(pos, 0) + coeff
        if chain[pos] == 0:
            del chain[pos]

    def fundamental_chain(edge_pos: int) -> dict[int, int]:
        """The cycle through one nontree edge: the edge plus the tree path back."""
        u, v = edges[edge_pos]
        chain: dict[int, int] = {}
        step_chain(chain, u, v, +1)
        a, b = v, u  # walk from v back to u through the forest
        while a != b:
            if depth[a] >= depth[b]:
                step_chain(chain, a, parent[a], +1)
                a = parent[a]
            else:
                step_chain(chain, parent[b], b, +1)
                b = parent[b]
        return chain

    triples = []
    for col, (a, b, c) in enumerate(triangles):
        for key, sign in (((b, c), 1), ((a, c), -1), ((a, b), 1)):
            pos = edge_positions[key]
            if pos in nontree_slot:
                triples.append((nontree_slot[pos], col, sign))
    snf = smith_normal_form(triples, len(nontree), len(triangles), want_transform=True)

    free = snf.free_rows()
    # Basis representatives: preimages (under U) of the free unit vectors,
    # expanded from fundamental-cycle coordinates to edge chains.  Only the
    # fundamental cycles these columns of U^-1 name are ever built.
    fundamentals: dict[int, dict[int, int]] = {}
    basis_chains = []
    for row in free:
        chain: dict[int, int] = {}
        for t, coeff in snf.u_inv[row].items():
            if t not in fundamentals:
                fundamentals[t] = fundamental_chain(nontree[t])
            for pos, v in fundamentals[t].items():
                chain[pos] = chain.get(pos, 0) + coeff * v
        basis_chains.append({k: v for k, v in chain.items() if v})

    chains_by_edge: dict[int, list[tuple[int, int]]] = {}
    for j, chain in enumerate(basis_chains):
        for pos, coeff in chain.items():
            chains_by_edge.setdefault(pos, []).append((j, coeff))

    u_columns: dict[int, list[tuple[int, int]]] = {}
    for coordinate, row in enumerate(free):
        for t, value in snf.u[row].items():
            u_columns.setdefault(nontree[t], []).append((coordinate, value))

    return CycleBasis(
        edges=edges,
        edge_positions=edge_positions,
        nontree=nontree,
        basis_chains=tuple(basis_chains),
        u_columns={pos: tuple(entries) for pos, entries in u_columns.items()},
        chains_by_edge={pos: tuple(hits) for pos, hits in chains_by_edge.items()},
        free_rows=free,
        torsion=snf.torsion,
        components=components,
    )


def h1_action_columns(basis: CycleBasis, automorphism: PosetMap):
    """The matrix of an automorphism on free first homology, by sparse columns.

    Column ``j`` lists the nonzeros of the image of basis cycle ``j`` as
    ``(coordinate, value)`` pairs in coordinate order, so equal matrices
    are equal (and hash alike) as tuples.  Only the edges in the support of
    ``U`` (the keys of ``u_columns``) can carry a coordinate, so each is
    pulled back through the inverse map and its column of ``U`` scattered
    into the basis cycles that hold the preimage edge (``chains_by_edge``):
    a map costs the support of ``U`` and the hits on it, not a push of
    every chain entry.  Functorial by construction: composing
    automorphisms multiplies the matrices.
    """
    edges = basis.edges
    inverse = [-1] * len(automorphism.images)
    for i, image in enumerate(automorphism.images):
        inverse[image] = i
    if -1 in inverse:
        raise ValueError("the H1 action is pulled back through an automorphism, "
                         "and this map is not a bijection")
    positions, chains_by_edge = basis.edge_positions, basis.chains_by_edge
    accs: list[dict[int, int]] = [{} for _ in basis.basis_chains]
    for target, entries in basis.u_columns.items():
        u, v = edges[target]
        a, b = inverse[u], inverse[v]
        if a < b:
            hits, sign = chains_by_edge.get(positions[a, b], ()), 1
        else:
            hits, sign = chains_by_edge.get(positions[b, a], ()), -1
        for j, coeff in hits:
            acc, coeff = accs[j], sign * coeff
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


def h1_action_matrix(basis: CycleBasis, automorphism: PosetMap):
    """:func:`h1_action_columns` as a dense tuple of rows."""
    return dense_matrix(h1_action_columns(basis, automorphism))
