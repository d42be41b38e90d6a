"""Order complexes, exact homology, and induced actions on first homology.

The simplicial complex of a finite poset has the totally ordered subsets
as simplices; its geometric realization carries the same weak homotopy
type as the poset viewed as a finite space, so Betti numbers computed here
are honest invariants of the space.  It is counted, not listed: its
chains are listed only when read, and only the test oracles read them.
As a cheap cross-check, the undirected covering graph of the spaces built
in this package has the same first Betti number as the full complex.

Homology is not reduced on the complex itself.  An acyclic matching in the
sense of discrete Morse theory (Forman 1998; the coreductions of
Mrozek and Batko 2009) pairs every non-cover edge with a triangle, so the
1-cells left are the covers; first homology is the cycle space of the
covering graph modulo the triangles' relations, spanned by those whose
middle point covers the lowest, which on the built spaces all vanish.

Each complex keeps one homology record, its :class:`CycleBasis`, filled
on first read by :func:`homology_summary` or :func:`cycle_basis`: the
spanning forest of the covering graph, its non-tree covers and the free
rows of the relations' one Smith form.  The basis cycles themselves, its
cover rows, are expanded from that forest only when first read.  So a
summary builds no cycle, and a complex read for both still runs exactly
one Smith reduction.

Everything is exact integer arithmetic through :mod:`posetgroups.snf`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import mul

from .errors import SizeLimitExceeded
from .posets import FinitePoset, PosetMap, tuple_getter
from .snf import smith_normal_form

DEFAULT_SIMPLEX_LIMIT = 2_000_000


@dataclass(frozen=True)
class OrderComplex:
    """Chains of a poset up to triangles: ``counts[k]`` (k+1)-point chains,
    trimmed after the last nonzero count (``(0,)`` for the empty poset)."""

    space: FinitePoset
    counts: tuple[int, ...]

    @cached_property
    def simplices(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The chains, listed on first read: ``simplices[k]`` holds the
        (k+1)-point chains as index-sorted tuples, each level sorted."""
        closure = self.space.closure
        levels = [[(i,) for i in range(len(self.space))]]  # each chain bottom to top
        for _ in self.counts[1:]:
            levels.append([chain + (c,) for chain in levels[-1]
                           for c in closure(chain[-1]) if c != chain[-1]])
        return tuple(tuple(sorted(tuple(sorted(chain)) for chain in level)) for level in levels)

    @cached_property
    def _basis(self) -> CycleBasis:
        """The one Smith reduction behind :func:`homology_summary` and
        :func:`cycle_basis`, computed on first use."""
        return _reduce(self.space)


def order_complex(space: FinitePoset, *, limit: int = DEFAULT_SIMPLEX_LIMIT) -> OrderComplex:
    """Count the chains up to triangles without listing them: a < b counts
    at b, one of |down(b)| - 1 points below it, and a < b < c at its
    middle b, one of (|down(b)| - 1)(|up(b)| - 1) pairs."""
    below, above = ([size - 1 for size in sizes] for sizes in space.set_sizes)
    edges, triangles = sum(below), sum(map(mul, below, above))
    total = len(space) + edges + triangles
    if total > limit:
        raise SizeLimitExceeded(
            f"order complex has {total} simplices, over its limit of {limit}; "
            "raise it with the limit argument of order_complex()"
        )
    kept = 1 + bool(edges) + bool(triangles)  # dimensions up to the last nonempty one
    return OrderComplex(space, (len(space), edges, triangles)[:kept])


@dataclass(frozen=True)
class ChainComplex:
    """Integer boundary matrices of an order complex.

    ``boundary[k]`` maps k-chains to (k-1)-chains, stored as
    ``(row, col, coeff)`` triples; validated to compose to zero.
    """

    counts: tuple[int, ...]
    boundary: tuple[tuple[tuple[int, int, int], ...], ...]


def chain_complex(cx: OrderComplex) -> ChainComplex:
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
    return ChainComplex(cx.counts, tuple(boundaries))


@dataclass(frozen=True)
class HomologySummary:
    b0: int
    b1: int
    h1_torsion: tuple[int, ...]


def homology_summary(cx: OrderComplex) -> HomologySummary:
    """b0, b1 and the torsion coefficients of first homology, read off the
    complex's memoized basis (reduced on first use): its tree count, free
    rows and torsion, and no cover row, so no cycle of it is built."""
    basis = cx._basis
    return HomologySummary(b0=basis.components, b1=basis.betti, h1_torsion=basis.torsion)


# -- induced action on first homology ----------------------------------------


@dataclass(frozen=True)
class CycleBasis:
    """A basis of first homology in fundamental-cycle coordinates, as the
    Smith reduction of one space's first homology leaves it.

    ``edges`` are the covers, ``space.hasse``, each oriented lower to
    upper.  Fundamental cycles come from an index-ordered BFS forest of
    the covering graph (each point's ``depth``, ``parent`` and ``step``,
    its walk to the parent as ``(cover position, +1 up or -1 down)``),
    one per non-tree cover (``nontree``).  A discrete Morse matching
    leaves the covers as the only edges, and the triangles whose middle
    point covers the lowest span the relations among the cover cycles;
    their Smith reduction (with transforms) turns any cover cycle into
    free-part coordinates: ``coords = (U @ nontree_coeffs)`` restricted
    to the non-pivot rows.  ``u_rows`` holds those rows by coordinate and
    ``u_inv_rows`` the free columns of ``U^-1``, which name each basis
    cycle, as ``(non-tree slot, value)`` nonzeros.  ``components`` counts
    the trees of the forest, which is b0, and ``points`` the points of
    the space.  A summary reads no more; the forest is read only when
    :attr:`cover_rows` expands the cycles.

    It is the complex's memo, shared by every caller; treat it as
    read-only.  It must not refer back to the complex: the pair would then
    be a reference cycle, freed only by the cyclic collector.  Its own
    memos, :attr:`cover_rows` and :attr:`interned`, hold no reference back
    to it either.
    """

    points: int
    edges: tuple[tuple[int, int], ...]
    nontree: tuple[int, ...]
    u_rows: tuple[tuple[tuple[int, int], ...], ...]
    u_inv_rows: tuple[tuple[tuple[int, int], ...], ...]
    torsion: tuple[int, ...]
    components: int
    depth: tuple[int, ...] = field(compare=False, repr=False)
    parent: tuple[int, ...] = field(compare=False, repr=False)
    step: tuple[tuple[int, int], ...] = field(compare=False, repr=False)

    @property
    def betti(self) -> int:
        return len(self.u_rows)

    @cached_property
    def cover_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The basis cycles by cover, expanded on first read: position ``p``
        holds the ``(basis index, coefficient)`` nonzeros of cover ``p`` in
        basis order, ``()`` when no basis cycle runs through it."""
        edges, nontree = self.edges, self.nontree
        depth, parent, step = self.depth, self.parent, self.step

        def fundamental_chain(edge_pos: int) -> dict[int, int]:
            """The cycle through one non-tree cover: the cover plus the tree path back."""
            chain = {edge_pos: 1}
            a, b = edges[edge_pos][1], edges[edge_pos][0]  # walk from the top back to the bottom
            while a != b:
                if depth[a] >= depth[b]:
                    (pos, sign), a = step[a], parent[a]
                else:
                    (pos, sign), b = step[b], parent[b]
                    sign = -sign
                chain[pos] = sign  # a tree path takes each cover once
            return chain

        # Basis representatives: preimages (under U) of the free unit vectors,
        # expanded from fundamental-cycle coordinates and scattered by cover.
        # Only the fundamental cycles these columns of U^-1 name are built.
        fundamentals: dict[int, dict[int, int]] = {}
        cover_rows: list[list[tuple[int, int]]] = [[] for _ in edges]
        for j, column in enumerate(self.u_inv_rows):
            chain: dict[int, int] = {}
            for t, coeff in column:
                if t not in fundamentals:
                    fundamentals[t] = fundamental_chain(nontree[t])
                for pos, v in fundamentals[t].items():
                    chain[pos] = chain.get(pos, 0) + coeff * v
            for pos, v in chain.items():
                if v:
                    cover_rows[pos].append((j, v))

        # equal rows are one tuple, which the action's rows then share
        shared: dict[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]] = {}
        return tuple(shared.setdefault(row, row) for row in map(tuple, cover_rows))

    @cached_property
    def interned(self) -> InternedRows:
        """The basis's H1 rows by id, built on first use."""
        return InternedRows(self)


class InternedRows:
    """Each distinct sparse H1 row of one basis, numbered once as its id.

    ``rows[k]`` is the row with id ``k`` and ``ids`` maps a row back to its
    id, so equal rows have equal ids and a matrix is its tuple of row ids.
    The memo is seeded with the distinct ``cover_rows`` (``cover_ids``
    maps each cover, as its ``(lower, upper)`` pair, to the id of its row)
    and grows only through :meth:`intern`: a non-unit row of ``U`` sums
    gathered rows into a row that may be new, and so may a product of
    matrices.  ``dense[k]`` is row ``k`` with its zeros written out, made
    the first time it is read, so each distinct row is densified once
    however many matrices hold it.  ``lower`` and ``upper`` read an
    inverse map at the ends of the non-tree covers that the rows read.
    When every row of ``U`` is a unit row they are the one cover each row
    picks, in row order, so the gathered ids are the matrix; otherwise
    (``sums``) they are every non-tree cover, in slot order.  Nothing here
    refers back to the basis.
    """

    def __init__(self, basis: CycleBasis):
        self.ids: dict[tuple[tuple[int, int], ...], int] = {}
        self.cover_ids = {cover: self.ids.setdefault(row, len(self.ids))
                          for cover, row in zip(basis.edges, basis.cover_rows)}
        self.rows = list(self.ids)
        self.dense = _DenseRows(self.rows, basis.betti)
        self.sums = not all(len(row) == 1 and row[0][1] == 1 for row in basis.u_rows)
        slots = range(len(basis.nontree)) if self.sums else (row[0][0] for row in basis.u_rows)
        covers = [basis.edges[basis.nontree[t]] for t in slots]
        self.lower = tuple_getter([a for a, _ in covers])
        self.upper = tuple_getter([b for _, b in covers])

    def intern(self, row: tuple[tuple[int, int], ...]) -> int:
        """The id of ``row``, numbering it if it is new."""
        k = self.ids.setdefault(row, len(self.rows))
        if k == len(self.rows):
            self.rows.append(row)
        return k


class _DenseRows(dict):
    """Dense rows by id, each written out on its first read."""

    def __init__(self, rows, width: int):
        super().__init__()
        self.rows, self.width = rows, width

    def __missing__(self, k: int) -> tuple[int, ...]:
        values = [0] * self.width
        for j, value in self.rows[k]:
            values[j] = value
        self[k] = dense = tuple(values)
        return dense


def cycle_basis(cx: OrderComplex) -> CycleBasis:
    """The complex's memoized basis, the one Smith reduction that
    :func:`homology_summary` shares, reduced on first use.  Its cycles
    are expanded into :attr:`CycleBasis.cover_rows` on their first read."""
    return cx._basis


def _reduce(space: FinitePoset) -> CycleBasis:
    n = len(space)
    edges = space.hasse
    edge_positions = {e: k for k, e in enumerate(edges)}
    up, down = space.cover_index.up, space.cover_index.down

    # A BFS forest of the covering graph.  ``step[x]`` is the walk from x
    # to its parent as ``(cover position, +1 up the cover or -1 down it)``.
    depth = [-1] * n
    parent = [-1] * n
    step: list[tuple[int, int]] = [(-1, 0)] * n
    tree: set[int] = set()
    components = 0
    for root in range(n):
        if depth[root] >= 0:
            continue
        components += 1
        depth[root] = 0
        queue = deque([root])
        while queue:
            here = queue.popleft()
            for there in sorted(down[here] + up[here]):
                if depth[there] < 0:
                    depth[there], parent[there] = depth[here] + 1, here
                    if here in up[there]:
                        pos, sign = edge_positions[there, here], 1
                    else:
                        pos, sign = edge_positions[here, there], -1
                    step[there] = (pos, sign)
                    tree.add(pos)
                    queue.append(there)
    nontree = tuple(k for k in range(len(edges)) if k not in tree)
    slot = {k: t for t, k in enumerate(nontree)}

    # The Morse matching pairs each non-cover a < c with the triangle
    # (a, s, c), s the first upper cover of a below c, so a < c flows to
    # the cover path P(a, c) = (a, s) + P(s, c).  ``paths[a][c]`` holds the
    # non-tree covers of P(a, c) as slots in path order; an upward path
    # takes each cover once and forward.  Points are visited after their
    # upper covers: a < s leaves |up(s)| < |up(a)|, so ascending up-set
    # size is enough.  With s the first cover of a below b, the relation
    # R(a, b, c) = P(a, b) + P(b, c) - P(a, c) of a triangle is R(s, b, c)
    # + R(a, s, c), so by induction on [a, b] those with b covering a span
    # all.  R(a, s, c) is zero for the first cover s to reach c; each later
    # one emits it unless it is zero (upward paths agree as equal tuples).
    paths: list[dict[int, tuple[int, ...]]] = [{} for _ in range(n)]
    triples: list[tuple[int, int, int]] = []
    relations = 0
    for a in sorted(range(n), key=space.set_sizes[1].__getitem__):
        here = paths[a]
        for s in up[a]:
            t = slot.get(edge_positions[a, s])
            here[s] = first = () if t is None else (t,)
            for c, rest in paths[s].items():
                whole = here.get(c)
                if whole is None:
                    here[c] = first + rest
                elif first + rest != whole:  # the reduction sums what cancels
                    triples += [(k, relations, 1) for k in first + rest]
                    triples += [(k, relations, -1) for k in whole]
                    relations += 1
    snf = smith_normal_form(triples, len(nontree), relations, want_transform=True)
    free = snf.free_rows()
    return CycleBasis(
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


def h1_action_ids(basis: CycleBasis, automorphism: PosetMap) -> tuple[int, ...]:
    """The matrix of an automorphism on free first homology, as row ids.

    Entry ``i`` is the id of row ``i`` in ``basis.interned``, which lists
    the nonzeros of coordinate ``i`` of the image cycles as ``(basis
    index, value)`` pairs in basis order, so two maps have equal matrices
    exactly when they have equal id tuples.  Coordinate ``i`` reads the
    non-tree covers through row ``i`` of ``U``, and the image of a chain
    carries at cover ``e`` the chain's coefficient at the preimage of
    ``e``: an automorphism maps covers to covers, lower end to lower end,
    so no sign enters.  So each non-tree cover is pulled back through the
    inverse map and the id of the basis's row at the preimage gathered,
    at C level.  When every row of ``U`` is a unit row (as on the built
    spaces, whose reduction keeps no relation) each row gathers only the
    cover it picks, and the gathered ids are the matrix; otherwise every
    row sums the gathered rows (:func:`row_times`) and interns the sum.
    Functorial by construction: composing automorphisms multiplies the
    matrices.  A map of another space, or one that is not a bijection,
    raises ``ValueError``.
    """
    interned = basis.interned
    images = automorphism.images
    if len(images) != basis.points:
        raise ValueError(f"the H1 action is pulled back through a map of {len(images)} "
                         f"points, and the basis's space has {basis.points}")
    inverse = [-1] * len(images)
    for i, image in enumerate(images):
        inverse[image] = i
    if -1 in inverse:
        raise ValueError("the H1 action is pulled back through an automorphism, "
                         "and this map is not a bijection")
    try:
        gathered = tuple(map(interned.cover_ids.__getitem__,
                             zip(interned.lower(inverse), interned.upper(inverse))))
    except KeyError:
        raise ValueError("the H1 action is pulled back through an automorphism, and "
                         "this map pulls a cover back to a pair that is not one") from None
    if not interned.sums:
        return gathered
    matrix = tuple(map(interned.rows.__getitem__, gathered))
    return tuple(map(interned.intern, map(row_times, basis.u_rows, repeat(matrix))))


def row_times(row, matrix):
    """The sparse row ``row`` times the matrix of sparse rows ``matrix``.

    A unit row is one gather: it returns the row of ``matrix`` itself, not
    a copy.  Any other row sums the rows it names, in basis order.
    """
    if len(row) == 1 and row[0][1] == 1:
        return matrix[row[0][0]]
    acc: dict[int, int] = {}
    for k, x in row:
        for j, y in matrix[k]:
            acc[j] = acc.get(j, 0) + x * y
    return tuple(sorted((j, v) for j, v in acc.items() if v))


def h1_action_matrix(basis: CycleBasis, automorphism: PosetMap):
    """:func:`h1_action_ids` as a tuple of dense rows, one gather of the
    interned dense rows (shared by every matrix that holds them)."""
    return tuple(map(basis.interned.dense.__getitem__, h1_action_ids(basis, automorphism)))
