"""Isomorphism and automorphism search for finite posets.

The search is label-blind.  The points of both posets are coloured jointly
as one disjoint union P ⊔ Q, first by down-set size, up-set size and cover
degrees, then by splitter-queue partition refinement (Paige–Tarjan, "Three
partition refinement algorithms"; McKay–Piperno, "Practical graph
isomorphism, II"): popping a splitter cell counts, for every point next to
it, its cover-up and cover-down neighbours in that cell, and only the
counted points move.  Refinement stops at the coarsest equitable partition,
where all points of a cell have the same number of cover neighbours in
every cell.  The remaining ambiguity is resolved by individualize-and-refine
backtracking on an explicit stack; each branch undoes its splits from a
trail instead of copying the partition.  Every complete assignment is
verified against every cover before being reported (one C-level check
through the poset's cover index), so refinement only ever prunes, never
certifies.

An isomorphism is the first verified leaf of a depth-first walk.  The
automorphism group is not enumerated leaf by leaf but found from generators
(Sims, "Computational methods in the study of permutation groups";
McKay–Piperno's automorphism pruning): the identity path individualizes
each point with its own copy and records the base points p₁…p_d; then, from
the deepest level up, each candidate image q of pₖ that is not yet in pₖ's
orbit under the generators found so far gets one first-leaf probe, and a
verified leaf becomes a new generator that extends the orbit.  The group is
the closure of the generators under composition, and its size must equal
the product of the orbit sizes.  The closure is keyed on the base: the
partition is discrete once p₁…p_d are individualized, so an automorphism is
fixed by its base image, and a product whose base image is already known is
neither composed in full nor verified.  Every new element is verified
against every cover.

All orderings are deterministic; results are sorted by image tuple.
Search effort is bounded by an explicit node budget, which also bounds the
group order (enumerating a group takes at least one tree leaf per element);
exceeding it raises :class:`SizeLimitExceeded` rather than returning a
partial answer.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import MapError, SizeLimitExceeded
from .posets import FinitePoset, PosetMap, tuple_getter

DEFAULT_AUT_BUDGET = 10**6


class _Partition:
    """An ordered partition of P ⊔ Q, refined in place and undone from a trail.

    P's points are ``0..n-1`` and Q's are ``n..2n-1``.  Each cell is the
    contiguous range ``elems[start:end[start]]`` and is named by its start;
    ``pcount[start]`` counts its P points.  ``trail`` holds the starts of
    split-off cells in creation order.  ``balanced`` is False when some cell
    holds unequal numbers of P and Q points: then no isomorphism respects
    the partition.
    """

    def __init__(self, poset_p: FinitePoset, poset_q: FinitePoset):
        n = len(poset_p)
        self.n = n
        # ids[v] = v - n: Q's point ids, shared by every image tuple.
        self.ids = list(range(-n, n))
        self.up: list[list[int]] = [[] for _ in range(2 * n)]
        self.down: list[list[int]] = [[] for _ in range(2 * n)]
        for offset, poset in ((0, poset_p), (n, poset_q)):
            for a, b in poset.hasse:
                self.up[offset + a].append(offset + b)
                self.down[offset + b].append(offset + a)
        sig = [
            (
                poset.down_mask(i).bit_count(),
                poset.up_mask(i).bit_count(),
                len(self.down[offset + i]),
                len(self.up[offset + i]),
            )
            for offset, poset in ((0, poset_p), (n, poset_q))
            for i in range(n)
        ]
        self.elems = sorted(range(2 * n), key=lambda v: (sig[v], v))
        self.pos = [0] * (2 * n)
        self.cell_of = [0] * (2 * n)
        self.end = [0] * (2 * n)
        self.pcount = [0] * (2 * n)
        self.trail: list[int] = []
        self.starts: list[int] = []
        for i, v in enumerate(self.elems):
            if i == 0 or sig[v] != sig[self.elems[i - 1]]:
                self.starts.append(i)
            start = self.starts[-1]
            self.pos[v] = i
            self.cell_of[v] = start
            self.end[start] = i + 1
            self.pcount[start] += v < n
        self.ncells = len(self.starts)
        self.balanced = all(2 * self.pcount[s] == self.end[s] - s for s in self.starts)

    def refine(self, queue: list[int]) -> bool:
        """Split cells until the partition is equitable.

        ``queue`` lists the splitter cells; every other cell must already
        be a stable splitter.  Returns False as soon as a cell splits into
        pieces with unequal P and Q counts.
        """
        n, elems, pos, cell_of, end, pcount = (
            self.n, self.elems, self.pos, self.cell_of, self.end, self.pcount
        )
        down, up = self.down, self.up
        queued = set(queue)
        while queue:
            splitter = queue.pop()
            queued.discard(splitter)
            members = elems[splitter:end[splitter]]
            # One key per point: cover-up neighbours in the splitter plus
            # ``weight`` times cover-down neighbours in it.
            weight = len(members) + 1
            count: dict[int, int] = {}
            for w in members:
                for u in down[w]:
                    count[u] = count.get(u, 0) + 1
                for u in up[w]:
                    count[u] = count.get(u, 0) + weight
            touched: dict[int, list[int]] = {}
            for u in count:
                cell = cell_of[u]
                if cell in touched:
                    touched[cell].append(u)
                else:
                    touched[cell] = [u]
            for cell, moved in touched.items():
                stop = end[cell]
                back = stop - len(moved)
                if len(moved) > 1:
                    moved.sort(key=count.__getitem__)
                    if back == cell and count[moved[0]] == count[moved[-1]]:
                        continue
                elif back == cell:
                    continue
                # Put the counted points at the back of the cell, by count.
                holes = [pos[u] for u in moved if pos[u] < back]
                if holes:
                    strays = [v for v in elems[back:stop] if v not in count]
                    for i, v in zip(holes, strays):
                        elems[i] = v
                        pos[v] = i
                bounds = [cell] if back > cell else []
                last = -1
                for i, u in enumerate(moved, back):
                    elems[i] = u
                    pos[u] = i
                    if count[u] != last:
                        bounds.append(i)
                        last = count[u]
                bounds.append(stop)
                was_queued = cell in queued
                for f, g in zip(bounds[1:-1], bounds[2:]):
                    end[f] = g
                    inside = 0
                    for u in elems[f:g]:
                        cell_of[u] = f
                        inside += u < n
                    pcount[f] = inside
                    pcount[cell] -= inside
                    self.trail.append(f)
                end[cell] = bounds[1]
                self.ncells += len(bounds) - 2
                pieces = bounds[:-1]
                largest, largest_size = cell, 0
                for f in pieces:
                    size = end[f] - f
                    if 2 * pcount[f] != size:
                        return False
                    if size > largest_size:
                        largest, largest_size = f, size
                for f in pieces:
                    if f not in queued and (was_queued or f != largest):
                        queued.add(f)
                        queue.append(f)
        return True

    def individualize(self, cell: int, p: int, q: int) -> bool:
        """Split ``{p, q}`` off ``cell`` and refine an equitable partition."""
        elems, pos = self.elems, self.pos
        stop = self.end[cell]
        for v, i in ((p, stop - 1), (q, stop - 2)):
            w = elems[i]
            elems[pos[v]] = w
            pos[w] = pos[v]
            elems[i] = v
            pos[v] = i
        pair = stop - 2
        self.end[pair] = stop
        self.end[cell] = pair
        self.cell_of[p] = self.cell_of[q] = pair
        self.pcount[pair] = 1
        self.pcount[cell] -= 1
        self.trail.append(pair)
        self.ncells += 1
        return self.refine([pair])

    def undo(self, mark: int) -> None:
        """Merge split-off cells back until the trail has ``mark`` entries."""
        elems, cell_of, end, pcount, trail = (
            self.elems, self.cell_of, self.end, self.pcount, self.trail
        )
        while len(trail) > mark:
            f = trail.pop()
            parent = cell_of[elems[f - 1]]
            stop = end[f]
            end[parent] = stop
            pcount[parent] += pcount[f]
            for u in elems[f:stop]:
                cell_of[u] = parent
            self.ncells -= 1

    def target(self) -> int:
        """Start of the first smallest cell with more than one P point."""
        best, best_size = -1, 0
        start = 0
        while start < 2 * self.n:
            size = self.end[start] - start
            if size > 2 and (best < 0 or size < best_size):
                best, best_size = start, size
                if size == 4:
                    break
            start = self.end[start]
        return best

    def branch(self) -> tuple[int, int, list[int]]:
        """The target cell, its first P point and its Q points in order."""
        cell = self.target()
        members = self.elems[cell:self.end[cell]]
        p = min(v for v in members if v < self.n)
        return cell, p, sorted(v for v in members if v >= self.n)

    def images(self) -> tuple[int, ...]:
        """The bijection P -> Q of a discrete partition (every cell one pair)."""
        n, ids = self.n, self.ids
        images = [0] * n
        pairs = iter(self.elems)
        for a, b in zip(pairs, pairs):
            if a > b:
                a, b = b, a
            images[a] = ids[b]
        return tuple(images)


def _budget_error(budget: int, order: int | None = None) -> SizeLimitExceeded:
    reached = (
        f"visiting {budget} nodes, its node budget"
        if order is None
        else f"finding a group of at least {order} automorphisms, above its budget of {budget}"
    )
    return SizeLimitExceeded(
        f"automorphism/isomorphism search stopped after {reached}; "
        "raise the limit with --budget-aut or POSETGROUPS_BUDGET_AUT"
    )


class _Tree:
    """The individualize-and-refine tree over one joint partition of P ⊔ Q.

    ``nodes`` counts the root and every individualization against ``budget``.
    """

    def __init__(self, poset_p: FinitePoset, poset_q: FinitePoset, budget: int):
        self.part = _Partition(poset_p, poset_q)
        self.poset_p = poset_p
        self.poset_q = poset_q
        self.budget = budget
        self.nodes = 0

    def root(self) -> bool:
        """Count the root node and refine the initial colouring."""
        self.nodes = 1
        if self.budget < 1:
            raise _budget_error(self.budget)
        return self.part.refine(list(self.part.starts))

    def step(self, cell: int, p: int, q: int) -> bool:
        """Count one node and individualize ``(p, q)`` in ``cell``."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise _budget_error(self.budget)
        return self.part.individualize(cell, p, q)

    def first_leaf(self, alive: bool) -> tuple[int, ...] | None:
        """Walk depth-first below the current partition to its first verified leaf.

        ``alive`` is what refining the current partition returned.  The
        partition is left wherever the walk stopped.
        """
        part = self.part
        # Frames are [cell, p, candidates q, next candidate index, trail mark].
        stack: list[list] = []
        while True:
            if alive and part.ncells == part.n:
                images = part.images()
                if self.poset_p.maps_covers_onto(self.poset_q, images):
                    return images
            elif alive:
                stack.append([*part.branch(), 0, len(part.trail)])
            while stack and stack[-1][3] == len(stack[-1][2]):
                stack.pop()
            if not stack:
                return None
            frame = stack[-1]
            part.undo(frame[4])
            q = frame[2][frame[3]]
            frame[3] += 1
            alive = self.step(frame[0], frame[1], q)


def find_isomorphism(
    poset_p: FinitePoset, poset_q: FinitePoset, *, budget: int = DEFAULT_AUT_BUDGET
) -> PosetMap | None:
    """One isomorphism ``poset_p -> poset_q``, or None.

    Deterministic: the same inputs always yield the same witness.
    """
    if len(poset_p) != len(poset_q) or len(poset_p.hasse) != len(poset_q.hasse):
        return None
    tree = _Tree(poset_p, poset_q, budget)
    if not tree.part.balanced:
        return None
    images = tree.first_leaf(tree.root())
    if images is None:
        return None
    return PosetMap._trusted(poset_p, poset_q, images)


def are_isomorphic(
    poset_p: FinitePoset, poset_q: FinitePoset, *, budget: int = DEFAULT_AUT_BUDGET
) -> bool:
    return find_isomorphism(poset_p, poset_q, budget=budget) is not None


def _grow_orbit(orbit: list[int], seen: set[int], gens: list[tuple[int, ...]]) -> None:
    """Extend ``orbit``, closed under ``gens[:-1]``, to its closure under ``gens``."""
    new = gens[-1]
    frontier = []
    for x in orbit:
        y = new[x]
        if y not in seen:
            seen.add(y)
            frontier.append(y)
    while frontier:
        x = frontier.pop()
        orbit.append(x)
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)


def _closure(
    poset: FinitePoset, base: list[int], gens: list[tuple[int, ...]], order: int
) -> list[tuple[int, ...]]:
    """The group generated by ``gens``, sorted, each element verified against every cover.

    Elements are keyed by their images on ``base``, which tell
    automorphisms apart.  The product ``x ∘ g`` has base image
    ``x[g[b]]``, read by one gather per generator; only a product with a
    new base image is composed in full and verified.  The identity needs no
    check: it maps every cover to itself.
    """
    identity = tuple(range(len(poset)))
    on_base = tuple_getter(base)
    products = [(itemgetter(*g), tuple_getter([g[b] for b in base])) for g in gens]
    elements = [identity]
    seen = {on_base(identity)}
    for x in elements:  # breadth-first: ``elements`` grows while it is read
        for compose, compose_on_base in products:
            key = compose_on_base(x)
            if key in seen:
                continue
            y = compose(x)  # x ∘ g
            if not poset.maps_covers_onto(poset, y):
                raise MapError("a product of verified automorphisms failed verification")
            seen.add(key)
            elements.append(y)
        if len(elements) > order:
            break
    if len(elements) != order:
        raise MapError(
            f"the generators close to {len(elements)} automorphisms, "
            f"but the orbit sizes multiply to {order}"
        )
    return sorted(elements)


def all_automorphisms(
    poset: FinitePoset, *, budget: int = DEFAULT_AUT_BUDGET
) -> list[PosetMap]:
    """Every self-isomorphism, sorted by image tuple.

    Found as the closure of generators with orbit pruning (see the module
    docstring).  Raises :class:`SizeLimitExceeded` when the tree needs more
    than ``budget`` nodes or the group has more than ``budget`` elements.
    """
    tree = _Tree(poset, poset, budget)
    part, n = tree.part, len(poset)
    tree.root()  # P = Q: the identity path never dies
    # Levels are (cell, base point p, candidate images q in Q, trail mark).
    levels = []
    while part.ncells < n:
        cell, p, candidates = part.branch()
        levels.append((cell, p, candidates, len(part.trail)))
        tree.step(cell, p, p + n)
    gens: list[tuple[int, ...]] = []
    order = 1
    for cell, p, candidates, mark in reversed(levels):
        # Generators found so far fix p, so p's orbit starts as {p}.
        orbit, seen = [p], {p}
        for q in candidates:
            if q - n in seen:
                continue
            part.undo(mark)
            images = tree.first_leaf(tree.step(cell, p, q))
            if images is not None:
                gens.append(images)
                _grow_orbit(orbit, seen, gens)
        order *= len(orbit)
        if order > budget:
            raise _budget_error(budget, order)
    base = [p for _, p, _, _ in levels]
    elements = _closure(poset, base, gens, order)
    return [PosetMap._trusted(poset, poset, images) for images in elements]
