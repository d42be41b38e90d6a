"""Isomorphism and automorphism search for finite posets.

The search is label-blind.  Each poset is coloured alone, first by down-set
size, up-set size and cover degrees, then by splitter-queue partition
refinement (Paige–Tarjan, "Three partition refinement algorithms";
McKay–Piperno, "Practical graph isomorphism, II"): popping a splitter cell
counts, for every point next to it, its cover-up and cover-down neighbours
in that cell, and only the counted points move.  Refinement stops at the
coarsest equitable partition, where all points of a cell have the same
number of cover neighbours in every cell.  The remaining ambiguity is
resolved by individualize-and-refine backtracking on an explicit stack;
each branch undoes its splits from a trail instead of copying the
partition.

Refinement is one-sided, as in bliss (Junttila–Kaski) and Traces: P and Q
are never refined together.  Each split of a cell writes one trace record,
its start and the start and count key of every piece, and the cells
touched by a splitter split in the order of their starts, so the trace
depends on the shape of the partition and not on how the points are
numbered.  Q's root refinement is compared with P's first, so a pair it
tells apart costs no more.  Then the first path refines P alone from the
root down to a discrete leaf, individualizing the least point of the first
smallest cell at each level, and records each level's cell and trace.  A
node of Q's tree undoes to its level's trail mark, individualizes one
point q of that same cell, and refines while comparing: it dies at the
first record that differs from the first path's, or when its refinement
ends at another trace position.  A live node therefore has the first
path's cells at its depth, so it reads its next target cell from the first
path.  A discrete leaf of Q's tree maps the first leaf's point at each
position to its own point there, and every such map is verified against
every cover before being reported (one C-level check through the poset's
cover index), so the trace only ever prunes, never certifies.

On the paper's spaces one level is all the tree needs, and it is walked
without refining.  The propagation plan places every point, breadth-first
from the first level's point p, as the only upper or only lower cover,
inside its own root cell, of a point already placed.  An isomorphism that
matches the root trace keeps the root cells, so when the plan places every
point, individualizing q admits at most one map: the node walks the plan
from q, O(points + covers), and dies at the first image with no unique
cover in the step's cell.  Refining after individualizing p would be
discrete at once, so the candidates, node counts, leaves and witnesses are
the tree's.  Where the plan stalls (antichains, crowns) the tree runs.

An isomorphism P -> Q is the first verified leaf of a depth-first walk of
Q's tree.  The automorphism group is the same walk with Q = P, and is not
enumerated leaf by leaf but found from generators (Sims, "Computational
methods in the study of permutation groups"; McKay–Piperno's automorphism
pruning): the first path is the identity path and its individualized
points p₁…p_d are the base; then, from the deepest level up, each candidate
image q of pₖ that is not yet in pₖ's orbit under the generators found so
far gets one first-leaf probe, and a verified leaf becomes a new generator
that extends the orbit.  The group is the closure of the generators under
composition, and its size must equal the product of the orbit sizes.  The
closure is keyed on the base: the partition is discrete once p₁…p_d are
individualized, so an automorphism is fixed by its base image, and a
product whose base image is already known is neither composed in full nor
verified.  Every new element is verified against every cover.

All orderings are deterministic; results are sorted by image tuple.
Search effort is bounded by an explicit node budget, which also bounds the
group order (enumerating a group takes at least one tree leaf per element);
exceeding it raises :class:`SizeLimitExceeded` rather than returning a
partial answer.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from operator import itemgetter

from .errors import MapError, SizeLimitExceeded
from .posets import FinitePoset, PosetMap, tuple_getter

DEFAULT_AUT_BUDGET = 10**6


class _Partition:
    """An ordered partition of one poset's points, refined in place and undone from a trail.

    Each cell is the contiguous range ``elems[start:end[start]]`` and is
    named by its start.  ``trail`` holds the starts of split-off cells in
    creation order.  ``colours`` lists the initial colour at each position;
    two posets can only be isomorphic when their colour lists are equal.
    """

    def __init__(self, poset: FinitePoset):
        n = len(poset)
        self.poset = poset
        self.n = n
        covers = poset.cover_index
        sig = list(zip(*poset.set_sizes, map(len, covers.down), map(len, covers.up)))
        self.elems = sorted(range(n), key=sig.__getitem__)  # stable: ties stay ascending
        self.colours = [sig[v] for v in self.elems]
        self.pos = [0] * n
        self.cell_of = [0] * n
        self.end = [0] * n
        self.trail: list[int] = []
        self.starts: list[int] = []
        for i, v in enumerate(self.elems):
            if i == 0 or self.colours[i] != self.colours[i - 1]:
                self.starts.append(i)
            start = self.starts[-1]
            self.pos[v] = i
            self.cell_of[v] = start
            self.end[start] = i + 1

    def refine(self, queue: list[int], trace: list, compare: bool = False) -> bool:
        """Split cells until the partition is equitable, one trace record per split.

        ``queue`` lists the splitter cells; every other cell must already
        be a stable splitter.  A record is the flat tuple of the start and
        count key of each piece of the split cell, in order: the uncounted
        points first, with key 0, then one piece per count.  Without
        ``compare`` the records are appended to ``trace`` and the result
        is True.  With it, the records must be exactly ``trace``: the
        result is False at the first record that differs, and when the
        refinement ends before the last one.
        """
        elems, pos, cell_of, end = self.elems, self.pos, self.cell_of, self.end
        covers, split_off = self.poset.cover_index, self.split_off
        down, up = covers.down, covers.up
        queued = set(queue)
        at = 0
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
            # By start, not by first touch: the trace must not depend on
            # the numbering of the points.
            for cell, moved in sorted(touched.items()):
                stop = end[cell]
                back = stop - len(moved)
                # Most splits move one point (see split_off below).
                if len(moved) == 1:
                    if back == cell:
                        continue
                    record = (cell, 0, back, count[moved[0]])
                else:
                    moved.sort(key=count.__getitem__)
                    if back == cell and count[moved[0]] == count[moved[-1]]:
                        continue
                    # The counted points go to the back of the cell, by
                    # count: one piece per count, after the uncounted points.
                    split = [cell, 0] if back > cell else []
                    last = 0
                    for i, u in enumerate(moved, back):
                        if count[u] != last:
                            last = count[u]
                            split += (i, last)
                    record = tuple(split)
                if not compare:
                    trace.append(record)
                elif at == len(trace) or trace[at] != record:
                    return False
                at += 1
                if len(moved) == 1:
                    f = split_off(cell, moved[0])
                    queued.add(f)
                    queue.append(f)
                    continue
                holes = [pos[u] for u in moved if pos[u] < back]
                if holes:
                    strays = [v for v in elems[back:stop] if v not in count]
                    for i, v in zip(holes, strays):
                        elems[i] = v
                        pos[v] = i
                for i, u in enumerate(moved, back):
                    elems[i] = u
                    pos[u] = i
                bounds = split[::2]
                bounds.append(stop)
                was_queued = cell in queued
                for f, g in zip(bounds[1:-1], bounds[2:]):
                    end[f] = g
                    for u in elems[f:g]:
                        cell_of[u] = f
                    self.trail.append(f)
                end[cell] = bounds[1]
                pieces = bounds[:-1]
                largest, largest_size = cell, 0
                for f in pieces:
                    size = end[f] - f
                    if size > largest_size:
                        largest, largest_size = f, size
                for f in pieces:
                    if f not in queued and (was_queued or f != largest):
                        queued.add(f)
                        queue.append(f)
        return not compare or at == len(trace)

    def split_off(self, cell: int, v: int) -> int:
        """Move ``v`` to the back of ``cell`` as a cell of its own; return its start.

        This is the general split in :meth:`refine` for one moved point,
        without its sort and rearrangement.  The result is the same: ``v``
        becomes the last piece, and only it is queued, since the rest of
        the cell is larger or as large and keeps its start.
        """
        elems, pos = self.elems, self.pos
        last = self.end[cell] - 1
        w = elems[last]
        elems[pos[v]] = w
        pos[w] = pos[v]
        elems[last] = v
        pos[v] = last
        self.end[last] = last + 1
        self.end[cell] = last
        self.cell_of[v] = last
        self.trail.append(last)
        return last

    def individualize(self, cell: int, v: int, trace: list, compare: bool = False) -> bool:
        """Split ``v`` off ``cell`` and refine as :meth:`refine` does."""
        return self.refine([self.split_off(cell, v)], trace, compare)

    def target(self, cells: list[int], mark: int = 0) -> tuple[list[int], int, int] | None:
        """The cells of more than one point among ``cells`` and the trail
        after ``mark``, the first smallest of them and its least point."""
        end = self.end
        wide = [start for start in chain(cells, self.trail[mark:]) if end[start] - start > 1]
        if not wide:
            return None
        cell = min(wide, key=lambda start: (end[start] - start, start))
        return wide, cell, min(self.elems[cell:end[cell]])

    def undo(self, mark: int) -> None:
        """Merge split-off cells back until the trail has ``mark`` entries."""
        elems, cell_of, end, trail = self.elems, self.cell_of, self.end, self.trail
        while len(trail) > mark:
            f = trail.pop()
            parent = cell_of[elems[f - 1]]
            stop = end[f]
            end[parent] = stop
            for u in elems[f:stop]:
                cell_of[u] = parent


def _plan(part: _Partition, p: int) -> tuple[list[int], list[tuple[int, int, int]]] | None:
    """The points in the order the plan from ``p`` places them, and its steps; None if it stalls.

    Step ``(i, k, cell)`` places the next point as the only upper (``k`` 0)
    or lower (``k`` 1) cover in root cell ``cell`` of the ``i``-th point.
    """
    cell_of, covers = part.cell_of, part.poset.cover_index
    order, plan, placed, count = [p], [], {p}, [0] * part.n  # covers per cell, reset
    for i, w in enumerate(order):  # breadth-first: ``order`` grows while it is read
        for k, side in enumerate((covers.up, covers.down)):
            for x in side[w]:
                count[cell_of[x]] += 1
            for x in side[w]:
                cell = cell_of[x]
                if count[cell] == 1 and x not in placed:
                    placed.add(x)
                    order.append(x)
                    plan.append((i, k, cell))
                count[cell] = 0
    return (order, plan) if len(order) == part.n else None


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
    """The first path, refined on P's partition, and the search of Q's tree against it.

    Construction refines P's root and records its trace, so a Q whose
    root refinement differs is rejected before any level is built.
    ``levels``, filled by :meth:`first_level`, holds, for each
    individualization of the first path, its cell, the point
    individualized there (the cell's least: a point of the base), the
    trail mark before it and the trace of the refinement after it; undone
    to that mark, the partition's cell holds the level's points again.
    ``nodes`` counts the root, each first-path level and each node of Q's
    tree against ``budget``; ``plan`` is the propagation plan, if any.
    """

    def __init__(self, part: _Partition, budget: int):
        self.budget = budget
        self.nodes = 1
        if budget < 1:
            raise _budget_error(budget)
        self.poset = part.poset
        self.root_trace: list = []
        part.refine(list(part.starts), self.root_trace)
        self.levels: list[tuple[int, int, int, list]] = []
        self.plan: list[tuple[int, int, int]] | None = None

    def first_path(self, part: _Partition) -> None:
        """Individualize and refine P's partition from the root down to a discrete leaf.

        Each level's target is the first smallest cell with more than one
        point.  It is looked for among the wide cells alone: the first path
        undoes no split, so a singleton stays one, and the cells a level
        splits off are on the trail after its mark.
        """
        target = part.target(part.starts)
        while target is not None:
            wide, cell, point = target
            self.count()
            mark, trace = len(part.trail), []
            part.individualize(cell, point, trace)
            self.levels.append((cell, point, mark, trace))
            target = part.target(wide, mark)
        # The first leaf's point at position i maps to a leaf's point there.
        self.leaf = tuple_getter(sorted(range(part.n), key=part.elems.__getitem__))

    def first_level(self, part: _Partition) -> None:
        """From the root: the first path's first level alone when the plan
        from its point places every point, else the whole first path."""
        target = part.target(part.starts)
        if target is not None:
            _, cell, point = target
            found = _plan(part, point)
            if found is not None:
                self.count()
                order, self.plan = found
                self.levels.append((cell, order[0], len(part.trail), []))
                self.leaf = tuple_getter(sorted(range(part.n), key=order.__getitem__))
                return
        self.first_path(part)

    def count(self) -> None:
        """Count one node against the budget."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise _budget_error(self.budget)

    def step(self, part: _Partition, depth: int, q: int) -> list[int] | None:
        """Count a node individualizing ``q`` in the first path's cell at ``depth``: None if it
        dies, else its points in order (under a plan, the points it forces from ``q``)."""
        self.count()
        if self.plan is not None:
            covers, forced = part.poset.cover_index, [q]
            sides, cell_of = (covers.up, covers.down), part.cell_of
            for i, k, cell in self.plan:
                only = [x for x in sides[k][forced[i]] if cell_of[x] == cell]
                if len(only) != 1:
                    return None
                forced += only
            return forced
        cell, _, mark, trace = self.levels[depth]
        part.undo(mark)
        return part.elems if part.individualize(cell, q, trace, compare=True) else None

    def first_leaf(self, part: _Partition, depth: int,
                   elems: list | None) -> tuple[int, ...] | None:
        """Walk Q's tree depth-first below ``part``'s node at ``depth`` to its first verified leaf.

        ``elems`` is that node's points, as :meth:`step` returns them.  The
        partition is left wherever the walk stopped.
        """
        levels = self.levels
        # Frames are [depth, candidates q, next candidate index].
        stack: list[list] = []
        while True:
            if elems is not None and depth == len(levels):
                images = self.leaf(elems)
                if self.poset.maps_covers_onto(part.poset, images):
                    return images
            elif elems is not None:
                cell = levels[depth][0]
                stack.append([depth, part.elems[cell:part.end[cell]], 0])
            while stack and stack[-1][2] == len(stack[-1][1]):
                stack.pop()
            if not stack:
                return None
            frame = stack[-1]
            depth = frame[0]
            q = frame[1][frame[2]]
            frame[2] += 1
            elems = self.step(part, depth, q)
            depth += 1


def find_isomorphism(
    poset_p: FinitePoset, poset_q: FinitePoset, *, budget: int = DEFAULT_AUT_BUDGET
) -> PosetMap | None:
    """One isomorphism ``poset_p -> poset_q``, or None.

    Deterministic: the same inputs always yield the same witness.
    """
    if len(poset_p) != len(poset_q) or len(poset_p.hasse) != len(poset_q.hasse):
        return None
    part_p, part_q = _Partition(poset_p), _Partition(poset_q)
    if part_p.colours != part_q.colours:
        return None
    tree = _Tree(part_p, budget)
    if not part_q.refine(list(part_q.starts), tree.root_trace, compare=True):
        return None
    tree.first_level(part_p)
    images = tree.first_leaf(part_q, 0, part_q.elems)
    if images is None:
        return None
    return PosetMap._trusted(poset_p, poset_q, images)


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


class _Found(list):
    """Sorted automorphisms with the search's ``base``, points whose images
    tell them apart, and ``gens``, the positions of maps generating them."""


def all_automorphisms(
    poset: FinitePoset, *, budget: int = DEFAULT_AUT_BUDGET
) -> list[PosetMap]:
    """Every self-isomorphism, sorted by image tuple.

    Found as the closure of generators with orbit pruning (see the module
    docstring), and returned as a :class:`_Found`.  Raises
    :class:`SizeLimitExceeded` when the tree needs more than ``budget``
    nodes or the group has more than ``budget`` elements.
    """
    part = _Partition(poset)
    tree = _Tree(part, budget)
    tree.first_level(part)  # the identity path: Q = P shares its partition
    gens: list[tuple[int, ...]] = []
    order = 1
    for depth in reversed(range(len(tree.levels))):
        cell, p, mark, _ = tree.levels[depth]
        part.undo(mark)
        # Generators found so far fix p, so p's orbit starts as {p}.
        orbit, seen = [p], {p}
        for q in sorted(part.elems[cell:part.end[cell]]):
            if q in seen:
                continue
            images = tree.first_leaf(part, depth + 1, tree.step(part, depth, q))
            if images is not None:
                gens.append(images)
                _grow_orbit(orbit, seen, gens)
        order *= len(orbit)
        if order > budget:
            raise _budget_error(budget, order)
    base = [p for _, p, _, _ in tree.levels]
    elements = _closure(poset, base, gens, order)
    found = _Found(PosetMap._trusted(poset, poset, images) for images in elements)
    found.base, found.gens = tuple(base), tuple(bisect_left(elements, g) for g in gens)
    return found
