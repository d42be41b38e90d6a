"""Reference automorphism/isomorphism searches, kept for tests only.

``oracle_search`` is the original full re-signature refiner: every round
re-signs every point of both posets by its colour and the sorted colours of
its cover neighbours, until the number of colours stops growing.
``leaf_search`` refines P and Q jointly, as one splitter-queue partition of
the disjoint union P ⊔ Q (the refinement :mod:`posetgroups.search` used
before it refined each poset alone against a trace), and visits every leaf
of the individualization tree, with no orbit pruning.  Both are slow but
obviously correct, and the property tests compare :mod:`posetgroups.search`
against them.

``oracle_verified_map`` is the covers-onto-covers check as one set
comprehension per map, and ``oracle_closure`` closes generators keyed by
whole image tuples, composing and verifying every product; the property
tests compare the cover-index check and the base-keyed closure with them.
``oracle_target`` picks the first path's target cell by scanning every
cell, as the search did before it kept a list of the cells with more than
one point.  ``oracle_plan`` finds the covers alone in their root cell with
a fresh dict per point and side, as the propagation plan did before it
reused one count per cell.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter

from posetgroups import FinitePoset, MapError, SizeLimitExceeded


class _JointPartition:
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
                len(poset.minimal_open_set(i)),
                len(poset.closure(i)),
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


class _Side:
    """Static per-poset data the refinement loop consults."""

    def __init__(self, poset: FinitePoset):
        n = len(poset)
        self.n = n
        self.above = [[] for _ in range(n)]
        self.below = [[] for _ in range(n)]
        for a, b in poset.hasse:
            self.above[a].append(b)
            self.below[b].append(a)
        self.base = [
            (
                len(poset.minimal_open_set(i)),
                len(poset.closure(i)),
                len(self.below[i]),
                len(self.above[i]),
            )
            for i in range(n)
        ]


def _recolor(sigs_p, sigs_q):
    """Assign joint colour ids by sorted signature; None on multiset mismatch."""
    table = {sig: k for k, sig in enumerate(sorted(set(sigs_p) | set(sigs_q)))}
    cols_p = [table[s] for s in sigs_p]
    cols_q = [table[s] for s in sigs_q]
    if Counter(cols_p) != Counter(cols_q):
        return None
    return cols_p, cols_q


def _refine(side_p: _Side, side_q: _Side, cols_p, cols_q):
    """Jointly refine both colourings to a stable partition.

    Returns refined ``(cols_p, cols_q)`` or None when the colour class
    multisets diverge (no isomorphism can respect the partition).
    """
    ncells = len(set(cols_p))
    while True:
        sigs_p = [
            (
                cols_p[i],
                tuple(sorted(cols_p[j] for j in side_p.above[i])),
                tuple(sorted(cols_p[j] for j in side_p.below[i])),
            )
            for i in range(side_p.n)
        ]
        sigs_q = [
            (
                cols_q[i],
                tuple(sorted(cols_q[j] for j in side_q.above[i])),
                tuple(sorted(cols_q[j] for j in side_q.below[i])),
            )
            for i in range(side_q.n)
        ]
        refined = _recolor(sigs_p, sigs_q)
        if refined is None:
            return None
        cols_p, cols_q = refined
        new_ncells = len(set(cols_p))
        if new_ncells == ncells:
            return cols_p, cols_q
        ncells = new_ncells


def oracle_verified_map(poset_p: FinitePoset, poset_q: FinitePoset, images):
    """Full check that ``images`` bijects covering relations onto covering relations."""
    if len(set(images)) != len(images):
        return False
    mapped = {(images[a], images[b]) for a, b in poset_p.hasse}
    return mapped == set(poset_q.hasse)


def _enumerate(poset_p, poset_q, side_p, side_q, cols_p, cols_q, out, budget, first_only):
    """DFS over individualizations.  Returns remaining budget.

    Appends verified image tuples to ``out``; stops early when
    ``first_only`` and something was found.
    """
    budget -= 1
    if budget < 0:
        raise SizeLimitExceeded(
            "isomorphism search exceeded its node budget; "
            "raise the budget to search further"
        )
    refined = _refine(side_p, side_q, cols_p, cols_q)
    if refined is None:
        return budget
    cols_p, cols_q = refined

    cells_p: dict[int, list[int]] = {}
    cells_q: dict[int, list[int]] = {}
    for i, c in enumerate(cols_p):
        cells_p.setdefault(c, []).append(i)
    for i, c in enumerate(cols_q):
        cells_q.setdefault(c, []).append(i)

    split_colour = None
    best = None
    for colour in sorted(cells_p):
        size = len(cells_p[colour])
        if size > 1 and (best is None or size < best):
            best = size
            split_colour = colour

    if split_colour is None:
        images = [0] * side_p.n
        for colour, cell in cells_p.items():
            images[cell[0]] = cells_q[colour][0]
        images = tuple(images)
        if oracle_verified_map(poset_p, poset_q, images):
            out.append(images)
        return budget

    fresh = len(set(cols_p))  # colour ids are 0..fresh-1 after _recolor
    p = cells_p[split_colour][0]
    for q in cells_q[split_colour]:
        branch_p = list(cols_p)
        branch_q = list(cols_q)
        branch_p[p] = fresh
        branch_q[q] = fresh
        budget = _enumerate(
            poset_p, poset_q, side_p, side_q, branch_p, branch_q, out, budget, first_only
        )
        if first_only and out:
            return budget
    return budget


def oracle_target(part) -> int:
    """Start of the first smallest cell of a ``search._Partition`` with more
    than one point, found by walking every cell."""
    best, best_size = -1, 0
    start = 0
    while start < part.n:
        size = part.end[start] - start
        if size > 1 and (best < 0 or size < best_size):
            best, best_size = start, size
        start = part.end[start]
    return best


def oracle_plan(part, p: int):
    """``search._plan`` on a rooted ``search._Partition``, one dict per point and side."""
    cell_of, covers = part.cell_of, part.poset.cover_index
    order, plan, placed = [p], [], {p}
    for i, w in enumerate(order):  # breadth-first: ``order`` grows while it is read
        for k, side in enumerate((covers.up, covers.down)):
            only: dict[int, int] = {}
            for x in side[w]:
                only[cell_of[x]] = -1 if cell_of[x] in only else x
            for cell, x in only.items():
                if x >= 0 and x not in placed:
                    placed.add(x)
                    order.append(x)
                    plan.append((i, k, cell))
    return (order, plan) if len(order) == part.n else None


def oracle_search(poset_p: FinitePoset, poset_q: FinitePoset, *, first_only: bool = False,
                  budget: int = 10**6) -> list[tuple[int, ...]]:
    """Sorted image tuples of the isomorphisms ``poset_p -> poset_q``.

    With ``first_only`` the list holds at most one witness.
    """
    if len(poset_p) != len(poset_q) or len(poset_p.hasse) != len(poset_q.hasse):
        return []
    side_p = _Side(poset_p)
    side_q = _Side(poset_q)
    start = _recolor(side_p.base, side_q.base)
    if start is None:
        return []
    out: list[tuple[int, ...]] = []
    _enumerate(poset_p, poset_q, side_p, side_q, start[0], start[1], out, budget, first_only)
    return sorted(out)


def leaf_search(poset_p: FinitePoset, poset_q: FinitePoset, *,
                budget: int = 10**6) -> list[tuple[int, ...]]:
    """Sorted image tuples of the isomorphisms ``poset_p -> poset_q``, one per leaf."""
    if len(poset_p) != len(poset_q) or len(poset_p.hasse) != len(poset_q.hasse):
        return []
    part = _JointPartition(poset_p, poset_q)
    if not part.balanced:
        return []
    out: list[tuple[int, ...]] = []
    # Frames are [cell, p, candidates q, next candidate index, trail mark].
    stack: list[list] = []
    nodes = 1
    alive = part.refine(list(part.starts))
    while True:
        if alive and part.ncells == part.n:
            images = part.images()
            if oracle_verified_map(poset_p, poset_q, images):
                out.append(images)
        elif alive:
            cell = part.target()
            members = part.elems[cell:part.end[cell]]
            p = min(v for v in members if v < part.n)
            candidates = sorted(v for v in members if v >= part.n)
            stack.append([cell, p, candidates, 0, len(part.trail)])
        while stack and stack[-1][3] == len(stack[-1][2]):
            stack.pop()
        if not stack:
            break
        frame = stack[-1]
        part.undo(frame[4])
        q = frame[2][frame[3]]
        frame[3] += 1
        nodes += 1
        if nodes > budget:
            raise SizeLimitExceeded("leaf search exceeded its node budget")
        alive = part.individualize(frame[0], frame[1], q)
    return sorted(out)


def oracle_closure(poset: FinitePoset, gens: list[tuple[int, ...]], order: int):
    """The group generated by ``gens``, sorted, keyed by whole image tuples.

    Every product is composed in full; each new one is verified.
    """
    identity = tuple(range(len(poset)))
    elements = [identity]
    seen = {identity}
    getters = [itemgetter(*g) for g in gens]
    for x in elements:
        for right in getters:
            y = right(x)  # x ∘ g
            if y in seen:
                continue
            if not oracle_verified_map(poset, poset, y):
                raise MapError("a product of verified automorphisms failed verification")
            seen.add(y)
            elements.append(y)
        if len(elements) > order:
            break
    if len(elements) != order:
        raise MapError(
            f"the generators close to {len(elements)} automorphisms, "
            f"but the orbit sizes multiply to {order}"
        )
    return sorted(elements)
