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
verified edge-by-edge before being reported, so refinement only ever
prunes, never certifies.

All orderings are deterministic; results are sorted by image tuple.
Search effort is bounded by an explicit node budget — exceeding it raises
:class:`SizeLimitExceeded` rather than returning a partial answer.
"""

from __future__ import annotations

from .errors import SizeLimitExceeded
from .posets import FinitePoset, PosetMap

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


def _verified_map(poset_p: FinitePoset, target_hasse: set, images) -> bool:
    """Full check that ``images`` bijects covering relations onto covering relations."""
    if len(set(images)) != len(images):
        return False
    mapped = {(images[a], images[b]) for a, b in poset_p.hasse}
    return mapped == target_hasse


def _budget_error(budget: int) -> SizeLimitExceeded:
    return SizeLimitExceeded(
        f"automorphism/isomorphism search stopped after visiting {budget} nodes, "
        "its node budget; raise the limit with --budget-aut or POSETGROUPS_BUDGET_AUT"
    )


def _search(poset_p: FinitePoset, poset_q: FinitePoset, budget: int, first_only: bool):
    if len(poset_p) != len(poset_q) or len(poset_p.hasse) != len(poset_q.hasse):
        return []
    part = _Partition(poset_p, poset_q)
    if not part.balanced:
        return []
    target_hasse = set(poset_q.hasse)
    out: list[tuple[int, ...]] = []
    # Frames are [cell, p, candidates q, next candidate index, trail mark].
    stack: list[list] = []
    nodes = 1
    if budget < 1:
        raise _budget_error(budget)
    alive = part.refine(list(part.starts))
    while True:
        if alive and part.ncells == part.n:
            images = part.images()
            if _verified_map(poset_p, target_hasse, images):
                out.append(images)
                if first_only:
                    break
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
            raise _budget_error(budget)
        alive = part.individualize(frame[0], frame[1], q)
    return sorted(out)


def find_isomorphism(
    poset_p: FinitePoset, poset_q: FinitePoset, *, budget: int = DEFAULT_AUT_BUDGET
) -> PosetMap | None:
    """One isomorphism ``poset_p -> poset_q``, or None.

    Deterministic: the same inputs always yield the same witness.
    """
    found = _search(poset_p, poset_q, budget, first_only=True)
    if not found:
        return None
    return PosetMap(poset_p, poset_q, found[0])


def are_isomorphic(
    poset_p: FinitePoset, poset_q: FinitePoset, *, budget: int = DEFAULT_AUT_BUDGET
) -> bool:
    return find_isomorphism(poset_p, poset_q, budget=budget) is not None


def all_automorphisms(
    poset: FinitePoset, *, budget: int = DEFAULT_AUT_BUDGET
) -> list[PosetMap]:
    """Every self-isomorphism, sorted by image tuple."""
    return [PosetMap(poset, poset, images) for images in _search(poset, poset, budget, False)]
