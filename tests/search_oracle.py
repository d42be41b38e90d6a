"""Reference automorphism/isomorphism searches, kept for tests only.

``oracle_search`` is the original full re-signature refiner: every round
re-signs every point of both posets by its colour and the sorted colours of
its cover neighbours, until the number of colours stops growing.
``leaf_search`` runs the splitter-queue partition of
:mod:`posetgroups.search` but visits every leaf of the individualization
tree, with no orbit pruning.  Both are slow but obviously correct, and the
property tests compare :mod:`posetgroups.search` against them.

``oracle_verified_map`` is the covers-onto-covers check as one set
comprehension per map, and ``oracle_closure`` closes generators keyed by
whole image tuples, composing and verifying every product; the property
tests compare the cover-index check and the base-keyed closure with them.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter

from posetgroups import FinitePoset, MapError, SizeLimitExceeded
from posetgroups.search import _Partition


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
                poset.down_mask(i).bit_count(),
                poset.up_mask(i).bit_count(),
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
    part = _Partition(poset_p, poset_q)
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
