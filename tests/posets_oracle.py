"""The reference order closure and cover scan, kept for tests only.

``oracle_order`` closes a relation digraph by walking down from every
point, one search per point, and finds the covers as
:meth:`posetgroups.FinitePoset.from_relations` did before it read them off
the closure pass: every point of every strict down-set is tested for a
point strictly between.  It keeps the order as bitmasks, which ``bits``
reads back as indices; ``order_masks`` builds the same masks from a
poset's down-set and up-set tuples, for the oracles that test subsets.
The property tests compare the library with it.  ``drop_hasse_edge``
weakens a poset by one cover, for the mutation tests.
"""

from __future__ import annotations

from posetgroups import FinitePoset, PosetError


def bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def order_masks(poset: FinitePoset) -> tuple[list[int], list[int]]:
    """``(down masks, up masks)`` of ``poset``, built from its tuples."""
    points = range(len(poset))
    return ([sum(1 << j for j in poset.minimal_open_set(i)) for i in points],
            [sum(1 << j for j in poset.closure(i)) for i in points])


def oracle_order(n: int, pairs) -> tuple[tuple, list[int], list[int]]:
    """``(hasse, down masks, up masks)`` of the order the pairs generate."""
    below: list[set[int]] = [set() for _ in range(n)]
    for lo, hi in pairs:
        below[hi].add(lo)
    down = []
    for top in range(n):
        seen, stack = {top}, [top]
        while stack:
            for j in below[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        down.append(sum(1 << j for j in seen))
    up = [sum(1 << b for b in range(n) if down[b] >> a & 1) for a in range(n)]
    hasse = []
    for b in range(n):
        strict = down[b] & ~(1 << b)
        for a in bits(strict):
            # a is covered by b iff nothing else sits strictly between.
            if up[a] & strict == 1 << a:
                hasse.append((a, b))
    return tuple(sorted(hasse)), down, up


def drop_hasse_edge(poset: FinitePoset, edge: tuple[int, int]) -> FinitePoset:
    """The poset generated by all covering relations except ``edge``."""
    if edge not in poset.hasse:
        raise PosetError(f"{edge} is not a covering relation")
    return FinitePoset.from_relations(poset.labels, [e for e in poset.hasse if e != edge])
