"""The reference order closure and cover scan, kept for tests only.

``oracle_order`` closes a relation digraph by walking down from every
point, one search per point, and finds the covers as
:meth:`posetgroups.FinitePoset.from_relations` did before it read them off
the closure pass: every point of every strict down-set is tested for a
point strictly between.  The property tests compare the library with it.
"""

from __future__ import annotations

from posetgroups.posets import bits


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
