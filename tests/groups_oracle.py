"""Reference associativity check and isomorphism test, kept for tests only.

``oracle_check_associative`` tests every triple (a, b, c) of a
multiplication table, n³ comparisons.  It is slow but obviously correct,
and the property tests compare the generating-set check that
:class:`posetgroups.FiniteGroup` runs against it.

``groups_isomorphic`` is a brute-force isomorphism test for small groups;
the tests use it to compare automorphism groups with the group they were
built from.
"""

from __future__ import annotations

from posetgroups import FiniteGroup, GroupError, SizeLimitExceeded
from posetgroups.groups import _greedy_generators

DEFAULT_ISO_ORDER_CAP = 16


def oracle_check_associative(labels, table) -> None:
    """Raise :class:`GroupError` on the first triple with (a·b)·c ≠ a·(b·c)."""
    n = len(labels)
    for a in range(n):
        row_a = table[a]
        for b in range(n):
            row_ab = table[row_a[b]]
            row_b = table[b]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    raise GroupError(
                        f"associativity fails on ({labels[a]}, {labels[b]}, {labels[c]})"
                    )


def groups_isomorphic(
    g: FiniteGroup, h: FiniteGroup, *, max_order: int = DEFAULT_ISO_ORDER_CAP
) -> bool:
    """Brute-force isomorphism test for small groups.

    Tries generator images with matching element orders and verifies the
    induced map on all pairs.  Guarded by ``max_order``.
    """
    if g.order != h.order:
        return False
    if g.order > max_order:
        raise SizeLimitExceeded(
            f"group isomorphism test capped at order {max_order}; got {g.order}"
        )
    if g.order_profile() != h.order_profile():
        return False

    gens = _greedy_generators(g)
    if not gens:
        return True  # both trivial

    # Express every element of g as parent * generator, breadth-first.
    parent = {g.identity: None}
    order_out = [g.identity]
    queue = [g.identity]
    while queue:
        nxt = []
        for x in queue:
            for gi, s in enumerate(gens):
                y = g.op(x, s)
                if y not in parent:
                    parent[y] = (x, gi)
                    order_out.append(y)
                    nxt.append(y)
        queue = nxt

    gen_orders = [g.element_order(s) for s in gens]
    candidates = [
        [x for x in range(h.order) if h.element_order(x) == og] for og in gen_orders
    ]

    def try_images(images: list[int]) -> bool:
        phi = {g.identity: h.identity}
        for y in order_out[1:]:
            x, gi = parent[y]
            phi[y] = h.op(phi[x], images[gi])
        if len(set(phi.values())) != h.order:
            return False
        return all(
            phi[g.op(a, b)] == h.op(phi[a], phi[b])
            for a in range(g.order)
            for b in range(g.order)
        )

    def assign(depth: int, images: list[int]) -> bool:
        if depth == len(gens):
            return try_images(images)
        g_span = len(g.closure(gens[: depth + 1]))
        for cand in candidates[depth]:
            images.append(cand)
            if len(h.closure(images)) == g_span and assign(depth + 1, images):
                return True
            images.pop()
        return False

    return assign(0, [])
