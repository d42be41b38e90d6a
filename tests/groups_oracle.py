"""Reference associativity check and isomorphism test, kept for tests only.

``oracle_check_associative`` tests every triple (a, b, c) of a
multiplication table, n³ comparisons.  It is slow but obviously correct,
and the property tests compare the generating-set check that
:class:`posetgroups.FiniteGroup` runs against it.

``groups_isomorphic`` is a brute-force isomorphism test for small groups;
the tests use it to compare automorphism groups with the group they were
built from.

``permutation_groups`` draws a small nontrivial group as the closure of random
permutations, and ``direct_products`` the product of two catalogue groups,
each with its elements numbered in random order.  ``generating_lists``
draws a generating list of a group in random order, with redundant
elements, and ``non_generating_lists`` a list that spans a proper
subgroup; the tests run the whole construction on them.
"""

from __future__ import annotations

from math import factorial

from hypothesis import assume
from hypothesis import strategies as st

from posetgroups import FiniteGroup, GroupError, SizeLimitExceeded, builtin_group
from posetgroups.groups import _greedy_generators

DEFAULT_ISO_ORDER_CAP = 16
CATALOGUE = ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "klein4", "symmetric:3",
             "dihedral:4", "quaternion8")


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


def numbered(elements: list, multiply) -> FiniteGroup:
    """The group of ``elements`` under ``multiply``, each numbered by its position."""
    number = {x: k for k, x in enumerate(elements)}
    table = tuple(tuple(number[multiply(x, y)] for y in elements) for x in elements)
    return FiniteGroup(tuple(f"p{k}" for k in range(len(elements))), table)


@st.composite
def permutation_groups(draw, max_degree: int = 6, max_order: int = 24) -> FiniteGroup:
    """The closure of 1-3 random permutations of degree at most ``max_degree``,
    as a table with its elements numbered in random order.

    Each permutation joins the generators only while the closure stays
    within ``max_order`` elements; the first alone has order at most 6.
    The trivial group, which the construction cannot realize, is not drawn.
    """
    degree = draw(st.integers(2, max_degree))
    perms = draw(st.lists(st.permutations(range(degree)).map(tuple), min_size=1, max_size=3))
    elements: list[tuple[int, ...]] = []
    for k in range(len(perms)):
        grown = [tuple(range(degree))]
        for x in grown:  # ``grown`` grows while it is read
            for y in (tuple(x[i] for i in s) for s in perms[:k + 1]):
                if y not in grown:
                    grown.append(y)
        if len(grown) > max_order:
            break
        elements = grown
    assume(len(elements) > 1)
    return numbered(draw(st.permutations(elements)), lambda x, y: tuple(x[i] for i in y))


@st.composite
def direct_products(draw, max_order: int = 24) -> FiniteGroup:
    """G × H for catalogue groups G and H with |G|·|H| at most ``max_order``,
    as a table with its elements numbered in random order."""
    first = builtin_group(draw(st.sampled_from(CATALOGUE)))
    fitting = [name for name in CATALOGUE if first.order * builtin_group(name).order <= max_order]
    second = builtin_group(draw(st.sampled_from(fitting)))
    pairs = [(a, b) for a in range(first.order) for b in range(second.order)]
    return numbered(draw(st.permutations(pairs)),
                    lambda x, y: (first.op(x[0], y[0]), second.op(x[1], y[1])))


@st.composite
def generating_lists(draw, group: FiniteGroup, max_extra: int = 1) -> list[int]:
    """Distinct non-identity elements that generate ``group``, in random order:
    the greedy generators plus up to ``max_extra`` redundant elements."""
    gens = _greedy_generators(group)
    others = [x for x in range(group.order) if x != group.identity and x not in gens]
    if others:
        gens += draw(st.lists(st.sampled_from(others), max_size=max_extra, unique=True))
    return draw(st.permutations(gens))


@st.composite
def non_generating_lists(draw, group: FiniteGroup, max_automorphisms: int = 400) -> list[int]:
    """At most two distinct non-identity elements, in random order, that
    span a proper subgroup H of ``group``.

    The space of such a list is one copy of H's space per coset, so its
    automorphism group is the wreath product of H by the c cosets'
    permutations, of order |H|^c · c!.  Lists whose group would have
    more than ``max_automorphisms`` elements are not drawn.
    """
    others = [x for x in range(group.order) if x != group.identity]
    gens = draw(st.lists(st.sampled_from(others), max_size=2, unique=True))
    span = len(group.closure(gens))
    cosets = group.order // span
    assume(cosets > 1 and span ** cosets * factorial(cosets) <= max_automorphisms)
    return gens
