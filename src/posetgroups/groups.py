"""Finite groups as validated multiplication tables.

Elements are indices ``0..n-1`` with string labels.  The full group
axioms are checked at construction — associativity exactly, by Light's
test over a generating set (O(n²) per generator rather than all n³
triples) — as cheap insurance against a mistyped table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import ne

from .errors import (
    ContainsIdentityError,
    DoesNotGenerateError,
    DuplicateGeneratorError,
    GroupError,
)


@dataclass(frozen=True)
class FiniteGroup:
    labels: tuple[str, ...]
    cayley: tuple[tuple[int, ...], ...]
    identity: int = field(init=False)

    def __post_init__(self):
        n = len(self.labels)
        if n == 0:
            raise GroupError("a group has at least the identity")
        if len(set(self.labels)) != n:
            raise GroupError("element labels must be pairwise distinct")
        if len(self.cayley) != n or any(len(row) != n for row in self.cayley):
            raise GroupError("multiplication table must be n x n")
        for row in self.cayley:
            for v in row:
                if not 0 <= v < n:
                    raise GroupError(f"table entry {v} out of range")

        # A two-sided identity is the first left identity (two would be
        # equal), so only the first row equal to 0..n-1 needs its column
        # checked.  In a group each row holds the identity once, so the
        # first right inverse is the one to test from the left.
        ident = tuple(range(n))
        identity = next((e for e, row in enumerate(self.cayley) if tuple(row) == ident), None)
        if identity is None or any(row[identity] != x for x, row in enumerate(self.cayley)):
            raise GroupError("no two-sided identity element")
        object.__setattr__(self, "identity", identity)

        for a, row in enumerate(self.cayley):
            if identity not in row or self.cayley[row.index(identity)][a] != identity:
                raise GroupError(f"element {self.labels[a]!r} has no inverse")

        _check_associative(self)

    @property
    def order(self) -> int:
        return len(self.labels)

    def op(self, a: int, b: int) -> int:
        return self.cayley[self._element(a)][self._element(b)]

    def inv(self, a: int) -> int:
        return self.cayley[self._element(a)].index(self.identity)

    def _element(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise GroupError(f"element index {a} out of range 0..{self.order - 1}")
        return a

    def element_order(self, a: int) -> int:
        k, acc = 1, a
        while acc != self.identity:
            acc = self.cayley[acc][a]
            k += 1
        return k

    def order_profile(self) -> tuple[int, ...]:
        return tuple(sorted(self.element_order(a) for a in range(self.order)))

    def closure(self, subset) -> tuple[int, ...]:
        """Subgroup generated by ``subset`` (element indices), sorted."""
        seen = {self.identity}
        frontier = [self.identity]
        gens = list(subset)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.cayley[x][g]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(seen))

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise GroupError(f"no element labelled {label!r}") from None


def _greedy_generators(group: FiniteGroup) -> list[int]:
    """Generators picked in index order, each one outside the span so far."""
    gens: list[int] = []
    span = {group.identity}
    for x in range(group.order):
        if x not in span:
            gens.append(x)
            span = set(group.closure(gens))
            if len(span) == group.order:
                break
    return gens


def _check_associative(group: FiniteGroup) -> None:
    """Light's associativity test: (x·s)·y = x·(s·y) for every x, y and each s in S.

    S is the greedy generating set of :func:`_greedy_generators`.  The
    elements t with (x·t)·y = x·(t·y) for all x, y contain S and the
    identity and are closed under products, so they are every element:
    O(n²·|S|) work instead of the n³ triples.  Runs once ``identity`` is set.
    """
    table, labels, n = group.cayley, group.labels, group.order
    for s in _greedy_generators(group):
        row_s = table[s]
        for x in range(n):
            row_x = table[x]
            row_xs = table[row_x[s]]
            if any(map(ne, row_xs, map(row_x.__getitem__, row_s))):
                y = next(y for y in range(n) if row_xs[y] != row_x[row_s[y]])
                raise GroupError(
                    f"associativity fails on ({labels[x]}, {labels[s]}, {labels[y]})"
                )


def validate_generating_set(
    group: FiniteGroup, gens, *, require_generating: bool = True
) -> tuple[int, ...]:
    """Check an ordered generator list; returns element indices.

    ``gens`` may mix labels and indices.  The identity is rejected, as are
    duplicates.  With ``require_generating`` (the default) the generators
    must span the whole group; passing False is how experiments force a
    proper subgroup through the construction.
    """
    resolved = []
    for g in gens:
        resolved.append(g if isinstance(g, int) else group.index_of(g))
    for g in resolved:
        if not 0 <= g < group.order:
            raise GroupError(f"generator index {g} out of range")
    if group.identity in resolved:
        raise ContainsIdentityError("the identity is not allowed as a generator")
    if len(set(resolved)) != len(resolved):
        raise DuplicateGeneratorError("generators must be pairwise distinct")
    if require_generating:
        span = group.closure(resolved)
        if len(span) != group.order:
            raise DoesNotGenerateError(
                f"generators span a subgroup of order {len(span)} < {group.order}",
                witness=span,
            )
    return tuple(resolved)


# -- builtin families -------------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic order must be >= 1")
    labels = tuple("e" if k == 0 else "a" if k == 1 else f"a{k}" for k in range(n))
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(labels, table)


def klein_four() -> FiniteGroup:
    labels = ("e", "a", "b", "ab")
    table = tuple(tuple(i ^ j for j in range(4)) for i in range(4))
    return FiniteGroup(labels, table)


def dihedral(k: int) -> FiniteGroup:
    """Symmetries of the regular ``k``-gon, order ``2k``.

    Generated by two reflections ``a`` and ``b`` whose product has order
    ``k``; element labels are shortest words in ``a, b``.
    """
    if k < 2:
        raise GroupError("dihedral parameter must be >= 2")

    def mul(x, y):
        rot = (x[0] + (y[0] if x[1] == 0 else -y[0])) % k
        return (rot, x[1] ^ y[1])

    identity = (0, 0)
    gens = (("a", (0, 1)), ("b", (k - 1, 1)))

    # Breadth-first from the identity: the first word to reach an element
    # is a shortest one, and the dict keeps the order elements are found.
    words = {identity: "e"}
    queue = [identity]
    while queue:
        nxt = []
        for x in queue:
            for letter, g in gens:
                y = mul(x, g)
                if y not in words:
                    words[y] = letter if x == identity else words[x] + letter
                    nxt.append(y)
        queue = nxt

    elements = list(words)
    labels = tuple(words.values())
    pos = {x: i for i, x in enumerate(elements)}
    table = tuple(tuple(pos[mul(x, y)] for y in elements) for x in elements)
    return FiniteGroup(labels, table)


def _cycle_notation(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + "".join(str(v) for v in cyc) + ")")
    return "".join(parts) if parts else "e"


def symmetric(n: int) -> FiniteGroup:
    if not 1 <= n <= 6:
        raise GroupError("symmetric parameter must be in 1..6")
    elements = sorted(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(elements)}
    labels = tuple(_cycle_notation(p) for p in elements)
    table = tuple(
        tuple(pos[tuple(p[q[x]] for x in range(n))] for q in elements) for p in elements
    )
    return FiniteGroup(labels, table)


def quaternion8() -> FiniteGroup:
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    units = "1ijk"

    def mul(x, y):
        sx, ux = x
        sy, uy = y
        if ux == "1":
            return (sx * sy, uy)
        if uy == "1":
            return (sx * sy, ux)
        if ux == uy:
            return (-sx * sy, "1")
        prod = {"ij": (1, "k"), "jk": (1, "i"), "ki": (1, "j"),
                "ji": (-1, "k"), "kj": (-1, "i"), "ik": (-1, "j")}[ux + uy]
        return (sx * sy * prod[0], prod[1])

    elements = [(s, u) for u in units for s in (1, -1)]
    pos = {x: i for i, x in enumerate(elements)}
    table = tuple(tuple(pos[mul(x, y)] for y in elements) for x in elements)
    return FiniteGroup(labels, table)


# Each builtin family: its constructor, whether it takes a parameter, and
# its standard generator labels as a function of the parameter.
_FAMILIES = {
    "cyclic": (cyclic, True, lambda n: [] if n == 1 else ["a"]),
    "dihedral": (dihedral, True, lambda k: ["a", "b"]),
    "symmetric": (symmetric, True, lambda n: [f"({i}{i + 1})" for i in range(n - 1)]),
    "klein4": (klein_four, False, lambda: ["a", "b"]),
    "quaternion8": (quaternion8, False, lambda: ["i", "j"]),
}


def _family(name: str):
    """The constructor, generator rule and arguments a builtin group name asks for."""
    family, sep, param = name.partition(":")
    if family not in _FAMILIES:
        raise GroupError(f"unknown group family {family!r}")
    make, wants_param, generators = _FAMILIES[family]
    if wants_param and not param.isdecimal():
        raise GroupError(
            f"family {family!r} needs a whole-number parameter, e.g. {family}:3; got {param!r}")
    if sep and not wants_param:
        raise GroupError(f"family {family!r} takes no parameter")
    return make, generators, (int(param),) if wants_param else ()


def builtin_group(name: str) -> FiniteGroup:
    """Look up a builtin family: ``cyclic:N``, ``dihedral:K``, ``symmetric:N``,
    ``klein4``, ``quaternion8``."""
    make, _, args = _family(name)
    return make(*args)


def standard_generator_labels(name: str) -> list[str]:
    """The conventional generating set used for a builtin family."""
    _, generators, args = _family(name)
    return generators(*args)
