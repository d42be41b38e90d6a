"""Reference core reduction and homotopy classification, kept for tests only.

``oracle_core`` rebuilds the poset with ``induced`` after every removed
beat point and rescans all points for the next one; it keeps its own copy
of the beat-point scan.  ``oracle_homotopy_classes`` joins every pointwise
comparable pair of maps and looks for a two-sided homotopy inverse of each
map among all the others.  Both are quadratic or worse but obviously
correct, and the property tests compare :mod:`posetgroups.homotopy`
against them.
"""

from __future__ import annotations

from posetgroups import CoreResult, FiniteGroup, FinitePoset, HomotopyClasses, PosetMap
from posetgroups.labels import Label
from posetgroups.posets import bits


def _unique_extreme(strict: int, masks) -> bool:
    """Does the subset ``strict`` have a unique extreme point?

    ``masks`` is ``_up`` to test for a unique maximal element and
    ``_down`` for a unique minimal one.
    """
    count = 0
    for j in bits(strict):
        if masks[j] & strict == 1 << j:
            count += 1
            if count > 1:
                return False
    return count == 1


def _beat_points(poset: FinitePoset) -> list[tuple[int, str]]:
    """Points removable without changing homotopy type.

    A point is a "down" beat point when its strict down-set has a unique
    maximal element, an "up" beat point when its strict up-set has a
    unique minimal element.  Entries are ``(index, kind)`` with kind
    ``"down"``/``"up"``, ordered by index then kind; a point carrying
    both kinds appears twice.
    """
    found: list[tuple[int, str]] = []
    for i in range(len(poset)):
        strict_down = poset._down[i] & ~(1 << i)
        strict_up = poset._up[i] & ~(1 << i)
        if strict_down and _unique_extreme(strict_down, poset._up):
            found.append((i, "down"))
        if strict_up and _unique_extreme(strict_up, poset._down):
            found.append((i, "up"))
    return found


def oracle_core(space: FinitePoset) -> CoreResult:
    """Remove beat points (lowest index first) until none remain."""
    current = space
    trace: list[tuple[Label, str]] = []
    lands_on: dict[Label, Label] = {}

    while True:
        beats = _beat_points(current)
        if not beats:
            break
        index, kind = beats[0]
        if kind == "down":
            strict = current.down_mask(index) & ~(1 << index)
            partner = next(
                j for j in bits(strict) if current.up_mask(j) & strict == 1 << j
            )
        else:
            strict = current.up_mask(index) & ~(1 << index)
            partner = next(
                j for j in bits(strict) if current.down_mask(j) & strict == 1 << j
            )
        trace.append((current.labels[index], kind))
        lands_on[current.labels[index]] = current.labels[partner]
        current = current.induced([i for i in range(len(current)) if i != index])

    def resolve(label: Label) -> Label:
        while label in lands_on:
            label = lands_on[label]
        return label

    retraction = PosetMap(
        space, current, tuple(current.index_of(resolve(lab)) for lab in space.labels)
    )
    inclusion = PosetMap(
        current, space, tuple(space.index_of(lab) for lab in current.labels)
    )
    return CoreResult(current, tuple(trace), retraction, inclusion)


def oracle_homotopy_classes(maps: list[PosetMap]) -> HomotopyClasses:
    """Partition a *complete* list of continuous self-maps by homotopy.

    Completeness matters twice: fences are searched inside the list, and
    homotopy inverses are looked for inside the list.  Feed it the output
    of :func:`enumerate_selfmaps`.
    """
    if not maps:
        raise ValueError("need at least one map (the identity at minimum)")
    space = maps[0].source
    maps = tuple(sorted(maps, key=lambda m: m.images))
    m = len(maps)

    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for i in range(m):
        for j in range(i + 1, m):
            if maps[i].pointwise_leq(maps[j]) or maps[j].pointwise_leq(maps[i]):
                union(i, j)

    class_ids = tuple(find(k) for k in range(m))
    position = {mp.images: k for k, mp in enumerate(maps)}
    identity_images = tuple(range(len(space)))
    if identity_images not in position:
        raise ValueError("map list must contain the identity")
    identity_class = class_ids[position[identity_images]]

    def compose_class(i: int, j: int) -> int:
        composed = tuple(maps[i].images[v] for v in maps[j].images)
        if composed not in position:
            raise ValueError(
                "map list is not closed under composition; "
                "pass every continuous self-map"
            )
        return class_ids[position[composed]]

    equivalences = tuple(
        i
        for i in range(m)
        if any(
            compose_class(i, j) == identity_class and compose_class(j, i) == identity_class
            for j in range(m)
        )
    )

    eq_classes = sorted({class_ids[i] for i in equivalences})
    slot = {c: k for k, c in enumerate(eq_classes)}
    reps = {class_ids[i]: i for i in reversed(equivalences)}
    table = tuple(
        tuple(slot[compose_class(reps[a], reps[b])] for b in eq_classes)
        for a in eq_classes
    )
    group = FiniteGroup(tuple(f"c{c}" for c in eq_classes), table)
    return HomotopyClasses(maps, class_ids, equivalences, group)
