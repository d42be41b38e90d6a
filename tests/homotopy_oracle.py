"""Reference core reduction and homotopy classification, kept for tests only.

``oracle_core`` rebuilds the poset with ``induced`` after every removed
beat point and rescans all points for the next one; it keeps its own copy
of the beat-point scan.  ``oracle_homotopy_classes`` joins every pointwise
comparable pair of maps and looks for a two-sided homotopy inverse of each
map among all the others.  ``oracle_selfmaps`` runs through every image
tuple and keeps those that preserve every cover, and
``oracle_comparative_retractions`` keeps the idempotent ones among them
that send each point to a comparable one.  All are quadratic or worse but
obviously correct, and the property tests compare
:mod:`posetgroups.homotopy` against them.  ``pointwise_leq`` is the
comparison that joins two maps.

``transport_label`` moves one label along a base automorphism, and
``oracle_extension_restriction_check``, ``oracle_left_translation`` and
``oracle_collapse_map`` build their maps label by label through
``by_labels``.  The library numbers each site and role of a space once
and builds each map as one gather over those numbers instead; the
property tests compare maps and failure texts.

``oracle_aut_table`` is the composition table of an automorphism group
keyed on a separating base found from the maps alone, the first point each
non-identity map moves; the library keys on the search's base and builds
the table from its columns.  ``automorphism_group`` validates a table as
an abstract group.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from operator import itemgetter

from posetgroups import (
    AutomorphismGroup,
    ConstructionError,
    ConstructionSpec,
    CoreResult,
    ExtensionCheck,
    FiniteGroup,
    FinitePoset,
    GadgetMode,
    HomotopyClasses,
    MapError,
    PosetMap,
    build_space,
)
from posetgroups.labels import Base, FencePoint, Label, SPoint, Star, TPoint
from posetgroups.spaces import _collapse_label

from posets_oracle import bits, order_masks


def _unique_extreme(strict: int, masks) -> bool:
    """Does the subset ``strict`` have a unique extreme point?

    ``masks`` holds the up masks to test for a unique maximal element and
    the down masks for a unique minimal one.
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
    down, up = order_masks(poset)
    for i in range(len(poset)):
        strict_down = down[i] & ~(1 << i)
        strict_up = up[i] & ~(1 << i)
        if strict_down and _unique_extreme(strict_down, up):
            found.append((i, "down"))
        if strict_up and _unique_extreme(strict_up, down):
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
        down, up = order_masks(current)
        if kind == "down":
            strict = down[index] & ~(1 << index)
            partner = next(j for j in bits(strict) if up[j] & strict == 1 << j)
        else:
            strict = up[index] & ~(1 << index)
            partner = next(j for j in bits(strict) if down[j] & strict == 1 << j)
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


def oracle_selfmaps(space: FinitePoset) -> list[tuple[int, ...]]:
    """Every image tuple that preserves every cover, in sorted order."""
    n = len(space)
    return [
        images for images in product(range(n), repeat=n)
        if all(space.leq(images[a], images[b]) for a, b in space.hasse)
    ]


def oracle_comparative_retractions(space: FinitePoset, selfmaps) -> list[tuple[int, ...]]:
    """The idempotent maps among ``selfmaps`` (the output of
    :func:`oracle_selfmaps`) that send each point to a comparable one."""
    return [
        images for images in selfmaps
        if all(images[v] == v for v in images)
        and all(space.leq(i, v) or space.leq(v, i) for i, v in enumerate(images))
    ]


def pointwise_leq(f: PosetMap, g: PosetMap) -> bool:
    """``f(x) <= g(x)`` at every point (both into one target)."""
    return all(f.target.leq(a, b) for a, b in zip(f.images, g.images))


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
            if pointwise_leq(maps[i], maps[j]) or pointwise_leq(maps[j], maps[i]):
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


# -- label-by-label maps of the built spaces -------------------------------


def by_labels(source: FinitePoset, target: FinitePoset, fn) -> PosetMap:
    """Build a map by transforming labels; images are looked up in the target."""
    return PosetMap(source, target, tuple(target.index_of(fn(lab)) for lab in source.labels))


def transport_label(label: Label, base_image: dict[tuple[int, int], Label]) -> Label:
    """Move a label along a base automorphism given by its action on columns."""
    if isinstance(label, Base):
        return base_image[(label.g, label.level)]
    if isinstance(label, (SPoint, TPoint, FencePoint)):
        target = base_image[(label.g, label.level)]
        if not isinstance(target, Base):
            raise MapError("attachment site mapped off the column grid")
        if isinstance(label, SPoint):
            return SPoint(label.kind, target.g, target.level)
        if isinstance(label, TPoint):
            return TPoint(label.kind, target.g, target.level)
        return FencePoint(label.role, label.index, target.g, target.level)
    if isinstance(label, Star):
        return label
    raise MapError(f"unexpected label {label!r}")


def oracle_extension_restriction_check(
    base: FinitePoset,
    full: FinitePoset,
    base_auts: AutomorphismGroup,
    full_auts: AutomorphismGroup,
) -> ExtensionCheck:
    """Verify automorphisms of ``full`` are exactly the natural extensions
    of automorphisms of ``base``.

    Three layers, each reported on failure: every automorphism of the full
    space maps base points to base points; restriction lands bijectively in
    the automorphisms of the base; and the canonical extension (transport
    each attachment to the image site) inverts restriction.
    """
    failures: list[str] = []
    base_positions = [full.index_of(lab) for lab in base.labels]
    base_set = set(base_positions)
    back = {full_idx: base_idx for base_idx, full_idx in enumerate(base_positions)}

    restrictions: dict[tuple[int, ...], tuple[int, ...]] = {}
    for k, m in enumerate(full_auts.maps):
        hit = [m.images[i] for i in base_positions]
        if any(v not in base_set for v in hit):
            failures.append(f"full automorphism {k} moves a column point off the columns")
            continue
        restrictions[m.images] = tuple(back[v] for v in hit)

    base_images = {m.images for m in base_auts.maps}
    for full_images, restricted in restrictions.items():
        if restricted not in base_images:
            failures.append("a restriction is not an automorphism of the base")

    if len(set(restrictions.values())) != len(restrictions):
        failures.append("two full automorphisms restrict to the same base map")

    extended: dict[tuple[int, ...], tuple[int, ...]] = {}
    full_images_set = {m.images for m in full_auts.maps}
    for k, m in enumerate(base_auts.maps):
        base_image = {
            (lab.g, lab.level): base.labels[m.images[i]]
            for i, lab in enumerate(base.labels)
            if isinstance(lab, Base)
        }
        try:
            lifted = by_labels(
                full, full, lambda lab: transport_label(lab, base_image)
            )
        except (MapError, KeyError) as exc:
            failures.append(f"base automorphism {k} does not extend: {exc}")
            continue
        if lifted.images not in full_images_set:
            failures.append(f"extension of base automorphism {k} is not an automorphism")
            continue
        extended[m.images] = lifted.images
        if restrictions.get(lifted.images) != m.images:
            failures.append(f"restriction does not invert extension for map {k}")

    if len(restrictions) != len(extended) or full_auts.order != base_auts.order:
        failures.append(
            f"automorphism counts differ: base {base_auts.order}, full {full_auts.order}"
        )

    return ExtensionCheck(
        ok=not failures,
        failures=tuple(failures),
        base_order=base_auts.order,
        full_order=full_auts.order,
    )


def oracle_collapse_map(
    spec: ConstructionSpec,
    *,
    source: FinitePoset | None = None,
    target: FinitePoset | None = None,
) -> PosetMap:
    """The fold from the sized-fence space onto the classic one.

    ``spec.mode`` must be ``sandt``; the target is the same spec with
    fence size 1.  Order preservation is re-validated by the map
    constructor, surjectivity by the caller if desired.
    """
    if spec.mode.kind != "sandt":
        raise ConstructionError("collapse is only defined for sandt spaces")
    if source is None:
        source = build_space(spec)
    if target is None:
        target = build_space(replace(spec, mode=GadgetMode("sandt", 1)))
    return by_labels(source, target, _collapse_label)


def oracle_left_translation(space: FinitePoset, spec: ConstructionSpec, g: int) -> PosetMap:
    """The automorphism that left-multiplies every column index by ``g``."""
    group = spec.group

    def shift(label: Label) -> Label:
        if isinstance(label, (Base, SPoint, TPoint, FencePoint)):
            if not 0 <= label.g < group.order:
                site, last = (label.g, label.level), group.order - 1
                raise ConstructionError(f"site {site} is off the group's columns 0..{last}")
            return replace(label, g=group.op(g, label.g))
        if isinstance(label, Star):
            return label
        raise ConstructionError(f"unexpected label {label!r} in a built space")

    return by_labels(space, space, shift)


def oracle_aut_table(maps) -> tuple[tuple[int, ...], ...]:
    """``table[i][j]`` = maps[i] ∘ maps[j], keyed on a separating base.

    For ``g != h`` in a group, ``h⁻¹g`` moves its first point ``b``, so
    ``g(b) != h(b)``: the first points the maps move key them.  Two maps
    with one key, or a product missing from the maps, raise ``MapError``.
    """
    firsts = {next((x for x, y in enumerate(m.images) if x != y), None) for m in maps}
    base = sorted(firsts - {None})
    key = itemgetter(*base) if base else itemgetter(slice(0))  # () for the trivial group
    position = {key(m.images): k for k, m in enumerate(maps)}
    if len(position) != len(maps):
        raise MapError("two maps agree on the separating base: the maps are not a group")
    getters = [itemgetter(*map(m.images.__getitem__, base)) if base else key for m in maps]
    table = tuple(tuple(position.get(inner(outer.images)) for inner in getters) for outer in maps)
    if any(None in row for row in table):
        raise MapError("a product of automorphisms is missing from the enumerated set")
    return table


def automorphism_group(auts: AutomorphismGroup) -> FiniteGroup:
    """The abstract group of ``auts`` on labels ``f0, f1, ...`` (table
    order), its table checked to be a group table."""
    return FiniteGroup(tuple(f"f{k}" for k in range(auts.order)), auts.table)
