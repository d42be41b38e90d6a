"""Homotopy-theoretic machinery for finite spaces.

Everything here leans on two classical facts about finite T0 spaces:
removing a beat point is a strong deformation retraction, and two
continuous maps are homotopic exactly when they are joined by a fence of
pointwise-comparable continuous maps.  Cores (beat-point-free retracts)
are unique up to isomorphism, and a homotopy equivalence between
beat-point-free spaces is automatically a homeomorphism — which is what
turns automorphism-group statements into homotopy-type statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import MapError, SizeLimitExceeded
from .groups import FiniteGroup
from .labels import Base, FencePoint, Label, SPoint, Star, TPoint
from .posets import FinitePoset, PosetMap, bits
from .search import DEFAULT_AUT_BUDGET, all_automorphisms

DEFAULT_MAP_BUDGET = 10**7
DEFAULT_MAP_POINTS = 8


# -- core reduction ----------------------------------------------------------


@dataclass(frozen=True)
class CoreResult:
    """A beat-point-free retract together with how it was reached.

    ``trace`` records the removals in order as ``(label, kind)``;
    ``retraction``/``inclusion`` compose all the single-point retractions,
    so ``retraction.compose(inclusion)`` is the identity on the core.
    """

    poset: FinitePoset
    trace: tuple[tuple[Label, str], ...]
    retraction: PosetMap
    inclusion: PosetMap


def core(space: FinitePoset) -> CoreResult:
    """Remove beat points (lowest index first) until none remain."""
    current = space
    trace: list[tuple[Label, str]] = []
    lands_on: dict[Label, Label] = {}

    while True:
        beats = current.beat_points()
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


# -- automorphism groups -----------------------------------------------------


@dataclass(frozen=True)
class AutomorphismGroup:
    """All self-homeomorphisms of a poset, with their composition table."""

    space: FinitePoset
    maps: tuple[PosetMap, ...]
    table: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, space: FinitePoset, *, budget: int = DEFAULT_AUT_BUDGET):
        """Enumerate Aut(space) and tabulate ``table[i][j]`` = maps[i] ∘ maps[j].

        Products are composed as image tuples and looked up among the
        edge-verified automorphisms, so no product is validated again; a
        product missing from that set raises instead of yielding a table.
        """
        maps = tuple(all_automorphisms(space, budget=budget))
        if len(space) < 2:  # only the identity, and itemgetter needs 2+ indices
            return cls(space, maps, ((0,),))
        position = {m.images: k for k, m in enumerate(maps)}
        getters = [itemgetter(*m.images) for m in maps]
        table = tuple(
            tuple(position.get(inner(outer.images)) for inner in getters)
            for outer in maps
        )
        if any(None in row for row in table):
            raise MapError("a product of automorphisms is missing from the enumerated set")
        return cls(space, maps, table)

    @property
    def order(self) -> int:
        return len(self.maps)

    def as_group(self) -> FiniteGroup:
        """The abstract group on labels ``f0, f1, ...`` (table order)."""
        labels = tuple(f"f{k}" for k in range(self.order))
        return FiniteGroup(labels, self.table)

    def identity_index(self) -> int:
        identity = tuple(range(len(self.space)))
        return next(k for k, m in enumerate(self.maps) if m.images == identity)

    def acts_freely(self) -> bool:
        """No non-identity element fixes any point (empty spaces count)."""
        identity = tuple(range(len(self.space)))
        return all(
            all(m.images[i] != i for i in range(len(self.space)))
            for m in self.maps
            if m.images != identity
        )

    def stabilizer_sizes(self) -> dict[int, int]:
        """Point index -> number of automorphisms fixing it."""
        return {
            i: sum(1 for m in self.maps if m.images[i] == i)
            for i in range(len(self.space))
        }


# -- restriction/extension between base and attached spaces ------------------


@dataclass(frozen=True)
class ExtensionCheck:
    """Outcome of matching automorphisms of a base space with those of its
    gadget-attached extension."""

    ok: bool
    failures: tuple[str, ...]
    base_order: int
    full_order: int


def _transport_label(label: Label, base_image: dict[tuple[int, int], Label]) -> Label:
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


def extension_restriction_check(
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
            lifted = PosetMap.by_labels(
                full, full, lambda lab: _transport_label(lab, base_image)
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


# -- continuous self-maps and fence homotopy ---------------------------------


def _enumerate_maps(
    space: FinitePoset,
    candidate_masks: list[int],
    budget: int,
    *,
    idempotent: bool = False,
) -> list[tuple[int, ...]]:
    """All order-preserving self-maps with images inside ``candidate_masks``.

    Backtracking with forward checking: assigning ``x -> v`` intersects the
    candidates of every point above ``x`` with the up-set of ``v`` and of
    every point below with its down-set; the next point to assign is always
    one with the fewest candidates left.  With ``idempotent`` the image
    point of each assignment is additionally pinned to itself, which is
    what makes retraction searches tractable.
    """
    n = len(space)
    if n == 0:
        return [()]
    strict_up = [space.up_mask(i) & ~(1 << i) for i in range(n)]
    strict_down = [space.down_mask(i) & ~(1 << i) for i in range(n)]
    images = [-1] * n
    out: list[tuple[int, ...]] = []
    nodes = 0

    def assign(masks: list[int], unassigned: int):
        nonlocal nodes
        if not unassigned:
            out.append(tuple(images))
            return
        point, best = -1, None
        for i in bits(unassigned):
            width = masks[i].bit_count()
            if best is None or width < best:
                point, best = i, width
                if width == 1:
                    break
        remaining = unassigned & ~(1 << point)
        for cand in bits(masks[point]):
            nodes += 1
            if nodes > budget:
                raise SizeLimitExceeded(
                    f"self-map enumeration exceeded {budget} candidate nodes"
                )
            images[point] = cand
            narrowed = list(masks)
            narrowed[point] = 1 << cand
            if idempotent and cand != point:
                if remaining >> cand & 1:
                    narrowed[cand] &= 1 << cand
                elif images[cand] != cand:
                    continue  # image points must stay fixed
            feasible = True
            for other in bits(remaining):
                if strict_up[point] >> other & 1:
                    narrowed[other] &= space.up_mask(cand)
                elif strict_down[point] >> other & 1:
                    narrowed[other] &= space.down_mask(cand)
                if not narrowed[other]:
                    feasible = False
                    break
            if feasible:
                assign(narrowed, remaining)
        images[point] = -1

    assign(list(candidate_masks), (1 << n) - 1)
    return sorted(out)


def enumerate_selfmaps(
    space: FinitePoset,
    *,
    max_points: int = DEFAULT_MAP_POINTS,
    budget: int = DEFAULT_MAP_BUDGET,
) -> list[PosetMap]:
    """Every continuous self-map, sorted by image tuple.

    Exhaustive enumeration is exponential, so the point-count guard must be
    raised explicitly for anything bigger than ``max_points``.
    """
    if len(space) > max_points:
        raise SizeLimitExceeded(
            f"{len(space)} points exceeds the max_points={max_points} guard"
        )
    full = (1 << len(space)) - 1
    found = _enumerate_maps(space, [full] * len(space), budget)
    return [PosetMap(space, space, images) for images in found]


def comparative_retractions(
    space: FinitePoset,
    *,
    max_points: int = 64,
    budget: int = DEFAULT_MAP_BUDGET,
) -> list[PosetMap]:
    """Idempotent continuous self-maps moving every point to a comparable one.

    The comparability restriction prunes hard enough to reach mid-size
    spaces; still budgeted.  A space with only the identity here is rigid
    in a strong sense: it retracts onto nothing smaller.
    """
    if len(space) > max_points:
        raise SizeLimitExceeded(
            f"{len(space)} points exceeds the max_points={max_points} guard"
        )
    masks = [space.down_mask(i) | space.up_mask(i) for i in range(len(space))]
    found = _enumerate_maps(space, masks, budget, idempotent=True)
    return [PosetMap(space, space, images) for images in found]


@dataclass(frozen=True)
class HomotopyClasses:
    """Fence-homotopy classes of a full set of continuous self-maps.

    ``class_ids[k]`` names the class of ``maps[k]``; classes are numbered
    by their smallest member.  ``equivalences`` lists the indices of maps
    with a two-sided homotopy inverse, and ``group`` is the induced group
    on their classes (composition of representatives).
    """

    maps: tuple[PosetMap, ...]
    class_ids: tuple[int, ...]
    equivalences: tuple[int, ...]
    group: FiniteGroup

    @property
    def class_count(self) -> int:
        return len(set(self.class_ids))

    def classes(self) -> list[tuple[int, ...]]:
        grouped: dict[int, list[int]] = {}
        for k, c in enumerate(self.class_ids):
            grouped.setdefault(c, []).append(k)
        return [tuple(grouped[c]) for c in sorted(grouped)]


def homotopy_classes(maps: list[PosetMap]) -> HomotopyClasses:
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
