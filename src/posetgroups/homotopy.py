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
from heapq import heappop, heappush
from operator import itemgetter

from .errors import MapError, SizeLimitExceeded
from .groups import FiniteGroup
from .labels import COLUMN, Label, label_at
from .posets import FinitePoset, PosetMap, bits
from .search import DEFAULT_AUT_BUDGET, all_automorphisms

DEFAULT_MAP_BUDGET = 10**7
DEFAULT_MAP_POINTS = 8

_KINDS = ("down", "up")
_INCOMPLETE = (
    "map list is incomplete (not closed under composition, or missing a "
    "continuous map); pass every continuous self-map"
)


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
    """Remove beat points (lowest index first, "down" before "up") until none remain.

    One pass over the original order: an ``alive`` bitmask stands for the
    current subspace and a min-heap holds the ``(index, kind)`` entries
    whose beat status may have changed, each tested when popped.  Removing
    ``x`` only changes the tests of the points covering ``x`` (their down
    test) and of those ``x`` covers (their up test): for any other point,
    ``x`` is not an extreme element of its strict down- or up-set, so those
    extremes stay.  The core is built once, at the end.
    """
    n = len(space)
    alive = (1 << n) - 1
    heap = [(i, k) for i in range(n) for k in (0, 1)]  # sorted, so already a heap
    removed: list[tuple[int, int, int]] = []  # (point, kind, partner)
    while heap:
        i, k = heappop(heap)
        if not alive >> i & 1:
            continue
        partner = space.beat_partner(i, _KINDS[k], alive)
        if partner is None:
            continue
        removed.append((i, k, partner))
        alive &= ~(1 << i)
        above = space.up_mask(i) & alive
        for j in bits(above):
            if space.down_mask(j) & above == 1 << j:
                heappush(heap, (j, 0))
        below = space.down_mask(i) & alive
        for j in bits(below):
            if space.up_mask(j) & below == 1 << j:
                heappush(heap, (j, 1))

    keep = tuple(bits(alive))
    current = space.induced(keep) if removed else space
    lands = list(range(n))  # the core point each point retracts onto
    for i, _, partner in reversed(removed):
        lands[i] = lands[partner]
    new_index = {old: new for new, old in enumerate(keep)}
    trace = tuple((space.labels[i], _KINDS[k]) for i, k, _ in removed)
    retraction = PosetMap(space, current, tuple(new_index[lands[i]] for i in range(n)))
    return CoreResult(current, trace, retraction, PosetMap(current, space, keep))


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

        The maps are keyed by their images on a separating base: points
        taken greedily in index order, each kept only when it tells more
        maps apart (one point suffices for a free action).  A product is
        then composed on the base alone and looked up among the
        edge-verified automorphisms, so no product is validated again; a
        product missing from that set raises instead of yielding a table.
        """
        maps = tuple(all_automorphisms(space, budget=budget))
        if len(maps) == 1:  # only the identity, and the base is empty
            return cls(space, maps, ((0,),))
        base: list[int] = []
        keys: list[tuple[int, ...]] = [()] * len(maps)
        split = 1
        for x in range(len(space)):
            longer = [key + (m.images[x],) for key, m in zip(keys, maps)]
            distinct = len(set(longer))
            if distinct > split:
                base.append(x)
                keys, split = longer, distinct
                if split == len(maps):
                    break
        # itemgetter gives a bare value for one index and a tuple for more:
        # the same shape on both sides of the lookup.
        position = {itemgetter(*base)(m.images): k for k, m in enumerate(maps)}
        getters = [itemgetter(*(m.images[b] for b in base)) for m in maps]
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


_OFF_GRID = object()  # the site of a column point whose image is not a column point


def _extension(
    base: FinitePoset, full: FinitePoset, base_positions: list[int], images: tuple[int, ...]
) -> tuple[int, ...]:
    """Carry every point of ``full`` along the base automorphism ``images``.

    The base automorphism moves column sites; each point of ``full`` keeps
    its role at the moved site (the basepoint stays), one layout lookup per
    point.  Labels are built only to word a failure: a ``KeyError`` names
    the missing point or site, a :class:`MapError` an unexpected label or
    an attachment site sent off the column grid.
    """
    on_base, layout = base.layout, full.layout
    sites = {None: None}
    for i, j in enumerate(images):
        if on_base.roles[i] == COLUMN:
            sites[on_base.sites[i]] = on_base.sites[j] if on_base.roles[j] == COLUMN else _OFF_GRID
    lifted = layout.carry(layout, sites=sites)
    while None in lifted:
        x = lifted.index(None)
        site, role = layout.sites[x], layout.roles[x]
        if role is None:
            raise MapError(f"unexpected label {full.labels[x]!r}")
        if site not in sites:
            raise KeyError(site)
        moved = sites[site]
        if moved is not _OFF_GRID:
            raise KeyError(label_at(moved, role))
        if role != COLUMN:
            raise MapError("attachment site mapped off the column grid")
        # a column point lands on the copy of its image in ``full``
        lifted[x] = base_positions[images[on_base.index[site, COLUMN]]]
    return tuple(lifted)


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
    each attachment to the image site) inverts restriction.  An extension
    found among the edge-verified automorphisms of ``full`` needs no order
    check of its own.
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
        try:
            lifted = _extension(base, full, base_positions, m.images)
            if lifted not in full_images_set:
                PosetMap(full, full, lifted)  # words an order failure, if there is one
                failures.append(f"extension of base automorphism {k} is not an automorphism")
                continue
        except (MapError, KeyError) as exc:
            failures.append(f"base automorphism {k} does not extend: {exc}")
            continue
        extended[m.images] = lifted
        if restrictions.get(lifted) != m.images:
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
    layer: str,
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

    The tree is walked on an explicit stack of frames ``[point, untried
    candidates, unassigned rest, trail mark]`` over one shared list of
    candidate masks; each narrowing is logged on a trail and undone before
    the frame's next candidate, so depth costs neither recursion nor a
    copy of the masks per level.

    ``budget`` counts candidate nodes plus the image entries of the leaves
    held so far, so it bounds memory as well as time.  Forward checking
    makes every leaf order-preserving, so callers wrap it unchecked.
    """
    n = len(space)
    if n == 0:
        return [()]
    strict_up = [space.up_mask(i) & ~(1 << i) for i in range(n)]
    strict_down = [space.down_mask(i) & ~(1 << i) for i in range(n)]
    masks = list(candidate_masks)
    images = [-1] * n
    trail: list[tuple[int, int]] = []  # (point, its mask before narrowing)
    out: list[tuple[int, ...]] = []
    stack: list[list[int]] = []
    nodes = 0

    def narrow(point: int, keep: int) -> int:
        old = masks[point]
        if old & keep != old:
            trail.append((point, old))
            masks[point] = old & keep
        return masks[point]

    def exhausted() -> SizeLimitExceeded:
        return SizeLimitExceeded(
            f"{layer} stopped after visiting {budget} candidate nodes, its node "
            "budget; raise the limit with --budget-maps or POSETGROUPS_BUDGET_MAPS"
        )

    def descend(unassigned: int):
        nonlocal nodes
        if not unassigned:
            nodes += n  # a held leaf costs its n image entries
            if nodes > budget:
                raise exhausted()
            out.append(tuple(images))
            return
        point, best = -1, None
        for i in bits(unassigned):
            width = masks[i].bit_count()
            if best is None or width < best:
                point, best = i, width
                if width == 1:
                    break
        stack.append([point, masks[point], unassigned & ~(1 << point), len(trail)])

    descend((1 << n) - 1)
    while stack:
        frame = stack[-1]
        point, untried, remaining, mark = frame
        while len(trail) > mark:
            undone, old = trail.pop()
            masks[undone] = old
        if not untried:
            images[point] = -1
            stack.pop()
            continue
        low = untried & -untried
        frame[1] = untried ^ low
        cand = low.bit_length() - 1
        nodes += 1
        if nodes > budget:
            raise exhausted()
        images[point] = cand
        if idempotent and cand != point:
            if remaining >> cand & 1:
                narrow(cand, 1 << cand)
            elif images[cand] != cand:
                continue  # image points must stay fixed
        feasible = True
        for other in bits(remaining):
            if strict_up[point] >> other & 1:
                left = narrow(other, space.up_mask(cand))
            elif strict_down[point] >> other & 1:
                left = narrow(other, space.down_mask(cand))
            else:
                left = masks[other]
            if not left:
                feasible = False
                break
        if feasible:
            descend(remaining)
    return sorted(out)


def _check_points(space: FinitePoset, max_points: int, layer: str) -> None:
    if len(space) > max_points:
        raise SizeLimitExceeded(
            f"{layer} refused {len(space)} points, above its max_points={max_points} "
            "guard; raise it with --max-points"
        )


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
    layer = "self-map enumeration"
    _check_points(space, max_points, layer)
    full = (1 << len(space)) - 1
    found = _enumerate_maps(space, [full] * len(space), budget, layer)
    return [PosetMap._trusted(space, space, images) for images in found]


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
    layer = "comparative-retraction search"
    _check_points(space, max_points, layer)
    masks = [space.down_mask(i) | space.up_mask(i) for i in range(len(space))]
    found = _enumerate_maps(space, masks, budget, layer, idempotent=True)
    return [PosetMap._trusted(space, space, images) for images in found]


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

    Two maps are homotopic exactly when a fence of pointwise-comparable
    continuous maps joins them, and by the one-point-step lemma (Barmak,
    *Algebraic Topology of Finite Topological Spaces and Applications*,
    ch. 1) any ``f <= g`` are joined by continuous maps that each move one
    point up.  So joining every map ``f`` to its continuous one-point-up
    neighbours ``f[x -> v]``, ``v > f(x)``, gives the fence components.
    That needs each such neighbour in the list, and homotopy inverses are
    looked for inside the list, so an incomplete list raises ``ValueError``.
    Feed it the output of :func:`enumerate_selfmaps`.
    """
    if not maps:
        raise ValueError("need at least one map (the identity at minimum)")
    space = maps[0].source
    maps = tuple(sorted(maps, key=lambda m: m.images))
    m = len(maps)
    position = {mp.images: k for k, mp in enumerate(maps)}
    identity_images = tuple(range(len(space)))
    if identity_images not in position:
        raise ValueError("map list must contain the identity")

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

    covers_above = space.cover_index.up
    for k, mp in enumerate(maps):
        images = mp.images
        for x, fx in enumerate(images):
            # f[x -> v] is continuous iff f(x) < v <= f(y) for each y covering x
            room = space.up_mask(fx) & ~(1 << fx)
            for y in covers_above[x]:
                room &= space.down_mask(images[y])
            for v in bits(room):
                step = position.get(images[:x] + (v,) + images[x + 1:])
                if step is None:
                    raise ValueError(_INCOMPLETE)
                union(k, step)

    # each class is named by its smallest member, which also represents it
    class_ids = tuple(find(k) for k in range(m))
    identity_class = class_ids[position[identity_images]]

    def compose(i: int, j: int) -> int:
        """The position of ``maps[i]`` after ``maps[j]``."""
        composed = position.get(tuple(maps[i].images[v] for v in maps[j].images))
        if composed is None:
            raise ValueError(_INCOMPLETE)
        return composed

    def is_unit(c: int) -> bool:
        """In a finite monoid an element is a unit iff one of its powers is 1."""
        seen = set()
        power = c
        while class_ids[power] not in seen:
            if class_ids[power] == identity_class:
                return True
            seen.add(class_ids[power])
            power = compose(c, power)
        return False

    eq_classes = [c for c in sorted(set(class_ids)) if is_unit(c)]
    slot = {c: k for k, c in enumerate(eq_classes)}
    equivalences = tuple(i for i in range(m) if class_ids[i] in slot)
    table = tuple(
        tuple(slot[class_ids[compose(a, b)]] for b in eq_classes) for a in eq_classes
    )
    group = FiniteGroup(tuple(f"c{c}" for c in eq_classes), table)
    return HomotopyClasses(maps, class_ids, equivalences, group)
