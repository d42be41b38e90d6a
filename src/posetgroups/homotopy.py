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
from functools import cached_property
from operator import eq

from .errors import ConstructionError, MapError, SizeLimitExceeded
from .groups import FiniteGroup
from .labels import Base, Label, label_at, site_role
from .posets import FinitePoset, PosetMap, tuple_getter
from .search import DEFAULT_AUT_BUDGET, all_automorphisms, initial_colours

DEFAULT_MAP_BUDGET = 10**7
DEFAULT_MAP_POINTS = 8

_FLIP = {"down": "up", "up": "down"}
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

    One pass over the covers of the shrinking subspace: each point keeps
    its live lower and upper covers, and ``(i, kind)`` is a beat point when
    ``i`` has exactly one live cover of that kind, its partner.  A min-heap,
    started from :meth:`FinitePoset.beat_points`, holds the entries whose
    status may have changed, each tested when popped.  Removing a down beat
    point ``x`` with partner ``p`` makes ``(p, b)`` a cover for each upper
    cover ``b`` of ``x`` unless ``p`` lies below another lower cover of
    ``b``; only the lower covers of each ``b`` and the upper covers of ``p``
    change, so only those tests are pushed again.  An up beat point is the
    mirror image.  The core is built once, at the end, from the kept covers.
    """
    n = len(space)
    covers = space.cover_index
    adjacent = {"down": [list(c) for c in covers.down], "up": [list(c) for c in covers.up]}
    leq = space.leq
    alive = [True] * n
    heap = space.beat_points()  # sorted, so already a heap
    removed: list[tuple[int, str, int]] = []  # (point, kind, partner)
    while heap:
        x, kind = heappop(heap)
        toward, away = adjacent[kind], adjacent[_FLIP[kind]]
        if not alive[x] or len(toward[x]) != 1:
            continue
        p = toward[x][0]
        alive[x] = False
        removed.append((x, kind, p))
        away[p].remove(x)
        heappush(heap, (p, _FLIP[kind]))
        for b in away[x]:
            toward[b].remove(x)
            # is p below (down) or above (up) another cover of b?
            if not any(leq(p, c) if kind == "down" else leq(c, p) for c in toward[b]):
                toward[b].append(p)
                away[p].append(b)
            heappush(heap, (b, kind))

    keep = tuple(i for i in range(n) if alive[i])
    new_index = {old: new for new, old in enumerate(keep)}
    current = space
    if removed:
        current = FinitePoset.from_relations(
            [space.labels[i] for i in keep],
            [(new_index[a], new_index[b]) for a in keep for b in adjacent["up"][a]],
        )
    lands = list(range(n))  # the core point each point retracts onto
    for i, _, partner in reversed(removed):
        lands[i] = lands[partner]
    trace = tuple((space.labels[i], kind) for i, kind, _ in removed)
    retraction = PosetMap(space, current, tuple(new_index[lands[i]] for i in range(n)))
    return CoreResult(current, trace, retraction, PosetMap(current, space, keep))


# -- automorphism groups -----------------------------------------------------


@dataclass(frozen=True)
class AutomorphismGroup:
    """All self-homeomorphisms of a poset, with the search's ``base``, whose
    images tell the maps apart, and ``gens``, the positions of maps that
    generate them all."""

    space: FinitePoset
    maps: tuple[PosetMap, ...]
    base: tuple[int, ...]
    gens: tuple[int, ...]

    @classmethod
    def of(cls, space: FinitePoset, *, budget: int = DEFAULT_AUT_BUDGET):
        """Enumerate Aut(space), each map verified edge by edge."""
        found = all_automorphisms(space, budget=budget)
        return cls(space, tuple(found), found.base, found.gens)

    @classmethod
    def adjoined(cls, parent: "AutomorphismGroup", space: FinitePoset, *,
                 budget: int = DEFAULT_AUT_BUDGET):
        """Aut(space) for ``space`` = ``parent.space`` plus one point s, its last.

        Derived from ``parent`` when the covers of ``space`` are the
        parent's plus s's, s alone has its initial colour, and every parent
        map sends s's lower covers and its upper covers onto themselves.
        The colour is kept by every automorphism (McKay–Piperno), so each
        one fixes s and restricts to a map of the parent, and each parent
        map extends by fixing s: the maps are the parent's plus ``(s,)``,
        in the same order, with the same base and generators.  Each map's
        covers but s's were verified with its parent map, and s's are
        checked here.  In any other case the space is searched.
        """
        if not cls._fixes_the_adjoined_point(parent, space):
            return cls.of(space, budget=budget)
        s = (len(parent.space),)
        maps = tuple(PosetMap._trusted(space, space, m.images + s) for m in parent.maps)
        return cls(space, maps, parent.base, parent.gens)

    @staticmethod
    def _fixes_the_adjoined_point(parent: "AutomorphismGroup", space: FinitePoset) -> bool:
        """The three conditions under which :meth:`adjoined` derives its group."""
        old, s = parent.space, len(parent.space)
        if len(space) != s + 1 or space.labels[:s] != old.labels:
            return False
        covers = space.cover_index
        sides = [side for side in (covers.down[s], covers.up[s]) if side]
        if len(space.hasse) != len(old.hasse) + sum(map(len, sides)):
            return False
        if not covers.edges.issuperset(old.hasse):
            return False
        colours = initial_colours(space)
        if colours.count(colours[s]) != 1:
            return False
        # images of distinct points are distinct, so into a side is onto it
        checks = [(frozenset(side).issuperset, tuple_getter(side)) for side in sides]
        return all(holds(on_side(m.images)) for m in parent.maps for holds, on_side in checks)

    @cached_property
    def _position(self) -> dict[tuple[int, ...], int]:
        """Each map's position by its base images: two maps with one are not a group."""
        key = tuple_getter(self.base)
        position = {key(m.images): k for k, m in enumerate(self.maps)}
        if len(position) != len(self.maps):
            raise MapError("two maps agree on the base: the maps are not a group")
        return position

    def column(self, j: int) -> tuple[int, ...]:
        """The position of ``maps[i] ∘ maps[j]`` for every ``i``: each product
        is composed on the base and looked up by its key, so none is
        validated again, and a product missing from the maps raises."""
        on_inner = tuple_getter([self.maps[j].images[b] for b in self.base])
        column = tuple(map(self._position.get, map(on_inner, [m.images for m in self.maps])))
        if None in column:
            raise MapError("a product of automorphisms is missing from the enumerated set")
        return column

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """``table[i][j]`` = maps[i] ∘ maps[j]: the columns, transposed."""
        return tuple(zip(*map(self.column, range(self.order))))

    def index(self, images: tuple[int, ...]) -> int | None:
        """Position of the map with these images, or ``None``: by base key, then in full."""
        k = self._position.get(tuple_getter(self.base)(images))
        return k if k is not None and self.maps[k].images == images else None

    @property
    def order(self) -> int:
        return len(self.maps)

    def identity_index(self) -> int:
        return self.index(tuple(range(len(self.space))))

    def acts_freely(self) -> bool:
        """No non-identity element fixes any point (empty spaces count)."""
        points = range(len(self.space))
        identity = tuple(points)
        return not any(
            any(map(eq, m.images, points)) for m in self.maps if m.images != identity
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


def extension_restriction_check(
    base: FinitePoset,
    full: FinitePoset,
    base_group: AutomorphismGroup,
    full_group: AutomorphismGroup,
) -> ExtensionCheck:
    """Verify automorphisms of ``full`` are exactly the natural extensions
    of automorphisms of ``base``.

    Three layers, each reported on failure: every automorphism of the full
    space maps base points to base points; restriction lands bijectively in
    the automorphisms of the base; and the canonical extension (transport
    each attachment to the image site) inverts restriction.  An extension
    is one gather: each point of ``full`` keeps its role at the moved site
    (the basepoint stays), through two lists made once, each base point's
    row and the base point at each site; labels only word a failure.  An
    extension found among the edge-verified automorphisms of ``full`` needs
    no order check of its own.  ``base`` must be a column space: any other
    point raises :class:`ConstructionError` before any work.
    """
    stray = [lab for lab in base.labels if not isinstance(lab, Base)]
    if stray:
        raise ConstructionError(f"the base is not a column space: {stray[0]!r} is in it")
    failures: list[str] = []
    base_positions = [full.index_of(lab) for lab in base.labels]
    back = {full_idx: base_idx for base_idx, full_idx in enumerate(base_positions)}
    on_base = tuple_getter(base_positions)

    restrictions = [tuple(map(back.get, on_base(m.images))) for m in full_group.maps]
    for k, restricted in enumerate(restrictions):
        if None in restricted:
            failures.append(f"full automorphism {k} moves a column point off the columns")

    kept = [base_group.index(r) for r in restrictions if None not in r]
    missing = kept.count(None)
    failures += ["a restriction is not an automorphism of the base"] * missing
    # In a group, two equal restrictions give the identity's restriction twice.
    if len(set(kept) - {None}) != len(kept) - missing:
        failures.append("two full automorphisms restrict to the same base map")

    layout, off = full.layout, len(base)
    rows = [*(layout.site_of[p] * layout.width for p in base_positions), 0]  # 0 for ``off``
    at = [off] * (len(layout.sites) + 1)
    for b, p in enumerate(base_positions):
        at[layout.site_of[p]] = b
    extended = 0
    for k, m in enumerate(base_group.maps):
        lifted = layout.gather([*map(rows.__getitem__, map((*m.images, off).__getitem__, at))])
        try:
            if None in lifted:
                x = lifted.index(None)
                site, role = site_role(full.labels[x])
                if role is None:
                    raise MapError(f"unexpected label {full.labels[x]!r}")
                b = at[layout.site_of[x]]  # the base point under x, if any
                raise KeyError(label_at(site_role(base.labels[m.images[b]])[0], role)
                               if b < off else site)
            j = full_group.index(lifted)
            if j is None:
                PosetMap(full, full, lifted)  # words an order failure, if there is one
                failures.append(f"extension of base automorphism {k} is not an automorphism")
                continue
        except (MapError, KeyError) as exc:
            failures.append(f"base automorphism {k} does not extend: {exc}")
            continue
        extended += 1
        if restrictions[j] != m.images:
            failures.append(f"restriction does not invert extension for map {k}")

    if len(kept) != extended or full_group.order != base_group.order:
        failures.append(
            f"automorphism counts differ: base {base_group.order}, full {full_group.order}"
        )

    return ExtensionCheck(
        ok=not failures,
        failures=tuple(failures),
        base_order=base_group.order,
        full_order=full_group.order,
    )


# -- continuous self-maps and fence homotopy ---------------------------------


def _bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _order_masks(space: FinitePoset) -> tuple[list[int], list[int]]:
    """Each point's down-set and up-set as bitmasks, for the self-map
    searches alone: one pass up the covers in order of down-set size, which
    is topological, ORs in the lower covers' masks, and one pass back the
    upper covers'."""
    covers = space.cover_index
    down, up = [0] * len(space), [0] * len(space)
    order = sorted(range(len(space)), key=space.set_sizes[0].__getitem__)
    for masks, adjacent, points in ((down, covers.down, order), (up, covers.up, reversed(order))):
        for i in points:
            acc = 1 << i
            for j in adjacent[i]:
                acc |= masks[j]
            masks[i] = acc
    return down, up


def _enumerate_maps(
    space: FinitePoset, budget: int, layer: str, *, retractions: bool = False
) -> list[tuple[int, ...]]:
    """All order-preserving self-maps, or with ``retractions`` the
    idempotent ones that send each point to a comparable one.

    Backtracking with forward checking over the covers: assigning
    ``x -> v`` intersects the candidates of each unassigned upper cover of
    ``x`` with the up-set of ``v`` and of each lower one with its down-set.
    Each cover is narrowed when its first end is assigned, and a map that
    preserves every cover preserves order, so the check is exact.  The
    next point to assign is always one with the fewest candidates left.
    With ``retractions`` each point starts with the points comparable to it
    as candidates, and the image point of each assignment is additionally
    pinned to itself, which is what makes retraction searches tractable.

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
    covers = space.cover_index
    down_masks, up_masks = _order_masks(space)
    # each point's covers, with the masks of the sets their images must stay in
    neighbours = [[(y, up_masks) for y in up] + [(y, down_masks) for y in down]
                  for up, down in zip(covers.up, covers.down)]
    masks = [d | u for d, u in zip(down_masks, up_masks)] if retractions else [(1 << n) - 1] * n
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
        for i in _bits(unassigned):
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
        if retractions and cand != point:  # image points must stay fixed
            fixed = narrow(cand, 1 << cand) if remaining >> cand & 1 else images[cand] == cand
            if not fixed:
                continue
        for y, within in neighbours[point]:
            if remaining >> y & 1 and not narrow(y, within[cand]):
                break
        else:
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
    found = _enumerate_maps(space, budget, layer)
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
    found = _enumerate_maps(space, budget, layer, retractions=True)
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
    down_masks, up_masks = _order_masks(space)
    for k, mp in enumerate(maps):
        images = mp.images
        for x, fx in enumerate(images):
            # f[x -> v] is continuous iff f(x) < v <= f(y) for each y covering x
            room = up_masks[fx] & ~(1 << fx)
            for y in covers_above[x]:
                room &= down_masks[images[y]]
            for v in _bits(room):
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
