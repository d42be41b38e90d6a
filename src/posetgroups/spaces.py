"""Posets whose automorphism group is a prescribed finite group.

Given a finite group ``G`` of order ``n`` with an ordered generating list
of length ``r``, the base space has one column of points
``(g, -1) < (g, 0) < ... < (g, r)`` per group element, linked by
``(g * gens[b-1], -1) < (g, b)`` for ``1 <= b <= r``.  Left translations
act on columns and are the only automorphisms.

To make the space rigid under *homotopy* equivalence as well, two
non-isomorphic one-point attachments are glued onto every column point at
levels ``0..r-1``: a four-point diamond-with-apex ("S", kinds A-D) and a
cyclic fence ("T", kinds E-J for the classic size, 2n+4 points for the
sized variant).  The asymmetry of the pair keeps attachment points
distinguishable from column points.  An optional extra maximum above all
level ``-1`` points ("star") pins the space for pointed checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import add, mul

from .errors import ConstructionError
from .groups import FiniteGroup, validate_generating_set
from .labels import Base, FencePoint, Label, SPoint, Star, TPoint, label_at, site_role
from .posets import FinitePoset, PosetMap


@dataclass(frozen=True)
class GadgetMode:
    """Which attachments to glue on: ``none``, ``sonly`` or ``sandt``.

    ``fence`` sizes the cyclic fence in ``sandt`` mode; size 1 is the
    classic six-point attachment.
    """

    kind: str
    fence: int = 1

    def __post_init__(self):
        if self.kind not in ("none", "sonly", "sandt"):
            raise ConstructionError(f"unknown gadget mode {self.kind!r}")
        if self.fence < 1:
            raise ConstructionError("fence size must be >= 1")
        if self.kind != "sandt" and self.fence != 1:
            raise ConstructionError("fence size only applies to sandt mode")

    @classmethod
    def parse(cls, text: str) -> "GadgetMode":
        """Parse ``none`` / ``sonly`` / ``sandt`` / ``sandt:N``."""
        kind, sep, param = text.partition(":")
        if sep and kind != "sandt":
            raise ConstructionError(f"mode {kind!r} takes no parameter")
        if sep and not param.isdecimal():
            raise ConstructionError(f"mode 'sandt' needs a fence size, e.g. sandt:2; got {param!r}")
        return cls(kind, int(param) if sep else 1)

    def __str__(self) -> str:
        if self.kind == "sandt" and self.fence != 1:
            return f"sandt:{self.fence}"
        return self.kind

    @property
    def points_per_site(self) -> int:
        if self.kind == "none":
            return 0
        if self.kind == "sonly":
            return 4
        return 4 + (2 * self.fence + 4)


@dataclass(frozen=True)
class ConstructionSpec:
    """Everything the builders need: group, ordered generators, options."""

    group: FiniteGroup
    gens: tuple[int, ...]
    mode: GadgetMode = field(default_factory=lambda: GadgetMode("sandt"))
    pointed: bool = False

    @property
    def levels(self) -> int:
        """Number of generators; column levels run -1..levels."""
        return len(self.gens)


def spec_for(
    group: FiniteGroup,
    gens,
    *,
    mode: GadgetMode | str = "sandt",
    pointed: bool = False,
    require_generating: bool = True,
) -> ConstructionSpec:
    """Validate inputs and assemble a :class:`ConstructionSpec`.

    ``require_generating=False`` deliberately lets a non-generating list
    through, for experiments on disconnected base spaces.
    """
    if isinstance(mode, str):
        mode = GadgetMode.parse(mode)
    resolved = validate_generating_set(group, gens, require_generating=require_generating)
    return ConstructionSpec(group, resolved, mode, pointed)


def expected_point_count(spec: ConstructionSpec) -> int:
    """Closed-form size of the full space, independent of the builders."""
    n, r = spec.group.order, spec.levels
    total = n * (r + 2) + n * r * spec.mode.points_per_site
    return total + 1 if spec.pointed else total


def build_base(spec: ConstructionSpec) -> FinitePoset:
    """The column space: ``n * (r + 2)`` points."""
    n, r = spec.group.order, spec.levels
    labels: list[Label] = [Base(g, lv) for lv in range(-1, r + 1) for g in range(n)]
    # (g, lv) is point (lv + 1) * n + g.  Each column is passed as its r+1
    # covers, and each generator h_b as one link (g·h_b, -1) < (g, b) per g.
    pairs = [(lv * n + g, (lv + 1) * n + g) for lv in range(r + 1) for g in range(n)]
    for b, h in enumerate(spec.gens, 1):
        pairs += [(row[h], (b + 1) * n + g) for g, row in enumerate(spec.group.cayley)]
    return FinitePoset.from_relations(labels, pairs)


def fence_sequence(n: int) -> list[tuple[str, int]]:
    """The cyclic visiting order of a size-``n`` fence, apex excluded.

    Alternates ``n + 2`` maxima with ``n + 2`` minima; the apex closes the
    cycle below the first maximum and above the last minimum.  Maxima are
    visited odd indices ascending then even indices descending; minima even
    ascending then odd descending — for ``n = 1`` this is exactly the
    classic six-point attachment.
    """
    count = n + 2
    max_order = [i for i in range(1, count + 1) if i % 2 == 1] + [
        i for i in range(count, 0, -1) if i % 2 == 0
    ]
    min_order = [i for i in range(1, count + 1) if i % 2 == 0] + [
        i for i in range(count, 0, -1) if i % 2 == 1
    ]
    seq: list[tuple[str, int]] = []
    for k in range(count):
        seq.append(("max", max_order[k]))
        seq.append(("min", min_order[k]))
    return seq

_FENCE_LETTER = {
    ("max", 1): "E", ("max", 2): "F", ("max", 3): "G",
    ("min", 1): "H", ("min", 2): "I", ("min", 3): "J",
}


def _fence_label(role: str, index: int, g: int, lv: int, fence: int) -> Label:
    if fence == 1:
        return TPoint(_FENCE_LETTER[(role, index)], g, lv)
    return FencePoint(role, index, g, lv)


def attach_gadgets(base: FinitePoset, spec: ConstructionSpec) -> FinitePoset:
    """Glue the attachments onto every column point at levels 0..r-1."""
    if spec.mode.kind == "none":
        raise ConstructionError("gadget mode is 'none': nothing to attach")
    n, r = spec.group.order, spec.levels
    fence = spec.mode.fence

    labels: list[Label] = list(base.labels)
    pairs: list[tuple[int, int]] = list(base.hasse)

    def add(label: Label) -> int:
        labels.append(label)
        return len(labels) - 1

    for g in range(n):
        for lv in range(r):
            apex = base.index_of(Base(g, lv))
            pt_a = add(SPoint("A", g, lv))
            pt_b = add(SPoint("B", g, lv))
            pt_c = add(SPoint("C", g, lv))
            pt_d = add(SPoint("D", g, lv))
            pairs += [(pt_c, pt_a), (pt_d, pt_a), (pt_c, pt_b),
                      (apex, pt_b), (pt_d, apex)]
            if spec.mode.kind != "sandt":
                continue
            maxima = {i: add(_fence_label("max", i, g, lv, fence))
                      for i in range(1, fence + 3)}
            minima = {i: add(_fence_label("min", i, g, lv, fence))
                      for i in range(1, fence + 3)}
            seq = fence_sequence(fence)
            cycle = [apex] + [
                maxima[i] if role == "max" else minima[i] for role, i in seq
            ]
            # Walk the cycle; even steps go up into a maximum, odd steps
            # drop down into the next minimum, and the final step climbs
            # from the last minimum back to the apex.
            for k, (here, there) in enumerate(zip(cycle, cycle[1:] + [apex])):
                pairs.append((here, there) if k % 2 == 0 else (there, here))
    return FinitePoset.from_relations(labels, pairs)


def add_basepoint(space: FinitePoset) -> FinitePoset:
    """Adjoin a single maximum covering every level ``-1`` column point.

    Any automorphism must fix it: it is the only point of its kind once
    the attachments break all other symmetry.  The point is adjoined to
    the already-validated ``space`` by :meth:`FinitePoset.adjoin_above`,
    which shares every down-set, every up-set but the anchors' and the
    label index with it, instead of closing the whole order again.
    """
    try:
        space.index_of(Star())
    except KeyError:
        pass
    else:
        raise ConstructionError("space already has a basepoint")
    anchors = [
        i for i, lab in enumerate(space.labels)
        if isinstance(lab, Base) and lab.level == -1
    ]
    if not anchors:
        raise ConstructionError("no level -1 points to hang the basepoint over")
    return space.adjoin_above(Star(), anchors)


def build_space(spec: ConstructionSpec) -> FinitePoset:
    """Base columns, then attachments, then the optional basepoint."""
    space = build_base(spec)
    if spec.mode.kind != "none":
        space = attach_gadgets(space, spec)
    if spec.pointed:
        space = add_basepoint(space)
    return space


def _collapse_label(label: Label) -> Label:
    """Project a sized-fence point onto the classic six-point attachment.

    Indices 1..3 keep their identity; the extra zigzag folds onto the
    third maximum/minimum.
    """
    if isinstance(label, FencePoint):
        index = label.index if label.index <= 3 else 3
        return TPoint(_FENCE_LETTER[(label.role, index)], label.g, label.level)
    return label


def collapse_map(
    spec: ConstructionSpec,
    *,
    source: FinitePoset | None = None,
    target: FinitePoset | None = None,
) -> PosetMap:
    """The fold from the sized-fence space onto the classic one.

    ``spec.mode`` must be ``sandt``; the target is the same spec with
    fence size 1.  Each point keeps its site and folds its role, one gather
    over site and role numbers.  Order preservation is re-validated by the
    map constructor, surjectivity by the caller if desired.
    """
    if spec.mode.kind != "sandt":
        raise ConstructionError("collapse is only defined for sandt spaces")
    if source is None:
        source = build_space(spec)
    if target is None:
        target = build_space(replace(spec, mode=GadgetMode("sandt", 1)))
    layout, onto = source.layout, target.layout
    rows = [0, *map(onto.sites.get, layout.sites, repeat(0))]
    # a role folds as its point at any one site does
    folded = (site_role(_collapse_label(label_at((0, 0), role)))[1] for role in layout.roles)
    cols = [0, *map(onto.roles.get, folded, repeat(0))]
    images = layout.gather(rows, cols, onto)
    if None in images:  # a plain label is not laid out: it is looked up, and a missing point raises
        images = tuple(target.index_of(_collapse_label(label)) if y is None else y
                       for y, label in zip(images, source.labels))
    return PosetMap(source, target, images)


def translation_images(space: FinitePoset, spec: ConstructionSpec, g: int) -> tuple:
    """Where left multiplication by ``g`` sends each point, unchecked.

    Each point moves its site ``(h, level)`` to ``(g·h, level)`` and keeps
    its role, one gather over site and role numbers; the basepoint stays.
    A point lands on None when the space lacks its moved pair, and a site
    off the group's columns raises :class:`ConstructionError`.
    """
    layout, row = space.layout, spec.group.cayley[g]
    if layout.columns and not (0 <= min(layout.columns) and max(layout.columns) < len(row)):
        site = next(site for site in layout.sites if not 0 <= site[0] < len(row))
        raise ConstructionError(f"site {site} is off the group's columns 0..{len(row) - 1}")
    scaled = list(map(mul, row, repeat(len(layout.sites) + 1)))  # the keys of ``cells``
    keys = map(add, map(scaled.__getitem__, layout.columns), layout.levels)
    return layout.gather([0, *map(layout.cells.get, keys, repeat(0))])


def left_translation(space: FinitePoset, spec: ConstructionSpec, g: int) -> PosetMap:
    """The automorphism that left-multiplies every column index by ``g``:
    :func:`translation_images`, validated as an order-preserving map."""
    images = translation_images(space, spec, g)
    if None in images:
        x = images.index(None)
        site, role = site_role(space.labels[x])
        if role is None:
            raise ConstructionError(f"unexpected label {space.labels[x]!r} in a built space")
        raise KeyError(label_at((spec.group.op(g, site[0]), site[1]), role))
    return PosetMap(space, space, images)
