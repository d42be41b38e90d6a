"""Point labels and their canonical string form.

Every point of a poset carries a hashable label.  The structured label
types below describe points of the group-realization spaces: base points
``(g, level)`` laid out in columns, the points of the two asymmetric
attachments glued onto a base point ("apex"), points of the sized cyclic
fence attachment, and the optional distinguished basepoint.  Arbitrary
posets just use plain strings.

``site_role`` / ``label_at`` split a label into the column point it sits
at and its role there, and put the two back together.  The layout numbers
both, so the built spaces' maps build labels only to word a failure.
``label_id`` / ``parse_label_id`` are inverse bijections written over
them: an id is a label's role followed by its site.  Serialized documents
store labels through them, and round-trips are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

S_KINDS = ("A", "B", "C", "D")
T_KINDS = ("E", "F", "G", "H", "I", "J")
FENCE_ROLES = ("max", "min")

# "star" plus these prefixes are reserved by the structured labels.
RESERVED_PREFIXES = ("base:", "S:", "T:", "Tn:")


@dataclass(frozen=True)
class Base:
    """Column point: ``g`` is a group-element index, ``level`` runs -1..r."""

    g: int
    level: int


@dataclass(frozen=True)
class SPoint:
    """Point of the four-point attachment at apex ``(g, level)``; kind A-D."""

    kind: str
    g: int
    level: int


@dataclass(frozen=True)
class TPoint:
    """Point of the six-point attachment at apex ``(g, level)``; kind E-J."""

    kind: str
    g: int
    level: int


@dataclass(frozen=True)
class FencePoint:
    """Point of the size-``n`` cyclic fence attachment.

    ``role`` is "max" or "min"; ``index`` runs 1..n+2.  The size-1 fence is
    never labelled this way: it is normalized to the classic E-J letters.
    """

    role: str
    index: int
    g: int
    level: int


@dataclass(frozen=True)
class Star:
    """The distinguished basepoint sitting above every level -1 point."""


# Hand-built posets label points with plain strings; anything outside the
# reserved ids above is fine.
Label = Base | SPoint | TPoint | FencePoint | Star | str


COLUMN = "base"  # the role of a column point, which is its own site
STAR = "star"
# By the first segment of a structured id: how many segments its role has
# before the site, and what its second segment may name.
_ROLES = {COLUMN: (0, ()), "S": (2, S_KINDS), "T": (2, T_KINDS), "Tn": (3, FENCE_ROLES)}


def site_role(label: Label) -> tuple:
    """``(site, role)``: the column point ``(g, level)`` a label sits at, and its role.

    Roles are strings: ``"base"`` for the column point itself, ``"S:A"``,
    ``"T:E"`` and ``"Tn:max:3"`` for attachment points.  The basepoint is
    ``(None, "star")``; any other label ``x`` is ``(x, None)``, so no two
    labels share a pair.
    """
    if isinstance(label, Base):
        return (label.g, label.level), COLUMN
    if isinstance(label, SPoint):
        return (label.g, label.level), f"S:{label.kind}"
    if isinstance(label, TPoint):
        return (label.g, label.level), f"T:{label.kind}"
    if isinstance(label, FencePoint):
        return (label.g, label.level), f"Tn:{label.role}:{label.index}"
    if isinstance(label, Star):
        return None, STAR
    return label, None


def label_at(site, role: str | None) -> Label:
    """Inverse of :func:`site_role`."""
    if role is None:
        return site
    if role == STAR:
        return Star()
    if role == COLUMN:
        return Base(*site)
    kind, _, rest = role.partition(":")
    if kind == "S":
        return SPoint(rest, *site)
    if kind == "T":
        return TPoint(rest, *site)
    fence_role, _, index = rest.partition(":")
    return FencePoint(fence_role, int(index), *site)


def label_id(label: Label) -> str:
    """Canonical, human-readable string form of a label: its role, then its site.

    A site ``(g, level)`` reads ``base:g<g>:lv<level>``, the id of its
    column point, and any other point there prefixes its role.
    """
    site, role = site_role(label)
    if role is None:
        if not isinstance(label, str):
            raise TypeError(f"not a label: {label!r}")
        if label == STAR or label.startswith(RESERVED_PREFIXES):
            raise ValueError(f"string label {label!r} collides with a reserved id")
        return label
    if role == STAR:
        return STAR
    site_id = "base:g{}:lv{}".format(*site)
    return site_id if role == COLUMN else f"{role}:{site_id}"


def _parse_site(parts: list[str]) -> tuple[int, int]:
    if (len(parts) != 3 or parts[0] != "base"
            or not (parts[1].startswith("g") and parts[2].startswith("lv"))):
        raise ValueError(f"bad base id segment: {':'.join(parts)!r}")
    return int(parts[1][1:]), int(parts[2][2:])


def parse_label_id(text: str) -> Label:
    """Inverse of :func:`label_id`.

    Unreserved strings, ``base`` among them, come back unchanged.  A
    structured id is accepted only in its canonical form, the one
    :func:`label_id` writes, so ``base:g01:lv0`` is refused.
    """
    if text == STAR:
        return Star()
    parts = text.split(":")
    if parts[0] not in _ROLES or len(parts) == 1:
        return text
    width, kinds = _ROLES[parts[0]]
    role = COLUMN
    if width:
        if len(parts) != width + 3:
            raise ValueError(f"malformed structured label id: {text!r}")
        family, kind = parts[0], parts[1]
        # A fence id's index is parsed first: a bad index is reported before a bad role.
        role = f"Tn:{kind}:{int(parts[2])}" if family == "Tn" else f"{family}:{kind}"
        if kind not in kinds:
            raise ValueError(f"unknown {'fence role' if family == 'Tn' else 'kind'} in {text!r}")
    label = label_at(_parse_site(parts[width:]), role)
    if label_id(label) != text:
        raise ValueError(f"non-canonical label id {text!r}; write it {label_id(label)!r}")
    return label
