"""Point labels and their canonical string form.

Every point of a poset carries a hashable label.  The structured label
types below describe points of the group-realization spaces: base points
``(g, level)`` laid out in columns, the points of the two asymmetric
attachments glued onto a base point ("apex"), points of the sized cyclic
fence attachment, and the optional distinguished basepoint.  Arbitrary
posets just use plain strings.

``label_id`` / ``parse_label_id`` are inverse bijections; serialized
documents store labels through them, and round-trips are exact.
``site_role`` / ``label_at`` split a label into the column point it sits
at and its role there, and put the two back together; the maps of the
built spaces move sites and keep roles (see ``FinitePoset.layout``).
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


def label_id(label: Label) -> str:
    """Canonical, human-readable string form of a label."""
    if isinstance(label, Base):
        return f"base:g{label.g}:lv{label.level}"
    if isinstance(label, SPoint):
        return f"S:{label.kind}:base:g{label.g}:lv{label.level}"
    if isinstance(label, TPoint):
        return f"T:{label.kind}:base:g{label.g}:lv{label.level}"
    if isinstance(label, FencePoint):
        return f"Tn:{label.role}:{label.index}:base:g{label.g}:lv{label.level}"
    if isinstance(label, Star):
        return "star"
    if isinstance(label, str):
        if label == "star" or label.startswith(RESERVED_PREFIXES):
            raise ValueError(f"string label {label!r} collides with a reserved id")
        return label
    raise TypeError(f"not a label: {label!r}")


def _parse_base(parts: list[str]) -> tuple[int, int]:
    if len(parts) != 3 or parts[0] != "base":
        raise ValueError(f"bad base id segment: {':'.join(parts)!r}")
    if not (parts[1].startswith("g") and parts[2].startswith("lv")):
        raise ValueError(f"bad base id segment: {':'.join(parts)!r}")
    return int(parts[1][1:]), int(parts[2][2:])


def parse_label_id(text: str) -> Label:
    """Inverse of :func:`label_id`.

    Unreserved strings come back unchanged.
    """
    if text == "star":
        return Star()
    parts = text.split(":")
    if parts[0] == "base":
        g, lv = _parse_base(parts)
        return Base(g, lv)
    if parts[0] == "S" and len(parts) == 5:
        if parts[1] not in S_KINDS:
            raise ValueError(f"unknown kind in {text!r}")
        g, lv = _parse_base(parts[2:])
        return SPoint(parts[1], g, lv)
    if parts[0] == "T" and len(parts) == 5:
        if parts[1] not in T_KINDS:
            raise ValueError(f"unknown kind in {text!r}")
        g, lv = _parse_base(parts[2:])
        return TPoint(parts[1], g, lv)
    if parts[0] == "Tn" and len(parts) == 6:
        role, index = parts[1], int(parts[2])
        if role not in FENCE_ROLES:
            raise ValueError(f"unknown fence role in {text!r}")
        g, lv = _parse_base(parts[3:])
        return FencePoint(role, index, g, lv)
    if any(text.startswith(p) for p in RESERVED_PREFIXES):
        raise ValueError(f"malformed structured label id: {text!r}")
    return text


COLUMN = "base"  # the role of a column point, which is its own site
STAR = "star"


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
