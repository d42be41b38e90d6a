"""JSON documents for posets and groups, and DOT export.

A poset document is ``{"points": [...ids...], "hasse": [[lo, hi], ...]}``
with points as canonical label ids (see :mod:`posetgroups.labels`) and
edges referring to those ids.  Round-trips are exact: loading checks that
the edge list is a genuine transitive reduction.

A group document is ``{"order": n, "identity": e, "labels": [...],
"cayley": [[...], ...]}`` and is validated on load like any other table.
"""

from __future__ import annotations

import json

from .errors import PosetError
from .groups import FiniteGroup
from .labels import Base, label_id, parse_label_id
from .posets import FinitePoset


def poset_to_doc(space: FinitePoset) -> dict:
    ids = [label_id(lab) for lab in space.labels]
    return {
        "points": ids,
        "hasse": [[ids[a], ids[b]] for a, b in space.hasse],
    }


def poset_from_doc(doc: dict) -> FinitePoset:
    try:
        points = list(doc["points"])
        edges = list(doc["hasse"])
    except (KeyError, TypeError) as exc:
        raise PosetError(f"malformed poset document: {exc}") from None
    if not all(isinstance(p, str) for p in points):
        raise PosetError("point ids must be strings")
    labels = [parse_label_id(p) for p in points]
    position = {p: i for i, p in enumerate(points)}
    if len(position) != len(points):
        raise PosetError("duplicate point ids")
    pairs = []
    for lo, hi in edges:
        if lo not in position or hi not in position:
            raise PosetError(f"edge ({lo!r}, {hi!r}) references unknown points")
        pairs.append((position[lo], position[hi]))
    return FinitePoset.from_hasse(labels, pairs)


def poset_to_json(space: FinitePoset) -> str:
    return json.dumps(poset_to_doc(space), indent=2) + "\n"


def poset_from_json(text: str) -> FinitePoset:
    return poset_from_doc(json.loads(text))


def group_to_doc(group: FiniteGroup) -> dict:
    return {
        "order": group.order,
        "identity": group.identity,
        "labels": list(group.labels),
        "cayley": [list(row) for row in group.cayley],
    }


def group_from_doc(doc: dict) -> FiniteGroup:
    group = FiniteGroup(tuple(doc["labels"]), tuple(tuple(r) for r in doc["cayley"]))
    if "order" in doc and doc["order"] != group.order:
        raise ValueError("declared order does not match the table")
    if "identity" in doc and doc["identity"] != group.identity:
        raise ValueError("declared identity does not match the table")
    return group


def group_from_json(text: str) -> FiniteGroup:
    return group_from_doc(json.loads(text))


def export_dot(space: FinitePoset) -> str:
    """Graphviz source for the covering diagram, drawn upward.

    Column points of built spaces share a rank per level so the group
    columns line up; everything else ranks freely.
    """
    ids = [label_id(lab) for lab in space.labels]
    lines = [
        "digraph poset {",
        "  rankdir=BT;",
        "  node [shape=box, fontsize=10];",
    ]
    for i in sorted(range(len(space)), key=lambda k: ids[k]):
        lines.append(f'  "{ids[i]}";')
    levels: dict[int, list[str]] = {}
    for i, lab in enumerate(space.labels):
        if isinstance(lab, Base):
            levels.setdefault(lab.level, []).append(ids[i])
    for level in sorted(levels):
        members = " ".join(f'"{p}";' for p in sorted(levels[level]))
        lines.append(f"  {{ rank=same; {members} }}")
    for a, b in space.hasse:
        lines.append(f'  "{ids[a]}" -> "{ids[b]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
