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

from .errors import GroupError, PosetError
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
        points, edges = doc["points"], doc["hasse"]
    except (KeyError, TypeError) as exc:
        raise PosetError(f"malformed poset document: {exc}") from None
    if not (isinstance(points, list) and isinstance(edges, list)):
        raise PosetError('malformed poset document: "points" and "hasse" must be arrays')
    if not all(isinstance(p, str) for p in points):
        raise PosetError("point ids must be strings")
    labels = [parse_label_id(p) for p in points]
    position = {p: i for i, p in enumerate(points)}
    if len(position) != len(points):
        raise PosetError("duplicate point ids")
    pairs = []
    for k, edge in enumerate(edges):
        if not (isinstance(edge, list) and len(edge) == 2):
            raise PosetError(f"hasse edge {k} must be a [lower, upper] pair, not {edge!r}")
        lo, hi = edge
        if not all(isinstance(p, str) and p in position for p in edge):
            raise PosetError(f"hasse edge {k} ({lo!r}, {hi!r}) references unknown points")
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
    if not isinstance(doc, dict):
        raise GroupError("malformed group document: expected a JSON object")
    labels, cayley = doc.get("labels"), doc.get("cayley")
    if not (isinstance(labels, list) and all(isinstance(lab, str) for lab in labels)):
        raise GroupError('malformed group document: "labels" must be an array of strings')
    if not (
        isinstance(cayley, list)
        # JSON booleans load as bool, an int subclass: exact type only
        and all(isinstance(row, list) and all(type(v) is int for v in row) for row in cayley)
    ):
        raise GroupError(
            'malformed group document: "cayley" must be an array of arrays of integers'
        )
    group = FiniteGroup(tuple(labels), tuple(map(tuple, cayley)))
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
