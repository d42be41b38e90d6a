import pytest

from posetgroups import (
    Base,
    FencePoint,
    GroupError,
    PosetError,
    SPoint,
    Star,
    TPoint,
    build_space,
    builtin_group,
    dihedral,
    export_dot,
    group_from_json,
    group_to_doc,
    label_id,
    parse_label_id,
    poset_from_json,
    poset_to_doc,
    poset_to_json,
    spec_for,
)
from posetgroups.serialize import group_from_doc, poset_from_doc

from conftest import fixture_space


# -- label ids -----------------------------------------------------------------


def test_label_id_roundtrip_on_every_label_kind():
    spec = spec_for(builtin_group("cyclic:2"), ["a"], mode="sandt:2", pointed=True)
    space = build_space(spec)
    kinds = {type(lab) for lab in space.labels}
    assert kinds == {Base, SPoint, FencePoint, Star}
    for lab in space.labels:
        assert parse_label_id(label_id(lab)) == lab
    classic = build_space(spec_for(builtin_group("cyclic:2"), ["a"]))
    assert TPoint in {type(lab) for lab in classic.labels}
    for lab in classic.labels:
        assert parse_label_id(label_id(lab)) == lab


def test_plain_string_labels_pass_through():
    assert label_id("hello") == "hello"
    assert parse_label_id("hello") == "hello"


def test_reserved_ids_are_protected():
    with pytest.raises(ValueError, match="reserved"):
        label_id("star")
    with pytest.raises(ValueError, match="reserved"):
        label_id("base:g0:lv0")
    with pytest.raises(ValueError, match="malformed"):
        parse_label_id("S:nope")
    with pytest.raises(ValueError, match="unknown kind"):
        parse_label_id("T:Z:base:g0:lv0")


# -- poset documents -----------------------------------------------------------


def test_poset_roundtrip_plain(pentad):
    assert poset_from_json(poset_to_json(pentad)) == pentad


def test_poset_roundtrip_structured(c3_spec):
    space = build_space(c3_spec)
    assert poset_from_json(poset_to_json(space)) == space


def test_poset_doc_shape(crown):
    doc = poset_to_doc(crown)
    assert doc["points"] == ["p", "q", "u", "v"]
    assert ["p", "u"] in doc["hasse"]


def test_poset_doc_rejects_bad_input():
    with pytest.raises(PosetError, match="malformed"):
        poset_from_doc({"points": ["a"]})
    with pytest.raises(PosetError, match="unknown points"):
        poset_from_doc({"points": ["a", "b"], "hasse": [["a", "z"]]})
    with pytest.raises(PosetError, match="duplicate"):
        poset_from_doc({"points": ["a", "a"], "hasse": []})
    # hasse lists must be genuine cover relations, not arbitrary order pairs
    with pytest.raises(PosetError, match="transitive reduction"):
        poset_from_doc(
            {
                "points": ["a", "b", "c"],
                "hasse": [["a", "b"], ["b", "c"], ["a", "c"]],
            }
        )


def test_poset_doc_rejects_non_string_ids():
    with pytest.raises(PosetError, match="strings"):
        poset_from_doc({"points": [[1]], "hasse": []})
    with pytest.raises(PosetError, match="strings"):
        poset_from_doc({"points": [1, 2], "hasse": [[1, 2]]})


# -- group documents -----------------------------------------------------------


def test_group_roundtrip():
    d4 = dihedral(4)
    doc = group_to_doc(d4)
    again = group_from_doc(doc)
    assert again.labels == d4.labels
    assert again.cayley == d4.cayley
    assert doc["order"] == 8 and doc["identity"] == d4.identity


def test_group_doc_cross_checks():
    doc = group_to_doc(dihedral(3))
    doc["order"] = 7
    with pytest.raises(ValueError, match="order"):
        group_from_doc(doc)
    doc = group_to_doc(dihedral(3))
    doc["identity"] = 3
    with pytest.raises(ValueError, match="identity"):
        group_from_doc(doc)


def test_group_json_validates_table():
    with pytest.raises(GroupError, match="associativity|identity|inverse"):
        group_from_json('{"labels": ["e", "x"], "cayley": [[0, 1], [1, 1]]}')


# -- DOT export ----------------------------------------------------------------


def test_export_dot_structure(c3_spec):
    space = build_space(c3_spec)
    dot = export_dot(space)
    assert dot.startswith("digraph poset {")
    assert dot.rstrip().endswith("}")
    assert '"base:g0:lv-1" -> "base:g0:lv0";' in dot
    # one rank group per column level
    assert dot.count("rank=same") == 3
    assert export_dot(space) == dot  # deterministic


def test_export_dot_plain_labels():
    dot = export_dot(fixture_space("vee"))
    assert '"bot" -> "l";' in dot
    assert "rank=same" not in dot
