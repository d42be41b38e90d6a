from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetgroups import (
    AutomorphismGroup,
    Base,
    ConstructionError,
    FencePoint,
    FinitePoset,
    GadgetMode,
    SPoint,
    Star,
    TPoint,
    add_basepoint,
    attach_gadgets,
    build_base,
    build_space,
    builtin_group,
    collapse_map,
    expected_point_count,
    extension_restriction_check,
    left_translation,
    spec_for,
    standard_generator_labels,
)
from posetgroups import homotopy, labels, posets, spaces
from posetgroups.posets import Layout
from posetgroups.spaces import fence_sequence, translation_images

from conftest import fixture_space
from groups_oracle import generating_lists, permutation_groups
from homotopy_oracle import oracle_collapse_map, oracle_left_translation
from posets_oracle import drop_hasse_edge
from spaces_oracle import oracle_attach_gadgets
from test_posets import (
    assert_beat_points_match_masks,
    assert_closure_matches_the_oracle,
    assert_cover_adjacency_matches_scan,
    assert_order_matches_the_oracle,
    small_posets,
    snapshot,
)
from test_acceptance import ZOO
from test_search import built_space, permuted_copy, shuffled_built_spaces


# -- mode parsing ------------------------------------------------------------


def test_mode_parse_and_str():
    assert GadgetMode.parse("none") == GadgetMode("none")
    assert GadgetMode.parse("sonly") == GadgetMode("sonly")
    assert GadgetMode.parse("sandt") == GadgetMode("sandt", 1)
    assert GadgetMode.parse("sandt:4") == GadgetMode("sandt", 4)
    assert str(GadgetMode("sandt", 1)) == "sandt"
    assert str(GadgetMode("sandt", 3)) == "sandt:3"


def test_mode_rejects_bad_input():
    for text in ("sonly:2", "sandt:", "none:"):
        with pytest.raises(ConstructionError):
            GadgetMode.parse(text)
    with pytest.raises(ConstructionError):
        GadgetMode("sandt", 0)
    with pytest.raises(ConstructionError):
        GadgetMode("mystery")
    with pytest.raises(ConstructionError, match="fence size only applies to sandt mode"):
        GadgetMode("none", 2)


def test_points_per_site():
    assert GadgetMode("none").points_per_site == 0
    assert GadgetMode("sonly").points_per_site == 4
    assert GadgetMode("sandt", 1).points_per_site == 10
    assert GadgetMode("sandt", 3).points_per_site == 14


# -- base space --------------------------------------------------------------


def test_base_shape(c3_spec):
    base = build_base(c3_spec)
    assert len(base) == 9
    assert len(base.hasse) == 9
    assert set(base.labels) == {Base(g, lv) for g in range(3) for lv in range(-1, 2)}


def test_base_minimal_open_set(c3_spec):
    # Frozen: the open hull of (identity, level 1) is its own column plus
    # the level -1 point of the column shifted by the generator.
    base = build_base(c3_spec)
    got = {base.labels[i] for i in base.minimal_open_set(base.index_of(Base(0, 1)))}
    assert got == {Base(0, -1), Base(0, 0), Base(0, 1), Base(1, -1)}


def test_base_columns_are_chains(klein_spec):
    base = build_base(klein_spec)
    r = klein_spec.levels
    for g in range(4):
        for lo in range(-1, r + 1):
            for hi in range(lo, r + 1):
                assert base.leq(base.index_of(Base(g, lo)), base.index_of(Base(g, hi)))


def test_base_cross_covers(klein_spec):
    base = build_base(klein_spec)
    group = klein_spec.group
    a, b = klein_spec.gens
    # Column chains contribute (r+1) covers per element, the linking
    # relations one cover per generator per element; everything else is
    # transitively implied.
    assert len(base.hasse) == 4 * 3 + 4 * 2
    for g in range(4):
        first = base.index_of(Base(group.op(g, a), -1))
        second = base.index_of(Base(group.op(g, b), -1))
        assert (first, base.index_of(Base(g, 1))) in base.hasse
        assert (second, base.index_of(Base(g, 2))) in base.hasse
        # level-2 link through the first generator is implied, not a cover
        assert base.leq(first, base.index_of(Base(g, 2)))
        assert (first, base.index_of(Base(g, 2))) not in base.hasse


def test_point_count_formulas(c3_spec):
    assert expected_point_count(c3_spec) == 39
    for mode, expected in (("none", 9), ("sonly", 21), ("sandt:2", 45), ("sandt:3", 51)):
        spec = spec_for(c3_spec.group, ["a"], mode=mode)
        assert expected_point_count(spec) == expected
        assert len(build_space(spec)) == expected
    pointed = spec_for(c3_spec.group, ["a"], pointed=True)
    assert expected_point_count(pointed) == 40


def test_point_count_formula_two_generators(klein_spec):
    # n = 4, r = 2: base 16, plus 8 attachment sites of 10 points.
    assert expected_point_count(klein_spec) == 96
    assert len(build_space(klein_spec)) == 96


# -- attachments -------------------------------------------------------------


def test_four_point_attachment_relations():
    spec = spec_for(builtin_group("cyclic:2"), ["a"], mode="sonly")
    space = build_space(spec)
    for g in range(2):
        apex = space.index_of(Base(g, 0))
        pa, pb = space.index_of(SPoint("A", g, 0)), space.index_of(SPoint("B", g, 0))
        pc, pd = space.index_of(SPoint("C", g, 0)), space.index_of(SPoint("D", g, 0))
        assert {(pc, pa), (pd, pa), (pc, pb), (apex, pb), (pd, apex)} <= set(space.hasse)
        covers = space.cover_index
        assert not covers.up[pa] and not covers.up[pb]  # maximal
        assert not covers.down[pc] and not covers.down[pd]  # minimal


def test_fence_sequence_size_one_is_the_classic_order():
    assert fence_sequence(1) == [
        ("max", 1), ("min", 2), ("max", 3), ("min", 3), ("max", 2), ("min", 1),
    ]


def test_fence_sequence_size_two():
    assert fence_sequence(2) == [
        ("max", 1), ("min", 2), ("max", 3), ("min", 4),
        ("max", 4), ("min", 3), ("max", 2), ("min", 1),
    ]


@given(st.integers(min_value=1, max_value=9))
@settings(max_examples=9, deadline=None)
def test_fence_sequence_visits_everything_once(n):
    seq = fence_sequence(n)
    assert len(seq) == 2 * (n + 2)
    assert [role for role, _ in seq] == ["max", "min"] * (n + 2)
    assert sorted(i for role, i in seq if role == "max") == list(range(1, n + 3))
    assert sorted(i for role, i in seq if role == "min") == list(range(1, n + 3))


def test_six_point_attachment_relations():
    spec = spec_for(builtin_group("cyclic:2"), ["a"])
    space = build_space(spec)
    for g in range(2):
        apex = space.index_of(Base(g, 0))
        at = {kind: space.index_of(TPoint(kind, g, 0)) for kind in "EFGHIJ"}
        expected = {
            (apex, at["E"]), (at["I"], at["E"]), (at["I"], at["G"]),
            (at["J"], at["G"]), (at["J"], at["F"]), (at["H"], at["F"]),
            (at["H"], apex),
        }
        assert expected <= set(space.hasse)
        # the apex meets the fence in exactly one point above and one below
        fence_above = [j for j in space.cover_index.up[apex]
                       if isinstance(space.labels[j], TPoint)]
        fence_below = [j for j in space.cover_index.down[apex]
                       if isinstance(space.labels[j], TPoint)]
        assert (fence_above, fence_below) == ([at["E"]], [at["H"]])


def test_sized_fence_uses_structured_labels():
    spec = spec_for(builtin_group("cyclic:2"), ["a"], mode="sandt:3")
    space = build_space(spec)
    fence_points = [lab for lab in space.labels if isinstance(lab, FencePoint)]
    assert len(fence_points) == 2 * (2 * 3 + 4)
    assert not any(isinstance(lab, TPoint) for lab in space.labels)


def test_attach_gadgets_rejects_mode_none(c3_spec):
    from dataclasses import replace

    bare = replace(c3_spec, mode=GadgetMode("none"))
    with pytest.raises(ConstructionError, match="nothing to attach"):
        attach_gadgets(build_base(bare), bare)


def layout_slots(layout) -> tuple:
    """Every slot of a layout, to compare two layouts."""
    return tuple(getattr(layout, slot) for slot in Layout.__slots__)


def assert_attached_is_the_closed_one(base: FinitePoset, spec) -> None:
    """``attach_gadgets`` against the apex-by-apex relation list closed by
    ``from_relations``: every order tuple, the label index and every layout
    slot, with the column space left as it was."""
    before = snapshot(base)
    attached = attach_gadgets(base, spec)
    oracle = oracle_attach_gadgets(base, spec)
    assert snapshot(attached) == snapshot(oracle)
    assert layout_slots(attached.layout) == layout_slots(oracle.layout)
    assert snapshot(base) == before


@pytest.mark.parametrize("mode", ["sonly", "sandt", "sandt:2", "sandt:3"])
@pytest.mark.parametrize("group", ZOO)
def test_every_catalogue_gadget_space_is_the_closed_one(group, mode):
    spec = spec_for(builtin_group(group), standard_generator_labels(group), mode=mode)
    assert_attached_is_the_closed_one(build_base(spec), spec)


@settings(max_examples=10, deadline=None)
@given(permutation_groups(), st.sampled_from(["sonly", "sandt", "sandt:2"]), st.data())
def test_gadget_spaces_of_random_groups_are_the_closed_ones(group, mode, data):
    spec = spec_for(group, data.draw(generating_lists(group)), mode=mode)
    assert_attached_is_the_closed_one(build_base(spec), spec)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["cyclic:1", "cyclic:3", "klein4", "dihedral:3"]),
       st.sampled_from(["sonly", "sandt", "sandt:3"]), st.data())
def test_gadget_spaces_on_shuffled_column_spaces_are_the_closed_ones(group, mode, data):
    # the apexes are found by label, so a shuffled column space gets its
    # attachments where the oracle puts them
    spec = spec_for(builtin_group(group), standard_generator_labels(group), mode=mode)
    base = build_base(spec)
    shuffled = permuted_copy(base, data.draw(st.permutations(range(len(base)))))
    assert_attached_is_the_closed_one(shuffled, spec)


def test_a_gadget_space_reads_only_one_attachment_s_labels(monkeypatch):
    # The layout is handed over: only the one closed attachment's points
    # are split into site and role, never the whole space's.
    spec = spec_for(builtin_group("dihedral:3"), ["a", "b"], mode="sandt:2")
    base = build_base(spec)
    base.layout
    split = []
    real = labels.site_role

    def counted(label):
        split.append(label)
        return real(label)

    for module in (posets, spaces):
        monkeypatch.setattr(module, "site_role", counted)
    space = attach_gadgets(base, spec)
    assert space.layout is space.layout
    assert len(split) == spec.mode.points_per_site


# -- basepoint ---------------------------------------------------------------


def test_basepoint_covers_every_bottom_level_point(c3_spec):
    space = build_space(c3_spec)
    pointed = add_basepoint(space)
    star = pointed.index_of(Star())
    maximal = [i for i, above in enumerate(pointed.cover_index.up) if not above]
    assert maximal[-1] == star
    below = set(pointed.cover_index.down[star])
    assert below == {pointed.index_of(Base(g, -1)) for g in range(3)}
    with pytest.raises(ConstructionError, match="already"):
        add_basepoint(pointed)


def test_basepoint_needs_column_points():
    with pytest.raises(ConstructionError, match="level -1"):
        add_basepoint(fixture_space("crown"))


@pytest.mark.parametrize("mode", ["none", "sonly", "sandt", "sandt:2"])
@pytest.mark.parametrize("group", ["cyclic:3", "klein4", "dihedral:3"])
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_the_adjoined_basepoint_is_the_closed_one(group, mode, data):
    # ``from_relations`` closing the space plus the basepoint's covers is
    # the oracle, on the built space and on a shuffled copy
    space = built_space(group, mode)
    for copy in (space, permuted_copy(space, data.draw(st.permutations(range(len(space)))))):
        before = snapshot(copy)
        anchors = [i for i, lab in enumerate(copy.labels)
                   if isinstance(lab, Base) and lab.level == -1]
        oracle = FinitePoset.from_relations(
            copy.labels + (Star(),), copy.hasse + tuple((i, len(copy)) for i in anchors)
        )
        assert snapshot(add_basepoint(copy)) == snapshot(oracle)
        assert snapshot(copy) == before
    assert built_space(group, mode, pointed=True) == add_basepoint(space)


# -- collapse map ------------------------------------------------------------


def test_collapse_folds_onto_classic_fence(c3_spec):
    spec = spec_for(c3_spec.group, ["a"], mode="sandt:2")
    fold = collapse_map(spec)
    assert fold.is_surjective()
    assert len(fold.source) == 45 and len(fold.target) == 39
    src = fold.source
    # indices 1..3 keep their letter, the extra zigzag lands on G / J
    letter_of = {
        src.index_of(FencePoint("max", 4, 0, 0)): TPoint("G", 0, 0),
        src.index_of(FencePoint("min", 4, 0, 0)): TPoint("J", 0, 0),
        src.index_of(FencePoint("max", 1, 0, 0)): TPoint("E", 0, 0),
    }
    for i, expected in letter_of.items():
        assert fold.target.labels[fold(i)] == expected


def test_collapse_on_classic_space_is_identity(c3_spec):
    fold = collapse_map(c3_spec)
    assert fold.images == tuple(range(len(fold.source)))


def test_collapse_rejects_other_modes(c3_spec):
    spec = spec_for(c3_spec.group, ["a"], mode="sonly")
    with pytest.raises(ConstructionError, match="sandt"):
        collapse_map(spec)


# -- translations ------------------------------------------------------------


def test_translations_are_isomorphisms(klein_spec):
    space = build_space(klein_spec)
    group = klein_spec.group
    for g in range(group.order):
        t = left_translation(space, klein_spec, g)
        assert t.is_isomorphism()
        if g != group.identity:
            assert all(t(i) != i for i in range(len(space)))


def test_translations_compose_like_the_group(c3_spec):
    space = build_space(c3_spec)
    group = c3_spec.group
    for g in range(3):
        for h in range(3):
            lhs = left_translation(space, c3_spec, g).compose(
                left_translation(space, c3_spec, h)
            )
            rhs = left_translation(space, c3_spec, group.op(g, h))
            assert lhs.images == rhs.images


def test_translation_fixes_basepoint(c3_spec):
    from dataclasses import replace

    spec = replace(c3_spec, pointed=True)
    space = build_space(spec)
    star = space.index_of(Star())
    for g in range(3):
        assert left_translation(space, spec, g)(star) == star


# -- rigidity of the attachments ---------------------------------------------


def test_every_gadget_edge_is_load_bearing(c3_spec):
    """Deleting any single attachment cover produces a beat point.

    The intact space has none, so each of the 36 attachment edges is
    individually necessary for the space to be its own core.
    """
    space = build_space(c3_spec)
    assert space.beat_points() == []
    gadget_edges = [
        (a, b) for a, b in space.hasse
        if isinstance(space.labels[a], (SPoint, TPoint))
        or isinstance(space.labels[b], (SPoint, TPoint))
    ]
    assert len(gadget_edges) == 36
    for edge in gadget_edges:
        assert drop_hasse_edge(space, edge).beat_points(), edge


# -- the column space from its generating relations --------------------------


def all_pairs_base(spec) -> FinitePoset:
    """The column space from every pair of each column and every link
    ``(g·h_b, -1) < (g, c)`` with ``c >= b``."""
    n, r = spec.group.order, spec.levels
    labels = [Base(g, lv) for lv in range(-1, r + 1) for g in range(n)]

    def idx(g, lv):
        return (lv + 1) * n + g

    pairs = [(idx(g, lo), idx(g, hi))
             for g in range(n) for lo in range(-1, r + 1) for hi in range(lo + 1, r + 1)]
    for beta in range(1, r + 1):
        h = spec.gens[beta - 1]
        pairs += [(idx(spec.group.op(g, h), -1), idx(g, gamma))
                  for g in range(n) for gamma in range(beta, r + 1)]
    return FinitePoset.from_relations(labels, pairs)


@pytest.mark.parametrize("group, gens", [
    ("cyclic:1", []), ("cyclic:8", ["a"]), ("quaternion8", ["i", "j"]),
    ("dihedral:6", ["a", "b"]), ("symmetric:4", standard_generator_labels("symmetric:4")),
    ("cyclic:4", ["a2"]),
])
def test_column_space_from_its_covers_and_links_equals_the_all_pairs_space(group, gens):
    spec = spec_for(builtin_group(group), gens, require_generating=False)
    got, want = build_base(spec), all_pairs_base(spec)
    assert (got.labels, got.hasse) == (want.labels, want.hasse)
    points = range(len(got))
    assert [got.minimal_open_set(i) for i in points] == [want.minimal_open_set(i) for i in points]
    assert [got.closure(i) for i in points] == [want.closure(i) for i in points]


# -- layout maps against the label-by-label oracle ---------------------------


def test_a_site_move_keeps_the_basepoint_and_leaves_the_callers_rows_alone(c3_spec):
    space = build_space(replace(c3_spec, pointed=True))
    layout = space.layout
    rows = [0, 0, *list(layout.sites.values())[1:]]  # the first site has no image
    images = layout.gather(rows)
    assert rows == [0, 0, *list(layout.sites.values())[1:]]
    assert images[space.index_of(Star())] == space.index_of(Star())
    stranded = [i for i, s in enumerate(layout.site_of) if s == 1]
    assert stranded and [i for i, y in enumerate(images) if y is None] == stranded
    assert all(y == i for i, y in enumerate(images) if i not in stranded)


def test_the_maps_of_an_intact_built_space_build_no_label(d3_spec):
    # Once the layouts are built, translations and extensions read only
    # numbers, and a fold reads each role's fold once; labels word failures.
    base, full = build_base(d3_spec), build_space(d3_spec)
    pointed = build_space(replace(d3_spec, pointed=True))
    fence3 = build_space(replace(d3_spec, mode=GadgetMode("sandt", 3)))
    base_auts, full_auts = AutomorphismGroup.of(base), AutomorphismGroup.of(full)
    for space in (base, full, pointed, fence3):
        space.layout
    calls: dict = {}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as patch:
        for module in (posets, spaces, homotopy):
            for name in ("site_role", "label_at"):
                if hasattr(module, name):
                    patch.setattr(module, name, counted(name, getattr(labels, name)))
        for cls in (Base, SPoint, TPoint, FencePoint, Star):
            patch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
        for space in (base, full, pointed):
            for g in range(d3_spec.group.order):
                assert left_translation(space, d3_spec, g).images == translation_images(
                    space, d3_spec, g)
        assert extension_restriction_check(base, full, base_auts, full_auts).ok
        assert calls == {}
        fence_spec = replace(d3_spec, mode=GadgetMode("sandt", 3))
        fold = collapse_map(fence_spec, source=fence3, target=full)
    assert fold.is_surjective() and calls and max(calls.values()) <= len(fence3.layout.roles)


def perturbed_spaces(spec) -> dict:
    """The built space and copies broken in the ways a space file can be."""
    full = build_space(spec)
    apex = full.index_of(SPoint("A", 0, 0))
    drop = full.index_of(SPoint("A", 2, 0))
    cut = (full.index_of(SPoint("C", 1, 0)), full.index_of(SPoint("A", 1, 0)))
    labels, hasse = list(full.labels), list(full.hasse)
    return {
        "intact": full,
        "pointed": build_space(replace(spec, pointed=True)),
        "missing-point": full.induced([i for i in range(len(full)) if i != drop]),
        "plain-label": FinitePoset.from_relations(labels + ["loose"], hasse + [(apex, len(full))]),
        "orphan-attachment": FinitePoset.from_relations(labels + [SPoint("A", 9, 9)], hasse),
        "stray-column": FinitePoset.from_relations(labels + [Base(2, 7)], hasse),
        "rewired": FinitePoset.from_relations(labels, [e for e in hasse if e != cut]),
    }


def outcome(make):
    """``("ok", images)``, or the error's type name and text."""
    try:
        return "ok", make().images
    except Exception as exc:  # compared, type and text, with the oracle's
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", [
    "intact", "pointed", "missing-point", "plain-label", "orphan-attachment",
    "stray-column", "rewired",
])
def test_translations_and_folds_match_the_oracle_on_broken_spaces(d3_spec, name):
    space = perturbed_spaces(d3_spec)[name]
    for g in range(d3_spec.group.order):
        want = outcome(lambda: oracle_left_translation(space, d3_spec, g))
        assert outcome(lambda: left_translation(space, d3_spec, g)) == want
    fence3 = build_space(replace(d3_spec, mode=GadgetMode("sandt", 3)))
    for source, target in ((fence3, space), (space, space), (space, fence3)):
        want = outcome(lambda: oracle_collapse_map(d3_spec, source=source, target=target))
        assert outcome(lambda: collapse_map(d3_spec, source=source, target=target)) == want


@pytest.mark.parametrize("column", [-1, 9])
def test_a_site_off_the_group_columns_is_refused(c3_spec, column):
    # a column index past either end of the group's row is refused alike:
    # -1 must not wrap round the row to give a map that is no automorphism
    base = build_base(c3_spec)
    space = FinitePoset.from_relations(list(base.labels) + [Base(column, 0)], list(base.hasse))
    message = f"^site \\({column}, 0\\) is off the group's columns 0..2$"
    for g in range(3):
        with pytest.raises(ConstructionError, match=message):
            translation_images(space, c3_spec, g)
        with pytest.raises(ConstructionError, match=message):
            left_translation(space, c3_spec, g)
        with pytest.raises(ConstructionError, match=message):
            oracle_left_translation(space, c3_spec, g)


@pytest.mark.parametrize("group", ["cyclic:3", "klein4", "dihedral:3"])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_translations_and_folds_match_the_oracle_on_shuffled_spaces(group, data):
    spec = spec_for(builtin_group(group), standard_generator_labels(group), pointed=True)

    def shuffled(space):
        return permuted_copy(space, data.draw(st.permutations(range(len(space)))))

    space = shuffled(build_space(spec))
    for g in range(spec.group.order):
        got = left_translation(space, spec, g)
        assert got.images == oracle_left_translation(space, spec, g).images
    fence = data.draw(st.integers(min_value=1, max_value=4))
    spec_n = replace(spec, mode=GadgetMode("sandt", fence))
    source = shuffled(build_space(spec_n))
    got = collapse_map(spec_n, source=source, target=space)
    assert got.images == oracle_collapse_map(spec_n, source=source, target=space).images


@given(shuffled_built_spaces(modes=("none", "sonly", "sandt")))
@settings(max_examples=20, deadline=None)
def test_cover_adjacency_and_beat_points_on_shuffled_built_spaces(space):
    assert_cover_adjacency_matches_scan(space)
    assert_beat_points_match_masks(space)


@given(shuffled_built_spaces(modes=("none", "sonly", "sandt")),
       st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_from_relations_matches_the_cover_scan_oracle_on_shuffled_built_spaces(space, rng):
    assert_closure_matches_the_oracle(space, rng)


@given(st.one_of(small_posets(),
                 shuffled_built_spaces(modes=("sonly", "sandt", "sandt:2"), pointed=True)),
       st.data())
@settings(max_examples=60, deadline=None)
def test_stored_order_matches_the_oracle_on_small_and_shuffled_built_spaces(poset, data):
    keep = data.draw(st.sets(st.integers(0, len(poset) - 1))) if len(poset) else set()
    assert_order_matches_the_oracle(poset, keep)
