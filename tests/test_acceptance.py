"""Acceptance gate: the headline guarantees of the package, one per test.

Each test records a single ``[PASS]``/``[FAIL]`` line and then asserts on it.
A summary hook in ``conftest.py`` replays the recorded lines after the run,
so the terminal always ends with one line per guarantee, and a red run names
exactly which one broke and with what values.
"""

from __future__ import annotations

import time

from posetgroups import (
    AutomorphismGroup,
    FinitePoset,
    SPoint,
    Star,
    VerifyOptions,
    build_base,
    build_space,
    builtin_group,
    collapse_map,
    core,
    cycle_basis,
    enumerate_selfmaps,
    extension_restriction_check,
    find_isomorphism,
    h1_action_matrix,
    homology_summary,
    homotopy_classes,
    order_complex,
    spec_for,
    standard_generator_labels,
    verify_all,
)

from conftest import fixture_space
from groups_oracle import groups_isomorphic
from homotopy_oracle import automorphism_group
from posets_oracle import drop_hasse_edge

ZOO = (
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "cyclic:5",
    "klein4",
    "symmetric:3",
    "dihedral:4",
    "quaternion8",
)


RESULTS: list[str] = []


def zoo_spec(name: str, **kwargs):
    return spec_for(builtin_group(name), standard_generator_labels(name), **kwargs)


def emit(problems: list[str], label: str, detail: str) -> None:
    ok = not problems
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail if ok else '; '.join(problems)}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def test_a01_symmetries_realize_each_catalog_group():
    problems: list[str] = []
    start = time.perf_counter()
    for name in ZOO:
        spec = zoo_spec(name)
        auts = AutomorphismGroup.of(build_base(spec))
        if auts.order != spec.group.order:
            problems.append(f"{name}: {auts.order} automorphisms != {spec.group.order}")
        elif not groups_isomorphic(automorphism_group(auts), spec.group):
            problems.append(f"{name}: symmetry group not isomorphic to the input")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s, bound is 10s")
    emit(problems, "catalog realization",
         f"8 groups realized exactly in {elapsed:.2f}s")


def test_a02_point_count_formulas():
    problems: list[str] = []
    for name in ZOO:
        spec = zoo_spec(name)
        n, r = spec.group.order, len(spec.gens)
        base, full = build_base(spec), build_space(spec)
        if len(base) != n * (r + 2):
            problems.append(f"{name}: column space has {len(base)} points")
        if len(full) != n * (r + 2) + 10 * n * r:
            problems.append(f"{name}: attached space has {len(full)} points")
    emit(problems, "point-count formulas",
         "column and attached sizes match the closed forms for all 8 entries")


def test_a03_no_beat_points_and_every_asymmetry_edge_matters():
    problems: list[str] = []
    for name in ZOO:
        beats = build_space(zoo_spec(name)).beat_points()
        if beats:
            problems.append(f"{name}: {len(beats)} beat points in the attached space")
    space = build_space(zoo_spec("cyclic:3"))
    s_edges = [
        (a, b)
        for a, b in space.hasse
        if isinstance(space.labels[a], SPoint) or isinstance(space.labels[b], SPoint)
    ]
    if len(s_edges) != 15:
        problems.append(f"expected 15 four-point-gadget edges, found {len(s_edges)}")
    intact = sum(1 for e in s_edges if not drop_hasse_edge(space, e).beat_points())
    if intact:
        problems.append(f"{intact} gadget edges can be dropped without creating a beat point")
    emit(problems, "rigidity",
         "no beat points anywhere; removing any of the 15 gadget edges breaks rigidity")


def test_a04_restriction_is_a_bijection():
    problems: list[str] = []
    for name in ("cyclic:3", "dihedral:4"):
        spec = zoo_spec(name)
        base, full = build_base(spec), build_space(spec)
        check = extension_restriction_check(
            base, full, AutomorphismGroup.of(base), AutomorphismGroup.of(full)
        )
        if not check.ok:
            problems.append(f"{name}: {'; '.join(check.failures)}")
        elif check.base_order != check.full_order:
            problems.append(
                f"{name}: {check.base_order} column maps vs {check.full_order} full maps"
            )
    emit(problems, "restriction bijection",
         "full-space symmetries restrict bijectively onto column symmetries")


def test_a05_basepoint_pins_every_symmetry():
    problems: list[str] = []
    for name in ("cyclic:3", "dihedral:4"):
        spec = zoo_spec(name, pointed=True)
        pointed = build_space(spec)
        auts = AutomorphismGroup.of(pointed)
        star = pointed.index_of(Star())
        moved = [m for m in auts.maps if m.images[star] != star]
        if moved:
            problems.append(f"{name}: {len(moved)} maps move the basepoint")
        if auts.order != spec.group.order:
            problems.append(f"{name}: pointed space has {auts.order} automorphisms")
    emit(problems, "pointed rigidity",
         "the added maximum is fixed and the symmetry count is unchanged")


def test_a06_circle_count_prediction():
    problems: list[str] = []
    d4_elapsed = 0.0
    for name in ZOO:
        spec = zoo_spec(name)
        n, r = spec.group.order, len(spec.gens)
        start = time.perf_counter()
        hs = homology_summary(order_complex(build_space(spec)))
        elapsed = time.perf_counter() - start
        if name == "dihedral:4":
            d4_elapsed = elapsed
        if (hs.b0, hs.b1, hs.h1_torsion) != (1, 3 * n * r - n + 1, ()):
            problems.append(
                f"{name}: (b0, b1, torsion) = ({hs.b0}, {hs.b1}, {hs.h1_torsion})"
            )
    sonly = homology_summary(
        order_complex(build_space(zoo_spec("cyclic:3", mode="sonly")))
    )
    if sonly.b1 != 2 * 3 * 1 - 3 + 1:
        problems.append(f"star-only variant: b1 = {sonly.b1} != 4")
    if d4_elapsed >= 60.0:
        problems.append(f"largest space took {d4_elapsed:.1f}s, bound is 60s")
    emit(problems, "circle-count prediction",
         f"b1 = 3nr-n+1 with no torsion across the catalog; star-only gives "
         f"2nr-n+1; 192-point case in {d4_elapsed:.2f}s")


def test_a07_fence_family_distinct_same_shape():
    problems: list[str] = []
    spaces: dict[int, FinitePoset] = {}
    betti: dict[int, tuple[int, int]] = {}
    for n in (1, 2, 3):
        spec = zoo_spec("cyclic:3", mode=f"sandt:{n}")
        space = build_space(spec)
        spaces[n] = space
        if space.beat_points():
            problems.append(f"fence {n}: beat points present")
        order = AutomorphismGroup.of(space).order
        if order != 3:
            problems.append(f"fence {n}: {order} automorphisms")
        hs = homology_summary(order_complex(space))
        betti[n] = (hs.b0, hs.b1)
        fold = collapse_map(spec, source=space)
        if set(fold.images) != set(range(len(fold.target))):
            problems.append(f"fence {n}: fold onto the classic space is not onto")
    for a, b in ((1, 2), (1, 3), (2, 3)):
        if find_isomorphism(spaces[a], spaces[b]) is not None:
            problems.append(f"fences {a} and {b} give isomorphic spaces")
    if len(set(betti.values())) != 1:
        problems.append(f"Betti numbers differ across fences: {betti}")
    emit(problems, "fence family",
         "three pairwise non-isomorphic rigid spaces, same symmetries and Betti numbers")


def test_a08_five_point_space_brute_force():
    problems: list[str] = []
    start = time.perf_counter()
    pentad = fixture_space("pentad")
    auts = AutomorphismGroup.of(pentad)
    if auts.order != 2:
        problems.append(f"{auts.order} automorphisms, expected 2")
    core_size = len(core(pentad).poset)
    if core_size != 4:
        problems.append(f"core has {core_size} points, expected 4")
    classes = homotopy_classes(enumerate_selfmaps(pentad))
    group = classes.group
    if group.order != 4:
        problems.append(f"equivalence-class group has order {group.order}")
    else:
        identity = group.identity
        involutions = [
            x for x in range(group.order)
            if x != identity and group.op(x, x) == identity
        ]
        if len(involutions) != 3:
            problems.append("equivalence-class group is cyclic, not Klein")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, bound is 1s")
    emit(problems, "five-point brute force",
         f"2 automorphisms, 4-point core, Klein four on classes in {elapsed:.2f}s")


def test_a09_connectivity_and_coset_components():
    problems: list[str] = []
    for name in ZOO:
        parts = len(build_base(zoo_spec(name)).components())
        if parts != 1:
            problems.append(f"{name}: column space has {parts} components")
    halved = spec_for(builtin_group("cyclic:4"), ["a2"], require_generating=False)
    parts = len(build_base(halved).components())
    if parts != 2:
        problems.append(f"index-2 subgroup input gives {parts} components, expected 2")
    emit(problems, "connectivity",
         "generating input is connected; an index-2 subgroup splits into 2 pieces")


def test_a10_homology_action_is_a_faithful_homomorphism():
    problems: list[str] = []
    for name, expected in (("cyclic:3", 3), ("dihedral:4", 8)):
        space = build_space(zoo_spec(name))
        basis = cycle_basis(order_complex(space))
        auts = AutomorphismGroup.of(space)
        matrices = [h1_action_matrix(basis, m) for m in auts.maps]
        if len(set(matrices)) != expected:
            problems.append(
                f"{name}: {len(set(matrices))} distinct matrices, expected {expected}"
            )
        size = basis.betti

        def matmul(x, y):
            return tuple(
                tuple(sum(x[i][k] * y[k][j] for k in range(size)) for j in range(size))
                for i in range(size)
            )

        for i in range(auts.order):
            for j in range(auts.order):
                if matmul(matrices[i], matrices[j]) != matrices[auts.table[i][j]]:
                    problems.append(f"{name}: action is not a homomorphism at ({i},{j})")
                    break
            else:
                continue
            break
    emit(problems, "homology action",
         "induced matrices are pairwise distinct and compose like the maps do")


def test_a11_reports_are_reproducible():
    problems: list[str] = []
    spec = zoo_spec("cyclic:2")
    options = VerifyOptions(fence_range=(1, 2))
    first = verify_all(spec, options).to_text()
    second = verify_all(spec, options).to_text()
    if first != second:
        problems.append("two identical runs produced different reports")
    if "FAIL" in first:
        problems.append("reference run is not clean")
    emit(problems, "determinism", "repeated verification reports are byte-identical")
