"""Seeded inputs, timed operations and correctness gates of the two workloads.

A workload is a fixed list of operations.  ``verify-homology`` runs the
paper's ``verify-all`` ladder and the H1 pipeline; ``search-core`` runs
automorphism search, cores and self-map classification, and never touches
the order complex or Smith reduction.  Each operation calls public
entry points of ``posetgroups`` on inputs made during set-up and returns
its output; the operation's gate then lists every problem it finds in
that output (an empty list means correct).  The seed only relabels: it
permutes group-element indices (the group goes over as a relabelled
multiplication table), permutes point orders, and draws the one random
poset.  Every expected count below is therefore seed-independent.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from posetgroups import (
    AutomorphismGroup,
    FiniteGroup,
    FinitePoset,
    builtin_group,
    build_space,
    core,
    cycle_basis,
    enumerate_selfmaps,
    find_isomorphism,
    group_to_doc,
    h1_action_matrix,
    homology_summary,
    homotopy_classes,
    order_complex,
    spec_for,
    standard_generator_labels,
)
from posetgroups.cli import main as cli_main

HERE = os.path.dirname(os.path.abspath(__file__))

# verify-all rungs, smallest first
LADDER = ("cyclic:8", "quaternion8", "dihedral:4", "symmetric:3", "dihedral:6")


@dataclass(frozen=True)
class Op:
    """One timed call and the gate its output must pass."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    largest: str  # name of the op reported as ``largest_op_s``


# -- seeded relabelling ------------------------------------------------------


def relabelled_group(group: FiniteGroup, rng: random.Random) -> FiniteGroup:
    """The same group with element indices permuted; labels travel along."""
    n = group.order
    perm = list(range(n))
    rng.shuffle(perm)
    labels = [""] * n
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        labels[perm[a]] = group.labels[a]
        for b in range(n):
            table[perm[a]][perm[b]] = perm[group.cayley[a][b]]
    return FiniteGroup(tuple(labels), tuple(map(tuple, table)))


def shuffled(space: FinitePoset, rng: random.Random) -> FinitePoset:
    """The same poset with its points in a random order."""
    perm = list(range(len(space)))
    rng.shuffle(perm)
    labels = [None] * len(space)
    for old, new in enumerate(perm):
        labels[new] = space.labels[old]
    return FinitePoset.from_hasse(labels, [(perm[a], perm[b]) for a, b in space.hasse])


def seeded_space(name: str, mode: str, rng: random.Random):
    """A built space for a relabelled builtin group, points shuffled."""
    group = relabelled_group(builtin_group(name), rng)
    spec = spec_for(group, standard_generator_labels(name), mode=mode)
    return shuffled(build_space(spec), rng), group.order, spec.levels


def random_poset(rng: random.Random, points: int, density: float) -> FinitePoset:
    """Each pair ``i < j`` is a relation with probability ``density``."""
    pairs = [
        (i, j) for i in range(points) for j in range(i + 1, points) if rng.random() < density
    ]
    space = FinitePoset.from_relations([f"r{i}" for i in range(points)], pairs)
    return shuffled(space, rng)


def _small_space(name: str) -> FinitePoset:
    if name == "pentad":
        # five points with one up beat point; its core is the 2x2 crown
        return FinitePoset.from_relations(
            ["a", "b", "c", "d", "e"],
            [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4)],
        )
    if name == "sphere2":
        # the minimal finite model of the 2-sphere: S0 * S0 * S0
        return FinitePoset.from_relations(
            ["a0", "b0", "a1", "b1", "a2", "b2"],
            [(lo, hi) for k in (0, 2) for lo in (k, k + 1) for hi in (k + 2, k + 3)],
        )
    if name == "k33":
        # complete bipartite: three minima under three maxima
        return FinitePoset.from_relations(
            ["p", "q", "r", "u", "v", "w"],
            [(lo, hi) for lo in range(3) for hi in range(3, 6)],
        )
    raise KeyError(name)


# -- gates -------------------------------------------------------------------


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_report(code_and_text, expected: str) -> list[str]:
    """``verify-all`` exits 0, every line is PASS/SKIP, and the text is the expected one."""
    code, text = code_and_text
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    for line in text.splitlines():
        if line and not line.startswith(("subject: ", "summary: ", "PASS ", "SKIP ")):
            problems.append(f"check line not PASS/SKIP: {line}")
    if text != expected:
        problems.append("report differs from the expected report")
    return problems


def check_automorphisms(auts: AutomorphismGroup, order: int) -> list[str]:
    """|Aut| = |G|, the maps are distinct, the action is free, each map is an isomorphism."""
    problems: list[str] = []
    _expect(problems, "|Aut|", auts.order, order)
    _expect(problems, "distinct maps", len({m.images for m in auts.maps}), order)
    if not auts.acts_freely():
        problems.append("automorphism group does not act freely")
    if not all(m.is_isomorphism() for m in auts.maps):
        problems.append("a returned map is not an isomorphism")
    return problems


def check_isomorphism(found, source, target, expect_witness: bool) -> list[str]:
    if not expect_witness:
        return [] if found is None else ["found an isomorphism between distinct variants"]
    if found is None:
        return ["no isomorphism found between a space and its relabelled copy"]
    if found.source is not source or found.target is not target or not found.is_isomorphism():
        return ["the witness is not an isomorphism between the two spaces"]
    return []


def check_h1(result, n: int, r: int) -> list[str]:
    """b1 = 3nr - n + 1, no torsion, one distinct matrix per automorphism, e -> I."""
    summary, basis, auts, matrices = result
    b1 = 3 * n * r - n + 1
    problems: list[str] = []
    _expect(problems, "b0", summary.b0, 1)
    _expect(problems, "b1", summary.b1, b1)
    _expect(problems, "cycle-basis rank", basis.betti, b1)
    if summary.h1_torsion or basis.torsion:
        problems.append(f"H1 torsion {summary.h1_torsion or basis.torsion}, expected none")
    problems += check_automorphisms(auts, n)
    _expect(problems, "matrices", len(matrices), auts.order)
    if len(set(matrices)) != len(matrices):
        problems.append("two automorphisms give the same H1 matrix")
    identity = tuple(tuple(int(i == j) for j in range(b1)) for i in range(b1))
    if matrices and matrices[auts.identity_index()] != identity:
        problems.append("the identity automorphism does not give the identity matrix")
    return problems


def check_core(result, space: FinitePoset, size: int | None) -> list[str]:
    """No beat points left, retraction after inclusion is the identity."""
    problems: list[str] = []
    if result.poset.beat_points():
        problems.append("the core still has beat points")
    back = result.retraction.compose(result.inclusion)
    if back.images != tuple(range(len(result.poset))):
        problems.append("retraction after inclusion is not the identity")
    _expect(problems, "removed points", len(result.trace), len(space) - len(result.poset))
    if size is not None:
        _expect(problems, "core size", len(result.poset), size)
    return problems


def check_selfmaps(result, maps: int, classes: int, group: int) -> list[str]:
    found, hc = result
    problems: list[str] = []
    _expect(problems, "self-maps", len(found), maps)
    _expect(problems, "homotopy classes", hc.class_count, classes)
    _expect(problems, "equivalence-class group order", hc.group.order, group)
    return problems


# -- operations ---------------------------------------------------------------


def _verify_all(group_file: str, gens: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["verify-all", "--group-file", group_file, "--gens", gens])
    return code, out.getvalue()


def _h1_pipeline(space: FinitePoset):
    """The library calls behind ``posetgroups homology`` and ``posetgroups h1-action``."""
    cx = order_complex(space)
    summary = homology_summary(cx)
    basis = cycle_basis(cx)
    auts = AutomorphismGroup.of(space)
    matrices = [h1_action_matrix(basis, m) for m in auts.maps]
    return summary, basis, auts, matrices


def _selfmaps(space: FinitePoset):
    found = enumerate_selfmaps(space)
    return found, homotopy_classes(found)


def expected_reports() -> dict[str, str]:
    with open(os.path.join(HERE, "expected_reports.json"), encoding="utf-8") as fh:
        return json.load(fh)


def verify_homology(rng: random.Random, workdir: str) -> Workload:
    """``verify-all`` up the group ladder, then the H1 pipeline on two larger spaces."""
    expected = expected_reports()
    ops = []
    for name in LADDER:
        group = relabelled_group(builtin_group(name), rng)
        path = os.path.join(workdir, name.replace(":", "-") + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(group_to_doc(group), fh)
        gens = ",".join(standard_generator_labels(name))
        ops.append(Op(
            f"verify-all:{name}",
            lambda path=path, gens=gens: _verify_all(path, gens),
            lambda out, want=expected[name]: check_report(out, want),
        ))
    for name in ("dihedral:8", "dihedral:10"):
        space, n, r = seeded_space(name, "sandt", rng)
        ops.append(Op(
            f"h1:{name}",
            lambda space=space: _h1_pipeline(space),
            lambda result, n=n, r=r: check_h1(result, n, r),
        ))
    return Workload(tuple(ops), "h1:dihedral:10")


# (space, self-maps, homotopy classes, equivalence-class group order)
SELFMAP_SPACES = (("pentad", 130, 5, 4), ("sphere2", 446, 9, 8), ("k33", 951, 577, 36))


def search_core(rng: random.Random, workdir: str) -> Workload:
    """Automorphism and isomorphism search, then cores, self-maps and homotopy classes."""
    columns, s5_order, _ = seeded_space("symmetric:5", "none", rng)
    rigid, c24_order, _ = seeded_space("cyclic:24", "sandt", rng)
    fence1, _, _ = seeded_space("dihedral:6", "sandt", rng)
    fence2, _, _ = seeded_space("dihedral:6", "sandt:2", rng)
    copy = shuffled(fence2, rng)
    scattered = random_poset(rng, 400, 0.01)
    ops = [
        Op("aut:symmetric:5-columns", lambda: AutomorphismGroup.of(columns),
           lambda auts: check_automorphisms(auts, s5_order)),
        Op("aut:cyclic:24-rigid", lambda: AutomorphismGroup.of(rigid),
           lambda auts: check_automorphisms(auts, c24_order)),
        Op("iso:dihedral:6-fence1-fence2", lambda: find_isomorphism(fence1, fence2),
           lambda found: check_isomorphism(found, fence1, fence2, False)),
        Op("iso:dihedral:6-fence2-copy", lambda: find_isomorphism(fence2, copy),
           lambda found: check_isomorphism(found, fence2, copy, True)),
        # the column space retracts onto its bottom two levels: 2|G| points
        Op("core:symmetric:5-columns", lambda: core(columns),
           lambda result: check_core(result, columns, 2 * s5_order)),
        Op("core:random-400", lambda: core(scattered),
           lambda result: check_core(result, scattered, None)),
    ]
    for name, maps, classes, group in SELFMAP_SPACES:
        space = shuffled(_small_space(name), rng)
        ops.append(Op(
            f"selfmaps:{name}",
            lambda space=space: _selfmaps(space),
            lambda result, m=maps, c=classes, g=group: check_selfmaps(result, m, c, g),
        ))
    return Workload(tuple(ops), "aut:symmetric:5-columns")


WORKLOADS: dict[str, Callable[[random.Random, str], Workload]] = {
    "verify-homology": verify_homology,
    "search-core": search_core,
}


def make(name: str, seed: int, workdir: str) -> Workload:
    """Build a workload's inputs from ``seed``; files go under ``workdir``."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir)
