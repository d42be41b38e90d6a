"""Tests of the benchmark itself: gates catch wrong results, seeds only relabel,
tracing nests spans correctly, and a checkout without the package fails.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import posetgroups  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from posetgroups import (  # noqa: E402
    AutomorphismGroup,
    builtin_group,
    build_space,
    core,
    spec_for,
    standard_generator_labels,
)
from worker import Runner  # noqa: E402


def c3_space():
    return build_space(spec_for(builtin_group("cyclic:3"), ["a"]))


def run_ops(*ops) -> Runner:
    runner = Runner(workloads.Workload(tuple(ops), ops[0].name))
    runner.run_pass()
    return runner


def test_wrong_and_raising_operations_count_as_failed():
    def boom():
        raise ValueError("broken")

    runner = run_ops(
        workloads.Op("right", lambda: 4, lambda out: [] if out == 4 else ["not 4"]),
        workloads.Op("wrong", lambda: 5, lambda out: [] if out == 4 else ["not 4"]),
        workloads.Op("raises", boom, lambda out: []),
        workloads.Op("gate-raises", lambda: None, lambda out: out["missing"]),
    )
    assert (runner.attempted, runner.failed) == (4, 3)
    assert [p.split(":")[0] for p in runner.problems] == ["wrong", "raises", "gate-raises"]


def test_wrong_h1_matrix_from_the_library_is_counted(monkeypatch):
    space = c3_space()
    op = workloads.Op("h1", lambda: workloads._h1_pipeline(space),
                      lambda result: workloads.check_h1(result, 3, 1))
    assert run_ops(op).failed == 0

    real = workloads.h1_action_matrix

    def off_by_one(basis, automorphism):
        matrix = real(basis, automorphism)
        return ((matrix[0][0] + 1,) + matrix[0][1:],) + matrix[1:]

    monkeypatch.setattr(workloads, "h1_action_matrix", off_by_one)
    runner = run_ops(op)
    assert runner.failed == 1
    assert "identity matrix" in runner.problems[0]


def test_report_gate():
    want = workloads.expected_reports()["cyclic:8"]
    assert workloads.check_report((0, want), want) == []
    failed = want.replace("PASS generators", "FAIL generators")
    assert len(workloads.check_report((1, failed), want)) == 3


def test_automorphism_and_isomorphism_gates():
    space = c3_space()
    auts = AutomorphismGroup.of(space)
    assert workloads.check_automorphisms(auts, 3) == []
    assert workloads.check_automorphisms(auts, 6)
    repeated = dataclasses.replace(auts, maps=auts.maps[:1] * 3)
    assert workloads.check_automorphisms(repeated, 3)
    witness = auts.maps[1]
    assert workloads.check_isomorphism(witness, space, space, True) == []
    assert workloads.check_isomorphism(None, space, space, True)
    assert workloads.check_isomorphism(witness, space, space, False)


def test_core_and_selfmap_gates():
    pentad = workloads._small_space("pentad")
    result = core(pentad)
    assert workloads.check_core(result, pentad, 4) == []
    assert workloads.check_core(result, pentad, 5)
    not_a_core = dataclasses.replace(result, poset=pentad, trace=())
    assert workloads.check_core(not_a_core, pentad, None)
    found = workloads._selfmaps(pentad)
    assert workloads.check_selfmaps(found, 130, 5, 4) == []
    assert workloads.check_selfmaps(found, 130, 5, 2)


def test_seeds_change_inputs_but_not_outcomes(tmp_path):
    inputs = []
    for seed in (1, 2):
        ladder = workloads.make("verify-homology", seed, str(tmp_path)).ops
        small = workloads.make("search-core", seed, str(tmp_path)).ops
        cheap = [op for op in ladder + small
                 if op.name.endswith(("cyclic:8", "symmetric:3", "pentad", "sphere2"))]
        runner = run_ops(*cheap)
        assert (runner.attempted, runner.failed) == (4, 0), runner.problems
        with open(tmp_path / "cyclic-8.json", encoding="utf-8") as fh:
            inputs.append(json.load(fh)["cayley"])
    assert inputs[0] != inputs[1]


def test_relabelling_keeps_the_structure():
    rng = random.Random(5)
    group = builtin_group("dihedral:4")
    moved = workloads.relabelled_group(group, rng)
    assert moved.cayley != group.cayley
    assert moved.order_profile() == group.order_profile()
    space = build_space(spec_for(group, standard_generator_labels("dihedral:4")))
    shuffled = workloads.shuffled(space, rng)
    assert shuffled.labels != space.labels
    assert sorted(map(repr, shuffled.labels)) == sorted(map(repr, space.labels))
    assert len(shuffled.hasse) == len(space.hasse)


def test_tracer_nests_spans_and_restores_the_package():
    from posetgroups import cli, complexes, verify

    original = complexes.cycle_basis
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert verify.cycle_basis is not original  # bound by name at import
        assert posetgroups.cycle_basis is verify.cycle_basis
        with contextlib.redirect_stdout(io.StringIO()):
            tracer.span("op.verify", lambda: cli.main(["verify-all", "--group", "cyclic:2"]))
    finally:
        tracer.uninstall()
    assert verify.cycle_basis is original and posetgroups.cycle_basis is original

    spans = tracer.spans
    names = [s[0] for s in spans]
    check = names.index("verify.check.h1-action-faithful")
    assert any(s[0] == "complexes.cycle_basis" and s[3] == check for s in spans)
    figures = tracing.layer_metrics(spans, 0, len(spans))
    root = spans[0]
    total_self = sum(v for k, v in figures.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(root[2] - root[1])
    assert figures["cli.main.calls"] == 1
    assert figures["verify.check.h1-action-faithful.self_s"] >= 0
    assert tracer.counts["search.automorphisms_found"] > 0


def test_checkout_without_the_package_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-core", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
