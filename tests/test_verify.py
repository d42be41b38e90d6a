"""The named-check registry: statuses, skip semantics, and failure honesty."""

from __future__ import annotations

from dataclasses import replace

import pytest

from posetgroups import verify
from posetgroups import (
    CHECK_NAMES,
    VerifyOptions,
    builtin_group,
    spec_for,
    verify_all,
    verify_one,
)

from test_complexes import counting_snf


def result_map(report):
    return {r.name: r for r in report.results}


def test_every_check_passes_on_a_small_generating_spec():
    spec = spec_for(builtin_group("cyclic:2"), ["a"])
    report = verify_all(spec, VerifyOptions(fence_range=(1, 2)))
    assert report.ok
    passed, failed, skipped = report.counts()
    assert (passed, failed, skipped) == (len(CHECK_NAMES), 0, 0)


def test_verify_all_reduces_each_distinct_space_once(monkeypatch):
    # the full space (fence 1) is shared by betti-prediction,
    # graph-complex-agreement, betti-variant-invariance and h1-action-faithful
    calls = counting_snf(monkeypatch)
    spec = spec_for(builtin_group("cyclic:3"), ["a"], mode="sandt")
    report = verify_all(spec, VerifyOptions(fence_range=(1, 2, 3)))
    assert report.ok
    assert len(calls) == 3


def test_gadget_checks_skip_when_nothing_is_attached():
    spec = spec_for(builtin_group("cyclic:2"), ["a"], mode="none")
    report = verify_all(spec)
    results = result_map(report)
    assert report.ok
    assert results["base-point-count"].status == "PASS"
    assert results["full-no-beat-points"].status == "SKIP"
    assert "attach" in results["full-no-beat-points"].detail
    assert results["collapse-monotone"].status == "SKIP"


def test_fence_checks_skip_in_star_only_mode():
    spec = spec_for(builtin_group("cyclic:2"), ["a"], mode="sonly")
    report = verify_all(spec)
    results = result_map(report)
    assert report.ok
    assert results["full-no-beat-points"].status == "PASS"
    assert results["variants-distinct"].status == "SKIP"
    assert results["betti-variant-invariance"].status == "SKIP"
    assert results["betti-prediction"].status == "PASS"


def test_non_generating_input_fails_honestly():
    spec = spec_for(
        builtin_group("klein4"), ["a"], require_generating=False
    )
    report = verify_all(spec, VerifyOptions(fence_range=(1,)))
    results = result_map(report)
    assert not report.ok
    assert results["generators"].status == "FAIL"
    # The base splits into cosets, and the connectivity check knows that.
    assert results["base-connected"].status == "PASS"
    assert results["base-aut-realization"].status == "FAIL"


def test_skip_by_request():
    spec = spec_for(builtin_group("cyclic:2"), ["a"])
    report = verify_all(
        spec,
        VerifyOptions(fence_range=(1,), skip=frozenset({"h1-action-faithful"})),
    )
    results = result_map(report)
    assert results["h1-action-faithful"].status == "SKIP"
    assert results["h1-action-faithful"].detail == "skipped by request"


def test_single_check_runs_alone():
    spec = spec_for(builtin_group("cyclic:3"), ["a"])
    report = verify_one(spec, "base-point-count")
    assert len(report.results) == 1
    assert report.results[0].status == "PASS"
    assert "9" in report.results[0].detail


def test_unknown_check_name_rejected():
    spec = spec_for(builtin_group("cyclic:2"), ["a"])
    with pytest.raises(KeyError, match="unknown check"):
        verify_one(spec, "no-such-check")


def test_reports_are_deterministic_apart_from_timing():
    spec = spec_for(builtin_group("cyclic:2"), ["a"])
    options = VerifyOptions(fence_range=(1, 2))
    first = verify_all(spec, options)
    second = verify_all(spec, options)
    assert first.to_text() == second.to_text()


def test_subject_line_describes_the_input():
    spec = spec_for(builtin_group("klein4"), ["a", "b"], pointed=True)
    report = verify_one(spec, "generators", subject=None)
    assert "order 4" in report.subject
    assert "pointed" in report.subject
    assert report.to_text().startswith("subject: ")


# -- h1-action-faithful on corrupted inputs ----------------------------------


def h1_check(ctx):
    return verify._run_check(
        "h1-action-faithful", dict(verify.REGISTRY)["h1-action-faithful"], ctx
    )


@pytest.mark.parametrize("k", range(3))
def test_h1_check_fails_on_one_corrupted_matrix(monkeypatch, k):
    ctx = verify._Context(spec_for(builtin_group("cyclic:3"), ["a"]), VerifyOptions())
    assert h1_check(ctx).status == "PASS"
    wrong = ctx.full_auts.maps[k]
    real = verify.h1_action_columns

    def corrupted(basis, automorphism):
        columns = real(basis, automorphism)
        if automorphism is not wrong:
            return columns
        return (columns[1], columns[0]) + columns[2:]

    monkeypatch.setattr(verify, "h1_action_columns", corrupted)
    assert h1_check(ctx).status == "FAIL"


@pytest.mark.parametrize("row", range(3))
def test_h1_check_fails_on_one_swapped_table_entry(row):
    ctx = verify._Context(spec_for(builtin_group("cyclic:3"), ["a"]), VerifyOptions())
    auts = ctx.full_auts
    table = [list(r) for r in auts.table]
    table[row][1], table[row][2] = table[row][2], table[row][1]
    ctx._cache["full_auts"] = replace(auts, table=tuple(map(tuple, table)))
    assert h1_check(ctx).status == "FAIL"


def test_h1_check_fails_on_a_relabelled_group_table():
    # Swapping a rotation and a reflection of S3 gives a valid group table
    # that is not the table of these maps: only the matrix products see it.
    group = builtin_group("dihedral:3")
    ctx = verify._Context(spec_for(group, ["a", "b"]), VerifyOptions())
    auts = ctx.full_auts
    e = auts.identity_index()
    rotation = next(k for k in range(auts.order) if k != e and auts.table[k][k] != e)
    reflection = next(k for k in range(auts.order) if k != e and auts.table[k][k] == e)
    swap = list(range(auts.order))
    swap[rotation], swap[reflection] = reflection, rotation
    table = tuple(
        tuple(swap[auts.table[swap[a]][swap[b]]] for b in range(auts.order))
        for a in range(auts.order)
    )
    ctx._cache["full_auts"] = replace(auts, table=table)
    ctx.full_auts.as_group()  # still a group table
    result = h1_check(ctx)
    assert result.status == "FAIL"
    assert result.detail.startswith("matrix composition disagrees for pair")
