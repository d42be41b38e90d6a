"""End-to-end command-line coverage: exit codes, output shapes, file I/O."""

from __future__ import annotations

import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetgroups import (
    AutomorphismGroup,
    FinitePoset,
    build_space,
    builtin_group,
    cycle_basis,
    group_to_doc,
    h1_action_matrix,
    order_complex,
    poset_from_json,
    poset_to_json,
    spec_for,
    standard_generator_labels,
)
from posetgroups import cli
from posetgroups.cli import main
from posetgroups.labels import label_id

from conftest import fixture_space


@pytest.fixture()
def pentad_file(tmp_path):
    path = tmp_path / "pentad.json"
    path.write_text(poset_to_json(fixture_space("pentad")), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_text_summary(capsys):
    code, out, err = run(capsys, "build", "--group", "cyclic:3")
    assert code == 0 and err == ""
    assert "points: 39" in out
    assert "components: 1" in out
    assert "beat points: 0" in out


def test_build_cover_count_matches_space(capsys):
    space = build_space(spec_for(builtin_group("cyclic:3"), ["a"]))
    code, out, _ = run(capsys, "build", "--group", "cyclic:3")
    assert code == 0
    assert f"cover relations: {len(space.hasse)}" in out


def test_build_json_roundtrips(capsys):
    code, out, _ = run(capsys, "build", "--group", "cyclic:2", "--json")
    assert code == 0
    rebuilt = poset_from_json(out)
    assert rebuilt == build_space(spec_for(builtin_group("cyclic:2"), ["a"]))


def test_a_point_named_base_round_trips_through_a_space_file(capsys, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(poset_to_json(FinitePoset.from_relations(["base", "top"], [(0, 1)])),
                    encoding="utf-8")
    code, out, _ = run(capsys, "build", "--space-file", str(path), "--json")
    assert code == 0 and poset_from_json(out).labels == ("base", "top")
    path.write_text(out, encoding="utf-8")
    assert run(capsys, "build", "--space-file", str(path), "--json") == (0, out, "")


def test_build_out_writes_file(capsys, tmp_path):
    target = tmp_path / "space.json"
    code, out, _ = run(
        capsys, "build", "--group", "cyclic:2", "--json", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert isinstance(poset_from_json(target.read_text(encoding="utf-8")), FinitePoset)


def test_build_mode_and_pointed_flags(capsys):
    code, out, _ = run(
        capsys, "build", "--group", "cyclic:3", "--mode", "sandt:2", "--pointed"
    )
    assert code == 0
    assert "points: 46" in out


def test_aut_json_on_base_space(capsys):
    code, out, _ = run(
        capsys, "aut", "--group", "klein4", "--mode", "none", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 4
    assert doc["acts_freely"] is True
    assert sorted(doc["table"][0]) == [0, 1, 2, 3]


def test_core_on_space_file(capsys, pentad_file):
    code, out, _ = run(capsys, "core", "--space-file", pentad_file)
    assert code == 0
    assert "5 -> core 4" in out
    assert "removed" in out


def test_selfmaps_on_space_file(capsys, pentad_file):
    code, out, _ = run(capsys, "selfmaps", "--space-file", pentad_file)
    assert code == 0
    assert "continuous self-maps: 130" in out
    assert "homotopy classes: 5" in out
    assert "equivalence-class group order: 4" in out


def test_selfmaps_size_guard(capsys):
    code, out, err = run(capsys, "selfmaps", "--group", "cyclic:3")
    assert code == 2
    assert err.startswith("error:")


def test_homology_json(capsys):
    code, out, _ = run(capsys, "homology", "--group", "cyclic:3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["b0"], doc["b1"], doc["h1_torsion"]) == (1, 7, [])
    assert doc["covering_graph_cycle_rank"] == 7


def test_h1_action_json(capsys):
    code, out, _ = run(capsys, "h1-action", "--group", "cyclic:2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 2
    assert doc["betti"] == 5
    assert doc["distinct"] is True
    assert len(doc["matrices"]) == 2


def aut_text(space):
    """The text of ``aut``, built whole."""
    auts = AutomorphismGroup.of(space)
    lines = [f"automorphisms: {auts.order}",
             f"acts freely: {'yes' if auts.acts_freely() else 'no'}"]
    for k, m in enumerate(auts.maps):
        moved = [f"{label_id(space.labels[i])}->{label_id(space.labels[m(i)])}"
                 for i in range(len(space)) if m(i) != i]
        lines.append(f"f{k}: " + (" ".join(moved) if moved else "identity"))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("group", ["klein4", "dihedral:3"])
def test_aut_streams_the_whole_text(capsys, tmp_path, group):
    want = aut_text(build_space(spec_for(builtin_group(group), standard_generator_labels(group))))
    assert run(capsys, "aut", "--group", group) == (0, want, "")
    target = tmp_path / "aut.txt"
    assert run(capsys, "aut", "--group", group, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("group", ["klein4", "dihedral:3", "symmetric:4"])
def test_aut_json_streams_the_whole_document(capsys, tmp_path, group):
    auts = AutomorphismGroup.of(
        build_space(spec_for(builtin_group(group), standard_generator_labels(group)))
    )
    doc = {
        "order": auts.order,
        "acts_freely": auts.acts_freely(),
        "maps": [list(m.images) for m in auts.maps],
        "table": [list(row) for row in auts.table],
    }
    want = json.dumps(doc, indent=2) + "\n"
    assert run(capsys, "aut", "--group", group, "--json") == (0, want, "")
    target = tmp_path / "aut.json"
    assert run(capsys, "aut", "--group", group, "--json", "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == want.encode("utf-8")


def h1_action_documents(space):
    """The text and JSON of ``h1-action``, built whole from dense matrices."""
    basis = cycle_basis(order_complex(space))
    auts = AutomorphismGroup.of(space)
    matrices = [h1_action_matrix(basis, m) for m in auts.maps]
    distinct = len(set(matrices)) == len(matrices)
    lines = [f"rank of first homology: {basis.betti}", f"automorphisms: {auts.order}"]
    for k, mat in enumerate(matrices):
        lines.append(f"f{k}:")
        lines.extend("  " + " ".join(f"{v:3d}" for v in row) for row in mat)
    lines.append("matrices pairwise distinct: " + ("yes" if distinct else "no"))
    doc = {
        "betti": basis.betti,
        "order": auts.order,
        "matrices": [[list(row) for row in mat] for mat in matrices],
        "distinct": distinct,
    }
    return "\n".join(lines) + "\n", json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("mode", ["sandt", "none", None])
def test_h1_action_streams_the_whole_documents(capsys, tmp_path, mode):
    # mode None: a two-point antichain, with no edges, so b1 = 0
    if mode is None:
        space = fixture_space("antichain2")
    else:
        space = build_space(spec_for(builtin_group("cyclic:3"), ["a"], mode=mode))
    path = tmp_path / "space.json"
    path.write_text(poset_to_json(space), encoding="utf-8")
    text, doc = h1_action_documents(space)
    for flags, want in (((), text), (("--json",), doc)):
        code, out, err = run(capsys, "h1-action", "--space-file", str(path), *flags)
        assert (code, out, err) == (0, want, "")
        target = tmp_path / "out.txt"
        code, out, _ = run(capsys, "h1-action", "--space-file", str(path), *flags,
                           "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_text(encoding="utf-8") == want


def nested_ints(depth):
    """An int, or a list of ``nested_ints(depth - 1)``, at most ``depth`` deep."""
    ints = st.integers(-3, 3)
    return ints if depth == 0 else st.one_of(ints, st.lists(nested_ints(depth - 1), max_size=4))


int_matrices = st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=3)


@given(st.lists(st.tuples(st.text(max_size=3), st.booleans(), st.one_of(nested_ints(3), int_matrices)),
                max_size=4, unique_by=lambda drawn: drawn[0]))
@settings(max_examples=200, deadline=None)
def test_json_chunks_write_what_json_dumps_writes(drawn):
    fields = [(key, value) for key, _, value in drawn]
    streamed = {key for key, stream, value in drawn if stream and isinstance(value, list)}
    lazy = [(key, (v for v in value) if key in streamed else value) for key, value in fields]
    assert "".join(cli._json_chunks(lazy, streamed)) == json.dumps(dict(fields), indent=2)


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_h1_action_writes_the_first_matrix_before_the_last_map_is_computed(
    capsys, monkeypatch, flags
):
    text, doc = h1_action_documents(build_space(spec_for(builtin_group("cyclic:3"), ["a"])))
    first = json.loads(doc)["matrices"][0]
    if flags:
        shown = json.dumps(first, indent=2).replace("\n", "\n    ")
    else:
        shown = "f0:\n" + "".join("  " + " ".join(f"{v:3d}" for v in row) + "\n"
                                  for row in first)
    real, calls, before_last = cli.h1_action_ids, [], []

    def watched(basis, automorphism):
        calls.append(automorphism)
        if len(calls) == 3:  # the last of the three maps of cyclic:3
            before_last.append(capsys.readouterr().out)
        return real(basis, automorphism)

    monkeypatch.setattr(cli, "h1_action_ids", watched)
    assert main(["h1-action", "--group", "cyclic:3", *flags]) == 0
    (head,) = before_last
    assert shown in head
    assert head + capsys.readouterr().out == (doc if flags else text)


def test_export_dot(capsys, tmp_path):
    target = tmp_path / "space.dot"
    code, out, _ = run(
        capsys, "export-dot", "--group", "cyclic:2", "--out", str(target)
    )
    assert code == 0 and out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith("digraph poset {")
    assert text.rstrip().endswith("}")


def test_export_dot_escapes_a_quote_in_a_space_file_id(capsys, tmp_path):
    path = tmp_path / "quoted.json"
    quoted = FinitePoset.from_relations(['a"b', "c"], [(0, 1)])
    path.write_text(poset_to_json(quoted), encoding="utf-8")
    code, out, _ = run(capsys, "export-dot", "--space-file", str(path))
    assert code == 0
    assert '  "a\\"b";\n' in out and '  "a\\"b" -> "c";\n' in out


def test_verify_single_check(capsys):
    code, out, _ = run(
        capsys, "verify", "--group", "cyclic:2", "--check", "base-point-count"
    )
    assert code == 0
    assert "PASS base-point-count" in out


def test_verify_reports_failure_with_exit_one(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--group",
        "klein4",
        "--gens",
        "a",
        "--allow-non-generating",
        "--check",
        "generators",
    )
    assert code == 1
    assert "FAIL generators" in out


def test_verify_rejects_unknown_check_name(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--group", "cyclic:2", "--check", "bogus"])
    assert excinfo.value.code == 2


def test_verify_has_no_skip_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--group", "cyclic:2", "--check", "generators", "--skip", "generators"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --skip generators" in capsys.readouterr().err


def test_verify_all_text_and_skip(capsys):
    code, out, _ = run(
        capsys,
        "verify-all",
        "--group",
        "cyclic:2",
        "--fences",
        "1",
        "--skip",
        "h1-action-faithful",
    )
    assert code == 0
    assert "SKIP h1-action-faithful" in out
    assert "0 failed" in out


def test_verify_all_json_failure_exit(capsys):
    code, out, _ = run(
        capsys,
        "verify-all",
        "--group",
        "klein4",
        "--gens",
        "a",
        "--allow-non-generating",
        "--fences",
        "1",
        "--json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    statuses = {entry["name"]: entry["status"] for entry in doc["results"]}
    assert statuses["generators"] == "FAIL"
    assert statuses["base-connected"] == "PASS"


@pytest.mark.parametrize("fences", ["", "0", "2,0"])
def test_verify_all_rejects_fence_lists_without_a_valid_size(capsys, fences):
    code, out, err = run(capsys, "verify-all", "--group", "cyclic:2", "--fences", fences)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "fence" in err


@pytest.mark.parametrize("argv", [
    ("verify-all", "--fences", "1,1"),
    ("verify", "--check", "variants-distinct", "--fences", "2,2"),
])
def test_repeated_fence_sizes_are_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--group", "cyclic:2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "distinct" in err


@pytest.mark.parametrize("mode", ["sandt:", "none:"])
def test_a_mode_with_an_empty_parameter_is_a_usage_error(capsys, mode):
    code, out, err = run(capsys, "build", "--group", "cyclic:2", "--mode", mode)
    assert code == 2 and out == ""
    assert err.startswith("error: mode") and err.count("\n") == 1


@pytest.mark.parametrize("group", ["klein4:", "quaternion8:"])
def test_a_group_with_an_empty_parameter_is_a_usage_error(capsys, group):
    code, out, err = run(capsys, "build", "--group", group)
    assert code == 2 and out == ""
    assert err.startswith("error: family") and err.count("\n") == 1


@pytest.mark.parametrize("argv, field, bad", [
    (("--group", "cyclic:x"), "family 'cyclic'", "'x'"),
    (("--group", "cyclic:2", "--mode", "sandt:x"), "mode 'sandt'", "'x'"),
    (("--group", "cyclic:2", "--fences", "1,x"), "--fences", "'1,x'"),
], ids=["group", "mode", "fences"])
def test_a_non_integer_parameter_is_one_error_line_naming_its_field(capsys, argv, field, bad):
    code, out, err = run(capsys, "verify-all", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field} ") and err.count("\n") == 1
    assert err.rstrip().endswith(bad)


@pytest.mark.parametrize("argv, flag, text", [
    (("verify", "--group", "cyclic:3", "--check", "variants-distinct", "--fences", "1,,2"),
     "--fences", "1,,2"),
    (("verify-all", "--group", "cyclic:3", "--fences", "1, ,2"), "--fences", "1, ,2"),
    (("build", "--group", "dihedral:3", "--gens", "a,,b"), "--gens", "a,,b"),
    (("build", "--group", "dihedral:3", "--gens", "a,b,"), "--gens", "a,b,"),
], ids=["verify-fences", "verify-all-fences", "gens", "gens-trailing"])
def test_an_empty_list_entry_is_one_error_line_naming_the_flag(capsys, argv, flag, text):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {flag} has an empty entry: {text!r}\n")


def test_list_entries_are_stripped_and_a_blank_gens_list_is_empty(capsys):
    assert run(capsys, "build", "--group", "dihedral:3", "--gens", " a , b ")[0] == 0
    code, out, _ = run(capsys, "build", "--group", "cyclic:1", "--gens", "")
    assert code == 0 and out.startswith("points: 2\n")


@pytest.mark.parametrize("argv, message", [
    (("--group", "cyclic:2", "--group-file", "g.json"),
     "pass either --group or --group-file, not both"),
    ((), "a group is required: pass --group or --group-file"),
    (("--group", "cyclic:0"), "cyclic order must be >= 1"),
    (("--group", "dihedral:1"), "dihedral parameter must be >= 2"),
    (("--group", "symmetric:7"), "symmetric parameter must be in 1..6"),
], ids=["both", "neither", "cyclic:0", "dihedral:1", "symmetric:7"])
def test_a_bad_group_choice_is_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, "build", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_all_on_the_trivial_group_fails_exactly_three_checks(capsys):
    # No generators: r = 0, nothing is attached, and every variant is the
    # 2-point column chain (see the verification registry in README).
    code, out, err = run(capsys, "verify-all", "--group", "cyclic:1")
    assert code == 1 and err == ""
    assert [line for line in out.rstrip().splitlines() if not line.startswith("PASS")] == [
        "subject: group of order 1, generators [none], mode sandt",
        "FAIL full-no-beat-points          2 beat points, e.g. index 0 (up)",
        "FAIL pointed-star-fixed           1 automorphism(s) move the basepoint",
        "FAIL variants-distinct            fence 1 and fence 2 are isomorphic",
        "summary: 13 passed, 3 failed, 0 skipped",
    ]


def test_a_space_file_with_a_non_canonical_id_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"points": ["base:g01:lv0"], "hasse": []}), encoding="utf-8")
    code, out, err = run(capsys, "build", "--space-file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: non-canonical label id") and err.count("\n") == 1


def test_a_space_file_repeating_an_edge_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"points": ["a", "b"], "hasse": [["a", "b"], ["a", "b"]]}),
                    encoding="utf-8")
    code, out, err = run(capsys, "build", "--space-file", str(path))
    assert (code, out, err) == (2, "", "error: hasse edge 1 ('a', 'b') repeats edge 0\n")


@pytest.mark.parametrize("flags", [("--space-file",), ("--group-file", "--gens", "a")])
def test_a_deeply_nested_file_is_a_usage_error(capsys, tmp_path, flags):
    # past the JSON parser's recursion limit: one error line, no traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code, out, err = run(capsys, "build", flags[0], str(path), *flags[1:])
    assert (code, out, err) == (2, "", "error: the JSON document is nested too deeply\n")


def test_unknown_group_is_a_usage_error(capsys):
    code, out, err = run(capsys, "build", "--group", "cyclic:one")
    assert code == 2
    assert err.startswith("error:")


def test_group_and_space_file_conflict(capsys, pentad_file):
    code, _, err = run(
        capsys, "build", "--group", "cyclic:2", "--space-file", pentad_file
    )
    assert code == 2
    assert "not both" in err


def test_group_file_with_explicit_gens(capsys, tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(group_to_doc(builtin_group("klein4"))), encoding="utf-8")
    code, out, _ = run(
        capsys, "build", "--group-file", str(path), "--gens", "a,b", "--mode", "none"
    )
    assert code == 0
    assert "points: 16" in out


def test_group_file_requires_gens(capsys, tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(group_to_doc(builtin_group("klein4"))), encoding="utf-8")
    code, _, err = run(capsys, "build", "--group-file", str(path))
    assert code == 2
    assert "--gens" in err


def test_aut_budget_env_var(capsys, tmp_path, monkeypatch):
    antichain = FinitePoset.from_relations([f"p{i}" for i in range(8)], [])
    path = tmp_path / "antichain.json"
    path.write_text(poset_to_json(antichain), encoding="utf-8")
    monkeypatch.setenv("POSETGROUPS_BUDGET_AUT", "10")
    code, _, err = run(capsys, "aut", "--space-file", str(path))
    assert code == 2
    assert "budget" in err
    assert "--budget-aut" in err


@pytest.mark.parametrize(
    "name, command",
    [("POSETGROUPS_BUDGET_AUT", "aut"), ("POSETGROUPS_BUDGET_MAPS", "selfmaps")],
)
def test_bad_budget_env_var_is_one_error_line(capsys, monkeypatch, name, command):
    monkeypatch.setenv(name, "1e3")
    code, out, err = run(capsys, command, "--group", "cyclic:2")
    assert code == 2 and out == ""
    assert err == f"error: {name} must be an integer; got '1e3'\n"
    # a command without the flag never reads the variable
    code, out, err = run(capsys, "core", "--group", "cyclic:3")
    assert code == 0 and err == "" and "core" in out


@pytest.mark.parametrize("argv, flag", [
    (("verify-all", "--group", "cyclic:3", "--budget-aut", "-5"), "--budget-aut"),
    (("selfmaps", "--group", "cyclic:2", "--mode", "none", "--budget-maps", "-2"),
     "--budget-maps"),
    (("selfmaps", "--group", "cyclic:2", "--mode", "none", "--max-points", "-1"),
     "--max-points"),
])
def test_a_negative_count_flag_is_one_error_line(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {flag} must not be negative; got {argv[-1]}\n"
    # zero is a budget like any other: the work starts and stops at it
    code, out, err = run(capsys, *argv[:-1], "0")
    assert code in (1, 2) and ("visiting 0 " in out + err or "max_points=0 " in err)


@pytest.mark.parametrize("name, command", [
    ("POSETGROUPS_BUDGET_AUT", "aut"), ("POSETGROUPS_BUDGET_MAPS", "selfmaps"),
])
def test_a_negative_budget_env_var_is_one_error_line(capsys, monkeypatch, name, command):
    monkeypatch.setenv(name, "-2")
    code, out, err = run(capsys, command, "--group", "cyclic:2", "--mode", "none")
    assert code == 2 and out == ""
    assert err == f"error: {name} must not be negative; got -2\n"


def test_an_id_ending_in_a_backslash_is_one_export_dot_error_line(capsys, tmp_path):
    path = tmp_path / "backslash.json"
    path.write_text(poset_to_json(FinitePoset.from_relations(["a\\", "c"], [(0, 1)])),
                    encoding="utf-8")
    code, out, err = run(capsys, "export-dot", "--space-file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "backslash" in err


def test_memory_error_is_one_error_line_naming_the_subcommand(capsys, monkeypatch):
    # The handler raises at once, so the test allocates nothing large.
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_homology", exhausted)
    code, out, err = run(capsys, "homology", "--group", "cyclic:2")
    assert (code, out, err) == (2, "", "error: homology ran out of memory\n")


def test_aut_budget_flag_overrides_env(capsys, tmp_path, monkeypatch):
    antichain = FinitePoset.from_relations([f"p{i}" for i in range(3)], [])
    path = tmp_path / "antichain.json"
    path.write_text(poset_to_json(antichain), encoding="utf-8")
    monkeypatch.setenv("POSETGROUPS_BUDGET_AUT", "1")
    code, out, _ = run(
        capsys, "aut", "--space-file", str(path), "--budget-aut", "100000", "--json"
    )
    assert code == 0
    assert json.loads(out)["order"] == 6


def test_aut_deep_search_stops_at_budget_without_traceback(capsys, tmp_path):
    # 1200 disjoint 2-chains: the individualization tree is 1200 levels deep
    chains = FinitePoset.from_relations(
        [f"c{i}" for i in range(2400)], [(2 * i, 2 * i + 1) for i in range(1200)]
    )
    path = tmp_path / "chains.json"
    path.write_text(poset_to_json(chains), encoding="utf-8")
    code, out, err = run(capsys, "aut", "--space-file", str(path), "--budget-aut", "5000")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "budget" in err and "Traceback" not in err


def test_selfmaps_deep_chain_stops_at_budget_without_traceback(capsys, tmp_path):
    # a 1500-point chain: the self-map search tree is 1500 levels deep
    chain = FinitePoset.from_relations(
        [f"c{i}" for i in range(1500)], [(i, i + 1) for i in range(1499)]
    )
    path = tmp_path / "chain.json"
    path.write_text(poset_to_json(chain), encoding="utf-8")
    code, out, err = run(
        capsys, "selfmaps", "--space-file", str(path),
        "--max-points", "2000", "--budget-maps", "5000",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--budget-maps" in err and "Traceback" not in err


PATHOLOGICAL_SPACES = {
    "antichain-60": FinitePoset.from_relations([f"a{i}" for i in range(60)], []),
    "2-chains-300": FinitePoset.from_relations(
        [f"c{i}" for i in range(600)], [(2 * i, 2 * i + 1) for i in range(300)]
    ),
    "empty": FinitePoset.from_relations([], []),
    "point": FinitePoset.from_relations(["x"], []),
}


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("command", ["core", "selfmaps", "aut", "homology", "h1-action"])
@pytest.mark.parametrize("name", sorted(PATHOLOGICAL_SPACES))
def test_pathological_spaces_exit_cleanly_and_fast(capsys, tmp_path, name, command, flags):
    # Huge symmetry groups, many components, no points at all: each command
    # answers or stops at a guard, with one error line and no traceback.
    path = tmp_path / "space.json"
    path.write_text(poset_to_json(PATHOLOGICAL_SPACES[name]), encoding="utf-8")
    started = time.perf_counter()
    code, out, err = run(capsys, command, "--space-file", str(path), *flags)
    assert time.perf_counter() - started < 2
    assert code in (0, 2)
    assert err.count("error:") <= 1 and err.count("\n") <= 1
    assert "Traceback" not in out + err
    if code == 0:
        assert out and not err
    else:
        assert err.startswith("error:") and not out


def test_build_rejects_non_string_point_ids(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"points": [[1]], "hasse": []}), encoding="utf-8")
    code, out, err = run(capsys, "build", "--space-file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


# -- malformed documents ---------------------------------------------------------

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=3)
)
NOT_STRINGS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.lists(st.integers(), max_size=2),
)
NOT_ARRAYS = st.one_of(SCALARS, st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
POINTS = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6, unique=True)


@st.composite
def bad_space_docs(draw):
    """A poset document that is wrong in one drawn way."""
    points = draw(POINTS)
    point = st.sampled_from(points)
    fault = draw(st.sampled_from(
        ["top", "points", "hasse", "arity", "ids", "edge-ids", "duplicate", "cycle",
         "non-reduced"]
    ))
    if fault == "top":
        return draw(st.one_of(SCALARS, st.lists(SCALARS, max_size=3)))
    if fault == "points":
        return {"points": draw(NOT_ARRAYS), "hasse": []}
    if fault == "hasse":
        return {"points": points, "hasse": draw(NOT_ARRAYS)}
    if fault == "arity":
        edge = draw(st.one_of(
            SCALARS, st.lists(point, max_size=4).filter(lambda e: len(e) != 2)
        ))
        return {"points": points, "hasse": [edge]}
    if fault == "ids":
        return {"points": points + [draw(NOT_STRINGS)], "hasse": []}
    if fault == "edge-ids":
        edge = [draw(st.one_of(NOT_STRINGS, st.just("zz"))), draw(point)]
        return {"points": points, "hasse": [draw(st.permutations(edge))]}
    if fault == "duplicate":
        return {"points": points + [draw(point)], "hasse": []}
    if fault == "cycle":
        loop = draw(st.lists(point, min_size=1, max_size=4, unique=True))
        return {"points": points, "hasse": [[a, b] for a, b in zip(loop, loop[1:] + loop[:1])]}
    # the edge x0 < x2 is implied by x0 < x1 < x2, so the list is not reduced
    return {
        "points": points + ["x0", "x1", "x2"],
        "hasse": draw(st.permutations([["x0", "x1"], ["x1", "x2"], ["x0", "x2"]])),
    }


@st.composite
def bad_group_docs(draw):
    """A group document that is wrong in one drawn way."""
    n = draw(st.integers(1, 4))
    labels = ["e", "a", "b", "c"][:n]
    cyclic = [[(i + j) % n for j in range(n)] for i in range(n)]
    fault = draw(st.sampled_from(
        ["top", "labels", "label-type", "cayley", "row-type", "entry-type", "arity",
         "duplicate", "not-a-group", "order"]
    ))
    if fault == "top":
        return draw(st.one_of(SCALARS, st.lists(SCALARS, max_size=3)))
    if fault == "labels":
        return {"labels": draw(NOT_ARRAYS), "cayley": cyclic}
    if fault == "label-type":
        return {"labels": labels + [draw(NOT_STRINGS)], "cayley": cyclic}
    if fault == "cayley":
        return {"labels": labels, "cayley": draw(NOT_ARRAYS)}
    if fault == "row-type":
        return {"labels": labels, "cayley": cyclic[1:] + [draw(SCALARS)]}
    if fault == "entry-type":
        bad = draw(st.one_of(st.booleans(), st.floats(), st.text(max_size=2), st.none()))
        return {"labels": labels, "cayley": [[bad] + row[1:] for row in cyclic]}
    if fault == "arity":
        rows = draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=1, max_size=5
        ).filter(lambda rows: len(rows) != n))
        return {"labels": labels, "cayley": rows}
    if fault == "duplicate":
        return {"labels": labels + ["e"], "cayley": [row + [0] for row in cyclic] + [[0] * (n + 1)]}
    if fault == "not-a-group":
        # row 0 all zeros: whatever the identity is, element 0 has no inverse
        rest = draw(st.lists(
            st.lists(st.integers(0, n), min_size=n + 1, max_size=n + 1), min_size=n, max_size=n
        ))
        return {"labels": labels + ["z"], "cayley": [[0] * (n + 1)] + rest}
    return {"labels": labels, "cayley": cyclic, "order": n + draw(st.integers(1, 10**12))}


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("docs") / "doc.json"


def run_on_document(path, doc, *argv):
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(doc=bad_space_docs())
def test_malformed_space_files_exit_2_with_one_error_line(doc_path, doc):
    code, out, err = run_on_document(doc_path, doc, "homology", "--space-file")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


@settings(max_examples=200, deadline=None)
@given(doc=bad_group_docs())
def test_malformed_group_files_exit_2_with_one_error_line(doc_path, doc):
    code, out, err = run_on_document(
        doc_path, doc, "verify-all", "--gens", "a", "--group-file"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
