"""Golden digests of deterministic CLI output.

Each entry of ``output_digests.json`` names an argument list for
``cli.main``, its exit code and the sha256 of everything it wrote to
stdout.  Only outputs without timings are listed, so a refactor that keeps
every report byte-identical keeps every digest.  After a deliberate change
to an output, regenerate the file with
``PYTHONPATH=src python3 tests/test_output_digests.py`` and name the
changed entries in the change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import pytest

from posetgroups import (
    FinitePoset,
    PosetMap,
    build_space,
    builtin_group,
    homotopy,
    spec_for,
    standard_generator_labels,
)
from posetgroups.cli import main
from posetgroups.complexes import OrderComplex

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output_digests.json")


def _verify_all(*args):
    return ("verify-all",) + args


COMMANDS = (
    [_verify_all("--group", g) for g in (
        "cyclic:8", "quaternion8", "dihedral:4", "symmetric:3", "dihedral:6", "symmetric:4",
    )]
    + [
        _verify_all("--group", "cyclic:3", "--mode", mode, *pointed)
        for mode in ("sandt", "sonly", "none")
        for pointed in ((), ("--pointed",))
    ]
    + [_verify_all("--group", g, "--pointed") for g in ("klein4", "dihedral:3")]
    + [
        _verify_all("--group", "cyclic:4", "--gens", "a2", "--allow-non-generating",
                    "--mode", mode, *pointed)
        for mode in ("sandt", "sonly", "none")
        for pointed in ((), ("--pointed",))
    ]
    + [
        ("aut", "--group", "symmetric:4", "--json"),
        ("h1-action", "--group", "dihedral:6", "--json"),
        ("h1-action", "--group", "cyclic:1", "--json"),
        ("homology", "--group", "dihedral:4", "--json"),
        ("homology", "--group", "symmetric:4"),
        ("homology", "--group", "cyclic:4", "--gens", "a2", "--allow-non-generating",
         "--mode", "none", "--json"),
        ("build", "--group", "cyclic:2", "--mode", "sandt:2", "--pointed", "--json"),
        ("export-dot", "--group", "cyclic:2"),
        ("core", "--group", "symmetric:3", "--mode", "none", "--json"),
        ("selfmaps", "--group", "cyclic:2", "--mode", "none", "--json"),
    ]
)


def run(argv) -> tuple[int, str]:
    """Exit code and sha256 of the stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _load():
    with open(DIGESTS, encoding="utf-8") as fh:
        return {" ".join(entry["argv"]): entry for entry in json.load(fh)}


def test_every_command_has_a_digest():
    assert sorted(_load()) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_matches_its_digest(argv):
    entry = _load()[" ".join(argv)]
    assert run(argv) == (entry["exit"], entry["sha256"])


@pytest.mark.parametrize("argv", [
    ("verify-all", "--group", "dihedral:4"),
    ("homology", "--group", "dihedral:4", "--json"),
    ("h1-action", "--group", "dihedral:6", "--json"),
], ids=" ".join)
def test_no_command_lists_the_chains(argv, monkeypatch):
    # Homology and its action are read off the covering graph and the
    # simplex counts; listing the chains of a complex is for the oracles.
    def listed(cx):
        raise AssertionError("the chains of an order complex were listed")

    monkeypatch.setattr(OrderComplex, "simplices", property(listed))
    entry = _load()[" ".join(argv)]
    assert run(argv) == (entry["exit"], entry["sha256"])


@pytest.mark.parametrize("argv", [
    ("verify-all", "--group", "dihedral:4"),
    ("homology", "--group", "dihedral:4", "--json"),
    ("h1-action", "--group", "dihedral:6", "--json"),
    ("aut", "--group", "symmetric:4", "--json"),
    ("core", "--group", "symmetric:3", "--mode", "none", "--json"),
], ids=" ".join)
def test_no_command_reads_an_order_bitmask(argv, monkeypatch):
    # The order is kept as sorted down-set and up-set tuples, so there is
    # no bitmask of it to read; only the self-map enumerators build
    # candidate bitsets, from the covers.  Every poset the command builds
    # is checked.
    built = []
    init = FinitePoset.__init__

    def recording(poset, *args):
        init(poset, *args)
        built.append(poset)

    monkeypatch.setattr(FinitePoset, "__init__", recording)
    entry = _load()[" ".join(argv)]
    assert run(argv) == (entry["exit"], entry["sha256"])
    assert built
    for poset in built:
        assert_stored_as_sorted_tuples(poset)


@pytest.mark.parametrize("group, pointed", [("symmetric:4", False), ("dihedral:4", True)])
def test_built_spaces_store_the_order_as_sorted_tuples(group, pointed):
    spec = spec_for(builtin_group(group), standard_generator_labels(group), pointed=pointed)
    assert_stored_as_sorted_tuples(build_space(spec))


def assert_stored_as_sorted_tuples(poset):
    """Every down-set and up-set is stored as an ascending tuple of ints,
    and together they hold exactly the points ``set_sizes`` counts."""
    for sets in (poset._down, poset._up):
        assert type(sets) is tuple and len(sets) == len(poset)
        for members in sets:
            assert type(members) is tuple
            assert all(type(j) is int for j in members)
            assert list(members) == sorted(set(members))
    assert sum(map(len, poset._down + poset._up)) == sum(map(sum, poset.set_sizes))


class _Unhashable(tuple):
    def __hash__(self):
        raise AssertionError("a whole image tuple was hashed")


@pytest.mark.parametrize("argv", [
    ("verify-all", "--group", "dihedral:6"),
    ("verify-all", "--group", "cyclic:3", "--mode", "sandt", "--pointed"),
], ids=" ".join)
def test_no_check_hashes_the_images_of_an_automorphism(argv, monkeypatch):
    # An automorphism is found by its images on the search's base
    # (AutomorphismGroup.index), never as a key or member of whole images.
    search = homotopy.all_automorphisms

    def wrapped(space, **kwargs):
        found = search(space, **kwargs)
        unhashable = type(found)(PosetMap._trusted(m.source, m.target, _Unhashable(m.images))
                                 for m in found)
        unhashable.base, unhashable.gens = found.base, found.gens
        return unhashable

    monkeypatch.setattr(homotopy, "all_automorphisms", wrapped)
    entry = _load()[" ".join(argv)]
    assert run(argv) == (entry["exit"], entry["sha256"])

if __name__ == "__main__":
    entries = []
    for argv in COMMANDS:
        code, digest = run(argv)
        entries.append({"argv": list(argv), "exit": code, "sha256": digest})
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
