"""Command-line interface.

Every subcommand works on either a built-in construction (``--group
cyclic:3``) or a space loaded from JSON (``--space-file``).  Output goes to
stdout unless ``--out`` is given; ``--json`` switches the machine format.
The process exits 0 when everything requested succeeded, 1 when a
verification reported failures, and 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from .complexes import (
    cycle_basis,
    h1_action_ids,
    homology_summary,
    order_complex,
)
from .errors import PosetError, SizeLimitExceeded
from .groups import FiniteGroup, builtin_group, standard_generator_labels
from .homotopy import (
    DEFAULT_MAP_BUDGET,
    DEFAULT_MAP_POINTS,
    AutomorphismGroup,
    core,
    enumerate_selfmaps,
    homotopy_classes,
)
from .labels import label_id
from .posets import FinitePoset
from .search import DEFAULT_AUT_BUDGET
from .serialize import export_dot, group_from_json, poset_from_json, poset_to_doc
from .spaces import ConstructionSpec, build_space, spec_for
from .verify import CHECK_NAMES, VerifyOptions, verify_all, verify_one


# Flags whose default comes from the environment.  The variable is read
# only when the parsed subcommand has the flag and it was not passed, so a
# bad value breaks no other command.
_ENV_DEFAULTS = {
    "budget_aut": ("POSETGROUPS_BUDGET_AUT", DEFAULT_AUT_BUDGET),
    "budget_maps": ("POSETGROUPS_BUDGET_MAPS", DEFAULT_MAP_BUDGET),
}
_COUNT_FLAGS = ("budget_aut", "budget_maps", "max_points")


def _not_negative(name: str, value: int) -> int:
    if value < 0:
        raise ValueError(f"{name} must not be negative; got {value}")
    return value


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer; got {raw!r}") from None
    return _not_negative(name, value)


def _entries(flag: str, text: str) -> list[str]:
    """Comma-separated entries, blanks stripped: a blank text has none, and an empty one raises."""
    if not text.strip():
        return []
    entries = [entry.strip() for entry in text.split(",")]
    if "" in entries:
        raise ValueError(f"{flag} has an empty entry: {text!r}")
    return entries


def _add_construction_args(parser: argparse.ArgumentParser, *, with_space_file=False):
    parser.add_argument(
        "--group",
        help="builtin group, e.g. cyclic:5, klein4, dihedral:4, symmetric:3, quaternion8",
    )
    parser.add_argument("--group-file", help="JSON file with a multiplication table")
    parser.add_argument(
        "--gens",
        help="comma-separated generator labels (default: the builtin family's standard set)",
    )
    parser.add_argument(
        "--mode",
        default="sandt",
        help="attachment mode: none, sonly, sandt, or sandt:N for fence size N",
    )
    parser.add_argument("--pointed", action="store_true", help="add the fixed basepoint")
    parser.add_argument(
        "--allow-non-generating",
        action="store_true",
        help="accept generator lists that only span a subgroup",
    )
    if with_space_file:
        parser.add_argument(
            "--space-file", help="operate on a JSON space instead of a construction"
        )


def _resolve_group(args) -> tuple[FiniteGroup, list[str]]:
    if args.group and args.group_file:
        raise PosetError("pass either --group or --group-file, not both")
    if args.group:
        group = builtin_group(args.group)
        default_gens = standard_generator_labels(args.group)
    elif args.group_file:
        with open(args.group_file, encoding="utf-8") as fh:
            group = group_from_json(fh.read())
        default_gens = None
    else:
        raise PosetError("a group is required: pass --group or --group-file")
    if args.gens is not None:
        gens = _entries("--gens", args.gens)
    elif default_gens is not None:
        gens = default_gens
    else:
        raise PosetError("--group-file needs an explicit --gens list")
    return group, gens


def _resolve_spec(args) -> ConstructionSpec:
    group, gens = _resolve_group(args)
    return spec_for(
        group,
        gens,
        mode=args.mode,
        pointed=args.pointed,
        require_generating=not args.allow_non_generating,
    )


def _resolve_space(args) -> FinitePoset:
    if getattr(args, "space_file", None):
        if args.group or args.group_file:
            raise PosetError("pass either --space-file or construction flags, not both")
        with open(args.space_file, encoding="utf-8") as fh:
            return poset_from_json(fh.read())
    return build_space(_resolve_spec(args))


def _emit(text: str, args) -> None:
    _emit_chunks((text,), args)


def _emit_chunks(chunks, args) -> None:
    """Write the chunks in order as one text, ending it with a newline."""
    sink = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with sink as fh:
        last = ""
        for last in chunks:
            fh.write(last)
        if not (args.out and last.endswith("\n")):
            fh.write("\n")


def _json_chunks(fields, streamed):
    """The text of ``json.dumps(dict(fields), indent=2)``, in chunks.

    A field named in ``streamed`` holds an iterable, written by
    :func:`_json_list`; every other field is written whole.  ``fields``
    is read lazily, a field only after the one before it is written.
    """
    sep = "{"
    for key, value in fields:
        yield sep + f"\n  {json.dumps(key)}: "
        if key in streamed:
            yield from _json_list(value, "\n  ")
        else:
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
        sep = ","
    yield "{}" if sep == "{" else "\n}"


def _json_list(values, newline):
    """``json.dumps(list(values), indent=2)``, lines after the first led by
    ``newline``, one element at a time and a list of lists one row at a time."""
    sep = "["
    for value in values:
        yield sep + newline + "  "
        if isinstance(value, (list, tuple)) and value and isinstance(value[0], (list, tuple)):
            yield from _json_list(value, newline + "  ")
        else:
            yield json.dumps(value, indent=2).replace("\n", newline + "  ")
        sep = ","
    yield "[]" if sep == "[" else newline + "]"


def _cmd_build(args) -> int:
    space = _resolve_space(args)
    if args.json:
        _emit(json.dumps(poset_to_doc(space), indent=2), args)
        return 0
    beats = space.beat_points()
    lines = [
        f"points: {len(space)}",
        f"cover relations: {len(space.hasse)}",
        f"components: {len(space.components())}",
        f"beat points: {len(beats)}",
    ]
    _emit("\n".join(lines), args)
    return 0


def _cmd_aut(args) -> int:
    space = _resolve_space(args)
    auts = AutomorphismGroup.of(space, budget=args.budget_aut)
    # Both formats write one chunk per map, so only that map's text is ever
    # held (about 1 MB for one map of the symmetric:6 space).
    if args.json:
        _emit_chunks(_json_chunks([
            ("order", auts.order),
            ("acts_freely", auts.acts_freely()),
            ("maps", (m.images for m in auts.maps)),
            ("table", auts.table),
        ], streamed={"maps", "table"}), args)
        return 0
    ids = [label_id(label) for label in space.labels]

    def text_chunks():
        yield f"automorphisms: {auts.order}\nacts freely: {'yes' if auts.acts_freely() else 'no'}"
        for k, m in enumerate(auts.maps):
            moved = [f"{ids[i]}->{ids[j]}" for i, j in enumerate(m.images) if i != j]
            yield f"\nf{k}: " + (" ".join(moved) if moved else "identity")

    _emit_chunks(text_chunks(), args)
    return 0


def _cmd_core(args) -> int:
    space = _resolve_space(args)
    result = core(space)
    if args.json:
        doc = {
            "core": poset_to_doc(result.poset),
            "trace": [[label_id(lab), kind] for lab, kind in result.trace],
        }
        _emit(json.dumps(doc, indent=2), args)
        return 0
    lines = [
        f"points: {len(space)} -> core {len(result.poset)}",
        f"beat points removed: {len(result.trace)}",
    ]
    for lab, kind in result.trace:
        lines.append(f"  removed {label_id(lab)} ({kind})")
    _emit("\n".join(lines), args)
    return 0


def _cmd_selfmaps(args) -> int:
    space = _resolve_space(args)
    maps = enumerate_selfmaps(space, max_points=args.max_points, budget=args.budget_maps)
    classes = homotopy_classes(maps)
    if args.json:
        doc = {
            "selfmaps": len(maps),
            "homotopy_classes": classes.class_count,
            "invertible_maps": len(classes.equivalences),
            "maps": [list(m.images) for m in maps],
            "class_ids": list(classes.class_ids),
        }
        _emit(json.dumps(doc, indent=2), args)
        return 0
    lines = [
        f"continuous self-maps: {len(maps)}",
        f"homotopy classes: {classes.class_count}",
        f"maps with a homotopy inverse: {len(classes.equivalences)}",
        f"equivalence-class group order: {classes.group.order}",
    ]
    _emit("\n".join(lines), args)
    return 0


def _cmd_homology(args) -> int:
    space = _resolve_space(args)
    cx = order_complex(space)
    hs = homology_summary(cx)
    # a spanning forest leaves E - V + C non-tree covers
    cycle_rank = len(cycle_basis(cx).nontree)
    if args.json:
        doc = {
            "simplex_counts": list(cx.counts),
            "b0": hs.b0,
            "b1": hs.b1,
            "h1_torsion": list(hs.h1_torsion),
            "covering_graph_cycle_rank": cycle_rank,
        }
        _emit(json.dumps(doc, indent=2), args)
        return 0
    lines = [
        "simplices by dimension: " + ", ".join(map(str, cx.counts)),
        f"b0 = {hs.b0}",
        f"b1 = {hs.b1}",
        f"H1 torsion: {list(hs.h1_torsion) if hs.h1_torsion else 'none'}",
        f"covering-graph cycle rank: {cycle_rank}",
    ]
    _emit("\n".join(lines), args)
    return 0


def _cmd_h1_action(args) -> int:
    space = _resolve_space(args)
    basis = cycle_basis(order_complex(space))
    auts = AutomorphismGroup.of(space, budget=args.budget_aut)
    # Each map's row ids are computed and its matrix written a row at a time
    # before the next map, so one row of text is held at a time, and each
    # distinct dense row once.  The ids are kept for ``distinct``, a
    # reference per row.
    seen = []
    dense = basis.interned.dense

    def matrices():
        for m in auts.maps:
            seen.append(h1_action_ids(basis, m))
            yield tuple(map(dense.__getitem__, seen[-1]))

    def distinct() -> bool:
        return len(set(seen)) == len(seen)

    if args.json:
        def fields():
            yield "betti", basis.betti
            yield "order", auts.order
            yield "matrices", matrices()
            yield "distinct", distinct()  # read once every matrix is written

        _emit_chunks(_json_chunks(fields(), streamed={"matrices"}), args)
        return 0

    def text_chunks():
        yield f"rank of first homology: {basis.betti}\nautomorphisms: {auts.order}\n"
        for k, rows in enumerate(matrices()):
            yield f"f{k}:\n"
            for row in rows:
                yield "  " + " ".join(f"{v:3d}" for v in row) + "\n"
        yield "matrices pairwise distinct: " + ("yes" if distinct() else "no")

    _emit_chunks(text_chunks(), args)
    return 0


def _cmd_export_dot(args) -> int:
    space = _resolve_space(args)
    _emit(export_dot(space), args)
    return 0


def _verify_options(args) -> VerifyOptions:
    entries = _entries("--fences", args.fences)
    try:
        fences = tuple(map(int, entries))
    except ValueError:
        raise ValueError(f"--fences takes comma-separated integers; got {args.fences!r}") from None
    return VerifyOptions(
        fence_range=fences,
        budget_aut=args.budget_aut,
        skip=frozenset(getattr(args, "skip", None) or ()),
    )


def _report_exit(report, args) -> int:
    _emit(report.to_json() if args.json else report.to_text(), args)
    return 0 if report.ok else 1


def _cmd_verify(args) -> int:
    spec = _resolve_spec(args)
    return _report_exit(verify_one(spec, args.check, _verify_options(args)), args)


def _cmd_verify_all(args) -> int:
    spec = _resolve_spec(args)
    return _report_exit(verify_all(spec, _verify_options(args)), args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetgroups",
        description="finite spaces whose symmetries realize a chosen finite group",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, *, space_file=False, aut_budget=False):
        p = sub.add_parser(name, help=help_text)
        _add_construction_args(p, with_space_file=space_file)
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--json", action="store_true", help="emit JSON")
        if aut_budget:
            p.add_argument(
                "--budget-aut",
                type=int,
                help="search-node budget for automorphism/isomorphism search",
            )
        p.set_defaults(handler=handler)
        return p

    add("build", _cmd_build, "construct a space and summarize or dump it", space_file=True)
    add("aut", _cmd_aut, "enumerate automorphisms", space_file=True, aut_budget=True)
    add("core", _cmd_core, "strip beat points down to the core", space_file=True)
    p = add(
        "selfmaps",
        _cmd_selfmaps,
        "enumerate continuous self-maps and homotopy classes (small spaces)",
        space_file=True,
    )
    p.add_argument(
        "--max-points",
        type=int,
        default=DEFAULT_MAP_POINTS,
        help="refuse spaces larger than this (exhaustive search guard)",
    )
    p.add_argument(
        "--budget-maps",
        type=int,
        help="search-node budget for self-map enumeration",
    )
    add("homology", _cmd_homology, "Betti numbers and torsion of the order complex",
        space_file=True)
    add("h1-action", _cmd_h1_action, "matrices of automorphisms on first homology",
        space_file=True, aut_budget=True)
    add("export-dot", _cmd_export_dot, "Graphviz DOT of the cover relations",
        space_file=True)

    p = add("verify", _cmd_verify, "run a single named check", aut_budget=True)
    p.add_argument("--check", required=True, choices=CHECK_NAMES)
    p.add_argument("--fences", default="1,2,3", help="fence sizes for variant checks")

    p = add("verify-all", _cmd_verify_all, "run the full verification registry",
            aut_budget=True)
    p.add_argument("--fences", default="1,2,3", help="fence sizes for variant checks")
    p.add_argument(
        "--skip", action="append", choices=CHECK_NAMES, help="skip a named check"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for dest, (name, fallback) in _ENV_DEFAULTS.items():
            if hasattr(args, dest) and getattr(args, dest) is None:
                setattr(args, dest, _env_int(name, fallback))
        for dest in _COUNT_FLAGS:  # a variable's value is already checked
            if hasattr(args, dest):
                _not_negative("--" + dest.replace("_", "-"), getattr(args, dest))
        return args.handler(args)
    except (PosetError, SizeLimitExceeded, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # The last resort: no layer's budget stopped the input in time.
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
