"""Spans around the public calls into each layer, installed from outside.

``Tracer.install`` replaces each traced function of ``posetgroups`` with a
wrapper that records a span ``(name, start, end, parent)``.  The wrapper
goes where the function is defined and into every loaded module that
imported it by name, because modules such as ``verify``, ``cli``,
``homotopy`` and ``complexes`` (and the benchmark's own ``workloads``)
bind ``cycle_basis``, ``h1_action_matrix``, ``all_automorphisms`` and
``smith_normal_form`` at import time.  Work
counts are taken at the same boundaries from arguments and results.
Spans stay in memory; ``layer_metrics`` turns a slice of them into calls
and self time per layer (a span's duration minus its children's).
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter


def _snf_counts(counts, args, kwargs, result):
    triples, nrows = args[0], args[1]
    counts["snf.input_nnz"] += sum(1 for _, _, v in triples if v)
    if kwargs.get("want_transform"):
        counts["snf.transform_calls"] += 1
        # U and U^-1 are dense nrows x nrows lists (computed, not measured)
        counts["snf.dense_transform_slots"] += 2 * nrows * nrows


def _count(key, measure):
    def counter(counts, args, kwargs, result):
        counts[key] += measure(args, result)
    return counter


# (module, attribute path, span name, work counter or None).  Paths with a
# dot name a class attribute: ``of`` and ``from_relations`` are classmethods,
# ``__post_init__`` runs for every dataclass instance built.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("serialize", "group_from_json", "serialize.group_from_json", None),
    ("groups", "FiniteGroup.__post_init__", "groups.finitegroup", None),
    ("spaces", "build_space", "spaces.build_space", None),
    ("spaces", "collapse_map", "spaces.collapse_map", None),
    ("posets", "FinitePoset.from_relations", "posets.from_relations",
     _count("posets.points_built", lambda a, r: len(r))),
    ("posets", "FinitePoset.induced", "posets.induced", None),
    ("posets", "PosetMap.__post_init__", "posets.posetmap", None),
    ("search", "all_automorphisms", "search.all_automorphisms",
     _count("search.automorphisms_found", lambda a, r: len(r))),
    ("search", "find_isomorphism", "search.find_isomorphism", None),
    ("homotopy", "AutomorphismGroup.of", "homotopy.aut_group",
     _count("homotopy.aut_table_entries", lambda a, r: r.order * r.order)),
    ("homotopy", "extension_restriction_check", "homotopy.extension_check", None),
    ("homotopy", "core", "homotopy.core",
     _count("homotopy.core.removed", lambda a, r: len(r.trace))),
    ("homotopy", "enumerate_selfmaps", "homotopy.selfmaps",
     _count("homotopy.selfmaps.found", lambda a, r: len(r))),
    ("homotopy", "homotopy_classes", "homotopy.classes",
     _count("homotopy.classes.pairs", lambda a, r: len(a[0]) * (len(a[0]) - 1) // 2)),
    ("complexes", "order_complex", "complexes.order_complex",
     _count("complexes.simplices", lambda a, r: sum(map(len, r.simplices)))),
    ("complexes", "chain_complex", "complexes.chain_complex", None),
    ("complexes", "homology_summary", "complexes.homology_summary", None),
    ("complexes", "cycle_basis", "complexes.cycle_basis",
     _count("complexes.nontree_edges", lambda a, r: len(r.nontree))),
    ("complexes", "h1_action_matrix", "complexes.h1_action_matrix", None),
    ("snf", "smith_normal_form", "snf.smith_normal_form", _snf_counts),
)

class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def span(self, name: str, fn):
        """Run ``fn()`` inside a root span (one per benchmark operation)."""
        return self.wrap(name, fn)()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = list(sys.modules.values())
        for module_name, path, name, counter in TARGETS:
            module = sys.modules[f"posetgroups.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self.wrap(name, raw.__func__, counter)))
                else:
                    self._set(owner, attr, self.wrap(name, raw, counter))
                continue
            original = getattr(module, path)
            traced = self.wrap(name, original, counter)
            for other in modules:
                for key, value in list(getattr(other, "__dict__", {}).items()):
                    if value is original:
                        self._set(other, key, traced)
        verify = sys.modules["posetgroups.verify"]
        self._set(verify, "REGISTRY", tuple(
            (check, self.wrap(f"verify.check.{check}", fn)) for check, fn in verify.REGISTRY
        ))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def layer_metrics(spans, first: int, last: int) -> dict[str, float]:
    """Calls and self seconds per span name over ``spans[first:last]``."""
    child_time = [0.0] * (last - first)
    for name, start, end, parent in spans[first:last]:
        if parent >= first:
            child_time[parent - first] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for k, (name, start, end, parent) in enumerate(spans[first:last]):
        calls[name] += 1
        self_s[name] += end - start - child_time[k]
    out = {}
    for name in set(calls):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    return out
