"""The package exports only names that the package itself or the README uses."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import posetgroups

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_is_read_in_the_package_or_named_in_the_readme():
    read = set()
    for path in Path(posetgroups.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    named = set(re.findall(r"\w+", README.read_text(encoding="utf-8")))
    assert [name for name in posetgroups.__all__ if name not in read | named] == []
