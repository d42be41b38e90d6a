"""Reference associativity check, kept for tests only.

``oracle_check_associative`` tests every triple (a, b, c) of a
multiplication table, n³ comparisons.  It is slow but obviously correct,
and the property tests compare the generating-set check that
:class:`posetgroups.FiniteGroup` runs against it.
"""

from __future__ import annotations

from posetgroups import GroupError


def oracle_check_associative(labels, table) -> None:
    """Raise :class:`GroupError` on the first triple with (a·b)·c ≠ a·(b·c)."""
    n = len(labels)
    for a in range(n):
        row_a = table[a]
        for b in range(n):
            row_ab = table[row_a[b]]
            row_b = table[b]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    raise GroupError(
                        f"associativity fails on ({labels[a]}, {labels[b]}, {labels[c]})"
                    )
