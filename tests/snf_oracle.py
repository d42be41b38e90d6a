"""Reference Smith reduction, kept for tests only.

``oracle_smith_normal_form`` is the elimination that clears each pivot
row with general column operations (``col_add``, over every row holding
the source column).  The library reduces the pivot row's entries modulo
the pivot in place instead, which is the same operation once the pivot
column holds the pivot alone; the property test compares the two on
``diag``, ``pivot_rows``, ``U`` and ``U^{-1}``.
"""

from __future__ import annotations

from posetgroups.snf import SNFResult, _axpy


def oracle_smith_normal_form(
    triples, nrows: int, ncols: int, *, want_transform: bool = False
) -> SNFResult:
    """:func:`posetgroups.smith_normal_form`, clearing pivot rows with ``col_add``."""
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for r, c, v in triples:
        if v == 0:
            continue
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise ValueError(f"entry ({r}, {c}) out of range")
        row = rows.setdefault(r, {})
        row[c] = row.get(c, 0) + v
        if row[c] == 0:
            del row[c]
            if not row:
                del rows[r]
        else:
            col_rows.setdefault(c, set()).add(r)
    for c in list(col_rows):
        col_rows[c] = {r for r in col_rows[c] if c in rows.get(r, {})}
        if not col_rows[c]:
            del col_rows[c]

    # rows of U and columns of U^-1; both start as the identity
    u = [{i: 1} for i in range(nrows)] if want_transform else None
    u_inv = [{i: 1} for i in range(nrows)] if want_transform else None

    def row_add(dst: int, src: int, q: int):
        """row[dst] += q * row[src] (and mirror on the transforms)."""
        if q == 0:
            return
        drow = rows.setdefault(dst, {})
        for c, v in rows.get(src, {}).items():
            new = drow.get(c, 0) + q * v
            if new:
                drow[c] = new
                col_rows.setdefault(c, set()).add(dst)
            elif c in drow:
                del drow[c]
                col_rows[c].discard(dst)
                if not col_rows[c]:
                    del col_rows[c]
        if not drow:
            rows.pop(dst, None)
        if u is not None:
            _axpy(u[dst], u[src], q)
            _axpy(u_inv[src], u_inv[dst], -q)  # col[src] -= q * col[dst]

    def col_add(dst: int, src: int, q: int):
        """col[dst] += q * col[src] (right transform; not tracked)."""
        if q == 0:
            return
        for r in list(col_rows.get(src, ())):
            v = rows[r].get(src, 0)
            new = rows[r].get(dst, 0) + q * v
            if new:
                rows[r][dst] = new
                col_rows.setdefault(dst, set()).add(r)
            else:
                rows[r].pop(dst, None)
                if dst in col_rows:
                    col_rows[dst].discard(r)
                    if not col_rows[dst]:
                        del col_rows[dst]

    def negate_row(r: int):
        for c in rows.get(r, {}):
            rows[r][c] = -rows[r][c]
        if u is not None:
            u[r] = {k: -v for k, v in u[r].items()}
            u_inv[r] = {k: -v for k, v in u_inv[r].items()}

    diag: list[int] = []
    pivot_rows: list[int] = []
    done_cols: set[int] = set()

    # Columns are consumed left to right; the pointer stalls on a column
    # until it is emptied or hosts a pivot.  Within a column the pivot row
    # favours units, small magnitude, then sparsity — all deterministic.
    next_col = 0
    while True:
        while next_col < ncols and (next_col in done_cols or not col_rows.get(next_col)):
            next_col += 1
        if next_col == ncols:
            break
        c = next_col
        r = min(
            col_rows[c],
            key=lambda rr: (abs(rows[rr][c]) != 1, abs(rows[rr][c]), len(rows[rr]), rr),
        )
        while True:
            p = rows[r][c]
            # Clear the pivot column with row operations.
            dirty = False
            for r2 in sorted(col_rows.get(c, set()) - {r}):
                v = rows[r2][c]
                row_add(r2, r, -(v // p))
                if rows.get(r2, {}).get(c):
                    # Non-zero remainder: it is strictly smaller, swap roles.
                    r = r2
                    dirty = True
                    break
            if dirty:
                continue
            # Clear the pivot row with column operations.
            dirty = False
            for c2 in sorted(set(rows.get(r, {})) - {c}):
                v = rows[r][c2]
                col_add(c2, c, -(v // p))
                if rows.get(r, {}).get(c2):
                    c = c2
                    dirty = True
                    break
            if not dirty:
                break
        if rows[r][c] < 0:
            negate_row(r)
        diag.append(rows[r][c])
        pivot_rows.append(r)
        done_cols.add(c)

    return SNFResult(
        nrows,
        ncols,
        tuple(diag),
        tuple(pivot_rows),
        tuple(u) if u is not None else None,
        tuple(u_inv) if u_inv is not None else None,
    )
