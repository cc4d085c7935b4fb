"""GF(2) linear algebra on int bitsets.

Rows are Python ints; bit j is column j. Arbitrary-precision ints give
word-packed XOR for free and stay fast at the matrix sizes used here.
"""

from __future__ import annotations

import numpy as np


def rank(rows: list[int]) -> int:
    """Rank over GF(2). Does not modify the input."""
    pivots: dict[int, int] = {}
    r = 0
    for row in rows:
        row = _reduce(row, pivots)
        if row:
            pivots[row.bit_length() - 1] = row
            r += 1
    return r


def _reduce(row: int, pivots: dict[int, int]) -> int:
    while row:
        b = row.bit_length() - 1
        piv = pivots.get(b)
        if piv is None:
            return row
        row ^= piv
    return 0


def rref(rows: list[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns); reduced_rows[i] has its
    leading 1 in pivot_columns[i] and every pivot column is cleared in
    all other rows.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        # clear every existing pivot column from the incoming row; each
        # pivot row holds no other pivot bits, so one pass suffices
        for c, r in pivots.items():
            if (row >> c) & 1:
                row ^= r
        if not row:
            continue
        b = row.bit_length() - 1
        for c, r in list(pivots.items()):
            if (r >> b) & 1:
                pivots[c] = r ^ row
        pivots[b] = row
    cols = sorted(pivots)
    return [pivots[c] for c in cols], cols


def nullspace(rows: list[int], n_cols: int) -> list[int]:
    """Basis of {x : M x = 0} over GF(2), as column bitsets.

    One basis vector per free column, each with a 1 in its own free
    column and the matching pivot-row entries.
    """
    red, piv_cols = rref(rows)
    piv_set = set(piv_cols)
    basis = []
    for j in range(n_cols):
        if j in piv_set:
            continue
        vec = 1 << j
        for row, pc in zip(red, piv_cols):
            if (row >> j) & 1:
                vec |= 1 << pc
        basis.append(vec)
    return basis


def bit_positions(x: int) -> np.ndarray:
    """Indices of the set bits of a bitset, ascending."""
    raw = np.frombuffer(x.to_bytes((x.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))
