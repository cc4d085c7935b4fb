"""GF(2) linear algebra on int bitsets.

Rows are Python ints; bit j is column j. Arbitrary-precision ints give
word-packed XOR for free and stay fast at the matrix sizes used here.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, chain
from operator import xor

import numpy as np


def rank(rows: list[int]) -> int:
    """Rank over GF(2). Does not modify the input."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            b = row.bit_length() - 1
            if b not in pivots:
                pivots[b] = row
                break
            row ^= pivots[b]
    return len(pivots)


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


def codewords(rows: list[int], n_cols: int) -> Iterator[int]:
    """Every nonzero x with M x = 0 over GF(2), as a column bitset, in
    Gray-code order: step i adds basis vector (lowest set bit of i).

    The basis, built on the call, has one vector per free column of
    rref(rows), ascending, with a 1 in that column and the matching
    pivot-row entries. The steps over its lower half are listed once and
    replayed around each step over its upper half, all in C iterators.
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
    half = (len(basis) + 1) // 2
    low, high = _gray_steps(basis[:half]), _gray_steps(basis[half:])
    steps = chain(low, chain.from_iterable(chain((v,), low) for v in high))
    return accumulate(steps, xor)


def _gray_steps(vectors: list[int]) -> list[int]:
    """The vector each step of a Gray-code walk over vectors adds."""
    steps = []
    for v in vectors:
        steps = steps + [v] + steps
    return steps


def bit_positions(x: int) -> np.ndarray:
    """Indices of the set bits of a bitset, ascending."""
    raw = np.frombuffer(x.to_bytes((x.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def poly_gcd(a: int, b: int) -> int:
    """gcd of two GF(2) polynomials as int bitsets (bit i = coefficient
    of x^i); 0 only when both are 0."""
    while b:
        db = b.bit_length()
        while (shift := a.bit_length() - db) >= 0:
            a ^= b << shift
        a, b = b, a
    return a
