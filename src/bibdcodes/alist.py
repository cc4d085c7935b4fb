"""alist import/export (MacKay convention).

Layout: line 1 "N M" (columns, rows); line 2 max column/row weights;
then per-column weights, per-row weights; then one line per column of
1-based row indices and one line per row of 1-based column indices,
each zero-padded to the declared maximum. Export is canonical
(single spaces, trailing newline) so round-trips are byte-identical.

Import reads the whole text as one int64 token array and checks it
with array comparisons. Blank lines are skipped, and so is a line that
would hold no tokens (the weight line of an empty dimension, the index
lines when the declared maximum weight is 0). Index lines may omit
their zero padding. Any other departure from the layout raises
ValueError("alist: ...") naming the line.
"""

from __future__ import annotations

import numpy as np

from .matrices import SparseBinaryMatrix, normalize_columns, owners


def _format_lines(a: np.ndarray) -> str:
    """One line of space-separated decimals per row of a non-negative
    integer array, each ending in a newline.

    Every value gets a cell of the widest value's digits plus a
    separator, filled by repeated division; a mask then drops each
    cell's leading zeros.
    """
    count, width = a.shape
    if not a.size:
        return "\n" * count
    rest = a.ravel().astype(np.int64)
    digits = len(str(int(rest.max())))
    length = np.ones(rest.shape, dtype=np.int64)
    for k in range(1, digits):
        length += rest >= 10**k
    cells = np.empty((rest.size, digits + 1), dtype=np.uint8)
    for k in range(digits - 1, -1, -1):
        cells[:, k] = rest % 10 + ord("0")
        rest //= 10
    cells[:, digits] = ord(" ")
    cells[width - 1 :: width, digits] = ord("\n")
    keep = np.arange(digits + 1) >= (digits - length)[:, None]
    return cells[keep].tobytes().decode("ascii")


def _index_lines(ptr: np.ndarray, idx: np.ndarray, width: int) -> str:
    """One line per segment: its 1-based indices zero-padded to width."""
    padded = np.zeros((len(ptr) - 1, width), dtype=np.int64)
    seg = owners(ptr)
    padded[seg, np.arange(len(idx)) - ptr[seg]] = idx + 1
    return _format_lines(padded)


def to_alist(m: SparseBinaryMatrix) -> str:
    col_w = np.diff(m.col_ptr)
    row_w = np.diff(m.row_ptr)
    max_c = int(col_w.max(initial=0))
    max_r = int(row_w.max(initial=0))
    return (
        f"{m.cols} {m.rows}\n{max_c} {max_r}\n"
        + _format_lines(col_w[None, :])
        + _format_lines(row_w[None, :])
        + _index_lines(m.col_ptr, m.row_idx, max_c)
        + _index_lines(m.row_ptr, m.col_idx, max_r)
    )


# 18 digits always fit an int64
_MAX_DIGITS = 18


def _tokens(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Every token of text as int64, and the index of the first token at
    or after the start of each line."""
    text = text.replace("\r\n", "\n")
    raw = np.frombuffer(text.encode("utf-8", "replace"), dtype=np.uint8)
    breaks = (raw - np.uint8(10)) < 4  # \n \v \f \r
    sep = np.ones(len(raw) + 2, dtype=bool)
    sep[1:-1] = breaks | (raw == ord(" ")) | (raw == ord("\t"))
    change = np.flatnonzero(sep[1:] != sep[:-1])
    begin, end = change[0::2], change[1::2]
    line_start = np.append(0, np.flatnonzero(breaks) + 1)

    def fail(t, why):
        line = np.searchsorted(line_start, begin[t], side="right")
        token = raw[begin[t] : end[t]].tobytes().decode("utf-8", "replace")
        raise ValueError(f"alist: line {line}: token {token!r} {why}")

    other = ~(sep[1:-1] | ((raw - np.uint8(ord("0"))) < 10))
    if other.any():
        fail(np.searchsorted(end, other.argmax(), side="right"), "is not a non-negative integer")
    long = np.flatnonzero(end - begin > _MAX_DIGITS)
    if len(long):
        fail(long[0], "is too large")
    first = np.searchsorted(begin, line_start)
    if not len(begin):
        # numpy reads whitespace-only text as [0]
        return np.zeros(0, dtype=np.int64), first
    return np.fromstring(text, dtype=np.int64, sep=" "), first


class _Lines:
    """The non-blank lines of an alist text, each a slice of one token array."""

    def __init__(self, text: str):
        self.values, first = _tokens(text)
        nonblank = np.diff(first, append=len(self.values)) > 0
        self.number = np.flatnonzero(nonblank) + 1
        self.bounds = np.append(first[nonblank], len(self.values))
        self.count = len(self.number)

    def fields(self, i: int, what: str, count: int) -> np.ndarray:
        """Tokens of non-blank line i, which must hold exactly count."""
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        if i >= self.count:
            raise ValueError(f"alist: truncated header: the {what} line is missing")
        toks = self.values[self.bounds[i] : self.bounds[i + 1]]
        if len(toks) != count:
            raise ValueError(
                f"alist: line {self.number[i]}: the {what} line needs {count} fields, got {len(toks)}"
            )
        return toks

    def section(self, i: int, what: str, weights: np.ndarray, width: int):
        """Index lines i.. for one segment per weight: (lengths, 0-based
        indices with padding removed, line numbers)."""
        count = len(weights)
        if not width:
            return np.zeros(count, dtype=np.int64), np.zeros(0, dtype=np.int64), self.number[:0]
        if i + count > self.count:
            raise ValueError(
                f"alist: missing index lines: {count} {what} lines expected, "
                f"{max(self.count - i, 0)} found"
            )
        bounds = self.bounds[i : i + count + 1]
        numbers = self.number[i : i + count]
        over = np.flatnonzero(np.diff(bounds) > width)
        if len(over):
            j = over[0]
            raise ValueError(
                f"alist: line {numbers[j]}: {bounds[j + 1] - bounds[j]} indices for {what} {j}, "
                f"more than the declared maximum {width}"
            )
        toks = self.values[bounds[0] : bounds[-1]]
        nonzero = toks != 0
        lengths = np.bincount(owners(bounds - bounds[0])[nonzero], minlength=count)
        wrong = np.flatnonzero(lengths != weights)
        if len(wrong):
            j = wrong[0]
            raise ValueError(
                f"alist: line {numbers[j]}: {what} {j} has {lengths[j]} indices, "
                f"its weight is {weights[j]}"
            )
        return lengths, toks[nonzero] - 1, numbers


def from_alist(text: str) -> SparseBinaryMatrix:
    lines = _Lines(text)
    n, m = lines.fields(0, "size", 2).tolist()
    max_c, max_r = lines.fields(1, "maximum weight", 2).tolist()
    col_w = lines.fields(2, "column weight", n)
    row_w_at = 2 + int(n > 0)
    row_w = lines.fields(row_w_at, "row weight", m)
    i = row_w_at + int(m > 0)
    for what, weights, declared in (("column", col_w, max_c), ("row", row_w, max_r)):
        actual = int(weights.max(initial=0))
        if actual != declared:
            raise ValueError(
                f"alist: line {lines.number[1]}: declared maximum {what} weight {declared}, "
                f"but the {what} weights reach {actual}"
            )

    lengths, flat, numbers = lines.section(i, "column", col_w, max_c)
    i += len(numbers)
    col_ptr, row_idx, problem = normalize_columns(m, lengths, flat)
    if problem:
        j, what = problem
        raise ValueError(f"alist: line {numbers[j]}: {what} in column {j}")
    mat = SparseBinaryMatrix._from_csc(m, col_ptr, row_idx)

    # the row section must mirror the column section
    actual = np.diff(mat.row_ptr)
    wrong = np.flatnonzero(actual != row_w)
    if len(wrong):
        r = wrong[0]
        raise ValueError(
            f"alist: line {lines.number[row_w_at]}: row {r} has weight {row_w[r]}, "
            f"the column data gives {actual[r]}"
        )
    lengths, flat, numbers = lines.section(i, "row", row_w, max_r)
    i += len(numbers)
    row = owners(mat.row_ptr)
    outside = np.flatnonzero(flat >= n)
    if len(outside):
        r = row[outside[0]]
        raise ValueError(f"alist: line {numbers[r]}: column index out of range in row {r}")
    key = row * n + flat
    key.sort()
    wrong = np.flatnonzero(key != row * n + mat.col_idx)
    if len(wrong):
        r = row[wrong[0]]
        raise ValueError(f"alist: line {numbers[r]}: row {r} disagrees with column data")
    if i < lines.count:
        raise ValueError(f"alist: line {lines.number[i]}: unexpected line after the row section")
    return mat


def write_alist(path, m: SparseBinaryMatrix) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(to_alist(m))


def read_alist(path) -> SparseBinaryMatrix:
    with open(path, "r", encoding="utf-8") as f:
        return from_alist(f.read())
