"""alist import/export (MacKay convention).

Layout: line 1 "N M" (columns, rows); line 2 max column/row weights;
then per-column weights, per-row weights; then one line per column of
1-based row indices and one line per row of 1-based column indices,
each zero-padded to the declared maximum. Export is canonical
(single spaces, trailing newline) so round-trips are byte-identical.
It writes every value of a line section into a fixed-width cell of
ASCII digits, with NUL for each leading zero, and drops the NULs with
one bytes.translate.

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
    separator, filled by repeated division; a leading zero is written
    as NUL, and one translate drops every NUL.
    """
    count, width = a.shape
    if not a.size:
        return "\n" * count
    digits = len(str(int(a.max())))
    rest = a.astype(np.uint32 if digits <= 9 else np.uint64).ravel()
    cells = np.empty((rest.size, digits + 1), dtype=np.uint8)
    cells[:, digits] = ord(" ")
    cells[width - 1 :: width, digits] = ord("\n")
    cells[:, digits - 1] = rest % 10 + ord("0")
    for k in range(digits - 2, -1, -1):
        rest //= 10
        cells[:, k] = np.where(rest, rest % 10 + ord("0"), 0)
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _index_lines(ptr: np.ndarray, idx: np.ndarray, width: int) -> str:
    """One line per segment: its 1-based indices zero-padded to width."""
    count = len(ptr) - 1
    if len(idx) == count * width:  # every segment full: no padding
        return _format_lines(idx.reshape(count, width) + 1)
    padded = np.zeros((count, width), dtype=np.int64)
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


def _tokens(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Every token of text as int64; then for each line the index of its
    first token, and last the token count. The byte checks drop each
    mask before they build the next, and keep no array per token."""
    if "\r" in text:  # one byte finds faster than two
        text = text.replace("\r\n", "\n")
    raw = np.frombuffer(text.encode("utf-8", "replace"), dtype=np.uint8)
    sep = np.ones(len(raw) + 2, dtype=bool)  # sep[i + 1] is raw[i]
    inner = sep[1:-1]
    np.less(raw - np.uint8(10), 4, out=inner)  # \n \v \f \r
    inner |= raw == ord(" ")
    inner |= raw == ord("\t")

    def fail(x, why):  # name the token that holds byte x
        begin = x - int(sep[x::-1].argmax())
        end = x + int(sep[x + 1 :].argmax())
        line = 1 + np.count_nonzero(raw[:begin] - np.uint8(10) < 4)
        token = raw[begin:end].tobytes().decode("utf-8", "replace")
        raise ValueError(f"alist: line {line}: token {token!r} {why}")

    bad = raw - np.uint8(ord("0")) >= 10
    bad &= ~inner
    if bad.any():
        fail(int(bad.argmax()), "is not a non-negative integer")
    # runs of 2, 4, 8, 16, then 19 token bytes: 18 digits always fit an int64
    bad = ~inner
    for shift in (1, 2, 4, 8, 3):
        bad = bad[:-shift] & bad[shift:]
    if bad.any():
        fail(int(bad.argmax()), "is too large")
    del bad
    events = sep[:-1] > sep[1:]  # a token begins at raw[i]
    events[:-1] |= raw - np.uint8(10) < 4  # or raw[i] ends a line
    events = np.flatnonzero(events)
    ends = np.flatnonzero(raw[events] < ord("0"))  # tokens start with a digit
    # line l + 1 starts at token ends[l] - l: the events before line end l, less l line ends
    first = np.concatenate([[0], ends - np.arange(len(ends)), [len(events) - len(ends)]])
    del raw, sep, inner, events, ends
    # numpy reads whitespace-only text as [0]
    values = np.fromstring(text, dtype=np.int64, sep=" ") if first[-1] else np.zeros(0, np.int64)
    return values, first


class _Lines:
    """The non-blank lines of an alist text, each a slice of one token array."""

    def __init__(self, text: str):
        self.values, first = _tokens(text)
        nonblank = np.diff(first) > 0
        self.number = np.flatnonzero(nonblank) + 1
        self.bounds = np.append(first[:-1][nonblank], first[-1])
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
        if nonzero.all():  # no padding: each line is one segment's indices
            lengths, flat = np.diff(bounds), toks - 1
        else:
            lengths = np.bincount(owners(bounds - bounds[0])[nonzero], minlength=count)
            flat = toks[nonzero] - 1
        wrong = np.flatnonzero(lengths != weights)
        if len(wrong):
            j = wrong[0]
            raise ValueError(
                f"alist: line {numbers[j]}: {what} {j} has {lengths[j]} indices, "
                f"its weight is {weights[j]}"
            )
        return lengths, flat, numbers

    def drop_before(self, i: int) -> None:
        """Forget the non-blank lines before line i, and the tokens they
        hold."""
        start = self.bounds[i]
        self.values = self.values[start:].copy()
        self.bounds = self.bounds[i:] - start
        self.number = self.number[i:]
        self.count -= i


def from_alist(text: str) -> SparseBinaryMatrix:
    lines = _Lines(text)
    n, m = lines.fields(0, "size", 2).tolist()
    max_c, max_r = lines.fields(1, "maximum weight", 2).tolist()
    col_w = lines.fields(2, "column weight", n)
    row_w_at = 2 + int(n > 0)
    # a copy, so that the token array can go before the row mirror is built
    row_w = lines.fields(row_w_at, "row weight", m).copy()
    row_w_line = lines.number[row_w_at] if m else None
    i = row_w_at + int(m > 0)
    for what, weights, declared in (("column", col_w, max_c), ("row", row_w, max_r)):
        actual = int(weights.max(initial=0))
        if actual != declared:
            raise ValueError(
                f"alist: line {lines.number[1]}: declared maximum {what} weight {declared}, "
                f"but the {what} weights reach {actual}"
            )

    lengths, flat, numbers = lines.section(i, "column", col_w, max_c)
    del col_w
    # the row section's tokens are all that the rest needs
    lines.drop_before(i + len(numbers))
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
            f"alist: line {row_w_line}: row {r} has weight {row_w[r]}, "
            f"the column data gives {actual[r]}"
        )
    lengths, flat, numbers = lines.section(0, "row", row_w, max_r)
    extra = lines.number[len(numbers)] if len(numbers) < lines.count else None
    del lines
    row = owners(mat.row_ptr)
    outside = np.flatnonzero(flat >= n)
    if len(outside):
        r = row[outside[0]]
        raise ValueError(f"alist: line {numbers[r]}: column index out of range in row {r}")
    row *= n
    key = np.add(flat, row, out=flat)
    key.sort()
    row += mat.col_idx
    wrong = np.flatnonzero(key != row)
    if len(wrong):
        r = row[wrong[0]] // n
        raise ValueError(f"alist: line {numbers[r]}: row {r} disagrees with column data")
    if extra is not None:
        raise ValueError(f"alist: line {extra}: unexpected line after the row section")
    return mat


def write_alist(path, m: SparseBinaryMatrix) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(to_alist(m))


def read_alist(path) -> SparseBinaryMatrix:
    with open(path, "r", encoding="utf-8") as f:
        return from_alist(f.read())
