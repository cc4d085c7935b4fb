"""alist import/export (MacKay convention).

Layout: line 1 "N M" (columns, rows); line 2 max column/row weights;
then per-column weights, per-row weights; then one line per column of
1-based row indices and one line per row of 1-based column indices,
each zero-padded to the declared maximum. Export is canonical
(single spaces, trailing newline) so round-trips are byte-identical.
It writes every value of a line section into a fixed-width cell of
ASCII digits, with NUL for each leading zero, and drops the NULs with
one bytes.translate.

Import checks every token in one byte scan, then reads the tokens of
the header and column section into one int64 array, and once those
have given the matrix, the tokens of the row section; each is checked
with array comparisons. Blank lines are skipped, and so is a line that
would hold no tokens (the weight line of an empty dimension, the index
lines when the declared maximum weight is 0). Index lines may omit
their zero padding. Any other departure from the layout raises
ValueError("alist: ...") naming the line.
"""

from __future__ import annotations

import numpy as np

from .matrices import SparseBinaryMatrix, normalize_columns, owners, rising


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


_BLOCK = 1 << 16  # chars per block of the scan, and per stretch of lines read
_LONG = 18  # digits that always fit an int64
_SPACES = " \t\n\v\f\r"


def _scan(text: str) -> tuple[str, np.ndarray, np.ndarray]:
    """Check that every token of text is a non-negative integer that fits
    int64. Returns the text with each CRLF read as LF, then for each line
    the index of its first token and the offset of its first char, each
    followed by the total (token count, text length).

    The checks run over blocks of _BLOCK bytes. Each block is encoded on
    its own and its masks are built into buffers reused from block to
    block; the space mask of a block's last _LONG bytes carries into the
    next, so tokens may cross block boundaries. So the scan holds no
    array longer than a block except two int64 per line, and no copy of
    an ASCII text with LF line ends.
    """
    if "\r" in text:  # one byte finds faster than two
        text = text.replace("\r\n", "\n")
    if not text.isascii():  # one char per UTF-8 byte: a char index is a byte offset
        text = text.encode("utf-8", "replace").decode("latin-1")

    def fail(x, why):  # name the token that holds byte x
        begin = 1 + max(text.rfind(c, 0, x) for c in _SPACES)
        end = min([i for i in (text.find(c, x) for c in _SPACES) if i >= 0], default=len(text))
        line = 1 + sum(text.count(c, 0, begin) for c in _SPACES[2:])
        token = text[begin:end].encode("latin-1").decode("utf-8", "replace")
        raise ValueError(f"alist: line {line}: token {token!r} {why}")

    size = min(len(text), _BLOCK)
    # space[_LONG + j] is byte j of the block; the first block follows spaces
    space = np.ones(_LONG + size, dtype=bool)
    token = np.empty(_LONG + size, dtype=bool)
    shifted = np.empty(size, dtype=np.uint8)
    mask = np.empty(size, dtype=bool)
    first, begins = [np.zeros(1, dtype=np.int64)], [np.zeros(1, dtype=np.int64)]
    total, long_at = 0, None
    for at in range(0, len(text), _BLOCK):
        raw = np.frombuffer(text[at : at + _BLOCK].encode("latin-1"), dtype=np.uint8)
        n = len(raw)
        here, tok, u, m = space[_LONG : _LONG + n], token[: _LONG + n], shifted[:n], mask[:n]
        np.less(np.subtract(raw, 10, out=u), 4, out=here)  # \n \v \f \r end a line
        ends = np.flatnonzero(here)
        here |= np.equal(raw, ord(" "), out=m)
        here |= np.equal(raw, ord("\t"), out=m)
        np.less(np.subtract(raw, ord("0"), out=u), 10, out=m)
        if not np.logical_or(m, here, out=m).all():
            fail(at + int(m.argmin()), "is not a non-negative integer")
        np.logical_not(space[: _LONG + n], out=tok)
        if long_at is None:  # a run of _LONG + 1 token bytes ends at byte j
            run = tok
            for shift in (1, 2, 4, 8, 3):
                run = run[:-shift] & run[shift:]
            if run.any():
                long_at = at + int(run.argmax())
        # a token begins where a token byte follows a space
        starts = np.flatnonzero(np.logical_and(tok[_LONG:], space[_LONG - 1 : _LONG - 1 + n], out=m))
        first.append(np.searchsorted(starts, ends) + total)
        begins.append(ends + (at + 1))
        total += len(starts)
        space[:_LONG] = space[n : n + _LONG]
    del space, token, shifted, mask
    if long_at is not None:
        fail(long_at, "is too large")
    first.append(np.array([total]))
    begins.append(np.array([len(text)]))
    return text, np.concatenate(first), np.concatenate(begins)


class _Lines:
    """The non-blank lines of an alist text, and the int64 tokens of the
    first lines read. Dropping the lines that are done with frees their
    tokens; the next read starts after them in the text."""

    def __init__(self, text: str):
        self.text, first, begins = _scan(text)
        keep = np.empty(len(first), dtype=bool)  # the bounds of non-blank lines, and the end
        np.greater(first[1:], first[:-1], out=keep[:-1])
        keep[-1] = True
        self.bounds, self.begins = first[keep], begins[keep]
        del first, begins
        nonblank = np.flatnonzero(keep[:-1])
        self.count = len(nonblank)
        # 1-based line numbers, a range when no blank line comes first
        if not self.count or nonblank[-1] == self.count - 1:
            self.number = range(1, self.count + 1)
        else:
            self.number = nonblank + 1
        self.values = np.zeros(0, dtype=np.int64)

    def read(self, j: int) -> None:
        """Read the tokens of the first j non-blank lines, or of all, a
        stretch of lines at a time: those that begin in one _BLOCK of
        chars, or one longer line."""
        j = min(j, self.count)
        begins, bounds = self.begins[: j + 1], self.bounds[: j + 1]
        self.values = np.empty(bounds[-1], dtype=np.int64)
        cuts = np.searchsorted(begins, np.arange(begins[0], begins[-1], _BLOCK)).tolist()
        for a, b in zip(cuts, [*cuts[1:], j]):
            if a < b:  # the scan has checked every token
                self.values[bounds[a] : bounds[b]] = np.fromstring(
                    self.text[begins[a] : begins[b]], np.int64, bounds[b] - bounds[a], sep=" "
                )

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
        indices with padding removed, line numbers). Without padding the
        indices are the token array's own, made 0-based in place."""
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
        if toks.all():  # no padding: each line is one segment's indices
            lengths, flat = np.diff(bounds), np.subtract(toks, 1, out=toks)
        else:
            nonzero = toks != 0
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
        """Forget the non-blank lines before line i, and every token read."""
        self.values = np.zeros(0, dtype=np.int64)
        self.bounds = self.bounds[i:] - self.bounds[i]
        self.begins = self.begins[i:].copy()
        self.number = np.array(self.number[i:])
        self.count -= i


def from_alist(text: str) -> SparseBinaryMatrix:
    lines = _Lines(text)
    lines.read(2)
    n, m = lines.fields(0, "size", 2).tolist()
    max_c, max_r = lines.fields(1, "maximum weight", 2).tolist()
    row_w_at = 2 + int(n > 0)
    i = row_w_at + int(m > 0)
    lines.read(i + (n if max_c else 0))  # through the column section
    col_w = lines.fields(2, "column weight", n)
    # a copy, so that the column tokens can go before the row mirror is built
    row_w = lines.fields(row_w_at, "row weight", m).copy()
    row_w_line = lines.number[row_w_at] if m else None
    for what, weights, declared in (("column", col_w, max_c), ("row", row_w, max_r)):
        actual = int(weights.max(initial=0))
        if actual != declared:
            raise ValueError(
                f"alist: line {lines.number[1]}: declared maximum {what} weight {declared}, "
                f"but the {what} weights reach {actual}"
            )

    lengths, flat, numbers = lines.section(i, "column", col_w, max_c)
    col_ptr, row_idx, problem = normalize_columns(m, lengths, flat)
    if problem:
        j, what = problem
        raise ValueError(f"alist: line {numbers[j]}: {what} in column {j}")
    # the rows are copied out if they are the column tokens themselves,
    # which go before the row section is read
    i += len(numbers)
    del col_w, lengths, flat, numbers
    if np.shares_memory(row_idx, lines.values):
        row_idx = row_idx.copy()
    lines.drop_before(i)
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
    lines.read(lines.count)
    lengths, flat, numbers = lines.section(0, "row", row_w, max_r)
    extra = lines.number[len(numbers)] if len(numbers) < lines.count else None
    del lines

    def row_of(j):  # the row that holds entry j of the row section
        return int(np.searchsorted(mat.row_ptr, j, side="right")) - 1

    outside = np.flatnonzero(flat >= n)
    if len(outside):
        r = row_of(outside[0])
        raise ValueError(f"alist: line {numbers[r]}: column index out of range in row {r}")
    if rising(mat.row_ptr, flat):  # each row lists its columns as col_idx does
        wrong = np.flatnonzero(flat != mat.col_idx)
    else:  # rows out of order: compare (row, column) keys, sorted
        row = owners(mat.row_ptr)
        row *= n
        key = np.add(flat, row, out=flat)
        key.sort()
        row += mat.col_idx
        wrong = np.flatnonzero(key != row)
    if len(wrong):
        r = row_of(wrong[0])
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
