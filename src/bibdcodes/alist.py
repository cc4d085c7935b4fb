"""alist import/export (MacKay convention).

Layout: line 1 "N M" (columns, rows); line 2 max column/row weights;
then per-column weights, per-row weights; then one line per column of
1-based row indices and one line per row of 1-based column indices,
each zero-padded to the declared maximum. Export is canonical
(single spaces, trailing newline) so round-trips are byte-identical.
It formats the weight lines and the index sections a piece of about
_BLOCK values at a time: each value goes into a fixed-width cell of
ASCII digits, with NUL for each leading zero, and one bytes.translate
drops the NULs. A section whose values all lie in 0..top and that
writes at least top + 1 of them formats the cells of 0..top once into
a table, and each piece takes its cells from the table by index; a
section that writes fewer values formats each piece's cells by
repeated division, so the table is never larger than the cells it
replaces. The table goes with the section's last piece. to_alist joins
the pieces once, so it holds the pieces and the text (2.0x the text at
Netto-997, tracemalloc); write_alist writes them to the file as they
come and never holds the whole text.

Import checks every token in one byte scan, then reads the tokens of
the header and column section into one int64 array. Once those have
given the matrix, it reads and checks the row section a stretch of
lines at a time, with array comparisons against the matrix's row
mirror; a row never crosses a stretch. Import peaks at 2.45x the text
at Netto-997. Blank lines are skipped, and so is a line that would
hold no tokens (the weight line of an empty dimension, the index lines
when the declared maximum weight is 0). Index lines may omit their
zero padding. Any other departure from the layout raises
ValueError("alist: ...") naming the line.
"""

from __future__ import annotations

import numpy as np

from .matrices import SparseBinaryMatrix, normalize_columns, owners, rising

# chars per block of the scan and per stretch of lines read; values per
# piece of an export
_BLOCK = 1 << 16


def _cells(values: np.ndarray, digits: int) -> np.ndarray:
    """A (len(values), digits + 1) uint8 cell per value of a flat
    non-negative integer array below 10**digits: its ASCII digits, NUL
    for each leading zero, then a space. The cells are filled by
    repeated division, the last digit first; a remainder is taken as
    value - 10 * quotient, since numpy divides by a constant far faster
    than it takes a remainder."""
    rest = values.astype(np.uint32 if digits <= 9 else np.uint64)
    quot, digit = np.empty_like(rest), np.empty_like(rest)
    cells = np.empty((rest.size, digits + 1), dtype=np.uint8)
    cells[:, digits] = ord(" ")
    for k in range(digits - 1, -1, -1):
        np.floor_divide(rest, 10, out=quot)
        np.subtract(rest, np.multiply(quot, 10, out=digit), out=digit)
        digit += ord("0")
        if k < digits - 1:  # a leading zero is NUL
            digit *= rest != 0
        cells[:, k] = digit
        rest, quot = quot, rest
    return cells


def _text(cells: np.ndarray, width: int) -> str:
    """The text of cells that hold width values a line: each line's last
    cell ends in a newline in place of its space (none when the line
    goes on past the cells), and one translate drops every NUL."""
    cells[width - 1 :: width, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _format_lines(a: np.ndarray) -> str:
    """One line of space-separated decimals per row of a non-negative
    integer array, each ending in a newline: each value gets a cell of
    the widest value's digits."""
    count, width = a.shape
    if not a.size:
        return "\n" * count
    return _text(_cells(a.ravel(), len(str(int(a.max())))), width)


def _table(top: int, values: int) -> np.ndarray | None:
    """The cells of 0..top for a section that writes the given number of
    values in 0..top, or None when it writes at most top: the table is
    never larger than the cells it replaces."""
    return _cells(np.arange(top + 1), len(str(top))) if values > top else None


def _weight_line(ptr: np.ndarray, top: int):
    """The segment weights, each at most top, as one line, yielded as the
    text of _BLOCK values at a time."""
    count = len(ptr) - 1
    table = _table(top, count)
    for s in range(0, count, _BLOCK):
        w = np.diff(ptr[s : s + _BLOCK + 1])
        yield _text(_cells(w, len(str(top))) if table is None else table.take(w, axis=0), count - s)
    if not count:
        yield "\n"


def _index_lines(ptr: np.ndarray, idx: np.ndarray, width: int, top: int):
    """One line per segment: its 1-based indices, each at most top,
    zero-padded to width, yielded as the text of about _BLOCK values at
    a time."""
    count = len(ptr) - 1
    table = _table(top, count * width)
    step = max(_BLOCK // max(width, 1), 1)
    for s in range(0, count, step):
        p = ptr[s : s + step + 1]
        part = idx[p[0] : p[-1]]
        lines = len(p) - 1
        if len(part) == lines * width:  # every segment full: no padding
            values = part.reshape(lines, width) + 1
        else:  # each segment fills its row from the left, in the narrowest type
            values = np.zeros((lines, width), dtype=np.min_scalar_type(top))
            values[np.arange(width) < np.diff(p)[:, None]] = part + 1
        if table is None:
            yield _format_lines(values)
        else:
            yield _text(table.take(values.ravel(), axis=0), width)


def _chunks(m: SparseBinaryMatrix):
    """The alist text of m, in pieces of about _BLOCK values."""
    max_c = int(np.diff(m.col_ptr).max(initial=0))
    max_r = int(np.diff(m.row_ptr).max(initial=0))
    yield f"{m.cols} {m.rows}\n{max_c} {max_r}\n"
    yield from _weight_line(m.col_ptr, max_c)
    yield from _weight_line(m.row_ptr, max_r)
    yield from _index_lines(m.col_ptr, m.row_idx, max_c, m.rows)
    yield from _index_lines(m.row_ptr, m.col_idx, max_r, m.cols)


def to_alist(m: SparseBinaryMatrix) -> str:
    return "".join(_chunks(m))


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
    lines read last. Dropping the lines that are done with frees their
    bounds, and the lines after them are then numbered from 0."""

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
        self.values, self.at = np.zeros(0, dtype=np.int64), 0

    def stretches(self, i: int, j: int) -> list:
        """Lines i..j-1 as (a, b) ranges: the lines that begin in one
        _BLOCK of chars, or one longer line."""
        if i >= j:
            return []
        begins = self.begins[i : j + 1]
        cuts = (np.searchsorted(begins, np.arange(begins[0], begins[-1], _BLOCK)) + i).tolist()
        return [(a, b) for a, b in zip(cuts, [*cuts[1:], j]) if a < b]

    def read(self, i: int, j: int) -> None:
        """Read the tokens of lines i..j-1 (up to the last line), a
        stretch at a time, in place of those read before."""
        j = min(j, self.count)
        self.at = self.bounds[i]
        self.values = np.empty(self.bounds[j] - self.at, dtype=np.int64)
        for a, b in self.stretches(i, j):
            lo, hi = self.bounds[a], self.bounds[b]  # the scan has checked every token
            self.values[lo - self.at : hi - self.at] = np.fromstring(
                self.text[self.begins[a] : self.begins[b]], np.int64, hi - lo, sep=" "
            )

    def fields(self, i: int, what: str, count: int) -> np.ndarray:
        """Tokens of line i, which must hold exactly count."""
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        if i >= self.count:
            raise ValueError(f"alist: truncated header: the {what} line is missing")
        toks = self.values[self.bounds[i] - self.at : self.bounds[i + 1] - self.at]
        if len(toks) != count:
            raise ValueError(
                f"alist: line {self.number[i]}: the {what} line needs {count} fields, got {len(toks)}"
            )
        return toks

    def span(self, i: int, what: str, count: int, width: int):
        """Line numbers of index lines i.. for count segments, each checked
        to be there and to hold at most width tokens; none when width is
        0. Parses no token."""
        if not width:
            return self.number[:0]
        if i + count > self.count:
            raise ValueError(
                f"alist: missing index lines: {count} {what} lines expected, "
                f"{max(self.count - i, 0)} found"
            )
        bounds = self.bounds[i : i + count + 1]
        over = np.flatnonzero(np.diff(bounds) > width)
        if len(over):
            j = over[0]
            raise ValueError(
                f"alist: line {self.number[i + j]}: {bounds[j + 1] - bounds[j]} indices for "
                f"{what} {j}, more than the declared maximum {width}"
            )
        return self.number[i : i + count]

    def indices(self, i: int, what: str, weights: np.ndarray, first: int = 0):
        """(lengths, 0-based indices with padding removed) of index lines
        i.., read last, which hold segments first.., one per weight.
        Without padding the indices are the token array's own, made
        0-based in place."""
        count = len(weights)
        bounds = self.bounds[i : i + count + 1]
        toks = self.values[bounds[0] - self.at : bounds[-1] - self.at]
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
                f"alist: line {self.number[i + j]}: {what} {first + j} has {lengths[j]} indices, "
                f"its weight is {weights[j]}"
            )
        return lengths, flat

    def drop_before(self, i: int) -> None:
        """Forget the lines before line i, and every token read."""
        self.values, self.at = np.zeros(0, dtype=np.int64), 0
        self.bounds = self.bounds[i:] - self.bounds[i]
        self.begins = self.begins[i:].copy()
        self.number = np.array(self.number[i:])
        self.count -= i


def _first_segment(ptr: np.ndarray, entries: np.ndarray, first: int):
    """first + the segment that holds entries[0], or None when entries is
    empty; segment s holds entries ptr[s]:ptr[s + 1]."""
    if not len(entries):
        return None
    return first + int(np.searchsorted(ptr, entries[0], side="right")) - 1


def from_alist(text: str) -> SparseBinaryMatrix:
    lines = _Lines(text)
    lines.read(0, 2)
    n, m = lines.fields(0, "size", 2).tolist()
    max_c, max_r = lines.fields(1, "maximum weight", 2).tolist()
    row_w_at = 2 + int(n > 0)
    i = row_w_at + int(m > 0)
    lines.read(0, i + (n if max_c else 0))  # through the column section
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

    numbers = lines.span(i, "column", n, max_c)
    if max_c:
        lengths, flat = lines.indices(i, "column", col_w)
    else:  # no column lines: every column is empty
        lengths, flat = col_w, np.zeros(0, dtype=np.int64)
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
    numbers = lines.span(0, "row", m, max_r)
    extra = lines.number[len(numbers)] if len(numbers) < lines.count else None
    # one stretch of row lines at a time, which holds whole rows: a row
    # of the wrong weight is raised at once, the first index out of range
    # and else the first row that disagrees once every weight is checked
    outside = disagree = None
    for a, b in lines.stretches(0, len(numbers)):
        lines.read(a, b)
        _, flat = lines.indices(a, "row", row_w[a:b], a)
        if outside is not None:
            continue
        ptr = mat.row_ptr[a : b + 1] - mat.row_ptr[a]
        outside = _first_segment(ptr, np.flatnonzero(flat >= n), a)
        if outside is None and disagree is None:
            want = mat.col_idx[mat.row_ptr[a] : mat.row_ptr[b]]
            if rising(ptr, flat):  # each row lists its columns as col_idx does
                wrong = np.flatnonzero(flat != want)
            else:  # rows out of order: compare (row, column) keys, sorted
                row = owners(ptr)
                row *= n
                key = np.add(flat, row, out=flat)
                key.sort()
                row += want
                wrong = np.flatnonzero(key != row)
            disagree = _first_segment(ptr, wrong, a)
    del lines
    if outside is not None:
        raise ValueError(f"alist: line {numbers[outside]}: column index out of range in row {outside}")
    if disagree is not None:
        raise ValueError(f"alist: line {numbers[disagree]}: row {disagree} disagrees with column data")
    if extra is not None:
        raise ValueError(f"alist: line {extra}: unexpected line after the row section")
    return mat


def write_alist(path, m: SparseBinaryMatrix) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(_chunks(m))


def read_alist(path) -> SparseBinaryMatrix:
    with open(path, "r", encoding="utf-8") as f:
        return from_alist(f.read())
