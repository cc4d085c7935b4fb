"""alist import/export (MacKay convention).

Layout: line 1 "N M" (columns, rows); line 2 max column/row weights;
then per-column weights, per-row weights; then one line per column of
1-based row indices and one line per row of 1-based column indices,
each zero-padded to the declared maximum. Export is canonical
(single spaces, trailing newline) so round-trips are byte-identical.
One writer formats every section (a weight line or an index section)
from flat pieces of about _BLOCK values: each value goes into a
fixed-width cell of ASCII digits, with NUL for each leading zero, a
newline ends the cell of every line's last value, counted over the
values written so far, and one bytes.translate drops the NULs. A section
whose values all lie in 0..top and that writes at least top + 1 of them
formats the cells of 0..top once into a table, and each piece takes its
cells from the table by index; a section that writes fewer values
formats each piece's cells by repeated division, so the table is never
larger than the cells it replaces. The table goes with the section's
last piece. to_alist joins the pieces once, so it holds the pieces and
the text (2.0x the text at Netto-997, tracemalloc); write_alist writes
them to the file as they come and never holds the whole text.

Import checks every token in one byte scan, which counts the tokens of
each line with one add.reduceat of a block's token starts between its
line ends. It parses the header and weight lines one line at a time,
and both index sections through one loop over stretches of lines (the
lines that begin in one _BLOCK of text): a stretch's tokens become its
0-based indices, padding removed and each line's count checked against
its weight. The column loop writes them into one int64 array, sized by
the tokens the scan counted, that becomes the matrix's row indices; the
row loop compares them with the matrix's row mirror. No token array
outlives its stretch, and the column lines' bounds go before the columns
are checked, so import peaks at 1.89x the text at Netto-997
(tracemalloc), in building the matrix's row mirror. Blank lines
are skipped, and so is a line that would hold no tokens (the weight line
of an empty dimension, the index lines when the declared maximum weight
is 0). Index lines may omit their zero padding. Any other departure from
the layout raises ValueError("alist: ...") naming the line.
"""

from __future__ import annotations

import numpy as np

from .matrices import (
    SparseBinaryMatrix,
    normalize_columns,
    owner_chunks,
    owners,
    rising,
    sorted_keys,
    split_keys,
)

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


def _table(top: int, values: int) -> np.ndarray | None:
    """The cells of 0..top for a section that writes the given number of
    values in 0..top, or None when it writes at most top: the table is
    never larger than the cells it replaces."""
    return _cells(np.arange(top + 1), len(str(top))) if values > top else None


def _section(pieces, top: int, lines: int, width: int):
    """The text of a section of lines of width values in 0..top, given as
    flat pieces of its values and yielded a piece at a time. Each piece
    takes its cells from _table(top, lines * width), or by division; the
    cell of every width-th value written ends in a newline in place of
    its space, and one translate drops every NUL."""
    table = _table(top, lines * width)
    if not width:
        yield "\n" * lines
        return
    written = 0
    for values in pieces:
        cells = _cells(values, len(str(top))) if table is None else table.take(values, axis=0)
        cells[(-written - 1) % width :: width, -1] = ord("\n")
        written += len(values)
        yield cells.tobytes().translate(None, b"\0").decode("ascii")


def _weights(ptr: np.ndarray):
    """The segment weights, _BLOCK at a time."""
    for s in range(0, len(ptr) - 1, _BLOCK):
        yield np.diff(ptr[s : s + _BLOCK + 1])


def _indices(ptr: np.ndarray, idx: np.ndarray, width: int, top: int):
    """Each segment's 1-based indices, each at most top, zero-padded to
    width, whole segments of about _BLOCK values at a time."""
    step = max(_BLOCK // max(width, 1), 1)
    for s in range(0, len(ptr) - 1, step):
        p = ptr[s : s + step + 1]
        part = idx[p[0] : p[-1]]
        lines = len(p) - 1
        if len(part) == lines * width:  # every segment full: no padding
            yield part + 1
        else:  # each segment fills its row from the left, in the narrowest type
            values = np.zeros((lines, width), dtype=np.min_scalar_type(top))
            values[np.arange(width) < np.diff(p)[:, None]] = part + 1
            yield values.ravel()


def _chunks(m: SparseBinaryMatrix):
    """The alist text of m, in pieces of about _BLOCK values."""
    max_c = int(np.diff(m.col_ptr).max(initial=0))
    max_r = int(np.diff(m.row_ptr).max(initial=0))
    yield f"{m.cols} {m.rows}\n{max_c} {max_r}\n"
    yield from _section(_weights(m.col_ptr), max_c, 1, m.cols)
    yield from _section(_weights(m.row_ptr), max_r, 1, m.rows)
    yield from _section(_indices(m.col_ptr, m.row_idx, max_c, m.rows), m.rows, m.cols, max_c)
    yield from _section(_indices(m.row_ptr, m.col_idx, max_r, m.cols), m.cols, m.rows, max_r)


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
    next, so tokens may cross block boundaries. A block's token count
    before each of its line ends is the running sum of its token starts
    between line ends. So the scan holds no array longer than a block
    except two int64 per line, and no copy of an ASCII text with LF line
    ends.
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
        # a token begins where a token byte follows a space. When byte 0
        # ends a line, reduceat's repeated index 0 counts byte 0 alone as
        # the tokens before it: 0, since a line end starts no token
        np.logical_and(tok[_LONG:], space[_LONG - 1 : _LONG - 1 + n], out=m)
        counts = np.add.reduceat(m, np.concatenate(([0], ends)), dtype=np.int64)
        np.cumsum(counts, out=counts)
        counts += total
        first.append(counts[:-1])
        begins.append(ends + (at + 1))
        total = int(counts[-1])
        space[:_LONG] = space[n : n + _LONG]
    del space, token, shifted, mask
    if long_at is not None:
        fail(long_at, "is too large")
    first.append(np.array([total]))
    begins.append(np.array([len(text)]))
    return text, np.concatenate(first), np.concatenate(begins)


class _Lines:
    """The non-blank lines of an alist text. Dropping the lines that are
    done with frees their bounds, and the lines after them are then
    numbered from 0."""

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

    def stretches(self, i: int, j: int) -> list:
        """Lines i..j-1 as (a, b) ranges: the lines that begin in one
        _BLOCK of chars, or one longer line."""
        if i >= j:
            return []
        begins = self.begins[i : j + 1]
        cuts = (np.searchsorted(begins, np.arange(begins[0], begins[-1], _BLOCK)) + i).tolist()
        return [(a, b) for a, b in zip(cuts, [*cuts[1:], j]) if a < b]

    def _tokens(self, a: int, b: int) -> np.ndarray:
        """The int64 tokens of lines a..b-1; the scan has checked them."""
        text = self.text[self.begins[a] : self.begins[b]]
        return np.fromstring(text, np.int64, self.bounds[b] - self.bounds[a], sep=" ")

    def fields(self, i: int, what: str, count: int) -> np.ndarray:
        """Tokens of line i, which must hold exactly count."""
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        if i >= self.count:
            raise ValueError(f"alist: truncated header: the {what} line is missing")
        got = self.bounds[i + 1] - self.bounds[i]
        if got != count:
            raise ValueError(f"alist: line {self.number[i]}: the {what} line needs {count} fields, got {got}")
        return self._tokens(i, i + 1)

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

    def indices(self, a: int, b: int, what: str, weights: np.ndarray, first: int):
        """The 0-based indices, padding removed, of index lines a..b-1,
        which hold segments first.. of the given weights; without padding
        they are the lines' tokens, made 0-based in place."""
        bounds, weights = self.bounds[a : b + 1], weights[first : first + b - a]
        toks = self._tokens(a, b)
        if toks.all():  # no padding: each line is one segment's indices
            lengths, flat = np.diff(bounds), np.subtract(toks, 1, out=toks)
        else:
            nonzero = toks != 0
            lengths = np.bincount(owners(bounds - bounds[0])[nonzero], minlength=b - a)
            flat = toks[nonzero] - 1
        wrong = np.flatnonzero(lengths != weights)
        if len(wrong):
            j = wrong[0]
            raise ValueError(
                f"alist: line {self.number[a + j]}: {what} {first + j} has {lengths[j]} indices, "
                f"its weight is {weights[j]}"
            )
        return flat

    def drop_before(self, i: int) -> None:
        """Forget the lines before line i."""
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
    n, m = lines.fields(0, "size", 2).tolist()
    max_c, max_r = lines.fields(1, "maximum weight", 2).tolist()
    row_w_at = 2 + int(n > 0)
    col_w = lines.fields(2, "column weight", n)
    row_w = lines.fields(row_w_at, "row weight", m)
    row_w_line = lines.number[row_w_at] if m else None
    for what, weights, declared in (("column", col_w, max_c), ("row", row_w, max_r)):
        actual = int(weights.max(initial=0))
        if actual != declared:
            raise ValueError(
                f"alist: line {lines.number[1]}: declared maximum {what} weight {declared}, "
                f"but the {what} weights reach {actual}"
            )

    # the column section, a stretch of lines at a time, into one array
    # sized by the tokens present: a declared weight may be any int64
    i = row_w_at + int(m > 0)
    numbers = lines.span(i, "column", n, max_c)
    j = i + len(numbers)
    flat, at = np.empty(lines.bounds[j] - lines.bounds[i], dtype=np.int64), 0
    for a, b in lines.stretches(i, j):
        part = lines.indices(a, b, "column", col_w, a - i)
        flat[at : at + len(part)] = part
        at += len(part)
    if at < len(flat):  # padding: keep no buffer larger than the indices
        flat = flat[:at].copy()
    # every column holds its weight's indices (none when max_c is 0); the
    # bounds of the column lines go before the columns are checked
    lines.drop_before(j)
    col_ptr, row_idx, problem = normalize_columns(m, col_w, flat)
    if problem:
        c, what = problem
        raise ValueError(f"alist: line {numbers[c]}: {what} in column {c}")
    del col_w, flat, numbers
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
        flat = lines.indices(a, b, "row", row_w, a)
        if outside is not None:
            continue
        ptr = mat.row_ptr[a : b + 1] - mat.row_ptr[a]
        outside = _first_segment(ptr, np.flatnonzero(flat >= n), a)
        if outside is None and disagree is None:
            want = mat.col_idx[mat.row_ptr[a] : mat.row_ptr[b]]
            if rising(ptr, flat):  # each row lists its columns as col_idx does
                wrong = np.flatnonzero(flat != want)
            else:  # rows out of order: sort the (row, column) keys, which keep
                # each row's entries together (the weights agree), and compare
                # their columns
                key = sorted_keys(owner_chunks(ptr, flat), len(flat), n, (b - a) * n)
                wrong = np.flatnonzero(split_keys(key, n, flat) != want)
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
