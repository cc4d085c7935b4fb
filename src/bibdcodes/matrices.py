"""Sparse GF(2) matrix engine for parity-check work.

A SparseBinaryMatrix stores its nonzeros twice, as read-only int64
arrays: compressed columns (the rows of column j are
row_idx[col_ptr[j]:col_ptr[j + 1]], ascending) and the compressed-row
mirror (the columns of row i are col_idx[row_ptr[i]:row_ptr[i + 1]],
ascending). One vectorised normaliser builds both from column lists or
from a regular (cols, w) array such as Design.array. Bit packing, alist
I/O, the circulant check and the Tanner graph read the arrays; girth
and the bounded weight search build plain per-column and per-row lists
from them when they run.

Rank and girth read the circulant column orbits of a matrix. The
incidence matrix of a cyclic design keeps the design's DifferenceFamily
as `cyclic` and takes its orbits from it unchecked; any other matrix
gets them from one check that every block of v columns is a circulant
(v the row count), or has none. The rank is then v - deg gcd(x^v -
1, orbit polynomials), one polynomial gcd on Python ints, and girth
searches from one column per orbit. Elimination-style queries (the rank
of a matrix without orbits, minimum distance, encoding) bit-pack rows
into ints on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from . import gf2
from .errors import TooLarge


_CHUNK = 1 << 16  # entries per temporary in SparseBinaryMatrix._adopt


def owners(ptr: np.ndarray) -> np.ndarray:
    """Segment of every entry of a compressed index array: the column of
    each row_idx entry for col_ptr, the row of each col_idx entry for
    row_ptr."""
    return np.repeat(np.arange(len(ptr) - 1, dtype=np.int64), np.diff(ptr))


def _flatten(col_rows) -> tuple[np.ndarray, np.ndarray]:
    """(column lengths, concatenated rows) of column lists or of a
    regular (cols, w) array, as int64 arrays that share no memory with
    col_rows."""
    if isinstance(col_rows, np.ndarray) and col_rows.ndim == 2:
        cols, w = col_rows.shape
        return np.full(cols, w, dtype=np.int64), np.array(col_rows, dtype=np.int64).ravel()
    lengths = np.fromiter(map(len, col_rows), dtype=np.int64, count=len(col_rows))
    flat = np.fromiter(chain.from_iterable(col_rows), dtype=np.int64, count=int(lengths.sum()))
    return lengths, flat


def rising(ptr: np.ndarray, flat: np.ndarray) -> bool:
    """Whether the values rise strictly within every segment of flat
    (segment s is flat[ptr[s]:ptr[s + 1]]); a pair across a segment
    start does not count."""
    up = flat[1:] > flat[:-1]
    starts = ptr[1:-1]
    up[starts[(starts > 0) & (starts < len(flat))] - 1] = True
    return bool(up.all())


def normalize_columns(rows: int, lengths: np.ndarray, flat: np.ndarray):
    """Compressed columns from column lengths and their concatenated rows.

    Returns (col_ptr, row_idx, problem): each column's rows sorted, and
    problem None or (column, what is wrong) for the first column holding
    a row outside 0..rows-1 or a repeated row. When every column is
    already sorted and repeats nothing, row_idx is flat itself.
    """
    cols = len(lengths)
    col_ptr = np.zeros(cols + 1, dtype=np.int64)
    np.cumsum(lengths, out=col_ptr[1:])
    bad = (flat < 0) | (flat >= rows)
    first_bad = int(np.searchsorted(col_ptr, bad.argmax(), side="right")) - 1 if bad.any() else cols
    del bad
    # columns before the first out-of-range one may still repeat a row
    n = int(col_ptr[first_bad])
    # the rows rise within every column exactly when each column is sorted
    # and repeats nothing
    row_idx = flat
    if not rising(col_ptr[: first_bad + 1], flat[:n]):
        base = owners(col_ptr[: first_bad + 1])
        base *= rows
        key = base + flat[:n]
        key.sort()
        repeat = np.flatnonzero(key[1:] == key[:-1])
        if len(repeat):
            return col_ptr, None, (int(key[repeat[0]] // rows), "duplicate entry")
        row_idx = np.subtract(key, base, out=key)
    if first_bad < cols:
        return col_ptr, None, (first_bad, "row index out of range")
    return col_ptr, row_idx, None


def _checked_columns(rows: int, lengths: np.ndarray, flat: np.ndarray):
    col_ptr, row_idx, problem = normalize_columns(rows, lengths, flat)
    if problem:
        j, what = problem
        raise ValueError(f"{what} in column {j}")
    return col_ptr, row_idx


def _segments(ptr: np.ndarray, idx: np.ndarray) -> list[list[int]]:
    """Segments of a compressed index array as lists of ints."""
    vals = idx.tolist()
    bounds = ptr.tolist()
    return [vals[a:b] for a, b in zip(bounds, bounds[1:])]


class SparseBinaryMatrix:
    """Immutable 0/1 matrix stored as compressed columns plus their
    compressed-row mirror.

    col_rows is a list of row collections, one per column, in any order,
    or a regular (cols, w) integer array. A row outside 0..rows-1 or a
    row repeated within a column raises ValueError naming the column.

    cyclic is the DifferenceFamily whose expansion gave the columns, set
    only by incidence_matrix, else None; equality and hash ignore it.
    """

    __slots__ = ("rows", "cols", "col_ptr", "row_idx", "row_ptr", "col_idx", "cyclic")

    def __init__(self, rows: int, cols: int, col_rows):
        lengths, flat = _flatten(col_rows)
        if len(lengths) != cols:
            raise ValueError(f"expected {cols} columns, got {len(lengths)}")
        self._adopt(rows, *_checked_columns(rows, lengths, flat))

    @classmethod
    def _from_csc(cls, rows: int, col_ptr: np.ndarray, row_idx: np.ndarray, cyclic=None):
        """Adopt compressed columns that are already sorted and checked."""
        m = cls.__new__(cls)
        m._adopt(rows, col_ptr, row_idx)
        m.cyclic = cyclic
        return m

    def __reduce__(self):
        # rebuilt from the compressed columns, so that an unpickled copy's
        # arrays are read-only too
        return SparseBinaryMatrix._from_csc, (self.rows, self.col_ptr, self.row_idx, self.cyclic)

    def _adopt(self, rows: int, col_ptr: np.ndarray, row_idx: np.ndarray) -> None:
        self.rows = rows
        self.cols = len(col_ptr) - 1
        # sorting the keys row * cols + column leaves each row's columns
        # ascending, and the key array then becomes col_idx; like
        # normalize_columns' keys, they fit int64 while rows * cols does
        col_idx = owners(col_ptr)
        for a in range(0, len(col_idx), _CHUNK):  # one chunk's products at a time
            col_idx[a : a + _CHUNK] += row_idx[a : a + _CHUNK] * self.cols
        col_idx.sort()
        # row i's keys are the ones in i * cols .. (i + 1) * cols - 1; a
        # search, unlike np.bincount, copies no read-only row_idx
        starts = np.arange(rows + 1, dtype=np.int64) * self.cols
        row_ptr = np.searchsorted(col_idx, starts).astype(np.int64, copy=False)
        np.remainder(col_idx, max(self.cols, 1), out=col_idx)
        for a in (col_ptr, row_idx, row_ptr, col_idx):
            a.flags.writeable = False
        self.col_ptr, self.row_idx = col_ptr, row_idx
        self.row_ptr, self.col_idx = row_ptr, col_idx
        self.cyclic = None

    def __eq__(self, other):
        return (
            isinstance(other, SparseBinaryMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.col_ptr, other.col_ptr)
            and np.array_equal(self.row_idx, other.row_idx)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.col_ptr.tobytes(), self.row_idx.tobytes()))

    def __repr__(self):
        return f"SparseBinaryMatrix({self.rows}x{self.cols}, nnz={len(self.row_idx)})"

    def column_weights(self) -> list[int]:
        return np.diff(self.col_ptr).tolist()

    def packed_rows(self) -> list[int]:
        """Rows as int bitsets (bit j = column j), for GF(2) elimination.

        One row-long bit buffer is filled, packed and cleared per row, so
        no dense copy of the matrix is made.
        """
        bits = np.zeros(self.cols, dtype=bool)
        bounds = self.row_ptr.tolist()
        out = []
        for a, b in zip(bounds, bounds[1:]):
            cs = self.col_idx[a:b]
            bits[cs] = True
            out.append(int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))
            bits[cs] = False
        return out

    def hstack(self, other: "SparseBinaryMatrix") -> "SparseBinaryMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        col_ptr = np.concatenate([self.col_ptr, other.col_ptr[1:] + self.col_ptr[-1]])
        return SparseBinaryMatrix._from_csc(
            self.rows, col_ptr, np.concatenate([self.row_idx, other.row_idx])
        )

    def mul_vector(self, x: np.ndarray) -> np.ndarray:
        """H @ x over GF(2) for each vector along the last axis of a
        (..., cols) array, any nonzero entry counting as 1; the syndromes
        come back as a (..., rows) uint8 array.

        The vectors are packed 8 to a byte, vector 8g + i in bit 7 - i of
        byte g, so each row's parities are one bitwise_xor.reduceat
        segment over its columns' bytes. Empty rows are skipped, because
        reduceat cannot sum an empty segment, and stay 0.
        """
        x = np.asarray(x)
        if x.ndim == 0 or x.shape[-1] != self.cols:
            raise ValueError("vector length mismatch")
        batch = x.shape[:-1]
        vectors = math.prod(batch)
        groups, width = -(-vectors // 8), -(-self.cols // 8)
        bits = np.zeros((8 * groups, 8 * width), dtype=np.uint8)
        np.not_equal(x.reshape(vectors, self.cols), 0,
                     out=bits[:vectors, : self.cols].view(np.bool_))
        # each byte of a uint64 is one column's 0 or 1, so shifts by at most
        # 7 pack 8 vectors without carrying into the next column; np.packbits
        # across rows reads strided bytes and is many times slower
        words = bits.view(np.uint64).reshape(groups, 8, width)
        packed = words[:, 0] << np.uint64(7)
        for i in range(1, 8):
            packed |= words[:, i] << np.uint64(7 - i)
        by_column = np.ascontiguousarray(packed.view(np.uint8).T)
        out = np.zeros((self.rows, groups), dtype=np.uint8)
        nonempty = np.flatnonzero(np.diff(self.row_ptr))
        if len(nonempty):
            out[nonempty] = np.bitwise_xor.reduceat(
                np.take(by_column, self.col_idx, axis=0), self.row_ptr[nonempty], axis=0
            )
        return np.unpackbits(out, axis=1, count=vectors).T.reshape(batch + (self.rows,))


def incidence_matrix(design) -> SparseBinaryMatrix:
    """v x b point-block incidence; column order follows design block order.

    The blocks become the columns unchecked and uncopied: a plain
    design's `array` and a cyclic design's expansion both have sorted
    rows of distinct points in 0..v-1, and the matrix's row_idx is the
    flattened block array. The matrix of a cyclic design carries the
    design's family as `cyclic` and is built from a fresh expansion, so
    the design's `array` stays unbuilt.
    """
    blocks = design.array if design.cyclic is None else design.cyclic.expansion()
    col_ptr = np.arange(len(blocks) + 1, dtype=np.int64) * design.k
    return SparseBinaryMatrix._from_csc(design.v, col_ptr, blocks.ravel(), cyclic=design.cyclic)


def _orbits(m: SparseBinaryMatrix) -> tuple | None:
    """m's columns as circulant orbits, in column order, or None.

    Each orbit is (rows of its first column, length n): its columns are
    the first with every row shifted down by 0..n-1 mod m.rows. They come
    from the family when m has one. Otherwise every block of v = m.rows
    columns must be a full orbit: column j of a block is its first column
    shifted down by j mod v. None when some block is not.
    """
    if m.cyclic is not None:
        return tuple(zip(m.cyclic.orbit_bases, m.cyclic.orbit_lengths))
    v = m.rows
    if v == 0 or m.cols % v:
        return None
    first = np.arange(m.cols) // v * v
    weight = np.diff(m.col_ptr)
    if (weight != weight[first]).any():
        return None
    col = owners(m.col_ptr)
    src = m.col_ptr[first[col]] + np.arange(len(m.row_idx)) - m.col_ptr[col]
    # col * v + row orders the entries column by column, then by row
    expect = col * v + (m.row_idx[src] + col % v) % v
    expect.sort()
    if (expect != col * v + m.row_idx).any():
        return None
    return tuple((tuple(m.row_idx[m.col_ptr[f] : m.col_ptr[f + 1]].tolist()), v)
                 for f in range(0, m.cols, v))


def girth(m: SparseBinaryMatrix) -> float:
    """Shortest cycle length of the bipartite adjacency graph.

    BFS from column vertices, truncated at the best bound found so far;
    returns math.inf for forests. Cycle lengths are counted in graph
    edges, so results are even and at least 4.
    """
    return girth_with_witness(m)[0]


def _bfs_roots(m: SparseBinaryMatrix) -> range | list[int]:
    """Columns to start the girth BFS from: the first column of each
    circulant orbit, from the family or the circulant check (see
    _orbits), or every column when m has neither.

    Shifting every row by one, and every column to the next one of its
    orbit (a short orbit's last column to its first), is an automorphism,
    so every column has the same BFS bound as its orbit's first column,
    and only those are searched. Since the first column of each orbit
    precedes the rest of it, the first root reaching the girth, and so
    the witness, is the same as with one root per column.
    """
    orbits = _orbits(m)
    if orbits is None:
        return range(m.cols)
    return list(accumulate((n for _, n in orbits), initial=0))[:-1]


def girth_with_witness(m: SparseBinaryMatrix):
    """Girth plus one shortest cycle as alternating (column, row) labels.

    The witness is a list like ['c0', 'r3', 'c5', ...] tracing the
    cycle, or None for forests.
    """
    best = math.inf
    best_cycle = None
    # vertices: columns 0..cols-1, then rows cols..cols+rows-1
    n_cols = m.cols
    rows_of = _segments(m.col_ptr, m.row_idx)
    cols_of = _segments(m.row_ptr, m.col_idx)
    for start in _bfs_roots(m):
        if best == 4:
            break
        dist = {start: 0}
        parent = {start: -1}
        frontier = [start]
        depth = 0
        while frontier and 2 * depth + 1 < best:
            nxt = []
            for u in frontier:
                if u < n_cols:
                    neighbors = (n_cols + r for r in rows_of[u])
                else:
                    neighbors = iter(cols_of[u - n_cols])
                for w in neighbors:
                    if w == parent[u]:
                        continue
                    dw = dist.get(w)
                    if dw is None:
                        dist[w] = depth + 1
                        parent[w] = u
                        nxt.append(w)
                    else:
                        # non-tree edge closes a cycle through the BFS root
                        cand = depth + dw + 1
                        if cand < best:
                            best = cand
                            best_cycle = _trace_cycle(parent, u, w)
            frontier = nxt
            depth += 1
    if best_cycle is None:
        return best, None
    labels = [f"c{v}" if v < n_cols else f"r{v - n_cols}" for v in best_cycle]
    return best, labels


def _trace_cycle(parent, u, w):
    """Join the BFS-tree paths of u and w at their common ancestor."""
    path_u = [u]
    while parent[path_u[-1]] != -1:
        path_u.append(parent[path_u[-1]])
    path_w = [w]
    while parent[path_w[-1]] != -1:
        path_w.append(parent[path_w[-1]])
    seen = {v: i for i, v in enumerate(path_u)}
    for j, v in enumerate(path_w):
        if v in seen:
            return path_u[: seen[v]] + [v] + path_w[:j][::-1]
    return path_u + path_w[::-1]  # disjoint roots cannot happen in one BFS


def rank_gf2(m: SparseBinaryMatrix) -> int:
    """Rank over GF(2).

    Read a column as the polynomial with x^r for each of its rows r. A
    circulant orbit with first column b(x) then holds x^j b(x) mod
    x^v - 1 (v = m.rows) for j below its length; a short orbit's next
    shift returns b(x), so every orbit spans the ideal of b(x) in
    GF(2)[x]/(x^v - 1). The columns of m together span the ideal of
    g = gcd(x^v - 1, b_1(x), ..., b_t(x)), so the rank is v - deg g. A
    matrix without orbits (see _orbits) is bit-packed and eliminated.
    """
    orbits = _orbits(m)
    if orbits is None:
        return gf2.rank(m.packed_rows())
    g = (1 << m.rows) | 1
    for first, _ in orbits:
        if g == 1:
            break
        g = gf2.poly_gcd(g, sum(1 << r for r in first))
    return m.rows - (g.bit_length() - 1)


@dataclass(frozen=True)
class CodeDimensions:
    """Code parameters of a parity-check matrix: n, rank, dimension, rate."""

    n: int
    rank: int
    k: int
    rate: float


def code_dimensions(m: SparseBinaryMatrix) -> CodeDimensions:
    r = rank_gf2(m)
    k = m.cols - r
    return CodeDimensions(n=m.cols, rank=r, k=k, rate=k / m.cols if m.cols else 0.0)


@dataclass(frozen=True)
class Regularity:
    """Constant weights, or None where mixed (histogram tells the story)."""

    column_weight: int | None
    row_weight: int | None
    column_histogram: dict
    row_histogram: dict

    @property
    def is_regular(self) -> bool:
        return self.column_weight is not None and self.row_weight is not None


def _histogram(weights: np.ndarray) -> dict:
    """{weight: count} with the weights in order of first appearance."""
    values, first, counts = np.unique(weights, return_index=True, return_counts=True)
    order = np.argsort(first)
    return dict(zip(values[order].tolist(), counts[order].tolist()))


def _constant(hist: dict) -> int | None:
    """The one weight of a histogram, 0 for an empty one, None if mixed."""
    return None if len(hist) > 1 else next(iter(hist), 0)


def regularity(m: SparseBinaryMatrix) -> Regularity:
    ch = _histogram(np.diff(m.col_ptr))
    rh = _histogram(np.diff(m.row_ptr))
    return Regularity(_constant(ch), _constant(rh), ch, rh)


_EXHAUSTIVE_K_LIMIT = 24


def min_distance_exhaustive(h: SparseBinaryMatrix, cap: int | None = None) -> int | float | None:
    """Exact minimum nonzero codeword weight of the code with parity check h.

    K = N - rank comes first. With K <= 24 every codeword is walked
    (gf2.codewords) and the exact distance returned (math.inf if the code
    is trivial). For larger K a cap must be given; the search then looks
    for codewords of weight <= cap column by column and returns None
    ("above cap") when none exists.
    """
    k = h.cols - rank_gf2(h)
    if k <= _EXHAUSTIVE_K_LIMIT:
        return min(map(int.bit_count, gf2.codewords(h.packed_rows(), h.cols)), default=math.inf)
    if cap is None:
        raise TooLarge(f"dimension {k} exceeds exhaustive limit {_EXHAUSTIVE_K_LIMIT}; pass a cap")
    return _bounded_weight_search(h, cap)


def _bounded_weight_search(h: SparseBinaryMatrix, cap: int) -> int | None:
    """Smallest weight <= cap among nonzero codewords, else None."""
    n = h.cols
    col_masks = []
    for rs in _segments(h.col_ptr, h.row_idx):
        x = 0
        for r in rs:
            x |= 1 << r
        col_masks.append(x)

    def dfs(start: int, syndrome: int, weight: int, limit: int) -> bool:
        if syndrome == 0 and weight > 0:
            return True
        if weight == limit:
            return False
        for j in range(start, n):
            if dfs(j + 1, syndrome ^ col_masks[j], weight + 1, limit):
                return True
        return False

    for w in range(1, cap + 1):
        if dfs(0, 0, 0, w):
            return w
    return None
