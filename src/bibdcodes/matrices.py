"""Sparse GF(2) matrix engine for parity-check work.

A SparseBinaryMatrix keeps mirrored adjacency (sorted row indices per
column and sorted column indices per row). The adjacency view drives
belief propagation and girth search; elimination-style queries (rank,
minimum distance, encoding) bit-pack rows into ints on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf2
from .errors import NotQuasiCyclic, TooLarge


class SparseBinaryMatrix:
    """Immutable 0/1 matrix stored as mirrored sparse adjacency."""

    __slots__ = ("rows", "cols", "col_rows", "row_cols")

    def __init__(self, rows: int, cols: int, col_rows: list[tuple[int, ...]]):
        if len(col_rows) != cols:
            raise ValueError(f"expected {cols} columns, got {len(col_rows)}")
        self.rows = rows
        self.cols = cols
        cleaned = []
        row_cols: list[list[int]] = [[] for _ in range(rows)]
        for j, rs in enumerate(col_rows):
            rs = tuple(sorted(rs))
            if any(r < 0 or r >= rows for r in rs):
                raise ValueError(f"row index out of range in column {j}")
            if len(set(rs)) != len(rs):
                raise ValueError(f"duplicate entry in column {j}")
            cleaned.append(rs)
            for r in rs:
                row_cols[r].append(j)
        self.col_rows = tuple(cleaned)
        self.row_cols = tuple(tuple(cs) for cs in row_cols)

    @classmethod
    def identity(cls, n: int) -> "SparseBinaryMatrix":
        return cls(n, n, [(i,) for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, SparseBinaryMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.col_rows == other.col_rows
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.col_rows))

    def __repr__(self):
        nnz = sum(len(c) for c in self.col_rows)
        return f"SparseBinaryMatrix({self.rows}x{self.cols}, nnz={nnz})"

    def column_weights(self) -> list[int]:
        return [len(c) for c in self.col_rows]

    def row_weights(self) -> list[int]:
        return [len(r) for r in self.row_cols]

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.rows, self.cols), dtype=np.uint8)
        for j, rs in enumerate(self.col_rows):
            for r in rs:
                a[r, j] = 1
        return a

    def packed_rows(self) -> list[int]:
        """Rows as int bitsets (bit j = column j), for GF(2) elimination."""
        out = []
        for cs in self.row_cols:
            x = 0
            for c in cs:
                x |= 1 << c
            out.append(x)
        return out

    def hstack(self, other: "SparseBinaryMatrix") -> "SparseBinaryMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return SparseBinaryMatrix(
            self.rows, self.cols + other.cols, list(self.col_rows) + list(other.col_rows)
        )

    def mul_vector(self, x: np.ndarray) -> np.ndarray:
        """H @ x over GF(2) for a 0/1 vector of length cols."""
        if len(x) != self.cols:
            raise ValueError("vector length mismatch")
        syn = np.zeros(self.rows, dtype=np.uint8)
        for j in np.nonzero(x)[0]:
            for r in self.col_rows[j]:
                syn[r] ^= 1
        return syn


def incidence_matrix(design) -> SparseBinaryMatrix:
    """v x b point-block incidence; column order follows design block order."""
    return SparseBinaryMatrix(design.v, len(design.blocks), [tuple(b) for b in design.blocks])


def girth(m: SparseBinaryMatrix) -> float:
    """Shortest cycle length of the bipartite adjacency graph.

    BFS from every column vertex, truncated at the best bound found so
    far; returns math.inf for forests. Cycle lengths are counted in
    graph edges, so results are even and at least 4.
    """
    return girth_with_witness(m)[0]


def girth_with_witness(m: SparseBinaryMatrix):
    """Girth plus one shortest cycle as alternating (column, row) labels.

    The witness is a list like ['c0', 'r3', 'c5', ...] tracing the
    cycle, or None for forests.
    """
    best = math.inf
    best_cycle = None
    # vertices: columns 0..cols-1, then rows cols..cols+rows-1
    n_cols = m.cols
    for start in range(n_cols):
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
                    neighbors = (n_cols + r for r in m.col_rows[u])
                else:
                    neighbors = iter(m.row_cols[u - n_cols])
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
    """Rank over GF(2) via bit-packed elimination."""
    return gf2.rank(m.packed_rows())


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


def regularity(m: SparseBinaryMatrix) -> Regularity:
    cw = m.column_weights()
    rw = m.row_weights()
    ch: dict[int, int] = {}
    rh: dict[int, int] = {}
    for w in cw:
        ch[w] = ch.get(w, 0) + 1
    for w in rw:
        rh[w] = rh.get(w, 0) + 1
    col = cw[0] if len(ch) == 1 else (0 if not cw else None)
    row = rw[0] if len(rh) == 1 else (0 if not rw else None)
    if not cw:
        col = 0
    if not rw:
        row = 0
    return Regularity(col, row, ch, rh)


@dataclass(frozen=True)
class QcLayout:
    """Circulant column-block layout: (first column, shift count) per block."""

    circulant_size: int
    rows: int
    block_columns: tuple


def qc_layout(m: SparseBinaryMatrix, circulant_size: int) -> QcLayout:
    """Verify m is column-blockwise circulant and return the compact layout.

    Column j of a block must be the first column of the block with every
    entry shifted down by j (cyclically within each row group of
    circulant_size). Raises NotQuasiCyclic naming the first bad block.
    """
    L = circulant_size
    if L <= 0 or m.cols % L != 0:
        raise NotQuasiCyclic(f"column count {m.cols} not divisible by {L}", block_index=None)
    if m.rows % L != 0:
        raise NotQuasiCyclic(f"row count {m.rows} not divisible by {L}", block_index=None)
    blocks = []
    for b in range(m.cols // L):
        first = m.col_rows[b * L]
        for j in range(L):
            expect = tuple(sorted(L * (r // L) + (r % L + j) % L for r in first))
            if m.col_rows[b * L + j] != expect:
                raise NotQuasiCyclic(
                    f"column block {b} is not circulant (column {b * L + j})",
                    block_index=b,
                )
        blocks.append((first, L))
    return QcLayout(circulant_size=L, rows=m.rows, block_columns=tuple(blocks))


def expand_qc_layout(layout: QcLayout) -> SparseBinaryMatrix:
    L = layout.circulant_size
    cols = []
    for first, shifts in layout.block_columns:
        for j in range(shifts):
            cols.append(tuple(sorted(L * (r // L) + (r % L + j) % L for r in first)))
    return SparseBinaryMatrix(layout.rows, len(cols), cols)


_EXHAUSTIVE_K_LIMIT = 24


def min_distance_exhaustive(h: SparseBinaryMatrix, cap: int | None = None) -> int | float | None:
    """Exact minimum nonzero codeword weight of the code with parity check h.

    With dimension K <= 24 the full codeword space is enumerated (Gray
    code over a nullspace basis) and the exact distance returned
    (math.inf if the code is trivial). For larger K a cap must be given;
    the search then looks for codewords of weight <= cap column by
    column and returns None ("above cap") when none exists.
    """
    packed = h.packed_rows()
    basis = gf2.nullspace(packed, h.cols)
    k = len(basis)
    if k == 0:
        return math.inf
    if k <= _EXHAUSTIVE_K_LIMIT:
        best = h.cols + 1
        cw = 0
        for i in range(1, 1 << k):
            cw ^= basis[(i & -i).bit_length() - 1]
            w = cw.bit_count()
            if 0 < w < best:
                best = w
        return best
    if cap is None:
        raise TooLarge(f"dimension {k} exceeds exhaustive limit {_EXHAUSTIVE_K_LIMIT}; pass a cap")
    return _bounded_weight_search(h, cap)


def _bounded_weight_search(h: SparseBinaryMatrix, cap: int) -> int | None:
    """Smallest weight <= cap among nonzero codewords, else None."""
    n = h.cols
    col_masks = []
    for rs in h.col_rows:
        x = 0
        for r in rs:
            x |= 1 << r
        col_masks.append(x)

    best: int | None = None

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
            best = w
            break
    return best
