"""Reference implementations that tests compare the library against.

None of these is called by the library, the benchmark or the scripts:
the exhaustive ML decoder, the accumulator recursion, the dense form
of a sparse matrix, its columns' and rows' index lists, a design's
blocks as tuples, the translates of base blocks by shift, reduction and
sort, the identity matrix, the matrix of a list of circulant orbits,
the multiplicative order, the plain resolution
search (the library's search under the identity block permutation at
class period 1), and the Netto difference grid with its discrete log,
which locates a difference's base block independently of
find_base_block_with_difference. Tests import them the way they import
conftest.
"""

import math
from functools import cache

import numpy as np

from bibdcodes import gf2
from bibdcodes.algebra import PrimeField, _prime_factors, is_prime
from bibdcodes.designs import Design
from bibdcodes.designs.resolution import DEFAULT_NODE_BUDGET, _search
from bibdcodes.errors import (
    BadModulus,
    DimensionMismatch,
    Infeasible,
    NonFiniteLlr,
    OutOfRange,
    TooLarge,
    ZeroInput,
)
from bibdcodes.matrices import SparseBinaryMatrix, owners, rank_gf2
from bibdcodes.ra import AccumulatorSpec


def to_dense(m: SparseBinaryMatrix) -> np.ndarray:
    a = np.zeros((m.rows, m.cols), dtype=np.uint8)
    a[m.row_idx, owners(m.col_ptr)] = 1
    return a


def _segments(ptr: np.ndarray, idx: np.ndarray) -> tuple:
    bounds, vals = ptr.tolist(), idx.tolist()
    return tuple(tuple(vals[a:b]) for a, b in zip(bounds, bounds[1:]))


def col_rows(m: SparseBinaryMatrix) -> tuple:
    """The sorted rows of each column, as a tuple of int tuples."""
    return _segments(m.col_ptr, m.row_idx)


def row_cols(m: SparseBinaryMatrix) -> tuple:
    """The sorted columns of each row, as a tuple of int tuples."""
    return _segments(m.row_ptr, m.col_idx)


def blocks(d: Design) -> tuple:
    """The blocks of a design, as a tuple of sorted int tuples."""
    return tuple(map(tuple, d.array.tolist()))


def translates_by_sort(base: np.ndarray, v: int) -> np.ndarray:
    """Every translate of each base block, as designs.translates gives
    them, by the direct formula: add each shift, reduce mod v, sort."""
    out = base[:, None, :] + np.arange(v)[None, :, None]
    out %= v
    out.sort(axis=2)
    return out


def identity(n: int) -> SparseBinaryMatrix:
    return SparseBinaryMatrix(n, n, np.arange(n).reshape(n, 1))


def find_resolution(d: Design, limit: int = DEFAULT_NODE_BUDGET):
    """Partition the blocks into parallel classes, or prove it impossible.

    Returns the resolution as a tuple of classes (tuples of block
    indices), checked with verify_resolution before returning.
    """
    if d.v % d.k != 0:
        raise Infeasible(f"v={d.v} not divisible by k={d.k}; no parallel class can exist")
    if d.b * d.k != d.v * d.r:
        raise Infeasible("block count does not match a resolvable design")
    resolution = _search(d, list(range(d.b)), (1,), limit)
    if resolution is None:
        raise Infeasible("exhaustive search found no resolution")
    return resolution


def expand_orbits(rows: int, orbits) -> SparseBinaryMatrix:
    """The rows x sum(n) matrix of circulant orbits (first column, n):
    an orbit's columns are its first shifted down by 0..n-1 mod rows."""
    cols = [[(r + j) % rows for r in first] for first, n in orbits for j in range(n)]
    return SparseBinaryMatrix(rows, len(cols), cols)


_ML_K_LIMIT = 20


def accumulate(r, spec: AccumulatorSpec) -> np.ndarray:
    """Run the accumulator recursion; the unique p with H2 p = r."""
    r = np.asarray(r, dtype=np.uint8)
    if len(r) != spec.m:
        raise ValueError(f"input length {len(r)} differs from m={spec.m}")
    s = spec.s
    p = np.zeros(spec.m, dtype=np.uint8)
    for i in range(spec.m):
        acc = int(r[i])
        for sl in s:
            if sl > i:
                break
            acc ^= int(p[i - sl])
        p[i] = acc
    return p


def ml_decode_exhaustive(h: SparseBinaryMatrix, llr) -> np.ndarray:
    """Maximum-likelihood decoding by codeword enumeration (K <= 20).

    Maximizes BPSK correlation, i.e. minimizes the summed LLR over set
    bits; Gray-code order breaks exact ties deterministically (first
    minimum wins, so the all-zero word wins a tie with anything).
    """
    llr = np.asarray(llr, dtype=np.float64)
    if llr.ndim != 1 or len(llr) != h.cols:
        raise DimensionMismatch(f"LLR length {llr.shape} != n={h.cols}")
    if not np.isfinite(llr).all():
        raise NonFiniteLlr("channel LLRs must be finite (NaN or inf found)")
    k = h.cols - rank_gf2(h)
    if k > _ML_K_LIMIT:
        raise TooLarge(f"dimension {k} exceeds ML enumeration limit {_ML_K_LIMIT}")
    positions = cache(gf2.bit_positions)  # each step flips one of K basis vectors
    best_cost = cost = 0.0
    best = np.zeros(h.cols, dtype=np.uint8)
    prev = 0
    bits = np.zeros(h.cols, dtype=np.uint8)
    for cw in gf2.codewords(h.packed_rows(), h.cols):
        flip = positions(cw ^ prev)
        signs = 1.0 - 2.0 * bits[flip].astype(np.float64)  # +1 where a bit turns on
        cost += float(np.sum(llr[flip] * signs))
        bits[flip] ^= 1
        prev = cw
        if cost < best_cost:
            best_cost = cost
            best = bits.copy()
    return best


def multiplicative_order(field: PrimeField, x: int) -> int:
    x %= field.p
    if x == 0:
        raise ZeroInput("0 has no multiplicative order")
    order = field.p - 1
    for q in _prime_factors(field.p - 1):
        while order % q == 0 and pow(x, order // q, field.p) == 1:
            order //= q
    return order


def discrete_log(field: PrimeField, x: int) -> int:
    """Exponent c in [0, p-2] with omega**c == x, by baby-step/giant-step."""
    p = field.p
    x %= p
    if x == 0:
        raise ZeroInput("0 has no discrete logarithm")
    if p == 2:
        return 0
    m = math.isqrt(p - 2) + 1
    baby = {}
    e = 1
    for j in range(m):
        baby.setdefault(e, j)
        e = e * field.omega % p
    # giant step: omega**(-m)
    step = pow(field.omega, (p - 1 - m) % (p - 1), p)
    gamma = x
    for i in range(m + 1):
        j = baby.get(gamma)
        if j is not None:
            return (i * m + j) % (p - 1)
        gamma = gamma * step % p
    raise ZeroInput(f"discrete log of {x} not found (is p={p} prime?)")  # unreachable


# --- Netto block index <-> discrete log -------------------------------------
#
# For p = 6t+1 the differences of the Netto family arrange into a 6 x t
# grid of consecutive powers of omega starting at omega^c with
# omega^c = omega * (omega^(2t) - 1). Column s (0-based) holds the
# differences of base block B_(s+1), which turns locating the block
# containing a target difference into a discrete-log computation.


def _netto_t(p: int) -> int:
    if not is_prime(p) or p % 6 != 1:
        raise BadModulus(f"need a prime p = 1 (mod 6), got {p}")
    return (p - 1) // 6


def netto_dlog_to_index(p: int, c: int) -> tuple[int, int]:
    """Map an exponent c to grid coordinates (s, r): s = t - c (mod t).

    s in 0..t-1 is the column (base block B_(s+1)); r in 0..5 is the row
    recovered from c = 6t - rt - s (mod 6t).
    """
    t = _netto_t(p)
    if not 0 <= c <= p - 2:
        raise OutOfRange(f"exponent {c} outside 0..{p - 2}")
    s = (t - c) % t
    r = ((6 * t - s - c) // t) % 6
    return s, r


def netto_index_to_dlog(p: int, r: int, s: int) -> int:
    """Inverse grid map: c = 6t - rt - s (mod 6t) for r in 0..5, s in 0..t-1."""
    t = _netto_t(p)
    if not 0 <= r <= 5:
        raise OutOfRange(f"row index {r} outside 0..5")
    if not 0 <= s <= t - 1:
        raise OutOfRange(f"column index {s} outside 0..{t - 1}")
    return (6 * t - r * t - s) % (p - 1)


def netto_block_index_of_difference(p: int, d: int) -> int:
    """1-based Netto block index containing difference d, via discrete log.

    Independent of the linear scan in find_base_block_with_difference;
    the two must agree on every Netto family.
    """
    field = PrimeField(p)
    t = _netto_t(p)
    anchor = field.omega * (pow(field.omega, 2 * t, p) - 1) % p  # omega^c
    c_anchor = discrete_log(field, anchor)
    c_d = discrete_log(field, d % p)
    s = (c_d - c_anchor) % t
    return s + 1
