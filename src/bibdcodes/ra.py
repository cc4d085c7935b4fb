"""Generalized accumulators and repeat-accumulate parity checks.

The accumulator with design parameters g_1..g_{q-1} computes
p[i] = r[i] xor p[i-s_1] xor ... xor p[i-s_{q-1}] over the prefix sums
s_l = g_1 + ... + g_l (taps before the start of the sequence are
skipped). Its parity matrix H2 is lower triangular with unit diagonal:
column i has entries at rows i and i + s_l where those rows exist.

The transforms below carve such an H2 out of the incidence matrix of a
design (cyclic, resolvable, or cyclically resolvable) and stack the
untouched orbits or resolution classes next to it as H1, giving
H = [H1 H2]. Each design class contributes only what is its own: a row
permutation of the design's points (the identity for a cyclic family),
the points of the blocks that become H1's columns, and, for the
weight-q codes, the chain block that becomes each H2 column. One
builder, _assemble, turns these into the RaParityCheck: H1 is the
permuted H1 blocks, the sRA H2 is h2_from_spec's double diagonal, and a
weight-q H2 column i keeps the permuted chain block's rows at i or
below, deleting the entries a permutation wraps above the diagonal,
which is exactly the accumulator's missing-row clause. One chooser
validates the orbits or classes picked for H1. Realized tap parameters
are always read back off the finished H2 by spec_from_h2 rather than
trusted from the construction path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .designs.families import find_base_block_with_difference
from .designs.types import Design, DifferenceFamily, shift_map, shift_orbit, translates
from .errors import (
    BadG1,
    ChainBroken,
    DifferenceAbsent,
    MissingResolution,
    NoCoprimeDelta,
    NotFound,
    NotKtsTail,
    NoUnitDifference,
    OrbitOverlap,
    OutOfRange,
    PropertyViolation,
)
from .matrices import SparseBinaryMatrix, _checked_columns


@dataclass(frozen=True)
class AccumulatorSpec:
    """Accumulator memory layout: parity length m and taps g_1..g_{q-1}."""

    m: int
    g: tuple

    def __post_init__(self):
        object.__setattr__(self, "g", tuple(int(x) for x in self.g))
        if len(set(self.g)) != len(self.g):
            raise ValueError(f"tap distances must be distinct, got {self.g}")
        if any(not 1 <= x <= self.m for x in self.g):
            raise ValueError(f"tap distances must lie in 1..{self.m}, got {self.g}")

    @property
    def q(self) -> int:
        return len(self.g) + 1

    @property
    def s(self) -> tuple:
        out = []
        acc = 0
        for x in self.g:
            acc += x
            out.append(acc)
        return tuple(out)


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


def _masked_columns(rows: np.ndarray, keep: np.ndarray) -> SparseBinaryMatrix:
    """Square matrix whose column i holds the entries rows[i][keep[i]]."""
    m = len(rows)
    return SparseBinaryMatrix._from_csc(m, *_checked_columns(m, keep.sum(axis=1), rows[keep]))


def h2_from_spec(spec: AccumulatorSpec) -> SparseBinaryMatrix:
    """Accumulator parity matrix: column i has rows i and i+s_l that exist."""
    rows = np.arange(spec.m)[:, None] + np.array((0,) + spec.s, dtype=np.int64)
    return _masked_columns(rows, rows < spec.m)


def spec_from_h2(h2: SparseBinaryMatrix) -> AccumulatorSpec | None:
    """Read the tap layout back from a finished H2; None if it is not a
    uniform truncated accumulator matrix."""
    if h2.rows != h2.cols or h2.cols == 0:
        return None
    offsets = h2.row_idx[h2.col_ptr[0]:h2.col_ptr[1]]
    if len(offsets) == 0 or offsets[0] != 0:
        return None
    try:
        spec = AccumulatorSpec(m=h2.rows, g=tuple(np.diff(offsets).tolist()))
    except ValueError:  # repeated taps
        return None
    return spec if h2 == h2_from_spec(spec) else None


@dataclass(frozen=True)
class RaParityCheck:
    """H = [H1 H2] with H2 the accumulator part.

    spec is the realized accumulator layout (None when H2 is valid but
    not a uniform accumulator); provenance records how the matrix was
    built so exported artifacts are self-describing.
    """

    h1: SparseBinaryMatrix
    h2: SparseBinaryMatrix
    spec: AccumulatorSpec | None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.h2.rows != self.h2.cols or self.h1.rows != self.h2.rows:
            raise ValueError("H2 must be square and share its row count with H1")
        for i, rows in enumerate(self.h2.col_rows):
            # lower triangular with unit diagonal, hence invertible
            if not rows or rows[0] != i:
                raise ValueError(f"H2 column {i} lacks its diagonal entry")

    @property
    def m(self) -> int:
        return self.h2.rows

    @property
    def k(self) -> int:
        return self.h1.cols

    @property
    def h(self) -> SparseBinaryMatrix:
        return self.h1.hstack(self.h2)

    @property
    def q(self) -> int:
        """Reported column weight: the H1 column weight when uniform,
        else the accumulator's q (0 when H2 is not uniform either)."""
        h1w = self.h1.column_weights()
        if h1w and len(set(h1w)) == 1:
            return h1w[0]
        return self.spec.q if self.spec else 0


def _choose(what: str, picks, valid: range, reserved) -> np.ndarray:
    """The orbits or classes picked for H1, in their order, as an array;
    OrbitOverlap for the first pick outside valid, reserved for H2, or
    listed twice."""
    chosen = []
    for i in picks:
        if i not in valid:
            raise OrbitOverlap(f"{what} index {i} outside {valid.start}..{valid.stop - 1}")
        if i in reserved:
            raise OrbitOverlap(f"{what} {i} is consumed by the accumulator part")
        if i in chosen:
            raise OrbitOverlap(f"{what} {i} listed twice")
        chosen.append(i)
    return np.array(chosen, dtype=np.int64)


def _class_blocks(d: Design, classes) -> np.ndarray:
    """Block indices of the given resolution classes, class by class."""
    return np.array([bi for ci in classes for bi in d.resolution[ci]], dtype=np.int64)


def _class_points(d: Design, h1_classes, reserved) -> np.ndarray:
    """Points of the blocks of the classes chosen for H1."""
    return d.array[_class_blocks(d, _choose("class", h1_classes, range(len(d.resolution)),
                                            reserved))]


def _assemble(position_of: np.ndarray, h1_points: np.ndarray, chain_points,
              provenance: dict) -> RaParityCheck:
    """[H1 H2] on the design's rows reordered so that point x lies on row
    position_of[x].

    Column j of H1 holds the rows of the points h1_points[j]. H2 is the
    double diagonal when chain_points is None; otherwise its column i
    holds the rows of the chain block chain_points[i] that lie at i or
    below, the entries wrapped above the diagonal being deleted.
    """
    v = len(position_of)
    h1 = SparseBinaryMatrix(v, len(h1_points), position_of[h1_points])
    if chain_points is None:
        h2 = h2_from_spec(AccumulatorSpec(m=v, g=(1,)))
    else:
        rows = np.sort(position_of[chain_points], axis=1)
        h2 = _masked_columns(rows, rows >= np.arange(v)[:, None])
    return RaParityCheck(h1=h1, h2=h2, spec=spec_from_h2(h2), provenance=provenance)


# --- cyclic difference families -----------------------------------------------


def _orbit_points(f: DifferenceFamily, h1_orbits, reserved: int) -> np.ndarray:
    """The circulants of the chosen orbits side by side: column i*v + j is
    the translate B_(h1_orbits[i]) + j."""
    idx = _choose("orbit", h1_orbits, range(1, f.t + 1), (reserved,)) - 1
    base = np.array(f.base_blocks, dtype=np.int64).reshape(-1, f.k)
    return translates(base[idx], f.v).reshape(-1, f.k)


def sra_from_cdf(f: DifferenceFamily, h1_orbits) -> RaParityCheck:
    """Double-diagonal accumulator from the orbit containing difference 1.

    The circulant of that orbit has two consecutive entries in every
    column; keeping exactly those pairs, rotating columns so the pairs
    sit on the diagonal, and dropping the single wrapped entry yields
    the weight-2 accumulator. h1_orbits picks the circulants kept as H1
    (1-based family indices, accumulator orbit excluded).
    """
    v = f.v
    try:
        t_idx = find_base_block_with_difference(f, 1)
    except NotFound as exc:
        raise NoUnitDifference(str(exc)) from None
    h1_points = _orbit_points(f, h1_orbits, t_idx)
    base = f.block(t_idx)
    start = min(x for x in base if (x + 1) % v in base)
    return _assemble(np.arange(v), h1_points, None, dict(
        kind="sra", source="cdf", v=v, k=f.k, accumulator_orbit=t_idx, pair_start=start,
        h1_orbits=tuple(h1_orbits)))


def wqra_from_cdf(f: DifferenceFamily, g1: int, h1_orbits) -> RaParityCheck:
    """Weight-q accumulator from the orbit containing difference g1.

    The chosen orbit's circulant is rotated so that one block element
    sits on the diagonal and everything above the diagonal is deleted:
    H2 column i is the base block shifted by i - anchor. The rotation
    anchor is the block element minimizing the largest column offset
    (most columns keep full weight q); remaining tap distances fall out
    of the block's other differences and are reported in the realized
    spec.
    """
    v = f.v
    if g1 % v == 0:
        raise DifferenceAbsent(f"difference {g1} is zero mod v={v}")
    try:
        s_idx = find_base_block_with_difference(f, g1)
    except NotFound as exc:
        raise DifferenceAbsent(str(exc)) from None
    h1_points = _orbit_points(f, h1_orbits, s_idx)
    base = f.block(s_idx)
    anchor = min(base, key=lambda x: (max((b - x) % v for b in base), x))
    chain_points = (np.array(base) - anchor + np.arange(v)[:, None]) % v
    return _assemble(np.arange(v), h1_points, chain_points, dict(
        kind="wqra", source="cdf", v=v, k=f.k, requested_g1=g1, accumulator_orbit=s_idx,
        anchor=anchor, h1_orbits=tuple(h1_orbits)))


# --- resolvable designs with a circulant tail --------------------------------


def _kts_tail(d: Design):
    """Validate the last three resolution classes as stacked shifted
    identities and return (m, tail class indices, per-class column info).

    Column info per class: list of (block_index, top_point) sorted by
    top point, plus the middle/bottom shift constants.
    """
    if d.resolution is None:
        raise MissingResolution("design carries no resolution")
    if d.k != 3 or d.v % 3 != 0:
        raise NotKtsTail(f"circulant tail needs k=3 and 3 | v, got k={d.k}, v={d.v}")
    if len(d.resolution) < 3:
        raise NotKtsTail("need at least three resolution classes")
    m = d.v // 3
    tail_idx = tuple(range(len(d.resolution) - 3, len(d.resolution)))
    tail = []
    for ci in tail_idx:
        cls = d.resolution[ci]
        if len(cls) != m:
            raise NotKtsTail(f"class {ci} has {len(cls)} blocks, expected {m}")
        entries = []
        for bi in cls:
            blk = d.blocks[bi]
            thirds = sorted(x // m for x in blk)
            if thirds != [0, 1, 2]:
                raise NotKtsTail(f"block {blk} is not one point per third")
            top, mid, bot = sorted(blk)
            entries.append((bi, top, mid - m, bot - 2 * m))
        entries.sort(key=lambda e: e[1])
        tops = [e[1] for e in entries]
        if tops != list(range(m)):
            raise NotKtsTail(f"class {ci} top points do not sweep 0..{m - 1}")
        b_shift = (entries[0][2] - entries[0][1]) % m
        c_shift = (entries[0][3] - entries[0][1]) % m
        for bi, top, midr, botr in entries:
            if (midr - top) % m != b_shift or (botr - top) % m != c_shift:
                raise NotKtsTail(f"class {ci} is not a stack of shifted identities")
        tail.append((ci, entries, b_shift, c_shift))
    return m, tail_idx, tail


def _kts_chain(d: Design):
    """Row order and column order double-diagonalizing the zeroed tail.

    Zeroing the bottom circulant of the first tail class, the top of the
    second and the middle of the third leaves two entries per column;
    columns then act as edges on rows and must close a single
    Hamiltonian cycle (ChainBroken otherwise). Returns (row_order,
    edge_blocks) where edge i joins row_order[i] and row_order[i+1].
    """
    mm, tail_idx, tail = _kts_tail(d)
    v = d.v
    edges = []  # (block_index, row_a, row_b)
    for bi, top, midr, _ in tail[0][1]:  # first class: keep top+middle
        edges.append((bi, top, mm + midr))
    for bi, _, midr, botr in tail[1][1]:  # second class: keep middle+bottom
        edges.append((bi, mm + midr, 2 * mm + botr))
    for bi, top, _, botr in tail[2][1]:  # third class: keep top+bottom
        edges.append((bi, top, 2 * mm + botr))
    incident: list[list[tuple[int, int]]] = [[] for _ in range(v)]
    for eid, (bi, ra, rb) in enumerate(edges):
        incident[ra].append((eid, rb))
        incident[rb].append((eid, ra))
    if any(len(inc) != 2 for inc in incident):
        raise ChainBroken("zeroed tail is not 2-regular on rows")
    for inc in incident:
        inc.sort(key=lambda e: edges[e[0]][0])
    row_order = [0]
    eid, nxt = incident[0][0]
    edge_order = [eid]
    cur = nxt
    while cur != 0:
        row_order.append(cur)
        eid, nxt = next((e, o) for e, o in incident[cur] if e != edge_order[-1])
        edge_order.append(eid)
        cur = nxt
    if len(row_order) != v:
        raise ChainBroken(
            f"tail columns split into several cycles (first has length {len(row_order)})"
        )
    edge_blocks = [edges[e][0] for e in edge_order]
    return row_order, edge_blocks, tail_idx


def _kts_parts(d: Design, h1_classes):
    """Row permutation, H1 points, chain points and provenance shared by
    the two tail transforms."""
    row_order, edge_blocks, tail_idx = _kts_chain(d)
    h1_points = _class_points(d, h1_classes, tail_idx)
    return np.argsort(row_order), h1_points, d.array[edge_blocks], dict(
        source="kts", v=d.v, tail_classes=tail_idx, h1_classes=tuple(h1_classes),
        row_order=tuple(row_order), h2_blocks=tuple(edge_blocks))


def sra_from_kts(d: Design, h1_classes) -> RaParityCheck:
    """Double diagonal from the circulant tail of a Kirkman-style design.

    Three circulant positions of the tail are zeroed, the remaining
    2-regular column structure is walked as a single chain to produce a
    global row order, and the tail columns are reordered along the
    chain. The row permutation applies to the whole incidence matrix,
    so H1 classes are permuted consistently.
    """
    position_of, h1_points, _, provenance = _kts_parts(d, h1_classes)
    return _assemble(position_of, h1_points, None, {"kind": "sra", **provenance})


def w3ra_from_kts(d: Design, h1_classes) -> RaParityCheck:
    """Same permutations as sra_from_kts but the zeroed entries are kept.

    Every tail column then carries its third entry as well, lifting most
    of H2 to weight 3; entries the permutation wraps above the diagonal
    are deleted. Realized taps are read off the finished H2 (g_1 = 1 and
    the second tap falls out of the tail's shift constants).
    """
    position_of, h1_points, chain_points, provenance = _kts_parts(d, h1_classes)
    return _assemble(position_of, h1_points, chain_points, {"kind": "w3ra", **provenance})


# --- cyclically resolvable designs -------------------------------------------


def _class_orbit(d: Design, class_index: int) -> list[int]:
    """Indices of the classes in the shift orbit of the given class."""
    if d.resolution is None:
        raise MissingResolution("design carries no resolution")
    if not 0 <= class_index < len(d.resolution):
        raise OutOfRange(f"class index {class_index} outside 0..{len(d.resolution) - 1}")
    shift = shift_map(d)
    if shift is None:
        raise PropertyViolation("blocks repeat or are not closed under the +1 shift")
    class_of = {frozenset(cls): ci for ci, cls in enumerate(d.resolution)}
    orbit = [class_index]
    for image in shift_orbit(d.resolution[class_index], shift)[1:]:
        ci = class_of.get(frozenset(image))
        if ci is None:
            raise PropertyViolation("resolution is not closed under the +1 shift")
        orbit.append(ci)
    return orbit


def _find_coprime_delta(d: Design, col_blocks) -> tuple[int, int]:
    """First 1-entry whose cyclic distance to the next entry below is
    coprime to v; scanned column by column, entry by entry."""
    v = d.v
    for bi in col_blocks:
        rows = sorted(d.blocks[bi])
        kk = len(rows)
        for a in range(kk):
            x1 = rows[a]
            nxt = rows[(a + 1) % kk]
            delta = (nxt - x1) % v
            if math.gcd(delta, v) == 1:
                return x1, delta
    raise NoCoprimeDelta(f"no entry pair with distance coprime to {v}")


def _crc_parts(d: Design, class_orbit: int, g1: int, h1_classes):
    """Row permutation, H1 points, chain points and provenance shared by
    the two cyclically resolvable transforms."""
    v = d.v
    orbit = _class_orbit(d, class_orbit)
    if len(orbit) != d.k:
        raise PropertyViolation(
            f"class orbit has length {len(orbit)}, expected k={d.k}; pick a class from a full orbit"
        )
    col_blocks = _class_blocks(d, orbit)
    if len(col_blocks) != v:
        raise PropertyViolation("class orbit incidence is not square")
    x1, delta = _find_coprime_delta(d, col_blocks)
    # old row x1 + delta*t moves to position (t+1)*g1 - 1 (0-based)
    t = np.arange(v)
    position_of = np.empty(v, dtype=np.int64)
    position_of[(x1 + delta * t) % v] = ((t + 1) * g1 - 1) % v
    chain_col_at = [-1] * v  # position i -> column index into col_blocks
    for cj, rows in enumerate(position_of[d.array[col_blocks]].tolist()):
        rset = set(rows)
        for rr in rows:
            if (rr + g1) % v in rset:
                if chain_col_at[rr] != -1:
                    raise PropertyViolation(
                        f"two columns carry the chain pair at position {rr}"
                    )
                chain_col_at[rr] = cj
    if -1 in chain_col_at:
        missing = chain_col_at.index(-1)
        raise PropertyViolation(f"no column carries the chain pair at position {missing}")
    if len(set(chain_col_at)) != v:
        raise PropertyViolation("chain columns are not distinct")
    h1_points = _class_points(d, h1_classes, orbit)
    chain_blocks = col_blocks[chain_col_at]
    return position_of, h1_points, d.array[chain_blocks], dict(
        source="crcbibd", v=v, class_orbit=tuple(orbit), h1_classes=tuple(h1_classes),
        x1=x1, delta=delta, h2_blocks=tuple(chain_blocks.tolist()))


def sra_from_crcbibd(d: Design, class_orbit: int, h1_classes) -> RaParityCheck:
    """Double diagonal from one class orbit of a cyclically resolvable
    cyclic design.

    A row permutation built from an entry (x1, y1) and its vertical
    period delta (gcd(delta, v) = 1) turns the orbit's incidence into a
    matrix with exactly one column holding consecutive entries at rows
    i, i+1 for every i, all distinct; both properties are asserted, then
    columns are reordered along the chain and non-chain entries deleted.
    """
    position_of, h1_points, _, provenance = _crc_parts(d, class_orbit, 1, h1_classes)
    return _assemble(position_of, h1_points, None, {"kind": "sra", **provenance})


def wqra_from_crcbibd(d: Design, class_orbit: int, g1: int, h1_classes) -> RaParityCheck:
    """Weight-q variant: the permutation spreads the chain pairs at
    vertical distance g1 (gcd(g1, v) = 1 required) and every column
    keeps all entries on or below the diagonal."""
    v = d.v
    if not 1 <= g1 < v or math.gcd(g1, v) != 1:
        raise BadG1(f"g1={g1} must be coprime to v={v} and in 1..{v - 1}")
    position_of, h1_points, chain_points, provenance = _crc_parts(d, class_orbit, g1, h1_classes)
    return _assemble(position_of, h1_points, chain_points,
                     {"kind": "wqra", "requested_g1": g1, **provenance})


# --- artifact export ----------------------------------------------------------


def sidecar_text(ra: RaParityCheck) -> str:
    """Companion header for an exported alist: dimensions, realized taps,
    and the construction descriptor."""
    lines = [
        f"m={ra.m}",
        f"k={ra.k}",
        f"n={ra.k + ra.m}",
        f"q={ra.q}",
        "g=" + (",".join(str(x) for x in ra.spec.g) if ra.spec else "irregular"),
    ]
    prov = ";".join(
        f"{key}={','.join(str(v) for v in val) if isinstance(val, tuple) else val}"
        for key, val in sorted(ra.provenance.items())
        if key not in ("row_order", "h2_blocks")
    )
    lines.append(f"provenance={prov}")
    return "\n".join(lines) + "\n"


def write_ra(path, ra: RaParityCheck) -> None:
    """Write H = [H1 H2] as alist at path, plus '<path>.meta' sidecar."""
    from .alist import write_alist

    write_alist(path, ra.h)
    with open(f"{path}.meta", "w", encoding="utf-8") as f:
        f.write(sidecar_text(ra))
