"""Block designs over Z_v: difference families, designs, verification.

Conventions: points are residues 0..v-1, blocks are sorted tuples, and
lambda = 1 everywhere (Steiner 2-designs). Base blocks of a family are
indexed 1..t in construction order, matching the usual B_1..B_t naming.
A block-list Design stores its blocks as one read-only (b, k) integer
array with sorted rows. A cyclic design keeps only its DifferenceFamily
as `cyclic`: its block list is the family's expansion(), one broadcast
translate of the base blocks, built the first time `array` is read.
Verifying a cyclic design never expands it: verify_bibd counts
the family's differences, O(t k^2) work with nothing of size v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import InvalidFamily, MissingResolution, OutOfRange
from ..matrices import regular_pairs, sorted_keys

Block = tuple  # sorted tuple of distinct residues mod v


def normalize_blocks(blocks, v: int, k: int) -> np.ndarray:
    """Blocks as a read-only (b, k) int64 array, each row sorted.

    Raises OutOfRange for a point outside 0..v-1, and ValueError for
    blocks of differing sizes, of a size other than k, or with a
    repeated point.
    """
    try:
        arr = np.array(blocks, dtype=np.int64)
    except ValueError:
        raise ValueError("blocks differ in size or are not lists of integers") from None
    except OverflowError:
        raise OutOfRange(f"a block has a point outside 0..{v - 1}") from None
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, k)
    if arr.ndim != 2:
        raise ValueError(f"blocks must be a list of equal-size point lists, got shape {arr.shape}")
    if arr.shape[1] != k:
        raise ValueError(f"block size {arr.shape[1]} differs from k={k}")
    if arr.size and (arr.min() < 0 or arr.max() >= v):
        row = int(((arr < 0) | (arr >= v)).any(axis=1).argmax())
        raise OutOfRange(f"block {tuple(arr[row].tolist())} has a point outside 0..{v - 1}")
    if not (arr[:, 1:] > arr[:, :-1]).all():
        arr.sort(axis=1)
        repeated = (arr[:, 1:] == arr[:, :-1]).any(axis=1)
        if repeated.any():
            row = int(repeated.argmax())
            raise ValueError(f"block {tuple(arr[row].tolist())} has repeated points")
    arr.flags.writeable = False
    return arr


def block_tuples(arr: np.ndarray) -> tuple:
    """Rows of a 2-D array as a tuple of tuples of Python ints."""
    return tuple(map(tuple, arr.tolist()))


def translates(base: np.ndarray, v: int) -> np.ndarray:
    """All v translates of each base block: a (t, v, k) array whose entry
    [i, s] is base[i] + s mod v, sorted. base is a (t, k) array."""
    out = base[:, None, :] + np.arange(v)[None, :, None]
    out %= v  # in place: the expansion's only (t, v, k) array
    out.sort(axis=2)
    return out


@dataclass(frozen=True)
class DifferenceFamily:
    """Base blocks whose translates generate a cyclic Steiner 2-design.

    base_blocks are the full orbits. For v = 1 (mod k(k-1)) their
    differences tile Z_v \\ {0} exactly once. For v = k (mod k(k-1)) the
    multiples of v/k are left to the regular short orbit of
    (0, v/k, ..), and has_short_orbit_block is set.
    """

    v: int
    k: int
    base_blocks: tuple
    has_short_orbit_block: bool = False
    # base_blocks as one read-only (t, k) array with sorted rows
    base: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.has_short_orbit_block and self.v % self.k:
            raise InvalidFamily(f"a short orbit needs k | v, got v={self.v} k={self.k}")
        base = normalize_blocks(self.base_blocks, self.v, self.k)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "base_blocks", block_tuples(base))

    def __reduce__(self):
        # rebuilt through the constructor, so that an unpickled `base` is
        # read-only too
        return DifferenceFamily, (self.v, self.k, self.base_blocks, self.has_short_orbit_block)

    @property
    def t(self) -> int:
        """Number of full-orbit base blocks."""
        return len(self.base_blocks)

    @property
    def orbit_bases(self) -> tuple:
        """B_1..B_t, then the short-orbit block (0, v/k, ..) if present."""
        short = (tuple(range(0, self.v, self.v // self.k)),) if self.has_short_orbit_block else ()
        return self.base_blocks + short

    @property
    def orbit_lengths(self) -> tuple:
        """v for each full-orbit base block, then v/k for the short orbit."""
        return (self.v,) * self.t + ((self.v // self.k,) if self.has_short_orbit_block else ())

    def expansion(self) -> np.ndarray:
        """The design's blocks as a read-only (b, k) array with sorted rows.

        Full orbits come first, base-block-major and shift-minor
        (B_1+0, B_1+1, ..., B_2+0, ...), then the v/k short-orbit
        translates. This order is what makes incidence matrices
        quasi-cyclic column block by block.
        """
        blocks = translates(self.base, self.v).reshape(-1, self.k)
        if self.has_short_orbit_block:
            short = np.arange(self.v // self.k)[:, None] + np.array(self.orbit_bases[-1])
            blocks = np.concatenate([blocks, short])
        blocks.flags.writeable = False
        return blocks

    def block(self, index: int) -> Block:
        """Base block B_index, 1-based."""
        if not 1 <= index <= self.t:
            raise IndexError(f"base block index {index} outside 1..{self.t}")
        return self.base_blocks[index - 1]

    def base_differences(self) -> np.ndarray:
        """The differences b_i - b_j mod v (i != j) of each base block:
        a (t, k(k-1)) array whose row s - 1 belongs to B_s."""
        i, j = np.nonzero(~np.eye(self.k, dtype=bool))
        return (self.base[:, i] - self.base[:, j]) % self.v

    def differences(self) -> tuple[np.ndarray, np.ndarray]:
        """The multiset of differences, as (residues, counts) from np.unique.

        It holds every base block's differences (base_differences), and
        each nonzero multiple of v/k once for the short orbit. A pair
        {x, x+d} lies in exactly counts[d] blocks of the expansion.
        """
        diffs = self.base_differences().ravel()
        if self.has_short_orbit_block:
            step = self.v // self.k
            diffs = np.concatenate([diffs, np.arange(step, self.v, step)])
        return np.unique(diffs, return_counts=True)


def validate_difference_family(f: DifferenceFamily) -> None:
    """Raise InvalidFamily unless the base-block differences tile exactly."""
    if f.k < 2:
        raise InvalidFamily(f"k={f.k} < 2: base blocks of size k < 2 have no differences")
    kk = f.k * (f.k - 1)
    if f.has_short_orbit_block:
        if f.v % kk != f.k % kk:
            raise InvalidFamily(f"v={f.v} is not k (mod k(k-1)); no regular short orbit")
    elif f.v % kk != 1:
        raise InvalidFamily(f"v={f.v} is not 1 (mod k(k-1))")
    residues, counts = f.differences()
    if len(residues) != f.v - 1 or (counts > 1).any():
        # 1..len+5 holds at least five residues that are not differences
        missing = np.setdiff1d(np.arange(1, min(f.v, len(residues) + 6)), residues)[:5]
        doubled = residues[counts > 1][:5]
        raise InvalidFamily(f"differences do not tile Z_{f.v}: missing {missing.tolist()}, "
                            f"repeated/extra {doubled.tolist()}")


class Design:
    """Point set Z_v plus block list; optionally resolved and/or cyclic.

    The blocks are in `array`, a read-only (b, k) int64 array with each
    row sorted, the only copy of them the design holds. resolution:
    tuple of classes, each a tuple of block indices; an index outside
    0..b-1 raises OutOfRange naming its class. cyclic: the
    DifferenceFamily whose expansion is the block list (pass
    blocks=None); such a design builds `array` on first read, and its b,
    equality and hash come from the family. Instances are immutable.
    """

    def __init__(self, v: int, k: int, blocks=None, resolution=None, cyclic=None):
        if resolution is not None:
            resolution = tuple(tuple(int(i) for i in cls) for cls in resolution)
        if cyclic is None:
            self.__dict__["array"] = normalize_blocks(blocks, v, k)
        elif blocks is not None or (cyclic.v, cyclic.k) != (v, k):
            raise ValueError("a cyclic design takes its blocks from its family: "
                             "pass blocks=None and the family's v and k")
        self.__dict__.update(v=v, k=k, resolution=resolution, cyclic=cyclic)
        b = self.b
        for c, cls in enumerate(resolution or ()):
            if cls and not (0 <= min(cls) and max(cls) < b):
                i = next(i for i in cls if not 0 <= i < b)
                raise OutOfRange(f"class {c}: block index {i} is outside 0..{b - 1}")

    def __setattr__(self, name, value):
        raise AttributeError(f"Design is immutable; cannot set {name}")

    def __reduce__(self):
        # rebuilt through the constructor, so that an unpickled `array` is
        # read-only too
        return Design, (self.v, self.k, None if self.cyclic else self.array, self.resolution,
                        self.cyclic)

    def __eq__(self, other):
        return (
            isinstance(other, Design)
            and (self.v, self.k, self.resolution, self.cyclic)
            == (other.v, other.k, other.resolution, other.cyclic)
            and (self.cyclic is not None or np.array_equal(self.array, other.array))
        )

    def __hash__(self):
        blocks = self.array.tobytes() if self.cyclic is None else None
        return hash((self.v, self.k, blocks, self.resolution, self.cyclic))

    def __repr__(self):
        resolved = "" if self.resolution is None else f", classes={len(self.resolution)}"
        cyclic = "" if self.cyclic is None else f", orbits={len(self.cyclic.orbit_lengths)}"
        return f"Design(v={self.v}, k={self.k}, b={self.b}{resolved}{cyclic})"

    @cached_property
    def array(self) -> np.ndarray:
        """The blocks; only a cyclic design gets here, on its first read."""
        return self.cyclic.expansion()

    @property
    def b(self) -> int:
        if self.cyclic is not None:
            return sum(self.cyclic.orbit_lengths)
        return self.array.shape[0]

    @property
    def r(self) -> int:
        """Replication number (v-1)/(k-1) implied by lambda = 1."""
        return (self.v - 1) // (self.k - 1)

    def with_resolution(self, resolution) -> "Design":
        blocks = None if self.cyclic else self.array
        return Design(self.v, self.k, blocks, resolution, self.cyclic)


def shift_map(d: Design) -> list[int] | None:
    """Index of the block (block i) + 1 mod v, for every block i; None when
    the block list repeats a block or is not closed under the +1 shift.

    A cyclic design lists its blocks base-major and shift-minor, so block
    (orbit o, shift s) maps to (o, (s + 1) mod the orbit's length), a
    short orbit included. That map is read off the family when no
    difference repeats: a block fixed by a shift, or two bases in one
    orbit, would repeat one, so the blocks are then distinct. Any other
    design is searched."""
    f = d.cyclic
    if f is not None and f.k > 1 and (f.differences()[1] == 1).all():
        ends = np.cumsum(f.orbit_lengths, dtype=np.int64)
        shift = np.arange(1, d.b + 1)
        shift[ends - 1] -= f.orbit_lengths
        return shift.tolist()
    shifted = np.sort((d.array + 1) % d.v, axis=1)
    keys, ids = np.unique(np.concatenate([d.array, shifted]), axis=0, return_inverse=True)
    ids = ids.ravel()  # numpy 2.0.0 returns it with an extra axis
    index_of = np.full(len(keys), -1)
    index_of[ids[: d.b]] = np.arange(d.b)
    shift = index_of[ids[d.b:]]
    if np.unique(ids[: d.b]).size != d.b or (shift < 0).any():
        return None
    return shift.tolist()


def shift_orbit(members, shift_of) -> list[list[int]]:
    """The class of block indices members and its images under the block
    permutation shift_of, up to the first image with the same block set:
    as many classes as the class's period. Each image maps the one before
    it in list order, so it takes its member order from members. The
    resolution search and the cyclically resolvable RA transforms both
    walk their shift orbits here."""
    start = frozenset(members)
    orbit = [list(members)]
    while True:
        image = [shift_of[i] for i in orbit[-1]]
        if frozenset(image) == start:
            return orbit
        orbit.append(image)


def expand_cdf_to_design(f: DifferenceFamily) -> Design:
    """The cyclic design of a family, validated here: this is where a
    family from any builder or file becomes a Design, and the builders
    do not validate their own. Its blocks are f.expansion()."""
    validate_difference_family(f)
    return Design(f.v, f.k, cyclic=f)


@dataclass(frozen=True)
class BibdReport:
    ok: bool
    lambda_histogram: dict
    r: int | None
    b: int
    problems: tuple = field(default_factory=tuple)


def verify_bibd(d: Design) -> BibdReport:
    """Count coverage of every point pair; ok iff all pairs covered once.

    Also checks that every point lies in the same number r of blocks and
    the bk = vr count identity (block sizes are checked when the Design
    is built). A cyclic design is counted from its family's differences
    and is not expanded, a block list from its sorted pair keys (see
    _block_counts). Failures are reported, never raised.
    """
    problems = []
    v, k, b = d.v, d.k, d.b
    n_pairs = v * (v - 1) // 2
    if d.cyclic is not None:
        hist, degs = _cyclic_counts(d.cyclic, n_pairs)
    else:
        hist, degs = _block_counts(d.array, v, n_pairs)
    ok = hist == {1: n_pairs}
    r = degs[0] if len(degs) == 1 else None
    if r is None:
        problems.append("replication number is not constant")
        ok = False
    elif b * k != v * r:
        problems.append(f"bk = {b * k} differs from vr = {v * r}")
        ok = False
    return BibdReport(ok=ok, lambda_histogram=hist, r=r, b=b, problems=tuple(problems))


def _cyclic_counts(f: DifferenceFamily, n_pairs: int) -> tuple[dict, list]:
    """The lambda histogram and point degrees of f's expansion.

    The pairs {x, x+d} and {x, x-d} form one class of v pairs (v/2 when
    d = v/2), each pair in counts[d] blocks. A full orbit puts every point
    in k blocks, the short orbit in one. The counts are Python ints:
    n_pairs passes int64 once v passes about 4.3e9.
    """
    v = f.v
    residues, counts = f.differences()
    lams, classes = np.unique(counts[residues <= v - residues], return_counts=True)
    hist = {lam: n * v for lam, n in zip(lams.tolist(), classes.tolist())}
    at = int(np.searchsorted(residues, v // 2))
    if v % 2 == 0 and at < len(residues) and residues[at] == v // 2:
        hist[int(counts[at])] -= v // 2
    uncovered = n_pairs - sum(hist.values())
    hist = ({0: uncovered} if uncovered else {}) | hist
    return hist, [f.k * f.t + int(f.has_short_orbit_block)]


def _block_counts(array: np.ndarray, v: int, n_pairs: int) -> tuple[dict, list]:
    """The lambda histogram and the distinct point degrees of a block list.

    The keys x * n + y of the pairs x < y of every block, written column
    pair by column pair into one buffer and sorted (sorted_keys), count
    the pairs: a pair in lam blocks is a run of lam equal keys. The
    points are numbered 0..n-1 in order, n = v, or, when the blocks hold
    fewer than v entries, n the number of points present, so nothing
    here grows with v.
    """
    if v <= array.size:
        points, n = array, v
        degs = np.unique(_point_degrees(array, v)).tolist()
    else:  # fewer entries than points: some point is in no block
        present, points, degrees = np.unique(array, return_inverse=True, return_counts=True)
        points, n = points.reshape(array.shape), len(present)
        degs = [0] + np.unique(degrees).tolist()
    keys = sorted_keys(regular_pairs(points), len(array) * math.comb(array.shape[1], 2), n, n * n)
    repeats = keys[1:] == keys[:-1]
    distinct = len(keys) - int(np.count_nonzero(repeats))
    # a run of lam > 1 equal keys is a run of lam - 1 repeats
    edges = np.flatnonzero(np.diff(repeats, prepend=False, append=False))
    freqs = np.bincount(edges[1::2] - edges[::2] + 1, minlength=2).tolist()
    freqs[0] = n_pairs - distinct
    freqs[1] = distinct - len(edges) // 2
    return {lam: c for lam, c in enumerate(freqs) if c}, degs


def _point_degrees(array: np.ndarray, v: int) -> np.ndarray:
    """The number of blocks of a block list that hold each point 0..v-1.
    np.bincount copies a read-only input before it counts (a Design's
    array is read-only), and np.add.at reads it in place."""
    degrees = np.zeros(v, dtype=np.int64)
    np.add.at(degrees, array, 1)
    return degrees


@dataclass(frozen=True)
class ResolutionReport:
    ok: bool
    class_histograms: tuple
    problems: tuple = field(default_factory=tuple)


def verify_resolution(d: Design) -> ResolutionReport:
    """Check each class covers every point exactly once and classes
    partition the block list. Raises MissingResolution when the design
    carries no resolution."""
    if d.resolution is None:
        raise MissingResolution("design has no resolution to verify")
    problems = []
    seen: dict[int, int] = {}
    histograms = []
    b, blocks = d.b, d.array.tolist()  # a cyclic design's b sums its orbits on every read
    for ci, cls in enumerate(d.resolution):
        cover = np.zeros(d.v, dtype=np.int64)
        for bi in cls:  # Design keeps every index in 0..b-1
            if bi in seen:
                problems.append(f"block {bi} appears in classes {seen[bi]} and {ci}")
            seen[bi] = ci
            for x in blocks[bi]:
                cover[x] += 1
        hist: dict[int, int] = {}
        for c in cover.tolist():
            hist[c] = hist.get(c, 0) + 1
        histograms.append(hist)
        if hist != {1: d.v}:
            bad = [p for p in range(d.v) if cover[p] != 1][:5]
            problems.append(f"class {ci} does not partition the points (e.g. points {bad})")
    if len(seen) != b:
        problems.append(f"classes use {len(seen)} of {b} blocks")
    return ResolutionReport(ok=not problems, class_histograms=tuple(histograms), problems=tuple(problems))
