"""Encoding, BPSK/AWGN channel, sum-product decoding, BER campaigns.

One systematic encoder serves every parity-check matrix. Its one GF(2)
elimination also records T, the row operations that reduce H, so a
batch of messages is encoded by one sparse product, the syndrome s of
the messages placed with their parity bits 0, and one r x M matrix
product T s; no generator is expanded. On an RA matrix T is H2^-1 and
the codeword is the accumulator's [m | p], so RA codes need no encoder
of their own.

Channel convention: bit 0 maps to +1, bit 1 to -1, noise variance
sigma^2 = 1/(2 R Eb/N0) with R the true code rate, and channel LLRs are
2y/sigma^2 (positive means bit 0). transmit takes a block of codewords
with one generator per row, and scales the block's noise at once.

The decoder is flooding-schedule sum-product in the log domain with the
tanh product rule; LLRs are clamped to +-30 before the tanh, which is
numerically immaterial at simulated SNRs but keeps arctanh finite.
Frames are decoded in a DecodePool, which keeps them between
decode_batch calls: a frame still iterating when a call returns keeps
its messages and its iteration count and resumes in the next call,
beside the frames admitted then. The pool has one sub-pool per
available core; the frames it holds pay for a decoder thread per
_THREAD_MESSAGES messages, up to one per sub-pool that holds frames,
and new frames fill the fullest sub-pools first, up to an even share
per thread. A sub-pool keeps one buffer of messages, which the check
and variable updates rewrite in place, and relays it in place when
frames join or leave, a chunk at a time. Every update is elementwise
per frame, so each frame's result is bit-identical to decoding it
alone. BpGraph describes the message layout: one run of checks or
variables per distinct degree, summed in numpy's pairwise order by
loops that release the GIL. Each iteration makes a few numpy calls per
run, so a code with many distinct degrees costs more per iteration,
which shows most when frames are decoded one at a time. A message's
sign is set from the parity of its check's negative inputs rather than
multiplied in.

Campaign frames are seeded by (campaign seed, frame index): results are
independent of execution order and batch sizing, and rerunning with
the same seed reproduces the CSV byte for byte. A frame's message bits
come from its generator's raw PCG64 words, which numpy keeps fixed
across releases, and its channel normals follow. A campaign point
admits frames to one pool in index order, as many as the frame error
rate of the frames tallied so far says its stop rule needs, and
tallies them in index order as they finish, so it decodes few frames
past its stop rule, and a frame that runs to the iteration cap holds
up no other.

The reproducibility contract has two layers. The CSV tallies are the
contract across numpy's SIMD levels: numpy picks its float64 tanh,
log, exp and arctanh kernels by CPU at run time, and between levels
they differ by an ULP or a few, so the messages do too, but the pinned
campaigns keep their CSV bytes at every level (tests/test_golden.py
runs one with all features, with AVX512 disabled and at the baseline).
The messages are bit-identical only within one numpy build and SIMD
level, and that is where a refactor of the decoder proves itself.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import gf2
from .errors import DimensionMismatch, NonFiniteLlr, NotBinary
from .matrices import SparseBinaryMatrix, owners
from .ra import RaParityCheck

# a DecodePool has at most this many sub-pools and decoder threads
_WORKERS = len(os.sched_getaffinity(0))
# the fewest messages (edges x frames) held that pay for a decoder thread
# of their own: on Netto-61 (1830 edges, 2 vCPU) two threads beat one
# from about 50 frames
_THREAD_MESSAGES = 50_000
# how many pool capacities ber_campaign admits past the oldest untallied
# frame: at 5 dB thousands of Netto-61 frames pass one at the iteration cap,
# and at a capacity of 256, 16 capacities hold back fewer than 10 of a
# point's ~140 admissions (4 held back 100)
_WINDOW = 16
# the most entries one temporary of a DecodePool holds, unless one row of
# messages (a check's, a variable's, an edge's or a frame's) is longer,
# and the most each sub-pool's scratch buffer holds
_CHUNK = 1 << 16
# the byte of a native float64 that holds its sign bit
_TOP_BYTE = 7 if sys.byteorder == "little" else 0
# the magnitude every channel LLR and check-node input is clamped to
LLR_CLAMP = 30.0
# the BPSK symbol of bit 0 and of bit 1
_BPSK = np.array([1.0, -1.0])


@dataclass(frozen=True)
class ChannelConfig:
    ebno_db: float
    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"code rate must be in (0, 1], got {self.rate}")
        try:
            # transmit scales by 2 / noise_variance, which a subnormal
            # variance takes past the float range
            ok = 0.0 < self.noise_variance < math.inf and 2.0 / self.noise_variance < math.inf
        except (ZeroDivisionError, OverflowError):  # 10^(Eb/N0 / 10) is 0 or too large
            ok = False
        if not ok:
            raise ValueError(f"Eb/N0 point {self.ebno_db} dB has no finite positive noise variance")

    @property
    def noise_variance(self) -> float:
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebno_db / 10.0))


@dataclass(frozen=True)
class DecoderConfig:
    max_iterations: int = 50

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class BerRecord:
    ebno_db: float
    frames: int
    bit_errors: int
    frame_errors: int
    bits_total: int
    undetected_errors: int
    seed: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_total if self.bits_total else 0.0

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames if self.frames else 0.0


class EncoderState:
    """Systematic encoder for any parity-check matrix.

    gf2.rref runs once, on each row of H tagged with its own index: row
    i enters as row << M | 1 << i. Its pivots at or above bit M are H's
    pivots, and their low M bits are T, the row operations that reduced
    them, so that R = T H. The free columns carry the message bits
    (message_positions, an ascending index array) and the pivot columns
    the parity bits. A pivot below bit M is a dependent row of H and is
    dropped; dependent rows simply enlarge K = N - rank, and the
    adjusted dimension is exposed, not raised. Reduced row i sets its
    pivot bit to the XOR of the free bits it holds, which is T_i s for s
    the syndrome of the message placed with every parity bit 0. So the
    encoder keeps H and T, and T takes 8 r M bytes as float64 for rank
    r, 8 MB at Netto-997. For an RA matrix [H1 H2] the unit lower
    triangular H2 takes every pivot, so message_positions is range(K),
    T is H2^-1 and the codeword is [m | p] with H2 p = H1 m.
    """

    def __init__(self, h: SparseBinaryMatrix):
        self._h = h
        self.n = h.cols
        m = h.rows
        reduced, pivot_cols = gf2.rref([row << m | 1 << i for i, row in enumerate(h.packed_rows())])
        kept = [(c - m, row) for c, row in zip(pivot_cols, reduced) if c >= m]
        self._parity_positions = np.array([c for c, _ in kept], dtype=np.int64)
        free = np.ones(h.cols, dtype=bool)
        free[self._parity_positions] = False
        self.message_positions = np.flatnonzero(free)
        self.k = len(self.message_positions)
        low = (1 << m) - 1
        self._row_ops = np.zeros((len(kept), m))
        for i, (_, row) in enumerate(kept):
            self._row_ops[i, gf2.bit_positions(row & low)] = 1.0

    @classmethod
    def from_ra(cls, ra: RaParityCheck) -> "EncoderState":
        return cls(ra.h)

    @classmethod
    def from_parity_check(cls, h: SparseBinaryMatrix) -> "EncoderState":
        return cls(h)

    def encode(self, message) -> np.ndarray:
        """Codewords with zero syndrome for a (K,) message or a (B, K)
        batch; message bits sit at message_positions in their given
        order. The parity bits are T s for the syndrome s of the placed
        message, one float matrix product, exact because every sum is an
        integer of at most M."""
        message = np.asarray(message, dtype=np.uint8)
        if message.ndim not in (1, 2) or message.shape[-1] != self.k:
            raise DimensionMismatch(
                f"message shape {message.shape} is not (K,) or (B, K) with K={self.k}"
            )
        if (message > 1).any():
            raise NotBinary(f"message bits must be 0 or 1, got {int(message.max())}")
        cw = np.zeros(message.shape[:-1] + (self.n,), dtype=np.uint8)
        cw[..., self.message_positions] = message
        parity = self._h.mul_vector(cw).astype(np.float64) @ self._row_ops.T
        cw[..., self._parity_positions] = parity.astype(np.int64) & 1
        return cw


def transmit(codewords, cfg: ChannelConfig, rngs) -> np.ndarray:
    """BPSK over AWGN for a (B, N) block of codewords, row b's noise
    drawn from rngs[b]; returns the (B, N) channel LLRs 2y/sigma^2.
    Each row's noise is one standard_normal draw, scaled with the rest
    of the block: the same values rng.normal(0, sigma, N) gives."""
    c = np.asarray(codewords, dtype=np.uint8)
    if c.ndim != 2 or len(rngs) != len(c):
        raise DimensionMismatch(f"codewords of shape {c.shape} need a (B, N) block "
                                f"and one generator per row, got {len(rngs)}")
    sigma2 = cfg.noise_variance
    y = np.empty(c.shape)
    for row, rng in zip(y, rngs):
        rng.standard_normal(out=row)
    # each step in place, in the order of 2 (x + sigma z) / sigma^2
    y *= math.sqrt(sigma2)
    # +1.0 or -1.0 taken a chunk of rows at a time from a table: masked
    # adds or a whole np.where block take several times longer
    rows = max(1, _CHUNK // max(c.shape[1], 1))
    for a in range(0, len(c), rows):
        y[a : a + rows] += _BPSK.take(c[a : a + rows], mode="clip")
    y *= 2.0
    y /= sigma2
    return y


def _degree_runs(starts: np.ndarray, degrees: np.ndarray) -> list:
    """Maximal runs of equal degree over segments whose edges lie end to
    end from starts: (segment slice, edge slice, segments, degree) per
    run."""
    # degrees are positive, so the prepended -1 starts the first run
    firsts = np.flatnonzero(np.diff(degrees, prepend=-1)).tolist()
    lasts = firsts[1:] + [len(degrees)]
    runs = []
    for first, last in zip(firsts, lasts):
        d = int(degrees[first])
        e0 = int(starts[first])
        c = last - first
        runs.append((slice(first, last), slice(e0, e0 + c * d), c, d))
    return runs


def _chunked(runs: list, frames: int, width: int | None = None):
    """The segments of runs from _degree_runs a few at a time, as
    (segment slice, edge slice, segments, degree): as many segments as
    fit in _CHUNK entries, or one segment that does not. A segment
    takes degree x frames entries, or width x frames for a loop whose
    temporaries hold at most width rows of a segment."""
    for run in runs:
        seg, edges, c, d = run
        step = max(1, _CHUNK // max(min(d, width or d) * frames, 1))
        if step >= c:
            yield run
            continue
        for a in range(0, c, step):
            k = min(step, c - a)
            e0 = edges.start + a * d
            yield slice(seg.start + a, seg.start + a + k), slice(e0, e0 + k * d), k, d


def _scratch(buf: np.ndarray, rows: int, frames: int) -> np.ndarray:
    """The (rows, frames) C-ordered array at the front of the flat
    buffer buf, or a new one when buf is too short."""
    if rows * frames <= len(buf):
        return _view(buf, rows, frames)
    return np.empty((rows, frames), buf.dtype)


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sums over axis 1 of a (segments, terms, frames) array, term by
    term in the order of numpy's pairwise summation: fewer than 8 terms
    in sequence; up to 128 terms in 8 strided accumulators, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest in sequence;
    more terms split in two at a multiple of 8 near the middle. numpy
    starts its sequence from -0.0, and -0.0 + x is x bit for bit. This
    order was checked on numpy 2.4.6, the lowest version pyproject.toml
    allows."""
    n = a.shape[1]
    if n < 8:
        res = a[:, 0].copy() if n == 1 else np.add(a[:, 0], a[:, 1])
        for i in range(2, n):
            np.add(res, a[:, i], out=res)
        return res
    if n <= 128:
        m = n - n % 8
        if m == 8:
            pairs = np.add(a[:, 0:8:2], a[:, 1:8:2])
        else:
            acc = np.add(a[:, 0:8], a[:, 8:16])
            for i in range(16, m, 8):
                np.add(acc, a[:, i : i + 8], out=acc)
            pairs = np.add(acc[:, 0::2], acc[:, 1::2])
        quads = np.add(pairs[:, 0::2], pairs[:, 1::2])
        res = np.add(quads[:, 0], quads[:, 1])
        for i in range(m, n):
            np.add(res, a[:, i], out=res)
        return res
    half = n // 2 - n // 2 % 8
    res = _pairwise_sum(a[:, :half])
    return np.add(res, _pairwise_sum(a[:, half:]), out=res)


def _segment_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sums over axis 1 of a (segments, degree, frames) array, bit for
    bit what np.add.reduceat gives over each segment: its first term
    plus the pairwise sum of the others."""
    if a.shape[1] == 1:
        return np.positive(a[:, 0], out=out)
    return np.add(a[:, 0], _pairwise_sum(a[:, 1:]), out=out)


class BpGraph:
    """Edge-indexed Tanner graph with batched flooding updates.

    Message arrays are edge-major, (edges, frames) and C-ordered. The
    edges run check by check, each check's in row order, with the
    nonempty checks stably sorted by degree, so each distinct degree is
    one run of checks; a run of c checks of degree d is a (c, d, frames)
    view of the messages; edge_index maps each edge to its place in
    h's row-major edge list. The decoder's variables run in var_order:
    the present variables stably sorted by degree, then the empty
    columns, and var_of indexes that order. The variable side gathers
    the messages over var_order, each variable's edges in row order, so
    its sums are one run per distinct degree and land on the posterior
    rows of the present variables without a scatter; decode_batch
    permutes the columns of the frames it admits on entry and of their
    bits on exit. Sorting keeps every segment's terms in their order,
    and a run's sums fold axis 1 of its view in numpy's pairwise order,
    so they equal np.add.reduceat bit for bit (checked on numpy 2.4.6)
    and campaign CSVs keep their bytes; unlike reduceat and np.repeat,
    which hold the GIL, every step is an elementwise loop that releases
    it. Each run is worked a chunk of segments at a time (_chunked), so
    no temporary holds more than _CHUNK messages unless one segment
    does; segments are summed independently, so chunking moves no bit.
    Per-check totals reach their edges by broadcasting, and gathers
    copy whole rows of frames. Every update is elementwise per frame,
    so decoding frames side by side is bit-identical to decoding them
    one at a time. decode_batch therefore decodes frames in a
    DecodePool, on up to one thread per sub-pool, and a frame may start
    beside frames that are mid-decode.
    """

    def __init__(self, h: SparseBinaryMatrix):
        self.h = h
        self.n = h.cols
        self.m = h.rows
        check_of = owners(h.row_ptr)
        check_deg = np.diff(h.row_ptr)[check_of]
        # h's row-major edges with the checks stably sorted by degree: one
        # run per distinct degree, each check's edges still in row order
        self.edge_index = np.argsort(check_deg, kind="stable")
        self.e = len(self.edge_index)
        # the first edge of each nonempty check in that order
        self.check_starts = np.flatnonzero(np.diff(check_of[self.edge_index], prepend=-1))
        self._check_runs = _degree_runs(
            self.check_starts, check_deg[self.edge_index][self.check_starts]
        )
        # the decoder's variable order: the present variables stably
        # sorted by degree, then the empty columns
        vdeg = np.diff(h.col_ptr)
        self.var_order = np.lexsort((vdeg, vdeg == 0))
        self._present = int(np.count_nonzero(vdeg))
        var_rank = np.empty(self.n, dtype=np.int64)
        var_rank[self.var_order] = np.arange(self.n)
        self.var_of = var_rank[h.col_idx[self.edge_index]]
        # the edges variable by variable in that order, each variable's in
        # row order, as indices into the edges above
        edge_rank = np.empty(self.e, dtype=np.int64)
        edge_rank[self.edge_index] = np.arange(self.e)
        self._var_perm = edge_rank[np.argsort(var_rank[h.col_idx], kind="stable")]
        pdeg = vdeg[self.var_order[: self._present]]
        self._var_runs = _degree_runs(np.cumsum(pdeg) - pdeg, pdeg)

    def decode_batch(self, llrs: np.ndarray, cfg: DecoderConfig | None = None,
                     pool: DecodePool | None = None):
        """Decode (batch, n) channel LLRs, or one (n,) vector as a batch
        of one; any other shape raises DimensionMismatch.

        Without a pool, returns (bits, converged, iterations) for every
        row, in row order; iterations counts BP rounds, 0 meaning the
        channel hard decision already satisfied every check. Ties (LLR
        exactly 0) decode to bit 0. NaN or infinite LLRs raise
        NonFiniteLlr, and then no row is admitted.

        With a pool (see DecodePool), the rows are admitted to it, with
        admission numbers counting on from its earlier admissions, and
        every frame the pool holds is decoded until the pool stops: once
        it is empty, or once some frame has finished in this call and
        at least half the pool is free. It returns the frames that
        finished as (bits, converged, iterations, admission numbers), in
        admission order; the others keep their messages and iteration
        counts for the next call. Without a pool the rows go into a
        fresh pool that is run until it is empty.

        The rows the hard decision leaves unsolved go to the pool's
        sub-pools (see DecodePool._admit). The sub-pools that hold
        frames are run by as many threads as the frames held pay for
        (see DecodePool._threads), the calling thread running the first;
        a thread with several sub-pools runs them in turn. A thread runs
        BP iterations of its frames until its sub-pools are empty or the
        pool stops, checking the stop rule after each round, so with
        several threads which frames have finished when a call returns
        depends on their timing; each frame's result does not. An
        exception raised in any thread is raised here once every thread
        has ended.
        """
        cfg = cfg or DecoderConfig()
        llrs = np.asarray(llrs, dtype=np.float64)
        if llrs.ndim not in (1, 2) or llrs.shape[-1] != self.n:
            raise DimensionMismatch(
                f"LLRs of shape {llrs.shape} are not (n,) or (batch, n) with n={self.n}"
            )
        llrs = np.atleast_2d(llrs)
        if not np.isfinite(llrs).all():
            raise NonFiniteLlr("channel LLRs must be finite (NaN or inf found)")
        # the sub-pools clamp the LLRs they admit (see _SubPool.add), which
        # never changes a sign, so the hard decision reads them as given;
        # it is in h's column order, so its syndromes are h.mul_vector's
        hard = np.less(llrs, 0.0).view(np.uint8)
        solved = ~self.h.mul_vector(hard).any(axis=1)
        rest = np.flatnonzero(~solved)
        drain = pool is None
        if drain:
            if len(rest) == 0:
                return hard, solved, np.zeros(len(llrs), dtype=np.int64)
            pool = DecodePool(self, len(rest))
        elif pool.graph is not self:
            raise ValueError("the pool belongs to another graph")
        pool._admit(llrs, rest, rest + pool.admitted, cfg.max_iterations)
        ids = np.flatnonzero(solved) + pool.admitted
        pool.admitted += len(llrs)
        finished = [(ids, hard[solved].T[self.var_order], solved[solved], np.zeros(len(ids), np.int64))]
        finished += self._run(pool, cfg.max_iterations, drain, len(ids))
        ids, bits, conv, iters = (np.concatenate(parts, axis=-1) for parts in zip(*finished))
        order = np.argsort(ids)
        bits_out = np.empty((len(ids), self.n), dtype=np.uint8)
        bits_out[:, self.var_order] = bits.T[order]
        if drain:
            return bits_out, conv[order], iters[order]
        return bits_out, conv[order], iters[order], ids[order]

    def _run(self, pool: DecodePool, max_iterations: int, drain: bool, finished: int) -> list:
        """Rounds of the pool's sub-pools, on as many threads as the
        frames held pay for, until the stop rule of decode_batch holds
        (with drain, until the pool is empty); returns the finished
        frames as (ids, bits in var_order, converged, iterations) parts."""
        subs = [sub for sub in pool.subs if sub.live]
        if not subs:
            return []
        threads = min(len(subs), pool._threads(pool.live))
        groups = [subs[i::threads] for i in range(threads)]
        done = [[] for _ in groups]
        errors = [None] * threads
        stop = [False]

        def work(i):
            def sync() -> bool:
                if stop[0] or not any(sub.live for sub in groups[i]):
                    return True
                # both halves of the rule only become true, so the flag
                # is only ever set, never cleared
                if not drain and 2 * pool.live <= pool.capacity and (
                        finished or any(done)):
                    stop[0] = True
                return stop[0]

            try:
                self._decode_rounds(groups[i], max_iterations, sync, done[i])
            except BaseException as exc:  # raised again by the calling thread
                errors[i] = exc
                stop[0] = True

        others = [threading.Thread(target=work, args=(i,)) for i in range(1, threads)]
        for t in others:
            t.start()
        try:
            work(0)
        finally:
            for t in others:
                t.join()
        for exc in errors:
            if exc is not None:
                raise exc
        return [p for parts in done for p in parts]

    def _decode_rounds(self, subs: list, max_iterations: int, sync, done: list) -> None:
        """One thread's loop: a BP iteration of every frame its
        sub-pools hold, then sync(), until sync() says stop. A frame
        leaves once its syndrome is zero, or with its last bits at
        max_iterations; each round's leavers are appended to done as
        (admission numbers, bits in var_order, converged, iterations).

        A sub-pool holds one message buffer. The check update turns q
        into r in place. The variable side gathers r over var_order a
        chunk of variables at a time into the sub-pool's scratch and
        sums each chunk into the posterior; then _refresh writes the
        next q over r a chunk of checks at a time. Buffers hold the
        live frames at their front."""
        present = self._present
        while True:
            for sub in [sub for sub in subs if sub.live]:
                frames = sub.live
                channel = sub.chan[:, :frames]
                flip = _view(sub.flip, self.e, frames)
                r = self._check_update(sub.q(), LLR_CLAMP, flip)
                posterior = _view(sub.post, self.n, frames)
                for seg, edges, c, d in _chunked(self._var_runs, frames):
                    # mode="clip" lets take write into out unbuffered; every index is in range
                    rv = r.take(self._var_perm[edges], axis=0, mode="clip",
                                out=_scratch(sub.scratch, c * d, frames))
                    _segment_sums(rv.reshape(c, d, frames), out=posterior[seg])
                np.add(channel[:present], posterior[:present], out=posterior[:present])
                posterior[present:] = channel[present:]
                ok = self._refresh(r, posterior, flip, sub.scratch)
                iters = sub.iters[:frames]
                iters += 1
                leave = ok | (iters >= max_iterations)
                if leave.any():
                    done.append((sub.ids[:frames][leave], _hard_bits(posterior, leave),
                                 ok[leave], iters[leave]))
                    sub.keep(np.flatnonzero(~leave))
            if sync():
                return

    def _check_update(self, q: np.ndarray, clamp: float, flip: np.ndarray) -> np.ndarray:
        """Check-to-variable messages by the tanh rule, computed in place
        in the C-ordered (edges, frames) array q and returned; flip is a
        C-ordered uint8 buffer of q's shape.

        A message is negative when an odd number of the check's other
        inputs are: the low bit of the check's count of negative inputs
        plus the edge's own. The magnitudes' sign bits are clear, so
        setting the bit there gives exactly what multiplying by a +-1.0
        sign product gave, -0.0 included."""
        frames = q.shape[1]
        np.clip(q, -clamp, clamp, out=q)
        np.less(q, 0.0, out=flip.view(np.bool_))
        # the same double as q / 2.0, subnormals included, and cheaper
        t = np.multiply(q, 0.5, out=q)
        np.tanh(t, out=t)
        mag = np.abs(t, out=t)
        np.clip(mag, 1e-300, 1.0 - 1e-15, out=mag)
        logm = np.log(mag, out=mag)
        # the runs' sums hold at most 8 terms of a segment in a temporary
        for _, edges, c, d in _chunked(self._check_runs, frames, 8):
            neg = flip[edges].reshape(c, d, frames)
            # a uint8 sum wraps at 256, which keeps its low bit
            odd = np.add.reduce(neg, axis=1, dtype=np.uint8)
            np.add(neg, odd[:, None], out=neg)
            lg = logm[edges].reshape(c, d, frames)
            np.subtract(_segment_sums(lg)[:, None], lg, out=lg)
        excl = np.exp(logm, out=logm)
        np.minimum(excl, 1.0 - 1e-15, out=excl)
        np.arctanh(excl, out=excl)
        excl_mag = np.multiply(2.0, excl, out=excl)
        # a uint8 product by 128 moves the low bit to bit 7 and clears the
        # rest, which is the sign bit of the float's most significant byte
        sign = np.multiply(flip, np.uint8(128), out=flip)
        top = excl_mag.view(np.uint8)[:, _TOP_BYTE::8]
        np.bitwise_or(top, sign, out=top)
        return excl_mag

    def _refresh(self, r: np.ndarray, posterior: np.ndarray, flip: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
        """Write the variable-to-check messages q = posterior[var_of] - r
        over the (edges, frames) check-to-variable messages r, a chunk of
        checks at a time gathered into scratch, and return whether each
        frame's hard decision, posterior < 0, satisfies every check,
        read from the same gathers into the uint8 buffer flip."""
        frames = r.shape[1]
        neg = flip.view(np.bool_)
        # uint8, not bool: numpy's xor reduction is faster on it
        odd = np.empty((len(self.check_starts), frames), dtype=np.uint8)
        for seg, edges, c, d in _chunked(self._check_runs, frames):
            pv = posterior.take(self.var_of[edges], axis=0, mode="clip",
                                out=_scratch(scratch, c * d, frames))
            np.less(pv, 0.0, out=neg[edges])
            np.bitwise_xor.reduce(flip[edges].reshape(c, d, frames), axis=1, out=odd[seg])
            np.subtract(pv, r[edges], out=r[edges])
        return ~odd.any(axis=0)


def _hard_bits(posterior: np.ndarray, leave: np.ndarray) -> np.ndarray:
    """posterior < 0 as uint8 for the frames (columns) where leave is
    set, a chunk of rows at a time."""
    rows, frames = posterior.shape
    bits = np.empty((rows, np.count_nonzero(leave)), dtype=np.uint8)
    step = max(1, _CHUNK // frames)
    for a in range(0, rows, step):
        bits[a : a + step] = np.less(posterior[a : a + step], 0.0)[:, leave]
    return bits


def _view(buf: np.ndarray, rows: int, frames: int) -> np.ndarray:
    """The (rows, frames) C-ordered array at the front of a flat buffer."""
    return buf[: rows * frames].reshape(rows, frames)


class _SubPool:
    """The frames one decoder thread holds, at the front of buffers
    allocated once: each frame's variable-to-check messages in one
    (edges, frames) buffer, which the check update turns into
    check-to-variable messages and back in place, with a uint8 flag per
    message for their signs; its channel LLRs in var_order in the first
    columns of an (n, capacity) array and its posterior LLRs in an
    (n, frames) buffer; its admission number and its iteration count.
    That is 9 e + 16 n + 16 bytes a frame, and a scratch buffer of at
    most _CHUNK float64 holds the chunks that the decoder's gathers and
    the relayouts of add and keep pass through."""

    def __init__(self, e: int, n: int, capacity: int):
        self.e = e
        self.capacity = capacity
        self.msgs = np.empty(e * capacity)
        self.chan = np.empty((n, capacity))
        self.flip = np.empty(e * capacity, dtype=np.uint8)
        self.post = np.empty(n * capacity)
        self.ids = np.empty(capacity, dtype=np.int64)
        self.iters = np.empty(capacity, dtype=np.int64)
        self.scratch = np.empty(min(_CHUNK, max(e, n) * capacity))
        self.live = 0

    def q(self) -> np.ndarray:
        return _view(self.msgs, self.e, self.live)

    def add(self, llrs: np.ndarray, rows: np.ndarray, ids: np.ndarray,
            var_order: np.ndarray, var_of: np.ndarray) -> None:
        """The frames given as rows of (B, n) channel LLRs join behind
        the held ones: their LLRs are gathered into chan in var_order
        and clamped, a chunk of variables at a time, and their first
        messages are those channel values. Each message row widens in
        place, the last rows first, so that no row is written before it
        is read; a chunk whose new place overlaps its old one moves
        through the scratch buffer."""
        old, total = self.live, self.live + len(rows)
        chan = self.chan[:, old:total]
        step = max(1, _CHUNK // len(rows))
        for a in range(0, len(var_order), step):
            part = llrs[np.ix_(rows, var_order[a : a + step])]
            # the magnitude bound applies to the channel values too, so
            # even absurdly confident inputs stay correctable and tanh-safe
            chan[a : a + step] = np.clip(part, -LLR_CLAMP, LLR_CLAMP, out=part).T
        q = _view(self.msgs, self.e, total)
        step = max(1, _CHUNK // total)
        for a in reversed(range(0, self.e, step)):
            b = min(a + step, self.e)
            held = self.msgs[a * old : b * old].reshape(b - a, old)
            if a * total < b * old:
                copy = _scratch(self.scratch, b - a, old)
                copy[...] = held
                held = copy
            q[a:b, :old] = held
            q[a:b, old:] = chan[var_of[a:b]]
        self.ids[old:total] = ids
        self.iters[old:total] = 0
        self.live = total

    def keep(self, keep: np.ndarray) -> None:
        """Hold only the frames at positions keep, in their order. Each
        row narrows in place, the first rows first; a chunk whose new
        place overlaps its old one moves through the scratch buffer."""
        live, frames = self.live, len(keep)
        q = self.q()
        step = max(1, _CHUNK // live)
        for a in range(0, self.e, step):
            b = min(a + step, self.e)
            dest = self.msgs[a * frames : b * frames].reshape(b - a, frames)
            if a * live < b * frames:
                dest[...] = q[a:b].take(keep, axis=1, mode="clip",
                                        out=_scratch(self.scratch, b - a, frames))
            else:
                q[a:b].take(keep, axis=1, mode="clip", out=dest)
        n = len(self.chan)
        for a in range(0, n, step):
            b = min(a + step, n)
            # whole rows, which take reads without copying them first
            self.chan[a:b, :frames] = self.chan[a:b].take(
                keep, axis=1, mode="clip", out=_scratch(self.scratch, b - a, frames))
        self.ids[:frames] = self.ids[keep]
        self.iters[:frames] = self.iters[keep]
        self.live = frames


class DecodePool:
    """Frames that BpGraph.decode_batch keeps between calls.

    A frame still iterating when a call returns keeps its messages and
    its iteration count, and resumes in the next call beside the frames
    admitted then. capacity bounds the frames held, and with them the
    memory: about 9 e + 16 n bytes per frame for e edges and n
    variables (see _SubPool), allocated once, plus a scratch buffer of
    at most _CHUNK float64 per sub-pool. The capacity is split into one
    sub-pool per available core, at most one per frame. Every frame a
    pool holds is decoded with one DecoderConfig. After decode_batch
    raises, the pool's frames are lost: clear it before it is used
    again.
    """

    def __init__(self, graph: BpGraph, capacity: int):
        if capacity < 1:
            raise ValueError(f"pool capacity must be at least 1, got {capacity}")
        self.graph = graph
        self.capacity = capacity
        parts = np.array_split(np.arange(capacity), min(_WORKERS, capacity))
        self.subs = [_SubPool(graph.e, graph.n, len(part)) for part in parts]
        self.admitted = 0  # the admission number of the next frame
        self._max_iterations = None

    @property
    def live(self) -> int:
        """The frames held, mid-decode."""
        return sum(sub.live for sub in self.subs)

    def clear(self) -> None:
        """Drop every held frame and count admissions from 0 again."""
        for sub in self.subs:
            sub.live = 0
        self.admitted = 0

    def _admit(self, llrs: np.ndarray, rows: np.ndarray, ids: np.ndarray,
               max_iterations: int) -> None:
        """Hold the frames given as the rows at positions rows of (B, n)
        channel LLRs, with admission numbers ids. For a load (held and
        new frames) that pays t threads, they fill the fullest sub-pools
        first, each up to ceil(load / t) frames. A light load stays in
        one sub-pool while one sub-pool can hold it; past that it spills
        into the next, and _run still starts only t threads. Sub-pool
        capacities differ by at most one, so every frame finds room."""
        if self.live and max_iterations != self._max_iterations:
            raise ValueError(f"the pool's frames are decoded with max_iterations "
                             f"{self._max_iterations}, not {max_iterations}")
        self._max_iterations = max_iterations
        new = len(rows)
        if not new:
            return
        if new > self.capacity - self.live:
            raise ValueError(f"{new} frames to decode, but the pool has room for "
                             f"{self.capacity - self.live}")
        load = self.live + new
        share = -(-load // self._threads(load))
        start = 0
        for sub in sorted(self.subs, key=lambda sub: -sub.live):
            take = min(share, sub.capacity) - sub.live
            if take > 0 and start < new:
                sub.add(llrs, rows[start : start + take], ids[start : start + take],
                        self.graph.var_order, self.graph.var_of)
                start += take

    def _threads(self, frames: int) -> int:
        """The decoder threads that pay for frames held, at most one
        per sub-pool."""
        return max(1, min(len(self.subs), self.graph.e * frames // _THREAD_MESSAGES))


def frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    """The per-frame generator contract: seeded by (seed, frame index).
    A campaign frame's message bit i is the top bit of byte i of the
    generator's first ceil(K/8) raw PCG64 words, read little-endian (see
    _message_bits), and its N channel normals follow."""
    return np.random.default_rng([seed, frame_index])


def _message_bits(rngs, k: int) -> np.ndarray:
    """A (len(rngs), k) uint8 block of message bits, row b drawn from
    rngs[b]: bit i is the top bit of byte i of the generator's next
    ceil(k/8) raw 64-bit words, read little-endian. These are the bits
    rng.integers(0, 2, size=k, dtype=np.uint8) gives (Lemire's method on
    bytes taken low first from next_uint32, which over a range of 2 never
    rejects), drawn without its argument handling. The raw draw leaves
    PCG64's buffered upper half word unset, which standard_normal never
    reads. NEP 19 keeps a bit generator's raw stream fixed across numpy
    releases, while Generator methods may change theirs."""
    words = np.empty((len(rngs), -(-k // 8)), dtype="<u8")
    for row, rng in zip(words, rngs):
        row[...] = rng.bit_generator.random_raw(len(row))
    bits = words.view(np.uint8)
    np.right_shift(bits, 7, out=bits)
    return bits[:, :k]


def ber_campaign(
    h: SparseBinaryMatrix,
    snr_points_db,
    seed: int,
    min_frame_errors: int = 100,
    max_frames: int = 1_000_000,
    decoder: DecoderConfig | None = None,
    encoder: EncoderState | None = None,
    batch_size: int = 64,
) -> list[BerRecord]:
    """Monte Carlo BER over an SNR sweep.

    Frame f draws its message bits and channel noise from
    frame_rng(seed, f): message bit i is the top bit of byte i of the
    generator's first ceil(K/8) raw PCG64 words, read little-endian
    (_message_bits), and the N channel normals follow. A point stops
    once min_frame_errors frame errors accumulate or max_frames frames
    have been counted; frames are tallied in index order, so how they
    are decoded cannot change the result. Bit and frame errors are
    counted on the message positions. min_frame_errors and max_frames
    must be at least 1.

    Each point decodes through one DecodePool of batch_size frames, so
    a frame that needs many iterations goes on decoding while the
    frames behind it finish and new ones take their places. Frames are
    admitted in index order, as many as decode few frames past the stop
    rule: a point's first admission holds no more frames than frame
    errors are needed, since a frame adds at most one, and nothing more
    is admitted until the tally has counted it. Later admissions aim at
    the frames that give the needed errors at the frame error rate of
    the frames tallied so far; while that aim falls short of max_frames,
    at most batch_size ahead of the tally, so that a low early error rate cannot
    admit far past the stop rule. batch_size only caps the frames being
    decoded, and with them the decoder's memory; admissions run at most
    _WINDOW * batch_size frames ahead of the tally. Every point's Eb/N0
    is checked before the first frame.
    """
    if min_frame_errors < 1 or max_frames < 1:
        raise ValueError(f"min_frame_errors and max_frames must be at least 1, "
                         f"got {min_frame_errors} and {max_frames}")
    decoder = decoder or DecoderConfig()
    encoder = encoder or EncoderState.from_parity_check(h)
    if encoder.k < 1:
        raise ValueError("code has no message bits to simulate")
    rate = encoder.k / encoder.n
    channels = [ChannelConfig(ebno_db=float(e), rate=rate) for e in snr_points_db]
    graph = BpGraph(h)
    pool = DecodePool(graph, batch_size)
    # frame f's message, packed 8 bits a byte, and once decoded its bit
    # errors and converged flag sit in slot f % window until it is tallied
    window = _WINDOW * batch_size
    msgs = np.empty((window, -(-encoder.k // 8)), dtype=np.uint8)
    errs = np.empty(window, dtype=np.int64)
    conv = np.empty(window, dtype=bool)
    decoded = np.zeros(window, dtype=bool)
    first = min(min_frame_errors, max_frames, batch_size)
    records = []
    for cfg in channels:
        pool.clear()
        decoded[:] = False
        frames = bit_errors = frame_errors = undetected = 0
        while frame_errors < min_frame_errors and frames < max_frames:
            target = first
            if frames >= first:
                # the frames that give the errors still needed at the FER so
                # far, rounded up, counting at least one error
                target = frames + -(-(min_frame_errors - frame_errors) * frames // max(frame_errors, 1))
                if target < max_frames:
                    # expected to stop on its errors: admit as the batches
                    # did, at most batch_size ahead of the tally
                    target = min(target, frames + batch_size)
            start = pool.admitted
            todo = max(0, min(target - start, pool.capacity - pool.live,
                              max_frames - start, frames + window - start))
            slots = np.arange(start, start + todo) % window
            llrs = np.empty((0, encoder.n))
            if todo:
                rngs = [frame_rng(seed, f) for f in range(start, start + todo)]
                block = _message_bits(rngs, encoder.k)
                msgs[slots] = np.packbits(block, axis=1)
                llrs = transmit(encoder.encode(block), cfg, rngs)
            bits, ok, _, ids = graph.decode_batch(llrs, decoder, pool)
            slots = ids % window
            decided = np.packbits(bits[:, encoder.message_positions], axis=1)
            errs[slots] = np.bitwise_count(np.bitwise_xor(decided, msgs[slots], out=decided)).sum(axis=1)
            conv[slots] = ok
            decoded[slots] = True
            # tally the decoded frames in index order, up to the first one
            # not yet decoded or the one that meets the stop rule
            slots = np.arange(frames, pool.admitted) % window
            ready = decoded[slots]
            slots = slots[: len(slots) if ready.all() else int(ready.argmin())]
            if len(slots) == 0:
                continue
            failed = errs[slots] > 0
            reached = frame_errors + np.cumsum(failed)
            take = min(int(np.searchsorted(reached, min_frame_errors)) + 1, len(slots))
            slots = slots[:take]
            decoded[slots] = False
            frames += take
            bit_errors += int(errs[slots].sum())
            frame_errors = int(reached[take - 1])
            undetected += int((failed[:take] & conv[slots]).sum())
        records.append(
            BerRecord(
                ebno_db=cfg.ebno_db,
                frames=frames,
                bit_errors=bit_errors,
                frame_errors=frame_errors,
                bits_total=frames * encoder.k,
                undetected_errors=undetected,
                seed=seed,
            )
        )
    return records


CSV_HEADER = "ebno_db,frames,bit_errors,frame_errors,bits_total,ber,fer,seed"


def records_to_csv(records) -> str:
    """CSV with floats in shortest round-trip decimal form."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.ebno_db!r},{r.frames},{r.bit_errors},{r.frame_errors},"
            f"{r.bits_total},{r.ber!r},{r.fer!r},{r.seed}"
        )
    return "\n".join(lines) + "\n"
