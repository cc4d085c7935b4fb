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
2y/sigma^2 (positive means bit 0).

The decoder is flooding-schedule sum-product in the log domain with the
tanh product rule; LLRs are clamped to +-30 before the tanh, which is
numerically immaterial at simulated SNRs but keeps arctanh finite. A
batch is split into one contiguous chunk of frames per available core,
decoded on as many threads; every update is elementwise per frame, so
the result is bit-identical to decoding frame by frame. Message arrays
are edge-major, (edges, frames) and C-ordered, so a gather copies whole
rows of frames. Checks and variables are stably sorted by degree, so
each distinct degree is one run, and a run's sums are folded over a 3-D
view of the messages in numpy's pairwise order: they equal
np.add.reduceat bit for bit, which keeps campaign CSVs byte-identical,
while every step is a plain elementwise loop that releases the GIL
(reduceat and repeat hold it). Each iteration makes a few numpy calls
per run, so a code with many distinct degrees costs more per
iteration, which shows most when frames are decoded one at a time.
A message's sign is set from the parity of its check's negative inputs
rather than multiplied in.

Campaign frames are seeded by (campaign seed, frame index): results are
independent of execution order and batch sizing, and rerunning with
the same seed reproduces the CSV byte for byte. A campaign sizes each
batch from the frame error rate seen so far, so it decodes few frames
past its stop rule.
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

# decode_batch splits a batch into at most this many chunks, one per thread
_WORKERS = len(os.sched_getaffinity(0))
# the fewest frames ber_campaign decodes in a batch after a point's first
_MIN_BATCH = 8 * _WORKERS
# the byte of a native float64 that holds its sign bit
_TOP_BYTE = 7 if sys.byteorder == "little" else 0
# the magnitude every channel LLR and check-node input is clamped to
LLR_CLAMP = 30.0


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
class DecodeResult:
    bits: np.ndarray
    converged: bool
    iterations: int


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
    r. For an RA matrix [H1 H2] the unit lower triangular H2 takes
    every pivot, so message_positions is range(K), T is H2^-1 and the
    codeword is [m | p] with H2 p = H1 m.
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


def transmit(codeword, cfg: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """BPSK over AWGN with noise drawn from rng; returns channel LLRs
    2y/sigma^2."""
    c = np.asarray(codeword, dtype=np.uint8)
    sigma2 = cfg.noise_variance
    x = 1.0 - 2.0 * c.astype(np.float64)
    y = x + rng.normal(0.0, math.sqrt(sigma2), size=len(c))
    return 2.0 * y / sigma2


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
    columns, and var_of indexes that order. The variable-major copy of
    the messages runs over var_order, each variable's edges in row
    order, so its sums are one run per distinct degree and land on the
    posterior rows of the present variables without a scatter;
    decode_batch permutes the columns of each chunk on entry and of its
    bits on exit. Sorting keeps every segment's terms in their order,
    and a run's sums fold axis 1 of its view in numpy's pairwise order,
    so they equal np.add.reduceat bit for bit and campaign CSVs keep
    their bytes; unlike reduceat and np.repeat, which hold the GIL,
    every step is an elementwise loop that releases it. Per-check totals reach their
    edges by broadcasting, and gathers copy whole rows of frames. Every
    update is elementwise per frame, so batched decoding is
    bit-identical to decoding frames one at a time. decode_batch
    therefore splits a batch into one chunk of frames per
    available core and decodes the chunks on parallel threads; the
    result is still bit-identical to decoding frame by frame.
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

    def decode_batch(self, llrs: np.ndarray, cfg: DecoderConfig | None = None):
        """Decode (batch, n) channel LLRs.

        Returns (bits, converged, iterations); iterations counts BP
        rounds, 0 meaning the channel hard decision already satisfied
        every check. Ties (LLR exactly 0) decode to bit 0. NaN or
        infinite LLRs raise NonFiniteLlr.

        The frames the hard decision leaves unsolved are split into one
        contiguous chunk per available core: the calling thread decodes
        the first, one thread each the others, and an exception raised
        in any chunk is raised here once every thread has ended. Each
        chunk is transposed to (n, frames) in var_order on entry, its
        bits back on exit.
        """
        cfg = cfg or DecoderConfig()
        llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
        if llrs.shape[1] != self.n:
            raise DimensionMismatch(f"LLR length {llrs.shape[1]} != n={self.n}")
        if not np.isfinite(llrs).all():
            raise NonFiniteLlr("channel LLRs must be finite (NaN or inf found)")
        # the magnitude bound applies to the channel values too, so even
        # absurdly confident inputs stay correctable and tanh-safe
        llrs = np.clip(llrs, -LLR_CLAMP, LLR_CLAMP)
        bits_out = (llrs < 0).astype(np.uint8)
        conv_out = self._syndrome_ok(bits_out.T[self.var_order])
        iter_out = np.where(conv_out, 0, cfg.max_iterations)
        idx = np.nonzero(~conv_out)[0]
        if len(idx) == 0:
            return bits_out, conv_out, iter_out

        chunks = np.array_split(idx, min(_WORKERS, len(idx)))
        results = [None] * len(chunks)

        def work(i):
            try:
                channel = llrs[np.ix_(chunks[i], self.var_order)].T
                results[i] = self._decode_rows(np.ascontiguousarray(channel), cfg)
            except BaseException as exc:  # raised again by the calling thread
                results[i] = exc

        threads = [threading.Thread(target=work, args=(i,)) for i in range(1, len(chunks))]
        for t in threads:
            t.start()
        try:
            work(0)
        finally:
            for t in threads:
                t.join()
        for rows, res in zip(chunks, results):
            if isinstance(res, BaseException):
                raise res
            bits, conv_out[rows], iter_out[rows] = res
            bits_out[np.ix_(rows, self.var_order)] = bits.T
        return bits_out, conv_out, iter_out

    def _decode_rows(self, channel: np.ndarray, cfg: DecoderConfig):
        """The iteration loop over frames whose hard decision fails a
        check, given as the columns of (n, frames) clamped channel LLRs
        in var_order; returns their (n, frames) bits in that order,
        converged flags and iteration counts. A frame leaves the loop
        once its syndrome is zero; the rest keep their last bits at the
        cap.

        The messages alternate between two buffers: the check update
        turns q into r in place, and the next q is gathered into the
        other. Buffers hold the frames still live at their front."""
        frames = channel.shape[1]
        bits_out = np.empty((self.n, frames), dtype=np.uint8)
        conv_out = np.zeros(frames, dtype=bool)
        iter_out = np.full(frames, cfg.max_iterations, dtype=np.int64)
        live = np.arange(frames)
        size = self.e * frames
        bufs = (np.empty(size), np.empty(size))
        flip = np.empty(size, dtype=np.uint8)
        post = np.empty(self.n * frames)
        present = self._present

        def view(buf, rows):
            return buf[: rows * frames].reshape(rows, frames)

        # mode="clip" lets take write into out unbuffered; every index is in range
        q = np.take(channel, self.var_of, axis=0, out=view(bufs[0], self.e), mode="clip")
        cur = 0
        for iteration in range(1, cfg.max_iterations + 1):
            r = self._check_update(q, LLR_CLAMP, view(flip, self.e))
            cur = 1 - cur
            rv = np.take(r, self._var_perm, axis=0, out=view(bufs[cur], self.e), mode="clip")
            posterior = view(post, self.n)
            for seg, edges, c, d in self._var_runs:
                _segment_sums(rv[edges].reshape(c, d, frames), out=posterior[seg])
            np.add(channel[:present], posterior[:present], out=posterior[:present])
            posterior[present:] = channel[present:]
            q = np.take(posterior, self.var_of, axis=0, out=rv, mode="clip")
            np.subtract(q, r, out=q)
            bits = (posterior < 0).astype(np.uint8)
            ok = self._syndrome_ok(bits)
            if ok.any():
                done = live[ok]
                bits_out[:, done] = bits[:, ok]
                conv_out[done] = True
                iter_out[done] = iteration
                keep = np.flatnonzero(~ok)
                if len(keep) == 0:
                    return bits_out, conv_out, iter_out
                live = live[keep]
                frames = len(keep)
                channel = np.take(channel, keep, axis=1)
                bits = np.take(bits, keep, axis=1)
                cur = 1 - cur
                q = np.take(q, keep, axis=1, out=view(bufs[cur], self.e), mode="clip")
        bits_out[:, live] = bits
        return bits_out, conv_out, iter_out

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
        t = np.divide(q, 2.0, out=q)
        np.tanh(t, out=t)
        mag = np.abs(t, out=t)
        np.clip(mag, 1e-300, 1.0 - 1e-15, out=mag)
        logm = np.log(mag, out=mag)
        for _, edges, c, d in self._check_runs:
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

    def _syndrome_ok(self, bits: np.ndarray) -> np.ndarray:
        """Whether each frame of (n, frames) bits, in var_order,
        satisfies every check."""
        frames = bits.shape[1]
        edge_bits = np.take(bits, self.var_of, axis=0)
        ok = np.ones(frames, dtype=bool)
        for _, edges, c, d in self._check_runs:
            parity = np.bitwise_xor.reduce(edge_bits[edges].reshape(c, d, frames), axis=1)
            ok &= ~parity.any(axis=0)
        return ok


def sum_product_decode(
    h: SparseBinaryMatrix, llr, cfg: DecoderConfig | None = None
) -> DecodeResult:
    """Flooding sum-product decoding of a single LLR vector."""
    cfg = cfg or DecoderConfig()
    llr = np.asarray(llr, dtype=np.float64)
    if llr.ndim != 1 or len(llr) != h.cols:
        raise DimensionMismatch(f"LLR length {llr.shape} != n={h.cols}")
    bits, conv, iters = BpGraph(h).decode_batch(llr[None, :], cfg)
    return DecodeResult(bits=bits[0], converged=bool(conv[0]), iterations=int(iters[0]))


def frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    """The per-frame generator contract: seeded by (seed, frame index)."""
    return np.random.default_rng([seed, frame_index])


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
    frame_rng(seed, f). A point stops once min_frame_errors frame
    errors accumulate or max_frames frames have been counted; frames
    are tallied in index order, so batch sizing cannot change the
    result. Bit and frame errors are counted on the message positions.
    min_frame_errors and max_frames must be at least 1.

    Batches are sized to decode few frames past the stop rule. A
    point's first batch holds no more frames than frame errors are
    needed, since a frame adds at most one. Each later batch aims at
    the needed errors at the frame error rate seen so far, and holds at
    least _MIN_BATCH frames so that every decoder thread has work.
    batch_size only caps a batch, and with it the memory one batch
    takes. Every point's Eb/N0 is checked before the first frame.
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
    records = []
    for cfg in channels:
        frames = bit_errors = frame_errors = undetected = 0
        while frame_errors < min_frame_errors and frames < max_frames:
            want = min_frame_errors - frame_errors
            if frames:
                # the frames that give the errors still needed at the FER so
                # far, rounded up, counting at least one error
                want = max(_MIN_BATCH, -(-want * frames // max(frame_errors, 1)))
            todo = min(want, batch_size, max_frames - frames)
            rngs = [frame_rng(seed, frames + b) for b in range(todo)]
            msgs = np.stack([rng.integers(0, 2, size=encoder.k, dtype=np.uint8) for rng in rngs])
            codewords = encoder.encode(msgs)
            llrs = np.stack([transmit(cw, cfg, rng) for cw, rng in zip(codewords, rngs)])
            bits, conv, _ = graph.decode_batch(llrs, decoder)
            errs = (bits[:, encoder.message_positions] != msgs).sum(axis=1)
            failed = errs > 0
            # tally frames in index order up to the one that meets the stop rule
            reached = frame_errors + np.cumsum(failed)
            take = min(int(np.searchsorted(reached, min_frame_errors)) + 1, todo)
            frames += take
            bit_errors += int(errs[:take].sum())
            frame_errors = int(reached[take - 1])
            undetected += int((failed & conv)[:take].sum())
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
