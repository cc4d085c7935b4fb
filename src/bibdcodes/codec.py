"""Encoding, BPSK/AWGN channel, sum-product decoding, BER campaigns.

One systematic encoder serves every parity-check matrix: a generator
taken once from GF(2) elimination, applied to a whole batch of messages
by one matrix product. On an RA matrix it yields the accumulator's
codeword [m | p], so RA codes need no encoder of their own.

Channel convention: bit 0 maps to +1, bit 1 to -1, noise variance
sigma^2 = 1/(2 R Eb/N0) with R the true code rate, and channel LLRs are
2y/sigma^2 (positive means bit 0).

The decoder is flooding-schedule sum-product in the log domain with the
tanh product rule; LLRs are clamped to +-30 before the tanh, which is
numerically immaterial at simulated SNRs but keeps arctanh finite. A
batch is split by rows into one contiguous chunk per available core,
decoded on as many threads; every update is elementwise per frame, so
the result is bit-identical to decoding frame by frame. Message arrays
are (frames, edges) and C-ordered: gathers along the edge axis use
np.take or np.repeat, and a message's sign is set from the parity of
its check's negative inputs rather than multiplied in.

Campaign frames are seeded by (campaign seed, frame index): results are
independent of execution order and batch sizing, and rerunning with
the same seed reproduces the CSV byte for byte. A campaign sizes each
batch from the frame error rate seen so far, so it decodes few frames
past its stop rule.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import gf2
from .errors import DimensionMismatch, NonFiniteLlr, NotBinary, TooLarge
from .matrices import SparseBinaryMatrix, owners
from .ra import RaParityCheck

# decode_batch splits a batch into at most this many chunks, one per thread
_WORKERS = len(os.sched_getaffinity(0))
# the fewest frames ber_campaign decodes in a batch after a point's first
_MIN_BATCH = 8 * _WORKERS


@dataclass(frozen=True)
class ChannelConfig:
    ebno_db: float
    rate: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"code rate must be in (0, 1], got {self.rate}")

    @property
    def noise_variance(self) -> float:
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebno_db / 10.0))


@dataclass(frozen=True)
class DecoderConfig:
    max_iterations: int = 50
    llr_clamp: float = 30.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not (math.isfinite(self.llr_clamp) and self.llr_clamp > 0):
            raise ValueError(f"llr_clamp must be finite and positive, got {self.llr_clamp}")


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

    gf2.rref runs once. Its free columns carry the message bits
    (message_positions, ascending) and its pivot columns the parity
    bits: each reduced row sets its pivot bit to the XOR of the free
    bits it holds, so the parity part is a dense K x M 0/1 generator.
    Dependent rows simply enlarge K = N - rank; the adjusted dimension
    is exposed, not raised. For an RA matrix [H1 H2] the unit lower
    triangular H2 takes every pivot, so message_positions is range(K)
    and the codeword is [m | p] with H2 p = H1 m. The generator takes
    8 K M bytes.
    """

    def __init__(self, h: SparseBinaryMatrix):
        self.n = h.cols
        reduced, pivot_cols = gf2.rref(h.packed_rows())
        dense = np.zeros((len(reduced), h.cols), dtype=np.float64)
        for i, row in enumerate(reduced):
            dense[i, gf2.bit_positions(row)] = 1.0
        pivot_set = set(pivot_cols)
        self.message_positions = [j for j in range(h.cols) if j not in pivot_set]
        self.k = len(self.message_positions)
        self._parity_positions = pivot_cols
        self._generator = np.ascontiguousarray(dense[:, self.message_positions].T)

    @classmethod
    def from_ra(cls, ra: RaParityCheck) -> "EncoderState":
        return cls(ra.h)

    @classmethod
    def from_parity_check(cls, h: SparseBinaryMatrix) -> "EncoderState":
        return cls(h)

    def encode(self, message) -> np.ndarray:
        """Codewords with zero syndrome for a (K,) message or a (B, K)
        batch; message bits sit at message_positions in their given
        order. The parity bits come from one float matrix product,
        exact because every sum is an integer of at most K."""
        message = np.asarray(message, dtype=np.uint8)
        if message.ndim not in (1, 2) or message.shape[-1] != self.k:
            raise DimensionMismatch(
                f"message shape {message.shape} is not (K,) or (B, K) with K={self.k}"
            )
        if (message > 1).any():
            raise NotBinary(f"message bits must be 0 or 1, got {int(message.max())}")
        cw = np.zeros(message.shape[:-1] + (self.n,), dtype=np.uint8)
        cw[..., self.message_positions] = message
        parity = message.astype(np.float64) @ self._generator
        cw[..., self._parity_positions] = parity.astype(np.int64) & 1
        return cw


def transmit(codeword, cfg: ChannelConfig, rng: np.random.Generator | None = None) -> np.ndarray:
    """BPSK over AWGN; returns channel LLRs 2y/sigma^2."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    c = np.asarray(codeword, dtype=np.uint8)
    sigma2 = cfg.noise_variance
    x = 1.0 - 2.0 * c.astype(np.float64)
    y = x + rng.normal(0.0, math.sqrt(sigma2), size=len(c))
    return 2.0 * y / sigma2


class BpGraph:
    """Edge-indexed Tanner graph with batched flooding updates.

    Message arrays are (batch, edges) and every update is elementwise
    per frame, so batched decoding is bit-identical to decoding frames
    one at a time. decode_batch therefore splits a batch by rows into
    one contiguous chunk per available core and decodes the chunks on
    parallel threads (numpy releases the GIL in its loops); the result
    is still bit-identical to decoding frame by frame.
    """

    def __init__(self, h: SparseBinaryMatrix):
        self.h = h
        self.n = h.cols
        self.m = h.rows
        # edges in row-major order: the compressed-row mirror of h
        self.check_of = owners(h.row_ptr)
        self.var_of = h.col_idx
        self.e = len(self.var_of)
        counts = np.diff(h.row_ptr)
        nonempty = counts > 0
        # reduceat segment starts and lengths for the edge ranges of nonempty checks
        self.check_starts = h.row_ptr[:-1][nonempty]
        self._check_degrees = counts[nonempty]
        # the edges in column-major order, and each present variable's range in it
        self._var_perm = np.argsort(self.var_of, kind="stable")
        vpresent = np.diff(h.col_ptr) > 0
        self._var_starts = h.col_ptr[:-1][vpresent]
        self._present_vars = np.nonzero(vpresent)[0]
        self._all_vars_present = bool(vpresent.all())

    def decode_batch(self, llrs: np.ndarray, cfg: DecoderConfig | None = None):
        """Decode (batch, n) channel LLRs.

        Returns (bits, converged, iterations); iterations counts BP
        rounds, 0 meaning the channel hard decision already satisfied
        every check. Ties (LLR exactly 0) decode to bit 0. NaN or
        infinite LLRs raise NonFiniteLlr.

        The frames the hard decision leaves unsolved are split into one
        contiguous chunk per available core: the calling thread decodes
        the first, one thread each the others, and an exception raised
        in any chunk is raised here once every thread has ended.
        """
        cfg = cfg or DecoderConfig()
        llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
        if llrs.shape[1] != self.n:
            raise DimensionMismatch(f"LLR length {llrs.shape[1]} != n={self.n}")
        if not np.isfinite(llrs).all():
            raise NonFiniteLlr("channel LLRs must be finite (NaN or inf found)")
        # the magnitude bound applies to the channel values too, so even
        # absurdly confident inputs stay correctable and tanh-safe
        llrs = np.clip(llrs, -cfg.llr_clamp, cfg.llr_clamp)
        bits_out = (llrs < 0).astype(np.uint8)
        conv_out = self._syndrome_ok(bits_out)
        iter_out = np.where(conv_out, 0, cfg.max_iterations)
        idx = np.nonzero(~conv_out)[0]
        if len(idx) == 0:
            return bits_out, conv_out, iter_out

        chunks = np.array_split(idx, min(_WORKERS, len(idx)))
        results = [None] * len(chunks)

        def work(i):
            try:
                results[i] = self._decode_rows(llrs[chunks[i]], cfg)
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
            bits_out[rows], conv_out[rows], iter_out[rows] = res
        return bits_out, conv_out, iter_out

    def _decode_rows(self, channel: np.ndarray, cfg: DecoderConfig):
        """The iteration loop over frames (rows of clamped channel LLRs)
        whose hard decision fails a check; returns their bits, converged
        flags and iteration counts. A frame leaves the loop once its
        syndrome is zero; the rest keep their last bits at the cap."""
        rows = len(channel)
        bits_out = np.empty((rows, self.n), dtype=np.uint8)
        conv_out = np.zeros(rows, dtype=bool)
        iter_out = np.full(rows, cfg.max_iterations, dtype=np.int64)
        live = np.arange(rows)
        # gathers along axis 1 use np.take: it returns C-ordered arrays, where
        # fancy indexing would return Fortran-ordered ones
        q = np.take(channel, self.var_of, axis=1)
        for iteration in range(1, cfg.max_iterations + 1):
            r = self._check_update(q, cfg.llr_clamp)
            # q's buffer is free once r exists: it takes r in variable order,
            # then the next variable-to-check messages (mode="clip" lets take
            # write into out unbuffered; every index is in range)
            rv = np.take(r, self._var_perm, axis=1, out=q, mode="clip")
            sums = np.add.reduceat(rv, self._var_starts, axis=1)
            if self._all_vars_present:
                posterior = np.add(channel, sums, out=sums)
            else:
                posterior = channel.copy()
                posterior[:, self._present_vars] += sums
            np.take(posterior, self.var_of, axis=1, out=q, mode="clip")
            np.subtract(q, r, out=q)
            bits = (posterior < 0).astype(np.uint8)
            ok = self._syndrome_ok(bits)
            if ok.any():
                done = live[ok]
                bits_out[done] = bits[ok]
                conv_out[done] = True
                iter_out[done] = iteration
                keep = ~ok
                if not keep.any():
                    return bits_out, conv_out, iter_out
                live = live[keep]
                channel = channel[keep]
                q = q[keep]
                bits = bits[keep]
        bits_out[live] = bits
        return bits_out, conv_out, iter_out

    def _check_update(self, q: np.ndarray, clamp: float) -> np.ndarray:
        """Check-to-variable messages by the tanh rule. Overwrites q,
        computing in place where the result replaces an operand.

        A message is negative when an odd number of the check's other
        inputs are: the low bit of the check's count of negative inputs
        plus the edge's own. The magnitudes' sign bits are clear, so
        setting the bit there gives exactly what multiplying by a +-1.0
        sign product gave, -0.0 included. Per-check values reach the
        check's edges by np.repeat, since each check's edges are one
        contiguous run."""
        degrees = self._check_degrees
        qc = np.clip(q, -clamp, clamp, out=q)
        neg = (qc < 0).view(np.uint8)
        # a uint8 sum wraps at 256, which keeps its low bit
        odd = np.add.reduceat(neg, self.check_starts, axis=1, dtype=np.uint8)
        flip = np.repeat(odd, degrees, axis=1)
        np.add(flip, neg, out=flip)
        t = np.divide(qc, 2.0, out=q)
        np.tanh(t, out=t)
        mag = np.abs(t, out=t)
        np.clip(mag, 1e-300, 1.0 - 1e-15, out=mag)
        logm = np.log(mag, out=mag)
        tot = np.add.reduceat(logm, self.check_starts, axis=1)
        excl = np.repeat(tot, degrees, axis=1)
        np.subtract(excl, logm, out=excl)
        np.exp(excl, out=excl)
        np.minimum(excl, 1.0 - 1e-15, out=excl)
        np.arctanh(excl, out=excl)
        excl_mag = np.multiply(2.0, excl, out=excl)
        # the shift keeps only the low bit of flip, as the sign bit; logm's
        # buffer is free once excl exists
        sign = np.left_shift(flip, 63, out=logm.view(np.uint64), dtype=np.uint64)
        bits = excl_mag.view(np.uint64)
        np.bitwise_or(bits, sign, out=bits)
        return excl_mag

    def _syndrome_ok(self, bits: np.ndarray) -> np.ndarray:
        if self.e == 0:
            return np.ones(bits.shape[0], dtype=bool)
        edge_bits = np.take(bits, self.var_of, axis=1)
        parity = np.bitwise_xor.reduceat(edge_bits, self.check_starts, axis=1)
        return ~parity.any(axis=1)


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


_ML_K_LIMIT = 20


def ml_decode_exhaustive(h: SparseBinaryMatrix, llr) -> np.ndarray:
    """Maximum-likelihood decoding by codeword enumeration (K <= 20).

    Maximizes BPSK correlation, i.e. minimizes the summed LLR over set
    bits; Gray-code order breaks exact ties deterministically (first
    minimum wins, so the all-zero word wins a tie with anything).
    """
    llr = np.asarray(llr, dtype=np.float64)
    if len(llr) != h.cols:
        raise DimensionMismatch(f"LLR length {len(llr)} != n={h.cols}")
    basis = gf2.nullspace(h.packed_rows(), h.cols)
    k = len(basis)
    if k > _ML_K_LIMIT:
        raise TooLarge(f"dimension {k} exceeds ML enumeration limit {_ML_K_LIMIT}")
    basis_idx = [gf2.bit_positions(vec) for vec in basis]
    best_cost = 0.0
    best_cw = 0
    cw = 0
    cost = 0.0
    bits = np.zeros(h.cols, dtype=np.uint8)
    for i in range(1, 1 << k):
        j = (i & -i).bit_length() - 1
        flip = basis_idx[j]
        signs = 1.0 - 2.0 * bits[flip].astype(np.float64)  # +1 where a bit turns on
        cost += float(np.sum(llr[flip] * signs))
        bits[flip] ^= 1
        cw ^= basis[j]
        if cost < best_cost:
            best_cost = cost
            best_cw = cw
    out = np.zeros(h.cols, dtype=np.uint8)
    out[gf2.bit_positions(best_cw)] = 1
    return out


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

    Batches are sized to decode few frames past the stop rule. A
    point's first batch holds no more frames than frame errors are
    needed, since a frame adds at most one. Each later batch aims at
    the needed errors at the frame error rate seen so far, and holds at
    least _MIN_BATCH frames so that every decoder thread has work.
    batch_size only caps a batch, and with it the memory one batch
    takes.
    """
    decoder = decoder or DecoderConfig()
    encoder = encoder or EncoderState.from_parity_check(h)
    if encoder.k < 1:
        raise ValueError("code has no message bits to simulate")
    graph = BpGraph(h)
    msg_pos = np.array(encoder.message_positions, dtype=np.int64)
    records = []
    for ebno_db in snr_points_db:
        cfg = ChannelConfig(ebno_db=float(ebno_db), rate=encoder.k / encoder.n, seed=seed)
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
            errs = (bits[:, msg_pos] != msgs).sum(axis=1)
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
                ebno_db=float(ebno_db),
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
