import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bibdcodes
from bibdcodes import codec, gf2
from bibdcodes.codec import (
    BpGraph,
    ChannelConfig,
    DecoderConfig,
    EncoderState,
    ber_campaign,
    frame_rng,
    records_to_csv,
    transmit,
)
from bibdcodes.designs import expand_cdf_to_design, find_base_block_with_difference, netto_cdf
from bibdcodes.errors import DimensionMismatch, NonFiniteLlr, NotBinary, TooLarge
from bibdcodes.matrices import SparseBinaryMatrix, incidence_matrix
from bibdcodes.ra import (
    RaParityCheck,
    sra_from_cdf,
    sra_from_crcbibd,
    sra_from_kts,
    w3ra_from_kts,
    wqra_from_cdf,
    wqra_from_crcbibd,
)

from conftest import random_parity_checks
from oracles import accumulate, ml_decode_exhaustive, to_dense


@pytest.fixture(scope="module")
def fano():
    return incidence_matrix(expand_cdf_to_design(netto_cdf(7)))


@pytest.fixture(scope="module")
def netto61():
    return incidence_matrix(expand_cdf_to_design(netto_cdf(61)))


@pytest.fixture(scope="module")
def ra19():
    return sra_from_cdf(netto_cdf(19), h1_orbits=[2, 3])


@pytest.fixture(scope="module")
def ra_codes(ra19, kts21, crcbibd39):
    """Every RA transform family the suite builds, plus one H2 that is
    lower triangular but no uniform accumulator (spec None)."""
    fam = netto_cdf(61)
    acc = find_base_block_with_difference(fam, 1)
    h1 = [i for i in range(1, fam.t + 1) if i != acc]
    irregular = RaParityCheck(
        h1=SparseBinaryMatrix(4, 2, [(0, 1, 3), (1, 2)]),
        h2=SparseBinaryMatrix(4, 4, [(0, 2), (1, 2, 3), (2,), (3,)]),
        spec=None,
    )
    return {
        "ra19": ra19,
        "netto61-sra": sra_from_cdf(fam, h1),
        "netto61-w3ra": wqra_from_cdf(fam, 1, h1),
        "kts21-sra": sra_from_kts(kts21, h1_classes=[0, 1, 2]),
        "kts21-w3ra": w3ra_from_kts(kts21, h1_classes=[0, 1, 2]),
        "crcbibd39-sra": sra_from_crcbibd(crcbibd39, class_orbit=13, h1_classes=[16, 17, 18]),
        "crcbibd39-wqra": wqra_from_crcbibd(crcbibd39, class_orbit=13, g1=2,
                                            h1_classes=[16, 17, 18]),
        "irregular": irregular,
    }


def test_channel_config_formula():
    cfg = ChannelConfig(ebno_db=0.0, rate=0.5)
    assert cfg.noise_variance == pytest.approx(1.0)
    assert ChannelConfig(3.0, 0.9).noise_variance == pytest.approx(
        1 / (2 * 0.9 * 10 ** 0.3)
    )


def test_channel_config_rejects_an_infinite_llr_scale():
    # at rate 3/7 the variance at 3081 dB is subnormal and 2 / variance overflows
    for ebno_db in (3081.0, 3082.0):
        with pytest.raises(ValueError, match=f"^Eb/N0 point {ebno_db} dB has no finite positive"):
            ChannelConfig(ebno_db, 3 / 7)
    llrs = transmit(np.zeros((1, 7)), ChannelConfig(3080.0, 3 / 7), [np.random.default_rng(0)])
    assert np.isfinite(llrs).all() and (llrs > 1e308).all()


def test_encode_zero_message_is_zero_codeword(fano, ra_codes):
    encoders = [EncoderState.from_parity_check(fano)]
    encoders += [EncoderState.from_ra(ra) for ra in ra_codes.values()]
    for enc in encoders:
        assert not enc.encode(np.zeros(enc.k, dtype=np.uint8)).any()
        assert not enc.encode(np.zeros((3, enc.k), dtype=np.uint8)).any()


def test_ge_encoder_fano_dimension(fano):
    enc = EncoderState.from_parity_check(fano)
    assert enc.k == 3  # 7 - rank 4
    rng = np.random.default_rng(0)
    for _ in range(1000):
        c = enc.encode(rng.integers(0, 2, enc.k, dtype=np.uint8))
        assert not fano.mul_vector(c).any()


def test_ra_encoder_zero_syndrome(ra_codes):
    # the one systematic encoder reproduces the accumulator encoder
    # [m | accumulate(H1 m)] on every RA transform, batched or not
    rng = np.random.default_rng(1)
    for name, ra in ra_codes.items():
        enc = EncoderState.from_ra(ra)
        assert enc.message_positions.tolist() == list(range(ra.k)), name
        msgs = rng.integers(0, 2, (200, ra.k), dtype=np.uint8)
        cws = enc.encode(msgs)
        assert not ra.h.mul_vector(cws).any(), name
        assert (cws[:, : ra.k] == msgs).all(), name
        for m, c in zip(msgs[:20], cws):
            assert (enc.encode(m) == c).all(), name
            if ra.spec is not None:
                h1m = to_dense(ra.h1).astype(np.int64) @ m % 2
                assert (c[ra.k :] == accumulate(h1m, ra.spec)).all(), name


def test_encode_length_check(fano):
    enc = EncoderState.from_parity_check(fano)
    with pytest.raises(DimensionMismatch):
        enc.encode(np.zeros(enc.k + 1, dtype=np.uint8))
    with pytest.raises(DimensionMismatch):
        enc.encode(np.zeros((2, 2, enc.k), dtype=np.uint8))


def test_encode_rejects_non_binary_message(fano):
    enc = EncoderState.from_parity_check(fano)
    with pytest.raises(NotBinary):
        enc.encode(np.array([1, 2, 0]))


def dense_generator_encode(h, messages):
    """The message positions and codewords of the dense generator the
    encoder used to keep: rref, the reduced rows as dense 0/1 rows, and
    the parity bits as m @ G & 1 with G their free columns, transposed."""
    reduced, pivots = gf2.rref(h.packed_rows())
    dense = np.zeros((len(reduced), h.cols), dtype=np.int64)
    for i, row in enumerate(reduced):
        dense[i, gf2.bit_positions(row)] = 1
    free = [j for j in range(h.cols) if j not in set(pivots)]
    generator = dense[:, free].T
    cw = np.zeros(messages.shape[:-1] + (h.cols,), dtype=np.uint8)
    cw[..., free] = messages
    cw[..., pivots] = messages.astype(np.int64) @ generator & 1
    return free, cw


def test_encode_matches_the_dense_generator(netto61, ra_codes):
    rng = np.random.default_rng(16)
    for h in random_parity_checks(16, 200) + [netto61] + [ra.h for ra in ra_codes.values()]:
        enc = EncoderState(h)
        for shape in [(enc.k,), (5, enc.k), (0, enc.k)]:
            msgs = rng.integers(0, 2, size=shape, dtype=np.uint8)
            free, want = dense_generator_encode(h, msgs)
            got = enc.encode(msgs)
            assert enc.message_positions.tolist() == free, h
            assert got.dtype == np.uint8 and np.array_equal(got, want), (h, shape)
            assert not h.mul_vector(got).any(), h


def test_encoder_of_netto199_keeps_no_generator():
    # a dense K x M float64 generator alone is 8 * 6368 * 199 bytes = 10.1 MB
    h = incidence_matrix(expand_cdf_to_design(netto_cdf(199)))
    tracemalloc.start()
    try:
        enc = EncoderState(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (enc.n, enc.k) == (6567, 6368)
    assert peak < 3 * 2**20


def test_transmit_deterministic_and_noiseless_limit():
    cfg = ChannelConfig(ebno_db=2.0, rate=0.5)
    c = np.array([[0, 1, 1, 0, 1]], dtype=np.uint8)
    llr1 = transmit(c, cfg, [np.random.default_rng(99)])
    llr2 = transmit(c, cfg, [np.random.default_rng(99)])
    assert (llr1 == llr2).all()
    # sigma -> 0: signs recover the bits exactly
    quiet = ChannelConfig(ebno_db=40.0, rate=0.5)
    llr = transmit(c, quiet, [np.random.default_rng(7)])
    assert ((llr < 0).astype(np.uint8) == c).all()


def test_decode_noiseless_is_iteration_zero(ra19):
    enc = EncoderState.from_ra(ra19)
    rng = np.random.default_rng(3)
    c = enc.encode(rng.integers(0, 2, enc.k, dtype=np.uint8))
    llr = 4.0 * (1.0 - 2.0 * c.astype(float))
    bits, converged, iterations = BpGraph(ra19.h).decode_batch(llr)
    assert converged[0] and iterations[0] == 0
    assert (bits[0] == c).all()


def test_decode_all_zero_llr_tie_rule(fano):
    bits, _, _ = BpGraph(fano).decode_batch(np.zeros(7))
    assert not bits.any()  # ties decode to bit 0


def test_decode_without_checks_is_the_hard_decision():
    # an all-zero parity check: no edges, every word is a codeword
    graph = BpGraph(SparseBinaryMatrix(2, 3, [(), (), ()]))
    bits, converged, iterations = graph.decode_batch(np.array([[1.0, -2.0, 0.5]]))
    assert bits.tolist() == [[0, 1, 0]] and converged.all() and iterations.tolist() == [0]


def test_decode_dimension_mismatch(fano):
    batch = BpGraph(fano).decode_batch
    for decode in (ml_decode_exhaustive, lambda h, llr: batch(llr)):
        for shape in [(8,), (6,), (7, 1), (), (1, 7, 7), (2, 7, 7)]:
            with pytest.raises(DimensionMismatch):
                decode(fano, np.zeros(shape))
    with pytest.raises(DimensionMismatch):  # one vector, not a batch
        ml_decode_exhaustive(fano, np.zeros((1, 7)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decode_rejects_non_finite_llrs(fano, bad):
    graph = BpGraph(fano)
    with pytest.raises(NonFiniteLlr):
        graph.decode_batch(np.full((4, 7), bad))
    llrs = np.ones((4, 7))
    llrs[2, 5] = bad  # one bad value in one frame rejects the batch
    with pytest.raises(NonFiniteLlr):
        graph.decode_batch(llrs)
    with pytest.raises(NonFiniteLlr):
        ml_decode_exhaustive(fano, llrs[2])


def test_single_error_correction_matches_ml(fano):
    enc = EncoderState.from_parity_check(fano)
    graph = BpGraph(fano)
    agreements = 0
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        c = enc.encode(rng.integers(0, 2, enc.k, dtype=np.uint8))
        llr = 6.0 * (1.0 - 2.0 * c.astype(float))
        flip = rng.integers(0, len(c))
        llr[flip] = -llr[flip]
        bits, converged, _ = graph.decode_batch(llr)
        ml = ml_decode_exhaustive(fano, llr)
        assert converged[0]
        if (bits[0] == ml).all() and (ml == c).all():
            agreements += 1
    assert agreements == 1000


def test_converged_implies_zero_syndrome(ra19):
    h = ra19.h
    graph = BpGraph(h)
    rng = np.random.default_rng(11)
    cfg = ChannelConfig(ebno_db=1.0, rate=ra19.k / (ra19.k + ra19.m))
    llrs = transmit(np.zeros((64, h.cols), dtype=np.uint8), cfg,
                    [np.random.default_rng(s) for s in range(64)])
    bits, conv, iters = graph.decode_batch(llrs, DecoderConfig())
    assert not h.mul_vector(bits[conv]).any()
    assert (iters[~conv] == 50).all()


def test_batch_equals_single(ra19):
    h = ra19.h
    graph = BpGraph(h)
    cfg = ChannelConfig(ebno_db=2.5, rate=ra19.k / (ra19.k + ra19.m))
    llrs = transmit(np.zeros((20, h.cols), dtype=np.uint8), cfg,
                    [np.random.default_rng(1000 + s) for s in range(20)])
    bits_b, conv_b, it_b = graph.decode_batch(llrs, DecoderConfig())
    for i in range(20):
        bits_s, conv_s, it_s = graph.decode_batch(llrs[i : i + 1], DecoderConfig())
        assert (bits_b[i] == bits_s[0]).all()
        assert conv_b[i] == conv_s[0] and it_b[i] == it_s[0]


def netto61_frames(h, frames, ebno_db):
    """Channel LLRs of campaign frames 0..frames-1 at seed 61."""
    enc = EncoderState.from_parity_check(h)
    cfg = ChannelConfig(ebno_db=ebno_db, rate=enc.k / enc.n)
    rngs = [frame_rng(61, f) for f in range(frames)]
    msgs = np.stack([rng.integers(0, 2, size=enc.k, dtype=np.uint8) for rng in rngs])
    return transmit(enc.encode(msgs), cfg, rngs)


def test_split_batch_equals_rows(netto61, monkeypatch):
    graph = BpGraph(netto61)
    llrs = netto61_frames(netto61, 64, 3.0)
    rows = [graph.decode_batch(llrs[i : i + 1]) for i in range(64)]
    bits_r = np.concatenate([b for b, _, _ in rows])
    conv_r = np.concatenate([c for _, c, _ in rows])
    it_r = np.concatenate([it for _, _, it in rows])
    # frames leave the loop at different iterations, some at the cap
    assert conv_r.any() and not conv_r.all() and len(set(it_r.tolist())) > 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 8):  # 8: more threads than cores
            monkeypatch.setattr(codec, "_WORKERS", workers)
            bits, conv, it = graph.decode_batch(llrs)
            assert (bits == bits_r).all(), workers
            assert (conv == conv_r).all() and (it == it_r).all(), workers
    finally:
        sys.setswitchinterval(interval)


def test_worker_exception_reaches_caller(netto61, monkeypatch):
    # the other threads fail while the calling thread decodes its frames
    caller = threading.current_thread()
    decode_rounds = BpGraph._decode_rounds

    def failing(self, *args):
        if threading.current_thread() is not caller:
            raise RuntimeError("sub-pool failed")
        return decode_rounds(self, *args)

    monkeypatch.setattr(codec, "_WORKERS", 3)
    monkeypatch.setattr(codec, "_THREAD_MESSAGES", 1)  # a thread per sub-pool
    monkeypatch.setattr(BpGraph, "_decode_rounds", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="sub-pool failed"):
        BpGraph(netto61).decode_batch(netto61_frames(netto61, 6, 3.0))
    assert threading.active_count() == before


@pytest.mark.parametrize("capacity", [1, 16])
@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_pool_resumes_frames_across_calls(netto61, monkeypatch, workers, capacity):
    # frames admitted over many calls, some while others are mid-decode,
    # each decode as it does alone
    cfg = DecoderConfig(max_iterations=20)
    graph = BpGraph(netto61)
    llrs = np.concatenate([netto61_frames(netto61, 20, 3.0), netto61_frames(netto61, 20, 4.5)])
    llrs[[0, 3, 17, 30]] = 5.0  # the zero codeword: solved by the hard decision
    alone = [graph.decode_batch(llr[None, :], cfg) for llr in llrs]
    iters = [int(it[0]) for _, _, it in alone]
    assert 0 in iters and cfg.max_iterations in iters and len(set(iters)) > 3
    monkeypatch.setattr(codec, "_WORKERS", workers)
    monkeypatch.setattr(codec, "_THREAD_MESSAGES", 1)  # a thread per sub-pool
    pool = codec.DecodePool(graph, capacity)
    sizes = itertools.cycle([3, 0, 7, 1, 0, 11, 2])
    got = {}
    mixed = resumed = 0
    while len(got) < len(llrs):
        take = min(next(sizes), capacity - pool.live, len(llrs) - pool.admitted)
        mixed += bool(take and pool.live)
        bits, conv, it, ids = graph.decode_batch(llrs[pool.admitted : pool.admitted + take], cfg, pool)
        resumed += pool.live > 0
        assert ids.tolist() == sorted(set(ids.tolist()) - set(got))
        got.update((int(i), (b, c, n)) for i, b, c, n in zip(ids, bits, conv, it))
    assert pool.live == 0 and pool.admitted == len(llrs)
    # one frame fills a pool of capacity 1, so it only stops once empty
    assert (resumed and mixed) if capacity > 1 else not (resumed or mixed)
    for i, (b, c, n) in got.items():
        want_bits, want_conv, want_iters = alone[i]
        assert np.array_equal(b, want_bits[0]) and c == want_conv[0] and n == want_iters[0], i


def test_pool_rejects_what_it_cannot_hold(netto61, fano):
    graph = BpGraph(netto61)
    pool = codec.DecodePool(graph, 4)
    noisy = netto61_frames(netto61, 3, -5.0)  # frames that never converge
    # the solved first row lets the pool stop after one round
    bits, *_ = graph.decode_batch(np.vstack([np.full(netto61.cols, 5.0), noisy[:2]]),
                                  DecoderConfig(max_iterations=50), pool)
    assert len(bits) == 1 and pool.live == 2
    with pytest.raises(ValueError, match="room for 2"):
        graph.decode_batch(noisy, None, pool)
    with pytest.raises(ValueError, match="max_iterations 50, not 9"):
        graph.decode_batch(noisy[:0], DecoderConfig(max_iterations=9), pool)
    with pytest.raises(ValueError, match="another graph"):
        BpGraph(netto61).decode_batch(noisy[:1], None, pool)
    assert pool.live == 2 and pool.admitted == 3
    with pytest.raises(ValueError, match="at least 1"):
        codec.DecodePool(BpGraph(fano), 0)


def admit(pool, frames):
    """Admits frames of random channel values to the pool; returns their
    admission numbers."""
    graph = pool.graph
    ids = np.arange(pool.admitted, pool.admitted + frames)
    llrs = np.random.default_rng(frames).normal(size=(frames, graph.n))
    pool._admit(llrs, np.arange(frames), ids, 50)
    pool.admitted += frames
    return ids


def held(pool):
    """The frames each sub-pool holds, and every admission number held."""
    return ([sub.live for sub in pool.subs],
            sorted(i for sub in pool.subs for i in sub.ids[: sub.live].tolist()))


@pytest.mark.parametrize("workers", [3, 8])
def test_pool_places_frames_fullest_first(fano, monkeypatch, workers):
    graph = BpGraph(fano)
    monkeypatch.setattr(codec, "_WORKERS", workers)
    monkeypatch.setattr(codec, "_THREAD_MESSAGES", 10 * graph.e)  # a thread per 10 frames
    capacity = 12 * workers
    # a load that pays for one thread stays in one sub-pool, which the
    # frames after it join while it is the fullest
    pool = codec.DecodePool(graph, capacity)
    ids = admit(pool, 5).tolist()
    ids += admit(pool, 4).tolist()
    assert held(pool) == ([9] + [0] * (workers - 1), ids)
    pool.clear()
    admit(pool, 3)
    pool.subs[1].live = 7  # the fullest now; its frames are dropped below
    admit(pool, 2)
    assert [sub.live for sub in pool.subs[:2]] == [3, 9]
    # on an empty pool, a load that pays for t threads and that t divides,
    # or one short of that, fills exactly t sub-pools, one frame apart
    for t in range(1, workers + 1):
        for load, share in [(10 * t, 10), (11 * t - 1, 11 if t > 1 else 10)]:
            pool.clear()
            ids = admit(pool, load).tolist()
            assert pool._threads(load) == t
            loads, got = held(pool)
            assert got == ids and loads[t:] == [0] * (workers - t)
            assert max(loads) == share
            assert max(loads) - min(loads[:t]) <= 1
    # _run starts as many threads as the frames held pay for, up to one
    # per sub-pool that holds frames; a thread with several runs them in
    # turn. A one-thread load too large for one sub-pool spills into the
    # next ones and still runs on the calling thread alone.
    seen = []
    decode_rounds = BpGraph._decode_rounds

    def spy(self, subs, *args):
        seen.append(([sub.live for sub in subs], threading.current_thread()))
        return decode_rounds(self, subs, *args)

    monkeypatch.setattr(BpGraph, "_decode_rounds", spy)
    for capacity, frames, groups in [(capacity, 34, [[10], [12], [12]]),
                                     (2 * workers, 6, [[2, 2, 2]])]:
        pool = codec.DecodePool(graph, capacity)
        seen.clear()
        llrs = np.full((frames, graph.n), -1.0)  # every check fails at first
        bits, *_ = graph.decode_batch(llrs, DecoderConfig(max_iterations=3), pool)
        assert len(bits) == frames and pool.live == 0
        assert sorted(loads for loads, _ in seen) == groups
        assert len({t for _, t in seen}) == len(groups)
        assert threading.current_thread() in {t for _, t in seen}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pool_places_every_frame(fano, data):
    # for any sub-pools, held loads and thread count, every frame the pool
    # has room for finds a place, and no sub-pool is filled above the share
    workers = data.draw(st.integers(1, 9))
    capacity = data.draw(st.integers(1, 60))
    graph = BpGraph(fano)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codec, "_WORKERS", workers)
        pool = codec.DecodePool(graph, capacity)
    for sub in pool.subs:
        sub.live = data.draw(st.integers(0, sub.capacity))
        sub.ids[: sub.live] = np.arange(pool.admitted, pool.admitted + sub.live)
        pool.admitted += sub.live
    pool._max_iterations = 50  # what admit() decodes with
    threads = data.draw(st.integers(1, len(pool.subs)))
    pool._threads = lambda frames: threads
    before, ids = held(pool)
    new = data.draw(st.integers(0, capacity - pool.live))
    share = -(-(pool.live + new) // threads)
    ids += admit(pool, new).tolist()
    after, got = held(pool)
    assert got == ids
    for sub, old, now in zip(pool.subs, before, after):
        assert now <= sub.capacity and (now == old or now <= share)
    # frames go to a sub-pool only once every fuller one is full to the
    # share or to its capacity
    order = sorted(range(len(pool.subs)), key=lambda i: -before[i])
    for k, i in enumerate(order):
        if after[i] > before[i]:
            assert all(after[j] >= min(share, pool.subs[j].capacity) for j in order[:k])


def pool_calls(graph, llrs, cfg, capacity):
    """Every decode_batch result of a pool fed llrs over many calls, some
    admitting frames while others are mid-decode, on one thread."""
    pool = codec.DecodePool(graph, capacity)
    sizes = itertools.cycle([3, 0, 7, 1, 0, 11, 2])
    calls = []
    while pool.admitted < len(llrs) or pool.live:
        take = min(next(sizes), capacity - pool.live, len(llrs) - pool.admitted)
        calls.append(graph.decode_batch(llrs[pool.admitted : pool.admitted + take], cfg, pool))
    return calls


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 97])
@pytest.mark.parametrize("code", ["netto61", "irregular"])
def test_pool_chunks_move_no_bit(netto61, monkeypatch, chunk, code):
    # the relayouts of add and keep, the variable side's gathers and the
    # check side's chunks give the same frames at any chunk size
    cfg = DecoderConfig(max_iterations=20)
    if code == "netto61":
        h = netto61
        llrs = np.concatenate([netto61_frames(h, 20, 3.0), netto61_frames(h, 20, 4.5)])
    else:
        h = random_irregular_matrix(2)
        llrs = 2.0 * (1.0 + np.random.default_rng(2).normal(0.0, 0.8, size=(40, h.cols))) / 0.64
        assert len(set(np.diff(h.col_ptr).tolist())) > 3
    graph = BpGraph(h)
    monkeypatch.setattr(codec, "_WORKERS", 2)
    monkeypatch.setattr(codec, "_THREAD_MESSAGES", 10**9)  # one thread runs both
    want = pool_calls(graph, llrs, cfg, 16)
    # frames leave while others stay and new ones join
    assert sum(len(ids) > 0 for *_, ids in want) > 3 and len(want) > 8
    monkeypatch.setattr(codec, "_CHUNK", chunk)
    got = pool_calls(graph, llrs, cfg, 16)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("capacity", [1, 5, 300])
def test_sub_pool_bytes(netto61, capacity):
    # one message buffer and its sign flags, the channel and posterior
    # LLRs, the admission number and the iteration count, plus a scratch
    # buffer of at most one chunk
    graph = BpGraph(netto61)
    sub = codec._SubPool(graph.e, graph.n, capacity)
    held = [a for a in vars(sub).values() if isinstance(a, np.ndarray) and a is not sub.scratch]
    assert sum(a.nbytes for a in held) == (9 * graph.e + 16 * graph.n + 16) * capacity
    assert sub.scratch.nbytes <= 8 * codec._CHUNK


def test_netto61_campaign_point_peak_memory(netto61):
    tracemalloc.start()
    try:
        rec, = ber_campaign(netto61, [3.0], seed=61, min_frame_errors=256, max_frames=256,
                            batch_size=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.frames == 256
    # the pool holds 6.7 MB for 256 frames. The point peaked at 16.8 MB
    # with two message buffers per sub-pool and decode_batch copying the
    # clipped block and its var_order gather whole. Now a sub-pool has
    # one buffer, relays it in place a chunk at a time, and gathers and
    # clamps the admitted rows straight into its channel array: 11.4 MB
    # on one decoder thread and 12.0-12.8 MB on two, whose temporaries
    # may be alive at once
    assert peak < 14e6


def test_import_starts_no_thread():
    src = os.path.dirname(os.path.dirname(bibdcodes.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", "import threading, bibdcodes.codec; print(threading.active_count())"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "1"


def test_ml_examples(fano, monkeypatch):
    enc = EncoderState.from_parity_check(fano)
    rng = np.random.default_rng(4)
    c = enc.encode(rng.integers(0, 2, enc.k, dtype=np.uint8))
    llr = 2.0 * (1.0 - 2.0 * c.astype(float))
    assert (ml_decode_exhaustive(fano, llr) == c).all()
    big = SparseBinaryMatrix(1, 22, [(0,)] * 22)  # K = 21 > limit
    # K is checked before a basis is built
    monkeypatch.setattr(gf2, "rref", lambda rows: pytest.fail("basis built"))
    with pytest.raises(TooLarge, match="dimension 21 exceeds ML enumeration limit 20"):
        ml_decode_exhaustive(big, np.ones(22))


def test_ml_tie_rule(fano):
    # all-zero LLRs: every codeword costs 0, and the zero word comes first
    assert not ml_decode_exhaustive(fano, np.zeros(7)).any()
    # the repetition code {00, 11}: 11 costs 1 - 1 = 0 and loses to 00
    pair = SparseBinaryMatrix(1, 2, [(0,), (0,)])
    assert not ml_decode_exhaustive(pair, [1.0, -1.0]).any()
    # the even-weight words of length 3 have one basis word per free
    # column, {0, 2} then {1, 2}, so Gray order visits {0, 2}, {0, 1},
    # {1, 2}; the first and the last both cost -2, and the first wins
    even = SparseBinaryMatrix(1, 3, [(0,)] * 3)
    assert ml_decode_exhaustive(even, [1.0, 1.0, -3.0]).tolist() == [1, 0, 1]


def test_campaign_determinism(fano):
    recs1 = ber_campaign(fano, [2.0, 4.0], seed=5, min_frame_errors=10, max_frames=500)
    recs2 = ber_campaign(fano, [2.0, 4.0], seed=5, min_frame_errors=10, max_frames=500)
    assert records_to_csv(recs1) == records_to_csv(recs2)
    recs3 = ber_campaign(fano, [2.0, 4.0], seed=5, min_frame_errors=10, max_frames=500,
                         batch_size=7)
    assert records_to_csv(recs3) == records_to_csv(recs1)


def test_campaign_zero_frames(fano):
    # no points give no records; a stop rule that asks for no frames is refused
    assert ber_campaign(fano, [], seed=1) == []
    for errors, frames in [(10, 0), (0, 10), (-5, 10), (10, -1)]:
        with pytest.raises(ValueError, match="must be at least 1"):
            ber_campaign(fano, [3.0], seed=1, min_frame_errors=errors, max_frames=frames)


def test_campaign_counts_are_consistent(fano):
    (rec,) = ber_campaign(fano, [1.0], seed=9, min_frame_errors=5, max_frames=200)
    assert rec.bit_errors <= rec.bits_total
    assert rec.frame_errors <= rec.frames
    assert rec.undetected_errors <= rec.frame_errors
    assert rec.bits_total == rec.frames * 3


def test_frame_rng_contract():
    a = frame_rng(3, 17).integers(0, 2, 32)
    b = frame_rng(3, 17).integers(0, 2, 32)
    c = frame_rng(3, 18).integers(0, 2, 32)
    assert (a == b).all()
    assert (a != c).any()


@pytest.mark.parametrize("k", list(range(1, 18)) + [63, 64, 65, 549, 6368])
def test_message_bits_equal_integers(k):
    # the raw-word draw gives the bits Generator.integers gives, and leaves
    # each generator where the channel noise expects it
    keys = list(itertools.product([0, 61, 2**32 + 1], [0, 1, 12345]))
    rngs = [frame_rng(seed, f) for seed, f in keys]
    bits = codec._message_bits(rngs, k)
    assert bits.shape == (len(keys), k) and bits.dtype == np.uint8
    for (seed, f), row, rng in zip(keys, bits, rngs):
        want = frame_rng(seed, f)
        assert row.tolist() == want.integers(0, 2, size=k, dtype=np.uint8).tolist()
        assert rng.standard_normal(40).tolist() == want.standard_normal(40).tolist()


def test_csv_format(fano):
    recs = ber_campaign(fano, [2.0], seed=5, min_frame_errors=3, max_frames=50)
    csv = records_to_csv(recs)
    lines = csv.splitlines()
    assert lines[0] == "ebno_db,frames,bit_errors,frame_errors,bits_total,ber,fer,seed"
    fields = lines[1].split(",")
    assert float(fields[0]) == 2.0 and int(fields[7]) == 5
    # shortest round-trip decimals survive parsing
    assert float(fields[5]) == recs[0].ber


def test_decoder_saturated_llrs_stay_finite(fano):
    enc = EncoderState.from_parity_check(fano)
    c = enc.encode(np.array([1, 0, 1], dtype=np.uint8))
    llr = 1e6 * (1.0 - 2.0 * c.astype(float))
    llr[0] = -llr[0]
    bits, converged, _ = BpGraph(fano).decode_batch(llr)
    assert np.isfinite(llr).all()
    assert converged[0] and (bits[0] == c).all()


def reference_check_update(starts, q, clamp):
    """The check update as it was before the sign parity: +-1.0 sign
    factors multiplied by reduceat, gathers by fancy indexing. The
    (frames, edges) messages q hold each check's edges from its entry
    of starts on."""
    # each edge's index among the nonempty checks
    seg = np.searchsorted(starts, np.arange(q.shape[1]), side="right") - 1
    qc = np.clip(q, -clamp, clamp)
    sgn = np.where(qc < 0, -1.0, 1.0)
    mag = np.clip(np.abs(np.tanh(qc / 2.0)), 1e-300, 1.0 - 1e-15)
    logm = np.log(mag)
    tot = np.add.reduceat(logm, starts, axis=1)
    excl = np.minimum(np.exp(tot[:, seg] - logm), 1.0 - 1e-15)
    excl_mag = 2.0 * np.arctanh(excl)
    sprod = np.multiply.reduceat(sgn, starts, axis=1)
    return sprod[:, seg] * sgn * excl_mag


def awkward_messages(graph, rows, clamp, seed):
    """Edge messages mixing normal values with 0.0, -0.0, +-clamp,
    values beyond the clamp and tiny or subnormal magnitudes. Row 0
    holds tiny magnitudes only, one negative per check, so its outputs
    are 0.0 on that edge and -0.0 on the others; row 1 is all
    non-positive, so a check of degree 300 counts over 255 negatives."""
    rng = np.random.default_rng(seed)
    edges = graph.e
    q = rng.normal(0.0, 8.0, size=(rows, edges))
    special = np.array([0.0, -0.0, clamp, -clamp, 2 * clamp, -2 * clamp,
                        1e-300, -1e-300, 5e-324, -5e-324, 1e-17, -1e-17])
    pick = rng.random((rows, edges)) < 0.3
    q[pick] = rng.choice(special, size=int(pick.sum()))
    q[0] = rng.choice([1e-300, 0.0, -0.0], size=edges)
    q[0, graph.check_starts] = -1e-300
    q[1] = -np.abs(q[1])
    return q


def layouts(q):
    """q in C order, in Fortran order and as a strided view."""
    big = np.zeros((2 * q.shape[0], 3 * q.shape[1]))
    view = big[::2, ::3]
    view[...] = q
    return {"C": q.copy(), "F": np.asfortranarray(q), "strided": view}


def test_check_update_matches_sign_product(netto61, ra19):
    zero_row = SparseBinaryMatrix(3, 4, [(0, 2), (0,), (2,), (0, 2)])
    wide = SparseBinaryMatrix(2, 300, [(0,)] * 299 + [(0, 1)])
    for h in (netto61, ra19.h, zero_row, wide):
        graph = BpGraph(h)
        for clamp in (30.0, 2.5):
            q = awkward_messages(graph, 9, clamp, seed=graph.e)
            want = reference_check_update(graph.check_starts, q, clamp)
            zeros = np.signbit(want[want == 0.0])
            assert zeros.any() and not zeros.all()
            # the decoder's messages are edge-major: (edges, frames), C-ordered
            edge_major = np.ascontiguousarray(q.T)
            got = graph._check_update(edge_major, clamp, np.empty(edge_major.shape, np.uint8)).T
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_segment_sums_equal_reduceat_bit_for_bit():
    # The decoder sums each degree run as a (segments, degree, frames) view.
    # np.add.reduceat adds a segment's first term to the pairwise sum of the
    # rest (numpy's pairwise_sum: fewer than 8 terms in sequence, up to 128
    # in 8 accumulators, more split near the middle), and the fold repeats
    # that order. It was checked on numpy 2.4.6, the lowest version
    # pyproject.toml allows; if numpy ever changes its summation order, or
    # starts a sequence from +0.0 rather than -0.0, this test fails.
    rng = np.random.default_rng(300)
    special = np.array([0.0, -0.0, 30.0, -30.0, 2.5, -2.5, 5e-324, -5e-324,
                        2.2e-308, -1e-310, 1e-300, -1e-300, 1e8, -1e8])
    segments, frames = 3, 4
    differs = []
    for d in range(1, 301):
        x = rng.choice([-1.0, 1.0], size=(segments, d, frames))
        x *= 10.0 ** rng.uniform(-300, 8, size=x.shape)
        pick = rng.random(x.shape) < 0.3
        x[pick] = rng.choice(special, size=int(pick.sum()))
        x[0] = rng.choice([0.0, -0.0], size=(d, frames))
        x[1, :, 0] = -0.0
        # reduceat over the same values laid out (frames, edges)
        flat = np.ascontiguousarray(x.transpose(2, 0, 1).reshape(frames, segments * d))
        want = np.add.reduceat(flat, np.arange(0, segments * d, d), axis=1)
        got = codec._segment_sums(x)
        assert np.array_equal(got.T.view(np.uint64), want.view(np.uint64)), d
        out = np.empty((segments, frames))
        assert codec._segment_sums(x, out=out) is out
        assert np.array_equal(out.T.view(np.uint64), want.view(np.uint64)), d
        differs.append(not np.array_equal(np.add.reduce(x, axis=1).T, want))
    # a plain fold down axis 1 adds in sequence, which reduceat does not
    assert any(differs)


def random_irregular_matrix(seed, rows=40, cols=90):
    """Column weights 0..6 and uneven row weights in no order, so the
    degree changes many times along the rows and along the columns; row
    7 and column 11 are empty."""
    rng = np.random.default_rng(seed)
    usable = np.delete(np.arange(rows), 7)
    col_rows = []
    for j in range(cols):
        w = 0 if j == 11 else int(rng.integers(1, 7))
        col_rows.append(tuple(rng.choice(usable, size=w, replace=False).tolist()))
    return SparseBinaryMatrix(rows, cols, col_rows)


def reference_decode(h, llr, cfg, trace=None):
    """One frame of flooding sum-product by np.add.reduceat and fancy
    indexing over the row-major edge list, with the check update kept
    above: the decoder as it was before messages were edge-major. The
    check update's input of each iteration is appended to trace."""
    var_of = h.col_idx
    check_starts = h.row_ptr[:-1][np.diff(h.row_ptr) > 0]
    perm = np.argsort(var_of, kind="stable")
    present = np.diff(h.col_ptr) > 0
    var_starts = h.col_ptr[:-1][present]

    def satisfied(bits):
        return not np.bitwise_xor.reduceat(bits[var_of], check_starts).any()

    channel = np.clip(llr, -codec.LLR_CLAMP, codec.LLR_CLAMP)
    bits = (channel < 0).astype(np.uint8)
    if satisfied(bits):
        return bits, True, 0
    q = channel[var_of]
    for iteration in range(1, cfg.max_iterations + 1):
        if trace is not None:
            trace.append(q.copy())
        r = reference_check_update(check_starts, q[None, :], codec.LLR_CLAMP)[0]
        posterior = channel.copy()
        posterior[present] += np.add.reduceat(r[perm], var_starts)
        q = posterior[var_of] - r
        bits = (posterior < 0).astype(np.uint8)
        if satisfied(bits):
            return bits, True, iteration
    return bits, False, cfg.max_iterations


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_irregular_decode_matches_frame_by_frame_reference(seed, monkeypatch):
    h = random_irregular_matrix(seed)
    graph = BpGraph(h)
    row_deg = np.diff(h.row_ptr)
    col_deg = np.diff(h.col_ptr)
    assert np.count_nonzero(np.diff(row_deg)) >= 10 and np.count_nonzero(np.diff(col_deg)) >= 10
    assert row_deg[7] == 0 and col_deg[11] == 0
    # sorted by degree, the checks and the variables form one run per degree
    assert [d for *_, d in graph._check_runs] == sorted(set(row_deg[row_deg > 0].tolist()))
    assert [d for *_, d in graph._var_runs] == sorted(set(col_deg[col_deg > 0].tolist()))
    cfg = DecoderConfig(max_iterations=30)
    rng = np.random.default_rng(seed)
    # the all-zero codeword through noise that leaves every kind of outcome
    llrs = 2.0 * (1.0 + rng.normal(0.0, 0.8, size=(48, h.cols))) / 0.64
    want = [reference_decode(h, llr, cfg) for llr in llrs]
    conv = np.array([c for _, c, _ in want])
    iters = np.array([i for _, _, i in want])
    assert conv.any() and not conv.all() and len(set(iters[conv].tolist())) > 2
    for workers in (1, 2, 3):
        monkeypatch.setattr(codec, "_WORKERS", workers)
        bits_b, conv_b, it_b = graph.decode_batch(llrs, cfg)
        assert np.array_equal(bits_b, np.stack([b for b, _, _ in want])), workers
        assert np.array_equal(conv_b, conv) and np.array_equal(it_b, iters), workers
    # every message of every iteration equals the reference's bit for bit
    check_update = graph._check_update
    seen = []

    def spy(q, clamp, flip):
        seen.append(q[:, 0].copy())
        return check_update(q, clamp, flip)

    monkeypatch.setattr(graph, "_check_update", spy)
    for llr in llrs[:8]:
        trace = []
        reference_decode(h, llr, cfg, trace)
        seen.clear()
        graph.decode_batch(llr[None, :], cfg)
        assert len(seen) == len(trace) > 1
        for got, ref in zip(seen, trace):
            assert np.array_equal(got.view(np.uint64), ref[graph.edge_index].view(np.uint64))


def test_decode_batch_ignores_llr_layout(netto61):
    graph = BpGraph(netto61)
    llrs = netto61_frames(netto61, 64, 3.0)
    bits, conv, it = graph.decode_batch(llrs)
    assert conv.any() and not conv.all()
    for name, given in layouts(llrs).items():
        b, c, i = graph.decode_batch(given)
        assert np.array_equal(b, bits) and np.array_equal(c, conv), name
        assert np.array_equal(i, it), name


def test_irregular_codewords_need_no_iteration():
    # the hard decision is checked in the decoder's own variable order
    h = random_irregular_matrix(4)
    enc = EncoderState(h)
    cws = enc.encode(np.random.default_rng(4).integers(0, 2, size=(8, enc.k), dtype=np.uint8))
    assert cws.any(axis=1).all()
    bits, conv, it = BpGraph(h).decode_batch(4.0 * (1.0 - 2.0 * cws))
    assert np.array_equal(bits, cws) and conv.all() and not it.any()


def test_decode_batch_of_no_frames(netto61):
    for h in (netto61, random_irregular_matrix(1)):
        bits, conv, it = BpGraph(h).decode_batch(np.empty((0, h.cols)))
        assert bits.shape == (0, h.cols) and bits.dtype == np.uint8
        assert conv.shape == (0,) and it.shape == (0,)


def campaign_reference(h, ebno_db, seed, min_frame_errors, max_frames):
    """One frame at a time: the stop rule and every tally, kept in the
    test. Returns (frames, bit errors, frame errors, undetected errors)
    and the frame errors counted before each frame."""
    enc = EncoderState(h)
    cfg = ChannelConfig(ebno_db=ebno_db, rate=enc.k / enc.n)
    graph = BpGraph(h)
    frames = bit_errors = frame_errors = undetected = 0
    errors_before = []
    while frame_errors < min_frame_errors and frames < max_frames:
        errors_before.append(frame_errors)
        rng = frame_rng(seed, frames)
        msg = rng.integers(0, 2, size=enc.k, dtype=np.uint8)
        bits, converged, _ = graph.decode_batch(transmit(enc.encode(msg)[None], cfg, [rng])[0])
        errors = int((bits[0, enc.message_positions] != msg).sum())
        frames += 1
        bit_errors += errors
        if errors:
            frame_errors += 1
            undetected += bool(converged[0])
    return (frames, bit_errors, frame_errors, undetected), errors_before


# the fewest frames a batch held after a point's first, when campaigns
# decoded each batch to its end before the next
PLAN_MIN_BATCH = 8 * codec._WORKERS


def planned_batches(errors_before, min_frame_errors, max_frames, batch_size):
    """Batch sizes by the rule campaigns followed when each batch was
    decoded to its end before the next: the first batch needs no more
    frames than frame errors; later ones aim at the errors still needed
    at the frame error rate so far, at least PLAN_MIN_BATCH frames, and
    never above batch_size or the frames left."""
    sizes, frames = [], 0
    while frames < len(errors_before):
        needed = min_frame_errors - errors_before[frames]
        if frames:
            needed = max(PLAN_MIN_BATCH,
                         math.ceil(needed * frames / max(errors_before[frames], 1)))
        sizes.append(min(needed, batch_size, max_frames - frames))
        frames += sizes[-1]
    return sizes


def counted_batches(monkeypatch):
    """Patches BpGraph.decode_batch to record the rows each call admits."""
    sizes = []
    decode_batch = BpGraph.decode_batch

    def counting(self, llrs, cfg=None, pool=None):
        sizes.append(len(llrs))
        return decode_batch(self, llrs, cfg, pool)

    monkeypatch.setattr(BpGraph, "decode_batch", counting)
    return sizes


@pytest.mark.parametrize("batch_size", [1, 7, 64, 256])
@pytest.mark.parametrize("ebno_db,min_errors,max_frames", [
    (-2.0, 40, 500),  # stops on errors, some of them undetected
    (2.0, 25, 400),
    (4.0, 30, 150),  # stops on max_frames
])
def test_campaign_tallies_match_frame_by_frame(fano, monkeypatch, batch_size, ebno_db,
                                               min_errors, max_frames):
    want, errors_before = campaign_reference(fano, ebno_db, 17, min_errors, max_frames)
    sizes = counted_batches(monkeypatch)
    (rec,) = ber_campaign(fano, [ebno_db], seed=17, min_frame_errors=min_errors,
                          max_frames=max_frames, batch_size=batch_size)
    assert (rec.frames, rec.bit_errors, rec.frame_errors, rec.undetected_errors) == want
    if ebno_db < 0:
        assert rec.undetected_errors > 0
    # the pool admits while earlier frames still decode, so the calls no
    # longer follow the plan; the first admission still needs no more
    # frames than errors, and the frames past the stop rule stay few
    planned = planned_batches(errors_before, min_errors, max_frames, batch_size)
    assert 0 < sizes[0] <= min_errors
    assert sum(sizes) - rec.frames <= sum(planned) - rec.frames + PLAN_MIN_BATCH


@pytest.mark.parametrize("batch_size", [1, 20, 256])
def test_campaign_decodes_no_frame_past_stop_rule(netto61, monkeypatch, batch_size):
    # at -5 dB every Netto-61 frame fails, so the first batch needs no more
    # frames than frame errors and ends the point
    sizes = counted_batches(monkeypatch)
    (rec,) = ber_campaign(netto61, [-5.0], seed=3, min_frame_errors=20, max_frames=1000,
                          batch_size=batch_size)
    assert rec.frames == rec.frame_errors == 20
    assert sum(sizes) == rec.frames
