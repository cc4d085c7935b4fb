import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import bibdcodes
from bibdcodes import codec, gf2
from bibdcodes.codec import (
    BpGraph,
    ChannelConfig,
    DecoderConfig,
    EncoderState,
    ber_campaign,
    frame_rng,
    ml_decode_exhaustive,
    records_to_csv,
    sum_product_decode,
    transmit,
)
from bibdcodes.designs import expand_cdf_to_design, find_base_block_with_difference, netto_cdf
from bibdcodes.errors import DimensionMismatch, NonFiniteLlr, NotBinary, TooLarge
from bibdcodes.matrices import SparseBinaryMatrix, incidence_matrix
from bibdcodes.ra import (
    RaParityCheck,
    accumulate,
    sra_from_cdf,
    sra_from_crcbibd,
    sra_from_kts,
    w3ra_from_kts,
    wqra_from_cdf,
    wqra_from_crcbibd,
)


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
    llrs = transmit(np.zeros(7), ChannelConfig(3080.0, 3 / 7), np.random.default_rng(0))
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
        assert enc.message_positions == list(range(ra.k)), name
        msgs = rng.integers(0, 2, (200, ra.k), dtype=np.uint8)
        cws = enc.encode(msgs)
        assert not (cws.astype(np.int64) @ ra.h.to_dense().T.astype(np.int64) % 2).any(), name
        assert (cws[:, : ra.k] == msgs).all(), name
        for m, c in zip(msgs[:20], cws):
            assert (enc.encode(m) == c).all(), name
            if ra.spec is not None:
                h1m = ra.h1.to_dense().astype(np.int64) @ m % 2
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


def test_transmit_deterministic_and_noiseless_limit():
    cfg = ChannelConfig(ebno_db=2.0, rate=0.5, seed=99)
    c = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    llr1 = transmit(c, cfg)
    llr2 = transmit(c, cfg)
    assert (llr1 == llr2).all()
    # sigma -> 0: signs recover the bits exactly
    quiet = ChannelConfig(ebno_db=40.0, rate=0.5, seed=7)
    llr = transmit(c, quiet)
    assert ((llr < 0).astype(np.uint8) == c).all()


def test_decode_noiseless_is_iteration_zero(ra19):
    enc = EncoderState.from_ra(ra19)
    rng = np.random.default_rng(3)
    c = enc.encode(rng.integers(0, 2, enc.k, dtype=np.uint8))
    llr = 4.0 * (1.0 - 2.0 * c.astype(float))
    res = sum_product_decode(ra19.h, llr)
    assert res.converged and res.iterations == 0
    assert (res.bits == c).all()


def test_decode_all_zero_llr_tie_rule(fano):
    res = sum_product_decode(fano, np.zeros(7))
    assert not res.bits.any()  # ties decode to bit 0


def test_decode_without_checks_is_the_hard_decision():
    # an all-zero parity check: no edges, every word is a codeword
    graph = BpGraph(SparseBinaryMatrix(2, 3, [(), (), ()]))
    bits, converged, iterations = graph.decode_batch(np.array([[1.0, -2.0, 0.5]]))
    assert bits.tolist() == [[0, 1, 0]] and converged.all() and iterations.tolist() == [0]


def test_decode_dimension_mismatch(fano):
    for decode in (sum_product_decode, ml_decode_exhaustive):
        for shape in [(8,), (6,), (1, 7), (7, 1), ()]:
            with pytest.raises(DimensionMismatch):
                decode(fano, np.zeros(shape))


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
    agreements = 0
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        c = enc.encode(rng.integers(0, 2, enc.k, dtype=np.uint8))
        llr = 6.0 * (1.0 - 2.0 * c.astype(float))
        flip = rng.integers(0, len(c))
        llr[flip] = -llr[flip]
        bp = sum_product_decode(fano, llr)
        ml = ml_decode_exhaustive(fano, llr)
        assert bp.converged
        if (bp.bits == ml).all() and (ml == c).all():
            agreements += 1
    assert agreements == 1000


def test_converged_implies_zero_syndrome(ra19):
    h = ra19.h
    graph = BpGraph(h)
    rng = np.random.default_rng(11)
    cfg = ChannelConfig(ebno_db=1.0, rate=ra19.k / (ra19.k + ra19.m), seed=0)
    llrs = np.stack([
        transmit(np.zeros(h.cols, dtype=np.uint8), cfg, np.random.default_rng(s))
        for s in range(64)
    ])
    bits, conv, iters = graph.decode_batch(llrs, DecoderConfig())
    for i in range(64):
        if conv[i]:
            assert not h.mul_vector(bits[i]).any()
        else:
            assert iters[i] == 50


def test_batch_equals_single(ra19):
    h = ra19.h
    graph = BpGraph(h)
    cfg = ChannelConfig(ebno_db=2.5, rate=ra19.k / (ra19.k + ra19.m), seed=0)
    llrs = np.stack([
        transmit(np.zeros(h.cols, dtype=np.uint8), cfg, np.random.default_rng(1000 + s))
        for s in range(20)
    ])
    bits_b, conv_b, it_b = graph.decode_batch(llrs, DecoderConfig())
    for i in range(20):
        bits_s, conv_s, it_s = graph.decode_batch(llrs[i : i + 1], DecoderConfig())
        assert (bits_b[i] == bits_s[0]).all()
        assert conv_b[i] == conv_s[0] and it_b[i] == it_s[0]


def netto61_frames(h, frames, ebno_db):
    """Channel LLRs of campaign frames 0..frames-1 at seed 61."""
    enc = EncoderState.from_parity_check(h)
    cfg = ChannelConfig(ebno_db=ebno_db, rate=enc.k / enc.n, seed=61)
    rngs = [frame_rng(61, f) for f in range(frames)]
    msgs = np.stack([rng.integers(0, 2, size=enc.k, dtype=np.uint8) for rng in rngs])
    return np.stack([transmit(cw, cfg, rng) for cw, rng in zip(enc.encode(msgs), rngs)])


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
    caller = threading.current_thread()
    decode_rows = BpGraph._decode_rows

    def failing(self, channel, cfg):
        if threading.current_thread() is not caller:
            raise RuntimeError("chunk failed")
        return decode_rows(self, channel, cfg)

    monkeypatch.setattr(codec, "_WORKERS", 3)
    monkeypatch.setattr(BpGraph, "_decode_rows", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk failed"):
        BpGraph(netto61).decode_batch(netto61_frames(netto61, 6, 3.0))
    assert threading.active_count() == before


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
    assert ber_campaign(fano, [], seed=1) == []
    recs = ber_campaign(fano, [3.0], seed=1, min_frame_errors=10, max_frames=0)
    assert recs[0].frames == 0 and recs[0].ber == 0.0


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
    res = sum_product_decode(fano, llr)
    assert np.isfinite(llr).all()
    assert res.converged and (res.bits == c).all()


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
    cfg = ChannelConfig(ebno_db=ebno_db, rate=enc.k / enc.n, seed=seed)
    frames = bit_errors = frame_errors = undetected = 0
    errors_before = []
    while frame_errors < min_frame_errors and frames < max_frames:
        errors_before.append(frame_errors)
        rng = frame_rng(seed, frames)
        msg = rng.integers(0, 2, size=enc.k, dtype=np.uint8)
        res = sum_product_decode(h, transmit(enc.encode(msg), cfg, rng))
        errors = int((res.bits[enc.message_positions] != msg).sum())
        frames += 1
        bit_errors += errors
        if errors:
            frame_errors += 1
            undetected += res.converged
    return (frames, bit_errors, frame_errors, undetected), errors_before


def planned_batches(errors_before, min_frame_errors, max_frames, batch_size):
    """Batch sizes by the campaign's rule: the first batch needs no more
    frames than frame errors; later ones aim at the errors still needed
    at the frame error rate so far, at least _MIN_BATCH frames, and
    never above batch_size or the frames left."""
    sizes, frames = [], 0
    while frames < len(errors_before):
        needed = min_frame_errors - errors_before[frames]
        if frames:
            needed = max(codec._MIN_BATCH,
                         math.ceil(needed * frames / max(errors_before[frames], 1)))
        sizes.append(min(needed, batch_size, max_frames - frames))
        frames += sizes[-1]
    return sizes


def counted_batches(monkeypatch):
    """Patches BpGraph.decode_batch to record the frames of each call."""
    sizes = []
    decode_batch = BpGraph.decode_batch

    def counting(self, llrs, cfg=None):
        sizes.append(len(llrs))
        return decode_batch(self, llrs, cfg)

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
    assert sizes[0] <= min_errors
    assert sizes == planned_batches(errors_before, min_errors, max_frames, batch_size)


@pytest.mark.parametrize("batch_size", [1, 20, 256])
def test_campaign_decodes_no_frame_past_stop_rule(netto61, monkeypatch, batch_size):
    # at -5 dB every Netto-61 frame fails, so the first batch needs no more
    # frames than frame errors and ends the point
    sizes = counted_batches(monkeypatch)
    (rec,) = ber_campaign(netto61, [-5.0], seed=3, min_frame_errors=20, max_frames=1000,
                          batch_size=batch_size)
    assert rec.frames == rec.frame_errors == 20
    assert sum(sizes) == rec.frames
