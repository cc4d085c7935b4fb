import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import bibdcodes
from bibdcodes import codec
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


def test_decode_dimension_mismatch(fano):
    with pytest.raises(DimensionMismatch):
        sum_product_decode(fano, np.zeros(8))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decode_rejects_non_finite_llrs(fano, bad):
    graph = BpGraph(fano)
    with pytest.raises(NonFiniteLlr):
        graph.decode_batch(np.full((4, 7), bad))
    llrs = np.ones((4, 7))
    llrs[2, 5] = bad  # one bad value in one frame rejects the batch
    with pytest.raises(NonFiniteLlr):
        graph.decode_batch(llrs)


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


@pytest.mark.parametrize("clamp", [np.nan, 0.0, -5.0, np.inf])
def test_decoder_config_rejects_bad_llr_clamp(fano, clamp):
    # each of these used to decode all-(-3) LLRs on the Fano code to the
    # all-zero word and report it converged
    with pytest.raises(ValueError, match="llr_clamp"):
        sum_product_decode(fano, np.full(7, -3.0), DecoderConfig(llr_clamp=clamp))


def test_ml_examples(fano):
    enc = EncoderState.from_parity_check(fano)
    rng = np.random.default_rng(4)
    c = enc.encode(rng.integers(0, 2, enc.k, dtype=np.uint8))
    llr = 2.0 * (1.0 - 2.0 * c.astype(float))
    assert (ml_decode_exhaustive(fano, llr) == c).all()
    big = SparseBinaryMatrix(1, 22, [(0,)] * 22)  # K = 21 > limit
    with pytest.raises(TooLarge):
        ml_decode_exhaustive(big, np.ones(22))


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
