"""Benchmark for bibdcodes: BER-campaign throughput and design/structure time.

Run from the repository root; the program is imported from src/ next to
the bench/ directory, never from an installed copy:

    python3 bench/run.py --workload ber-sweep --seed 61 --seconds 40 --trace 0

Workloads (see WORKLOADS):

  ber-waterfall     Netto-61 LDPC, sRA and w3RA at 3 dB, a fixed frame budget
                    per code; nearly every frame runs the decoder to its
                    iteration cap, so the decoder sets the time.
  ber-sweep         the same three codes at 3/4/5 dB with the stop rule
                    (100 frame errors) ending 3 and 4 dB and the frame cap
                    (8192) ending 5 dB. 5 dB holds over 90% of the frames and
                    about 64% of the time; decoding is about two thirds of
                    the time and the per-frame pipeline (frame_rng, encode,
                    transmit, tally) about a third, encode alone over a quarter.
  design-structure  the Netto and Buratti construction sweeps below 1000
                    (family, orbit expansion, verify_bibd), girth of
                    Netto-199, GF(2) rank of Netto-199 and Netto-997, and
                    compact design-file and alist round trips of Netto-997.
                    It has no random input, so the seed changes nothing.

--trace 0 times whole repetitions of the workload until --seconds is used
up and prints the end-to-end metrics. Times are in reference seconds (see
SpeedClock: each piece of work, at most about LAP_S long, is scaled by how
fast a fixed kernel ran around it, so drift in the machine's speed
cancels; a campaign is cut into pieces between decoder batches); the raw
seconds are in the report line.
  setup_s           median start-to-import time of a fresh interpreter plus
                    the median of five in-process builds of the workload's
                    inputs (families, RA transforms, alist loads, encoders,
                    graphs on ber-*; the prime lists on design-structure)
  wall_s            ber-*: the sum over a repetition's campaigns (one per
                    code and SNR point) of each campaign's median time;
                    design-structure: the median pass
  throughput_per_s  frames tallied (ber-*) or blocks expanded and verified
                    (design-structure) per second of wall_s
  peak_rss_mb       peak resident memory of the benchmark process

--trace 1 alternates untraced and traced repetitions until --seconds is
used up (at least one of each), checks that they give the same CSV bytes,
and prints the per-layer metrics as medians over the traced repetitions.
A traced repetition wraps codec.frame_rng, codec.transmit,
EncoderState.encode and BpGraph.decode_batch; the designs, matrices, ra and
alist calls are timed where the benchmark makes them. Layer times are raw
seconds; trace.overhead_s is the median traced minus the median untraced
repetition, in reference seconds. "Per frame" means
per frame generated and decoded. Layer metrics a workload does not
exercise read 0.

Every checked output (golden CSV hashes at seed 61, structural facts,
round trips, determinism between repetitions) counts toward `attempted`,
and each mismatch or exception toward `failed`. The last stdout line is
the JSON result; the line before it is a JSON report with the environment,
CSV hashes and (traced) iteration histograms.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

# single-threaded numerics; set before numpy is first imported, and
# inherited by the interpreters started to time set-up
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# the repository root: bench/ sits directly under it
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CODES = ("ldpc", "sra", "w3ra")
SNRS = (3.0, 4.0, 5.0)
NETTO_P = 61
SETUP_REPEATS = 5
CAL_REF_S = 0.03  # time of the SpeedClock kernel at the reference speed
LAP_S = 1.0  # least work between two calibrations inside a design pass


@dataclass(frozen=True)
class BerWorkload:
    snr_db: tuple
    min_frame_errors: int
    max_frames: int
    batch_size: int = 256


@dataclass(frozen=True)
class DesignWorkload:
    sweep_below: int
    girth_p: int
    rank_ps: tuple
    file_p: int


WORKLOADS = {
    # min_frame_errors above the budget: every point runs exactly max_frames
    "ber-waterfall": BerWorkload(snr_db=(3.0,), min_frame_errors=257, max_frames=256),
    # the stop rule ends 3 dB (~107 frames) and 4 dB (~410-540 frames);
    # max_frames ends 5 dB, which holds over 90% of the frames and two thirds of
    # the time, so that the per-frame pipeline shows as it does at 5 dB in
    # the full 80,000-frame campaign
    "ber-sweep": BerWorkload(snr_db=SNRS, min_frame_errors=100, max_frames=8192),
    # girth of Netto-997 (~5 min) is left out on purpose
    "design-structure": DesignWorkload(sweep_below=1000, girth_p=199, rank_ps=(199, 997), file_p=997),
}

# SHA-256 of records_to_csv for campaign seed 61 and the WORKLOADS above
GOLDEN_SEED = 61
GOLDEN_CSV = {
    "ber-waterfall": {
        "ldpc": "fcfffca994ab1bace5f3da6bc9aaf654215a0143be710bd185238d2f52f2b424",
        "sra": "0c95d854c6e63f351cbc3760ae5e1e581184af95af4f471e8e4cfba772f750ab",
        "w3ra": "46e2db34c3bb9dcc3d68b1f265ea644b40718461af485d6a943891498423e3bf",
    },
    "ber-sweep": {
        "ldpc": "377ed71f97cad53bf228c4cefbcb87f5bebaafc6f5d877c30565daeedcb517d2",
        "sra": "1215f8b732e2bf1d70909971ec5c40f9f72bdd1ccf3081beaf411203b75541b8",
        "w3ra": "f8a85b3c8a15fd2f53d8394e14e40cae86e50a6996177a5154a7d37f1fed710f",
    },
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _snr_label(snr: float) -> str:
    return f"snr{int(snr)}"


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for code in CODES:
        for snr in SNRS:
            tag = f"{code}.{_snr_label(snr)}"
            units[f"codec.decode_ms_per_frame.{tag}"] = "ms"
            units[f"codec.iterations_mean.{tag}"] = "count"
            units[f"codec.cap_share.{tag}"] = "share"
            units[f"codec.decoded_frames.{tag}"] = "count"
            units[f"codec.tally_yield.{tag}"] = "share"
            units[f"codec.undetected_errors.{tag}"] = "count"
    for code in CODES:
        for layer in ("encode", "transmit", "frame_rng", "campaign_self"):
            units[f"codec.{layer}_ms_per_frame.{code}"] = "ms"
    for code in ("sra", "w3ra"):
        units[f"ra.transform_ms.{code}"] = "ms"
    for code in CODES:
        units[f"alist.roundtrip_ms.{code}"] = "ms"
        units[f"codec.encoder_init_ms.{code}"] = "ms"
        units[f"codec.graph_init_ms.{code}"] = "ms"
    for name in ("designs.family_s", "designs.expand_s", "designs.verify_bibd_s"):
        units[name] = "s"
    units["designs.blocks"] = "count"
    for name in ("designs.format_s", "designs.parse_s", "matrices.incidence_s",
                 "matrices.girth_s", "matrices.rank_s", "alist.roundtrip_s"):
        units[name] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Checks:
    """Counts checked operations and the ones that failed or raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)

    def raised(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"CHECK RAISED: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


class Spans:
    """Summed durations (and counts) keyed by metric name."""

    def __init__(self):
        self.total = defaultdict(float)

    def call(self, key, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.total[key] += time.perf_counter() - t0
        return out


def _call(spans, key, fn, *args):
    """fn(*args), timed under key when spans is not None."""
    return fn(*args) if spans is None else spans.call(key, fn, *args)


def import_program() -> None:
    """Import the package from src/ under ROOT, nothing else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "bibdcodes", "__init__.py")):
        raise SystemExit(f"bench: no src/bibdcodes under {ROOT}")
    sys.path.insert(0, src)
    import bibdcodes

    if not os.path.abspath(bibdcodes.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: bibdcodes imported from {bibdcodes.__file__}, not {src}")


class SpeedClock:
    """Times work in reference seconds.

    The speed of a shared machine drifts: on a 2-vCPU VM a fixed Python
    loop took anywhere from 1x to 2x its fastest time, for minutes at a
    time, and numpy work slowed with it. So after each piece of measured
    work the clock times a fixed kernel of the same kinds of work, and
    scales the piece's time by CAL_REF_S over the mean of the kernel times
    before and after it. Raw seconds are kept alongside.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.random.default_rng(0).normal(size=(64, 1830))
        self.calibrations = []
        self._cal = self._calibrate()
        self.start()

    def _calibrate(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        # about equal parts array math, integer loop and small objects
        for _ in range(10):
            np.exp(np.log(np.abs(np.tanh(self._x)) + 1e-9))
        total = 0
        for i in range(250_000):
            total += i
        blocks = {}
        for j in range(12_000):
            blocks[tuple(sorted((u * j) % 997 for u in (1, 5, 11)))] = j
        cal = time.perf_counter() - t0
        self.calibrations.append(cal)
        return cal

    def start(self) -> None:
        """Zero the totals and start timing work."""
        self.raw = self.ref = 0.0
        self._t = time.perf_counter()

    def lap(self, force: bool = True) -> None:
        """Add the work since the last lap to the totals and calibrate;
        unless forced, only once LAP_S seconds of work have passed."""
        work = time.perf_counter() - self._t
        if not force and work < LAP_S:
            return
        cal = self._calibrate()
        self.raw += work
        self.ref += work * CAL_REF_S * 2.0 / (self._cal + cal)
        self._cal = cal
        self._t = time.perf_counter()

    def measure(self, fn, *args):
        """fn(*args) timed on its own: (result, raw seconds, reference seconds)."""
        self.start()
        out = fn(*args)
        self.lap()
        return out, self.raw, self.ref


def measure_setup(clock: SpeedClock, build):
    """Median start-to-import time of a fresh interpreter (one process start
    cannot be repeated in-process) plus the median of build(); returns the
    last build's result, the reference set-up time and the raw one."""
    src = os.path.join(ROOT, "src")
    argv = [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import bibdcodes", src]

    def start_interpreter():
        subprocess.run(argv, cwd=ROOT, check=True, timeout=120)

    starts, builds = [], []
    for _ in range(SETUP_REPEATS):
        starts.append(clock.measure(start_interpreter)[1:])
    for _ in range(SETUP_REPEATS):
        out, raw, ref = clock.measure(build)
        builds.append((raw, ref))
    ref = statistics.median(r for _, r in starts) + statistics.median(r for _, r in builds)
    raw = statistics.median(r for r, _ in starts) + statistics.median(r for r, _ in builds)
    return out, ref, raw


# --- BER workloads -------------------------------------------------------------


@dataclass
class Code:
    h: object
    encoder: object


def build_codes(checks: Checks, spans: Spans | None, seed: int) -> dict:
    """Netto-61 LDPC, sRA and w3RA (g1=1), H1 from the nine orbits without
    difference 1; each H reloaded through alist as the CLI loads it."""
    from bibdcodes.alist import from_alist, to_alist
    from bibdcodes.codec import BpGraph, EncoderState
    from bibdcodes.designs import (
        expand_cdf_to_design,
        find_base_block_with_difference,
        netto_cdf,
        verify_bibd,
    )
    from bibdcodes.matrices import incidence_matrix
    from bibdcodes.ra import sra_from_cdf, wqra_from_cdf

    import numpy as np

    fam = _call(spans, "designs.family_s", netto_cdf, NETTO_P)
    design = _call(spans, "designs.expand_s", expand_cdf_to_design, fam)
    report = _call(spans, "designs.verify_bibd_s", verify_bibd, design)
    checks.expect(f"verify_bibd Netto-{NETTO_P}", report.ok)
    if spans is not None:
        spans.total["designs.blocks"] += design.b
    acc = find_base_block_with_difference(fam, 1)
    h1_orbits = [i for i in range(1, fam.t + 1) if i != acc]
    ras = {
        "sra": _call(spans, "ra.transform_ms.sra", sra_from_cdf, fam, h1_orbits),
        "w3ra": _call(spans, "ra.transform_ms.w3ra", wqra_from_cdf, fam, 1, h1_orbits),
    }
    matrices = {
        "ldpc": _call(spans, "matrices.incidence_s", incidence_matrix, design),
        "sra": ras["sra"].h,
        "w3ra": ras["w3ra"].h,
    }
    rng = np.random.default_rng([seed, 0xC0DE])
    codes = {}
    for name in CODES:
        h = matrices[name]
        loaded = _call(spans, f"alist.roundtrip_ms.{name}", lambda m: from_alist(to_alist(m)), h)
        checks.expect(f"alist round trip {name}", loaded == h)
        if name in ras:
            enc = _call(spans, f"codec.encoder_init_ms.{name}", EncoderState.from_ra, ras[name])
        else:
            enc = _call(spans, f"codec.encoder_init_ms.{name}", EncoderState.from_parity_check, loaded)
        graph = _call(spans, f"codec.graph_init_ms.{name}", BpGraph, loaded)
        # one noiseless codeword: zero syndrome, decoded at iteration 0
        cw = enc.encode(rng.integers(0, 2, size=enc.k, dtype=np.uint8))
        bits, conv, iters = graph.decode_batch((5.0 - 10.0 * cw)[None, :])
        checks.expect(
            f"noiseless codeword {name}",
            not loaded.mul_vector(cw).any() and bool(conv[0]) and int(iters[0]) == 0
            and bool((bits[0] == cw).all()),
        )
        codes[name] = Code(h=loaded, encoder=enc)
    return codes


def check_records(checks: Checks, name: str, records, w: BerWorkload, k: int) -> None:
    ok = len(records) == len(w.snr_db)
    for rec, snr in zip(records, w.snr_db):
        stopped = rec.frame_errors == w.min_frame_errors or (
            rec.frames == w.max_frames and rec.frame_errors < w.min_frame_errors
        )
        ok = ok and rec.ebno_db == snr and stopped and rec.bits_total == rec.frames * k
        ok = ok and 0 <= rec.undetected_errors <= rec.frame_errors <= rec.frames
    checks.expect(f"campaign invariants {name}", ok)


@contextmanager
def patched(owner, attr: str, make, checks: Checks):
    """Replaces owner.attr by make(original) for the duration, then restores
    it. The attribute is looked up as callers see it, so an inherited one
    is found too; a missing one is a failed check."""
    original = getattr(owner, attr, None)
    if not callable(original):
        checks.expect(f"{owner.__name__}.{attr} exists", False)
        yield
        return
    own = owner.__dict__.get(attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        if own is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, own)


def lapping(codec, clock: SpeedClock, checks: Checks):
    """Lets the clock calibrate after a decoder batch, at most once per
    LAP_S of work: a 5 dB campaign runs for seconds, and the machine's
    speed changes within that time."""

    def make(decode_batch):
        def wrapper(*args, **kwargs):
            out = decode_batch(*args, **kwargs)
            clock.lap(force=False)
            return out

        return wrapper

    return patched(codec.BpGraph, "decode_batch", make, checks)


class CampaignTracer:
    """Wraps the codec entry points ber_campaign calls and sums their time
    per code (and per SNR point for decoding); restores them on exit. The
    runner sets code and snr before each campaign.

    An entry point that is missing, or that a code's campaigns never call,
    is a failed check: its layer would otherwise read 0 and its time would
    land in the campaign's self time unnoticed. A change that replaces one
    of them has to be traced here under its new name."""

    LAYERS = ("frame_rng", "transmit", "encode", "decode")

    def __init__(self, codec, cap: int, checks: Checks):
        self.codec = codec
        self.cap = cap
        self.checks = checks
        self.code = None
        self.snr = None
        self.time = defaultdict(float)  # (layer, code, snr)
        self.calls = defaultdict(int)
        self.hist = {}  # (code, snr): frames decoded per iteration count

    def _timed(self, layer, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.time[(layer, self.code, self.snr)] += time.perf_counter() - t0
            self.calls[(layer, self.code, self.snr)] += 1
            return out

        return wrapper

    def _decode(self, fn):
        import numpy as np

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            key = (self.code, self.snr)
            self.time[("decode",) + key] += time.perf_counter() - t0
            self.calls[("decode",) + key] += 1
            counts = np.bincount(np.asarray(out[2]), minlength=self.cap + 1)
            prev = self.hist.get(key)
            self.hist[key] = counts if prev is None else prev + counts
            return out

        return wrapper

    @contextmanager
    def installed(self):
        codec = self.codec
        targets = [
            (codec, "frame_rng", lambda f: self._timed("frame_rng", f)),
            (codec, "transmit", lambda f: self._timed("transmit", f)),
            (codec.EncoderState, "encode", lambda f: self._timed("encode", f)),
            (codec.BpGraph, "decode_batch", self._decode),
        ]
        with ExitStack() as stack:
            for owner, attr, make in targets:
                stack.enter_context(patched(owner, attr, make, self.checks))
            yield self

    def check_calls(self, codes) -> None:
        """Every wrapped entry point was called in each code's campaigns."""
        for code in codes:
            for layer in self.LAYERS:
                n = sum(c for (lay, cd, _), c in self.calls.items() if (lay, cd) == (layer, code))
                self.checks.expect(f"traced {layer} calls for {code}", n > 0)

    def children(self, code: str) -> float:
        """Time spent in the wrapped calls of one code's campaigns."""
        return sum(t for (_, c, _), t in self.time.items() if c == code)

    def per_frame_ms(self, layer: str, code: str) -> float:
        calls = sum(n for (lay, c, _), n in self.calls.items() if (lay, c) == (layer, code))
        total = sum(t for (lay, c, _), t in self.time.items() if (lay, c) == (layer, code))
        return 1e3 * total / calls if calls else 0.0


def run_campaigns(codec, codes: dict, w: BerWorkload, seed: int, clock: SpeedClock, checks: Checks,
                  tracer=None):
    """One repetition: a campaign per code and SNR point (points are
    independent, so the records equal those of one campaign over all
    points). Returns CSV texts and records per code, the raw and reference
    time of each campaign and, when traced, the raw self time of the
    campaigns per code."""
    texts, records, raw, ref, self_time = {}, {}, {}, {}, {}
    for name, code in codes.items():
        records[name] = []
        for snr in w.snr_db:
            if tracer is not None:
                tracer.code, tracer.snr = name, snr
            with lapping(codec, clock, checks):
                recs, raw[(name, snr)], ref[(name, snr)] = clock.measure(
                    lambda: codec.ber_campaign(
                        code.h,
                        [snr],
                        seed=seed,
                        min_frame_errors=w.min_frame_errors,
                        max_frames=w.max_frames,
                        encoder=code.encoder,
                        batch_size=w.batch_size,
                    )
                )
            records[name] += recs
        texts[name] = codec.records_to_csv(records[name])
        if tracer is not None:
            campaigns = sum(raw[(name, snr)] for snr in w.snr_db)
            self_time[name] = campaigns - tracer.children(name)
    return texts, records, raw, ref, self_time


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_ber(wname: str, w: BerWorkload, seed: int, seconds: float, trace: bool) -> dict:
    checks = Checks()
    import_program()
    from bibdcodes import codec

    clock = SpeedClock()
    setup_spans = []

    def build():
        spans = Spans() if trace else None
        setup_spans.append(spans)
        return build_codes(checks, spans, seed)

    codes, setup_s, raw_setup_s = measure_setup(clock, build)

    golden = GOLDEN_CSV.get(wname) if seed == GOLDEN_SEED and w == WORKLOADS.get(wname) else None
    reference = {}

    def check_rep(texts, records, label):
        for name in CODES:
            check_records(checks, f"{label} {name}", records[name], w, codes[name].encoder.k)
            ref = golden[name] if golden else reference.setdefault(name, _sha(texts[name]))
            checks.expect(f"{label} CSV {name} matches {'golden' if golden else 'first repetition'}",
                          _sha(texts[name]) == ref)

    cap = codec.DecoderConfig().max_iterations
    elapsed, raw_parts, ref_parts = [], defaultdict(list), defaultdict(list)
    ref_reps, traced_ref_reps, traced_metrics = [], [], []
    texts, records, tracer = {}, {}, None
    deadline = time.perf_counter() + seconds
    while True:
        # a repetition that raises is counted as failed and ends the run
        t0 = time.perf_counter()
        try:
            texts, records, raw, ref, _ = run_campaigns(codec, codes, w, seed, clock, checks)
        except Exception:
            elapsed.append(time.perf_counter() - t0)
            checks.raised(f"{wname} repetition {len(elapsed)}")
            break
        for key in raw:
            raw_parts[key].append(raw[key])
            ref_parts[key].append(ref[key])
        ref_reps.append(sum(ref.values()))
        check_rep(texts, records, f"repetition {len(ref_reps)}")
        if trace:
            # traced repetitions alternate with untraced ones, so that
            # drift on the machine hits both sides of the overhead alike
            tracer = CampaignTracer(codec, cap, checks)
            try:
                with tracer.installed():
                    traced_texts, traced_records, _, ref, self_time = run_campaigns(
                        codec, codes, w, seed, clock, checks, tracer)
            except Exception:
                checks.raised(f"{wname} traced repetition {len(ref_reps)}")
                break
            tracer.check_calls(CODES)
            traced_ref_reps.append(sum(ref.values()))
            for name in CODES:
                checks.expect(f"traced CSV {name} equals untraced",
                              traced_texts.get(name) == texts.get(name))
            traced_metrics.append(layer_metrics_ber(tracer, traced_records, self_time))
        elapsed.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(elapsed) > deadline:
            break

    # each campaign's median, summed: steadier than the median repetition
    # when the machine's speed changes within a repetition
    wall_s = sum(statistics.median(ts) for ts in ref_parts.values()) if ref_parts else float(elapsed[0])
    tallied = sum(r.frames for recs in records.values() for r in recs)
    metrics = {"setup_s": setup_s, "wall_s": wall_s, "throughput_per_s": tallied / wall_s}
    report = {
        "csv_sha256": {n: _sha(t) for n, t in texts.items()},
        "golden_checked": golden is not None,
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": sum(statistics.median(ts) for ts in raw_parts.values()),
        "repetition_elapsed_s": elapsed,
        "calibration_median_s": statistics.median(clock.calibrations),
        "campaign_median_s": {f"{code}.{_snr_label(snr)}": statistics.median(ts)
                              for (code, snr), ts in ref_parts.items()},
        "campaign_frames": {f"{code}.{_snr_label(r.ebno_db)}": r.frames
                            for code, recs in records.items() for r in recs},
    }
    if trace:
        metrics = dict.fromkeys(per_layer_units(), 0.0)
        for key in metrics:
            if traced_metrics:
                metrics[key] = statistics.median(m[key] for m in traced_metrics)
        span_medians(metrics, setup_spans)
        if traced_ref_reps:
            metrics["trace.overhead_s"] = statistics.median(traced_ref_reps) - statistics.median(ref_reps)
        report["iteration_histograms"] = {
            f"{code}.{_snr_label(snr)}": trim_hist(h)
            for (code, snr), h in (tracer.hist.items() if tracer else ())
        }
    return finish(checks, metrics, report, trace)


def trim_hist(counts) -> dict:
    return {str(i): int(c) for i, c in enumerate(counts.tolist()) if c}


def layer_metrics_ber(tracer: CampaignTracer, records: dict, self_time: dict) -> dict:
    """Codec metrics of one traced repetition."""
    out = dict.fromkeys(per_layer_units(), 0.0)
    for code in CODES:
        decoded_total = 0
        for snr in SNRS:
            key = (code, snr)
            tag = f"{code}.{_snr_label(snr)}"
            hist = tracer.hist[key].tolist() if key in tracer.hist else []
            n = sum(hist)
            decoded_total += n
            if n:
                out[f"codec.decode_ms_per_frame.{tag}"] = 1e3 * tracer.time[("decode",) + key] / n
                out[f"codec.iterations_mean.{tag}"] = sum(i * c for i, c in enumerate(hist)) / n
                out[f"codec.cap_share.{tag}"] = sum(hist[tracer.cap:]) / n
                out[f"codec.decoded_frames.{tag}"] = n
            rec = next((r for r in records.get(code, ()) if r.ebno_db == snr), None)
            if rec is not None:
                out[f"codec.undetected_errors.{tag}"] = rec.undetected_errors
                if n:
                    out[f"codec.tally_yield.{tag}"] = rec.frames / n
        for layer in ("encode", "transmit", "frame_rng"):
            out[f"codec.{layer}_ms_per_frame.{code}"] = tracer.per_frame_ms(layer, code)
        if decoded_total and code in self_time:
            out[f"codec.campaign_self_ms_per_frame.{code}"] = 1e3 * self_time[code] / decoded_total
    return out


def span_medians(out: dict, repeated) -> None:
    """Set each span key in out to its median over repeated Spans; keys
    with _ms in their name are reported in milliseconds."""
    keys = {k for spans in repeated for k in spans.total}
    for key in keys:
        value = statistics.median(spans.total.get(key, 0.0) for spans in repeated)
        out[key] = 1e3 * value if "_ms" in key else value


# --- design-structure workload -------------------------------------------------


def _primes(start: int, stop: int, step: int, is_prime) -> list:
    return [p for p in range(start, stop, step) if is_prime(p)]


def design_inputs(w: DesignWorkload):
    from bibdcodes.algebra import is_prime

    below = w.sweep_below
    return (
        ("netto", _primes(7, below, 6, is_prime)),
        ("buratti4", _primes(13, below, 12, is_prime)),
        ("buratti5", _primes(21, below, 20, is_prime)),
    )


def design_pass(w: DesignWorkload, sweeps, checks: Checks, spans: Spans | None, lap) -> int:
    """The whole design-structure work list; returns the blocks expanded.
    lap() is called between steps, where the clock may calibrate."""
    from bibdcodes.alist import from_alist, to_alist
    from bibdcodes.designs import (
        buratti_cdf,
        expand_cdf_to_design,
        format_design,
        netto_cdf,
        parse_design,
        verify_bibd,
    )
    from bibdcodes.matrices import girth, incidence_matrix, rank_gf2

    builders = {
        "netto": netto_cdf,
        "buratti4": lambda p: buratti_cdf(p, 4),
        "buratti5": lambda p: buratti_cdf(p, 5),
    }
    keep = {w.girth_p, w.file_p, *w.rank_ps}
    kept = {}
    blocks = 0
    for family, primes in sweeps:
        for p in primes:
            fam = _call(spans, "designs.family_s", builders[family], p)
            d = _call(spans, "designs.expand_s", expand_cdf_to_design, fam)
            rep = _call(spans, "designs.verify_bibd_s", verify_bibd, d)
            ok = rep.ok and (family != "netto" or rep.lambda_histogram == {1: p * (p - 1) // 2})
            checks.expect(f"verify_bibd {family}-{p}", ok)
            blocks += d.b
            if family == "netto" and p in keep:
                kept[p] = d
            lap()

    incidence = {p: _call(spans, "matrices.incidence_s", incidence_matrix, kept[p])
                 for p in sorted(keep)}
    lap()
    g = _call(spans, "matrices.girth_s", girth, incidence[w.girth_p])
    checks.expect(f"girth Netto-{w.girth_p} == 6", g == 6)
    lap()
    for p in w.rank_ps:
        r = _call(spans, "matrices.rank_s", rank_gf2, incidence[p])
        checks.expect(f"rank Netto-{p} == {p}", r == p)
        lap()

    d = kept[w.file_p]
    text = _call(spans, "designs.format_s", lambda x: format_design(x, compact=True), d)
    parsed = _call(spans, "designs.parse_s", parse_design, text)
    checks.expect(f"parse_design(format_design(Netto-{w.file_p})) == design", parsed == d)
    lap()
    h = incidence[w.file_p]
    loaded = _call(spans, "alist.roundtrip_s", lambda m: from_alist(to_alist(m)), h)
    checks.expect(f"from_alist(to_alist(Netto-{w.file_p})) == H", loaded == h)
    return blocks


def run_design(wname: str, w: DesignWorkload, seconds: float, trace: bool) -> dict:
    checks = Checks()
    import_program()
    clock = SpeedClock()
    sweeps, setup_s, raw_setup_s = measure_setup(clock, lambda: design_inputs(w))

    def one_pass(spans):
        # a pass that raises is counted as failed and still timed
        clock.start()
        blocks = 0
        try:
            blocks = design_pass(w, sweeps, checks, spans, lambda: clock.lap(force=False))
        except Exception:
            checks.raised(f"{wname} pass")
        clock.lap()
        return clock.raw, clock.ref, blocks

    raws, refs, traced_refs, traced_spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        raw, ref, blocks = one_pass(None)
        raws.append(raw)
        refs.append(ref)
        if trace:
            spans = Spans()
            traced_refs.append(one_pass(spans)[1])
            traced_spans.append(spans)
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    wall_s = statistics.median(refs)
    metrics = {"setup_s": setup_s, "wall_s": wall_s, "throughput_per_s": blocks / wall_s}
    report = {
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": statistics.median(raws),
        "repetition_wall_s": refs,
        "calibration_median_s": statistics.median(clock.calibrations),
    }
    if trace:
        metrics = dict.fromkeys(per_layer_units(), 0.0)
        span_medians(metrics, traced_spans)
        metrics["designs.blocks"] = blocks
        metrics["trace.overhead_s"] = statistics.median(traced_refs) - wall_s
    return finish(checks, metrics, report, trace)


# --- result --------------------------------------------------------------------


def environment() -> dict:
    import numpy as np

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                          "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def finish(checks: Checks, metrics: dict, report: dict, trace: bool) -> dict:
    if not trace:
        # ru_maxrss is in KiB on Linux
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        units = dict(END_TO_END)
    else:
        units = per_layer_units()
    report["failed_share"] = checks.failed / checks.attempted if checks.attempted else 1.0
    return {
        "report": report,
        "result": {
            "correct": checks.failed == 0 and checks.attempted > 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
    }


def run(workload: str, seed: int, seconds: float, trace: bool, params=None) -> dict:
    """Run one workload; params overrides its WORKLOADS entry (the self-test
    uses tiny ones)."""
    w = params if params is not None else WORKLOADS[workload]
    if isinstance(w, BerWorkload):
        return run_ber(workload, w, seed, seconds, trace)
    return run_design(workload, w, seconds, trace)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result, report = out["result"], out["report"]
    report["environment"] = environment()
    report["workload"], report["seed"], report["trace"] = args.workload, args.seed, args.trace
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_share':42s} {report['failed_share']:.6g} share "
          f"({result['failed']} of {result['attempted']} checks)")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
