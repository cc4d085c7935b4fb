"""Self-test of the benchmark at a tiny size.

    python3 -m pytest bench/test_bench.py

Checks that every metric named in BENCHMARK.json is reported with its
unit, that no check fails on the current program, that tracing leaves the
codec untouched and fails a check on an entry point it cannot trace, and
that the benchmark refuses to run without src/.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run as bench  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)

TINY = {
    "ber-waterfall": bench.BerWorkload(snr_db=(3.0,), min_frame_errors=33, max_frames=32,
                                       batch_size=32),
    "ber-sweep": bench.BerWorkload(snr_db=bench.SNRS, min_frame_errors=5, max_frames=64,
                                   batch_size=32),
    "design-structure": bench.DesignWorkload(sweep_below=100, girth_p=19, rank_ps=(19, 31),
                                             file_p=31),
}


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == dict(bench.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.per_layer_units()


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(workload, trace):
    result = bench.run(workload, seed=61, seconds=0.01, trace=trace, params=TINY[workload])["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_tracing_restores_the_codec():
    from bibdcodes import codec

    originals = (codec.frame_rng, codec.transmit, codec.EncoderState.encode,
                 codec.BpGraph.decode_batch)
    bench.run("ber-waterfall", seed=7, seconds=0.01, trace=True, params=TINY["ber-waterfall"])
    assert (codec.frame_rng, codec.transmit, codec.EncoderState.encode,
            codec.BpGraph.decode_batch) == originals


def test_tracer_fails_loudly_on_untraced_entry_points():
    class Base:
        def encode(self, message):
            return message

        def decode_batch(self, llrs):
            return llrs, None, [0]

    class EncoderState(Base):
        pass

    class BpGraph(Base):
        pass

    fake = types.ModuleType("fake_codec")
    fake.frame_rng = lambda seed, index: None
    fake.EncoderState, fake.BpGraph = EncoderState, BpGraph  # no transmit
    checks = bench.Checks()
    tracer = bench.CampaignTracer(fake, cap=1, checks=checks)
    with tracer.installed():
        # inherited entry points are wrapped too
        assert "encode" in EncoderState.__dict__ and "decode_batch" in BpGraph.__dict__
    assert checks.failed == 1
    assert "encode" not in EncoderState.__dict__ and "decode_batch" not in BpGraph.__dict__
    assert not hasattr(fake, "transmit")
    tracer.check_calls(["ldpc"])
    assert checks.failed == 1 + len(bench.CampaignTracer.LAYERS)


def test_goldens_cover_every_ber_code():
    for name, w in bench.WORKLOADS.items():
        if isinstance(w, bench.BerWorkload):
            assert set(bench.GOLDEN_CSV[name]) == set(bench.CODES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ber-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
