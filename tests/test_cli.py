import importlib.util
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bibdcodes
from bibdcodes.alist import to_alist
from bibdcodes.cli import _read_llrs, main
from bibdcodes.codec import CSV_HEADER
from bibdcodes.designs import expand_cdf_to_design, netto_cdf, read_design
from bibdcodes.matrices import incidence_matrix

from conftest import DATA_DIR, MISMATCHED_FANO, emptied_crcbibd39_text, swapped_kts21_text
from oracles import col_rows


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_netto_parameter_line(tmp_path, capsys):
    out = tmp_path / "n19.design"
    code, stdout, _ = run(capsys, "construct", "--family", "netto", "--p", "19",
                          "--expand", "--out", str(out))
    assert code == 0
    assert "(3, r=9), N=57" in stdout
    assert "rank=19" in stdout
    d = read_design(out)
    assert d.v == 19 and d.b == 57
    manifest = json.loads((tmp_path / "n19.design.manifest.json").read_text())
    assert manifest["command"] == "construct"
    assert str(out) in manifest["outputs"]


def test_construct_rdf_73(tmp_path, capsys):
    out = tmp_path / "r73.design"
    code, stdout, _ = run(capsys, "construct", "--family", "rdf", "--p", "73",
                          "--k", "9", "--out", str(out))
    assert code == 0
    assert "N=73" in stdout


def test_construct_bad_modulus(capsys):
    code, _, stderr = run(capsys, "construct", "--family", "netto", "--p", "11")
    assert code == 1
    assert "BadModulus" in stderr


def test_catalog_queries(capsys):
    code, out, _ = run(capsys, "catalog", "--query", "rbibd", "--v", "45", "--k", "5")
    assert code == 0 and out.startswith("Unknown")
    code, out, _ = run(capsys, "catalog", "--query", "crcbibd", "--p", "41", "--k", "5")
    assert code == 0 and out.startswith("Exists")
    code, out, _ = run(capsys, "catalog", "--query", "rbibd", "--v", "10", "--k", "4")
    assert code == 0 and out.startswith("Impossible")
    code, out, _ = run(capsys, "catalog", "--query", "cdf", "--p", "61", "--k", "6")
    assert code == 0 and out.startswith("Unknown")


def test_transform_crcbibd_pipeline(tmp_path, capsys):
    src = os.path.join(DATA_DIR, "crcbibd39.design")
    out = tmp_path / "crc.alist"
    code, stdout, _ = run(capsys, "transform", "--in", src, "--kind", "sra",
                          "--source", "crcbibd", "--class-orbit", "13",
                          "--h1-classes", "16,17,18", "--out", str(out))
    assert code == 0
    assert "[N=78, K=39" in stdout
    meta = (tmp_path / "crc.alist.meta").read_text()
    assert "m=39" in meta
    # H2 half is a strict double diagonal
    from bibdcodes.alist import read_alist

    h = read_alist(out)
    for i in range(39):
        rows = col_rows(h)[39 + i]
        assert rows == ((i, i + 1) if i < 38 else (38,))


def test_transform_bad_g1(tmp_path, capsys):
    src = os.path.join(DATA_DIR, "crcbibd39.design")
    code, _, stderr = run(capsys, "transform", "--in", src, "--kind", "wqra",
                          "--source", "crcbibd", "--class-orbit", "13", "--g1", "3",
                          "--h1-classes", "16", "--out", str(tmp_path / "x.alist"))
    assert code == 1 and "BadG1" in stderr


def test_transform_kts(tmp_path, capsys):
    src = os.path.join(DATA_DIR, "kts21.design")
    out = tmp_path / "kts.alist"
    code, stdout, _ = run(capsys, "transform", "--in", src, "--kind", "sra",
                          "--source", "kts", "--h1-classes", "0,1,2,3,4,5,6",
                          "--out", str(out))
    assert code == 0
    assert "[N=70, K=49" in stdout


def test_simulate_determinism(tmp_path, capsys):
    design = tmp_path / "n13.design"
    alist = tmp_path / "n13.alist"
    run(capsys, "construct", "--family", "netto", "--p", "13", "--out", str(design))
    run(capsys, "export", "--in", str(design), "--out", str(alist))
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    args = ["simulate", "--h", str(alist), "--snr", "2,4", "--min-frame-errors", "5",
            "--max-frames", "100", "--seed", "21"]
    assert run(capsys, *args, "--out", str(csv1))[0] == 0
    assert run(capsys, *args, "--out", str(csv2))[0] == 0
    assert csv1.read_bytes() == csv2.read_bytes()
    lines = csv1.read_text().splitlines()
    assert len(lines) == 3
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["seed"] == 21
    # the environment goes to the manifest, never into the CSV
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["platform"] == platform.platform()
    assert manifest["nproc"] == len(os.sched_getaffinity(0)) >= 1
    assert lines[0] == CSV_HEADER


def test_manifest_records_the_simd_level(tmp_path, capsys):
    # the same campaign with every feature and with the AVX512 targets
    # disabled, each in a process of its own: numpy's SIMD report in the
    # manifest follows the variable, and the CSV does not
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    design, alist = tmp_path / "n13.design", tmp_path / "n13.alist"
    run(capsys, "construct", "--family", "netto", "--p", "13", "--out", str(design))
    run(capsys, "export", "--in", str(design), "--out", str(alist))
    env = {k: v for k, v in os.environ.items() if not k.startswith("NPY_")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
    avx512 = [t for t in __cpu_dispatch__ if t == "X86_V4" or t.startswith("AVX512")]
    levels = {"all": env, "no-avx512": dict(env, NPY_DISABLE_CPU_FEATURES=" ".join(avx512))}
    csvs, manifests = {}, {}
    for name, level_env in levels.items():
        out = tmp_path / f"{name}.csv"
        subprocess.run([sys.executable, "-m", "bibdcodes.cli", "simulate", "--h", str(alist),
                        "--snr", "2,4", "--min-frame-errors", "5", "--max-frames", "100",
                        "--seed", "21", "--out", str(out)],
                       env=level_env, capture_output=True, check=True, timeout=120)
        csvs[name] = out.read_bytes()
        manifests[name] = json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())
    assert csvs["all"] == csvs["no-avx512"]
    assert "npy_disable_cpu_features" not in manifests["all"]
    assert manifests["no-avx512"]["npy_disable_cpu_features"] == " ".join(avx512)
    found = {name: set(m["simd"]["found"]) for name, m in manifests.items()}
    assert found["all"] >= {t for t in avx512 if __cpu_features__.get(t)}
    assert not found["no-avx512"] & set(avx512)
    assert manifests["all"]["simd"]["baseline"] == manifests["no-avx512"]["simd"]["baseline"]


def test_verify_design_checks(tmp_path, capsys):
    design = tmp_path / "fano.design"
    run(capsys, "construct", "--family", "netto", "--p", "7", "--expand",
        "--out", str(design))
    code, out, _ = run(capsys, "verify", "--in", str(design),
                       "--checks", "bibd,girth,rank,regularity,mindist")
    assert code == 0
    assert "girth: pass girth=6" in out
    assert "rank=4" in out
    assert "d=4" in out


def test_verify_flags_girth_four(tmp_path, capsys):
    # hand-built alist with a 4-cycle
    alist = tmp_path / "bad.alist"
    alist.write_text("2 2\n2 2\n2 2\n2 2\n1 2\n1 2\n1 2\n1 2\n")
    code, out, _ = run(capsys, "verify", "--in", str(alist), "--checks", "girth")
    assert code == 1
    assert "girth: FAIL girth=4" in out
    assert "witness=" in out


def test_encode_decode_roundtrip(tmp_path, capsys):
    design = tmp_path / "n13.design"
    alist = tmp_path / "n13.alist"
    run(capsys, "construct", "--family", "netto", "--p", "13", "--out", str(design))
    run(capsys, "export", "--in", str(design), "--out", str(alist))
    bits = tmp_path / "cw.bits"
    code, _, stderr = run(capsys, "encode", "--h", str(alist), "--seed", "8",
                          "--out", str(bits))
    assert code == 0 and "K=13" in stderr
    codeword = bits.read_text().strip()
    llr = tmp_path / "chan.llr"
    llr.write_text("\n".join("-4.0" if c == "1" else "4.0" for c in codeword))
    out = tmp_path / "dec.bits"
    code, _, stderr = run(capsys, "decode", "--h", str(alist), "--llr", str(llr),
                          "--out", str(out))
    assert code == 0
    assert stderr == "converged=True iterations=0\n"
    assert out.read_text().strip() == codeword


def test_usage_error_exit_codes(capsys):
    with pytest.raises(SystemExit) as err:
        main(["catalog", "--query", "rbibd", "--k", "5"])  # missing --v
    assert err.value.code == 2


def test_transform_wqra_cdf_pipeline(tmp_path, capsys):
    design = tmp_path / "n13.design"
    run(capsys, "construct", "--family", "netto", "--p", "13", "--out", str(design))
    out = tmp_path / "w3.alist"
    code, stdout, _ = run(capsys, "transform", "--in", str(design), "--kind", "wqra",
                          "--source", "cdf", "--g1", "1", "--h1-classes", "2",
                          "--out", str(out))
    assert code == 0
    assert "[N=26, K=13" in stdout
    meta = (tmp_path / "w3.alist.meta").read_text()
    assert "g=3,1" in meta


def test_verify_reads_alist_without_extension(tmp_path, capsys):
    design = tmp_path / "n7.design"
    run(capsys, "construct", "--family", "netto", "--p", "7", "--out", str(design))
    matrix_file = tmp_path / "n7.matrix"   # alist content, odd extension
    run(capsys, "export", "--in", str(design), "--out", str(matrix_file))
    code, out, _ = run(capsys, "verify", "--in", str(matrix_file), "--checks", "girth,rank")
    assert code == 0 and "girth: pass girth=6" in out


def test_verify_mindist_needs_cap_for_large_codes(tmp_path, capsys):
    design = tmp_path / "n37.design"
    alist = tmp_path / "n37.alist"
    run(capsys, "construct", "--family", "netto", "--p", "37", "--out", str(design))
    run(capsys, "export", "--in", str(design), "--out", str(alist))
    code, _, stderr = run(capsys, "verify", "--in", str(alist), "--checks", "mindist")
    assert code == 1 and "TooLarge" in stderr
    code, out, _ = run(capsys, "verify", "--in", str(alist), "--checks", "mindist",
                       "--cap", "2")
    assert code == 0 and "above cap" in out


@pytest.fixture
def fano_alist(tmp_path, capsys):
    design = tmp_path / "n7.design"
    alist = tmp_path / "n7.alist"
    run(capsys, "construct", "--family", "netto", "--p", "7", "--out", str(design))
    run(capsys, "export", "--in", str(design), "--out", str(alist))
    return alist


def test_encode_rejects_non_binary_message(fano_alist, capsys):
    code, out, _ = run(capsys, "encode", "--h", str(fano_alist), "--message", "101")
    assert code == 0 and len(out.strip()) == 7
    code, out, stderr = run(capsys, "encode", "--h", str(fano_alist), "--message", "120")
    assert code == 1 and out == ""
    assert stderr.startswith("NotBinary: ")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_decode_rejects_non_finite_llrs(fano_alist, tmp_path, capsys, bad):
    llr = tmp_path / "bad.llr"
    llr.write_text("\n".join([bad] * 7) + "\n")
    code, out, stderr = run(capsys, "decode", "--h", str(fano_alist), "--llr", str(llr))
    assert code == 1 and out == ""
    assert stderr.startswith("NonFiniteLlr: ")
    assert "converged" not in stderr


def test_decode_names_a_bad_llr_token(fano_alist, tmp_path, capsys):
    llr = tmp_path / "bad.llr"
    llr.write_text("1.0 2.0 3.0\n4.0 x 6.0 7.0\n")
    code, out, stderr = run(capsys, "decode", "--h", str(fano_alist), "--llr", str(llr))
    assert code == 1 and out == ""
    assert stderr == "ValueError: llr: line 2: token 5 'x' is not a number\n"


@pytest.mark.parametrize("count", [8, 14])
def test_decode_rejects_an_llr_file_of_another_length(fano_alist, tmp_path, capsys, count):
    # n + 1 values, and 2n: the file is one vector, not a batch of two
    llr = tmp_path / "long.llr"
    llr.write_text(" ".join(["1.0"] * count) + "\n")
    code, out, stderr = run(capsys, "decode", "--h", str(fano_alist), "--llr", str(llr))
    assert code == 1 and out == ""
    assert stderr.startswith("DimensionMismatch: ")


# tokens float() reads, and tokens it rejects, whatever else the reader does
_LLR_NUMBERS = ["0", "-0.0", "1.5", "-4.0", "+.5", "5.", "1e-300", "-1e999", "1_000", "nan",
                "-inf", "Infinity", "4.9e-324", "1.7976931348623157e308"]
_LLR_GARBAGE = ["x", "1.2.3", "--1", "1e", "e5", "0x10", "1,5", ".", "-", "nan1", "None",
                "1__0", "\u00bd", "1e5e5", "inf-"]
_llr_number = st.one_of(st.sampled_from(_LLR_NUMBERS), st.floats().map(repr))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_llr_number, max_size=6), min_size=1, max_size=6), st.data())
def test_mutated_llr_text_loads_every_value_or_names_the_bad_token(tmp_path_factory, lines,
                                                                   data):
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.integers(0, len(lines) - 1))
        j = data.draw(st.integers(0, len(lines[i])))
        op = data.draw(st.sampled_from(["garble", "insert", "drop", "dup", "blank_line"]))
        token = data.draw(st.sampled_from(_LLR_GARBAGE) | _llr_number)
        if op == "blank_line":
            lines.insert(i, [])
        elif op == "insert":
            lines[i].insert(j, token)
        elif j < len(lines[i]):
            lines[i][j:j + 1] = {"garble": [token], "drop": [], "dup": [lines[i][j]] * 2}[op]
    gaps = st.sampled_from([" ", "\t", "  ", " \t "])
    text = "".join(data.draw(st.sampled_from(["", " "])) + "".join(
        tok + data.draw(gaps) for tok in ln) + data.draw(st.sampled_from(["\n", "\r\n"]))
        for ln in lines)
    path = tmp_path_factory.getbasetemp() / "fuzz.llr"
    path.write_bytes(text.encode())
    tokens = [(n, tok) for n, ln in enumerate(lines, start=1) for tok in ln]
    bad = [(pos, n, tok) for pos, (n, tok) in enumerate(tokens, start=1) if tok in _LLR_GARBAGE]
    try:
        values = _read_llrs(str(path))
    except ValueError as exc:
        assert bad, exc
        pos, n, tok = bad[0]
        assert str(exc) == f"llr: line {n}: token {pos} {tok!r} is not a number"
        return
    assert not bad
    expect = np.array([float(tok) for _, tok in tokens], dtype=np.float64)
    assert values.dtype == np.float64 and np.array_equal(values, expect, equal_nan=True)
    path.write_text(" ".join(map(repr, values.tolist())))
    assert np.array_equal(_read_llrs(str(path)), values, equal_nan=True)


@pytest.mark.parametrize("command,text,match", [
    ("verify", "design v=99999999999999999999 k=3 b=1\n", "line 1: 99999999999999999999 does not fit"),
    ("export", "class 0: -1\n", "line 3: block index -1 is outside 0..6"),
])
def test_design_structure_errors_exit_1(tmp_path, capsys, fano_alist, command, text, match):
    design = tmp_path / "bad.design"
    if text.startswith("class"):  # appended to the compact Fano design file
        text = (tmp_path / "n7.design").read_text() + text
    design.write_text(text)
    out_file = tmp_path / "bad.alist"
    argv = [command, "--in", str(design)]
    if command == "export":
        argv += ["--trusted", "--out", str(out_file)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"ValueError: design: {match}")
    assert not out_file.exists()


@pytest.mark.parametrize("text", [
    "design v=7 k=3 b=7\ncyclic base=0,1,10\n",
    "design v=7 k=3 b=1\n0,1,9\n",
])
def test_verify_rejects_out_of_range_points(tmp_path, capsys, text):
    design = tmp_path / "bad.design"
    design.write_text(text)
    code, _, err = run(capsys, "verify", "--in", str(design))
    assert code == 1
    assert err.startswith("OutOfRange: ")


@pytest.mark.parametrize("text", [
    "2 1\n1 1\n1 1\n2\n1\n1\n1 2\n",  # declares max row weight 1, loads a weight-2 row
    "2 2\n2 2\n1 2\n2 1\n1 0 0\n1 2\n1 2\n2 0\n",  # more indices than the declared maximum
    "2 2\n2 2\n1 2\n2 1\n1 0\n1 x\n1 2\n2 0\n",  # non-integer token
])
def test_verify_rejects_malformed_alist(tmp_path, capsys, text):
    alist = tmp_path / "bad.alist"
    alist.write_text(text)
    code, out, err = run(capsys, "verify", "--in", str(alist))
    assert code == 1 and out == ""
    assert err.startswith("ValueError: alist: line ")


SRC_DIR = os.path.dirname(os.path.dirname(bibdcodes.__file__))

MISMATCH_ERROR = "ValueError: design: line 3: block 0,1,3 is not row 0 of the cyclic expansion"


def test_verify_short_orbit_design(tmp_path, capsys):
    design = tmp_path / "sts15.design"
    design.write_text("design v=15 k=3 b=35\ncyclic base=0,1,4;0,2,8;0,5,10\n")
    code, out, _ = run(capsys, "verify", "--in", str(design), "--checks", "bibd,girth,rank")
    assert code == 0
    assert "girth: pass girth=6" in out
    assert "rank=11 K=24" in out


def run_process(tmp_path, argv):
    """The command as a user runs it, in its own interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p))
    files = {
        "mismatch": MISMATCHED_FANO,
        "bad_alist": "2 2\n2 2\n1 2\n2 1\n1 0\n1 x\n1 2\n2 0\n",
        "bad_llr": "1.0 x\n",
        "bad_point": "design v=13 k=3 b=2\n0,1,3\n3,9,-1\n",
        "bad_class": swapped_kts21_text(),
        "empty_classes": emptied_crcbibd39_text(),
        "fano_alist": to_alist(incidence_matrix(expand_cdf_to_design(netto_cdf(7)))),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [a.format(tmp=tmp_path, data=DATA_DIR) for a in argv]
    return subprocess.run([sys.executable, "-m", "bibdcodes.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv,error", [
    ("construct --family netto --p 11", "BadModulus: Netto construction needs a prime"),
    ("construct --family rdf --p 3037000507 --k 3", "TooLarge: p=3037000507 is too large"),
    ("catalog --query crcbibd --p 41 --k 4", "BadModulus: supported block sizes"),
    ("transform --in {tmp}/mismatch --kind sra --source cdf --out {tmp}/o.alist",
     MISMATCH_ERROR),
    ("transform --in {data}/crcbibd39.design --kind sra --source crcbibd --class-orbit 99 "
     "--out {tmp}/o.alist", "OutOfRange: class index 99 outside 0..18"),
    # the empty class is its own shift image, so its orbit is one class long
    ("transform --in {tmp}/empty_classes --trusted --kind sra --source crcbibd --class-orbit 0 "
     "--out {tmp}/o.alist", "PropertyViolation: class orbit has length 1, expected k=3"),
    ("simulate --h {tmp}/bad_alist --snr 3", "ValueError: alist: line 6:"),
    ("simulate --h {tmp}/fano_alist --snr=-inf", "ValueError: Eb/N0 point -inf dB has no"),
    ("simulate --h {tmp}/fano_alist --snr=-4000", "ValueError: Eb/N0 point -4000.0 dB has no"),
    ("simulate --h {tmp}/fano_alist --snr=3,4000", "ValueError: Eb/N0 point 4000.0 dB has no"),
    ("simulate --h {tmp}/fano_alist --snr=inf", "ValueError: Eb/N0 point inf dB has no"),
    ("simulate --h {tmp}/fano_alist --snr=3082", "ValueError: Eb/N0 point 3082.0 dB has no"),
    ("simulate --h {tmp}/fano_alist --snr=nan", "ValueError: Eb/N0 point nan dB has no"),
    ("verify --in {tmp}/mismatch", MISMATCH_ERROR),
    ("verify --in {tmp}/bad_point",
     "OutOfRange: design: line 3: block 3,9,-1 has a point outside 0..12"),
    ("export --in {tmp}/bad_class --out {tmp}/o.alist",
     "ValueError: design: line 73: resolution is invalid: ('class 0 does not partition"),
    ("encode --h {tmp}/fano_alist --message 120", "NotBinary: "),
    ("decode --h {tmp}/fano_alist --llr {tmp}/bad_llr", "ValueError: llr: line 1: token 2"),
    ("export --in {tmp}/mismatch --trusted --out {tmp}/o.alist", MISMATCH_ERROR),
    ("export --in {tmp}/absent.design --out {tmp}/o.alist", "FileNotFoundError: "),
])
def test_every_subcommand_rejects_bad_input_with_exit_1(tmp_path, argv, error):
    res = run_process(tmp_path, argv.split())
    assert res.returncode == 1, res.stderr
    assert res.stdout == "" and "Traceback" not in res.stderr
    assert res.stderr.startswith(error) and res.stderr.count("\n") == 1
    assert not (tmp_path / "o.alist").exists()


@pytest.mark.parametrize("argv,error", [
    ("construct --family buratti --p 13", "usage error: construct --family buratti needs --k"),
    ("construct --family netto",
     "bibdcodes construct: error: the following arguments are required: --p"),
    ("transform --in {data}/kts21.design --kind sra --source crcbibd --out {tmp}/o.alist",
     "usage error: transform --source crcbibd needs --class-orbit"),
    ("transform --in {data}/kts21.design --kind sra --source cdf --out {tmp}/o.alist",
     "usage error: cdf transforms need a design file with a 'cyclic base=' line"),
    ("transform --in {data}/kts21.design --kind wqra --source kts --g1 5 --out {tmp}/o.alist",
     "usage error: transform --g1 applies only to --kind wqra with --source cdf or crcbibd"),
    ("transform --in {data}/crcbibd39.design --kind sra --source crcbibd --class-orbit 13 "
     "--g1 1 --out {tmp}/o.alist",
     "usage error: transform --g1 applies only to --kind wqra with --source cdf or crcbibd"),
    ("transform --in {data}/kts21.design --kind sra --source kts --class-orbit 3 --g1 9 "
     "--out {tmp}/o.alist",
     "usage error: transform --g1 applies only to --kind wqra with --source cdf or crcbibd"),
    ("transform --in {data}/kts21.design --kind sra --source kts --class-orbit 3 "
     "--out {tmp}/o.alist",
     "usage error: transform --class-orbit applies only to --source crcbibd"),
    ("transform --in {tmp}/mismatch --kind wqra --source cdf --class-orbit 0 "
     "--out {tmp}/o.alist",
     "usage error: transform --class-orbit applies only to --source crcbibd"),
    ("verify --in {tmp}/fano_alist --checks girth,bogus", "usage error: unknown check 'bogus'"),
    # option values argparse rejects: empty lists and fields, counts below 1,
    # negative seeds
    ("simulate --h {tmp}/fano_alist --snr 3 --max-frames 0",
     "bibdcodes simulate: error: argument --max-frames: expected a positive count, got '0'"),
    ("simulate --h {tmp}/fano_alist --snr 3 --max-frames -1",
     "bibdcodes simulate: error: argument --max-frames: expected a positive count, got '-1'"),
    ("simulate --h {tmp}/fano_alist --snr 3 --min-frame-errors -5",
     "bibdcodes simulate: error: argument --min-frame-errors: expected a positive count, "
     "got '-5'"),
    ("simulate --h {tmp}/fano_alist --snr 3 --max-iterations 0",
     "bibdcodes simulate: error: argument --max-iterations: expected a positive count, got '0'"),
    ("simulate --h {tmp}/fano_alist --snr=",
     "bibdcodes simulate: error: argument --snr: expected a non-empty list of numbers, got ''"),
    ("simulate --h {tmp}/fano_alist --snr 3,,4",
     "bibdcodes simulate: error: argument --snr: expected a non-empty list of numbers, "
     "got '3,,4'"),
    ("simulate --h {tmp}/fano_alist --snr 3 --seed -1",
     "bibdcodes simulate: error: argument --seed: expected a non-negative seed, got '-1'"),
    ("verify --in {tmp}/fano_alist --checks=",
     "bibdcodes verify: error: argument --checks: expected a non-empty list of check names, "
     "got ''"),
    ("verify --in {tmp}/fano_alist --checks bibd,,girth",
     "bibdcodes verify: error: argument --checks: expected a non-empty list of check names, "
     "got 'bibd,,girth'"),
    ("verify --in {tmp}/fano_alist --checks mindist --cap -1",
     "bibdcodes verify: error: argument --cap: expected a positive count, got '-1'"),
    ("encode --h {tmp}/fano_alist --message=",
     "bibdcodes encode: error: argument --message: expected a non-empty string of digits, "
     "got ''"),
    ("encode --h {tmp}/fano_alist --seed -1",
     "bibdcodes encode: error: argument --seed: expected a non-negative seed, got '-1'"),
    ("decode --h {tmp}/fano_alist --llr {tmp}/bad_llr --max-iterations 0",
     "bibdcodes decode: error: argument --max-iterations: expected a positive count, got '0'"),
    ("transform --in {tmp}/mismatch --kind sra --source cdf --h1-classes 1,,2 "
     "--out {tmp}/o.alist",
     "bibdcodes transform: error: argument --h1-classes: expected a non-empty list of "
     "integers, got '1,,2'"),
])
def test_usage_errors_exit_2(tmp_path, argv, error):
    res = run_process(tmp_path, argv.split())
    assert res.returncode == 2 and "Traceback" not in res.stderr and res.stdout == ""
    if error.startswith("usage error: "):  # raised by the command, one line
        assert res.stderr.startswith(error) and res.stderr.count("\n") == 1
    else:  # argparse: the usage, then the error naming the option
        assert res.stderr.startswith("usage: bibdcodes ")
        assert res.stderr.splitlines()[-1] == error
    assert not (tmp_path / "o.alist").exists()


def test_verify_bibd_on_a_huge_empty_design(tmp_path, capsys):
    design = tmp_path / "f.design"
    design.write_text("design v=10000000 k=3 b=0\n")
    code, out, err = run(capsys, "verify", "--in", str(design), "--checks", "bibd")
    assert code == 1 and err == ""
    assert out == "bibd: FAIL lambda={0: 49999995000000} r=0 b=0\n"


def test_fixture_generator_rebuilds_the_committed_files():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", os.path.join(DATA_DIR, "..", "..", "scripts", "make_fixtures.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    before = {p: os.stat(os.path.join(DATA_DIR, p)).st_mtime_ns for p in os.listdir(DATA_DIR)}
    texts = module.fixture_texts()
    assert sorted(texts) == ["crcbibd39.design", "kts21.design"]
    for name, text in texts.items():
        with open(os.path.join(DATA_DIR, name), "rb") as f:
            assert text.encode() == f.read(), name
    after = {p: os.stat(os.path.join(DATA_DIR, p)).st_mtime_ns for p in os.listdir(DATA_DIR)}
    assert after == before
