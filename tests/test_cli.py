import json
import os

import pytest

from bibdcodes.cli import main
from bibdcodes.designs import read_design

from conftest import DATA_DIR


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
        rows = h.col_rows[39 + i]
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
    assert "converged=True" in stderr
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
