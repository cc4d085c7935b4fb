"""Command-line surface: construct, verify, transform, simulate, and
friends, glued together by plain text files (design files, alist, CSV).

Every command that writes an output also writes `<out>.manifest.json`
recording the command line, package version, input/output hashes,
seeds and the environment (Python and numpy versions, platform, usable
cores), so published artifacts can be regenerated bit for bit.

Exit codes: 0 success, 1 domain error, malformed or unreadable input
(printed as `ErrorName: detail`), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import sys

import numpy as np

from . import __version__
from .alist import read_alist, write_alist
from .codec import (
    DecoderConfig,
    EncoderState,
    ber_campaign,
    records_to_csv,
    sum_product_decode,
)
from .designs import (
    cdf_exists,
    crcbibd_exists,
    expand_cdf_to_design,
    ldpc_parameters,
    netto_cdf,
    buratti_cdf,
    radical_df_search,
    rbibd_existence_status,
    read_design,
    verify_bibd,
    verify_resolution,
    write_design,
)
from .errors import BibdCodesError
from .matrices import (
    code_dimensions,
    girth_with_witness,
    incidence_matrix,
    min_distance_exhaustive,
    regularity,
)
from .ra import (
    sra_from_cdf,
    sra_from_crcbibd,
    sra_from_kts,
    w3ra_from_kts,
    wqra_from_cdf,
    wqra_from_crcbibd,
    write_ra,
)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path: str, args: argparse.Namespace, inputs, outputs, seed=None):
    manifest = {
        "command": args.command,
        "argv": sys.argv[1:],
        "version": __version__,
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": {p: _sha256(p) for p in outputs},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    if seed is not None:
        manifest["seed"] = seed
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _usage(message: str) -> "SystemExit":
    print(f"usage error: {message}", file=sys.stderr)
    return SystemExit(2)


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.replace(",", " ").split()]


# --- subcommands ----------------------------------------------------------


def cmd_construct(args) -> int:
    if args.family == "netto":
        fam = netto_cdf(args.p)
    elif args.family == "buratti":
        if args.k is None:
            raise _usage("construct --family buratti needs --k 4 or 5")
        fam = buratti_cdf(args.p, args.k)
    elif args.family == "rdf":
        if args.k is None:
            raise _usage("construct --family rdf needs an odd --k")
        fam = radical_df_search(args.p, args.k)
    else:  # pragma: no cover - argparse restricts choices
        raise _usage(f"unknown family {args.family}")
    design = expand_cdf_to_design(fam)
    params = ldpc_parameters(design.v, design.k, design.r)
    print(f"({params.k}, r={params.r}), N={params.n}, rate_bound={params.rate_bound:.2f}")
    if args.expand:
        dims = code_dimensions(incidence_matrix(design))
        print(f"exact: rank={dims.rank}, K={dims.k}, R={dims.rate:.4f}")
    if args.out:
        write_design(args.out, design, compact=not args.expand)
        _write_manifest(args.out, args, inputs=[], outputs=[args.out])
    return 0


def cmd_catalog(args) -> int:
    if args.query == "rbibd":
        if args.v is None:
            raise _usage("catalog --query rbibd needs --v")
        status = rbibd_existence_status(args.v, args.k)
    elif args.query == "crcbibd":
        if args.p is None:
            raise _usage("catalog --query crcbibd needs --p")
        status = crcbibd_exists(args.p, args.k)
    else:  # cdf
        if args.p is None:
            raise _usage("catalog --query cdf needs --p")
        status = cdf_exists(args.p, args.k)
    print(status)
    return 0


def cmd_transform(args) -> int:
    if args.g1 is not None and (args.kind == "sra" or args.source == "kts"):
        raise _usage("transform --g1 applies only to --kind wqra with --source cdf or crcbibd")
    if args.class_orbit is not None and args.source != "crcbibd":
        raise _usage("transform --class-orbit applies only to --source crcbibd")
    g1 = 1 if args.g1 is None else args.g1
    design = read_design(args.infile, trusted=args.trusted)
    h1 = _int_list(args.h1_classes) if args.h1_classes else []
    if args.source == "cdf":
        if design.cyclic is None:
            raise _usage("cdf transforms need a design file with a 'cyclic base=' line")
        if args.kind == "sra":
            ra = sra_from_cdf(design.cyclic, h1_orbits=h1)
        else:
            ra = wqra_from_cdf(design.cyclic, g1=g1, h1_orbits=h1)
    elif args.source == "kts":
        if args.kind == "sra":
            ra = sra_from_kts(design, h1_classes=h1)
        else:
            ra = w3ra_from_kts(design, h1_classes=h1)
    else:  # crcbibd
        if args.class_orbit is None:
            raise _usage("transform --source crcbibd needs --class-orbit")
        if args.kind == "sra":
            ra = sra_from_crcbibd(design, class_orbit=args.class_orbit, h1_classes=h1)
        else:
            ra = wqra_from_crcbibd(
                design, class_orbit=args.class_orbit, g1=g1, h1_classes=h1
            )
    n = ra.k + ra.m
    print(f"[N={n}, K={ra.k}, R={ra.k / n:.4f}, q={ra.q}]")
    write_ra(args.out, ra)
    _write_manifest(args.out, args, inputs=[args.infile], outputs=[args.out, f"{args.out}.meta"])
    return 0


def cmd_simulate(args) -> int:
    h = read_alist(args.h)
    decoder = DecoderConfig(max_iterations=args.max_iterations)
    records = ber_campaign(
        h,
        _float_list(args.snr),
        seed=args.seed,
        min_frame_errors=args.min_frame_errors,
        max_frames=args.max_frames,
        decoder=decoder,
    )
    csv = records_to_csv(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(csv)
        _write_manifest(args.out, args, inputs=[args.h], outputs=[args.out], seed=args.seed)
    else:
        sys.stdout.write(csv)
    return 0


def _looks_like_design_file(path: str) -> bool:
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            return line.startswith("design ")
    return False


def cmd_verify(args) -> int:
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    design = matrix = None
    if _looks_like_design_file(args.infile):
        design = read_design(args.infile, trusted=True)
    else:
        matrix = read_alist(args.infile)
    # a design's incidence matrix is built only for the checks that read it
    h = functools.cache(lambda: incidence_matrix(design) if matrix is None else matrix)
    failures = 0
    for check in checks:
        if check == "bibd":
            if design is None:
                print("bibd: skip (matrix input)")
                continue
            rep = verify_bibd(design)
            _report("bibd", rep.ok, f"lambda={rep.lambda_histogram} r={rep.r} b={rep.b}"
                    + (f" problems={list(rep.problems)}" if rep.problems else ""))
            failures += not rep.ok
        elif check == "resolution":
            if design is None or design.resolution is None:
                print("resolution: skip (no resolution present)")
                continue
            rep = verify_resolution(design)
            _report("resolution", rep.ok,
                    f"classes={len(design.resolution)}"
                    + (f" problems={list(rep.problems)}" if rep.problems else ""))
            failures += not rep.ok
        elif check == "girth":
            g, witness = girth_with_witness(h())
            ok = g >= 6
            detail = f"girth={g}"
            if not ok and witness:
                detail += f" witness={'-'.join(witness)}"
            _report("girth", ok, detail)
            failures += not ok
        elif check == "rank":
            dims = code_dimensions(h())
            _report("rank", True, f"rank={dims.rank} K={dims.k} R={dims.rate:.4f}")
        elif check == "regularity":
            reg = regularity(h())
            if reg.is_regular:
                print(f"regularity: regular column_weight={reg.column_weight} "
                      f"row_weight={reg.row_weight}")
            else:
                print(f"regularity: mixed columns={reg.column_histogram} "
                      f"rows={reg.row_histogram}")
        elif check == "mindist":
            d = min_distance_exhaustive(h(), cap=args.cap)
            bound = (design.k + 1) if design is not None else None
            if d is None:
                _report("mindist", True, f"above cap {args.cap}")
            else:
                ok = bound is None or d >= bound
                _report("mindist", ok, f"d={d}" + (f" bound={bound}" if bound else ""))
                failures += not ok
        else:
            raise _usage(f"unknown check {check!r}")
    return 1 if failures else 0


def _report(name: str, ok: bool, detail: str):
    print(f"{name}: {'pass' if ok else 'FAIL'} {detail}")


def cmd_encode(args) -> int:
    h = read_alist(args.h)
    enc = EncoderState.from_parity_check(h)
    if args.message:
        bits = np.array([int(c) for c in args.message.strip()], dtype=np.uint8)
    else:
        rng = np.random.default_rng(args.seed)
        bits = rng.integers(0, 2, size=enc.k, dtype=np.uint8)
    cw = enc.encode(bits)
    out = "".join(str(int(b)) for b in cw)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(out + "\n")
        _write_manifest(args.out, args, inputs=[args.h], outputs=[args.out], seed=args.seed)
    else:
        print(out)
    print(f"K={enc.k} N={enc.n}", file=sys.stderr)
    return 0


def _read_llrs(path: str) -> np.ndarray:
    """Whitespace-separated LLRs; a token that is not a number raises
    ValueError naming its line, its position in the file and its text."""
    values = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            for token in line.split():
                try:
                    values.append(float(token))
                except ValueError:
                    raise ValueError(f"llr: line {lineno}: token {len(values) + 1} "
                                     f"{token!r} is not a number") from None
    return np.array(values, dtype=np.float64)


def cmd_decode(args) -> int:
    h = read_alist(args.h)
    llr = _read_llrs(args.llr)
    res = sum_product_decode(h, llr, DecoderConfig(max_iterations=args.max_iterations))
    out = "".join(str(int(b)) for b in res.bits)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(out + "\n")
        _write_manifest(args.out, args, inputs=[args.h, args.llr], outputs=[args.out])
    else:
        print(out)
    print(f"converged={res.converged} iterations={res.iterations}", file=sys.stderr)
    return 0


def cmd_export(args) -> int:
    design = read_design(args.infile, trusted=args.trusted)
    write_alist(args.out, incidence_matrix(design))
    _write_manifest(args.out, args, inputs=[args.infile], outputs=[args.out])
    print(f"wrote {args.out}: {design.v} x {design.b}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bibdcodes",
        description="Design-based LDPC and repeat-accumulate code toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a difference family and its design")
    p.add_argument("--family", choices=["netto", "buratti", "rdf"], required=True)
    p.add_argument("--p", type=int, required=True, help="prime modulus")
    p.add_argument("--k", type=int, help="block size (buratti: 4 or 5; rdf: odd)")
    p.add_argument("--expand", action="store_true",
                   help="write all translates and report the exact rank/rate")
    p.add_argument("--out", help="design file to write")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("catalog", help="existence lookup for design classes")
    p.add_argument("--query", choices=["rbibd", "crcbibd", "cdf"], required=True)
    p.add_argument("--v", type=int, help="point count (rbibd)")
    p.add_argument("--p", type=int, help="prime (crcbibd, cdf)")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("transform", help="design file to RA parity check (alist)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kind", choices=["sra", "wqra"], required=True)
    p.add_argument("--source", choices=["cdf", "kts", "crcbibd"], required=True)
    p.add_argument("--g1", type=int,
                   help="first tap distance for wqra from cdf or crcbibd (default 1)")
    p.add_argument("--h1-classes", dest="h1_classes",
                   help="orbit indices (cdf, 1-based) or class indices (kts/crcbibd, 0-based)")
    p.add_argument("--class-orbit", dest="class_orbit", type=int,
                   help="index of a class inside the accumulator class orbit (crcbibd)")
    p.add_argument("--trusted", action="store_true", help="skip verification on load")
    p.add_argument("--out", required=True, help="alist file to write")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("simulate", help="Monte Carlo BER over an SNR sweep")
    p.add_argument("--h", required=True, help="parity check in alist format")
    p.add_argument("--snr", required=True, help="comma-separated Eb/N0 points in dB")
    p.add_argument("--min-frame-errors", type=int, default=100)
    p.add_argument("--max-frames", type=int, default=1_000_000)
    p.add_argument("--max-iterations", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV file to write (stdout if omitted)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="structural checks on a design or alist")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--checks", default="bibd,resolution,girth,rank,regularity",
                   help="comma-separated: bibd,resolution,girth,rank,regularity,mindist")
    p.add_argument("--cap", type=int, help="weight cap for the mindist search")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("encode", help="systematic encoding against an alist")
    p.add_argument("--h", required=True)
    p.add_argument("--message", help="bit string; random message if omitted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="sum-product decoding of an LLR file")
    p.add_argument("--h", required=True)
    p.add_argument("--llr", required=True, help="whitespace-separated channel LLRs")
    p.add_argument("--max-iterations", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("export", help="design file to incidence-matrix alist")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--trusted", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BibdCodesError, ValueError, OSError) as exc:  # domain error, bad or unreadable input
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
