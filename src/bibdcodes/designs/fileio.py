"""Line-oriented design file format.

    # comments and blank lines are ignored
    design v=39 k=3 b=247
    cyclic base=0,3,12;0,6,24          (optional orbit metadata)
    0,3,12                             (one block per line, comma separated)
    ...
    class 0: 0 39 78 117               (optional resolution classes,
    class 1: ...                        block indices into the list above)

A file that has a `cyclic` line and no block lines is a compact family
file: the parser expands every base block to its distinct translates
(base-block-major, shift-minor), which reproduces the canonical block
order of expand_cdf_to_design. Loading verifies pair coverage unless
trusted=True is passed.
"""

from __future__ import annotations

from .types import CyclicStructure, Design, normalize_block, verify_bibd, verify_resolution


def _orbit(base, v: int) -> list:
    seen = []
    for shift in range(v):
        t = tuple(sorted((x + shift) % v for x in base))
        if t in seen:
            break
        seen.append(t)
    return seen


def format_design(d: Design, compact: bool = False) -> str:
    lines = [f"design v={d.v} k={d.k} b={d.b}"]
    if d.cyclic is not None:
        bases = ";".join(",".join(str(x) for x in b) for b in d.cyclic.base_blocks)
        lines.append(f"cyclic base={bases}")
    if compact:
        if d.cyclic is None:
            raise ValueError("compact design files need cyclic base blocks")
    else:
        for blk in d.blocks:
            lines.append(",".join(str(x) for x in blk))
    if d.resolution is not None:
        for i, cls in enumerate(d.resolution):
            lines.append(f"class {i}: " + " ".join(str(b) for b in cls))
    return "\n".join(lines) + "\n"


def parse_design(text: str, trusted: bool = False) -> Design:
    header = None
    base_blocks = None
    blocks: list[tuple] = []
    classes: dict[int, tuple] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("design "):
            fields = dict(part.split("=", 1) for part in line[len("design "):].split())
            header = {key: int(val) for key, val in fields.items()}
            continue
        if header is None:
            raise ValueError(f"line {lineno}: content before the design header")
        if line.startswith("cyclic "):
            spec = line[len("cyclic "):].strip()
            if not spec.startswith("base="):
                raise ValueError(f"line {lineno}: expected 'cyclic base=...'")
            base_blocks = [
                tuple(int(x) for x in part.split(","))
                for part in spec[len("base="):].split(";")
                if part
            ]
            continue
        if line.startswith("class "):
            head, _, tail = line.partition(":")
            idx = int(head[len("class "):])
            classes[idx] = tuple(int(x) for x in tail.split())
            continue
        blocks.append(tuple(int(x) for x in line.split(",")))
    if header is None:
        raise ValueError("missing design header")
    for key in ("v", "k", "b"):
        if key not in header:
            raise ValueError(f"design header lacks {key}=")
    v, k, b = header["v"], header["k"], header["b"]

    cyclic = None
    if base_blocks is not None:
        bases = [normalize_block(blk, v) for blk in base_blocks]
        if not blocks:
            for base in bases:
                blocks.extend(_orbit(base, v))
        cyclic = CyclicStructure(tuple(bases), tuple(len(_orbit(base, v)) for base in bases))

    if len(blocks) != b:
        raise ValueError(f"header claims b={b} blocks, file has {len(blocks)}")
    resolution = None
    if classes:
        if sorted(classes) != list(range(len(classes))):
            raise ValueError("class indices must be 0..r-1 without gaps")
        resolution = tuple(classes[i] for i in range(len(classes)))
    d = Design(v=v, k=k, blocks=tuple(blocks), resolution=resolution, cyclic=cyclic)
    if any(len(blk) != k for blk in d.blocks):
        raise ValueError("block size differs from header k")
    if not trusted:
        report = verify_bibd(d)
        if not report.ok:
            raise ValueError(f"design fails pair-coverage verification: {report.problems[:3]}"
                             f" lambda histogram {report.lambda_histogram}")
        if d.resolution is not None:
            res = verify_resolution(d)
            if not res.ok:
                raise ValueError(f"design resolution is invalid: {res.problems[:3]}")
    return d


def write_design(path, d: Design, compact: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_design(d, compact=compact))


def read_design(path, trusted: bool = False) -> Design:
    with open(path, "r", encoding="utf-8") as f:
        return parse_design(f.read(), trusted=trusted)
