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
trusted=True is passed; the structure (header, points, resolution
classes) is checked in every mode.
"""

from __future__ import annotations

from .types import (
    CyclicStructure,
    Design,
    block_tuples,
    expand_orbits,
    normalize_blocks,
    verify_bibd,
    verify_resolution,
)


def format_design(d: Design, compact: bool = False) -> str:
    lines = [f"design v={d.v} k={d.k} b={d.b}"]
    if d.cyclic is not None:
        bases = ";".join(",".join(str(x) for x in b) for b in d.cyclic.base_blocks)
        lines.append(f"cyclic base={bases}")
    if compact:
        if d.cyclic is None:
            raise ValueError("compact design files need cyclic base blocks")
    else:
        lines.extend(",".join(map(str, blk)) for blk in d.array.tolist())
    if d.resolution is not None:
        for i, cls in enumerate(d.resolution):
            lines.append(f"class {i}: " + " ".join(str(b) for b in cls))
    return "\n".join(lines) + "\n"


def _line_error(lineno: int, what: str) -> ValueError:
    return ValueError(f"design: line {lineno}: {what}")


def _int_token(token: str, lineno: int) -> int:
    """A header, base-block or class integer, checked to fit in int64."""
    try:
        value = int(token)
    except ValueError:
        raise _line_error(lineno, f"{token!r} is not an integer") from None
    if not -(2**63) <= value < 2**63:
        raise _line_error(lineno, f"{token} does not fit in int64")
    return value


def parse_design(text: str, trusted: bool = False) -> Design:
    """Parse the design file format. The header (1 <= k <= v), block
    sizes, points and resolution classes (block indices 0..b-1, none in
    two places) are checked in every mode; trusted=True skips only the
    pair-coverage and parallel-class proofs. Malformed text raises
    ValueError("design: line N: ...")."""
    header = None
    header_line = 0
    base_blocks = None
    blocks: list[tuple] = []
    classes: dict[int, tuple] = {}
    classed: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("design "):
            header, header_line = {}, lineno
            for part in line[len("design "):].split():
                key, eq, val = part.partition("=")
                if not eq:
                    raise _line_error(lineno, f"header field {part!r} is not key=value")
                header[key] = _int_token(val, lineno)
            for key in ("v", "k", "b"):
                if key not in header:
                    raise _line_error(lineno, f"design header lacks {key}=")
            if header["v"] < 1 or not 1 <= header["k"] <= header["v"]:
                raise _line_error(lineno, f"header needs v >= 1 and 1 <= k <= v, "
                                          f"got v={header['v']} k={header['k']}")
            continue
        if header is None:
            raise _line_error(lineno, "content before the design header")
        if line.startswith("cyclic "):
            spec = line[len("cyclic "):].strip()
            if not spec.startswith("base="):
                raise _line_error(lineno, "expected 'cyclic base=...'")
            base_blocks = [
                tuple(_int_token(x, lineno) for x in part.split(","))
                for part in spec[len("base="):].split(";")
                if part
            ]
            continue
        if line.startswith("class "):
            head, _, tail = line.partition(":")
            idx = _int_token(head[len("class "):], lineno)
            if idx in classes:
                raise _line_error(lineno, f"class {idx} is given twice")
            members = tuple(_int_token(x, lineno) for x in tail.split())
            for i in members:
                if not 0 <= i < header["b"]:
                    raise _line_error(lineno, f"block index {i} is outside 0..{header['b'] - 1}")
                if i in classed:
                    raise _line_error(lineno, f"block index {i} is in two classes")
                classed.add(i)
            classes[idx] = members
            continue
        try:
            blocks.append(tuple(int(x) for x in line.split(",")))
        except ValueError:
            raise _line_error(lineno, f"block {line!r} is not a list of integers") from None
    if header is None:
        raise ValueError("design: missing design header")
    v, k, b = header["v"], header["k"], header["b"]

    if any(len(blk) != k for blk in blocks + (base_blocks or [])):
        raise ValueError("block size differs from header k")
    cyclic = None
    if base_blocks is not None:
        bases = normalize_blocks(base_blocks, v, k)
        orbits, orbit_lengths = expand_orbits(bases, v)
        if not blocks:
            blocks = orbits
        cyclic = CyclicStructure(block_tuples(bases), orbit_lengths)

    if len(blocks) != b:
        raise _line_error(header_line, f"header claims b={b} blocks, file has {len(blocks)}")
    resolution = None
    if classes:
        if sorted(classes) != list(range(len(classes))):
            raise ValueError("class indices must be 0..r-1 without gaps")
        resolution = tuple(classes[i] for i in range(len(classes)))
    d = Design(v=v, k=k, blocks=blocks, resolution=resolution, cyclic=cyclic)
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
