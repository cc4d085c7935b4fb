"""Line-oriented design file format.

    # comments and blank lines are ignored
    design v=39 k=3 b=247
    cyclic base=0,3,12;...;0,13,26     (optional: the difference family)
    0,3,12                             (one block per line, comma separated)
    ...
    class 0: 0 39 78 117               (optional resolution classes,
    class 1: ...                        block indices into the list above)

The `cyclic` line lists the base blocks of a DifferenceFamily, each with
a full orbit of v translates except that the last may be the short-orbit
block 0,v/k,..,(k-1)v/k; the design's blocks are the family's expansion.
A file with a `cyclic` line and no block lines is a compact family
file, loaded without expanding it; a file with both must list exactly
that expansion, row for row. Loading verifies pair coverage unless
trusted=True is passed; the structure (header, points, the cyclic line,
classes) is checked in every mode.
"""

from __future__ import annotations

import numpy as np

from ..errors import OutOfRange
from ..matrices import regular_pairs
from .types import Design, DifferenceFamily, normalize_blocks, pair_keys, verify_bibd, verify_resolution


def format_design(d: Design, compact: bool = False) -> str:
    lines = [f"design v={d.v} k={d.k} b={d.b}"]
    if d.cyclic is not None:
        lines.append("cyclic base=" + ";".join(",".join(map(str, b)) for b in d.cyclic.orbit_bases))
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
    sizes, points, the cyclic line and resolution classes (block indices
    0..b-1, none in two places) are checked in every mode; trusted=True
    skips only the pair-coverage and parallel-class proofs. Malformed
    text raises ValueError("design: line N: ...")."""
    header = bases = None
    first: dict[str, int] = {}  # line of the design header and of the cyclic line
    blocks: dict[int, tuple] = {}  # line -> block
    classes: dict[int, tuple] = {}  # class index -> (line, members)
    classed: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word = line[:7]
        if word in ("design ", "cyclic "):
            if word in first:
                raise _line_error(lineno, f"{word}line given twice (first on line {first[word]})")
            first[word] = lineno
        if word == "design ":
            header = {}
            for part in line[len("design "):].split():
                key, eq, val = part.partition("=")
                if not eq:
                    raise _line_error(lineno, f"header field {part!r} is not key=value")
                if key in header:
                    raise _line_error(lineno, f"header field {key}= given twice")
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
        if word == "cyclic ":
            spec = line[len("cyclic "):].strip()
            if not spec.startswith("base="):
                raise _line_error(lineno, "expected 'cyclic base=...'")
            bases = [
                tuple(_int_token(x, lineno) for x in part.split(","))
                for part in spec[len("base="):].split(";")
                if part
            ]
            if any(len(base) != header["k"] for base in bases):
                raise _line_error(lineno, f"block size differs from header k={header['k']}")
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
            classes[idx] = (lineno, members)
            continue
        try:
            block = blocks[lineno] = tuple(map(int, line.split(",")))
        except ValueError:
            raise _line_error(lineno, f"block {line!r} is not a list of integers") from None
        if len(block) != header["k"]:
            raise _line_error(lineno, f"block size differs from header k={header['k']}")
    if header is None:
        raise ValueError("design: missing design header")
    v, k, b = header["v"], header["k"], header["b"]
    if (blocks or bases is None) and len(blocks) != b:
        raise _line_error(first["design "], f"header claims b={b} blocks, file has {len(blocks)}")
    cyclic = None if bases is None else _cyclic_family(bases, header, first["cyclic "])
    resolution = None
    if classes:
        for i, idx in enumerate(sorted(classes)):
            if idx != i:
                raise _line_error(classes[idx][0], f"class {idx} leaves a gap: class "
                                                   f"indices must be 0..r-1 without gaps")
        resolution = tuple(classes[i][1] for i in range(len(classes)))
    d = Design(v, k, _block_array(blocks, v, k) if cyclic is None else None, resolution, cyclic)
    if cyclic is not None:
        _check_expansion(d, first["cyclic "], blocks)
    if not trusted:
        report = verify_bibd(d)
        if not report.ok:
            raise _line_error(_coverage_line(d, first, blocks),
                              f"fails pair-coverage verification: {report.problems[:3]}"
                              f" lambda histogram {report.lambda_histogram}")
        if d.resolution is not None:
            res = verify_resolution(d)
            if not res.ok:
                # the first class that fails to partition the points, else the header
                bad = [i for i, hist in enumerate(res.class_histograms) if hist != {1: v}]
                line = classes[bad[0]][0] if bad else first["design "]
                raise _line_error(line, f"resolution is invalid: {res.problems[:3]}")
    return d


def _cyclic_family(bases, header: dict, lineno: int) -> DifferenceFamily:
    """The family of the `cyclic base=` line on line lineno; a last base
    0,v/k,..,(k-1)v/k is its short-orbit block."""
    v, k, b = header["v"], header["k"], header["b"]
    try:
        arr = normalize_blocks(bases, v, k)
    except ValueError as exc:
        raise _line_error(lineno, str(exc)) from None
    short = v % k == 0 and len(arr) > 0 and tuple(arr[-1]) == tuple(range(0, v, v // k))
    f = DifferenceFamily(v, k, arr[:-1] if short else arr, has_short_orbit_block=short)
    if sum(f.orbit_lengths) != b:  # counted before anything is expanded
        raise _line_error(lineno, f"cyclic base= expands to {sum(f.orbit_lengths)} blocks, "
                                  f"the header claims b={b}")
    return f


def _block_array(blocks: dict, v: int, k: int) -> np.ndarray:
    """The block lines (line -> block) as one normalize_blocks array; a
    point outside 0..v-1 or a repeated point names its line."""
    try:
        return normalize_blocks(list(blocks.values()), v, k)
    except (OutOfRange, ValueError):
        for line, block in blocks.items():
            if not all(0 <= x < v for x in block):
                raise OutOfRange(f"design: line {line}: block {','.join(map(str, block))} "
                                 f"has a point outside 0..{v - 1}") from None
        for line, block in blocks.items():
            if len(set(block)) < len(block):
                raise _line_error(line, f"block {','.join(map(str, block))} "
                                        f"has repeated points") from None
        raise


def _check_expansion(d: Design, lineno: int, blocks: dict) -> None:
    """Every full-orbit base of d.cyclic has v distinct translates, and the
    block lines (line -> block), if any, are d's blocks row for row. Only
    block lines make d expand."""
    f = d.cyclic
    base = f.base
    # B + s = B puts b_0 + s in B, so only the shifts s = b_i - b_0 can fix B
    shifts = (base[:, 1:] - base[:, :1]) % f.v
    moved = np.sort((base[:, None, :] + shifts[:, :, None]) % f.v, axis=2)
    fixed = (moved == base[:, None, :]).all(axis=2).any(axis=1)
    if fixed.any():
        base = ",".join(map(str, f.base_blocks[int(fixed.argmax())]))
        raise _line_error(lineno, f"base {base} has an orbit shorter than v={f.v}; only "
                                  f"0,v/k,..,(k-1)v/k may, as the last base")
    if blocks:
        differs = (_block_array(blocks, f.v, f.k) != d.array).any(axis=1)
        if differs.any():
            row = int(differs.argmax())
            line, block = list(blocks.items())[row]
            raise _line_error(line, f"block {','.join(map(str, block))} is not row {row} of "
                                    f"the cyclic expansion, {','.join(map(str, d.array[row]))}")


def _coverage_line(d: Design, first: dict, blocks: dict) -> int:
    """The line a pair-coverage failure names: the cyclic line, else the
    first block line holding a pair covered twice, else the header. The
    pairs are verify_bibd's sorted pair keys; the blocks are searched for
    the repeated ones a column pair at a time."""
    if d.cyclic is not None:
        return first["cyclic "]
    points, n, _, keys = pair_keys(d.array, d.v)
    twice = np.unique(keys[1:][keys[1:] == keys[:-1]]).astype(np.int64)
    del keys
    held = np.zeros(d.b, dtype=bool)
    for x, y in regular_pairs(points):
        held |= np.isin(x * n + y, twice)
    return list(blocks)[int(held.argmax())] if held.any() else first["design "]


def write_design(path, d: Design, compact: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_design(d, compact=compact))


def read_design(path, trusted: bool = False) -> Design:
    with open(path, "r", encoding="utf-8") as f:
        return parse_design(f.read(), trusted=trusted)
