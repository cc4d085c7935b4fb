import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from bibdcodes import alist
from bibdcodes.alist import _format_lines, from_alist, to_alist
from bibdcodes.designs import expand_cdf_to_design, netto_cdf
from bibdcodes.matrices import SparseBinaryMatrix, incidence_matrix

from oracles import col_rows, row_cols


def test_known_small_alist():
    m = SparseBinaryMatrix(2, 3, [(0,), (0, 1), (1,)])
    text = to_alist(m)
    assert text == (
        "3 2\n"
        "2 2\n"
        "1 2 1\n"
        "2 2\n"
        "1 0\n"
        "1 2\n"
        "2 0\n"
        "1 2\n"
        "2 3\n"
    )
    assert from_alist(text) == m


def test_roundtrip_is_byte_identical():
    h = incidence_matrix(expand_cdf_to_design(netto_cdf(13)))
    text = to_alist(h)
    assert to_alist(from_alist(text)) == text


def test_accepts_loose_whitespace():
    m = SparseBinaryMatrix(2, 2, [(0, 1), (1,)])
    text = to_alist(m).replace("\n", "\n\n").replace(" ", "  ")
    assert from_alist(text) == m


def test_rejects_inconsistent_row_section():
    m = SparseBinaryMatrix(2, 2, [(0, 1), (1,)])
    lines = to_alist(m).splitlines()
    assert lines[-2] == "1 0"
    lines[-2] = "1 2"  # row 0 claims both columns; column data disagrees
    with pytest.raises(ValueError):
        from_alist("\n".join(lines) + "\n")


def test_rejects_weight_mismatch():
    with pytest.raises(ValueError):
        from_alist("2 2\n1 1\n1 1\n1 1\n1\n0\n1\n1\n")


def _random_matrix(rows, cols, seed):
    rng = random.Random(seed)
    col_rows = []
    for _ in range(cols):
        weight = rng.randint(0, rows)
        col_rows.append(tuple(sorted(rng.sample(range(rows), weight))))
    return SparseBinaryMatrix(rows, cols, col_rows)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**30 - 1))
def test_roundtrip_random_matrices(rows, cols, seed):
    m = _random_matrix(rows, cols, seed)
    text = to_alist(m)
    assert from_alist(text) == m
    assert to_alist(from_alist(text)) == text


def _to_alist_reference(m):
    """The per-entry export the array formatter replaces."""
    col_w, row_w = m.column_weights(), np.diff(m.row_ptr).tolist()
    max_c, max_r = max(col_w, default=0), max(row_w, default=0)
    lines = [f"{m.cols} {m.rows}", f"{max_c} {max_r}",
             " ".join(map(str, col_w)), " ".join(map(str, row_w))]
    lines += [" ".join([str(r + 1) for r in rs] + ["0"] * (max_c - len(rs))) for rs in col_rows(m)]
    lines += [" ".join([str(c + 1) for c in cs] + ["0"] * (max_r - len(cs))) for cs in row_cols(m)]
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 2**30 - 1))
def test_export_matches_per_entry_reference(rows, cols, seed):
    m = _random_matrix(rows, cols, seed)
    assert to_alist(m) == _to_alist_reference(m)


def _format_reference(a):
    return "".join(" ".join(map(str, row)) + "\n" for row in a.tolist())


# 0, 9, 10, 99, 100, .., 10^17, 10^18 - 1: every width from 1 to 18 digits
_BOUNDARIES = sorted([0] + [10**k - 1 for k in range(1, 19)] + [10**k for k in range(1, 18)])


@pytest.mark.parametrize("top", _BOUNDARIES)
def test_format_lines_at_power_of_ten_boundaries(top):
    # the widest value sets the cell width; shorter values and zero padding fill the rest
    a = np.array([[x, 0, 0] for x in _BOUNDARIES if x <= top] + [[0, 0, top]], dtype=np.int64)
    assert _format_lines(a) == _format_reference(a)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 0)])
def test_format_lines_of_empty_shapes(shape):
    a = np.zeros(shape, dtype=np.int64)
    assert _format_lines(a) == _format_reference(a)


@settings(max_examples=200, deadline=None)
@given(arrays(np.int64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
              elements=st.integers(0, 10**18 - 1)))
def test_format_lines_matches_per_value_reference(a):
    assert _format_lines(a) == _format_reference(a)


def test_netto997_round_trip_peak_memory():
    h = incidence_matrix(expand_cdf_to_design(netto_cdf(997)))
    tracemalloc.start()
    try:
        text = to_alist(h)
        export_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        loaded = from_alist(text)
        import_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert loaded == h
    # 5.4 MB of text: export peaked at 6x it with an int64 length per
    # value and a keep-mask, then at 3.69x with a whole section's cells
    # and their copies alive. Import peaked at nearly 10x it with every
    # byte mask and an int64 array of token boundaries alive at once,
    # then at 5.0x in the tokenizer (the encoded bytes, the separator
    # mask and one check mask), then at 2.55x once the scan held no
    # array longer than a block but two int64 per line and the column
    # and row sections were read apart. Now export formats about _BLOCK
    # values at a time and joins the pieces once (2.0x: the pieces and
    # the text), and import checks the row section a stretch of lines at
    # a time (2.45x). Each export piece now takes its cells from a table
    # of the section's values 0..top, formatted once and dropped with the
    # section's last piece: still 2.0x, and to_alist went 1.70-1.86x
    # faster, 31.8-42.9 ms to 17.4-25.3 ms (medians of 21 calls
    # alternating with the old export in one process, 3 processes, a
    # shared 2 vCPU Xeon)
    assert export_peak < 2.2 * len(text)
    assert import_peak < 2.6 * len(text)


# --- error contract: every malformed file is a ValueError("alist: ...") --------


def _edit(line, text):
    """The alist of [(0,), (0, 1)] with 1-based line replaced by text
    (dropped when text is None, appended past the end)."""
    lines = to_alist(SparseBinaryMatrix(2, 2, [(0,), (0, 1)])).splitlines()
    assert lines == ["2 2", "2 2", "1 2", "2 1", "1 0", "1 2", "1 2", "2 0"]
    lines[line - 1 : line] = [] if text is None else [text]
    return "\n".join(lines) + "\n"


def _rows_edited(edits):
    """The alist of a 3x3 matrix with 1-based row lines 8.. replaced."""
    lines = to_alist(SparseBinaryMatrix(3, 3, [(0, 1), (1, 2), (0, 2)])).splitlines()
    assert lines[7:] == ["1 3", "1 2", "2 3"]
    for line, text in edits.items():
        lines[line - 1] = text
    return "\n".join(lines) + "\n"


_MALFORMED = [
    # declares max row weight 1 but row 0 has weight 2
    ("2 1\n1 1\n1 1\n2\n1\n1\n1 2\n",
     "alist: line 2: declared maximum row weight 1, but the row weights reach 2"),
    ("2 1\n2 2\n1 1\n2\n1\n1\n1 2\n",
     "alist: line 2: declared maximum column weight 2, but the column weights reach 1"),
    # the rest alter the alist of [(0,), (0, 1)]: one line changed, dropped or added
    (_edit(5, "1 0 0"), "alist: line 5: 3 indices for column 0, more than the declared maximum 2"),
    (_edit(8, "2 0 0"), "alist: line 8: 3 indices for row 1, more than the declared maximum 2"),
    (_edit(6, "1 x"), "alist: line 6: token 'x' is not a non-negative integer"),
    (_edit(6, "1 2.0"), "alist: line 6: token '2.0' is not a non-negative integer"),
    (_edit(3, "1 -2"), "alist: line 3: token '-2' is not a non-negative integer"),
    (_edit(5, "1234567890123456789"),
     "alist: line 5: token '1234567890123456789' is too large"),
    (_edit(1, "2 2 2"), "alist: line 1: the size line needs 2 fields, got 3"),
    ("", "alist: truncated header: the size line is missing"),
    (_edit(3, "1 2 1"), "alist: line 3: the column weight line needs 2 fields, got 3"),
    (_edit(8, None), "alist: missing index lines: 2 row lines expected, 1 found"),
    (_edit(6, "1 3"), "alist: line 6: row index out of range in column 1"),
    (_edit(6, "1 1"), "alist: line 6: duplicate entry in column 1"),
    (_edit(4, "1 2"), "alist: line 4: row 0 has weight 1, the column data gives 2"),
    (_edit(8, "3 0"), "alist: line 8: column index out of range in row 1"),
    (_edit(8, "1 0"), "alist: line 8: row 1 disagrees with column data"),
    (_edit(9, "1"), "alist: line 9: unexpected line after the row section"),
    # rows 0 and 2 begin 8 chars apart, so in different stretches of row
    # lines at every small _BLOCK: a weight is checked in every stretch
    # before an index range or a row mirror in any
    (_rows_edited({8: "1 2", 10: "2 0"}), "alist: line 10: row 2 has 1 indices, its weight is 2"),
    (_rows_edited({8: "1 4", 10: "2 0"}), "alist: line 10: row 2 has 1 indices, its weight is 2"),
    (_rows_edited({8: "1 2", 10: "2 4"}), "alist: line 10: column index out of range in row 2"),
    (_rows_edited({8: "1 4", 10: "1 3"}), "alist: line 8: column index out of range in row 0"),
    (_rows_edited({8: "1 2", 10: "1 3"}), "alist: line 8: row 0 disagrees with column data"),
    (_rows_edited({8: "3 1", 10: "3 1"}), "alist: line 10: row 2 disagrees with column data"),
]


@pytest.mark.parametrize("text,message", _MALFORMED)
def test_rejects_malformed_text_naming_the_line(text, message):
    with pytest.raises(ValueError) as err:
        from_alist(text)
    assert str(err.value) == message


# the scan checks _BLOCK bytes at a time, and the reads take the lines
# that begin in one block: blocks of a few bytes split every token
_SMALL_BLOCKS = [1, 2, 3, 5]


@pytest.mark.parametrize("block", _SMALL_BLOCKS)
@pytest.mark.parametrize("text,message", _MALFORMED)
def test_small_blocks_name_the_same_line(text, message, block, monkeypatch):
    monkeypatch.setattr(alist, "_BLOCK", block)
    with pytest.raises(ValueError) as err:
        from_alist(text)
    assert str(err.value) == message


@pytest.mark.parametrize("block", _SMALL_BLOCKS)
@pytest.mark.parametrize("edit", [
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t.replace(" ", "\t"),
    lambda t: t.replace("\n", "\n\n").replace(" ", "  "),
    lambda t: "\n \n" + t.replace("\n", " \n\t\n"),
], ids=["crlf", "tabs", "blank-lines", "leading-blank-lines"])
def test_small_blocks_read_loose_whitespace(edit, block, monkeypatch):
    h = incidence_matrix(expand_cdf_to_design(netto_cdf(13)))
    text = edit(to_alist(h))
    assert from_alist(text) == h
    monkeypatch.setattr(alist, "_BLOCK", block)
    assert from_alist(text) == h


def _export_fixtures():
    yield SparseBinaryMatrix(2, 3, [(0,), (0, 1), (1,)])
    yield SparseBinaryMatrix(3, 3, [(0, 1, 2), (1,), ()])
    yield SparseBinaryMatrix(0, 2, [(), ()])
    yield incidence_matrix(expand_cdf_to_design(netto_cdf(13)))
    for seed in range(6):
        yield _random_matrix(9, 11, seed)


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_export_pieces_join_to_the_same_text(chunk, kts21, crcbibd39, tmp_path, monkeypatch):
    fixtures = [*_export_fixtures(), incidence_matrix(kts21), incidence_matrix(crcbibd39)]
    texts = [to_alist(m) for m in fixtures]
    monkeypatch.setattr(alist, "_BLOCK", chunk)
    for m, text in zip(fixtures, texts):
        assert to_alist(m) == text == _to_alist_reference(m)
        alist.write_alist(tmp_path / "m.alist", m)
        assert (tmp_path / "m.alist").read_bytes() == text.encode("ascii")


# --- the table of cells: a section of values in 0..top that writes more than
# top of them takes its cells from the cells of 0..top, formatted once -------


def _spy_tables(monkeypatch):
    """(top, values written, whether a table was built) of every section
    exported from now on: the column weights, the row weights, the
    column section, the row section."""
    sections, table = [], alist._table

    def spy(top, values):
        built = table(top, values)
        sections.append((top, values, built is not None))
        return built

    monkeypatch.setattr(alist, "_table", spy)
    return sections


def _weight3_matrix(rows, cols, seed):
    """Every column of weight 3 at random rows: the row weights vary, so
    the row section is padded."""
    rng = np.random.default_rng(seed)
    return SparseBinaryMatrix(rows, cols, [tuple(sorted(rng.choice(rows, 3, replace=False)))
                                           for _ in range(cols)])


@pytest.mark.parametrize("rows,cols", [(9, 10), (10, 9), (99, 100), (100, 99),
                                       (999, 1000), (1000, 999)])
def test_table_export_at_digit_boundaries(rows, cols, monkeypatch):
    m = _weight3_matrix(rows, cols, rows + cols)
    sections = _spy_tables(monkeypatch)
    assert to_alist(m) == _to_alist_reference(m)
    assert [top for top, _, _ in sections[2:]] == [rows, cols]
    assert all(built for _, _, built in sections)
    assert len({len(cs) for cs in row_cols(m)}) > 1


@pytest.mark.parametrize("r", [9, 10, 99])
@pytest.mark.parametrize("over", [0, 1, 2])
def test_table_rule_at_top_and_beyond(r, over, monkeypatch):
    # r rows and r + over columns, column j at row j % r: the column
    # section writes r + over values in 0..r; its transpose's row section
    # does the same. Only over > 0 builds a table
    m = SparseBinaryMatrix(r, r + over, [(j % r,) for j in range(r + over)])
    t = SparseBinaryMatrix(r + over, r, [tuple(range(c, r + over, r)) for c in range(r)])
    sections = _spy_tables(monkeypatch)
    for x in (m, t):
        assert to_alist(x) == _to_alist_reference(x)
    # m's column section, then t's row section
    assert sections[2] == sections[7] == (r, r + over, over > 0)


@pytest.mark.parametrize("over", [0, 1, 2])
def test_table_rule_on_a_weight_line(over, monkeypatch):
    # one full column of weight 4 and 3 + over empty ones: the column
    # weight line writes 4 + over values in 0..4
    m = SparseBinaryMatrix(4, 4 + over, [(0, 1, 2, 3)] + [()] * (3 + over))
    sections = _spy_tables(monkeypatch)
    assert to_alist(m) == _to_alist_reference(m)
    assert sections[0] == (4, 4 + over, over > 0)


def test_table_export_with_empty_rows_and_columns(monkeypatch):
    # rows 30..39 and every column whose weight came out 0 are empty
    rng = np.random.default_rng(5)
    m = SparseBinaryMatrix(40, 50, [tuple(sorted(rng.choice(30, rng.integers(0, 4), replace=False)))
                                    for _ in range(50)])
    assert not any(row_cols(m)[30:]) and () in col_rows(m)
    sections = _spy_tables(monkeypatch)
    assert to_alist(m) == _to_alist_reference(m)
    assert all(built for _, _, built in sections)


def test_wide_sparse_export_stays_within_the_text_bound():
    # one row that meets three of 200,000 columns: its row section writes
    # 3 values in 0..200,000, whose table would be 1.4 MB against 0.8 MB
    # of text, so it takes no table
    cols = [()] * 200_000
    for c in (0, 100_000, 199_999):
        cols[c] = (0,)
    m = SparseBinaryMatrix(1, 200_000, cols)
    tracemalloc.start()
    try:
        text = to_alist(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.endswith("\n1 100001 200000\n")
    assert text == _to_alist_reference(m)
    assert peak < 2.2 * len(text)


def test_rows_listed_out_of_order_load_and_disagree_alike():
    h = _random_matrix(5, 6, 3)
    lines = to_alist(h).splitlines()
    rows = range(len(lines) - h.rows, len(lines))
    rows_cols = row_cols(h)
    width = max(map(len, rows_cols))
    # one row claims a column that the column section gives to no row
    r = next(r for r in range(h.rows) if 1 < len(rows_cols[r]) < h.cols)
    claimed = sorted({*rows_cols[r][1:], next(c for c in range(h.cols) if c not in rows_cols[r])})
    wrong = list(lines)
    wrong[rows[r]] = " ".join(map(str, [c + 1 for c in claimed] + [0] * (width - len(claimed))))
    message = f"alist: line {rows[r] + 1}: row {r} disagrees with column data"
    for text in (lines, wrong):
        # each row line as written (columns ascending) and reversed
        # (padding first): the mirror check compares the first as it is
        # and sorts (row, column) keys for the second
        backward = list(text)
        for i in rows:
            backward[i] = " ".join(reversed(text[i].split()))
        for t in (text, backward):
            t = "\n".join(t) + "\n"
            if text is lines:
                assert from_alist(t) == h
            else:
                with pytest.raises(ValueError) as err:
                    from_alist(t)
                assert str(err.value) == message


def test_accepts_unpadded_index_lines():
    m = SparseBinaryMatrix(3, 3, [(0, 1, 2), (1,), ()])
    padded = to_alist(m)
    unpadded = "\n".join(" ".join(t for t in ln.split() if t != "0") if i >= 4 else ln
                         for i, ln in enumerate(padded.splitlines()))
    assert unpadded != padded
    # column 2 is empty: its padded line "0 0 0" is the only way to keep it
    unpadded = unpadded.replace("\n\n", "\n0\n")
    assert from_alist(unpadded) == m


_GARBAGE = ["0", "1", "2", "7", "-1", "x", "1.5", "", "99999999999999999999", "00", "\t"]


def _mutated(rows, cols, seed, data):
    """The alist of a random matrix with one to three tokens or lines
    dropped, repeated, altered or inserted."""
    lines = [ln.split() for ln in to_alist(_random_matrix(rows, cols, seed)).splitlines()]
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(["drop_token", "dup_token", "alter_token", "drop_line",
                                        "dup_line", "insert_line"]))
        i = data.draw(st.integers(0, len(lines)))
        if op.endswith("line"):
            if op == "insert_line":
                lines.insert(i, [data.draw(st.sampled_from(_GARBAGE))])
            elif i < len(lines):
                lines[i:i + 1] = [] if op == "drop_line" else [lines[i], list(lines[i])]
            continue
        if i == len(lines) or not lines[i]:
            continue
        t = data.draw(st.integers(0, len(lines[i]) - 1))
        if op == "drop_token":
            del lines[i][t]
        elif op == "dup_token":
            lines[i].insert(t, lines[i][t])
        else:
            lines[i][t] = data.draw(st.sampled_from(_GARBAGE))
    return "\n".join(" ".join(ln) for ln in lines) + "\n"


def _outcome(text):
    try:
        return from_alist(text)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2**30 - 1), st.data())
def test_mutated_text_loads_consistently_or_raises_value_error(rows, cols, seed, data):
    m = _outcome(_mutated(rows, cols, seed, data))
    if isinstance(m, str):
        assert m.startswith("alist: ")
        return
    assert from_alist(to_alist(m)) == m


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2**30 - 1), st.data(),
       st.sampled_from(_SMALL_BLOCKS))
def test_small_blocks_read_mutated_text_alike(rows, cols, seed, data, block):
    text = _mutated(rows, cols, seed, data)
    want = _outcome(text)
    saved = alist._BLOCK
    alist._BLOCK = block
    try:
        assert _outcome(text) == want
    finally:
        alist._BLOCK = saved
