import collections
import os
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibdcodes.designs import (
    Design,
    DifferenceFamily,
    buratti_cdf,
    expand_cdf_to_design,
    find_cyclic_resolution,
    format_design,
    netto_cdf,
    parse_design,
    radical_df_search,
    read_design,
    shift_map,
    translates,
    verify_bibd,
    verify_resolution,
)
from bibdcodes.algebra import is_prime
from bibdcodes.designs import fileio, types
from bibdcodes.matrices import incidence_matrix
from bibdcodes.errors import (
    BibdCodesError,
    Infeasible,
    InvalidFamily,
    MissingResolution,
    OutOfRange,
    Timeout,
)

from conftest import (
    DATA_DIR,
    MISMATCHED_FANO,
    affine_plane_order3,
    random_families,
    swapped_kts21_text,
)
from oracles import blocks, find_resolution, row_cols, translates_by_sort


def test_expand_netto7_is_fano_sized():
    d = expand_cdf_to_design(netto_cdf(7))
    rep = verify_bibd(d)
    assert rep.ok and rep.r == 3 and rep.b == 7


def test_expand_netto13_counts():
    d = expand_cdf_to_design(netto_cdf(13))
    rep = verify_bibd(d)
    assert rep.ok and rep.b == 26 and rep.r == 6
    assert rep.b * d.k == d.v * rep.r


def test_expand_block_order_is_base_major_shift_minor():
    fam = netto_cdf(13)
    d = expand_cdf_to_design(fam)
    b1 = fam.base_blocks[0]
    assert blocks(d)[0] == b1
    assert blocks(d)[1] == tuple(sorted((x + 1) % 13 for x in b1))
    assert blocks(d)[13] == fam.base_blocks[1]


def test_expand_with_short_orbit():
    fam = DifferenceFamily(v=21, k=3, base_blocks=((0, 3, 15), (0, 2, 10), (0, 1, 5)),
                           has_short_orbit_block=True)
    d = expand_cdf_to_design(fam)
    assert d.b == 3 * 21 + 7
    assert verify_bibd(d).ok
    assert blocks(d)[-7] == (0, 7, 14)
    assert d.cyclic.orbit_lengths == (21, 21, 21, 7)


def test_verify_bibd_flags_duplicated_block():
    d = expand_cdf_to_design(netto_cdf(7))
    dup = Design(v=7, k=3, blocks=blocks(d) + blocks(d)[:1])
    rep = verify_bibd(dup)
    assert not rep.ok
    assert rep.lambda_histogram.get(2, 0) > 0


def test_verify_bibd_empty_design():
    rep = verify_bibd(Design(v=3, k=2, blocks=()))
    assert not rep.ok


def _verify_bibd_dense(d):
    """verify_bibd's histogram and r by one v*v pair count, for reference."""
    pair_counts = np.zeros((d.v, d.v), dtype=np.int64)
    for blk in blocks(d):
        for i, x in enumerate(blk):
            for y in blk[i + 1:]:
                pair_counts[x, y] += 1
    upper = pair_counts[np.triu_indices(d.v, 1)]
    hist = {lam: int((upper == lam).sum()) for lam in range(int(upper.max(initial=0)) + 1)}
    degs = set(np.bincount(d.array.ravel(), minlength=d.v).tolist())
    return {lam: n for lam, n in hist.items() if n}, degs.pop() if len(degs) == 1 else None


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 30).flatmap(lambda v: st.tuples(
    st.just(v),
    st.integers(1, min(v, 5)).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True), max_size=12)),
)))
def test_verify_bibd_matches_dense_reference(case):
    v, blocks = case
    k = len(blocks[0]) if blocks else 2
    d = Design(v=v, k=k, blocks=blocks)
    rep = verify_bibd(d)
    hist, r = _verify_bibd_dense(d)
    assert (rep.lambda_histogram, rep.r) == (hist, r)
    assert list(rep.lambda_histogram) == sorted(hist)
    assert rep.ok == (hist == {1: v * (v - 1) // 2} and r is not None and d.b * k == v * r)


def test_verify_bibd_large_v_allocates_nothing_of_v():
    # a v*v pair count would need 728 TiB here
    rep = verify_bibd(Design(v=10_000_000, k=3, blocks=[(0, 1, 2), (0, 1, 9_999_999)]))
    assert rep.lambda_histogram == {0: 10_000_000 * 9_999_999 // 2 - 5, 1: 4, 2: 1}
    assert rep.r is None and not rep.ok
    # v * v passes 2**64, but the keys number only the points present
    v = 10**10
    rep = verify_bibd(Design(v=v, k=3, blocks=[(0, 1, 2), (0, 1, v - 1), (5, 6, v - 1)]))
    assert rep.lambda_histogram == {0: v * (v - 1) // 2 - 8, 1: 7, 2: 1}
    rep = verify_bibd(parse_design("design v=10000000 k=3 b=0\n", trusted=True))
    assert rep.lambda_histogram == {0: 49_999_995_000_000} and rep.r == 0 and not rep.ok


def _assert_cyclic_verify_is_dense(d):
    rep = verify_bibd(d)
    assert "array" not in d.__dict__
    hist, r = _verify_bibd_dense(d)
    assert (rep.lambda_histogram, rep.r, rep.b) == (hist, r, len(blocks(d)))
    assert list(rep.lambda_histogram) == sorted(hist)
    assert rep.ok == (hist == {1: d.v * (d.v - 1) // 2} and d.b * d.k == d.v * r)


SWEEP_BUILDERS = {"netto": netto_cdf, "buratti4": lambda p: buratti_cdf(p, 4),
                  "buratti5": lambda p: buratti_cdf(p, 5)}


@pytest.mark.parametrize("family,p", [
    (family, p)
    for family, step in [("netto", 6), ("buratti4", 12), ("buratti5", 20)]
    for p in range(step + 1, 200, step) if is_prime(p)
])
def test_cyclic_verify_matches_dense_reference_on_sweep_families(family, p):
    _assert_cyclic_verify_is_dense(expand_cdf_to_design(SWEEP_BUILDERS[family](p)))


@settings(max_examples=150, deadline=None)
@given(random_families())
@example(DifferenceFamily(9, 3, ((0, 3, 6),)))
@example(DifferenceFamily(9, 3, ((0, 3, 6),), has_short_orbit_block=True))
@example(DifferenceFamily(10, 2, ((0, 1), (0, 5)), has_short_orbit_block=True))
@example(DifferenceFamily(12, 3, ((0, 1, 3), (0, 1, 3)), has_short_orbit_block=True))
@example(DifferenceFamily(1, 1, ((0,),), has_short_orbit_block=True))
@example(DifferenceFamily(8, 2, ()))
def test_cyclic_verify_matches_dense_reference_on_random_families(fam):
    _assert_cyclic_verify_is_dense(Design(fam.v, fam.k, cyclic=fam))


def test_cyclic_verify_allocates_nothing_of_v():
    v = 10_000_002  # even, and 3 | v for the short orbit
    fam = DifferenceFamily(v, 3, ((0, 1, 3), (0, 4, 9)), has_short_orbit_block=True)
    tracemalloc.start()
    try:
        d = Design(v, 3, cyclic=fam)
        rep = verify_bibd(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # one int64 array of size v would be 80 MB
    assert "array" not in d.__dict__
    # differences +-1, +-2, +-3, +-4, +-5, +-9 and v/3, 2v/3: seven classes of v pairs
    assert rep.lambda_histogram == {0: v * (v - 1) // 2 - 7 * v, 1: 7 * v}
    assert (rep.r, rep.b, rep.ok) == (7, 2 * v + v // 3, False)


def test_plain_design_degrees_copy_no_blocks():
    d = expand_cdf_to_design(netto_cdf(997))
    plain = Design(d.v, d.k, d.array)  # the blocks, 3.97 MB, without the family
    assert not plain.array.flags.writeable
    verify_bibd(Design(7, 3, netto_cdf(7).expansion()))  # imports and caches first
    tracemalloc.start()
    try:
        report = verify_bibd(plain)
        verify_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        degrees = types._point_degrees(plain.array, plain.v)
        degrees_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.ok and report.r == 498 and degrees.tolist() == [498] * 997
    # the sorted uint32 pair keys (1.99 MB) and three masks of a byte per
    # key set the peak, 3.48 MB; v * v pair counts held 11.92 MB
    assert verify_peak < 3.6e6
    # np.add.at: 13 KB; np.bincount copied the read-only blocks, 3.98 MB
    assert degrees_peak < 2**20


def test_cyclic_design_is_not_expanded_by_verify_or_file_round_trip():
    d = expand_cdf_to_design(netto_cdf(997))
    assert verify_bibd(d).ok and d.b == 165_502
    again = parse_design(format_design(d, compact=True))
    assert again == d and hash(again) == hash(d)
    assert "array" not in d.__dict__ and "array" not in again.__dict__
    assert again.array.shape == (165_502, 3) and "array" in again.__dict__


def test_verify_resolution_ag23(ag23):
    rep = verify_resolution(ag23)
    assert rep.ok
    assert all(h == {1: 9} for h in rep.class_histograms)


def test_verify_resolution_detects_cross_class_swap(ag23):
    classes = [list(c) for c in ag23.resolution]
    classes[0][0], classes[1][0] = classes[1][0], classes[0][0]
    rep = verify_resolution(ag23.with_resolution(classes))
    assert not rep.ok


def test_verify_resolution_requires_resolution():
    d = expand_cdf_to_design(netto_cdf(7))
    with pytest.raises(MissingResolution):
        verify_resolution(d)


def test_find_resolution_recovers_ag23(ag23):
    stripped = ag23.with_resolution(None)
    resolution = find_resolution(stripped)
    assert len(resolution) == 4
    assert verify_resolution(stripped.with_resolution(resolution)).ok


def test_find_resolution_rejects_fano():
    d = expand_cdf_to_design(netto_cdf(7))
    with pytest.raises(Infeasible):
        find_resolution(d)


def test_find_resolution_budget():
    d = affine_plane_order3().with_resolution(None)
    with pytest.raises(Timeout):
        find_resolution(d, limit=2)


def test_find_cyclic_resolution_on_crcbibd39(crcbibd39):
    stripped = crcbibd39.with_resolution(None)
    resolution = find_cyclic_resolution(stripped, limit=10**7)
    restored = stripped.with_resolution(resolution)
    assert verify_resolution(restored).ok
    # shift closure: shifting every block of a class lands on another class
    restored_blocks = blocks(restored)
    index_of = {blk: i for i, blk in enumerate(restored_blocks)}
    class_sets = [frozenset(c) for c in resolution]
    for cls in class_sets:
        shifted = frozenset(
            index_of[tuple(sorted((x + 1) % 39 for x in restored_blocks[b]))] for b in cls
        )
        assert shifted in class_sets


def test_find_cyclic_resolution_rejects_noncyclic(ag23):
    with pytest.raises(Infeasible):
        find_cyclic_resolution(ag23.with_resolution(None))


def test_kts21_fixture_resolution(kts21):
    assert verify_bibd(kts21).ok
    assert verify_resolution(kts21).ok
    assert len(kts21.resolution) == 10


def test_design_io_names_the_class_line_of_a_bad_resolution():
    text = swapped_kts21_text()
    with pytest.raises(ValueError, match=r"^design: line 73: resolution is invalid: "
                                         r"\('class 0 does not partition the points"):
        parse_design(text)
    assert not verify_resolution(parse_design(text, trusted=True)).ok
    # every class partitions the points but the last is missing: the header
    with open(os.path.join(DATA_DIR, "kts21.design"), encoding="utf-8") as f:
        text = f.read()
    with pytest.raises(ValueError, match=r"^design: line 2: resolution is invalid: "
                                         r"\('classes use 63 of 70 blocks"):
        parse_design(text[: text.rindex("class 9:")])


def test_crcbibd39_fixture(crcbibd39):
    assert verify_bibd(crcbibd39).ok
    assert verify_resolution(crcbibd39).ok
    assert len(crcbibd39.resolution) == 19


# --- file format ------------------------------------------------------------


def test_design_io_roundtrip():
    d = expand_cdf_to_design(netto_cdf(13))
    assert parse_design(format_design(d)) == d


def test_design_io_compact_expansion():
    d = expand_cdf_to_design(netto_cdf(13))
    compact = format_design(d, compact=True)
    assert len(compact.splitlines()) == 2
    assert blocks(parse_design(compact)) == blocks(d)


def _short_orbit_family_21():
    return DifferenceFamily(v=21, k=3, base_blocks=((0, 3, 15), (0, 2, 10), (0, 1, 5)),
                            has_short_orbit_block=True)


@pytest.mark.parametrize("make", [
    lambda: netto_cdf(7),
    lambda: netto_cdf(13),
    lambda: buratti_cdf(13, 4),
    lambda: buratti_cdf(41, 5),
    lambda: radical_df_search(13, 3),
    lambda: radical_df_search(73, 9),
    _short_orbit_family_21,
])
@pytest.mark.parametrize("compact", [False, True])
def test_design_io_roundtrip_every_family(make, compact):
    d = expand_cdf_to_design(make())
    again = parse_design(format_design(d, compact=compact))
    assert again == d
    assert np.array_equal(again.array, d.cyclic.expansion())


@pytest.mark.parametrize("compact", [False, True])
def test_design_io_roundtrip_crcbibd39(crcbibd39, compact):
    assert crcbibd39.cyclic.orbit_lengths == (39,) * 6 + (13,)
    assert parse_design(format_design(crcbibd39, compact=compact)) == crcbibd39


def test_design_io_resolution_roundtrip(kts21):
    text = format_design(kts21)
    again = parse_design(text)
    assert again.resolution == kts21.resolution


def test_design_io_rejects_coverage_violation():
    d = expand_cdf_to_design(netto_cdf(7))
    bad = Design(v=7, k=3, blocks=blocks(d)[:-1] + ((0, 1, 2),))
    text = format_design(bad)
    with pytest.raises(ValueError):
        parse_design(text)
    assert parse_design(text, trusted=True).b == 7


def test_design_io_header_mismatch():
    with pytest.raises(ValueError):
        parse_design("design v=7 k=3 b=2\n0,1,3\n")


@pytest.mark.parametrize("key", ["v", "k", "b"])
def test_design_io_header_missing_key(key):
    fields = {"v": "v=7", "k": "k=3", "b": "b=1"}
    del fields[key]
    with pytest.raises(ValueError, match=f"lacks {key}="):
        parse_design("design " + " ".join(fields.values()) + "\n0,1,3\n", trusted=True)


def test_find_cyclic_resolution_proves_infeasible_family():
    # valid cyclic design whose family has no block transversal to the
    # residues mod 3, so no shift-closed resolution can exist
    fam = DifferenceFamily(v=21, k=3, base_blocks=((0, 1, 3), (0, 4, 12), (0, 5, 11)),
                           has_short_orbit_block=True)
    d = expand_cdf_to_design(fam)
    assert verify_bibd(d).ok
    with pytest.raises(Infeasible):
        find_cyclic_resolution(d, limit=10**6)


# --- block storage -------------------------------------------------------------


def test_design_stores_sorted_readonly_array():
    d = Design(v=7, k=3, blocks=[(3, 1, 0), (1, 2, 4)])
    assert d.array.tolist() == [[0, 1, 3], [1, 2, 4]]
    assert blocks(d) == ((0, 1, 3), (1, 2, 4))
    assert not d.array.flags.writeable
    assert d == Design(v=7, k=3, blocks=((0, 1, 3), (1, 2, 4)))
    assert hash(d) == hash(Design(v=7, k=3, blocks=d.array))
    assert d != Design(v=7, k=3, blocks=[(0, 1, 3)])
    with pytest.raises(AttributeError):
        d.v = 8


def test_unpickled_copies_stay_read_only(kts21):
    fam = netto_cdf(13)
    cyclic = expand_cdf_to_design(fam)
    assert cyclic.array.shape == (26, 3)  # built before the round trip
    h = incidence_matrix(cyclic)
    cases = [
        (fam, lambda f: [f.base]),
        (cyclic, lambda d: [d.array]),
        (kts21, lambda d: [d.array]),
        (h, lambda m: [m.col_ptr, m.row_idx, m.row_ptr, m.col_idx]),
    ]
    for x, arrays in cases:
        copy = pickle.loads(pickle.dumps(x))
        assert copy == x
        for a in arrays(copy):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
    assert copy.cyclic == fam
    assert row_cols(copy) == row_cols(h)


@pytest.mark.parametrize("blocks", [[(0, 1, 7)], [(0, 1, -1)]])
def test_design_rejects_out_of_range_points(blocks):
    with pytest.raises(OutOfRange):
        Design(v=7, k=3, blocks=blocks)


@pytest.mark.parametrize("bad", [-1, 26, 99])
def test_design_rejects_a_class_naming_no_block(bad):
    # Netto-13 has 26 blocks; the cyclic design counts them from its family
    d = expand_cdf_to_design(netto_cdf(13))
    for blocks, cyclic in ((None, d.cyclic), (d.array, None)):
        with pytest.raises(OutOfRange, match=rf"^class 1: block index {bad} is outside 0\.\.25$"):
            Design(13, 3, blocks, [(0, 25), (1, bad, 2)], cyclic)
    with pytest.raises(OutOfRange, match=rf"^class 0: block index {bad} is outside 0\.\.25$"):
        d.with_resolution([(bad,)])
    # empty classes and every index in range are accepted, as before
    assert d.with_resolution([(), (0, 25)]).resolution == ((), (0, 25))


@pytest.mark.parametrize("blocks,match", [
    ([(0, 1, 3), (0, 1)], "differ in size"),
    ([(0, 1)], "size 2 differs from k=3"),
    ([(0, 1, 1)], "repeated"),
])
def test_design_rejects_malformed_blocks(blocks, match):
    with pytest.raises(ValueError, match=match):
        Design(v=7, k=3, blocks=blocks)


def test_family_rejects_malformed_base_blocks():
    with pytest.raises(OutOfRange):
        DifferenceFamily(v=7, k=3, base_blocks=((0, 1, 10),))
    with pytest.raises(InvalidFamily, match=r"short orbit needs k \| v, got v=10 k=3"):
        DifferenceFamily(v=10, k=3, base_blocks=((0, 1, 3),), has_short_orbit_block=True)
    with pytest.raises(ValueError, match="differs from k=3"):
        DifferenceFamily(v=13, k=3, base_blocks=((0, 1, 4, 6),))


@pytest.mark.parametrize("trusted", [False, True])
def test_design_io_rejects_out_of_range_base(trusted):
    # the point 10 used to be reduced mod 7 and load as 0,1,3
    with pytest.raises(OutOfRange):
        parse_design("design v=7 k=3 b=7\ncyclic base=0,1,10\n", trusted=trusted)
    with pytest.raises(OutOfRange):
        parse_design("design v=7 k=3 b=1\n0,1,9\n", trusted=trusted)


@pytest.mark.parametrize("text", [
    "design v=7 k=3 b=1\n0,1\n",
    "design v=7 k=3 b=2\n0,1,3\n0,1\n",
    "design v=7 k=3 b=7\ncyclic base=0,1,3,5\n",
])
def test_design_io_rejects_wrong_block_size(text):
    with pytest.raises(ValueError, match="block size differs from header k"):
        parse_design(text, trusted=True)


FANO_TEXT = format_design(expand_cdf_to_design(netto_cdf(7)))


@pytest.mark.parametrize("trusted", [False, True])
@pytest.mark.parametrize("text,match", [
    ("design v=99999999999999999999 k=3 b=1\n0,1,3\n", "line 1: 99999999999999999999 does not fit"),
    ("design v=7 k=3 b=9223372036854775808\n", "line 1: 9223372036854775808 does not fit"),
    ("design v=7 k=3 b=-9223372036854775809\n", "line 1: -9223372036854775809 does not fit"),
    ("design v=0 k=0 b=0\n", "line 1: header needs v >= 1"),
    ("design v=-7 k=3 b=0\n", "line 1: header needs v >= 1"),
    ("design v=7 k=0 b=0\n", "line 1: header needs v >= 1 and 1 <= k <= v"),
    ("design v=7 k=8 b=0\n", "line 1: header needs v >= 1 and 1 <= k <= v"),
    (FANO_TEXT + "class 0: -1\n", "line 10: block index -1 is outside 0..6"),
    (FANO_TEXT + "class 0: 99\n", "line 10: block index 99 is outside 0..6"),
    (FANO_TEXT + "class 0: 0 1 0\n", "line 10: block index 0 is in two classes"),
    (FANO_TEXT + "class 0: 0 1\nclass 1: 2 1\n", "line 11: block index 1 is in two classes"),
    (FANO_TEXT + "class 0: 0\nclass 0: 1\n", "line 11: class 0 is given twice"),
    (FANO_TEXT + "class 0: 99999999999999999999\n", "line 10: 99999999999999999999 does not fit"),
    (FANO_TEXT + "class x: 0\n", "line 10: 'x' is not an integer"),
    ("design v=7 k\n", "line 1: header field 'k' is not key=value"),
    ("design v=7 k=3 b=1\n0,1,x\n", "line 2: block '0,1,x' is not a list of integers"),
    ("design v=7 k=3 b=2\n0,1,3\n\n0,1\n", "line 4: block size differs from header k=3"),
    (FANO_TEXT + "class 0: 0\nclass 2: 1\n", "line 11: class 2 leaves a gap"),
    ("design v=7 k=3 b=7\ncyclic base=0,1,3\ncyclic base=0,1,5\n",
     "line 3: cyclic line given twice \\(first on line 2\\)"),
    ("design v=7 k=3 b=7\ncyclic base=0,1,3\ndesign v=8 k=3 b=7\n",
     "line 3: design line given twice \\(first on line 1\\)"),
    ("design v=7 k=3 b=7 v=8\ncyclic base=0,1,3\n", "line 1: header field v= given twice"),
    ("design v=13 k=3 b=2\n0,1,3\n3,9,-1\n", "line 3: block 3,9,-1 has a point outside 0..12"),
    ("design v=7 k=3 b=1\n\n0,1,99999999999999999999\n",
     "line 3: block 0,1,99999999999999999999 has a point outside 0..6"),
    (FANO_TEXT.replace("0,4,6\n", "0,4,7\n"), "line 4: block 0,4,7 has a point outside 0..6"),
    ("design v=7 k=3 b=2\n0,1,3\n1,4,1\n", "line 3: block 1,4,1 has repeated points"),
])
def test_design_io_rejects_malformed_structure(text, match, trusted):
    error = OutOfRange if "has a point outside" in match else ValueError
    with pytest.raises(error, match="^design: " + match):
        parse_design(text, trusted=trusted)


@pytest.mark.parametrize("text,line", [
    ("design v=13 k=3 b=13\ncyclic base=0,1,4\n", 2),
    ("# difference 1 twice\n"
     + format_design(Design(7, 3, cyclic=DifferenceFamily(7, 3, ((0, 1, 2),)))), 3),
    ("design v=7 k=3 b=7\n# Fano with 0,2,6 replaced by 0,1,2\n3,4,6\n0,4,5\n1,2,4\n0,1,3\n"
     "2,3,5\n1,5,6\n0,1,2\n", 5),
    ("design v=7 k=3 b=6\n0,1,3\n1,2,4\n2,3,5\n3,4,6\n0,4,5\n1,5,6\n", 1),
    # v > b * k: the pair keys number only the points present
    ("design v=10000000000 k=3 b=3\n0,1,2\n5,6,7\n0,1,9999999999\n", 2),
])
def test_design_io_names_the_line_of_a_coverage_failure(text, line):
    with pytest.raises(ValueError, match=f"^design: line {line}: fails pair-coverage verification"):
        parse_design(text)
    parse_design(text, trusted=True)


def test_coverage_line_of_a_repeated_block_reads_the_pair_keys():
    d = expand_cdf_to_design(netto_cdf(997))
    plain = Design(d.v, d.k, np.concatenate([d.array, d.array[1234:1235]]))
    lines = dict.fromkeys(range(2, 2 + plain.b))  # block line numbers, header on line 1
    fileio._coverage_line(Design(7, 3, netto_cdf(7).expansion()), {"design ": 1}, {})  # warm up
    tracemalloc.start()
    try:
        line = fileio._coverage_line(plain, {"design ": 1}, lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # block 1234 and its repeat share every pair; the first is on line 1236
    assert line == 1236
    # the sorted uint32 pair keys (1.99 MB) and a mask a column pair; a
    # second pair count by np.unique over (pair, 2) int64 rows held 52 MB
    assert peak < 8e6


@pytest.mark.parametrize("trusted", [False, True])
@pytest.mark.parametrize("text,match", [
    (MISMATCHED_FANO, "line 3: block 0,1,3 is not row 0 of the cyclic expansion, 0,1,5"),
    (MISMATCHED_FANO.replace("0,1,3\n", "0,1,5\n"),
     "line 4: block 1,2,4 is not row 1 of the cyclic expansion, 1,2,6"),
    ("design v=7 k=3 b=1\ncyclic base=0,1,3\n0,1,3\n",
     "line 2: cyclic base= expands to 7 blocks, the header claims b=1"),
    ("design v=7 k=3 b=8\ncyclic base=0,1,3\n",
     "line 2: cyclic base= expands to 7 blocks, the header claims b=8"),
    ("design v=7 k=3 b=6\ncyclic base=0,1,3\n0,1,3\n",
     "line 1: header claims b=6 blocks, file has 1"),
    ("design v=21 k=3 b=84\ncyclic base=0,7,14;0,3,15;0,2,10;0,1,5\n",
     "line 2: base 0,7,14 has an orbit shorter than v=21"),
    ("design v=21 k=3 b=28\ncyclic base=0,7,14;0,7,14\n",
     "line 2: base 0,7,14 has an orbit shorter than v=21"),
    ("design v=21 k=3 b=7\ncyclic base=1,8,15\n",
     "line 2: cyclic base= expands to 21 blocks, the header claims b=7"),
    ("design v=21 k=3 b=21\ncyclic base=1,8,15\n",
     "line 2: base 1,8,15 has an orbit shorter than v=21"),
    ("design v=6 k=2 b=12\ncyclic base=0,3;0,1\n",
     "line 2: base 0,3 has an orbit shorter than v=6"),
    ("design v=7 k=3 b=7\ncyclic base=0,1,1\n", "line 2: block \\(0, 1, 1\\) has repeated points"),
])
def test_design_io_rejects_inconsistent_cyclic_line(text, match, trusted):
    with pytest.raises(ValueError, match="^design: " + match):
        parse_design(text, trusted=trusted)


def test_design_keeps_blocks_and_family_as_one():
    fam = netto_cdf(13)
    d = Design(13, 3, cyclic=fam)
    assert np.array_equal(d.array, fam.expansion())
    stripped = d.with_resolution(None)
    assert stripped == d and stripped.cyclic is fam
    with pytest.raises(ValueError, match="takes its blocks from its family"):
        Design(13, 3, fam.expansion(), cyclic=fam)
    with pytest.raises(ValueError, match="takes its blocks from its family"):
        Design(14, 3, cyclic=fam)


def test_design_rejects_points_beyond_int64():
    with pytest.raises(OutOfRange):
        parse_design("design v=7 k=3 b=1\n0,1,99999999999999999999\n", trusted=True)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 60).flatmap(lambda v: st.tuples(
    st.just(v),
    st.lists(st.lists(st.integers(0, v - 1), min_size=1, max_size=min(v, 5), unique=True),
             min_size=1, max_size=4).filter(lambda bs: len({len(b) for b in bs}) == 1),
    st.integers(0, v - 1),
)))
def test_translates_match_pointwise_shift(case):
    v, bases, shift = case
    tr = translates(np.array(bases), v)
    assert tr.shape == (len(bases), v, len(bases[0]))
    for i, base in enumerate(bases):
        assert tuple(tr[i, shift].tolist()) == tuple(sorted((x + shift) % v for x in base))


@st.composite
def translate_cases(draw):
    """A modulus and a (t, k) base of any points, rows in any order."""
    v, k = draw(st.integers(1, 60)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-v, 2 * v - 1), min_size=k, max_size=k),
                         max_size=4))
    return v, np.array(rows, dtype=np.int64).reshape(len(rows), k)


@settings(max_examples=200, deadline=None)
@given(translate_cases())
@example((1, np.zeros((1, 1), dtype=np.int64)))
@example((5, np.zeros((0, 3), dtype=np.int64)))
@example((7, np.array([[6], [0], [3]])))
@example((13, np.array([[4, 0, 1], [7, 2, 0]])))
def test_translates_match_the_sorting_reference(case):
    v, base = case
    base.flags.writeable = False
    got, want = translates(base, v), translates_by_sort(base, v)
    assert got.dtype == want.dtype == np.int64 and got.flags.c_contiguous
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_translates_match_the_sorting_reference_on_every_sweep_family():
    fams = [netto_cdf(p) for p in range(7, 1000, 6) if is_prime(p)]
    fams += [buratti_cdf(p, 4) for p in range(13, 1000, 12) if is_prime(p)]
    fams += [buratti_cdf(p, 5) for p in range(21, 1000, 20) if is_prime(p)]
    assert len(fams) == 135
    for f in fams:
        got, want = translates(f.base, f.v), translates_by_sort(f.base, f.v)
        assert got.dtype == np.int64 and got.flags.c_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), f


def test_netto997_translates_peak_memory():
    f = netto_cdf(997)
    tracemalloc.start()
    try:
        out = translates(f.base, f.v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output is 3.97 MB. Adding, reducing and sorting peaked at 4.08 MB,
    # the rotation at 4.07 MB; an index array over the t * v translates
    # would add 1.3 MB
    assert peak < out.nbytes + 2**18


@given(random_families())
@example(DifferenceFamily(9, 3, ((0, 3, 6),), has_short_orbit_block=True))
@example(DifferenceFamily(10, 2, ((0, 1), (0, 5)), has_short_orbit_block=True))
def test_differences_are_counted_once_and_held_read_only(fam):
    before = (fam == DifferenceFamily(fam.v, fam.k, fam.base_blocks, fam.has_short_orbit_block),
              hash(fam), repr(fam), pickle.dumps(fam))
    counted = collections.Counter(fam.base_differences().ravel().tolist())
    if fam.has_short_orbit_block:
        counted.update(range(fam.v // fam.k, fam.v, fam.v // fam.k))
    residues, counts = fam.differences()
    assert residues.tolist() == sorted(counted)
    assert counts.tolist() == [counted[d] for d in sorted(counted)]
    assert all(a is b for a, b in zip(fam.differences(), (residues, counts)))
    for a in (residues, counts):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    after = (fam == DifferenceFamily(fam.v, fam.k, fam.base_blocks, fam.has_short_orbit_block),
             hash(fam), repr(fam), pickle.dumps(fam))
    assert after == before
    copy = pickle.loads(after[-1])
    assert copy == fam and hash(copy) == hash(fam) and repr(copy) == repr(fam)


def test_family_holds_its_blocks_once():
    fam = DifferenceFamily(13, 3, [(4, 1, 0), (0, 2, 7)])
    assert fam.base_blocks == ((0, 1, 4), (0, 2, 7)) and fam.block(2) == (0, 2, 7)
    assert "base_blocks" not in vars(fam)  # built from base when read
    # equality, hash and repr are those of (v, k, base_blocks, has_short_orbit_block)
    assert hash(fam) == hash((13, 3, ((0, 1, 4), (0, 2, 7)), False))
    assert repr(fam) == ("DifferenceFamily(v=13, k=3, base_blocks=((0, 1, 4), (0, 2, 7)), "
                         "has_short_orbit_block=False)")
    assert fam == DifferenceFamily(13, 3, fam.base)
    assert fam != DifferenceFamily(13, 3, [(0, 1, 4)])
    assert fam != (13, 3, fam.base_blocks, False)
    short = DifferenceFamily(21, 3, [(0, 1, 3)], has_short_orbit_block=True)
    assert short != DifferenceFamily(21, 3, [(0, 1, 3)])
    assert short.orbit_bases == ((0, 1, 3), (0, 7, 14))
    assert short.expansion()[21:].tolist() == [[i, i + 7, i + 14] for i in range(7)]
    with pytest.raises(AttributeError):
        fam.v = 7


def test_family_expansion_lengths_and_order():
    fam = DifferenceFamily(v=21, k=3, base_blocks=((0, 1, 3),), has_short_orbit_block=True)
    assert fam.orbit_lengths == (21, 7)
    assert fam.expansion().shape == (28, 3)
    assert not fam.expansion().flags.writeable
    assert fam.expansion()[22].tolist() == [1, 8, 15]
    assert fam.expansion()[2].tolist() == [2, 3, 5]


@pytest.mark.parametrize("p", [7, 13, 37])
def test_shift_map_matches_lookup(p):
    d = expand_cdf_to_design(netto_cdf(p))
    listed = blocks(d)
    index_of = {blk: i for i, blk in enumerate(listed)}
    expect = [index_of[tuple(sorted((x + 1) % p for x in blk))] for blk in listed]
    assert shift_map(d) == expect


def test_shift_map_rejects_repeats_and_non_cyclic(ag23):
    d = expand_cdf_to_design(netto_cdf(7))
    assert shift_map(Design(v=7, k=3, blocks=blocks(d) + blocks(d)[:1])) is None
    assert shift_map(ag23) is None
    # a family with two bases in one orbit lists each block twice, so its
    # design is searched rather than read off the layout
    twice = DifferenceFamily(v=7, k=3, base_blocks=((0, 1, 3), (1, 2, 4)))
    assert shift_map(Design(v=7, k=3, cyclic=twice)) is None


@pytest.mark.parametrize("make", [
    lambda: expand_cdf_to_design(netto_cdf(61)),
    lambda: expand_cdf_to_design(buratti_cdf(109, 4)),
    lambda: read_design(os.path.join(DATA_DIR, "crcbibd39.design")),
    lambda: expand_cdf_to_design(_short_orbit_family_21()),
], ids=["netto61", "buratti109", "crcbibd39", "short21"])
def test_cyclic_shift_map_is_the_search(make):
    # a cyclic design's map comes from its family's layout; the same
    # blocks in a plain design are searched
    d = make()
    assert d.cyclic is not None
    assert shift_map(d) == shift_map(Design(d.v, d.k, d.array))


# --- fuzzing the design parser ---------------------------------------------------

_DESIGN_GARBAGE = ["0", "1", "2", "3", "7", "13", "14", "21", "-1", "x", "", " ", "1.5",
                   "99999999999999999999", "design", "cyclic", "class", "base", "v", "#"]


def _fuzz_sources():
    netto13 = expand_cdf_to_design(netto_cdf(13))
    short21 = expand_cdf_to_design(_short_orbit_family_21())
    crc39 = read_design(os.path.join(DATA_DIR, "crcbibd39.design"))
    return [FANO_TEXT, format_design(netto13), format_design(netto13, compact=True),
            format_design(short21), format_design(short21, compact=True),
            format_design(crc39), format_design(crc39, compact=True)]


FUZZ_SOURCES = _fuzz_sources()


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(FUZZ_SOURCES), st.booleans(), st.data())
def test_mutated_design_text_loads_consistently_or_raises(source, trusted, data):
    # tokens and the separators between them alternate, so a token edit
    # keeps the line's punctuation
    lines = [re.split(r"([ ,;=:])", ln) for ln in source.splitlines()]
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(["drop_token", "dup_token", "alter_token", "swap_tokens",
                                        "drop_line", "dup_line", "swap_lines", "insert_line"]))
        i = data.draw(st.integers(0, len(lines)))
        if op == "swap_lines":
            if i < len(lines):
                j = data.draw(st.integers(0, len(lines) - 1))
                lines[i], lines[j] = lines[j], lines[i]
            continue
        if op.endswith("line"):
            if op == "insert_line":
                lines.insert(i, [data.draw(st.sampled_from(_DESIGN_GARBAGE))])
            elif i < len(lines):
                lines[i:i + 1] = [] if op == "drop_line" else [lines[i], list(lines[i])]
            continue
        if i == len(lines) or not lines[i]:
            continue
        t = 2 * data.draw(st.integers(0, (len(lines[i]) - 1) // 2))
        if op == "drop_token":
            del lines[i][t:t + 2]
        elif op == "dup_token":
            lines[i][t:t] = lines[i][t:t + 2] if t + 1 < len(lines[i]) else [lines[i][t], ","]
        elif op == "swap_tokens":
            u = 2 * data.draw(st.integers(0, (len(lines[i]) - 1) // 2))
            lines[i][t], lines[i][u] = lines[i][u], lines[i][t]
        else:
            lines[i][t] = data.draw(st.sampled_from(_DESIGN_GARBAGE))
    text = "\n".join("".join(ln) for ln in lines) + "\n"
    try:
        d = parse_design(text, trusted=trusted)
    except (ValueError, BibdCodesError):
        return
    assert parse_design(format_design(d), trusted=trusted) == d
    if d.cyclic is not None:
        assert parse_design(format_design(d, compact=True), trusted=trusted) == d
