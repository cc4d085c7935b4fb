import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibdcodes.designs import Design, DifferenceFamily, buratti_cdf, netto_cdf
from bibdcodes.errors import (
    BadG1,
    ChainBroken,
    DifferenceAbsent,
    NoCoprimeDelta,
    NotKtsTail,
    NoUnitDifference,
    OrbitOverlap,
    OutOfRange,
    PropertyViolation,
)
from bibdcodes.matrices import SparseBinaryMatrix, girth
from bibdcodes.ra import (
    AccumulatorSpec,
    h2_from_spec,
    sidecar_text,
    spec_from_h2,
    sra_from_cdf,
    sra_from_crcbibd,
    sra_from_kts,
    w3ra_from_kts,
    wqra_from_cdf,
    wqra_from_crcbibd,
)

from oracles import accumulate, blocks, col_rows


def test_accumulate_examples():
    assert accumulate([1, 0, 1, 1], AccumulatorSpec(m=4, g=(1,))).tolist() == [1, 1, 0, 1]
    assert accumulate([1, 0, 0, 1, 0], AccumulatorSpec(m=5, g=(1, 2))).tolist() == [1, 1, 1, 1, 0]
    assert not accumulate([0] * 6, AccumulatorSpec(m=6, g=(1, 3))).any()


def test_h2_from_spec_examples():
    assert col_rows(h2_from_spec(AccumulatorSpec(m=3, g=(1,)))) == ((0, 1), (1, 2), (2,))
    h2 = h2_from_spec(AccumulatorSpec(m=5, g=(1, 2)))
    assert col_rows(h2) == ((0, 1, 3), (1, 2, 4), (2, 3), (3, 4), (4,))
    # tap order matters through the prefix sums
    assert col_rows(h2_from_spec(AccumulatorSpec(m=5, g=(2, 1))))[0] == (0, 2, 3)


def test_h2_lower_triangular_unit_diagonal():
    spec = AccumulatorSpec(m=9, g=(2, 5))
    h2 = h2_from_spec(spec)
    for j, rows in enumerate(col_rows(h2)):
        assert rows[0] == j


def test_spec_roundtrip():
    spec = AccumulatorSpec(m=17, g=(3, 1, 7))
    assert spec_from_h2(h2_from_spec(spec)) == spec
    assert spec_from_h2(SparseBinaryMatrix(2, 2, [(0, 1), (0, 1)])) is None
    # column 0 reads back the repeated taps g = (1, 1)
    assert spec_from_h2(SparseBinaryMatrix(4, 4, [(0, 1, 2), (1, 2, 3), (2, 3), (3,)])) is None


def test_accumulator_spec_validation():
    with pytest.raises(ValueError):
        AccumulatorSpec(m=4, g=(1, 1))
    with pytest.raises(ValueError):
        AccumulatorSpec(m=4, g=(0,))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_accumulate_inverts_h2(data):
    m = data.draw(st.integers(2, 64))
    q = data.draw(st.integers(2, min(6, m)))
    g = data.draw(
        st.lists(st.integers(1, m), min_size=q - 1, max_size=q - 1, unique=True)
    )
    spec = AccumulatorSpec(m=m, g=tuple(g))
    r = np.array(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)), dtype=np.uint8)
    p = accumulate(r, spec)
    h2 = h2_from_spec(spec)
    syn = h2.mul_vector(p)
    assert (syn == r).all()


# --- difference-family transforms --------------------------------------------


def test_sra_from_cdf_netto19_shape():
    fam = netto_cdf(19)
    acc = None
    for i in range(1, fam.t + 1):
        if 1 in [(a - b) % 19 for a in fam.block(i) for b in fam.block(i) if a != b]:
            acc = i
    ra = sra_from_cdf(fam, h1_orbits=[i for i in range(1, 4) if i != acc])
    assert ra.m == 19 and ra.k == 38
    assert set(ra.h1.column_weights()) == {3}
    assert ra.spec == AccumulatorSpec(m=19, g=(1,))
    assert ra.h2 == h2_from_spec(ra.spec)
    weights = Counter(ra.h2.column_weights())
    assert weights == {2: 18, 1: 1}


def test_sra_from_cdf_degenerate_h2_only():
    ra = sra_from_cdf(netto_cdf(7), h1_orbits=[])
    assert ra.k == 0 and ra.m == 7


def test_sra_from_cdf_orbit_overlap():
    fam = netto_cdf(13)
    acc = 1  # block (2,5,6) holds difference 1
    with pytest.raises(OrbitOverlap):
        sra_from_cdf(fam, h1_orbits=[acc])


def test_sra_requires_unit_difference():
    fam = DifferenceFamily(v=21, k=3, base_blocks=((0, 3, 15), (0, 2, 10), (0, 6, 13)),
                           has_short_orbit_block=True)
    # synthetic family (not pair-balanced); difference 1 appears nowhere
    with pytest.raises(NoUnitDifference):
        sra_from_cdf(fam, h1_orbits=[])


def test_wqra_from_cdf_netto13():
    fam = netto_cdf(13)
    ra = wqra_from_cdf(fam, g1=1, h1_orbits=[2])
    assert ra.spec is not None and ra.spec.q == 3
    assert ra.h2 == h2_from_spec(ra.spec)
    weights = Counter(ra.h2.column_weights())
    assert weights[3] > len(weights) and weights[1] >= 1  # mostly full, tapering tail
    assert sum(ra.spec.g) == max(o for o in col_rows(ra.h2)[0])


def test_wqra_from_cdf_buratti_uses_last_block():
    fam = buratti_cdf(13, 4)
    ra = wqra_from_cdf(fam, g1=1, h1_orbits=[])
    assert ra.provenance["accumulator_orbit"] == fam.t


def test_wqra_difference_absent():
    with pytest.raises(DifferenceAbsent):
        wqra_from_cdf(netto_cdf(13), g1=13, h1_orbits=[])


def test_ra_systematic_codewords_have_zero_syndrome():
    fam = netto_cdf(31)
    acc = None
    for i in range(1, fam.t + 1):
        diffs = [(a - b) % 31 for a in fam.block(i) for b in fam.block(i) if a != b]
        if 1 in diffs:
            acc = i
    h1_orbits = [i for i in range(1, 6) if i != acc][:3]
    rng = np.random.default_rng(5)
    for builder in (lambda: sra_from_cdf(fam, h1_orbits),
                    lambda: wqra_from_cdf(fam, 1, h1_orbits)):
        ra = builder()
        h, h1_cols = ra.h, col_rows(ra.h1)
        for _ in range(50):
            m = rng.integers(0, 2, ra.k, dtype=np.uint8)
            r = np.zeros(ra.m, dtype=np.uint8)
            for j in np.nonzero(m)[0]:
                for row in h1_cols[j]:
                    r[row] ^= 1
            codeword = np.concatenate([m, accumulate(r, ra.spec)])
            assert not h.mul_vector(codeword).any()


@pytest.mark.parametrize("make", [sra_from_cdf, lambda f, h1: wqra_from_cdf(f, 1, h1)])
def test_h1_is_the_chosen_circulants_side_by_side(make):
    fam = netto_cdf(61)
    h1_orbits = [7, 1, 10, 3]  # any order; the accumulator orbit 2 is not among them
    ref = SparseBinaryMatrix(61, 0, [])
    for i in h1_orbits:
        base = fam.block(i)
        ref = ref.hstack(SparseBinaryMatrix(
            61, 61, [tuple(sorted((x + j) % 61 for x in base)) for j in range(61)]))
    assert make(fam, h1_orbits).h1 == ref
    assert make(fam, []).h1 == SparseBinaryMatrix(61, 0, [])


# --- resolvable tail transforms -----------------------------------------------


def test_sra_from_kts_shape(kts21):
    ra = sra_from_kts(kts21, h1_classes=list(range(7)))
    assert ra.m == 21 and ra.k == 49
    assert set(ra.h1.column_weights()) == {3}
    assert ra.h2 == h2_from_spec(AccumulatorSpec(m=21, g=(1,)))
    assert girth(ra.h1) >= 6


def test_sra_from_kts_rejects_plain_affine(ag23):
    with pytest.raises(NotKtsTail):
        sra_from_kts(ag23, h1_classes=[0])


def test_sra_from_kts_chain_broken():
    # circulant tail whose step shares a factor with m=3: three 3-cycles
    m = 3
    blocks = []
    classes = []
    shifts = [(0, 0, 0), (0, 1, 2), (0, 2, 1)]
    for b_shift, c_shift in [(s[1], s[2]) for s in shifts]:
        start = len(blocks)
        for j in range(m):
            blocks.append((j, m + (j + b_shift) % m, 2 * m + (j + c_shift) % m))
        classes.append(tuple(range(start, start + m)))
    d = Design(v=9, k=3, blocks=tuple(blocks), resolution=tuple(classes))
    with pytest.raises(ChainBroken):
        sra_from_kts(d, h1_classes=[])


@pytest.mark.parametrize("bad", [-1, 99])
def test_kts_tail_with_a_class_naming_no_block_is_refused(bad):
    # a 9-point circulant tail with step 1, so its chain is whole; a last
    # class naming block -1 made sra_from_kts use the last block, and
    # block 99 ended in a bare numpy IndexError
    shifts = [(0, 0), (1, 1), (0, 2)]
    blocks = [(a, 3 + (a + b) % 3, 6 + (a + c) % 3) for b, c in shifts for a in range(3)]
    d = Design(9, 3, blocks, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    assert sra_from_kts(d, []).h2 == h2_from_spec(AccumulatorSpec(m=9, g=(1,)))
    with pytest.raises(OutOfRange, match=rf"^class 2: block index {bad} is outside 0\.\.8$"):
        Design(9, 3, blocks, [(0, 1, 2), (3, 4, 5), (6, 7, bad)])


@pytest.mark.parametrize("m", range(1, 10))
def test_kts_chain_broken_exactly_when_the_step_shares_a_factor_with_m(m):
    # tail class j holds {a, m + (a + b_j) % m, 2m + (a + c_j) % m}; the
    # zeroed tail steps top row a to a + b_0 - b_1 + c_1 - c_2
    rng = np.random.default_rng(m)
    for shifts in rng.integers(0, m, size=(30, 3, 2)).tolist():
        (b0, _), (b1, c1), (_, c2) = shifts
        blocks = [(a, m + (a + b) % m, 2 * m + (a + c) % m) for b, c in shifts for a in range(m)]
        d = Design(3 * m, 3, blocks, [range(j * m, (j + 1) * m) for j in range(3)])
        cycles = math.gcd((b0 - b1 + c1 - c2) % m, m)
        if cycles == 1:
            assert sra_from_kts(d, []).h2 == h2_from_spec(AccumulatorSpec(m=3 * m, g=(1,)))
        else:
            with pytest.raises(ChainBroken, match=rf"\(first has length {3 * m // cycles}\)$"):
                sra_from_kts(d, [])


def test_w3ra_matches_sra_after_zeroing(kts21):
    sra = sra_from_kts(kts21, h1_classes=[0, 1, 2])
    w3 = w3ra_from_kts(kts21, h1_classes=[0, 1, 2])
    assert w3.h1 == sra.h1
    assert w3.spec is not None and w3.spec.g[0] == 1
    zeroed = SparseBinaryMatrix(
        21, 21,
        [tuple(r for r in rows if r in (i, i + 1)) for i, rows in enumerate(col_rows(w3.h2))],
    )
    assert zeroed == sra.h2
    weights = Counter(w3.h2.column_weights())
    assert weights[3] > weights[2] + weights[1]


def test_kts_h1_must_avoid_tail(kts21):
    with pytest.raises(OrbitOverlap):
        sra_from_kts(kts21, h1_classes=[8])


# --- cyclically resolvable transforms ------------------------------------------


def _ra_orbit_classes(design):
    from bibdcodes.ra import _class_orbit

    orbits = []
    seen = set()
    for ci in range(len(design.resolution)):
        if ci in seen:
            continue
        orb = _class_orbit(design, ci)
        seen.update(orb)
        orbits.append(orb)
    return orbits


def test_sra_from_crcbibd_properties(crcbibd39):
    orbits = _ra_orbit_classes(crcbibd39)
    tri = [o for o in orbits if len(o) == 3]
    assert len(tri) == 2
    ra = sra_from_crcbibd(crcbibd39, class_orbit=tri[0][0], h1_classes=tri[1])
    assert ra.m == 39 and ra.k == 39
    assert ra.h2 == h2_from_spec(AccumulatorSpec(m=39, g=(1,)))
    assert set(ra.h1.column_weights()) == {3}
    # the recorded chain blocks are distinct columns of the orbit
    assert len(set(ra.provenance["h2_blocks"])) == 39


def test_sra_from_crcbibd_rejects_big_orbit(crcbibd39):
    orbits = _ra_orbit_classes(crcbibd39)
    big = next(o for o in orbits if len(o) == 13)
    with pytest.raises(PropertyViolation):
        sra_from_crcbibd(crcbibd39, class_orbit=big[0], h1_classes=[])


def test_sra_from_crcbibd_rejects_noncyclic(ag23):
    with pytest.raises(PropertyViolation):
        sra_from_crcbibd(ag23, class_orbit=0, h1_classes=[])


def test_wqra_from_crcbibd_chain_distance(crcbibd39):
    orbits = _ra_orbit_classes(crcbibd39)
    tri = [o for o in orbits if len(o) == 3]
    ra = wqra_from_crcbibd(crcbibd39, class_orbit=tri[0][0], g1=2, h1_classes=[])
    for i, rows in enumerate(col_rows(ra.h2)):
        assert rows[0] == i  # unit diagonal
        if i + 2 < 39:
            assert i + 2 in rows  # chain pair at vertical distance 2
    assert ra.provenance["requested_g1"] == 2


def test_wqra_from_crcbibd_g1_reduces_to_sra_chain(crcbibd39):
    orbits = _ra_orbit_classes(crcbibd39)
    tri = [o for o in orbits if len(o) == 3]
    sra = sra_from_crcbibd(crcbibd39, class_orbit=tri[0][0], h1_classes=[])
    wq = wqra_from_crcbibd(crcbibd39, class_orbit=tri[0][0], g1=1, h1_classes=[])
    # keeping only the chain pairs of the weight-q variant reproduces the sRA H2
    chain = SparseBinaryMatrix(
        39, 39,
        [tuple(r for r in rows if r in (i, i + 1)) for i, rows in enumerate(col_rows(wq.h2))],
    )
    assert chain == sra.h2


def _nine_translates(base) -> Design:
    """The translates of base mod 9 in the classes {B + s, B + s + 3,
    B + s + 6}: one class orbit of length 3, square when base meets each
    residue mod 3 once."""
    blocks = [tuple(sorted((x + s) % 9 for x in base)) for s in range(9)]
    return Design(9, 3, blocks, [(s, s + 3, s + 6) for s in range(3)])


def test_crcbibd_chain_pair_in_two_columns():
    # x1 = 0, delta = 1: every pair {x, x + 1} lies in the translates x and x - 1
    with pytest.raises(PropertyViolation,
                       match=r"^two columns carry the chain pair at position \d+$"):
        sra_from_crcbibd(_nine_translates((0, 1, 2)), class_orbit=0, h1_classes=[])
    # delta = 5 lies in one translate per pair; position (t+1)*2 - 1 holds point 5t
    ra = wqra_from_crcbibd(_nine_translates((0, 5, 7)), class_orbit=0, g1=2, h1_classes=[])
    assert (ra.provenance["x1"], ra.provenance["delta"]) == (0, 5)
    assert ra.provenance["h2_blocks"] == (2, 0, 7, 5, 3, 1, 8, 6, 4)


def test_wqra_bad_g1(crcbibd39):
    with pytest.raises(BadG1):
        wqra_from_crcbibd(crcbibd39, class_orbit=13, g1=3, h1_classes=[])


def test_no_coprime_delta_error():
    # every column's consecutive distances share a factor with v=9
    blocks = tuple((j, j + 3, j + 6) for j in range(3)) + tuple(
        tuple(sorted(((0, 1, 2)[i] + s) % 9 for i in range(3))) for s in range(9)
    )
    # direct probe of the scanner on the short-orbit class only
    from bibdcodes.ra import _find_coprime_delta

    d = Design(v=9, k=3, blocks=blocks)
    with pytest.raises(NoCoprimeDelta):
        _find_coprime_delta(d, [0, 1, 2])


def test_sidecar_text(crcbibd39):
    orbits = _ra_orbit_classes(crcbibd39)
    tri = [o for o in orbits if len(o) == 3]
    ra = sra_from_crcbibd(crcbibd39, class_orbit=tri[0][0], h1_classes=tri[1])
    text = sidecar_text(ra)
    assert "m=39" in text and "k=39" in text and "g=1" in text
    assert "source=crcbibd" in text


def test_kts_chain_blocks_really_hold_their_pairs(kts21):
    ra = sra_from_kts(kts21, h1_classes=[])
    order = ra.provenance["row_order"]
    position_of = {old: pos for pos, old in enumerate(order)}
    listed = blocks(kts21)
    for i, bi in enumerate(ra.provenance["h2_blocks"]):
        rows = {position_of[x] for x in listed[bi]}
        assert {i, (i + 1) % 21} <= rows


@pytest.mark.parametrize("kind,g1", [("sra", 1), ("wqra", 1), ("wqra", 2)])
def test_crcbibd_chain_blocks_really_hold_their_pairs(crcbibd39, kind, g1):
    orbits = _ra_orbit_classes(crcbibd39)
    tri = [o for o in orbits if len(o) == 3]
    if kind == "sra":
        ra = sra_from_crcbibd(crcbibd39, class_orbit=tri[0][0], h1_classes=[])
    else:
        ra = wqra_from_crcbibd(crcbibd39, class_orbit=tri[0][0], g1=g1, h1_classes=[])
    x1, delta = ra.provenance["x1"], ra.provenance["delta"]
    position_of = {}
    for t in range(39):
        position_of[(x1 + delta * t) % 39] = ((t + 1) * g1 - 1) % 39
    assert len(ra.provenance["h2_blocks"]) == 39
    listed = blocks(crcbibd39)
    for i, bi in enumerate(ra.provenance["h2_blocks"]):
        rows = {position_of[x] for x in listed[bi]}
        assert {i, (i + g1) % 39} <= rows
