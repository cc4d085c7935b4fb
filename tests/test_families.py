import sys
from collections import Counter

import pytest

from bibdcodes.algebra import PrimeField, is_prime
from bibdcodes.designs import (
    DifferenceFamily,
    buratti_cdf,
    expand_cdf_to_design,
    find_base_block_with_difference,
    netto_cdf,
    radical_df_search,
    validate_difference_family,
    verify_bibd,
)
from bibdcodes.designs.families import (
    _chain_base,
    _check_int64,
    _label_table,
    _powers,
)
from bibdcodes.errors import BadModulus, InvalidFamily, NotFound, OutOfRange, TooLarge

from oracles import (
    discrete_log,
    netto_block_index_of_difference,
    netto_dlog_to_index,
    netto_index_to_dlog,
)


def test_block_differences_examples():
    def block_differences(block, v):
        return DifferenceFamily(v=v, k=len(block), base_blocks=[block]).base_differences()[0].tolist()

    assert Counter(block_differences((0, 1, 3), 7)) == Counter([1, 6, 3, 4, 2, 5])
    assert block_differences((0,), 5) == []
    assert Counter(block_differences((1, 3, 9), 13)) == Counter([2, 11, 6, 7, 8, 5])


def test_netto_small_families():
    assert netto_cdf(7).base_blocks == ((3, 5, 6),)
    fam13 = netto_cdf(13)
    assert fam13.t == 2
    residues, counts = fam13.differences()
    assert residues.tolist() == list(range(1, 13)) and counts.tolist() == [1] * 12


def test_netto_rejects_bad_modulus():
    with pytest.raises(BadModulus):
        netto_cdf(11)
    with pytest.raises(BadModulus):
        netto_cdf(25)  # 25 = 1 mod 6 but composite


def test_buratti_k4_base_set():
    fam = buratti_cdf(13, 4)
    # base set {0,1,3,9}: the family is its omega^6 multiple
    plus = [(b - a) % 13 for i, b in enumerate((0, 1, 3, 9)) for a in (0, 1, 3, 9)[:i]]
    assert sorted(plus) == [1, 2, 3, 6, 8, 9]
    cosets = {frozenset({x, 13 - x}) for x in plus}
    assert len(cosets) == 6  # one per coset of {1, -1}
    assert fam.t == 1


def test_buratti_rejects_bad_modulus():
    with pytest.raises(BadModulus):
        buratti_cdf(14, 4)
    with pytest.raises(BadModulus):
        buratti_cdf(13, 5)
    with pytest.raises(BadModulus):
        buratti_cdf(13, 6)


def test_buratti_41_family_valid():
    fam = buratti_cdf(41, 5)
    assert fam.t == 2
    residues, counts = fam.differences()
    assert residues.tolist() == list(range(1, 41)) and counts.tolist() == [1] * 40


def test_radical_search_examples():
    fam = radical_df_search(13, 3)
    assert fam.base_blocks == ((1, 3, 9), (2, 5, 6))
    fam73 = radical_df_search(73, 9)
    assert fam73.t == 1
    assert fam73.base_blocks[0] == (1, 2, 4, 8, 16, 32, 37, 55, 64)


def test_radical_family_is_coset_scaled_netto():
    # both are systems of cube-root cosets; blocks agree up to a unit factor
    rad = radical_df_search(7, 3)
    net = netto_cdf(7)
    (rb,) = rad.base_blocks
    (nb,) = net.base_blocks
    scaled = {frozenset(m * x % 7 for x in rb) for m in range(1, 7)}
    assert frozenset(nb) in scaled
    assert verify_bibd(expand_cdf_to_design(rad)).ok
    assert verify_bibd(expand_cdf_to_design(net)).ok


def test_radical_search_every_admissible_prime_k3():
    for p in range(7, 500, 6):
        if is_prime(p):
            fam = radical_df_search(p, 3)
            validate_difference_family(fam)


def test_validate_family_catches_broken_coverage():
    fam = netto_cdf(13)
    broken = DifferenceFamily(v=13, k=3, base_blocks=fam.base_blocks[:1])
    with pytest.raises(InvalidFamily):
        validate_difference_family(broken)



@pytest.mark.parametrize("build", [
    lambda: netto_cdf(61),
    lambda: buratti_cdf(37, 4),
    lambda: buratti_cdf(41, 5),
    lambda: radical_df_search(31, 3),
], ids=["netto", "buratti4", "buratti5", "radical"])
def test_each_family_is_validated_once(monkeypatch, build):
    # expand_cdf_to_design is the one validation point, wherever the
    # family came from; patch every module that holds the name
    calls = []

    def counting(f, check=validate_difference_family):
        calls.append(f)
        return check(f)

    for module in list(sys.modules.values()):
        if getattr(module, "validate_difference_family", None) is validate_difference_family:
            monkeypatch.setattr(module, "validate_difference_family", counting)
    fam = build()
    assert calls == []
    expand_cdf_to_design(fam)
    assert calls == [fam]


def test_validate_family_rejects_block_size_below_2():
    # k(k-1) is 0 here, which once surfaced as a ZeroDivisionError
    for k, base in ((1, (0,)), (0, ())):
        with pytest.raises(InvalidFamily, match=f"^k={k} < 2"):
            validate_difference_family(DifferenceFamily(7, k, (base,)))


def test_find_base_block_examples():
    assert find_base_block_with_difference(netto_cdf(7), 1) == 1
    b13 = buratti_cdf(13, 4)
    assert find_base_block_with_difference(b13, 1) == b13.t
    with pytest.raises(OutOfRange):
        find_base_block_with_difference(netto_cdf(7), 0)
    with pytest.raises(NotFound):
        fam = DifferenceFamily(v=21, k=3, base_blocks=((0, 3, 15), (0, 2, 10), (0, 1, 5)),
                               has_short_orbit_block=True)
        find_base_block_with_difference(fam, 7)  # short-orbit difference only


def test_buratti_unit_difference_lands_in_last_block():
    for p, k in [(13, 4), (37, 4), (61, 4), (41, 5), (61, 5)]:
        fam = buratti_cdf(p, k)
        assert find_base_block_with_difference(fam, 1) == fam.t


def test_netto_dlog_index_roundtrip():
    for p in (7, 13, 19, 31, 37):
        for c in range(p - 1):
            s, r = netto_dlog_to_index(p, c)
            assert netto_index_to_dlog(p, r, s) == c


def test_netto_dlog_index_degenerate_t1():
    # p=7 has a single block; every exponent maps to column 0
    for c in range(6):
        s, _ = netto_dlog_to_index(7, c)
        assert s == 0


def test_netto_index_to_dlog_range_checks():
    with pytest.raises(OutOfRange):
        netto_index_to_dlog(13, 6, 0)
    with pytest.raises(OutOfRange):
        netto_index_to_dlog(13, 0, 2)
    with pytest.raises(OutOfRange):
        netto_dlog_to_index(13, 12)


def test_dlog_block_location_matches_linear_scan():
    for p in (13, 19, 31, 37):
        fam = netto_cdf(p)
        for d in range(1, p):
            assert netto_block_index_of_difference(p, d) == find_base_block_with_difference(fam, d)


def test_dlog_column_formula_matches_scan():
    # column of difference 1 via the anchor exponent, as in the grid map
    for p in (13, 19, 31, 37):
        field = PrimeField(p)
        t = (p - 1) // 6
        anchor = field.omega * (pow(field.omega, 2 * t, p) - 1) % p
        c = discrete_log(field, anchor)
        s = (t - c) % t
        assert s + 1 == find_base_block_with_difference(netto_cdf(p), 1)


# --- power tables and the array chain search ----------------------------------

# (p - 1)^2 < 2^63 holds for p <= 3037000500; these primes straddle it
_BELOW_LIMIT = 3037000493
_ABOVE_LIMIT_K3 = 3037000507  # = 1 (mod 6)
_ABOVE_LIMIT_K4 = 3037000537  # = 1 (mod 12)
_ABOVE_LIMIT_K5 = 3037000721  # = 1 (mod 20)


def _chain_base_loop(p, k, exponent):
    """The per-candidate search the array scan replaces."""
    for b in range(2, p):
        blk = [0, 1] + [pow(b, e, p) for e in range(1, k - 1)]
        labels = {pow((x - y) % p, exponent, p) for i, x in enumerate(blk) for y in blk[:i]}
        if len(set(blk)) == k and len(labels) == k * (k - 1) // 2:
            return tuple(blk)
    return None


@pytest.mark.parametrize("p", [_BELOW_LIMIT, 13, 997])
def test_powers_are_exact_below_the_int64_limit(p):
    x = 5
    assert _powers(x, 40, p).tolist() == [pow(x, i, p) for i in range(40)]
    assert _powers(p - 1, 3, p).tolist() == [1, p - 1, 1]


def test_label_table_matches_pow():
    for p in (13, 37, 61, 241):
        field = PrimeField(p)
        for exponent in (1, 3, (p - 1) // 6):
            table = _label_table(p, field.omega, exponent)
            assert table.tolist() == [pow(d, exponent, p) for d in range(p)]


@pytest.mark.parametrize("k,modulus", [(4, 12), (5, 20)])
def test_array_chain_search_matches_the_loop_on_the_sweep(k, modulus):
    index = k * (k - 1) // 2
    for p in range(modulus + 1, 1000, modulus):
        if is_prime(p):
            exponent = (p - 1) // index
            labels = _label_table(p, PrimeField(p).omega, exponent)
            assert _chain_base(p, k, labels) == _chain_base_loop(p, k, exponent)


@pytest.mark.parametrize("build", [
    lambda: netto_cdf(_ABOVE_LIMIT_K3),
    lambda: buratti_cdf(_ABOVE_LIMIT_K4, 4),
    lambda: buratti_cdf(_ABOVE_LIMIT_K5, 5),
    lambda: radical_df_search(_ABOVE_LIMIT_K3, 3),
    lambda: netto_cdf(4 * 10**14),  # past is_prime's range as well
], ids=["netto", "buratti4", "buratti5", "radical", "netto-past-is-prime"])
def test_families_past_the_int64_limit_are_too_large(build):
    # raised before any arithmetic: these families would not fit in memory
    with pytest.raises(TooLarge, match=r"^p=\d+ is too large: .* p <= 3037000500$"):
        build()


def test_the_int64_limit_is_exact():
    _check_int64(3037000500)  # the last p with (p - 1)^2 < 2^63
    with pytest.raises(TooLarge):
        _check_int64(3037000501)
