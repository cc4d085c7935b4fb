import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibdcodes.algebra import (
    PrimeField,
    find_primitive_root,
    is_nth_power,
    is_prime,
    kth_roots_of_unity,
)
from bibdcodes.errors import NotDivisor, NotPrime, ZeroInput

from oracles import discrete_log, multiplicative_order

SMALL_PRIMES = [p for p in range(2, 300) if is_prime(p)]


def test_is_prime_against_sieve():
    sieve = set()
    for n in range(2, 2000):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            sieve.add(n)
    assert {n for n in range(2, 2000) if is_prime(n)} == sieve


def test_find_primitive_root_examples():
    assert find_primitive_root(7) == 3
    assert find_primitive_root(13) == 2
    assert find_primitive_root(2) == 1


def test_find_primitive_root_rejects_composites():
    with pytest.raises(NotPrime):
        find_primitive_root(15)


def test_primitive_root_order_all_primes_to_10000():
    for p in range(2, 10000):
        if not is_prime(p):
            continue
        field = PrimeField(p)
        assert multiplicative_order(field, field.omega) == p - 1


def test_primitive_root_is_smallest():
    for p in SMALL_PRIMES[1:20]:
        field = PrimeField(p)
        for g in range(2, field.omega):
            assert multiplicative_order(field, g) < p - 1


def test_kth_roots_examples():
    assert kth_roots_of_unity(PrimeField(73), 9) == {1, 2, 4, 8, 16, 32, 64, 55, 37}
    assert kth_roots_of_unity(PrimeField(7), 1) == {1}
    assert kth_roots_of_unity(PrimeField(13), 3) == {1, 3, 9}


def test_kth_roots_requires_divisor():
    with pytest.raises(NotDivisor):
        kth_roots_of_unity(PrimeField(13), 5)


def test_kth_roots_closed_under_multiplication():
    for p, k in [(13, 4), (41, 10), (73, 9), (61, 12)]:
        field = PrimeField(p)
        roots = kth_roots_of_unity(field, k)
        assert len(roots) == k
        assert {a * b % p for a in roots for b in roots} == roots


def test_is_nth_power_examples():
    f13 = PrimeField(13)
    assert not is_nth_power(f13, 3, 3)
    assert is_nth_power(f13, 12, 3)
    for n in (1, 2, 5, 7):
        assert is_nth_power(f13, 1, n)
    with pytest.raises(ZeroInput):
        is_nth_power(f13, 0, 3)


def test_is_nth_power_matches_enumeration():
    for p in [p for p in SMALL_PRIMES if p <= 101]:
        field = PrimeField(p)
        for n in range(1, 13):
            powers = {pow(y, n, p) for y in range(1, p)}
            for x in range(1, p):
                assert is_nth_power(field, x, n) == (x in powers), (p, x, n)


def test_discrete_log_examples():
    f7 = PrimeField(7)
    assert f7.omega == 3
    assert discrete_log(f7, 1) == 0
    assert discrete_log(f7, 3) == 1
    assert discrete_log(f7, 6) == 3
    with pytest.raises(ZeroInput):
        discrete_log(f7, 0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([p for p in SMALL_PRIMES if p > 2]), st.integers(min_value=1, max_value=10**6))
def test_discrete_log_inverts_exponentiation(p, x_raw):
    field = PrimeField(p)
    x = x_raw % p
    if x == 0:
        x = 1
    c = discrete_log(field, x)
    assert 0 <= c <= p - 2
    assert pow(field.omega, c, p) == x


def test_field_of_two_degenerates_cleanly():
    f2 = PrimeField(2)
    assert f2.omega == 1
    assert kth_roots_of_unity(f2, 1) == {1}
    assert discrete_log(f2, 1) == 0
