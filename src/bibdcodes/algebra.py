"""Prime-field arithmetic: primitive roots and power residues.

Everything here works in Z_p for a prime modulus p. Exponents are kept in
[0, p-2]; negative inputs are normalized. Intended scale is p well below
2**40.
"""

from __future__ import annotations

import math

from .errors import NotDivisor, NotPrime, OutOfRange, ZeroInput

# Deterministic Miller-Rabin witness set, valid for all n < 3.4e14.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17)
_MR_LIMIT = 3_400_000_000_000_000


def is_prime(n: int) -> bool:
    """Deterministic primality check for n < 3.4e14."""
    if n >= _MR_LIMIT:
        raise OutOfRange(f"primality check limited to n < {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def find_primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group of Z_p.

    Raises NotPrime if p is not prime. For p = 2 the group is trivial
    and the generator is 1.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise NotPrime(f"no primitive root found for {p}")  # unreachable for prime p


class PrimeField:
    """The field Z_p together with its canonical (smallest) primitive root.

    Instances are immutable; share them freely.
    """

    def __init__(self, p: int):
        self.p = p
        self.omega = find_primitive_root(p)

    def __repr__(self):
        return f"PrimeField(p={self.p}, omega={self.omega})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


def kth_roots_of_unity(field: PrimeField, k: int) -> set[int]:
    """The unique subgroup of order k in Z_p*, as a set.

    Requires k to divide p-1 (NotDivisor otherwise). Computed as the
    powers of omega**((p-1)/k).
    """
    p = field.p
    if k <= 0 or (p - 1) % k != 0:
        raise NotDivisor(f"{k} does not divide p-1 = {p - 1}")
    gen = pow(field.omega, (p - 1) // k, p)
    roots = set()
    x = 1
    for _ in range(k):
        roots.add(x)
        x = x * gen % p
    return roots


def is_nth_power(field: PrimeField, x: int, n: int) -> bool:
    """True iff x is an n-th power residue mod p.

    Uses the Euler-type criterion x**((p-1)/gcd(n, p-1)) == 1, so n need
    not divide p-1. x must be nonzero mod p.
    """
    p = field.p
    x %= p
    if x == 0:
        raise ZeroInput("0 is excluded from power-residue queries")
    g = math.gcd(n, p - 1)
    return pow(x, (p - 1) // g, p) == 1
