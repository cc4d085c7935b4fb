"""Existence predicates for the design classes behind the code families.

Answers are conservative: Exists is only ever claimed when a published
theorem case or a table embedded below covers the parameters; anything
the literature leaves open comes back Unknown, and violated counting
conditions come back Impossible. Every status carries its source.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..algebra import PrimeField, _prime_factors, is_nth_power, is_prime
from ..errors import BadModulus


class Status(enum.Enum):
    EXISTS = "Exists"
    UNKNOWN = "Unknown"
    IMPOSSIBLE = "Impossible"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ExistenceStatus:
    value: Status
    source: str

    def __bool__(self):
        return self.value is Status.EXISTS

    def __str__(self):
        return f"{self.value} ({self.source})"


# Resolvable designs with k=5 or k=8 whose existence is still open for
# v = k (mod k(k-1)); everything else in those residue classes exists.
RBIBD_OPEN_K5 = frozenset({45, 345, 465, 645})

RBIBD_OPEN_K8 = frozenset({
    176, 624, 736, 1128, 1240, 1296, 1408, 1464,
    1520, 1576, 1744, 2136, 2416, 2640, 2920, 2976,
    3256, 3312, 3424, 3760, 3872, 4264, 4432, 5216,
    5720, 5776, 6224, 6280, 6448, 6896, 6952, 7008,
    7456, 7512, 7792, 7848, 8016, 9752, 10200, 10704,
    10760, 10928, 11040, 11152, 11376, 11656, 11712, 11824,
    11936, 12216, 12328, 12496, 12552, 12720, 12832, 12888,
    13000, 13280, 13616, 13840, 13896, 14008, 14176, 14232,
    21904, 24480,
})

# Primes p for which a cyclically resolvable cyclic design on pk points
# is known: complete for k=5 below 10^3 and for k=7, 9 below 10^4.
CRCBIBD_PRIMES_K5 = (41, 61, 241, 281, 401, 421, 601, 641, 661, 701, 761, 821, 881)

CRCBIBD_PRIMES_K7 = (
    337, 421, 463, 883, 1723, 3067, 3319, 3823, 3907,
    4621, 4957, 5167, 5419, 5881, 6133, 8233, 8527, 8821,
    9619, 9787, 9829,
)

CRCBIBD_PRIMES_K9 = (73, 1153, 1873, 2017, 6481, 7489, 7561)

# Known exceptions in the k=7 and k=8,9 cyclic difference family cases.
CDF_K7_OPEN = frozenset({127, 211})
CDF_K7_OPEN_RANGE = (261_239_791, 12_365_970_000_000)
CDF_K8_OPEN = frozenset({113, 169, 281, 337})
CDF_K9_OPEN = frozenset({289, 361})


def _largest_power_dividing(base: int, n: int) -> int:
    e = 0
    while n % base == 0:
        n //= base
        e += 1
    return e


def _radical_k5_condition(field: PrimeField) -> bool:
    """Radical family criterion for k=5: the golden-ratio fifth power
    (11 + 5*sqrt(5))/2 must not be a 2^(e+1)-th power, 2^e || t.

    Equivalent to testing eps+1 for a primitive 5th root eps; both the
    sqrt(5) and eps choices wash out (their alternatives differ by a
    factor that is always a 2^(e+1)-th power).
    """
    p = field.p
    t = (p - 1) // 20
    e = _largest_power_dividing(2, t)
    sqrt5 = next(y for y in range(1, p) if y * y % p == 5 % p)
    val = (11 + 5 * sqrt5) * pow(2, p - 2, p) % p
    return not is_nth_power(field, val, 2 ** (e + 1))


def _radical_k7_condition(field: PrimeField) -> bool:
    """Radical family criterion for k=7: some f with 3^f | t makes
    eps+1, eps^2+eps+1 and their quotient exact 3^f-th powers
    (3^f-th but not 3^(f+1)-th), eps a primitive 7th root of unity."""
    p = field.p
    t = (p - 1) // 42
    eps = pow(field.omega, (p - 1) // 7, p)
    q1 = (eps + 1) % p
    q2 = (eps * eps + eps + 1) % p
    q3 = q2 * pow(q1, p - 2, p) % p
    for f in range(_largest_power_dividing(3, t) + 1):
        if all(
            is_nth_power(field, q, 3**f) and not is_nth_power(field, q, 3 ** (f + 1))
            for q in (q1, q2, q3)
        ):
            return True
    return False


def crcbibd_exists(p: int, k: int) -> ExistenceStatus:
    """Existence of a cyclically resolvable cyclic design on p*k points.

    k=3 always exists; k=5 and k=7 evaluate the radical-family power
    conditions; k=9 is a finite table lookup. Requires p = 1 (mod k(k-1)).
    """
    if k not in (3, 5, 7, 9):
        raise BadModulus(f"supported block sizes are 3, 5, 7, 9; got k={k}")
    kk = k * (k - 1)
    if not is_prime(p) or p % kk != 1:
        raise BadModulus(f"need a prime p = 1 (mod {kk}), got p={p}")
    if k == 3:
        return ExistenceStatus(Status.EXISTS, "radical triple families exist for every p = 1 (mod 6)")
    if k == 5:
        if _radical_k5_condition(PrimeField(p)):
            return ExistenceStatus(Status.EXISTS, "radical k=5 power condition holds")
        return ExistenceStatus(Status.UNKNOWN, "radical k=5 power condition fails; no construction known")
    if k == 7:
        if _radical_k7_condition(PrimeField(p)):
            return ExistenceStatus(Status.EXISTS, "radical k=7 power condition holds")
        return ExistenceStatus(Status.UNKNOWN, "radical k=7 power condition fails; no construction known")
    # k == 9
    if p in CRCBIBD_PRIMES_K9:
        return ExistenceStatus(Status.EXISTS, "k=9 table")
    if p < 10_000:
        return ExistenceStatus(Status.UNKNOWN, "absent from the complete k=9 table below 10^4")
    return ExistenceStatus(Status.UNKNOWN, "outside tabulated range (p >= 10^4)")


def rbibd_existence_status(v: int, k: int) -> ExistenceStatus:
    """Existence of a resolvable design on v points with block size k."""
    if k < 2 or v < k:
        return ExistenceStatus(Status.IMPOSSIBLE, f"degenerate parameters v={v}, k={k}")
    if v % k != 0 or (v - 1) % (k - 1) != 0:
        return ExistenceStatus(
            Status.IMPOSSIBLE, "counting conditions v = 0 (mod k), v = 1 (mod k-1) fail"
        )
    t = (v - k) // (k * (k - 1))  # v = k(k-1)t + k
    if k == 3 and t >= 1:
        return ExistenceStatus(Status.EXISTS, "Kirkman triple systems exist for all v = 3 (mod 6)")
    if k == 4 and t >= 1:
        return ExistenceStatus(Status.EXISTS, "resolvable designs exist for all v = 4 (mod 12)")
    if k == 5 and t >= 1:
        if v in RBIBD_OPEN_K5:
            return ExistenceStatus(Status.UNKNOWN, "listed open case (k=5 table)")
        return ExistenceStatus(Status.EXISTS, "v = 5 (mod 20) family minus tabulated open cases")
    if k == 8 and t >= 1:
        if v in RBIBD_OPEN_K8:
            return ExistenceStatus(Status.UNKNOWN, "listed open case (k=8 table)")
        return ExistenceStatus(Status.EXISTS, "v = 8 (mod 56) family minus tabulated open cases")
    if len(f := _prime_factors(k)) == 1 and _prime_factors(v) == f:
        return ExistenceStatus(
            Status.EXISTS, "v and k powers of the same prime; counting conditions are sufficient"
        )
    return ExistenceStatus(Status.UNKNOWN, "no covering theorem case")


def cdf_exists(p: int, k: int) -> ExistenceStatus:
    """Existence of a cyclic difference family CDF(p, k, 1), p prime."""
    if k < 3:
        return ExistenceStatus(Status.IMPOSSIBLE, f"block size {k} below 3")
    kk = k * (k - 1)
    if not is_prime(p):
        return ExistenceStatus(Status.IMPOSSIBLE, f"{p} is not prime")
    if p % kk != 1:
        return ExistenceStatus(Status.IMPOSSIBLE, f"p = 1 (mod {kk}) fails")
    t = (p - 1) // kk
    if k in (3, 4, 5):
        return ExistenceStatus(Status.EXISTS, f"k={k} families exist for every admissible prime")
    if k == 6:
        if t == 2:
            return ExistenceStatus(Status.UNKNOWN, "excluded case t=2 (p=61)")
        return ExistenceStatus(Status.EXISTS, "k=6 family, t != 2")
    if k == 7:
        if t <= 1:
            return ExistenceStatus(Status.UNKNOWN, "k=7 needs t > 1")
        if p in CDF_K7_OPEN:
            return ExistenceStatus(Status.UNKNOWN, "listed possible exception (k=7)")
        lo, hi = CDF_K7_OPEN_RANGE
        if lo <= p <= hi and pow(-3 % p, (p - 1) // 14, p) == 1:
            return ExistenceStatus(Status.UNKNOWN, "inside the conditional k=7 exception range")
        return ExistenceStatus(Status.EXISTS, "k=7 family minus listed exceptions")
    if k == 8:
        if p >= 10_000:
            return ExistenceStatus(Status.UNKNOWN, "k=8 only tabulated below 10^4")
        if p in CDF_K8_OPEN:
            return ExistenceStatus(Status.UNKNOWN, "listed possible exception (k=8)")
        return ExistenceStatus(Status.EXISTS, "k=8 finite family below 10^4")
    if k == 9:
        if p >= 10_000:
            return ExistenceStatus(Status.UNKNOWN, "k=9 only tabulated below 10^4")
        if p in CDF_K9_OPEN:
            return ExistenceStatus(Status.UNKNOWN, "listed possible exception (k=9)")
        return ExistenceStatus(Status.EXISTS, "k=9 finite family below 10^4")
    return ExistenceStatus(Status.UNKNOWN, f"no covering theorem case for k={k}")


@dataclass(frozen=True)
class CodeParameters:
    """Regular code parameters implied by a design: length vr/k, weight k,
    row weight r, and the rate lower bound (r-k)/r."""

    v: int
    k: int
    r: int
    n: int
    rate_bound: float


def ldpc_parameters(v: int, k: int, r: int) -> CodeParameters:
    """Length and rate bound of the code built from a (v, k, r) design."""
    if (v * r) % k != 0:
        raise BadModulus(f"vr = {v * r} not divisible by k = {k}")
    n = v * r // k
    return CodeParameters(v=v, k=k, r=r, n=n, rate_bound=(r - k) / r)
