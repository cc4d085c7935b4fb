"""Difference-family constructions over prime fields.

Netto's triple systems (k=3), Buratti's power-coset families (k=4,5),
and a backtracking search for radical families (odd k, base blocks are
cosets of the k-th roots of unity). Residues are multiplied in int64,
exact while (p-1)^2 < 2^63; past that each builder raises TooLarge, as
no such family (over 10^8 base blocks, or a label for each of p residues)
fits in memory.
"""

from __future__ import annotations

import math

import numpy as np

from ..algebra import PrimeField, is_prime, kth_roots_of_unity
from ..errors import BadModulus, InvalidFamily, NotFound, OutOfRange, SearchExhausted, TooLarge
from .types import Block, DifferenceFamily


def netto_cdf(p: int) -> DifferenceFamily:
    """Netto triple family: blocks omega^i * U3 for i = 1..t, p = 6t+1.

    U3 is the cube-root subgroup, so every block is a coset of the third
    roots of unity scaled by successive powers of the primitive root.
    The t multipliers come from one power table of omega, and the blocks
    are one row-sorted (t, 3) array.
    """
    _check_int64(p)
    if not is_prime(p) or p % 6 != 1:
        raise BadModulus(f"Netto construction needs a prime p = 1 (mod 6), got {p}")
    field = PrimeField(p)
    u3 = np.array(sorted(kth_roots_of_unity(field, 3)))
    blocks = _powers(field.omega, (p - 1) // 6 + 1, p)[1:, None] * u3 % p
    blocks.sort(axis=1)
    return DifferenceFamily(v=p, k=3, base_blocks=blocks)


def buratti_cdf(p: int, k: int) -> DifferenceFamily:
    """Buratti family for k=4 (p = 1 mod 12) or k=5 (p = 1 mod 20).

    The base block B must contain 0 and 1 and have its k(k-1)/2 positive
    differences hit each coset of the index-k(k-1)/2 power subgroup
    exactly once; the family is then B scaled by omega^(k(k-1)i),
    i = 1..t, multipliers read from one power table, and the blocks are
    one row-sorted (t, k) array. The search tries the power chain {0, 1, b, b^2(, b^3)}
    with the smallest b first. For k=5 small primes admit no such chain
    at all and the search widens to the lexicographically smallest
    {0, 1, x, y, z} with the same coset property, which the same
    product argument covers. Both searches read each difference's coset
    label d^((p-1)/index) mod p from the label table of _label_table,
    built once per prime. Raises SearchExhausted when nothing works;
    nothing is ever fabricated.
    """
    if k not in (4, 5):
        raise BadModulus(f"Buratti construction covers k = 4 or 5, got k={k}")
    _check_int64(p)
    modulus = 12 if k == 4 else 20
    if not is_prime(p) or p % modulus != 1:
        raise BadModulus(f"k={k} needs a prime p = 1 (mod {modulus}), got {p}")
    field = PrimeField(p)
    t = (p - 1) // modulus
    index = k * (k - 1) // 2  # 6 cosets for k=4, 10 for k=5
    exponent = (p - 1) // index

    labels = _label_table(p, field.omega, exponent)
    base = _chain_base(p, k, labels)
    if base is None and k == 5:
        base = _lex_base5(labels)
    if base is None:
        raise SearchExhausted(f"no representative-system base block found for p={p}, k={k}")

    # the multipliers omega^(k(k-1)i): omega^6 powers for k=4, omega^10 for k=5
    blocks = _powers(pow(field.omega, index, p), t + 1, p)[1:, None] * np.array(base) % p
    blocks.sort(axis=1)
    return DifferenceFamily(v=p, k=k, base_blocks=blocks)


def _check_int64(p: int) -> None:
    """TooLarge unless (p-1)^2 < 2^63: products of residues mod p fit int64."""
    if p - 1 > math.isqrt(2**63 - 1):
        raise TooLarge(f"p={p} is too large: residue products mod p must fit int64, "
                       "so p <= 3037000500")


def _powers(x: int, count: int, p: int) -> np.ndarray:
    """The power table x^0, .., x^(count-1) mod p: the outer product of
    x^0..x^(s-1) and (x^s)^0..(x^s)^(s-1), s*s > count."""
    s = math.isqrt(count) + 1
    low, high = [1], [1]
    for _ in range(s - 1):
        low.append(low[-1] * x % p)
    for _ in range(s - 1):
        high.append(high[-1] * low[-1] * x % p)
    return (np.array(high)[:, None] * np.array(low) % p).ravel()[:count]


def _label_table(p: int, omega: int, exponent: int) -> np.ndarray:
    """The label table: d^exponent mod p for every residue d, read as
    (omega^exponent)^j at d = omega^j."""
    labels = np.zeros(p, dtype=np.int64)
    labels[_powers(omega, p - 1, p)] = _powers(pow(omega, exponent, p), p - 1, p)
    return labels


def _chain_base(p: int, k: int, labels: np.ndarray):
    """Smallest b >= 2 with {0, 1, b, .., b^(k-2)} a representative system:
    the labels of its differences are nonzero (no point repeats) and
    distinct. Candidates are tested as arrays in blocks of 16, 32, ..,
    labelled from the label table."""
    i, j = np.array([(a, b) for a in range(k) for b in range(a)]).T  # tril_indices is slower
    start, size = 2, 16
    while start < p:
        b = np.arange(start, min(start + size, p))
        chain = [np.zeros_like(b), np.ones_like(b), b]
        while len(chain) < k:
            chain.append(chain[-1] * b % p)
        blk = np.stack(chain, axis=1)
        lab = labels[(blk[:, i] - blk[:, j]) % p]
        lab.sort(axis=1)
        hit = np.flatnonzero((lab[:, 0] > 0) & (lab[:, 1:] > lab[:, :-1]).all(axis=1))
        if len(hit):
            return tuple(int(x) for x in blk[hit[0]])
        start, size = start + size, 2 * size
    return None


def _lex_base5(labels: np.ndarray):
    """Lexicographically smallest {0, 1, x, y, z} representative system,
    for the prime p = len(labels)."""
    lab = labels.tolist()
    p = len(lab)
    first = {lab[1]}
    for x in range(2, p):
        s1 = {lab[x], lab[x - 1]}
        if len(s1) != 2 or s1 & first:
            continue
        s1 |= first
        for y in range(x + 1, p):
            add = {lab[y], lab[y - 1], lab[y - x]}
            if len(add) != 3 or add & s1:
                continue
            s2 = s1 | add
            for z in range(y + 1, p):
                add2 = {lab[z], lab[z - 1], lab[z - x], lab[z - y]}
                if len(add2) == 4 and not (add2 & s2):
                    return (0, 1, x, y, z)
    return None


def radical_df_search(p: int, k: int) -> DifferenceFamily:
    """First radical family in ascending multiplier order, or NotFound.

    Candidate blocks are the cosets m * U_k (one multiplier per coset,
    smallest first); backtracking selects n = (p-1)/(k(k-1)) of them
    whose differences tile Z_p \\ {0}. The returned family is the
    lexicographically smallest multiplier tuple that works.
    """
    if k < 3 or k % 2 == 0:
        raise BadModulus(f"radical families need odd k >= 3, got {k}")
    _check_int64(p)
    kk = k * (k - 1)
    if not is_prime(p) or p % kk != 1:
        raise BadModulus(f"need a prime p = 1 (mod {kk}), got {p}")
    field = PrimeField(p)
    uk = sorted(kth_roots_of_unity(field, k))
    n = (p - 1) // kk

    # the cosets of U_k are the classes of d^k: take each one's smallest d
    reps = np.sort(np.unique(_label_table(p, field.omega, k)[1:], return_index=True)[1] + 1)
    blocks = np.sort(reps[:, None] * np.array(uk) % p, axis=1)
    # every coset as a base block, untiled, for its row of differences
    cosets = DifferenceFamily(v=p, k=k, base_blocks=blocks)
    candidates = []  # (block, difference bitmask)
    for blk, diffs in zip(cosets.base_blocks, cosets.base_differences().tolist()):
        if len(set(diffs)) != len(diffs):
            continue  # repeated internal difference, unusable at lambda = 1
        mask = 0
        for d in diffs:
            mask |= 1 << d
        candidates.append((blk, mask))

    full = (1 << p) - 2  # bits 1..p-1
    chosen: list[Block] = []

    def extend(start: int, covered: int) -> bool:
        if covered == full:
            return True
        if len(chosen) == n:
            return False
        for idx in range(start, len(candidates)):
            blk, mask = candidates[idx]
            if covered & mask:
                continue
            chosen.append(blk)
            if extend(idx + 1, covered | mask):
                return True
            chosen.pop()
        return False

    if not extend(0, 0):
        raise NotFound(f"no radical difference family for p={p}, k={k}")
    fam = DifferenceFamily(v=p, k=k, base_blocks=tuple(chosen))
    for blk in fam.base_blocks:
        inv = pow(blk[0], p - 2, p)
        if {x * inv % p for x in blk} != set(uk):
            raise InvalidFamily(f"radical base block {blk} is not a coset of the "
                                f"{k}-th roots of unity")
    return fam


def find_base_block_with_difference(f: DifferenceFamily, d: int) -> int:
    """Smallest 1-based index s with d in the differences of B_s.

    d must be a nonzero residue; raises NotFound when only the short
    orbit (or nothing) produces the difference.
    """
    d %= f.v
    if d == 0:
        raise OutOfRange("difference must be nonzero mod v")
    holders = np.flatnonzero((f.base_differences() == d).any(axis=1))
    if len(holders) == 0:
        raise NotFound(f"difference {d} not generated by any full-orbit base block")
    return int(holders[0]) + 1
