"""Deterministic primality for the moduli used by the embedding routines."""

from __future__ import annotations

import functools

from .groups import BudgetError

__all__ = ["is_prime", "smallest_prime_in"]

# Witnesses proving primality for all n < 3_317_044_064_679_887_385_961_981
# are known, but the fixed set below is the classical one valid for
# n < 3.4e14; a larger modulus (Z/N allows up to 2^62) is over budget.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17)
_VALID_BELOW = 341_550_071_728_321  # first composite passing witnesses 2..17


@functools.lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n below 3.4e14; BudgetError above."""
    if n >= _VALID_BELOW:
        raise BudgetError(f"{n} exceeds the deterministic witness range")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_in(lo: int, hi: int) -> int:
    """Smallest prime p with lo < p <= hi; raises if the range has none."""
    for p in range(max(2, lo + 1), hi + 1):
        if is_prime(p):
            return p
    raise ValueError(f"no prime in ({lo}, {hi}]")
