"""Deterministic primality for the moduli used by the embedding routines."""

from __future__ import annotations

import functools

__all__ = ["is_prime", "smallest_prime_in"]

# The first twelve primes as Miller-Rabin bases decide every n < 3.18e23
# (Sorenson and Webster, Math. Comp. 86, 2017), so every modulus up to 2^62.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for every n below 3.18e23."""
    if n < 2:
        return False
    for p in _WITNESSES:
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
