"""Prime tests, factorisations and roots of unity in prime fields.

The integer arithmetic that group orders, exponents, working primes and
the prime parameters of the theorems rely on, in one place.  Trial
division throughout: every argument is a group order, an exponent or a
prime of a few digits.
"""

from __future__ import annotations

from math import gcd, isqrt


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def element_of_order(q: int, e: int) -> int:
    """Element of exact multiplicative order e in F_q, q prime.

    Deterministic: the first c^((q-1)/e) of order e for c = 1, 2, ...
    """
    if (q - 1) % e == 0:
        factors = prime_factors(e)
        for c in range(1, q):
            w = pow(c, (q - 1) // e, q)
            if all(pow(w, e // f, q) != 1 for f in factors):
                return w
    raise ValueError(f"F_{q} has no element of order {e}")


def unit_generators(e: int, p: int = 1) -> list[int]:
    """A small generating set of the units a = 1 (mod p) of Z/e, for p
    dividing e (all of (Z/e)^x for p = 1): greedily, each such unit not yet
    generated joins the set, and the generated subgroup is multiplied by it
    until it stops growing."""
    gens: list[int] = []
    generated = {1 % e}
    for a in range(1 + p, e, p):
        if gcd(a, e) == 1 and a not in generated:
            gens.append(a)
            while (grown := generated | {h * a % e for h in generated}) != generated:
                generated = grown
    return gens
