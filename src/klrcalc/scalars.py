"""
Exact coefficient domains: the rationals and prime fields Z/p for odd p.

Rational values are plain ints until a genuine fraction appears (the engine
itself never divides, so structure constants stay integral); Z/p values are
ints in [0, p).  Both domains have 2 invertible, which the sign-fixed
subalgebra constructions require; characteristic 2 is rejected outright.
"""

from __future__ import annotations

import math
from fractions import Fraction


class DomainError(ValueError):
    pass


class Rationals:
    """Exact rational arithmetic (ints plus fractions.Fraction)."""

    name = "Q"
    char = 0
    one = 1
    half = Fraction(1, 2)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def from_int(self, k: int):
        return k

    def is_zero(self, a) -> bool:
        return a == 0

    def format(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        if "/" in text:
            try:
                return Fraction(text)
            except ZeroDivisionError:
                raise DomainError(f"zero denominator in {text!r}") from None
        return int(text)

    def __repr__(self):
        return "Rationals()"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField:
    """Z/p for an odd prime p below 2**31; values are ints in [0, p)."""

    def __init__(self, p: int):
        if p == 2:
            raise DomainError("characteristic 2 is not supported (2 must be invertible)")
        if p >= 2 ** 31:
            raise DomainError("the modulus must be below 2**31")
        if p < 3 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise DomainError(f"{p} is not an odd prime")
        self.p = p
        self.name = f"F{p}"
        self.char = p
        self.one = 1
        self.half = pow(2, -1, p)

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def from_int(self, k: int):
        return k % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def format(self, a) -> str:
        return f"{a % self.p} mod {self.p}"

    def parse(self, text: str):
        text = text.strip()
        if "mod" in text:
            val, mod = text.split("mod")
            if int(mod) != self.p:
                raise DomainError(f"value is mod {mod.strip()}, domain is mod {self.p}")
            return int(val) % self.p
        if "/" in text:
            num, den = text.split("/")
            if int(den) % self.p == 0:
                raise DomainError(f"zero denominator mod {self.p} in {text!r}")
            return int(num) * pow(int(den), -1, self.p) % self.p
        return int(text) % self.p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


def domain_from_flag(flag: str):
    """--field flag: 'Q' or 'Fp:p' (e.g. 'Fp:5')."""
    flag = flag.strip()
    if flag == "Q":
        return Rationals()
    if flag.startswith("Fp:"):
        return PrimeField(int(flag[3:]))
    raise DomainError(f"unknown field flag {flag!r} (expected 'Q' or 'Fp:p')")
