"""Negative (ceiling-based) continued fraction expansions.

A rational x > 1 has a unique expansion

    x = a0 - 1/(a1 - 1/(a2 - ... - 1/ak))

with every ai >= 2.  These expansions drive two things elsewhere in the
package: the weights of the long leg of a plumbing star, and the
stabilization budgets of Legendrian realizations of negative contact
surgeries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable


@dataclass(frozen=True)
class NegCF:
    """Expansion terms, outermost first.  All terms >= 2."""

    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("empty expansion")
        for a in self.terms:
            if a < 2:
                raise ValueError(f"term {a} < 2")

    def __len__(self) -> int:
        return len(self.terms)

    def value(self) -> Fraction:
        return neg_cf_value(self.terms)


def neg_cf_expand(x: Fraction | int) -> NegCF:
    """Expand a rational x > 1 into its negative continued fraction.

    Each step takes the ceiling and recurses on 1/(ceil(x) - x); since
    0 < ceil(x) - x < 1 at every step where the remainder is nonzero,
    every term from the second on is >= 2, and x > 1 forces the first
    term >= 2 as well.  On x = p/q in lowest terms a step is Euclid on
    the integers: a = ceil(p/q), then p/q becomes q/(a q - p), again in
    lowest terms.  Denominators strictly decrease, so this always
    terminates.
    """
    x = Fraction(x)
    if x <= 1:
        raise ValueError(f"need x > 1, got {x}")
    p, q = x.numerator, x.denominator
    terms: list[int] = []
    while q:
        a = -(-p // q)
        terms.append(a)
        p, q = q, a * q - p
    return NegCF(tuple(terms))


def neg_cf_length(x: Fraction | int) -> int:
    """len(neg_cf_expand(x)) for x > 1, in logarithmically many steps.

    Let x = [b0; b1, ..., bm] be its ordinary continued fraction, with
    bm >= 2 when m > 0.  For m > 0 the negative expansion reads b0 + 1,
    then b1 - 1 twos, then one term, then b3 - 1 twos, then one term, and
    so on, so it has b1 + b3 + b5 + ... terms, plus one when m is even
    (for m = 0 it is the single term b0).
    """
    x = Fraction(x)
    if x <= 1:
        raise ValueError(f"need x > 1, got {x}")
    p, q = x.numerator, x.denominator
    length = i = 0
    while q:  # Euclid: b is b_i
        b, (p, q) = p // q, (q, p % q)
        if i % 2:
            length += b
        i += 1
    return length + i % 2  # i = m + 1 here


def neg_cf_value(terms: Iterable[int]) -> Fraction:
    """Evaluate a0 - 1/(a1 - 1/(... - 1/ak)) exactly."""
    seq = list(terms)
    if not seq:
        raise ValueError("empty expansion")
    acc = Fraction(seq[-1])
    for a in reversed(seq[:-1]):
        if acc == 0:
            raise ValueError("division by zero while folding expansion")
        acc = a - Fraction(1, 1) / acc
    return acc


def parse_rational(text: str) -> Fraction:
    """Strict 'p' or 'p/q' with q > 0 written in digits, no spaces inside."""
    m = re.fullmatch(r"(-?\d+)(?:/(\d+))?", text.strip())
    if not m:
        raise ValueError(f"bad rational {text!r}")
    p = int(m.group(1))
    q = int(m.group(2)) if m.group(2) else 1
    if q == 0:
        raise ValueError("zero denominator")
    return Fraction(p, q)


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
