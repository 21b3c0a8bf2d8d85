"""Seeded random draws of exact scalars, points, words, and SL2 targets.

Shared by the verification suite and the test battery; everything funnels
through random.Random so identical seeds give identical sweeps.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exact_algebra import ExactComplex
from .word_core import LOWER, UPPER, ElementaryFactor, SL2, Word, eval_word


def rng_from_seed(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_fraction(rng: random.Random, num: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_exact(rng: random.Random, num: int = 6, den: int = 4
                 ) -> ExactComplex:
    # half the draws stay real, matching how often real slices matter
    im = random_fraction(rng, num, den) if rng.random() < 0.5 else Fraction(0)
    return ExactComplex(random_fraction(rng, num, den), im)


def random_exact_nonzero(rng: random.Random, num: int = 6, den: int = 4
                         ) -> ExactComplex:
    while True:
        x = random_exact(rng, num, den)
        if not x.is_zero:
            return x


def random_alternating_word(rng: random.Random, length: int,
                            num: int = 4, den: int = 3) -> Word:
    first = rng.choice((LOWER, UPPER))
    sides = [first if j % 2 == 0 else (UPPER if first == LOWER else LOWER)
             for j in range(length)]
    return Word(ElementaryFactor(s, random_exact(rng, num, den))
                for s in sides)


def random_sl2(rng: random.Random, length: int = 6) -> SL2:
    """Random exact unimodular matrix, built as a word product."""
    return eval_word(random_alternating_word(rng, length))
