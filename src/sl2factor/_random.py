"""Seeded random draws of exact scalars, points, words, and SL2 targets.

Shared by the verification suite and the test battery; everything funnels
through random.Random so identical seeds give identical sweeps.
"""

from __future__ import annotations

import random

from .scalars import ExactComplex, _reduced
from .word_core import LOWER, UPPER, ElementaryFactor, SL2, Word, eval_word


def rng_from_seed(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _below(bits, n: int, k: int) -> int:
    """A uniform int in [0, n), k being n.bit_length() and bits the
    generator's getrandbits: k-bit draws until one falls below n, which is
    how random.Random's randrange draws from range(n).  So its values, and
    the generator's state after them, are randrange's, without its argument
    handling."""
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_exact(rng: random.Random, num: int = 6, den: int = 4
                 ) -> ExactComplex:
    """n1/d1 + (n2/d2) i with |n| <= num and 1 <= d <= den, built from its
    integer triple; the imaginary pair is drawn first.  Each integer is the
    one rng.randint(-num, num) or rng.randint(1, den) gives; num >= 0 and
    den >= 1, which every caller passes (an empty range would never end a
    rejection loop)."""
    bits = rng.getrandbits
    width = 2 * num + 1
    kn, kd = width.bit_length(), den.bit_length()
    # half the draws stay real, matching how often real slices matter
    if rng.random() < 0.5:
        n2 = _below(bits, width, kn) - num
        d2 = _below(bits, den, kd) + 1
    else:
        n2, d2 = 0, 1
    n1 = _below(bits, width, kn) - num
    d1 = _below(bits, den, kd) + 1
    return _reduced(n1 * d2, n2 * d1, d1 * d2)


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
