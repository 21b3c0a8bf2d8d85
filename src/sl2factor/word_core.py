"""Elementary factors, words, SL2 matrices, and the product map Phi_N.

Also the two word-level results that need nothing else: padding a word
off the singular set (pad_avoid_singular) and the composite factor-count
bound (factor_count_bound).  Polynomials come from exact_algebra, which
is imported only where one is built or read, so a call on scalars loads
scalars alone.

An elementary factor is L(g) = [[1,0],[g,1]] or U(g) = [[1,g],[0,1]].
A word is a finite sequence of factors; its evaluation is the left-to-right
matrix product.  Phi_N is the alternating word whose j-th entry is the j-th
coordinate: lower for odd j, upper for even j (lower-first convention), so
Phi_N(z_1..z_N) = M_1(z_1) M_2(z_2) ... M_N(z_N).

The middle polynomials Q1..Q4 are the symbolic entries of the interior
product M_2(z_2) ... M_{N-1}(z_{N-1}); they satisfy Q1*Q4 - Q2*Q3 = 1 and
drive the fiber solvers.  They and Phi_N's entries are continuants: each
elementary update multiplies by a variable no earlier entry holds, so
every monomial is squarefree with coefficient 1, and one builder
(_continuants) assembles them as lists of monomials for middle_Q and
expand_phi.  middle_Q_brute and eval_word(PhiTemplate(n).word_symbolic())
multiply the factors one by one as polynomials and are kept as their
oracles.

Every internal product applies the same elementary updates, each
unimodular, so exact and polynomial products have det 1 by construction.
word_partials runs them on complex, mpmath and polynomial entries;
exact words run them on Gaussian-integer numerators over one common
denominator (_exact_partials), and _exact_product hands the entries on as
unreduced scalars._Raw triples, reduced once each where they are kept.
Validation stays at the boundary: a user-built ElementaryFactor checks
its entry's kind (words the library computes itself are built unchecked
by _word, as matrices by _sl2), a user-built SL2 checks its determinant
(exact entries as ad - bc == 1 on _Raw triples, polynomials by
exact_algebra.poly_det_is_one, approximate entries within SL2_DET_ULPS
units of rounding), eval_word checks only approximate products, where
rounding drifts, and replay multiplies a returned word back out against
its target, an exact one on _Raw triples too.  The exact checks
cross-multiply and reduce nothing.

One tolerance rule, negligible, makes every zero test but the five-factor
Cohn flag and the SL2 boundary: exact and polynomial values must be
literally zero, approximate ones below APPROX_TOL max(1, size of the
values compared), that size being |ad| + |bc| for a product's
determinant, |level| for a fiber level, and the largest |entry| of the
target for a replay or a fiber pivot.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from functools import cache

from .errors import PreconditionError, VerificationError, _Frozen, _Record
from .scalars import (
    EC_ONE,
    EC_ZERO,
    ExactComplex,
    _Raw,
    _reduced,
    is_literal,
    is_poly,
    require_scalar,
    scalar_from_json,
    scalar_to_json,
    unify_scalars,
)

LOWER = "L"
UPPER = "U"

# The one tolerance for approximate (float or mpmath) values; read only by
# negligible and by the five-factor Cohn flag (see factorizer.cohn_holo_5).
APPROX_TOL = 1e-10
# eval_word also measures det - 1 against a product's largest |entry|, since
# a = 1e7 turns d's rounding of 1e-16 into 1e-9; a miss of this is no rounding.
DRIFT_CAP = 1e-6
# A user-built approximate SL2 passes when |det - 1| stays within this many
# units of double rounding (2^-53) of max(1, |ad| + |bc|): computing ad - bc
# rounds by a few units of |ad| + |bc|, while APPROX_TOL times that grows
# past 1 from |ad| + |bc| = 1e10 on and let singular matrices through.
SL2_DET_ULPS = 64
# the identity as _exact_partials writes a product: 1, 0, 0, 1 over 1
_EXACT_IDENTITY = 1, 0, 0, 0, 0, 0, 1, 0, 1


def negligible(x, *sizes) -> bool:
    """Whether x counts as zero: literally for exact and polynomial values;
    for approximate ones when |x| < APPROX_TOL * max(1, |s| for s in
    sizes), sizes being the values x is measured against, since rounding
    grows with them.  Their moduli are taken only on the approximate path.
    """
    if is_literal(x):
        return not x
    return abs(x) < APPROX_TOL * max([1, *map(abs, sizes)])


class ElementaryFactor(_Record):
    """L(entry) or U(entry); the entry must be of a kind unify_scalars
    accepts (PreconditionError otherwise)."""

    __slots__ = _fields = ("side", "entry")

    def __init__(self, side: str, entry: object):
        if side not in (LOWER, UPPER):
            raise PreconditionError(f"side must be 'L' or 'U', got {side!r}")
        require_scalar(entry)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "entry", entry)


class Word(_Record):
    """A tuple of ElementaryFactor; its value is their left-to-right
    product (eval_word)."""

    __slots__ = _fields = ("factors",)

    def __init__(self, factors=()):
        factors = tuple(factors)
        for f in factors:
            if not isinstance(f, ElementaryFactor):
                raise PreconditionError("word items must be ElementaryFactor")
        object.__setattr__(self, "factors", factors)

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    @property
    def is_alternating(self) -> bool:
        return all(a.side != b.side
                   for a, b in zip(self.factors, self.factors[1:]))

    @staticmethod
    def of(*pairs) -> "Word":
        """Word.of(("L", 2), ("U", 3), ...) convenience constructor."""
        return Word(ElementaryFactor(s, e) for s, e in pairs)


def _check_det(vals, *sizes) -> None:
    """Raise unless det = 1: PreconditionError for exact or polynomial
    entries (bad input), VerificationError for approximate ones.  Without
    sizes (the SL2 boundary) a non-finite entry or ad - bc is bad input
    too, and det - 1 must be within SL2_DET_ULPS units of rounding of
    max(1, |ad| + |bc|); with sizes (a product's drift) it is measured by
    negligible against |ad| + |bc| and, below DRIFT_CAP, against sizes."""
    a, b, c, d = vals
    if type(a) is ExactComplex:
        unimodular = (_Raw(a._pqd) * d._pqd - _Raw(b._pqd) * c._pqd
                      == (1, 0, 1))
    elif is_poly(a):
        from .exact_algebra import poly_det_is_one
        unimodular = poly_det_is_one(a, b, c, d)
    else:
        # rounding in ad - bc scales with |ad| + |bc|, so the bound does too
        ad, bc = a * d, b * c
        miss = ad - bc - 1
        # v - v is nan for an inf or nan v, complex or mpmath (unconverted:
        # mpmath past the double range is finite); bad entries spoil miss
        if not sizes and miss - miss != 0:
            raise PreconditionError("approximate SL2 entries or their "
                                    "determinant are not finite")
        scale = abs(ad) + abs(bc)
        if not sizes:
            unimodular = abs(miss) < SL2_DET_ULPS * 2.0 ** -53 * max(1, scale)
        else:
            unimodular = (negligible(miss, scale) or abs(miss) < DRIFT_CAP
                          and negligible(miss, *sizes))
        if not unimodular:
            raise VerificationError("determinant is not 1 "
                                    "(approx mode: numeric instability)")
        return
    if not unimodular:
        raise PreconditionError("determinant is not 1")


class SL2(_Frozen):
    """2x2 unimodular matrix over one scalar kind (exact, approx, or poly).

    SL2(a, b, c, d) unifies the entries and checks the determinant; an
    exact matrix with det != 1 is bad input (PreconditionError).  Not a
    _Record: it equals any SL2 with equal entries, subclasses included, is
    unhashable and has the positional repr SL2(a, b, c, d).
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        vals = unify_scalars([a, b, c, d])
        _check_det(vals)
        for name, v in zip("abcd", vals):
            object.__setattr__(self, name, v)

    @staticmethod
    def identity() -> "SL2":
        return _sl2(EC_ONE, EC_ZERO, EC_ZERO, EC_ONE)

    @staticmethod
    def lower(g) -> "SL2":
        one, zero = _one_zero_like(g)
        return SL2(one, zero, g, one)

    @staticmethod
    def upper(g) -> "SL2":
        one, zero = _one_zero_like(g)
        return SL2(one, g, zero, one)

    @property
    def entries(self):
        return (self.a, self.b, self.c, self.d)

    @property
    def is_exact(self) -> bool:
        """Exact or polynomial entries, which replays compare literally."""
        return is_literal(self.a)

    def __matmul__(self, other: "SL2") -> "SL2":
        return SL2(self.a * other.a + self.b * other.c,
                   self.a * other.b + self.b * other.d,
                   self.c * other.a + self.d * other.c,
                   self.c * other.b + self.d * other.d)

    def inverse(self) -> "SL2":
        return _sl2(self.d, -self.b, -self.c, self.a)

    def det(self):
        return self.a * self.d - self.b * self.c

    def __eq__(self, other):
        if not isinstance(other, SL2):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None

    def __repr__(self):
        return f"SL2({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __reduce__(self):
        return _sl2, self.entries


def _sl2(*entries) -> SL2:
    """Trusted constructor: entries already of one kind, det known to be 1."""
    m = object.__new__(SL2)
    for name, v in zip("abcd", entries):
        object.__setattr__(m, name, v)
    return m


def _word(sides: Sequence[str], entries: Sequence) -> Word:
    """Trusted constructor for words the library computed itself: sides
    valid and entries of kinds unify_scalars accepts, so nothing is
    checked.  Arguments as for word_product."""
    factors = []
    for side, entry in zip(sides, entries):
        f = object.__new__(ElementaryFactor)
        object.__setattr__(f, "side", side)
        object.__setattr__(f, "entry", entry)
        factors.append(f)
    w = object.__new__(Word)
    object.__setattr__(w, "factors", tuple(factors))
    return w


def _one_zero_like(g):
    if type(g) is ExactComplex:
        return EC_ONE, EC_ZERO
    if is_poly(g):
        return type(g).one(g.nvars), type(g).zero(g.nvars)
    return _approx_one_zero(type(g))


@cache
def _approx_one_zero(kind):
    # exact and immutable, so one pair per type serves every product
    return kind(1), kind(0)


def word_partials(sides: Sequence[str], vals: Sequence) -> Iterator[tuple]:
    """Entries (a, b, c, d) of each partial product of a non-empty word.

    `vals` must already share one scalar kind (see unify_scalars).  The
    first partial is the first factor itself; each next factor is applied
    as an elementary update, L(x): a += b x, c += d x and U(x): b += a x,
    d += c x.  Nothing is validated here.
    """
    one, zero = _one_zero_like(vals[0])
    a, b, c, d = (one, zero, vals[0], one) if sides[0] == LOWER \
        else (one, vals[0], zero, one)
    yield a, b, c, d
    for side, x in zip(sides[1:], vals[1:]):
        if side == LOWER:
            a += b * x
            c += d * x
        else:
            b += a * x
            d += c * x
        yield a, b, c, d


def _exact_partials(sides: Sequence[str], vals: Sequence) -> Iterator[tuple]:
    """Each partial product of an exact word, as Gaussian-integer
    numerators over one common denominator: (ar, ai, br, bi, cr, ci, dr,
    di, den) for the entries (ar + ai i)/den, ..., (dr + di i)/den.

    The updates are word_partials' on numerators: with x = (p + q i)/m,
    L(x) takes (A, B, C, E)/D to (A m + B(p + q i), B m, C m + E(p + q i),
    E m)/(D m), and U(x) is its mirror image.  Nothing is reduced, so no
    gcd runs; callers reduce each entry they keep once (_reduced).
    """
    ar, ai, br, bi, cr, ci, dr, di, den = _EXACT_IDENTITY
    for side, x in zip(sides, vals):
        p, q, m = x._pqd
        if side == LOWER:
            ar, ai = ar * m + br * p - bi * q, ai * m + br * q + bi * p
            cr, ci = cr * m + dr * p - di * q, ci * m + dr * q + di * p
            br, bi, dr, di = br * m, bi * m, dr * m, di * m
        else:
            br, bi = br * m + ar * p - ai * q, bi * m + ar * q + ai * p
            dr, di = dr * m + cr * p - ci * q, di * m + cr * q + ci * p
            ar, ai, cr, ci = ar * m, ai * m, cr * m, ci * m
        den *= m
        yield ar, ai, br, bi, cr, ci, dr, di, den


def _exact_product(sides: Sequence[str], vals: Sequence) -> tuple:
    """The entries of an exact word's product as _Raw triples over the
    common denominator of _exact_partials, with nothing reduced; the
    identity's for an empty word."""
    last = _EXACT_IDENTITY
    for last in _exact_partials(sides, vals):
        pass
    ar, ai, br, bi, cr, ci, dr, di, den = last
    return (_Raw((ar, ai, den)), _Raw((br, bi, den)), _Raw((cr, ci, den)),
            _Raw((dr, di, den)))


def word_product(sides: Sequence[str], vals: Sequence) -> tuple:
    """Entries (a, b, c, d) of the whole product; see word_partials.  An
    exact word is multiplied on numerators (_exact_partials) and each
    entry reduced once; an empty word gives the identity in ints, which
    combine with any kind."""
    if not vals:
        return 1, 0, 0, 1
    if type(vals[0]) is ExactComplex:
        # the last partial itself: no _Raw is built only to be reduced
        for last in _exact_partials(sides, vals):
            pass
        ar, ai, br, bi, cr, ci, dr, di, den = last
        return (_reduced(ar, ai, den), _reduced(br, bi, den),
                _reduced(cr, ci, den), _reduced(dr, di, den))
    for entries in word_partials(sides, vals):
        pass
    return entries


def _product(w: Word) -> SL2:
    if not len(w):
        return SL2.identity()
    vals = unify_scalars([f.entry for f in w])
    return _sl2(*word_product([f.side for f in w.factors], vals))


def eval_word(w: Word) -> SL2:
    """Multiply out a word of scalar or polynomial entries.  Only an
    approximate product's determinant is checked (VerificationError on
    drift), against its entries too: exact and polynomial products have
    det 1 by construction."""
    prod = _product(w)
    if not prod.is_exact:
        _check_det(prod.entries, *prod.entries)
    return prod


def replay(word: Word, target: SL2):
    """Multiply a returned word back out and check it against its target.

    Exact and polynomial products must equal the target literally (residual
    0); an exact word against an exact target is compared as _Raw triples
    (_exact_product), cross-multiplied, with no entry reduced.
    Otherwise the residual, the largest entrywise distance, must be
    negligible relative to the largest |entry| of the target.  Returns the
    residual; a miss raises VerificationError.

    Unlike eval_word, the product's own determinant is not checked: the
    target passed SL2's check, and rounding moves the determinant of a
    product with large entries further than |ad| + |bc| allows while every
    entry stays on its target.
    """
    sides = [f.side for f in word.factors]
    vals = unify_scalars([f.entry for f in word])
    if vals and type(vals[0]) is type(target.a) is ExactComplex:
        a, b, c, d = target.entries
        if _exact_product(sides, vals) == (a._pqd, b._pqd, c._pqd, d._pqd):
            return 0
        raise VerificationError("replayed word does not reproduce its target")
    prod = _sl2(*word_product(sides, vals)) if vals else SL2.identity()
    if prod.is_exact and target.is_exact:
        if prod.entries == target.entries:
            return 0
        raise VerificationError("replayed word does not reproduce its target")
    residual = max(abs(complex(x) - complex(y))
                   for x, y in zip(prod.entries, target.entries))
    if not negligible(residual, *target.entries):
        raise VerificationError(
            f"replayed word does not reproduce its target (residual "
            f"{residual:.3e})")
    return residual


def word_inverse(w: Word) -> Word:
    """Reverse the factors and negate the entries."""
    factors = w.factors[::-1]
    return _word([f.side for f in factors], [-f.entry for f in factors])


def pad_avoid_singular(word: Word) -> Word:
    """Same product, two more factors, interior entries not all zero.

    The first factor M(g) is rewritten as M(g + 1) Mbar(0) M(g' = -1),
    using that same-side factors multiply additively and Mbar(0) is the
    identity.  The new third entry -1 sits among the interior slots of
    the longer word, so the padded point avoids the all-zero-interior
    singular set.
    """
    if len(word) == 0:
        raise PreconditionError("cannot pad an empty word")
    if not word.is_alternating:
        raise PreconditionError("padding expects an alternating word")
    first, *rest = word.factors
    g = first.entry
    side = first.side
    other = UPPER if side == LOWER else LOWER
    zero, neg_one = g - g, g - g - 1
    return _word([side, other, side, *(f.side for f in rest)],
                 [g + 1, zero, neg_one, *(f.entry for f in rest)])


def factor_count_bound(n: int, counts) -> int:
    """Composite bound 1 + sum_{i=2..n} (K(i) + 3) on factor counts.

    counts may be a callable i -> K(i) or a mapping/sequence indexed by i.
    """
    if n < 2:
        raise PreconditionError("need n >= 2")
    def k_of(i):
        try:
            value = counts(i) if callable(counts) else counts[i]
        except (KeyError, IndexError) as exc:
            raise PreconditionError(f"missing factor count for i = {i}") \
                from exc
        if not isinstance(value, int) or value < 0:
            raise PreconditionError("factor counts must be nonnegative ints")
        return value
    return 1 + sum(k_of(i) + 3 for i in range(2, n + 1))


class PhiTemplate(_Record):
    """Alternating-word template of length N, lower first (Phi_N)."""

    __slots__ = _fields = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise PreconditionError("template length must be >= 1")
        object.__setattr__(self, "n", n)

    def side_of(self, j: int) -> str:
        # j is 1-based position in the word
        return LOWER if j % 2 == 1 else UPPER

    def word_symbolic(self) -> Word:
        from .exact_algebra import MultiPoly
        return Word(
            ElementaryFactor(self.side_of(j), MultiPoly.variable(self.n, j - 1))
            for j in range(1, self.n + 1))

    def word_at(self, values: Sequence) -> Word:
        if len(values) != self.n:
            raise PreconditionError(
                f"expected {self.n} coordinates, got {len(values)}")
        return Word(ElementaryFactor(self.side_of(j), values[j - 1])
                    for j in range(1, self.n + 1))


def _continuants(nvars: int, side: str) -> tuple:
    """Entries (a, b, c, d) of the alternating word in x_0..x_{nvars-1}
    whose first factor is on `side`, as polynomials.

    word_partials' updates on ordered lists of exponent tuples, from the
    identity: L(x_k) appends b's monomials to a and d's to c, U(x_k) a's
    to b and c's to d, each with exponent 1 at k.  No earlier monomial
    holds x_k, so every monomial is squarefree, occurs once and has
    coefficient 1; the terms come in eval_word's order.
    """
    from .exact_algebra import _poly_nonzero
    a, b, c, d = [(0,) * nvars], [], [], [(0,) * nvars]
    lower = side == LOWER
    for k in range(nvars):
        tail = (1,) + (0,) * (nvars - k - 1)
        if lower:
            a += [e[:k] + tail for e in b]
            c += [e[:k] + tail for e in d]
        else:
            b += [e[:k] + tail for e in a]
            d += [e[:k] + tail for e in c]
        lower = not lower
    return tuple(_poly_nonzero(nvars, dict.fromkeys(x, EC_ONE))
                 for x in (a, b, c, d))


def expand_phi(t: PhiTemplate) -> SL2:
    """Full symbolic entries of Phi_N as polynomials in z_1..z_N; the same
    as eval_word(t.word_symbolic()), built by _continuants."""
    return _sl2(*_continuants(t.n, LOWER))


def middle_Q(n: int) -> tuple:
    """Entries of M_2(z_2)...M_{N-1}(z_{N-1}) as polynomials in z_2..z_{N-1}.

    Built by _continuants, upper first (position j in the full word is
    upper exactly when j is even); middle_Q_brute is its oracle.
    """
    if n < 3:
        raise PreconditionError("middle polynomials need N >= 3")
    return _continuants(n - 2, UPPER)


def middle_Q_brute(n: int) -> tuple:
    """Same entries by factor-at-a-time multiplication (oracle path)."""
    from .exact_algebra import MultiPoly
    if n < 3:
        raise PreconditionError("middle polynomials need N >= 3")
    m = n - 2
    word = Word(
        ElementaryFactor(LOWER if j % 2 == 1 else UPPER,
                         MultiPoly.variable(m, j - 2))
        for j in range(2, n))
    prod = eval_word(word)
    return prod.a, prod.b, prod.c, prod.d


def in_singular_set(point: Sequence, n: int) -> bool:
    """True iff all interior coordinates z_2..z_{N-1} are (exactly) zero."""
    if len(point) != n:
        raise PreconditionError(f"expected {n} coordinates, got {len(point)}")
    return not any(unify_scalars(point)[1:-1])


# ---------------------------------------------------------------------------
# JSON


def factor_to_json(f: ElementaryFactor):
    if is_poly(f.entry):
        from .exact_algebra import poly_to_json
        return {"side": f.side, "entry": poly_to_json(f.entry)}
    return {"side": f.side, "entry": scalar_to_json(f.entry)}


def word_to_json(w: Word) -> list:
    return [factor_to_json(f) for f in w]


def _entry_from_json(v):
    if isinstance(v, dict):
        from .exact_algebra import poly_from_json
        return poly_from_json(v)
    return scalar_from_json(v)


def word_from_json(data) -> Word:
    if not isinstance(data, list):
        raise PreconditionError("word JSON must be a list of factors")
    out = []
    for item in data:
        try:
            side, entry = item["side"], item["entry"]
        except (TypeError, KeyError) as exc:
            raise PreconditionError(f"malformed factor: {item!r}") from exc
        out.append(ElementaryFactor(side, _entry_from_json(entry)))
    return Word(out)


def sl2_to_json(mtx: SL2) -> dict:
    return {k: scalar_to_json(v) for k, v in zip("abcd", mtx.entries)}


def sl2_from_json(data: Mapping) -> SL2:
    try:
        vals = [scalar_from_json(data[k]) for k in "abcd"]
    except (TypeError, KeyError) as exc:
        raise PreconditionError(f"malformed SL2 JSON: {data!r}") from exc
    return SL2(*vals)


def format_point(point: Sequence) -> list:
    return [scalar_to_json(x) for x in point]


def parse_point(data) -> list:
    if not isinstance(data, list):
        raise PreconditionError("point must be a JSON list of scalars")
    return [scalar_from_json(v) for v in data]
