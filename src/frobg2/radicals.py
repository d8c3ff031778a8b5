"""Exact arithmetic in a multi-quadratic extension of the rationals.

Elements of Q(sqrt(r_1), ..., sqrt(r_m)) with rational radicands r_k
(negative allowed, so Gaussian rationals are covered by radicand -1).
An element is a dict mapping a bitmask over the radicals to a rational
coefficient; multiplication XORs masks and picks up the product of the
shared radicands.  Inversion is by successive conjugation over the
tower, so the type is a genuine field as long as the radicands are
multiplicatively independent; ``radical_tower`` builds its basis that
way.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import mpmath


def is_square_fraction(q):
    """True when the rational q is the square of a rational."""
    q = Fraction(q)
    if q < 0:
        return False
    a, b = q.numerator, q.denominator
    ra, rb = isqrt(a), isqrt(b)
    return ra * ra == a and rb * rb == b


def _fraction_sqrt(q):
    q = Fraction(q)
    return Fraction(isqrt(q.numerator), isqrt(q.denominator))


def radical_tower(rads):
    """A field containing square roots of all the given nonzero
    rationals, together with one chosen root per radicand.

    Multiplicative dependencies among the radicands (for instance a
    full product that happens to be a perfect square) are resolved by
    expressing the dependent roots through the independent generators,
    so the returned field stays a genuine field.  Returns
    ``(field, roots)`` with ``roots[k] ** 2 == rads[k]``.
    """
    basis = []
    monomials = []  # (mask, c): the root c * sqrt(prod of masked basis)
    for r in rads:
        r = Fraction(r)
        if r == 0:
            raise ValueError("zero radicand")
        for mask in range(1 << len(basis)):
            prod = r
            for k in range(len(basis)):
                if mask >> k & 1:
                    prod *= basis[k]
            if is_square_fraction(prod):
                # sqrt(r) = sqrt(r b) / b with b = prod / r
                monomials.append((mask, _fraction_sqrt(prod) / (prod / r)))
                break
        else:
            monomials.append((1 << len(basis), Fraction(1)))
            basis.append(r)
    fld = RadicalField(basis)
    roots = []
    for (mask, c), r in zip(monomials, rads):
        root = RadicalElem(fld, {mask: c})
        if root * root != fld.rational(r):
            raise AssertionError("radical tower root mismatch")
        roots.append(root)
    return fld, roots


class RadicalField:
    """A fixed tuple of radicands; factory for elements over them."""

    __slots__ = ("radicands", "_numeric_cache", "_shared_cache")

    def __init__(self, radicands):
        self.radicands = tuple(Fraction(r) for r in radicands)
        if any(r == 0 for r in self.radicands):
            raise ValueError("zero radicand")
        self._numeric_cache = {}
        self._shared_cache = {}

    def __len__(self):
        return len(self.radicands)

    def element(self, coeffs):
        """Build an element from {bitmask: rational}."""
        return RadicalElem(self, {m: Fraction(c) for m, c in coeffs.items() if c})

    def rational(self, q):
        q = Fraction(q)
        return RadicalElem(self, {0: q} if q else {})

    def zero(self):
        return RadicalElem(self, {})

    def one(self):
        return RadicalElem(self, {0: Fraction(1)})

    def shared(self, common):
        """The product of the radicands whose bits are set in ``common``:
        the rational factor sqrt(r)**2 of each radical two monomials
        share."""
        q = self._shared_cache.get(common)
        if q is None:
            q = Fraction(1)
            for k, r in enumerate(self.radicands):
                if common >> k & 1:
                    q *= r
            self._shared_cache[common] = q
        return q

    def sqrt_gen(self, k):
        """The generator sqrt(radicands[k])."""
        return RadicalElem(self, {1 << k: Fraction(1)})

    def _sqrt_numeric(self, k, prec):
        key = (k, prec)
        v = self._numeric_cache.get(key)
        if v is None:
            r = self.radicands[k]
            with mpmath.workprec(prec):
                v = mpmath.sqrt(mpmath.mpf(r.numerator) / r.denominator)
                if r < 0:
                    v = mpmath.mpc(0, mpmath.sqrt(-mpmath.mpf(r.numerator) / r.denominator))
            self._numeric_cache[key] = v
        return v


class RadicalElem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    # -- basic protocol ----------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def is_rational(self):
        return all(m == 0 for m in self.coeffs)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "RadicalElem(0)"
        parts = []
        for m in sorted(self.coeffs):
            c = self.coeffs[m]
            if m == 0:
                parts.append(str(c))
            else:
                rs = "*".join(
                    "sqrt(%s)" % self.field.radicands[k]
                    for k in range(len(self.field))
                    if m >> k & 1
                )
                parts.append("%s*%s" % (c, rs))
        return "RadicalElem(%s)" % " + ".join(parts)

    def _coerce(self, other):
        if isinstance(other, RadicalElem):
            if other.field is not self.field:
                raise ValueError("mixing radical fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return NotImplemented

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if type(other) is Fraction:
            terms = ((0, other),) if other else ()
        else:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
            terms = other.coeffs.items()
        return RadicalElem(self.field, _accumulate(dict(self.coeffs), terms))

    __radd__ = __add__

    def __neg__(self):
        return RadicalElem(self.field, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is Fraction:
            if not other:
                return RadicalElem(self.field, {})
            return RadicalElem(self.field, {m: c * other for m, c in self.coeffs.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        shared = self.field.shared
        if len(self.coeffs) == 1 and len(other.coeffs) == 1:
            ((m1, c1),) = self.coeffs.items()
            ((m2, c2),) = other.coeffs.items()
            c = c1 * c2
            if m1 & m2:
                c *= shared(m1 & m2)
            return RadicalElem(self.field, {m1 ^ m2: c})
        terms = ((m1 ^ m2, c1 * c2 * shared(m1 & m2) if m1 & m2 else c1 * c2)
                 for m1, c1 in self.coeffs.items()
                 for m2, c2 in other.coeffs.items())
        return RadicalElem(self.field, _accumulate({}, terms))

    __rmul__ = __mul__

    def inverse(self):
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero radical element")
        if self.is_rational():
            return self.field.rational(1 / self.coeffs[0])
        # conjugate over the highest radical present
        hi = max(m for m in self.coeffs).bit_length() - 1
        bit = 1 << hi
        conj = RadicalElem(
            self.field,
            {m: (-c if m & bit else c) for m, c in self.coeffs.items()},
        )
        norm = self * conj  # lives in the subfield without `bit`
        return conj * norm.inverse()

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def to_mpc(self, prec=None):
        if prec is None:
            prec = mpmath.mp.prec
        with mpmath.workprec(prec):
            acc = mpmath.mpc(0)
            for m, c in self.coeffs.items():
                v = mpmath.mpf(c.numerator) / c.denominator
                k = 0
                mm = m
                while mm:
                    if mm & 1:
                        v = v * self.field._sqrt_numeric(k, prec)
                    mm >>= 1
                    k += 1
                acc += v
            return acc


def _accumulate(out, terms):
    """Add the (mask, coefficient) terms into ``out``: a new mask goes
    last with its coefficient as is, a mask whose sum is zero is dropped."""
    for m, c in terms:
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s += c
            if s:
                out[m] = s
            else:
                del out[m]
    return out
