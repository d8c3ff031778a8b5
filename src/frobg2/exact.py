"""Exact and arbitrary-precision scalar kernel.

Univariate polynomials over any field-like scalar type
(``fractions.Fraction``, :class:`frobg2.radicals.RadicalElem`, or
mpmath ``mpf``/``mpc``), plus the primitives the rest of the package
leans on:

* ``poly_roots``   -- all complex roots at a requested bit precision,
                      for rational or mpmath coefficients,
* ``residue``      -- residue of a quotient ``num/den`` of polynomials at
                      a finite point or at infinity (pole order up to 8),
                      shifting at a finite point only the coefficients
                      it reads,
* ``row_reduce``   -- Gauss-Jordan elimination, the kernel's one linear
                      solver.

Root finding uses the Aberth-Ehrlich simultaneous iteration with
deterministic starting points on a Cauchy-bound circle; if it stalls we
fall back to ``mpmath.polyroots`` (Durand-Kerner).  Residues are computed by
local power-series expansion, never by numerical contour integration.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import islice

from .report import DEFAULT_PRECISION

MAX_POLE_ORDER = 8


class NonConvergenceError(Exception):
    """Root finding or series expansion failed to reach the target accuracy."""


def _is_zero(c):
    z = getattr(c, "is_zero", None)
    if z is not None:
        return z()
    return c == 0


class Poly:
    """Dense univariate polynomial, coefficients in ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and _is_zero(coeffs[-1]):
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Poly(%r)" % (list(self.coeffs),)

    def __call__(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return 0 * x  # zero in the scalar type of x
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly([])
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                p = a * b
                out[i + j] = p if out[i + j] is None else out[i + j] + p
        return Poly(out)

    __rmul__ = __mul__

    def deriv(self, k=1):
        p = self
        for _ in range(k):
            p = Poly([c * (i + 1) for i, c in enumerate(p.coeffs[1:])])
        return p

    def shift(self, a):
        """Return p(x + a) via repeated synthetic division."""
        return Poly(_shifted(self.coeffs, a))

    def reversed(self):
        """Coefficient reversal x^d p(1/x), d the degree of p."""
        return Poly(self.coeffs[::-1])

    def monic(self):
        lead = self.coeffs[-1]
        inv = _scalar_inv(lead)
        return Poly([c * inv for c in self.coeffs])

    def divmod(self, other):
        """Polynomial division; requires invertible leading coefficient."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        inv = _scalar_inv(other.coeffs[-1])
        rem = list(self.coeffs)
        q = [self.coeffs[0] * 0] * max(0, len(rem) - len(other.coeffs) + 1)
        while len(rem) >= len(other.coeffs) and rem:
            k = len(rem) - len(other.coeffs)
            f = rem[-1] * inv
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - f * c
            while rem and _is_zero(rem[-1]):
                rem.pop()
        return Poly(q), Poly(rem)


def _shifted(coeffs, a):
    """The coefficients of p(x + a), for p with ascending ``coeffs``, one
    pass of repeated synthetic division each: pass k finishes coefficient
    k, and runs only when that coefficient is asked for."""
    cs = list(coeffs)
    n = len(cs)
    for k in range(n):
        for i in range(n - 2, k - 1, -1):
            cs[i] = cs[i] + a * cs[i + 1]
        yield cs[k]


def _scalar_inv(c):
    if isinstance(c, (Fraction, int)):
        return Fraction(1) / Fraction(c)
    inv = getattr(c, "inverse", None)
    if inv is not None:
        return inv()
    return 1 / c


def poly_gcd(a, b):
    """Monic gcd over a field (exact scalars only)."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    if a.is_zero():
        return a
    return a.monic()


# ---------------------------------------------------------------------------
# residues


def _series_inverse(coeffs, order, zero):
    """Multiplicative inverse of a power series, to the given order."""
    c0 = coeffs[0]
    inv0 = _scalar_inv(c0)
    out = [inv0] + [zero] * (order - 1)
    for k in range(1, order):
        acc = zero
        for j in range(1, k + 1):
            cj = coeffs[j] if j < len(coeffs) else zero
            acc = acc + cj * out[k - j]
        out[k] = -inv0 * acc
    return out


def _laurent_tail(ns, ds, order, zero):
    """The w^(order-1) coefficient of the series ns(w)/ds(w), for
    coefficient lists with ds[0] invertible: the residue of
    ns/(w^order ds) at w = 0."""
    inv = _series_inverse(ds, order, zero)
    acc = zero
    for j in range(order):
        nj = ns[j] if j < len(ns) else zero
        acc = acc + nj * inv[order - 1 - j]
    return acc


def residue(num, den, location):
    """Residue of num/den at a finite, exact location.

    Returns 0 (in the scalar type of ``location``) when the location is
    not actually a pole.  Pole order is capped at MAX_POLE_ORDER.  The
    shift runs only as far as the residue reads it, pass k of the
    synthetic division finishing coefficient k: m coefficients of the
    numerator and 2m of the denominator, m the pole order.  An mpmath
    location raises TypeError: the pole order is read off exact zeros.
    """
    if den.is_zero():
        raise ZeroDivisionError("residue of a quotient by the zero polynomial")
    mpmath = sys.modules.get("mpmath")  # without it no mpmath number exists
    if mpmath is not None and isinstance(location, (mpmath.mpf, mpmath.mpc)):
        raise TypeError("residue at an inexact location %r" % (location,))
    zero = location * 0
    shifted = _shifted(den.coeffs, location)
    dc = []
    for c in shifted:  # the shift keeps the leading coefficient nonzero
        dc.append(c)
        if not _is_zero(c):
            break
    m = len(dc) - 1
    if m == 0:
        return zero
    if m > MAX_POLE_ORDER:
        raise NonConvergenceError("pole order %d exceeds cap %d" % (m, MAX_POLE_ORDER))
    dc.extend(islice(shifted, m - 1))  # dc[m:2m]: den / w^m, to order m
    ns = list(islice(_shifted(num.coeffs, location), m))
    return _laurent_tail(ns, dc[m:], m, zero)


def residue_at_infinity(num, den):
    """Residue at infinity: minus the z^{-1} coefficient of num/den."""
    if den.is_zero():
        raise ZeroDivisionError("residue of a quotient by the zero polynomial")
    dn, dd = num.degree, den.degree
    if dn < 0:
        return den.coeffs[0] * 0
    nr = num.reversed()
    dr = den.reversed()
    # res_inf = -res_{w=0} [ w^{dd-dn-2} * nr(w)/dr(w) ]
    e = dd - dn - 2
    if e >= 0:
        nr = Poly([nr.coeffs[0] * 0] * e + list(nr.coeffs))
        e = 0
    order = -e
    if order == 0:
        return den.coeffs[0] * 0
    return -_laurent_tail(nr.coeffs, dr.coeffs, order, den.coeffs[0] * 0)


# ---------------------------------------------------------------------------
# linear algebra


def row_reduce(rows):
    """Gauss-Jordan elimination over a field, on a copy of ``rows``.

    Returns ``(rank, pivots, reduced)``: ``pivots`` lists the pivot
    column of each of the first ``rank`` reduced rows, in increasing
    order; each pivot entry is 1 and the only nonzero in its column, and
    the remaining rows are zero.  The pivot of a column is its first
    nonzero entry at or below the current row."""
    m = [list(r) for r in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        top = len(pivots)
        piv = next((r for r in range(top, len(m)) if not _is_zero(m[r][col])), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        inv = _scalar_inv(m[top][col])
        prow = m[top] = [x * inv for x in m[top]]
        for r, row in enumerate(m):
            f = row[col]
            if r != top and not _is_zero(f):
                m[r] = [x - f * y for x, y in zip(row, prow)]
        pivots.append(col)
    return len(pivots), pivots, m


# ---------------------------------------------------------------------------
# root finding


def _to_mpc(c):
    import mpmath

    if isinstance(c, Fraction):
        return mpmath.mpf(c.numerator) / c.denominator
    return mpmath.mpc(c)


def poly_roots(p, precision=DEFAULT_PRECISION):
    """All complex roots of p, sorted by (real, imaginary) part.

    Aberth-Ehrlich iteration at working precision 2*precision with
    deterministic starting points; accepts when the summed relative
    residual drops below 2**(-precision/2).  Falls back to
    ``mpmath.polyroots``, a Durand-Kerner iteration, before giving up.
    """
    import mpmath

    if p.degree < 1:
        raise ValueError("need degree >= 1")
    with mpmath.workprec(2 * precision):
        coeffs = [_to_mpc(c) for c in p.coeffs]
        n = p.degree
        lead = coeffs[-1]
        mono = [c / lead for c in coeffs]
        dcoef = [mono[i] * i for i in range(1, n + 1)]
        bound = 1 + max(abs(c) for c in mono[:-1]) if n else mpmath.mpf(1)
        # deterministic spiral of starting points, never symmetric about R
        roots = [
            bound * mpmath.exp(mpmath.mpc(0, 2 * mpmath.pi * (k + Fraction(1, 3)) / n))
            * (mpmath.mpf(1) - mpmath.mpf(k) / (4 * n))
            for k in range(n)
        ]
        target = mpmath.mpf(2) ** (-(precision // 2))
        scale = max(abs(c) for c in mono)

        def horner(cs, x):
            acc = mpmath.mpc(0)
            for c in reversed(cs):
                acc = acc * x + c
            return acc

        def total_residual(rs):
            return sum(abs(horner(mono, r)) for r in rs) / scale

        ok = False
        for _ in range(400):
            moved = mpmath.mpf(0)
            for k in range(n):
                z = roots[k]
                pv = horner(mono, z)
                dv = horner(dcoef, z)
                if dv == 0:
                    z = z + mpmath.mpf(1) / (100 * (k + 1))
                    roots[k] = z
                    continue
                newton = pv / dv
                s = mpmath.mpc(0)
                for j in range(n):
                    if j != k:
                        dz = z - roots[j]
                        if dz == 0:
                            dz = mpmath.mpf(2) ** (-precision) * (1 + abs(z))
                        s += 1 / dz
                denom = 1 - newton * s
                step = newton / denom if denom != 0 else newton
                roots[k] = z - step
                moved = max(moved, abs(step) / (1 + abs(roots[k])))
            if moved < mpmath.mpf(2) ** (-precision - 8):
                break
        if total_residual(roots) < target:
            ok = True
        if not ok:
            try:
                roots = mpmath.polyroots(
                    list(reversed(mono)), maxsteps=200, extraprec=2 * precision
                )
                roots = [mpmath.mpc(r) for r in roots]
            except mpmath.libmp.NoConvergence as exc:
                raise NonConvergenceError(str(exc)) from exc
            if total_residual(roots) >= target:
                raise NonConvergenceError(
                    "residual %s above 2^-%d" % (total_residual(roots), precision // 2)
                )
        roots.sort(key=lambda r: (r.real, r.imag))
        return [mpmath.mpc(r) for r in roots]
