"""The numeric kernel of ``expr.evaluate``: mpmath numbers kept as raw
libmp values, in an arithmetic context of the kernel's own.

``NumericKernel`` evaluates a DAG at a point of mpmath numbers (and
Fractions) through the one loop of ``expr.evaluate``, and notes the
largest addend for the relative tolerance of its verdict.  It rounds to
nearest at ``precision + GUARD_BITS`` bits, whatever mpmath's global
precision is.  A family gets it from ``families.sample`` for a numeric
spec; ``expr`` holds the DAG, the loop, the exact kernel and the kernel
protocol, and never imports this module, which imports ``expr``.

mpmath is loaded when a process makes its first numeric value, and this
module when it samples its first numeric point; a process that decides
only exact identities loads neither.  Of the modules of the exact path,
``expr`` and ``radicals`` never import mpmath.  ``exact`` and
``families`` import it only in the bodies of the functions that make or
read an mpmath number (``import mpmath``, or ``from .numeric import
NumericKernel``), never at their top, and a test of mpmath types where
mpmath may be absent reads ``sys.modules`` first: no mpmath number
exists before mpmath is loaded.
"""

from __future__ import annotations

from fractions import Fraction
from math import frexp, isinf

import mpmath
from mpmath.libmp import (
    from_rational, fzero, mpc_abs, mpc_add, mpc_add_mpf, mpc_mul, mpc_mul_mpf,
    mpc_pow_int, mpf_abs, mpf_add, mpf_mul, mpf_pow_int, to_float,
)

from .expr import OP_ADD
from .report import _residual_ok

GUARD_BITS = 64  # the bits computed above a verdict's precision


# ---------------------------------------------------------------------------
# numeric kernel
#
# Values are kept as libmp's raw tuples: an mpc as its ``_mpc_`` pair of
# parts, an mpf as its ``_mpf_`` part (sign, man, exp, bc), a Fraction as
# it is.  A sum or product of two of them is what mpmath's operators
# compute, rounding to nearest.  A complex product, a complex sum and a
# complex times real product of nonzero finite parts are computed here
# in one call each, by the branches of libmp's mpf_mul, mpf_add and
# normalize, so they round the same bits; every other case is left to
# the libmp function mpmath would call.


def _rounded(sign, man, exp, prec):
    """``normalize(sign, man, exp, bitcount(man), prec, 'n')`` for man > 0:
    round half to even to ``prec`` bits, then strip trailing zero bits."""
    bc = man.bit_length()
    n = bc - prec
    if n > 0:
        t = man >> (n - 1)
        if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
            man = (t >> 1) + 1
        else:
            man = t >> 1
        exp += n
        bc = prec
    if not man & 1:
        z = (man & -man).bit_length() - 1
        man >>= z
        exp += z
        bc -= z
    if man == 1:  # a carry rounded man up to a power of two
        bc = 1
    return sign, man, exp, bc


def _sum(ssign, sman, sexp, tsign, tman, texp, prec):
    """``mpf_add(s, t, prec, 'n')`` of two nonzero finite values, given
    by sign, odd mantissa and exponent, through mpf_add's own branches.
    That sum is not always correctly rounded: an operand more than 100
    bits below the other and wholly below its ``prec + 4`` bits only
    moves the larger one by one unit at ``prec + 4`` bits."""
    offset = sexp - texp
    if offset < 0:
        ssign, sman, sexp, tsign, tman, texp = tsign, tman, texp, ssign, sman, sexp
        offset = -offset
    if offset > 100 and sman.bit_length() + offset - tman.bit_length() > prec + 4:
        sman = (sman << (prec + 4)) + (1 if ssign == tsign else -1)
        return _rounded(ssign, sman, sexp - prec - 4, prec)
    sman <<= offset
    if ssign == tsign:
        return _rounded(ssign, sman + tman, texp, prec)
    man = sman - tman
    if man > 0:
        return _rounded(ssign, man, texp, prec)
    if man:
        return _rounded(tsign, -man, texp, prec)
    return fzero


def _cadd(z, w, prec):
    """``mpc_add(z, w, prec, 'n')``."""
    (asg, am, ae, _), (bsg, bm, be, _) = z
    (csg, cm, ce, _), (dsg, dm, de, _) = w
    if not (am and bm and cm and dm):
        return mpc_add(z, w, prec, "n")
    return _sum(asg, am, ae, csg, cm, ce, prec), _sum(bsg, bm, be, dsg, dm, de, prec)


def _cmul(z, w, prec):
    """``mpc_mul(z, w, prec, 'n')``: the four products exact, as mpf_mul
    makes them at prec=0, then a difference and a sum each rounded."""
    (asg, am, ae, _), (bsg, bm, be, _) = z
    (csg, cm, ce, _), (dsg, dm, de, _) = w
    if not (am and bm and cm and dm):
        return mpc_mul(z, w, prec, "n")
    return (_sum(asg ^ csg, am * cm, ae + ce, bsg ^ dsg ^ 1, bm * dm, be + de, prec),
            _sum(asg ^ dsg, am * dm, ae + de, bsg ^ csg, bm * cm, be + ce, prec))


def _cscale(z, x, prec):
    """``mpc_mul_mpf(z, x, prec, 'n')``."""
    (asg, am, ae, _), (bsg, bm, be, _) = z
    xsg, xm, xe, _ = x
    if not (am and bm and xm):
        return mpc_mul_mpf(z, x, prec, "n")
    return _rounded(asg ^ xsg, am * xm, ae + xe, prec), _rounded(bsg ^ xsg, bm * xm, be + xe, prec)


def _plus(v, w, prec):
    """v + w for raw mpmath values, as ``mpc.__add__``/``mpf.__add__``."""
    if len(v) == 2:
        if len(w) == 2:
            return _cadd(v, w, prec)
        return mpc_add_mpf(v, w, prec, "n")
    if len(w) == 2:
        return mpc_add_mpf(w, v, prec, "n")
    return mpf_add(v, w, prec, "n")


def _times(v, w, prec):
    """v * w for raw mpmath values, as ``mpc.__mul__``/``mpf.__mul__``."""
    if len(v) == 2:
        if len(w) == 2:
            return _cmul(v, w, prec)
        return _cscale(v, w, prec)
    if len(w) == 2:
        return _cscale(w, v, prec)
    return mpf_mul(v, w, prec, "n")


def _raw(v):
    """A scalar of a numeric point as the kernel keeps it."""
    if type(v) is Fraction:
        return v
    raw = getattr(v, "_mpc_", None) or getattr(v, "_mpf_", None)
    if raw is None:
        raise TypeError("a numeric point takes mpc, mpf and Fraction scalars, not %s"
                        % type(v).__name__)
    return raw


def _wrapped(v):
    """A kept value as the mpmath number (or Fraction) it stands for."""
    if type(v) is not tuple:
        return v
    return mpmath.mp.make_mpc(v) if len(v) == 2 else mpmath.mp.make_mpf(v)


class NumericKernel:
    """mpmath numbers kept as raw libmp values (see above), and
    Fractions, at ``precision + GUARD_BITS`` bits.  A value passes below
    the relative tolerance at ``precision`` bits of the largest addend
    noted, so one kernel serves one context, whose evaluations all note
    into it.

    ``max_mag`` is exactly the largest ``float(abs(v))`` noted; one
    beyond the float range reads inf.  An mpmath addend whose binary
    exponents put it below ``2 ** _below``, which is at most
    ``max_mag``, cannot be a new maximum and is skipped without taking
    its ``abs()``.  ``_mpfs`` keeps each Fraction (p, q) that met an
    mpmath value as ``mp.convert`` made it."""

    __slots__ = ("precision", "max_mag", "_below", "_prec", "_mpfs")
    name = "numeric"
    const = staticmethod(lambda q: q)
    gen = staticmethod(_raw)
    scalar = staticmethod(_wrapped)

    def __init__(self, precision):
        self.precision = precision
        self.max_mag = 0.0
        self._below = None  # None while max_mag is 0 or inf
        self._prec = precision + GUARD_BITS
        self._mpfs = {}

    def note(self, v):
        """Note an addend: a kept value, an mpmath number or a Fraction."""
        if type(v) is Fraction:
            try:
                m = float(abs(v))
            except OverflowError:
                m = float("inf")
        else:
            if type(v) is not tuple:
                v = _raw(v)
            below = self._below
            if below is not None:
                top = None
                for part in (v if len(v) == 2 else (v,)):  # |part| < 2**(exp+bc)
                    if part[1]:
                        t = part[2] + part[3]
                        if top is None or t > top:
                            top = t
                    elif part != fzero:
                        break  # inf or nan
                else:
                    # |v| < 2**(top+1) <= 2**below <= max_mag, and v == 0
                    # is never a new maximum
                    if top is None or top + 1 <= below:
                        return
            prec = self._prec
            m = to_float(mpc_abs(v, prec, "n") if len(v) == 2 else mpf_abs(v, prec, "n"),
                         rnd="n")
        if m > self.max_mag:
            self.max_mag = m
            self._below = None if isinf(m) else frexp(m)[1] - 1

    def fresh(self):
        return NumericKernel(self.precision)

    def passes(self, v):
        return _residual_ok(v, self.precision, self.max_mag)

    def power(self, node, cache):
        b, k = node.args
        v = cache[b]
        if type(v) is not tuple:
            return v ** k
        prec = self._prec
        return mpc_pow_int(v, k, prec, "n") if len(v) == 2 else mpf_pow_int(v, k, prec, "n")

    def fold(self, node, cache):
        """Left-to-right sum or product of a node's operands, as mpmath's
        operators compute it.  A Fraction that meets an mpmath value is
        converted as ``mp.convert`` does; Fraction with Fraction stays
        exact."""
        prec = self._prec
        is_add = node.op == OP_ADD
        step = _plus if is_add else _times
        args = node.args
        v = cache[args[0]]
        if is_add:
            self.note(v)
        for c in args[1:]:
            cv = cache[c]
            if is_add:
                self.note(cv)
            if type(cv) is Fraction:
                if type(v) is Fraction:
                    v = v + cv if is_add else v * cv
                else:
                    v = step(v, self._mpf(cv), prec)
            elif type(v) is Fraction:
                # Fraction op mpmath dispatches to the mpmath operand's
                # reflected operator, which computes cv op convert(v)
                v = step(cv, self._mpf(v), prec)
            else:
                v = step(v, cv, prec)
        return v

    def _mpf(self, q):
        """The Fraction ``q`` as ``mp.convert`` makes it."""
        key = q.as_integer_ratio()
        m = self._mpfs.get(key)
        if m is None:
            m = self._mpfs[key] = from_rational(*key, self._prec)
        return m
