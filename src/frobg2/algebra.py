"""Derivation rules of the canonical-coordinate differential algebra.

For a fixed dimension n, an :class:`Algebra` provides the three
derivations acting on expressions over the generators u_i, jets,
h_i and gamma_ij:

* ``partial_u(e, k)``  -- derivative in the coordinate u_k, with
  dh_i/du_k = gamma_ik h_k (k != i), dh_i/du_i = -sum_k gamma_ik h_k,
  dgamma_ij/du_k = gamma_ik gamma_kj for distinct indices, and the
  Euler/translation-derived rule for dgamma_ij/du_i;
* ``partial_jet(e, i, p)`` -- formal derivative in the jet u_i^{(p)},
  jets being free generators (partial_u never touches them);
* ``total_x(e)`` -- the total x-derivative, acting as u -> u^{(1)},
  u^{(p)} -> u^{(p+1)} and through the chain rule on h, gamma.

It also builds the Christoffel symbols of the diagonal metric.  All
results are memoized on the shared expression DAG.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from . import expr as ex
from .expr import (
    GK_GAMMA,
    GK_H,
    GK_JET,
    GK_U,
    ONE,
    ZERO,
    add,
    const,
    derive,
    div,
    gamma,
    h,
    jet,
    mul,
    pow_,
    sub,
    u,
)

MAX_RESAMPLE = 200


class Algebra:
    def __init__(self, n):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.n = n
        self._pu_caches = {}
        self._pj_caches = {}
        self._tx_cache = {}
        self._christoffel = {}

    # -- leaf rules ---------------------------------------------------------

    def _dh_du(self, i, k):
        if k != i:
            return mul(gamma(i, k), h(k))
        return ex.neg(add(*[mul(gamma(i, l), h(l)) for l in range(1, self.n + 1) if l != i])) \
            if self.n > 1 else ZERO

    def _dgamma_du(self, i, j, k):
        # i < j by construction of the generator
        if k != i and k != j:
            return mul(gamma(i, k), gamma(k, j))
        if k == i:
            a, b = i, j
        else:
            a, b = j, i
        # dgamma_ab/du_a = (sum_l (u_b - u_l) gamma_al gamma_lb - gamma_ab)/(u_a - u_b)
        terms = [
            mul(sub(u(b), u(l)), gamma(a, l), gamma(l, b))
            for l in range(1, self.n + 1)
            if l != a and l != b
        ]
        terms.append(ex.neg(gamma(a, b)))
        return div(add(*terms), sub(u(a), u(b)))

    def partial_u(self, e, k):
        cache = self._pu_caches.get(k)
        if cache is None:
            cache = self._pu_caches[k] = {}

        def rule(g):
            kind, i, p = g.args
            if kind == GK_U:
                return ONE if i == k else ZERO
            if kind == GK_JET:
                return ZERO
            if kind == GK_H:
                return self._dh_du(i, k)
            return self._dgamma_du(i, p, k)  # p holds j for gamma generators

        return derive(e, rule, cache)

    def partial_jet(self, e, i, p):
        cache = self._pj_caches.get((i, p))
        if cache is None:
            cache = self._pj_caches[(i, p)] = {}
        target = jet(i, p)

        def rule(g):
            return ONE if g is target else ZERO

        return derive(e, rule, cache)

    def total_x(self, e):
        cache = self._tx_cache

        def rule(g):
            kind, i, p = g.args
            if kind == GK_U:
                return jet(i, 1)
            if kind == GK_JET:
                return jet(i, p + 1)
            if kind == GK_H:
                return add(*[mul(self._dh_du(i, k), jet(k, 1)) for k in range(1, self.n + 1)])
            return add(
                *[mul(self._dgamma_du(i, p, k), jet(k, 1)) for k in range(1, self.n + 1)]
            )

        return derive(e, rule, cache)

    # -- Christoffel symbols -------------------------------------------------

    def christoffel(self, k, i, j):
        """Gamma^k_{ij} of the Levi-Civita connection of sum h_i^2 du_i^2."""
        key = (k, i, j)
        out = self._christoffel.get(key)
        if out is not None:
            return out
        if i == j == k:
            out = ex.neg(
                add(*[mul(gamma(i, l), div(h(l), h(i)))
                      for l in range(1, self.n + 1) if l != i])
            ) if self.n > 1 else ZERO
        elif k == i and i != j:
            out = mul(gamma(i, j), div(h(j), h(i)))
        elif k == j and j != i:
            out = mul(gamma(i, j), div(h(i), h(j)))
        elif i == j and k != i:
            out = ex.neg(mul(gamma(i, k), div(h(i), h(k))))
        else:
            out = ZERO
        self._christoffel[key] = out
        return out

    # -- misc helpers ---------------------------------------------------------

    def indices(self):
        return range(1, self.n + 1)

    def max_jet_order(self, e):
        """Largest jet order appearing in e (0 if none)."""
        best = 0
        for g in ex.generators(e):
            if g.args[0] == GK_JET and g.args[2] > best:
                best = g.args[2]
        return best


# ---------------------------------------------------------------------------
# evaluation contexts


class ResampleNeeded(Exception):
    """Exact evaluation hit a vanishing denominator; draw a new point."""


class DegenerateSample(Exception):
    """Every resampling attempt hit a degenerate configuration."""


def redraw(draw, label):
    """The first result of ``draw()`` that is not None; a degenerate
    draw returns None and is redrawn, at most MAX_RESAMPLE times."""
    for _ in range(MAX_RESAMPLE):
        out = draw()
        if out is not None:
            return out
    raise DegenerateSample(label)


class EvalContext:
    """Assignment of scalars to the generators of one dimension-n point.

    ``us``, ``hs`` are 1-based lists; ``gammas`` maps (i, j) with i < j;
    ``jets`` maps (i, p).  Scalars may be Fraction, RadicalElem or mpmath
    numbers.  A numeric context records the largest addend magnitude in
    ``stats.max_mag`` for the relative tolerance; an exact one (mode
    ``"exact"``) compares with zero and keeps no stats (``stats`` is None).
    """

    def __init__(self, n, us, hs, gammas, jets, mode="exact"):
        self.n = n
        self.us = us
        self.hs = hs
        self.gammas = gammas
        self.jets = jets
        self.mode = mode
        self.cache = {}
        self.stats = None if mode == "exact" else ex.EvalStats()

    def gen_value(self, args):
        kind, i, p = args
        if kind == GK_U:
            return self.us[i - 1]
        if kind == GK_JET:
            try:
                return self.jets[(i, p)]
            except KeyError:
                raise KeyError("no value for jet u_%d^(%d)" % (i, p)) from None
        if kind == GK_H:
            return self.hs[i - 1]
        return self.gammas[(i, p)]

    def evaluate(self, e):
        try:
            return ex.evaluate(e, self.gen_value, self.cache, self.stats)
        except ZeroDivisionError as exc:
            raise ResampleNeeded(str(exc)) from exc


def random_rational(rng, bound):
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def random_jets(rng, n, bound):
    """Jets u_i^(p), p = 1..6, with every u_i,x nonzero."""
    jets = {}
    for i in range(1, n + 1):
        for p in range(1, 7):
            v = random_rational(rng, bound)
            while p == 1 and v == 0:
                v = random_rational(rng, bound)
            jets[(i, p)] = v
    return jets


def random_context(n, rng):
    """Free-generator exact point: distinct u_i, nonzero u_i,x and h_i."""
    bound = 100
    while True:
        us = [random_rational(rng, bound) for _ in range(n)]
        if len(set(us)) == n:
            break
    hs = []
    for _ in range(n):
        v = random_rational(rng, bound)
        while v == 0:
            v = random_rational(rng, bound)
        hs.append(v)
    gammas = {}
    for i, j in product(range(1, n + 1), repeat=2):
        if i < j:
            gammas[(i, j)] = random_rational(rng, bound)
    return EvalContext(n, us, hs, gammas, random_jets(rng, n, bound))
