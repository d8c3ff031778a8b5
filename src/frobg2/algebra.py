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

The module also holds what every suite draws its points with: the
exact evaluation contexts, the one bounded redraw loop
(``draw_stream``), and the forked workers that share a suite's points
out (``forked_map``).  ``draw_stream`` draws a stream's items here, in
stream order, and computes them on the workers.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from itertools import product

from . import expr as ex
from .expr import (
    GK_H,
    GK_JET,
    GK_U,
    ONE,
    ZERO,
    add,
    derive,
    div,
    gamma,
    h,
    jet,
    mul,
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
        return ex.neg(add(*[mul(gamma(i, l), h(l)) for l in self.indices() if l != i]))

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
            for l in self.indices()
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
                return add(*[mul(self._dh_du(i, k), jet(k, 1)) for k in self.indices()])
            return add(*[mul(self._dgamma_du(i, p, k), jet(k, 1)) for k in self.indices()])

        return derive(e, rule, cache)

    # -- Christoffel symbols -------------------------------------------------

    def christoffel(self, k, i, j):
        """Gamma^k_{ij} of the Levi-Civita connection of sum h_i^2 du_i^2."""
        key = (k, i, j)
        out = self._christoffel.get(key)
        if out is not None:
            return out
        if i == j == k:
            out = ex.neg(add(*[mul(gamma(i, l), div(h(l), h(i)))
                               for l in self.indices() if l != i]))
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


# ---------------------------------------------------------------------------
# evaluation contexts


class ResampleNeeded(Exception):
    """Exact evaluation hit a vanishing denominator; draw a new point."""


class DegenerateSample(Exception):
    """Every resampling attempt hit a degenerate configuration."""


def draw_stream(draw, compute, count, label):
    """``count`` rows from the items ``draw()`` returns one after another:
    an item's row is ``compute(item)``, and a None item or row marks a
    degenerate draw, which is skipped; MAX_RESAMPLE degenerate draws in a
    row raise ``DegenerateSample(label)``.  It is the package's one
    bounded redraw loop: a single point (``families.sample``) is a
    stream of count 1, and ``compute`` passes the item through.  These
    are the rows of the serial loop that redraws each row in turn, but
    the items are drawn here and computed on forked workers.

    Each batch draws, in stream order, as many items as rows are still
    missing, and never more than the draws left before the give-up: a
    draw consumes the stream the same way whether it turns out
    degenerate or not, so every draw the serial loop makes is the same
    here.  The batch's items are computed by ``forked_map`` and accepted
    in draw order.  ``compute`` runs in a worker on what the worker
    inherits; only its row is sent back.  A failure, in ``draw`` or in
    ``compute``, is that of the lowest failing draw, as in the serial
    loop."""
    rows = []
    degenerate = 0  # consecutive degenerate draws
    while len(rows) < count:
        items, failed = [], None
        for _ in range(min(count - len(rows), MAX_RESAMPLE - degenerate)):
            try:
                items.append(draw())
            except Exception as exc:
                failed = exc  # raised once the draws before it are computed
                break
        computed = iter(forked_map(compute, [x for x in items if x is not None]))
        for item in items:
            row = None if item is None else next(computed)
            if row is None:
                degenerate += 1
            else:
                rows.append(row)
                degenerate = 0
        if failed is not None:
            raise failed
        if degenerate == MAX_RESAMPLE:
            raise DegenerateSample(label)
    return rows


# ---------------------------------------------------------------------------
# forked workers


def _worker_count(points):
    """How many processes share a map's items: this one and the
    workers it forks, at most one per usable core.  A process that has
    threads stays serial, because forking one is unsafe."""
    if points < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(points, len(os.sched_getaffinity(0)))


def forked_map(fn, items):
    """``[fn(x) for x in items]``, the items dealt in contiguous shares,
    in item order and the earlier shares the longer ones, to this
    process and to workers forked from it.  A worker inherits ``fn`` and
    everything it reaches (a built DAG, mpmath's precision).  Each
    process stops at its own first item that raises.  Since the shares
    are in item order, the first failure read in process order is that
    of the lowest failing item, as in the serial loop: this process's
    own is raised at once, and a worker's with the worker's traceback as
    its cause.  The workers after it are killed unread, as is every
    worker still running when this process leaves: all are reaped
    before it does.  The heap is collected before forking only when a
    DAG was kept (``expr.keep_schedule``) since the last such
    collection."""
    n = len(items)
    workers = _worker_count(n)
    if workers < 2:
        return [fn(x) for x in items]
    import gc
    import pickle
    import signal

    cuts = [n - n * (workers - j) // workers for j in range(workers + 1)]
    running = []  # (pid, read end of its pipe) per worker not yet reaped
    # A full collection after a build keeps the peak RSS of a cold call
    # down (without it, An(6) with three points peaked at 34.1 MB, not
    # 31.9).  Its cost grows with the whole heap, 15-25 ms a call once
    # a few n=4 DAGs are kept, and sampling and evaluation leave no
    # cycles for it, so a map on a DAG kept before the last collection
    # skips it.
    if ex.collect_before_fork:
        gc.collect()
        ex.collect_before_fork = False
    gc.freeze()  # so that no worker's collector writes to the shared heap
    try:
        for j in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _work(fn, items[cuts[j]:cuts[j + 1]], w)
            os.close(w)
            running.append((pid, open(r, "rb")))
        gc.unfreeze()
        out = [fn(x) for x in items[:cuts[1]]]
        while running:
            pid, fh = running[0]
            with fh:
                data = fh.read()
            del running[0]
            status = os.waitpid(pid, 0)[1]
            if not data:
                raise RuntimeError("suite worker %d ended with status %d and no result"
                                   % (pid, os.waitstatus_to_exitcode(status)))
            share, failed = pickle.loads(data)
            if failed is not None:
                exc, trace = failed
                raise exc from RuntimeError("in suite worker %d:\n%s" % (pid, trace))
            out += share
    finally:
        gc.unfreeze()
        for pid, fh in running:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return out


def _work(fn, items, w):
    """A forked worker's whole life: write its pickled results up to its
    first failure, with that failure's ``(exception, traceback text)``
    or None, to the pipe end ``w``, then exit at once, so that it never
    returns into the parent's code nor flushes the parent's buffers.
    What cannot be pickled is not written, and the parent sees a worker
    with no result."""
    import pickle

    try:
        out, failed = [], None
        try:
            for x in items:
                out.append(fn(x))
        except Exception as exc:
            import traceback

            failed = (exc, "".join(traceback.format_exception(exc)))
        data = pickle.dumps((out, failed))
        with open(w, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


class EvalContext:
    """Assignment of scalars to the generators of one dimension-n point,
    and the kernel that evaluates expressions there (``expr.evaluate``).

    ``us``, ``hs`` are 1-based lists; ``gammas`` maps (i, j) with i < j;
    ``jets`` maps (i, p).  Scalars may be Fraction, RadicalElem or mpmath
    numbers.  ``kernel.passes(value)`` says whether a value counts as
    zero: exactly, with ``expr.EXACT`` (the default), or relative to the
    largest addend this context evaluated, with its own numeric kernel.
    ``cache`` holds kernel values at this point for ``expr.evaluate``:
    every node of a walked expression, shared with the next expression
    evaluated here, and only the root of a kept one, whose other values
    are dropped at their last use.
    """

    def __init__(self, n, us, hs, gammas, jets, kernel=ex.EXACT):
        self.n = n
        self.us = us
        self.hs = hs
        self.gammas = gammas
        self.jets = jets
        self.kernel = kernel
        self.cache = {}

    # "exact" or "numeric"; perfbench/tracer.py tags evaluations by it
    mode = property(lambda self: self.kernel.name)

    def with_jets(self, jets):
        """The same point with other jets, and a fresh kernel of this one's kind."""
        return EvalContext(self.n, self.us, self.hs, self.gammas, jets, self.kernel.fresh())

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
            return ex.evaluate(e, self.gen_value, self.cache, self.kernel)
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
