"""The genus-two identity checks.

Two large rational expressions are rebuilt from reviewable term tables
shipped as package data: the reference genus-two free energy
(``f2_reference``) and the genus-two correction term
(``g2_function``).  Their difference is, identically in the free
generators, a fixed rational combination of the sixteen dual-graph
contractions; ``check_decomposition`` verifies this at random exact
points, ``solve_coefficients`` re-derives the sixteen constants from
scratch, and ``relation_expression`` builds the linear relation that
the contractions satisfy on the distinguished families.
``check_decomposition`` and ``solve_coefficients`` draw their points
from one random stream in this process and evaluate them on forked
workers (``algebra.draw_stream``), with the results of the serial loop.

Building a DAG costs more than evaluating it, so ``f2_reference``,
``g2_function``, ``decomposition_residual``, ``relation_expression`` and
``o_difference_graphs`` build each DAG once per (kind, n) and keep it
for the life of the process.  Inside ``stored_builds()``, which every
CLI verb runs in, a DAG not yet kept is first loaded from a store on
disk, and one that had to be built is written there
(``$XDG_CACHE_HOME/frobg2``, by default ``~/.cache/frobg2``).  The
store is keyed by the package's source and data bytes and the Python
bytecode tag, so a DAG is built once per source version.  Library calls
never use the store: a DAG built from term tables or constants changed
in memory is not one the store may hold.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from importlib import resources
from itertools import product
from operator import itemgetter

from .algebra import Algebra, ResampleNeeded, draw_stream, random_context
from .correlators import CorrelatorTable, h_function
from .exact import row_reduce
from .expr import (
    ZERO, add, const, gamma, h, jet, keep_schedule, load, mul, neg, pow_, save,
    sub, u,
)
from .graphs import builtin, graph_function
from .report import DEFAULT_SEED, VerificationReport, point_digest

# the sixteen decomposition constants, in catalog order
CONSTANTS = {
    "Q1": Fraction(0),
    "Q2": Fraction(-1, 960),
    "Q3": Fraction(1, 5760),
    "Q4": Fraction(1, 1152),
    "Q5": Fraction(1, 2880),
    "Q6": Fraction(0),
    "Q7": Fraction(1, 1920),
    "Q8": Fraction(-1, 2880),
    "Q9": Fraction(-1, 1920),
    "Q10": Fraction(1, 1920),
    "Q11": Fraction(1, 1920),
    "Q12": Fraction(-1, 960),
    "Q13": Fraction(-1, 60),
    "Q14": Fraction(1, 48),
    "Q15": Fraction(-7, 240),
    "Q16": Fraction(7, 10),
}


def _load(name):
    with resources.files("frobg2.data").joinpath(name).open() as fh:
        return json.load(fh)


_F2_DATA = _load("f2_terms.json")
_G2_DATA = _load("g2_terms.json")


# ---------------------------------------------------------------------------
# term-table interpretation


# the factor kinds other than ``jet`` and ``poly``, built from their indices
_DERIVED = {
    "du": lambda alg, a, b: sub(u(a), u(b)),
    "V": lambda alg, a, b: mul(sub(u(b), u(a)), gamma(a, b)),
    "h": lambda alg, i: h(i),
    "g": lambda alg, a, b: gamma(a, b),
    "H": h_function,
    "dh": lambda alg, i: alg.partial_u(h(i), i),
    "dxh": lambda alg, i: alg.total_x(h(i)),
    "dg": lambda alg, a, b, c: alg.partial_u(gamma(a, b), c),
    "dxg": lambda alg, a, b: alg.total_x(gamma(a, b)),
    "dginvh": lambda alg, k, i: alg.partial_u(mul(gamma(i, k), pow_(h(k), -1)), k),
    "dgh": lambda alg, i, l: alg.partial_u(mul(h(i), gamma(i, l)), i),
}


def _slots(rec):
    """The slot positions a factor record reads, in record order."""
    kind = rec[0]
    if kind == "poly":
        out = []
        for _, factors in rec[1]:
            for f in factors:
                out.extend(s for s in _slots(f) if s not in out)
        return tuple(out)
    if kind == "jet":
        return (rec[1],)
    return tuple(rec[1:-1])


class _TableBuilder:
    """Sums term tables over index tuples for one build.

    Each term is compiled once per builder: its coefficient parsed, and
    every factor record reduced to a key head plus the slots it reads.
    A factor is then built once per (head, indices read) and looked up
    at every other index tuple that resolves to the same indices.  The
    memos live and die with the builder."""

    def __init__(self, alg):
        self.alg = alg
        self._factors = {}
        self._terms = {}  # id(term) -> (term, compiled term)

    def _make(self, rec, tup):
        kind = rec[0]
        exp = rec[-1]
        if kind == "jet":
            base = jet(tup[rec[1]], rec[2])
        elif kind == "poly":
            parts = []
            for coeff, factors in rec[1]:
                fs = [const(coeff)]
                for f in factors:
                    fs.append(self._make(f, tup))
                parts.append(mul(*fs))
            base = add(*parts)
        else:
            make = _DERIVED.get(kind)
            if make is None:
                raise ValueError("unknown factor kind %r" % kind)
            base = make(self.alg, *[tup[slot] for slot in rec[1:-1]])
        return pow_(base, exp)

    def _compile(self, term):
        """The term's coefficient node, the slot pairs of its u_{ab}
        denominators and, per factor record, (key head, reader, record).
        Compiled once per builder; the term is kept with it, so its id
        cannot be reused while the builder lives."""
        hit = self._terms.get(id(term))
        if hit is not None:
            return hit
        skip = [(rec[1], rec[2]) for rec in term["f"]
                if rec[0] == "du" and rec[-1] < 0]
        factors = []
        for rec in term["f"]:
            if rec[0] == "poly":
                head = ("poly", json.dumps(rec))
            elif rec[0] == "jet":
                head = ("jet", rec[2], rec[3])
            else:
                head = (rec[0], rec[-1])
            factors.append((head, itemgetter(*_slots(rec)), rec))
        out = self._terms[id(term)] = (term, const(Fraction(term["c"])), skip, factors)
        return out

    def term(self, term, tup):
        """One term at one index tuple, or None when a u_{ab} denominator
        vanishes (that tuple is excluded from the sum) or a factor is 0."""
        _, coeff, skip, factors = self._compile(term)
        for a, b in skip:
            if tup[a] == tup[b]:
                return None
        memo = self._factors
        out = [coeff]
        for head, read, rec in factors:
            key = (head, read(tup))
            f = memo.get(key)
            if f is None:
                f = memo[key] = self._make(rec, tup)
            if f is ZERO:
                return None
            out.append(f)
        return mul(*out)

    def table(self, data, outer):
        """Sum the table's terms over their non-outer slots."""
        out = []
        for term in data["terms"]:
            extra = term["s"] - len(outer)
            if extra < 0:
                raise ValueError("term %r has fewer slots than the table" % term["id"])
            for idx in product(self.alg.indices(), repeat=extra):
                e = self.term(term, outer + idx)
                if e is not None:
                    out.append(e)
        return add(*out)


# ---------------------------------------------------------------------------
# the build cache

_built = {}  # (builder, n) -> its DAG
_store = None  # the store directory while stored_builds() is on


@contextmanager
def stored_builds():
    """Within this block, ``_kept`` loads a DAG it does not hold from the
    store directory, and writes there one it builds.  With no absolute
    ``XDG_CACHE_HOME`` and no home directory to fall back on, the store
    stays off, so nothing is written relative to the working directory."""
    global _store
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    _store = os.path.join(base, "frobg2") if os.path.isabs(base) else None
    try:
        yield
    finally:
        _store = None


@functools.cache
def _source_key():
    """sha256 of the bytecode tag and of every source and data file of
    the package, by name and bytes."""
    sha = hashlib.sha256(str(sys.implementation.cache_tag).encode())
    here = os.path.dirname(os.path.abspath(__file__))
    data = os.path.join(here, "data")
    paths = [os.path.join(here, f) for f in sorted(os.listdir(here)) if f.endswith(".py")]
    paths += [os.path.join(data, f) for f in sorted(os.listdir(data))]
    for path in paths:
        with open(path, "rb") as fh:
            body = fh.read()
        sha.update(b"\0%s\0%d\0" % (os.path.relpath(path, here).encode(), len(body)))
        sha.update(body)
    return sha.hexdigest()


def _store_path(name, n):
    """The store file of builder ``name``'s DAG at ``n``; None while the
    store is off."""
    if _store is None:
        return None
    try:
        key = _source_key()
    except OSError:  # the sources are not files to read: no store
        return None
    return os.path.join(_store, "%s-%d-%s.json" % (name, n, key))


def _load_stored(path):
    """The DAG stored at ``path``, or None when it cannot be read or
    fails ``expr.load``'s checks."""
    try:
        with open(path, encoding="utf-8") as fh:
            return load(fh.read())
    except (OSError, ValueError, LookupError, TypeError, ArithmeticError,
            RecursionError):  # missing, unreadable or malformed: build instead
        return None


def _write_stored(e, path):
    """Store the kept DAG ``e`` at ``path`` through a temporary file and
    ``os.replace``, so no reader sees a partial file, then remove the
    files of the same builder and ``n`` under other source keys, so the
    store holds one version of each.  A store that cannot be written is
    left as it is."""
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            save(e, fh.write)
        os.replace(tmp, path)
    except OSError:
        _unlink(tmp)
        return
    folder, name = os.path.split(path)
    prefix = name[:name.rindex("-") + 1]  # "<builder>-<n>-"
    try:
        stale = [f for f in os.listdir(folder)
                 if f.startswith(prefix) and f.endswith(".json") and f != name]
    except OSError:
        return
    for f in stale:
        _unlink(os.path.join(folder, f))


def _unlink(path):
    try:
        os.unlink(path)
    except OSError:
        pass


def _kept(build):
    """``build(alg)`` as a DAG built on the first call at each ``alg.n``,
    on a fresh ``Algebra(n)``, and kept for the life of the process with
    its evaluation order (``expr.keep_schedule``, which also has the next
    fork collect the heap first), so no evaluation walks it again.  Only
    the finished DAG is kept; the build's Algebra and CorrelatorTable,
    with their derive caches, are dropped when it returns.

    Inside ``stored_builds()`` a DAG not yet kept is loaded from
    ``<builder>-<n>-<source key>.json`` in the store directory instead,
    and one that is built after all (no such file, or one that does not
    load) is written there by this process.  A loaded DAG comes kept
    from ``expr.load``, in the order of its rows, without a walk."""
    @functools.wraps(build)
    def kept(alg):
        key = (build, alg.n)
        out = _built.get(key)
        if out is None:
            path = _store_path(build.__name__, alg.n)
            out = path and _load_stored(path)
            if not out:
                out = build(Algebra(alg.n))
                keep_schedule(out)
                if path:
                    _write_stored(out, path)
            _built[key] = out
        return out
    return kept


@_kept
def f2_reference(alg):
    """The reference genus-two free energy over free generators."""
    return _TableBuilder(alg).table(_F2_DATA, ())


@_kept
def g2_function(alg):
    """The genus-two correction term G(u, u_x, u_xx)."""
    builder = _TableBuilder(alg)
    parts = []
    for i in alg.indices():
        gi = builder.table(_G2_DATA["Gi"], (i,))
        if gi is not ZERO:
            parts.append(mul(gi, jet(i, 2)))
        qi = builder.table(_G2_DATA["Qi"], (i,))
        if qi is not ZERO:
            parts.append(mul(qi, pow_(jet(i, 1), 2)))
        for j in alg.indices():
            pij = builder.table(_G2_DATA["P"], (i, j))
            if pij is not ZERO:
                parts.append(mul(const("1/2"), pij, jet(i, 1), jet(j, 1)))
            if i != j:
                gij = builder.table(_G2_DATA["Gij"], (i, j))
                if gij is not ZERO:
                    parts.append(
                        mul(gij, pow_(jet(j, 1), 3), pow_(jet(i, 1), -1))
                    )
    return add(*parts)


# ---------------------------------------------------------------------------
# identity checks


@_kept
def decomposition_residual(alg):
    """f2_reference minus the sixteen-graph combination minus the
    correction term; identically zero in the free generators."""
    return add(f2_reference(alg), neg(g2_function(alg)),
               graph_combination(alg, {name: -c for name, c in CONSTANTS.items() if c}))


def _generic_rows(n, rng, expressions, count, row):
    """``row(ctx, values)`` at ``count`` random exact points ``ctx``, the
    values of ``expressions`` there; a point where one of them hits a
    vanishing denominator is redrawn.  The points are drawn from ``rng``
    here and evaluated on forked workers (``algebra.draw_stream``); each
    point's evaluation cache is dropped once its row is made."""
    def compute(ctx):
        try:
            values = [ctx.evaluate(e) for e in expressions]
        except ResampleNeeded:
            return None
        finally:
            ctx.cache = {}
        return row(ctx, values)

    return draw_stream(lambda: random_context(n, rng), compute, count,
                       "generic point, n=%d" % n)


def _decomposition_row(ctx, values):
    (val,) = values
    digest = point_digest((ctx.us, ctx.hs, sorted(ctx.gammas.items()),
                           sorted(ctx.jets.items())))
    return digest, str(val), ctx.kernel.passes(val)


def check_decomposition(n, trials=20, seed=DEFAULT_SEED):
    res = decomposition_residual(Algebra(n))
    report = VerificationReport(command="verify-decomposition", n=n, seed=seed)
    rng = random.Random(seed)
    for trial in _generic_rows(n, rng, [res], trials, _decomposition_row):
        report.add_trial(*trial)
    return report


def solve_coefficients(n, samples=32, seed=DEFAULT_SEED):
    """Re-derive the sixteen constants by exact linear algebra.

    Solves sum_g a_g * graph(g) = f2_reference - g2_function at random
    exact points and checks the solution is consistent on the leftover
    equations.  Raises RuntimeError naming the coefficient rank out of
    16: "singular" when it is below 16, "inconsistent" when it is full
    but the right-hand side leaves the span.  At n = 1 the sixteen
    contractions span only three dimensions, so n must be at least 2.
    """
    if n < 2:
        raise ValueError("need n >= 2: the n = 1 system is singular")
    if samples < 32:
        raise ValueError("need at least 32 samples")
    alg = Algebra(n)
    table = CorrelatorTable(alg)
    names = ["Q%d" % p for p in range(1, 17)]
    cols = [graph_function(builtin(nm), table) for nm in names]
    target = add(f2_reference(alg), neg(g2_function(alg)))
    rows = _generic_rows(n, random.Random(seed), cols + [target], samples,
                         lambda ctx, values: values)
    _, pivots, reduced = row_reduce(rows)
    if pivots != list(range(16)):
        rank = len([col for col in pivots if col < 16])
        kind = "singular" if rank < 16 else "inconsistent"
        raise RuntimeError(
            "sampled linear system is %s: coefficient rank %d of 16" % (kind, rank)
        )
    return {nm: row[-1] for nm, row in zip(names, reduced)}


# ---------------------------------------------------------------------------
# the linear relation among the contractions


RELATION_WEIGHTS = {
    "Q1": 1, "Q6": -1, "Q7": 2, "Q5": -2, "Q8": 3, "Q2": -3,
    "Q9": 4, "Q3": -4, "Q4": 6, "Q10": 6, "Q11": -6, "Q12": -6,
}


@_kept
def relation_expression(alg):
    """(Q1-Q6) + 2(Q7-Q5) + 3(Q8-Q2) + 4(Q9-Q3) + 6(Q4+Q10-Q11-Q12)."""
    return graph_combination(alg, RELATION_WEIGHTS)


def o_difference_closed_form(alg):
    """sum_{i<j} gamma_ij (h_i^2 + h_j^2)^2 / (h_i^3 h_j^3)."""
    terms = []
    for i in alg.indices():
        for j in alg.indices():
            if i < j:
                terms.append(
                    mul(
                        gamma(i, j),
                        pow_(add(pow_(h(i), 2), pow_(h(j), 2)), 2),
                        pow_(h(i), -3),
                        pow_(h(j), -3),
                    )
                )
    return add(*terms)


@_kept
def o_difference_graphs(alg):
    """The contraction O1 - O2."""
    table = CorrelatorTable(alg)
    return sub(
        graph_function(builtin("O1"), table),
        graph_function(builtin("O2"), table),
    )


def relation_cross_check(alg):
    """relation_expression minus d_x^2 of (O1 - O2); identically zero."""
    return sub(
        relation_expression(alg),
        alg.total_x(alg.total_x(o_difference_graphs(alg))),
    )


# Closed-form graph combinations for the two smallest families: on the
# rank-two polynomial family the full free energy collapses to four of
# the canonical contractions, and on the (1,1) orbifold family three
# more graphs (the W catalog entries) are added on top of the same four.
A2_WEIGHTS = {
    "Q1": Fraction(1, 1152),
    "Q2": Fraction(-1, 360),
    "Q3": Fraction(-1, 1152),
    "Q4": Fraction(1, 360),
}
A1_ORBIFOLD_WEIGHTS = dict(
    A2_WEIGHTS,
    W1=Fraction(-1, 480),
    W2=Fraction(7, 5760),
    W3=Fraction(11, 5760),
)


def graph_combination(alg, weights):
    """Weighted sum of catalog contractions, weights keyed by name."""
    table = CorrelatorTable(alg)
    return add(
        *[
            mul(const(c), graph_function(builtin(nm), table))
            for nm, c in weights.items()
        ]
    )


# ---------------------------------------------------------------------------
# small phase space


def g2_small_phase(alg, ctx):
    """The correction term with all u_{i,x} = 1 and u_{i,xx} = 0."""
    jets = dict(ctx.jets)
    for i in alg.indices():
        jets[(i, 1)] = Fraction(1)
        jets[(i, 2)] = Fraction(0)
    return ctx.with_jets(jets).evaluate(g2_function(alg))
