"""Hash-consed differential-polynomial expressions.

Nodes form an immutable DAG over four generator kinds: coordinates
``u_i``, their x-jets ``u_i^{(p)}``, metric square roots ``h_i`` and
off-diagonal rotation coefficients ``g_{ij}`` (stored with i < j, the
matrix is symmetric).  Construction canonicalizes just enough to keep
identical subterms shared: sums are flattened with like terms combined,
products are flattened with powers collected and a single rational
coefficient folded out, integer powers distribute over products.  No
other rewriting happens; identities are checked by evaluation, not by
normal forms.

Every node carries a structural hash (``shash``) built bottom-up from
integers only, so child ordering and the S-expression dump are stable
across processes.
"""

from __future__ import annotations

from fractions import Fraction
from math import frexp, gcd, isinf
from operator import attrgetter
from weakref import WeakValueDictionary

import mpmath
from mpmath.libmp import fzero

from .radicals import RadicalElem

OP_CONST = 0
OP_GEN = 1
OP_ADD = 2
OP_MUL = 3
OP_POW = 4

GK_U = 0
GK_JET = 1
GK_H = 2
GK_GAMMA = 3

_GEN_NAMES = {GK_U: "u", GK_JET: "x", GK_H: "h", GK_GAMMA: "g"}

_MASK = (1 << 61) - 1


class Expr:
    __slots__ = ("op", "args", "shash", "sid", "__weakref__")

    def __repr__(self):
        return dump(self) if node_count(self) < 40 else "<Expr %d nodes>" % node_count(self)

    # interned: identity equality and hashing are inherited from object


_intern: "WeakValueDictionary[tuple, Expr]" = WeakValueDictionary()
_next_sid = [0]


def _mk(op, args, hcomps):
    key = (op,) + args
    node = _intern.get(key)
    if node is None:
        node = Expr()
        node.op = op
        node.args = args
        node.shash = hash((op,) + hcomps) & _MASK
        node.sid = _next_sid[0]
        _next_sid[0] += 1
        _intern[key] = node
    return node


# sort key of sum and product children: (shash, sid)
_skey = attrgetter("shash", "sid")


def const(q):
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return _mk(OP_CONST, (q,), (q.numerator, q.denominator))


ZERO = const(0)
ONE = const(1)
# keep the two ubiquitous constants alive for the life of the process
_pinned = (ZERO, ONE)


def gen(kind, i, p=0):
    return _mk(OP_GEN, (kind, i, p), (kind, i, p))


def u(i):
    return gen(GK_U, i)


def jet(i, p):
    if p < 1:
        raise ValueError("jet order must be >= 1")
    return gen(GK_JET, i, p)


def h(i):
    return gen(GK_H, i)


def gamma(i, j):
    if i == j:
        return ZERO
    if i > j:
        i, j = j, i
    return gen(GK_GAMMA, i, j)


def const_value(e):
    return e.args[0]


def _split(term):
    """term -> (rational coefficient, coefficient-free base)."""
    if term.op == OP_CONST:
        return term.args[0], ONE
    if term.op == OP_MUL and term.args[0].op == OP_CONST:
        rest = term.args[1:]
        if len(rest) == 1:
            return term.args[0].args[0], rest[0]
        return term.args[0].args[0], _mk(
            OP_MUL, rest, tuple(c.shash for c in rest)
        )
    return 1, term


def add(*terms):
    # base -> [coefficient, the addend as given, or None once a like
    # term has combined with it]; an addend kept as given is the node
    # that mul(const(c), base) would intern anyway
    acc = {}
    for t in terms:
        if t.op == OP_ADD:
            items = t.args
        else:
            items = (t,)
        for it in items:
            c, base = _split(it)
            if not c:
                continue
            prev = acc.get(base)
            if prev is None:
                acc[base] = [c, it]
                continue
            s = prev[0] + c
            if s:
                prev[0] = s
                prev[1] = None
            else:
                del acc[base]
    out = []
    for base, (c, given) in acc.items():
        if given is not None:
            out.append(given)
        elif base is ONE:
            out.append(const(c))
        elif c == 1:
            out.append(base)
        else:
            out.append(mul(const(c), base))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=_skey)
    return _mk(OP_ADD, tuple(out), tuple(e.shash for e in out))


def mul(*factors):
    # like add, a constant or power that nothing combined with is kept
    # as given: cnode is the one constant factor, given[base] the one
    # factor that brought base (None once a second one has)
    coeff = 1
    cnode = None
    powers = {}
    given = {}
    stack = list(factors)
    while stack:
        f = stack.pop()
        op = f.op
        if op == OP_CONST:
            c = f.args[0]
            if not c:
                return ZERO
            # coeff stays the int 1 until the first constant factor
            if type(coeff) is int:
                coeff = c
                cnode = f
            else:
                coeff = coeff * c
                cnode = None
            continue
        if op == OP_MUL:
            stack.extend(f.args)
            continue
        if op == OP_POW:
            base, k = f.args
        else:
            base, k = f, 1
        prev = powers.get(base)
        if prev is None:
            powers[base] = k
            given[base] = f
        else:
            powers[base] = prev + k
            given[base] = None
    out = []
    for base, k in powers.items():
        if k == 0:
            continue
        g = given[base]
        if g is not None:
            out.append(g)
        elif k == 1:
            out.append(base)
        else:
            out.append(_mk(OP_POW, (base, k), (base.shash, k)))
    if not out:
        return const(coeff) if cnode is None else cnode
    out.sort(key=_skey)
    if coeff != 1:
        out.insert(0, const(coeff) if cnode is None else cnode)
    if len(out) == 1:
        return out[0]
    return _mk(OP_MUL, tuple(out), tuple(e.shash for e in out))


def pow_(b, k):
    k = int(k)
    if k == 0:
        return ONE
    if k == 1:
        return b
    if b.op == OP_CONST:
        return const(b.args[0] ** k)
    if b.op == OP_POW:
        return pow_(b.args[0], b.args[1] * k)
    if b.op == OP_MUL:
        return mul(*[pow_(f, k) for f in b.args])
    return _mk(OP_POW, (b, k), (b.shash, k))


def neg(e):
    return mul(const(-1), e)


def sub(a, b):
    return add(a, neg(b))


def div(a, b):
    return mul(a, pow_(b, -1))


# ---------------------------------------------------------------------------
# generic derivation


def derive(e, leaf_rule, cache):
    """Apply a derivation to e.  leaf_rule maps a GEN node to its image;
    cache is a dict shared across calls for the same derivation."""
    hit = cache.get(e)
    if hit is not None:
        return hit
    op = e.op
    if op == OP_CONST:
        out = ZERO
    elif op == OP_GEN:
        out = leaf_rule(e)
    elif op == OP_ADD:
        out = add(*[derive(t, leaf_rule, cache) for t in e.args])
    elif op == OP_MUL:
        terms = []
        args = e.args
        for i, f in enumerate(args):
            df = derive(f, leaf_rule, cache)
            if df is ZERO:
                continue
            terms.append(mul(df, *args[:i], *args[i + 1:]))
        out = add(*terms) if terms else ZERO
    else:  # OP_POW
        b, k = e.args
        db = derive(b, leaf_rule, cache)
        out = ZERO if db is ZERO else mul(const(k), pow_(b, k - 1), db)
    cache[e] = out
    return out


# ---------------------------------------------------------------------------
# traversal, evaluation


def _postorder(e):
    seen = set()
    order = []
    stack = [(e, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        if node.op in (OP_ADD, OP_MUL):
            for c in node.args:
                stack.append((c, False))
        elif node.op == OP_POW:
            stack.append((node.args[0], False))
    return order


def node_count(e):
    return len(_postorder(e))


def generators(e):
    """All GEN nodes reachable from e."""
    return [n for n in _postorder(e) if n.op == OP_GEN]


_MPC = mpmath.mp.mpc
_MP_TYPES = frozenset(mpmath.mp.types)


class EvalStats:
    """Collects the largest magnitude seen among addends (numeric runs);
    an addend beyond the float range reads as inf.

    ``max_mag`` is exactly the largest ``float(abs(v))`` noted.  An mpc
    addend whose binary exponents put it below ``2 ** _below``, which is
    at most ``max_mag``, cannot be a new maximum and is skipped without
    taking its working-precision ``abs()``."""

    __slots__ = ("max_mag", "_below")

    def __init__(self):
        self.max_mag = 0.0
        self._below = None  # None while max_mag is 0 or inf

    def note(self, v):
        below = self._below
        if below is not None and type(v) is _MPC:
            top = None
            for part in v._mpc_:  # (sign, man, exp, bc): |part| < 2**(exp+bc)
                if part[1]:
                    t = part[2] + part[3]
                    if top is None or t > top:
                        top = t
                elif part != fzero:
                    break  # inf or nan
            else:
                # |v| < 2**(top+1) <= 2**below <= max_mag, and v == 0 is
                # never a new maximum
                if top is None or top + 1 <= below:
                    return
        try:
            m = float(abs(v))
        except (TypeError, ValueError):
            return
        except OverflowError:
            m = float("inf")
        if m > self.max_mag:
            self.max_mag = m
            self._below = None if isinf(m) else frexp(m)[1] - 1


def _fold(node, cache, stats, converted):
    """Left-to-right sum or product of a node's operands on a numeric
    point.  A Fraction operand that meets an mpmath value is converted
    once per evaluation (``converted``) instead of once per use inside
    mpmath's operators; the arithmetic and its rounding are the same.
    Fraction with Fraction stays exact."""
    is_add = node.op == OP_ADD
    args = node.args
    v = cache[args[0]]
    if is_add:
        stats.note(v)
    # the node whose exact value v still is, while v is an unconverted Fraction
    pending = args[0] if type(v) is Fraction else None
    for c in args[1:]:
        cv = cache[c]
        if is_add:
            stats.note(cv)
        if type(cv) is Fraction:
            if type(v) in _MP_TYPES:
                cv = _converted(c, cv, converted)
        elif pending is not None and type(cv) in _MP_TYPES:
            # Fraction op mpmath dispatches to the mpmath operand's
            # reflected operator, which computes cv op convert(v)
            q = _converted(pending, v, converted)
            v = cv + q if is_add else cv * q
            pending = None
            continue
        v = v + cv if is_add else v * cv
        pending = None
    return v


def _converted(node, q, converted):
    m = converted.get(node)
    if m is None:
        m = converted[node] = mpmath.mp.convert(q)
    return m


def evaluate(e, gen_value, cache=None, stats=None):
    """Evaluate the DAG.  ``gen_value`` maps (kind, i, p) to a scalar,
    ``cache`` is a per-point memo shared across expressions.  With
    ``stats`` (numeric points) the addend magnitudes are noted in it;
    without, the exact kernel runs and ``cache`` holds kernel values
    (see ``_evaluate_exact``), not scalars."""
    if cache is None:
        cache = {}
    if stats is None:
        return _from_kernel(_evaluate_exact(e, gen_value, cache))
    converted = {}
    for node in _postorder(e):
        if node in cache:
            continue
        op = node.op
        if op == OP_CONST:
            v = node.args[0]
        elif op == OP_GEN:
            v = gen_value(node.args)
        elif op == OP_POW:
            b, k = node.args
            v = cache[b] ** k
        else:
            v = _fold(node, cache, stats, converted)
        cache[node] = v
    return cache[e]


# ---------------------------------------------------------------------------
# exact evaluation kernel
#
# A Fraction is held as (None, 0, num, den) and a RadicalElem of at most
# one term as (field, mask, num, den), zero as (field, 0, 0, 1), with
# gcd(num, den) == 1.  A negative power swaps num and den, so den may be
# negative; Fraction() restores the sign on the way out.  A node's value
# is formed on these integers and reduced by one gcd when the node is
# finished.  Any other value (a RadicalElem of several terms, an int, an
# mpmath number) stays the scalar it is, and a node that meets one, a
# sum of two masks or a power of an irrational monomial is computed by
# the scalars' own operators, left to right, exactly as the plain fold
# does; so every value, type and coefficient order is the fold's.


def _to_kernel(v):
    t = type(v)
    if t is Fraction:
        return (None, 0, v.numerator, v.denominator)
    if t is RadicalElem:
        coeffs = v.coeffs
        if not coeffs:
            return (v.field, 0, 0, 1)
        if len(coeffs) == 1:
            ((m, c),) = coeffs.items()
            return (v.field, m, c.numerator, c.denominator)
    return v


def _from_kernel(v):
    if type(v) is not tuple:
        return v
    field, m, n, d = v
    if field is None:
        return Fraction(n, d)
    return RadicalElem(field, {m: Fraction(n, d)} if n else {})


def _by_operators(node, cache):
    """The node's value by its operands' own scalar operators."""
    if node.op == OP_POW:
        b, k = node.args
        return _to_kernel(_from_kernel(cache[b]) ** k)
    it = iter(node.args)
    v = _from_kernel(cache[next(it)])
    if node.op == OP_ADD:
        for c in it:
            v = v + _from_kernel(cache[c])
    else:
        for c in it:
            v = v * _from_kernel(cache[c])
    return _to_kernel(v)


def _shared_radicands(field, common, memo):
    """(num, den) of the product of the radicands whose bits are set in
    ``common``: the rational factor two monomials sharing them make."""
    key = (field, common)
    out = memo.get(key)
    if out is None:
        q = Fraction(1)
        for k, r in enumerate(field.radicands):
            if common >> k & 1:
                q *= r
        out = memo[key] = (q.numerator, q.denominator)
    return out


def _evaluate_exact(e, gen_value, cache):
    """The kernel value of e; fills ``cache`` with kernel values."""
    shared = {}
    for node in _postorder(e):
        if node in cache:
            continue
        op = node.op
        if op == OP_CONST:
            q = node.args[0]
            cache[node] = (None, 0, q.numerator, q.denominator)
            continue
        if op == OP_GEN:
            cache[node] = _to_kernel(gen_value(node.args))
            continue
        if op == OP_POW:
            b, k = node.args
            v = cache[b]
            # a zero base to a negative power raises in the operators
            if type(v) is tuple and not v[1] and (v[2] or k >= 0):
                f, _, n, d = v
                if k < 0:
                    n, d, k = d, n, -k
                cache[node] = (f, 0, n ** k, d ** k)
                continue
        else:
            is_add = op == OP_ADD
            it = iter(node.args)
            v = cache[next(it)]
            if type(v) is tuple:
                f, m, n, d = v
                for c in it:
                    w = cache[c]
                    if type(w) is not tuple:
                        break
                    g, m2, n2, d2 = w
                    if g is not f:
                        if f is None:
                            f = g
                        elif g is not None:
                            break  # two fields: the operators raise
                    if is_add:
                        if m2 != m:
                            if not n2:
                                continue
                            if n:
                                break  # two masks: the coefficient order is the operators'
                            m = m2
                        if d2 == d:
                            n += n2
                        else:
                            n = n * d2 + n2 * d
                            d *= d2
                    else:
                        if m & m2:
                            rn, rd = _shared_radicands(f, m & m2, shared)
                            n *= rn
                            d *= rd
                        n *= n2
                        d *= d2
                        m ^= m2
                else:
                    if n:
                        g = gcd(n, d)
                        if g != 1:
                            n //= g
                            d //= g
                        cache[node] = (f, m, n, d)
                    else:
                        cache[node] = (f, 0, 0, 1)
                    continue
        cache[node] = _by_operators(node, cache)
    return cache[e]


# ---------------------------------------------------------------------------
# S-expression round-trip


_CHUNK = 4096  # pieces of dump text joined into one write


def dump(e, write=None):
    """Deterministic S-expression text for the DAG, written out as a
    tree.  With ``write`` the text is passed to it in chunks, in order,
    and nothing is returned; without, the text is returned."""
    if write is None:
        parts = []
        dump(e, parts.append)
        return "".join(parts)
    leaves = {}
    buf = []
    stack = [e]
    while stack:
        item = stack.pop()
        if type(item) is str:
            buf.append(item)
        else:
            op = item.op
            if op == OP_ADD or op == OP_MUL:
                buf.append("(+ " if op == OP_ADD else "(* ")
                stack.append(")")
                args = item.args
                for k in range(len(args) - 1, 0, -1):
                    stack.append(args[k])
                    stack.append(" ")
                stack.append(args[0])
            elif op == OP_POW:
                buf.append("(^ ")
                stack.append(" %d)" % item.args[1])
                stack.append(item.args[0])
            else:
                text = leaves.get(item)
                if text is None:
                    text = leaves[item] = _leaf_text(item)
                buf.append(text)
        if len(buf) >= _CHUNK:
            write("".join(buf))
            buf.clear()
    if buf:
        write("".join(buf))


def _leaf_text(e):
    if e.op == OP_CONST:
        return str(e.args[0])
    kind, i, p = e.args
    name = _GEN_NAMES[kind]
    if kind in (GK_JET, GK_GAMMA):
        return "%s%d.%d" % (name, i, p)
    return "%s%d" % (name, i)


def parse(text):
    """Parse the output of dump back into an interned Expr."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = [0]

    def next_tok():
        t = tokens[pos[0]]
        pos[0] += 1
        return t

    def parse_expr():
        t = next_tok()
        if t == "(":
            op = next_tok()
            items = []
            while tokens[pos[0]] != ")":
                items.append(parse_expr())
            next_tok()
            if op == "+":
                return add(*items)
            if op == "*":
                return mul(*items)
            if op == "^":
                base, k = items
                return pow_(base, const_value(k))
            raise ValueError("bad operator %r" % op)
        if len(t) > 1 and t[0] in "uxhg" and t[1].isdigit():
            name, rest = t[0], t[1:]
            kind = {v: k for k, v in _GEN_NAMES.items()}[name]
            if "." in rest:
                a, b = rest.split(".")
                return gen(kind, int(a), int(b))
            return gen(kind, int(rest))
        return const(Fraction(t))

    e = parse_expr()
    if pos[0] != len(tokens):
        raise ValueError("trailing tokens")
    return e
