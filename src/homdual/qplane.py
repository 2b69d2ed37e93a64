"""Exact arithmetic in the twisted quantum plane.

Variables obey yx = qxy; every element is kept in normal form
sum c_{m,n} x^m y^n.  The twist scales a monomial of total degree d by k^d,
and the twisted product of p1 and p2 is twist(p1) twist(p2) under the
classical quantum-plane product; at k = 1 the twist is the identity.

Both products are one fraction-free kernel (_product).  Each factor is
scaled to integers by the lcm of its denominators, and a term of degree d
also by kn^d kd^(E-d), for k = kn/kd and E the factor's top degree (k = 1
for the classical product).  A pair of terms x^a y^b, x^c y^d reads q^(bc)
as qn^(bc) qd^(G-bc), G the largest bc, from a table of powers.  So each
output monomial is one integer sum over one common denominator, then one
Fraction.

Gaussian binomials come from one O(n^2) q-Pascal triangle per call, on
integers: with q = a/b, B(m, i) = binom(m, i)_q b^(i(m-i)) is an integer,
and B(m, i) = b^(m-i) B(m-1, i-1) + a^i B(m-1, i).  Only the row a caller
returns becomes Fractions.
"""

import math
from fractions import Fraction

from .errors import InputError
from .exact_math import _Memo, rat, rat_str


class QParams:
    """Deformation parameters: q for the plane relation, k for the twist."""

    __slots__ = ("q", "k")

    def __init__(self, q, k=1):
        q = rat(q)
        k = rat(k)
        if q == 0:
            raise InputError("q must be nonzero")
        if k == 0:
            raise InputError("k must be nonzero")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value):
        raise AttributeError("QParams is immutable")

    def __eq__(self, other):
        return isinstance(other, QParams) and self.q == other.q and self.k == other.k

    def __hash__(self):
        return hash((self.q, self.k))

    def __repr__(self):
        return "QParams(q=%s, k=%s)" % (rat_str(self.q), rat_str(self.k))


def monomial_str(m, n):
    """Render x^m y^n, e.g. "1", "x", "x*y^2"."""
    parts = []
    if m == 1:
        parts.append("x")
    elif m > 1:
        parts.append("x^%d" % m)
    if n == 1:
        parts.append("y")
    elif n > 1:
        parts.append("y^%d" % n)
    return "*".join(parts) if parts else "1"


class QPoly:
    """Quantum-plane element in normal form: finite map (m, n) -> coefficient."""

    __slots__ = ("params", "terms")

    def __init__(self, params, terms):
        if not isinstance(params, QParams):
            raise InputError("params must be a QParams")
        clean = {}
        for key, coeff in terms.items():
            m, n = key
            if m < 0 or n < 0:
                raise InputError("negative exponent in term (%s, %s)" % (m, n))
            coeff = rat(coeff)
            if coeff != 0:
                clean[(m, n)] = coeff
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def zero(cls, params):
        return cls(params, {})

    @classmethod
    def one(cls, params):
        return cls(params, {(0, 0): Fraction(1)})

    @classmethod
    def monomial(cls, params, m, n, coeff=1):
        return cls(params, {(m, n): rat(coeff)})

    def __eq__(self, other):
        return (
            isinstance(other, QPoly)
            and self.params == other.params
            and self.terms == other.terms
        )

    def __repr__(self):
        return "QPoly(%s)" % format_qpoly(self)


def _same_params(p1, p2):
    if p1.params is not p2.params and p1.params != p2.params:
        raise InputError("parameter mismatch: %r vs %r" % (p1.params, p2.params))


def format_qpoly(p):
    """Render with terms ordered by total degree, then x-degree, descending.

    Examples: "9*x^2 + 27*x*y + 9*y^2", "x - 2*y", "0".
    """
    if not p.terms:
        return "0"
    keys = sorted(p.terms, key=lambda mn: (-(mn[0] + mn[1]), -mn[0]))
    pieces = []
    for idx, key in enumerate(keys):
        coeff = p.terms[key]
        mono = monomial_str(*key)
        mag = abs(coeff)
        if mono == "1":
            body = rat_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%s*%s" % (rat_str(mag), mono)
        if idx == 0:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append((" + " if coeff > 0 else " - ") + body)
    return "".join(pieces)


def normal_order(word, params):
    """Normal form of a word in x and y: q^inversions x^(#x) y^(#y).

    An inversion is a y occurring before an x.  The empty word gives 1.
    """
    ys = 0
    inversions = 0
    xs = 0
    for ch in word:
        if ch == "x":
            xs += 1
            inversions += ys
        elif ch == "y":
            ys += 1
        else:
            raise InputError("word must use letters x and y only, got %r" % (ch,))
    return QPoly.monomial(params, xs, ys, params.q ** inversions)


def _normal(params, terms):
    """QPoly on terms already in normal form, without the checks of QPoly.__init__."""
    p = object.__new__(QPoly)
    object.__setattr__(p, "params", params)
    object.__setattr__(p, "terms", terms)
    return p


def _integer_terms(p, k):
    """p over one denominator, each term of degree d times k^d: ([(a, b, int)], denominator).

    With k = kn/kd and E the top degree of p, k^d = kn^d kd^(E-d) / kd^E.
    """
    top = max(a + b for a, b in p.terms)
    scale = math.lcm(*(c.denominator for c in p.terms.values()))
    kn, kd = k.numerator, k.denominator
    terms = [
        (a, b, c.numerator * (scale // c.denominator) * kn ** (a + b) * kd ** (top - a - b))
        for (a, b), c in p.terms.items()
    ]
    return terms, scale * kd ** top


def _product(p1, p2, k):
    """Classical product of the factors each twisted by k (k = 1: no twist), on integers.

    The factors come over one denominator each (_integer_terms), and a pair of
    terms carries q^(bc) = qn^(bc) qd^(G-bc) / qd^G, G the largest bc, with
    the powers from a table, so every output monomial is one integer sum,
    then one Fraction.
    """
    _same_params(p1, p2)
    params = p1.params
    if not p1.terms or not p2.terms:
        return _normal(params, {})
    t1, den1 = _integer_terms(p1, k)
    t2, den2 = _integer_terms(p2, k)
    qn, qd = params.q.numerator, params.q.denominator
    top = max(b for _, b in p1.terms) * max(c for c, _ in p2.terms)
    qpow = _Memo(lambda g: qn ** g * qd ** (top - g))
    sums = {}
    for a, b, c1 in t1:
        for c, d, c2 in t2:
            key = (a + c, b + d)
            sums[key] = sums.get(key, 0) + c1 * c2 * qpow[b * c]
    den = den1 * den2 * qd ** top
    return _normal(params, {key: Fraction(v, den) for key, v in sums.items() if v})


def classical_product(p1, p2):
    """Bilinear extension of (x^a y^b)(x^c y^d) = q^(bc) x^(a+c) y^(b+d)."""
    return _product(p1, p2, Fraction(1))


def twist(p):
    """Scale each term x^m y^n by k^(m+n); k = 1 returns p itself."""
    k = p.params.k
    if k == 1:
        return p
    kpow = _Memo(lambda d: k ** d)
    return _normal(p.params, {(m, n): c * kpow[m + n] for (m, n), c in p.terms.items()})


def hom_product(p1, p2):
    """Twisted product: classical product of the twists of both factors."""
    return _product(p1, p2, p1.params.k)


def hom_power_left(p, n):
    """Left-nested twisted power: ((p . p) . p) ... with n factors; n = 0 gives 1."""
    if n < 0:
        raise InputError("power must be nonnegative")
    if n == 0:
        return QPoly.one(p.params)
    acc = p
    for _ in range(n - 1):
        acc = hom_product(acc, p)
    return acc


def _qpascal(n, q):
    """Rows 0..n of the integer q-Pascal triangle B(m, i) = binom(m, i)_q b^(i(m-i)), q = a/b.

    B(m, i) = b^(m-i) B(m-1, i-1) + a^i B(m-1, i), with the borders equal
    to 1: O(n^2) integer operations, a^i and b^i computed once.
    """
    apow = [q.numerator ** i for i in range(n + 1)]
    bpow = [q.denominator ** i for i in range(n + 1)]
    rows = [[1]]
    for m in range(1, n + 1):
        prev = rows[-1]
        middle = [bpow[m - i] * prev[i - 1] + apow[i] * prev[i] for i in range(1, m)]
        rows.append([1] + middle + [1])
    return rows


def qbinom(n, i, q):
    """Gaussian binomial at q, via the q-Pascal recurrence.

    binom(n, i) = binom(n-1, i-1) + q^i binom(n-1, i), with the borders
    equal to 1.  Defined for every nonzero q, including roots of unity
    where the q-factorial quotient degenerates to 0/0.
    """
    q = rat(q)
    if q == 0:
        raise InputError("q must be nonzero")
    if i < 0 or n < 0 or i > n:
        raise InputError("need 0 <= i <= n, got (%s, %s)" % (n, i))
    return Fraction(_qpascal(n, q)[n][i], q.denominator ** (i * (n - i)))


def quantum_binomial_expand(n, params):
    """Closed form of the twisted power (x+y)^n.

    sum_i binom(n, i)_q k^((n-1)(n+2)/2) x^i y^(n-i) for n >= 1; the
    empty product is 1, so n = 0 gives the constant 1.
    """
    if n < 0:
        raise InputError("power must be nonnegative")
    if n == 0:
        return QPoly.one(params)
    e = ((n - 1) * (n + 2)) // 2
    kn, kd = params.k.numerator ** e, params.k.denominator ** e
    b = params.q.denominator
    row = _qpascal(n, params.q)[n]
    terms = {(i, n - i): Fraction(c * kn, b ** (i * (n - i)) * kd) for i, c in enumerate(row) if c}
    return _normal(params, terms)


def eval_functional(table, p, params=None):
    """Apply the functional f_{m,n} = f(x^m y^n) stored as a table to p.

    p may be a QPoly or a word in x and y; a word is normal-ordered first
    (params required in that case).  Exponents must lie within the table.
    """
    if isinstance(p, str):
        if params is None:
            raise InputError("evaluating a word needs explicit params")
        p = normal_order(p, params)
    total = Fraction(0)
    for (m, n), coeff in p.terms.items():
        if m > table.M or n > table.N:
            raise InputError(
                "exponent (%d, %d) outside table bounds (%d, %d)" % (m, n, table.M, table.N)
            )
        total += coeff * table.entry(m, n)
    return total
