"""Exact arithmetic in the twisted quantum plane.

Variables obey yx = qxy; every element is kept in normal form
sum c_{m,n} x^m y^n.  The twist scales a monomial of total degree d by k^d,
and the twisted product of p1 and p2 is twist(p1) twist(p2) under the
classical quantum-plane product.  A product or twist computes each power
q^e and k^d once per call, and builds its result without re-normalising
coefficients that are already nonzero Fractions; at k = 1 the twist is the
identity.  Gaussian binomials are read from one O(n^2) q-Pascal triangle
per call.
"""

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
    if p1.params != p2.params:
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


def classical_product(p1, p2):
    """Bilinear extension of (x^a y^b)(x^c y^d) = q^(bc) x^(a+c) y^(b+d)."""
    _same_params(p1, p2)
    q = p1.params.q
    qpow = None if q == 1 else _Memo(lambda e: q ** e)
    terms = {}
    for (a, b), c1 in p1.terms.items():
        for (c, d), c2 in p2.terms.items():
            key = (a + c, b + d)
            add = c1 * c2
            if qpow is not None and b and c:
                add *= qpow[b * c]
            old = terms.get(key)
            new = add if old is None else old + add
            if new:
                terms[key] = new
            else:
                del terms[key]
    return _normal(p1.params, terms)


def twist(p):
    """Scale each term x^m y^n by k^(m+n); k = 1 returns p itself."""
    k = p.params.k
    if k == 1:
        return p
    kpow = _Memo(lambda d: k ** d)
    return _normal(p.params, {(m, n): c * kpow[m + n] for (m, n), c in p.terms.items()})


def hom_product(p1, p2):
    """Twisted product: classical product of the twists of both factors."""
    return classical_product(twist(p1), twist(p2))


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
    """Rows 0..n of the q-Pascal triangle: O(n^2) additions, q^j computed once."""
    powers = [q ** j for j in range(n + 1)]
    rows = [[Fraction(1)]]
    for size in range(1, n + 1):
        prev = rows[-1]
        middle = [prev[j - 1] + powers[j] * prev[j] for j in range(1, size)]
        rows.append([Fraction(1)] + middle + [Fraction(1)])
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
    return _qpascal(n, q)[n][i]


def quantum_binomial_expand(n, params):
    """Closed form of the twisted power (x+y)^n.

    sum_i binom(n, i)_q k^((n-1)(n+2)/2) x^i y^(n-i) for n >= 1; the
    empty product is 1, so n = 0 gives the constant 1.
    """
    if n < 0:
        raise InputError("power must be nonnegative")
    if n == 0:
        return QPoly.one(params)
    kpow = params.k ** (((n - 1) * (n + 2)) // 2)
    row = _qpascal(n, params.q)[n]
    terms = {(i, n - i): row[i] * kpow for i in range(n + 1)}
    return QPoly(params, terms)


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
