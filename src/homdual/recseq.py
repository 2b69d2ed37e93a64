"""Twisted binary linearly recursive sequences.

A table (f_{m,n}) is annihilated by a monic bivariate polynomial h(x, y)
through one of three bracketings of the twisted product; each bracketing
yields a recursion stencil.  The recursions here come in two flavors: the
plain displays (generate_sequence, weights in q only) and the fully twisted
path (derive_recursion / generate_sequence_derived) obtained by expanding
the defining annihilation condition with the twisted product itself.
annihilation_residual is the oracle for both, and independent of the
stencils: it applies the twisted product to bracketed monomials, one
monomial of h at a time, so a residual is one fraction-free integer sum over
the |h|+1 entries it reads, with powers of q and k from tables shared by all
cells of a batch.  A cell of the plain fill and of the convolution is such a
sum too, then one reduced integer pair: a BiSequence holds its entries as
integer rows of numerators and denominators, from the document literals
(exact_math._pair) to the report (exact_math._render), and every reader
here works on those rows; Fractions are built only for grid and entry.
The exact searches cost O(len^2) per row
(Berlekamp-Massey), one fraction-free kernel of a cols+1-row prefix taken
along antidiagonals plus O(rows*cols) substitution per bidegree, and one
O(N^2) q-Pascal triangle per convolution.
"""

import math
from collections import namedtuple
from enum import IntEnum
from fractions import Fraction

from .errors import InputError
from .exact_math import Matrix, _Memo, _pair, _reduced, mat_kernel, rat, rat_str
from .qplane import QParams, QPoly, _qpascal, hom_product


class CaseId(IntEnum):
    """Position of h(x, y) inside the bracketed annihilation product."""

    MIDDLE = 1  # (x^(m-r) . h) . y^(n-s)
    RIGHT = 2   # (x^(m-r) . y^(n-s)) . h
    LEFT = 3    # (h . x^(m-r)) . y^(n-s)


class BiPoly:
    """Monic bivariate polynomial h(x, y) = x^r y^s - sum h_{i,j} x^(r-i) y^(s-j).

    coeffs maps (i, j) with 0 <= i <= r, 0 <= j <= s and (i, j) != (0, 0)
    to h_{i,j}; omitted entries are zero.
    """

    def __init__(self, r, s, coeffs):
        if r < 0 or s < 0:
            raise InputError("bidegree must be nonnegative")
        self.r = r
        self.s = s
        self.coeffs = {}
        for (i, j), val in coeffs.items():
            if (i, j) == (0, 0):
                raise InputError("coefficient (0, 0) would break monicity")
            if not (0 <= i <= r and 0 <= j <= s):
                raise InputError("coefficient (%d, %d) outside the (r, s) grid" % (i, j))
            val = rat(val)
            if val != 0:
                self.coeffs[(i, j)] = val

    def __eq__(self, other):
        return (
            isinstance(other, BiPoly)
            and (self.r, self.s) == (other.r, other.s)
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        body = " ".join(
            "h[%d,%d]=%s" % (i, j, rat_str(c)) for (i, j), c in sorted(self.coeffs.items())
        )
        return "BiPoly(r=%d, s=%d%s)" % (self.r, self.s, (" " + body) if body else "")

    def as_qpoly(self, params):
        terms = {(self.r, self.s): Fraction(1)}
        for (i, j), val in self.coeffs.items():  # (i, j) != (0, 0): distinct keys
            terms[(self.r - i, self.s - j)] = -val
        return QPoly(params, terms)


class BiSequence:
    """Fully populated rational table f_{m,n} for 0 <= m <= M, 0 <= n <= N.

    The entries are held as integer rows: f_{m,n} = nums[m][n] / dens[m][n]
    in lowest terms, dens[m][n] > 0.  grid, the same table as rows of
    Fractions, is built on first use.
    """

    __slots__ = ("M", "N", "nums", "dens", "_grid")

    def __init__(self, M, N, grid):
        if M < 0 or N < 0:
            raise InputError("table bounds must be nonnegative")
        if len(grid) != M + 1:
            raise InputError("table must have M+1 rows")
        nums, dens = [], []
        for m, row in enumerate(grid):
            if len(row) != N + 1:
                raise InputError("table row %d must have N+1 entries" % m)
            top, bottom = zip(*[_pair(v) for v in row])
            nums.append(top)
            dens.append(bottom)
        self._set(M, N, nums, dens)

    def _set(self, M, N, nums, dens):
        self.M = M
        self.N = N
        self.nums = tuple(nums)
        self.dens = tuple(dens)
        self._grid = None

    @classmethod
    def _from_pairs(cls, M, N, nums, dens):
        """The table of reduced integer rows nums / dens, taken as they are."""
        table = cls.__new__(cls)
        table._set(M, N, [tuple(row) for row in nums], [tuple(row) for row in dens])
        return table

    @property
    def grid(self):
        if self._grid is None:
            self._grid = tuple(
                tuple([Fraction(a, b) for a, b in zip(top, bottom)])
                for top, bottom in zip(self.nums, self.dens)
            )
        return self._grid

    def _check(self, m, n):
        if not (0 <= m <= self.M and 0 <= n <= self.N):
            raise InputError("entry (%d, %d) outside table bounds" % (m, n))

    def entry(self, m, n):
        self._check(m, n)
        return self.grid[m][n]

    def __eq__(self, other):
        return (
            isinstance(other, BiSequence)
            and (self.M, self.N) == (other.M, other.N)
            and self.nums == other.nums
            and self.dens == other.dens
        )

    def __repr__(self):
        return "BiSequence(M=%d, N=%d)" % (self.M, self.N)


class RecursionStencil(namedtuple("RecursionStencil", "m n coeffs")):
    """Asserted relation f_{m,n} = sum coeffs[(i,j)] f_{m-i,n-j} at a stated cell.

    coeffs holds sorted ((i, j), value) pairs.
    """

    __slots__ = ()

    def as_dict(self):
        return {key: val for key, val in self.coeffs}

    def apply(self, table):
        """Predicted value at (m, n) from earlier table entries."""
        total = Fraction(0)
        for (i, j), val in self.coeffs:
            total += val * table.entry(self.m - i, self.n - j)
        return total


def _stencil(m, n, mapping):
    pairs = tuple(sorted((key, val) for key, val in mapping.items() if val != 0))
    return RecursionStencil(m, n, pairs)


def _boundary_pair(boundary, m, n):
    """The boundary value at (m, n) as a reduced (numerator, denominator) pair."""
    if isinstance(boundary, dict):
        if (m, n) not in boundary:
            raise InputError("missing boundary cell (%d, %d)" % (m, n))
        return _pair(boundary[(m, n)])
    if isinstance(boundary, BiSequence):
        boundary._check(m, n)
        return boundary.nums[m][n], boundary.dens[m][n]
    try:
        value = boundary[m][n]
    except (IndexError, TypeError):
        raise InputError("missing boundary cell (%d, %d)" % (m, n))
    if value is None:
        raise InputError("missing boundary cell (%d, %d)" % (m, n))
    return _pair(value)


def _check_boundary_keys(boundary, r, s, M, N):
    if isinstance(boundary, dict):
        for (m, n) in boundary:
            if not (0 <= m <= M and 0 <= n <= N):
                raise InputError("boundary cell (%d, %d) outside table bounds" % (m, n))
            if m >= r and n >= s:
                raise InputError("boundary value given for interior cell (%d, %d)" % (m, n))


def generate_sequence(h, case, q, boundary, M, N):
    """Fill a table from boundary values using the plain case recursion.

    The recursion weight on h_{i,j} is 1 for the middle bracketing,
    q^(-i(n-s)) for the right one, q^(-j(m-r)) for the left one.  The
    boundary must supply every cell with m < r or n < s.  As in _residuals,
    a cell is one integer sum over the common denominator of h, of the
    weights and of the entries it reads, then one reduced integer pair; the
    powers of the numerator and denominator of q come from tables shared by
    all cells.
    """
    q = rat(q)
    if q == 0:
        raise InputError("q must be nonzero")
    if M < h.r or N < h.s:
        raise InputError("table bounds must reach the leading bidegree")
    _check_boundary_keys(boundary, h.r, h.s, M, N)
    r, s = h.r, h.s
    hscale = math.lcm(*(v.denominator for v in h.coeffs.values()))
    terms = [(i, j, v.numerator * (hscale // v.denominator)) for (i, j), v in h.coeffs.items()]
    qn, qd = (_Memo(lambda e, base=base: base ** e) for base in (q.numerator, q.denominator))
    kind = None
    nums = [[0] * (N + 1) for _ in range(M + 1)]
    dens = [[1] * (N + 1) for _ in range(M + 1)]
    for m in range(M + 1):
        for n in range(N + 1):
            if m < r or n < s:
                nums[m][n], dens[m][n] = _boundary_pair(boundary, m, n)
                continue
            if kind is None:  # the case is read at the first interior cell, if h has terms
                kind = CaseId(case) if terms else CaseId.MIDDLE
            # h_{i,j} weighs q^-(i*a + j*b)
            a = n - s if kind is CaseId.RIGHT else 0
            b = m - r if kind is CaseId.LEFT else 0
            exps = [i * a + j * b for i, j, _ in terms]
            top = max(exps, default=0)
            scale = math.lcm(*[dens[m - i][n - j] for i, j, _ in terms])
            total = 0
            for (i, j, c), e in zip(terms, exps):
                v, d = nums[m - i][n - j], dens[m - i][n - j]
                total += c * v * (scale // d) * qd[e] * qn[top - e]
            # q < 0 makes qn[top] negative: _reduced moves the sign to the numerator
            nums[m][n], dens[m][n] = _reduced(total, hscale * scale * qn[top])
    return BiSequence._from_pairs(M, N, nums, dens)


def _case_expression(h, case, m, n, params):
    """The bracketed twisted product whose vanishing defines the recursion."""
    case = CaseId(case)
    if m < h.r or n < h.s:
        raise InputError("need m >= r and n >= s, got (%d, %d)" % (m, n))
    hp = h.as_qpoly(params)
    xm = QPoly.monomial(params, m - h.r, 0)
    yn = QPoly.monomial(params, 0, n - h.s)
    if case is CaseId.MIDDLE:
        return hom_product(hom_product(xm, hp), yn)
    if case is CaseId.RIGHT:
        return hom_product(hom_product(xm, yn), hp)
    return hom_product(hom_product(hp, xm), yn)


def _hom_monomial(u, v):
    """Twisted product of monomials k^e q^g x^a y^b, as exponent tuples (e, g, a, b).

    The twist scales each factor by k to its degree, and the classical
    product (x^a y^b)(x^c y^d) = q^(bc) x^(a+c) y^(b+d).
    """
    e1, g1, a, b = u
    e2, g2, c, d = v
    return (e1 + e2 + a + b + c + d, g1 + g2 + b * c, a + c, b + d)


def _bracketed(case, xm, yn, u):
    """The case's bracketed product of x^(m-r), y^(n-s) and a monomial u of h."""
    if case is CaseId.MIDDLE:
        return _hom_monomial(_hom_monomial(xm, u), yn)
    if case is CaseId.RIGHT:
        return _hom_monomial(_hom_monomial(xm, yn), u)
    return _hom_monomial(_hom_monomial(u, xm), yn)


def _residuals(f, h, case, cells, q, k):
    """annihilation_residual at every cell, in order; the first bad cell raises.

    Each bracketed product of monomials is one monomial k^e q^g x^a y^b, so
    a residual is sum_t c_t k^(e_t) q^(g_t) f(a_t, b_t) over the |h|+1 terms
    c_t x^i y^j of h.  Over the common denominator of the weights, of h and
    of the |h|+1 entries read, that is one integer sum and one Fraction per
    cell; powers of the numerators and denominators of q and k come from
    tables shared by all cells.
    """
    params = QParams(q, k)
    case = CaseId(case)
    hscale = math.lcm(*(v.denominator for v in h.coeffs.values()))
    terms = [((0, 0), hscale)] + [
        ((i, j), -v.numerator * (hscale // v.denominator)) for (i, j), v in h.coeffs.items()
    ]
    qn, qd, kn, kd = (
        _Memo(lambda e, base=base: base ** e)
        for base in (params.q.numerator, params.q.denominator,
                     params.k.numerator, params.k.denominator)
    )
    nums, dens, r, s = f.nums, f.dens, h.r, h.s
    out = []
    for m, n in cells:
        if m < r or n < s:
            raise InputError("need m >= r and n >= s, got (%d, %d)" % (m, n))
        if m > f.M or n > f.N:
            raise InputError(
                "exponent (%d, %d) outside table bounds (%d, %d)" % (m, n, f.M, f.N)
            )
        xm, yn = (0, 0, m - r, 0), (0, 0, 0, n - s)
        # e and g grow with the exponents of u: the leading x^r y^s has the largest
        top_e, top_g, _, _ = _bracketed(case, xm, yn, (0, 0, r, s))
        scale = math.lcm(*[dens[m - i][n - j] for (i, j), _ in terms])
        total = 0
        for (i, j), c in terms:
            e, g, _, _ = _bracketed(case, xm, yn, (0, 0, r - i, s - j))
            total += (c * nums[m - i][n - j] * (scale // dens[m - i][n - j])
                      * kn[e] * kd[top_e - e] * qn[g] * qd[top_g - g])
        out.append(Fraction(total, hscale * scale * kd[top_e] * qd[top_g]))
    return out


def annihilation_residual(f, h, case, m, n, q, k):
    """Oracle: evaluate f on the case's bracketed product at (m, n).

    Every q- and k-factor comes from the definitions of the twist and the
    plane relation, applied to one monomial of h at a time (_residuals);
    a zero residual certifies the recursion at that cell.  It shares no
    code with the stencils of derive_recursion.
    """
    return _residuals(f, h, case, [(m, n)], q, k)[0]


def derive_recursion(h, case, m, n, q, k):
    """Recursion stencil from the annihilation condition at general k.

    Expands the case's bracketed product and divides by the coefficient of
    x^m y^n (a nonzero monomial in q and k).  At k = 1 this reproduces the
    plain case weights.
    """
    expr = _case_expression(h, case, m, n, QParams(q, k))
    lead = expr.terms.get((m, n))
    if lead is None:
        raise InputError("leading coefficient vanished; not a monic annihilation")
    mapping = {}
    for (a, b), coeff in expr.terms.items():
        if (a, b) == (m, n):
            continue
        mapping[(m - a, n - b)] = -coeff / lead
    return _stencil(m, n, mapping)


def generate_sequence_derived(h, case, q, k, boundary, M, N):
    """Fill a table with the fully twisted stencil of derive_recursion."""
    params = QParams(q, k)
    if M < h.r or N < h.s:
        raise InputError("table bounds must reach the leading bidegree")
    _check_boundary_keys(boundary, h.r, h.s, M, N)
    grid = [[None] * (N + 1) for _ in range(M + 1)]
    for m in range(M + 1):
        for n in range(N + 1):
            if m < h.r or n < h.s:
                grid[m][n] = Fraction(*_boundary_pair(boundary, m, n))
            else:
                stencil = derive_recursion(h, case, m, n, params.q, params.k)
                total = Fraction(0)
                for (i, j), val in stencil.coeffs:
                    total += val * grid[m - i][n - j]
                grid[m][n] = total
    return BiSequence(M, N, grid)


def quantum_convolution(f, g, q, M, N):
    """Gaussian-binomial convolution of two tables on an (M, N) window.

    h_{m,n} = sum_{0<=t<=n} binom(n,t)_q f_{m+t,n-t} g_{m,t}; f must extend
    to (M+N, N) and g to (M, N).
    """
    q = rat(q)
    if q == 0:
        raise InputError("q must be nonzero")
    if f.M < M + N or f.N < N:
        raise InputError("first table must extend to (M+N, N) = (%d, %d)" % (M + N, N))
    if g.M < M or g.N < N:
        raise InputError("second table must extend to (M, N) = (%d, %d)" % (M, N))
    # row n of the integer q-Pascal triangle over b^floor(n^2/4), q = a/b: each cell
    # is one integer sum over the denominators of its binomial row and entries
    b = q.denominator
    binom = []
    for n, row in enumerate(_qpascal(N, q)):
        top = n * n // 4
        binom.append(([c * b ** (top - i * (n - i)) for i, c in enumerate(row)], b ** top))
    nums, dens = [], []
    for m in range(M + 1):
        gnum, gden = g.nums[m], g.dens[m]
        top, bottom = [], []
        for n in range(N + 1):
            coeffs, bscale = binom[n]
            fnum = [f.nums[m + t][n - t] for t in range(n + 1)]
            fden = [f.dens[m + t][n - t] for t in range(n + 1)]
            fscale, gscale = math.lcm(*fden), math.lcm(*gden[: n + 1])
            total = 0
            for c, u, du, v, dv in zip(coeffs, fnum, fden, gnum, gden):
                total += c * u * (fscale // du) * v * (gscale // dv)
            num, den = _reduced(total, bscale * fscale * gscale)
            top.append(num)
            bottom.append(den)
        nums.append(top)
        dens.append(bottom)
    return BiSequence._from_pairs(M, N, nums, dens)


def _bidegree_candidates(rmax, smax):
    for total in range(rmax + smax + 1):
        for r in range(min(total, rmax) + 1):
            s = total - r
            if s <= smax:
                yield (r, s)


def _integral(values):
    """Fractions times their common denominator, as ints."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _scaled(nums, dens, scale):
    """Integer entries times scale, a common multiple of their denominators."""
    return [a * (scale // b) for a, b in zip(nums, dens)]


def _certified_kernel(rows, cols):
    """mat_kernel(rows), solved on a prefix and certified on the other rows.

    The prefix kernel contains the full one; if every later row vanishes on
    its basis the kernels, hence the row spaces, RREFs and mat_kernel bases,
    are equal.  Otherwise the prefix doubles, up to the whole system.
    """
    size = cols + 1
    while True:
        kernel = mat_kernel(Matrix(rows[:size], cols=cols))
        vectors = [_integral(vec.col(0)) for vec in kernel]
        if size >= len(rows) or all(
            sum(a * x for a, x in zip(row, v)) == 0 for row in rows[size:] for v in vectors
        ):
            return kernel
        size *= 2


def minimal_bipoly(f, rmax, smax):
    """Smallest monic annihilator of a table, or None.

    Bidegrees are searched by increasing r+s with ties broken by smaller r.
    For each candidate the annihilation equations over every interior cell
    form an exact linear system solved through the (prefix-certified)
    kernel; the first kernel basis vector with a nonzero inhomogeneous
    coordinate gives the coefficients.  Returns (r, s, BiPoly).
    """
    if rmax < 0 or smax < 0:
        raise InputError("degree bounds must be nonnegative, got (%d, %d)" % (rmax, smax))
    if f.M < 2 * rmax or f.N < 2 * smax:
        raise InputError(
            "table too small: need M >= %d and N >= %d" % (2 * rmax, 2 * smax)
        )
    scale = math.lcm(*[b for row in f.dens for b in row])
    grid = [_scaled(a, b, scale) for a, b in zip(f.nums, f.dens)]  # integer rows, same kernels
    for r, s in _bidegree_candidates(rmax, smax):
        positions = [
            (i, j) for i in range(r + 1) for j in range(s + 1) if (i, j) != (0, 0)
        ]
        # equations by antidiagonals out of the corner (r, s): a kernel prefix
        # spans table rows and columns alike, where the equations of one table
        # row are often rank-deficient, and it reads the smallest entries
        rows = []
        for total in range(r + s, f.M + f.N + 1):
            for m in range(max(r, total - f.N), min(f.M, total - s) + 1):
                n = total - m
                row = [grid[m - i][n - j] for (i, j) in positions]
                row.append(-grid[m][n])
                rows.append(row)
        for vec in _certified_kernel(rows, len(positions) + 1):
            t = vec[(len(positions), 0)]
            if t != 0:
                coeffs = {
                    positions[idx]: vec[(idx, 0)] / t for idx in range(len(positions))
                }
                return (r, s, BiPoly(r, s, coeffs))
    return None


class UniPoly:
    """Monic univariate annihilator x^d - sum c_i x^(d-i) of a sequence."""

    def __init__(self, degree, coeffs):
        self.degree = degree
        self.coeffs = [rat(c) for c in coeffs]
        if len(self.coeffs) != degree:
            raise InputError("need one coefficient per lower degree")

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return "UniPoly(%s)" % format_unipoly(self)


def format_unipoly(p):
    """Render like "x^2 - x - 1"."""

    def power(e):
        if e == 0:
            return "1"
        if e == 1:
            return "x"
        return "x^%d" % e

    pieces = [power(p.degree)]
    for i, c in enumerate(p.coeffs, start=1):
        if c == 0:
            continue
        mag = abs(c)
        mono = power(p.degree - i)
        if mono == "1":
            body = rat_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%s*%s" % (rat_str(mag), mono)
        pieces.append((" - " if c > 0 else " + ") + body)
    return "".join(pieces)


def _min_univariate(nums, dens, dmax):
    """Minimal monic annihilator of the sequence nums / dens up to degree dmax.

    Fraction-free Berlekamp-Massey (Massey 1969) on the integer-scaled
    sequence tracks the linear complexity L and a primitive integer multiple
    of conn = 1 - c_1 x - ... - c_L x^L (s_p = sum c_i s_(p-i), L <= p < len).
    L never decreases, so it stops once L > dmax.  If 2L <= len (always so for
    dmax <= len/2) the annihilator is unique: the one a kernel solve gives.
    """
    seq = _scaled(nums, dens, math.lcm(*dens))
    conn, prev = [1], [1]
    length, gap, prev_disc = 0, 1, 1
    for n in range(len(seq)):
        disc = sum(conn[i] * seq[n - i] for i in range(length + 1))
        if disc == 0:
            gap += 1
            continue
        new = [prev_disc * c for c in conn] + [0] * (gap + len(prev) - len(conn))
        for i, b in enumerate(prev):
            new[gap + i] -= disc * b
        content = math.gcd(*new)
        new = [c // content for c in new]
        if 2 * length <= n:
            prev, prev_disc, length, gap = conn, disc, n + 1 - length, 1
            if length > dmax:
                return None
        else:
            gap += 1
        conn = new
    return UniPoly(length, [Fraction(-c, conn[0]) for c in conn[1:]])


def row_minimal_polys(f, max_degree=None):
    """Per-row minimal annihilators in each direction.

    Returns (x_polys, y_polys): x_polys[n] annihilates m -> f_{m,n}, and
    y_polys[m] annihilates n -> f_{m,n}.  Rows too short for the requested
    degree bound raise; entries are None when no annihilator exists within
    the bound.  Each row costs one O(len^2) Berlekamp-Massey pass.
    """
    if max_degree is not None and max_degree < 0:
        raise InputError("degree bound must be nonnegative, got %d" % max_degree)
    x_bound = (f.M + 1) // 2 if max_degree is None else max_degree
    y_bound = (f.N + 1) // 2 if max_degree is None else max_degree
    if f.M + 1 < 2 * x_bound or f.N + 1 < 2 * y_bound:
        raise InputError("table too small for degree bound %d" % max_degree)
    x_polys = [
        _min_univariate(top, bottom, x_bound)
        for top, bottom in zip(zip(*f.nums), zip(*f.dens))
    ]
    y_polys = [
        _min_univariate(top, bottom, y_bound) for top, bottom in zip(f.nums, f.dens)
    ]
    return x_polys, y_polys
