"""Exact rational scalars and dense rational linear algebra (RREF, kernel).

Matrices hold Fractions; mat_rref eliminates fraction-free, on integers.
A literal parses to a reduced (numerator, denominator) pair first
(_pair), and a pair renders back to canonical text (_render): rat and
rat_str are these plus a Fraction, and tables that stay on integers
(recseq.BiSequence) use the pairs alone.
"""

import decimal
import math
import re
import sys
from fractions import Fraction

from .errors import InputError

# The scalar field: arbitrary-precision rationals in canonical form
# (positive denominator, gcd(num, den) = 1). fractions.Fraction already
# guarantees both invariants.
Rational = Fraction

_RAT_RE = re.compile(r"^-?\d+(/-?\d+)?$")
_ZERO = Fraction(0)  # what the literal "0", the commonest entry of a document, parses to


def _reduced(num, den):
    """num/den in lowest terms with a positive denominator; den must be nonzero."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _pair(value):
    """(numerator, denominator) of what rat(value) would return, without the Fraction.

    Reduced, denominator > 0.  A str that int() takes as it stands (no "+",
    no "_", no space around the "/") skips the regex: int() then accepts
    exactly what the regex does.  Every other str, and every refusal, goes
    the regex way, so the errors and their order are rat's.
    """
    if type(value) is str:
        if "+" not in value and "_" not in value:
            num, slash, den = value.partition("/")
            try:
                if not slash:
                    return int(value), 1
                if not (num[-1:].isspace() or den[:1].isspace()):
                    num, den = int(num), int(den)
                    if den:
                        return _reduced(num, den)
            except ValueError:  # not a plain literal, or past the digit limit
                pass
    elif isinstance(value, Fraction):
        return value.numerator, value.denominator
    elif isinstance(value, int) and not isinstance(value, bool):
        return int(value), 1
    elif not isinstance(value, str):
        raise InputError("cannot coerce %r to a rational" % (value,))
    text = value.strip()
    if not _RAT_RE.match(text):
        raise InputError("not a rational literal 'p' or 'p/q': %r" % (value,))
    num, _, den = text.partition("/")
    try:
        if not den:
            return int(num), 1
        num, den = int(num), int(den)
    except ValueError:  # past the interpreter's int-from-str digit limit
        raise InputError(
            "rational literal of %d characters exceeds the %d-digit integer limit"
            % (len(text), sys.get_int_max_str_digits())
        )
    if den == 0:
        raise InputError("zero denominator in rational literal %r" % (value,))
    return _reduced(num, den)


def rat(value):
    """Coerce ints, Fractions and "p/q" strings to an exact Rational.

    Floats are rejected: every scalar in this library is exact.  So are
    booleans, although Python counts them as ints.
    """
    if type(value) is str:
        if value == "0":
            return _ZERO
    elif isinstance(value, Fraction):
        return value
    elif isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    num, den = _pair(value)
    return Fraction(num) if den == 1 else Fraction(num, den)


def _render(num, den):
    """The canonical text of num/den, given in lowest terms with den > 0."""
    try:
        return str(num) if den == 1 else "%d/%d" % (num, den)
    except ValueError:  # past the interpreter's int-to-str digit limit; Decimal has none
        num, den = str(decimal.Decimal(num)), str(decimal.Decimal(den))
        return num if den == "1" else "%s/%s" % (num, den)


def rat_str(value):
    """Render a Rational of any size as "p/q", or "p" when the denominator is 1."""
    f = rat(value)
    return _render(f.numerator, f.denominator)


class _Memo(dict):
    """f(key), computed on first use and then read back: e.g. a table of powers.

    Owned by one call or one quotient, never by the module, so it holds only
    the keys its owner asks for.
    """

    __slots__ = ("f",)

    def __init__(self, f):
        super().__init__()
        self.f = f

    def __missing__(self, key):
        value = self[key] = self.f(key)
        return value


class Matrix:
    """Immutable dense matrix of Rationals, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        rows = [tuple([rat(x) for x in row]) for row in entries]
        if rows:
            width = len(rows[0])
            for row in rows:
                if len(row) != width:
                    raise InputError("ragged matrix rows")
        else:
            if cols is None:
                raise InputError("empty matrix needs an explicit column count")
            width = cols
        if cols is not None and cols != width:
            raise InputError("cols=%d does not match row width %d" % (cols, width))
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, vec):
        """Column vector from a list of scalars."""
        return cls([[x] for x in vec], cols=1)

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(rat_str(x) for x in row) for row in self.entries
        )
        return "Matrix(%dx%d: %s)" % (self.rows, self.cols, body)

    def col(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def transpose(self):
        return Matrix([self.col(j) for j in range(self.cols)], cols=self.rows)

    def is_identity(self):
        if self.rows != self.cols:
            return False
        return all(
            self.entries[i][j] == (1 if i == j else 0)
            for i in range(self.rows)
            for j in range(self.cols)
        )


def mat_rref(m):
    """Reduced row echelon form. Returns (rref matrix, strictly increasing pivot column list).

    Pivot choice is deterministic: the first row (top down) with a nonzero
    entry in the current column.  Elimination is fraction-free Gauss-Jordan
    (Bareiss 1968): each row is scaled to integers by its own denominator
    lcm, which keeps the RREF, and every other row becomes
    (p*row - f*pivot_row) / prev, p the new pivot and prev the one before,
    an exact division since every entry is a minor of the scaled matrix.
    Pivot rows are divided by their pivot only when the result is built.
    """
    work = []
    for row in m.entries:
        scale = math.lcm(*(x.denominator for x in row))
        work.append([x.numerator * (scale // x.denominator) for x in row])
    pivots = []
    pivot_row, prev = 0, 1
    for col in range(m.cols):
        if pivot_row >= m.rows:
            break
        hit = None
        for r in range(pivot_row, m.rows):
            if work[r][col] != 0:
                hit = r
                break
        if hit is None:
            continue
        work[pivot_row], work[hit] = work[hit], work[pivot_row]
        top = work[pivot_row]
        p = top[col]
        for r in range(m.rows):
            if r != pivot_row:
                f = work[r][col]
                work[r] = [(p * a - f * b) // prev for a, b in zip(work[r], top)]
        pivots.append(col)
        pivot_row, prev = pivot_row + 1, p
    rows = [
        [Fraction(a, row[col]) if a else _ZERO for a in row]
        for row, col in zip(work, pivots)
    ]
    rows += [[_ZERO] * m.cols for _ in range(m.rows - len(pivots))]
    return Matrix(rows, cols=m.cols), pivots


def mat_kernel(m):
    """Exact basis of the right null space, one column vector per free column.

    Each free column j yields the vector with 1 at j and -rref[r][j] at the
    pivot column of row r; basis vectors are ordered by increasing j.
    """
    red, pivots = mat_rref(m)
    pivot_set = set(pivots)
    basis = []
    for j in range(m.cols):
        if j in pivot_set:
            continue
        vec = [Fraction(0)] * m.cols
        vec[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red.entries[r][j]
        basis.append(Matrix.column(vec))
    return basis
