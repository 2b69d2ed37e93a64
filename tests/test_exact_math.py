import decimal
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homdual.errors import InputError
from homdual.exact_math import Matrix, _pair, _render, mat_kernel, mat_rref, rat, rat_str


def test_rat_accepts_ints_fractions_strings():
    assert rat(3) == Fraction(3)
    assert rat(Fraction(2, 5)) == Fraction(2, 5)
    assert rat("7") == Fraction(7)
    assert rat("-4/6") == Fraction(-2, 3)
    assert rat(" 1/2 ") == Fraction(1, 2)


def test_rat_rejects_floats_and_garbage():
    for bad in (1.5, "1.5", "x", "", "1/0", None, "3/", [1]):
        with pytest.raises(InputError):
            rat(bad)


def _rat_before_the_zero_literal(value):
    """rat as it was before "0" skipped the regex and an exact str skipped the Fraction
    test: the reference for every literal."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not re.match(r"^-?\d+(/-?\d+)?$", text):
            raise InputError("not a rational literal 'p' or 'p/q': %r" % (value,))
        num, _, den = text.partition("/")
        try:
            if not den:
                return Fraction(int(num))
            num, den = int(num), int(den)
        except ValueError:
            raise InputError(
                "rational literal of %d characters exceeds the %d-digit integer limit"
                % (len(text), sys.get_int_max_str_digits())
            )
        if den == 0:
            raise InputError("zero denominator in rational literal %r" % (value,))
        return Fraction(num, den)
    raise InputError("cannot coerce %r to a rational" % (value,))


def _outcome(parse, value):
    try:
        out = parse(value)
    except InputError as exc:
        return "InputError", str(exc)
    return type(out), out


class _Text(str):
    pass


class _Ratio(Fraction):
    pass


# an exact str is tested first; subclasses, other types and every error keep their path
LITERALS = [
    "0", " 0 ", "-0", "00", "0/5", "0/0", "0.0", "", "0 /5", "+0", 0, False, Fraction(0),
    "1", "-3/6", "1/0", "x", 1.5, None,
    "+1", "1_0", " 7 ", "5\n", "\u0663", _Text("0"), _Text("-4/6"), _Text("y"),
    _Ratio(3, 4), True, 1.0, "9" * 5000, "1/" + "9" * 5000,
]


def test_rat_zero_literal_keeps_the_old_rules():
    for value in LITERALS:
        assert _outcome(rat, value) == _outcome(_rat_before_the_zero_literal, value), value
    assert rat("0") is rat("0")  # one shared zero


def _pair_outcome(value):
    try:
        num, den = _pair(value)
    except InputError as exc:
        return "InputError", str(exc)
    assert den > 0 and math.gcd(num, den) == 1, (value, num, den)
    return type(num), type(den), Fraction(num, den)


def _reference_pair_outcome(value):
    out = _outcome(_rat_before_the_zero_literal, value)
    return out if out[0] == "InputError" else (int, int, out[1])


# the spellings int() takes that the literal rule does not, and their neighbours
PLAIN = ["6/-4", "-6/-4", "2/4", " -12/8\t", "1 /2", "1/ 2", " 1/2 ", "1/2/3", "1//2", "/2", "2/",
         "-/2", "--1", "1/+2", "1/2_0", "\u0663/\u0664", "\uff11\uff12", "\x1c5\x1f", "5\x1c/2",
         "1/\x1c2", "\u20071", "1\u00a0", "\u00a01/3", "1\u2028", "00/7", "-0/-3", "0/-0"]


def test_pair_parser_matches_the_old_rat():
    for value in LITERALS + PLAIN:
        assert _pair_outcome(value) == _reference_pair_outcome(value), value


_LITERAL_CHARS = "0123456789-+/_ \t\n\x1c\u00a0\u2007\u0663\uff15x."


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.text(alphabet=_LITERAL_CHARS, max_size=9)
       | st.from_regex(r"\A\s?-?\d{1,4}(/-?\d{1,4})?\s?\Z"))
def test_pair_parser_matches_the_old_rat_on_drawn_literals(text):
    assert _pair_outcome(text) == _reference_pair_outcome(text)
    assert _outcome(rat, text) == _outcome(_rat_before_the_zero_literal, text)


def test_render_matches_fraction_text():
    for value in (Fraction(0), Fraction(-5), Fraction(6, -4), Fraction(10 ** 40, 3)):
        assert _render(value.numerator, value.denominator) == str(value)


def test_rat_str_canonical():
    assert rat_str(Fraction(4, 2)) == "2"
    assert rat_str(Fraction(-3, 9)) == "-1/3"
    assert rat_str("5/10") == "1/2"


def test_rat_str_renders_past_the_int_digit_limit():
    big = 7 ** 9000  # 7,606 digits, more than str() converts by default
    text = rat_str(big)
    assert len(text) == 7606 and int(decimal.Decimal(text)) == big
    num, den = rat_str(Fraction(-1, big)).split("/")
    assert num == "-1" and int(decimal.Decimal(den)) == big
    num, den = rat_str(Fraction(big, 3)).split("/")
    assert int(decimal.Decimal(num)) == big and den == "3"


def test_rat_rejects_booleans():
    for bad in (True, False):
        with pytest.raises(InputError):
            rat(bad)
    with pytest.raises(InputError):
        Matrix([[True]])


def test_rat_rejects_overlong_literal():
    with pytest.raises(InputError):
        rat("9" * 5000)
    with pytest.raises(InputError):
        rat("1/" + "9" * 5000)
    assert rat("9" * 4000) == 10 ** 4000 - 1


def test_matrix_basic_ops():
    m = Matrix([[1, 2], [3, 4]])
    assert m[(0, 1)] == 2
    assert m.entries[1] == (3, 4)
    assert m.col(0) == [1, 3]
    assert m.transpose() == Matrix([[1, 3], [2, 4]])
    assert Matrix.identity(3).is_identity()
    assert not m.is_identity()
    assert len(mat_rref(m)[1]) == 2  # invertible
    assert len(mat_rref(Matrix([[1, 2], [2, 4]]))[1]) == 1


def test_matrix_shape_errors():
    with pytest.raises(InputError):
        Matrix([[1, 2], [3]])
    with pytest.raises(InputError):
        Matrix([], cols=None)
    with pytest.raises(InputError):
        Matrix([[1, 2]], cols=3)


def test_matrix_immutable():
    m = Matrix([[1]])
    with pytest.raises(AttributeError):
        m.rows = 2


def test_rref_identity():
    red, pivots = mat_rref(Matrix.identity(2))
    assert red == Matrix.identity(2)
    assert pivots == [0, 1]


def test_rref_rank_one():
    red, pivots = mat_rref(Matrix([[2, 4], [1, 2]]))
    assert red == Matrix([[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_zero():
    zero = Matrix([[0] * 3] * 3)
    red, pivots = mat_rref(zero)
    assert red == zero
    assert pivots == []


def test_kernel_identity_empty():
    assert mat_kernel(Matrix.identity(4)) == []


def test_kernel_line():
    basis = mat_kernel(Matrix([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v.col(0) == [Fraction(-1), Fraction(1)]


def test_kernel_full():
    basis = mat_kernel(Matrix([[0] * 3] * 2))
    assert len(basis) == 3


def test_rank_nullity_and_exact_kernel():
    rng = random.Random(20260815)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = Matrix(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)],
            cols=cols,
        )
        _, pivots = mat_rref(m)
        basis = mat_kernel(m)
        assert len(pivots) + len(basis) == cols
        for v in basis:
            x = v.col(0)
            assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in m.entries)


def _fraction_gauss_jordan(m):
    """Gauss-Jordan on Fractions, pivot = first nonzero row from the top: the reference RREF."""
    work = [list(row) for row in m.entries]
    pivots, pivot_row = [], 0
    for col in range(m.cols):
        if pivot_row >= m.rows:
            break
        hit = next((r for r in range(pivot_row, m.rows) if work[r][col] != 0), None)
        if hit is None:
            continue
        work[pivot_row], work[hit] = work[hit], work[pivot_row]
        inv = 1 / work[pivot_row][col]
        work[pivot_row] = [x * inv for x in work[pivot_row]]
        for r in range(m.rows):
            if r != pivot_row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    kernel = []
    for j in range(m.cols):
        if j not in pivots:
            vec = [Fraction(0)] * m.cols
            vec[j] = Fraction(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -work[r][j]
            kernel.append(vec)
    return work, pivots, kernel


def _differential_matrices():
    """Seeded rational matrices up to 8x8: products of lower rank, zero rows and
    columns, entries up to 2^200."""
    rng = random.Random(20261018)
    for trial in range(400):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        bound = (3, 40, 1 << 64, 1 << 200)[trial % 4]

        def entry():
            if rng.random() < 0.3:
                return Fraction(0)
            return Fraction(rng.randint(-bound, bound), rng.randint(1, rng.choice((1, 7, bound))))

        rank = rng.randint(0, min(rows, cols))
        if trial % 2 and rank:
            left = [[entry() for _ in range(rank)] for _ in range(rows)]
            right = [[entry() for _ in range(cols)] for _ in range(rank)]
            grid = [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)]
                    for row in left]
        else:
            grid = [[entry() for _ in range(cols)] for _ in range(rows)]
        if rows and cols and trial % 3 == 0:
            grid[rng.randrange(rows)] = [Fraction(0)] * cols
            zero_col = rng.randrange(cols)
            for row in grid:
                row[zero_col] = Fraction(0)
        yield Matrix(grid, cols=cols)


def test_rref_and_kernel_match_fraction_gauss_jordan():
    deficient = 0
    for m in _differential_matrices():
        want_rows, want_pivots, want_kernel = _fraction_gauss_jordan(m)
        red, pivots = mat_rref(m)
        assert pivots == want_pivots
        assert [list(row) for row in red.entries] == want_rows
        assert all(type(x) is Fraction for row in red.entries for x in row)
        assert [vec.col(0) for vec in mat_kernel(m)] == want_kernel
        deficient += len(pivots) < min(m.rows, m.cols)
    assert deficient > 100
