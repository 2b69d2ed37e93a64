"""Bivariate recursions: generation, oracles, stencils, minimal annihilators."""

import math
import random
from fractions import Fraction

import pytest

from homdual import recseq
from homdual.errors import InputError
from homdual.exact_math import Matrix, mat_kernel, rat
from homdual.qplane import QParams, eval_functional, qbinom, quantum_binomial_expand
from homdual.recseq import (
    BiPoly,
    BiSequence,
    CaseId,
    UniPoly,
    annihilation_residual,
    derive_recursion,
    format_unipoly,
    generate_sequence,
    generate_sequence_derived,
    minimal_bipoly,
    quantum_convolution,
    row_minimal_polys,
)

DELANNOY_H = BiPoly(1, 1, {(1, 0): 1, (0, 1): 1, (1, 1): 1})


def ones_boundary(r, s, M, N):
    return {(m, n): 1 for m in range(M + 1) for n in range(N + 1) if m < r or n < s}


def table_of(fn, M, N):
    """The table fn(m, n) for 0 <= m <= M, 0 <= n <= N."""
    return BiSequence(M, N, [[fn(m, n) for n in range(N + 1)] for m in range(M + 1)])


def constant_table(value, M, N):
    return table_of(lambda m, n: value, M, N)


def delannoy_table(M, N):
    return generate_sequence(DELANNOY_H, 1, 1, ones_boundary(1, 1, M, N), M, N)


def delannoy_closed_form(m, n):
    # independent route: D(m, n) = sum_t C(m,t) C(n,t) 2^t
    return sum(math.comb(m, t) * math.comb(n, t) * 2 ** t for t in range(min(m, n) + 1))


# ------------------------------------------------------------------- types


def test_bipoly_validation():
    with pytest.raises(InputError):
        BiPoly(1, 1, {(0, 0): 1})
    with pytest.raises(InputError):
        BiPoly(1, 1, {(2, 0): 1})
    with pytest.raises(InputError):
        BiPoly(-1, 0, {})
    h = BiPoly(2, 1, {(1, 0): 0, (2, 1): 5})
    assert h.coeffs == {(2, 1): 5}


def test_bisequence_validation():
    with pytest.raises(InputError):
        BiSequence(1, 1, [[1, 2]])
    with pytest.raises(InputError):
        BiSequence(1, 1, [[1, 2], [3]])
    t = table_of(lambda m, n: m * n, 2, 3)
    assert t.entry(2, 3) == 6
    with pytest.raises(InputError):
        t.entry(3, 0)


def assert_canonical(table):
    """Reduced integer rows with positive denominators, and grid their Fraction view."""
    for top, bottom in zip(table.nums, table.dens):
        assert all(type(a) is int and type(b) is int and b > 0 and math.gcd(a, b) == 1
                   for a, b in zip(top, bottom))
    want = tuple(tuple(Fraction(a, b) for a, b in zip(top, bottom))
                 for top, bottom in zip(table.nums, table.dens))
    assert type(table.grid) is tuple and table.grid == want
    assert all(type(row) is tuple and all(type(v) is Fraction for v in row) for row in table.grid)


def test_bisequence_holds_reduced_pairs_of_its_literals():
    rows = [["2/4", "-0", "6/-4", " 7 "], ["\u0663", Fraction(3, 9), -12, "-10/-4"]]
    t = BiSequence(1, 3, rows)
    assert t.nums == ((1, 0, -3, 7), (3, 1, -12, 5)) and t.dens == ((2, 1, 2, 1), (1, 3, 1, 2))
    assert t.grid == tuple(tuple(rat(v) for v in row) for row in rows)
    assert_canonical(t)
    assert t == BiSequence(1, 3, t.grid) and t != BiSequence(1, 3, [[0] * 4, [0] * 4])


# -------------------------------------------------------------- generation


def test_delannoy_values():
    t = delannoy_table(3, 3)
    assert t.entry(1, 1) == 3
    assert t.entry(2, 2) == 13
    assert t.entry(3, 3) == 63


def test_delannoy_against_closed_form():
    t = delannoy_table(7, 7)
    for m in range(8):
        for n in range(8):
            assert t.entry(m, n) == delannoy_closed_form(m, n)


def test_case2_and_case3_examples():
    bd = ones_boundary(1, 1, 2, 3)
    t2 = generate_sequence(DELANNOY_H, 2, 2, bd, 2, 3)
    assert t2.entry(1, 1) == 3  # n - s = 0 collapses to case 1
    assert t2.entry(1, 2) == Fraction(1, 2) + 3 + Fraction(1, 2)
    t3 = generate_sequence(DELANNOY_H, 3, 2, bd, 2, 3)
    assert t3.entry(1, 1) == 3
    assert t3.entry(2, 1) == 3 + Fraction(1, 2) + Fraction(1, 2)


def test_boundary_errors():
    with pytest.raises(InputError):
        generate_sequence(DELANNOY_H, 1, 1, {(0, 0): 1}, 2, 2)
    bad = dict(ones_boundary(1, 1, 2, 2))
    bad[(1, 1)] = 5
    with pytest.raises(InputError):
        generate_sequence(DELANNOY_H, 1, 1, bad, 2, 2)
    with pytest.raises(InputError):
        generate_sequence(DELANNOY_H, 1, 1, ones_boundary(1, 1, 2, 2), 0, 2)


def test_boundary_shapes():
    bd_rows = [[1, 1, 1], [1, None, None], [1, None, None]]
    t = generate_sequence(DELANNOY_H, 1, 1, bd_rows, 2, 2)
    assert t.entry(2, 2) == 13
    bd_table = constant_table(1, 2, 2)
    t2 = generate_sequence(DELANNOY_H, 1, 1, bd_table, 2, 2)
    assert t2.entry(2, 2) == 13


def reference_generate_sequence(h, case, q, boundary, M, N):
    """The plain fill summed on Fractions, a q ** -e per term per cell: the reference."""
    q = rat(q)
    if q == 0:
        raise InputError("q must be nonzero")
    if M < h.r or N < h.s:
        raise InputError("table bounds must reach the leading bidegree")
    recseq._check_boundary_keys(boundary, h.r, h.s, M, N)
    grid = [[None] * (N + 1) for _ in range(M + 1)]
    for m in range(M + 1):
        for n in range(N + 1):
            if m < h.r or n < h.s:
                grid[m][n] = Fraction(*recseq._boundary_pair(boundary, m, n))
                continue
            total = Fraction(0)
            for (i, j), val in h.coeffs.items():
                e = {CaseId.MIDDLE: 0, CaseId.RIGHT: i * (n - h.s), CaseId.LEFT: j * (m - h.r)}
                total += q ** -e[CaseId(case)] * val * grid[m - i][n - j]
            grid[m][n] = total
    return BiSequence(M, N, grid)


FILL_QS = (1, -1, 2, Fraction(5, 3), Fraction(-1, 2))


def fill_inputs():
    """Seeded (h, rational boundary, M, N); the last h has no terms, so its case is never read."""
    rng = random.Random(20261021)
    values = (0, 0, 1, -2, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4), "3/9")
    for r, s, density in ((0, 1, 1), (1, 0, 1), (1, 1, 1), (2, 1, 0.7), (1, 3, 0.7),
                          (3, 2, 0.7), (2, 2, 0.5), (2, 2, 0)):
        coeffs = {(i, j): rng.choice(values[2:]) for i in range(r + 1) for j in range(s + 1)
                  if (i, j) != (0, 0) and rng.random() < density}
        M, N = r + rng.randint(0, 4), s + rng.randint(0, 4)
        boundary = {key: rng.choice(values) for key in ones_boundary(r, s, M, N)}
        yield BiPoly(r, s, coeffs), boundary, M, N


def test_generate_sequence_matches_fraction_fill():
    compared = 0
    for h, boundary, M, N in fill_inputs():
        for case in (1, 2, 3):
            for q in FILL_QS:
                want = reference_generate_sequence(h, case, q, boundary, M, N)
                got = generate_sequence(h, case, q, boundary, M, N)
                assert got == want
                assert_canonical(got)  # q < 0 gives negative raw denominators
                compared += 1
        # every refusal keeps its type, message and order
        last = (M, 0) if h.s else (h.r - 1, N)
        variants = [(case, q, boundary, M, N) for case in (0, 4, "1", CaseId.LEFT, True)
                    for q in (0, "x", 2)]
        variants += [
            (2, 2, {**boundary, (h.r, h.s): 1}, M, N),
            (3, 2, {key: v for key, v in boundary.items() if key != last}, M, N),
            (4, 2, {key: v for key, v in boundary.items() if key != last}, M, N),
            (1, 2, {**boundary, (M + 1, 0): 1}, M, N),
            (1, 2, {**boundary, last: "1/0"}, M, N),
            (4, 2, {**boundary, last: "x"}, M, N),
            (2, Fraction(5, 3), boundary, h.r - 1, N),
        ]
        for case, q, cells, rows, cols in variants:
            assert outcome(lambda: generate_sequence(h, case, q, cells, rows, cols)) == outcome(
                lambda: reference_generate_sequence(h, case, q, cells, rows, cols)
            )
    assert compared == 8 * 3 * len(FILL_QS)


# ------------------------------------------------------------------ oracle


def test_residual_zero_on_generated_tables():
    rng = random.Random(20260815)
    for case in (1, 2, 3):
        for q in (1, 2, Fraction(5, 3)):
            r = rng.randint(1, 2)
            s = rng.randint(1, 2)
            coeffs = {}
            for i in range(r + 1):
                for j in range(s + 1):
                    if (i, j) != (0, 0):
                        coeffs[(i, j)] = Fraction(rng.randint(-3, 3))
            h = BiPoly(r, s, coeffs)
            boundary = {
                key: Fraction(rng.randint(-5, 5))
                for key in ones_boundary(r, s, 6, 6)
            }
            table = generate_sequence(h, case, q, boundary, 6, 6)
            for m in range(r, 7):
                for n in range(s, 7):
                    assert annihilation_residual(table, h, case, m, n, q, 1) == 0


def test_residual_detects_perturbation():
    t = delannoy_table(4, 4)
    grid = [list(row) for row in t.grid]
    grid[2][2] += 1
    bad = BiSequence(4, 4, grid)
    assert annihilation_residual(bad, DELANNOY_H, 1, 2, 2, 1, 1) != 0


def test_case1_table_fails_at_twisted_k():
    t = delannoy_table(2, 2)
    assert annihilation_residual(t, DELANNOY_H, 1, 1, 1, 1, 2) != 0


def test_residual_requires_interior_cell():
    t = delannoy_table(2, 2)
    with pytest.raises(InputError):
        annihilation_residual(t, DELANNOY_H, 1, 0, 1, 1, 1)


def expanded_residual(f, h, case, m, n, q, k):
    """Reference: both polynomial hom_products of the bracketing, then the functional."""
    return eval_functional(f, recseq._case_expression(h, case, m, n, QParams(q, k)))


def outcome(thunk):
    """The value, or the exception's type and message."""
    try:
        return thunk()
    except ValueError as exc:
        return (type(exc), str(exc))


ORACLE_QK = ((1, 1), (-1, 1), (2, -1), (Fraction(-1, 2), Fraction(3, 2)),
             (Fraction(5, 3), Fraction(-2, 3)), ("7/5", "-3/4"), ("-3/4", 1), (1, "7/5"))


def oracle_inputs():
    """Seeded (h, table) pairs, r, s <= 3, tables with rational and zero entries."""
    rng = random.Random(20261019)
    values = (0, 0, 1, -2, 3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4))
    for r, s in ((0, 0), (0, 2), (1, 1), (2, 1), (1, 3), (3, 2), (3, 3)) * 2:
        coeffs = {(i, j): rng.choice(values) for i in range(r + 1) for j in range(s + 1)
                  if (i, j) != (0, 0)}
        M, N = r + rng.randint(0, 3), s + rng.randint(0, 3)
        yield BiPoly(r, s, coeffs), table_of(lambda m, n: rng.choice(values), M, N)


def test_residual_batch_matches_expanded_products():
    compared = failed = 0
    for h, table in oracle_inputs():
        window = [(m, n) for m in range(h.r - 1, table.M + 2) for n in range(h.s - 1, table.N + 2)]
        for case in (1, 2, 3):
            for q, k in ORACLE_QK:
                want = [outcome(lambda m=m, n=n: expanded_residual(table, h, case, m, n, q, k))
                        for m, n in window]
                got = [outcome(lambda m=m, n=n: annihilation_residual(table, h, case, m, n, q, k))
                       for m, n in window]
                assert got == want
                assert all(type(v) is Fraction for v in got if not isinstance(v, tuple))
                good = [cell for cell, v in zip(window, want) if not isinstance(v, tuple)]
                assert recseq._residuals(table, h, case, good, q, k) == [
                    v for v in want if not isinstance(v, tuple)
                ]
                # the whole window stops at its first bad cell, with that cell's error
                first_bad = next(v for v in want if isinstance(v, tuple))
                assert outcome(lambda: recseq._residuals(table, h, case, window, q, k)) == first_bad
                compared += len(window)
                failed += len(window) - len(good)
    assert compared > 5000 and failed > 1000


def test_residual_errors_come_in_the_order_of_the_expanded_products():
    h, table = BiPoly(1, 1, {(1, 1): 2}), constant_table(Fraction(1, 3), 3, 3)
    for q, k, case, m, n in ((0, 1, 9, 0, 0), (1, 0, 9, 0, 0), ("x", 0, 1, 1, 1),
                             (1, "1/0", 1, 1, 1), (1, 1, 9, 0, 0), (1, 1, 2, 0, 9),
                             (1, 1, 3, 4, 4), (1, 1, 1, 9, 0)):
        want = outcome(lambda: expanded_residual(table, h, case, m, n, q, k))
        assert isinstance(want, tuple)
        assert outcome(lambda: annihilation_residual(table, h, case, m, n, q, k)) == want
    # parameters are checked even when there is no cell to evaluate
    for q, k in ((0, 1), (1, 0)):
        with pytest.raises(InputError, match="must be nonzero"):
            recseq._residuals(table, h, 1, [], q, k)


# ---------------------------------------------------------------- stencils


def expected_weight(case, q, k, i, j, m, n, r, s):
    # closed forms obtained by expanding the three bracketings by hand
    case = CaseId(case)
    if case is CaseId.MIDDLE:
        return Fraction(k) ** (-2 * (i + j))
    if case is CaseId.RIGHT:
        return Fraction(k) ** (-(i + j)) * Fraction(q) ** (-i * (n - s))
    return Fraction(k) ** (-2 * (i + j)) * Fraction(q) ** (-j * (m - r))


def test_derived_stencil_matches_closed_form():
    rng = random.Random(20260815)
    for case in (1, 2, 3):
        for q, k in ((1, 1), (2, 1), (3, 2), (Fraction(5, 3), Fraction(1, 2))):
            r = rng.randint(1, 2)
            s = rng.randint(1, 2)
            coeffs = {}
            for i in range(r + 1):
                for j in range(s + 1):
                    if (i, j) != (0, 0):
                        coeffs[(i, j)] = Fraction(rng.randint(-3, 3))
            h = BiPoly(r, s, coeffs)
            for m, n in ((r, s), (r + 1, s + 2), (r + 3, s + 1)):
                stencil = derive_recursion(h, case, m, n, q, k)
                want = {
                    (i, j): expected_weight(case, q, k, i, j, m, n, r, s) * val
                    for (i, j), val in h.coeffs.items()
                }
                want = {key: val for key, val in want.items() if val != 0}
                assert stencil.as_dict() == want


def test_case_stencils_at_k1_match_case_formulas():
    h = DELANNOY_H
    st1 = derive_recursion(h, 1, 3, 5, 7, 1)
    assert st1.as_dict() == {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    st2 = derive_recursion(h, 2, 1, 2, 3, 1)
    assert st2.as_dict() == {
        (1, 0): Fraction(1, 3),
        (0, 1): 1,
        (1, 1): Fraction(1, 3),
    }
    st3 = derive_recursion(h, 3, 2, 1, 3, 1)
    assert st3.as_dict() == {
        (1, 0): 1,
        (0, 1): Fraction(1, 3),
        (1, 1): Fraction(1, 3),
    }


def test_generate_sequence_derived_consistency():
    # residual vanishes at the same (q, k) the table was generated with
    boundary = ones_boundary(1, 1, 4, 4)
    for case in (1, 2, 3):
        for k in (2, Fraction(1, 3), 3):
            t = generate_sequence_derived(DELANNOY_H, case, 2, k, boundary, 4, 4)
            for m in range(1, 5):
                for n in range(1, 5):
                    assert annihilation_residual(t, DELANNOY_H, case, m, n, 2, k) == 0


def test_stencil_apply():
    st = derive_recursion(DELANNOY_H, 1, 2, 2, 1, 1)
    t = delannoy_table(2, 2)
    assert st.apply(t) == t.entry(2, 2)
    assert st.as_dict()[(1, 1)] == 1
    assert (5, 5) not in st.as_dict()


# ------------------------------------------------------------- convolution


def test_convolution_all_ones_doubling():
    f = constant_table(1, 11, 5)
    g = constant_table(1, 5, 5)
    h = quantum_convolution(f, g, 1, 5, 5)
    for m in range(6):
        for n in range(6):
            assert h.entry(m, n) == 2 ** n


def test_convolution_bilinear():
    rng = random.Random(20260815)

    def rand_table(M, N):
        return table_of(
            lambda m, n: Fraction(rng.randint(-4, 4)), M, N
        )

    q = Fraction(5, 3)
    for _ in range(5):
        f1 = rand_table(6, 3)
        f2 = rand_table(6, 3)
        g = rand_table(3, 3)
        lhs = quantum_convolution(
            table_of(lambda m, n: f1.entry(m, n) + f2.entry(m, n), 6, 3),
            g, q, 3, 3,
        )
        h1 = quantum_convolution(f1, g, q, 3, 3)
        h2 = quantum_convolution(f2, g, q, 3, 3)
        for m in range(4):
            for n in range(4):
                assert lhs.entry(m, n) == h1.entry(m, n) + h2.entry(m, n)
        scaled = quantum_convolution(
            f1, table_of(lambda m, n: 3 * g.entry(m, n), 3, 3), q, 3, 3
        )
        for m in range(4):
            for n in range(4):
                assert scaled.entry(m, n) == 3 * h1.entry(m, n)


def test_convolution_column_indicator():
    rng = random.Random(20260815)
    f = table_of(lambda m, n: Fraction(rng.randint(-9, 9)), 6, 3)
    indicator = table_of(lambda m, n: Fraction(int(n == 0)), 3, 3)
    h = quantum_convolution(f, indicator, 2, 3, 3)
    for m in range(4):
        assert h.entry(m, 0) == f.entry(m, 0) * indicator.entry(m, 0)
        for n in range(4):
            assert h.entry(m, n) == f.entry(m, n)


def test_convolution_shape_errors():
    with pytest.raises(InputError):
        quantum_convolution(constant_table(1, 4, 3), constant_table(1, 3, 3), 1, 3, 3)
    with pytest.raises(InputError):
        quantum_convolution(constant_table(1, 6, 3), constant_table(1, 2, 3), 1, 3, 3)
    with pytest.raises(InputError):
        quantum_convolution(constant_table(1, 6, 3), constant_table(1, 3, 3), 0, 3, 3)


def reference_convolution(f, g, q, M, N):
    """The convolution summed on Fractions over reference_qbinom's binomials: the reference."""
    q = rat(q)
    if q == 0:
        raise InputError("q must be nonzero")
    if f.M < M + N or f.N < N:
        raise InputError("first table must extend to (M+N, N) = (%d, %d)" % (M + N, N))
    if g.M < M or g.N < N:
        raise InputError("second table must extend to (M, N) = (%d, %d)" % (M, N))
    binom = reference_qbinom(q)
    grid = [[sum((binom(n, t) * f.grid[m + t][n - t] * g.grid[m][t] for t in range(n + 1)),
                 Fraction(0)) for n in range(N + 1)] for m in range(M + 1)]
    return BiSequence(M, N, grid)


def test_convolution_matches_fraction_sum():
    rng = random.Random(20261022)
    values = (0, 0, 1, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4), Fraction(2, 9))

    def table(M, N):
        return table_of(lambda m, n: rng.choice(values), M, N)

    for M, N in ((0, 0), (0, 4), (3, 0), (2, 2), (5, 3), (3, 6)):
        f, g = table(M + N + rng.randint(0, 1), N), table(M, N + rng.randint(0, 1))
        for q in FILL_QS:
            got = quantum_convolution(f, g, q, M, N)
            assert got == reference_convolution(f, g, q, M, N)
            assert_canonical(got)
        for q, rows, cols in ((0, M, N), ("1/0", M, N), (2, M + 1, N), (2, M, N + 2), (0, M + 9, N)):
            assert outcome(lambda: quantum_convolution(f, g, q, rows, cols)) == outcome(
                lambda: reference_convolution(f, g, q, rows, cols)
            )


# ---------------------------------------------------------------- minpoly


def test_minimal_bipoly_all_ones():
    found = minimal_bipoly(constant_table(1, 6, 6), 2, 2)
    assert found is not None
    r, s, h = found
    assert (r, s) == (0, 1)
    assert h.coeffs == {(0, 1): 1}


def test_minimal_bipoly_linear_table():
    table = table_of(lambda m, n: Fraction(m + n), 6, 6)
    r, s, h = minimal_bipoly(table, 2, 2)
    assert (r, s) == (0, 2)
    assert h.coeffs == {(0, 1): 2, (0, 2): -1}


def test_minimal_bipoly_delannoy():
    t = delannoy_table(7, 7)
    r, s, h = minimal_bipoly(t, 3, 3)
    assert (r, s) == (1, 1)
    assert h.coeffs == {(1, 0): 1, (0, 1): 1, (1, 1): 1}


def test_minimal_bipoly_zero_table():
    r, s, h = minimal_bipoly(constant_table(0, 4, 4), 2, 2)
    assert (r, s) == (0, 0)
    assert h.coeffs == {}


def test_minimal_bipoly_round_trip():
    # generic boundaries make the generator the unique minimal recursion;
    # degenerate draws are redrawn (and logged) rather than special-cased
    rng = random.Random(20260815)
    for _ in range(10):
        for attempt in range(6):
            r = rng.randint(1, 2)
            s = rng.randint(1, 2)
            coeffs = {}
            for i in range(r + 1):
                for j in range(s + 1):
                    if (i, j) != (0, 0):
                        val = rng.randint(-3, 3)
                        if val:
                            coeffs[(i, j)] = Fraction(val)
            coeffs[(r, s)] = Fraction(rng.choice((-2, -1, 1, 2)))
            h = BiPoly(r, s, coeffs)
            boundary = {
                key: Fraction(rng.randint(-6, 6))
                for key in ones_boundary(r, s, 7, 7)
            }
            table = generate_sequence(h, 1, 1, boundary, 7, 7)
            found = minimal_bipoly(table, 2, 2)
            if found == (r, s, h):
                break
            print("redraw %d: draw was degenerate for bidegree (%d, %d)"
                  % (attempt + 1, r, s))
        else:
            raise AssertionError("no generic draw in six attempts")


def test_minimal_bipoly_too_small():
    with pytest.raises(InputError):
        minimal_bipoly(constant_table(1, 3, 3), 2, 2)


def test_minimal_bipoly_rejects_negative_bounds():
    table = constant_table(1, 5, 5)
    for rmax, smax in ((-1, 1), (1, -1), (-3, 5)):
        with pytest.raises(InputError, match="nonnegative"):
            minimal_bipoly(table, rmax, smax)


def test_minimal_bipoly_none_when_out_of_reach():
    # factorial growth in both directions defeats bidegree (1, 1)
    table = table_of(
        lambda m, n: Fraction(math.factorial(m + n) * math.factorial(m)), 4, 4
    )
    assert minimal_bipoly(table, 1, 1) is None


# ------------------------------------------------------------ row minpoly


def test_row_minimal_polys_delannoy():
    t = delannoy_table(7, 7)
    xs, ys = row_minimal_polys(t, max_degree=3)
    assert format_unipoly(xs[0]) == "x - 1"
    assert format_unipoly(xs[1]) == "x^2 - 2*x + 1"
    # symmetry of the table swaps the two directions
    for a, b in zip(xs, ys):
        assert a == b


def test_row_minimal_polys_geometric_row():
    table = table_of(lambda m, n: Fraction(2) ** m, 6, 3)
    xs, _ = row_minimal_polys(table, max_degree=2)
    assert all(format_unipoly(p) == "x - 2" for p in xs)


def test_row_minimal_polys_fibonacci_row():
    fib = [1, 1]
    while len(fib) < 9:
        fib.append(fib[-1] + fib[-2])
    table = table_of(lambda m, n: Fraction(fib[m]), 8, 3)
    xs, _ = row_minimal_polys(table, max_degree=2)
    assert all(format_unipoly(p) == "x^2 - x - 1" for p in xs)


def test_row_minimal_polys_zero_row():
    table = constant_table(0, 4, 2)
    xs, ys = row_minimal_polys(table)
    assert all(p == UniPoly(0, []) for p in xs)
    assert format_unipoly(xs[0]) == "1"


def test_row_minimal_polys_bound_errors():
    with pytest.raises(InputError):
        row_minimal_polys(constant_table(1, 3, 3), max_degree=4)
    with pytest.raises(InputError, match="nonnegative"):
        row_minimal_polys(constant_table(1, 3, 3), max_degree=-1)


# ------------------------------------------- differential: the exact solvers
#
# Each replaced solver is compared with the one it replaced, kept here as the
# reference and built only from the public mat_kernel.


def kernel_min_univariate(seq, dmax):
    """Reference: one full kernel solve per candidate degree."""
    for d in range(dmax + 1):
        if d == 0:
            if all(v == 0 for v in seq):
                return UniPoly(0, [])
            continue
        rows = [[seq[p - i] for i in range(1, d + 1)] + [-seq[p]] for p in range(d, len(seq))]
        if not rows:
            continue
        for vec in mat_kernel(Matrix(rows, cols=d + 1)):
            t = vec[(d, 0)]
            if t != 0:
                return UniPoly(d, [vec[(i, 0)] / t for i in range(d)])
    return None


def sequence_families(rng, length):
    """length sequences of each kind: random, low-complexity, sparse 0/+-1, zero."""
    out = {"random": [], "low": [], "sparse": [], "zero": []}
    for _ in range(length):
        out["random"].append([Fraction(rng.randint(-5, 5)) for _ in range(length)])
        d = rng.randint(1, max(1, length // 3))
        coeffs = [rng.choice((-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-3, 2))) for _ in range(d)]
        seq = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        while len(seq) < length:
            seq.append(sum(c * seq[-1 - i] for i, c in enumerate(coeffs)))
        out["low"].append(seq[:length])
        out["sparse"].append(
            [Fraction(rng.choice((0, 0, 0, 0, 1, -1))) for _ in range(length)]
        )
        out["zero"].append([Fraction(0)] * length)
    return out


def test_row_annihilators_match_kernel_search():
    # Every column of the square table is one sequence and every row one more;
    # row_minimal_polys must give the kernel search's answer at every bound.
    rng = random.Random(20261018)
    compared = hits = 0
    for length in range(1, 13):
        for kind, seqs in sequence_families(rng, length).items():
            table = table_of(lambda m, n: seqs[n][m], length - 1, length - 1)
            rows = [[seqs[n][m] for n in range(length)] for m in range(length)]
            refs = [kernel_min_univariate(seq, length // 2) for seq in seqs + rows]
            for dmax in range(length // 2 + 1):
                xs, ys = row_minimal_polys(table, max_degree=dmax)
                for got, ref in zip(xs + ys, refs):
                    want = ref if ref is not None and ref.degree <= dmax else None
                    assert got == want, (kind, length, dmax)
                    compared += 1
                    hits += want is not None
    assert compared > 2000 and hits > 500


def bipoly_system(table, r, s):
    """(positions, rows) of the annihilation system at bidegree (r, s)."""
    positions = [(i, j) for i in range(r + 1) for j in range(s + 1) if (i, j) != (0, 0)]
    rows = [
        [table.entry(m - i, n - j) for (i, j) in positions] + [-table.entry(m, n)]
        for m in range(r, table.M + 1)
        for n in range(s, table.N + 1)
    ]
    return positions, rows


def differential_tables():
    """Sparse 0/1 tables and tables with low-bidegree annihilators, 9 x 9."""
    rng = random.Random(20261018)
    for density in (0.05, 0.1, 0.2, 0.3):
        yield table_of(lambda m, n: int(rng.random() < density), 8, 8)
    for r, s in ((1, 1), (0, 2), (2, 1), (1, 2)):
        coeffs = {(i, j): rng.choice((-1, 1, 2, Fraction(1, 2)))
                  for i in range(r + 1) for j in range(s + 1) if (i, j) != (0, 0)}
        boundary = {key: rng.randint(-3, 3) for key in ones_boundary(r, s, 8, 8)}
        yield generate_sequence(BiPoly(r, s, coeffs), 1, 1, boundary, 8, 8)


def test_certified_kernel_matches_full_kernel():
    multi = 0
    for table in differential_tables():
        for r, s in recseq._bidegree_candidates(3, 3):
            positions, rows = bipoly_system(table, r, s)
            cols = len(positions) + 1
            full = mat_kernel(Matrix(rows, cols=cols))
            assert recseq._certified_kernel(rows, cols) == full
            multi += len(full) > 1 and len(rows) > cols + 1
    assert multi >= 20  # tall systems whose kernel has dimension > 1


def kernel_minimal_bipoly(f, rmax, smax):
    """Reference: the full kernel of every candidate system."""
    for r, s in recseq._bidegree_candidates(rmax, smax):
        positions, rows = bipoly_system(f, r, s)
        for vec in mat_kernel(Matrix(rows, cols=len(positions) + 1)):
            t = vec[(len(positions), 0)]
            if t != 0:
                coeffs = {positions[idx]: vec[(idx, 0)] / t for idx in range(len(positions))}
                return (r, s, BiPoly(r, s, coeffs))
    return None


def test_minimal_bipoly_matches_full_kernel_search():
    found = 0
    for table in differential_tables():
        for rmax, smax in ((1, 1), (2, 2), (1, 3), (4, 4)):
            want = kernel_minimal_bipoly(table, rmax, smax)
            assert minimal_bipoly(table, rmax, smax) == want
            found += want is not None
    assert found >= 12


def test_antidiagonal_prefix_spares_kernel_solves(monkeypatch):
    """Case-2/3 fills at q = 5/3 have no constant annihilator; a prefix from table
    row m = r alone is often rank-deficient there and has to double."""
    rng = random.Random(20261020)
    tables = []
    for _ in range(12):
        r, s = rng.randint(1, 2), rng.randint(1, 2)
        coeffs = {(i, j): rng.choice((-2, -1, 1, 2, Fraction(1, 2)))
                  for i in range(r + 1) for j in range(s + 1) if (i, j) != (0, 0)}
        boundary = {key: rng.randint(-3, 3) for key in ones_boundary(r, s, 9, 9)}
        tables.append(generate_sequence(BiPoly(r, s, coeffs), rng.choice((2, 3)),
                                        Fraction(5, 3), boundary, 9, 9))
    calls = []
    monkeypatch.setattr(recseq, "mat_kernel", lambda m: calls.append(1) or mat_kernel(m))
    for table in tables:
        for r, s in recseq._bidegree_candidates(3, 3):
            positions, rows = bipoly_system(table, r, s)  # row by row, table row r first
            recseq._certified_kernel(rows, len(positions) + 1)
    row_major, calls[:] = len(calls), []
    for table in tables:
        assert minimal_bipoly(table, 3, 3) == kernel_minimal_bipoly(table, 3, 3)
    systems = len(tables) * len(list(recseq._bidegree_candidates(3, 3)))
    assert systems <= len(calls) < row_major


def test_certified_kernel_against_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    for table in differential_tables():
        for r, s in recseq._bidegree_candidates(2, 2):
            positions, rows = bipoly_system(table, r, s)
            cols = len(positions) + 1
            want = [
                [Fraction(int(x.p), int(x.q)) for x in vec]
                for vec in sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                                         for row in rows]).nullspace()
            ]
            got = [vec.col(0) for vec in recseq._certified_kernel(rows, cols)]
            assert got == want


def reference_qbinom(q):
    """Per-entry q-Pascal recurrence, memoized on (n, i)."""
    memo = {}

    def binom(n, i):
        if i == 0 or i == n:
            return Fraction(1)
        if (n, i) not in memo:
            memo[(n, i)] = binom(n - 1, i - 1) + q ** i * binom(n - 1, i)
        return memo[(n, i)]

    return binom


def test_qpascal_paths_match_per_entry_recurrence():
    rng = random.Random(20261018)
    for q in (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(5, 3)):
        binom = reference_qbinom(q)
        for n in range(16):
            assert [qbinom(n, i, q) for i in range(n + 1)] == [binom(n, i) for i in range(n + 1)]
            params = QParams(q, Fraction(3, 2))
            kpow = params.k ** ((n - 1) * (n + 2) // 2) if n else 1
            want = {(i, n - i): binom(n, i) * kpow for i in range(n + 1) if binom(n, i)}
            assert quantum_binomial_expand(n, params).terms == want
        for M in (0, 2, 4):
            for N in (0, 1, 5, 9):
                f = table_of(lambda m, n: rng.randint(-4, 4), M + N, N)
                g = table_of(lambda m, n: rng.randint(-4, 4), M, N)
                want = [
                    [
                        sum(binom(n, t) * f.entry(m + t, n - t) * g.entry(m, t) for t in range(n + 1))
                        for n in range(N + 1)
                    ]
                    for m in range(M + 1)
                ]
                assert quantum_convolution(f, g, q, M, N) == BiSequence(M, N, want)
    # q == 0 is rejected before the index range is looked at
    with pytest.raises(InputError, match="q must be nonzero"):
        qbinom(-1, 5, 0)
