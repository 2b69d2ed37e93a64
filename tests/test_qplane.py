"""Twisted quantum-plane arithmetic, against hand expansions and brute force."""

import math
import random
from fractions import Fraction

import pytest

from homdual.errors import InputError
from homdual.qplane import (
    QParams,
    QPoly,
    _qpascal,
    classical_product,
    eval_functional,
    format_qpoly,
    hom_power_left,
    hom_product,
    normal_order,
    qbinom,
    quantum_binomial_expand,
    twist,
)
from homdual.recseq import BiSequence

P21 = QParams(2, 1)
P23 = QParams(2, 3)


def mono(params, m, n, c=1):
    return QPoly.monomial(params, m, n, c)


def test_params_reject_zero():
    with pytest.raises(InputError):
        QParams(0, 1)
    with pytest.raises(InputError):
        QParams(1, 0)


def test_normal_order_examples():
    assert normal_order("yx", P21) == mono(P21, 1, 1, 2)
    assert normal_order("yyx", P21) == mono(P21, 1, 2, 4)
    assert normal_order("xxyy", QParams(7, 1)) == mono(QParams(7, 1), 2, 2)
    assert normal_order("", P21) == QPoly.one(P21)
    with pytest.raises(InputError):
        normal_order("xz", P21)


def test_normal_order_respects_concatenation():
    # classical_product(normal(u), normal(v)) = normal(uv), all words, len <= 8
    for q in (Fraction(1), Fraction(2), Fraction(5, 3)):
        params = QParams(q, 1)
        by_len = [[""]]
        for _ in range(8):
            by_len.append([w + c for w in by_len[-1] for c in "xy"])
        for lu in range(9):
            for lv in range(9 - lu):
                for u in by_len[lu]:
                    for v in by_len[lv]:
                        lhs = normal_order(u + v, params)
                        rhs = classical_product(normal_order(u, params), normal_order(v, params))
                        assert lhs == rhs


def test_classical_product_examples():
    p3 = QParams(3, 1)
    assert classical_product(mono(p3, 0, 1), mono(p3, 1, 0)) == mono(p3, 1, 1, 3)
    assert classical_product(mono(P21, 1, 1), mono(P21, 1, 0)) == mono(P21, 2, 1, 2)
    p = QPoly(P21, {(2, 1): Fraction(5), (0, 3): Fraction(-1)})
    assert classical_product(QPoly.one(P21), p) == p


def test_twist_examples():
    k2 = QParams(1, 2)
    assert twist(mono(k2, 2, 1)) == mono(k2, 2, 1, 2 ** 3)
    assert twist(mono(P23, 0, 0, 5)) == mono(P23, 0, 0, 5)
    k3 = QParams(1, 3)
    assert twist(QPoly(k3, {(1, 0): 1, (0, 1): 1})) == QPoly(k3, {(1, 0): 3, (0, 1): 3})


def test_hom_product_examples():
    assert hom_product(mono(P23, 0, 1), mono(P23, 1, 0)) == mono(P23, 1, 1, 18)
    assert hom_product(mono(P23, 1, 0), mono(P23, 1, 0)) == mono(P23, 2, 0, 9)
    # k = 1 collapses to the classical product
    rng_terms = {(1, 2): Fraction(3), (0, 0): Fraction(-1, 2)}
    a = QPoly(P21, rng_terms)
    b = QPoly(P21, {(2, 0): Fraction(1), (1, 1): Fraction(4)})
    assert hom_product(a, b) == classical_product(a, b)


def test_hom_power_left_small():
    xy = QPoly(P23, {(1, 0): 1, (0, 1): 1})
    assert hom_power_left(xy, 0) == QPoly.one(P23)
    assert hom_power_left(xy, 1) == xy
    q, k = P23.q, P23.k
    want2 = QPoly(
        P23,
        {(2, 0): k ** 2, (1, 1): k ** 2 * (1 + q), (0, 2): k ** 2},
    )
    assert hom_power_left(xy, 2) == want2
    want3 = QPoly(
        P23,
        {
            (3, 0): k ** 5,
            (2, 1): k ** 5 * (1 + q + q ** 2),
            (1, 2): k ** 5 * (1 + q + q ** 2),
            (0, 3): k ** 5,
        },
    )
    assert hom_power_left(xy, 3) == want3


def test_qbinom_values():
    assert qbinom(4, 2, 1) == 6
    assert qbinom(2, 1, 2) == 3
    assert qbinom(4, 2, 2) == 35
    assert qbinom(5, 0, 7) == 1
    assert qbinom(5, 5, 7) == 1
    with pytest.raises(InputError):
        qbinom(3, 4, 2)
    with pytest.raises(InputError):
        qbinom(3, 1, 0)


def test_qbinom_pascal_and_classical():
    for q in (Fraction(2), Fraction(5, 3), Fraction(-1)):
        for n in range(1, 13):
            for i in range(1, n):
                assert qbinom(n, i, q) == qbinom(n - 1, i - 1, q) + q ** i * qbinom(n - 1, i, q)
    for n in range(11):
        for i in range(n + 1):
            assert qbinom(n, i, 1) == math.comb(n, i)


def test_qbinom_product_formula_generic_q():
    # against the factorial form prod (1-q^(n-i+t))/(1-q^t), valid off roots of unity
    for q in (Fraction(2), Fraction(5, 3)):
        for n in range(9):
            for i in range(n + 1):
                top = Fraction(1)
                bot = Fraction(1)
                for t in range(1, i + 1):
                    top *= 1 - q ** (n - i + t)
                    bot *= 1 - q ** t
                assert qbinom(n, i, q) == top / bot


def test_quantum_binomial_expand_example():
    p = quantum_binomial_expand(2, P23)
    assert format_qpoly(p) == "9*x^2 + 27*x*y + 9*y^2"
    assert quantum_binomial_expand(0, P23) == QPoly.one(P23)
    assert quantum_binomial_expand(1, P23) == QPoly(P23, {(1, 0): 1, (0, 1): 1})


def test_quantum_binomial_matches_brute_force():
    for q, k in ((1, 1), (2, 1), (2, 3), (Fraction(5, 3), 2)):
        params = QParams(q, k)
        xy = QPoly(params, {(1, 0): 1, (0, 1): 1})
        for n in range(9):
            assert quantum_binomial_expand(n, params) == hom_power_left(xy, n)


def test_format_qpoly():
    assert format_qpoly(QPoly.zero(P21)) == "0"
    assert format_qpoly(QPoly(P21, {(1, 0): 1, (0, 1): -2})) == "x - 2*y"
    assert format_qpoly(QPoly(P21, {(0, 0): Fraction(-1, 2)})) == "-1/2"
    assert format_qpoly(QPoly(P21, {(2, 2): 1, (3, 0): 1})) == "x^2*y^2 + x^3"


def test_eval_functional():
    table = BiSequence(3, 3, [[10 * m + n for n in range(4)] for m in range(4)])
    assert eval_functional(table, mono(P21, 2, 3)) == 23
    assert eval_functional(table, "yyyxx", params=P21) == 2 ** 6 * 23
    p = QPoly(P21, {(1, 0): 2, (0, 1): 3})
    assert eval_functional(table, p) == 2 * 10 + 3 * 1
    with pytest.raises(InputError):
        eval_functional(table, mono(P21, 4, 0))
    with pytest.raises(InputError):
        eval_functional(table, "xy")


# ------------------------------------------- power tables against the definitions


def naive_classical(p1, p2):
    q = p1.params.q
    terms = {}
    for (a, b), c1 in p1.terms.items():
        for (c, d), c2 in p2.terms.items():
            key = (a + c, b + d)
            terms[key] = terms.get(key, Fraction(0)) + c1 * c2 * q ** (b * c)
    return QPoly(p1.params, terms)


def naive_twist(p):
    k = p.params.k
    return QPoly(p.params, {(m, n): c * k ** (m + n) for (m, n), c in p.terms.items()})


def naive_hom(p1, p2):
    return naive_classical(naive_twist(p1), naive_twist(p2))


def naive_power(p, n):
    acc = QPoly.one(p.params)
    if n:
        acc = p
        for _ in range(n - 1):
            acc = naive_hom(acc, p)
    return acc


SMALL_COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-3, 5))
# pairwise coprime denominators, so a factor's lcm grows with every term
COPRIME_COEFFS = (1, -2, Fraction(1, 3), Fraction(-5, 7), Fraction(4, 11), Fraction(-9, 13),
                  Fraction(7, 17), Fraction(-1, 19))


def random_poly(rng, params, degree=3, coeffs=SMALL_COEFFS, terms=6):
    return QPoly(params, {
        (rng.randrange(degree + 1), rng.randrange(degree + 1)): rng.choice(coeffs)
        for _ in range(rng.randrange(1, terms))
    })


def assert_normal_form(p):
    for (m, n), c in p.terms.items():
        assert type(m) is int and type(n) is int and m >= 0 and n >= 0
        assert type(c) is Fraction and c != 0


def test_power_table_products_match_the_definitions():
    rng = random.Random(20240518)
    values = (1, -1, 2, Fraction(-1, 2), Fraction(5, 3), Fraction(7, 5), Fraction(-2, 3),
              Fraction(-3, 2))
    cancelled = 0
    for q in values:
        for k in values:
            params = QParams(q, k)
            for _ in range(12):
                p1, p2 = random_poly(rng, params), random_poly(rng, params)
                got = classical_product(p1, p2)
                assert got == naive_classical(p1, p2)
                assert_normal_form(got)
                pairs = {(a + c, b + d) for a, b in p1.terms for c, d in p2.terms}
                cancelled += len(pairs) - len(got.terms)
                for p in (p1, p2):
                    assert twist(p) == naive_twist(p)
                    assert_normal_form(twist(p))
                got = hom_product(p1, p2)
                assert got == naive_hom(p1, p2)
                assert_normal_form(got)
            base = random_poly(rng, params)
            for n in range(5):
                got = hom_power_left(base, n)
                assert got == naive_power(base, n)
                assert_normal_form(got)
    assert cancelled > 0  # the sweep reaches sums that cancel to zero
    # degree up to 12, coefficients over coprime denominators, the zero polynomial
    rational = (Fraction(7, 5), Fraction(-2, 3), Fraction(-3, 2))
    for q in rational:
        for k in rational:
            params = QParams(q, k)
            zero = QPoly.zero(params)
            for _ in range(4):
                p1, p2 = (random_poly(rng, params, 12, COPRIME_COEFFS, 14) for _ in range(2))
                for a, b in ((p1, p2), (p2, p1), (p1, zero), (zero, p2), (zero, zero)):
                    for got, want in ((classical_product(a, b), naive_classical(a, b)),
                                      (hom_product(a, b), naive_hom(a, b))):
                        assert got == want
                        assert_normal_form(got)
                assert twist(p1) == naive_twist(p1)
            base = random_poly(rng, params, 12, COPRIME_COEFFS, 8)
            for n in range(4):
                got = hom_power_left(base, n)
                assert got == naive_power(base, n)
                assert_normal_form(got)


def test_power_table_products_cancel_exactly():
    # (x + y)(x - y) = x^2 - y^2 at q = 1, and (x + y)(x + y) = x^2 + y^2 at q = -1
    for q, sign in ((1, -1), (-1, 1)):
        params = QParams(q, 2)
        p1 = QPoly(params, {(1, 0): 1, (0, 1): 1})
        p2 = QPoly(params, {(1, 0): 1, (0, 1): sign})
        expected = {(2, 0): 1, (0, 2): sign}
        assert classical_product(p1, p2).terms == expected
        assert hom_product(p1, p2).terms == {key: 4 * c for key, c in expected.items()}
        assert hom_product(p1, p2) == naive_hom(p1, p2)
        assert_normal_form(hom_product(p1, p2))


def test_twist_at_k_one_is_the_argument():
    p = QPoly(QParams(2, 1), {(1, 2): 3, (0, 0): -1})
    assert twist(p) is p


# ------------------------------------------ integer q-Pascal rows against Fractions


def fraction_pascal(n, q):
    """Rows 0..n of binom(m, i)_q on Fractions, by the q-Pascal recurrence."""
    rows = [[Fraction(1)]]
    for m in range(1, n + 1):
        prev = rows[-1]
        rows.append([Fraction(1)] + [prev[i - 1] + q ** i * prev[i] for i in range(1, m)]
                    + [Fraction(1)])
    return rows


def test_integer_qpascal_rows_match_the_fraction_recurrence():
    for q in (Fraction(1), Fraction(-1), Fraction(2), Fraction(5, 3), Fraction(-1, 2),
              Fraction(7, 5), Fraction(-2, 3)):
        want = fraction_pascal(40, q)
        got = _qpascal(40, q)
        assert [len(row) for row in got] == list(range(1, 42))
        for m, (row, ref) in enumerate(zip(got, want)):
            # B(m, i) = binom(m, i)_q b^(i(m-i)) is an integer
            assert all(type(c) is int for c in row)
            assert row == [ref[i] * q.denominator ** (i * (m - i)) for i in range(m + 1)]
        params = QParams(q, Fraction(-3, 2))
        for n in (0, 1, 2, 7, 24, 40):
            binoms = [qbinom(n, i, q) for i in range(n + 1)]
            assert binoms == want[n]
            assert all(type(c) is Fraction for c in binoms)
            expanded = quantum_binomial_expand(n, params)
            kpow = params.k ** ((n - 1) * (n + 2) // 2) if n else 1
            assert expanded.terms == {
                (i, n - i): c * kpow for i, c in enumerate(want[n]) if c
            }
            assert_normal_form(expanded)
        for n, i in ((3, 4), (3, -1), (-1, 0), (0, 1)):
            with pytest.raises(InputError, match=r"need 0 <= i <= n, got \(%d, %d\)" % (n, i)):
                qbinom(n, i, q)
    with pytest.raises(InputError, match="q must be nonzero"):
        qbinom(3, 4, 0)
    with pytest.raises(InputError, match="zero denominator"):
        qbinom(3, 1, "1/0")
