"""Quotient presentations, functionals on them, and the induced coalgebras."""

from fractions import Fraction

import random

import pytest

from homdual import sweedler
from homdual.errors import InputError, MorphismError
from homdual.exact_math import Matrix
from homdual.homalg_core import (
    AxiomReport,
    FiniteHomAlgebra,
    LinearMapCandidate,
    canon,
    check_algebra_morphism,
    dualize_algebra,
    verify_hom_algebra,
    verify_hom_coalgebra,
)
from homdual.sweedler import (
    FAMILIES,
    SweedlerFunctional,
    add_functionals,
    check_pullback_naturality,
    dual_basis_functional,
    make_poly_quotient,
    make_qplane_quotient,
    make_tensor_quotient,
    pullback_functional,
    quotient_dual_coalgebra,
    sweedler_delta,
    sweedler_twist,
    verify_quotient,
)
from homdual.sweedler import _ambient_rows, _merged_quotient


def square_matrix(dim):
    return Matrix(
        [[1 if t == 2 * s and t < dim else 0 for s in range(dim)] for t in range(dim)]
    )


# ---------------------------------------------------------- presentations


def test_poly_quotient_table():
    q = make_poly_quotient(3, 2)
    assert q.dim == 4
    assert q.labels == ["1", "x", "x^2", "x^3"]
    assert q.qmul[(1, 2)] == {3: 8}
    assert (2, 2) not in q.qmul
    assert q.qtwist[(2, 2)] == 4


def test_poly_quotient_edge_cases():
    one = make_poly_quotient(0, 5)
    assert one.dim == 1
    assert one.qmul[(0, 0)] == {0: 1}
    with pytest.raises(InputError):
        make_poly_quotient(2, 0)
    with pytest.raises(InputError):
        make_poly_quotient(-1, 1)


def test_classical_poly_quotient_is_plain_truncation():
    q = make_poly_quotient(2, 1)
    assert q.qmul[(1, 1)] == {2: 1}
    assert q.qtwist.is_identity()


def test_tensor_quotient_table():
    q = make_tensor_quotient(2, 2, (1, 1))
    xi = q.keys.index((0,))
    yi = q.keys.index((1,))
    xyi = q.keys.index((0, 1))
    assert q.labels[xyi] == "xy"
    assert q.qmul[(xi, yi)] == {xyi: 1}
    assert (xyi, xi) not in q.qmul
    twisted = make_tensor_quotient(2, 2, (2, 3))
    assert twisted.qmul[(xi, yi)] == {xyi: 6}


def test_tensor_one_letter_matches_poly():
    qt = make_tensor_quotient(1, 4, (Fraction(3, 2),))
    qp = make_poly_quotient(4, Fraction(3, 2))
    assert qt.dim == qp.dim
    for i in range(qt.dim):
        for j in range(qt.dim):
            assert qt.qmul.get((i, j), {}) == qp.qmul.get((i, j), {})
    assert qt.qtwist == qp.qtwist


def test_tensor_quotient_validation():
    with pytest.raises(InputError):
        make_tensor_quotient(0, 2, ())
    with pytest.raises(InputError):
        make_tensor_quotient(2, 2, (1,))
    with pytest.raises(InputError):
        make_tensor_quotient(2, 2, (1, 0))


def test_qplane_quotient_table():
    classical = make_qplane_quotient(1, 1, 1, 1)
    yi = classical.keys.index((0, 1))
    xi = classical.keys.index((1, 0))
    xyi = classical.keys.index((1, 1))
    assert classical.qmul[(yi, xi)] == {xyi: 1}

    q21 = make_qplane_quotient(2, 2, 2, 1)
    yi = q21.keys.index((0, 1))
    xi = q21.keys.index((1, 0))
    xyi = q21.keys.index((1, 1))
    assert q21.qmul[(yi, xi)] == {xyi: 2}

    q23 = make_qplane_quotient(2, 2, 2, 3)
    assert q23.qmul[(yi, xi)] == {xyi: 18}


def test_quotients_verify():
    assert verify_quotient(make_poly_quotient(5, 2)).passed
    assert verify_quotient(make_tensor_quotient(2, 2, (2, 3))).passed
    assert verify_quotient(make_qplane_quotient(2, 3, 2, 3)).passed


def test_verify_quotient_catches_bad_table():
    q = make_poly_quotient(3, 2)
    q.qmul[(1, 1)] = {2: 5}  # should be k^2 = 4
    report = verify_quotient(q)
    assert not report.passed
    axioms = {v[0] for v in report.violations}
    assert "quotient-projection-consistency" in axioms


def test_as_hom_algebra_is_built_once():
    q = make_qplane_quotient(2, 2, 2, 3)
    alg = q.as_hom_algebra()
    assert q.as_hom_algebra() is alg
    assert alg == FiniteHomAlgebra(q.dim, q.qmul, q.qtwist)
    before = verify_quotient(q)
    assert before.passed
    bad = alg.with_mul_entry(1, 3, 4, 5)
    assert bad != alg and not verify_hom_algebra(bad).passed
    assert q.as_hom_algebra() is alg
    assert alg == FiniteHomAlgebra(q.dim, q.qmul, q.qtwist)
    assert verify_quotient(q) == before


def test_project_and_ambient_product():
    q = make_poly_quotient(3, 2)
    assert q.project_index(2) == 2
    assert q.project_index(9) is None
    # x^2 . x^2 = 16 x^4 dies in the box of degree 3 and lives in the box of degree 4
    assert (2, 2) not in q.qmul
    assert make_poly_quotient(4, 2).qmul[(2, 2)] == {4: 16}
    qq = make_qplane_quotient(2, 2, 2, 1)
    y, x, xy = (qq.project_index(key) for key in ((0, 1), (1, 0), [1, 1]))
    assert qq.qmul[(y, x)] == {xy: 2}


# ------------------------------------------------------------- functionals


def test_functional_evaluation():
    q = make_poly_quotient(3, 2)
    f = SweedlerFunctional(q, [0, 0, "1", 0])
    assert f.coeffs == [0, 0, 1, 0] and all(type(c) is Fraction for c in f.coeffs)
    assert f.coeffs[q.project_index(2)] == 1
    assert q.project_index(9) is None  # x^9 lies in the ideal, where f vanishes
    # f after the twist: alpha(x^2) = k^2 x^2 = 4 x^2
    assert sweedler_twist(q, f).coeffs == [0, 0, 4, 0]
    with pytest.raises(InputError):
        SweedlerFunctional(q, [1, 2])


def test_sweedler_delta_classical_deconcatenation():
    q = make_poly_quotient(3, 1)
    d2 = dual_basis_functional(q, 2)
    delta = sweedler_delta(q, d2)
    assert delta.terms == {(0, 2): 1, (1, 1): 1, (2, 0): 1}


def test_sweedler_delta_twisted():
    q = make_poly_quotient(3, 2)
    d2 = dual_basis_functional(q, 2)
    delta = sweedler_delta(q, d2)
    assert delta.terms == {(0, 2): 4, (1, 1): 4, (2, 0): 4}


def test_sweedler_delta_poly_closed_form():
    # Delta(d_n) = k^n sum_{i+j=n} d_i (x) d_j on every truncation level
    for k in (1, 2, Fraction(3, 2), -1):
        for N in range(11):
            q = make_poly_quotient(N, k)
            for n in range(N + 1):
                delta = sweedler_delta(q, dual_basis_functional(q, n))
                want = {(i, n - i): Fraction(k) ** n for i in range(n + 1)}
                assert delta.terms == want


def test_sweedler_delta_tensor_deconcatenation():
    q = make_tensor_quotient(2, 2, (1, 1))
    w = q.keys.index((0, 1))
    delta = sweedler_delta(q, dual_basis_functional(q, w))
    empty = q.keys.index(())
    x = q.keys.index((0,))
    y = q.keys.index((1,))
    assert delta.terms == {(empty, w): 1, (x, y): 1, (w, empty): 1}


def test_sweedler_delta_skips_zero_coefficients_exactly():
    """The dense sum over every qmul entry, kept here as the reference."""
    rng = random.Random(20261021)
    for quo in (make_poly_quotient(5, Fraction(3, 2)), make_tensor_quotient(2, 2, (2, -1)),
                make_qplane_quotient(3, 2, Fraction(5, 3), -2)):
        for density in (0.0, 0.2, 1.0):
            coeffs = [rng.choice((1, -2, Fraction(1, 3))) if rng.random() < density else 0
                      for _ in range(quo.dim)]
            want = {}
            for key, vec in quo.qmul.items():
                value = Fraction(0)
                for k, coeff in vec.items():
                    value += coeff * Fraction(coeffs[k])
                if value != 0:
                    want[key] = value
            got = sweedler_delta(quo, SweedlerFunctional(quo, coeffs)).terms
            assert got == want
            assert list(got) == list(want)
            assert all(type(v) is Fraction for v in got.values())


def test_sweedler_twist():
    q1 = make_poly_quotient(3, 1)
    f = SweedlerFunctional(q1, [1, 2, 3, 4])
    assert sweedler_twist(q1, f).coeffs == f.coeffs

    q2 = make_poly_quotient(3, 2)
    d2 = dual_basis_functional(q2, 2)
    assert sweedler_twist(q2, d2).coeffs == [0, 0, 4, 0]

    qt = make_tensor_quotient(2, 2, (2, 3))
    w = qt.keys.index((0, 1))
    dw = dual_basis_functional(qt, w)
    twisted = sweedler_twist(qt, dw)
    want = [Fraction(0)] * qt.dim
    want[w] = Fraction(6)
    assert twisted.coeffs == want


def test_dual_coalgebra_two_routes_agree():
    for q in (
        make_poly_quotient(5, 1),
        make_poly_quotient(5, 3),
        make_tensor_quotient(2, 2, (2, 3)),
        make_qplane_quotient(2, 2, 2, 1),
    ):
        via_delta = quotient_dual_coalgebra(q)
        via_transpose = dualize_algebra(q.as_hom_algebra())
        assert via_delta == via_transpose
        assert verify_hom_coalgebra(via_delta).passed


def test_dual_coalgebra_divided_powers():
    dual = quotient_dual_coalgebra(make_poly_quotient(5, 3))
    for n in range(6):
        want = {(i, n - i): Fraction(3) ** n for i in range(n + 1)}
        assert dual.comul[n] == want


# ---------------------------------------------------------------- pullback


def test_pullback_identity():
    q = make_poly_quotient(4, 2)
    f = SweedlerFunctional(q, [1, 0, 2, 0, 5])
    pulled = pullback_functional(q, q, Matrix.identity(5), f)
    assert pulled.coeffs == f.coeffs


def test_pullback_square_map():
    q = make_poly_quotient(6, 1)
    F = square_matrix(7)
    d4 = dual_basis_functional(q, 4)
    pulled = pullback_functional(q, q, F, d4)
    assert pulled.coeffs == [0, 0, 1, 0, 0, 0, 0]
    d3 = dual_basis_functional(q, 3)
    assert pullback_functional(q, q, F, d3).coeffs == [0] * 7


def test_pullback_rejects_non_morphism():
    q = make_poly_quotient(2, 1)
    shift = Matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(MorphismError) as err:
        pullback_functional(q, q, shift, dual_basis_functional(q, 1))
    assert not err.value.report.passed


def test_pullback_naturality_square_map():
    q = make_poly_quotient(6, 1)
    report = check_pullback_naturality(q, q, square_matrix(7))
    assert report.passed


def test_pullback_naturality_twisted_pair():
    # x -> x^2 from the k=4 cube truncation into the k=2 one: alpha' o F = F o alpha
    src = make_poly_quotient(3, 4)
    tgt = make_poly_quotient(6, 2)
    F = Matrix([[1 if t == 2 * s else 0 for s in range(4)] for t in range(7)])
    assert check_algebra_morphism(
        src.as_hom_algebra(), tgt.as_hom_algebra(), LinearMapCandidate(4, 7, F)
    ).passed
    assert check_pullback_naturality(src, tgt, F).passed


def test_pullback_naturality_detects_non_morphism():
    q = make_poly_quotient(2, 1)
    shift = Matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(MorphismError):
        check_pullback_naturality(q, q, shift)


# ---------------------------------------------------------------- addition


def test_add_functionals_same_quotient():
    q = make_poly_quotient(3, 2)
    f = SweedlerFunctional(q, [1, 0, 2, 0])
    g = SweedlerFunctional(q, [0, 1, 1, 0])
    s = add_functionals(f, g)
    assert s.quotient == q
    assert s.coeffs == [1, 1, 3, 0]


def test_add_functionals_merges_truncations():
    f = SweedlerFunctional(make_poly_quotient(3, 2), [0, 1, 0, 0])
    g = SweedlerFunctional(make_poly_quotient(5, 2), [0, 0, 1, 0, 0, 0])
    s = add_functionals(f, g)
    assert s.quotient.params["N"] == 5
    assert s.coeffs == [0, 1, 1, 0, 0, 0]
    # the merged functional still evaluates like the sum on common monomials
    assert s.coeffs[s.quotient.project_index(1)] == 1
    assert s.coeffs[s.quotient.project_index(2)] == 1


def test_add_functionals_qplane_box_merge():
    fa = make_qplane_quotient(2, 1, 2, 3)
    fb = make_qplane_quotient(1, 2, 2, 3)
    f = dual_basis_functional(fa, fa.keys.index((2, 1)))
    g = dual_basis_functional(fb, fb.keys.index((1, 2)))
    s = add_functionals(f, g)
    assert s.quotient.params["R"] == 2 and s.quotient.params["S"] == 2
    assert s.coeffs[s.quotient.project_index((2, 1))] == 1
    assert s.coeffs[s.quotient.project_index((1, 2))] == 1
    assert s.coeffs[s.quotient.project_index((0, 0))] == 0


def test_add_functionals_incompatible():
    f = SweedlerFunctional(make_poly_quotient(3, 2), [0, 1, 0, 0])
    g = SweedlerFunctional(make_poly_quotient(3, 3), [0, 1, 0, 0])
    with pytest.raises(InputError):
        add_functionals(f, g)
    h = SweedlerFunctional(make_tensor_quotient(1, 3, (2,)), [0, 1, 0, 0])
    with pytest.raises(InputError):
        add_functionals(f, h)


# ------------------------------------------------------------------- grids


def test_quotient_grid_verifies():
    for k in (1, 2, Fraction(3, 2), -1):
        for N in (0, 1, 4, 7):
            assert verify_quotient(make_poly_quotient(N, k)).passed
    for twists in ((1, 1), (2, 3), (Fraction(1, 2), -1)):
        for n in (0, 1, 2, 3):
            assert verify_quotient(make_tensor_quotient(2, n, twists)).passed
    for q in (1, 2):
        for k in (1, 3):
            assert verify_quotient(make_qplane_quotient(2, 2, q, k)).passed


# ------------------------------------------- power tables against the formulas


def word_twist(twists, word):
    out = Fraction(1)
    for c in word:
        out *= twists[c]
    return out


def family_cases():
    values = (-1, 2, Fraction(-1, 2), Fraction(5, 3))
    for k in values:
        for N in (0, 2, 4):
            yield make_poly_quotient(N, k), lambda a, b, k=k: (k ** (a + b), a + b)
    for twists in ((2, Fraction(-1, 2)), (Fraction(5, 3), -1, 2)):
        for n in (0, 1, 2):
            yield make_tensor_quotient(len(twists), n, twists), lambda u, v, t=twists: (
                word_twist(t, u) * word_twist(t, v), u + v)
    for q in values:
        for k in values:
            yield make_qplane_quotient(2, 1, q, k), lambda m1, m2, q=q, k=k: (
                k ** (sum(m1) + sum(m2)) * q ** (m1[1] * m2[0]),
                (m1[0] + m2[0], m1[1] + m2[1]))


def test_ambient_products_match_the_family_formulas():
    families = set()
    for quotient, formula in family_cases():
        families.add(quotient.family)
        # the box verify_quotient sweeps: its product table against the formulas
        rules = FAMILIES[quotient.family]
        wide = dict(quotient.params)
        for name in rules.bounds:
            wide[name] = 2 * wide[name] + 1
        big = rules.build(wide)
        pairs = [(u, v) for u, row in _ambient_rows(quotient, 1)[1] for v in row]
        assert pairs and all(big.project_index(key) is not None for pair in pairs for key in pair)
        assert len(pairs) > quotient.dim ** 2
        if quotient.family == "tensor":  # the prefix walk keeps the filter's pairs and order
            assert pairs == [(u, v) for u in big.keys for v in big.keys
                             if len(u) + len(v) <= wide["n"]]
        for table in (quotient, big):
            for u in table.keys:
                for v in table.keys:
                    coeff, key = formula(u, v)
                    k = table.project_index(key)
                    assert table.qmul.get((table.key_index[u], table.key_index[v]), {}) == (
                        {} if k is None else {k: coeff}
                    )
        assert verify_quotient(quotient, 1).passed
        for i, key in enumerate(quotient.keys):
            assert quotient.qtwist.entries[i][i] == formula(key, quotient.keys[0])[0]
    assert families == {"poly", "tensor", "qplane"}


# ------------------------------------------------ one record per family


SAMPLES = {
    "poly": [{"N": 3, "k": Fraction(-1, 2)}, {"N": 0, "k": Fraction(5)}],
    "tensor": [
        {"alphabet": 2, "n": 2, "twists": (Fraction(2), Fraction(5, 3))},
        {"alphabet": 5, "n": 1, "twists": tuple(Fraction(t) for t in (1, -1, 2, 3, 4))},
    ],
    "qplane": [{"R": 2, "S": 1, "q": Fraction(-1), "k": Fraction(5, 3)}],
}


def test_twist_diagonal_is_the_product_with_the_unit():
    assert set(SAMPLES) == set(FAMILIES)
    for name, rules in FAMILIES.items():
        for params in SAMPLES[name]:
            q = rules.build(params)
            assert (q.family, q.params) == (name, params)
            assert q.labels[0] == "1"
            for i, key in enumerate(q.keys):
                assert q.qmul[(i, 0)] == q.qmul[(0, i)] == {i: q.twist_diagonal[i]}
                assert q.qtwist.entries[i] == tuple(
                    q.twist_diagonal[i] if j == i else 0 for j in range(q.dim)
                )
            assert list(q.qmul) == sorted(q.qmul)  # row by row, as the dual reads it


def test_merged_quotient_is_the_box_of_the_larger_bounds():
    k, q = Fraction(-1, 2), Fraction(5, 3)
    twists = (Fraction(2), Fraction(-1, 2))
    cases = [
        (make_poly_quotient(2, k), make_poly_quotient(5, k), make_poly_quotient(5, k)),
        (make_poly_quotient(4, k), make_poly_quotient(4, k), make_poly_quotient(4, k)),
        (
            make_tensor_quotient(2, 1, twists),
            make_tensor_quotient(2, 3, twists),
            make_tensor_quotient(2, 3, twists),
        ),
        (
            make_qplane_quotient(3, 1, q, k),
            make_qplane_quotient(1, 2, q, k),
            make_qplane_quotient(3, 2, q, k),
        ),
    ]
    for qa, qb, want in cases:
        for merged in (_merged_quotient(qa, qb), _merged_quotient(qb, qa)):
            assert merged == want
            assert merged.params == want.params
            assert merged.keys == want.keys and merged.labels == want.labels
            assert list(merged.qmul.items()) == list(want.qmul.items())


@pytest.mark.parametrize(
    "qa, qb",
    [
        (make_poly_quotient(3, 2), make_poly_quotient(5, 3)),
        (make_tensor_quotient(2, 2, (2, 3)), make_tensor_quotient(2, 1, (2, 5))),
        (make_tensor_quotient(1, 2, (2,)), make_tensor_quotient(2, 2, (2, 3))),
        (make_qplane_quotient(2, 2, 2, 3), make_qplane_quotient(1, 2, 3, 3)),
        (make_qplane_quotient(2, 2, 2, 3), make_qplane_quotient(2, 1, 2, 5)),
        (make_poly_quotient(1, 1), make_qplane_quotient(1, 0, 1, 1)),
    ],
)
def test_merge_refuses_different_fixed_fields(qa, qb):
    for first, second in ((qa, qb), (qb, qa)):
        with pytest.raises(InputError, match="cannot merge"):
            _merged_quotient(first, second)
        with pytest.raises(InputError, match="cannot merge"):
            add_functionals(dual_basis_functional(first, 0), dual_basis_functional(second, 0))


# ------------------------------- the sparse dual side against dense formulas


def dense_apply(rows, vec):
    return [sum((r * v for r, v in zip(row, vec)), Fraction(0)) for row in rows]


def dense_naturality(source, target, induced):
    """Both naturality squares with dense matrices; the morphism check is left out."""
    tmat = induced.transpose().entries
    source_twist_t = source.qtwist.transpose().entries
    target_twist_t = target.qtwist.transpose().entries
    pulls = [SweedlerFunctional(source, [row[t] for row in tmat]) for t in range(target.dim)]
    sparse = [{a: c for a, c in enumerate(pull.coeffs) if c != 0} for pull in pulls]
    violations = []
    for t in range(target.dim):
        f = dual_basis_functional(target, t)
        lhs = sweedler_delta(source, pulls[t]).terms
        rhs = {}
        for (i, j), coeff in sweedler_delta(target, f).terms.items():
            for a, la in sparse[i].items():
                for b, rb in sparse[j].items():
                    rhs[(a, b)] = rhs.get((a, b), 0) + coeff * la * rb
        rhs = {key: v for key, v in rhs.items() if v != 0}
        if lhs != rhs:
            violations.append(("delta-naturality", (t,), canon(lhs), canon(rhs)))
        lhs_tw = dense_apply(source_twist_t, pulls[t].coeffs)
        rhs_tw = dense_apply(tmat, dense_apply(target_twist_t, f.coeffs))
        if lhs_tw != rhs_tw:
            violations.append(
                (
                    "twist-naturality",
                    (t,),
                    canon({(a,): v for a, v in enumerate(lhs_tw)}),
                    canon({(a,): v for a, v in enumerate(rhs_tw)}),
                )
            )
    return AxiomReport(tuple(violations))


def rescaling(big, small, scale):
    index = {key: i for i, key in enumerate(small.keys)}
    rows = [[Fraction(0)] * big.dim for _ in range(small.dim)]
    for col, key in enumerate(big.keys):
        if key in index:
            rows[index[key]][col] = scale(key)
    return Matrix(rows, cols=big.dim)


def bumped(matrix, rng):
    rows = [list(row) for row in matrix.entries]
    rows[rng.randrange(matrix.rows)][rng.randrange(matrix.cols)] += rng.choice((1, -1, 2))
    return Matrix(rows, cols=matrix.cols)


def dual_side_cases():
    """(source, target, induced): quotient morphisms, bumped twists and non-morphisms."""
    rng = random.Random(20261018)
    scales = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(5, 3))
    for _ in range(4):
        k, q = rng.choice(scales), rng.choice(scales)
        twists = (rng.choice(scales), rng.choice(scales))
        s1, s2 = rng.choice(scales), rng.choice(scales)
        pairs = [
            (make_poly_quotient(4, k), make_poly_quotient(2, k), lambda a: s1 ** a),
            (
                make_tensor_quotient(2, 2, twists),
                make_tensor_quotient(2, 1, twists),
                lambda w: s1 ** w.count(0) * s2 ** w.count(1),
            ),
            (
                make_qplane_quotient(2, 2, q, k),
                make_qplane_quotient(1, 2, q, k),
                lambda m: s1 ** m[0] * s2 ** m[1],
            ),
        ]
        for big, small, scale in pairs:
            good = rescaling(big, small, scale)
            yield big, small, good
            yield big, small, bumped(good, rng)
            yield big, big, big.qtwist
            yield big, big, bumped(big.qtwist, rng)
            # a bumped twist: the identity from the bumped quotient to the true one
            twisted = FAMILIES[big.family].build(big.params)
            twisted.twist_diagonal[rng.randrange(big.dim)] += rng.choice((1, -1))
            yield twisted, big, Matrix.identity(big.dim)
    square = Matrix([[1 if t == 2 * s else 0 for s in range(4)] for t in range(7)])
    yield make_poly_quotient(3, 4), make_poly_quotient(6, 2), square
    yield make_poly_quotient(3, 3), make_poly_quotient(6, 2), square


def test_sparse_pullbacks_match_the_dense_formulas(monkeypatch):
    morphisms = non_morphisms = 0
    cases = list(dual_side_cases())
    for source, target, induced in cases:
        f = SweedlerFunctional(target, [Fraction(t + 1, 2) - 1 for t in range(target.dim)])
        want = dense_apply(induced.transpose().entries, f.coeffs)
        report = check_algebra_morphism(
            source.as_hom_algebra(), target.as_hom_algebra(),
            LinearMapCandidate(source.dim, target.dim, induced),
        )
        if report.passed:
            morphisms += 1
            assert pullback_functional(source, target, induced, f).coeffs == want
            assert check_pullback_naturality(source, target, induced) == dense_naturality(
                source, target, induced
            )
        else:
            non_morphisms += 1
            for check in (
                lambda: pullback_functional(source, target, induced, f),
                lambda: check_pullback_naturality(source, target, induced),
            ):
                with pytest.raises(MorphismError) as err:
                    check()
                assert err.value.report == report
    assert morphisms >= 20 and non_morphisms >= 20
    # past the morphism check, the violation lists themselves agree
    monkeypatch.setattr(sweedler, "check_algebra_morphism", lambda *args: AxiomReport(()))
    violated = 0
    for source, target, induced in cases:
        f = SweedlerFunctional(target, [Fraction(t + 1, 2) - 1 for t in range(target.dim)])
        want = dense_apply(induced.transpose().entries, f.coeffs)
        assert pullback_functional(source, target, induced, f).coeffs == want
        report = check_pullback_naturality(source, target, induced)
        assert report == dense_naturality(source, target, induced)
        violated += not report.passed
    assert violated >= 20


def _ref_ambient(quotient, margin):
    """The ambient sweep one pair at a time, every pair of the widened box compared as dicts."""
    rules = FAMILIES[quotient.family]
    wide = dict(quotient.params)
    for name in rules.bounds:
        wide[name] = 2 * wide[name] + margin
    keys = rules.keys(wide)
    index = quotient.key_index.get
    out = []
    for u in keys:
        for v in keys:
            if quotient.family == "tensor" and len(u) + len(v) > wide["n"]:
                continue
            idx = index(quotient._times(u, v))
            lhs = {idx: quotient._weight(u, v)} if idx is not None else {}
            rhs = quotient.qmul.get((index(u), index(v)), {})
            if lhs != rhs:
                out.append(("quotient-projection-consistency", (u, v), canon(lhs), canon(rhs)))
    return out


def test_ambient_sweep_matches_the_per_pair_check_on_tampered_tables():
    builders = [lambda: make_poly_quotient(3, Fraction(3, 2)),
                lambda: make_tensor_quotient(2, 2, (2, Fraction(-1, 3))),
                lambda: make_qplane_quotient(2, 2, Fraction(5, 3), -2)]
    seen = set()
    for build in builders:
        for seed in range(6):
            rng = random.Random("ambient/%d" % seed)
            quotient = build()
            n = quotient.dim
            # a table entry where the product dies, a changed one, a missing one
            i, j = rng.randrange(n), rng.randrange(n)
            if seed % 3 == 0:
                quotient.qmul[(n - 1, n - 1)] = {rng.randrange(n): Fraction(rng.randint(1, 5))}
            elif seed % 3 == 1 and (i, j) in quotient.qmul:
                quotient.qmul[(i, j)] = {k: c + 1 for k, c in quotient.qmul[(i, j)].items()}
            else:
                quotient.qmul.pop((i, j), None)
            for margin in (0, 1):
                want = list(verify_hom_algebra(quotient.as_hom_algebra()).violations)
                want += _ref_ambient(quotient, margin)
                got = verify_quotient(quotient, margin).violations
                assert got == tuple(want), (quotient, seed, margin)
                seen.update(name for name, _, lhs, _ in got if lhs == ())
    assert "quotient-projection-consistency" in seen
