"""Structure verifiers, morphism checks and finite duals on the instance zoo."""

from fractions import Fraction

import pytest

from homdual.errors import InputError
from homdual.exact_math import Matrix, mat_rref
from homdual.homalg_core import (
    FiniteHomAlgebra,
    FiniteHomCoalgebra,
    FiniteHomModule,
    LinearMapCandidate,
    check_algebra_morphism,
    check_coalgebra_morphism,
    check_comodule_morphism,
    check_module_morphism,
    dualize_algebra,
    dualize_algebra_morphism,
    dualize_module,
    dualize_module_morphism,
    regular_module,
    verify_hom_algebra,
    verify_hom_coalgebra,
    verify_hom_comodule,
    verify_hom_module,
    yau_twist,
)
from homdual.sweedler import make_poly_quotient
from homdual.zoo import (
    dual_numbers,
    matrix_algebra_2x2,
    permutation_endo,
    scaling_endo_dual_numbers,
    zoo_algebras,
)

ZOO = zoo_algebras()


def divided_power_coalgebra(top=4):
    comul = {n: {(i, n - i): 1 for i in range(n + 1)} for n in range(top + 1)}
    return FiniteHomCoalgebra(top + 1, comul, Matrix.identity(top + 1))


# ---------------------------------------------------------------- verifiers


def test_poly_quotient_algebra_passes():
    alg = make_poly_quotient(5, 2).as_hom_algebra()
    assert verify_hom_algebra(alg).passed


def test_perturbed_poly_quotient_fails():
    alg = make_poly_quotient(5, 2).as_hom_algebra()
    bad = alg.with_mul_entry(1, 2, 3, alg.mul_entry(1, 2, 3) + 1)
    report = verify_hom_algebra(bad)
    assert not report.passed
    axioms = {v[0] for v in report.violations}
    assert axioms <= {"hom-associativity", "twist-multiplicative"}


def test_zoo_passes_verifier():
    for name, alg in ZOO:
        assert verify_hom_algebra(alg).passed, name


def test_classical_associative_identity_twist():
    # diagonal algebras are associative; identity twist reduces the axioms
    alg = FiniteHomAlgebra(
        3, {(i, i): {i: 1} for i in range(3)}, Matrix.identity(3)
    )
    assert verify_hom_algebra(alg).passed


def test_coalgebra_verifier():
    assert verify_hom_coalgebra(divided_power_coalgebra()).passed
    bad = divided_power_coalgebra().with_comul_entry(2, 1, 0, 5)
    assert not verify_hom_coalgebra(bad).passed


def test_dual_of_every_zoo_algebra_is_hom_coalgebra():
    for name, alg in ZOO:
        dual = dualize_algebra(alg)
        assert verify_hom_coalgebra(dual).passed, name


def test_dualize_algebra_dual_numbers():
    dual = dualize_algebra(dual_numbers())
    # e0 is the unit: Delta(d0) = d0 (x) d0, Delta(d1) = d0 (x) d1 + d1 (x) d0
    assert dual.comul_vector(0) == {(0, 0): 1}
    assert dual.comul_vector(1) == {(0, 1): 1, (1, 0): 1}
    assert dual.twist.is_identity()


def test_dualize_algebra_twisted_poly():
    dual = dualize_algebra(make_poly_quotient(3, 2).as_hom_algebra())
    for n in range(4):
        want = {(i, n - i): Fraction(2) ** n for i in range(n + 1)}
        assert dual.comul_vector(n) == want
        assert dual.twist[(n, n)] == Fraction(2) ** n


def test_dualize_zero_product_algebra():
    alg = FiniteHomAlgebra(2, {}, Matrix.identity(2))
    dual = dualize_algebra(alg)
    assert all(dual.comul_vector(k) == {} for k in range(2))


# ---------------------------------------------------------------- morphisms


def test_identity_algebra_morphism():
    alg = make_poly_quotient(4, 2).as_hom_algebra()
    cand = LinearMapCandidate(5, 5, Matrix.identity(5))
    assert check_algebra_morphism(alg, alg, cand).passed


def square_map(dim):
    return Matrix(
        [[1 if t == 2 * s and t < dim else 0 for s in range(dim)] for t in range(dim)]
    )


def test_square_morphism_on_classical_quotient():
    alg = make_poly_quotient(6, 1).as_hom_algebra()
    cand = LinearMapCandidate(7, 7, square_map(7))
    assert check_algebra_morphism(alg, alg, cand).passed


def test_scaling_is_not_algebra_morphism():
    alg = dual_numbers()
    cand = LinearMapCandidate(2, 2, Matrix([[2, 0], [0, 2]]))
    report = check_algebra_morphism(alg, alg, cand)
    assert not report.passed
    assert any(v[0] == "multiplication-compat" for v in report.violations)


def test_coalgebra_morphism_checks():
    coalg = divided_power_coalgebra()
    ident = LinearMapCandidate(5, 5, Matrix.identity(5))
    assert check_coalgebra_morphism(coalg, coalg, ident).passed
    doubled = LinearMapCandidate(
        5, 5, Matrix([[2 * int(i == j) for j in range(5)] for i in range(5)])
    )
    report = check_coalgebra_morphism(coalg, coalg, doubled)
    assert not report.passed


def test_dualized_morphism_is_coalgebra_morphism():
    alg = make_poly_quotient(6, 1).as_hom_algebra()
    cand = LinearMapCandidate(7, 7, square_map(7))
    assert check_algebra_morphism(alg, alg, cand).passed
    dual_cand = dualize_algebra_morphism(cand)
    assert dual_cand.matrix == cand.matrix.transpose()
    dual = dualize_algebra(alg)
    assert check_coalgebra_morphism(dual, dual, dual_cand).passed


def test_dualize_morphism_transpose():
    cand = LinearMapCandidate(2, 2, Matrix([[0, 1], [0, 0]]))
    assert dualize_algebra_morphism(cand).matrix == Matrix([[0, 0], [1, 0]])


def test_failing_morphism_dualizes_to_failing():
    alg = dual_numbers()
    cand = LinearMapCandidate(2, 2, Matrix([[2, 0], [0, 2]]))
    dual = dualize_algebra(alg)
    report = check_coalgebra_morphism(dual, dual, dualize_algebra_morphism(cand))
    assert not report.passed


# ---------------------------------------------------------------- yau twist


def test_yau_twist_identity_endo():
    alg = dual_numbers()
    assert yau_twist(alg, Matrix.identity(2)) == alg


def test_yau_twist_scaled_dual_numbers():
    twisted = yau_twist(dual_numbers(), scaling_endo_dual_numbers(3))
    assert twisted.mul_vector(1, 1) == {}
    assert twisted.mul_vector(0, 1) == {1: 3}
    assert verify_hom_algebra(twisted).passed


def test_yau_twist_rejects_non_morphism():
    # endo(x) = x + 1 is not multiplicative on the dual numbers
    endo = Matrix([[1, 1], [0, 1]])
    with pytest.raises(InputError):
        yau_twist(dual_numbers(), endo)


def test_yau_twist_requires_identity_twist():
    twisted = yau_twist(dual_numbers(), scaling_endo_dual_numbers(2))
    with pytest.raises(InputError):
        yau_twist(twisted, Matrix.identity(2))


def test_yau_twist_permutation_on_matrix_algebra():
    alg = matrix_algebra_2x2()
    twisted = yau_twist(alg, permutation_endo([0, 1, 2, 3]))
    assert twisted == alg


# ---------------------------------------------------------------- modules


def test_regular_modules_pass():
    for name, alg in ZOO:
        module = regular_module(alg)
        assert verify_hom_module(module).passed, name


def test_perturbed_regular_module_fails():
    module = regular_module(make_poly_quotient(4, 2).as_hom_algebra())
    bad = module.with_action_entry(1, 1, 2, module.action_vector(1, 1).get(2, 0) + 1)
    assert not verify_hom_module(bad).passed


def test_zero_module_passes():
    alg = make_poly_quotient(2, 2).as_hom_algebra()
    module = FiniteHomModule(alg, 2, {}, Matrix([[0, 0], [0, 0]]))
    assert verify_hom_module(module).passed


def test_dualized_modules_pass_comodule_check():
    for name, alg in ZOO:
        if len(mat_rref(alg.twist)[1]) < alg.dim:  # twist not invertible
            continue
        comodule = dualize_module(regular_module(alg))
        assert verify_hom_comodule(comodule).passed, name


def test_dualize_module_transposes_constants():
    module = regular_module(dual_numbers())
    comodule = dualize_module(module)
    # action(e1 . e0) = e1 transposes to coaction(d1) holding (1, 0)
    assert comodule.coaction_vector(1) == {(1, 0): 1, (0, 1): 1}
    assert comodule.coaction_vector(0) == {(0, 0): 1}


def test_zero_comodule_passes():
    coalg = dualize_algebra(dual_numbers())
    from homdual.homalg_core import FiniteHomComodule

    comodule = FiniteHomComodule(coalg, 2, {}, Matrix([[0, 0], [0, 0]]))
    assert verify_hom_comodule(comodule).passed


def test_perturbed_comodule_fails():
    comodule = dualize_module(regular_module(make_poly_quotient(3, 2).as_hom_algebra()))
    bad = comodule.with_coaction_entry(0, 0, 1, 7)
    assert not verify_hom_comodule(bad).passed


def test_module_morphism_twist_map():
    alg = make_poly_quotient(5, 2).as_hom_algebra()
    module = regular_module(alg)
    sigma = LinearMapCandidate(alg.dim, alg.dim, alg.twist)
    assert check_module_morphism(module, module, sigma).passed
    # scaling a passing morphism keeps it passing
    scaled = LinearMapCandidate(
        alg.dim,
        alg.dim,
        Matrix([[3 * alg.twist[(i, j)] for j in range(alg.dim)] for i in range(alg.dim)]),
    )
    assert check_module_morphism(module, module, scaled).passed


def test_identity_module_morphism_classical():
    alg = dual_numbers()
    module = regular_module(alg)
    ident = LinearMapCandidate(2, 2, Matrix.identity(2))
    assert check_module_morphism(module, module, ident).passed


def test_identity_fails_between_twisted_regular_modules():
    # sigma(m.g) = sigma(m).alpha(g) forces the twist into the map
    alg = make_poly_quotient(3, 2).as_hom_algebra()
    module = regular_module(alg)
    ident = LinearMapCandidate(4, 4, Matrix.identity(4))
    report = check_module_morphism(module, module, ident)
    assert not report.passed
    assert any(v[0] == "action-compat" for v in report.violations)


def test_module_morphism_needs_common_algebra():
    m1 = regular_module(make_poly_quotient(2, 1).as_hom_algebra())
    m2 = regular_module(make_poly_quotient(2, 2).as_hom_algebra())
    with pytest.raises(InputError):
        check_module_morphism(m1, m2, LinearMapCandidate(3, 3, Matrix.identity(3)))


def test_dual_module_morphism_passes_comodule_check():
    for name, alg in ZOO:
        if len(mat_rref(alg.twist)[1]) < alg.dim:  # twist not invertible
            continue
        module = regular_module(alg)
        sigma = LinearMapCandidate(alg.dim, alg.dim, alg.twist)
        assert check_module_morphism(module, module, sigma).passed, name
        dual = dualize_module(module)
        dual_sigma = dualize_module_morphism(sigma)
        assert dual_sigma.matrix == sigma.matrix.transpose()
        assert check_comodule_morphism(dual, dual, dual_sigma).passed, name


def test_failing_module_morphism_fails_dual_check():
    alg = make_poly_quotient(3, 2).as_hom_algebra()
    module = regular_module(alg)
    ident = LinearMapCandidate(4, 4, Matrix.identity(4))
    dual = dualize_module(module)
    report = check_comodule_morphism(dual, dual, dualize_module_morphism(ident))
    assert not report.passed


# ---------------------------------------------------------------- reports


def test_violation_shape():
    # note x.x = x would still be associative; breaking the unit row is not
    alg = dual_numbers()
    bad = alg.with_mul_entry(0, 1, 0, 1)
    report = verify_hom_algebra(bad)
    assert not report.passed
    name, at, lhs, rhs = report.violations[0]
    assert isinstance(name, str)
    assert isinstance(at, tuple)
    assert lhs != rhs


def test_structure_constants_need_integer_indices_in_a_dict():
    one = Matrix.identity(1)
    for mul in ({("a", 0): [1]}, {(0, 0.5): [1]}, {(0, 0): {True: 1}}, [[[1]]]):
        with pytest.raises(InputError):
            FiniteHomAlgebra(1, mul, one)
    for comul in ({0: {(0, "b"): 1}}, {True: {(0, 0): 1}}, [[[1]]]):
        with pytest.raises(InputError):
            FiniteHomCoalgebra(1, comul, one)
    assert FiniteHomAlgebra(1, {(0, 0): {0: 2}}, one).mul == {(0, 0): {0: 2}}
