"""Structure verifiers, morphism checks and finite duals on the instance zoo."""

import random
from fractions import Fraction

import pytest

from homdual import homalg_core
from homdual.errors import InputError
from homdual.exact_math import Matrix, mat_rref
from homdual.homalg_core import (
    FiniteHomAlgebra,
    FiniteHomCoalgebra,
    FiniteHomComodule,
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
from homdual.sweedler import make_poly_quotient, make_qplane_quotient, make_tensor_quotient
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
    bad = alg.with_mul_entry(1, 2, 3, alg.mul[(1, 2)][3] + 1)
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
    assert dual.comul == {0: {(0, 0): 1}, 1: {(0, 1): 1, (1, 0): 1}}
    assert dual.twist.is_identity()


def test_dualize_algebra_twisted_poly():
    dual = dualize_algebra(make_poly_quotient(3, 2).as_hom_algebra())
    for n in range(4):
        want = {(i, n - i): Fraction(2) ** n for i in range(n + 1)}
        assert dual.comul[n] == want
        assert dual.twist[(n, n)] == Fraction(2) ** n


def test_dualize_zero_product_algebra():
    alg = FiniteHomAlgebra(2, {}, Matrix.identity(2))
    dual = dualize_algebra(alg)
    assert dual.comul == {}


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
    assert (1, 1) not in twisted.mul
    assert twisted.mul[(0, 1)] == {1: 3}
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
    bad = module.with_action_entry(1, 1, 2, module.action[(1, 1)].get(2, 0) + 1)
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
    assert comodule.coaction == {0: {(0, 0): 1}, 1: {(1, 0): 1, (0, 1): 1}}


def test_zero_comodule_passes():
    coalg = dualize_algebra(dual_numbers())
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


# ------------------------------------------- the Fraction engine, as reference
#
# The contraction engine as it was before it ran on integer-scaled tables:
# the same sweeps on Fraction tables, the two sides of each tuple compared as
# Fractions.  The fraction-free engine must report exactly what it reports.


def _ref_add_scaled(acc, scale, vec):
    if scale == 0:
        return
    for key, val in vec.items():
        new = acc.get(key, 0) + scale * val
        if new == 0:
            acc.pop(key, None)
        else:
            acc[key] = new


def _ref_apply(cols, vec):
    out = {}
    for i, vi in vec.items():
        _ref_add_scaled(out, vi, cols[i])
    return out


def _ref_bilinear(table, u, v):
    out = {}
    for a, ua in u.items():
        for b, vb in v.items():
            _ref_add_scaled(out, ua * vb, table.get((a, b), {}))
    return out


def _ref_cols(matrix):
    return [
        {i: matrix[i, j] for i in range(matrix.rows) if matrix[i, j] != 0}
        for j in range(matrix.cols)
    ]


def _ref_flip(table):
    out = {}
    for outer, vec in table.items():
        for inner, c in vec.items():
            out.setdefault(inner, {})[outer] = c
    return out


def _ref_pairs(f, src, dst, g):
    for x in range(len(f)):
        for y in range(len(g)):
            sxy = src.get((x, y), {})
            if sxy or (f[x] and g[y]):
                yield (x, y), _ref_apply(f, sxy), _ref_bilinear(dst, f[x], g[y])


def _ref_triples(t, f, left, right, g):
    reach = {}
    for p, q in t:
        reach.setdefault(p, set()).add(q)
    rows = {}
    for (y, z), vec in sorted(left.items()):
        rows.setdefault(y, []).append((z, vec))
    hits = {}
    for z, vec in enumerate(g):
        for q in vec:
            hits.setdefault(q, []).append(z)

    def reached(vec):
        return set().union(*(reach.get(p, ()) for p in vec))

    for x in range(len(f)):
        lhs_q = reached(f[x])
        for y in range(len(g)):
            rxy = right.get((x, y), {})
            zs = {z for z, lyz in rows.get(y, ()) if not lhs_q.isdisjoint(lyz)}
            zs.update(z for q in reached(rxy) for z in hits.get(q, ()))
            for z in sorted(zs):
                yield (
                    (x, y, z),
                    _ref_bilinear(t, f[x], left.get((y, z), {})),
                    _ref_bilinear(t, rxy, g[z]),
                )


def _ref_commutes(f, a, b):
    for x in range(len(a)):
        yield (x,), _ref_apply(f, a[x]), _ref_apply(b, f[x])


def _ref_swapped(sweep):
    return ((at, rhs, lhs) for at, lhs, rhs in sweep)


_REF_DUAL = {
    "twist-multiplicative": ("twist-comultiplicative", False),
    "hom-associativity": ("hom-coassociativity", False),
    "module-twist-compatibility": ("comodule-twist-compatibility", False),
    "module-hom-associativity": ("comodule-hom-coassociativity", False),
    "multiplication-compat": ("comultiplication-compat", True),
    "action-compat": ("coaction-compat", False),
    "twist-compat": ("twist-compat", True),
}


def _ref_by_output(sweep, swapped):
    left, right = {}, {}
    for at, lhs, rhs in sweep:
        for k, val in lhs.items():
            left.setdefault(k, {})[at] = val
        for k, val in rhs.items():
            right.setdefault(k, {})[at] = val
    if swapped:
        left, right = right, left
    for k in sorted(left.keys() | right.keys()):
        yield (k,), left.get(k, {}), right.get(k, {})


def _ref_dual(axioms):
    return {
        _REF_DUAL[name][0]: _ref_by_output(sweep, _REF_DUAL[name][1])
        for name, sweep in axioms.items()
    }


def _ref_canon(sparse):
    out = [((key if isinstance(key, tuple) else (key,)), val) for key, val in sparse.items() if val]
    return tuple(sorted(out, key=lambda kv: kv[0]))


def _ref_report(axioms, stop_early=False):
    violations = []
    for name, sweep in axioms.items():
        for at, lhs, rhs in sweep:
            if lhs != rhs:
                violations.append((name, at, _ref_canon(lhs), _ref_canon(rhs)))
                if stop_early:
                    return tuple(violations)
    return tuple(violations)


def _ref_algebra_axioms(mul, tw):
    return {
        "twist-multiplicative": _ref_pairs(tw, mul, mul, tw),
        "hom-associativity": _ref_triples(mul, tw, mul, mul, tw),
    }


def _ref_module_axioms(act, gam, mul, tw):
    return {
        "module-twist-compatibility": _ref_swapped(_ref_pairs(gam, act, act, tw)),
        "module-hom-associativity": _ref_swapped(_ref_triples(act, gam, mul, act, tw)),
    }


def _ref_algebra_morphism_axioms(f, mul, tw, mul2, tw2):
    return {
        "multiplication-compat": _ref_pairs(f, mul, mul2, f),
        "twist-compat": _ref_commutes(f, tw, tw2),
    }


def _ref_module_morphism_axioms(f, act, gam, act2, gam2, tw):
    return {
        "action-compat": _ref_pairs(f, act, act2, tw),
        "twist-compat": _ref_swapped(_ref_commutes(f, gam, gam2)),
    }


def _ref_algebra_of(coalgebra):
    return _ref_flip(coalgebra.comul), _ref_cols(coalgebra.twist.transpose())


def _ref_module_of(comodule):
    return _ref_flip(comodule.coaction), _ref_cols(comodule.mtwist.transpose())


REFERENCE = {
    "algebra": lambda a, early: _ref_report(
        _ref_algebra_axioms(a.mul, _ref_cols(a.twist)), early
    ),
    "coalgebra": lambda c, early: _ref_report(
        _ref_dual(_ref_algebra_axioms(*_ref_algebra_of(c))), early
    ),
    "module": lambda m, early: _ref_report(
        _ref_module_axioms(
            m.action, _ref_cols(m.mtwist), m.algebra.mul, _ref_cols(m.algebra.twist)
        ),
        early,
    ),
    "comodule": lambda m, early: _ref_report(
        _ref_dual(_ref_module_axioms(*_ref_module_of(m), *_ref_algebra_of(m.coalgebra))), early
    ),
}


def _ref_algebra_morphism(source, target, cand):
    axioms = _ref_algebra_morphism_axioms(
        _ref_cols(cand.matrix), source.mul, _ref_cols(source.twist),
        target.mul, _ref_cols(target.twist),
    )
    return _ref_report(axioms)


def _ref_coalgebra_morphism(source, target, cand):
    axioms = _ref_algebra_morphism_axioms(
        _ref_cols(cand.matrix.transpose()), *_ref_algebra_of(target), *_ref_algebra_of(source)
    )
    return _ref_report(_ref_dual(axioms))


def _ref_module_morphism(source, target, cand):
    axioms = _ref_module_morphism_axioms(
        _ref_cols(cand.matrix), source.action, _ref_cols(source.mtwist),
        target.action, _ref_cols(target.mtwist), _ref_cols(source.algebra.twist),
    )
    return _ref_report(axioms)


def _ref_comodule_morphism(source, target, cand):
    tw = _ref_cols(source.coalgebra.twist.transpose())
    axioms = _ref_module_morphism_axioms(
        _ref_cols(cand.matrix.transpose()), *_ref_module_of(target), *_ref_module_of(source), tw
    )
    return _ref_report(_ref_dual(axioms))


def _ref_yau_twist(assoc, endo):
    """The Yau twist, or the InputError message."""
    if not assoc.twist.is_identity():
        return "yau_twist input must carry the identity twist"
    cols = _ref_cols(endo)
    for at, lhs, rhs in _ref_algebra_axioms(assoc.mul, cols)["twist-multiplicative"]:
        if lhs != rhs:
            return "endo is not an algebra endomorphism: fails at basis pair (%d, %d)" % at
    return FiniteHomAlgebra(
        assoc.dim, {key: _ref_apply(cols, vec) for key, vec in assoc.mul.items()}, endo
    )


# ------------------------------------------------------ seeded structures

DENOMINATORS = (1, 1, 2, 3, 5, 7, 11, 13, 49, 97)


def _scalar(rng, zero=0.4):
    if rng.random() < zero:
        return 0
    return Fraction(rng.choice((-7, -3, -2, -1, 1, 1, 2, 5)), rng.choice(DENOMINATORS))


def _matrix(rng, rows, cols, zero=0.4):
    return Matrix([[_scalar(rng, zero) for _ in range(cols)] for _ in range(rows)], cols=cols)


def _table(rng, keys, out, zero):
    return {key: {k: _scalar(rng, zero) for k in range(out)} for key in keys}


def _grid(*sizes):
    return [(a, b) for a in range(sizes[0]) for b in range(sizes[1])]


def _random_algebra(rng):
    """Random constants (some tables zero), or a zoo algebra, perhaps perturbed."""
    pick = rng.random()
    if pick < 0.35:
        name, alg = rng.choice(ZOO[:8])
        if rng.random() < 0.6:
            i, j, k = (rng.randrange(alg.dim) for _ in range(3))
            alg = alg.with_mul_entry(i, j, k, _scalar(rng, 0))
        return alg
    dim = rng.choice((1, 1, 2, 3, 4))
    zero = rng.choice((0.3, 0.7, 1.0))  # 1.0: the zero table
    twist = Matrix.identity(dim) if rng.random() < 0.3 else _matrix(rng, dim, dim)
    return FiniteHomAlgebra(dim, _table(rng, _grid(dim, dim), dim, zero), twist)


def _random_module(rng, alg, mdim=None):
    mdim = mdim or rng.choice((1, 2, 3))
    if rng.random() < 0.3 and mdim == alg.dim:
        return FiniteHomModule(alg, mdim, dict(alg.mul), _matrix(rng, mdim, mdim))
    zero = rng.choice((0.5, 0.8, 1.0))
    action = _table(rng, _grid(mdim, alg.dim), mdim, zero)
    return FiniteHomModule(alg, mdim, action, _matrix(rng, mdim, mdim))


def _random_coalgebra(rng):
    if rng.random() < 0.5:
        return dualize_algebra(_random_algebra(rng))
    dim = rng.choice((1, 2, 3))
    comul = {k: {key: _scalar(rng, 0.6) for key in _grid(dim, dim)} for k in range(dim)}
    return FiniteHomCoalgebra(dim, comul, _matrix(rng, dim, dim))


def _random_comodule(rng, coalg, mdim=None):
    mdim = mdim or rng.choice((1, 2, 3))
    coaction = {a: {key: _scalar(rng, 0.6) for key in _grid(mdim, coalg.dim)} for a in range(mdim)}
    return FiniteHomComodule(coalg, mdim, coaction, _matrix(rng, mdim, mdim))


def _candidate(rng, source_dim, target_dim, near=None):
    """A rational candidate map, or a passing one (near) perhaps with one entry changed."""
    if near is not None and rng.random() < 0.5:
        rows = [list(row) for row in near.entries]
        if rng.random() < 0.5:
            rows[rng.randrange(target_dim)][rng.randrange(source_dim)] = _scalar(rng, 0)
        return LinearMapCandidate(source_dim, target_dim, Matrix(rows, cols=source_dim))
    return LinearMapCandidate(source_dim, target_dim, _matrix(rng, target_dim, source_dim, 0.5))


def _all_fractions(violations):
    return all(
        type(value) is Fraction
        for _, _, lhs, rhs in violations
        for _, value in lhs + rhs
    )


def test_fraction_free_engine_matches_the_fraction_engine():
    verify = {
        "algebra": verify_hom_algebra,
        "coalgebra": verify_hom_coalgebra,
        "module": verify_hom_module,
        "comodule": verify_hom_comodule,
    }
    seen = {}  # entry point -> [calls, calls with violations]

    def compare(label, got, want):
        assert got.violations == want, label
        assert _all_fractions(got.violations), label
        tally = seen.setdefault(label.split("/")[0], [0, 0])
        tally[0] += 1
        tally[1] += bool(want)

    for seed in range(120):
        rng = random.Random("fraction-free/%d" % seed)
        alg = _random_algebra(rng)
        coalg = _random_coalgebra(rng)
        mdim = rng.choice((1, 2, 3))
        modules = [_random_module(rng, alg, mdim) for _ in range(2)]
        comodules = [_random_comodule(rng, coalg, mdim) for _ in range(2)]
        structures = [("algebra", alg), ("coalgebra", coalg), ("coalgebra", dualize_algebra(alg))]
        structures += [("module", m) for m in modules] + [("comodule", m) for m in comodules]
        structures.append(("module", regular_module(alg)))
        structures.append(("comodule", dualize_module(modules[0])))
        for kind, s in structures:
            for early in (False, True):
                compare("%s/%d/%s" % (kind, seed, early), verify[kind](s, stop_early=early),
                        REFERENCE[kind](s, early))

        other = _random_algebra(rng)
        cand = _candidate(rng, alg.dim, other.dim)
        compare("algebra-morphism/%d" % seed, check_algebra_morphism(alg, other, cand),
                _ref_algebra_morphism(alg, other, cand))
        cand = _candidate(rng, alg.dim, alg.dim, near=Matrix.identity(alg.dim))
        compare("algebra-morphism/%d/self" % seed, check_algebra_morphism(alg, alg, cand),
                _ref_algebra_morphism(alg, alg, cand))
        dual, dual_other = dualize_algebra(alg), dualize_algebra(other)
        cand = _candidate(rng, other.dim, alg.dim)
        compare("coalgebra-morphism/%d" % seed, check_coalgebra_morphism(dual_other, dual, cand),
                _ref_coalgebra_morphism(dual_other, dual, cand))
        cand = _candidate(rng, coalg.dim, coalg.dim, near=Matrix.identity(coalg.dim))
        compare("coalgebra-morphism/%d/self" % seed, check_coalgebra_morphism(coalg, coalg, cand),
                _ref_coalgebra_morphism(coalg, coalg, cand))
        cand = _candidate(rng, mdim, mdim, near=modules[0].mtwist)
        compare("module-morphism/%d" % seed,
                check_module_morphism(modules[0], modules[1], cand),
                _ref_module_morphism(modules[0], modules[1], cand))
        module = regular_module(alg)
        cand = _candidate(rng, alg.dim, alg.dim, near=alg.twist)
        compare("module-morphism/%d/regular" % seed, check_module_morphism(module, module, cand),
                _ref_module_morphism(module, module, cand))
        cand = _candidate(rng, mdim, mdim, near=comodules[0].mtwist)
        compare("comodule-morphism/%d" % seed,
                check_comodule_morphism(comodules[0], comodules[1], cand),
                _ref_comodule_morphism(comodules[0], comodules[1], cand))
        comodule = dualize_module(module)
        cand = _candidate(rng, alg.dim, alg.dim, near=alg.twist.transpose())
        compare("comodule-morphism/%d/dual" % seed,
                check_comodule_morphism(comodule, comodule, cand),
                _ref_comodule_morphism(comodule, comodule, cand))

        n = alg.dim
        assoc = FiniteHomAlgebra(n, alg.mul, Matrix.identity(n))
        for source, endo in ((assoc, _matrix(rng, n, n)), (assoc, Matrix.identity(n)),
                             (assoc, alg.twist), (alg, Matrix.identity(n))):
            want = _ref_yau_twist(source, endo)
            try:
                got = yau_twist(source, endo)
            except InputError as exc:
                got = str(exc)
            else:
                assert all(type(v) is Fraction for vec in got.mul.values() for v in vec.values())
            assert got == want, seed
            tally = seen.setdefault("yau_twist", [0, 0])
            tally[0] += 1
            tally[1] += isinstance(want, str)

    # every entry point met both verdicts many times
    assert len(seen) == 9
    for label, (calls, failing) in seen.items():
        assert failing >= 10 and calls - failing >= 10, (label, calls, failing)


# --------------------------------------------- block sweeps against the reference
#
# The engine compares whole blocks (one per leading basis index) and splits only
# a differing block into its tuples.  These cases aim at what a block comparison
# could get wrong: sides that cancel to zero on swept tuples, zero twist columns,
# and large structures whose one mutated constant fails on many outputs.


def _cancelling(rng, dim):
    """Product rows and columns 1 and 2 equal; twist columns e_1 - e_2, a zero one, others random."""
    mul = {}
    for i in range(dim):
        for j in range(dim):
            a, b = (1 if i == 2 else i), (1 if j == 2 else j)
            if (a, b) not in mul:
                mul[(a, b)] = {k: _scalar(rng, 0) for k in range(dim) if rng.random() < 0.6}
            mul[(i, j)] = dict(mul[(a, b)])
    rows = [[_scalar(rng, 0.5) for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        rows[i][0] = Fraction(int(i == 1) - int(i == 2))
        rows[i][dim - 1] = 0
    return FiniteHomAlgebra(dim, mul, Matrix(rows, cols=dim))


def _zero_columns(rng, matrix):
    """The matrix with each column zeroed with probability 1/2, and at least one zeroed."""
    dead = {j for j in range(matrix.cols) if rng.random() < 0.5} or {0}
    return Matrix([[0 if j in dead else x for j, x in enumerate(row)] for row in matrix.entries],
                  cols=matrix.cols)


def _cancelled_tuples(alg):
    """Swept tuples of the reference whose left side cancels to zero."""
    axioms = _ref_algebra_axioms(alg.mul, _ref_cols(alg.twist))
    return sum(not lhs for sweep in axioms.values() for _, lhs, _ in sweep)


def _compare_all(label, alg, module):
    structures = [("algebra", alg), ("coalgebra", dualize_algebra(alg)), ("module", module),
                  ("comodule", dualize_module(module))]
    verify = {"algebra": verify_hom_algebra, "coalgebra": verify_hom_coalgebra,
              "module": verify_hom_module, "comodule": verify_hom_comodule}
    failing = 0
    for kind, s in structures:
        for early in (False, True):
            want = REFERENCE[kind](s, early)
            assert verify[kind](s, stop_early=early).violations == want, (label, kind, early)
            failing += bool(want)
    return failing


def test_block_engine_matches_the_reference_where_sides_cancel():
    cancelled = failing = 0
    for seed in range(16):
        rng = random.Random("cancel/%d" % seed)
        dim = rng.choice((3, 4, 5))
        alg = _cancelling(rng, dim)
        cancelled += _cancelled_tuples(alg)
        module = FiniteHomModule(alg, dim, alg.mul, alg.twist)
        failing += _compare_all(seed, alg, module)
        mutant = alg.with_mul_entry(1, 1, rng.randrange(dim), _scalar(rng, 0))
        failing += _compare_all(seed, mutant, regular_module(mutant))
        cand = LinearMapCandidate(dim, dim, alg.twist)
        assert check_algebra_morphism(alg, alg, cand).violations == _ref_algebra_morphism(
            alg, alg, cand)
        dual = dualize_algebra(alg)
        adjoint = dualize_algebra_morphism(cand)
        assert check_coalgebra_morphism(dual, dual, adjoint).violations == (
            _ref_coalgebra_morphism(dual, dual, adjoint))
        assert check_module_morphism(module, module, cand).violations == _ref_module_morphism(
            module, module, cand)
        comodule = dualize_module(module)
        assert check_comodule_morphism(comodule, comodule, adjoint).violations == (
            _ref_comodule_morphism(comodule, comodule, adjoint))
    assert cancelled >= 100 and failing >= 40, (cancelled, failing)


def test_block_engine_matches_the_reference_with_zero_twist_columns():
    failing = 0
    for seed in range(60):
        rng = random.Random("zero-columns/%d" % seed)
        alg = _random_algebra(rng)
        alg = FiniteHomAlgebra(alg.dim, alg.mul, _zero_columns(rng, alg.twist))
        mdim = rng.choice((1, 2, 3))
        module = _random_module(rng, alg, mdim)
        module = FiniteHomModule(alg, mdim, module.action, _zero_columns(rng, module.mtwist))
        failing += _compare_all(seed, alg, module)
        cand = LinearMapCandidate(alg.dim, alg.dim, _zero_columns(rng, alg.twist))
        assert check_algebra_morphism(alg, alg, cand).violations == _ref_algebra_morphism(
            alg, alg, cand)
    assert failing >= 40, failing


def test_block_engine_matches_the_reference_on_large_mutated_quotients():
    quotients = [make_qplane_quotient(4, 4, Fraction(5, 3), Fraction(-1, 2)),
                 make_poly_quotient(26, Fraction(-2, 3)),
                 make_tensor_quotient(2, 4, (Fraction(1, 2), -3))]
    for quotient in quotients:
        alg = quotient.as_hom_algebra()
        assert alg.dim >= 25
        rng = random.Random("large/%r" % quotient)
        i, j = rng.randrange(1, 4), rng.randrange(1, 4)
        k = rng.choice(sorted(alg.mul.get((i, j), {0: 0})))
        mutant = alg.with_mul_entry(i, j, k, alg.mul.get((i, j), {}).get(k, 0) + Fraction(1, 2))
        assert _compare_all(quotient, mutant, regular_module(mutant)) == 8
        # the coalgebra side of one mutated constant fails on several outputs
        outputs = {at for _, at, _, _ in verify_hom_coalgebra(dualize_algebra(mutant)).violations}
        assert len(outputs) > 1


def _counting(monkeypatch):
    """Wrap the sweep builders so that every run of a sweep is counted, by builder name."""
    runs = {}
    for name in ("_pairs", "_triples", "_commutes"):
        build = getattr(homalg_core, name)

        def counted(*args, name=name, build=build):
            blocks, common = build(*args)

            def again():
                runs[name] = runs.get(name, 0) + 1
                return blocks()

            return again, common

        monkeypatch.setattr(homalg_core, name, counted)
    return runs


def test_a_passing_coalgebra_check_runs_each_sweep_once(monkeypatch):
    alg = make_qplane_quotient(3, 3, Fraction(5, 3), Fraction(-1, 2)).as_hom_algebra()
    runs = _counting(monkeypatch)
    assert verify_hom_coalgebra(dualize_algebra(alg)).passed
    assert runs == {"_pairs": 1, "_triples": 1}
    runs.clear()
    assert verify_hom_comodule(dualize_module(regular_module(alg))).passed
    assert runs == {"_pairs": 1, "_triples": 1}
    runs.clear()
    dual = dualize_algebra(alg)
    ident = LinearMapCandidate(alg.dim, alg.dim, Matrix.identity(alg.dim))
    assert check_coalgebra_morphism(dual, dual, ident).passed
    assert runs == {"_pairs": 1, "_commutes": 1}
    # only a failing sweep is run a second time, to regroup it by output
    runs.clear()
    report = verify_hom_coalgebra(dualize_algebra(alg.with_mul_entry(1, 1, 2, 7)))
    assert {name for name, _, _, _ in report.violations} == {"hom-coassociativity"}
    assert runs == {"_pairs": 1, "_triples": 2}
