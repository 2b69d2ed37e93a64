"""End-to-end acceptance checks, one line of output per shipped guarantee.

Each test prints ACCEPTANCE nn PASS or FAIL so a full run doubles as a
checklist.  All arithmetic is exact; there are no tolerances anywhere.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from homdual import (
    BiPoly,
    BiSequence,
    LinearMapCandidate,
    QParams,
    QPoly,
    annihilation_residual,
    check_comodule_morphism,
    check_module_morphism,
    check_pullback_naturality,
    derive_recursion,
    dual_basis_functional,
    dualize_algebra,
    dualize_module,
    dualize_module_morphism,
    generate_sequence,
    hom_power_left,
    make_poly_quotient,
    make_qplane_quotient,
    make_tensor_quotient,
    minimal_bipoly,
    pullback_functional,
    qbinom,
    quantum_binomial_expand,
    quantum_convolution,
    quotient_dual_coalgebra,
    regular_module,
    sweedler_delta,
    sweedler_twist,
    verify_hom_algebra,
    verify_hom_coalgebra,
    verify_hom_comodule,
    verify_hom_module,
    zoo_algebras,
)
from homdual.exact_math import Matrix, mat_rref

ROOT = Path(__file__).resolve().parent.parent
KS = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(-1))
SEED = 20260815


def table_of(fn, M, N):
    """The table fn(m, n) for 0 <= m <= M, 0 <= n <= N."""
    return BiSequence(M, N, [[fn(m, n) for n in range(N + 1)] for m in range(M + 1)])


def constant_table(value, M, N):
    return table_of(lambda m, n: value, M, N)


def verdict(num, problems):
    print("ACCEPTANCE %02d %s" % (num, "FAIL" if problems else "PASS"))
    assert not problems, "; ".join(str(p) for p in problems[:5])


def ones_keys(r, s, M, N):
    return {
        (m, n)
        for m in range(M + 1)
        for n in range(N + 1)
        if m < r or n < s
    }


def hom_axioms_hold_by_hand(alg):
    """Dense triple-loop check of both axioms, independent of the verifiers."""
    dim = alg.dim
    mul = [
        [[alg.mul.get((i, j), {}).get(t, Fraction(0)) for t in range(dim)] for j in range(dim)]
        for i in range(dim)
    ]
    tw = [[alg.twist[r, c] for c in range(dim)] for r in range(dim)]

    def prod(u, v):
        out = [Fraction(0)] * dim
        for a in range(dim):
            if u[a] == 0:
                continue
            for b in range(dim):
                if v[b] == 0:
                    continue
                scale = u[a] * v[b]
                row = mul[a][b]
                for t in range(dim):
                    if row[t]:
                        out[t] += scale * row[t]
        return out

    def alpha(u):
        return [
            sum(tw[r][c] * u[c] for c in range(dim)) for r in range(dim)
        ]

    basis = [[Fraction(int(i == t)) for t in range(dim)] for i in range(dim)]
    for h in range(dim):
        for k in range(dim):
            if alpha(prod(basis[h], basis[k])) != prod(alpha(basis[h]), alpha(basis[k])):
                return False
    for g in range(dim):
        ag = alpha(basis[g])
        for h in range(dim):
            gh = prod(basis[g], basis[h])
            for k in range(dim):
                if prod(ag, prod(basis[h], basis[k])) != prod(gh, alpha(basis[k])):
                    return False
    return True


def test_acceptance_01_axiom_verifiers():
    problems = []
    # bumping these structure constants by one still leaves a valid table
    # (x*x = x^2 + x^9 is associative in the length-11 truncation, etc.),
    # so the verifier accepting them is soundness, not a miss
    still_valid = {
        Fraction(1): {(0, 0, 10), (1, 1, 9), (1, 1, 10)},
        Fraction(2): set(),
        Fraction(3, 2): set(),
        Fraction(-1): {(0, 0, 10), (1, 1, 10)},
    }
    for k in KS:
        alg = make_poly_quotient(10, k).as_hom_algebra()
        start = time.perf_counter()
        clean = verify_hom_algebra(alg)
        elapsed = time.perf_counter() - start
        if not clean.passed:
            problems.append("clean table rejected at k=%s" % k)
        if elapsed >= 1.0:
            problems.append("exhaustive check took %.2fs at k=%s" % (elapsed, k))
        for i in range(alg.dim):
            for j in range(alg.dim):
                for t in range(alg.dim):
                    bumped = alg.with_mul_entry(i, j, t, alg.mul.get((i, j), {}).get(t, 0) + 1)
                    detected = not verify_hom_algebra(bumped, stop_early=True).passed
                    if (i, j, t) in still_valid[k]:
                        if detected:
                            problems.append(
                                "false alarm at k=%s on %s" % (k, (i, j, t))
                            )
                        elif not hom_axioms_hold_by_hand(bumped):
                            problems.append(
                                "accepted table fails hand check at k=%s %s"
                                % (k, (i, j, t))
                            )
                    elif not detected:
                        problems.append(
                            "missed perturbation %s at k=%s" % ((i, j, t), k)
                        )
    verdict(1, problems)


def test_acceptance_02_finite_duality():
    problems = []
    zoo = zoo_algebras(max_dim=12)
    names = [name for name, _ in zoo]
    for want in (
        "matrix-2x2-conjugated",
        "matrix-2x2-conjugated-scaled",
        "qplane-R2-S2-q2-k1",
        "qplane-R2-S2-q2-k3",
    ):
        if want not in names:
            problems.append("zoo is missing %s" % want)
    for name, alg in zoo:
        if alg.dim > 12:
            problems.append("%s exceeds dim 12" % name)
            continue
        report = verify_hom_coalgebra(dualize_algebra(alg))
        if report.violations:
            problems.append("dual of %s has violations" % name)
    verdict(2, problems)


def test_acceptance_03_quotient_scale_duality():
    problems = []
    quotients = []
    for N in range(11):
        for k in KS:
            quotients.append(make_poly_quotient(N, k))
    for n in range(1, 5):
        quotients.append(make_tensor_quotient(2, n, (2, 3)))
    for R in range(1, 5):
        for S in range(1, 5):
            quotients.append(make_qplane_quotient(R, S, 2, 3))
    for quo in quotients:
        if verify_hom_coalgebra(quotient_dual_coalgebra(quo)).violations:
            problems.append("dual coalgebra fails for %r" % quo)
    for N in range(11):
        for k in KS:
            quo = make_poly_quotient(N, k)
            for n in range(N + 1):
                got = sweedler_delta(quo, dual_basis_functional(quo, n)).terms
                want = {(i, n - i): k ** n for i in range(n + 1)}
                if got != want:
                    problems.append(
                        "delta d_%d wrong over poly(N=%d, k=%s)" % (n, N, k)
                    )
    verdict(3, problems)


def test_acceptance_04_pullback_naturality():
    problems = []
    src = make_poly_quotient(6, 1)
    tgt = make_poly_quotient(6, 1)
    square = Matrix(
        [[Fraction(int(r == 2 * c)) for c in range(7)] for r in range(7)]
    )
    if not check_pullback_naturality(src, tgt, square).passed:
        problems.append("library naturality check failed")
    pulls = [
        pullback_functional(src, tgt, square, dual_basis_functional(tgt, t))
        for t in range(tgt.dim)
    ]
    for t in range(tgt.dim):
        lhs = sweedler_delta(src, pulls[t]).terms
        rhs = {}
        for (i, j), coeff in sweedler_delta(tgt, dual_basis_functional(tgt, t)).terms.items():
            for a, la in enumerate(pulls[i].coeffs):
                for b, rb in enumerate(pulls[j].coeffs):
                    if la and rb:
                        rhs[(a, b)] = rhs.get((a, b), Fraction(0)) + coeff * la * rb
        rhs = {key: val for key, val in rhs.items() if val != 0}
        if lhs != rhs:
            problems.append("delta does not commute with pullback at d_%d" % t)
        lhs_tw = sweedler_twist(src, pulls[t]).coeffs
        rhs_tw = pullback_functional(
            src, tgt, square, sweedler_twist(tgt, dual_basis_functional(tgt, t))
        ).coeffs
        if lhs_tw != rhs_tw:
            problems.append("twist does not commute with pullback at d_%d" % t)
    verdict(4, problems)


def test_acceptance_05_module_duality():
    problems = []
    checked = 0
    for name, alg in zoo_algebras(max_dim=12):
        if len(mat_rref(alg.twist)[1]) < alg.dim:  # twist not invertible
            continue
        checked += 1
        module = regular_module(alg)
        if verify_hom_module(module).violations:
            problems.append("regular module fails for %s" % name)
            continue
        if verify_hom_comodule(dualize_module(module)).violations:
            problems.append("dual comodule fails for %s" % name)
        dual = dualize_module(module)
        for scale in (1, 3):
            sigma = LinearMapCandidate(
                alg.dim,
                alg.dim,
                Matrix(
                    [
                        [scale * alg.twist[r, c] for c in range(alg.dim)]
                        for r in range(alg.dim)
                    ]
                ),
            )
            if not check_module_morphism(module, module, sigma).passed:
                problems.append("twist morphism fails on %s" % name)
                continue
            dual_sigma = dualize_module_morphism(sigma)
            if not check_comodule_morphism(dual, dual, dual_sigma).passed:
                problems.append("dual morphism fails on %s" % name)
    if checked < 10:
        problems.append("only %d invertible-twist instances" % checked)
    verdict(5, problems)


def test_acceptance_06_quantum_binomial():
    problems = []
    start = time.perf_counter()
    for q, k in ((1, 1), (2, 1), (2, 3), (Fraction(5, 3), 2)):
        params = QParams(q, k)
        xy = QPoly(params, {(1, 0): 1, (0, 1): 1})
        for n in range(9):
            if quantum_binomial_expand(n, params).terms != hom_power_left(xy, n).terms:
                problems.append("mismatch at n=%d, q=%s, k=%s" % (n, q, k))
    if time.perf_counter() - start >= 1.0:
        problems.append("expansion exceeded one second")
    verdict(6, problems)


def test_acceptance_07_case_oracle_equivalence():
    problems = []
    rng = random.Random(SEED)
    for case in (1, 2, 3):
        for _ in range(50):
            r = rng.randint(1, 3)
            s = rng.randint(1, 3)
            q = rng.choice((Fraction(1), Fraction(2), Fraction(5, 3)))
            coeffs = {}
            for i in range(r + 1):
                for j in range(s + 1):
                    if (i, j) != (0, 0):
                        val = rng.randint(-3, 3)
                        if val:
                            coeffs[(i, j)] = Fraction(val)
            coeffs[(r, s)] = Fraction(rng.randint(1, 3))
            h = BiPoly(r, s, coeffs)
            boundary = {
                key: Fraction(rng.randint(-5, 5)) for key in ones_keys(r, s, 9, 9)
            }
            table = generate_sequence(h, case, q, boundary, 9, 9)
            for m in range(r, 10):
                for n in range(s, 10):
                    if annihilation_residual(table, h, case, m, n, q, 1) != 0:
                        problems.append(
                            "nonzero residual, case %d at (%d, %d)" % (case, m, n)
                        )
                        break
                else:
                    continue
                break
            m = rng.randint(r, 9)
            n = rng.randint(s, 9)
            stencil = derive_recursion(h, case, m, n, q, 1).as_dict()
            want = {}
            for (i, j), val in h.coeffs.items():
                if case == 1:
                    weight = Fraction(1)
                elif case == 2:
                    weight = q ** (-i * (n - s))
                else:
                    weight = q ** (-j * (m - r))
                want[(i, j)] = weight * val
            if stencil != want:
                problems.append("derived stencil differs, case %d" % case)
    verdict(7, problems)


def test_acceptance_08_delannoy_instance():
    problems = []
    h = BiPoly(1, 1, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    boundary = {key: 1 for key in ones_keys(1, 1, 7, 7)}
    table = generate_sequence(h, 1, 1, boundary, 7, 7)
    for site, want in (((1, 1), 3), ((2, 2), 13), ((3, 3), 63)):
        if table.entry(*site) != want:
            problems.append("f_%s = %s" % (site, table.entry(*site)))
    found = minimal_bipoly(table, 3, 3)
    if found is None:
        problems.append("no annihilator found")
    else:
        r, s, rec = found
        if (r, s) != (1, 1) or rec.coeffs != {(1, 0): 1, (0, 1): 1, (1, 1): 1}:
            problems.append("recovered %s %s" % ((r, s), rec.coeffs))
    verdict(8, problems)


def test_acceptance_09_q_combinatorics():
    problems = []
    for q in (Fraction(2), Fraction(5, 3), Fraction(-1)):
        for n in range(1, 13):
            if qbinom(n, 0, q) != 1 or qbinom(n, n, q) != 1:
                problems.append("border not 1 at n=%d, q=%s" % (n, q))
            for i in range(1, n):
                lhs = qbinom(n, i, q)
                rhs = qbinom(n - 1, i - 1, q) + q ** i * qbinom(n - 1, i, q)
                if lhs != rhs:
                    problems.append("recurrence fails at (%d, %d), q=%s" % (n, i, q))
    if qbinom(4, 2, 2) != 35:
        problems.append("binom(4,2) at q=2 is %s" % qbinom(4, 2, 2))
    for n in range(11):
        for i in range(n + 1):
            if qbinom(n, i, 1) != math.comb(n, i):
                problems.append("q=1 disagrees with comb at (%d, %d)" % (n, i))
    verdict(9, problems)


def test_acceptance_10_convolution_sanity():
    problems = []
    ones_f = constant_table(1, 11, 5)
    ones_g = constant_table(1, 5, 5)
    out = quantum_convolution(ones_f, ones_g, 1, 5, 5)
    for m in range(6):
        for n in range(6):
            if out.entry(m, n) != 2 ** n:
                problems.append("all-ones window wrong at (%d, %d)" % (m, n))
    rng = random.Random(SEED)

    def rand_table(M, N):
        return table_of(
            lambda m, n: Fraction(rng.randint(-4, 4)), M, N
        )

    q = Fraction(5, 3)
    for _ in range(5):
        f1 = rand_table(6, 3)
        f2 = rand_table(6, 3)
        g = rand_table(3, 3)
        merged = table_of(
            lambda m, n: f1.entry(m, n) + f2.entry(m, n), 6, 3
        )
        h1 = quantum_convolution(f1, g, q, 3, 3)
        h2 = quantum_convolution(f2, g, q, 3, 3)
        both = quantum_convolution(merged, g, q, 3, 3)
        tripled = quantum_convolution(
            f1,
            table_of(lambda m, n: 3 * g.entry(m, n), 3, 3),
            q, 3, 3,
        )
        for m in range(4):
            for n in range(4):
                if both.entry(m, n) != h1.entry(m, n) + h2.entry(m, n):
                    problems.append("additivity fails at (%d, %d)" % (m, n))
                if tripled.entry(m, n) != 3 * h1.entry(m, n):
                    problems.append("homogeneity fails at (%d, %d)" % (m, n))
    verdict(10, problems)


def test_acceptance_11_cli_golden():
    problems = []
    calls = [
        ("verify", "instances/poly_quotient_N5_k2.json"),
        ("seq-gen", "--h", "instances/delannoy.json", "--case", "1", "--q", "1",
         "--boundary", "ones", "--M", "3", "--N", "3"),
        ("seq-oracle", "--table", "instances/delannoy_table_8x8.json",
         "--h", "instances/delannoy.json", "--case", "1", "--q", "1",
         "--k", "1", "--all"),
        ("expand", "--op", "qbinom-formula", "--n", "2", "--q", "2", "--k", "3"),
    ]

    # the child imports homdual from this checkout's src/
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def run(call):
        return subprocess.run(
            [sys.executable, "-m", "homdual", *call],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )

    reports = []
    for call in calls:
        first = run(call)
        second = run(call)
        if first.returncode != 0:
            problems.append("%s exited %d" % (call[0], first.returncode))
        if first.stdout != second.stdout:
            problems.append("%s not byte-identical across runs" % call[0])
        reports.append(json.loads(first.stdout))
    if reports[0]["status"] != "pass":
        problems.append("verify example did not pass")
    if reports[1]["result"]["entries"][3][3] != "63":
        problems.append("seq-gen example f_33 wrong")
    if any(r != "0" for _, _, r in reports[2]["result"]["residuals"]):
        problems.append("seq-oracle example has nonzero residual")
    if reports[3]["result"]["poly"] != "9*x^2 + 27*x*y + 9*y^2":
        problems.append("expand example polynomial wrong")
    verdict(11, problems)
