"""Golden report corpus: every structure check, dual, recursion and CLI report, frozen.

Each case is a named thunk whose result is rendered as compact canonical
JSON.  corpus.json stores one case per line: the JSON itself when it is
short, otherwise "sha256:<hex digest of the rendering>".  test_golden.py
re-renders every case and compares byte for byte.

Extend the corpus by adding cases here and running

    PYTHONPATH=src python tests/golden/generate.py

It only adds new case names: it writes nothing and exits nonzero, listing
the names, if a case already in corpus.json renders differently or is gone.
To re-freeze a case on purpose, delete its line from corpus.json by hand.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from homdual import cli, documents
from homdual.errors import InputError
from homdual.exact_math import Matrix, mat_kernel, mat_rref, rat_str
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
from homdual.qplane import (
    QParams,
    QPoly,
    classical_product,
    hom_power_left,
    hom_product,
    qbinom,
    twist,
)
from homdual.recseq import (
    BiPoly,
    BiSequence,
    annihilation_residual,
    derive_recursion,
    generate_sequence,
    generate_sequence_derived,
    minimal_bipoly,
    quantum_convolution,
    row_minimal_polys,
)
from homdual.sweedler import (
    SweedlerFunctional,
    add_functionals,
    check_pullback_naturality,
    dual_basis_functional,
    make_poly_quotient,
    make_qplane_quotient,
    make_tensor_quotient,
    pullback_functional,
    quotient_dual_coalgebra,
    sweedler_twist,
    verify_quotient,
)
from homdual.zoo import (
    conjugation_endo_2x2,
    diagonal_algebra,
    dual_numbers,
    matrix_algebra_2x2,
    scaling_endo_dual_numbers,
    zoo_algebras,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CORPUS = HERE / "corpus.json"
INLINE_LIMIT = 1024  # renderings longer than this are stored as a digest
MUTATIONS = 4
BUMPS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))


def _plain(value):
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _report(report):
    return {"passed": report.passed, "violations": _plain(report.violations)}


def _guarded(thunk):
    """Run a thunk; an InputError (or subclass) becomes part of the rendering."""
    try:
        return thunk()
    except InputError as exc:
        out = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(exc, "report", None) is not None:
            out["report"] = _report(exc.report)
        return out


def _cli(*argv, cwd=ROOT):
    out, err = io.StringIO(), io.StringIO()
    back = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(list(argv))
    finally:
        os.chdir(back)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


# ----------------------------------------------------------------- mutations


def _bumped_twist(matrix, rng):
    r, c = rng.randrange(matrix.rows), rng.randrange(matrix.cols)
    rows = [list(row) for row in matrix.entries]
    rows[r][c] += rng.choice(BUMPS)
    return Matrix(rows, cols=matrix.cols)


def _mutants(kind, s, rng):
    """MUTATIONS single-constant edits of the table, then one twist edit."""
    out = []
    for _ in range(MUTATIONS):
        bump = rng.choice(BUMPS)
        if kind == "algebra":
            i, j, k = (rng.randrange(s.dim) for _ in range(3))
            out.append(s.with_mul_entry(i, j, k, s.mul.get((i, j), {}).get(k, 0) + bump))
        elif kind == "coalgebra":
            k, i, j = (rng.randrange(s.dim) for _ in range(3))
            old = s.comul.get(k, {}).get((i, j), 0)
            out.append(s.with_comul_entry(k, i, j, old + bump))
        elif kind == "module":
            a, b = rng.randrange(s.mdim), rng.randrange(s.mdim)
            i = rng.randrange(s.algebra.dim)
            old = s.action.get((a, i), {}).get(b, 0)
            out.append(s.with_action_entry(a, i, b, old + bump))
        else:
            a, b = rng.randrange(s.mdim), rng.randrange(s.mdim)
            i = rng.randrange(s.coalgebra.dim)
            old = s.coaction.get(a, {}).get((b, i), 0)
            out.append(s.with_coaction_entry(a, b, i, old + bump))
    if kind == "algebra":
        out.append(FiniteHomAlgebra(s.dim, s.mul, _bumped_twist(s.twist, rng)))
    elif kind == "coalgebra":
        out.append(FiniteHomCoalgebra(s.dim, s.comul, _bumped_twist(s.twist, rng)))
    elif kind == "module":
        out.append(
            FiniteHomModule(s.algebra, s.mdim, s.action, _bumped_twist(s.mtwist, rng))
        )
    else:
        out.append(
            FiniteHomComodule(s.coalgebra, s.mdim, s.coaction, _bumped_twist(s.mtwist, rng))
        )
    return out


def _bumped_map(candidate, rng):
    return LinearMapCandidate(
        candidate.source_dim,
        candidate.target_dim,
        _bumped_twist(candidate.matrix, rng),
    )


def _random_map(source_dim, target_dim, rng):
    rows = [
        [rng.choice((0, 0, 1, -1, 2)) for _ in range(source_dim)]
        for _ in range(target_dim)
    ]
    return LinearMapCandidate(source_dim, target_dim, Matrix(rows, cols=source_dim))


# --------------------------------------------------------------------- cases

VERIFY = {
    "algebra": verify_hom_algebra,
    "coalgebra": verify_hom_coalgebra,
    "module": verify_hom_module,
    "comodule": verify_hom_comodule,
}


def _verify_cases(cases, prefix, kind, structure):
    verify = VERIFY[kind]
    cases[prefix] = lambda: _report(verify(structure))
    cases[prefix + "/early"] = lambda: _report(verify(structure, stop_early=True))


def _zoo_cases(cases):
    for name, alg in zoo_algebras():
        dual = dualize_algebra(alg)
        module = regular_module(alg)
        comodule = dualize_module(module)
        cases["dual-doc/%s" % name] = lambda dual=dual: documents.coalgebra_doc(dual)
        cases["comodule-doc/%s" % name] = (
            lambda comodule=comodule: documents.comodule_doc(comodule)
        )
        for kind, structure in (
            ("algebra", alg),
            ("coalgebra", dual),
            ("module", module),
            ("comodule", comodule),
        ):
            prefix = "zoo/%s/%s" % (name, kind)
            _verify_cases(cases, prefix, kind, structure)
            rng = random.Random(prefix)
            for n, mutant in enumerate(_mutants(kind, structure, rng)):
                _verify_cases(cases, "%s/mutant-%d" % (prefix, n), kind, mutant)
        _morphism_cases(cases, name, alg, dual, module, comodule)


def _morphism_cases(cases, name, alg, dual, module, comodule):
    rng = random.Random("morphism/" + name)
    n = alg.dim
    maps = {
        "identity": LinearMapCandidate(n, n, Matrix.identity(n)),
        "twist": LinearMapCandidate(n, n, alg.twist),
    }
    maps["twist-bumped"] = _bumped_map(maps["twist"], rng)
    maps["identity-bumped"] = _bumped_map(maps["identity"], rng)
    maps["random"] = _random_map(n, n, rng)
    for label, cand in maps.items():
        prefix = "morphism/%s/%s" % (name, label)
        cases[prefix + "/algebra"] = lambda cand=cand: _report(
            check_algebra_morphism(alg, alg, cand)
        )
        cases[prefix + "/coalgebra"] = lambda cand=cand: _report(
            check_coalgebra_morphism(dual, dual, dualize_algebra_morphism(cand))
        )
        cases[prefix + "/module"] = lambda cand=cand: _report(
            check_module_morphism(module, module, cand)
        )
        cases[prefix + "/comodule"] = lambda cand=cand: _report(
            check_comodule_morphism(comodule, comodule, dualize_module_morphism(cand))
        )
    # maps between modules of different dimensions over one algebra
    small = FiniteHomModule(alg, 2, {}, Matrix([[1, 0], [0, 0]]))
    small_dual = dualize_module(small)
    for label, cand in (
        ("to-small", _random_map(n, 2, rng)),
        ("from-small", _random_map(2, n, rng)),
    ):
        src, tgt = (module, small) if label == "to-small" else (small, module)
        dsrc, dtgt = (comodule, small_dual) if label == "to-small" else (small_dual, comodule)
        prefix = "morphism/%s/%s" % (name, label)
        cases[prefix + "/module"] = lambda cand=cand, src=src, tgt=tgt: _report(
            check_module_morphism(src, tgt, cand)
        )
        cases[prefix + "/comodule"] = lambda cand=cand, dsrc=dsrc, dtgt=dtgt: _report(
            check_comodule_morphism(dtgt, dsrc, dualize_module_morphism(cand))
        )


def _families():
    return {
        "poly-N3-k2": make_poly_quotient(3, 2),
        "poly-N6-k1": make_poly_quotient(6, 1),
        "poly-N5-k3/2": make_poly_quotient(5, Fraction(3, 2)),
        "tensor-a2-n2": make_tensor_quotient(2, 2, (2, 3)),
        "tensor-a3-n2": make_tensor_quotient(3, 2, (Fraction(1, 2), -1, 3)),
        "qplane-R2-S2-q2-k3": make_qplane_quotient(2, 2, 2, 3),
        "qplane-R3-S2-q-1/2-k2": make_qplane_quotient(3, 2, Fraction(-1, 2), 2),
    }


def _quotient_cases(cases):
    families = _families()
    for name, quo in families.items():
        alg = quo.as_hom_algebra()
        cases["quotient/%s/dual" % name] = (
            lambda quo=quo: documents.coalgebra_doc(quotient_dual_coalgebra(quo))
        )
        cases["quotient/%s/dualize-algebra" % name] = (
            lambda alg=alg: documents.coalgebra_doc(dualize_algebra(alg))
        )
        cases["quotient/%s/dualize-module" % name] = (
            lambda alg=alg: documents.comodule_doc(dualize_module(regular_module(alg)))
        )
        cases["quotient/%s/dual-verify" % name] = (
            lambda quo=quo: _report(verify_hom_coalgebra(quotient_dual_coalgebra(quo)))
        )
        ident = Matrix.identity(quo.dim)
        cases["quotient/%s/naturality-identity" % name] = (
            lambda quo=quo, ident=ident: _report(check_pullback_naturality(quo, quo, ident))
        )
        rng = random.Random("quotient/" + name)
        bumped = _bumped_twist(ident, rng)
        cases["quotient/%s/naturality-bumped" % name] = (
            lambda quo=quo, bumped=bumped: _guarded(
                lambda: _report(check_pullback_naturality(quo, quo, bumped))
            )
        )
        top = dual_basis_functional(quo, quo.dim - 1)
        cases["quotient/%s/pullback-twist" % name] = lambda quo=quo, top=top: _guarded(
            lambda: _plain(pullback_functional(quo, quo, quo.qtwist, top).coeffs)
        )
    square = Matrix([[int(t == 2 * s) for s in range(7)] for t in range(7)])
    q6 = families["poly-N6-k1"]
    cases["quotient/poly-N6-k1/naturality-square"] = lambda: _report(
        check_pullback_naturality(q6, q6, square)
    )
    cases["quotient/poly-N6-k1/pullbacks-square"] = lambda: [
        _plain(pullback_functional(q6, q6, square, dual_basis_functional(q6, t)).coeffs)
        for t in range(7)
    ]
    src, tgt = make_poly_quotient(3, 4), make_poly_quotient(6, 2)
    pair = Matrix([[int(t == 2 * s) for s in range(4)] for t in range(7)])
    cases["quotient/poly-pair/naturality"] = lambda: _report(
        check_pullback_naturality(src, tgt, pair)
    )
    shift = Matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    q2 = make_poly_quotient(2, 1)
    cases["quotient/poly-N2-k1/naturality-shift"] = lambda: _guarded(
        lambda: _report(check_pullback_naturality(q2, q2, shift))
    )
    cases["quotient/poly-N2-k1/pullback-shift"] = lambda: _guarded(
        lambda: _plain(pullback_functional(q2, q2, shift, dual_basis_functional(q2, 1)).coeffs)
    )


def _sum(functional):
    """A functional with its quotient's family and parameters."""
    quotient = functional.quotient
    return {
        "params": documents.quotient_doc(quotient),
        "labels": quotient.labels,
        "coeffs": _plain(functional.coeffs),
    }


def _rescaling(big, small, scale):
    """Bench-style quotient morphism big -> small: rescale each monomial, kill the rest."""
    index = {key: i for i, key in enumerate(small.keys)}
    rows = [[Fraction(0)] * big.dim for _ in range(small.dim)]
    for col, key in enumerate(big.keys):
        if key in index:
            rows[index[key]][col] = scale(key)
    return Matrix(rows, cols=big.dim)


def _family_cases(cases):
    """verify_quotient margins, dual twists, sums over merged boxes, rescaling pullbacks."""
    for name, quo in _families().items():
        for margin in (0, 1, 2):
            cases["quotient/%s/verify-margin-%d" % (name, margin)] = (
                lambda quo=quo, margin=margin: _report(verify_quotient(quo, margin))
            )
        top = dual_basis_functional(quo, quo.dim - 1)
        cases["quotient/%s/twist-top" % name] = (
            lambda quo=quo, top=top: _plain(sweedler_twist(quo, top).coeffs)
        )

    def mutated():
        quo = make_qplane_quotient(2, 2, 2, 3)
        quo.qmul[(1, 3)] = {4: Fraction(5)}
        return _report(verify_quotient(quo))

    cases["quotient/qplane-R2-S2-q2-k3/verify-mutated"] = mutated

    rng = random.Random("add-functionals")
    pairs = {
        "same-poly": (make_poly_quotient(3, 2), make_poly_quotient(3, 2)),
        "same-qplane": (make_qplane_quotient(2, 1, 2, 3),) * 2,
        "poly": (make_poly_quotient(3, Fraction(3, 2)), make_poly_quotient(5, Fraction(3, 2))),
        "tensor": (
            make_tensor_quotient(2, 3, (2, Fraction(-1, 2))),
            make_tensor_quotient(2, 1, (2, Fraction(-1, 2))),
        ),
        "qplane": (
            make_qplane_quotient(2, 1, Fraction(-1, 2), 2),
            make_qplane_quotient(1, 3, Fraction(-1, 2), 2),
        ),
    }
    for label, (qa, qb) in pairs.items():
        f = SweedlerFunctional(qa, [rng.choice((0, 1, -2, Fraction(1, 3))) for _ in range(qa.dim)])
        g = SweedlerFunctional(qb, [rng.choice((0, 1, -2, Fraction(1, 3))) for _ in range(qb.dim)])
        cases["add-functionals/%s" % label] = lambda f=f, g=g: _sum(add_functionals(f, g))
        cases["add-functionals/%s/swapped" % label] = lambda f=f, g=g: _sum(add_functionals(g, f))

    rng = random.Random("rescaling")
    boxes = {
        "qplane-R3-S2-to-R1-S1": (
            make_qplane_quotient(3, 2, Fraction(-1, 2), 2),
            make_qplane_quotient(1, 1, Fraction(-1, 2), 2),
        ),
        "qplane-R2-S2-to-R1-S2": (
            make_qplane_quotient(2, 2, 2, Fraction(5, 3)),
            make_qplane_quotient(1, 2, 2, Fraction(5, 3)),
        ),
        "tensor-a2-n3-to-n1": (
            make_tensor_quotient(2, 3, (2, Fraction(-1, 2))),
            make_tensor_quotient(2, 1, (2, Fraction(-1, 2))),
        ),
        "tensor-a3-n2-to-n1": (
            make_tensor_quotient(3, 2, (Fraction(1, 2), -1, 3)),
            make_tensor_quotient(3, 1, (Fraction(1, 2), -1, 3)),
        ),
    }
    scales = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2))
    for label, (big, small) in boxes.items():
        if big.family == "qplane":
            sx, sy = rng.choice(scales), rng.choice(scales)
            scale = lambda key, sx=sx, sy=sy: sx ** key[0] * sy ** key[1]
        else:
            letters = [rng.choice(scales) for _ in range(big.params["alphabet"])]
            scale = lambda word, letters=letters: math.prod(
                (letters[c] for c in word), start=Fraction(1)
            )
        good = _rescaling(big, small, scale)
        rows = [list(row) for row in good.entries]
        rows[0][0] = Fraction(2)
        bad = Matrix(rows, cols=big.dim)
        f = SweedlerFunctional(small, [rng.choice((1, -1, Fraction(2, 3))) for _ in range(small.dim)])
        for kind, matrix in (("morphism", good), ("non-morphism", bad)):
            prefix = "rescaling/%s/%s" % (label, kind)
            cases[prefix + "/naturality"] = (
                lambda big=big, small=small, matrix=matrix: _guarded(
                    lambda: _report(check_pullback_naturality(big, small, matrix))
                )
            )
            cases[prefix + "/pullback"] = (
                lambda big=big, small=small, matrix=matrix, f=f: _guarded(
                    lambda: _plain(pullback_functional(big, small, matrix, f).coeffs)
                )
            )


def _error_cases(cases):
    alg = make_poly_quotient(2, 1).as_hom_algebra()
    other = make_poly_quotient(2, 2).as_hom_algebra()
    wrong = LinearMapCandidate(2, 3, Matrix([[1, 0], [0, 1], [0, 0]]))
    ident = LinearMapCandidate(3, 3, Matrix.identity(3))
    dual, dual_other = dualize_algebra(alg), dualize_algebra(other)
    module, module_other = regular_module(alg), regular_module(other)
    checks = {
        "algebra-shape": lambda: check_algebra_morphism(alg, alg, wrong),
        "coalgebra-shape": lambda: check_coalgebra_morphism(dual, dual, wrong),
        "module-shape": lambda: check_module_morphism(module, module, wrong),
        "comodule-shape": lambda: check_comodule_morphism(
            dualize_module(module), dualize_module(module), wrong
        ),
        "module-common": lambda: check_module_morphism(module, module_other, ident),
        "comodule-common": lambda: check_comodule_morphism(
            dualize_module(module), dualize_module(module_other), ident
        ),
        "coalgebra-cross": lambda: check_coalgebra_morphism(dual, dual_other, ident),
    }
    for label, thunk in checks.items():
        cases["error/" + label] = lambda thunk=thunk: _guarded(lambda: _report(thunk()))


def _cli_cases(cases):
    names = sorted(p.name for p in (ROOT / "instances").glob("*.json"))
    for name in names:
        path = "instances/" + name
        cases["cli/verify/" + name] = lambda path=path: _cli("verify", path)
        cases["cli/dualize/" + name] = lambda path=path: _cli("dualize", path)
    cases["cli/verify-all"] = lambda: _cli("verify", "--all", "instances")
    cases["cli/sweedler-delta/qplane"] = lambda: _cli(
        "sweedler-delta",
        "--quotient",
        "instances/qplane_quotient_R2_S2_q2_k3.json",
        "--functional",
        ",".join(["0"] * 8 + ["1"]),
    )


def _cli_documents(docs, *argv):
    """Run the CLI in a scratch directory holding {file name: JSON document}."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            Path(tmp, name).write_text(json.dumps(doc))
        return _cli(*argv, cwd=tmp)


def _quotient_document_cases(cases):
    """CLI verify on quotient documents that hit each loader and builder error."""
    docs = {
        "no-family": {"params": {"N": 2, "k": "1"}},
        "no-params": {"family": "poly"},
        "params-list": {"family": "poly", "params": [2, "1"]},
        "unknown-family": {"family": "cubic", "params": {"N": 2, "k": "1"}},
        "unknown-family-list": {"family": ["poly"], "params": {"N": 2, "k": "1"}},
        "unknown-family-no-params": {"family": "cubic"},
        "poly-no-N": {"family": "poly", "params": {"k": "1"}},
        "poly-no-k": {"family": "poly", "params": {"N": 2}},
        "poly-N-negative": {"family": "poly", "params": {"N": -1, "k": "1"}},
        "poly-N-string": {"family": "poly", "params": {"N": "2", "k": "1"}},
        "poly-k-zero": {"family": "poly", "params": {"N": 2, "k": "0"}},
        "poly-k-float": {"family": "poly", "params": {"N": 2, "k": 0.5}},
        "poly-two-faults": {"family": "poly", "params": {"N": -1, "k": "0"}},
        "tensor-no-twists": {"family": "tensor", "params": {"alphabet": 2, "n": 2}},
        "tensor-no-alphabet": {"family": "tensor", "params": {"n": 2, "twists": ["1", "2"]}},
        "tensor-no-n": {"family": "tensor", "params": {"alphabet": 2, "twists": ["1", "2"]}},
        "tensor-alphabet-zero": {"family": "tensor", "params": {"alphabet": 0, "n": 2, "twists": []}},
        "tensor-n-negative": {"family": "tensor", "params": {"alphabet": 1, "n": -1, "twists": ["1"]}},
        "tensor-twists-string": {"family": "tensor", "params": {"alphabet": 2, "n": 2, "twists": "12"}},
        "tensor-twists-bad": {"family": "tensor", "params": {"alphabet": 2, "n": 2, "twists": ["1", "x"]}},
        "tensor-twists-short": {"family": "tensor", "params": {"alphabet": 2, "n": 2, "twists": ["1"]}},
        "tensor-twists-long": {"family": "tensor", "params": {"alphabet": 1, "n": 2, "twists": ["1", "2"]}},
        "tensor-twists-zero": {"family": "tensor", "params": {"alphabet": 2, "n": 2, "twists": ["1", "0"]}},
        "tensor-two-faults": {"family": "tensor", "params": {"alphabet": 0, "n": 2, "twists": "12"}},
        "tensor-two-faults-n": {"family": "tensor", "params": {"alphabet": 2, "n": -1, "twists": ["0", "1"]}},
        "tensor-two-faults-builder": {"family": "tensor", "params": {"alphabet": 2, "n": 1, "twists": ["0"]}},
        "qplane-no-R": {"family": "qplane", "params": {"S": 1, "q": "2", "k": "1"}},
        "qplane-no-q": {"family": "qplane", "params": {"R": 1, "S": 1, "k": "1"}},
        "qplane-S-negative": {"family": "qplane", "params": {"R": 1, "S": -1, "q": "2", "k": "1"}},
        "qplane-q-zero": {"family": "qplane", "params": {"R": 1, "S": 1, "q": "0", "k": "1"}},
        "qplane-k-zero": {"family": "qplane", "params": {"R": 1, "S": 1, "q": "2", "k": "0"}},
        "qplane-q-and-k-zero": {"family": "qplane", "params": {"R": 1, "S": 1, "q": "0", "k": "0"}},
        "qplane-q-bad": {"family": "qplane", "params": {"R": 1, "S": 1, "q": "1/0", "k": "1"}},
        "qplane-valid": {"family": "qplane", "params": {"R": 1, "S": 2, "q": "-1/2", "k": "5/3"}},
        "tensor-valid": {"family": "tensor", "params": {"alphabet": 2, "n": 1, "twists": [2, "-1/2"]}},
    }
    for label, doc in docs.items():
        doc = dict(doc, kind="quotient")
        cases["cli/verify/quotient-doc/" + label] = lambda doc=doc: _cli_documents(
            {"q.json": doc}, "verify", "q.json"
        )


# ------------------------------------------------------------------ recseq

QS = ("1", "-1", "2", "5/3")


def _cli_tables(tables, *argv):
    """Run the CLI in a scratch directory holding {file name: BiSequence}."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, table in tables.items():
            Path(tmp, name).write_text(json.dumps(documents.bisequence_doc(table)))
        return _cli(*argv, cwd=tmp)


def _table(fn, M, N):
    """The table fn(m, n) for 0 <= m <= M, 0 <= n <= N."""
    return BiSequence(M, N, [[fn(m, n) for n in range(N + 1)] for m in range(M + 1)])


def _constant(value, M, N):
    return _table(lambda m, n: value, M, N)


def _instance_table(name):
    doc = json.loads((ROOT / "instances" / name).read_text(encoding="utf-8"))
    return documents.load_bisequence(doc)


def _random_table(rng, M, N):
    return _table(lambda m, n: rng.randint(-4, 4), M, N)


def _sparse01_table(seed):
    """Mostly-zero 0/1 tables; several have annihilator kernels of dimension 2 or 3."""
    rng = random.Random(seed)
    M = rng.choice((4, 5, 6))
    density = rng.choice((0.1, 0.2, 0.3))
    return _table(lambda m, n: int(rng.random() < density), M, M)


def _recursive_table(rng, M, N):
    """A table filled from a random h of bidegree <= (2, 2): low complexity."""
    r, s = rng.randint(0, 2), rng.randint(1, 2)
    coeffs = {
        (i, j): rng.choice((-2, -1, 1, 2, Fraction(1, 2)))
        for i in range(r + 1)
        for j in range(s + 1)
        if (i, j) != (0, 0) and rng.random() < 0.6
    }
    h = BiPoly(r, s, coeffs)
    boundary = {
        (m, n): rng.randint(-3, 3)
        for m in range(M + 1)
        for n in range(N + 1)
        if m < r or n < s
    }
    return generate_sequence(h, rng.randint(1, 3), rng.choice(QS), boundary, M, N)


def _found(found):
    if found is None:
        return None
    r, s, h = found
    return [r, s, documents.bipoly_doc(h)]


def _rows(polys):
    return [
        [[p.degree, _plain(p.coeffs)] if p is not None else None for p in side]
        for side in polys
    ]


def _seq_minpoly_cases(cases):
    for name, rmax, smax in (
        ("delannoy_table_8x8.json", 3, 3),
        ("ones_6x6.json", 2, 2),
        ("ones_12x6.json", 1, 2),
        ("delannoy_boundary_8x8.json", 2, 2),
    ):
        cases["cli/seq-minpoly/%s/%d-%d" % (name, rmax, smax)] = (
            lambda name=name, rmax=rmax, smax=smax: _cli(
                "seq-minpoly", "--table", "instances/" + name,
                "--rmax", str(rmax), "--smax", str(smax),
            )
        )
    rng = random.Random("seq-minpoly")
    tables = {"zero": _constant(0, 5, 5)}
    for n in range(6):
        tables["recursive-%d" % n] = _recursive_table(rng, 7, 7)
    for n in range(3):
        tables["random-%d" % n] = _random_table(rng, 6, 6)
    tables["factorial"] = _table(
        lambda m, n: math.factorial(m + n) * math.factorial(m), 4, 4
    )
    for seed in (8, 46, 49, 100, 117, 139, 146):
        tables["sparse01-%d" % seed] = _sparse01_table(seed)
    for label, table in tables.items():
        bound = min(table.M, table.N) // 2
        for rmax, smax in ((bound, bound), (1, bound)):
            cases["cli/seq-minpoly/%s/%d-%d" % (label, rmax, smax)] = (
                lambda table=table, rmax=rmax, smax=smax: _cli_tables(
                    {"t.json": table}, "seq-minpoly", "--table", "t.json",
                    "--rmax", str(rmax), "--smax", str(smax),
                )
            )
        cases["minimal-bipoly/%s" % label] = (
            lambda table=table, bound=bound: _found(minimal_bipoly(table, bound, bound))
        )


def _convolve_cases(cases):
    rng = random.Random("convolve")
    for q in QS:
        for M, N in ((0, 0), (3, 5), (5, 8)):
            f, g = _random_table(rng, M + N, N), _random_table(rng, M, N)
            cases["cli/convolve/q=%s/%dx%d" % (q, M, N)] = (
                lambda f=f, g=g, q=q, M=M, N=N: _cli_tables(
                    {"f.json": f, "g.json": g}, "convolve", "--f", "f.json",
                    "--g", "g.json", "--q=" + q, "--M", str(M), "--N", str(N),
                )
            )
        cases["cli/convolve/q=%s/ones" % q] = lambda q=q: _cli(
            "convolve", "--f", "instances/ones_12x6.json", "--g",
            "instances/ones_6x6.json", "--q=" + q, "--M", "5", "--N", "5",
        )
    f, g = _random_table(rng, 10, 4), _random_table(rng, 6, 4)
    cases["convolve/q=-1/2"] = lambda: documents.bisequence_doc(
        quantum_convolution(f, g, Fraction(-1, 2), 6, 4)
    )


def _qbinom_cases(cases):
    for q, k in (("1", "1"), ("-1", "2"), ("2", "1"), ("5/3", "-1/2")):
        for n in range(25):
            cases["cli/expand/qbinom-formula/q=%s/k=%s/n=%d" % (q, k, n)] = (
                lambda q=q, k=k, n=n: _cli(
                    "expand", "--op", "qbinom-formula", "--n", str(n),
                    "--q=" + q, "--k=" + k,
                )
            )
    for q in QS + ("-1/2",):
        cases["qbinom/q=%s" % q] = lambda q=q: [
            [rat_str(qbinom(n, i, q)) for i in range(n + 1)] for n in range(13)
        ]
    for n, i, q in ((3, 5, 0), (-1, 0, 0), (-1, 0, 2), (3, 4, 2), (3, -1, 2)):
        cases["qbinom/error/%d-%d-%d" % (n, i, q)] = (
            lambda n=n, i=i, q=q: _guarded(lambda: rat_str(qbinom(n, i, q)))
        )


def _row_minimal_cases(cases):
    for name in ("delannoy_table_8x8.json", "ones_6x6.json", "ones_12x6.json"):
        table = _instance_table(name)
        for bound in (None, 0, 1, 2):
            cases["row-minimal-polys/%s/%s" % (name, bound)] = (
                lambda table=table, bound=bound: _rows(row_minimal_polys(table, bound))
            )
    rng = random.Random("row-minimal-polys")
    tables = {"zero": _constant(0, 6, 3)}
    for n in range(6):
        tables["recursive-%d" % n] = _recursive_table(rng, 11, 11)
    for n in range(3):
        tables["random-%d" % n] = _random_table(rng, 9, 10)
    for seed in (8, 100, 117):
        tables["sparse01-%d" % seed] = _sparse01_table(seed)
    for label, table in tables.items():
        cases["row-minimal-polys/%s" % label] = (
            lambda table=table: _rows(row_minimal_polys(table))
        )


ORACLE_QK = (("1", "1"), ("-1", "1"), ("5/3", "1"), ("2", "3/2"), ("-1/2", "-2/3"))
ORACLE_H = BiPoly(2, 1, {(1, 0): 1, (0, 1): Fraction(-1, 2), (1, 1): 2, (2, 1): Fraction(1, 3)})
ORACLE_M, ORACLE_N = 5, 4
ORACLE_BUMP = (3, 2)  # an interior cell of the perturbed fills


def _guarded_value(thunk):
    """Like _guarded, and a bad case number (a plain ValueError) renders too."""
    try:
        return thunk()
    except ValueError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _oracle_tables(case, q, k):
    """{label: table}: a certified fill, its perturbed copy, rationals, no interior."""
    rng = random.Random("seq-oracle/%d/%s/%s" % (case, q, k))
    h, M, N = ORACLE_H, ORACLE_M, ORACLE_N
    boundary = {
        (m, n): rng.randint(-3, 3)
        for m in range(M + 1)
        for n in range(N + 1)
        if m < h.r or n < h.s
    }
    fill = generate_sequence_derived(h, case, q, k, boundary, M, N)
    grid = [list(row) for row in fill.grid]
    grid[ORACLE_BUMP[0]][ORACLE_BUMP[1]] += 1
    rational = _table(
        lambda m, n: Fraction(rng.randint(-9, 9), rng.randint(1, 6)), M, N
    )
    flat = _table(lambda m, n: rng.randint(-5, 5), h.r - 1, N)
    return {
        "fill": fill,
        "perturbed": BiSequence(M, N, grid),
        "rational": rational,
        "no-interior": flat,
    }


def _cli_oracle(table, h, *argv):
    """seq-oracle on t.json and h.json written to a scratch directory."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "t.json").write_text(json.dumps(documents.bisequence_doc(table)))
        Path(tmp, "h.json").write_text(json.dumps(documents.bipoly_doc(h)))
        return _cli("seq-oracle", "--table", "t.json", "--h", "h.json", *argv, cwd=tmp)


def _oracle_window(table, h, case, q, k):
    """Residuals from one cell below (r, s) to one cell past the table, or their errors."""
    return [
        [m, n, _guarded_value(lambda m=m, n=n: rat_str(
            annihilation_residual(table, h, case, m, n, q, k)
        ))]
        for m in range(h.r - 1, table.M + 2)
        for n in range(h.s - 1, table.N + 2)
    ]


def _stencil_json(stencil):
    return [stencil.m, stencil.n, [[i, j, rat_str(v)] for (i, j), v in stencil.coeffs]]


def _seq_oracle_cases(cases):
    h, M, N = ORACLE_H, ORACLE_M, ORACLE_N
    for case in (1, 2, 3):
        for q, k in ORACLE_QK:
            prefix = "seq-oracle/case=%d/q=%s/k=%s" % (case, q, k)
            flags = ("--case", str(case), "--q=" + q, "--k=" + k)
            tables = _oracle_tables(case, q, k)
            sites = {
                "fill": (M, N),
                "perturbed": ORACLE_BUMP,
                "rational": (h.r, h.s),
                "past-m": (M + 1, N),
                "past-n": (M, N + 1),
                "below-r": (h.r - 1, N),
                "below-s": (M, h.s - 1),
            }
            for label, table in tables.items():
                cases["cli/%s/all/%s" % (prefix, label)] = (
                    lambda table=table, flags=flags: _cli_oracle(table, h, *flags, "--all")
                )
                cases["%s/residuals/%s" % (prefix, label)] = (
                    lambda table=table, case=case, q=q, k=k: _oracle_window(table, h, case, q, k)
                )
            for label, (m, n) in sites.items():
                table = tables.get(label, tables["fill"])
                cases["cli/%s/at/%s" % (prefix, label)] = (
                    lambda table=table, flags=flags, m=m, n=n: _cli_oracle(
                        table, h, *flags, "--at", "%d,%d" % (m, n)
                    )
                )
            cases["%s/fill" % prefix] = (
                lambda table=tables["fill"]: documents.bisequence_doc(table)
            )
            cases["%s/derive" % prefix] = lambda case=case, q=q, k=k: [
                _guarded_value(lambda m=m, n=n: _stencil_json(
                    derive_recursion(h, case, m, n, q, k)
                ))
                for m, n in ((h.r, h.s), (3, 4), (M, N), (M + 3, N + 2), (h.r - 1, N))
            ]
    # the error order: parameters, then case, then (r, s), then table bounds
    table = _oracle_tables(1, "1", "1")["fill"]
    for q, k, case, m, n in (
        ("0", "1", 9, 0, 0), ("1", "0", 9, 0, 0), ("0", "0", 1, 9, 9),
        ("1", "1", 9, 0, 0), ("1", "1", 1, 0, 9), ("1", "1", 2, 9, 0),
        ("1", "1", 3, M + 1, 0), ("1", "1", 3, M + 1, N + 1), ("x", "1", 1, 2, 1),
        ("1", "1/0", 1, 2, 1),
    ):
        cases["seq-oracle/error/q=%s/k=%s/case=%d/%d-%d" % (q, k, case, m, n)] = (
            lambda q=q, k=k, case=case, m=m, n=n: [
                _guarded_value(lambda: rat_str(annihilation_residual(table, h, case, m, n, q, k))),
                _guarded_value(lambda: _stencil_json(derive_recursion(h, case, m, n, q, k))),
            ]
        )
    for case in (1, 2, 3):
        for q in ("1", "-1", "5/3"):
            cases["cli/seq-gen/case=%d/q=%s/ones" % (case, q)] = (
                lambda case=case, q=q: _cli(
                    "seq-gen", "--h", "instances/delannoy.json", "--case", str(case),
                    "--q=" + q, "--boundary", "ones", "--M", "4", "--N", "5",
                )
            )


# ------------------------------------------------------- rational structures

PRIMES = tuple(p for p in range(2, 98) if all(p % d for d in range(2, p)))


def _rational(rng, dens):
    return Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 7)), rng.choice(dens))


def _rational_matrix(rng, rows, cols, dens, density=0.7):
    return Matrix(
        [[_rational(rng, dens) if rng.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)],
        cols=cols,
    )


def _diagonal(values):
    n = len(values)
    return Matrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


def _rational_algebras():
    """{label: algebra}: non-integral constants, the two sides of each axiom on other denominators."""
    rng = random.Random("rational-algebras")
    poly = make_poly_quotient(4, Fraction(3, 2)).as_hom_algebra()
    out = {
        "dual-numbers/twist-5-7": FiniteHomAlgebra(
            2, dual_numbers().mul, Matrix([[Fraction(1, 5), Fraction(2, 7)], [0, Fraction(-3, 7)]])
        ),
        "poly-N4-k3/2/twist-diag": FiniteHomAlgebra(
            5, poly.mul, _diagonal([Fraction(1), Fraction(1, 3), Fraction(-2, 5), Fraction(1, 9), 7])
        ),
        "diagonal-3/twist-rational": FiniteHomAlgebra(
            3, diagonal_algebra(3).mul, _rational_matrix(rng, 3, 3, (3, 5, 7))
        ),
        "matrix-2x2/twist-rational": FiniteHomAlgebra(
            4, matrix_algebra_2x2().mul, _rational_matrix(rng, 4, 4, (2, 11, 13), 0.4)
        ),
        "zero-table/twist-rational": FiniteHomAlgebra(3, {}, _rational_matrix(rng, 3, 3, (5, 6))),
    }
    for dim in (1, 2, 3, 4):
        dens = rng.sample(PRIMES, 3)
        mul = {
            (i, j): {k: _rational(rng, dens) for k in range(dim) if rng.random() < 0.5}
            for i in range(dim)
            for j in range(dim)
        }
        out["random-d%d" % dim] = FiniteHomAlgebra(dim, mul, _rational_matrix(rng, dim, dim, dens))
    # every denominator a different prime, 2 through 97, read in turn
    primes = iter(PRIMES * 3)
    mul = {
        (i, j): {(i + j) % 5: Fraction(rng.choice((-1, 1, 2)), next(primes))}
        for i in range(5)
        for j in range(5)
    }
    twist = Matrix([[Fraction(1, next(primes)) if i == j or j == i + 1 else 0
                     for j in range(5)] for i in range(5)])
    out["primes-2-97"] = FiniteHomAlgebra(5, mul, twist)
    return out


def _rational_structure_cases(cases):
    rng = random.Random("rational-structures")
    for name, alg in _rational_algebras().items():
        n = alg.dim
        dens = rng.sample(PRIMES, 2)
        modules = {
            "regular": regular_module(alg),
            "mtwist": FiniteHomModule(alg, n, alg.mul, _rational_matrix(rng, n, n, dens)),
            "small": FiniteHomModule(
                alg,
                2,
                {(a, i): {b: _rational(rng, dens) for b in range(2) if rng.random() < 0.5}
                 for a in range(2) for i in range(n)},
                _rational_matrix(rng, 2, 2, dens),
            ),
        }
        dual = dualize_algebra(alg)
        structures = [("algebra", "algebra", alg), ("coalgebra", "coalgebra", dual)]
        for label, module in modules.items():
            structures.append(("module-" + label, "module", module))
            structures.append(("comodule-" + label, "comodule", dualize_module(module)))
        for label, kind, structure in structures:
            _verify_cases(cases, "rational/%s/%s" % (name, label), kind, structure)
        module, comodule = modules["mtwist"], dualize_module(modules["mtwist"])
        maps = {
            "rational": LinearMapCandidate(n, n, _rational_matrix(rng, n, n, dens)),
            "twist-scaled": LinearMapCandidate(
                n, n, Matrix([[x / 3 for x in row] for row in alg.twist.entries], cols=n)
            ),
        }
        for label, cand in maps.items():
            prefix = "rational/%s/morphism-%s" % (name, label)
            cases[prefix + "/algebra"] = lambda cand=cand, alg=alg: _report(
                check_algebra_morphism(alg, alg, cand)
            )
            cases[prefix + "/coalgebra"] = lambda cand=cand, dual=dual: _report(
                check_coalgebra_morphism(dual, dual, dualize_algebra_morphism(cand))
            )
            cases[prefix + "/module"] = lambda cand=cand, module=module: _report(
                check_module_morphism(module, module, cand)
            )
            cases[prefix + "/comodule"] = lambda cand=cand, comodule=comodule: _report(
                check_comodule_morphism(comodule, comodule, dualize_module_morphism(cand))
            )


def _yau_cases(cases):
    """yau_twist on classical algebras with rational endomorphisms: results and refusals."""
    rng = random.Random("yau-rational")
    poly = make_poly_quotient(4, 1).as_hom_algebra()
    endos = {
        "dual-numbers/scale-2/7": (dual_numbers(), scaling_endo_dual_numbers(Fraction(2, 7))),
        "dual-numbers/upper-1/3": (dual_numbers(), Matrix([[1, Fraction(1, 3)], [0, 1]])),
        "dual-numbers/rational": (dual_numbers(), _rational_matrix(rng, 2, 2, (3, 5))),
        "diagonal-3/diag": (diagonal_algebra(3), _diagonal([1, Fraction(1, 2), Fraction(-1, 3)])),
        "diagonal-3/rational": (diagonal_algebra(3), _rational_matrix(rng, 3, 3, (7, 11))),
        "matrix-2x2/conjugation": (
            matrix_algebra_2x2(), conjugation_endo_2x2(Fraction(1, 2), Fraction(1, 3), 0, 5)
        ),
        "matrix-2x2/conjugation-bumped": (
            matrix_algebra_2x2(),
            _bumped_twist(conjugation_endo_2x2(Fraction(1, 2), Fraction(1, 3), 0, 5), rng),
        ),
        "matrix-2x2/rational": (matrix_algebra_2x2(), _rational_matrix(rng, 4, 4, PRIMES[:6])),
        "poly-N4-k1/powers": (poly, _diagonal([Fraction(3, 5) ** a for a in range(5)])),
        "poly-N4-k1/powers-bumped": (
            poly, _diagonal([Fraction(3, 5) ** a + (a == 3) for a in range(5)])
        ),
        "poly-N4-k1/primes": (poly, _diagonal([Fraction(1, p) for p in PRIMES[:5]])),
        "twisted-input": (
            FiniteHomAlgebra(2, dual_numbers().mul, scaling_endo_dual_numbers(Fraction(1, 2))),
            Matrix.identity(2),
        ),
        "wrong-shape": (dual_numbers(), Matrix.identity(3)),
    }
    for label, (assoc, endo) in endos.items():
        cases["yau/%s" % label] = lambda assoc=assoc, endo=endo: _guarded(
            lambda: documents.algebra_doc(yau_twist(assoc, endo))
        )


# ------------------------------------------------------------ linear algebra

def _rref_matrices():
    """{label: Matrix}: empty shapes, zero rows and columns, rank-deficient products, big entries."""
    rng = random.Random("mat-rref")
    out = {
        "empty-0x0": Matrix([], cols=0),
        "empty-0x3": Matrix([], cols=3),
        "no-columns-3x0": Matrix([[], [], []]),
        "zero-4x5": Matrix([[0] * 5 for _ in range(4)]),
        "identity-4": Matrix.identity(4),
    }
    for rows, cols in ((1, 1), (1, 4), (4, 1), (3, 3), (3, 5), (5, 3), (6, 6), (8, 8)):
        out["random-%dx%d" % (rows, cols)] = _rational_matrix(rng, rows, cols, (1, 2, 3, 7))
    for rows, cols, rank in ((4, 4, 2), (5, 7, 3), (7, 5, 1), (8, 8, 5), (6, 8, 0)):
        left = _rational_matrix(rng, rows, rank, (1, 3, 5), density=0.9)
        right = _rational_matrix(rng, rank, cols, (1, 2, 9), density=0.9)
        out["rank-%d-%dx%d" % (rank, rows, cols)] = Matrix(
            [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right.entries)]
             if rank else [0] * cols for row in left.entries],
            cols=cols,
        )
    base = _rational_matrix(rng, 5, 6, (2, 5))
    grid = [list(row) for row in base.entries]
    for row in grid:
        row[2] = 0  # a zero column
    grid[3] = [0] * 6  # a zero row
    grid[4] = [x * Fraction(-3, 4) for x in grid[0]]  # a multiple of the first row
    out["zero-row-column-multiple-5x6"] = Matrix(grid)
    big = 1 << 200
    out["big-6x7"] = Matrix(
        [[Fraction(rng.randint(-big, big), rng.randint(1, big)) if rng.random() < 0.8 else 0
          for _ in range(7)] for _ in range(6)]
    )
    out["big-integers-5x5-rank-3"] = Matrix(
        [[(i + 1) * rng.randint(-big, big) if j < 3 else 0 for j in range(5)] for i in range(3)]
        + [[rng.randint(-big, big) for _ in range(3)] + [0, 0] for _ in range(2)]
    )
    return out


def _rref(m):
    red, pivots = mat_rref(m)
    return {"pivots": pivots, "rref": _plain(red.entries)}


def _linear_algebra_cases(cases):
    for label, m in _rref_matrices().items():
        cases["mat-rref/%s" % label] = lambda m=m: _rref(m)
        cases["mat-kernel/%s" % label] = lambda m=m: [_plain(v.col(0)) for v in mat_kernel(m)]


# ------------------------------------------------- recseq: rational fills

SEQ_GEN_H = {
    "delannoy": BiPoly(1, 1, {(1, 0): 1, (0, 1): 1, (1, 1): 1}),
    "rational-2-1": ORACLE_H,
    "rational-1-2": BiPoly(1, 2, {(0, 1): Fraction(3, 4), (1, 2): Fraction(-5, 2), (0, 2): 7}),
    "rational-0-2": BiPoly(0, 2, {(0, 1): Fraction(-1, 3), (0, 2): Fraction(2, 5)}),
    "rational-2-0": BiPoly(2, 0, {(1, 0): Fraction(9, 7), (2, 0): -1}),
}


def _rational_boundary(rng, h, M, N):
    return {
        (m, n): Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 5, 9)))
        for m in range(M + 1)
        for n in range(N + 1)
        if m < h.r or n < h.s
    }


def _boundary_doc(boundary, M, N):
    return {
        "kind": "bisequence",
        "M": M,
        "N": N,
        "entries": [[rat_str(boundary[(m, n)]) if (m, n) in boundary else None
                     for n in range(N + 1)] for m in range(M + 1)],
    }


def _seq_gen_cases(cases):
    rng = random.Random("seq-gen/rational")
    M, N = 6, 5
    for name, h in SEQ_GEN_H.items():
        boundary = _rational_boundary(rng, h, M, N)
        for case in (1, 2, 3):
            for q in QS + ("-1/2",):
                cases["seq-gen/%s/case=%d/q=%s" % (name, case, q)] = (
                    lambda h=h, case=case, q=q, boundary=boundary: _guarded(
                        lambda: documents.bisequence_doc(
                            generate_sequence(h, case, q, boundary, M, N)
                        )
                    )
                )
    h = SEQ_GEN_H["rational-1-2"]
    boundary = _rational_boundary(rng, h, M, N)
    for case in (1, 2, 3):
        for q in QS:
            cases["cli/seq-gen/case=%d/q=%s/rational" % (case, q)] = (
                lambda case=case, q=q: _cli_documents(
                    {"h.json": documents.bipoly_doc(h), "b.json": _boundary_doc(boundary, M, N)},
                    "seq-gen", "--h", "h.json", "--case", str(case), "--q=" + q,
                    "--boundary", "b.json", "--M", str(M), "--N", str(N),
                )
            )
    interior = {**boundary, (h.r, h.s): 1}
    missing = {key: v for key, v in boundary.items() if key != (0, N)}
    outside = {**boundary, (M + 1, 0): 1}
    for label, thunk in (
        ("q=0", lambda: generate_sequence(h, 1, 0, boundary, M, N)),
        ("case=4", lambda: generate_sequence(h, 4, 1, boundary, M, N)),
        ("case=4/missing-later-cell", lambda: generate_sequence(
            h, 4, 1, {key: v for key, v in boundary.items() if key != (M, 0)}, M, N)),
        ("case=4/no-terms", lambda: generate_sequence(BiPoly(1, 2, {}), 4, 1, boundary, M, N)),
        ("short-table", lambda: generate_sequence(h, 2, 2, boundary, 0, N)),
        ("interior-cell", lambda: generate_sequence(h, 2, 2, interior, M, N)),
        ("missing-cell", lambda: generate_sequence(h, 3, 2, missing, M, N)),
        ("outside-cell", lambda: generate_sequence(h, 3, 2, outside, M, N)),
        ("bad-literal", lambda: generate_sequence(h, 1, "x", boundary, M, N)),
        ("bad-boundary-literal", lambda: generate_sequence(
            h, 1, 1, {**boundary, (0, 0): "1/0"}, M, N)),
    ):
        cases["seq-gen/error/%s" % label] = lambda thunk=thunk: _guarded_value(
            lambda: documents.bisequence_doc(thunk())
        )


def _convolve_shape_cases(cases):
    rng = random.Random("convolve/shapes")

    def rational_table(M, N):
        return _table(
            lambda m, n: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 7))), M, N
        )

    for q in QS + ("-1/2",):
        for M, N in ((0, 3), (4, 0), (1, 1), (6, 2), (2, 7)):
            f, g = rational_table(M + N + 1, N), rational_table(M, N + 1)
            cases["convolve/q=%s/rational/%dx%d" % (q, M, N)] = (
                lambda f=f, g=g, q=q, M=M, N=N: documents.bisequence_doc(
                    quantum_convolution(f, g, q, M, N)
                )
            )
    f, narrow, g = rational_table(8, 4), rational_table(8, 2), rational_table(3, 3)
    for label, thunk in (
        ("q=0", lambda: quantum_convolution(f, g, 0, 3, 3)),
        ("first-too-few-rows", lambda: quantum_convolution(f, g, 2, 5, 4)),
        ("first-too-few-columns", lambda: quantum_convolution(narrow, g, 2, 3, 3)),
        ("second-too-few-columns", lambda: quantum_convolution(f, g, 2, 3, 4)),
        ("second-too-few-rows", lambda: quantum_convolution(f, g, 2, 4, 3)),
        ("bad-literal", lambda: quantum_convolution(f, g, "1/0", 3, 3)),
    ):
        cases["convolve/error/%s" % label] = lambda thunk=thunk: _guarded(
            lambda: documents.bisequence_doc(thunk())
        )


# ------------------------------------------------------------- quantum plane

EXPAND_QK = (("1", "1"), ("-1", "2"), ("7/5", "-2/3"), ("-3/2", "1/2"), ("5/3", "3/2"))
EXPAND_N = (0, 1, 2, 5, 13, 24)


def _qpoly(p):
    return [[m, n, rat_str(c)] for (m, n), c in sorted(p.terms.items())]


def _random_qpoly(rng, params, degree):
    """Up to eight terms of degree <= degree; denominators from coprime choices."""
    return QPoly(params, {
        (rng.randint(0, degree), rng.randint(0, degree)):
            Fraction(rng.choice((-7, -3, -2, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3, 5, 7)))
        for _ in range(rng.randint(1, 8))
    })


def _product_cases(cases, prefix, p1, p2):
    cases[prefix + "/classical"] = lambda: _guarded(lambda: _qpoly(classical_product(p1, p2)))
    cases[prefix + "/hom"] = lambda: _guarded(lambda: _qpoly(hom_product(p1, p2)))


def _quantum_plane_cases(cases):
    """CLI expansions at rational (q, k), library products and powers, more q-Pascal tables."""
    for q, k in EXPAND_QK:
        flags = ("--q=" + q, "--k=" + k)
        for n in EXPAND_N:
            letters = random.Random("normal-order/%d" % n)
            word = "".join(letters.choice("xy") for _ in range(n))
            cases["cli/expand/hom-power/q=%s/k=%s/n=%d" % (q, k, n)] = (
                lambda n=n, flags=flags: _cli("expand", "--op", "hom-power", "--n", str(n), *flags)
            )
            cases["cli/expand/normal-order/q=%s/k=%s/n=%d" % (q, k, n)] = (
                lambda word=word, flags=flags: _cli(
                    "expand", "--op", "normal-order", "--word", word, *flags
                )
            )
        for n in range(41):
            name = "cli/expand/qbinom-formula/q=%s/k=%s/n=%d" % (q, k, n)
            if name not in cases:
                cases[name] = lambda n=n, flags=flags: _cli(
                    "expand", "--op", "qbinom-formula", "--n", str(n), *flags
                )
        params = QParams(q, k)
        rng = random.Random("qplane/%s/%s" % (q, k))
        prefix = "qplane/q=%s/k=%s" % (q, k)
        for n in range(6):
            p1 = _random_qpoly(rng, params, rng.choice((1, 3, 6)))
            p2 = _random_qpoly(rng, params, rng.choice((1, 3, 6)))
            _product_cases(cases, "%s/pair-%d" % (prefix, n), p1, p2)
            cases["%s/pair-%d/twist" % (prefix, n)] = lambda p1=p1: _qpoly(twist(p1))
            cases["%s/pair-%d/powers" % (prefix, n)] = lambda p1=p1: [
                _qpoly(hom_power_left(p1, e)) for e in (0, 1, 2, 3, 5)
            ]
        # x + y times x - q y: the xy terms cancel, in both products
        xy = QPoly(params, {(1, 0): 1, (0, 1): 1})
        _product_cases(cases, prefix + "/cancel-xy", xy,
                       QPoly(params, {(1, 0): 1, (0, 1): -params.q}))
        zero = QPoly.zero(params)
        _product_cases(cases, prefix + "/zero-left", zero, xy)
        _product_cases(cases, prefix + "/zero-right", xy, zero)
        _product_cases(cases, prefix + "/zero-both", zero, zero)
        cases[prefix + "/zero/twist"] = lambda zero=zero: _qpoly(twist(zero))
        cases[prefix + "/zero/powers"] = lambda zero=zero: [
            _qpoly(hom_power_left(zero, e)) for e in (0, 1, 3)
        ]
        cases[prefix + "/power-negative"] = lambda xy=xy: _guarded(
            lambda: _qpoly(hom_power_left(xy, -1))
        )
    x = QPoly.monomial(QParams(2, 1), 1, 0)
    _product_cases(cases, "qplane/error/k-mismatch", x, QPoly.monomial(QParams(2, 3), 0, 1))
    _product_cases(cases, "qplane/error/q-mismatch", x, QPoly.monomial(QParams(3, 1), 0, 1))
    for q in ("7/5", "-2/3"):
        cases["qbinom/q=%s" % q] = lambda q=q: [
            [rat_str(qbinom(n, i, q)) for i in range(n + 1)] for n in range(25)
        ]
    rng = random.Random("convolve/rational-q")
    for q in ("7/5", "-2/3"):
        for M, N in ((0, 0), (0, 3), (4, 0), (1, 1), (6, 2), (2, 7), (5, 8)):
            f = _table(
                lambda m, n: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7))), M + N, N
            )
            g = _random_table(rng, M, N)
            cases["convolve/q=%s/rational/%dx%d" % (q, M, N)] = (
                lambda f=f, g=g, q=q, M=M, N=N: documents.bisequence_doc(
                    quantum_convolution(f, g, q, M, N)
                )
            )
            cases["cli/convolve/q=%s/%dx%d" % (q, M, N)] = (
                lambda f=f, g=g, q=q, M=M, N=N: _cli_tables(
                    {"f.json": f, "g.json": g}, "convolve", "--f", "f.json",
                    "--g", "g.json", "--q=" + q, "--M", str(M), "--N", str(N),
                )
            )


# ------------------------------------------------- literals, argv, report text

ODD_DIGITS = ("\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",  # Arabic-Indic
              "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")  # full width
BAD_LITERALS = {
    "plus": "+1", "underscore": "1_0", "zero-den": "1/0", "zero-zero": "0/0", "float": 1.5,
    "float-text": "1.0", "true": True, "false": False, "null": None, "empty": "",
    "inner-space": "1 /2", "slashes": "1//2", "list": [1], "object": {"a": 1},
    "long": "9" * 5000, "long-den": "1/" + "9" * 5000,
}
NEGATIVE_QS = ("-1", "-2", "-3/2", "-1/3")


def _odd_literal(value, position):
    """A non-canonical literal of value, one of several spellings chosen by position."""
    num, den = value.numerator, value.denominator
    text = rat_str(value)
    style = position % 7
    if style == 0:
        return "%d/%d" % (2 * num, 2 * den)
    if style == 1:
        return "%d/%d" % (-num, -den)
    if style == 2:
        return " %s\t" % text
    if style in (3, 4):
        digits = ODD_DIGITS[style - 3]
        return "".join(digits[int(c)] if c.isdigit() else c for c in text)
    if style == 5:
        return "-0" if num == 0 else ("00" + text if num > 0 else text)
    return "\n%d/%d " % (3 * num, 3 * den) if den > 1 else text


def _odd_doc(table):
    """The bisequence document of a table, every entry spelled oddly."""
    return {
        "kind": "bisequence", "M": table.M, "N": table.N,
        "entries": [[_odd_literal(v, 5 * m + n) for n, v in enumerate(row)]
                    for m, row in enumerate(table.grid)],
    }


def _odd_bipoly_doc(h):
    coeffs = [[i, j, _odd_literal(c, i + 3 * j)] for (i, j), c in sorted(h.coeffs.items())]
    free = [(i, j) for i in range(h.r + 1) for j in range(h.s + 1)
            if (i, j) != (0, 0) and (i, j) not in h.coeffs]
    coeffs += [[i, j, "-0"] for i, j in free[:1]]  # a zero coefficient, dropped like any zero
    return {"kind": "bipoly", "r": h.r, "s": h.s, "coeffs": coeffs}


def _with_entry(doc, m, n, value):
    doc = json.loads(json.dumps(doc))
    doc["entries"][m][n] = value
    return doc


@contextlib.contextmanager
def _columns(width):
    """argparse wraps help to $COLUMNS: pin it, so usage text does not depend on the terminal."""
    old = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = str(width)
    try:
        yield
    finally:
        if old is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old


def _cli_at(width, *argv, cwd=ROOT):
    with _columns(width):
        return _cli(*argv, cwd=cwd)


def _literal_cases(cases):
    """Odd and refused literals in tables, boundaries and bipolys, through the CLI and the library."""
    rng = random.Random("literals")
    h = SEQ_GEN_H["rational-1-2"]
    M, N = 6, 5
    fill = generate_sequence(h, 2, "-3/2", _rational_boundary(rng, h, M, N), M, N)
    table_doc = _odd_doc(fill)
    boundary_doc = _odd_doc(fill)
    for m in range(M + 1):
        for n in range(N + 1):
            if m >= h.r and n >= h.s:
                boundary_doc["entries"][m][n] = None
    h_doc = _odd_bipoly_doc(h)
    f = _random_table(rng, 8, 3)
    g = _table(
        lambda m, n: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4, 6))), 5, 3
    )
    docs = {"t.json": table_doc, "b.json": boundary_doc, "h.json": h_doc,
            "f.json": _odd_doc(f), "g.json": _odd_doc(g)}
    runs = {
        "verify/table": ("verify", "t.json"),
        "verify/boundary": ("verify", "b.json"),
        "verify/bipoly": ("verify", "h.json"),
        "seq-minpoly": ("seq-minpoly", "--table", "t.json", "--rmax", "2", "--smax", "2"),
        "seq-minpoly/g": ("seq-minpoly", "--table", "g.json", "--rmax", "1", "--smax", "1"),
    }
    for q in ("1",) + NEGATIVE_QS + ("5/3",):
        for case in (1, 2, 3):
            runs["seq-gen/case=%d/q=%s" % (case, q)] = (
                "seq-gen", "--h", "h.json", "--case", str(case), "--q=" + q,
                "--boundary", "b.json", "--M", str(M), "--N", str(N))
            runs["seq-oracle/case=%d/q=%s/all" % (case, q)] = (
                "seq-oracle", "--table", "t.json", "--h", "h.json", "--case", str(case),
                "--q=" + q, "--k=-2/3", "--all")
        runs["seq-oracle/q=%s/at" % q] = (
            "seq-oracle", "--table", "t.json", "--h", "h.json", "--case", "2", "--q=" + q,
            "--at", "4,3")
        runs["convolve/q=%s" % q] = ("convolve", "--f", "f.json", "--g", "g.json",
                                     "--q=" + q, "--M", "5", "--N", "3")
    for label, argv in runs.items():
        cases["cli/literals/odd/" + label] = lambda argv=argv: _cli_documents(docs, *argv)
    cases["literals/odd/load"] = lambda: [
        documents.bisequence_doc(documents.load_bisequence(table_doc)),
        [[m, n, rat_str(v)] for (m, n), v in sorted(documents.load_boundary(boundary_doc).items())],
        documents.bipoly_doc(documents.load_bipoly(h_doc)),
    ]
    for case in (1, 2, 3):
        for q in NEGATIVE_QS + ("-3/5",):
            # boundaries as a table and as the rows of a boundary document
            cases["literals/odd/seq-gen/case=%d/q=%s" % (case, q)] = (
                lambda case=case, q=q: [
                    documents.bisequence_doc(generate_sequence(h, case, q, boundary, M, N))
                    for boundary in (documents.load_bisequence(table_doc), boundary_doc["entries"])
                ]
            )
    # refusals: each bad literal in a table, a boundary, a bipoly, a --q and the library
    for label, bad in BAD_LITERALS.items():
        bad_docs = {
            "t.json": _with_entry(table_doc, 3, 2, bad),
            "b.json": _with_entry(boundary_doc, 0, 4, bad),
            "h.json": h_doc,
            "bad-h.json": dict(h_doc, coeffs=h_doc["coeffs"] + [[1, 1, bad]]),
            "f.json": _with_entry(docs["f.json"], 8, 0, bad),
            "g.json": docs["g.json"],
        }
        for run, argv in (
            ("verify/table", ("verify", "t.json")),
            ("verify/boundary", ("verify", "b.json")),
            ("verify/bipoly", ("verify", "bad-h.json")),
            ("seq-minpoly", ("seq-minpoly", "--table", "t.json", "--rmax", "1", "--smax", "1")),
            ("seq-oracle/bipoly", ("seq-oracle", "--table", "g.json", "--h", "bad-h.json",
                                   "--case", "1", "--q", "1", "--at", "2,2")),
            ("seq-oracle", ("seq-oracle", "--table", "t.json", "--h", "h.json", "--case", "1",
                            "--q", "1", "--all")),
            ("seq-gen", ("seq-gen", "--h", "h.json", "--case", "1", "--q", "1",
                         "--boundary", "b.json", "--M", str(M), "--N", str(N))),
            ("convolve", ("convolve", "--f", "f.json", "--g", "g.json", "--q", "1",
                          "--M", "5", "--N", "3")),
        ):
            cases["cli/literals/refused/%s/%s" % (label, run)] = (
                lambda bad_docs=bad_docs, argv=argv: _cli_documents(bad_docs, *argv)
            )
        if isinstance(bad, str):
            cases["cli/literals/refused/%s/--q" % label] = lambda bad=bad: _cli_at(
                80, "seq-gen", "--h", "instances/delannoy.json", "--case", "1",
                "--q=" + bad, "--boundary", "ones", "--M", "2", "--N", "2")
        grid = [[1, "2/4", bad], ["x", 5, 6]]  # the first bad literal in row order is named
        cases["literals/refused/%s/bisequence" % label] = lambda grid=grid: [
            _guarded(lambda: documents.bisequence_doc(BiSequence(1, 2, grid))),
            _guarded(lambda: documents.bisequence_doc(BiSequence(1, 2, grid[::-1]))),
            _guarded(lambda: documents.bisequence_doc(generate_sequence(
                h, 1, 1, {(0, 0): bad, (0, 1): 1, (0, 2): 1}, 2, 2))),
        ]


def _digit_limit_cases(cases):
    """Output entries past the int->str digit limit, which rat_str renders through Decimal."""
    big = "1" + "0" * 600
    docs = {
        "big.json": {"kind": "bipoly", "r": 1, "s": 0, "coeffs": [[1, 0, big]]},
        "tiny.json": {"kind": "bipoly", "r": 1, "s": 0, "coeffs": [[1, 0, "-1/" + big]]},
    }
    for name in docs:
        cases["cli/digit-limit/seq-gen/" + name] = lambda name=name: _cli_documents(
            docs, "seq-gen", "--h", name, "--case", "1", "--q", "1",
            "--boundary", "ones", "--M", "9", "--N", "1")
    rng = random.Random("digit-limit")
    f, g = _random_table(rng, 12, 8), _random_table(rng, 4, 8)
    huge_q = "-1" + "0" * 500 + "/7"
    cases["cli/digit-limit/convolve"] = lambda: _cli_tables(
        {"f.json": f, "g.json": g}, "convolve", "--f", "f.json", "--g", "g.json",
        "--q=" + huge_q, "--M", "4", "--N", "8")
    table = _random_table(rng, 6, 6)
    cases["cli/digit-limit/seq-oracle"] = lambda: _cli_oracle(
        table, ORACLE_H, "--case", "2", "--q=" + "1" + "0" * 400, "--k=" + "3" * 300,
        "--at", "6,6")
    ones = {(m, n): 1 for m in range(8) for n in range(2) if m < 1 or n < 1}
    cases["digit-limit/seq-gen"] = lambda: documents.bisequence_doc(generate_sequence(
        BiPoly(1, 1, {(1, 0): big, (0, 1): Fraction(1, 3)}), 3, "-5/7", ones, 7, 1))


ARGV_CATALOGUE = {
    "empty": [],
    "top-h": ["-h"],
    "top-help": ["--help"],
    "top-help-then-command": ["-h", "verify"],
    "unknown-command": ["bogus"],
    "unknown-command-args": ["bogus", "--q", "1"],
    "option-first": ["--q", "1", "expand"],
    "dashdash-first": ["--", "verify", "x.json"],
    "verify-none": ["verify"],
    "verify-two-files": ["verify", "instances/ones_6x6.json", "instances/delannoy.json"],
    "dualize-extra": ["dualize", "instances/dual_numbers.json", "--extra", "1"],
    "expand-missing-q": ["expand", "--op", "hom-power", "--n", "2"],
    "expand-missing-op": ["expand", "--q", "2"],
    "expand-bad-op": ["expand", "--op", "bogus", "--q", "2"],
    "expand-bad-n": ["expand", "--op", "hom-power", "--n", "two", "--q", "2"],
    "expand-unrecognized": ["expand", "--op", "hom-power", "--n", "2", "--q", "2", "--bogus"],
    "expand-unrecognized-two": ["expand", "--op", "hom-power", "--n", "2", "--q", "2", "a", "-z"],
    "expand-dashdash": ["expand", "--op", "hom-power", "--n", "2", "--q", "2", "--", "x"],
    "expand-abbrev": ["expand", "--o", "hom-power", "--n", "2", "--q", "2"],
    "expand-negative-q": ["expand", "--op", "hom-power", "--n", "2", "--q", "-1/2"],
    "expand-negative-int-q": ["expand", "--op", "hom-power", "--n", "2", "--q", "-2"],
    "expand-repeated": ["expand", "--op", "hom-power", "--n", "2", "--n", "3", "--q", "2"],
    "expand-help-late": ["expand", "--op", "hom-power", "--q", "2", "-h"],
    "expand-help-abbrev": ["expand", "--he"],
    "seq-oracle-missing": ["seq-oracle"],
    "seq-oracle-missing-h": ["seq-oracle", "--table", "instances/ones_6x6.json"],
    "seq-oracle-bad-case": ["seq-oracle", "--table", "t", "--h", "h", "--case", "7", "--q", "1"],
    "seq-oracle-case-text": ["seq-oracle", "--table", "t", "--h", "h", "--case", "x", "--q", "1"],
    "seq-oracle-ambiguous": ["seq-oracle", "--table", "t", "--h", "h", "--case", "1", "--q", "1",
                             "--a", "1,1"],
    "seq-gen-bad-M": ["seq-gen", "--h", "instances/delannoy.json", "--case", "1", "--q", "1",
                      "--boundary", "ones", "--M", "x", "--N", "2"],
    "seq-gen-no-value": ["seq-gen", "--h"],
    "seq-minpoly-float": ["seq-minpoly", "--table", "t", "--rmax", "1.5", "--smax", "1"],
    "convolve-equals": ["convolve", "--f=a", "--g=b", "--q=1", "--M=1", "--N=1", "--M=2"],
    "sweedler-missing": ["sweedler-delta", "--quotient", "q.json"],
}
COMMANDS = ("verify", "dualize", "sweedler-delta", "expand", "seq-gen", "seq-oracle",
            "seq-minpoly", "convolve")


def _argparse_cases(cases):
    """Parser paths with their stdout, stderr and exit code, help at a pinned width."""
    for label, argv in ARGV_CATALOGUE.items():
        cases["cli/argv/" + label] = lambda argv=argv: _cli_at(80, *argv)
    for command in COMMANDS:
        cases["cli/argv/help/" + command] = lambda command=command: _cli_at(80, command, "-h")
        cases["cli/argv/help-narrow/" + command] = lambda command=command: _cli_at(
            40, command, "--help")


REPORT_TEXT = "x\u00e9\"\\q\x01\x1f\x7f\u2028\u2603\U0001F600\udcff\t\n/y"


def _report_text_cases(cases):
    """Reports that echo argv holding non-ASCII, quote, backslash and control characters."""
    cases["cli/report-text/expand-word"] = lambda: _cli(
        "expand", "--op", "normal-order", "--word", REPORT_TEXT, "--q", "2")
    cases["cli/report-text/missing-file"] = lambda: _cli("verify", REPORT_TEXT)
    name = "t\u00e2b\\le \"q\" \x01\u2603\U0001F600.json"
    table = _random_table(random.Random("report-text"), 3, 3)
    for argv in (
        ("seq-minpoly", "--table", name, "--rmax", "1", "--smax", "1"),
        ("convolve", "--f", name, "--g", name, "--q", "2", "--M", "1", "--N", "2"),
        ("verify", name),
    ):
        cases["cli/report-text/file-name/" + argv[0]] = lambda argv=argv: _cli_tables(
            {name: table}, *argv)
    cases["cli/report-text/functional"] = lambda: _cli(
        "sweedler-delta", "--quotient", "instances/qplane_quotient_R2_S2_q2_k3.json",
        "--functional", "0,0,0,\u0661,0,0,0,0,\uff12")
    cases["cli/report-text/functional-bad"] = lambda: _cli(
        "sweedler-delta", "--quotient", "instances/qplane_quotient_R2_S2_q2_k3.json",
        "--functional", REPORT_TEXT)


# ------------------------------------------------------- large and cancelling


def _large_algebras():
    """{label: algebra}: dim-25 to dim-36 quotient algebras of every family."""
    return {
        "qplane-R5-S5": make_qplane_quotient(5, 5, Fraction(5, 3), Fraction(-1, 2)),
        "qplane-R4-S4": make_qplane_quotient(4, 4, -1, 2),
        "poly-N29": make_poly_quotient(29, Fraction(2, 3)),
        "tensor-a2-n4": make_tensor_quotient(2, 4, (Fraction(1, 2), -3)),
    }


def _one_mutant(kind, s, rng, nonzero):
    """One constant of the table changed: an existing one (nonzero) or one drawn at random."""
    if kind == "algebra":
        cells = [(i, j, k) for (i, j), vec in sorted(s.mul.items()) for k in sorted(vec)]
        edit, n = s.with_mul_entry, s.dim
        old = lambda i, j, k: s.mul.get((i, j), {}).get(k, 0)
    elif kind == "coalgebra":
        cells = [(k, i, j) for k, plane in sorted(s.comul.items()) for (i, j) in sorted(plane)]
        edit, n = s.with_comul_entry, s.dim
        old = lambda k, i, j: s.comul.get(k, {}).get((i, j), 0)
    elif kind == "module":
        cells = [(a, i, b) for (a, i), vec in sorted(s.action.items()) for b in sorted(vec)]
        edit, n = s.with_action_entry, min(s.mdim, s.algebra.dim)
        old = lambda a, i, b: s.action.get((a, i), {}).get(b, 0)
    else:
        cells = [(a, b, i) for a, plane in sorted(s.coaction.items()) for (b, i) in sorted(plane)]
        edit, n = s.with_coaction_entry, min(s.mdim, s.coalgebra.dim)
        old = lambda a, b, i: s.coaction.get(a, {}).get((b, i), 0)
    at = rng.choice(cells[:40]) if nonzero else tuple(rng.randrange(n) for _ in range(3))
    return edit(*at, old(*at) + rng.choice(BUMPS))


def _large_structure_cases(cases):
    """verify and dualize at dim 25 to 36, each structure also with one mutated constant."""
    for name, quo in _large_algebras().items():
        alg = quo.as_hom_algebra()
        module = regular_module(alg)
        structures = {
            "algebra": alg,
            "coalgebra": dualize_algebra(alg),
            "module": module,
            "comodule": dualize_module(module),
        }
        rng = random.Random("large/" + name)
        for kind, structure in structures.items():
            prefix = "large/%s/%s" % (name, kind)
            _verify_cases(cases, prefix, kind, structure)
            for label, nonzero in (("mutant-nonzero", True), ("mutant-random", False)):
                mutant = _one_mutant(kind, structure, rng, nonzero)
                _verify_cases(cases, "%s/%s" % (prefix, label), kind, mutant)
                if kind == "algebra":
                    cases["%s/%s/dualize" % (prefix, label)] = (
                        lambda mutant=mutant: documents.coalgebra_doc(dualize_algebra(mutant))
                    )
                elif kind == "module":
                    cases["%s/%s/dualize" % (prefix, label)] = (
                        lambda mutant=mutant: documents.comodule_doc(dualize_module(mutant))
                    )
        n = alg.dim
        bumped = _bumped_map(LinearMapCandidate(n, n, Matrix.identity(n)), rng)
        dual = structures["coalgebra"]
        cases["large/%s/morphism-bumped/algebra" % name] = lambda alg=alg, bumped=bumped: _report(
            check_algebra_morphism(alg, alg, bumped)
        )
        cases["large/%s/morphism-bumped/coalgebra" % name] = (
            lambda dual=dual, bumped=bumped: _report(
                check_coalgebra_morphism(dual, dual, dualize_algebra_morphism(bumped))
            )
        )
    quo = _large_algebras()["qplane-R5-S5"]
    rng = random.Random("large-cli")
    alg = _one_mutant("algebra", quo.as_hom_algebra(), rng, True)
    module = _one_mutant("module", regular_module(quo.as_hom_algebra()), rng, True)
    docs = {
        "a.json": documents.algebra_doc(alg),
        "c.json": documents.coalgebra_doc(dualize_algebra(alg)),
        "m.json": documents.module_doc(module),
        "cm.json": documents.comodule_doc(dualize_module(module)),
    }
    for doc in docs:
        cases["large/cli/verify/" + doc] = lambda doc=doc: _cli_documents(docs, "verify", doc)
    for doc in ("a.json", "m.json"):
        cases["large/cli/dualize/" + doc] = lambda doc=doc: _cli_documents(docs, "dualize", doc)


def _cancelling_algebra(rng, dim):
    """Rows 1 and 2 and columns 1 and 2 of the product equal, twist columns e_1 - e_2 and e_0.

    Every side that contracts e_1 - e_2 against the product cancels to zero on
    tuples the sweeps still visit, so some suffixes of a block cancel.
    """
    vec = lambda: {k: _rational(rng, (1, 2, 3)) for k in range(dim) if rng.random() < 0.6}
    mul = {}
    for i in range(dim):
        for j in range(dim):
            a, b = (1 if i == 2 else i), (1 if j == 2 else j)
            if (a, b) not in mul:
                mul[(a, b)] = vec()
            mul[(i, j)] = dict(mul[(a, b)])
    rows = [[0] * dim for _ in range(dim)]
    rows[1][0], rows[2][0] = 1, -1
    rows[0][1] = 1
    for j in range(2, dim):
        for i in range(dim):
            rows[i][j] = _rational(rng, (1, 5)) if rng.random() < 0.5 else 0
    rows[1][dim - 1], rows[2][dim - 1] = Fraction(1, 3), Fraction(-1, 3)
    return FiniteHomAlgebra(dim, mul, Matrix(rows, cols=dim))


def _cancelling_cases(cases):
    """Structures whose block sides cancel to zero on some swept suffixes, and their mutants."""
    for dim in (3, 4, 5):
        rng = random.Random("cancelling/%d" % dim)
        alg = _cancelling_algebra(rng, dim)
        zero_cols = FiniteHomAlgebra(
            dim, alg.mul, Matrix([[x if j % 2 else 0 for j, x in enumerate(row)]
                                  for row in alg.twist.entries], cols=dim)
        )
        for label, base in (("twist", alg), ("zero-columns", zero_cols)):
            module = FiniteHomModule(base, dim, base.mul, base.twist)
            structures = {
                "algebra": base,
                "coalgebra": dualize_algebra(base),
                "module": module,
                "comodule": dualize_module(module),
            }
            for kind, structure in structures.items():
                prefix = "cancelling/d%d/%s/%s" % (dim, label, kind)
                _verify_cases(cases, prefix, kind, structure)
                mutant = _one_mutant(kind, structure, rng, True)
                _verify_cases(cases, prefix + "/mutant", kind, mutant)
            cand = LinearMapCandidate(dim, dim, base.twist)
            dual, comodule = structures["coalgebra"], structures["comodule"]
            prefix = "cancelling/d%d/%s/morphism-twist" % (dim, label)
            cases[prefix + "/algebra"] = lambda base=base, cand=cand: _report(
                check_algebra_morphism(base, base, cand)
            )
            cases[prefix + "/coalgebra"] = lambda dual=dual, cand=cand: _report(
                check_coalgebra_morphism(dual, dual, dualize_algebra_morphism(cand))
            )
            cases[prefix + "/module"] = lambda module=module, cand=cand: _report(
                check_module_morphism(module, module, cand)
            )
            cases[prefix + "/comodule"] = lambda comodule=comodule, cand=cand: _report(
                check_comodule_morphism(comodule, comodule, dualize_module_morphism(cand))
            )


def cases():
    """Ordered {case name: thunk returning a JSON-ready value}."""
    out = {}
    _zoo_cases(out)
    _quotient_cases(out)
    _family_cases(out)
    _error_cases(out)
    _cli_cases(out)
    _quotient_document_cases(out)
    _seq_minpoly_cases(out)
    _convolve_cases(out)
    _qbinom_cases(out)
    _row_minimal_cases(out)
    _seq_oracle_cases(out)
    _rational_structure_cases(out)
    _yau_cases(out)
    _linear_algebra_cases(out)
    _seq_gen_cases(out)
    _convolve_shape_cases(out)
    _quantum_plane_cases(out)
    _literal_cases(out)
    _digit_limit_cases(out)
    _argparse_cases(out)
    _report_text_cases(out)
    _large_structure_cases(out)
    _cancelling_cases(out)
    return out


def render(thunk):
    """Compact canonical JSON of one case's value."""
    return json.dumps(thunk(), sort_keys=True, separators=(",", ":"))


def digest(text):
    """A rendering as the corpus keeps it: itself when short, else its sha256."""
    if len(text) <= INLINE_LIMIT:
        return text
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_corpus():
    """{case name: digest} from corpus.json, in file order."""
    raw = json.loads(CORPUS.read_text(encoding="utf-8"))
    return {
        name: value if isinstance(value, str) else render(lambda value=value: value)
        for name, value in raw.items()
    }


def main():
    frozen = load_corpus() if CORPUS.exists() else {}
    rendered = {name: digest(render(thunk)) for name, thunk in cases().items()}
    changed = [name for name, value in frozen.items() if rendered.get(name) != value]
    if changed:
        raise SystemExit(
            "%d frozen cases differ or are gone; nothing written:\n  %s"
            % (len(changed), "\n  ".join(changed))
        )
    lines = []
    for name, value in rendered.items():
        inline = value if not value.startswith("sha256:") else json.dumps(value)
        lines.append("%s: %s" % (json.dumps(name), inline))
    CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(
        "wrote %d cases (%d new) to %s"
        % (len(lines), len(lines) - len(frozen), CORPUS.name)
    )


if __name__ == "__main__":
    main()
