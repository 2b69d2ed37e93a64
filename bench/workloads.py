"""The three seeded workloads, one round of jobs at a time.

Each generator takes a random.Random seeded from (workload, seed, round),
writes the round's input documents, and returns its jobs in run order.
Everything the program sees comes from these generated documents and
arguments; every expected answer comes from bench/reference.py or from a
cross-check between jobs of the same round.
"""

import json
import math
import os
from fractions import Fraction as F

from harness import cli_job, lib_job
import reference as ref

# Sizes are fixed per slot, so every round does about the same work; the
# seed varies shapes of equal dimension, parameters, coefficients and which
# constants are mutated.  q and k cycle through their value lists across
# rounds, from a seeded starting point, so every run sees each value.
SIZES = {
    "full": {
        "box_dim": 36,          # qplane quotient document, (R+1)(S+1) = 36
        "poly_N": 16,
        "tensor": ((2, 3), (3, 2)),   # dim 15 or 13
        "doc_dim": 16,          # algebra / module documents
        "doc_tensor": (2, 3),
        "table": 12,            # sequences: M = N
        "random_table": 10,
        "conv": 9,
        "expand_n": 24,
        "words_n": 5,
        "derived": 7,
    },
    "tiny": {
        "box_dim": 6,
        "poly_N": 4,
        "tensor": ((2, 2),),
        "doc_dim": 4,
        "doc_tensor": (2, 2),
        "table": 5,
        "random_table": 4,
        "conv": 3,
        "expand_n": 6,
        "words_n": 3,
        "derived": 3,
    },
}

# The quotient box takes q and k away from +-1, where its numbers stay tiny,
# so its verification costs about the same in every round.
Q_VALUES = (F(2), F(5, 3), F(-3, 2), F(3, 2), F(-2, 3), F(1, 2))
K_VALUES = (F(2), F(3, 2), F(-2), F(1, 3), F(2, 3))
TWIST_K = (F(2), F(-1), F(3, 2), F(1, 2), F(-2, 3), F(3))
SCALES = (F(1), F(2), F(-1), F(1, 2), F(3, 2), F(-2, 3))
SEQ_Q = (F(1), F(-1), F(2), F(5, 3), F(1, 2), F(-3, 2))
H_COEFFS = (F(1), F(-1), F(2), F(1, 2), F(-1, 3), F(3, 2))
BIG_Q = (F(2), F(5, 3), F(3, 2), F(-2), F(7, 5))
# Light jobs, whose time is mostly the CLI and document layers, are the
# majority of every round (the whole zoo in structures, single-cell oracles
# in sequences), so the median job sits inside one cluster of similar jobs
# instead of on the edge between two kinds.
CELL_ORACLES = 10
DIGIT_LIMIT = 4300


class WorkDir:
    """Where a round's documents live; arguments name them relative to it."""

    def __init__(self, path):
        self.path = path
        self.names = set()
        os.makedirs(path, exist_ok=True)

    def write(self, name, doc):
        with open(os.path.join(self.path, name), "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc))
        self.names.add(name)
        return name

    def clear(self):
        for name in self.names:
            os.remove(os.path.join(self.path, name))
        self.names = set()


# ------------------------------------------------------------ output parsing


def _split(cells_doc):
    return {
        s: {(a, b): F(c) for a, b, c in cells}
        for s, cells in cells_doc
    }


def _same_coalgebra(doc, table):
    if doc.get("kind") != "hom-coalgebra" or doc["dim"] != table.dim:
        return "dual has kind %r / dim %r" % (doc.get("kind"), doc.get("dim"))
    if _split(doc["comul"]) != ref.dual_comul(table):
        return "dual comultiplication differs from the transposed product table"
    if ref.rows_of(doc["twist"]) != ref.transpose(table.twist):
        return "dual twist is not the transpose of the twist"
    return None


def _same_comodule(doc, table):
    if doc.get("kind") != "hom-comodule" or doc["mdim"] != table.dim:
        return "dual module has kind %r" % (doc.get("kind"),)
    bad = _same_coalgebra(doc["coalgebra"], table)
    if bad:
        return "comodule " + bad
    if _split(doc["coaction"]) != ref.dual_comul(table):
        return "coaction differs from the transposed action"
    if ref.rows_of(doc["mtwist"]) != ref.transpose(table.twist):
        return "comodule twist is not the transpose of the module twist"
    return None


def _passes(report):
    return None if report["violations"] == [] else "unexpected violations"


def _fails_at(axiom, at):
    """Oracle for a mutation: the verifier must report the known failing instance."""

    def check(report):
        if not any(v["axiom"] == axiom and v["at"] == at for v in report["violations"]):
            return "mutation: %s at %r not reported" % (axiom, at)
        return None

    return check


# ------------------------------------------------------------ structures


def _shapes(dim):
    """Every (R, S) with (R+1)(S+1) = dim and neither side over 3 times the other.

    Long thin boxes raise the twist to much higher powers, so they would
    make some rounds far slower than others.
    """
    return [(a - 1, dim // a - 1) for a in range(2, dim // 2 + 1)
            if dim % a == 0 and max(a, dim // a) <= 3 * min(a, dim // a)]


def _cycle(values, turn):
    return values[turn % len(values)]


def _family_params(rng, family, size, turn, doc=False):
    if family == "qplane":
        R, S = rng.choice(_shapes(size["doc_dim" if doc else "box_dim"]))
        return {"R": R, "S": S, "q": _cycle(Q_VALUES, turn), "k": _cycle(K_VALUES, turn)}
    if family == "poly":
        return {"N": size["doc_dim"] - 1 if doc else size["poly_N"], "k": _cycle(TWIST_K, turn)}
    alphabet, n = size["doc_tensor"] if doc else rng.choice(size["tensor"])
    return {"alphabet": alphabet, "n": n, "twists": [rng.choice(TWIST_K) for _ in range(alphabet)]}


def _smaller(family, params):
    """The target box of the quotient morphisms: about half the source in each bound."""
    out = dict(params)
    if family == "qplane":
        out["R"] = max(1, params["R"] // 2)
        out["S"] = max(1, params["S"] // 2)
    elif family == "poly":
        out["N"] = params["N"] // 2
    else:
        out["n"] = max(1, params["n"] // 2)
    return out


def _projection(rng, family, big, small, params):
    """A quotient morphism big -> small: rescale each monomial, kill what leaves the box."""
    if family == "qplane":
        sx, sy = rng.choice(SCALES), rng.choice(SCALES)
        scale = lambda key: sx ** key[0] * sy ** key[1]
    elif family == "poly":
        s = rng.choice(SCALES)
        scale = lambda key: s ** key
    else:
        letters = [rng.choice(SCALES) for _ in range(params["alphabet"])]
        scale = lambda word: math.prod((letters[c] for c in word), start=F(1))
    index = {key: i for i, key in enumerate(small.keys)}
    rows = [[F(0)] * big.dim for _ in range(small.dim)]
    for col, key in enumerate(big.keys):
        if key in index:
            rows[index[key]][col] = scale(key)
    return rows


def _build_quotient(family, params):
    from homdual import sweedler

    if family == "qplane":
        return sweedler.make_qplane_quotient(params["R"], params["S"], params["q"], params["k"])
    if family == "poly":
        return sweedler.make_poly_quotient(params["N"], params["k"])
    return sweedler.make_tensor_quotient(params["alphabet"], params["n"], params["twists"])


def _quotient_jobs(rng, work, tag, family, params):
    """Quotient document: verify, dualize, delta, morphisms, pullback naturality."""
    from homdual import exact_math, sweedler

    table = ref.family_table(family, params)
    small_params = _smaller(family, params)
    small = ref.family_table(family, small_params)
    qfile = work.write(tag + "-q.json", ref.quotient_doc(family, params))
    qdoc_small = ref.quotient_doc(family, small_params)
    dfile = work.write(tag + "-dual.json", ref.coalgebra_doc(table))
    fmat = _projection(rng, family, table, small, params)
    bad = [row[:] for row in fmat]
    bad[0][0] = rng.choice((F(2), F(-1), F(3), F(1, 2)))
    mfile = work.write(tag + "-mor.json", ref.morphism_doc(ref.quotient_doc(family, params), qdoc_small, fmat))
    badfile = work.write(tag + "-mor-bad.json", ref.morphism_doc(ref.quotient_doc(family, params), qdoc_small, bad))
    cfile = work.write(tag + "-comor.json", ref.morphism_doc(
        ref.coalgebra_doc(small), ref.coalgebra_doc(table), ref.transpose(fmat)))
    functional = [rng.choice((F(0), F(1), F(-2), F(1, 3))) for _ in range(table.dim)]
    expected_delta = ref.delta_terms(table, functional)
    small_functional = [rng.choice((F(1), F(-1), F(2, 3))) for _ in range(small.dim)]
    expected_pull = ref.mat_vec(ref.transpose(fmat), small_functional)

    def check_delta(report):
        result = report["result"]
        if len(result["labels"]) != table.dim:
            return "delta labels do not match the quotient dimension"
        got = {(i, j): F(c) for i, j, c in result["terms"]}
        return None if got == expected_delta else "delta terms differ from f(e_i e_j)"

    def naturality(_):
        big_q, small_q = _build_quotient(family, params), _build_quotient(family, small_params)
        return sweedler.check_pullback_naturality(big_q, small_q, exact_math.Matrix(fmat))

    def pullback(_):
        big_q, small_q = _build_quotient(family, params), _build_quotient(family, small_params)
        f = sweedler.SweedlerFunctional(small_q, small_functional)
        return sweedler.pullback_functional(big_q, small_q, exact_math.Matrix(fmat), f)

    functional_arg = ",".join(ref.rat_str(c) for c in functional)
    return [
        cli_job("verify-quotient", ["verify", qfile], 0, _passes),
        cli_job("dualize-quotient", ["dualize", qfile], 0,
                lambda report: _same_coalgebra(report["result"], table)),
        cli_job("verify-dual", ["verify", dfile], 0, _passes),
        cli_job("sweedler-delta", ["sweedler-delta", "--quotient", qfile,
                                   "--functional=" + functional_arg], 0, check_delta),
        cli_job("verify-algebra-morphism", ["verify", mfile], 0, _passes),
        cli_job("verify-algebra-morphism-mutated", ["verify", badfile], 1,
                _fails_at("multiplication-compat", [0, 0])),
        cli_job("verify-coalgebra-morphism", ["verify", cfile], 0, _passes),
        lib_job("pullback-naturality", naturality,
                lambda report: None if report.passed else "naturality violated"),
        lib_job("pullback-functional", pullback,
                lambda f: None if f.coeffs == expected_pull else "pullback is not the transpose"),
    ]


def _unit_row_mutation(rng, table):
    """Change e_0 e_j = t_j e_j to c e_j, c not in {0, t_j}.

    With alpha(e_0) = e_0 = e_0 e_0, Hom-associativity at (0, 0, j) then
    reads c^2 e_j = t_j c e_j, so the verifier must report a violation there.
    """
    t = table.twist_diagonal()
    j = rng.randint(1, table.dim - 1)
    c = t[j] + rng.choice((F(1), F(-1), F(2), F(1, 2)))
    if c == 0:
        c = t[j] + 3
    mul = {key: dict(vec) for key, vec in table.mul.items()}
    mul[(0, j)] = {j: c}
    return ref.Table(table.dim, mul, table.twist, table.keys), ("hom-associativity", [0, 0, j])


def _random_mutation(rng, table, tries=50):
    """Change one structure constant; keep the first change an axiom instance rejects.

    The failing instance comes from reference.first_violation, so the
    expected verdict does not depend on the program under test.
    """
    keys = sorted(table.mul)
    for _ in range(tries):
        i, j = rng.choice(keys)
        k = rng.randrange(table.dim)
        mul = {key: dict(vec) for key, vec in table.mul.items()}
        value = mul[(i, j)].get(k, F(0)) + rng.choice((F(1), F(-1), F(2), F(1, 2)))
        if value:
            mul[(i, j)][k] = value
        else:
            del mul[(i, j)][k]
        mutated = ref.Table(table.dim, mul, table.twist, table.keys)
        found = ref.first_violation(mutated)
        if found:
            return mutated, found
    raise RuntimeError("no rejected single-constant mutation found")


def _module_mutation(rng, table):
    """Change m_0 . e_i = t_i m_i to c m_i, c != t_i, for some i with e_i e_j != 0 (j >= 1).

    Module Hom-associativity at (0, i, j) then reads c t_j mu m_p = t_i t_j mu m_p.
    """
    t = table.twist_diagonal()
    i, j = rng.choice(sorted((i, j) for (i, j) in table.mul if i >= 1 and j >= 1))
    c = t[i] + rng.choice((F(1), F(-1), F(2), F(1, 3)))
    if c == 0:
        c = t[i] + 3
    action = {key: dict(vec) for key, vec in table.mul.items()}
    action[(0, i)] = {i: c}
    return action, ("module-hom-associativity", [0, i, j])


def _document_jobs(rng, work, tag, table, provable):
    """Algebra and regular-module documents: verify, dualize, mutations, morphisms.

    provable: the table is a unital quotient family with a diagonal twist, so
    the mutations of _unit_row_mutation and _module_mutation fail by proof
    and its twist is a module morphism; otherwise one algebra constant is
    mutated and the reference checker supplies the failing instance.
    """
    afile = work.write(tag + "-alg.json", ref.algebra_doc(table))
    dfile = work.write(tag + "-coalg.json", ref.coalgebra_doc(table))
    modfile = work.write(tag + "-mod.json", ref.module_doc(table))
    comodfile = work.write(tag + "-comod.json", ref.comodule_doc(table))
    jobs = [
        cli_job("verify-algebra", ["verify", afile], 0, _passes),
        cli_job("dualize-algebra", ["dualize", afile], 0,
                lambda report: _same_coalgebra(report["result"], table)),
        cli_job("verify-dual", ["verify", dfile], 0, _passes),
        cli_job("verify-module", ["verify", modfile], 0, _passes),
        cli_job("dualize-module", ["dualize", modfile], 0,
                lambda report: _same_comodule(report["result"], table)),
        cli_job("verify-comodule", ["verify", comodfile], 0, _passes),
    ]
    if not provable:
        bad, (axiom, at) = _random_mutation(rng, table)
        badalg = work.write(tag + "-alg-bad.json", ref.algebra_doc(bad))
        return jobs + [cli_job("verify-algebra-mutated", ["verify", badalg], 1,
                               _fails_at(axiom, at))]
    bad, (axiom, at) = _unit_row_mutation(rng, table)
    badalg = work.write(tag + "-alg-bad.json", ref.algebra_doc(bad))
    action, (maxiom, mat) = _module_mutation(rng, table)
    badmod = work.write(tag + "-mod-bad.json", ref.module_doc(table, action))
    module = ref.module_doc(table)
    twist = table.twist
    morfile = work.write(tag + "-modmor.json", ref.morphism_doc(module, module, twist))
    comodule = ref.comodule_doc(table)
    comorfile = work.write(tag + "-comodmor.json",
                           ref.morphism_doc(comodule, comodule, ref.transpose(twist)))
    return jobs + [
        cli_job("verify-algebra-mutated", ["verify", badalg], 1, _fails_at(axiom, at)),
        cli_job("verify-module-mutated", ["verify", badmod], 1, _fails_at(maxiom, mat)),
        cli_job("verify-module-morphism", ["verify", morfile], 0, _passes),
        cli_job("verify-comodule-morphism", ["verify", comorfile], 0, _passes),
    ]


_ZOO = []


def _zoo_tables():
    """The library's ready-made instances, read once as plain tables."""
    if not _ZOO:
        from homdual.zoo import zoo_algebras

        for name, alg in zoo_algebras():
            mul = {key: dict(vec) for key, vec in alg.mul.items()}
            twist = [list(row) for row in alg.twist.entries]
            _ZOO.append((name, ref.Table(alg.dim, mul, twist)))
    return _ZOO


def structures_round(rng, size, work, turn):
    jobs = []
    for family in ("qplane", "poly", "tensor"):
        jobs += _quotient_jobs(rng, work, family, family, _family_params(rng, family, size, turn))
    family = _cycle(("qplane", "poly", "tensor"), turn)
    params = _family_params(rng, family, size, turn + 1, doc=True)
    jobs += _document_jobs(rng, work, "doc", ref.family_table(family, params), provable=True)
    for slot, (name, table) in enumerate(_zoo_tables()):
        jobs += _document_jobs(rng, work, "zoo%d" % slot, table, provable=False)
    return jobs


# ------------------------------------------------------------ sequences


def _random_h(rng):
    r, s = rng.randint(1, 2), rng.randint(1, 2)
    positions = [(i, j) for i in range(r + 1) for j in range(s + 1) if (i, j) != (0, 0)]
    coeffs = {pos: rng.choice(H_COEFFS) for pos in positions if rng.random() < 0.6}
    if not coeffs:
        coeffs[rng.choice(positions)] = rng.choice(H_COEFFS)
    return r, s, coeffs


def _random_grid(rng, M, N, lo=-4, hi=4):
    return [[F(rng.randint(lo, hi)) for _ in range(N + 1)] for _ in range(M + 1)]


def _bipoly(r, s, coeffs):
    from homdual.recseq import BiPoly

    return BiPoly(r, s, coeffs)


def _residual_failures(grid, r, s, coeffs, case, q, k):
    """Interior cells where annihilation_residual is nonzero (the shared oracle)."""
    from homdual.recseq import BiSequence, annihilation_residual

    table = BiSequence(len(grid) - 1, len(grid[0]) - 1, grid)
    h = _bipoly(r, s, coeffs)
    return [
        (m, n)
        for m in range(r, table.M + 1)
        for n in range(s, table.N + 1)
        if annihilation_residual(table, h, case, m, n, q, k) != 0
    ]


def _check_rows(polys, sequences):
    """Each returned univariate annihilator must annihilate its row."""
    for poly, seq in zip(polys, sequences):
        if poly is not None and not ref.annihilates(poly.coeffs, seq):
            return "row annihilator does not annihilate its row"
    return None


def _row_minimal_job(grid):
    from homdual import recseq

    M, N = len(grid) - 1, len(grid[0]) - 1
    cols = [[grid[m][n] for m in range(M + 1)] for n in range(N + 1)]

    def check(result):
        x_polys, y_polys = result
        if len(x_polys) != N + 1 or len(y_polys) != M + 1:
            return "row_minimal_polys returned the wrong number of rows"
        return _check_rows(x_polys, cols) or _check_rows(y_polys, grid)

    return lib_job("row-minimal-polys",
                   lambda _: recseq.row_minimal_polys(recseq.BiSequence(M, N, grid)), check)


def _oracle_jobs(work, tag, source, M, N, r, s, coeffs, case, q, k, rng, kind, at_cells, perturb):
    """seq-oracle --all on a certified table (exit 0), --at on at_cells of its
    interior cells, and --all on a perturbed copy (exit 1) when perturb is set.

    source() returns the table; it may be the output of an earlier job.
    """
    hfile = work.write(tag + "-h.json", ref.bipoly_doc(r, s, coeffs))
    argv = ["seq-oracle", "--h", hfile, "--case", str(case), "--q=" + ref.rat_str(q), "--all"]
    if k != 1:
        argv += ["--k=" + ref.rat_str(k)]
    cells = [(m, n) for m in range(r, M + 1) for n in range(s, N + 1)]
    bad_cell = rng.choice(cells)

    def clean(report):
        if len(report["result"]["residuals"]) != len(cells):
            return "residual count does not match the interior"
        return None if all(v == "0" for _, _, v in report["result"]["residuals"]) else "nonzero residual"

    def perturbed(report):
        at = [tuple(v["at"]) for v in report["violations"]]
        return None if bad_cell in at else "perturbed cell %r not reported" % (bad_cell,)

    def write_table(name, bump):
        def prepare():
            table = [list(row) for row in source()]
            if bump:
                m, n = bad_cell
                table[m][n] += 1
            work.write(name, ref.bisequence_doc(table))

        return prepare

    def one_cell(cell):
        def check(report):
            residuals = report["result"]["residuals"]
            return None if residuals == [[cell[0], cell[1], "0"]] else "nonzero residual at a cell"
        return check

    tfile, badfile = tag + "-t.json", tag + "-t-bad.json"
    at_jobs = [
        cli_job(kind + "-at", argv[:1] + ["--table", tfile] + argv[1:-1] + ["--at", "%d,%d" % cell],
                0, one_cell(cell))
        for cell in rng.sample(cells, min(at_cells, len(cells)))
    ]
    jobs = [cli_job(kind, argv[:1] + ["--table", tfile] + argv[1:], 0, clean,
                    prepare=write_table(tfile, False))] + at_jobs
    if perturb:
        jobs.append(cli_job(kind + "-perturbed", argv[:1] + ["--table", badfile] + argv[1:], 1,
                            perturbed, prepare=write_table(badfile, True)))
    return jobs


def _plain_table(rng, size, case, q):
    r, s, coeffs = _random_h(rng)
    M = N = size["table"]
    boundary = _random_grid(rng, M, N)
    grid = ref.plain_fill(r, s, coeffs, case, q, boundary, M, N)
    return r, s, coeffs, boundary, grid


def sequences_round(rng, size, work, turn):
    jobs = []
    tables = []
    case, q = _cycle([(c, q) for c in (2, 3) for q in SEQ_Q], turn)
    for tag, case, q in (("c1", 1, _cycle(SEQ_Q, turn)), ("c23", case, q)):
        r, s, coeffs, boundary, grid = _plain_table(rng, size, case, q)
        tables.append(grid)
        hfile = work.write(tag + "-h.json", ref.bipoly_doc(r, s, coeffs))
        bfile = work.write(tag + "-b.json", ref.boundary_doc(boundary, r, s))
        M, N = len(grid) - 1, len(grid[0]) - 1

        def check_gen(report, grid=grid):
            got = [[F(v) for v in row] for row in report["result"]["entries"]]
            return None if got == grid else "filled table differs from the recursion"

        jobs.append(cli_job("seq-gen", ["seq-gen", "--h", hfile, "--case", str(case),
                                        "--q=" + ref.rat_str(q), "--boundary", bfile, "--M", str(M),
                                        "--N", str(N)], 0, check_gen))
        jobs += _oracle_jobs(work, tag, lambda grid=grid: grid, M, N, r, s, coeffs, case, q, 1,
                             rng, "seq-oracle", CELL_ORACLES, True)
        if case == 1 or q == 1:
            tfile = work.write(tag + "-min.json", ref.bisequence_doc(grid))

            def check_min(report, grid=grid, r=r, s=s):
                result = report["result"]
                if not result["found"]:
                    return "no annihilator found for a table generated by one"
                order = list(ref.bidegree_candidates(2, 2))
                if order.index((result["r"], result["s"])) > order.index((r, s)):
                    return "annihilator later in the search order than the generating one"
                h = result["bipoly"]
                found = {(i, j): F(c) for i, j, c in h["coeffs"]}
                if _residual_failures(grid, h["r"], h["s"], found, 1, F(1), F(1)):
                    return "recovered annihilator has nonzero residuals"
                return None

            jobs.append(cli_job("seq-minpoly", ["seq-minpoly", "--table", tfile, "--rmax", "2",
                                                "--smax", "2"], 0, check_min))
    while True:
        grid = _random_grid(rng, size["random_table"], size["random_table"], -9, 9)
        if ref.no_annihilator_certificate(grid, 2, 2, rng):
            break
    tables.append(grid)
    nfile = work.write("none-t.json", ref.bisequence_doc(grid))
    jobs.append(cli_job("seq-minpoly-none", ["seq-minpoly", "--table", nfile, "--rmax", "2",
                                             "--smax", "2"], 0,
                        lambda report: None if report["result"] == {"found": False}
                        else "annihilator reported for a table proven to have none"))
    jobs += [_row_minimal_job(grid) for grid in tables]
    M = N = size["conv"]
    q = _cycle(SEQ_Q, turn + 3)
    f = _random_grid(rng, M + N, N, -5, 5)
    g = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(N + 1)] for _ in range(M + 1)]
    expected = ref.convolution(f, g, q, M, N)
    ffile = work.write("conv-f.json", ref.bisequence_doc(f))
    gfile = work.write("conv-g.json", ref.bisequence_doc(g))
    jobs.append(cli_job("convolve", ["convolve", "--f", ffile, "--g", gfile, "--q=" + ref.rat_str(q),
                                     "--M", str(M), "--N", str(N)], 0,
                        lambda report: None
                        if [[F(v) for v in row] for row in report["result"]["entries"]]
                        == expected else "convolution differs from the q-Pascal reference"))
    return jobs


# ------------------------------------------------------------ twisted plane


def _terms(report):
    return {(m, n): F(c) for m, n, c in report["result"]["terms"]}


def _expand_group(q, k, n, words):
    """hom-power and qbinom-formula of (x+y)^n plus normal-order of words, cross-checked."""
    qs, ks = ref.rat_str(q), ref.rat_str(k)
    power = cli_job("expand-hom-power", ["expand", "--op", "hom-power", "--n", str(n),
                                         "--q=" + qs, "--k=" + ks], 0, lambda report: None)
    kpow = k ** (((n - 1) * (n + 2)) // 2)
    word_jobs = []
    for word in words:
        coeff, key = ref.normal_order(word, q)
        word_jobs.append(cli_job(
            "expand-normal-order", ["expand", "--op", "normal-order", "--word", word,
                                    "--q=" + qs, "--k=" + ks], 0,
            lambda report, coeff=coeff, key=key: None if _terms(report) == {key: coeff}
            else "normal form differs from q^inversions"))

    def cross(report):
        got = _terms(report)
        if power.output is None or _terms(json.loads(power.output.stdout)) != got:
            return "qbinom-formula differs from hom-power of x+y"
        if any(m + e != n for m, e in got):
            return "expansion of (x+y)^n has a term of the wrong degree"
        by_key = {}
        for word in words:
            coeff, key = ref.normal_order(word, q)
            by_key[key] = by_key.get(key, 0) + coeff
        for key, total in by_key.items():
            if len(words) == math.comb(n, key[0]) and got[key] != total * kpow:
                return "coefficient of x^%d y^%d differs from its sum over words" % key
        return None

    formula = cli_job("expand-qbinom-formula", ["expand", "--op", "qbinom-formula", "--n", str(n),
                                                "--q=" + qs, "--k=" + ks], 0, cross)
    return [power] + word_jobs + [formula]


def _big_word_job(rng):
    """normal-order of y^L x^L: coefficient q^(L^2), longer than the int->str digit limit."""
    q = rng.choice(BIG_Q)
    log2 = max(abs(q.numerator), q.denominator).bit_length() - 1  # lower bound on log2 |q|
    L = math.isqrt(int((DIGIT_LIMIT + 200) / (0.30102 * log2))) + rng.randint(2, 12)
    word = "y" * L + "x" * L
    coeff = q ** (L * L)
    return cli_job("expand-normal-order-big", ["expand", "--op", "normal-order", "--word", word,
                                               "--q=" + ref.rat_str(q)], 0,
                   lambda report: None if _terms(report) == {(L, L): coeff}
                   else "normal form differs from q^(L^2)", big_output=True)


def _derived_jobs(rng, work, tag, size, perturb):
    """Fully twisted fill of a table, k-oracles on its output, and one derived stencil."""
    from homdual import recseq

    r, s, coeffs = _random_h(rng)
    case, q, k = rng.randint(1, 3), rng.choice(Q_VALUES), rng.choice(TWIST_K)
    M = N = size["derived"]
    boundary = _random_grid(rng, M, N)
    cells = {(m, n): boundary[m][n] for m in range(M + 1) for n in range(N + 1)
             if m < r or n < s}

    def fill(_):
        return recseq.generate_sequence_derived(_bipoly(r, s, coeffs), case, q, k, cells, M, N)

    def check_fill(table):
        grid = [list(row) for row in table.grid]
        if any(grid[m][n] != v for (m, n), v in cells.items()):
            return "derived table does not keep its boundary"
        if _residual_failures(grid, r, s, coeffs, case, q, k):
            return "derived table has nonzero residuals"
        return None

    fill_job = lib_job("derived-fill", fill, check_fill)
    jobs = [fill_job] + _oracle_jobs(work, tag, lambda: fill_job.output.grid, M, N, r, s, coeffs,
                                     case, q, k, rng, "seq-oracle-k", 0, perturb)
    m0, n0 = r + rng.randint(0, 5), s + rng.randint(0, 5)
    probe = _random_grid(rng, m0, n0)

    def derive(_):
        return recseq.derive_recursion(_bipoly(r, s, coeffs), case, m0, n0, q, k)

    def check_derive(stencil):
        """Solve the cell from the stencil, then the residual there must vanish."""
        grid = [list(row) for row in probe]
        grid[m0][n0] = sum((c * grid[m0 - a][n0 - b] for (a, b), c in stencil.coeffs), F(0))
        value = recseq.annihilation_residual(recseq.BiSequence(m0, n0, grid),
                                             _bipoly(r, s, coeffs), case, m0, n0, q, k)
        return None if value == 0 else "stencil does not solve the annihilation condition"

    return jobs + [lib_job("derive-recursion", derive, check_derive)]


def twisted_plane_round(rng, size, work, turn):
    q, k = _cycle(Q_VALUES, turn), _cycle(TWIST_K, turn // len(Q_VALUES))
    n = size["expand_n"]
    words = ["".join(rng.choice("xy") for _ in range(n)) for _ in range(2)]
    jobs = _expand_group(q, k, n, words)
    n0 = size["words_n"]
    i = rng.choice((n0 // 2, n0 - n0 // 2))
    jobs += _expand_group(rng.choice(Q_VALUES), rng.choice(TWIST_K), n0, ref.words_with(n0, i))
    jobs.append(_big_word_job(rng))
    jobs += _derived_jobs(rng, work, "d1", size, perturb=True)
    jobs += _derived_jobs(rng, work, "d2", size, perturb=False)
    return jobs


WORKLOADS = {
    "structures": structures_round,
    "sequences": sequences_round,
    "twisted_plane": twisted_plane_round,
}
