"""Benchmark-side reference constructions, written without homdual.

Everything the oracles compare against is built here from the definitions:
the structure constants of the three quotient families, their finite duals,
the plain recursion fill, the q-Pascal convolution and the quantum-plane
normal form of a word.  The documents handed to the program are written
from these tables, so the program only ever sees generated JSON.
"""

import itertools
from fractions import Fraction


def rat_str(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


class Table:
    """Finite algebra given by structure constants and a dense twist matrix.

    mul maps (i, j) to {k: coeff} with zero coefficients omitted; twist[r][c]
    is row r, column c, with column c the image of basis vector c.
    """

    def __init__(self, dim, mul, twist, keys=None):
        self.dim = dim
        self.mul = mul
        self.twist = twist
        self.keys = keys

    def twist_diagonal(self):
        return [self.twist[i][i] for i in range(self.dim)]


def _diag(values):
    n = len(values)
    return [[values[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def poly_table(N, k):
    keys = list(range(N + 1))
    mul = {(a, b): {a + b: k ** (a + b)} for a in keys for b in keys if a + b <= N}
    return Table(N + 1, mul, _diag([k ** a for a in keys]), keys)


def tensor_words(alphabet, n):
    words = [()]
    frontier = [()]
    for _ in range(n):
        frontier = [w + (c,) for w in frontier for c in range(alphabet)]
        words.extend(frontier)
    return words


def tensor_table(alphabet, n, twists):
    keys = tensor_words(alphabet, n)
    index = {w: i for i, w in enumerate(keys)}

    def weight(word):
        out = Fraction(1)
        for c in word:
            out *= twists[c]
        return out

    mul = {}
    for i, u in enumerate(keys):
        for j, v in enumerate(keys):
            if len(u) + len(v) <= n:
                mul[(i, j)] = {index[u + v]: weight(u) * weight(v)}
    return Table(len(keys), mul, _diag([weight(w) for w in keys]), keys)


def qplane_table(R, S, q, k):
    keys = [(a, b) for a in range(R + 1) for b in range(S + 1)]
    index = {key: i for i, key in enumerate(keys)}
    mul = {}
    for i, (a, b) in enumerate(keys):
        for j, (c, d) in enumerate(keys):
            if a + c <= R and b + d <= S:
                mul[(i, j)] = {index[(a + c, b + d)]: k ** (a + b + c + d) * q ** (b * c)}
    return Table(len(keys), mul, _diag([k ** (a + b) for a, b in keys]), keys)


def family_table(family, params):
    if family == "poly":
        return poly_table(params["N"], params["k"])
    if family == "tensor":
        return tensor_table(params["alphabet"], params["n"], params["twists"])
    return qplane_table(params["R"], params["S"], params["q"], params["k"])


def transpose(rows):
    return [list(col) for col in zip(*rows)] if rows else []


def dual_comul(table):
    """Finite duality: comul[k][(i, j)] = mul[(i, j)][k]."""
    comul = {}
    for (i, j), vec in table.mul.items():
        for k, coeff in vec.items():
            comul.setdefault(k, {})[(i, j)] = coeff
    return comul


def delta_terms(table, coeffs):
    """Comultiplication of a functional: (i, j) -> f(e_i e_j), zeros dropped."""
    terms = {}
    for (i, j), vec in table.mul.items():
        value = sum((c * coeffs[k] for k, c in vec.items()), Fraction(0))
        if value != 0:
            terms[(i, j)] = value
    return terms


def mat_vec(rows, vec):
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in rows]


# ---------------------------------------------------------------- documents


def _matrix_doc(rows):
    return [[rat_str(v) for v in row] for row in rows]


def quotient_doc(family, params):
    out = {}
    for key, value in params.items():
        if isinstance(value, Fraction):
            out[key] = rat_str(value)
        elif isinstance(value, (list, tuple)):
            out[key] = [rat_str(v) for v in value]
        else:
            out[key] = value
    return {"kind": "quotient", "family": family, "params": out}


def _dense_triples(constants, dim):
    return [
        [i, j, [rat_str(vec.get(k, 0)) for k in range(dim)]]
        for (i, j), vec in sorted(constants.items())
    ]


def algebra_doc(table):
    return {
        "kind": "hom-algebra",
        "dim": table.dim,
        "mul": _dense_triples(table.mul, table.dim),
        "twist": _matrix_doc(table.twist),
    }


def _split_doc(split):
    return [
        [s, [[a, b, rat_str(c)] for (a, b), c in sorted(cells.items())]]
        for s, cells in sorted(split.items())
    ]


def coalgebra_doc(table):
    """Reference dual coalgebra of a table, as a hom-coalgebra document."""
    return {
        "kind": "hom-coalgebra",
        "dim": table.dim,
        "comul": _split_doc(dual_comul(table)),
        "twist": _matrix_doc(transpose(table.twist)),
    }


def module_doc(table, action=None):
    """Regular right module of a table (action = product), optionally mutated."""
    return {
        "kind": "hom-module",
        "algebra": algebra_doc(table),
        "mdim": table.dim,
        "action": _dense_triples(table.mul if action is None else action, table.dim),
        "mtwist": _matrix_doc(table.twist),
    }


def comodule_doc(table):
    """Reference dual of the regular module: coaction[a][(b, i)] = action[(b, i)][a]."""
    return {
        "kind": "hom-comodule",
        "coalgebra": coalgebra_doc(table),
        "mdim": table.dim,
        "coaction": _split_doc(dual_comul(table)),
        "mtwist": _matrix_doc(transpose(table.twist)),
    }


def morphism_doc(source, target, rows):
    return {"kind": "morphism", "source": source, "target": target, "matrix": _matrix_doc(rows)}


def bipoly_doc(r, s, coeffs):
    return {
        "kind": "bipoly",
        "r": r,
        "s": s,
        "coeffs": [[i, j, rat_str(c)] for (i, j), c in sorted(coeffs.items())],
    }


def bisequence_doc(grid):
    return {
        "kind": "bisequence",
        "M": len(grid) - 1,
        "N": len(grid[0]) - 1,
        "entries": [[rat_str(v) for v in row] for row in grid],
    }


def boundary_doc(grid, r, s):
    return {
        "kind": "bisequence",
        "M": len(grid) - 1,
        "N": len(grid[0]) - 1,
        "entries": [
            [rat_str(v) if (m < r or n < s) else None for n, v in enumerate(row)]
            for m, row in enumerate(grid)
        ],
    }


def rows_of(doc_rows):
    return [[Fraction(v) for v in row] for row in doc_rows]


# ---------------------------------------------------------------- recursions


def plain_fill(r, s, coeffs, case, q, boundary, M, N):
    """Plain case recursion: weights 1, q^(-i(n-s)) or q^(-j(m-r)) on h_{i,j}."""
    grid = [[None] * (N + 1) for _ in range(M + 1)]
    for m in range(M + 1):
        for n in range(N + 1):
            if m < r or n < s:
                grid[m][n] = boundary[m][n]
                continue
            total = Fraction(0)
            for (i, j), h in coeffs.items():
                if case == 1:
                    weight = 1
                elif case == 2:
                    weight = q ** (-i * (n - s))
                else:
                    weight = q ** (-j * (m - r))
                total += weight * h * grid[m - i][n - j]
            grid[m][n] = total
    return grid


def qpascal(n_max, q):
    """Rows 0..n_max of the Gaussian binomials at q, one shared triangle."""
    rows = [[Fraction(1)]]
    for size in range(1, n_max + 1):
        prev = rows[-1]
        rows.append(
            [Fraction(1)]
            + [prev[j - 1] + q ** j * prev[j] for j in range(1, size)]
            + [Fraction(1)]
        )
    return rows


def convolution(f, g, q, M, N):
    tri = qpascal(N, q)
    return [
        [
            sum((tri[n][t] * f[m + t][n - t] * g[m][t] for t in range(n + 1)), Fraction(0))
            for n in range(N + 1)
        ]
        for m in range(M + 1)
    ]


def normal_order(word, q):
    """(coefficient, (#x, #y)) of a word under yx = qxy."""
    ys = xs = inversions = 0
    for ch in word:
        if ch == "x":
            xs += 1
            inversions += ys
        else:
            ys += 1
    return q ** inversions, (xs, ys)


def words_with(n, i):
    """All words of length n in x and y with exactly i letters x, in lexicographic order."""
    return ["".join("x" if k in xs else "y" for k in range(n))
            for xs in itertools.combinations(range(n), i)]


def annihilates(poly_coeffs, seq):
    """True when seq[p] = sum_i c_i seq[p - i] for every p >= degree."""
    d = len(poly_coeffs)
    return all(
        seq[p] == sum((c * seq[p - i] for i, c in enumerate(poly_coeffs, start=1)), Fraction(0))
        for p in range(d, len(seq))
    )


def det(rows):
    """Exact determinant by fraction elimination (small square matrices)."""
    work = [list(r) for r in rows]
    n = len(work)
    out = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            out = -out
        out *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, n):
            factor = work[r][col] * inv
            if factor:
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return out


def bidegree_candidates(rmax, smax):
    for total in range(rmax + smax + 1):
        for r in range(min(total, rmax) + 1):
            s = total - r
            if s <= smax:
                yield (r, s)


def no_annihilator_certificate(grid, rmax, smax, rng, tries=6):
    """Prove that no monic (r, s) <= (rmax, smax) annihilator exists.

    For each candidate bidegree, a nonzero determinant of p + 1 rows of the
    augmented system [A | b] (p unknowns) shows the system is inconsistent.
    Returns False when some candidate finds no such minor in `tries` draws.
    """
    M, N = len(grid) - 1, len(grid[0]) - 1
    for r, s in bidegree_candidates(rmax, smax):
        positions = [(i, j) for i in range(r + 1) for j in range(s + 1) if (i, j) != (0, 0)]
        cells = [(m, n) for m in range(r, M + 1) for n in range(s, N + 1)]
        p = len(positions)
        if p == 0:
            if any(grid[m][n] != 0 for m, n in cells):
                continue
            return False
        for _ in range(tries):
            chosen = rng.sample(cells, p + 1)
            minor = [
                [grid[m - i][n - j] for (i, j) in positions] + [grid[m][n]] for m, n in chosen
            ]
            if det(minor) != 0:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------- axioms


def _product(mul, u, v):
    out = {}
    for a, ua in u.items():
        for b, vb in v.items():
            for k, c in mul.get((a, b), {}).items():
                out[k] = out.get(k, 0) + ua * vb * c
    return {k: c for k, c in out.items() if c != 0}


def first_violation(table):
    """The first failing instance of a Hom-algebra axiom, or None.

    Twist multiplicativity alpha(e_i e_j) = alpha(e_i) alpha(e_j) over pairs,
    then Hom-associativity alpha(e_i)(e_j e_k) = (e_i e_j) alpha(e_k) over
    triples, each read straight from the definition.
    """
    n = table.dim
    cols = [{r: table.twist[r][c] for r in range(n) if table.twist[r][c] != 0} for c in range(n)]

    def twist(u):
        out = {}
        for i, ui in u.items():
            for r, t in cols[i].items():
                out[r] = out.get(r, 0) + ui * t
        return {k: c for k, c in out.items() if c != 0}

    for i in range(n):
        for j in range(n):
            if twist(table.mul.get((i, j), {})) != _product(table.mul, cols[i], cols[j]):
                return ("twist-multiplicative", [i, j])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = _product(table.mul, cols[i], table.mul.get((j, k), {}))
                if lhs != _product(table.mul, table.mul.get((i, j), {}), cols[k]):
                    return ("hom-associativity", [i, j, k])
    return None
