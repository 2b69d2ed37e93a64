"""Finite-dimensional Hom-algebras, Hom-coalgebras, Hom-(co)modules.

Everything here is presented by exact structure constants over the
rationals.  Verifiers contract the constants over every basis tuple, so a
passing report is a proof of the axioms for the given presentation, not a
sampled check.  Twist matrices use the column convention: column i holds
the coordinates of the image of the i-th basis vector.

Only the algebra side is contracted.  By finite duality a coalgebra is an
algebra read through the transpose (comul[k][(i,j)] = mul[(i,j)][k], twist
transposed) and a comodule is a module read the same way, so the coalgebra
and comodule checks run the algebra and module sweeps on the transposes and
regroup both sides of each axiom by output index.

The contraction is fraction-free.  Each _*_axioms function scales every table
and every list of sparse columns it receives (products, actions, twists,
candidate maps) to integers by the lcm D of that table's denominators, and
the sweeps add and multiply only integers.  Each side of an axiom then
carries one denominator, the product of the D's it contracts: for
multiplicativity D_t*D_m against D_m*D_t*D_t, for Hom-associativity
D_m*D_t*D_m against D_m*D_m*D_t, for a morphism's product D_F*D_m against
D_m'*D_F*D_F.  Two sides are compared over the lcm of their denominators,
and a differing tuple turns back into Fractions, value / denominator, only
when it is reported (canon).  Reports are the same canonical Fractions, in
the same order, as an exact rational contraction gives.
"""

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .errors import InputError
from .exact_math import Matrix, rat


def _add_scaled(acc, scale, vec):
    """acc += scale * vec, sparse dicts, dropping entries that cancel to 0."""
    if scale == 0:
        return
    for key, val in vec.items():
        cur = acc.get(key)
        if cur is None:
            acc[key] = scale * val
        else:
            new = cur + scale * val
            if new == 0:
                del acc[key]
            else:
                acc[key] = new


def _apply(cols, vec):
    """Linear map given by its sparse columns, applied to a sparse vector."""
    out = {}
    for i, vi in vec.items():
        _add_scaled(out, vi, cols[i])
    return out


def _bilinear(table, u, v):
    """Bilinear map {(a, b): {k: coeff}} applied to sparse vectors u and v."""
    out = {}
    for a, ua in u.items():
        for b, vb in v.items():
            vec = table.get((a, b))
            if vec:
                _add_scaled(out, ua * vb, vec)
    return out


def _flip(table):
    """{outer: {inner: c}} -> {inner: {outer: c}}: the finite-duality transpose."""
    out = {}
    for outer, vec in table.items():
        for inner, c in vec.items():
            out.setdefault(inner, {})[outer] = c
    return out


def canon(sparse, den=1):
    """Sparse map -> sorted zero-free tuple of (index-tuple, value / den), values Fractions."""
    out = []
    for key, val in sparse.items():
        if val == 0:
            continue
        if not isinstance(key, tuple):
            key = (key,)
        out.append((key, Fraction(val, den)))
    out.sort(key=lambda kv: kv[0])
    return tuple(out)


def _checked_matrix(m, rows, cols, what):
    """(m as a Matrix of the given shape, its columns as sparse {row: coeff} dicts)."""
    if not isinstance(m, Matrix):
        m = Matrix(m)
    if m.rows != rows or m.cols != cols:
        raise InputError("%s must be %dx%d, got %dx%d" % (what, rows, cols, m.rows, m.cols))
    return m, [{i: row[j] for i, row in enumerate(m.entries) if row[j] != 0} for j in range(cols)]


def _ints(what, *index):
    """InputError naming the field unless every index is an int (a bool is not one)."""
    for i in index:
        if type(i) is not int:
            raise InputError("%s indices must be integers, got %r" % (what, index))


def _items(data, what):
    if not isinstance(data, dict):
        raise InputError("%s must be a dict, got %s" % (what, type(data).__name__))
    return data.items()


def _norm_constants(data, left, right, out, what):
    """Normalize {(i, j): vec} structure constants to {(i, j): {k: nonzero}}.

    Each vec is a {k: coeff} dict or a list of coefficients indexed by k.
    """
    table = {}
    for (i, j), vec in _items(data, what):
        if isinstance(vec, dict):
            _ints(what, i, j, *vec)
            vec = vec.items()
        else:
            _ints(what, i, j)
            vec = enumerate(vec)
        for k, val in vec:
            if type(val) is not Fraction:  # a Fraction, as documents hand over, is kept
                val = rat(val)
            if val == 0:
                continue
            if not (0 <= i < left and 0 <= j < right and 0 <= k < out):
                raise InputError("%s index (%d,%d,%d) out of range" % (what, i, j, k))
            table.setdefault((i, j), {})[k] = val
    return table


def _norm_split(data, src, d1, d2, what):
    """Normalize {s: {(a, b): coeff}} to the same with the zero coefficients dropped."""
    table = {}
    for s, plane in _items(data, what):
        for (a, b), val in plane.items():
            _ints(what, s, a, b)
            if type(val) is not Fraction:
                val = rat(val)
            if val == 0:
                continue
            if not (0 <= s < src and 0 <= a < d1 and 0 <= b < d2):
                raise InputError("%s index (%d,%d,%d) out of range" % (what, s, a, b))
            table.setdefault(s, {})[(a, b)] = val
    return table


class AxiomReport(namedtuple("AxiomReport", "violations")):
    """Outcome of a verifier: passed iff the violation list is empty.

    Each violation is (axiom-name, basis-index-tuple, lhs, rhs) with both
    sides in canonical sparse form.
    """

    __slots__ = ()

    @property
    def passed(self):
        return not self.violations


class _Structure:
    """What the four structure classes share.  _fields names the constructor
    arguments in order; the structure constants are always second to last."""

    def __eq__(self, other):
        return isinstance(other, type(self)) and all(
            getattr(self, name) == getattr(other, name) for name in self._fields
        )

    def _with_entry(self, key, inner, value):
        """Copy with one structure constant replaced."""
        args = [getattr(self, name) for name in self._fields]
        table = args[-2] = {k: dict(vec) for k, vec in args[-2].items()}
        value = rat(value)
        slot = table.setdefault(key, {})
        if value == 0:
            slot.pop(inner, None)
        else:
            slot[inner] = value
        return type(self)(*args)


class FiniteHomAlgebra(_Structure):
    """Hom-associative algebra on basis e_0..e_{n-1}.

    mul normalizes to {(i, j): {k: coeff}} with e_i e_j = sum_k coeff e_k;
    twist is the matrix of the twisting endomorphism.
    """

    _fields = ("dim", "mul", "twist")

    def __init__(self, dim, mul, twist):
        self.dim = dim
        self.mul = _norm_constants(mul, dim, dim, dim, "mul")
        self.twist, self._tcols = _checked_matrix(twist, dim, dim, "twist")

    def __repr__(self):
        return "FiniteHomAlgebra(dim=%d)" % self.dim

    def with_mul_entry(self, i, j, k, value):
        return self._with_entry((i, j), k, value)


class FiniteHomCoalgebra(_Structure):
    """Hom-coalgebra on basis e_0..e_{n-1}.

    comul normalizes to {k: {(i, j): coeff}} with
    Delta(e_k) = sum coeff e_i (x) e_j.
    """

    _fields = ("dim", "comul", "twist")

    def __init__(self, dim, comul, twist):
        self.dim = dim
        self.comul = _norm_split(comul, dim, dim, dim, "comul")
        self.twist, self._tcols = _checked_matrix(twist, dim, dim, "twist")

    def __repr__(self):
        return "FiniteHomCoalgebra(dim=%d)" % self.dim

    def with_comul_entry(self, k, i, j, value):
        return self._with_entry(k, (i, j), value)


class FiniteHomModule(_Structure):
    """Right Hom-module over a FiniteHomAlgebra.

    action normalizes to {(a, i): {b: coeff}} with
    m_a . e_i = sum_b coeff m_b; mtwist is the module twist.
    """

    _fields = ("algebra", "mdim", "action", "mtwist")

    def __init__(self, algebra, mdim, action, mtwist):
        self.algebra = algebra
        self.mdim = mdim
        self.action = _norm_constants(action, mdim, algebra.dim, mdim, "action")
        self.mtwist, self._tcols = _checked_matrix(mtwist, mdim, mdim, "mtwist")

    def __repr__(self):
        return "FiniteHomModule(mdim=%d over dim=%d)" % (self.mdim, self.algebra.dim)

    def with_action_entry(self, a, i, b, value):
        return self._with_entry((a, i), b, value)


class FiniteHomComodule(_Structure):
    """Right Hom-comodule over a FiniteHomCoalgebra.

    coaction normalizes to {a: {(b, i): coeff}} with
    phi(m_a) = sum coeff m_b (x) c_i; mtwist is the comodule twist.
    """

    _fields = ("coalgebra", "mdim", "coaction", "mtwist")

    def __init__(self, coalgebra, mdim, coaction, mtwist):
        self.coalgebra = coalgebra
        self.mdim = mdim
        self.coaction = _norm_split(coaction, mdim, mdim, coalgebra.dim, "coaction")
        self.mtwist, self._tcols = _checked_matrix(mtwist, mdim, mdim, "mtwist")

    def __repr__(self):
        return "FiniteHomComodule(mdim=%d over dim=%d)" % (self.mdim, self.coalgebra.dim)

    def with_coaction_entry(self, a, b, i, value):
        return self._with_entry(a, (b, i), value)


class LinearMapCandidate:
    """A linear map to be tested as a morphism; column i is the image of e_i."""

    def __init__(self, source_dim, target_dim, matrix):
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.matrix, self._cols = _checked_matrix(
            matrix, target_dim, source_dim, "morphism matrix"
        )

    def __eq__(self, other):
        return (
            isinstance(other, LinearMapCandidate)
            and self.source_dim == other.source_dim
            and self.target_dim == other.target_dim
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return "LinearMapCandidate(%d -> %d)" % (self.source_dim, self.target_dim)


# The engine.  Each axiom is a lazy sweep yielding (basis input tuple, lhs,
# rhs) in report order, both sides sparse over the output basis; tuples where
# both sides are structurally zero are skipped.  Maps are lists of sparse
# columns, bilinear maps are {(a, b): {k: coeff}} tables.  The sweeps run on
# integers: every table comes in as (D, table times D), D the lcm of its
# denominators, and each sweep returns (sweep, lhs denominator, rhs
# denominator), the products of the D's that each side contracts.


def _int_cols(cols):
    """(D, the sparse columns times D as ints), D the lcm of their denominators."""
    den = lcm(*{v.denominator for vec in cols for v in vec.values()})
    out = []
    for vec in cols:  # plain loops: a comprehension per column would cost a frame each
        scaled = {}
        for k, v in vec.items():
            num, d = v.as_integer_ratio()
            scaled[k] = num * (den // d)
        out.append(scaled)
    return den, out


def _int_table(table):
    """(D, the {key: {k: coeff}} table times D as ints), D the lcm of its denominators."""
    den, vecs = _int_cols(table.values())
    return den, dict(zip(table, vecs))


def _pairs(f, src, dst, g):
    """At (x, y): f(src(e_x, e_y)) against dst(f(e_x), g(e_y))."""
    (df, f), (ds, src), (dd, dst), (dg, g) = f, src, dst, g

    def sweep():
        for x in range(len(f)):
            for y in range(len(g)):
                sxy = src.get((x, y), {})
                if sxy or (f[x] and g[y]):
                    yield (x, y), _apply(f, sxy), _bilinear(dst, f[x], g[y])

    return sweep(), df * ds, dd * df * dg


def _triples(t, f, left, right, g):
    """At (x, y, z): t(f(e_x), left(e_y, e_z)) against t(right(e_x, e_y), g(e_z))."""
    (dt, t), (df, f), (dl, left), (dr, right), (dg, g) = t, f, left, right, g

    def sweep():
        reach = {}  # p -> every q with t(e_p, e_q) != 0
        for p, q in t:
            reach.setdefault(p, set()).add(q)
        rows = {}  # y -> [(z, left(e_y, e_z))] over the nonzero entries, z ascending
        for (y, z), vec in sorted(left.items()):
            rows.setdefault(y, []).append((z, vec))
        hits = {}  # q -> every z with e_q in the support of g(e_z)
        for z, vec in enumerate(g):
            for q in vec:
                hits.setdefault(q, []).append(z)

        def reached(vec):
            return set().union(*(reach.get(p, ()) for p in vec))

        for x in range(len(f)):
            fx = f[x]
            lhs_q = reached(fx)
            for y in range(len(g)):
                rxy = right.get((x, y), {})
                zs = {z for z, lyz in rows.get(y, ()) if not lhs_q.isdisjoint(lyz)}
                zs.update(z for q in reached(rxy) for z in hits.get(q, ()))
                for z in sorted(zs):
                    yield (x, y, z), _bilinear(t, fx, left.get((y, z), {})), _bilinear(t, rxy, g[z])

    return sweep(), dt * df * dl, dt * dr * dg


def _commutes(f, a, b):
    """At (x,): f(a(e_x)) against b(f(e_x))."""
    (df, f), (da, a), (db, b) = f, a, b
    sweep = (((x,), _apply(f, a[x]), _apply(b, f[x])) for x in range(len(a)))
    return sweep, df * da, db * df


def _swapped(axiom):
    sweep, dl, dr = axiom
    return ((at, rhs, lhs) for at, lhs, rhs in sweep), dr, dl


def _algebra_axioms(mul, tw):
    """alpha(e_i e_j) = alpha(e_i) alpha(e_j); alpha(e_i)(e_j e_k) = (e_i e_j) alpha(e_k)."""
    mul, tw = _int_table(mul), _int_cols(tw)
    return {
        "twist-multiplicative": _pairs(tw, mul, mul, tw),
        "hom-associativity": _triples(mul, tw, mul, mul, tw),
    }


def _module_axioms(act, gam, mul, tw):
    """gamma(m_a).alpha(e_i) = gamma(m_a.e_i); (m_a.e_i).alpha(e_j) = gamma(m_a).(e_i e_j)."""
    act, gam, mul, tw = _int_table(act), _int_cols(gam), _int_table(mul), _int_cols(tw)
    return {
        "module-twist-compatibility": _swapped(_pairs(gam, act, act, tw)),
        "module-hom-associativity": _swapped(_triples(act, gam, mul, act, tw)),
    }


def _algebra_morphism_axioms(f, mul, tw, mul2, tw2):
    """F(e_i e_j) = F(e_i) F(e_j); F(alpha(e_i)) = alpha'(F(e_i))."""
    f, tw, tw2 = _int_cols(f), _int_cols(tw), _int_cols(tw2)
    return {
        "multiplication-compat": _pairs(f, _int_table(mul), _int_table(mul2), f),
        "twist-compat": _commutes(f, tw, tw2),
    }


def _module_morphism_axioms(f, act, gam, act2, gam2, tw):
    """sigma(m_a.e_i) = sigma(m_a).alpha(e_i); gamma'(sigma(m_a)) = sigma(gamma(m_a))."""
    f, gam, gam2 = _int_cols(f), _int_cols(gam), _int_cols(gam2)
    return {
        "action-compat": _pairs(f, _int_table(act), _int_table(act2), _int_cols(tw)),
        "twist-compat": _swapped(_commutes(f, gam, gam2)),
    }


# algebra-side axiom -> (coalgebra-side name, whether its lhs is the algebra-side rhs)
_DUAL = {
    "twist-multiplicative": ("twist-comultiplicative", False),
    "hom-associativity": ("hom-coassociativity", False),
    "module-twist-compatibility": ("comodule-twist-compatibility", False),
    "module-hom-associativity": ("comodule-hom-coassociativity", False),
    "multiplication-compat": ("comultiplication-compat", True),
    "action-compat": ("coaction-compat", False),
    "twist-compat": ("twist-compat", True),
}


def _by_output(sweep, swapped):
    """A sweep read by output index k: at (k,), both sides as {input tuple: value}."""
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


def _dual(axioms):
    """The coalgebra-side axioms: each algebra-side sweep read by output, renamed."""
    out = {}
    for name, (sweep, dl, dr) in axioms.items():
        dual, swapped = _DUAL[name]
        out[dual] = (_by_output(sweep, swapped),) + ((dr, dl) if swapped else (dl, dr))
    return out


def _failures(axiom):
    """(at, lhs, rhs) of each swept tuple whose sides differ, in canonical form.

    Both sides are brought to the lcm of their denominators before they are compared.
    """
    sweep, dl, dr = axiom
    common = lcm(dl, dr)
    ml, mr = common // dl, common // dr
    for at, lhs, rhs in sweep:
        if ml != 1 and lhs:
            lhs = {k: v * ml for k, v in lhs.items()}
        if mr != 1 and rhs:
            rhs = {k: v * mr for k, v in rhs.items()}
        if lhs != rhs:
            yield at, canon(lhs, common), canon(rhs, common)


def _report(axioms, stop_early=False):
    """One violation per swept tuple whose sides differ, in sweep order."""
    violations = []
    for name, axiom in axioms.items():
        for at, lhs, rhs in _failures(axiom):
            violations.append((name, at, lhs, rhs))
            if stop_early:
                return AxiomReport(tuple(violations))
    return AxiomReport(tuple(violations))


def _transpose(cols, rows):
    """Sparse columns of the transpose of a matrix with `rows` rows given by its columns."""
    out = [{} for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, val in col.items():
            out[i][j] = val
    return out


def _algebra_of(coalgebra):
    """(mul, twist columns) of the algebra whose finite dual is coalgebra."""
    return _flip(coalgebra.comul), _transpose(coalgebra._tcols, coalgebra.dim)


def _module_of(comodule):
    """(action, twist columns) of the module whose finite dual is comodule."""
    return _flip(comodule.coaction), _transpose(comodule._tcols, comodule.mdim)


def _check_map_shape(candidate, source_dim, target_dim):
    if candidate.source_dim != source_dim or candidate.target_dim != target_dim:
        raise InputError(
            "map shape %d->%d does not match structures %d->%d"
            % (candidate.source_dim, candidate.target_dim, source_dim, target_dim)
        )


def verify_hom_algebra(algebra, stop_early=False):
    """Check Hom-associativity and twist multiplicativity on every basis tuple.

    Hom-associativity: alpha(e_i)(e_j e_k) = (e_i e_j) alpha(e_k) for all
    triples.  Multiplicativity: alpha(e_i e_j) = alpha(e_i) alpha(e_j) for
    all pairs.  With stop_early the report lists only the first violation.
    """
    return _report(_algebra_axioms(algebra.mul, algebra._tcols), stop_early)


def verify_hom_coalgebra(coalgebra, stop_early=False):
    """Check Hom-coassociativity and twist comultiplicativity on every basis element.

    Hom-coassociativity: (beta (x) Delta) Delta = (Delta (x) beta) Delta.
    Comultiplicativity: Delta(beta(e_m)) = (beta (x) beta) Delta(e_m).
    """
    return _report(_dual(_algebra_axioms(*_algebra_of(coalgebra))), stop_early)


def check_algebra_morphism(source, target, candidate):
    """Check that candidate intertwines the products and the twists.

    Conditions: F(e_i e_j) = F(e_i) F(e_j) for all pairs, and
    F(alpha(e_i)) = alpha'(F(e_i)) for all i.
    """
    _check_map_shape(candidate, source.dim, target.dim)
    axioms = _algebra_morphism_axioms(
        candidate._cols, source.mul, source._tcols, target.mul, target._tcols
    )
    return _report(axioms)


def check_coalgebra_morphism(source, target, candidate):
    """Check that candidate intertwines the comultiplications and the twists.

    Conditions: (F (x) F) Delta = Delta' F and F beta = beta' F.
    """
    _check_map_shape(candidate, source.dim, target.dim)
    adjoint = _transpose(candidate._cols, target.dim)
    axioms = _algebra_morphism_axioms(adjoint, *_algebra_of(target), *_algebra_of(source))
    return _report(_dual(axioms))


def dualize_algebra(algebra):
    """Finite dual: comul[k][(i,j)] = mul[(i,j)][k], twist transposed.

    The dual basis pairing turns the product into a comultiplication and the
    twist into its adjoint; the result is always a Hom-coalgebra when the
    input is a Hom-algebra.
    """
    return FiniteHomCoalgebra(algebra.dim, _flip(algebra.mul), algebra.twist.transpose())


def dualize_algebra_morphism(candidate):
    """Adjoint map: transpose of the matrix, direction reversed.

    Also dualize_module_morphism: if sigma: M -> N passes the module morphism
    check, the adjoint passes the comodule morphism check from the dual of N
    to the dual of M.
    """
    return LinearMapCandidate(
        candidate.target_dim, candidate.source_dim, candidate.matrix.transpose()
    )


dualize_module_morphism = dualize_algebra_morphism


def yau_twist(assoc, endo):
    """Hom-algebra from a classical associative algebra and an endomorphism.

    The new product is endo after the old product, the new twist is endo.
    The input must carry the identity twist; endo must be multiplicative
    (checked on all basis pairs, first violating pair reported).
    """
    endo, cols = _checked_matrix(endo, assoc.dim, assoc.dim, "endo")
    if not assoc.twist.is_identity():
        raise InputError("yau_twist input must carry the identity twist")
    for at, _, _ in _failures(_algebra_axioms(assoc.mul, cols)["twist-multiplicative"]):
        raise InputError("endo is not an algebra endomorphism: fails at basis pair (%d, %d)" % at)
    mul = {key: _apply(cols, vec) for key, vec in assoc.mul.items()}
    return FiniteHomAlgebra(assoc.dim, mul, endo)


def regular_module(algebra):
    """The algebra acting on itself by right multiplication, twisted by alpha."""
    return FiniteHomModule(algebra, algebra.dim, dict(algebra.mul), algebra.twist)


def verify_hom_module(module, stop_early=False):
    """Check both right Hom-module axioms on every basis tuple.

    Axioms: (m.g).alpha(h) = gamma(m).(gh) over all (module, algebra,
    algebra) triples, and gamma(m).alpha(g) = gamma(m.g) over all pairs.
    """
    alg = module.algebra
    return _report(_module_axioms(module.action, module._tcols, alg.mul, alg._tcols), stop_early)


def verify_hom_comodule(comodule, stop_early=False):
    """Check both right Hom-comodule axioms on every module basis element.

    Axioms: (phi (x) beta) phi = (eps (x) Delta) phi and
    (eps (x) beta) phi = phi eps.
    """
    axioms = _module_axioms(*_module_of(comodule), *_algebra_of(comodule.coalgebra))
    return _report(_dual(axioms), stop_early)


def dualize_module(module):
    """Finite dual of a right Hom-module: a right Hom-comodule.

    coaction[a][(b,i)] = action[(b,i)][a] and the comodule twist is the
    transpose of the module twist, over the dual coalgebra of the algebra.
    """
    coalgebra, mtwist = dualize_algebra(module.algebra), module.mtwist.transpose()
    return FiniteHomComodule(coalgebra, module.mdim, _flip(module.action), mtwist)


def check_module_morphism(source, target, candidate):
    """Check that candidate is a morphism of right Hom-modules.

    Conditions: sigma(m.g) = sigma(m).alpha(g) pointwise on basis pairs,
    and the module twists intertwine: gamma'(sigma(m)) = sigma(gamma(m)).
    Both modules must live over the same algebra.
    """
    if source.algebra != target.algebra:
        raise InputError("module morphism check needs a common underlying algebra")
    _check_map_shape(candidate, source.mdim, target.mdim)
    axioms = _module_morphism_axioms(
        candidate._cols, source.action, source._tcols, target.action, target._tcols,
        source.algebra._tcols,
    )
    return _report(axioms)


def check_comodule_morphism(source, target, candidate):
    """Check that candidate is a morphism of right Hom-comodules.

    Conditions: phi'(sigma(m)) = (sigma (x) beta)(phi(m)) on every basis
    element, and eps'(sigma(m)) = sigma(eps(m)).  Both comodules must live
    over the same coalgebra.
    """
    if source.coalgebra != target.coalgebra:
        raise InputError("comodule morphism check needs a common underlying coalgebra")
    _check_map_shape(candidate, source.mdim, target.mdim)
    adjoint = _transpose(candidate._cols, target.mdim)
    tw = _transpose(source.coalgebra._tcols, source.coalgebra.dim)
    axioms = _module_morphism_axioms(adjoint, *_module_of(target), *_module_of(source), tw)
    return _report(_dual(axioms))
