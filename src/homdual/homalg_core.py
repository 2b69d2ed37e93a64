"""Finite-dimensional Hom-algebras, Hom-coalgebras, Hom-(co)modules.

Everything here is presented by exact structure constants over the
rationals.  Verifiers contract the constants over every basis tuple, so a
passing report is a proof of the axioms for the given presentation, not a
sampled check.  Twists and maps use the column convention (column i is the
image of the i-th basis vector) and are kept as sparse columns; the dense
Matrix (twist, mtwist, matrix) is built only when asked for.

Only the algebra side is contracted.  By finite duality a coalgebra is an
algebra read through the transpose (comul[k][(i,j)] = mul[(i,j)][k], twist
transposed) and a comodule is a module read the same way: their checks run
the algebra and module sweeps on the transposes, read by output index.

The contraction is fraction-free.  Each structure and candidate map owns
its integer tables, built on first use (_ints): constants and twist columns
times the lcm D of their denominators.  A sweep yields one block per
leading basis index, both sides of every tuple of that block over one
common denominator, and blocks are compared whole; only a differing block
is split into its tuples and turned back into Fractions (canon).  Reports
are the same canonical Fractions, in the same order, as an exact rational
contraction gives.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import InputError
from .exact_math import _ZERO, Matrix, rat


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


def _spread(block, pairs, vec):
    """block[s] += c * vec for each (s, c) of pairs, block[s] created on first use."""
    for s, c in pairs:
        cur = block.get(s)
        if cur is None:
            block[s] = {k: c * v for k, v in vec.items()}
        else:
            _add_scaled(cur, c, vec)


def _gather(block, scale, items):
    """block[s] += scale * vec for each (s, vec) of items, block[s] created on first use."""
    for s, vec in items:
        cur = block.get(s)
        if cur is None:
            block[s] = {k: scale * v for k, v in vec.items()}
        else:
            _add_scaled(cur, scale, vec)


def _apply(cols, vec):
    """Linear map given by its sparse columns, applied to a sparse vector."""
    out = {}
    for i, vi in vec.items():
        _add_scaled(out, vi, cols[i])
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


class _Cols(list):
    """A matrix with `rows` rows as its sparse columns, column j = {i: nonzero entry}."""

    __slots__ = ("rows",)

    def __init__(self, rows, columns):
        super().__init__(columns)
        self.rows = rows


def _sparse_cols(m, rows, cols, what):
    """The sparse columns of m (a Matrix, rows of scalars, or _Cols) of the given shape."""
    if not isinstance(m, _Cols):
        if not isinstance(m, Matrix):
            m = Matrix(m)
        m = _Cols(m.rows, [{i: row[j] for i, row in enumerate(m.entries) if row[j]}
                           for j in range(m.cols)])
    if m.rows != rows or len(m) != cols:
        raise InputError("%s must be %dx%d, got %dx%d" % (what, rows, cols, m.rows, len(m)))
    return m


def _transpose(cols, rows):
    """Sparse columns of the transpose of a matrix with `rows` rows given by its columns."""
    out = _Cols(len(cols), [{} for _ in range(rows)])
    for j, col in enumerate(cols):
        for i, val in col.items():
            out[i][j] = val
    return out


def _dense(cols):
    """The Matrix of sparse columns."""
    return Matrix([[col.get(i, _ZERO) for col in cols] for i in range(cols.rows)], cols=len(cols))


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
    """What the structures and candidate maps share.  _fields names the stored values
    in constructor order, sparse columns last: a structure's constants second to
    last and its twist (_tcols) last.  _dual marks the coalgebra side."""

    _dual = False

    def __eq__(self, other):
        return isinstance(other, type(self)) and all(
            getattr(self, name) == getattr(other, name) for name in self._fields
        )

    @classmethod
    def _of(cls, *values):
        """An instance of normalized values (zero-free Fraction tables, _Cols), taken as given."""
        self = cls.__new__(cls)
        self.__dict__.update(zip(cls._fields, values))
        return self

    @cached_property
    def _ints(self):
        """((D, constants), (D, twist columns)) of the algebra side, times D as ints."""
        table, cols = getattr(self, self._fields[-2]), self._tcols
        if self._dual:
            table, cols = _flip(table), _transpose(cols, cols.rows)
        return _int_table(table), _int_cols(cols)

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

    _fields = ("dim", "mul", "_tcols")

    def __init__(self, dim, mul, twist):
        self.dim = dim
        self.mul = _norm_constants(mul, dim, dim, dim, "mul")
        self._tcols = _sparse_cols(twist, dim, dim, "twist")

    twist = cached_property(lambda self: _dense(self._tcols))

    def __repr__(self):
        return "FiniteHomAlgebra(dim=%d)" % self.dim

    def with_mul_entry(self, i, j, k, value):
        return self._with_entry((i, j), k, value)


class FiniteHomCoalgebra(_Structure):
    """Hom-coalgebra on basis e_0..e_{n-1}.

    comul normalizes to {k: {(i, j): coeff}} with
    Delta(e_k) = sum coeff e_i (x) e_j.
    """

    _fields = ("dim", "comul", "_tcols")
    _dual = True

    def __init__(self, dim, comul, twist):
        self.dim = dim
        self.comul = _norm_split(comul, dim, dim, dim, "comul")
        self._tcols = _sparse_cols(twist, dim, dim, "twist")

    twist = cached_property(lambda self: _dense(self._tcols))

    def __repr__(self):
        return "FiniteHomCoalgebra(dim=%d)" % self.dim

    def with_comul_entry(self, k, i, j, value):
        return self._with_entry(k, (i, j), value)


class FiniteHomModule(_Structure):
    """Right Hom-module over a FiniteHomAlgebra.

    action normalizes to {(a, i): {b: coeff}} with
    m_a . e_i = sum_b coeff m_b; mtwist is the module twist.
    """

    _fields = ("algebra", "mdim", "action", "_tcols")

    def __init__(self, algebra, mdim, action, mtwist):
        self.algebra = algebra
        self.mdim = mdim
        self.action = _norm_constants(action, mdim, algebra.dim, mdim, "action")
        self._tcols = _sparse_cols(mtwist, mdim, mdim, "mtwist")

    mtwist = cached_property(lambda self: _dense(self._tcols))

    def __repr__(self):
        return "FiniteHomModule(mdim=%d over dim=%d)" % (self.mdim, self.algebra.dim)

    def with_action_entry(self, a, i, b, value):
        return self._with_entry((a, i), b, value)


class FiniteHomComodule(_Structure):
    """Right Hom-comodule over a FiniteHomCoalgebra.

    coaction normalizes to {a: {(b, i): coeff}} with
    phi(m_a) = sum coeff m_b (x) c_i; mtwist is the comodule twist.
    """

    _fields = ("coalgebra", "mdim", "coaction", "_tcols")
    _dual = True

    def __init__(self, coalgebra, mdim, coaction, mtwist):
        self.coalgebra = coalgebra
        self.mdim = mdim
        self.coaction = _norm_split(coaction, mdim, mdim, coalgebra.dim, "coaction")
        self._tcols = _sparse_cols(mtwist, mdim, mdim, "mtwist")

    mtwist = cached_property(lambda self: _dense(self._tcols))

    def __repr__(self):
        return "FiniteHomComodule(mdim=%d over dim=%d)" % (self.mdim, self.coalgebra.dim)

    def with_coaction_entry(self, a, b, i, value):
        return self._with_entry(a, (b, i), value)


class LinearMapCandidate(_Structure):
    """A linear map to be tested as a morphism; column i is the image of e_i."""

    _fields = ("source_dim", "target_dim", "_cols")

    def __init__(self, source_dim, target_dim, matrix):
        self.source_dim = source_dim
        self.target_dim = target_dim
        self._cols = _sparse_cols(matrix, target_dim, source_dim, "morphism matrix")

    matrix = cached_property(lambda self: _dense(self._cols))

    @cached_property
    def _ints(self):
        return _int_cols(self._cols)

    def _adjoint_ints(self):
        den, cols = self._ints
        return den, _transpose(cols, self.target_dim)

    def __repr__(self):
        return "LinearMapCandidate(%d -> %d)" % (self.source_dim, self.target_dim)


# The engine.  Each axiom is (blocks, common): blocks() runs the sweep afresh on
# every call, yielding (x, lhs, rhs) per leading basis index x in ascending order,
# both sides zero-free {suffix: {k: int}} over the common denominator; a suffix
# absent from a side is 0 there.  Each block is built output-driven from maps
# computed once per sweep.  Maps are sparse columns, bilinear maps {(a, b): vec}
# tables, all as (D, ints) pairs.


def _rows(table):
    """{(x, y): vec} -> {x: [(y, vec), ...]}."""
    rows = {}
    for (x, y), vec in table.items():
        rows.setdefault(x, []).append((y, vec))
    return rows


def _through(t, g, scale):
    """{p: {z: t(e_p, g(e_z)) times scale}}: a bilinear table, its right argument mapped by g."""
    hits = {}  # q -> [(z, coefficient of e_q in g(e_z) times scale)]
    for z, vec in enumerate(g):
        for q, c in vec.items():
            hits.setdefault(q, []).append((z, c * scale))
    out = {}
    for (p, q), vec in t.items():
        _spread(out.setdefault(p, {}), hits.get(q, ()), vec)
    return out


def _pairs(f, src, dst, g):
    """At (x, y): f(src(e_x, e_y)) against dst(f(e_x), g(e_y)); suffixes (y,)."""
    (df, f), (ds, src), (dd, dst), (dg, g) = f, src, dst, g
    common = lcm(df * ds, dd * df * dg)
    ml, mr = common // (df * ds), common // (dd * df * dg)

    def blocks():
        rows, through = _rows(src), _through(dst, g, mr)
        scaled = [{k: v * ml for k, v in col.items()} for col in f]
        for x, fx in enumerate(f):
            lhs = {}
            for y, vec in rows.get(x, ()):
                out = _apply(scaled, vec)
                if out:
                    lhs[y,] = out
            rhs = {}
            for a, fa in fx.items():
                _gather(rhs, fa, through.get(a, {}).items())
            yield x, lhs, {(y,): vec for y, vec in rhs.items() if vec}

    return blocks, common


def _triples(t, f, left, right, g):
    """At (x, y, z): t(f(e_x), left(e_y, e_z)) against t(right(e_x, e_y), g(e_z))."""
    (dt, t), (df, f), (dl, left), (dr, right), (dg, g) = t, f, left, right, g
    common = lcm(dt * df * dl, dt * dr * dg)
    ml, mr = common // (dt * df * dl), common // (dt * dr * dg)

    def blocks():
        row_of, right_rows, twisted = _rows(t), _rows(right), _through(t, g, mr)
        through = {}  # r -> [((y, z), coefficient of e_r in left(e_y, e_z) times ml)]
        for s, vec in left.items():
            for r, c in vec.items():
                through.setdefault(r, []).append((s, c * ml))
        for x, fx in enumerate(f):
            ax = {}  # r -> t(f(e_x), e_r), contracted through `through` into the lhs
            for p, fp in fx.items():
                _gather(ax, fp, row_of.get(p, ()))
            lhs = {}
            for r, vec in ax.items():
                if vec:
                    _spread(lhs, through.get(r, ()), vec)
            rhs = {}
            for y, vec in right_rows.get(x, ()):
                row = {}
                for p, rp in vec.items():
                    _gather(row, rp, twisted.get(p, {}).items())
                for z, out in row.items():
                    if out:
                        rhs[y, z] = out
            yield x, {s: vec for s, vec in lhs.items() if vec}, rhs

    return blocks, common


def _commutes(f, a, b):
    """At (x,): f(a(e_x)) against b(f(e_x)); the empty suffix."""
    (df, f), (da, a), (db, b) = f, a, b
    common = lcm(df * da, db * df)
    ml, mr = common // (df * da), common // (db * df)

    def blocks():
        for x, ax in enumerate(a):
            lhs = _apply(f, {i: v * ml for i, v in ax.items()})
            rhs = _apply(b, {i: v * mr for i, v in f[x].items()})
            yield x, {(): lhs} if lhs else {}, {(): rhs} if rhs else {}

    return blocks, common


def _swapped(axiom):
    blocks, common = axiom
    return (lambda: ((x, rhs, lhs) for x, lhs, rhs in blocks())), common


def _algebra_axioms(mul, tw):
    """alpha(e_i e_j) = alpha(e_i) alpha(e_j); alpha(e_i)(e_j e_k) = (e_i e_j) alpha(e_k)."""
    return {
        "twist-multiplicative": _pairs(tw, mul, mul, tw),
        "hom-associativity": _triples(mul, tw, mul, mul, tw),
    }


def _module_axioms(act, gam, mul, tw):
    """gamma(m_a).alpha(e_i) = gamma(m_a.e_i); (m_a.e_i).alpha(e_j) = gamma(m_a).(e_i e_j)."""
    return {
        "module-twist-compatibility": _swapped(_pairs(gam, act, act, tw)),
        "module-hom-associativity": _swapped(_triples(act, gam, mul, act, tw)),
    }


def _algebra_morphism_axioms(f, mul, tw, mul2, tw2):
    """F(e_i e_j) = F(e_i) F(e_j); F(alpha(e_i)) = alpha'(F(e_i))."""
    return {
        "multiplication-compat": _pairs(f, mul, mul2, f),
        "twist-compat": _commutes(f, tw, tw2),
    }


def _module_morphism_axioms(f, act, gam, act2, gam2, tw):
    """sigma(m_a.e_i) = sigma(m_a).alpha(e_i); gamma'(sigma(m_a)) = sigma(gamma(m_a))."""
    return {
        "action-compat": _pairs(f, act, act2, tw),
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


def _by_output(blocks):
    """A sweep read by output index k: one block per k, both sides {(): {input tuple: value}}.

    The sweep first runs without keeping a block: if every block agrees, so does
    every output.  Only otherwise is it run again and regrouped.
    """
    for _, lhs, rhs in blocks():
        if lhs != rhs:
            break
    else:
        return
    left, right = {}, {}
    for x, lhs, rhs in blocks():
        for side, out in ((lhs, left), (rhs, right)):
            for s, vec in side.items():
                at = (x,) + s
                for k, val in vec.items():
                    out.setdefault(k, {})[at] = val
    for k in sorted(left.keys() | right.keys()):
        yield k, {(): left.get(k, {})}, {(): right.get(k, {})}


def _dual(axioms):
    """The coalgebra-side axioms: each algebra-side sweep read by output, renamed."""
    out = {}
    for name, axiom in axioms.items():
        dual, swapped = _DUAL[name]
        blocks, common = _swapped(axiom) if swapped else axiom
        out[dual] = (lambda blocks=blocks: _by_output(blocks)), common
    return out


def _failures(axiom):
    """(at, lhs, rhs) of each swept tuple whose sides differ, in canonical form.

    A block is compared whole; only a differing one is split into its tuples.
    """
    blocks, common = axiom
    for x, lhs, rhs in blocks():
        if lhs == rhs:
            continue
        for s in sorted(lhs.keys() | rhs.keys()):
            left, right = lhs.get(s, {}), rhs.get(s, {})
            if left != right:
                yield (x,) + s, canon(left, common), canon(right, common)


def _report(axioms, stop_early=False):
    """One violation per swept tuple whose sides differ, in sweep order."""
    violations = []
    for name, axiom in axioms.items():
        for at, lhs, rhs in _failures(axiom):
            violations.append((name, at, lhs, rhs))
            if stop_early:
                return AxiomReport(tuple(violations))
    return AxiomReport(tuple(violations))


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
    return _report(_algebra_axioms(*algebra._ints), stop_early)


def verify_hom_coalgebra(coalgebra, stop_early=False):
    """Check Hom-coassociativity and twist comultiplicativity on every basis element.

    Hom-coassociativity: (beta (x) Delta) Delta = (Delta (x) beta) Delta.
    Comultiplicativity: Delta(beta(e_m)) = (beta (x) beta) Delta(e_m).
    """
    return _report(_dual(_algebra_axioms(*coalgebra._ints)), stop_early)


def check_algebra_morphism(source, target, candidate):
    """Check that candidate intertwines the products and the twists.

    Conditions: F(e_i e_j) = F(e_i) F(e_j) for all pairs, and
    F(alpha(e_i)) = alpha'(F(e_i)) for all i.
    """
    _check_map_shape(candidate, source.dim, target.dim)
    return _report(_algebra_morphism_axioms(candidate._ints, *source._ints, *target._ints))


def check_coalgebra_morphism(source, target, candidate):
    """Check that candidate intertwines the comultiplications and the twists.

    Conditions: (F (x) F) Delta = Delta' F and F beta = beta' F.
    """
    _check_map_shape(candidate, source.dim, target.dim)
    axioms = _algebra_morphism_axioms(candidate._adjoint_ints(), *target._ints, *source._ints)
    return _report(_dual(axioms))


def dualize_algebra(algebra):
    """Finite dual: comul[k][(i,j)] = mul[(i,j)][k], twist transposed.

    The dual basis pairing turns the product into a comultiplication and the
    twist into its adjoint; the result is always a Hom-coalgebra when the
    input is a Hom-algebra.
    """
    twist = _transpose(algebra._tcols, algebra.dim)
    return FiniteHomCoalgebra._of(algebra.dim, _flip(algebra.mul), twist)


def dualize_algebra_morphism(candidate):
    """Adjoint map: transpose of the matrix, direction reversed.

    Also dualize_module_morphism: if sigma: M -> N passes the module morphism
    check, the adjoint passes the comodule morphism check from the dual of N
    to the dual of M.
    """
    adjoint = _transpose(candidate._cols, candidate.target_dim)
    return LinearMapCandidate(candidate.target_dim, candidate.source_dim, adjoint)


dualize_module_morphism = dualize_algebra_morphism


def yau_twist(assoc, endo):
    """Hom-algebra from a classical associative algebra and an endomorphism.

    The new product is endo after the old product, the new twist is endo.
    The input must carry the identity twist; endo must be multiplicative
    (checked on all basis pairs, first violating pair reported).
    """
    cols = _sparse_cols(endo, assoc.dim, assoc.dim, "endo")
    if any(col != {j: 1} for j, col in enumerate(assoc._tcols)):
        raise InputError("yau_twist input must carry the identity twist")
    axioms = _algebra_axioms(assoc._ints[0], _int_cols(cols))
    for at, _, _ in _failures(axioms["twist-multiplicative"]):
        raise InputError("endo is not an algebra endomorphism: fails at basis pair (%d, %d)" % at)
    mul = {key: _apply(cols, vec) for key, vec in assoc.mul.items()}
    return FiniteHomAlgebra(assoc.dim, mul, cols)


def regular_module(algebra):
    """The algebra acting on itself by right multiplication, twisted by alpha."""
    return FiniteHomModule._of(algebra, algebra.dim, dict(algebra.mul), algebra._tcols)


def verify_hom_module(module, stop_early=False):
    """Check both right Hom-module axioms on every basis tuple.

    Axioms: (m.g).alpha(h) = gamma(m).(gh) over all (module, algebra,
    algebra) triples, and gamma(m).alpha(g) = gamma(m.g) over all pairs.
    """
    return _report(_module_axioms(*module._ints, *module.algebra._ints), stop_early)


def verify_hom_comodule(comodule, stop_early=False):
    """Check both right Hom-comodule axioms on every module basis element.

    Axioms: (phi (x) beta) phi = (eps (x) Delta) phi and
    (eps (x) beta) phi = phi eps.
    """
    axioms = _module_axioms(*comodule._ints, *comodule.coalgebra._ints)
    return _report(_dual(axioms), stop_early)


def dualize_module(module):
    """Finite dual of a right Hom-module: a right Hom-comodule.

    coaction[a][(b,i)] = action[(b,i)][a] and the comodule twist is the
    transpose of the module twist, over the dual coalgebra of the algebra.
    """
    mtwist = _transpose(module._tcols, module.mdim)
    return FiniteHomComodule._of(
        dualize_algebra(module.algebra), module.mdim, _flip(module.action), mtwist
    )


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
        candidate._ints, *source._ints, *target._ints, source.algebra._ints[1]
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
    axioms = _module_morphism_axioms(
        candidate._adjoint_ints(), *target._ints, *source._ints, source.coalgebra._ints[1]
    )
    return _report(_dual(axioms))
