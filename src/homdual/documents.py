"""JSON document schemas for every structure the command line accepts or emits.

One document per structure, discriminated by a "kind" field; every scalar
is an exact rational rendered as "p/q" (or "p").  Loaders raise InputError
with the offending field named; serializers produce documents that load
back to equal structures.
"""

from fractions import Fraction

from .errors import InputError
from .exact_math import Matrix, _render, rat, rat_str
from .homalg_core import (
    FiniteHomAlgebra,
    FiniteHomCoalgebra,
    FiniteHomComodule,
    FiniteHomModule,
    LinearMapCandidate,
    _ints,
)
from .recseq import BiPoly, BiSequence
from .sweedler import FAMILIES

KINDS = (
    "hom-algebra",
    "hom-coalgebra",
    "hom-module",
    "hom-comodule",
    "quotient",
    "bipoly",
    "bisequence",
    "morphism",
)


def _need(doc, field, kind):
    if field not in doc:
        raise InputError("%s document: missing field '%s'" % (kind, field))
    return doc[field]


def _int_field(doc, field, kind, minimum=0):
    value = _need(doc, field, kind)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise InputError(
            "%s document: field '%s' must be an integer >= %d" % (kind, field, minimum)
        )
    return value


def _rat_field(doc, field, kind):
    value = _need(doc, field, kind)
    try:
        return rat(value)
    except InputError:
        raise InputError("%s document: field '%s' is not a rational" % (kind, field))


def _matrix_field(doc, field, kind, rows, cols):
    value = _need(doc, field, kind)
    try:
        m = Matrix(value, cols=cols if not value else None)
    except (InputError, TypeError):
        raise InputError("%s document: field '%s' is not a rational matrix" % (kind, field))
    if m.rows != rows or m.cols != cols:
        raise InputError(
            "%s document: field '%s' must be %dx%d" % (kind, field, rows, cols)
        )
    return m


def document_kind(doc):
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    kind = _need(doc, "kind", "input")
    if kind not in KINDS:
        raise InputError("input document: unknown kind %r" % (kind,))
    return kind


def _triples_to_constants(value, kind, field):
    if not isinstance(value, list):
        raise InputError("%s document: field '%s' must be a list" % (kind, field))
    where = "%s document: field '%s'" % (kind, field)
    table = {}
    for item in value:
        if not (isinstance(item, list) and len(item) == 3):
            raise InputError(
                "%s document: field '%s' entries must be [i, j, coefficient-vector]"
                % (kind, field)
            )
        i, j, vec = item
        _ints(where, i, j)
        try:
            # the literal "0", most of a dense vector, is dropped before coercion
            table[(i, j)] = {k: rat(v) for k, v in enumerate(vec) if v != "0"}
        except (InputError, TypeError):
            raise InputError(
                "%s document: field '%s' entry (%s, %s) has a bad coefficient vector"
                % (kind, field, i, j)
            )
    return table


def _pairs_to_split(value, kind, field):
    if not isinstance(value, list):
        raise InputError("%s document: field '%s' must be a list" % (kind, field))
    table = {}
    for item in value:
        if not (isinstance(item, list) and len(item) == 2 and isinstance(item[1], list)):
            raise InputError(
                "%s document: field '%s' entries must be [index, [[a, b, coeff], ...]]"
                % (kind, field)
            )
    where = "%s document: field '%s'" % (kind, field)
    for source, cells in value:
        _ints(where, source)
        plane = {}
        for cell in cells:
            if not (isinstance(cell, list) and len(cell) == 3):
                raise InputError(
                    "%s document: field '%s' cells must be [a, b, coeff]" % (kind, field)
                )
            a, b, coeff = cell
            _ints(where, source, a, b)
            try:
                plane[(a, b)] = rat(coeff)
            except InputError:
                raise InputError(
                    "%s document: field '%s' cell (%s, %s) has a bad coefficient"
                    % (kind, field, a, b)
                )
        table[source] = plane
    return table


def load_algebra(doc):
    dim = _int_field(doc, "dim", "hom-algebra", minimum=1)
    mul = _triples_to_constants(_need(doc, "mul", "hom-algebra"), "hom-algebra", "mul")
    twist = _matrix_field(doc, "twist", "hom-algebra", dim, dim)
    try:
        return FiniteHomAlgebra(dim, mul, twist)
    except InputError as exc:
        raise InputError("hom-algebra document: %s" % exc)


def algebra_doc(algebra):
    mul = []
    for (i, j) in sorted(algebra.mul):
        vec = algebra.mul[(i, j)]
        dense = [rat_str(vec.get(k, Fraction(0))) for k in range(algebra.dim)]
        mul.append([i, j, dense])
    return {
        "kind": "hom-algebra",
        "dim": algebra.dim,
        "mul": mul,
        "twist": matrix_rows(algebra.twist),
    }


def load_coalgebra(doc):
    dim = _int_field(doc, "dim", "hom-coalgebra", minimum=1)
    comul = _pairs_to_split(_need(doc, "comul", "hom-coalgebra"), "hom-coalgebra", "comul")
    twist = _matrix_field(doc, "twist", "hom-coalgebra", dim, dim)
    try:
        return FiniteHomCoalgebra(dim, comul, twist)
    except InputError as exc:
        raise InputError("hom-coalgebra document: %s" % exc)


def coalgebra_doc(coalgebra):
    comul = []
    for k in sorted(coalgebra.comul):
        cells = [
            [i, j, rat_str(c)] for (i, j), c in sorted(coalgebra.comul[k].items())
        ]
        comul.append([k, cells])
    return {
        "kind": "hom-coalgebra",
        "dim": coalgebra.dim,
        "comul": comul,
        "twist": matrix_rows(coalgebra.twist),
    }


def load_module(doc):
    algebra = load_algebra(_need(doc, "algebra", "hom-module"))
    mdim = _int_field(doc, "mdim", "hom-module", minimum=1)
    action = _triples_to_constants(_need(doc, "action", "hom-module"), "hom-module", "action")
    mtwist = _matrix_field(doc, "mtwist", "hom-module", mdim, mdim)
    try:
        return FiniteHomModule(algebra, mdim, action, mtwist)
    except InputError as exc:
        raise InputError("hom-module document: %s" % exc)


def module_doc(module):
    action = []
    for (a, i) in sorted(module.action):
        vec = module.action[(a, i)]
        dense = [rat_str(vec.get(b, Fraction(0))) for b in range(module.mdim)]
        action.append([a, i, dense])
    return {
        "kind": "hom-module",
        "algebra": algebra_doc(module.algebra),
        "mdim": module.mdim,
        "action": action,
        "mtwist": matrix_rows(module.mtwist),
    }


def load_comodule(doc):
    coalgebra = load_coalgebra(_need(doc, "coalgebra", "hom-comodule"))
    mdim = _int_field(doc, "mdim", "hom-comodule", minimum=1)
    coaction = _pairs_to_split(
        _need(doc, "coaction", "hom-comodule"), "hom-comodule", "coaction"
    )
    mtwist = _matrix_field(doc, "mtwist", "hom-comodule", mdim, mdim)
    try:
        return FiniteHomComodule(coalgebra, mdim, coaction, mtwist)
    except InputError as exc:
        raise InputError("hom-comodule document: %s" % exc)


def comodule_doc(comodule):
    coaction = []
    for a in sorted(comodule.coaction):
        cells = [
            [b, i, rat_str(c)] for (b, i), c in sorted(comodule.coaction[a].items())
        ]
        coaction.append([a, cells])
    return {
        "kind": "hom-comodule",
        "coalgebra": coalgebra_doc(comodule.coalgebra),
        "mdim": comodule.mdim,
        "coaction": coaction,
        "mtwist": matrix_rows(comodule.mtwist),
    }


def _rationals_field(doc, field, kind):
    value = _need(doc, field, kind)
    if not isinstance(value, list):
        raise InputError("%s document: field '%s' must be a list of rationals" % (kind, field))
    try:
        return [rat(v) for v in value]
    except InputError:
        raise InputError("%s document: field '%s' must list rationals" % (kind, field))


# a quotient family's field kinds -> loaders (doc, field, kind) -> value
_FIELD_KINDS = {
    "int>=0": _int_field,
    "int>=1": lambda doc, field, kind: _int_field(doc, field, kind, minimum=1),
    "rational": _rat_field,
    "rationals": _rationals_field,
}


def load_quotient(doc):
    """A quotient of one of the FAMILIES, its fields loaded in the record's order."""
    family = _need(doc, "family", "quotient")
    params = _need(doc, "params", "quotient")
    if not isinstance(params, dict):
        raise InputError("quotient document: field 'params' must be an object")
    rules = FAMILIES.get(family) if isinstance(family, str) else None
    if rules is None:
        raise InputError("quotient document: unknown family %r" % (family,))
    return rules.build(
        {name: _FIELD_KINDS[kind](params, name, "quotient") for name, kind in rules.fields}
    )


def quotient_doc(quotient):
    params = {}
    for key, value in quotient.params.items():
        if isinstance(value, Fraction):
            params[key] = rat_str(value)
        elif isinstance(value, tuple):
            params[key] = [rat_str(v) for v in value]
        else:
            params[key] = value
    return {"kind": "quotient", "family": quotient.family, "params": params}


def load_bipoly(doc):
    r = _int_field(doc, "r", "bipoly")
    s = _int_field(doc, "s", "bipoly")
    value = _need(doc, "coeffs", "bipoly")
    coeffs = {}
    if not isinstance(value, list):
        raise InputError("bipoly document: field 'coeffs' must be a list")
    for item in value:
        if not (isinstance(item, list) and len(item) == 3):
            raise InputError("bipoly document: field 'coeffs' entries must be [i, j, coeff]")
        i, j, coeff = item
        if type(i) is not int or type(j) is not int:  # bool is not an index either
            raise InputError(
                "bipoly document: field 'coeffs' indices must be integers, got %r" % ([i, j],)
            )
        try:
            coeffs[(i, j)] = rat(coeff)
        except InputError:
            raise InputError(
                "bipoly document: coefficient (%s, %s) is not a rational" % (i, j)
            )
    try:
        return BiPoly(r, s, coeffs)
    except InputError as exc:
        raise InputError("bipoly document: %s" % exc)


def bipoly_doc(h):
    return {
        "kind": "bipoly",
        "r": h.r,
        "s": h.s,
        "coeffs": [[i, j, rat_str(c)] for (i, j), c in sorted(h.coeffs.items())],
    }


def load_bisequence(doc):
    M = _int_field(doc, "M", "bisequence")
    N = _int_field(doc, "N", "bisequence")
    entries = _need(doc, "entries", "bisequence")
    try:
        return BiSequence(M, N, entries)
    except (InputError, TypeError):
        raise InputError("bisequence document: field 'entries' must be an (M+1)x(N+1) rational grid")


def bisequence_doc(table):
    return {
        "kind": "bisequence",
        "M": table.M,
        "N": table.N,
        "entries": [
            [_render(a, b) for a, b in zip(top, bottom)]
            for top, bottom in zip(table.nums, table.dens)
        ],
    }


def load_boundary(doc, kind="bisequence"):
    """Boundary table: bisequence shape with nulls allowed (and required) inside.

    Returns {(m, n): value} for the non-null cells.
    """
    M = _int_field(doc, "M", kind)
    N = _int_field(doc, "N", kind)
    entries = _need(doc, "entries", kind)
    try:
        shaped = len(entries) == M + 1 and all(len(row) == N + 1 for row in entries)
    except TypeError:  # a number where a row or the grid should be
        shaped = False
    if not shaped:
        raise InputError("%s document: field 'entries' must be an (M+1)x(N+1) grid" % kind)
    cells = {}
    for m, row in enumerate(entries):
        for n, value in enumerate(row):
            if value is None:
                continue
            try:
                cells[(m, n)] = rat(value)
            except InputError:
                raise InputError(
                    "%s document: entry (%d, %d) is not a rational" % (kind, m, n)
                )
    return cells


def load_morphism(doc):
    """Returns (structure, source object, target object, LinearMapCandidate)."""
    source_doc = _need(doc, "source", "morphism")
    target_doc = _need(doc, "target", "morphism")
    skind = document_kind(source_doc)
    tkind = document_kind(target_doc)
    families = {
        "hom-algebra": "algebra",
        "quotient": "algebra",
        "hom-coalgebra": "coalgebra",
        "hom-module": "module",
        "hom-comodule": "comodule",
    }
    if skind not in families or tkind not in families:
        raise InputError("morphism document: source/target kind %r unsupported" % (skind,))
    if families[skind] != families[tkind]:
        raise InputError(
            "morphism document: source kind %r and target kind %r do not match"
            % (skind, tkind)
        )
    structure = families[skind]

    def realize(inner, inner_kind):
        if inner_kind == "hom-algebra":
            return load_algebra(inner)
        if inner_kind == "quotient":
            return load_quotient(inner).as_hom_algebra()
        if inner_kind == "hom-coalgebra":
            return load_coalgebra(inner)
        if inner_kind == "hom-module":
            return load_module(inner)
        return load_comodule(inner)

    source = realize(source_doc, skind)
    target = realize(target_doc, tkind)
    sdim = source.dim if structure in ("algebra", "coalgebra") else source.mdim
    tdim = target.dim if structure in ("algebra", "coalgebra") else target.mdim
    matrix = _matrix_field(doc, "matrix", "morphism", tdim, sdim)
    return structure, source, target, LinearMapCandidate(sdim, tdim, matrix)


def matrix_rows(m):
    return [[rat_str(v) for v in row] for row in m.entries]
