"""JSON document schemas for every structure the command line accepts or emits.

One document per structure, discriminated by a "kind" field; every scalar
is an exact rational rendered as "p/q" (or "p").  Loaders raise InputError
with the offending field named; serializers produce documents that load
back to equal structures.
"""

from fractions import Fraction

from .errors import InputError
from .exact_math import _ZERO, _render, rat, rat_str
from .homalg_core import (
    FiniteHomAlgebra,
    FiniteHomCoalgebra,
    FiniteHomComodule,
    FiniteHomModule,
    LinearMapCandidate,
    _Cols,
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


def _lists(value):
    """Whether value is a JSON list of JSON lists: a string is no row."""
    return isinstance(value, list) and all(isinstance(row, list) for row in value)


def _matrix_field(doc, field, kind, rows, cols):
    """The field's rows of rationals as sparse columns, checked to be rows x cols."""
    value = _need(doc, field, kind)
    try:
        if not _lists(value):
            raise InputError("not a list of rows")
        width = len(value[0]) if value else cols
        columns = [{} for _ in range(width)]
        for i, row in enumerate(value):
            if len(row) != width:
                raise InputError("ragged matrix rows")
            for j, v in enumerate(row):
                if v != "0":  # the commonest entry, zero, is skipped before coercion
                    v = rat(v)
                    if v:
                        columns[j][i] = v
    except InputError:
        raise InputError("%s document: field '%s' is not a rational matrix" % (kind, field))
    if len(value) != rows or width != cols:
        raise InputError(
            "%s document: field '%s' must be %dx%d" % (kind, field, rows, cols)
        )
    return _Cols(rows, columns)


def _text_rows(cols):
    """The rows of a matrix given by its sparse columns, as canonical text."""
    rows = [["0"] * len(cols) for _ in range(cols.rows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i][j] = rat_str(v)
    return rows


def document_kind(doc):
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    kind = _need(doc, "kind", "input")
    if kind not in KINDS:
        raise InputError("input document: unknown kind %r" % (kind,))
    return kind


def _triples_to_constants(value, kind, field):
    where = "%s document: field '%s'" % (kind, field)
    if not isinstance(value, list):
        raise InputError("%s must be a list" % where)
    table = {}
    for item in value:
        if not (isinstance(item, list) and len(item) == 3):
            raise InputError("%s entries must be [i, j, coefficient-vector]" % where)
        i, j, vec = item
        _ints(where, i, j)
        if (i, j) in table:
            raise InputError("%s repeats entry (%d, %d)" % (where, i, j))
        try:
            if not isinstance(vec, list):
                raise InputError("not a list")
            # the literal "0", most of a dense vector, is dropped before coercion
            table[(i, j)] = {k: rat(v) for k, v in enumerate(vec) if v != "0"}
        except InputError:
            raise InputError("%s entry (%s, %s) has a bad coefficient vector" % (where, i, j))
    return table


def _pairs_to_split(value, kind, field):
    where = "%s document: field '%s'" % (kind, field)
    if not isinstance(value, list):
        raise InputError("%s must be a list" % where)
    for item in value:
        if not (isinstance(item, list) and len(item) == 2 and isinstance(item[1], list)):
            raise InputError("%s entries must be [index, [[a, b, coeff], ...]]" % where)
    table = {}
    for source, cells in value:
        _ints(where, source)
        plane = table.setdefault(source, {})
        for cell in cells:
            if not (isinstance(cell, list) and len(cell) == 3):
                raise InputError("%s cells must be [a, b, coeff]" % where)
            a, b, coeff = cell
            _ints(where, source, a, b)
            if (a, b) in plane:
                raise InputError("%s repeats cell (%d, %d, %d)" % (where, source, a, b))
            try:
                plane[(a, b)] = rat(coeff)
            except InputError:
                raise InputError("%s cell (%s, %s) has a bad coefficient" % (where, a, b))
    return table


# kind -> (class, base structure field, size field, table field, twist field)
_STRUCTURES = {
    "hom-algebra": (FiniteHomAlgebra, None, "dim", "mul", "twist"),
    "hom-coalgebra": (FiniteHomCoalgebra, None, "dim", "comul", "twist"),
    "hom-module": (FiniteHomModule, "algebra", "mdim", "action", "mtwist"),
    "hom-comodule": (FiniteHomComodule, "coalgebra", "mdim", "coaction", "mtwist"),
}


def _load_structure(doc, kind):
    """A structure document's fields in order: base structure, size, table, twist."""
    cls, base, size, table, twist = _STRUCTURES[kind]
    args = []
    if base:
        args.append((load_algebra if base == "algebra" else load_coalgebra)(_need(doc, base, kind)))
    n = _int_field(doc, size, kind, minimum=1)
    parse = _pairs_to_split if cls._dual else _triples_to_constants
    args += [n, parse(_need(doc, table, kind), kind, table), _matrix_field(doc, twist, kind, n, n)]
    try:
        return cls(*args)
    except InputError as exc:
        raise InputError("%s document: %s" % (kind, exc))


def _structure_doc(s, kind):
    cls, base, size, table, twist = _STRUCTURES[kind]
    n, constants = getattr(s, size), getattr(s, table)
    doc = {"kind": kind}
    if base:
        doc[base] = (algebra_doc if base == "algebra" else coalgebra_doc)(getattr(s, base))
    if cls._dual:  # {k: {(a, b): c}} as [k, [[a, b, c], ...]]
        rows = [[k, [[a, b, rat_str(c)] for (a, b), c in sorted(constants[k].items())]]
                for k in sorted(constants)]
    else:  # {(i, j): {k: c}} as [i, j, dense vector over k]
        rows = [[i, j, [rat_str(constants[i, j].get(k, _ZERO)) for k in range(n)]]
                for i, j in sorted(constants)]
    doc.update({size: n, table: rows, twist: _text_rows(s._tcols)})
    return doc


def load_algebra(doc):
    return _load_structure(doc, "hom-algebra")


def algebra_doc(algebra):
    return _structure_doc(algebra, "hom-algebra")


def load_coalgebra(doc):
    return _load_structure(doc, "hom-coalgebra")


def coalgebra_doc(coalgebra):
    return _structure_doc(coalgebra, "hom-coalgebra")


def load_module(doc):
    return _load_structure(doc, "hom-module")


def module_doc(module):
    return _structure_doc(module, "hom-module")


def load_comodule(doc):
    return _load_structure(doc, "hom-comodule")


def comodule_doc(comodule):
    return _structure_doc(comodule, "hom-comodule")


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
        if not _lists(entries):
            raise InputError("not a list of rows")
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
    shaped = _lists(entries) and len(entries) == M + 1
    if not (shaped and all(len(row) == N + 1 for row in entries)):
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
    families = {  # kind -> (structure, loader)
        "hom-algebra": ("algebra", load_algebra),
        "quotient": ("algebra", lambda inner: load_quotient(inner).as_hom_algebra()),
        "hom-coalgebra": ("coalgebra", load_coalgebra),
        "hom-module": ("module", load_module),
        "hom-comodule": ("comodule", load_comodule),
    }
    if skind not in families or tkind not in families:
        raise InputError("morphism document: source/target kind %r unsupported" % (skind,))
    (structure, load_source), (other, load_target) = families[skind], families[tkind]
    if structure != other:
        raise InputError(
            "morphism document: source kind %r and target kind %r do not match"
            % (skind, tkind)
        )
    source, target = load_source(source_doc), load_target(target_doc)
    size = "dim" if structure in ("algebra", "coalgebra") else "mdim"
    sdim, tdim = getattr(source, size), getattr(target, size)
    matrix = _matrix_field(doc, "matrix", "morphism", tdim, sdim)
    return structure, source, target, LinearMapCandidate(sdim, tdim, matrix)


def matrix_rows(m):
    return [[rat_str(v) for v in row] for row in m.entries]
