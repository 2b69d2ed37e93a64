"""Command line front end.

Reads JSON structure documents, dispatches to the library, and prints one
canonical JSON report per invocation (sorted keys, exact "p/q" scalars):
the text of json.dumps(report, sort_keys=True, indent=2), written by one
recursive writer over the C string encoder.
Exit codes: 0 result or verification pass, 1 verification failure, 2 bad
input or schema, 3 internal error (an unexpected exception in a command,
reported as one JSON document with status "internal-error").  The argument
parser is built once per process, by the first dispatch; an argv that
starts with a subcommand's name is parsed by that subcommand's parser.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import documents
from .errors import InputError
from .exact_math import rat, rat_str
from .homalg_core import (
    AxiomReport,
    check_algebra_morphism,
    check_coalgebra_morphism,
    check_comodule_morphism,
    check_module_morphism,
    dualize_algebra,
    dualize_module,
    verify_hom_algebra,
    verify_hom_coalgebra,
    verify_hom_comodule,
    verify_hom_module,
)
from .qplane import (
    QParams,
    QPoly,
    format_qpoly,
    hom_power_left,
    normal_order,
    quantum_binomial_expand,
)
from .recseq import _residuals, generate_sequence, minimal_bipoly, quantum_convolution
from .sweedler import (
    SweedlerFunctional,
    quotient_dual_coalgebra,
    sweedler_delta,
    verify_quotient,
)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError("cannot read file %r: %s" % (path, exc))
    except ValueError as exc:  # malformed JSON, or an integer past the digit limit
        raise InputError("file %r is not valid JSON: %s" % (path, exc))


def _plain(value):
    """Violation payloads carry tuples and Fractions; make them JSON-ready."""
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _violations_json(report):
    return [
        {"axiom": name, "at": _plain(at), "lhs": _plain(lhs), "rhs": _plain(rhs)}
        for name, at, lhs, rhs in report.violations
    ]


def _write_json(value, pad, out):
    """Append to out the text json.dumps(value, sort_keys=True, indent=2) gives at indent pad.

    pad is a newline and the indentation of value's own line.  Reports hold
    str-keyed dicts, lists, tuples, str, int (bool included) and None; any
    other type raises TypeError, and an int past the int->str digit limit
    raises json's ValueError.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            out.append(sep)
            sep = comma
            if type(item) is str:  # table rows and argv: the commonest items, inline
                out.append(_quote(item))
            elif type(item) is int:
                out.append(int.__repr__(item))
            else:
                _write_json(item, inner, out)
        out.append(pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError("report keys must be str, not %s" % type(key).__name__)
            out.append(sep + _quote(key) + ": ")
            sep = comma
            _write_json(value[key], inner, out)
        out.append(pad + "}")
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def _emit(report):
    out = []
    _write_json(report, "\n", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _rat_arg(text):
    try:
        return rat(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _verify_document(doc):
    """Route a parsed document to its verifier; returns an AxiomReport."""
    kind = documents.document_kind(doc)
    checks = {  # kind -> (loader, verifier), looked up per call
        "hom-algebra": (documents.load_algebra, verify_hom_algebra),
        "hom-coalgebra": (documents.load_coalgebra, verify_hom_coalgebra),
        "hom-module": (documents.load_module, verify_hom_module),
        "hom-comodule": (documents.load_comodule, verify_hom_comodule),
        "quotient": (documents.load_quotient, verify_quotient),
    }
    if kind in checks:
        load, verify = checks[kind]
        return verify(load(doc))
    if kind == "morphism":
        structure, source, target, candidate = documents.load_morphism(doc)
        checker = {
            "algebra": check_algebra_morphism,
            "coalgebra": check_coalgebra_morphism,
            "module": check_module_morphism,
            "comodule": check_comodule_morphism,
        }[structure]
        return checker(source, target, candidate)
    # bipoly / bisequence: nothing beyond the schema to check
    if kind == "bipoly":
        documents.load_bipoly(doc)
    elif isinstance(doc.get("entries"), list) and any(
        value is None
        for row in doc["entries"]
        for value in (row if isinstance(row, list) else [])
    ):
        # boundary table: same shape, nulls on the interior
        documents.load_boundary(doc)
    else:
        documents.load_bisequence(doc)
    return AxiomReport(())


def cmd_verify(args, argv):
    if args.all:
        directory = args.all
        try:
            names = sorted(
                name for name in os.listdir(directory) if name.endswith(".json")
            )
        except OSError as exc:
            raise InputError("cannot list directory %r: %s" % (directory, exc))
        if not names:
            raise InputError("directory %r holds no .json documents" % (directory,))
        results = []
        worst = 0
        for name in names:
            path = os.path.join(directory, name)
            try:
                report = _verify_document(_load_json(path))
            except InputError as exc:
                results.append({"file": name, "status": "error", "error": str(exc)})
                worst = max(worst, 2)
                continue
            status = "pass" if report.passed else "fail"
            results.append(
                {
                    "file": name,
                    "status": status,
                    "violations": _violations_json(report),
                }
            )
            if not report.passed:
                worst = max(worst, 1)
        overall = {0: "pass", 1: "fail", 2: "error"}[worst]
        _emit({"command": argv, "status": overall, "results": results})
        return worst
    report = _verify_document(_load_json(args.file))
    status = "pass" if report.passed else "fail"
    _emit({"command": argv, "status": status, "violations": _violations_json(report)})
    return 0 if report.passed else 1


def cmd_dualize(args, argv):
    doc = _load_json(args.file)
    kind = documents.document_kind(doc)
    duals = {  # kind -> (loader, dual, writer), looked up per call
        "hom-algebra": (documents.load_algebra, dualize_algebra, documents.coalgebra_doc),
        "quotient": (documents.load_quotient, quotient_dual_coalgebra, documents.coalgebra_doc),
        "hom-module": (documents.load_module, dualize_module, documents.comodule_doc),
    }
    if kind not in duals:
        raise InputError(
            "dualize handles kinds hom-algebra, quotient and hom-module, not %r" % kind
        )
    load, dual, write = duals[kind]
    result = write(dual(load(doc)))
    _emit({"command": argv, "status": "pass", "result": result})
    return 0


def cmd_sweedler_delta(args, argv):
    quotient = documents.load_quotient(_load_json(args.quotient))
    pieces = [piece.strip() for piece in args.functional.split(",")]
    try:
        coeffs = [rat(piece) for piece in pieces]
    except InputError:
        raise InputError("field 'functional' must be comma-separated rationals")
    if len(coeffs) != quotient.dim:
        raise InputError(
            "field 'functional' needs %d coefficients, got %d"
            % (quotient.dim, len(coeffs))
        )
    delta = sweedler_delta(quotient, SweedlerFunctional(quotient, coeffs))
    result = {
        "labels": list(quotient.labels),
        "terms": [[i, j, rat_str(c)] for i, j, c in delta.triples()],
    }
    _emit({"command": argv, "status": "pass", "result": result})
    return 0


def cmd_expand(args, argv):
    params = QParams(args.q, args.k)
    if args.op == "normal-order":
        if args.word is None:
            raise InputError("field 'word' is required for op normal-order")
        poly = normal_order(args.word, params)
    elif args.op == "hom-power":
        if args.n is None:
            raise InputError("field 'n' is required for op hom-power")
        base = QPoly(params, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
        poly = hom_power_left(base, args.n)
    else:
        if args.n is None:
            raise InputError("field 'n' is required for op qbinom-formula")
        poly = quantum_binomial_expand(args.n, params)
    result = {
        "op": args.op,
        "q": rat_str(params.q),
        "k": rat_str(params.k),
        "poly": format_qpoly(poly),
        "terms": [[m, n, rat_str(c)] for (m, n), c in sorted(poly.terms.items())],
    }
    _emit({"command": argv, "status": "pass", "result": result})
    return 0


def _ones_boundary(h, M, N):
    return {
        (m, n): Fraction(1)
        for m in range(M + 1)
        for n in range(N + 1)
        if m < h.r or n < h.s
    }


def cmd_seq_gen(args, argv):
    h = documents.load_bipoly(_load_json(args.h))
    if args.boundary == "ones":
        boundary = _ones_boundary(h, args.M, args.N)
    else:
        boundary = documents.load_boundary(_load_json(args.boundary))
    table = generate_sequence(h, args.case, args.q, boundary, args.M, args.N)
    _emit({"command": argv, "status": "pass", "result": documents.bisequence_doc(table)})
    return 0


def cmd_seq_oracle(args, argv):
    table = documents.load_bisequence(_load_json(args.table))
    h = documents.load_bipoly(_load_json(args.h))
    if args.all == (args.at is not None):
        raise InputError("give exactly one of --all and --at m,n")
    if args.all:
        cells = [
            (m, n)
            for m in range(h.r, table.M + 1)
            for n in range(h.s, table.N + 1)
        ]
    else:
        try:
            m_text, n_text = args.at.split(",")
            cells = [(int(m_text), int(n_text))]
        except ValueError:
            raise InputError("field 'at' must be 'm,n' with integers")
    residuals = []
    failures = []
    # q and k are checked before any cell, so a table without interior cells is no pass for q = 0
    values = _residuals(table, h, args.case, cells, args.q, args.k)
    for (m, n), value in zip(cells, values):
        residuals.append([m, n, rat_str(value)])
        if value != 0:
            failures.append({"at": [m, n], "residual": rat_str(value)})
    status = "pass" if not failures else "fail"
    _emit(
        {
            "command": argv,
            "status": status,
            "violations": failures,
            "result": {"residuals": residuals},
        }
    )
    return 0 if not failures else 1


def cmd_seq_minpoly(args, argv):
    table = documents.load_bisequence(_load_json(args.table))
    found = minimal_bipoly(table, args.rmax, args.smax)
    if found is None:
        result = {"found": False}
    else:
        r, s, h = found
        result = {"found": True, "r": r, "s": s, "bipoly": documents.bipoly_doc(h)}
    _emit({"command": argv, "status": "pass", "result": result})
    return 0


def cmd_convolve(args, argv):
    f = documents.load_bisequence(_load_json(args.f))
    g = documents.load_bisequence(_load_json(args.g))
    table = quantum_convolution(f, g, args.q, args.M, args.N)
    _emit({"command": argv, "status": "pass", "result": documents.bisequence_doc(table)})
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="homdual",
        description="Exact verification and computation for twisted algebras,"
        " their dual coalgebras, and the bivariate recursions they induce.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subcommand parser, for dispatch

    p = sub.add_parser("verify", help="verify a structure document against its axioms")
    p.add_argument("file", nargs="?", help="JSON document to verify")
    p.add_argument("--all", metavar="DIR", help="verify every .json document in DIR")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser(
        "dualize", help="dual coalgebra of an algebra or quotient, or comodule of a module"
    )
    p.add_argument("file", help="JSON document to dualize")
    p.set_defaults(handler=cmd_dualize)

    p = sub.add_parser(
        "sweedler-delta", help="comultiplication of a functional on a quotient"
    )
    p.add_argument("--quotient", required=True, help="quotient document")
    p.add_argument(
        "--functional",
        required=True,
        help="comma-separated coefficients in the dual basis",
    )
    p.set_defaults(handler=cmd_sweedler_delta)

    p = sub.add_parser("expand", help="twisted quantum-plane expansions")
    p.add_argument(
        "--op",
        required=True,
        choices=("normal-order", "hom-power", "qbinom-formula"),
    )
    p.add_argument("--word", help="word in x and y (normal-order)")
    p.add_argument("--n", type=int, help="power (hom-power, qbinom-formula)")
    p.add_argument("--q", required=True, type=_rat_arg, help="plane parameter")
    p.add_argument("--k", type=_rat_arg, default=Fraction(1), help="twist parameter")
    p.set_defaults(handler=cmd_expand)

    p = sub.add_parser("seq-gen", help="fill a table from a recursion and boundary")
    p.add_argument("--h", required=True, help="bipoly document")
    p.add_argument("--case", required=True, type=int, choices=(1, 2, 3))
    p.add_argument("--q", required=True, type=_rat_arg)
    p.add_argument(
        "--boundary", required=True, help="boundary table document, or 'ones'"
    )
    p.add_argument("--M", required=True, type=int)
    p.add_argument("--N", required=True, type=int)
    p.set_defaults(handler=cmd_seq_gen)

    p = sub.add_parser(
        "seq-oracle", help="annihilation residuals of a table against a recursion"
    )
    p.add_argument("--table", required=True, help="bisequence document")
    p.add_argument("--h", required=True, help="bipoly document")
    p.add_argument("--case", required=True, type=int, choices=(1, 2, 3))
    p.add_argument("--q", required=True, type=_rat_arg)
    p.add_argument("--k", type=_rat_arg, default=Fraction(1))
    p.add_argument("--at", help="single cell 'm,n'")
    p.add_argument("--all", action="store_true", help="every interior cell")
    p.set_defaults(handler=cmd_seq_oracle)

    p = sub.add_parser("seq-minpoly", help="smallest monic annihilator of a table")
    p.add_argument("--table", required=True, help="bisequence document")
    p.add_argument("--rmax", required=True, type=int)
    p.add_argument("--smax", required=True, type=int)
    p.set_defaults(handler=cmd_seq_minpoly)

    p = sub.add_parser("convolve", help="Gaussian-binomial convolution of two tables")
    p.add_argument("--f", required=True, help="first bisequence document")
    p.add_argument("--g", required=True, help="second bisequence document")
    p.add_argument("--q", required=True, type=_rat_arg)
    p.add_argument("--M", required=True, type=int)
    p.add_argument("--N", required=True, type=int)
    p.set_defaults(handler=cmd_convolve)

    return parser


# The parser of this process, built by the first dispatch rather than at
# import, so a cmd_* handler replaced before then (say, wrapped to time it)
# is the one the parser calls.
_PARSER = None


def _parse_args(argv):
    """_PARSER.parse_args(argv), with a named subcommand parsed by its own parser.

    The top parser would hand every argument after the name to that parser
    anyway; the leftovers get the top parser's error, as parse_args gives it.
    """
    command = _PARSER.commands.get(argv[0]) if argv else None
    if command is None:  # no argv, help, an option first or an unknown name
        return _PARSER.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        _PARSER.error("unrecognized arguments: %s" % " ".join(extras))
    args.command = argv[0]
    return args


def dispatch(argv):
    """Run one subcommand; returns the process exit code."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else int(exc.code)
    if args.command == "verify" and not args.all and not args.file:
        sys.stderr.write("error: verify needs a file or --all DIR\n")
        return 2
    try:
        return args.handler(args, list(argv))
    except InputError as exc:
        sys.stderr.write("error: %s\n" % exc)
        _emit({"command": list(argv), "status": "error", "error": str(exc)})
        return 2
    except Exception as exc:  # a fault of the program, not of the input or the structure
        import traceback  # imported on this path only, which keeps the CLI start small

        traceback.print_exc(file=sys.stderr)
        error = "%s: %s" % (type(exc).__name__, exc)
        _emit({"command": list(argv), "status": "internal-error", "error": error})
        return 3


def main():
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
