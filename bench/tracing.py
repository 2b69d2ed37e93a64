"""Outside-in spans around homdual's public functions, and the per-layer metrics.

install() replaces every public function of every homdual module, at its
defining module and at every other homdual module attribute bound to it, by
a wrapper that records a span (name, start, end, parent, job) and the counts
computed from the call's arguments and return value.  Nothing under src/ is
edited.  Spans stay in memory and are written out when the run ends.

Per-scalar helpers (rat, rat_str, canon, monomial_str) are not wrapped: they
run once per matrix entry or violation, so a span each would cost more than
the work; their time stays in the caller's self time.
"""

import functools
import gzip
import importlib
import json
import pkgutil
import time
import types

UNWRAPPED = {"rat", "rat_str", "canon", "monomial_str"}
OVERHEAD = "<trace>"

# metric stem -> (span names whose self time it sums, span names it counts as calls)
_VERIFY = {"homalg_core.verify_hom_algebra", "homalg_core.verify_hom_coalgebra",
           "homalg_core.verify_hom_module", "homalg_core.verify_hom_comodule"}
_LOAD = {"documents.document_kind", "documents.load_algebra", "documents.load_coalgebra",
         "documents.load_module", "documents.load_comodule", "documents.load_quotient",
         "documents.load_bipoly", "documents.load_bisequence", "documents.load_boundary",
         "documents.load_morphism"}
GROUPS = {
    "exact_math.rref": ({"exact_math.mat_rref", "exact_math.mat_kernel"}, {"exact_math.mat_rref"}),
    "homalg_core.verify": (_VERIFY, _VERIFY),
    "homalg_core.morphism": ({"homalg_core.check_algebra_morphism",
                              "homalg_core.check_coalgebra_morphism",
                              "homalg_core.check_module_morphism",
                              "homalg_core.check_comodule_morphism"}, None),
    "homalg_core.dualize": ({"homalg_core.dualize_algebra", "homalg_core.dualize_module",
                             "homalg_core.dualize_algebra_morphism",
                             "homalg_core.dualize_module_morphism"}, None),
    "sweedler.quotient_build": ({"sweedler.make_poly_quotient", "sweedler.make_tensor_quotient",
                                 "sweedler.make_qplane_quotient"}, None),
    "sweedler.verify_quotient": ({"sweedler.verify_quotient"}, None),
    "sweedler.dual_coalgebra": ({"sweedler.quotient_dual_coalgebra",
                                 "sweedler.dual_basis_functional"}, None),
    "sweedler.delta": ({"sweedler.sweedler_delta"}, {"sweedler.sweedler_delta"}),
    "sweedler.pullback": ({"sweedler.pullback_functional", "sweedler.check_pullback_naturality",
                           "sweedler.sweedler_twist"}, None),
    "qplane.hom_product": ({"qplane.hom_product", "qplane.classical_product", "qplane.twist",
                            "qplane.hom_power_left"}, {"qplane.hom_product"}),
    "qplane.qbinom": ({"qplane.qbinom", "qplane.quantum_binomial_expand"}, {"qplane.qbinom"}),
    "recseq.fill": ({"recseq.generate_sequence", "recseq.generate_sequence_derived",
                     "recseq.derive_recursion"}, None),
    "recseq.residual": ({"recseq.annihilation_residual"}, {"recseq.annihilation_residual"}),
    "recseq.convolution": ({"recseq.quantum_convolution"}, None),
    "recseq.minimal_bipoly": ({"recseq.minimal_bipoly"}, None),
    "recseq.row_minimal_polys": ({"recseq.row_minimal_polys"}, None),
    "documents.load": (_LOAD, _LOAD - {"documents.document_kind"}),
    "documents.dump": ({"documents.algebra_doc", "documents.coalgebra_doc", "documents.module_doc",
                        "documents.comodule_doc", "documents.quotient_doc",
                        "documents.bipoly_doc", "documents.bisequence_doc",
                        "documents.matrix_rows"}, None),
    "cli.dispatch": ("cli.", {"cli.dispatch"}),  # a prefix: every span of the cli layer
}

# Metrics in the order BENCHMARK.json lists them.
METRICS = [
    ("exact_math.rref.calls", "count"), ("exact_math.rref.self_s", "s"),
    ("exact_math.rref.cells", "count"), ("exact_math.coeff_bits_max", "bits"),
    ("homalg_core.verify.calls", "count"), ("homalg_core.verify.self_s", "s"),
    ("homalg_core.verify.tuples", "count"), ("homalg_core.verify.violations", "count"),
    ("homalg_core.morphism.self_s", "s"), ("homalg_core.dualize.self_s", "s"),
    ("sweedler.quotient_build.self_s", "s"), ("sweedler.verify_quotient.self_s", "s"),
    ("sweedler.ambient_pairs", "count"), ("sweedler.dual_coalgebra.self_s", "s"),
    ("sweedler.delta.calls", "count"), ("sweedler.delta.self_s", "s"),
    ("sweedler.pullback.self_s", "s"),
    ("qplane.hom_product.calls", "count"), ("qplane.hom_product.self_s", "s"),
    ("qplane.terms", "count"), ("qplane.qbinom.calls", "count"), ("qplane.qbinom.self_s", "s"),
    ("recseq.fill.self_s", "s"), ("recseq.fill.cells", "count"),
    ("recseq.residual.calls", "count"), ("recseq.residual.self_s", "s"),
    ("recseq.convolution.self_s", "s"), ("recseq.minimal_bipoly.self_s", "s"),
    ("recseq.minimal_bipoly.kernels", "count"), ("recseq.kernel_hit_ratio", "ratio"),
    ("recseq.row_minimal_polys.self_s", "s"), ("recseq.coeff_bits_max", "bits"),
    ("documents.load.calls", "count"), ("documents.load.self_s", "s"),
    ("documents.dump.self_s", "s"), ("cli.dispatch.calls", "count"),
    ("cli.dispatch.self_s", "s"), ("cli.report_bytes", "bytes"),
]


def _bits(values):
    top = 0
    for v in values:
        top = max(top, v.numerator.bit_length(), v.denominator.bit_length())
    return top


def _grid_bits(table):
    return _bits(v for row in table.grid for v in row)


def _ambient_pairs(quotient, margin):
    p = quotient.params
    if quotient.family == "poly":
        return (2 * p["N"] + margin + 1) ** 2
    if quotient.family == "qplane":
        return ((2 * p["R"] + margin + 1) * (2 * p["S"] + margin + 1)) ** 2
    length, a = 2 * p["n"] + margin, p["alphabet"]
    return sum((t + 1) * a ** t for t in range(length + 1))


def _count_rref(tracer, args, kwargs, result):
    m = args[0]
    tracer.add("exact_math.rref.cells", m.rows * m.cols)
    bits = max(_bits(x for row in m.entries for x in row),
               _bits(x for row in result[0].entries for x in row))
    tracer.top("exact_math.coeff_bits_max", bits)


def _count_verify(kind):
    def count(tracer, args, kwargs, result):
        s = args[0]
        if kind == "algebra":
            tuples = s.dim ** 2 + s.dim ** 3
        elif kind == "coalgebra":
            tuples = 2 * s.dim
        elif kind == "module":
            tuples = s.mdim * s.algebra.dim + s.mdim * s.algebra.dim ** 2
        else:
            tuples = 2 * s.mdim
        tracer.add("homalg_core.verify.tuples", tuples)
        tracer.add("homalg_core.verify.violations", len(result.violations))
    return count


def _count_verify_quotient(tracer, args, kwargs, result):
    margin = args[1] if len(args) > 1 else kwargs.get("degree_margin", 1)
    tracer.add("sweedler.ambient_pairs", _ambient_pairs(args[0], margin))


def _count_hom_product(tracer, args, kwargs, result):
    tracer.add("qplane.terms", len(result.terms))


def _count_fill(tracer, args, kwargs, result):
    tracer.add("recseq.fill.cells", (result.M + 1) * (result.N + 1))
    tracer.top("recseq.coeff_bits_max", _grid_bits(result))


def _count_convolution(tracer, args, kwargs, result):
    tracer.top("recseq.coeff_bits_max", _grid_bits(result))


def _count_minimal(tracer, args, kwargs, result):
    tracer.add("recseq.hits", result is not None)


def _count_rows(tracer, args, kwargs, result):
    tracer.add("recseq.hits", sum(p is not None for polys in result for p in polys))


COUNTERS = {
    "exact_math.mat_rref": _count_rref,
    "homalg_core.verify_hom_algebra": _count_verify("algebra"),
    "homalg_core.verify_hom_coalgebra": _count_verify("coalgebra"),
    "homalg_core.verify_hom_module": _count_verify("module"),
    "homalg_core.verify_hom_comodule": _count_verify("comodule"),
    "sweedler.verify_quotient": _count_verify_quotient,
    "qplane.hom_product": _count_hom_product,
    "recseq.generate_sequence": _count_fill,
    "recseq.generate_sequence_derived": _count_fill,
    "recseq.quantum_convolution": _count_convolution,
    "recseq.minimal_bipoly": _count_minimal,
    "recseq.row_minimal_polys": _count_rows,
}


class Tracer:
    """Spans and counts of one run; records only while a job's call runs."""

    def __init__(self):
        self.spans = []       # (name, start_ns, end_ns, parent index or -1, job number)
        self.counts = {}
        self.stack = []
        self.job = -1
        self.recording = False
        self._patched = []

    # -- counts
    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def top(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0), value)

    # -- jobs
    def begin_job(self):
        self.job += 1
        self.recording = True

    def end_job(self):
        self.recording = False

    # -- wrapping
    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.job)
            if counter is not None:
                counter(tracer, args, kwargs, result)
                # the counting is a child span of the caller, so it stays out of its self time
                spans.append((OVERHEAD, end, clock(), parent, tracer.job))
            return result

        return functools.wraps(fn)(wrapper)

    def install(self):
        import homdual

        modules = [homdual] + [
            importlib.import_module("homdual." + info.name)
            for info in pkgutil.iter_modules(homdual.__path__)
            if info.name != "__main__"
        ]
        wrappers = {}
        for module in modules[1:]:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and value.__module__ == module.__name__
                        and not attr.startswith("_") and attr not in UNWRAPPED):
                    wrappers[id(value)] = self._wrap(value, layer + "." + attr)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []

    # -- results
    def metrics(self):
        spans = self.spans
        own = {}
        calls = {}
        self_ns = [end - start for _, start, end, _, _ in spans]
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                self_ns[parent] -= end - start
        for (name, *_), ns in zip(spans, self_ns):
            own[name] = own.get(name, 0) + ns
            calls[name] = calls.get(name, 0) + 1
        out = dict(self.counts)
        for stem, (members, counted) in GROUPS.items():
            if isinstance(members, str):
                members = {name for name in own if name.startswith(members)}
            out[stem + ".self_s"] = sum(own.get(name, 0) for name in members) / 1e9
            if counted:
                out[stem + ".calls"] = sum(calls.get(name, 0) for name in counted)
        kernels = self._kernels_under("recseq.minimal_bipoly")
        searched = kernels + self._kernels_under("recseq.row_minimal_polys")
        out["recseq.minimal_bipoly.kernels"] = kernels
        out["recseq.kernel_hit_ratio"] = out.get("recseq.hits", 0) / searched if searched else 0.0
        return {name: {"value": out.get(name, 0), "unit": unit} for name, unit in METRICS}

    def _kernels_under(self, root):
        spans = self.spans
        found = 0
        for name, _, _, parent, _ in spans:
            if name != "exact_math.mat_kernel":
                continue
            while parent >= 0:
                if spans[parent][0] == root:
                    found += 1
                    break
                parent = spans[parent][3]
        return found

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
