"""Finite-codimensional quotient presentations and duality on them.

An infinite-dimensional twisted algebra is handled through a quotient by a
monomial ideal that is two-sided and twist-stable.  On the finite quotient,
the dual of the multiplication table gives the comultiplication on
functionals, the transpose of the twist gives the dual twist, and
functionals pull back along quotient-level morphisms by the transpose.

Every shipped family is the Yau twist of a unital monomial algebra, so one
MonomialFamily record in FAMILIES describes it: its document fields, its
monomials within given bounds and their twisted product.  One builder,
merge, ambient sweep and document loader serve every record.  The twist is
diagonal, read off as x . 1 = alpha(x): the dual twist scales entrywise,
and pullbacks read the morphism's sparse columns through their transpose.
Each quotient computes the powers of its parameters once, on first use, in
tables it owns.
"""

import operator
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .errors import InputError, MorphismError
from .exact_math import _Memo, rat, rat_str
from .homalg_core import (
    AxiomReport,
    FiniteHomAlgebra,
    LinearMapCandidate,
    _add_scaled,
    _apply,
    _Cols,
    _transpose,
    canon,
    check_algebra_morphism,
    dualize_algebra,
    verify_hom_algebra,
)
from .qplane import monomial_str

_TENSOR_LETTERS = "xyzw"


MonomialFamily = namedtuple(
    "MonomialFamily", "fields bounds keys label times weights build pairs", defaults=(None,)
)
MonomialFamily.__doc__ = """A quotient family: a unital monomial algebra, Yau-twisted by a diagonal map.

    fields: the document fields as (name, kind), in the order a loader
    checks them; kind is "int>=0", "int>=1", "rational" or "rationals".
    bounds: the fields that bound the box of monomials; merging two
    quotients takes their maxima, and every other field must agree.
    keys(params): the monomials within the bounds, the unit first.
    label(key, params): how a monomial prints.
    times(key1, key2): the product monomial.
    weights(params): (key1, key2) -> coefficient of the twisted product,
    owning its power tables; asked only for products that are kept.
    build(params): the family's public builder, validation included.
    pairs(keys, wide): the pairs verify_quotient sweeps over the keys of the
    widened bounds, as (u, the prefix of keys paired with u) for each key u;
    None (the default) sweeps every pair.
"""


class QuotientPresentation:
    """A finite quotient G/J: ordered basis labels, twisted product table, twist.

    Built from the family's record: qmul holds the image of the twisted
    product of basis pairs, with every twist factor already absorbed into
    the coefficients, and twist_diagonal the twist of each basis monomial.
    Ambient monomials are addressed by family-specific keys: an exponent for
    the one-variable family, a tuple of letter indices for words, an
    exponent pair for the plane family.  Monomials outside the retained
    range project to zero.  The params are taken as given; the make_*
    builders validate them.
    """

    def __init__(self, family, params):
        rules = FAMILIES[family]
        self.family = family
        self.params = dict(params)
        self.keys = rules.keys(self.params)
        self.labels = [rules.label(key, self.params) for key in self.keys]
        self.key_index = index = {key: i for i, key in enumerate(self.keys)}
        times, weight = rules.times, rules.weights(self.params)
        self._times, self._weight = times, weight
        self.qmul = {}
        for i, u in enumerate(self.keys):
            for j, v in enumerate(self.keys):
                k = index.get(times(u, v))
                if k is not None:
                    self.qmul[(i, j)] = {k: weight(u, v)}
        unit = self.keys[0]
        self.twist_diagonal = [weight(key, unit) for key in self.keys]

    @property
    def dim(self):
        return len(self.labels)

    @property
    def qtwist(self):
        """The twist as a dense diagonal Matrix, built on first use."""
        return self.as_hom_algebra().twist

    def __eq__(self, other):
        return (
            isinstance(other, QuotientPresentation)
            and self.family == other.family
            and self.params == other.params
            and self.qmul == other.qmul
            and self.twist_diagonal == other.twist_diagonal
        )

    def __repr__(self):
        return "QuotientPresentation(%s, dim=%d)" % (self.family, self.dim)

    @staticmethod
    def _canon_key(key):
        if isinstance(key, list):
            return tuple(key)
        return key

    def project_index(self, key):
        """Index of an ambient monomial in the quotient basis, None if it dies."""
        return self.key_index.get(self._canon_key(key))

    @cached_property
    def _hom_algebra(self):
        twist = _Cols(self.dim, [{i: v} for i, v in enumerate(self.twist_diagonal)])
        return FiniteHomAlgebra._of(self.dim, self.qmul, twist)

    def as_hom_algebra(self):
        """The quotient as a FiniteHomAlgebra, built on first use and then shared."""
        return self._hom_algebra


def make_poly_quotient(N, k):
    """Truncated one-variable twisted algebra: powers x^0..x^N.

    The twist scales x^a by k^a and the twisted product is
    x^a . x^b = k^(a+b) x^(a+b), truncated above degree N.
    """
    k = rat(k)
    if k == 0:
        raise InputError("k must be nonzero")
    if N < 0:
        raise InputError("N must be nonnegative")
    return QuotientPresentation("poly", {"N": N, "k": k})


def _poly_weights(params):
    kpow = _Memo(lambda d: params["k"] ** d)
    return lambda a, b: kpow[a + b]


def _words(alphabet_size, n):
    """Words of length <= n as letter-index tuples, by length, then lexicographically."""
    words = frontier = [()]
    for _ in range(n):
        frontier = [word + (c,) for word in frontier for c in range(alphabet_size)]
        words.extend(frontier)
    return words


def _word_label(word, params):
    if not word:
        return "1"
    if params["alphabet"] <= len(_TENSOR_LETTERS):
        return "".join(_TENSOR_LETTERS[c] for c in word)
    return "*".join("g%d" % (c + 1) for c in word)


def make_tensor_quotient(alphabet_size, n, letter_twists):
    """Truncated twisted word algebra: words of length <= n.

    Each letter carries its own twist factor; the twist of a word is the
    product of its letter factors, and the twisted product concatenates the
    twists of both factors, truncated above length n.
    """
    if alphabet_size < 1:
        raise InputError("alphabet size must be at least 1")
    if n < 0:
        raise InputError("n must be nonnegative")
    twists = [rat(t) for t in letter_twists]
    if len(twists) != alphabet_size:
        raise InputError("need one twist per letter")
    if any(t == 0 for t in twists):
        raise InputError("letter twists must be nonzero")
    return QuotientPresentation(
        "tensor", {"alphabet": alphabet_size, "n": n, "twists": tuple(twists)}
    )


def _tensor_weights(params):
    twists = params["twists"]
    # the twist of a word: one multiplication per word, on first use
    word_twist = _Memo(lambda w: word_twist[w[:-1]] * twists[w[-1]] if w else Fraction(1))
    return lambda u, v: word_twist[u] * word_twist[v]


def _tensor_pairs(words, params):
    """Pairs of words of total length <= n: as _words runs by length, v ranges over a prefix."""
    n = params["n"]
    within = {len(w): end for end, w in enumerate(words, 1)}  # length -> words up to it
    return ((u, words[: within[n - len(u)]]) for u in words)


def make_qplane_quotient(R, S, q, k):
    """Truncated twisted quantum plane: monomials x^a y^b with a <= R, b <= S.

    The twisted product is
    x^a y^b . x^c y^d = k^(a+b+c+d) q^(bc) x^(a+c) y^(b+d),
    truncated outside the exponent box.
    """
    q = rat(q)
    k = rat(k)
    if q == 0:
        raise InputError("q must be nonzero")
    if k == 0:
        raise InputError("k must be nonzero")
    if R < 0 or S < 0:
        raise InputError("R and S must be nonnegative")
    return QuotientPresentation("qplane", {"R": R, "S": S, "q": q, "k": k})


def _qplane_weights(params):
    kpow = _Memo(lambda d: params["k"] ** d)
    qpow = _Memo(lambda e: params["q"] ** e)
    weight = _Memo(lambda de: kpow[de[0]] * qpow[de[1]])  # k^d q^e
    return lambda m1, m2: weight[m1[0] + m1[1] + m2[0] + m2[1], m1[1] * m2[0]]


FAMILIES = {
    "poly": MonomialFamily(
        fields=(("N", "int>=0"), ("k", "rational")),
        bounds=("N",),
        keys=lambda p: list(range(p["N"] + 1)),
        label=lambda a, p: monomial_str(a, 0),
        times=operator.add,
        weights=_poly_weights,
        build=lambda p: make_poly_quotient(p["N"], p["k"]),
    ),
    "tensor": MonomialFamily(
        fields=(("twists", "rationals"), ("alphabet", "int>=1"), ("n", "int>=0")),
        bounds=("n",),
        keys=lambda p: _words(p["alphabet"], p["n"]),
        label=_word_label,
        times=operator.add,
        weights=_tensor_weights,
        build=lambda p: make_tensor_quotient(p["alphabet"], p["n"], p["twists"]),
        pairs=_tensor_pairs,
    ),
    "qplane": MonomialFamily(
        fields=(("R", "int>=0"), ("S", "int>=0"), ("q", "rational"), ("k", "rational")),
        bounds=("R", "S"),
        keys=lambda p: [(a, b) for a in range(p["R"] + 1) for b in range(p["S"] + 1)],
        label=lambda key, p: monomial_str(*key),
        times=lambda m1, m2: (m1[0] + m2[0], m1[1] + m2[1]),
        weights=_qplane_weights,
        build=lambda p: make_qplane_quotient(p["R"], p["S"], p["q"], p["k"]),
    ),
}


class SweedlerFunctional:
    """A functional on the ambient algebra that kills the ideal of a quotient.

    Stored as its coefficient vector in the dual basis of the quotient
    labels; evaluation on any ambient monomial factors through projection.
    """

    def __init__(self, quotient, coeffs):
        coeffs = [rat(c) for c in coeffs]
        if len(coeffs) != quotient.dim:
            raise InputError("coefficient count does not match the quotient dimension")
        self.quotient = quotient
        self.coeffs = coeffs

    def __eq__(self, other):
        return (
            isinstance(other, SweedlerFunctional)
            and self.quotient == other.quotient
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        body = ", ".join(
            "%s*%s" % (rat_str(c), label)
            for c, label in zip(self.coeffs, self.quotient.labels)
            if c != 0
        )
        return "SweedlerFunctional(%s)" % (body or "0")


def dual_basis_functional(quotient, i):
    """The functional picking out the coefficient of the i-th basis label."""
    coeffs = [Fraction(0)] * quotient.dim
    coeffs[i] = Fraction(1)
    return SweedlerFunctional(quotient, coeffs)


class TensorFunctional:
    """Element of (dual) (x) (dual) over one quotient, in canonical sparse form."""

    def __init__(self, quotient, terms):
        self.quotient = quotient
        self.terms = {}
        for (i, j), coeff in terms.items():
            coeff = rat(coeff)
            if coeff != 0:
                self.terms[(i, j)] = coeff

    def __eq__(self, other):
        return (
            isinstance(other, TensorFunctional)
            and self.quotient == other.quotient
            and self.terms == other.terms
        )

    def __repr__(self):
        labels = self.quotient.labels
        body = " + ".join(
            "%s*[%s (x) %s]" % (rat_str(c), labels[i], labels[j])
            for (i, j), c in sorted(self.terms.items())
        )
        return "TensorFunctional(%s)" % (body or "0")

    def triples(self):
        """Sorted (left-index, right-index, coefficient) triples."""
        return tuple((i, j, c) for (i, j), c in sorted(self.terms.items()))


def _require_same_quotient(quotient, functional):
    if functional.quotient is not quotient and functional.quotient != quotient:
        raise InputError("functional belongs to a different quotient")


def sweedler_delta(quotient, functional):
    """Comultiplication of a functional: Delta(f)(e_i (x) e_j) = f(e_i . e_j).

    The coefficients are read off the quotient product table, so the result
    automatically kills J (x) G + G (x) J.
    """
    _require_same_quotient(quotient, functional)
    support = {k: c for k, c in enumerate(functional.coeffs) if c}
    terms = {}
    for (i, j), vec in quotient.qmul.items():
        value = sum(coeff * support[k] for k, coeff in vec.items() if k in support)
        if value != 0:
            terms[(i, j)] = value
    return TensorFunctional(quotient, terms)


def sweedler_twist(quotient, functional):
    """Dual twist: precompose the functional with the quotient twist, a diagonal."""
    _require_same_quotient(quotient, functional)
    coeffs = [c * t for c, t in zip(functional.coeffs, quotient.twist_diagonal)]
    return SweedlerFunctional(quotient, coeffs)


def quotient_dual_coalgebra(quotient):
    """The Hom-coalgebra carried by the dual basis of a quotient presentation.

    Row l of the comultiplication is the comultiplication of the l-th dual
    basis functional, Delta(d_l)(e_i (x) e_j) = qmul[(i, j)][l]: the whole
    coalgebra is the finite dual of the quotient algebra.
    """
    return dualize_algebra(quotient.as_hom_algebra())


def _pullbacks(source, target, induced):
    """The pullback of every dual basis functional of the target, sparse over the source.

    induced is checked with the algebra-morphism verifier first
    (MorphismError if it fails).  Entry t is row t of the matrix: the
    candidate's sparse columns read through the transpose, i.e. the adjoint
    map that dualize_algebra_morphism describes.
    """
    candidate = LinearMapCandidate(source.dim, target.dim, induced)
    report = check_algebra_morphism(source.as_hom_algebra(), target.as_hom_algebra(), candidate)
    if not report.passed:
        raise MorphismError("induced map is not a morphism of the quotient algebras", report)
    return _transpose(candidate._cols, target.dim)


def _dense(vec, dim):
    return [vec.get(i, Fraction(0)) for i in range(dim)]


def _sparse(coeffs):
    return {i: c for i, c in enumerate(coeffs) if c != 0}


def pullback_functional(source, target, induced, functional):
    """Pull a functional on the target quotient back along a quotient morphism.

    induced is the matrix of the quotient-level algebra morphism (column i
    holds the image of the i-th source basis label); it is checked with the
    algebra-morphism verifier before use.  The result is the composite
    f after the morphism, i.e. the transpose applied to the coefficients.
    """
    _require_same_quotient(target, functional)
    pulled = _apply(_pullbacks(source, target, induced), _sparse(functional.coeffs))
    return SweedlerFunctional(source, _dense(pulled, source.dim))


def check_pullback_naturality(source, target, induced):
    """Verify that pullback commutes with comultiplication and dual twist.

    For every dual basis functional f of the target: the comultiplication
    of the pullback equals the entrywise pullback of the comultiplication,
    and the dual twist of the pullback equals the pullback of the dual
    twist.  Violations are reported in canonical sparse form.
    """
    pulls = _pullbacks(source, target, induced)
    violations = []
    for t, pull in enumerate(pulls):
        f = dual_basis_functional(target, t)
        pulled = SweedlerFunctional(source, _dense(pull, source.dim))
        lhs = sweedler_delta(source, pulled).terms
        rhs = {}
        for (i, j), coeff in sweedler_delta(target, f).terms.items():
            for a, la in pulls[i].items():
                _add_scaled(rhs, coeff * la, {(a, b): rb for b, rb in pulls[j].items()})
        if lhs != rhs:
            violations.append(("delta-naturality", (t,), canon(lhs), canon(rhs)))
        lhs_tw = _sparse(sweedler_twist(source, pulled).coeffs)
        rhs_tw = _apply(pulls, _sparse(sweedler_twist(target, f).coeffs))
        if lhs_tw != rhs_tw:
            violations.append(("twist-naturality", (t,), canon(lhs_tw), canon(rhs_tw)))
    return AxiomReport(tuple(violations))


def _merged_quotient(qa, qb):
    """Smallest quotient of the family refining both arguments (componentwise max bounds)."""
    if qa.family != qb.family:
        raise InputError("cannot merge quotients of different families")
    bounds = FAMILIES[qa.family].bounds
    pa, pb = qa.params, qb.params
    differ = [name for name in pa if name not in bounds and pa[name] != pb[name]]
    if differ:
        raise InputError(
            "cannot merge %s quotients with different %s" % (qa.family, ", ".join(differ))
        )
    merged = {name: max(pa[name], pb[name]) if name in bounds else pa[name] for name in pa}
    return FAMILIES[qa.family].build(merged)


def _embed_coeffs(functional, big):
    coeffs = [Fraction(0)] * big.dim
    for key, coeff in zip(functional.quotient.keys, functional.coeffs):
        if coeff == 0:
            continue
        idx = big.project_index(key)
        if idx is None:
            raise InputError("embedding target does not contain monomial %r" % (key,))
        coeffs[idx] = coeff
    return coeffs


def add_functionals(f, g):
    """Sum of two functionals, re-expressed over a common refining quotient.

    Both ideals contain the ideal of the merged presentation, so both
    functionals factor through it and the sum is computed there.  Over one
    and the same quotient the sum stays in that quotient.
    """
    if f.quotient == g.quotient:
        return SweedlerFunctional(
            f.quotient, [a + b for a, b in zip(f.coeffs, g.coeffs)]
        )
    big = _merged_quotient(f.quotient, g.quotient)
    fa = _embed_coeffs(f, big)
    gb = _embed_coeffs(g, big)
    return SweedlerFunctional(big, [a + b for a, b in zip(fa, gb)])


def verify_quotient(quotient, degree_margin=1):
    """Check the quotient presentation is internally consistent.

    Runs the Hom-algebra verifier on the extracted structure constants, then
    sweeps ambient monomial pairs (up to twice the truncation bound plus
    degree_margin) checking that projecting the ambient twisted product
    agrees with the quotient table applied to the projections.
    """
    violations = list(verify_hom_algebra(quotient.as_hom_algebra()).violations)
    # the swept keys are canonical already, so they index the tables directly
    index = quotient.key_index.get
    times, weight, qmul = quotient._times, quotient._weight, quotient.qmul
    keys, rows = _ambient_rows(quotient, degree_margin)
    where = [index(v) for v in keys]
    for key1, row in rows:
        i = index(key1)
        for key2, j in zip(row, where):  # row is a prefix of keys
            idx = index(times(key1, key2))
            # a pair with a key outside the basis (index None) is in no table entry
            rhs = qmul.get((i, j), {})
            if idx is None and not rhs:  # the product dies, and the table has no entry
                continue
            lhs = {idx: weight(key1, key2)} if idx is not None else {}
            if lhs != rhs:
                violations.append(
                    ("quotient-projection-consistency", (key1, key2), canon(lhs), canon(rhs))
                )
    return AxiomReport(tuple(violations))


def _ambient_rows(quotient, margin):
    """(keys, rows): the monomials within twice each bound plus margin, and the pairs
    verify_quotient sweeps as (u, the prefix of keys paired with u)."""
    rules = FAMILIES[quotient.family]
    wide = dict(quotient.params)
    for name in rules.bounds:
        wide[name] = 2 * wide[name] + margin
    keys = rules.keys(wide)
    if rules.pairs is None:
        return keys, ((u, keys) for u in keys)
    return keys, rules.pairs(keys, wide)
