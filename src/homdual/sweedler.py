"""Finite-codimensional quotient presentations and duality on them.

An infinite-dimensional twisted algebra is handled through a quotient by a
monomial ideal that is two-sided and twist-stable.  On the finite quotient,
the dual of the multiplication table gives the comultiplication on
functionals, the transpose of the twist gives the dual twist, and
functionals pull back along quotient-level morphisms by the transpose.

Each quotient computes the powers of its q and k once, on first use: its
builder and its ambient product (swept by verify_quotient) read them from
tables the quotient owns, and a tensor quotient multiplies letter twists
once per word.
"""

from fractions import Fraction

from .errors import InputError, MorphismError
from .exact_math import Matrix, _Memo, rat, rat_str
from .homalg_core import (
    AxiomReport,
    FiniteHomAlgebra,
    LinearMapCandidate,
    _add_scaled,
    canon,
    check_algebra_morphism,
    dualize_algebra,
    verify_hom_algebra,
)
from .qplane import monomial_str

_TENSOR_LETTERS = "xyzw"


class QuotientPresentation:
    """A finite quotient G/J: ordered basis labels, twisted product table, twist.

    qmul holds the image of the twisted product of basis pairs, with every
    twist factor already absorbed into the coefficients.  Ambient monomials
    are addressed by family-specific keys: an exponent for the one-variable
    family, a tuple of letter indices for words, an exponent pair for the
    plane family.  Monomials outside the retained range project to zero.
    """

    def __init__(self, family, params, labels, keys, qmul, qtwist, ambient_product):
        self.family = family
        self.params = dict(params)
        self.labels = list(labels)
        self.keys = [self._canon_key(key) for key in keys]
        self.key_index = {key: i for i, key in enumerate(self.keys)}
        self.qmul = {}
        for (i, j), vec in qmul.items():
            clean = {k: rat(v) for k, v in vec.items() if rat(v) != 0}
            if clean:
                self.qmul[(i, j)] = clean
        self.qtwist = qtwist if isinstance(qtwist, Matrix) else Matrix(qtwist)
        if self.qtwist.rows != self.dim or self.qtwist.cols != self.dim:
            raise InputError("qtwist shape does not match the label count")
        self._ambient_product = ambient_product

    @property
    def dim(self):
        return len(self.labels)

    def __eq__(self, other):
        return (
            isinstance(other, QuotientPresentation)
            and self.family == other.family
            and self.params == other.params
            and self.labels == other.labels
            and self.qmul == other.qmul
            and self.qtwist == other.qtwist
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

    def ambient_product(self, key1, key2):
        """Twisted product of two ambient monomials: (coefficient, monomial key)."""
        return self._ambient_product(self._canon_key(key1), self._canon_key(key2))

    def as_hom_algebra(self):
        return FiniteHomAlgebra(self.dim, self.qmul, self.qtwist)


def _diagonal(values):
    """The twist of a monomial family: a dense diagonal Matrix."""
    return Matrix(
        [[v if a == b else Fraction(0) for b in range(len(values))] for a, v in enumerate(values)]
    )


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
    kpow = _Memo(lambda d: k ** d)
    keys = list(range(N + 1))
    labels = [monomial_str(a, 0) for a in keys]
    qmul = {}
    for a in keys:
        for b in keys:
            if a + b <= N:
                qmul[(a, b)] = {a + b: kpow[a + b]}
    qtwist = _diagonal([kpow[a] for a in keys])

    def ambient(a, b):
        return (kpow[a + b], a + b)

    return QuotientPresentation(
        "poly", {"N": N, "k": k}, labels, keys, qmul, qtwist, ambient
    )


def _words(alphabet_size, n):
    """Words of length <= n as letter-index tuples, by length, then lexicographically."""
    words = frontier = [()]
    for _ in range(n):
        frontier = [word + (c,) for word in frontier for c in range(alphabet_size)]
        words.extend(frontier)
    return words


def _word_label(word, alphabet_size):
    if not word:
        return "1"
    if alphabet_size <= len(_TENSOR_LETTERS):
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
    keys = _words(alphabet_size, n)

    # the twist of a word: one multiplication per word, on first use
    word_twist = _Memo(lambda w: word_twist[w[:-1]] * twists[w[-1]] if w else Fraction(1))
    labels = [_word_label(w, alphabet_size) for w in keys]
    index = {w: i for i, w in enumerate(keys)}
    qmul = {}
    for i, u in enumerate(keys):
        for j, v in enumerate(keys):
            if len(u) + len(v) <= n:
                qmul[(i, j)] = {index[u + v]: word_twist[u] * word_twist[v]}
    qtwist = _diagonal([word_twist[w] for w in keys])

    def ambient(u, v):
        return (word_twist[u] * word_twist[v], u + v)

    return QuotientPresentation(
        "tensor",
        {"alphabet": alphabet_size, "n": n, "twists": tuple(twists)},
        labels,
        keys,
        qmul,
        qtwist,
        ambient,
    )


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
    kpow = _Memo(lambda d: k ** d)
    qpow = _Memo(lambda e: q ** e)
    weight = _Memo(lambda de: kpow[de[0]] * qpow[de[1]])  # k^d q^e
    keys = [(a, b) for a in range(R + 1) for b in range(S + 1)]
    labels = [monomial_str(a, b) for a, b in keys]
    index = {key: i for i, key in enumerate(keys)}
    qmul = {}
    for i, (a, b) in enumerate(keys):
        for j, (c, d) in enumerate(keys):
            if a + c <= R and b + d <= S:
                qmul[(i, j)] = {index[(a + c, b + d)]: weight[a + b + c + d, b * c]}
    qtwist = _diagonal([weight[a + b, 0] for a, b in keys])

    def ambient(key1, key2):
        (a, b), (c, d) = key1, key2
        return (weight[a + b + c + d, b * c], (a + c, b + d))

    return QuotientPresentation(
        "qplane", {"R": R, "S": S, "q": q, "k": k}, labels, keys, qmul, qtwist, ambient
    )


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

    def evaluate_vector(self, vec):
        """Value on a quotient element given by dense basis coordinates."""
        if len(vec) != len(self.coeffs):
            raise InputError("coordinate count does not match the quotient dimension")
        return sum(
            (c * v for c, v in zip(self.coeffs, vec)),
            Fraction(0),
        )

    def evaluate_key(self, key):
        """Value on an ambient monomial (zero when the monomial lies in the ideal)."""
        idx = self.quotient.project_index(key)
        return self.coeffs[idx] if idx is not None else Fraction(0)


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
    if functional.quotient != quotient:
        raise InputError("functional belongs to a different quotient")


def sweedler_delta(quotient, functional):
    """Comultiplication of a functional: Delta(f)(e_i (x) e_j) = f(e_i . e_j).

    The coefficients are read off the quotient product table, so the result
    automatically kills J (x) G + G (x) J.
    """
    _require_same_quotient(quotient, functional)
    terms = {}
    for (i, j), vec in quotient.qmul.items():
        value = Fraction(0)
        for k, coeff in vec.items():
            value += coeff * functional.coeffs[k]
        if value != 0:
            terms[(i, j)] = value
    return TensorFunctional(quotient, terms)


def sweedler_twist(quotient, functional):
    """Dual twist: precompose the functional with the quotient twist."""
    _require_same_quotient(quotient, functional)
    coeffs = quotient.qtwist.transpose().apply(functional.coeffs)
    return SweedlerFunctional(quotient, coeffs)


def quotient_dual_coalgebra(quotient):
    """The Hom-coalgebra carried by the dual basis of a quotient presentation.

    Row l of the comultiplication is the comultiplication of the l-th dual
    basis functional, Delta(d_l)(e_i (x) e_j) = qmul[(i, j)][l]: the whole
    coalgebra is the finite dual of the quotient algebra.
    """
    return dualize_algebra(quotient.as_hom_algebra())


def _checked_morphism(source, target, induced):
    """The induced matrix as a map of quotient algebras; MorphismError if it is not one."""
    candidate = LinearMapCandidate(
        source.dim, target.dim, induced if isinstance(induced, Matrix) else Matrix(induced)
    )
    report = check_algebra_morphism(source.as_hom_algebra(), target.as_hom_algebra(), candidate)
    if not report.passed:
        raise MorphismError("induced map is not a morphism of the quotient algebras", report)
    return candidate


def pullback_functional(source, target, induced, functional):
    """Pull a functional on the target quotient back along a quotient morphism.

    induced is the matrix of the quotient-level algebra morphism (column i
    holds the image of the i-th source basis label); it is checked with the
    algebra-morphism verifier before use.  The result is the composite
    f after the morphism, i.e. the transpose applied to the coefficients.
    """
    _require_same_quotient(target, functional)
    candidate = _checked_morphism(source, target, induced)
    return SweedlerFunctional(source, candidate.matrix.transpose().apply(functional.coeffs))


def check_pullback_naturality(source, target, induced):
    """Verify that pullback commutes with comultiplication and dual twist.

    For every dual basis functional f of the target: the comultiplication
    of the pullback equals the entrywise pullback of the comultiplication,
    and the dual twist of the pullback equals the pullback of the dual
    twist.  Violations are reported in canonical sparse form.
    """
    tmat = _checked_morphism(source, target, induced).matrix.transpose()
    pulls = [SweedlerFunctional(source, tmat.col(t)) for t in range(target.dim)]
    sparse = [{a: c for a, c in enumerate(pull.coeffs) if c != 0} for pull in pulls]
    violations = []
    for t in range(target.dim):
        f = dual_basis_functional(target, t)
        lhs = sweedler_delta(source, pulls[t]).terms
        rhs = {}
        for (i, j), coeff in sweedler_delta(target, f).terms.items():
            for a, la in sparse[i].items():
                _add_scaled(rhs, coeff * la, {(a, b): rb for b, rb in sparse[j].items()})
        if lhs != rhs:
            violations.append(("delta-naturality", (t,), canon(lhs), canon(rhs)))
        lhs_tw = sweedler_twist(source, pulls[t]).coeffs
        rhs_tw = tmat.apply(sweedler_twist(target, f).coeffs)
        if lhs_tw != rhs_tw:
            violations.append(
                (
                    "twist-naturality",
                    (t,),
                    canon({(a,): v for a, v in enumerate(lhs_tw)}),
                    canon({(a,): v for a, v in enumerate(rhs_tw)}),
                )
            )
    return AxiomReport(tuple(violations))


def _merged_quotient(qa, qb):
    """Smallest shipped quotient refining both arguments (componentwise max bounds)."""
    if qa.family != qb.family:
        raise InputError("cannot merge quotients of different families")
    pa, pb = qa.params, qb.params
    if qa.family == "poly":
        if pa["k"] != pb["k"]:
            raise InputError("cannot merge quotients with different twists")
        return make_poly_quotient(max(pa["N"], pb["N"]), pa["k"])
    if qa.family == "tensor":
        if pa["alphabet"] != pb["alphabet"] or pa["twists"] != pb["twists"]:
            raise InputError("cannot merge quotients with different letter twists")
        return make_tensor_quotient(pa["alphabet"], max(pa["n"], pb["n"]), pa["twists"])
    if qa.family == "qplane":
        if pa["q"] != pb["q"] or pa["k"] != pb["k"]:
            raise InputError("cannot merge quotients with different parameters")
        return make_qplane_quotient(
            max(pa["R"], pb["R"]), max(pa["S"], pb["S"]), pa["q"], pa["k"]
        )
    raise InputError("unknown quotient family %r" % (qa.family,))


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
    ambient = quotient._ambient_product
    for key1, key2 in _ambient_pairs(quotient, degree_margin):
        coeff, key = ambient(key1, key2)
        idx = index(key)
        lhs = {idx: coeff} if idx is not None and coeff != 0 else {}
        # a pair with a key outside the basis (index None) is in no table entry
        rhs = quotient.qmul.get((index(key1), index(key2)), {})
        if lhs != rhs:
            violations.append(
                ("quotient-projection-consistency", (key1, key2), canon(lhs), canon(rhs))
            )
    return AxiomReport(tuple(violations))


def _ambient_pairs(quotient, margin):
    if quotient.family == "poly":
        bound = 2 * quotient.params["N"] + margin
        rng = range(bound + 1)
        return ((a, b) for a in rng for b in rng)
    if quotient.family == "tensor":
        length = 2 * quotient.params["n"] + margin
        words = _words(quotient.params["alphabet"], length)
        return (
            (u, v) for u in words for v in words if len(u) + len(v) <= length
        )
    if quotient.family == "qplane":
        ra = 2 * quotient.params["R"] + margin
        sb = 2 * quotient.params["S"] + margin
        monos = [(a, b) for a in range(ra + 1) for b in range(sb + 1)]
        return ((u, v) for u in monos for v in monos)
    raise InputError("unknown quotient family %r" % (quotient.family,))
