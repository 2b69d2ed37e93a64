"""Finite-dimensional Hom-associative algebras and their dual coalgebras.

Exact rational implementations of twisted (Hom-) algebras, coalgebras,
modules and comodules, the finite dual construction on monomial quotients,
twisted quantum-plane arithmetic, and the bivariate recursions it induces
on functionals.  Everything is verified structurally: each axiom has a
checker that reports violating basis indices with both sides in exact form.
"""

from types import ModuleType as _ModuleType

from .errors import InputError, MorphismError
from .exact_math import Matrix, Rational, mat_kernel, mat_rref, rat, rat_str
from .homalg_core import (
    AxiomReport,
    FiniteHomAlgebra,
    FiniteHomCoalgebra,
    FiniteHomComodule,
    FiniteHomModule,
    LinearMapCandidate,
    check_algebra_morphism,
    check_coalgebra_morphism,
    check_comodule_morphism,
    check_module_morphism,
    dualize_algebra,
    dualize_algebra_morphism,
    dualize_module,
    dualize_module_morphism,
    regular_module,
    verify_hom_algebra,
    verify_hom_coalgebra,
    verify_hom_comodule,
    verify_hom_module,
    yau_twist,
)
from .qplane import (
    QParams,
    QPoly,
    classical_product,
    eval_functional,
    format_qpoly,
    hom_power_left,
    hom_product,
    normal_order,
    qbinom,
    quantum_binomial_expand,
)
from .recseq import (
    BiPoly,
    BiSequence,
    CaseId,
    RecursionStencil,
    UniPoly,
    annihilation_residual,
    derive_recursion,
    format_unipoly,
    generate_sequence,
    generate_sequence_derived,
    minimal_bipoly,
    quantum_convolution,
    row_minimal_polys,
)
from .sweedler import (
    QuotientPresentation,
    SweedlerFunctional,
    TensorFunctional,
    add_functionals,
    check_pullback_naturality,
    dual_basis_functional,
    make_poly_quotient,
    make_qplane_quotient,
    make_tensor_quotient,
    pullback_functional,
    quotient_dual_coalgebra,
    sweedler_delta,
    sweedler_twist,
    verify_quotient,
)
from .zoo import zoo_algebras

# every public name imported above, sorted; the submodules bound by the imports are no export
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
