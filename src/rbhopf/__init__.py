"""Exact-arithmetic toolkit for Rota-Baxter structures on (co/bi/Hopf) algebras.

Finite-dimensional algebras, coalgebras, bialgebras and Hopf algebras are
represented by structure constants over Q or F_p and every axiom,
compatibility condition and Rota-Baxter identity is checked exactly.  On top
of the checkers sit the constructions: coinvariant projections of Hopf
module coalgebras, smash coproducts of Yetter-Drinfeld module coalgebras
with their closed-form projections, convolution projections of bialgebras
with a projection, pre-Lie coalgebras derived from Rota-Baxter operators,
and exhaustive operator searches over small finite fields.

Submodules load on first use: `import rbhopf` loads none of them, and a
public name such as `rbhopf.smash_coproduct` (or a submodule such as
`rbhopf.hopfmod`) imports its module the first time it is looked up.  Every
name in `__all__` resolves, so `from rbhopf import *` binds them all.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "errors": ("BudgetExceededError", "FieldMismatchError", "FormatError",
               "PreconditionError", "ShapeError"),
    "fields": ("GF", "QQ", "Fp", "PrimeField", "Rationals", "field_from_name"),
    "linalg": ("Mat", "Tensor3", "Vec", "kron_index"),
    "tensorops": ("TermSum",),
    "structures": ("AlgebraicStructure", "AxiomVerdict", "DefectReport",
                   "builtin", "builtin_names", "check_antipode",
                   "check_associativity", "check_bialgebra",
                   "check_bialgebra_map", "check_coassociativity",
                   "check_comodule", "check_module", "check_unit_counit",
                   "counit_solutions", "example54_p1", "example54_p2",
                   "example54_q", "find_bialgebra_counit", "group_algebra",
                   "tensor_product"),
    "rb": ("RBBialgebraVerdict", "RBVerdict", "SearchResult",
           "check_rb_algebra", "check_rb_bialgebra", "check_rb_coalgebra",
           "search_rb_operators"),
    "hopfmod": ("HopfModule", "ProjectionBialgebra", "check_hopf_module",
                "check_hopf_module_algebra", "check_hopf_module_coalgebra",
                "coinvariant_projection", "convolution",
                "hopf_module_from_projection", "pi_operator",
                "projection_bialgebra", "regular_hopf_module",
                "tensor_square_projection", "verify_projection_rb"),
    "ydsmash": ("CoquasitriangularForm", "YDModuleCoalgebra", "adjoint_yd",
                "check_coquasitriangular", "check_yd_coalgebra",
                "check_yd_module", "coquasitriangular_form",
                "projection_left_closed_form", "projection_left_sigma_form",
                "projection_right_closed_form", "smash_coproduct",
                "smash_hopf_module_left", "smash_hopf_module_right",
                "trivial_yd", "yd_action_from_form",
                "yd_from_comodule_coalgebra"),
    "prelie": ("PreLieCoalgebra", "check_pre_lie", "prelie_from_rb_minus1",
               "prelie_from_rb_zero", "twisted_comul"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "fileformat", "record"}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    elif name in _SUBMODULES:
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
