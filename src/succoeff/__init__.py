"""Sharp successive-coefficient bounds for three classes of univalent-type functions.

The package constructs class members from Carathéodory data, evaluates the
closed-form sharp bounds for |a2|-|a1| and |a3|-|a2| together with their
extremal functions, and re-derives every sharp constant by exact
optimization over the coefficient parametrization, eliminating the disk
variable by the triangle inequality.

Every public name is loaded from its submodule on first access (PEP 562),
so a program that needs one submodule does not import the others.
"""

from importlib import import_module

_EXPORTS = {
    "bounds": (
        "BoundInterval", "ExtremalDescriptor", "ExtremalName", "Which", "bound_d1", "bound_d2",
        "extremal_coeffs", "extremal_measure", "extremal_series", "two_atom_parameters",
    ),
    "caratheodory": ("AtomicHerglotzRep", "moments", "random_rep", "solve_two_atom", "to_series"),
    "errors": (
        "DegenerateError", "DomainError", "EvaluationError", "InfeasibleError", "SuccoeffError",
    ),
    "families": (
        "ClassParams", "CoeffTriple", "Family", "MembershipReport", "construct_member",
        "membership_check", "mu",
    ),
    "series": ("TruncatedSeries",),
    "verify": (
        "CaseBoundaryReport", "FunctionalSpec", "SampleReport", "VerifyReport",
        "case_boundary_check", "functional_value", "grid_optimize", "sample_no_violation",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "config"})

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups do not come back here
    return value


def __dir__():
    return sorted({*globals(), *__all__})
