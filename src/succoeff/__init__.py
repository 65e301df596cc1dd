"""Sharp successive-coefficient bounds for three classes of univalent-type functions.

The package constructs class members from Carathéodory data, evaluates the
closed-form sharp bounds for |a2|-|a1| and |a3|-|a2| together with their
extremal functions, and re-derives every sharp constant by exact
optimization over the coefficient parametrization, eliminating the disk
variable by the triangle inequality.
"""

from .bounds import (
    BoundInterval,
    ExtremalDescriptor,
    ExtremalName,
    Which,
    attainment,
    bound_d1,
    bound_d2,
    extremal_series,
    extremal_targets,
    t_factor,
    two_atom_parameters,
)
from .caratheodory import (
    AtomicHerglotzRep,
    LZParams,
    lz_c2,
    lz_c3,
    moments,
    random_rep,
    solve_two_atom,
    to_series,
)
from .errors import (
    DegenerateError,
    DomainError,
    EvaluationError,
    InfeasibleError,
    OrderMismatchError,
    SuccoeffError,
)
from .families import (
    ClassParams,
    CoeffTriple,
    Family,
    MembershipReport,
    alexander_inverse,
    coeffs_from_c,
    coeffs_from_series,
    construct_member,
    gclass_from_p,
    membership_check,
    mu,
    spirallike_from_p,
)
from .series import TruncatedSeries
from .verify import (
    CaseBoundaryReport,
    FunctionalSpec,
    SampleReport,
    VerifyReport,
    case_boundary_check,
    functional_value,
    grid_optimize,
    sample_no_violation,
)

__version__ = "0.1.0"
