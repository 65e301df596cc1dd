"""Central numeric defaults and tolerances.

Every tolerance used by the library lives here so that the accuracy
contract of the package can be audited in one place.  The absolute
tolerances below check input, apart from ``MEMBERSHIP_TOL`` of the
library-only ``membership_check``.  Every verdict of a command goes
through :func:`gate`, so tightening one means lowering ``GATE_ULPS``.
"""

# The default order that `sample --order` (and sample_no_violation's
# order=) checks and echoes; no verdict depends on it.
DEFAULT_ORDER = 12

# Largest truncation order `sample --order` accepts.  No command builds a jet
# beyond g_2: every command reads a2 and a3 from the atoms in closed form, so
# no command's cost depends on the order.  The library's construct_member
# builds the full order, at O(atoms * order) Python work from a measure and
# O(order^2) from a series.
MAX_ORDER = 1024

# Largest atom count `sample --atoms-max` accepts.  A sampled member costs
# O(atoms): on a 2-vCPU Xeon with Python 3.11, in-process, about 0.0019 ms
# at 1 atom, 0.0032 ms at the default 6 and 0.017 ms at 64.
MAX_ATOMS = 64

# Structural invariants of atomic Herglotz representations, and the slack
# on the constraints their coefficients and disk parameters meet:
# |c_k| <= 2, c in [0, 2] and |x| <= 1.
REP_ATOL = 1e-12

# Normalization f(0) = 0, f'(0) = 1 of a member whose a2, a3 are read off.
NORMALIZATION_ATOL = 1e-12

# The constant term that exp (0) and the kernel integral (1) require.
CONSTANT_TERM_ATOL = 1e-14

# |f| or |f'| below this at a membership sample point counts as a zero.
VANISHING_ATOL = 1e-13

# c values within this distance of 2 are treated as the single-atom case.
DEGENERATE_C_TOL = 1e-12

# Margin below which a sampled membership functional counts as a violation.
MEMBERSHIP_TOL = -1e-9

# Default sampling grid for membership checks.  Truncation error makes the
# check a necessary-style test near |z| -> 1; see families.membership_check.
MEMBERSHIP_RADII = (0.3, 0.6, 0.9)
MEMBERSHIP_ANGLES = 64

# The paper's bounds are sharp: an extremal attains each endpoint exactly.
# So every verdict (optimizer endpoint, extremal attainment, sampled margin,
# case-analysis c*) compares two computations of one quantity, and the
# only slack between them is roundoff: GATE_ULPS units of
# eps * max(1, |scale|), eps = 2**-52.  Over 30,000 random points of the
# three families and 176 points on the edges of their parameter boxes, the
# worst gap seen was 5.5 units (an extremal's attainment); 64 leaves more
# than 10x headroom.  See "Verdict gates" in the README.
GATE_ULPS = 64


def gate(scale: float) -> float:
    """The largest roundoff gap a verdict forgives between two computations of ``scale``."""
    return GATE_ULPS * 2.0**-52 * max(1.0, abs(scale))
