"""Central numeric defaults and tolerances.

Every tolerance used by the library lives here so that the accuracy
contract of the package can be audited in one place.  Every roundoff
check a command makes, on its verdicts and on the measures, disk points
and series it builds, goes through :func:`gate`, so ``GATE_ULPS`` is the
one roundoff setting.  The absolute thresholds below serve only the
library's ``membership_check``.
"""

# The default and the largest value of `sample --order`.  They serve only
# that flag, which the command line checks and echoes in the `order`
# column: no command builds a jet beyond g_2, so no other output byte and
# no cost depends on the order.  The library's construct_member takes its
# own order.
DEFAULT_ORDER = 12
MAX_ORDER = 1024

# The default and the largest atom count of a sampled member, for
# `sample --atoms-max` and sample_no_violation.  A sampled member costs
# O(atoms): on a noisy 2-vCPU Xeon with Python 3.11, in-process, 2.9-4.5 us
# at 1 atom, 5.0-7.0 us at the default 6 and 23-38 us at 64.
DEFAULT_ATOMS = 6
MAX_ATOMS = 64

# Most points a `sweep` lattice may have: about 25 s and 0.25 GB on a 2-vCPU Xeon.
MAX_LATTICE = 100_000

# |f| or |f'| below this at a membership sample point counts as a zero.
VANISHING_ATOL = 1e-13

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
# eps * max(1, |scale|), eps = 2**-52.  Over 91,230 seeded classes of the
# three families, their box edges and their branch points, the worst gap
# was 4.5 units (an extremal's attainment); tests/test_verdict_gates.py
# holds every gap to 8, half the gate.  The same gate(1.0) bounds a
# measure's weights and ||eps| - 1|, |x| <= 1 of a disk point and the
# constant term that exp (0) and the kernel integral (1) require; a
# measure of n atoms may miss a weight sum of 1 by n * gate(1.0).  See
# "Verdict gates" in the README.
GATE_ULPS = 16


def gate(scale: float) -> float:
    """The largest roundoff gap a verdict forgives between two computations of ``scale``."""
    return GATE_ULPS * 2.0**-52 * max(1.0, abs(scale))
