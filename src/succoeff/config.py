"""Central numeric defaults and tolerances.

Every tolerance used by the library lives here so that the accuracy
contract of the package can be audited (and tightened) in one place.
"""

# Truncation order used when callers do not ask for a specific jet length.
# a2/a3 only need order >= 4; larger orders support round-trip identities.
DEFAULT_ORDER = 12

# Largest truncation order the CLI accepts.  Every member a command builds
# comes from an atomic measure, at O(atoms * order) Python work: one
# construct_member with 1 atom takes about 0.03 ms at order 12, 0.2 ms at 128,
# 2 ms at 1024 and 9 ms at 4096 on a 2-vCPU Xeon with Python 3.11.  The
# series form, construct_member(params, to_series(rep, N)), runs the O(N^2)
# exp instead: about 43 ms at 1024 and 0.75 s at 4096.
MAX_ORDER = 1024

# Largest atom count `sample --atoms-max` accepts.  The running atom sums cost
# O(atoms) per coefficient: a member with 64 atoms costs about 0.2 ms at
# order 12, 1.7 ms at 128 and 12 ms at 1024 on the same machine (6 atoms:
# 0.05, 0.4 and 3.3 ms).
MAX_ATOMS = 64

# Series-level identities (ring axioms, termwise comparisons).
SERIES_ATOL = 1e-12

# exp/log and complex-power round trips accumulate a little more noise.
ROUNDTRIP_ATOL = 1e-11

# Structural invariants of atomic Herglotz representations.
REP_ATOL = 1e-12

# c values within this distance of 2 are treated as the single-atom case.
DEGENERATE_C_TOL = 1e-12

# Margin below which a sampled membership functional counts as a violation.
MEMBERSHIP_TOL = -1e-9

# Default sampling grid for membership checks.  Truncation error makes the
# check a necessary-style test near |z| -> 1; see families.membership_check.
MEMBERSHIP_RADII = (0.3, 0.6, 0.9)
MEMBERSHIP_ANGLES = 64

# Extremal attainment agreement between series construction and bound value.
ATTAINMENT_ATOL = 1e-9

# Endpoint tolerance of the exact optimizer against the closed forms, and
# of its minimizing c against the analytic c*.
GRID_TOL = 1e-12

# Slack allowed when random class members are tested against a BoundInterval.
SAMPLE_SLACK = 1e-9
