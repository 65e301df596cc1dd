"""Central numeric defaults and tolerances.

Every tolerance used by the library lives here so that the accuracy
contract of the package can be audited (and tightened) in one place.
"""

# Truncation order used when callers do not ask for a specific jet length.
# a2/a3 only need order >= 4; larger orders support round-trip identities.
DEFAULT_ORDER = 12

# Largest truncation order the CLI accepts.  Every member a command builds
# comes from an atomic measure, at O(atoms * order) Python work.  On a 2-vCPU
# Xeon with Python 3.11, a sampled member (built in a chunk of 256) costs
# about 0.02 ms at order 12, 0.09 ms at 128 and 0.7 ms at 1024 with
# `--atoms-max 1`, and 0.03, 0.17 and 1.4 ms with the default 6.  A lone
# construct_member (a batch of one) with 1 atom takes about 0.04 ms at
# order 12, 0.3 ms at 128, 2.3 ms at 1024 and 9 ms at 4096.  The series form,
# construct_member(params, to_series(rep, N)), runs the O(N^2) exp instead:
# about 43 ms at 1024 and 0.75 s at 4096.
MAX_ORDER = 1024

# Largest atom count `sample --atoms-max` accepts.  The running atom sums cost
# O(atoms) per coefficient: with `--atoms-max 64` a sampled member costs
# about 0.14 ms at order 12, 1.3 ms at 128 and 10 ms at 1024 on the same
# machine.  A lone member pays two list passes per atom and coefficient: with
# 64 atoms about 1 ms at order 12, 8 ms at 128 and 73 ms at 1024 (6 atoms:
# 0.1, 1.1 and 7.5 ms).
MAX_ATOMS = 64

# Series-level identities (ring axioms, termwise comparisons).
SERIES_ATOL = 1e-12

# exp/log and complex-power round trips accumulate a little more noise.
ROUNDTRIP_ATOL = 1e-11

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

# Extremal attainment agreement between series construction and bound value.
ATTAINMENT_ATOL = 1e-9

# Endpoint tolerance of the exact optimizer against the closed forms, and
# of its minimizing c against the analytic c*.
GRID_TOL = 1e-12

# Slack allowed when random class members are tested against a BoundInterval.
SAMPLE_SLACK = 1e-9
