"""The benchmark's workloads: seeded lists of ``succoeff`` command lines.

Each command is a list of CLI arguments without ``--out``; the runner adds
``--format csv --out PATH``.  The program sees only these arguments.
"""

from __future__ import annotations

import math
import random

# One pass over each command list took about this long on the machine the
# benchmark was tuned on (2 vCPU Xeon, Python 3.11, numpy 2.4, scipy 1.17).
# A run makes round(seconds / NOMINAL_PASS_S) passes, so every run of a
# workload measures the same number of commands.
NOMINAL_PASS_S = {
    "closed-forms": 9.0,
    "verify-lattice": 17.5,
    "random-members": 10.0,
}

ORDER_LOW, MEMBERS_LOW = 12, 4000
ORDER_HIGH, MEMBERS_HIGH = 128, 500


def _point(rng: random.Random, family: str) -> list[str]:
    """Parameter flags for a point drawn over the family's full box."""
    if family == "ozaki":
        return ["--family", family, "--lambda", repr(1.0 - rng.random())]
    alpha = rng.random()
    gamma = rng.uniform(-math.pi / 2, math.pi / 2)
    while not abs(gamma) < math.pi / 2:  # uniform() may return an end point
        gamma = rng.uniform(-math.pi / 2, math.pi / 2)
    return ["--family", family, "--alpha", repr(alpha), f"--gamma={gamma!r}"]


def closed_forms(seed: int) -> list[list[str]]:
    rng = random.Random(f"closed-forms/{seed}")
    cmds = []
    for family in ("spirallike", "convex", "ozaki"):
        for _ in range(2):
            point = _point(rng, family)
            cmds.append(["bounds", *point])
            cmds.append(["extremal", *point])
    return cmds


def verify_lattice(seed: int) -> list[list[str]]:
    rng = random.Random(f"verify-lattice/{seed}")
    lattice = ["--alphas", "0,0.5,3", "--gammas=-pi/3,pi/3,5"]
    lam_lo, lam_hi = rng.uniform(0.05, 0.45), rng.uniform(0.55, 1.0)
    return [
        ["sweep", "--family", "spirallike", *lattice],
        ["sweep", "--family", "convex", *lattice],
        ["sweep", "--family", "ozaki", f"--lambdas={lam_lo!r},{lam_hi!r},5"],
        # T < 5/4 here: the closed-form lower endpoint of d2 is known to be off.
        ["verify", "--family", "convex", "--alpha", "0.5", "--gamma", "1.4"],
        # Five verify commands of eight keep the per-command median inside
        # the cluster of verify latencies rather than on its edge.
        *(["verify", *_point(rng, family)] for family in ("spirallike", "ozaki") * 2),
    ]


def random_members(seed: int) -> list[list[str]]:
    rng = random.Random(f"random-members/{seed}")
    cmds = []
    for order, members in ((ORDER_LOW, MEMBERS_LOW), (ORDER_HIGH, MEMBERS_HIGH)):
        for family in ("spirallike", "convex", "ozaki"):
            cmds.append(["sample", *_point(rng, family), "--order", str(order),
                         "--samples", str(members), "--seed", str(rng.randrange(2**31))])
    return cmds


WORKLOADS = {
    "closed-forms": closed_forms,
    "verify-lattice": verify_lattice,
    "random-members": random_members,
}


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))
