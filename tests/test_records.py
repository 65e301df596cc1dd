"""The package's records: value semantics, immutability and their domain checks.

Every record is a frozen value: equal fields give equal records with equal
hashes, no field can be assigned, and the checks a record makes on its
fields also run when it is rebuilt through ``_replace``.
"""

import math

import pytest

import succoeff
from succoeff import (AtomicHerglotzRep, BoundInterval, CaseBoundaryReport, ClassParams,
                      CoeffTriple, DomainError, ExtremalDescriptor, ExtremalName, Family,
                      FunctionalSpec, MembershipReport, SampleReport, VerifyReport, Which,
                      bound_d2, case_boundary_check, grid_optimize, sample_no_violation)
from succoeff.verify import WorstMargin

PARAMS = ClassParams.spirallike(0.25, 0.5)
SPEC = FunctionalSpec(PARAMS, Which.D2)
REP = AtomicHerglotzRep([0.25, 0.75], [1j, -1])

# One valid record of each class, built afresh on every call.
FACTORIES = {
    ClassParams: lambda: ClassParams(Family.CONVEX_GAMMA, 0.3, -0.2),
    CoeffTriple: lambda: CoeffTriple(0.5 + 0.1j, -0.2j),
    MembershipReport: lambda: MembershipReport(True, 0.125, 0.3 + 0.4j),
    AtomicHerglotzRep: lambda: AtomicHerglotzRep([0.5, 0.5], [1, -1]),
    ExtremalDescriptor: lambda: bound_d2(PARAMS).lower_extremal,
    BoundInterval: lambda: bound_d2(PARAMS),
    FunctionalSpec: lambda: FunctionalSpec(ClassParams.ozaki(0.5), Which.D1),
    VerifyReport: lambda: grid_optimize(SPEC),
    WorstMargin: lambda: sample_no_violation(PARAMS, n_samples=20, seed=3).d2_low,
    SampleReport: lambda: sample_no_violation(PARAMS, n_samples=20, seed=3),
    CaseBoundaryReport: lambda: case_boundary_check(SPEC),
}
RECORDS = list(FACTORIES)


def test_every_record_is_covered():
    exported = [getattr(succoeff, name) for name in succoeff.__all__] + [WorstMargin]
    assert {c for c in exported if isinstance(c, type) and hasattr(c, "_fields")} == set(RECORDS)
    assert len(RECORDS) == 11


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestValueSemantics:
    def test_equal_fields_equal_records(self, cls):
        first, second = FACTORIES[cls](), FACTORIES[cls]()
        assert type(first) is cls
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert cls(*first) == first
        assert cls(**first._asdict()) == first

    def test_fields_cannot_be_assigned(self, cls):
        record = FACTORIES[cls]()
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_readable_repr(self, cls):
        record = FACTORIES[cls]()
        first = record._fields[0]
        assert repr(record).startswith(f"{cls.__name__}({first}={getattr(record, first)!r}, ")


def test_defaults_and_keywords():
    assert ClassParams(Family.OZAKI_G, lam=0.5) == ClassParams(Family.OZAKI_G, 0.0, 0.0, 0.5)
    assert ClassParams(family=Family.SPIRALLIKE) == ClassParams.spirallike()
    assert CoeffTriple(a3=2j, a2=1.0) == CoeffTriple(1.0, 2j)
    assert ExtremalDescriptor(ExtremalName.K, PARAMS).rep is None
    assert repr(ClassParams.ozaki(0.5)) == (
        "ClassParams(family=<Family.OZAKI_G: 'ozaki'>, alpha=0.0, gamma=0.0, lam=0.5)")


def test_rep_stores_tuples_of_float_and_complex():
    for rep in (AtomicHerglotzRep([0.5, 0.5], [1, -1]), REP._replace(weights=[0.5, 0.5])):
        assert type(rep.weights) is tuple and type(rep.points) is tuple
        assert [type(w) for w in rep.weights] == [float, float]
        assert [type(e) for e in rep.points] == [complex, complex]
    assert AtomicHerglotzRep([0.5, 0.5], [1, -1]).weights == (0.5, 0.5)


_F_SPIRAL = bound_d2(PARAMS).lower_extremal

# (valid record, field changes that the record's own check rejects)
INVALID = [
    (PARAMS, {"alpha": 1.0}),
    (PARAMS, {"alpha": -0.1}),
    (PARAMS, {"gamma": math.pi / 2}),
    (PARAMS, {"gamma": -math.pi / 2}),
    (PARAMS, {"lam": 0.5}),
    (ClassParams.convex(0.3), {"alpha": 1.5}),
    (ClassParams.ozaki(0.5), {"lam": 0.0}),
    (ClassParams.ozaki(0.5), {"lam": 1.5}),
    (ClassParams.ozaki(0.5), {"alpha": 0.1}),
    (ClassParams.ozaki(0.5), {"gamma": 0.1}),
    (REP, {"weights": (0.5, 0.6)}),
    (REP, {"weights": (0.0, 1.0)}),
    (REP, {"weights": (1.0,)}),
    (REP, {"points": (1j, 0.5)}),
    (REP, {"weights": (), "points": ()}),
    (ExtremalDescriptor(ExtremalName.K, PARAMS), {"rep": REP}),
    (_F_SPIRAL, {"rep": None}),
    (_F_SPIRAL, {"name": ExtremalName.H}),
    (bound_d2(PARAMS), {"lower": 1.0}),
]


@pytest.mark.parametrize("record, changes", INVALID,
                         ids=[f"{type(r).__name__}-{sorted(c)}" for r, c in INVALID])
def test_checks_run_on_construction_and_replace(record, changes):
    with pytest.raises(DomainError):
        type(record)(**{**record._asdict(), **changes})
    with pytest.raises(DomainError):
        record._replace(**changes)
