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
                      bound_d1, bound_d2, case_boundary_check, construct_member,
                      functional_value, grid_optimize, membership_check, sample_no_violation,
                      two_atom_parameters)
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
    CaseBoundaryReport: lambda: case_boundary_check(PARAMS),
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
    assert ExtremalDescriptor(params=PARAMS, name=ExtremalName.K) == (ExtremalName.K, PARAMS)
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
    (ClassParams.ozaki(0.5), {"lam": math.nextafter(1.0, 2.0)}),
    (ClassParams.ozaki(0.5), {"alpha": 0.1}),
    (ClassParams.ozaki(0.5), {"gamma": 0.1}),
    *((PARAMS, {"family": family}) for family in ("elliptic", "SPIRALLIKE", None)),
    (REP, {"weights": (0.5, 0.6)}),
    (REP, {"weights": (0.0, 1.0)}),
    (REP, {"weights": (1.0,)}),
    (REP, {"points": (1j, 0.5)}),
    (REP, {"weights": (), "points": ()}),
    (_F_SPIRAL, {"name": ExtremalName.L}),
    (bound_d2(PARAMS), {"lower": 1.0}),
]


@pytest.mark.parametrize("record, changes", INVALID,
                         ids=[f"{type(r).__name__}-{sorted(c)}" for r, c in INVALID])
def test_checks_run_on_construction_and_replace(record, changes):
    match = "unknown family" if "family" in changes else None
    with pytest.raises(DomainError, match=match):
        type(record)(**{**record._asdict(), **changes})
    with pytest.raises(DomainError, match=match):
        record._replace(**changes)


def test_enum_fields_store_the_member():
    # A field given by its value stores the enum member, also through
    # _replace, so checks that compare with `is` see the functional named.
    spec = FunctionalSpec(PARAMS, "d1")
    assert spec.which is Which.D1
    assert SPEC._replace(which="d1").which is Which.D1
    assert spec == FunctionalSpec(PARAMS, Which.D1)
    assert grid_optimize(spec).analytic == bound_d1(PARAMS)
    assert functional_value(spec, 2.0, 0j) == functional_value(FunctionalSpec(PARAMS, Which.D1),
                                                               2.0, 0j)
    desc = ExtremalDescriptor("F_SPIRAL", PARAMS)
    assert desc.name is ExtremalName.F_SPIRAL
    assert desc.name.value == "F_SPIRAL"
    assert _F_SPIRAL._replace(name="F_SPIRAL").name is ExtremalName.F_SPIRAL


UNKNOWN = {
    "functional": lambda: FunctionalSpec(PARAMS, "d3"),
    "functional-by-name": lambda: SPEC._replace(which="D1"),
    "extremal": lambda: ExtremalDescriptor("NOPE", PARAMS),
    "extremal-replace": lambda: _F_SPIRAL._replace(name="k"),
    "no-atoms": lambda: AtomicHerglotzRep([], []),
}


@pytest.mark.parametrize("make", UNKNOWN.values(), ids=UNKNOWN)
def test_unknown_enum_value_and_empty_measure_rejected(make):
    with pytest.raises(DomainError):
        make()


NOT_CLASS_PARAMS = {
    "functional-str": lambda: FunctionalSpec("spirallike", "d1"),
    "functional-tuple": lambda: FunctionalSpec(tuple(PARAMS), Which.D1),
    "functional-replace": lambda: SPEC._replace(params=tuple(PARAMS)),
    "extremal-str": lambda: ExtremalDescriptor("K", "spirallike"),
    "extremal-tuple": lambda: ExtremalDescriptor(ExtremalName.F_SPIRAL, tuple(PARAMS)),
    "extremal-replace": lambda: _F_SPIRAL._replace(params=tuple(PARAMS)),
}


@pytest.mark.parametrize("make", NOT_CLASS_PARAMS.values(), ids=NOT_CLASS_PARAMS)
def test_params_must_be_class_params(make):
    # A record that holds a class checks it, as it checks a functional's or
    # an extremal's name.
    with pytest.raises(DomainError, match="params must be a ClassParams"):
        make()


# Every other public function that takes a class, given ``params`` in its place.
TAKES_CLASS = {
    "bound_d1": bound_d1,
    "bound_d2": bound_d2,
    "two_atom_parameters": two_atom_parameters,
    "case_boundary_check": case_boundary_check,
    "sample_no_violation": lambda params: sample_no_violation(params, n_samples=1),
    "construct_member": lambda params: construct_member(params, REP, 4),
    "membership_check": lambda params: membership_check(construct_member(PARAMS, REP, 4), params),
}
NOT_A_CLASS = {"fields": tuple(PARAMS), "family": "spirallike", "none": None}


@pytest.mark.parametrize("params", NOT_A_CLASS.values(), ids=NOT_A_CLASS)
@pytest.mark.parametrize("call", TAKES_CLASS.values(), ids=TAKES_CLASS)
def test_functions_that_take_a_class_reject_what_is_not_one(call, params):
    # The records' check, not an AttributeError from reading params.family.
    with pytest.raises(DomainError, match="params must be a ClassParams"):
        call(params)
