"""The immutable records keep their value semantics.

Each record is a plain `__slots__` class. Equality holds between records
of one class with equal fields, and the hash is the hash of the field
tuple, so set and dict orders and every digest built from them stay as
they were. Fields can be neither assigned nor deleted, the repr is
`Class(field=value, ...)`, pickle and copy round-trip, the fields can be
passed by keyword, and the validating constructors still refuse bad
input.
"""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from azw import (
    DEFAULT_POLICY,
    AbsZetaValue,
    ArcTable,
    AutomorphyCertificate,
    CycleSeriesReport,
    CyclotomicForm,
    ExactPolynomial,
    ExactRationalFunction,
    FunctionalEquationReport,
    Graph,
    IharaRouteReport,
    KonnoSatoReport,
    MultiZetaParams,
    PrecisionPolicy,
    SpectrumReport,
    arc_table,
    automorphic_weight,
    generate,
    verify_ihara_routes,
    verify_ihara_series,
)
from azw.errors import InvalidParameterError, OddPowerError

P = ExactPolynomial.from_coeffs
C3 = generate("cycle", 3)


# (record, its field names in order, its repr)
SAMPLES = [
    (C3, ("n", "edges"), "Graph(n=3, edges=((0, 1), (0, 2), (1, 2)))"),
    (arc_table(C3), ("arcs",),
     "ArcTable(arcs=((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)))"),
    (P([1, Fraction(-1, 2), 3]), ("integer_form",),
     "ExactPolynomial(integer_form=(2, (2, -1, 6)))"),
    (ExactRationalFunction.from_parts(P([1]), P([1, Fraction(1, 2)])), ("num", "den"),
     "ExactRationalFunction(num=ExactPolynomial(integer_form=(1, (2,))), "
     "den=ExactPolynomial(integer_form=(1, (2, 1))))"),
    (KonnoSatoReport(ok=False, lhs=P([1, -2]),
                     rhs=ExactRationalFunction.from_parts(P([1]), P([1, Fraction(1, 2)])),
                     mismatches=((1, Fraction(-2), Fraction(0)),)),
     ("ok", "lhs", "rhs", "mismatches"),
     "KonnoSatoReport(ok=False, lhs=ExactPolynomial(integer_form=(1, (1, -2))), "
     "rhs=ExactRationalFunction(num=ExactPolynomial(integer_form=(1, (2,))), "
     "den=ExactPolynomial(integer_form=(1, (2, 1)))), "
     "mismatches=((1, Fraction(-2, 1), Fraction(0, 1)),))"),
    (verify_ihara_routes(C3),
     ("ok", "min_degree", "routes_equal", "support_equals_edge_matrix", "zeta"),
     "IharaRouteReport(ok=True, min_degree=2, routes_equal=True, "
     "support_equals_edge_matrix=True, zeta=ExactRationalFunction("
     "num=ExactPolynomial(integer_form=(1, (1,))), "
     "den=ExactPolynomial(integer_form=(1, (1, 0, 0, -2, 0, 0, 1)))))"),
    (verify_ihara_series(C3, r_max=3), ("ok", "r_max", "counts", "from_series"),
     "CycleSeriesReport(ok=True, r_max=3, counts=(0, 0, 6), "
     "from_series=(Fraction(0, 1), Fraction(0, 1), Fraction(6, 1)))"),
    (SpectrumReport(entries=((-0.5 + 0.25j, 2), (1 + 0j, 1)), err=(1e-16, 0.0),
                    source="direct"),
     ("entries", "err", "source"),
     "SpectrumReport(entries=(((-0.5+0.25j), 2), ((1+0j), 1)), err=(1e-16, 0.0), "
     "source='direct')"),
    (automorphic_weight(C3), ("sign", "weight", "max_residual"),
     "AutomorphyCertificate(sign=1, weight=-6, max_residual=0.0)"),
    (PrecisionPolicy(), ("target",), "PrecisionPolicy(target=1e-13)"),
    (MultiZetaParams(2, 0.5, (1.0, 2.0)), ("order", "shift", "periods"),
     "MultiZetaParams(order=2, shift=0.5, periods=(1.0, 2.0))"),
    (CyclotomicForm(0, (1,), (2, 2)), ("l", "num_exponents", "den_exponents"),
     "CyclotomicForm(l=0, num_exponents=(1,), den_exponents=(2, 2))"),
    (AbsZetaValue(1 + 2j, "structure", 1e-12), ("value", "method", "error"),
     "AbsZetaValue(value=(1+2j), method='structure', error=1e-12)"),
    (FunctionalEquationReport(n=3, s=0.7, lhs=-0.75 + 0j, rhs=-0.75 + 1e-17j,
                              residual=1e-17, ok=True),
     ("n", "s", "lhs", "rhs", "residual", "ok"),
     "FunctionalEquationReport(n=3, s=0.7, lhs=(-0.75+0j), rhs=(-0.75+1e-17j), "
     "residual=1e-17, ok=True)"),
]

IDS = [type(record).__name__ for record, _, _ in SAMPLES]
RECORDS = {AbsZetaValue, ArcTable, AutomorphyCertificate, CycleSeriesReport, CyclotomicForm,
           ExactPolynomial, ExactRationalFunction, FunctionalEquationReport, Graph,
           IharaRouteReport, KonnoSatoReport, MultiZetaParams, PrecisionPolicy, SpectrumReport}


def test_every_record_has_a_sample():
    assert {type(record) for record, _, _ in SAMPLES} == RECORDS


@pytest.mark.parametrize("record, fields, _repr", SAMPLES, ids=IDS)
def test_equality_and_hash_are_those_of_the_field_tuple(record, fields, _repr):
    values = tuple(getattr(record, name) for name in fields)
    cls = type(record)
    for twin in (cls(*values), cls(**dict(zip(fields, values)))):
        assert twin == record and not twin != record
        assert hash(twin) == hash(record) == hash(values)
    assert record != values and record.__eq__(values) is NotImplemented
    assert len({record, cls(*values)}) == 1


@pytest.mark.parametrize("record, fields, _repr", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, fields, _repr):
    before = repr(record)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == before


@pytest.mark.parametrize("record, _fields, want", SAMPLES, ids=IDS)
def test_repr_is_unchanged(record, _fields, want):
    assert repr(record) == want


@pytest.mark.parametrize("record, fields, _repr", SAMPLES, ids=IDS)
def test_copy_and_pickle_round_trip(record, fields, _repr):
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)
        for name in fields:
            assert getattr(twin, name) == getattr(record, name)


def test_precision_policy_default():
    assert PrecisionPolicy().target == 1e-13
    assert PrecisionPolicy() == PrecisionPolicy(target=1e-13) == DEFAULT_POLICY
    assert PrecisionPolicy(target=1e-10).target == 1e-10


@pytest.mark.parametrize("build, error", [
    (lambda: PrecisionPolicy(target=1e-14), InvalidParameterError),
    (lambda: PrecisionPolicy(1.0), InvalidParameterError),
    (lambda: PrecisionPolicy(math.nan), InvalidParameterError),
    (lambda: MultiZetaParams(4, 1.0, (1.0,) * 4), InvalidParameterError),
    (lambda: MultiZetaParams(order=2, shift=1.0, periods=(1.0,)), InvalidParameterError),
    (lambda: MultiZetaParams(1, 1.0, 2.0), InvalidParameterError),
    (lambda: MultiZetaParams(1, 1.0, (0.0,)), InvalidParameterError),
    (lambda: MultiZetaParams(1, math.nan, (1.0,)), InvalidParameterError),
    (lambda: CyclotomicForm(True, (), (2,)), InvalidParameterError),
    (lambda: CyclotomicForm(l=1, num_exponents=(), den_exponents=(2,)), OddPowerError),
    (lambda: CyclotomicForm(0, 5, (2,)), InvalidParameterError),
    (lambda: CyclotomicForm(0, (), (2, 0)), InvalidParameterError),
], ids=["target-low", "target-one", "target-nan", "order-4", "period-count", "periods-scalar",
        "period-zero", "shift-nan", "l-bool", "l-odd", "exponents-scalar", "exponent-zero"])
def test_validating_constructors_still_refuse(build, error):
    with pytest.raises(error):
        build()
