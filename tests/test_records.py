"""The records: immutable named tuples with the repr, equality, hashing and
input checks they had as frozen dataclasses."""

import pytest

from etacover.certify import CertReport, CheckResult, certify
from etacover.eta import EtaProduct, orbit_product
from etacover.exact import PrimeContext, prime_context
from etacover.subgroups import QuotientStructure, SL2Matrix, quotient_structure

CTX = prime_context(13)

# each record with its repr as the frozen dataclasses printed it
RECORDS = [
    (CTX, "PrimeContext(p=13, g=15, k=1, ell=6)"),
    (SL2Matrix(2, 1, 1, 1), "SL2Matrix(a=2, b=1, c=1, d=1)"),
    (orbit_product(1, CTX),
     "EtaProduct(level=13, exponents={1: 1, 2: 1, 4: 1, 5: 1, 3: 1, 6: 1}, sign=1, label='F_1')"),
    (quotient_structure(CTX),
     "QuotientStructure(index_gamma0_gamma2=1, curve_index_gamma2_gamma1=6, "
     "character_order=2, kernel_matches=True)"),
    (CheckResult("x", "pass"), "CheckResult(name='x', status='pass', reason=None, witness=None)"),
    (certify(2),
     "CertReport(p=2, g=1, k=1, ell=0, Np=1, degree=2, branch='small-p', "
     "checks=(CheckResult(name='kummer-cover', status='pass', reason=None, "
     "witness={'map': 'x -> x^2', 'degree': 2}),), cusps=(), overall=True)"),
]
IDS = [type(r).__name__ for r, _ in RECORDS]
# one valid change of each record
CHANGES = {
    "PrimeContext": {"p": 7}, "SL2Matrix": {"a": 3, "b": 2}, "EtaProduct": {"label": "y"},
    "QuotientStructure": {"character_order": 4}, "CheckResult": {"status": "fail"},
    "CertReport": {"overall": False},
}


def test_the_six_records_are_named_tuples():
    kinds = (PrimeContext, SL2Matrix, EtaProduct, QuotientStructure, CheckResult, CertReport)
    assert [type(r) for r, _ in RECORDS] == list(kinds)
    assert all(issubclass(kind, tuple) and kind._fields for kind in kinds)
    assert CertReport._fields == (
        "p", "g", "k", "ell", "Np", "degree", "branch", "checks", "cusps", "overall"
    )


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_records_print_as_before(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=IDS)
def test_records_are_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=IDS)
def test_records_compare_and_hash_by_their_fields(record):
    same = type(record)(*record)
    assert same == record and same is not record
    assert record._replace(**CHANGES[type(record).__name__]) != record
    try:
        value = hash(tuple(getattr(record, name) for name in record._fields))
    except TypeError:  # a dict field (exponents, witness) makes it unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(same) == value


def test_sl2_matrix_checks_its_determinant_on_every_path():
    for build in (lambda: SL2Matrix(1, 1, 1, 1), lambda: SL2Matrix.identity()._replace(b=1, c=1),
                  lambda: SL2Matrix._make((1, 1, 1, 1))):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == "determinant of (1, 1, 1, 1) is not 1"
    moved = SL2Matrix.identity()._replace(b=5)
    assert type(moved) is SL2Matrix and moved == SL2Matrix.translation(5)


@pytest.mark.parametrize("combine", [
    lambda m: 2 * m, lambda m: m * 2, lambda m: m + m, lambda m: m + (1,),
], ids=["2 * m", "m * 2", "m + m", "m + (1,)"])
def test_sl2_matrix_refuses_tuple_arithmetic(combine):
    # a repeated or concatenated matrix is no matrix: tuple's repeat and
    # concat are replaced, and a product needs two matrices
    m = SL2Matrix(2, 1, 1, 1)
    with pytest.raises(TypeError):
        combine(m)
    assert m * m == SL2Matrix(5, 3, 3, 2)


@pytest.mark.parametrize("fields, message", [
    ({"sign": 2}, "sign must be 1 or -1, not 2"),
    ({"sign": 0}, "sign must be 1 or -1, not 0"),
    ({"exponents": {7: 1}}, "index 7 is not reduced for level 13"),
    ({"exponents": {0: 1}}, "index 0 is not reduced for level 13"),
    ({"exponents": {1: 0}}, "index 1 has exponent 0"),
    ({"level": 4}, "index 3 is not reduced for level 4"),
])
def test_eta_product_checks_its_fields_on_every_path(fields, message):
    good = EtaProduct(13, {1: 1, 3: -2}, 1, "x")
    values = {**good._asdict(), **fields}
    for build in (lambda: EtaProduct(**values), lambda: good._replace(**fields),
                  lambda: EtaProduct._make(values.values())):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
    flipped = good._replace(sign=-1)
    assert type(flipped) is EtaProduct and flipped.sign == -1 and flipped.exponents is good.exponents
