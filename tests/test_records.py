##
## The record contract and copying: the package's records are slotted,
## immutable and compared field by field, as frozen dataclasses are; every
## slotted value type refuses writes through the one base errors._Frozen;
## every public value survives copy.deepcopy and pickle
##

import copy
import importlib
import pickle
import pkgutil

import pytest

from sl2factor import (SL2, Certificate, ElementaryFactor, ExactComplex,
                       FiberCompletion, FlowResult, InteriorPoint,
                       LoopSamples, MultiPoly, PhiTemplate, TangentFrame,
                       VectorFieldSpec, Word, cohn_holo_5, factor_constant,
                       interior_sample, v_field_spec)
from sl2factor.errors import _Frozen

EC = ExactComplex
X, Y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
# eighth turns around 0
LOOP = (1 + 0j, 1 + 1j, 1j, -1 + 1j, -1 + 0j, -1 - 1j, -1j, 1 - 1j)

# each record class with the fields of one instance, in signature order
RECORDS = [
    (ElementaryFactor, {"side": "L", "entry": EC(1, 2)}),
    (Word, {"factors": (ElementaryFactor("U", EC(3)),
                        ElementaryFactor("L", 0.5j))}),
    (PhiTemplate, {"n": 5}),
    (TangentFrame, {"columns": ((EC(1), EC(0), EC(-2)),), "exact": True}),
    (VectorFieldSpec, {"p": X * Y + 1, "k": 0, "l": 1}),
    (FlowResult, {"end": (0.5j, 1.5), "p_start": 1j, "p_end": 1j}),
    (InteriorPoint, {"n": 4, "stratum": "Q1", "level": EC(2),
                     "values": (EC(1), EC(1))}),
    (FiberCompletion, {"n": 4, "branch": "generic",
                       "point": (EC(0), EC(1), EC(1), EC(1)),
                       "target": SL2(EC(2), EC(3), EC(1), EC(2)),
                       "verified": True, "eq4_residual": EC(0),
                       "z1_free": None}),
    (LoopSamples, {"values": LOOP}),
    (Certificate, {"claim": "c", "required_degree": 2, "achieved": (0, 1),
                   "verdict": True, "evidence": {"method": "symbolic"}}),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_record_is_immutable(cls, fields):
    r = cls(**fields)
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert [getattr(r, f) for f in fields] == list(fields.values())


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_records_with_equal_fields_are_equal(cls, fields):
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert by_keyword is not by_position
    assert by_keyword == by_position
    values = tuple(fields.values())
    if _hashable(values):
        assert hash(by_keyword) == hash(by_position) == hash(values)
    else:  # like a frozen dataclass with an unhashable field
        with pytest.raises(TypeError):
            hash(by_keyword)


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_record_never_equals_one_of_another_class(cls, fields):
    sub = type("Sub", (cls,), {"__slots__": ()})
    r = cls(**fields)
    assert r != sub(**fields) and sub(**fields) != r
    assert r != tuple(fields.values())
    others = [other(**kw) for other, kw in RECORDS if other is not cls]
    assert all(r != o for o in others)


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_record_repr_has_the_dataclass_form(cls, fields):
    shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


def _pending_product() -> MultiPoly:
    product = (X + 1) * (X - Y + 2)
    assert MultiPoly._products.__get__(product)  # deferred, no terms yet
    return product


# makers of the non-record value types, each built afresh per call
FROZEN = [
    pytest.param(lambda: EC(3, -5) / 7, id="ExactComplex"),
    pytest.param(lambda: SL2(EC(2), EC(3), EC(1), EC(2)), id="SL2-exact"),
    pytest.param(lambda: SL2(2.0, 3.0, 1.0, 2.0), id="SL2-float"),
    pytest.param(lambda: X * Y - EC(1, 1), id="MultiPoly"),
    pytest.param(_pending_product, id="MultiPoly-pending"),
]
UNSET = object()


def _slot_contents(value) -> dict:
    """Each slot's object, read through its descriptor, so a pending
    product's unset terms read as UNSET and are not built."""
    out = {}
    for name in type(value).__slots__:
        try:
            out[name] = getattr(type(value), name).__get__(value)
        except AttributeError:
            out[name] = UNSET
    return out


@pytest.mark.parametrize("make", FROZEN)
def test_value_types_refuse_every_write(make):
    value = make()
    before = _slot_contents(value)
    for name in (*before, "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, None)
    for name in before:
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, name)
    after = _slot_contents(value)
    assert all(after[name] is slot for name, slot in before.items())
    assert value == make()  # a pending product builds its terms here


def test_every_slotted_class_derives_from_frozen():
    import sl2factor
    slotted = []
    for info in pkgutil.iter_modules(sl2factor.__path__):
        module = importlib.import_module(f"sl2factor.{info.name}")
        slotted += [obj for obj in vars(module).values()
                    if isinstance(obj, type)
                    and obj.__module__ == module.__name__
                    and "__slots__" in vars(obj)]
    names = {cls.__name__ for cls in slotted}
    assert {"_Frozen", "_Record", "ExactComplex", "MultiPoly", "SL2",
            *(cls.__name__ for cls, _ in RECORDS)} <= names
    assert [cls for cls in slotted if not issubclass(cls, _Frozen)] == []


def test_loop_increments_stay_out_of_the_fields():
    loop = LoopSamples([1, 1 + 1j, 1j, -1 + 1j, -1, -1 - 1j, -1j, 1 - 1j])
    assert len(loop.increments) == 8
    assert "increments" not in repr(loop)
    assert loop == LoopSamples(LOOP)


def test_field_spec_keeps_its_cached_polynomials():
    spec = VectorFieldSpec(X * Y + 1, 0, 1)
    assert spec.pk is spec.pk and spec.pk == Y
    assert spec == VectorFieldSpec(X * Y + 1, 0, 1)


def _values():
    """One value of every public value type, exact entries included."""
    spec = v_field_spec(6, 2, 4)
    yield EC(3, -5) / 7
    yield X * Y - EC(1, 1)
    yield SL2(EC(2), EC(3), EC(1), EC(2))
    yield SL2(2.0, 3.0, 1.0, 2.0)
    yield from (cls(**fields) for cls, fields in RECORDS)
    yield spec
    yield interior_sample(6, EC(2), "Q1", seed=1)
    yield factor_constant(SL2(EC(2), EC(3, 1), EC(1), EC(2, "1/2")))
    yield cohn_holo_5(0.5, 1.25)


@pytest.mark.parametrize("value", list(_values()),
                         ids=lambda v: type(v).__name__)
def test_deep_copy_and_pickle_round_trip(value):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value
