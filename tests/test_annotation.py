from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from knotgate.annotation import (
    Annotator,
    InvalidReading,
    InvalidRegistration,
    M3_HAS_UNIT,
    RawReading,
    SSN_OBSERVATION_RESULT,
    SSN_OBSERVED_BY,
    SensorRegistration,
    SensorRegistry,
    UNIT_CELSIUS,
    UNIT_FAHRENHEIT,
    UNIT_MMHG,
    UnknownUnit,
    UnregisteredDevice,
    UnsupportedConversion,
    normalize_unit,
)
from knotgate.model import Iri, Literal, XSD_DOUBLE, make_iri


def fahrenheit_to_celsius_oracle(value: str) -> float:
    # independent reference: exact decimal evaluation of (v - 32) * 5/9
    return float((Fraction(Decimal(value)) - 32) * 5 / 9)


@pytest.fixture
def registry() -> SensorRegistry:
    reg = SensorRegistry()
    reg.register(
        SensorRegistration.from_strings(
            "thermo1", "m3:BodyTemperature", "m3:Patient", "unit:DegreeCelsius"
        )
    )
    return reg


def test_register_and_lookup(registry):
    found = registry.lookup("thermo1")
    assert found is not None
    assert found.observed_property == make_iri("m3:BodyTemperature")
    assert found.canonical_unit == UNIT_CELSIUS


def test_reregistration_replaces(registry):
    registry.register(
        SensorRegistration.from_strings(
            "thermo1", "m3:AmbientTemperature", "m3:Room", "unit:DegreeCelsius"
        )
    )
    assert registry.lookup("thermo1").observed_property == make_iri("m3:AmbientTemperature")


def test_registration_rejects_bad_iri():
    with pytest.raises(InvalidRegistration):
        SensorRegistration.from_strings("x", "not an iri", "m3:Room", "unit:DegreeCelsius")


def test_registry_csv_loader():
    registry = SensorRegistry()
    text = (
        "# comment\n"
        "thermo1,m3:BodyTemperature,m3:Patient,unit:DegreeCelsius\n"
        "bp1,m3:SystolicBloodPressure,m3:Patient,unit:MmHg\n"
    )
    assert registry.load_csv(text) == 2
    assert registry.lookup("bp1").canonical_unit == UNIT_MMHG


def test_registry_csv_loader_reports_line():
    registry = SensorRegistry()
    with pytest.raises(InvalidRegistration, match="line 2"):
        registry.load_csv("a,m3:X,m3:Y,unit:MmHg\nbad line\n")


def test_normalize_identity():
    assert normalize_unit(38, "cel", UNIT_CELSIUS) == 38
    assert normalize_unit(120, "mmhg", UNIT_MMHG) == 120


def _outcome(convert) -> tuple:
    try:
        value = convert()
    except Exception as exc:  # the exception class is part of the contract
        return ("raises", type(exc))
    return ("returns", type(value), repr(value))  # repr tells -0.0 from 0.0


@given(
    value=st.one_of(
        st.floats(),
        st.integers(),
        st.integers(min_value=-(2**1030), max_value=2**1030),  # around the float range's ends
        st.sampled_from([True, 2**1024 - 2**970, 2**1024 - 2**970 - 1, 10**5000]),
    )
)
@example(value=-0.0)
@settings(max_examples=500)
def test_identity_conversions_match_the_exact_path(value):
    # reference: the exact path every conversion took before identities had a fast path
    expected = _outcome(lambda: float(Fraction(str(value))))
    for code, unit in (("cel", UNIT_CELSIUS), ("far", UNIT_FAHRENHEIT), ("mmhg", UNIT_MMHG)):
        assert _outcome(lambda: normalize_unit(value, code, unit)) == expected


def test_normalize_fahrenheit_to_celsius():
    assert normalize_unit(98.6, "far", UNIT_CELSIUS) == 37.0
    assert normalize_unit(102.2, "far", UNIT_CELSIUS) == 39.0  # (102.2-32)*5/9


def test_normalize_cross_dimension_rejected():
    with pytest.raises(UnsupportedConversion):
        normalize_unit(10, "cel", UNIT_MMHG)


def test_normalize_unknown_unit():
    with pytest.raises(UnknownUnit):
        normalize_unit(10, "kelvin", UNIT_CELSIUS)
    with pytest.raises(UnknownUnit):
        normalize_unit(10, "cel", Iri("urn:knotgate:unit#Lumen"))


@given(st.floats(min_value=-200, max_value=400, allow_nan=False))
def test_fahrenheit_round_trip(value):
    rounded = float(f"{value:.6g}")
    celsius = normalize_unit(rounded, "far", UNIT_CELSIUS)
    back = normalize_unit(celsius, "cel", UNIT_FAHRENHEIT)
    assert back == pytest.approx(rounded, rel=1e-9)


@given(st.decimals(min_value=-200, max_value=400, places=2))
def test_fahrenheit_matches_decimal_oracle(value):
    got = normalize_unit(float(value), "far", UNIT_CELSIUS)
    assert got == pytest.approx(fahrenheit_to_celsius_oracle(str(float(value))), rel=0, abs=0)


def test_reading_invariants():
    with pytest.raises(InvalidReading):
        RawReading("", "temperature", 1.0, "cel", 0)
    with pytest.raises(InvalidReading):
        RawReading("d", "", 1.0, "cel", 0)
    with pytest.raises(InvalidReading):
        RawReading("d", "t", float("nan"), "cel", 0)
    with pytest.raises(InvalidReading):
        RawReading("d", "t", 1.0, "cel", -5)


def test_annotate_six_triple_shape(registry):
    annotator = Annotator(registry)
    graph = annotator.annotate(RawReading("thermo1", "temperature", 39.0, "cel", 1700000000000))
    assert graph.observation_iri == Iri("urn:obs:thermo1:1")
    assert len(graph.triples) == 6
    assert all(t.subject == graph.observation_iri for t in graph.triples)
    by_pred = {t.predicate: t.object for t in graph.triples}
    assert by_pred[SSN_OBSERVATION_RESULT] == Literal("39", XSD_DOUBLE)
    assert by_pred[SSN_OBSERVED_BY] == Iri("urn:dev:thermo1")
    assert by_pred[M3_HAS_UNIT] == UNIT_CELSIUS


def test_annotate_normalizes_fahrenheit(registry):
    annotator = Annotator(registry)
    graph = annotator.annotate(RawReading("thermo1", "temperature", 102.2, "far", 0))
    by_pred = {t.predicate: t.object for t in graph.triples}
    # via the decimal oracle: (102.2 - 32) * 5/9 == 39
    assert fahrenheit_to_celsius_oracle("102.2") == 39.0
    assert by_pred[SSN_OBSERVATION_RESULT] == Literal("39", XSD_DOUBLE)


def test_annotate_unregistered_device(registry):
    annotator = Annotator(registry)
    with pytest.raises(UnregisteredDevice):
        annotator.annotate(RawReading("ghost", "temperature", 20.0, "cel", 0))


def test_annotate_sequences_strictly_increase(registry):
    annotator = Annotator(registry)
    iris = [
        annotator.annotate(RawReading("thermo1", "temperature", 20.0 + i, "cel", i)).observation_iri
        for i in range(5)
    ]
    assert iris == [Iri(f"urn:obs:thermo1:{i}") for i in range(1, 6)]
    assert len(set(iris)) == 5


def test_annotate_failure_consumes_no_sequence(registry):
    annotator = Annotator(registry)
    with pytest.raises(UnknownUnit):
        annotator.annotate(RawReading("thermo1", "temperature", 20.0, "parsec", 0))
    graph = annotator.annotate(RawReading("thermo1", "temperature", 20.0, "cel", 0))
    assert graph.observation_iri == Iri("urn:obs:thermo1:1")


def test_sequences_are_per_device(registry):
    registry.register(
        SensorRegistration.from_strings("bp1", "m3:SystolicBloodPressure", "m3:Patient", "unit:MmHg")
    )
    annotator = Annotator(registry)
    a = annotator.annotate(RawReading("thermo1", "temperature", 20.0, "cel", 0))
    b = annotator.annotate(RawReading("bp1", "pressure", 120.0, "mmhg", 0))
    assert a.observation_iri == Iri("urn:obs:thermo1:1")
    assert b.observation_iri == Iri("urn:obs:bp1:1")
