"""Turning decoded sensor readings into observation subgraphs.

A reading becomes six triples sharing one minted observation IRI:
type, observed property, numeric result, unit, observing device, and
timestamp.  Values are normalized to the registered canonical unit first,
with exact rational arithmetic so fixture values stay bit-stable.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    Iri,
    Literal,
    MalformedIri,
    Triple,
    XSD_LONG,
    data_lines,
    make_iri,
    make_numeric,
)

RDF_TYPE = make_iri("rdf:type")
SSN_OBSERVATION = make_iri("ssn:Observation")
SSN_OBSERVED_PROPERTY = make_iri("ssn:observedProperty")
SSN_OBSERVATION_RESULT = make_iri("ssn:observationResult")
SSN_OBSERVED_BY = make_iri("ssn:observedBy")
SSN_OBSERVED_AT = make_iri("ssn:observedAt")
M3_HAS_UNIT = make_iri("m3:hasUnit")
#: the largest timestamp an xsd:long literal holds
XSD_LONG_MAX = 2**63 - 1

UNIT_CELSIUS = make_iri("unit:DegreeCelsius")
UNIT_FAHRENHEIT = make_iri("unit:DegreeFahrenheit")
UNIT_MMHG = make_iri("unit:MmHg")


def _same(v: Fraction) -> Fraction:
    return v


#: Closed conversion table: (unit code, target unit IRI) -> exact function.
_CONVERSIONS: dict[tuple[str, Iri], object] = {
    ("cel", UNIT_CELSIUS): _same,
    ("far", UNIT_CELSIUS): lambda v: (v - 32) * 5 / 9,
    ("cel", UNIT_FAHRENHEIT): lambda v: v * 9 / 5 + 32,
    ("far", UNIT_FAHRENHEIT): _same,
    ("mmhg", UNIT_MMHG): _same,
}

_KNOWN_CODES = frozenset(code for code, _ in _CONVERSIONS)
_KNOWN_UNITS = frozenset(unit for _, unit in _CONVERSIONS)


class InvalidReading(ValueError):
    """Reading fields violate their constraints."""


class InvalidRegistration(ValueError):
    """A registration carries a malformed IRI or empty device id."""


class UnknownUnit(ValueError):
    """Unit code or unit IRI outside the conversion table."""


class UnsupportedConversion(ValueError):
    """Both units are known but no conversion exists between them."""


class UnregisteredDevice(KeyError):
    """The reading's device id has no registration."""


@dataclass(frozen=True)
class RawReading:
    """One decoded sensor message."""

    device_id: str
    sensor_kind: str
    value: float
    unit: str
    timestamp: int  # epoch milliseconds

    def __post_init__(self) -> None:
        if not self.device_id or not self.sensor_kind:
            raise InvalidReading("empty device_id or sensor_kind")
        if not isinstance(self.value, (int, float)) or isinstance(self.value, bool):
            raise InvalidReading(f"non-numeric value {self.value!r}")
        if not math.isfinite(self.value):
            raise InvalidReading("non-finite value")
        if self.timestamp < 0:
            raise InvalidReading("negative timestamp")
        if self.timestamp > XSD_LONG_MAX:
            raise InvalidReading("timestamp beyond xsd:long")


@dataclass(frozen=True)
class SensorRegistration:
    device_id: str
    observed_property: Iri
    feature_of_interest: Iri
    canonical_unit: Iri

    def __post_init__(self) -> None:
        if not self.device_id:
            raise InvalidRegistration("empty device_id")

    @classmethod
    def from_strings(
        cls, device_id: str, observed_property: str, feature_of_interest: str, canonical_unit: str
    ) -> "SensorRegistration":
        try:
            return cls(
                device_id,
                make_iri(observed_property),
                make_iri(feature_of_interest),
                make_iri(canonical_unit),
            )
        except MalformedIri as exc:
            raise InvalidRegistration(str(exc)) from None


@dataclass(frozen=True)
class ObservationGraph:
    """Six triples sharing the minted observation IRI as subject."""

    observation_iri: Iri
    triples: tuple[Triple, ...]

    def __post_init__(self) -> None:
        if len(self.triples) != 6:
            raise InvalidReading(f"expected 6 triples, got {len(self.triples)}")
        for t in self.triples:
            if t.subject != self.observation_iri:
                raise InvalidReading("observation triples must share one subject")


def normalize_unit(value: float, from_code: str, to_unit: Iri) -> float:
    """Convert a value between units, exactly per the closed table.

    Arithmetic runs on the decimal meaning of the value (its shortest
    repr), so e.g. 102.2 far converts to exactly 39 cel.
    """
    if from_code not in _KNOWN_CODES or to_unit not in _KNOWN_UNITS:
        raise UnknownUnit(f"unknown unit {from_code!r} or {to_unit.value!r}")
    fn = _CONVERSIONS.get((from_code, to_unit))
    if fn is None:
        raise UnsupportedConversion(f"no conversion {from_code!r} -> {to_unit.value!r}")
    # an identity conversion of a finite float or int gives back its float,
    # as the exact path does (every such float is its shortest repr's
    # nearest float); + 0.0 turns -0.0 into 0.0, as Fraction does
    if fn is _same and type(value) in (float, int) and -sys.float_info.max <= value <= sys.float_info.max:
        return float(value) + 0.0
    exact = fn(Fraction(str(value)))
    return float(exact)


class SensorRegistry:
    """device_id -> registration; re-registration replaces the entry."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._regs: dict[str, SensorRegistration] = {}

    def register(self, reg: SensorRegistration) -> None:
        with self._lock:
            self._regs[reg.device_id] = reg

    def lookup(self, device_id: str) -> SensorRegistration | None:
        with self._lock:
            return self._regs.get(device_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._regs)

    def load_csv(self, text: str) -> int:
        """Load registrations, one CSV line each:
        device_id,observed_property,feature_of_interest,canonical_unit.

        Blank lines and '#' comments are skipped.  Returns the count loaded.
        """
        count = 0
        for lineno, line in data_lines(text):
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != 4:
                raise InvalidRegistration(f"line {lineno}: expected 4 fields")
            try:
                self.register(SensorRegistration.from_strings(*fields))
            except InvalidRegistration as exc:
                raise InvalidRegistration(f"line {lineno}: {exc}") from None
            count += 1
        return count


class Annotator:
    """Mints observation IRIs and builds the six-triple observation shape.

    Sequence numbers are per device, start at 1 and strictly increase, so
    replays into a fresh annotator reproduce identical IRIs.
    """

    def __init__(self, registry: SensorRegistry):
        self.registry = registry
        self._lock = threading.Lock()
        self._sequences: dict[str, int] = {}

    def annotate(self, reading: RawReading) -> ObservationGraph:
        """Observation subgraph for the reading, value in the canonical unit.

        Raises UnregisteredDevice / UnknownUnit / UnsupportedConversion
        before any sequence number is consumed.
        """
        reg = self.registry.lookup(reading.device_id)
        if reg is None:
            raise UnregisteredDevice(reading.device_id)
        value = normalize_unit(reading.value, reading.unit, reg.canonical_unit)
        with self._lock:
            seq = self._sequences.get(reading.device_id, 0) + 1
            self._sequences[reading.device_id] = seq
        obs = Iri(f"urn:obs:{reading.device_id}:{seq}")
        device = Iri(f"urn:dev:{reading.device_id}")
        triples = (
            Triple(obs, RDF_TYPE, SSN_OBSERVATION),
            Triple(obs, SSN_OBSERVED_PROPERTY, reg.observed_property),
            Triple(obs, SSN_OBSERVATION_RESULT, make_numeric(value)),
            Triple(obs, M3_HAS_UNIT, reg.canonical_unit),
            Triple(obs, SSN_OBSERVED_BY, device),
            Triple(obs, SSN_OBSERVED_AT, Literal(str(reading.timestamp), XSD_LONG)),
        )
        return ObservationGraph(obs, triples)
