"""Expected outputs, computed from the generated readings alone.

Nothing here calls knotgate: observation IRIs follow the documented
per-device sequence `urn:obs:{device}:{n}`, a state is derived exactly when
a reading lies above its device's threshold, and query rows are sorted by
their serialized terms (`<iri>` for IRIs) as `evaluate_query` documents.
Cells are compared in a normal form: an IRI as its text, a numeric
literal as a Decimal.
"""

from __future__ import annotations

from decimal import Decimal

from gen import BY_ID, M3, Reading

INDICATES = M3 + "indicates"
REMEDIES = (M3 + "ColdCompress", M3 + "GingerTea", M3 + "Hydration")
REMEDIES_COMPACT = sorted("m3:" + r[len(M3):] for r in REMEDIES)
FIXTURE_TRIPLES = len(REMEDIES)  # remedies.nt is the only knowledge pack

THRESHOLD_VALUE = Decimal("39.5")
#: The fixed query mix: name, text.  Costs on the seed at ~10k triples,
#: cheapest first: remedy < fever < state_remedy < threshold.
SHAPES = {
    "remedy": "SELECT ?r WHERE { m3:Fever m3:hasRemedy ?r }",
    "fever": "SELECT ?o WHERE { ?o m3:indicates m3:Fever }",
    "threshold": "SELECT ?o ?v WHERE { ?o ssn:observedProperty m3:BodyTemperature . "
                 f"?o ssn:observationResult ?v }} FILTER ?v > {THRESHOLD_VALUE}",
    "state_remedy": "SELECT ?o ?r WHERE { ?o m3:indicates ?s . ?s m3:hasRemedy ?r } LIMIT 10",
}
#: One cycle of the mix.  Shares 2:3:2:1 put the median inside the fever
#: shape and the 95th percentile inside the threshold shape, so neither
#: sits on the boundary between two shapes.
MIX = ("remedy", "fever", "state_remedy", "fever", "threshold",
       "remedy", "fever", "state_remedy")


def iri_key(iri: str) -> str:
    return f"<{iri}>"


def cell(text: str):
    """Normal form of one serialized cell from the HTTP query API."""
    if text.startswith("<"):
        return text[1:-1]
    if text.startswith('"'):
        return Decimal(text[1:text.index('"', 1)])
    return text


def term_cell(term):
    """Normal form of one in-process result term."""
    if hasattr(term, "value"):
        return term.value
    return Decimal(term.lexical)


class Reference:
    """The readings a store holds, in ingest order, and what they imply."""

    def __init__(self) -> None:
        self._seq = dict.fromkeys(BY_ID, 0)
        self.readings: list[tuple[str, Reading]] = []
        self.per_rule = {d.rule_id: 0 for d in BY_ID.values()}

    def add(self, reading: Reading) -> str:
        """Record a reading; returns the observation IRI it must get."""
        self._seq[reading.device_id] += 1
        iri = f"urn:obs:{reading.device_id}:{self._seq[reading.device_id]}"
        self.readings.append((iri, reading))
        if reading.above:
            self.per_rule[reading.device.rule_id] += 1
        return iri

    def store_size(self) -> int:
        return 6 * len(self.readings) + sum(self.per_rule.values()) + FIXTURE_TRIPLES

    @staticmethod
    def derived(iri: str, reading: Reading) -> list[tuple[str, str, str]]:
        """(subject, predicate, object) IRIs an ingest of this reading derives."""
        return [(iri, INDICATES, reading.device.state)] if reading.above else []

    @staticmethod
    def derived_lines(iri: str, reading: Reading) -> list[str]:
        return [f"<{s}> <{p}> <{o}> ." for s, p, o in Reference.derived(iri, reading)]

    def rows(self, shape: str) -> list[tuple]:
        fevers = [iri for iri, r in self.readings if r.above and r.device_id == "thermo1"]
        if shape == "remedy":
            return [(r,) for r in REMEDIES]
        if shape == "fever":
            return [(iri,) for iri in sorted(fevers, key=iri_key)]
        if shape == "threshold":
            hot = [(iri, Decimal(r.value)) for iri, r in self.readings
                   if r.device_id == "thermo1" and Decimal(r.value) > THRESHOLD_VALUE]
            return sorted(hot, key=lambda row: iri_key(row[0]))
        if shape == "state_remedy":
            pairs = [(iri, rem) for iri in fevers for rem in REMEDIES]
            return sorted(pairs, key=lambda row: (iri_key(row[0]), iri_key(row[1])))[:10]
        raise ValueError(f"unknown shape {shape!r}")
