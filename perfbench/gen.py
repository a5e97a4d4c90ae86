"""Seeded reading generator for the benchmark.

Every reading comes from one of the three fixture devices (thermo1,
ambient1, bp1).  A fixed share of each device's readings lies above the
threshold of that device's fixture rule and the rest lies below it, with a
margin, so which readings derive a state is known from the inputs alone.
The same seed always yields the same readings.  The workloads take a
preload history (`history`) and a timed stream (`live`) from here; each
reading renders as a CSV reading-log line, the format `knotgate replay`
reads, or as the JSON body of POST /api/v1/observations.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Iterator, NamedTuple

M3 = "urn:knotgate:m3#"


class Device(NamedTuple):
    device_id: str
    sensor_kind: str
    unit: str
    prop: str  # observed property IRI, as registered in fixtures/sensors.csv
    state: str  # state IRI the device's fixture rule derives
    rule_id: str
    threshold: float  # the rule fires when value > threshold
    low: float
    high: float
    per_block: int  # readings in every block of BLOCK readings


DEVICES = (
    Device("thermo1", "temperature", "cel", M3 + "BodyTemperature", M3 + "Fever",
           "fever", 38.0, 35.5, 41.5, 2),
    Device("ambient1", "temperature", "cel", M3 + "AmbientTemperature", M3 + "FireRisk",
           "fire-risk", 60.0, 10.0, 95.0, 1),
    Device("bp1", "pressure", "mmhg", M3 + "SystolicBloodPressure",
           M3 + "ElevatedBloodPressure", "elevated-bp", 140.0, 95.0, 190.0, 1),
)
BY_ID = {d.device_id: d for d in DEVICES}
#: Readings come in shuffled blocks with a fixed device mix, so any stretch
#: of a stream, whatever the seed, holds nearly the same work.
BLOCK = [d for d in DEVICES for _ in range(d.per_block)]

#: Every third reading of each device lies above its threshold.
ABOVE_EVERY = 3
#: Distance kept between any generated value and its threshold.
MARGIN = 0.5
BASE_TS = 1_700_000_000_000


class Reading(NamedTuple):
    device_id: str
    value: str  # one decimal, exactly as sent
    timestamp: int

    @property
    def device(self) -> Device:
        return BY_ID[self.device_id]

    @property
    def above(self) -> bool:
        return float(self.value) > self.device.threshold

    def csv(self) -> str:
        d = self.device
        return f"{d.device_id},{d.sensor_kind},{self.value},{d.unit},{self.timestamp}"

    def json(self) -> bytes:
        d = self.device
        return json.dumps({
            "device_id": d.device_id, "sensor_kind": d.sensor_kind,
            "value": float(self.value), "unit": d.unit, "timestamp": self.timestamp,
        }).encode("utf-8")


def readings(seed: int, stream: str, start_ts: int = BASE_TS) -> Iterator[Reading]:
    """Endless reading stream; `stream` keeps history and live streams independent."""
    rng = random.Random(f"knotgate-bench:{seed}:{stream}")
    counts = dict.fromkeys(BY_ID, 0)
    ts = start_ts
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        for d in block:
            counts[d.device_id] += 1
            ts += rng.randint(200, 2000)
            if counts[d.device_id] % ABOVE_EVERY == 0:
                value = rng.uniform(d.threshold + MARGIN, d.high)
            else:
                value = rng.uniform(d.low, d.threshold - MARGIN)
            yield Reading(d.device_id, f"{value:.1f}", ts)


def history(seed: int, n: int) -> list[Reading]:
    return list(itertools.islice(readings(seed, "history"), n))


def live(seed: int, start_ts: int) -> Iterator[Reading]:
    return readings(seed, "live", start_ts)

