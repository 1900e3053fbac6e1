"""Machine-speed probe that rescales a run's times to a reference speed.

On a shared host the same code runs up to 40% slower for minutes at a time
while neighbours are busy, and process CPU time slows with wall time, so
neither can be compared across runs as measured. A run therefore times a
fixed probe before every set-up and every stage, and multiplies each time
it reports by ``PROBE_NOMINAL_S / mean(probe times)``, the probes taken
around that set-up or that pipeline, so that the factor follows the host's
load as it changes within a run. The probe does the
kinds of work the pipeline does, on small in-memory data: dict updates,
CSV parsing and writing, frozen dataclasses, sorting, and small numpy sorts
and cumulative sums. It is benchmark code: a change to the program does not
change it. Where the probe takes its nominal time the factor is 1 and the
reported times are wall-clock seconds.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from dataclasses import dataclass

import numpy as np

PROBE_NOMINAL_S = 0.011
SAMPLES_PER_CALL = 4

_CSV = "\n".join(
    f"2023-11-{1 + i % 28:02d}T{i % 24:02d}:00,node{i % 37},{(i * 7919) % 1000},Primary" for i in range(400)
)
_FLOATS = np.random.default_rng(0).random(4000)


@dataclass(frozen=True)
class _Row:
    timestamp: str
    node: str
    flow: float
    tag: str


def _probe() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(20000):
        table[i % 97] = table.get(i % 97, 0) + i
    values = np.arange(2000.0)
    for _ in range(100):
        values = np.sort(values[::-1]) + 0.0
    rows = [_Row(t, n, float(f), g) for t, n, f, g in csv.reader(io.StringIO(_CSV))]
    rows.sort(key=lambda r: (r.node, r.timestamp))
    by_node: dict[str, list[float]] = {}
    for row in rows:
        by_node.setdefault(row.node, []).append(row.flow)
    writer = csv.writer(io.StringIO())
    for node, flows in by_node.items():
        writer.writerow([node, repr(sum(flows))])
    floats = _FLOATS
    for _ in range(15):
        order = np.argsort(floats, kind="stable")
        floats = floats + np.cumsum(floats[order])[-1] * 0.0
    return time.perf_counter() - start


class SpeedProbe:
    """Probe samples taken around one measured window: a set-up or a pipeline."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, n: int = SAMPLES_PER_CALL) -> None:
        self.samples.extend(_probe() for _ in range(n))

    @property
    def factor(self) -> float:
        """Reference seconds per measured second in this window."""
        return PROBE_NOMINAL_S / statistics.fmean(self.samples)
