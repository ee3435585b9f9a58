"""Host-speed probe used to scale host times.

On a shared virtual machine the speed of the same single-threaded Python
code drifts by tens of percent within seconds (other tenants on the physical
cores; no steal time is reported, so CPU time drifts as much as wall time).
Raw medians of 30 s runs then differ by 15-45% from run to run, far more
than any regression bound.  The benchmark therefore runs ``probe()``, a
fixed stretch of interpreter work, right before and right after each sample
and scales the sample's host time by those two probe times: a scaled time
is what the sample would have taken had the probe run in
``PROBE_REFERENCE_S``.  Raw times are kept next to the scaled ones.

Workloads differ in how strongly they follow the probe: a sample time that
tracks the probe as (probe time) ** e is scaled with exponent e.  Each
workload states its e (``Workload.probe_exponent``).
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass

# about the median probe() time on a shared 2-core x86-64 VM with Python
# 3.11, so scaled times read like host times there
PROBE_REFERENCE_S = 0.002

_FMT = struct.Struct("<BBH9fBBH")


@dataclass(frozen=True)
class _Corner:
    x: float
    y: float
    z: float
    length: float


def probe() -> float:
    """Host seconds for fixed interpreter work of the kind the simulator does:
    struct packing, small tuples and dicts, float math, frozen dataclasses."""
    t0 = time.perf_counter()
    for i in range(700):
        vals = _FMT.unpack(_FMT.pack(1, 0, i, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, i, 0, 0, 0))
        d = {"k": i, "v": (vals[3], vals[4])}
        math.sqrt(d["v"][0] + d["v"][1] + d["k"])
    for j in range(20):
        pts = [(i * 0.1, i * 0.2, j * 0.3) for i in range(40)]
        corners = [_Corner(*p, math.dist(p, pts[0])) for p in pts]
        v = 0.0
        for c in corners:
            v = min(c.length, math.sqrt(v * v + 2.0 * c.z))
    return time.perf_counter() - t0


def scale(host_s: float, probe_before: float, probe_after: float, exponent: float) -> float:
    """``host_s`` at the reference speed, from the probes around it."""
    return host_s * (2.0 * PROBE_REFERENCE_S / (probe_before + probe_after)) ** exponent
