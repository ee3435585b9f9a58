"""The package surface that the benchmark under ``perfbench/`` relies on.

``perfbench`` looks the package up by name: its tracer wraps codec, timing
and entry-point functions on the modules that call them, and each workload
builds its plans, programs and executors from the package.  One round of
every workload, run as ``perfbench/run.py`` runs a traced sample, fails
here when a change removes or renames a name the benchmark uses.  The
leading samples of ``stream`` and ``native_long`` at seed 7 must simulate
exactly what their fingerprint and their motion durations record: a change
that only makes the simulator faster leaves them bit for bit.
"""

import hashlib
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

# perfbench's scripts import their siblings by bare name
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run as perfbench_run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Sample  # noqa: E402


def imported_skillbench():
    """The modules ``run.load_skillbench`` hands the workloads, taken as
    imported already: reloading them would leave other tests holding
    classes of a second copy."""
    return SimpleNamespace(
        **{m: importlib.import_module(f"skillbench.{m}") for m in perfbench_run.MODULES}
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_traced_round_of_each_workload(name):
    sb = imported_skillbench()
    tracer = Tracer(sb)
    wl = WORKLOADS[name](sb, seed=7)
    samples = []
    for k in range(wl.round_size):
        inp = wl.make_input(k)
        expected = wl.oracle(inp)
        sample = Sample(k=k, host_s=0.0)
        with tracer.installed():
            out = wl.execute(inp)
        wl.observe(sample, inp, expected, out)
        samples.append(sample)
    wl.check_all(samples)
    assert [s.error for s in samples] == [None] * wl.round_size
    assert tracer.stats["fieldbus_sim.run"].calls == wl.round_size
    assert tracer.is_clean()


# the model values and SimTrace.digest() of the leading samples at seed 7,
# as perfbench/run.py writes them to <workload>-seed7.fingerprint.json, and
# a SHA-256 prefix of the repr of the executed motions' durations in µs.
# Every motion of these workloads is shorter than one 4 ms robot cycle, so
# the first two do not see the timing model; the durations do.  pickplace's
# fingerprint is pinned in test_bench.py
FINGERPRINTS = {
    "stream": [
        ({"sim_ms": 844.0, "fallback_stops": 1},
         "e50cd7c0b5894648d9bcd04fb0c1d56b3bb9497e2ce3ae828ec39e784180550e",
         "16b75b41163313a5"),
        ({"sim_ms": 860.0, "fallback_stops": 1},
         "e3f65c80847e56b57db2b9982bcc8106bb5dc7c2f8ac1d50e7dd9f005937159e",
         "0b5cb3be7f250587"),
        ({"sim_ms": 870.0, "fallback_stops": 0},
         "0e2dcf415de758b33991fdc9185cd156f26ac3d697034a87f947f3ce4281a861",
         "8f8522475cec2c57"),
        ({"sim_ms": 893.0, "fallback_stops": 1},
         "d7c672967030e3f991fb2ed78c965925047db150e47b1be89c5e9fd70fb23f01",
         "cc97596d7b8573ce"),
        ({"sim_ms": 904.0, "fallback_stops": 1},
         "6a9d21a2650f192b476c420284e0254dfce05817e49623796b9dad2afc2664e2",
         "1769177517501670"),
    ],
    "native_long": [
        ({"sim_ms": 803.0, "fallback_stops": 0},
         "a602573cf87d62898a254231f1dd7c56a0b58fb99def12650b8ef6871d7adb42",
         "4e176003cabde664"),
        ({"sim_ms": 804.0, "fallback_stops": 0},
         "6f558ac60ad15ed3a0dd11e43bc16f83b809baec7ea506b3b912a6e38194754e",
         "fea29b3153c26f85"),
        ({"sim_ms": 803.0, "fallback_stops": 0},
         "e5c675f3cb35f6db83a4be7a32cbeeb3529e75ea4d4c74802c2b3a06bab0d437",
         "6411cc429c820f93"),
    ],
}


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_leading_samples_match_the_fingerprint(name):
    wl = WORKLOADS[name](imported_skillbench(), seed=7)
    assert len(FINGERPRINTS[name]) == wl.fingerprint_samples
    found = []
    for k in range(wl.fingerprint_samples):
        inp = wl.make_input(k)
        sample = Sample(k=k, host_s=0.0)
        out = wl.execute(inp)
        wl.observe(sample, inp, wl.oracle(inp), out)
        assert sample.error is None
        durations = [dur_us for *_, dur_us in out[1].executed]
        durations_sha = hashlib.sha256(repr(durations).encode()).hexdigest()[:16]
        found.append((sample.model, sample.digest, durations_sha))
    assert found == FINGERPRINTS[name]
