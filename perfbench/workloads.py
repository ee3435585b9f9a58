"""The benchmark's workloads: input generators, timed executions, checks.

Every workload is a closed loop of samples run one after another from one
thread.  Sample ``k`` of a workload is fully determined by ``(seed, k)``;
its inputs and oracle are made outside the timed region, and the timed
region covers building the program and executor plus the simulated run.

* ``pickplace``: the paper's cell, setups A and B, execution types RC, SM
  and CM, through ``bench.run_benchmark`` with one repetition per call.  Six
  samples form a round sharing one simulation seed, so AETs pair across
  types as in ``run_benchmark`` itself.  Host time is mostly the polled
  co-simulation loop and idle ticks.
* ``stream``: one continuous skill of a few hundred records (LIN, PTP,
  circular pairs, joint moves, mixed approximation distances) streamed as CM
  through the five-slot window.  Legs are short and dynamics fast, so the
  window refills almost every robot cycle and the codec dominates.
* ``native_long``: one long blended all-LIN program stored on
  ``NativeExecutor`` behind a single START/DONE handshake.  The motion engine
  re-plans the whole remaining window at every activation, so the
  trajectory layer dominates; one program length keeps samples comparable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from statistics import fmean

STREAM_RECORDS = 250
NATIVE_MOTIONS = 200

ORACLE_TICK_LIMIT = 1_000_000

# fast dynamics: a 0.5-3 mm leg takes less than one 4 ms robot cycle
CART_V, CART_A = 4000.0, 4.0e6
JOINT_V, JOINT_A = 3000.0, 3.0e6


@dataclass
class Sample:
    """One timed execution and what it produced."""

    k: int
    host_s: float
    scaled_s: float = 0.0  # host_s at the reference host speed, see run.probe
    sim_ms: float | None = None
    model: dict | None = None  # deterministic simulated values of this sample
    digest: str | None = None  # SimTrace.digest() of the run
    error: str | None = None  # exception raised or output check failed


def sample_rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}-{seed}-{k}")


def _hop(rng: random.Random, p, lo: float = 0.5, hi: float = 3.0):
    """A point ``lo``..``hi`` mm from ``p`` in a uniformly random direction."""
    while True:
        d = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        n = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
        if 1e-3 < n <= 1.0:
            break
    step = rng.uniform(lo, hi) / n
    return (p[0] + d[0] * step, p[1] + d[1] * step, p[2] + d[2] * step)


def stream_plan(core, rng: random.Random, records: int = STREAM_RECORDS):
    """A chained plan whose wire expansion is exactly ``records`` long.

    About 15% circular pairs, 15% joint moves, the rest LIN or PTP-Cartesian
    hops; 40% of motions blend with an approximation distance of 0.05-0.3 mm.
    """
    MT = core.MotionType
    motions, pos, n = [], (0.0, 0.0, 0.0), 0
    while n < records:
        roll = rng.random()
        approx = rng.uniform(0.05, 0.3) if rng.random() < 0.4 else 0.0
        if roll < 0.15 and records - n >= 2:
            aux = _hop(rng, pos)
            pos = _hop(rng, aux)
            motions.append(
                core.MotionCommand(
                    MT.CIRCULAR, core.Pose(*pos), CART_V, CART_A, approx, aux_point=aux
                )
            )
            n += 2
        elif roll < 0.30:
            target = core.JointTarget(*(rng.uniform(-2.0, 2.0) for _ in range(6)))
            motions.append(core.MotionCommand(MT.PTP_JOINT, target, JOINT_V, JOINT_A))
            n += 1
        else:
            pos = _hop(rng, pos)
            mtype = MT.PTP_CARTESIAN if roll < 0.45 else MT.LIN_CARTESIAN
            motions.append(core.MotionCommand(mtype, core.Pose(*pos), CART_V, CART_A, approx))
            n += 1
    motions[-1] = replace(motions[-1], approx_distance=0.0)
    return core.ContinuousSkillPlan(tuple(motions))


def native_plan(core, rng: random.Random, motions: int = NATIVE_MOTIONS):
    """A blended all-LIN chain.  Every leg is at least 0.6 mm and every
    approximation distance at most 0.25 mm, so no corner is too short to
    blend and each activation evaluates every corner of its window."""
    out, pos = [], (0.0, 0.0, 0.0)
    for i in range(motions):
        pos = _hop(rng, pos, 0.6, 3.0)
        approx = 0.0 if i == motions - 1 else rng.uniform(0.05, 0.25)
        out.append(
            core.MotionCommand(core.MotionType.LIN_CARTESIAN, core.Pose(*pos), CART_V, CART_A, approx)
        )
    return core.ContinuousSkillPlan(tuple(out))


# --- output checks -------------------------------------------------------------


def check_flow(executed, pose, expected_flow, expected_pose) -> str | None:
    """Executed ``(first_record, n_records, target)`` flow and final pose."""
    flow = [(first, n, target) for first, n, target, _dur in executed]
    if flow != expected_flow:
        for i, (got, want) in enumerate(zip(flow, expected_flow)):
            if got != want:
                return f"motion {i}: executed {got}, expected {want}"
        return f"executed {len(flow)} motions, expected {len(expected_flow)}"
    if tuple(pose) != tuple(expected_pose):
        return f"final pose {pose}, expected {expected_pose}"
    return None


def check_orderings(aet: dict) -> str | None:
    """The paper's orderings for one setup, from AETs keyed rc/sm/cm:
    SM slower than CM, CM within 1% of RC, improvement in [0.10, 0.60]."""
    rc, sm, cm = aet["rc"], aet["sm"], aet["cm"]
    if not sm > cm:
        return f"SM {sm} not slower than CM {cm}"
    if (cm - rc) / rc > 0.01:
        return f"CM overhead over RC {(cm - rc) / rc:.4f} exceeds 1%"
    aet_i = (sm - cm) / sm
    if not 0.10 <= aet_i <= 0.60:
        return f"aet_i {aet_i:.4f} outside [0.10, 0.60]"
    return None


def _fallback_stops(executor) -> int:
    # NativeExecutor exposes no counter of its own; its engine keeps one
    stops = getattr(executor, "fallback_stops", None)
    return executor._engine.fallback_stops if stops is None else stops


# --- workloads -----------------------------------------------------------------


class Workload:
    """Shared shape: ``make_input`` and ``oracle`` run untimed, ``execute``
    is the timed region, ``observe`` extracts the sample's results."""

    name = ""
    round_size = 1  # samples that belong together; runs end on a round boundary
    fingerprint_samples = 1  # leading samples whose simulated values are fixed
    tail_percentile = 95
    probe_exponent = 1.0  # see hostspeed.scale

    def __init__(self, sb, seed: int):
        self.sb = sb
        self.seed = seed

    def prepare(self):
        """Input generation and planning before the first timed run."""
        self.make_input(0)

    def make_input(self, k: int):
        raise NotImplementedError

    def oracle(self, inp):
        return None

    def execute(self, inp):
        raise NotImplementedError

    def observe(self, sample: Sample, inp, expected, out):
        raise NotImplementedError

    def check_all(self, samples) -> None:
        """Checks over the whole run; marks the samples they fail."""

    def model_metrics(self, samples) -> dict:
        """``model.*`` values over ``samples`` as (value, unit); the keys are
        the same on every workload, 0 where a workload has no such value."""
        done = [s for s in samples if s.error is None]
        out = {
            "model.sim_ms": (fmean(s.sim_ms for s in done) if done else 0.0, "ms"),
            "model.fallback_stops": (
                fmean(s.model.get("fallback_stops", 0) for s in done) if done else 0.0,
                "count",
            ),
        }
        for setup in ("a", "b"):
            for etype in ("rc", "sm", "cm"):
                out[f"model.aet_ms.{etype}.{setup}"] = (0.0, "ms")
            out[f"model.aet_i.{setup}"] = (0.0, "ratio")
        return out


class Pickplace(Workload):
    name = "pickplace"
    COMBOS = tuple((setup, etype) for setup in ("a", "b") for etype in ("rc", "sm", "cm"))
    round_size = len(COMBOS)
    fingerprint_samples = 3 * len(COMBOS)
    tail_percentile = 95

    def __init__(self, sb, seed):
        super().__init__(sb, seed)
        self.setups = {"a": sb.bench.SETUP_A, "b": sb.bench.SETUP_B}
        self.etypes = {e.value: e for e in sb.core.ExecutionType}

    def prepare(self):
        for cfg in self.setups.values():
            self.sb.bench.build_plans(cfg)

    def make_input(self, k):
        setup, etype = self.COMBOS[k % self.round_size]
        sim_seed = sample_rng(self.name, self.seed, k // self.round_size).randrange(2**31)
        return setup, etype, sim_seed

    def execute(self, inp):
        setup, etype, sim_seed = inp
        return self.sb.bench.run_benchmark(
            self.setups[setup], etypes=(self.etypes[etype],), reps=1, seed=sim_seed
        )

    def observe(self, sample, inp, expected, report):
        setup, etype, _ = inp
        sample.sim_ms = report.stats[self.etypes[etype]].samples[0]
        sample.model = {"setup": setup, "etype": etype, "sim_ms": sample.sim_ms}
        sample.digest = report.last_trace.digest()

    def _aets(self, samples) -> dict:
        """AET per setup and type over the samples that ran."""
        aet = {}
        for setup in self.setups:
            for etype in self.etypes:
                vals = [
                    s.sim_ms
                    for s in samples
                    if s.sim_ms is not None and s.model["setup"] == setup and s.model["etype"] == etype
                ]
                aet.setdefault(setup, {})[etype] = fmean(vals) if vals else math.nan
        return aet

    def check_all(self, samples):
        for setup, aet in self._aets(samples).items():
            err = check_orderings(aet)
            if err is not None:
                for s in samples:
                    if self.COMBOS[s.k % self.round_size][0] == setup and s.error is None:
                        s.error = f"setup {setup}: {err}"

    def model_metrics(self, samples):
        out = super().model_metrics(samples)
        for setup, aet in self._aets([s for s in samples if s.error is None]).items():
            for etype, v in aet.items():
                out[f"model.aet_ms.{etype}.{setup}"] = (v, "ms")
            out[f"model.aet_i.{setup}"] = ((aet["sm"] - aet["cm"]) / aet["sm"], "ratio")
        return out


class Stream(Workload):
    name = "stream"
    fingerprint_samples = 5
    tail_percentile = 95
    # over ten-run sets whose raw medians spread by 29-36%, scaling by the
    # plain probe ratio left 6-10% spread on stream (1% on the others);
    # exponent 0.87 left 2%.  Its codec and hashing in C follow the
    # interpreter-bound probe less closely.
    probe_exponent = 0.85

    def make_input(self, k):
        rng = sample_rng(self.name, self.seed, k)
        return stream_plan(self.sb.core, rng), rng.randrange(2**31)

    def oracle(self, inp):
        """Direct handoff: the same plan stored whole on NativeExecutor,
        ticked with START held and no bus; its record flow does not depend
        on timing."""
        plan, _ = inp
        w = self.sb.wire
        executor = self.sb.robot_executor.NativeExecutor([plan], capture=True)
        start = w.encode_command_frame(w.CommandFrame(command=w.CommandWord.START))
        for tick in range(ORACLE_TICK_LIMIT):
            executor.tick(tick * 4000, start)
            if executor.state is w.RobotState.DONE:
                return [e[:3] for e in executor.executed], executor.pose
        raise RuntimeError(f"oracle unfinished after {ORACLE_TICK_LIMIT} robot cycles")

    def execute(self, inp):
        plan, sim_seed = inp
        sb = self.sb
        program = sb.plc_trigger.ContinuousMotionProgram([plan])
        executor = sb.robot_executor.RobotExecutor(capture=True)
        result = sb.fieldbus_sim.run(program, executor, sb.fieldbus_sim.SimConfig(seed=sim_seed))
        return program, executor, result

    def observe(self, sample, inp, expected, out):
        program, executor, result = out
        sample.sim_ms = program.elapsed_ms
        sample.model = {"sim_ms": sample.sim_ms, "fallback_stops": _fallback_stops(executor)}
        sample.digest = result.trace.digest()
        sample.error = check_flow(executor.executed, executor.pose, *expected)


class NativeLong(Workload):
    name = "native_long"
    fingerprint_samples = 3
    tail_percentile = 90

    def make_input(self, k):
        rng = sample_rng(self.name, self.seed, k)
        return native_plan(self.sb.core, rng), rng.randrange(2**31)

    def oracle(self, inp):
        """The program's own records, one physical motion each, in order."""
        plan, _ = inp
        records = self.sb.wire.explode_plan(plan.motions)
        return [(i + 1, 1, r.target) for i, r in enumerate(records)], records[-1].target

    def execute(self, inp):
        plan, sim_seed = inp
        sb = self.sb
        program = sb.plc_trigger.NativeTriggerProgram()
        executor = sb.robot_executor.NativeExecutor([plan], capture=True)
        result = sb.fieldbus_sim.run(program, executor, sb.fieldbus_sim.SimConfig(seed=sim_seed))
        return program, executor, result

    def observe(self, sample, inp, expected, out):
        program, executor, result = out
        sample.sim_ms = program.elapsed_ms
        sample.model = {"sim_ms": sample.sim_ms, "fallback_stops": _fallback_stops(executor)}
        sample.digest = result.trace.digest()
        plc = program.plc
        if plc.skills_completed != 1 or plc.last_error is not None:
            sample.error = f"PLC completed {plc.skills_completed} skills, error {plc.last_error}"
        else:
            sample.error = check_flow(executor.executed, executor.pose, *expected)


WORKLOADS = {w.name: w for w in (Pickplace, Stream, NativeLong)}
