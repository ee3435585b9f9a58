"""Pick-and-place benchmark comparing skill execution types.

The scenario is a two-position pick and place: descend into the pick
carrier, grip, lift, carry to the place carrier, descend, release, retract,
return.  The planner turns it into three continuous groups (the carry group
is the long one); the benchmark runs the same groups as

* RC: a natively stored program, one START/DONE handshake overall,
* SM: one skill per motion with exact stops everywhere,
* CM: one skill per continuous group, blended inside the group,

and reports the average execution time (AET), the mean absolute deviation
(MAD), and the relative improvement AET_i = (AET_SM - AET_CM) / AET_SM.
Repetition k of every execution type uses the same derived seed, so the
task phase offsets are paired across types.  A setup is planned and
compiled once per process (``compile_setup``): RC's stored records and
SM's and CM's skills are built from the plans one time, and every
repetition only runs them, as the paper's PLC triggers records
written once into a data block.  The executors of those repetitions
solve their corner windows through the robot task's cache of recently
solved windows, so RC and CM solve each window of setups A and B once per
process; an executor built anywhere else solves without the cache, as its
windows do not come back.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from statistics import fmean
from typing import NamedTuple

from .core import ExecutionType, Pose
from .fieldbus_sim import SimConfig, SimTrace, run
from .planner import PlanningConfig, ProcessStep, StepKind, plan
from .plc_trigger import (
    NativeTriggerProgram,
    SkillProgram,
    continuous_skills,
    single_motion_skills,
)
from .robot_executor import (
    NativeExecutor,
    RobotExecutor,
    _solve_window,
    stored_records,
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry and dynamics of one benchmark setup.  Lengths in mm."""

    name: str = "a"
    start: Pose = Pose(-100.0, 0.0, 80.0)
    pick: Pose = Pose(0.0, 0.0, 0.0)
    place: Pose = Pose(300.0, 0.0, 0.0)
    carrier_height: float = 30.0  # length of the vertical primary paths
    obstacle_height: float = 60.0
    clearance_margin: float = 20.0
    lin_velocity: float = 250.0
    lin_acceleration: float = 2000.0
    ptp_velocity: float = 250.0
    ptp_acceleration: float = 2000.0
    approx_distance: float = 10.0
    pre_post_length: float = 50.0

    def __post_init__(self):
        # compile_setup shares one result per equal config, so equal configs
        # must compile to the same bytes: lengths and dynamics become floats
        # without the sign of a zero, as Pose coordinates do.  A scenario
        # file holds the name on one line, and parsing strips it
        name = self.name
        if not isinstance(name, str) or name != name.strip() or len(name.splitlines()) > 1:
            raise ValueError(f"name must be one line without surrounding whitespace, got {name!r}")
        for f in fields(self):
            if f.type == "float":
                object.__setattr__(self, f.name, getattr(self, f.name) + 0.0)
        if not (self.carrier_height > 0 and math.isfinite(self.carrier_height)):
            raise ValueError("carrier_height must be positive")
        for name in ("obstacle_height", "clearance_margin"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")

    @property
    def fly_height(self) -> float:
        """Height of the transit corridor above the carrier positions."""
        return self.carrier_height + self.pre_post_length

    def planning_config(self) -> PlanningConfig:
        return PlanningConfig(
            lin_velocity=self.lin_velocity,
            lin_acceleration=self.lin_acceleration,
            ptp_velocity=self.ptp_velocity,
            ptp_acceleration=self.ptp_acceleration,
            default_approx=self.approx_distance,
            pre_post_length=self.pre_post_length,
        )


SETUP_A = ScenarioConfig(name="a")
SETUP_B = ScenarioConfig(
    name="b",
    lin_velocity=200.0,
    lin_acceleration=1200.0,
    ptp_velocity=200.0,
    ptp_acceleration=1200.0,
)


def _above(p: Pose, h: float) -> Pose:
    return Pose(p.x, p.y, p.z + h, p.a, p.b, p.c)


def build_scenario(cfg: ScenarioConfig) -> tuple[ProcessStep, ...]:
    """Process steps of the pick-and-place task.

    The transits that carry the part (and the return leg) get an explicit
    clearance height only when the obstacle between the carriers pokes above
    the normal transit corridor; otherwise the corridor already clears it.
    """
    up = cfg.carrier_height
    clearance = None
    if cfg.obstacle_height > cfg.fly_height:
        clearance = cfg.obstacle_height + cfg.clearance_margin
    return (
        ProcessStep(StepKind.STANDSTILL_ACTION, pose=cfg.start, action="start"),
        ProcessStep(StepKind.TRANSIT),
        ProcessStep(StepKind.PRIMARY_PATH, entry=_above(cfg.pick, up), exit=cfg.pick),
        ProcessStep(StepKind.STANDSTILL_ACTION, pose=cfg.pick, action="grip"),
        ProcessStep(StepKind.PRIMARY_PATH, entry=cfg.pick, exit=_above(cfg.pick, up)),
        ProcessStep(StepKind.TRANSIT, clearance=clearance),
        ProcessStep(StepKind.PRIMARY_PATH, entry=_above(cfg.place, up), exit=cfg.place),
        ProcessStep(StepKind.STANDSTILL_ACTION, pose=cfg.place, action="release"),
        ProcessStep(StepKind.PRIMARY_PATH, entry=cfg.place, exit=_above(cfg.place, up)),
        ProcessStep(StepKind.TRANSIT, to_pose=cfg.start, clearance=clearance),
    )


def build_plans(cfg: ScenarioConfig):
    """The continuous skill plans of one setup, as a tuple of frozen plans.
    Planning is deterministic, so equal configs plan equal tuples."""
    return tuple(plan(build_scenario(cfg), cfg.planning_config()))


# --- scenario file format ----------------------------------------------------

# a scenario file holds the config's fields, in declared order
_POSE_FIELDS = tuple(f.name for f in fields(ScenarioConfig) if f.type == "Pose")
_FLOAT_FIELDS = tuple(f.name for f in fields(ScenarioConfig) if f.type == "float")


def serialize_scenario(cfg: ScenarioConfig) -> str:
    lines = ["# skillbench scenario v1", f"name={cfg.name}"]
    for name in _POSE_FIELDS:
        p: Pose = getattr(cfg, name)
        lines.append(f"{name}=" + ",".join(repr(v) for v in p.components()))
    for name in _FLOAT_FIELDS:
        lines.append(f"{name}={getattr(cfg, name)!r}")
    return "\n".join(lines) + "\n"


def parse_scenario(text: str) -> ScenarioConfig:
    kwargs = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"malformed scenario line {line!r}")
        if key == "name":
            kwargs[key] = value
        elif key in _POSE_FIELDS:
            parts = [float(v) for v in value.split(",")]
            if len(parts) != 6:
                raise ValueError(f"{key} needs 6 pose components")
            kwargs[key] = Pose(*parts)
        elif key in _FLOAT_FIELDS:
            kwargs[key] = float(value)
        else:
            raise ValueError(f"unknown scenario field {key!r}")
    return ScenarioConfig(**kwargs)


# --- measurement -------------------------------------------------------------


def mad(values) -> float:
    """Mean absolute deviation around the arithmetic mean."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("mad of an empty sample")
    center = fmean(values)
    return fmean(abs(v - center) for v in values)


def compute_improvement(aet_single: float, aet_continuous: float) -> float:
    """Relative execution-time improvement of continuous over single skills."""
    if aet_single <= 0.0:
        raise ValueError("baseline AET must be positive")
    return (aet_single - aet_continuous) / aet_single


@dataclass(frozen=True)
class EtypeStats:
    etype: ExecutionType
    samples: tuple[float, ...]  # elapsed ms per repetition

    @property
    def aet_ms(self) -> float:
        return fmean(self.samples)

    @property
    def mad_ms(self) -> float:
        return mad(self.samples)


@dataclass
class MeasurementReport:
    setup: str
    reps: int
    seed: int
    stats: dict = field(default_factory=dict)  # ExecutionType -> EtypeStats
    last_trace: SimTrace | None = None

    @property
    def aet_i(self) -> float | None:
        sm = self.stats.get(ExecutionType.SM)
        cm = self.stats.get(ExecutionType.CM)
        if sm is None or cm is None:
            return None
        return compute_improvement(sm.aet_ms, cm.aet_ms)


class CompiledSetup(NamedTuple):
    """A setup's plans in the form each execution type runs them."""

    records: tuple  # RC: the stored program, ``stored_records``
    single_motion: tuple  # SM: ``single_motion_skills``
    continuous: tuple  # CM: ``continuous_skills``


def compile_plans(plans) -> CompiledSetup:
    """Encode (and, for RC, decode) ``plans`` for all three execution types.
    Raises ``UnencodableValue`` for a plan the wire cannot carry."""
    return CompiledSetup(
        stored_records(plans), single_motion_skills(plans), continuous_skills(plans)
    )


@lru_cache(maxsize=8)
def compile_setup(cfg: ScenarioConfig) -> CompiledSetup:
    """``compile_plans`` of the plans of ``build_plans(cfg)``, planned and
    compiled once per process for each of the eight most recently used
    setups.  A config is frozen and equal configs hold the same values (no
    int, no -0.0), so every caller with an equal config shares the result,
    and every program and executor only reads what it is given."""
    return compile_plans(build_plans(cfg))


def _build_run(compiled: CompiledSetup, pose, etype: ExecutionType):
    """A repetition of ``compiled`` under ``etype``: its program and
    executor.  The repetitions of a setup meet the same windows again, so
    their executors solve through the robot task's cache of solved
    windows; no other executor does."""
    if etype is ExecutionType.RC:
        program = NativeTriggerProgram()
        executor = NativeExecutor.from_records(compiled.records, initial_pose=pose)
    else:
        skills = compiled.single_motion if etype is ExecutionType.SM else compiled.continuous
        program, executor = SkillProgram(skills), RobotExecutor(initial_pose=pose)
    executor._solve = _solve_window
    return program, executor


def run_benchmark(
    cfg: ScenarioConfig,
    etypes=(ExecutionType.RC, ExecutionType.SM, ExecutionType.CM),
    reps: int = 25,
    seed: int = 0,
    sim: SimConfig = SimConfig(),
) -> MeasurementReport:
    """Measure every requested execution type over ``reps`` repetitions.

    ``sim`` provides the cycle times; its seed/rep fields are overridden per
    repetition so that repetition k shares phases across execution types.
    The compiled plans come from ``compile_setup``, so repeated calls on
    one setup (other seeds, other cycle times) plan and compile it only
    once, and each repetition builds its program and executor from them.
    """
    # a count: a bool would run and render as one, a float fail mid-run
    if isinstance(reps, bool) or not isinstance(reps, int):
        raise ValueError(f"reps must be an int, got {reps!r}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    report = MeasurementReport(setup=cfg.name, reps=reps, seed=seed)
    compiled = compile_setup(cfg)  # every run and every call shares it
    pose = cfg.start.components()
    for etype in etypes:
        samples = []
        for rep in range(reps):
            program, executor = _build_run(compiled, pose, etype)
            result = run(program, executor, replace(sim, seed=seed, rep=rep))
            samples.append(program.elapsed_ms)
            report.last_trace = result.trace
        report.stats[etype] = EtypeStats(etype=etype, samples=tuple(samples))
    return report


# --- rendering ---------------------------------------------------------------

_ETYPE_ORDER = (ExecutionType.RC, ExecutionType.SM, ExecutionType.CM)


def _ordered(report: MeasurementReport):
    return [report.stats[e] for e in _ETYPE_ORDER if e in report.stats]


def render_table(reports) -> str:
    out = []
    for rep in reports:
        out.append(f"setup {rep.setup}  (reps={rep.reps} seed={rep.seed})")
        out.append(f"  {'etype':<6} {'aet_ms':>12} {'mad_ms':>10}")
        for st in _ordered(rep):
            out.append(f"  {st.etype.value:<6} {st.aet_ms:>12.3f} {st.mad_ms:>10.3f}")
        if rep.aet_i is not None:
            out.append(f"  improvement (sm vs cm): {rep.aet_i:.4f}")
        out.append("")
    return "\n".join(out)


def raw_csv(reports) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["setup", "etype", "rep", "elapsed_ms"])
    for rep in reports:
        for st in _ordered(rep):
            for i, v in enumerate(st.samples):
                w.writerow([rep.setup, st.etype.value, i, repr(v)])
    return buf.getvalue()


def summary_csv(reports) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["setup", "etype", "aet_ms", "mad_ms", "aet_i"])
    for rep in reports:
        for st in _ordered(rep):
            improvement = ""
            if st.etype is ExecutionType.CM and rep.aet_i is not None:
                improvement = repr(rep.aet_i)
            w.writerow([rep.setup, st.etype.value, repr(st.aet_ms), repr(st.mad_ms), improvement])
    return buf.getvalue()
