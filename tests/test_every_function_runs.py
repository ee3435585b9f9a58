"""Every function defined in ``src/`` runs in a run, or says why not.

A run is the CLI on setups A and B and on a scenario file, with the trace,
raw-sample and CSV outputs switched on, and one sample of each
``perfbench`` workload, taken as ``perfbench/run.py`` takes one.  A
``sys.settrace`` collector records the code object of every Python call
while they run.  Each function the AST of a ``src/`` module defines must
be among them, or be in ``NOT_RUN`` with the reason no run reaches it: an
error path, public API that the README or ``docs/`` document, or a name
the benchmark's tracer or workloads hold.  A listed function that does
run fails too, so the list only ever names what no run reaches.
"""

import ast
import sys
from pathlib import Path

from skillbench import bench, cli
from skillbench.bench import SETUP_B, serialize_scenario

# importing it puts perfbench/ on the path, whose scripts import their
# siblings by bare name
from test_benchmark_surface import imported_skillbench
from workloads import WORKLOADS, Sample

SRC = Path(__file__).resolve().parents[1] / "src" / "skillbench"

PERFBENCH_NAME = "named by perfbench/tracing.py or workloads.py; retire with ROADMAP item 1"

NOT_RUN = {
    "cli.py": {
        "_Parser.error": "error path: a usage error",
    },
    "core.py": {
        "MotionCommand.record_count": "public API: demos 03 and 04 count records with it",
        "ContinuousSkillPlan.record_count": "public API: demos 03 and 04 count records with it",
    },
    "fieldbus_sim.py": {
        "_timeout_at": "error path: a run that times out",
        "SimTrace.events": "public API: the README reads a trace through it",
        "SimTrace.__eq__": "public API: a trace compares by content, as its docstring says",
    },
    "plc_trigger.py": {
        "RobotError.__init__": "error path: the robot reports ERROR",
        "PlcSkillInstance.image": "public API: docs/wire.md documents it",
        "PlcSkillInstance.state": "public API: docs/wire.md documents it",
    },
    "robot_executor.py": {
        "_CyclicExecutor._fail": "error path: a record fault or starvation",
    },
    "trajectory.py": {
        "blend_geometry": PERFBENCH_NAME,
    },
    "wire.py": {
        "_check_finite": "error path: a non-finite scalar off the wire",
        "_pack_record": "error path: a plan image that a field does not fit",
        "encode_record": PERFBENCH_NAME,
        "decode_command_frame": PERFBENCH_NAME,
        "encode_feedback_frame": PERFBENCH_NAME,
        "FeedbackFrame.__new__": "public API: docs/wire.md documents FeedbackFrame",
    },
}


def defined_functions():
    """``{(path, first line of its code object): qualified name}`` of every
    function defined in ``src/``, nested ones included.  A decorated
    function's code object starts at its first decorator."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = f"{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, f"{path.name}:")
    return found


def runs(tmp_path):
    """The runs whose calls count: the CLI, then one sample per workload.
    The package's plan caches are cleared first, so that a run plans
    whatever earlier tests planned too."""
    bench.build_plans.cache_clear()
    bench.compile_setup.cache_clear()
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(serialize_scenario(SETUP_B))
    trace, raw = str(tmp_path / "trace.txt"), str(tmp_path / "raw.csv")
    for argv in (
        ["run", "--setup", "a", "--reps", "2", "--trace", trace, "--raw", raw],
        ["run", "--setup", "b", "--reps", "2", "--format", "csv", "--trace", trace],
        ["run", "--setup", str(scenario), "--reps", "1", "--etype", "cm"],
    ):
        assert cli.main(argv) == 0
    sb = imported_skillbench()
    for name in sorted(WORKLOADS):
        wl = WORKLOADS[name](sb, seed=7)
        inp = wl.make_input(0)
        expected = wl.oracle(inp)
        sample = Sample(k=0, host_s=0.0)
        wl.observe(sample, inp, expected, wl.execute(inp))
        assert sample.error is None


def test_every_function_reaches_a_run(tmp_path, capsys):
    called = set()

    def collect(frame, event, arg):
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno))

    before = sys.gettrace()
    sys.settrace(collect)
    try:
        runs(tmp_path)
    finally:
        sys.settrace(before)
    capsys.readouterr()

    ran = {(str(Path(file).resolve()), line) for file, line in called}
    listed = {f"{file}:{name}" for file, names in NOT_RUN.items() for name in names}
    never = sorted(name for key, name in defined_functions().items() if key not in ran)
    unlisted = [name for name in never if name not in listed]
    assert not unlisted, "no run reaches " + ", ".join(unlisted)
    ran = sorted(listed - set(never))
    assert not ran, "listed in NOT_RUN, yet run: " + ", ".join(ran)
