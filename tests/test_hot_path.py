"""The functions that run once per task activation, plan, feedback image
or record keep five rules that CPython 3.11 rewards: enum members are read
from module-level names bound once, not as attributes of their class,
minima and maxima are comparisons or loops, not calls of the builtin
``min`` or ``max``, an absolute value is a conditional negation, not a
call of the builtin ``abs``, a value is built as one tuple, not through
``object.__new__`` and an update of the instance's ``__dict__``, and a
named tuple of ``wire`` or ``trajectory`` is built by ``tuple.__new__``,
not by calling its class, whose ``__new__`` runs in Python.  The objects
whose attributes those functions read hold at most 29 instance attributes
each."""

import ast
from pathlib import Path

import pytest

from skillbench.bench import SETUP_A, _build_run, build_plans, compile_plans
from skillbench.core import ExecutionType
from skillbench.fieldbus_sim import SimConfig, run
from skillbench.plc_trigger import ContinuousMotionProgram
from skillbench.robot_executor import RobotExecutor

SRC = Path(__file__).resolve().parent.parent / "src" / "skillbench"

HOT_PATH = {
    "fieldbus_sim.py": ("run",),
    "robot_executor.py": (
        "_CyclicExecutor.tick",
        "_CyclicExecutor.next_wakeup",
        "_CyclicExecutor._apply_frame",
        "RobotExecutor._load",
        "_CyclicExecutor._ingest",
        "_CyclicExecutor._advance",
        "_CyclicExecutor._activate",
        "_CyclicExecutor._complete",
        "_solve_window",
    ),
    "plc_trigger.py": (
        "PlcSkillInstance.cycle",
        "PlcSkillInstance._refill",
        "SkillProgram.plc_tick",
    ),
    "wire.py": (
        "_pack_feedback",
        "decode_feedback_frame",
        "decode_command_header",
        "decode_record",
        "encode_plan",
        "explode_plan",
        "_plan_image",
        "_pack_record",
        "_check_f32",
    ),
    "trajectory.py": (
        "corner_blend",
        "blend_geometry",
        "_arc",
        "segment_time",
        "motion_time",
        "solve_corners",
        "ptp_time",
    ),
}

ENUMS = {"RobotState", "CommandWord", "PlcSkillState", "MotionType"}
NAMED_TUPLES = {"CommandHeader", "MotionRecord", "FeedbackFrame", "CommandFrame", "BlendGeometry"}


def functions(tree):
    """Every function of a module by qualified name: ``f`` or ``Class.f``."""
    found = {}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            found[top.name] = top
        elif isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    found[f"{top.name}.{node.name}"] = node
    return found


def breaches(func):
    """``(line, text)`` of each enum attribute load, each call of the
    builtin ``min`` or ``max``, each call of the builtin ``abs``, each
    read of ``object.__new__``, each call of ``<x>.__dict__.update`` and
    each call of a ``NAMED_TUPLES`` class, in order."""
    found = []
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in ENUMS
        ):
            found.append((node.lineno, ast.unparse(node)))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "__new__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        ):
            found.append((node.lineno, ast.unparse(node)))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "update"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "__dict__"
        ):
            found.append((node.lineno, ast.unparse(node.func)))
        elif isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id in NAMED_TUPLES)
            or (isinstance(node.func, ast.Attribute) and node.func.attr in NAMED_TUPLES)
        ):
            found.append((node.lineno, ast.unparse(node.func)))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and (
                node.func.id in ("min", "max")
                or (node.func.id == "abs" and len(node.args) == 1)
            )
        ):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in HOT_PATH.items() for n in names]
)
def test_hot_path_binds_enum_members_and_compares(module, name):
    funcs = functions(ast.parse((SRC / module).read_text()))
    assert name in funcs, f"{module} has no function {name}"
    assert breaches(funcs[name]) == []


def test_breaches_finds_enum_attributes_and_min_max_calls():
    source = (
        "def f(a, b, xs):\n"
        "    if a is RobotState.RUNNING:\n"
        "        return min(a, b) + max(xs) + max(a, b, 0)\n"
    )
    assert breaches(functions(ast.parse(source))["f"]) == [
        (2, "RobotState.RUNNING"),
        (3, "max(a, b, 0)"),
        (3, "max(xs)"),
        (3, "min(a, b)"),
    ]


def test_breaches_finds_abs_calls():
    source = "def f(a, b):\n    return abs(a - b) + math.fabs(a) + abs(a, b)\n"
    assert breaches(functions(ast.parse(source))["f"]) == [(2, "abs(a - b)")]


def test_breaches_finds_object_new_and_dict_updates():
    source = (
        "def f(cls, a):\n"
        "    obj = object.__new__(cls)\n"
        "    obj.__dict__.update(a=a)\n"
        "    return tuple.__new__(cls, (a,)), vars(obj).update(a=a), obj.__new__\n"
    )
    assert breaches(functions(ast.parse(source))["f"]) == [
        (2, "object.__new__"),
        (3, "obj.__dict__.update"),
    ]


def test_breaches_finds_named_tuple_class_calls():
    source = (
        "def f(a, b):\n"
        "    h = CommandHeader(a, b, 0, 0, 0)\n"
        "    g = trajectory.BlendGeometry(a, b, 0.0, 0.0, 0.0)\n"
        "    return tuple.__new__(FeedbackFrame, (a, b)), MotionRecord, h, g\n"
    )
    assert breaches(functions(ast.parse(source))["f"]) == [
        (2, "CommandHeader"),
        (3, "trajectory.BlendGeometry"),
    ]


ATTRIBUTE_BUDGET = 29


def test_per_tick_objects_hold_at_most_29_instance_attributes():
    """CPython 3.11 keeps an instance's attributes in its class's shared
    keys only while it has fewer than 30; at 30 the instance ``__dict__``
    becomes a plain dict (``sys.getsizeof`` 296 -> 1584 bytes) and every
    attribute load slows down.  Measured with Python 3.11.7 on a 2-core
    virtual machine, eight loads of one method took 103.5 ns at 29
    attributes and 119.8 ns at 30 (medians of 15 interleaved rounds, 29
    faster in all 15).  Each object is counted after a run, when every
    attribute its methods set exists."""
    plans = build_plans(SETUP_A)
    compiled = compile_plans(plans)
    pose = SETUP_A.start.components()
    runs = [_build_run(compiled, pose, etype) for etype in ExecutionType]
    runs.append((ContinuousMotionProgram(plans), RobotExecutor(initial_pose=pose)))
    counted = {}
    for program, executor in runs:
        run(program, executor, SimConfig())
        for obj in (program, program.plc, executor):
            name = type(obj).__name__
            counted[name] = max(counted.get(name, 0), len(vars(obj)))
    assert set(counted) == {
        "SkillProgram",
        "ContinuousMotionProgram",
        "NativeTriggerProgram",
        "PlcSkillInstance",
        "RobotExecutor",
        "NativeExecutor",
    }
    assert {n: c for n, c in counted.items() if c > ATTRIBUTE_BUDGET} == {}
