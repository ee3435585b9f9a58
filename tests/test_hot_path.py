"""The functions that run once per task activation, plan, feedback image
or record keep three rules that CPython 3.11 rewards: enum members are read
from module-level names bound once, not as attributes of their class,
two- or three-value minima and maxima are comparisons, not calls of the
builtin ``min`` or ``max``, and an absolute value is a conditional
negation, not a call of the builtin ``abs``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "skillbench"

HOT_PATH = {
    "fieldbus_sim.py": ("run",),
    "robot_executor.py": (
        "_CyclicExecutor.tick",
        "_CyclicExecutor.next_wakeup",
        "_CyclicExecutor._apply_frame",
        "RobotExecutor._load",
        "_MotionEngine.ingest",
        "_MotionEngine.advance",
        "_MotionEngine._activate",
        "_MotionEngine._complete",
    ),
    "plc_trigger.py": (
        "PlcSkillInstance.cycle",
        "PlcSkillInstance._refill",
        "SkillProgram.plc_tick",
    ),
    "wire.py": (
        "pack_feedback_frame",
        "_pack_feedback",
        "decode_feedback_frame",
        "decode_command_header",
        "decode_record",
        "encode_plan",
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
    builtin ``min`` or ``max`` with two or more positional arguments and
    each call of the builtin ``abs``, in order."""
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
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and (
                (node.func.id in ("min", "max") and len(node.args) >= 2)
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
        (3, "min(a, b)"),
    ]


def test_breaches_finds_abs_calls():
    source = "def f(a, b):\n    return abs(a - b) + math.fabs(a) + abs(a, b)\n"
    assert breaches(functions(ast.parse(source))["f"]) == [(2, "abs(a - b)")]
