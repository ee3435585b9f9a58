#!/usr/bin/env python3
"""A mutation ledger: which deliberate faults of the program tier-1 catches.

Each mutant in ``MUTANTS`` names a file under ``src/skillbench``, a text
that occurs in it exactly once, the text that replaces it and the rule the
replacement breaks.  For each mutant the script copies the repository to a
temporary directory, applies the mutant there and runs the tier-1 suite
with ``-x`` and a timeout, two mutants at a time.  The suite failing kills
the mutant, passing lets it survive, and outlasting the timeout times it
out.  A mutant whose text does not occur exactly once is recorded as
absent and not run.  The working tree is only read.

    python3 tools/mutants.py --out LEDGER.json [--repo PATH] [--only NAME ...]

``--repo`` defaults to the repository holding this script, so the same
list can be run against another checkout, such as the parent commit;
``--only`` re-runs the named mutants, say after a test meant to kill one.
The ledger lists each mutant with its outcome, the first failing test
and the seconds the suite took, then the kill ratio over the mutants run.
Standard library only; not part of tier-1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

JOBS = 2  # the suite is single-threaded; more would oversubscribe two cores
TIMEOUT_S = 600  # tier-1 takes about 13.5 s unmutated
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider")
SKIP = {".git", "__pycache__", ".hypothesis", ".pytest_cache"}


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/skillbench
    text: str
    replacement: str
    rule: str


MUTANTS = (
    Mutant(
        "plan-image-f32-fallback",
        "wire.py",
        "if image is None or _F32_TOP in image or _F32_BOTTOM in image:",
        "if image is None:",
        "a scalar that struct rounds onto the largest f32 still meets the f32 range check",
    ),
    Mutant(
        "f32-bound",
        "wire.py",
        "if not _F32_LOWEST <= v <= _F32_MAX:",
        "if not _F32_LOWEST <= v <= 3.5e38:",
        "the f32 limit is exactly 3.4028235e38",
    ),
    Mutant(
        "record-seq-wrap",
        "wire.py",
        "flags, seq & 0xFFFF,",
        "flags, seq,",
        "record_seq is the record index modulo 65536",
    ),
    Mutant(
        "joint-flag",
        "wire.py",
        "_FLAG_JOINT if mtype is _PTP_JOINT else 0",
        "0",
        "a PTP_JOINT record carries the joint flag",
    ),
    Mutant(
        "continuation-flag",
        "wire.py",
        "(mtype, _FLAG_CONTINUATION, seq",
        "(mtype, 0, seq",
        "a circular motion's auxiliary record carries the continuation flag",
    ),
    Mutant(
        "aux-before-target",
        "wire.py",
        """        if mtype is _CIRCULAR:
            seq += 1
            values += (mtype, _FLAG_CONTINUATION, seq & 0xFFFF, *m.aux_point, 0.0, 0.0, 0.0)
            values += (*tail, 0)
        seq += 1
        flags = _FLAG_JOINT if mtype is _PTP_JOINT else 0
        values += (mtype, flags, seq & 0xFFFF, *m.target.components(), *tail, m.force_setpoint)
""",
        """        seq += 1
        flags = _FLAG_JOINT if mtype is _PTP_JOINT else 0
        values += (mtype, flags, seq & 0xFFFF, *m.target.components(), *tail, m.force_setpoint)
        if mtype is _CIRCULAR:
            seq += 1
            values += (mtype, _FLAG_CONTINUATION, seq & 0xFFFF, *m.aux_point, 0.0, 0.0, 0.0)
            values += (*tail, 0)
""",
        "a circular motion's auxiliary record comes before its target",
    ),
    Mutant(
        "first-culprit",
        "wire.py",
        "        image = b\"\".join(_pack_record(",
        "        for i in range(0, len(values), 15):\n"
        "            _check_f32(values[i + 3 : i + 12], \"scalar\")\n"
        "        image = b\"\".join(_pack_record(",
        "an unencodable plan names its first bad field, record by record",
    ),
    Mutant(
        "explode-continuation",
        "wire.py",
        "                flags == _FLAG_CONTINUATION,\n",
        "                False,\n",
        "explode_plan gives the records the wire delivers, continuation flag included",
    ),
    Mutant(
        "decode-tool-base",
        "wire.py",
        "approx, tool, base, force, joint, cont)",
        "approx, base, tool, force, joint, cont)",
        "decode_record builds tool_frame before base_frame, in field order",
    ),
    Mutant(
        "decode-joint-cont",
        "wire.py",
        "force, joint, cont)",
        "force, cont, joint)",
        "decode_record builds joint_target before continuation, in field order",
    ),
    Mutant(
        "decode-vel-acc",
        "wire.py",
        "vel, acc, approx, tool, base, force, joint, cont)",
        "acc, vel, approx, tool, base, force, joint, cont)",
        "decode_record builds velocity before acceleration, in field order",
    ),
    Mutant(
        "explode-tool-base",
        "wire.py",
        "                tool,\n                base,\n",
        "                base,\n                tool,\n",
        "explode_plan builds tool_frame before base_frame, in field order",
    ),
    Mutant(
        "explode-joint-cont",
        "wire.py",
        "                flags == _FLAG_JOINT,\n                flags == _FLAG_CONTINUATION,\n",
        "                flags == _FLAG_CONTINUATION,\n                flags == _FLAG_JOINT,\n",
        "explode_plan builds joint_target before continuation, in field order",
    ),
    Mutant(
        "explode-vel-acc",
        "wire.py",
        "                vel,\n                acc,\n",
        "                acc,\n                vel,\n",
        "explode_plan builds velocity before acceleration, in field order",
    ),
    Mutant(
        "decode-feedback-cur-ack",
        "wire.py",
        "(st, err, cur, ack, (x, y, z, a, b, c))",
        "(st, err, ack, cur, (x, y, z, a, b, c))",
        "decode_feedback_frame builds cur_exec before acked_seq, in field order",
    ),
    Mutant(
        "feedback-new-cur-ack",
        "wire.py",
        "_tuple_new(cls, (state, error_code, cur_exec, acked_seq, pose))",
        "_tuple_new(cls, (state, error_code, acked_seq, cur_exec, pose))",
        "FeedbackFrame builds cur_exec before acked_seq, in field order",
    ),
    Mutant(
        "header-through-class",
        "wire.py",
        "_tuple_new(CommandHeader, (word, count, total, loaded, seq))",
        "CommandHeader(word, count, total, loaded, seq)",
        "decode_command_header builds its header with tuple.__new__, not through the class",
    ),
    Mutant(
        "header-total-loaded",
        "wire.py",
        "(CommandHeader, (word, count, total, loaded, seq))",
        "(CommandHeader, (word, count, loaded, total, seq))",
        "decode_command_header builds total_no before loaded_through, in field order",
    ),
    Mutant(
        "command-slots-bytes",
        "wire.py",
        "slots = tuple(map(bytes, slots))",
        "slots = tuple(slots)",
        "CommandFrame holds its slots as bytes, whatever buffers it was given",
    ),
    Mutant(
        "feedback-regression",
        "plc_trigger.py",
        "if cur < self._last_cur:",
        "if cur < self._last_cur - 1:",
        "curExec never goes back, not even by one record",
    ),
    Mutant(
        "refill-window",
        "plc_trigger.py",
        "target = cur + SLOT_COUNT - 1",
        "target = cur + SLOT_COUNT - 2",
        "the PLC keeps loadedThrough = curExec + 4",
    ),
    Mutant(
        "frame-seq-wrap",
        "plc_trigger.py",
        "self._frame_seq = (self._frame_seq + 1) & 0xFFFF",
        "self._frame_seq = self._frame_seq + 1",
        "frame_seq counts modulo 65536",
    ),
    Mutant(
        "refill-rotation-slot",
        "plc_trigger.py",
        "slot_for_record(target + 1)",
        "slot_for_record(target)",
        "a refilled window rotates from the slot of record loadedThrough - 4",
    ),
    Mutant(
        "refill-rotation-direction",
        "plc_trigger.py",
        "window[-k:] + window[:-k]",
        "window[k:] + window[:k]",
        "a refill puts each record of its window in slot (m - 1) % 5",
    ),
    Mutant(
        "refill-window-start",
        "plc_trigger.py",
        "target - SLOT_COUNT : target]",
        "target - SLOT_COUNT + 1 : target]",
        "a refill packs the five records that end at loadedThrough",
    ),
    Mutant(
        "keep-stale-plan",
        "robot_executor.py",
        "if corners[-1] is not None and plan is not None and plan[1] == len(motions):",
        "if False:",
        "a record whose corner blends onto the plan's end drops the plan",
    ),
    Mutant(
        "loaded-through-regression",
        "robot_executor.py",
        "elif loaded < self._known:",
        "elif loaded < self._known - 1:",
        "loadedThrough never goes back, not even by one record",
    ),
    Mutant(
        "window-past-stop",
        "robot_executor.py",
        "while end < len(motions) and corners[end - 1] is not None:",
        "while end < len(motions) and not motions[end][0].joint_target:",
        "a solved window ends at its first exact stop",
    ),
    Mutant(
        "solve-a-stop",
        "robot_executor.py",
        "elif corners[k] is None:",
        "elif False:",
        "a motion outside the plan that ends at an exact stop needs no solve",
    ),
    Mutant(
        "cut-plan-at-stop",
        "robot_executor.py",
        "if corners[-1] is not None and plan is not None and plan[1] == len(motions):",
        "if plan is not None and plan[1] == len(motions):",
        "a record whose corner stops leaves the plan before it whole",
    ),
    Mutant(
        "starvation-limit",
        "robot_executor.py",
        "if self._hungry >= self._starvation_limit:",
        "if self._hungry > self._starvation_limit:",
        "the robot faults at the starvation limit, not one cycle after it",
    ),
    Mutant(
        "initial-pose-unchecked",
        "robot_executor.py",
        '        _check_f32(self.pose, "pose component")\n',
        "",
        "an executor rejects an initial pose beyond f32 when it is built",
    ),
    Mutant(
        "initial-pose-length",
        "robot_executor.py",
        '        if len(self.pose) != 6:\n            raise ValueError("pose needs six components")\n',
        "",
        "an executor rejects an initial pose without six components when it is built",
    ),
    Mutant(
        "us-rounding",
        "robot_executor.py",
        "math.ceil(seconds * 1e6 - 1e-12)",
        "math.ceil(seconds * 1e6)",
        "a duration rounds up to whole µs, forgiving float noise",
    ),
    Mutant(
        "bus-at-or-after-plc-publish",
        "fieldbus_sim.py",
        "due = t + (phase_bus - t) % bus_cycle",
        "due = t + 1 + (phase_bus - t - 1) % bus_cycle",
        "the bus runs at the first bus grid point at or after a PLC publish",
    ),
    Mutant(
        "bus-strictly-after-robot-publish",
        "fieldbus_sim.py",
        "due = t + 1 + (phase_bus - t - 1) % bus_cycle",
        "due = t + (phase_bus - t) % bus_cycle",
        "the bus runs at the first bus grid point strictly after a robot publish",
    ),
    Mutant(
        "plc-strictly-after-feedback",
        "fieldbus_sim.py",
        "due = t + 1 + (phase_plc - t - 1) % plc_cycle",
        "due = t + (phase_plc - t) % plc_cycle",
        "the PLC runs at the first PLC grid point strictly after a feedback delivery",
    ),
    Mutant(
        "robot-at-or-after-command",
        "fieldbus_sim.py",
        "due = t + (phase_robot - t) % robot_cycle",
        "due = t + 1 + (phase_robot - t - 1) % robot_cycle",
        "the robot runs at the first robot grid point at or after a command delivery",
    ),
    Mutant(
        "robot-wakes-after-its-tick",
        "fieldbus_sim.py",
        "if due <= t:\n                    due = t + 1\n",
        "if due <= t:\n                    due = t + 1 + robot_cycle\n",
        "a robot whose wakeup is not after its tick runs at the next robot grid point",
    ),
    Mutant(
        "log-decoded-header",
        "fieldbus_sim.py",
        '                decode_command_header(out)  # a malformed image raises here\n'
        '                log((t, "plc", "cmd", None, out))\n',
        '                log((t, "plc", "cmd", decode_command_header(out), out))\n',
        "a run logs a published command image without its decoded header",
    ),
    Mutant(
        "log-decoded-feedback",
        "fieldbus_sim.py",
        'log((t, "robot", "fb", None, out))',
        'log((t, "robot", "fb", robot_fb, out))',
        "a run logs a published feedback image without its decoded frame",
    ),
    Mutant(
        "zero-leg-stop",
        "trajectory.py",
        "        return None\n    angle = turn_angle(prev_pt, corner, next_pt)",
        "        pass\n    angle = turn_angle(prev_pt, corner, next_pt)",
        "a corner with a zero-length leg stops",
    ),
    Mutant(
        "arc-radius-length",
        "trajectory.py",
        "(angle, radius, radius * angle, v_blend",
        "(angle, radius * angle, radius, v_blend",
        "a blend holds its radius before its arc length, in field order",
    ),
    Mutant(
        "corner-leg-rule",
        "trajectory.py",
        ">= 2.0 * approx",
        ">= 1.9 * approx",
        "a corner blends only when both legs are at least twice the approx distance",
    ),
    Mutant(
        "reversal-threshold",
        "trajectory.py",
        "and angle < math.pi - _REVERSAL_EPS",
        "and angle < math.pi",
        "a corner within 1e-9 rad of a reversal stops",
    ),
    Mutant(
        "degrade-keep",
        "trajectory.py",
        "if with_arc > with_stop:",
        "if with_arc >= with_stop:",
        "a blend that ties an exact stop is kept",
    ),
    Mutant(
        "collinear-threshold",
        "trajectory.py",
        "if angle > COLLINEAR_EPS and not (",
        "if angle > 0.0 and not (",
        "a corner flatter than COLLINEAR_EPS passes through without an approx distance",
    ),
    Mutant(
        "fallback-moving-entry",
        "trajectory.py",
        "start = 0 if entry_speed == 0.0 else -1",
        "start = 0",
        "the run fallback exempts a run entered at a nonzero committed speed",
    ),
    Mutant(
        "forward-span",
        "trajectory.py",
        "if i > hi and v == fwd[i]:",
        "if i >= hi and v == fwd[i]:",
        "a later round's forward pass runs one corner past the last dropped corner",
    ),
    Mutant(
        "backward-span",
        "trajectory.py",
        "elif i < lo:",
        "elif i <= lo:",
        "a later round's backward pass runs one corner below the first dropped corner",
    ),
    Mutant(
        "retest-span",
        "trajectory.py",
        "range(i, top + 2)",
        "range(i, top + 1)",
        "a later round re-tests the arcs within one corner of a changed speed",
    ),
    Mutant(
        "retest-after-stuck",
        "trajectory.py",
        "test_all = entry_stuck",
        "test_all = False",
        "the round after one that found the entry speed stuck re-tests every arc",
    ),
    Mutant(
        "robot-error-trace",
        "fieldbus_sim.py",
        'trace.add(t, "robot", "error", f"{type(e).__name__}: {e}")',
        "pass",
        "an exception raised in a robot tick is traced before it propagates",
    ),
    Mutant(
        "plc-before-bus",
        "fieldbus_sim.py",
        "        if plc_due == t:\n",
        "        if plc_due == t and bus_due != t:\n",
        "at a tie the PLC runs before the bus",
    ),
    Mutant(
        "solved-window-lists",
        "robot_executor.py",
        "return tuple(speeds), tuple(blends), tuple(straight)",
        "return speeds, blends, straight",
        "a solved window is cached as tuples, so no executor can change another's plan",
    ),
    Mutant(
        "window-cache-size",
        "robot_executor.py",
        "@lru_cache(maxsize=8)\ndef _solve_window(",
        "@lru_cache(maxsize=4)\ndef _solve_window(",
        "the cache keeps the six windows of setups A and B over a round of both",
    ),
    Mutant(
        "default-solve-cached",
        "robot_executor.py",
        "_solve = staticmethod(_solve_window.__wrapped__)",
        "_solve = staticmethod(_solve_window)",
        "an executor that bench._build_run did not build solves without the cache",
    ),
    Mutant(
        "scenario-name-one-line",
        "bench.py",
        "or name != name.strip() or len(name.splitlines()) > 1:",
        ":",
        "a scenario name is one line without surrounding whitespace",
    ),
    Mutant(
        "reps-an-int",
        "bench.py",
        "if isinstance(reps, bool) or not isinstance(reps, int):",
        "if False:",
        "run_benchmark refuses a reps that is a bool or not an int",
    ),
    Mutant(
        "etype-a-member",
        "bench.py",
        "if not isinstance(etype, ExecutionType):",
        "if False:",
        "run_benchmark refuses an etype that is not an ExecutionType",
    ),
    Mutant(
        "scenario-key-once",
        "bench.py",
        "if key in kwargs:",
        "if False:",
        "a scenario file sets each field at most once",
    ),
    Mutant(
        "planner-lin-takes-ptp",
        "planner.py",
        "lin = mtype is _LIN",
        "lin = False",
        "a LIN motion takes the lin dynamics, not the ptp ones",
    ),
    Mutant(
        "planner-accurate-path-approx",
        "planner.py",
        "cfg.default_approx if label is PathLabel.BLENDING else 0.0",
        "cfg.default_approx if label is not PathLabel.ACCURATE_STOP else 0.0",
        "only a BLENDING motion takes the default approx",
    ),
    Mutant(
        "planner-chain-tolerance",
        "planner.py",
        "_CHAIN_TOL = 1e-9",
        "_CHAIN_TOL = 1e-6",
        "a process chains within 1e-9 mm and no further",
    ),
    Mutant(
        "planner-unlabeled-transit",
        "planner.py",
        "label = item.label or PathLabel.BLENDING",
        "label = item.label or PathLabel.ACCURATE_PATH",
        "an unlabeled transit blends",
    ),
    Mutant(
        "planner-group-ends-exact",
        "planner.py",
        "if last.approx_distance != 0.0:",
        "if False:",
        "each group's last motion ends exactly on its target",
    ),
    Mutant(
        "planner-pre-direction",
        "planner.py",
        "_offset(entry, entry, target, -cfg.pre_post_length)",
        "_offset(entry, entry, target, cfg.pre_post_length)",
        "a pre move approaches the primary path along its own direction",
    ),
    Mutant(
        "repetition-solve-uncached",
        "bench.py",
        "executor._solve = _solve_window",
        "pass",
        "the repetitions of a compiled setup solve through the cache",
    ),
)


def _ignore(directory, names):
    """Caches, VCS data and benchmark output stay out of the copy."""
    skip = [n for n in names if n in SKIP]
    if Path(directory).name == "perfbench" and "out" in names:
        skip.append("out")
    return skip


def first_failure(output: str) -> str | None:
    """The first ``FAILED`` or ``ERROR`` line of pytest's short summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ", 1)[0]
    return None


def run_mutant(repo: Path, mutant: Mutant) -> dict:
    entry = {"name": mutant.name, "path": mutant.path, "rule": mutant.rule}
    source = (repo / "src" / "skillbench" / mutant.path).read_text()
    if source.count(mutant.text) != 1:
        return {**entry, "status": "absent"}
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(repo, copy, ignore=_ignore)
        target = copy / "src" / "skillbench" / mutant.path
        target.write_text(source.replace(mutant.text, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        t0 = time.perf_counter()
        # a session of its own, so a timeout ends the suite's children too
        proc = subprocess.Popen(
            (sys.executable, *TIER1),
            cwd=copy,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        try:
            output, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {**entry, "status": "timeout", "seconds": round(time.perf_counter() - t0, 1)}
    seconds = round(time.perf_counter() - t0, 1)
    if proc.returncode == 0:
        return {**entry, "status": "survived", "seconds": seconds}
    return {
        **entry,
        "status": "killed",
        "first_failure": first_failure(output),
        "seconds": seconds,
    }


def main(argv=None) -> int:
    here = Path(__file__).resolve().parents[1]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repo", type=Path, default=here, help="repository to mutate (read only)")
    p.add_argument("--out", type=Path, required=True, help="ledger to write")
    p.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    args = p.parse_args(argv)
    mutants = [m for m in MUTANTS if not args.only or m.name in args.only]
    unknown = set(args.only or ()) - {m.name for m in MUTANTS}
    if unknown:
        p.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    repo = args.repo.resolve()
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        entries = list(pool.map(lambda m: run_mutant(repo, m), mutants))
    ran = [e for e in entries if e["status"] != "absent"]
    killed = sum(e["status"] == "killed" for e in ran)
    ledger = {
        "mutants": entries,
        "run": len(ran),
        "killed": killed,
        "kill_ratio": round(killed / len(ran), 3) if ran else None,
    }
    args.out.write_text(json.dumps(ledger, indent=1) + "\n")
    for e in entries:
        where = e.get("first_failure") or ""
        print(f"{e['status']:<9} {e.get('seconds', ''):>6} {e['name']:<34} {where}")
    print(f"killed {killed} of {len(ran)} mutants run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
