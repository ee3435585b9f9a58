"""Command line front end.

Exit codes: 0 on success, 2 when a run fails (robot error, timeout, bad
scenario file), 3 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    SETUP_A,
    SETUP_B,
    parse_scenario,
    raw_csv,
    render_table,
    run_benchmark,
    summary_csv,
)
from .core import ExecutionType
from .fieldbus_sim import SimTimeout
from .plc_trigger import ProtocolError
from .wire import WireError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems are exit code 3, distinct from run failures
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="skillbench", description="skill execution-time benchmark")
    sub = p.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run the pick-and-place benchmark")
    runp.add_argument(
        "--setup",
        default="a",
        help="built-in setup 'a' or 'b', or a scenario file path",
    )
    runp.add_argument(
        "--etype",
        default="all",
        choices=["rc", "sm", "cm", "all"],
        help="execution type to measure",
    )
    runp.add_argument("--reps", type=int, default=25, help="repetitions per type")
    runp.add_argument("--seed", type=int, default=0, help="phase jitter seed")
    runp.add_argument("--format", default="table", choices=["table", "csv"])
    runp.add_argument(
        "--raw", metavar="PATH", help="also write per-repetition samples as CSV"
    )
    runp.add_argument(
        "--trace", metavar="PATH", help="write the last repetition's bus trace"
    )
    return p


def _resolve_setup(spec: str):
    if spec == "a":
        return SETUP_A
    if spec == "b":
        return SETUP_B
    return parse_scenario(Path(spec).read_text())


def _run(args) -> int:
    if args.reps < 1:
        print("skillbench: error: --reps must be >= 1", file=sys.stderr)
        return 3
    cfg = _resolve_setup(args.setup)
    if args.etype == "all":
        etypes = (ExecutionType.RC, ExecutionType.SM, ExecutionType.CM)
    else:
        etypes = (ExecutionType(args.etype),)
    report = run_benchmark(cfg, etypes=etypes, reps=args.reps, seed=args.seed)
    reports = [report]
    if args.format == "csv":
        sys.stdout.write(summary_csv(reports))
    else:
        sys.stdout.write(render_table(reports))
    if args.raw:
        Path(args.raw).write_text(raw_csv(reports))
    if args.trace:
        Path(args.trace).write_text(report.last_trace.export_text())
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        parser.error(f"unknown command {args.command!r}")
    except (ProtocolError, SimTimeout, WireError, OSError, ValueError) as e:
        print(f"skillbench: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
