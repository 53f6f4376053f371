"""Benchmark of the ``sygus`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed generates the workload's input
files (see ``workloads.py``); the program only sees those files.

``--trace 0`` times the CLI as users run it: one ``python -m sygus`` child
at a time, closed loop, each reaped with ``os.wait4`` for its peak RSS.
It first runs ``sygus check`` over the inputs ``SETUP_PASSES`` times
(``setup_s``), then repeats timed passes of the workload's invocations until
``--seconds`` have gone by since the start, and reports medians.  Each
child's time is scaled to a reference host speed (see ``reference_seconds``).

``--trace 1`` runs the same invocations in this process through
``sygus.cli.run``, alternating untraced and traced passes, and reports the
per-layer numbers; the spans are written to ``.perfbench_out/``.

Every invocation's stdout bytes and exit code are compared with the
expected ones.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PASSES = 5
MIN_PASSES = 3
#: One invocation may take this long before the harness kills it and counts
#: it as failed (a healthy one takes under 3 s).
KILL_LIMIT_S = 30.0
#: Children still running this long after the start are killed, so that a
#: run exits within 180 s; no pass starts in the last KILL_LIMIT_S before it.
RUN_LIMIT_S = 165.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
LAYER_UNITS = {
    "lexer.s": "s",
    "lexer.tokens": "count",
    "lexer.tokens_per_s": "1/s",
    "parser.s": "s",
    "parser.nodes": "count",
    "parser.nodes_per_s": "1/s",
    "checker.s": "s",
    "printer.s": "s",
    "printer.bytes": "bytes",
    "solver.solve_s": "s",
    "solver.expand_s": "s",
    "solver.table_s": "s",
    "solver.table_terms": "count",
    "solver.table_terms_per_s": "1/s",
    "solver.table_max_size": "nodes",
    "solver.search_self_s": "s",
    "solver.search_evals": "count",
    "solver.verify_s": "s",
    "solver.verify_calls": "count",
    "solver.verify_valid_ratio": "ratio",
    "solver.verify_evals": "count",
    "evaluator.calls": "count",
    "evaluator.us_per_call": "us",
    "trace.overhead_ratio": "ratio",
}


#: Seconds one reference sample takes at the reference host speed.
REFERENCE_S = 0.035


@dataclass(frozen=True)
class _Node:
    op: str
    args: tuple


def _ref_tree(depth: int) -> _Node:
    if depth <= 0:
        return _Node("leaf", ())
    return _Node("add" if depth % 2 else "ite",
                 (_ref_tree(depth - 1), _Node("x", ()), _ref_tree(depth - 2)))


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python computation, median of three.

    The CPU speed this process gets changes by 25% and more over seconds,
    because other tenants share the machine.  Each child's wall time is
    scaled by ``REFERENCE_S`` over the mean of the samples taken right
    before and right after it.  The reference builds frozen-dataclass
    trees and hashes them into a dict, like the program's term tables and
    screens, and shares no code with the program.
    """
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        seen: dict = {}
        for i in range(60):
            tree = _ref_tree(8 + i % 3)
            seen[tree] = seen.get(tree, 0) + 1
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class _Killed(BaseException):
    """Raised by SIGALRM in an in-process invocation that ran too long;
    a BaseException so that no handler in the program swallows it."""


def _kill_in_process(signum, frame):
    raise _Killed()


@dataclass(frozen=True)
class Outcome:
    wall_s: float  # launch to exit, scaled to the reference host speed
    raw_wall_s: float  # launch to exit, as measured
    maxrss_kb: int
    ok: bool


class Harness:
    """Runs invocations of one generated workload and checks each result."""

    def __init__(self, workload: workloads.Workload, work: Path, end: float):
        self.workload = workload
        self.work = work
        self.end = end  # time.monotonic() after which every child is killed
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self._reference: float | None = None

    def _record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def _time_left(self) -> float:
        """How long the next invocation may run before it is killed."""
        return max(0.0, min(KILL_LIMIT_S, self.end - time.monotonic()))

    def spawn(self, inv: workloads.Invocation) -> Outcome:
        """One ``python -m sygus`` child, launch to exit."""
        argv = [sys.executable, "-m", "sygus", *inv.args, str(self.work / inv.file)]
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        limit = self._time_left()
        before = self._reference or reference_seconds()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=self.env, cwd=ROOT,
            )
            # A pidfd becomes readable when the child exits, before it is
            # reaped, so the kill below can never hit a recycled pid.
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited, _, _ = select.select([pidfd], [], [], limit)
            finally:
                os.close(pidfd)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._reference = reference_seconds()
        scale = 2 * REFERENCE_S / (before + self._reference)
        ok = (
            bool(exited)
            and proc.returncode == inv.exit_code
            and out_path.read_bytes() == inv.stdout.encode()
            and b"Traceback (most recent call last)" not in err_path.read_bytes()
        )
        self._record(ok)
        return Outcome(wall * scale, wall, usage.ru_maxrss, ok)

    def spawn_pass(self, invocations) -> list[Outcome]:
        return [self.spawn(inv) for inv in invocations]

    def out_of_time(self) -> bool:
        return time.monotonic() > self.end - KILL_LIMIT_S

    def in_process(self, inv: workloads.Invocation, tracer: tracing.Tracer | None) -> float:
        """One invocation through ``sygus.cli.run`` in this process."""
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from sygus import cli

        out, err = io.StringIO(), io.StringIO()
        argv = [*inv.args, str(self.work / inv.file)]
        run_cli = cli.run if tracer is None else tracer.wrap("cli.run", cli.run)
        signal.signal(signal.SIGALRM, _kill_in_process)
        start = time.perf_counter()
        # A zero interval would disarm the timer instead of firing it.
        signal.setitimer(signal.ITIMER_REAL, max(0.001, self._time_left()))
        try:
            code = run_cli(argv, stdout=out, stderr=err)
        except (Exception, SystemExit, _Killed) as e:  # a failed operation
            print(f"perfbench: {inv.file}: {type(e).__name__}: {e}", file=sys.stderr)
            code = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        self._record(code == inv.exit_code and out.getvalue() == inv.stdout)
        return wall

    def result(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }


def _summary(values: list[float]) -> str:
    return f"median of {len(values)}, min {min(values):.4f}, max {max(values):.4f}"


def timed_run(h: Harness, seconds: float, start: float) -> dict:
    setup, raw_setup = [], []
    for _ in range(SETUP_PASSES):
        outcomes = h.spawn_pass(h.workload.setup)
        setup.append(sum(o.wall_s for o in outcomes))
        raw_setup.append(sum(o.raw_wall_s for o in outcomes))
    walls, raw_walls = [], []
    peak_kb = 0
    while len(walls) < MIN_PASSES or time.monotonic() - start < seconds:
        if walls and h.out_of_time():
            break
        outcomes = h.spawn_pass(h.workload.measured)
        walls.append(sum(o.wall_s for o in outcomes))
        raw_walls.append(sum(o.raw_wall_s for o in outcomes))
        peak_kb = max([peak_kb] + [o.maxrss_kb for o in outcomes])
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024,
        "ok_frac": (h.attempted - h.failed) / h.attempted,
    }
    print(f"wall_s: {_summary(walls)} passes of {len(h.workload.measured)} invocations;"
          f" unscaled {_summary(raw_walls)}")
    print(f"setup_s: {_summary(setup)} passes of {len(h.workload.setup)} invocations;"
          f" unscaled {_summary(raw_setup)}")
    return h.result(metrics, END_TO_END_UNITS)


def traced_pass(h: Harness) -> tuple[float, tracing.Tracer]:
    """One pass with every layer boundary traced: its wall time and spans."""
    tracer = tracing.Tracer()
    wall = 0.0
    with tracing.installed(tracer):
        for i, inv in enumerate(h.workload.measured):
            tracer.invocation = i
            wall += h.in_process(inv, tracer)
    return wall, tracer


def traced_run(h: Harness, seconds: float, start: float, out_file: Path) -> dict:
    untraced, traced, tracers = [], [], []
    while len(traced) < 2 or time.monotonic() - start < seconds:
        if traced and h.out_of_time():
            break
        untraced.append(sum(h.in_process(inv, None) for inv in h.workload.measured))
        wall, tracer = traced_pass(h)
        traced.append(wall)
        tracers.append(tracer)
    per_pass = [tracing.layer_metrics(t) for t in tracers]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    solve = metrics["solver.solve_s"]
    if solve:
        shares = ("search_self_s", "table_s", "verify_s", "expand_s")
        print("share of solver.solve_s: " + ", ".join(
            f"{k} {metrics['solver.' + k] / solve:.3f}" for k in shares))
    front = sum(metrics[k] for k in ("lexer.s", "parser.s", "checker.s", "printer.s"))
    print(f"front end: {front:.4f} s per pass; traced passes: {_summary(traced)}")
    out_file.parent.mkdir(exist_ok=True)
    out_file.write_text(json.dumps({
        "span_fields": ["name", "start", "end", "parent", "invocation"],
        "invocations": [[*inv.args, inv.file] for inv in h.workload.measured],
        "passes": [t.spans for t in tracers],
    }))
    print(f"spans written to {out_file.relative_to(ROOT)}")
    return h.result(metrics, LAYER_UNITS)


@contextmanager
def prepared(workload: str, seed: int, end: float) -> Iterator[Harness]:
    """A harness over the workload's files, written for this seed and
    removed afterwards."""
    generated = workloads.generate(workload, seed)
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for name, text in generated.files.items():
            (work / name).write_text(text)
        yield Harness(generated, work, end)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's files are still there
            pass


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description="Benchmark of the sygus CLI.")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    start = time.monotonic()
    if not (SRC / "sygus" / "__main__.py").is_file():
        print(f"perfbench: no sygus package under {SRC}", file=sys.stderr)
        return 2
    # Children inherit this: the reference computation and the program run
    # on the same CPU, whose speed is the one being corrected for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    with prepared(args.workload, args.seed, start + RUN_LIMIT_S) as h:
        if args.trace:
            out_file = ROOT / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.json"
            result = traced_run(h, args.seconds, start, out_file)
        else:
            result = timed_run(h, args.seconds, start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
