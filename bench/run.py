"""Benchmark of the epilink command line, end to end and per layer.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

With ``--trace 0`` each round runs the workload's commands one after
another as subprocesses (one client, closed loop) and the run reports the
end-to-end metrics listed in BENCHMARK.json.  With ``--trace 1`` the same
commands run in this process through ``epilink.cli.main``, alternating an
untraced and a traced round, and the run reports the per-layer metrics.
Either way every output is checked, and the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The console script ``epilink`` runs exactly this.
CLI = [sys.executable, "-c", "import sys; from epilink.cli import main; sys.exit(main())"]
# list-problems launches timed at the start of every round for setup_s.
SETUP_LAUNCHES_PER_ROUND = 3
COMMAND_TIMEOUT_S = 150


class Tally:
    """Operations attempted and failed, and the problems found in outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: workloads.Op, rc: int, out: str, err: str) -> bool:
        """Count one operation; True when it exited 0 and its output checks."""
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            print(f"failed (exit {rc}): epilink {' '.join(op.argv)}\n{err[-400:]}", file=sys.stderr)
            return False
        try:
            found = op.check(out, err)
        except Exception:
            found = [f"unreadable output:\n{traceback.format_exc()}"]
        for problem in found:
            self.problems.append(f"epilink {' '.join(op.argv)}: {problem}")
        return not found


def _stolen_s() -> float:
    """Seconds the hypervisor ran something else while this machine's CPUs
    were ready to run: the steal column of /proc/stat, 0 where there is none."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Clock:
    """Elapsed time of work whose CPU time ``cpu()`` reads, less its share
    of the time the hypervisor stole from the machine meanwhile.

    The steal column of /proc/stat (0 on bare metal) sums over all CPUs
    and counts only while a CPU has work to run.  The work wanted
    ``used + stolen`` CPU-seconds and got ``used``, so at any degree of
    parallelism it would have taken ``elapsed * used / (used + stolen)``
    had nothing been stolen.
    """

    def __init__(self, cpu):
        self.cpu = cpu
        self.t0, self.stolen0, self.cpu0 = time.perf_counter(), _stolen_s(), cpu()

    def elapsed(self) -> float:
        elapsed = time.perf_counter() - self.t0
        stolen = _stolen_s() - self.stolen0
        used = self.cpu() - self.cpu0
        if stolen <= 0 or used <= 0:
            return elapsed
        return elapsed * used / (used + stolen)


def _rounds(seconds: float, run_round, min_rounds: int = 1) -> int:
    """Run whole rounds, at least ``min_rounds``, as many as come nearest to
    filling ``seconds``: another starts while less than half of it would
    run past the end.  Returns the number of rounds run."""
    start = time.perf_counter()
    lengths = []
    while True:
        t = time.perf_counter()
        run_round()
        lengths.append(time.perf_counter() - t)
        if (len(lengths) >= min_rounds
                and time.perf_counter() - start + statistics.median(lengths) / 2 > seconds):
            return len(lengths)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _launch(argv: list[str], env) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(CLI + argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(argv, -9, "", "timed out")


def _cpu_children() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _kinds_used(ops: list[workloads.Op]) -> set[str]:
    kinds = set()
    for op in ops:
        if "--kind" in op.argv:
            kinds.add(op.argv[op.argv.index("--kind") + 1])
        if "--spec" in op.argv:
            kinds.add("lookup-table")
    return kinds


def end_to_end(ops: list[workloads.Op], seconds: float, tally: Tally) -> dict[str, float]:
    env = _env()
    kinds = _kinds_used(ops)
    setup, walls, cpus = [], [], []

    def run_round():
        for _ in range(SETUP_LAUNCHES_PER_ROUND):
            clock = Clock(_cpu_children)
            proc = _launch(["list-problems"], env)
            setup.append(clock.elapsed())
            if proc.returncode != 0 or not kinds <= set(proc.stdout.split()):
                tally.problems.append(f"list-problems: exit {proc.returncode}, "
                                      f"output {proc.stdout!r} lacks some of {sorted(kinds)}")
        clock = Clock(_cpu_children)
        procs = [_launch(op.argv, env) for op in ops]
        walls.append(clock.elapsed())
        cpus.append(_cpu_children() - clock.cpu0)
        for op, proc in zip(ops, procs):
            tally.record(op, proc.returncode, proc.stdout, proc.stderr)

    rounds = _rounds(seconds, run_round)
    print(f"{rounds} rounds, {len(setup)} setup launches", file=sys.stderr)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_kb / 1024,
    }


def _in_process(cli, op: workloads.Op) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def per_layer(ops: list[workloads.Op], seconds: float, tally: Tally,
              spans_path: str | None) -> dict[str, float]:
    sys.path.insert(0, str(SRC))
    import epilink.cli as cli
    import tracing

    plain, traced, layers = [], [], []
    last = None

    def run_round():
        # Each command runs once plain and once traced, in turn first, so
        # warm-up and drift fall on both sides of trace.overhead_s alike.
        nonlocal last
        tracer = tracing.Tracer()
        reported = Counter()
        wall = {False: 0.0, True: 0.0}
        for i, op in enumerate(ops):
            first = (i + len(layers)) % 2 == 0
            for with_trace in (first, not first):
                with tracing.installed(tracer) if with_trace else contextlib.nullcontext():
                    clock = Clock(time.process_time)
                    rc, out, err = _in_process(cli, op)
                    wall[with_trace] += clock.elapsed()
                if tally.record(op, rc, out, err) and with_trace and op.evaluations:
                    reported.update(op.evaluations(out))
        plain.append(wall[False])
        traced.append(wall[True])
        metrics = tracer.metrics()
        for counter, value in reported.items():
            if metrics[counter] != value:
                tally.problems.append(f"traced {counter} = {metrics[counter]}, "
                                      f"outputs report {value}")
        layers.append(metrics)
        last = tracer

    # Counts are compared between rounds, so there must be two.
    rounds = _rounds(seconds, run_round, min_rounds=2)
    print(f"{rounds} rounds", file=sys.stderr)
    out = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                tally.problems.append(f"count {name} differs between rounds: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    _report_spans(last, spans_path)
    return out


def _report_spans(tracer, spans_path: str | None) -> None:
    """Per-span totals of the last traced round to stderr, raw spans to a file."""
    rows = sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"])
    print(f"{'span':40} {'calls':>9} {'incl s':>9} {'self s':>9}", file=sys.stderr)
    for name, row in rows:
        print(f"{name:40} {row['calls']:9d} {row['s']:9.3f} {row['self_s']:9.3f}", file=sys.stderr)
    for name, value in sorted(tracer.counts.items()):
        print(f"{name:40} {value:9d}", file=sys.stderr)
    if spans_path:
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", help="with --trace 1, write the last traced round's spans here")
    args = parser.parse_args(argv)

    if not (SRC / "epilink" / "cli.py").is_file():
        print(f"error: no epilink sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = config["per_layer" if args.trace else "end_to_end"]

    tally = Tally()
    spec_dir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, spec_dir)
        if args.trace:
            measured = per_layer(ops, args.seconds, tally, args.spans)
        else:
            measured = end_to_end(ops, args.seconds, tally)
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)

    for problem in tally.problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
