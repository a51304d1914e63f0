#!/usr/bin/env python3
"""The loopinv benchmark: cold CLI commands, checked and timed.

    python3 bench/run.py --workload table-d2 --seed 1 --seconds 30 --trace 0

Load is a closed loop with one client: it runs one ``loopinv`` command
at a time, each in a fresh interpreter (``bench/child.py``), so the
package's module-level memos start empty as they do for a user.  It
starts another command while the last one's duration still fits in
``--seconds``, and always runs at least one.  Every command's output
goes through the correctness gate (``bench/gate.py``); a failing command
counts its operations as failed and is never timed.

``--trace 0`` prints the end-to-end metrics, medians over the commands
of the run.  ``--trace 1`` runs each command twice, untraced and traced
(``bench/tracing.py``), and prints the per-layer metrics.  The last line
of stdout is one JSON object; the lines before it are for people.  The
full record, with run metadata, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import gate
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 9  # import-only interpreters per run, for the set-up median
RUN_LIMIT_S = 170  # a run must end within 180 s; no command outlives this


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "dims" or "fuzz"
    d: int
    level: int
    workers: int = 1
    trials: int = 0

    def cli_args(self, seed: int) -> list[str]:
        if self.command == "dims":
            args = ["dims", "--d", str(self.d), "--max-level", str(self.level),
                    "--format", "json"]
            return args + (["--workers", str(self.workers)] if self.workers > 1 else [])
        return ["fuzz", "--d", str(self.d), "--level", str(self.level),
                "--trials", str(self.trials), "--seed", str(seed), "--format", "json"]

    def ops(self) -> int:
        if self.command == "dims":
            return self.level * len(gate.COLUMNS)
        return 3 * self.trials

    def check(self, seed: int, exit_code: int, stdout: str) -> gate.GateResult:
        if self.command == "dims":
            return gate.check_table(self.d, self.level, exit_code, stdout)
        return gate.check_fuzz(self.d, self.level, self.trials, seed, exit_code, stdout)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table-d2", "deepest two-letter table that fits the run budget; "
                 "bound by building the right-closure table, serial", "dims", 2, 9),
        Workload("table-d3", "default d=3 cap: largest elimination share, and the "
                 "only workload on the CLI worker pool", "dims", 3, 7, workers=2),
        Workload("fuzz-d2", "path-signature oracle: many small Chen products and "
                 "pairings against the invariant bases, no table", "fuzz", 2, 4,
                 trials=200),
    )
}
# tiny sizes for the benchmark's own tests
SMOKE = {
    "table-d2": {"level": 5},
    "table-d3": {"level": 4},
    "fuzz-d2": {"trials": 2},
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checks_per_s": "1/s",
}

TENSOR = list(dict.fromkeys(tracing.INVARIANTS_TO_TENSOR + tracing.PATHS_TO_TENSOR))
# per-layer metric -> span name whose self time it sums
SELF_TIME = {
    **{"tensor.%s_s" % f: "tensor." + f for f in TENSOR},
    **{"linalg.%s_s" % f: "linalg." + f for f in tracing.LINALG},
    **{"invariants.%s.self_s" % s: "invariants." + s for s in tracing.INVARIANT_SPACES.values()},
    **{"words.%s_s" % f: "words." + f for f in tracing.INVARIANTS_TO_WORDS},
    **{"paths.%s_s" % f: "paths." + f for f in tracing.PATHS_OWN},
    **{"paths.fuzz.%s_s" % s: "paths.fuzz." + s for s in tracing.FUZZ_SUITES},
    "cli.self_s": "cli",
}
# per-layer metric -> span name whose spans it counts
CALLS = {
    **{"tensor.%s.calls" % f: "tensor." + f for f in TENSOR},
    "paths.signatures": "paths.path_signature",
}
# counts the traced child reports itself
COUNTED = {
    "tensor.closure_cache_entries": "count",
    "linalg.rows_in": "count",
    "linalg.nnz_in": "count",
    "linalg.rank_out": "count",
    "linalg.max_coeff_bits": "bits",
}
PER_LAYER = {
    **{name: "s" for name in SELF_TIME},
    **{name: "count" for name in CALLS},
    **COUNTED,
    "linalg.useful_ratio": "ratio",
    "invariants.cells": "count",
    "paths.fuzz.checks": "count",
    "proc.cpu_s": "s",
    "proc.parallelism": "ratio",
    "trace.overhead": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.spans": "count",
}
EXACT_UNITS = ("count", "bits")


# ---------------------------------------------------------------------------
# one command in a fresh interpreter
# ---------------------------------------------------------------------------


def spawn(flags: list[str], cli_args: list[str], timeout: float) -> dict:
    """Run child.py; return its result plus set-up and total duration.

    Raises RuntimeError when the child dies without a result.
    """
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(SRC), *flags, "--", *cli_args]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise RuntimeError("timed out after %.0f s" % exc.timeout) from None
    ended = time.monotonic()
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError("child exited %d: %s" % (proc.returncode, tail[0]))
    result = json.loads(lines[-1])
    result["setup_s"] = result["imported_at"] - started
    result["duration_s"] = ended - started
    return result


def run_command(workload: Workload, seed: int, timeout: float, spans: Path | None = None):
    """One gated command; returns (result or None, gate result)."""
    flags = ["--spans", str(spans)] if spans else []
    try:
        result = spawn(flags, workload.cli_args(seed), timeout)
    except RuntimeError as exc:
        verdict = gate.GateResult(workload.ops())
        verdict.fail(str(exc))
        return None, verdict
    verdict = workload.check(seed, result["exit"], result["stdout"])
    return (result if verdict.ok else None), verdict


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: machine context, never a divisor."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def commit() -> str:
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Run:
    """Commands of one benchmark run, with their gate verdicts."""

    def __init__(self, workload: Workload, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.deadline = self.started + seconds
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.log: list[str] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def command(self, seed: int, spans: Path | None = None):
        result, verdict = run_command(self.workload, seed, self.remaining(), spans)
        self.attempted += verdict.ops
        self.failed += verdict.failed
        self.reasons += verdict.reasons
        label = "traced" if spans else "untraced"
        if result is None:
            self.log.append("%s seed=%d FAILED: %s" % (label, seed, "; ".join(verdict.reasons)))
        else:
            result["checks"] = verdict.checks
            self.log.append("%s seed=%d ok wall_s=%.3f setup_s=%.3f peak_rss_mb=%.1f ops=%d"
                            % (label, seed, result["wall_s"], result["setup_s"],
                               result["peak_rss_mb"], verdict.ops))
        return result, verdict

    def another(self, last_duration: float) -> bool:
        """Start another command only if one more like the last one fits."""
        now = time.monotonic()
        return now + last_duration <= self.deadline and now + last_duration < self.started + RUN_LIMIT_S


def median(values):
    return statistics.median(values) if values else None


def end_to_end(run: Run) -> dict:
    """Medians over the run's commands, which use fuzz seeds seed*1000+i.

    checks_per_s is the run's throughput: all checks over all command time.
    """
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(spawn(["--import-only"], [], run.remaining())["setup_s"])
    ok = []
    i = 0
    while True:
        t0 = time.monotonic()
        result, _ = run.command(run.seed * 1000 + i)
        i += 1
        if result is not None:
            ok.append(result)
            setups.append(result["setup_s"])
        if result is None or not run.another(time.monotonic() - t0):
            break
    return {
        "wall_s": median([r["wall_s"] for r in ok]),
        "setup_s": median(setups),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
        "checks_per_s": (sum(r["checks"] for r in ok) / sum(r["wall_s"] for r in ok)
                         if ok else None),
    }


def layer_metrics(workload: Workload, untraced: dict, traced: dict, spans: list) -> dict:
    times = tracing.self_times(spans)
    calls = tracing.call_counts(spans)
    counts = traced["counts"]
    out = {name: times.get(span, 0.0) for name, span in SELF_TIME.items()}
    out.update({name: calls.get(span, 0) for name, span in CALLS.items()})
    out.update({name: counts.get(name, 0) for name in COUNTED})
    rows_in = out["linalg.rows_in"]
    out.update({
        "linalg.useful_ratio": out["linalg.rank_out"] / rows_in if rows_in else 0.0,
        "invariants.cells": traced["checks"] if workload.command == "dims" else 0,
        "paths.fuzz.checks": traced["checks"] if workload.command == "fuzz" else 0,
        "proc.cpu_s": untraced["cpu_s"],
        "proc.parallelism": untraced["cpu_s"] / untraced["wall_s"],
        "trace.overhead": traced["wall_s"] / untraced["wall_s"] - 1,
        "trace.untraced_wall_s": untraced["wall_s"],
        "trace.spans": len(spans),
    })
    return out


def per_layer(run: Run) -> dict:
    """Pairs of untraced and traced commands on one input; medians of times.

    Counts are exact and repeat in every pair, so any pair's will do.
    """
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / ("%s-seed%d.spans.json" % (run.workload.name, run.seed))
    seed = run.seed * 1000
    pairs = []
    while True:
        t0 = time.monotonic()
        untraced, _ = run.command(seed)
        traced, _ = run.command(seed, spans_path) if untraced else (None, None)
        if traced is None:
            break
        with open(spans_path) as fh:
            spans = json.load(fh)["spans"]
        pairs.append(layer_metrics(run.workload, untraced, traced, spans))
        if not run.another(time.monotonic() - t0):
            break
    if not pairs:
        return {name: None for name in PER_LAYER}
    return {name: pairs[0][name] if unit in EXACT_UNITS else median([p[name] for p in pairs])
            for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "loopinv" / "cli.py").is_file():
        sys.stderr.write("bench: no loopinv sources under %s\n" % SRC)
        return 2

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = replace(workload, **SMOKE[workload.name])
    try:
        warm = spawn(["--import-only"], [], RUN_LIMIT_S)  # compiles bytecode, untimed
    except RuntimeError as exc:
        sys.stderr.write("bench: cannot import loopinv: %s\n" % exc)
        return 2
    meta = {
        "workload": workload.name, "cli_args": workload.cli_args(args.seed),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "backend": warm["backend"], "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": commit(), "calibration_s": calibrate(),
    }
    print("# loopinv benchmark " + " ".join("%s=%s" % kv for kv in meta.items()))

    run = Run(workload, args.seed, args.seconds)
    metrics = per_layer(run) if args.trace else end_to_end(run)
    units = PER_LAYER if args.trace else END_TO_END
    for line in run.log:
        print("# " + line)
    for name, value in metrics.items():
        print("# %-34s %s %s" % (name, value, units[name]))
    print("# error_rate %s ratio (%d failed of %d ops)" % (
        run.failed / run.attempted if run.attempted else "n/a", run.failed, run.attempted))

    result = {
        "correct": run.failed == 0 and not run.reasons,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / ("%s-seed%d-trace%d.json" % (workload.name, args.seed, args.trace))
    record.write_text(json.dumps({"meta": meta, "log": run.log, "reasons": run.reasons,
                                  **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
