#!/usr/bin/env python3
"""Compare two saved benchmark records metric by metric.

    python3 bench/compare.py .bench_out/BEFORE.json .bench_out/AFTER.json

Records are the files ``bench/run.py`` writes to ``.bench_out/``.  Runs
made on different rational backends, or of different workloads or trace
modes, are not comparable: the script refuses them with exit code 2.
The machine calibration time is printed as context and divides nothing.
"""

from __future__ import annotations

import json
import sys

COMPARABLE = ("backend", "workload", "trace")


def compare(before: dict, after: dict) -> list[str]:
    """Lines of the comparison; raises ValueError when it would mislead."""
    for key in COMPARABLE:
        if before["meta"][key] != after["meta"][key]:
            raise ValueError("runs differ in %s: %r vs %r"
                             % (key, before["meta"][key], after["meta"][key]))
    lines = ["calibration_s %.3f -> %.3f (context only)"
             % (before["meta"]["calibration_s"], after["meta"]["calibration_s"])]
    for name, old in before["metrics"].items():
        new = after["metrics"].get(name, {}).get("value")
        a, unit = old["value"], old["unit"]
        ratio = "%.3f" % (new / a) if a and new is not None else "n/a"
        lines.append("%-34s %s -> %s %s (after/before %s)" % (name, a, new, unit, ratio))
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    before, after = (json.loads(open(path).read()) for path in argv)
    try:
        lines = compare(before, after)
    except ValueError as exc:
        sys.stderr.write("compare: refused: %s\n" % exc)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
