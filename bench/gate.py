"""Correctness gate for one benchmark invocation.

A table run passes when the command exits 0, every level row is "ok",
every published dimension matches, and the JSON stdout hashes to the
digest recorded from a run of the seed code.  A fuzz run passes when
the command exits 0, no trial failed, every witness was found, and the
exact check counts agree with the published dimensions of the bases
they pair against.  A failing invocation is never timed as a success.
"""

from __future__ import annotations

import hashlib
import json

COLUMNS = [
    "conjugation", "logsignature", "V_n", "bracket_VR", "letter_reduced_conj",
    "letter_reduced_loop", "closure", "loop", "S_n", "min_generators",
]

# Published values, as the acceptance suite asserts them; None marks a
# cell the published tables do not give.
PUBLISHED = {
    2: {
        "conjugation": [2, 3, 4, 6, 8, 14, 20, 36, 60, 108],
        "logsignature": [2, 1, 2, 3, 6, 9, None, None, None, None],
        "min_generators": [2, 0, 0, 1, 0, 4, None, None, None, None],
        "V_n": [None] * 6 + [32, 64, 128, 256],
        "bracket_VR": [None] * 6 + [32, 54, 120, 232],
        "letter_reduced_loop": [None] * 6 + [0, 10, 8, 24],
    },
    3: {
        "conjugation": [3, 6, 11, 24, 51, 130],
        "V_n": [0, 3, 8, 24, 72, 216],
        "bracket_VR": [0, 0, 8, 18, 66, 178],
        "letter_reduced_loop": [0, 3, 0, 6, 6, 38],
        "min_generators": [3, 0, 1, 6, 6, 38],
    },
}

# sha256 of `loopinv dims --d D --max-level L --format json` stdout,
# recorded from the seed code; identical for any --workers.
DIGESTS = {
    (2, 5): "6b76ae42f1922ec5419c32b5792642fc7be49f12f8230e5811e8f8cd8661e0ee",
    (2, 9): "f08bf38a29296e285e5f59a9f351c69c7478ce26e8bd8bdccf1dedfc4facd07a",
    (3, 4): "84f9332ddf7c81040d2209bce5d7cea49a5f9cd34ed98f51ef27d27d69237c3b",
    (3, 7): "59514b72bd9cfacef6f86c3c9b6ec0c8a8a84c2024618528bbedffd54d233a1c",
}

# d=2 dimensions of the fuzzed bases at levels 1..6: conjugation as
# published, closure = dim V_n from the series (1-q)^2/(1-2q), loop from
# the recorded table.  The fuzz pairs every basis element of levels
# 1..level, so its check counts are fixed multiples of these sums.
FUZZ_BASIS_DIMS = {
    "conjugation": [2, 3, 4, 6, 8, 14],
    "closure": [0, 1, 2, 4, 8, 16],
    "loop": [2, 4, 6, 13, 24, 52],
}


class GateResult:
    """Operations attempted and failed in one invocation, with reasons."""

    def __init__(self, ops: int):
        self.ops = ops
        self.failed = 0
        self.reasons: list[str] = []
        self.checks = 0

    def fail(self, reason: str, count: int | None = None) -> None:
        self.reasons.append(reason)
        self.failed = self.ops if count is None else min(self.ops, self.failed + count)

    @property
    def ok(self) -> bool:
        return not self.reasons


def check_table(d: int, max_level: int, exit_code: int, stdout: str) -> GateResult:
    """One operation per table cell (level x column)."""
    result = GateResult(max_level * len(COLUMNS))
    result.checks = result.ops
    if exit_code != 0:
        result.fail("exit code %d" % exit_code)
        return result
    try:
        report = json.loads(stdout)
        rows = {row["level"]: row for row in report["rows"]}
    except (ValueError, KeyError, TypeError) as exc:
        result.fail("unreadable dims output: %s" % exc)
        return result
    if report.get("columns") != COLUMNS or sorted(rows) != list(range(1, max_level + 1)):
        result.fail("unexpected columns or levels")
        return result
    for level, row in rows.items():
        if row.get("status") != "ok":
            result.fail("level %d %s" % (level, row.get("status")), len(COLUMNS))
            continue
        for column, values in PUBLISHED[d].items():
            want = values[level - 1] if level <= len(values) else None
            got = row["dims"].get(column)
            if want is not None and got != want:
                result.fail("d=%d level %d %s: %s != %d" % (d, level, column, got, want), 1)
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if DIGESTS.get((d, max_level)) != digest:
        # some cell outside the published tables, or the layout, changed
        result.fail("stdout digest %s differs from the recorded one" % digest[:12])
    return result


def check_fuzz(d: int, level: int, trials: int, seed: int, exit_code: int,
               stdout: str) -> GateResult:
    """One operation per fuzz trial of each of the three suites."""
    kinds = ("conjugation", "loop", "closure")
    result = GateResult(len(kinds) * trials)
    if exit_code != 0:
        result.fail("exit code %d" % exit_code)
        return result
    try:
        reports = {r["kind"]: r for r in json.loads(stdout)["reports"]}
    except (ValueError, KeyError, TypeError) as exc:
        result.fail("unreadable fuzz output: %s" % exc)
        return result
    if sorted(reports) != sorted(kinds):
        result.fail("fuzz reports %s" % sorted(reports))
        return result
    sums = {k: sum(v[:level]) for k, v in FUZZ_BASIS_DIMS.items()}
    for kind in kinds:
        r = reports[kind]
        if (r["d"], r["level"], r["trials"], r["seed"]) != (d, level, trials, seed):
            result.fail("%s report echoes other arguments" % kind)
            continue
        if r["failures"]:
            result.fail("%s: %d failed trials" % (kind, len(r["failures"])), len(r["failures"]))
        if not r["witness_found"]:
            result.fail("%s: no witness found" % kind)
        result.checks += r["checks"]
    if not result.ok:
        return result
    expected = {
        # trials plus the canonical witness pair, every basis element each
        "conjugation": (trials + 1) * sums["conjugation"],
        # two closure-operator checks per level, then every basis element
        "closure": trials * (2 * level + sums["closure"]),
    }
    for kind, want in expected.items():
        if reports[kind]["checks"] != want:
            result.fail("%s: %d checks, expected %d" % (kind, reports[kind]["checks"], want))
    loop_checks = reports["loop"]["checks"]
    if loop_checks <= 0 or loop_checks % sums["loop"]:
        result.fail("loop: %d checks is not a multiple of %d" % (loop_checks, sums["loop"]))
    return result
