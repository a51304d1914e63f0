"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

from loopinv import cli  # noqa: E402


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "4",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=BENCH.parent,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert any(line.startswith("# error_rate 0.0 ratio (0 failed of") for line in lines)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_table_gate_trips_on_a_tampered_dimension_or_digest(monkeypatch):
    code, text = _cli_stdout(["dims", "--d", "2", "--max-level", "5", "--format", "json"])
    assert gate.check_table(2, 5, code, text).ok

    report = json.loads(text)
    report["rows"][4]["dims"]["conjugation"] = 9  # published: 8
    tampered = json.dumps(report, sort_keys=True, indent=2) + "\n"
    verdict = gate.check_table(2, 5, code, tampered)
    assert verdict.failed == 50  # the digest fails every cell
    assert any("level 5 conjugation: 9 != 8" in r for r in verdict.reasons)

    # with the digest matching the tampered text, the published cell alone trips
    monkeypatch.setitem(gate.DIGESTS, (2, 5), gate.hashlib.sha256(tampered.encode()).hexdigest())
    verdict = gate.check_table(2, 5, code, tampered)
    assert verdict.failed == 1 and len(verdict.reasons) == 1
    assert not gate.check_table(2, 5, code, text).ok

    assert gate.check_table(2, 5, 1, text).failed == 50


def test_fuzz_gate_trips_on_failures_missing_witness_or_skipped_checks():
    args = ["fuzz", "--d", "2", "--level", "6", "--trials", "2", "--seed", "9", "--format", "json"]
    code, text = _cli_stdout(args)
    verdict = gate.check_fuzz(2, 6, 2, 9, code, text)
    assert verdict.ok and verdict.ops == 6 and verdict.checks > 0

    def tampered(kind, **changes):
        out = json.loads(text)
        next(r for r in out["reports"] if r["kind"] == kind).update(changes)
        return gate.check_fuzz(2, 6, 2, 9, code, json.dumps(out))

    assert tampered("loop", failures=["x"]).failed == 1
    assert not tampered("conjugation", witness_found=False).ok
    assert not tampered("closure", checks=1).ok
    assert not tampered("conjugation", seed=8).ok
    assert gate.check_fuzz(2, 6, 2, 9, 1, text).failed == 6


def test_self_time_is_per_thread_on_a_synthetic_two_thread_tree():
    spans = [
        # name, start, end, parent, thread
        ["cli", 0.0, 10.0, None, 0],
        ["invariants.report", 1.0, 9.0, 0, 0],
        ["linalg.span", 2.0, 4.0, 1, 0],
        ["linalg.span", 5.0, 6.0, 1, 0],
        # a worker thread's span overlaps cli in time but is not on its thread
        ["invariants.report", 0.5, 7.5, 0, 1],
        ["tensor.shuffle", 1.5, 3.5, 4, 1],
    ]
    times = tracing.self_times(spans)
    assert times == {
        "cli": 2.0,
        "invariants.report": (8.0 - 3.0) + (7.0 - 2.0),
        "linalg.span": 3.0,
        "tensor.shuffle": 2.0,
    }
    assert tracing.call_counts(spans) == {
        "cli": 1, "invariants.report": 2, "linalg.span": 2, "tensor.shuffle": 1}


def test_tracer_links_worker_thread_spans_to_the_first_span():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    inner = tracer.wrap("inner", lambda: leaf())

    def outer():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        inner()

    tracer.wrap("outer", outer)()
    spans = tracer.export()
    assert [(s[0], s[3], s[4]) for s in spans] == [
        ("outer", None, 0),
        ("inner", 0, 1),
        ("leaf", 1, 1),
        ("inner", 0, 0),
        ("leaf", 3, 0),
    ]
    assert all(s[1] <= s[2] for s in spans)


def test_compare_refuses_runs_on_different_backends():
    import compare

    record = {"meta": {"backend": "fraction", "workload": "fuzz-d2", "trace": 0,
                       "calibration_s": 0.3},
              "metrics": {"wall_s": {"value": 2.0, "unit": "s"}}}
    other = json.loads(json.dumps(record))
    other["meta"]["backend"] = "gmpy2"
    with pytest.raises(ValueError, match="backend"):
        compare.compare(record, other)
    assert "after/before 1.000" in compare.compare(record, record)[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz-d2", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""
