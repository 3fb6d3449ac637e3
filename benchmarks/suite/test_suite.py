"""Self-test of the benchmark at ``--size tiny`` (under a minute).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/suite -q

(``benchmarks/conftest.py`` imports the program, hence ``PYTHONPATH``.)
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--size", "tiny",
         "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120)


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fingerprints(proc: subprocess.CompletedProcess) -> dict:
    return dict(line.split()[1:] for line in proc.stdout.splitlines()
                if line.startswith("fingerprint "))


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    """An untraced and a traced run of one workload at seed 11."""
    plain = bench("--workload", request.param, "--trace", "0")
    traced = bench("--workload", request.param, "--trace", "1")
    return plain, traced


def test_every_metric_printed_with_its_unit(runs):
    for proc, kind in zip(runs, ("end_to_end", "per_layer")):
        metrics = result(proc)["metrics"]
        assert [(m["name"], m["unit"]) for m in SPEC[kind]] == [
            (name, value["unit"]) for name, value in metrics.items()]
        assert all(isinstance(v["value"], (int, float))
                   for v in metrics.values())


def test_no_check_fails(runs):
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        out = result(proc)
        assert out["correct"] and out["failed"] == 0
        assert out["attempted"] >= 1


def test_tracing_changes_no_output(runs):
    plain, traced = runs
    assert fingerprints(plain) and fingerprints(plain) == fingerprints(traced)


def test_corrupted_golden_exits_1(tmp_path, monkeypatch, capsys):
    import run

    golden = json.loads(run.GOLDEN.read_text())
    cells = golden["tiny"]["closed-ycsb"]
    first = sorted(cells)[0]
    cells[first] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN", path)
    status = run.main(["--workload", "closed-ycsb", "--size", "tiny",
                       "--seconds", "1"])
    stdout = capsys.readouterr().out
    assert status == 1
    out = json.loads(stdout.strip().splitlines()[-1])
    assert not out["correct"] and out["failed"] >= 1
    assert f"FAILED {first}: fingerprint" in stdout


def test_unknown_workload_is_a_one_line_usage_error():
    proc = bench("--workload", "no-such-workload")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: unknown workload")


def test_probe_bursts_are_taken_out_and_rescaled():
    from hostspeed import NOMINAL_S, HostSpeedProbe

    probe = HostSpeedProbe()
    probe.start()
    start, work_start = time.perf_counter(), probe.work_clock()
    try:
        while time.perf_counter() - start < 0.3:
            pass
    finally:
        probe.stop()
    end, work_end = time.perf_counter(), probe.work_clock()
    bursts = len(probe.durations)
    assert bursts >= 5
    assert work_end - work_start == pytest.approx(
        end - start - probe.total_s, abs=1e-4)
    rescaled, speed = probe.rescale(start, end, end - start)
    assert speed == pytest.approx(
        sum(NOMINAL_S / d for d in probe.durations) / bursts)
    assert rescaled == pytest.approx((end - start - probe.total_s) * speed)


def test_compare_marks_ok_worse_and_unresolved(tmp_path):
    def record(workload, wall, seed):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        metrics["wall_s"]["value"] = wall
        return {"workload": workload, "seed": seed, "size": "default",
                "trace": 0, "correct": True, "attempted": 1, "failed": 0,
                "metrics": metrics, "fingerprints": {"cell": "x"}}

    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0]
    sets = {
        "A": [record("closed-ycsb", w, s) for s, w in enumerate(steady)]
        + [record("open-frontier", w, s) for s, w in enumerate(steady)]
        + [record("tpch-calibrate", w, s) for s, w in enumerate(noisy)],
        "B": [record("closed-ycsb", w, s) for s, w in enumerate(steady)]
        + [record("open-frontier", w * 1.3, s) for s, w in enumerate(steady)]
        + [record("tpch-calibrate", w, s) for s, w in enumerate(noisy)],
    }
    paths = []
    for side, records in sets.items():
        path = tmp_path / f"{side}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        paths.append(str(path))
    proc = subprocess.run([sys.executable, str(SUITE / "compare.py"), *paths],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    rows = {line.split()[0]: line for line in proc.stdout.splitlines()}
    assert "wall_s ok" in rows["closed-ycsb"]
    assert "wall_s worse" in rows["open-frontier"]
    assert "wall_s unresolved" in rows["tpch-calibrate"]
    assert proc.returncode == 1
