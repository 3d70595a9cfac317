"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest bench/test_harness.py -q

Kept out of the repository's test suite (pytest collects only tests/),
so that timings never gate correctness.  Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from worker import op_index  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def bench(*argv, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seconds", "0.5", "--tiny", *argv],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


def result(argv):
    proc, lines = bench(*argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(lines[-1])


def test_tail_needs_ten_samples_beyond():
    assert stats.tail(list(range(5))) == (4, 100.0, 0)
    value, pct, beyond = stats.tail(list(range(100)))
    assert (value, beyond) == (89, 10) and pct == pytest.approx(90.0)


def test_verdicts():
    seeds = range(10)
    parent = {s: 100.0 + s % 3 for s in seeds}
    assert stats.verdict(parent, {s: 50.0 + s % 3 for s in seeds}, "lower", 0.1)["verdict"] == "better"
    assert stats.verdict(parent, {s: 150.0 for s in seeds}, "lower", 0.1)["verdict"] == "worse beyond bound"
    assert stats.verdict(parent, dict(parent), "lower", 0.1)["verdict"] == "within bound"
    noisy = {s: 100.0 * (1 + s % 2) for s in seeds}
    assert stats.verdict(noisy, dict(noisy), "higher", 0.1)["verdict"] == "unresolved"


@pytest.mark.parametrize("group", [1, 2, 12])
def test_workers_share_the_op_sequence(group):
    # Three workers that each run four groups run the first twelve groups, once each.
    dealt = sorted(op_index(j, group, part, 3) for part in range(3) for j in range(4 * group))
    assert dealt == list(range(12 * group))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_reported(workload):
    out = result(["--workload", workload, "--seed", "5"])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert set(out["metrics"]) == END_TO_END
    assert out["attempted"] >= 1
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", ["dense-krein", "small-updates", "analytic-spectral"])
def test_traced_counts_repeat_exactly(workload):
    a = result(["--workload", workload, "--seed", "6", "--trace", "1"])
    b = result(["--workload", workload, "--seed", "6", "--trace", "1"])
    assert set(a["metrics"]) == PER_LAYER
    # Failure counts cover the whole timed run, so only these are exact.
    counts = [n for n, m in a["metrics"].items() if m["unit"] == "count" and not n.endswith(".failed")]
    assert any(a["metrics"][n]["value"] > 0 for n in counts)
    assert {n: a["metrics"][n] for n in counts} == {n: b["metrics"][n] for n in counts}
    if workload == "dense-krein":  # its traced run also times the cold CLI and verify
        assert a["metrics"]["cli.verify.ms"]["value"] > 0
        assert a["metrics"]["verification.run_all.ms"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc, lines = bench("--workload", "small-updates", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_compare_prints_a_verdict_per_metric(tmp_path):
    run = {"workload": "small-updates", "trace": 0, "setup_s": [1.0], "peak_rss_mb": 90.0,
           "machine": {"nproc": 2},
           "untraced": {"ops_per_s": 100.0, "op_p50_ms": 1.0, "op_tail_ms": 2.0, "ok": 9, "attempted": 10}}
    for side, scale in (("parent", 1.0), ("change", 2.0)):
        (tmp_path / side).mkdir()
        for seed in range(10):
            r = json.loads(json.dumps(run))
            r["seed"] = seed
            r["untraced"]["op_p50_ms"] = scale * (1.0 + 0.001 * seed)
            (tmp_path / side / f"small-updates.seed{seed}.trace0.json").write_text(json.dumps(r))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--compare", str(tmp_path / "parent"), str(tmp_path / "change")],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith("small-updates")]
    assert {row.split()[1] for row in rows} >= END_TO_END
    assert "worse beyond bound" in next(r for r in rows if " op_p50_ms " in r)
