"""Benchmark of rankone, measured from outside the package.

    python3 bench/run.py --workload dense-krein --seed 1 --trace 0
    python3 bench/run.py --workload all --seed 1             # every workload in turn
    python3 bench/run.py --compare PARENT_DIR CHANGE_DIR     # two sets of saved results

Each run starts fresh worker interpreters (bench/worker.py) that import
rankone from this checkout's ``src/``.  With ``--trace 0`` the run's ops
and seconds are shared among WORKERS workers started one after another,
so that no one process's luck with the shared machine sets the figures,
and it prints the end-to-end metrics over all their ops (ops_per_s,
op_p50_ms, op_tail_ms, failed_frac, setup_s, peak_rss_mb); ``setup_s`` is
the median over the workers of the time from launch to the end of
warm-up.  With ``--trace 1`` one worker runs it all and it prints the
per-layer metrics and the tracing overhead.  Human-readable
lines come first; the last line of stdout is one JSON object holding the
metrics BENCHMARK.json lists.  Every result is also saved, with the
machine it ran on, under bench/results/, which is what ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKERS = 3
THREADED_BLAS = {"dense-krein"}
# The worker must finish well within the 180 s a run may take.
WORKER_TIMEOUT_S = 170.0

# End-to-end metrics printed for every workload.  BENCHMARK.json gates the
# steady ones; op_tail_ms and failed_frac are printed and compared unbounded
# (see end_to_end below).
END_TO_END = {
    "ops_per_s": ("1/s", "higher"), "op_p50_ms": ("ms", "lower"), "op_tail_ms": ("ms", "lower"),
    "failed_frac": ("1", "lower"), "setup_s": ("s", "lower"), "peak_rss_mb": ("MB", "lower"),
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def worker_cmd(args, part: int, parts: int, *extra) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / parts), "--trace", str(args.trace),
           "--part", str(part), "--parts", str(parts)]
    return cmd + (["--tiny"] if args.tiny else []) + list(extra)


def worker_env(workload: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Dense work at n ~ 1000 gains from every core.  The small BLAS calls of
    # the other workloads only lose to thread hand-off: with two threads on a
    # 2-vCPU machine small-updates ran 3-15x slower and varied run to run.
    threads = len(os.sched_getaffinity(0)) if workload in THREADED_BLAS else 1
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def start_worker(cmd, env):
    """Launch a worker and wait for READY; returns (process, setup seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not get ready (exit {proc.wait(timeout=30)})")
    except BaseException:
        stop(proc)
        raise
    return proc, setup


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_worker(cmd, env) -> tuple[dict, float]:
    proc, setup = start_worker(cmd, env)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setup


def run_once(args) -> dict:
    env = worker_env(args.workload)
    results = RESULTS / "tiny" if args.tiny else RESULTS
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    spans = results / f"{args.workload}.seed{args.seed}.spans.jsonl"
    parts = 1 if args.trace else WORKERS
    workers, setups = [], []
    for part in range(parts):
        extra = ["--spans", str(spans)] if args.trace else []
        worker, setup = run_worker(worker_cmd(args, part, parts, *extra), env)
        workers.append(worker)
        setups.append(setup)
    # The first worker's record carries the machine and the traced figures.
    result = workers[0]
    for mode in ("untraced", "traced") if args.trace else ("untraced",):
        result[mode] = stats.summarize(
            [x for w in workers for x in w[mode]["s"]], [x for w in workers for x in w[mode]["ok"]]
        )
    failed = Counter()
    for w in workers:
        failed.update(w["failed_by_module"])
    result["failed_by_module"] = dict(failed)
    result["peak_rss_mb"] = max(w["peak_rss_mb"] for w in workers)
    result["setup_s"] = setups
    result["seconds"] = args.seconds
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def end_to_end(result) -> dict:
    """Every end-to-end metric as name -> (value, unit).

    failed_frac is 0 on healthy workloads, and op_tail_ms of small-updates
    (the 11th-slowest of ~17000 ops) moved 2-8 ms between runs on a 2-vCPU
    VM, so BENCHMARK.json bounds neither; the JSON line's attempted/failed
    carry failed_frac.
    """
    run = result["untraced"]
    values = {
        "ops_per_s": run["ops_per_s"],
        "op_p50_ms": run["op_p50_ms"],
        "op_tail_ms": run["op_tail_ms"],
        "failed_frac": 1.0 - run["ok"] / run["attempted"],
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: (values[name], unit) for name, (unit, _) in END_TO_END.items()}


def per_layer(result, spec) -> dict:
    """The per-layer metrics of BENCHMARK.json, from the traced run, by name."""
    counts = result["counts"]
    out = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_ms":
            value = result["pair_overhead_ms"]
        elif name == "krein.find_new_eigenvalues.roots_found_ratio":
            expected = counts.get("krein.roots_expected", 0)
            value = counts.get("krein.roots_found", 0) / expected if expected else 0.0
        elif name.endswith(".failed"):
            value = result["failed_by_module"].get(name[: -len(".failed")], 0)
        elif name.endswith(".ms"):  # median self time per call; 0 when not called
            value = result["layers"].get(name[: -len(".ms")], {}).get("ms", 0.0)
        else:  # exact count over the first count_ops ops
            value = counts.get(name, 0)
        out[name] = (value, metric["unit"])
    return out


def print_run(result, metrics):
    m = result["machine"]
    run = result["untraced"]
    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"seconds={result['seconds']}  closed loop, 1 caller")
    print(f"   machine: nproc={m['nproc']} cpu={m['cpu']!r} blas={m['blas']} {m['blas_version']} "
          f"threads={m['blas_threads']} python={m['python']} numpy={m['numpy']} scipy={m['scipy']}")
    if result["trace"]:
        traced = result["traced"]
        for key in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
            diff = traced[key] - run[key]
            print(f"   overhead {key:<12} untraced={run[key]:.6g} traced={traced[key]:.6g} "
                  f"diff={diff:+.4g} ({100 * diff / run[key]:+.2f}%)")
        print(f"   overhead per op (median of {run['attempted']} paired ops): "
              f"{result['pair_overhead_ms']:+.4g} ms")
        if result["children_peak_rss_mb"]:
            print(f"   children_peak_rss_mb {result['children_peak_rss_mb']:.6g} MB (largest child process)")
        print(f"   counts over the first {result['count_ops']} ops; .ms is the median self time per call")
        for name, (value, unit) in metrics.items():
            calls = result["layers"].get(name[:-3], {}).get("calls") if name.endswith(".ms") else None
            note = f"  ({calls} calls)" if calls else ("  (not called)" if name.endswith(".ms") else "")
            print(f"   {name:<52} {value:>14.6g} {unit}{note}")
        return
    n = run["attempted"]
    notes = {
        "ops_per_s": f"{run['ok']} ops in {run['timed_s']:.3f} s timed",
        "op_p50_ms": f"n={n}",
        "op_tail_ms": f"p{run['tail_percentile']:.4g}, {run['tail_beyond']} samples beyond, n={n}",
        "failed_frac": f"{n - run['ok']} of {n} ops failed",
        "setup_s": f"median of {len(result['setup_s'])} fresh workers",
        "peak_rss_mb": f"largest ru_maxrss of {len(result['setup_s'])} workers",
    }
    for name, (value, unit) in metrics.items():
        print(f"   {name:<14} {value:>14.6g} {unit:<4} ({notes[name]})")


def run_workload(args, spec) -> int:
    try:
        result = run_once(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(result, spec) if args.trace else end_to_end(result)
    print_run(result, metrics)
    # The JSON line carries exactly the metrics BENCHMARK.json lists.
    listed = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    run = result["untraced"]
    if args.trace:
        attempted = run["attempted"] + result["traced"]["attempted"]
        failed = attempted - run["ok"] - result["traced"]["ok"]
    else:
        attempted, failed = run["attempted"], run["attempted"] - run["ok"]
    print(json.dumps({
        "correct": failed == 0 and not result["failed_by_module"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name in listed},
    }), flush=True)
    return 0


def compare(parent_dir: Path, change_dir: Path, spec) -> int:
    def load(d):
        runs = {}
        for path in sorted(Path(d).glob("*.trace*.json")):
            with open(path) as fh:
                r = json.load(fh)
            runs.setdefault((r["workload"], r["trace"]), {})[r["seed"]] = r
        return runs

    parent, change = load(parent_dir), load(change_dir)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    for side, runs in (("parent", parent), ("change", change)):
        machines = {json.dumps(r["machine"], sort_keys=True) for rs in runs.values() for r in rs.values()}
        for mach in machines:
            print(f"{side} machine: {mach}")
    print(f"{'workload':<18} {'metric':<14} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'ratio':>8} {'wins':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = parent.get((workload, 0), {}), change.get((workload, 0), {})
        if not a or not b:
            print(f"{workload:<18} (no untraced runs on {'both sides' if not a and not b else 'one side'})")
            continue
        for name, (_, better) in END_TO_END.items():
            metric = bounded.get(name, {"better": better})
            va = {s: end_to_end(r)[name][0] for s, r in a.items()}
            vb = {s: end_to_end(r)[name][0] for s, r in b.items()}
            v = stats.verdict(va, vb, metric["better"], metric.get("bound"))
            bound = f"bound {100 * metric['bound']:.0f}%" if "bound" in metric else "no bound"
            print(f"{workload:<18} {name:<14} {_fmt(v['parent']):>32} {_fmt(v['change']):>32} "
                  f"{v['ratio']:>8.4f} {v['wins']:>2}/{v['pairs']:<3}  {v['verdict']} "
                  f"(base: parent median {v['parent'][1]:.6g} over {len(va)} runs, "
                  f"parent spread {100 * v['parent_spread']:.1f}%, {bound})")
    return 0


def _fmt(quartiles) -> str:
    return "/".join(f"{x:.4g}" for x in quartiles)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny problem sizes, for the smoke test")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]), spec)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "rankone" / "__init__.py").is_file():
        print(f"run.py: no rankone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    status = 0
    for workload in names if args.workload == "all" else [args.workload]:
        status |= run_workload(argparse.Namespace(**{**vars(args), "workload": workload}), spec)
    return status


if __name__ == "__main__":
    sys.exit(main())
