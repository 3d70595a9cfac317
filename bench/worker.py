"""One benchmark worker: a fresh interpreter that sets up one workload and runs it.

Started by run.py, which times it from launch to the ``READY`` line it
prints once rankone is imported, the seeded inputs exist and warm-up is
done.  It then runs a closed loop with one caller: an op starts only after
the previous one and its check have finished, and ops start until
``--seconds`` of wall time have passed.  A run may share its ops among
``--parts`` workers run one after another: whole groups of ops are dealt
to them in turn, and this one takes share ``--part``.  The result goes to
stdout as one JSON line, with every op's latency.  With ``--trace 1`` every
input runs twice, untraced and traced, in alternating order, so the
tracing overhead is measured on equal inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
# Printed tracebacks per run; every failure is still counted.
MAX_REPORTED_FAILURES = 3


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(numpy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(numpy):
    """Threads numpy's OpenBLAS will use; the environment setting when it cannot be asked."""
    import ctypes
    import glob

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def op_index(j: int, group: int, part: int, parts: int) -> int:
    """Index in the run's op sequence of this worker's j-th op."""
    k, r = divmod(j, group)
    return (k * parts + part) * group + r


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--spans", default=None, help="file for the traced spans, one JSON line each")
    args = ap.parse_args(argv)

    import rankone

    src = ROOT / "src"
    if src not in Path(rankone.__file__).resolve().parents:
        print(f"worker: rankone imported from {rankone.__file__}, not from {src}", file=sys.stderr)
        return 3

    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    workload = WORKLOADS[args.workload](args.seed, args.tiny, ROOT)
    workload.setup(tracer)
    print("READY", flush=True)

    modes = (False, True) if args.trace else (False,)
    latencies = {m: [] for m in modes}
    oks = {m: [] for m in modes}
    pair_overhead_ms = []
    failed_by_module: Counter = Counter()
    counts: Counter = Counter()
    reported = 0
    min_ops = workload.count_ops
    start = time.perf_counter()
    j = 0
    while j < min_ops or j % workload.op_group or time.perf_counter() - start < args.seconds:
        i = op_index(j, workload.op_group, args.part, args.parts)
        inp = workload.make_input(i)
        order = modes if j % 2 == 0 else modes[::-1]
        this_op = {}
        for traced in order:
            tracer.enabled = traced
            tracer.begin_op(i)
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.span("op"):
                        out = workload.run(inp, tracer)
                else:
                    out = workload.run(inp, tracer)
            except Exception:
                out = None
                bad = [(tracer.failed_layer or "harness").split(".")[0]]
                failure = traceback.format_exc()
            elapsed = time.perf_counter() - t0
            tracer.enabled = False
            if out is not None:
                try:
                    bad = workload.check(inp, out)
                except Exception:  # an output the check could not even read
                    bad = ["harness"]
                    failure = traceback.format_exc()
                else:
                    failure = f"outputs failed their check in {', '.join(bad)}\n"
            if bad and reported < MAX_REPORTED_FAILURES:
                reported += 1
                print(f"worker: op {i} failed: {failure}", file=sys.stderr)
            failed_by_module.update(set(bad))
            latencies[traced].append(elapsed)
            oks[traced].append(not bad)
            this_op[traced] = elapsed
            if out is not None and j < min_ops and traced == modes[-1]:
                counts.update(workload.counts(inp, out))
            out = None
        if args.trace:
            pair_overhead_ms.append(1e3 * (this_op[True] - this_op[False]))
        j += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extras = {}
    if args.trace:
        tracer.enabled = True
        try:
            failed_by_module.update(workload.after_loop(tracer))
        except Exception:
            failed_by_module.update([(tracer.failed_layer or "harness").split(".")[0]])
            print(f"worker: traced extras failed:\n{traceback.format_exc()}", file=sys.stderr)
        tracer.enabled = False
        extras = {
            "traced": {"s": latencies[True], "ok": oks[True]},
            "pair_overhead_ms": statistics.median(pair_overhead_ms),
            "layers": {
                name: {"ms": statistics.median(values), "calls": len(values)}
                for name, values in tracer.self_times_ms().items()
            },
        }
        if args.spans:
            tracer.write(args.spans)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "count_ops": min_ops,
        "counts": dict(counts),
        "failed_by_module": dict(failed_by_module),
        "untraced": {"s": latencies[False], "ok": oks[False]},
        "peak_rss_mb": peak_rss_mb,
        "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "machine": machine_info(),
        **extras,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
