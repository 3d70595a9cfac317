"""Order statistics and the parent-versus-change verdict used by the benchmark."""

from __future__ import annotations

import statistics

# The tail is the highest percentile with at least this many samples above it.
TAIL_BEYOND = 10
# A gain needs the change to win at least this share of the seed-paired runs.
WIN_SHARE = 0.9


def tail(values):
    """(value, percentile, samples beyond) of the highest well-supported percentile.

    With N samples sorted ascending, index N - 1 - TAIL_BEYOND is the
    highest one with TAIL_BEYOND samples above it; its percentile is the
    share of samples at or below it.  With too few samples for that, the
    maximum is returned as p100 with 0 samples beyond, and the caller
    prints that count so the reader sees how little supports it.
    """
    ordered = sorted(values)
    n = len(ordered)
    idx = n - 1 - TAIL_BEYOND
    if idx < 0:
        return ordered[-1], 100.0, 0
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def summarize(latencies: list[float], ok: list[bool]) -> dict:
    """End-to-end figures of one run from its op latencies (s) and check results."""
    ms = [1e3 * x for x in latencies]
    tail_ms, tail_pct, beyond = tail(ms)
    return {
        "attempted": len(ms),
        "ok": sum(ok),
        "timed_s": sum(latencies),
        "ops_per_s": sum(ok) / sum(latencies),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail_ms,
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
    }


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict, change: dict, better: str, bound: float | None) -> dict:
    """Compare two sets of runs of one metric on one workload.

    ``parent`` and ``change`` map seed -> value.  The rules: a gain needs
    the change to win at least WIN_SHARE of the seed pairs (ties count for
    neither) and the medians to differ by more than the parent's
    interquartile distance; a regression is a change median worse than the
    parent's by more than ``bound``; when the parent's own spread exceeds
    ``bound`` the metric is unresolved, unless every change run beats every
    parent run.  Without a bound only a gain can be shown.
    """
    a, b = list(parent.values()), list(change.values())
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    spread_a = (qa[2] - qa[0]) / abs(med_a) if med_a else 0.0

    def beats(x, y):
        return sign * (y - x) > 0

    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if beats(change[s], parent[s]))
    every = all(beats(x, y) for x in b for y in a)
    gain = (
        bool(seeds)
        and wins >= WIN_SHARE * len(seeds)
        and abs(med_b - med_a) > (qa[2] - qa[0])
        and beats(med_b, med_a)
    )
    if gain:
        label = "better"
    elif bound is None:
        label = "no bound"
    elif spread_a > bound and not every:
        label = "unresolved"
    elif worse_by > bound:
        label = "worse beyond bound"
    else:
        label = "within bound"
    return {
        "parent": qa,
        "change": qb,
        "ratio": med_b / med_a if med_a else float("nan"),
        "worse_by": worse_by,
        "parent_spread": spread_a,
        "wins": wins,
        "pairs": len(seeds),
        "verdict": label,
    }
