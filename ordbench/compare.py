"""Latency statistics, and compare mode over two sets of result files.

Compare mode applies the rules of a two-sided benchmark comparison, one row
per workload and end-to-end metric:

- ``gain``: side B wins at least 9 of every 10 pairs (ties count for
  neither) and the medians differ by more than side A's quartile spread;
- ``unresolved``: the run-to-run spread of either side, as a share of its
  median, is wider than the metric's bound, and not every B run beats
  every A run;
- ``regression``: B's median is worse than A's by more than the bound;
- ``same`` otherwise.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def tail(latencies):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or fewer
    no percentile qualifies and the smallest sample is returned.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    j = max(0, n - 11)
    percentile = 100.0 * j / (n - 1) if n > 1 else 0.0
    return ordered[j], percentile, n - 1 - j


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(directory):
    """Untraced results in ``directory``, as {workload: [result, ...]}."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if result.get("trace") == 0:
            runs[result["workload"]].append(result)
    return runs


def _pairs(a_runs, b_runs):
    b_by_seed = {r["seed"]: r for r in b_runs}
    if all(r["seed"] in b_by_seed for r in a_runs) and len(b_by_seed) == len(b_runs):
        return [(r, b_by_seed[r["seed"]]) for r in a_runs]
    return list(zip(a_runs, b_runs))


def verdict(a, b, better, bound, pairs):
    """Label one metric; ``a`` and ``b`` are the values of each side."""
    sign = 1.0 if better == "lower" else -1.0
    q1_a, med_a, q3_a = quartiles(a)
    q1_b, med_b, q3_b = quartiles(b)
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    spread = max((q3_a - q1_a) / abs(med_a) if med_a else 0.0,
                 (q3_b - q1_b) / abs(med_b) if med_b else 0.0)
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3_a - q1_a:
        return "gain", wins
    if spread > bound and not all(sign * (y - x) < 0 for x in a for y in b):
        return "unresolved", wins
    if worse > bound:
        return "regression", wins
    return "same", wins


def _cell(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(dir_a, dir_b, end_to_end, out):
    """Print one row per workload and metric; returns the number of regressions."""
    runs_a, runs_b = load(dir_a), load(dir_b)
    regressions = 0
    row = "{:<10} {:<17} {:<32} {:<32} {:>7}  {}\n"
    out.write(row.format("workload", "metric", "A median [q1, q3]",
                         "B median [q1, q3]", "B wins", "verdict"))
    for workload in sorted(set(runs_a) | set(runs_b)):
        a_runs, b_runs = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a_runs or not b_runs:
            out.write(f"{workload:<10} missing on side {'B' if a_runs else 'A'}\n")
            continue
        pairs = _pairs(a_runs, b_runs)
        for metric in end_to_end:
            name = metric["name"]
            value = lambda run: run["metrics"][name]["value"]  # noqa: E731
            a, b = [value(r) for r in a_runs], [value(r) for r in b_runs]
            label, wins = verdict(a, b, metric["better"], metric["bound"],
                                  [(value(x), value(y)) for x, y in pairs])
            regressions += label == "regression"
            out.write(row.format(workload, name, _cell(a), _cell(b),
                                 f"{wins}/{len(pairs)}", label))
    return regressions
