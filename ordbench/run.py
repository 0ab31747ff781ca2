#!/usr/bin/env python3
"""Run one ordlab benchmark workload for one seed, or compare two result sets.

    python3 ordbench/run.py --workload exact --seed 1 --seconds 20 --trace 0
    python3 ordbench/run.py --workload corpus --seed 1 --seconds 2 --smoke
    python3 ordbench/run.py --compare DIR_A DIR_B

Run from the repository root; ordlab is imported from ``src/``.  A run is one
closed-loop client: it starts the next operation only after the previous
one has finished and been checked.  It prints every metric by name with its
unit, writes its result (and, traced, its spans) to ``.ordbench/results``
or ``--out``, and prints the result's summary as the last line of stdout.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the per-layer
metrics of BENCHMARK.json, from a run in which every operation executes
twice, once traced and once not, in alternating order.  End-to-end timings
are scaled to a reference machine speed (see speed.py); the measured ones
are printed and stored beside them.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import compare  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".ordbench"
SETUP_SAMPLES = 5  # fresh set-up-only processes
IMPORT_SAMPLES = 3


def import_ordlab():
    sys.path.insert(0, str(SRC))
    try:
        import ordlab
    except ImportError as exc:
        sys.exit(f"ordbench: cannot import ordlab from {SRC}: {exc}")
    if Path(ordlab.__file__).resolve().parent.parent != SRC:
        sys.exit(f"ordbench: imported ordlab from {ordlab.__file__}, not {SRC}")


class Clock:
    """Times each call made through it; ``ns`` is the running total."""

    __slots__ = ("ns",)

    def __init__(self):
        self.ns = 0

    def __call__(self, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        self.ns += time.perf_counter_ns() - start
        return result


def execute(workload, inp, op, recorder=None):
    """Run and check one operation.

    Returns (seconds or None, problems, speed factor), the factor from the
    speed probes run just before and just after the operation.
    """
    gc.collect()  # every operation starts from the same collector state
    clock = Clock()
    before = speed.probe()
    try:
        if recorder is None:
            out = op(inp, clock)
        else:
            with spans.instrumented(recorder), recorder.span(spans.OP_SPAN):
                out = op(inp, clock)
    except Exception as exc:  # an operation that raises is a failed operation
        return None, [f"{type(exc).__name__}: {exc}"], 1.0
    scale = speed.factor(before, speed.probe())
    try:
        problems = workload.check(inp, out)
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return clock.ns / 1e9, problems, scale


class Tally:
    def __init__(self):
        self.attempted = 0
        self.latencies = []  # measured seconds
        self.scaled = []  # reference seconds (speed.py)
        self.failures = []
        self.digest = hashlib.sha256()

    def add(self, i, seconds, problems, scale):
        self.attempted += 1
        if seconds is not None:
            self.latencies.append(seconds)
            self.scaled.append(seconds * scale)
        if problems:
            self.failures.append({"op": i, "problems": problems[:3]})


def measure(workload, seconds):
    """Run operations until ``seconds`` have passed.

    Once a pass over the cycle has completed, a new pass starts only if a
    pass of the average length so far still fits, so that every run measures
    the same mix of operations whatever its speed; until then, operations
    run up to the deadline.
    """
    tally = Tally()
    started = time.perf_counter()
    deadline = started + seconds
    n = len(workload.cycle)
    i = 0
    while (now := time.perf_counter()) < deadline:
        if i and i % n == 0:
            if now + (now - started) / (i // n) > deadline:
                break
        inp = workload.make_input(i)
        tally.digest.update(inp.digest.encode())
        tally.add(i, *execute(workload, inp, workload.run_op))
        i += 1
    return tally


def measure_traced(workload, seconds, recorder):
    """Each operation runs untraced and traced, in alternating order.

    cli_cold also runs each command cold, untraced, for its wall time; its
    traced pair is the same command run in-process.  The loop runs past
    ``seconds`` only if needed to give every cli_cold command a cold sample.
    """
    tally = Tally()
    cold = workload.cold
    ns = {False: 0.0, True: 0.0}
    walls = defaultdict(list)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or (cold and i < len(workload.cycle)):
        inp = workload.make_input(i)
        tally.digest.update(inp.digest.encode())
        if cold:
            wall, problems, scale = execute(workload, inp, workload.run_op)
            tally.add(i, wall, problems, scale)
            if wall is not None:
                walls[inp.spec["command"]].append(wall)
        recorder.op = i
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            elapsed, problems, scale = execute(workload, inp, workload.run_traceable,
                                               recorder if traced else None)
            tally.add(i, elapsed, problems, scale)
            ns[traced] += elapsed or 0.0
        i += 1
    overhead = 100.0 * (ns[True] / ns[False] - 1.0) if ns[False] else 0.0
    return tally, i, overhead, walls


def import_breakdown():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import ordlab.cli"], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(spans.parse_importtime(proc.stderr))
    samples.sort(key=lambda s: s[0])
    return samples[len(samples) // 2]


def setup_samples(args):
    """(measured, scaled) set-up times of fresh processes doing only this run's set-up.

    Each is scaled by speed probes run here just before and just after the
    process; probes run inside a fresh process, after its set-up, tracked the
    host's speed worse.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
        before = speed.probe()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                              cwd=ROOT)
        after = speed.probe()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        measured = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append((measured, measured * speed.factor(before, after)))
    return samples


def commit_id():
    """HEAD of the checkout's own .git, read directly; None outside a git checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text(encoding="utf-8").strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance():
    versions = {}
    for package in ("numpy", "scipy", "click"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    source = hashlib.sha256()
    for path in sorted((SRC / "ordlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": sys.version.split()[0], **versions,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit_id(),
            "source_sha256": source.hexdigest()}


def latency_metrics(latencies):
    value, percentile, beyond = compare.tail(latencies)
    return {
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * value,
        "throughput_ops_s": len(latencies) / sum(latencies),
    }, percentile, beyond


def end_to_end_metrics(workload, tally, setups, seconds_ran):
    """Timings in reference seconds; the measured ones go to the extras."""
    failed = len(tally.failures)
    metrics, percentile, beyond = latency_metrics(tally.scaled)
    metrics["setup_s"] = statistics.median(scaled for _, scaled in setups)
    metrics["ok_ratio"] = 1.0 - failed / tally.attempted
    metrics["peak_rss_mb"] = workload.peak_rss_kib() / 1024.0
    metrics["measured.setup_s"] = statistics.median(measured for measured, _ in setups)
    for name, value in latency_metrics(tally.latencies)[0].items():
        metrics[f"measured.{name}"] = value
    metrics["speed_factor_median"] = statistics.median(
        s / m for s, m in zip(tally.scaled, tally.latencies) if m > 0)
    detail = {
        "latency_samples": len(tally.scaled),
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        "failed_ratio": failed / tally.attempted,
        "setup_samples_s": setups,
        "measured_s": seconds_ran,
        "latencies_s": tally.latencies,
        "scaled_latencies_s": tally.scaled,
    }
    return metrics, detail


def per_layer_metrics(recorder, n_ops, overhead, walls, imports):
    metrics = spans.layer_metrics(recorder.spans, n_ops)
    metrics["bench.trace_overhead_pct"] = overhead
    metrics["cli.import_ms"], metrics["cli.import_scipy_ms"], _ = imports
    for command, samples in walls.items():
        metrics[f"cli.{command}.wall_ms"] = 1e3 * statistics.median(samples)
    return metrics


def run(args):
    import_ordlab()
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = STATE / "work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, work)
        workload.setup()
        workload.warm_up()
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        began = time.perf_counter()
        if args.trace:
            recorder = spans.Recorder()
            tally, n_ops, overhead, walls = measure_traced(workload, args.seconds,
                                                           recorder)
            ran = time.perf_counter() - began
            imports = import_breakdown()
            metrics = per_layer_metrics(recorder, n_ops, overhead, walls,
                                        imports)
            detail = {"measured_s": ran, "operations": n_ops,
                      "import_heaviest_ms": imports[2]}
            listed = declared["per_layer"]
        else:
            tally = measure(workload, args.seconds)
            ran = time.perf_counter() - began
            metrics, detail = end_to_end_metrics(
                workload, tally, setup_samples(args), ran)
            listed = declared["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in listed}
    if set(units) - set(metrics):
        sys.exit(f"ordbench: metrics {sorted(set(units) - set(metrics))} of "
                 "BENCHMARK.json were not measured")
    extra = {name: value for name, value in metrics.items() if name not in units}
    summary = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, **summary,
              "detail": detail, "extra_metrics": extra, "failures": tally.failures[:20],
              "inputs_sha256": tally.digest.hexdigest(),
              "provenance": provenance()}
    out_dir = Path(args.out) if args.out else STATE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    if args.trace:
        recorder.write(out_dir / f"{stem}.spans.jsonl")

    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"# {name} {value:.6g}")
    if args.trace:
        heaviest = ", ".join(f"{m} {ms:.1f} ms" for m, ms in imports[2])
        print(f"# heaviest imports by self time: {heaviest}")
    else:
        print(f"# latency_tail_ms is p{detail['tail_percentile']:.1f} of "
              f"{detail['latency_samples']} samples "
              f"({detail['tail_samples_beyond']} beyond); "
              f"failed_ratio {detail['failed_ratio']:.6g}")
    for failure in tally.failures[:5]:
        print(f"# failed op {failure['op']}: {failure['problems'][0]}")
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("exact", "corpus", "typology", "cli_cold"),
                        help="cli_cold is not in BENCHMARK.json; see ordbench/README.md")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for a run of a few seconds")
    parser.add_argument("--out", help="directory for result files")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare the untraced results in two directories")
    args = parser.parse_args(argv)
    if args.compare:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        regressions = compare.compare(*args.compare, declared["end_to_end"], sys.stdout)
        return 1 if regressions else 0
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
