"""In-memory span recorder for the traced run, and the per-layer figures.

Tracing wraps every public function of the ordlab modules for the length of
a ``with instrumented(recorder):`` block.  The wrapper replaces each
function in every ordlab module namespace that holds it, so calls made
inside the library (``conflict_report`` calling ``uncertainty_profile``)
are recorded as nested spans too.  Nothing under ``src/`` is edited: the
originals are put back when the block ends.

A span is ``[op, name, start_ns, end_ns, parent, units]``.  ``op`` is the
operation id, ``parent`` the index of the enclosing span (-1 for none) and
``units`` the work count the boundary reports for rate metrics, such as
tokens for ``generate`` (see ``UNITS``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("distributions", "infotheory", "deplen", "conflict", "ring", "rate",
          "coding", "cli")

OP_SPAN = "op"


def _cells(model):
    return len(model.table)


# name -> work count of one call, from its bound arguments and its result
UNITS = {
    "distributions.model_from_json": lambda a, r: _cells(r),
    "distributions.make_markov": lambda a, r: _cells(r),
    "distributions.generate": lambda a, r: len(r),
    "distributions.scramble": lambda a, r: len(r),
    "infotheory.uncertainty_profile": lambda a, r: _cells(a["model"]),
    "infotheory.predictability_profile": lambda a, r: _cells(a["model"]),
    "deplen.landscape": lambda a, r: r.m,
    "ring.evolve": lambda a, r: a["steps"] * a["ensemble_size"],
    "rate.ngram_counts": lambda a, r: len(a["sequence"]) * r.max_order,
    # (orders kept, orders counted) for the useful-to-attempted ratio
    "rate.conditional_entropy_profile":
        lambda a, r: (len(r.values), a["table"].max_order),
    "rate.uid_classify": lambda a, r: _cells(a["model"]),
    "rate.model_rate_profile": lambda a, r: _cells(a["model"]),
    "rate.hilberg_fit": lambda a, r: 1,
    "coding.optimal_lengths": lambda a, r: len(r),
}


class Recorder:
    """Spans of one run, kept in memory until :meth:`write`."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._open = []

    def begin(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([self.op, name, time.perf_counter_ns(), 0, parent, 0])
        self._open.append(index)
        return index

    def end(self, index):
        self.spans[index][3] = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap(recorder, name, fn):
    units = UNITS.get(name)
    signature = inspect.signature(fn) if units else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if units is not None:
            bound = signature.bind(*args, **kwargs).arguments
            recorder.spans[index][5] = units(bound, result)
        return result

    return traced


@contextlib.contextmanager
def instrumented(recorder):
    """Record a span around every public ordlab function while inside."""
    modules = [importlib.import_module(f"ordlab.{layer}") for layer in LAYERS]
    wrapped = {}
    for module in modules:
        layer = module.__name__.split(".", 1)[1]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                wrapped[obj] = _wrap(recorder, f"{layer}.{attr}", obj)
    patched = []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                patched.append((module, attr, obj))
                setattr(module, attr, wrapped[obj])
    # click keeps each command body as the callback of a command object
    commands = [(name, cmd) for name, cmd in modules[-1].main.commands.items()]
    while commands:
        name, cmd = commands.pop()
        if hasattr(cmd, "commands"):
            commands.extend((f"{name}_{sub}", c) for sub, c in cmd.commands.items())
        elif cmd.callback is not None:
            patched.append((cmd, "callback", cmd.callback))
            cmd.callback = _wrap(recorder, f"cli.{name}", cmd.callback)
    try:
        yield
    finally:
        for owner, attr, obj in patched:
            setattr(owner, attr, obj)


def _rate(total_ns, units, scale_ns):
    return total_ns / scale_ns / units if units else 0.0


def layer_metrics(spans, n_ops):
    """Per-layer self time and calls per operation, and the rate metrics.

    A layer that a workload never calls reads 0.
    """
    durations = [s[3] - s[2] for s in spans]
    child_ns = [0] * len(spans)
    for span, duration in zip(spans, durations):
        if span[4] >= 0:
            child_ns[span[4]] += duration
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    inclusive = defaultdict(int)
    units = defaultdict(int)
    kept = attempted = 0
    op_ns = op_self_ns = 0
    for i, span in enumerate(spans):
        name, duration = span[1], durations[i]
        own = duration - child_ns[i]
        if name == OP_SPAN:
            op_ns += duration
            op_self_ns += own
            continue
        layer = name.split(".", 1)[0]
        self_ns[layer] += own
        calls[layer] += 1
        inclusive[name] += duration
        if name == "rate.conditional_entropy_profile":
            kept += span[5][0]
            attempted += span[5][1]
        else:
            units[name] += span[5]
    ops = max(n_ops, 1)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_ns[layer] / 1e6 / ops
        out[f"{layer}.calls"] = calls[layer] / ops
    for name, metric, scale in (
        ("distributions.model_from_json", "us_per_entry", 1e3),
        ("distributions.make_markov", "us_per_entry", 1e3),
        ("distributions.generate", "ns_per_token", 1),
        ("distributions.scramble", "ns_per_token", 1),
        ("deplen.landscape", "us_per_position", 1e3),
        ("ring.evolve", "ns_per_chain_step", 1),
        ("rate.ngram_counts", "ns_per_token_order", 1),
        ("rate.uid_classify", "us_per_cell", 1e3),
        ("rate.model_rate_profile", "us_per_cell", 1e3),
        ("rate.hilberg_fit", "ms_per_fit", 1e6),
    ):
        out[f"{name}.{metric}"] = _rate(inclusive[name], units[name], scale)
    profile_ns = (inclusive["infotheory.uncertainty_profile"]
                  + inclusive["infotheory.predictability_profile"])
    profile_cells = (units["infotheory.uncertainty_profile"]
                     + units["infotheory.predictability_profile"])
    out["infotheory.profile.us_per_cell"] = _rate(profile_ns, profile_cells, 1e3)
    out["rate.orders_used_ratio"] = kept / attempted if attempted else 0.0
    out["coding.us_per_type"] = _rate(
        self_ns["coding"], units["coding.optimal_lengths"], 1e3)
    out["bench.unattributed_pct"] = 100.0 * op_self_ns / op_ns if op_ns else 0.0
    return out


def parse_importtime(stderr):
    """Import cost of ``import ordlab.cli`` from ``python -X importtime``.

    Returns (ordlab cumulative ms, scipy cumulative ms, top three modules by
    self time as (name, ms)).  Lines list children before their parent, so
    a module's subtree is rebuilt from the indentation of its name.
    """
    entries = []  # (name, self_us, cumulative_us, depth)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        raw = fields[2][1:]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip(" "))) // 2
        entries.append((name, int(fields[0]), int(fields[1]), depth))
    # numpy is imported by ordlab either way, so it is not charged to scipy
    pending = []  # (name, cumulative_us, depth, scipy_us, numpy_us) per subtree
    for name, _, cumulative, depth in entries:
        children = []
        while pending and pending[-1][2] > depth:
            children.append(pending.pop())
        below_scipy = sum(c[3] for c in children)
        below_numpy = sum(c[4] for c in children)
        if name == "numpy" or name.startswith("numpy."):
            scipy_us, numpy_us = 0, cumulative
        elif name == "scipy" or name.startswith("scipy."):
            scipy_us, numpy_us = cumulative - below_numpy, below_numpy
        else:
            scipy_us, numpy_us = below_scipy, below_numpy
        pending.append((name, cumulative, depth, scipy_us, numpy_us))
    mine = [p for p in pending if p[0] == "ordlab" or p[0].startswith("ordlab.")]
    ordlab_us = sum(p[1] for p in mine)
    scipy_us = sum(p[3] for p in mine)
    heaviest = sorted(entries, key=lambda e: e[1], reverse=True)[:3]
    top = [(name, self_us / 1e3) for name, self_us, _, _ in heaviest]
    return ordlab_us / 1e3, scipy_us / 1e3, top
