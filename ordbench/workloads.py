"""The four benchmark workloads.

Each workload is a fixed cycle of operation specs.  Operation ``i`` runs
spec ``i % len(cycle)`` on a fresh input drawn from ``(seed, workload, i)``,
so one seed always gives the same operations on the same inputs.  The seed
changes the contents (tables, rows, filters, tokens), never the sizes: a
run's mix of sizes, and so its latency distribution, stays the same from
seed to seed.  The cycle is put in an order in which every prefix spreads
evenly over the cost range, so a run that stops mid-cycle keeps the mix.

``run_op`` makes only calls into ordlab, each through ``call``, which times
it; input generation and ``check`` are not timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ordlab import cli, coding as CO, conflict as C, deplen as DL
from ordlab import distributions as D, infotheory as I, rate as R, ring as RG

import oracles


@dataclass
class Input:
    spec: dict
    data: dict  # JSON-able; its digest identifies the input
    aux: dict = field(default_factory=dict)  # derived objects, not hashed

    @property
    def digest(self):
        text = json.dumps([self.spec, self.data], sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def balanced(specs, cost):
    """Order ``specs`` so that every prefix covers the cost range evenly.

    Position k takes the spec whose cost rank matches the rank of the
    base-2 radical inverse of k.  With an even number of specs the cheapest
    is left out: over whole passes of an odd-length cycle the median latency
    falls among the samples of one spec, not on the boundary between two
    specs' samples, where it would be the mean of two extreme samples.
    """
    ranked = sorted(specs, key=cost)
    if len(ranked) % 2 == 0:
        ranked = ranked[1:]

    def radical_inverse(k):
        value, scale = 0.0, 0.5
        while k:
            value += scale * (k & 1)
            k >>= 1
            scale /= 2
        return value

    points = [radical_inverse(k) for k in range(len(ranked))]
    ranks = np.argsort(np.argsort(points, kind="stable"), kind="stable")
    return [ranked[r] for r in ranks]


class Workload:
    name = ""
    cold = False  # operations run in a child process

    def __init__(self, seed, smoke=False, workdir=None):
        self.seed = int(seed) % 2**63
        self.workdir = workdir
        self.cycle = self.make_cycle(smoke)
        self._salt = zlib.crc32(self.name.encode("utf-8"))

    def rng(self, i):
        return np.random.default_rng([self.seed, self._salt, i])

    def setup_rng(self):
        return np.random.default_rng([self.seed, self._salt, 2**32])

    def make_cycle(self, smoke):
        raise NotImplementedError

    def setup(self):
        """Build the inputs shared by every operation; default: none."""

    def make_input(self, i):
        raise NotImplementedError

    def run_op(self, inp, call):
        raise NotImplementedError

    def check(self, inp, out):
        raise NotImplementedError

    def run_traceable(self, inp, call):
        """The operation as run in the traced pair: ``run_op`` unless cold."""
        return self.run_op(inp, call)

    def peak_rss_kib(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def warm_up(self):
        """Run and check the operations named by ``warm_up_ops``, untimed."""
        plain = lambda fn, *a, **k: fn(*a, **k)  # noqa: E731
        for i in self.warm_up_ops():
            inp = self.make_input(i)
            problems = self.check(inp, self.run_op(inp, plain))
            if problems:
                raise RuntimeError(f"warm-up operation {i} failed: {problems[0]}")

    def warm_up_ops(self):
        cheapest = min(range(len(self.cycle)), key=lambda k: self.cost(self.cycle[k]))
        return [cheapest]

    def cost(self, spec):
        return 0.0


# ---------------------------------------------------------------------------
# exact: model building and querying


class Exact(Workload):
    name = "exact"

    SHAPES = ((3, 3), (4, 3), (3, 4), (5, 3), (4, 4), (6, 3), (5, 4), (6, 4))
    SMOKE_SHAPES = ((3, 3), (3, 4))
    BUILDERS = ("dirichlet", "sparse", "uniform", "markov")
    UID_MAX_CELLS = 256
    LAMBDAS = (0.0, 0.5, 1.0)

    def make_cycle(self, smoke):
        shapes = self.SMOKE_SHAPES if smoke else self.SHAPES
        specs = [{"roles": n, "symbols": v, "builder": b}
                 for n, v in shapes for b in self.BUILDERS]
        return balanced(specs, self.cost)

    def cost(self, spec):
        cells = spec["symbols"] ** spec["roles"]
        support = cells / 2 if spec["builder"] == "sparse" else cells
        uid = 0.08 * support**2 if cells <= self.UID_MAX_CELLS else 0.0
        return support + uid

    def make_input(self, i):
        spec = self.cycle[i % len(self.cycle)]
        rng = self.rng(i)
        n, v, builder = spec["roles"], spec["symbols"], spec["builder"]
        roles = [f"x{k}" for k in range(1, n + 1)]
        symbols = [f"s{j}" for j in range(v)]
        target = roles[int(rng.integers(n))]
        context = [r for r in roles if r != target]
        order = [context[j] for j in rng.permutation(len(context))]
        data = {
            "builder": builder,
            "roles": roles,
            "symbols": symbols,
            "target": target,
            "orders": [order, order[::-1]],
            "objectives": ["uncertainty", "predictability"],
            "lambdas": list(self.LAMBDAS),
        }
        aux = {}
        if builder == "markov":
            initial = rng.dirichlet(np.ones(v))
            transition = rng.dirichlet(np.ones(v), size=v)
            data["initial"] = initial.tolist()
            data["transition"] = transition.tolist()
            aux["initial"] = dict(zip(symbols, data["initial"]))
            aux["transition"] = {
                s: dict(zip(symbols, row)) for s, row in zip(symbols, data["transition"])
            }
            p = oracles.markov_dense(initial, transition, n)
        else:
            if builder == "uniform":
                flat = np.full(v**n, 1.0 / v**n)
            else:
                flat = rng.dirichlet(np.ones(v**n))
                if builder == "sparse":
                    drop = rng.random(v**n) < 0.5
                    drop[int(rng.integers(v**n))] = False
                    flat[drop] = 0.0
                    flat /= flat.sum()
            p = flat.reshape((v,) * n)
            entries = [
                {"tuple": [symbols[j] for j in idx], "p": float(p[idx])}
                for idx in np.ndindex(p.shape) if p[idx] > 0
            ]
            data["text"] = json.dumps({
                "roles": roles,
                "alphabets": {r: symbols for r in roles},
                "entries": entries,
                "target": target,
            })
        aux["dense"] = p
        return Input(spec, data, aux)

    def run_op(self, inp, call):
        d, aux = inp.data, inp.aux
        target = d["target"]
        if d["builder"] == "markov":
            model = call(D.make_markov, aux["initial"], aux["transition"],
                         len(d["roles"]), None, target)
        else:
            model = call(D.model_from_json, d["text"])
        profiles = []
        for order, objective in zip(d["orders"], d["objectives"]):
            h = call(I.uncertainty_profile, model, order, target)
            info = call(I.predictability_profile, model, order, target)
            optimum = call(I.optimal_target_placement, model, order, objective, target)
            profiles.append((h.values, info.values, optimum))
        report = call(C.conflict_report, model, d["orders"][0], target)
        front = call(C.pareto_front, report)
        weighted = [call(C.weighted_optimum, report, lam) for lam in d["lambdas"]]
        rate_profile = call(R.model_rate_profile, model)
        cells = len(d["symbols"]) ** len(d["roles"])
        uid = call(R.uid_classify, model) if cells <= self.UID_MAX_CELLS else None
        return {"profiles": profiles, "conflict": report, "front": front,
                "weighted": weighted, "rate_profile": rate_profile.values, "uid": uid}

    def check(self, inp, out):
        return oracles.check_exact(inp.data, inp.aux["dense"], out)

    def warm_up_ops(self):
        # the cheapest spec of each builder
        best = {}
        for k, spec in enumerate(self.cycle):
            b = spec["builder"]
            if b not in best or self.cost(spec) < self.cost(self.cycle[best[b]]):
                best[b] = k
        return sorted(best.values())


# ---------------------------------------------------------------------------
# corpus: finite-corpus estimation


class Corpus(Workload):
    name = "corpus"

    TOKENS = (10_000, 17_800, 31_600, 56_200, 100_000)
    MARKOV_VOCAB = (3, 4, 5, 6, 8)
    ZIPF_VOCAB = (50, 100, 200, 350, 500)
    SMOKE_TOKENS = (1_000, 2_000)
    MAX_ORDER = 6
    CER_TOLERANCE = 0.05
    GAMMA_STEP = 0.005

    def make_cycle(self, smoke):
        sizes = self.SMOKE_TOKENS if smoke else self.TOKENS
        specs = []
        # cyclic counting costs about twice as much: only below the top size
        for k, n in enumerate(sizes):
            specs.append({"source": "markov", "tokens": n,
                          "cyclic": k % 2 == 0 and n < sizes[-1],
                          "vocab": self.MARKOV_VOCAB[(k + 2) % len(self.MARKOV_VOCAB)]})
            specs.append({"source": "zipf", "tokens": n,
                          "cyclic": k % 2 == 1 and n < sizes[-1],
                          "vocab": self.ZIPF_VOCAB[(k + 3) % len(self.ZIPF_VOCAB)]})
        return balanced(specs, self.cost)

    def cost(self, spec):
        return spec["tokens"] * (1.7 if spec["cyclic"] else 1.0)

    def make_input(self, i):
        spec = self.cycle[i % len(self.cycle)]
        rng = self.rng(i)
        v = spec["vocab"]
        data = {"tokens": spec["tokens"], "cyclic": spec["cyclic"],
                "generate_seed": int(rng.integers(2**31)),
                "cer_tolerance": self.CER_TOLERANCE, "gamma_step": self.GAMMA_STEP}
        if spec["source"] == "markov":
            symbols = [f"t{j}" for j in range(v)]
            initial = rng.dirichlet(np.ones(v))
            rows = rng.dirichlet(np.full(v, 0.5), size=v)
            data["initial"] = dict(zip(symbols, initial.tolist()))
            data["transition"] = {s: dict(zip(symbols, row.tolist()))
                                  for s, row in zip(symbols, rows)}
        else:
            symbols = [f"w{j}" for j in range(1, v + 1)]
            weights = np.arange(1, v + 1, dtype=float) ** -rng.uniform(0.9, 1.3)
            data["marginal"] = dict(zip(symbols, (weights / weights.sum()).tolist()))
        data["symbols"] = symbols
        gamma = 0.1 + self.GAMMA_STEP * int(rng.integers(0, 221))
        a, b = rng.uniform(0.5, 3.0), rng.uniform(0.1, 1.0)
        i_axis = np.arange(1, int(rng.integers(6, 17)) + 1, dtype=float)
        data["gamma"] = gamma
        data["hilberg"] = {"relaxed": (a * i_axis**-gamma + b).tolist(),
                           "pure": (a * i_axis**-gamma).tolist()}
        return Input(spec, data)

    def run_op(self, inp, call):
        d = inp.data
        seed = d["generate_seed"]
        if "marginal" in d:
            source = call(D.SequenceSource, "iid", marginal=d["marginal"], seed=seed)
        else:
            source = call(D.SequenceSource, "markov", initial=d["initial"],
                          transition=d["transition"], seed=seed)
        tokens = call(D.generate, source, d["tokens"], seed)
        table = call(R.ngram_counts, tokens, self.MAX_ORDER, d["cyclic"])
        profile = call(R.conditional_entropy_profile, table)
        cer = call(R.cer_diagnostic, profile, d["cer_tolerance"])
        peak = call(R.peak_cost, profile)
        scrambled = call(D.scramble, tokens, seed)
        scrambled_table = call(R.ngram_counts, scrambled, self.MAX_ORDER, d["cyclic"])
        scrambled_profile = call(R.conditional_entropy_profile, scrambled_table)
        fits = {}
        for variant, values in d["hilberg"].items():
            synthetic = call(I.EntropyProfile, values, "rate", False)
            fits[variant] = call(R.hilberg_fit, synthetic, variant)
        unigrams = table.counts[1]
        probs = [c / table.total_positions[1] for c in unigrams.values()]
        lengths = call(CO.optimal_lengths, probs)
        types = call(CO.TypeTable, probs, lengths)
        return {
            "tokens": tokens, "table": table, "profile": profile, "cer": cer,
            "peak": peak, "scrambled": scrambled, "scrambled_table": scrambled_table,
            "scrambled_profile": scrambled_profile, "fits": fits,
            "type_probs": probs, "lengths": lengths,
            "kraft": call(CO.kraft_sum, lengths),
            "mean_length": call(CO.mean_length, types),
            "abbreviation": call(CO.abbreviation_check, types),
        }

    def check(self, inp, out):
        return oracles.check_corpus(inp.data, out)


# ---------------------------------------------------------------------------
# typology: permutation ring and dependency length


class Typology(Workload):
    name = "typology"

    DECAYS = ("exponential", "inverse_power", "tabulated")
    EVOLVE = ((10_000, 10), (20_000, 25), (50_000, 20), (50_000, 50),
              (100_000, 50), (200_000, 50))
    LANDSCAPE_M = (50, 150, 300, 500, 700, 1000)
    SMOKE_EVOLVE = ((1_000, 5), (2_000, 10))
    SMOKE_M = (20, 40)
    COSTS = ("identity", "square", "exp:2")
    FILTERS = ("dlm", "verb_uncertainty", "nominal_uncertainty", "agent_first")

    def make_cycle(self, smoke):
        evolve = self.SMOKE_EVOLVE if smoke else self.EVOLVE
        ms = self.SMOKE_M if smoke else self.LANDSCAPE_M
        specs = []
        for j, (chains, steps) in enumerate(evolve):
            for k, decay in enumerate(self.DECAYS):
                specs.append({"decay": decay, "chains": chains, "steps": steps,
                              "m": ms[(j + 2 * k + 3) % len(ms)],
                              "cost": self.COSTS[(j + k) % len(self.COSTS)]})
        return balanced(specs, self.cost)

    def cost(self, spec):
        return 6e-8 * spec["chains"] * spec["steps"] + 4e-7 * spec["m"] ** 2

    def make_input(self, i):
        spec = self.cycle[i % len(self.cycle)]
        rng = self.rng(i)
        decay = spec["decay"]
        if decay == "exponential":
            param = float(rng.uniform(0.3, 2.0))
        elif decay == "inverse_power":
            param = float(rng.uniform(0.5, 3.0))
        else:
            param = {str(d): float(rng.uniform(0.1, 1.0)) for d in (1, 2, 3)}
        filters = {name: float(rng.uniform(0.5, 3.0))
                   for name in self.FILTERS if rng.random() < 0.5}
        kernel = {"decay": decay, "param": param, "filters": filters,
                  "self_weight": float(rng.uniform(0.0, 0.5))}
        pick = lambda: self.FILTERS[int(rng.integers(len(self.FILTERS)))]  # noqa: E731
        data = {
            "kernel": kernel,
            "start": oracles.ORDERS[int(rng.integers(6))],
            "chains": spec["chains"], "steps": spec["steps"],
            "evolve_seed": int(rng.integers(2**31)),
            "predictions": [["SOV", True, None], ["SVO", True, pick()],
                            ["SOV", False, pick()], ["SVO", False, pick()]],
            "m": spec["m"], "cost": spec["cost"],
        }
        decay_param = ({int(k): w for k, w in param.items()}
                       if decay == "tabulated" else param)
        return Input(spec, data, {"decay_param": decay_param})

    def run_op(self, inp, call):
        d = inp.data
        k = d["kernel"]
        kernel = call(RG.RingKernel, k["decay"], inp.aux["decay_param"], k["filters"],
                      k["self_weight"])
        matrix = call(RG.transition_matrix, kernel)
        trajectory = call(RG.evolve, kernel, d["start"], d["steps"], d["chains"],
                          d["evolve_seed"])
        final = call(trajectory.distribution, d["steps"])
        tv, agreements = call(RG.compare_to_reference, final)
        predictions = [call(RG.predicted_destinations, *args)
                       for args in d["predictions"]]
        if d["cost"] == "identity":
            transducer = I.IDENTITY
        elif d["cost"] == "square":
            transducer = call(I.CostTransducer, "power", (2,))
        else:
            transducer = call(I.CostTransducer, "exponential", (math.log(2.0),))
        land = call(DL.landscape, d["m"], transducer)
        out = {
            "matrix": matrix, "frequencies": trajectory.frequencies, "tv": tv,
            "agreements": [((str(a), str(b)), ok) for (a, b), ok in agreements],
            "predictions": [tuple(str(o) for o in p) for p in predictions],
            "costs": land.costs, "quasi_convex": land.quasi_convex,
            "min_positions": call(land.min_positions),
            "max_positions": call(land.max_positions),
        }
        if d["cost"] == "identity":
            out["min_sum"] = call(DL.min_dependency_sum, d["m"])
            out["max_sum"] = call(DL.max_dependency_sum, d["m"])
        return out

    def check(self, inp, out):
        return oracles.check_typology(inp.data, out)


# ---------------------------------------------------------------------------
# cli_cold: one cold `python -m ordlab.cli` subprocess per operation


def _spawn(argv, env, stdin, stdout, stderr):
    """Run argv to completion; returns (exit code, peak RSS in KiB)."""
    actions = [(os.POSIX_SPAWN_OPEN, 0, str(stdin), os.O_RDONLY, 0)]
    for fd, path in ((1, stdout), (2, stderr)):
        actions.append((os.POSIX_SPAWN_OPEN, fd, str(path),
                        os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644))
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, 9)
        os.wait4(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


class CliCold(Workload):
    name = "cli_cold"
    cold = True

    COMMANDS = ("ring_distance", "ring_neighbors", "ring_predict", "ring_compare",
                "ring_simulate", "deplen", "placement", "conflict", "rate_uid",
                "rate_profile", "rate_cer", "rate_hilberg", "rate_peak", "coding",
                "gen", "scramble")
    SMOKE_COMMANDS = ("ring_distance", "deplen", "rate_uid")

    def make_cycle(self, smoke):
        return [{"command": c}
                for c in (self.SMOKE_COMMANDS if smoke else self.COMMANDS)]

    def setup(self):
        """Write the input files and capture each command's in-process output."""
        rng = self.setup_rng()
        work = Path(self.workdir)
        files = {}

        def model_json(n, v, target):
            roles = ["y"] + [f"x{k}" for k in range(1, n)]
            symbols = "abcd"[:v]
            p = rng.dirichlet(np.ones(v**n)).reshape((v,) * n)
            entries = [{"tuple": [symbols[j] for j in idx], "p": float(p[idx])}
                       for idx in np.ndindex(p.shape)]
            return json.dumps({"roles": roles, "alphabets": {r: list(symbols) for r in roles},
                               "entries": entries, "target": target})

        files["model43.json"] = model_json(4, 3, "y")
        files["model33.json"] = model_json(3, 3, "y")
        v = 4
        cumulative = np.cumsum(rng.dirichlet(np.full(v, 0.5), size=v), axis=1)
        state, tokens = 0, []
        for u in rng.random(20_000):
            state = min(int(np.searchsorted(cumulative[state], u, side="right")), v - 1)
            tokens.append("abcd"[state])
        files["corpus.txt"] = " ".join(tokens) + "\n"
        probs = rng.dirichlet(np.full(200, 0.3))
        files["types.csv"] = "type,probability\n" + "".join(
            f"w{k},{p!r}\n" for k, p in enumerate((probs / probs.sum()).tolist()))
        files["simulate.json"] = json.dumps({
            "decay": {"kind": "exponential", "beta": float(rng.uniform(0.3, 2.0))},
            "filters": {"dlm": float(rng.uniform(0.5, 3.0))},
            "start": "SOV", "steps": 10, "ensemble_size": 10_000,
            "seed": int(rng.integers(2**31)),
        })
        files["empty"] = ""
        for name, text in files.items():
            (work / name).write_text(text, encoding="utf-8")
        dist = rng.dirichlet(np.ones(6)).tolist()
        initial = rng.dirichlet(np.ones(3)).tolist()
        transition = rng.dirichlet(np.ones(3), size=3).tolist()
        letters = "abc"
        seed = str(int(rng.integers(2**31)))
        orders = list(oracles.ORDERS)
        a, b = rng.choice(orders, 2, replace=False)
        path = lambda name: f"{{work}}/{name}"  # noqa: E731
        self.argv = {
            "ring_distance": ["ring", "distance", str(a), str(b)],
            "ring_neighbors": ["ring", "neighbors", str(rng.choice(orders))],
            "ring_predict": ["ring", "predict", "--from", "SOV", "--ring",
                             "--filter", "dlm"],
            "ring_compare": ["ring", "compare", "--dist",
                             ",".join(f"{o}={p!r}" for o, p in zip(orders, dist))],
            "ring_simulate": ["ring", "simulate", "--config", path("simulate.json")],
            "deplen": ["deplen", "--m", "50", "--g", "square"],
            "placement": ["placement", "--model", path("model43.json")],
            "conflict": ["conflict", "--model", path("model43.json")],
            "rate_uid": ["rate", "uid", "--model", path("model33.json")],
            "rate_profile": ["rate", "profile", path("corpus.txt")],
            "rate_cer": ["rate", "cer", path("corpus.txt")],
            "rate_hilberg": ["rate", "hilberg", path("corpus.txt")],
            "rate_peak": ["rate", "peak", path("corpus.txt")],
            "coding": ["coding", "--input", path("types.csv")],
            "gen": ["gen", "--kind", "markov",
                    "--initial", ",".join(f"{s}:{p!r}" for s, p in zip(letters, initial)),
                    "--transition", ",".join(f"{s}>{t}:{q!r}"
                                             for s, row in zip(letters, transition)
                                             for t, q in zip(letters, row)),
                    "--length", "10000", "--seed", seed],
            "scramble": ["scramble", path("corpus.txt"), "--seed", seed],
        }
        self.files_sha256 = hashlib.sha256(
            json.dumps(files, sort_keys=True).encode("utf-8")).hexdigest()
        self.expected = {}
        for spec in self.cycle:
            command = spec["command"]
            code, stdout, stderr = self.run_in_process(command)
            if code != 0 or stderr:
                raise RuntimeError(f"in-process `{command}` failed: {stderr!r}")
            self.expected[command] = stdout
        src = Path(cli.__file__).resolve().parent.parent
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.child_rss_kib = 0

    def args(self, command):
        return [a.replace("{work}", str(self.workdir)) for a in self.argv[command]]

    def run_in_process(self, command):
        from click.testing import CliRunner

        result = CliRunner().invoke(cli.main, self.args(command))
        return result.exit_code, result.stdout_bytes, result.stderr_bytes

    def make_input(self, i):
        spec = self.cycle[i % len(self.cycle)]
        command = spec["command"]
        return Input(spec, {"argv": self.argv[command], "files": self.files_sha256})

    def run_cold(self, command):
        work = Path(self.workdir)
        out, err = work / "stdout", work / "stderr"
        argv = [sys.executable, "-m", "ordlab.cli", *self.args(command)]
        code, rss = _spawn(argv, self.env, work / "empty", out, err)
        self.child_rss_kib = max(self.child_rss_kib, rss)
        return code, out.read_bytes(), err.read_bytes()

    def run_op(self, inp, call):
        return call(self.run_cold, inp.spec["command"])

    def run_traceable(self, inp, call):
        return call(self.run_in_process, inp.spec["command"])

    def peak_rss_kib(self):
        return self.child_rss_kib

    def check(self, inp, out):
        code, stdout, stderr = out
        problems = []
        if code != 0:
            problems.append(f"exit status {code}")
        if stderr:
            problems.append(f"stderr: {stderr[:200]!r}")
        if stdout != self.expected[inp.spec["command"]]:
            problems.append("stdout differs from the in-process output")
        return problems


WORKLOADS = {w.name: w for w in (Exact, Corpus, Typology, CliCold)}
