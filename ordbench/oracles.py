"""Independent reference computations the benchmark checks outputs against.

Nothing here calls ordlab: each value is recomputed with numpy from the
inputs the benchmark generated, by a different method where one exists
(dense arrays instead of sparse dicts, prefix sums instead of pairwise
loops, matrix powers instead of sampling).  Each ``check_*`` function
returns a list of problems; an empty list means the operation passed.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9  # absolute tolerance on values in bits
TIE = 1e-9  # tie tolerance of ordlab's optimum sets
SE_LIMIT = 5.0  # binomial standard errors allowed for sampled frequencies


def _close(problems, label, got, want, tol=TOL):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.all(np.abs(got - want) <= tol):
        problems.append(f"{label}: got {got.tolist()!r}, want {want.tolist()!r}")


def _equal(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, want {want!r}")


def entropy_bits(weights):
    w = np.asarray(weights, dtype=float).ravel()
    total = w.sum()
    q = w[w > 0] / total
    return float(-(q * np.log2(q)).sum())


# ---------------------------------------------------------------------------
# exact models


def dense_entropy(p, axes):
    """Entropy of the marginal of dense table ``p`` over ``axes`` (0 if none)."""
    axes = tuple(axes)
    if not axes:
        return 0.0
    drop = tuple(a for a in range(p.ndim) if a not in axes)
    return entropy_bits(p.sum(axis=drop))


def markov_dense(initial, transition, n):
    """Dense P(x_1..x_n) = pi(x_1) prod A(x_{k-1}, x_k)."""
    p = np.asarray(initial, dtype=float)
    a = np.asarray(transition, dtype=float)
    for _ in range(1, n):
        p = p[..., :, None] * a
    return p


def uid_verdict(p, tolerance=1e-9):
    """(verdict, worst spread) of the chain conditionals over the support."""
    n = p.ndim
    conditionals = []
    previous = None
    for i in range(n):
        marginal = p.sum(axis=tuple(range(i + 1, n)))
        if previous is None:
            cond = marginal
        else:
            denom = np.broadcast_to(previous[..., None], marginal.shape)
            cond = np.divide(marginal, denom, out=np.zeros_like(marginal),
                             where=denom > 0)
        conditionals.append(
            np.broadcast_to(cond.reshape(cond.shape + (1,) * (n - i - 1)), p.shape))
        previous = marginal
    stacked = np.stack(conditionals)
    support = p > 0
    spread = (stacked.max(axis=0) - stacked.min(axis=0))[support]
    worst = float(spread.max())
    if worst > tolerance:
        return "neither", worst
    return ("full_uid" if support.all() else "strong_uid"), worst


def optimum_set(values, maximize):
    best = max(values) if maximize else min(values)
    if maximize:
        return frozenset(i for i, v in enumerate(values) if v >= best - TIE)
    return frozenset(i for i, v in enumerate(values) if v <= best + TIE)


def pareto(dep, unc):
    dep, unc = np.asarray(dep), np.asarray(unc)
    front = set()
    for i in range(len(dep)):
        no_worse = (dep <= dep[i]) & (unc <= unc[i])
        better = (dep < dep[i]) | (unc < unc[i])
        if not np.any(no_worse & better):
            front.add(i + 1)
    return frozenset(front)


def weighted(dep, unc, lam):
    def scaled(col):
        col = np.asarray(col, dtype=float)
        span = col.max() - col.min()
        return np.zeros_like(col) if span <= 0 else (col - col.min()) / span

    score = lam * scaled(dep) + (1 - lam) * scaled(unc)
    return frozenset(int(i) + 1 for i in np.flatnonzero(score <= score.min() + TIE))


def star_sum(m):
    """Sum of |p - d| over d != p, for every head position p = 1..m."""
    pos = np.arange(1, m + 1)
    return (pos - 1) * pos // 2 + (m - pos) * (m - pos + 1) // 2


def check_exact(data, p, out):
    problems = []
    roles = data["roles"]
    axis = {r: i for i, r in enumerate(roles)}
    t = axis[data["target"]]
    h0 = dense_entropy(p, (t,))
    for k, (order, (h, info, optimum)) in enumerate(zip(data["orders"],
                                                        out["profiles"])):
        ctx = [axis[r] for r in order]
        want = [dense_entropy(p, [t] + ctx[:i]) - dense_entropy(p, ctx[:i])
                for i in range(len(ctx) + 1)]
        _close(problems, f"uncertainty profile {k}", h, want)
        _close(problems, f"predictability profile {k}", info,
               [h0 - w for w in want])
        _close(problems, f"I[i] + H[i] = H[0] {k}", np.add(info, h),
               [h[0]] * len(h))
        maximize = data["objectives"][k] == "predictability"
        _equal(problems, f"optimal placement {k}", optimum,
               optimum_set(info if maximize else h, maximize))
    report = out["conflict"]
    m = len(roles)
    _close(problems, "conflict dep costs", report.dep_costs, star_sum(m))
    _close(problems, "conflict uncertainties", report.uncertainties,
           out["profiles"][0][0])
    _equal(problems, "pareto front", out["front"],
           pareto(report.dep_costs, report.uncertainties))
    for lam, got in zip(data["lambdas"], out["weighted"]):
        _equal(problems, f"weighted optimum {lam}", got,
               weighted(report.dep_costs, report.uncertainties, lam))
    blocks = [dense_entropy(p, range(i)) for i in range(m + 1)]
    _close(problems, "model rate profile", out["rate_profile"], np.diff(blocks))
    if out["uid"] is not None:
        verdict, worst = uid_verdict(p)
        if data["builder"] == "uniform" and verdict != "full_uid":
            problems.append(f"oracle: iid-uniform model has verdict {verdict}")
        _equal(problems, "uid verdict", out["uid"].verdict, verdict)
        _close(problems, "uid worst spread", out["uid"].worst_spread, worst)
    return problems


# ---------------------------------------------------------------------------
# finite corpora


def tau_b(x, y):
    """Kendall tau-b by all pairwise signs; None when a variable is constant."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    iu = np.triu_indices(len(x), k=1)
    dx = np.sign(x[:, None] - x[None, :])[iu]
    dy = np.sign(y[:, None] - y[None, :])[iu]
    n1, n2 = np.count_nonzero(dx), np.count_nonzero(dy)
    if n1 == 0 or n2 == 0:
        return None
    return float((dx * dy).sum() / math.sqrt(n1 * n2))


def _check_counts(problems, label, table, n, cyclic):
    for order in range(1, table.max_order + 1):
        windows = n if cyclic else max(0, n - order + 1)
        _equal(problems, f"{label} windows at order {order}",
               table.total_positions[order], windows)
        _equal(problems, f"{label} count sum at order {order}",
               sum(table.counts[order].values()), windows)


def _check_profile(problems, label, table, profile, cap=0.2):
    kept = 0
    for order in range(1, table.max_order + 1):
        total = table.total_positions[order]
        if total < 1 or (order > 1 and len(table.counts[order]) > cap * total):
            break
        kept = order
    _equal(problems, f"{label} orders kept", len(profile.values), kept)
    blocks = [0.0] + [
        entropy_bits(np.fromiter(table.counts[k].values(), dtype=float))
        for k in range(1, kept + 1)
    ]
    _close(problems, f"{label} profile", profile.values, np.diff(blocks))


def check_corpus(data, out):
    problems = []
    tokens, scrambled = out["tokens"], out["scrambled"]
    n, cyclic = data["tokens"], data["cyclic"]
    _equal(problems, "generated length", len(tokens), n)
    symbols, counts = np.unique(np.asarray(tokens), return_counts=True)
    if not set(symbols.tolist()) <= set(data["symbols"]):
        problems.append("generated tokens outside the source alphabet")
    h1 = entropy_bits(counts)
    for label, table, profile in (("corpus", out["table"], out["profile"]),
                                  ("scrambled", out["scrambled_table"],
                                   out["scrambled_profile"])):
        _check_counts(problems, label, table, n, cyclic)
        _check_profile(problems, label, table, profile)
        _close(problems, f"{label} order-1 entropy", profile.values[0], h1)
    if not np.array_equal(np.sort(np.asarray(scrambled)), np.sort(np.asarray(tokens))):
        problems.append("scramble changed the token multiset")
    values = list(out["profile"].values)
    spread = max(values) - min(values)
    cer = out["cer"]
    _close(problems, "cer spread", cer.spread, spread)
    _equal(problems, "cer flat", cer.flat, spread <= data["cer_tolerance"])
    _equal(problems, "peak", out["peak"], (max(values), values.index(max(values)) + 1))
    for variant, fit in out["fits"].items():
        if abs(fit.gamma - data["gamma"]) > data["gamma_step"] + 1e-12:
            problems.append(f"hilberg {variant}: gamma {fit.gamma} vs {data['gamma']}")
    lengths, kraft, mean = out["lengths"], out["kraft"], out["mean_length"]
    probs = np.asarray(out["type_probs"])
    _equal(problems, "type count", len(lengths), len(symbols))
    _close(problems, "kraft sum", kraft, np.sum(np.exp2(-np.asarray(lengths, float))))
    if kraft > 1 + 1e-12:
        problems.append(f"kraft sum {kraft} > 1")
    if not h1 - 1e-12 <= mean < h1 + 1:
        problems.append(f"mean length {mean} not in [H, H + 1) with H = {h1}")
    tau = tau_b(probs, lengths)
    verdict = out["abbreviation"]
    if tau is None:
        _equal(problems, "abbreviation all tied", verdict.all_tied, True)
    else:
        _close(problems, "abbreviation tau", verdict.tau, tau)
        _equal(problems, "abbreviation holds", verdict.holds, tau <= 1e-12)
    return problems


# ---------------------------------------------------------------------------
# ring and dependency length

# most to least frequent; cyclically adjacent entries differ by one swap
ORDERS = ("SOV", "SVO", "VSO", "VOS", "OVS", "OSV")
REFERENCE_COUNTS = (2275, 2117, 503, 174, 40, 19)
FILTERS = {
    "dlm": {"SVO", "OVS"},
    "verb_uncertainty": {"SOV", "OSV"},
    "nominal_uncertainty": {"VSO", "VOS"},
    "agent_first": {"SOV", "SVO"},
}


def ring_distance(a, b):
    d = abs(ORDERS.index(a) - ORDERS.index(b))
    return min(d, 6 - d)


def kernel_matrix(kernel):
    matrix = np.zeros((6, 6))
    for i, src in enumerate(ORDERS):
        for j, dst in enumerate(ORDERS):
            if i == j:
                matrix[i, j] = kernel["self_weight"]
                continue
            d = ring_distance(src, dst)
            if kernel["decay"] == "exponential":
                w = math.exp(-kernel["param"] * d)
            elif kernel["decay"] == "inverse_power":
                w = d ** -kernel["param"]
            else:
                w = kernel["param"][str(d)]
            for name, boost in kernel["filters"].items():
                if dst in FILTERS[name]:
                    w *= boost
            matrix[i, j] = w
    return matrix / matrix.sum(axis=1, keepdims=True)


def predicted(source, use_ring, use_filter):
    candidates = set(ORDERS)
    if use_ring:
        i = ORDERS.index(source)
        candidates &= {ORDERS[(i - 1) % 6], ORDERS[(i + 1) % 6]}
    if use_filter is not None:
        candidates &= FILTERS[use_filter]
    return tuple(o for o in ORDERS if o in candidates)


def landscape_costs(m, cost):
    """cost(p) = G(p - 1) + G(m - p) with G(k) = sum_{j<=k} g(j)."""
    d = np.arange(1, m, dtype=float)
    g = {"identity": d, "square": d**2, "exp:2": np.exp2(d)}[cost]
    prefix = np.concatenate([[0.0], np.cumsum(g)])
    pos = np.arange(1, m + 1)
    return prefix[pos - 1] + prefix[m - pos]


def check_typology(data, out):
    problems = []
    kernel = data["kernel"]
    want = kernel_matrix(kernel)
    _close(problems, "transition matrix", out["matrix"], want, tol=1e-12)
    freqs = np.asarray(out["frequencies"])
    chains, steps = data["chains"], data["steps"]
    _equal(problems, "trajectory shape", freqs.shape, (steps + 1, 6))
    if freqs.shape == (steps + 1, 6):
        counts = freqs * chains
        if not np.allclose(counts, np.round(counts), atol=1e-6):
            problems.append("frequencies are not multiples of 1/ensemble_size")
        _close(problems, "frequency row sums", freqs.sum(axis=1), np.ones(steps + 1),
               tol=1e-12)
        start = np.zeros(6)
        start[ORDERS.index(data["start"])] = 1.0
        expect = start @ np.linalg.matrix_power(want, steps)
        se = np.sqrt(expect * (1 - expect) / chains)
        if np.any(np.abs(freqs[steps] - expect) > SE_LIMIT * se + 1e-12):
            problems.append(f"final frequencies {freqs[steps].tolist()} outside "
                            f"{SE_LIMIT} standard errors of {expect.tolist()}")
        final = freqs[steps]
        ref = np.asarray(REFERENCE_COUNTS) / sum(REFERENCE_COUNTS)
        _close(problems, "total variation", out["tv"],
               0.5 * np.abs(final - ref).sum(), tol=1e-12)
        agree = [((a, b), bool(final[i] > final[j]))
                 for i, a in enumerate(ORDERS) for j, b in enumerate(ORDERS) if j > i]
        _equal(problems, "rank agreement", out["agreements"], agree)
    for args, got in zip(data["predictions"], out["predictions"]):
        _equal(problems, f"predicted destinations {args}", got, predicted(*args))
    m, cost = data["m"], data["cost"]
    costs = np.asarray(out["costs"])
    want_costs = landscape_costs(m, cost)
    if costs.shape != want_costs.shape or not np.allclose(costs, want_costs,
                                                          rtol=1e-9, atol=0):
        problems.append(f"landscape costs for m={m}, {cost} differ from prefix sums")
    _equal(problems, "quasi-convex", out["quasi_convex"], True)
    centers = frozenset({(m + 1) // 2}) if m % 2 else frozenset({m // 2, m // 2 + 1})
    _equal(problems, "min positions", out["min_positions"], centers)
    _equal(problems, "max positions", out["max_positions"], frozenset({1, m}))
    if cost == "identity":
        low, high = (m * m - m % 2) // 4, m * (m - 1) // 2
        _equal(problems, "min dependency sum", out["min_sum"], (low, centers))
        _equal(problems, "max dependency sum", out["max_sum"],
               (high, frozenset({1, m})))
        _equal(problems, "landscape minimum", min(out["costs"]), low)
        _equal(problems, "landscape maximum", max(out["costs"]), high)
    return problems
