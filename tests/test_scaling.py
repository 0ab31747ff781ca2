"""Each library layer's work grows about linearly with its input.

Every case builds its input outside the clock and times the layer at sizes
n and 8n, as process time, best of 3, with the garbage collector off (as
``timeit`` does).  A linear or n log n layer reads a ratio near 8, up to
about 13 on a noisy host; a quadratic one reads about 64.  The test fails
above 24, so it guards the complexity class, not the speed.  Where n runs
in under 5 ms, n doubles until it does not, so timer noise cannot decide.
"""

import gc
import json
import time

import numpy as np
import pytest

from ordlab import coding, deplen, distributions, infotheory, rate, ring

RATIO_LIMIT = 24
MIN_SECONDS = 0.005


def best_of_3(run):
    times = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            start = time.process_time()
            run()
            times.append(time.process_time() - start)
    finally:
        gc.enable()
    return min(times)


def unequal_masses(n):
    weights = np.arange(n) % 7 + 1.0
    return (weights / weights.sum()).tolist()


def coding_report(n, contexts_per_type):
    """``report`` on n rows: n / contexts_per_type types, each in every context.

    One context per type is a plain table, with no context column.
    """
    probs = unequal_masses(n)
    types = [f"t{i // contexts_per_type}" for i in range(n)]
    if contexts_per_type == 1:
        contexts = [()] * n
    else:
        contexts = [(f"c{i % contexts_per_type}",) for i in range(n)]
    return lambda: coding.report(types, probs, contexts)


def hilberg_and_peak(n):
    i = np.arange(1, n + 1, dtype=float)
    profile = infotheory.EntropyProfile(2.0 * i ** -0.4 + 0.3, "rate", strict=False)
    return lambda: (rate.hilberg_fit(profile), rate.peak_cost(profile))


def generate_and_scramble(n):
    source = distributions.SequenceSource("iid", marginal={"a": 0.5, "b": 0.3, "c": 0.2})
    return lambda: distributions.scramble(distributions.generate(source, n, seed=1), 2)


def ring_evolve(n):
    kernel = ring.RingKernel("exponential", 1.0, {"dlm": 2.0})
    return lambda: ring.evolve(kernel, "SOV", n, 10_000, seed=3)


def model_and_profile(n):
    """A 3-role model of about n cells (an alphabet of n ** (1 / 3) symbols)."""
    v = round(n ** (1 / 3))
    symbols = [f"s{j}" for j in range(v)]
    probs = unequal_masses(v**3)
    entries = [{"tuple": [symbols[k // v**2], symbols[k // v % v], symbols[k % v]],
                "p": p} for k, p in enumerate(probs)]
    text = json.dumps({"roles": ["y", "a", "b"], "entries": entries, "target": "y",
                       "alphabets": {r: symbols for r in ("y", "a", "b")}})
    return lambda: infotheory.uncertainty_profile(
        distributions.model_from_json(text), ("a", "b"), "y")


def ngrams_and_profile(n):
    marginal = {f"w{j}": p for j, p in enumerate(unequal_masses(20))}
    tokens = distributions.generate(distributions.SequenceSource("iid", marginal), n, 4)
    return lambda: rate.conditional_entropy_profile(rate.ngram_counts(tokens, 4))


# name: (n, build), where build(n) returns the timed call
CASES = {
    "deplen.landscape": (30_000, lambda n: lambda: deplen.landscape(n)),
    "coding.report": (2_000, lambda n: coding_report(n, 1)),
    "coding.report with a context column": (2_000, lambda n: coding_report(n, 4)),
    "hilberg_fit + peak_cost": (600, hilberg_and_peak),
    "generate + scramble": (150_000, generate_and_scramble),
    "ring.evolve": (400, ring_evolve),
    "model_from_json + uncertainty_profile": (3_000, model_and_profile),
    "ngram_counts + conditional_entropy_profile": (300_000, ngrams_and_profile),
}


@pytest.mark.parametrize("name", list(CASES))
def test_eight_times_the_input_costs_at_most_24_times_the_time(name):
    n, build = CASES[name]
    while (small := best_of_3(build(n))) < MIN_SECONDS:
        n *= 2
    large = best_of_3(build(8 * n))
    assert large / small <= RATIO_LIMIT, (
        f"{name}: n = {n} took {small * 1e3:.1f} ms, 8n took {large * 1e3:.1f} ms "
        f"(ratio {large / small:.1f} > {RATIO_LIMIT})"
    )
