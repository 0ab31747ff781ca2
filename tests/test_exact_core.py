"""The integer-coded model core against the dict loops it replaced.

``reference_marginal`` and ``reference_chain_conditionals`` are the
per-row dict loops that ``JointSequenceModel.marginal`` and ``uid_classify``
used before the table was grouped from integer codes; every exact quantity
built on them must come out with the same floats, compared with ``==``.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ordlab import distributions as d, infotheory, rate


def reference_marginal(model, roles):
    idx = [model.role_index(r) for r in roles]
    out = {}
    for key, p in model.table.items():
        sub = tuple(key[i] for i in idx)
        out[sub] = out.get(sub, 0.0) + p
    return out


def reference_entropy(model, roles):
    table = reference_marginal(model, roles)
    return -math.fsum(p * math.log2(p) for p in table.values() if p > 0.0)


def reference_conditional_entropy(model, target, context):
    if not context:
        return reference_entropy(model, (target,))
    return reference_entropy(model, (target,) + context) - reference_entropy(
        model, context
    )


def reference_uncertainty_profile(model, order, target):
    return [
        reference_conditional_entropy(model, target, tuple(order[:i]))
        for i in range(len(order) + 1)
    ]


def reference_predictability_profile(model, order, target):
    h_target = reference_entropy(model, (target,))
    return [0.0] + [
        h_target - reference_conditional_entropy(model, target, tuple(order[:i]))
        for i in range(1, len(order) + 1)
    ]


def reference_rate_profile(model):
    values, previous = [], 0.0
    for i in range(1, len(model.roles) + 1):
        h_block = reference_entropy(model, model.roles[:i])
        values.append(h_block - previous)
        previous = h_block
    return values


def reference_chain_conditionals(model, sequence):
    probs = []
    for i in range(len(model.roles)):
        joint = reference_marginal(model, model.roles[: i + 1]).get(
            tuple(sequence[: i + 1]), 0.0
        )
        if i == 0:
            probs.append(joint)
        else:
            prev = reference_marginal(model, model.roles[:i]).get(
                tuple(sequence[:i]), 0.0
            )
            probs.append(joint / prev if prev > 0 else 0.0)
    return probs


def reference_uid(model, tolerance=1e-9):
    worst, offender = 0.0, None
    for sequence in model.table:
        probs = reference_chain_conditionals(model, sequence)
        spread = max(probs) - min(probs)
        if spread > worst:
            worst, offender = spread, sequence
    if worst > tolerance:
        return "neither", worst, offender
    cardinality = math.prod(len(model.alphabets[r]) for r in model.roles)
    full = len(model.table) == cardinality
    return ("full_uid" if full else "strong_uid"), worst, None


@st.composite
def exact_models(draw):
    """Dirichlet, sparse or tied tables in shuffled order; unused symbols."""
    n = draw(st.integers(1, 4))
    roles = [f"r{k}" for k in range(n)]
    used = [draw(st.integers(1, 3)) for _ in roles]
    unused = [draw(st.integers(0, 2)) for _ in roles]
    alphabets = {
        r: d.Alphabet(tuple(f"s{j}" for j in range(u + x)))
        for r, u, x in zip(roles, used, unused)
    }
    cells = list(
        itertools.product(*(alphabets[r].symbols[:u] for r, u in zip(roles, used)))
    )
    kind = draw(st.sampled_from(["dirichlet", "sparse", "tied"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(len(cells)) * 0.7)
    if kind != "dirichlet":
        keep = rng.random(len(cells)) < 0.5
        keep[int(rng.integers(len(cells)))] = True
        weights = np.where(keep, weights, 0.0)
    if kind == "tied":
        weights = np.where(weights > 0, 1.0, 0.0)
    weights /= weights.sum()
    order = draw(st.permutations(range(len(cells))))
    table = {cells[i]: float(weights[i]) for i in order if weights[i] > 0}
    target = draw(st.sampled_from(roles))
    return d.make_joint(roles, table, alphabets, target)


def role_tuples(model):
    roles = model.roles
    return st.integers(0, len(roles)).flatmap(
        lambda k: st.permutations(roles).map(lambda p: tuple(p[:k]))
    )


def same_floats(a, b):
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_marginals_and_entropies_match_the_dict_loop(data):
    model = data.draw(exact_models())
    queries = data.draw(st.lists(role_tuples(model), min_size=1, max_size=6))
    for roles in queries + queries:  # the second pass hits the memo
        assert list(model.marginal(roles).items()) == list(
            reference_marginal(model, roles).items()
        )
        assert infotheory.entropy(model, roles) == reference_entropy(model, roles)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_profiles_match_the_dict_loop(data):
    model = data.draw(exact_models())
    target = model.target_role
    context = [r for r in model.roles if r != target]
    orders = data.draw(st.lists(st.permutations(context), min_size=1, max_size=3))
    for order in orders:
        h = infotheory.uncertainty_profile(model, order, target).values
        i = infotheory.predictability_profile(model, order, target).values
        assert same_floats(h, reference_uncertainty_profile(model, order, target))
        assert same_floats(i, reference_predictability_profile(model, order, target))
    assert same_floats(
        rate.model_rate_profile(model).values, reference_rate_profile(model)
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_uid_matches_the_dict_loop(data):
    model = data.draw(exact_models())
    for _ in range(2):
        result = rate.uid_classify(model)
        verdict, worst, offender = reference_uid(model)
        assert result.verdict == verdict
        assert result.worst_spread == worst
        assert result.offending_sequence == offender
    symbols = [model.alphabets[r].symbols for r in model.roles]
    sequences = list(model.table)[:4] + data.draw(
        st.lists(st.tuples(*(st.sampled_from(s) for s in symbols)), max_size=4)
    )
    for sequence in sequences:
        expected = reference_chain_conditionals(model, sequence)
        assert rate.uid_spread(sequence, model) == max(expected) - min(expected)
        assert rate.uid_spread(list(sequence), model) == max(expected) - min(expected)


def test_mutating_a_returned_marginal_leaves_later_results_alone():
    table = {("a", "x"): 0.5, ("b", "x"): 0.25, ("b", "y"): 0.25}
    model = d.make_joint(("t", "c"), table)
    before = infotheory.entropy(model, ("t",))
    marginal = model.marginal(("t",))
    marginal[("a",)] = 0.9
    marginal[("z",)] = 0.1
    assert infotheory.entropy(model, ("t",)) == before == 1.0
    assert model.marginal(("t",)) == {("a",): 0.5, ("b",): 0.5}
    marginal.clear()
    assert model.marginal(("t",)) == {("a",): 0.5, ("b",): 0.5}


def test_memo_is_not_part_of_equality_or_repr():
    table = {("a", "x"): 0.5, ("b", "y"): 0.5}
    queried, fresh = d.make_joint(("t", "c"), table), d.make_joint(("t", "c"), table)
    infotheory.entropy(queried, ("t", "c"))
    assert queried == fresh
    assert repr(queried) == repr(fresh)


def test_marginals_past_int64_mixed_radix_codes():
    """40 roles x 5 symbols: the alphabet product 5^40 is above 2^63."""
    assert 5**40 > 2**63
    rng = np.random.default_rng(11)
    roles = [f"r{k}" for k in range(40)]
    symbols = tuple("abcde")
    rows = sorted({tuple(symbols[j] for j in rng.integers(0, 5, 40))
                   for _ in range(60)})
    # 20 more rows that differ from an existing one only in the last role
    rows += [key[:-1] + ("e" if key[-1] != "e" else "a",) for key in rows[:20]]
    order = rng.permutation(len(rows))
    weights = rng.dirichlet(np.ones(len(rows)))
    table = {rows[i]: float(w) for i, w in zip(order, weights)}
    model = d.make_joint(roles, table, {r: d.Alphabet(symbols) for r in roles})
    queries = (roles, roles[::-1], roles[:39], roles[5:], roles[39:] + roles[:3])
    for query in map(tuple, queries):
        assert list(model.marginal(query).items()) == list(
            reference_marginal(model, query).items()
        )
        assert infotheory.entropy(model, query) == reference_entropy(model, query)
    assert len(table) == 80
    assert len(model.marginal(roles[:39])) == 60


def test_uid_classify_on_a_large_dirichlet_model_matches_a_dense_oracle():
    """3^9 cells, where the per-row dict loop would take hours."""
    n, v = 9, 3
    rng = np.random.default_rng(5)
    dense = rng.dirichlet(np.ones(v**n)).reshape((v,) * n)
    roles = [f"x{k}" for k in range(1, n + 1)]
    cells = list(itertools.product(range(v), repeat=n))
    table = {tuple(f"s{j}" for j in cell): float(dense[cell]) for cell in cells}
    model = d.make_joint(roles, table)
    result = rate.uid_classify(model)

    # dense oracle: P(x_<=i) / P(x_<i) on the full grid
    prefix = [np.ones(())]
    prefix += [dense.sum(axis=tuple(range(i, n))) for i in range(1, n + 1)]
    conditionals = []
    for i in range(1, n + 1):
        ratio = prefix[i] / prefix[i - 1][..., None]
        conditionals.append(ratio.reshape(ratio.shape + (1,) * (n - i)))
    stack = np.stack(np.broadcast_arrays(*conditionals))
    spreads = stack.max(axis=0) - stack.min(axis=0)
    assert result.verdict == "neither"
    assert result.worst_spread == pytest.approx(float(spreads.max()), rel=1e-12)
    worst_cell = tuple(int(s[1:]) for s in result.offending_sequence)
    assert spreads[worst_cell] == pytest.approx(float(spreads.max()), rel=1e-12)
    assert rate.uid_spread(result.offending_sequence, model) == result.worst_spread
    for cell in cells[:5]:
        key = tuple(f"s{j}" for j in cell)
        expected = float(spreads[cell])
        assert rate.uid_spread(key, model) == pytest.approx(expected, rel=1e-9)
