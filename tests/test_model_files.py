"""Model files against the per-entry loops that validated and sorted them.

``reference_validate`` is the per-entry arity and alphabet-membership loop
that model validation ran before the table was coded in one pass, then a
scan for a tuple listed twice, and
``reference_model_to_json`` the per-cell alphabet-index sort the writer
used.  Every document must raise the same error class and message, and
every valid one must be written back with the same text.
"""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from ordlab import distributions as d
from ordlab.errors import ArityMismatch, InputParseError, OrdlabError, UnknownRole

POOL = ("a", "b", "c", "d")
FAULTS = ("unknown", "unknown_zero", "arity", "negative", "mass", "repeat")


def reference_validate(roles, alphabets, table, entries):
    for key in table:
        if len(key) != len(roles):
            raise ArityMismatch(
                f"tuple {key!r} has arity {len(key)}, expected {len(roles)}"
            )
        for role, symbol in zip(roles, key):
            if symbol not in alphabets[role]:
                raise UnknownRole(f"symbol {symbol!r} not in alphabet of role {role!r}")
    keys = [tuple(e["tuple"]) for e in entries]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise InputParseError(f"bad model document: the tuple {key!r} repeats")
    d.check_mass(table.values(), "total")


def reference_model_to_json(model):
    entries = [
        {"tuple": list(key), "p": p}
        for key, p in sorted(
            model.table.items(),
            key=lambda kv: tuple(
                model.alphabets[r].symbols.index(s) for r, s in zip(model.roles, kv[0])
            ),
        )
    ]
    doc = {
        "roles": list(model.roles),
        "alphabets": {r: list(model.alphabets[r].symbols) for r in model.roles},
        "entries": entries,
    }
    if model.target_role is not None:
        doc["target"] = model.target_role
    return json.dumps(doc, indent=2) + "\n"


@st.composite
def model_documents(draw):
    """Valid documents in shuffled order, and ones with up to two faults."""
    n = draw(st.integers(0, 3))
    roles = [f"r{k}" for k in range(n)]
    alphabets = {
        r: draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3, unique=True))
        for r in roles
    }
    cells = list(itertools.product(*alphabets.values()))
    keys = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.0])
                            | st.floats(0.0, 1.0),
                            min_size=len(keys), max_size=len(keys)))
    if not any(weights):
        weights[0] = 1.0
    total = sum(weights)
    entries = [{"tuple": list(k), "p": w / total} for k, w in zip(keys, weights)]
    if len(entries) == 1 and draw(st.booleans()):
        entries[0]["p"] = 1  # an integer probability
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        i = draw(st.integers(0, len(entries) - 1))
        if fault == "arity":
            key = entries[i]["tuple"]
            entries[i]["tuple"] = key[:-1] if key and draw(st.booleans()) else key + ["a"]
        elif fault == "negative":
            entries[i]["p"] = -0.5
        elif fault == "mass":
            entries[i]["p"] += 0.5
        elif fault == "repeat":
            p = draw(st.sampled_from([0.0, entries[i]["p"]]))
            copy = {"tuple": list(entries[i]["tuple"]), "p": p}
            entries.insert(draw(st.integers(0, len(entries))), copy)
        elif n:
            j = draw(st.integers(0, n - 1))
            outside = [s for s in POOL + ("z",) if s not in alphabets[roles[j]]]
            key = list(entries[i]["tuple"])
            key[j:j + 1] = [draw(st.sampled_from(outside))]
            if fault == "unknown":
                entries[i]["tuple"] = key
            else:
                entries.insert(i, {"tuple": key, "p": 0.0})
    doc = {"roles": roles, "alphabets": alphabets, "entries": entries}
    if roles and draw(st.booleans()):
        doc["target"] = draw(st.sampled_from(roles))
    return doc


@settings(max_examples=400, deadline=None)
@given(model_documents(), st.data())
def test_model_files_match_the_per_entry_loop(doc, data):
    text = json.dumps(doc)
    roles = tuple(doc["roles"])
    alphabets = {r: tuple(doc["alphabets"][r]) for r in roles}
    table = {tuple(e["tuple"]): e["p"] for e in doc["entries"]}
    try:
        reference_validate(roles, alphabets, table, doc["entries"])
    except OrdlabError as exc:
        with pytest.raises(OrdlabError) as caught:
            d.model_from_json(text)
        assert type(caught.value) is type(exc)
        assert str(caught.value) == str(exc)
        return
    model = d.model_from_json(text)
    assert list(model.table) == [k for k, p in table.items() if p > 0.0]
    written = d.model_to_json(model)
    assert written == reference_model_to_json(model)
    assert d.model_from_json(written) == model
    if not roles:
        return
    kept = data.draw(st.permutations(roles).flatmap(
        lambda p: st.integers(1, len(p)).map(lambda k: tuple(p[:k]))))
    marginal = d.marginalize(model, kept)
    assert d.model_to_json(marginal) == reference_model_to_json(marginal)
    assert list(marginal.marginal(kept).items()) == list(model.marginal(kept).items())
    for k in range(len(kept) + 1):
        assert list(marginal.marginal(kept[:k])) == list(model.marginal(kept[:k]))


def test_first_bad_entry_wins_and_arity_comes_before_symbols():
    doc = {
        "roles": ["y", "x"],
        "alphabets": {"y": ["a"], "x": ["a"]},
        "entries": [
            {"tuple": ["a", "a"], "p": 0.5},
            {"tuple": ["z", "a", "a"], "p": 0.0},
            {"tuple": ["a", "z"], "p": 0.5},
        ],
    }
    with pytest.raises(ArityMismatch, match=r"\('z', 'a', 'a'\) has arity 3"):
        d.model_from_json(json.dumps(doc))
    doc["entries"][1]["tuple"] = ["a", "q"]
    with pytest.raises(UnknownRole, match="symbol 'q' not in alphabet of role 'x'"):
        d.model_from_json(json.dumps(doc))
