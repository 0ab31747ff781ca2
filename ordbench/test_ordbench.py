"""Tests of the benchmark itself: python3 -m pytest ordbench -q"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import compare  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, balanced  # noqa: E402

NAMES = sorted(WORKLOADS)


def smoke_workload(name, seed, tmp_path):
    workload = WORKLOADS[name](seed, smoke=True, workdir=tmp_path)
    workload.setup()
    return workload


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_passes_its_checks(name, tmp_path):
    workload = smoke_workload(name, 1, tmp_path)
    workload.warm_up()
    tally = run.measure(workload, 0.5)
    assert tally.attempted >= 1
    assert tally.failures == []


def _break_exact(monkeypatch, workload):
    real = oracles.dense_entropy
    monkeypatch.setattr(oracles, "dense_entropy", lambda p, axes: real(p, axes) + 1e-6)


def _break_corpus(monkeypatch, workload):
    real = oracles.entropy_bits
    monkeypatch.setattr(oracles, "entropy_bits", lambda w: real(w) + 1e-6)


def _break_typology(monkeypatch, workload):
    real = oracles.landscape_costs
    monkeypatch.setattr(oracles, "landscape_costs", lambda m, c: real(m, c) * (1 + 1e-6))


def _break_cli_cold(monkeypatch, workload):
    workload.expected = {c: out + b"x" for c, out in workload.expected.items()}


@pytest.mark.parametrize("name", NAMES)
def test_wrong_oracle_answer_is_a_failed_operation(name, tmp_path, monkeypatch):
    workload = smoke_workload(name, 1, tmp_path)
    globals()[f"_break_{name}"](monkeypatch, workload)
    tally = run.measure(workload, 0.5)
    assert tally.attempted >= 1
    assert len(tally.failures) / tally.attempted > 0


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_operations_and_inputs(name, tmp_path):
    def sequence(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        workload = smoke_workload(name, seed, workdir)
        inputs = [workload.make_input(i) for i in range(6)]
        return [inp.spec for inp in inputs], [inp.digest for inp in inputs]

    specs_a, digests_a = sequence(7, "a")
    specs_b, digests_b = sequence(7, "b")
    specs_c, digests_c = sequence(8, "c")
    assert specs_a == specs_b and digests_a == digests_b
    assert digests_c != digests_a


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_reports_every_declared_metric(trace, tmp_path, capsys):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = ["--workload", "typology", "--seed", "3", "--seconds", "0.5", "--smoke",
            "--trace", str(trace), "--out", str(tmp_path)]
    assert run.main(argv) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    listed = declared["per_layer" if trace else "end_to_end"]
    assert summary["metrics"] == {
        m["name"]: {"value": summary["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in listed
    }


def test_tail_has_ten_samples_beyond():
    value, percentile, beyond = compare.tail([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10)
    assert percentile == pytest.approx(100 * 89 / 99)


def test_compare_labels():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    pairs = lambda a, b: list(zip(a, b))  # noqa: E731
    assert compare.verdict(base, base, "lower", 0.1, pairs(base, base))[0] == "same"
    slower = [x * 1.5 for x in base]
    assert compare.verdict(base, slower, "lower", 0.1, pairs(base, slower))[0] == "regression"
    faster = [x * 0.8 for x in base]
    assert compare.verdict(base, faster, "lower", 0.1, pairs(base, faster))[0] == "gain"
    assert compare.verdict(base, faster, "higher", 0.1, pairs(base, faster))[0] == "regression"
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(base, noisy, "lower", 0.1, pairs(base, noisy))[0] == "unresolved"


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:       300 |        300 |       numpy.core",
        "import time:       200 |        500 |     numpy",
        "import time:       400 |        900 |   scipy",
        "import time:        50 |         50 |   click",
        "import time:        10 |        960 | ordlab",
        "import time:        40 |         40 | ordlab.cli",
    ])
    ordlab_ms, scipy_ms, top = spans.parse_importtime(stderr)
    assert ordlab_ms == pytest.approx(1.0)
    assert scipy_ms == pytest.approx(0.4)
    assert [name for name, _ in top] == ["scipy", "numpy.core", "numpy"]


def test_self_time_subtracts_children():
    span_list = [
        [0, spans.OP_SPAN, 0, 10_000_000, -1, 0],
        [0, "conflict.conflict_report", 1_000_000, 9_000_000, 0, 0],
        [0, "infotheory.uncertainty_profile", 2_000_000, 7_000_000, 1, 100],
    ]
    metrics = spans.layer_metrics(span_list, 1)
    assert metrics["conflict.self_ms"] == pytest.approx(3.0)
    assert metrics["infotheory.self_ms"] == pytest.approx(5.0)
    assert metrics["infotheory.profile.us_per_cell"] == pytest.approx(50.0)
    assert metrics["bench.unattributed_pct"] == pytest.approx(20.0)


def test_cycle_length_is_odd():
    assert len(balanced(list(range(8)), float)) == 7
    assert sorted(balanced(list(range(7)), float)) == list(range(7))
    for name in ("exact", "corpus", "typology"):
        for smoke in (False, True):
            assert len(WORKLOADS[name](1, smoke=smoke).cycle) % 2 == 1


def test_timings_are_scaled_by_the_probe_around_them():
    assert speed.factor(2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S) == pytest.approx(0.5)

    class Fixed:
        def peak_rss_kib(self):
            return 1024

    tally = run.Tally()
    for i, seconds in enumerate([0.010, 0.020, 0.030]):
        tally.add(i, seconds, [], 0.5)
    setups = [(1.0, 0.5), (2.0, 1.0), (3.0, 1.5)]
    metrics, detail = run.end_to_end_metrics(Fixed(), tally, setups, 1.0)
    assert metrics["latency_p50_ms"] == pytest.approx(10.0)
    assert metrics["measured.latency_p50_ms"] == pytest.approx(20.0)
    assert metrics["throughput_ops_s"] == pytest.approx(100.0)
    assert (metrics["setup_s"], metrics["measured.setup_s"]) == (1.0, 2.0)
    assert detail["latencies_s"] == [0.010, 0.020, 0.030]
