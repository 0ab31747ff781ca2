import csv
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings, strategies as st

import ordlab
from ordlab import distributions as d, rate
from ordlab.cli import main

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def and_model_path(tmp_path):
    table = {}
    for x1 in "01":
        for x2 in "01":
            y = "1" if x1 == "1" and x2 == "1" else "0"
            table[(y, x1, x2)] = 0.25
    model = d.make_joint(("y", "x1", "x2"), table, target_role="y")
    path = tmp_path / "and.json"
    d.save_model(model, path)
    return str(path)


class TestPlacement:
    def test_and_model(self, runner, and_model_path):
        result = runner.invoke(main, ["placement", "--model", and_model_path])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "i,H_bits,I_bits,in_optimal_set"
        assert lines[-1] == "optimal_set,2"
        last_row = lines[3].split(",")
        assert last_row[0] == "2"
        assert float(last_row[1]) == 0.0

    def test_output_file(self, runner, and_model_path, tmp_path):
        out = tmp_path / "placement.csv"
        result = runner.invoke(
            main, ["placement", "--model", and_model_path, "-o", str(out)]
        )
        assert result.exit_code == 0
        assert out.read_text().startswith("i,H_bits")


class TestDeplen:
    def test_m5_identity(self, runner):
        result = runner.invoke(main, ["deplen", "--m", "5"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[1:6] == ["1,10", "2,7", "3,6", "4,7", "5,10"]
        assert lines[6] == "min,6,3"
        assert lines[7] == "max,10,1;5"

    def test_square_transducer(self, runner):
        result = runner.invoke(main, ["deplen", "--m", "3", "--g", "square"])
        assert result.exit_code == 0
        assert result.output.splitlines()[1:4] == ["1,5", "2,2", "3,5"]

    def test_domain_error_exit_one(self, runner):
        result = runner.invoke(main, ["deplen", "--m", "1"])
        assert result.exit_code == 1
        record = json.loads(result.stderr)
        assert record["error"] == "position_out_of_range"

    def test_unknown_flag_exit_two(self, runner):
        result = runner.invoke(main, ["deplen", "--m", "5", "--bogus"])
        assert result.exit_code == 2


class TestConflict:
    def test_columns_present(self, runner, and_model_path):
        result = runner.invoke(main, ["conflict", "--model", and_model_path])
        assert result.exit_code == 0
        header = result.output.splitlines()[0].split(",")
        assert header[:4] == ["head_pos", "dep_cost", "H_bits", "pareto"]
        assert "weighted_opt_at_0.5" in header

    def test_lambda_one_column_marks_center(self, runner, and_model_path):
        result = runner.invoke(
            main, ["conflict", "--model", and_model_path, "--lambdas", "1"]
        )
        rows = [line.split(",") for line in result.output.splitlines()[1:]]
        marks = {r[0]: r[-1] for r in rows}
        assert marks == {"1": "0", "2": "1", "3": "0"}


class TestRing:
    def test_distance(self, runner):
        result = runner.invoke(main, ["ring", "distance", "SOV", "VOS"])
        assert result.output == "3\n"

    def test_neighbors(self, runner):
        result = runner.invoke(main, ["ring", "neighbors", "SOV"])
        assert result.output == "SVO,OSV\n"

    def test_predict_ring_and_filter(self, runner):
        result = runner.invoke(
            main, ["ring", "predict", "--from", "SOV", "--ring", "--filter", "dlm"]
        )
        assert result.output == "SVO\n"

    def test_predict_unsupported_source(self, runner):
        result = runner.invoke(main, ["ring", "predict", "--from", "OVS", "--ring"])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "unsupported_source"

    def test_simulate_deterministic(self, runner, tmp_path):
        cfg = tmp_path / "kernel.json"
        cfg.write_text(
            json.dumps(
                {
                    "decay": {"kind": "exponential", "beta": 1.0},
                    "filters": {"dlm": 2.0},
                    "start": "SOV",
                    "steps": 3,
                    "ensemble_size": 200,
                    "seed": 7,
                }
            )
        )
        first = runner.invoke(main, ["ring", "simulate", "--config", str(cfg)])
        second = runner.invoke(main, ["ring", "simulate", "--config", str(cfg)])
        assert first.exit_code == 0
        assert first.output == second.output
        lines = first.output.splitlines()
        assert lines[0] == "step,SOV,SVO,VSO,VOS,OVS,OSV"
        assert lines[1].startswith("0,1.0,0.0")
        assert len(lines) == 5

    def test_integer_beta_too_large_for_a_product_simulates_as_its_float(
            self, runner, tmp_path):
        outputs = []
        for beta in (10**308, 1e308):
            cfg = tmp_path / "kernel.json"
            cfg.write_text(json.dumps({"decay": {"beta": beta}, "self_weight": 1}))
            result = runner.invoke(main, ["ring", "simulate", "--config", str(cfg)])
            assert result.exit_code == 0, result.stderr
            outputs.append(result.output)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[-1] == "1,1.0,0.0,0.0,0.0,0.0,0.0"

    def test_simulate_too_many_steps_for_memory(self, runner, tmp_path):
        cfg = tmp_path / "kernel.json"
        cfg.write_text(json.dumps({"steps": 10**12}))
        result = runner.invoke(main, ["ring", "simulate", "--config", str(cfg)])
        assert result.exit_code == 1
        assert "Traceback" not in result.stderr
        record = json.loads(result.stderr)
        assert record["error"] == "result_too_large"
        assert "steps = 1000000000000" in record["message"]

    def test_compare(self, runner):
        spec = "SOV=0.44,SVO=0.41,VSO=0.1,VOS=0.03,OVS=0.015,OSV=0.005"
        result = runner.invoke(main, ["ring", "compare", "--dist", spec])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].startswith("total_variation,")
        assert len(lines) == 16
        assert all(line.endswith(",1") for line in lines[1:])


class TestRate:
    def test_profile_periodic(self, runner, tmp_path):
        corpus = tmp_path / "periodic.txt"
        corpus.write_text(" ".join(["a", "b", "c"] * 50) + "\n")
        result = runner.invoke(
            main,
            ["rate", "profile", str(corpus), "--cyclic", "--coverage-cap", "0"],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[1].startswith("1,1.58496250072115")
        assert lines[2] == "2,0.0"
        assert lines[3] == "3,0.0"

    def test_cer_flat_on_iid(self, runner, tmp_path):
        src = d.SequenceSource(kind="iid", marginal={"a": 0.5, "b": 0.5})
        corpus = tmp_path / "iid.txt"
        corpus.write_text(" ".join(d.generate(src, 30_000, seed=2)) + "\n")
        result = runner.invoke(main, ["rate", "cer", str(corpus)])
        record = json.loads(result.output)
        assert record["flat"] is True

    def test_uid_classifies_model(self, runner, and_model_path):
        result = runner.invoke(main, ["rate", "uid", "--model", and_model_path])
        record = json.loads(result.output)
        assert record["verdict"] == "neither"
        assert "offending_sequence" in record

    def test_hilberg_json_fields(self, runner, tmp_path):
        src = d.SequenceSource(
            kind="markov",
            initial={"a": 0.5, "b": 0.5},
            transition={"a": {"a": 0.8, "b": 0.2}, "b": {"a": 0.2, "b": 0.8}},
        )
        corpus = tmp_path / "markov.txt"
        corpus.write_text(" ".join(d.generate(src, 20_000, seed=1)) + "\n")
        result = runner.invoke(
            main, ["rate", "hilberg", str(corpus), "--max-order", "5"]
        )
        record = json.loads(result.output)
        assert set(record) == {"a", "gamma", "b", "variant", "rms_residual"}

    def test_peak(self, runner, tmp_path):
        corpus = tmp_path / "text.txt"
        corpus.write_text("a b a b a b a a b b\n")
        result = runner.invoke(main, ["rate", "peak", str(corpus)])
        record = json.loads(result.output)
        assert record["argmax_index"] == 1

    def test_huge_max_order_stops_at_the_last_window(self, runner, tmp_path):
        corpus = tmp_path / "five.txt"
        corpus.write_text("a b a b b\n")
        huge = runner.invoke(main, ["rate", "profile", str(corpus), "--coverage-cap",
                                    "0", "--max-order", "100000000"])
        six = runner.invoke(main, ["rate", "profile", str(corpus), "--coverage-cap",
                                   "0", "--max-order", "6"])
        assert huge.exit_code == six.exit_code == 0
        assert huge.output == six.output
        assert len(six.output.splitlines()) == 1 + 5

    def test_empty_corpus_domain_error(self, runner, tmp_path):
        corpus = tmp_path / "empty.txt"
        corpus.write_text("")
        result = runner.invoke(main, ["rate", "profile", str(corpus)])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "empty_sequence"


class TestCoding:
    def test_plain_table(self, runner, tmp_path):
        table = tmp_path / "types.csv"
        table.write_text("type,probability\nthe,0.5\ncat,0.25\nsat,0.25\n")
        result = runner.invoke(main, ["coding", "--input", str(table)])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert ",the,0.5,1," in lines[1]
        assert "L,1.5" in lines
        assert lines[-1] == "abbreviation_holds,1"

    def test_context_table(self, runner, tmp_path):
        table = tmp_path / "ctx.csv"
        table.write_text(
            "type,probability,length,ctx1\n"
            "x,0.3,1,a\nx,0.1,2,b\ny,0.2,2,a\ny,0.4,1,b\n"
        )
        result = runner.invoke(main, ["coding", "--input", str(table)])
        assert result.exit_code == 0
        assert "L_n,1.3" in result.output
        assert "M_n_y,x,1.25" in result.output

    def test_all_tied_tau_undefined(self, runner, tmp_path):
        table = tmp_path / "tied.csv"
        table.write_text("type,probability\na,0.4\nb,0.3\nc,0.3\n")
        result = runner.invoke(main, ["coding", "--input", str(table)])
        assert "tau,undefined" in result.output
        assert "abbreviation_holds,1" in result.output

    def test_every_row_is_a_csv_row(self, runner, tmp_path):
        table = tmp_path / "quoted.csv"
        table.write_text('type,probability,ctx1\n"a,b",0.5,x\n"a,b",0.25,y\n'
                         'c,0.25,y\n')
        result = runner.invoke(main, ["coding", "--input", str(table)])
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.output)))
        width = {"L_n": 2, "L_n_y": 3, "M_n_y": 3, "tau": 2, "abbreviation_holds": 2}
        assert [len(r) for r in rows] == [5] * 4 + [width[r[0]] for r in rows[4:]]
        assert [r[1] for r in rows[1:4]] == ["a,b", "a,b", "c"]
        assert [r[1] for r in rows[5:9]] == ["a,b", "a,b", "c", "c"]

    def test_bad_csv(self, runner, tmp_path):
        table = tmp_path / "bad.csv"
        table.write_text("type,probability\na,notanumber\n")
        result = runner.invoke(main, ["coding", "--input", str(table)])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "input_parse_error"


class TestGenAndScramble:
    def test_gen_homogeneous(self, runner):
        result = runner.invoke(
            main, ["gen", "--kind", "homogeneous", "--symbol", "a", "--length", "3"]
        )
        assert result.output == "a a a\n"

    def test_gen_markov_reproducible(self, runner):
        args = [
            "gen", "--kind", "markov", "--initial", "a:1",
            "--transition", "a>a:0.5,a>b:0.5;b>a:0.5,b>b:0.5",
            "--length", "50", "--seed", "9",
        ]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_gen_missing_param(self, runner):
        result = runner.invoke(main, ["gen", "--kind", "iid", "--length", "5"])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "input_parse_error"

    def test_scramble_preserves_multiset(self, runner, tmp_path):
        corpus = tmp_path / "words.txt"
        corpus.write_text("a b c d e f\n")
        result = runner.invoke(main, ["scramble", str(corpus), "--seed", "4"])
        assert sorted(result.output.split()) == ["a", "b", "c", "d", "e", "f"]

    def test_scramble_deterministic(self, runner, tmp_path):
        corpus = tmp_path / "words.txt"
        corpus.write_text("a b c d e f g h\n")
        args = ["scramble", str(corpus), "--seed", "4"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output


# every command that takes -o, with arguments naming files in GOLDEN_INPUTS
OUTPUT_COMMANDS = {
    "placement": ["--model", "model.json"],
    "deplen": ["--m", "5", "--g", "exp:2"],
    "conflict": ["--model", "model.json", "--lambdas", "0,0.5,1"],
    "ring simulate": ["--config", "kernel.json"],
    "rate profile": ["corpus.txt", "--max-order", "4"],
    "coding": ["--input", "quoted_type.csv"],
    "gen": ["--kind", "iid", "--marginal", "a:0.5,b:0.5", "--length", "50",
            "--seed", "3"],
    "scramble": ["chars.txt", "--chars", "--seed", "3"],
}


def _leaf_commands(group, prefix=""):
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from _leaf_commands(command, f"{prefix}{name} ")
        else:
            yield f"{prefix}{name}", command


def test_output_commands_are_every_command_with_an_output_option():
    taking = {name for name, command in _leaf_commands(main)
              if any(p.name == "output" for p in command.params)}
    assert taking == set(OUTPUT_COMMANDS)


@pytest.mark.parametrize("command", OUTPUT_COMMANDS)
def test_output_file_holds_the_bytes_stdout_gets(runner, tmp_path, monkeypatch,
                                                  command):
    monkeypatch.chdir(GOLDEN_INPUTS)
    argv = command.split() + OUTPUT_COMMANDS[command]
    out = tmp_path / "out"
    printed = runner.invoke(main, argv)
    written = runner.invoke(main, argv + ["-o", str(out)])
    assert printed.exit_code == written.exit_code == 0
    assert printed.stdout_bytes
    assert out.read_bytes() == printed.stdout_bytes
    assert written.stdout_bytes == b""


class TestRecordsAreResults:
    """A JSON record lists its result object's fields in order, same values."""

    @staticmethod
    def fields(result):
        return {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}

    @staticmethod
    def profile():
        tokens = (GOLDEN_INPUTS / "corpus.txt").read_text().split()
        table = rate.ngram_counts(tokens, 5)
        return rate.conditional_entropy_profile(table, coverage_cap=0.2)

    def record(self, runner, argv):
        result = runner.invoke(main, argv)
        assert result.exit_code == 0
        return json.loads(result.stdout)

    def test_cer(self, runner):
        argv = ["rate", "cer", str(GOLDEN_INPUTS / "corpus.txt"), "--max-order", "5",
                "--tolerance", "0.1"]
        expected = self.fields(rate.cer_diagnostic(self.profile(), 0.1))
        record = self.record(runner, argv)
        assert list(record) == list(expected)
        assert record == expected

    @pytest.mark.parametrize("variant", ["pure", "relaxed"])
    def test_hilberg(self, runner, variant):
        argv = ["rate", "hilberg", str(GOLDEN_INPUTS / "corpus.txt"), "--max-order",
                "5", "--variant", variant]
        expected = self.fields(rate.hilberg_fit(self.profile(), variant))
        record = self.record(runner, argv)
        assert list(record) == list(expected)
        assert record == expected

    @pytest.mark.parametrize("with_text", [False, True])
    @pytest.mark.parametrize("model_file", ["model.json", "iid_uniform.json"])
    def test_uid(self, runner, tmp_path, model_file, with_text):
        path = GOLDEN_INPUTS / model_file
        model = d.model_from_json(path.read_text())
        result = rate.uid_classify(model)
        expected = self.fields(result)
        # the one exception to the field list: a null offending_sequence is left out
        if result.offending_sequence is None:
            del expected["offending_sequence"]
        else:
            expected["offending_sequence"] = list(result.offending_sequence)
        argv = ["rate", "uid", "--model", str(path)]
        if with_text:
            tokens = ["b"] + ["a"] * (len(model.roles) - 1)
            text = tmp_path / "text.txt"
            text.write_text(" ".join(tokens) + "\n")
            argv += ["--text", str(text)]
            expected["sequence_spread"] = rate.uid_spread(tokens, model)
        record = self.record(runner, argv)
        assert list(record) == list(expected)
        assert record == expected


# input files for the error-contract table, referenced as {name} in argv;
# a str is written as UTF-8, bytes as they are
BAD_INPUTS = {
    "no_alphabets": json.dumps({"roles": ["y"], "entries": [{"tuple": ["a"], "p": 1}]}),
    "no_roles": json.dumps({"alphabets": {"y": ["a"]}, "entries": []}),
    "no_entries": json.dumps({"roles": ["y"], "alphabets": {"y": ["a"]}}),
    "two_roles": json.dumps({
        "roles": ["y", "x1"],
        "alphabets": {"y": ["a"], "x1": ["a"]},
        "entries": [{"tuple": ["a", "a"], "p": 1.0}],
    }),
    "one_token": "a\n",
    "tabulated_kernel": json.dumps(
        {"decay": {"kind": "tabulated", "weights": {"1": 1.0, "3": 0.1}}, "steps": 2}
    ),
    "zero_p": "type,probability,length\na,1.0,1\nb,0.0,2\n",
    "zero_length": "type,probability,length\na,0.5,0\nb,0.5,1\n",
    "light_types": "type,probability\na,0.5\nb,0.2\n",
    "light_contexts": "type,probability,length,ctx1\nx,0.5,1,a\ny,0.2,1,b\n",
    "inf_p": "type,probability\na,inf\nb,0.5\n",
    "duplicate_roles": json.dumps({
        "roles": ["y", "y"],
        "alphabets": {"y": ["a"]},
        "entries": [{"tuple": ["a", "a"], "p": 1.0}],
    }),
    "text_p": json.dumps(
        {"roles": ["y"], "alphabets": {"y": ["a"]}, "entries": [{"tuple": ["a"], "p": "1"}]}
    ),
    "list_config": json.dumps([{"steps": 2}]),
    "no_role_model": json.dumps(
        {"roles": [], "alphabets": {}, "entries": [{"tuple": [], "p": 1}]}
    ),
    "number_decay": json.dumps({"decay": 5}),
    "negative_steps": json.dumps({"steps": -1}),
    "empty_ensemble": json.dumps({"ensemble_size": 0}),
    "ensemble_over_int64": json.dumps({"ensemble_size": 2**63}),
    "text_steps": json.dumps({"steps": "x"}),
    "text_beta": json.dumps({"decay": {"kind": "exponential", "beta": "x"}}),
    "overflowing_beta": json.dumps({"decay": {"beta": -1000}}),
    "negative_filter": json.dumps({"filters": {"dlm": -1}}),
    "nan_filter": json.dumps({"filters": {"dlm": float("nan")}}),
    "overflowing_filters": json.dumps(
        {"filters": {"dlm": 1e308, "agent_first": 1e308}}
    ),
    "overflowing_alpha": json.dumps(
        {"decay": {"kind": "inverse_power", "alpha": -2000}}
    ),
    "negative_tabulated": json.dumps(
        {"decay": {"kind": "tabulated", "weights": {"1": 1, "2": -0.1, "3": 0.1}}}
    ),
    "nan_self_weight": json.dumps({"self_weight": float("nan")}),
    "huge_steps": json.dumps({"steps": 2**63 - 1}),
    # a JSON true or false is not the number 1 or 0
    "bool_beta": json.dumps({"decay": {"beta": True}}),
    "bool_alpha": json.dumps({"decay": {"kind": "inverse_power", "alpha": False}}),
    "bool_tabulated": json.dumps(
        {"decay": {"kind": "tabulated", "weights": {"1": 1, "2": True, "3": 0.1}}}
    ),
    "bool_filter": json.dumps({"filters": {"dlm": True}}),
    "bool_self_weight": json.dumps({"self_weight": False}),
    "bool_steps": json.dumps({"steps": True}),
    "bool_ensemble_size": json.dumps({"ensemble_size": True}),
    "bool_seed": json.dumps({"seed": False}),
    # JSON integers too large for a float
    "huge_int_beta": json.dumps({"decay": {"beta": 10**400}}),
    "huge_int_filter": json.dumps({"filters": {"dlm": 10**400}}),
    "huge_int_self_weight": json.dumps({"self_weight": 10**400}),
    "huge_int_tabulated": json.dumps(
        {"decay": {"kind": "tabulated", "weights": {"1": 1, "2": 10**400, "3": 0.1}}}
    ),
    "unknown_symbol": json.dumps({
        "roles": ["y", "x1"],
        "alphabets": {"y": ["a", "b"], "x1": ["a"]},
        "entries": [{"tuple": ["a", "a"], "p": 0.5}, {"tuple": ["b", "z"], "p": 0.5}],
    }),
    "unknown_symbol_zero_p": json.dumps({
        "roles": ["y", "x1"],
        "alphabets": {"y": ["a", "b"], "x1": ["a"]},
        "entries": [{"tuple": ["a", "a"], "p": 1.0}, {"tuple": ["b", "z"], "p": 0.0}],
    }),
    "wrong_arity": json.dumps({
        "roles": ["y", "x1"],
        "alphabets": {"y": ["a", "b"], "x1": ["a"]},
        "entries": [{"tuple": ["a", "a"], "p": 0.5}, {"tuple": ["b"], "p": 0.5}],
    }),
    "target_model": json.dumps({
        "roles": ["y", "x1", "x2"],
        "alphabets": {"y": ["a", "b"], "x1": ["a", "b"], "x2": ["a"]},
        "entries": [{"tuple": ["a", "a", "a"], "p": 0.5},
                    {"tuple": ["b", "b", "a"], "p": 0.5}],
        "target": "y",
    }),
    "corpus": "a b a b b a\n",
    "five_tokens": "a b a b b\n",
    "huge_int_p": json.dumps(
        {"roles": ["y"], "alphabets": {"y": ["a"]}, "entries": [{"tuple": ["a"], "p": 10**400}]}
    ),
    "bool_p": json.dumps(
        {"roles": ["y"], "alphabets": {"y": ["a"]}, "entries": [{"tuple": ["a"], "p": True}]}
    ),
    "zero_length_contexts": "type,probability,length,ctx1\nx,0.5,0,a\ny,0.5,1,b\n",
    "negative_length_contexts":
        "type,probability,length,ctx1\nx,0.5,-3,a\ny,0.5,1,b\n",
    "latin1_model": json.dumps(
        {"roles": ["y"], "alphabets": {"y": ["é"]},
         "entries": [{"tuple": ["é"], "p": 1}]},
        ensure_ascii=False,
    ).encode("latin-1"),
    "latin1_config": '{"start": "SOV", "label": "é"}'.encode("latin-1"),
    "latin1_types": "type,probability\né,1.0\n".encode("latin-1"),
    "bare_ctx_column": "type,probability,length,ctx\nx,1.0,1,a\n",
    "letter_ctx_column": "type,probability,length,ctxA\nx,1.0,1,a\n",
    "short_row": "type,probability,length\na,0.5,1\nb,0.5\n",
    "short_context_row": "type,probability,length,ctx1\nx,0.5,1,a\ny,0.5,1\n",
    "duplicate_rows": "type,probability,ctx1\nx,0.5,a\nx,0.25,a\ny,0.25,b\n",
    "periodic": "a b c " * 4 + "\n",
    # a length too large for a float, in a plain and in a context table
    "huge_length": f"type,probability,length\na,0.5,1\nb,0.5,{10**400}\n",
    "huge_length_contexts":
        f"type,probability,length,ctx1\nx,0.5,1,a\ny,0.5,{10**400},b\n",
    "repeated_tuple": json.dumps({
        "roles": ["y"],
        "alphabets": {"y": ["a", "b"]},
        "entries": [{"tuple": ["a"], "p": 0.5}, {"tuple": ["b"], "p": 0.5},
                    {"tuple": ["a"], "p": 0.5}],
    }),
    "repeated_tuple_light": json.dumps({
        "roles": ["y", "x"],
        "alphabets": {"y": ["a", "b"], "x": ["a", "b"]},
        "entries": [{"tuple": ["a", "a"], "p": 0.25}, {"tuple": ["b", "b"], "p": 0.5},
                    {"tuple": ["a", "a"], "p": 0.25}],
    }),
    # config integers: a number with a fraction or in a string is not one,
    # and a seed lies in [0, 2**64)
    "fractional_steps": json.dumps({"steps": 2.9}),
    "fractional_ensemble_size": json.dumps({"ensemble_size": 10.5}),
    "fractional_seed": json.dumps({"seed": 1.5}),
    "text_number_steps": json.dumps({"steps": "3"}),
    "text_number_ensemble_size": json.dumps({"ensemble_size": "100"}),
    "text_number_seed": json.dumps({"seed": "7"}),
    "negative_seed": json.dumps({"seed": -1}),
    "seed_over_uint64": json.dumps({"seed": 2**64}),
    "integral_floats": json.dumps({"steps": 3.0, "ensemble_size": 200.0, "seed": 7.0}),
}

ERROR_CASES = [
    (["gen", "--kind", "markov", "--initial", "a:1", "--transition", "a>b:1",
      "--length", "10"], 1, "non_stochastic_row"),
    (["gen", "--kind", "homogeneous", "--symbol", "a", "--length", "-1"], 2, None),
    (["placement", "--model", "{no_alphabets}"], 1, "input_parse_error"),
    (["conflict", "--model", "{no_roles}"], 1, "input_parse_error"),
    (["rate", "uid", "--model", "{no_entries}"], 1, "input_parse_error"),
    (["rate", "uid", "--model", "{two_roles}", "--text", "{one_token}"], 1,
     "arity_mismatch"),
    (["ring", "simulate", "--config", "{tabulated_kernel}"], 1, "input_parse_error"),
    (["coding", "--input", "{zero_p}"], 1, "zero_probability"),
    (["coding", "--input", "{zero_length}"], 1, "length_below_floor"),
    (["coding", "--input", "{light_types}"], 1, "mass_out_of_tolerance"),
    (["coding", "--input", "{light_contexts}"], 1, "mass_out_of_tolerance"),
    (["gen", "--kind", "iid", "--marginal", "a:0.5,b:0.2", "--length", "5"], 1,
     "mass_out_of_tolerance"),
    (["gen", "--kind", "markov", "--initial", "a:0.5", "--transition", "a>a:1",
      "--length", "5"], 1, "mass_out_of_tolerance"),
    (["ring", "compare", "--dist", "SOV=5"], 1, "mass_out_of_tolerance"),
    (["gen", "--kind", "markov", "--initial", "a:1", "--transition",
      "a>a:1.5,a>b:-0.5;b>b:1", "--length", "5"], 1, "negative_probability"),
    (["gen", "--kind", "iid", "--marginal", "a:1.5,b:-0.5", "--length", "5"], 1,
     "negative_probability"),
    (["coding", "--input", "{inf_p}"], 1, "mass_out_of_tolerance"),
    (["placement", "--model", "{duplicate_roles}"], 1, "role_overlap"),
    (["rate", "uid", "--model", "{text_p}"], 1, "input_parse_error"),
    (["ring", "simulate", "--config", "{list_config}"], 1, "input_parse_error"),
    (["deplen", "--m", "5", "--g", "exp:abc"], 1, "input_parse_error"),
    (["ring", "simulate", "--config", "{number_decay}"], 1, "input_parse_error"),
    (["ring", "simulate", "--config", "{negative_steps}"], 1, "input_parse_error"),
    (["ring", "simulate", "--config", "{empty_ensemble}"], 1, "input_parse_error"),
    (["ring", "simulate", "--config", "{text_steps}"], 1, "input_parse_error"),
    (["ring", "simulate", "--config", "{text_beta}"], 1, "input_parse_error"),
    (["deplen", "--m", "3", "--g", "exp:inf"], 1, "input_parse_error"),
    (["deplen", "--m", "3", "--g", "exp:nan"], 1, "input_parse_error"),
    (["deplen", "--m", "1100", "--g", "exp:2"], 1, "cost_overflow"),
    (["rate", "uid", "--model", "{no_role_model}"], 1, "arity_mismatch"),
    (["ring", "simulate", "--config", "{overflowing_beta}"], 1, "degenerate_row"),
    (["ring", "simulate", "--config", "{negative_filter}"], 1, "input_parse_error"),
    (["ring", "simulate", "--config", "{nan_filter}"], 1, "input_parse_error"),
    (["ring", "simulate", "--config", "{overflowing_filters}"], 1, "degenerate_row"),
    (["ring", "simulate", "--config", "{overflowing_alpha}"], 1, "degenerate_row"),
    (["ring", "simulate", "--config", "{negative_tabulated}"], 1, "input_parse_error"),
    (["ring", "simulate", "--config", "{nan_self_weight}"], 1, "input_parse_error"),
    (["deplen", "--m", "0"], 1, "position_out_of_range"),
    (["placement", "--model", "{unknown_symbol}"], 1, "unknown_role"),
    (["rate", "uid", "--model", "{unknown_symbol_zero_p}"], 1, "unknown_role"),
    (["conflict", "--model", "{wrong_arity}"], 1, "arity_mismatch"),
    *((["rate", command, "{corpus}", "--max-order", order], 2, None)
      for command in ("profile", "cer", "hilberg", "peak") for order in ("0", "-2")),
    (["conflict", "--model", "{target_model}", "--lambdas", "0,0.5,1"], 0, None),
    (["conflict", "--model", "{target_model}", "--lambdas", "0,2"], 1,
     "input_parse_error"),
    (["conflict", "--model", "{target_model}", "--lambdas", "nan"], 1,
     "input_parse_error"),
    (["conflict", "--model", "{target_model}", "--lambdas", "abc"], 1,
     "input_parse_error"),
    (["coding", "--input", "{zero_length_contexts}"], 1, "length_below_floor"),
    (["coding", "--input", "{zero_length_contexts}", "--allow-full-reduction"], 0,
     None),
    (["coding", "--input", "{negative_length_contexts}"], 1, "length_below_floor"),
    (["coding", "--input", "{negative_length_contexts}", "--allow-full-reduction"], 1,
     "length_below_floor"),
    (["rate", "uid", "--model", "{huge_int_p}"], 1, "input_parse_error"),
    (["rate", "uid", "--model", "{bool_p}"], 1, "input_parse_error"),
    (["rate", "profile", "{five_tokens}", "--max-order", "100000000"], 0, None),
    (["ring", "distance", "SOV", "XYZ"], 1, "input_parse_error"),
    (["ring", "neighbors", "abc"], 1, "input_parse_error"),
    (["ring", "predict", "--from", "xyz", "--ring"], 1, "input_parse_error"),
    (["placement", "--model", "{latin1_model}"], 1, "input_parse_error"),
    (["conflict", "--model", "{latin1_model}"], 1, "input_parse_error"),
    (["rate", "uid", "--model", "{latin1_model}"], 1, "input_parse_error"),
    (["ring", "simulate", "--config", "{latin1_config}"], 1, "input_parse_error"),
    (["coding", "--input", "{latin1_types}"], 1, "input_parse_error"),
    (["coding", "--input", "{bare_ctx_column}"], 1, "input_parse_error"),
    (["coding", "--input", "{letter_ctx_column}"], 1, "input_parse_error"),
    (["coding", "--input", "{short_row}"], 1, "input_parse_error"),
    (["coding", "--input", "{short_context_row}"], 1, "input_parse_error"),
    (["ring", "predict", "--from", "SOV"], 2, None),
    (["rate", "cer", "{corpus}", "--tolerance", "nan"], 2, None),
    *((["rate", command, "{corpus}", "--coverage-cap", "nan"], 2, None)
      for command in ("profile", "cer", "hilberg", "peak")),
    (["coding", "--input", "{duplicate_rows}"], 1, "input_parse_error"),
    (["rate", "uid", "--model", "{repeated_tuple}"], 1, "input_parse_error"),
    (["placement", "--model", "{repeated_tuple_light}"], 1, "input_parse_error"),
    *(([*argv, "{dir}"], 1, "input_parse_error") for argv in (
        ["placement", "--model"], ["conflict", "--model"], ["rate", "uid", "--model"],
        ["rate", "uid", "--model", "{target_model}", "--text"],
        ["ring", "simulate", "--config"], ["coding", "--input"],
        ["gen", "--kind", "empirical", "--length", "3", "--tokens-file"],
        ["rate", "profile"], ["rate", "cer"], ["rate", "hilberg"], ["rate", "peak"],
        ["scramble"],
    )),
    (["deplen", "--m", "3", "-o", "{dir}"], 2, None),
    (["deplen", "--m", "3", "-o", "{dir}/missing/x.csv"], 2, None),
    (["gen", "--kind", "iid", "--marginal", "a:0.5,a:0.5,b:0.5", "--length", "3"], 1,
     "input_parse_error"),
    (["gen", "--kind", "markov", "--initial", "a:1,a:1", "--transition", "a>a:1",
      "--length", "3"], 1, "input_parse_error"),
    (["gen", "--kind", "markov", "--initial", "a:1", "--transition", "a>a:1,a>a:1",
      "--length", "3"], 1, "input_parse_error"),
    (["gen", "--kind", "markov", "--initial", "a:1", "--transition",
      "a>b:1;b>a:1;b>a:1", "--length", "3"], 1, "input_parse_error"),
    (["ring", "compare", "--dist",
      "SOV=0.3,SVO=0.3,VSO=0.1,VOS=0.1,OVS=0.1,OSV=0.1,sov=0.3"], 1,
     "input_parse_error"),
    (["ring", "simulate", "--config", "{ensemble_over_int64}"], 1, "input_parse_error"),
    *((["ring", "simulate", "--config", f"{{{name}}}"], 1, "input_parse_error")
      for name in ("huge_int_beta", "huge_int_filter", "huge_int_self_weight",
                   "huge_int_tabulated")),
    (["ring", "simulate", "--config", "{huge_steps}"], 1, "result_too_large"),
    *((["gen", "--kind", kind, *fields, "--length", "100000000000000"], 1,
       "result_too_large") for kind, fields in (
        ("iid", ["--marginal", "a:0.5,b:0.5"]),
        ("markov", ["--initial", "a:1", "--transition", "a>a:0.5,a>b:0.5;b>a:1"]),
        ("periodic", ["--block", "a,b,c"]),
        ("homogeneous", ["--symbol", "a"]),
        ("empirical", ["--tokens-file", "{five_tokens}"]),
    )),
    # 10**14 is refused at its first allocation on a 47-bit address space;
    # sizes that can be mapped would grow toward the host's memory instead
    *((["rate", command, "{periodic}", "--cyclic", "--coverage-cap", "0",
        "--max-order", "100000000000000"], 1, "result_too_large")
      for command in ("profile", "hilberg")),
    (["deplen", "--m", "100000000000000"], 1, "result_too_large"),
    *((["coding", "--input", f"{{{name}}}"], 1, "input_parse_error")
      for name in ("huge_length", "huge_length_contexts")),
    # every edge cost 2^1..2^1023 is finite; their sum at position 1 is not
    (["deplen", "--m", "1024", "--g", "exp:2"], 1, "cost_overflow"),
    # a JSON true or false is not the number 1 or 0
    *((["ring", "simulate", "--config", f"{{{name}}}"], 1, "input_parse_error")
      for name in ("bool_beta", "bool_alpha", "bool_tabulated", "bool_filter",
                   "bool_self_weight", "bool_steps", "bool_ensemble_size", "bool_seed")),
    # gen joins its tokens with spaces, so a name that is empty or holds
    # whitespace would not read back
    *((["gen", "--kind", kind, *fields, "--length", "6"], 1, "input_parse_error")
      for kind, fields in (
        ("homogeneous", ["--symbol", "a b"]),
        ("homogeneous", ["--symbol", ""]),
        ("homogeneous", ["--symbol", " z"]),
        ("homogeneous", ["--symbol", "a\tb"]),
        ("periodic", ["--block", "a,,b"]),
        ("periodic", ["--block", "a,b c"]),
        ("iid", ["--marginal", "x y:0.5,z:0.5"]),
        ("markov", ["--initial", "a:1, :0", "--transition", "a>a:1"]),
        ("markov", ["--initial", "a:1", "--transition", "a>a:0.5,a>b c:0.5;b c>a:1"]),
        ("markov", ["--initial", "a:1", "--transition", "a>a:1,>a:1"]),
    )),
    # a config integer has no fraction and is no string; a seed lies in [0, 2**64)
    *((["ring", "simulate", "--config", f"{{{name}}}"], 1, "input_parse_error")
      for name in ("fractional_steps", "fractional_ensemble_size", "fractional_seed",
                   "text_number_steps", "text_number_ensemble_size", "text_number_seed",
                   "negative_seed", "seed_over_uint64")),
    (["ring", "simulate", "--config", "{integral_floats}"], 0, None),
    *(([*argv, "--seed", seed], 2, None) for seed in ("-1", str(2**64)) for argv in (
        ["gen", "--kind", "homogeneous", "--symbol", "a", "--length", "3"],
        ["scramble", "{corpus}"],
    )),
]


@pytest.mark.parametrize("argv, status, code", ERROR_CASES)
def test_error_contract(runner, tmp_path, argv, status, code):
    paths = {"dir": str(tmp_path)}
    for name, data in BAD_INPUTS.items():
        paths[name] = str(tmp_path / name)
        if isinstance(data, str):
            data = data.encode()
        (tmp_path / name).write_bytes(data)
    result = runner.invoke(main, [arg.format(**paths) for arg in argv])
    assert result.exit_code == status
    if status == 0:
        assert result.exception is None and result.stderr == ""
    else:
        assert isinstance(result.exception, SystemExit)  # nothing escaped uncaught
    assert "Traceback" not in result.stderr
    if status == 1:
        record = json.loads(result.stderr)
        assert set(record) == {"error", "message"}
        assert record["error"] == code


_NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["nan", "inf", "-inf", "-0", "-0.0", "1e400", "0x10", "abc", ""]),
)
# m stays at most 5000 or is 10**14, which is refused at its first
# allocation: sizes in between can grow toward the host's memory
_DEPLEN = st.tuples(
    st.one_of(st.integers(-3, 5000).map(str), st.just(str(10**14)), _NUMBER),
    st.one_of(
        st.sampled_from(["identity", "square", "cube", "exp", "exp:"]),
        st.one_of(_NUMBER, st.floats(1.0, 1.001).map(repr),
                  st.sampled_from(["1.0000000000000002", "1e300", "5e-324"]),
                  ).map("exp:{}".format),
    ),
).map(lambda mg: ["deplen", "--m", mg[0], "--g", mg[1]])
_ORDER = st.sampled_from(["SOV", "SVO", "VSO", "VOS", "OVS", "OSV"])
_RING_COMPARE = st.one_of(
    st.lists(st.tuples(st.one_of(_ORDER, st.sampled_from(["sov", "SO", ""])),
                       _NUMBER).map("=".join), max_size=7).map(",".join),
    # equal shares of distinct orders, the first one nudged
    st.tuples(st.lists(_ORDER, min_size=1, max_size=6, unique=True),
              st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3))).map(
        lambda oe: ",".join(f"{o}={1 / len(oe[0]) + (i == 0) * oe[1]!r}"
                            for i, o in enumerate(oe[0]))),
).map(lambda dist: ["ring", "compare", "--dist", dist])


_GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
_CORPORA = ["empty.txt", "one.txt", "short.txt", "tokens.txt", "periodic.txt",
            "chars.txt"]
_MAX_ORDERS = ["1", "62", "63", "64", str(10**6)]
_CAPS = ["0", "-0", "1e-300", "inf"]


def _rate_argv(command, corpus, max_order, cap, cyclic, chars):
    return ["rate", command, str(_GOLDEN_INPUTS / corpus),
            *(() if max_order is None else ("--max-order", max_order)),
            *(() if cap is None else ("--coverage-cap", cap)),
            *(("--cyclic",) if cyclic else ()), *(("--chars",) if chars else ())]


def _bounded(case):
    # a cyclic profile that no cap cuts short runs to --max-order: 10**6
    # values take about a second to print, and rate hilberg's 291-row gamma
    # grid over them needs gigabytes, so 10**6 goes with --cyclic only under
    # a cap that stops the profile at order 2
    _, _, max_order, cap, cyclic, _ = case
    return not (cyclic and max_order == _MAX_ORDERS[-1] and cap != "1e-300")


_RATE = st.tuples(
    st.sampled_from(["profile", "cer", "hilberg", "peak"]), st.sampled_from(_CORPORA),
    st.one_of(st.sampled_from([None, *_MAX_ORDERS]), _NUMBER),
    st.one_of(st.sampled_from([None, *_CAPS]), _NUMBER),
    st.booleans(), st.booleans(),
).filter(_bounded).map(lambda case: _rate_argv(*case))


def _every_rate_max_order(test):
    """Each command with each listed --max-order, cyclic and not.

    The caps, the corpora and --chars take turns, so each of them comes
    with every command too.
    """
    grid = itertools.product(["profile", "cer", "hilberg", "peak"], _MAX_ORDERS,
                             (False, True))
    for i, (command, max_order, cyclic) in enumerate(grid):
        case = (command, _CORPORA[i % len(_CORPORA)], max_order,
                _CAPS[i % len(_CAPS)], cyclic, i % 3 == 0)
        if not _bounded(case):
            case = case[:3] + ("1e-300",) + case[4:]
        test = example(argv=_rate_argv(*case))(test)
    return test


# JSON values a config field may hold by mistake: NaN and Infinity (which
# Python's json reads), -0, floats at and past the largest, integers past
# any float or int64, strings, bools, null and containers
_JSON_VALUE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, -0.0, 1, -1, 0.5, 2, -2,
                     745, -745, 1e300, 1e308, -1e308, 10**400, -10**400,
                     2**63 - 1, 2**63, "x", "1.0", "", True, False, None, [1], {}]),
    st.floats(), st.integers(),
)
_TABULATED_WEIGHTS = st.one_of(
    st.dictionaries(st.sampled_from(["1", "2", "3", "0", "4", "-1", "1.5", "x", ""]),
                    _JSON_VALUE, max_size=5),
    st.fixed_dictionaries({"1": _JSON_VALUE, "2": _JSON_VALUE, "3": _JSON_VALUE}),
    _JSON_VALUE,
)
_DECAY = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["exponential", "inverse_power", "tabulated",
                                  "linear", 1, None])},
        optional={"beta": _JSON_VALUE, "alpha": _JSON_VALUE,
                  "weights": _TABULATED_WEIGHTS}),
    _JSON_VALUE,
)
_FILTERS = st.one_of(
    st.dictionaries(st.sampled_from(["dlm", "verb_uncertainty", "nominal_uncertainty",
                                     "agent_first", "typo", ""]),
                    _JSON_VALUE, max_size=5),
    _JSON_VALUE,
)
# steps stay at most 50 or are too large for any trajectory; an ensemble
# size costs nothing, so it goes up to and past int64
_RING_SIMULATE = st.fixed_dictionaries({}, optional={
    "decay": _DECAY, "filters": _FILTERS, "self_weight": _JSON_VALUE,
    "steps": st.one_of(st.integers(0, 50),
                       st.sampled_from([-1, 1.5, "7", "x", None, True, 2**63])),
    "ensemble_size": st.one_of(st.integers(1, 2**63 - 1),
                               st.sampled_from([0, -1, 2**63, 1e19, "x", True])),
    "start": st.one_of(_ORDER, st.sampled_from(["sov", "XYZ", "", 5, None])),
    "seed": st.one_of(st.integers(-2**70, 2**70), st.sampled_from([1.5, "x", None])),
}).map(lambda cfg: ["ring", "simulate", "--config", json.dumps(cfg)])


@_every_rate_max_order
@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.one_of(_DEPLEN, _RING_COMPARE, _RATE, _RING_SIMULATE))
def test_fuzzed_numbers_keep_the_error_contract(argv, tmp_path):
    if argv[:2] == ["ring", "simulate"]:  # the config's JSON goes to a file
        config = tmp_path / "config.json"
        config.write_text(argv[-1])
        argv = [*argv[:-1], str(config)]
    result = CliRunner().invoke(main, argv)
    assert isinstance(result.exception, (SystemExit, type(None)))
    assert result.exit_code in (0, 1, 2)
    assert "Traceback" not in result.stdout + result.stderr
    if result.exit_code == 1:
        assert set(json.loads(result.stderr)) == {"error", "message"}


class TestRuntimeDependencies:
    def run(self, code, *args):
        env = dict(os.environ, PYTHONPATH=str(Path(ordlab.__file__).parents[1]))
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True)

    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, ordlab.cli\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        result = self.run(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from ordlab.cli import main\n"
            "main()"
        )
        table = tmp_path / "types.csv"
        table.write_text("type,probability\nthe,0.5\ncat,0.25\nsat,0.25\n")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b b a b a a a b b a b " * 20 + "\n")
        for args in (["coding", "--input", str(table)],
                     ["rate", "hilberg", str(corpus), "--variant", "relaxed"]):
            result = self.run(code, *args)
            assert result.returncode == 0, result.stderr


def test_a_hilberg_grid_beyond_the_memory_cap_is_an_error_record():
    # a cyclic profile of 10**6 values, all but the first 0.0, needs a
    # 291 x 10**6 float64 gamma grid (2.17 GiB per array); the address-space
    # cap is set in the child only
    resource = pytest.importorskip("resource")
    cap = 1500 * 2**20
    env = dict(os.environ, PYTHONPATH=str(Path(ordlab.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "ordlab.cli", "rate", "hilberg",
         str(GOLDEN_INPUTS / "periodic.txt"), "--cyclic", "--max-order", "1000000",
         "--coverage-cap", "0"],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert json.loads(result.stderr)["error"] == "result_too_large"
    assert result.stdout == ""
