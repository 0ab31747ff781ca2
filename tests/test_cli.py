import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

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
]


@pytest.mark.parametrize("argv, status, code", ERROR_CASES)
def test_error_contract(runner, tmp_path, argv, status, code):
    paths = {}
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
