"""Command-line laboratory tying the modules together.

Every run is a pure function of (flags, input files, seed): identical
invocations produce byte-identical output.  Domain errors exit with status
1 and a machine-readable JSON record on stderr; usage errors exit with 2.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
import sys

import click

from . import coding, conflict, deplen, distributions, infotheory, rate, ring
from .errors import InputParseError, OrdlabError
from .infotheory import CostTransducer, IDENTITY


def _output_option(command):
    """Declares ``-o/--output``: the command's text goes to that file if given."""

    @click.option("-o", "--output", type=click.Path(), default=None)
    @functools.wraps(command)
    def write(output, **params):
        text = command(**params)
        if output is None:
            return text
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    return write


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_transducer(spec):
    if spec == "identity":
        return IDENTITY
    if spec == "square":
        return CostTransducer("power", (2,))
    if spec.startswith("exp:"):
        try:
            base = float(spec.split(":", 1)[1])
        except ValueError:
            raise InputParseError(f"bad exp base in {spec!r}") from None
        if not (math.isfinite(base) and base > 1):
            raise InputParseError(f"exp base must be a finite number > 1, not {base!r}")
        return CostTransducer("exponential", (math.log(base),))
    raise InputParseError(f"unknown transducer spec {spec!r}")


def _read_text(path):
    """The text of a UTF-8 input file, line endings untranslated for csv."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputParseError(f"{path}: not valid UTF-8 ({exc})") from None


def _word_order(name):
    """The WordOrder called ``name`` (any case); InputParseError otherwise."""
    try:
        return ring.as_order(name)
    except ValueError:
        names = ", ".join(str(o) for o in ring.ORDERS)
        raise InputParseError(
            f"unknown word order {name!r}; expected one of {names}"
        ) from None


def ingest_corpus(path, chars=False):
    """Read a UTF-8 text file into whitespace tokens, or characters with ``chars``."""
    text = _read_text(path)
    if chars:
        return [c for c in text if not c.isspace()]
    return text.split()


def _model_and_context(model_path, target, order):
    """Load a model, resolve its target and default the context order."""
    model = distributions.model_from_json(_read_text(model_path))
    target = infotheory.resolve_target(model, target)
    if order is None:
        context = tuple(r for r in model.roles if r != target)
    else:
        context = tuple(order.split(","))
    return model, target, context


class _DomainErrorGroup(click.Group):
    """Prints the text a command returns, the one writer of stdout.

    An OrdlabError from any command becomes exit 1 with a JSON record.
    """

    def invoke(self, ctx):
        try:
            text = super().invoke(ctx)
        except OrdlabError as exc:
            record = {"error": exc.code, "message": str(exc)}
            click.echo(json.dumps(record), err=True)
            sys.exit(1)
        if text is not None:
            click.echo(text, nl=False)


@click.group(cls=_DomainErrorGroup)
def main():
    """Information-theoretic word order laboratory."""


# ---------------------------------------------------------------------------
# placement


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--target", default=None, help="Target role (defaults to the model's).")
@click.option("--order", default=None, help="Comma-separated context role order.")
@click.option("--objective", type=click.Choice(["uncertainty", "predictability"]),
              default="uncertainty", show_default=True)
@_output_option
def placement(model_path, target, order, objective):
    """Per-context-size entropies and the optimal placement set."""
    model, resolved, context = _model_and_context(model_path, target, order)
    h = infotheory.uncertainty_profile(model, context, resolved)
    i_prof = infotheory.predictability_profile(model, context, resolved)
    optimal = infotheory.optimal_target_placement(model, context, objective, resolved)
    rows = [
        (i, repr(h[i]), repr(i_prof[i]), int(i in optimal))
        for i in range(len(context) + 1)
    ]
    rows.append(("optimal_set", ";".join(str(i) for i in sorted(optimal))))
    return _csv_text(("i", "H_bits", "I_bits", "in_optimal_set"), rows)


# ---------------------------------------------------------------------------
# deplen


@main.command("deplen")
@click.option("--m", "m", required=True, type=int)
@click.option("--g", "g_spec", default="identity", show_default=True,
              help="Edge cost: identity|square|exp:<base>")
@_output_option
def deplen_cmd(m, g_spec):
    """Dependency cost per head position with min/max summary."""
    transducer = _parse_transducer(g_spec)
    land = deplen.landscape(m, transducer)
    rows = [(p, repr(c)) for p, c in zip(range(1, m + 1), land.costs)]
    for name, cost, positions in (("min", min(land.costs), land.min_positions()),
                                  ("max", max(land.costs), land.max_positions())):
        rows.append((name, repr(cost), ";".join(str(p) for p in sorted(positions))))
    return _csv_text(("head_pos", "cost"), rows)


# ---------------------------------------------------------------------------
# conflict


def _parse_lambdas(spec):
    try:
        grid = [float(s) for s in spec.split(",")]
    except ValueError:
        raise InputParseError(f"bad lambda grid {spec!r}") from None
    for lam in grid:
        if not 0.0 <= lam <= 1.0:  # also rejects nan
            raise InputParseError(f"lambda {lam!r} must lie in [0, 1]")
    return grid


@main.command("conflict")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--target", default=None)
@click.option("--order", default=None, help="Comma-separated dependent order.")
@click.option("--lambdas", default="0,0.25,0.5,0.75,1", show_default=True)
@_output_option
def conflict_cmd(model_path, target, order, lambdas):
    """Dependency cost vs head uncertainty per position, with Pareto front."""
    model, resolved, context = _model_and_context(model_path, target, order)
    report = conflict.conflict_report(model, context, resolved)
    front = conflict.pareto_front(report)
    grid = _parse_lambdas(lambdas)
    optima = {lam: conflict.weighted_optimum(report, lam) for lam in grid}
    header = ["head_pos", "dep_cost", "H_bits", "pareto"] + [
        f"weighted_opt_at_{lam:g}" for lam in grid
    ]
    rows = []
    for p in report.positions():
        dep, unc = report.row(p)
        rows.append(
            (p, repr(dep), repr(unc), int(p in front))
            + tuple(int(p in optima[lam]) for lam in grid)
        )
    return _csv_text(header, rows)


# ---------------------------------------------------------------------------
# ring


@main.group("ring")
def ring_group():
    """Permutation-ring operations over the six S/V/O orders."""


@ring_group.command("distance")
@click.argument("a")
@click.argument("b")
def ring_distance_cmd(a, b):
    return f"{ring.ring_distance(_word_order(a), _word_order(b))}\n"


@ring_group.command("neighbors")
@click.argument("order")
def ring_neighbors_cmd(order):
    nbrs = ring.neighbors(_word_order(order))
    return ",".join(str(o) for o in ring.ORDERS if o in nbrs) + "\n"


@ring_group.command("predict")
@click.option("--from", "source", required=True)
@click.option("--ring/--no-ring", "use_ring", default=False)
@click.option("--filter", "filter_name", default=None,
              type=click.Choice(sorted(ring.FILTER_SETS)))
def ring_predict_cmd(source, use_ring, filter_name):
    if not use_ring and filter_name is None:
        raise click.UsageError("give --ring, --filter or both")
    dests = ring.predicted_destinations(_word_order(source), use_ring, filter_name)
    return ",".join(str(o) for o in dests) + "\n"


def _kernel_from_config(cfg):
    decay = cfg.get("decay", {"kind": "exponential", "beta": 1.0})
    if not isinstance(decay, dict):
        raise InputParseError(f"bad kernel config: decay {decay!r} is not an object")
    kind = decay.get("kind", "exponential")
    try:
        if kind == "exponential":
            param = decay.get("beta", 1.0)
        elif kind == "inverse_power":
            param = decay.get("alpha", 1.0)
        else:
            weights = decay.get("weights", {})
            if not isinstance(weights, dict):
                raise ValueError(f"tabulated weights {weights!r} are not an object")
            param = {int(k): v for k, v in weights.items()}
        return ring.RingKernel(
            decay_kind=kind,
            decay_param=param,
            filters=cfg.get("filters", {}),
            self_weight=cfg.get("self_weight", 0.0),
        )
    except ValueError as exc:
        raise InputParseError(f"bad kernel config: {exc}") from None


def _config_int(cfg, name, default, minimum=None):
    value = cfg.get(name, default)
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise InputParseError(
            f"config {name!r} = {value!r} is not an integer"
        ) from None
    if minimum is not None and number < minimum:
        raise InputParseError(f"config {name!r} = {number} must be >= {minimum}")
    return number


@ring_group.command("simulate")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@_output_option
def ring_simulate_cmd(config_path):
    """Evolve an ensemble per the JSON config; emit per-step distributions."""
    try:
        cfg = json.loads(_read_text(config_path))
    except json.JSONDecodeError as exc:
        raise InputParseError(f"{config_path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise InputParseError(f"{config_path}: config must be a JSON object")
    kernel = _kernel_from_config(cfg)
    trajectory = ring.evolve(
        kernel,
        _word_order(cfg.get("start", "SOV")),
        _config_int(cfg, "steps", 1, minimum=0),
        _config_int(cfg, "ensemble_size", 1000, minimum=1),
        _config_int(cfg, "seed", 0),
    )
    header = ["step"] + [str(o) for o in ring.ORDERS]
    rows = [
        (step, *(repr(float(f)) for f in freq))
        for step, freq in enumerate(trajectory.frequencies)
    ]
    return _csv_text(header, rows)


@ring_group.command("compare")
@click.option("--dist", required=True,
              help="Distribution, e.g. SOV=0.4,SVO=0.4,VSO=0.1,...")
def ring_compare_cmd(dist):
    try:
        parsed = {}
        for part in dist.split(","):
            name, value = part.split("=")
            parsed[_word_order(name.strip())] = float(value)
    except ValueError as exc:
        raise InputParseError(f"bad distribution spec: {exc}") from None
    distributions.check_mass(parsed.values(), "distribution")
    tv, agreements = ring.compare_to_reference(parsed)
    rows = [("rank_agreement", a, b, int(ok)) for (a, b), ok in agreements]
    return _csv_text(("total_variation", repr(tv)), rows)


# ---------------------------------------------------------------------------
# rate


@main.group("rate")
def rate_group():
    """Entropy-rate estimation and diagnostics on token sequences."""


def _profile_from_file(path, chars, max_order, cyclic, coverage_cap):
    tokens = ingest_corpus(path, chars)
    table = rate.ngram_counts(tokens, max_order, cyclic=cyclic)
    cap = None if coverage_cap <= 0 else coverage_cap
    return rate.conditional_entropy_profile(table, coverage_cap=cap)


def _not_nan(ctx, param, value):
    if math.isnan(value):
        raise click.BadParameter("must be a number, not nan")
    return value


_rate_input_options = [
    click.argument("corpus", type=click.Path(exists=True)),
    click.option("--chars", is_flag=True, help="Character-level tokenization."),
    click.option("--max-order", default=4, show_default=True,
                 type=click.IntRange(min=1)),
    click.option("--cyclic", is_flag=True, help="Wrap-around windows."),
    click.option("--coverage-cap", default=0.2, show_default=True, type=float,
                 callback=_not_nan,
                 help="Truncate once distinct blocks exceed this share of windows;"
                      " 0 disables."),
]


def _with_rate_input(fn):
    for option in reversed(_rate_input_options):
        fn = option(fn)
    return fn


@rate_group.command("profile")
@_with_rate_input
@_output_option
def rate_profile_cmd(corpus, chars, max_order, cyclic, coverage_cap):
    profile = _profile_from_file(corpus, chars, max_order, cyclic, coverage_cap)
    rows = [(i + 1, repr(v)) for i, v in enumerate(profile.values)]
    return _csv_text(("i", "H_bits"), rows)


@rate_group.command("cer")
@_with_rate_input
@click.option("--tolerance", default=0.05, show_default=True, type=float,
              callback=_not_nan)
def rate_cer_cmd(corpus, chars, max_order, cyclic, coverage_cap, tolerance):
    profile = _profile_from_file(corpus, chars, max_order, cyclic, coverage_cap)
    verdict = rate.cer_diagnostic(profile, tolerance)
    return json.dumps(dataclasses.asdict(verdict)) + "\n"


@rate_group.command("uid")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--text", "text_path", default=None, type=click.Path(exists=True),
              help="Also report the spread of this whitespace-tokenized sequence.")
def rate_uid_cmd(model_path, text_path):
    model = distributions.model_from_json(_read_text(model_path))
    result = rate.uid_classify(model)
    record = dataclasses.asdict(result)
    if result.offending_sequence is None:
        del record["offending_sequence"]
    if text_path is not None:
        record["sequence_spread"] = rate.uid_spread(ingest_corpus(text_path), model)
    return json.dumps(record) + "\n"


@rate_group.command("hilberg")
@_with_rate_input
@click.option("--variant", type=click.Choice(["pure", "relaxed"]),
              default="relaxed", show_default=True)
def rate_hilberg_cmd(corpus, chars, max_order, cyclic, coverage_cap, variant):
    profile = _profile_from_file(corpus, chars, max_order, cyclic, coverage_cap)
    fit = rate.hilberg_fit(profile, variant)
    return json.dumps(dataclasses.asdict(fit)) + "\n"


@rate_group.command("peak")
@_with_rate_input
def rate_peak_cmd(corpus, chars, max_order, cyclic, coverage_cap):
    profile = _profile_from_file(corpus, chars, max_order, cyclic, coverage_cap)
    value, index = rate.peak_cost(profile)
    return json.dumps({"peak_bits": value, "argmax_index": index}) + "\n"


# ---------------------------------------------------------------------------
# coding


@main.command("coding")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True),
              help="CSV with columns type,probability[,length][,ctx1..ctxN].")
@click.option("--allow-full-reduction", is_flag=True)
@_output_option
def coding_cmd(input_path, allow_full_reduction):
    """Assign optimal lengths and report L, L_n(y), M_n(y), tau, verdict."""
    reader = csv.DictReader(io.StringIO(_read_text(input_path), newline=""))
    if reader.fieldnames is None:
        raise InputParseError("empty coding table")
    has_length = "length" in reader.fieldnames
    rows = list(reader)
    if not rows:
        raise InputParseError("coding table has no rows")
    try:
        context_cols = sorted(
            (c for c in reader.fieldnames if c.startswith("ctx")),
            key=lambda c: int(c[3:]),
        )
        read = ["probability", "type", *context_cols]
        if has_length:
            read.append("length")
        for i, r in enumerate(rows, 1):
            if any(r[c] is None for c in read):  # csv fills a short row with None
                raise ValueError(f"row {i} has fewer fields than the header")
        probs = [float(r["probability"]) for r in rows]
        types = [r["type"] for r in rows]
        contexts = [tuple(r[c] for c in context_cols) for r in rows]
        given = [int(r["length"]) for r in rows] if has_length else None
    except (KeyError, ValueError) as exc:
        raise InputParseError(f"bad coding table: {exc}") from None
    data, summary = coding.report(types, probs, contexts, given, allow_full_reduction)
    header = ("context", "type", "probability", "length", "ideal_length")
    return _csv_text(header, data + summary)


# ---------------------------------------------------------------------------
# sequence generation


def _parse_dist(spec):
    try:
        return {
            k.strip(): float(v)
            for k, v in (part.split(":") for part in spec.split(","))
        }
    except ValueError as exc:
        raise InputParseError(f"bad distribution spec {spec!r}: {exc}") from None


def _parse_transition(spec):
    # "a>a:0.9,a>b:0.1;b>b:0.8,b>a:0.2" or flat comma form
    table: dict[str, dict[str, float]] = {}
    try:
        for part in spec.replace(";", ",").split(","):
            arrow, value = part.split(":")
            src, dst = arrow.split(">")
            table.setdefault(src.strip(), {})[dst.strip()] = float(value)
    except ValueError as exc:
        raise InputParseError(f"bad transition spec {spec!r}: {exc}") from None
    return table


@main.command("gen")
@click.option("--kind", required=True,
              type=click.Choice(list(distributions.SequenceSource.KINDS)))
@click.option("--marginal", default=None, help='iid marginal, e.g. "a:0.5,b:0.5"')
@click.option("--initial", default=None, help='markov initial, e.g. "a:1"')
@click.option("--transition", default=None, help='markov rows, e.g. "a>b:1,b>a:1"')
@click.option("--block", default=None, help='periodic block, e.g. "a,b,c"')
@click.option("--symbol", default=None, help="homogeneous symbol")
@click.option("--tokens-file", default=None, type=click.Path(exists=True),
              help="empirical token source")
@click.option("--length", required=True, type=click.IntRange(min=0))
@click.option("--seed", default=0, show_default=True, type=int)
@_output_option
def gen_cmd(kind, marginal, initial, transition, block, symbol, tokens_file,
            length, seed):
    """Emit a whitespace-joined token sequence from a seeded source."""
    kwargs = {"kind": kind, "seed": seed}
    if kind == "iid":
        if marginal is None:
            raise InputParseError("iid source needs --marginal")
        kwargs["marginal"] = _parse_dist(marginal)
    elif kind == "markov":
        if initial is None or transition is None:
            raise InputParseError("markov source needs --initial and --transition")
        kwargs["initial"] = _parse_dist(initial)
        kwargs["transition"] = _parse_transition(transition)
    elif kind == "periodic":
        if block is None:
            raise InputParseError("periodic source needs --block")
        kwargs["block"] = tuple(s.strip() for s in block.split(","))
    elif kind == "homogeneous":
        if symbol is None:
            raise InputParseError("homogeneous source needs --symbol")
        kwargs["symbol"] = symbol
    else:
        if tokens_file is None:
            raise InputParseError("empirical source needs --tokens-file")
        kwargs["tokens"] = tuple(ingest_corpus(tokens_file))
    source = distributions.SequenceSource(**kwargs)
    tokens = distributions.generate(source, length, seed)
    return " ".join(tokens) + "\n"


@main.command("scramble")
@click.argument("corpus", type=click.Path(exists=True))
@click.option("--chars", is_flag=True)
@click.option("--seed", default=0, show_default=True, type=int)
@_output_option
def scramble_cmd(corpus, chars, seed):
    """Uniformly permute the tokens of a corpus."""
    return " ".join(distributions.scramble(ingest_corpus(corpus, chars), seed)) + "\n"


if __name__ == "__main__":
    main()
