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


def _record_output(ctx, param, path):
    # _DomainErrorGroup.invoke writes there; ctx and param word its usage error
    if path is not None:
        ctx.meta["ordlab.output"] = (path, ctx, param)


_output_option = click.option("-o", "--output", type=click.Path(), expose_value=False,
                              callback=_record_output)


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
    except OSError as exc:
        raise InputParseError(f"{path}: {exc.strerror}") from None


def _read_pairs(spec, sep, what, key):
    """{key(name): value} of a comma-separated ``name<sep>value`` spec.

    Two names with the same key are an error, as is any ValueError that
    ``key`` raises.
    """
    pairs = {}
    try:
        for part in spec.split(","):
            name, value = part.split(sep)
            k, v = key(name), float(value)
            if k in pairs:
                raise ValueError(f"{str(k)!r} repeats")
            pairs[k] = v
    except ValueError as exc:
        raise InputParseError(f"bad {what} spec {spec!r}: {exc}") from None
    return pairs


def _word_order(name):
    """The WordOrder called ``name`` (any case); InputParseError otherwise."""
    try:
        return ring.as_order(name)
    except ValueError:
        names = ", ".join(str(o) for o in ring.ORDERS)
        raise InputParseError(
            f"unknown word order {name!r}; expected one of {names}"
        ) from None


def _ingest_corpus(path, chars=False):
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
    """Writes the text a command returns, the one writer of every command's output.

    The text goes to the command's ``-o`` file if it was given, else to
    stdout.  An OrdlabError from any command becomes exit 1 with a JSON record.
    """

    def invoke(self, ctx):
        try:
            text = super().invoke(ctx)
        except OrdlabError as exc:
            record = {"error": exc.code, "message": str(exc)}
            click.echo(json.dumps(record), err=True)
            sys.exit(1)
        if "ordlab.output" not in ctx.meta:
            click.echo(text, nl=False)
            return
        path, command_ctx, param = ctx.meta["ordlab.output"]
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.BadParameter(f"{path}: {exc.strerror}", command_ctx, param) from None


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
    # the one key beside "kind" that each kind reads; RingKernel refuses other kinds
    name = dict(exponential="beta", inverse_power="alpha", tabulated="weights").get(str(kind))
    try:
        if name and (unknown := decay.keys() - {"kind", name}):
            raise ValueError(f"decay kind {kind!r} reads no key {min(unknown)!r}")
        param = decay.get(name, {} if name == "weights" else 1.0)
        if name == "weights" and isinstance(param, dict):  # RingKernel refuses the rest
            weights, param = param, {int(k): v for k, v in param.items()}
            if len(param) < len(weights) or not param.keys() <= {1, 2, 3}:
                raise ValueError("tabulated weights need the keys 1, 2 and 3, once each")
        return ring.RingKernel(
            decay_kind=kind,
            decay_param=param,
            filters=cfg.get("filters", {}),
            self_weight=cfg.get("self_weight", 0.0),
        )
    except (ValueError, OverflowError) as exc:
        raise InputParseError(f"bad kernel config: {exc}") from None


def _config_int(cfg, name, default, minimum=None, maximum=None):
    value = cfg.get(name, default)
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:  # true, 2.9 and "3" are not integers
        raise InputParseError(f"config {name!r} = {value!r} is not an integer")
    number = int(value)
    if minimum is not None and number < minimum:
        raise InputParseError(f"config {name!r} = {number} must be >= {minimum}")
    if maximum is not None and number > maximum:
        raise InputParseError(f"config {name!r} = {number} must be <= {maximum}")
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
    if unknown := cfg.keys() - {"decay", "filters", "self_weight", "start", "steps",
                                "ensemble_size", "seed"}:
        raise InputParseError(f"{config_path}: unknown config key {min(unknown)!r}")
    kernel = _kernel_from_config(cfg)
    trajectory = ring.evolve(
        kernel,
        _word_order(cfg.get("start", "SOV")),
        _config_int(cfg, "steps", 1, minimum=0),
        # ring.evolve keeps its chain counts as int64
        _config_int(cfg, "ensemble_size", 1000, minimum=1, maximum=2**63 - 1),
        _config_int(cfg, "seed", 0, minimum=0, maximum=2**64 - 1),
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
    parsed = _read_pairs(dist, "=", "distribution", lambda s: _word_order(s.strip()))
    distributions.check_mass(parsed.values(), "distribution")
    tv, agreements = ring.compare_to_reference(parsed)
    rows = [("rank_agreement", a, b, int(ok)) for (a, b), ok in agreements]
    return _csv_text(("total_variation", repr(tv)), rows)


# ---------------------------------------------------------------------------
# rate


@main.group("rate")
def rate_group():
    """Entropy-rate estimation and diagnostics on token sequences."""


def _not_nan(ctx, param, value):
    if math.isnan(value):
        raise click.BadParameter("must be a number, not nan")
    return value


def _corpus_profile(command):
    """Declares the corpus argument and its options; passes its ``profile``."""

    @click.argument("corpus", type=click.Path(exists=True))
    @click.option("--chars", is_flag=True, help="Character-level tokenization.")
    @click.option("--max-order", default=4, show_default=True,
                  type=click.IntRange(min=1))
    @click.option("--cyclic", is_flag=True, help="Wrap-around windows.")
    @click.option("--coverage-cap", default=0.2, show_default=True, type=float,
                  callback=_not_nan,
                  help="Truncate once distinct blocks exceed this share of windows;"
                       " 0 disables.")
    @functools.wraps(command)
    def read(corpus, chars, max_order, cyclic, coverage_cap, **params):
        tokens = _ingest_corpus(corpus, chars)
        table = rate.ngram_counts(tokens, max_order, cyclic=cyclic)
        cap = None if coverage_cap <= 0 else coverage_cap
        profile = rate.conditional_entropy_profile(table, coverage_cap=cap)
        return command(profile=profile, **params)

    return read


@rate_group.command("profile")
@_corpus_profile
@_output_option
def rate_profile_cmd(profile):
    rows = [(i + 1, repr(v)) for i, v in enumerate(profile.values)]
    return _csv_text(("i", "H_bits"), rows)


@rate_group.command("cer")
@_corpus_profile
@click.option("--tolerance", default=0.05, show_default=True, type=float,
              callback=_not_nan)
def rate_cer_cmd(profile, tolerance):
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
        record["sequence_spread"] = rate.uid_spread(_ingest_corpus(text_path), model)
    return json.dumps(record) + "\n"


@rate_group.command("hilberg")
@_corpus_profile
@click.option("--variant", type=click.Choice(["pure", "relaxed"]),
              default="relaxed", show_default=True)
def rate_hilberg_cmd(profile, variant):
    fit = rate.hilberg_fit(profile, variant)
    return json.dumps(dataclasses.asdict(fit)) + "\n"


@rate_group.command("peak")
@_corpus_profile
def rate_peak_cmd(profile):
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
    if len(set(reader.fieldnames)) < len(reader.fieldnames):  # DictReader keeps the last
        raise InputParseError(f"coding table header {reader.fieldnames} repeats a name")
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
        for length in given or ():
            float(length)  # the mean lengths multiply it by a float
    except (KeyError, ValueError, OverflowError) as exc:
        raise InputParseError(f"bad coding table: {exc}") from None
    data, summary = coding.report(types, probs, contexts, given, allow_full_reduction)
    header = ("context", "type", "probability", "length", "ideal_length")
    return _csv_text(header, data + summary)


# ---------------------------------------------------------------------------
# sequence generation


def _token_name(name, strip=True):
    """``name``, stripped in a spec, if ``gen`` prints it as one token that reads back.

    A name that is empty or holds whitespace is an InputParseError.
    """
    name = name.strip() if strip else name
    if name.split() != [name]:
        what = "holds whitespace" if name else "is empty"
        raise InputParseError(f"token name {name!r} {what}")
    return name


def _arrow(name):
    src, dst = name.split(">")
    return f"{_token_name(src)}>{_token_name(dst)}"


def _parse_transition(spec):
    # "a>a:0.9,a>b:0.1;b>b:0.8,b>a:0.2" or flat comma form
    table: dict[str, dict[str, float]] = {}
    for arrow, p in _read_pairs(spec.replace(";", ","), ":", "transition",
                                _arrow).items():
        src, dst = arrow.split(">")
        table.setdefault(src, {})[dst] = p
    return table


def _seed(ctx, param, value):
    # exit 2 where _rng.substream would raise ValueError; a callback, unlike
    # click.IntRange, leaves the help text as it was
    if not 0 <= value < 2**64:
        raise click.BadParameter(f"{value} is not in the range 0<=x<={2**64 - 1}.")
    return value


def _distribution(spec):
    return _read_pairs(spec, ":", "distribution", _token_name)


# each SequenceSource field: the gen option that gives it, and that option's reader
_SOURCE_OPTIONS = {
    "marginal": ("--marginal", _distribution),
    "initial": ("--initial", _distribution),
    "transition": ("--transition", _parse_transition),
    "block": ("--block", lambda spec: tuple(map(_token_name, spec.split(",")))),
    "symbol": ("--symbol", functools.partial(_token_name, strip=False)),
    "tokens": ("--tokens-file", lambda path: tuple(_ingest_corpus(path))),
}


@main.command("gen")
@click.option("--kind", required=True,
              type=click.Choice(list(distributions.SequenceSource.KINDS)))
@click.option("--marginal", default=None, help='iid marginal, e.g. "a:0.5,b:0.5"')
@click.option("--initial", default=None, help='markov initial, e.g. "a:1"')
@click.option("--transition", default=None, help='markov rows, e.g. "a>b:1,b>a:1"')
@click.option("--block", default=None, help='periodic block, e.g. "a,b,c"')
@click.option("--symbol", default=None, help="homogeneous symbol")
@click.option("--tokens-file", "tokens", default=None, type=click.Path(exists=True),
              help="empirical token source")
@click.option("--length", required=True, type=click.IntRange(min=0))
@click.option("--seed", default=0, show_default=True, type=int, callback=_seed)
@_output_option
def gen_cmd(kind, length, seed, **specs):
    """Emit a whitespace-joined token sequence from a seeded source."""
    fields = distributions.SequenceSource.FIELDS[kind]
    if any(specs[name] is None for name in fields):
        options = " and ".join(_SOURCE_OPTIONS[name][0] for name in fields)
        raise InputParseError(f"{kind} source needs {options}")
    read = {name: _SOURCE_OPTIONS[name][1](specs[name]) for name in fields}
    source = distributions.SequenceSource(kind, seed=seed, **read)
    tokens = distributions.generate(source, length, seed)
    return " ".join(tokens) + "\n"


@main.command("scramble")
@click.argument("corpus", type=click.Path(exists=True))
@click.option("--chars", is_flag=True)
@click.option("--seed", default=0, show_default=True, type=int, callback=_seed)
@_output_option
def scramble_cmd(corpus, chars, seed):
    """Uniformly permute the tokens of a corpus."""
    return " ".join(distributions.scramble(_ingest_corpus(corpus, chars), seed)) + "\n"


if __name__ == "__main__":
    main()
