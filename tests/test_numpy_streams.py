"""The bytes that depend on numpy's ``Generator`` methods, pinned in one place.

``scramble`` shuffles with ``Generator.shuffle`` and ``ring simulate`` draws
with ``Generator.multinomial``.  numpy promises no stable stream for its
``Generator`` methods, only for the bit generator under them, so a numpy
release that changes either method fails here first.  The digests were
recorded with numpy 2.4.6, on which the golden corpus is replayed.
"""

import hashlib
import json

from click.testing import CliRunner

from ordlab import distributions as d
from ordlab.cli import main


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


SCRAMBLED = {
    0: "8f5873c67c864118612cb1372b1319b6e2b106f0492f44ddc1f81804120b8792",
    1: "6235bed17261b87f2dcf2e62a8e5e6f3fadd1e7414e0923760aa4610fcae3f45",
    2**64 - 1: "9edec5bebd6b1bd1d6098673b9b6447ac37e5588945f6550f1d187a2b2064d54",
}
SIMULATED = [
    ({"steps": 20, "ensemble_size": 5000, "seed": 0},
     "b8fb9d84828086d71dcc404f1d8f54db02876221bff3be5b801e03512301d54e"),
    ({"decay": {"kind": "inverse_power", "alpha": 2.0}, "filters": {"dlm": 0.5},
      "self_weight": 0.5, "steps": 20, "ensemble_size": 10**12, "seed": 2**64 - 1},
     "74cd34670b6b88f753ef7978d7e1aab4911097480410cbaa67c2c5a10cea534e"),
]


def test_numpy_generator_streams_are_pinned(tmp_path):
    source = d.SequenceSource("iid", marginal={"a": 0.5, "b": 0.25, "c": 0.125,
                                               "d": 0.125})
    corpus = d.generate(source, 10_000, 3)
    for seed, digest in SCRAMBLED.items():
        # a corpus shuffles its codes, a list its tokens: the same swaps
        assert _digest(" ".join(d.scramble(corpus, seed))) == digest
        assert _digest(" ".join(d.scramble(list(corpus), seed))) == digest
    config = tmp_path / "config.json"
    for cfg, digest in SIMULATED:
        config.write_text(json.dumps(cfg))
        result = CliRunner().invoke(main, ["ring", "simulate", "--config", str(config)])
        assert result.exit_code == 0, result.stderr
        assert _digest(result.stdout) == digest
