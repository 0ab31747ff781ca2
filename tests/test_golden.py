"""The CLI against its golden corpus: every case's bytes, replayed in process.

The corpus and its rewrite script live in ``tests/golden``; see
``tests/golden/regen.py``.
"""

import json

from golden import regen


def test_cli_output_matches_the_golden_corpus():
    expected = json.loads(regen.EXPECTED.read_text(encoding="utf-8"))
    cases = regen.load_cases()
    assert [c["name"] for c in cases] == list(expected)
    actual = regen.replay(cases)
    wrong = [name for name in expected if actual[name] != expected[name]]
    assert not wrong, (
        f"{len(wrong)} cases differ, first {wrong[0]!r}:\n"
        f"expected {expected[wrong[0]]!r}\nactual   {actual[wrong[0]]!r}"
    )
    for name, result in actual.items():
        assert result["exit_code"] in (0, 1, 2), name
        assert "Traceback" not in result["stdout"] + result["stderr"], name
        if result["exit_code"] == 1:
            assert set(json.loads(result["stderr"])) == {"error", "message"}, name
