"""The README's Python examples run as written and state what they do.

The ```python blocks run in order in one namespace, as a reader pasting
them into one session would; the assertions check what their comments
say.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE)


def test_readme_examples_run_and_state_their_results(capsys):
    blocks = _python_blocks()
    assert len(blocks) == 2
    ns = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)  # noqa: S102 - the README's own code

    g, f = ns["g"], ns["f"]
    assert ns["fam"].alpha == 2
    assert ns["fam"].sets == (frozenset({2, 3}),)
    assert ns["rep"].core == {2, 3} and ns["rep"].anticore == {0, 1}
    assert ns["m"] == {(0, 2), (1, 3)}
    assert ns["certify_max_stable"](g, ns["m"], {2, 3}).ok
    assert capsys.readouterr().out == "True\n"  # full_report(g)["is_ke"]
    assert ns["check_alpha_plus_three_routes"](f).consistent
    assert ns["pm_via_core"](f) is True
