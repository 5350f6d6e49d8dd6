"""The README's library quickstart runs as written, at a smaller budget."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_quickstart_block_runs(capsys):
    with open(README, "r", encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    assert code.count("budget=60") == 2
    exec(compile(code.replace("budget=60", "budget=8"), "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "ensemble test error:" in out
    assert "post-hoc test error:" in out
