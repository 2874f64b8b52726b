"""The README's library quickstart runs against the current API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README has no python block under 'Library quickstart'"
    exec(compile(block.group(1), "README.md quickstart", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("ExchangeResult(p=-")
    assert lines[2] == "-inf"  # the near-ground state is PPT-clean
