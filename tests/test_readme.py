"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.split()
    throughput, power, bound = (float(v) for v in printed)
    assert 0.0 <= throughput <= power
    assert throughput <= bound
    assert round(bound, 6) == 0.326537
