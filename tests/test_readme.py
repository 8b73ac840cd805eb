"""The README's Python examples run as written, and its dcra command lines
parse; those that finish in seconds run."""

import re
import shlex
from pathlib import Path

from dcra.cli import build_parser, main

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


def readme_commands() -> list[list[str]]:
    """The argv of every `dcra ...` line of the README's sh blocks, with
    continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        lines += block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("dcra ")]


# the sweep with bounds and the four-count congestion study take ten seconds
# or more each at the README's sizes, so they are parsed and not run
PARSED_ONLY = {"sweep", "congestion"}


def test_readme_sh_commands_parse_and_run(tmp_path, monkeypatch):
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "simulate", "simulate", "upper-bound", "upper-bound", "upper-bound",
        "sweep", "convergence", "policy-dump", "congestion",
    ]
    monkeypatch.chdir(tmp_path)
    parser = build_parser()
    for argv in commands:
        opts = vars(parser.parse_args(argv))
        if argv[0] in PARSED_ONLY:
            continue
        assert main(argv) == 0, argv
        for option in ("out", "trace_out", "policy_out", "export_lp"):
            if opts.get(option):
                assert (tmp_path / opts[option]).is_file(), argv
