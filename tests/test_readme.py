"""The README's CLI walkthrough and library example run as written."""

import contextlib
import io
import os
import re
import shlex

from quantkit.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _code_block(section: str, language: str) -> str:
    """The first ``language`` code block after the README heading ``section``."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    after = text[text.index(f"\n## {section}\n"):]
    return re.search(rf"```{language}\n(.*?)```", after, re.S).group(1)


def test_cli_walkthrough(tmp_path, monkeypatch, capsys):
    block = _code_block("CLI walkthrough", "sh")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("quantkit ")]
    # report reads a results CSV that the walkthrough does not make
    commands = [argv[1:] for argv in commands if argv[1] != "report"]
    assert [argv[0] for argv in commands] == [
        "synth", "analyze", "plan", "quantize", "sweep", "check-matmul"]
    monkeypatch.chdir(tmp_path)
    printed = {}
    for argv in commands:
        assert main(argv) == 0, argv
        printed[argv[0]] = capsys.readouterr().out
    claimed = re.search(r"# -> (.*)\n", block).group(1)
    assert claimed == "15/560 layers per-group (fraction 0.0268)"
    assert f": {claimed}\n" in printed["plan"]
    for name in ("m.bin", "r.csv", "r.plot.json", "p.json", "mq.bin", "sweep.csv"):
        assert (tmp_path / name).exists(), name


def test_library_example():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_code_block("Library example", "python"), {})
    pc, pg = map(float, re.fullmatch(r"per-channel (\S+) vs per-group\(16\) (\S+)\n",
                                     out.getvalue()).groups())
    assert pg < pc
