"""Every ```python block of README.md runs as written, and so does every CLI example."""

import re
import shlex
from pathlib import Path

import pytest

from sbcubature.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
# the one JSON block is the domain file the CLI examples call square.json
(SQUARE_JSON,) = re.findall(r"^```json\n(.*?)^```", TEXT, re.M | re.S)
COMMANDS = [
    shlex.split(line)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("sbcubature ")
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=["block%d" % i for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_readme_has_cli_examples():
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_readme_cli_example_runs(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "square.json").write_text(SQUARE_JSON, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out.strip()
