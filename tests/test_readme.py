"""The README's command examples run and exit 0."""

import re
import shlex
from pathlib import Path

import pytest

from rectower.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """Each ``rectower ...`` line of the README's sh blocks, as argv."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("rectower ")]


def test_readme_has_examples():
    assert _examples()


@pytest.mark.parametrize("argv", _examples(), ids=" ".join)
def test_readme_example_exits_0(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out and not captured.err
