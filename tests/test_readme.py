"""The README's command-line examples print the output the README shows.

An example is a ``$ obstrukt ...`` line; when the line after it is a JSON
value, that is its whole stdout.  An abridged output (with ``...``) or none
at all is not checked.
"""

import json
import shlex
from pathlib import Path

import pytest

from obstrukt.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _shown_examples() -> list[tuple[list[str], str]]:
    lines = README.read_text(encoding="utf-8").splitlines()
    examples = []
    for line, shown in zip(lines, lines[1:]):
        if not line.startswith("$ obstrukt "):
            continue
        try:
            json.loads(shown)
        except ValueError:
            continue
        examples.append((shlex.split(line[2:], comments=True)[1:], shown))
    return examples


EXAMPLES = _shown_examples()


def test_every_shown_output_is_found():
    assert [argv[:2] for argv, _ in EXAMPLES] == [
        ["mh", "--n"], ["verify", "--theorem"], ["verify", "--theorem"]]


@pytest.mark.parametrize("argv,shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_example_prints_what_the_readme_shows(argv, shown, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == shown + "\n"
