"""README's examples, run as written.

Each `hyperquad` command in a ```sh block runs through cli.main and must
exit 0.  A ```text block right after such a block is the output of its
first command: line for line, where a line ending in "..." is a prefix.
The ```python library sketch runs as it stands.
"""

import re
import shlex
from pathlib import Path

import pytest

from hyperquad import cli

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```(\w+)\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def _commands(body: str) -> list[list[str]]:
    """The hyperquad commands of a shell block, continuations joined."""
    out = []
    for line in body.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)
        if argv[:1] == ["hyperquad"]:
            out.append(argv[1:])
    return out


EXAMPLES = []  # (argv, expected text lines or None)
for (lang, body), following in zip(BLOCKS, BLOCKS[1:] + [("", "")]):
    if lang != "sh":
        continue
    for j, argv in enumerate(_commands(body)):
        shown = following[0] == "text" and j == 0
        EXAMPLES.append((argv, following[1].splitlines() if shown else None))


def test_readme_shows_the_examples_this_test_reads():
    assert len(EXAMPLES) == 4
    assert sum(text is not None for _, text in EXAMPLES) == 2
    assert [lang for lang, _ in BLOCKS].count("python") == 1


@pytest.mark.parametrize("argv,text", EXAMPLES, ids=[" ".join(a[:1]) for a, _ in EXAMPLES])
def test_readme_command(argv, text, capsys):
    assert cli.main(argv) == 0
    if text is None:
        return
    got = capsys.readouterr().out.splitlines()
    assert len(got) == len(text)
    for want, line in zip(text, got):
        if want.endswith("..."):
            assert line.startswith(want[:-3]), (want, line)
        else:
            assert line == want


def test_readme_library_sketch():
    (body,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(body, str(README), "exec"), {})
