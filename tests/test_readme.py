"""The README's worked session: the demo file and the lines each
``$ diffres`` command prints are read from README.md's own code blocks."""

from __future__ import annotations

import re
from pathlib import Path

from diffres.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def text_block(marker):
    """The one ```text block of the README that contains ``marker``."""
    blocks = [b for b in re.findall(r"^```text\n(.*?)^```", README.read_text(),
                                    re.MULTILINE | re.DOTALL)
              if marker in b]
    assert len(blocks) == 1, marker
    return blocks[0]


def commands(session):
    """(argv, printed lines) of each command; an indented line wraps the
    line above it."""
    out = []
    for line in session.splitlines():
        if line.startswith("$ diffres "):
            out.append((line.split()[2:], []))
        elif line.startswith(" "):
            out[-1][1][-1] += " " + line.strip()
        elif line:
            out[-1][1].append(line)
    return out


def test_the_readme_session_prints_what_the_readme_shows(tmp_path, capsys):
    demo = tmp_path / "demo.sys"
    demo.write_text(text_block("params:"))
    session = commands(text_block("$ diffres "))
    assert [argv[0] for argv, _ in session] == ["gamma", "matrix",
                                                 "eliminate"]
    for argv, shown in session:
        code = main([str(demo) if a == "demo.sys" else a for a in argv])
        printed = capsys.readouterr().out.splitlines()
        assert code == 0, argv
        assert len(printed) == len(shown), argv
        for got, want in zip(printed, shown):
            # a trailing "..." shows a prefix of the printed line
            if want.endswith("..."):
                assert got.startswith(want[:-3]), (got, want)
            else:
                assert got == want
