"""README.md's examples run as written: the quick-start block executes, and
each ``qweyl ...  # prints X`` or ``qweyl ...  # exits N: MESSAGE`` line,
run through ``cli.main``, prints X on stdout, or exits N with ``error:
MESSAGE`` on stderr.  ``...`` in a comment matches any text."""

import re
import shlex
from pathlib import Path

from qweyl import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
EXAMPLE = re.compile(
    r"qweyl (?P<argv>.*?)\s+# (?:prints (?P<out>.*)|exits (?P<code>\d+): (?P<err>.*))")


def matches(comment, text):
    return re.fullmatch(".*".join(map(re.escape, comment.split("..."))), text) is not None


def test_quick_start_runs(capsys):
    block = README.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_command_line_examples_print_what_their_comments_say(capsys):
    examples = [m for line in README.splitlines() if (m := EXAMPLE.fullmatch(line))]
    assert len(examples) >= 6
    for m in examples:
        code = cli.main(shlex.split(m["argv"]))
        out, err = capsys.readouterr()
        if m["out"] is not None:
            assert (code, err) == (0, "") and matches(m["out"] + "\n", out), (m[0], out)
        else:
            assert (code, out) == (int(m["code"]), "") and matches(
                "error: " + m["err"] + "\n", err), (m[0], err)
