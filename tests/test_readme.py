"""The README's library example runs as printed."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def library_example():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), "README.md", "exec"), {})
    assert out.getvalue() == \
        "TwistedPolynomial((t^2 + 6*t + 1) / (t + 6), d=1)\n"
