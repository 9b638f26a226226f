"""The README's library example runs as printed."""

import contextlib
import io

from support import library_example


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), "README.md", "exec"), {})
    assert out.getvalue() == \
        "TwistedPolynomial((t^2 + 6*t + 1) / (t + 6), d=1)\n"
