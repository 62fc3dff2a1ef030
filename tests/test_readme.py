"""The README's one python block runs as written, so the library example cannot rot."""
import contextlib
import io
import pathlib
import re

import egsolve

README = pathlib.Path(egsolve.__file__).parents[2] / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue() == "stop_tol 117 8.255489269774815e-15\n"
