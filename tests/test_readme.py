"""The README's Python quick tour runs as written."""

import re
from pathlib import Path


def test_quick_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md quick tour", "exec"), namespace)
    assert namespace["ok"].positive_definite
    assert namespace["res"].dim >= 1
