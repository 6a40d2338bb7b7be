"""The README's quick start runs as written and does what it says."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The first Python block of the README's Quick start section."""
    section = README.read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs():
    scope = {}
    exec(compile(quick_start(), str(README), "exec"), scope)
    # "hits e_1": position 1 in mode 1, rest everywhere else in 1..4
    xi, eta = scope["xi"], scope["eta"]
    assert np.max(np.abs(xi[:4] - np.eye(4)[0])) <= 1e-6
    assert np.max(np.abs(eta[:4])) <= 1e-6
