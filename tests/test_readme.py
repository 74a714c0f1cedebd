"""The README's library quick start runs and prints what its comments say."""

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_what_its_comments_say():
    code = quick_start()
    names = {}
    exec(code, names)
    assert f"# {names['policy']!r}\n" in code
    mc = names["mc"]
    # a uniform wait on [0, 30] has standard deviation 30/sqrt(12)
    assert mc.stderr == pytest.approx(30.0 / math.sqrt(12.0) / math.sqrt(mc.n), rel=1e-2)
    assert round(mc.stderr, 4) == float(re.search(r"stderr≈([0-9.]+)", code).group(1))
    assert abs(mc.mean - 21.0) < 3.5 * mc.stderr
