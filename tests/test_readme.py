"""The README's library quick start runs as printed."""

import re
from pathlib import Path

from twohop_aloha import ServiceMetrics, SimulatedMetrics

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    names = {}
    exec(compile(block, "README.md quick start", "exec"), names)
    assert isinstance(names["analytic"], ServiceMetrics)
    assert isinstance(names["mc"], SimulatedMetrics)
    assert isinstance(names["sup"], ServiceMetrics)
