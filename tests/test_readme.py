"""The code the README shows runs as documented."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    probability, value = (float(line) for line in capsys.readouterr().out.split())
    assert 0.0 < probability < 1.0 and math.isfinite(value)
