"""The README's Python examples run as written: every fenced ``python``
block, in order, in one namespace, so a name the package drops cannot
survive in the docs."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 3
    namespace = {"__name__": "readme"}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
