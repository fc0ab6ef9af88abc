"""README.md's python examples run as written.

Each ```python block runs with exec in a fresh namespace, so an example
fails here when a documented import or attribute moves. The test reads
README.md next to the tests, so it also runs against an installed package.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks, "README.md has no python block"
    for match in blocks:
        # pad to the block's first line, so a traceback names the README line
        lead = "\n" * text.count("\n", 0, match.start(1))
        exec(compile(lead + match.group(1), str(README), "exec"), {})
