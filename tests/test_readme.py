"""README.md's Python examples run as written."""

import re
from pathlib import Path

from rednw.cli import main as cli_main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run(tmp_path, monkeypatch, capsys):
    """Every ```python block of README.md runs, in order, in a fresh
    directory. The block that recomputes a cell from ``sim/manifest.json``
    reads the run directory of a small ``rednw simulate --out sim``."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    assert cli_main(["simulate", "--model", "1", "--ns", "300", "--nrep", "3", "--points", "4",
                     "--methods", "nprt", "--seed", "7", "--out", "sim"]) == 0
    for k, source in enumerate(blocks):
        exec(compile(source, f"README.md python block {k}", "exec"), {"__name__": "readme"})
