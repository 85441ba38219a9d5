"""The README's Python examples run as written, and the package exports
every name it lists."""

import re
import shutil
from pathlib import Path

import geokatz

ROOT = Path(__file__).parents[1]
FENCED_PYTHON = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch):
    # The blocks build on each other (the third scores the network the
    # second built), so they share one namespace, in README order. The
    # first runs configs/quickstart.yaml from the working directory.
    blocks = FENCED_PYTHON.findall((ROOT / "README.md").read_text("utf-8"))
    assert len(blocks) >= 3
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"),
             namespace)
    assert (tmp_path / "runs" / "demo" / "report_EWKI.json").is_file()
    ewki = namespace["ewki"]
    assert ewki.normalized
    assert ewki.support is namespace["ki"].support


def test_every_exported_name_resolves():
    missing = [name for name in geokatz.__all__
               if not hasattr(geokatz, name)]
    assert missing == []
    assert len(set(geokatz.__all__)) == len(geokatz.__all__)
