"""tools/src_lines.py, the line count that ROADMAP aim 2 reads."""
import runpy
import subprocess
import sys
from pathlib import Path

import rissim

TOOL = Path(__file__).parents[1] / "tools" / "src_lines.py"
# code lines of src/rissim; raising it is a deliberate act, noted in CHANGES.md
CODE_LINES = 1545

SAMPLE = '''"""Module docstring
over two lines."""
import os  # a comment

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string,
not a docstring"""
    return (x +
            1)
'''


def test_totals_match_a_direct_count():
    package = Path(rissim.__file__).parent
    cp = subprocess.run(
        [sys.executable, str(TOOL), str(package)], capture_output=True, text=True, check=True
    )
    rows = {name: (int(a), int(b)) for name, a, b in map(str.split, cp.stdout.splitlines())}
    total = rows.pop("total")
    modules = sorted(package.glob("*.py"))
    assert list(rows) == [path.stem for path in modules]
    assert total[0] == sum(len(path.read_text().splitlines()) for path in modules)
    assert total[1] == sum(code for _, code in rows.values())
    assert all(0 < code < lines for lines, code in rows.values())
    assert total[1] <= CODE_LINES, (
        f"src/rissim has {total[1]} code lines, more than the pinned {CODE_LINES}; "
        "if the growth is meant, raise CODE_LINES and say why in CHANGES.md"
    )


def test_code_lines_skip_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # code: the import, the def, both lines of the string and both of the return
    assert runpy.run_path(str(TOOL))["count"](path) == (13, 6)

