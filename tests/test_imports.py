"""Importing the package loads no scipy: only two bound functions need it,
and they import it when called. No module reads the environment: every
setting comes from arguments, flags or a config."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_import_loads_no_scipy():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    code = (
        "import sys, hgcolor, hgcolor.cli, hgcolor.experiment\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    readers = []
    for path in sorted((Path(SRC) / "hgcolor").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = (
                [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                else [node.attr] if isinstance(node, ast.Attribute)
                else [node.id] if isinstance(node, ast.Name)
                else []
            )
            readers += [f"{path.name}:{node.lineno} {name}" for name in names if name in _ENV_READERS]
    assert readers == []
