"""The package runs on numpy alone: no module imports scipy, and every
subcommand and both pair-conflict routes work with scipy blocked. Importing
the package loads neither scipy nor numpy.polynomial, whose Gauss–Legendre
nodes only the quadrature route needs, and imports when called. No module
reads the environment: every setting comes from arguments, flags or a
config."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _modules():
    for path in sorted((Path(SRC) / "hgcolor").glob("*.py")):
        yield path, ast.walk(ast.parse(path.read_text(), str(path)))


def test_no_module_imports_scipy():
    imports = []
    for path, nodes in _modules():
        for node in nodes:
            names = (
                [alias.name for alias in node.names] if isinstance(node, ast.Import)
                else [node.module or ""] if isinstance(node, ast.ImportFrom)
                else []
            )
            imports += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy"]
    assert imports == []


# a finder placed first on sys.meta_path refuses scipy as if it were not installed
_BLOCKED_SCIPY_RUN = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
import hgcolor, hgcolor.cli, hgcolor.experiment
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial"))
assert loaded == [], loaded

import os
from hgcolor.cli import main

out = sys.argv[1]
fano = os.path.join(out, "fano.hg")
commands = [
    ["gen", "fano", "--out", fano],
    ["color", "--in", fano, "--r", "2", "--seed", "1"],
    ["mc", "--in", fano, "--r", "2", "--trials", "200", "--seed", "1"],
    ["oracle", "--in", fano, "--r", "2"],
    ["bounds", "--n", "10:30:10", "--r", "2,3"],
    ["experiment", "--in", fano, "--trials", "200", "--out", os.path.join(out, "exp")],
]
for argv in commands:
    assert main(argv) == 0, argv

from hgcolor import pair_conflict_probability, pair_conflict_probability_closed
for route in (pair_conflict_probability, pair_conflict_probability_closed):
    assert 0.0 < route(10, 0.3, 0.7) < 1.0
print("ok")
"""


def test_every_subcommand_and_both_pair_routes_run_with_scipy_blocked(tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_SCIPY_RUN, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("ok\n")


_ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    readers = []
    for path, nodes in _modules():
        for node in nodes:
            names = (
                [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                else [node.attr] if isinstance(node, ast.Attribute)
                else [node.id] if isinstance(node, ast.Name)
                else []
            )
            readers += [f"{path.name}:{node.lineno} {name}" for name in names if name in _ENV_READERS]
    assert readers == []
