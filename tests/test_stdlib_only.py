"""The pbmkit runtime imports nothing outside the Python standard library."""
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh isolated interpreter (-I: no PYTHONPATH, no user site), so
# modules the test process already holds cannot hide an import.
PROBE = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import pbmkit
for info in pkgutil.iter_modules(pbmkit.__path__, "pbmkit."):
    importlib.import_module(info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"pbmkit"})))
print(" ".join(sorted(name for name in sys.modules if name.startswith("pbmkit."))))
"""


def test_every_module_imports_only_the_standard_library():
    result = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    foreign, imported = result.stdout.split("\n")[:2]
    assert foreign == ""
    expected = {f"pbmkit.{path.stem}" for path in (SRC / "pbmkit").glob("*.py")} - {"pbmkit.__init__"}
    assert set(imported.split()) == expected
