"""Every module of the packet path imports cleanly when it is the first
``repro`` module a process loads (no circular-import failures)."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# One child, many cold starts: each module is imported after every
# ``repro`` module has been dropped from ``sys.modules``.
_CHILD = r"""
import importlib
import pkgutil
import sys
import traceback

names = []
for package in ("repro.arch", "repro.pisa"):
    module = importlib.import_module(package)
    names.append(package)
    names.extend(
        info.name
        for info in pkgutil.walk_packages(module.__path__, package + ".")
    )
failures = []
for name in sorted(set(names)):
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failures.append(name + "\n" + traceback.format_exc(limit=-3))
print(len(names))
print("\n".join(failures))
"""


def test_each_arch_and_pisa_module_imports_first():
    result = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": str(SRC), "PATH": ""},
    )
    assert result.returncode == 0, result.stderr
    count, _, failures = result.stdout.partition("\n")
    assert int(count) >= 20  # both packages were walked
    assert failures.strip() == ""
