"""Every module of the packet path imports cleanly when it is the first
``repro`` module a process loads (no circular-import failures), and
every ``repro`` module imports with no site-packages on the path (the
library has zero runtime dependencies)."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# One child, many imports: ``argv[1]`` is ``cold`` to import each module
# after every ``repro`` module has been dropped from ``sys.modules``,
# ``warm`` to import them in turn; the rest of ``argv`` names the
# packages to walk.
_CHILD = r"""
import importlib
import pkgutil
import sys
import traceback

cold = sys.argv[1] == "cold"
names = []
for package in sys.argv[2:]:
    module = importlib.import_module(package)
    names.append(package)
    names.extend(
        info.name
        for info in pkgutil.walk_packages(module.__path__, package + ".")
    )
failures = []
for name in sorted(set(names)):
    if cold:
        for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
            del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failures.append(name + "\n" + traceback.format_exc(limit=-3))
print(len(names))
print("\n".join(failures))
"""


def _import_all(*args):
    """(module count, failure report) from one child run."""
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": str(SRC), "PATH": ""},
    )
    assert result.returncode == 0, result.stderr
    count, _, failures = result.stdout.partition("\n")
    return int(count), failures.strip()


def test_each_arch_and_pisa_module_imports_first():
    count, failures = _import_all("-c", _CHILD, "cold", "repro.arch", "repro.pisa")
    assert count >= 20  # both packages were walked
    assert failures == ""


def test_every_module_imports_without_site_packages():
    # ``-S`` leaves only the standard library and ``src`` on the path, so
    # a module-level import of any installed package fails here.
    count, failures = _import_all("-S", "-c", _CHILD, "warm", "repro")
    assert count >= 150  # the whole tree was walked
    assert failures == ""
