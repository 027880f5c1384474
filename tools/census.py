"""Execution census: which functions of ``src/repro`` each driver reaches.

Runs each driver below in its own traced process tree, then prints three
lists with line counts: the functions no driver reaches, the ones only
the tier-1 tests reach, and the ones exactly one other driver reaches.

Drivers:

* ``tier1`` — ``python -m pytest -q`` (the tier-1 suite);
* ``perf`` — ``python perf/run.py --reps 1 --scale 0.05 --trace``;
* ``benchmarks`` — ``python -m pytest benchmarks/ -q``;
* ``examples`` — every ``examples/*.py``;
* ``cli`` — the ``run:`` blocks of ``.github/workflows/ci.yml`` that call
  ``repro.cli`` (per-PR jobs only, not the nightly ones), run in a
  scratch directory, plus ``python -m repro.cli all``;
* ``serve`` — ``python tools/serve_smoke.py``.

Usage::

    python tools/census.py                          # every driver
    python tools/census.py --drivers examples,cli   # a subset

Only the standard library is used.  A function counts as reached when
its code object is entered at least once; nested functions are folded
into the function that defines them.  Drivers that exit non-zero are
reported but still counted.  The full census takes roughly 15 minutes
on a 2-core host.

Tracing, and the pitfalls it has to get round:

* Each driver starts with a generated ``sitecustomize.py`` first on
  ``PYTHONPATH``, which installs a call-only ``sys.settrace`` hook in
  every interpreter of the driver's tree.  That is the only way into
  subprocesses, so the hook also re-adds its directory when a traced
  process starts a child with an ``env`` of its own.
* Forked ``multiprocessing`` children leave through ``os._exit`` after
  clearing their finalizers, so ``atexit`` never runs there: the hook
  wraps ``os._exit`` to write its record first.
* A decorated function's code object starts at its first decorator
  line, so functions are matched on that line, not on ``def``.
* pytest-benchmark calls ``sys.settrace(None)`` around every timed
  ``benchmark(...)`` call, which would hide everything the benchmarks
  reach through it, so the pytest drivers pass ``--benchmark-disable``
  when the plugin is installed.
"""

from __future__ import annotations

import argparse
import ast
import glob
import importlib.util
import os
import re
import subprocess
import sys
import tempfile
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CI_YML = os.path.join(ROOT, ".github", "workflows", "ci.yml")
TESTS = "tier1"
DRIVERS = ("tier1", "perf", "benchmarks", "examples", "cli", "serve")

#: ``(relative path, first line)`` — how a function is identified.
FuncId = Tuple[str, int]

_HOOK = """\
import atexit
import os
import subprocess
import sys
import threading

_OUT = {out!r}
_HOOK_DIR = {hook_dir!r}
_SRC = {src!r}
_codes = {{}}


def _trace(frame, event, arg):
    code = frame.f_code
    if id(code) not in _codes:
        _codes[id(code)] = code


def _dump():
    codes = list(_codes.values())
    rows = set()
    for code in codes:
        if code.co_filename.startswith(_SRC):
            rows.add("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))
    if rows:
        with open(os.path.join(_OUT, "%d.txt" % os.getpid()), "a") as fh:
            fh.writelines(sorted(rows))


_exit = os._exit


def _dump_and_exit(status):
    _dump()
    _exit(status)


_popen_init = subprocess.Popen.__init__


def _traced_popen_init(self, *args, **kwargs):
    env = kwargs.get("env")
    if env is not None:
        path = env.get("PYTHONPATH", "")
        if _HOOK_DIR not in path.split(os.pathsep):
            env = dict(env)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (_HOOK_DIR, path) if p)
            kwargs["env"] = env
    _popen_init(self, *args, **kwargs)


os._exit = _dump_and_exit
subprocess.Popen.__init__ = _traced_popen_init
atexit.register(_dump)
threading.settrace(_trace)
sys.settrace(_trace)
"""


# ----------------------------------------------------------------------
# The function table
# ----------------------------------------------------------------------
def _functions(tree: ast.AST, prefix: str = "") -> Iterator[Tuple[str, int, int]]:
    """``(qualname, first line, end line)`` of every function or method
    not nested inside another function."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield prefix + node.name, first, node.end_lineno
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        else:
            yield from _functions(node, prefix)


def function_table() -> Dict[FuncId, Tuple[str, int]]:
    """``(path, first line) -> (qualname, line count)`` over ``src/repro``."""
    table: Dict[FuncId, Tuple[str, int]] = {}
    pattern = os.path.join(SRC, "repro", "**", "*.py")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        rel = os.path.relpath(path, SRC)
        for name, first, last in _functions(tree):
            table[(rel, first)] = (name, last - first + 1)
    return table


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def ci_cli_blocks(path: str = CI_YML) -> List[str]:
    """The ``run:`` blocks of per-PR CI jobs that call ``repro.cli``.

    A folded block (``run: >``) is joined with spaces, a literal one
    (``run: |``) keeps its lines.  Jobs whose ``if:`` runs them only on
    the nightly schedule are skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    blocks: List[str] = []
    nightly = False
    index = 0
    while index < len(lines):
        line = lines[index]
        index += 1
        if re.match(r"^  [\w-]+:\s*$", line):
            nightly = False  # a new job
        elif re.match(r"^    if:.*== 'schedule'", line):
            nightly = True
        match = re.match(r"^(\s*)(?:- )?run:\s*(.*)$", line)
        if not match:
            continue
        indent, value = len(match.group(1)), match.group(2).strip()
        if value in ("|", ">"):
            body = []
            while index < len(lines) and (
                not lines[index].strip()
                or len(lines[index]) - len(lines[index].lstrip()) > indent
            ):
                body.append(lines[index].strip())
                index += 1
            value = ("\n" if value == "|" else " ").join(body)
        if "repro.cli" in value and not nightly:
            blocks.append(value)
    return blocks


def _pytest(*args: str) -> List[str]:
    """A traced pytest command line; see the module docstring on
    pytest-benchmark."""
    argv = [sys.executable, "-m", "pytest", *args, "-q", "-p", "no:cacheprovider"]
    if importlib.util.find_spec("pytest_benchmark") is not None:
        argv.append("--benchmark-disable")
    return argv


def driver_commands(name: str) -> List[Tuple[List[str], str]]:
    """``(argv, cwd)`` for every command of driver ``name``.  Shell
    blocks run under ``bash -ec`` in a scratch directory."""
    python = sys.executable
    if name == "tier1":
        return [(_pytest(), ROOT)]
    if name == "perf":
        argv = [python, "perf/run.py", "--reps", "1", "--scale", "0.05", "--trace"]
        return [(argv, ROOT)]
    if name == "benchmarks":
        return [(_pytest("benchmarks/"), ROOT)]
    if name == "examples":
        scripts = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))
        return [([python, script], None) for script in scripts]
    if name == "cli":
        commands = [(["bash", "-ec", block], None) for block in ci_cli_blocks()]
        return commands + [([python, "-m", "repro.cli", "all"], None)]
    if name == "serve":
        return [([python, "tools/serve_smoke.py"], ROOT)]
    raise ValueError(f"unknown driver {name!r}")


def run_driver(name: str, work: str) -> Set[FuncId]:
    """Run driver ``name`` traced; return the functions it reached."""
    out = os.path.join(work, name, "out")
    hook_dir = os.path.join(work, name, "hook")
    scratch = os.path.join(work, name, "cwd")
    for directory in (out, hook_dir, scratch):
        os.makedirs(directory, exist_ok=True)
    with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as fh:
        fh.write(_HOOK.format(out=out, hook_dir=hook_dir, src=SRC))
    path = os.pathsep.join((hook_dir, SRC))
    env = dict(os.environ, PYTHONPATH=path)
    log = os.path.join(work, name, "log.txt")
    for argv, cwd in driver_commands(name):
        if argv[0] == "bash":
            argv = argv[:2] + [argv[2].replace("PYTHONPATH=src", f"PYTHONPATH={path}")]
        with open(log, "a") as fh:
            fh.write(f"$ {' '.join(argv)}\n")
            fh.flush()
            status = subprocess.call(
                argv, cwd=cwd or scratch, env=env, stdout=fh, stderr=subprocess.STDOUT
            )
        if status:
            print(f"census: {name}: exit {status}: {argv[-1][:70]} (see {log})",
                  file=sys.stderr)
    reached: Set[FuncId] = set()
    for dump in glob.glob(os.path.join(out, "*.txt")):
        with open(dump) as fh:
            for row in fh:
                filename, first = row.rstrip("\n").split("\t")
                reached.add((os.path.relpath(filename, SRC), int(first)))
    return reached


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _section(title: str, rows: List[Tuple[FuncId, str, int]]) -> List[str]:
    lines = sum(count for _fid, _name, count in rows)
    out = [f"\n{title}: {len(rows)} functions, {lines} lines"]
    for (rel, first), name, count in sorted(rows):
        out.append(f"  {count:>5}  {rel}:{first}  {name}")
    return out


def report(table: Dict[FuncId, Tuple[str, int]], reach: Dict[str, Set[FuncId]]) -> str:
    """The three lists, for the drivers in ``reach``."""
    by: Dict[FuncId, List[str]] = {fid: [] for fid in table}
    for driver, reached in reach.items():
        for fid in reached:
            if fid in by:
                by[fid].append(driver)
    total = sum(count for _name, count in table.values())
    lines = [
        f"census: {len(table)} functions, {total} lines under src/repro; "
        f"drivers: {', '.join(reach)}"
    ]
    nothing = [(fid, *table[fid]) for fid, drivers in by.items() if not drivers]
    lines += _section("reached by nothing", nothing)
    if TESTS in reach:
        tests_only = [(fid, *table[fid]) for fid, d in by.items() if d == [TESTS]]
        lines += _section("reached by tests only", tests_only)
    for driver in reach:
        if driver == TESTS:
            continue
        only = [(fid, *table[fid]) for fid, d in by.items() if d == [driver]]
        lines += _section(f"reached by one driver only: {driver}", only)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--drivers", default=",".join(DRIVERS),
                        help="comma-separated subset of: " + ", ".join(DRIVERS))
    args = parser.parse_args(argv)
    drivers = [name for name in args.drivers.split(",") if name]
    unknown = sorted(set(drivers) - set(DRIVERS))
    if unknown:
        parser.error(f"unknown driver(s): {', '.join(unknown)}")
    table = function_table()
    reach: Dict[str, Set[FuncId]] = {}
    with tempfile.TemporaryDirectory(prefix="census-") as work:
        for name in drivers:
            print(f"census: running {name} ...", file=sys.stderr, flush=True)
            reach[name] = run_driver(name, work)
    print(report(table, reach))
    return 0


if __name__ == "__main__":
    sys.exit(main())
