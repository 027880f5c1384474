#!/usr/bin/env python
"""Generate docs/API.md from the library's public surface.

Walks every ``repro`` subpackage, collects the public classes and
functions (honoring ``__all__`` where defined), and emits a markdown
reference with each item's signature and first docstring paragraph.

Run:  python tools/gen_api_docs.py [--output PATH]

The output is a pure function of the source tree: two runs under
different ``PYTHONHASHSEED`` values are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import os
import pkgutil
import sys
from typing import List


OUTPUT = os.path.join(os.path.dirname(__file__), "..", "docs", "API.md")

#: Subpackages in presentation order (dependency order, roughly).
PACKAGES = [
    "repro.sim",
    "repro.packet",
    "repro.pisa",
    "repro.tm",
    "repro.arch",
    "repro.obs",
    "repro.state",
    "repro.net",
    "repro.control",
    "repro.workloads",
    "repro.apps",
    "repro.faults",
    "repro.lang",
    "repro.resources",
    "repro.experiments",
    "repro.scenarios",
    "repro.serve",
    "repro.search",
]


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    paragraph = doc.split("\n\n")[0].replace("\n", " ").strip()
    return paragraph


def stable_repr(value) -> str:
    """``repr`` with set members sorted, so it ignores the hash seed."""
    if isinstance(value, (set, frozenset)) and value:
        body = "{" + ", ".join(sorted(stable_repr(v) for v in value)) + "}"
        return body if type(value) is set else f"{type(value).__name__}({body})"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = ", ".join(
            f"{field.name}={stable_repr(getattr(value, field.name))}"
            for field in dataclasses.fields(value)
            if field.repr
        )
        return f"{type(value).__qualname__}({body})"
    return repr(value)


class _Literal:
    """Stands in for a default value whose repr is already computed."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return self.text


def item_signature(obj) -> str:
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return "(…)"
    parameters = [
        param
        if param.default is param.empty
        else param.replace(default=_Literal(stable_repr(param.default)))
        for param in signature.parameters.values()
    ]
    return str(signature.replace(parameters=parameters))


def public_items(module) -> List[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            name
            for name, value in vars(module).items()
            if not name.startswith("_")
            and getattr(value, "__module__", "").startswith("repro")
        ]
    return list(names)


def class_methods(cls) -> dict:
    """``vars(cls)`` plus what it inherits from private ``repro`` bases.

    A private base is not documented on its own, so the public methods
    it defines are listed on each public class built from it.
    """
    methods: dict = {}
    for base in reversed(cls.__mro__):
        if base is cls or (
            base.__name__.startswith("_")
            and getattr(base, "__module__", "").startswith("repro")
        ):
            methods.update(vars(base))
    return methods


def collect_modules(package_name: str) -> List[str]:
    package = importlib.import_module(package_name)
    modules = [package_name]
    path = getattr(package, "__path__", None)
    if path:
        for info in pkgutil.iter_modules(path):
            if info.name.startswith("_"):
                continue
            modules.append(f"{package_name}.{info.name}")
            if info.ispkg:
                modules.extend(collect_modules(f"{package_name}.{info.name}")[1:])
    return modules


def render_module(module_name: str) -> List[str]:
    module = importlib.import_module(module_name)
    lines: List[str] = []
    doc = first_paragraph(module)
    items = []
    for name in public_items(module):
        value = getattr(module, name, None)
        if value is None:
            continue
        if inspect.isclass(value) or inspect.isfunction(value):
            if getattr(value, "__module__", "") != module_name:
                continue  # re-exports documented at their home module
            kind = "class" if inspect.isclass(value) else "def"
            items.append((kind, name, value))
    if not items and module_name.count(".") >= 1 and not doc:
        return lines
    lines.append(f"### `{module_name}`")
    if doc:
        lines.append("")
        lines.append(doc)
    for kind, name, value in items:
        lines.append("")
        lines.append(f"- **`{kind} {name}{item_signature(value)}`** — "
                     f"{first_paragraph(value) or '(undocumented)'}")
        if inspect.isclass(value):
            for method_name, method in sorted(class_methods(value).items()):
                if method_name.startswith("_") or not inspect.isfunction(method):
                    continue
                summary = first_paragraph(method)
                if summary:
                    lines.append(
                        f"  - `.{method_name}{item_signature(method)}` — {summary}"
                    )
    lines.append("")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=OUTPUT, help="file to write (default: docs/API.md)"
    )
    output = parser.parse_args().output
    lines = [
        "# API Reference",
        "",
        "_Generated by `python tools/gen_api_docs.py`; do not edit by hand._",
        "",
        "Guides: [TUTORIAL.md](TUTORIAL.md) · [STATE.md](STATE.md)"
        " (StateStore, checkpoint/restore) ·"
        " [PERFORMANCE.md](PERFORMANCE.md)"
        " (flow cache, [compiled pipelines](PERFORMANCE.md#compiled-pipelines)) ·"
        " [OBSERVABILITY.md](OBSERVABILITY.md) · [LANGUAGE.md](LANGUAGE.md)",
        "",
    ]
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        lines.append(f"## `{package_name}`")
        lines.append("")
        summary = first_paragraph(package)
        if summary:
            lines.append(summary)
            lines.append("")
        for module_name in collect_modules(package_name)[1:]:
            lines.extend(render_module(module_name))
    os.makedirs(os.path.dirname(os.path.abspath(output)), exist_ok=True)
    with open(output, "w") as handle:
        handle.write("\n".join(lines).rstrip() + "\n")
    print(f"wrote {os.path.abspath(output)} ({len(lines)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
