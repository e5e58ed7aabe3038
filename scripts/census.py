"""Ratchet on the number of settable values.

Counts the values a user of ``repro`` can set:

* every ``add_argument`` call under ``src/repro``;
* every distinct ``REPRO_*`` environment variable named in
  ``src/repro`` (a string constant such as ``"REPRO_JOBS"``);
* every parameter with a default of a public function or method, and
  every defaulted field of a public dataclass, in ``src/repro/api``
  and ``src/repro/cli.py``.

Exits 1 when the total exceeds the ceiling in ``scripts/census.json``,
so an option cannot come back unnoticed.  After a change that removes
options, lower the ceiling to the new total.

Run from the repo root::

    python scripts/census.py
"""

from __future__ import annotations

import ast
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CEILING_PATH = os.path.join(ROOT, "scripts", "census.json")
ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _sources(path: str):
    if os.path.isfile(path):
        yield path
        return
    for folder, _, names in os.walk(path):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = getattr(target, "id", getattr(target, "attr", None))
        if name == "dataclass":
            return True
    return False


def _defaulted_parameters(body) -> list:
    """``name(param)`` for every defaulted parameter of the public
    functions and dataclass fields in *body*, recursing into public
    classes only (nested functions are not API)."""
    found = []
    for node in body:
        if isinstance(node, ast.ClassDef) and _public(node.name):
            if _is_dataclass(node):
                found += [
                    f"{node.name}({item.target.id})"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and item.value is not None
                ]
            found += [
                f"{node.name}.{name}"
                for name in _defaulted_parameters(node.body)
            ]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _public(node.name):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            found += [f"{node.name}({arg.arg})" for arg in defaulted]
    return found


def census(root: str = ROOT) -> dict:
    """The settable values under *root*, by kind."""
    package = os.path.join(root, "src", "repro")
    arguments, variables = [], set()
    for path in _sources(package):
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                arguments.append(f"{os.path.relpath(path, root)}:{node.lineno}")
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and ENV_NAME.fullmatch(node.value)):
                variables.add(node.value)
    parameters = []
    for scope in (os.path.join(package, "api"), os.path.join(package, "cli.py")):
        for path in _sources(scope):
            where = os.path.relpath(path, root)
            parameters += [f"{where}:{name}"
                           for name in _defaulted_parameters(_parse(path).body)]
    return {"add_argument": arguments, "environment": sorted(variables),
            "parameters": parameters}


def main() -> int:
    found = census()
    total = sum(len(values) for values in found.values())
    with open(CEILING_PATH, encoding="utf-8") as handle:
        ceiling = json.load(handle)["ceiling"]
    for kind, values in found.items():
        print(f"{kind}: {len(values)}")
    print(f"settable values: {total} (ceiling {ceiling})")
    if total > ceiling:
        print("more settable values than the ceiling in scripts/census.json: "
              "remove an option, or justify the new one and raise the "
              "ceiling", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
