"""Shared rule plumbing: the Rule interface and small AST helpers.

Every rule is a stateless object with a ``code`` (the ``RPLnnn`` id
findings and waivers use), a short ``name``, a one-line ``rationale``
(shown by ``repro lint --list-rules`` and the README catalog) and a
``check(project)`` generator yielding :class:`~repro.analysis.engine.
Finding` rows.  Rules are *cross-file*: they receive the whole parsed
:class:`~repro.analysis.engine.Project` because the properties they
guard (a verb handled here must be sent there) do not live in any
single module.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding


class Rule:
    """Base class for lint rules; subclasses set the class attributes."""

    code = ""
    name = ""
    rationale = ""

    def check(self, project):
        raise NotImplementedError

    def finding(self, path: str, node, message: str) -> Finding:
        line = getattr(node, "lineno", 0) if node is not None else 0
        return Finding(path=path, line=line, rule=self.code, message=message)


def dotted_name(node) -> str | None:
    """``"a.b.c"`` for a Name/Attribute chain, ``None`` otherwise."""
    parts: list = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def str_const(node) -> str | None:
    """The value of a string-literal node, ``None`` otherwise."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def methods_of(cls: ast.ClassDef) -> dict:
    """Top-level method name -> FunctionDef for one class body."""
    out: dict = {}
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = node
    return out


def module_functions(tree: ast.Module) -> dict:
    """Top-level function name -> FunctionDef for one module."""
    out: dict = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = node
    return out


_NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def walk_function_body(func, *, skip_nested: bool = True):
    """Yield the nodes of *func*'s body.

    With *skip_nested* (the default) nested function and lambda bodies
    are not descended into: a nested ``def`` is almost always a
    callback handed to another thread (a worker pool, a scheduler), so
    its body does not execute on the enclosing function's thread.
    """
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if skip_nested and isinstance(node, _NESTED):
            continue
        stack.extend(ast.iter_child_nodes(node))
