"""RPL005 — the binary codec must encode and decode the same language.

:mod:`repro.api.wire` defines frame-type constants (``FRAME_BATCH``,
...) and :class:`struct.Struct` layouts.  A frame type that is packed
by the encoder but never matched by any decoder branch is a frame the
peer cannot read; a struct used only on one side means the two sides
have diverged layouts waiting to disagree.  Byte order matters too: a
wire struct without an explicit ``<``/``>``/``!`` prefix inherits
native alignment and padding, which silently changes layout across
machines.

Per file that defines ``struct.Struct`` constants, the rule checks:

* every module-level ``FRAME_* = <int>`` constant appears both as a
  pack/encode argument and in a comparison (a decode dispatch branch);
* every ``Struct`` constant is used by both ``.pack`` and
  ``.unpack``/``.unpack_from`` — **unless** its format string (byte
  order stripped) contains or is contained by another struct's format
  in the same file.  That containment is real composition, not
  asymmetry: ``wire.py`` packs every frame header as one ``"<IB"``
  write (length + type) but the generic frame reader unpacks only the
  ``"<I"`` length, leaving the type byte with the payload;
* every ``Struct`` format pins an explicit byte order.
"""

from __future__ import annotations

import ast

from repro.analysis.rules.base import Rule, dotted_name, str_const

_BYTE_ORDER = ("<", ">", "!", "=")


def _struct_defs(tree: ast.Module) -> dict:
    """Module-level ``NAME = struct.Struct("fmt")`` -> (fmt, node)."""
    out: dict = {}
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = stmt.value
        if (
            isinstance(value, ast.Call)
            and dotted_name(value.func) in ("struct.Struct", "Struct")
            and value.args
            and str_const(value.args[0]) is not None
        ):
            out[target.id] = (str_const(value.args[0]), stmt)
    return out


def _frame_defs(tree: ast.Module) -> dict:
    """Module-level ``FRAME_* = <int>`` -> node."""
    out: dict = {}
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if (
            isinstance(target, ast.Name)
            and target.id.startswith("FRAME_")
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, int)
        ):
            out[target.id] = stmt
    return out


def _strip_order(fmt: str) -> str:
    return fmt[1:] if fmt and fmt[0] in _BYTE_ORDER else fmt


class _Usage:
    """Where each struct/frame constant is used within one file."""

    def __init__(self, tree, structs, frames) -> None:
        self.packs: set = set()  # struct names used via .pack
        self.unpacks: set = set()  # struct names used via .unpack*
        self.encoded: set = set()  # frame names passed to calls
        self.decoded: set = set()  # frame names used in comparisons
        self._structs = structs
        self._frames = frames
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                self._scan_call(node)
            elif isinstance(node, ast.Compare):
                self._scan_compare(node)

    def _scan_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner = func.value.id
            if owner in self._structs:
                if func.attr == "pack":
                    self.packs.add(owner)
                elif func.attr in ("unpack", "unpack_from"):
                    self.unpacks.add(owner)
        for arg in list(node.args) + [k.value for k in node.keywords]:
            for leaf in ast.walk(arg):
                if isinstance(leaf, ast.Name) and leaf.id in self._frames:
                    self.encoded.add(leaf.id)

    def _scan_compare(self, node: ast.Compare) -> None:
        for op in [node.left] + list(node.comparators):
            for leaf in ast.walk(op):
                if isinstance(leaf, ast.Name) and leaf.id in self._frames:
                    self.decoded.add(leaf.id)


class CodecSymmetry(Rule):
    code = "RPL005"
    name = "codec-symmetry"
    rationale = (
        "every FRAME_* constant needs both an encode use and a decode "
        "branch; every wire Struct needs pack+unpack (or a containing "
        "composition) and an explicit byte order"
    )

    def check(self, project):
        for source in project.files:
            structs = _struct_defs(source.tree)
            if not structs:
                continue
            frames = _frame_defs(source.tree)
            usage = _Usage(source.tree, structs, frames)
            yield from self._check_frames(source, frames, usage)
            yield from self._check_structs(source, structs, usage)

    def _check_frames(self, source, frames, usage):
        # comparisons count as encode uses too (`type_ == FRAME_X` also
        # appears where the encoder selects a type), so only require
        # presence on each side, not exclusivity
        for name in sorted(frames):
            node = frames[name]
            if name not in usage.encoded and name not in usage.decoded:
                yield self.finding(
                    source.path,
                    node,
                    f"frame type {name} is defined but never used by "
                    f"an encoder or decoder",
                )
            elif name not in usage.encoded:
                yield self.finding(
                    source.path,
                    node,
                    f"frame type {name} is matched by a decoder but "
                    f"never emitted by any encoder",
                )
            elif name not in usage.decoded:
                yield self.finding(
                    source.path,
                    node,
                    f"frame type {name} is emitted by an encoder but "
                    f"no decoder branch matches it; peers cannot read "
                    f"these frames",
                )

    def _check_structs(self, source, structs, usage):
        stripped = {name: _strip_order(fmt) for name, (fmt, _) in structs.items()}
        for name in sorted(structs):
            fmt, node = structs[name]
            if not fmt or fmt[0] not in _BYTE_ORDER[:3]:
                yield self.finding(
                    source.path,
                    node,
                    f"struct {name} format {fmt!r} does not pin an "
                    f"explicit byte order (<, > or !); native order "
                    f"and padding vary across machines",
                )
            packed = name in usage.packs
            unpacked = name in usage.unpacks
            if packed == unpacked:
                # used on both sides, or entirely unused (the frame
                # checks already cover unused constants' real damage)
                continue
            if self._composed(name, stripped):
                continue
            side, missing = ("packed", "unpack") if packed else ("unpacked", "pack")
            yield self.finding(
                source.path,
                node,
                f"struct {name} ({fmt!r}) is {side} but never "
                f"{missing}ed in this file, and no other struct's "
                f"format contains it; encoder and decoder layouts "
                f"can drift apart",
            )

    @staticmethod
    def _composed(name: str, stripped: dict) -> bool:
        """One-sided use is fine when the layout is (part of) another
        struct's layout — the other side handles it fused/split."""
        fmt = stripped[name]
        for other, other_fmt in stripped.items():
            if other == name:
                continue
            if fmt in other_fmt or other_fmt in fmt:
                return True
        return False
