"""The rule engine behind ``repro lint``.

The engine owns everything that is not rule logic: discovering and
parsing the target files once (every rule shares the same ASTs),
running the selected rules, applying ``# repro: noqa[...]`` waivers,
rendering human and JSON reports, and turning findings into an exit
code.  Rules (see :mod:`repro.analysis.rules`) receive a parsed
:class:`Project` and yield :class:`Finding` rows — they never touch the
filesystem themselves, which keeps them trivially testable on fixture
files.

Waivers are per line: a finding on a line whose source carries
``# repro: noqa[RPL003]`` (several codes comma-separated, or a bare
``# repro: noqa`` for all rules) is reported as *waived* and does not
fail the gate.  Waivers are deliberate exceptions, so they stay in the
report output instead of disappearing.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import sys
from dataclasses import dataclass, field

from repro.errors import AnalysisError

#: JSON report schema version (bumped on incompatible layout changes).
REPORT_VERSION = 1

#: matches one waiver comment; group 1 is the optional rule list.
_NOQA = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?")

#: the waiver value meaning "every rule on this line".
WAIVE_ALL = "*"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a source line."""

    path: str
    line: int
    rule: str
    message: str
    waived: bool = field(default=False, compare=False)

    def render(self) -> str:
        suffix = "  (waived)" if self.waived else ""
        return f"{self.path}:{self.line}: {self.rule} {self.message}{suffix}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "waived": self.waived,
        }


class SourceFile:
    """One parsed target file: source text, AST and waiver map."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        try:
            self.tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            raise AnalysisError(
                f"cannot parse {path!r}: {exc.msg} (line {exc.lineno})"
            )
        self.waivers = parse_waivers(text)

    def waives(self, rule: str, line: int) -> bool:
        codes = self.waivers.get(line)
        return codes is not None and (WAIVE_ALL in codes or rule in codes)


def parse_waivers(text: str) -> dict:
    """Map line number -> waived rule codes (or :data:`WAIVE_ALL`)."""
    waivers: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _NOQA.search(line)
        if match is None:
            continue
        listed = match.group(1)
        if listed is None:
            waivers[lineno] = {WAIVE_ALL}
        else:
            codes = {code.strip().upper() for code in listed.split(",")}
            waivers[lineno] = {code for code in codes if code}
    return waivers


class Project:
    """The parsed file set one lint run analyzes.

    Rules are cross-file by design (a verb handled in one module must
    be sent from another), so they get the whole project, not one file
    at a time.  Paths are stored relative to *root* when given, so
    reports are stable across checkouts.
    """

    def __init__(self, files: list) -> None:
        self.files = list(files)

    @classmethod
    def load(cls, paths, root: str | None = None) -> "Project":
        filenames = collect_files(paths)
        if root is None:
            root = os.getcwd()
        files = []
        for filename in filenames:
            with open(filename, "r", encoding="utf-8") as handle:
                text = handle.read()
            rel = os.path.relpath(filename, root)
            # keep paths inside the tree relative (stable reports);
            # anything outside stays absolute rather than ../../-mangled
            shown = filename if rel.startswith(os.pardir) else rel
            files.append(SourceFile(shown, text))
        return cls(files)

    def file(self, path: str) -> SourceFile | None:
        for source in self.files:
            if source.path == path:
                return source
        return None

    def waives(self, finding: Finding) -> bool:
        source = self.file(finding.path)
        return source is not None and source.waives(finding.rule, finding.line)


def collect_files(paths) -> list:
    """Every ``.py`` file under *paths* (files kept, dirs walked)."""
    out: list = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        if not os.path.isdir(path):
            raise AnalysisError(f"no such file or directory: {path!r}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    out.append(os.path.join(dirpath, filename))
    return out


def default_paths() -> list:
    """What ``repro lint`` scans when no paths are given: the repro
    package source itself (the distributed tree the rules target)."""
    import repro

    return [os.path.dirname(os.path.abspath(repro.__file__))]


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: list
    rules: list
    files_scanned: int

    @property
    def unwaived(self) -> list:
        return [f for f in self.findings if not f.waived]

    @property
    def waived(self) -> list:
        return [f for f in self.findings if f.waived]

    @property
    def exit_code(self) -> int:
        return 1 if self.unwaived else 0

    def to_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "tool": "repro-lint",
            "rules": list(self.rules),
            "files_scanned": self.files_scanned,
            "findings": [f.to_dict() for f in self.findings],
            "summary": {
                "total": len(self.findings),
                "waived": len(self.waived),
                "unwaived": len(self.unwaived),
            },
        }

    def render_text(self, show_waived: bool = False) -> str:
        lines = []
        for finding in self.findings:
            if finding.waived and not show_waived:
                continue
            lines.append(finding.render())
        n_unwaived = len(self.unwaived)
        n_waived = len(self.waived)
        summary = (
            f"repro lint: {self.files_scanned} file(s), "
            f"{len(self.rules)} rule(s), {n_unwaived} finding(s)"
        )
        if n_waived:
            summary += f" + {n_waived} waived"
        lines.append(summary)
        return "\n".join(lines)


def run_lint(
    paths=None,
    select=None,
    root: str | None = None,
) -> LintReport:
    """Run the rule battery over *paths* and return the report.

    *select* limits the run to the named rule codes.  Unknown codes raise
    :class:`repro.errors.AnalysisError` — a gate that silently skips a
    misspelled rule is worse than no gate.
    """
    from repro.analysis.rules import RULES, get_rule

    if paths is None:
        paths = default_paths()
    if select is None:
        chosen = list(RULES.values())
    else:
        codes = select.split(",") if isinstance(select, str) else select
        chosen = [get_rule(code) for code in codes if code.strip()]
    project = Project.load(paths, root=root)
    findings: list = []
    for rule in chosen:
        for finding in rule.check(project):
            if project.waives(finding):
                finding = Finding(
                    path=finding.path,
                    line=finding.line,
                    rule=finding.rule,
                    message=finding.message,
                    waived=True,
                )
            findings.append(finding)
    findings.sort()
    return LintReport(
        findings=findings,
        rules=[rule.code for rule in chosen],
        files_scanned=len(project.files),
    )


def main(argv=None) -> int:
    """The ``repro lint`` / ``python -m repro.analysis`` entry point."""
    from repro.analysis.rules import RULES

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="protocol- and concurrency-aware static analysis "
        "for the repro codebase (see repro.analysis)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: the repro "
        "package source)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULE[,RULE...]",
        help="run only these rule codes",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--show-waived",
        action="store_true",
        help="include waived findings in text output (JSON always "
        "carries them)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(RULES):
            rule = RULES[code]
            print(f"{code}  {rule.name}: {rule.rationale}")
        return 0

    try:
        report = run_lint(
            paths=args.paths or None,
            select=args.select,
        )
    except AnalysisError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text(show_waived=args.show_waived))
    return report.exit_code
