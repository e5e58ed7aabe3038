"""Tests for ``scripts/census.py``, the settable-values ratchet."""

import textwrap

from scripts.census import census, main


def _write(root, relative: str, source: str) -> None:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


def test_counts_each_kind_of_settable_value(tmp_path):
    _write(tmp_path, "src/repro/cli.py", """
        import argparse
        import os

        def main(argv=None):
            parser = argparse.ArgumentParser()
            parser.add_argument("--size", default=1)
            parser.add_argument("--model")
            return os.environ.get("REPRO_JOBS"), os.environ["REPRO_JOBS"]
    """)
    _write(tmp_path, "src/repro/api/thing.py", """
        from dataclasses import dataclass, field

        @dataclass(frozen=True)
        class Config:
            name: str
            size: int = 1
            tags: list = field(default_factory=list)

        class Server:
            def __init__(self, path, workers=4, *, codec="json"):
                def helper(retries=3):  # nested: not API
                    pass

            def _private(self, flag=False):
                pass

        class _Hidden:
            def run(self, fast=True):
                pass

        def serve(stream=None):
            return "REPRO_TRACE_FILE"
    """)
    _write(tmp_path, "src/repro/obs/other.py", """
        def outside_the_scope(knob=1):
            parser.add_argument("--level")
    """)
    found = census(str(tmp_path))
    assert len(found["add_argument"]) == 3
    assert found["environment"] == ["REPRO_JOBS", "REPRO_TRACE_FILE"]
    assert sorted(name.split(":")[1] for name in found["parameters"]) == [
        "Config(size)", "Config(tags)", "Server.__init__(codec)",
        "Server.__init__(workers)", "main(argv)", "serve(stream)"]


def test_repo_is_within_its_ceiling(capsys):
    assert main() == 0
    assert "settable values:" in capsys.readouterr().out
