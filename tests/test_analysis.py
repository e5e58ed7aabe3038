"""Tests for :mod:`repro.analysis` — the ``repro lint`` rule engine.

Every rule gets a firing + clean fixture pair (tiny source files
written to ``tmp_path``), the engine gets waiver-parsing, JSON-schema
and exit-code coverage, and the acceptance drill from the issue runs
against the *real* sources: inject a new verb into a copy of
``transport.py`` with no client method and RPL001 must catch it.
"""

import json
import os
import textwrap

import pytest

from repro.analysis import RULES, get_rule, run_lint
from repro.analysis.engine import (
    REPORT_VERSION,
    WAIVE_ALL,
    default_paths,
    main as lint_main,
    parse_waivers,
)
from repro.errors import AnalysisError

import repro.api as _api_pkg

API_DIR = os.path.dirname(os.path.abspath(_api_pkg.__file__))


def dedent_map(sources: dict) -> dict:
    """Dedent fixture sources up front so tests can string-surgery
    them (append/replace) without breaking indentation."""
    return {name: textwrap.dedent(text) for name, text in sources.items()}


def lint_sources(tmp_path, sources: dict, **kwargs):
    """Write *sources* (name -> code) to tmp_path and lint them."""
    for name, text in sources.items():
        (tmp_path / name).write_text(text)
    return run_lint([str(tmp_path)], root=str(tmp_path), **kwargs)


def codes(report) -> list:
    return [finding.rule for finding in report.unwaived]


# ---------------------------------------------------------------- RPL001

VERBS_CLEAN = dedent_map({
    "server.py": """
        ERROR_BAD_REQUEST = "bad_request"
        ERROR_CODES = (ERROR_BAD_REQUEST,)

        def handle(request):
            cmd = request.get("cmd")
            if cmd == "stats":
                return {"ok": True}
            return error_frame(ERROR_BAD_REQUEST, "no such verb")
    """,
    "client.py": """
        def stats(self):
            return self.request({"cmd": "stats"})
    """,
})


class TestProtocolConsistency:
    def test_clean_pair(self, tmp_path):
        report = lint_sources(tmp_path, VERBS_CLEAN, select="RPL001")
        assert report.findings == []

    def test_handled_verb_without_sender_fires(self, tmp_path):
        sources = dict(VERBS_CLEAN)
        sources["server.py"] = sources["server.py"].replace(
            'if cmd == "stats":',
            'if cmd in ("stats", "teleport"):',
        )
        report = lint_sources(tmp_path, sources, select="RPL001")
        assert codes(report) == ["RPL001"]
        assert "'teleport'" in report.findings[0].message
        assert "handled" in report.findings[0].message

    def test_sent_verb_without_handler_fires(self, tmp_path):
        sources = dict(VERBS_CLEAN)
        sources["client.py"] += textwrap.dedent("""
            def teleport(self):
                return self.request({"cmd": "teleport"})
        """)
        report = lint_sources(tmp_path, sources, select="RPL001")
        assert codes(report) == ["RPL001"]
        assert "'teleport'" in report.findings[0].message
        assert "sent" in report.findings[0].message

    def test_unregistered_error_code_literal_fires(self, tmp_path):
        sources = dict(VERBS_CLEAN)
        sources["server.py"] = sources["server.py"].replace(
            'error_frame(ERROR_BAD_REQUEST, "no such verb")',
            'error_frame("wat", "no such verb")',
        )
        report = lint_sources(tmp_path, sources, select="RPL001")
        assert any("'wat'" in f.message for f in report.findings)

    def test_dead_error_code_fires(self, tmp_path):
        sources = dict(VERBS_CLEAN)
        sources["server.py"] = sources["server.py"].replace(
            'ERROR_CODES = (ERROR_BAD_REQUEST,)',
            'ERROR_UNUSED = "unused"\n'
            'ERROR_CODES = (ERROR_BAD_REQUEST, ERROR_UNUSED)',
        )
        report = lint_sources(tmp_path, sources, select="RPL001")
        assert any("ERROR_UNUSED" in f.message and "never emitted"
                   in f.message for f in report.findings)

    def test_constant_missing_from_error_codes_tuple_fires(
            self, tmp_path):
        sources = dict(VERBS_CLEAN)
        sources["server.py"] = sources["server.py"].replace(
            'ERROR_CODES = (ERROR_BAD_REQUEST,)',
            'ERROR_LOST = "lost"\n'
            'ERROR_CODES = (ERROR_BAD_REQUEST,)',
        ).replace(
            'return error_frame(ERROR_BAD_REQUEST, "no such verb")',
            'if cmd == "x":\n'
            '        return error_frame(ERROR_LOST, "gone")\n'
            '    return error_frame(ERROR_BAD_REQUEST, "no such verb")',
        )
        sources["client.py"] += textwrap.dedent("""
            def x(self):
                return self.request({"cmd": "x"})
        """)
        report = lint_sources(tmp_path, sources, select="RPL001")
        assert codes(report) == ["RPL001"]
        assert "missing from ERROR_CODES" in report.findings[0].message

    API_NAMES = ("transport.py", "client.py", "admin.py", "wire.py",
                 "protocol.py", os.path.join("fleet", "router.py"))

    def _copy_api_sources(self, tmp_path, names=API_NAMES) -> None:
        for name in names:
            with open(os.path.join(API_DIR, name), encoding="utf-8") as f:
                (tmp_path / os.path.basename(name)).write_text(f.read())

    def test_real_sources_with_injected_verb_are_caught(self, tmp_path):
        """The acceptance drill: new verb in the engine, no client
        method -> RPL001 reports the drift."""
        self._copy_api_sources(tmp_path)
        baseline = run_lint([str(tmp_path)], select="RPL001",
                            root=str(tmp_path))
        assert baseline.findings == []
        drifted = (tmp_path / "transport.py").read_text() + textwrap.dedent(
            """

            def _handle_teleport(request):
                if request.get("cmd") == "teleport":
                    return {"ok": True, "teleported": True}
                return None
            """
        )
        (tmp_path / "transport.py").write_text(drifted)
        report = run_lint([str(tmp_path)], select="RPL001",
                          root=str(tmp_path))
        assert codes(report) == ["RPL001"]
        assert "'teleport'" in report.findings[0].message
        assert report.exit_code == 1

    def test_fleet_ops_verbs_balance_without_waivers(self, tmp_path):
        """The fleet-ops verbs (drain/health/promote plus the model
        management ones) are covered by the handled-vs-sent inventory:
        clean over the real sources with zero waivers, and dropping
        the AdminClient module (the only sender) makes every one of
        them fire."""
        self._copy_api_sources(tmp_path)
        report = run_lint([str(tmp_path)], select="RPL001",
                          root=str(tmp_path))
        assert report.findings == []  # nothing waived, nothing fired

        for name in self.API_NAMES:
            if os.path.basename(name) != "admin.py":
                (tmp_path / "noadmin" / os.path.basename(name)).parent \
                    .mkdir(exist_ok=True)
                with open(os.path.join(API_DIR, name),
                          encoding="utf-8") as f:
                    (tmp_path / "noadmin" / os.path.basename(name)) \
                        .write_text(f.read())
        report = run_lint([str(tmp_path / "noadmin")], select="RPL001",
                          root=str(tmp_path / "noadmin"))
        orphaned = {f.message.split("'")[1] for f in report.findings
                    if "is handled here" in f.message}
        assert {"drain", "health", "promote", "stats", "list_models",
                "load_model", "evict_model"} <= orphaned


# ---------------------------------------------------------------- RPL002

LOOP_FIRING = dedent_map({
    "loop.py": """
        import selectors
        import time

        class Server:
            def _run(self):
                sel = selectors.DefaultSelector()
                while True:
                    self._tick()

            def _tick(self):
                time.sleep(0.1)
    """
})

LOOP_CLEAN = dedent_map({
    "loop.py": """
        import selectors
        import time

        class Server:
            def _run(self):
                sel = selectors.DefaultSelector()
                while True:
                    self._submit()

            def _submit(self):
                def work():
                    time.sleep(0.1)  # runs on the worker pool
                self._pool.submit(work)

            def helper(self):
                # not reachable from _run: allowed to block
                time.sleep(1.0)
    """
})


class TestEventLoopBlocking:
    def test_blocking_call_via_helper_fires(self, tmp_path):
        report = lint_sources(tmp_path, LOOP_FIRING, select="RPL002")
        assert codes(report) == ["RPL002"]
        message = report.findings[0].message
        assert "time.sleep" in message
        assert "Server._run -> _tick" in message

    def test_nested_callback_and_unreachable_helper_are_clean(
            self, tmp_path):
        report = lint_sources(tmp_path, LOOP_CLEAN, select="RPL002")
        assert report.findings == []

    def test_scheduler_thread_class_detected(self, tmp_path):
        sources = dedent_map({
            "batcher.py": """
                import threading

                class Batcher:
                    def start(self):
                        self._thread = threading.Thread(
                            target=self._run, daemon=True)
                        self._thread.start()

                    def _run(self):
                        while True:
                            item = self._queue.get()
                            self._flush(item)

                    def _flush(self, item):
                        with open("/tmp/log", "a") as fh:
                            fh.write(str(item))
            """
        })
        report = lint_sources(tmp_path, sources, select="RPL002")
        assert codes(report) == ["RPL002"]
        assert "open()" in report.findings[0].message
        # queue.get on the scheduler thread is its job, not a finding
        assert all("get" not in f.message.split("(")[0]
                   for f in report.findings)

    def test_thread_join_on_loop_path_fires(self, tmp_path):
        sources = dedent_map({
            "loop.py": """
                import selectors

                class Server:
                    def _run(self):
                        sel = selectors.DefaultSelector()
                        self._writer_thread.join()
            """
        })
        report = lint_sources(tmp_path, sources, select="RPL002")
        assert codes(report) == ["RPL002"]
        assert "join()" in report.findings[0].message


    def test_real_daemon_loop_is_inside_rule_coverage(self, tmp_path):
        """The socket server's loop is ``ScoringDaemon._run``: the real
        source is clean, and a sleep injected into the routing step it
        reaches fires."""
        with open(os.path.join(API_DIR, "daemon.py"), encoding="utf-8") as f:
            source = f.read()
        (tmp_path / "clean").mkdir()
        (tmp_path / "mutated").mkdir()
        report = lint_sources(tmp_path / "clean", {"daemon.py": source},
                              select="RPL002")
        assert report.findings == []
        anchor = "    def _route(self, conn, raw: bytes, blocks) -> None:\n"
        assert source.count(anchor) == 1
        mutated = source.replace(anchor, anchor + "        time.sleep(0)\n")
        report = lint_sources(tmp_path / "mutated", {"daemon.py": mutated},
                              select="RPL002")
        assert codes(report) == ["RPL002"]
        assert ("ScoringDaemon._run -> _dispatch -> _read -> _route()"
                in report.findings[0].message)


# ---------------------------------------------------------------- RPL003

LOCKS_FIRING = dedent_map({
    "counter.py": """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0

            def bump(self):
                with self._lock:
                    self._count += 1

            def reset(self):
                self._count = 0  # bare write: races with bump()
    """
})

LOCKS_CLEAN = dedent_map({
    "counter.py": """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0
                self._reset_locked()

            def bump(self):
                with self._lock:
                    self._count += 1

            def reset(self):
                with self._lock:
                    self._reset_locked()

            def _reset_locked(self):
                # every call site holds the lock (or is __init__)
                self._count = 0
    """
})


class TestLockDiscipline:
    def test_bare_write_fires(self, tmp_path):
        report = lint_sources(tmp_path, LOCKS_FIRING, select="RPL003")
        assert codes(report) == ["RPL003"]
        message = report.findings[0].message
        assert "self._count" in message
        assert "reset()" in message

    def test_lock_held_callee_fixpoint_is_clean(self, tmp_path):
        report = lint_sources(tmp_path, LOCKS_CLEAN, select="RPL003")
        assert report.findings == []

    def test_unguarded_class_is_ignored(self, tmp_path):
        sources = dedent_map({
            "plain.py": """
                class Plain:
                    def set(self, value):
                        self.value = value

                    def clear(self):
                        self.value = None
            """
        })
        report = lint_sources(tmp_path, sources, select="RPL003")
        assert report.findings == []


# ---------------------------------------------------------------- RPL004

FORK_FIRING = dedent_map({
    "manager.py": """
        import multiprocessing

        class Manager:
            def start(self):
                proc = multiprocessing.Process(
                    target=_child_main,
                    args=(self._listener_sock, self.endpoint))
                proc.start()
    """
})

FORK_CLEAN = dedent_map({
    "manager.py": """
        import multiprocessing

        class Manager:
            def start(self):
                ready = multiprocessing.Event()
                proc = multiprocessing.Process(
                    target=_child_main,
                    args=(self.factory, self.endpoint, 3, ready))
                proc.start()
    """
})


class TestForkSafety:
    def test_socket_in_args_fires(self, tmp_path):
        report = lint_sources(tmp_path, FORK_FIRING, select="RPL004")
        assert codes(report) == ["RPL004"]
        assert "_listener_sock" in report.findings[0].message

    def test_plain_data_args_are_clean(self, tmp_path):
        report = lint_sources(tmp_path, FORK_CLEAN, select="RPL004")
        assert report.findings == []

    def test_ready_event_is_not_a_hazard(self, tmp_path):
        # the whole point of a ready Event is to cross the fork
        sources = dedent_map({
            "manager.py": """
                import multiprocessing as mp

                def start(factory):
                    ready_event = mp.Event()
                    mp.Process(target=run, args=(factory, ready_event))
            """
        })
        report = lint_sources(tmp_path, sources, select="RPL004")
        assert report.findings == []


# ---------------------------------------------------------------- RPL005

CODEC_FIRING = dedent_map({
    "wire.py": """
        import struct

        FRAME_JSON = 0
        FRAME_GHOST = 7

        HEADER = struct.Struct("<IB")
        ORPHAN = struct.Struct("<qqq")

        def encode(payload):
            return HEADER.pack(len(payload), FRAME_JSON) + payload

        def encode_ghost(payload):
            return HEADER.pack(len(payload), FRAME_GHOST) + payload

        def encode_orphan(a, b, c):
            return ORPHAN.pack(a, b, c)

        def decode(buf):
            length, type_ = HEADER.unpack(buf[:5])
            if type_ == FRAME_JSON:
                return buf[5:5 + length]
            raise ValueError(type_)
    """
})

CODEC_CLEAN = dedent_map({
    "wire.py": """
        import struct

        FRAME_JSON = 0
        FRAME_ROW = 1

        HEADER = struct.Struct("<IB")
        # packed fused with the header by the encoder, decoded alone
        # once the generic reader has consumed the header
        ROW_FULL = struct.Struct("<IBqi")
        ROW_BODY = struct.Struct("<qi")

        def encode(payload):
            return HEADER.pack(len(payload), FRAME_JSON) + payload

        def encode_row(request_id, label):
            return ROW_FULL.pack(12, FRAME_ROW, request_id, label)

        def decode(buf):
            length, type_ = HEADER.unpack(buf[:5])
            if type_ == FRAME_JSON:
                return buf[5:5 + length]
            if type_ == FRAME_ROW:
                return ROW_BODY.unpack(buf[5:17])
            raise ValueError(type_)
    """
})


class TestCodecSymmetry:
    def test_undedcoded_frame_and_one_sided_struct_fire(self, tmp_path):
        report = lint_sources(tmp_path, CODEC_FIRING, select="RPL005")
        messages = [f.message for f in report.findings]
        assert codes(report) == ["RPL005", "RPL005"]
        assert any("FRAME_GHOST" in m and "no decoder branch" in m
                   for m in messages)
        assert any("ORPHAN" in m and "never unpacked" in m
                   for m in messages)

    def test_composed_structs_are_clean(self, tmp_path):
        report = lint_sources(tmp_path, CODEC_CLEAN, select="RPL005")
        assert report.findings == []

    def test_native_byte_order_fires(self, tmp_path):
        sources = dict(CODEC_CLEAN)
        sources["wire.py"] = sources["wire.py"].replace(
            'struct.Struct("<IB")', 'struct.Struct("IB")')
        report = lint_sources(tmp_path, sources, select="RPL005")
        assert codes(report) == ["RPL005"]
        assert "byte order" in report.findings[0].message

    def test_real_wire_module_is_clean(self, tmp_path):
        with open(os.path.join(API_DIR, "wire.py"),
                  encoding="utf-8") as f:
            (tmp_path / "wire.py").write_text(f.read())
        report = run_lint([str(tmp_path)], select="RPL005",
                          root=str(tmp_path))
        assert report.findings == []

    def test_stream_frame_pair_is_inside_rule_coverage(self, tmp_path):
        """Deleting binary-v2's decoder branch must fire RPL005 — the
        new stream FRAME_* constants are tracked by the rule, not
        silently skipped (so the clean run above means something)."""
        with open(os.path.join(API_DIR, "wire.py"),
                  encoding="utf-8") as f:
            source = f.read()
        mutated = source.replace(
            "if raw[0] != FRAME_PREDICTIONS_STREAM:",
            "if raw[0] != 0x83:")
        assert mutated != source
        (tmp_path / "wire.py").write_text(mutated)
        report = run_lint([str(tmp_path)], select="RPL005",
                          root=str(tmp_path))
        assert any("FRAME_PREDICTIONS_STREAM" in f.message
                   for f in report.findings)


# --------------------------------------------------------------- waivers


class TestWaivers:
    def test_parse_variants(self):
        text = "\n".join([
            "x = 1  # repro: noqa",
            "y = 2  # repro: noqa[RPL001]",
            "z = 3  # repro: noqa[RPL001, rpl003]",
            "w = 4  # unrelated comment",
        ])
        waivers = parse_waivers(text)
        assert waivers[1] == {WAIVE_ALL}
        assert waivers[2] == {"RPL001"}
        assert waivers[3] == {"RPL001", "RPL003"}
        assert 4 not in waivers

    def test_waived_finding_does_not_fail_the_gate(self, tmp_path):
        sources = dict(LOCKS_FIRING)
        sources["counter.py"] = sources["counter.py"].replace(
            "self._count = 0  # bare write: races with bump()",
            "self._count = 0  # repro: noqa[RPL003]",
        )
        report = lint_sources(tmp_path, sources, select="RPL003")
        assert report.unwaived == []
        assert len(report.waived) == 1
        assert report.waived[0].waived is True
        assert report.exit_code == 0

    def test_waiver_for_other_rule_does_not_apply(self, tmp_path):
        sources = dict(LOCKS_FIRING)
        sources["counter.py"] = sources["counter.py"].replace(
            "self._count = 0  # bare write: races with bump()",
            "self._count = 0  # repro: noqa[RPL001]",
        )
        report = lint_sources(tmp_path, sources, select="RPL003")
        assert codes(report) == ["RPL003"]
        assert report.exit_code == 1

    def test_bare_noqa_waives_everything(self, tmp_path):
        sources = dict(LOCKS_FIRING)
        sources["counter.py"] = sources["counter.py"].replace(
            "self._count = 0  # bare write: races with bump()",
            "self._count = 0  # repro: noqa",
        )
        report = lint_sources(tmp_path, sources, select="RPL003")
        assert report.unwaived == []


# ---------------------------------------------------------------- engine


class TestEngine:
    def test_rule_catalog(self):
        assert sorted(RULES) == [
            "RPL001", "RPL002", "RPL003", "RPL004", "RPL005"]
        for code, rule in RULES.items():
            assert rule.code == code
            assert rule.name and rule.rationale
        assert get_rule("rpl003") is RULES["RPL003"]
        with pytest.raises(AnalysisError, match="unknown rule"):
            get_rule("RPL999")

    def test_select_narrows_the_rules(self, tmp_path):
        report = lint_sources(tmp_path, LOCKS_FIRING,
                              select="rpl003, RPL002")
        assert report.rules == ["RPL003", "RPL002"]
        with pytest.raises(AnalysisError, match="unknown rule"):
            lint_sources(tmp_path, LOCKS_FIRING, select="RPL942")

    def test_syntax_error_is_analysis_error(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        with pytest.raises(AnalysisError, match="cannot parse"):
            run_lint([str(tmp_path)], root=str(tmp_path))

    def test_missing_path_is_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError, match="no such file"):
            run_lint([str(tmp_path / "nope")], root=str(tmp_path))

    def test_json_schema(self, tmp_path):
        report = lint_sources(tmp_path, LOCKS_FIRING, select="RPL003")
        doc = report.to_dict()
        assert doc["version"] == REPORT_VERSION
        assert doc["tool"] == "repro-lint"
        assert doc["rules"] == ["RPL003"]
        assert doc["files_scanned"] == 1
        assert doc["summary"] == {
            "total": 1, "waived": 0, "unwaived": 1}
        (finding,) = doc["findings"]
        assert set(finding) == {
            "rule", "path", "line", "message", "waived"}
        assert finding["rule"] == "RPL003"
        assert finding["path"] == "counter.py"
        assert isinstance(finding["line"], int) and finding["line"] > 0
        json.dumps(doc)  # must be serializable as-is

    def test_default_paths_is_the_package_source(self):
        import repro

        assert default_paths() == [os.path.dirname(repro.__file__)]

    def test_findings_sorted_by_location(self, tmp_path):
        sources = {**LOCKS_FIRING, **CODEC_FIRING}
        report = lint_sources(tmp_path, sources)
        locations = [(f.path, f.line) for f in report.findings]
        assert locations == sorted(locations)


class TestMain:
    def test_exit_zero_and_text_output(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        (tmp_path / "counter.py").write_text(
            textwrap.dedent(LOCKS_FIRING["counter.py"]))
        assert lint_main([str(tmp_path), "--select", "RPL003"]) == 1
        out = capsys.readouterr().out
        assert "RPL003" in out
        assert "1 finding(s)" in out

    def test_exit_two_on_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--select", "RPL942"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "counter.py").write_text(
            textwrap.dedent(LOCKS_FIRING["counter.py"]))
        code = lint_main(
            [str(tmp_path), "--select", "RPL003", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["summary"]["unwaived"] == 1

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out
