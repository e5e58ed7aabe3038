"""Trace pipeline tests: format, writer, analyser, listener equality."""

import io

import pytest

from repro.errors import TraceError
from repro.ir.types import DType
from repro.sim.engine import simulate
from repro.trace import (
    PULPListeners,
    TraceAnalyser,
    TraceWriter,
    parse_line,
)
from repro.trace.analyser import analyse_trace
from repro.trace.format import format_line, pe_insn_path
from tests.conftest import make_axpy, make_matmul


class TestFormat:
    def test_roundtrip(self):
        line = format_line(42, pe_insn_path(3), "alu n=2")
        assert parse_line(line) == (42, "cluster/pe3/insn", "alu n=2")

    @pytest.mark.parametrize("bad", ["", "x y", "12", "cycle path payload"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(TraceError):
            parse_line(bad)


class TestWriter:
    def test_collects_lines_in_memory(self):
        writer = TraceWriter()
        writer.instr(1, 0, 0, 2)
        writer.l1(2, 5, "read")
        assert writer.lines == ["1 cluster/pe0/insn alu n=2",
                                "2 cluster/l1/bank5/trace read"]

    def test_streams_to_file(self):
        stream = io.StringIO()
        writer = TraceWriter(stream)
        writer.kernel_marker(0, "begin")
        assert stream.getvalue() == "0 cluster/kernel/trace begin\n"
        assert writer.lines == []


class TestListenerHierarchy:
    def test_paper_topology(self):
        listeners = PULPListeners()
        assert len(listeners.cores) == 8
        assert len(listeners.l1_banks) == 16
        assert len(listeners.l2_banks) == 32

    def test_duplicate_paths_rejected(self):
        listeners = PULPListeners()
        listeners.l1_banks.append(listeners.l1_banks[0])
        with pytest.raises(TraceError):
            TraceAnalyser(listeners)

    def test_unknown_path_rejected(self):
        analyser = TraceAnalyser(PULPListeners())
        with pytest.raises(TraceError):
            analyser.process(["5 cluster/pe99/insn alu n=1"])

    def test_unbalanced_cg_rejected(self):
        analyser = TraceAnalyser(PULPListeners())
        with pytest.raises(TraceError):
            analyser.process(["5 cluster/pe0/trace cg_exit"])


class TestEngineEquivalence:
    """The paper's pipeline: trace -> regex parse -> listeners must
    reconstruct exactly what the engine counted."""

    @pytest.mark.parametrize("team", [1, 2, 5, 8])
    @pytest.mark.parametrize("dtype", [DType.INT32, DType.FP32])
    def test_axpy_equivalence(self, team, dtype):
        kernel = make_axpy(dtype, 512)
        writer = TraceWriter()
        engine = simulate(kernel, team, trace=writer)
        rebuilt = analyse_trace(writer.lines).to_counters()
        assert rebuilt.as_dict() == engine.as_dict()

    def test_matmul_equivalence(self):
        kernel = make_matmul(DType.FP32, 512)
        writer = TraceWriter()
        engine = simulate(kernel, 8, trace=writer)
        rebuilt = analyse_trace(writer.lines).to_counters()
        assert rebuilt.as_dict() == engine.as_dict()

    def test_critical_kernel_equivalence(self):
        from repro.dataset.registry import get_kernel_spec
        kernel = get_kernel_spec("critical_update").build(DType.INT32, 512)
        writer = TraceWriter()
        engine = simulate(kernel, 4, trace=writer)
        rebuilt = analyse_trace(writer.lines).to_counters()
        assert rebuilt.as_dict() == engine.as_dict()

    def test_window_queries(self):
        kernel = make_axpy(DType.INT32, 512)
        writer = TraceWriter()
        engine = simulate(kernel, 2, trace=writer)
        listeners = analyse_trace(writer.lines)
        assert listeners.window_cycles == engine.cycles
        busy = [core.counters.issue_cycles + core.counters.stall_cycles
                for core in listeners.cores]
        assert 0 < busy[0] <= listeners.window_cycles
        assert busy[7] == 0
