"""Compiled-engine equivalence, selection, caching, and telemetry.

The compiled fast path (``repro.hdl.compiled``) must be *observationally
invisible*: same testbench results, same scheduler statistics, same
fallback behaviour for designs outside its subset.  These tests pin the
equivalence on hand-written designs, the ``REPRO_SIM_ENGINE`` knob, the
program-cache layer, and the per-engine telemetry — including the
regression where bench harnesses with private caches reported all-zero
``hdl.cache.*`` gauges.
"""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from repro import obs
from repro.config import get_settings, reset_warned_values
from repro.hdl import (CompileCache, CompiledSim, Simulator, UnsupportedDesign,
                       compile_program, elaborate, parse, run_testbench,
                       set_default_cache, get_default_cache)
from repro.hdl import compiled as compiled_mod
from repro.hdl.compiled import XBail
from repro.store import reset_default_store


@pytest.fixture(autouse=True)
def _memory_only_store(monkeypatch):
    """Engine-selection and telemetry assertions need fresh caches to
    actually *simulate*; an ambient ``REPRO_STORE`` (the CI warm-start
    lane) would serve results from disk and skip the paths under test."""
    monkeypatch.setenv("REPRO_STORE", "0")
    reset_default_store()
    yield
    reset_default_store()

COUNTER = """
module counter(input clk, input rst, output reg [7:0] q);
  always @(posedge clk) begin
    if (rst) q <= 8'h0;
    else q <= q + 8'h1;
  end
endmodule
module tb();
  reg clk;
  reg rst;
  wire [7:0] q;
  counter u0(.clk(clk), .rst(rst), .q(q));
  initial begin
    clk = 0;
    rst = 1;
    #2 rst = 0;
    repeat (20) begin
      #1 clk = ~clk;
    end
    $display("final q=%d qb=%b", q, q);
    if (q > 8'h0) $display("PASS: counter advanced to %d", q);
    else $display("FAIL: q=%d", q);
    $finish;
  end
endmodule
"""

XPROP = """
module xmix(input [3:0] a, output [7:0] y);
  reg [3:0] u;
  assign y = {u[1:0], a & 4'b0011, u[3:2]};
endmodule
module tb();
  reg [3:0] a;
  wire [7:0] y;
  xmix u0(.a(a), .y(y));
  initial begin
    a = 4'hf;
    #1;
    $display("y=%b yh=%h", y, y);
    if (y[3:2] == 2'b11) $display("PASS: defined bits survive");
    else $display("FAIL: y=%b", y);
    $finish;
  end
endmodule
"""

DYNAMIC_DELAY = """
module dyn(output reg q);
  reg [3:0] d = 2;
  initial q = 0;
  always begin
    #d q = ~q;
  end
endmodule
module tb();
  wire q;
  dyn u0(.q(q));
  initial begin
    #3;
    if (q == 1'b1) $display("PASS: toggled");
    else $display("FAIL: q=%b", q);
    $finish;
  end
endmodule
"""

X_INDEX_WRITE = """
module tb();
  reg [3:0] y;
  reg [1:0] i;
  initial begin
    y = 4'h0;
    y[i] = 1'b1;
    $display("unreachable");
    $finish;
  end
endmodule
"""


@pytest.fixture(autouse=True)
def _fresh_default_cache():
    old = get_default_cache()
    set_default_cache(CompileCache())
    yield
    set_default_cache(old)


def _run_both(source: str, top: str = "tb", seed: int = 1,
              max_time: int = 10_000):
    design = elaborate(parse(source), top)
    ev = Simulator(design, seed=seed)
    ev.run(max_time=max_time)
    cs = CompiledSim(compile_program(design), seed=seed)
    cs.run(max_time=max_time)
    return ev, cs


class TestEquivalence:
    def test_clocked_counter_byte_identical(self):
        ev, cs = self._assert_identical(COUNTER)
        assert ev.finished

    def test_xprop_design_byte_identical(self):
        ev, cs = self._assert_identical(XPROP)
        assert "x" in "".join(ev.output)  # partial-X actually rendered

    def _assert_identical(self, source):
        ev, cs = _run_both(source)
        assert cs.output == ev.output
        assert cs.finished == ev.finished
        assert cs.error_count == ev.error_count
        assert cs.time == ev.time
        assert cs.stats() == ev.stats()
        return ev, cs

    def test_seed_flows_through(self):
        src = COUNTER.replace('qb=%b", q, q',
                              'qb=%b r=%d", q, q, $random % 16')
        ev, cs = _run_both(src, seed=7)
        assert cs.output == ev.output


class TestSelection:
    def test_dynamic_delay_is_ineligible(self):
        design = elaborate(parse(DYNAMIC_DELAY), "tb")
        with pytest.raises(UnsupportedDesign):
            compile_program(design)

    def test_x_index_write_bails(self):
        design = elaborate(parse(X_INDEX_WRITE), "tb")
        sim = CompiledSim(compile_program(design))
        with pytest.raises(XBail):
            sim.run(max_time=100)

    @pytest.mark.parametrize("source", [COUNTER, DYNAMIC_DELAY,
                                        X_INDEX_WRITE])
    def test_engine_knob_is_invisible(self, source, monkeypatch):
        results = {}
        for mode in ("event", "compiled", "auto"):
            monkeypatch.setenv("REPRO_SIM_ENGINE", mode)
            r = run_testbench(source, "tb", max_time=10_000, seed=1,
                              cache=CompileCache())
            results[mode] = (r.pass_count, r.fail_count, r.error_count,
                             r.finished, r.sim_time, tuple(r.output),
                             r.runtime_error)
        assert results["event"] == results["compiled"] == results["auto"]

    def test_x_index_write_reports_event_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "compiled")
        r = run_testbench(X_INDEX_WRITE, "tb", cache=CompileCache())
        assert "X index" in r.runtime_error

    def test_sim_engine_knob_parsing(self, monkeypatch):
        settings = get_settings()
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        assert settings.sim_engine == "auto"
        monkeypatch.setenv("REPRO_SIM_ENGINE", "compiled")
        assert settings.sim_engine == "compiled"
        monkeypatch.setenv("REPRO_SIM_ENGINE", "EVENT")
        assert settings.sim_engine == "event"
        reset_warned_values()
        monkeypatch.setenv("REPRO_SIM_ENGINE", "bogus")
        with pytest.warns(RuntimeWarning):
            assert settings.sim_engine == "auto"
        assert "sim_engine" in settings.snapshot()


class TestProgramCache:
    def test_program_compiled_once_across_seeds(self):
        cache = CompileCache()
        run_testbench(COUNTER, "tb", seed=1, cache=cache)
        run_testbench(COUNTER, "tb", seed=2, cache=cache)
        stats = cache.stats_dict()
        assert stats["program"]["misses"] == 1
        assert stats["program"]["hits"] == 1

    def test_ineligible_design_analysed_once(self):
        cache = CompileCache()
        run_testbench(DYNAMIC_DELAY, "tb", seed=1, cache=cache)
        run_testbench(DYNAMIC_DELAY, "tb", seed=2, cache=cache)
        stats = cache.stats_dict()
        assert stats["program"]["misses"] == 1
        assert stats["program"]["hits"] == 1

    def test_program_survives_pickle_round_trip(self):
        import pickle
        design = elaborate(parse(COUNTER), "tb")
        program = pickle.loads(pickle.dumps(compile_program(design)))
        sim = CompiledSim(program, seed=1)
        sim.run(max_time=10_000)
        assert sim.finished


DUT_A, TB = COUNTER.split("module tb();")
TB = "module tb();" + TB
DUT_B = DUT_A.replace("q + 8'h1", "q + 8'h3")


def _functions(program) -> list[str]:
    return compiled_mod._SPLIT.split(program.source)


class TestCodeMemo:
    """Function text compiles once per ``CompileCache``, never globally."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        """Every text ``CompiledProgram.load`` hands to ``compile``."""
        seen: list[str] = []

        def counting(text, *args):
            seen.append(text)
            return compile(text, *args)

        monkeypatch.setattr(compiled_mod, "compile", counting, raising=False)
        monkeypatch.setenv("REPRO_SIM_ENGINE", "compiled")
        return seen

    @staticmethod
    def _outputs(result) -> tuple:
        return (tuple(result.output), result.finished, result.error_count,
                result.sim_time, result.runtime_error)

    def test_shared_testbench_compiled_once(self, compiles):
        cache = CompileCache()
        for dut in (DUT_A, DUT_B):
            run_testbench(dut, "tb", tb_source=TB, cache=cache)
        a, b = (_functions(compile_program(cache.compile((dut, TB),
                                                         "tb").design))
                for dut in (DUT_A, DUT_B))
        shared = set(a) & set(b)
        assert any(text.startswith("def c") for text in shared)
        assert set(a) != set(b)
        assert sorted(compiles) == sorted(set(a) | set(b))
        assert set(cache.codes) == set(a) | set(b)

    def test_outputs_match_memo_free_load_and_event_engine(self,
                                                          monkeypatch):
        cache = CompileCache()
        for dut in (DUT_A, DUT_B):
            monkeypatch.setenv("REPRO_SIM_ENGINE", "compiled")
            memo = run_testbench(dut, "tb", tb_source=TB, cache=cache)
            design = elaborate(parse(dut + TB), "tb")
            free = CompiledSim(compile_program(design), seed=1)
            free.run(max_time=200_000)
            monkeypatch.setenv("REPRO_SIM_ENGINE", "event")
            event = run_testbench(dut, "tb", tb_source=TB,
                                  cache=CompileCache())
            assert self._outputs(memo) == self._outputs(event)
            assert tuple(memo.output) == tuple(free.output)
            assert memo.sim_time == free.time
        assert cache.codes

    def test_fresh_cache_and_clear_start_empty(self, compiles, monkeypatch):
        cache = CompileCache()
        assert cache.codes == {}
        run_testbench(COUNTER, "tb", cache=cache)
        assert cache.codes
        cache.clear()
        assert cache.codes == {}
        assert CompileCache().codes == {}
        monkeypatch.setenv("REPRO_HDL_CACHE", "0")
        before = len(compiles)
        run_testbench(COUNTER, "tb", cache=cache)
        assert cache.codes == {} and len(compiles) > before

    def test_pickled_program_round_trips_and_runs(self):
        cache = CompileCache()
        program = compile_program(elaborate(parse(COUNTER), "tb"))
        blob = pickle.dumps(program)
        CompiledSim(program, seed=1, codes=cache.codes).run(max_time=10_000)
        assert pickle.dumps(program) == blob      # the namespace stays out
        copy = pickle.loads(blob)
        assert copy.source == program.source and copy.meta == program.meta
        sim = CompiledSim(copy, seed=1, codes=cache.codes)
        sim.run(max_time=10_000)
        ev, _ = _run_both(COUNTER)
        assert sim.finished and sim.output == ev.output

    def test_memo_is_emptied_with_the_live_programs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "compiled")
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "1")
        cache = CompileCache()
        results = [run_testbench(dut, "tb", tb_source=TB, cache=cache)
                   for dut in (DUT_A, DUT_B)]
        # The program layer holds one program, so storing B's emptied A's
        # texts from the memo too: it now holds exactly B's.
        b = compile_program(cache.compile((DUT_B, TB), "tb").design)
        assert len(cache._live_programs) == 1
        assert set(cache.codes) == set(_functions(b))
        for dut, result in zip((DUT_A, DUT_B), results):
            monkeypatch.setenv("REPRO_SIM_ENGINE", "event")
            event = run_testbench(dut, "tb", tb_source=TB,
                                  cache=CompileCache())
            assert self._outputs(result) == self._outputs(event)

    def test_threads_share_one_memo(self):
        cache = CompileCache()
        blobs = [pickle.dumps(compile_program(elaborate(parse(dut + TB),
                                                        "tb")))
                 for dut in (DUT_A, DUT_B)]
        want = [_run_both(dut + TB)[0].output for dut in (DUT_A, DUT_B)]
        errors: list = []

        def worker(k: int) -> None:
            try:
                for i in range(20):
                    which = (i + k) % 2
                    sim = CompiledSim(pickle.loads(blobs[which]), seed=1,
                                      codes=cache.codes)
                    sim.run(max_time=10_000)
                    assert sim.output == want[which]
            except Exception as exc:     # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class TestTelemetry:
    @pytest.fixture(autouse=True)
    def _traced(self):
        self.sink = obs.InMemorySink()
        obs.install_tracer(obs.Tracer(self.sink, enabled=True))
        obs.reset_metrics()
        yield
        obs.reset_tracer()
        obs.reset_metrics()

    def test_traced_run_reports_nonzero_cache_gauges(self):
        # Regression: bench harnesses compile via *private* caches, which
        # left every hdl.cache.* gauge at 0.0 in the written snapshot.
        # The cumulative gauges must see activity regardless of instance.
        cache = CompileCache()   # private, like benchmarks/_util.py
        run_testbench(COUNTER, "tb", seed=1, cache=cache)
        record = obs.flush_metrics()
        gauges = record["gauges"]
        lookups = sum(v for k, v in gauges.items()
                      if k.startswith("hdl.cache_cumulative.parse."))
        assert lookups > 0

    def test_backend_counters_tagged(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "compiled")
        run_testbench(COUNTER, "tb", seed=1, cache=CompileCache())
        monkeypatch.setenv("REPRO_SIM_ENGINE", "event")
        run_testbench(COUNTER, "tb", seed=2, cache=CompileCache())
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["sim.backend.compiled.runs"] == 1
        assert counters["sim.backend.event.runs"] == 1
        assert counters["sim.runs"] == 2

    def test_sim_spans_carry_backend_attr(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "compiled")
        run_testbench(COUNTER, "tb", seed=1, cache=CompileCache())
        spans = [r for r in self.sink.records if r.get("type") == "span"
                 and r.get("name") == "hdl.sim"]
        assert spans and spans[-1]["attrs"]["backend"] == "compiled"

    def test_engine_table_renders_breakdown(self, monkeypatch):
        from repro.obs import report
        monkeypatch.setenv("REPRO_SIM_ENGINE", "compiled")
        run_testbench(COUNTER, "tb", seed=1, cache=CompileCache())
        run_testbench(DYNAMIC_DELAY, "tb", seed=1, cache=CompileCache())
        obs.flush_metrics()
        table = report.engine_table(self.sink.records)
        assert "compiled" in table and "event" in table
        assert "ineligible" in table
        assert table in report.render(self.sink.records)
