"""The stimulus driver on both engines.

``StimulusRunner`` picks the compiled engine by ``run_testbench``'s rule
and falls back to the event engine by replaying its pokes and settles.
Either way every peek, row and raised error must be the event engine's.
These tests pin that on the problem references and their token mutants,
on designs that bail late, and on the engine and cache knobs.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.bench.problems import all_problems
from repro.hdl import (CompileCache, StimulusRunner, exercise_module,
                       get_default_cache, set_default_cache)
from repro.hdl.compiled import CompiledSim
from repro.hdl.errors import HdlError
from repro.hdl.lexer import tokenize
from repro.store import reset_default_store


@pytest.fixture(autouse=True)
def _fresh_caches(monkeypatch):
    """Engine selection needs runners that really simulate: no disk store,
    a private default cache, and the default engine rule."""
    monkeypatch.setenv("REPRO_STORE", "0")
    monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_HDL_CACHE", raising=False)
    reset_default_store()
    old = get_default_cache()
    set_default_cache(CompileCache())
    yield
    set_default_cache(old)
    reset_default_store()


def _on_compiled(runner: StimulusRunner) -> bool:
    return runner._csim is not None


def _peeks(runner: StimulusRunner) -> dict:
    return {name: runner.peek(name) for name in runner.outputs}


def _script(runner: StimulusRunner, rng: random.Random,
            steps: int = 6) -> list[dict]:
    """Reset plus ``clock_cycle`` when the design has them, then vectors
    through ``apply``, alternating with ``apply(clk=)`` when it is
    clocked."""
    inputs = runner.inputs
    clk = "clk" if "clk" in inputs else None
    rows = [_peeks(runner)]
    if "rst" in inputs:
        runner.poke("rst", 1)
        if clk is not None:
            runner.clock_cycle(clk)
        runner.poke("rst", 0)
        runner.settle()
        rows.append(_peeks(runner))
    for step in range(steps):
        vector = {n: rng.getrandbits(runner.width_of(n)) for n in inputs
                  if n not in (clk, "rst")}
        runner.apply(vector, clk=clk if step % 2 else None)
        rows.append(_peeks(runner))
    return rows


def _outcome(source: str, top: str, engine: str, seed: int):
    """(rows or the raised error, whether the runner ended on the
    compiled engine)."""
    runner = None
    try:
        runner = StimulusRunner(source, top, engine=engine)
        rows = _script(runner, random.Random(seed))
    except Exception as exc:     # the error itself must match
        return (type(exc).__name__, str(exc)), False
    return rows, _on_compiled(runner)


def _mutants(rng: random.Random, source: str, count: int) -> list[str]:
    """Token delete and duplicate mutants of ``source``."""
    starts = [0]
    for line in source.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    offsets = sorted({starts[t.loc.line - 1] + t.loc.column - 1
                      for t in tokenize(source)})
    spans = list(zip(offsets, offsets[1:]))
    out = []
    for _ in range(count):
        a, b = rng.choice(spans)
        out.append(source[:a] + source[b:])                     # delete
        out.append(source[:b] + source[a:b] + source[b:])       # duplicate
    return out


PROBLEMS = all_problems()


class TestEngineEquivalence:
    @pytest.mark.parametrize("index", range(len(PROBLEMS)))
    def test_reference_peeks_match(self, index):
        p = PROBLEMS[index]
        event, _ = _outcome(p.reference, p.module_name, "event", index)
        fast, stayed = _outcome(p.reference, p.module_name, "compiled", index)
        assert fast == event
        assert stayed, "a reference should run on the compiled engine"

    def test_mutant_peeks_match(self):
        stayed = 0
        for index, p in enumerate(PROBLEMS):
            for k, mutant in enumerate(_mutants(random.Random(index),
                                                p.reference, 20)):
                event, _ = _outcome(mutant, p.module_name, "event", k)
                fast, on_compiled = _outcome(mutant, p.module_name,
                                             "compiled", k)
                assert fast == event, mutant
                stayed += on_compiled
        assert stayed >= 50, stayed      # 66 of the 800 mutants elaborate

    def test_auto_with_cache_selects_compiled(self):
        p = PROBLEMS[0]
        assert _on_compiled(StimulusRunner(p.reference, p.module_name))


# A comb ``$finish`` ahead of the logic it shares an input with: the event
# driver records it and keeps draining, the compiled engine stops, bails,
# and must replay onto the event engine.
FINISH_LATE = """
module dut(input [3:0] a, output [3:0] y, output [3:0] z);
  always @(*) if (a == 4'd5) $finish;
  assign y = a + 4'd1;
  assign z = y ^ 4'd3;
endmodule
"""

# An X write index (``u`` is never driven) on one input value: the event
# engine raises, so the compiled engine bails and the replay raises.
X_INDEX_LATE = """
module dut(input [3:0] a, output reg [3:0] y);
  reg [1:0] u;
  always @(*) begin
    y = a;
    if (a == 4'd9) y[u] = 1'b1;
  end
endmodule
"""

# User functions are outside the compiled subset.
WITH_FUNCTION = """
module dut(input [3:0] a, output [3:0] y);
  function [3:0] inc;
    input [3:0] v;
    inc = v + 4'd1;
  endfunction
  assign y = inc(a);
endmodule
"""

# Oscillates through the NBA stratum for as long as ``en`` is high.
NBA_LOOP = """
module dut(input en, input a, output reg y);
  reg p;
  always @(*) if (en) y <= ~p; else y <= a;
  always @(*) p <= y;
endmodule
"""


class TestReplay:
    def test_late_bail_replays_and_later_vectors_run(self):
        runner = StimulusRunner(FINISH_LATE, "dut")
        assert _on_compiled(runner)
        rows, engines = [], []
        for a in (1, 2, 5, 7, 3):
            out = runner.apply({"a": a})
            rows.append((out["y"].to_int(), out["z"].to_int()))
            engines.append(_on_compiled(runner))
        assert engines == [True, True, False, False, False]
        assert rows == [((a + 1) % 16, ((a + 1) % 16) ^ 3)
                        for a in (1, 2, 5, 7, 3)]
        event = StimulusRunner(FINISH_LATE, "dut", engine="event")
        assert rows == [(event.apply({"a": a})["y"].to_int(),
                         event.peek("z").to_int()) for a in (1, 2, 5, 7, 3)]

    def test_replayed_error_is_the_event_error(self):
        def run(engine):
            runner = StimulusRunner(X_INDEX_LATE, "dut", engine=engine)
            seen = [str(runner.apply({"a": a})["y"]) for a in (1, 4)]
            with pytest.raises(HdlError) as info:
                runner.apply({"a": 9})
            return seen, str(info.value)
        fast = run("compiled")
        assert fast == run("event")
        assert "X index" in fast[1]

    def test_comb_loop_does_not_settle(self):
        for engine in ("compiled", "event"):
            runner = StimulusRunner(NBA_LOOP, "dut", engine=engine)
            assert runner.apply({"en": 0, "a": 1})["y"].to_int() == 1
            runner.poke("en", 1)
            with pytest.raises(HdlError, match="design did not settle"):
                runner.settle(max_iters=500)

    def test_comb_loop_default_bound(self):
        runner = StimulusRunner(NBA_LOOP, "dut")
        assert _on_compiled(runner)
        with pytest.raises(HdlError,
                           match=r"design did not settle \(combinational"):
            runner.apply({"en": 1})

    def test_unsupported_design_runs_on_event_engine(self):
        runner = StimulusRunner(WITH_FUNCTION, "dut", engine="compiled")
        assert not _on_compiled(runner)
        assert runner.apply({"a": 15})["y"].to_int() == 0
        assert runner.apply({"a": 6})["y"].to_int() == 7


EXERCISE = """
module dut(input clk, input rst, input [3:0] a, output reg [3:0] q,
           output [3:0] y);
  assign y = a ^ q;
  always @(posedge clk) if (rst) q <= 4'd0; else q <= q + a;
endmodule
"""
VECTORS = [{"a": 3}, {"a": 5}, {"a": 15}, {"a": 1}]


def _refuse(*args, **kwargs):
    raise AssertionError("no CompiledSim may be built")


class TestKnobs:
    def test_event_engine_builds_no_compiled_sim(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "event")
        monkeypatch.setattr(CompiledSim, "__init__", _refuse)
        rows = exercise_module(EXERCISE, "dut", VECTORS, clk="clk",
                               reset="rst", cache=CompileCache())
        assert rows is not None
        p = PROBLEMS[0]
        runner = StimulusRunner(p.reference, p.module_name)
        assert not _on_compiled(runner)

    @pytest.mark.parametrize("engine", ["auto", "compiled"])
    def test_cache_disabled_still_drives(self, monkeypatch, engine):
        want = exercise_module(EXERCISE, "dut", VECTORS, clk="clk",
                               reset="rst", cache=CompileCache())
        monkeypatch.setenv("REPRO_HDL_CACHE", "0")
        monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
        cache = CompileCache()
        rows = exercise_module(EXERCISE, "dut", VECTORS, clk="clk",
                               reset="rst", cache=cache)
        assert rows == want
        runner = StimulusRunner(EXERCISE, "dut", cache=cache)
        # Without a program cache ``auto`` keeps the event engine.
        assert _on_compiled(runner) == (engine == "compiled")
        assert not cache.codes
        assert all(s.lookups == 0 for s in cache.stats().values())


class TestTelemetry:
    @pytest.fixture
    def traced(self):
        obs.install_tracer(obs.Tracer(obs.InMemorySink(), enabled=True))
        obs.reset_metrics()
        yield
        obs.reset_tracer()
        obs.reset_metrics()

    @staticmethod
    def _drive_all():
        StimulusRunner(EXERCISE, "dut").apply({"a": 2}, clk="clk")
        finish = StimulusRunner(FINISH_LATE, "dut")
        finish.apply({"a": 5})
        StimulusRunner(WITH_FUNCTION, "dut").apply({"a": 1})

    def test_driver_counters(self, traced):
        self._drive_all()
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["sim.driver.compiled"] == 2
        assert counters["sim.driver.fallbacks"] == 1
        assert counters["sim.driver.ineligible"] == 1

    def test_no_counters_without_tracer(self):
        obs.reset_metrics()
        self._drive_all()
        counters = obs.get_metrics().snapshot()["counters"]
        assert not [k for k in counters if k.startswith("sim.driver.")]
