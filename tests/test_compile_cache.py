"""Compile-cache correctness: hits equal cold compiles, eviction is
bounded, and caller mutation cannot poison the cache."""

import pickle

import pytest

from repro.bench.problems import all_problems
from repro.hdl import (CompileCache, HdlError, compile_design,
                       get_default_cache, run_testbench, set_default_cache,
                       source_key)
from repro.hdl.testbench import StimulusRunner, exercise_module
from repro.store import reset_default_store


PROBLEM = all_problems()[3]


@pytest.fixture(autouse=True)
def _memory_only_store(monkeypatch):
    """These tests pin the *memory tier's* cold/hit/eviction contract; an
    ambient ``REPRO_STORE`` (e.g. the CI warm-start lane) would satisfy
    cold lookups from disk and break the assertions."""
    monkeypatch.setenv("REPRO_STORE", "0")
    reset_default_store()
    yield
    reset_default_store()


@pytest.fixture()
def cache():
    return CompileCache()


@pytest.fixture(autouse=True)
def _fresh_default_cache():
    old = get_default_cache()
    set_default_cache(CompileCache())
    yield
    set_default_cache(old)


class TestCacheEquivalence:
    def test_hit_equals_cold_compile(self, cache):
        units = (PROBLEM.reference, PROBLEM.testbench)
        cold = compile_design(units, PROBLEM.tb_name, cache=cache)
        hit = compile_design(units, PROBLEM.tb_name, cache=cache)
        assert not cold.from_cache
        assert hit.from_cache
        assert pickle.dumps(cold.design) == pickle.dumps(hit.design)
        assert cold.key == hit.key

    def test_cached_run_matches_cold_run(self, cache):
        cold = run_testbench(PROBLEM.reference, PROBLEM.tb_name,
                             tb_source=PROBLEM.testbench, cache=cache)
        warm = run_testbench(PROBLEM.reference, PROBLEM.tb_name,
                             tb_source=PROBLEM.testbench, cache=cache)
        assert pickle.dumps(cold) == pickle.dumps(warm)
        assert cache.stats_dict()["result"]["hits"] >= 1

    def test_split_compile_matches_concatenated(self, cache):
        """DUT+TB compiled as separate units elaborates identically to the
        legacy single concatenated source."""
        legacy = run_testbench(
            PROBLEM.reference + "\n" + PROBLEM.testbench, PROBLEM.tb_name)
        split = run_testbench(PROBLEM.reference, PROBLEM.tb_name,
                              tb_source=PROBLEM.testbench, cache=cache)
        assert pickle.dumps(legacy) == pickle.dumps(split)

    def test_compile_error_text_matches_legacy(self, cache):
        """Feedback text feeds seeded repair loops, so the split-compile
        path must report byte-identical compile errors."""
        broken = "module broken(input a, output y); assign y = ; endmodule"
        split = run_testbench(broken, PROBLEM.tb_name,
                              tb_source=PROBLEM.testbench, cache=cache)
        legacy = run_testbench(broken + "\n" + PROBLEM.testbench,
                               PROBLEM.tb_name)
        assert pickle.dumps(split) == pickle.dumps(legacy)
        assert split.feedback() == legacy.feedback()

    def test_testbench_compiles_once_per_suite(self, cache):
        """Distinct candidates against the same bench re-parse only the
        candidate: the testbench parse is a hit from the second run on."""
        tmpl = ("module cand(input [3:0] a, output [3:0] y); "
                "assign y = a ^ 4'd{};\nendmodule")
        for i in range(4):
            try:
                run_testbench(tmpl.format(i), PROBLEM.tb_name,
                              tb_source=PROBLEM.testbench, cache=cache)
            except HdlError:
                pass  # candidate/TB port mismatch is fine; parses still count
        assert cache.stats_dict()["parse"]["hits"] >= 3  # TB reused, runs 2..4


class TestBoundedEviction:
    def test_parse_cache_is_bounded(self):
        cache = CompileCache(parse_capacity=4)
        for i in range(10):
            src = f"module m{i}(input a, output y); assign y = a; endmodule"
            cache.parse(src)
        stats = cache.stats_dict()["parse"]
        assert stats["size"] <= 4
        assert stats["evictions"] >= 6

    def test_result_cache_is_bounded(self):
        cache = CompileCache(result_capacity=3)
        for i in range(8):
            cache.put_result(("tb", f"k{i}"), {"i": i})
        assert cache.stats_dict()["result"]["size"] <= 3
        assert cache.get_result(("tb", "k0")) is None
        assert cache.get_result(("tb", "k7")) == {"i": 7}

    def test_evicted_entry_recompiles_correctly(self):
        cache = CompileCache(design_capacity=1, parse_capacity=2)
        units = (PROBLEM.reference, PROBLEM.testbench)
        first = compile_design(units, PROBLEM.tb_name, cache=cache)
        other = all_problems()[4]
        compile_design((other.reference, other.testbench), other.tb_name,
                       cache=cache)
        again = compile_design(units, PROBLEM.tb_name, cache=cache)
        assert pickle.dumps(first.design) == pickle.dumps(again.design)


class TestPoisonSafety:
    def test_mutating_returned_design_does_not_poison(self, cache):
        units = (PROBLEM.reference, PROBLEM.testbench)
        first = compile_design(units, PROBLEM.tb_name, cache=cache)
        baseline = pickle.dumps(first.design)
        # Vandalize everything reachable from the returned object.
        first.design.signals.clear()
        first.design.processes.clear()
        second = compile_design(units, PROBLEM.tb_name, cache=cache)
        assert second.from_cache
        assert pickle.dumps(second.design) == baseline

    def test_mutating_result_does_not_poison(self, cache):
        first = run_testbench(PROBLEM.reference, PROBLEM.tb_name,
                              tb_source=PROBLEM.testbench, cache=cache)
        baseline = pickle.dumps(first)
        first.output.clear()
        first.runtime_error = "vandalized"
        second = run_testbench(PROBLEM.reference, PROBLEM.tb_name,
                               tb_source=PROBLEM.testbench, cache=cache)
        assert pickle.dumps(second) == baseline

    def test_mutating_parsed_ast_does_not_poison(self, cache):
        src = "module p(input a, output y); assign y = ~a; endmodule"
        first = cache.parse(src)
        first.source_file.modules.clear()
        second = cache.parse(src)
        assert "p" in second.source_file.modules

    def test_stimulus_runner_isolated_from_cache(self, cache):
        src = ("module dut(input clk, input [3:0] a, output [3:0] y);\n"
               "  assign y = a + 4'd1;\nendmodule")
        r1 = StimulusRunner(src, "dut", cache=cache)
        r1.design.signals.clear()
        r2 = StimulusRunner(src, "dut", cache=cache)
        assert r2.design.signals  # fresh materialization, not the mutated one


EXERCISE_SRC = """
module dut(input clk, input rst, input [3:0] a, input [3:0] b,
           output reg [3:0] q, output [3:0] y);
  assign y = a - b;
  always @(posedge clk) if (rst) q <= 4'd0; else q <= q + a;
endmodule
module other(input clk, input rst, input [3:0] a, input [3:0] b,
             output [3:0] y);
  assign y = a & b;
endmodule
"""
VECTORS = [{"a": 3, "b": 1}, {"a": 5, "b": 9}, {"a": 15, "b": 15}]


def _drive(cache, source=EXERCISE_SRC, top="dut", vectors=VECTORS,
           clk="clk", reset="rst"):
    return exercise_module(source, top, vectors, clk=clk, reset=reset,
                           cache=cache)


def _result_stats(cache):
    return cache.stats_dict()["result"]


def _refuse(*args, **kwargs):
    raise AssertionError("a memo hit must not simulate")


class TestExerciseMemo:
    def test_hit_equals_cold_run(self, cache):
        cold = _drive(cache)
        hit = _drive(cache)
        assert cold is not None and len(cold) == len(VECTORS)
        assert hit == cold
        assert _result_stats(cache)["hits"] == 1
        assert _result_stats(cache)["misses"] == 1

    def test_mutating_rows_does_not_poison(self, cache):
        cold = _drive(cache)
        expected = pickle.loads(pickle.dumps(cold))
        cold[0]["y"] = "junk"
        cold.append({})
        hit = _drive(cache)
        assert hit == expected
        hit[1].clear()
        assert _drive(cache) == expected

    def test_broken_source_is_cached_as_none(self, cache, monkeypatch):
        broken = "module dut(input a; endmodule"
        assert _drive(cache, source=broken) is None
        monkeypatch.setattr(StimulusRunner, "__init__", _refuse)
        assert _drive(cache, source=broken) is None
        assert _result_stats(cache)["hits"] == 1

    @pytest.mark.parametrize("change", [
        {"vectors": [{"a": 3, "b": 2}, *VECTORS[1:]]},
        {"vectors": [{"b": 1, "a": 3}, *VECTORS[1:]]},
        {"clk": None},
        {"reset": None},
        {"top": "other"},
    ])
    def test_changed_input_is_a_miss(self, cache, change):
        _drive(cache)
        _drive(cache, **change)
        assert _result_stats(cache)["hits"] == 0
        assert _result_stats(cache)["misses"] == 2

    def test_nothing_cached_with_cache_disabled(self, cache, monkeypatch):
        monkeypatch.setenv("REPRO_HDL_CACHE", "0")
        first = _drive(cache)
        assert _drive(cache) == first
        stats = _result_stats(cache)
        assert stats["size"] == stats["hits"] == stats["misses"] == 0

    def test_compiled_design_bypasses_memo(self, cache):
        compiled = compile_design(EXERCISE_SRC, "dut", cache=cache)
        rows = _drive(cache, source=compiled)
        assert _drive(cache, source=compiled) == rows
        assert _result_stats(cache)["size"] == 0
        assert rows == _drive(cache)

    def test_hit_builds_no_runner(self, cache, monkeypatch):
        cold = _drive(cache)
        designs = cache.stats()["design"].lookups
        monkeypatch.setattr(StimulusRunner, "__init__", _refuse)
        assert _drive(cache) == cold
        assert cache.stats()["design"].lookups == designs


class TestKnobs:
    def test_source_key_is_content_hash(self):
        assert source_key("module m; endmodule") == \
            source_key("module m; endmodule")
        assert source_key("module m; endmodule") != \
            source_key("module n; endmodule")

    def test_cache_disable_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_HDL_CACHE", "0")
        cache = CompileCache()
        units = (PROBLEM.reference, PROBLEM.testbench)
        compile_design(units, PROBLEM.tb_name, cache=cache)
        second = compile_design(units, PROBLEM.tb_name, cache=cache)
        assert not second.from_cache

    def test_stats_shape(self, cache):
        units = (PROBLEM.reference, PROBLEM.testbench)
        compile_design(units, PROBLEM.tb_name, cache=cache)
        compile_design(units, PROBLEM.tb_name, cache=cache)
        stats = cache.stats_dict()
        assert set(stats) == {"parse", "design", "result", "program"}
        assert stats["design"]["hits"] == 1
        assert stats["design"]["misses"] == 1
        assert 0.0 < stats["design"]["hit_rate"] <= 1.0


class TestThreadSafety:
    def test_lru_blob_cache_hammer(self):
        # Many threads hitting a small LRU concurrently: stats must stay
        # consistent (hits + misses == lookups issued), entries must never
        # be torn, and the cache must respect its capacity bound.
        import threading

        from repro.hdl.compile import _LruBlobCache

        cache = _LruBlobCache(capacity=16)
        threads_n, iters, keyspace = 8, 400, 48
        errors: list[str] = []
        barrier = threading.Barrier(threads_n)

        def worker(tid: int) -> None:
            rng = __import__("random").Random(tid)
            barrier.wait()
            for i in range(iters):
                key = f"k{rng.randrange(keyspace)}"
                blob = cache.get(key)
                if blob is None:
                    cache.put(key, key.encode())
                elif blob != key.encode():
                    errors.append(f"torn read: {key!r} -> {blob!r}")

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not errors
        stats = cache.stats
        assert stats.hits + stats.misses == threads_n * iters
        assert stats.hits > 0 and stats.misses > 0
        assert len(cache) <= 16
        # Entries still serve correct bytes after the stampede.
        for key in [f"k{i}" for i in range(keyspace)]:
            blob = cache.get(key)
            assert blob is None or blob == key.encode()
