"""Tests for the logic-synthesis package."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.problems import get_problem
from repro.flows.security import detect_with_cec, insert_trojan
from repro.hdl import parse_module
from repro.hdl.testbench import StimulusRunner
from repro.synth import (Aig, FALSE, TRUE, SynthesisError, check_aigs,
                         check_against_simulation, estimate_ppa, map_to_cells,
                         map_to_luts, negate, optimize, synthesize_module)
from repro.synth.cec import CecResult
from repro.synth.optimize import balance, rewrite, sweep

from . import cec_reference as reference


class TestAig:
    def test_constant_folding(self):
        aig = Aig()
        a = aig.add_input("a")
        assert aig.and_(a, FALSE) == FALSE
        assert aig.and_(a, TRUE) == a
        assert aig.and_(a, a) == a
        assert aig.and_(a, negate(a)) == FALSE

    def test_structural_hashing(self):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        assert aig.and_(a, b) == aig.and_(b, a)
        assert aig.num_ands == 1

    def test_or_demorgan(self):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        aig.add_output("y", aig.or_(a, b))
        assert aig.evaluate({"a": True, "b": False})["y"] is True
        assert aig.evaluate({"a": False, "b": False})["y"] is False

    def test_xor_truth_table(self):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        aig.add_output("y", aig.xor_(a, b))
        for va in (False, True):
            for vb in (False, True):
                assert aig.evaluate({"a": va, "b": vb})["y"] == (va != vb)

    def test_mux(self):
        aig = Aig()
        s = aig.add_input("s")
        a = aig.add_input("a")
        b = aig.add_input("b")
        aig.add_output("y", aig.mux(s, a, b))
        assert aig.evaluate({"s": True, "a": True, "b": False})["y"]
        assert not aig.evaluate({"s": False, "a": True, "b": False})["y"]

    def test_depth_and_cleanup(self):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        c = aig.add_input("c")
        aig.and_(a, b)  # dangling
        aig.add_output("y", aig.and_(aig.and_(a, b), c))
        cleaned = aig.cleanup()
        assert cleaned.num_ands == 2
        assert cleaned.depth() == 2

    def test_evaluate_words_matches_scalar(self):
        aig = Aig()
        a = aig.add_input("a")
        b = aig.add_input("b")
        aig.add_output("y", aig.xor_(a, b))
        words = aig.evaluate_words({"a": 0b1100, "b": 0b1010}, bits=4)
        assert words["y"] == 0b0110

    def test_missing_input_raises(self):
        aig = Aig()
        aig.add_input("a")
        aig.add_output("y", 2)
        with pytest.raises(KeyError):
            aig.evaluate({})


def _synth(src, name=None):
    return synthesize_module(parse_module(src, name))


class TestSynthesize:
    def test_adder_equivalent_to_sim(self):
        src = """
module add(input [3:0] a, input [3:0] b, output [4:0] y);
  assign y = a + b;
endmodule"""
        s = _synth(src)
        cec = check_against_simulation(s, src, parse_module(src), vectors=30)
        assert cec.equivalent, cec.counterexample

    def test_subtract_and_compare(self):
        src = """
module cmp(input [3:0] a, input [3:0] b, output lt, output [3:0] d);
  assign lt = a < b;
  assign d = a - b;
endmodule"""
        s = _synth(src)
        assert check_against_simulation(s, src, parse_module(src),
                                        vectors=40).equivalent

    def test_multiplier(self):
        src = """
module mul(input [3:0] a, input [3:0] b, output [7:0] y);
  assign y = a * b;
endmodule"""
        s = _synth(src)
        assert check_against_simulation(s, src, parse_module(src),
                                        vectors=40).equivalent

    def test_comb_always_case(self):
        src = """
module alu(input [3:0] a, input [3:0] b, input [1:0] op, output reg [3:0] y);
  always @(*) begin
    case (op)
      2'd0: y = a + b;
      2'd1: y = a & b;
      2'd2: y = a | b;
      default: y = a ^ b;
    endcase
  end
endmodule"""
        s = _synth(src)
        assert check_against_simulation(s, src, parse_module(src),
                                        vectors=40).equivalent

    def test_dynamic_shift(self):
        src = """
module sh(input [7:0] a, input [2:0] n, output [7:0] y);
  assign y = a << n;
endmodule"""
        s = _synth(src)
        assert check_against_simulation(s, src, parse_module(src),
                                        vectors=40).equivalent

    def test_ternary_and_concat(self):
        src = """
module t(input s, input [3:0] a, input [3:0] b, output [7:0] y);
  assign y = s ? {a, b} : {b, a};
endmodule"""
        s = _synth(src)
        assert check_against_simulation(s, src, parse_module(src),
                                        vectors=30).equivalent

    def test_for_loop_unrolled(self):
        src = """
module rev(input [3:0] a, output reg [3:0] y);
  integer i;
  always @(*) begin
    for (i = 0; i < 4; i = i + 1)
      y[i] = a[3 - i];
  end
endmodule"""
        s = _synth(src)
        assert check_against_simulation(s, src, parse_module(src),
                                        vectors=16).equivalent

    def test_function_lowering(self):
        src = """
module f(input [3:0] a, output [3:0] y);
  function [3:0] inc;
    input [3:0] v;
    begin
      inc = v + 1;
    end
  endfunction
  assign y = inc(a);
endmodule"""
        s = _synth(src)
        assert check_against_simulation(s, src, parse_module(src),
                                        vectors=16).equivalent

    def test_sequential_flops_extracted(self):
        s = _synth("""
module ctr(input clk, input rst, output reg [3:0] q);
  always @(posedge clk) begin
    if (rst) q <= 0;
    else q <= q + 1;
  end
endmodule""")
        assert s.is_sequential
        assert s.flops[0].name == "q" and s.flops[0].width == 4
        out_names = {name for name, _ in s.aig.outputs}
        assert "q$next[0]" in out_names

    def test_latch_raises(self):
        with pytest.raises(SynthesisError):
            _synth("""
module l(input s, input d, output reg q);
  always @(*) begin
    if (s) q = d;
  end
endmodule""")

    def test_comb_loop_raises(self):
        with pytest.raises(SynthesisError):
            _synth("""
module loop(output a);
  wire b;
  assign a = ~b;
  assign b = a;
endmodule""")

    def test_multiple_drivers_raises(self):
        with pytest.raises(SynthesisError):
            _synth("""
module m(input a, output y);
  assign y = a;
  assign y = ~a;
endmodule""")

    def test_division_by_nonconst_raises(self):
        with pytest.raises(SynthesisError):
            _synth("module d(input [3:0] a, input [3:0] b, output [3:0] y); "
                   "assign y = a / b; endmodule")

    def test_division_by_power_of_two(self):
        src = """
module d(input [7:0] a, output [7:0] q, output [7:0] r);
  assign q = a / 4;
  assign r = a % 4;
endmodule"""
        s = _synth(src)
        assert check_against_simulation(s, src, parse_module(src),
                                        vectors=30).equivalent


class TestOptimizeAndMap:
    def _example(self):
        return _synth("""
module f(input [3:0] a, input [3:0] b, output [3:0] y);
  assign y = (a & b) | (a ^ b);
endmodule""")

    def test_passes_preserve_function(self):
        s = self._example()
        for fn in (sweep, rewrite, balance):
            out = fn(s.aig)
            cec = check_aigs(s.aig, out)
            assert cec.equivalent, f"{fn.__name__} broke equivalence"

    def test_optimize_script_runs_and_records(self):
        s = self._example()
        result = optimize(s.aig)
        assert result.history[0]["pass"] == "initial"
        assert len(result.history) >= 4
        assert check_aigs(s.aig, result.aig).equivalent

    def test_optimize_never_grows_much(self):
        s = self._example()
        result = optimize(s.aig)
        assert result.aig.num_ands <= s.aig.num_ands * 2

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError):
            optimize(self._example().aig, ("bogus",))

    def test_lut_mapping(self):
        s = self._example()
        mapping = map_to_luts(s.aig, k=4)
        assert mapping.lut_count > 0
        assert mapping.depth >= 1
        # LUT count never exceeds AND count.
        assert mapping.lut_count <= s.aig.num_ands

    def test_lut_size_validation(self):
        with pytest.raises(ValueError):
            map_to_luts(self._example().aig, k=1)

    def test_cell_mapping_area_positive(self):
        cells = map_to_cells(self._example().aig)
        assert cells.area > 0 and cells.gate_count > 0

    def test_ppa_report(self):
        s = _synth("""
module ctr(input clk, output reg [3:0] q);
  always @(posedge clk) q <= q + 1;
endmodule""")
        report = estimate_ppa(s)
        assert report.flop_count == 4
        assert report.area_um2 > 0 and report.delay_ns > 0
        assert report.power_uw > 0
        assert report.max_frequency_mhz > 0
        assert "area" in report.summary()


class TestCec:
    def test_exhaustive_counterexample(self):
        a = Aig()
        x = a.add_input("x")
        a.add_output("y", x)
        b = Aig()
        x2 = b.add_input("x")
        b.add_output("y", negate(x2))
        cec = check_aigs(a, b)
        assert not cec.equivalent and cec.exhaustive
        assert cec.counterexample is not None

    def test_no_shared_outputs(self):
        a = Aig()
        a.add_output("p", a.add_input("x"))
        b = Aig()
        b.add_output("q", b.add_input("x"))
        assert not check_aigs(a, b).equivalent


def _minterm_flip(n: int, index: int) -> tuple[Aig, Aig]:
    """Two AIGs over ``n`` inputs that differ on exactly one vector.

    ``index`` counts in ``itertools.product`` order over the sorted input
    names, so the first name is the index's most significant bit.
    """
    names = [f"x{k:02d}" for k in range(n)]
    a, b = Aig(), Aig()
    la = [a.add_input(name) for name in names]
    lb = [b.add_input(name) for name in names]
    a.add_output("y", a.xor_(la[0], la[-1]))
    hit = TRUE
    for k, literal in enumerate(lb):
        bit = index >> (n - 1 - k) & 1
        hit = b.and_(hit, literal if bit else negate(literal))
    b.add_output("y", b.xor_(b.xor_(lb[0], lb[-1]), hit))
    return a, b


class TestPackedCec:
    """``check_aigs`` must return exactly what the per-vector loop did."""

    @pytest.mark.parametrize("n,index", [
        (3, 0), (3, 7), (12, 0), (12, 4095), (13, 0), (13, 4095),
        (13, 4096), (13, 8191), (14, 4096 * 3 - 1),
    ])
    def test_single_mismatch_matches_reference(self, n, index):
        a, b = _minterm_flip(n, index)
        cec = check_aigs(a, b, max_exhaustive_inputs=18)
        assert cec == reference.check_aigs(a, b, max_exhaustive_inputs=18)
        assert not cec.equivalent and cec.exhaustive
        assert cec.vectors_checked == index + 1
        assert cec.mismatched_outputs == ["y"]
        assert list(cec.counterexample) == sorted(a.inputs)
        assert int("".join(map(str, cec.counterexample.values())), 2) == index

    def test_equivalent_checks_every_vector(self):
        a, _ = _minterm_flip(13, 0)
        b, _ = _minterm_flip(13, 5)
        cec = check_aigs(a, b, max_exhaustive_inputs=13)
        assert cec == CecResult(True, None, [], 2 ** 13, exhaustive=True)
        assert cec == reference.check_aigs(a, b, max_exhaustive_inputs=13)

    def test_inputs_present_in_only_one_aig(self):
        a = Aig()
        p, q = a.add_input("p"), a.add_input("q")
        a.add_output("y", a.and_(p, q))
        a.add_output("z", q)
        b = Aig()
        q2, r = b.add_input("q"), b.add_input("r")
        b.add_output("y", b.and_(q2, negate(r)))
        b.add_output("w", r)
        cec = check_aigs(a, b)
        assert cec == reference.check_aigs(a, b)
        assert cec.counterexample == {"p": 0, "q": 1, "r": 0}
        assert cec.vectors_checked == 3

    def test_no_shared_outputs_matches_reference(self):
        a = Aig()
        a.add_output("p", a.add_input("x"))
        b = Aig()
        b.add_output("q", b.add_input("x"))
        assert check_aigs(a, b) == reference.check_aigs(a, b) == CecResult(
            False, None, ["<no shared outputs>"], 0, False)

    def test_no_inputs_is_one_vector(self):
        a, b = Aig(), Aig()
        a.add_output("y", TRUE)
        b.add_output("y", FALSE)
        assert check_aigs(a, b) == reference.check_aigs(a, b) == CecResult(
            False, {}, ["y"], 1, True)

    @pytest.mark.parametrize("index", [0, 1, 77, 5000])
    def test_random_mode_matches_reference(self, index):
        a, b = _minterm_flip(14, index)
        a.add_output("z", a.add_input("x03"))
        b.add_output("z", negate(b.add_input("x03")))
        for vectors in (0, 1, 63, 64, 65, 300):
            cec = check_aigs(a, b, max_exhaustive_inputs=10,
                             random_vectors=vectors, seed=index)
            assert cec == reference.check_aigs(
                a, b, max_exhaustive_inputs=10, random_vectors=vectors,
                seed=index)
            assert not cec.exhaustive

    @pytest.mark.parametrize("seed,effort", [(1, 82945), (2, 41985)])
    def test_trojan_cec_effort_pinned(self, seed, effort):
        problem = get_problem("c2_adder8")
        design = insert_trojan(problem, seed=seed)
        report = detect_with_cec(problem, design)
        assert report.detected and report.note == "exhaustive"
        assert report.effort == effort


class TestPackedSimulationCheck:
    ADD = """
module add(input [3:0] a, input [3:0] b, output [4:0] y, output c);
  assign y = a + b;
  assign c = a[0] & b[3];
endmodule"""
    # Same ports, but ``y`` is wrong when a == 4'd9.
    BAD = ADD.replace("a + b;", "(a == 4'd9) ? a : a + b;")

    @pytest.mark.parametrize("vectors,seed", [(0, 1), (1, 2), (64, 3), (100, 4)])
    def test_matches_reference(self, vectors, seed):
        module = parse_module(self.ADD)
        for synth_src in (self.ADD, self.BAD):
            s = _synth(synth_src)
            got = check_against_simulation(s, self.ADD, module,
                                           vectors=vectors, seed=seed)
            assert got == reference.check_against_simulation(
                s, self.ADD, module, vectors=vectors, seed=seed)

    def test_reports_first_mismatch(self):
        s = _synth(self.BAD)
        cec = check_against_simulation(s, self.ADD, parse_module(self.ADD),
                                       vectors=64, seed=3)
        assert not cec.equivalent and cec.mismatched_outputs == ["y"]
        assert cec.counterexample["a"] == 9

    def test_later_simulation_error_never_preempts_mismatch(self, monkeypatch):
        s = _synth(self.BAD)
        module = parse_module(self.ADD)
        first = check_against_simulation(s, self.ADD, module, vectors=64, seed=3)
        original = StimulusRunner.apply
        calls = []

        def failing_apply(runner, stimulus):
            calls.append(stimulus)
            if len(calls) > first.vectors_checked:
                raise RuntimeError("simulator failure")
            return original(runner, stimulus)

        monkeypatch.setattr(StimulusRunner, "apply", failing_apply)
        assert check_against_simulation(s, self.ADD, module, vectors=64,
                                        seed=3) == first
        assert len(calls) == first.vectors_checked


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255))
def test_synthesized_adder_matches_python(a, b):
    src = """
module add(input [7:0] a, input [7:0] b, output [8:0] y);
  assign y = a + b;
endmodule"""
    s = synthesize_module(parse_module(src))
    assign = {}
    for i in range(8):
        assign[f"a[{i}]"] = bool((a >> i) & 1)
        assign[f"b[{i}]"] = bool((b >> i) & 1)
    out = s.aig.evaluate({n: assign.get(n, False) for n in s.aig.inputs})
    value = sum(1 << i for i in range(9) if out.get(f"y[{i}]", False))
    assert value == a + b
