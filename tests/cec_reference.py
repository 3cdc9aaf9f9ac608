"""Per-vector equivalence checking: the reference the packed CEC must match.

These are the one-pattern-at-a-time loops ``repro.synth.cec`` replaced with
bit-parallel evaluation.  They walk every AIG with their own scalar
evaluator, so they share no evaluation code with the kernel under test.
"""

from __future__ import annotations

import itertools
import random

from repro.hdl.testbench import StimulusRunner
from repro.synth.aig import Aig, lit_compl, lit_node
from repro.synth.cec import CecResult


def scalar_evaluate(aig: Aig, assignment: dict[str, bool]) -> dict[str, bool]:
    """Evaluate outputs for one complete input assignment, node by node."""
    value: dict[int, bool] = {0: False}
    for name in aig.inputs:
        value[lit_node(aig.add_input(name))] = bool(assignment[name])

    def lit_val(literal: int) -> bool:
        v = value[lit_node(literal)]
        return (not v) if lit_compl(literal) else v

    for node in aig.topological_order():
        if aig.is_input(node):
            value.setdefault(node, False)
        else:
            a, b = aig.fanins(node)
            value[node] = lit_val(a) and lit_val(b)
    return {name: lit_val(out) for name, out in aig.outputs}


def check_aigs(a: Aig, b: Aig, max_exhaustive_inputs: int = 12,
               random_vectors: int = 256, seed: int = 11) -> CecResult:
    inputs = sorted(set(a.inputs) | set(b.inputs))
    outs_a = {name for name, _ in a.outputs}
    outs_b = {name for name, _ in b.outputs}
    shared = sorted(outs_a & outs_b)
    if not shared:
        return CecResult(equivalent=False, mismatched_outputs=["<no shared outputs>"])

    def compare(assignment: dict[str, bool]) -> list[str]:
        full = {name: assignment.get(name, False) for name in inputs}
        va = scalar_evaluate(a, {n: full.get(n, False) for n in a.inputs})
        vb = scalar_evaluate(b, {n: full.get(n, False) for n in b.inputs})
        return [name for name in shared if va[name] != vb[name]]

    if len(inputs) <= max_exhaustive_inputs:
        count = 0
        for bits in itertools.product([False, True], repeat=len(inputs)):
            assignment = dict(zip(inputs, bits))
            bad = compare(assignment)
            count += 1
            if bad:
                return CecResult(False, {k: int(v) for k, v in assignment.items()},
                                 bad, count, exhaustive=True)
        return CecResult(True, None, [], count, exhaustive=True)

    rng = random.Random(seed)
    for i in range(random_vectors):
        assignment = {name: bool(rng.getrandbits(1)) for name in inputs}
        bad = compare(assignment)
        if bad:
            return CecResult(False, {k: int(v) for k, v in assignment.items()},
                             bad, i + 1)
    return CecResult(True, None, [], random_vectors)


def check_against_simulation(synth, source, module, vectors: int = 64,
                             seed: int = 13) -> CecResult:
    if synth.is_sequential:
        raise ValueError("check_against_simulation only handles combinational modules")
    rng = random.Random(seed)
    runner = StimulusRunner(source, module.name)
    in_widths = {name: runner.width_of(name) for name in runner.inputs}

    for i in range(vectors):
        stimulus = {name: rng.getrandbits(w) for name, w in in_widths.items()}
        sim_out = runner.apply(stimulus)
        aig_assign: dict[str, bool] = {}
        for name, value in stimulus.items():
            for bit in range(in_widths[name]):
                aig_assign[f"{name}[{bit}]"] = bool((value >> bit) & 1)
        aig_out = scalar_evaluate(
            synth.aig, {n: aig_assign.get(n, False) for n in synth.aig.inputs})
        bad: list[str] = []
        for out_name in runner.outputs:
            sim_val = sim_out[out_name]
            if sim_val.has_x:
                continue
            width = runner.width_of(out_name)
            aig_val = 0
            for bit in range(width):
                if aig_out.get(f"{out_name}[{bit}]", False):
                    aig_val |= 1 << bit
            if aig_val != sim_val.to_int():
                bad.append(out_name)
        if bad:
            return CecResult(False, stimulus, bad, i + 1)
    return CecResult(True, None, [], vectors)
