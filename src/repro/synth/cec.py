"""Combinational equivalence checking.

Two modes:

* AIG vs AIG — exhaustive for small input counts, random-vector otherwise.
* AIG vs behavioural simulation — validates the synthesizer itself against
  the event-driven simulator (the same cross-check the paper's repair loop
  calls "C-RTL co-simulation", one level down).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..hdl import ast as A
from ..hdl.testbench import StimulusRunner
from .aig import Aig
from .synthesize import SynthesizedModule


@dataclass
class CecResult:
    equivalent: bool
    counterexample: dict[str, int] | None = None
    mismatched_outputs: list[str] = field(default_factory=list)
    vectors_checked: int = 0
    exhaustive: bool = False


# Exhaustive CEC walks the 2^n assignments in windows of this many patterns,
# one bit per pattern, so memory stays bounded whatever n is.
_WINDOW_BITS = 12
_WINDOW = 1 << _WINDOW_BITS


def _periodic(position: int) -> int:
    """Window word whose bit ``j`` is bit ``position`` of ``j``."""
    period = 2 << position
    block = ((1 << (1 << position)) - 1) << (1 << position)
    return block * (((1 << _WINDOW) - 1) // ((1 << period) - 1))


# Truth-table word of every index bit below the window width.
_PERIODIC = tuple(_periodic(p) for p in range(_WINDOW_BITS))


def _first_mismatch(va: dict[str, int], vb: dict[str, int],
                    shared: list[str]) -> tuple[int, list[str]] | None:
    """Lowest pattern bit where any shared output differs, and those outputs."""
    diff = 0
    for name in shared:
        diff |= va[name] ^ vb[name]
    if not diff:
        return None
    bit = (diff & -diff).bit_length() - 1
    return bit, [name for name in shared if (va[name] ^ vb[name]) >> bit & 1]


def check_aigs(a: Aig, b: Aig, max_exhaustive_inputs: int = 12,
               random_vectors: int = 256, seed: int = 11) -> CecResult:
    """Compare two AIGs on their shared outputs.

    Exhaustive mode checks the assignments in
    ``itertools.product([False, True], repeat=n)`` order over the sorted
    input names, so ``inputs[0]`` is the most significant bit of the vector
    index.  Random mode draws ``random_vectors`` assignments from
    ``random.Random(seed)``, input by input in sorted order.  Either way
    the patterns are evaluated bit-parallel, and the first failing pattern
    in that order is reported with ``vectors_checked`` counting up to it.
    """
    inputs = sorted(set(a.inputs) | set(b.inputs))
    outs_a = {name for name, _ in a.outputs}
    outs_b = {name for name, _ in b.outputs}
    shared = sorted(outs_a & outs_b)
    if not shared:
        return CecResult(equivalent=False, mismatched_outputs=["<no shared outputs>"])
    n = len(inputs)

    if n <= max_exhaustive_inputs:
        low_bits = min(_WINDOW_BITS, n)
        width = 1 << low_bits
        ones = (1 << width) - 1
        for base in range(0, 1 << n, width):
            words = {}
            for k, name in enumerate(inputs):
                position = n - 1 - k
                if position < low_bits:
                    words[name] = _PERIODIC[position] & ones
                else:
                    words[name] = ones if base >> position & 1 else 0
            found = _first_mismatch(a.evaluate_words(words, width),
                                    b.evaluate_words(words, width), shared)
            if found:
                bit, bad = found
                index = base + bit
                return CecResult(False, {name: index >> (n - 1 - k) & 1
                                         for k, name in enumerate(inputs)},
                                 bad, index + 1, exhaustive=True)
        return CecResult(True, None, [], 1 << n, exhaustive=True)

    rng = random.Random(seed)
    words = dict.fromkeys(inputs, 0)
    for i in range(random_vectors):
        for name in inputs:
            words[name] |= rng.getrandbits(1) << i
    found = _first_mismatch(a.evaluate_words(words, random_vectors),
                            b.evaluate_words(words, random_vectors), shared)
    if found:
        bit, bad = found
        return CecResult(False, {name: words[name] >> bit & 1 for name in inputs},
                         bad, bit + 1)
    return CecResult(True, None, [], random_vectors)


def check_against_simulation(synth: SynthesizedModule, source: str,
                             module: A.Module, vectors: int = 64,
                             seed: int = 13) -> CecResult:
    """Random-vector check: synthesized AIG vs behavioural simulation.

    Only valid for purely combinational modules (no flops).
    """
    if synth.is_sequential:
        raise ValueError("check_against_simulation only handles combinational modules")
    rng = random.Random(seed)
    runner = StimulusRunner(source, module.name)
    in_widths = {name: runner.width_of(name) for name in runner.inputs}
    stimuli = [{name: rng.getrandbits(w) for name, w in in_widths.items()}
               for _ in range(vectors)]

    # The AIG sees every vector at once: bit i of each word is vector i.
    words: dict[str, int] = {}
    for i, stimulus in enumerate(stimuli):
        for name, value in stimulus.items():
            for bit in range(in_widths[name]):
                key = f"{name}[{bit}]"
                words[key] = words.get(key, 0) | ((value >> bit) & 1) << i
    aig_out = synth.aig.evaluate_words(words, vectors)

    # The simulator runs vector by vector, so the first mismatch wins over
    # an error on any later vector.
    for i, stimulus in enumerate(stimuli):
        sim_out = runner.apply(stimulus)
        bad: list[str] = []
        for out_name in runner.outputs:
            sim_val = sim_out[out_name]
            if sim_val.has_x:
                continue  # X from simulation can't be compared bitwise
            width = runner.width_of(out_name)
            aig_val = 0
            for bit in range(width):
                aig_val |= (aig_out.get(f"{out_name}[{bit}]", 0) >> i & 1) << bit
            if aig_val != sim_val.to_int():
                bad.append(out_name)
        if bad:
            return CecResult(False, stimulus, bad, i + 1)
    return CecResult(True, None, [], vectors)
