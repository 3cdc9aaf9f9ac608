"""Self-tests of the flow-cell benchmark.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from flowcells import (WORKLOADS, Cell, blocks_for, load_program,  # noqa: E402
                       reference_cells)
from layertrace import PROBES, TOOLS, LayerTrace, _repro_modules  # noqa: E402

CHEAP = Cell("vrank", "c1_and4", 0)


@pytest.fixture(scope="module")
def program():
    saved = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    run.scrub_env()
    yield load_program()
    os.environ.update(saved)


def test_cells_are_a_pure_function_of_the_seed(program):
    ids, tasks = program.problem_ids, program.task_ids
    for workload in WORKLOADS.values():
        first = blocks_for(workload, 7, list(ids), list(tasks))
        assert first == blocks_for(workload, 7, list(ids), list(tasks))
        cells = [cell for block in first for cell in block]
        assert len(set(cells)) == len(cells)
        items = tasks if workload.flow == "agent" else ids
        for block in first:   # every block holds every item equally often
            per_item = len(block) // len(items)
            assert sorted(cell.item for cell in block) == \
                sorted(items * per_item)
    cold = blocks_for(WORKLOADS["vrank-cold"], 3, ids, tasks)
    warm = blocks_for(WORKLOADS["vrank-warm-store"], 3, ids, tasks)
    assert warm == cold[:len(warm)]
    assert cold != blocks_for(WORKLOADS["vrank-cold"], 4, ids, tasks)


def test_every_drawable_cell_has_a_reference_digest(program):
    reference = run.load_reference()
    assert {c.key for c in reference_cells(program)} == set(reference)
    for workload in WORKLOADS.values():
        for seed in (0, 1, 12345):
            for block in blocks_for(workload, seed, program.problem_ids,
                                    program.task_ids):
                assert all(cell.key in reference for cell in block)


def _bindings() -> dict:
    """Identity of every attribute a probe could replace."""
    for _layer, target, _hook in PROBES:
        importlib.import_module(target.split(":")[0])
    out = {}
    for module in _repro_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = id(value)
    for _layer, target, _hook in PROBES:
        module_name, qualname = target.split(":")
        if "." in qualname:
            owner, attr = qualname.split(".")
            cls = getattr(sys.modules[module_name], owner)
            out[(module_name, qualname)] = id(cls.__dict__[attr])
    return out


def test_wrappers_replace_callers_bindings_and_restore_them(program):
    import repro.flows.security as security
    import repro.hdl.compile as compile_mod
    import repro.hdl.parser as parser
    import repro.synth.cec as cec
    before = _bindings()
    originals = (compile_mod.elaborate, security.check_aigs,
                 security.synthesize_module, parser.Parser.parse_source)
    trace = LayerTrace()
    trace.install()
    try:
        now = (compile_mod.elaborate, security.check_aigs,
               security.synthesize_module, parser.Parser.parse_source)
        assert all(a is not b for a, b in zip(originals, now))
        assert security.check_aigs is cec.check_aigs
    finally:
        trace.uninstall()
    assert _bindings() == before


def test_layer_self_times_add_up_to_the_cell_wall_time(program):
    checker = run.Checker(run.load_reference())
    trace = LayerTrace()
    trace.install()
    try:
        ok, _ = run.run_cell(program, checker, CHEAP, runner=trace.cell)
    finally:
        trace.uninstall()
    assert ok
    total = sum(stats.self_s for stats in trace.layers.values())
    assert total == pytest.approx(trace.counters["flows.wall_s"], rel=1e-9)
    assert trace.layers["hdl.lexer"].calls > 0
    assert trace.layers["flows"].calls == 1


def test_a_tampered_reference_digest_is_a_failed_cell(program):
    reference = run.load_reference()
    good = run.measure(program, [[CHEAP]], run.Checker(reference), 0)
    assert (good["attempted"], good["failed"]) == (1, 0)
    tampered = dict(reference, **{CHEAP.key: "0" * 64})
    checker = run.Checker(tampered)
    bad = run.measure(program, [[CHEAP]], checker, 0)
    assert (bad["attempted"], bad["failed"]) == (1, 1)
    assert checker.mismatches == [CHEAP.key]


def test_emitted_metrics_are_the_ones_benchmark_json_declares():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    traced = {k: unit for k, (_, unit) in LayerTrace().metrics().items()}
    traced["flows.traced_cells_per_s"] = "1/s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_registered_tool_has_a_call_counter(program):
    from repro.tools import list_tools
    assert [tool.name for tool in list_tools()] == list(TOOLS)
