"""Workloads, their cells, and the digest that checks a cell's output.

A cell is one launch of a registered flow through the public
``get_flow(name).launch(RunRequest(...))``: one problem or task, at one
flow seed, on ``chatgpt-3.5``, with ``jobs=1``.  The cells of a run are a
pure function of the workload seed; the program only ever sees them.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass
from typing import Any

MODEL = "chatgpt-3.5"
# Flow seeds the checked-in reference covers; workload seeds draw from it.
FLOW_SEED_POOL = 32
# The security flow's own default grid.  It holds the two c2_adder8 cells
# (flow seeds 1 and 2) whose 17-input exhaustive CEC runs for tens of
# seconds.  They are kept on purpose: they are the workload's tail.  Drawn
# flow seeds would put a seed-dependent number of such cells in a run.
SECURITY_FLOW_SEEDS = (0, 1, 2)
# Blocks the warm-store workload prefills in setup and then cycles over.
WARM_BLOCKS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    flow: str
    warm_store: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("vrank-cold", "vrank"),
    Workload("vrank-warm-store", "vrank", warm_store=True),
    Workload("security", "security"),
    Workload("agent", "agent"),
)}


@dataclass(frozen=True, order=True)
class Cell:
    flow: str
    item: str          # problem id, or task id for the agent flow
    flow_seed: int

    @property
    def key(self) -> str:
        return f"{self.flow}|{self.item}|{self.flow_seed}"


class Program:
    """Handles into a freshly imported ``repro``.

    Built after every (re-)import, so a setup repetition that purges and
    re-imports the package never runs cells against stale modules.
    """

    def __init__(self) -> None:
        registry = importlib.import_module("repro.flows.registry")
        cli = importlib.import_module("repro.flows.__main__")
        problems = importlib.import_module("repro.bench.problems")
        tasks = importlib.import_module("repro.tasks")
        compile_mod = importlib.import_module("repro.hdl.compile")
        store = importlib.import_module("repro.store")
        self.get_flow = registry.get_flow
        self.RunRequest = registry.RunRequest
        self.summarize = cli._summarize
        self.get_problem = problems.get_problem
        self.problem_ids = [p.problem_id for p in problems.all_problems()]
        self.task_ids = [t.task_id for t in tasks.TASKS]
        self.CompileCache = compile_mod.CompileCache
        self.set_default_cache = compile_mod.set_default_cache
        self.get_default_cache = compile_mod.get_default_cache
        self.DiskStore = store.DiskStore
        self.set_default_store = store.set_default_store

    def fresh_cache(self) -> None:
        """Give the next cell an empty in-memory compile cache (tiered over
        the installed disk store, when there is one)."""
        self.set_default_cache(self.CompileCache())

    def launch(self, cell: Cell) -> Any:
        if cell.flow == "agent":
            request = self.RunRequest(problems=[], tasks=(cell.item,),
                                      model=MODEL, seed=cell.flow_seed,
                                      jobs=1)
        else:
            request = self.RunRequest(
                problems=[self.get_problem(cell.item)], model=MODEL,
                seed=cell.flow_seed, jobs=1)
        return self.get_flow(cell.flow).launch(request)

    def digest(self, result: Any) -> str:
        """SHA-256 of the CLI's summary of ``result`` as sorted JSON."""
        text = json.dumps(self.summarize(result), sort_keys=True,
                          default=str)
        return hashlib.sha256(text.encode()).hexdigest()


def load_program(fresh: bool = False) -> Program:
    """Import ``repro``; with ``fresh``, purge it first so the import (and
    every lazy module-level set-up) is paid again."""
    if fresh:
        for name in [n for n in sys.modules
                     if n == "repro" or n.startswith("repro.")]:
            del sys.modules[name]
    return Program()


def blocks_for(workload: Workload, seed: int, problem_ids: list[str],
               task_ids: list[str]) -> list[list[Cell]]:
    """The workload's cells as blocks that each hold every problem (or
    task) equally often, so any whole number of blocks has the same mix.

    Each problem walks its own seeded permutation of the flow-seed pool,
    so block ``b`` pairs every problem with a fresh flow seed.  Both vrank
    workloads draw from the same stream: the warm-store blocks are the
    first cold ones, and their digests compare cell for cell.  Security
    is one block, its whole grid, so a run never stops short of a slow
    cell.
    """
    items = task_ids if workload.flow == "agent" else problem_ids
    rng = random.Random(f"{workload.flow}:{seed}")
    if workload.flow == "security":
        blocks = [[Cell("security", item, fs) for fs in SECURITY_FLOW_SEEDS
                   for item in items]]
    else:
        orders = {item: rng.sample(range(FLOW_SEED_POOL), FLOW_SEED_POOL)
                  for item in items}
        blocks = [[Cell(workload.flow, item, orders[item][b])
                   for item in items] for b in range(FLOW_SEED_POOL)]
    for block in blocks:
        rng.shuffle(block)
    return blocks[:WARM_BLOCKS] if workload.warm_store else blocks


def reference_cells(program: Program) -> list[Cell]:
    """Every cell any workload seed can draw."""
    cells = [Cell("security", p, fs) for fs in SECURITY_FLOW_SEEDS
             for p in program.problem_ids]
    for fs in range(FLOW_SEED_POOL):
        cells += [Cell("vrank", p, fs) for p in program.problem_ids]
        cells += [Cell("agent", t, fs) for t in program.task_ids]
    return cells
