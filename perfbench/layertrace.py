"""Per-layer self time from outside the program.

The traced run attributes each cell's wall time to the layers of
``repro`` by wrapping their public entry points, so no span has to live
inside ``src/``.  A wrapper replaces *every* binding callers use: the
attribute on the defining class for methods, and for module functions
every loaded ``repro`` module that holds the same object (``from x import
f`` copies the binding, e.g. ``repro.hdl.compile.elaborate`` and
``repro.flows.security.check_aigs``).  :meth:`LayerTrace.uninstall`
restores every original, including bindings copied from a wrapper by a
module imported while tracing was on.

Self time is a frame's duration minus the part its child frames cover;
time inside a cell that no wrapper claims is ``flows`` time, so the layer
self times plus ``flows`` add up to the cell wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter
from typing import Any, Callable

# Layers in report order; ``flows`` is cell time outside every other layer.
LAYERS = ("hdl.lexer", "hdl.parser", "hdl.elaborate", "hdl.codegen",
          "hdl.sim", "hdl.compile", "store", "synth", "hls", "llm",
          "llm.rag", "critic", "tools", "core.planner", "exec", "flows")

TOOLS = ("compile_rtl", "critic_review", "crosscheck", "doc_lookup",
         "finish", "fuzz_spot_check", "generate_rtl", "hls_repair",
         "lint_rtl", "ppa_report", "run_testbench", "synthesize",
         "tune_synthesis")

CACHE_REGIONS = ("parse", "design", "program", "result")


# Counter hooks: ``hook(trace, args, kwargs, result)`` after a traced call.

def _count_tokens(trace, args, kwargs, result):
    trace.add("hdl.lexer.tokens", len(result))


def _get_bytes(trace, args, kwargs, result):
    trace.add("store.get.bytes", len(result) if result is not None else 0)


def _put_bytes(trace, args, kwargs, result):
    blob = args[3] if len(args) > 3 else kwargs["blob"]
    trace.add("store.put.bytes", len(blob))


def _cec_vectors(trace, args, kwargs, result):
    trace.add("synth.cec.vectors", result.vectors_checked)


def _generation(trace, args, kwargs, result):
    trace.add("llm.generations", 1)


def _tool_call(trace, args, kwargs, result):
    trace.add(f"tools.{args[0].name}.calls", 1)


# (layer, "module:qualname", counter hook).  ``exec`` entries also re-root
# the task function they are handed into ``flows``, so exec self time is
# the scheduler's own overhead and the cell body stays attributable.
PROBES: tuple[tuple[str, str, Callable | None], ...] = (
    ("hdl.lexer", "repro.hdl.lexer:Lexer.tokens", _count_tokens),
    ("hdl.parser", "repro.hdl.parser:Parser.parse_source", None),
    ("hdl.elaborate", "repro.hdl.elaborate:elaborate", None),
    ("hdl.codegen", "repro.hdl.compiled:compile_program", None),
    ("hdl.codegen", "repro.hdl.compiled:CompiledProgram.load", None),
    ("hdl.sim", "repro.hdl.compiled:CompiledSim.run", None),
    ("hdl.sim", "repro.hdl.simulator:Simulator.run", None),
    ("hdl.sim", "repro.hdl.testbench:StimulusRunner.__init__", None),
    ("hdl.sim", "repro.hdl.testbench:StimulusRunner.apply", None),
    ("hdl.sim", "repro.hdl.testbench:exercise_module", None),
    ("hdl.compile", "repro.hdl.compile:CompileCache.compile", None),
    ("hdl.compile", "repro.hdl.compile:CompileCache.parse", None),
    ("hdl.compile", "repro.hdl.compile:CompileCache._parse_shared", None),
    ("hdl.compile", "repro.hdl.compile:CompileCache.get_program", None),
    ("hdl.compile", "repro.hdl.compile:CompileCache.put_program", None),
    ("hdl.compile", "repro.hdl.compile:CompileCache.get_result", None),
    ("hdl.compile", "repro.hdl.compile:CompileCache.put_result", None),
    ("store", "repro.store.backend:DiskStore.get", _get_bytes),
    ("store", "repro.store.backend:DiskStore.put", _put_bytes),
    ("store", "repro.store.backend:MemoryBackend.get", _get_bytes),
    ("store", "repro.store.backend:MemoryBackend.put", _put_bytes),
    ("synth", "repro.synth.synthesize:synthesize_module", None),
    ("synth", "repro.synth.optimize:optimize", None),
    ("synth", "repro.synth.cec:check_aigs", _cec_vectors),
    ("synth", "repro.synth.cec:check_against_simulation", _cec_vectors),
    ("synth", "repro.synth.aig:Aig.evaluate", None),
    ("hls", "repro.hls.interp:Machine.call", None),
    ("hls", "repro.hls.clexer:ctokenize", None),
    ("hls", "repro.hls.cparser:cparse", None),
    ("llm", "repro.llm.model:SimulatedLLM.generate", _generation),
    ("llm", "repro.llm.model:SimulatedLLM.refine", _generation),
    ("llm.rag", "repro.llm.rag:VectorIndex.query", None),
    ("critic", "repro.critic.rules:validate_rtl", None),
    ("critic", "repro.critic.rules:validate_pragmas", None),
    ("critic", "repro.critic:Critic.review", None),
    ("critic", "repro.critic.judge:SimulatedJudge.judge", None),
    ("tools", "repro.tools.spec:ToolSpec.invoke", _tool_call),
    ("core.planner", "repro.core.policy:SimulatedPlanner.plan", None),
    ("exec", "repro.exec.scheduler:SweepScheduler.map", None),
    ("exec", "repro.exec.parallel:ParallelEvaluator.map", None),
)


class _Stats:
    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class LayerTrace:
    """Self time and call counts per layer for cells run on one thread."""

    def __init__(self) -> None:
        self.layers = {name: _Stats() for name in LAYERS}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []      # [layer, start, child seconds]
        self._thread = threading.get_ident()
        self._patches: list[tuple[Any, str, Any]] = []
        self._originals: dict[int, Any] = {}   # id(wrapper) -> original

    # -- accounting ---------------------------------------------------------

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def _enter(self, layer: str) -> list:
        frame = [layer, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, count: bool = True) -> float:
        duration = perf_counter() - frame[1]
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += duration
        stats = self.layers[frame[0]]
        stats.self_s += duration - frame[2]
        if count:
            stats.calls += 1
        return duration

    def cell(self, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run one cell as a ``flows`` root frame; returns (result, wall s)."""
        frame = self._enter("flows")
        try:
            result = fn()
        finally:
            wall = self._exit(frame)
        self.add("flows.wall_s", wall)
        return result, wall

    def _tracing(self) -> bool:
        return bool(self._stack) and threading.get_ident() == self._thread

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable, hook: Callable | None):
        trace = self
        reroot = layer == "exec"

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if not trace._tracing():
                return fn(*args, **kwargs)
            if reroot:
                args = (args[0], trace._rerooted(args[1])) + args[2:]
            frame = trace._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                trace._exit(frame)
            if hook is not None:
                hook(trace, args, kwargs, result)
            return result

        self._originals[id(probe)] = fn
        return probe

    def _rerooted(self, task: Callable) -> Callable:
        """``task`` as cell-body time: a ``flows`` frame, not exec time."""
        trace = self

        def rooted(*args, **kwargs):
            if not trace._tracing():
                return task(*args, **kwargs)
            frame = trace._enter("flows")
            try:
                return task(*args, **kwargs)
            finally:
                trace._exit(frame, count=False)

        return rooted

    def install(self) -> None:
        """Wrap every probe; import its module first if needed."""
        for layer, target, hook in PROBES:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                owner_name, attr = qualname.split(".")
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(layer, raw, hook))
            else:
                original = getattr(module, qualname)
                wrapper = self._wrap(layer, original, hook)
                for holder in _repro_modules():
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, name, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every binding, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        # Modules first imported while tracing copied wrappers by name.
        for holder in _repro_modules():
            for name, value in list(vars(holder).items()):
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(holder, name, original)
        self._originals.clear()

    # -- report -------------------------------------------------------------

    def add_cache_stats(self, stats: dict) -> None:
        """Fold one cell's ``CompileCache.stats()`` into the counters."""
        for region in CACHE_REGIONS:
            self.add(f"hdl.compile.{region}.hits", stats[region].hits)
            self.add(f"hdl.compile.{region}.misses", stats[region].misses)

    def counts(self) -> dict[str, float]:
        """Every figure that must repeat exactly at a fixed cell list."""
        out = {f"{name}.calls": stats.calls
               for name, stats in self.layers.items()}
        out.update((k, v) for k, v in self.counters.items()
                   if k != "flows.wall_s")
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``."""
        out: dict[str, tuple[float, str]] = {}
        for name, stats in self.layers.items():
            out[f"{name}.calls"] = (stats.calls, "count")
            out[f"{name}.self_ms"] = (stats.self_s * 1000.0, "ms")
        get = self.counters.get
        tokens = get("hdl.lexer.tokens", 0)
        lexer_s = self.layers["hdl.lexer"].self_s
        out["hdl.lexer.tokens"] = (tokens, "count")
        out["hdl.lexer.tokens_per_s"] = (
            tokens / lexer_s if lexer_s else 0.0, "1/s")
        for region in CACHE_REGIONS:
            hits = get(f"hdl.compile.{region}.hits", 0)
            misses = get(f"hdl.compile.{region}.misses", 0)
            out[f"hdl.compile.{region}.hits"] = (hits, "count")
            out[f"hdl.compile.{region}.misses"] = (misses, "count")
            out[f"hdl.compile.{region}.hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0, "ratio")
        for key in ("store.get.bytes", "store.put.bytes"):
            out[key] = (get(key, 0), "bytes")
        for key in ("store.disk.hits", "store.disk.misses",
                    "synth.cec.vectors", "llm.generations"):
            out[key] = (get(key, 0), "count")
        for tool in TOOLS:
            out[f"tools.{tool}.calls"] = (get(f"tools.{tool}.calls", 0),
                                          "count")
        out["flows.wall_ms"] = (get("flows.wall_s", 0.0) * 1000.0, "ms")
        return out


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]
