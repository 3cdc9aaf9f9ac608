"""Testbench execution harness and direct stimulus driver.

Two ways to exercise a design:

* :func:`run_testbench` — compile DUT + testbench source together, simulate,
  and score by the PASS/FAIL lines the testbench prints (the contract used by
  the paper's feedback loops: the EDA tool output *is* the reward signal).
* :class:`StimulusRunner` — poke/peek ports directly from Python, used by the
  ranking flows (VRank/AutoChip) to compare candidate designs on identical
  input vectors without trusting any generated testbench.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..obs import get_metrics, get_tracer
from ..store import content_key
from .compile import (CompileCache, CompiledDesign, cache_enabled,
                      compile_design, get_default_cache, source_key)
from .compiled import (CompiledProgram, CompiledSim, UnsupportedDesign,
                       XBail, compile_program)
from .elaborate import Design
from .errors import HdlError
from .simulator import Frame, Simulator
from .values import Logic


@dataclass
class TestbenchResult:
    """Outcome of one compile+simulate run of a testbench."""

    compiled: bool
    pass_count: int = 0
    fail_count: int = 0
    error_count: int = 0
    finished: bool = False
    output: list[str] = field(default_factory=list)
    compile_error: str = ""
    runtime_error: str = ""
    sim_time: int = 0

    @property
    def total_checks(self) -> int:
        return self.pass_count + self.fail_count + self.error_count

    @property
    def score(self) -> float:
        """Fraction of checks passed; 0.0 when nothing ran or compile failed."""
        if not self.compiled or self.runtime_error:
            return 0.0
        total = self.total_checks
        if total == 0:
            # A testbench that finished but checked nothing gets no credit.
            return 0.0
        return self.pass_count / total

    @property
    def passed(self) -> bool:
        return (self.compiled and not self.runtime_error and self.finished
                and self.fail_count == 0 and self.error_count == 0
                and self.pass_count > 0)

    def feedback(self, max_lines: int = 12) -> str:
        """Tool feedback text in the shape an LLM repair loop consumes."""
        if not self.compiled:
            return f"COMPILE ERROR:\n{self.compile_error}"
        if self.runtime_error:
            return f"RUNTIME ERROR:\n{self.runtime_error}"
        lines = [ln for ln in self.output
                 if "FAIL" in ln or "ERROR" in ln or "PASS" in ln]
        header = (f"simulation finished at t={self.sim_time}: "
                  f"{self.pass_count} passed, "
                  f"{self.fail_count + self.error_count} failed")
        return "\n".join([header] + lines[:max_lines])


def _copy_result(result: TestbenchResult) -> TestbenchResult:
    """Detached copy so cached results can't be poisoned by the caller."""
    return replace(result, output=list(result.output))


def _scan_checks(result: TestbenchResult) -> None:
    for line in result.output:
        if line.startswith("ERROR:"):
            continue  # already counted via error_count
        if "FAIL" in line:
            result.fail_count += 1
        elif "PASS" in line:
            result.pass_count += 1


def _simulate(design: Design, max_time: int, seed: int) -> TestbenchResult:
    sim = Simulator(design, seed=seed)
    result = TestbenchResult(compiled=True)
    try:
        sim.run(max_time=max_time)
    except HdlError as exc:
        result.runtime_error = str(exc)
    result.output = sim.output
    result.error_count = sim.error_count
    result.finished = sim.finished
    result.sim_time = sim.time
    _scan_checks(result)
    return result


def _simulate_compiled(program: CompiledProgram, max_time: int, seed: int,
                       codes: dict | None = None) -> TestbenchResult:
    """Run the compiled engine (``codes``: the compile cache's code memo).
    Raises :class:`XBail` when the event engine must re-run the case (it
    reproduces the authoritative error)."""
    sim = CompiledSim(program, seed=seed, codes=codes)
    sim.run(max_time=max_time)
    result = TestbenchResult(compiled=True)
    result.output = sim.output
    result.error_count = sim.error_count
    result.finished = sim.finished
    result.sim_time = sim.time
    _scan_checks(result)
    return result


def _obtain_program(compiled: CompiledDesign, cache: CompileCache,
                    use_cache: bool) -> tuple:
    """``("ok", program)`` or ``("ineligible", reason)`` for a design,
    served from the program cache when possible (negative results cache
    too, so an unsupported design is analysed once)."""
    if use_cache:
        entry = cache.get_program(compiled.key)
        if entry is not None:
            return entry
    with get_tracer().span("hdl.compile_program", top=compiled.top) as sp:
        try:
            entry = ("ok", compile_program(compiled.design))
        except UnsupportedDesign as exc:
            entry = ("ineligible", str(exc))
        sp.set(eligible=entry[0] == "ok")
    if use_cache:
        cache.put_program(compiled.key, entry)
    return entry


def _select_program(compiled: CompiledDesign, mode: str, cache: CompileCache,
                    use_cache: bool, counters: str) -> CompiledProgram | None:
    """The compiled-engine program for ``compiled``, or ``None`` for the
    event engine.

    ``auto`` uses the compiled engine only when the program cache can
    amortize compilation (one-shot uncached runs are faster on the event
    engine); ``compiled`` always tries it.  An ineligible design counts
    under ``<counters>.ineligible`` when tracing.
    """
    if not (mode == "compiled" or (mode == "auto" and use_cache)):
        return None
    entry = _obtain_program(compiled, cache, use_cache)
    if entry[0] == "ok":
        return entry[1]
    if get_tracer().enabled:
        get_metrics().counter(f"{counters}.ineligible").add(1)
    return None


def _run_engine(compiled: CompiledDesign, max_time: int, seed: int,
                mode: str, cache: CompileCache,
                use_cache: bool) -> TestbenchResult:
    """Simulate with the selected engine; results are engine-independent.

    Ineligible designs and runtime bails fall back to the event engine —
    the authoritative semantics.
    """
    tracer = get_tracer()
    program = _select_program(compiled, mode, cache, use_cache, "sim.backend")
    if program is not None:
        try:
            with tracer.span("hdl.sim", backend="compiled", top=compiled.top):
                return _simulate_compiled(program, max_time, seed,
                                          cache.codes if use_cache else None)
        except XBail:
            if tracer.enabled:
                get_metrics().counter("sim.backend.fallbacks").add(1)
    with tracer.span("hdl.sim", backend="event", top=compiled.top):
        return _simulate(compiled.design, max_time, seed)


def run_testbench(source: str, top: str, max_time: int = 200_000,
                  seed: int = 1, tb_source: str | None = None,
                  cache: CompileCache | None = None) -> TestbenchResult:
    """Compile and run testbench module ``top``.

    ``source`` holds the DUT (plus testbench, in the legacy single-blob
    form); passing the testbench separately via ``tb_source`` lets the
    compile cache reuse the testbench parse across every candidate of a
    problem.  A run is a pure function of ``(sources, top, max_time, seed)``,
    so identical invocations are served from the result memo.
    """
    from ..config import get_settings
    units = (source,) if tb_source is None else (source, tb_source)
    use_cache = cache_enabled()
    cache = cache or get_default_cache()
    mode = get_settings().sim_engine
    if use_cache:
        rkey = ("tb", tuple(source_key(u) for u in units), top, max_time,
                seed, mode)
        hit = cache.get_result(rkey)
        if hit is not None:
            return _copy_result(hit)
    try:
        compiled = compile_design(units, top, cache=cache)
    except HdlError as exc:
        if tb_source is None:
            result = TestbenchResult(compiled=False, compile_error=str(exc))
        else:
            # Report the error the concatenated compile would have produced
            # (feedback text feeds seeded repair loops, so it must not drift
            # with the compilation strategy).  A malformed DUT can even
            # splice into the testbench text and "compile" — honour that.
            result = run_testbench("\n".join(units), top, max_time=max_time,
                                   seed=seed, cache=cache)
        if use_cache:
            cache.put_result(rkey, result)
        return _copy_result(result)
    result = _run_engine(compiled, max_time, seed, mode, cache, use_cache)
    if use_cache:
        cache.put_result(rkey, result)
    return _copy_result(result)


class StimulusRunner:
    """Drives a single module's ports directly, without a Verilog testbench.

    The runner picks its engine by ``run_testbench``'s rule; ``engine``
    (``"auto"``, ``"event"`` or ``"compiled"``) overrides
    ``REPRO_SIM_ENGINE`` for this runner, so the fuzz oracle and the tests
    can put the two engines side by side.  On the compiled engine it logs
    every poke and settle; when a settle bails (where the event engine
    would raise, on ``$finish``, runaway activity or a design that never
    settles) it rebuilds the event runner, replays the log there and stays
    on it.  Peeks, and the errors a settle raises, are therefore always
    the event engine's.
    """

    def __init__(self, source: str | CompiledDesign, top: str, seed: int = 1,
                 cache: CompileCache | None = None, *,
                 engine: str | None = None):
        from ..config import get_settings
        if isinstance(source, CompiledDesign):
            compiled = source
        else:
            compiled = compile_design(source, top, cache=cache)
        self.design = compiled.design
        self.top = top
        self._seed = seed
        self._ports = {name: sig for name, sig in self.design.signals.items()
                       if sig.is_port}
        self._sim: Simulator | None = None
        self._csim: CompiledSim | None = None
        self._log: list[tuple] = []     # pokes and settles, for a replay
        use_cache = cache_enabled()
        cache = cache or get_default_cache()
        program = _select_program(compiled, engine or get_settings().sim_engine,
                                  cache, use_cache, "sim.driver")
        if program is None:
            self._start_event()
        else:
            if get_tracer().enabled:
                get_metrics().counter("sim.driver.compiled").add(1)
            self._csim = CompiledSim(program, seed=seed,
                                     codes=cache.codes if use_cache else None)
            names = program.meta["names"]
            self._index = {name: i for i, name in enumerate(names)
                          if name in self._ports}
            self._csim.prime()
        self.settle()

    def _start_event(self) -> None:
        """A fresh event-engine runner with its combinational processes
        queued for time-zero priming."""
        self._sim = Simulator(self.design, seed=self._seed)
        for idx, proc in enumerate(self.design.processes):
            if proc.is_comb:
                self._sim._active.append(("comb", idx))

    def _fall_back(self) -> None:
        """Leave the compiled engine: replay the log on the event engine."""
        if get_tracer().enabled:
            get_metrics().counter("sim.driver.fallbacks").add(1)
        log, self._log = self._log, []
        self._csim = None
        self._start_event()
        for op in log:
            if op[0] == "poke":
                self._sim._set_signal(op[1], op[2])
            else:
                self._settle_event(op[1])

    @property
    def inputs(self) -> list[str]:
        return [n for n, s in self._ports.items() if s.direction == "input"]

    @property
    def outputs(self) -> list[str]:
        return [n for n, s in self._ports.items() if s.direction == "output"]

    def width_of(self, port: str) -> int:
        return self._ports[port].width

    def poke(self, port: str, value: int) -> None:
        sig = self._ports.get(port)
        if sig is None or sig.direction != "input":
            raise KeyError(f"'{port}' is not an input port of '{self.top}'")
        new = Logic.from_int(value, sig.width)
        if self._csim is None:
            self._sim._set_signal(port, new)
        else:
            self._log.append(("poke", port, new))
            self._csim.set(self._index[port], new.value, 0)

    def peek(self, port: str) -> Logic:
        if port not in self._ports:
            raise KeyError(f"'{port}' is not a port of '{self.top}'")
        if self._csim is None:
            return self._sim.values[port]
        i = self._index[port]
        return Logic(self._ports[port].width, self._csim.V[i], self._csim.X[i])

    def settle(self, max_iters: int = 100_000) -> None:
        """Drain the active/NBA queues at the current time (delta cycles)."""
        if self._csim is None:
            self._settle_event(max_iters)
            return
        self._log.append(("settle", max_iters))
        try:
            self._csim.settle(max_iters)
        except XBail:
            self._fall_back()

    def _settle_event(self, max_iters: int) -> None:
        sim = self._sim
        iters = 0
        sim._steps_this_slot = 0
        while sim._active or sim._nba:
            iters += 1
            if iters > max_iters:
                raise HdlError("design did not settle (combinational loop?)")
            while sim._active:
                item = sim._active.pop(0)
                tag = item[0]
                if tag == "comb":
                    sim._run_comb(item[1])
                elif tag == "edge":
                    proc = sim.design.processes[item[1]]
                    sim._exec_sync(proc.body, Frame(proc.scope))
                # Coroutines never start, so nothing else is queued.
            sim._apply_nba()

    def clock_cycle(self, clk: str = "clk") -> None:
        """Apply one rising edge (and return the clock to zero)."""
        self.poke(clk, 0)
        self.settle()
        self.poke(clk, 1)
        self.settle()
        self.poke(clk, 0)
        self.settle()

    def apply(self, vector: dict[str, int], clk: str | None = None) -> dict[str, Logic]:
        """Drive one input vector; pulse ``clk`` if given; return all outputs."""
        for port, value in vector.items():
            self.poke(port, value)
        if clk is not None:
            self.clock_cycle(clk)
        else:
            self.settle()
        return {name: self.peek(name) for name in self.outputs}


def exercise_module(source: str | CompiledDesign, top: str,
                    vectors: list[dict[str, int]],
                    clk: str | None = None,
                    reset: str | None = None,
                    cache: CompileCache | None = None) -> list[dict[str, str]] | None:
    """Run input vectors through a module; returns output signatures.

    Returns ``None`` when the design fails to compile or simulate — callers
    use that as "candidate is broken".  Output values are stringified so X
    states are preserved in the signature (important for consistency
    clustering in VRank).

    The outcome is a pure function of the key below (the driver runs with
    seed 1, and either engine gives the event engine's rows), so source
    inputs are memoized in the compile cache's result layer.  Vector item
    order stays in the key: it is the poke order.  ``None`` is cached too, wrapped in a 1-tuple so it
    is not read as a miss; a hit is unpickled, so the rows stay private.
    """
    if isinstance(source, CompiledDesign) or not cache_enabled():
        return _exercise(source, top, vectors, clk, reset, cache)
    cache = cache or get_default_cache()
    # Hashed once here (the layer takes a digest as is): ``repr`` of the
    # vectors costs more than the rest of a cold lookup.
    key = content_key(("exercise", source_key(source), top,
                       tuple(tuple(v.items()) for v in vectors), clk, reset))
    hit = cache.get_result(key)
    if hit is not None:
        return hit[0]
    rows = _exercise(source, top, vectors, clk, reset, cache)
    cache.put_result(key, (rows,))
    return rows


def _exercise(source: str | CompiledDesign, top: str,
              vectors: list[dict[str, int]], clk: str | None,
              reset: str | None,
              cache: CompileCache | None) -> list[dict[str, str]] | None:
    try:
        runner = StimulusRunner(source, top, cache=cache)
        if reset is not None and reset in runner.inputs:
            runner.poke(reset, 1)
            if clk is not None:
                runner.clock_cycle(clk)
            runner.poke(reset, 0)
            runner.settle()
        signatures: list[dict[str, str]] = []
        for vec in vectors:
            usable = {k: v for k, v in vec.items() if k in runner.inputs}
            outs = runner.apply(usable, clk=clk)
            signatures.append({name: str(val) for name, val in outs.items()})
        return signatures
    except (HdlError, KeyError):
        return None
