"""Event-driven simulator for elaborated mini-Verilog designs.

Implements the stratified Verilog event model:

* an *active* queue of process activations at the current time,
* a *non-blocking assign* (NBA) update queue applied once the active queue
  drains (its updates can re-fill the active queue within the same time), and
* a time-ordered heap of future wakeups for ``#delay`` and clock generators.

Behavioural statements are interpreted with Python generators so that initial
blocks (and ``always #5 clk = ~clk`` style clock generators) can suspend on
delays and edge waits.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from . import ast as A
from ..obs import get_metrics, get_tracer
from .elaborate import Design, Process, Scope
from .errors import SimulationError
from .values import Logic, concat_all


class _Finish(Exception):
    """Raised internally by $finish/$stop to unwind the current process."""


@dataclass
class Frame:
    """Name-resolution context for one executing process."""

    scope: Scope
    locals: dict[str, Logic] | None = None  # function-call frame


@dataclass
class _EdgeWait:
    edges: tuple[tuple[str, str], ...]
    coroutine: object
    proc: Process
    done: bool = False  # set when resumed, so multi-signal waits fire once


_MAX_STEPS_PER_SLOT = 200_000


class Simulator:
    """Runs an elaborated :class:`Design`.

    Public attributes after :meth:`run`:

    * ``time`` — final simulation time,
    * ``output`` — lines printed by ``$display``/``$write``/``$monitor``,
    * ``error_count`` — number of ``$error`` calls,
    * ``finished`` — whether ``$finish`` was executed.
    """

    def __init__(self, design: Design, seed: int = 1):
        self.design = design
        self.time = 0
        self.output: list[str] = []
        self.error_count = 0
        self.finished = False
        self._rand_state = (seed * 2654435761 + 1) & 0xFFFFFFFF

        # Scheduler telemetry: plain integer counters (cheap enough to keep
        # always on) published to :mod:`repro.obs` after :meth:`run` when
        # tracing is enabled.  ``delta_cycles`` counts active-queue drains
        # within one time slot (the Δ-cycles of the stratified event model).
        self.events_processed = 0
        self.delta_cycles = 0
        self.nba_updates = 0
        self.time_slots = 0

        self.values: dict[str, Logic] = {}
        for sig in design.signals.values():
            self.values[sig.name] = sig.init if sig.init is not None else Logic(sig.width, 0, 0)

        # Static sensitivity maps.
        self._comb_watch: dict[str, list[int]] = {}
        self._edge_watch: dict[str, list[tuple[str, int]]] = {}
        self._edge_waiters: dict[str, list[_EdgeWait]] = {}
        self._coroutines: list[tuple[Process, bool]] = []  # (proc, restart_when_done)

        for idx, proc in enumerate(design.processes):
            if proc.is_comb:
                for dep in proc.deps:
                    self._comb_watch.setdefault(dep, []).append(idx)
            elif proc.kind == "always" and proc.edges:
                for kind, sig in proc.edges:
                    self._edge_watch.setdefault(sig, []).append((kind, idx))
            elif proc.kind == "always":
                self._coroutines.append((proc, True))
            else:  # initial
                self._coroutines.append((proc, False))

        # Scheduler state.
        self._active: list[tuple] = []
        self._nba: list[tuple[str, int | None, int | None, Logic]] = []
        self._heap: list[tuple[int, int, tuple]] = []
        self._heap_seq = 0
        self._steps_this_slot = 0
        self._monitors: list[tuple[Process, A.SysTask]] = []

    # -- small helpers -------------------------------------------------------

    def _rand32(self) -> int:
        self._rand_state = (self._rand_state * 1103515245 + 12345) & 0xFFFFFFFF
        return self._rand_state

    def _resolve(self, frame: Frame, name: str) -> str:
        if name.startswith("\0"):
            return name[1:]
        return frame.scope.resolve(name)

    def _signal_width(self, flat: str) -> int:
        return self.design.signals[flat].width

    # -- expression evaluation -----------------------------------------------

    def eval(self, expr: A.Expr, frame: Frame) -> Logic:
        if isinstance(expr, A.Number):
            return Logic(expr.width, expr.value, expr.xmask)
        if isinstance(expr, A.StringLit):
            data = expr.text.encode()
            width = max(8, len(data) * 8)
            return Logic.from_int(int.from_bytes(data, "big") if data else 0, width)
        if isinstance(expr, A.Identifier):
            if frame.locals is not None and expr.name in frame.locals:
                return frame.locals[expr.name]
            if expr.name in frame.scope.params:
                return Logic.from_int(frame.scope.params[expr.name], 32)
            flat = self._resolve(frame, expr.name)
            return self.values[flat]
        if isinstance(expr, A.Unary):
            v = self.eval(expr.operand, frame)
            return {
                "~": v.not_, "-": v.neg, "!": v.logical_not,
                "&": v.reduce_and, "|": v.reduce_or, "^": v.reduce_xor,
                "+": lambda: v,
            }[expr.op]()
        if isinstance(expr, A.Binary):
            a = self.eval(expr.left, frame)
            # Short-circuit logical ops.
            if expr.op == "&&" and a.is_false():
                return Logic(1, 0, 0)
            if expr.op == "||" and a.is_true():
                return Logic(1, 1, 0)
            b = self.eval(expr.right, frame)
            return {
                "+": a.add, "-": a.sub, "*": a.mul, "/": a.div, "%": a.mod,
                "**": a.pow,
                "&": a.and_, "|": a.or_, "^": a.xor,
                "<<": a.shl, ">>": a.shr,
                "==": a.eq, "!=": a.ne, "<": a.lt, "<=": a.le,
                ">": a.gt, ">=": a.ge,
                "&&": a.logical_and, "||": a.logical_or,
            }[expr.op](b)
        if isinstance(expr, A.Ternary):
            # Verilog sizes a ternary by the wider of its two branches, so
            # both widths matter even when the condition is known (the
            # synthesizer bit-blasts with the same rule).
            cond = self.eval(expr.cond, frame)
            t = self.eval(expr.if_true, frame)
            f = self.eval(expr.if_false, frame)
            width = max(t.width, f.width)
            if cond.is_true():
                return t.resize(width)
            if cond.is_false():
                return f.resize(width)
            return Logic.unknown(width)
        if isinstance(expr, A.Concat):
            return concat_all([self.eval(p, frame) for p in expr.parts])
        if isinstance(expr, A.Replicate):
            count = self.eval(expr.count, frame)
            if count.has_x:
                raise SimulationError("replication count is X")
            return self.eval(expr.inner, frame).replicate(count.to_int())
        if isinstance(expr, A.Index):
            base = self._read_name(expr.target, frame)
            idx = self.eval(expr.index, frame)
            if idx.has_x:
                return Logic.unknown(1)
            return base.bit(idx.to_int())
        if isinstance(expr, A.Slice):
            base = self._read_name(expr.target, frame)
            msb = self.eval(expr.msb, frame)
            lsb = self.eval(expr.lsb, frame)
            if msb.has_x or lsb.has_x:
                raise SimulationError("part-select bound is X")
            return base.slice(msb.to_int(), lsb.to_int())
        if isinstance(expr, A.SystemCall):
            return self._system_func(expr, frame)
        if isinstance(expr, A.FunctionCall):
            return self._call_function(expr, frame)
        raise SimulationError(f"cannot evaluate {type(expr).__name__}")

    def _read_name(self, name: str, frame: Frame) -> Logic:
        if frame.locals is not None and name in frame.locals:
            return frame.locals[name]
        if name in frame.scope.params:
            return Logic.from_int(frame.scope.params[name], 32)
        return self.values[self._resolve(frame, name)]

    def _system_func(self, expr: A.SystemCall, frame: Frame) -> Logic:
        if expr.name == "$time":
            return Logic.from_int(self.time, 64)
        if expr.name == "$random":
            return Logic.from_int(self._rand32(), 32)
        if expr.name in ("$signed", "$unsigned"):
            if len(expr.args) != 1:
                raise SimulationError(f"{expr.name} takes one argument")
            return self.eval(expr.args[0], frame)
        raise SimulationError(f"system function '{expr.name}' not supported in expressions")

    def _call_function(self, expr: A.FunctionCall, frame: Frame) -> Logic:
        func = frame.scope.functions.get(expr.name)
        if func is None:
            raise SimulationError(f"call to undeclared function '{expr.name}'")
        if len(expr.args) != len(func.args):
            raise SimulationError(
                f"function '{func.name}' expects {len(func.args)} args, got {len(expr.args)}")
        locals_: dict[str, Logic] = {}
        params = frame.scope.params
        from .elaborate import eval_const
        for (aname, arng), arg in zip(func.args, expr.args):
            width = 1 if arng is None else eval_const(arng.msb, params) + 1
            locals_[aname] = self.eval(arg, frame).resize(width)
        ret_width = 1 if func.rng is None else eval_const(func.rng.msb, params) + 1
        locals_[func.name] = Logic(ret_width, 0, 0)
        for net in func.locals:
            width = 32 if net.kind == "integer" else (
                1 if net.rng is None else eval_const(net.rng.msb, params) + 1)
            locals_[net.name] = Logic(width, 0, 0)
        inner = Frame(frame.scope, locals_)
        self._exec_sync(func.body, inner)
        return locals_[func.name]

    # -- assignment ------------------------------------------------------------

    def _write_lvalue(self, target: A.LValue, value: Logic, frame: Frame,
                      nonblocking: bool) -> None:
        if frame.locals is not None and not target.name.startswith("\0") \
                and target.name in frame.locals:
            old = frame.locals[target.name]
            frame.locals[target.name] = self._merge(old, target, value, frame)
            return
        flat = self._resolve(frame, target.name)
        if target.index is None and target.msb is None:
            new = value.resize(self._signal_width(flat))
            if nonblocking:
                self._nba.append((flat, None, None, new))
            else:
                self._set_signal(flat, new)
            return
        if target.index is not None:
            idx = self.eval(target.index, frame)
            if idx.has_x:
                raise SimulationError(f"write to '{target.name}' with X index")
            pos = idx.to_int()
            if nonblocking:
                self._nba.append((flat, pos, pos, value.resize(1)))
            else:
                self._set_signal(flat, self._spliced(flat, pos, pos, value))
            return
        msb = self.eval(target.msb, frame).to_int()
        lsb = self.eval(target.lsb, frame).to_int()
        if msb < lsb:
            msb, lsb = lsb, msb
        if nonblocking:
            self._nba.append((flat, msb, lsb, value.resize(msb - lsb + 1)))
        else:
            self._set_signal(flat, self._spliced(flat, msb, lsb, value))

    def _merge(self, old: Logic, target: A.LValue, value: Logic, frame: Frame) -> Logic:
        if target.index is None and target.msb is None:
            return value.resize(old.width)
        if target.index is not None:
            pos = self.eval(target.index, frame).to_int()
            msb = lsb = pos
        else:
            msb = self.eval(target.msb, frame).to_int()
            lsb = self.eval(target.lsb, frame).to_int()
        width = msb - lsb + 1
        part = value.resize(width)
        mask = ((1 << width) - 1) << lsb
        new_val = (old.value & ~mask) | ((part.value << lsb) & mask)
        new_x = (old.xmask & ~mask) | ((part.xmask << lsb) & mask)
        return Logic(old.width, new_val & ~new_x, new_x)

    def _spliced(self, flat: str, msb: int, lsb: int, value: Logic) -> Logic:
        old = self.values[flat]
        width = msb - lsb + 1
        part = value.resize(width)
        mask = ((1 << width) - 1) << lsb
        new_val = (old.value & ~mask) | ((part.value << lsb) & mask)
        new_x = (old.xmask & ~mask) | ((part.xmask << lsb) & mask)
        return Logic(old.width, new_val & ~new_x, new_x)

    def _set_signal(self, flat: str, new: Logic) -> None:
        old = self.values[flat]
        if old == new:
            return
        self.values[flat] = new
        self._notify(flat, old, new)

    def _notify(self, flat: str, old: Logic, new: Logic) -> None:
        for idx in self._comb_watch.get(flat, ()):
            self._active.append(("comb", idx))
        old_bit = old.bit(0)
        new_bit = new.bit(0)
        posedge = new_bit.value == 1 and old_bit.value != 1
        negedge = new_bit.value == 0 and not new_bit.has_x and not old_bit.is_false()
        for kind, idx in self._edge_watch.get(flat, ()):
            if (kind == "posedge" and posedge) or (kind == "negedge" and negedge) \
                    or kind == "any":
                self._active.append(("edge", idx))
        waiters = self._edge_waiters.get(flat)
        if waiters:
            still: list[_EdgeWait] = []
            for w in waiters:
                if w.done:
                    continue
                hit = any(
                    (k == "posedge" and posedge) or (k == "negedge" and negedge)
                    or (k == "any")
                    for k, s in w.edges if s == flat)
                if hit:
                    w.done = True
                    self._active.append(("resume", w))
                else:
                    still.append(w)
            self._edge_waiters[flat] = still

    # -- statement interpretation (generator form) ------------------------------

    def _exec(self, stmt: A.Stmt, frame: Frame):
        """Generator: yields ('delay', t) / ('edge', edges) scheduling requests."""
        self._steps_this_slot += 1
        if self._steps_this_slot > _MAX_STEPS_PER_SLOT:
            raise SimulationError(
                f"runaway execution at time {self.time} (combinational loop or "
                f"infinite zero-delay loop)")

        if isinstance(stmt, A.Assign):
            value = self.eval(stmt.expr, frame)
            self._write_lvalue(stmt.target, value, frame, nonblocking=not stmt.blocking)
        elif isinstance(stmt, A.Block):
            for s in stmt.stmts:
                yield from self._exec(s, frame)
        elif isinstance(stmt, A.If):
            cond = self.eval(stmt.cond, frame)
            if cond.is_true():
                yield from self._exec(stmt.then, frame)
            elif stmt.other is not None:
                yield from self._exec(stmt.other, frame)
        elif isinstance(stmt, A.Case):
            yield from self._exec_case(stmt, frame)
        elif isinstance(stmt, A.For):
            yield from self._exec(stmt.init, frame)
            while True:
                cond = self.eval(stmt.cond, frame)
                if not cond.is_true():
                    break
                yield from self._exec(stmt.body, frame)
                yield from self._exec(stmt.step, frame)
        elif isinstance(stmt, A.While):
            while self.eval(stmt.cond, frame).is_true():
                yield from self._exec(stmt.body, frame)
        elif isinstance(stmt, A.Repeat):
            count = self.eval(stmt.count, frame)
            if count.has_x:
                raise SimulationError("repeat count is X")
            for _ in range(count.to_int()):
                yield from self._exec(stmt.body, frame)
        elif isinstance(stmt, A.Delay):
            amount = self.eval(stmt.amount, frame)
            if amount.has_x:
                raise SimulationError("delay amount is X")
            yield ("delay", amount.to_int())
            if stmt.then is not None:
                yield from self._exec(stmt.then, frame)
        elif isinstance(stmt, A.EventWait):
            flat_edges = tuple((k, self._resolve(frame, s)) for k, s in stmt.edges)
            yield ("edge", flat_edges)
        elif isinstance(stmt, A.SysTask):
            self._sys_task(stmt, frame)
        else:
            raise SimulationError(f"cannot execute {type(stmt).__name__}")

    def _exec_case(self, stmt: A.Case, frame: Frame):
        subject = self.eval(stmt.subject, frame)
        default: A.CaseItem | None = None
        for item in stmt.items:
            if item.labels is None:
                default = item
                continue
            for label in item.labels:
                lv = self.eval(label, frame)
                if stmt.wildcard:
                    w = max(subject.width, lv.width)
                    a, b = subject.resize(w), lv.resize(w)
                    care = ~b.xmask
                    if (a.value & care) == (b.value & care) and not (a.xmask & care):
                        yield from self._exec(item.body, frame)
                        return
                else:
                    w = max(subject.width, lv.width)
                    a, b = subject.resize(w), lv.resize(w)
                    if a.value == b.value and a.xmask == b.xmask:
                        yield from self._exec(item.body, frame)
                        return
        if default is not None:
            yield from self._exec(default.body, frame)

    def _exec_sync(self, stmt: A.Stmt, frame: Frame) -> None:
        """Run a statement that must not suspend (function bodies, comb always)."""
        for _ in self._exec(stmt, frame):
            raise SimulationError("timing control not allowed in this context")

    # -- system tasks -----------------------------------------------------------

    def _sys_task(self, stmt: A.SysTask, frame: Frame) -> None:
        name = stmt.name
        if name in ("$display", "$write", "$monitor"):
            text = self._format(stmt.args, frame)
            if name == "$write":
                if self.output and not self.output[-1].endswith("\n"):
                    self.output[-1] += text
                else:
                    self.output.append(text)
            else:
                self.output.append(text)
        elif name == "$error":
            self.error_count += 1
            self.output.append("ERROR: " + self._format(stmt.args, frame))
        elif name in ("$finish", "$stop"):
            self.finished = True
            raise _Finish()
        else:
            raise SimulationError(f"system task '{name}' not supported")

    def _format(self, args: tuple[A.Expr, ...], frame: Frame) -> str:
        if not args:
            return ""
        if not isinstance(args[0], A.StringLit):
            return " ".join(str(self.eval(a, frame)) for a in args)
        fmt = args[0].text
        values = list(args[1:])
        out: list[str] = []
        i = 0
        while i < len(fmt):
            ch = fmt[i]
            if ch == "%" and i + 1 < len(fmt):
                spec = fmt[i + 1]
                i += 2
                if spec == "%":
                    out.append("%")
                    continue
                if spec == "0" and i < len(fmt):  # %0d
                    spec = fmt[i]
                    i += 1
                if not values:
                    out.append("%" + spec)
                    continue
                val = self.eval(values.pop(0), frame)
                if spec in ("d", "D"):
                    out.append("x" if val.has_x else str(val.to_int()))
                elif spec in ("h", "H", "x", "X"):
                    out.append("x" * ((val.width + 3) // 4) if val.has_x
                               else f"{val.to_int():x}")
                elif spec in ("b", "B"):
                    out.append(str(val)[str(val).find("b") + 1:] if val.has_x
                               else bin(val.to_int())[2:].zfill(val.width))
                elif spec in ("t", "T"):
                    out.append(str(val.to_int()))
                elif spec == "s":
                    raw = val.to_int().to_bytes((val.width + 7) // 8, "big")
                    out.append(raw.lstrip(b"\0").decode(errors="replace"))
                else:
                    out.append(str(val))
            else:
                out.append(ch)
                i += 1
        return "".join(out)

    # -- scheduler ----------------------------------------------------------------

    def _run_comb(self, idx: int) -> None:
        proc = self.design.processes[idx]
        frame = Frame(proc.scope)
        try:
            if proc.kind == "assign":
                assert proc.expr is not None and proc.target is not None
                value = self.eval(proc.expr, frame)
                self._write_lvalue(proc.target, value, frame, nonblocking=False)
            else:
                assert proc.body is not None
                self._exec_sync(proc.body, frame)
        except _Finish:
            pass

    def _start_coroutine(self, proc: Process) -> None:
        assert proc.body is not None
        gen = self._exec(proc.body, Frame(proc.scope))
        self._advance_coroutine(gen, proc)

    def _advance_coroutine(self, gen, proc: Process) -> None:
        try:
            request = next(gen)
        except StopIteration:
            if any(p is proc for p, restart in self._coroutines if restart):
                # Looping always process: restart immediately only if it consumed
                # time; otherwise it would spin forever.
                self._active.append(("restart", proc))
            return
        except _Finish:
            return
        kind, payload = request
        if kind == "delay":
            if payload <= 0:
                self._active.append(("resume", _EdgeWait((), gen, proc)))
            else:
                self._heap_seq += 1
                heapq.heappush(self._heap,
                               (self.time + payload, self._heap_seq, ("resume_gen", gen, proc)))
        elif kind == "edge":
            wait = _EdgeWait(payload, gen, proc)
            for _, sig in payload:
                self._edge_waiters.setdefault(sig, []).append(wait)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown scheduling request '{kind}'")

    def _apply_nba(self) -> None:
        updates = self._nba
        self._nba = []
        self.nba_updates += len(updates)
        for flat, msb, lsb, value in updates:
            if msb is None:
                self._set_signal(flat, value)
            else:
                self._set_signal(flat, self._spliced(flat, msb, lsb, value))

    def run(self, max_time: int = 1_000_000) -> None:
        """Simulate until $finish, event exhaustion, or ``max_time``."""
        try:
            self._run(max_time)
        finally:
            self._publish_telemetry()

    def stats(self) -> dict[str, int]:
        """Scheduler counters accumulated by :meth:`run`."""
        return {"events": self.events_processed,
                "delta_cycles": self.delta_cycles,
                "nba_updates": self.nba_updates,
                "time_slots": self.time_slots,
                "final_time": self.time}

    def _publish_telemetry(self) -> None:
        if not get_tracer().enabled:
            return
        metrics = get_metrics()
        metrics.counter("sim.runs").add(1)
        metrics.counter("sim.events").add(self.events_processed)
        metrics.counter("sim.delta_cycles").add(self.delta_cycles)
        metrics.counter("sim.nba_updates").add(self.nba_updates)
        metrics.counter("sim.time_slots").add(self.time_slots)
        metrics.counter("sim.backend.event.runs").add(1)
        metrics.counter("sim.backend.event.events").add(self.events_processed)

    def _run(self, max_time: int) -> None:
        # Time 0: run all comb processes once, then start coroutines.
        for idx, proc in enumerate(self.design.processes):
            if proc.is_comb:
                self._active.append(("comb", idx))
        for proc, _restart in self._coroutines:
            self._active.append(("start", proc))

        restart_counts: dict[str, int] = {}
        while True:
            self._steps_this_slot = 0
            # Drain current time slot: active queue + NBA strata.
            while self._active or self._nba:
                if self.finished:
                    return
                self.delta_cycles += 1
                while self._active:
                    item = self._active.pop(0)
                    tag = item[0]
                    self.events_processed += 1
                    self._steps_this_slot += 1
                    if self._steps_this_slot > _MAX_STEPS_PER_SLOT:
                        raise SimulationError(
                            f"runaway activity at time {self.time} "
                            f"(combinational loop?)")
                    try:
                        if tag == "comb":
                            self._run_comb(item[1])
                        elif tag == "edge":
                            proc = self.design.processes[item[1]]
                            frame = Frame(proc.scope)
                            assert proc.body is not None
                            try:
                                self._exec_sync(proc.body, frame)
                            except SimulationError as exc:
                                if "timing control" in str(exc):
                                    raise SimulationError(
                                        "delays inside edge-triggered always blocks are "
                                        "not supported") from exc
                                raise
                        elif tag == "start":
                            self._start_coroutine(item[1])
                        elif tag == "restart":
                            proc = item[1]
                            key = proc.name
                            restart_counts[key] = restart_counts.get(key, 0) + 1
                            if restart_counts[key] > _MAX_STEPS_PER_SLOT:
                                raise SimulationError(
                                    f"always process '{proc.name}' loops without "
                                    f"consuming time")
                            self._start_coroutine(proc)
                        elif tag == "resume":
                            wait = item[1]
                            self._advance_coroutine(wait.coroutine, wait.proc)
                    except _Finish:
                        self.finished = True
                        return
                    if self.finished:
                        return
                self._apply_nba()
            # Advance time.
            if not self._heap:
                return
            next_time = self._heap[0][0]
            if next_time > max_time:
                return
            self.time = next_time
            self.time_slots += 1
            restart_counts.clear()
            while self._heap and self._heap[0][0] == self.time:
                _, _, payload = heapq.heappop(self._heap)
                if payload[0] == "resume_gen":
                    _, gen, proc = payload
                    self._active.append(("resume", _EdgeWait((), gen, proc)))

    # -- convenience ---------------------------------------------------------------

    def value_of(self, flat_name: str) -> Logic:
        if flat_name not in self.values:
            raise KeyError(flat_name)
        return self.values[flat_name]
