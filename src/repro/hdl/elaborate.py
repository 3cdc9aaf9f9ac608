"""Elaboration: resolve parameters and flatten hierarchy.

The output of elaboration is a :class:`Design` — a flat list of signals and
processes with fully-resolved hierarchical names.  Module instances are
flattened by cloning the child module's contents under a ``parent.child``
name prefix and stitching ports with continuous assignments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast as A
from .errors import ElaborationError
from .values import Logic

# --------------------------------------------------------------------------
# Constant expression evaluation (parameters, ranges, replication counts)
# --------------------------------------------------------------------------


def eval_const(expr: A.Expr, params: dict[str, int]) -> int:
    if isinstance(expr, A.Number):
        if expr.xmask:
            raise ElaborationError("X bits are not allowed in constant expressions")
        return expr.value
    if isinstance(expr, A.Identifier):
        if expr.name not in params:
            raise ElaborationError(f"'{expr.name}' is not a parameter or constant", expr.loc)
        return params[expr.name]
    if isinstance(expr, A.Unary):
        v = eval_const(expr.operand, params)
        return {
            "-": lambda x: -x, "+": lambda x: x, "~": lambda x: ~x,
            "!": lambda x: 0 if x else 1,
        }.get(expr.op, lambda x: (_ for _ in ()).throw(
            ElaborationError(f"unary '{expr.op}' not allowed in constant expression")))(v)
    if isinstance(expr, A.Binary):
        a = eval_const(expr.left, params)
        b = eval_const(expr.right, params)
        ops = {
            "+": a + b, "-": a - b, "*": a * b,
            "/": a // b if b else 0, "%": a % b if b else 0,
            "<<": a << b, ">>": a >> b, "**": a ** b,
            "&": a & b, "|": a | b, "^": a ^ b,
            "==": int(a == b), "!=": int(a != b),
            "<": int(a < b), "<=": int(a <= b), ">": int(a > b), ">=": int(a >= b),
            "&&": int(bool(a) and bool(b)), "||": int(bool(a) or bool(b)),
        }
        if expr.op not in ops:
            raise ElaborationError(f"binary '{expr.op}' not allowed in constant expression")
        return ops[expr.op]
    if isinstance(expr, A.Ternary):
        return (eval_const(expr.if_true, params) if eval_const(expr.cond, params)
                else eval_const(expr.if_false, params))
    raise ElaborationError(f"{type(expr).__name__} not allowed in constant expression")


# --------------------------------------------------------------------------
# Flat design data model
# --------------------------------------------------------------------------


@dataclass
class Signal:
    name: str          # flat hierarchical name
    width: int
    kind: str          # wire | reg | integer
    init: Logic | None = None
    is_port: bool = False
    direction: str = ""   # only for top-level ports


@dataclass
class Scope:
    """Per-instance name resolution for a cloned module body."""

    prefix: str
    names: dict[str, str] = field(default_factory=dict)     # local -> flat
    params: dict[str, int] = field(default_factory=dict)
    functions: dict[str, A.Function] = field(default_factory=dict)

    def resolve(self, local: str) -> str:
        flat = self.names.get(local)
        if flat is None:
            raise ElaborationError(f"undeclared identifier '{local}' in scope '{self.prefix or '<top>'}'")
        return flat


def has_timing(stmt: A.Stmt | None) -> bool:
    """Whether ``stmt`` holds a ``#delay`` or ``@(...)`` wait anywhere."""
    if stmt is None:
        return False
    if isinstance(stmt, (A.Delay, A.EventWait)):
        return True
    if isinstance(stmt, A.Block):
        return any(has_timing(s) for s in stmt.stmts)
    if isinstance(stmt, A.If):
        return has_timing(stmt.then) or has_timing(stmt.other)
    if isinstance(stmt, A.Case):
        return any(has_timing(i.body) for i in stmt.items)
    if isinstance(stmt, (A.For, A.While, A.Repeat)):
        return has_timing(stmt.body)
    return False


@dataclass
class Process:
    kind: str                       # 'assign' | 'always' | 'initial'
    scope: Scope
    body: A.Stmt | None = None
    target: A.LValue | None = None  # for continuous assigns
    expr: A.Expr | None = None
    edges: tuple[tuple[str, str], ...] = ()   # (edge kind, FLAT signal name)
    deps: frozenset[str] = frozenset()        # flat names that retrigger comb processes
    name: str = ""

    @property
    def is_comb(self) -> bool:
        """A combinational process: re-run whenever one of ``deps`` changes.

        Both simulation engines and the stimulus driver schedule exactly
        this set, so their time-zero priming agrees.
        """
        return self.kind == "assign" or (
            self.kind == "always" and not self.edges
            and not has_timing(self.body))


@dataclass
class Design:
    top: str
    signals: dict[str, Signal] = field(default_factory=dict)
    processes: list[Process] = field(default_factory=list)

    def signal(self, name: str) -> Signal:
        return self.signals[name]


# --------------------------------------------------------------------------
# Read-set analysis (for @* and continuous-assign sensitivity)
# --------------------------------------------------------------------------


def _expr_reads(expr: A.Expr, out: set[str]) -> None:
    if isinstance(expr, A.Identifier):
        out.add(expr.name)
    elif isinstance(expr, A.Unary):
        _expr_reads(expr.operand, out)
    elif isinstance(expr, A.Binary):
        _expr_reads(expr.left, out)
        _expr_reads(expr.right, out)
    elif isinstance(expr, A.Ternary):
        for e in (expr.cond, expr.if_true, expr.if_false):
            _expr_reads(e, out)
    elif isinstance(expr, A.Concat):
        for e in expr.parts:
            _expr_reads(e, out)
    elif isinstance(expr, A.Replicate):
        _expr_reads(expr.count, out)
        _expr_reads(expr.inner, out)
    elif isinstance(expr, (A.Index, A.Slice)):
        out.add(expr.target)
        if isinstance(expr, A.Index):
            _expr_reads(expr.index, out)
        else:
            _expr_reads(expr.msb, out)
            _expr_reads(expr.lsb, out)
    elif isinstance(expr, (A.SystemCall, A.FunctionCall)):
        for e in expr.args:
            _expr_reads(e, out)


def _stmt_reads(stmt: A.Stmt, out: set[str]) -> None:
    if isinstance(stmt, A.Assign):
        _expr_reads(stmt.expr, out)
        if stmt.target.index is not None:
            _expr_reads(stmt.target.index, out)
    elif isinstance(stmt, A.Block):
        for s in stmt.stmts:
            _stmt_reads(s, out)
    elif isinstance(stmt, A.If):
        _expr_reads(stmt.cond, out)
        _stmt_reads(stmt.then, out)
        if stmt.other is not None:
            _stmt_reads(stmt.other, out)
    elif isinstance(stmt, A.Case):
        _expr_reads(stmt.subject, out)
        for item in stmt.items:
            if item.labels:
                for lab in item.labels:
                    _expr_reads(lab, out)
            _stmt_reads(item.body, out)
    elif isinstance(stmt, (A.For,)):
        _expr_reads(stmt.cond, out)
        _stmt_reads(stmt.init, out)
        _stmt_reads(stmt.step, out)
        _stmt_reads(stmt.body, out)
    elif isinstance(stmt, A.While):
        _expr_reads(stmt.cond, out)
        _stmt_reads(stmt.body, out)
    elif isinstance(stmt, A.Repeat):
        _expr_reads(stmt.count, out)
        _stmt_reads(stmt.body, out)
    elif isinstance(stmt, A.Delay):
        if stmt.then is not None:
            _stmt_reads(stmt.then, out)
    elif isinstance(stmt, A.SysTask):
        for e in stmt.args:
            _expr_reads(e, out)


def stmt_writes(stmt: A.Stmt, out: set[str]) -> None:
    """Collect names assigned anywhere in ``stmt``."""
    if isinstance(stmt, A.Assign):
        out.add(stmt.target.name)
    elif isinstance(stmt, A.Block):
        for s in stmt.stmts:
            stmt_writes(s, out)
    elif isinstance(stmt, A.If):
        stmt_writes(stmt.then, out)
        if stmt.other is not None:
            stmt_writes(stmt.other, out)
    elif isinstance(stmt, A.Case):
        for item in stmt.items:
            stmt_writes(item.body, out)
    elif isinstance(stmt, A.For):
        stmt_writes(stmt.init, out)
        stmt_writes(stmt.step, out)
        stmt_writes(stmt.body, out)
    elif isinstance(stmt, (A.While, A.Repeat)):
        stmt_writes(stmt.body, out)
    elif isinstance(stmt, A.Delay) and stmt.then is not None:
        stmt_writes(stmt.then, out)


# --------------------------------------------------------------------------
# Elaborator
# --------------------------------------------------------------------------

MAX_HIER_DEPTH = 32


class Elaborator:
    def __init__(self, source: A.SourceFile):
        self.source = source
        self.design: Design | None = None

    def elaborate(self, top: str) -> Design:
        if top not in self.source.modules:
            raise ElaborationError(f"top module '{top}' not found")
        self.design = Design(top=top)
        module = self.source.modules[top]
        scope = self._instantiate(module, prefix="", overrides={}, depth=0)
        # Record top-level port metadata for the harness.
        for port in module.ports:
            flat = scope.resolve(port.name)
            sig = self.design.signals[flat]
            sig.is_port = True
            sig.direction = port.direction
        return self.design

    # -- per-instance cloning ------------------------------------------------

    def _range_width(self, rng: A.Range | None, params: dict[str, int]) -> int:
        if rng is None:
            return 1
        msb = eval_const(rng.msb, params)
        lsb = eval_const(rng.lsb, params)
        if lsb != 0:
            raise ElaborationError(f"only [msb:0] ranges are supported, got [{msb}:{lsb}]")
        if msb < 0:
            raise ElaborationError(f"negative range bound [{msb}:0]")
        return msb + 1

    def _instantiate(self, module: A.Module, prefix: str,
                     overrides: dict[str, int], depth: int) -> Scope:
        if depth > MAX_HIER_DEPTH:
            raise ElaborationError(
                f"hierarchy deeper than {MAX_HIER_DEPTH} (recursive instantiation of "
                f"'{module.name}'?)")
        design = self.design
        assert design is not None

        params: dict[str, int] = {}
        for p in module.parameters:
            if not p.local and p.name in overrides:
                params[p.name] = overrides[p.name]
            else:
                params[p.name] = eval_const(p.default, params)
        for name in overrides:
            if name not in params:
                raise ElaborationError(f"unknown parameter '{name}' on module '{module.name}'")

        scope = Scope(prefix=prefix, params=params)
        scope.functions = {f.name: f for f in module.functions}

        def flat(local: str) -> str:
            return f"{prefix}{local}" if not prefix else f"{prefix}.{local}"

        declared: set[str] = set()

        for port in module.ports:
            if not port.direction:
                raise ElaborationError(
                    f"port '{port.name}' of '{module.name}' has no direction declaration")
            if port.direction == "inout":
                raise ElaborationError("inout ports are not supported by this subset")
            width = self._range_width(port.rng, params)
            name = flat(port.name)
            kind = "reg" if port.is_reg else "wire"
            init = Logic.unknown(width) if kind == "reg" else None
            design.signals[name] = Signal(name, width, kind, init)
            scope.names[port.name] = name
            declared.add(port.name)

        wire_init_assigns: list[A.Net] = []
        for net in module.nets:
            if net.name in declared:
                # 'output reg q;' + 'reg q;' double declaration — tolerate wire/reg re-decl
                continue
            width = 32 if net.kind == "integer" else self._range_width(net.rng, params)
            name = flat(net.name)
            init = None
            if net.init is not None:
                try:
                    init = Logic.from_int(eval_const(net.init, params), width)
                except ElaborationError:
                    if net.kind == "wire":
                        # 'wire x = expr;' with a non-constant expression is a
                        # continuous assignment.
                        wire_init_assigns.append(net)
                        init = None
                    else:
                        raise
            elif net.kind in ("reg", "integer"):
                init = Logic.unknown(width)
            design.signals[name] = Signal(name, width, net.kind, init)
            scope.names[net.name] = name
            declared.add(net.name)

        for net in wire_init_assigns:
            deps0: set[str] = set()
            _expr_reads(net.init, deps0)
            flat_deps0 = frozenset(scope.names[d] for d in deps0
                                   if d in scope.names)
            design.processes.append(Process(
                kind="assign", scope=scope,
                target=A.LValue(net.name), expr=net.init, deps=flat_deps0,
                name=f"{prefix or module.name}:wireinit:{net.name}"))

        # Continuous assigns.
        for ca in module.assigns:
            deps: set[str] = set()
            _expr_reads(ca.expr, deps)
            if ca.target.index is not None:
                _expr_reads(ca.target.index, deps)
            flat_deps = frozenset(scope.names[d] for d in deps if d in scope.names)
            design.processes.append(Process(
                kind="assign", scope=scope, target=ca.target, expr=ca.expr,
                deps=flat_deps, name=f"{prefix or module.name}:assign:{ca.target.name}"))

        # Always blocks.
        for idx, alw in enumerate(module.always_blocks):
            if alw.is_star:
                reads: set[str] = set()
                _stmt_reads(alw.body, reads)
                writes: set[str] = set()
                stmt_writes(alw.body, writes)
                flat_deps = frozenset(scope.names[d] for d in reads - writes
                                      if d in scope.names)
                design.processes.append(Process(
                    kind="always", scope=scope, body=alw.body, edges=(),
                    deps=flat_deps, name=f"{prefix or module.name}:always*{idx}"))
            else:
                edges = []
                level = all(kind == "any" for kind, _ in alw.edges)
                for kind, sig in alw.edges:
                    if sig not in scope.names:
                        raise ElaborationError(
                            f"sensitivity signal '{sig}' not declared in '{module.name}'")
                    edges.append((kind, scope.names[sig]))
                if level:
                    design.processes.append(Process(
                        kind="always", scope=scope, body=alw.body, edges=(),
                        deps=frozenset(f for _, f in edges),
                        name=f"{prefix or module.name}:always@{idx}"))
                else:
                    design.processes.append(Process(
                        kind="always", scope=scope, body=alw.body,
                        edges=tuple(edges), deps=frozenset(),
                        name=f"{prefix or module.name}:always_ff{idx}"))

        for idx, ini in enumerate(module.initial_blocks):
            design.processes.append(Process(
                kind="initial", scope=scope, body=ini.body,
                name=f"{prefix or module.name}:initial{idx}"))

        # Child instances.
        for inst in module.instances:
            self._elaborate_instance(module, inst, scope, prefix, depth)

        return scope

    def _elaborate_instance(self, parent: A.Module, inst: A.Instance,
                            scope: Scope, prefix: str, depth: int) -> None:
        design = self.design
        assert design is not None
        if inst.module not in self.source.modules:
            raise ElaborationError(
                f"instance '{inst.name}' references unknown module '{inst.module}'", inst.loc)
        child = self.source.modules[inst.module]
        child_prefix = f"{prefix}.{inst.name}" if prefix else inst.name

        # Parameter overrides.
        overrides: dict[str, int] = {}
        nonlocal_params = [p for p in child.parameters if not p.local]
        for pos, (pname, pexpr) in enumerate(inst.param_overrides):
            value = eval_const(pexpr, scope.params)
            if pname is None:
                if pos >= len(nonlocal_params):
                    raise ElaborationError(
                        f"too many positional parameters for '{child.name}'", inst.loc)
                overrides[nonlocal_params[pos].name] = value
            else:
                overrides[pname] = value

        child_scope = self._instantiate(child, child_prefix, overrides, depth + 1)

        # Port connections.
        conns: list[tuple[A.Port, A.Expr | None]] = []
        if inst.connections and inst.connections[0][0] is None:
            if len(inst.connections) > len(child.ports):
                raise ElaborationError(
                    f"too many positional connections on '{inst.name}'", inst.loc)
            for port, (_, expr) in zip(child.ports, inst.connections):
                conns.append((port, expr))
        else:
            by_name = {p.name: p for p in child.ports}
            for pname, expr in inst.connections:
                if pname not in by_name:
                    raise ElaborationError(
                        f"module '{child.name}' has no port '{pname}'", inst.loc)
                conns.append((by_name[pname], expr))

        for port, expr in conns:
            if expr is None:
                continue  # unconnected
            child_flat = child_scope.resolve(port.name)
            if port.direction == "input":
                deps: set[str] = set()
                _expr_reads(expr, deps)
                flat_deps = frozenset(scope.names[d] for d in deps if d in scope.names)
                design.processes.append(Process(
                    kind="assign", scope=Scope(prefix, dict(scope.names), scope.params,
                                               scope.functions),
                    target=A.LValue(f"\0{child_flat}"), expr=expr, deps=flat_deps,
                    name=f"{child_prefix}:port_in:{port.name}"))
            else:  # output
                conn_scope = Scope(prefix, {}, scope.params, scope.functions)
                conn_scope.names["__src"] = child_flat
                if isinstance(expr, A.Identifier):
                    parent_flat = scope.resolve(expr.name)
                    target = A.LValue(f"\0{parent_flat}")
                elif isinstance(expr, A.Slice):
                    parent_flat = scope.resolve(expr.target)
                    msb = A.Number(32, eval_const(expr.msb, scope.params))
                    lsb = A.Number(32, eval_const(expr.lsb, scope.params))
                    target = A.LValue(f"\0{parent_flat}", None, msb, lsb)
                elif isinstance(expr, A.Index):
                    parent_flat = scope.resolve(expr.target)
                    idx = A.Number(32, eval_const(expr.index, scope.params))
                    target = A.LValue(f"\0{parent_flat}", idx)
                else:
                    raise ElaborationError(
                        f"output port '{port.name}' of '{inst.name}' must connect "
                        f"to a signal, bit-select, or constant part-select",
                        inst.loc)
                design.processes.append(Process(
                    kind="assign", scope=conn_scope, target=target,
                    expr=A.Identifier("__src"), deps=frozenset({child_flat}),
                    name=f"{child_prefix}:port_out:{port.name}"))


def elaborate(source: A.SourceFile, top: str) -> Design:
    return Elaborator(source).elaborate(top)
