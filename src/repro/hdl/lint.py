"""Static lint checks for mini-Verilog.

These mirror the classes of tool feedback the paper's repair loops rely on:
undriven/undeclared signals, blocking assigns in clocked blocks, incomplete
sensitivity, latch inference, and width mismatches.
"""

from __future__ import annotations

from . import ast as A
from .elaborate import (eval_const, has_timing, stmt_writes, _stmt_reads,
                        _expr_reads)
from .errors import LintWarning


def _decl_widths(module: A.Module) -> dict[str, int]:
    params: dict[str, int] = {}
    for p in module.parameters:
        try:
            params[p.name] = eval_const(p.default, params)
        except Exception:
            params[p.name] = 0
    widths: dict[str, int] = {}

    def width_of(rng: A.Range | None) -> int:
        if rng is None:
            return 1
        try:
            return eval_const(rng.msb, params) - eval_const(rng.lsb, params) + 1
        except Exception:
            return 1

    for port in module.ports:
        widths[port.name] = width_of(port.rng)
    for net in module.nets:
        widths[net.name] = 32 if net.kind == "integer" else width_of(net.rng)
    return widths


def _expr_width(expr: A.Expr, widths: dict[str, int]) -> int | None:
    """Best-effort static width; None when unknown/context-dependent."""
    if isinstance(expr, A.Number):
        return expr.width if expr.sized else None
    if isinstance(expr, A.Identifier):
        return widths.get(expr.name)
    if isinstance(expr, A.Index):
        return 1
    if isinstance(expr, A.Slice):
        try:
            return eval_const(expr.msb, {}) - eval_const(expr.lsb, {}) + 1
        except Exception:
            return None
    if isinstance(expr, A.Concat):
        total = 0
        for p in expr.parts:
            w = _expr_width(p, widths)
            if w is None:
                return None
            total += w
        return total
    if isinstance(expr, A.Unary) and expr.op in ("&", "|", "^", "!"):
        return 1
    if isinstance(expr, A.Binary) and expr.op in ("==", "!=", "<", "<=", ">", ">=",
                                                  "&&", "||"):
        return 1
    return None


def module_reads_writes(module: A.Module) -> tuple[set[str], set[str]]:
    """All identifiers read and written anywhere in ``module``.

    Instance connections count as both: a connected identifier may be an
    output binding (a write into this scope).  Shared by the linter and
    the critic's X-propagation rule.
    """
    reads: set[str] = set()
    writes: set[str] = set()
    for ca in module.assigns:
        _expr_reads(ca.expr, reads)
        writes.add(ca.target.name)
    for alw in module.always_blocks:
        _stmt_reads(alw.body, reads)
        stmt_writes(alw.body, writes)
        for _, sig in alw.edges:
            reads.add(sig)
    for ini in module.initial_blocks:
        _stmt_reads(ini.body, reads)
        stmt_writes(ini.body, writes)
    for inst in module.instances:
        for _, expr in inst.connections:
            if expr is not None:
                _expr_reads(expr, reads)
                if isinstance(expr, A.Identifier):
                    writes.add(expr.name)  # may be an output connection
    for func in module.functions:
        _stmt_reads(func.body, reads)
    return reads, writes


class Linter:
    """Runs all checks on a single module."""

    def __init__(self, module: A.Module):
        self.module = module
        self.warnings: list[LintWarning] = []

    def _warn(self, code: str, message: str, loc=None) -> None:
        self.warnings.append(LintWarning(code, message, loc))

    def run(self) -> list[LintWarning]:
        self._check_undeclared()
        self._check_multiple_drivers()
        self._check_blocking_in_clocked()
        self._check_nonblocking_in_comb()
        self._check_latches()
        self._check_unused()
        self._check_width_mismatch()
        return self.warnings

    # -- individual checks ---------------------------------------------------

    def _declared_names(self) -> set[str]:
        names = {p.name for p in self.module.ports}
        names |= {n.name for n in self.module.nets}
        names |= {p.name for p in self.module.parameters}
        names |= {f.name for f in self.module.functions}
        return names

    def _all_reads_writes(self) -> tuple[set[str], set[str]]:
        return module_reads_writes(self.module)

    def _check_undeclared(self) -> None:
        declared = self._declared_names()
        for func in self.module.functions:
            declared |= {a for a, _ in func.args}
            declared |= {n.name for n in func.locals}
        reads, writes = self._all_reads_writes()
        for name in sorted((reads | writes) - declared):
            self._warn("LINT-UNDECL", f"identifier '{name}' used but never declared")

    def _check_multiple_drivers(self) -> None:
        driven: dict[str, int] = {}
        for ca in self.module.assigns:
            driven[ca.target.name] = driven.get(ca.target.name, 0) + 1
        for alw in self.module.always_blocks:
            w: set[str] = set()
            stmt_writes(alw.body, w)
            for name in w:
                driven[name] = driven.get(name, 0) + 1
        for name, count in sorted(driven.items()):
            if count > 1:
                self._warn("LINT-MULTIDRIVE",
                           f"signal '{name}' is driven from {count} places")

    def _check_blocking_in_clocked(self) -> None:
        for alw in self.module.always_blocks:
            if not alw.edges or all(k == "any" for k, _ in alw.edges):
                continue
            blocking: set[str] = set()
            self._find_assigns(alw.body, blocking, want_blocking=True)
            for name in sorted(blocking):
                self._warn("LINT-BLOCKSEQ",
                           f"blocking assignment to '{name}' inside clocked always block")

    def _check_nonblocking_in_comb(self) -> None:
        for alw in self.module.always_blocks:
            if alw.edges and not all(k == "any" for k, _ in alw.edges):
                continue
            if has_timing(alw.body):
                continue  # clock generator, not combinational logic
            nonblocking: set[str] = set()
            self._find_assigns(alw.body, nonblocking, want_blocking=False)
            for name in sorted(nonblocking):
                self._warn("LINT-NBACOMB",
                           f"non-blocking assignment to '{name}' in combinational block")

    def _find_assigns(self, stmt: A.Stmt, out: set[str], want_blocking: bool) -> None:
        if isinstance(stmt, A.Assign):
            if stmt.blocking == want_blocking:
                out.add(stmt.target.name)
        elif isinstance(stmt, A.Block):
            for s in stmt.stmts:
                self._find_assigns(s, out, want_blocking)
        elif isinstance(stmt, A.If):
            self._find_assigns(stmt.then, out, want_blocking)
            if stmt.other is not None:
                self._find_assigns(stmt.other, out, want_blocking)
        elif isinstance(stmt, A.Case):
            for item in stmt.items:
                self._find_assigns(item.body, out, want_blocking)
        elif isinstance(stmt, (A.For, A.While, A.Repeat)):
            self._find_assigns(stmt.body, out, want_blocking)

    def _check_latches(self) -> None:
        """A comb always block that doesn't assign a signal on all paths
        infers a latch."""
        for alw in self.module.always_blocks:
            if alw.edges and not all(k == "any" for k, _ in alw.edges):
                continue
            if has_timing(alw.body):
                continue  # behavioural/testbench process, not synthesizable comb
            all_writes: set[str] = set()
            stmt_writes(alw.body, all_writes)
            always_written = self._written_on_all_paths(alw.body)
            for name in sorted(all_writes - always_written):
                self._warn("LINT-LATCH",
                           f"'{name}' not assigned on every path of combinational "
                           f"block: latch inferred")

    def _written_on_all_paths(self, stmt: A.Stmt) -> set[str]:
        if isinstance(stmt, A.Assign):
            return {stmt.target.name}
        if isinstance(stmt, A.Block):
            out: set[str] = set()
            for s in stmt.stmts:
                out |= self._written_on_all_paths(s)
            return out
        if isinstance(stmt, A.If):
            if stmt.other is None:
                return set()
            return self._written_on_all_paths(stmt.then) & \
                self._written_on_all_paths(stmt.other)
        if isinstance(stmt, A.Case):
            has_default = any(item.labels is None for item in stmt.items)
            if not has_default:
                return set()
            sets = [self._written_on_all_paths(item.body) for item in stmt.items]
            out = sets[0]
            for s in sets[1:]:
                out &= s
            return out
        return set()

    def _check_unused(self) -> None:
        reads, writes = self._all_reads_writes()
        outputs = {p.name for p in self.module.ports if p.direction == "output"}
        inputs = {p.name for p in self.module.ports if p.direction == "input"}
        for net in self.module.nets:
            if net.name not in reads and net.name not in outputs \
                    and net.name not in writes:
                self._warn("LINT-UNUSED", f"net '{net.name}' is never used")
        for name in sorted(inputs - reads):
            self._warn("LINT-UNUSEDIN", f"input port '{name}' is never read")
        for name in sorted(outputs - writes):
            self._warn("LINT-UNDRIVEN", f"output port '{name}' is never driven")

    def _check_width_mismatch(self) -> None:
        widths = _decl_widths(self.module)
        for ca in self.module.assigns:
            if ca.target.index is not None or ca.target.msb is not None:
                continue
            lhs = widths.get(ca.target.name)
            rhs = _expr_width(ca.expr, widths)
            if lhs is not None and rhs is not None and lhs != rhs:
                self._warn("LINT-WIDTH",
                           f"assign to '{ca.target.name}' ({lhs} bits) from "
                           f"{rhs}-bit expression")


def lint_module(module: A.Module) -> list[LintWarning]:
    return Linter(module).run()


def lint_source(source) -> list[LintWarning]:
    """Lint every module in a parsed :class:`SourceFile`."""
    out: list[LintWarning] = []
    for module in source.modules.values():
        out.extend(lint_module(module))
    return out
