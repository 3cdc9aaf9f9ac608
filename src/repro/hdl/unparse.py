"""AST → mini-Verilog source rendering (the parser's inverse).

The unparser closes the loop ``parse -> unparse -> reparse``: for every AST
this subset can represent, reparsing the rendered text must reproduce a
structurally identical AST (ignoring source locations).  That property is
what :mod:`repro.fuzz` checks continuously (oracle *e*), and it is also how
the fuzzer materializes generated designs — fuzz cases are built as ASTs
and rendered through this module, so the generator can never emit text the
parser disagrees about.

Rendering notes (all chosen so the round-trip is exact):

* binary/ternary expressions are fully parenthesized — parentheses do not
  appear in the AST, so extra ones are free;
* operators are emitted in the parser's canonical spelling (the parser
  folds ``<<<``/``>>>``/``===``/``!==`` into their two-char forms);
* sized literals with X bits render in binary, X-free ones in hex;
* all parameters are declared in the module body (``parameter`` /
  ``localparam``), which keeps the declaration order of the parameter
  tuple regardless of where the original text declared them;
* an ``always`` block with an empty edge list renders as ``always @*``
  unless its body contains timing controls (``#``/``@``), in which case it
  renders as a bare ``always`` — both forms parse to the same AST.
"""

from __future__ import annotations

import dataclasses

from . import ast as A
from .elaborate import has_timing

_IND = "  "


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


def _number(expr: A.Number) -> str:
    if not expr.sized:
        return str(expr.value)
    if expr.xmask:
        bits = []
        for i in range(expr.width - 1, -1, -1):
            if (expr.xmask >> i) & 1:
                bits.append("x")
            else:
                bits.append(str((expr.value >> i) & 1))
        return f"{expr.width}'b{''.join(bits)}"
    return f"{expr.width}'h{expr.value:x}"


def _string(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n").replace("\t", "\\t")
    return f'"{escaped}"'


def unparse_expr(expr: A.Expr) -> str:
    """Render one expression (fully parenthesized, canonical operators)."""
    if isinstance(expr, A.Number):
        return _number(expr)
    if isinstance(expr, A.Identifier):
        return expr.name
    if isinstance(expr, A.StringLit):
        return _string(expr.text)
    if isinstance(expr, A.Unary):
        return f"{expr.op}({unparse_expr(expr.operand)})"
    if isinstance(expr, A.Binary):
        return (f"({unparse_expr(expr.left)} {expr.op} "
                f"{unparse_expr(expr.right)})")
    if isinstance(expr, A.Ternary):
        return (f"({unparse_expr(expr.cond)} ? {unparse_expr(expr.if_true)}"
                f" : {unparse_expr(expr.if_false)})")
    if isinstance(expr, A.Concat):
        return "{" + ", ".join(unparse_expr(p) for p in expr.parts) + "}"
    if isinstance(expr, A.Replicate):
        return ("{" + unparse_expr(expr.count) +
                "{" + unparse_expr(expr.inner) + "}}")
    if isinstance(expr, A.Index):
        return f"{expr.target}[{unparse_expr(expr.index)}]"
    if isinstance(expr, A.Slice):
        return (f"{expr.target}[{unparse_expr(expr.msb)}:"
                f"{unparse_expr(expr.lsb)}]")
    if isinstance(expr, A.SystemCall):
        if expr.args:
            return (expr.name + "(" +
                    ", ".join(unparse_expr(a) for a in expr.args) + ")")
        return expr.name
    if isinstance(expr, A.FunctionCall):
        return (expr.name + "(" +
                ", ".join(unparse_expr(a) for a in expr.args) + ")")
    raise TypeError(f"cannot unparse expression {type(expr).__name__}")


def _lvalue(target: A.LValue) -> str:
    if target.index is not None:
        return f"{target.name}[{unparse_expr(target.index)}]"
    if target.msb is not None:
        return (f"{target.name}[{unparse_expr(target.msb)}:"
                f"{unparse_expr(target.lsb)}]")
    return target.name


def _delay_amount(expr: A.Expr) -> str:
    """A ``#`` delay operand is parsed as a primary, so wrap non-primaries."""
    if isinstance(expr, (A.Number, A.Identifier)):
        return unparse_expr(expr)
    return f"({unparse_expr(expr)})"


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


def _edges(edges: tuple[tuple[str, str], ...]) -> str:
    parts = []
    for kind, sig in edges:
        parts.append(sig if kind == "any" else f"{kind} {sig}")
    return "(" + " or ".join(parts) + ")"


def unparse_stmt(stmt: A.Stmt, indent: int = 0) -> str:
    """Render one statement at the given indent level (no trailing NL)."""
    pad = _IND * indent
    if isinstance(stmt, A.Block):
        if not stmt.stmts:
            return pad + ";"
        inner = "\n".join(unparse_stmt(s, indent + 1) for s in stmt.stmts)
        return f"{pad}begin\n{inner}\n{pad}end"
    if isinstance(stmt, A.Assign):
        op = "=" if stmt.blocking else "<="
        return f"{pad}{_lvalue(stmt.target)} {op} {unparse_expr(stmt.expr)};"
    if isinstance(stmt, A.If):
        out = (f"{pad}if ({unparse_expr(stmt.cond)})\n"
               f"{unparse_stmt(stmt.then, indent + 1)}")
        if stmt.other is not None:
            out += f"\n{pad}else\n{unparse_stmt(stmt.other, indent + 1)}"
        return out
    if isinstance(stmt, A.Case):
        kw = "casez" if stmt.wildcard else "case"
        lines = [f"{pad}{kw} ({unparse_expr(stmt.subject)})"]
        for item in stmt.items:
            if item.labels is None:
                lines.append(f"{pad}{_IND}default:")
            else:
                labels = ", ".join(unparse_expr(l) for l in item.labels)
                lines.append(f"{pad}{_IND}{labels}:")
            lines.append(unparse_stmt(item.body, indent + 2))
        lines.append(f"{pad}endcase")
        return "\n".join(lines)
    if isinstance(stmt, A.For):
        init = f"{_lvalue(stmt.init.target)} = {unparse_expr(stmt.init.expr)}"
        step = f"{_lvalue(stmt.step.target)} = {unparse_expr(stmt.step.expr)}"
        return (f"{pad}for ({init}; {unparse_expr(stmt.cond)}; {step})\n"
                f"{unparse_stmt(stmt.body, indent + 1)}")
    if isinstance(stmt, A.While):
        return (f"{pad}while ({unparse_expr(stmt.cond)})\n"
                f"{unparse_stmt(stmt.body, indent + 1)}")
    if isinstance(stmt, A.Repeat):
        return (f"{pad}repeat ({unparse_expr(stmt.count)})\n"
                f"{unparse_stmt(stmt.body, indent + 1)}")
    if isinstance(stmt, A.Delay):
        if stmt.then is None:
            return f"{pad}#{_delay_amount(stmt.amount)};"
        return (f"{pad}#{_delay_amount(stmt.amount)}\n"
                f"{unparse_stmt(stmt.then, indent + 1)}")
    if isinstance(stmt, A.EventWait):
        return f"{pad}@{_edges(stmt.edges)};"
    if isinstance(stmt, A.SysTask):
        if stmt.args:
            args = ", ".join(unparse_expr(a) for a in stmt.args)
            return f"{pad}{stmt.name}({args});"
        return f"{pad}{stmt.name};"
    raise TypeError(f"cannot unparse statement {type(stmt).__name__}")


# --------------------------------------------------------------------------
# Module items
# --------------------------------------------------------------------------


def _rng(rng: A.Range | None) -> str:
    if rng is None:
        return ""
    return f"[{unparse_expr(rng.msb)}:{unparse_expr(rng.lsb)}] "


def _port_decl(port: A.Port) -> str:
    reg = "reg " if port.is_reg else ""
    return f"{port.direction} {reg}{_rng(port.rng)}{port.name}"


def unparse_module(module: A.Module) -> str:
    """Render one module (ANSI port header, body parameters)."""
    lines: list[str] = []
    ports = ", ".join(_port_decl(p) for p in module.ports)
    lines.append(f"module {module.name}({ports});")

    for param in module.parameters:
        kw = "localparam" if param.local else "parameter"
        lines.append(f"{_IND}{kw} {param.name} = "
                     f"{unparse_expr(param.default)};")
    for net in module.nets:
        init = "" if net.init is None else f" = {unparse_expr(net.init)}"
        rng = "" if net.kind == "integer" else _rng(net.rng)
        lines.append(f"{_IND}{net.kind} {rng}{net.name}{init};")
    for func in module.functions:
        args = ", ".join(f"input {_rng(arng)}{aname}"
                         for aname, arng in func.args)
        lines.append(f"{_IND}function {_rng(func.rng)}{func.name}({args});")
        for net in func.locals:
            rng = "" if net.kind == "integer" else _rng(net.rng)
            lines.append(f"{_IND * 2}{net.kind} {rng}{net.name};")
        lines.append(unparse_stmt(func.body, 2))
        lines.append(f"{_IND}endfunction")
    for ca in module.assigns:
        lines.append(f"{_IND}assign {_lvalue(ca.target)} = "
                     f"{unparse_expr(ca.expr)};")
    for inst in module.instances:
        params = ""
        if inst.param_overrides:
            parts = [unparse_expr(e) if name is None
                     else f".{name}({unparse_expr(e)})"
                     for name, e in inst.param_overrides]
            params = " #(" + ", ".join(parts) + ")"
        conns = []
        for name, expr in inst.connections:
            body = "" if expr is None else unparse_expr(expr)
            conns.append(body if name is None else f".{name}({body})")
        lines.append(f"{_IND}{inst.module}{params} {inst.name}"
                     f"({', '.join(conns)});")
    for alw in module.always_blocks:
        if alw.edges:
            head = f"{_IND}always @{_edges(alw.edges)}"
        elif has_timing(alw.body):
            head = f"{_IND}always"
        else:
            head = f"{_IND}always @*"
        lines.append(head)
        lines.append(unparse_stmt(alw.body, 2))
    for ini in module.initial_blocks:
        lines.append(f"{_IND}initial")
        lines.append(unparse_stmt(ini.body, 2))

    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def unparse(source: A.SourceFile | A.Module) -> str:
    """Render a whole source file (or a single module)."""
    if isinstance(source, A.Module):
        return unparse_module(source)
    return "\n".join(unparse_module(m) for m in source.modules.values())


# --------------------------------------------------------------------------
# Structural comparison support
# --------------------------------------------------------------------------


def strip_locations(node):
    """Deep-copy an AST value with every ``loc`` field cleared.

    Makes reparsed ASTs structurally comparable: source locations are the
    only fields that legitimately differ across a round trip.
    """
    if isinstance(node, A.SourceFile):
        out = A.SourceFile()
        for name, mod in node.modules.items():
            out.modules[name] = strip_locations(mod)
        return out
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        updates = {}
        for f in dataclasses.fields(node):
            if f.name == "loc":
                updates[f.name] = None
            else:
                updates[f.name] = strip_locations(getattr(node, f.name))
        return type(node)(**updates)
    if isinstance(node, tuple):
        return tuple(strip_locations(x) for x in node)
    if isinstance(node, list):
        return [strip_locations(x) for x in node]
    return node
