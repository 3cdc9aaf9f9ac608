"""And-Inverter Graphs (AIGs) — the synthesis engine's internal netlist form.

Literals follow the AIGER convention: literal ``2*n`` is node ``n`` plain,
``2*n + 1`` is node ``n`` complemented.  Node 0 is constant false, so literal
``0`` is FALSE and literal ``1`` is TRUE.  AND nodes are structurally hashed
at construction, which deduplicates isomorphic subgraphs for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

FALSE = 0
TRUE = 1


def lit(node: int, complemented: bool = False) -> int:
    return 2 * node + (1 if complemented else 0)


def lit_node(literal: int) -> int:
    return literal >> 1


def lit_compl(literal: int) -> bool:
    return bool(literal & 1)


def negate(literal: int) -> int:
    return literal ^ 1


@dataclass
class Aig:
    """A combinational AND-inverter graph with named inputs and outputs."""

    # node id -> (fanin0 literal, fanin1 literal); inputs/const have no entry.
    _ands: dict[int, tuple[int, int]] = field(default_factory=dict)
    _inputs: list[str] = field(default_factory=list)
    _input_ids: dict[str, int] = field(default_factory=dict)
    _outputs: list[tuple[str, int]] = field(default_factory=list)
    _strash: dict[tuple[int, int], int] = field(default_factory=dict)
    _next_id: int = 1

    # -- construction --------------------------------------------------------

    def add_input(self, name: str) -> int:
        """Declare a primary input; returns its (plain) literal."""
        if name in self._input_ids:
            return lit(self._input_ids[name])
        node = self._next_id
        self._next_id += 1
        self._input_ids[name] = node
        self._inputs.append(name)
        return lit(node)

    def add_output(self, name: str, literal: int) -> None:
        self._outputs.append((name, literal))

    def and_(self, a: int, b: int) -> int:
        """AND of two literals with constant folding and structural hashing."""
        if a > b:
            a, b = b, a
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == b:
            return a
        if a == negate(b):
            return FALSE
        key = (a, b)
        existing = self._strash.get(key)
        if existing is not None:
            return lit(existing)
        node = self._next_id
        self._next_id += 1
        self._ands[node] = key
        self._strash[key] = node
        return lit(node)

    def or_(self, a: int, b: int) -> int:
        return negate(self.and_(negate(a), negate(b)))

    def xor_(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, negate(b)), self.and_(negate(a), b))

    def mux(self, sel: int, if_true: int, if_false: int) -> int:
        return self.or_(self.and_(sel, if_true), self.and_(negate(sel), if_false))

    # -- inspection ------------------------------------------------------------

    @property
    def inputs(self) -> list[str]:
        return list(self._inputs)

    @property
    def outputs(self) -> list[tuple[str, int]]:
        return list(self._outputs)

    @property
    def num_ands(self) -> int:
        return len(self._ands)

    def fanins(self, node: int) -> tuple[int, int]:
        return self._ands[node]

    def is_input(self, node: int) -> bool:
        return node != 0 and node not in self._ands

    def reachable(self) -> set[int]:
        """Nodes in the transitive fanin of any output."""
        seen: set[int] = set()
        stack = [lit_node(l) for _, l in self._outputs]
        while stack:
            node = stack.pop()
            if node in seen or node == 0:
                continue
            seen.add(node)
            pair = self._ands.get(node)
            if pair:
                stack.append(lit_node(pair[0]))
                stack.append(lit_node(pair[1]))
        return seen

    def levels(self) -> dict[int, int]:
        """Logic depth of every reachable node (inputs are level 0)."""
        depth: dict[int, int] = {0: 0}
        order = self.topological_order()
        for node in order:
            if node in self._ands:
                a, b = self._ands[node]
                depth[node] = 1 + max(depth.get(lit_node(a), 0),
                                      depth.get(lit_node(b), 0))
            else:
                depth[node] = 0
        return depth

    def depth(self) -> int:
        levels = self.levels()
        if not self._outputs:
            return 0
        return max(levels.get(lit_node(l), 0) for _, l in self._outputs)

    def topological_order(self) -> list[int]:
        """Reachable nodes, fanins before fanouts."""
        order: list[int] = []
        state: dict[int, int] = {}
        for _, out in self._outputs:
            stack = [(lit_node(out), False)]
            while stack:
                node, processed = stack.pop()
                if node == 0 or state.get(node) == 2:
                    continue
                if processed:
                    state[node] = 2
                    order.append(node)
                    continue
                state[node] = 1
                stack.append((node, True))
                pair = self._ands.get(node)
                if pair:
                    for fan in pair:
                        if state.get(lit_node(fan)) != 2:
                            stack.append((lit_node(fan), False))
        return order

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, assignment: dict[str, bool]) -> dict[str, bool]:
        """Evaluate outputs for one complete input assignment."""
        words: dict[str, int] = {}
        for name in self._inputs:
            if name not in assignment:
                raise KeyError(f"missing input '{name}'")
            words[name] = 1 if assignment[name] else 0
        return {name: bool(word)
                for name, word in self.evaluate_words(words, bits=1).items()}

    def evaluate_words(self, assignment: dict[str, int], bits: int = 64) -> dict[str, int]:
        """Bit-parallel evaluation: each input carries ``bits`` patterns.

        Bit ``k`` of every word is pattern ``k``; missing inputs read 0.
        One walk of the topological order evaluates all patterns at once,
        with a complemented fanin read as ``word ^ mask``.
        """
        mask = (1 << bits) - 1
        value: dict[int, int] = {0: 0}
        for name in self._inputs:
            value[self._input_ids[name]] = assignment.get(name, 0) & mask
        ands = self._ands
        for node in self.topological_order():
            pair = ands.get(node)
            if pair is None:
                value.setdefault(node, 0)  # dangling input not in inputs list
                continue
            a, b = pair
            value[node] = ((value[a >> 1] ^ (mask if a & 1 else 0))
                           & (value[b >> 1] ^ (mask if b & 1 else 0)))
        return {name: value[out >> 1] ^ (mask if out & 1 else 0)
                for name, out in self._outputs}

    # -- maintenance -----------------------------------------------------------------

    def cleanup(self) -> "Aig":
        """Return a copy with dangling AND nodes removed (inputs preserved)."""
        out = Aig()
        for name in self._inputs:
            out.add_input(name)
        mapping: dict[int, int] = {0: FALSE}
        for name, node in self._input_ids.items():
            mapping[node] = out.add_input(name)

        def map_lit(literal: int) -> int:
            base = mapping[lit_node(literal)]
            return negate(base) if lit_compl(literal) else base

        for node in self.topological_order():
            if node in self._ands:
                a, b = self._ands[node]
                mapping[node] = out.and_(map_lit(a), map_lit(b))
            elif node not in mapping:
                # Unreached input already added above; constants handled.
                mapping[node] = FALSE
        for name, literal in self._outputs:
            out.add_output(name, map_lit(literal))
        return out

    def stats(self) -> dict[str, int]:
        return {
            "inputs": len(self._inputs),
            "outputs": len(self._outputs),
            "ands": self.num_ands,
            "depth": self.depth(),
        }
