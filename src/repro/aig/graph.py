"""Core And-Inverter Graph data structure.

An AIG represents a combinational logic network using only two-input AND
nodes and inverters encoded as edge attributes (complemented edges).  The
encoding follows the AIGER convention:

* every node has an integer *variable index* ``var >= 0``,
* a *literal* is ``2 * var + complement`` where ``complement`` is 0 or 1,
* variable 0 is the constant node, literal 0 is constant false and
  literal 1 is constant true,
* primary inputs and AND nodes occupy variables ``1 .. num_vars - 1``,
* primary outputs are literals referring to any node.

The class maintains structural hashing (no two AND nodes share the same
ordered fanin pair), fanout counts and levels.  All synthesis operations in
:mod:`repro.synth` are expressed in terms of this interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


Literal = int
"""Type alias for an AIGER-style literal (``2 * var + complement``)."""

CONST0: Literal = 0
CONST1: Literal = 1


def lit(var: int, complement: bool = False) -> Literal:
    """Build a literal from a variable index and a complement flag."""
    return 2 * var + int(bool(complement))


def lit_var(literal: Literal) -> int:
    """Return the variable index of a literal."""
    return literal >> 1


def lit_is_compl(literal: Literal) -> bool:
    """Return ``True`` when the literal is complemented."""
    return bool(literal & 1)


def lit_not(literal: Literal) -> Literal:
    """Return the complement of a literal."""
    return literal ^ 1


def lit_regular(literal: Literal) -> Literal:
    """Return the non-complemented version of a literal."""
    return literal & ~1


@dataclass(frozen=True)
class AigNode:
    """Immutable record describing one AIG node.

    Attributes
    ----------
    var:
        Variable index of the node.
    kind:
        One of ``"const"``, ``"pi"`` or ``"and"``.
    fanin0, fanin1:
        Fanin literals for AND nodes (``None`` for constants and PIs).
    name:
        Optional symbolic name (used for PIs/POs round-tripped from AIGER).
    """

    var: int
    kind: str
    fanin0: Optional[Literal] = None
    fanin1: Optional[Literal] = None
    name: Optional[str] = None

    @property
    def is_and(self) -> bool:
        return self.kind == "and"

    @property
    def is_pi(self) -> bool:
        return self.kind == "pi"

    @property
    def is_const(self) -> bool:
        return self.kind == "const"


class AIG:
    """A combinational And-Inverter Graph with structural hashing.

    The graph is append-only: nodes are created through :meth:`add_pi` and
    :meth:`add_and` and never mutated in place.  Synthesis operations build
    a new :class:`AIG` rather than editing an existing one, which keeps the
    data structure simple and makes reasoning about transformations easy
    (this mirrors how most Python logic-synthesis experiments drive ABC:
    each pass produces a new network).
    """

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        # Node storage indexed by variable number.  Index 0 is the constant.
        self._nodes: List[AigNode] = [AigNode(var=0, kind="const")]
        self._pis: List[int] = []           # variable indices of PIs
        self._pos: List[Literal] = []        # output literals
        self._po_names: List[Optional[str]] = []
        # Structural hashing: (fanin0, fanin1) -> var of existing AND node.
        self._strash: Dict[Tuple[Literal, Literal], int] = {}
        # Flat per-variable arrays maintained alongside ``_nodes``: the hot
        # paths (cut enumeration, mapping, cone walks) index these instead
        # of chasing AigNode dataclasses.  The graph is append-only, so the
        # arrays grow in lock-step and never need invalidation.
        self._is_and: bytearray = bytearray(1)
        self._fanin0: List[Literal] = [0]
        self._fanin1: List[Literal] = [0]
        # Cached levels / fanout counts, invalidated on mutation.
        self._levels: Optional[List[int]] = None
        self._fanouts: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_pi(self, name: Optional[str] = None) -> Literal:
        """Create a primary input and return its (positive) literal."""
        var = len(self._nodes)
        self._nodes.append(AigNode(var=var, kind="pi", name=name))
        self._pis.append(var)
        self._is_and.append(0)
        self._fanin0.append(0)
        self._fanin1.append(0)
        self._levels = None
        self._fanouts = None
        return lit(var)

    def add_and(self, a: Literal, b: Literal) -> Literal:
        """Create (or reuse) an AND node over literals ``a`` and ``b``.

        Performs constant propagation and structural hashing, so the
        returned literal may refer to an existing node, a fanin or a
        constant.
        """
        self._check_literal(a)
        self._check_literal(b)
        # Normalise operand order for structural hashing.
        if a > b:
            a, b = b, a
        # Constant / trivial cases.
        if a == CONST0:
            return CONST0
        if a == CONST1:
            return b
        if a == b:
            return a
        if a == lit_not(b):
            return CONST0
        key = (a, b)
        existing = self._strash.get(key)
        if existing is not None:
            return lit(existing)
        var = len(self._nodes)
        self._nodes.append(AigNode(var=var, kind="and", fanin0=a, fanin1=b))
        self._strash[key] = var
        self._is_and.append(1)
        self._fanin0.append(a)
        self._fanin1.append(b)
        self._levels = None
        self._fanouts = None
        return lit(var)

    def add_po(self, literal: Literal, name: Optional[str] = None) -> int:
        """Register ``literal`` as a primary output; return the output index."""
        self._check_literal(literal)
        self._pos.append(literal)
        self._po_names.append(name)
        self._fanouts = None
        return len(self._pos) - 1

    def set_po(self, index: int, literal: Literal) -> None:
        """Redirect an existing primary output to a new literal."""
        self._check_literal(literal)
        self._pos[index] = literal
        self._fanouts = None

    # ------------------------------------------------------------------
    # Derived logic helpers (convenience constructors used by generators)
    # ------------------------------------------------------------------
    def add_not(self, a: Literal) -> Literal:
        return lit_not(a)

    def add_or(self, a: Literal, b: Literal) -> Literal:
        return lit_not(self.add_and(lit_not(a), lit_not(b)))

    def add_nand(self, a: Literal, b: Literal) -> Literal:
        return lit_not(self.add_and(a, b))

    def add_nor(self, a: Literal, b: Literal) -> Literal:
        return self.add_and(lit_not(a), lit_not(b))

    def add_xor(self, a: Literal, b: Literal) -> Literal:
        # a ^ b = (a & ~b) | (~a & b)
        t0 = self.add_and(a, lit_not(b))
        t1 = self.add_and(lit_not(a), b)
        return self.add_or(t0, t1)

    def add_xnor(self, a: Literal, b: Literal) -> Literal:
        return lit_not(self.add_xor(a, b))

    def add_mux(self, sel: Literal, then_lit: Literal, else_lit: Literal) -> Literal:
        """Return ``sel ? then_lit : else_lit``."""
        t0 = self.add_and(sel, then_lit)
        t1 = self.add_and(lit_not(sel), else_lit)
        return self.add_or(t0, t1)

    def add_maj(self, a: Literal, b: Literal, c: Literal) -> Literal:
        """Majority-of-three, used by adder generators."""
        ab = self.add_and(a, b)
        ac = self.add_and(a, c)
        bc = self.add_and(b, c)
        return self.add_or(self.add_or(ab, ac), bc)

    def add_and_multi(self, literals: Sequence[Literal]) -> Literal:
        """Balanced AND over an arbitrary number of literals."""
        items = list(literals)
        if not items:
            return CONST1
        while len(items) > 1:
            nxt = []
            for i in range(0, len(items) - 1, 2):
                nxt.append(self.add_and(items[i], items[i + 1]))
            if len(items) % 2:
                nxt.append(items[-1])
            items = nxt
        return items[0]

    def add_or_multi(self, literals: Sequence[Literal]) -> Literal:
        return lit_not(self.add_and_multi([lit_not(x) for x in literals]))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return len(self._nodes)

    @property
    def num_pis(self) -> int:
        return len(self._pis)

    @property
    def num_pos(self) -> int:
        return len(self._pos)

    @property
    def num_ands(self) -> int:
        return len(self._nodes) - 1 - len(self._pis)

    @property
    def pis(self) -> List[int]:
        """Variable indices of primary inputs, in creation order."""
        return list(self._pis)

    @property
    def pos(self) -> List[Literal]:
        """Output literals, in creation order."""
        return list(self._pos)

    @property
    def po_names(self) -> List[Optional[str]]:
        return list(self._po_names)

    def node(self, var: int) -> AigNode:
        return self._nodes[var]

    def nodes(self) -> Iterator[AigNode]:
        """Iterate over all nodes in topological (creation) order."""
        return iter(self._nodes)

    def and_nodes(self) -> Iterator[AigNode]:
        for node in self._nodes:
            if node.is_and:
                yield node

    def is_pi(self, var: int) -> bool:
        return self._nodes[var].is_pi

    def is_and(self, var: int) -> bool:
        return self._nodes[var].is_and

    def fanins(self, var: int) -> Tuple[Literal, Literal]:
        if not self._is_and[var]:
            raise ValueError(f"node {var} is not an AND node")
        return self._fanin0[var], self._fanin1[var]

    # ------------------------------------------------------------------
    # Flat-array views (hot-path accessors)
    # ------------------------------------------------------------------
    def node_arrays(self) -> Tuple[bytearray, List[Literal], List[Literal]]:
        """``(is_and, fanin0, fanin1)`` flat arrays indexed by variable.

        ``is_and[var]`` is 1 for AND nodes; ``fanin0``/``fanin1`` hold the
        fanin literals (0 for constants and PIs).  The arrays are the
        graph's own storage — treat them as read-only.
        """
        return self._is_and, self._fanin0, self._fanin1

    def levels_array(self) -> List[int]:
        """Cached per-variable levels; treat as read-only (no copy)."""
        if self._levels is None:
            levels = [0] * len(self._nodes)
            is_and, fanin0, fanin1 = self._is_and, self._fanin0, self._fanin1
            for var in range(1, len(levels)):
                if is_and[var]:
                    l0 = levels[fanin0[var] >> 1]
                    l1 = levels[fanin1[var] >> 1]
                    levels[var] = 1 + (l0 if l0 >= l1 else l1)
            self._levels = levels
        return self._levels

    def fanout_array(self) -> List[int]:
        """Cached per-variable fanout counts; treat as read-only (no copy)."""
        if self._fanouts is None:
            counts = [0] * len(self._nodes)
            is_and, fanin0, fanin1 = self._is_and, self._fanin0, self._fanin1
            for var in range(1, len(counts)):
                if is_and[var]:
                    counts[fanin0[var] >> 1] += 1
                    counts[fanin1[var] >> 1] += 1
            for po in self._pos:
                counts[po >> 1] += 1
            self._fanouts = counts
        return self._fanouts

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def levels(self) -> List[int]:
        """Return the level (AND-depth from PIs) of every variable."""
        return list(self.levels_array())

    def depth(self) -> int:
        """Maximum AND-level over all primary outputs."""
        if not self._pos:
            return 0
        levels = self.levels_array()
        return max(levels[po >> 1] for po in self._pos)

    def fanout_counts(self) -> List[int]:
        """Number of fanout references (including PO references) per variable."""
        return list(self.fanout_array())

    def reachable_vars(self) -> List[int]:
        """Variables in the transitive fanin of the primary outputs."""
        seen = bytearray(len(self._nodes))
        is_and, fanin0, fanin1 = self._is_and, self._fanin0, self._fanin1
        stack = [po >> 1 for po in self._pos]
        while stack:
            var = stack.pop()
            if seen[var]:
                continue
            seen[var] = 1
            if is_and[var]:
                stack.append(fanin0[var] >> 1)
                stack.append(fanin1[var] >> 1)
        return [v for v in range(len(self._nodes)) if seen[v]]

    def stats(self) -> Dict[str, int]:
        """Summary statistics comparable to ABC's ``print_stats``."""
        return {
            "pis": self.num_pis,
            "pos": self.num_pos,
            "ands": self.num_ands,
            "levels": self.depth(),
        }

    # ------------------------------------------------------------------
    # Cleanup / copying
    # ------------------------------------------------------------------
    def cleanup(self) -> "AIG":
        """Return a copy with dangling (unreachable) AND nodes removed."""
        return self.copy_with()

    def copy_with(self, po_map=None) -> "AIG":
        """Structurally copy the reachable part of the graph.

        Parameters
        ----------
        po_map:
            Optional callable mapping ``(old_aig, old_literal, translate)``
            to a new literal; used by transformation passes to substitute
            logic while copying.  ``translate`` is a function converting an
            old literal to a literal in the new AIG.
        """
        new = AIG(name=self.name)
        mapping: Dict[int, Literal] = {0: CONST0}
        for pi_var in self._pis:
            node = self._nodes[pi_var]
            mapping[pi_var] = new.add_pi(name=node.name)

        def translate(old_lit: Literal) -> Literal:
            base = mapping[lit_var(old_lit)]
            return base ^ (old_lit & 1)

        is_and, fanin0, fanin1 = self._is_and, self._fanin0, self._fanin1
        reachable = bytearray(len(self._nodes))
        stack = [po >> 1 for po in self._pos]
        while stack:
            var = stack.pop()
            if reachable[var]:
                continue
            reachable[var] = 1
            if is_and[var]:
                stack.append(fanin0[var] >> 1)
                stack.append(fanin1[var] >> 1)
        for var in range(1, len(self._nodes)):
            if is_and[var] and reachable[var]:
                mapping[var] = new.add_and(
                    translate(fanin0[var]), translate(fanin1[var])
                )
        for po_lit, po_name in zip(self._pos, self._po_names):
            if po_map is not None:
                new_lit = po_map(self, po_lit, translate)
            else:
                new_lit = translate(po_lit)
            new.add_po(new_lit, name=po_name)
        return new

    def copy(self) -> "AIG":
        """Deep copy preserving all reachable structure."""
        return self.copy_with()

    # ------------------------------------------------------------------
    # Flat-array reconstruction (the repro.aig.flat codec)
    # ------------------------------------------------------------------
    @classmethod
    def from_flat_arrays(
        cls,
        name: str,
        is_and: Sequence[int],
        fanin0: Sequence[Literal],
        fanin1: Sequence[Literal],
        pi_names: Sequence[Optional[str]],
        pos: Sequence[Literal],
        po_names: Sequence[Optional[str]],
    ) -> "AIG":
        """Rebuild a graph from its flat per-variable arrays.

        The inverse of :meth:`node_arrays` (plus the PI/PO metadata): a
        graph serialised as ``(is_and, fanin0, fanin1)`` arrays — e.g.
        encoded by :mod:`repro.aig.flat` — reconstructs bit-identically,
        including node order, structural-hashing table contents and
        :func:`repro.qor.backends.aig_fingerprint`.  The arrays must
        come from a well-formed AIG (``add_and``-normalised fanins);
        no re-hashing or constant propagation is performed, which is
        what makes this an O(num_vars) copy instead of a rebuild.
        """
        if not (len(is_and) == len(fanin0) == len(fanin1)):
            raise ValueError("flat arrays must have equal length")
        if len(is_and) == 0 or is_and[0]:
            raise ValueError("variable 0 must be the constant node")
        new = cls(name=name)
        pi_iter = iter(pi_names)
        for var in range(1, len(is_and)):
            if is_and[var]:
                a, b = fanin0[var], fanin1[var]
                new._nodes.append(AigNode(var=var, kind="and",
                                          fanin0=a, fanin1=b))
                new._strash[(a, b)] = var
            else:
                new._nodes.append(AigNode(var=var, kind="pi",
                                          name=next(pi_iter, None)))
                new._pis.append(var)
        new._is_and = bytearray(is_and)
        new._fanin0 = [int(x) for x in fanin0]
        new._fanin1 = [int(x) for x in fanin1]
        for po_lit, po_name in zip(pos, po_names):
            new._check_literal(int(po_lit))
            new._pos.append(int(po_lit))
            new._po_names.append(po_name)
        return new

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_literal(self, literal: Literal) -> None:
        if literal < 0 or lit_var(literal) >= len(self._nodes):
            raise ValueError(f"literal {literal} refers to an unknown node")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"AIG(name={self.name!r}, pis={self.num_pis}, pos={self.num_pos}, "
            f"ands={self.num_ands}, levels={self.depth()})"
        )
