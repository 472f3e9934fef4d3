"""Bit-parallel simulation of AIGs.

Simulation is used in three places in the reproduction:

* functional verification that synthesis passes preserve behaviour
  (exhaustive simulation of small circuits),
* signature-based candidate filtering for ``fraig``, ``resub`` and
  ``rewrite`` (random 64/256-bit word simulation), and
* truth-table computation of collapsed cones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.aig.graph import AIG, Literal, lit_var, lit_is_compl


def simulate(aig: AIG, input_values: Sequence[int]) -> List[int]:
    """Simulate the AIG on a single input vector of 0/1 values.

    Parameters
    ----------
    aig:
        The graph to simulate.
    input_values:
        Sequence of 0/1 values, one per primary input (in PI order).

    Returns
    -------
    The 0/1 values of the primary outputs, in PO order.
    """
    if len(input_values) != aig.num_pis:
        raise ValueError(
            f"expected {aig.num_pis} input values, got {len(input_values)}"
        )
    values = [0] * aig.num_vars
    for var, value in zip(aig.pis, input_values):
        values[var] = int(bool(value))
    for node in aig.nodes():
        if node.is_and:
            assert node.fanin0 is not None and node.fanin1 is not None
            a = values[lit_var(node.fanin0)] ^ int(lit_is_compl(node.fanin0))
            b = values[lit_var(node.fanin1)] ^ int(lit_is_compl(node.fanin1))
            values[node.var] = a & b
    outputs = []
    for po in aig.pos:
        outputs.append(values[lit_var(po)] ^ int(lit_is_compl(po)))
    return outputs


def simulate_words(aig: AIG, input_words: np.ndarray) -> np.ndarray:
    """Bit-parallel simulation with one uint64 word pattern per PI.

    Parameters
    ----------
    input_words:
        Array of shape ``(num_pis, num_words)`` with dtype ``uint64``; bit
        ``j`` of word ``w`` of row ``i`` is the value of input ``i`` in
        simulation pattern ``64 * w + j``.

    Returns
    -------
    Array of shape ``(num_pos, num_words)`` of uint64 output patterns.
    """
    input_words = np.asarray(input_words, dtype=np.uint64)
    if input_words.ndim == 1:
        input_words = input_words[:, None]
    if input_words.shape[0] != aig.num_pis:
        raise ValueError(
            f"expected {aig.num_pis} input rows, got {input_words.shape[0]}"
        )
    num_words = input_words.shape[1]
    all_ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    values = np.zeros((aig.num_vars, num_words), dtype=np.uint64)
    for row, var in enumerate(aig.pis):
        values[var] = input_words[row]
    for node in aig.nodes():
        if node.is_and:
            assert node.fanin0 is not None and node.fanin1 is not None
            a = values[lit_var(node.fanin0)]
            if lit_is_compl(node.fanin0):
                a = a ^ all_ones
            b = values[lit_var(node.fanin1)]
            if lit_is_compl(node.fanin1):
                b = b ^ all_ones
            values[node.var] = a & b
    outputs = np.zeros((aig.num_pos, num_words), dtype=np.uint64)
    for idx, po in enumerate(aig.pos):
        word = values[lit_var(po)]
        if lit_is_compl(po):
            word = word ^ all_ones
        outputs[idx] = word
    return outputs


def node_signatures(aig: AIG, input_words: np.ndarray) -> np.ndarray:
    """Simulation signatures of *all* variables (not just POs).

    Used by fraig/resub to group candidate-equivalent nodes.  Returns an
    array of shape ``(num_vars, num_words)``.
    """
    input_words = np.asarray(input_words, dtype=np.uint64)
    if input_words.ndim == 1:
        input_words = input_words[:, None]
    num_words = input_words.shape[1]
    all_ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    values = np.zeros((aig.num_vars, num_words), dtype=np.uint64)
    for row, var in enumerate(aig.pis):
        values[var] = input_words[row]
    for node in aig.nodes():
        if node.is_and:
            assert node.fanin0 is not None and node.fanin1 is not None
            a = values[lit_var(node.fanin0)]
            if lit_is_compl(node.fanin0):
                a = a ^ all_ones
            b = values[lit_var(node.fanin1)]
            if lit_is_compl(node.fanin1):
                b = b ^ all_ones
            values[node.var] = a & b
    return values


def random_simulation(
    aig: AIG, num_words: int = 4, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Simulate all nodes on random patterns; returns node signatures."""
    return node_signatures(aig, _random_patterns(aig, num_words, rng))


def _random_patterns(
    aig: AIG, num_words: int, rng: Optional[np.random.Generator]
) -> np.ndarray:
    """One row of ``num_words`` random uint64 words per PI."""
    rng = rng if rng is not None else np.random.default_rng(2022)
    return rng.integers(
        0, np.iinfo(np.uint64).max, size=(aig.num_pis, num_words), dtype=np.uint64,
        endpoint=True,
    )


def random_signatures(
    aig: AIG, num_words: int = 4, rng: Optional[np.random.Generator] = None
) -> List[int]:
    """Random-simulation signatures as one Python int per variable.

    Draws the same patterns as :func:`random_simulation` from the same
    ``rng`` and packs each variable's words little-endian, so
    ``random_signatures(aig, w, rng_a)[var] ==
    int.from_bytes(random_simulation(aig, w, rng_b)[var].tobytes(), "little")``
    for equally seeded generators.  The cut passes compare and combine
    whole signatures, which Python ints do in one operation each.
    """
    patterns = _random_patterns(aig, num_words, rng)
    ones = (1 << (64 * num_words)) - 1
    is_and, fanin0, fanin1 = aig.node_arrays()
    sigs = [0] * len(is_and)
    for row, var in enumerate(aig.pis):
        sigs[var] = int.from_bytes(patterns[row].tobytes(), "little")
    for var in range(1, len(is_and)):
        if is_and[var]:
            f0 = fanin0[var]
            f1 = fanin1[var]
            s0 = sigs[f0 >> 1]
            s1 = sigs[f1 >> 1]
            sigs[var] = (s0 ^ ones if f0 & 1 else s0) & (s1 ^ ones if f1 & 1 else s1)
    return sigs


def exhaustive_output_tables(aig: AIG) -> List[int]:
    """Truth tables (as Python ints) of all POs over all PI minterms.

    Only feasible for small input counts; guarded at 16 inputs.
    """
    n = aig.num_pis
    if n > 16:
        raise ValueError("exhaustive simulation limited to 16 inputs")
    num_patterns = 1 << n
    num_words = (num_patterns + 63) // 64
    inputs = np.zeros((n, num_words), dtype=np.uint64)
    for pattern in range(num_patterns):
        word, bit = divmod(pattern, 64)
        for i in range(n):
            if (pattern >> i) & 1:
                inputs[i, word] |= np.uint64(1) << np.uint64(bit)
    outputs = simulate_words(aig, inputs)
    tables = []
    for row in outputs:
        value = 0
        for word_idx in range(num_words):
            value |= int(row[word_idx]) << (64 * word_idx)
        mask = (1 << num_patterns) - 1
        tables.append(value & mask)
    return tables


def functionally_equivalent(a: AIG, b: AIG, num_words: int = 8,
                            rng: Optional[np.random.Generator] = None,
                            exhaustive_limit: int = 12) -> bool:
    """Check (or strongly test) functional equivalence of two AIGs.

    For circuits with at most ``exhaustive_limit`` inputs the check is an
    exact exhaustive comparison; beyond that it falls back to random
    simulation with ``num_words * 64`` patterns, which is the standard
    signature-based filter used before SAT in industrial tools (we have no
    SAT solver dependency, so large circuits get a probabilistic check).
    """
    if a.num_pis != b.num_pis or a.num_pos != b.num_pos:
        return False
    if a.num_pis <= exhaustive_limit:
        return exhaustive_output_tables(a) == exhaustive_output_tables(b)
    rng = rng if rng is not None else np.random.default_rng(7)
    patterns = rng.integers(
        0, np.iinfo(np.uint64).max, size=(a.num_pis, num_words), dtype=np.uint64,
        endpoint=True,
    )
    return bool(np.array_equal(simulate_words(a, patterns), simulate_words(b, patterns)))
