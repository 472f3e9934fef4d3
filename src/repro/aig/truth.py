"""Truth-table utilities for small functions (up to 16 inputs).

Truth tables are stored as Python integers whose bit ``i`` gives the
function value on the input minterm ``i`` (input 0 is the least
significant selector bit).  This representation is convenient because
Python integers are arbitrary precision, so the same code handles 2-input
cut functions and 12-input collapsed cones.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Iterable, List, Sequence, Tuple


def table_mask(num_vars: int) -> int:
    """All-ones mask over ``2**num_vars`` minterms."""
    return (1 << (1 << num_vars)) - 1


#: The largest input count the module supports.
MAX_VARS = 16


@lru_cache(maxsize=MAX_VARS * (MAX_VARS + 1) // 2)  # every (index, num_vars) key
def var_table(index: int, num_vars: int) -> int:
    """Truth table of projection variable ``x_index`` over ``num_vars`` inputs."""
    if index >= num_vars:
        raise ValueError(f"variable {index} out of range for {num_vars} inputs")
    # 2**index zeros then 2**index ones, repeated over 2**num_vars minterms.
    width = 1 << index
    bits = ((1 << width) - 1) << width
    width *= 2
    while width < 1 << num_vars:
        bits |= bits << width
        width *= 2
    return bits


@lru_cache(maxsize=MAX_VARS + 1)
def var_tables(num_vars: int) -> Tuple[int, ...]:
    """``var_table(i, num_vars)`` for every input ``i``, as one tuple."""
    return tuple(var_table(index, num_vars) for index in range(num_vars))


def const_table(value: bool, num_vars: int) -> int:
    return table_mask(num_vars) if value else 0


def tt_not(table: int, num_vars: int) -> int:
    return table ^ table_mask(num_vars)


def tt_and(a: int, b: int) -> int:
    return a & b


def tt_or(a: int, b: int) -> int:
    return a | b


def tt_xor(a: int, b: int) -> int:
    return a ^ b


def cofactor(table: int, num_vars: int, var: int, value: int) -> int:
    """Shannon cofactor of ``table`` with respect to ``x_var = value``.

    The result is still expressed over ``num_vars`` variables (the
    cofactored variable becomes don't-care), which keeps composition
    simple.
    """
    mask = var_table(var, num_vars)
    if value:
        positive = table & mask
        return positive | (positive >> (1 << var))
    negative = table & ~mask & table_mask(num_vars)
    return negative | (negative << (1 << var)) & table_mask(num_vars)


def depends_on(table: int, num_vars: int, var: int) -> bool:
    """True when the function actually depends on variable ``var``."""
    return cofactor(table, num_vars, var, 0) != cofactor(table, num_vars, var, 1)


def support(table: int, num_vars: int) -> List[int]:
    """Indices of variables the function depends on."""
    return [v for v in range(num_vars) if depends_on(table, num_vars, v)]


def count_ones(table: int, num_vars: int) -> int:
    """Number of satisfied minterms."""
    return bin(table & table_mask(num_vars)).count("1")


def expand_table(table: int, from_vars: int, to_vars: int) -> int:
    """Re-express a table over a larger variable count (new vars are don't care)."""
    if to_vars < from_vars:
        raise ValueError("cannot shrink a truth table with expand_table")
    result = table & table_mask(from_vars)
    width = 1 << from_vars
    for _ in range(to_vars - from_vars):
        result = result | (result << width)
        width *= 2
    return result


def permute_table(table: int, num_vars: int, perm: Sequence[int]) -> int:
    """Apply an input permutation: new variable ``i`` reads old variable ``perm[i]``."""
    if sorted(perm) != list(range(num_vars)):
        raise ValueError("perm must be a permutation of the variable indices")
    result = 0
    for minterm in range(1 << num_vars):
        old_minterm = 0
        for new_idx, old_idx in enumerate(perm):
            if (minterm >> new_idx) & 1:
                old_minterm |= 1 << old_idx
        if (table >> old_minterm) & 1:
            result |= 1 << minterm
    return result


def flip_input(table: int, num_vars: int, var: int) -> int:
    """Complement one input variable of the function."""
    mask = var_table(var, num_vars)
    shift = 1 << var
    high = table & mask
    low = table & ~mask & table_mask(num_vars)
    return (high >> shift) | ((low << shift) & table_mask(num_vars))


def minterms(table: int, num_vars: int) -> List[int]:
    """List the satisfied minterms of a function."""
    return [m for m in range(1 << num_vars) if (table >> m) & 1]


# ----------------------------------------------------------------------
# NPN canonicalisation
# ----------------------------------------------------------------------
def npn_canonical(table: int, num_vars: int) -> Tuple[int, Tuple[int, ...], int, int]:
    """Exact NPN-canonical form of a small function.

    Returns ``(canon_table, perm, input_flips, output_flip)`` such that the
    canonical table is obtained from ``table`` by flipping the inputs in the
    bitmask ``input_flips``, permuting inputs by ``perm`` and complementing
    the output when ``output_flip`` is 1.  Intended for functions of at most
    4–5 variables (used by the rewriting pass); the enumeration is
    exhaustive.
    """
    best = None
    for out_flip in (0, 1):
        base = tt_not(table, num_vars) if out_flip else table
        for flips in range(1 << num_vars):
            flipped = base
            for v in range(num_vars):
                if (flips >> v) & 1:
                    flipped = flip_input(flipped, num_vars, v)
            for perm in permutations(range(num_vars)):
                candidate = permute_table(flipped, num_vars, perm)
                key = (candidate, perm, flips, out_flip)
                if best is None or candidate < best[0]:
                    best = key
    assert best is not None
    return best


def npn_class_key(table: int, num_vars: int) -> int:
    """Canonical representative table used as an NPN-class dictionary key."""
    return npn_canonical(table, num_vars)[0]


# ----------------------------------------------------------------------
# ISOP (irredundant sum of products) via the Minato–Morreale procedure
# ----------------------------------------------------------------------
def isop(on_set: int, dc_upper: int, num_vars: int) -> List[Tuple[int, int]]:
    """Compute an irredundant SOP cover.

    Parameters
    ----------
    on_set:
        Truth table of the function's on-set (must be covered).
    dc_upper:
        Truth table of ``on_set | dont_care`` (may be used).  For a fully
        specified function pass ``on_set`` twice.
    num_vars:
        Number of input variables.

    Returns
    -------
    list of cubes, each a ``(positive_mask, negative_mask)`` pair of input
    bitmasks: the cube is the conjunction of ``x_i`` for bits in
    ``positive_mask`` and ``~x_i`` for bits in ``negative_mask``.
    """
    cover, _ = _isop_rec(on_set & table_mask(num_vars), dc_upper & table_mask(num_vars), num_vars, num_vars)
    return cover


def _isop_rec(lower: int, upper: int, num_vars: int, depth: int) -> Tuple[List[Tuple[int, int]], int]:
    if lower == 0:
        return [], 0
    if upper == table_mask(num_vars):
        return [(0, 0)], table_mask(num_vars)
    # Choose the top-most variable in the support of either bound.
    var = None
    for v in reversed(range(depth)):
        if depends_on(lower, num_vars, v) or depends_on(upper, num_vars, v):
            var = v
            break
    if var is None:
        # Constant interval: lower != 0 and upper != all-ones cannot happen here.
        return [(0, 0)], table_mask(num_vars)

    l0 = cofactor(lower, num_vars, var, 0)
    l1 = cofactor(lower, num_vars, var, 1)
    u0 = cofactor(upper, num_vars, var, 0)
    u1 = cofactor(upper, num_vars, var, 1)

    cover0, f0 = _isop_rec(l0 & ~u1 & table_mask(num_vars), u0, num_vars, var)
    cover1, f1 = _isop_rec(l1 & ~u0 & table_mask(num_vars), u1, num_vars, var)
    new_lower = (l0 & ~f0 & table_mask(num_vars)) | (l1 & ~f1 & table_mask(num_vars))
    cover2, f2 = _isop_rec(new_lower, u0 & u1, num_vars, var)

    var_mask = var_table(var, num_vars)
    result_table = f2
    cubes: List[Tuple[int, int]] = []
    for pos, neg in cover0:
        cubes.append((pos, neg | (1 << var)))
    for pos, neg in cover1:
        cubes.append((pos | (1 << var), neg))
    cubes.extend(cover2)
    result_table |= (f0 & ~var_mask) & table_mask(num_vars)
    result_table |= f1 & var_mask
    return cubes, result_table


def cube_table(cube: Tuple[int, int], num_vars: int) -> int:
    """Truth table of a single cube ``(positive_mask, negative_mask)``."""
    pos, neg = cube
    table = table_mask(num_vars)
    for v in range(num_vars):
        if (pos >> v) & 1:
            table &= var_table(v, num_vars)
        elif (neg >> v) & 1:
            table &= tt_not(var_table(v, num_vars), num_vars)
    return table


def sop_table(cubes: Iterable[Tuple[int, int]], num_vars: int) -> int:
    """Truth table of a sum-of-products cover."""
    table = 0
    for cube in cubes:
        table |= cube_table(cube, num_vars)
    return table


def cube_literal_count(cube: Tuple[int, int]) -> int:
    pos, neg = cube
    return bin(pos).count("1") + bin(neg).count("1")
