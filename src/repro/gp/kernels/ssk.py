"""Sub-sequence string kernel (SSK) over synthesis-operation sequences.

This is the logic-synthesis kernel ``k_LS`` of the BOiLS paper (Section
III-B1): sequences are compared through the weighted counts of the
sub-sequences they share,

    k(seq, seq') = Σ_{u ∈ Σ^≤ℓ}  c_u(seq) · c_u(seq'),

where the contribution of sub-sequence ``u`` to ``seq`` is

    c_u(seq) = θ_m^{|u|} · Σ_{i_1<…<i_|u|} θ_g^{gap(u, i)} · I_u(seq_i),

with ``gap(u, i) = i_|u| − i_1 + 1 − |u|`` (the number of skipped positions
inside the matching span), match decay ``θ_m ∈ [0, 1]`` and gap decay
``θ_g ∈ [0, 1]`` — exactly the weighting illustrated in the paper's
Table I.

Explicit feature map
--------------------
The kernel is a finite inner product ``Φ(seq) · Φ(seq')`` (Lodhi et al.,
JMLR 2002): each position tuple ``i_1 < … < i_p`` (``p ≤ ℓ``) adds
``θ_m^p · θ_g^gap`` to the feature of the letters it reads.  Which
features a sequence has, and each tuple's ``(order, gap)`` class, do
not depend on θ.  So the tuples are enumerated once per length and
order, their letters are encoded as integer feature codes, and each set
of sequences gets its vocabulary and scatter indices once.  Per θ, the
class weights are ``np.bincount``-ed into a dense ``n × F`` Φ, rows are
normalised (their norms are the cosine normaliser and the diagonal),
and the Gram is the GEMM ``Φ̂ Φ̂ᵀ``.  A cross Gram builds the
candidates' Φ over their own vocabulary, for their norms, and multiplies
the columns the training vocabulary shares.  The dynamic program this
replaced is frozen in :mod:`repro.gp.kernels._reference`; the two agree
to roundoff.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.gp.kernels.base import Kernel


# ----------------------------------------------------------------------
# Direct (reference) computation of c_u — used by tests and Table I
# ----------------------------------------------------------------------
def subsequence_contribution(
    u: Sequence, seq: Sequence, theta_match: float, theta_gap: float
) -> float:
    """Contribution ``c_u(seq)`` computed by direct enumeration.

    This is the textbook definition (exponential in ``|u|``); it serves as
    the ground truth for the feature map and reproduces the worked
    examples of the paper's Table I.
    """
    u = list(u)
    seq = list(seq)
    length = len(u)
    if length == 0 or length > len(seq):
        return 0.0
    total = 0.0
    for indices in combinations(range(len(seq)), length):
        if all(seq[idx] == u[pos] for pos, idx in enumerate(indices)):
            gap = indices[-1] - indices[0] + 1 - length
            total += theta_gap ** gap
    return (theta_match ** length) * total


def exact_kernel_value(
    seq_a: Sequence,
    seq_b: Sequence,
    theta_match: float,
    theta_gap: float,
    max_length: int,
    alphabet: Sequence,
) -> float:
    """Unnormalised kernel value by explicit feature enumeration (slow).

    Only practical for tiny alphabets / orders; used to validate the
    feature map.
    """
    total = 0.0
    for length in range(1, max_length + 1):
        for u in _all_subsequences(alphabet, length):
            total += subsequence_contribution(u, seq_a, theta_match, theta_gap) * \
                subsequence_contribution(u, seq_b, theta_match, theta_gap)
    return total


def _all_subsequences(alphabet: Sequence, length: int):
    if length == 0:
        yield ()
        return
    for prefix in _all_subsequences(alphabet, length - 1):
        for symbol in alphabet:
            yield prefix + (symbol,)


# ----------------------------------------------------------------------
# θ-free structure: position tuples, feature codes, vocabularies
# ----------------------------------------------------------------------
class _Tuples(NamedTuple):
    """Position tuples of one sequence length, up to one order."""

    positions: np.ndarray  # (T, top order) positions, left-padded
    classes: np.ndarray    # (T,) class of each tuple
    orders: np.ndarray     # (C,) order of each class
    gaps: np.ndarray       # (C,) gap of each class


@lru_cache(maxsize=64)
def _position_tuples(length: int, max_length: int) -> _Tuples:
    """Every position tuple of a length-``length`` sequence, order-major,
    left-padded to the top order with the position ``length``: it reads
    the digit 0 (see :func:`_digits`), and leading zeros leave a code as is.
    """
    top = min(max_length, length)
    blocks = [np.zeros((0, top), dtype=np.intp)]
    classes = [np.zeros(0, dtype=np.intp)]
    orders: List[int] = []
    gaps: List[int] = []
    for p in range(1, top + 1):
        index = np.array(list(combinations(range(length), p)),
                         dtype=np.intp).reshape(-1, p)
        # Order p has one class per gap 0 … length − p.
        classes.append(len(orders) + index[:, -1] - index[:, 0] + 1 - p)
        orders.extend([p] * (length - p + 1))
        gaps.extend(range(length - p + 1))
        padding = np.full((index.shape[0], top - p), length, dtype=np.intp)
        blocks.append(np.hstack([padding, index]))
    tuples = _Tuples(np.concatenate(blocks), np.concatenate(classes),
                     np.array(orders, dtype=float), np.array(gaps, dtype=float))
    for array in tuples:
        array.flags.writeable = False
    return tuples


def _digits(X: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Letters of ``X`` as digits ``1 … len(symbols)`` (rank in ``symbols``).

    Letters missing from the sorted symbol table all become the digit
    ``len(symbols) + 1``, which no code built from the table contains.
    A last column of zeros is appended for the tuples' padding.
    """
    digits = np.zeros((X.shape[0], X.shape[1] + 1), dtype=np.int64)
    if symbols.size:
        rank = np.searchsorted(symbols, X)
        seen = symbols[np.minimum(rank, symbols.size - 1)] == X
        digits[:, :-1] = np.where(seen, rank + 1, symbols.size + 1)
    return digits


def _codes(letters: np.ndarray, base: int) -> np.ndarray:
    """Base-``base`` numbers of digit tuples laid out along the last axis.

    No letter's digit is zero, so an order-``p`` code lies in
    ``[base^(p-1), base^p)``: codes of different orders never collide.
    """
    top = letters.shape[-1]
    if base ** top >= 2 ** 63:
        raise ValueError(f"{base - 2} distinct symbols at order {top} "
                         "overflow the 64-bit feature code")
    code = np.zeros(letters.shape[:-1], dtype=np.int64)
    for j in range(top):
        code *= base
        code += letters[..., j]
    return code


class _FeatureSet(NamedTuple):
    """The θ-free structure of one set of sequences."""

    rows: int
    tuples: _Tuples
    symbols: np.ndarray   # sorted symbol table the codes are built on
    vocab: np.ndarray     # (F,) sorted feature codes the set touches
    reader: np.ndarray    # (F,) flat (row, tuple) index of one tuple per feature
    scatter: np.ndarray   # (n·T,) flat index of each tuple into the n × F Φ


def _feature_set(X: np.ndarray, max_length: int) -> _FeatureSet:
    n, length = X.shape
    tuples = _position_tuples(length, max_length)
    symbols = np.unique(X)
    codes = _codes(_digits(X, symbols)[:, tuples.positions], symbols.size + 2)
    vocab, inverse = np.unique(codes.reshape(-1), return_inverse=True)
    reader = np.empty(vocab.size, dtype=np.intp)
    reader[inverse] = np.arange(inverse.size)
    rows = np.repeat(np.arange(n, dtype=np.int64) * vocab.size, tuples.classes.size)
    return _FeatureSet(n, tuples, symbols, vocab, reader, rows + inverse)


def _cross_gram(train: _FeatureSet, phi_train: np.ndarray,
                other: _FeatureSet, phi_other: np.ndarray,
                Y: np.ndarray) -> np.ndarray:
    """``Φ_train Φ_otherᵀ`` over the features the two sets share.

    Each feature of ``other`` (the rows ``Y``, encoded on their own symbol
    table) is re-encoded on ``train``'s table from one tuple that reads
    it, looked up in ``train``'s vocabulary and laid out in its columns.
    """
    rows, tuple_index = np.divmod(other.reader, other.tuples.classes.size)
    letters = _digits(Y, train.symbols)[rows[:, None],
                                        other.tuples.positions[tuple_index]]
    codes = _codes(letters, train.symbols.size + 2)
    columns = np.searchsorted(train.vocab, codes)
    shared = columns < train.vocab.size
    shared[shared] = train.vocab[columns[shared]] == codes[shared]
    aligned = np.zeros((other.rows, train.vocab.size))
    aligned[:, columns[shared]] = phi_other[:, shared]
    return phi_train @ aligned.T


def _phi(features: _FeatureSet, theta_match: float, theta_gap: float,
         normalize: bool = False) -> np.ndarray:
    """Dense ``n × F`` feature matrix at ``(θ_m, θ_g)``.

    With ``normalize`` its rows are scaled to unit norm (in place), so
    that ``Φ̂ Φ̂ᵀ`` is the cosine-normalised kernel.
    """
    tuples, rows = features.tuples, features.rows
    weights = (theta_match ** tuples.orders) * (theta_gap ** tuples.gaps)
    width = features.vocab.size
    phi = np.bincount(features.scatter,
                      weights=np.tile(weights[tuples.classes], rows),
                      minlength=rows * width)
    phi = phi.reshape(rows, width).astype(float, copy=False)  # float if empty
    if normalize:
        phi /= np.sqrt(np.maximum(_square_norms(phi), 1e-12))[:, None]
    return phi


def _square_norms(phi: np.ndarray) -> np.ndarray:
    """Row-wise ``Φ·Φ``: the unnormalised ``k(x, x)``."""
    return np.einsum("ij,ij->i", phi, phi)


def ssk_gram(
    X: np.ndarray,
    Y: np.ndarray,
    theta_match: float,
    theta_gap: float,
    max_length: int,
) -> np.ndarray:
    """Unnormalised SSK Gram matrix between integer-encoded sequences.

    Parameters
    ----------
    X, Y:
        Arrays of shape ``(N, L)`` / ``(M, L')`` of integer symbols.
    """
    X = np.atleast_2d(np.asarray(X))
    Y = np.atleast_2d(np.asarray(Y))
    fx, fy = _feature_set(X, max_length), _feature_set(Y, max_length)
    return _cross_gram(fx, _phi(fx, theta_match, theta_gap),
                       fy, _phi(fy, theta_match, theta_gap), Y)


def ssk_diag(X: np.ndarray, theta_match: float, theta_gap: float, max_length: int) -> np.ndarray:
    """Diagonal ``k(x, x)`` values: the squared row norms of Φ."""
    X = np.atleast_2d(np.asarray(X))
    return _square_norms(_phi(_feature_set(X, max_length),
                              theta_match, theta_gap))


class SubsequenceStringKernel(Kernel):
    """The BOiLS sequence kernel with learnable match/gap decays.

    Parameters
    ----------
    max_subsequence_length:
        Order ℓ of the kernel (longest sub-sequence counted).
    theta_match, theta_gap:
        Initial decay hyperparameters, both constrained to ``[0, 1]`` and
        fitted by projected gradient (Adam) on the GP marginal likelihood.
    normalize:
        When ``True`` (default) the kernel is cosine-normalised,
        ``k(x,y)/√(k(x,x)k(y,y))``, which removes the trivial dependence on
        how many repeated symbols a sequence contains.
    variance:
        Output scale multiplying the (optionally normalised) kernel.

    Notes
    -----
    The θ-free structure of the last first argument (the training set)
    is kept with its Φ at the last θ, so the evaluations of a
    hyperparameter fit redo only the weights and the GEMM, and a
    prediction builds only the candidates' side.
    """

    def __init__(
        self,
        max_subsequence_length: int = 3,
        theta_match: float = 0.8,
        theta_gap: float = 0.8,
        normalize: bool = True,
        variance: float = 1.0,
    ) -> None:
        super().__init__()
        if max_subsequence_length < 1:
            raise ValueError("max_subsequence_length must be at least 1")
        self.max_subsequence_length = max_subsequence_length
        self.normalize = normalize
        # The paper constrains both decays to [0, 1]; we stay strictly
        # inside the box to keep the Gram matrix well-conditioned.
        self.register_param("theta_match", theta_match, (1e-3, 1.0))
        self.register_param("theta_gap", theta_gap, (1e-3, 1.0))
        self.register_param("variance", variance, (1e-6, 1e3))
        # The last first argument (the training set): its data key and
        # structure, and the θ key and Φ of the last evaluation.
        self._train: Optional[Tuple[tuple, _FeatureSet, tuple, np.ndarray]] = None

    # ------------------------------------------------------------------
    def _train_phi(self, X: np.ndarray) -> Tuple[_FeatureSet, np.ndarray]:
        """Structure and Φ (row-normalised if cosine) of a training set."""
        key, theta = (X.shape, X.dtype.str, X.tobytes()), self._phi_args()
        if self._train is not None and self._train[0] == key:
            _, features, cached_theta, phi = self._train
            if cached_theta == theta:
                return features, phi
        else:
            features = _feature_set(X, self.max_subsequence_length)
        phi = _phi(features, *theta)
        self._train = (key, features, theta, phi)
        return features, phi

    def _phi_args(self) -> Tuple[float, float, bool]:
        return (self._params["theta_match"], self._params["theta_gap"],
                self.normalize)

    # ------------------------------------------------------------------
    def contribution(self, u: Sequence, seq: Sequence) -> float:
        """Expose ``c_u(seq)`` with the kernel's current hyperparameters."""
        return subsequence_contribution(
            u, seq, self._params["theta_match"], self._params["theta_gap"]
        )

    def __call__(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X))
        train, phi_x = self._train_phi(X)
        if Y is None:
            gram = phi_x @ phi_x.T
        else:
            Y = np.atleast_2d(np.asarray(Y))
            other = _feature_set(Y, self.max_subsequence_length)
            gram = _cross_gram(train, phi_x, other, _phi(other, *self._phi_args()), Y)
        return self._params["variance"] * gram

    def diag(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X))
        if self.normalize:
            return np.full(X.shape[0], self._params["variance"])
        return self._params["variance"] * _square_norms(
            _phi(_feature_set(X, self.max_subsequence_length), *self._phi_args()))
