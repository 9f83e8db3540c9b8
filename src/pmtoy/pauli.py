"""Exact two-qubit Pauli algebra and the Peres-Mermin square.

This module is the quantum-mechanical ground truth for everything else:
the nine PM observables, their commutation structure, the six context
product signs, sequential projective measurement (Lueders rule) from the
maximally mixed state, and the brute-force parity scan over all 512
noncontextual sign assignments.

Every matrix entry occurring here is a dyadic Gaussian rational, so
float64 complex arithmetic is exact; the tolerances below are contracts,
not working margins.

numpy is imported only where a matrix is built: by `pauli_matrix`,
`PauliWord.matrix`, `context_product_sign`, `maximally_mixed`,
`is_density_operator`, `qm_outcome_tree` and the first read of
`SINGLE_QUBIT`.  The CLI, the machines and the verifier use only the
names, contexts, commutation test and parity scans, so they never load it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

PROB_TOL = 1e-12
DENSITY_TOL = 1e-10

PAULI_LETTERS = ("I", "X", "Y", "Z")


@functools.cache
def _single_qubit() -> Mapping[str, np.ndarray]:
    import numpy as np

    return {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }


def __getattr__(name: str):
    # PEP 562: `SINGLE_QUBIT` is built on first access, so importing this
    # module does not import numpy.
    if name == "SINGLE_QUBIT":
        return _single_qubit()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class PauliWord:
    """A two-qubit Pauli product; factor1 is the high-order (left) tensor factor."""

    factor1: str
    factor2: str

    def __post_init__(self) -> None:
        for f in (self.factor1, self.factor2):
            if f not in PAULI_LETTERS:
                raise ValueError(f"not a Pauli letter: {f!r}")

    def matrix(self) -> np.ndarray:
        import numpy as np

        single = _single_qubit()
        return np.kron(single[self.factor1], single[self.factor2])

    def __str__(self) -> str:
        return self.factor1 + self.factor2


ALL_WORDS: tuple[PauliWord, ...] = tuple(
    PauliWord(a, b) for a in PAULI_LETTERS for b in PAULI_LETTERS
)


def pauli_matrix(word: PauliWord) -> np.ndarray:
    """4x4 Hermitian unitary matrix of a two-qubit Pauli word."""
    return word.matrix()


def commutes(a: PauliWord, b: PauliWord) -> bool:
    """True iff the two Pauli words commute as matrices.

    Two Pauli words commute iff the number of tensor positions where the
    single-qubit factors differ, with neither factor being I, is even.
    """
    differing = 0
    for fa, fb in ((a.factor1, b.factor1), (a.factor2, b.factor2)):
        if fa != fb and fa != "I" and fb != "I":
            differing += 1
    return differing % 2 == 0


# The PM square in grid order.  Names follow the toy-model reading of each
# cell (subscript 1 = first qubit / toy bit, 2 = second); note the swapped
# single-qubit entries in row 2 and the mixed products in row 3.
GRID_NAMES: tuple[tuple[str, str, str], ...] = (
    ("Z1", "Z2", "Z1Z2"),
    ("X2", "X1", "X1X2"),
    ("Z1X2", "X1Z2", "Y1Y2"),
)

OBSERVABLES: Mapping[str, PauliWord] = {
    "Z1": PauliWord("Z", "I"),
    "Z2": PauliWord("I", "Z"),
    "Z1Z2": PauliWord("Z", "Z"),
    "X2": PauliWord("I", "X"),
    "X1": PauliWord("X", "I"),
    "X1X2": PauliWord("X", "X"),
    "Z1X2": PauliWord("Z", "X"),
    "X1Z2": PauliWord("X", "Z"),
    "Y1Y2": PauliWord("Y", "Y"),
}

OBSERVABLE_NAMES: tuple[str, ...] = tuple(OBSERVABLES)

# Contexts as grid positions (row, col), rows then columns.
CONTEXT_POSITIONS: Mapping[str, tuple[tuple[int, int], ...]] = {
    "row1": ((0, 0), (0, 1), (0, 2)),
    "row2": ((1, 0), (1, 1), (1, 2)),
    "row3": ((2, 0), (2, 1), (2, 2)),
    "col1": ((0, 0), (1, 0), (2, 0)),
    "col2": ((0, 1), (1, 1), (2, 1)),
    "col3": ((0, 2), (1, 2), (2, 2)),
}

CONTEXT_NAMES: Mapping[str, tuple[str, ...]] = {
    ctx: tuple(GRID_NAMES[r][c] for r, c in pos)
    for ctx, pos in CONTEXT_POSITIONS.items()
}

# All rows and the first two columns multiply to +identity; the last
# column multiplies to -identity.
PRESCRIBED_SIGN: Mapping[str, int] = {
    "row1": +1,
    "row2": +1,
    "row3": +1,
    "col1": +1,
    "col2": +1,
    "col3": -1,
}

# Unordered-triple lookup used by transcript checks.
CONTEXT_SETS: Mapping[frozenset[str], int] = {
    frozenset(names): PRESCRIBED_SIGN[ctx] for ctx, names in CONTEXT_NAMES.items()
}


def context_product_sign(context: str) -> int:
    """Sign s such that the ordered product of the context's operators is s*identity.

    Raises ValueError if the product is not proportional to the identity,
    which would mean the grid itself is wrong.
    """
    import numpy as np

    words = [OBSERVABLES[n] for n in CONTEXT_NAMES[context]]
    product = words[0].matrix() @ words[1].matrix() @ words[2].matrix()
    for sign in (+1, -1):
        if np.allclose(product, sign * np.eye(4), atol=PROB_TOL):
            return sign
    raise ValueError(f"context {context} does not multiply to +/-identity")


def maximally_mixed() -> np.ndarray:
    import numpy as np

    return np.eye(4, dtype=complex) / 4


def is_density_operator(rho: np.ndarray, tol: float = DENSITY_TOL) -> bool:
    """Hermitian, unit trace, positive semidefinite within tol."""
    import numpy as np

    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        return False
    if not np.allclose(rho, rho.conj().T, atol=tol):
        return False
    if abs(np.trace(rho) - 1) > tol:
        return False
    eigvals = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    return bool(eigvals.min() > -tol)


@dataclass(frozen=True)
class OutcomeBranch:
    outcome: int
    probability: float
    node: "OutcomeNode"


@dataclass(frozen=True)
class OutcomeNode:
    """A node of a sequential-measurement tree: the state plus its outcome splits."""

    rho: np.ndarray
    branches: tuple[OutcomeBranch, ...]


def _projectors(word: PauliWord) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    m = word.matrix()
    eye = np.eye(4)
    return (eye + m) / 2, (eye - m) / 2


@functools.cache
def _projector_table() -> Mapping[PauliWord, tuple[np.ndarray, np.ndarray]]:
    """Eigenprojectors of all 16 two-qubit Pauli words."""
    return {word: _projectors(word) for word in ALL_WORDS}


def _as_word(obs: str | PauliWord) -> PauliWord:
    if isinstance(obs, PauliWord):
        return obs
    try:
        return OBSERVABLES[obs]
    except KeyError:
        raise ValueError(f"unknown observable name: {obs!r}") from None


def qm_outcome_tree(
    seq: Sequence[str | PauliWord],
    initial: np.ndarray | None = None,
) -> OutcomeNode:
    """Sequential projective measurement tree under the Lueders rule.

    At each step the state splits along the +/-1 eigenprojectors
    P = (identity +/- M)/2; surviving branches are renormalized and
    branches with probability below PROB_TOL are pruned.
    """
    import numpy as np

    if len(seq) == 0:
        raise ValueError("measurement sequence must be non-empty")
    rho = maximally_mixed() if initial is None else np.asarray(initial, dtype=complex)
    if not is_density_operator(rho):
        raise ValueError("initial state is not a density operator")
    words = [_as_word(o) for o in seq]
    projector_table = _projector_table()

    def build(state: np.ndarray, remaining: list[PauliWord]) -> OutcomeNode:
        if not remaining:
            return OutcomeNode(rho=state, branches=())
        plus, minus = projector_table[remaining[0]]
        branches = []
        for outcome, proj in ((+1, plus), (-1, minus)):
            p = float(np.trace(proj @ state).real)
            if p < PROB_TOL:
                continue
            child_state = proj @ state @ proj / p
            branches.append(
                OutcomeBranch(outcome, p, build(child_state, remaining[1:]))
            )
        return OutcomeNode(rho=state, branches=tuple(branches))

    return build(rho, words)


def tree_transcripts(root: OutcomeNode) -> Iterator[tuple[tuple[int, ...], float]]:
    """Yield (outcome sequence, probability) for every branch of the tree."""

    def walk(node: OutcomeNode, outcomes: tuple[int, ...], prob: float):
        if not node.branches:
            yield outcomes, prob
            return
        for br in node.branches:
            yield from walk(br.node, outcomes + (br.outcome,), prob * br.probability)

    yield from walk(root, (), 1.0)


def _context_products() -> Iterator[dict[str, int]]:
    """The six context products of each of the 2^9 sign tables, bits in grid order."""
    for bits in itertools.product((+1, -1), repeat=9):
        yield {
            ctx: bits[3 * r0 + c0] * bits[3 * r1 + c1] * bits[3 * r2 + c2]
            for ctx, ((r0, c0), (r1, c1), (r2, c2)) in CONTEXT_POSITIONS.items()
        }


def count_noncontextual_assignments(signs: Mapping[str, int]) -> int:
    """Brute force over all 2^9 sign tables; count those meeting every context sign."""
    return sum(
        all(products[ctx] == s for ctx, s in signs.items())
        for products in _context_products()
    )


def ks_parity_scan() -> int:
    """Number of noncontextual sign tables satisfying the QM context signs (zero)."""
    return count_noncontextual_assignments(PRESCRIBED_SIGN)


def ks_scan_summary() -> dict:
    """Full 512-table scan: QM and all-plus counts plus the -1-product histogram."""
    qm = all_plus = 0
    histogram: dict[int, int] = {}
    total_products = set()
    for products in _context_products():
        qm += products == PRESCRIBED_SIGN
        minus = list(products.values()).count(-1)
        all_plus += minus == 0
        histogram[minus] = histogram.get(minus, 0) + 1
        total_products.add(-1 if minus % 2 else 1)
    return {
        "tables": 512,
        "qm_satisfying": qm,
        "all_plus_satisfying": all_plus,
        "minus_product_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "six_product_values": sorted(total_products),
    }
