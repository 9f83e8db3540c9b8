"""Exact two-qubit Pauli algebra and the Peres-Mermin square.

This module is the quantum-mechanical ground truth for everything else:
the nine PM observables as Pauli words (`OBSERVABLES`, the one place
they are written down, row by row: the toy model reads its values from
these words), their compatibility table (`COMMUTING`, built from
`commutes`), the six contexts as index triples into that order and their
product signs, sequential projective measurement (Lueders rule)
from the maximally mixed state, and the brute-force parity scan over all
512 noncontextual sign assignments.

`measure_knowledge` and `knowledge_runs` give the exact rule: a knowledge
state is the frozenset of fixed (observable, value) pairs, and with every
context sign +1 (`toy.TOY_SIGN`) the same rule is Spekkens' toy model.
`qm_outcome_tree` is the float matrix form, the reference the rule is
tested against.  Its matrix entries are dyadic Gaussian rationals, so
float64 complex arithmetic is exact; the tolerance PROB_TOL below is a
contract, not a working margin.

numpy is imported only where a matrix is built: by `PauliWord.matrix`,
`context_product_sign`, `maximally_mixed` and `qm_outcome_tree`.  The CLI,
the machines, the verifier and the exact rule never load it.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

PROB_TOL = 1e-12

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
        """4x4 Hermitian unitary matrix of the word."""
        import numpy as np

        single = _single_qubit()
        return np.kron(single[self.factor1], single[self.factor2])

    def __str__(self) -> str:
        return self.factor1 + self.factor2


ALL_WORDS: tuple[PauliWord, ...] = tuple(
    PauliWord(a, b) for a in PAULI_LETTERS for b in PAULI_LETTERS
)


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


# The PM square, row by row: cell (r, c) is entry 3r + c.  Names follow the
# toy-model reading of each cell (subscript 1 = first qubit / toy bit,
# 2 = second); note the swapped single-qubit entries in row 2 and the mixed
# products in row 3.
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

# PM observables compatible with each observable (including itself).
COMMUTING: Mapping[str, frozenset[str]] = {
    a: frozenset(b for b in OBSERVABLE_NAMES if commutes(OBSERVABLES[a], OBSERVABLES[b]))
    for a in OBSERVABLE_NAMES
}

# Each context as indices into OBSERVABLE_NAMES: the rows, then the columns.
CONTEXT_INDICES: Mapping[str, tuple[int, int, int]] = {
    **{f"row{r + 1}": (3 * r, 3 * r + 1, 3 * r + 2) for r in range(3)},
    **{f"col{c + 1}": (c, c + 3, c + 6) for c in range(3)},
}

CONTEXT_NAMES: Mapping[str, tuple[str, ...]] = {
    ctx: tuple(OBSERVABLE_NAMES[i] for i in triple)
    for ctx, triple in CONTEXT_INDICES.items()
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


# A knowledge state: the (observable name, value) pairs fixed so far.
Knowledge = frozenset[tuple[str, int]]


def measure_knowledge(
    k: Knowledge, name: str, signs: Mapping[str, int] = PRESCRIBED_SIGN
) -> list[tuple[int, Fraction, Knowledge]]:
    """The (value, weight, next state) branches of measuring `name` in state k.

    A fixed value comes out with weight 1.  Otherwise each value v has
    weight 1/2, and the next state keeps the fixed values compatible with
    `name`, adds name = v, and fixes the third member of any context with
    two fixed members to the context's sign times their product.
    """
    if name not in OBSERVABLES:
        raise ValueError(f"not a PM observable: {name!r}")
    fixed = dict(k)
    if name in fixed:
        return [(fixed[name], Fraction(1), k)]
    branches = []
    for v in (+1, -1):
        nxt = {o: w for o, w in fixed.items() if o in COMMUTING[name]}
        nxt[name] = v
        # The fixed observables always lie in one context, so one pass closes them.
        for ctx, names in CONTEXT_NAMES.items():
            unknown = [o for o in names if o not in nxt]
            if len(unknown) == 1:
                a, b = (nxt[o] for o in names if o in nxt)
                nxt[unknown[0]] = signs[ctx] * a * b
        branches.append((v, Fraction(1, 2), frozenset(nxt.items())))
    return branches


def knowledge_runs(
    seq: Sequence[str], signs: Mapping[str, int] = PRESCRIBED_SIGN
) -> dict[tuple[int, ...], Fraction]:
    """Exact weight of every outcome sequence of `seq`, from the empty state."""
    # The outcomes so far determine the knowledge state, so each run carries one.
    runs = {(): (Fraction(1), frozenset())}
    for name in seq:
        runs = {
            outs + (v,): (w * p, nxt)
            for outs, (w, k) in runs.items()
            for v, p, nxt in measure_knowledge(k, name, signs)
        }
    return {outs: w for outs, (w, _) in runs.items()}


def context_product_sign(context: str) -> int:
    """Sign s such that the ordered product of the context's operators is s*identity.

    Raises ValueError if the product is not proportional to the identity,
    which would mean the square itself is wrong.
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


@functools.cache
def _projector_table() -> Mapping[PauliWord, tuple[np.ndarray, np.ndarray]]:
    """Eigenprojectors (identity +/- M)/2 of all 16 two-qubit Pauli words."""
    import numpy as np

    eye = np.eye(4)
    return {w: ((eye + w.matrix()) / 2, (eye - w.matrix()) / 2) for w in ALL_WORDS}


def _as_word(obs: str | PauliWord) -> PauliWord:
    if isinstance(obs, PauliWord):
        return obs
    try:
        return OBSERVABLES[obs]
    except KeyError:
        raise ValueError(f"unknown observable name: {obs!r}") from None


def qm_outcome_tree(seq: Sequence[str | PauliWord]) -> OutcomeNode:
    """Sequential projective measurement tree under the Lueders rule, from I/4.

    At each step the state splits along the +/-1 eigenprojectors
    P = (identity +/- M)/2; surviving branches are renormalized and
    branches with probability below PROB_TOL are pruned.
    """
    import numpy as np

    if len(seq) == 0:
        raise ValueError("measurement sequence must be non-empty")
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

    return build(maximally_mixed(), words)


def tree_transcripts(root: OutcomeNode) -> Iterator[tuple[tuple[int, ...], float]]:
    """Yield (outcome sequence, probability) for every branch of the tree."""

    def walk(node: OutcomeNode, outcomes: tuple[int, ...], prob: float):
        if not node.branches:
            yield outcomes, prob
            return
        for br in node.branches:
            yield from walk(br.node, outcomes + (br.outcome,), prob * br.probability)

    yield from walk(root, (), 1.0)


def context_products(values: Sequence[int]) -> dict[str, int]:
    """The six context products of nine signs given in `OBSERVABLE_NAMES` order."""
    return {
        ctx: values[a] * values[b] * values[c]
        for ctx, (a, b, c) in CONTEXT_INDICES.items()
    }


def ks_scan_summary() -> dict:
    """Full 512-table scan: QM and all-plus counts plus the -1-product histogram."""
    tables = [context_products(bits) for bits in itertools.product((+1, -1), repeat=9)]
    minus = Counter(list(products.values()).count(-1) for products in tables)
    return {
        "tables": len(tables),
        "qm_satisfying": sum(products == PRESCRIBED_SIGN for products in tables),
        "all_plus_satisfying": minus[0],
        "minus_product_histogram": {str(k): v for k, v in sorted(minus.items())},
        "six_product_values": sorted({(-1) ** k for k in minus}),
    }
