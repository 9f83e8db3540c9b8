"""Sequential projective measurement in matrix form: the reference for the exact rule.

`pmtoy.pauli.measure_knowledge` never builds a matrix.  This module does,
with numpy and the four single-qubit Pauli matrices, and reads nothing
from `pmtoy` but the words themselves, so the rule is checked against an
oracle that shares none of its logic.  Every entry here is a dyadic
Gaussian rational, so float64 complex arithmetic on them is exact and
the tests compare with `==`, not with a tolerance.
"""

from typing import Sequence

import numpy as np

from pmtoy.pauli import OBSERVABLES, PAULI_LETTERS, PauliWord

SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

ALL_WORDS = tuple(PauliWord(a, b) for a in PAULI_LETTERS for b in PAULI_LETTERS)

# The maximally mixed state I/4.
MIXED = np.eye(4, dtype=complex) / 4


def matrix(word: PauliWord | str) -> np.ndarray:
    """The 4x4 matrix of a Pauli word, or of a PM observable given by name."""
    if isinstance(word, str):
        word = OBSERVABLES[word]
    return np.kron(SINGLE[word.factor1], SINGLE[word.factor2])


def projector(word: PauliWord | str, v: int) -> np.ndarray:
    """The eigenprojector (identity + v M)/2 of outcome v = +/-1."""
    return (np.eye(4) + v * matrix(word)) / 2


def lueders_runs(seq: Sequence[PauliWord | str]) -> dict[tuple[int, ...], float]:
    """Probability of every outcome sequence of measuring `seq` in order from I/4.

    Runs of probability 0 are left out.
    """
    # Each run carries its unnormalized post-measurement state, whose trace
    # is the run's probability.
    runs = {(): MIXED}
    for word in seq:
        nxt = {}
        for outs, rho in runs.items():
            for v in (+1, -1):
                post = projector(word, v) @ rho @ projector(word, v)
                if np.trace(post).real != 0:
                    nxt[outs + (v,)] = post
        runs = nxt
    return {outs: float(np.trace(rho).real) for outs, rho in runs.items()}
