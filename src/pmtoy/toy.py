"""Spekkens-style toy bits: ontic states, sign tables, and measurement updates.

A single toy bit has four ontic states (z, x) with the derived y = z*x.
Two toy bits give the 16-point ontic space indexed by generator signs
(z1, z2, x1, x2).  An observable's value is the product of the one-bit
values (X -> x, Y -> z*x, Z -> z, I -> +1) along its Pauli word in
`pauli.OBSERVABLES`, so each ontic state induces a sign table, nine signs
in `pauli.OBSERVABLE_NAMES` order (the square row by row), whose six
context products are all +1, which is exactly why the noncontextual
model cannot match the quantum -1 in the last column.

Measurement keeps the values of every PM observable compatible with the
measured one (`pauli.COMMUTING`) and randomizes the rest: the successor
is uniform over a two-element coset of generator-flip patterns.  What an
observer knows of the ontic state follows `pauli.measure_knowledge` with
TOY_SIGN: the quantum rule with every context sign +1.  The whole model
is also exposed as a 16-state stochastic Mealy machine, built by
`ontic_machine`, which builds every machine and search family from
labelled ontic states, a value rule and a successor rule.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

from . import pauli
from .machine import MealyMachine, uniform_row

Sign = int

_SIGN_CHARS = {+1: "+", -1: "-"}


def sign_char(v: Sign) -> str:
    return _SIGN_CHARS[v]


class ToyBitOntic(NamedTuple):
    """One toy bit's hidden state; the derived y value is z*x."""

    z: Sign
    x: Sign

    @property
    def y(self) -> Sign:
        return self.z * self.x


# The four cells of the one-bit state space, in drawing order.  The cell
# numbering makes the three 2+2 partitions come out as X+ = {1,2},
# Y+ = {1,3}, Z+ = {1,4}.
TOYBIT_CELLS: tuple[ToyBitOntic, ...] = (
    ToyBitOntic(+1, +1),
    ToyBitOntic(-1, +1),
    ToyBitOntic(-1, -1),
    ToyBitOntic(+1, -1),
)

# One toy bit's value along each Pauli letter; I is the identity, +1.
_AXIS_VALUE: Mapping[str, Callable[[ToyBitOntic], Sign]] = {
    "I": lambda s: +1,
    "X": lambda s: s.x,
    "Y": lambda s: s.y,
    "Z": lambda s: s.z,
}


def toybit_measure(
    s: ToyBitOntic, axis: str, rng: random.Random
) -> tuple[Sign, ToyBitOntic]:
    """Measure one toy bit along X, Y or Z.

    The outcome is the partition containing s; the next state is uniform
    over the two cells of that partition.
    """
    if axis not in _AXIS_VALUE or axis == "I":
        raise ValueError(f"axis must be X, Y or Z, got {axis!r}")
    value = _AXIS_VALUE[axis]
    outcome = value(s)
    members = [c for c in TOYBIT_CELLS if value(c) == outcome]
    return outcome, rng.choice(members)


class OnticState(NamedTuple):
    """Two-toy-bit hidden state, as generator signs."""

    z1: Sign
    z2: Sign
    x1: Sign
    x2: Sign

    @property
    def label(self) -> str:
        return "".join(sign_char(v) for v in self)


# All 16 states in the 4x4 drawing order: rows are bit-1 cells top to
# bottom, columns are bit-2 cells left to right.
ALL_ONTIC: tuple[OnticState, ...] = tuple(
    OnticState(z1=c1.z, z2=c2.z, x1=c1.x, x2=c2.x)
    for c1 in TOYBIT_CELLS
    for c2 in TOYBIT_CELLS
)


def observable_value(s: OnticState, name: str) -> Sign:
    """The product of the one-toy-bit values along the observable's Pauli word."""
    if name not in pauli.OBSERVABLES:
        raise ValueError(f"not a PM observable: {name!r}")
    word = pauli.OBSERVABLES[name]
    bit1, bit2 = ToyBitOntic(s.z1, s.x1), ToyBitOntic(s.z2, s.x2)
    return _AXIS_VALUE[word.factor1](bit1) * _AXIS_VALUE[word.factor2](bit2)


def table_of(s: OnticState) -> tuple[Sign, ...]:
    """The sign table induced by an ontic state, in `pauli.OBSERVABLE_NAMES` order.

    Row 1 is (z1, z2, z1*z2), row 2 is (x2, x1, x1*x2), row 3 the mixed
    products; all six context products are +1 by construction.
    """
    return tuple(observable_value(s, name) for name in pauli.OBSERVABLE_NAMES)


def compact(table: Sequence[Sign]) -> str:
    """A sign table (nine signs in OBSERVABLE_NAMES order) as "row1/row2/row3"."""
    return "/".join("".join(map(sign_char, table[r : r + 3])) for r in (0, 3, 6))


# The toy model's context signs: every ontic state's table multiplies to +1.
TOY_SIGN: Mapping[str, Sign] = {ctx: +1 for ctx in pauli.CONTEXT_NAMES}


# Generator-flip patterns (indices into OnticState) that preserve the value
# of every observable compatible with the measured one.  Each value is a
# product of generators, so a pattern keeps a value iff it keeps it +1 on
# ++++: the patterns are the -1 positions of the states whose compatible
# values are all +1, listed in flip-bit order.
COSET_FLIPS: Mapping[str, tuple[tuple[int, ...], ...]] = {
    name: tuple(
        tuple(i for i, g in enumerate(t) if g < 0)
        for t in itertools.starmap(OnticState, itertools.product((+1, -1), repeat=4))
        if all(observable_value(t, other) == +1 for other in pauli.COMMUTING[name])
    )
    for name in pauli.OBSERVABLE_NAMES
}


def apply_flips(s: OnticState, flips: Iterable[int]) -> OnticState:
    signs = list(s)
    for idx in flips:
        signs[idx] = -signs[idx]
    return OnticState(*signs)


def coset(s: OnticState, name: str) -> tuple[OnticState, ...]:
    """States reachable after measuring `name` on s (always contains s)."""
    if name not in COSET_FLIPS:
        raise ValueError(f"not a PM observable: {name!r}")
    return tuple(apply_flips(s, flips) for flips in COSET_FLIPS[name])


_State = TypeVar("_State", bound=Hashable)


def ontic_machine(
    name: str,
    states: Mapping[str, _State],
    value: Callable[[_State, str], Sign],
    successors: Callable[[_State, str], Iterable[_State]],
    notes: Iterable[str] = (),
) -> MealyMachine:
    """A Mealy machine over labelled ontic states and the nine PM observables.

    The output at (s, o) is value(s, o), and the transition is uniform over
    successors(s, o), each a member of `states`; an empty successor tuple
    leaves the transition undefined.
    """
    members = tuple(states.values())
    index = {s: i for i, s in enumerate(members)}
    names = pauli.OBSERVABLE_NAMES
    return MealyMachine(
        name=name,
        states=tuple(states),
        outputs=tuple(tuple(value(s, o) for o in names) for s in members),
        transitions=tuple(
            tuple(uniform_row(index[t] for t in successors(s, o)) for o in names)
            for s in members
        ),
        notes=tuple(notes),
    )


def spekkens_machine() -> MealyMachine:
    """The toy model as a 16-state stochastic Mealy machine.

    States are the ontic states, outputs come from the sign tables, and
    each transition is uniform over the value-preserving coset.
    """
    return ontic_machine(
        "spekkens16", {s.label: s for s in ALL_ONTIC}, observable_value, coset
    )
