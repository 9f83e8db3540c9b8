"""The contextual 32-state extension of the two-toy-bit model.

Doubling the 16-point ontic space with a contradiction flag c gives 32
states: c = +1 keeps the original tables (whose six context products are
all +1, so the deviation from the quantum prediction sits in the last
column), c = -1 inverts the bottom-right sign (moving the deviation to
the last row).  Measurements in the deviating context trigger a jump to
the opposite class, flipping c together with exactly one bit-2 generator
so the measured value survives the jump:

    c = +1:  Z1Z2 flips (c, x2),   X1X2 flips (c, z2)
    c = -1:  Z1X2 flips (c, z2),   X1Z2 flips (c, x2)

Y1Y2 never triggers: its value c*z1*z2*x1*x2 is already invariant under
every trigger, and giving it a trigger of its own would break the
repeatability of its row-3 neighbours (a c+x2 flip changes Z1X2's value,
a c+z2 flip changes X1Z2's).  The exhaustive verifier is the arbiter
that this rule passes the (R)+(C) gate.

The four-state sub-machine drawn over states a, b, c, d is provided as a
regression fixture, including the known discrepancy between the drawn
b -> a edge label (-1) and state b's own X1Z2 table value (+1).
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Mapping, NamedTuple

from .machine import MealyMachine
from .toy import (
    ALL_ONTIC,
    OnticState,
    Sign,
    apply_flips,
    coset,
    observable_value,
    ontic_machine,
)

# Generator indices within OnticState: z1=0, z2=1, x1=2, x2=3.
_Z2, _X2 = 1, 3


class ExtOnticState(NamedTuple):
    """An ontic state plus the contradiction flag c.

    c = +1: the state's table deviates from QM in the last column;
    c = -1: the bottom-right sign is inverted and the deviation sits in
    the last row.
    """

    base: OnticState
    c: Sign

    @property
    def label(self) -> str:
        return self.base.label + ("/col" if self.c == +1 else "/row")


# 32 states: the 16 original tables first, then the 16 inverted ones,
# both in the 4x4 drawing order.
ALL_EXT: tuple[ExtOnticState, ...] = tuple(
    ExtOnticState(s, c) for c in (+1, -1) for s in ALL_ONTIC
)

# The four states of the drawn sub-machine.
ALIASES: Mapping[str, ExtOnticState] = {
    "a": ExtOnticState(OnticState(+1, +1, +1, +1), +1),
    "b": ExtOnticState(OnticState(+1, +1, +1, -1), -1),
    "c": ExtOnticState(OnticState(+1, -1, +1, +1), -1),
    "d": ExtOnticState(OnticState(+1, -1, +1, -1), +1),
}


def ext_value(s: ExtOnticState, name: str) -> Sign:
    v = observable_value(s.base, name)
    return v * s.c if name == "Y1Y2" else v


# Trigger plan: (c, measured observable) -> generator indices flipped
# along with c.  An empty tuple means only c flips.
TriggerPlan = Mapping[tuple[Sign, str], tuple[int, ...]]

CANONICAL_TRIGGERS: TriggerPlan = {
    (+1, "Z1Z2"): (_X2,),
    (+1, "X1X2"): (_Z2,),
    (-1, "Z1X2"): (_Z2,),
    (-1, "X1Z2"): (_X2,),
}

# Rejected constructions, kept constructible for the no-go replays: a
# single column trigger arrives too late bottom-to-top, and two triggers
# landing on the same state (the c-flipped twin) leave the column product
# at +1 for the same ordering.
VARIANT_TRIGGERS: Mapping[str, TriggerPlan] = {
    "single_trigger": {(+1, "Z1Z2"): (_X2,)},
    "same_destination": {(+1, "Z1Z2"): (), (+1, "X1X2"): ()},
}


def skeleton_next(
    s: ExtOnticState, name: str, triggers: TriggerPlan = CANONICAL_TRIGGERS
) -> ExtOnticState:
    """Deterministic successor: apply the trigger if one fires, else stay."""
    flips = triggers.get((s.c, name))
    if flips is None:
        return s
    return ExtOnticState(apply_flips(s.base, flips), -s.c)


def _ext_machine(
    name: str, successors: Callable[[ExtOnticState, str], Iterable[ExtOnticState]]
) -> MealyMachine:
    return ontic_machine(name, {s.label: s for s in ALL_EXT}, ext_value, successors)


def _randomized_successors(s: ExtOnticState, name: str) -> tuple[ExtOnticState, ...]:
    # Compose the toy-model coset after the skeleton; the coset flips
    # preserve every compatible observable's value and leave c alone, so
    # Y1Y2's value rides along unchanged.
    nxt = skeleton_next(s, name)
    return tuple(ExtOnticState(base, nxt.c) for base in coset(nxt.base, name))


def extended_machine(randomized: bool = False) -> MealyMachine:
    """The 32-state contextual machine (deterministic skeleton by default).

    Built on first use, once per process, and shared: a machine is
    immutable.  Every spelling of the argument gives the same object.
    `variant_machine` and `four_state_machine` are cached alike.
    """
    return _extended_machine(bool(randomized))


# One cache entry per machine: `extended_machine` passes one positional bool.
@functools.cache
def _extended_machine(randomized: bool) -> MealyMachine:
    if randomized:
        return _ext_machine("extended32-randomized", _randomized_successors)
    return _ext_machine("extended32", lambda s, o: (skeleton_next(s, o),))


@functools.cache
def variant_machine(kind: str) -> MealyMachine:
    """One of the two rejected constructions, for refutation tests.

    An unknown kind raises ValueError on every call: exceptions are not cached.
    """
    if kind not in VARIANT_TRIGGERS:
        raise ValueError(
            f"variant must be one of {sorted(VARIANT_TRIGGERS)}, got {kind!r}"
        )
    triggers = VARIANT_TRIGGERS[kind]
    return _ext_machine(
        f"extended32-{kind.replace('_', '-')}",
        lambda s, o: (skeleton_next(s, o, triggers),),
    )


# The eight drawn edges of the four-state diagram, with their drawn
# output labels.  The b -> a edge is drawn as X1Z2 = -1 although state
# b's table assigns X1Z2 = +1; the machine emits the table value.
DRAWN_EDGES: tuple[tuple[str, str, int, str], ...] = (
    ("a", "Z1Z2", +1, "b"),
    ("a", "X1X2", +1, "c"),
    ("b", "Z1X2", -1, "d"),
    ("b", "X1Z2", -1, "a"),
    ("c", "Z1X2", +1, "a"),
    ("c", "X1Z2", -1, "d"),
    ("d", "Z1Z2", -1, "c"),
    ("d", "X1X2", -1, "b"),
)

LABEL_DISCREPANCIES: tuple[tuple[str, str, int, int], ...] = tuple(
    (src, obs, drawn, ext_value(ALIASES[src], obs))
    for src, obs, drawn, _ in DRAWN_EDGES
    if drawn != ext_value(ALIASES[src], obs)
)

_DISCREPANCY_NOTE = (
    "known label discrepancy: the b --X1Z2--> a edge is drawn with output -1, "
    "but state b's table assigns X1Z2 = +1; outputs follow the table"
)


@functools.cache
def four_state_machine() -> MealyMachine:
    """The literal four-state sub-machine with exactly the eight drawn edges.

    All other transitions are left undefined (partial machine); outputs
    come from each state's table.
    """
    edges = {(ALIASES[src], obs): (ALIASES[dst],) for src, obs, _, dst in DRAWN_EDGES}
    return ontic_machine(
        "paper4",
        ALIASES,
        ext_value,
        lambda s, o: edges.get((s, o), ()),
        notes=(_DISCREPANCY_NOTE,),
    )
