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

from typing import Mapping, NamedTuple

from . import pauli
from .machine import MealyMachine, deterministic_row, uniform_row
from .toy import (
    ALL_ONTIC,
    COSET_FLIPS,
    OnticState,
    Sign,
    SignTable,
    apply_flips,
    observable_value,
    table_of,
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

    @classmethod
    def from_label(cls, text: str) -> "ExtOnticState":
        if text in ALIASES:
            return ALIASES[text]
        try:
            base_text, kind = text.split("/")
        except ValueError:
            raise ValueError(f"not an extended state label: {text!r}") from None
        if kind not in ("col", "row"):
            raise ValueError(f"contradiction tag must be col or row: {text!r}")
        return cls(OnticState.from_label(base_text), +1 if kind == "col" else -1)


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

ALIAS_OF: Mapping[ExtOnticState, str] = {s: n for n, s in ALIASES.items()}


def ext_value(s: ExtOnticState, name: str) -> Sign:
    v = observable_value(s.base, name)
    return v * s.c if name == "Y1Y2" else v


def ext_table(s: ExtOnticState) -> SignTable:
    """table_of(base) with the Y1Y2 entry multiplied by c."""
    rows = [list(r) for r in table_of(s.base).values]
    rows[2][2] *= s.c
    return SignTable(tuple(tuple(r) for r in rows))


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


def _build_machine(name: str, triggers: TriggerPlan, randomized: bool) -> MealyMachine:
    index = {s: i for i, s in enumerate(ALL_EXT)}
    outputs = tuple(
        tuple(ext_value(s, o) for o in pauli.OBSERVABLE_NAMES) for s in ALL_EXT
    )
    transitions = []
    for s in ALL_EXT:
        row = []
        for o in pauli.OBSERVABLE_NAMES:
            nxt = skeleton_next(s, o, triggers)
            if randomized:
                # Compose the toy-model coset after the skeleton; the coset
                # flips preserve every compatible observable's value and
                # leave c alone, so Y1Y2's value rides along unchanged.
                succ = [
                    ExtOnticState(apply_flips(nxt.base, flips), nxt.c)
                    for flips in COSET_FLIPS[o]
                ]
                row.append(uniform_row(index[t] for t in succ))
            else:
                row.append(deterministic_row(index[nxt]))
        transitions.append(tuple(row))
    return MealyMachine(
        name=name,
        states=tuple(s.label for s in ALL_EXT),
        inputs=pauli.OBSERVABLE_NAMES,
        outputs=outputs,
        transitions=tuple(transitions),
    )


def extended_machine(randomized: bool = False) -> MealyMachine:
    """The 32-state contextual machine (deterministic skeleton by default)."""
    name = "extended32-randomized" if randomized else "extended32"
    return _build_machine(name, CANONICAL_TRIGGERS, randomized)


def variant_machine(kind: str) -> MealyMachine:
    """One of the two rejected constructions, for refutation tests."""
    if kind not in VARIANT_TRIGGERS:
        raise ValueError(
            f"variant must be one of {sorted(VARIANT_TRIGGERS)}, got {kind!r}"
        )
    return _build_machine(f"extended32-{kind.replace('_', '-')}", VARIANT_TRIGGERS[kind], False)


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


def four_state_machine() -> MealyMachine:
    """The literal four-state sub-machine with exactly the eight drawn edges.

    All other transitions are left undefined (partial machine); outputs
    come from each state's table.
    """
    labels = tuple(ALIASES)
    index = {lab: i for i, lab in enumerate(labels)}
    outputs = tuple(
        tuple(ext_value(ALIASES[lab], o) for o in pauli.OBSERVABLE_NAMES)
        for lab in labels
    )
    edge_map = {(src, obs): dst for src, obs, _, dst in DRAWN_EDGES}
    transitions = tuple(
        tuple(
            deterministic_row(index[edge_map[lab, o]]) if (lab, o) in edge_map else ()
            for o in pauli.OBSERVABLE_NAMES
        )
        for lab in labels
    )
    return MealyMachine(
        name="paper4",
        states=labels,
        inputs=pauli.OBSERVABLE_NAMES,
        outputs=outputs,
        transitions=transitions,
        notes=(_DISCREPANCY_NOTE,),
    )
