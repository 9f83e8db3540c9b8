"""Constraint checking, exhaustive verification, and machine-family search.

A machine passes the (R)+(C) gate for the PM square iff every
positive-probability run satisfies two constraints:

  (R) repeatability: two measurements of the same observable separated
      only by compatible measurements give equal outcomes;
  (C) context products: three consecutive measurements of the three
      distinct members of a context multiply to the prescribed sign
      (+1 everywhere except the last column's -1).

Passing the gate is necessary for reproducing the quantum predictions but
not sufficient.  From ++++/col, `extended32` emits Z1, Z2, X1X2, Z1Z2 ->
(+1, +1, +1, -1), a run that satisfies (R) and (C), yet the exact oracle
`pauli.knowledge_runs` gives it probability 0: Z1Z2 is fixed by the
earlier Z1 and Z2 outcomes and commutes with X1X2.

`check_transcript` applies the constraints literally to one run.  All
other verdicts walk one product graph, machine x (R)+(C) monitor, built by
`_monitor`.  The monitor holds exactly what the constraints can ever look
at, the pending repeatable values and the last two steps, so walking the
graph is equivalent to enumerating all 9^L sequences.  `verify_machine`
walks it breadth-first from every start state of one machine.
`search_machines` walks it depth-first over the deterministic sub-machines
of a family, a machine whose transition at (s, o) lists the moves a
completion may pick, branching on a transition that a reached product
state needs next and pruning as soon as one breaches (R) or (C).
"""

from __future__ import annotations

import collections
import itertools
import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from . import pauli
from .extension import (
    ALIASES,
    ALL_EXT,
    ExtOnticState,
    ext_value,
    variant_machine,
)
from .machine import MealyMachine, Transcript, deterministic_row
from .toy import ALL_ONTIC, apply_flips, ontic_machine

REPEATABILITY = "repeatability"
CONTEXT_PRODUCT = "context_product"

# Python's default limit on int -> str conversion, in decimal digits.
_INT_STR_DIGITS = 4300


def json_int(n: int) -> int | str:
    """n itself below 4 300 digits, else its exact decimal digits as a string.

    Either form renders with `json.dumps` and `str`, and reads back with
    `json.loads`, under Python's default int -> str digit limit.
    """
    if abs(n) < 10**_INT_STR_DIGITS:
        return n
    import decimal  # here, not at the top: only counts past the limit need it

    return str(decimal.Decimal(n))


@dataclass(frozen=True)
class Violation:
    """One witnessed breach of (R) or (C), replayable from its start state."""

    kind: str
    start: str | None
    sequence: tuple[str, ...]
    outputs: tuple[int, ...]
    positions: tuple[int, ...]
    expected: int
    observed: int

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "start": self.start,
            "sequence": list(self.sequence),
            "outputs": list(self.outputs),
            "positions": list(self.positions),
            "expected": self.expected,
            "observed": self.observed,
        }


def _check_run(
    inputs: Sequence[str], outputs: Sequence[int], start: str | None = None
) -> list[Violation]:
    ins, outs = tuple(inputs), tuple(outputs)
    for nm in ins:
        if nm not in pauli.OBSERVABLES:
            raise ValueError(f"not a PM observable: {nm!r}")
    for v in outs:
        if v not in (+1, -1):
            raise ValueError(f"not a +/-1 outcome: {v!r}")
    n = len(ins)
    violations: list[Violation] = []
    for p in range(n):
        for q in range(p + 1, n):
            if ins[q] != ins[p]:
                continue
            if all(ins[m] in pauli.COMMUTING[ins[p]] for m in range(p + 1, q)):
                if outs[q] != outs[p]:
                    violations.append(
                        Violation(
                            REPEATABILITY, start, ins, outs, (p, q), outs[p], outs[q]
                        )
                    )
    for k in range(n - 2):
        triple = (ins[k], ins[k + 1], ins[k + 2])
        if len(set(triple)) != 3:
            continue
        sign = pauli.CONTEXT_SETS.get(frozenset(triple))
        if sign is None:
            continue
        prod = outs[k] * outs[k + 1] * outs[k + 2]
        if prod != sign:
            violations.append(
                Violation(
                    CONTEXT_PRODUCT, start, ins, outs, (k, k + 1, k + 2), sign, prod
                )
            )
    return violations


def check_transcript(t: Transcript, start: str | None = None) -> list[Violation]:
    """All (R) and (C) breaches in one transcript."""
    return _check_run(t.inputs, t.outputs, start)


@dataclass(frozen=True)
class VerificationReport:
    machine: str
    depth: int
    sequences_checked: int
    violations: tuple[Violation, ...]
    elapsed_ms: float
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "machine": self.machine,
            "depth": self.depth,
            "sequences_checked": json_int(self.sequences_checked),
            "violations": [v.to_dict() for v in self.violations],
            "elapsed_ms": self.elapsed_ms,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


# A product key (s, K, V, e2, e1): a machine state and a `_monitor` state.
_Key = tuple[int, int, int, int, int]
# A product move at (s, i): (bit, keep, neg bit, step code, successors).
_Move = tuple[int, int, int, int, tuple[int, ...]]

_NAMES = pauli.OBSERVABLE_NAMES
_INDEX = {nm: i for i, nm in enumerate(_NAMES)}


def _code(i: int, v: int) -> int:
    return 1 + 2 * i + (v < 0)


# _THIRD[e2, e1]: the input completing a context after those two steps, and
# the output its sign requires there.
_THIRD = {
    (_code(i2, v2), _code(i1, v1)): (i, sign * v2 * v1)
    for names3, sign in pauli.CONTEXT_SETS.items()
    for i2, i1, i in itertools.permutations([_INDEX[nm] for nm in names3])
    for v2, v1 in itertools.product((1, -1), repeat=2)
}
# _KEEP[i]: the inputs other than i compatible with i.
_KEEP = [
    sum(1 << j for j, nm in enumerate(_NAMES) if j != i and nm in pauli.COMMUTING[_NAMES[i]])
    for i in range(len(_NAMES))
]


def _monitor(m: MealyMachine) -> tuple[Callable[[_Key], int], list[list[_Move]]]:
    """The product graph of machine m with the (R)+(C) monitor.

    A monitor state is (K, V, e2, e1): bit i of K marks a pending value for
    input i (the i-th of `pauli.OBSERVABLE_NAMES`) and bit i of V says it is
    -1; e2 and e1 code the last two steps as 1 + 2i + (v < 0), 0 for none.
    The monitor's own tables, `_THIRD` and `_KEEP`, are built once; per
    machine only its output signs and moves are.  breaches(key) is the mask
    of inputs whose measurement at the key breaches (R) or (C).  Measuring
    input i at state s, moves[s][i] = (bit, keep, neg, code, successors),
    takes key (s, K, V, e2, e1) to (t, (K & keep) | bit, (V & keep) | neg,
    e1, code) for each successor t; keep marks the inputs compatible with i.
    """
    out = m.outputs
    neg = [sum(1 << i for i, v in enumerate(row) if v < 0) for row in out]
    moves = [
        [
            (1 << i, _KEEP[i], neg[s] & (1 << i), _code(i, v), m.successors(s, i))
            for i, v in enumerate(row)
        ]
        for s, row in enumerate(out)
    ]

    def breaches(key: _Key) -> int:
        s, K, V, e2, e1 = key
        bad = K & (V ^ neg[s])
        ctx = _THIRD.get((e2, e1))
        if ctx is not None and out[s][ctx[0]] != ctx[1]:
            bad |= 1 << ctx[0]
        return bad

    return breaches, moves


def verify_machine(
    m: MealyMachine, depth: int, starts: Sequence[int | str] | None = None
) -> VerificationReport:
    """Certify every input sequence of length <= depth from every start.

    Walks `_monitor`'s product graph breadth-first from the start keys
    (s, 0, 0, 0, 0), so witnesses are depth-minimal.  Undefined transitions
    of partial machines end the branch.  `parent` maps each reached key to
    the key and input it was first reached from, None at a start; each
    breach is re-checked by `check_transcript`'s rules on the witness run it
    leads back to.  Violations are deduplicated by (kind, observables at the
    breach, expected, observed), and every distinct one is reported: a
    repeatability key is one of 9 observables and 2 outcomes, a context key
    one of the 36 orderings of the 6 contexts with its sign fixed, so no
    machine has more than 18 + 36 = 54.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    t0 = time.perf_counter()
    out = m.outputs
    breaches, moves = _monitor(m)
    if starts is None:
        start_indices = range(len(m.states))
    else:
        start_indices = [m.state_index(s) for s in starts]
        if not start_indices:
            raise ValueError("starts must name at least one state")
    parent: dict[_Key, tuple[_Key, int] | None] = {
        (s, 0, 0, 0, 0): None for s in start_indices
    }
    n_starts = len(parent)
    level = list(parent)

    found: dict[tuple, Violation] = {}

    def witness(key: _Key, i: int) -> tuple[str, tuple[str, ...], tuple[int, ...]]:
        run = [(key[0], i)]
        while parent[key]:
            key, i = parent[key]
            run.append((key[0], i))
        seq = tuple(_NAMES[i] for _, i in reversed(run))
        return m.states[key[0]], seq, tuple(out[s][i] for s, i in reversed(run))

    for d in range(depth):
        expand = d + 1 < depth
        nxt: list[_Key] = []
        for key in level:
            s, K, V, _, e1 = key
            bad = breaches(key)
            for i, (bit, kp, nb, code, ts) in enumerate(moves[s]):
                if bad & bit:
                    start_label, seq, outs = witness(key, i)
                    for vio in _check_run(seq, outs, start_label):
                        dedup = (
                            vio.kind,
                            tuple(seq[p] for p in vio.positions),
                            vio.expected,
                            vio.observed,
                        )
                        found.setdefault(dedup, vio)
                    continue
                if expand and ts:
                    nK = (K & kp) | bit
                    nV = (V & kp) | nb
                    for t in ts:
                        nkey = (t, nK, nV, e1, code)
                        if nkey not in parent:
                            parent[nkey] = (key, i)
                            nxt.append(nkey)
        level = nxt
        if not level:
            break

    elapsed = (time.perf_counter() - t0) * 1000
    violations = tuple(
        sorted(
            found.values(),
            key=lambda v: (len(v.sequence), v.kind, v.sequence, v.positions),
        )
    )
    # n * (9 + 9^2 + ... + 9^depth) for n distinct starts, in closed form.
    total = n_starts * 9 * (9**depth - 1) // 8
    return VerificationReport(
        machine=m.name,
        depth=depth,
        sequences_checked=total,
        violations=violations,
        elapsed_ms=elapsed,
        notes=tuple(m.notes),
    )


_BOTTOM_TO_TOP = ("Y1Y2", "X1X2", "Z1Z2")
_REFUTE_DEPTH = 4


def refute_variant(kind: str) -> Violation:
    """Concrete refutation of one of the two rejected constructions.

    Verifies the variant from the all-plus contradiction-in-column state
    and returns the bottom-to-top column-3 witness Y1Y2, X1X2, Z1Z2 ->
    (+1, +1, +1).  Raises if it is not found within the depth bound, which
    would mean the variant construction regressed.
    """
    m = variant_machine(kind)
    report = verify_machine(m, _REFUTE_DEPTH, starts=[ALIASES["a"].label])
    for v in report.violations:
        if v.kind == CONTEXT_PRODUCT and v.sequence == _BOTTOM_TO_TOP:
            return v
    raise RuntimeError(
        f"variant {kind!r} produced no column-3 refutation within depth {_REFUTE_DEPTH}"
    )


# ---------------------------------------------------------------------------
# Bounded search over the deterministic sub-machines of a family.
# ---------------------------------------------------------------------------


@dataclass
class SearchOutcome:
    family: str
    depth: int
    machines: tuple[MealyMachine, ...]
    completions: int
    exhausted: bool
    nodes: int
    budget: int

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "depth": self.depth,
            "completions": self.completions,
            "machines": [m.to_json_dict() for m in self.machines],
            "exhausted": self.exhausted,
            "nodes": self.nodes,
            "budget": self.budget,
        }


def _family(
    name: str,
    states: Mapping[str, ExtOnticState],
    moves: Callable[[ExtOnticState], Iterable[ExtOnticState]],
) -> MealyMachine:
    """A family whose transition at (s, o) is uniform over the moves of s keeping o's value."""
    rows = {s: [ext_value(s, o) for o in _NAMES] for s in states.values()}

    def successors(s: ExtOnticState, o: str) -> tuple[ExtOnticState, ...]:
        i = _INDEX[o]
        return tuple(t for t in moves(s) if rows[t][i] == rows[s][i])

    return ontic_machine(name, states, ext_value, successors)


def family_paper4() -> MealyMachine:
    return _family("paper4", ALIASES, lambda s: ALIASES.values())


def family_cplus16() -> MealyMachine:
    """The 16 original tables only (contradiction in the last column)."""
    states = {s.label: s for s in (ExtOnticState(b, +1) for b in ALL_ONTIC)}
    return _family("cplus16", states, lambda s: states.values())


def family_all32_bit2() -> MealyMachine:
    """All 32 extended states; moves restricted to the skeleton shape.

    A successor either equals the current state or differs by flipping c
    together with exactly one bit-2 generator (z2 or x2).
    """
    return _family(
        "all32-bit2",
        {s.label: s for s in ALL_EXT},
        lambda s: (
            s,
            ExtOnticState(apply_flips(s.base, (1,)), -s.c),
            ExtOnticState(apply_flips(s.base, (3,)), -s.c),
        ),
    )


FAMILIES: Mapping[str, Callable[[], MealyMachine]] = {
    "paper4": family_paper4,
    "cplus16": family_cplus16,
    "all32-bit2": family_all32_bit2,
}

_CTX_SEARCH_ORDER = ("col3", "row3", "row1", "row2", "col1", "col2")
# The inputs least preferred first: the reverse of their first appearance
# in the contexts of `_CTX_SEARCH_ORDER`.
_LEAST_FIRST = list(
    dict.fromkeys(_INDEX[nm] for c in _CTX_SEARCH_ORDER for nm in pauli.CONTEXT_NAMES[c])
)[::-1]
# _REGISTER[e1]: the inputs a key whose last step code is e1 waits on, least
# preferred first; e1 = 1 + 2j or 2 + 2j codes a step measuring input j.
_REGISTER = [_LEAST_FIRST] + [
    sorted(_LEAST_FIRST, key=lambda i: _KEEP[i] >> j & 1)
    for j in range(len(_NAMES))
    for _ in (+1, -1)
]


class _Budget(Exception):
    pass


def search_machines(
    family: MealyMachine, depth: int, budget: int = 200_000, max_machines: int = 64
) -> SearchOutcome:
    """All deterministic sub-machines of the family passing depth-L checks.

    A completion picks one successor from each of the family's transitions.
    A family with an undefined transition, a budget below 1 or a negative
    max_machines raises ValueError.

    Depth-first over transition tables on `_monitor`'s product graph, the
    one `verify_machine` walks: the family's moves give each (state, input)
    pair its domain, and a completion assigns each pair one successor.
    Each product key reached from some start under the partial table keeps
    the least depth it is reached at, and a key below depth L - 1 whose
    next step needs an unassigned (state, input) pair waits on it.
    Assigning a pair wakes its waiters and propagates breadth-first, a key
    reached again at a smaller depth expanding again; the branch dies as
    soon as a reached key breaches (R) or (C), and an undo trail restores
    the keys.  Keys carry no depth, so the graph saturates and a large L
    costs what a small one does.  The search branches on the most recently
    waited-on pair; each key waits on its inputs least preferred first,
    preferring those distinct from and compatible with its last input,
    then `_CTX_SEARCH_ORDER`.  `budget` caps the number of search nodes;
    if it runs out the outcome reports exhausted=False.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if max_machines < 0:
        raise ValueError("max_machines must be >= 0")
    if not family.is_total:
        raise ValueError(f"family {family.name!r} has an undefined transition")
    n, k = len(family.states), len(_NAMES)
    breaches, moves = _monitor(family)

    table = [[-1] * k for _ in range(n)]  # successor per (state, input), -1 unassigned
    best: dict[_Key, int] = {}  # least depth of each reached key
    trail: list[tuple[_Key, int | None]] = []  # (key, its previous depth), for undo
    # Per machine state, its keys below depth L - 1: the waiters on its pairs.
    expanding: list[list[_Key]] = [[] for _ in range(n)]
    waited: list[tuple[int, int]] = []  # pairs in the order keys waited on them
    queue: collections.deque[_Key] = collections.deque()

    def reach(key: _Key, d: int) -> bool:
        old = best.get(key)
        if old is not None and old <= d:
            return True
        if old is None and breaches(key):
            return False
        trail.append((key, old))
        best[key] = d
        if d < depth - 1:
            expanding[key[0]].append(key)
            queue.append(key)
        return True

    def succ(key: _Key, i: int, t: int) -> _Key:
        s, K, V, _, e1 = key
        bit, kp, nb, code, _ = moves[s][i]
        return (t, (K & kp) | bit, (V & kp) | nb, e1, code)

    def propagate() -> bool:
        while queue:
            key = queue.popleft()
            s, d = key[0], best[key] + 1
            for i in _REGISTER[key[4]]:
                t = table[s][i]
                if t < 0:
                    waited.append((s, i))
                elif not reach(succ(key, i, t), d):
                    return False
        return True

    def assign(s: int, i: int, t: int) -> bool:
        table[s][i] = t
        for key in expanding[s][:]:
            if not reach(succ(key, i, t), best[key] + 1):
                return False
        return propagate()

    def undo(trail_len: int, waited_len: int) -> None:
        queue.clear()
        del waited[waited_len:]
        while len(trail) > trail_len:
            key, old = trail.pop()
            if best[key] < depth - 1:
                expanding[key[0]].pop()
            if old is None:
                del best[key]
            else:
                best[key] = old

    machines: list[MealyMachine] = []
    completions = 0
    nodes = 0
    pair_order = [(s, i) for s in range(n) for i in range(k)]

    def realize() -> None:
        nonlocal completions
        completions += 1
        if len(machines) >= max_machines:
            return
        m = MealyMachine(
            name=f"{family.name}-completion-{completions}",
            states=family.states,
            outputs=family.outputs,
            transitions=tuple(tuple(deterministic_row(t) for t in row) for row in table),
        )
        report = verify_machine(m, depth)
        if not report.passed:
            raise AssertionError(
                "search produced a completion that fails full verification"
            )
        machines.append(m)

    def dfs() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _Budget
        # Set aside the assigned pairs on top of `waited` until returning, so
        # that its top is the most recent pair still waited on.
        done = []
        while waited and table[waited[-1][0]][waited[-1][1]] >= 0:
            done.append(waited.pop())
        free = (p for p in pair_order if table[p[0]][p[1]] < 0)
        pair = waited[-1] if waited else next(free, None)
        if pair is None:
            realize()
        else:
            s, i = pair
            for t in moves[s][i][4]:
                marks = len(trail), len(waited)
                if assign(s, i, t):
                    dfs()
                undo(*marks)
            table[s][i] = -1
        waited.extend(reversed(done))

    # The roots cannot breach, and with nothing assigned they only wait.
    for s in range(n):
        reach((s, 0, 0, 0, 0), 0)
    propagate()
    exhausted = True
    try:
        dfs()
    except _Budget:
        exhausted = False
    return SearchOutcome(
        family.name, depth, tuple(machines), completions, exhausted, nodes, budget
    )
