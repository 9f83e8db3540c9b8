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
other verdicts walk one product graph, machine x (R)+(C) monitor.  The
monitor holds exactly what the constraints can ever look at, the pending
repeatable values and the last two steps, so walking the graph is
equivalent to enumerating all 9^L sequences.  It is a fixed finite
automaton, compiled on first use into a transition table (`_compiled`):
739 states for the reduced monitor, 1 477 for the raw one.  A product key
is one int, and one step of either walk is one table lookup.
`verify_machine` walks machine x reduced monitor breadth-first from every
start state of one machine.  `search_machines` walks machine x raw monitor
depth-first over the deterministic sub-machines of a family, a machine
whose transition at (s, o) lists the moves a completion may pick,
branching on a transition that a reached product state needs next and
pruning as soon as one breaches (R) or (C).
"""

from __future__ import annotations

import collections
import functools
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
from .machine import MealyMachine, Transcript, deterministic_row, enumerate_transcripts
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
# _STEP_BIT[e]: the bit of the input that step code e measures, 0 for none.
# After measuring input i, the last step e1 can still start a context only
# if _STEP_BIT[e1] & _KEEP[i]; otherwise the reduced monitor forgets it.
_STEP_BIT = [0] + [1 << i for i in range(len(_NAMES)) for _ in (+1, -1)]
# Step codes run from 1 to 18: a monitor table has a row of _CODES entries
# per state.
_CODES = len(_STEP_BIT)
_BREACH = -1


@functools.cache
def _compiled(reduced: bool) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The (R)+(C) monitor as a transition table (next, bad, last), built on first use.

    A monitor state is (K, V, e2, e1): bit i of K marks a pending value for
    input i (the i-th of `pauli.OBSERVABLE_NAMES`) and bit i of V says it is
    -1; e2 and e1 are the last two step codes, 0 for none.  The states
    reachable from (0, 0, 0, 0) are numbered breadth-first from 0.
    next[mu * _CODES + c] is the state after step code c at mu, or _BREACH
    if the step breaches (R) or (C); bad[mu] has bit c set for those steps,
    and last[mu] is mu's e1.  The raw monitor has 1 477 states.  The reduced
    one forgets e2 unless `_STEP_BIT[e1] & _KEEP[i]`: e2 is read only
    through `_THIRD`, which needs e2 and e1 to measure distinct compatible
    inputs, so merged states breach alike now and after every continuation.
    Its 739 states are the least monitor that reports the same violations.
    """
    states = [(0, 0, 0, 0)]
    number = {states[0]: 0}
    nxt: list[int] = []
    bad: list[int] = []
    # Per step code, in order: its input i and output v, i's bit in K, its
    # bit in V, and the inputs compatible with i.
    steps = [
        (_code(i, v), i, v, 1 << i, (1 << i) * (v < 0), _KEEP[i])
        for i, v in itertools.product(range(len(_NAMES)), (1, -1))
    ]
    for K, V, e2, e1 in states:  # appended to while walked: breadth-first
        ctx = _THIRD.get((e2, e1))
        nxt.append(_BREACH)  # step code 0, never taken
        bad.append(0)
        for code, i, v, bit, neg, keep in steps:
            if (K & bit and (V & bit) != neg) or (ctx and ctx[0] == i and ctx[1] != v):
                bad[-1] |= 1 << code
                nxt.append(_BREACH)
                continue
            e2_next = e1 if not reduced or _STEP_BIT[e1] & keep else 0
            state = ((K & keep) | bit, (V & keep) | neg, e2_next, code)
            nxt.append(number.setdefault(state, len(number)))
            if len(number) > len(states):
                states.append(state)
    # Tuples: every caller in the process shares them.
    return tuple(nxt), tuple(bad), tuple(state[3] for state in states)


def _steps(m: MealyMachine) -> tuple[list[list[int]], list[int]]:
    """Per machine state, the step code of each input, and the mask of those codes."""
    codes = [[_code(i, v) for i, v in enumerate(row)] for row in m.outputs]
    return codes, [sum(1 << c for c in row) for row in codes]


def verify_machine(m: MealyMachine, depth: int) -> VerificationReport:
    """Certify every input sequence of length <= depth from every state.

    Walks machine x reduced monitor (`_compiled(True)`) breadth-first from
    one start key per machine state, so witnesses are depth-minimal.  A
    product key is one int, mu * n + s for monitor state mu and machine
    state s of n, and one step is one table lookup.  Each level is the raw walk's with repeated
    classes dropped, in order, so the report is the raw walk's (2 528 keys
    for `extended32`, 4 928 raw).  Undefined transitions of partial machines
    end the branch.  `parent` maps each reached key to the key and input it
    was first reached from, None at a start; each breach is re-checked by
    `check_transcript`'s rules on the witness run it leads back to.
    Violations are deduplicated by (kind, observables at the breach,
    expected, observed), and every distinct one is reported: a
    repeatability key is one of 9 observables and 2 outcomes, a context key
    one of the 36 orderings of the 6 contexts with its sign fixed, so no
    machine has more than 18 + 36 = 54.
    """
    if type(depth) is not int or depth < 1:
        raise ValueError("depth must be >= 1")
    t0 = time.perf_counter()
    out = m.outputs
    nxt, bad, _ = _compiled(True)
    n = len(m.states)
    codes, code_mask = _steps(m)
    moves = [
        [(i, codes[s][i], [t for t, _ in r]) for i, r in enumerate(row)]
        for s, row in enumerate(m.transitions)
    ]
    # Monitor state 0 is the empty one, so a start key is its machine state.
    parent: dict[int, tuple[int, int] | None] = dict.fromkeys(range(n))
    level = list(parent)

    found: dict[tuple, Violation] = {}

    def witness(key: int, i: int) -> tuple[str, tuple[str, ...], tuple[int, ...]]:
        run = [(key % n, i)]
        while parent[key]:
            key, i = parent[key]
            run.append((key % n, i))
        seq = tuple(_NAMES[i] for _, i in reversed(run))
        return m.states[key % n], seq, tuple(out[s][i] for s, i in reversed(run))

    for d in range(depth):
        expand = d + 1 < depth
        new: list[int] = []
        for key in level:
            mu, s = divmod(key, n)
            if not (expand or bad[mu] & code_mask[s]):
                continue
            row = mu * _CODES
            for i, code, ts in moves[s]:
                step = nxt[row + code]
                if step == _BREACH:
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
                if expand:
                    step *= n
                    for t in ts:
                        nkey = step + t
                        if nkey not in parent:
                            parent[nkey] = (key, i)
                            new.append(nkey)
        level = new
        if not level:
            break

    elapsed = (time.perf_counter() - t0) * 1000
    violations = tuple(
        sorted(
            found.values(),
            key=lambda v: (len(v.sequence), v.kind, v.sequence, v.positions),
        )
    )
    # n * (9 + 9^2 + ... + 9^depth) for n start states, in closed form.
    total = n * 9 * (9**depth - 1) // 8
    return VerificationReport(
        machine=m.name,
        depth=depth,
        sequences_checked=total,
        violations=violations,
        elapsed_ms=elapsed,
        notes=tuple(m.notes),
    )


_BOTTOM_TO_TOP = ("Y1Y2", "X1X2", "Z1Z2")


def refute_variant(kind: str) -> Violation:
    """Concrete refutation of one of the two rejected constructions.

    Replays the bottom-to-top column-3 run Y1Y2, X1X2, Z1Z2 on the variant
    from the all-plus contradiction-in-column state and returns the first
    context-product breach, the witness (+1, +1, +1).  Raises if every
    run keeps (C), which would mean the variant construction regressed.
    """
    m = variant_machine(kind)
    start = ALIASES["a"].label
    for t in enumerate_transcripts(m, start, _BOTTOM_TO_TOP):
        for v in check_transcript(t, start):
            if v.kind == CONTEXT_PRODUCT:
                return v
    raise RuntimeError(f"variant {kind!r} keeps (C) on {', '.join(_BOTTOM_TO_TOP)}")


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
# preferred first, so those compatible with e1's input come last.
_REGISTER = [sorted(_LEAST_FIRST, key=lambda i: bool(_KEEP[i] & b)) for b in _STEP_BIT]


class _Budget(Exception):
    pass


def search_machines(
    family: MealyMachine, depth: int, budget: int = 200_000, max_machines: int = 64
) -> SearchOutcome:
    """All deterministic sub-machines of the family passing depth-L checks.

    A completion picks one successor from each of the family's transitions.
    A family with an undefined transition, a budget below 1 or a negative
    max_machines raises ValueError.

    Depth-first over transition tables on machine x raw monitor
    (`_compiled(False)`), keys mu * n + s as in `verify_machine`: the
    family's moves give each (state, input) pair its domain, and a
    completion assigns each pair one successor.  The raw monitor keeps the
    printed node counts: on reduced keys, paper4 at depth 4 takes 80 nodes,
    not 75, and all32-bit2 777, not 921, for the same completions.
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
    if type(depth) is not int or depth < 1:
        raise ValueError("depth must be >= 1")
    if type(budget) is not int or budget < 1:
        raise ValueError("budget must be >= 1")
    if type(max_machines) is not int or max_machines < 0:
        raise ValueError("max_machines must be >= 0")
    if not family.is_total:
        raise ValueError(f"family {family.name!r} has an undefined transition")
    n, k = len(family.states), len(_NAMES)
    nxt, bad, last = _compiled(False)
    codes, code_mask = _steps(family)
    moves = [[[t for t, _ in r] for r in row] for row in family.transitions]

    table = [[-1] * k for _ in range(n)]  # successor per (state, input), -1 unassigned
    best: dict[int, int] = {}  # least depth of each reached key
    trail: list[tuple[int, int | None]] = []  # (key, its previous depth), for undo
    # Per machine state, its keys below depth L - 1: the waiters on its pairs.
    expanding: list[list[int]] = [[] for _ in range(n)]
    waited: list[tuple[int, int]] = []  # pairs in the order keys waited on them
    queue: collections.deque[int] = collections.deque()

    def reach(key: int, d: int) -> bool:
        old = best.get(key)
        if old is not None and old <= d:
            return True
        mu, s = divmod(key, n)
        if old is None and bad[mu] & code_mask[s]:
            return False
        trail.append((key, old))
        best[key] = d
        if d < depth - 1:
            expanding[s].append(key)
            queue.append(key)
        return True

    def succ(key: int, i: int, t: int) -> int:
        mu, s = divmod(key, n)
        return nxt[mu * _CODES + codes[s][i]] * n + t

    def propagate() -> bool:
        while queue:
            key = queue.popleft()
            mu, s = divmod(key, n)
            d = best[key] + 1
            for i in _REGISTER[last[mu]]:
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
                expanding[key % n].pop()
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
            for t in moves[s][i]:
                marks = len(trail), len(waited)
                if assign(s, i, t):
                    dfs()
                undo(*marks)
            table[s][i] = -1
        waited.extend(reversed(done))

    # The roots, keys s of the empty monitor state 0, cannot breach, and
    # with nothing assigned they only wait.
    for s in range(n):
        reach(s, 0)
    propagate()
    exhausted = True
    try:
        dfs()
    except _Budget:
        exhausted = False
    return SearchOutcome(
        family.name, depth, tuple(machines), completions, exhausted, nodes, budget
    )
