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

`check_transcript` applies the constraints directly to one run.  All
other verdicts walk one product graph, machine x (R)+(C) monitor.  The
monitor holds exactly what the constraints can ever look at, the pending
repeatable values and the last two steps, so walking the graph is
equivalent to enumerating all 9^L sequences.  It is a fixed finite
automaton, compiled on first use into one transition table of 739
states, a row per state (`_compiled`).  A product key is one int, and one
step of either walk is one lookup in its monitor state's row.
`verify_machine` walks the product graph breadth-first from every start
state of one machine, expanding each (monitor state, successor set)
once.  `search_machines` walks it depth-first over the deterministic
sub-machines of a family, a machine whose transition at (s, o) lists the
moves a completion may pick, branching on a transition that a reached
product state needs next and pruning as soon as one breaches (R) or (C).
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import time
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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

# The least int past Python's default int -> str limit of 4 300 digits.
_INT_STR_LIMIT = 10**4300


def json_int(n: int) -> int | str:
    """n itself below 4 300 digits, else its exact decimal digits as a string.

    Either form renders with `json.dumps` and `str`, and reads back with
    `json.loads`, under Python's default int -> str digit limit.
    """
    if abs(n) < _INT_STR_LIMIT:
        return n
    import decimal  # here, not at the top: only counts past the limit need it

    return str(decimal.Decimal(n))


def _fields(report: object, **converted: object) -> dict:
    """A report's fields by name, as JSON: tuples as lists, the `converted` ones as given."""
    return {
        k: converted[k] if k in converted else list(v) if isinstance(v, tuple) else v
        for k, v in report._asdict().items()
    }


class Violation(NamedTuple):
    """One witnessed breach of (R) or (C), replayable from its start state."""

    kind: str
    start: str | None
    sequence: tuple[str, ...]
    outputs: tuple[int, ...]
    positions: tuple[int, ...]
    expected: int
    observed: int

    def to_dict(self) -> dict:
        return _fields(self)


def _check_run(
    inputs: Sequence[str], outputs: Sequence[int], start: str | None = None
) -> list[Violation]:
    ins, outs = tuple(inputs), tuple(outputs)
    violations: list[Violation] = []
    # (R): from each step p, scan forward to the first input incompatible
    # with ins[p]; every equal input on the way must repeat its output.
    for p, a in enumerate(ins):
        keep = pauli.COMMUTING[a]
        for q in range(p + 1, len(ins)):
            if ins[q] == a and outs[q] != outs[p]:
                violations.append(
                    Violation(REPEATABILITY, start, ins, outs, (p, q), outs[p], outs[q])
                )
            if ins[q] not in keep:
                break
    # (C): every context has three members, so a window that repeats an
    # input is no key of CONTEXT_SETS.  A product of three +/-1 outputs
    # that misses the sign is -sign.
    for k in range(len(ins) - 2):
        sign = pauli.CONTEXT_SETS.get(frozenset(ins[k : k + 3]))
        if sign is not None and outs[k] * outs[k + 1] * outs[k + 2] != sign:
            pos = (k, k + 1, k + 2)
            violations.append(Violation(CONTEXT_PRODUCT, start, ins, outs, pos, sign, -sign))
    return violations


def check_transcript(t: Transcript, start: str | None = None) -> list[Violation]:
    """All (R) and (C) breaches in one transcript: (R) by (p, q), then (C) by window.

    The cost is at worst quadratic in run length, as the number of breaches can be.
    """
    for nm in t.inputs:
        # A str first: a list, say, is unhashable and cannot be looked up.
        if not isinstance(nm, str) or nm not in pauli.OBSERVABLES:
            raise ValueError(f"not a PM observable: {nm!r}")
    return _check_run(t.inputs, t.outputs, start)


class VerificationReport(NamedTuple):
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
        return _fields(
            self,
            sequences_checked=json_int(self.sequences_checked),
            violations=[v.to_dict() for v in self.violations],
        )

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
# if _STEP_BIT[e1] & _KEEP[i]; otherwise the monitor forgets it.
_STEP_BIT = [0] + [1 << i for i in range(len(_NAMES)) for _ in (+1, -1)]
# Step codes run from 1 to 18: a monitor table has a row of _CODES entries
# per state.
_CODES = len(_STEP_BIT)
_BREACH = -1
# verify_machine's parent entry for a key not yet reached, or a start key.
_UNREACHED = -2


@functools.cache
def _compiled() -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]:
    """The (R)+(C) monitor as a transition table (next, bad, last), built on first use.

    A monitor state is (K, V, e2, e1): bit i of K marks a pending value for
    input i (the i-th of `pauli.OBSERVABLE_NAMES`) and bit i of V says it is
    -1; e2 and e1 are the last two step codes, 0 for none.  The states
    reachable from (0, 0, 0, 0) are numbered breadth-first from 0.
    next[mu] is mu's row of _CODES entries: next[mu][c] is the state after
    step code c at mu, or _BREACH if the step breaches (R) or (C); bad[mu]
    has bit c set for those steps, and last[mu] is mu's e1.  The monitor
    forgets e2 unless `_STEP_BIT[e1] & _KEEP[i]`: e2 is read only through
    `_THIRD`, which needs e2 and e1 to measure distinct compatible inputs,
    so merged states breach alike now and after every continuation.  Its
    739 states (1 477 if e2 were always kept) are the least monitor that
    reports the same violations.
    """
    states = [(0, 0, 0, 0)]
    number = {states[0]: 0}
    nxt: list[tuple[int, ...]] = []
    bad: list[int] = []
    # Per step code, in order: its input i and output v, i's bit in K, its
    # bit in V, and the inputs compatible with i.
    steps = [
        (_code(i, v), i, v, 1 << i, (1 << i) * (v < 0), _KEEP[i])
        for i, v in itertools.product(range(len(_NAMES)), (1, -1))
    ]
    for K, V, e2, e1 in states:  # appended to while walked: breadth-first
        ctx = _THIRD.get((e2, e1))
        row = [_BREACH]  # step code 0, never taken
        bad.append(0)
        for code, i, v, bit, neg, keep in steps:
            if (K & bit and (V & bit) != neg) or (ctx and ctx[0] == i and ctx[1] != v):
                bad[-1] |= 1 << code
                row.append(_BREACH)
                continue
            e2_next = e1 if _STEP_BIT[e1] & keep else 0
            state = ((K & keep) | bit, (V & keep) | neg, e2_next, code)
            row.append(number.setdefault(state, len(number)))
            if len(number) > len(states):
                states.append(state)
        nxt.append(tuple(row))
    # Tuples: every caller in the process shares them.
    return tuple(nxt), tuple(bad), tuple(state[3] for state in states)


def _steps(m: MealyMachine) -> tuple[list[list[int]], list[int]]:
    """Per machine state, the step code of each input, and the mask of those codes."""
    codes = [[_code(i, v) for i, v in enumerate(row)] for row in m.outputs]
    return codes, [sum(1 << c for c in row) for row in codes]


def verify_machine(m: MealyMachine, depth: int) -> VerificationReport:
    """Certify every input sequence of length <= depth from every state.

    Walks machine x monitor (`_compiled()`) breadth-first from one start
    key per machine state, so witnesses are depth-minimal.  A product key
    is one int, mu * n + s for monitor state mu and machine state s of n,
    and one step is one lookup in mu's row.  Each level is the one a monitor
    keeping every e2 would give with repeated classes dropped, in order, so
    the report is the same (2 528 keys for `extended32`, 4 928 with every
    e2 kept).  Undefined transitions of partial machines end the branch.

    parent[key], one flat list per call of 739 x n entries, is key' * 9 + i
    for the key' and input i that first reached key, else _UNREACHED, which
    a start key keeps: each step sets e1 to its code, at least 1, so no move
    enters monitor state 0.  mark holds one byte per (monitor state, set) slot,
    739 x S for the S distinct successor sets, one successor making a
    one-member set (72 for `spekkens16`, 32 for `extended32`, 4 for `paper4`).
    The first move into a slot reaches every member of the set, so a later
    one, in any order, would change nothing: it is skipped, and the levels,
    parents and witnesses are those of expanding every move.
    A breach is re-checked by `check_transcript`'s rules on the witness run
    it leads back to, once per breaching slot (mu, step code), before the
    key's moves, which set only the next level's parents.  This is exact:
    every earlier step of the run passed, so each violation ends at the
    breach, and its key below is fixed by the step code and by the
    pending value (R) or the last two steps (C) that mu holds.
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
    nxt, bad, _ = _compiled()
    n, k = len(m.states), len(_NAMES)
    codes, code_mask = _steps(m)
    # moves[s]: (input, step code, set * 739, successors) per nonempty row,
    # its successor set numbered in `sets`; one successor is a one-member set.
    sets: dict[frozenset[int], int] = {}
    moves: list[list[tuple]] = [[] for _ in range(n)]
    for s, row in enumerate(m.transitions):
        for i, dist in enumerate(row):
            if dist:
                ts = tuple(t for t, _ in dist)
                slot = sets.setdefault(frozenset(ts), len(sets)) * len(bad)
                moves[s].append((i, codes[s][i], slot, ts))
    mark = bytearray(len(bad) * len(sets))
    parent = [_UNREACHED] * (len(bad) * n)
    # Monitor state 0 is the empty one, so a start key is its machine state.
    level = list(range(n))

    found: dict[tuple, Violation] = {}
    checked: set[int] = set()  # breaching slots mu * _CODES + code, re-checked

    def witness(key: int, i: int) -> tuple[str, tuple[str, ...], tuple[int, ...]]:
        run = [(key % n, i)]
        while parent[key] >= 0:
            key, i = divmod(parent[key], k)
            run.append((key % n, i))
        seq = tuple(_NAMES[i] for _, i in reversed(run))
        return m.states[key % n], seq, tuple(out[s][i] for s, i in reversed(run))

    for d in range(depth):
        expand = d + 1 < depth
        new: list[int] = []
        for key in level:
            mu, s = divmod(key, n)
            r = nxt[mu]
            if bad[mu] & code_mask[s]:
                for i, code in enumerate(codes[s]):
                    if r[code] != _BREACH or mu * _CODES + code in checked:
                        continue
                    checked.add(mu * _CODES + code)
                    start_label, seq, outs = witness(key, i)
                    for vio in _check_run(seq, outs, start_label):
                        at = tuple(seq[p] for p in vio.positions)
                        found.setdefault((vio.kind, at, vio.expected, vio.observed), vio)
            if not expand:
                continue
            for i, code, slot, ts in moves[s]:
                step = r[code]
                if step == _BREACH:
                    continue
                slot += step
                if mark[slot]:
                    continue
                mark[slot] = 1
                step *= n
                for t in ts:
                    nkey = step + t
                    if parent[nkey] == _UNREACHED:
                        parent[nkey] = key * k + i
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
    `variant_machine` builds the variant once per process, so a call pays
    only the replay and its check.
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


class SearchOutcome(NamedTuple):
    family: str
    depth: int
    machines: tuple[MealyMachine, ...]
    completions: int
    exhausted: bool
    nodes: int
    budget: int

    def to_dict(self) -> dict:
        return _fields(self, machines=[m.to_json_dict() for m in self.machines])


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


# Each family is built on first use, once per process, and shared, as the
# builtin machines are.
@functools.cache
def family_paper4() -> MealyMachine:
    return _family("paper4", ALIASES, lambda s: ALIASES.values())


@functools.cache
def family_cplus16() -> MealyMachine:
    """The 16 original tables only (contradiction in the last column)."""
    states = {s.label: s for s in (ExtOnticState(b, +1) for b in ALL_ONTIC)}
    return _family("cplus16", states, lambda s: states.values())


@functools.cache
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

    Depth-first over transition tables on `verify_machine`'s product
    graph, keys mu * n + s: the family's moves give each (state, input)
    pair its domain, and a completion assigns each pair one successor.
    Each product key reached from some start under the partial table keeps
    the least depth it is reached at, and a key below depth L - 1 whose
    next step needs an unassigned (state, input) pair waits on it.
    Assigning a pair wakes its waiters and propagates breadth-first, a key
    reached again at a smaller depth expanding again; the branch dies as
    soon as a reached key breaches (R) or (C), and an undo trail restores
    the keys.  `best`, one flat list per call of 739 x n entries, holds
    each key's least depth, L if unreached.  Keys carry no depth, so the
    graph saturates and a large L costs what a small one does.  The search
    branches on the most recently waited-on pair; each key waits on its
    inputs least preferred first, preferring those distinct from and
    compatible with its last input, then `_CTX_SEARCH_ORDER`.  `budget`
    caps the number of search nodes; if it runs out the outcome reports
    exhausted=False.
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
    nxt, bad, last = _compiled()
    codes, code_mask = _steps(family)
    moves = [[[t for t, _ in r] for r in row] for row in family.transitions]

    table = [[-1] * k for _ in range(n)]  # successor per (state, input), -1 unassigned
    best = [depth] * (len(bad) * n)  # least depth of each key, depth if unreached
    trail: list[tuple[int, int]] = []  # (key, its previous depth), for undo
    # Per machine state, its keys below depth L - 1: the waiters on its pairs.
    expanding: list[list[int]] = [[] for _ in range(n)]
    waited: list[tuple[int, int]] = []  # pairs in the order keys waited on them
    queue: collections.deque[int] = collections.deque()

    def reach(key: int, d: int) -> bool:
        old = best[key]
        if old <= d:
            return True
        mu, s = divmod(key, n)
        if old == depth and bad[mu] & code_mask[s]:
            return False
        trail.append((key, old))
        best[key] = d
        if d < depth - 1:
            expanding[s].append(key)
            queue.append(key)
        return True

    def propagate() -> bool:
        while queue:
            key = queue.popleft()
            mu, s = divmod(key, n)
            d = best[key] + 1
            r, code, succ = nxt[mu], codes[s], table[s]
            for i in _REGISTER[last[mu]]:
                t = succ[i]
                if t < 0:
                    waited.append((s, i))
                elif not reach(r[code[i]] * n + t, d):
                    return False
        return True

    def assign(s: int, i: int, t: int) -> bool:
        table[s][i] = t
        code = codes[s][i]
        for key in expanding[s][:]:
            if not reach(nxt[key // n][code] * n + t, best[key] + 1):
                return False
        return propagate()

    def undo(trail_len: int, waited_len: int) -> None:
        queue.clear()
        del waited[waited_len:]
        while len(trail) > trail_len:
            key, old = trail.pop()
            if best[key] < depth - 1:
                expanding[key % n].pop()
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
