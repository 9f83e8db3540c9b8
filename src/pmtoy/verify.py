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
(+1, +1, +1, -1), a run that satisfies (R) and (C), even read strictly,
yet has quantum probability 0: Z1Z2 is fixed by the earlier Z1 and Z2
outcomes and commutes with X1X2.

`check_transcript` applies the constraints literally to one run.
`verify_machine` certifies all input sequences up to a depth bound from
every start state by a breadth-first search over (machine state,
constraint monitor) product states.  The monitor holds exactly what the
constraints can ever look at, the pending repeatable values and the last
two steps, coded as four small ints; so memoizing product states, each
one int key, is equivalent to enumerating all 9^L sequences.

`search_machines` does a pruned depth-first search over the deterministic
sub-machines of a family, a machine whose transition at (s, o) lists the
moves a completion may pick.  It walks the same product graph, branching
lazily on a transition that a reached product state needs next and
pruning as soon as a reached product state breaches (R) or (C).  Both use
one monitor, `_monitor`; `_check_run` stays the literal reference.
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
from .toy import ALL_ONTIC, COMMUTING, apply_flips, ontic_machine

REPEATABILITY = "repeatability"
CONTEXT_PRODUCT = "context_product"

# Python's default limit on int -> str conversion, in decimal digits.
_INT_STR_DIGITS = 4300


def compatible(a: str, b: str) -> bool:
    """True iff the two named PM observables commute."""
    return b in COMMUTING[a]


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
    inputs: Sequence[str],
    outputs: Sequence[int],
    start: str | None = None,
    strict_contexts: bool = False,
) -> list[Violation]:
    ins, outs = tuple(inputs), tuple(outputs)
    n = len(ins)
    violations: list[Violation] = []
    for p in range(n):
        for q in range(p + 1, n):
            if ins[q] != ins[p]:
                continue
            if all(compatible(ins[m], ins[p]) for m in range(p + 1, q)):
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
    if strict_contexts:
        # Stronger reading: a context completed across compatible
        # interleavings, each earlier outcome still in force at the last
        # position.  Reported informationally, never part of the gate.
        for p, q, r in itertools.combinations(range(n), 3):
            if q - p == 1 and r - q == 1:
                continue
            triple = (ins[p], ins[q], ins[r])
            if len(set(triple)) != 3:
                continue
            sign = pauli.CONTEXT_SETS.get(frozenset(triple))
            if sign is None:
                continue
            in_force = all(
                compatible(ins[m], ins[p]) for m in range(p + 1, r) if m != q
            ) and all(compatible(ins[m], ins[q]) for m in range(q + 1, r))
            if in_force and outs[p] * outs[q] * outs[r] != sign:
                violations.append(
                    Violation(
                        CONTEXT_PRODUCT,
                        start,
                        ins,
                        outs,
                        (p, q, r),
                        sign,
                        outs[p] * outs[q] * outs[r],
                    )
                )
    return violations


def check_transcript(
    t: Transcript, start: str | None = None, strict_contexts: bool = False
) -> list[Violation]:
    """All (R) and (C) breaches in one transcript."""
    return _check_run(t.inputs, t.outputs, start, strict_contexts)


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


def _monitor(
    names: Sequence[str], outputs: Sequence[Sequence[int]]
) -> tuple[list[int], dict[tuple[int, int], tuple[int, int]], list[int], list[list[int]]]:
    """The (R)+(C) monitor's tables, for these inputs and per-state outputs.

    A monitor state is (K, V, e2, e1): bit i of K marks a pending value for
    input i and bit i of V says it is -1; e2 and e1 code the last two steps
    as 1 + 2i + (v < 0), 0 for none.  At state s the (R) breaches are
    K & (V ^ neg[s]), neg[s] marking the inputs s answers -1; a (C) breach
    is one lookup, third[e2, e1] -> (input, required output).  Measuring i
    keeps the pending values of keep[i] and appends the step codes[s][i].
    """
    for nm in names:
        if nm not in pauli.OBSERVABLES:
            raise ValueError(f"machine input is not a PM observable: {nm!r}")
    k = len(names)

    def code(i: int, v: int) -> int:
        return 1 + 2 * i + (v < 0)

    keep = [
        sum(1 << j for j in range(k) if j != i and compatible(names[i], names[j]))
        for i in range(k)
    ]
    third: dict[tuple[int, int], tuple[int, int]] = {}
    for names3, sign in pauli.CONTEXT_SETS.items():
        if all(nm in names for nm in names3):
            for i2, i1, i in itertools.permutations([names.index(nm) for nm in names3]):
                for v2, v1 in itertools.product((1, -1), repeat=2):
                    third[code(i2, v2), code(i1, v1)] = (i, sign * v2 * v1)
    neg = [sum(1 << i for i in range(k) if row[i] < 0) for row in outputs]
    codes = [[code(i, v) for i, v in enumerate(row)] for row in outputs]
    return keep, third, neg, codes


def verify_machine(
    m: MealyMachine,
    depth: int,
    starts: Sequence[int | str] | None = None,
    max_violations: int = 64,
) -> VerificationReport:
    """Certify every input sequence of length <= depth from every start.

    Walks the product of the machine with the constraint monitor
    breadth-first, so witnesses are depth-minimal; violations are
    deduplicated by (kind, inputs at the breach positions, expected,
    observed).  Undefined transitions of partial machines end the branch.

    A product state is (s, K, V, e2, e1), a machine state and a `_monitor`
    state, packed into one int for the seen set.  Each breach is re-checked
    by `check_transcript`'s rules on its witness run.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    names = m.inputs
    t0 = time.perf_counter()
    k = len(names)
    out = m.outputs
    keep, third, neg, codes = _monitor(names, out)
    # moves[s]: per input, (i, bit, keep[i], output, step code, successors).
    moves = [
        [
            (i, 1 << i, keep[i], out[s][i], codes[s][i], tuple(t for t, _ in row))
            for i, row in enumerate(srow)
        ]
        for s, srow in enumerate(m.transitions)
    ]
    if starts is None:
        start_indices = list(range(len(m.states)))
    else:
        start_indices = [m.state_index(s) for s in starts]

    # The seen key packs (s, K, V, e2, e1) into one int, each code in eb bits.
    eb = (2 * k + 1).bit_length()
    s_shift = 2 * k + 2 * eb
    roots = list(dict.fromkeys(start_indices))  # node j < len(roots) starts at roots[j]
    parents: list[tuple[int, int, int]] = [(-1, -1, 0)] * len(roots)
    seen = {s << s_shift for s in roots}
    level = [(j, s, 0, 0, 0, 0) for j, s in enumerate(roots)]

    found: dict[tuple, Violation] = {}
    truncated = False

    def witness(nid: int, i: int, v: int) -> tuple[str, tuple[str, ...], tuple[int, ...]]:
        seq, outs = [names[i]], [v]
        p, pi, pv = parents[nid]
        while p != -1:
            seq.append(names[pi])
            outs.append(pv)
            nid = p
            p, pi, pv = parents[nid]
        return m.states[roots[nid]], tuple(reversed(seq)), tuple(reversed(outs))

    for d in range(depth):
        expand = d + 1 < depth
        nxt: list[tuple[int, int, int, int, int, int]] = []
        for nid, s, K, V, e2, e1 in level:
            ns = neg[s]
            bad = K & (V ^ ns)
            ctx = third.get((e2, e1))
            if ctx is not None and out[s][ctx[0]] != ctx[1]:
                bad |= 1 << ctx[0]
            for i, bit, kp, v, code, ts in moves[s]:
                if bad & bit:
                    if len(found) < max_violations:
                        start_label, seq, outs = witness(nid, i, v)
                        for vio in _check_run(seq, outs, start_label):
                            key = (
                                vio.kind,
                                tuple(seq[p] for p in vio.positions),
                                vio.expected,
                                vio.observed,
                            )
                            found.setdefault(key, vio)
                    else:
                        truncated = True
                    continue
                if expand and ts:
                    nK = (K & kp) | bit
                    nV = (V & kp) | (ns & bit)
                    low = (((nK << k | nV) << eb | e1) << eb) | code
                    for t in ts:
                        key = t << s_shift | low
                        if key not in seen:
                            seen.add(key)
                            nxt.append((len(parents), t, nK, nV, e1, code))
                            parents.append((nid, i, v))
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
    notes = tuple(m.notes)
    if truncated:
        notes = notes + (f"violation list truncated at {max_violations} entries",)
    # n * (k + k^2 + ... + k^depth) for n distinct starts, in closed form.
    total = len(roots) * (depth if k == 1 else k * (k**depth - 1) // (k - 1))
    return VerificationReport(
        machine=m.name,
        depth=depth,
        sequences_checked=total,
        violations=violations,
        elapsed_ms=elapsed,
        notes=notes,
    )


_BOTTOM_TO_TOP = ("Y1Y2", "X1X2", "Z1Z2")


def refute_variant(kind: str, depth: int = 4) -> Violation:
    """Concrete refutation of one of the two rejected constructions.

    Verifies the variant from the all-plus contradiction-in-column state
    and returns a column-3 context violation with product +1, preferring
    the literal bottom-to-top witness.  Raises if none exists within the
    depth bound, which would mean the variant construction regressed.
    """
    m = variant_machine(kind)
    report = verify_machine(m, depth, starts=[ALIASES["a"].label])
    col3 = set(pauli.CONTEXT_NAMES["col3"])
    fallback: Violation | None = None
    for v in report.violations:
        if (
            v.kind == CONTEXT_PRODUCT
            and {v.sequence[p] for p in v.positions} == col3
            and v.observed == +1
        ):
            if v.sequence == _BOTTOM_TO_TOP:
                return v
            if fallback is None:
                fallback = v
    if fallback is None:
        raise RuntimeError(
            f"variant {kind!r} produced no column-3 refutation within depth {depth}"
        )
    return fallback


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
    rows = {s: [ext_value(s, o) for o in pauli.OBSERVABLE_NAMES] for s in states.values()}
    col = {o: i for i, o in enumerate(pauli.OBSERVABLE_NAMES)}

    def successors(s: ExtOnticState, o: str) -> tuple[ExtOnticState, ...]:
        i = col[o]
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

# A product key (s, K, V, e2, e1): a machine state and a `_monitor` state.
_Key = tuple[int, int, int, int, int]


class _Budget(Exception):
    pass


def search_machines(
    family: MealyMachine, depth: int, budget: int = 200_000, max_machines: int = 64
) -> SearchOutcome:
    """All deterministic sub-machines of the family passing depth-L checks.

    A completion picks one successor from each of the family's transitions,
    so a family with an undefined transition has none.

    Depth-first over transition tables on `verify_machine`'s product graph.
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
    n = len(family.states)
    names = family.inputs
    k = len(names)
    outputs = family.outputs
    domains = [[family.successors(s, i) for i in range(k)] for s in range(n)]
    keep, third, neg, codes = _monitor(names, outputs)
    ctx_order = [
        names.index(nm)
        for c in _CTX_SEARCH_ORDER
        for nm in pauli.CONTEXT_NAMES[c]
        if nm in names
    ]
    least_first = list(dict.fromkeys(ctx_order))[::-1]
    # register[e1]: the inputs a key whose last step code is e1 waits on,
    # least preferred first.
    register = [least_first]
    for e1 in range(1, 2 * k + 1):
        j = (e1 - 1) // 2
        register.append(
            sorted(least_first, key=lambda i: i != j and compatible(names[i], names[j]))
        )

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
        s, K, V, e2, e1 = key
        if old is None:
            ctx = third.get((e2, e1))
            if K & (V ^ neg[s]) or (ctx is not None and outputs[s][ctx[0]] != ctx[1]):
                return False
        trail.append((key, old))
        best[key] = d
        if d < depth - 1:
            expanding[s].append(key)
            queue.append(key)
        return True

    def succ(key: _Key, i: int, t: int) -> _Key:
        s, K, V, _, e1 = key
        bit = 1 << i
        return (t, (K & keep[i]) | bit, (V & keep[i]) | (neg[s] & bit), e1, codes[s][i])

    def propagate() -> bool:
        while queue:
            key = queue.popleft()
            s, d = key[0], best[key] + 1
            for i in register[key[4]]:
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
            inputs=names,
            outputs=outputs,
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
            for t in domains[s][i]:
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
