"""Shared test fixtures: tiny instance builders and an independent value oracle.

``oracle_value`` recomputes policy values from first principles — it multiplies
out the joint distribution over per-bandit outcome paths and transcribes each
payout formula directly — so the engine's evaluators are checked against a
route that shares none of their code.  ``reference_block_value`` and
``reference_prevailing_index`` likewise walk every path of the game by hand,
as the reference for ``pi_values``' passes over the play graph.
``enumerate_policies`` lists every deterministic controller of a small
game, and ``reference_greedy_dominance`` replays each one on every joint
outcome atom (``joint_atoms``), as the reference for
``certify_greedy_dominance``.
``reference_dp_optimal`` and ``reference_policy_count`` walk the histories
by stepping the game, as the reference for the oracle's tabulated backward
induction, and ``longhand_play_graph`` steps every product state, as the
reference for the play graph's compiled states (``decoded_play_graph``
names a play graph's states as it does).  ``normalize``, ``parent``,
``equivalent_rewards``, ``index_times``, ``parametric_stopping_value``,
``random_markov_bandit``, ``float_game`` and ``activation_rounds`` are
model transforms, lookups, a stopping solver, a seeded chain generator, a
float copy of a game and a trace reading that only the tests use.
``reference_parse_number`` reads every string literal through
``Fraction(str)``, as the reference for ``parse_number``'s direct path.
``ratio_iteration`` (and ``loop_index`` on a scheme's index form) solves
one anchor's index by a parametric ratio iteration, as the reference for
the index tables that ``indices`` reads every index off.
``unlimited_int_digits`` lifts the interpreter's int digit limit inside a
block, so a test can write a number past it with ``str``.
"""

from __future__ import annotations

import math
import re
import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from typing import Any, Callable, NamedTuple

from hypothesis import strategies as st

from haltbandit import (
    BlockValue,
    GameInstance,
    GlobalHistory,
    GreedyDominanceReport,
    GreedyRewardPolicy,
    IndexDecomposition,
    MarkovBandit,
    MarkovState,
    ModelFormatError,
    OptimalSolution,
    PayoutModel,
    Policy,
    PreconditionError,
    ProfitBandit,
    ResourceCapError,
    SolverError,
    StoppingRule,
    TablePolicy,
    Trace,
    TreeBandit,
    TreeEdge,
    TreeNode,
    enumerate_stopping_rules,
    immediate_payment,
    random_profit_bandit,
    random_tree_bandit,
    round_of,
    step,
    terminal_payout,
    to_float,
    validate,
)
from haltbandit.game import DEFAULT_HISTORY_CAP
from haltbandit.indices import _first_below, _gains, _tie_tol
from haltbandit.indices import _post_order as _tree_post_order
from haltbandit.jsonio import Number
from haltbandit.linear import solve_linear
from haltbandit.models import _finite
from haltbandit.oracle import _HALT_MASSES, _rng_of
from haltbandit.reductions import _index_form

HALF = Fraction(1, 2)
ONE = Fraction(1)
# enumerate_policies builds every policy it counts, so it refuses past this
POLICY_CAP = 10**4


@contextmanager
def unlimited_int_digits():
    """Lift the interpreter's int-to-text digit limit inside the block only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def reference_parse_number(value, *, rational: bool = False):
    """``jsonio.parse_number`` with every string read by ``Fraction(str)``,
    the int digit limit lifted for the ``[-]digits[/digits]`` texts that
    ``jsonio.exact_text`` writes."""
    if isinstance(value, bool):
        raise ModelFormatError(f"expected a number, got boolean {value!r}")
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ModelFormatError(f"non-finite number {value!r}")
        return Fraction(str(value)) if rational else value
    if isinstance(value, str):
        try:
            if re.fullmatch(r"-?\d+(/\d+)?", value):
                with unlimited_int_digits():
                    number: int | Fraction = Fraction(value)
            else:
                number = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelFormatError(f"cannot parse number literal {value!r}") from exc
    elif isinstance(value, int):
        number = value
    else:
        raise ModelFormatError(f"expected a number, got {type(value).__name__}")
    if rational:
        return number
    try:
        return float(number)
    except OverflowError as exc:
        raise ModelFormatError(f"non-finite number {value!r} in float mode") from exc


def path_bandit(rewards, halt_masses, halt_rewards=None) -> TreeBandit:
    """Single-spine bandit: alive at local time t the process is worth
    ``rewards[t]``; the activation leaving t halts with mass ``halt_masses[t]``
    (the last mass must be 1).  By default the halted copy carries the same
    reward as the live one; ``halt_rewards`` overrides that per step.

    Node ids: 0 is the root, then (halted, live) pairs down the spine —
    the depth-1 halted node is 1, the depth-1 live node is 2, and so on.
    """
    rewards = tuple(rewards)
    halt_masses = tuple(halt_masses)
    assert len(rewards) == len(halt_masses) + 1
    assert halt_masses[-1] == 1, "the spine must end in a sure halt"
    if halt_rewards is None:
        halt_rewards = rewards[1:]
    nodes: list[TreeNode] = []
    for t, mass in enumerate(halt_masses):
        edges = [TreeEdge(to=2 * t + 1, p=mass, halting=True)]
        if mass != 1:
            edges.append(TreeEdge(to=2 * t + 2, p=1 - mass, halting=False))
        nodes.append(TreeNode(depth=t, reward=rewards[t], halted=False, edges=tuple(edges)))
        nodes.append(TreeNode(depth=t + 1, reward=halt_rewards[t], halted=True, edges=()))
        if mass == 1:
            break
    return TreeBandit(nodes=tuple(nodes), root=0)


def ramp_bandit() -> TreeBandit:
    """The (0, 4, 10) bandit: halt mass 1/2 after the first activation,
    certain halt after the second.  Index 8 at the root, 6 below."""
    return path_bandit((0, 4, 10), (HALF, ONE))


def live_last_bandit() -> TreeBandit:
    """The ramp bandit with its live depth-1 node stored last, so that a
    negative anchor counted from the end would name a live node."""
    return TreeBandit(
        nodes=(
            TreeNode(0, 0, False, (TreeEdge(1, HALF, True), TreeEdge(3, HALF, False))),
            TreeNode(1, 4, True),
            TreeNode(2, 10, True),
            TreeNode(1, 4, False, (TreeEdge(2, ONE, True),)),
        )
    )


def sure_bandit(value) -> TreeBandit:
    """Halts on the very first activation, landing on ``value``."""
    return path_bandit((0, value), (ONE,))


def pair_game(model: PayoutModel = PayoutModel.CP) -> GameInstance:
    """Two-bandit workhorse: the ramp bandit against a sure halt worth 5.

    Collective-payout values of its three policies are 7 ("always 0"),
    13/2 ("0, then 1 if 0 survives"), and 5 ("always 1")."""
    return GameInstance(bandits=(ramp_bandit(), sure_bandit(5)), model=model)


def random_markov_bandit(seed: int, *, n_states: int = 3, constant_halt: Fraction | None = None) -> MarkovBandit:
    """A small valid seeded chain: integer rewards in [-5, 10], each paid
    again at the halt, halting probabilities from {1/4, 1/2, 3/4} unless
    ``constant_halt`` forces one (e.g. for the discounted-index comparison)."""
    rng = _rng_of(seed)
    states = []
    for _ in range(n_states):
        r = int(rng.integers(-5, 11))
        h = constant_halt if constant_halt is not None else _HALT_MASSES[int(rng.integers(0, 3))]
        states.append(MarkovState(reward=r, halt_prob=h, halt_reward=r))
    transitions = []
    for _ in range(n_states):
        weights = [int(rng.integers(0, 4)) for _ in range(n_states)]
        if sum(weights) == 0:
            weights[int(rng.integers(0, n_states))] = 1
        s = sum(weights)
        transitions.append(tuple(Fraction(w, s) for w in weights))
    bandit = MarkovBandit(states=tuple(states), transitions=tuple(transitions), initial=0)
    report = validate(bandit)
    assert report.passed, report.codes()
    return bandit


def scaled_markov_bandit(seed: int, k: int, *, n_states: int = 3) -> MarkovBandit:
    """``random_markov_bandit(seed)`` with every reward and halt reward
    multiplied by ``k``, in floats."""
    bandit = random_markov_bandit(seed, n_states=n_states)
    states = tuple(MarkovState(s.reward * k, s.halt_prob, s.halt_reward * k) for s in bandit.states)
    return to_float(MarkovBandit(states=states, transitions=bandit.transitions))


def float_game(game: GameInstance) -> GameInstance:
    """The same game with every number a machine float."""
    return GameInstance(bandits=tuple(to_float(b) for b in game.bandits), model=game.model)


def always(i: int) -> TablePolicy:
    return TablePolicy({}, default=i)


def activation_rounds(trace: Trace, i: int) -> tuple[int, ...]:
    """Rounds at which bandit ``i`` was activated: entry t is the round
    advancing its local time from t to t+1."""
    return tuple(r.round for r in trace.rows if r.choice == i)


def as_table(game: GameInstance, policy: Policy) -> TablePolicy:
    """Freeze a policy's reachable choices into a plain table.

    The table carries over to any game sharing the same node ids, which is
    how a policy computed on one reward labeling is replayed on another.
    """
    table: dict[GlobalHistory, int] = {}

    def visit(h: GlobalHistory, round_: int) -> None:
        if h in table:
            return
        c = policy.choose(game, h, round_)
        table[h] = c
        for _, nxt in step(game, h, c):
            if nxt.halter is None:
                visit(nxt, round_ + 1)

    visit(game.initial_history(), 0)
    return TablePolicy(table)


def reachable_histories(game: GameInstance, policy: Policy) -> list[tuple[GlobalHistory, int]]:
    """Every live history the policy can reach, with its round number."""
    out: list[tuple[GlobalHistory, int]] = []
    seen: set[GlobalHistory] = set()

    def visit(h: GlobalHistory, round_: int) -> None:
        if h in seen:
            return
        seen.add(h)
        out.append((h, round_))
        for _, nxt in step(game, h, policy.choose(game, h, round_)):
            if nxt.halter is None:
                visit(nxt, round_ + 1)

    visit(game.initial_history(), 0)
    return out


def longhand_play_graph(game: GameInstance, policy: Policy) -> dict:
    """The play graph built with one ``step`` per product state, in
    breadth-first order: per (positions, round mod the policy's period, 0
    on trees), the choice, the immediate payment and, per outcome, the
    probability, the chosen bandit's landing position, the successor (None
    at a halt) and the terminal payout."""
    period = policy.period if game.backend == "markov" else 1
    start = (game.initial_history().nodes, 0)
    order, seen, graph = [start], {start}, {}
    for key in order:  # grows while it is read
        nodes, phase = key
        h = GlobalHistory(nodes)
        i = policy.choose(game, h, phase if game.backend == "markov" else round_of(game, h))
        rows = []
        for p, nxt in step(game, h, i):
            succ = None if nxt.halter is not None else (nxt.nodes, (phase + 1) % period)
            rows.append((p, nxt.nodes[i], succ, 0 if succ else terminal_payout(game, h, i, nxt)))
            if succ and succ not in seen:
                seen.add(succ)
                order.append(succ)
        graph[key] = (i, immediate_payment(game, h, i), rows)
    return graph


def decoded_play_graph(graph) -> dict:
    """A ``game._play_graph`` in ``longhand_play_graph``'s form: each state
    and each successor named by its key's decoded (positions, phase) rather
    than by number.  Checks on the way that every state's stored positions
    are its key's, and that its number is its key's."""
    named = [graph.decode(key) for key in graph.keys]
    assert [nodes for nodes, _ in named] == graph.nodes
    assert all(graph.number[key] == k for k, key in enumerate(graph.keys))
    return {
        named[k]: (i, pay, [(p, y, None if succ is None else named[succ], term) for p, y, succ, term in rows])
        for k, (i, pay, rows) in enumerate(graph.states)
    }


def make_nonincreasing(tree: TreeBandit) -> TreeBandit:
    """Clamp live-edge rewards so the process never rises while alive.

    Halted nodes are left alone: the penultimate payout never reads them.
    """
    nodes = list(tree.nodes)

    def visit(nid: int) -> None:
        cur = nodes[nid].reward
        for e in nodes[nid].edges:
            if not e.halting:
                if nodes[e.to].reward > cur:
                    nodes[e.to] = replace(nodes[e.to], reward=cur)
                visit(e.to)

    visit(tree.root)
    return TreeBandit(nodes=tuple(nodes), root=tree.root)


def normalize(bandit: TreeBandit) -> TreeBandit:
    """Shift every reward so the root reward becomes 0 (idempotent).

    Index values are built from reward differences along paths, so the
    shift changes no argmax decision; total game values shift by the sum
    of the removed root rewards.
    """
    shift = bandit.nodes[bandit.root].reward
    if shift == 0:
        return bandit
    nodes = tuple(replace(n, reward=n.reward - shift) for n in bandit.nodes)
    return TreeBandit(nodes=nodes, root=bandit.root)


def parent(bandit: TreeBandit, node_id: int) -> int:
    """The node's parent; the root has none."""
    parents = bandit.ancestors(node_id)
    assert parents, f"node {node_id} is the root"
    return parents[0]


def equivalent_rewards(dec: IndexDecomposition) -> TreeBandit:
    """Relabel each live node with its prevailing index.

    The result is the non-increasing reward process that is block-for-block
    equivalent to the original; halted nodes inherit the value of the block
    the halt interrupted (their parent's), keeping the model valid — payout
    schemes that read pre-halt rewards never look at those labels.
    """
    bandit = dec.bandit

    def label(nid: int):
        if bandit.nodes[nid].halted:
            return dec.prevailing_index[parent(bandit, nid)]
        return dec.prevailing_index[nid]

    nodes = tuple(replace(n, reward=label(nid)) for nid, n in enumerate(bandit.nodes))
    return TreeBandit(nodes=nodes, root=bandit.root)


def index_times(dec: IndexDecomposition, k: int) -> StoppingRule:
    """The k-th block boundary (k >= 1) as a rule anchored at the root;
    paths halting earlier simply never reach it."""
    assert k >= 1, "block boundaries are indexed from 1"
    stops = [b.rule.stop_set for b in dec.blocks if b.level == k - 1]
    return StoppingRule(dec.bandit.root, frozenset().union(*stops) if stops else frozenset())


# ---------------------------------------------------------------------------
# The reference index loop: a parametric ratio iteration (Dinkelbach) that
# solves one anchor at a time with no index table, by backward passes on
# trees and policy iteration over stop sets (linear solves) on chains


ITER_CAP = 10**4


class LoopResult(NamedTuple):
    """The loop's value and rule, its number of rounds, and each round's
    (charge, charge-adjusted value)."""

    value: Any
    rule: Any
    iterations: int
    trace: tuple


def _tree_pass(
    tree: TreeBandit, gains: list[Number], anchor: int, charge: Number | None, tol: Number
) -> tuple[Number | None, StoppingRule, Number, Number]:
    """One backward pass of the charge-adjusted problem below an anchor.

    Each activation of x collects gains[x] − charge·h(x); a live node stops
    when continuing there is worth at most ``tol``, and with no charge
    nothing stops (the never-stop rule).  Returns N − charge·D at the
    anchor, the rule, and its summed gain N and summed halting
    probability D.
    """
    sums: dict[int, tuple[Number, Number]] = {}
    stopped: set[int] = set()
    for nid in _tree_post_order(tree, anchor) + [anchor]:
        num: Number = gains[nid]
        den: Number = 0
        for e in tree.nodes[nid].edges:
            if e.halting:
                den += e.p
                continue
            n, d = sums.pop(e.to)
            if charge is not None and n - charge * d <= tol:
                stopped.add(e.to)
            else:
                num += e.p * n
                den += e.p * d
        sums[nid] = (num, den)
    num, den = sums[anchor]
    value = None if charge is None else num - charge * den
    return value, StoppingRule(anchor, _first_below(tree, anchor, stopped.__contains__)[1]), num, den


def _chain_continue(chain: MarkovBandit, pay: list[Number], stop_set: frozenset[int]) -> list[Number]:
    """Value of activating each state now and then following the stop set,
    every activation of x paying pay[x] and stopping paying nothing."""
    n = len(chain.states)
    live = [x for x in range(n) if x not in stop_set]
    pos = {x: i for i, x in enumerate(live)}
    rows = []
    for x in live:
        # h - 1 is minus the survival mass, so the diagonal 1 + (h - 1)·p is 1 - (1 - h)·p
        loss = chain.states[x].halt_prob - 1
        row = {pos[y]: loss * p for y, p in enumerate(chain.transitions[x]) if p and y in pos}
        row[pos[x]] = 1 + row.get(pos[x], 0)
        rows.append(row)
    entered = dict(zip(live, solve_linear(rows, [pay[x] for x in live])))
    # a live state's value is the solved one; a stop state's is one step of the same equation
    return [
        entered[x]
        if x in entered
        else pay[x] + (1 - st.halt_prob) * sum((p * entered[y] for y, p in enumerate(row) if p != 0 and y in entered), 0)
        for x, (st, row) in enumerate(zip(chain.states, chain.transitions))
    ]


def _chain_round(
    chain: MarkovBandit, gains: list[Number], anchor: int, charge: Number | None, tol: Number
) -> tuple[Number | None, frozenset[int], Number, Number]:
    """The chain counterpart of ``_tree_pass``: policy iteration over
    stationary stop sets, one solve per improvement step, then one solve
    each for the settled rule's N and D.  The rule is its stop set."""
    halts = [st.halt_prob for st in chain.states]
    stop_set: frozenset[int] = frozenset()
    value = None
    if charge is not None:
        pay = [c - charge * h for c, h in zip(gains, halts)]
        for _ in range(ITER_CAP):
            cont = _chain_continue(chain, pay, stop_set)
            improved = frozenset(x for x, v in enumerate(cont) if v <= tol)
            if improved == stop_set:
                break
            stop_set = improved
        else:
            raise SolverError("stop-set iteration did not settle")
        value = cont[anchor]
    num = _chain_continue(chain, gains, stop_set)[anchor]
    den = _chain_continue(chain, halts, stop_set)[anchor]
    return value, stop_set, num, den


def ratio_iteration(
    bandit: TreeBandit | MarkovBandit,
    anchor: int | None,
    gains: list[Number],
) -> LoopResult:
    """Parametric ratio iteration for max over rules of E Σ c / E Σ h.

    Starting from the never-stop rule's ratio, each round solves the
    charge-adjusted problem and resets the charge to the maximizing rule's
    exact ratio N / D.  The charge increases strictly while the adjusted
    value stays positive and can only take finitely many rule ratios, so
    termination needs at most one round per distinct rule.  A float charge
    or adjusted value beyond float range raises ``PreconditionError``.
    """
    tol = _tie_tol(bandit)
    if isinstance(bandit, TreeBandit):
        anchor = bandit.root if anchor is None else anchor
        if not 0 <= anchor < len(bandit.nodes):
            raise PreconditionError(f"anchor {anchor} is not a node")
        if bandit.nodes[anchor].halted:
            raise PreconditionError(f"anchor {anchor} is halted; it has no index")
        solve_round: Callable[..., tuple] = _tree_pass
    else:
        anchor = bandit.initial if anchor is None else anchor
        if not 0 <= anchor < len(bandit.states):
            raise PreconditionError(f"anchor state {anchor} out of range")
        solve_round = _chain_round
    _, _, num, den = solve_round(bandit, gains, anchor, None, tol)
    trace = []
    for it in range(1, ITER_CAP + 1):
        charge = BlockValue(num, den).ratio
        value, rule, num, den = solve_round(bandit, gains, anchor, charge, tol)
        if not (_finite(charge) and _finite(value)):
            raise PreconditionError(f"the ratio iteration left float range (charge {charge!r}, value {value!r})")
        trace.append((charge, value))
        if abs(value) <= tol:
            return LoopResult(value=charge, rule=rule, iterations=it, trace=tuple(trace))
    raise SolverError(f"ratio iteration did not settle within {ITER_CAP} rounds")


def loop_index(model: PayoutModel, bandit, anchor: int | None = None) -> LoopResult:
    """The reference loop on a scheme's index form (``reductions._index_form``)."""
    dyn, gains = _index_form(model, bandit)
    return ratio_iteration(dyn, anchor, gains)


def parametric_stopping_value(bandit: TreeBandit, anchor: int, charge):
    """Value of the charge-adjusted stopping problem below an anchor.

    Each path collects (reward at halt-or-stop − anchor reward) and pays
    ``charge`` whenever the halt arrives before the stop.  Returns the value
    together with the earliest optimal rule: stop at the first node where
    continuing is not worth more than stopping (not more than ``ZERO_TOL``
    more in float arithmetic).
    """
    return _tree_pass(bandit, _gains(bandit), anchor, charge, _tie_tol(bandit))[:2]


# ---------------------------------------------------------------------------
# The independent oracle


def _dyn(bandit) -> TreeBandit:
    return bandit.rewards if isinstance(bandit, ProfitBandit) else bandit


def tree_paths(tree: TreeBandit) -> list[tuple[tuple[int, ...], Fraction]]:
    """Root-to-halt paths as (node ids, probability)."""
    out: list[tuple[tuple[int, ...], Fraction]] = []

    def walk(nid: int, trail: tuple[int, ...], prob) -> None:
        trail = trail + (nid,)
        node = tree.nodes[nid]
        if node.halted:
            out.append((trail, prob))
            return
        for e in node.edges:
            walk(e.to, trail, prob * e.p)

    walk(tree.root, (), Fraction(1))
    return out


def _replay_payout(game: GameInstance, policy: Policy, paths) -> Fraction:
    """Deterministic payout of one joint outcome, each scheme written out
    longhand from its definition."""
    model = game.model
    trees = [_dyn(b) for b in game.bandits]
    t = [0] * game.n
    collected = Fraction(0)
    halter = None
    round_ = 0
    while halter is None:
        nodes = tuple(paths[i][t[i]] for i in range(game.n))
        c = policy.choose(game, GlobalHistory(nodes), round_)
        if model is PayoutModel.CCP:
            collected += trees[c].nodes[paths[c][t[c]]].reward
        t[c] += 1
        if trees[c].nodes[paths[c][t[c]]].halted:
            halter = c
        round_ += 1

    def live(i: int):
        return trees[i].nodes[paths[i][t[i]]].reward

    final = trees[halter].nodes[paths[halter][t[halter]]].reward
    if model is PayoutModel.CP:
        return final + sum(live(j) for j in range(game.n) if j != halter)
    if model is PayoutModel.SP:
        return final
    if model is PayoutModel.PSP:
        return trees[halter].nodes[paths[halter][t[halter] - 1]].reward
    if model is PayoutModel.NH:
        # the halting cost is quoted positive (smaller is better)
        return sum(live(j) for j in range(game.n) if j != halter)
    if model is PayoutModel.TP:
        spent = sum(
            game.bandits[j].cost(paths[j][t[j]]) for j in range(game.n) if j != halter
        )
        return final - spent
    if model is PayoutModel.CCP:
        return collected
    raise AssertionError(model)


def joint_atoms(game: GameInstance) -> list[tuple[list[tuple[int, ...]], Fraction]]:
    """Every joint outcome atom of a tree game: one ``tree_paths`` path per
    bandit, and the product of their probabilities."""
    out = []
    for combo in product(*(tree_paths(_dyn(b)) for b in game.bandits)):
        prob = Fraction(1)
        for _, p in combo:
            prob *= p
        out.append(([ids for ids, _ in combo], prob))
    return out


def oracle_value(game: GameInstance, policy: Policy) -> Fraction:
    """Expected payout by brute enumeration of the joint outcome space."""
    total = Fraction(0)
    for paths, prob in joint_atoms(game):
        total += prob * _replay_payout(game, policy, paths)
    return total


# ---------------------------------------------------------------------------
# Policy enumeration and the reference greedy certifier


def enumerate_policies(game: GameInstance, *, cap: int = POLICY_CAP) -> list[TablePolicy]:
    """Every deterministic policy, one choice per history it can reach.

    Distinct assignments on unreachable histories do not multiply the count:
    choices are assigned only where the policy being built can actually
    arrive.  Reachable histories of a tree game never merge, so the
    assignment order (smallest undecided history first) is canonical.
    """
    if game.backend != "tree":
        raise PreconditionError("policy enumeration needs a finite tree backend")
    out: list[TablePolicy] = []

    def rec(assign: dict[GlobalHistory, int], frontier: frozenset[GlobalHistory]) -> None:
        if not frontier:
            if len(out) >= cap:
                raise ResourceCapError(f"more than {cap} deterministic policies")
            out.append(TablePolicy(dict(assign)))
            return
        h = min(frontier, key=lambda x: (round_of(game, x), x.nodes))
        rest = frontier - {h}
        for i in range(game.n):
            opened = [nxt for _, nxt in step(game, h, i) if nxt.halter is None]
            assign[h] = i
            rec(assign, rest | frozenset(opened))
            del assign[h]

    rec({}, frozenset((game.initial_history(),)))
    return out


def reference_greedy_dominance(
    game: GameInstance, *, tol: float = 0.0, policy_cap: int = POLICY_CAP
) -> GreedyDominanceReport:
    """Greedy dominance by replaying every enumerated policy on every atom."""
    all_atoms = [paths for paths, _ in joint_atoms(game)]
    greedy_pay = [_replay_payout(game, GreedyRewardPolicy(), paths) for paths in all_atoms]
    policies = enumerate_policies(game, cap=policy_cap)
    min_slack = None
    ok = True
    for pol in policies:
        for k, paths in enumerate(all_atoms):
            slack = greedy_pay[k] - _replay_payout(game, pol, paths)
            if min_slack is None or slack < min_slack:
                min_slack = slack
            if slack < -tol:
                ok = False
    return GreedyDominanceReport(
        n_policies=len(policies),
        n_atoms=len(all_atoms),
        min_slack=min_slack,
        tolerance=tol,
        passed=ok,
    )


# ---------------------------------------------------------------------------
# The reference DP optimum: backward induction that steps the game


def _post_order(game: GameInstance, cap: int):
    """Every live history some policy reaches, each after all its live
    successors, with the outcomes of each activation there.

    A history is pushed bare, then again with its moves above which its
    live successors are pushed; it is yielded when it pops the second
    time, so only the moves along the current path are held.
    """
    seen: set[GlobalHistory] = set()
    stack: list = [(game.initial_history(), None)]
    while stack:
        h, moves = stack.pop()
        if moves is not None:
            yield h, moves
        elif h not in seen:
            seen.add(h)
            if len(seen) > cap:
                raise ResourceCapError(f"more than {cap} reachable histories")
            moves = [step(game, h, i) for i in range(game.n)]
            stack.append((h, moves))
            stack.extend(
                (nxt, None)
                for outcomes in reversed(moves)
                for _, nxt in reversed(outcomes)
                if nxt.halter is None
            )


def _action_value(game: GameInstance, h: GlobalHistory, i: int, outcomes, values):
    """Expected payout of activating i at h, given the values of its live successors."""
    v = immediate_payment(game, h, i)
    for p, nxt in outcomes:
        v = v + p * (terminal_payout(game, h, i, nxt) if nxt.halter is not None else values[nxt])
    return v


def reference_dp_optimal(game: GameInstance, *, history_cap: int = DEFAULT_HISTORY_CAP) -> OptimalSolution:
    """``dp_optimal`` by stepping the game and settling each halt with
    ``terminal_payout``; ties to the lowest id, the smallest cost under the
    non-halting scheme."""
    minimize = game.model is PayoutModel.NH
    values: dict[GlobalHistory, object] = {}
    actions: dict[GlobalHistory, int] = {}
    action_values: dict[GlobalHistory, tuple] = {}
    for h, moves in _post_order(game, history_cap):
        q = tuple(_action_value(game, h, i, outcomes, values) for i, outcomes in enumerate(moves))
        best = None
        best_i = 0
        for i, v in enumerate(q):
            if best is None or (v < best if minimize else v > best):
                best, best_i = v, i
        values[h] = best
        actions[h] = best_i
        action_values[h] = q
    return OptimalSolution(
        value=values[game.initial_history()], values=values, actions=actions, action_values=action_values
    )


def reference_policy_count(game: GameInstance) -> int:
    """The number of deterministic policies, counted over the stepped histories."""
    count: dict[GlobalHistory, int] = {}
    for h, moves in _post_order(game, DEFAULT_HISTORY_CAP):
        count[h] = sum(
            math.prod(count[nxt] for _, nxt in outcomes if nxt.halter is None) for outcomes in moves
        )
    return count[game.initial_history()]


# ---------------------------------------------------------------------------
# Independent policy block value oracle: per-path walks of the game


def reference_block_value(game: GameInstance, policy: Policy, i: int, anchor: GlobalHistory, rule):
    """Policy block value by walking every path below the anchor history,
    stepping the game by hand; ``None`` where the policy never activates
    bandit ``i`` again (the value is undefined)."""
    tree = game.dynamics(i)
    base = tree.nodes[anchor.nodes[i]].reward
    num = 0
    den = 0

    def walk(h: GlobalHistory, weight, cap) -> None:
        nonlocal num, den
        j = policy.choose(game, h, round_of(game, h))
        for p, nxt in step(game, h, j):
            w = weight * p
            if nxt.halter is not None:
                if j == i and cap is None:
                    # the bandit halted inside the block: count it and read
                    # its reward at the halted node
                    num += w * (tree.nodes[nxt.nodes[i]].reward - base)
                    den += w
                else:
                    # game over with the bandit live (someone else halted) or
                    # past the block's end: reward at the cap, no halt counted
                    end = cap if cap is not None else tree.nodes[nxt.nodes[i]].reward
                    num += w * (end - base)
            else:
                new_cap = cap
                if j == i and cap is None and nxt.nodes[i] in rule.stop_set:
                    new_cap = tree.nodes[nxt.nodes[i]].reward
                walk(nxt, w, new_cap)

    walk(anchor, 1, None)
    return None if den == 0 else BlockValue(numerator=num, denominator=den)


def reference_prevailing_index(game: GameInstance, policy: Policy, i: int, dec: IndexDecomposition):
    """Policy prevailing index by walking the game from the start, carrying
    the realized anchor, and re-walking each (anchor, block) continuation."""
    out = {}
    cache = {}

    def nu_of(anchor: GlobalHistory, bi: int):
        if (anchor, bi) not in cache:
            value = reference_block_value(game, policy, i, anchor, dec.blocks[bi].rule)
            cache[anchor, bi] = None if value is None else value.ratio
        return cache[anchor, bi]

    def visit(h: GlobalHistory, anchor: GlobalHistory) -> None:
        bi = dec.block_of[h.nodes[i]]
        val = nu_of(anchor, bi)
        if val is not None:
            out[h] = val
        j = policy.choose(game, h, round_of(game, h))
        for _, nxt in step(game, h, j):
            if nxt.halter is not None:
                continue
            if j == i and dec.block_of[nxt.nodes[i]] != bi:
                visit(nxt, nxt)  # crossed into a new block: re-anchor
            else:
                visit(nxt, anchor)

    start = game.initial_history()
    visit(start, start)
    return out


# ---------------------------------------------------------------------------
# Independent index oracles


def direct_index(model: PayoutModel, bandit, anchor: int | None = None):
    """Scheme index straight from its defining ratio, by rule enumeration.

    This is the slow cross-check for ``model_index``: for each stopping
    rule the scheme-specific numerator is accumulated path by path.  For
    SP, TP and CCP the best (largest) ratio is returned and must equal the
    relabeled index.  For NH the returned value is the smallest achievable
    cost rate — the cost-minimizing convention — and equals minus the
    relabeled index.
    """
    tree = _dyn(bandit)
    if anchor is None:
        anchor = tree.root
    costs = bandit.costs if isinstance(bandit, ProfitBandit) else None
    if model is PayoutModel.TP and costs is None:
        raise PreconditionError("the terminal-profit scheme needs a bandit with costs")

    def ratio(rule) -> Fraction:
        num = Fraction(0)
        den = Fraction(0)
        base = tree.nodes[anchor].reward
        prefix_base = tree.prefix_reward(anchor)

        def walk(nid: int, weight) -> None:
            nonlocal num, den
            for e in tree.nodes[nid].edges:
                w = weight * e.p
                child = tree.nodes[e.to]
                if e.halting:
                    den += w
                    if model in (PayoutModel.SP, PayoutModel.TP):
                        num += w * child.reward
                    elif model is PayoutModel.CCP:
                        # total paid on this branch: every activation from the
                        # anchor (inclusive) down to the halt
                        num += w * (tree.prefix_reward(e.to) - prefix_base)
                    # NH: the halter pays nothing
                elif e.to in rule.stop_set:
                    if model is PayoutModel.NH:
                        num += w * child.reward
                    elif model is PayoutModel.TP:
                        num -= w * costs[e.to]
                    elif model is PayoutModel.CCP:
                        num += w * (tree.prefix_reward(e.to) - prefix_base)
                else:
                    walk(e.to, w)

        if model is PayoutModel.NH:
            num -= base  # the anchor reward the bandit would have paid
        if model is PayoutModel.TP:
            num += costs[anchor]
        walk(anchor, Fraction(1))
        return num / den

    values = [ratio(rule) for rule in enumerate_stopping_rules(tree, anchor)]
    if model is PayoutModel.NH:
        return min(values)
    if model in (PayoutModel.SP, PayoutModel.TP, PayoutModel.CCP):
        return max(values)
    raise PreconditionError(f"no direct form for {model.value}")


def _solve_exact(a: list[list[Fraction]], columns: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan elimination over Fractions for several right-hand sides
    at once (the systems here are small and nonsingular: every state halts
    with positive probability)."""
    n = len(a)
    m = [list(row) + [col[i] for col in columns] for i, row in enumerate(a)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [v - f * w for v, w in zip(m[r], m[c])]
    return [[row[n + k] for row in m] for k in range(len(columns))]


CHAIN_SCHEMES = (PayoutModel.CP, PayoutModel.SP, PayoutModel.NH, PayoutModel.CCP)


def chain_stop_set_ratios(chain: MarkovBandit, anchor: int, stop_set) -> dict[PayoutModel, Fraction]:
    """Exact ratio of one stationary stop set under each chain scheme.

    The anchor is activated first; every later arrival at a member of
    ``stop_set`` stops.  Each scheme is written longhand as what an
    activation of x pays, what a halt from x pays and what stopping on
    arrival at y pays, relative to the anchor (NH's bill negated, so that
    larger is better); the denominator pays 1 for each halt.
    """
    states = chain.states
    base = states[anchor].reward
    forms = {
        PayoutModel.CP: (lambda x: 0, lambda x: states[x].halt_reward - base, lambda y: states[y].reward - base),
        PayoutModel.SP: (lambda x: 0, lambda x: states[x].halt_reward, lambda y: 0),
        PayoutModel.NH: (lambda x: 0, lambda x: base, lambda y: base - states[y].reward),
        PayoutModel.CCP: (lambda x: states[x].reward, lambda x: 0, lambda y: 0),
        None: (lambda x: 0, lambda x: 1, lambda y: 0),
    }
    h = [Fraction(s.halt_prob) for s in states]
    rows = chain.transitions
    live = [x for x in range(len(states)) if x not in stop_set]

    # u(x) = run(x) + h(x) halt(x) + (1 - h(x)) sum_y P(x, y) (stop(y) if y stops else u(y))
    def fixed(x: int, run, halt, stop) -> Fraction:
        return run(x) + h[x] * halt(x) + (1 - h[x]) * sum(rows[x][y] * stop(y) for y in stop_set)

    a = [[Fraction(x == y) - (1 - h[x]) * rows[x][y] for y in live] for x in live]
    solved = _solve_exact(a, [[fixed(x, *form) for x in live] for form in forms.values()])
    expected = {
        key: fixed(anchor, *form) + (1 - h[anchor]) * sum(rows[anchor][y] * v for y, v in zip(live, u))
        for (key, form), u in zip(forms.items(), solved)
    }
    return {model: expected[model] / expected[None] for model in CHAIN_SCHEMES}


def chain_indices_by_stop_sets(chain: MarkovBandit, anchor: int) -> dict[PayoutModel, Fraction]:
    """Largest exact ratio over all 2^n stationary stop sets, per scheme."""
    n = len(chain.states)
    tables = [
        chain_stop_set_ratios(chain, anchor, frozenset(s))
        for k in range(n + 1)
        for s in combinations(range(n), k)
    ]
    return {model: max(t[model] for t in tables) for model in CHAIN_SCHEMES}


# ---------------------------------------------------------------------------
# Seeded index corpus: every live anchor of small trees, profit trees and
# chains, under every scheme that has an index


def index_corpus():
    """(scheme, bandit, anchor) triples of a fixed seeded exact corpus."""
    tree_schemes = (PayoutModel.CP, PayoutModel.SP, PayoutModel.NH, PayoutModel.CCP)
    for seed in range(10):
        cases = [(m, random_tree_bandit(seed, max_depth=d)) for d in (3, 4, 5) for m in tree_schemes]
        cases.append((PayoutModel.TP, random_profit_bandit(seed, max_depth=4)))
        cases += [(m, random_markov_bandit(seed, n_states=n)) for n in (3, 4, 5) for m in tree_schemes]
        for model, bandit in cases:
            dyn = _dyn(bandit)
            if isinstance(dyn, MarkovBandit):
                anchors = range(len(dyn.states))
            else:
                anchors = [nid for nid, node in enumerate(dyn.nodes) if not node.halted]
            for anchor in anchors:
                yield model, bandit, anchor


# ---------------------------------------------------------------------------
# Hypothesis strategies: small valid bandits whose rewards come from a narrow
# range, so that ties between and within bandits are common


@st.composite
def small_trees(draw, max_depth: int, monotone: bool = False) -> TreeBandit:
    """A small valid tree; with ``monotone`` its live rewards never increase."""
    nodes: list[TreeNode | None] = []

    def build(depth: int, ceiling: int) -> int:
        nid = len(nodes)
        nodes.append(None)
        reward = draw(st.integers(-1, ceiling))
        n_halt = draw(st.integers(1, 2))
        n_live = 0 if depth + 1 >= max_depth else draw(st.integers(0, 2))
        weights = draw(st.lists(st.integers(1, 3), min_size=n_halt + n_live, max_size=n_halt + n_live))
        edges = []
        for k, w in enumerate(weights):
            p = Fraction(w, sum(weights))
            if k < n_halt:
                nodes.append(TreeNode(depth + 1, draw(st.integers(-1, 3)), True))
                edges.append(TreeEdge(len(nodes) - 1, p, True))
            else:
                edges.append(TreeEdge(build(depth + 1, reward if monotone else 3), p, False))
        nodes[nid] = TreeNode(depth, reward, False, tuple(edges))
        return nid

    build(0, 3)
    tree = TreeBandit(nodes=tuple(nodes))
    assert validate(tree).passed
    return tree


def _fractions(low: int, high: int) -> st.SearchStrategy[Fraction]:
    return st.builds(Fraction, st.integers(low, high), st.sampled_from([1, 3, 7, 100]))


@st.composite
def rational_trees(draw, max_depth: int = 8, max_nodes: int = 40) -> TreeBandit:
    """A valid tree deeper and wider than ``small_trees``: up to three live
    children per node (four edges at most, as ``validate`` allows), each
    node's edge probabilities over one of 3, 7 and 100, and rewards that may
    be negative fractions over 1, 3, 7 or 100."""
    rewards = _fractions(-30, 30)
    nodes: list[TreeNode | None] = [None]
    stack = [(0, 0, draw(rewards))]
    while stack:
        nid, depth, reward = stack.pop()
        den = draw(st.sampled_from([3, 7, 100]))
        n_halt = draw(st.integers(1, 2))
        # every node still to be built takes at least one halted child
        room = (max_nodes - len(nodes) - len(stack) - n_halt) // 2
        n_live = 0 if depth + 1 >= max_depth else draw(st.integers(0, max(0, min(min(4, den) - n_halt, room))))
        cuts = sorted(draw(st.lists(st.integers(1, den - 1), min_size=n_halt + n_live - 1,
                                    max_size=n_halt + n_live - 1, unique=True)))
        edges = []
        for k, (lo, hi) in enumerate(zip([0] + cuts, cuts + [den])):
            edges.append(TreeEdge(len(nodes), Fraction(hi - lo, den), k < n_halt))
            if k < n_halt:
                nodes.append(TreeNode(depth + 1, draw(rewards), True))
            else:
                nodes.append(None)
                stack.append((len(nodes) - 1, depth + 1, draw(rewards)))
        nodes[nid] = TreeNode(depth, reward, False, tuple(edges))
    tree = TreeBandit(nodes=tuple(nodes))
    assert validate(tree).passed
    return tree


@st.composite
def small_chains(draw, max_states: int) -> MarkovBandit:
    """A small valid chain with halting probabilities from {1/4, 1/2, 3/4, 1}."""
    n = draw(st.integers(1, max_states))
    states = tuple(
        MarkovState(draw(st.integers(-1, 3)), Fraction(draw(st.integers(1, 4)), 4), draw(st.integers(-1, 3)))
        for _ in range(n)
    )
    rows = []
    for _ in range(n):
        weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
        rows.append(tuple(Fraction(w, sum(weights)) for w in weights))
    chain = MarkovBandit(states=states, transitions=tuple(rows), initial=0)
    assert validate(chain).passed
    return chain
