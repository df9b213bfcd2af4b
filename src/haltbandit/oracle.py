"""Brute-force ground truth: global optima, joint outcomes, certification.

Everything here is deliberately slow and simple.  ``dp_optimal`` computes
the best achievable value by backward induction over every reachable
history, independent of any index machinery, so index-based policies have
something honest to be measured against.  ``atoms`` expands the full joint
sample space so pathwise (not just in-expectation) claims can be checked
outcome by outcome.

The two certifiers package the headline checks: the index policy attains
the optimum, and the greedy policy is pathwise dominant under the
penultimate scheme once rewards never increase before the halt.

The random generators at the bottom produce small valid instances for
property sweeps; they draw from a counter-based generator so a seed pins
the instance exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import PreconditionError, ResourceCapError
from .game import (
    DEFAULT_HISTORY_CAP,
    GameInstance,
    GlobalHistory,
    GreedyRewardPolicy,
    IndexPolicy,
    Policy,
    TablePolicy,
    _play_graph,
    _tree_value,
    current_reward,
    immediate_payment,
    round_of,
    step,
    terminal_payout,
)
from .jsonio import Number
from .models import (
    MarkovBandit,
    MarkovState,
    ProfitBandit,
    TreeBandit,
    TreeEdge,
    TreeNode,
    validate,
)
from .reductions import PayoutModel

DEFAULT_POLICY_CAP = 10**4
# float tolerance of index certification; greedy dominance allows no slack
_INDEX_TOL = 1e-10
_GREEDY_TOL = 0.0


@dataclass(frozen=True)
class OptimalSolution:
    value: Number
    policy: TablePolicy
    values: Mapping[GlobalHistory, Number]
    actions: Mapping[GlobalHistory, int]


def _post_order(game: GameInstance, cap: int) -> Iterator[tuple[GlobalHistory, list]]:
    """Every live history some policy reaches, each after all its live
    successors, with the outcomes of each activation there.

    A history is pushed bare, then again with its moves above which its
    live successors are pushed; it is yielded when it pops the second
    time, so only the moves along the current path are held.
    """
    seen: set[GlobalHistory] = set()
    stack: list[tuple[GlobalHistory, list | None]] = [(game.initial_history(), None)]
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


def _action_value(game: GameInstance, h: GlobalHistory, i: int, outcomes: Sequence, values: Mapping) -> Number:
    """Expected payout of activating i at h, given the values of its live successors."""
    v = immediate_payment(game, h, i)
    for p, nxt in outcomes:
        v = v + p * (terminal_payout(game, h, i, nxt) if nxt.halter is not None else values[nxt])
    return v


def dp_optimal(game: GameInstance, *, history_cap: int = DEFAULT_HISTORY_CAP) -> OptimalSolution:
    """Backward induction over every reachable history; ties to the lowest id.

    The best action has the largest payout, or under the non-halting scheme
    the smallest cost.
    """
    if game.backend != "tree":
        raise PreconditionError("the optimality oracle needs a finite tree backend")
    minimize = game.model is PayoutModel.NH
    values: dict[GlobalHistory, Number] = {}
    actions: dict[GlobalHistory, int] = {}
    for h, moves in _post_order(game, history_cap):
        best: Number | None = None
        best_i = 0
        for i, outcomes in enumerate(moves):
            v = _action_value(game, h, i, outcomes, values)
            if best is None or (v < best if minimize else v > best):
                best, best_i = v, i
        values[h] = best  # type: ignore[assignment]
        actions[h] = best_i
    return OptimalSolution(
        value=values[game.initial_history()], policy=TablePolicy(actions), values=values, actions=actions
    )


def _policy_count(game: GameInstance, cap: int) -> int:
    """How many deterministic policies a tree game has, one choice per
    history the policy reaches.

    The policies that choose i at h pair off independent sub-policies, one
    per live successor, as no two histories one policy reaches ever merge:
    count(h) = Σᵢ Π count(h′), an empty product being 1.  Counts only grow
    towards the start, so the first one past ``cap`` settles the answer.
    """
    count: dict[GlobalHistory, int] = {}
    for h, moves in _post_order(game, DEFAULT_HISTORY_CAP):
        count[h] = sum(
            math.prod(count[nxt] for _, nxt in outcomes if nxt.halter is None)
            for outcomes in moves
        )
        if count[h] > cap:
            raise ResourceCapError(f"more than {cap} deterministic policies")
    return count[game.initial_history()]


# ---------------------------------------------------------------------------
# Joint outcome atoms


@dataclass(frozen=True)
class Atom:
    """One complete joint outcome: a full root-to-halt path per bandit."""

    paths: tuple[tuple[int, ...], ...]
    probability: Number


def _bandit_paths(tree: TreeBandit) -> list[tuple[tuple[int, ...], Number]]:
    out: list[tuple[tuple[int, ...], Number]] = []
    stack: list[tuple[tuple[int, ...], Number]] = [((tree.root,), 1)]
    while stack:
        path, p = stack.pop()
        node = tree.nodes[path[-1]]
        if node.halted:
            out.append((path, p))
            continue
        stack.extend((path + (e.to,), p * e.p) for e in reversed(node.edges))
    return out


def atoms(game: GameInstance, *, cap: int = DEFAULT_HISTORY_CAP) -> list[Atom]:
    """The full product sample space of a tree game."""
    if game.backend != "tree":
        raise PreconditionError("atom enumeration needs a tree backend")
    per = []
    count = 1
    for i in range(game.n):
        dyn = game.dynamics(i)
        assert isinstance(dyn, TreeBandit)
        paths = _bandit_paths(dyn)
        count *= len(paths)
        if count > cap:
            raise ResourceCapError(f"more than {cap} joint outcome atoms")
        per.append(paths)
    return [
        Atom(paths=tuple(path for path, _ in combo), probability=math.prod(p for _, p in combo))
        for combo in product(*per)
    ]


@dataclass(frozen=True)
class AtomRun:
    payout: Number
    halter: int
    rounds: int
    final: GlobalHistory


def run_on_atom(game: GameInstance, policy: Policy, atom: Atom) -> AtomRun:
    """Play the policy on one atom: every draw is dictated by the atom's paths."""
    positions = [0] * game.n  # index into each bandit's path
    h = game.initial_history()
    total: Number = 0
    for round_ in range(sum(len(p) for p in atom.paths)):
        i = policy.choose(game, h, round_of(game, h))
        total += immediate_payment(game, h, i)
        positions[i] += 1
        nid = atom.paths[i][positions[i]]
        nxt_nodes = h.nodes[:i] + (nid,) + h.nodes[i + 1 :]
        dyn = game.dynamics(i)
        assert isinstance(dyn, TreeBandit)
        if dyn.nodes[nid].halted:
            post = GlobalHistory(nxt_nodes, halter=i)
            total += terminal_payout(game, h, i, post)
            return AtomRun(payout=total, halter=i, rounds=round_ + 1, final=post)
        h = GlobalHistory(nxt_nodes)
    raise PreconditionError("atom paths ran out before any bandit halted")


# ---------------------------------------------------------------------------
# Certification


@dataclass(frozen=True)
class IndexOptimalityReport:
    index_value: Number
    optimal_value: Number
    gap: Number
    histories_compared: int
    action_disagreements: int
    tolerance: float
    passed: bool

    def to_obj(self) -> dict:
        return {
            "index_value": self.index_value,
            "optimal_value": self.optimal_value,
            "gap": self.gap,
            "histories_compared": self.histories_compared,
            "action_disagreements": self.action_disagreements,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def certify_index_optimality(
    game: GameInstance,
    *,
    history_cap: int = DEFAULT_HISTORY_CAP,
) -> IndexOptimalityReport:
    """Check that always playing the largest index attains the optimum.

    Compares the index policy's exact value against the brute-force
    optimum, and on every history the index policy reaches, checks that its
    choice agrees with the optimal action whenever both the best index and
    the best action are unique.  Exact inputs must match exactly; floats
    within ``_INDEX_TOL``.  ``gap`` is the optimum minus the index value:
    at least 0, or at most 0 under the non-halting scheme, whose optimum is
    the smallest cost.
    """
    if game.model is PayoutModel.PSP:
        raise PreconditionError("the penultimate scheme has no index policy to certify")
    sol = dp_optimal(game, history_cap=history_cap)
    policy = IndexPolicy()
    graph = _play_graph(game, policy, history_cap)
    idx_value = _tree_value(graph)
    gap = sol.value - idx_value
    exact = not isinstance(gap, float)
    # the best action maximizes q; non-halting values are costs, so flip them
    sign = -1 if game.model is PayoutModel.NH else 1
    compared = 0
    disagreements = 0
    for nodes, _ in graph:
        h = GlobalHistory(nodes)
        q = [sign * _action_value(game, h, i, step(game, h, i), sol.values) for i in range(game.n)]
        indices = policy.indices(game, h)
        if _unique_argmax(q, exact) and _unique_argmax(indices, exact):
            compared += 1
            if q.index(max(q)) != indices.index(max(indices)):
                disagreements += 1
    ok = (gap == 0 if exact else abs(gap) <= _INDEX_TOL) and disagreements == 0
    return IndexOptimalityReport(
        index_value=idx_value,
        optimal_value=sol.value,
        gap=gap,
        histories_compared=compared,
        action_disagreements=disagreements,
        tolerance=_INDEX_TOL,
        passed=ok,
    )


def _unique_argmax(values: Sequence[Number], exact: bool) -> bool:
    top = max(values)
    if exact:
        return sum(1 for v in values if v == top) == 1
    return sum(1 for v in values if abs(v - top) <= _INDEX_TOL) == 1


@dataclass(frozen=True)
class GreedyDominanceReport:
    n_policies: int
    n_atoms: int
    min_slack: Number
    tolerance: float
    passed: bool

    def to_obj(self) -> dict:
        return {
            "n_policies": self.n_policies,
            "n_atoms": self.n_atoms,
            "min_slack": self.min_slack,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def certify_greedy_dominance(
    game: GameInstance,
    *,
    policy_cap: int = DEFAULT_POLICY_CAP,
    atom_cap: int = DEFAULT_HISTORY_CAP,
) -> GreedyDominanceReport:
    """Check the greedy policy's pathwise dominance under the penultimate scheme.

    Requires every bandit's rewards to never increase along any live path;
    then on every joint outcome atom greedy's realized payout must be at
    least that of every deterministic policy — dominance outcome by
    outcome, not merely on average.  On one atom, whichever bandit i a
    policy drives to the halt, the penultimate scheme pays r(pathᵢ[−2]),
    i's reward just before its last activation; ``always:i`` attains
    exactly that.  So the best any policy earns on the atom is
    maxᵢ r(pathᵢ[−2]), and ``min_slack`` is the least, over atoms, of
    greedy's payout minus that bound.  ``n_policies`` counts the policies
    this covers without building them.
    """
    if game.model is not PayoutModel.PSP:
        raise PreconditionError("greedy dominance is a penultimate-scheme statement")
    for i in range(game.n):
        dyn = game.dynamics(i)
        assert isinstance(dyn, TreeBandit)
        for nid, node in enumerate(dyn.nodes):
            for e in node.edges:
                child = dyn.nodes[e.to]
                if not child.halted and child.reward > node.reward:
                    raise PreconditionError(
                        f"bandit {i} rewards increase on edge {nid}->{e.to}; "
                        "greedy dominance needs non-increasing rewards"
                    )
    all_atoms = atoms(game, cap=atom_cap)
    n_policies = _policy_count(game, policy_cap)
    greedy = GreedyRewardPolicy()
    min_slack = min(
        run_on_atom(game, greedy, a).payout
        - max(current_reward(game, i, path[-2]) for i, path in enumerate(a.paths))
        for a in all_atoms
    )
    return GreedyDominanceReport(
        n_policies=n_policies,
        n_atoms=len(all_atoms),
        min_slack=min_slack,
        tolerance=_GREEDY_TOL,
        passed=min_slack >= -_GREEDY_TOL,
    )


# ---------------------------------------------------------------------------
# Random corpus


_HALT_MASSES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


def _rng_of(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.Generator(np.random.Philox(key=seed_or_rng))


def random_tree_bandit(
    seed_or_rng: int | np.random.Generator,
    *,
    max_depth: int = 3,
    max_branching: int = 2,
    rational: bool = True,
) -> TreeBandit:
    """A small valid bandit: integer rewards in [-5, 10], halting masses from
    {1/4, 1/2, 3/4, 1}, every path halted by ``max_depth``."""
    rng = _rng_of(seed_or_rng)
    nodes: list[TreeNode | None] = []

    def reward() -> int:
        return int(rng.integers(-5, 11))

    def split(total: Fraction, k: int) -> list[Fraction]:
        weights = [int(rng.integers(1, 5)) for _ in range(k)]
        s = sum(weights)
        return [total * Fraction(w, s) for w in weights]

    def build(depth: int) -> int:
        nid = len(nodes)
        nodes.append(None)
        mass = Fraction(1) if depth + 1 >= max_depth else _HALT_MASSES[int(rng.integers(0, 4))]
        edges: list[TreeEdge] = []
        n_halt = int(rng.integers(1, 3))
        for p in split(mass, n_halt):
            hid = len(nodes)
            nodes.append(TreeNode(depth=depth + 1, reward=reward(), halted=True, edges=()))
            edges.append(TreeEdge(to=hid, p=p, halting=True))
        if mass < 1:
            n_live = int(rng.integers(1, max_branching + 1))
            for p in split(1 - mass, n_live):
                cid = build(depth + 1)
                edges.append(TreeEdge(to=cid, p=p, halting=False))
        nodes[nid] = TreeNode(depth=depth, reward=reward(), halted=False, edges=tuple(edges))
        return nid

    root = build(0)
    bandit = TreeBandit(nodes=tuple(n for n in nodes if n is not None), root=root)
    if not rational:
        from .models import to_float

        bandit = to_float(bandit)  # type: ignore[assignment]
    # every node has up to two halting edges beside its live ones
    report = validate(bandit, max_branching=max_branching + 2)
    assert report.passed, report.codes()
    return bandit


def random_profit_bandit(
    seed_or_rng: int | np.random.Generator,
    *,
    max_depth: int = 3,
    max_branching: int = 2,
) -> ProfitBandit:
    rng = _rng_of(seed_or_rng)
    tree = random_tree_bandit(rng, max_depth=max_depth, max_branching=max_branching)
    costs = tuple(int(rng.integers(0, 6)) for _ in tree.nodes)
    return ProfitBandit(rewards=tree, costs=costs)


def random_markov_bandit(
    seed_or_rng: int | np.random.Generator,
    *,
    n_states: int = 3,
    constant_halt: Fraction | None = None,
    halt_rewards: str = "reward",
) -> MarkovBandit:
    """A small valid chain; a constant halting probability (e.g. for the
    discounted-index comparison) can be forced."""
    rng = _rng_of(seed_or_rng)
    states = []
    for _ in range(n_states):
        r = int(rng.integers(-5, 11))
        h = constant_halt if constant_halt is not None else _HALT_MASSES[int(rng.integers(0, 3))]
        states.append(MarkovState(reward=r, halt_prob=h, halt_reward=r if halt_rewards == "reward" else 0))
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


def random_game(
    seed_or_rng: int | np.random.Generator,
    *,
    n_bandits: int = 2,
    model: PayoutModel = PayoutModel.CP,
    max_depth: int = 3,
    max_branching: int = 2,
    rational: bool = True,
) -> GameInstance:
    rng = _rng_of(seed_or_rng)
    if model is PayoutModel.TP:
        bandits: tuple = tuple(
            random_profit_bandit(rng, max_depth=max_depth, max_branching=max_branching)
            for _ in range(n_bandits)
        )
    else:
        bandits = tuple(
            random_tree_bandit(rng, max_depth=max_depth, max_branching=max_branching, rational=rational)
            for _ in range(n_bandits)
        )
    return GameInstance(bandits=bandits, model=model)
