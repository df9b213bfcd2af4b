"""Brute-force ground truth: global optima, joint outcomes, certification.

``dp_optimal`` computes the best achievable value of a tree game by
backward induction over every reachable history, each a tuple of node
ids.  It tabulates each bandit once (rewards, costs, and edges as plain
tuples) and writes out each scheme's settlement at the halt itself, so it
shares no code with ``game.step``, the payout functions, the play graph
or the index solvers: a fault in any of them cannot show on both sides of
the index certificate.  ``atoms`` expands the full joint sample space so
pathwise (not just in-expectation) claims can be checked outcome by
outcome.

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
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .errors import PreconditionError, ResourceCapError
from .game import (
    DEFAULT_HISTORY_CAP,
    GameInstance,
    GlobalHistory,
    GreedyRewardPolicy,
    IndexPolicy,
    Policy,
    _play_graph,
    _tree_value,
    current_reward,
    immediate_payment,
    round_of,
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

if TYPE_CHECKING:
    import numpy as np

DEFAULT_POLICY_CAP = 10**4
# float tolerance of index certification; greedy dominance allows no slack
_INDEX_TOL = 1e-10
_GREEDY_TOL = 0.0


@dataclass(frozen=True)
class OptimalSolution:
    """A tree game's optimum and, at every live history some policy reaches,
    the best value, the best action (lowest id on ties) and the value of
    activating each bandit (costs under the non-halting scheme)."""

    value: Number
    values: Mapping[GlobalHistory, Number]
    actions: Mapping[GlobalHistory, int]
    action_values: Mapping[GlobalHistory, tuple[Number, ...]]


# What a halt pays under each scheme: the halter's reward at the halted node
# it lands on ("halted"), at the live node it left ("live") or nothing, then
# one term per frozen bandit at its live node, added in id order: its reward,
# its cost subtracted, or nothing.  The cumulative scheme paid as it went.
_SETTLEMENT = {
    PayoutModel.CP: ("halted", "reward"),
    PayoutModel.SP: ("halted", None),
    PayoutModel.PSP: ("live", None),
    PayoutModel.NH: (None, "reward"),
    PayoutModel.TP: ("halted", "cost"),
    PayoutModel.CCP: (None, None),
}


def _tabulate(game: GameInstance, cap: int) -> tuple[Iterator[tuple[int, ...]], list[dict]]:
    """Every live history some policy reaches, as a tuple of node ids, each
    after all its live successors; and per bandit and live node its edges
    as (p, to, offset): the successor of the k-th history is the
    (k + offset)-th, and the offset is None at a halt.

    The bandits move independently, so the histories are all the tuples of
    live nodes, listed in ``product`` order over each bandit's children-
    first order: a successor (one node moved to a child) comes before its
    history, and the start comes last.  More than ``cap`` histories raise
    ``ResourceCapError``.
    """
    trees = [game.dynamics(j) for j in range(game.n)]
    lives: list[list[int]] = []
    for tree in trees:
        assert isinstance(tree, TreeBandit)
        live = [tree.root]
        for nid in live:  # grows while it is read; reversed, children come first
            live.extend(e.to for e in tree.nodes[nid].edges if not e.halting)
        lives.append(live[::-1])
    if math.prod(map(len, lives)) > cap:
        raise ResourceCapError(f"more than {cap} reachable histories")
    moves: list[dict] = []
    stride = 1  # k = Σⱼ strideⱼ · (rank of nodeⱼ in livesⱼ)
    for tree, live in zip(reversed(trees), reversed(lives)):
        rank = {nid: r for r, nid in enumerate(live)}
        moves.append(
            {
                nid: tuple(
                    (e.p, e.to, None if e.halting else (rank[e.to] - rank[nid]) * stride)
                    for e in tree.nodes[nid].edges  # type: ignore[union-attr]
                )
                for nid in live
            }
        )
        stride *= len(live)
    return product(*lives), moves[::-1]


def dp_optimal(game: GameInstance, *, history_cap: int = DEFAULT_HISTORY_CAP) -> OptimalSolution:
    """Backward induction over every reachable history; ties to the lowest id.

    The best action has the largest payout, or under the non-halting scheme
    the smallest cost.  The value of activating i is its immediate payment
    (i's reward under the cumulative scheme, else 0) plus p · (the halt's
    settlement or the successor's value) per edge, in edge order.  Each
    bandit is tabulated once and each scheme's settlement is read off
    ``_SETTLEMENT``, so the oracle shares no code with ``step``, the payout
    functions, the play graph or the indices that it certifies.
    """
    if game.backend != "tree":
        raise PreconditionError("the optimality oracle needs a finite tree backend")
    histories, moves = _tabulate(game, history_cap)
    halter, frozen = _SETTLEMENT[game.model]
    rewards = [[node.reward for node in game.dynamics(j).nodes] for j in range(game.n)]  # type: ignore[union-attr]
    terms = rewards if frozen == "reward" else None
    if frozen == "cost":  # x + (-c) rounds exactly as x - c does
        terms = [[-c for c in b.costs] for b in game.bandits]  # type: ignore[union-attr]
    paid = game.model is PayoutModel.CCP
    minimize = game.model is PayoutModel.NH
    values: list[Number] = []
    solved: list[tuple[GlobalHistory, int, tuple[Number, ...]]] = []
    for k, nodes in enumerate(histories):
        q: list[Number] = []
        for i, nid in enumerate(nodes):
            v = rewards[i][nid] if paid else 0
            for p, to, offset in moves[i][nid]:
                if offset is not None:
                    term = values[k + offset]
                else:
                    term = 0 if halter is None else rewards[i][to if halter == "halted" else nid]
                    if terms is not None:
                        for j, other in enumerate(nodes):
                            if j != i:
                                term = term + terms[j][other]
                v = v + p * term
            q.append(v)
        best = (min if minimize else max)(range(len(q)), key=q.__getitem__)  # the first, on ties
        values.append(q[best])
        solved.append((GlobalHistory(nodes), best, tuple(q)))
    return OptimalSolution(
        value=values[-1],
        values={h: v for (h, _, _), v in zip(solved, values)},
        actions={h: i for h, i, _ in solved},
        action_values={h: q for h, _, q in solved},
    )


def _policy_count(game: GameInstance, cap: int) -> int:
    """How many deterministic policies a tree game has, one choice per
    history the policy reaches.

    The policies that choose i at h pair off independent sub-policies, one
    per live successor, as no two histories one policy reaches ever merge:
    count(h) = Σᵢ Π count(h′), an empty product being 1.  Counts only grow
    towards the start, so the first one past ``cap`` settles the answer.
    """
    histories, moves = _tabulate(game, DEFAULT_HISTORY_CAP)
    count: list[int] = []
    for k, nodes in enumerate(histories):
        succ = ([count[k + off] for _, _, off in moves[i][nid] if off is not None] for i, nid in enumerate(nodes))
        count.append(sum(map(math.prod, succ)))
        if count[-1] > cap:
            raise ResourceCapError(f"more than {cap} deterministic policies")
    return count[-1]


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
        q = [sign * v for v in sol.action_values[h]]
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
    import numpy as np  # here only, so exact runs never load numpy

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
