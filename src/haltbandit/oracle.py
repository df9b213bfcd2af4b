"""Brute-force ground truth: global optima, joint outcomes, certification.

``dp_optimal`` computes the best achievable value of a tree game by
backward induction over every reachable history, each a tuple of node
ids.  It tabulates each bandit once (rewards, costs, and edges as plain
tuples) and writes out each scheme's settlement at the halt itself, so it
shares no code with the bandits' ``moves``, the payout functions, the play
graph or the index solvers: a fault in any of them cannot show on both
sides of the index certificate.  On a game of ints and Fractions it runs over
integers, each history's values scaled by one integer fixed per node
before the loop, and builds each value, a ``Fraction``, when it is read
(the index certificate compares a history's actions on the integers
themselves, building none); a game with any float runs the same induction
in the input's own arithmetic, whose operation order fixes every float bit
for bit.  ``atoms`` expands the full joint sample space so pathwise (not
just in-expectation) claims can be checked outcome by outcome.

The two certifiers package the headline checks: the index policy attains
the optimum, and the greedy policy is pathwise dominant under the
penultimate scheme once rewards never increase before the halt.  Both
play their policy through the play graph; the greedy certificate walks
each atom through its compiled states.

The random generators at the bottom produce small valid instances for
property sweeps; they draw from a counter-based generator so a seed pins
the instance exactly.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import TYPE_CHECKING

from .errors import PreconditionError, ResourceCapError
from .game import (
    DEFAULT_HISTORY_CAP,
    GameInstance,
    GlobalHistory,
    GreedyRewardPolicy,
    IndexPolicy,
    _philox,
    _play_graph,
    _State,
    _tree_value,
    current_reward,
)
from .jsonio import Number, Record
from .models import (
    ProfitBandit,
    TreeBandit,
    TreeEdge,
    TreeNode,
    validate,
)
from .reductions import PayoutModel

if TYPE_CHECKING:
    import numpy as np

# float tolerance of index certification; greedy dominance allows no slack
_INDEX_TOL = 1e-10
_GREEDY_TOL = 0.0


@dataclass(frozen=True)
class OptimalSolution:
    """A tree game's optimum and, at every live history some policy reaches,
    the best value, the best action (lowest id on ties) and the value of
    activating each bandit (costs under the non-halting scheme).

    From ``dp_optimal`` the three mappings are read-only views over flat
    per-history lists, which list the histories in the order the induction
    solved them and compare equal to dicts of the same entries; on an
    exact game every value is a ``Fraction``, built when it is read.
    """

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


def _tabulate(game: GameInstance, cap: int) -> tuple[list[list[int]], list[dict[int, int]], list[dict]]:
    """Every live history some policy reaches and its place in a flat list;
    and per bandit and live node its edges as (p, to, offset).

    The bandits move independently, so the histories are all the tuples of
    live nodes, listed as ``product(*lives)`` over each bandit's children-
    first order: a successor (one node moved to a child) comes before its
    history, and the start comes last.  The k-th history has
    k = Σⱼ placesⱼ[nodeⱼ], so the successor of the k-th is the
    (k + offset)-th; the offset is None at a halt.  More than ``cap``
    histories raise ``ResourceCapError``.
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
    places: list[dict[int, int]] = []
    stride = 1  # the place of a node is its rank in its live list times its bandit's stride
    for live in reversed(lives):
        places.append({nid: r * stride for r, nid in enumerate(live)})
        stride *= len(live)
    places.reverse()
    moves = [
        {
            nid: tuple(
                (e.p, e.to, None if e.halting else place[e.to] - place[nid])
                for e in tree.nodes[nid].edges  # type: ignore[union-attr]
            )
            for nid in live
        }
        for tree, live, place in zip(trees, lives, places)
    ]
    return lives, places, moves


class _Solved(Mapping):
    """A read-only mapping from each live history of a tabulated game to
    ``entry(k)``, k being the history's place; it lists the histories in
    ``product(*lives)`` order; ``ranks``, if given, reads ``_action_ranks``."""

    def __init__(self, lives: list[list[int]], places: list[dict[int, int]], entry: Callable, ranks=None):
        self._lives, self._places, self._entry, self._ranks = lives, places, entry, ranks

    def _place(self, h: object) -> int:
        if not isinstance(h, GlobalHistory) or h.halter is not None or len(h.nodes) != len(self._places):
            raise KeyError(h)
        try:
            return sum(place[nid] for place, nid in zip(self._places, h.nodes))
        except KeyError:  # a halted or unknown node
            raise KeyError(h) from None

    def __getitem__(self, h: object):
        return self._entry(self._place(h))

    def __iter__(self) -> Iterator[GlobalHistory]:
        return map(GlobalHistory, product(*self._lives))

    def __len__(self) -> int:
        return math.prod(map(len, self._lives))

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def dp_optimal(game: GameInstance, *, history_cap: int = DEFAULT_HISTORY_CAP) -> OptimalSolution:
    """Backward induction over every reachable history; ties to the lowest id.

    The best action has the largest payout, or under the non-halting scheme
    the smallest cost.  The value of activating i is its immediate payment
    (i's reward under the cumulative scheme, else 0) plus p · (the halt's
    settlement or the successor's value) per edge.  Each bandit is
    tabulated once and each scheme's settlement is read off
    ``_SETTLEMENT``, so the oracle shares no code with the bandits'
    ``moves``, the payout functions, the play graph or the indices that it
    certifies.

    A game whose probabilities, rewards and costs are all ints and
    ``Fraction``s is solved over integers and its values read back as
    ``Fraction``s (``_integer_induction``); any other game by
    ``_float_induction``, whose operation order fixes every float value.
    """
    if game.backend != "tree":
        raise PreconditionError("the optimality oracle needs a finite tree backend")
    lives, places, moves = _tabulate(game, history_cap)
    halter, frozen = _SETTLEMENT[game.model]
    rewards = [[node.reward for node in game.dynamics(j).nodes] for j in range(game.n)]  # type: ignore[union-attr]
    terms = rewards if frozen == "reward" else None
    if frozen == "cost":  # x + (-c) rounds exactly as x - c does
        terms = [[-c for c in b.costs] for b in game.bandits]  # type: ignore[union-attr]
    numbers = chain(*rewards, *(terms or ()), (p for m in moves for edges in m.values() for p, _, _ in edges))
    induction = _integer_induction if set(map(type, numbers)) <= {int, Fraction} else _float_induction
    value, actions, action_values, ranks = induction(
        lives, moves, rewards, terms, halter, game.model is PayoutModel.CCP, game.model is PayoutModel.NH
    )
    return OptimalSolution(
        value=value(len(actions) - 1),  # the start is solved last
        values=_Solved(lives, places, value),
        actions=_Solved(lives, places, actions.__getitem__),
        action_values=_Solved(lives, places, action_values, ranks),
    )


def _action_ranks(sol: OptimalSolution, nodes: tuple[int, ...]) -> Sequence[Number]:
    """``dp_optimal``'s action values at the live history ``nodes`` as it
    holds them: the values of a float game, the integers of an exact one
    (one positive scale per history, so they order and tie as the values)."""
    solved = sol.action_values
    assert isinstance(solved, _Solved)
    return solved._ranks(sum(place[nid] for place, nid in zip(solved._places, nodes)))


def _float_induction(lives, moves, rewards, terms, halter, paid, minimize):
    """Backward induction in the input's own arithmetic: each action value
    adds p · term per edge in edge order, and a halt's settlement adds the
    frozen terms in id order.  Returns, by place, a reader of the values,
    the list of best actions and a reader of the action values, twice."""
    values: list[Number] = []
    actions: list[int] = []
    action_values: list[tuple[Number, ...]] = []
    for k, nodes in enumerate(product(*lives)):
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
        actions.append(best)
        action_values.append(tuple(q))
    return values.__getitem__, actions, action_values.__getitem__, action_values.__getitem__


def _integer_induction(lives, moves, rewards, terms, halter, paid, minimize):
    """Backward induction over integers, for a game of ints and Fractions.

    Per bandit and live node x, T(x) = lcm over x's edges of den(p) · T(to),
    with T = 1 at a halted node, and an edge's multiplier is p · T(x)/T(to),
    an integer.  With R the lcm of the denominators of every reward and
    cost, a history h = (x₁ … xₙ) has the integer U(h) = R · ∏ⱼ Tⱼ(xⱼ) · V(h).
    Activating i there is worth Σ multiplier · U(successor) over its live
    edges plus ∏_{j≠i} Tⱼ(xⱼ) · (A + M · Σ_{j≠i} R · termⱼ(xⱼ)), where A
    (the scaled halter rewards, and the scaled paid reward) and M (the
    scaled halting mass) are constants of the node.  All action values of
    h share one scale, so the best is read off the integers.

    Every entry is built when read, as ``Fraction(U, R · ∏ⱼ Tⱼ(xⱼ))``; the
    fourth reader returns a history's action U's themselves.
    """
    R = math.lcm(*(x.denominator for row in chain(rewards, terms or ()) for x in row))

    def lift(x: int | Fraction) -> int:
        return x.numerator * (R // x.denominator)

    tables: list[dict] = []
    for i, bandit_moves in enumerate(moves):
        table: dict[int, tuple] = {}
        for nid, edges in bandit_moves.items():  # children first
            dens = [p.denominator * (1 if off is None else table[to][0]) for p, to, off in edges]
            t = math.lcm(*dens)
            a = t * lift(rewards[i][nid]) if paid else 0
            mass, live = 0, []
            for (p, to, off), den in zip(edges, dens):
                mul = p.numerator * (t // den)
                if off is not None:
                    live.append((mul, off))
                    continue
                mass += mul
                if halter is not None:
                    a += mul * lift(rewards[i][to if halter == "halted" else nid])
            own = 0 if terms is None else lift(terms[i][nid])
            table[nid] = (t, a, mass, own, tuple(live))  # (T, A, M, R · own frozen term, live edges)
        tables.append(table)
    cols = [list(table.values()) for table in tables]  # each in its live order
    scales = list(map(math.prod, product(*([row[0] for row in col] for col in cols))))  # ∏ⱼ Tⱼ(xⱼ) by place
    settles = list(map(sum, product(*([row[3] for row in col] for col in cols))))  # Σⱼ R · termⱼ(xⱼ)
    U: list[int] = []
    actions: list[int] = []
    solved: list[list[int]] = []  # each history's action U's
    for k, rows in enumerate(product(*cols)):
        scale, settled = scales[k], settles[k]
        q: list[int] = []
        for t, a, mass, own, live in rows:
            u = scale // t * (a + mass * (settled - own))
            for mul, off in live:
                u += mul * U[k + off]
            q.append(u)
        best = q.index(min(q) if minimize else max(q))  # the first, on ties
        U.append(q[best])
        actions.append(best)
        solved.append(q)

    def value(k: int) -> Fraction:
        return Fraction(U[k], R * scales[k])

    def action_values(k: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(u, R * scales[k]) for u in solved[k])

    return value, actions, action_values, solved.__getitem__


def _policy_count(game: GameInstance, *, history_cap: int = DEFAULT_HISTORY_CAP) -> int:
    """How many deterministic policies a tree game has, one choice per
    history the policy reaches.

    The policies that choose i at h pair off independent sub-policies, one
    per live successor, as no two histories one policy reaches ever merge:
    count(h) = Σᵢ Π count(h′), an empty product being 1.  The count is
    exact at any size; only the histories are capped.
    """
    lives, _, moves = _tabulate(game, history_cap)
    count: list[int] = []
    for k, nodes in enumerate(product(*lives)):
        succ = ([count[k + off] for _, _, off in moves[i][nid] if off is not None] for i, nid in enumerate(nodes))
        count.append(sum(map(math.prod, succ)))
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


def _path_lists(game: GameInstance, cap: int) -> list[list[tuple[tuple[int, ...], Number]]]:
    """Each bandit's root-to-halt paths and their probabilities; more than
    ``cap`` atoms, the paths' product, raise ``ResourceCapError``."""
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
    return per


def atoms(game: GameInstance, *, cap: int = DEFAULT_HISTORY_CAP) -> list[Atom]:
    """The full product sample space of a tree game."""
    return [
        Atom(paths=tuple(path for path, _ in combo), probability=math.prod(p for _, p in combo))
        for combo in product(*_path_lists(game, cap))
    ]


def _atom_payout(game: GameInstance, states: list[_State], paths: Sequence[tuple[int, ...]]) -> Number:
    """The payout of the policy compiled in ``states`` (a play graph's) on
    the atom of these paths, one per bandit: walk them from the start,
    taking the row that lands the activated bandit on its path's next node."""
    pos, k, total = [0] * game.n, 0, 0
    while k is not None:
        i, pay, rows = states[k]
        pos[i] += 1
        nid = paths[i][pos[i]]
        _, _, k, term = next(row for row in rows if row[1] == nid)
        total = total + pay
    return total + term


# ---------------------------------------------------------------------------
# Certification


@dataclass(frozen=True)
class IndexOptimalityReport(Record):
    index_value: Number
    optimal_value: Number
    gap: Number
    histories_compared: int
    action_disagreements: int
    tolerance: float
    passed: bool


def certify_index_optimality(
    game: GameInstance,
    *,
    history_cap: int = DEFAULT_HISTORY_CAP,
) -> IndexOptimalityReport:
    """Check that always playing the largest index attains the optimum.

    Compares the index policy's exact value against the brute-force
    optimum, and on every history the index policy reaches, checks that its
    choice agrees with the optimal action whenever both the best index and
    the best action are unique.  The actions are compared as the DP holds
    them (``_action_ranks``).  Exact inputs must match exactly; floats
    within ``_INDEX_TOL``.  ``gap`` is the optimum minus the index value:
    at least 0, or at most 0 under the non-halting scheme, whose optimum is
    the smallest cost.
    """
    if game.model is PayoutModel.PSP:
        raise PreconditionError("the penultimate scheme has no index policy to certify")
    sol = dp_optimal(game, history_cap=history_cap)
    policy = IndexPolicy()
    graph = _play_graph(game, policy, history_cap)
    idx_value = _tree_value(graph.states)
    gap = sol.value - idx_value
    exact = not isinstance(gap, float)
    # the best action maximizes q; non-halting values are costs, so flip them
    sign = -1 if game.model is PayoutModel.NH else 1
    compared = 0
    disagreements = 0
    # the tables compiling the graph read, indexed by each state's positions
    tables = policy._lookups(game)
    for nodes in graph.nodes:
        q = [sign * v for v in _action_ranks(sol, nodes)]
        indices = [table[pos] for table, pos in zip(tables, nodes)]
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
class GreedyDominanceReport(Record):
    n_policies: int
    n_atoms: int
    min_slack: Number
    tolerance: float
    passed: bool


def certify_greedy_dominance(game: GameInstance, *, atom_cap: int = DEFAULT_HISTORY_CAP) -> GreedyDominanceReport:
    """Check the greedy policy's pathwise dominance under the penultimate scheme.

    Requires every bandit's rewards to never increase along any live path;
    then on every joint outcome atom greedy's realized payout must be at
    least that of every deterministic policy — dominance outcome by
    outcome, not merely on average.  On one atom, whichever bandit i a
    policy drives to the halt, the penultimate scheme pays r(pathᵢ[−2]),
    i's reward just before its last activation; ``always:i`` attains
    exactly that.  So the best any policy earns on the atom is
    maxᵢ r(pathᵢ[−2]), and ``min_slack`` is the least, over atoms, of
    greedy's payout minus that bound.  ``n_policies`` is the exact number
    of deterministic policies this covers, counted without building one.

    ``atom_cap`` also bounds the count's histories and the play graph; as
    every live node has a halted child, neither outnumbers the atoms.
    """
    if game.model is not PayoutModel.PSP:
        raise PreconditionError("greedy dominance is a penultimate-scheme statement")
    if game.backend != "tree":
        raise PreconditionError("the greedy certificate needs a finite tree backend")
    for i in range(game.n):
        dyn = game.dynamics(i)
        for nid, node in enumerate(dyn.nodes):  # type: ignore[union-attr]
            for e in node.edges:
                child = dyn.nodes[e.to]
                if not child.halted and child.reward > node.reward:
                    raise PreconditionError(
                        f"bandit {i} rewards increase on edge {nid}->{e.to}; "
                        "greedy dominance needs non-increasing rewards"
                    )
    per = [[path for path, _ in paths] for paths in _path_lists(game, atom_cap)]
    n_policies = _policy_count(game, history_cap=atom_cap)
    # at most one state per atom: every state has a halting row, every atom one halt
    states = _play_graph(game, GreedyRewardPolicy(), atom_cap).states
    min_slack = min(
        _atom_payout(game, states, paths)
        - max(current_reward(game, i, path[-2]) for i, path in enumerate(paths))
        for paths in product(*per)
    )
    return GreedyDominanceReport(
        n_policies=n_policies,
        n_atoms=math.prod(map(len, per)),
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
    return _philox(seed_or_rng)


def random_tree_bandit(
    seed_or_rng: int | np.random.Generator,
    *,
    max_depth: int = 3,
    max_branching: int = 2,
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
    # every node has up to two halting edges beside its live ones
    report = validate(bandit, max_depth=max_depth, max_branching=max_branching + 2)
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


def random_game(
    seed_or_rng: int | np.random.Generator,
    *,
    n_bandits: int = 2,
    model: PayoutModel = PayoutModel.CP,
    max_depth: int = 3,
    max_branching: int = 2,
) -> GameInstance:
    rng = _rng_of(seed_or_rng)
    if model is PayoutModel.TP:
        bandits: tuple = tuple(
            random_profit_bandit(rng, max_depth=max_depth, max_branching=max_branching)
            for _ in range(n_bandits)
        )
    else:
        bandits = tuple(
            random_tree_bandit(rng, max_depth=max_depth, max_branching=max_branching)
            for _ in range(n_bandits)
        )
    return GameInstance(bandits=bandits, model=model)
