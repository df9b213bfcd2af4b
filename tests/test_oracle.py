"""Brute-force certification: DP optimum, policy/atom enumeration, dominance."""

import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haltbandit import (
    GameInstance,
    GlobalHistory,
    GreedyRewardPolicy,
    IndexPolicy,
    MarkovBandit,
    PayoutModel,
    PreconditionError,
    ProfitBandit,
    ResourceCapError,
    TablePolicy,
    TreeBandit,
    TreeEdge,
    TreeNode,
    certify_greedy_dominance,
    certify_index_optimality,
    current_reward,
    dp_optimal,
    evaluate_exact,
    geometric_markov,
    random_game,
    random_tree_bandit,
    to_float,
    unroll_markov,
)
from haltbandit import game as game_module
from haltbandit import indices, reductions
from haltbandit import oracle as oracle_module
from haltbandit.oracle import _policy_count

from helpers import (
    HALF,
    ONE,
    _replay_payout,
    always,
    enumerate_policies,
    joint_atoms,
    make_nonincreasing,
    oracle_value,
    pair_game,
    path_bandit,
    ramp_bandit,
    reference_dp_optimal,
    reference_greedy_dominance,
    reference_policy_count,
    small_trees,
    sure_bandit,
)


def test_dp_finds_the_pair_optimum():
    game = pair_game()
    sol = dp_optimal(game)
    assert sol.value == 7
    assert sol.actions[game.initial_history()] == 0
    assert evaluate_exact(game, TablePolicy(sol.actions)) == 7


@st.composite
def tree_games(draw) -> GameInstance:
    """1–3 small trees under any scheme, exact or float.  Rewards and costs
    are small integers, kept as ints or taken over 1, 3, 7 or 10, so that
    float sums taken in another order often round differently; a node with
    one edge may give it the int probability 1, as parsed documents do."""
    model = draw(st.sampled_from(list(PayoutModel)))
    n = draw(st.integers(1, 3))

    def number(k: int):
        over = draw(st.sampled_from((None, 1, 3, 7, 10)))
        return k if over is None else Fraction(k, over)

    def loosen(node: TreeNode) -> TreeNode:
        if len(node.edges) == 1 and draw(st.booleans()):
            node = replace(node, edges=(replace(node.edges[0], p=1),))
        return replace(node, reward=number(node.reward))

    bandits = [
        TreeBandit(nodes=tuple(map(loosen, tree.nodes)))
        for tree in (draw(small_trees(draw(st.integers(1, 2 if n == 3 else 3)))) for _ in range(n))
    ]
    if model is PayoutModel.TP:
        bandits = [
            ProfitBandit(rewards=t, costs=tuple(number(draw(st.integers(0, 3))) for _ in t.nodes)) for t in bandits
        ]
    if draw(st.booleans()):
        bandits = [to_float(b) for b in bandits]
    return GameInstance(bandits=tuple(bandits), model=model)


def _exactly(x):
    # the type and the repr tell Fraction(2) from 2 and -0.0 from 0.0
    return type(x), repr(x)


def _matches(got, want) -> bool:
    # a float entry keeps the reference's type and repr; an exact entry is a
    # Fraction equal to the reference's, which may be an int
    if isinstance(want, float):
        return _exactly(got) == _exactly(want)
    return type(got) is Fraction and got == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tree_games())
def test_dp_optimal_equals_the_stepping_reference(game):
    got = dp_optimal(game)
    want = reference_dp_optimal(game)
    assert _matches(got.value, want.value)
    assert set(got.values) == set(want.values)
    for h, v in want.values.items():
        assert _matches(got.values[h], v)
        assert got.actions[h] == want.actions[h]
        assert len(got.action_values[h]) == len(want.action_values[h])
        assert all(map(_matches, got.action_values[h], want.action_values[h]))
    assert _policy_count(game) == reference_policy_count(game)


@pytest.mark.parametrize("model", [PayoutModel.CP, PayoutModel.CCP])
def test_a_value_through_a_sure_live_edge_equals_the_reference(model):
    # validate refuses a live node without halting mass, but the oracle plays
    # it: activating there is worth its successor's value, which the
    # reference holds as an int on some histories and a Fraction on others
    bridge = TreeBandit(
        nodes=(
            TreeNode(0, 1, False, (TreeEdge(1, 1, False),)),
            TreeNode(1, 2, False, (TreeEdge(2, 1, True),)),
            TreeNode(2, 6, True),
        )
    )
    game = GameInstance(bandits=(bridge, path_bandit((0, 5, 3), (HALF, 1))), model=model)
    got, want = dp_optimal(game), reference_dp_optimal(game)
    through = set()
    for h, q in want.action_values.items():
        assert _matches(got.values[h], want.values[h])
        assert len(got.action_values[h]) == len(q) and all(map(_matches, got.action_values[h], q))
        if h.nodes[0] == 0:
            through.add(type(q[0]))
    assert through == {int, Fraction}


def _children_first_order(game: GameInstance) -> list[GlobalHistory]:
    # every live node of each bandit, breadth first from the root, reversed;
    # the histories are their product, so each successor precedes its history
    lives = []
    for j in range(game.n):
        tree = game.dynamics(j)
        live = [tree.root]
        for nid in live:
            live.extend(e.to for e in tree.nodes[nid].edges if not e.halting)
        lives.append(live[::-1])
    return [GlobalHistory(nodes) for nodes in product(*lives)]


@pytest.mark.parametrize("rational", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("model", list(PayoutModel))
def test_the_solution_reads_like_the_dicts_it_replaces(model, rational):
    game = random_game(5, n_bandits=3, model=model, max_depth=3)
    if not rational:
        game = GameInstance(bandits=tuple(map(to_float, game.bandits)), model=model)
    got = dp_optimal(game)
    want = reference_dp_optimal(game)
    assert got == want and want == got
    order = _children_first_order(game)
    pairs = ((got.values, want.values), (got.actions, want.actions), (got.action_values, want.action_values))
    for mine, theirs in pairs:
        assert mine == theirs and theirs == mine
        assert len(mine) == len(theirs) == len(order)
        assert list(mine) == list(mine.keys()) == order
    start = game.initial_history()
    tree = game.dynamics(0)
    halted = next(e.to for e in tree.nodes[tree.root].edges if e.halting)
    for missing in (
        GlobalHistory((halted,) + start.nodes[1:]),
        GlobalHistory((len(tree.nodes),) + start.nodes[1:]),
        GlobalHistory((-1,) + start.nodes[1:]),
        GlobalHistory(start.nodes[:-1]),
        GlobalHistory(start.nodes + (0,)),
        GlobalHistory(start.nodes, halter=0),
        start.nodes,
    ):
        for mapping in (got.values, got.actions, got.action_values):
            assert missing not in mapping
            with pytest.raises(KeyError):
                mapping[missing]
    assert start in got.values and got.values[start] == got.value


class _Refused(Exception):
    pass


def test_dp_optimal_shares_no_code_with_the_game_or_the_indices(monkeypatch):
    # every binding of the stepping, settling, play-graph and index code in
    # the package raises; the oracle must not notice
    games = [random_game(seed, model=model, max_depth=3) for seed, model in enumerate(PayoutModel)]
    want = [reference_dp_optimal(g) for g in games]
    counts = [reference_policy_count(g) for g in games]
    shared = [
        game_module.step,
        game_module.terminal_payout,
        game_module.immediate_payment,
        game_module.current_reward,
        game_module._play_graph,
        game_module._Play,
        game_module._index_table,
        indices._chain_table,
        indices._gains,
        reductions._index_form,
    ]

    def refuse(*args, **kwargs):
        raise _Refused

    for name, module in list(sys.modules.items()):
        if name == "haltbandit" or name.startswith("haltbandit."):
            for key, value in list(vars(module).items()):
                if any(value is f for f in shared):
                    monkeypatch.setattr(module, key, refuse)
    for cls in (TreeBandit, MarkovBandit):  # the moves each bandit type defines
        monkeypatch.setattr(cls, "moves", refuse)
    for g, w, n in zip(games, want, counts):
        assert dp_optimal(g) == w
        assert _policy_count(g) == n
    with pytest.raises(_Refused):  # the patch bites: the certifier plays the index policy
        certify_index_optimality(games[0])


def test_dp_dominates_every_enumerated_policy():
    for seed in range(8):
        game = random_game(seed, max_depth=2)
        best = dp_optimal(game).value
        assert any(
            evaluate_exact(game, policy) == best for policy in enumerate_policies(game)
        )
        for policy in enumerate_policies(game):
            assert evaluate_exact(game, policy) <= best


def test_dp_on_a_single_bandit_is_the_only_policy_value():
    game = GameInstance(bandits=(ramp_bandit(),), model=PayoutModel.CP)
    (only,) = enumerate_policies(game)
    assert dp_optimal(game).value == evaluate_exact(game, only) == 7


def test_dp_zero_rewards_zero_value():
    flat = path_bandit((0, 0, 0), (HALF, ONE))
    game = GameInstance(bandits=(flat, flat), model=PayoutModel.NH)
    assert dp_optimal(game).value == 0


def test_policy_counts():
    quick = GameInstance(bandits=(sure_bandit(1), sure_bandit(2)), model=PayoutModel.CP)
    assert len(enumerate_policies(quick)) == 2
    assert len(enumerate_policies(pair_game())) == 3


def test_enumerated_policies_are_distinct_and_complete():
    game = pair_game()
    policies = enumerate_policies(game)
    values = sorted(evaluate_exact(game, p) for p in policies)
    assert values == [5, Fraction(13, 2), 7]
    assert len({tuple(sorted(p.mapping.items(), key=repr)) for p in policies}) == 3


def test_atoms_partition_the_outcome_space():
    game = pair_game()
    space = joint_atoms(game)
    assert len(space) == 2
    assert sum(p for _, p in space) == 1
    runs = [_replay_payout(game, always(0), paths) for paths, _ in space]
    assert sorted(runs) == [4, 10]
    assert sum(p * r for (_, p), r in zip(space, runs)) == 7


def test_atom_replay_matches_exact_evaluation_in_expectation():
    for seed in range(6):
        game = random_game(seed, max_depth=2)
        space = joint_atoms(game)
        for policy in enumerate_policies(game)[:10]:
            expectation = sum(p * _replay_payout(game, policy, paths) for paths, p in space)
            assert expectation == evaluate_exact(game, policy)
            assert expectation == oracle_value(game, policy)


def _walk(states, paths):
    """The payout of the policy compiled in a play graph's ``states`` on the
    atom of these paths: from the start, take the row that lands the
    activated bandit on its path's next node."""
    pos, k, total = [0] * len(paths), 0, 0
    while k is not None:
        i, pay, rows = states[k]
        pos[i] += 1
        _, _, k, term = next(row for row in rows if row[1] == paths[i][pos[i]])
        total = total + pay
    return total + term


@pytest.mark.parametrize("model", list(PayoutModel))
def test_atom_walks_over_the_play_graph_match_the_longhand_replay(model):
    # each compiled state pays, on every outcome, what the scheme's definition does
    game = random_game(3, model=model, max_depth=3)
    space = [paths for paths, _ in joint_atoms(game)]
    for policy in enumerate_policies(game)[:10]:
        states = game_module._play_graph(game, policy, 10**4).states
        assert [_walk(states, paths) for paths in space] == [_replay_payout(game, policy, paths) for paths in space]


def test_index_certificate_on_the_pair_game():
    report = certify_index_optimality(pair_game())
    assert report.passed
    assert report.index_value == 7
    assert report.optimal_value == 7
    assert report.gap == 0
    assert report.action_disagreements == 0
    assert report.histories_compared >= 2
    assert report.to_obj()["pass"] is True


def test_index_certificate_rejects_the_penultimate_scheme():
    with pytest.raises(PreconditionError):
        certify_index_optimality(pair_game(PayoutModel.PSP))


@pytest.mark.parametrize("seed", range(40))
def test_index_certificate_random_sweep(seed):
    report = certify_index_optimality(random_game(seed))
    assert report.passed
    assert report.gap == 0


# Recorded with the certifier's own stack walk over the index policy's histories.
@pytest.mark.parametrize(
    "seed, model, compared",
    [(2, PayoutModel.CP, 23), (4, PayoutModel.TP, 14)],
)
def test_index_certificate_history_counts_are_pinned(seed, model, compared):
    report = certify_index_optimality(random_game(seed, model=model, max_depth=4))
    assert report.passed
    assert (report.histories_compared, report.action_disagreements) == (compared, 0)


def test_the_index_certificate_reads_each_states_indices_once(monkeypatch):
    game = random_game(4, n_bandits=3, max_depth=3)
    states = game_module._play_graph(game, IndexPolicy(), 10**4).nodes
    reads = []
    indices_of = IndexPolicy.indices
    monkeypatch.setattr(IndexPolicy, "indices", lambda self, g, h: reads.append(h) or indices_of(self, g, h))
    assert certify_index_optimality(game).passed
    # one read per state, by the policy's own choice while the play graph compiles
    assert len(reads) == len(states) == 9
    assert sorted(h.nodes for h in reads) == sorted(states)


def greedy_game() -> GameInstance:
    return GameInstance(
        bandits=(
            path_bandit((5, 3, 3), (HALF, ONE)),
            path_bandit((4, 2, 2), (HALF, ONE)),
        ),
        model=PayoutModel.PSP,
    )


def test_greedy_dominance_certificate():
    report = certify_greedy_dominance(greedy_game())
    assert report.passed
    assert report.n_policies == 6
    assert report.n_atoms == 4
    assert report.min_slack == 0


def test_greedy_dominance_on_identical_bandits():
    twin = path_bandit((4, 2, 2), (HALF, ONE))
    report = certify_greedy_dominance(
        GameInstance(bandits=(twin, twin), model=PayoutModel.PSP)
    )
    assert report.passed
    assert report.min_slack == 0
    # with sure halts every policy pays the same root on every atom
    instant = path_bandit((4, 2), (ONE,))
    tied = certify_greedy_dominance(
        GameInstance(bandits=(instant, instant), model=PayoutModel.PSP)
    )
    assert tied.passed and tied.min_slack == 0


def test_greedy_dominance_requires_non_increasing_rewards():
    rising = path_bandit((0, 5, 5), (HALF, ONE))
    game = GameInstance(bandits=(rising, sure_bandit(1)), model=PayoutModel.PSP)
    with pytest.raises(PreconditionError):
        certify_greedy_dominance(game)


def test_greedy_dominance_requires_the_penultimate_scheme():
    with pytest.raises(PreconditionError):
        certify_greedy_dominance(pair_game(PayoutModel.CP))


def test_greedy_dominance_refuses_a_chain():
    chain = geometric_markov((3, 1), HALF)
    with pytest.raises(PreconditionError, match="tree backend"):
        certify_greedy_dominance(GameInstance(bandits=(chain, chain), model=PayoutModel.PSP))


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_generators_refuse_a_seed_outside_the_key_range(seed):
    with pytest.raises(PreconditionError, match="key range"):
        random_tree_bandit(seed)


@pytest.mark.parametrize("seed", range(15))
def test_greedy_dominance_random_sweep(seed):
    game = GameInstance(
        bandits=tuple(
            make_nonincreasing(random_tree_bandit(seed * 2 + k, max_depth=2))
            for k in range(2)
        ),
        model=PayoutModel.PSP,
    )
    assert certify_greedy_dominance(game).passed


@st.composite
def monotone_psp_games(draw) -> GameInstance:
    n = draw(st.integers(2, 3))
    trees = [draw(small_trees(draw(st.integers(1, 3)), monotone=True)) for _ in range(n)]
    if draw(st.booleans()):
        trees = [to_float(t) for t in trees]
    return GameInstance(bandits=tuple(trees), model=PayoutModel.PSP)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(monotone_psp_games())
def test_greedy_dominance_matches_the_policy_by_atom_reference(game):
    # the reference replays every enumerated policy on every atom; past its
    # cap the certificate still passes, counting every policy
    got = certify_greedy_dominance(game)
    try:
        want = reference_greedy_dominance(game, policy_cap=300)
    except ResourceCapError:
        assert got.passed
        assert got.n_policies == reference_policy_count(game) > 300
        return
    assert got == want
    assert type(got.min_slack) is type(want.min_slack)


@pytest.mark.parametrize("n_bandits, depth", [(2, 3), (3, 2)])
@pytest.mark.parametrize("seed", range(4))
def test_greedy_dominance_policy_cap_boundary(n_bandits, depth, seed):
    # the policy count is no boundary: it is exact at any size, and the only
    # refusal is the atom cap's, whatever the count
    game = GameInstance(
        bandits=tuple(
            make_nonincreasing(random_tree_bandit(seed * 3 + k, max_depth=depth))
            for k in range(n_bandits)
        ),
        model=PayoutModel.PSP,
    )
    report = certify_greedy_dominance(game)
    assert report.n_policies == reference_policy_count(game)
    assert certify_greedy_dominance(game, atom_cap=report.n_atoms) == report
    with pytest.raises(ResourceCapError, match="joint outcome atoms"):
        certify_greedy_dominance(game, atom_cap=report.n_atoms - 1)


def test_greedy_dominance_checks_the_atom_cap_first():
    # the count's histories and the play graph are capped alike; the atoms
    # are checked first
    game = greedy_game()
    with pytest.raises(ResourceCapError, match="joint outcome atoms"):
        certify_greedy_dominance(game, atom_cap=1)


def test_greedy_dominance_reads_rewards_once_per_halting_row(monkeypatch):
    # the certificate reads greedy's play graph, not the atoms: every bandit's
    # reward once per halting row, far fewer reads than atoms here
    game = GameInstance(
        bandits=tuple(make_nonincreasing(random_tree_bandit(k, max_depth=4)) for k in range(2)),
        model=PayoutModel.PSP,
    )
    report = certify_greedy_dominance(game)
    assert report.n_atoms == len(joint_atoms(game))
    states = game_module._play_graph(game, GreedyRewardPolicy(), 10**4).states
    halting_rows = sum(succ is None for _, _, rows in states for _, _, succ, _ in rows)
    reads = []
    reward = oracle_module.current_reward
    monkeypatch.setattr(oracle_module, "current_reward", lambda g, i, x: reads.append(i) or reward(g, i, x))
    assert certify_greedy_dominance(game) == report
    assert len(reads) == game.n * halting_rows < report.n_atoms


def test_a_faulty_greedy_fails_its_certificate(monkeypatch):
    # every other game in the suite has slack 0: here greedy plays the
    # smallest reward, and the certificate must find the reference's slack
    monkeypatch.setattr(
        GreedyRewardPolicy,
        "choose",
        lambda self, game, h, round_: min(range(game.n), key=lambda i: current_reward(game, i, h.nodes[i])),
    )
    for seed in range(40):
        game = GameInstance(
            bandits=tuple(make_nonincreasing(random_tree_bandit(seed * 2 + k, max_depth=2)) for k in range(2)),
            model=PayoutModel.PSP,
        )
        got = certify_greedy_dominance(game)
        want = reference_greedy_dominance(game)
        assert got == want
        assert type(got.min_slack) is type(want.min_slack)
        assert not got.passed and got.min_slack < 0


def test_the_oracles_finish_on_a_deep_tree():
    # depth 2292: one level of recursion per level of the tree would overflow
    tree = unroll_markov(geometric_markov([1, 3, 0], Fraction(99, 100)))
    game = GameInstance(bandits=(tree,), model=PayoutModel.CP)
    sol = dp_optimal(game)
    assert len(sol.values) == 2292
    assert sol.value == evaluate_exact(game, always(0))
    # and the greedy certificate on a flat chain unrolled as deep
    flat = unroll_markov(geometric_markov(2, Fraction(99, 100)))
    report = certify_greedy_dominance(GameInstance(bandits=(flat,), model=PayoutModel.PSP))
    assert (report.passed, report.n_policies, report.min_slack) == (True, 1, 0)
    assert report.n_atoms == sum(node.halted for node in flat.nodes) == 2292


def test_dp_history_cap_boundary():
    game = random_game(3, n_bandits=3, max_depth=3)
    n = len(dp_optimal(game).values)
    assert dp_optimal(game, history_cap=n).value == dp_optimal(game).value
    with pytest.raises(ResourceCapError):
        dp_optimal(game, history_cap=n - 1)


def test_resource_caps_bite():
    game = pair_game()
    with pytest.raises(ResourceCapError):
        enumerate_policies(game, cap=2)
    with pytest.raises(ResourceCapError):
        dp_optimal(game, history_cap=1)
    with pytest.raises(ResourceCapError):
        evaluate_exact(game, always(0), history_cap=1)


def test_index_policy_value_is_sandwiched():
    # the certificate's two routes really are independent: the index value is
    # an exact policy evaluation, the optimum an exact DP; both meet at 7
    game = pair_game()
    assert evaluate_exact(game, IndexPolicy()) == dp_optimal(game).value == 7
