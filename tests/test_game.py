"""Product game mechanics: stepping, exact evaluation, sampling, traces."""

import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from haltbandit import (
    BlockCommitmentIndexPolicy,
    CyclicPolicy,
    GameInstance,
    GlobalHistory,
    GreedyRewardPolicy,
    IndexPolicy,
    MarkovBandit,
    MarkovState,
    PayoutModel,
    Policy,
    PreconditionError,
    ProfitBandit,
    ResourceCapError,
    SolverError,
    TablePolicy,
    TreeBandit,
    TreeEdge,
    TreeNode,
    evaluate_exact,
    geometric_markov,
    index_decomposition,
    linear,
    local_times,
    psp_value_with_policy_indices,
    random_game,
    round_of,
    run_policy_sampled,
    step,
    to_float,
    trace_times,
    unroll_markov,
)

from haltbandit import game as game_module
from haltbandit.game import _DRAW_CHUNK, _play_graph, immediate_payment, terminal_payout

from helpers import (
    CHAIN_SCHEMES,
    HALF,
    ONE,
    _solve_exact,
    activation_rounds,
    always,
    as_table,
    decoded_play_graph,
    enumerate_policies,
    equivalent_rewards,
    float_game,
    longhand_play_graph,
    normalize,
    oracle_value,
    pair_game,
    path_bandit,
    ramp_bandit,
    random_markov_bandit,
    reachable_histories,
    scaled_markov_bandit,
    small_trees,
    sure_bandit,
)


def example_one_game(model: PayoutModel = PayoutModel.CCP) -> GameInstance:
    """Two constant-reward bandits, each surviving an activation with
    probability 1/2."""
    return GameInstance(
        bandits=(geometric_markov(1, HALF), geometric_markov(1, HALF)),
        model=model,
    )


def test_step_splits_mass_between_halt_and_survival():
    game = example_one_game()
    outcomes = step(game, game.initial_history(), 1)
    assert len(outcomes) == 2
    assert sorted(p for p, _ in outcomes) == [HALF, HALF]
    halted = [nxt for _, nxt in outcomes if nxt.halter is not None]
    assert len(halted) == 1 and halted[0].halter == 1


def test_step_on_a_sure_halt_ends_the_game():
    game = pair_game()
    outcomes = step(game, game.initial_history(), 1)
    assert len(outcomes) == 1
    (p, nxt) = outcomes[0]
    assert p == 1 and nxt.halter == 1


def test_stepping_a_finished_game_is_rejected():
    game = pair_game()
    (_, done) = step(game, game.initial_history(), 1)[0]
    with pytest.raises(PreconditionError):
        step(game, done, 0)


def test_local_times_sum_to_the_round_everywhere():
    game = random_game(3)
    for policy in enumerate_policies(game)[:8]:
        for h, round_ in reachable_histories(game, policy):
            assert sum(local_times(game, h)) == round_
            assert round_of(game, h) == round_


def test_collective_values_of_the_three_pair_policies():
    game = pair_game()
    keep = always(0)
    switch = TablePolicy({game.initial_history(): 0}, default=1)
    assert evaluate_exact(game, keep) == 7
    assert evaluate_exact(game, switch) == Fraction(13, 2)
    assert evaluate_exact(game, always(1)) == 5
    # the independent enumeration oracle agrees on all three
    for policy in (keep, switch, always(1)):
        assert oracle_value(game, policy) == evaluate_exact(game, policy)


def test_cyclic_ccp_value_is_two():
    # constant reward 1 and per-activation survival 1/2: the cyclic policy
    # collects 1 + 1/2 + 1/4 + ... = 2, here via the linear-system evaluator
    value = evaluate_exact(example_one_game(), CyclicPolicy((0, 1)))
    assert value == 2


def test_cumulative_value_is_the_survival_weighted_reward_sum():
    # per-path discounting: each live node contributes its reach probability
    # times its reward; mirrors the evaluator on a varying-survival spine
    spine = path_bandit((2, 2, 2), (Fraction(1, 3), ONE))
    game = GameInstance(bandits=(spine,), model=PayoutModel.CCP)
    expected = 2 + Fraction(2, 3) * 2
    assert evaluate_exact(game, always(0)) == expected
    assert oracle_value(game, always(0)) == expected


def test_markov_and_unrolled_tree_evaluations_agree():
    markov_value = evaluate_exact(example_one_game(), CyclicPolicy((0, 1)))
    depth = 40  # the unreached tail mass is 2^-40, far below the tolerance
    trees = tuple(
        unroll_markov(geometric_markov(1, HALF), max_depth=depth) for _ in range(2)
    )
    tree_game = GameInstance(bandits=trees, model=PayoutModel.CCP)
    tree_value = evaluate_exact(tree_game, CyclicPolicy((0, 1)))
    assert abs(float(tree_value) - float(markov_value)) <= 1e-8


def _longhand_chain_value(game: GameInstance, policy) -> Fraction:
    """Value of a chain game from its own list of (positions, round mod the
    policy's period) states, reached with ``step`` and solved by Gauss-Jordan
    elimination over the dense system x = b + Px."""
    start = (game.initial_history(), 0)
    states, where = [start], {start: 0}
    for h, phase in states:  # grows while it is read
        for _, nxt in step(game, h, policy.choose(game, h, phase)):
            key = (nxt, (phase + 1) % policy.period)
            if nxt.halter is None and key not in where:
                where[key] = len(states)
                states.append(key)
    a = [[Fraction(int(r == c)) for c in range(len(states))] for r in range(len(states))]
    b = []
    for r, (h, phase) in enumerate(states):
        i = policy.choose(game, h, phase)
        pay = Fraction(immediate_payment(game, h, i))
        for p, nxt in step(game, h, i):
            if nxt.halter is not None:
                pay += p * terminal_payout(game, h, i, nxt)
            else:
                a[r][where[(nxt, (phase + 1) % policy.period)]] -= p
        b.append(pay)
    return _solve_exact(a, [b])[0][0]


@pytest.mark.parametrize("seeds", [(0, 1), (4, 9)], ids=["seeds-0-1", "seeds-4-9"])
@pytest.mark.parametrize(
    "model, policy",
    [
        (model, CyclicPolicy(order))
        for model in (PayoutModel.CP, PayoutModel.CCP, PayoutModel.SP, PayoutModel.NH, PayoutModel.PSP)
        for order in ((0, 1), (0, 0, 1), (1, 0, 1))
    ]
    + [(PayoutModel.CP, IndexPolicy()), (PayoutModel.CCP, IndexPolicy())],
    ids=lambda v: v.value if isinstance(v, PayoutModel) else v.describe(),
)
def test_exact_chain_evaluation_matches_a_longhand_solve(seeds, model, policy):
    chains = (random_markov_bandit(seeds[0], n_states=3), random_markov_bandit(seeds[1], n_states=4))
    game = GameInstance(bandits=chains, model=model)
    assert evaluate_exact(game, policy) == _longhand_chain_value(game, policy)


# chains under periodic policies and five schemes; exact and float trees of
# depth 6 under every scheme but NH, whose seeded trees reach few states
_GRAPH_CASES = [
    (GameInstance((random_markov_bandit(4, n_states=3), random_markov_bandit(9, n_states=4)), model), CyclicPolicy(order))
    for model in (PayoutModel.CP, PayoutModel.CCP, PayoutModel.SP, PayoutModel.NH, PayoutModel.PSP)
    for order in ((0, 1), (0, 0, 1), (1, 0, 1))
] + [
    (make(random_game(seed, model=list(PayoutModel)[seed % 6], max_depth=6)), policy)
    for seed in (1, 2, 4, 5, 6)
    for make in (lambda g: g, float_game)
    for policy in (CyclicPolicy((1, 0)), GreedyRewardPolicy())
]


@pytest.mark.parametrize("game, policy", _GRAPH_CASES)
def test_play_graph_equals_a_longhand_step_per_state(game, policy):
    graph = decoded_play_graph(_play_graph(game, policy, 10**5))
    want = longhand_play_graph(game, policy)
    assert list(graph) == list(want)  # the same states in the same order
    assert graph == want


@st.composite
def _played_games(draw) -> tuple[GameInstance, Policy]:
    """1–3 trees, profit trees or chains of distinct node or state counts
    under a scheme they admit, exact or float, and a cyclic policy of
    period 1–3, the greedy policy or the index policy."""
    backend = draw(st.sampled_from(("tree", "profit", "chain")))
    n = draw(st.integers(1, 3))
    if backend == "chain":
        sizes = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n, unique=True))
        bandits: list = [random_markov_bandit(draw(st.integers(0, 99)), n_states=m) for m in sizes]
        model = draw(st.sampled_from(CHAIN_SCHEMES + (PayoutModel.PSP,)))
    else:
        bandits = [draw(small_trees(draw(st.integers(1, 3 if n < 3 else 2)))) for _ in range(n)]
        assume(len({len(t.nodes) for t in bandits}) == n)
        if backend == "profit":
            bandits = [ProfitBandit(t, tuple(draw(st.integers(0, 3)) for _ in t.nodes)) for t in bandits]
            model = PayoutModel.TP
        else:
            model = draw(st.sampled_from([m for m in PayoutModel if m is not PayoutModel.TP]))
    if draw(st.booleans()):
        bandits = [to_float(b) for b in bandits]
    kind = draw(st.sampled_from(("cyclic", "greedy", "index")))
    if kind == "cyclic":
        policy: Policy = CyclicPolicy(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)))
    elif kind == "greedy" or model is PayoutModel.PSP:  # the penultimate scheme has no index
        policy = GreedyRewardPolicy()
    else:
        policy = IndexPolicy()
    return GameInstance(tuple(bandits), model), policy


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_played_games())
def test_play_graph_equals_a_longhand_step_per_state_on_generated_games(played):
    # integer keys decoded to (positions, phase) name the same states in the
    # same order, whatever the mixed radix's digit counts
    game, policy = played
    graph = decoded_play_graph(_play_graph(game, policy, 10**5))
    want = longhand_play_graph(game, policy)
    assert list(graph) == list(want)
    assert graph == want


@pytest.mark.parametrize(
    "game",
    [
        random_game(4, n_bandits=3, max_depth=3),
        GameInstance((random_markov_bandit(4, n_states=3), random_markov_bandit(9, n_states=4))),
    ],
    ids=["tree", "chain"],
)
def test_play_graph_history_cap_boundary(game):
    # the cap counts the graph's states: all of them pass, one fewer refuses
    policy = CyclicPolicy((0, 1))
    n = len(longhand_play_graph(game, policy))
    assert evaluate_exact(game, policy, history_cap=n) == evaluate_exact(game, policy)
    with pytest.raises(ResourceCapError, match=f"more than {n - 1} reachable product states"):
        evaluate_exact(game, policy, history_cap=n - 1)


def test_the_swept_float_chain_value_is_pinned(monkeypatch):
    # 5,184 states: the golden CLI slice has no chain this large, so this pins
    # the value the sweeps (not the dense solve) return, bit for bit
    swept = []
    sweep = linear._sweep

    def recording_sweep(*args):
        swept.append(sweep(*args))
        return swept[-1]

    monkeypatch.setattr(linear, "_sweep", recording_sweep)
    game = GameInstance(tuple(to_float(random_markov_bandit(s, n_states=12)) for s in (1, 2, 3)), PayoutModel.CP)
    value = evaluate_exact(game, CyclicPolicy((0, 1, 2)))
    assert [x is not None and x.size for x in swept] == [5184]
    assert float.hex(value) == "0x1.c5920e510a116p+3"


@pytest.mark.parametrize("game, policy", _GRAPH_CASES[:15:2] + _GRAPH_CASES[15::4])
def test_step_runs_once_per_bandit_position(monkeypatch, game, policy):
    # each compiled state reads the chosen bandit's moves from its position
    # once, from the bandit itself, and compiles no state twice
    calls: list[tuple[int, int]] = []
    for cls in (TreeBandit, MarkovBandit):

        def spy(self, x, moves=cls.moves):
            calls.append((id(self), x))
            return moves(self, x)

        monkeypatch.setattr(cls, "moves", spy)
    graph = _play_graph(game, policy, 10**5)
    assert calls == [(id(game.dynamics(i)), nodes[i]) for nodes, (i, _, _) in zip(graph.nodes, graph.states)]

    compiled: list[tuple[int, int]] = []
    keys: list = []
    compile_state = game_module._Play.compile

    def counting_compile(play, k):
        nodes, state = compile_state(play, k)
        compiled.append((id(play.game.dynamics(state[0])), nodes[state[0]]))
        keys.append(play.decode(play.keys[k]))
        return nodes, state

    monkeypatch.setattr(game_module._Play, "compile", counting_compile)
    calls.clear()
    run_policy_sampled(float_game(game), policy, seed=3, n_samples=200)
    assert calls == compiled
    assert len(keys) == len(set(keys))


def test_step_from_a_halted_node_is_refused():
    game = pair_game()
    root = game.initial_history()
    (_, halted), _ = step(game, root, 0)  # the ramp bandit's first edge halts
    assert game.dynamics(0).nodes[halted.nodes[0]].halted
    with pytest.raises(PreconditionError, match="node 1 is already halted"):
        step(game, GlobalHistory(halted.nodes), 0)
    assert [p for p, _ in step(game, GlobalHistory(halted.nodes), 1)] == [1]


def test_payout_models_disagree_on_the_same_play():
    # activate bandit 0 once (worth 1, halting onto 3 half the time), then
    # bandit 1 (worth 2, halting onto 5); each scheme reads the same two
    # branches differently
    bandits = (
        path_bandit((1, 4, 10), (HALF, ONE), halt_rewards=(3, 10)),
        path_bandit((2, 5), (ONE,)),
    )
    for model, expected in [
        (PayoutModel.CP, 7),                 # halter's landing plus the bystander
        (PayoutModel.SP, 4),                 # halter's landing alone
        (PayoutModel.PSP, Fraction(3, 2)),   # halter's value just before the halt
        (PayoutModel.NH, 3),                 # the bystander's bill, kept positive
        (PayoutModel.CCP, 2),                # every activation pays upfront
    ]:
        game = GameInstance(bandits=bandits, model=model)
        switch = TablePolicy({game.initial_history(): 0}, default=1)
        assert evaluate_exact(game, switch) == expected
        assert oracle_value(game, switch) == expected


def test_profit_game_charges_the_bystanders():
    bandits = (
        ProfitBandit(rewards=ramp_bandit(), costs=(1, 0, 2, 0)),
        ProfitBandit(rewards=sure_bandit(5), costs=(3, 0)),
    )
    game = GameInstance(bandits=bandits, model=PayoutModel.TP)
    # halt at 4 (pay partner's cost 3) or continue to 10 (same bill)
    assert evaluate_exact(game, always(0)) == HALF * (4 - 3) + HALF * (10 - 3)
    assert oracle_value(game, always(0)) == 4


def test_mismatched_bandit_kinds_are_rejected():
    with pytest.raises(PreconditionError):
        GameInstance(bandits=(ramp_bandit(), geometric_markov(1, HALF)), model=PayoutModel.CP)
    with pytest.raises(PreconditionError):
        GameInstance(bandits=(ramp_bandit(),), model=PayoutModel.TP)
    with pytest.raises(PreconditionError):
        GameInstance(
            bandits=(ProfitBandit(rewards=ramp_bandit(), costs=(0, 0, 0, 0)),),
            model=PayoutModel.CP,
        )
    with pytest.raises(PreconditionError):
        GameInstance(bandits=(), model=PayoutModel.CP)


def test_index_policy_plays_the_higher_index_first():
    game = pair_game()
    policy = IndexPolicy()
    assert policy.choose(game, game.initial_history(), 0) == 0  # 8 > 5
    survived = GlobalHistory(nodes=(2, 0))
    assert policy.choose(game, survived, 1) == 0  # 6 > 5
    assert evaluate_exact(game, policy) == 7


def test_index_policy_has_no_penultimate_variant():
    game = pair_game(PayoutModel.PSP)
    with pytest.raises(PreconditionError):
        evaluate_exact(game, IndexPolicy())


@pytest.mark.parametrize("policy_class", [IndexPolicy, BlockCommitmentIndexPolicy])
def test_one_index_policy_serves_several_schemes(policy_class):
    cp = random_game(0)
    sp = GameInstance(bandits=cp.bandits, model=PayoutModel.SP)
    reused = policy_class()
    assert evaluate_exact(cp, reused) == Fraction(111, 16)
    assert evaluate_exact(sp, reused) == evaluate_exact(sp, policy_class()) == 5


def test_block_commitment_matches_the_per_round_recomputation():
    for seed in range(8):
        game = random_game(seed)
        fresh = evaluate_exact(game, IndexPolicy())
        committed = evaluate_exact(game, BlockCommitmentIndexPolicy())
        assert fresh == committed


def _float_ccp_game(seed: int) -> GameInstance:
    exact = random_game(seed, model=PayoutModel.CCP)
    return GameInstance(bandits=tuple(to_float(b) for b in exact.bandits), model=PayoutModel.CCP)


def test_block_commitment_reads_the_cumulative_index_of_the_index_policy():
    # every prevailing index is the index policy's index at the node or at
    # one of its ancestors: the anchor of its block
    for seed in range(40):
        game = _float_ccp_game(seed)
        block, plain = BlockCommitmentIndexPolicy(), IndexPolicy()
        start = game.initial_history().nodes
        for i in range(game.n):
            tree = game.dynamics(i)

            def at(nid: int) -> GlobalHistory:
                return GlobalHistory(start[:i] + (nid,) + start[i + 1 :])

            for nid, node in enumerate(tree.nodes):
                if not node.halted:
                    anchors = {plain.indices(game, at(a))[i] for a in [nid] + tree.ancestors(nid)}
                    assert block.indices(game, at(nid))[i] in anchors
    # bandit 1's cumulative index at node 5, an anchor, is exactly 3; read off
    # prefix-sum gains it used to come out as 3.0000000000000004
    assert BlockCommitmentIndexPolicy().indices(_float_ccp_game(27), GlobalHistory((0, 5)))[1] == 3.0


def test_block_commitment_refuses_a_chain_before_building_a_table():
    chain = random_markov_bandit(0, n_states=3)
    policy = BlockCommitmentIndexPolicy()
    with pytest.raises(PreconditionError, match="tree backend"):
        evaluate_exact(GameInstance(bandits=(chain, chain)), policy)
    assert policy._tables == {}


def test_greedy_plays_the_larger_current_reward():
    game = GameInstance(
        bandits=(path_bandit((5, 3, 3), (HALF, ONE)), path_bandit((4, 2, 2), (HALF, ONE))),
        model=PayoutModel.PSP,
    )
    policy = GreedyRewardPolicy()
    assert policy.choose(game, game.initial_history(), 0) == 0
    assert policy.choose(game, GlobalHistory(nodes=(2, 0)), 1) == 1  # 3 < 4


def test_equality_and_inequality_chain_for_every_pair_policy():
    # collective value = penultimate value of the policy-diluted relabeling
    # <= penultimate value of the solo relabeling <= the index policy's,
    # which equals the collective optimum
    game = pair_game()
    y_bandits = tuple(
        equivalent_rewards(index_decomposition(b)) for b in game.bandits
    )
    y_game = GameInstance(bandits=y_bandits, model=PayoutModel.PSP)
    star = as_table(game, IndexPolicy())
    star_cp = evaluate_exact(game, star)
    star_psp = evaluate_exact(y_game, star)
    assert star_psp == star_cp == 7
    for policy in enumerate_policies(game):
        cp = evaluate_exact(game, policy)
        diluted = psp_value_with_policy_indices(game, policy)
        solo = evaluate_exact(y_game, policy)
        assert cp == diluted
        assert diluted <= solo
        assert solo <= star_psp


@pytest.mark.parametrize("seed", range(6))
def test_equality_and_inequality_chain_on_random_games(seed):
    raw = random_game(seed, max_depth=2)
    game = GameInstance(
        bandits=tuple(normalize(b) for b in raw.bandits), model=PayoutModel.CP
    )
    y_game = GameInstance(
        bandits=tuple(equivalent_rewards(index_decomposition(b)) for b in game.bandits),
        model=PayoutModel.PSP,
    )
    star = as_table(game, IndexPolicy())
    star_psp = evaluate_exact(y_game, star)
    assert evaluate_exact(game, star) == star_psp
    for policy in enumerate_policies(game):
        cp = evaluate_exact(game, policy)
        diluted = psp_value_with_policy_indices(game, policy)
        solo = evaluate_exact(y_game, policy)
        assert cp == diluted <= solo <= star_psp


def test_sampled_mean_is_reproducible_and_consistent():
    game = pair_game()
    first = run_policy_sampled(game, always(0), seed=42, n_samples=20_000)
    again = run_policy_sampled(game, always(0), seed=42, n_samples=20_000)
    assert first == again
    assert first.mean == 7.0152999999999999
    assert first.stderr == 0.021213457899168675
    assert abs(first.mean - 7) < 5 * first.stderr


def test_single_sample_of_a_deterministic_game():
    game = pair_game()
    res = run_policy_sampled(game, always(1), seed=0, n_samples=1)
    assert res.mean == 5.0
    assert res.stderr == 0.0


def _float_chain_game():
    chains = (random_markov_bandit(3, n_states=3), random_markov_bandit(5, n_states=4))
    return GameInstance(bandits=tuple(to_float(c) for c in chains), model=PayoutModel.CCP)


# Means and stderrs recorded with the per-activation sampler this one replaced.
@pytest.mark.parametrize(
    "make_game, policy, seed, mean, stderr",
    [
        pytest.param(
            _float_chain_game, CyclicPolicy((0, 0, 1)), 3,
            8.3052, 0.033668936892368495, id="float-chain-ccp-period-3",
        ),
        pytest.param(
            lambda: float_game(random_game(7, n_bandits=3)), IndexPolicy(), 7,
            10.2786, 0.0836788912412675, id="float-tree-index",
        ),
        pytest.param(
            lambda: random_game(12, model=PayoutModel.TP), GreedyRewardPolicy(), 12,
            -5.831, 0.06525258140392588, id="exact-tree-tp-greedy",
        ),
    ],
)
def test_sampled_values_are_pinned(make_game, policy, seed, mean, stderr):
    res = run_policy_sampled(make_game(), policy, seed=seed, n_samples=5000)
    assert (res.mean, res.stderr) == (mean, stderr)


def test_sampled_value_across_several_draw_chunks_is_pinned():
    n_samples = 12_411
    assert n_samples > 3 * _DRAW_CHUNK  # every episode draws at least once
    game = GameInstance(bandits=(geometric_markov((1, 2), Fraction(9, 10)),), model=PayoutModel.CCP)
    res = run_policy_sampled(game, CyclicPolicy((0,)), seed=5, n_samples=n_samples)
    assert (res.mean, res.stderr) == (14.580049955684473, 0.12626549615432656)


# Recorded with the sampler that rounded a chain's survival mass and its
# transition probability separately, float(1 - h) * float(p).
@pytest.mark.parametrize(
    "model, mean, stderr",
    [
        (PayoutModel.CP, 5.1462, 0.04349509715698241),
        (PayoutModel.CCP, 8.3052, 0.033668936892368495),
    ],
)
def test_sampled_exact_chain_values_are_pinned(model, mean, stderr):
    chains = (random_markov_bandit(3, n_states=3), random_markov_bandit(5, n_states=4))
    game = GameInstance(bandits=chains, model=model)
    res = run_policy_sampled(game, CyclicPolicy((0, 0, 1)), seed=3, n_samples=5000)
    assert (res.mean, res.stderr) == (mean, stderr)


def test_the_episode_round_cap_counts_each_episode_afresh(monkeypatch):
    monkeypatch.setattr(game_module, "_EPISODE_ROUND_CAP", 3)
    stuck = MarkovBandit(states=(MarkovState(1, 0, 0),), transitions=((1,),))  # never halts; not validated
    with pytest.raises(ResourceCapError, match="more than 3 activations, the episode round cap"):
        run_policy_sampled(GameInstance(bandits=(stuck,)), always(0), seed=0, n_samples=1)
    # every episode takes exactly 3 activations: 300 rounds in all, each episode within the cap
    game = GameInstance(bandits=(path_bandit((1, 2, 3, 5), (0, 0, ONE)),))
    res = run_policy_sampled(game, always(0), seed=0, n_samples=100)
    assert (res.mean, res.stderr) == (float(evaluate_exact(game, always(0))), 0.0)
    monkeypatch.setattr(game_module, "_EPISODE_ROUND_CAP", 2)
    with pytest.raises(ResourceCapError, match="more than 2 activations, the episode round cap"):
        run_policy_sampled(game, always(0), seed=0, n_samples=100)


def test_a_uniform_past_the_last_float_cumulative_takes_the_last_outcome(monkeypatch):
    edges = tuple(TreeEdge(to, p, True) for to, p in ((1, 0.7), (2, 0.2), (3, 0.1)))
    tree = TreeBandit(nodes=(TreeNode(0, 0.0, False, edges), *(TreeNode(1, r, True) for r in (1.0, 2.0, 4.0))))
    assert 0.7 + 0.2 + 0.1 == 1 - 2**-53  # the float cumulatives stop short of 1
    uniforms = [1 - 2**-53, 0.5, 0.75, 0.95]  # the largest uniform the generator draws lands in the gap
    chunk = SimpleNamespace(random=lambda n: np.array(uniforms))  # the first chunk is all four episodes
    monkeypatch.setattr(game_module, "_philox", lambda seed: chunk)
    res = run_policy_sampled(GameInstance(bandits=(tree,)), always(0), seed=0, n_samples=4)
    assert res.mean == (4.0 + 1.0 + 2.0 + 4.0) / 4


def _halted_and_live_sums(tree: TreeBandit):
    """Sum over halted nodes and over live nodes of reach probability times
    reward, in one forward pass (every node's parent has a smaller id)."""
    reach = [Fraction(0)] * len(tree.nodes)
    reach[tree.root] = Fraction(1)
    halted = live = Fraction(0)
    for nid, node in enumerate(tree.nodes):
        if node.halted:
            halted += reach[nid] * node.reward
            continue
        live += reach[nid] * node.reward
        for e in node.edges:
            reach[e.to] += reach[nid] * e.p
    return halted, live


def test_deep_unrolled_chain_is_evaluated_without_recursion():
    tree = unroll_markov(geometric_markov([1, 3, 0], Fraction(99, 100)))
    assert max(n.depth for n in tree.nodes) == 2292
    halted, live = _halted_and_live_sums(tree)
    for model, expected in [(PayoutModel.CP, halted), (PayoutModel.CCP, live)]:
        game = GameInstance(bandits=(tree,), model=model)
        assert evaluate_exact(game, CyclicPolicy((0,))) == expected


def _stuck_bandit() -> TreeBandit:
    """A tree whose only live edge leads to an unhalted leaf."""
    return TreeBandit(
        nodes=(
            TreeNode(0, 0, False, (TreeEdge(1, HALF, True), TreeEdge(2, HALF, False))),
            TreeNode(1, 4, True),
            TreeNode(1, 1, False),
        )
    )


def test_evaluating_an_unhalted_leaf_is_rejected():
    with pytest.raises(PreconditionError):
        evaluate_exact(GameInstance(bandits=(_stuck_bandit(),)), always(0))


@pytest.mark.parametrize("one", [1, 1.0], ids=["exact", "float"])
def test_a_chain_that_never_halts_is_a_solver_error(one):
    stuck = MarkovBandit(states=(MarkovState(one, 0 * one, 0 * one),), transitions=((one,),))
    with pytest.raises(SolverError):
        evaluate_exact(GameInstance(bandits=(stuck,)), CyclicPolicy((0,)))


def _shifted_solve(monkeypatch, shift: float, swept: bool) -> list[int]:
    """Make the dense or the swept float solve inside ``linear`` return its
    answer plus ``shift``; the list returned collects the sizes it shifted."""
    shifted = []
    if swept:
        sweep = linear._sweep

        def solve(r, c, v, b):
            x = sweep(r, c, v, b)
            if x is not None:
                shifted.append(b.size)
                x = x + shift
            return x

        monkeypatch.setattr(linear, "_sweep", solve)
    else:
        dense = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: shifted.append(b.size) or dense(a, b) + shift)
    return shifted


def test_a_float_chain_solve_that_misses_its_residual_is_a_solver_error(monkeypatch):
    # the 3-state pair makes 18 product states, which go to the dense solve;
    # three 6-state chains make 648, which are swept
    for swept, seeds, n_states in ((False, (1, 2), 3), (True, (1, 2, 3), 6)):
        game = GameInstance(bandits=tuple(to_float(random_markov_bandit(s, n_states=n_states)) for s in seeds))
        policy = CyclicPolicy(tuple(range(len(seeds))))
        monkeypatch.undo()
        value = evaluate_exact(game, policy)
        shifted = _shifted_solve(monkeypatch, 1e-15, swept)  # a miss within the backward-error test passes
        assert evaluate_exact(game, policy) == value + 1e-15
        assert shifted == [len(seeds) * n_states ** len(seeds)]
        _shifted_solve(monkeypatch, 1e-9, swept)
        with pytest.raises(SolverError, match=r"^linear system residual .* above "):
            evaluate_exact(game, policy)


@pytest.mark.parametrize("n_states", [3, 12])
@pytest.mark.parametrize("k", [10**3, 10**6])
def test_a_float_chain_game_scaled_up_keeps_its_value(n_states, k):
    # the residual of a value k times larger is k times larger too; the
    # backward-error test scales with it
    policy = CyclicPolicy((0, 1))
    value = evaluate_exact(GameInstance(tuple(scaled_markov_bandit(s, 1, n_states=n_states) for s in (1, 2))), policy)
    scaled = evaluate_exact(GameInstance(tuple(scaled_markov_bandit(s, k, n_states=n_states) for s in (1, 2))), policy)
    assert abs(scaled - k * value) <= 1e-12 * abs(k * value)


def test_an_exact_chain_with_a_halt_free_state_is_still_evaluated():
    # state 0 never halts but always moves to state 1, which halts half the time
    chain = MarkovBandit(
        states=(MarkovState(1, 0, 0), MarkovState(2, HALF, 3)),
        transitions=((0, 1), (1, 0)),
    )
    assert evaluate_exact(GameInstance(bandits=(chain,)), CyclicPolicy((0,))) == 3


def test_float_index_ties_go_to_the_lowest_id():
    exact = random_game(201, model=PayoutModel.NH)
    game = GameInstance(bandits=tuple(to_float(b) for b in exact.bandits), model=PayoutModel.NH)
    h = GlobalHistory((2, 0))
    assert IndexPolicy().indices(exact, h) == [-4, -4]
    assert IndexPolicy().indices(game, h) == [-4.0, -3.9999999999999996]
    for policy in (IndexPolicy(), BlockCommitmentIndexPolicy()):
        assert policy.choose(exact, h, 0) == 0
        assert policy.choose(game, h, 0) == 0


def test_sampling_an_unhalted_leaf_is_rejected():
    stuck = TreeBandit(
        nodes=(TreeNode(0, 0, False, (TreeEdge(1, ONE, False),)), TreeNode(1, 1, False))
    )
    with pytest.raises(PreconditionError):
        run_policy_sampled(GameInstance(bandits=(stuck,)), always(0), seed=0, n_samples=3)


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_sampling_refuses_a_seed_outside_the_key_range(seed):
    with pytest.raises(PreconditionError, match="key range"):
        run_policy_sampled(pair_game(), always(0), seed=seed, n_samples=3)


def test_sampling_refuses_a_payout_beyond_float_range():
    huge = path_bandit((0, 10**400), (ONE,))
    with pytest.raises(PreconditionError, match="float range"):
        run_policy_sampled(GameInstance(bandits=(huge,)), always(0), seed=0, n_samples=3)


def test_trace_reproduces_the_interleaving_bookkeeping():
    game = example_one_game()
    trace = trace_times(game, CyclicPolicy((0, 1)), ["survive"] * 4)
    assert [r.local_times for r in trace.rows] == [(0, 0), (1, 0), (1, 1), (2, 1)]
    assert [r.choice for r in trace.rows] == [0, 1, 0, 1]
    assert activation_rounds(trace, 0) == (0, 2)
    assert activation_rounds(trace, 1) == (1, 3)
    assert [r.survival_probability for r in trace.rows] == [
        HALF,
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(1, 16),
    ]
    assert trace.halt_round is None and trace.halter is None


def test_trace_records_the_halt_round():
    game = example_one_game()
    trace = trace_times(game, CyclicPolicy((0, 1)), ["survive", "halt"])
    assert trace.halt_round == 2
    assert trace.halter == 1
    assert trace.rows[-1].survival_probability == Fraction(1, 4)
    with pytest.raises(PreconditionError):
        trace_times(game, CyclicPolicy((0, 1)), ["survive", "halt", "survive"])


def test_trace_demands_unambiguous_outcomes():
    game = pair_game()
    trace = trace_times(game, always(0), [("survive", 2), ("halt", 3)])
    assert trace.halter == 0
    with pytest.raises(PreconditionError):
        trace_times(game, always(0), [("survive", 99)])
    with pytest.raises(PreconditionError):
        trace_times(game, always(0), ["jump"])
    # two halting edges from the root: a bare descriptor cannot pick one
    twin = TreeBandit(
        nodes=(
            TreeNode(
                depth=0,
                reward=0,
                halted=False,
                edges=(TreeEdge(to=1, p=HALF, halting=True), TreeEdge(to=2, p=HALF, halting=True)),
            ),
            TreeNode(depth=1, reward=1, halted=True, edges=()),
            TreeNode(depth=1, reward=2, halted=True, edges=()),
        ),
        root=0,
    )
    forked = GameInstance(bandits=(twin, sure_bandit(5)), model=PayoutModel.CP)
    with pytest.raises(PreconditionError):
        trace_times(forked, always(0), ["halt"])
    named = trace_times(forked, always(0), [("halt", 2)])
    assert named.halter == 0 and named.rows[0].survival_probability == HALF


def _trace_chains() -> GameInstance:
    # bandit 0 survives from state 0 to either state; bandit 1 only to state 1
    first = MarkovBandit(
        states=(MarkovState(1, HALF, 3), MarkovState(4, Fraction(1, 4), 6)),
        transitions=((HALF, HALF), (ONE, 0)),
    )
    second = MarkovBandit(
        states=(MarkovState(2, Fraction(1, 3), 0), MarkovState(5, Fraction(1, 5), 7)),
        transitions=((0, ONE), (0, ONE)),
    )
    return GameInstance(bandits=(first, second), model=PayoutModel.CP)


@pytest.mark.parametrize(
    "order, outcomes, choices, times, rewards, survival",
    [
        (
            (0, 1),
            [("survive", 1), "survive", "survive", ("halt", 1)],
            [0, 1, 0, 1],
            [(0, 0), (1, 0), (1, 1), (2, 1)],
            [1, 2, 4, 5],
            [Fraction(1, 4), Fraction(1, 6), Fraction(1, 8), Fraction(1, 40)],
        ),
        (
            (1, 1, 0),
            ["survive", "survive", ("survive", 0), ("halt", 1)],
            [1, 1, 0, 1],
            [(0, 0), (0, 1), (0, 2), (1, 2)],
            [2, 5, 1, 5],
            [Fraction(2, 3), Fraction(8, 15), Fraction(2, 15), Fraction(2, 75)],
        ),
    ],
)
def test_trace_replays_chain_games(order, outcomes, choices, times, rewards, survival):
    game = _trace_chains()
    trace = trace_times(game, CyclicPolicy(order), outcomes)
    assert [r.round for r in trace.rows] == [0, 1, 2, 3]
    assert [r.choice for r in trace.rows] == choices
    assert [r.local_times for r in trace.rows] == times
    assert [r.reward for r in trace.rows] == rewards
    assert [r.survival_probability for r in trace.rows] == survival
    assert trace.halt_round == 4 and trace.halter == 1
    unfinished = trace_times(game, CyclicPolicy(order), outcomes[:3])
    assert unfinished.rows == trace.rows[:3]
    assert unfinished.halt_round is None and unfinished.halter is None


def test_trace_on_chains_refuses_unmatched_and_ambiguous_outcomes():
    game = _trace_chains()
    alternate = CyclicPolicy((0, 1))
    # a halt lands on the state it leaves: bandit 0 halts from state 0
    assert trace_times(game, alternate, [("halt", 0)]).halter == 0
    with pytest.raises(PreconditionError, match=re.escape("round 0: no ('halt', 1) outcome for bandit 0")):
        trace_times(game, alternate, [("halt", 1)])
    with pytest.raises(PreconditionError, match=re.escape("round 1: no ('survive', 0) outcome for bandit 1")):
        trace_times(game, alternate, [("survive", 0), ("survive", 0)])
    with pytest.raises(PreconditionError, match="round 0: 'survive' is ambiguous for bandit 0; name the landing id"):
        trace_times(game, alternate, ["survive"])


def test_a_chain_state_that_halts_for_sure_has_no_survive_move():
    # state 1 halts with probability 1, so its transition to state 0 carries no mass
    chain = MarkovBandit(
        states=(MarkovState(1, HALF, 0), MarkovState(2, ONE, 5)),
        transitions=((0, ONE), (ONE, 0)),
    )
    game = GameInstance(bandits=(chain,), model=PayoutModel.CP)
    graph = decoded_play_graph(_play_graph(game, CyclicPolicy((0,)), 100))
    assert list(graph) == [((0,), 0), ((1,), 0)]
    assert all(p > 0 for _, _, rows in graph.values() for p, _, _, _ in rows)
    assert evaluate_exact(game, CyclicPolicy((0,))) == Fraction(5, 2)
    trace = trace_times(game, CyclicPolicy((0,)), ["survive", "halt"])
    assert [r.survival_probability for r in trace.rows] == [HALF, HALF]
    with pytest.raises(PreconditionError, match=re.escape("round 1: no 'survive' outcome for bandit 0")):
        trace_times(game, CyclicPolicy((0,)), ["survive"] * 3)
