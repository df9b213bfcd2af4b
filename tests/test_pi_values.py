"""Policy-diluted block values and the policy-equivalent reward maps."""

from fractions import Fraction

import pytest

from haltbandit import (
    BlockValue,
    CyclicPolicy,
    GameInstance,
    GlobalHistory,
    PayoutModel,
    PreconditionError,
    StoppingRule,
    TablePolicy,
    block_value,
    enumerate_stopping_rules,
    evaluate_exact,
    geometric_markov,
    index_decomposition,
    policy_block_value,
    policy_prevailing_index,
    psp_value_with_policy_indices,
    random_game,
    solo_index_enumerate,
    unroll_markov,
)

from helpers import (
    HALF,
    ONE,
    always,
    enumerate_policies,
    equivalent_rewards,
    normalize,
    pair_game,
    path_bandit,
    ramp_bandit,
    reachable_histories,
    reference_block_value,
    reference_prevailing_index,
)

STOP_AT_1 = StoppingRule(anchor=0, stop_set=frozenset({2}))
NEVER_STOP = StoppingRule(anchor=0, stop_set=frozenset())


def solo_game() -> GameInstance:
    return GameInstance(bandits=(ramp_bandit(),), model=PayoutModel.CP)


def test_alone_the_policy_value_is_the_block_value():
    game = solo_game()
    nu = policy_block_value(game, always(0), 0, game.initial_history(), STOP_AT_1)
    assert (nu.numerator, nu.denominator) == (4, HALF)
    assert nu == block_value(ramp_bandit(), 0, STOP_AT_1)
    assert policy_block_value(
        game, always(0), 0, game.initial_history(), NEVER_STOP
    ) == block_value(ramp_bandit(), 0, NEVER_STOP)


def test_abandonment_reads_the_reward_at_the_last_activation():
    # activate 0 once; if it survives, walk bandit 1 to its certain end.
    # bandit 0 then never reaches the 10: the numerator reads 4 on both
    # branches, while only the halting branch counts toward the denominator.
    game = pair_game()
    start = game.initial_history()
    leave = TablePolicy({start: 0}, default=1)
    nu = policy_block_value(game, leave, 0, start, NEVER_STOP)
    assert (nu.numerator, nu.denominator) == (4, HALF)


def test_stop_set_crossing_caps_the_numerator():
    # three-step bandit, policy follows it all the way down; a rule stopping
    # at local time 1 freezes the numerator at the depth-1 reward
    deep = path_bandit((0, 4, 9, 10), (HALF, HALF, ONE))
    game = GameInstance(bandits=(deep,), model=PayoutModel.CP)
    nu = policy_block_value(game, always(0), 0, game.initial_history(), STOP_AT_1)
    assert nu == block_value(deep, 0, STOP_AT_1)
    assert (nu.numerator, nu.denominator) == (4, HALF)


def test_unreachable_anchor_is_rejected():
    game = pair_game()
    after_one_step = GlobalHistory(nodes=(2, 0))
    with pytest.raises(PreconditionError):
        policy_block_value(game, always(1), 0, after_one_step, NEVER_STOP)
    # bandit 1 has two nodes, so (0, 4) has the key of the reached (2, 0)
    with pytest.raises(PreconditionError, match="never reaches"):
        policy_block_value(game, always(0), 0, GlobalHistory(nodes=(0, 4)), NEVER_STOP)


def test_undefined_when_the_policy_never_activates_the_bandit():
    game = pair_game()
    with pytest.raises(PreconditionError):
        policy_block_value(game, always(1), 0, game.initial_history(), NEVER_STOP)


def test_prevailing_map_on_a_solo_game_is_the_index():
    game = solo_game()
    dec = index_decomposition(ramp_bandit())
    values = policy_prevailing_index(game, always(0), 0, decomposition=dec)
    for h, v in values.items():
        assert v == dec.prevailing_index[h.nodes[0]]
    assert len(values) == 2  # the root history and the survived-once history


def test_prevailing_map_absence_marks_the_abandoned_block():
    # once bandit 0 survives its first step the policy leaves it forever, so
    # the second block's value is undefined there and the key is absent
    two_step_partner = path_bandit((0, 1, 1), (HALF, ONE))
    game = GameInstance(bandits=(ramp_bandit(), two_step_partner), model=PayoutModel.CP)
    start = game.initial_history()
    leave = TablePolicy({start: 0}, default=1)
    values = policy_prevailing_index(game, leave, 0)
    assert start in values
    assert values[start] == 8
    abandoned = GlobalHistory(nodes=(2, 0))
    assert abandoned in dict(reachable_histories(game, leave))
    assert abandoned not in values


@pytest.mark.parametrize("seed", range(12))
def test_policy_values_never_beat_the_solo_index(seed):
    # the diluted ratio of any block is at most the index at its anchor,
    # whatever the policy does around it
    game = random_game(seed, max_depth=2)
    policies = enumerate_policies(game)[:16]
    for policy in policies:
        for h, _ in reachable_histories(game, policy):
            for i in range(game.n):
                anchor = h.nodes[i]
                if game.dynamics(i).nodes[anchor].halted:
                    continue
                ceiling = solo_index_enumerate(game.dynamics(i), anchor).value
                for rule in enumerate_stopping_rules(game.dynamics(i), anchor):
                    try:
                        nu = policy_block_value(game, policy, i, h, rule)
                    except PreconditionError:
                        continue  # the policy never comes back: undefined
                    assert nu.ratio <= ceiling


@pytest.mark.parametrize("seed", range(12))
def test_prevailing_values_never_beat_the_equivalent_process(seed):
    game = random_game(seed, max_depth=2)
    decs = [index_decomposition(game.dynamics(i)) for i in range(game.n)]
    for policy in enumerate_policies(game)[:16]:
        for i in range(game.n):
            values = policy_prevailing_index(game, policy, i, decomposition=decs[i])
            for h, v in values.items():
                assert v <= decs[i].prevailing_index[h.nodes[i]]


def test_reward_equivalence_on_the_pair_game():
    game = pair_game()
    for policy in enumerate_policies(game):
        assert psp_value_with_policy_indices(game, policy) == evaluate_exact(game, policy)


@pytest.mark.parametrize("seed", range(10))
def test_reward_equivalence_on_normalized_games(seed):
    # with rewards pinned to zero at the root, paying the halter's diluted
    # block value just before the halt reproduces the collective payout
    raw = random_game(seed, max_depth=2)
    game = GameInstance(
        bandits=tuple(normalize(b) for b in raw.bandits), model=PayoutModel.CP
    )
    for policy in enumerate_policies(game):
        assert psp_value_with_policy_indices(game, policy) == evaluate_exact(game, policy)


@pytest.mark.parametrize(
    ("seed", "depth"), [(seed, 2) for seed in range(12)] + [(seed, 3) for seed in range(8)]
)
def test_graph_passes_equal_the_per_path_reference(seed, depth):
    # every reachable anchor, bandit and stopping rule under the first 16
    # policies: the same exact block value, or undefined on both routes
    game = random_game(seed, max_depth=depth)
    decs = [index_decomposition(game.dynamics(i)) for i in range(game.n)]
    for policy in enumerate_policies(game)[:16]:
        for i in range(game.n):
            values = policy_prevailing_index(game, policy, i, decomposition=decs[i])
            assert values == reference_prevailing_index(game, policy, i, decs[i])
        for h, _ in reachable_histories(game, policy):
            for i in range(game.n):
                anchor = h.nodes[i]
                if game.dynamics(i).nodes[anchor].halted:
                    continue
                for rule in enumerate_stopping_rules(game.dynamics(i), anchor):
                    expected = reference_block_value(game, policy, i, h, rule)
                    if expected is None:
                        with pytest.raises(PreconditionError):
                            policy_block_value(game, policy, i, h, rule)
                    else:
                        assert policy_block_value(game, policy, i, h, rule) == expected


def test_block_value_on_a_deep_tree_needs_no_recursion():
    # depth 2292: the per-path walk would recurse once per level
    tree = unroll_markov(geometric_markov([1, 3, 0], Fraction(99, 100)))
    game = GameInstance(bandits=(tree,), model=PayoutModel.CP)
    never = StoppingRule(anchor=tree.root, stop_set=frozenset())
    nu = policy_block_value(game, CyclicPolicy((0,)), 0, game.initial_history(), never)
    assert nu == BlockValue(-1, 1)


def test_prevailing_values_on_a_deep_tree():
    # depth 2292: the blocks are read off without recursion
    tree = unroll_markov(geometric_markov([1, 3, 0], Fraction(99, 100)))
    game = GameInstance(bandits=(tree,), model=PayoutModel.CP)
    alone = CyclicPolicy((0,))
    dec = index_decomposition(tree)
    # played alone the bandit's blocks are not diluted
    assert policy_prevailing_index(game, alone, 0) == {
        GlobalHistory((nid,)): v for nid, v in dec.prevailing_index.items()
    }
    relabeled = GameInstance(bandits=(equivalent_rewards(dec),), model=PayoutModel.PSP)
    assert psp_value_with_policy_indices(game, alone) == evaluate_exact(relabeled, alone)
