"""Reward relabelings, model indices, and the discounted-index comparison."""

from fractions import Fraction

import pytest

from haltbandit import (
    GameInstance,
    MarkovBandit,
    MarkovState,
    PayoutModel,
    PreconditionError,
    ProfitBandit,
    evaluate_exact,
    geometric_markov,
    gittins_compare,
    gittins_index,
    model_index_result,
    random_game,
    reduced_bandit,
    solo_index_enumerate,
    unroll_markov,
)

from helpers import (
    HALF,
    ONE,
    direct_index,
    enumerate_policies,
    oracle_value,
    path_bandit,
    ramp_bandit,
    random_markov_bandit,
)


def rewards_of(tree):
    return [n.reward for n in tree.nodes]


def test_solo_payout_relabeling():
    # live nodes zeroed, halted nodes keep the landing reward
    assert rewards_of(reduced_bandit(PayoutModel.SP, ramp_bandit())) == [0, 4, 0, 10]


def test_non_halting_relabeling():
    assert rewards_of(reduced_bandit(PayoutModel.NH, ramp_bandit())) == [0, 0, -4, 0]
    flat = path_bandit((0, 0, 0), (HALF, ONE))
    assert rewards_of(reduced_bandit(PayoutModel.NH, flat)) == [0, 0, 0, 0]


def test_cumulative_relabeling_takes_strict_prefix_sums():
    assert rewards_of(reduced_bandit(PayoutModel.CCP, ramp_bandit())) == [0, 0, 0, 4]
    climb = path_bandit((1, 2, 3), (HALF, ONE))
    assert rewards_of(reduced_bandit(PayoutModel.CCP, climb)) == [0, 1, 1, 3]


def test_profit_relabeling():
    bandit = ProfitBandit(rewards=ramp_bandit(), costs=(1, 2, 3, 4))
    assert rewards_of(reduced_bandit(PayoutModel.TP, bandit)) == [-1, 4, -3, 10]
    # the worked path: rewards (0,0,9), costs (1,2) along the way, halt pays 9
    worked = ProfitBandit(rewards=path_bandit((0, 0, 9), (HALF, ONE)), costs=(1, 0, 2, 3))
    z = rewards_of(reduced_bandit(PayoutModel.TP, worked))
    assert [z[0], z[2], z[3]] == [-1, -2, 9]
    # with no costs the profit relabeling collapses to the solo-payout one
    free = ProfitBandit(rewards=ramp_bandit(), costs=(0, 0, 0, 0))
    assert reduced_bandit(PayoutModel.TP, free) == reduced_bandit(PayoutModel.SP, ramp_bandit())


def test_markov_relabelings():
    chain = MarkovBandit(
        states=(MarkovState(reward=3, halt_prob=HALF, halt_reward=7),),
        transitions=((ONE,),),
        initial=0,
    )
    sp = reduced_bandit(PayoutModel.SP, chain)
    assert sp.states[0].reward == 0 and sp.states[0].halt_reward == 7
    nh = reduced_bandit(PayoutModel.NH, chain)
    assert nh.states[0].reward == -3 and nh.states[0].halt_reward == 0


@pytest.mark.parametrize("model", [PayoutModel.SP, PayoutModel.NH, PayoutModel.CCP])
def test_costs_are_read_under_the_terminal_profit_scheme_only(model):
    bandit = ProfitBandit(rewards=ramp_bandit(), costs=(1, 2, 3, 4))
    with pytest.raises(PreconditionError, match="not costs"):
        reduced_bandit(model, bandit)
    with pytest.raises(PreconditionError, match="not costs"):
        model_index_result(model, bandit)
    # the collective scheme reads the reward tree of any bandit
    assert reduced_bandit(PayoutModel.CP, bandit) == ramp_bandit()


@pytest.mark.parametrize("bandit", [ramp_bandit(), geometric_markov(1, HALF)], ids=["tree", "chain"])
def test_terminal_profit_needs_costs(bandit):
    with pytest.raises(PreconditionError, match="needs a bandit with costs"):
        reduced_bandit(PayoutModel.TP, bandit)


def test_cumulative_scheme_has_no_state_relabeling():
    with pytest.raises(PreconditionError, match="no state relabeling"):
        reduced_bandit(PayoutModel.CCP, geometric_markov(1, HALF))


def test_penultimate_model_has_no_relabeling():
    with pytest.raises(PreconditionError):
        reduced_bandit(PayoutModel.PSP, ramp_bandit())


MODELS = [PayoutModel.SP, PayoutModel.NH, PayoutModel.CCP, PayoutModel.TP]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("seed", range(10))
def test_reduced_collective_game_reproduces_every_policy_value(model, seed):
    game = random_game(seed, model=model, max_depth=2)
    reduced = GameInstance(
        bandits=tuple(reduced_bandit(model, b) for b in game.bandits),
        model=PayoutModel.CP,
    )
    # the rewritten collective game reproduces the target value for every
    # policy; the non-halting rewrite carries the cost with a flipped sign,
    # so maximizing the rewrite minimizes the bill
    sign = -1 if model is PayoutModel.NH else 1
    for policy in enumerate_policies(game):
        target = evaluate_exact(game, policy)
        assert target == oracle_value(game, policy)
        assert sign * target == evaluate_exact(reduced, policy)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("seed", range(8))
def test_model_index_matches_the_direct_formula(model, seed):
    game = random_game(seed, model=model, max_depth=3)
    for bandit in game.bandits:
        via_reduction = model_index_result(model, bandit).value
        root = bandit.rewards.root if isinstance(bandit, ProfitBandit) else bandit.root
        direct = direct_index(model, bandit, root)
        if model is PayoutModel.NH:
            # the non-halting index is quoted as a minimal cost rate
            assert direct == -via_reduction
        else:
            assert direct == via_reduction


def test_cumulative_index_closed_form_and_truncation():
    chain = geometric_markov((1, 2), Fraction(9, 10))
    exact = model_index_result(PayoutModel.CCP, chain).value
    assert exact == Fraction(280, 19)
    # a depth-8 truncation suffices: the even-period blocks all realize the
    # same ratio, so the truncated enumeration lands on the exact value
    tree = reduced_bandit(PayoutModel.CCP, unroll_markov(chain, max_depth=8))
    truncated = solo_index_enumerate(tree).value
    assert abs(float(truncated) - float(exact)) <= 1e-6


def test_constant_reward_cumulative_indices():
    assert model_index_result(PayoutModel.CCP, geometric_markov(1, HALF)).value == 2
    assert model_index_result(PayoutModel.CCP, geometric_markov(3, Fraction(9, 10))).value == 30


def test_discounted_comparison_constant_reward():
    rep = gittins_compare(geometric_markov(1, HALF))
    assert rep.passed
    assert rep.cumulative_index == 2
    assert rep.gittins == pytest.approx(1, abs=1e-8)
    assert rep.ratio == pytest.approx(2, abs=1e-7)


def test_discounted_comparison_alternating_chain():
    chain = geometric_markov((2, 0), HALF)
    assert model_index_result(PayoutModel.CCP, chain).value == 4
    rep = gittins_compare(chain)
    assert rep.passed
    assert rep.abs_error <= 1e-8
    assert rep.gittins == pytest.approx(2, abs=1e-8)


def test_discounted_comparison_needs_constant_halting():
    uneven = MarkovBandit(
        states=(
            MarkovState(reward=1, halt_prob=HALF, halt_reward=0),
            MarkovState(reward=2, halt_prob=Fraction(1, 4), halt_reward=0),
        ),
        transitions=((0, 1), (1, 0)),
        initial=0,
    )
    with pytest.raises(PreconditionError):
        gittins_compare(uneven)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("beta", [HALF, Fraction(9, 10)])
def test_discounted_comparison_on_random_chains(seed, beta):
    chain = random_markov_bandit(seed, n_states=3, constant_halt=1 - beta)
    rep = gittins_compare(chain)
    assert rep.passed, rep.abs_error
    assert rep.beta == pytest.approx(float(beta))


def test_calibrated_index_is_independent_of_the_ratio_machinery():
    # closed form: a constant-reward chain's discounted index is the reward
    assert gittins_index(geometric_markov(3, Fraction(9, 10)), 0) == pytest.approx(3, abs=1e-8)
