"""Index solvers: block values, enumeration vs parametric iteration, blocks."""

import hashlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haltbandit import (
    BlockValue,
    InvalidRuleError,
    MarkovBandit,
    MarkovState,
    PayoutModel,
    PreconditionError,
    StoppingRule,
    block_value,
    enumerate_stopping_rules,
    index_decomposition,
    model_index_result,
    random_tree_bandit,
    reduced_bandit,
    rule_count,
    solo_index_enumerate,
    solo_index_parametric,
    to_float,
    unroll_markov,
    geometric_markov,
    validate,
)

from haltbandit.indices import _first_below, _gain_index, _gains, _index_table
from haltbandit.models import ProfitBandit, TreeBandit
from haltbandit.reductions import _index_form

from helpers import (
    HALF,
    ONE,
    CHAIN_SCHEMES,
    chain_indices_by_stop_sets,
    chain_stop_set_ratios,
    equivalent_rewards,
    index_corpus,
    index_times,
    live_last_bandit,
    parametric_stopping_value,
    path_bandit,
    ramp_bandit,
    random_markov_bandit,
    small_chains,
    small_trees,
    sure_bandit,
)

STOP_AT_1 = StoppingRule(anchor=0, stop_set=frozenset({2}))
NEVER_STOP = StoppingRule(anchor=0, stop_set=frozenset())


def test_block_value_stop_after_one_step():
    bv = block_value(ramp_bandit(), 0, STOP_AT_1)
    assert bv == BlockValue(numerator=4, denominator=HALF)
    assert bv.ratio == 8


def test_block_value_never_stop():
    bv = block_value(ramp_bandit(), 0, NEVER_STOP)
    assert bv.numerator == 7
    assert bv.denominator == 1
    assert bv.ratio == 7


def test_block_value_sure_halt_has_unit_denominator():
    bv = block_value(sure_bandit(5), 0, NEVER_STOP)
    assert bv.denominator == 1
    assert bv.ratio == 5


def test_rule_enumeration_on_the_ramp():
    assert rule_count(ramp_bandit(), 0) == 2
    rules = enumerate_stopping_rules(ramp_bandit(), 0)
    assert {r.stop_set for r in rules} == {frozenset(), frozenset({2})}


def test_enumerated_index_picks_the_better_rule():
    res = solo_index_enumerate(ramp_bandit())
    assert res.value == 8
    assert res.rule.stop_set == frozenset({2})
    assert res.iterations == 2


def test_zero_rewards_have_zero_index():
    flat = path_bandit((0, 0, 0), (HALF, ONE))
    assert solo_index_enumerate(flat).value == 0
    assert solo_index_parametric(flat).value == 0


def test_sure_halt_index_is_the_landing_value():
    assert solo_index_enumerate(sure_bandit(5)).value == 5
    assert solo_index_parametric(sure_bandit(5)).value == 5


def test_parametric_iteration_trace_on_the_ramp():
    res = solo_index_parametric(ramp_bandit())
    assert res.value == 8
    assert res.rule.stop_set == frozenset({2})
    assert res.iterations == 2
    # first pass charges the never-stop ratio 7 and finds residual value 1/2;
    # the improving rule's ratio 8 then zeroes the parametric problem
    assert res.trace == ((7, HALF), (8, 0))


def test_parametric_value_is_zero_at_the_index():
    value, rule = parametric_stopping_value(ramp_bandit(), 0, 8)
    assert value == 0
    assert rule.stop_set == frozenset({2})


def test_markov_relabeled_single_state_index():
    chain = MarkovBandit(
        states=(MarkovState(reward=0, halt_prob=HALF, halt_reward=10),),
        transitions=((ONE,),),
        initial=0,
    )
    relabeled = reduced_bandit(PayoutModel.SP, chain)
    assert solo_index_parametric(relabeled).value == 10


def test_deep_anchor_index():
    assert solo_index_parametric(ramp_bandit(), 2).value == 6
    assert solo_index_enumerate(ramp_bandit(), 2).value == 6


def test_invalid_rules_are_rejected():
    tree = ramp_bandit()
    with pytest.raises(InvalidRuleError):
        block_value(tree, 0, StoppingRule(anchor=0, stop_set=frozenset({0})))
    with pytest.raises(InvalidRuleError):
        block_value(tree, 2, StoppingRule(anchor=2, stop_set=frozenset({0})))
    with pytest.raises(InvalidRuleError):
        block_value(tree, 0, StoppingRule(anchor=2, stop_set=frozenset()))
    with pytest.raises(InvalidRuleError):
        solo_index_enumerate(ramp_bandit(), 1)  # halted anchor


def test_anchor_outside_the_tree_is_refused():
    with pytest.raises(PreconditionError):
        solo_index_parametric(ramp_bandit(), 4)
    with pytest.raises(PreconditionError):
        solo_index_parametric(ramp_bandit(), -1)


@pytest.mark.parametrize("anchor", [99, 4, -1])
def test_enumeration_refuses_an_anchor_outside_the_tree(anchor):
    # refused before any node is read: -1 is not the (live) last node
    tree = live_last_bandit()
    assert validate(tree).passed
    with pytest.raises(PreconditionError):
        enumerate_stopping_rules(tree, anchor)
    with pytest.raises(PreconditionError):
        solo_index_enumerate(tree, anchor)


def test_decomposition_of_the_ramp():
    dec = index_decomposition(ramp_bandit())
    assert [b.value for b in dec.blocks] == [8, 6]
    assert [b.anchor for b in dec.blocks] == [0, 2]
    assert [b.level for b in dec.blocks] == [0, 1]
    assert dec.blocks[0].rule.stop_set == frozenset({2})
    assert dec.blocks[1].parent == 0
    assert 1 + max(b.level for b in dec.blocks) == 2
    assert dec.prevailing_index == {0: 8, 2: 6}
    assert index_times(dec, 1).stop_set == frozenset({2})


def test_single_step_bandit_has_one_block_worth_its_landing():
    dec = index_decomposition(sure_bandit(5))
    assert len(dec.blocks) == 1
    assert dec.blocks[0].value == 5


def test_equivalent_rewards_on_the_ramp():
    relabeled = equivalent_rewards(index_decomposition(ramp_bandit()))
    assert [n.reward for n in relabeled.nodes] == [8, 8, 6, 6]
    # relabeling keeps the shape: same edges, same probabilities
    assert [n.edges for n in relabeled.nodes] == [n.edges for n in ramp_bandit().nodes]


@pytest.mark.parametrize("seed", range(25))
def test_solver_agreement_and_rule_dominance(seed):
    bandit = random_tree_bandit(seed)
    enum = solo_index_enumerate(bandit)
    para = solo_index_parametric(bandit)
    assert para.value == enum.value
    assert para.iterations <= rule_count(bandit, bandit.root)
    # dominance: no rule beats the index; realization: some rule attains it
    assert block_value(bandit, bandit.root, enum.rule).ratio == enum.value
    for rule in enumerate_stopping_rules(bandit, bandit.root):
        assert block_value(bandit, bandit.root, rule).ratio <= enum.value
    # the parametric problem is exactly solvable at the index
    value, _ = parametric_stopping_value(bandit, bandit.root, para.value)
    assert value == 0


@pytest.mark.parametrize("seed", range(25))
def test_blocks_are_monotone_and_self_consistent(seed):
    bandit = random_tree_bandit(seed, max_depth=4)
    dec = index_decomposition(bandit)
    for nid, node in enumerate(bandit.nodes):
        if node.halted:
            continue
        for e in bandit.continuation_edges(nid):
            assert dec.prevailing_index[e.to] <= dec.prevailing_index[nid]
    relabeled = equivalent_rewards(dec)
    for nid, node in enumerate(relabeled.nodes):
        for e in node.edges:
            assert relabeled.nodes[e.to].reward <= node.reward
    # each block's rule realizes its value: numerator = value * denominator
    for b in dec.blocks:
        bv = block_value(bandit, b.anchor, b.rule)
        assert bv.ratio == b.value
        assert bv.numerator == b.value * bv.denominator
        # and the block value is the index at its anchor
        assert solo_index_parametric(bandit, b.anchor).value == b.value


def test_cumulative_markov_index_closed_forms():
    assert model_index_result(PayoutModel.CCP, geometric_markov(1, HALF)).value == 2
    res = model_index_result(PayoutModel.CCP, geometric_markov((1, 2), Fraction(9, 10)))
    assert res.value == Fraction(280, 19)
    assert res.rule == frozenset({0})


def test_markov_index_agrees_with_its_unrolled_tree():
    chain = geometric_markov((1, 2), Fraction(9, 10), halt_rewards="reward")
    stationary = solo_index_parametric(chain)
    tree = unroll_markov(chain)
    assert isinstance(tree, TreeBandit)
    unrolled = solo_index_parametric(tree)
    assert abs(float(unrolled.value) - float(stationary.value)) <= 1e-8


# SHA-256 over repr((value, sorted stop set, iterations, trace)) for every
# result of ``index_corpus``, recorded with the three-form solver (separate
# tree, plain-chain and cumulative-chain problems) that the gain form replaced.
INDEX_CORPUS_PIN = "5258348ed78226d6f8bf7a185d97d6081c67eb9152b7e1813bbae08e6509dbe2"


@pytest.fixture(scope="module")
def corpus_results():
    return [(m, b, a, model_index_result(m, b, a)) for m, b, a in index_corpus()]


def _stops(rule):
    return rule.stop_set if isinstance(rule, StoppingRule) else rule


def test_exact_index_results_are_pinned(corpus_results):
    digest = hashlib.sha256()
    for _, _, _, res in corpus_results:
        digest.update(repr((res.value, sorted(_stops(res.rule)), res.iterations, res.trace)).encode())
    assert len(corpus_results) == 1158
    assert digest.hexdigest() == INDEX_CORPUS_PIN


def test_float_indices_agree_with_exact_ones(corpus_results):
    for model, bandit, anchor, res in corpus_results:
        approx = model_index_result(model, to_float(bandit), anchor)
        assert isinstance(approx.value, float)
        assert abs(approx.value - res.value) <= 1e-12 * max(1, abs(res.value)), (model, anchor)
        # ties settle within the tolerance, so floats find the exact earliest rule
        assert _stops(approx.rule) == _stops(res.rule), (model, anchor)


@pytest.mark.parametrize("seed", range(30))
def test_chain_index_is_the_best_stop_set_ratio(seed):
    for n in (3, 4, 5):
        chain = random_markov_bandit(seed, n_states=n)
        for anchor in range(n):
            best = chain_indices_by_stop_sets(chain, anchor)
            for model in CHAIN_SCHEMES:
                res = model_index_result(model, chain, anchor)
                assert res.value == best[model]
                assert chain_stop_set_ratios(chain, anchor, res.rule)[model] == res.value


def test_the_enumeration_oracle_needs_no_recursion():
    # at survival 1/2 the deepest probabilities also fall below the least float
    depth = sys.getrecursionlimit() + 100
    tree = unroll_markov(geometric_markov([1, 3, 0], 0.5), max_depth=depth)
    assert rule_count(tree, tree.root) == depth
    enum = solo_index_enumerate(tree)
    assert enum.iterations == depth
    assert block_value(tree, tree.root, enum.rule).ratio == enum.value
    assert enum.value == pytest.approx(solo_index_parametric(tree).value, rel=1e-12)
    assert enum.value == pytest.approx(_index_table(tree, _gains(tree))[tree.root], rel=1e-12)


def _root_block_path(n):
    # the halting rewards fall with depth below a root that halts badly, so
    # every hinge is popped at the root, shallowest first; the path
    # probabilities fall to 2^-n
    halt_rewards = (-(n * n),) + tuple(range(n - 1, 0, -1))
    return path_bandit((0,) * (n + 1), (HALF,) * (n - 1) + (ONE,), halt_rewards)


def _depth_2292_chain():
    tree = unroll_markov(geometric_markov([1, 3, 0], Fraction(99, 100)))
    assert max(node.depth for node in tree.nodes) == 2292
    return tree


def test_exact_tree_table_on_a_deep_path_whose_root_block_takes_in_every_node():
    # each pop's walk up the parent links meets the links the previous pop
    # compressed, where an uncompressed walk would climb the whole path every time
    n = 2000
    tree = _root_block_path(n)
    gains = _gains(tree)
    table = _index_table(tree, gains)
    assert len(index_decomposition(tree).blocks) == 1
    for anchor in (0, 2, n, 2 * n - 2):
        assert table[anchor] == _gain_index(tree, anchor, gains).value


def test_exact_tree_table_on_the_depth_2292_unrolled_chain():
    tree = _depth_2292_chain()
    gains = _gains(tree)
    table = _index_table(tree, gains)
    live = [nid for nid, node in enumerate(tree.nodes) if not node.halted]
    for anchor in live[::500]:
        assert table[anchor] == _gain_index(tree, anchor, gains).value


@pytest.mark.parametrize("build", [lambda: _root_block_path(2000), _depth_2292_chain], ids=["path", "chain"])
def test_deep_float_tree_tables_match_the_exact_ones_at_every_live_node(build):
    tree = build()
    exact = _index_table(tree, _gains(tree))
    floats = to_float(tree)
    approx = _index_table(floats, _gains(floats))
    for nid, node in enumerate(tree.nodes):
        if node.halted:
            assert exact[nid] is None and approx[nid] is None
        else:
            assert isinstance(approx[nid], float)
            assert abs(approx[nid] - exact[nid]) <= 1e-12 * abs(exact[nid]), nid


def _blocks(dec):
    return [(b.anchor, b.level, b.parent, b.rule.stop_set) for b in dec.blocks]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_trees(4), st.sampled_from([m for m in PayoutModel if m is not PayoutModel.PSP]), st.data())
def test_index_table_matches_the_ratio_iteration_on_trees(tree, model, data):
    if model is PayoutModel.TP:
        tree = ProfitBandit(tree, tuple(data.draw(st.integers(0, 3)) for _ in tree.nodes))
    dyn, gains = _index_form(model, tree)
    table = _index_table(dyn, gains)
    approx = _index_table(*_index_form(model, to_float(tree)))
    for anchor, node in enumerate(dyn.nodes):
        if node.halted:
            assert table[anchor] is None
            continue
        res = _gain_index(dyn, anchor, gains)
        assert table[anchor] == res.value
        # the earliest optimal rule stops at the first nodes whose index is no larger
        assert _first_below(dyn, anchor, lambda y: table[y] <= table[anchor])[1] == res.rule.stop_set
        assert abs(approx[anchor] - res.value) <= 1e-12 * max(1, abs(res.value))
    reduced = reduced_bandit(model, tree)
    assert _blocks(index_decomposition(to_float(reduced))) == _blocks(index_decomposition(reduced))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_chains(8), st.sampled_from(CHAIN_SCHEMES))
def test_index_table_matches_the_ratio_iteration_on_chains(chain, model):
    dyn, gains = _index_form(model, chain)
    table = _index_table(dyn, gains)
    approx = _index_table(*_index_form(model, to_float(chain)))
    for anchor in range(len(chain.states)):
        res = _gain_index(dyn, anchor, gains)
        assert table[anchor] == res.value
        # the stop set holds every state whose index is no larger, the anchor included
        assert frozenset(y for y, v in enumerate(table) if v <= table[anchor]) == res.rule
        assert abs(approx[anchor] - res.value) <= 1e-12 * max(1, abs(res.value))
