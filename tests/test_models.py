"""Model representations: validation, normalization, builders, serialization."""

import hashlib
import json
import math
from fractions import Fraction

import pytest

from haltbandit import (
    GameInstance,
    IndexOptimalityReport,
    MarkovBandit,
    MarkovState,
    ModelFormatError,
    PayoutModel,
    PreconditionError,
    ProfitBandit,
    StoppingRule,
    Trace,
    TraceRow,
    TreeBandit,
    TreeEdge,
    TreeNode,
    dumps_model,
    evaluate_exact,
    geometric_markov,
    load_model,
    loads_model,
    save_model,
    to_float,
    unroll_markov,
    validate,
)

from haltbandit.jsonio import Record, parse_number

from helpers import (
    HALF,
    ONE,
    enumerate_policies,
    normalize,
    pair_game,
    path_bandit,
    ramp_bandit,
    random_markov_bandit,
    sure_bandit,
)


def test_ramp_bandit_validates_cleanly():
    report = validate(ramp_bandit())
    assert report.passed
    assert report.violations == ()


def test_markov_constant_halt_validates():
    chain = geometric_markov(1, HALF)
    assert validate(chain).passed


def test_zero_halting_mass_is_flagged_at_the_node():
    nodes = (
        TreeNode(depth=0, reward=0, halted=False, edges=(TreeEdge(to=1, p=ONE, halting=False),)),
        TreeNode(depth=1, reward=1, halted=False, edges=(TreeEdge(to=2, p=ONE, halting=True),)),
        TreeNode(depth=2, reward=1, halted=True, edges=()),
    )
    report = validate(TreeBandit(nodes=nodes, root=0))
    assert not report.passed
    assert "zero-halting-mass" in report.codes()
    offender = next(v for v in report.violations if v.code == "zero-halting-mass")
    assert offender.where == "node 0"


def test_unhalted_leaf_is_flagged():
    nodes = (
        TreeNode(depth=0, reward=0, halted=False, edges=(TreeEdge(to=1, p=ONE, halting=False),)),
        TreeNode(depth=1, reward=2, halted=False, edges=()),
    )
    codes = validate(TreeBandit(nodes=nodes, root=0)).codes()
    assert "unhalted-leaf" in codes
    assert "zero-halting-mass" in codes


def test_bad_probability_sum_is_flagged():
    nodes = (
        TreeNode(depth=0, reward=0, halted=False, edges=(TreeEdge(to=1, p=Fraction(9, 10), halting=True),)),
        TreeNode(depth=1, reward=1, halted=True, edges=()),
    )
    assert "edge-probability-sum" in validate(TreeBandit(nodes=nodes, root=0)).codes()


def test_markov_violations():
    bad_halt = MarkovBandit(
        states=(MarkovState(reward=1, halt_prob=0, halt_reward=0),),
        transitions=((ONE,),),
        initial=0,
    )
    assert "zero-halting-mass" in validate(bad_halt).codes()
    bad_row = MarkovBandit(
        states=(MarkovState(reward=1, halt_prob=HALF, halt_reward=0),),
        transitions=((HALF,),),
        initial=0,
    )
    assert "row-sum" in validate(bad_row).codes()


def test_exact_probability_sums_must_equal_one():
    over = HALF + Fraction(1, 10**13)
    nodes = (
        TreeNode(depth=0, reward=0, halted=False, edges=(TreeEdge(1, HALF, True), TreeEdge(2, over, True))),
        TreeNode(depth=1, reward=1, halted=True),
        TreeNode(depth=1, reward=2, halted=True),
    )
    tree = TreeBandit(nodes=nodes, root=0)
    assert "edge-probability-sum" in validate(tree).codes()
    chain = MarkovBandit(
        states=(MarkovState(1, HALF, 0), MarkovState(2, HALF, 0)),
        transitions=((HALF, over), (HALF, HALF)),
    )
    assert "row-sum" in validate(chain).codes()
    # float totals keep their rounding tolerance
    assert validate(to_float(tree)).passed
    assert validate(to_float(chain)).passed


def test_float_mode_reads_integer_literals_as_floats():
    assert parse_number(3) == 3.0 and isinstance(parse_number(3), float)
    assert parse_number(3, rational=True) == 3 and not isinstance(parse_number(3, rational=True), float)
    doc = dumps_model([MarkovBandit(states=(MarkovState(2, 1, 0),), transitions=((1,),))])
    assert not loads_model(doc)[0].is_exact()
    assert loads_model(doc, rational=True)[0].is_exact()


def test_depth_and_branching_limits_are_configurable():
    tree = ramp_bandit()
    assert "depth-limit" in validate(tree, max_depth=1).codes()
    assert validate(tree, max_depth=None, max_branching=None).passed


def test_normalize_shifts_every_reward_by_the_root_value():
    shifted = path_bandit((3, 5, 2), (HALF, ONE))
    normed = normalize(shifted)
    assert [n.reward for n in normed.nodes] == [0, 2, 2, -1]
    assert normed.nodes[normed.root].reward == 0


def test_normalize_is_identity_at_zero_root_and_idempotent():
    tree = ramp_bandit()
    assert normalize(tree) == tree
    shifted = path_bandit((3, 5, 2), (HALF, ONE))
    assert normalize(normalize(shifted)) == normalize(shifted)


def test_normalize_shifts_collective_values_by_the_root_sum():
    # raise bandit 0 by 3 and bandit 1 by 2: every policy value moves by 5
    raised = GameInstance(
        bandits=(path_bandit((3, 7, 13), (HALF, ONE)), path_bandit((2, 7), (ONE,))),
        model=PayoutModel.CP,
    )
    base = pair_game()
    for policy in enumerate_policies(base):
        assert evaluate_exact(raised, policy) == evaluate_exact(base, policy) + 5


def test_geometric_markov_single_state():
    chain = geometric_markov(1, HALF)
    assert len(chain.states) == 1
    assert chain.states[0].reward == 1
    assert chain.states[0].halt_prob == HALF
    assert chain.transitions == ((1,),)


def test_geometric_markov_cycle():
    chain = geometric_markov((1, 2), Fraction(9, 10))
    assert [s.reward for s in chain.states] == [1, 2]
    assert all(s.halt_prob == Fraction(1, 10) for s in chain.states)
    assert chain.transitions == ((0, 1), (1, 0))
    assert validate(chain).passed


def test_geometric_markov_rejects_degenerate_survival():
    with pytest.raises(PreconditionError):
        geometric_markov(1, 1)
    with pytest.raises(PreconditionError):
        geometric_markov(1, 0)


def test_unroll_markov_is_valid_and_halts_at_the_cut():
    tree = unroll_markov(geometric_markov(1, HALF), max_depth=6)
    assert validate(tree, max_depth=None).passed
    deepest = max(n.depth for n in tree.nodes)
    assert deepest == 6
    for n in tree.nodes:
        if not n.halted and n.depth == deepest - 1:
            assert len(n.edges) == 1 and n.edges[0].halting


def test_unrolling_a_chain_state_that_halts_for_sure_keeps_no_zero_edge():
    chain = MarkovBandit(
        states=(MarkovState(1, HALF, 0), MarkovState(2, ONE, 5)),
        transitions=((0, ONE), (ONE, 0)),
    )
    assert validate(chain).passed
    tree = unroll_markov(chain)
    assert validate(tree, max_depth=None).passed
    assert [len(n.edges) for n in tree.nodes if not n.halted] == [2, 1]


def test_unrolled_trees_are_pinned():
    # SHA-256 of the model document of these unrolled chains, recorded with
    # the builder that numbered every node before it knew the node's edges
    trees = [unroll_markov(random_markov_bandit(seed, n_states=3), max_depth=4) for seed in range(5)]
    trees.append(unroll_markov(geometric_markov([1, 3, 0], Fraction(9, 10))))
    trees.append(unroll_markov(to_float(random_markov_bandit(7, n_states=2)), max_depth=5))
    assert sum(len(t.nodes) for t in trees) == 710
    digest = hashlib.sha256(dumps_model(trees).encode()).hexdigest()
    assert digest == "b49c706f901477237ce42dbdeacb0c90cc17b83654a4bdccdaf59c3953e02826"


def test_model_document_round_trip_is_byte_identical():
    bandits = [ramp_bandit(), sure_bandit(5)]
    text = dumps_model(bandits)
    loaded = loads_model(text, rational=True)
    assert loaded == bandits
    assert dumps_model(loaded) == text


def test_profit_document_round_trip_is_byte_identical(tmp_path):
    bandits = [
        ProfitBandit(rewards=ramp_bandit(), costs=(1, HALF, 3, 0)),
        ProfitBandit(rewards=sure_bandit(5), costs=(2, 0)),
    ]
    first, second = tmp_path / "costs.json", tmp_path / "again.json"
    save_model(bandits, first)
    text = first.read_text()
    assert '"costs"' in text
    loaded = load_model(first, rational=True)
    assert loaded == bandits
    save_model(loaded, second)
    assert second.read_text() == text


def test_profit_violations():
    assert validate(ProfitBandit(rewards=ramp_bandit(), costs=(1, 2, 3))).codes() == {"cost-shape"}
    report = validate(ProfitBandit(rewards=ramp_bandit(), costs=(1, math.inf, 3, math.nan)))
    assert report.codes() == {"non-finite-cost"}
    assert [v.where for v in report.violations] == ["node 1", "node 3"]


@pytest.mark.parametrize(
    "costs, message",
    [
        ([[0, 0, 0, 0]], "'costs' must align with 'bandits'"),
        ([[0, 0, 0], None], "cost row must align with the node list"),
        ([None, [0, 0]], "costs apply to tree bandits only"),
    ],
)
def test_misaligned_cost_rows_are_refused(costs, message):
    doc = json.loads(dumps_model([ramp_bandit(), geometric_markov(1, HALF)]))
    doc["costs"] = costs
    with pytest.raises(ModelFormatError, match=message):
        loads_model(json.dumps(doc))


@pytest.mark.parametrize("literal", ["1e400", "-1e400", 10**400])
def test_float_mode_refuses_a_literal_beyond_float_range(literal):
    with pytest.raises(ModelFormatError, match="non-finite number"):
        parse_number(literal)
    assert parse_number(literal, rational=True) == Fraction(literal)


def test_parser_accepts_decimal_strings_and_floats():
    text = dumps_model([ramp_bandit()]).replace('"1/2"', "0.5")
    exact = loads_model(text, rational=True)[0]
    assert exact.nodes[0].edges[0].p == HALF
    inexact = loads_model(dumps_model([ramp_bandit()]))[0]
    assert inexact.nodes[0].edges[0].p == 0.5


def test_a_record_writes_its_fields_in_declaration_order():
    report = IndexOptimalityReport(
        index_value=HALF, optimal_value=ONE, gap=HALF, histories_compared=3,
        action_disagreements=1, tolerance=1e-10, passed=False,
    )
    assert isinstance(report, Record)
    assert list(report.to_obj().items()) == [
        ("index_value", HALF), ("optimal_value", ONE), ("gap", HALF), ("histories_compared", 3),
        ("action_disagreements", 1), ("tolerance", 1e-10), ("pass", False),
    ]


def test_a_record_converts_nested_records_tuples_and_sets():
    rows = (TraceRow(0, (0, 0), 0, 0, HALF), TraceRow(1, (1, 0), 0, 4, HALF))
    assert Trace(rows=rows, halt_round=2, halter=0).to_obj() == {
        "rows": [
            {"round": 0, "local_times": [0, 0], "choice": 0, "reward": 0, "survival_probability": HALF},
            {"round": 1, "local_times": [1, 0], "choice": 0, "reward": 4, "survival_probability": HALF},
        ],
        "halt_round": 2,
        "halter": 0,
    }
    assert StoppingRule(anchor=0, stop_set=frozenset({7, 2, 5})).to_obj() == {"anchor": 0, "stop_set": [2, 5, 7]}


def test_to_float_converts_probabilities_and_rewards():
    tree = to_float(ramp_bandit())
    assert isinstance(tree.nodes[0].edges[0].p, float)
    assert evaluate_exact(
        GameInstance(bandits=(tree,), model=PayoutModel.CP), enumerate_policies(
            GameInstance(bandits=(tree,), model=PayoutModel.CP)
        )[0]
    ) == pytest.approx(7.0)
