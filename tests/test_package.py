"""The package's public names: one table, each name loaded from its module on first use."""

import importlib
import types

import pytest

import haltbandit

PUBLIC = [
    "BlockCommitmentIndexPolicy", "BlockValue", "CyclicPolicy", "GameInstance",
    "GittinsComparison", "GlobalHistory", "GreedyDominanceReport", "GreedyRewardPolicy",
    "HaltBanditError", "IndexBlock", "IndexDecomposition", "IndexOptimalityReport", "IndexPolicy",
    "IndexResult", "InvalidRuleError", "MarkovBandit", "MarkovState", "ModelFormatError",
    "OptimalSolution", "PayoutModel", "Policy", "PreconditionError", "ProfitBandit",
    "ResourceCapError", "SimulationResult", "SolverError", "StoppingRule", "TablePolicy", "Trace",
    "TraceRow", "TreeBandit", "TreeEdge", "TreeNode", "ValidationReport", "Violation",
    "block_value", "certify_greedy_dominance", "certify_index_optimality", "check_rule",
    "current_reward", "dp_optimal", "dumps_model", "dynamics_of", "enumerate_stopping_rules",
    "evaluate_exact", "geometric_markov", "gittins_compare", "gittins_index", "immediate_payment",
    "index_decomposition", "load_model", "loads_model", "local_times", "model_index_result",
    "policy_block_value", "policy_prevailing_index", "psp_value_with_policy_indices", "random_game",
    "random_profit_bandit", "random_tree_bandit", "reduced_bandit", "round_of", "rule_count",
    "run_policy_sampled", "save_model", "solo_index_enumerate", "solo_index_parametric", "step",
    "terminal_payout", "to_float", "trace_times", "unroll_markov", "validate",
]


def test_the_public_names_are_pinned():
    assert haltbandit.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_each_public_name_is_the_object_its_defining_module_binds(name):
    value = getattr(haltbandit, name)
    assert value.__module__.startswith("haltbandit.")
    assert getattr(importlib.import_module(value.__module__), name) is value
    assert vars(haltbandit)[name] is value  # cached after the first read


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(haltbandit))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'random_markov_bandit'"):
        haltbandit.random_markov_bandit
    assert not hasattr(haltbandit, "no_such_name")


def test_submodules_still_import_from_the_package():
    from haltbandit import pi_values

    assert isinstance(pi_values, types.ModuleType)
    assert pi_values.policy_block_value is haltbandit.policy_block_value
