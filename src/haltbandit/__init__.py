"""Halting bandits: games that end at the first halt, and how to play them.

Each bandit carries a reward process and a positive chance of halting at
every activation; the first halt ends the game and payouts are settled by
the chosen scheme.  The package computes solo-payout indices exactly,
decomposes bandits into index blocks, reduces the alternative payout
schemes to the core one, evaluates and samples policies on product games,
and certifies index-policy optimality against a brute-force oracle.

Each public name is listed once below, beside the module that defines it;
``import haltbandit`` loads none of those modules, and reading a name
loads its module on first use (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "errors": (
        "HaltBanditError", "InvalidRuleError", "ModelFormatError", "PreconditionError",
        "ResourceCapError", "SolverError",
    ),
    "game": (
        "BlockCommitmentIndexPolicy", "CyclicPolicy", "GameInstance", "GlobalHistory",
        "GreedyRewardPolicy", "IndexPolicy", "Policy", "SimulationResult", "TablePolicy", "Trace",
        "TraceRow", "current_reward", "evaluate_exact", "immediate_payment", "local_times",
        "round_of", "run_policy_sampled", "step", "terminal_payout", "trace_times",
    ),
    "indices": (
        "BlockValue", "IndexBlock", "IndexDecomposition", "IndexResult", "StoppingRule",
        "block_value", "check_rule", "enumerate_stopping_rules", "index_decomposition",
        "rule_count", "solo_index_enumerate", "solo_index_parametric",
    ),
    "models": (
        "MarkovBandit", "MarkovState", "ProfitBandit", "TreeBandit", "TreeEdge", "TreeNode",
        "ValidationReport", "Violation", "dumps_model", "dynamics_of", "geometric_markov",
        "load_model", "loads_model", "save_model", "to_float", "unroll_markov", "validate",
    ),
    "oracle": (
        "GreedyDominanceReport", "IndexOptimalityReport", "OptimalSolution",
        "certify_greedy_dominance", "certify_index_optimality", "dp_optimal", "random_game",
        "random_profit_bandit", "random_tree_bandit",
    ),
    "pi_values": ("policy_block_value", "policy_prevailing_index", "psp_value_with_policy_indices"),
    "reductions": (
        "GittinsComparison", "PayoutModel", "gittins_compare", "gittins_index",
        "model_index_result", "reduced_bandit",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
