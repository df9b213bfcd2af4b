"""End-to-end command-line checks: exit codes and canonical output."""

import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from haltbandit import (
    GameInstance,
    MarkovBandit,
    MarkovState,
    PayoutModel,
    ProfitBandit,
    TreeBandit,
    TreeEdge,
    TreeNode,
    dumps_model,
    evaluate_exact,
    geometric_markov,
    load_model,
    loads_model,
    random_game,
    save_model,
    to_float,
    unroll_markov,
)
from haltbandit.cli import main
from haltbandit.oracle import _policy_count

from helpers import (
    HALF,
    ONE,
    always,
    live_last_bandit,
    make_nonincreasing,
    pair_game,
    path_bandit,
    ramp_bandit,
    random_markov_bandit,
    scaled_markov_bandit,
    sure_bandit,
    unlimited_int_digits,
)


@pytest.fixture()
def pair_path(tmp_path):
    path = tmp_path / "pair.json"
    save_model(list(pair_game().bandits), path)
    return str(path)


@pytest.fixture()
def chain_path(tmp_path):
    path = tmp_path / "chain.json"
    save_model([geometric_markov((1, 2), Fraction(9, 10))], path)
    return str(path)


@pytest.fixture()
def short_path(tmp_path):
    # the root's only edge carries probability 3/4: `validate` flags it
    path = tmp_path / "short.json"
    short = TreeBandit(
        nodes=(TreeNode(0, 0, False, (TreeEdge(1, Fraction(3, 4), True),)), TreeNode(1, 8, True))
    )
    save_model([short], path)
    return str(path)


@pytest.fixture()
def costs_path(tmp_path):
    # the pair game's bandits with running costs, for the terminal-profit scheme
    path = tmp_path / "costs.json"
    ramp, sure = pair_game().bandits
    save_model([ProfitBandit(rewards=ramp, costs=(1, 2, 3, 4)), ProfitBandit(rewards=sure, costs=(2, 0))], path)
    return str(path)


@pytest.fixture(scope="module")
def deep_path(tmp_path_factory):
    # depth 2292, deeper than the interpreter's recursion limit
    path = tmp_path_factory.mktemp("deep") / "deep.json"
    save_model([unroll_markov(geometric_markov([1, 3, 0], Fraction(99, 100)))], path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_validate_accepts_a_clean_model(capsys, pair_path):
    code, out = run(capsys, "validate", "--model", pair_path, "--rational")
    doc = json.loads(out)
    assert code == 0
    assert doc == {"schema": 1, "valid": True, "violations": []}


def test_validate_flags_a_bandit_that_never_halts(capsys, tmp_path):
    path = tmp_path / "stuck.json"
    stuck = MarkovBandit(states=(MarkovState(1, 0, 0),), transitions=((1,),))
    save_model([stuck], path)
    code, out = run(capsys, "validate", "--model", str(path))
    doc = json.loads(out)
    assert code == 1
    assert doc["valid"] is False
    assert any(v["code"] == "zero-halting-mass" and v["bandit"] == 0 for v in doc["violations"])


def test_validate_caps_depth_only_when_asked(capsys, deep_path):
    code, out = run(capsys, "validate", "--model", deep_path, "--rational")
    assert code == 0
    assert json.loads(out)["valid"] is True
    code, out = run(capsys, "validate", "--model", deep_path, "--rational", "--max-depth", "12")
    assert code == 1
    assert {v["code"] for v in json.loads(out)["violations"]} == {"depth-limit"}


def test_index_of_a_deep_tree(capsys, deep_path):
    code, out = run(capsys, "index", "--model", deep_path, "--rational")
    assert code == 0
    assert json.loads(out)["value"] == 197


@pytest.mark.parametrize(
    "command",
    [("evaluate", "--policy", "index"), ("evaluate", "--policy", "index-block"), ("certify",)],
    ids=["index", "index-block", "certify"],
)
def test_index_policies_play_a_deep_tree(capsys, deep_path, command):
    code = main([command[0], "--model", deep_path, "--rational", *command[1:]])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err


def test_block_commitment_on_a_chain_exits_four(capsys, chain_path):
    code = main(["evaluate", "--model", chain_path, "--rational", "--policy", "index-block"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "tree backend" in captured.err


def test_malformed_json_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run(capsys, "validate", "--model", str(path))
    assert code == 2


_MALFORMED = {
    "edges-int": {"edges": 5},
    "edges-null": {"edges": None},
    "reward-literal-beyond-float": {"reward": "1e400"},
    "reward-int-beyond-float": {"reward": 10**400},
    "reward-exponent-past-int-limit": {"reward": "1e1000000000"},
}
_EVERY_SUBCOMMAND = [
    ("validate",),
    ("index",),
    ("evaluate", "--policy", "index"),
    ("simulate", "--policy", "index", "--samples", "10"),
    ("optimal",),
    ("reduce", "--payout", "SP"),
    ("certify",),
    ("gittins",),
    ("trace", "--policy", "index", "--outcomes", "h"),
]


@pytest.mark.parametrize("command", _EVERY_SUBCOMMAND, ids=lambda c: c[0])
@pytest.mark.parametrize("fault", sorted(_MALFORMED))
def test_malformed_documents_exit_two(capsys, tmp_path, command, fault):
    doc = json.loads(dumps_model(list(pair_game().bandits)))
    doc["bandits"][0]["nodes"][0].update(_MALFORMED[fault])
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code = main([command[0], "--model", str(path), *command[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_a_boolean_node_id_exits_two(capsys, tmp_path):
    # a JSON true is an int to isinstance, so it once loaded as node 1
    doc = json.loads(dumps_model(list(pair_game().bandits)))
    doc["bandits"][0]["nodes"][1]["id"] = True
    path = tmp_path / "boolean-id.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", "--model", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "bandit 0: node id True must index the node list" in captured.err


@pytest.mark.parametrize(
    "command, bandits",
    [
        (("simulate", "--policy", "index", "--samples", "10"), [path_bandit((0, 10**400), (ONE,)), sure_bandit(5)]),
        (("gittins",), [geometric_markov((1, 10**400), Fraction(1, 2))]),
    ],
    ids=["simulate", "gittins"],
)
def test_exact_numbers_beyond_float_range_exit_four_where_floats_are_needed(capsys, tmp_path, command, bandits):
    path = tmp_path / "huge.json"
    save_model(bandits, path)
    code = main([command[0], "--model", str(path), "--rational", *command[1:]])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "float" in captured.err
    assert "Traceback" not in captured.err


# every reward ±1.7e308: a valid float model whose sums overflow to ±inf,
# and with mixed signs to an infinite index and NaN differences
ALL_HUGE, MIXED_SIGNS = (1, 1, 1, 1, 1, 1), (1, 1, 1, 1, -1, 1)


def exits_four_beyond_float_range(capsys, tmp_path, signs, command):
    doc = json.loads(dumps_model(list(pair_game().bandits)))
    for node, sign in zip((n for b in doc["bandits"] for n in b["nodes"]), signs, strict=True):
        node["reward"] = sign * 1.7e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--model", str(path)]) == 0
    capsys.readouterr()
    code = main([command[0], "--model", str(path), *command[1:]])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "float range" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command",
    [
        ("evaluate", "--policy", "index"),
        ("simulate", "--policy", "index", "--samples", "10"),
        ("optimal",),
        ("certify",),
    ],
    ids=lambda c: c[0],
)
@pytest.mark.parametrize("signs", [ALL_HUGE, MIXED_SIGNS], ids=["all-huge", "mixed-signs"])
def test_float_values_beyond_float_range_exit_four(capsys, tmp_path, command, signs):
    exits_four_beyond_float_range(capsys, tmp_path, signs, command)


@pytest.mark.parametrize(
    "signs, bandit, payout",
    [(ALL_HUGE, "0", "CCP"), (MIXED_SIGNS, "1", "CP"), (MIXED_SIGNS, "0", "CCP")],
    ids=["all-huge-0-CCP", "mixed-signs-1-CP", "mixed-signs-0-CCP"],
)
def test_float_indices_beyond_float_range_exit_four(capsys, tmp_path, signs, bandit, payout):
    # the ratio iteration's charge reaches inf, and its adjusted value -inf or NaN
    exits_four_beyond_float_range(capsys, tmp_path, signs, ("index", "--bandit", bandit, "--payout", payout))


@pytest.mark.parametrize("huge_first", [False, True], ids=["huge-second", "huge-first"])
def test_a_tree_index_beyond_float_range_exits_four_in_either_bandit_order(capsys, tmp_path, huge_first):
    # the huge tree's live child has index inf and its root NaN; `max` skips
    # a NaN that comes last, so only the table's own check refuses both orders
    huge = to_float(path_bandit((1.7e308, -1.7e308, 1.7e308), (HALF, ONE)))
    bandits = [huge, to_float(sure_bandit(1))]
    path = tmp_path / "huge.json"
    save_model(bandits if huge_first else bandits[::-1], path)
    assert main(["validate", "--model", str(path)]) == 0
    capsys.readouterr()
    code = main(["evaluate", "--model", str(path), "--policy", "index"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "float range" in captured.err
    assert "Traceback" not in captured.err


def test_missing_model_file_exits_two(capsys, tmp_path):
    code, _ = run(capsys, "validate", "--model", str(tmp_path / "nope.json"))
    assert code == 2


def test_index_command_both_methods(capsys, pair_path):
    code, out = run(capsys, "index", "--model", pair_path, "--rational")
    doc = json.loads(out)
    assert code == 0
    assert doc["value"] == 8
    assert doc["rule"] == {"anchor": 0, "stop_set": [2]}
    # the root's block is the root alone: the rule stops at its only live child
    assert doc["iterations"] == 1
    code, out = run(
        capsys, "index", "--model", pair_path, "--rational", "--method", "enumerate"
    )
    enum = json.loads(out)
    assert code == 0
    assert enum["value"] == 8
    assert enum["rule"] == doc["rule"]


def test_index_command_on_a_markov_chain(capsys, chain_path):
    code, out = run(
        capsys, "index", "--model", chain_path, "--rational", "--payout", "CCP"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["value"] == "280/19"
    assert doc["rule"] == {"stop_set": [0]}
    # the block: the anchor and state 1, the one state outside the stop set
    assert doc["iterations"] == 2


@pytest.mark.parametrize("rational", [True, False], ids=["exact", "float"])
def test_chain_indices_solve_no_linear_system(capsys, tmp_path, monkeypatch, rational):
    # every binding of solve_linear raises, except the one through which
    # evaluate_exact solves the game's value, which counts its calls
    import haltbandit.game
    import haltbandit.linear

    path = tmp_path / "chains.json"
    save_model([random_markov_bandit(1, n_states=6), random_markov_bandit(2, n_states=5)], path)
    solve, values = haltbandit.linear.solve_linear, []

    def refuse(rows, rhs):
        raise AssertionError("an index solved a linear system")

    for name, module in list(sys.modules.items()):
        if name.startswith("haltbandit") and getattr(module, "solve_linear", None) is solve:
            monkeypatch.setattr(module, "solve_linear", refuse)
    monkeypatch.setattr(haltbandit.game, "solve_linear", lambda rows, rhs: values.append(len(rhs)) or solve(rows, rhs))
    flags = ["--model", str(path)] + (["--rational"] if rational else [])
    for payout in ("CP", "SP", "NH", "CCP"):
        for anchor in range(6):
            assert run(capsys, "index", *flags, "--payout", payout, "--anchor", str(anchor))[0] == 0
        assert run(capsys, "evaluate", *flags, "--payout", payout, "--policy", "index")[0] == 0
    assert len(values) == 4  # one value solve per evaluation


def test_a_float_chain_index_beyond_float_range_exits_four(capsys, tmp_path):
    huge = 1.7e308
    chain = MarkovBandit(
        states=(MarkovState(huge, 0.5, huge), MarkovState(-huge, 0.5, -huge)),
        transitions=((0.5, 0.5), (0.5, 0.5)),
    )
    path = tmp_path / "huge-chain.json"
    save_model([chain, chain], path)
    assert main(["validate", "--model", str(path)]) == 0
    capsys.readouterr()
    for argv in (["index", "--payout", "CP"], ["index", "--payout", "CCP"], ["evaluate", "--policy", "index"]):
        code = main([argv[0], "--model", str(path), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "float range" in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("payout, code", [("CP", 4), ("CCP", 4), ("SP", 0)])
def test_a_large_float_chain_game_beyond_float_range_exits_four_or_is_swept(capsys, tmp_path, monkeypatch, payout, code):
    # two 16-state chains, rewards ±1.7e308: 512 product states under the
    # cyclic policy, above the sweeps' size threshold.  CP's halts pay ±inf,
    # so its system goes straight to the dense solve; CCP's sweeps overflow
    # and fall back to it; SP's sweeps settle on h/4, which passes the
    # scale-free backward-error test.
    import haltbandit.linear

    huge, n = 1.7e308, 16

    def chain(sign):
        states = tuple(MarkovState(sign * (-1) ** k * huge, 0.5, sign * (-1) ** k * huge) for k in range(n))
        return MarkovBandit(states=states, transitions=((1 / n,) * n,) * n)

    path = tmp_path / "huge-chains.json"
    save_model([chain(1), chain(-1)], path)
    sweep, swept = haltbandit.linear._sweep, []

    def spy(r, c, v, b):
        out = sweep(r, c, v, b)
        swept.append((b.size, out is not None))
        return out

    monkeypatch.setattr(haltbandit.linear, "_sweep", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = main(["evaluate", "--model", str(path), "--policy", "cyclic:0,1", "--payout", payout])
    captured = capsys.readouterr()
    assert swept == [(2 * n * n, payout == "SP")]
    assert got == code
    if payout == "SP":
        assert json.loads(captured.out)["value"] == 4.2499999999999993e307
        assert captured.err == ""
    else:
        assert captured.out == ""
        assert "float range" in captured.err
        assert "Traceback" not in captured.err


def test_evaluate_command(capsys, pair_path):
    code, out = run(
        capsys, "evaluate", "--model", pair_path, "--rational", "--policy", "always:0"
    )
    assert code == 0
    assert json.loads(out)["value"] == 7
    code, out = run(
        capsys, "evaluate", "--model", pair_path, "--rational", "--policy", "cyclic:0,1"
    )
    assert code == 0
    assert json.loads(out)["value"] == "13/2"


def test_simulate_command_is_reproducible(capsys, pair_path):
    argv = (
        "simulate", "--model", pair_path,
        "--policy", "always:0", "--seed", "42", "--samples", "20000",
    )
    code, first = run(capsys, *argv)
    assert code == 0
    doc = json.loads(first)
    assert doc["mean"] == 7.0152999999999999
    assert doc["stderr"] == 0.021213457899168675
    assert doc["n_samples"] == 20000 and doc["seed"] == 42
    _, again = run(capsys, *argv)
    assert first == again


@pytest.mark.parametrize("command", [("simulate", "--samples", "10"), ("evaluate",)])
@pytest.mark.parametrize("policy", ["always:-1", "always:2"])
def test_a_bandit_outside_the_model_exits_four(capsys, pair_path, command, policy):
    code, out = run(capsys, command[0], "--model", pair_path, "--policy", policy, *command[1:])
    assert code == 4
    assert out == ""


def test_optimal_command(capsys, pair_path):
    code, out = run(capsys, "optimal", "--model", pair_path, "--rational")
    doc = json.loads(out)
    assert code == 0
    assert doc["value"] == 7
    assert doc["first_move"] == 0


def test_reduce_command_round_trips(capsys, pair_path, tmp_path):
    code, out = run(
        capsys, "reduce", "--model", pair_path, "--rational", "--payout", "CCP"
    )
    assert code == 0
    ramp, sure = loads_model(out, rational=True)
    assert [n.reward for n in ramp.nodes] == [0, 0, 0, 4]
    assert [n.reward for n in sure.nodes] == [0, 0]
    dest = tmp_path / "reduced.json"
    code, _ = run(
        capsys, "reduce", "--model", pair_path, "--rational",
        "--payout", "CCP", "--output", str(dest),
    )
    assert code == 0
    again, _ = load_model(dest, rational=True)
    assert again == ramp


def test_certify_command(capsys, pair_path):
    code, out = run(capsys, "certify", "--model", pair_path, "--rational")
    doc = json.loads(out)
    assert code == 0
    assert doc["kind"] == "index"
    assert doc["pass"] is True
    assert doc["gap"] == 0


def test_certify_sweep_runs_in_parallel_and_stays_ordered(capsys):
    code, out = run(
        capsys, "certify", "--sweep", "4", "--workers", "2", "--depth", "2"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["pass"] is True
    assert [r["seed"] for r in doc["results"]] == [0, 1, 2, 3]
    assert all(r["pass"] for r in doc["results"])


@pytest.mark.parametrize("workers", ["1", "2"])
def test_certify_sweep_reads_the_cap(capsys, monkeypatch, workers):
    code = main(["certify", "--sweep", "2", "--cap", "1", "--workers", workers])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "more than 1 reachable histories" in captured.err
    monkeypatch.setenv("HB_CAP", "1")
    code, out = run(capsys, "certify", "--sweep", "1", "--workers", workers)
    assert (code, out) == (3, "")


def test_non_halting_optimum_is_the_smallest_cost(capsys, tmp_path):
    path = tmp_path / "nh.json"
    save_model(list(random_game(1, model=PayoutModel.NH, max_depth=3).bandits), path)
    common = ("--model", str(path), "--rational", "--payout", "NH")
    code, out = run(capsys, "optimal", *common)
    assert code == 0
    assert json.loads(out)["value"] == -3
    code, out = run(capsys, "evaluate", *common, "--policy", "index")
    assert code == 0
    assert json.loads(out)["value"] == -3
    code, out = run(capsys, "certify", *common)
    assert code == 0
    assert json.loads(out)["gap"] == 0
    code, out = run(capsys, "certify", "--sweep", "10", "--payout", "NH")
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("depth", ["13", "20"])
def test_certify_sweep_deeper_than_the_default_depth_limit(capsys, depth):
    # the drawn trees are validated against the sweep's own depth
    code, out = run(capsys, "certify", "--sweep", "2", "--depth", depth, "--branching", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["pass"] is True
    assert [r["seed"] for r in doc["results"]] == [0, 1]


def test_certify_sweep_with_wide_branching_exits_cleanly(capsys):
    code, out = run(capsys, "certify", "--sweep", "20", "--branching", "3", "--depth", "5")
    assert code in (0, 1)
    assert len(json.loads(out)["results"]) == 20


def test_singular_float_chain_exits_one(capsys, tmp_path):
    path = tmp_path / "stuck.json"
    # without --rational every number in the document is read as a float
    stuck = MarkovBandit(states=(MarkovState(1, 0, 0),) * 2, transitions=((0.5, 0.5),) * 2)
    save_model([stuck], path)
    code, out = run(capsys, "evaluate", "--model", str(path), "--policy", "cyclic:0")
    assert code == 1
    assert out == ""


def test_a_float_chain_solve_that_misses_its_residual_exits_one(capsys, monkeypatch, tmp_path):
    import numpy as np

    path = tmp_path / "pair.json"
    save_model([random_markov_bandit(1), random_markov_bandit(2)], path)
    solve = np.linalg.solve  # the 18 product states go to the dense solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-9)
    code = main(["evaluate", "--model", str(path), "--policy", "cyclic:0,1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "residual" in captured.err


@pytest.mark.parametrize("n_states", [3, 12])
@pytest.mark.parametrize("k", [10**3, 10**6])
def test_a_float_chain_game_scaled_up_is_evaluated(capsys, tmp_path, n_states, k):
    values = []
    for scale in (1, k):
        path = tmp_path / f"pair-{scale}.json"
        save_model([scaled_markov_bandit(s, scale, n_states=n_states) for s in (1, 2)], path)
        code, out = run(capsys, "evaluate", "--model", str(path), "--policy", "cyclic:0,1")
        assert code == 0
        values.append(json.loads(out)["value"])
    assert abs(values[1] - k * values[0]) <= 1e-12 * abs(k * values[0])


def test_float_chain_index_settles_when_stopping_ties(capsys, tmp_path):
    # at the index, stopping and continuing tie at state 0; the float
    # improvement step used to flip on rounding noise until its cap
    path = tmp_path / "tie.json"
    save_model([to_float(random_markov_bandit(16, n_states=3))], path)
    code, out = run(capsys, "index", "--model", str(path), "--anchor", "0")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["value"] - (-50 / 101)) <= 1e-12
    assert doc["rule"] == {"stop_set": [0]}


def test_certify_sweep_refuses_a_model_argument(capsys, pair_path):
    code, _ = run(capsys, "certify", "--model", pair_path, "--sweep", "2")
    assert code == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--sweep", "1", "--branching", "0"), "--branching must be at least 1"),
        (("--sweep", "1", "--branching", "-2"), "--branching must be at least 1"),
        (("--sweep", "-3"), "--sweep must be at least 0"),
        (("--sweep", "1", "--depth", "0"), "--depth must be at least 1"),
        (("--sweep", "1", "--depth", "-3"), "--depth must be at least 1"),
        (("--sweep", "1", "--workers", "0"), "--workers must be at least 1, got 0"),
        (("--sweep", "1", "--workers", "-3"), "--workers must be at least 1, got -3"),
    ],
)
def test_certify_sweep_refuses_out_of_range_sizes(capsys, flags, message):
    code = main(["certify", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--policy", "index", "--seed", "-1"),
        ("simulate", "--policy", "index", "--seed", str(2**128)),
        ("certify", "--sweep", "1", "--seed", "-1"),
        ("certify", "--sweep", "2", "--seed", str(2**128 - 1)),
    ],
)
def test_seeds_outside_the_key_range_exit_two(capsys, monkeypatch, pair_path, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the seed reached the generator")

    monkeypatch.setattr("haltbandit.game.run_policy_sampled", refuse)
    monkeypatch.setattr("haltbandit.oracle.random_game", refuse)
    model = ("--model", pair_path) if argv[0] == "simulate" else ()
    code = main([*argv[:1], *model, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "lies outside [0, 2**128)" in captured.err


def test_the_largest_seed_is_a_valid_key(capsys, pair_path):
    last = str(2**128 - 1)
    code, out = run(capsys, "simulate", "--model", pair_path, "--policy", "always:1", "--samples", "3", "--seed", last)
    assert code == 0
    assert json.loads(out)["mean"] == 5
    code, out = run(capsys, "certify", "--sweep", "1", "--depth", "2", "--seed", last)
    assert code == 0
    assert json.loads(out)["results"][0]["seed"] == 2**128 - 1


def test_greedy_certificate_on_a_chain_exits_four(capsys, chain_path):
    code = main(["certify", "--kind", "greedy", "--payout", "PSP", "--model", chain_path, "--rational"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "tree backend" in captured.err
    assert "Traceback" not in captured.err


def test_greedy_certificate_counts_policies_under_the_atom_cap_alone(capsys, tmp_path):
    # two depth-4 trees made non-increasing: 85 atoms, 122,137 policies
    path = tmp_path / "depth4.json"
    save_model([make_nonincreasing(b) for b in random_game(2, max_depth=4).bandits], path)
    code, out = run(capsys, "certify", "--payout", "PSP", "--kind", "greedy", "--rational", "--model", str(path))
    doc = json.loads(out)
    assert code == 0
    assert (doc["pass"], doc["n_atoms"], doc["n_policies"]) == (True, 85, 122_137)
    # --cap sets the atom cap
    assert run(capsys, "certify", "--payout", "PSP", "--kind", "greedy", "--rational", "--model", str(path),
               "--cap", "85") == (0, out)
    code = main(["certify", "--payout", "PSP", "--kind", "greedy", "--rational", "--model", str(path), "--cap", "84"])
    assert (code, capsys.readouterr().err) == (3, "error: more than 84 joint outcome atoms\n")


def test_greedy_certificate_prints_a_count_past_the_int_digit_limit(capsys, tmp_path):
    # two binary trees unrolled to depth 8: 255 × 255 = 65,025 atoms and a
    # policy count of about 7,650 digits, past the 4,300 ``str`` writes
    chain = MarkovBandit(
        states=(MarkovState(3, HALF, 0), MarkovState(1, HALF, 0)), transitions=((HALF, HALF), (HALF, HALF))
    )
    tree = make_nonincreasing(unroll_markov(chain, max_depth=8))
    path = tmp_path / "binary8.json"
    save_model([tree, tree], path)
    code = main(["certify", "--payout", "PSP", "--kind", "greedy", "--rational", "--model", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    count = re.search(r'"n_policies": (\d+),\n', captured.out)[1]
    assert '"n_atoms": 65025,' in captured.out
    game = GameInstance(bandits=(tree, tree), model=PayoutModel.PSP)
    with unlimited_int_digits():
        assert count == str(_policy_count(game))
    assert len(count) > sys.get_int_max_str_digits() > 0


def test_validate_reads_an_int_reward_past_the_int_digit_limit(capsys, tmp_path):
    path = tmp_path / "long_int.json"
    save_model([path_bandit((0, 10**5000), (ONE,))], path)
    assert run(capsys, "validate", "--rational", "--model", str(path))[0] == 0
    code = main(["validate", "--model", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: non-finite number 1000") and err.endswith(" in float mode\n")


_LONG = 10**5000  # 5,001 digits, past the interpreter's 4,300


def _tiny(sign: str = "") -> str:
    with unlimited_int_digits():
        return f"{sign}1/{7**6000}"


# Broken documents whose violation message writes a number past the digit
# limit: (bandit, where the number goes, the number, exit code, violation)
_LONG_NUMBERS = {
    "edge-probability-sum": ("tree", ("nodes", 0, "edges", 1, "p"), _tiny, 1, "edge-probability-sum"),
    "negative-edge-probability": (
        "tree", ("nodes", 0, "edges", 0, "p"), lambda: _tiny("-"), 1, "non-positive-edge-probability"
    ),
    "root-depth": ("tree", ("nodes", 0, "depth"), _LONG, 1, "root-depth"),
    "child-depth": ("tree", ("nodes", 3, "depth"), _LONG, 1, "depth-mismatch"),
    "edge-target": ("tree", ("nodes", 2, "edges", 0, "to"), _LONG, 1, "dangling-edge"),
    "root": ("tree", ("root",), _LONG, 1, "bad-root"),
    "node-id": ("tree", ("nodes", 3, "id"), _LONG, 2, "node id 1000"),
    "initial-state": ("markov", ("initial",), _LONG, 1, "bad-initial-state"),
    "halt-prob": ("markov", ("states", 0, "halt_prob"), _LONG, 1, "halting-probability-above-one"),
    "row-sum": ("markov", ("transitions", 0, 0), _tiny, 1, "row-sum"),
    "negative-transition": ("markov", ("transitions", 0, 0), lambda: _tiny("-"), 1, "negative-transition"),
}


@pytest.mark.parametrize("command", [("validate",), ("index",), ("evaluate", "--policy", "index")], ids=lambda c: c[0])
@pytest.mark.parametrize("case", sorted(_LONG_NUMBERS))
def test_a_number_past_the_int_digit_limit_is_reported_in_full(capsys, tmp_path, command, case):
    kind, keys, value, want_code, want = _LONG_NUMBERS[case]
    bandit = ramp_bandit() if kind == "tree" else geometric_markov([1, 3], HALF)
    doc = json.loads(dumps_model([bandit]))
    target = doc["bandits"][0]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value() if callable(value) else value
    path = tmp_path / "long.json"
    with unlimited_int_digits():
        path.write_text(json.dumps(doc))
    argv = [command[0], "--model", str(path), "--rational", *command[1:]]

    def call():
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    code, out, err = call()
    assert code == want_code
    assert "Traceback" not in err
    assert want in (out if command[0] == "validate" and code == 1 else err)
    with unlimited_int_digits():  # where repr can write the number: the same text
        assert call() == (code, out, err)


# Stdout of an all-integer game, whose optimum the DP once returned as an
# int and now returns as a whole Fraction: it prints as the same integer.
_INTEGER_GAME_STDOUT = {
    ("optimal", "CP"): '{\n  "schema": 1,\n  "payout": "CP",\n  "value": 6,\n  "first_move": 0\n}\n',
    ("optimal", "NH"): '{\n  "schema": 1,\n  "payout": "NH",\n  "value": 1,\n  "first_move": 0\n}\n',
    ("certify", "CP"): (
        '{\n  "schema": 1,\n  "kind": "index",\n  "index_value": 6,\n  "optimal_value": 6,\n  "gap": 0,\n'
        '  "histories_compared": 1,\n  "action_disagreements": 0,\n  "tolerance": 1e-10,\n  "pass": true\n}\n'
    ),
    ("certify", "NH"): (
        '{\n  "schema": 1,\n  "kind": "index",\n  "index_value": 1,\n  "optimal_value": 1,\n  "gap": 0,\n'
        '  "histories_compared": 1,\n  "action_disagreements": 0,\n  "tolerance": 1e-10,\n  "pass": true\n}\n'
    ),
}


@pytest.mark.parametrize("command, payout", sorted(_INTEGER_GAME_STDOUT))
def test_an_integer_optimum_prints_as_an_integer(capsys, tmp_path, command, payout):
    # every probability is the JSON integer 1, so the document reads back as ints
    path = tmp_path / "integers.json"
    save_model([path_bandit((2, 5), (ONE,)), path_bandit((1, 3), (ONE,))], path)
    assert '"p": 1,' in path.read_text() and '"p": "' not in path.read_text()
    argv = (command, "--model", str(path), "--rational", "--payout", payout)
    assert run(capsys, *argv) == (0, _INTEGER_GAME_STDOUT[command, payout])


def _long_path() -> TreeBandit:
    # 1,600 live levels; each halts with 1/1000 onto the reward 7d mod 11
    levels = 1600
    return path_bandit(
        [d % 5 for d in range(levels + 1)],
        [Fraction(1, 1000)] * (levels - 1) + [ONE],
        [7 * d % 11 for d in range(levels)],
    )


def test_an_exact_value_past_the_int_digit_limit_prints_in_full(capsys, tmp_path):
    path = tmp_path / "long.json"
    save_model([_long_path()], path)
    code = main(["evaluate", "--model", str(path), "--rational", "--policy", "always:0"])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    value = evaluate_exact(GameInstance(bandits=(_long_path(),), model=PayoutModel.CP), always(0))
    assert value.denominator > 10 ** sys.get_int_max_str_digits()
    with unlimited_int_digits():
        assert json.loads(captured.out)["value"] == str(value)


def test_trace_csv_prints_a_probability_past_the_int_digit_limit(capsys, tmp_path):
    path = tmp_path / "long.json"
    save_model([_long_path()], path)
    outcomes = ",".join(["s"] * 1599 + ["h"])
    code, out = run(
        capsys, "trace", "--model", str(path), "--rational",
        "--policy", "always:0", "--outcomes", outcomes, "--format", "csv",
    )
    assert code == 0
    last = out.splitlines()[-1].split(",")
    with unlimited_int_digits():
        assert last[-1] == str(Fraction(999, 1000) ** 1599)


def test_cost_documents_play_under_the_terminal_profit_scheme(capsys, costs_path):
    exact = ("--model", costs_path, "--rational", "--payout", "TP")
    code, out = run(capsys, "evaluate", *exact, "--policy", "index")
    assert (code, json.loads(out)["value"]) == (0, 5)
    code, out = run(capsys, "evaluate", *exact, "--policy", "always:1")
    assert (code, json.loads(out)["value"]) == (0, 4)
    code, out = run(capsys, "certify", *exact)
    doc = json.loads(out)
    assert code == 0
    assert doc["pass"] is True
    assert doc["optimal_value"] == 5
    code, out = run(capsys, "reduce", *exact)
    assert code == 0
    ramp, sure = loads_model(out, rational=True)
    assert [n.reward for n in ramp.nodes] == [-1, 4, -3, 10]
    assert [n.reward for n in sure.nodes] == [-2, 5]


@pytest.mark.parametrize("payout", ["SP", "NH"])
@pytest.mark.parametrize("command", ["reduce", "index"])
def test_cost_documents_are_refused_outside_the_terminal_profit_scheme(capsys, costs_path, command, payout):
    code = main([command, "--model", costs_path, "--rational", "--payout", payout])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "not costs" in captured.err
    assert "Traceback" not in captured.err


def test_certify_sweep_refuses_the_greedy_kind(capsys):
    code = main(["certify", "--sweep", "2", "--kind", "greedy", "--payout", "PSP"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "index optimality only" in captured.err


def test_gittins_command(capsys, chain_path):
    code, out = run(capsys, "gittins", "--model", chain_path, "--rational")
    doc = json.loads(out)
    assert code == 0
    assert doc["pass"] is True
    assert doc["cumulative_index"] == "280/19"
    assert doc["beta"] == 0.9
    assert abs(doc["gittins"] - 28 / 19) < 1e-8


def test_gittins_needs_a_markov_bandit(capsys, pair_path):
    code, _ = run(capsys, "gittins", "--model", pair_path)
    assert code == 4


def test_trace_csv_is_exact(capsys, pair_path):
    code, out = run(
        capsys, "trace", "--model", pair_path, "--rational",
        "--policy", "always:0", "--outcomes", "s,h", "--format", "csv",
    )
    assert code == 0
    assert out == (
        "round,T0,T1,choice,reward,survival_probability\n"
        "0,0,0,0,0,1/2\n"
        "1,1,0,0,4,1/2\n"
    )


def test_trace_csv_prints_float_models_to_17_digits(capsys, chain_path):
    code, out = run(
        capsys, "trace", "--model", chain_path,
        "--policy", "always:0", "--outcomes", "s,s,s,h", "--format", "csv",
    )
    assert code == 0
    assert out == (
        "round,T0,choice,reward,survival_probability\n"
        "0,0,0,1,0.90000000000000002\n"
        "1,1,0,2,0.81000000000000005\n"
        "2,2,0,1,0.72900000000000009\n"
        "3,3,0,2,0.072900000000000006\n"
    )


def test_trace_json_reports_the_halt(capsys, pair_path):
    code, out = run(
        capsys, "trace", "--model", pair_path, "--rational",
        "--policy", "always:0", "--outcomes", "s,h",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["halt_round"] == 2
    assert doc["halter"] == 0
    assert [r["local_times"] for r in doc["rows"]] == [[0, 0], [1, 0]]


@pytest.fixture()
def falling_path(tmp_path):
    # rewards that never increase along a live path, for the greedy certificate
    path = tmp_path / "falling.json"
    save_model([make_nonincreasing(ramp_bandit()), sure_bandit(5)], path)
    return str(path)


# Each result document, byte for byte: (argv, exit code, stdout).
_PINNED = {
    "trace": (
        ("trace", "--model", "{pair}", "--rational", "--policy", "always:0", "--outcomes", "s,h"),
        0,
        """{
  "schema": 1,
  "rows": [
    {
      "round": 0,
      "local_times": [
        0,
        0
      ],
      "choice": 0,
      "reward": 0,
      "survival_probability": "1/2"
    },
    {
      "round": 1,
      "local_times": [
        1,
        0
      ],
      "choice": 0,
      "reward": 4,
      "survival_probability": "1/2"
    }
  ],
  "halt_round": 2,
  "halter": 0
}
""",
    ),
    "certify-index": (
        ("certify", "--model", "{pair}", "--rational"),
        0,
        """{
  "schema": 1,
  "kind": "index",
  "index_value": 7,
  "optimal_value": 7,
  "gap": 0,
  "histories_compared": 2,
  "action_disagreements": 0,
  "tolerance": 1e-10,
  "pass": true
}
""",
    ),
    "certify-greedy": (
        ("certify", "--model", "{falling}", "--rational", "--payout", "PSP", "--kind", "greedy"),
        0,
        """{
  "schema": 1,
  "kind": "greedy",
  "n_policies": 3,
  "n_atoms": 2,
  "min_slack": 0,
  "tolerance": 0,
  "pass": true
}
""",
    ),
    "gittins": (
        ("gittins", "--model", "{chain}", "--rational"),
        0,
        """{
  "schema": 1,
  "cumulative_index": "280/19",
  "gittins": 1.4736842105485266,
  "ratio": 9.9999999998492832,
  "beta": 0.90000000000000002,
  "abs_error": 2.2211121830650882e-11,
  "pass": true
}
""",
    ),
    "simulate": (
        ("simulate", "--model", "{pair}", "--policy", "index", "--samples", "20", "--seed", "5"),
        0,
        """{
  "schema": 1,
  "payout": "CP",
  "policy": "index",
  "method": "sampled",
  "mean": 7,
  "stderr": 0.68824720161168529,
  "n_samples": 20,
  "seed": 5
}
""",
    ),
    "validate-invalid": (
        ("validate", "--model", "{short}", "--rational"),
        1,
        """{
  "schema": 1,
  "valid": false,
  "violations": [
    {
      "bandit": 0,
      "code": "edge-probability-sum",
      "where": "node 0",
      "detail": "outgoing probabilities sum to Fraction(3, 4)"
    }
  ]
}
""",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_result_documents_are_pinned_byte_for_byte(capsys, pair_path, chain_path, short_path, falling_path, name):
    argv, code, text = _PINNED[name]
    paths = {"pair": pair_path, "chain": chain_path, "short": short_path, "falling": falling_path}
    assert run(capsys, *(a.format(**paths) for a in argv)) == (code, text)


def test_trace_rejects_bad_outcome_tokens(capsys, pair_path):
    code, _ = run(
        capsys, "trace", "--model", pair_path,
        "--policy", "always:0", "--outcomes", "s,x",
    )
    assert code == 2


def test_unknown_policy_exits_two(capsys, pair_path):
    code, _ = run(capsys, "evaluate", "--model", pair_path, "--policy", "sideways")
    assert code == 2


def test_cap_flag_and_environment_override(capsys, pair_path, monkeypatch):
    code, _ = run(capsys, "optimal", "--model", pair_path, "--cap", "1")
    assert code == 3
    code, _ = run(capsys, "evaluate", "--model", pair_path, "--policy", "index", "--cap", "1")
    assert code == 3
    monkeypatch.setenv("HB_CAP", "1")
    code, _ = run(capsys, "optimal", "--model", pair_path)
    assert code == 3
    monkeypatch.setenv("HB_CAP", "many")
    code, _ = run(capsys, "optimal", "--model", pair_path)
    assert code == 2


@pytest.mark.parametrize(
    "command",
    [
        ("validate",),
        ("simulate", "--policy", "index", "--samples", "10"),
        ("reduce", "--payout", "SP"),
        ("gittins",),
        ("trace", "--policy", "always:0", "--outcomes", "s,h"),
    ],
    ids=lambda c: c[0],
)
def test_cap_is_refused_where_no_cap_is_read(capsys, chain_path, command):
    # argparse exits 2 on an option the subcommand does not declare
    with pytest.raises(SystemExit) as exc:
        main([command[0], "--model", chain_path, "--rational", *command[1:], "--cap", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --cap 1" in captured.err


def test_index_policy_is_refused_under_the_penultimate_scheme(capsys, pair_path):
    code, _ = run(
        capsys, "evaluate", "--model", pair_path,
        "--payout", "PSP", "--policy", "index",
    )
    assert code == 4


@pytest.mark.parametrize(
    "command",
    [
        ("evaluate", "--policy", "always:0"),
        ("optimal",),
        ("index",),
        ("simulate", "--policy", "always:0", "--samples", "10"),
    ],
)
def test_an_invalid_model_is_refused_before_it_is_played(capsys, short_path, command):
    code = main([command[0], "--model", short_path, "--rational", *command[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "edge-probability-sum" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("anchor", ["99", "-1"])
def test_enumeration_anchor_outside_the_tree_exits_four(capsys, tmp_path, anchor):
    path = tmp_path / "live_last.json"
    save_model([live_last_bandit()], path)
    code = main(["index", "--model", str(path), "--rational", "--method", "enumerate", "--anchor", anchor])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "Traceback" not in captured.err


# Imports the package, runs each argv through `main` in a fresh interpreter,
# then prints every module the process has loaded.
_MODULES_AFTER = """
import contextlib, io, json, sys
import haltbandit
for argv in json.loads(sys.argv[1]):
    from haltbandit.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""


def modules_after(*argvs):
    # this process already holds every module, so the check needs a fresh one
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded_after(*argvs):
    """Which of the heavy modules the runs load."""
    modules = modules_after(*argvs)
    return [m for m in ("numpy", "concurrent.futures.process") if m in modules]


def test_exact_runs_never_load_numpy_on_either_backend(pair_path, chain_path):
    exact = ("--model", pair_path, "--rational")
    assert loaded_after() == []
    assert loaded_after(
        ("evaluate", *exact, "--policy", "index"), ("certify", *exact), ("optimal", *exact)
    ) == []
    # exact chain values are exact linear solves, chain indices exact eliminations
    chain = ("evaluate", "--model", chain_path, "--rational", "--policy")
    assert loaded_after((*chain, "cyclic:0"), (*chain, "index")) == []
    # float solves and sampling still load it, so the check above can fail
    assert loaded_after(("evaluate", "--model", chain_path, "--policy", "cyclic:0")) == ["numpy"]
    assert loaded_after(
        ("simulate", "--model", pair_path, "--policy", "always:0", "--samples", "10")
    ) == ["numpy"]


# the modules every subcommand loads: the parser's payout choices need
# `reductions`; `linear` comes with `game`, since no index solves a linear system
_PARSE = {"cli", "errors", "indices", "jsonio", "models", "reductions"}
_GAME = _PARSE | {"game", "linear"}


@pytest.mark.parametrize(
    "argv, loads",
    [
        ((), set()),
        (("validate", "--model", "{pair}"), _PARSE),
        (("index", "--model", "{pair}"), _PARSE),
        (("reduce", "--model", "{pair}", "--payout", "SP"), _PARSE),
        (("gittins", "--model", "{chain}", "--rational"), _PARSE),
        (("evaluate", "--model", "{pair}", "--policy", "index"), _GAME),
        (("simulate", "--model", "{pair}", "--policy", "index", "--samples", "10"), _GAME),
        (("trace", "--model", "{pair}", "--policy", "always:0", "--outcomes", "s,h"), _GAME),
        (("optimal", "--model", "{pair}"), _GAME | {"oracle"}),
        (("certify", "--model", "{pair}", "--rational"), _GAME | {"oracle"}),
        (("certify", "--sweep", "1"), _GAME | {"oracle"}),
    ],
    ids=["import", "validate", "index", "reduce", "gittins", "evaluate", "simulate", "trace", "optimal", "certify",
         "certify-sweep"],
)
def test_each_subcommand_loads_only_the_modules_it_runs(pair_path, chain_path, argv, loads):
    # an empty argv is a bare `import haltbandit`, which loads no submodule
    runs = [tuple(a.format(pair=pair_path, chain=chain_path) for a in argv)] if argv else []
    package = {m.removeprefix("haltbandit.") for m in modules_after(*runs) if m.startswith("haltbandit.")}
    assert package == loads
