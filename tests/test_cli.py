"""End-to-end command-line checks: exit codes and canonical output."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from haltbandit import (
    MarkovBandit,
    MarkovState,
    PayoutModel,
    TreeBandit,
    TreeEdge,
    TreeNode,
    geometric_markov,
    load_model,
    loads_model,
    random_game,
    random_markov_bandit,
    save_model,
    to_float,
    unroll_markov,
)
from haltbandit.cli import main

from helpers import live_last_bandit, pair_game


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


def test_missing_model_file_exits_two(capsys, tmp_path):
    code, _ = run(capsys, "validate", "--model", str(tmp_path / "nope.json"))
    assert code == 2


def test_index_command_both_methods(capsys, pair_path):
    code, out = run(capsys, "index", "--model", pair_path, "--rational")
    doc = json.loads(out)
    assert code == 0
    assert doc["value"] == 8
    assert doc["rule"] == {"anchor": 0, "stop_set": [2]}
    assert doc["iterations"] == 2
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
    ],
)
def test_certify_sweep_refuses_out_of_range_sizes(capsys, flags, message):
    code = main(["certify", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


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
    monkeypatch.setenv("HB_CAP", "1")
    code, _ = run(capsys, "optimal", "--model", pair_path)
    assert code == 3
    monkeypatch.setenv("HB_CAP", "many")
    code, _ = run(capsys, "optimal", "--model", pair_path)
    assert code == 2


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


# Runs each argv through `main` in a fresh interpreter, then prints which of
# the heavy modules the process has loaded.
_LOADED_AFTER = """
import contextlib, io, json, sys
import haltbandit
from haltbandit.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps([m for m in ("numpy", "concurrent.futures.process") if m in sys.modules]))
"""


def loaded_after(*argvs):
    # this process already holds numpy, so the check needs a fresh one
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_tree_runs_never_load_numpy(pair_path, chain_path):
    exact = ("--model", pair_path, "--rational")
    assert loaded_after() == []
    assert loaded_after(
        ("evaluate", *exact, "--policy", "index"), ("certify", *exact), ("optimal", *exact)
    ) == []
    # float solves and sampling still load it, so the check above can fail
    assert loaded_after(("evaluate", "--model", chain_path, "--policy", "cyclic:0")) == ["numpy"]
    assert loaded_after(
        ("simulate", "--model", pair_path, "--policy", "always:0", "--samples", "10")
    ) == ["numpy"]
