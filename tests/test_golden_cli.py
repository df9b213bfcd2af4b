"""Byte-for-byte pins of the command line over a fixed matrix of calls.

Each call runs ``cli.main`` in process on one of a few seeded model
documents.  Its argv (the temporary directory written as ``<tmp>``), exit
code, stdout and stderr are hashed with SHA-256, and the hash is compared
with the one ``golden_cli.json`` holds for that call.  The documents:

- ``oracle.random_game`` trees: one as drawn, one with its rewards made
  non-increasing (so the greedy certificate runs), and a terminal-profit
  tree;
- two ``helpers.random_markov_bandit`` chain pairs;
- a ``geometric_markov`` pair;
- the README's pair (``helpers.pair_game``);
- one document that fails validation.

Every document meets every subcommand under all six schemes (the profit
tree under its own and one other), in exact and float arithmetic, and the
game-playing subcommands meet several policies, so refusals are pinned as
well as results.  Every chain game here has fewer product states than
``linear`` needs before it sweeps, so float chain values come from numpy's
LAPACK solve, whose last bits may differ under another BLAS build.

Regenerate the file only for an intended change of output:
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from haltbandit import (
    PayoutModel,
    TreeBandit,
    TreeEdge,
    TreeNode,
    geometric_markov,
    random_game,
    save_model,
)
from haltbandit.cli import main

from helpers import make_nonincreasing, pair_game, random_markov_bandit

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
SCHEMES = [m.value for m in PayoutModel]
POLICIES = ["index", "index-block", "greedy", "cyclic:0,1"]
# (policy, outcomes, format)
TRACES = [("index", "s,s,h", "json"), ("cyclic:1,0", "h", "csv")]


def _documents() -> dict[str, list]:
    """Document name -> its bandits."""
    short = TreeBandit(
        nodes=(TreeNode(0, 0, False, (TreeEdge(1, Fraction(3, 4), True),)), TreeNode(1, 8, True))
    )
    return {
        "tree1": list(random_game(1).bandits),
        "monotone2": [make_nonincreasing(b) for b in random_game(2).bandits],
        "profit3": list(random_game(3, model=PayoutModel.TP).bandits),
        "chain12": [random_markov_bandit(1), random_markov_bandit(2)],
        "chain34": [random_markov_bandit(3, n_states=4), random_markov_bandit(4, n_states=2)],
        "geometric": [geometric_markov([1, 3, 0], Fraction(9, 10)), geometric_markov(2, Fraction(1, 2), "reward")],
        "pair": list(pair_game().bandits),
        "invalid": [short],
    }


def _calls(name: str, path: str) -> list[list[str]]:
    """The matrix of argv lists for one document."""
    out: list[list[str]] = []
    for arith in ([], ["--rational"]):
        base = ["--model", path, *arith]
        out.append(["validate", *base])
        out.append(["gittins", *base])
        if name == "invalid":
            out.append(["index", *base])
            out.append(["evaluate", *base, "--policy", "index"])
            continue
        out.append(["certify", *base, "--payout", "PSP", "--kind", "greedy"])
        for scheme in ["TP", "CP"] if name.startswith("profit") else SCHEMES:
            pay = [*base, "--payout", scheme]
            out.append(["index", *pay])
            out.append(["index", *pay, "--method", "enumerate", "--bandit", "1"])
            out.append(["optimal", *pay])
            out.append(["reduce", *pay])
            out.append(["certify", *pay])
            for policy in POLICIES:
                out.append(["evaluate", *pay, "--policy", policy])
            for policy in ("index", "cyclic:0,1"):
                out.append(["simulate", *pay, "--policy", policy, "--seed", "7", "--samples", "40"])
            for policy, outcomes, fmt in TRACES:
                out.append(["trace", *pay, "--policy", policy, "--outcomes", outcomes, "--format", fmt])
    return out


def _digest(argv: list[str], tmp: str) -> tuple[str, str]:
    """(the call's key, SHA-256 of its argv, exit code, stdout and stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    key = " ".join(argv).replace(tmp, "<tmp>")
    record = json.dumps([key, code, stdout.getvalue().replace(tmp, "<tmp>"), stderr.getvalue().replace(tmp, "<tmp>")])
    return key, hashlib.sha256(record.encode()).hexdigest()


def _run_matrix(tmp: Path) -> dict[str, str]:
    hashes: dict[str, str] = {}
    for name, bandits in _documents().items():
        path = tmp / f"{name}.json"
        save_model(bandits, path)
        for argv in _calls(name, str(path)):
            key, digest = _digest(argv, str(tmp))
            hashes[key] = digest
    return hashes


def test_cli_outputs_match_their_golden_hashes(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    hashes = _run_matrix(tmp_path)
    assert hashes.keys() == golden.keys()
    changed = [key for key in hashes if hashes[key] != golden[key]]
    assert not changed, f"{len(changed)} of {len(hashes)} calls changed output, first: {changed[:5]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(_run_matrix(Path(tmp)), indent=1, sort_keys=True) + "\n")
