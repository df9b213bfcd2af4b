"""One op: what one command-line call does, in process.

Each op parses its model text, checks it, computes, and emits the result
as canonical JSON text.  The program is reached through module attributes
(``models.loads_model``, not a name imported into this file), so the
tracer's wrappers, which replace those attributes, see every call.
"""

from __future__ import annotations

from haltbandit import game, indices, jsonio, models, oracle, pi_values, reductions
from haltbandit.errors import PreconditionError


def _policy(desc: str) -> game.Policy:
    if desc == "index":
        return game.IndexPolicy()
    if desc == "greedy":
        return game.GreedyRewardPolicy()
    if desc.startswith("cyclic:"):
        return game.CyclicPolicy(tuple(int(x) for x in desc[len("cyclic:") :].split(",")))
    raise ValueError(f"unknown policy {desc!r}")


def _load(op: dict) -> list:
    bandits = models.loads_model(op["doc"], rational=op["rational"])
    for k, b in enumerate(bandits):
        report = models.validate(b)
        if not report.passed:
            raise PreconditionError(f"bandit {k} is invalid: {sorted(report.codes())}")
    return bandits


def _game(op: dict) -> game.GameInstance:
    return game.GameInstance(bandits=tuple(_load(op)), model=reductions.PayoutModel(op["payout"]))


def _rule(rule) -> list[int]:
    return sorted(rule.stop_set if isinstance(rule, indices.StoppingRule) else rule)


def run_op(op: dict) -> tuple[str, bool]:
    """Run one op; returns (emitted text, whether the program reported its
    own check as failed).  Errors the program raises propagate."""
    kind = op["kind"]
    if kind == "certify":
        g = _game(op)
        report = oracle.certify_index_optimality(g)
        doc = {"schema": 1, "kind": "index"}
        doc.update(report.to_obj())
        if op.get("psp"):
            doc["psp_value"] = pi_values.psp_value_with_policy_indices(g, game.IndexPolicy())
        return jsonio.dumps_canonical(doc), not report.passed
    if kind == "greedy":
        report = oracle.certify_greedy_dominance(_game(op))
        doc = {"schema": 1, "kind": "greedy"}
        doc.update(report.to_obj())
        return jsonio.dumps_canonical(doc), not report.passed
    if kind == "evaluate":
        g = _game(op)
        policy = _policy(op["policy"])
        value = game.evaluate_exact(g, policy)
        doc = {"schema": 1, "payout": op["payout"], "policy": policy.describe(), "value": value}
        return jsonio.dumps_canonical(doc), False
    if kind == "index":
        bandit = _load(op)[0]
        res = reductions.model_index_result(reductions.PayoutModel.CP, bandit, op["anchor"])
        doc = {"schema": 1, "anchor": op["anchor"], "value": res.value, "rule": _rule(res.rule),
               "iterations": res.iterations}
        return jsonio.dumps_canonical(doc), False
    if kind == "unrolled":
        tree = models.unroll_markov(_load(op)[0])
        res = indices.solo_index_parametric(tree)
        dec = indices.index_decomposition(tree)
        doc = {
            "schema": 1,
            "nodes": len(tree.nodes),
            "value": res.value,
            "rule": _rule(res.rule),
            "blocks": [
                {"anchor": b.anchor, "depth": tree.nodes[b.anchor].depth, "level": b.level,
                 "parent": b.parent, "value": b.value, "stop_set": _rule(b.rule)}
                for b in dec.blocks
            ],
        }
        return jsonio.dumps_canonical(doc), False
    if kind == "sample":
        g = _game(op)
        res = game.run_policy_sampled(g, _policy(op["policy"]), op["seed"], op["episodes"])
        doc = {"schema": 1, "payout": op["payout"], "policy": op["policy"]}
        doc.update(res.to_obj())
        return jsonio.dumps_canonical(doc), False
    raise ValueError(f"unknown op kind {kind!r}")
