"""Command-line front end.

Subcommands mirror the library: ``validate``, ``index``, ``evaluate``,
``simulate``, ``optimal``, ``reduce``, ``certify``, ``gittins``, ``trace``.
All structured output is canonical JSON (stable key order, floats in
``.17g`` form, so 0.1 prints as 0.10000000000000001, ``"schema": 1``),
so identical invocations produce byte-identical documents; ``trace
--format csv`` emits a CSV table instead.

Exit codes: 0 success, 1 a check failed (invalid model, failed
certification, solver breakdown), 2 malformed input (bad JSON, bad
arguments), 3 a resource cap was hit, 4 a precondition was violated.
Every subcommand that reads a model validates it first (no depth or
branching cap) and exits 1 on a violation, printing its codes to stderr.
The ``HB_CAP`` environment variable (or ``--cap``) overrides the default
resource caps.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from typing import Sequence

from .errors import (
    ModelFormatError,
    PreconditionError,
    ResourceCapError,
    SolverError,
)
from .game import (
    BlockCommitmentIndexPolicy,
    CyclicPolicy,
    GameInstance,
    GreedyRewardPolicy,
    IndexPolicy,
    Policy,
    evaluate_exact,
    run_policy_sampled,
    trace_times,
)
from .indices import StoppingRule
from .jsonio import dumps_canonical, format_number
from .models import MarkovBandit, load_model, save_model, dumps_model, validate
from .oracle import (
    certify_greedy_dominance,
    certify_index_optimality,
    dp_optimal,
    random_game,
)
from .reductions import (
    PayoutModel,
    gittins_compare,
    model_index_result,
    reduced_bandit,
)


def _cap(args: argparse.Namespace, default: int) -> int:
    if getattr(args, "cap", None) is not None:
        return args.cap
    env = os.environ.get("HB_CAP")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ModelFormatError(f"HB_CAP must be an integer, got {env!r}") from exc
    return default


def _parse_policy(desc: str) -> Policy:
    if desc == "index":
        return IndexPolicy()
    if desc == "index-block":
        return BlockCommitmentIndexPolicy()
    if desc == "greedy":
        return GreedyRewardPolicy()
    if desc.startswith("cyclic:"):
        body = desc[len("cyclic:") :]
        try:
            order = tuple(int(x) for x in body.split(","))
        except ValueError as exc:
            raise ModelFormatError(f"bad cyclic order {body!r}") from exc
        return CyclicPolicy(order)
    if desc.startswith("always:"):
        body = desc[len("always:") :]
        try:
            return CyclicPolicy((int(body),))
        except ValueError as exc:
            raise ModelFormatError(f"bad bandit id {body!r}") from exc
    raise ModelFormatError(
        f"unknown policy {desc!r}; use index, index-block, greedy, cyclic:i,j,..., or always:i"
    )


def _parse_outcomes(spec: str) -> list:
    out: list = []
    for token in spec.split(","):
        token = token.strip()
        base, _, target = token.partition("@")
        kind = {"s": "survive", "survive": "survive", "h": "halt", "halt": "halt"}.get(base)
        if kind is None:
            raise ModelFormatError(f"bad outcome token {token!r}; use s, h, s@NODE, or h@NODE")
        if target:
            try:
                out.append((kind, int(target)))
            except ValueError as exc:
                raise ModelFormatError(f"bad node id in {token!r}") from exc
        else:
            out.append(kind)
    return out


class _InvalidModel(Exception):
    """A loaded model failed validation (exit 1)."""


def _load_bandits(args: argparse.Namespace) -> list:
    """Load the model and refuse it unless every bandit validates; no depth
    or branching cap is applied, so deep unrolled chains still load."""
    bandits = load_model(args.model, rational=args.rational)
    problems = []
    for k, b in enumerate(bandits):
        report = validate(b, max_depth=None, max_branching=None)
        if not report.passed:
            problems.append(f"bandit {k}: {', '.join(sorted(report.codes()))}")
    if problems:
        raise _InvalidModel("invalid model (" + "; ".join(problems) + ")")
    return bandits


def _load_game(args: argparse.Namespace) -> GameInstance:
    return GameInstance(bandits=tuple(_load_bandits(args)), model=PayoutModel(args.payout))


def _emit(doc: dict) -> None:
    sys.stdout.write(dumps_canonical(doc))


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_validate(args: argparse.Namespace) -> int:
    bandits = load_model(args.model, rational=args.rational)
    violations = []
    ok = True
    for k, b in enumerate(bandits):
        report = validate(b, max_depth=args.max_depth, max_branching=args.max_branching)
        ok = ok and report.passed
        for v in report.violations:
            violations.append({"bandit": k, "code": v.code, "where": v.where, "detail": v.detail})
    _emit({"schema": 1, "valid": ok, "violations": violations})
    return 0 if ok else 1


def _cmd_index(args: argparse.Namespace) -> int:
    bandits = _load_bandits(args)
    if not 0 <= args.bandit < len(bandits):
        raise PreconditionError(f"no bandit {args.bandit} in a {len(bandits)}-bandit model")
    bandit = bandits[args.bandit]
    res = model_index_result(
        PayoutModel(args.payout),
        bandit,
        args.anchor,
        method=args.method,
        cap=_cap(args, 10**6),
    )
    rule = res.rule
    rule_obj = rule.to_obj() if isinstance(rule, StoppingRule) else {"stop_set": sorted(rule)}
    _emit(
        {
            "schema": 1,
            "bandit": args.bandit,
            "payout": args.payout,
            "method": args.method,
            "value": res.value,
            "rule": rule_obj,
            "iterations": res.iterations,
        }
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    game = _load_game(args)
    policy = _parse_policy(args.policy)
    value = evaluate_exact(game, policy, history_cap=_cap(args, 10**7))
    _emit(
        {
            "schema": 1,
            "payout": args.payout,
            "policy": policy.describe(),
            "method": "exact",
            "value": value,
        }
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    game = _load_game(args)
    policy = _parse_policy(args.policy)
    res = run_policy_sampled(game, policy, args.seed, args.samples)
    _emit(
        {
            "schema": 1,
            "payout": args.payout,
            "policy": policy.describe(),
            "method": "sampled",
            "mean": res.mean,
            "stderr": res.stderr,
            "n_samples": res.n_samples,
            "seed": res.seed,
        }
    )
    return 0


def _cmd_optimal(args: argparse.Namespace) -> int:
    game = _load_game(args)
    sol = dp_optimal(game, history_cap=_cap(args, 10**7))
    _emit(
        {
            "schema": 1,
            "payout": args.payout,
            "value": sol.value,
            "first_move": sol.actions[game.initial_history()],
        }
    )
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    bandits = _load_bandits(args)
    model = PayoutModel(args.payout)
    reduced = [reduced_bandit(model, b) for b in bandits]
    if args.output:
        save_model(reduced, args.output)
    else:
        sys.stdout.write(dumps_model(reduced))
    return 0


def _sweep_task(task: tuple[int, str, int, int]) -> dict:
    seed, payout, depth, branching = task
    game = random_game(
        seed,
        n_bandits=2,
        model=PayoutModel(payout),
        max_depth=depth,
        max_branching=branching,
    )
    rep = certify_index_optimality(game)
    return {
        "seed": seed,
        "pass": rep.passed,
        "index_value": rep.index_value,
        "optimal_value": rep.optimal_value,
        "gap": rep.gap,
    }


def _cmd_certify(args: argparse.Namespace) -> int:
    if args.sweep is not None:
        if args.model:
            raise ModelFormatError("--sweep generates its own instances; drop --model")
        if args.kind != "index":
            raise ModelFormatError("--sweep certifies index optimality only; drop --kind greedy")
        if args.sweep < 0:
            raise ModelFormatError(f"--sweep must be at least 0, got {args.sweep}")
        if args.depth < 1:
            raise ModelFormatError(f"--depth must be at least 1, got {args.depth}")
        if args.branching < 1:
            raise ModelFormatError(f"--branching must be at least 1, got {args.branching}")
        tasks = [
            (args.seed + k, args.payout, args.depth, args.branching)
            for k in range(args.sweep)
        ]
        if args.workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # only sweeps with workers pay its import

            with ProcessPoolExecutor(max_workers=args.workers) as pool:
                rows = list(pool.map(_sweep_task, tasks))
        else:
            rows = [_sweep_task(t) for t in tasks]
        ok = all(r["pass"] for r in rows)
        _emit({"schema": 1, "kind": "index", "sweep": args.sweep, "pass": ok, "results": rows})
        return 0 if ok else 1
    if not args.model:
        raise ModelFormatError("certify needs --model or --sweep")
    game = _load_game(args)
    if args.kind == "greedy":
        report = certify_greedy_dominance(game, policy_cap=_cap(args, 10**4))
    else:
        report = certify_index_optimality(game, history_cap=_cap(args, 10**7))
    doc = {"schema": 1, "kind": args.kind}
    doc.update(report.to_obj())
    _emit(doc)
    return 0 if report.passed else 1


def _cmd_gittins(args: argparse.Namespace) -> int:
    bandits = _load_bandits(args)
    if not 0 <= args.bandit < len(bandits):
        raise PreconditionError(f"no bandit {args.bandit} in a {len(bandits)}-bandit model")
    bandit = bandits[args.bandit]
    if not isinstance(bandit, MarkovBandit):
        raise PreconditionError("the discounted-index comparison needs a markov bandit")
    rep = gittins_compare(bandit, args.state)
    doc = {"schema": 1}
    doc.update(rep.to_obj())
    _emit(doc)
    return 0 if rep.passed else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    game = _load_game(args)
    policy = _parse_policy(args.policy)
    trace = trace_times(game, policy, _parse_outcomes(args.outcomes))
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["round"]
            + [f"T{i}" for i in range(game.n)]
            + ["choice", "reward", "survival_probability"]
        )
        for row in trace.rows:
            writer.writerow(
                [row.round]
                + list(row.local_times)
                + [row.choice, _csv_number(row.reward), _csv_number(row.survival_probability)]
            )
        sys.stdout.write(buf.getvalue())
        return 0
    _emit(
        {
            "schema": 1,
            "rows": [
                {
                    "round": r.round,
                    "local_times": list(r.local_times),
                    "choice": r.choice,
                    "reward": r.reward,
                    "survival_probability": r.survival_probability,
                }
                for r in trace.rows
            ],
            "halt_round": trace.halt_round,
            "halter": trace.halter,
        }
    )
    return 0


def _csv_number(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    formatted = format_number(value)
    return str(formatted)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haltbandit",
        description="Exact solvers, indices, and policy certification for halting bandit games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, model_required: bool = True) -> None:
        p.add_argument("--model", required=model_required, help="model JSON file")
        p.add_argument("--rational", action="store_true", help="exact rational arithmetic")
        p.add_argument("--cap", type=int, default=None, help="resource cap override")

    p = sub.add_parser("validate", help="check a model document")
    common(p)
    p.add_argument("--max-depth", type=int, default=None, help="depth cap (default none)")
    p.add_argument("--max-branching", type=int, default=None, help="branching cap (default none)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("index", help="solo-payout index of one bandit")
    common(p)
    p.add_argument("--bandit", type=int, default=0)
    p.add_argument("--anchor", type=int, default=None, help="node/state id (default root)")
    p.add_argument("--payout", default="CP", choices=[m.value for m in PayoutModel])
    p.add_argument("--method", default="parametric", choices=["parametric", "enumerate"])
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("evaluate", help="exact policy value")
    common(p)
    p.add_argument("--payout", default="CP", choices=[m.value for m in PayoutModel])
    p.add_argument("--policy", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("simulate", help="Monte Carlo policy value")
    common(p)
    p.add_argument("--payout", default="CP", choices=[m.value for m in PayoutModel])
    p.add_argument("--policy", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("optimal", help="brute-force optimal value")
    common(p)
    p.add_argument("--payout", default="CP", choices=[m.value for m in PayoutModel])
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("reduce", help="rewrite a model for another payout scheme")
    common(p)
    p.add_argument("--payout", required=True, choices=[m.value for m in PayoutModel])
    p.add_argument("--output", default=None, help="write here instead of stdout")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("certify", help="check index optimality or greedy dominance")
    common(p, model_required=False)
    p.add_argument("--payout", default="CP", choices=[m.value for m in PayoutModel])
    p.add_argument("--kind", default="index", choices=["index", "greedy"])
    p.add_argument("--sweep", type=int, default=None, help="run N seeded random instances")
    p.add_argument("--seed", type=int, default=0, help="first sweep seed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--depth", type=int, default=3, help="sweep instance depth")
    p.add_argument("--branching", type=int, default=2, help="sweep instance branching")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("gittins", help="compare the cumulative index to the discounted index")
    common(p)
    p.add_argument("--bandit", type=int, default=0)
    p.add_argument("--state", type=int, default=None)
    p.set_defaults(func=_cmd_gittins)

    p = sub.add_parser("trace", help="replay explicit outcomes and tabulate bookkeeping")
    common(p)
    p.add_argument("--payout", default="CP", choices=[m.value for m in PayoutModel])
    p.add_argument("--policy", required=True)
    p.add_argument("--outcomes", required=True, help="e.g. s,s,h or s@3,h@5")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(func=_cmd_trace)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (SolverError, _InvalidModel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
