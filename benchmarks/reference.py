"""Independent answers for every op, and the check of each output.

Nothing here imports the program.  Documents are read with ``json`` and
``Fraction``; tree games are solved by a DP over joint histories written
from the payout definitions in the project README; chain games by float
value iteration; chain indices by enumerating stop sets (small chains) or
by checking the optimality equation (larger ones); unrolled geometric
chains by enumerating stopping depths on the path.  ``check`` returns an
empty list when an output is right, or the reasons it is wrong.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from corpus import policy_count

REL_TOL = 1e-9
SIGMAS = 5


# ---------------------------------------------------------------------------
# Documents


def read_doc(text: str) -> tuple[list[dict], list | None]:
    """Bandits with every number as a Fraction, and the cost rows."""
    doc = json.loads(text)
    out = []
    for b in doc["bandits"]:
        if b["kind"] == "tree":
            nodes = sorted(b["nodes"], key=lambda n: n["id"])
            out.append({
                "kind": "tree",
                "reward": [Fraction(n["reward"]) for n in nodes],
                "depth": [n["depth"] for n in nodes],
                "halted": [n["halted"] for n in nodes],
                "edges": [[(e["to"], Fraction(e["p"]), e["halting"]) for e in n["edges"]] for n in nodes],
                "root": b["root"],
            })
        else:
            out.append({
                "kind": "markov",
                "reward": [Fraction(s["reward"]) for s in b["states"]],
                "halt": [Fraction(s["halt_prob"]) for s in b["states"]],
                "halt_reward": [Fraction(s["halt_reward"]) for s in b["states"]],
                "rows": [[Fraction(p) for p in row] for row in b["transitions"]],
                "initial": b["initial"],
            })
    costs = doc.get("costs")
    return out, None if costs is None else [[Fraction(c) for c in row] for row in costs]


def number(v) -> Fraction | float:
    return v if isinstance(v, float) else Fraction(v)


def close(got, want) -> bool:
    got = number(got)
    if isinstance(got, Fraction) and isinstance(want, Fraction):
        return got == want
    return abs(float(got) - float(want)) <= REL_TOL * (1 + abs(float(want)))


# ---------------------------------------------------------------------------
# Tree games: DP over joint histories


def tree_value(bandits: list[dict], costs: list | None, payout: str, policy: str | None) -> Fraction:
    """Exact value of a tree game under ``policy`` ("cyclic:...", "greedy"),
    or its optimum when ``policy`` is None: the largest value, or the
    smallest for the halting cost NH."""
    n = len(bandits)
    memo: dict[tuple[int, ...], Fraction] = {}

    def option(pos: tuple[int, ...], i: int) -> Fraction:
        b = bandits[i]
        here = b["reward"][pos[i]]
        others = [j for j in range(n) if j != i]
        value = here if payout == "CCP" else Fraction(0)
        for to, p, halting in b["edges"][pos[i]]:
            if not halting:
                value += p * value_of(pos[:i] + (to,) + pos[i + 1 :])
                continue
            final = b["reward"][to]
            if payout == "CP":
                pay = final + sum(bandits[j]["reward"][pos[j]] for j in others)
            elif payout == "SP":
                pay = final
            elif payout == "NH":
                pay = sum(bandits[j]["reward"][pos[j]] for j in others)
            elif payout == "TP":
                pay = final - sum(costs[j][pos[j]] for j in others)
            elif payout == "PSP":
                pay = here
            else:  # CCP: every activation already paid
                pay = Fraction(0)
            value += p * pay
        return value

    def value_of(pos: tuple[int, ...]) -> Fraction:
        if pos not in memo:
            if policy is None:
                opts = [option(pos, i) for i in range(n)]
                memo[pos] = min(opts) if payout == "NH" else max(opts)
            else:
                memo[pos] = option(pos, choose(pos))
        return memo[pos]

    def choose(pos: tuple[int, ...]) -> int:
        if policy == "greedy":
            rewards = [bandits[i]["reward"][pos[i]] for i in range(n)]
            return rewards.index(max(rewards))
        order = [int(x) for x in policy.split(":")[1].split(",")]
        return order[sum(bandits[i]["depth"][pos[i]] for i in range(n)) % len(order)]

    return value_of(tuple(b["root"] for b in bandits))


# ---------------------------------------------------------------------------
# Chain games: float value iteration over product states


def chain_value(bandits: list[dict], payout: str, policy: str | None, index=None) -> float:
    """Value of a chain game from the initial states.

    ``policy`` is "cyclic:...", "greedy", "index" (largest entry of
    ``index[i][state]``, lowest id on ties) or None for the optimum.
    """
    sizes = [len(b["reward"]) for b in bandits]
    order = [int(x) for x in policy.split(":")[1].split(",")] if policy and policy.startswith("cyclic:") else None
    period = len(order) if order else 1
    states = list(itertools.product(*(range(k) for k in sizes)))
    pos_of = {s: k for k, s in enumerate(states)}
    m = len(states) * period
    n = len(bandits)
    f = [{key: [float(v) for v in b[key]] for key in ("reward", "halt", "halt_reward")} for b in bandits]
    rows = [np.array([[float(p) for p in row] for row in b["rows"]]) for b in bandits]
    pays = np.zeros((n, m))
    moves = [np.zeros((m, m)) for _ in range(n)]
    for s, xs in enumerate(states):
        for phase in range(period):
            row = s * period + phase
            nxt_phase = (phase + 1) % period
            for i in range(n):
                x = xs[i]
                h, r = f[i]["halt"][x], f[i]["reward"][x]
                others = sum(f[j]["reward"][xs[j]] for j in range(n) if j != i)
                terminal = {"CP": f[i]["halt_reward"][x] + others, "SP": f[i]["halt_reward"][x],
                            "NH": others, "PSP": r, "CCP": 0.0}[payout]
                pays[i, row] = h * terminal + (r if payout == "CCP" else 0.0)
                for y in range(sizes[i]):
                    p = rows[i][x, y]
                    if p:
                        ys = xs[:i] + (y,) + xs[i + 1 :]
                        moves[i][row, pos_of[ys] * period + nxt_phase] += (1 - h) * p
    if policy is None:
        pick = None
    else:
        pick = np.zeros(m, dtype=int)
        for s, xs in enumerate(states):
            for phase in range(period):
                if order:
                    c = order[phase]
                else:
                    key = [float(bandits[i]["reward"][xs[i]]) if policy == "greedy" else index[i][xs[i]]
                           for i in range(n)]
                    c = key.index(max(key))
                pick[s * period + phase] = c
        sel = np.arange(m)
        pays_p = pays[pick, sel]
        move_p = np.zeros((m, m))
        for i in range(n):
            move_p[pick == i] = moves[i][pick == i]
    x = np.zeros(m)
    for _ in range(10_000):
        if pick is None:
            cand = np.stack([pays[i] + moves[i] @ x for i in range(n)])
            new = cand.min(axis=0) if payout == "NH" else cand.max(axis=0)
        else:
            new = pays_p + move_p @ x
        done = np.max(np.abs(new - x)) <= 1e-13 * (1 + np.max(np.abs(new)))
        x = new
        if done:
            break
    start = pos_of[tuple(b["initial"] for b in bandits)] * period
    return float(x[start])


# ---------------------------------------------------------------------------
# Chain indices


def _solve(a: list[list], b: list) -> list:
    """Gaussian elimination; exact on Fractions."""
    n = len(b)
    a = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(a[r][c]))
        a[c], a[piv] = a[piv], a[c]
        for r in range(n):
            if r != c and a[r][c]:
                factor = a[r][c] / a[c][c]
                for k in range(c, n + 1):
                    a[r][k] -= factor * a[c][k]
    return [a[r][n] / a[r][r] for r in range(n)]


def _form(chain: dict, anchor: int, scheme: str, exact: bool):
    """(stop, running, halt) payoffs of the index problem at an anchor:
    CP pays the reward movement, CCP every activation's reward."""
    cast = (lambda v: v) if exact else float
    r = [cast(v) for v in chain["reward"]]
    n = len(r)
    zero = cast(Fraction(0))
    if scheme == "CP":
        hr = [cast(v) for v in chain["halt_reward"]]
        return [v - r[anchor] for v in r], [zero] * n, [v - r[anchor] for v in hr]
    return [zero] * n, r, [zero] * n


def stop_set_ratio(chain: dict, anchor: int, stop: frozenset[int], scheme: str = "CP", exact: bool = False):
    """Expected payoff over halting probability when stopping on entering
    ``stop`` (never at the anchor's own activation)."""
    cast = (lambda v: v) if exact else float
    h = [cast(v) for v in chain["halt"]]
    rows = [[cast(p) for p in row] for row in chain["rows"]]
    stop_pay, running, halt_pay = _form(chain, anchor, scheme, exact)
    n = len(h)
    live = [x for x in range(n) if x not in stop]
    a = [[(1 if x == y else 0) - (1 - h[x]) * rows[x][y] for y in live] for x in live]
    num_rhs = [running[x] + h[x] * halt_pay[x] + (1 - h[x]) * sum(rows[x][y] * stop_pay[y] for y in stop)
               for x in live]
    if exact:
        num_live, den_live = _solve(a, num_rhs), _solve(a, [h[x] for x in live])
    elif live:
        both = np.linalg.solve(np.array(a, dtype=float), np.array([num_rhs, [h[x] for x in live]]).T)
        num_live, den_live = list(both[:, 0]), list(both[:, 1])
    else:
        num_live, den_live = [], []
    num_v = dict(zip(live, num_live))
    den_v = dict(zip(live, den_live))
    x = anchor
    num = running[x] + h[x] * halt_pay[x] + (1 - h[x]) * sum(
        rows[x][y] * (stop_pay[y] if y in stop else num_v[y]) for y in range(n))
    den = h[x] + (1 - h[x]) * sum(rows[x][y] * den_v[y] for y in live)
    return num / den


def chain_index(chain: dict, anchor: int, scheme: str = "CP", exact: bool = False):
    """Largest ratio over every stop set."""
    n = len(chain["reward"])
    return max(
        stop_set_ratio(chain, anchor, frozenset(s), scheme, exact)
        for k in range(n + 1)
        for s in itertools.combinations(range(n), k)
    )


def index_optimality_gap(chain: dict, anchor: int, charge: float, scheme: str = "CP") -> float:
    """Best charge-adjusted value from the anchor, by value iteration: zero
    exactly when no stopping rule beats the ratio ``charge``."""
    h = np.array([float(v) for v in chain["halt"]])
    rows = np.array([[float(p) for p in row] for row in chain["rows"]])
    stop_pay, running, halt_pay = (np.array(v, dtype=float) for v in _form(chain, anchor, scheme, False))
    cont_pay = running + h * (halt_pay - charge)
    move = (1 - h)[:, None] * rows
    w = stop_pay.copy()
    for _ in range(10_000):
        new = np.maximum(stop_pay, cont_pay + move @ w)
        done = np.max(np.abs(new - w)) <= 1e-13 * (1 + np.max(np.abs(new)))
        w = new
        if done:
            break
    return float(cont_pay[anchor] + move[anchor] @ w)


# ---------------------------------------------------------------------------
# Unrolled geometric chains: a single live path


def path_index(chain: dict, live: int, depth: int) -> float:
    """Index at ``depth`` of the unrolled path with ``live`` live nodes: the
    best ratio over stopping depths (or never), where the last live node
    halts for sure."""
    n = len(chain["reward"])
    beta = 1 - float(chain["halt"][0])
    r = [float(chain["reward"][d % n]) for d in range(live)]
    hr = [float(chain["halt_reward"][d % n]) for d in range(live)]
    base = r[depth]
    best = -math.inf
    num = 0.0
    reach = 1.0
    for t in range(depth, live):
        if t > depth:  # stop on entering depth t
            best = max(best, (num + reach * (r[t] - base)) / (1 - reach))
        halt = 1.0 if t == live - 1 else 1 - beta
        num += reach * halt * (hr[t] - base)
        reach *= 1 - halt
    return max(best, num / (1 - reach))


# ---------------------------------------------------------------------------
# Checks


def check(op: dict, text: str) -> list[str]:
    """Reasons the output of one op is wrong; empty when it is right."""
    out = json.loads(text)
    bandits, costs = read_doc(op["doc"])
    kind = op["kind"]
    errs: list[str] = []
    if kind == "certify":
        best = tree_value(bandits, costs, op["payout"], None)
        if out["pass"] is not True:
            errs.append("certification reported a failure")
        if not close(out["optimal_value"], best):
            errs.append(f"optimal_value {out['optimal_value']} != {best}")
        if not close(out["index_value"], best):
            errs.append(f"index_value {out['index_value']} != optimum {best}")
        if op.get("psp") and not close(out["psp_value"], best):
            errs.append(f"psp_value {out['psp_value']} != CP value of the index policy {best}")
    elif kind == "greedy":
        atoms = math.prod(sum(b["halted"]) for b in bandits)
        trees = json.loads(op["doc"])["bandits"]
        if out["pass"] is not True:
            errs.append("greedy dominance reported a failure")
        if number(out["min_slack"]) < 0:
            errs.append(f"min_slack {out['min_slack']} < 0")
        if out["n_atoms"] != atoms:
            errs.append(f"n_atoms {out['n_atoms']} != {atoms} root-to-halt path combinations")
        if out["n_policies"] != policy_count(trees):
            errs.append(f"n_policies {out['n_policies']} != {policy_count(trees)}")
    elif kind == "evaluate":
        index = None
        if op["policy"] == "index":
            index = [[chain_index(b, x, op["payout"], exact=True) for x in range(len(b["reward"]))]
                     for b in bandits]
        want = chain_value(bandits, op["payout"], op["policy"], index)
        if not close(out["value"], want):
            errs.append(f"value {out['value']} != {want!r}")
    elif kind == "index":
        chain = bandits[0]
        anchor = op["anchor"]
        value = float(number(out["value"]))
        ratio = stop_set_ratio(chain, anchor, frozenset(out["rule"]))
        if not close(ratio, value):
            errs.append(f"stop set {out['rule']} has ratio {ratio!r}, not the reported {value!r}")
        if len(chain["reward"]) <= 8:
            want = chain_index(chain, anchor)
            if not close(value, want):
                errs.append(f"index {value!r} != best stop-set ratio {want!r}")
        else:
            gap = index_optimality_gap(chain, anchor, value)
            if gap > REL_TOL * (1 + abs(value)):
                errs.append(f"a stopping rule beats the reported index by {gap!r}")
    elif kind == "unrolled":
        chain = bandits[0]
        live = out["nodes"] // 2
        if not close(out["value"], path_index(chain, live, 0)):
            errs.append(f"root index {out['value']} != {path_index(chain, live, 0)!r}")
        blocks = out["blocks"]
        for b in blocks:
            want = path_index(chain, live, b["depth"])
            if not close(b["value"], want):
                errs.append(f"block at depth {b['depth']} has value {b['value']}, not {want!r}")
            if b["parent"] is not None and float(number(blocks[b["parent"]]["value"])) < float(number(b["value"])) - REL_TOL:
                errs.append(f"block values increase at depth {b['depth']}")
    elif kind == "sample":
        policy = op["policy"]
        if bandits[0]["kind"] == "tree":
            want = float(tree_value(bandits, costs, op["payout"], None if policy == "index" else policy))
        else:
            want = chain_value(bandits, op["payout"], None if policy == "index" else policy)
        if abs(out["mean"] - want) > SIGMAS * out["stderr"] + REL_TOL * (1 + abs(want)):
            errs.append(f"mean {out['mean']!r} is more than {SIGMAS} stderr {out['stderr']!r} from {want!r}")
        if out["n_samples"] != op["episodes"] or out["seed"] != op["seed"]:
            errs.append("the result names another seed or sample count")
    return errs
