"""Seeded corpus of model documents and the op list of each workload.

Everything here is benchmark code: documents are built as plain JSON
objects in the documented model format and serialized with ``json``, so a
change to the program's own generators (``oracle.random_*``) or emitters
cannot change what the benchmark feeds it.  ``random.Random`` seeded with a
string is stable across Python versions, so a (workload, seed) pair pins
every document and every op.

Each op is a dict:

* ``id``       -- stable name, unique within the workload;
* ``kind``     -- ``certify``, ``greedy``, ``evaluate``, ``index``,
                  ``unrolled`` or ``sample`` (see ``ops.run_op``);
* ``doc``      -- the model document text the op parses;
* ``rational`` -- exact (Fraction) or float arithmetic;
* kind-specific fields (``payout``, ``policy``, ``anchor``, ``seed``,
  ``episodes``, ``psp``, ``digest``).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("tree-certify", "markov-solve", "simulate")

# Seed of the families that do not follow --seed (see the README: the ops a
# known fault hits must fail in every run, whatever the seed).
FIXED_SEED = 20230420

HALT_MASSES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
EPISODES = 2000

# The float chain that the stop-set iteration cannot settle on from state 0
# (see the README, fault 2); exact mode gives -50/101.
OSCILLATING_CHAIN = {
    "rewards": [10, 9, -3],
    "halt": [Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)],
    "rows": [
        [Fraction(2, 5), Fraction(3, 5), Fraction(0)],
        [Fraction(2, 3), Fraction(0), Fraction(1, 3)],
        [Fraction(1, 2), Fraction(1, 2), Fraction(0)],
    ],
}


def num(x: Fraction) -> int | str:
    """JSON form of an exact number: an int, or a ratio string."""
    return int(x) if x.denominator == 1 else str(x)


def split(rng: random.Random, total: Fraction, k: int) -> list[Fraction]:
    weights = [rng.randint(1, 4) for _ in range(k)]
    s = sum(weights)
    return [total * Fraction(w, s) for w in weights]


# ---------------------------------------------------------------------------
# Bandit builders (JSON objects in the model format)


def tree_bandit(
    shape: random.Random,
    values: random.Random,
    live: int,
    *,
    max_depth: int = 8,
    nonincreasing: bool = False,
    root_reward: int | None = None,
) -> dict:
    """A tree with exactly ``live`` live nodes, at most two live children
    and at most two halting edges per node, every path halted by depth
    ``max_depth``.  ``shape`` draws the structure and the halting masses,
    ``values`` the rewards and how each mass splits over its edges."""
    depth = [0]
    parent = [-1]
    children: list[list[int]] = [[]]
    while len(depth) < live:
        open_ = [v for v in range(len(depth)) if len(children[v]) < 2 and depth[v] + 2 <= max_depth]
        p = shape.choice(open_)
        depth.append(depth[p] + 1)
        parent.append(p)
        children.append([])
        children[p].append(len(depth) - 1)
    reward = [0] * live
    for v in range(live):  # parents come before children
        if v == 0:
            reward[v] = values.randint(-5, 10) if root_reward is None else root_reward
        elif nonincreasing:
            reward[v] = reward[parent[v]] - values.randint(0, 3)
        else:
            reward[v] = values.randint(-5, 10)
    # live node v keeps id v; halted children are numbered after them
    nodes = []
    halted: list[dict] = []
    for v in range(live):
        mass = Fraction(1) if not children[v] else shape.choice(HALT_MASSES)
        edges = []
        for p in split(values, mass, shape.randint(1, 2)):
            hid = live + len(halted)
            halted.append({"id": hid, "depth": depth[v] + 1, "reward": values.randint(-5, 10),
                           "halted": True, "edges": []})
            edges.append({"to": hid, "p": num(p), "halting": True})
        if children[v]:
            for c, p in zip(children[v], split(values, 1 - mass, len(children[v]))):
                edges.append({"to": c, "p": num(p), "halting": False})
        nodes.append({"id": v, "depth": depth[v], "reward": reward[v], "halted": False, "edges": edges})
    return {"kind": "tree", "root": 0, "nodes": nodes + halted}


def tree_costs(values: random.Random, tree: dict) -> list[int]:
    return [values.randint(0, 5) for _ in tree["nodes"]]


def chain_bandit(shape: random.Random, values: random.Random, n: int) -> dict:
    """``shape`` draws the halting probabilities, ``values`` the rewards
    and the transition rows."""
    halt = [shape.choice(HALT_MASSES) for _ in range(n)]
    rewards = [values.randint(-5, 10) for _ in range(n)]
    rows = []
    for _ in range(n):
        weights = [values.randint(0, 3) for _ in range(n)]
        if sum(weights) == 0:
            weights[values.randrange(n)] = 1
        s = sum(weights)
        rows.append([Fraction(w, s) for w in weights])
    return chain_obj(rewards, halt, rows)


def chain_obj(rewards: list[int], halt: list[Fraction], rows: list[list[Fraction]]) -> dict:
    return {
        "kind": "markov",
        "states": [
            {"reward": r, "halt_prob": num(h), "halt_reward": r} for r, h in zip(rewards, halt)
        ],
        "transitions": [[num(p) for p in row] for row in rows],
        "initial": 0,
    }


def geometric_chain(rewards: list[int], beta: Fraction) -> dict:
    """Constant survival ``beta``; the state cycles through ``rewards`` and
    a halt pays nothing (the shape ``geometric_markov`` builds)."""
    n = len(rewards)
    return {
        "kind": "markov",
        "states": [{"reward": r, "halt_prob": num(1 - beta), "halt_reward": 0} for r in rewards],
        "transitions": [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)],
        "initial": 0,
    }


def document(bandits: list[dict], costs: list[list[int]] | None = None) -> str:
    doc: dict = {"schema": 1, "bandits": bandits}
    if costs is not None:
        doc["costs"] = costs
    return json.dumps(doc)


def policy_count(trees: list[dict]) -> int:
    """Deterministic policies of a tree game, one choice per reachable
    history (histories of a tree game never merge)."""
    live_children = [
        {n["id"]: [e["to"] for e in n["edges"] if not e["halting"]] for n in t["nodes"]} for t in trees
    ]
    memo: dict[tuple[int, ...], int] = {}

    def count(pos: tuple[int, ...]) -> int:
        if pos not in memo:
            total = 0
            for i, kids in enumerate(live_children):
                ways = 1
                for c in kids[pos[i]]:
                    ways *= count(pos[:i] + (c,) + pos[i + 1 :])
                total += ways
            memo[pos] = total
        return memo[pos]

    return count(tuple(0 for _ in trees))


# ---------------------------------------------------------------------------
# Workloads


def _tree_certify(seed: int) -> list[dict]:
    shape = random.Random(f"tree-certify:shape:{FIXED_SEED}")
    values = random.Random(f"tree-certify:{seed}")
    fixed = random.Random(f"tree-certify:{FIXED_SEED}")
    ops: list[dict] = []

    def add(kind: str, doc: str, rational: bool, payout: str, **extra) -> None:
        ops.append({"id": f"{kind}-{payout}-{len(ops):03d}", "kind": kind, "doc": doc,
                    "rational": rational, "payout": payout, **extra})

    def game(vals: random.Random, sizes: list[int], payout: str) -> str:
        trees = [tree_bandit(shape, vals, k) for k in sizes]
        return document(trees, [tree_costs(vals, t) for t in trees] if payout == "TP" else None)

    # twice as many float games as exact ones, which cost about twice as
    # much: the median op is then a float certification, not one from the
    # thin region between the two groups (README)
    for rational, pairs, triples in ((True, 12, 4), (False, 24, 8)):
        for payout in ("CP", "SP", "TP", "CCP"):
            for _ in range(pairs):
                add("certify", game(values, [shape.randint(7, 10) for _ in range(2)], payout), rational, payout)
            for _ in range(triples):
                add("certify", game(values, [shape.randint(4, 6) for _ in range(3)], payout), rational, payout)
        # NH games do not follow --seed: the oracle maximizes the cost, so
        # certification fails on them (README, fault 1)
        for _ in range(6):
            add("certify", game(fixed, [shape.randint(7, 10) for _ in range(2)], "NH"), rational, "NH")
    for _ in range(32):
        trees = [tree_bandit(shape, values, shape.randint(3, 5), root_reward=0) for _ in range(2)]
        add("certify", document(trees), True, "CP", psp=True)
    made = 0
    while made < 32:
        trees = [tree_bandit(shape, values, shape.randint(2, 4), max_depth=4, nonincreasing=True)
                 for _ in range(2)]
        if policy_count(trees) <= 5000:  # inside the default policy cap of 10**4
            add("greedy", document(trees), True, "PSP")
            made += 1
    return ops


def _markov_solve(seed: int) -> list[dict]:
    shape = random.Random(f"markov-solve:shape:{FIXED_SEED}")
    values = random.Random(f"markov-solve:{seed}")
    fixed = random.Random(f"markov-solve:{FIXED_SEED}")
    ops: list[dict] = []

    def add(kind: str, doc: str, rational: bool, **extra) -> None:
        ops.append({"id": f"{kind}-{len(ops):03d}", "kind": kind, "doc": doc, "rational": rational, **extra})

    def chain_game(vals: random.Random, low: int, high: int) -> str:
        return document([chain_bandit(shape, vals, shape.randint(low, high)) for _ in range(2)])

    cyclic = ("cyclic:0,1", "cyclic:0,0,1", "cyclic:1,0,1")
    payouts = ("CP", "CCP", "SP", "NH", "PSP")
    for k in range(10):
        add("evaluate", chain_game(values, 3, 5), True, payout=payouts[k % 5], policy=cyclic[k % 3])
    for k in range(3):
        add("evaluate", chain_game(values, 18, 22), False, payout=("CP", "CCP", "SP")[k], policy="cyclic:0,1")
    for k in range(8):
        add("evaluate", chain_game(values, 3, 4), True, payout=("CP", "CCP")[k % 2], policy="index")
    # float chain indices do not follow --seed: rounding decides which
    # anchors the stop-set iteration cannot settle on (README, fault 2)
    for n in (3, 4, 5, 8, 12, 20):
        doc = document([chain_bandit(fixed, fixed, n)])
        for anchor in range(n):
            add("index", doc, False, anchor=anchor)
    osc = OSCILLATING_CHAIN
    add("index", document([chain_obj(osc["rewards"], osc["halt"], osc["rows"])]), False, anchor=0)
    for _ in range(6):
        rewards = [values.randint(0, 5) for _ in range(shape.randint(2, 4))]
        add("unrolled", document([geometric_chain(rewards, Fraction(9, 10))]), False)
    add("unrolled", document([geometric_chain([1, 3, 0], Fraction(9, 10))]), True)
    # survival 0.99 unrolls to depth 2292: the recursive solvers overflow
    # the stack (README, fault 3)
    for rational in (True, False):
        add("unrolled", document([geometric_chain([1, 3, 0], Fraction(99, 100))]), rational)
    return ops


def _simulate(seed: int) -> list[dict]:
    shape = random.Random(f"simulate:shape:{FIXED_SEED}")
    values = random.Random(f"simulate:{seed}")
    fixed = random.Random(f"simulate:{FIXED_SEED}")
    ops: list[dict] = []

    def add(doc: str, payout: str, policy: str, vals: random.Random, **extra) -> None:
        ops.append({"id": f"sample-{payout}-{policy}-{len(ops):03d}", "kind": "sample", "doc": doc,
                    "rational": False, "payout": payout, "policy": policy,
                    "seed": vals.randrange(2**32), "episodes": EPISODES, **extra})

    def tree_game(vals: random.Random, payout: str) -> str:
        trees = [tree_bandit(shape, vals, shape.randint(6, 10)) for _ in range(2)]
        return document(trees, [tree_costs(vals, t) for t in trees] if payout == "TP" else None)

    def chain_game(vals: random.Random) -> str:
        return document([chain_bandit(shape, vals, shape.randint(3, 5)) for _ in range(2)])

    for payout in ("CP", "CCP", "SP", "TP"):
        for policy in ("cyclic:0,1", "greedy", "index"):
            for _ in range(2):
                add(tree_game(values, payout), payout, policy, values)
    for _ in range(3):
        add(tree_game(values, "PSP"), "PSP", "greedy", values)
    for payout in ("CP", "CCP", "SP"):
        for policy in ("cyclic:0,1", "greedy"):
            for _ in range(2):
                add(chain_game(values), payout, policy, values)
    # index policies on float chains do not follow --seed: rounding decides
    # which games the stop-set fault hits (README, fault 2)
    for payout in ("CP", "CCP"):
        for _ in range(2):
            add(chain_game(fixed), payout, "index", fixed)
    # pinned streams: their means are compared bit for bit with digest.json
    for payout, policy in (("CP", "cyclic:0,1"), ("CCP", "greedy"), ("SP", "index"), ("PSP", "greedy")):
        add(tree_game(fixed, payout), payout, policy, fixed, digest=True)
    return ops


def build(workload: str, seed: int) -> list[dict]:
    """The op list of one workload for one seed."""
    if workload == "tree-certify":
        return _tree_certify(seed)
    if workload == "markov-solve":
        return _markov_solve(seed)
    if workload == "simulate":
        return _simulate(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
