"""Bandit process models.

A halting bandit is a reward process together with a halting time: every
activation advances the process one local step and risks ending the whole
game.  Two backends are provided.

``TreeBandit`` is the exact, finite-horizon backend.  Nodes are complete
local histories; activating a bandit sitting at a node resolves one of the
node's outgoing edges.  Halting lives on the edges: a halting edge leads to
a ``halted`` child carrying the payout-at-halt reward, a continuation edge
leads to the next live history.  Every non-terminal node must carry strictly
positive halting mass (each activation can end the game) and every leaf must
be halted (the process cannot run forever).

``MarkovBandit`` is the stationary backend: per-state reward, per-state
halting probability, per-state halting reward, and row-stochastic
continuation dynamics.

``ProfitBandit`` decorates a reward tree with a per-node running cost for
the terminal-profit payout scheme.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

from .errors import ModelFormatError, PreconditionError, ResourceCapError
from .jsonio import Number, Record, dumps_canonical, format_number, parse_number

DEFAULT_MAX_DEPTH = 12
DEFAULT_MAX_BRANCHING = 4
PROB_SUM_TOL = 1e-12
_UNROLL_NODE_CAP = 500_000
_UNROLL_TAIL = 1e-10  # chain mass left at the default cut of ``unroll_markov``


@dataclass(frozen=True)
class TreeEdge:
    to: int
    p: Number
    halting: bool


@dataclass(frozen=True)
class TreeNode:
    depth: int
    reward: Number
    halted: bool
    edges: tuple[TreeEdge, ...] = ()


@dataclass(frozen=True)
class TreeBandit:
    """A scenario tree; node ids are indices into ``nodes``."""

    nodes: tuple[TreeNode, ...]
    root: int = 0

    def continuation_edges(self, node_id: int) -> tuple[TreeEdge, ...]:
        return tuple(e for e in self.nodes[node_id].edges if not e.halting)

    def ancestors(self, node_id: int) -> list[int]:
        """Proper ancestors of a node, nearest first."""
        out = []
        cur = self._parents.get(node_id)
        while cur is not None:
            out.append(cur)
            cur = self._parents.get(cur)
        return out

    def prefix_reward(self, node_id: int) -> Number:
        """Sum of rewards of the proper ancestors of a node (root included)."""
        return self._prefix[node_id]

    @cached_property
    def _parents(self) -> dict[int, int]:
        return {e.to: nid for nid, node in enumerate(self.nodes) for e in node.edges}

    @cached_property
    def _prefix(self) -> dict[int, Number]:
        prefix: dict[int, Number] = {self.root: 0}
        stack = [self.root]
        while stack:
            nid = stack.pop()
            for e in self.nodes[nid].edges:
                prefix[e.to] = prefix[nid] + self.nodes[nid].reward
                stack.append(e.to)
        return prefix

    def is_exact(self) -> bool:
        """True when every reward and probability is an int or a Fraction."""
        for node in self.nodes:
            if isinstance(node.reward, float):
                return False
            for e in node.edges:
                if isinstance(e.p, float):
                    return False
        return True


@dataclass(frozen=True)
class MarkovState:
    reward: Number
    halt_prob: Number
    halt_reward: Number


@dataclass(frozen=True)
class MarkovBandit:
    """Stationary bandit: halt from state x with probability ``halt_prob(x)``
    collecting ``halt_reward(x)``, otherwise move per the transition row."""

    states: tuple[MarkovState, ...]
    transitions: tuple[tuple[Number, ...], ...]
    initial: int = 0

    def is_exact(self) -> bool:
        for st in self.states:
            if any(isinstance(v, float) for v in (st.reward, st.halt_prob, st.halt_reward)):
                return False
        return not any(isinstance(p, float) for row in self.transitions for p in row)

    def moves(self, x: int) -> list[tuple[Number, int, bool]]:
        """State x's moves of positive probability, per outcome (probability,
        landing state, whether it halts): the halt first, landing on x, then
        a survive to each state the transition row reaches."""
        st = self.states[x]
        out = [(st.halt_prob, x, True)] if st.halt_prob != 0 else []
        survive = 1 - st.halt_prob
        out.extend((q, y, False) for y, p in enumerate(self.transitions[x]) if (q := survive * p) != 0)
        return out


@dataclass(frozen=True)
class ProfitBandit:
    """Reward tree plus a per-node running cost, for terminal-profit games."""

    rewards: TreeBandit
    costs: tuple[Number, ...]

    def cost(self, node_id: int) -> Number:
        return self.costs[node_id]


AnyBandit = TreeBandit | MarkovBandit | ProfitBandit


def dynamics_of(bandit: AnyBandit) -> TreeBandit | MarkovBandit:
    """The process that actually moves (a ProfitBandit moves on its reward tree)."""
    return bandit.rewards if isinstance(bandit, ProfitBandit) else bandit


@dataclass(frozen=True)
class Violation(Record):
    code: str
    where: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}


def _finite(value: Number) -> bool:
    return not isinstance(value, float) or math.isfinite(value)


def _sums_to_one(total: Number) -> bool:
    # exact totals must be exactly 1; only float totals get a tolerance
    return abs(total - 1) <= PROB_SUM_TOL if isinstance(total, float) else total == 1


def _validate_tree(
    bandit: TreeBandit,
    out: list[Violation],
    max_depth: int | None,
    max_branching: int | None,
) -> None:
    n = len(bandit.nodes)
    if n == 0:
        out.append(Violation("empty-model", "tree", "a tree bandit needs at least one node"))
        return
    if not 0 <= bandit.root < n:
        out.append(Violation("bad-root", "tree", f"root id {bandit.root} out of range"))
        return
    root = bandit.nodes[bandit.root]
    if root.halted:
        out.append(Violation("halted-root", f"node {bandit.root}", "the root must allow at least one activation"))
    if root.depth != 0:
        out.append(Violation("root-depth", f"node {bandit.root}", f"root depth is {root.depth}, expected 0"))

    parents: dict[int, int] = {}
    for nid, node in enumerate(bandit.nodes):
        if not _finite(node.reward):
            out.append(Violation("non-finite-reward", f"node {nid}", f"reward {node.reward!r}"))
        if node.halted and node.edges:
            out.append(Violation("halted-node-with-edges", f"node {nid}", "halted histories cannot continue"))
        if not node.halted and not node.edges:
            out.append(Violation("unhalted-leaf", f"node {nid}", "every path must end by halting"))
        if max_branching is not None and len(node.edges) > max_branching:
            out.append(Violation("branching-limit", f"node {nid}", f"{len(node.edges)} edges exceed the limit {max_branching}"))
        if max_depth is not None and node.depth > max_depth:
            out.append(Violation("depth-limit", f"node {nid}", f"depth {node.depth} exceeds the limit {max_depth}"))
        total: Number = 0
        halting_mass: Number = 0
        for e in node.edges:
            if not 0 <= e.to < n:
                out.append(Violation("dangling-edge", f"node {nid}", f"edge target {e.to} out of range"))
                continue
            if not _finite(e.p) or e.p <= 0:
                out.append(Violation("non-positive-edge-probability", f"node {nid}", f"edge to {e.to} has p={e.p!r}"))
            if e.to in parents:
                out.append(Violation("multiple-parents", f"node {e.to}", "a history can be reached one way only"))
            parents[e.to] = nid
            child = bandit.nodes[e.to]
            if child.depth != node.depth + 1:
                out.append(Violation("depth-mismatch", f"node {e.to}", f"depth {child.depth} under a depth-{node.depth} parent"))
            if child.halted != e.halting:
                out.append(Violation("halting-flag-mismatch", f"node {e.to}", "edge kind must match the child's halted flag"))
            total = total + e.p
            if e.halting:
                halting_mass = halting_mass + e.p
        if node.edges and not _sums_to_one(total):
            out.append(Violation("edge-probability-sum", f"node {nid}", f"outgoing probabilities sum to {total!r}"))
        if not node.halted and node.edges and halting_mass <= 0:
            out.append(Violation("zero-halting-mass", f"node {nid}", "every activation must carry positive halting probability"))

    reached = {bandit.root}
    stack = [bandit.root]
    while stack:
        nid = stack.pop()
        for e in bandit.nodes[nid].edges:
            if 0 <= e.to < n and e.to not in reached:
                reached.add(e.to)
                stack.append(e.to)
    for nid in range(n):
        if nid not in reached:
            out.append(Violation("unreachable-node", f"node {nid}", "not reachable from the root"))


def _validate_markov(bandit: MarkovBandit, out: list[Violation]) -> None:
    n = len(bandit.states)
    if n == 0:
        out.append(Violation("empty-model", "markov", "a markov bandit needs at least one state"))
        return
    if not 0 <= bandit.initial < n:
        out.append(Violation("bad-initial-state", "markov", f"initial state {bandit.initial} out of range"))
    if len(bandit.transitions) != n:
        out.append(Violation("transition-shape", "markov", f"{len(bandit.transitions)} rows for {n} states"))
        return
    for k, st in enumerate(bandit.states):
        for label, v in (("reward", st.reward), ("halt_reward", st.halt_reward)):
            if not _finite(v):
                out.append(Violation("non-finite-reward", f"state {k}", f"{label} is {v!r}"))
        if not _finite(st.halt_prob) or st.halt_prob <= 0:
            out.append(Violation("zero-halting-mass", f"state {k}", "every activation must carry positive halting probability"))
        elif st.halt_prob > 1:
            out.append(Violation("halting-probability-above-one", f"state {k}", f"halt_prob {st.halt_prob!r}"))
        row = bandit.transitions[k]
        if len(row) != n:
            out.append(Violation("transition-shape", f"state {k}", f"row has {len(row)} entries for {n} states"))
            continue
        total: Number = 0
        for j, p in enumerate(row):
            if not _finite(p) or p < 0:
                out.append(Violation("negative-transition", f"state {k}", f"entry {j} is {p!r}"))
            total = total + p
        if not _sums_to_one(total):
            out.append(Violation("row-sum", f"state {k}", f"transition row sums to {total!r}"))


def validate(
    bandit: AnyBandit,
    *,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
    max_branching: int | None = DEFAULT_MAX_BRANCHING,
) -> ValidationReport:
    """Check structural soundness; violations are reported, not raised.

    Tree bandits must form a rooted tree whose depths equal local times,
    whose non-terminal nodes carry positive halting mass and unit outgoing
    probability, and whose leaves are all halted.  Markov bandits must be
    row-stochastic with halting probabilities in (0, 1].
    """
    out: list[Violation] = []
    if isinstance(bandit, ProfitBandit):
        _validate_tree(bandit.rewards, out, max_depth, max_branching)
        if len(bandit.costs) != len(bandit.rewards.nodes):
            out.append(Violation("cost-shape", "costs", f"{len(bandit.costs)} costs for {len(bandit.rewards.nodes)} nodes"))
        for nid, c in enumerate(bandit.costs):
            if not _finite(c):
                out.append(Violation("non-finite-cost", f"node {nid}", f"cost {c!r}"))
    elif isinstance(bandit, TreeBandit):
        _validate_tree(bandit, out, max_depth, max_branching)
    elif isinstance(bandit, MarkovBandit):
        _validate_markov(bandit, out)
    else:
        raise PreconditionError(f"cannot validate {type(bandit).__name__}")
    return ValidationReport(tuple(out))


def to_float(bandit: AnyBandit) -> AnyBandit:
    """Copy a bandit with every number converted to a machine float."""
    if isinstance(bandit, ProfitBandit):
        return ProfitBandit(rewards=to_float(bandit.rewards), costs=tuple(float(c) for c in bandit.costs))
    if isinstance(bandit, TreeBandit):
        nodes = tuple(
            TreeNode(
                depth=n.depth,
                reward=float(n.reward),
                halted=n.halted,
                edges=tuple(TreeEdge(e.to, float(e.p), e.halting) for e in n.edges),
            )
            for n in bandit.nodes
        )
        return TreeBandit(nodes=nodes, root=bandit.root)
    if isinstance(bandit, MarkovBandit):
        states = tuple(
            MarkovState(float(s.reward), float(s.halt_prob), float(s.halt_reward)) for s in bandit.states
        )
        rows = tuple(tuple(float(p) for p in row) for row in bandit.transitions)
        return MarkovBandit(states=states, transitions=rows, initial=bandit.initial)
    raise PreconditionError(f"cannot convert {type(bandit).__name__}")


def geometric_markov(
    rewards: Number | Sequence[Number],
    beta: Number,
    halt_rewards: str = "zero",
) -> MarkovBandit:
    """Build the geometric-halting chain: constant survival ``beta`` per
    activation, rewards cycling through the given sequence.

    ``halt_rewards`` is "zero" or "reward" (halt pays the state reward).
    """
    if not 0 < beta < 1:
        raise PreconditionError(f"survival probability must lie strictly inside (0, 1), got {beta!r}")
    seq = [rewards] if not isinstance(rewards, (list, tuple)) else list(rewards)
    if not seq:
        raise PreconditionError("at least one reward is required")
    n = len(seq)
    if halt_rewards == "zero":
        halt_seq: list[Number] = [0] * n
    elif halt_rewards == "reward":
        halt_seq = list(seq)
    else:
        raise PreconditionError(f"unknown halt reward rule {halt_rewards!r}")
    halt_prob = 1 - beta
    states = tuple(MarkovState(seq[i], halt_prob, halt_seq[i]) for i in range(n))
    rows = tuple(tuple(1 if j == (i + 1) % n else 0 for j in range(n)) for i in range(n))
    return MarkovBandit(states=states, transitions=rows, initial=0)


def unroll_markov(
    bandit: MarkovBandit,
    *,
    max_depth: int | None = None,
) -> TreeBandit:
    """Unroll a Markov bandit into a finite tree.

    The tree follows the chain exactly until the cut depth, where the whole
    remaining mass is folded into a forced halting edge.  With minimum
    halting probability h the probability of ever reaching the cut is at
    most (1-h)^depth, so by default the cut is placed where that tail drops
    below ``_UNROLL_TAIL`` (1e-10); values computed on the tree differ from
    the chain by at most that mass times the reward scale.
    """
    h_min = min(float(st.halt_prob) for st in bandit.states)
    if max_depth is None:
        if h_min >= 1:
            max_depth = 1
        else:
            max_depth = max(1, math.ceil(math.log(_UNROLL_TAIL) / math.log(1 - h_min)))
    moves = [bandit.moves(x) for x in range(len(bandit.states))]
    # a live node's slot is filled when it is popped, with its edges
    nodes: list[TreeNode | None] = [None]
    frontier = [(0, 0, bandit.initial)]
    while frontier:
        nid, depth, x = frontier.pop()
        edges = []
        # at the cut the whole remaining mass halts
        for p, y, halts in [(1, x, True)] if depth + 1 >= max_depth else moves[x]:
            edges.append(TreeEdge(len(nodes), p, halts))
            if halts:
                nodes.append(TreeNode(depth + 1, bandit.states[x].halt_reward, True))
            else:
                frontier.append((len(nodes), depth + 1, y))
                nodes.append(None)
        if len(nodes) > _UNROLL_NODE_CAP:
            raise ResourceCapError(f"unrolled tree exceeds {_UNROLL_NODE_CAP} nodes; lower the depth")
        nodes[nid] = TreeNode(depth, bandit.states[x].reward, False, tuple(edges))
    return TreeBandit(nodes=tuple(nodes), root=0)


# ---------------------------------------------------------------------------
# Model documents


def _tree_to_obj(bandit: TreeBandit) -> dict:
    return {
        "kind": "tree",
        "nodes": [
            {
                "id": nid,
                "depth": node.depth,
                "reward": format_number(node.reward),
                "halted": node.halted,
                "edges": [
                    {"to": e.to, "p": format_number(e.p), "halting": e.halting} for e in node.edges
                ],
            }
            for nid, node in enumerate(bandit.nodes)
        ],
        "root": bandit.root,
    }


def _markov_to_obj(bandit: MarkovBandit) -> dict:
    return {
        "kind": "markov",
        "states": [
            {
                "reward": format_number(s.reward),
                "halt_prob": format_number(s.halt_prob),
                "halt_reward": format_number(s.halt_reward),
            }
            for s in bandit.states
        ],
        "transitions": [[format_number(p) for p in row] for row in bandit.transitions],
        "initial": bandit.initial,
    }


def dumps_model(bandits: Sequence[AnyBandit]) -> str:
    """Serialize bandits to canonical model-document text."""
    entries = []
    costs: list[list | None] = []
    has_costs = False
    for b in bandits:
        if isinstance(b, ProfitBandit):
            entries.append(_tree_to_obj(b.rewards))
            costs.append([format_number(c) for c in b.costs])
            has_costs = True
        elif isinstance(b, TreeBandit):
            entries.append(_tree_to_obj(b))
            costs.append(None)
        elif isinstance(b, MarkovBandit):
            entries.append(_markov_to_obj(b))
            costs.append(None)
        else:
            raise ModelFormatError(f"cannot serialize {type(b).__name__}")
    doc: dict = {"schema": 1, "bandits": entries}
    if has_costs:
        doc["costs"] = costs
    return dumps_canonical(doc)


def _obj_to_tree(obj: dict, where: str, rational: bool) -> TreeBandit:
    raw_nodes = obj.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ModelFormatError(f"{where}: 'nodes' must be a non-empty list")
    nodes: list[TreeNode | None] = [None] * len(raw_nodes)
    for item in raw_nodes:
        if not isinstance(item, dict):
            raise ModelFormatError(f"{where}: node entries must be objects")
        try:
            nid = item["id"]
            depth = item["depth"]
            reward = parse_number(item["reward"], rational=rational)
            halted = item["halted"]
            raw_edges = item.get("edges", [])
        except KeyError as exc:
            raise ModelFormatError(f"{where}: node missing field {exc}") from exc
        if not isinstance(nid, int) or not 0 <= nid < len(raw_nodes):
            raise ModelFormatError(f"{where}: node id {nid!r} must index the node list")
        if nodes[nid] is not None:
            raise ModelFormatError(f"{where}: duplicate node id {nid}")
        if not isinstance(depth, int) or isinstance(depth, bool):
            raise ModelFormatError(f"{where}: node {nid} depth must be an integer")
        if not isinstance(halted, bool):
            raise ModelFormatError(f"{where}: node {nid} halted flag must be boolean")
        if not isinstance(raw_edges, list):
            raise ModelFormatError(f"{where}: node {nid} edges must be a list")
        edges = []
        for edge in raw_edges:
            if not isinstance(edge, dict):
                raise ModelFormatError(f"{where}: node {nid} edges must be objects")
            try:
                to = edge["to"]
                p = parse_number(edge["p"], rational=rational)
                halting = edge["halting"]
            except KeyError as exc:
                raise ModelFormatError(f"{where}: node {nid} edge missing field {exc}") from exc
            if not isinstance(to, int) or isinstance(to, bool):
                raise ModelFormatError(f"{where}: node {nid} edge target must be an integer")
            if not isinstance(halting, bool):
                raise ModelFormatError(f"{where}: node {nid} edge halting flag must be boolean")
            edges.append(TreeEdge(to=to, p=p, halting=halting))
        nodes[nid] = TreeNode(depth=depth, reward=reward, halted=halted, edges=tuple(edges))
    root = obj.get("root", 0)
    if not isinstance(root, int) or isinstance(root, bool):
        raise ModelFormatError(f"{where}: root must be an integer node id")
    return TreeBandit(nodes=tuple(nodes), root=root)  # type: ignore[arg-type]


def _obj_to_markov(obj: dict, where: str, rational: bool) -> MarkovBandit:
    raw_states = obj.get("states")
    raw_rows = obj.get("transitions")
    if not isinstance(raw_states, list) or not raw_states:
        raise ModelFormatError(f"{where}: 'states' must be a non-empty list")
    if not isinstance(raw_rows, list):
        raise ModelFormatError(f"{where}: 'transitions' must be a list of rows")
    states = []
    for k, item in enumerate(raw_states):
        if not isinstance(item, dict):
            raise ModelFormatError(f"{where}: state entries must be objects")
        try:
            states.append(
                MarkovState(
                    reward=parse_number(item["reward"], rational=rational),
                    halt_prob=parse_number(item["halt_prob"], rational=rational),
                    halt_reward=parse_number(item["halt_reward"], rational=rational),
                )
            )
        except KeyError as exc:
            raise ModelFormatError(f"{where}: state {k} missing field {exc}") from exc
    rows = []
    for k, row in enumerate(raw_rows):
        if not isinstance(row, list):
            raise ModelFormatError(f"{where}: transition row {k} must be a list")
        rows.append(tuple(parse_number(p, rational=rational) for p in row))
    initial = obj.get("initial", 0)
    if not isinstance(initial, int) or isinstance(initial, bool):
        raise ModelFormatError(f"{where}: initial must be an integer state id")
    return MarkovBandit(states=tuple(states), transitions=tuple(rows), initial=initial)


def loads_model(text: str, *, rational: bool = False) -> list[AnyBandit]:
    """Parse model-document text into bandits.

    Probabilities and rewards may be JSON numbers or string literals; with
    ``rational=True`` everything is kept exact as Fractions.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    schema = doc.get("schema", 1)
    if schema != 1:
        raise ModelFormatError(f"unsupported schema version {schema!r}")
    raw_bandits = doc.get("bandits")
    if not isinstance(raw_bandits, list) or not raw_bandits:
        raise ModelFormatError("'bandits' must be a non-empty list")
    raw_costs = doc.get("costs")
    if raw_costs is not None:
        if not isinstance(raw_costs, list) or len(raw_costs) != len(raw_bandits):
            raise ModelFormatError("'costs' must align with 'bandits'")
    out: list[AnyBandit] = []
    for i, entry in enumerate(raw_bandits):
        where = f"bandit {i}"
        if not isinstance(entry, dict):
            raise ModelFormatError(f"{where}: must be an object")
        kind = entry.get("kind")
        if kind == "tree":
            bandit: AnyBandit = _obj_to_tree(entry, where, rational)
            cost_row = raw_costs[i] if raw_costs is not None else None
            if cost_row is not None:
                if not isinstance(cost_row, list) or len(cost_row) != len(bandit.nodes):  # type: ignore[union-attr]
                    raise ModelFormatError(f"{where}: cost row must align with the node list")
                bandit = ProfitBandit(
                    rewards=bandit,  # type: ignore[arg-type]
                    costs=tuple(parse_number(c, rational=rational) for c in cost_row),
                )
        elif kind == "markov":
            if raw_costs is not None and raw_costs[i] is not None:
                raise ModelFormatError(f"{where}: costs apply to tree bandits only")
            bandit = _obj_to_markov(entry, where, rational)
        else:
            raise ModelFormatError(f"{where}: unknown kind {kind!r}")
        out.append(bandit)
    return out


def load_model(path: str | Path, *, rational: bool = False) -> list[AnyBandit]:
    return loads_model(Path(path).read_text(), rational=rational)


def save_model(bandits: Sequence[AnyBandit], path: str | Path) -> None:
    Path(path).write_text(dumps_model(bandits))
