"""Block values as a policy actually realizes them.

The solo block value of a bandit assumes it is activated at every round.
Inside a game a policy dilutes that: other bandits may halt first, and the
policy may walk away before the block is finished.  The policy block value
keeps the same ratio shape — expected reward movement over halting
probability — but measures both on the global continuation:

* the numerator follows the bandit's reward to its final local time under
  the policy, capped at the block's end rule;
* the denominator is the probability that this bandit is the one that
  halts the game, no later than the block's end.

Both are read off the game's play graph (``game._play_graph``): one
reverse pass per bandit over its state numbers, in which a move of that
bandit ending its block is terminal, gives every state the bandit's
expected reward at the block's end and its chance of halting inside it.

Anchors are global histories (a bandit enters a new block at the history
immediately after the activation that moved it onto the block's anchor
node), and under a deterministic policy each reachable history has one
realized past, so the per-history "policy prevailing index" map is
well-defined.  Histories from which the policy never activates the bandit
again get no entry: the ratio has nothing to divide by there, and the
value plays no role in any payout.
"""

from __future__ import annotations

from typing import Callable

from .errors import PreconditionError
from .game import DEFAULT_HISTORY_CAP, GameInstance, GlobalHistory, Policy, _Play, _play_graph, _tree_value
from .indices import BlockValue, IndexDecomposition, StoppingRule, check_rule, index_decomposition
from .jsonio import Number
from .models import TreeBandit


def _tree_of(game: GameInstance, i: int) -> TreeBandit:
    dyn = game.dynamics(i)
    if not isinstance(dyn, TreeBandit):
        raise PreconditionError("policy block values need a tree backend")
    return dyn


def _block_pass(
    graph: _Play, tree: TreeBandit, i: int, ends: Callable[[int, int], bool]
) -> list[tuple[Number, Number]]:
    """Per state number: bandit ``i``'s expected reward when its current
    block ends, and the probability that it halts the game inside the block.

    ``ends(x, y)`` says whether moving ``i`` from node x to the live node y
    ends the block; such a move pays the reward it lands on.  On ``i``'s
    own move a halt pays the halted label it lands on and counts toward
    the probability; another bandit's move leaves ``i`` at x, so its halt
    pays ``i``'s current reward.  The reverse search order is topological
    on trees.
    """
    out: list[tuple[Number, Number]] = [(0, 0)] * len(graph.states)
    for k in range(len(graph.states) - 1, -1, -1):
        j, _, rows = graph.states[k]
        x = graph.nodes[k][i]
        reward: Number = 0
        halt: Number = 0
        for p, y, succ, _ in rows:
            if j != i:
                y = x
            if succ is None or (j == i and ends(x, y)):
                reward += p * tree.nodes[y].reward
                if succ is None and j == i:
                    halt += p
            else:
                r, h = out[succ]
                reward += p * r
                halt += p * h
        out[k] = (reward, halt)
    return out


def policy_block_value(
    game: GameInstance,
    policy: Policy,
    i: int,
    anchor_history: GlobalHistory,
    end_rule: StoppingRule,
) -> BlockValue:
    """Reward movement over own-halting probability for one policy block.

    ``end_rule`` is a stopping rule on bandit ``i``'s own tree, anchored at
    the node it occupies in ``anchor_history``; the anchor history must be
    reachable under the policy.
    """
    if not 0 <= i < game.n:
        raise PreconditionError(f"no bandit {i}")
    tree = _tree_of(game, i)
    if anchor_history.halter is not None:
        raise PreconditionError("the anchor history is already over")
    check_rule(tree, anchor_history.nodes[i], end_rule)
    graph = _play_graph(game, policy, DEFAULT_HISTORY_CAP)
    k = graph.number.get(graph.key(anchor_history.nodes))
    if k is None or graph.nodes[k] != anchor_history.nodes:  # positions out of range may alias a key
        raise PreconditionError("the policy never reaches that history")
    reward, halt = _block_pass(graph, tree, i, lambda x, y: y in end_rule.stop_set)[k]
    if halt == 0:
        raise PreconditionError(
            f"the policy never activates bandit {i} from that history; the block value is undefined"
        )
    return BlockValue(numerator=reward - tree.nodes[graph.nodes[k][i]].reward, denominator=halt)


def _prevailing(graph: _Play, tree: TreeBandit, i: int, dec: IndexDecomposition) -> list[Number | None]:
    """Per state number, the realized anchor value (None where undefined):
    one block pass, ending blocks where ``dec`` changes block, then one
    forward pass in search order carrying each state's value: its own if
    ``i`` just crossed into a new block, else its predecessor's (on trees
    each reachable state has one predecessor)."""
    block_of, nodes = dec.block_of, graph.nodes
    values = _block_pass(graph, tree, i, lambda x, y: block_of[y] != block_of[x])

    def nu(k: int) -> Number | None:
        reward, halt = values[k]
        return None if halt == 0 else BlockValue(reward - tree.nodes[nodes[k][i]].reward, halt).ratio

    carried = [nu(0)] * len(graph.states)
    for k, (_, _, rows) in enumerate(graph.states):
        for _, _, succ, _ in rows:
            if succ is not None:
                crossed = block_of[nodes[succ][i]] != block_of[nodes[k][i]]
                carried[succ] = nu(succ) if crossed else carried[k]
    return carried


def policy_prevailing_index(
    game: GameInstance,
    policy: Policy,
    i: int,
    *,
    decomposition: IndexDecomposition | None = None,
) -> dict[GlobalHistory, Number]:
    """The bandit's block value as diluted by the policy, per reachable history.

    Blocks are the bandit's own index blocks; the value attached to a
    history is the policy block value of the block its node sits in,
    anchored at the realized entry into that block.  Histories where the
    value is undefined (the policy never comes back) are simply absent.
    """
    tree = _tree_of(game, i)
    dec = decomposition if decomposition is not None else index_decomposition(tree)
    graph = _play_graph(game, policy, DEFAULT_HISTORY_CAP)
    values = _prevailing(graph, tree, i, dec)
    return {GlobalHistory(nodes): v for nodes, v in zip(graph.nodes, values) if v is not None}


def psp_value_with_policy_indices(game: GameInstance, policy: Policy) -> Number:
    """Expected policy-prevailing index of the halter just before the halt.

    This is the penultimate-payout value the policy would earn if every
    bandit's rewards were swapped for its policy-diluted block values; with
    rewards starting at zero it reproduces the collective payout of the
    original game exactly.
    """
    trees = [_tree_of(game, i) for i in range(game.n)]
    graph = _play_graph(game, policy, DEFAULT_HISTORY_CAP)
    maps = [_prevailing(graph, tree, i, index_decomposition(tree)) for i, tree in enumerate(trees)]
    paid = []
    for k, (j, _, rows) in enumerate(graph.states):
        value = maps[j][k]
        if value is None and any(succ is None for _, _, succ, _ in rows):
            raise PreconditionError(f"no prevailing value for bandit {j} at a history it is activated from")
        paid.append((j, 0, [(p, y, succ, value) for p, y, succ, _ in rows]))
    return _tree_value(paid)
