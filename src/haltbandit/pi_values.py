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

Anchors are global histories (a bandit enters a new block at the history
immediately after the activation that moved it onto the block's anchor
node), and under a deterministic policy each reachable history has one
realized past, so the per-history "policy prevailing index" map is
well-defined.  Histories from which the policy never activates the bandit
again get no entry: the ratio has nothing to divide by there, and the
value plays no role in any payout.
"""

from __future__ import annotations

from .errors import PreconditionError
from .game import DEFAULT_HISTORY_CAP, GameInstance, GlobalHistory, Policy, _play_graph, round_of, step
from .indices import (
    BlockValue,
    IndexDecomposition,
    StoppingRule,
    check_rule,
    index_decomposition,
)
from .jsonio import Number
from .models import TreeBandit


def _tree_of(game: GameInstance, i: int) -> TreeBandit:
    dyn = game.dynamics(i)
    if not isinstance(dyn, TreeBandit):
        raise PreconditionError("policy block values need a tree backend")
    return dyn


def _assert_reachable(game: GameInstance, policy: Policy, target: GlobalHistory) -> None:
    if (target.nodes, 0) not in _play_graph(game, policy, DEFAULT_HISTORY_CAP):
        raise PreconditionError("the policy never reaches that history")


def _nu(
    game: GameInstance,
    policy: Policy,
    i: int,
    anchor: GlobalHistory,
    rule: StoppingRule,
) -> BlockValue:
    tree = _tree_of(game, i)
    base = tree.nodes[anchor.nodes[i]].reward
    num: Number = 0
    den: Number = 0

    def walk(h: GlobalHistory, weight: Number, cap: Number | None) -> None:
        nonlocal num, den
        j = policy.choose(game, h, round_of(game, h))
        for p, nxt in step(game, h, j):
            w = weight * p
            if nxt.halter is not None:
                if j == i and cap is None:
                    # the bandit halted inside the block: count it and read
                    # its reward at the halted node
                    num += w * (tree.nodes[nxt.nodes[i]].reward - base)
                    den += w
                else:
                    # game over with the bandit live (someone else halted) or
                    # past the block's end: reward at the cap, no halt counted
                    end = cap if cap is not None else tree.nodes[nxt.nodes[i]].reward
                    num += w * (end - base)
            else:
                new_cap = cap
                if j == i and cap is None and nxt.nodes[i] in rule.stop_set:
                    new_cap = tree.nodes[nxt.nodes[i]].reward
                walk(nxt, w, new_cap)

    walk(anchor, 1, None)
    if den == 0:
        raise PreconditionError(
            f"the policy never activates bandit {i} from that history; the block value is undefined"
        )
    return BlockValue(numerator=num, denominator=den)


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
    _assert_reachable(game, policy, anchor_history)
    return _nu(game, policy, i, anchor_history, end_rule)


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
    out: dict[GlobalHistory, Number] = {}
    cache: dict[tuple[GlobalHistory, int], Number | None] = {}

    def nu_of(anchor: GlobalHistory, bi: int) -> Number | None:
        key = (anchor, bi)
        if key not in cache:
            block = dec.blocks[bi]
            rule = block.rule
            try:
                cache[key] = _nu(game, policy, i, anchor, rule).ratio
            except PreconditionError:
                cache[key] = None
        return cache[key]

    def visit(h: GlobalHistory, anchor: GlobalHistory) -> None:
        bi = dec.block_of[h.nodes[i]]
        val = nu_of(anchor, bi)
        if val is not None:
            out[h] = val
        j = policy.choose(game, h, round_of(game, h))
        for _, nxt in step(game, h, j):
            if nxt.halter is not None:
                continue
            if j == i and dec.block_of[nxt.nodes[i]] != bi:
                visit(nxt, nxt)  # crossed into a new block: re-anchor
            else:
                visit(nxt, anchor)

    start = game.initial_history()
    visit(start, start)
    return out


def psp_value_with_policy_indices(game: GameInstance, policy: Policy) -> Number:
    """Expected policy-prevailing index of the halter just before the halt.

    This is the penultimate-payout value the policy would earn if every
    bandit's rewards were swapped for its policy-diluted block values; with
    rewards starting at zero it reproduces the collective payout of the
    original game exactly.
    """
    maps = [policy_prevailing_index(game, policy, i) for i in range(game.n)]
    total: Number = 0

    def walk(h: GlobalHistory, weight: Number) -> None:
        nonlocal total
        j = policy.choose(game, h, round_of(game, h))
        for p, nxt in step(game, h, j):
            if nxt.halter is not None:
                if h not in maps[j]:
                    raise PreconditionError(
                        f"no prevailing value for bandit {j} at a history it is activated from"
                    )
                total += weight * p * maps[j][h]
            else:
                walk(nxt, weight * p)

    walk(game.initial_history(), 1)
    return total
