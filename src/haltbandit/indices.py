"""Solo-payout indices and their block decomposition.

The solo-payout index of a bandit at a history is the best achievable
ratio between the expected reward movement collected if the bandit halts
while being run, and the probability that it does halt, over all ways of
deciding when to give up:

    index(anchor) = max over stopping rules tau of
        E[reward at (halt time ^ tau) - reward at anchor | anchor]
        / P(anchor < halt time <= tau | anchor)

Stopping rules must act strictly after the anchor and are adapted to the
bandit's own history.  Since every activation carries positive halting
mass, the denominator of every rule is positive and the index is finite.

Every payout scheme on both backends is one problem of this shape.  Each
activation of a node or state x has a gain c(x) and a halting
probability h(x), and the index is

    max over tau of E[sum of c(X_s)] / E[sum of h(X_s)]

summed over the activations the rule makes, the anchor's included;
stopping pays nothing.  For the plain index c(x) is the expected reward
movement of one activation, so the numerator telescopes into the one
above: on a tree c(x) = sum over edges e of p_e (r(child_e) - r(x)), a
halting edge landing on its halted label; on a chain
c(x) = h(x) (halt_reward(x) - r(x)) + (1 - h(x)) sum_y P(x, y) (r(y) - r(x)).
Payout schemes that relabel rewards (``reductions``) take the gains of
the relabeled bandit, and the cumulative scheme pays c(x) = r(x) itself:
Sonin's generalised index with termination (Stat. Probab. Lett. 2008).

Two solvers are kept deliberately independent: a brute-force enumeration
over every stopping rule (the oracle, which reads rewards directly) and a
parametric ratio iteration (Dinkelbach).  For a charge lambda the inner
problem "collect c - lambda h per activation" is solved by one backward
pass (trees) or by policy iteration over stationary stop sets (chains);
each round returns the adjusted value N - lambda D at the anchor, the
earliest optimal stop set, and that rule's summed gain N and summed
halting probability D.  The value is zero exactly at the index, and the
next charge is N / D.  The earliest optimal rule stops wherever
continuing is worth at most 0 (at most ``ZERO_TOL`` in float arithmetic,
so that rounding noise does not flip a tie), the canonical choice used
throughout.

The ratio iteration solves one anchor at a time; it backs the ``index``
report (``solo_index_parametric``, ``reductions.model_index_result``),
whose iterations and charge trace it supplies.  Everything else reads
one table per bandit and scheme (``_index_table``, read by
``game.IndexPolicy`` and its block-committed subclass and by
``index_decomposition``, and through them by certification and
``pi_values``): one pass from the leaves up on a tree, the ratio
iteration per state on a chain.  The charge-adjusted value at a
node crosses zero at its index, so the earliest optimal rule stops at the
first nodes below the anchor whose index is no larger than the anchor's,
the block structure of the Gittins index (Varaiya, Walrand & Buyukkoc,
IEEE TAC 1985).  Iterating it from the root partitions every path into
index blocks whose values never increase; the per-node "prevailing
index" (the value of the block a node sits in) is the non-increasing
equivalent reward process used by the greedy reduction of the full game.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Mapping

from .errors import InvalidRuleError, PreconditionError, ResourceCapError, SolverError
from .jsonio import Number, Record
from .linear import solve_linear
from .models import MarkovBandit, TreeBandit, _finite

DEFAULT_RULE_CAP = 10**6
DEFAULT_ITER_CAP = 10**4
ZERO_TOL = 1e-10


@dataclass(frozen=True)
class StoppingRule(Record):
    """Stop at the first member of ``stop_set`` reached strictly below ``anchor``."""

    anchor: int
    stop_set: frozenset[int]


@dataclass(frozen=True)
class BlockValue:
    numerator: Number
    denominator: Number

    @property
    def ratio(self) -> Number:
        if isinstance(self.numerator, float) or isinstance(self.denominator, float):
            return self.numerator / self.denominator
        return Fraction(self.numerator, 1) / Fraction(self.denominator, 1)


@dataclass(frozen=True)
class IndexResult:
    """Solver output: the index value and a rule realizing it."""

    value: Number
    rule: StoppingRule | frozenset[int]
    iterations: int
    trace: tuple[tuple[Number, Number], ...] = ()


def check_rule(bandit: TreeBandit, anchor: int, rule: StoppingRule) -> None:
    """Reject rules that stop at or before their anchor, or that could run
    forever (unreachable on sound trees, checked anyway)."""
    if not 0 <= anchor < len(bandit.nodes):
        raise InvalidRuleError(f"anchor {anchor} is not a node")
    if bandit.nodes[anchor].halted:
        raise InvalidRuleError(f"anchor {anchor} is halted; nothing can be decided there")
    if rule.anchor != anchor:
        raise InvalidRuleError(f"rule anchored at {rule.anchor}, expected {anchor}")
    if anchor in rule.stop_set:
        raise InvalidRuleError("a stopping rule must act strictly after its anchor")
    for nid in bandit.ancestors(anchor):
        if nid in rule.stop_set:
            raise InvalidRuleError(f"stop set contains {nid}, an ancestor of the anchor")
    stack = [anchor]
    while stack:
        nid = stack.pop()
        node = bandit.nodes[nid]
        if node.halted or (nid != anchor and nid in rule.stop_set):
            continue
        if not node.edges:
            raise InvalidRuleError(f"node {nid} leaves the rule uncovered: no halt, no stop")
        for e in node.edges:
            stack.append(e.to)


def block_value(bandit: TreeBandit, anchor: int, rule: StoppingRule) -> BlockValue:
    """Expected reward movement and halting probability of one rule.

    The numerator is E[reward at (halt ^ stop) - anchor reward], the
    denominator is the probability that the bandit halts no later than the
    rule stops; both are conditional on sitting at the anchor.
    """
    check_rule(bandit, anchor, rule)
    base = bandit.nodes[anchor].reward
    num: Number = 0
    den: Number = 0
    # edges in depth-first order, each with the weight of the node it leaves
    stack = [(e, 1) for e in reversed(bandit.nodes[anchor].edges)]
    while stack:
        e, weight = stack.pop()
        w = weight * e.p
        child = bandit.nodes[e.to]
        if e.halting:
            num += w * (child.reward - base)
            den += w
        elif e.to in rule.stop_set:
            num += w * (child.reward - base)
        else:
            stack.extend((f, w) for f in reversed(child.edges))
    return BlockValue(numerator=num, denominator=den)


def _post_order(bandit: TreeBandit, anchor: int) -> list[int]:
    # the live nodes strictly below an anchor, each after all of its live descendants
    order = [e.to for e in bandit.continuation_edges(anchor)]
    for nid in order:
        order.extend(e.to for e in bandit.continuation_edges(nid))
    return order[::-1]


def _choices_below(bandit: TreeBandit, anchor: int) -> list[list[frozenset[int]]]:
    # every way to place stops at/below each live child of the anchor: stop
    # there, or continue and decide independently inside each live child subtree
    done: dict[int, list[frozenset[int]]] = {}
    for nid in _post_order(bandit, anchor):
        parts = [done.pop(e.to) for e in bandit.continuation_edges(nid)]
        done[nid] = [frozenset((nid,))] + [frozenset().union(*combo) for combo in itertools.product(*parts)]
    return [done.pop(e.to) for e in bandit.continuation_edges(anchor)]


def rule_count(bandit: TreeBandit, anchor: int) -> int:
    """Number of distinct stopping rules below an anchor."""
    count: dict[int, int] = {}
    for nid in _post_order(bandit, anchor):
        count[nid] = 1 + prod(count.pop(e.to) for e in bandit.continuation_edges(nid))
    return prod(count[e.to] for e in bandit.continuation_edges(anchor))


def enumerate_stopping_rules(
    bandit: TreeBandit, anchor: int, *, cap: int = DEFAULT_RULE_CAP
) -> list[StoppingRule]:
    if not 0 <= anchor < len(bandit.nodes):
        raise PreconditionError(f"anchor {anchor} is not a node")
    if bandit.nodes[anchor].halted:
        raise InvalidRuleError(f"anchor {anchor} is halted")
    n = rule_count(bandit, anchor)
    if n > cap:
        raise ResourceCapError(
            f"{n} stopping rules below anchor {anchor} exceed the cap {cap}; use the parametric solver"
        )
    parts = _choices_below(bandit, anchor)
    return [StoppingRule(anchor, frozenset().union(*combo)) for combo in itertools.product(*parts)]


def solo_index_enumerate(
    bandit: TreeBandit, anchor: int | None = None, *, cap: int = DEFAULT_RULE_CAP
) -> IndexResult:
    """Oracle solver: scan every stopping rule and keep the best ratio."""
    if anchor is None:
        anchor = bandit.root
    best: Number | None = None
    best_rule: StoppingRule | None = None
    count = 0
    for rule in enumerate_stopping_rules(bandit, anchor, cap=cap):
        count += 1
        ratio = block_value(bandit, anchor, rule).ratio
        if best is None or ratio > best:
            best = ratio
            best_rule = rule
    assert best is not None and best_rule is not None
    return IndexResult(value=best, rule=best_rule, iterations=count)


# ---------------------------------------------------------------------------
# The gain form shared by every scheme and both backends


def _gains(bandit: TreeBandit | MarkovBandit) -> list[Number]:
    """Expected reward movement c(x) of one activation at each node or state."""
    if isinstance(bandit, TreeBandit):
        nodes = bandit.nodes
        return [sum((e.p * (nodes[e.to].reward - n.reward) for e in n.edges), 0) for n in nodes]
    if isinstance(bandit, MarkovBandit):
        out: list[Number] = []
        for st, row in zip(bandit.states, bandit.transitions):
            move = sum((p * (bandit.states[y].reward - st.reward) for y, p in enumerate(row) if p != 0), 0)
            out.append(st.halt_prob * (st.halt_reward - st.reward) + (1 - st.halt_prob) * move)
        return out
    raise PreconditionError(f"no index solver for {type(bandit).__name__}")


def _tie_tol(bandit: TreeBandit | MarkovBandit) -> Number:
    # exact arithmetic settles ties exactly; floats settle within ZERO_TOL
    return 0 if bandit.is_exact() else ZERO_TOL


def _first_below(
    tree: TreeBandit, anchor: int, stops_at: Callable[[int], bool]
) -> tuple[list[int], frozenset[int]]:
    """The nodes a rule anchored at ``anchor`` activates, and its stop set:
    the first live nodes below the anchor at which ``stops_at`` holds."""
    members, stops, stack = [], [], [anchor]
    while stack:
        nid = stack.pop()
        members.append(nid)
        for e in tree.continuation_edges(nid):
            (stops if stops_at(e.to) else stack).append(e.to)
    return members, frozenset(stops)


def _tree_pass(
    tree: TreeBandit, gains: list[Number], anchor: int, charge: Number | None, tol: Number
) -> tuple[Number | None, StoppingRule, Number, Number]:
    """One backward pass of the charge-adjusted problem below an anchor.

    Each activation of x collects gains[x] − charge·h(x); a live node stops
    when continuing there is worth at most ``tol``, and with no charge
    nothing stops (the never-stop rule).  Returns N − charge·D at the
    anchor, the rule, and its summed gain N and summed halting
    probability D.
    """
    sums: dict[int, tuple[Number, Number]] = {}
    stopped: set[int] = set()
    for nid in _post_order(tree, anchor) + [anchor]:
        num: Number = gains[nid]
        den: Number = 0
        for e in tree.nodes[nid].edges:
            if e.halting:
                den += e.p
                continue
            n, d = sums.pop(e.to)
            if charge is not None and n - charge * d <= tol:
                stopped.add(e.to)
            else:
                num += e.p * n
                den += e.p * d
        sums[nid] = (num, den)
    num, den = sums[anchor]
    value = None if charge is None else num - charge * den
    return value, StoppingRule(anchor, _first_below(tree, anchor, stopped.__contains__)[1]), num, den


def _chain_continue(chain: MarkovBandit, pay: list[Number], stop_set: frozenset[int]) -> list[Number]:
    """Value of activating each state now and then following the stop set,
    every activation of x paying pay[x] and stopping paying nothing."""
    n = len(chain.states)
    live = [x for x in range(n) if x not in stop_set]
    pos = {x: i for i, x in enumerate(live)}
    rows = []
    for x in live:
        # h - 1 is minus the survival mass, so the diagonal 1 + (h - 1)·p is 1 - (1 - h)·p
        loss = chain.states[x].halt_prob - 1
        row = {pos[y]: loss * p for y, p in enumerate(chain.transitions[x]) if p and y in pos}
        row[pos[x]] = 1 + row.get(pos[x], 0)
        rows.append(row)
    entered = dict(zip(live, solve_linear(rows, [pay[x] for x in live])))
    # a live state's value is the solved one; a stop state's is one step of the same equation
    return [
        entered[x]
        if x in entered
        else pay[x] + (1 - st.halt_prob) * sum((p * entered[y] for y, p in enumerate(row) if p != 0 and y in entered), 0)
        for x, (st, row) in enumerate(zip(chain.states, chain.transitions))
    ]


def _chain_round(
    chain: MarkovBandit, gains: list[Number], anchor: int, charge: Number | None, tol: Number
) -> tuple[Number | None, frozenset[int], Number, Number]:
    """The chain counterpart of ``_tree_pass``: policy iteration over
    stationary stop sets, one solve per improvement step, then one solve
    each for the settled rule's N and D.  The rule is its stop set."""
    halts = [st.halt_prob for st in chain.states]
    stop_set: frozenset[int] = frozenset()
    value = None
    if charge is not None:
        pay = [c - charge * h for c, h in zip(gains, halts)]
        for _ in range(DEFAULT_ITER_CAP):
            cont = _chain_continue(chain, pay, stop_set)
            improved = frozenset(x for x, v in enumerate(cont) if v <= tol)
            if improved == stop_set:
                break
            stop_set = improved
        else:
            raise SolverError("stop-set iteration did not settle")
        value = cont[anchor]
    num = _chain_continue(chain, gains, stop_set)[anchor]
    den = _chain_continue(chain, halts, stop_set)[anchor]
    return value, stop_set, num, den


def _gain_index(
    bandit: TreeBandit | MarkovBandit,
    anchor: int | None,
    gains: list[Number],
) -> IndexResult:
    """Parametric ratio iteration for max over rules of E Σ c / E Σ h.

    Starting from the never-stop rule's ratio, each round solves the
    charge-adjusted problem and resets the charge to the maximizing rule's
    exact ratio N / D.  The charge increases strictly while the adjusted
    value stays positive and can only take finitely many rule ratios, so
    termination needs at most one round per distinct rule.  A float charge
    or adjusted value beyond float range raises ``PreconditionError``.
    """
    tol = _tie_tol(bandit)
    if isinstance(bandit, TreeBandit):
        anchor = bandit.root if anchor is None else anchor
        if not 0 <= anchor < len(bandit.nodes):
            raise PreconditionError(f"anchor {anchor} is not a node")
        if bandit.nodes[anchor].halted:
            raise PreconditionError(f"anchor {anchor} is halted; it has no index")
        solve_round: Callable[..., tuple] = _tree_pass
    else:
        anchor = bandit.initial if anchor is None else anchor
        if not 0 <= anchor < len(bandit.states):
            raise PreconditionError(f"anchor state {anchor} out of range")
        solve_round = _chain_round
    _, _, num, den = solve_round(bandit, gains, anchor, None, tol)
    trace: list[tuple[Number, Number]] = []
    for it in range(1, DEFAULT_ITER_CAP + 1):
        charge = BlockValue(num, den).ratio
        value, rule, num, den = solve_round(bandit, gains, anchor, charge, tol)
        if not (_finite(charge) and _finite(value)):
            raise PreconditionError(f"the ratio iteration left float range (charge {charge!r}, value {value!r})")
        trace.append((charge, value))
        if abs(value) <= tol:
            return IndexResult(value=charge, rule=rule, iterations=it, trace=tuple(trace))
    raise SolverError(f"ratio iteration did not settle within {DEFAULT_ITER_CAP} rounds")


def solo_index_parametric(bandit: TreeBandit | MarkovBandit, anchor: int | None = None) -> IndexResult:
    """Parametric ratio iteration for the solo-payout index, with each
    activation's expected reward movement as its gain."""
    return _gain_index(bandit, anchor, _gains(bandit))


def _index_table(dyn: TreeBandit | MarkovBandit, gains: list[Number]) -> list[Number | None]:
    """The index of every node or state, None at halted nodes.

    On a chain, the ratio iteration at each state.  On a tree, one pass from
    the leaves up over the value of activating x at charge λ, F_x(λ) =
    gains[x] − λ·h(x) + Σ over live edges p_e·max(0, F_child(λ)): convex,
    piecewise linear and strictly decreasing, with the index of x as its
    root.  max(0, F_x) is a sum of hinges w·max(0, b − λ) kept sorted by b;
    the hinges above the root fold into the slope there, the weight of a new
    hinge at the root.  A hinge keeps its weight relative to the node y that
    pushed it; popped at x, the weight is multiplied by the path probability
    from x down to y, read through parent links that each walk compresses to
    x, so no weight is rescaled when lists merge.  Exact and float tables
    run this one scheme.  A float index beyond float range raises
    ``PreconditionError``.
    """
    if isinstance(dyn, MarkovBandit):
        return [_gain_index(dyn, x, gains).value for x in range(len(dyn.states))]
    idx: list[Number | None] = [None] * len(dyn.nodes)
    # each node links to an ancestor, with the path probability down from it
    up, below = list(range(len(dyn.nodes))), [1] * len(dyn.nodes)
    hinges: dict[int, list[tuple[Number, Number, int]]] = {}
    for nid in _post_order(dyn, dyn.root) + [dyn.root]:
        num, den = gains[nid], 0
        merged: list[tuple[Number, Number, int]] = []
        for e in dyn.nodes[nid].edges:
            if e.halting:
                den += e.p
                continue
            part = hinges.pop(e.to)
            up[e.to], below[e.to] = nid, e.p
            if len(part) > len(merged):
                merged, part = part, merged
            for hinge in part:
                insort(merged, hinge)
        while merged and num < merged[-1][0] * den:
            b, w, y = merged.pop()
            path = []
            while y != nid:
                path.append(y)
                y = up[y]
            p: Number = 1
            for y in reversed(path):
                p = below[y] = below[y] * p
                up[y] = nid
            w *= p
            num += w * b
            den += w
        idx[nid] = BlockValue(num, den).ratio
        if not _finite(idx[nid]):
            raise PreconditionError(f"the index of node {nid} lies beyond float range ({idx[nid]!r})")
        merged.append((idx[nid], den, nid))
        hinges[nid] = merged
    return idx


# ---------------------------------------------------------------------------
# Index blocks


@dataclass(frozen=True)
class IndexBlock:
    level: int
    anchor: int
    value: Number
    rule: StoppingRule
    parent: int | None


@dataclass(frozen=True)
class IndexDecomposition:
    """Partition of every live node into index blocks.

    ``prevailing_index`` maps each live node to the value of its block;
    along every path the sequence of block values never increases, and the
    blocks at level k are anchored exactly where the level-(k-1) earliest
    optimal rules stop.
    """

    bandit: TreeBandit
    blocks: tuple[IndexBlock, ...]
    block_of: Mapping[int, int]
    prevailing_index: Mapping[int, Number]


def index_decomposition(bandit: TreeBandit) -> IndexDecomposition:
    """The blocks of a tree's plain index (see ``_decompose``)."""
    return _decompose(bandit, _index_table(bandit, _gains(bandit)))


def _decompose(bandit: TreeBandit, idx: list[Number | None]) -> IndexDecomposition:
    """Read the blocks off an index table: from a block's anchor, a live
    child stays in the block while its index exceeds the block value (by
    more than ``ZERO_TOL`` in float arithmetic); the first children that
    do not stay anchor the blocks of the next level."""
    tol = _tie_tol(bandit)
    blocks: list[IndexBlock] = []
    block_of: dict[int, int] = {}
    prevailing: dict[int, Number] = {}
    queue: list[tuple[int, int, int | None]] = [(bandit.root, 0, None)]
    for anchor, level, parent in queue:
        value = idx[anchor]
        members, stops = _first_below(bandit, anchor, lambda y: idx[y] <= value + tol)
        bi = len(blocks)
        rule = StoppingRule(anchor, stops)
        blocks.append(IndexBlock(level=level, anchor=anchor, value=value, rule=rule, parent=parent))
        for nid in members:
            block_of[nid] = bi
            prevailing[nid] = value
        queue.extend((stop, level + 1, bi) for stop in sorted(stops))
    return IndexDecomposition(
        bandit=bandit,
        blocks=tuple(blocks),
        block_of=block_of,
        prevailing_index=prevailing,
    )
