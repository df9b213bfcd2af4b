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
over every stopping rule (the oracle, which reads rewards directly), and
one index table per bandit and scheme (``_index_table``) that answers
every other index question.  On a tree the table is one pass from the
leaves up, on integers when the tree is exact, building one ``Fraction``
per node; on a chain it is Sonin's state elimination, the
largest-remaining-index ranking of Varaiya, Walrand & Buyukkoc (IEEE TAC
1985).  Neither solves a linear system.

The table gives the earliest optimal rule as well as the value: the rule
anchored at a node stops at the first nodes below it whose index is no
larger than the anchor's, and the rule anchored at a state stops at every
state whose index is no larger (within ``ZERO_TOL`` in float arithmetic,
so that rounding noise does not flip a tie).  That is the block structure
of the Gittins index.  ``solo_index_parametric`` and
``reductions.model_index_result`` read one anchor's value and rule off the
table (on a tree, a table over the anchor's subtree only, on which the
anchor's index alone depends); ``game.IndexPolicy`` and its
block-committed subclass, and through them certification and
``pi_values``, read whole tables; and
``index_decomposition`` iterates the rule from the root, partitioning
every path into index blocks whose values never increase.  The per-node
"prevailing index" (the value of the block a node sits in) is the
non-increasing equivalent reward process used by the greedy reduction of
the full game.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Callable, Mapping

from .errors import InvalidRuleError, PreconditionError, ResourceCapError, SolverError
from .jsonio import Number, Record
from .models import MarkovBandit, TreeBandit, _finite

DEFAULT_RULE_CAP = 10**6
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
    """Solver output: the index value, a rule realizing it, and a count:
    the rules scanned by enumeration, the size of the anchor's block when
    read off the table (``_index_at``)."""

    value: Number
    rule: StoppingRule | frozenset[int]
    iterations: int


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


def _index_at(dyn: TreeBandit | MarkovBandit, anchor: int | None, gains: list[Number]) -> IndexResult:
    """The index at an anchor, read off the table with its earliest optimal
    rule (see the module docstring).  ``iterations`` is the size of the
    anchor's block: the anchor and every node or state at which the rule
    continues (on a tree the live nodes it reaches before a stop, on a chain
    the states outside its stop set)."""
    tree = isinstance(dyn, TreeBandit)
    if tree:
        anchor = dyn.root if anchor is None else anchor
        if not 0 <= anchor < len(dyn.nodes):
            raise PreconditionError(f"anchor {anchor} is not a node")
        if dyn.nodes[anchor].halted:
            raise PreconditionError(f"anchor {anchor} is halted; it has no index")
    else:
        anchor = dyn.initial if anchor is None else anchor
        if not 0 <= anchor < len(dyn.states):
            raise PreconditionError(f"anchor state {anchor} out of range")
    idx = _index_table(dyn, gains, anchor)
    top = idx[anchor] + _tie_tol(dyn)
    if tree:
        members, stops = _first_below(dyn, anchor, lambda y: idx[y] <= top)
        return IndexResult(value=idx[anchor], rule=StoppingRule(anchor, stops), iterations=len(members))
    stop_set = frozenset(y for y, v in enumerate(idx) if v <= top)
    return IndexResult(value=idx[anchor], rule=stop_set, iterations=len(idx) - len(stop_set) + 1)


def solo_index_parametric(bandit: TreeBandit | MarkovBandit, anchor: int | None = None) -> IndexResult:
    """The solo-payout index at an anchor (the root or initial state by
    default), with each activation's expected reward movement as its gain."""
    return _index_at(bandit, anchor, _gains(bandit))


def _chain_table(chain: MarkovBandit, gains: list[Number]) -> list[Number]:
    """The index of every state, by state elimination.

    Each unranked state x holds a gain c(x), a halting mass h(x) and a
    survival row Q(x, ·) over the unranked states: those of one activation
    of x followed by every activation at ranked states until the chain
    halts or reaches an unranked state.  The unranked state with the
    largest c/h is ranked next, with that ratio as its index; ties go to
    the lowest id, and in float arithmetic every ratio within ``ZERO_TOL``
    of the largest ties.  The ranked state z is then folded into each
    unranked x with f = Q(x, z) / (1 − Q(z, z)): c(x) += f·c(z),
    h(x) += f·h(z), Q(x, y) += f·Q(z, y).  1 − Q(z, z) is summed as
    h(z) + Σ over unranked y ≠ z of Q(z, y), which is positive whenever
    h(z) is and has no cancellation in floats.  A state left without
    halting mass has no ratio and raises ``SolverError`` before anything
    divides by it; a float ratio beyond float range raises
    ``PreconditionError``.
    """
    tol = _tie_tol(chain)
    # exact halting masses as Fractions, so that every quotient below is exact
    gain, halt = list(gains), [st.halt_prob if tol else Fraction(st.halt_prob) for st in chain.states]
    rows = [[(1 - st.halt_prob) * p for p in row] for st, row in zip(chain.states, chain.transitions)]
    ratio: list[Number] = [0] * len(rows)

    def rate(x: int) -> None:
        if halt[x] == 0:
            raise SolverError(f"state {x} cannot halt before it reaches an unranked state; it has no index")
        ratio[x] = gain[x] / halt[x]
        if not _finite(ratio[x]):
            raise PreconditionError(f"a ratio at state {x} lies beyond float range ({ratio[x]!r})")

    unranked = list(range(len(rows)))
    for x in unranked:
        rate(x)
    while unranked:
        top = max(ratio[x] for x in unranked)
        z = next(x for x in unranked if top - ratio[x] <= tol)
        unranked.remove(z)
        # z's moves to unranked states; entries in ranked columns are never read again
        out = [(y, q) for y in unranked if (q := rows[z][y])]
        leave = halt[z] + sum(q for _, q in out)
        for x in unranked:
            row = rows[x]
            if row[z]:
                f = row[z] / leave
                gain[x] += f * gain[z]
                halt[x] += f * halt[z]
                for y, q in out:
                    row[y] += f * q
                rate(x)
    return ratio


def _index_table(
    dyn: TreeBandit | MarkovBandit, gains: list[Number], anchor: int | None = None
) -> list[Number | None]:
    """The index of every node or state, None at halted nodes; on a tree
    with an ``anchor``, of the anchor's subtree only, None elsewhere.

    On a chain, state elimination (``_chain_table``).  On a tree, one pass
    from the leaves up over the value of activating x at charge λ, F_x(λ) =
    gains[x] − λ·h(x) + Σ over live edges p_e·max(0, F_child(λ)): convex,
    piecewise linear and strictly decreasing, with the index of x as its
    root.  max(0, F_x) is a sum of hinges w·max(0, b − λ) kept sorted by b;
    the hinges above the root fold into the slope there, the weight of a new
    hinge at the root.  A hinge keeps its weight relative to the node y that
    pushed it; popped at x, the weight is multiplied by the path probability
    from x down to y, read through parent links that each walk compresses to
    x, so no weight is rescaled when lists merge.  An exact tree runs this
    scheme on integers (``_exact_tree_table``); a float tree runs it here,
    in the operation order every float table has had.  A float index beyond
    float range raises ``PreconditionError``.
    """
    if isinstance(dyn, MarkovBandit):
        return _chain_table(dyn, gains)
    top = dyn.root if anchor is None else anchor
    if dyn.is_exact():
        return _exact_tree_table(dyn, gains, top)
    idx: list[Number | None] = [None] * len(dyn.nodes)
    # each node links to an ancestor, with the path probability down from it
    up, below = list(range(len(dyn.nodes))), [1] * len(dyn.nodes)
    hinges: dict[int, list[tuple[Number, Number, int]]] = {}
    for nid in _post_order(dyn, top) + [top]:
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


def _plus(num: int, den: int, scale: int, a: int, b: int, s: int) -> tuple[int, int, int]:
    # num/scale + a/s and den/scale + b/s over one denominator, in lowest terms
    g = gcd(scale, s)
    s, t = s // g, scale // g
    num, den, scale = num * s + a * t, den * s + b * t, scale * s
    g = gcd(num, den, scale)
    return (num // g, den // g, scale // g) if g > 1 else (num, den, scale)


def _exact_tree_table(tree: TreeBandit, gains: list[Number], top: int) -> list[Number | None]:
    """``_index_table`` over the subtree at ``top`` of an exact tree, on
    integers: a node's gain and halting mass so far are num/scale and
    den/scale in lowest terms, and each path probability is an integer pair
    (numerator, denominator) in lowest terms.  A hinge pushed by y keeps y's
    three integers; its breakpoint is num_y/den_y and its weight times the
    breakpoint is num_y/scale_y, so the test num < b·den is num·den_y <
    num_y·den.  Each live node's index is the one ``Fraction`` built, also
    kept as its hinge's sort key.  The traversal is the float pass's own; it
    is written out twice because one loop for both arithmetics slows the
    float pass down.
    """
    idx: list[Number | None] = [None] * len(tree.nodes)
    up, below = list(range(len(tree.nodes))), [(1, 1)] * len(tree.nodes)
    hinges: dict[int, list[tuple[Fraction, int, int, int, int]]] = {}
    for nid in _post_order(tree, top) + [top]:
        gain = gains[nid]
        num, den, scale = gain.numerator, 0, gain.denominator
        merged: list[tuple[Fraction, int, int, int, int]] = []
        for e in tree.nodes[nid].edges:
            p = e.p
            if e.halting:
                num, den, scale = _plus(num, den, scale, 0, p.numerator, p.denominator)
                continue
            part = hinges.pop(e.to)
            up[e.to], below[e.to] = nid, (p.numerator, p.denominator)
            if len(part) > len(merged):
                merged, part = part, merged
            for hinge in part:
                insort(merged, hinge)
        while merged and num * merged[-1][3] < merged[-1][2] * den:
            _, y, num_y, den_y, scale_y = merged.pop()
            path = []
            while y != nid:
                path.append(y)
                y = up[y]
            pn = pd = 1
            for y in reversed(path):
                pn, pd = below[y][0] * pn, below[y][1] * pd
                g = gcd(pn, pd)
                below[y] = pn, pd = pn // g, pd // g
                up[y] = nid
            num, den, scale = _plus(num, den, scale, pn * num_y, pn * den_y, pd * scale_y)
        idx[nid] = Fraction(num, den)
        merged.append((idx[nid], nid, num, den, scale))
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
