"""Payout schemes and their reductions to the core scheme.

The core scheme (CP) pays every bandit its current reward when the game
halts.  Each alternative scheme is handled by relabeling rewards on the
same histories so that the relabeled bandit, played under CP, pays exactly
what the original pays under its own scheme:

* SP  -- only the halting bandit is paid, at its halted history: keep the
         rewards of halted nodes and zero the rest.
* NH  -- every bandit except the halter pays out (a cost): zero the halted
         nodes and negate the rest; CP value of the relabeling equals minus
         the NH cost, so maximizing the relabeled game minimizes the cost.
* TP  -- the halter collects its terminal reward while everyone else pays
         their running cost: halted nodes keep the reward, live nodes carry
         minus the cost.
* CCP -- every activation pays the bandit's pre-activation reward: relabel
         each tree node with the sum of rewards strictly above it (prefix sums),
         so the relabeled terminal value telescopes into the running total.

PSP (pay the halter its reward just before the final activation) has no
relabeling; the game engine evaluates it natively and the greedy policy is
the optimal one once rewards never increase before the halt.

Every scheme's index is one problem: the best ratio, over stopping rules,
of the summed gains of the activations made to their summed halting
probabilities (``indices``).  SP, NH and TP take as gain the expected
reward movement of one activation of the relabeled bandit.  CCP takes the
activated node's or state's own reward, on trees and chains alike, so its
index needs no prefix sums; on a chain, where prefix sums are not a
function of the state, there is no relabeling at all.

With constant survival probability per activation, the cumulative scheme's
index is the classical Gittins index divided by the halting probability;
``gittins_compare`` checks that identity against an independent Gittins
solver based on retirement-value calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import PreconditionError
from .jsonio import Number, Record
from .indices import (
    DEFAULT_RULE_CAP,
    IndexResult,
    _gains,
    _index_at,
    solo_index_enumerate,
)
from .models import (
    AnyBandit,
    MarkovBandit,
    MarkovState,
    ProfitBandit,
    TreeBandit,
    TreeNode,
    dynamics_of,
)


# Retirement calibration: bisection width, value-iteration convergence and
# sweep cap of ``gittins_index``; ``gittins_compare``'s pass tolerance.
_BISECT_TOL = 1e-10
_VALUE_TOL = 1e-13
_MAX_SWEEPS = 200_000
_GITTINS_TOL = 1e-8


class PayoutModel(str, Enum):
    CP = "CP"    # everyone is paid their current reward at the global halt
    PSP = "PSP"  # the halter is paid its reward just before the halting activation
    SP = "SP"    # the halter is paid its reward at the halt
    NH = "NH"    # everyone except the halter pays out (a cost to minimize)
    TP = "TP"    # halter collects terminal reward, the rest pay running costs
    CCP = "CCP"  # every activation pays the activated bandit's current reward


def _reward_dynamics(model: PayoutModel, bandit: AnyBandit) -> TreeBandit | MarkovBandit:
    """The process a scheme relabels or indexes, under one cost rule: costs
    are read under TP and required there; CP reads any bandit's rewards."""
    if model is PayoutModel.TP and not isinstance(bandit, ProfitBandit):
        raise PreconditionError("the terminal-profit scheme needs a bandit with costs")
    if isinstance(bandit, ProfitBandit) and model not in (PayoutModel.CP, PayoutModel.TP):
        raise PreconditionError(f"{model.value} payouts read the reward tree, not costs")
    return dynamics_of(bandit)


def reduced_bandit(model: PayoutModel, bandit: AnyBandit) -> TreeBandit | MarkovBandit:
    """The relabeled bandit whose CP behavior matches ``model`` on the original.

    CP returns the reward process itself.  Raises for PSP (no relabeling
    exists), for SP, NH and CCP on a bandit with costs (only TP reads
    them), and for TP and CCP on Markov bandits (prefix sums are not a
    function of the state; the cumulative index comes from
    ``model_index_result``, whose gains need no relabeling).
    """
    if model is PayoutModel.PSP:
        raise PreconditionError("the penultimate scheme has no reward relabeling; evaluate it natively")
    dyn = _reward_dynamics(model, bandit)
    if model is PayoutModel.CP:
        return dyn
    if isinstance(dyn, MarkovBandit):
        if model is PayoutModel.SP:
            states = tuple(MarkovState(0, s.halt_prob, s.halt_reward) for s in dyn.states)
        elif model is PayoutModel.NH:
            states = tuple(MarkovState(-s.reward, s.halt_prob, 0) for s in dyn.states)
        else:
            raise PreconditionError(f"no state relabeling for {model.value} on markov bandits")
        return MarkovBandit(states=states, transitions=dyn.transitions, initial=dyn.initial)
    if model is PayoutModel.SP:
        labels = [n.reward if n.halted else 0 for n in dyn.nodes]
    elif model is PayoutModel.NH:
        labels = [0 if n.halted else -n.reward for n in dyn.nodes]
    elif model is PayoutModel.TP:
        labels = [n.reward if n.halted else -bandit.cost(nid) for nid, n in enumerate(dyn.nodes)]  # type: ignore[union-attr]
    else:  # CCP
        labels = [dyn.prefix_reward(nid) for nid in range(len(dyn.nodes))]
    nodes = tuple(TreeNode(n.depth, r, n.halted, n.edges) for n, r in zip(dyn.nodes, labels))
    return TreeBandit(nodes=nodes, root=dyn.root)


def _index_form(model: PayoutModel, bandit: AnyBandit) -> tuple[TreeBandit | MarkovBandit, list[Number]]:
    """The dynamics a scheme's index is solved on and the gain of each node
    or state: the bandit and its own rewards under the cumulative scheme,
    the relabeled bandit and its expected reward movements otherwise."""
    if model is PayoutModel.CCP:
        dyn = _reward_dynamics(model, bandit)
        parts = dyn.nodes if isinstance(dyn, TreeBandit) else dyn.states
        return dyn, [x.reward for x in parts]
    reduced = reduced_bandit(model, bandit)
    return reduced, _gains(reduced)


def model_index_result(
    model: PayoutModel,
    bandit: AnyBandit,
    anchor: int | None = None,
    *,
    method: str = "parametric",
    cap: int = DEFAULT_RULE_CAP,
) -> IndexResult:
    """Full solver output for the scheme-specific index at an anchor.

    Every scheme is one gain-over-halting-probability problem on the
    bandit's own dynamics, whose index table the parametric method reads
    (``indices._index_at``).  The cumulative scheme's gain is the reward
    of the activated node or state; the others take the expected reward
    movement of the relabeled bandit.  Node and state ids are preserved by
    every relabeling, so the anchor and the realizing rule carry over.
    Enumeration (trees only) scans the rules of the relabeled tree.
    Larger is better for every scheme; for NH the value is minus the
    smallest achievable cost rate, so the usual argmax rule still picks
    the cost-minimizing bandit.
    """
    if method == "enumerate":
        if not isinstance(dynamics_of(bandit), TreeBandit):
            raise PreconditionError("enumeration requires a tree bandit")
        return solo_index_enumerate(reduced_bandit(model, bandit), anchor, cap=cap)  # type: ignore[arg-type]
    if method != "parametric":
        raise PreconditionError(f"unknown method {method!r}")
    dyn, gains = _index_form(model, bandit)
    return _index_at(dyn, anchor, gains)


# ---------------------------------------------------------------------------
# Gittins recovery


def gittins_index(bandit: MarkovBandit, state: int | None = None) -> float:
    """Classical discounted Gittins index by retirement calibration.

    The discount is read off the (constant) survival probability.  For a
    candidate charge the stopping value W(x) = max(0, r(x) − charge +
    beta · E[W(next)]) is computed by value iteration; the index is the
    charge at which playing once from the target state becomes exactly
    break-even, found by bisection.  This solver is intentionally separate
    from the index tables so the two can check each other.
    """
    beta = _constant_survival(bandit)
    if state is None:
        state = bandit.initial
    try:
        rewards = [float(s.reward) for s in bandit.states]
    except OverflowError as exc:
        raise PreconditionError(f"retirement calibration runs in floats: {exc}") from exc
    rows = [[float(p) for p in row] for row in bandit.transitions]
    n = len(rewards)

    def forced_play(charge: float) -> float:
        w = [0.0] * n
        for _ in range(_MAX_SWEEPS):
            worst = 0.0
            nxt = [0.0] * n
            for x in range(n):
                cont = rewards[x] - charge + beta * sum(rows[x][y] * w[y] for y in range(n))
                nxt[x] = cont if cont > 0.0 else 0.0
                worst = max(worst, abs(nxt[x] - w[x]))
            w = nxt
            if worst <= _VALUE_TOL:
                break
        return rewards[state] - charge + beta * sum(rows[state][y] * w[y] for y in range(n))

    lo = min(rewards) - 1.0
    hi = max(rewards) + 1.0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if forced_play(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _constant_survival(bandit: MarkovBandit) -> float:
    probs = {s.halt_prob for s in bandit.states}
    if len(probs) != 1:
        raise PreconditionError("the Gittins identity needs one constant halting probability")
    h = probs.pop()
    if not 0 < h < 1:
        raise PreconditionError("the Gittins identity needs survival strictly inside (0, 1)")
    return float(1 - h)


@dataclass(frozen=True)
class GittinsComparison(Record):
    cumulative_index: Number
    gittins: float
    ratio: float
    beta: float
    abs_error: float
    passed: bool


def gittins_compare(bandit: MarkovBandit, state: int | None = None) -> GittinsComparison:
    """Check cumulative-scheme index == Gittins / (1 − beta) on one chain."""
    beta = _constant_survival(bandit)
    if state is None:
        state = bandit.initial
    rho = model_index_result(PayoutModel.CCP, bandit, state).value
    g = gittins_index(bandit, state)
    err = abs(float(rho) * (1.0 - beta) - g)
    ratio = float(rho) / g if g != 0 else math.inf
    return GittinsComparison(
        cumulative_index=rho,
        gittins=g,
        ratio=ratio,
        beta=beta,
        abs_error=err,
        passed=err <= _GITTINS_TOL,
    )
