"""The product game: histories, stepping, policies, and evaluation.

A game runs several independent bandits under one controller.  Each round
the controller activates exactly one bandit; the activated bandit advances
along one of its edges (the rest stay frozen) and the first halt ends the
whole game.  Global rounds count from 0, a bandit's local time is the
number of times it has been activated, and the sum of local times always
equals the round number.

Payouts are settled at the halt according to the game's scheme (see
``reductions.PayoutModel``); the cumulative scheme instead pays the chosen
bandit's current reward at every activation, the halting activation
included, and settles nothing extra at the end.  One scheme runs the other
way: the non-halting scheme's value is the bill for the bandits that never
halted, quoted positive, and a controller wants it small — minimize it by
maximizing the sign-flipped collective rewrite from ``reductions``.

A game played under a policy compiles into one play graph over product
positions (plus, on Markov backends, the round modulo the policy's
declared period: the only extra state a policy may carry there), each
keyed by one integer (``_Key``) and numbered in breadth-first order from
the start.  Its positions are decoded once, for ``choose`` and the
payouts.  Each state holds the policy's choice, the immediate payment
and, per outcome, the probability, the chosen bandit's landing position,
the successor's number or the halt, and the terminal payout.  A move is
a function of the bandit and its position alone: each bandit type
defines its own (``TreeBandit.moves``, ``MarkovBandit.moves``), ``step``
splices them into histories, and the play graph reads the chosen
bandit's moves in each state it compiles.  ``terminal_payout`` settles a
halt in one walk over the frozen bandits.
Exact evaluation works backward over the graph on trees and solves its
absorbing-chain linear system, one row per state number, on chains;
certification iterates it; traces replay outcomes through its states;
policy block values and prevailing indices (``pi_values``) take one
reverse pass per bandit over it; and sampling walks its states, compiled
as episodes first reach them, in one loop across episodes over the uniforms
of a counter-based generator (Philox, 64-bit) keyed by the seed, so a
(seed, game, policy) triple reproduces its stream bit for bit on any
platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .errors import PreconditionError, ResourceCapError
from .indices import ZERO_TOL, IndexDecomposition, _decompose, _index_table
from .jsonio import Number, Record
from .linear import solve_linear
from .models import AnyBandit, MarkovBandit, ProfitBandit, TreeBandit, dynamics_of
from .reductions import PayoutModel, _index_form

if TYPE_CHECKING:
    import numpy as np

DEFAULT_HISTORY_CAP = 10**7
_EPISODE_ROUND_CAP = 10**6
_DRAW_CHUNK = 4096
_SEED_BOUND = 2**128  # Philox keys lie in [0, 2**128)


@dataclass(frozen=True)
class GlobalHistory:
    """Product position of all bandits; ``halter`` is set once the game ends."""

    nodes: tuple[int, ...]
    halter: int | None = None


@dataclass(frozen=True)
class GameInstance:
    """Bandits played under one payout scheme.  Neither this nor any other
    library entry point validates them: ``models.validate`` bandits read
    from outside the program first, as the CLI and the benchmark do."""

    bandits: tuple[AnyBandit, ...]
    model: PayoutModel = PayoutModel.CP

    def __post_init__(self) -> None:
        bandits = tuple(self.bandits)
        object.__setattr__(self, "bandits", bandits)
        model = PayoutModel(self.model)
        object.__setattr__(self, "model", model)
        if not bandits:
            raise PreconditionError("a game needs at least one bandit")
        kinds = {type(b) for b in bandits}
        if len(kinds) != 1:
            raise PreconditionError("all bandits in a game must share one backend")
        if model is PayoutModel.TP and not isinstance(bandits[0], ProfitBandit):
            raise PreconditionError("the terminal-profit scheme needs bandits with costs")
        if model is not PayoutModel.TP and isinstance(bandits[0], ProfitBandit):
            raise PreconditionError("bandits with costs are only played under the terminal-profit scheme")

    @property
    def n(self) -> int:
        return len(self.bandits)

    @property
    def backend(self) -> str:
        return "markov" if isinstance(dynamics_of(self.bandits[0]), MarkovBandit) else "tree"

    def dynamics(self, i: int) -> TreeBandit | MarkovBandit:
        return dynamics_of(self.bandits[i])

    def initial_history(self) -> GlobalHistory:
        starts = []
        for i in range(self.n):
            dyn = self.dynamics(i)
            starts.append(dyn.root if isinstance(dyn, TreeBandit) else dyn.initial)
        return GlobalHistory(nodes=tuple(starts))


def current_reward(game: GameInstance, i: int, position: int) -> Number:
    """The bandit's live reward at its current position (pre-activation)."""
    dyn = game.dynamics(i)
    if isinstance(dyn, TreeBandit):
        return dyn.nodes[position].reward
    return dyn.states[position].reward


def local_times(game: GameInstance, history: GlobalHistory) -> tuple[int, ...]:
    """Per-bandit activation counts; recoverable from positions on trees only."""
    if game.backend != "tree":
        raise PreconditionError("local times are not a function of the state on chains")
    out = []
    for i, nid in enumerate(history.nodes):
        dyn = game.dynamics(i)
        assert isinstance(dyn, TreeBandit)
        out.append(dyn.nodes[nid].depth)
    return tuple(out)


def round_of(game: GameInstance, history: GlobalHistory) -> int:
    return sum(local_times(game, history))


def step(
    game: GameInstance, history: GlobalHistory, choice: int
) -> tuple[tuple[Number, GlobalHistory], ...]:
    """Outcome distribution of activating one bandit: (probability, next)."""
    if history.halter is not None:
        raise PreconditionError("the game is over; nothing can be activated")
    if not 0 <= choice < game.n:
        raise PreconditionError(f"no bandit {choice} in a {game.n}-bandit game")
    head, tail = history.nodes[:choice], history.nodes[choice + 1 :]
    return tuple(
        (p, GlobalHistory(head + (y,) + tail, halter=choice if halts else None))
        for p, y, halts in game.dynamics(choice).moves(history.nodes[choice])
    )


def immediate_payment(game: GameInstance, history: GlobalHistory, choice: int) -> Number:
    """What the activation itself pays: the cumulative scheme charges the
    chosen bandit's pre-activation reward, every other scheme pays nothing
    until the halt."""
    if game.model is PayoutModel.CCP:
        return current_reward(game, choice, history.nodes[choice])
    return 0


def terminal_payout(
    game: GameInstance, pre: GlobalHistory, choice: int, post: GlobalHistory
) -> Number:
    """Settlement when activating ``choice`` from ``pre`` produced the halt
    ``post``.  Frozen bandits are read at their pre-halt positions."""
    return _settle(game, pre.nodes, choice, post.nodes[choice])


def _settle(game: GameInstance, nodes: tuple[int, ...], choice: int, landed: int) -> Number:
    # ``terminal_payout`` from the positions ``nodes``, ``choice`` landing on ``landed``
    model = game.model
    if model is PayoutModel.CCP:
        return 0  # every activation already paid
    if model is PayoutModel.PSP:
        return current_reward(game, choice, nodes[choice])
    # the halter's landing reward: a halted node's label, a chain's halt reward
    dyn = game.dynamics(choice)
    landing = dyn.nodes[landed].reward if isinstance(dyn, TreeBandit) else dyn.states[landed].halt_reward
    if model is PayoutModel.SP:
        return landing
    # the non-halting scheme bills the frozen bandits alone: a positive total
    # the controller wants small, whose negation is the collective payout of
    # the sign-flipped rewrite
    total: Number = 0 if model is PayoutModel.NH else landing
    for j, bandit in enumerate(game.bandits):
        if j == choice:
            continue
        if model is PayoutModel.TP:
            total -= bandit.cost(nodes[j])
        else:
            total += current_reward(game, j, nodes[j])
    return total


# ---------------------------------------------------------------------------
# Policies


class Policy:
    """Deterministic controller: a function of the current product position.

    ``period`` declares the only round dependence allowed on Markov
    backends — the engine hands ``choose`` the round number modulo it.
    Evaluation, sampling and certification all read the policy through the
    play graph, which calls ``choose`` once per distinct reachable
    (positions, round mod period) and reuses the answer, so on chains a
    policy must honour that contract.
    """

    period: int = 1

    def choose(self, game: GameInstance, history: GlobalHistory, round_: int) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class CyclicPolicy(Policy):
    def __init__(self, order: Sequence[int]):
        order = tuple(order)
        if not order:
            raise PreconditionError("a cyclic policy needs a non-empty order")
        self.order = order
        self.period = len(order)

    def choose(self, game: GameInstance, history: GlobalHistory, round_: int) -> int:
        return self.order[round_ % len(self.order)]

    def describe(self) -> str:
        return "cyclic:" + ",".join(str(i) for i in self.order)


class GreedyRewardPolicy(Policy):
    """Activate the bandit with the largest current reward, lowest id on ties."""

    def choose(self, game: GameInstance, history: GlobalHistory, round_: int) -> int:
        best = 0
        best_val = current_reward(game, 0, history.nodes[0])
        for i in range(1, game.n):
            v = current_reward(game, i, history.nodes[i])
            if v > best_val:
                best, best_val = i, v
        return best

    def describe(self) -> str:
        return "greedy"


def _lowest_best(values: list[Number]) -> int:
    """The lowest id among the largest values: those equal to the maximum in
    exact arithmetic, those within ``ZERO_TOL`` of it in float arithmetic.
    A float maximum beyond float range (±inf or NaN) raises
    ``PreconditionError``."""
    top = max(values)
    if isinstance(top, float):
        best = next((i for i, v in enumerate(values) if top - v <= ZERO_TOL), None)
        if best is None:  # only a top of ±inf or NaN matches no value
            raise PreconditionError(f"an index of {top!r} lies beyond float range")
        return best
    return values.index(top)


class IndexPolicy(Policy):
    """Activate the bandit with the largest current index, lowest id on ties
    (values within ``ZERO_TOL`` of each other tie in float arithmetic).

    Plays the game's scheme, reading every index off one table per bandit
    and scheme.  The penultimate scheme has no index; ask for the greedy
    policy there.
    """

    def __init__(self) -> None:
        # (id(bandit), scheme) -> (bandit, ``_read`` of its index table); the
        # entry holds the bandit so its id cannot be reused while the entry lives
        self._tables: dict[tuple[int, PayoutModel], tuple[AnyBandit, Any]] = {}

    def _read(self, dyn: TreeBandit | MarkovBandit, idx: list[Number | None]) -> Any:
        """What the policy keeps of one bandit's index table: the table."""
        return idx

    def _lookups(self, game: GameInstance) -> list:
        """``_read`` of every bandit's index table under the game's scheme."""
        model = game.model
        if model is PayoutModel.PSP:
            raise PreconditionError(
                "the penultimate scheme has no activation index; use the greedy policy"
            )
        out = []
        for bandit in game.bandits:
            key = (id(bandit), model)
            if key not in self._tables:
                dyn, gains = _index_form(model, bandit)
                self._tables[key] = (bandit, self._read(dyn, _index_table(dyn, gains)))
            out.append(self._tables[key][1])
        return out

    def indices(self, game: GameInstance, history: GlobalHistory) -> list[Number]:
        """Every bandit's current index under the game's scheme."""
        return [table[pos] for table, pos in zip(self._lookups(game), history.nodes)]

    def choose(self, game: GameInstance, history: GlobalHistory, round_: int) -> int:
        return _lowest_best(self.indices(game, history))

    def describe(self) -> str:
        return "index"


class BlockCommitmentIndexPolicy(IndexPolicy):
    """Pick the bandit with the best prevailing index, lowest id on ties as in
    ``IndexPolicy``, and play it through its whole block before comparing again.

    Under its own play at most one bandit can sit strictly inside a block;
    the policy is still total on every history (lowest mid-block id first),
    so it can be compared state-by-state against other policies.  Tree
    backends only: the blocks are read off each bandit's index table.
    """

    def _read(self, dyn: TreeBandit | MarkovBandit, idx: list[Number | None]) -> IndexDecomposition:
        assert isinstance(dyn, TreeBandit)
        return _decompose(dyn, idx)

    def _lookups(self, game: GameInstance) -> list:
        if game.backend != "tree":
            raise PreconditionError("block commitment needs a tree backend")
        return super()._lookups(game)

    def indices(self, game: GameInstance, history: GlobalHistory) -> list[Number]:
        """Every bandit's prevailing index: the value of the block it sits in."""
        return [dec.prevailing_index[nid] for dec, nid in zip(self._lookups(game), history.nodes)]

    def choose(self, game: GameInstance, history: GlobalHistory, round_: int) -> int:
        for i, (dec, nid) in enumerate(zip(self._lookups(game), history.nodes)):
            if dec.blocks[dec.block_of[nid]].anchor != nid:
                return i  # committed mid-block
        return super().choose(game, history, round_)

    def describe(self) -> str:
        return "index-block"


class TablePolicy(Policy):
    """Explicit history-to-bandit map; unlisted histories fall back to a default."""

    def __init__(self, mapping: Mapping[GlobalHistory, int], default: int = 0):
        self.mapping = dict(mapping)
        self.default = default

    def choose(self, game: GameInstance, history: GlobalHistory, round_: int) -> int:
        return self.mapping.get(history, self.default)

    def describe(self) -> str:
        return "table"


# ---------------------------------------------------------------------------
# The play graph

# A product state's key: its positions in mixed radix over each bandit's node
# or state count, times the policy's period, plus the round mod the period
# (always 0 on trees).  Moving bandit i from x to y adds (y − x)·strideᵢ.
_Key = int
# Choice, immediate payment, and per outcome in the order of the chosen
# bandit's ``moves`` (probability, its landing position, the successor's
# state number or None at a halt, terminal payout).
_State = tuple[int, Number, list[tuple[Number, int, int | None, Number]]]


class _Play:
    """A game played under a policy, its product states numbered in the
    order they are first reached, from the start, 0: state k has the key
    ``keys[k]``, and ``number`` maps a key back to k.  ``_play_graph``
    fills ``nodes`` and ``states`` with each state's positions and
    compiled state."""

    def __init__(self, game: GameInstance, policy: Policy):
        self.game, self.policy = game, policy
        dyns = [game.dynamics(i) for i in range(game.n)]
        tree = game.backend == "tree"
        # trees hand ``choose`` the round, a function of the positions;
        # chains hand it the round mod ``policy.period``, the only round
        # dependence a policy may carry there
        self.depths = [[node.depth for node in d.nodes] for d in dyns] if tree else None  # type: ignore[union-attr]
        self.period = 1 if tree else max(1, int(getattr(policy, "period", 1)))
        self.moves = [d.moves for d in dyns]
        sizes = [len(d.nodes) if tree else len(d.states) for d in dyns]  # type: ignore[union-attr]
        self.strides = [self.period * math.prod(sizes[i + 1 :]) for i in range(game.n)]
        self.radix = list(zip(self.strides, sizes))
        start = self.key(game.initial_history().nodes)
        self.keys, self.number = [start], {start: 0}
        self.nodes: list[tuple[int, ...]] = []
        self.states: list[_State] = []

    def key(self, nodes: Sequence[int]) -> _Key:
        """The key of these positions at phase 0."""
        return sum(x * s for x, s in zip(nodes, self.strides))

    def decode(self, key: _Key) -> tuple[tuple[int, ...], int]:
        return tuple([key // s % m for s, m in self.radix]), key % self.period

    def compile(self, k: int) -> tuple[tuple[int, ...], _State]:
        """State k's positions, and the state played: the policy asked once,
        and every outcome of the chosen bandit's ``moves`` from its position
        settled, a halt as ``terminal_payout`` settles it."""
        game, key = self.game, self.keys[k]
        nodes, phase = self.decode(key)
        h = GlobalHistory(nodes)
        round_ = phase if self.depths is None else sum(d[x] for d, x in zip(self.depths, nodes))
        i = self.policy.choose(game, h, round_)
        if not 0 <= i < game.n:
            raise PreconditionError(f"policy chose bandit {i}, not in the game")
        x, stride, number, keys = nodes[i], self.strides[i], self.number, self.keys
        base = key - phase + (phase + 1) % self.period - x * stride
        rows: list[tuple[Number, int, int | None, Number]] = []
        append = rows.append
        for p, y, halts in self.moves[i](x):
            if halts:
                append((p, y, None, _settle(game, nodes, i, y)))
                continue
            succ_key = base + y * stride
            succ = number.get(succ_key)
            if succ is None:
                succ = number[succ_key] = len(keys)
                keys.append(succ_key)
            append((p, y, succ, 0))
        if not rows:
            raise PreconditionError(f"bandit {i} has no outcome at position {x}; is the model valid?")
        return nodes, (i, immediate_payment(game, h, i), rows)


def _play_graph(game: GameInstance, policy: Policy, cap: int) -> _Play:
    """Every product state the policy reaches, compiled in breadth-first
    order.  More than ``cap`` states raise ``ResourceCapError`` (a lone
    start is always kept)."""
    play = _Play(game, policy)
    for k, _ in enumerate(play.keys):  # grows while it is read
        nodes, state = play.compile(k)
        play.nodes.append(nodes)
        play.states.append(state)
        if len(play.keys) > max(cap, 1):
            raise ResourceCapError(f"more than {cap} reachable product states")
    return play


def _tree_value(states: list[_State]) -> Number:
    """Backward induction over a tree game's compiled states, returning the
    start's value.  Every successor sits one round after its state, so the
    reverse search order is topological and ends at the start."""
    values: list[Number] = [0] * len(states)
    for k in range(len(states) - 1, -1, -1):
        _, v, rows = states[k]
        for p, _, succ, term in rows:
            v = v + p * (term if succ is None else values[succ])
        values[k] = v
    return v


# ---------------------------------------------------------------------------
# Exact evaluation


def evaluate_exact(
    game: GameInstance, policy: Policy, *, history_cap: int = DEFAULT_HISTORY_CAP
) -> Number:
    """Expected payout of a deterministic policy, read off its play graph.

    Tree backends take one backward pass over the graph.  Markov backends
    solve the absorbing-chain system x = b + Px with one unknown per graph
    state, given to ``solve_linear`` as one sparse row of I − P per state
    (its successors only), exactly in rational mode, where the solution is
    checked exactly against every row.  In floats a large system whose
    states all halt with positive mass is swept to a proven error bound
    where that is the cheaper solve, and any other goes to one dense solve;
    either answer must pass a scale-free backward-error test (see
    ``linear``).  More than ``history_cap`` reachable states raise
    ``ResourceCapError``.
    """
    states = _play_graph(game, policy, history_cap).states
    if game.backend == "tree":
        return _tree_value(states)
    rows: list[dict[int, Number]] = []
    rhs: list[Number] = []
    for k, (_, pay, outcomes) in enumerate(states):
        row: dict[int, Number] = {k: 1}
        for p, _, succ, term in outcomes:
            if succ is None:
                pay = pay + p * term
            else:
                row[succ] = row.get(succ, 0) - p
        rows.append(row)
        rhs.append(pay)
    return solve_linear(rows, rhs)[0]


# ---------------------------------------------------------------------------
# Sampling


@dataclass(frozen=True)
class SimulationResult(Record):
    mean: float
    stderr: float
    n_samples: int
    seed: int


def _float_view(state: _State) -> tuple[float, list[tuple[float, int | None, float]]]:
    """A compiled state for sampling: float payment and, per outcome,
    (cumulative float probability, successor, float terminal payout)."""
    _, pay, rows = state
    try:
        cums = accumulate(float(p) for p, _, _, _ in rows)
        return float(pay), [(cum, succ, float(term)) for cum, (_, _, succ, term) in zip(cums, rows)]
    except OverflowError as exc:
        raise PreconditionError(f"a payout beyond float range cannot be sampled: {exc}") from exc


def _philox(seed: int) -> np.random.Generator:
    """The counter-based generator keyed by ``seed``."""
    if not 0 <= seed < _SEED_BOUND:
        raise PreconditionError(f"seed {seed} lies outside the key range [0, 2**128)")
    import numpy as np  # here only, so exact runs never load numpy

    return np.random.Generator(np.random.Philox(key=seed))


def run_policy_sampled(
    game: GameInstance, policy: Policy, seed: int, n_samples: int
) -> SimulationResult:
    """Monte Carlo estimate of a policy's value.

    One loop reads the uniforms of a Philox counter-based generator keyed
    by the seed, ``_DRAW_CHUNK`` at a time, one per activation and on
    across episodes: the outcome is the first row whose cumulative
    probability exceeds the uniform, else the last row, and a halt keeps
    the episode's total and restarts at the start state.  Identical (game,
    policy, seed, n_samples) calls reproduce the estimate bit for bit.

    Episodes walk the play graph that ``evaluate_exact`` reads, compiling
    each state when an episode first reaches it and keeping a float view
    of it (payment, cumulative outcome probabilities, terminal payouts)
    by state number.  So ``policy.choose`` is called once per distinct
    reachable (positions, round mod period), and a policy on a chain must
    honour its declared period.  An episode that has not halted after
    ``_EPISODE_ROUND_CAP`` activations raises ``ResourceCapError``.
    """
    if n_samples < 1:
        raise PreconditionError("need at least one sample")
    import numpy as np  # here only, so exact runs never load numpy

    rng = _philox(seed)
    play = _Play(game, policy)
    views: list[tuple[float, list[tuple[float, int | None, float]]] | None] = [None]
    out: list[float] = []
    k, total, rounds = 0, 0.0, 0
    while len(out) < n_samples:
        for u in rng.random(_DRAW_CHUNK).tolist():
            view = views[k]
            if view is None:
                view = views[k] = _float_view(play.compile(k)[1])
                views.extend([None] * (len(play.keys) - len(views)))
            pay, rows = view
            total += pay
            for cum, succ, term in rows:
                if u < cum:
                    break
            if succ is None:
                out.append(total + term)
                if len(out) == n_samples:
                    break
                k, total, rounds = 0, 0.0, 0
                continue
            rounds += 1
            if rounds == _EPISODE_ROUND_CAP:
                raise ResourceCapError(f"an episode needs more than {_EPISODE_ROUND_CAP} activations, the episode round cap")
            k = succ
    totals = np.array(out)
    try:
        with np.errstate(over="raise", invalid="raise"):
            mean = float(np.mean(totals))
            stderr = 0.0 if n_samples == 1 else float(np.std(totals, ddof=1) / math.sqrt(n_samples))
    except FloatingPointError as exc:
        raise PreconditionError(f"sampled payouts beyond float range: {exc}") from exc
    return SimulationResult(mean=mean, stderr=stderr, n_samples=n_samples, seed=seed)


# ---------------------------------------------------------------------------
# Path traces


@dataclass(frozen=True)
class TraceRow(Record):
    round: int
    local_times: tuple[int, ...]
    choice: int
    reward: Number
    survival_probability: Number


@dataclass(frozen=True)
class Trace(Record):
    """Bookkeeping of one concrete play-through.

    ``rows[s]`` describes round ``s``: local times before the activation,
    the activated bandit, its pre-activation reward, and the probability of
    everything realized so far (this round's outcome included).  When the
    last outcome is a halt, ``halt_round`` is the total activation count.
    """

    rows: tuple[TraceRow, ...]
    halt_round: int | None
    halter: int | None


Outcome = str | tuple[str, int]


def trace_times(
    game: GameInstance, policy: Policy, outcomes: Sequence[Outcome]
) -> Trace:
    """Replay explicit outcomes under a policy and tabulate the bookkeeping.

    Each outcome is ``"survive"`` or ``"halt"``, optionally ``(kind, id)``
    naming the landing node/state when several edges of that kind exist;
    a bare descriptor with several matches is rejected as ambiguous.  The
    replay walks the play graph's states, as evaluation does.
    """
    play = _Play(game, policy)
    k: int | None = 0
    times = [0] * game.n
    rows: list[TraceRow] = []
    survival: Number = 1
    for s, outcome in enumerate(outcomes):
        if k is None:
            raise PreconditionError("outcomes continue past the halt")
        kind, target = (outcome, None) if isinstance(outcome, str) else outcome
        if kind not in ("survive", "halt"):
            raise PreconditionError(f"unknown outcome {outcome!r}")
        nodes, (i, _, state_rows) = play.compile(k)
        matches = [
            (p, succ)
            for p, y, succ, _ in state_rows
            if (succ is None) == (kind == "halt") and (target is None or y == target)
        ]
        if not matches:
            raise PreconditionError(f"round {s}: no {outcome!r} outcome for bandit {i}")
        if len(matches) > 1:
            raise PreconditionError(
                f"round {s}: {outcome!r} is ambiguous for bandit {i}; name the landing id"
            )
        p, succ = matches[0]
        survival = survival * p
        rows.append(
            TraceRow(
                round=s,
                local_times=tuple(times),
                choice=i,
                reward=current_reward(game, i, nodes[i]),
                survival_probability=survival,
            )
        )
        times[i] += 1
        k = succ
    return Trace(
        rows=tuple(rows),
        halt_round=len(rows) if k is None else None,
        halter=rows[-1].choice if k is None else None,
    )
