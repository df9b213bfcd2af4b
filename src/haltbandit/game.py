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
declared period: the only extra state a policy may carry there).  Each
state holds the policy's choice, the immediate payment and, per outcome,
the probability, the chosen bandit's landing position, the successor or
the halt, and the terminal payout.  A move is a function of the bandit
and its position alone: ``_moves`` defines it, ``step`` splices it into
histories, and a graph or sampler run computes a bandit's moves from a
position once and shares them among every state that activates it there.
Exact evaluation works backward over the graph on trees and solves its
absorbing-chain linear system on chains; certification iterates it;
traces replay outcomes through its states; policy block values and
prevailing indices (``pi_values``) take one reverse pass per bandit over
it; and sampling walks its states, compiled as episodes reach them, with
a counter-based generator (Philox, 64-bit) keyed by the seed, so a
(seed, game, policy) triple reproduces its stream bit for bit on any
platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

from .errors import PreconditionError, ResourceCapError, SolverError
from .indices import ZERO_TOL, IndexDecomposition, _decompose, _index_table
from .jsonio import Number, Record
from .linear import residual, solve_linear
from .models import AnyBandit, MarkovBandit, ProfitBandit, TreeBandit, dynamics_of
from .reductions import PayoutModel, _index_form

if TYPE_CHECKING:
    import numpy as np

RESIDUAL_TOL = 1e-12
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


def _final_reward(game: GameInstance, i: int, position: int) -> Number:
    """The halter's reward at the halt (tree: the halted node's label)."""
    dyn = game.dynamics(i)
    if isinstance(dyn, TreeBandit):
        return dyn.nodes[position].reward
    return dyn.states[position].halt_reward


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


def _moves(game: GameInstance, i: int, x: int) -> list[tuple[Number, int, bool]]:
    """Bandit ``i``'s moves from position ``x``: per outcome (probability,
    landing position, whether the move halts).  A tree moves along the
    node's edges in their order; a chain's moves are ``MarkovBandit.moves``."""
    dyn = game.dynamics(i)
    if isinstance(dyn, TreeBandit):
        node = dyn.nodes[x]
        if node.halted:
            raise PreconditionError(f"bandit {i} is already halted")
        return [(e.p, e.to, e.halting) for e in node.edges]
    return dyn.moves(x)


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
        for p, y, halts in _moves(game, choice, history.nodes[choice])
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
    model = game.model
    if model is PayoutModel.CCP:
        return 0  # every activation already paid
    if model is PayoutModel.PSP:
        return current_reward(game, choice, pre.nodes[choice])
    if model is PayoutModel.SP:
        return _final_reward(game, choice, post.nodes[choice])
    if model is PayoutModel.CP:
        total = _final_reward(game, choice, post.nodes[choice])
        for j in range(game.n):
            if j != choice:
                total += current_reward(game, j, pre.nodes[j])
        return total
    if model is PayoutModel.NH:
        # the halting cost: a positive total the controller wants small;
        # its negation is the collective payout of the sign-flipped rewrite
        total: Number = 0
        for j in range(game.n):
            if j != choice:
                total += current_reward(game, j, pre.nodes[j])
        return total
    if model is PayoutModel.TP:
        total = _final_reward(game, choice, post.nodes[choice])
        for j in range(game.n):
            if j != choice:
                bandit = game.bandits[j]
                assert isinstance(bandit, ProfitBandit)
                total -= bandit.cost(pre.nodes[j])
        return total
    raise PreconditionError(f"unknown payout model {model!r}")


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

# A product state: positions and round mod the policy's period (always 0 on trees).
_Key = tuple[tuple[int, ...], int]
# Choice, immediate payment, and per outcome in ``_moves``' order (probability,
# the chosen bandit's landing position, successor or None at a halt,
# terminal payout).
_State = tuple[int, Number, list[tuple[Number, int, _Key | None, Number]]]
# The move cache of one run: (bandit, position) -> ``_moves`` there.
_Moves = dict[tuple[int, int], list[tuple[Number, int, bool]]]


def _compile_state(game: GameInstance, policy: Policy, key: _Key, moves: _Moves) -> _State:
    """Play one product state: ask the policy once and settle every outcome.

    The chosen bandit's moves come from ``moves``, filled from ``_moves``
    the first time a run activates that bandit at that position; each
    landing position is spliced into the key, and each halt settled with
    ``terminal_payout``.  Trees hand ``choose`` the round (a function of
    the positions); chains hand it the round modulo ``policy.period``, the
    only round dependence a policy may carry there.
    """
    nodes, phase = key
    h = GlobalHistory(nodes)
    if game.backend == "tree":
        period, round_ = 1, round_of(game, h)
    else:
        period, round_ = max(1, int(getattr(policy, "period", 1))), phase
    i = policy.choose(game, h, round_)
    if not 0 <= i < game.n:
        raise PreconditionError(f"policy chose bandit {i}, not in the game")
    next_phase = (phase + 1) % period
    outcomes = moves.get((i, nodes[i]))
    if outcomes is None:
        outcomes = moves[i, nodes[i]] = _moves(game, i, nodes[i])
    head, tail = nodes[:i], nodes[i + 1 :]
    rows: list[tuple[Number, int, _Key | None, Number]] = []
    for p, y, halts in outcomes:
        landed = head + (y,) + tail
        if halts:
            rows.append((p, y, None, terminal_payout(game, h, i, GlobalHistory(landed, halter=i))))
        else:
            rows.append((p, y, (landed, next_phase), 0))
    if not rows:
        raise PreconditionError(f"bandit {i} has no outcome at position {nodes[i]}; is the model valid?")
    return i, immediate_payment(game, h, i), rows


def _play_graph(game: GameInstance, policy: Policy, cap: int) -> dict[_Key, _State]:
    """Every product state the policy reaches, compiled, in breadth-first
    order from the start (the first key).  More than ``cap`` states raise
    ``ResourceCapError``."""
    start = (game.initial_history().nodes, 0)
    order = [start]
    seen = {start}
    graph: dict[_Key, _State] = {}
    moves: _Moves = {}
    for key in order:  # grows while it is read
        graph[key] = state = _compile_state(game, policy, key, moves)
        for _, _, succ, _ in state[2]:
            if succ is not None and succ not in seen:
                seen.add(succ)
                order.append(succ)
                if len(order) > cap:
                    raise ResourceCapError(f"more than {cap} reachable product states")
    return graph


def _tree_value(graph: dict[_Key, _State]) -> Number:
    """Backward induction over a tree game's graph, returning the start's
    value.  Every successor sits one round after its state, so the reverse
    search order is topological and ends at the start."""
    values: dict[_Key, Number] = {}
    for key in reversed(graph):
        _, v, rows = graph[key]
        for p, _, succ, term in rows:
            v = v + p * (term if succ is None else values[succ])
        values[key] = v
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
    checked exactly against every row; a float solution is rejected if its
    residual exceeds 1e-12.  More than ``history_cap``
    reachable states raise ``ResourceCapError``.
    """
    graph = _play_graph(game, policy, history_cap)
    if game.backend == "tree":
        return _tree_value(graph)
    pos = {key: k for k, key in enumerate(graph)}
    rows: list[dict[int, Number]] = []
    rhs: list[Number] = []
    for k, (_, pay, outcomes) in enumerate(graph.values()):
        row: dict[int, Number] = {k: 1}
        for p, _, succ, term in outcomes:
            if succ is None:
                pay = pay + p * term
            else:
                row[pos[succ]] = row.get(pos[succ], 0) - p
        rows.append(row)
        rhs.append(pay)
    sol = solve_linear(rows, rhs)
    if isinstance(sol[0], float):  # an exact solution is checked exactly by solve_linear
        res = residual(rows, rhs, sol)
        if res > RESIDUAL_TOL:
            raise SolverError(f"linear system residual {res} above {RESIDUAL_TOL}")
    return sol[0]


# ---------------------------------------------------------------------------
# Sampling


@dataclass(frozen=True)
class SimulationResult(Record):
    mean: float
    stderr: float
    n_samples: int
    seed: int


def _float_view(state: _State) -> tuple[float, list[tuple[float, _Key | None, float]]]:
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


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    """The generator's uniforms, drawn ``_DRAW_CHUNK`` at a time: the same
    stream as one scalar draw after another."""
    while True:
        yield from rng.random(_DRAW_CHUNK).tolist()


def run_policy_sampled(
    game: GameInstance, policy: Policy, seed: int, n_samples: int
) -> SimulationResult:
    """Monte Carlo estimate of a policy's value.

    Draws one uniform per activation from a Philox counter-based generator
    keyed by the seed, in chunks (see ``_uniforms``); identical (game,
    policy, seed, n_samples) calls reproduce the stream, and therefore the
    estimate, bit for bit.

    Episodes walk the play graph that ``evaluate_exact`` reads, compiling
    each state when an episode first reaches it and keeping a float view
    of it (payment, cumulative outcome probabilities, terminal payouts).
    So ``policy.choose`` is called once per distinct reachable (positions,
    round mod period), and a policy on a chain must honour its declared
    period.
    """
    if n_samples < 1:
        raise PreconditionError("need at least one sample")
    import numpy as np  # here only, so exact runs never load numpy

    rng = _philox(seed)
    compiled: dict[_Key, tuple] = {}
    moves: _Moves = {}
    start = (game.initial_history().nodes, 0)
    draws = _uniforms(rng)
    out: list[float] = []
    for _ in range(n_samples):
        key = start
        total = 0.0
        for _ in range(_EPISODE_ROUND_CAP):
            state = compiled.get(key)
            if state is None:
                state = compiled[key] = _float_view(_compile_state(game, policy, key, moves))
            pay, rows = state
            total += pay
            u = next(draws)
            for cum, succ, term in rows:
                if u < cum:
                    break
            if succ is None:
                total += term
                break
            key = succ
        else:
            raise SolverError("an episode exceeded the round cap; is the model valid?")
        out.append(total)
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
    key: _Key | None = (game.initial_history().nodes, 0)
    moves: _Moves = {}
    times = [0] * game.n
    rows: list[TraceRow] = []
    survival: Number = 1
    for s, outcome in enumerate(outcomes):
        if key is None:
            raise PreconditionError("outcomes continue past the halt")
        kind, target = (outcome, None) if isinstance(outcome, str) else outcome
        if kind not in ("survive", "halt"):
            raise PreconditionError(f"unknown outcome {outcome!r}")
        i, _, state_rows = _compile_state(game, policy, key, moves)
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
                reward=current_reward(game, i, key[0][i]),
                survival_probability=survival,
            )
        )
        times[i] += 1
        key = succ
    return Trace(
        rows=tuple(rows),
        halt_round=len(rows) if key is None else None,
        halter=rows[-1].choice if key is None else None,
    )
