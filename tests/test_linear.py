"""The sparse solver: exact against dense longhand elimination, floats
against the exact answer and the dense solve."""

import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haltbandit import (
    CyclicPolicy,
    GameInstance,
    MarkovBandit,
    MarkovState,
    PayoutModel,
    SolverError,
    evaluate_exact,
    linear,
    to_float,
)
from haltbandit.linear import _SWEEP_MIN, _SWEEP_TOL, solve_linear

from helpers import _solve_exact, random_markov_bandit


@st.composite
def chain_systems(draw):
    """Sparse rows of I − P and a right-hand side, with 0–12 unknowns.

    Each state either halts with positive weight or is halt-free (its row of
    P sums to 1, an M-matrix row); a halt-free state k > 0 always moves to
    some state below it, and state 0 always halts, so every state reaches a
    halt and the system is nonsingular.  A state with no successors is a
    row with no P entries.  With ``ints`` every entry is an int (P entries
    are 0 or 1); otherwise P holds Fractions.
    """
    n = draw(st.integers(0, 12))
    ints = draw(st.booleans())
    rows, rhs = [], []
    for k in range(n):
        halt_free = k > 0 and draw(st.booleans())
        row = {k: 1}
        if ints:
            # P entries 0 or 1: a state halts surely or moves surely below it
            if halt_free:
                row[draw(st.integers(0, k - 1))] = -1
            rhs.append(draw(st.integers(-20, 20)))
        else:
            targets = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=4))
            if halt_free and not any(t < k for t in targets):
                targets = [draw(st.integers(0, k - 1)), *targets[:3]]
            weights = [draw(st.integers(1, 9)) for _ in targets]
            total = sum(weights) + (0 if halt_free else draw(st.integers(1, 9)))
            for t, w in zip(targets, weights):
                row[t] = row.get(t, 0) - Fraction(w, total)
            rhs.append(draw(st.integers(-20, 20) | st.fractions(-20, 20, max_denominator=12)))
        rows.append(row)
    return rows, rhs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(chain_systems())
def test_exact_solve_equals_dense_longhand(system):
    rows, rhs = system
    n = len(rhs)
    dense = [[Fraction(row.get(c, 0)) for c in range(n)] for row in rows]
    expected = _solve_exact(dense, [[Fraction(v) for v in rhs]])[0]
    got = solve_linear(rows, rhs)
    assert [type(v) for v in got] == [Fraction] * n
    assert got == expected


def _floats(rows, rhs):
    return [{c: float(v) for c, v in row.items()} for row in rows], [float(v) for v in rhs]


def _dense(rows, rhs):
    """The direct solve on the scattered array, as numpy gives it."""
    a = np.zeros((len(rhs), len(rhs)))
    for r, row in enumerate(rows):
        for c, v in row.items():
            a[r, c] = v
    return np.linalg.solve(a, np.array(rhs, dtype=float)).tolist()


def _refuse(*args):
    raise AssertionError("the dense solve ran")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(chain_systems())
def test_float_solve_is_within_its_proven_bound_of_the_exact_answer(system):
    rows, rhs = _floats(*system)
    n = len(rhs)
    dense = [[Fraction(row.get(c, 0)) for c in range(n)] for row in rows]
    want = _solve_exact(dense, [[Fraction(v) for v in rhs]])[0]
    # with the size and cost rules lifted, a system in which every state
    # halts is swept; one with a halt-free state goes to the dense solve
    halts = all(sum(row.values()) > 0 for row in system[0])
    with patch.object(linear, "_SWEEP_MIN", 0), patch.object(linear, "_DENSE_RATE", 0):
        if halts:
            with patch.object(np.linalg, "solve", _refuse):
                got = solve_linear(rows, rhs)
        else:
            got = solve_linear(rows, rhs)
    assert [type(v) for v in got] == [float] * n
    if halts:
        err = max((abs(Fraction(x) - w) for x, w in zip(got, want)), default=0)
        assert err <= _SWEEP_TOL * max((abs(x) for x in got), default=0)
    else:
        assert got == _dense(rows, rhs)


def _halting_system(n, halt, seed, successors=8):
    """Rows of I − P over n states: each halts with a mass drawn from
    ``halt`` and moves to ``successors`` random states with the rest."""
    rng = random.Random(seed)
    rows, rhs = [], []
    for r in range(n):
        q = rng.choice(halt)
        cols = rng.sample(range(n), successors)
        weights = [rng.random() for _ in cols]
        row = {r: 1.0}
        for c, w in zip(cols, weights):
            row[c] = row.get(c, 0) - (1 - q) * w / sum(weights)
        rows.append(row)
        rhs.append(rng.uniform(-10, 10))
    return rows, rhs


def test_a_large_contracting_system_is_swept_to_the_dense_answer():
    rows, rhs = _halting_system(600, (0.25, 0.5, 0.75), seed=1)
    want = _dense(rows, rhs)
    with patch.object(np.linalg, "solve", _refuse):
        got = solve_linear(rows, rhs)
    assert all(abs(x - w) <= 1e-12 * (1 + abs(w)) for x, w in zip(got, want))


@pytest.mark.parametrize(
    "n, halt",
    [
        # the rounding allowance over q alone exceeds the tolerance
        (600, (1e-6,)),
        # 128 predicted sweeps over 2,700 nonzeros cost more than LAPACK at 300 unknowns
        (300, (0.25,)),
    ],
    ids=["barely-halts", "slow-for-its-size"],
)
def test_a_large_system_that_sweeps_would_not_win_goes_to_the_dense_solve(n, halt):
    rows, rhs = _halting_system(n, halt, seed=2)
    solve, calls = np.linalg.solve, []
    with patch.object(np.linalg, "solve", lambda a, b: calls.append(len(b)) or solve(a, b)):
        got = solve_linear(rows, rhs)
    assert calls == [n]
    assert got == _dense(rows, rhs)


def test_a_small_system_is_solved_directly():
    rows, rhs = _halting_system(_SWEEP_MIN - 1, (0.25, 0.5, 0.75), seed=3)
    with patch.object(linear, "_sweep", _refuse):
        assert solve_linear(rows, rhs) == _dense(rows, rhs)


def test_the_5184_state_chain_game_is_swept_to_its_dense_value():
    game = GameInstance(tuple(to_float(random_markov_bandit(s, n_states=12)) for s in (1, 2, 3)), PayoutModel.CP)
    with patch.object(np.linalg, "solve", _refuse):
        value = evaluate_exact(game, CyclicPolicy((0, 1, 2)))
    # the dense solve's value
    assert abs(value - 14.174079092292722) <= 1e-12 * 14.174079092292722


def test_empty_system():
    assert solve_linear([], []) == []


SINGULAR = [
    [{0: 0}],
    # a closed pair of states that never halts: row 1 is emptied by row 0
    [{0: 1, 1: -1}, {0: -1, 1: 1}],
    [{0: Fraction(1, 2), 1: Fraction(-1, 2)}, {0: Fraction(-1, 3), 1: Fraction(1, 3)}],
    # a closed cycle above the sweeps' size threshold
    [{k: 1, (k + 1) % 300: -1} for k in range(300)],
]


@pytest.mark.parametrize("rows", SINGULAR)
def test_zero_pivot_is_singular(rows):
    with pytest.raises(SolverError, match="singular"):
        solve_linear(rows, [1] * len(rows))


@pytest.mark.parametrize("rows", SINGULAR)
def test_a_float_zero_pivot_is_singular(rows):
    rows, rhs = _floats(rows, [1] * len(rows))
    with pytest.raises(SolverError, match="^singular linear system$"):
        solve_linear(rows, rhs)


def test_wrong_back_substitution_fails_the_exact_check(monkeypatch):
    chain = MarkovBandit(
        states=(MarkovState(1, Fraction(1, 3), 1), MarkovState(2, Fraction(1, 4), 2)),
        transitions=((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 5), Fraction(4, 5))),
    )
    game = GameInstance((chain, chain), PayoutModel.CP)
    right = evaluate_exact(game, CyclicPolicy((0, 1)))
    back_substitute = linear._back_substitute

    def off_by_one(*args):
        num, den = back_substitute(*args)
        return [num[0] + 1, *num[1:]], den

    monkeypatch.setattr(linear, "_back_substitute", off_by_one)
    with pytest.raises(SolverError, match="fails its own equations"):
        evaluate_exact(game, CyclicPolicy((0, 1)))
    with pytest.raises(SolverError, match="fails its own equations"):
        solve_linear([{0: 2, 1: -1}, {1: 3}], [Fraction(1, 2), 7])
    assert isinstance(right, Fraction)
