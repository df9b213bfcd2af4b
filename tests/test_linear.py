"""The exact sparse solver against dense longhand elimination."""

from fractions import Fraction

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
)
from haltbandit.linear import solve_linear

from helpers import _solve_exact


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


def test_empty_system():
    assert solve_linear([], []) == []


@pytest.mark.parametrize(
    "rows",
    [
        [{0: 0}],
        # a closed pair of states that never halts: row 1 is emptied by row 0
        [{0: 1, 1: -1}, {0: -1, 1: 1}],
        [{0: Fraction(1, 2), 1: Fraction(-1, 2)}, {0: Fraction(-1, 3), 1: Fraction(1, 3)}],
    ],
)
def test_zero_pivot_is_singular(rows):
    with pytest.raises(SolverError, match="singular"):
        solve_linear(rows, [1] * len(rows))


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
