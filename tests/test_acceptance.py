"""The release gate: eight headline guarantees, each timed and reported.

Run with ``pytest -rP tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Every check is against an independent route — brute-force
DP, full policy/atom enumeration, a calibration-based discounted-index
solver, or hand-computed closed forms — never the code path under test.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from haltbandit import (
    GameInstance,
    IndexPolicy,
    CyclicPolicy,
    MarkovBandit,
    MarkovState,
    PayoutModel,
    block_value,
    certify_greedy_dominance,
    certify_index_optimality,
    enumerate_stopping_rules,
    evaluate_exact,
    geometric_markov,
    index_decomposition,
    policy_block_value,
    psp_value_with_policy_indices,
    random_game,
    random_tree_bandit,
    reduced_bandit,
    rule_count,
    run_policy_sampled,
    solo_index_enumerate,
    solo_index_parametric,
    gittins_compare,
    to_float,
    trace_times,
)
from haltbandit.errors import PreconditionError
from haltbandit.indices import _gains

from helpers import (
    HALF,
    ONE,
    activation_rounds,
    as_table,
    enumerate_policies,
    equivalent_rewards,
    float_game,
    make_nonincreasing,
    normalize,
    path_bandit,
    ramp_bandit,
    ratio_iteration,
    reachable_histories,
    sure_bandit,
)


@contextmanager
def criterion(n: int, label: str, budget_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {n} ({label}): FAIL after {time.monotonic() - t0:.2f}s")
        raise
    elapsed = time.monotonic() - t0
    print(f"criterion {n} ({label}): PASS in {elapsed:.2f}s (budget {budget_s:g}s)")
    assert elapsed <= budget_s


def tree_corpus() -> list:
    """The shared instance corpus: named special cases, then seeded random
    trees, rational and float.  Each entry is (bandit, is_exact)."""
    named = [
        ramp_bandit(),
        sure_bandit(5),
        path_bandit((0, 0, 0), (HALF, ONE)),
        path_bandit((0, 4, 9, 10), (HALF, HALF, ONE)),
    ]
    exact = named + [random_tree_bandit(seed) for seed in range(30)]
    floats = [to_float(random_tree_bandit(seed)) for seed in range(30, 45)]
    return [(b, True) for b in exact] + [(b, False) for b in floats]


def test_1_index_policy_attains_the_collective_optimum():
    with criterion(1, "index policy attains the collective optimum", 300):
        for seed in range(500):
            n = 2 + seed % 2
            report = certify_index_optimality(random_game(seed, n_bandits=n))
            assert report.passed and report.gap == 0
            if seed % 2 == 0:
                loose = certify_index_optimality(float_game(random_game(seed, n_bandits=n)))
                assert loose.passed and abs(loose.gap) <= 1e-10


def test_2_greedy_dominates_pathwise_under_the_penultimate_scheme():
    with criterion(2, "greedy pathwise dominance, non-increasing rewards", 300):
        worked = GameInstance(
            bandits=(
                path_bandit((5, 3, 3), (HALF, ONE)),
                path_bandit((4, 2, 2), (HALF, ONE)),
            ),
            model=PayoutModel.PSP,
        )
        report = certify_greedy_dominance(worked)
        assert report.passed and report.n_policies == 6 and report.n_atoms == 4
        for seed in range(200):
            bandits = tuple(
                make_nonincreasing(random_tree_bandit(seed * 3 + k, max_depth=2))
                for k in range(2)
            )
            game = GameInstance(bandits=bandits, model=PayoutModel.PSP)
            report = certify_greedy_dominance(game)
            assert report.passed and report.min_slack >= 0


def test_3_reductions_preserve_every_policy_value():
    with criterion(3, "payout reductions are value-preserving", 300):
        for model in (PayoutModel.SP, PayoutModel.NH, PayoutModel.TP, PayoutModel.CCP):
            sign = -1 if model is PayoutModel.NH else 1
            for seed in range(100):
                game = random_game(seed, model=model, max_depth=2)
                rewritten = GameInstance(
                    bandits=tuple(reduced_bandit(model, b) for b in game.bandits),
                    model=PayoutModel.CP,
                )
                for policy in enumerate_policies(game):
                    target = evaluate_exact(game, policy)
                    assert sign * target == evaluate_exact(rewritten, policy)


def _random_chain(seed: int, beta: Fraction) -> MarkovBandit:
    rng = np.random.Generator(np.random.Philox(seed))
    n = 2 + seed % 4
    halt = 1 - beta
    states = tuple(
        MarkovState(int(rng.integers(0, 10)), halt, int(rng.integers(0, 10)))
        for _ in range(n)
    )
    rows = []
    for _ in range(n):
        weights = [int(x) for x in rng.integers(1, 5, size=n)]
        total = sum(weights)
        rows.append(tuple(Fraction(w, total) for w in weights))
    return MarkovBandit(states=states, transitions=tuple(rows))


def test_4_cumulative_index_recovers_the_discounted_index():
    with criterion(4, "cumulative index matches the discounted index", 120):
        for r in (1, 3):
            for beta in (HALF, Fraction(9, 10)):
                chain = geometric_markov(r, beta)
                report = gittins_compare(chain)
                assert report.passed
                assert report.cumulative_index == Fraction(r, 1) / (1 - beta)
        for seed in range(50):
            beta = HALF if seed % 2 == 0 else Fraction(9, 10)
            report = gittins_compare(_random_chain(seed, beta))
            assert report.passed and report.abs_error <= 1e-8


def test_5_index_engine_invariants_hold_on_the_corpus():
    with criterion(5, "index-engine invariant suite", 600):
        for bandit, is_exact in tree_corpus():
            tol = 0 if is_exact else 1e-10
            enum = solo_index_enumerate(bandit)
            para = solo_index_parametric(bandit)
            rho = enum.value
            worst = None
            for rule in enumerate_stopping_rules(bandit, bandit.root):
                bv = block_value(bandit, bandit.root, rule)
                slack = bv.numerator - rho * bv.denominator
                assert slack <= tol  # no rule beats the index
                worst = slack if worst is None else max(worst, slack)
            assert worst is not None and abs(worst) <= 1e-10  # zero of the
            # parametric charge function sits exactly at the index
            best = block_value(bandit, bandit.root, enum.rule)
            assert abs(best.numerator - rho * best.denominator) <= tol

            dec = index_decomposition(bandit)
            relabeled = equivalent_rewards(dec)
            for nid, node in enumerate(bandit.nodes):
                if node.halted:
                    continue
                for edge in node.edges:
                    if edge.halting:
                        continue
                    assert (
                        dec.prevailing_index[edge.to]
                        <= dec.prevailing_index[nid] + tol
                    )
                    assert relabeled.nodes[edge.to].reward <= relabeled.nodes[nid].reward + tol
            for blk in dec.blocks:
                anchored = solo_index_parametric(bandit, blk.anchor)
                if is_exact:
                    assert anchored.value == blk.value
                else:
                    assert abs(anchored.value - blk.value) <= 1e-10
                bv = block_value(bandit, blk.anchor, blk.rule)
                assert abs(bv.numerator - blk.value * bv.denominator) <= tol
            if is_exact:
                assert para.value == rho
            else:
                assert abs(para.value - rho) <= 1e-10

        # policy-diluted block values never beat the solo index
        for seed in range(10):
            game = random_game(seed, max_depth=2)
            for policy in enumerate_policies(game)[:16]:
                for h, _ in reachable_histories(game, policy):
                    for i in range(game.n):
                        tree = game.dynamics(i)
                        anchor = h.nodes[i]
                        if tree.nodes[anchor].halted:
                            continue
                        ceiling = solo_index_enumerate(tree, anchor).value
                        for rule in enumerate_stopping_rules(tree, anchor):
                            try:
                                nu = policy_block_value(game, policy, i, h, rule)
                            except PreconditionError:
                                continue
                            assert nu.ratio <= ceiling

        # collective value = diluted penultimate value <= solo penultimate
        # value <= the index policy's, for every policy of every game
        for seed in range(8):
            raw = random_game(seed, max_depth=2)
            game = GameInstance(
                bandits=tuple(normalize(b) for b in raw.bandits),
                model=PayoutModel.CP,
            )
            y_game = GameInstance(
                bandits=tuple(
                    equivalent_rewards(index_decomposition(b)) for b in game.bandits
                ),
                model=PayoutModel.PSP,
            )
            star = as_table(game, IndexPolicy())
            star_psp = evaluate_exact(y_game, star)
            assert evaluate_exact(game, star) == star_psp
            for policy in enumerate_policies(game):
                cp = evaluate_exact(game, policy)
                diluted = psp_value_with_policy_indices(game, policy)
                solo = evaluate_exact(y_game, policy)
                assert cp == diluted <= solo <= star_psp


def test_6_worked_interleaving_example_is_reproduced():
    with criterion(6, "worked two-bandit interleaving example", 1):
        game = GameInstance(
            bandits=(geometric_markov(1, HALF), geometric_markov(1, HALF)),
            model=PayoutModel.CCP,
        )
        alternate = CyclicPolicy((0, 1))

        # four survivals: the table's local times, choices, and the
        # not-stopping probability column
        trace = trace_times(game, alternate, ["survive"] * 4)
        assert [r.local_times for r in trace.rows] == [(0, 0), (1, 0), (1, 1), (2, 1)]
        assert [r.choice for r in trace.rows] == [0, 1, 0, 1]
        assert activation_rounds(trace, 0) == (0, 2)  # second visit at round 2
        assert activation_rounds(trace, 1) == (1, 3)  # second visit at round 3
        assert [r.survival_probability for r in trace.rows] == [
            HALF,
            Fraction(1, 4),
            Fraction(1, 8),
            Fraction(1, 16),
        ]

        # the second bandit halting on its first activation ends the game
        # after two rounds
        halted = trace_times(game, alternate, ["survive", "halt"])
        assert halted.halter == 1
        assert halted.halt_round == 2
        assert halted.rows[-1].local_times == (1, 0)

        # cumulative value of the alternating policy: exactly 2 by the
        # rational linear system, and within 1e-12 in floats
        assert evaluate_exact(game, alternate) == 2
        float_game = GameInstance(
            bandits=(geometric_markov(1.0, 0.5), geometric_markov(1.0, 0.5)),
            model=PayoutModel.CCP,
        )
        assert abs(evaluate_exact(float_game, alternate) - 2) <= 1e-12


def test_7_parametric_and_enumeration_solvers_agree():
    with criterion(7, "parametric solver agrees with enumeration", 300):
        for bandit, is_exact in tree_corpus():
            enum = solo_index_enumerate(bandit)
            para = solo_index_parametric(bandit)
            if is_exact:
                assert para.value == enum.value
            else:
                assert abs(para.value - enum.value) <= 1e-10
            assert ratio_iteration(bandit, None, _gains(bandit)).iterations <= rule_count(bandit, bandit.root)


def test_8_sampling_agrees_with_exact_values_and_reruns_identically():
    with criterion(8, "seeded sampling is consistent and reproducible", 180):
        for seed in range(20):
            game = float_game(random_game(seed))
            policy = CyclicPolicy((0, 1))
            exact = evaluate_exact(game, policy)
            first = run_policy_sampled(game, policy, seed=seed, n_samples=100_000)
            again = run_policy_sampled(game, policy, seed=seed, n_samples=100_000)
            assert first == again
            if first.stderr == 0.0:
                assert first.mean == exact
            else:
                assert abs(first.mean - exact) < 5 * first.stderr
