"""Exact-arithmetic analysis layer against brute-force enumeration oracles."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitchain import analysis
from splitchain.analysis import (
    DivisionAnalysisParams,
    HypergeomParams,
    _hypergeom_mass,
    bound_validity_holds,
    default_beta_grid,
    hypergeom_mean,
    hypergeom_pmf,
    sweep_curves,
    tail_bound,
    violation_frequency_montecarlo,
    violation_probability_bound,
    violation_probability_exact,
)
from splitchain.errors import InvalidParams

from helpers import (
    enumerate_pmf,
    enumerate_upper_tail,
    enumerate_violation_probability,
    reference_hypergeom_mass,
    reference_montecarlo,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


# --- hypergeometric basics ----------------------------------------------------


def test_pmf_matches_enumeration_small():
    assert hypergeom_pmf(HypergeomParams(4, 2, 2), 1) == Fraction(2, 3)
    assert hypergeom_pmf(HypergeomParams(4, 2, 2), 1) == enumerate_pmf(4, 2, 2, 1)


def test_pmf_no_marked_elements():
    p = HypergeomParams(10, 0, 5)
    assert hypergeom_pmf(p, 0) == 1
    assert hypergeom_pmf(p, 1) == 0


def test_pmf_support_window():
    # with 7 marked out of 10 and 5 draws, at least 2 draws must be marked
    p = HypergeomParams(10, 7, 5)
    assert p.support == range(2, 6)
    for k in range(0, 2):
        assert hypergeom_pmf(p, k) == 0
    assert hypergeom_pmf(p, 6) == 0


def test_pmf_rejects_bad_params():
    with pytest.raises(InvalidParams):
        HypergeomParams(5, 6, 2)
    with pytest.raises(InvalidParams):
        HypergeomParams(5, 2, 6)
    with pytest.raises(InvalidParams):
        HypergeomParams(5, -1, 2)


@given(st.data())
@settings(max_examples=100, derandomize=True)
def test_pmf_sums_to_one(data):
    N = data.draw(st.integers(1, 40))
    M = data.draw(st.integers(0, N))
    n = data.draw(st.integers(0, N))
    p = HypergeomParams(N, M, n)
    assert sum(hypergeom_pmf(p, k) for k in p.support) == 1


def test_mean_formula():
    assert hypergeom_mean(HypergeomParams(10, 4, 5)) == 2
    assert hypergeom_mean(HypergeomParams(7, 3, 2)) == Fraction(6, 7)


def test_mean_equals_exact_summation():
    """E[X] = n*M/N cross-checked against sum(k * pmf) for random triples."""
    rng = random.Random(20260814)
    for _ in range(100):
        N = rng.randint(1, 60)
        M = rng.randint(0, N)
        n = rng.randint(0, N)
        p = HypergeomParams(N, M, n)
        s = sum(Fraction(k) * hypergeom_pmf(p, k) for k in p.support)
        assert s == hypergeom_mean(p)


def test_pmf_matches_enumeration_random_triples():
    rng = random.Random(7)
    for _ in range(20):
        N = rng.randint(1, 9)
        M = rng.randint(0, N)
        n = rng.randint(0, N)
        k = rng.randint(0, n)
        assert hypergeom_pmf(HypergeomParams(N, M, n), k) == enumerate_pmf(N, M, n, k)


# --- closed-form tail bound -----------------------------------------------------


def test_tail_bound_at_zero_is_one():
    b = tail_bound(HypergeomParams(10, 4, 5), Fraction(0))
    assert b.value == 1.0
    assert b.within_validity


def test_tail_bound_dominates_exact_tail():
    # N=100, M=25, n=50, t=1/12: P(X >= E + t*n) <= e^(-2 t^2 n)
    p = HypergeomParams(100, 25, 50)
    t = Fraction(1, 12)
    threshold = hypergeom_mean(p) + t * p.n
    exact = _hypergeom_mass(p, lambda k: k >= threshold)
    b = tail_bound(p, t)
    assert b.within_validity
    assert math.isclose(b.value, math.exp(-2 * (1 / 144) * 50))
    assert float(exact) <= b.value


def test_tail_bound_dominates_lower_tail_symmetrically():
    p = HypergeomParams(100, 25, 50)
    t = Fraction(1, 12)
    threshold = hypergeom_mean(p) - t * p.n
    exact = _hypergeom_mass(p, lambda k: k <= threshold)
    assert float(exact) <= tail_bound(p, t).value


def test_tail_bound_flags_out_of_range_t():
    p = HypergeomParams(10, 1, 5)  # mean 1/2
    b = tail_bound(p, Fraction(3, 4))
    assert not b.within_validity
    assert b.value == pytest.approx(math.exp(-2 * (9 / 16) * 5))


def test_upper_tail_matches_enumeration():
    assert _hypergeom_mass(HypergeomParams(8, 3, 4),
                           lambda k: k >= Fraction(2)) == \
        enumerate_upper_tail(8, 3, 4, Fraction(2))


# --- violation probability, exact ----------------------------------------------


def violation_tails(d):
    """(P(f1 >= alpha n/2), P(f1 <= f - alpha n/2)): the child-1 and child-2
    breach probabilities, each by one pass of the exact sum."""
    h = HypergeomParams(d.n, d.f, d.half)
    return (_hypergeom_mass(h, d.child_violates),
            _hypergeom_mass(h, lambda k: d.child_violates(d.f - k)))


def test_violation_pinned_value_n10_f4_half():
    """With 10 validators, 4 faulty, threshold 1/2: 132 of the 252 balanced
    splits put 3+ faulty nodes in one child."""
    d = DivisionAnalysisParams(10, 4, HALF)
    assert violation_probability_exact(d) == Fraction(11, 21)
    assert Fraction(11, 21) == Fraction(132, 252)


def test_violation_zero_faulty_is_impossible():
    for n in (2, 4, 10, 50):
        d = DivisionAnalysisParams(n, 0, THIRD)
        assert violation_probability_exact(d) == 0


def test_violation_single_fault_tiny_chain_is_certain():
    # children of size 2 at alpha=1/2: one faulty node reaches 2*(1/2)=1
    d = DivisionAnalysisParams(4, 1, HALF)
    assert violation_probability_exact(d) == 1


def test_violation_matches_enumeration_sample():
    rng = random.Random(99)
    for _ in range(12):
        n = rng.choice([2, 4, 6, 8, 10])
        f = rng.randint(0, n)
        alpha = rng.choice([THIRD, HALF])
        expected = enumerate_violation_probability(n, f, alpha)
        got = violation_probability_exact(DivisionAnalysisParams(n, f, alpha))
        assert got == expected, (n, f, alpha)


def test_violation_tails_exchangeable():
    """P(f1 >= alpha n/2) equals P(f1 <= f - alpha n/2): the two children are
    exchangeable under a uniform balanced split."""
    for n in (4, 6, 10, 12):
        for f in range(n + 1):
            for alpha in (THIRD, HALF):
                up, lo = violation_tails(DivisionAnalysisParams(n, f, alpha))
                assert up == lo


def test_violation_tail_sum_equals_union_when_disjoint():
    # below the threshold ratio the two breach events cannot co-occur
    for n in (6, 10, 12):
        for alpha in (THIRD, HALF):
            for f in range(n + 1):
                d = DivisionAnalysisParams(n, f, alpha)
                up, lo = violation_tails(d)
                if Fraction(f, n) < alpha:
                    assert up + lo == violation_probability_exact(d)


def test_violation_monotone_in_f():
    for n in (4, 8, 12):
        for alpha in (THIRD, HALF):
            probs = [violation_probability_exact(DivisionAnalysisParams(n, f, alpha))
                     for f in range(n + 1)]
            assert all(a <= b for a, b in zip(probs, probs[1:]))


def test_violation_rejects_odd_n():
    with pytest.raises(InvalidParams):
        DivisionAnalysisParams(7, 2, HALF)


# --- one-pass sums against the per-k reference ---------------------------------


def _reference_violation(d):
    """(upper tail, lower tail, union) of d by the per-k reference sum."""
    h = (d.n, d.f, d.half)

    def breach(faulty_in_child):
        return faulty_in_child >= d.alpha * d.half

    def either(k):
        return breach(k) or breach(d.f - k)

    return (reference_hypergeom_mass(*h, breach),
            reference_hypergeom_mass(*h, lambda k: breach(d.f - k)),
            reference_hypergeom_mass(*h, either))


def _size_or_edge(top):
    return st.one_of(st.sampled_from([0, top]), st.integers(0, top))


@given(st.data())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_tails_match_per_k_reference(data):
    N = data.draw(st.integers(0, 400))
    M = data.draw(_size_or_edge(N))
    n = data.draw(_size_or_edge(N))
    t = data.draw(st.fractions(min_value=-1, max_value=N + 1,
                               max_denominator=6))
    p = HypergeomParams(N, M, n)
    assert _hypergeom_mass(p, lambda k: k >= t) == \
        reference_hypergeom_mass(N, M, n, lambda k: k >= t)
    assert _hypergeom_mass(p, lambda k: k <= t) == \
        reference_hypergeom_mass(N, M, n, lambda k: k <= t)


@given(st.data())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_violation_sums_match_per_k_reference(data):
    n = 2 * data.draw(st.integers(1, 200))
    f = data.draw(_size_or_edge(n))
    alpha = data.draw(st.sampled_from([Fraction(1, 4), THIRD, HALF]))
    d = DivisionAnalysisParams(n, f, alpha)
    upper, lower, union = _reference_violation(d)
    assert violation_tails(d) == (upper, lower)
    assert violation_probability_exact(d) == union


@pytest.mark.parametrize("n,f", [
    *((2000, round(beta * 2000)) for beta in default_beta_grid(HALF)),
    (4000, 1600),
])
def test_violation_matches_per_k_reference_at_committee_scale(n, f):
    d = DivisionAnalysisParams(n, f, HALF)
    upper, lower, union = _reference_violation(d)
    assert violation_tails(d) == (upper, lower)
    assert violation_probability_exact(d) == union


# --- closed-form violation bound -------------------------------------------------


def test_bound_pinned_value():
    single, combined = violation_probability_bound(
        DivisionAnalysisParams(100, 25, THIRD))
    assert single == pytest.approx(math.exp(-100 / 144))
    assert combined == pytest.approx(2 * math.exp(-100 / 144))


def test_bound_approaches_one_as_beta_meets_alpha():
    # beta -> alpha drives the exponent to zero
    single, _ = violation_probability_bound(
        DivisionAnalysisParams(300, 99, THIRD))
    assert single > 0.95


def test_bound_rejects_beta_at_or_above_alpha():
    with pytest.raises(InvalidParams):
        violation_probability_bound(DivisionAnalysisParams(12, 6, HALF))


def test_bound_dominates_exact_in_validity_regime():
    """exact <= 2 e^(-(alpha-beta)^2 n) whenever alpha <= 2 beta (and beta <
    alpha), spot-checked across sizes."""
    for n in (10, 12, 40, 100):
        for alpha in (THIRD, HALF):
            for f in range(n + 1):
                d = DivisionAnalysisParams(n, f, alpha)
                if not (d.beta < alpha and bound_validity_holds(d)):
                    continue
                _, combined = violation_probability_bound(d)
                assert float(violation_probability_exact(d)) <= combined + 1e-12


# --- Monte Carlo ----------------------------------------------------------------


def test_montecarlo_agrees_with_exact():
    d = DivisionAnalysisParams(10, 4, HALF)
    freq, stderr = violation_frequency_montecarlo(d, 100_000, seed=11)
    assert abs(freq - 11 / 21) <= 3 * stderr


def test_montecarlo_zero_faulty_never_violates():
    freq, _ = violation_frequency_montecarlo(
        DivisionAnalysisParams(8, 0, HALF), 2_000, seed=1)
    assert freq == 0.0


def test_montecarlo_deterministic_under_seed():
    d = DivisionAnalysisParams(20, 7, THIRD)
    a = violation_frequency_montecarlo(d, 5_000, seed=42)
    b = violation_frequency_montecarlo(d, 5_000, seed=42)
    assert a == b


@given(st.data())
@settings(max_examples=120, derandomize=True, deadline=None)
def test_montecarlo_matches_argsort_reference(data):
    n = 2 * data.draw(st.integers(1, 65))
    f = data.draw(_size_or_edge(n))
    alpha = data.draw(st.sampled_from([Fraction(1, 4), THIRD, HALF]))
    rows = max(1, analysis._MC_CELLS // n)
    trials = data.draw(st.one_of(
        st.sampled_from([1, rows, rows + 1]),
        st.builds(lambda k, r: k * rows + r,
                  st.integers(2, 4), st.integers(1, rows - 1)),
        st.integers(1, 3 * rows)))
    seed = data.draw(st.integers(0, 2**32))
    d = DivisionAnalysisParams(n, f, alpha)
    assert violation_frequency_montecarlo(d, trials, seed=seed) == \
        reference_montecarlo(d, trials, seed=seed)


def _argsort_count(u, half, f):
    return (np.argsort(u, axis=1)[:, :half] < f).sum(axis=1)


def _key_count(u, half, f):
    keys = np.empty(u.shape, np.uint16)
    return analysis._faulty_in_first_half(
        u, keys, np.empty_like(keys), half, f)


def _key_ties_across(u, half):
    s = np.sort(np.floor(u * 2**16), axis=1)
    return s[:, half - 1] == s[:, half]


def test_key_kernel_matches_argsort_on_crafted_ties():
    # n = 6, half = 3; k is one key step, e far below it
    k, e = 2.0**-16, 2.0**-40
    rows = np.array([
        [5*k + 2*e, k, 9*k, 5*k + e, 2*k, 7*k],  # keys tie across: 0 vs 3
        [5*k + e, 5*k + 2*e, k, 9*k, 2*k, 7*k],  # keys tie across: 0 and 1
        [k, 9*k, 5*k + 3*e, 2*k, 7*k, 5*k + e],  # keys tie across: 2 and 5
        [1 - e, 0.0, 1 - 3*e, .1, 1 - 2*e, 1 - 4*e],  # ... at key 65535
        [5*k, 5*k - e, k, 9*k, 2*k, 7*k],  # floats straddle a key step
        [k + e, k + 2*e, 9*k, 8*k, 3*k, 7*k],  # keys tie below only
        [k, 9*k + e, 9*k + 2*e, 2*k, 3*k, 9*k],  # keys tie above only
        [.5, .1, .5, .9, .2, .7],  # floats tie across the threshold
        [.3, .3, .9, .8, .1, .7],  # floats tie below only
        [.1, .9, .9, .2, .3, .9],  # floats tie above only
        [.4, .2, .6, .2, .8, .6],  # floats tie below and above, none across
        [.5, .5, .5, .5, .5, .5],  # every float tied
        [.6, .5, .4, .3, .2, .1],  # no tie
    ])
    assert _key_ties_across(rows, 3).tolist() == [True] * 4 + [False] * 3 \
        + [True] + [False] * 3 + [True, False]
    for f in range(7):
        assert _key_count(rows, 3, f).tolist() == \
            _argsort_count(rows, 3, f).tolist()


def test_key_kernel_matches_argsort_where_keys_tie_often():
    # four keys per cell, three floats per key: key ties at the threshold
    # are the common case, float ties frequent
    rng = np.random.default_rng(6)
    for n in (2, 4, 10, 40, 130):
        u = (rng.integers(0, 4, (500, n)) / 4
             + rng.integers(0, 3, (500, n)) * 2.0**-30)
        for f in sorted({0, 1, n // 3, n // 2, n - 1, n}):
            assert (_key_count(u, n // 2, f)
                    == _argsort_count(u, n // 2, f)).all()


@pytest.mark.parametrize("n, f", [(2000, 990), (4000, 1990)])
def test_montecarlo_matches_argsort_reference_where_keys_tie(n, f):
    # at n >= 2000 several percent of rows tie on 16-bit keys at the
    # threshold; f sits where about 70% of splits breach
    d = DivisionAnalysisParams(n, f, HALF)
    u = np.random.default_rng(8).random((500, n))  # the sampler's draws
    assert _key_ties_across(u, n // 2).sum() >= 5
    assert (_key_count(u, n // 2, f) == _argsort_count(u, n // 2, f)).all()
    freq = violation_frequency_montecarlo(d, 500, seed=8)
    assert freq == reference_montecarlo(d, 500, seed=8)
    assert 0 < freq[0] < 1


def test_montecarlo_memory_is_bounded_by_block_cells():
    # one 2000-row argsort block of n = 2000 held about 64 MB
    d = DivisionAnalysisParams(2000, 800, HALF)
    tracemalloc.start()
    try:
        violation_frequency_montecarlo(d, 2000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# --- sweeps -----------------------------------------------------------------------


def test_default_beta_grid_stays_below_alpha():
    grid = default_beta_grid(HALF, 10)
    assert grid[0] == 0
    assert len(grid) == 10
    assert all(b < HALF for b in grid)
    assert Fraction(2, 5) in grid  # the 0.4 point used by the pinned oracle


def test_sweep_reproduces_pinned_point():
    rows = sweep_curves([10], HALF)
    by_beta = {r.beta: r for r in rows}
    row = by_beta[Fraction(2, 5)]
    assert row.f == 4
    assert row.exact == Fraction(11, 21)


def test_sweep_zero_beta_rows_are_exactly_zero():
    for alpha in (THIRD, HALF):
        rows = sweep_curves([10, 40], alpha)
        for r in rows:
            assert 0 <= r.exact <= 1
            if r.beta == 0:
                assert r.exact == 0


def test_sweep_probability_increases_with_beta():
    rows = sweep_curves([10], THIRD)
    exacts = [r.exact for r in sorted(rows, key=lambda r: r.beta)]
    assert all(a <= b for a, b in zip(exacts, exacts[1:]))


def test_sweep_larger_chains_tolerate_more_at_small_beta():
    """For a fixed small ratio, growing the parent drives the violation
    probability down — the motivation for dividing late rather than early."""
    rows = {(r.n, r.beta): r for r in sweep_curves([10, 100], THIRD)}
    beta = Fraction(1, 5)  # j=6 grid point: f=2 of 10 vs f=20 of 100
    assert rows[(100, beta)].exact < rows[(10, beta)].exact
    assert rows[(10, beta)].exact == Fraction(4, 9)


def test_sweep_montecarlo_columns_populated_only_when_requested():
    dry = sweep_curves([10], HALF)
    assert all(r.mc_freq is None for r in dry)
    wet = sweep_curves([10], HALF, trials=500, seed=3)
    assert all(r.mc_freq is not None and r.mc_stderr is not None for r in wet)


# --- points the support of f1 decides --------------------------------------------

ALPHAS = [Fraction(1, 7), Fraction(1, 4), THIRD, Fraction(2, 5), HALF]


def _per_k_verdict(d):
    """False, True or None: whether no, every or only some f1 in the support
    breaches a child, by walking the support."""
    breaches = [d.child_violates(k) or d.child_violates(d.f - k)
                for k in HypergeomParams(d.n, d.f, d.half).support]
    if not any(breaches):
        return False
    return True if all(breaches) else None


@given(st.data())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_decided_breach_matches_per_k_enumeration(data):
    n = 2 * data.draw(st.integers(1, 200))
    alpha = data.draw(st.sampled_from(ALPHAS))
    c = math.ceil(alpha * n / 2)
    edges = [f for f in (0, n, c - 1, c, 2 * c - 2, 2 * c - 1) if 0 <= f <= n]
    f = data.draw(st.one_of(st.sampled_from(edges), st.integers(0, n)))
    d = DivisionAnalysisParams(n, f, alpha)
    assert d.decided_breach() is _per_k_verdict(d)


def _decided_points(sizes, alphas=ALPHAS):
    for n in sizes:
        for alpha in alphas:
            for f in range(n + 1):
                d = DivisionAnalysisParams(n, f, alpha)
                if d.decided_breach() is not None:
                    yield d


def test_decided_exact_matches_enumeration_and_per_k_reference():
    seen = set()
    for d in _decided_points(range(2, 17, 2)):
        got = violation_probability_exact(d)
        assert got == int(d.decided_breach())
        assert got == _reference_violation(d)[2]
        seen.add(got)
    assert seen == {0, 1}
    # enumeration walks C(n, n/2) splits per point: two thresholds, and at
    # n = 16 (12870 splits) every fourth f
    for d in _decided_points(range(2, 17, 2), (THIRD, HALF)):
        if d.n == 16 and d.f % 4:
            continue
        assert violation_probability_exact(d) == \
            enumerate_violation_probability(d.n, d.f, d.alpha)


def test_decided_exact_matches_per_k_reference_at_committee_scale():
    for n in (100, 1000, 4000):
        for beta in default_beta_grid(HALF):
            d = DivisionAnalysisParams(n, round(beta * n), HALF)
            if d.decided_breach() is not None:
                assert violation_probability_exact(d) == \
                    _reference_violation(d)[2]


def test_decided_montecarlo_matches_always_sampling_reference():
    points = [d for d in _decided_points((2, 4, 10, 40, 100))
              if d.f in (0, 1, d.n // 4, d.n // 2, d.n - 1, d.n)]
    assert {d.decided_breach() for d in points} == {False, True}
    for d in points:
        rows = max(1, analysis._MC_CELLS // d.n)
        for trials in (1, rows, rows + 1):
            assert violation_frequency_montecarlo(d, trials, seed=9) == \
                reference_montecarlo(d, trials, seed=9)


def test_decided_point_draws_nothing_and_its_neighbour_samples(monkeypatch):
    decided = DivisionAnalysisParams(100, 24, HALF)  # f1 <= 24 < 25 = c
    undecided = DivisionAnalysisParams(100, 25, HALF)
    with monkeypatch.context() as patch:
        def no_generator(*args, **kwargs):
            raise AssertionError("a decided point built a generator")

        patch.setattr(analysis.np.random, "default_rng", no_generator)
        assert violation_frequency_montecarlo(decided, 1000, seed=4) == \
            (0.0, 0.0)
        assert violation_probability_exact(decided) == 0
        with pytest.raises(AssertionError, match="built a generator"):
            violation_frequency_montecarlo(undecided, 1000, seed=4)
    assert violation_frequency_montecarlo(undecided, 1000, seed=4) == \
        reference_montecarlo(undecided, 1000, seed=4)
