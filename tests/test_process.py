"""Tests for simulation, transition laws, pgfs, and series I/O."""

import csv
import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nbinar import (
    ModelParams,
    NBParams,
    ParameterError,
    Series,
    autocorrelation,
    conditional_moments,
    conditional_pgf,
    h_fold,
    joint_pgf,
    ma_sample,
    nb_pgf,
    nb_pmf,
    nb_pmf_vector,
    nb_support_bound,
    read_series,
    simulate,
    thin_conditional_pmf,
    thin_sample,
    transition_prob,
    transition_table,
    write_series,
)
from nbinar import process
from nbinar.process import (
    MAX_CELLS,
    MAX_STATE,
    TransitionTable,
    _cdf_rows,
    _invert_row,
    _support_bound,
    _use_table,
    default_max_state,
    transition_rows,
)
from nbinar.distributions import _BinomNBPairs
from nbinar.thinning import odot_pgf

from conftest import (
    S_GRID,
    check_suite,
    models,
    thin_pmf_oracle,
    transition_row_oracle,
    tv_to_pmf,
)

P_HAND = ModelParams(0.5, 2.0, 1.0)


def test_series_validation():
    with pytest.raises(ParameterError):
        Series(np.array([]))
    with pytest.raises(ParameterError):
        Series(np.array([1.5, 2.0]))
    with pytest.raises(ParameterError):
        Series(np.array([1, -2]))
    with pytest.raises(ParameterError):
        Series(np.array([[1, 2]]))
    s = Series(np.array([1.0, 2.0]))  # integral floats are accepted
    assert len(s) == 2 and s.values.dtype.kind == "i"


def test_simulate_shape_and_determinism():
    s1 = simulate(P_HAND, 500, np.random.default_rng(42))
    s2 = simulate(P_HAND, 500, np.random.default_rng(42))
    s3 = simulate(P_HAND, 500, np.random.default_rng(43))
    assert len(s1) == 500
    assert np.array_equal(s1.values, s2.values)
    assert not np.array_equal(s1.values, s3.values)
    assert np.all(s1.values >= 0)


def test_simulate_sampler_choice():
    # J = 69 at the hand triple: the table from n = 307 on; the heavy
    # triple's J = 2557 keeps the loop at any length
    heavy = ModelParams(0.9, 50.0, 0.5)
    J = nb_support_bound(P_HAND.marginal(), 1e-12)
    assert J == 69 and not _use_table(J, 306) and _use_table(J, 307)
    J_heavy = nb_support_bound(heavy.marginal(), 1e-12)
    assert J_heavy == 2557 and not _use_table(J_heavy, 10**12)
    for p, n, want in ((P_HAND, 306, "loop"), (P_HAND, 307, "table"), (heavy, 2000, "loop")):
        meta = simulate(p, n, np.random.default_rng(1)).meta
        assert (meta["sampler"], meta["extended_rows"]) == (want, 0)


def test_simulate_past_the_support_bound_limit_uses_the_loop():
    # NB(1, 1e15) has its 1 - 1e-12 quantile past 2^53, where nb_support_bound
    # refuses; _support_bound reads that as infinite, past simulate's and the
    # default table's caps
    p = ModelParams(0.5, 1e15, 1.0)
    with pytest.raises(ParameterError, match="2\\^53"):
        nb_support_bound(p.marginal(), 1e-12)
    assert _support_bound(p) == math.inf
    assert default_max_state(p) == MAX_STATE
    s = simulate(p, 10, np.random.default_rng(1))
    assert len(s) == 10 and s.meta["sampler"] == "loop" and (s.values > 0).all()


def test_simulate_loop_where_beta_underflows():
    # beta = alpha r / (r + (1 - alpha) mu) = 5e-331 rounds to 0, where no count
    # survives the thinning; the loop takes it from h_fold and does not refuse it
    p = ModelParams(1e-300, 2.0, 1e-30)
    assert h_fold(p, 1).beta_h == 0.0
    s = simulate(p, 10, np.random.default_rng(1))
    assert len(s) == 10 and s.meta["sampler"] == "loop"


class RecordingGenerator:
    """A generator whose gamma means are 1, Poisson counts 3 and binomial
    thinnings keep every count, and which records the success probability of
    each negative binomial draw (returning no extras)."""

    def __init__(self):
        self.q = []

    def gamma(self, shape, scale, size=None):
        return np.ones(size if size is not None else ())

    def poisson(self, lam):
        return np.full(np.shape(lam), 3, dtype=np.int64)

    def binomial(self, n, p):
        return n

    def negative_binomial(self, n, p):
        self.q.append(p)
        return np.zeros_like(n)


def test_samplers_draw_the_extras_at_q_tilde_of_h_fold():
    # 1 - (1 - beta) theta cancels at small r: 8e-4 off q_tilde = r / (r + (1 - alpha) mu) here
    p = ModelParams(0.5, 2.0, 1e-15)
    q1 = h_fold(p, 1).q_tilde_h
    rng = RecordingGenerator()
    thin_sample(p, 4, rng)
    assert rng.q == [q1]
    rng = RecordingGenerator()
    s = simulate(p, 10, rng)
    assert s.meta["sampler"] == "loop" and rng.q == [q1] * 9
    for size in (None, 5):
        rng = RecordingGenerator()
        ma_sample(p, 4, rng, size=size)
        assert rng.q == [h_fold(p, h).q_tilde_h for h in range(1, 5)]


@functools.cache
def wide_cdf(p, x, j_max=4000):
    return np.cumsum(transition_rows(p, [x], j_max)[0])


def inverse_of_rows(p, x, u):
    """min{j : sum_{k <= j} P(k | x) > u} from one wide ``transition_rows`` row,
    or None where the row's rounded total does not pass u."""
    cdf = wide_cdf(p, x)
    return int(np.searchsorted(cdf, u, side="right")) if cdf[-1] > u else None


def test_invert_row_extends_past_the_table():
    J = nb_support_bound(P_HAND.marginal(), 1e-12)
    for x in (3, J, J + 5, 10 * J):
        for u in (0.3, 1.0 - 1e-12, 1.0 - 2.0**-53):
            j = _invert_row(P_HAND, x, u, J)
            want = inverse_of_rows(P_HAND, x, u)
            if want is not None:
                assert j == want, (x, u)
            else:
                # the end case: the draw is where the rounded total stopped growing
                cdf = wide_cdf(P_HAND, x)
                assert cdf[j] == cdf[-1] and cdf[j - 1] < cdf[j], (x, u)


class ScriptedRng:
    """Stands in for a Generator: the marginal draw (a Poisson of a Gamma
    mean) is ``x0`` and ``random`` returns the scripted uniforms."""

    def __init__(self, x0, uniforms):
        self.x0, self.uniforms = x0, np.asarray(uniforms, dtype=float)

    def gamma(self, shape, scale, size=None):
        return 1.0

    def poisson(self, lam):
        return self.x0

    def random(self, size):
        assert size == self.uniforms.size
        return self.uniforms


def test_simulate_extends_rows_it_cannot_invert():
    # start beyond the table (x0 > J) and draw uniforms just below 1, so rows
    # are extended from states above J and from states inside the table
    J = nb_support_bound(P_HAND.marginal(), 1e-12)
    n = 400
    uniforms = np.full(n - 1, 0.5)
    uniforms[[0, 1, 50, 51]] = [1.0 - 1e-12, 0.2, 1.0 - 1e-13, 1.0 - 1e-12]
    series = simulate(P_HAND, n, ScriptedRng(J + 5, uniforms))
    assert series.meta["sampler"] == "table"
    want, extended = [J + 5], 0
    for u in uniforms:
        j = inverse_of_rows(P_HAND, want[-1], u)
        extended += want[-1] > J or j > J
        want.append(j)
    assert series.values.tolist() == want
    assert series.meta["extended_rows"] == extended >= 3


def simulate_cold(p, n, rng):
    """``simulate`` with no table kept from an earlier call."""
    _support_bound.cache_clear()
    _cdf_rows.cache_clear()
    return simulate(p, n, rng)


def test_simulate_kept_table_draws_the_same_series():
    # each call in the sequence either reuses the kept table or, after the
    # other triple evicted it, builds it again; every series matches a build
    # from scratch
    other = ModelParams(0.3, 1.0, 2.0)
    cases = [(P_HAND, 501, 1), (P_HAND, 2000, 2), (other, 400, 3),
             (other, 1000, 4), (P_HAND, 307, 5), (other, 250, 6), (P_HAND, 501, 7)]
    cold = [simulate_cold(p, n, np.random.default_rng(seed)) for p, n, seed in cases]
    assert {s.meta["sampler"] for s in cold} == {"table"}
    _cdf_rows.cache_clear()
    for _ in range(2):
        for (p, n, seed), want in zip(cases, cold):
            warm = simulate(p, n, np.random.default_rng(seed))
            assert np.array_equal(warm.values, want.values) and warm.meta == want.meta
    info = _cdf_rows.cache_info()
    assert info.hits >= 4 and info.misses >= 4 and info.currsize == 1


def test_simulate_kept_table_on_extended_rows():
    # with x0 > J the rows are extended; a kept table draws as a fresh one does
    J = nb_support_bound(P_HAND.marginal(), 1e-12)
    uniforms = np.full(399, 0.5)
    uniforms[[0, 1, 50, 51]] = [1.0 - 1e-12, 0.2, 1.0 - 1e-13, 1.0 - 1e-12]
    cold = simulate_cold(P_HAND, 400, ScriptedRng(J + 5, uniforms))
    warm = simulate(P_HAND, 400, ScriptedRng(J + 5, uniforms))
    assert cold.meta["extended_rows"] >= 3
    assert np.array_equal(warm.values, cold.values) and warm.meta == cold.meta
    fresh = np.cumsum(transition_rows(P_HAND, np.arange(J + 1), J), axis=1)
    assert np.array_equal(_cdf_rows(P_HAND), fresh)


def test_simulate_builds_the_table_once_per_triple(monkeypatch):
    calls = {"transition_rows": 0, "nb_support_bound": 0}

    def counted(name):
        original = getattr(process, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(process, name, wrapped)

    counted("transition_rows")
    counted("nb_support_bound")
    _support_bound.cache_clear()
    _cdf_rows.cache_clear()
    for seed in range(5):
        assert simulate(P_HAND, 501, np.random.default_rng(seed)).meta["sampler"] == "table"
    assert calls == {"transition_rows": 1, "nb_support_bound": 1}


def test_simulate_near_independence_limit():
    rng = np.random.default_rng(9)
    x = simulate(ModelParams(1e-9, 2.0, 1.0), 20_000, rng).values
    xc = x - x.mean()
    lag1 = float(np.sum(xc[:-1] * xc[1:])) / float(np.sum(xc * xc))
    assert abs(lag1) < 0.02


def test_transition_prob_hand_values():
    assert abs(transition_prob(P_HAND, 1, 1, 1) - 0.25) <= 1e-14
    assert abs(transition_prob(P_HAND, 0, 0, 1) - 0.5) <= 1e-14
    for j in range(6):
        # i = 0 row is the innovation law, here geometric(1/2)
        assert_allclose(transition_prob(P_HAND, 0, j, 1), 0.5 ** (j + 1),
                        rtol=1e-13)


def test_transition_prob_matches_thinning_convolution():
    # independent route: thin the start state, convolve with the h-step
    # innovation total, which is NB(r, (1 - alpha^h) mu)
    for p in models():
        for h in (1, 2, 3):
            innov_h = NBParams(p.r, (1.0 - p.alpha ** h) * p.mu)
            innov_pmf = nb_pmf_vector(innov_h, 25)
            for i in (0, 1, 2, 5, 10):
                thin_pmf = np.array([thin_conditional_pmf(p, i, h, k)
                                     for k in range(26)])
                want = np.convolve(thin_pmf, innov_pmf)[:26]
                got = np.array([transition_prob(p, i, j, h)
                                for j in range(26)])
                assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_transition_rows_match_scalar():
    p = ModelParams(0.7, 4.0, 2.5)
    rows = transition_rows(p, [0, 1, 5, 12], 30, h=2)
    for a, i in enumerate([0, 1, 5, 12]):
        want = transition_row_oracle(p, i, 30, 2)
        assert_allclose(rows[a], want, rtol=1e-13, atol=1e-300)
        assert_allclose([transition_prob(p, i, j, 2) for j in range(31)], want,
                        rtol=1e-13, atol=1e-300)


def branch_margin(p, h=1):
    """d = 2c - b(1 + c): where d >= 0 the kernel runs every row forward; where
    d < 0 it runs a row backward above its turning point A_i / (-d)."""
    hp = h_fold(p, h)
    b, c = hp.alpha_h * hp.q_tilde_h, hp.qbar_h
    return 2.0 * c - b * (1.0 + c)


def boundary_r(alpha_h, mu):
    """The r with 2c = b(1 + c) at this alpha^h and mu: there
    q = ((1 + a) - sqrt(1 + a^2)) / a solves a q^2 - 2(1 + a) q + 2 = 0."""
    q = ((1.0 + alpha_h) - math.sqrt(1.0 + alpha_h * alpha_h)) / alpha_h
    return mu * q * (1.0 - alpha_h) / (1.0 - q)


@st.composite
def wide_cases(draw):
    alpha = draw(st.floats(min_value=0.01, max_value=0.99))
    mu = 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    h = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        r = 10.0 ** draw(st.floats(min_value=-15.0, max_value=4.0))
    else:  # on the branch boundary, up to a small relative shift either way
        shift = draw(st.floats(min_value=-1e-6, max_value=1e-6))
        r = boundary_r(alpha ** h, mu) * (1.0 + shift)
        assume(1e-15 <= r <= 1e4)
    rows = draw(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                         max_size=3, unique=True))
    j_max = draw(st.integers(min_value=0, max_value=30))
    return ModelParams(alpha, mu, r), h, rows, j_max


@settings(max_examples=60, deadline=None)
@given(case=wide_cases())
@example(case=(ModelParams(0.9, 50.0, 0.5), 1, [0, 7, 30], 30))  # forward
@example(case=(ModelParams(0.95, 10.0, 5.0), 1, [0, 7, 30], 30))  # split
@example(case=(ModelParams(0.5, 1.0, boundary_r(0.5, 1.0)), 1, [0, 7, 30], 30))  # boundary
@example(case=(ModelParams(0.75, 1e-3, 1e4), 1, [0], 1))  # 1 - q_tilde = 2.5e-8
@example(case=(ModelParams(0.99, 1e-3, 1e3), 1, [9, 18, 30], 30))  # A_i + d j cancels at j*
@example(case=(ModelParams(0.5, 2.0, 1e-15), 1, [0, 5, 20], 30))  # r + j - 1 keeps r
def test_transition_rows_match_oracle_wide_domain(case):
    p, h, rows, j_max = case
    event("d >= 0: every row forward" if branch_margin(p, h) >= 0.0
          else "d < 0: rows split at their turning points")
    got = transition_rows(p, rows, j_max, h)
    # the likelihood's per-pair sum is within 1e-12 of each cell the row kernel
    # holds as a normal double, at every r down to 1e-15 (over 10^4 random
    # draws of this domain the largest gap was 3.4e-13)
    hp = h_fold(p, h)
    i, j = np.meshgrid(rows, np.arange(j_max + 1), indexing="ij")
    pair_p = np.exp(_BinomNBPairs(i.ravel(), j.ravel()).log_prob(
        hp.beta_h, hp.q_tilde_h, hp.qbar_h, p.r))
    cells = got.ravel()
    normal = cells >= np.finfo(float).tiny
    assert_allclose(cells[normal], pair_p[normal], rtol=1e-12, atol=0.0)
    for a, i in enumerate(rows):
        assert_allclose(got[a], transition_row_oracle(p, i, j_max, h),
                        rtol=1e-9, atol=1e-300)
        if i:
            thin = [thin_conditional_pmf(p, i, h, k) for k in range(j_max + 1)]
            want = [thin_pmf_oracle(p, i, h, k) for k in range(j_max + 1)]
            assert_allclose(thin, want, rtol=1e-9, atol=1e-300)


def test_transition_rows_where_forward_recurrence_diverges():
    # the recurrence run forward at these triples is dominated by its
    # spurious solution above each row's turning point; the kernel runs those
    # ratios backward
    for triple in [(0.95, 10.0, 5.0), (0.99, 2.0, 1.0)]:
        p = ModelParams(*triple)
        assert branch_margin(p) < 0.0
        got = transition_rows(p, [0, 3, 10, 25], 60)
        for a, i in enumerate([0, 3, 10, 25]):
            assert_allclose(got[a], transition_row_oracle(p, i, 60),
                            rtol=1e-11, atol=1e-300)


def assert_rows_match_pair_sums(p, rows, j_max, rtol=5e-11):
    """Every cell of ``transition_rows`` that is a normal double is within rtol
    of the likelihood's per-pair sum; the others are below 1e-300 there too."""
    got = transition_rows(p, rows, j_max)
    hp = h_fold(p, 1)
    i, j = np.meshgrid(rows, np.arange(j_max + 1), indexing="ij")
    want = np.exp(_BinomNBPairs(i.ravel(), j.ravel()).log_prob(
        hp.beta_h, hp.q_tilde_h, hp.qbar_h, p.r)).reshape(got.shape)
    normal = got >= np.finfo(float).tiny
    assert_allclose(got[normal], want[normal], rtol=rtol, atol=0.0)
    assert (want[~normal] < 1e-300).all()


# where d < 0 at these triples, the old kernel summed the positive mixture
@pytest.mark.parametrize("triple", [(0.95, 10.0, 5.0), (0.99, 2.0, 1.0), (0.5, 2.0, 1e4),
                                    (0.95, 200.0, 200.0), (0.8, 500.0, 1000.0),
                                    (0.999, 1.0, 1.0), (0.6, 1.0, 100.0), (0.7, 2.0, 30.0)])
def test_transition_rows_split_at_turning_points_match_pair_sums(triple):
    p = ModelParams(*triple)
    assert branch_margin(p) < 0.0
    for j_max in (200, 700):
        assert_rows_match_pair_sums(p, np.arange(0, j_max + 1, 50), j_max)


# the forward run formed r + j - 1 as (r + j) - 1, which keeps r only to an
# absolute 1e-16: at (0.5, 2, r) it was 6.5e-12 off at r = 1e-3, 5.2e-3 at 1e-12
# and NaN at 1e-15
@pytest.mark.parametrize("triple", [(0.5, 2.0, 1e-3), (0.5, 2.0, 1e-9), (0.5, 2.0, 1e-12),
                                    (0.5, 2.0, 1e-15), (0.3, 5.0, 1e-6)])
def test_transition_rows_at_small_r_match_pair_sums(triple):
    assert_rows_match_pair_sums(ModelParams(*triple), [0, 1, 5, 20], 60, rtol=1e-12)


@pytest.mark.parametrize("alpha, mu, shift, j_max", [
    (0.5, 1.0, 1e-3, 2000), (0.9, 0.01, 1e-2, 3000),
    # a backward run started at 2 j_max + 2 left these off by 0.28 and 3.8e-5
    (0.9, 0.01, 1e-4, 3000), (0.9, 0.01, 1e-1, 100)])
def test_transition_rows_just_past_the_boundary_match_pair_sums(alpha, mu, shift, j_max):
    # just past d = 0 the local roots are close, so neither run gains much on
    # the other; the rows whose turning point lies in [0, j_max] are checked
    p = ModelParams(alpha, mu, boundary_r(alpha, mu) * (1.0 + shift))
    d = branch_margin(p)
    hp = h_fold(p, 1)
    b, c = hp.beta_h, hp.qbar_h
    turn = (np.arange(j_max + 1) * b * hp.q_tilde_h + c * p.r * (1.0 - b)) / -d
    inside = np.flatnonzero(turn <= j_max)
    assert d < 0.0 and inside.size
    assert_rows_match_pair_sums(p, np.union1d(inside, [j_max // 2, j_max]), j_max)


def test_cells_where_alpha_h_underflows():
    # 0.5^1100 underflows: no count survives the thinning, and each cell is the
    # innovation law's, in the scalar kernel as in the row kernel
    assert h_fold(P_HAND, 1100).beta_h == 0.0
    assert transition_prob(P_HAND, 1, 1, 1100) == transition_rows(P_HAND, [1], 1, 1100)[0, 1]
    assert_allclose(transition_prob(P_HAND, 1, 1, 1100), 2.0 / 9.0, rtol=1e-15)
    rows = transition_rows(P_HAND, [0, 3, 40], 8, 1100)
    for a, i in enumerate([0, 3, 40]):
        assert_allclose([transition_prob(P_HAND, i, j, 1100) for j in range(9)], rows[a],
                        rtol=1e-14)
    assert thin_conditional_pmf(P_HAND, 3, 2000, 1) == 0.0
    assert thin_conditional_pmf(P_HAND, 3, 2000, 0) == 1.0


def test_transition_row_with_underflowing_start_probability():
    # p_0 = q^r (1 - b)^1200 is about exp(-820), below the smallest double,
    # while the row itself is an ordinary pmf around j = 1189
    p = ModelParams(0.99, 100.0, 1.0)
    assert branch_margin(p) > 0.0
    rows = transition_rows(p, [0, 1200], 3000)
    assert rows[1, 0] == 0.0
    j = np.arange(3001, dtype=float)
    assert abs(rows[1].sum() - 1.0) <= 1e-10
    mean = float(rows[1] @ j)
    var = float(rows[1] @ (j - mean) ** 2)
    assert_allclose([mean, var], conditional_moments(p, 1200, 1), rtol=1e-9)
    assert_allclose(rows[0], transition_row_oracle(p, 0, 3000), rtol=1e-10)


def peak_bytes(fn):
    """Peak bytes traced while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transition_rows_peak_memory():
    rows, j_max = np.arange(200), 2400
    # forward branch: one rows x (J + 1) buffer of log ratios, which becomes
    # the result; a path holding a (J + 1)^2 matrix would need 46 MB
    p = ModelParams(0.9, 50.0, 0.5)
    assert branch_margin(p) > 0.0
    peak = peak_bytes(lambda: transition_rows(p, rows, j_max))
    assert peak <= 2 * rows.size * (j_max + 1) * 8
    # rows split at their turning points: the same buffer, which the backward
    # run fills in place
    p = ModelParams(0.95, 10.0, 5.0)
    assert branch_margin(p) < 0.0
    peak = peak_bytes(lambda: transition_rows(p, rows, j_max))
    assert peak <= 2 * rows.size * (j_max + 1) * 8


def test_transition_rows_cell_budget():
    # a table at MAX_STATE fits the budget; one more column does not, and the
    # 10^9-column row that would take 8 GB fails before allocating
    assert (MAX_STATE + 1) ** 2 <= MAX_CELLS < (MAX_STATE + 1) * (MAX_STATE + 2)
    with pytest.raises(ParameterError, match=f"{(MAX_STATE + 1) * (MAX_STATE + 2)} cells"):
        transition_rows(P_HAND, np.arange(MAX_STATE + 1), MAX_STATE + 1)
    # the budget is the one refusal of a table too large
    with pytest.raises(ParameterError, match=f"cell budget of {MAX_CELLS}"):
        transition_table(P_HAND, MAX_STATE + 1)

    def huge_table():  # refused before its 0..max_state rows are formed
        with pytest.raises(ParameterError, match=f"cell budget of {MAX_CELLS}"):
            transition_table(P_HAND, 10**12)
    assert peak_bytes(huge_table) < 1e6

    def huge_row():
        with pytest.raises(ParameterError, match=f"{10**9 + 1} cells.*{MAX_CELLS}"):
            transition_rows(P_HAND, [0], 10**9)
    assert peak_bytes(huge_row) < 1e6


def test_scalar_cell_memory_is_bounded_by_the_smaller_state():
    # a cell sums over the N <= min(i, j) survivors of the thinning, so i = 10^6
    # builds no array over 0..i (one would take 49 MB)
    assert peak_bytes(lambda: transition_prob(P_HAND, 10**6, 3)) < 1e6
    assert peak_bytes(lambda: thin_conditional_pmf(P_HAND, 10**6, 1, 3)) < 1e6
    # those cells underflow to 0; at i >> j one that does not matches the row kernel
    want = transition_rows(P_HAND, [200], 5)[0, 5]
    assert want > 0.0
    assert_allclose(transition_prob(P_HAND, 200, 5), want, rtol=1e-12)


def pgf_coefficient_mpmath(p, i, j, h):
    """[s^j] of q^r u(s)^i v(s)^-(i+r) at 50 digits: the Cauchy product of the
    binomial series of u^i and the negative binomial series of v^-(i+r)."""
    with mpmath.workdps(50):
        a = mpmath.mpf(p.alpha) ** h
        r = mpmath.mpf(p.r)
        q = r / (r + (1 - a) * mpmath.mpf(p.mu))
        b, c = a * q, 1 - q
        total = mpmath.mpf(0)
        for k in range(min(i, j) + 1):
            m = j - k
            total += (mpmath.binomial(i, k) * (1 - b) ** (i - k) * (b - c) ** k
                      * mpmath.rf(i + r, m) / mpmath.factorial(m) * c ** m)
        return float(q ** r * total)


@pytest.mark.parametrize("triple, h, i, j", [
    ((0.9, 50.0, 0.5), 1, 30, 40),
    ((0.7, 4.0, 2.5), 1, 12, 25),
    ((0.5, 2.0, 1.0), 3, 4, 7),
    ((0.95, 10.0, 5.0), 1, 12, 20),
    ((0.99, 2.0, 1.0), 1, 5, 9),
    ((0.5, 2.0, 1e4), 1, 3, 5),
    ((0.99, 1.0, 1e4), 1, 1, 40),
    ((0.99, 1.0, 1e4), 1, 3, 10),
])
def test_transition_rows_match_mpmath(triple, h, i, j):
    p = ModelParams(*triple)
    got = transition_rows(p, [i], j, h)[0, j]
    assert_allclose(got, pgf_coefficient_mpmath(p, i, j, h), rtol=1e-12)


def test_transition_table_structure():
    table = transition_table(P_HAND, 80, 1)
    assert table.probs.shape == (81, 81)
    assert np.all(table.probs > 0.0)  # every state reaches every state
    sums = table.probs.sum(axis=1) + table.tail_mass
    assert np.all(sums <= 1.0 + 1e-12)
    assert np.all(table.tail_mass[:21] <= 1e-9)
    with pytest.raises(ParameterError):
        transition_table(P_HAND, 6000)


def test_transition_table_chapman_kolmogorov():
    check_suite("transition-law")


def test_transition_table_preserves_stationary_law():
    check_suite("transition-law")


def test_default_max_state_covers_marginal():
    for p in models():
        J = default_max_state(p)
        assert nb_pmf_vector(p.marginal(), J).sum() >= 1.0 - 1e-11
    # twice the tail bound is 5114 here: the default stops at the table cap
    heavy = ModelParams(0.9, 50.0, 0.5)
    assert 2 * nb_support_bound(heavy.marginal(), 1e-12) > MAX_STATE
    assert default_max_state(heavy) == MAX_STATE
    # a marginal mean of 1e6 reaches the cap without building the table
    assert default_max_state(ModelParams(0.5, 1e6, 0.5)) == MAX_STATE


def test_conditional_moments_hand_values():
    mean, var = conditional_moments(P_HAND, 3, 1)
    assert_allclose([mean, var], [2.5, 5.75], rtol=1e-13)


def test_conditional_moments_match_transition_row():
    for p in models():
        jmax = 4 * nb_support_bound(p.marginal(), 1e-14) + 40
        for h in (1, 3):
            rows = transition_rows(p, [0, 3, 10], jmax, h)
            j = np.arange(jmax + 1, dtype=float)
            for a, x in enumerate([0, 3, 10]):
                mean = float(np.sum(rows[a] * j))
                var = float(np.sum(rows[a] * (j - mean) ** 2))
                assert_allclose(conditional_moments(p, x, h), [mean, var],
                                rtol=1e-8)


def test_conditional_moments_forget_start_state():
    mean, var = conditional_moments(P_HAND, 17, 60)
    assert_allclose([mean, var], [2.0, 6.0], rtol=1e-8)


def test_conditional_pgf_series_oracle():
    p = ModelParams(0.5, 2.0, 1.0)
    row = transition_rows(p, [4], 400, h=2)[0]
    j = np.arange(401, dtype=float)
    for s in (0.3, 0.7):
        want = float(np.sum(row * s ** j))
        assert_allclose(conditional_pgf(p, 4, 2, s), want, rtol=1e-10)
    assert conditional_pgf(p, 4, 2, 1.0) == 1.0


def test_conditional_pgf_derivative_is_conditional_mean():
    p = ModelParams(0.7, 4.0, 2.5)
    eps = 1e-6
    fd = (conditional_pgf(p, 5, 1, 1.0) - conditional_pgf(p, 5, 1, 1.0 - eps)) / eps
    mean, _ = conditional_moments(p, 5, 1)
    assert_allclose(fd, mean, rtol=1e-4)


def test_conditional_pgf_factors_into_thinning_and_innovations():
    # start-state part is the h-fold operator pgf raised to x; the rest is
    # the accumulated innovation pgf, a product over thinned innovations
    for p in models():
        innov = p.innovation()
        for h in range(1, 6):
            hp = h_fold(p, h)
            for s in (0.0, 0.25, 0.5, 0.75, 1.0):
                zero_part = conditional_pgf(p, 0, h, s)
                product = 1.0
                for j in range(h):
                    if j == 0:
                        inner = s
                    else:
                        hj = h_fold(p, j)
                        inner = odot_pgf(hj.beta_h, hj.theta, s)
                    product *= nb_pgf(innov, inner)
                assert abs(zero_part - product) <= 1e-12
                g_part = odot_pgf(hp.beta_h, hp.theta, s) ** 3
                assert abs(conditional_pgf(p, 3, h, s) - g_part * zero_part) <= 1e-12


def test_joint_pgf_marginalization_and_symmetry():
    for p in models():
        marg = p.marginal()
        assert abs(joint_pgf(p, 1.0, 1.0) - 1.0) <= 1e-14
        for s in S_GRID:
            assert_allclose(joint_pgf(p, s, 1.0), nb_pgf(marg, s), rtol=1e-13)
            assert_allclose(joint_pgf(p, 1.0, s), nb_pgf(marg, s), rtol=1e-13)
        for s1 in (0.1, 0.5, 0.9):
            for s2 in (0.2, 0.6, 1.0):
                assert joint_pgf(p, s1, s2) == joint_pgf(p, s2, s1)


def test_joint_pgf_series_oracle():
    # E[s1^X0 s2^X1] by summing the stationary law against transition rows
    p = P_HAND
    jmax = 200
    pi = nb_pmf_vector(p.marginal(), jmax)
    rows = transition_rows(p, list(range(jmax + 1)), jmax, 1)
    s1, s2 = 0.4, 0.8
    want = float((pi * s1 ** np.arange(jmax + 1)) @ (rows @ s2 ** np.arange(jmax + 1)))
    assert_allclose(joint_pgf(p, s1, s2), want, rtol=1e-10)


def test_autocorrelation_values():
    p = ModelParams(0.7, 4.0, 2.5)
    assert autocorrelation(p, 0) == 1.0
    for k in (1, 2, 5):
        assert_allclose(autocorrelation(p, k), 0.7 ** k, rtol=1e-14)


def test_ma_sample_truncation_at_zero_is_innovation():
    rng = np.random.default_rng(31)
    draws = ma_sample(P_HAND, 0, rng, size=100_000)
    innov = P_HAND.innovation()
    assert tv_to_pmf(draws, lambda k: nb_pmf(innov, k)) < 0.01


def test_series_io_round_trip(tmp_path):
    s = Series(np.array([3, 0, 1, 7]))
    path = tmp_path / "series.txt"
    write_series(path, s)
    assert path.read_text().splitlines() == ["3", "0", "1", "7"]
    back = read_series(path)
    assert np.array_equal(back.values, s.values)


def csv_writer_table(table, path):
    # the table format as csv.writer wrote it, cell by cell: the reference
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from_state", *range(table.max_state + 1), "tail_mass"])
        for i in range(table.max_state + 1):
            writer.writerow([i, *(repr(float(v)) for v in table.probs[i]),
                             repr(float(table.tail_mass[i]))])


def assert_table_bytes_and_round_trip(table, tmp_path):
    table.to_csv(tmp_path / "table.csv")
    csv_writer_table(table, tmp_path / "reference.csv")
    got = (tmp_path / "table.csv").read_bytes()
    assert got == (tmp_path / "reference.csv").read_bytes()
    assert got.count(b"\r\n") == table.max_state + 2
    with open(tmp_path / "table.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["from_state", *map(str, range(table.max_state + 1)), "tail_mass"]
    assert [int(row[0]) for row in rows] == list(range(table.max_state + 1))
    body = np.array([[float(v) for v in row[1:]] for row in rows])
    assert np.array_equal(body[:, :-1], table.probs)
    assert np.array_equal(body[:, -1], table.tail_mass)


@pytest.mark.parametrize("h", [1, 2])
def test_table_csv_bytes_match_csv_writer_hand_triple(tmp_path, h):
    assert_table_bytes_and_round_trip(transition_table(P_HAND, 200, h), tmp_path)


def test_table_csv_bytes_match_csv_writer_where_tail_mass_clips(tmp_path):
    table = transition_table(ModelParams(0.99, 1.0, 1e4), 60, 2)
    assert table.probs.sum(axis=1).max() > 1.0 and (table.tail_mass == 0.0).any()
    assert_table_bytes_and_round_trip(table, tmp_path)


def test_table_csv_bytes_match_csv_writer_on_extreme_floats(tmp_path):
    probs = [[0.0, 5e-324, 1e-300], [1e16, 1.0 - 2.0**-53, 0.0], [0.25, 1e-300, 0.5]]
    table = TransitionTable(h=1, max_state=2, probs=probs)
    assert_table_bytes_and_round_trip(table, tmp_path)


@pytest.mark.parametrize("values", [[0], [7], [0, 3, 2**62, 10**12, 0, 1]])
def test_series_file_bytes_match_per_value_str(tmp_path, values):
    s = Series(np.array(values, dtype=np.int64))
    write_series(tmp_path / "series.txt", s)
    want = ("\n".join(str(int(v)) for v in s.values) + "\n").encode()
    assert (tmp_path / "series.txt").read_bytes() == want
    assert np.array_equal(read_series(tmp_path / "series.txt").values, s.values)


def test_read_series_csv_column(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("t,x\n0,4\n1,5\n2,6\n")
    assert np.array_equal(read_series(path).values, [4, 5, 6])


def test_read_series_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1\nfoo\n")
    with pytest.raises(ValueError):
        read_series(bad)
    frac = tmp_path / "frac.txt"
    frac.write_text("1\n2.5\n")
    with pytest.raises(ValueError):
        read_series(frac)
    with pytest.raises(OSError):
        read_series(tmp_path / "missing.txt")
