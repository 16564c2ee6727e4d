import copy
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ddnpca.datagen import (
    _FRAME_CHUNK,
    _coefficient_matrix,
    _rowwise_isin,
    MissingNoiseModel,
    SddcNoiseModel,
    SignalModel,
    SupportSchedule,
    generate_dataset,
    generate_support_schedule,
    random_basis,
    sparse_basis,
    verify_schedule_conditions,
)
from ddnpca.errors import DimensionError, ParameterError, ScheduleError
from ddnpca.linalg import subspace_error


def expt1_model(n=500, r=5):
    return SignalModel(P=sparse_basis(n, r), lam=np.array([100.0, 100.0, 100.0, 0.1, 0.1]))


def draw_with_signal(model, noise, alpha, rng):
    """`generate_dataset`'s (Y, q), and between them the signal P A that Y
    started from, A re-derived as the generator's first draw (from a copy
    of the generator taken before the call)."""
    L = model.P @ _coefficient_matrix(model, alpha, copy.deepcopy(rng))
    Y, q = generate_dataset(model, noise, alpha, rng)
    return Y, L, q


class TestSignalModel:
    def test_zero_lambda_rejected(self):
        with pytest.raises(ParameterError):
            SignalModel(P=sparse_basis(4, 2), lam=np.array([1.0, 0.0]))

    def test_increasing_lambda_rejected(self):
        with pytest.raises(ParameterError):
            SignalModel(P=sparse_basis(4, 2), lam=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            SignalModel(P=sparse_basis(4, 2), lam=np.array([bad, 1.0]))
        with pytest.raises(ParameterError, match="finite"):
            SignalModel(P=sparse_basis(4, 2), lam=np.array([1.0, bad]))


class TestSampleCoefficients:
    """One coefficient vector: the coefficient law drawn as a one-column batch."""

    def test_support_and_moments(self):
        model = SignalModel(P=sparse_basis(3, 2), lam=np.array([1.0, 1.0]))
        rng = np.random.default_rng(0)
        draws = np.array([_coefficient_matrix(model, 1, rng)[:, 0] for _ in range(100_000)])
        assert np.all(np.abs(draws) <= np.sqrt(3.0) + 1e-12)
        var = draws.var(axis=0)
        assert np.all(var >= 0.97) and np.all(var <= 1.03)
        assert np.abs(draws.mean(axis=0)).max() < 0.01

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_vector_law(self, seed, r):
        # r uniforms per vector, whatever the batch law draws them with
        lam = np.sort(np.random.default_rng(seed).uniform(0.1, 10.0, size=r))[::-1]
        model = SignalModel(P=sparse_basis(r + 1, r), lam=lam)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        a = _coefficient_matrix(model, 1, rng_a)[:, 0]
        np.testing.assert_array_equal(a, (2.0 * rng_b.random(r) - 1.0) * np.sqrt(3.0 * lam))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_eta_bound_pathwise(self):
        lam = np.array([9.0, 0.25])
        model = SignalModel(P=sparse_basis(4, 2), lam=lam)
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100_000):
            a = _coefficient_matrix(model, 1, rng)[:, 0]
            worst = max(worst, np.max(a * a / lam))
        assert worst <= 3.0 + 1e-12


class TestGenerateSupportSchedule:
    def test_single_frame(self):
        sched = generate_support_schedule(10, 1, 3, 3, 1, start=0)
        assert sched.supports.tolist() == [[0, 1, 2]]

    def test_expt1_window_wraps(self):
        sched = generate_support_schedule(500, 300, 5, 2, 1, start=0)
        assert sched.alpha == 300
        assert sched.supports.shape == (300, 5)
        # shifted by ceil(5/2) = 3 each frame, disjoint two frames apart
        assert sched.supports[1].tolist() == [(i + 3) % 500 for i in range(5)]
        for t in range(298):
            assert not set(sched.supports[t]) & set(sched.supports[t + 2])
        report = verify_schedule_conditions(sched)
        assert not report["condition3"]
        assert report["max_cover"] <= sched.beta

    def test_strict_mode_when_it_fits(self):
        sched = generate_support_schedule(1000, 100, 5, 2, 1)
        report = verify_schedule_conditions(sched)
        assert report["condition1"] and report["condition2"] and report["condition3"]

    def test_persistence(self):
        sched = generate_support_schedule(100, 12, 4, 2, 3)
        runs = []
        for T in map(tuple, sched.supports):
            if runs and runs[-1][0] == T:
                runs[-1][1] += 1
            else:
                runs.append([T, 1])
        assert all(length == 3 for _, length in runs)


class TestScheduleValidator:
    def test_static_support_rejected(self):
        supports = tuple([tuple(range(5))] * 20)
        with pytest.raises(ScheduleError):
            SupportSchedule(n=50, supports=supports, rho=2, beta_tilde=1)

    def test_lag_rho_overlap_rejected(self):
        # moves by 2 < ceil(s/rho)=3 each frame: supports two changes apart overlap
        supports = tuple(tuple(range(2 * t, 2 * t + 5)) for t in range(10))
        with pytest.raises(ScheduleError):
            SupportSchedule(n=100, supports=supports, rho=2, beta_tilde=1)

    def test_ragged_supports_rejected(self):
        with pytest.raises(ScheduleError, match="differ in size"):
            SupportSchedule(n=50, supports=((0, 1, 2), (3, 4)), rho=1, beta_tilde=1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ScheduleError):
            SupportSchedule(n=3, supports=((2, 3),), rho=1, beta_tilde=1)

    def test_empty_supports_rejected(self):
        # no frames, frames with no index, and a flat list are not (alpha, s)
        for supports in [(), ((), (), ()), (0, 1, 2)]:
            with pytest.raises(ScheduleError, match="alpha, s >= 1"):
                SupportSchedule(n=5, supports=supports, rho=1, beta_tilde=1)

    @pytest.mark.parametrize("supports", [((0.0, 2.7), (True, 9.9)), ((0.0, 2.0),),
                                          ((True, False),), (("0", "1"),)])
    def test_non_integer_indices_rejected(self, supports):
        # float and boolean indices are refused, not cast to int
        with pytest.raises(ScheduleError, match="must be integers, got dtype"):
            SupportSchedule(n=50, supports=supports, rho=1, beta_tilde=1)

    def test_supports_stored_as_read_only_index_array(self):
        given_supports = np.array([[4, 1], [2, 3]], dtype=np.int32)
        sched = SupportSchedule(n=5, supports=given_supports, rho=1, beta_tilde=1)
        assert sched.supports.dtype == np.intp and sched.supports.shape == (2, 2)
        assert (sched.alpha, sched.s) == (2, 2)
        assert sched.supports.tolist() == [[1, 4], [2, 3]]
        assert given_supports.tolist() == [[4, 1], [2, 3]]  # the caller's array is not sorted
        with pytest.raises(ValueError):
            sched.supports[0, 0] = 0
        # identity comparison: an array field would make `==` and hash() raise
        assert sched == sched and sched != SupportSchedule(n=5, supports=given_supports,
                                                           rho=1, beta_tilde=1)
        assert hash(MissingNoiseModel(sched)) == hash(MissingNoiseModel(sched))

    def test_beta(self):
        sched = generate_support_schedule(1000, 10, 5, 2, 1)
        assert sched.beta == 4


class TestGenerateDataset:
    def test_missing_channel_invariants(self):
        model = expt1_model()
        sched = generate_support_schedule(500, 50, 5, 2, 1)
        rng = np.random.default_rng(2)
        Y, L, q = draw_with_signal(model, MissingNoiseModel(sched), 50, rng)
        for t in range(50):
            T = list(sched.supports[t])
            off = np.setdiff1d(np.arange(500), T)
            np.testing.assert_array_equal(Y[off, t], L[off, t])
            np.testing.assert_array_equal(Y[T, t], np.zeros(len(T)))

    def test_snr_ratio_bounded_by_q_measured(self):
        model = expt1_model()
        sched = generate_support_schedule(500, 100, 5, 2, 1)
        rng = np.random.default_rng(3)
        Y, L, q = draw_with_signal(model, SddcNoiseModel(0.01, sched), 100, rng)
        W = Y - L
        ratios = np.linalg.norm(W, axis=0) / np.linalg.norm(L, axis=0)
        assert np.all(ratios <= q + 1e-9)
        assert 0.0 < q < 0.5  # order 0.1 for these settings; recorded, not pinned

    def test_sddc_difference_within_support(self):
        model = expt1_model(n=30, r=5)
        model = SignalModel(P=sparse_basis(30, 3), lam=np.array([4.0, 2.0, 1.0]))
        sched = generate_support_schedule(30, 8, 3, 3, 1)
        rng = np.random.default_rng(4)
        Y, L, _ = draw_with_signal(model, SddcNoiseModel(0.2, sched), 8, rng)
        for t in range(8):
            off = np.setdiff1d(np.arange(30), sched.supports[t])
            np.testing.assert_array_equal(Y[off, t], L[off, t])

    def test_reproducible(self):
        model = expt1_model()
        sched = generate_support_schedule(500, 40, 5, 2, 1)
        out = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            out.append(draw_with_signal(model, SddcNoiseModel(0.01, sched), 40, rng))
        np.testing.assert_array_equal(out[0][0], out[1][0])
        np.testing.assert_array_equal(out[0][1], out[1][1])
        assert out[0][2] == out[1][2]

    @pytest.mark.parametrize("channel, n, alpha, s, beta_tilde", [
        ("missing", 200, 2000, 2, 5),  # perfbench/missing_tall.cfg
        ("sddc", 500, 300, 5, 1),      # configs/expt1.cfg
    ])
    def test_peak_allocation_one_block(self, channel, n, alpha, s, beta_tilde):
        # Y is corrupted in place: the peak is one n x alpha array, plus one
        # chunk's corruption draw on the sparse channel, with half an array
        # of room for small temporaries.  A signal copy held next to Y
        # exceeds it.
        model = SignalModel(P=random_basis(n, 5, np.random.default_rng(0)),
                            lam=np.array([100.0, 100.0, 100.0, 0.1, 0.1]))
        sched = generate_support_schedule(n, alpha, s, 2, beta_tilde)
        noise = MissingNoiseModel(sched) if channel == "missing" else SddcNoiseModel(0.01, sched)
        budget = 1.5 * n * alpha * 8
        if channel == "sddc":
            budget += _FRAME_CHUNK * s * n * 8
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            generate_dataset(model, noise, alpha, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget
        if channel == "sddc":
            # a fixed 600 kB over Y, whatever the chunk: 1717 kB measured on
            # numpy 2.4.6 with 16-frame chunks, 2677 kB with 64-frame ones
            assert peak < n * alpha * 8 + 600e3, peak

    @pytest.mark.parametrize("q_gen", [-0.1, np.nan, np.inf])
    def test_q_gen_must_be_finite_non_negative(self, q_gen):
        sched = generate_support_schedule(10, 2, 2, 2, 1)
        with pytest.raises(ParameterError, match="q_gen"):
            SddcNoiseModel(q_gen, sched)

    def test_schedule_too_short(self):
        model = SignalModel(P=sparse_basis(10, 2), lam=np.array([2.0, 1.0]))
        sched = generate_support_schedule(10, 2, 2, 2, 1)
        with pytest.raises(DimensionError):
            generate_dataset(model, MissingNoiseModel(sched), 5, np.random.default_rng(0))


def apply_missing(ell, T) -> np.ndarray:
    """Zero the entries of ell indexed by T."""
    ell = np.asarray(ell, dtype=float)
    y = ell.copy()
    idx = list(T)
    if idx and (min(idx) < 0 or max(idx) >= ell.shape[0]):
        raise DimensionError(f"support index out of range [0, {ell.shape[0]})")
    y[idx] = 0.0
    return y


def apply_sddc(ell, T, Mst) -> np.ndarray:
    """Add the corruption I_T (Mst @ ell); the change is supported within T."""
    ell = np.asarray(ell, dtype=float)
    idx = list(T)
    Mst = np.asarray(Mst, dtype=float)
    if Mst.ndim != 2 or Mst.shape != (len(idx), ell.shape[0]):
        raise DimensionError(
            f"Mst must be {len(idx)}x{ell.shape[0]}, got {Mst.shape}"
        )
    if idx and (min(idx) < 0 or max(idx) >= ell.shape[0]):
        raise DimensionError(f"support index out of range [0, {ell.shape[0]})")
    y = ell.copy()
    if idx:
        y[idx] += Mst @ ell
    return y


class TestChannels:
    def test_missing_empty_set(self):
        ell = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(apply_missing(ell, ()), ell)

    def test_missing_all(self):
        ell = np.array([1.0, 2.0])
        np.testing.assert_array_equal(apply_missing(ell, (0, 1)), np.zeros(2))

    def test_missing_masks(self):
        np.testing.assert_array_equal(
            apply_missing(np.array([1.0, 2.0, 3.0]), (1,)), np.array([1.0, 0.0, 3.0])
        )

    def test_missing_out_of_range(self):
        with pytest.raises(DimensionError):
            apply_missing(np.ones(3), (5,))

    def test_sddc_zero_matrix(self):
        ell = np.array([1.0, -1.0, 2.0])
        np.testing.assert_array_equal(apply_sddc(ell, (0, 2), np.zeros((2, 3))), ell)

    def test_sddc_scalar_case(self):
        c, m = 2.0, 0.25
        ell = np.array([c, 0.0, 0.0])
        M = np.array([[m, 0.0, 0.0]])
        out = apply_sddc(ell, (0,), M)
        np.testing.assert_allclose(out, [c + m * c, 0.0, 0.0])

    def test_sddc_shape_mismatch(self):
        with pytest.raises(DimensionError):
            apply_sddc(np.ones(3), (0, 1), np.zeros((1, 3)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_sddc_difference_supported_on_t(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        ell = rng.standard_normal(n)
        size = int(rng.integers(1, n + 1))
        T = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        M = rng.standard_normal((size, n))
        diff = apply_sddc(ell, T, M) - ell
        off = np.setdiff1d(np.arange(n), T)
        assert np.all(diff[off] == 0.0)


def per_frame_dataset(model, noise, alpha, rng):
    """Reference for generate_dataset: one frame at a time, through the
    per-column channels.  Coefficients come in one (r, alpha) batch, then
    each non-empty frame draws its |T_t| x n corruption matrix in frame
    order (none when q_gen is 0)."""
    L = model.P @ _coefficient_matrix(model, alpha, rng)
    Y = np.empty_like(L)
    q = 0.0
    for t in range(alpha):
        T = tuple(noise.schedule.supports[t])
        if isinstance(noise, MissingNoiseModel):
            Y[:, t] = apply_missing(L[:, t], T)
            W = model.P[list(T), :]
        else:
            shape = (len(T), model.n)
            Mst = rng.normal(0.0, noise.q_gen, size=shape) if T and noise.q_gen > 0 \
                else np.zeros(shape)
            Y[:, t] = apply_sddc(L[:, t], T, Mst)
            W = Mst @ model.P
        if T:
            q = max(q, np.linalg.norm(W, 2))
    return Y, L, q


def assert_matches_per_frame(model, noise, alpha, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    Y, L, q = draw_with_signal(model, noise, alpha, rng)
    Y_ref, L_ref, q_ref = per_frame_dataset(model, noise, alpha, ref_rng)
    assert L.tobytes() == L_ref.tobytes()
    assert Y.tobytes() == Y_ref.tobytes()
    assert q == q_ref
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def make_model(n, r, basis, seed):
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(0.1, 10.0, size=r))[::-1]
    P = sparse_basis(n, r) if basis == "sparse" else random_basis(n, r, rng)
    return SignalModel(P=P, lam=lam)


def make_noise(channel, q_gen, n, supports):
    # rho and beta_tilde as long as the schedule make every motion condition
    # hold, so any support sequence is a valid schedule
    alpha = len(supports)
    schedule = SupportSchedule(n=n, supports=supports, rho=alpha, beta_tilde=alpha)
    return MissingNoiseModel(schedule) if channel == "missing" else SddcNoiseModel(q_gen, schedule)


# Dataset lengths at the sparse channel's chunk edges: one frame, either side
# of the first chunk's end and of the fourth's, and a ragged last chunk.
CHUNK_EDGE_ALPHAS = [1, _FRAME_CHUNK - 1, _FRAME_CHUNK, _FRAME_CHUNK + 1,
                     4 * _FRAME_CHUNK - 1, 4 * _FRAME_CHUNK, 4 * _FRAME_CHUNK + 1, 130]


@st.composite
def dataset_cases(draw):
    n = draw(st.integers(2, 12))
    r = draw(st.integers(1, min(n, 4)))
    s = draw(st.integers(1, n))
    alpha = draw(st.sampled_from(CHUNK_EDGE_ALPHAS))
    extra = draw(st.integers(0, 3))  # schedule frames the dataset does not use
    supports = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=s, max_size=s, unique=True),
                             min_size=alpha + extra, max_size=alpha + extra))
    channel = draw(st.sampled_from(["missing", "sddc"]))
    q_gen = draw(st.sampled_from([0.0, 0.01, 0.7]))
    basis = draw(st.sampled_from(["sparse", "random"]))
    seed = draw(st.integers(0, 2**32 - 1))
    model = make_model(n, r, basis, seed)
    return model, make_noise(channel, q_gen, n, supports), alpha, seed


class TestBatchedAgainstPerFrame:
    """generate_dataset must reproduce the per-frame law bit for bit: the same
    Y, L and q, and the generator left in the same state."""

    @given(dataset_cases())
    @settings(max_examples=150, deadline=None)
    def test_random_schedules(self, case):
        assert_matches_per_frame(*case)

    @pytest.mark.parametrize("alpha", CHUNK_EDGE_ALPHAS)
    @pytest.mark.parametrize("channel", ["missing", "sddc"])
    @pytest.mark.parametrize("basis", ["sparse", "random"])
    # r = 1: every frame's sigma is its Frobenius norm (ids keep r = 3's bare)
    @pytest.mark.parametrize("q_gen, r", [(q, r) for r in (3, 1) for q in (0.0, 0.05, 1e-300)],
                             ids=[f"{q}{'-r1' * (r == 1)}" for r in (3, 1)
                                  for q in (0.0, 0.05, 1e-300)])
    def test_chunk_boundaries(self, alpha, channel, basis, q_gen, r):
        # support sizes 1 to 4 across the alpha values, and two frames more
        # in the schedule than the dataset uses
        n, s = 30, 1 + alpha % 4
        rng = np.random.default_rng(alpha)
        supports = [rng.choice(n, size=s, replace=False) for _ in range(alpha + 2)]
        model = make_model(n, r, basis, seed=7)
        assert_matches_per_frame(model, make_noise(channel, q_gen, n, supports), alpha, 11)

    @pytest.mark.parametrize("channel", ["missing", "sddc"])
    def test_expt1_schedule(self, channel):
        model = expt1_model()
        sched = generate_support_schedule(500, 300, 5, 2, 1, start=497)
        noise = MissingNoiseModel(sched) if channel == "missing" else SddcNoiseModel(0.01, sched)
        assert_matches_per_frame(model, noise, 300, 42)


def brute_force_conditions(supports, n, rho, beta_tilde):
    """Frame-by-frame statement of the schedule conditions."""
    alpha = len(supports)
    run_of = [0] * alpha  # number of support changes before frame t
    for t in range(1, alpha):
        run_of[t] = run_of[t - 1] + (supports[t] != supports[t - 1])
    # 1: no non-empty support on beta_tilde + 1 consecutive frames
    cond1 = not any(
        supports[t] and all(supports[u] == supports[t] for u in range(t, t + beta_tilde + 1))
        for t in range(alpha - beta_tilde)
    )
    # 2: frames rho changes apart have disjoint supports
    cond2 = all(
        not set(supports[t]) & set(supports[u])
        for t in range(alpha) for u in range(t, alpha) if run_of[u] - run_of[t] == rho
    )
    # 3: the pixels that leave at one change never leave at another
    gone = [set(supports[t - 1]) - set(supports[t])
            for t in range(1, alpha) if supports[t] != supports[t - 1]]
    cond3 = all(not gone[i] & gone[j] for i in range(len(gone)) for j in range(i))
    max_cover = max(sum(i in T for T in supports) for i in range(n))
    return {
        "condition1": cond1,
        "condition2": cond2,
        "condition3": cond3,
        "cover_bound": max_cover <= rho * rho * beta_tilde,
        "max_cover": max_cover,
    }


@st.composite
def support_sequences(draw):
    """Sorted-tuple support sequences of one size s with repeats: either runs
    of arbitrary supports, or a wrapped constant-velocity motion."""
    n = draw(st.integers(1, 9))
    s = draw(st.integers(1, n))
    rho = draw(st.integers(1, 3))
    beta_tilde = draw(st.integers(1, 3))
    if draw(st.booleans()):
        runs = draw(st.lists(
            st.tuples(st.frozensets(st.integers(0, n - 1), min_size=s, max_size=s),
                      st.integers(1, 4)),
            min_size=1, max_size=12,
        ))
        supports = [tuple(sorted(T)) for T, length in runs for _ in range(length)]
    else:
        alpha = draw(st.integers(1, 30))
        start = draw(st.integers(0, n - 1))
        run = draw(st.integers(1, 4))
        step = draw(st.integers(1, n))
        supports = [tuple(sorted((start + step * (t // run) + j) % n for j in range(s)))
                    for t in range(alpha)]
    return n, s, rho, beta_tilde, supports


class TestScheduleAgainstBruteForce:
    @given(support_sequences())
    @settings(max_examples=300, deadline=None)
    def test_report_and_validation(self, case):
        n, s, rho, beta_tilde, supports = case
        expected = brute_force_conditions(supports, n, rho, beta_tilde)
        duck = SimpleNamespace(n=n, supports=np.array(supports), rho=rho,
                               beta_tilde=beta_tilde, beta=rho * rho * beta_tilde)
        assert verify_schedule_conditions(duck) == expected

        valid = expected["condition1"] and expected["condition2"] and (
            expected["condition3"] or expected["cover_bound"])
        if not valid:
            with pytest.raises(ScheduleError):
                SupportSchedule(n=n, supports=supports, rho=rho, beta_tilde=beta_tilde)
            return
        sched = SupportSchedule(n=n, supports=supports, rho=rho, beta_tilde=beta_tilde)
        assert sched.supports.shape == (len(supports), s)
        assert sched.supports.tolist() == [list(T) for T in supports]

    @pytest.mark.parametrize("supports, broken", [
        ([(0, 1)] * 3, "condition1"),
        ([(0, 1), (1, 2), (2, 3)], "condition2"),
        ([(0,), (1,), (0,), (1,)], "condition3"),
        ([(0,), (1,), (0,), (1,), (0,)], "cover_bound"),
    ])
    def test_each_condition_can_fail(self, supports, broken):
        report = verify_schedule_conditions(
            SimpleNamespace(n=4, supports=np.array(supports), rho=1, beta_tilde=2, beta=2))
        assert report == brute_force_conditions(supports, 4, 1, 2)
        assert not report[broken]

    def test_error_names_first_bad_frame(self):
        supports = ((0, 1), (2, 3), (0, 1), (2, 7), (2, 7))
        with pytest.raises(ScheduleError, match=r"^frame 3: support index out of range"):
            SupportSchedule(n=5, supports=supports, rho=1, beta_tilde=1)

    def test_unsorted_repeats_normalised(self):
        sched = SupportSchedule(n=6, supports=((3, 1), [1, 3], (5, 4)), rho=1, beta_tilde=2)
        assert sched.supports.tolist() == [[1, 3], [1, 3], [4, 5]]

    @given(st.integers(1, 40), st.integers(1, 60), st.integers(1, 6), st.integers(1, 4),
           st.integers(1, 5), st.integers(0, 39), st.integers(0, 100))
    @settings(max_examples=200, deadline=None)
    def test_generated_schedule_matches_formula(self, n, alpha, s, rho, beta_tilde, start,
                                                first_run):
        assume(start < n and s <= n)
        step = math.ceil(s / rho)
        expected = []
        for t in range(alpha):
            p = start + step * (first_run + t // beta_tilde)
            expected.append(tuple(sorted((p + j) % n for j in range(s))))
        try:
            sched = generate_support_schedule(n, alpha, s, rho, beta_tilde, start=start,
                                              first_run=first_run)
        except ScheduleError as exc:
            with pytest.raises(ScheduleError) as direct:
                SupportSchedule(n=n, supports=expected, rho=rho, beta_tilde=beta_tilde)
            assert str(direct.value) == str(exc)
            return
        assert sched.supports.tolist() == [list(T) for T in expected]


def offset_isin(A, B, n):
    """Reference for _rowwise_isin: one np.isin of the rows offset by i*n,
    which keeps entries in [0, n) of different rows from matching."""
    offset = (np.arange(A.shape[0]) * n)[:, None]
    return np.isin(A + offset, B + offset)


class TestRowwiseIsin:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 30), st.integers(1, 8), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_matches_offset_isin(self, seed, k, s, n):
        rng = np.random.default_rng(seed)
        A, B = (rng.integers(0, n, size=(k, s)).astype(np.intp) for _ in range(2))
        got = _rowwise_isin(A, B)
        assert got.dtype == bool and got.shape == (k, s)
        np.testing.assert_array_equal(got, offset_isin(A, B, n))


class TestBases:
    def test_sparse_basis_small(self):
        np.testing.assert_array_equal(sparse_basis(3, 2), np.eye(3)[:, :2])
        np.testing.assert_array_equal(sparse_basis(5, 5), np.eye(5))
        assert subspace_error(sparse_basis(7, 3), sparse_basis(7, 3)) == 0.0

    def test_sparse_basis_range(self):
        with pytest.raises(DimensionError):
            sparse_basis(3, 4)

    def test_random_basis_orthonormal_and_deterministic(self):
        Q1 = random_basis(10, 4, np.random.default_rng(5))
        Q2 = random_basis(10, 4, np.random.default_rng(5))
        np.testing.assert_array_equal(Q1, Q2)
        assert np.max(np.abs(Q1.T @ Q1 - np.eye(4))) < 1e-10
