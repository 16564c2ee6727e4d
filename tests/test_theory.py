import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ddnpca import bench
from ddnpca.datagen import SupportSchedule, generate_support_schedule
from ddnpca.errors import DimensionError, ParameterError, PsdError, ScheduleError, SpectralGapError
from ddnpca.theory import (
    BoundInputs,
    alpha0_cluster,
    alpha0_simple,
    beta_frac_cluster,
    beta_frac_simple,
    sin_theta_gap_check,
    verify_m2_bound,
)

# Regression constants frozen from scripts/freeze_theory_constants.py, which
# re-evaluates the formulas with independent scalar arithmetic.
ALPHA0_SIMPLE_REF = 4.9219696139503755e19    # n=500 r=5 f=1000 q=0.01 eta=3 zeta=0.002
BETA_SIMPLE_REF = 5.976219512195123e-06      # r=5 f=1000 q=0.001 zeta=0.002 (q*f = 1)
ALPHA0_CLUSTER_REF = 1.9887504843802765e22   # n=500 r=5 f=1000 q=0.01 zeta=4e-7 g+=1 vt=2
BETA_CLUSTER_REF = 3.8946224546497563e-10    # r=5 r_k=2 f=1000 q=0.01 zeta=4e-7 g+=1 chi+=0.001


class TestAlpha0Simple:
    def test_frozen_value(self):
        inp = BoundInputs(n=500, r=5, f=1000.0, q=0.01, eta=3.0, zeta=0.002)
        assert alpha0_simple(inp) == pytest.approx(ALPHA0_SIMPLE_REF, rel=1e-12)

    def test_doubling_f_quadruples(self):
        a = alpha0_simple(BoundInputs(n=100, r=3, f=50.0, q=0.5, eta=3.0, zeta=0.001))
        b = alpha0_simple(BoundInputs(n=100, r=3, f=100.0, q=0.5, eta=3.0, zeta=0.001))
        assert b == 4.0 * a

    def test_q_zero_reduces_to_f(self):
        a = alpha0_simple(BoundInputs(n=100, r=3, f=50.0, q=0.0, eta=3.0, zeta=0.001))
        b = alpha0_simple(BoundInputs(n=100, r=3, f=50.0, q=1e-9, eta=3.0, zeta=0.001))
        assert a == pytest.approx(b, rel=1e-12)

    def test_invariant_named_in_error(self):
        with pytest.raises(ParameterError, match=r"r\*zeta"):
            alpha0_simple(BoundInputs(n=100, r=5, f=10.0, q=0.1, eta=3.0, zeta=0.1))

    def test_monotone_sweeps(self):
        base = dict(n=200, r=4, f=100.0, q=0.3, eta=3.0, zeta=0.002)
        a0 = alpha0_simple(BoundInputs(**base))
        assert alpha0_simple(BoundInputs(**{**base, "n": 400})) >= a0
        assert alpha0_simple(BoundInputs(**{**base, "f": 150.0})) >= a0
        assert alpha0_simple(BoundInputs(**{**base, "eta": 4.0})) >= a0
        assert alpha0_simple(BoundInputs(**{**base, "q": 0.6})) >= a0
        assert alpha0_simple(BoundInputs(**{**base, "zeta": 0.001})) >= a0


class TestBetaFracSimple:
    def test_frozen_value(self):
        inp = BoundInputs(n=500, r=5, f=1000.0, q=0.001, eta=3.0, zeta=0.002)
        assert beta_frac_simple(inp) == pytest.approx(BETA_SIMPLE_REF, rel=1e-12)

    def test_decreasing_in_q(self):
        vals = [
            beta_frac_simple(BoundInputs(n=100, r=2, f=50.0, q=q, eta=3.0, zeta=0.005))
            for q in (0.01, 0.02, 0.05, 0.2, 0.8)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_below_one_when_qf_large(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            r = int(rng.integers(1, 8))
            zeta = 0.01 / r * rng.uniform(0.1, 1.0)
            f = rng.uniform(1.0, 1e4)
            q = rng.uniform(0.01 / f if f > 0.01 else 0.0, 1.0)
            if q * f < 0.01:
                continue
            val = beta_frac_simple(BoundInputs(n=50, r=r, f=f, q=q, eta=3.0, zeta=zeta))
            assert val < 1.0

    def test_q_zero_unconstrained(self):
        inp = BoundInputs(n=100, r=2, f=50.0, q=0.0, eta=3.0, zeta=0.005)
        assert beta_frac_simple(inp) == math.inf


class TestAlpha0Cluster:
    def test_frozen_value(self):
        inp = BoundInputs(
            n=500, r=5, f=1000.0, q=0.01, eta=3.0, zeta=4e-7,
            g_plus=1.0, chi_plus=0.001, vartheta=2,
        )
        assert alpha0_cluster(inp) == pytest.approx(ALPHA0_CLUSTER_REF, rel=1e-12)

    def test_peak_is_g_plus_when_q_small(self):
        # with q <= 1/sqrt(f) and r^2*zeta*f <= 0.01 the max term is g+^2
        inp = BoundInputs(
            n=500, r=5, f=100.0, q=0.01, eta=3.0, zeta=1e-7,
            g_plus=3.0, chi_plus=0.1, vartheta=2,
        )
        got = alpha0_cluster(inp)
        rz = 5 * 1e-7
        logs = 11.0 * math.log(500) + math.log(2)
        expected = (32 * 16 / 0.01**2) * 9.0 * (25 * logs) / rz**2 * 3.0**2
        assert got == pytest.approx(expected, rel=1e-12)

    def test_single_cluster_ratio_sixteen(self):
        # vartheta=1 and g+=f: same peak, log term identical, constants differ by 16
        common = dict(n=300, r=3, f=40.0, q=0.05, eta=3.0, zeta=2e-7)
        a_simple = alpha0_simple(BoundInputs(**common))
        a_cluster = alpha0_cluster(BoundInputs(**common, g_plus=40.0, chi_plus=0.0, vartheta=1))
        assert a_cluster == pytest.approx(16.0 * a_simple, rel=1e-12)

    def test_invariants_named(self):
        with pytest.raises(ParameterError, match=r"r\^2\*zeta <= 0.0001"):
            alpha0_cluster(BoundInputs(n=100, r=5, f=10.0, q=0.1, eta=3.0, zeta=1e-4, g_plus=2.0))
        with pytest.raises(ParameterError, match=r"r\^2\*zeta\*f"):
            alpha0_cluster(BoundInputs(n=100, r=5, f=1000.0, q=0.1, eta=3.0, zeta=3.9e-6, g_plus=2.0))
        with pytest.raises(ParameterError, match="chi_plus"):
            alpha0_cluster(BoundInputs(
                n=100, r=2, f=10.0, q=0.1, eta=3.0, zeta=1e-6, g_plus=2.0, chi_plus=0.9,
            ))

    def test_monotone_sweeps(self):
        base = dict(n=200, r=3, f=50.0, q=0.05, eta=3.0, zeta=2e-7, g_plus=2.0,
                    chi_plus=0.05, vartheta=2)
        a0 = alpha0_cluster(BoundInputs(**base))
        assert alpha0_cluster(BoundInputs(**{**base, "n": 500})) >= a0
        assert alpha0_cluster(BoundInputs(**{**base, "f": 80.0})) >= a0
        assert alpha0_cluster(BoundInputs(**{**base, "q": 0.1})) >= a0
        assert alpha0_cluster(BoundInputs(**{**base, "eta": 5.0})) >= a0
        assert alpha0_cluster(BoundInputs(**{**base, "zeta": 1e-7})) >= a0


class TestBetaFracCluster:
    def test_frozen_value(self):
        inp = BoundInputs(
            n=500, r=5, f=1000.0, q=0.01, eta=3.0, zeta=4e-7,
            r_k=2, g_plus=1.0, chi_plus=0.001,
        )
        assert beta_frac_cluster(inp) == pytest.approx(BETA_CLUSTER_REF, rel=1e-12)

    def test_reduces_to_simple_form(self):
        common = dict(n=100, r=3, f=60.0, q=0.02, eta=3.0, zeta=0.003)
        simple = beta_frac_simple(BoundInputs(**common))
        cluster = beta_frac_cluster(BoundInputs(**common, g_plus=60.0, chi_plus=0.0, r_k=3))
        assert cluster == pytest.approx(simple, rel=1e-12)

    def test_worked_comparison_cluster_looser(self):
        # chi+=0.2, vartheta=2, r_k=r/2, g+=3 against f=100: the cluster-side
        # budget must be strictly larger
        simple = beta_frac_simple(BoundInputs(n=100, r=2, f=100.0, q=0.01, eta=3.0, zeta=0.005))
        cluster = beta_frac_cluster(BoundInputs(
            n=100, r=2, f=100.0, q=0.01, eta=3.0, zeta=0.005,
            r_k=1, g_plus=3.0, chi_plus=0.2, vartheta=2,
        ))
        assert simple == pytest.approx(5.976219512195123e-06, rel=1e-12)
        assert cluster == pytest.approx(0.0010570799457994583, rel=1e-12)
        assert cluster > simple

    def test_chi_cap(self):
        with pytest.raises(ParameterError, match="chi_plus < 1 - r\\*zeta"):
            beta_frac_cluster(BoundInputs(
                n=100, r=2, f=10.0, q=0.1, eta=3.0, zeta=0.005, g_plus=2.0, chi_plus=0.999,
            ))

    def test_q_zero_unconstrained(self):
        inp = BoundInputs(n=100, r=2, f=10.0, q=0.0, eta=3.0, zeta=0.005, g_plus=2.0)
        assert beta_frac_cluster(inp) == math.inf


class TestVerifyM2Bound:
    def test_disjoint_identity_blocks(self):
        supports = tuple((2 * t, 2 * t + 1) for t in range(5))
        sched = SupportSchedule(n=10, supports=supports, rho=1, beta_tilde=1)
        A_list = [np.eye(2)] * 5
        lhs, rhs, holds = verify_m2_bound(sched, A_list)
        assert lhs == pytest.approx(1.0, rel=1e-12)
        assert rhs == sched.beta
        assert holds

    @pytest.mark.parametrize("n, alpha, s, rho, beta_tilde, start, bound", [
        (500, 300, 5, 2, 1, 0, 4.0),      # the verify command's setting
        (500, 300, 5, 2, 1, 7, 4.0),
        (500, 300, 5, 2, 1, 497, 4.0),    # wraps at once
        (500, 300, 5, 2, 1, 499, 4.0),
        (200, 2000, 2, 2, 5, 0, 20.0),    # missing_tall's schedule
    ])
    def test_identity_frames_attain_the_bound(self, n, alpha, s, rho, beta_tilde, start, bound):
        # with identity frames the sum is diagonal, entry i counting the frames
        # whose support holds i; on these schedules the wrapping support
        # passes some i rho = 2 times, each time for rho runs of beta_tilde
        # frames: rho^2 * beta_tilde in all
        sched = generate_support_schedule(n, alpha, s, rho, beta_tilde, start=start)
        lhs, rhs, holds = verify_m2_bound(sched, np.broadcast_to(np.eye(s), (alpha, s, s)))
        assert lhs == rhs == bound
        assert holds

    def test_wrapped_reference_schedule_random_psd(self):
        rng = np.random.default_rng(1)
        sched = generate_support_schedule(500, 300, 5, 2, 1)
        for _ in range(3):
            A_list = []
            for T in sched.supports:
                B = rng.standard_normal((len(T), len(T)))
                A_list.append(B.T @ B)
            lhs, rhs, holds = verify_m2_bound(sched, A_list)
            assert holds, (lhs, rhs)

    def test_static_support_would_violate_but_is_rejected(self):
        alpha, s = 20, 3
        supports = tuple([tuple(range(s))] * alpha)
        # assembled by hand: the sum is alpha * I on the static support, so
        # the bound rho^2*beta_tilde = 4 would be exceeded by a factor of 5
        S = np.zeros((10, 10))
        for _ in range(alpha):
            S[:s, :s] += np.eye(s)
        assert np.linalg.norm(S, 2) == pytest.approx(alpha, rel=1e-12)
        with pytest.raises(ScheduleError):
            SupportSchedule(n=10, supports=supports, rho=2, beta_tilde=1)

    def test_psd_error(self):
        sched = SupportSchedule(n=6, supports=((0, 1), (3, 4)), rho=1, beta_tilde=1)
        bad = [np.eye(2), np.diag([1.0, -0.5])]
        with pytest.raises(PsdError):
            verify_m2_bound(sched, bad)

    def test_dimension_error(self):
        sched = SupportSchedule(n=6, supports=((0, 1), (3, 4)), rho=1, beta_tilde=1)
        with pytest.raises(DimensionError):
            verify_m2_bound(sched, [np.eye(2), np.eye(3)])
        with pytest.raises(DimensionError):
            verify_m2_bound(sched, [np.eye(2)])

        with pytest.raises(DimensionError):
            verify_m2_bound(sched, np.zeros((2, 3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        sched = generate_support_schedule(10, 4, 2, 1, 1)
        A = np.stack([np.eye(2)] * 4)
        A[2, 0, 1] = bad
        with pytest.raises(DimensionError, match="non-finite"):
            verify_m2_bound(sched, A)


def per_frame_m2_bound(schedule, A_list):
    """Reference for verify_m2_bound: the oracle one frame at a time, each
    frame checked, decomposed and added into the sum on its own."""
    S = np.zeros((schedule.n, schedule.n))
    max_norm = 0.0
    for t, (T, A) in enumerate(zip(schedule.supports, A_list)):
        A = np.asarray(A, dtype=float)
        if np.max(np.abs(A - A.T)) > 1e-9 * max(1.0, np.max(np.abs(A))):
            raise PsdError(f"frame {t}: matrix is not symmetric")
        w = np.linalg.eigvalsh((A + A.T) / 2.0)
        if w[0] < -1e-9:
            raise PsdError(f"frame {t}: negative eigenvalue {w[0]:.3e}")
        idx = list(T)
        S[np.ix_(idx, idx)] += A
        max_norm = max(max_norm, float(w[-1]))
    ws = np.linalg.eigvalsh((S + S.T) / 2.0)
    lhs = float(max(abs(ws[0]), abs(ws[-1])))
    rhs = schedule.beta * max_norm
    return lhs, rhs, lhs <= rhs + 1e-9


def per_frame_sweep(draws, seed, n, alpha, s, rho, beta_tilde):
    """Reference for block_sum_bound_sweep: one (s, s) draw per frame.
    Returns each draw's (lhs, rhs, holds) and the generator."""
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(draws):
        start = int(rng.integers(0, n))
        schedule = generate_support_schedule(n, alpha, s, rho, beta_tilde, start=start)
        A_list = []
        for T in schedule.supports:
            B = rng.standard_normal((len(T), len(T)))
            A_list.append(B.T @ B)
        results.append(per_frame_m2_bound(schedule, A_list))
    return results, rng


def assert_sweep_matches_per_frame(monkeypatch, draws, seed, n, alpha, s, rho, beta_tilde):
    made, seen, buffers = [], [], []
    default_rng, oracle = np.random.default_rng, bench.verify_m2_bound

    def capture_rng(*args, **kwargs):
        made.append(default_rng(*args, **kwargs))
        return made[-1]

    def record(schedule, A, **kwargs):
        buffers.append(kwargs.get("out"))
        # one (n, n) buffer for the whole sweep
        assert isinstance(buffers[0], np.ndarray) and buffers[0].shape == (n, n)
        assert buffers[-1] is buffers[0]
        seen.append(oracle(schedule, A, **kwargs))
        return seen[-1]

    monkeypatch.setattr(bench.np.random, "default_rng", capture_rng)
    monkeypatch.setattr(bench, "verify_m2_bound", record)
    violations, worst = bench.block_sum_bound_sweep(
        draws=draws, seed=seed, n=n, alpha=alpha, s=s, rho=rho, beta_tilde=beta_tilde)
    monkeypatch.undo()
    expected, ref_rng = per_frame_sweep(draws, seed, n, alpha, s, rho, beta_tilde)
    assert seen == expected  # floats compared exactly
    assert violations == sum(not holds for _, _, holds in expected)
    assert len(made) == 1 and made[0].bit_generator.state == ref_rng.bit_generator.state


class TestM2BoundAgainstPerFrame:
    """The stacked oracle and the sweep's one-draw-per-block stream must give
    the per-frame results bit for bit."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 50),
           st.integers(1, 5), st.integers(1, 3), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_random_sweeps(self, seed, n, alpha, s, rho, beta_tilde):
        assume(s <= n)
        try:
            generate_support_schedule(n, alpha, s, rho, beta_tilde)
        except ScheduleError:
            assume(False)  # wrapped motion too dense for the cover bound
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_sweep_matches_per_frame(monkeypatch, 3, seed, n, alpha, s, rho, beta_tilde)

    @pytest.mark.parametrize("n, alpha, s, rho, beta_tilde", [
        (500, 300, 5, 2, 1),   # the verify command's setting
        (30, 40, 1, 1, 2),     # s = 1
        (12, 25, 3, 3, 2),     # step 1, wraps twice
        (9, 12, 4, 2, 3),      # runs of three frames
    ])
    def test_pinned_wrapped_schedules(self, monkeypatch, n, alpha, s, rho, beta_tilde):
        assert_sweep_matches_per_frame(monkeypatch, 4, 2024, n, alpha, s, rho, beta_tilde)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_frames_asymmetric_within_tolerance(self, seed, s, one_frame):
        # an asymmetric frame makes the sum asymmetric, which is then
        # symmetrized as the per-frame reference always does
        sched = generate_support_schedule(60, 40, s, 2, 1, start=seed % 60)
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((40, s, s))
        A = np.swapaxes(B, 1, 2) @ B
        frames = [int(rng.integers(40))] if one_frame else range(40)
        for t in frames:
            A[t] += 1e-10 * max(1.0, np.abs(A[t]).max()) * rng.uniform(-1.0, 1.0, (s, s))
        assert verify_m2_bound(sched, A) == per_frame_m2_bound(sched, list(A))

    def test_first_bad_frame_named(self):
        sched = generate_support_schedule(40, 12, 3, 1, 1)
        rng = np.random.default_rng(5)
        B = rng.standard_normal((12, 3, 3))
        A = np.swapaxes(B, 1, 2) @ B
        negative = A.copy()
        negative[9] = np.diag([1.0, -0.5, 2.0])
        asymmetric = negative.copy()
        asymmetric[4, 0, 2] += 1e-3
        for stack, frame in ((negative, 9), (asymmetric, 4)):
            with pytest.raises(PsdError) as ref:
                per_frame_m2_bound(sched, list(stack))
            with pytest.raises(PsdError, match=f"^frame {frame}: ") as got:
                verify_m2_bound(sched, stack)
            assert str(got.value) == str(ref.value)


def read_only(a):
    a.setflags(write=False)
    return a


class TestM2BoundOut:
    """A caller's buffer changes where the sum is built, never the result."""

    @staticmethod
    def draw(seed, n, asymmetric):
        sched = generate_support_schedule(n, 40, 3, 2, 1, start=seed % n)
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((40, 3, 3))
        A = np.swapaxes(B, 1, 2) @ B
        if asymmetric:  # within 1e-9: the sum is symmetrized
            A += 1e-10 * np.abs(A).max(axis=(1, 2), keepdims=True) * rng.uniform(-1.0, 1.0, A.shape)
        return sched, A

    @pytest.mark.parametrize("asymmetric", [False, True], ids=["exact", "symmetrized"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("buffer", ["clean", "nan", "leftover"])
    def test_result_equals_fresh_sum(self, buffer, seed, asymmetric):
        sched, A = self.draw(seed, 60, asymmetric)
        expected = verify_m2_bound(sched, A)
        if buffer == "clean":
            out = np.zeros((60, 60))
        elif buffer == "nan":
            out = np.full((60, 60), np.nan)
        else:  # what another schedule's draw left behind
            out = np.empty((60, 60))
            verify_m2_bound(*self.draw(seed + 100, 60, not asymmetric), out=out)
        assert verify_m2_bound(sched, A, out=out) == expected
        assert verify_m2_bound(sched, A, out=out) == expected  # reused as it was left

    @pytest.mark.parametrize("out", [
        np.zeros((60, 61)),
        np.zeros((61, 61)),
        np.zeros(3600),
        np.zeros((60, 60), dtype=np.float32),
        np.zeros((60, 60), dtype=np.int64),
        np.zeros((60, 60)).tolist(),
        read_only(np.zeros((60, 60))),
    ], ids=["columns", "rows", "flat", "float32", "int64", "list", "read-only"])
    def test_unusable_buffer_rejected(self, out):
        sched, A = self.draw(0, 60, False)
        with pytest.raises(DimensionError, match="out must be"):
            verify_m2_bound(sched, A, out=out)


class TestSinThetaGapCheck:
    def test_zero_perturbation(self):
        A = np.diag([3.0, 2.0, 1.0])
        bound, measured = sin_theta_gap_check(A, np.zeros((3, 3)), 2)
        assert bound == 0.0 and measured == 0.0

    def test_three_by_three_coupling(self):
        A = np.diag([2.0, 1.0, 0.0])
        H = np.zeros((3, 3))
        H[0, 2] = H[2, 0] = 0.1
        bound, measured = sin_theta_gap_check(A, H, 2)
        assert bound == pytest.approx(0.1 / (1.0 - 0.0 - 0.1), rel=1e-12)
        assert measured <= bound + 1e-9

    def test_weak_coupling_nearly_attains_the_bound(self):
        # the top eigenvector of diag(1, 0) + eps [[0, 1], [1, 0]] turns by
        # arctan(2 eps)/2, about eps, against a bound of eps/(1 - eps)
        H = 1e-3 * np.array([[0.0, 1.0], [1.0, 0.0]])
        bound, measured = sin_theta_gap_check(np.diag([1.0, 0.0]), H, 1)
        assert measured <= bound
        assert measured / bound >= 0.99

    def test_r_out_of_range(self):
        # a top-r eigenspace with a complement needs 1 <= r < n
        for r in (0, 3, 4):
            with pytest.raises(DimensionError):
                sin_theta_gap_check(np.diag([3.0, 2.0, 1.0]), np.zeros((3, 3)), r)

    def test_gap_error_propagates(self):
        A = np.diag([1.0, 0.99, 0.5])
        H = np.eye(3) * 0.5
        with pytest.raises(SpectralGapError):
            sin_theta_gap_check(A, H, 2)

    def test_random_sweep(self):
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(100):
            n = int(rng.integers(3, 21))
            r = int(rng.integers(1, n))
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            lam = np.concatenate([
                np.sort(rng.uniform(1.5, 2.5, r))[::-1],
                np.sort(rng.uniform(0.0, 0.6, n - r))[::-1],
            ])
            A = (Q * lam) @ Q.T
            B = rng.standard_normal((n, n))
            H = rng.uniform(0.02, 0.3) * (B + B.T) / (2 * np.sqrt(n))
            try:
                bound, measured = sin_theta_gap_check((A + A.T) / 2, H, r)
            except SpectralGapError:
                continue
            checked += 1
            assert measured <= bound + 1e-9
        assert checked >= 50


class TestBoundInputs:
    def test_r_k_defaults_to_r(self):
        inp = BoundInputs(n=10, r=4, f=2.0, q=0.1, eta=3.0, zeta=1e-4)
        assert inp.r_k == 4

    def test_validation(self):
        with pytest.raises(ParameterError):
            BoundInputs(n=10, r=4, f=0.5, q=0.1, eta=3.0, zeta=1e-4)
        with pytest.raises(ParameterError):
            BoundInputs(n=10, r=4, f=2.0, q=-0.1, eta=3.0, zeta=1e-4)
        with pytest.raises(ParameterError):
            BoundInputs(n=10, r=4, f=2.0, q=0.1, eta=3.0, zeta=0.0)
        with pytest.raises(ParameterError):
            BoundInputs(n=10, r=4, f=2.0, q=0.1, eta=3.0, zeta=1e-4, r_k=5)

    @pytest.mark.parametrize("key", ["f", "q", "eta", "zeta", "chi_plus"])
    def test_nan_rejected(self, key):
        # a NaN passes every `x < bound` test, and max() then skips it
        base = dict(n=10, r=4, f=2.0, q=0.1, eta=3.0, zeta=1e-4)
        with pytest.raises(ParameterError, match=key):
            BoundInputs(**{**base, key: math.nan})
