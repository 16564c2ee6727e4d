import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddnpca.datagen import _run_starts, generate_support_schedule, random_basis
from ddnpca.errors import BasisError, DimensionError, SpectralGapError, SymmetryError
from ddnpca.linalg import (
    _fix_signs,
    check_basis,
    empirical_covariance,
    sin_theta_bound,
    spectral_norm,
    subspace_error,
    sym_eig,
)


def unpruned_norm(stack):
    """Reference for a stack's spectral norm: every frame decomposed."""
    return float(np.linalg.svd(stack, compute_uv=False).max())


def reference_fix_signs(V):
    """The sign convention as first written: a C-ordered copy, then the
    product with each column's sign."""
    V = V.copy()
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0.0] = 1.0
    return V * signs


def reference_sym_eig(M):
    """sym_eig as first written: eigh of (M + M')/2 always, reversed by a
    fancy index, then sign-fixed."""
    w, V = np.linalg.eigh((M + M.T) / 2.0)
    order = np.arange(M.shape[0] - 1, -1, -1)
    return w[order], reference_fix_signs(V[:, order])


def random_orthonormal(n, k, rng):
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return Q


class TestSymEig:
    def test_identity(self):
        w, _ = sym_eig(np.eye(3))
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0])

    def test_diagonal_sorting_and_permutation(self):
        w, V = sym_eig(np.diag([2.0, 5.0, 1.0]))
        np.testing.assert_allclose(w, [5.0, 2.0, 1.0])
        # eigenvectors are signed identity columns in eigenvalue order
        expected = np.eye(3)[:, [1, 0, 2]]
        np.testing.assert_allclose(np.abs(V), expected, atol=1e-12)

    def test_reconstruction_residual_random(self):
        rng = np.random.default_rng(11)
        lam = np.sort(rng.uniform(-3.0, 7.0, size=8))[::-1]
        V = random_orthonormal(8, 8, rng)
        M = (V * lam) @ V.T
        M = (M + M.T) / 2
        w, E = sym_eig(M)
        recon = (E * w) @ E.T
        scale = max(1.0, spectral_norm(M))
        assert spectral_norm(recon - M) <= 1e-9 * scale
        np.testing.assert_allclose(w, lam, atol=1e-9 * scale)

    def test_orthonormal_output(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((12, 12))
        _, V = sym_eig(A + A.T)
        gram = V.T @ V
        assert np.max(np.abs(gram - np.eye(12))) <= 1e-10

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 6))
        M = A + A.T
        V = _fix_signs(sym_eig(M)[1])
        for j in range(6):
            v = V[:, j]
            assert v[np.argmax(np.abs(v))] > 0
        V2 = _fix_signs(sym_eig(M.copy())[1])
        np.testing.assert_array_equal(V, V2)

    def test_rejects_nonsquare_and_asymmetric(self):
        with pytest.raises(DimensionError):
            sym_eig(np.ones((2, 3)))
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(SymmetryError):
            sym_eig(M)

    def test_weyl_perturbation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            A = rng.standard_normal((n, n))
            A = A + A.T
            H = rng.standard_normal((n, n))
            H = 0.1 * (H + H.T)
            wa, _ = sym_eig(A)
            wb, _ = sym_eig(A + H)
            assert np.max(np.abs(wa - wb)) <= spectral_norm(H) + 1e-12


class TestSymEigBits:
    """sym_eig factorizes an exactly symmetric input as it is and the others
    symmetrized; either way its V, once `_fix_signs` applies the convention,
    has the bits and layout of the reference, which always symmetrizes."""

    @staticmethod
    def assert_same_bits(M):
        w, V = sym_eig(M)
        V = _fix_signs(V)
        ref_w, ref_V = reference_sym_eig(np.asarray(M, dtype=float))
        assert w.tobytes() == ref_w.tobytes()
        assert V.tobytes() == ref_V.tobytes()
        assert V.flags.c_contiguous

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 60),
           st.sampled_from(["gram", "sum", "asymmetric"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_symmetrized_reference(self, seed, n, alpha, kind):
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((n, alpha)) * rng.uniform(0.01, 100.0)
        if kind == "gram":  # as `empirical_covariance` makes it: symmetric bit for bit
            M = (Y @ Y.T) / alpha
            assert M.tobytes() == M.T.copy().tobytes()
        else:
            A = rng.standard_normal((n, n))
            M = A + A.T
            if kind == "asymmetric":  # within the 1e-10 relative tolerance
                M = M + 1e-11 * np.abs(M).max() * rng.uniform(-1.0, 1.0, (n, n))
        self.assert_same_bits(M)

    @pytest.mark.parametrize("layout", ["C", "F", "strided view"])
    def test_layouts_and_signed_zero_pairs(self, layout):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((7, 7))
        M = A + A.T
        M[2, 5], M[5, 2] = 0.0, -0.0  # equal, not the same bits
        M[0, 3] = M[3, 0] = -0.0
        if layout == "F":
            M = np.asfortranarray(M)
        elif layout == "strided view":
            M = np.kron(M, np.ones((2, 2)))[::2, ::2]
        self.assert_same_bits(M)

    @pytest.mark.parametrize("view", ["reversed", "F-ordered", "column slice"])
    def test_fix_signs_matches_copy_then_product(self, view):
        rng = np.random.default_rng(9)
        V = rng.standard_normal((6, 5))
        V[:, 2] = 0.0  # an all-zero column keeps its sign
        V = {"reversed": V[:, ::-1], "F-ordered": np.asfortranarray(V),
             "column slice": V[:, 1:4]}[view]
        got = _fix_signs(V)
        assert got.tobytes() == reference_fix_signs(V).tobytes()
        assert got.flags.c_contiguous


class TestTopEigenvectors:
    """The leading r columns of sym_eig's eigenvectors span the top-r
    eigenspace; the perturbation oracle measures rotation with them."""

    @staticmethod
    def top(M, r):
        return sym_eig(M)[1][:, :r]

    def test_diagonal(self):
        B = self.top(np.diag([3.0, 2.0, 1.0]), 2)
        assert subspace_error(B, np.eye(3)[:, :2]) <= 1e-12

    def test_degenerate_spectrum_orthonormal_only(self):
        B = self.top(np.eye(3), 2)
        check_basis(B, "basis")
        # residual of the invariant-subspace equation for the identity
        assert spectral_norm(np.eye(3) @ B - B) <= 1e-12

    def test_top_one_matches_construction(self):
        rng = np.random.default_rng(21)
        V = random_orthonormal(3, 3, rng)
        M = (V * [10.0, 1.0, 0.1]) @ V.T
        B = self.top((M + M.T) / 2, 1)
        assert subspace_error(B, V[:, :1]) <= 1e-9


class TestSubspaceError:
    def test_self_is_zero(self):
        rng = np.random.default_rng(7)
        P = random_orthonormal(9, 4, rng)
        assert subspace_error(P, P) <= 1e-12

    def test_orthogonal_subspaces(self):
        e = np.eye(3)
        assert subspace_error(e[:, :1], e[:, 1:2]) == 1.0

    def test_45_degrees(self):
        q = np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.0)
        e1 = np.eye(3)[:, :1]
        assert subspace_error(q, e1) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_row_mismatch(self):
        with pytest.raises(DimensionError):
            subspace_error(np.eye(3)[:, :1], np.eye(4)[:, :1])

    def test_bad_bases_rejected(self):
        P = np.eye(4)[:, :2]
        with pytest.raises(BasisError):
            subspace_error(np.ones((4, 2)), P)   # Phat not orthonormal
        with pytest.raises(BasisError):
            subspace_error(np.eye(2, 3), P)      # Phat wider than tall
        with pytest.raises(BasisError):
            subspace_error(P, 2.0 * P)           # P not orthonormal

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bits_of_the_factor_form(self, seed):
        # subspace_error is spectral_norm(deflate(P, Phat)), clamped: the
        # factor form written out gives the same bits
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        Phat = random_orthonormal(n, int(rng.integers(0, n + 1)), rng)
        P = random_orthonormal(n, int(rng.integers(1, n + 1)), rng)
        expected = min(1.0, max(0.0, spectral_norm(P - Phat @ (Phat.T @ P))))
        assert subspace_error(Phat, P) == expected

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rotation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        k1 = int(rng.integers(1, n + 1))
        k2 = int(rng.integers(1, n + 1))
        P1 = random_orthonormal(n, k1, rng)
        P2 = random_orthonormal(n, k2, rng)
        R1 = random_orthonormal(k1, k1, rng)
        R2 = random_orthonormal(k2, k2, rng)
        base = subspace_error(P1, P2)
        assert abs(subspace_error(P1 @ R1, P2 @ R2) - base) <= 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_for_equal_rank(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, n + 1))
        P1 = random_orthonormal(n, k, rng)
        P2 = random_orthonormal(n, k, rng)
        assert abs(subspace_error(P1, P2) - subspace_error(P2, P1)) <= 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_column_signs_do_not_matter(self, seed):
        # so sym_eig's unfixed signs cannot move what theory.sin_theta_gap_check
        # measures with them: a flip in Phat cancels in Phat (Phat' P) bit for
        # bit, and one in P only negates columns of the SVD's input
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        Phat = random_orthonormal(n, int(rng.integers(0, n + 1)), rng)
        P = random_orthonormal(n, int(rng.integers(1, n + 1)), rng)
        base = subspace_error(Phat, P)

        def flip(Q):
            return Q * rng.choice([-1.0, 1.0], Q.shape[1])

        assert subspace_error(flip(Phat), P) == base
        assert abs(subspace_error(Phat, flip(P)) - base) <= 2.3e-16


class TestSpectralNorm:
    def test_diagonal_with_negative(self):
        assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, rel=1e-12)

    def test_zero(self):
        assert spectral_norm(np.zeros((4, 2))) == 0.0

    def test_rank_one(self):
        rng = np.random.default_rng(13)
        u = rng.standard_normal(6)
        u *= 2.0 / np.linalg.norm(u)
        v = rng.standard_normal(4)
        v *= 3.0 / np.linalg.norm(v)
        assert spectral_norm(np.outer(u, v)) == pytest.approx(6.0, rel=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stack_is_max_of_per_matrix_norms(self, seed):
        rng = np.random.default_rng(seed)
        batch = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(1, 3))))
        m, k = (int(d) for d in rng.integers(1, 8, size=2))
        stack = rng.standard_normal(batch + (m, k)) * rng.uniform(0.01, 100.0)
        expected = max(np.linalg.norm(M, 2) for M in stack.reshape(-1, m, k))
        assert spectral_norm(stack) == expected

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matrix_unchanged(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal(tuple(int(d) for d in rng.integers(1, 9, size=2)))
        value = spectral_norm(M)
        assert type(value) is float
        assert value == np.linalg.norm(M, 2)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-300, 1e-160, 1e150]))
    @settings(max_examples=200, deadline=None)
    def test_pruned_stack_equals_unpruned(self, seed, scale):
        # rank-1 frames have sigma equal to their Frobenius norm, and a
        # duplicated frame ties with its copy; the scales are where unscaled
        # Frobenius norms underflow or overflow
        rng = np.random.default_rng(seed)
        k, m, p = (int(d) for d in rng.integers(1, 9, size=3))
        stack = rng.standard_normal((k, m, p))
        for i in np.flatnonzero(rng.random(k) < 0.3):
            stack[i] = np.outer(rng.standard_normal(m), rng.standard_normal(p))
        for i in np.flatnonzero(rng.random(k) < 0.3):
            stack[i] = stack[rng.integers(k)]
        stack *= scale
        assert spectral_norm(stack) == unpruned_norm(stack)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_seed_frames_prune_no_less_than_the_top_frame(self, seed, k):
        # the largest sigma of the top-Frobenius frames is at least the top
        # frame's, so no frame survives that the top frame's sigma would prune
        rng = np.random.default_rng(seed)
        stack = rng.standard_normal((k, 5, 5)) * rng.uniform(0.1, 10.0, (k, 1, 1))
        scale = np.abs(stack).max()
        fro = np.linalg.norm(stack / scale, axis=(1, 2))
        top = np.linalg.svd(stack[fro.argmax()], compute_uv=False).max()
        single_seed_kept = int(np.count_nonzero(fro >= (1.0 - 1e-10) * (top / scale)))
        decomposed = []
        real_svd = np.linalg.svd
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(np.linalg, "svd",
                                lambda a, **kw: decomposed.append(len(a)) or real_svd(a, **kw))
            assert spectral_norm(stack) == unpruned_norm(stack)
        assert decomposed[0] == min(k, 8)  # the seed frames
        assert 1 <= decomposed[1] <= single_seed_kept

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e-160, 1e150])
    @pytest.mark.parametrize("case", ["unit rank-1", "one frame repeated", "single frame",
                                      "zeros", "missing channel"])
    def test_pinned_stacks_equal_unpruned(self, case, scale):
        rng = np.random.default_rng(17)
        if case == "unit rank-1":  # every frame's sigma and Frobenius norm are 1
            u = rng.standard_normal((40, 4))
            v = rng.standard_normal((40, 3))
            stack = (u / np.linalg.norm(u, axis=1, keepdims=True))[:, :, None] \
                * (v / np.linalg.norm(v, axis=1, keepdims=True))[:, None, :]
        elif case == "one frame repeated":
            stack = np.repeat(rng.standard_normal((1, 5, 5)), 30, axis=0)
        elif case == "single frame":
            stack = rng.standard_normal((1, 3, 6))
        elif case == "zeros":
            stack = np.zeros((7, 2, 5))
        else:  # the missing channel's q: rows of a basis on each run of missing_tall
            P = random_basis(200, 5, rng)
            S = generate_support_schedule(200, 2000, 2, 2, 5).supports
            stack = P[S[_run_starts(S)]]
            assert stack.shape == (400, 2, 5)
        stack = stack * scale
        assert spectral_norm(stack) == unpruned_norm(stack)

    @pytest.mark.parametrize("shape", [(0, 3, 2), (4, 0, 2), (2, 3, 0), (0, 0)])
    def test_empty_is_zero(self, shape):
        assert spectral_norm(np.zeros(shape)) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(3, 2), (2, 3, 2), (2, 1, 3, 2)])
    def test_non_finite_rejected(self, bad, shape):
        M = np.ones(shape)
        M.flat[-1] = bad
        with pytest.raises(DimensionError):
            spectral_norm(M)

    def test_vector_rejected(self):
        with pytest.raises(DimensionError):
            spectral_norm(np.ones(3))


class TestEmpiricalCovariance:
    def test_single_column(self):
        e1 = np.eye(3)[:, :1]
        np.testing.assert_allclose(empirical_covariance(e1), np.outer(e1, e1))

    def test_averaging_opposite_columns(self):
        v = np.array([1.0, -2.0, 0.5])
        Y = np.column_stack([v, -v])
        np.testing.assert_allclose(empirical_covariance(Y), np.outer(v, v))

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(17)
        lam = np.array([4.0, 2.0, 1.0])
        A = (2.0 * rng.random((3, 10_000)) - 1.0) * np.sqrt(3.0 * lam)[:, None]
        w, _ = sym_eig(empirical_covariance(A))
        assert np.all(np.abs(w - lam) <= 0.05 * lam)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            empirical_covariance(np.zeros((3, 0)))


class TestSinThetaBound:
    def test_no_perturbation(self):
        assert sin_theta_bound(1.0, 0.0, 0.0) == 0.0

    def test_direct_formula(self):
        assert sin_theta_bound(1.0, 0.2, 0.4) == pytest.approx(1.0, rel=1e-12)

    def test_gap_error(self):
        with pytest.raises(SpectralGapError):
            sin_theta_bound(1.0, 0.5, 0.6)

    def test_oracle_spot_sweep(self):
        # measured rotation of the top eigenspace never exceeds the bound
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(3, 21))
            r = int(rng.integers(1, n))
            Q = random_orthonormal(n, n, rng)
            lam = np.concatenate([
                np.sort(rng.uniform(1.5, 2.5, r))[::-1],
                np.sort(rng.uniform(0.0, 0.5, n - r))[::-1],
            ])
            A = (Q * lam) @ Q.T
            A = (A + A.T) / 2
            B = rng.standard_normal((n, n))
            H = 0.15 * (B + B.T) / (2 * np.sqrt(n))
            try:
                b = sin_theta_bound(lam[r - 1], lam[r], spectral_norm(H))
            except SpectralGapError:
                continue
            checked += 1
            measured = subspace_error(sym_eig(A + H)[1][:, :r], Q[:, :r])
            assert measured <= b + 1e-9
        assert checked >= 30


class TestCheckBasis:
    def test_accepts_orthonormal(self):
        rng = np.random.default_rng(31)
        check_basis(random_orthonormal(8, 3, rng), "basis")

    def test_rejects_skewed(self):
        with pytest.raises(BasisError):
            check_basis(np.array([[1.0, 0.5], [0.0, 1.0]]), "basis")

    def test_rejects_wide(self):
        with pytest.raises(BasisError):
            check_basis(np.ones((2, 3)), "basis")
