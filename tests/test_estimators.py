import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ddnpca.estimators as estimators
import estimator_reference as ref

from ddnpca.errors import (
    BasisError,
    DimensionError,
    EmptySubspaceError,
    InsufficientDataError,
    NoClusterError,
    NonTerminationError,
    OrderError,
    ParameterError,
)
from ddnpca.datagen import (
    SddcNoiseModel,
    SignalModel,
    generate_dataset,
    generate_support_schedule,
    random_basis,
    sparse_basis,
)
from ddnpca.estimators import (
    BlockEig,
    BlockMoment,
    block_eig,
    cluster_evd,
    deflate,
    reduce_block,
    simple_evd,
)
from ddnpca.linalg import _fix_signs, empirical_covariance, subspace_error, sym_eig
from ddnpca.spectrum import detect_cluster, g_partition


def random_orthonormal(n, k, rng):
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return Q


def exact_covariance_block(V, lam, alpha=None):
    """Columns whose empirical covariance is exactly V diag(lam) V'."""
    n = V.shape[0]
    alpha = alpha or n
    assert alpha == n and V.shape[1] == n
    return (V * np.sqrt(alpha * np.asarray(lam)))


class TestSimpleEvd:
    def test_noiseless_rank_one(self):
        e1 = np.eye(4)[:, :1]
        Y = e1 @ np.array([[3.0, -2.0, 1.0, 4.0, -3.0]])  # eigenvalue ~ 7.8
        P = simple_evd(block_eig(Y), 0.95)
        assert P.shape == (4, 1)
        assert subspace_error(P, e1) <= 1e-9

    def test_thresh_above_top_eigenvalue(self):
        Y = np.eye(3)[:, :1] * 0.1
        with pytest.raises(EmptySubspaceError):
            simple_evd(block_eig(Y), 10.0)

    def test_retention_is_strict(self):
        # eigenvalues exactly (2, 1, 0); thresh at 1 keeps only the 2
        Y = np.diag([np.sqrt(2.0) * np.sqrt(3), np.sqrt(3.0), 0.0])[:, :3]
        C = empirical_covariance(Y)
        w, _ = sym_eig(C)
        P = simple_evd(block_eig(Y), float(w[1]))
        assert P.shape[1] == 1

    def test_descending_order(self):
        rng = np.random.default_rng(0)
        V = random_orthonormal(5, 5, rng)
        Y = exact_covariance_block(V, [9.0, 5.0, 2.0, 1e-12, 1e-12])
        P = simple_evd(block_eig(Y), 0.5)
        assert P.shape[1] == 3
        assert subspace_error(P, V[:, :3]) <= 1e-8


class TestDeflate:
    """deflate(Y, G) applies the projector I - GG' to Y in factor form."""

    def test_empty_gives_identity(self):
        Y = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(deflate(Y, None), Y)
        np.testing.assert_array_equal(deflate(Y, np.zeros((4, 0))), Y)

    def test_e1_in_2d(self):
        Y = np.array([[3.0, -1.0, 2.0], [5.0, 4.0, -2.0]])
        np.testing.assert_allclose(deflate(Y, np.eye(2)[:, :1]),
                                   np.diag([0.0, 1.0]) @ Y, atol=1e-15)

    def test_projector_properties(self):
        rng = np.random.default_rng(1)
        G = random_orthonormal(9, 3, rng)
        Y = rng.standard_normal((9, 5))
        Z = deflate(Y, G)
        np.testing.assert_allclose(Z, (np.eye(9) - G @ G.T) @ Y, atol=1e-12)
        assert np.max(np.abs(deflate(Z, G) - Z)) <= 1e-10
        assert np.max(np.abs(G.T @ Z)) <= 1e-10

    def test_non_orthonormal_rejected(self):
        with pytest.raises(BasisError):
            deflate(np.ones((3, 4)), np.ones((3, 2)))

    def test_row_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            deflate(np.ones((3, 4)), np.eye(4)[:, :1])


def low_rank_block(n, alpha, r, rng):
    """n x alpha block of rank <= r with a spread of singular values."""
    A = rng.standard_normal((n, r)) * np.logspace(1, -1, r)
    return A @ rng.standard_normal((r, alpha))


class TestBlockEig:
    """block_eig against the dense oracle sym_eig(Psi C Psi), Psi = I - GG'."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        alpha=st.integers(1, 16),
        r_frac=st.floats(0.0, 1.0),
        k_frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=120, deadline=None)
    @example(seed=0, n=8, alpha=5, r_frac=1.0, k_frac=0.0)    # alpha < n, empty G
    @example(seed=1, n=8, alpha=5, r_frac=1.0, k_frac=0.4)    # alpha < n, non-empty G
    @example(seed=2, n=6, alpha=6, r_frac=1.0, k_frac=0.3)    # alpha = n, r = n
    @example(seed=3, n=5, alpha=12, r_frac=1.0, k_frac=0.0)   # alpha > n, r = n
    @example(seed=4, n=5, alpha=12, r_frac=0.5, k_frac=0.5)   # alpha > n, non-empty G
    @example(seed=5, n=7, alpha=1, r_frac=1.0, k_frac=0.0)    # alpha = 1
    @example(seed=6, n=7, alpha=1, r_frac=1.0, k_frac=0.5)    # alpha = 1, non-empty G
    @example(seed=7, n=1, alpha=3, r_frac=1.0, k_frac=0.0)    # n = 1
    def test_matches_dense_oracle(self, seed, n, alpha, r_frac, k_frac):
        rng = np.random.default_rng(seed)
        r = max(1, round(r_frac * n))
        k = round(k_frac * (n - 1))
        Y = low_rank_block(n, alpha, r, rng)
        G = random_orthonormal(n, k, rng) if k else None

        Psi = np.eye(n) if G is None else np.eye(n) - G @ G.T
        M = Psi @ empirical_covariance(Y) @ Psi
        ref_w, ref_V = sym_eig((M + M.T) / 2.0)

        eig = block_eig(Y, G)
        w = eig.eigenvalues
        assert w.shape == (n,)
        assert np.all(np.diff(w) <= 0.0)
        assert np.count_nonzero(w == 0.0) >= n - alpha  # rank <= alpha, padded exactly
        scale = max(1.0, abs(ref_w[0]))
        assert np.max(np.abs(w - ref_w)) <= 1e-9 * scale

        # leading subspaces agree wherever a gap separates them
        for j in range(1, n):
            gap = ref_w[j - 1] - ref_w[j]
            if gap <= 1e-3 * scale or w[j - 1] <= 1e-6 * scale:
                continue
            U = eig.leading(j)
            assert U.shape == (n, j)
            assert np.max(np.abs(U.T @ U - np.eye(j))) <= 1e-9
            assert subspace_error(U, ref_V[:, :j]) <= 1e-7
            if G is not None:
                assert np.max(np.abs(G.T @ U)) <= 1e-9

    @pytest.mark.parametrize("n, alpha", [(9, 4), (4, 4), (4, 9)])
    def test_factorizes_smaller_side(self, n, alpha, monkeypatch):
        shapes = []
        real = estimators.sym_eig

        def spy(M):
            shapes.append(np.shape(M))
            return real(M)

        monkeypatch.setattr(estimators, "sym_eig", spy)
        rng = np.random.default_rng(0)
        block_eig(rng.standard_normal((n, alpha)), random_orthonormal(n, 1, rng))
        side = min(n, alpha)
        assert shapes == [(side, side)]

    def test_no_n_by_n_matrix_when_alpha_small(self):
        n, alpha = 3000, 20
        rng = np.random.default_rng(11)
        Y = low_rank_block(n, alpha, 5, rng)
        G = random_orthonormal(n, 2, rng)
        tracemalloc.start()
        try:
            block_eig(Y, G).leading(3)
            simple_evd(block_eig(Y), 0.01)
            cluster_evd([block_eig(Y), Y], 1e6, 1e-3, max_clusters=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 10  # one n x n float matrix would be 72 MB

    @pytest.mark.parametrize("n, alpha", [(4, 4), (4, 9)])
    def test_keeps_no_block_it_does_not_lift_from(self, n, alpha):
        # with n <= alpha the n x n eigenvectors are kept, and the block is not
        Y = np.random.default_rng(12).standard_normal((n, alpha))
        block = weakref.ref(Y)
        eig = block_eig(Y)
        del Y
        assert block() is None
        assert eig.leading(n).shape == (n, n)

    def test_signs_match_dense_convention(self):
        rng = np.random.default_rng(9)
        Y = low_rank_block(10, 4, 4, rng)
        U = block_eig(Y).leading(4)
        V = _fix_signs(sym_eig(empirical_covariance(Y))[1])[:, :4]
        np.testing.assert_allclose(U, V, atol=1e-10)

    @pytest.mark.parametrize("n, alpha", [(6, 9), (6, 6), (9, 4)])
    @pytest.mark.parametrize("deflated", [False, True])
    def test_leading_is_c_ordered_and_sign_fixed(self, n, alpha, deflated):
        # the moment path (n <= alpha) and the lift path (alpha < n) alike
        rng = np.random.default_rng(14)
        G = random_orthonormal(n, 1, rng) if deflated else None
        eig = block_eig(rng.standard_normal((n, alpha)), G)
        rank = int(np.count_nonzero(eig.eigenvalues > 0.0)) if alpha < n else n
        for k in range(n + 1):
            if k > rank:  # the lift path has no vector for a zero eigenvalue
                with pytest.raises(EmptySubspaceError):
                    eig.leading(k)
                continue
            U = eig.leading(k)
            assert U.shape == (n, k)
            assert U.flags.c_contiguous
            assert np.all(U[np.argmax(np.abs(U), axis=0), np.arange(k)] >= 0.0)

    def test_zero_eigenvalue_not_lifted(self):
        Y = np.zeros((5, 2))
        Y[0, 0] = 1.0
        eig = block_eig(Y)
        np.testing.assert_array_equal(eig.eigenvalues, [0.5, 0.0, 0.0, 0.0, 0.0])
        assert eig.leading(1).shape == (5, 1)
        with pytest.raises(EmptySubspaceError):
            eig.leading(2)

    def test_shared_decomposition_must_match_block(self):
        # cluster_evd starts from the first block undeflated
        rng = np.random.default_rng(10)
        Y = rng.standard_normal((6, 3))
        with pytest.raises(ParameterError):
            cluster_evd([block_eig(Y, random_orthonormal(6, 1, rng))], 2.0, 0.01, max_clusters=6)

    @pytest.mark.parametrize("stream", [[np.eye(3), np.eye(3)], []], ids=["block", "empty"])
    def test_stream_starts_with_a_decomposition(self, stream):
        with pytest.raises(ParameterError, match="must start with"):
            cluster_evd(stream, 2.0, 0.01, max_clusters=3)


class TestReduceBlock:
    """An n <= alpha block reaches block_eig as its second moment YY'/alpha
    (`reduce_block`), deflated in factor form; handing block_eig or
    cluster_evd the reduced blocks gives the bits the arrays give."""

    @pytest.mark.parametrize("n, alpha", [(9, 4), (4, 4), (4, 9)])
    @pytest.mark.parametrize("k", [0, 2])
    def test_reduced_block_gives_the_same_bits(self, n, alpha, k):
        rng = np.random.default_rng(13)
        Y = rng.standard_normal((n, alpha))
        G = random_orthonormal(n, k, rng) if k else None
        reduced = reduce_block(Y)
        assert reduce_block(reduced) is reduced
        if n <= alpha:
            assert isinstance(reduced, BlockMoment) and reduced.shape == (n, alpha)
            np.testing.assert_array_equal(reduced.C, empirical_covariance(Y))
        else:
            assert reduced is Y
        a, b = block_eig(Y, G), block_eig(reduced, G)
        assert a.shape == b.shape == (n, alpha)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        m = min(n - k, alpha)  # the positive eigenvalues, which lift
        np.testing.assert_array_equal(a.leading(m), b.leading(m))

    def test_moment_is_deflated_through_the_traced_name(self, monkeypatch):
        # perfbench times the deflation by wrapping estimators.deflate; the
        # moment path forms Psi C Psi as two calls of that name
        rng = np.random.default_rng(15)
        Y = rng.standard_normal((6, 9))
        G = random_orthonormal(6, 2, rng)
        calls = []

        def spy(*args):
            calls.append(args)
            return deflate(*args)

        monkeypatch.setattr(estimators, "deflate", spy)
        eig = block_eig(reduce_block(Y), G)
        assert len(calls) == 2
        Psi = np.eye(6) - G @ G.T
        np.testing.assert_allclose(eig.eigenvalues,
                                   np.linalg.eigvalsh(Psi @ empirical_covariance(Y) @ Psi)[::-1],
                                   atol=1e-12)

    @pytest.mark.parametrize("alpha", [8, 30])  # either side of n = 12
    def test_cluster_evd_over_reduced_blocks(self, alpha):
        rng = np.random.default_rng(14)
        n, r = 12, 4
        P = random_orthonormal(n, r, rng)
        half = np.sqrt(3.0 * np.array([16.0, 8.0, 1.0, 0.5]))
        blocks = [P @ ((2.0 * rng.random((r, alpha)) - 1.0) * half[:, None])
                  + 0.01 * rng.standard_normal((n, alpha)) for _ in range(r)]
        P_hat, sizes = cluster_evd([block_eig(blocks[0]), *blocks[1:]], 2.0, 0.1, max_clusters=n)
        reduced = [reduce_block(Y) for Y in blocks]
        P_again, sizes_again = cluster_evd([block_eig(reduced[0]), *reduced[1:]], 2.0, 0.1,
                                             max_clusters=n)
        assert len(sizes) > 1
        assert sizes_again == sizes
        np.testing.assert_array_equal(P_again, P_hat)


class TestDetectCluster:
    @pytest.mark.parametrize(
        "eigs, g_hat, thresh, expected",
        [
            ([100.0, 99.0, 0.01], 3.0, 0.95, (2, True)),
            ([10.0, 9.0, 8.0], 2.0, 0.5, (3, True)),       # exhausted spectrum
            ([100.0, 1.0, 0.9], 1.5, 0.5, (1, False)),
        ],
    )
    def test_examples(self, eigs, g_hat, thresh, expected):
        assert detect_cluster(eigs, g_hat, thresh) == expected

    def test_ratio_extends_past_thresh(self):
        # the stop test looks one past the cluster; membership is ratio-only
        r_hat, stop = detect_cluster([0.098, 0.092, 1e-4], 3.0, 0.095)
        assert (r_hat, stop) == (2, True)

    def test_leading_below_thresh(self):
        with pytest.raises(NoClusterError):
            detect_cluster([0.01, 0.001], 2.0, 0.95)

    def test_unsorted_rejected(self):
        with pytest.raises(OrderError):
            detect_cluster([1.0, 2.0], 1.0, 0.5)

    def test_negative_tail_is_safe(self):
        r_hat, stop = detect_cluster([5.0, 4.0, -1e-14], 2.0, 0.5)
        assert (r_hat, stop) == (2, True)

    def test_matches_partition_on_exact_spectra(self):
        lam = [8.0, 4.0, 2.0, 1.0]
        part = g_partition(lam, 2.0)
        r_hat, _ = detect_cluster(lam, 2.0, 0.5)
        assert r_hat == part.sizes[0]

    def test_ratio_tie_extends(self):
        # 0.111 / 0.037 rounds to exactly 3, while 3 * 0.037 rounds below 0.111
        assert detect_cluster([0.111, 0.037], 3.0, 0.05) == (2, True)

    def test_ratio_beyond_float_range(self):
        # 1e300 / 1e-300 overflows to inf, which is correctly outside the cluster
        assert detect_cluster([1e300, 1e-300], 2.0, 1.0) == (1, True)

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            detect_cluster([np.inf, 1.0], 2.0, 0.5)

    @pytest.mark.parametrize("thresh", [0.0, -1.0, np.nan])
    def test_non_positive_thresh_rejected(self, thresh):
        # without the check, a zero spectrum would be a cluster of width 1
        with pytest.raises(ParameterError):
            detect_cluster([0.0, 0.0], 2.0, thresh)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_width_is_first_partition_cluster(self, data):
        # a few fixed values give repeats and exact ratio ties (0.111 / 0.037 == 3)
        value = st.one_of(st.floats(1e-3, 1e4), st.sampled_from([3.0, 1.0, 0.111, 0.037]))
        positive = sorted(data.draw(st.lists(value, min_size=1, max_size=10)), reverse=True)
        tail = sorted(data.draw(st.lists(st.sampled_from([0.0, -1e-14]), max_size=3)),
                      reverse=True)
        lam = np.array(positive + tail)
        # g is drawn freely or as one of the spectrum's own ratios, an exact tie
        g = data.draw(st.one_of(st.floats(1.0, 100.0), st.just(3.0),
                                st.sampled_from([lam[0] / v for v in positive])))
        thresh = data.draw(st.floats(1e-6, lam[0]))
        r_hat, _ = detect_cluster(lam, g, thresh)
        assert r_hat == g_partition(positive, g).sizes[0]


class TestClusterEvd:
    def test_noiseless_rank_one(self):
        e1 = np.eye(4)[:, :1]
        Y = e1 @ np.array([[3.0, -2.0, 1.0]])
        P_hat, sizes = cluster_evd([block_eig(Y)], 2.0, 0.5, max_clusters=4)
        assert len(sizes) == 1
        assert subspace_error(P_hat, e1) <= 1e-9

    def test_exact_spectrum_matches_partition(self):
        # ratios stay clear of g_hat so eigensolver roundoff cannot flip the
        # boundary comparisons
        rng = np.random.default_rng(2)
        V = random_orthonormal(4, 4, rng)
        lam = [8.0, 4.4, 2.0, 1.2]
        Y = exact_covariance_block(V, lam)
        P_hat, sizes = cluster_evd([block_eig(Y), Y], 2.4, 0.5, max_clusters=4)
        assert sizes == tuple(g_partition(lam, 2.4).sizes)
        assert sizes == (2, 2)
        assert subspace_error(P_hat, V) <= 1e-8

    def test_single_cluster_equals_simple_evd(self):
        rng = np.random.default_rng(3)
        V = random_orthonormal(6, 6, rng)
        lam = [10.0, 6.0, 4.0, 1e-14, 1e-14, 0.0]
        Y = exact_covariance_block(V, lam)
        P_hat, sizes = cluster_evd([block_eig(Y)], 1e6, 0.5, max_clusters=6)
        P_simple = simple_evd(block_eig(Y), 0.5)
        assert len(sizes) == 1
        assert P_hat.shape == P_simple.shape
        assert subspace_error(P_hat, P_simple) <= 1e-9

    def test_noiseless_exactness_general_position(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n, r = 12, 4
            P = random_orthonormal(n, r, rng)
            lam = np.array([16.0, 8.0, 1.0, 0.5])
            half = np.sqrt(3.0 * lam)
            blocks = [
                P @ ((2.0 * rng.random((r, 30)) - 1.0) * half[:, None]) for _ in range(r)
            ]
            P_hat, _ = cluster_evd([block_eig(blocks[0]), *blocks[1:]], 2.0, 0.1, max_clusters=n)
            assert subspace_error(P_hat, P) <= 1e-8
            P_one = simple_evd(block_eig(blocks[0]), 0.1)
            assert subspace_error(P_one, P) <= 1e-8

    def test_output_orthonormal_and_telescoping(self):
        rng = np.random.default_rng(4)
        V = random_orthonormal(5, 5, rng)
        lam = [9.0, 3.0, 1.0, 0.3, 0.1]
        Y = exact_covariance_block(V, lam)
        P, sizes = cluster_evd([block_eig(Y)] + [Y] * 4, 1.1, 0.05, max_clusters=5)
        assert np.max(np.abs(P.T @ P - np.eye(P.shape[1]))) <= 1e-8
        start = 0
        for size in sizes[:-1]:
            start += size
            G_det, G_next = P[:, :start], P[:, start:]
            assert np.linalg.norm(G_det.T @ G_next, 2) <= 1e-8

    def test_consumes_exactly_vartheta_blocks(self):
        rng = np.random.default_rng(5)
        V = random_orthonormal(4, 4, rng)
        Y = exact_covariance_block(V, [8.0, 4.4, 2.0, 1.2])
        served = {"cols": 0}

        def stream():
            while True:
                served["cols"] += Y.shape[1]
                yield Y

        blocks = stream()
        _, sizes = cluster_evd(itertools.chain([block_eig(next(blocks))], blocks), 2.4, 0.5,
                               max_clusters=4)
        assert served["cols"] == len(sizes) * Y.shape[1]

    def test_insufficient_data(self):
        rng = np.random.default_rng(6)
        V = random_orthonormal(4, 4, rng)
        Y = exact_covariance_block(V, [8.0, 4.4, 2.0, 1.2])
        with pytest.raises(InsufficientDataError):
            cluster_evd([block_eig(Y)], 2.4, 0.5, max_clusters=4)

    def test_partial_block_rejected(self):
        # the first block (alpha = 2, eigenvalues 4.5, 2) does not stop; the
        # second is one column short
        first = np.eye(4)[:, :2] * [3.0, 2.0]
        Y = np.eye(4)[:, :1] * 3.0
        with pytest.raises(InsufficientDataError):
            cluster_evd([block_eig(first), Y], 2.0, 0.5, max_clusters=4)

    def test_non_termination_cap(self):
        rng = np.random.default_rng(7)
        V = random_orthonormal(4, 4, rng)
        Y = exact_covariance_block(V, [8.0, 4.4, 2.0, 1.2])
        with pytest.raises(NonTerminationError):
            cluster_evd([block_eig(Y)] + [Y] * 9, 1.0, 1e-18, max_clusters=2)

    def test_parameters_rejected(self):
        eig = block_eig(np.eye(3) * 2.0)
        for thresh in (0.0, -1.0, np.nan):
            with pytest.raises(ParameterError):
                simple_evd(eig, thresh)
            with pytest.raises(ParameterError):
                cluster_evd([eig], 2.0, thresh, max_clusters=3)
        with pytest.raises(ParameterError):
            cluster_evd([eig], 0.5, 0.5, max_clusters=3)
        with pytest.raises(ParameterError):
            cluster_evd([eig], 2.0, 0.5, max_clusters=0)

    def test_no_cluster_propagates(self):
        Y = np.eye(3)[:, :1] * 1e-6
        with pytest.raises(NoClusterError):
            cluster_evd([block_eig(np.column_stack([Y, Y, Y]))], 2.0, 0.9, max_clusters=3)

    def test_reference_configuration_typical_trial(self):
        # moving-corruption data: two eigenvalue scales (100 and 0.1), batch
        # length 300, literal threshold 0.095 and ratio cap 3
        from ddnpca.datagen import (
            SddcNoiseModel,
            SignalModel,
            generate_dataset,
            generate_support_schedule,
            sparse_basis,
        )

        rng = np.random.default_rng(2024)
        model = SignalModel(
            P=sparse_basis(500, 5), lam=np.array([100.0, 100.0, 100.0, 0.1, 0.1])
        )
        blocks = []
        for k in range(3):
            sched = generate_support_schedule(
                500, 300, 5, 2, 1, start=(900 * k) % 500
            )
            Y, _ = generate_dataset(model, SddcNoiseModel(0.01, sched), 300, rng)
            blocks.append(Y)
        P_hat, sizes = cluster_evd([block_eig(blocks[0]), *blocks[1:]], 3.0, 0.095,
                                    max_clusters=500)
        assert sizes == (3, 2)
        assert subspace_error(P_hat, model.P) < 0.5


class TestClusterEvdProperties:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 10),
        alpha=st.integers(1, 14),
        g_hat=st.floats(1.0, 10.0),
        cap=st.integers(1, 10),
    )
    @settings(max_examples=120, deadline=None)
    def test_invariants(self, seed, n, alpha, g_hat, cap):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, n + 1))
        P = random_orthonormal(n, r, rng)
        lam = np.sort(rng.uniform(0.1, 100.0, size=r))[::-1]
        drawn = []

        def stream():
            while True:
                Y = P @ (np.sqrt(lam)[:, None] * rng.standard_normal((r, alpha)))
                Y += 0.01 * rng.standard_normal((n, alpha))
                drawn.append(Y)
                yield Y

        blocks = stream()
        try:
            P_hat, sizes = cluster_evd(itertools.chain([block_eig(next(blocks))], blocks), g_hat,
                                       0.05, max_clusters=cap)
        except (NonTerminationError, NoClusterError):
            assert len(drawn) <= cap
            return
        width = P_hat.shape[1]
        assert np.max(np.abs(P_hat.T @ P_hat - np.eye(width))) <= 1e-8
        assert sum(sizes) == width
        assert len(sizes) == len(drawn) <= cap


def _signal_model():
    return SignalModel(P=sparse_basis(4, 2), lam=np.array([2.0, 1.0]))


@pytest.mark.parametrize("make", [
    _signal_model,
    lambda: block_eig(np.eye(4)[:, :3]),
    lambda: reduce_block(np.eye(2, 3)),
], ids=["SignalModel", "BlockEig", "BlockMoment"])
def test_array_dataclasses_compare_by_identity(make):
    # equal but distinct arrays: field-wise == would have no truth value
    a, b = make(), make()
    assert type(a) in (SignalModel, BlockEig, BlockMoment)
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


class TestEstimatorInvariances:
    """Transforms of the data that both estimators must follow: one
    orthogonal Q applied to every block (truth Q P), each block's frames
    reordered and sign-flipped, and the data doubled with four times the
    threshold.  The bytes move under each; the rank, the cluster sizes and
    the SE must not.  Draws with a ratio or an eigenvalue within 1e-6 of
    g_hat or thresh are skipped, since rounding decides such a tie."""

    G_HAT, THRESH, TIE = 3.0, 0.05, 1e-6

    @classmethod
    def estimate(cls, blocks, P, thresh):
        """simple-EVD's (rank, SE), cluster-EVD's (sizes, SE), and the
        spectra whose comparisons decided them."""
        first = block_eig(blocks[0])
        P_evd = simple_evd(first, thresh)
        P_hat, sizes = cluster_evd([first, *blocks[1:]], cls.G_HAT, thresh,
                                   max_clusters=len(blocks))
        ends = np.cumsum((0,) + sizes[:-1])
        spectra = [block_eig(Y, P_hat[:, :end]).eigenvalues for Y, end in zip(blocks, ends)]
        return ((P_evd.shape[1], subspace_error(P_evd, P)),
                (sizes, subspace_error(P_hat, P)), spectra)

    @classmethod
    def near_tie(cls, lam, thresh):
        ratios = lam[0] / lam[1:][lam[1:] > 0]
        return (np.isclose(lam, thresh, rtol=cls.TIE, atol=0).any()
                or np.isclose(ratios, cls.G_HAT, rtol=cls.TIE, atol=0).any())

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 10), alpha=st.integers(2, 14),
           levels=st.lists(st.sampled_from([100.0, 10.0, 1.0]), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_rotation_frame_order_and_scale(self, seed, n, alpha, levels):
        assume(len(levels) < n)
        rng = np.random.default_rng(seed)
        lam = np.sort(levels)[::-1]
        P = random_orthonormal(n, lam.size, rng)
        blocks = [P @ (np.sqrt(lam)[:, None] * rng.standard_normal((lam.size, alpha)))
                  + 0.01 * rng.standard_normal((n, alpha)) for _ in range(lam.size + 1)]
        try:
            evd, cluster, spectra = self.estimate(blocks, P, self.THRESH)
        except (EmptySubspaceError, NoClusterError, NonTerminationError, InsufficientDataError):
            assume(False)
        assume(not any(self.near_tie(lam_k, self.THRESH) for lam_k in spectra))

        Q = random_orthonormal(n, n, rng)
        shuffled = [Y[:, rng.permutation(alpha)] * rng.choice([-1.0, 1.0], size=alpha)
                    for Y in blocks]
        for moved, truth, thresh in [
            ([Q @ Y for Y in blocks], Q @ P, self.THRESH),
            (shuffled, P, self.THRESH),
            ([2.0 * Y for Y in blocks], P, 4.0 * self.THRESH),
        ]:
            evd2, cluster2, _ = self.estimate(moved, truth, thresh)
            for (shape, se), (shape2, se2) in [(evd, evd2), (cluster, cluster2)]:
                assert shape2 == shape
                assert abs(se2 - se) <= 1e-9


def trial_blocks(n, alpha, seed):
    """Three blocks of one test-size trial as the harness draws them: a
    random basis with spectrum (16, 4, 1), sddc noise on a support that
    moves on from block to block."""
    rng = np.random.default_rng(seed)
    model = SignalModel(P=random_basis(n, 3, rng), lam=np.array([16.0, 4.0, 1.0]))
    schedules = [generate_support_schedule(n, alpha, 3, 3, 1, first_run=k * alpha)
                 for k in range(3)]
    return [generate_dataset(model, SddcNoiseModel(0.01, sched), alpha, rng)[0]
            for sched in schedules]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n, alpha", [(120, 80), (80, 120)], ids=["lift", "moment"])
class TestExactRelations:
    """Relations between estimates on trial-drawn blocks, through the path
    a trial takes (block 1's decomposition shared, then handed to
    cluster_evd), on the lift path (alpha < n) and the moment path
    (n <= alpha).  Each trial finds three clusters in three blocks."""

    G_HAT, THRESH = 2.5, 0.4

    @classmethod
    def estimate(cls, blocks, thresh):
        first = block_eig(blocks[0])
        P_evd = simple_evd(first, thresh)
        P_hat, sizes = cluster_evd([first, *blocks[1:]], cls.G_HAT, thresh, max_clusters=3)
        assert sizes == (1, 1, 1) and P_evd.shape[1] == 3
        return P_evd, P_hat

    def test_power_of_two_scale(self, n, alpha, seed):
        # Y -> 2^k Y, thresh -> 4^k thresh: every product, eigensolve and
        # lift scales exactly, and the estimates stay.  On numpy 2.4.6 with
        # OpenBLAS 0.3.31 they were equal bit for bit at each k; 1e-12 is the
        # form that holds on any BLAS.
        blocks = trial_blocks(n, alpha, seed)
        estimates = self.estimate(blocks, self.THRESH)
        for k in (-20, -2, 2):
            scaled = self.estimate([Y * 2.0**k for Y in blocks], self.THRESH * 4.0**k)
            for P, P_scaled in zip(estimates, scaled):
                np.testing.assert_allclose(P_scaled, P, rtol=0, atol=1e-12)

    def test_row_permutation(self, n, alpha, seed):
        # one permutation of the coordinates, applied to every block,
        # permutes the rows of the estimates (measured: sin theta <= 2.6e-15
        # here, <= 2.8e-12 on expt1 and missing_tall blocks)
        blocks = trial_blocks(n, alpha, seed)
        perm = np.random.default_rng(seed).permutation(n)
        estimates = self.estimate(blocks, self.THRESH)
        permuted = self.estimate([Y[perm] for Y in blocks], self.THRESH)
        for P, P_permuted in zip(estimates, permuted):
            assert subspace_error(P_permuted, P[perm]) <= 1e-10
            assert subspace_error(P[perm], P_permuted) <= 1e-10


@st.composite
def planted_blocks(draw):
    """Blocks of n in [6, 40] rows drawn from one to three planted clusters
    of one or two directions (levels about 100, 10 and 1, each member within
    1.5x of its cluster's top) plus N(0, 0.05^2) noise, with alpha below n
    (the lift path) or at least n (the moment path)."""
    n = draw(st.integers(6, 40))
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    r = sum(sizes)
    alpha = draw(st.integers(min(r + 1, n - 1), n - 1) | st.integers(n, 2 * n))
    lam = np.array([10.0 ** (2 - c) / draw(st.floats(1.0, 1.5))
                    for c, size in enumerate(sizes) for _ in range(size)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = random_orthonormal(n, r, rng)
    return [P @ (np.sqrt(lam)[:, None] * rng.standard_normal((r, alpha)))
            + 0.05 * rng.standard_normal((n, alpha)) for _ in range(len(sizes) + 2)]


class TestAgainstTranscription:
    """simple_evd and cluster_evd, through the path a trial takes, give the
    ranks, cluster sizes and subspaces of the dense transcription in
    tests/estimator_reference.py, which shares none of the package's cuts:
    the alpha < n lift, the n <= alpha moment, the factor-form deflation,
    the sign pass and the ratio-form cluster count."""

    G_HAT, THRESH, GAP = 3.0, 0.3, 1e-6

    @classmethod
    def well_posed(cls, w, cuts):
        """No eigenvalue or top-over-eigenvalue ratio within GAP, relative, of
        thresh or g_hat, and an eigengap of at least GAP * w[0] at each cut,
        so that rounding decides neither the rank nor the subspace."""
        ratios = w[0] / w[1:][w[1:] > 0]
        return not (np.isclose(w, cls.THRESH, rtol=cls.GAP, atol=0).any()
                    or np.isclose(ratios, cls.G_HAT, rtol=cls.GAP, atol=0).any()
                    or any(0 < c < w.size and w[c - 1] - w[c] < cls.GAP * w[0] for c in cuts))

    @staticmethod
    def assert_same_subspace(P, P_ref):
        assert P.shape == P_ref.shape
        assert ref.sin_theta(P, P_ref) <= 1e-9
        assert ref.sin_theta(P_ref, P) <= 1e-9

    @given(planted_blocks())
    @settings(max_examples=150, deadline=None)
    def test_planted_clusters(self, blocks):
        try:
            P_ref, sizes_ref, spectra = ref.cluster_evd(blocks, self.G_HAT, self.THRESH)
        except ValueError:  # no cluster in a deflated block, or too few blocks
            assume(False)
        E_ref = ref.simple_evd(blocks[0], self.THRESH)
        assume(self.well_posed(spectra[0], [E_ref.shape[1]]))
        assume(all(self.well_posed(w, [size]) for w, size in zip(spectra, sizes_ref)))
        first = block_eig(blocks[0])
        P_evd = simple_evd(first, self.THRESH)
        P_hat, sizes = cluster_evd([first, *blocks[1:]], self.G_HAT, self.THRESH,
                                   max_clusters=blocks[0].shape[0])
        assert sizes == sizes_ref
        self.assert_same_subspace(P_evd, E_ref)
        self.assert_same_subspace(P_hat, P_ref)

    @pytest.mark.parametrize("n, alpha", [(6, 4), (4, 6)], ids=["lift", "moment"])
    def test_ratio_equal_to_g_hat_joins(self, n, alpha):
        # block 1's spectrum is (64, 16, 4, 0, ...) / alpha: 64 / 16 is
        # g_hat = 4 exactly, so the first cluster has both, and block 2 holds
        # the third direction
        g_hat = 4.0
        blocks = [np.zeros((n, alpha)) for _ in range(2)]
        blocks[0][0, 0], blocks[0][1, 1], blocks[0][2, 2] = 8.0, 4.0, 2.0
        blocks[1][2, 0] = 2.0
        P_ref, sizes_ref, _ = ref.cluster_evd(blocks, g_hat, self.THRESH)
        P_hat, sizes = cluster_evd([block_eig(blocks[0]), blocks[1]], g_hat, self.THRESH,
                                   max_clusters=n)
        assert sizes == sizes_ref == (2, 1)
        self.assert_same_subspace(P_hat, P_ref)
