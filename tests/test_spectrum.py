import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddnpca.errors import OrderError, ParameterError
from ddnpca.spectrum import g_partition

EXPT1_SPECTRUM = [100.0, 100.0, 100.0, 0.1, 0.1]


def spectra(min_len=1, max_len=12):
    """Sorted non-increasing positive spectra."""
    return st.lists(
        st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
        min_size=min_len,
        max_size=max_len,
    ).map(lambda xs: sorted(xs, reverse=True))


class TestGPartition:
    def test_two_scale_spectrum(self):
        part = g_partition(EXPT1_SPECTRUM, 3.0)
        assert part.clusters == ((0, 1, 2), (3, 4))
        assert part.vartheta == 2

    def test_equal_values_single_cluster(self):
        part = g_partition([5.0, 5.0, 5.0], 1.0)
        assert part.clusters == ((0, 1, 2),)

    def test_hand_executed_greedy(self):
        # 8/4 = 2 <= 2, 8/2 = 4 > 2 closes the first cluster; 2/1 = 2 <= 2
        part = g_partition([8.0, 4.0, 2.0, 1.0], 2.0)
        assert part.clusters == ((0, 1), (2, 3))

    def test_trailing_zeros_excluded(self):
        part = g_partition([4.0, 2.0, 0.0, 0.0], 2.0)
        assert part.clusters == ((0, 1),)

    def test_unsorted_rejected(self):
        with pytest.raises(OrderError):
            g_partition([1.0, 2.0], 2.0)

    def test_g_below_one_rejected(self):
        with pytest.raises(ParameterError):
            g_partition([2.0, 1.0], 0.5)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            g_partition([2.0, -1.0], 2.0)

    @pytest.mark.parametrize("lam", [[3.0, np.nan, 1.0], [np.inf, 1.0], [2.0, 1.0, -np.inf]],
                             ids=["nan", "inf", "minus-inf"])
    def test_non_finite_rejected(self, lam):
        with pytest.raises(ParameterError):
            g_partition(lam, 3.0)

    def test_f_past_float_range_is_inf(self):
        # the pytest config turns RuntimeWarning into an error
        part = g_partition([1e300, 1e-300], 3.0)
        assert part.f == np.inf
        assert part.sizes == (1, 1)

    def test_ratio_tie_extends(self):
        # 0.111 / 0.037 rounds to exactly 3, while 3 * 0.037 rounds below 0.111
        assert g_partition([0.111, 0.037], 3.0).sizes == (2,)

    @given(spectra(), st.floats(min_value=1.0, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    @example([0.111, 0.037], 3.0)
    def test_cover_disjoint_and_greedy_maximal(self, lam, g):
        lam = np.asarray(lam)
        part = g_partition(lam, g)
        flat = [i for c in part.clusters for i in c]
        assert flat == list(range(len(lam)))  # cover, disjoint, ordered
        for c in part.clusters:
            head = lam[c[0]]
            # the ratio form of the rule: a product g * lam[j] can round
            # below head on an exact tie (test_ratio_tie_extends)
            assert head / lam[c[-1]] <= g
            nxt = c[-1] + 1
            if nxt < len(lam):
                assert head / lam[nxt] > g  # maximality: next index would violate

    @given(spectra(min_len=2), st.floats(1.0, 50.0), st.floats(1.0, 50.0))
    @settings(max_examples=150, deadline=None)
    def test_vartheta_monotone_in_g(self, lam, g1, g2):
        lo, hi = sorted([g1, g2])
        assert g_partition(lam, lo).vartheta >= g_partition(lam, hi).vartheta

    @given(spectra(min_len=2))
    @settings(max_examples=100, deadline=None)
    def test_g_equal_f_single_cluster(self, lam):
        f = lam[0] / lam[-1]
        assert g_partition(lam, f).vartheta == 1


class TestPartitionStats:
    def test_reference_spectrum_values(self):
        part = g_partition(EXPT1_SPECTRUM, 3.0)
        assert part.vartheta == 2
        assert part.g_eff == 1.0
        assert part.chi == pytest.approx(0.001, rel=1e-12)
        assert part.f == pytest.approx(1000.0, rel=1e-12)

    def test_single_cluster_of_equal_values(self):
        lam = [7.0, 7.0]
        part = g_partition(lam, 1.0)
        assert part.g_eff == 1.0 and part.chi == 0.0

    def test_hand_arithmetic(self):
        lam = [8.0, 4.0, 2.0, 1.0]
        part = g_partition(lam, 2.0)
        assert part.g_eff == 2.0
        assert part.chi == 0.5
        assert part.f == 8.0

    @given(spectra(min_len=1), st.floats(1.0, 30.0))
    @settings(max_examples=100, deadline=None)
    def test_stats_ranges(self, lam, g):
        part = g_partition(lam, g)
        assert 1.0 <= part.g_eff <= part.f * (1 + 1e-12)
        assert 0.0 <= part.chi <= 1.0 + 1e-12
