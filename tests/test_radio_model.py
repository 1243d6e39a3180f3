import math

import numpy as np
import pytest

from rantwin import radio_model as rm
from rantwin.errors import DomainError
from rantwin.radio_model import ChannelSample, LinkBudgetParams

from oracles import cqi_table_scan

PARAMS = LinkBudgetParams()


class TestPathLoss:
    def test_reference_distance(self):
        assert rm.path_loss_db(1.0, PARAMS) == pytest.approx(36.6)

    def test_ten_times_reference(self):
        # 10 * n * log10(10) adds exactly 10n dB
        assert rm.path_loss_db(10.0, PARAMS) == pytest.approx(36.6 + 35.0)

    def test_hand_evaluated_100m(self):
        # independent scalar recomputation of the log-distance formula
        expected = 36.6 + 10.0 * 3.5 * math.log10(100.0 / 1.0)
        assert expected == pytest.approx(106.6, abs=1e-9)
        assert rm.path_loss_db(100.0, PARAMS) == pytest.approx(expected, rel=1e-12)

    def test_flat_inside_reference_distance(self):
        assert rm.path_loss_db(0.5, PARAMS) == pytest.approx(36.6)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(DomainError):
            rm.path_loss_db(0.0, PARAMS)
        with pytest.raises(DomainError):
            rm.path_loss_db(-1.0, PARAMS)

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d1, d2 = sorted(rng.uniform(0.1, 5000.0, size=2))
            assert rm.path_loss_db(d1, PARAMS) <= rm.path_loss_db(d2, PARAMS)


class TestRsrp:
    def test_zero_loss(self):
        assert rm.rsrp_dbm(-10.0, 0.0, 0.0) == pytest.approx(-10.0)

    def test_subtraction(self):
        assert rm.rsrp_dbm(-10.0, 106.6, 0.0) == pytest.approx(-116.6)

    def test_positive_shadowing_raises_rsrp(self):
        assert rm.rsrp_dbm(-10.0, 106.6, 8.0) == pytest.approx(-108.6)


class TestSinr:
    def test_unity_ratio(self):
        assert rm.sinr_db(2.5, [], 2.5) == pytest.approx(0.0)

    def test_noise_limit(self):
        assert rm.sinr_db(1.0, [1.0], 1e-12) == pytest.approx(0.0, abs=1e-6)

    def test_interferers_plus_noise(self):
        assert rm.sinr_db(10.0, [4.0, 5.0], 1.0) == pytest.approx(0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rm.sinr_db(0.0, [], 1.0)
        with pytest.raises(DomainError):
            rm.sinr_db(1.0, [], 0.0)
        with pytest.raises(DomainError):
            rm.sinr_db(1.0, [-0.1], 1.0)

    def test_strictly_decreasing_in_interferer_power(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            serving = rng.uniform(0.1, 10.0)
            base = rng.uniform(0.0, 5.0, size=3)
            k = int(rng.integers(0, 3))
            bumped = base.copy()
            bumped[k] += rng.uniform(0.01, 2.0)
            assert rm.sinr_db(serving, bumped, 1e-3) < rm.sinr_db(serving, base, 1e-3)


class TestRsrq:
    def test_upper_bound_no_interference(self):
        assert rm.rsrq_db(2.0, 2.0) == pytest.approx(0.0)

    def test_half_ratio(self):
        assert rm.rsrq_db(1.0, 2.0) == pytest.approx(-3.0103, abs=1e-4)

    def test_one_tenth(self):
        assert rm.rsrq_db(1.0, 10.0) == pytest.approx(-10.0)

    def test_power_accounting_violation(self):
        with pytest.raises(DomainError):
            rm.rsrq_db(2.0, 1.9)

    def test_never_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            rsrp = rng.uniform(1e-12, 10.0)
            extra = rng.uniform(0.0, 10.0)
            assert rm.rsrq_db(rsrp, rsrp + extra) <= 0.0


class TestCqi:
    def test_below_lowest_threshold(self):
        assert rm.cqi_from_sinr(-30.0) == 0

    def test_above_highest_threshold(self):
        assert rm.cqi_from_sinr(40.0) == 15

    def test_lookup_matches_table_scan(self):
        # spec example: 10 dB lands in CQI 9
        assert cqi_table_scan(10.0) == 9
        assert rm.cqi_from_sinr(10.0) == 9
        rng = np.random.default_rng(3)
        for sinr in rng.uniform(-40.0, 40.0, size=500):
            assert rm.cqi_from_sinr(float(sinr)) == cqi_table_scan(float(sinr))

    def test_inclusive_lower_bound_at_every_threshold(self):
        for k, thr in enumerate(rm.CQI_SINR_THRESHOLDS_DB, start=1):
            assert rm.cqi_from_sinr(thr) == k

    def test_monotone_in_sinr(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b = sorted(rng.uniform(-30.0, 30.0, size=2))
            assert rm.cqi_from_sinr(a) <= rm.cqi_from_sinr(b)


class TestConversions:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        for db in rng.uniform(-200.0, 200.0, size=500):
            again = rm.linear_to_db(rm.db_to_linear(float(db)))
            assert again == pytest.approx(float(db), rel=1e-9, abs=1e-9)

    def test_linear_to_db_domain(self):
        with pytest.raises(DomainError):
            rm.linear_to_db(0.0)


class TestChannelSample:
    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            ChannelSample(rsrp_dbm=-90, rssi_dbm=-85, rsrq_db=0.5, sinr_db=5, cqi=7)
        with pytest.raises(DomainError):
            ChannelSample(rsrp_dbm=-90, rssi_dbm=-85, rsrq_db=-3, sinr_db=5, cqi=16)


class TestSpectralEfficiency:
    def test_cqi_zero_caps_at_zero(self):
        assert rm.spectral_efficiency_bps_hz(30.0, 0) == 0.0

    def test_min_of_shannon_and_cap(self):
        # low SINR with a high CQI cap: the Shannon branch wins
        shannon = math.log2(1.0 + rm.db_to_linear(0.0))
        assert rm.spectral_efficiency_bps_hz(0.0, 15) == pytest.approx(shannon)
        # high SINR: the table cap wins
        assert rm.spectral_efficiency_bps_hz(30.0, 9) == pytest.approx(2.4063)


class TestShadowing:
    def test_frozen_when_rho_is_one(self):
        rng = np.random.default_rng(6)
        assert rm.evolve_shadowing(4.2, 1.0, 8.0, rng) == pytest.approx(4.2)

    def test_deterministic_given_generator_state(self):
        a = rm.evolve_shadowing(1.0, 0.9, 8.0, np.random.default_rng(7))
        b = rm.evolve_shadowing(1.0, 0.9, 8.0, np.random.default_rng(7))
        assert a == b

    def test_params_validation(self):
        with pytest.raises(DomainError):
            LinkBudgetParams(ref_distance_m=0.0)
        with pytest.raises(DomainError):
            LinkBudgetParams(path_loss_exponent=-1.0)
        with pytest.raises(DomainError):
            LinkBudgetParams(prb_bandwidth_hz=0.0)
