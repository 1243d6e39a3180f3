import math

import numpy as np
import pytest

from rantwin import radio_model as rm
from rantwin.errors import DomainError
from rantwin.radio_model import LinkBudgetParams

from oracles import cqi_table_scan, linear_to_db

PARAMS = LinkBudgetParams()
NOISE_MW = rm.dbm_to_mw(rm.noise_power_per_re_dbm(PARAMS))


def path_loss(*distances_m):
    return rm.path_loss_db(np.array(distances_m), PARAMS)


def rsrp_at(distance_m, tx_dbm, shadowing_db, link=PARAMS):
    """rsrp_matrix of one UE `distance_m` east of one cell at the origin."""
    return rm.rsrp_matrix(np.array([[distance_m, 0.0]]), np.zeros((1, 2)), np.array([tx_dbm]),
                          np.array([[shadowing_db]]), link)[0, 0]


def channel(serving_mw, interferers_mw, noise_mw):
    """sample_channel of UEs served by cell 0, from their (U, C) powers in mW."""
    mw = np.column_stack([serving_mw, *interferers_mw])
    return rm.sample_channel(10.0 * np.log10(mw), np.zeros(len(mw), dtype=np.int64), noise_mw)


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss(1.0) == pytest.approx([36.6])

    def test_ten_times_reference(self):
        # 10 * n * log10(10) adds exactly 10n dB
        assert path_loss(10.0) == pytest.approx([36.6 + 35.0])

    def test_hand_evaluated_100m(self):
        # independent scalar recomputation of the log-distance formula
        expected = 36.6 + 10.0 * 3.5 * math.log10(100.0 / 1.0)
        assert expected == pytest.approx(106.6, abs=1e-9)
        assert path_loss(100.0) == pytest.approx([expected], rel=1e-12)

    def test_flat_inside_reference_distance(self):
        assert path_loss(0.0, 0.5) == pytest.approx([36.6, 36.6])

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(0)
        d = np.sort(rng.uniform(0.1, 5000.0, size=(200, 2)), axis=1)
        loss = rm.path_loss_db(d, PARAMS)
        assert (loss[:, 0] <= loss[:, 1]).all()


class TestRsrp:
    def test_zero_loss(self):
        link = LinkBudgetParams(ref_path_loss_db=0.0)
        assert rsrp_at(0.0, -10.0, 0.0, link) == pytest.approx(-10.0)

    def test_subtraction(self):
        assert rsrp_at(100.0, -10.0, 0.0) == pytest.approx(-116.6)

    def test_positive_shadowing_raises_rsrp(self):
        assert rsrp_at(100.0, -10.0, 8.0) == pytest.approx(-108.6)


class TestSinr:
    def test_unity_ratio(self):
        assert channel(2.5, [], 2.5).sinr_db == pytest.approx([0.0])

    def test_noise_limit(self):
        assert channel(1.0, [1.0], 1e-12).sinr_db == pytest.approx([0.0], abs=1e-6)

    def test_interferers_plus_noise(self):
        assert channel(10.0, [4.0, 5.0], 1.0).sinr_db == pytest.approx([0.0])

    def test_strictly_decreasing_in_interferer_power(self):
        rng = np.random.default_rng(1)
        serving = rng.uniform(0.1, 10.0, size=100)
        base = rng.uniform(0.0, 5.0, size=(100, 3))
        bumped = base.copy()
        bumped[np.arange(100), rng.integers(0, 3, size=100)] += rng.uniform(0.01, 2.0, size=100)
        worse = channel(serving, bumped.T, 1e-3).sinr_db
        assert (worse < channel(serving, base.T, 1e-3).sinr_db).all()


class TestRsrq:
    def test_upper_bound_no_interference(self):
        rsrq = channel(2.0, [], 1e-15).rsrq_db
        assert rsrq == pytest.approx([0.0])
        assert rsrq <= 0.0

    def test_half_ratio(self):
        assert channel(1.0, [0.5], 0.5).rsrq_db == pytest.approx([-3.0103], abs=1e-4)

    def test_one_tenth(self):
        assert channel(1.0, [4.0, 4.0], 1.0).rsrq_db == pytest.approx([-10.0])

    def test_never_positive(self):
        rng = np.random.default_rng(2)
        rsrp = rng.uniform(1e-12, 10.0, size=200)
        extra = rng.uniform(0.0, 10.0, size=200)
        assert (channel(rsrp, [extra], 1e-15).rsrq_db <= 0.0).all()


class TestSampleChannel:
    @pytest.mark.parametrize("n_cells", [1, 3, 19])
    def test_power_accounting_on_random_rsrp(self, n_cells):
        rng = np.random.default_rng(n_cells)
        rsrp = rng.uniform(-140.0, -40.0, size=(200, n_cells))
        serving = rng.integers(0, n_cells, size=200)
        ch = rm.sample_channel(rsrp, serving, NOISE_MW)
        assert (ch.rsrp_dbm == rsrp[np.arange(200), serving]).all()
        assert (ch.rsrq_db <= 0.0).all()
        assert (ch.rssi_dbm >= ch.rsrp_dbm).all()
        assert (ch.cqi == rm.cqi_from_sinr(ch.sinr_db)).all()


class TestCqi:
    def test_below_lowest_threshold(self):
        assert rm.cqi_from_sinr(np.array([-30.0])).tolist() == [0]

    def test_above_highest_threshold(self):
        assert rm.cqi_from_sinr(np.array([40.0])).tolist() == [15]

    def test_lookup_matches_table_scan(self):
        # spec example: 10 dB lands in CQI 9
        assert cqi_table_scan(10.0) == 9
        assert rm.cqi_from_sinr(np.array([10.0])).tolist() == [9]
        sinr = np.random.default_rng(3).uniform(-40.0, 40.0, size=500)
        assert rm.cqi_from_sinr(sinr).tolist() == [cqi_table_scan(s) for s in sinr.tolist()]

    def test_inclusive_lower_bound_at_every_threshold(self):
        thresholds = np.array(rm.CQI_SINR_THRESHOLDS_DB)
        assert rm.cqi_from_sinr(thresholds).tolist() == list(range(1, 16))
        below = np.nextafter(thresholds, -np.inf)
        assert rm.cqi_from_sinr(below).tolist() == list(range(15))

    def test_monotone_in_sinr(self):
        rng = np.random.default_rng(4)
        pairs = np.sort(rng.uniform(-30.0, 30.0, size=(200, 2)), axis=1)
        cqi = rm.cqi_from_sinr(pairs)
        assert (cqi[:, 0] <= cqi[:, 1]).all()


class TestConversions:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        for db in rng.uniform(-200.0, 200.0, size=500):
            again = linear_to_db(rm.dbm_to_mw(float(db)))
            assert again == pytest.approx(float(db), rel=1e-9, abs=1e-9)


class TestSpectralEfficiency:
    def test_cqi_zero_caps_at_zero(self):
        assert rm.spectral_efficiencies(np.array([30.0]), np.array([0])).tolist() == [0.0]

    def test_min_of_shannon_and_cap(self):
        # low SINR with a high CQI cap: the Shannon branch wins, log2(1 + 1)
        se = rm.spectral_efficiencies(np.array([0.0, 30.0]), np.array([15, 9]))
        assert se[0] == pytest.approx(1.0)
        # high SINR: the table cap wins
        assert se[1] == pytest.approx(2.4063)


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
