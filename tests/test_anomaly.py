import logging
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from rantwin import anomaly, ran_sim
from rantwin import radio_model as rm
from rantwin.anomaly import (
    DATASET_DTYPE,
    N_FEATURES,
    FeatureStats,
    default_fault_specs,
    extract_features,
    feature_matrix,
    generate_dataset,
    split_dataset,
    standardize,
)
from rantwin.errors import ConfigurationError, DataFormatError, DomainError
from rantwin.radio_model import ChannelColumns
from rantwin.ran_sim import AnomalyClass, FaultSpec, inject_faults

from oracles import (
    channel_row,
    columns_of,
    cqi_table_scan,
    mk_batch,
    mk_plan,
    mk_report,
    reference_generate_dataset,
    reference_split_dataset,
)
from oracles import inject_fault as oracle_inject_fault


def dataset_of(labels, features=None):
    """A dataset with these labels; sample i has ue_id i and tick 1."""
    n = len(labels)
    features = (np.zeros((n, N_FEATURES)) if features is None
                else np.asarray(features, dtype=np.float64))
    return np.rec.fromarrays(
        [features, np.asarray(labels), np.arange(n), np.ones(n)], dtype=DATASET_DTYPE
    )


def dataset_line(label, ue_id, tick, feature="1"):
    """A dataset CSV line: N_FEATURES copies of `feature`, then the label,
    ue_id and tick."""
    return ",".join([feature] * N_FEATURES + [str(label), str(ue_id), str(tick)]) + "\n"


def row_keys(samples):
    """The (tick, ue_id) of every sample, in order."""
    return [(int(s.tick), int(s.ue_id)) for s in samples]


class TestAnomalyClass:
    def test_codes_are_stable(self):
        assert [int(c) for c in AnomalyClass] == [0, 1, 2, 3]
        assert AnomalyClass.NORMAL == 0
        assert AnomalyClass.RSRP_ERROR == 1
        assert AnomalyClass.RSRQ_ERROR == 2
        assert AnomalyClass.SINR_ERROR == 3

    def test_fault_spec_rejects_normal(self):
        with pytest.raises(DomainError):
            FaultSpec(AnomalyClass.NORMAL, -10.0, 1.0, 10)

    @pytest.mark.parametrize("cls", [7, True, 1, AnomalyClass.NORMAL])
    def test_fault_spec_takes_only_an_error_class(self, cls):
        # inject_faults reads any class but the three as a SINR error
        with pytest.raises(DomainError, match="a fault's class must be an error class"):
            FaultSpec(cls, -20.0, 3.0, 10)

    @pytest.mark.parametrize("duration_ticks", [2.5, True, 0])
    def test_fault_spec_rejects_a_duration_that_is_not_a_tick_count(self, duration_ticks):
        # set_fault would store an until_tick of 2.5, or of 1 for True
        with pytest.raises(DomainError, match="duration_ticks must be (an integer|>= 1)"):
            FaultSpec(AnomalyClass.RSRP_ERROR, -20.0, 3.0, duration_ticks)

    @pytest.mark.parametrize("offset_db", [np.nan, np.inf, -np.inf])
    def test_fault_spec_rejects_non_finite_offset(self, offset_db):
        # it would corrupt reports into non-finite features
        with pytest.raises(DomainError, match="offset_db must be finite"):
            FaultSpec(AnomalyClass.RSRP_ERROR, offset_db, 1.0, 5)


def mk_channel(**kwargs):
    return mk_report(**kwargs).channel


def inject_specs(channel, rows, specs, rng):
    """`inject_faults` with the fault specs[k] on row rows[k], given as the
    class, offset and jitter columns a SimState holds."""
    n = len(channel.rsrp_dbm)
    cls, offset_db, jitter_db = np.zeros(n, dtype=np.int64), np.zeros(n), np.zeros(n)
    for row, spec in zip(rows, specs):
        cls[row], offset_db[row], jitter_db[row] = spec.cls, spec.offset_db, spec.jitter_db
    return inject_faults(channel, np.array(rows, dtype=np.int64), cls, offset_db, jitter_db, rng)


def inject_fault(channel, spec, rng):
    """`inject_faults` on a one-row channel."""
    return channel_row(inject_specs(columns_of([channel]), [0], [spec], rng), 0)


class TestInjectFault:
    def test_zero_fault_value_identical(self):
        ch = mk_channel(rsrp=-90.0, rsrq=-3.0, sinr=12.0, cqi=cqi_table_scan(12.0))
        spec = FaultSpec(AnomalyClass.SINR_ERROR, 0.0, 0.0, 10)
        out = inject_fault(ch, spec, np.random.default_rng(0))
        assert out == ch

    def test_rsrp_field_isolation(self):
        ch = mk_channel(rsrp=-90.0, rsrq=-4.0, sinr=8.0, cqi=8)
        spec = FaultSpec(AnomalyClass.RSRP_ERROR, -20.0, 0.0, 10)
        out = inject_fault(ch, spec, np.random.default_rng(0))
        assert out.rsrp_dbm == -110.0
        assert out == replace(ch, rsrp_dbm=-110.0)

    def test_rsrq_clamped_to_zero(self):
        ch = mk_channel(rsrq=-1.0)
        spec = FaultSpec(AnomalyClass.RSRQ_ERROR, +5.0, 0.0, 10)
        out = inject_fault(ch, spec, np.random.default_rng(0))
        assert out.rsrq_db == 0.0

    def test_sinr_fault_recomputes_cqi(self):
        ch = mk_channel(sinr=12.0, cqi=cqi_table_scan(12.0))
        spec = FaultSpec(AnomalyClass.SINR_ERROR, -15.0, 0.0, 10)
        out = inject_fault(ch, spec, np.random.default_rng(0))
        assert out.sinr_db == -3.0
        assert cqi_table_scan(-3.0) == 2
        assert out.cqi == 2
        assert out.rsrp_dbm == ch.rsrp_dbm
        assert out.rsrq_db == ch.rsrq_db

    @pytest.mark.parametrize("k", range(len(rm.CQI_SINR_THRESHOLDS_DB)))
    def test_sinr_fault_cqi_at_each_threshold(self, k):
        # a corrupted SINR exactly at a CQI threshold, and one ulp below it
        threshold = rm.CQI_SINR_THRESHOLDS_DB[k]
        for offset in (threshold, np.nextafter(threshold, -np.inf)):
            ch = mk_channel(sinr=0.0, cqi=cqi_table_scan(0.0))
            out = inject_fault(ch, FaultSpec(AnomalyClass.SINR_ERROR, offset, 0.0, 10),
                               np.random.default_rng(0))
            assert out.sinr_db == offset
            assert out.cqi == cqi_table_scan(offset) == k + (offset == threshold)

    def test_jitter_bounded_and_deterministic(self):
        ch = mk_channel(rsrp=-90.0)
        spec = FaultSpec(AnomalyClass.RSRP_ERROR, -20.0, 3.0, 10)
        a = inject_fault(ch, spec, np.random.default_rng(4))
        b = inject_fault(ch, spec, np.random.default_rng(4))
        assert a == b
        assert -113.0 <= a.rsrp_dbm <= -107.0


class TestOneJitterDraw:
    """`inject_faults` draws every fault's jitter with one `rng.random(k)`.
    The offsets must be the doubles of one scalar `uniform(-j, j)` per fault,
    in order, and leave the generator where those calls leave it: a numpy
    whose `uniform` fuses `low + range * u` into one FMA fails here."""

    def _specs(self, k, seed, jitter_db=None):
        """k faults of mixed classes. Every offset is below -jitter, so a
        corrupted RSRQ of 0 dB stays below 0 and is not clipped."""
        rng = np.random.default_rng([k, seed])
        specs = []
        for i in range(k):
            cls = AnomalyClass(1 + (i + seed) % 3)
            jitter = float(rng.uniform(0.0, 4.0)) if jitter_db is None else jitter_db
            specs.append(FaultSpec(cls, -jitter - float(rng.uniform(0.5, 30.0)), jitter, 10))
        return specs

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("jitter_db", [None, 0.0, 3.0])
    @pytest.mark.parametrize("k", [1, 3, 12, 500])
    def test_offsets_and_state_equal_scalar_uniforms(self, k, jitter_db, seed):
        specs = self._specs(k, seed, jitter_db)
        n = 2 * k + 3
        rows = sorted(np.random.default_rng(seed).choice(n, size=k, replace=False).tolist())
        zero = np.zeros(n)
        channel = ChannelColumns(zero, zero, zero, zero, np.zeros(n, dtype=np.int64))
        ours, scalar = np.random.default_rng(seed), np.random.default_rng(seed)

        reported = inject_specs(channel, rows, specs, ours)
        expected = np.array([s.offset_db + scalar.uniform(-s.jitter_db, s.jitter_db) for s in specs])

        column = {
            AnomalyClass.RSRP_ERROR: reported.rsrp_dbm,
            AnomalyClass.RSRQ_ERROR: reported.rsrq_db,
            AnomalyClass.SINR_ERROR: reported.sinr_db,
        }
        # 0.0 + delta is delta, so each hit entry is the fault's delta
        deltas = np.array([column[s.cls][row] for s, row in zip(specs, rows)])
        assert deltas.tobytes() == expected.tobytes()
        assert ours.bit_generator.state == scalar.bit_generator.state

    def test_each_report_equals_its_scalar_corruption(self):
        # the per-report oracle draws one scalar uniform per fault, in row order
        reports = [mk_channel(rsrp=-90.0 - i, rsrq=-5.0 - i / 10, sinr=3.0 * i,
                              cqi=cqi_table_scan(3.0 * i)) for i in range(12)]
        specs = list(default_fault_specs().values()) * 4
        ours, scalar = np.random.default_rng(21), np.random.default_rng(21)
        got = inject_specs(columns_of(reports), list(range(12)), specs, ours)
        assert [channel_row(got, i) for i in range(12)] == [
            oracle_inject_fault(ch, spec.cls, spec.offset_db, spec.jitter_db, scalar)
            for ch, spec in zip(reports, specs)
        ]
        assert ours.bit_generator.state == scalar.bit_generator.state

    def test_cqi_changes_only_on_sinr_error_rows(self):
        # every CQI disagrees with its SINR, so a recompute of other rows shows
        n = 9
        sinr = np.linspace(-10.0, 30.0, n)
        channel = ChannelColumns(np.full(n, -90.0), np.full(n, -80.0), np.full(n, -5.0), sinr,
                                 (rm.cqi_from_sinr(sinr) + 8) % 16)
        specs = [FaultSpec(AnomalyClass(1 + i % 3), -6.0, 1.0, 10) for i in range(6)]
        rows = [0, 1, 3, 4, 6, 8]
        reported = inject_specs(channel, rows, specs, np.random.default_rng(3))
        sinr_rows = {row for row, spec in zip(rows, specs) if spec.cls == AnomalyClass.SINR_ERROR}
        scanned = [cqi_table_scan(v) for v in reported.sinr_db.tolist()]
        assert all(channel.cqi[i] != scanned[i] for i in range(n) if i not in sinr_rows)
        assert reported.cqi.tolist() == [scanned[i] if i in sinr_rows else c
                                         for i, c in enumerate(channel.cqi.tolist())]

    @pytest.mark.parametrize("jitter_db", [float("inf"), float("nan"), -1.0])
    def test_jitter_must_be_finite_and_non_negative(self, jitter_db):
        with pytest.raises(DomainError, match="jitter_db"):
            FaultSpec(AnomalyClass.RSRP_ERROR, -20.0, jitter_db, 10)


class TestExtractFeatures:
    def _triple(self):
        report = mk_report(
            ue_id=0, cell_id=0, tick=9, rsrp=-95.0, rsrq=-8.0, sinr=6.0, cqi=7,
            demand=4.0, priority=3, achieved=2.1,
        )
        predicted = np.array([2.4])
        plan = mk_plan(9, [0], [5])
        return report, predicted, plan

    def test_packing_order(self):
        report, predicted, plan = self._triple()
        vec = extract_features(mk_batch([report]), predicted, plan, 0)
        assert vec.tolist() == [-95.0, -8.0, 6.0, 7.0, 2.1, 2.4, 0.1, 3.0]
        assert vec.shape == (N_FEATURES,)
        assert np.isfinite(vec).all()

    def test_zero_grant(self):
        report, _, _ = self._triple()
        plan = mk_plan(9, [0], [0])
        vec = extract_features(mk_batch([report]), np.array([0.0]), plan, 0)
        assert vec[5] == 0.0
        assert vec[6] == 0.0

    def test_mismatches_rejected(self):
        report, predicted, plan = self._triple()
        with pytest.raises(DomainError):
            extract_features(mk_batch([report]), np.array([2.4, 2.4]), plan, 0)
        with pytest.raises(DomainError):
            extract_features(mk_batch([report]), predicted, replace(plan, tick=8), 0)

    def test_matrix_rows_equal_single_extraction(self):
        reports = [mk_report(ue_id=u, tick=9, rsrp=-80.0 - u, achieved=0.3 * u) for u in range(5)]
        predicted = np.array([0.7 * u for u in range(5)])
        plan = mk_plan(9, list(range(5)), [3, 0, 9, 0, 1])
        x = feature_matrix(mk_batch(reports), predicted, plan)
        assert x.shape == (5, N_FEATURES)
        for i, (row, r) in enumerate(zip(x, reports)):
            ch = r.channel
            assert row.tolist() == [ch.rsrp_dbm, ch.rsrq_db, ch.sinr_db, float(ch.cqi),
                                    r.achieved_mbps, 0.7 * i, plan.grant[i] / 50,
                                    float(r.priority)]
            assert np.array_equal(row, extract_features(mk_batch(reports), predicted, plan, i))
        empty = mk_plan(9, [], [])
        assert feature_matrix(mk_batch([], tick=9), np.zeros(0), empty).shape == (0, N_FEATURES)

    def test_matrix_checks_every_report(self):
        report, _, _ = self._triple()
        other = replace(report, ue_id=1)
        plan = mk_plan(9, [0, 1], [5, 0])
        assert feature_matrix(mk_batch([report, other]), np.zeros(2), plan).shape == (2, N_FEATURES)
        for batch, predicted, reason in (
            (mk_batch([report, other]), np.zeros(1), "predictions"),
            (mk_batch([replace(report, tick=8), replace(other, tick=8)]), np.zeros(2), "tick"),
            (mk_batch([report]), np.zeros(1), "made for 2 reports"),
        ):
            with pytest.raises(DomainError, match=reason):
                feature_matrix(batch, predicted, plan)


class TestGenerateDataset:
    def test_default_counts_largest_remainder(self, default_dataset):
        counts = Counter(int(s.label) for s in default_dataset)
        assert len(default_dataset) == 2505
        assert counts == {0: 627, 1: 626, 2: 626, 3: 626}

    def test_one_record_array_in_report_order(self, default_dataset):
        assert isinstance(default_dataset, np.recarray)
        assert default_dataset.dtype == DATASET_DTYPE
        assert default_dataset.features.shape == (2505, N_FEATURES)
        first = next(iter(default_dataset))
        assert first.features.shape == (N_FEATURES,) and int(first.label) == default_dataset.label[0]
        # strictly increasing (tick, ue_id): each sample is a distinct report
        keys = row_keys(default_dataset)
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_all_normal_mix(self):
        config = ran_sim.SimConfig(n_ues=10, n_ticks=120)
        samples = generate_dataset(config, 60, (1.0, 0.0, 0.0, 0.0), default_fault_specs(), 3)
        assert all(s.label == AnomalyClass.NORMAL for s in samples)
        assert len(samples) == 60

    def test_deterministic(self):
        config = ran_sim.SimConfig(n_ues=12, n_ticks=400)
        a = generate_dataset(config, 200, (0.25,) * 4, default_fault_specs(), 5)
        b = generate_dataset(config, 200, (0.25,) * 4, default_fault_specs(), 5)
        assert len(a) == len(b) == 200
        for sa, sb in zip(a, b):
            assert sa.label == sb.label and sa.ue_id == sb.ue_id and sa.tick == sb.tick
            assert np.array_equal(sa.features, sb.features)

    def test_bad_mix_rejected(self):
        config = ran_sim.SimConfig(n_ues=5, n_ticks=50)
        with pytest.raises(ConfigurationError):
            generate_dataset(config, 10, (0.5, 0.5, 0.5, -0.5), default_fault_specs(), 1)
        with pytest.raises(ConfigurationError):
            generate_dataset(config, 10, (0.3, 0.3, 0.3, 0.3), default_fault_specs(), 1)
        with pytest.raises(ConfigurationError):
            generate_dataset(config, 0, (0.25,) * 4, default_fault_specs(), 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_mix_rejected(self, bad):
        config = ran_sim.SimConfig(n_ues=5, n_ticks=50)
        with pytest.raises(ConfigurationError, match="finite"):
            generate_dataset(config, 10, (bad, 0.5, 0.5, 0.0), default_fault_specs(), 1)

    def test_horizon_too_short_raises(self):
        config = ran_sim.SimConfig(n_ues=5, n_ticks=25)
        with pytest.raises(ConfigurationError, match="quota"):
            generate_dataset(config, 5000, (0.25,) * 4, default_fault_specs(), 1)

    def test_label_faithfulness_via_field_signature(self):
        # RSRP faults shift rsrp by -20 +/- 3; normal samples keep
        # rsrp consistent with rssi (rssi >= rsrp since it adds power)
        config = ran_sim.SimConfig(n_ues=12, n_ticks=400)
        samples = generate_dataset(
            config, 200, (0.5, 0.5, 0.0, 0.0),
            {AnomalyClass.RSRP_ERROR: FaultSpec(AnomalyClass.RSRP_ERROR, -120.0, 0.0, 40)},
            seed=6,
        )
        for s in samples:
            if s.label == AnomalyClass.RSRP_ERROR:
                assert s.features[0] < -140.0  # impossible without the fault
            else:
                assert s.features[0] > -140.0


class TestGenerateDatasetMatchesPools:
    """`generate_dataset` harvests whole ticks and cuts each class's pool at
    the end; the per-class pools of `reference_generate_dataset` cut it tick
    by tick. The record arrays must be equal byte for byte."""

    CASES = {
        # id: (config, n_samples, class_mix, seed)
        "defaults-seed0": (ran_sim.SimConfig(), 2505, (0.25,) * 4, 0),
        "defaults-seed1": (ran_sim.SimConfig(), 2505, (0.25,) * 4, 1),
        "defaults-seed2": (ran_sim.SimConfig(), 2505, (0.25,) * 4, 2),
        "one-concurrent-fault": (ran_sim.SimConfig(n_ues=12, n_ticks=400), 200, (0.25,) * 4, 5),
        "rsrq-fraction-0": (ran_sim.SimConfig(n_ues=24, n_ticks=400), 300, (0.4, 0.3, 0.0, 0.3), 2),
        "normal-fraction-0": (ran_sim.SimConfig(n_ues=24, n_ticks=600), 90, (0.0, 0.3, 0.3, 0.4), 4),
        "all-normal": (ran_sim.SimConfig(n_ues=10, n_ticks=120), 60, (1.0, 0.0, 0.0, 0.0), 3),
        "normal-pool-capped": (ran_sim.SimConfig(n_ues=50, n_ticks=400), 400,
                               (0.05, 0.3, 0.35, 0.3), 9),
        "1000-ues-19-cells": (ran_sim.SimConfig(n_ues=1000, n_cells=19, n_ticks=60), 800,
                              (0.25,) * 4, 1),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_bytes_equal_the_pools(self, case):
        config, n_samples, mix, seed = self.CASES[case]
        args = (config, n_samples, mix, default_fault_specs(), seed)
        ours, theirs = generate_dataset(*args), reference_generate_dataset(*args)
        assert isinstance(ours, np.recarray) and ours.dtype == DATASET_DTYPE
        assert ours.tobytes() == theirs.tobytes()

    def test_capped_pool_case_caps_the_normal_pool(self):
        # 20 Normal samples may come only from the first 4 * 20 + 8 = 88
        # Normal rows, about two ticks' worth, while the error quotas take
        # far longer to fill
        config, n_samples, mix, seed = self.CASES["normal-pool-capped"]
        data = generate_dataset(config, n_samples, mix, default_fault_specs(), seed)
        normal = data.tick[data.label == AnomalyClass.NORMAL]
        assert len(normal) == 20
        assert normal.max() + 10 < data.tick.max()

    def test_short_horizon_names_the_same_shortfall(self):
        config = ran_sim.SimConfig(n_ues=12, n_ticks=30)
        args = (config, 400, (0.25,) * 4, default_fault_specs(), 3)
        with pytest.raises(ConfigurationError) as ours:
            generate_dataset(*args)
        with pytest.raises(ConfigurationError) as theirs:
            reference_generate_dataset(*args)
        assert str(ours.value).startswith(str(theirs.value))


class TestSplitDataset:
    def test_default_split_is_2004_501(self, default_dataset):
        train, test = split_dataset(default_dataset, 0.8, seed=13)
        assert len(train) == 2004
        assert len(test) == 501
        train_counts = Counter(int(s.label) for s in train)
        test_counts = Counter(int(s.label) for s in test)
        assert all(v >= 500 for v in train_counts.values())
        assert all(v >= 125 for v in test_counts.values())

    def test_partition_is_exact(self, default_dataset):
        train, test = split_dataset(default_dataset, 0.8, seed=13)
        key = lambda s: (s.tick, s.ue_id, int(s.label))
        combined = sorted(map(key, train)) + sorted(map(key, test))
        assert sorted(combined) == sorted(map(key, default_dataset))
        assert not set(map(key, train)) & set(map(key, test))

    def test_degenerate_one_sample_per_class(self, caplog):
        data = dataset_of(range(4))
        with caplog.at_level(logging.WARNING):
            train, test = split_dataset(data, 0.5, seed=1)
        assert len(train) == 0
        assert len(test) == 4
        assert any("degenerate" in r.message for r in caplog.records)

    def test_deterministic(self, default_dataset):
        a = split_dataset(default_dataset, 0.8, seed=13)
        b = split_dataset(default_dataset, 0.8, seed=13)
        assert [(s.tick, s.ue_id) for s in a[0]] == [(s.tick, s.ue_id) for s in b[0]]
        assert [(s.tick, s.ue_id) for s in a[1]] == [(s.tick, s.ue_id) for s in b[1]]

    def test_bad_fraction(self):
        with pytest.raises(DomainError):
            split_dataset(dataset_of([0] * 4), 1.0, seed=1)
        with pytest.raises(DomainError):
            split_dataset(dataset_of([]), 0.5, seed=1)

    def _assert_matches_reference(self, data, fraction, seed):
        train, test = split_dataset(data, fraction, seed)
        ref_train, ref_test = reference_split_dataset(data, fraction, seed)
        assert row_keys(train) == row_keys(ref_train)
        assert row_keys(test) == row_keys(ref_test)

    def test_default_split_matches_reference(self, default_dataset):
        self._assert_matches_reference(default_dataset, 0.8, 13)

    @pytest.mark.parametrize("fraction", [0.1, 0.37, 0.5, 0.9])
    def test_matches_reference_over_seeds(self, default_dataset, fraction):
        for seed in (0, 1, 99):
            self._assert_matches_reference(default_dataset, fraction, seed)

    def test_small_classes_match_reference_and_warn(self, caplog):
        # RsrpError has 1 sample and RsrqError floor(0.3 * 2) = 0 train rows
        labels = [0] * 9 + [1] + [2] * 2 + [3] * 5
        data = dataset_of(np.random.default_rng(3).permutation(labels))
        for seed in range(5):
            self._assert_matches_reference(data, 0.3, seed)
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                train, _ = split_dataset(data, 0.3, seed)
            assert len(train) == 5
            assert any("degenerate" in r.message and "['RsrpError', 'RsrqError']" in r.message
                       for r in caplog.records)


class TestStandardize:
    def test_training_split_moments(self, default_dataset):
        train, _ = split_dataset(default_dataset, 0.8, seed=13)
        stats = FeatureStats.from_samples(train)
        z = np.stack([standardize(s.features, stats) for s in train])
        assert np.abs(z.mean(axis=0)).max() < 1e-9
        assert np.abs(z.std(axis=0) - 1.0).max() < 1e-9

    def test_identity_stats(self):
        stats = FeatureStats(mean=np.zeros(N_FEATURES), std=np.ones(N_FEATURES))
        x = np.arange(float(N_FEATURES))
        assert np.array_equal(standardize(x, stats), x)

    def test_means_map_to_zero(self):
        x = np.arange(float(N_FEATURES))
        stats = FeatureStats(mean=x, std=np.full(N_FEATURES, 2.0))
        assert np.array_equal(standardize(x, stats), np.zeros(N_FEATURES))

    def test_constant_feature_warns_and_uses_unit_std(self, caplog):
        rows = dataset_of([0] * 5, [[1.0, *[i] * (N_FEATURES - 3), 0.5, 2.0] for i in range(5)])
        with caplog.at_level(logging.WARNING):
            stats = FeatureStats.from_samples(rows)
        assert stats.std[0] == 1.0
        assert any("constant feature" in r.message for r in caplog.records)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DomainError, match="empty"):
            FeatureStats.from_samples(dataset_of([]))


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path, default_dataset):
        path = tmp_path / "data.csv"
        anomaly.write_dataset_csv(default_dataset[:100], path)
        again = anomaly.read_dataset_csv(path)
        assert len(again) == 100
        for a, b in zip(default_dataset[:100], again):
            assert a.label == b.label and a.ue_id == b.ue_id and a.tick == b.tick
            assert np.allclose(a.features, b.features, rtol=1e-9, atol=1e-12)

    def test_write_read_write_is_byte_identical(self, tmp_path, default_dataset):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        anomaly.write_dataset_csv(default_dataset, p1)
        first = anomaly.read_dataset_csv(p1)
        anomaly.write_dataset_csv(first, p2)
        assert p1.read_bytes() == p2.read_bytes()
        again = anomaly.read_dataset_csv(p2)
        assert first.dtype == again.dtype == DATASET_DTYPE
        for name in DATASET_DTYPE.names:
            assert np.array_equal(again[name], first[name])
        for name in ("label", "ue_id", "tick"):
            assert np.array_equal(first[name], default_dataset[name])

    def test_header_only_reads_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(anomaly.DATASET_HEADER + "\n")
        data = anomaly.read_dataset_csv(path)
        assert len(data) == 0 and data.dtype == DATASET_DTYPE
        assert data.features.shape == (0, N_FEATURES)

    def test_int64_overflow_rejected(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(anomaly.DATASET_HEADER + "\n" + dataset_line(0, 2**63, 5))
        with pytest.raises(DataFormatError, match="line 2: ue_id or tick outside int64"):
            anomaly.read_dataset_csv(path)

    def test_write_is_deterministic(self, tmp_path, default_dataset):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        anomaly.write_dataset_csv(default_dataset, p1)
        anomaly.write_dataset_csv(default_dataset, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            anomaly.DATASET_HEADER + "\n" + dataset_line(0, 1, 5) + dataset_line(0, 1, 6, "oops")
        )
        with pytest.raises(DataFormatError, match=f"^dataset file {re.escape(str(path))}: line 3: "):
            anomaly.read_dataset_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(DataFormatError, match="line 1"):
            anomaly.read_dataset_csv(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(anomaly.DATASET_HEADER + "\n" + dataset_line(7, 1, 5))
        with pytest.raises(DataFormatError, match="line 2"):
            anomaly.read_dataset_csv(path)

    def test_crlf_dataset_reads_like_its_lf_twin(self, tmp_path, default_dataset):
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        anomaly.write_dataset_csv(default_dataset[:50], lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        a, b = anomaly.read_dataset_csv(lf), anomaly.read_dataset_csv(crlf)
        for name in DATASET_DTYPE.names:
            assert np.array_equal(a[name], b[name])

    def test_crlf_stats_reads_like_its_lf_twin(self, tmp_path, default_dataset):
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        anomaly.write_stats_csv(FeatureStats.from_samples(default_dataset), lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        a, b = anomaly.read_stats_csv(lf), anomaly.read_stats_csv(crlf)
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.std, b.std)

    def test_stats_round_trip(self, tmp_path, default_dataset):
        train, _ = split_dataset(default_dataset, 0.8, seed=13)
        stats = FeatureStats.from_samples(train)
        path = tmp_path / "stats.csv"
        anomaly.write_stats_csv(stats, path)
        again = anomaly.read_stats_csv(path)
        assert np.allclose(stats.mean, again.mean, rtol=1e-9)
        assert np.allclose(stats.std, again.std, rtol=1e-9)

    def test_stats_missing_row_rejected(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text("feature,mean,std\nrsrp_dbm,0,1\n")
        with pytest.raises(DataFormatError,
                           match=f"^stats file {re.escape(str(path))}: missing feature rows"):
            anomaly.read_stats_csv(path)

    @staticmethod
    def unit_stats_lines():
        return [f"{name},0,1" for name in anomaly.FEATURE_NAMES]

    @pytest.mark.parametrize("mean, std", [("nan", "1"), ("0", "inf"), ("-inf", "1"), ("0", "nan")])
    def test_stats_non_finite_value_rejected_naming_line(self, tmp_path, mean, std):
        lines = self.unit_stats_lines()
        lines[2] = f"{anomaly.FEATURE_NAMES[2]},{mean},{std}"
        path = tmp_path / "stats.csv"
        path.write_text("feature,mean,std\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 4: non-finite"):
            anomaly.read_stats_csv(path)

    def test_stats_repeated_row_rejected_naming_line(self, tmp_path):
        # the repeat would otherwise overwrite the first row's values
        lines = self.unit_stats_lines() + [f"{anomaly.FEATURE_NAMES[0]},5,2"]
        path = tmp_path / "stats.csv"
        path.write_text("feature,mean,std\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=f"line {len(lines) + 1}: repeated"):
            anomaly.read_stats_csv(path)


class TestWriteCsv:
    def test_field_rules(self, tmp_path):
        path = tmp_path / "t.csv"
        anomaly.write_csv(path, "a,b,c", [(1 / 3, 1e-300, np.float64(1 / 3)), (7, None, "x")])
        assert path.read_bytes() == b"a,b,c\n0.333333333333,1e-300,0.333333333333\n7,,x\n"
