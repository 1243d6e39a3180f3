import logging
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from rantwin import anomaly, ran_sim
from rantwin.anomaly import (
    AnomalyClass,
    FaultSpec,
    FeatureStats,
    LabeledSample,
    default_fault_specs,
    extract_features,
    feature_matrix,
    generate_dataset,
    inject_fault,
    split_dataset,
    standardize,
)
from rantwin.errors import ConfigurationError, DataFormatError, DomainError
from rantwin.twin_engine import AllocationPlan

from oracles import cqi_table_scan, mk_batch, mk_report


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


def mk_channel(**kwargs):
    return mk_report(**kwargs).channel


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

    def test_jitter_bounded_and_deterministic(self):
        ch = mk_channel(rsrp=-90.0)
        spec = FaultSpec(AnomalyClass.RSRP_ERROR, -20.0, 3.0, 10)
        a = inject_fault(ch, spec, np.random.default_rng(4))
        b = inject_fault(ch, spec, np.random.default_rng(4))
        assert a == b
        assert -113.0 <= a.rsrp_dbm <= -107.0


class TestExtractFeatures:
    def _triple(self):
        report = mk_report(
            ue_id=3, cell_id=0, tick=9, rsrp=-95.0, rsrq=-8.0, sinr=6.0, cqi=7,
            demand=4.0, priority=3, achieved=2.1,
        )
        predicted = np.array([2.4])
        plan = AllocationPlan(tick=9, grants={3: 5}, cell_totals={0: 50})
        return report, predicted, plan

    def test_packing_order(self):
        report, predicted, plan = self._triple()
        vec = extract_features(mk_batch([report]), predicted, plan, 0)
        assert vec.tolist() == [-95.0, -8.0, 6.0, 7.0, 2.1, 2.4, 0.1, 3.0]
        assert vec.shape == (8,)
        assert np.isfinite(vec).all()

    def test_zero_grant(self):
        report, _, _ = self._triple()
        plan = AllocationPlan(tick=9, grants={}, cell_totals={0: 50})
        vec = extract_features(mk_batch([report]), np.array([0.0]), plan, 0)
        assert vec[5] == 0.0
        assert vec[6] == 0.0

    def test_mismatches_rejected(self):
        report, predicted, plan = self._triple()
        with pytest.raises(DomainError):
            extract_features(mk_batch([report]), np.array([2.4, 2.4]), plan, 0)
        with pytest.raises(DomainError):
            extract_features(mk_batch([report]), predicted, AllocationPlan(8, {3: 5}, {0: 50}), 0)

    def test_matrix_rows_equal_single_extraction(self):
        reports = [mk_report(ue_id=u, tick=9, rsrp=-80.0 - u, achieved=0.3 * u) for u in range(5)]
        predicted = np.array([0.7 * u for u in range(5)])
        plan = AllocationPlan(tick=9, grants={0: 3, 2: 9, 4: 1}, cell_totals={0: 50})
        x = feature_matrix(mk_batch(reports), predicted, plan)
        assert x.shape == (5, 8)
        for i, (row, r) in enumerate(zip(x, reports)):
            ch = r.channel
            assert row.tolist() == [ch.rsrp_dbm, ch.rsrq_db, ch.sinr_db, float(ch.cqi),
                                    r.achieved_mbps, 0.7 * i, plan.grants.get(r.ue_id, 0) / 50,
                                    float(r.priority)]
            assert np.array_equal(row, extract_features(mk_batch(reports), predicted, plan, i))
        assert feature_matrix(mk_batch([], tick=9), np.zeros(0), plan).shape == (0, 8)

    def test_matrix_checks_every_report(self):
        report, predicted, plan = self._triple()
        other = replace(report, ue_id=4)
        for batch, bad_predicted in (
            (mk_batch([report, other]), predicted),
            (mk_batch([replace(report, tick=8), replace(other, tick=8)]), np.zeros(2)),
            (mk_batch([report, replace(other, serving_cell=1)]), np.zeros(2)),
        ):
            with pytest.raises(DomainError):
                feature_matrix(batch, bad_predicted, plan)


class TestGenerateDataset:
    def test_default_counts_largest_remainder(self, default_dataset):
        counts = Counter(int(s.label) for s in default_dataset)
        assert len(default_dataset) == 2505
        assert counts == {0: 627, 1: 626, 2: 626, 3: 626}

    def test_samples_own_their_features(self, default_dataset):
        # a view into the tick's feature matrix would keep the whole matrix alive
        assert all(s.features.base is None for s in default_dataset)
        assert {s.features.shape for s in default_dataset} == {(8,)}

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
        data = [
            LabeledSample(np.zeros(8), AnomalyClass(c), ue_id=c, tick=1) for c in range(4)
        ]
        with caplog.at_level(logging.WARNING):
            train, test = split_dataset(data, 0.5, seed=1)
        assert train == []
        assert len(test) == 4
        assert any("degenerate" in r.message for r in caplog.records)

    def test_deterministic(self, default_dataset):
        a = split_dataset(default_dataset, 0.8, seed=13)
        b = split_dataset(default_dataset, 0.8, seed=13)
        assert [(s.tick, s.ue_id) for s in a[0]] == [(s.tick, s.ue_id) for s in b[0]]
        assert [(s.tick, s.ue_id) for s in a[1]] == [(s.tick, s.ue_id) for s in b[1]]

    def test_bad_fraction(self):
        data = [LabeledSample(np.zeros(8), AnomalyClass.NORMAL, 0, 1)] * 4
        with pytest.raises(DomainError):
            split_dataset(data, 1.0, seed=1)
        with pytest.raises(DomainError):
            split_dataset([], 0.5, seed=1)


class TestStandardize:
    def test_training_split_moments(self, default_dataset):
        train, _ = split_dataset(default_dataset, 0.8, seed=13)
        stats = FeatureStats.from_samples(train)
        z = np.stack([standardize(s.features, stats) for s in train])
        assert np.abs(z.mean(axis=0)).max() < 1e-9
        assert np.abs(z.std(axis=0) - 1.0).max() < 1e-9

    def test_identity_stats(self):
        stats = FeatureStats(mean=np.zeros(8), std=np.ones(8))
        x = np.arange(8.0)
        assert np.array_equal(standardize(x, stats), x)

    def test_means_map_to_zero(self):
        stats = FeatureStats(mean=np.arange(8.0), std=np.full(8, 2.0))
        assert np.array_equal(standardize(np.arange(8.0), stats), np.zeros(8))

    def test_constant_feature_warns_and_uses_unit_std(self, caplog):
        rows = [
            LabeledSample(np.array([1.0, i, i, i, i, i, 0.5, 2.0]), AnomalyClass.NORMAL, 0, i)
            for i in range(5)
        ]
        with caplog.at_level(logging.WARNING):
            stats = FeatureStats.from_samples(rows)
        assert stats.std[0] == 1.0
        assert any("constant feature" in r.message for r in caplog.records)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path, default_dataset):
        path = tmp_path / "data.csv"
        anomaly.write_dataset_csv(default_dataset[:100], path)
        again = anomaly.read_dataset_csv(path)
        assert len(again) == 100
        for a, b in zip(default_dataset[:100], again):
            assert a.label == b.label and a.ue_id == b.ue_id and a.tick == b.tick
            assert np.allclose(a.features, b.features, rtol=1e-9, atol=1e-12)

    def test_write_is_deterministic(self, tmp_path, default_dataset):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        anomaly.write_dataset_csv(default_dataset, p1)
        anomaly.write_dataset_csv(default_dataset, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            anomaly.DATASET_HEADER + "\n"
            + "-90,-3,10,9,1,1,0.1,2,0,1,5\n"
            + "-90,-3,oops,9,1,1,0.1,2,0,1,6\n"
        )
        with pytest.raises(DataFormatError, match="line 3"):
            anomaly.read_dataset_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(DataFormatError, match="line 1"):
            anomaly.read_dataset_csv(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(anomaly.DATASET_HEADER + "\n" + "-90,-3,10,9,1,1,0.1,2,7,1,5\n")
        with pytest.raises(DataFormatError, match="line 2"):
            anomaly.read_dataset_csv(path)

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
        with pytest.raises(DataFormatError, match="missing"):
            anomaly.read_stats_csv(path)
