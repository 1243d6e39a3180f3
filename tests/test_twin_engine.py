import math

import numpy as np
import pytest

from rantwin import radio_model, twin_engine
from rantwin.errors import DomainError
from rantwin.radio_model import LinkBudgetParams
from rantwin.twin_engine import allocate_prbs, twin_tick

from oracles import (
    allocation_objective,
    brute_force_best_objective,
    linear_scan_allocation,
    mk_batch,
    mk_cell,
    mk_report,
    weight_array,
)

PARAMS = LinkBudgetParams()


def predicted_mbps(report, total_prbs):
    """twin_tick's predicted throughput for one UE alone in a cell."""
    plan, predicted, _ = twin_tick(mk_batch([report]), [mk_cell(total_prbs=total_prbs)], PARAMS)
    return plan.grants[report.ue_id], predicted[0]


class TestPredictThroughput:
    def test_zero_grant(self):
        grant, predicted = predicted_mbps(mk_report(sinr=20.0, cqi=12, demand=0.0), 25)
        assert grant == 0
        assert predicted == 0.0

    def test_cqi_zero_is_zero_regardless_of_sinr(self):
        assert twin_engine.per_prb_rate_mbps(35.0, 0, PARAMS) == 0.0
        assert predicted_mbps(mk_report(sinr=35.0, cqi=0, demand=1e9), 25) == (0, 0.0)

    def test_hand_evaluated_example(self):
        # evaluate both branches of the min independently
        shannon = math.log2(1.0 + 10.0 ** (10.0 / 10.0))
        cap = 2.4063
        expected = 10 * 180e3 * min(shannon, cap) / 1e6
        grant, got = predicted_mbps(mk_report(sinr=10.0, cqi=9, demand=1e9), 10)
        assert grant == 10
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(4.33, abs=0.01)


class TestAllocatePrbs:
    def test_single_ue_gets_everything(self):
        reports = [mk_report(ue_id=0, cqi=15, sinr=30.0, demand=1e9)]
        plan = allocate_prbs(mk_batch(reports), [mk_cell(total_prbs=10)], PARAMS)
        assert plan.grants[0] == 10

    def test_priority_dominance(self):
        # equal channel and demand; the priority-4 UE is served first
        per_prb = twin_engine.per_prb_rate_mbps(30.0, 15, PARAMS)
        demand = 8 * per_prb
        reports = [
            mk_report(ue_id=0, cqi=15, sinr=30.0, demand=demand, priority=4),
            mk_report(ue_id=1, cqi=15, sinr=30.0, demand=demand, priority=1),
        ]
        plan = allocate_prbs(mk_batch(reports), [mk_cell(total_prbs=10)], PARAMS)
        assert plan.grants[0] >= plan.grants[1]
        assert plan.grants[0] * per_prb >= demand - 1e-9

    def test_matches_brute_force_on_spec_instance(self):
        reports = [
            mk_report(ue_id=0, cqi=15, sinr=30.0, demand=2.0, priority=2),
            mk_report(ue_id=1, cqi=7, sinr=5.0, demand=2.0, priority=2),
            mk_report(ue_id=2, cqi=7, sinr=5.0, demand=2.0, priority=2),
        ]
        cell = mk_cell(total_prbs=10)
        plan = allocate_prbs(mk_batch(reports), [cell], PARAMS)
        greedy = allocation_objective(plan.grants, reports, PARAMS)
        best = brute_force_best_objective(reports, 10, PARAMS)
        assert greedy == pytest.approx(best, rel=1e-9)

    def test_unknown_cell_rejected(self):
        with pytest.raises(DomainError):
            allocate_prbs(mk_batch([mk_report(cell_id=3)]), [mk_cell(cell_id=0)], PARAMS)

    def test_no_grants_beyond_demand(self):
        # tiny demand: leftover PRBs must not be dumped on satisfied UEs
        per_prb = twin_engine.per_prb_rate_mbps(30.0, 15, PARAMS)
        reports = [mk_report(ue_id=0, cqi=15, sinr=30.0, demand=1.5 * per_prb)]
        plan = allocate_prbs(mk_batch(reports), [mk_cell(total_prbs=10)], PARAMS)
        assert plan.grants[0] == 2

    def test_zero_rate_ues_get_nothing(self):
        reports = [mk_report(ue_id=0, cqi=0, sinr=-20.0, demand=5.0)]
        plan = allocate_prbs(mk_batch(reports), [mk_cell(total_prbs=10)], PARAMS)
        assert plan.grants[0] == 0

    def test_duplicate_ue_rejected(self):
        # two reports for one UE would otherwise both enter the cell's heap
        per_prb = twin_engine.per_prb_rate_mbps(30.0, 15, PARAMS)
        reports = [
            mk_report(ue_id=0, cqi=15, sinr=30.0, demand=per_prb),
            mk_report(ue_id=1, cqi=15, sinr=30.0, demand=20 * per_prb),
            mk_report(ue_id=0, cqi=15, sinr=30.0, demand=per_prb),
        ]
        with pytest.raises(DomainError, match="ue 0"):
            allocate_prbs(mk_batch(reports), [mk_cell(total_prbs=10)], PARAMS)
        cells = [mk_cell(cell_id=0), mk_cell(cell_id=1)]
        with pytest.raises(DomainError, match="ue 4"):
            allocate_prbs(mk_batch([mk_report(ue_id=4, cell_id=0), mk_report(ue_id=4, cell_id=1)]),
                          cells, PARAMS)


def _oracle_instance(rng):
    """Multi-cell instance mixing shared profiles (equal utilities), zero
    demand, zero and negative weight overrides and spare PRBs."""
    n_cells = int(rng.integers(1, 4))
    cells = [mk_cell(cell_id=c, total_prbs=int(rng.integers(1, 40))) for c in range(n_cells)]
    profiles = [
        (float(rng.uniform(-10, 30)), int(rng.integers(0, 16)),
         float(rng.uniform(0, 4)), int(rng.integers(1, 5)))
        for _ in range(2)
    ]
    demand_scale = float(rng.choice([0.2, 1.0, 5.0]))
    reports = []
    for ue_id in rng.permutation(60)[: int(rng.integers(1, 25))].tolist():
        if rng.random() < 0.4:
            sinr, cqi, demand, priority = profiles[int(rng.integers(0, 2))]
        else:
            sinr, cqi = float(rng.uniform(-10, 30)), int(rng.integers(0, 16))
            demand = 0.0 if rng.random() < 0.1 else float(rng.uniform(0, demand_scale))
            priority = int(rng.integers(1, 5))
        reports.append(mk_report(ue_id=ue_id, cell_id=int(rng.integers(0, n_cells)),
                                 sinr=sinr, cqi=cqi, demand=demand, priority=priority))
    weights = None
    if rng.random() < 0.5:
        weights = {
            r.ue_id: float(rng.choice([0.0, -1.0, 0.5, 3.0]))
            for r in reports if rng.random() < 0.4
        }
    return reports, cells, weights


class TestHeapMatchesLinearScan:
    def test_random_multi_cell_instances(self):
        rng = np.random.default_rng(21)
        covered = dict.fromkeys(("tie", "zero_demand", "nonpositive_weight", "spare_prbs"), 0)
        for _ in range(300):
            reports, cells, weights = _oracle_instance(rng)
            plan = allocate_prbs(mk_batch(reports), cells, PARAMS, weight_array(reports, weights))
            assert plan.grants == linear_scan_allocation(reports, cells, PARAMS, weights)

            keys = [(r.serving_cell, r.channel.sinr_db, r.channel.cqi, r.demand_mbps,
                     (weights or {}).get(r.ue_id, r.priority)) for r in reports]
            covered["tie"] += len(set(keys)) < len(keys)
            covered["zero_demand"] += any(r.demand_mbps == 0.0 for r in reports)
            covered["nonpositive_weight"] += any(w <= 0.0 for w in (weights or {}).values())
            for cell in cells:
                used = sum(plan.grants[r.ue_id] for r in reports if r.serving_cell == cell.cell_id)
                covered["spare_prbs"] += used < cell.total_prbs
        assert all(count > 0 for count in covered.values()), covered

    def test_ties_go_to_lowest_ue_id(self):
        per_prb = twin_engine.per_prb_rate_mbps(30.0, 15, PARAMS)
        reports = [
            mk_report(ue_id=u, cqi=15, sinr=30.0, demand=2 * per_prb) for u in (9, 4, 7, 2)
        ]
        plan = allocate_prbs(mk_batch(reports), [mk_cell(total_prbs=5)], PARAMS)
        assert plan.grants == {9: 0, 4: 2, 7: 1, 2: 2}
        assert plan.grants == linear_scan_allocation(reports, [mk_cell(total_prbs=5)], PARAMS)


def _random_instance(rng, max_ues=3, max_prbs=12):
    n_ues = int(rng.integers(1, max_ues + 1))
    total = int(rng.integers(1, max_prbs + 1))
    reports = []
    for ue in range(n_ues):
        sinr = float(rng.uniform(-10.0, 30.0))
        cqi = int(rng.integers(0, 16))
        reports.append(
            mk_report(
                ue_id=ue,
                sinr=sinr,
                cqi=cqi,
                demand=float(rng.uniform(0.0, 6.0)),
                priority=int(rng.integers(1, 5)),
            )
        )
    return reports, mk_cell(total_prbs=total)


class TestGreedyProperties:
    def test_within_five_percent_of_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            reports, cell = _random_instance(rng)
            plan = allocate_prbs(mk_batch(reports), [cell], PARAMS)
            greedy = allocation_objective(plan.grants, reports, PARAMS)
            best = brute_force_best_objective(reports, cell.total_prbs, PARAMS)
            assert greedy >= best * 0.95 - 1e-12

    def test_feasibility_random_instances(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            n_cells = int(rng.integers(1, 4))
            cells = [mk_cell(cell_id=c, total_prbs=int(rng.integers(1, 20))) for c in range(n_cells)]
            reports = [
                mk_report(
                    ue_id=u,
                    cell_id=int(rng.integers(0, n_cells)),
                    sinr=float(rng.uniform(-10, 30)),
                    cqi=int(rng.integers(0, 16)),
                    demand=float(rng.uniform(0, 8)),
                    priority=int(rng.integers(1, 5)),
                )
                for u in range(int(rng.integers(1, 10)))
            ]
            plan = allocate_prbs(mk_batch(reports), cells, PARAMS)
            for cell in cells:
                used = sum(
                    g for ue, g in plan.grants.items()
                    if next(r for r in reports if r.ue_id == ue).serving_cell == cell.cell_id
                )
                assert used <= cell.total_prbs
            assert all(g >= 0 for g in plan.grants.values())

    def test_raising_priority_never_reduces_grant(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            reports, cell = _random_instance(rng, max_ues=3, max_prbs=12)
            target = int(rng.integers(0, len(reports)))
            base = allocate_prbs(mk_batch(reports), [cell], PARAMS)
            bumped_reports = [
                r if i != target else mk_report(
                    ue_id=r.ue_id, sinr=r.channel.sinr_db, cqi=r.channel.cqi,
                    demand=r.demand_mbps, priority=min(4, r.priority + 1),
                )
                for i, r in enumerate(reports)
            ]
            bumped = allocate_prbs(mk_batch(bumped_reports), [cell], PARAMS)
            assert bumped.grants[reports[target].ue_id] >= base.grants[reports[target].ue_id]

    def test_demand_cap_with_granularity_slack(self):
        rng = np.random.default_rng(20)
        for _ in range(40):
            reports, cell = _random_instance(rng)
            plan, predicted, _ = twin_tick(mk_batch(reports), [cell], PARAMS)
            for report, predicted_mbps in zip(reports, predicted):
                per_prb = twin_engine.per_prb_rate_mbps(
                    report.channel.sinr_db, report.channel.cqi, PARAMS
                )
                assert predicted_mbps <= report.demand_mbps + per_prb + 1e-12


class TestTwinTick:
    def test_empty_reports(self):
        plan, predicted, elapsed = twin_tick(mk_batch([]), [mk_cell()], PARAMS)
        assert plan.grants == {}
        assert len(predicted) == 0
        assert elapsed >= 0.0

    def test_one_kpi_per_report(self):
        reports = [mk_report(ue_id=u, demand=2.0) for u in range(5)]
        plan, predicted, _ = twin_tick(mk_batch(reports), [mk_cell(total_prbs=20)], PARAMS)
        assert len(predicted) == len(reports)
        assert list(plan.grants) == [r.ue_id for r in reports]

    def test_kpis_match_predict_throughput(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            reports, cells, weights = _oracle_instance(rng)
            plan, predicted, _ = twin_tick(mk_batch(reports), cells, PARAMS,
                                           weight_array(reports, weights))
            for report, predicted_mbps, se in zip(reports, predicted, plan.spectral_efficiency):
                sinr, cqi = report.channel.sinr_db, report.channel.cqi
                grant = plan.grants[report.ue_id]
                assert predicted_mbps == grant * twin_engine.per_prb_rate_mbps(sinr, cqi, PARAMS)
                assert se == radio_model.spectral_efficiency_bps_hz(sinr, cqi)

    def test_weight_override_changes_allocation(self):
        per_prb = twin_engine.per_prb_rate_mbps(30.0, 15, PARAMS)
        reports = [
            mk_report(ue_id=0, cqi=15, sinr=30.0, demand=20 * per_prb, priority=1),
            mk_report(ue_id=1, cqi=15, sinr=30.0, demand=20 * per_prb, priority=1),
        ]
        cell = mk_cell(total_prbs=10)
        base, _, _ = twin_tick(mk_batch(reports), [cell], PARAMS)
        boosted, _, _ = twin_tick(mk_batch(reports), [cell], PARAMS,
                                  weights=weight_array(reports, {1: 2.0}))
        assert boosted.grants[1] >= base.grants[1]
        assert boosted.grants[1] == 10


class TestTopKEdgeCases:
    """The top-K allocator against the linear scan where its derivation has
    edges: full groups larger than the cell, exact remainders, zero rates,
    non-positive weights, arbitrary ue_ids, no reports and one-PRB cells."""

    @staticmethod
    def _grants(reports, cells, overrides=None):
        plan = allocate_prbs(mk_batch(reports), cells, PARAMS, weight_array(reports, overrides))
        assert plan.grants == linear_scan_allocation(reports, cells, PARAMS, overrides)
        return plan.grants

    def test_full_prbs_beyond_the_cell_total(self):
        per_prb = twin_engine.per_prb_rate_mbps(30.0, 15, PARAMS)
        reports = [
            mk_report(ue_id=0, cqi=15, sinr=30.0, demand=40 * per_prb, priority=1),
            mk_report(ue_id=1, cqi=15, sinr=30.0, demand=40 * per_prb, priority=2),
            mk_report(ue_id=2, cqi=9, sinr=10.0, demand=1e9, priority=4),
        ]
        assert self._grants(reports, [mk_cell(total_prbs=10)]) == {0: 0, 1: 10, 2: 0}

    def test_demand_an_exact_multiple_of_the_rate(self):
        per_prb = twin_engine.per_prb_rate_mbps(30.0, 15, PARAMS)
        # two PRBs of demand leave exactly 0.0, so no third PRB
        assert 2 * per_prb - per_prb - per_prb == 0.0
        # seven leave one ulp-sized remainder after seven subtractions, which
        # wins an eighth PRB; demand - 7 * rate would be 0.0 instead
        remaining = 7 * per_prb
        for _ in range(7):
            remaining -= per_prb
        assert remaining > 0.0 and 7 * per_prb - 7 * per_prb == 0.0
        reports = [
            mk_report(ue_id=0, cqi=15, sinr=30.0, demand=2 * per_prb),
            mk_report(ue_id=1, cqi=15, sinr=30.0, demand=7 * per_prb),
        ]
        assert self._grants(reports, [mk_cell(total_prbs=20)]) == {0: 2, 1: 8}

    def test_cqi_zero_has_no_rate(self):
        reports = [
            mk_report(ue_id=0, cqi=0, sinr=-20.0, demand=5.0, priority=4),
            mk_report(ue_id=1, cqi=0, sinr=35.0, demand=5.0, priority=4),
            mk_report(ue_id=2, cqi=9, sinr=10.0, demand=1.0),
        ]
        assert self._grants(reports, [mk_cell(total_prbs=10)]) == {0: 0, 1: 0, 2: 3}

    def test_zero_and_negative_weights(self):
        reports = [mk_report(ue_id=u, cqi=15, sinr=30.0, demand=3.0) for u in range(3)]
        grants = self._grants(reports, [mk_cell(total_prbs=10)], {0: 0.0, 1: -1.0})
        assert grants == {0: 0, 1: 0, 2: 4}

    def test_unsorted_non_contiguous_ue_ids(self):
        per_prb = twin_engine.per_prb_rate_mbps(30.0, 15, PARAMS)
        reports = [
            mk_report(ue_id=u, cell_id=c, cqi=15, sinr=30.0, demand=2 * per_prb)
            for u, c in ((42, 1), (7, 0), (19, 1), (3, 0), (88, 0))
        ]
        cells = [mk_cell(cell_id=0, total_prbs=3), mk_cell(cell_id=1, total_prbs=3)]
        grants = self._grants(reports, cells)
        assert grants == {42: 1, 7: 1, 19: 2, 3: 2, 88: 0}
        assert list(grants) == [42, 7, 19, 3, 88]

    def test_empty_batch(self):
        plan = allocate_prbs(mk_batch([], tick=4), [mk_cell()], PARAMS)
        assert plan.grants == {}
        assert plan.tick == 4

    def test_cell_with_one_prb(self):
        reports = [
            mk_report(ue_id=u, cell_id=u % 2, cqi=12, sinr=20.0, demand=4.0) for u in (5, 2, 9, 4)
        ]
        cells = [mk_cell(cell_id=0, total_prbs=1), mk_cell(cell_id=1, total_prbs=1)]
        assert self._grants(reports, cells) == {5: 1, 2: 1, 9: 0, 4: 0}


class TestBatchChecks:
    def test_duplicate_ue_id_named(self):
        reports = [mk_report(ue_id=u) for u in (31, 8, 31, 2)]
        with pytest.raises(DomainError, match="more than one report for ue 31"):
            allocate_prbs(mk_batch(reports), [mk_cell()], PARAMS)

    def test_unknown_serving_cell_named(self):
        reports = [mk_report(ue_id=40, cell_id=1), mk_report(ue_id=6, cell_id=2)]
        cells = [mk_cell(cell_id=0), mk_cell(cell_id=1)]
        with pytest.raises(DomainError, match="ue 6 references unknown cell 2"):
            allocate_prbs(mk_batch(reports), cells, PARAMS)
