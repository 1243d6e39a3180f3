import dataclasses
import json
import math

import numpy as np
import pytest

from rantwin import radio_model as rm
from rantwin import ran_sim
from rantwin.anomaly import AnomalyClass, default_fault_specs
from rantwin.errors import ConfigurationError, DomainError
from rantwin.radio_model import LinkBudgetParams
from rantwin.ran_sim import (
    CellState,
    MobilityConfig,
    SimConfig,
    SimState,
    UeState,
    init_sim,
    select_serving_cell,
    step,
)

SMALL = SimConfig(n_cells=3, n_ues=12, n_ticks=50, seed=9)


class TestConfig:
    def test_invalid_fields_name_the_field(self):
        with pytest.raises(ConfigurationError, match="n_cells"):
            SimConfig(n_cells=0)
        with pytest.raises(ConfigurationError, match="n_ues"):
            SimConfig(n_ues=0)
        with pytest.raises(ConfigurationError, match="tick_ms"):
            SimConfig(tick_ms=0.0)
        with pytest.raises(ConfigurationError, match="shadowing_rho"):
            SimConfig(shadowing_rho=1.5)

    def test_dict_round_trip(self):
        cfg = SimConfig(n_ues=7, area_m=250.0)
        again = ran_sim.sim_config_from_dict(ran_sim.sim_config_to_dict(cfg))
        assert again == cfg

    def test_partial_dict_uses_defaults(self):
        cfg = ran_sim.sim_config_from_dict({"n_ues": 5})
        assert cfg.n_ues == 5
        assert cfg.n_cells == SimConfig().n_cells

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="n_uess"):
            ran_sim.sim_config_from_dict({"n_uess": 5})
        with pytest.raises(ConfigurationError, match="config.link"):
            ran_sim.sim_config_from_dict({"link": {"bogus": 1}})

    @pytest.mark.parametrize("section", ["link", "mobility", "traffic"])
    @pytest.mark.parametrize("value", [5, [1], "x", None])
    def test_non_object_section_rejected(self, section, value):
        with pytest.raises(ConfigurationError, match=f"config.{section} must be a JSON object"):
            ran_sim.sim_config_from_dict({section: value})

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_cells": 2, "traffic": {"mean_demand_mbps": [1, 2, 3, 4]}}))
        cfg = ran_sim.load_sim_config(path)
        assert cfg.n_cells == 2
        assert cfg.traffic.mean_demand_mbps == (1.0, 2.0, 3.0, 4.0)


class TestInit:
    def test_single_cell_serves_everyone(self):
        state = init_sim(SimConfig(n_cells=1, n_ues=10, seed=1))
        assert all(ue.serving_cell == 0 for ue in state.ues)

    def test_same_seed_identical_state(self):
        a = init_sim(SMALL)
        b = init_sim(SMALL)
        assert a.snapshot() == b.snapshot()

    def test_structural_properties(self):
        state = init_sim(SimConfig(n_cells=3, n_ues=50, seed=42))
        assert len(state.ues) == 50
        assert len(state.cells) == 3
        assert {ue.serving_cell for ue in state.ues} <= {0, 1, 2}
        for ue in state.ues:
            assert 0.0 <= ue.position[0] <= 600.0
            assert 0.0 <= ue.position[1] <= 600.0
            assert 1 <= ue.traffic_priority <= 4
            assert ue.demand_mbps >= 0.0
            assert set(ue.shadowing_db) == {0, 1, 2}

    def test_cells_on_grid_inside_area(self):
        for n in (1, 2, 3, 4, 5, 9):
            state = init_sim(SimConfig(n_cells=n, n_ues=1, seed=0))
            assert len({c.position for c in state.cells}) == n
            for c in state.cells:
                assert 0.0 < c.position[0] < 600.0
                assert 0.0 < c.position[1] < 600.0


class TestSelectServingCell:
    def _ue(self, serving=0):
        return UeState(0, (0, 0), (0, 0), serving, 1, 1.0, {})

    def test_single_cell(self):
        assert select_serving_cell(self._ue(), {0: -100.0}, 3.0) == 0

    def test_exactly_at_hysteresis_no_handover(self):
        assert select_serving_cell(self._ue(), {0: -100.0, 1: -97.0}, 3.0) == 0

    def test_above_hysteresis_hands_over(self):
        assert select_serving_cell(self._ue(), {0: -100.0, 1: -95.0}, 3.0) == 1

    def test_tie_breaks_to_lowest_cell_id(self):
        assert select_serving_cell(self._ue(), {0: -100.0, 1: -90.0, 2: -90.0}, 3.0) == 1

    def test_missing_serving_cell_rejected(self):
        with pytest.raises(DomainError):
            select_serving_cell(self._ue(serving=7), {0: -100.0}, 3.0)


def _two_cell_corridor(start_x: float, speed: float) -> SimState:
    """One UE moving along the line between two cells, no shadowing."""
    config = SimConfig(
        n_cells=2,
        n_ues=1,
        area_m=1000.0,
        tick_ms=1000.0,
        n_ticks=100,
        seed=0,
        link=LinkBudgetParams(shadowing_sigma_db=0.0),
        mobility=MobilityConfig(min_speed_mps=speed, max_speed_mps=speed),
    )
    cells = [
        CellState(0, (0.0, 0.0), config.tx_power_per_re_dbm, config.total_prbs),
        CellState(1, (1000.0, 0.0), config.tx_power_per_re_dbm, config.total_prbs),
    ]
    ue = UeState(
        ue_id=0,
        position=(start_x, 0.0),
        velocity=(speed, 0.0),
        serving_cell=0,
        traffic_priority=2,
        demand_mbps=1.0,
        shadowing_db={0: 0.0, 1: 0.0},
    )
    return SimState(config, 0, cells, [ue], np.random.default_rng(0))


class TestStep:
    def test_frozen_dynamics(self):
        # zero velocity + rho = 1 shadowing: position and RSRP never move
        config = SimConfig(
            n_cells=2,
            n_ues=4,
            seed=5,
            shadowing_rho=1.0,
            mobility=MobilityConfig(min_speed_mps=0.0, max_speed_mps=0.0),
        )
        state = init_sim(config)
        _, first, _ = step(state)
        s = state
        for _ in range(5):
            s, reports, _ = step(s)
            for r0, r in zip(first, reports):
                assert r.channel.rsrp_dbm == r0.channel.rsrp_dbm
        for ue0, ue in zip(state.ues, s.ues):
            assert ue.position == ue0.position

    def test_step_is_pure(self):
        state = init_sim(SMALL)
        before = state.snapshot()
        a, reports_a, kpis_a = step(state)
        assert state.snapshot() == before
        b, reports_b, kpis_b = step(state)
        assert a.snapshot() == b.snapshot()
        assert reports_a == reports_b
        assert kpis_a == kpis_b

    def test_tick_increments_by_one(self):
        state = init_sim(SMALL)
        for expected in range(1, 6):
            state, reports, kpis = step(state)
            assert state.tick == expected
            assert kpis.tick == expected
            assert all(r.tick == expected for r in reports)

    def test_population_conserved_and_contained(self):
        config = SimConfig(
            n_cells=2,
            n_ues=8,
            area_m=50.0,
            tick_ms=2000.0,
            seed=3,
            mobility=MobilityConfig(min_speed_mps=5.0, max_speed_mps=20.0),
        )
        state = init_sim(config)
        for _ in range(60):
            state, reports, _ = step(state)
            assert len(state.ues) == 8
            assert len(state.cells) == 2
            assert len(reports) == 8
            for ue in state.ues:
                assert 0.0 <= ue.position[0] <= 50.0
                assert 0.0 <= ue.position[1] <= 50.0

    def test_one_report_per_ue_per_tick(self):
        state = init_sim(SMALL)
        for _ in range(10):
            state, reports, _ = step(state)
            assert sorted(r.ue_id for r in reports) == sorted(u.ue_id for u in state.ues)

    def test_uncorrupted_reports_match_direct_recomputation(self):
        # oracle: rebuild every channel sample from geometry + shadowing state
        state = init_sim(SMALL)
        for _ in range(5):
            state, reports, _ = step(state)
            noise_mw = rm.dbm_to_mw(rm.noise_power_per_re_dbm(state.config.link))
            for report, ue in zip(reports, state.ues):
                rsrp = {}
                for cell in state.cells:
                    d = max(math.hypot(ue.position[0] - cell.position[0],
                                       ue.position[1] - cell.position[1]), 1e-6)
                    rsrp[cell.cell_id] = rm.rsrp_dbm(
                        cell.tx_power_per_re_dbm,
                        rm.path_loss_db(d, state.config.link),
                        ue.shadowing_db[cell.cell_id],
                    )
                serving_mw = rm.dbm_to_mw(rsrp[ue.serving_cell])
                interf = [rm.dbm_to_mw(v) for cid, v in rsrp.items() if cid != ue.serving_cell]
                total = serving_mw + sum(interf) + noise_mw
                assert report.channel.rsrp_dbm == rsrp[ue.serving_cell]
                assert report.channel.sinr_db == rm.sinr_db(serving_mw, interf, noise_mw)
                assert report.channel.rssi_dbm == rm.mw_to_dbm(total)
                assert report.channel.rsrq_db == rm.rsrq_db(serving_mw, total)
                assert report.channel.cqi == rm.cqi_from_sinr(report.channel.sinr_db)
                assert set(report.neighbor_rsrp_dbm) == set(rsrp) - {ue.serving_cell}

    @pytest.mark.parametrize(
        "cls, family",
        [
            (AnomalyClass.RSRP_ERROR, {"rsrp_dbm"}),
            (AnomalyClass.RSRQ_ERROR, {"rsrq_db"}),
            (AnomalyClass.SINR_ERROR, {"sinr_db", "cqi"}),
        ],
    )
    def test_fault_corrupts_only_the_reported_family(self, cls, family):
        state = init_sim(SMALL)
        ran_sim.set_fault(state, 4, default_fault_specs()[cls])
        new, reports, _ = step(state)
        for report, ue in zip(reports, new.ues):
            assert report.demand_mbps == ue.demand_mbps
            true, seen = ue.last_channel, report.channel
            if ue.ue_id != 4:
                assert seen == true
                continue
            changed = {f.name for f in dataclasses.fields(seen)
                       if getattr(seen, f.name) != getattr(true, f.name)}
            assert changed <= family
            assert family - {"cqi"} <= changed
            assert seen.cqi == rm.cqi_from_sinr(seen.sinr_db)

    def test_corridor_handover_at_recomputed_tick(self):
        # scalar oracle: handover fires at the first x with
        # 10*n*log10(x / (1000 - x)) > hysteresis
        speed, start_x = 10.0, 400.0
        state = _two_cell_corridor(start_x, speed)
        n = state.config.link.path_loss_exponent
        h = state.config.hysteresis_db
        expected_tick = None
        for k in range(1, 60):
            x = start_x + speed * k
            if 10.0 * n * math.log10(x / (1000.0 - x)) > h:
                expected_tick = k
                break
        assert expected_tick is not None

        handover_tick = None
        for _ in range(60):
            state, _, kpis = step(state)
            if state.ues[0].serving_cell == 1:
                handover_tick = state.tick
                break
        assert handover_tick == expected_tick

    def test_report_stream_determinism_full_run(self):
        def run():
            state = init_sim(SMALL)
            out = []
            for _ in range(SMALL.n_ticks):
                state, reports, _ = step(state)
                out.extend(ran_sim.report_to_dict(r) for r in reports)
            return out

        assert run() == run()


class TestReportExport:
    def test_jsonl_shape(self):
        state = init_sim(SimConfig(n_cells=2, n_ues=3, seed=11))
        state, reports, _ = step(state)
        lines = [json.dumps(ran_sim.report_to_dict(r), sort_keys=True) for r in reports]
        assert len(lines) == 3
        row = json.loads(lines[0])
        assert row["tick"] == 1
        assert set(row["channel"]) == {"rsrp_dbm", "rssi_dbm", "rsrq_db", "sinr_db", "cqi"}
        assert isinstance(row["channel"]["cqi"], int)
        assert str(row["serving_cell"]) not in row["neighbor_rsrp_dbm"]


class TestAllocationApplication:
    def test_achieved_capped_at_demand(self):
        from rantwin import twin_engine

        state = init_sim(SMALL)
        state, reports, _ = step(state)
        plan, _, _ = twin_engine.twin_tick(reports, state.cells, SMALL.link)
        ran_sim.apply_allocation(state, plan, SMALL.link)
        for ue in state.ues:
            assert 0.0 <= ue.achieved_mbps <= ue.demand_mbps + 1e-12
            if plan.grants.get(ue.ue_id, 0) == 0:
                assert ue.achieved_mbps == 0.0
