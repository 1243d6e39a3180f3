import copy
import dataclasses
import functools
import json
import math
import re

import numpy as np
import pytest

from rantwin import radio_model as rm
from rantwin import ran_sim
from rantwin.anomaly import default_fault_specs
from rantwin.errors import ConfigurationError, DomainError
from rantwin.radio_model import ChannelColumns, LinkBudgetParams
from rantwin.ran_sim import (
    AnomalyClass,
    CellState,
    FaultSpec,
    MobilityConfig,
    ReportBatch,
    SimConfig,
    SimState,
    init_sim,
    select_serving_cells,
    step,
)
from rantwin.ric import ControlAction, ForceHandover, PrbBoost, allocation_weights, apply_control

from oracles import (
    DB_SCALE,
    ULPS,
    assert_close,
    channel_row,
    cqi_from_sinr,
    db_to_linear,
    inject_fault,
    loop_interferer_sums,
    mk_plan,
    mw_to_dbm,
    path_loss_db,
    report_rows,
    rsrp_dbm,
    rsrq_db,
    scalar_serving_cell,
    scalar_step,
    sinr_db,
    snapshot,
    ulps_apart,
)

SMALL = SimConfig(n_cells=3, n_ues=12, n_ticks=50, seed=9)


def _leaves(config, path=()):
    """(path, value) of every leaf field of a config dataclass."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, path + (f.name,))
        else:
            yield path + (f.name,), value


DEFAULT_LEAVES = dict(_leaves(SimConfig()))
FLOAT_LEAVES = [path for path, value in DEFAULT_LEAVES.items() if isinstance(value, float)]


def _only(path, value) -> dict:
    """A partial config dict that sets the leaf `path` and nothing else."""
    for name in reversed(path):
        value = {name: value}
    return value


def _with(config, path, value):
    """`config` with the leaf `path` set to `value`, each config on the way
    built anew, so that every one of them checks its fields."""
    head, *rest = path
    if rest:
        value = _with(getattr(config, head), rest, value)
    return dataclasses.replace(config, **{head: value})


def _other_value(value):
    """A valid value of the same type as the default `value`, unequal to it."""
    if isinstance(value, tuple):
        return [v / 2 for v in value]
    return value / 2 if isinstance(value, float) else value + 1


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

    @pytest.mark.parametrize("name", ["n_cells", "n_ues", "n_ticks", "seed", "total_prbs"])
    @pytest.mark.parametrize("value", [5.7, 5.0, True, "5"])
    def test_integer_field_rejects_non_integer(self, name, value):
        with pytest.raises(ConfigurationError, match=f"config.{name} must be an integer"):
            ran_sim.sim_config_from_dict({name: value})

    @pytest.mark.parametrize("path", list(DEFAULT_LEAVES), ids=".".join)
    def test_each_leaf_decodes_alone_and_round_trips(self, path):
        value = _other_value(DEFAULT_LEAVES[path])
        cfg = ran_sim.sim_config_from_dict(_only(path, value))
        changed = [p for p, default in DEFAULT_LEAVES.items()
                   if functools.reduce(getattr, p, cfg) != default]
        assert changed == [path]
        decoded = functools.reduce(getattr, path, cfg)
        assert type(decoded) is type(DEFAULT_LEAVES[path])
        assert decoded == (tuple(value) if isinstance(value, list) else value)
        assert ran_sim.sim_config_from_dict(ran_sim.sim_config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("path", FLOAT_LEAVES, ids=".".join)
    @pytest.mark.parametrize("value", [True, "36.6", None])
    def test_float_field_rejects_non_number(self, path, value):
        name = "config." + ".".join(path)
        with pytest.raises(ConfigurationError, match=f"{name} must be a number"):
            ran_sim.sim_config_from_dict(_only(path, value))

    @pytest.mark.parametrize("path", FLOAT_LEAVES, ids=".".join)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_float_field_rejects_non_finite(self, path, value):
        name = "config." + ".".join(path)
        with pytest.raises(ConfigurationError, match=f"{name} (must be finite|is too large)"):
            ran_sim.sim_config_from_dict(_only(path, value))

    @pytest.mark.parametrize("path", FLOAT_LEAVES + [("traffic", "mean_demand_mbps")],
                             ids=".".join)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_float_field_built_in_python_rejects_non_finite(self, path, value):
        # the link checks its own fields; the SimConfig names the path to the others
        name = ".".join(path[1:] if path[0] == "link" else path)
        default = DEFAULT_LEAVES[path]
        if isinstance(default, tuple):
            value, name = (default[0], value, *default[2:]), name + "[1]"
        with pytest.raises((ConfigurationError, DomainError),
                           match=re.escape(f"{name} must be finite")):
            _with(SimConfig(), path, value)

    def test_demand_means_must_be_finite(self):
        with pytest.raises(ConfigurationError,
                           match=r"config\.traffic\.mean_demand_mbps\[1\] must be finite"):
            ran_sim.sim_config_from_dict({"traffic": {"mean_demand_mbps": [2, math.inf, 6, 8]}})

    @pytest.mark.parametrize("value", ["2468", 5, [2, 4, True, 8], [2, "4", 6, 8]])
    def test_demand_means_must_be_a_list_of_numbers(self, value):
        with pytest.raises(ConfigurationError, match=r"config\.traffic\.mean_demand_mbps"):
            ran_sim.sim_config_from_dict({"traffic": {"mean_demand_mbps": value}})

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
        assert snapshot(a) == snapshot(b)

    def test_structural_properties(self):
        state = init_sim(SimConfig(n_cells=3, n_ues=50, seed=42))
        assert len(state.ues) == 50
        assert len(state.cells) == 3
        assert {ue.serving_cell for ue in state.ues} <= {0, 1, 2}
        assert ((0.0 <= state.position) & (state.position <= 600.0)).all()
        assert ((1 <= state.priority) & (state.priority <= 4)).all()
        assert (state.demand_mbps >= 0.0).all()
        assert state.shadowing_db.shape == (50, 3)

    def test_cells_on_grid_inside_area(self):
        for n in (1, 2, 3, 4, 5, 9):
            state = init_sim(SimConfig(n_cells=n, n_ues=1, seed=0))
            assert len({c.position for c in state.cells}) == n
            for c in state.cells:
                assert 0.0 < c.position[0] < 600.0
                assert 0.0 < c.position[1] < 600.0


class TestSimState:
    def test_cell_ids_must_match_their_position(self):
        state = init_sim(SimConfig(n_cells=2, n_ues=3, seed=1))
        swapped = [dataclasses.replace(c, cell_id=1 - c.cell_id) for c in state.cells]
        with pytest.raises(DomainError, match="cell_id"):
            dataclasses.replace(state, cells=swapped)
        with pytest.raises(DomainError, match="cell_id"):
            dataclasses.replace(state, cells=state.cells[1:])


    @pytest.mark.parametrize("ue_id", [True, 2.5, -1, 3, np.int64(3), np.int64(2)])
    def test_set_fault_takes_only_a_ue_id_of_the_state(self, ue_id):
        # numpy would read True as a mask and corrupt every UE's reports
        state = init_sim(SimConfig(n_cells=2, n_ues=3, seed=1))
        before = snapshot(state)
        with pytest.raises(DomainError, match=re.escape(
                f"ue_id must be a Python int (not a bool) in 0..2, got {ue_id!r}")):
            ran_sim.set_fault(state, ue_id, default_fault_specs()[AnomalyClass.RSRP_ERROR])
        assert snapshot(state) == before


class TestReportBatch:
    @staticmethod
    def _columns(**change):
        values = {"rsrp_dbm": [-90.0, -80.0], "rssi_dbm": [-89.0, -79.0], "rsrq_db": [-1.0, -1.0],
                  "sinr_db": [5.0, 9.0], "cqi": [7, 9], **change}
        return ChannelColumns(**{k: np.array(v) for k, v in values.items()})

    @classmethod
    def _batch(cls, **change):
        """A batch of one report per row of the channel `_columns(**change)`."""
        channel = cls._columns(**change)
        n = len(channel.rsrp_dbm)
        return ReportBatch(1, np.zeros(n, dtype=np.int64), channel,
                           channel.rsrp_dbm[:, None], np.ones(n), np.ones(n, dtype=np.int64),
                           np.zeros(n))

    @pytest.mark.parametrize("change, match", [
        ({"rsrq_db": [-1.0, 0.5]}, "rsrq_db"),
        ({"rsrq_db": [np.nan, 0.5]}, "rsrq_db"),
        ({"cqi": [7, 16]}, "cqi"),
        ({"cqi": [-1, 9]}, "cqi"),
        ({"sinr_db": [5.0]}, "one per ue_id"),
    ])
    def test_channel_columns_check_every_row(self, change, match):
        with pytest.raises(DomainError, match=match):
            self._batch(**change)

    @pytest.mark.parametrize("change", [
        {"rsrq_db": [np.nan, np.nan]},
        {"rsrq_db": [np.nan, -1.0]},
        {"rsrq_db": [1e-12, 0.0]},
        {"cqi": [0, 15]},
        {"cqi": [np.nan, 15.0]},
        {name: [] for name in ("rsrp_dbm", "rssi_dbm", "rsrq_db", "sinr_db", "cqi")},
    ])
    def test_channel_columns_accept_every_valid_row(self, change):
        # a NaN fails no row's check, and zero rows fail none
        self._batch(**change)

    def test_channel_columns_are_a_plain_container(self):
        # the reports are checked once, as a batch; the true channel is not
        self._columns(rsrq_db=[-1.0, 0.5], cqi=[7, 16], sinr_db=[5.0])

    @pytest.mark.parametrize("column", ["serving_cell", "rsrp_dbm", "demand_mbps", "priority",
                                        "achieved_mbps"])
    def test_every_column_has_one_row_per_ue(self, column):
        state, reports, _ = step(init_sim(SMALL))
        short = getattr(reports, column)[:-1]
        with pytest.raises(DomainError, match="one per ue_id"):
            dataclasses.replace(reports, **{column: short})
        with pytest.raises(DomainError, match="one per ue_id"):
            dataclasses.replace(reports, channel=self._columns())

    def test_len_is_the_number_of_rows(self):
        _, reports, _ = step(init_sim(SMALL))
        assert len(reports) == SMALL.n_ues
        assert len(self._batch()) == 2
        assert len(self._batch(**{name: [] for name in
                                  ("rsrp_dbm", "rssi_dbm", "rsrq_db", "sinr_db", "cqi")})) == 0

    def test_equality_is_exact(self):
        _, a, _ = step(init_sim(SMALL))
        _, b, _ = step(init_sim(SMALL))
        assert a == b
        nudged = a.demand_mbps.copy()
        nudged[3] = np.nextafter(nudged[3], 1e9)
        assert dataclasses.replace(a, demand_mbps=nudged) != a
        assert dataclasses.replace(a, tick=a.tick + 1) != a


class TestSelectServingCell:
    @staticmethod
    def _select(rsrp_row, serving=0):
        return select_serving_cells(np.array([rsrp_row]), np.array([serving]), 3.0).tolist()[0]

    def test_single_cell(self):
        assert self._select([-100.0]) == 0

    def test_exactly_at_hysteresis_no_handover(self):
        assert self._select([-100.0, -97.0]) == 0

    def test_above_hysteresis_hands_over(self):
        assert self._select([-100.0, -95.0]) == 1

    def test_tie_breaks_to_lowest_cell_id(self):
        assert self._select([-100.0, -90.0, -90.0]) == 1

    def test_missing_serving_cell_rejected(self):
        with pytest.raises(DomainError):
            self._select([-100.0], serving=7)

    def test_serving_cell_tied_with_a_lower_maximum_stays(self):
        rsrp = np.array([[-95.0, -90.0, -90.0], [-90.0, -np.inf, -90.0]])
        assert select_serving_cells(rsrp, np.array([2, 2]), 0.0).tolist() == [2, 2]

    def test_matches_scalar_rule_row_by_row(self):
        # whole-dB RSRP on up to 7 cells gives many ties and margins exactly
        # at the hysteresis; -inf is a cell the UE does not hear, its
        # serving cell included
        rng = np.random.default_rng(12)
        rsrp = np.round(rng.uniform(-110.0, -90.0, size=(400, 7)))
        rsrp[rng.random((400, 7)) < 0.3] = -np.inf
        serving = rng.integers(0, 7, size=400)
        unheard = np.isneginf(rsrp[np.arange(400), serving])
        assert 0 < np.count_nonzero(unheard & (np.isneginf(rsrp).sum(axis=1) > 1))
        for hysteresis in (3.0, 0.0):
            chosen = select_serving_cells(rsrp, serving, hysteresis)
            expected = [
                scalar_serving_cell(s, dict(enumerate(row)), hysteresis)
                for s, row in zip(serving.tolist(), rsrp.tolist())
            ]
            assert chosen.tolist() == expected
            assert 0 < sum(c != s for c, s in zip(expected, serving.tolist())) < 400


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestExactDraws:
    """The column forms of step draw and sum exactly what the array-parameter
    draws and the per-cell loop give: equal bits, not equal within ulps."""

    @pytest.mark.parametrize("n_cells", [1, 3, 7, 19])
    @pytest.mark.parametrize("n_ues", [1, 2, 50, 1000])
    def test_interferer_sums_equal_the_per_cell_loop(self, n_cells, n_ues):
        rng = np.random.default_rng([n_cells, n_ues])
        mw = np.power(10.0, rng.uniform(-140.0, -40.0, size=(n_ues, n_cells)) / 10.0)
        serving = rng.integers(0, n_cells, size=n_ues)
        noise_mw = rm.dbm_to_mw(rm.noise_power_per_re_dbm(LinkBudgetParams()))
        got = rm._interferer_sums(mw, serving, noise_mw)
        expected = loop_interferer_sums(mw, serving, noise_mw)
        assert all(_same_bits(g, e) for g, e in zip(got, expected))

    def test_step_draws_equal_the_array_parameter_draws(self):
        state = init_sim(SMALL)
        specs = default_fault_specs()
        faulted = {2: specs[AnomalyClass.RSRP_ERROR], 5: specs[AnomalyClass.SINR_ERROR]}
        for ue_id, spec in faulted.items():
            ran_sim.set_fault(state, ue_id, spec)
        new, reports, _ = step(copy.deepcopy(state))

        rng = np.random.default_rng(0)
        rng.bit_generator.state = state.rng.bit_generator.state
        rng.normal(0.0, SMALL.link.shadowing_sigma_db, size=state.shadowing_db.shape)
        jitter = np.array([spec.jitter_db for spec in faulted.values()])
        offset = np.array([spec.offset_db for spec in faulted.values()])
        delta = offset + rng.uniform(-jitter, jitter)
        means = np.array(SMALL.traffic.mean_demand_mbps)
        demand = rng.exponential(means[state.priority - 1])

        assert _same_bits(reports.channel.rsrp_dbm[[2]], new.last_channel.rsrp_dbm[[2]] + delta[0])
        assert _same_bits(reports.channel.sinr_db[[5]], new.last_channel.sinr_db[[5]] + delta[1])
        assert _same_bits(new.demand_mbps, demand)
        assert new.rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("scale", [[2.0, 4.0, 6.0, 8.0], [0.0, 1e-300, 3.5, 1e300]])
    def test_scaled_standard_exponential_is_the_exponential_draw(self, scale):
        scale = np.tile(scale, 25)
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        assert _same_bits(scale * a.standard_exponential(len(scale)), b.exponential(scale))
        assert a.bit_generator.state == b.bit_generator.state

    def test_scalar_uniforms_are_the_array_draw(self):
        jitter = np.array([3.0, 0.0, 2.0, 1e-9, 3.0])
        a, b = np.random.default_rng(12), np.random.default_rng(12)
        scalar = np.array([a.uniform(-j, j) for j in jitter.tolist()])
        assert _same_bits(scalar, b.uniform(-jitter, jitter))
        assert a.bit_generator.state == b.bit_generator.state


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
    return SimState(
        config,
        0,
        cells,
        np.random.default_rng(0),
        position=np.array([[start_x, 0.0]]),
        velocity=np.array([[speed, 0.0]]),
        shadowing_db=np.zeros((1, 2)),
        serving_cell=np.array([0]),
        priority=np.array([2]),
        demand_mbps=np.array([1.0]),
        achieved_mbps=np.zeros(1),
        boost_factor=np.ones(1),
        boost_until_tick=np.array([-1]),
        fault_class=np.zeros(1, dtype=np.int64),
        fault_offset_db=np.zeros(1),
        fault_jitter_db=np.zeros(1),
        fault_until_tick=np.array([-1]),
    )


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
            for r0, r in zip(report_rows(first), report_rows(reports)):
                assert r.channel.rsrp_dbm == r0.channel.rsrp_dbm
        assert np.array_equal(s.position, state.position)

    def test_step_advances_its_argument(self):
        state = init_sim(SMALL)
        ran_sim.set_fault(state, 3, default_fault_specs()[AnomalyClass.RSRQ_ERROR])
        a, b = copy.deepcopy(state), copy.deepcopy(state)
        new, _, _ = step(state)
        assert new is state
        assert state.tick == 1
        a_out, reports_a, kpis_a = step(a)
        b_out, reports_b, kpis_b = step(b)
        assert a_out is a and b_out is b
        assert snapshot(a) == snapshot(b) == snapshot(state)
        assert reports_a == reports_b
        assert kpis_a == kpis_b

    def test_later_stages_leave_the_reports_alone(self):
        """apply_allocation and apply_control advance the state the reports
        were read from, but every report column keeps what step returned."""
        from rantwin import twin_engine

        state = init_sim(SMALL)
        ran_sim.set_fault(state, 2, default_fault_specs()[AnomalyClass.SINR_ERROR])
        state, reports, _ = step(state)
        kept = copy.deepcopy(reports)
        plan, _ = twin_engine.twin_tick(reports, state.cells, SMALL.link)
        ran_sim.apply_allocation(state, plan, SMALL.link)
        target = (int(reports.serving_cell[0]) + 1) % SMALL.n_cells
        apply_control(state, ControlAction(state.tick, 0, ForceHandover(target),
                                           AnomalyClass.RSRP_ERROR))
        apply_control(state, ControlAction(state.tick, 2, PrbBoost(2.0, 5),
                                           AnomalyClass.SINR_ERROR))
        assert state.serving_cell[0] == target
        assert not np.array_equal(state.achieved_mbps, kept.achieved_mbps)
        assert reports == kept

    def test_tick_increments_by_one(self):
        state = init_sim(SMALL)
        for expected in range(1, 6):
            state, reports, kpis = step(state)
            assert state.tick == expected
            assert kpis.tick == expected
            assert all(r.tick == expected for r in report_rows(reports))

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
            assert ((0.0 <= state.position) & (state.position <= 50.0)).all()

    def test_one_report_per_ue_per_tick(self):
        state = init_sim(SMALL)
        for _ in range(10):
            state, reports, _ = step(state)
            assert [u.ue_id for u in state.ues] == list(range(len(reports)))

    def test_uncorrupted_reports_match_direct_recomputation(self):
        # oracle: rebuild every channel sample from geometry + shadowing state
        state = init_sim(SMALL)
        for _ in range(5):
            state, reports, _ = step(state)
            noise_mw = db_to_linear(rm.noise_power_per_re_dbm(state.config.link))
            for report, position, shadowing, serving in zip(
                report_rows(reports),
                state.position.tolist(),
                state.shadowing_db.tolist(),
                state.serving_cell.tolist(),
            ):
                rsrp = {}
                for cell in state.cells:
                    d = max(math.hypot(position[0] - cell.position[0],
                                       position[1] - cell.position[1]), 1e-6)
                    rsrp[cell.cell_id] = rsrp_dbm(
                        cell.tx_power_per_re_dbm,
                        path_loss_db(d, state.config.link),
                        shadowing[cell.cell_id],
                    )
                serving_mw = db_to_linear(rsrp[serving])
                interf = [db_to_linear(v) for cid, v in rsrp.items() if cid != serving]
                total = serving_mw + sum(interf) + noise_mw
                for value, expected in (
                    (report.channel.rsrp_dbm, rsrp[serving]),
                    (report.channel.sinr_db, sinr_db(serving_mw, interf, noise_mw)),
                    (report.channel.rssi_dbm, mw_to_dbm(total)),
                    (report.channel.rsrq_db, rsrq_db(serving_mw, total)),
                ):
                    assert ulps_apart(value, expected, DB_SCALE) <= ULPS
                assert report.channel.cqi == cqi_from_sinr(report.channel.sinr_db)
                assert set(report.neighbor_rsrp_dbm) == set(rsrp) - {serving}

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
        true_channels = [channel_row(new.last_channel, i) for i in range(len(reports))]
        for report, demand, true in zip(report_rows(reports), new.demand_mbps.tolist(), true_channels):
            assert report.demand_mbps == demand
            seen = report.channel
            if report.ue_id != 4:
                assert seen == true
                continue
            changed = {f.name for f in dataclasses.fields(seen)
                       if getattr(seen, f.name) != getattr(true, f.name)}
            assert changed <= family
            assert family - {"cqi"} <= changed
            assert seen.cqi == cqi_from_sinr(seen.sinr_db)

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
            if state.serving_cell[0] == 1:
                handover_tick = state.tick
                break
        assert handover_tick == expected_tick

    def test_report_stream_determinism_full_run(self):
        def run():
            state = init_sim(SMALL)
            out = []
            for _ in range(SMALL.n_ticks):
                state, reports, _ = step(state)
                out.append(reports)
            return out

        assert run() == run()


class TestAllocationApplication:
    def test_achieved_capped_at_demand(self):
        from rantwin import twin_engine

        state = init_sim(SMALL)
        state, reports, _ = step(state)
        plan, _ = twin_engine.twin_tick(reports, state.cells, SMALL.link)
        ran_sim.apply_allocation(state, plan, SMALL.link)
        for ue_id, (achieved, demand) in enumerate(
            zip(state.achieved_mbps.tolist(), state.demand_mbps.tolist())
        ):
            assert 0.0 <= achieved <= demand + 1e-12
            if plan.grants.get(ue_id, 0) == 0:
                assert achieved == 0.0

    def test_replaces_the_achieved_array(self):
        # an array read from a state keeps its values after later ticks
        from rantwin import twin_engine

        state = init_sim(SMALL)
        state, reports, _ = step(state)
        plan, _ = twin_engine.twin_tick(reports, state.cells, SMALL.link)
        ran_sim.apply_allocation(state, plan, SMALL.link)
        first = state.achieved_mbps
        kept = first.copy()
        state, reports, _ = step(state)
        plan, _ = twin_engine.twin_tick(reports, state.cells, SMALL.link)
        ran_sim.apply_allocation(state, plan, SMALL.link)
        assert state.achieved_mbps is not first
        assert np.array_equal(first, kept)
        assert not np.array_equal(state.achieved_mbps, kept)

    def test_grant_i_goes_to_ue_i(self):
        state = init_sim(SMALL)
        state, _, _ = step(state)
        true = state.last_channel
        rate = SMALL.link.prb_bandwidth_hz * rm.spectral_efficiencies(
            true.sinr_db, true.cqi) / 1e6
        ue = int(np.argmax(rate))
        assert rate[ue] > 0.0 and state.demand_mbps[ue] > 0.0
        grant = [0] * SMALL.n_ues
        grant[ue] = 3
        ran_sim.apply_allocation(state, mk_plan(state.tick, range(SMALL.n_ues), grant), SMALL.link)
        expected = np.zeros(SMALL.n_ues)
        expected[ue] = min(3 * rate[ue], state.demand_mbps[ue])
        assert np.array_equal(state.achieved_mbps, expected)

    @pytest.mark.parametrize("n_grants", [2, SMALL.n_ues - 1, SMALL.n_ues + 1])
    def test_plan_without_one_grant_per_ue_is_refused(self, n_grants):
        # grant i is ue_id i's: a short plan would leave the other UEs at
        # 0 Mb/s, and a long one grant UEs the state does not have
        state = init_sim(SMALL)
        state, _, _ = step(state)
        plan = mk_plan(state.tick, list(range(n_grants)), list(range(1, n_grants + 1)))
        with pytest.raises(DomainError, match=f"{n_grants} grants for {SMALL.n_ues} UEs"):
            ran_sim.apply_allocation(state, plan, SMALL.link)


def _assert_step_matches_scalar(state, n_ticks, faults=(), controls=False):
    """Step `state` n_ticks times, checking every tick against scalar_step on
    the same input: floats within the ulps of `assert_close`, integers, the
    rng and the state snapshot exactly. Both sides step from the vectorized
    state, so an ulp of difference never carries into the next tick.
    `faults` maps a tick to (ue_id, spec) pairs set before it. With `controls`, allocation, PRB boosts and forced handovers run between
    ticks, so reports carry achieved rates and reselection starts from
    steered cells. Returns the number of handovers and reflections seen."""
    from rantwin import twin_engine

    faults = dict(faults)
    handovers = reflections = 0
    for _ in range(n_ticks):
        for ue_id, spec in faults.get(state.tick + 1, ()):
            ran_sim.set_fault(state, ue_id, spec)
        ref, ref_reports, ref_kpis = scalar_step(state)
        new, reports, kpis = step(copy.deepcopy(state))
        assert_close(report_rows(reports), ref_reports)
        assert kpis == ref_kpis
        assert_close(new.last_channel, ref.last_channel)
        assert np.array_equal(new.serving_cell, ref.serving_cell)
        assert new.rng.bit_generator.state == ref.rng.bit_generator.state
        assert snapshot(new) == snapshot(ref)
        handovers += kpis.n_handovers
        reflections += int(np.count_nonzero(new.velocity != state.velocity))
        state = new
        if controls:
            weights = allocation_weights(state)
            plan, _ = twin_engine.twin_tick(reports, state.cells, state.config.link, weights)
            ran_sim.apply_allocation(state, plan, state.config.link)
            ue_id = state.tick % len(state.serving_cell)
            if state.tick % 7 == 0:
                neighbors = report_rows(reports)[ue_id].neighbor_rsrp_dbm
                target = max(neighbors, default=0, key=neighbors.get)
                apply_control(state, ControlAction(state.tick, ue_id, ForceHandover(target),
                                                   AnomalyClass.RSRP_ERROR))
            if state.tick % 11 == 0:
                apply_control(state, ControlAction(state.tick, ue_id, PrbBoost(2.0, 5),
                                                   AnomalyClass.SINR_ERROR))
    return handovers, reflections


class TestStepMatchesScalarOracle:
    def test_default_network_with_faults_and_control(self):
        specs = default_fault_specs(duration_ticks=40)
        faults = {
            10 + 30 * k: [(7 * k % 50, specs[cls]), ((7 * k + 3) % 50, specs[cls])]
            for k, cls in enumerate(list(AnomalyClass)[1:] * 3)
        }
        state = init_sim(SimConfig(n_cells=3, n_ues=50, seed=17))
        handovers, _ = _assert_step_matches_scalar(state, 300, faults, controls=True)
        assert handovers > 0

    @pytest.mark.parametrize("n_cells, n_ues", [(7, 12), (19, 8)])
    def test_many_cells(self, n_cells, n_ues):
        specs = default_fault_specs(duration_ticks=5)
        faults = {3: [(1, specs[AnomalyClass.SINR_ERROR])],
                  4: [(2, specs[AnomalyClass.RSRQ_ERROR])]}
        state = init_sim(SimConfig(n_cells=n_cells, n_ues=n_ues, area_m=300.0, seed=n_cells))
        handovers, _ = _assert_step_matches_scalar(state, 40, faults, controls=True)
        assert handovers > 0

    def test_reflection_heavy(self):
        config = SimConfig(
            n_cells=2,
            n_ues=8,
            area_m=50.0,
            tick_ms=2000.0,
            seed=3,
            mobility=MobilityConfig(min_speed_mps=5.0, max_speed_mps=20.0),
        )
        _, reflections = _assert_step_matches_scalar(init_sim(config), 60)
        assert reflections > 100


class TestTrueChannel:
    """The true channel is not checked as it is built; it holds the report
    ranges by construction."""

    @pytest.mark.parametrize("n_cells, n_ues", [(3, 50), (19, 1000)])
    def test_rsrq_at_most_zero_and_cqi_read_from_sinr(self, n_cells, n_ues):
        state = init_sim(SimConfig(n_cells=n_cells, n_ues=n_ues, seed=n_ues))
        for _ in range(3):
            state, _, _ = step(state)
            channel = state.last_channel
            assert (channel.rsrq_db <= 0.0).all()
            assert channel.cqi.tolist() == [cqi_from_sinr(v) for v in channel.sinr_db.tolist()]
            assert 0 <= channel.cqi.min() <= channel.cqi.max() <= 15


class TestFaultStageMatchesPerRowReference:
    # (onset tick, ue_id, spec), set in an order that is not ue_id order
    FAULTS = [
        (2, 9, FaultSpec(AnomalyClass.RSRP_ERROR, -20.0, 3.0, 6)),
        (2, 3, FaultSpec(AnomalyClass.SINR_ERROR, -15.0, 0.0, 4)),
        (3, 5, FaultSpec(AnomalyClass.RSRQ_ERROR, 30.0, 2.0, 5)),  # clamps at 0.0
        (3, 1, FaultSpec(AnomalyClass.SINR_ERROR, -8.0, 3.0, 7)),
        (4, 11, FaultSpec(AnomalyClass.RSRQ_ERROR, -10.0, 2.0, 1)),
        (4, 0, FaultSpec(AnomalyClass.RSRP_ERROR, 6.0, 0.0, 3)),
        (9, 3, FaultSpec(AnomalyClass.RSRQ_ERROR, -4.0, 1.0, 2)),
    ]

    def test_episode_with_every_class(self):
        """Every tick's reported channel equals, with ==, the per-row
        inject_fault of each active fault in ue_id order applied to the
        step's own true channel, with the step's draws replayed around it."""
        config = SimConfig(n_cells=3, n_ues=12, seed=5)
        means = np.array(config.traffic.mean_demand_mbps)
        state = init_sim(config)
        clamped = corrupted = 0
        for _ in range(16):
            for onset, ue_id, spec in self.FAULTS:
                if onset == state.tick + 1:
                    ran_sim.set_fault(state, ue_id, spec)
            new, reports, _ = step(copy.deepcopy(state))

            rng = np.random.Generator(np.random.PCG64(0))
            rng.bit_generator.state = state.rng.bit_generator.state
            rng.normal(0.0, config.link.shadowing_sigma_db, size=state.shadowing_db.shape)
            expected = [channel_row(new.last_channel, i) for i in range(config.n_ues)]
            faults = zip(*_fault_columns(state))
            for ue_id, (cls, offset_db, jitter_db, until_tick) in enumerate(faults):
                if new.tick <= until_tick:
                    expected[ue_id] = inject_fault(expected[ue_id], cls, offset_db, jitter_db, rng)
                    corrupted += 1
            rng.exponential(means[state.priority - 1])

            assert [channel_row(reports.channel, i) for i in range(config.n_ues)] == expected
            assert rng.bit_generator.state == new.rng.bit_generator.state
            assert _fault_columns(new) == _fault_columns(state)
            clamped += expected[5].rsrq_db == 0.0
            state = new
        assert corrupted == sum(spec.duration_ticks for _, _, spec in self.FAULTS)
        assert clamped == 5
        assert (state.fault_until_tick < state.tick).all()


def _fault_columns(state):
    """The four fault columns of `state`, as lists."""
    return [getattr(state, name).tolist() for name in
            ("fault_class", "fault_offset_db", "fault_jitter_db", "fault_until_tick")]


class TestFaultLiveness:
    """A fault is live while the report tick is <= its fault_until_tick, the
    rule allocation_weights applies to a PRB boost."""

    def test_live_after_the_step_that_corrupted_its_last_report(self):
        state = init_sim(SMALL)
        ran_sim.set_fault(state, 4, FaultSpec(AnomalyClass.RSRP_ERROR, -20.0, 0.0, 3))
        corrupted, live = [], []
        for _ in range(5):
            state, reports, _ = step(state)
            corrupted.append(reports.channel.rsrp_dbm[4] != state.last_channel.rsrp_dbm[4])
            live.append(bool(state.tick <= state.fault_until_tick[4]))
        assert corrupted == live == [True, True, True, False, False]

    def test_a_fault_and_a_boost_of_one_duration_are_live_on_the_same_ticks(self):
        state = init_sim(SMALL)
        state, _, _ = step(state)
        ran_sim.set_fault(state, 2, FaultSpec(AnomalyClass.SINR_ERROR, -15.0, 0.0, 4))
        apply_control(state, ControlAction(state.tick, 2, PrbBoost(2.0, 4),
                                           AnomalyClass.SINR_ERROR))
        faulted, boosted = [], []
        for _ in range(7):
            state, reports, _ = step(state)
            faulted.append(reports.channel.sinr_db[2] != state.last_channel.sinr_db[2])
            boosted.append(allocation_weights(state)[2] != state.priority[2])
        assert faulted == boosted == [True] * 4 + [False] * 3

    def test_a_second_fault_replaces_every_entry_of_its_row_only(self):
        state = init_sim(SMALL)
        ran_sim.set_fault(state, 1, FaultSpec(AnomalyClass.RSRQ_ERROR, -10.0, 2.0, 50))
        ran_sim.set_fault(state, 6, FaultSpec(AnomalyClass.RSRP_ERROR, -20.0, 3.0, 9))
        for _ in range(3):
            state, _, _ = step(state)
        before = _fault_columns(state)
        ran_sim.set_fault(state, 6, FaultSpec(AnomalyClass.SINR_ERROR, -15.0, 1.5, 5))
        after = _fault_columns(state)
        assert [column[6] for column in after] == [AnomalyClass.SINR_ERROR, -15.0, 1.5, 8]
        for column_before, column_after in zip(before, after):
            assert column_before[:6] + column_before[7:] == column_after[:6] + column_after[7:]
