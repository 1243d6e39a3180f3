"""Deterministic tick-driven simulation of UEs, cells (RUs), mobility,
traffic, serving-cell selection and per-tick measurement reporting.

One tick models one 10 ms scheduling window by default. All randomness flows
through the generator carried inside SimState, so equal seeds give equal
report streams.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from . import radio_model
from .errors import ConfigurationError, DomainError
from .radio_model import ChannelSample, LinkBudgetParams

if TYPE_CHECKING:
    from .anomaly import FaultSpec
    from .twin_engine import AllocationPlan

N_PRIORITY_CLASSES = 4


@dataclass(frozen=True)
class MobilityConfig:
    min_speed_mps: float = 0.5
    max_speed_mps: float = 3.0


@dataclass(frozen=True)
class TrafficConfig:
    # Mean offered rate per priority class 1..4 (index 0 -> priority 1).
    mean_demand_mbps: tuple[float, float, float, float] = (2.0, 4.0, 6.0, 8.0)


@dataclass(frozen=True)
class SimConfig:
    n_cells: int = 3
    n_ues: int = 50
    area_m: float = 600.0
    tick_ms: float = 10.0
    n_ticks: int = 2000
    seed: int = 42
    tx_power_per_re_dbm: float = 15.0
    total_prbs: int = 50
    hysteresis_db: float = 3.0
    shadowing_rho: float = 0.9
    link: LinkBudgetParams = field(default_factory=LinkBudgetParams)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)

    def __post_init__(self):
        if self.n_cells < 1:
            raise ConfigurationError(f"n_cells must be >= 1, got {self.n_cells}")
        if self.n_ues < 1:
            raise ConfigurationError(f"n_ues must be >= 1, got {self.n_ues}")
        if self.area_m <= 0:
            raise ConfigurationError(f"area_m must be > 0, got {self.area_m}")
        if self.tick_ms <= 0:
            raise ConfigurationError(f"tick_ms must be > 0, got {self.tick_ms}")
        if self.n_ticks < 1:
            raise ConfigurationError(f"n_ticks must be >= 1, got {self.n_ticks}")
        if self.total_prbs < 1:
            raise ConfigurationError(f"total_prbs must be >= 1, got {self.total_prbs}")
        if self.hysteresis_db < 0:
            raise ConfigurationError(f"hysteresis_db must be >= 0, got {self.hysteresis_db}")
        if not 0.0 <= self.shadowing_rho <= 1.0:
            raise ConfigurationError(
                f"shadowing_rho must be in [0, 1], got {self.shadowing_rho}"
            )
        if self.mobility.min_speed_mps < 0 or self.mobility.max_speed_mps < self.mobility.min_speed_mps:
            raise ConfigurationError("mobility speed range must satisfy 0 <= min <= max")
        if len(self.traffic.mean_demand_mbps) != N_PRIORITY_CLASSES:
            raise ConfigurationError("traffic.mean_demand_mbps needs one mean per priority class")
        if any(m < 0 for m in self.traffic.mean_demand_mbps):
            raise ConfigurationError("traffic.mean_demand_mbps entries must be >= 0")


@dataclass(frozen=True)
class CellState:
    cell_id: int
    position: tuple[float, float]
    tx_power_per_re_dbm: float
    total_prbs: int


@dataclass(frozen=True)
class ActiveFault:
    """A fault attached to a UE; corrupts its reports while tick <= until_tick."""

    spec: "FaultSpec"
    until_tick: int


class UeView:
    """One UE's id and serving cell, as `SimState.ues` lists them."""

    __slots__ = ("ue_id", "serving_cell")

    def __init__(self, ue_id: int, serving_cell: int):
        self.ue_id = ue_id
        self.serving_cell = serving_cell


@dataclass(frozen=True)
class MeasurementReport:
    tick: int
    ue_id: int
    serving_cell: int
    channel: ChannelSample
    neighbor_rsrp_dbm: dict[int, float]
    demand_mbps: float
    priority: int
    achieved_mbps: float


@dataclass(frozen=True)
class TickKpis:
    tick: int
    n_handovers: int


@dataclass(eq=False)
class SimState:
    """The network at one tick, one column per UE attribute.

    Row i of every UE column belongs to ue_id i, and column j of
    `shadowing_db` to cells[j], so cells[j].cell_id must be j. Arrays have
    no single truth value, so states compare by identity; compare
    `snapshot()`s instead.
    """

    config: SimConfig
    tick: int
    cells: list[CellState]
    rng: np.random.Generator
    position: np.ndarray  # (U, 2) m
    velocity: np.ndarray  # (U, 2) m/s
    shadowing_db: np.ndarray  # (U, C)
    serving_cell: np.ndarray  # (U,) int
    priority: np.ndarray  # (U,) int, 1..N_PRIORITY_CLASSES
    demand_mbps: np.ndarray  # (U,)
    # Rate realised by the last allocation, carried in the next reports.
    # apply_allocation replaces the array and never writes into it.
    achieved_mbps: np.ndarray  # (U,)
    # Allocation-weight boost installed by a control action; active while
    # the report tick is <= boost_until_tick.
    boost_factor: np.ndarray  # (U,)
    boost_until_tick: np.ndarray  # (U,) int
    faults: dict[int, ActiveFault] = field(default_factory=dict)
    # The true (uncorrupted) channel of every UE at the last step.
    last_channel: list[ChannelSample] = field(default_factory=list)

    def __post_init__(self):
        for i, cell in enumerate(self.cells):
            if cell.cell_id != i:
                raise DomainError(
                    f"cells[{i}] has cell_id {cell.cell_id}; cell ids must equal their "
                    "position, which indexes the shadowing and RSRP columns"
                )

    def clone(self) -> "SimState":
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = self.rng.bit_generator.state
        return SimState(
            self.config,
            self.tick,
            list(self.cells),
            rng,
            self.position.copy(),
            self.velocity.copy(),
            self.shadowing_db.copy(),
            self.serving_cell.copy(),
            self.priority.copy(),
            self.demand_mbps.copy(),
            self.achieved_mbps.copy(),
            self.boost_factor.copy(),
            self.boost_until_tick.copy(),
            dict(self.faults),
            list(self.last_channel),
        )

    @property
    def ues(self) -> list[UeView]:
        """(ue_id, serving_cell) of every UE, read from the columns at each access."""
        return list(map(UeView, range(len(self.serving_cell)), self.serving_cell.tolist()))

    def ue_index(self, ue_id: int) -> int:
        """Row of `ue_id` in the UE columns."""
        if not 0 <= ue_id < len(self.serving_cell):
            raise DomainError(f"unknown ue_id {ue_id}")
        return ue_id

    def cell(self, cell_id: int) -> CellState:
        if not 0 <= cell_id < len(self.cells):
            raise DomainError(f"unknown cell_id {cell_id}")
        return self.cells[cell_id]

    def snapshot(self) -> dict:
        """Plain JSON-able view of the full state, used for equality checks."""
        position = self.position.tolist()
        velocity = self.velocity.tolist()
        serving = self.serving_cell.tolist()
        priority = self.priority.tolist()
        demand = self.demand_mbps.tolist()
        shadowing = self.shadowing_db.tolist()
        achieved = self.achieved_mbps.tolist()
        boost = self.boost_factor.tolist()
        boost_until = self.boost_until_tick.tolist()
        return {
            "tick": self.tick,
            "cells": [
                {
                    "cell_id": c.cell_id,
                    "position": list(c.position),
                    "tx_power_per_re_dbm": c.tx_power_per_re_dbm,
                    "total_prbs": c.total_prbs,
                }
                for c in self.cells
            ],
            "ues": [
                {
                    "ue_id": i,
                    "position": position[i],
                    "velocity": velocity[i],
                    "serving_cell": serving[i],
                    "traffic_priority": priority[i],
                    "demand_mbps": demand[i],
                    "shadowing_db": {str(k): v for k, v in enumerate(shadowing[i])},
                    "achieved_mbps": achieved[i],
                    "boost_factor": boost[i],
                    "boost_until_tick": boost_until[i],
                    "fault_until_tick": (
                        self.faults[i].until_tick if i in self.faults else None
                    ),
                }
                for i in range(len(serving))
            ],
            "rng": repr(self.rng.bit_generator.state),
        }


def _grid_positions(n_cells: int, area_m: float) -> list[tuple[float, float]]:
    rows = max(1, int(math.floor(math.sqrt(n_cells))))
    cols = int(math.ceil(n_cells / rows))
    positions = []
    for idx in range(n_cells):
        r, c = divmod(idx, cols)
        positions.append(((c + 0.5) * area_m / cols, (r + 0.5) * area_m / rows))
    return positions


def _scalar_map(fn, *arrays: np.ndarray) -> np.ndarray:
    """`fn` applied element by element to Python floats, in the shape of arrays[0].

    hypot, log10 and 10**x go through here, not through numpy's ufuncs:
    the ufuncs differ from `math` and float `**` in the last ulp on a few
    percent of inputs, and every report must carry exactly the bits of the
    scalar link model in `radio_model`.
    """
    flat = [a.ravel().tolist() for a in arrays]
    out = np.fromiter(map(fn, *flat), dtype=np.float64, count=len(flat[0]))
    return out.reshape(arrays[0].shape)


# `10.0 ** x`, the float power of radio_model.db_to_linear
_pow10 = partial(pow, 10.0)


def _rsrp_matrix(
    position: np.ndarray, shadowing_db: np.ndarray, cells: list[CellState], link: LinkBudgetParams
) -> np.ndarray:
    """(U, C) RSRP in dBm, each entry as `radio_model.rsrp_dbm` computes it."""
    cell_xy = np.array([c.position for c in cells], dtype=np.float64)
    tx = np.array([c.tx_power_per_re_dbm for c in cells], dtype=np.float64)
    dx = position[:, 0:1] - cell_xy[:, 0]
    dy = position[:, 1:2] - cell_xy[:, 1]
    distance = np.maximum(_scalar_map(math.hypot, dx, dy), 1e-6)
    # radio_model.path_loss_db, elementwise
    d = np.maximum(distance, link.ref_distance_m)
    path_loss = link.ref_path_loss_db + 10.0 * link.path_loss_exponent * _scalar_map(
        math.log10, d / link.ref_distance_m
    )
    return tx - path_loss + shadowing_db


def select_serving_cells(
    rsrp_dbm: np.ndarray, serving_cell: np.ndarray, hysteresis_db: float
) -> np.ndarray:
    """Serving cell of every UE after reselection, from its (U, C) RSRP row.

    A UE keeps its serving cell unless another cell beats it by more than
    the margin; then the strongest such cell wins, ties toward the lowest
    cell_id.
    """
    n_ues, n_cells = rsrp_dbm.shape
    if n_cells == 0:
        raise DomainError("rsrp_dbm must have at least one cell column")
    if n_ues and not 0 <= serving_cell.min() <= serving_cell.max() < n_cells:
        raise DomainError(f"serving cell outside 0..{n_cells - 1}")
    rows = np.arange(n_ues)
    qualifies = rsrp_dbm > (rsrp_dbm[rows, serving_cell] + hysteresis_db)[:, None]
    qualifies[rows, serving_cell] = False
    best = np.argmax(np.where(qualifies, rsrp_dbm, -np.inf), axis=1)
    return np.where(qualifies.any(axis=1), best, serving_cell)


def init_sim(config: SimConfig) -> SimState:
    """Place cells on a grid, scatter UEs uniformly, attach each to its
    strongest cell and draw initial shadowing / traffic state."""
    rng = np.random.default_rng(config.seed)
    cells = [
        CellState(i, pos, config.tx_power_per_re_dbm, config.total_prbs)
        for i, pos in enumerate(_grid_positions(config.n_cells, config.area_m))
    ]
    n = config.n_ues
    position = np.empty((n, 2))
    velocity = np.empty((n, 2))
    shadowing = np.empty((n, len(cells)))
    priority = np.empty(n, dtype=np.int64)
    demand = np.empty(n)
    # One UE at a time: each UE's draws interleave several distributions.
    for ue_id in range(n):
        position[ue_id] = (rng.uniform(0.0, config.area_m), rng.uniform(0.0, config.area_m))
        speed = rng.uniform(config.mobility.min_speed_mps, config.mobility.max_speed_mps)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        velocity[ue_id] = (speed * math.cos(angle), speed * math.sin(angle))
        p = int(rng.integers(1, N_PRIORITY_CLASSES + 1))
        priority[ue_id] = p
        demand[ue_id] = rng.exponential(config.traffic.mean_demand_mbps[p - 1])
        shadowing[ue_id] = [rng.normal(0.0, config.link.shadowing_sigma_db) for _ in cells]
    rsrp = _rsrp_matrix(position, shadowing, cells, config.link)
    return SimState(
        config=config,
        tick=0,
        cells=cells,
        rng=rng,
        position=position,
        velocity=velocity,
        shadowing_db=shadowing,
        serving_cell=np.argmax(rsrp, axis=1),
        priority=priority,
        demand_mbps=demand,
        achieved_mbps=np.zeros(n),
        boost_factor=np.ones(n),
        boost_until_tick=np.full(n, -1, dtype=np.int64),
    )


def set_fault(state: SimState, ue_id: int, spec: "FaultSpec") -> None:
    """Attach a fault to a UE: reports of the next `duration_ticks` ticks
    are corrupted (ticks state.tick+1 .. state.tick+duration)."""
    state.faults[state.ue_index(ue_id)] = ActiveFault(
        spec=spec, until_tick=state.tick + spec.duration_ticks
    )


def step(state: SimState) -> tuple[SimState, list[MeasurementReport], TickKpis]:
    """Advance one tick. The input state is left untouched.

    Stage order: mobility, shadowing, reselection, channel sampling, fault
    corruption of the reported channel, traffic resampling, report emission.
    A fault never touches `last_channel`, the true channel.
    """
    from .anomaly import inject_fault  # deferred: anomaly drives this simulator

    cfg = state.config
    link = cfg.link
    new = state.clone()
    new.tick = state.tick + 1
    rng = new.rng
    dt = cfg.tick_ms / 1000.0
    area = cfg.area_m
    noise_mw = radio_model.dbm_to_mw(radio_model.noise_power_per_re_dbm(link))

    # (1) mobility with reflective walls, until every coordinate is inside
    position = new.position + new.velocity * dt
    velocity = new.velocity
    while True:
        below = position < 0.0
        above = position > area
        outside = below | above
        if not outside.any():
            break
        position = np.where(below, -position, np.where(above, 2.0 * area - position, position))
        velocity = np.where(outside, -velocity, velocity)
    new.position, new.velocity = position, velocity

    # (2) shadowing evolution, one draw per (UE, cell) in row order
    new.shadowing_db = radio_model.evolve_shadowing(
        state.shadowing_db, cfg.shadowing_rho, link.shadowing_sigma_db, rng
    )

    # (3) serving-cell reselection
    rsrp = _rsrp_matrix(new.position, new.shadowing_db, new.cells, link)
    serving = select_serving_cells(rsrp, state.serving_cell, cfg.hysteresis_db)
    n_handovers = int(np.count_nonzero(serving != state.serving_cell))
    new.serving_cell = serving

    # (4) channel sampling. The interferer sums add the cell columns in cell
    # order with 0.0 for the serving cell, as the scalar sums do: SINR over
    # noise + interferers, RSSI over serving + interferers + noise.
    rows = np.arange(len(serving))
    mw = _scalar_map(_pow10, rsrp / 10.0)
    serving_mw = mw[rows, serving]
    interference = np.zeros(len(serving))
    noise_and_interference = np.full(len(serving), noise_mw)
    for c in range(len(new.cells)):
        p = np.where(serving == c, 0.0, mw[:, c])
        interference = interference + p
        noise_and_interference = noise_and_interference + p
    total_mw = serving_mw + interference + noise_mw
    sinr = 10.0 * _scalar_map(math.log10, serving_mw / noise_and_interference)
    rssi = 10.0 * _scalar_map(math.log10, total_mw)
    rsrq = 10.0 * _scalar_map(math.log10, serving_mw / total_mw)
    cqi = np.searchsorted(radio_model.CQI_SINR_THRESHOLDS_DB, sinr, side="right")
    new.last_channel = list(
        map(
            ChannelSample,
            rsrp[rows, serving].tolist(),
            rssi.tolist(),
            rsrq.tolist(),
            sinr.tolist(),
            cqi.tolist(),
        )
    )

    # (5) fault corruption of the reported channel, in ue_id order
    channels = list(new.last_channel)
    for ue_id in sorted(new.faults):
        fault = new.faults[ue_id]
        if new.tick <= fault.until_tick:
            channels[ue_id] = inject_fault(channels[ue_id], fault.spec, rng)
        if new.tick >= fault.until_tick:
            del new.faults[ue_id]

    # (6) traffic demand resampling
    means = np.array(cfg.traffic.mean_demand_mbps, dtype=np.float64)
    new.demand_mbps = rng.exponential(means[new.priority - 1])

    # (7) report emission
    reports = [
        MeasurementReport(
            new.tick,
            ue_id,
            cell_id,
            channel,
            {c: r for c, r in enumerate(rsrp_row) if c != cell_id},
            demand,
            priority,
            achieved,
        )
        for ue_id, (cell_id, channel, rsrp_row, demand, priority, achieved) in enumerate(
            zip(
                serving.tolist(),
                channels,
                rsrp.tolist(),
                new.demand_mbps.tolist(),
                new.priority.tolist(),
                new.achieved_mbps.tolist(),
            )
        )
    ]
    return new, reports, TickKpis(tick=new.tick, n_handovers=n_handovers)


def apply_allocation(state: SimState, plan: "AllocationPlan", link: LinkBudgetParams) -> None:
    """Realize a PRB plan on the live network: each UE's achieved rate for the
    tick is its grant times the per-PRB rate of its TRUE channel, capped at
    its offered demand. Stored, as a new array, for the next tick's reports."""
    demand = state.demand_mbps.tolist()
    achieved = [0.0] * len(demand)
    for ue_id, channel in enumerate(state.last_channel):
        grant = plan.grants.get(ue_id, 0)
        if grant > 0:
            se = radio_model.spectral_efficiency_bps_hz(channel.sinr_db, channel.cqi)
            rate = grant * link.prb_bandwidth_hz * se / 1e6
            achieved[ue_id] = min(rate, demand[ue_id])
    state.achieved_mbps = np.array(achieved, dtype=np.float64)


def sim_config_to_dict(config: SimConfig) -> dict:
    """Fully expanded config, suitable for the config file and manifests."""
    return {
        "n_cells": config.n_cells,
        "n_ues": config.n_ues,
        "area_m": config.area_m,
        "tick_ms": config.tick_ms,
        "n_ticks": config.n_ticks,
        "seed": config.seed,
        "tx_power_per_re_dbm": config.tx_power_per_re_dbm,
        "total_prbs": config.total_prbs,
        "hysteresis_db": config.hysteresis_db,
        "shadowing_rho": config.shadowing_rho,
        "link": {
            "ref_path_loss_db": config.link.ref_path_loss_db,
            "ref_distance_m": config.link.ref_distance_m,
            "path_loss_exponent": config.link.path_loss_exponent,
            "shadowing_sigma_db": config.link.shadowing_sigma_db,
            "noise_density_dbm_hz": config.link.noise_density_dbm_hz,
            "prb_bandwidth_hz": config.link.prb_bandwidth_hz,
            "noise_figure_db": config.link.noise_figure_db,
        },
        "mobility": {
            "min_speed_mps": config.mobility.min_speed_mps,
            "max_speed_mps": config.mobility.max_speed_mps,
        },
        "traffic": {"mean_demand_mbps": list(config.traffic.mean_demand_mbps)},
    }


def _check_keys(given: dict, allowed, where: str) -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ConfigurationError(f"unknown config key{'s' if len(unknown) > 1 else ''} "
                                 f"in {where}: {', '.join(unknown)}")


def json_int(value, name: str) -> int:
    """`value` if it is a JSON integer; a float or a boolean is rejected, not truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return value


def sim_config_from_dict(data: dict) -> SimConfig:
    """Build a SimConfig from a (possibly partial) dict; unknown keys error."""
    if not isinstance(data, dict):
        raise ConfigurationError("config must be a JSON object")
    defaults = sim_config_to_dict(SimConfig())
    _check_keys(data, defaults, "config")
    merged = {**defaults, **data}

    def section(name: str) -> dict:
        given = merged[name]
        if not isinstance(given, dict):
            raise ConfigurationError(f"config.{name} must be a JSON object")
        _check_keys(given, defaults[name], f"config.{name}")
        return {**defaults[name], **given}

    try:
        link = LinkBudgetParams(**section("link"))
        mobility = MobilityConfig(**section("mobility"))
        means = section("traffic")["mean_demand_mbps"]
        traffic = TrafficConfig(mean_demand_mbps=tuple(float(v) for v in means))
        return SimConfig(
            n_cells=json_int(merged["n_cells"], "config.n_cells"),
            n_ues=json_int(merged["n_ues"], "config.n_ues"),
            area_m=float(merged["area_m"]),
            tick_ms=float(merged["tick_ms"]),
            n_ticks=json_int(merged["n_ticks"], "config.n_ticks"),
            seed=json_int(merged["seed"], "config.seed"),
            tx_power_per_re_dbm=float(merged["tx_power_per_re_dbm"]),
            total_prbs=json_int(merged["total_prbs"], "config.total_prbs"),
            hysteresis_db=float(merged["hysteresis_db"]),
            shadowing_rho=float(merged["shadowing_rho"]),
            link=link,
            mobility=mobility,
            traffic=traffic,
        )
    except (TypeError, ValueError) as e:
        raise ConfigurationError(f"bad config value: {e}") from e


def load_sim_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigurationError(f"config file {path}: {e}") from e
    return sim_config_from_dict(data)


def report_to_dict(report: MeasurementReport) -> dict:
    """JSON-able view of a report; field names match the wire schema."""
    ch = report.channel
    return {
        "tick": report.tick,
        "ue_id": report.ue_id,
        "serving_cell": report.serving_cell,
        "channel": {
            "rsrp_dbm": ch.rsrp_dbm,
            "rssi_dbm": ch.rssi_dbm,
            "rsrq_db": ch.rsrq_db,
            "sinr_db": ch.sinr_db,
            "cqi": ch.cqi,
        },
        "neighbor_rsrp_dbm": {str(k): v for k, v in sorted(report.neighbor_rsrp_dbm.items())},
        "demand_mbps": report.demand_mbps,
        "priority": report.priority,
        "achieved_mbps": report.achieved_mbps,
    }
