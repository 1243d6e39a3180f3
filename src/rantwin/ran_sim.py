"""Deterministic tick-driven simulation of UEs, cells (RUs), mobility,
traffic, serving-cell selection and per-tick measurement reporting.

One tick models one 10 ms scheduling window by default. All randomness flows
through the generator carried inside SimState, so equal seeds give equal
report streams.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
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


@dataclass
class UeState:
    ue_id: int
    position: tuple[float, float]
    velocity: tuple[float, float]
    serving_cell: int
    traffic_priority: int
    demand_mbps: float
    shadowing_db: dict[int, float]
    active_fault: ActiveFault | None = None
    achieved_mbps: float = 0.0
    # Allocation-weight boost installed by a control action; active while
    # the report tick is <= boost_until_tick.
    boost_factor: float = 1.0
    boost_until_tick: int = -1
    last_channel: ChannelSample | None = None


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


@dataclass
class SimState:
    config: SimConfig
    tick: int
    cells: list[CellState]
    ues: list[UeState]
    rng: np.random.Generator

    def clone(self) -> "SimState":
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = self.rng.bit_generator.state
        ues = [replace(ue, shadowing_db=dict(ue.shadowing_db)) for ue in self.ues]
        return SimState(self.config, self.tick, list(self.cells), ues, rng)

    def ue(self, ue_id: int) -> UeState:
        for ue in self.ues:
            if ue.ue_id == ue_id:
                return ue
        raise DomainError(f"unknown ue_id {ue_id}")

    def cell(self, cell_id: int) -> CellState:
        for cell in self.cells:
            if cell.cell_id == cell_id:
                return cell
        raise DomainError(f"unknown cell_id {cell_id}")

    def snapshot(self) -> dict:
        """Plain JSON-able view of the full state, used for equality checks."""
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
                    "ue_id": u.ue_id,
                    "position": list(u.position),
                    "velocity": list(u.velocity),
                    "serving_cell": u.serving_cell,
                    "traffic_priority": u.traffic_priority,
                    "demand_mbps": u.demand_mbps,
                    "shadowing_db": {str(k): v for k, v in sorted(u.shadowing_db.items())},
                    "achieved_mbps": u.achieved_mbps,
                    "boost_factor": u.boost_factor,
                    "boost_until_tick": u.boost_until_tick,
                    "fault_until_tick": (
                        u.active_fault.until_tick if u.active_fault is not None else None
                    ),
                }
                for u in self.ues
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


def _distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _rsrp_map(ue_pos, shadowing_db, cells, link) -> dict[int, float]:
    out = {}
    for cell in cells:
        d = max(_distance(ue_pos, cell.position), 1e-6)
        pl = radio_model.path_loss_db(d, link)
        out[cell.cell_id] = radio_model.rsrp_dbm(
            cell.tx_power_per_re_dbm, pl, shadowing_db[cell.cell_id]
        )
    return out


def select_serving_cell(
    ue: UeState, rsrp_by_cell: dict[int, float], hysteresis_db: float
) -> int:
    """Keep the serving cell unless a neighbor beats it by more than the margin.

    Ties among qualifying neighbors break toward the lowest cell_id.
    """
    if not rsrp_by_cell:
        raise DomainError("rsrp_by_cell must not be empty")
    if ue.serving_cell not in rsrp_by_cell:
        raise DomainError(f"serving cell {ue.serving_cell} missing from RSRP map")
    serving_rsrp = rsrp_by_cell[ue.serving_cell]
    best = ue.serving_cell
    best_rsrp = serving_rsrp
    for cell_id in sorted(rsrp_by_cell):
        r = rsrp_by_cell[cell_id]
        if cell_id != ue.serving_cell and r > serving_rsrp + hysteresis_db and r > best_rsrp:
            best, best_rsrp = cell_id, r
    return best


def init_sim(config: SimConfig) -> SimState:
    """Place cells on a grid, scatter UEs uniformly, attach each to its
    strongest cell and draw initial shadowing / traffic state."""
    rng = np.random.default_rng(config.seed)
    cells = [
        CellState(i, pos, config.tx_power_per_re_dbm, config.total_prbs)
        for i, pos in enumerate(_grid_positions(config.n_cells, config.area_m))
    ]
    ues = []
    for ue_id in range(config.n_ues):
        pos = (rng.uniform(0.0, config.area_m), rng.uniform(0.0, config.area_m))
        speed = rng.uniform(config.mobility.min_speed_mps, config.mobility.max_speed_mps)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        velocity = (speed * math.cos(angle), speed * math.sin(angle))
        priority = int(rng.integers(1, N_PRIORITY_CLASSES + 1))
        demand = float(rng.exponential(config.traffic.mean_demand_mbps[priority - 1]))
        shadowing = {
            cell.cell_id: float(rng.normal(0.0, config.link.shadowing_sigma_db))
            for cell in cells
        }
        ue = UeState(
            ue_id=ue_id,
            position=pos,
            velocity=velocity,
            serving_cell=0,
            traffic_priority=priority,
            demand_mbps=demand,
            shadowing_db=shadowing,
        )
        rsrp = _rsrp_map(pos, shadowing, cells, config.link)
        ue.serving_cell = min(rsrp, key=lambda cid: (-rsrp[cid], cid))
        ues.append(ue)
    return SimState(config=config, tick=0, cells=cells, ues=ues, rng=rng)


def set_fault(state: SimState, ue_id: int, spec: "FaultSpec") -> None:
    """Attach a fault to a UE: reports of the next `duration_ticks` ticks
    are corrupted (ticks state.tick+1 .. state.tick+duration)."""
    ue = state.ue(ue_id)
    ue.active_fault = ActiveFault(spec=spec, until_tick=state.tick + spec.duration_ticks)


def step(state: SimState) -> tuple[SimState, list[MeasurementReport], TickKpis]:
    """Advance one tick. The input state is left untouched.

    Stage order: mobility, shadowing, reselection, channel sampling, fault
    corruption of the reported channel, traffic resampling, report emission.
    A fault never touches `ue.last_channel`, the true channel.
    """
    from .anomaly import inject_fault  # deferred: anomaly drives this simulator

    cfg = state.config
    new = state.clone()
    new.tick = state.tick + 1
    rng = new.rng
    dt = cfg.tick_ms / 1000.0
    link = cfg.link
    noise_mw = radio_model.dbm_to_mw(radio_model.noise_power_per_re_dbm(link))

    # (1) mobility with reflective walls
    for ue in new.ues:
        x, y = ue.position
        vx, vy = ue.velocity
        x += vx * dt
        y += vy * dt
        while not 0.0 <= x <= cfg.area_m:
            if x < 0.0:
                x, vx = -x, -vx
            else:
                x, vx = 2.0 * cfg.area_m - x, -vx
        while not 0.0 <= y <= cfg.area_m:
            if y < 0.0:
                y, vy = -y, -vy
            else:
                y, vy = 2.0 * cfg.area_m - y, -vy
        ue.position = (x, y)
        ue.velocity = (vx, vy)

    # (2) shadowing evolution
    for ue in new.ues:
        for cell in new.cells:
            ue.shadowing_db[cell.cell_id] = radio_model.evolve_shadowing(
                ue.shadowing_db[cell.cell_id], cfg.shadowing_rho, link.shadowing_sigma_db, rng
            )

    # (3) serving-cell reselection, (4) channel sampling
    n_handovers = 0
    channels: list[ChannelSample] = []
    neighbors: list[dict[int, float]] = []
    for ue in new.ues:
        rsrp_by_cell = _rsrp_map(ue.position, ue.shadowing_db, new.cells, link)
        chosen = select_serving_cell(ue, rsrp_by_cell, cfg.hysteresis_db)
        if chosen != ue.serving_cell:
            n_handovers += 1
            ue.serving_cell = chosen

        serving_mw = radio_model.dbm_to_mw(rsrp_by_cell[ue.serving_cell])
        interferers = [
            radio_model.dbm_to_mw(rsrp_by_cell[c.cell_id])
            for c in new.cells
            if c.cell_id != ue.serving_cell
        ]
        sinr = radio_model.sinr_db(serving_mw, interferers, noise_mw)
        total_mw = serving_mw + sum(interferers) + noise_mw
        channel = ChannelSample(
            rsrp_dbm=rsrp_by_cell[ue.serving_cell],
            rssi_dbm=radio_model.mw_to_dbm(total_mw),
            rsrq_db=radio_model.rsrq_db(serving_mw, total_mw),
            sinr_db=sinr,
            cqi=radio_model.cqi_from_sinr(sinr),
        )
        ue.last_channel = channel
        channels.append(channel)
        neighbors.append({cid: r for cid, r in rsrp_by_cell.items() if cid != ue.serving_cell})

    # (5) fault corruption of the reported channel
    for i, ue in enumerate(new.ues):
        if ue.active_fault is not None:
            if new.tick <= ue.active_fault.until_tick:
                channels[i] = inject_fault(channels[i], ue.active_fault.spec, rng)
            if new.tick >= ue.active_fault.until_tick:
                ue.active_fault = None

    # (6) traffic demand resampling, (7) report emission
    reports = []
    for ue, channel, neighbor_rsrp in zip(new.ues, channels, neighbors):
        ue.demand_mbps = float(
            rng.exponential(cfg.traffic.mean_demand_mbps[ue.traffic_priority - 1])
        )
        reports.append(
            MeasurementReport(
                tick=new.tick,
                ue_id=ue.ue_id,
                serving_cell=ue.serving_cell,
                channel=channel,
                neighbor_rsrp_dbm=neighbor_rsrp,
                demand_mbps=ue.demand_mbps,
                priority=ue.traffic_priority,
                achieved_mbps=ue.achieved_mbps,
            )
        )
    return new, reports, TickKpis(tick=new.tick, n_handovers=n_handovers)


def apply_allocation(state: SimState, plan: "AllocationPlan", link: LinkBudgetParams) -> None:
    """Realize a PRB plan on the live network: each UE's achieved rate for the
    tick is its grant times the per-PRB rate of its TRUE channel, capped at
    its offered demand. Stored for the next tick's reports."""
    for ue in state.ues:
        grant = plan.grants.get(ue.ue_id, 0)
        if grant <= 0 or ue.last_channel is None:
            ue.achieved_mbps = 0.0
            continue
        se = radio_model.spectral_efficiency_bps_hz(ue.last_channel.sinr_db, ue.last_channel.cqi)
        rate = grant * link.prb_bandwidth_hz * se / 1e6
        ue.achieved_mbps = min(rate, ue.demand_mbps)


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
            n_cells=int(merged["n_cells"]),
            n_ues=int(merged["n_ues"]),
            area_m=float(merged["area_m"]),
            tick_ms=float(merged["tick_ms"]),
            n_ticks=int(merged["n_ticks"]),
            seed=int(merged["seed"]),
            tx_power_per_re_dbm=float(merged["tx_power_per_re_dbm"]),
            total_prbs=int(merged["total_prbs"]),
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
