"""Deterministic tick-driven simulation of UEs, cells (RUs), mobility,
traffic, serving-cell selection and per-tick measurement reporting.

One tick models one 10 ms scheduling window by default. All randomness flows
through the generator carried inside SimState, so equal seeds give equal
report streams.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING, get_origin, get_type_hints

import numpy as np

from . import radio_model
from .errors import ConfigurationError, DomainError
from .radio_model import ChannelColumns, LinkBudgetParams, fields_equal

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


@dataclass(slots=True)
class UeView:
    """One UE's id and serving cell, as `SimState.ues` lists them."""

    ue_id: int
    serving_cell: int


@dataclass(frozen=True, eq=False)
class ReportBatch:
    """One tick's measurement reports, row i from the UE `ue_id[i]`.

    `channel` is the channel as reported, faults included. `rsrp_dbm` is the
    true RSRP of every cell, column j for cell_id j: the serving cell and
    the neighbours. Nothing writes into the arrays.
    """

    tick: int
    ue_id: np.ndarray  # (U,) int
    serving_cell: np.ndarray  # (U,) int
    channel: ChannelColumns
    rsrp_dbm: np.ndarray  # (U, C)
    demand_mbps: np.ndarray  # (U,)
    priority: np.ndarray  # (U,) int
    achieved_mbps: np.ndarray  # (U,)

    __eq__ = fields_equal

    def __post_init__(self):
        columns = (self.serving_cell, self.channel.cqi, self.rsrp_dbm, self.demand_mbps,
                   self.priority, self.achieved_mbps)
        if any(len(column) != len(self.ue_id) for column in columns):
            raise DomainError(f"every report column needs {len(self.ue_id)} rows, one per ue_id")

    def __len__(self) -> int:
        return len(self.ue_id)


@dataclass(frozen=True)
class TickKpis:
    tick: int
    n_handovers: int


@functools.cache
def _clone_seed() -> np.random.SeedSequence:
    """The seed of the throwaway generator of `SimState.clone`, whose state
    the clone overwrites. Built once, because seeding from an int builds a
    SeedSequence, and on first use, so that importing this module does not
    load numpy.random."""
    return np.random.SeedSequence(0)


# The array columns of SimState, one row per UE.
_UE_COLUMNS = ("position", "velocity", "shadowing_db", "serving_cell", "priority", "demand_mbps",
               "achieved_mbps", "boost_factor", "boost_until_tick")


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
    # The true (uncorrupted) channel of every UE at the last step; step
    # replaces it and nothing writes into it.
    last_channel: ChannelColumns | None = None
    # The cells' positions (C, 2) and powers (C,), built from `cells` once:
    # the cells of a network never change, and clones share the arrays.
    cell_xy: np.ndarray = field(init=False, repr=False)
    cell_tx_dbm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for i, cell in enumerate(self.cells):
            if cell.cell_id != i:
                raise DomainError(
                    f"cells[{i}] has cell_id {cell.cell_id}; cell ids must equal their "
                    "position, which indexes the shadowing and RSRP columns"
                )
        self.cell_xy = np.array([c.position for c in self.cells], dtype=np.float64)
        self.cell_tx_dbm = np.array([c.tx_power_per_re_dbm for c in self.cells], dtype=np.float64)

    def clone(self) -> "SimState":
        """A copy of the columns apply_control writes into; the other arrays
        are shared, because step and apply_allocation replace them whole."""
        # A fixed seed spares drawing entropy from the OS for a generator
        # whose state the next line overwrites.
        rng = np.random.Generator(np.random.PCG64(_clone_seed()))
        rng.bit_generator.state = self.rng.bit_generator.state
        new = object.__new__(SimState)
        new.__dict__.update(self.__dict__)
        new.rng = rng
        new.serving_cell = self.serving_cell.copy()
        new.boost_factor = self.boost_factor.copy()
        new.boost_until_tick = self.boost_until_tick.copy()
        new.faults = dict(self.faults)
        return new

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
        """Plain JSON-able copy of the full state but `last_channel`, used
        for equality checks."""
        return {
            "tick": self.tick,
            "cells": [[c.cell_id, list(c.position), c.tx_power_per_re_dbm, c.total_prbs]
                      for c in self.cells],
            **{name: getattr(self, name).tolist() for name in _UE_COLUMNS},
            "fault_until_tick": [[u, f.until_tick] for u, f in sorted(self.faults.items())],
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


def _rsrp_matrix(state: SimState) -> np.ndarray:
    """(U, C) RSRP in dBm at the state's positions and shadowing: the
    formula of `radio_model.rsrp_dbm` and `path_loss_db`, elementwise."""
    link = state.config.link
    position = state.position
    dx = position[:, 0:1] - state.cell_xy[:, 0]
    dy = position[:, 1:2] - state.cell_xy[:, 1]
    d = np.maximum(np.hypot(dx, dy), max(1e-6, link.ref_distance_m))
    path_loss = link.ref_path_loss_db + 10.0 * link.path_loss_exponent * np.log10(
        d / link.ref_distance_m
    )
    return state.cell_tx_dbm - path_loss + state.shadowing_db


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
    if n_ues and not (
        0 <= np.minimum.reduce(serving_cell) <= np.maximum.reduce(serving_cell) < n_cells
    ):
        raise DomainError(f"serving cell outside 0..{n_cells - 1}")
    rows = np.arange(n_ues)
    qualifies = rsrp_dbm > (rsrp_dbm[rows, serving_cell] + hysteresis_db)[:, None]
    qualifies[rows, serving_cell] = False
    best = np.argmax(np.where(qualifies, rsrp_dbm, -np.inf), axis=1)
    return np.where(qualifies.any(axis=1), best, serving_cell)


def _interferer_sums(
    mw: np.ndarray, serving: np.ndarray, noise_mw: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per UE, the power of every cell but the serving one in the (U, C)
    `mw`, summed from 0.0 and from `noise_mw`.

    The cells are added in cell order, with 0.0 for the serving cell, as
    the scalar sums do. An axis-0 reduce of C-contiguous (C, U) rows adds
    them in that order while the UE axis is the inner loop; one spare
    column keeps it so for a single UE, whose lone column numpy would sum
    pairwise.
    """
    n_ues = len(serving)
    others = np.zeros((mw.shape[1], n_ues + 1))
    others[:, :n_ues] = mw.T
    others[serving, np.arange(n_ues)] = 0.0
    return (np.add.reduce(others, axis=0)[:n_ues],
            np.add.reduce(others, axis=0, initial=noise_mw)[:n_ues])


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
    state = SimState(
        config=config,
        tick=0,
        cells=cells,
        rng=rng,
        position=position,
        velocity=velocity,
        shadowing_db=shadowing,
        serving_cell=np.zeros(n, dtype=np.int64),
        priority=priority,
        demand_mbps=demand,
        achieved_mbps=np.zeros(n),
        boost_factor=np.ones(n),
        boost_until_tick=np.full(n, -1, dtype=np.int64),
    )
    state.serving_cell = np.argmax(_rsrp_matrix(state), axis=1)
    return state


def set_fault(state: SimState, ue_id: int, spec: "FaultSpec") -> None:
    """Attach a fault to a UE: reports of the next `duration_ticks` ticks
    are corrupted (ticks state.tick+1 .. state.tick+duration)."""
    state.faults[state.ue_index(ue_id)] = ActiveFault(
        spec=spec, until_tick=state.tick + spec.duration_ticks
    )


def step(state: SimState) -> tuple[SimState, ReportBatch, TickKpis]:
    """Advance one tick. The input state is left untouched.

    Stage order: mobility, shadowing, reselection, channel sampling, fault
    corruption of the reported channel, traffic resampling, report emission.
    A fault never touches `last_channel`, the true channel.
    """
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
    rsrp = _rsrp_matrix(new)
    serving = select_serving_cells(rsrp, state.serving_cell, cfg.hysteresis_db)
    n_handovers = int(np.count_nonzero(serving != state.serving_cell))
    new.serving_cell = serving

    # (4) channel sampling: SINR over noise + interferers, RSSI over
    # serving + interferers + noise
    rows = np.arange(len(serving))
    mw = np.power(10.0, rsrp / 10.0)
    serving_mw = mw[rows, serving]
    interference, noise_and_interference = _interferer_sums(mw, serving, noise_mw)
    total_mw = serving_mw + interference + noise_mw
    sinr = 10.0 * np.log10(serving_mw / noise_and_interference)
    rssi = 10.0 * np.log10(total_mw)
    rsrq = 10.0 * np.log10(serving_mw / total_mw)
    cqi = np.searchsorted(radio_model.CQI_SINR_THRESHOLDS_DB_ARRAY, sinr, side="right")
    new.last_channel = ChannelColumns(rsrp[rows, serving], rssi, rsrq, sinr, cqi)

    # (5) fault corruption of the reported channel, in ue_id order. Every
    # fault in the set is live: set_fault gives until_tick >= tick + 1, and a
    # fault is dropped on its last tick.
    faulted = sorted(new.faults)
    specs = [new.faults[u].spec for u in faulted]
    reported = anomaly.inject_faults(new.last_channel, faulted, specs, rng)
    new.faults = {u: f for u, f in new.faults.items() if f.until_tick > new.tick}

    # (6) traffic demand resampling
    means = np.array(cfg.traffic.mean_demand_mbps, dtype=np.float64)
    # scale * standard_exponential is what rng.exponential(scale) computes
    # per draw: the same doubles and generator state, without the per-element
    # parameter broadcast.
    new.demand_mbps = means[new.priority - 1] * rng.standard_exponential(len(new.priority))

    # (7) report emission. serving_cell is copied because apply_control
    # writes into the state's column.
    reports = ReportBatch(
        new.tick,
        rows,
        serving.copy(),
        reported,
        rsrp,
        new.demand_mbps,
        new.priority,
        new.achieved_mbps,
    )
    return new, reports, TickKpis(tick=new.tick, n_handovers=n_handovers)


def apply_allocation(state: SimState, plan: "AllocationPlan", link: LinkBudgetParams) -> None:
    """Realize a PRB plan on the live network: each UE's achieved rate for the
    tick is its grant times the per-PRB rate of its TRUE channel, capped at
    its offered demand. Stored, as a new array, for the next tick's reports."""
    grant = plan.grants_of(np.arange(len(state.demand_mbps)))
    granted = np.flatnonzero(grant > 0)
    true = state.last_channel
    se = radio_model.spectral_efficiencies(true.sinr_db[granted], true.cqi[granted])
    achieved = np.zeros(len(grant))
    rate = grant[granted] * link.prb_bandwidth_hz * se / 1e6
    achieved[granted] = np.minimum(rate, state.demand_mbps[granted])
    state.achieved_mbps = achieved


def sim_config_to_dict(config) -> dict:
    """Fully expanded config, suitable for the config file and manifests:
    one key per dataclass field, nested configs as objects, tuples as lists."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            value = sim_config_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def json_int(value, name: str) -> int:
    """`value` if it is a JSON integer; a float or a boolean is rejected, not truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return value


def json_float(value, name: str) -> float:
    """`value` as a float if it is a finite JSON number. A boolean, a string,
    NaN, an infinity and an integer too large for a float are rejected."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigurationError(f"{name} is too large for a float") from None
    if not math.isfinite(number):
        raise ConfigurationError(f"{name} must be finite, got {number}")
    return number


def _decode(cls, data, where: str):
    """An instance of the config dataclass `cls` from a (possibly partial)
    JSON object; each given field is decoded by its annotated type and the
    others keep their defaults."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    hints = get_type_hints(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ConfigurationError(f"unknown config key{'s' if len(unknown) > 1 else ''} "
                                 f"in {where}: {', '.join(unknown)}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        hint, value, name = hints[f.name], data[f.name], f"{where}.{f.name}"
        if is_dataclass(hint):
            kwargs[f.name] = _decode(hint, value, name)
        elif get_origin(hint) is tuple:  # a tuple of numbers
            if not isinstance(value, list):
                raise ConfigurationError(f"{name} must be a JSON list of numbers, got {value!r}")
            kwargs[f.name] = tuple(json_float(v, f"{name}[{i}]") for i, v in enumerate(value))
        else:
            kwargs[f.name] = {int: json_int, float: json_float}[hint](value, name)
    return cls(**kwargs)


def sim_config_from_dict(data: dict) -> SimConfig:
    """Build a SimConfig from a (possibly partial) dict; unknown keys error."""
    return _decode(SimConfig, data, "config")


def load_sim_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigurationError(f"config file {path}: {e}") from e
    return sim_config_from_dict(data)


def report_to_dict(reports: ReportBatch, i: int) -> dict:
    """JSON-able view of report row i; field names match the wire schema."""
    ch = reports.channel.row(i)
    serving = int(reports.serving_cell[i])
    return {
        "tick": reports.tick,
        "ue_id": int(reports.ue_id[i]),
        "serving_cell": serving,
        "channel": {
            "rsrp_dbm": ch.rsrp_dbm,
            "rssi_dbm": ch.rssi_dbm,
            "rsrq_db": ch.rsrq_db,
            "sinr_db": ch.sinr_db,
            "cqi": ch.cqi,
        },
        "neighbor_rsrp_dbm": {
            str(c): r for c, r in enumerate(reports.rsrp_dbm[i].tolist()) if c != serving
        },
        "demand_mbps": float(reports.demand_mbps[i]),
        "priority": int(reports.priority[i]),
        "achieved_mbps": float(reports.achieved_mbps[i]),
    }


# anomaly drives this simulator and imports it, so step's fault stage is
# bound here, once both modules can be loaded in either order.
from . import anomaly  # noqa: E402
