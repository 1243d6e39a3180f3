"""Deterministic tick-driven simulation of UEs, cells (RUs), mobility,
traffic, serving-cell selection and per-tick measurement reporting.

One tick models one 10 ms scheduling window by default. All randomness flows
through the generator carried inside SimState, so equal seeds give equal
report streams. The fault model lives here too: the anomaly classes, what a
fault is (`FaultSpec`) and what it corrupts in the reports (`inject_faults`).
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING, Annotated, get_type_hints

import numpy as np

from . import radio_model
from .errors import ConfigurationError, DomainError, check_fields
from .radio_model import ChannelColumns, LinkBudgetParams, fields_equal

if TYPE_CHECKING:
    from .twin_engine import AllocationPlan

N_PRIORITY_CLASSES = 4


@dataclass(frozen=True)
class MobilityConfig:
    min_speed_mps: Annotated[float, ">= 0"] = 0.5
    max_speed_mps: float = 3.0


@dataclass(frozen=True)
class TrafficConfig:
    # Mean offered rate per priority class 1..4 (index 0 -> priority 1).
    mean_demand_mbps: tuple[float, float, float, float] = (2.0, 4.0, 6.0, 8.0)


@dataclass(frozen=True)
class SimConfig:
    n_cells: Annotated[int, ">= 1"] = 3
    n_ues: Annotated[int, ">= 1"] = 50
    area_m: Annotated[float, "> 0"] = 600.0
    tick_ms: Annotated[float, "> 0"] = 10.0
    n_ticks: Annotated[int, ">= 1"] = 2000
    seed: Annotated[int, ">= 0"] = 42
    tx_power_per_re_dbm: float = 15.0
    total_prbs: Annotated[int, ">= 1"] = 50
    hysteresis_db: Annotated[float, ">= 0"] = 3.0
    shadowing_rho: Annotated[float, ">= 0", "<= 1"] = 0.9
    link: LinkBudgetParams = field(default_factory=LinkBudgetParams)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)

    def __post_init__(self):
        for part, where in ((self, ""), (self.mobility, "mobility."), (self.traffic, "traffic.")):
            check_fields(part, ConfigurationError, where)
        if self.mobility.max_speed_mps < self.mobility.min_speed_mps:
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


class AnomalyClass(enum.IntEnum):
    NORMAL = 0
    RSRP_ERROR = 1
    RSRQ_ERROR = 2
    SINR_ERROR = 3


@dataclass(frozen=True)
class FaultSpec:
    """Adds offset_db +- jitter_db to its class's measurement for duration_ticks ticks."""

    cls: AnomalyClass
    offset_db: float
    jitter_db: Annotated[float, ">= 0"]
    duration_ticks: Annotated[int, ">= 1"]

    def __post_init__(self):
        # inject_faults would turn a non-finite offset or jitter into bad reports
        check_fields(self, DomainError)
        if not isinstance(self.cls, AnomalyClass) or self.cls == AnomalyClass.NORMAL:
            raise DomainError(f"a fault's class must be an error class, got {self.cls!r}")


@dataclass(slots=True)
class UeView:
    """One UE's id and serving cell, as `SimState.ues` lists them."""

    ue_id: int
    serving_cell: int


@dataclass(frozen=True, eq=False)
class ReportBatch:
    """One tick's measurement reports, row i from ue_id i.

    `channel` is the channel as reported, faults included. `rsrp_dbm` is the
    true RSRP of every cell, column j for cell_id j: the serving cell and
    the neighbours. Nothing writes into the arrays.
    """

    tick: int
    serving_cell: np.ndarray  # (U,) int
    channel: ChannelColumns
    rsrp_dbm: np.ndarray  # (U, C)
    demand_mbps: np.ndarray  # (U,)
    priority: np.ndarray  # (U,) int
    achieved_mbps: np.ndarray  # (U,)

    __eq__ = fields_equal

    def __post_init__(self):
        """The one check of a tick's reports: one row per UE in every column,
        every RSRQ <= 0 and every CQI in 0..15."""
        n = len(self.serving_cell)
        columns = (*vars(self.channel).values(), self.rsrp_dbm,
                   self.demand_mbps, self.priority, self.achieved_mbps)
        if any(len(column) != n for column in columns):
            raise DomainError(f"every report column needs {n} rows, one per ue_id")
        if not n:
            return
        # fmax and fmin skip NaN unless every entry is NaN, and a NaN passes
        # both checks, as it does entry by entry.
        top = np.fmax.reduce(self.channel.rsrq_db)
        if top > 1e-12:
            raise DomainError(f"rsrq_db must be <= 0, got {top}")
        low, high = np.fmin.reduce(self.channel.cqi), np.fmax.reduce(self.channel.cqi)
        if low < 0 or high > 15:
            raise DomainError(f"cqi must be in [0, 15], got {low}..{high}")

    def __len__(self) -> int:
        return len(self.serving_cell)


@dataclass(frozen=True)
class TickKpis:
    tick: int
    n_handovers: int


@dataclass(eq=False)
class SimState:
    """The network at one tick, one column per UE attribute. `step`,
    `apply_allocation` and `ric.apply_control` advance it in place.

    Row i of every UE column belongs to ue_id i, and column j of
    `shadowing_db` to cells[j], so cells[j].cell_id must be j. Only
    `ric.apply_control` and `set_fault` write into arrays, those of
    `serving_cell`, the boost and the fault columns; every other column is
    replaced whole and never written into, so an array read from a state
    keeps its values. Arrays have no single truth value, so states compare
    by identity.
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
    achieved_mbps: np.ndarray  # (U,)
    # The allocation-weight boost of a control action and the fault of
    # set_fault, each live while the report tick is <= its until_tick.
    boost_factor: np.ndarray  # (U,)
    boost_until_tick: np.ndarray  # (U,) int
    fault_class: np.ndarray  # (U,) int, an AnomalyClass; 0 (Normal): never faulted
    fault_offset_db: np.ndarray  # (U,)
    fault_jitter_db: np.ndarray  # (U,)
    fault_until_tick: np.ndarray  # (U,) int
    # The true (uncorrupted) channel of every UE at the last step.
    last_channel: ChannelColumns | None = None
    # The cells' positions (C, 2) and powers (C,), built from `cells` once:
    # the cells of a network never change.
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

    @property
    def ues(self) -> list[UeView]:
        """(ue_id, serving_cell) of every UE, read from the columns at each access."""
        return list(map(UeView, range(len(self.serving_cell)), self.serving_cell.tolist()))


def _grid_positions(n_cells: int, area_m: float) -> list[tuple[float, float]]:
    rows = max(1, int(math.floor(math.sqrt(n_cells))))
    cols = int(math.ceil(n_cells / rows))
    positions = []
    for idx in range(n_cells):
        r, c = divmod(idx, cols)
        positions.append(((c + 0.5) * area_m / cols, (r + 0.5) * area_m / rows))
    return positions


def select_serving_cells(
    rsrp_dbm: np.ndarray, serving_cell: np.ndarray, hysteresis_db: float
) -> np.ndarray:
    """Serving cell of every UE after reselection, from its (U, C) RSRP row.

    A UE's candidate is its strongest cell, ties toward the lowest cell_id.
    It moves there if the candidate beats its serving cell by more than the
    margin, and keeps its serving cell otherwise.
    """
    n_ues, n_cells = rsrp_dbm.shape
    if n_cells == 0:
        raise DomainError("rsrp_dbm must have at least one cell column")
    if n_ues and not (
        0 <= np.minimum.reduce(serving_cell) <= np.maximum.reduce(serving_cell) < n_cells
    ):
        raise DomainError(f"serving cell outside 0..{n_cells - 1}")
    rows = np.arange(n_ues)
    best = np.argmax(rsrp_dbm, axis=1)
    moves = rsrp_dbm[rows, best] > rsrp_dbm[rows, serving_cell] + hysteresis_db
    return np.where(moves, best, serving_cell)


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
        fault_class=np.zeros(n, dtype=np.int64),
        fault_offset_db=np.zeros(n),
        fault_jitter_db=np.zeros(n),
        fault_until_tick=np.full(n, -1, dtype=np.int64),
    )
    state.serving_cell = np.argmax(radio_model.rsrp_matrix(
        position, state.cell_xy, state.cell_tx_dbm, shadowing, config.link), axis=1)
    return state


def set_fault(state: SimState, ue_id: int, spec: FaultSpec) -> None:
    """Attach a fault to a UE in place of any it had: reports of ticks
    state.tick+1 .. state.tick+duration_ticks are corrupted. `ue_id` is the
    UE's row, so a bool, which numpy reads as a mask, is refused."""
    n = len(state.serving_cell)
    if isinstance(ue_id, bool) or not isinstance(ue_id, int) or not 0 <= ue_id < n:
        raise DomainError(f"ue_id must be a Python int (not a bool) in 0..{n - 1}, got {ue_id!r}")
    state.fault_class[ue_id] = spec.cls
    state.fault_offset_db[ue_id] = spec.offset_db
    state.fault_jitter_db[ue_id] = spec.jitter_db
    state.fault_until_tick[ue_id] = state.tick + spec.duration_ticks


def inject_faults(channel: ChannelColumns, rows: np.ndarray, cls: np.ndarray, offset_db: np.ndarray,
                  jitter_db: np.ndarray, rng: np.random.Generator) -> ChannelColumns:
    """The channel as reported when each row in `rows` carries the fault of
    class cls[row], offset offset_db[row] and jitter jitter_db[row].

    Each fault adds its offset plus jitter to the one measurement its class
    owns; a corrupted RSRQ is capped at 0 dB, and a corrupted SINR's CQI is
    re-read from it, because the CQI report follows the SINR estimate. Draws
    exactly one jitter sample per row, in the order of `rows`. `channel` is
    not written into, and without rows it is returned as it is.
    """
    if not len(rows):
        return channel
    rsrp, rsrq, sinr, cqi = (column.copy() for column in (
        channel.rsrp_dbm, channel.rsrq_db, channel.sinr_db, channel.cqi))
    # Generator.uniform(-j, j) draws -j + (j - -j) * random(), one by one
    for row, x in zip(rows.tolist(), rng.random(len(rows)).tolist()):
        c, offset, jitter = cls.item(row), offset_db.item(row), jitter_db.item(row)
        delta = offset + (-jitter + (jitter - -jitter) * x)
        if c == AnomalyClass.RSRP_ERROR:
            rsrp[row] += delta
        elif c == AnomalyClass.RSRQ_ERROR:
            v = rsrq[row] + delta
            rsrq[row] = v if v < 0.0 else 0.0  # min(0.0, v), NaN included
        else:  # SINR_ERROR; a FaultSpec is never Normal
            sinr[row] += delta
            cqi[row] = radio_model.cqi_from_sinr(sinr[row])
    return ChannelColumns(rsrp, channel.rssi_dbm, rsrq, sinr, cqi)


def step(state: SimState) -> tuple[SimState, ReportBatch, TickKpis]:
    """Advance `state` one tick, in place, and return it with the tick's
    reports and handover count.

    Stage order: mobility, shadowing, reselection, channel sampling, fault
    corruption of the reported channel, traffic resampling, report emission.
    A fault never touches `last_channel`, the true channel.
    """
    cfg = state.config
    link = cfg.link
    state.tick += 1
    rng = state.rng
    dt = cfg.tick_ms / 1000.0
    area = cfg.area_m
    noise_mw = radio_model.dbm_to_mw(radio_model.noise_power_per_re_dbm(link))

    # (1) mobility with reflective walls, until every coordinate is inside
    position = state.position + state.velocity * dt
    velocity = state.velocity
    while True:
        below = position < 0.0
        above = position > area
        outside = below | above
        if not outside.any():
            break
        position = np.where(below, -position, np.where(above, 2.0 * area - position, position))
        velocity = np.where(outside, -velocity, velocity)
    state.position, state.velocity = position, velocity

    # (2) shadowing evolution, one draw per (UE, cell) in row order
    state.shadowing_db = radio_model.evolve_shadowing(
        state.shadowing_db, cfg.shadowing_rho, link.shadowing_sigma_db, rng
    )

    # (3) serving-cell reselection
    rsrp = radio_model.rsrp_matrix(
        position, state.cell_xy, state.cell_tx_dbm, state.shadowing_db, link)
    previous = state.serving_cell
    serving = select_serving_cells(rsrp, previous, cfg.hysteresis_db)
    n_handovers = int(np.count_nonzero(serving != previous))
    state.serving_cell = serving

    # (4) channel sampling
    state.last_channel = radio_model.sample_channel(rsrp, serving, noise_mw)

    # (5) fault corruption of the reported channel, live rows in ue_id order
    # (.nonzero() skips np.flatnonzero's ravel and wrapper: 1.7 against 3.6 µs)
    live = (state.tick <= state.fault_until_tick).nonzero()[0]
    reported = inject_faults(state.last_channel, live, state.fault_class,
                             state.fault_offset_db, state.fault_jitter_db, rng)

    # (6) traffic demand resampling
    means = np.array(cfg.traffic.mean_demand_mbps, dtype=np.float64)
    # scale * standard_exponential is what rng.exponential(scale) computes
    # per draw: the same doubles and generator state, without the per-element
    # parameter broadcast.
    state.demand_mbps = means[state.priority - 1] * rng.standard_exponential(len(state.priority))

    # (7) report emission. serving_cell is copied because apply_control
    # writes into the state's column.
    reports = ReportBatch(
        state.tick,
        serving.copy(),
        reported,
        rsrp,
        state.demand_mbps,
        state.priority,
        state.achieved_mbps,
    )
    return state, reports, TickKpis(tick=state.tick, n_handovers=n_handovers)


def apply_allocation(state: SimState, plan: "AllocationPlan", link: LinkBudgetParams) -> None:
    """Realize a PRB plan on the live network: each UE's achieved rate for the
    tick is its grant times the per-PRB rate of its TRUE channel, capped at
    its offered demand. Stored, as a new array, for the next tick's reports."""
    n = len(state.demand_mbps)
    if len(plan.grant) != n:
        raise DomainError(f"the plan of tick {plan.tick} has {len(plan.grant)} grants for {n} UEs")
    true = state.last_channel
    se = radio_model.spectral_efficiencies(true.sinr_db, true.cqi)
    state.achieved_mbps = np.minimum(plan.grant * link.prb_bandwidth_hz * se / 1e6, state.demand_mbps)


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


def _decode(cls, data, where: str):
    """An instance of the config dataclass `cls` from a (possibly partial)
    JSON object: nested configs are decoded from nested objects, other
    values go to the constructor as they are, and fields not given keep
    their defaults. A constructor's error is prefixed with the key path."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    hints = get_type_hints(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ConfigurationError(f"unknown config key{'s' if len(unknown) > 1 else ''} "
                                 f"in {where}: {', '.join(unknown)}")
    kwargs = {name: _decode(hints[name], value, f"{where}.{name}")
              if is_dataclass(hints[name]) else value for name, value in data.items()}
    try:
        return cls(**kwargs)
    except (ConfigurationError, DomainError) as e:
        raise ConfigurationError(f"{where}.{e}") from e


def sim_config_from_dict(data: dict) -> SimConfig:
    """Build a SimConfig from a (possibly partial) dict; unknown keys error."""
    return _decode(SimConfig, data, "config")


def read_json_file(path, what: str):
    """The JSON value in `path`; a syntax error names the `what` file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigurationError(f"{what} file {path}: {e}") from e


def load_sim_config(path) -> SimConfig:
    return sim_config_from_dict(read_json_file(path, "config"))
