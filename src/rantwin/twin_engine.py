"""Digital-twin simulation engine: per-tick PRB allocation from the reported
channel state and per-UE predicted KPIs, with a wall-clock latency readout.

The allocator deliberately trusts the reports as received; corrupted reports
therefore distort the allocation, which is what makes report anomalies
damaging and detectable downstream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import radio_model
from .errors import DomainError
from .radio_model import LinkBudgetParams, fields_equal

if TYPE_CHECKING:
    from .ran_sim import CellState, ReportBatch


@dataclass(frozen=True)
class AllocationPlan:
    tick: int
    grants: dict[int, int]
    cell_totals: dict[int, int]
    # Spectral efficiency (bps/Hz) the allocator read from each report, in
    # report order.
    spectral_efficiency: np.ndarray | None = None

    __eq__ = fields_equal

    def grants_of(self, ue_id: np.ndarray) -> np.ndarray:
        """The grant of each UE in `ue_id`, 0 for a UE the plan does not name."""
        return np.fromiter(
            map(self.grants.get, ue_id.tolist(), repeat(0)), dtype=np.int64, count=len(ue_id)
        )


def _prb_rate_mbps(spectral_efficiency, params: LinkBudgetParams):
    return params.prb_bandwidth_hz * spectral_efficiency / 1e6


def per_prb_rate_mbps(sinr_db: float, cqi: int, params: LinkBudgetParams) -> float:
    return _prb_rate_mbps(radio_model.spectral_efficiency_bps_hz(sinr_db, cqi), params)


def allocate_prbs(
    reports: "ReportBatch",
    cells: Sequence["CellState"],
    params: LinkBudgetParams,
    weights: np.ndarray | None = None,
) -> AllocationPlan:
    """Greedy weighted allocation, one PRB at a time per cell.

    Each PRB goes to the UE maximizing weight * min(per-PRB rate, remaining
    demand), where each PRB won takes the rate off the remaining demand;
    ties break toward the lowest ue_id. `weights`, one per report, replaces
    the default weight (the report's priority value), which is how
    control-plane PRB boosts enter.

    A UE's utilities never rise: n_full PRBs at weight * rate, then one PRB
    at weight * remainder. So the greedy order is each cell's (UE, utility)
    groups sorted by (-utility, ue_id), and the cell's PRBs fill the groups
    in that order. Groups with utility <= 0 never win.
    """
    ue_id = reports.ue_id
    ids = ue_id.tolist()
    n = len(ids)
    if len(set(ids)) < n:
        repeated = next(u for i, u in enumerate(ids) if u in ids[:i])
        raise DomainError(f"more than one report for ue {repeated}")
    totals = {c.cell_id: c.total_prbs for c in cells}
    serving = reports.serving_cell
    cell_prbs = np.fromiter(map(totals.get, serving.tolist(), repeat(-1)), dtype=np.int64, count=n)
    if (cell_prbs < 0).any():
        i = int(np.argmax(cell_prbs < 0))
        raise DomainError(f"report for ue {ue_id[i]} references unknown cell {serving[i]}")

    se = radio_model.spectral_efficiencies(reports.channel.sinr_db, reports.channel.cqi)
    rate = _prb_rate_mbps(se, params)
    weight = reports.priority if weights is None else np.asarray(weights, dtype=np.float64)
    # Remaining demand before each PRB, row k after k PRBs, by the repeated
    # subtraction of the one-PRB-at-a-time loop, so every comparison sees the
    # same bits.
    depth = max(totals.values(), default=0)
    steps = np.empty((depth + 1, n))
    steps[0] = reports.demand_mbps
    steps[1:] = rate
    remaining = np.subtract.accumulate(steps, axis=0)
    n_full = np.add.reduce(remaining[:depth] >= rate, axis=0)
    ue_rows = np.arange(n)
    remainder = np.maximum(remaining[n_full, ue_rows], 0.0)

    row = np.concatenate((ue_rows, ue_rows))
    utility = np.concatenate([weight * rate, weight * np.minimum(rate, remainder)])
    # A group with utility <= 0 gets a count of 0: it takes no PRBs and adds
    # 0 to the PRBs taken before the groups after it.
    count = np.where(utility > 0.0, np.concatenate([n_full, n_full < depth]), 0)
    order = np.lexsort((ue_id[row], -utility, serving[row]))
    row, count, cell = row[order], count[order], serving[row[order]]
    before = np.add.accumulate(count) - count
    # PRBs that earlier groups of the same cell took
    taken = before - before[np.searchsorted(cell, cell)]
    granted = np.minimum(np.maximum(cell_prbs[row] - taken, 0), count)
    grants = np.bincount(row, weights=granted, minlength=n).astype(np.int64)

    return AllocationPlan(
        tick=reports.tick,
        grants=dict(zip(ids, grants.tolist())),
        cell_totals=totals,
        spectral_efficiency=se,
    )


def twin_tick(
    reports: "ReportBatch",
    cells: Sequence["CellState"],
    params: LinkBudgetParams,
    weights: np.ndarray | None = None,
) -> tuple[AllocationPlan, np.ndarray, float]:
    """One engine pass: allocate, predict each report's throughput (Mbps),
    report elapsed wall-clock ms.

    The prediction reuses the spectral efficiency the allocator computed.

    The elapsed time is measured, not enforced; the near-real-time budget is
    checked by the acceptance suite.
    """
    t0 = time.perf_counter()
    plan = allocate_prbs(reports, cells, params, weights)
    predicted_mbps = plan.grants_of(reports.ue_id) * _prb_rate_mbps(plan.spectral_efficiency, params)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    return plan, predicted_mbps, elapsed_ms
