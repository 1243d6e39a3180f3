"""Digital-twin simulation engine: per-tick PRB allocation from the reported
channel state and per-UE predicted KPIs.

The allocator deliberately trusts the reports as received; corrupted reports
therefore distort the allocation, which is what makes report anomalies
damaging and detectable downstream.
"""

from __future__ import annotations

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
    """One tick's PRB plan as columns, row i for ue_id i; `cell_prbs` is the
    PRB total of each report's serving cell. `grants` and `cell_totals` hold
    the grants and totals by ue_id and by cell_id."""

    tick: int
    grants: dict[int, int]
    cell_totals: dict[int, int]
    grant: np.ndarray
    prb_rate_mbps: np.ndarray
    cell_prbs: np.ndarray

    __eq__ = fields_equal


def allocate_prbs(
    reports: "ReportBatch",
    cells: Sequence["CellState"],
    params: LinkBudgetParams,
    weights: np.ndarray | None = None,
) -> AllocationPlan:
    """Greedy weighted allocation, one PRB at a time per cell.

    Each PRB goes to the UE maximizing weight * min(per-PRB rate, remaining
    demand), where each PRB won takes the rate off the remaining demand;
    ties break toward the lowest row, which is the ue_id. `weights`, one per
    report, replaces the default weight (the report's priority value), which
    is how control-plane PRB boosts enter.

    A UE's utilities never rise: n_full PRBs at weight * rate, then one PRB
    at weight * remainder. So the greedy order is each cell's (UE, utility)
    groups sorted by (-utility, row), and the cell's PRBs fill the groups
    in that order. Groups with utility <= 0 never win.
    """
    n = len(reports)
    totals = {c.cell_id: c.total_prbs for c in cells}
    serving = reports.serving_cell
    cell_prbs = np.fromiter(map(totals.get, serving.tolist(), repeat(-1)), dtype=np.int64, count=n)
    if (cell_prbs < 0).any():
        i = int(np.argmax(cell_prbs < 0))
        raise DomainError(f"report for ue {i} references unknown cell {serving[i]}")

    se = radio_model.spectral_efficiencies(reports.channel.sinr_db, reports.channel.cqi)
    rate = params.prb_bandwidth_hz * se / 1e6
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
    order = np.lexsort((row, -utility, serving[row]))
    row, count, cell = row[order], count[order], serving[row[order]]
    before = np.add.accumulate(count) - count
    # PRBs that earlier groups of the same cell took
    taken = before - before[np.searchsorted(cell, cell)]
    granted = np.minimum(np.maximum(cell_prbs[row] - taken, 0), count)
    grants = np.bincount(row, weights=granted, minlength=n).astype(np.int64)

    return AllocationPlan(
        tick=reports.tick,
        grants=dict(enumerate(grants.tolist())),
        cell_totals=totals,
        grant=grants,
        prb_rate_mbps=rate,
        cell_prbs=cell_prbs,
    )


def twin_tick(
    reports: "ReportBatch",
    cells: Sequence["CellState"],
    params: LinkBudgetParams,
    weights: np.ndarray | None = None,
) -> tuple[AllocationPlan, np.ndarray]:
    """One engine pass: allocate, then predict each report's throughput (Mbps).

    The prediction reuses the per-PRB rate the allocator computed.
    """
    plan = allocate_prbs(reports, cells, params, weights)
    return plan, plan.grant * plan.prb_rate_mbps
