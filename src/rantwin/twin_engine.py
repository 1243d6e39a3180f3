"""Digital-twin simulation engine: per-tick PRB allocation from the reported
channel state and per-UE predicted KPIs, with a wall-clock latency readout.

The allocator deliberately trusts the reports as received; corrupted reports
therefore distort the allocation, which is what makes report anomalies
damaging and detectable downstream.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from . import radio_model
from .errors import DomainError
from .radio_model import LinkBudgetParams

if TYPE_CHECKING:
    from .ran_sim import CellState, MeasurementReport


@dataclass(frozen=True)
class AllocationPlan:
    tick: int
    grants: dict[int, int]
    cell_totals: dict[int, int]
    # Per-UE spectral efficiency (bps/Hz) the allocator read from the reports.
    spectral_efficiency: dict[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PredictedKpi:
    ue_id: int
    predicted_mbps: float
    spectral_efficiency: float


def _prb_rate_mbps(spectral_efficiency: float, params: LinkBudgetParams) -> float:
    return params.prb_bandwidth_hz * spectral_efficiency / 1e6


def per_prb_rate_mbps(sinr_db: float, cqi: int, params: LinkBudgetParams) -> float:
    return _prb_rate_mbps(radio_model.spectral_efficiency_bps_hz(sinr_db, cqi), params)


def allocate_prbs(
    reports: Sequence["MeasurementReport"],
    cells: Sequence["CellState"],
    params: LinkBudgetParams,
    weights: Mapping[int, float] | None = None,
) -> AllocationPlan:
    """Greedy weighted allocation, one PRB at a time per cell.

    Each PRB goes to the UE maximizing weight * min(per-PRB rate, remaining
    demand); ties break toward the lowest ue_id. `weights` overrides the
    default weight (the report's priority value), which is how control-plane
    PRB boosts enter.

    A UE's utility changes only when it wins a PRB, so each cell keeps a heap
    keyed (-utility, ue_id) and re-pushes only the winner. UEs with utility
    <= 0 never win and are left out.
    """
    cell_by_id = {c.cell_id: c for c in cells}
    grants: dict[int, int] = {}
    by_cell: dict[int, list] = {}
    for r in reports:
        if r.serving_cell not in cell_by_id:
            raise DomainError(f"report for ue {r.ue_id} references unknown cell {r.serving_cell}")
        if r.ue_id in grants:
            raise DomainError(f"more than one report for ue {r.ue_id}")
        grants[r.ue_id] = 0
        by_cell.setdefault(r.serving_cell, []).append(r)

    tick = reports[0].tick if reports else 0
    se: dict[int, float] = {}
    for cell_id, cell_reports in by_cell.items():
        remaining: dict[int, float] = {}
        rate: dict[int, float] = {}
        weight: dict[int, float] = {}
        heap = []
        for r in cell_reports:
            ue_id = r.ue_id
            se[ue_id] = radio_model.spectral_efficiency_bps_hz(r.channel.sinr_db, r.channel.cqi)
            rate[ue_id] = _prb_rate_mbps(se[ue_id], params)
            remaining[ue_id] = r.demand_mbps
            w = float(r.priority)
            if weights is not None and ue_id in weights:
                w = float(weights[ue_id])
            weight[ue_id] = w
            utility = w * min(rate[ue_id], remaining[ue_id])
            if utility > 0.0:
                heap.append((-utility, ue_id))
        heapq.heapify(heap)
        for _ in range(cell_by_id[cell_id].total_prbs):
            if not heap:
                break
            ue_id = heap[0][1]
            grants[ue_id] += 1
            remaining[ue_id] = max(0.0, remaining[ue_id] - rate[ue_id])
            utility = weight[ue_id] * min(rate[ue_id], remaining[ue_id])
            if utility > 0.0:
                heapq.heapreplace(heap, (-utility, ue_id))
            else:
                heapq.heappop(heap)

    return AllocationPlan(
        tick=tick,
        grants=grants,
        cell_totals={c.cell_id: c.total_prbs for c in cells},
        spectral_efficiency=se,
    )


def twin_tick(
    reports: Sequence["MeasurementReport"],
    cells: Sequence["CellState"],
    params: LinkBudgetParams,
    weights: Mapping[int, float] | None = None,
) -> tuple[AllocationPlan, list[PredictedKpi], float]:
    """One engine pass: allocate, predict per UE, report elapsed wall-clock ms.

    The prediction reuses the spectral efficiency the allocator computed.

    The elapsed time is measured, not enforced; the near-real-time budget is
    checked by the acceptance suite.
    """
    t0 = time.perf_counter()
    plan = allocate_prbs(reports, cells, params, weights)
    kpis = []
    for r in reports:
        se = plan.spectral_efficiency[r.ue_id]
        kpis.append(
            PredictedKpi(
                ue_id=r.ue_id,
                predicted_mbps=plan.grants[r.ue_id] * _prb_rate_mbps(se, params),
                spectral_efficiency=se,
            )
        )
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    return plan, kpis, elapsed_ms
