"""Independent reference computations shared by the unit and acceptance tests.

Everything here deliberately avoids the code paths it checks: brute-force
enumeration and a linear scan for the allocator, central finite differences
for the gradients, a literal threshold-table scan for the CQI mapping, and a
per-UE loop of single-row (1, d) matmuls for the xApp's batched classifier.
"""

import itertools
import math

import numpy as np

from rantwin.anomaly import AnomalyClass, extract_features, standardize
from rantwin.mlp import MlpModel, _forward_batch, _loss_grads_arrays, _softmax
from rantwin.radio_model import ChannelSample
from rantwin.ran_sim import CellState, MeasurementReport
from rantwin.ric import ControlAction, Detection, _UeDebounce
from rantwin.twin_engine import per_prb_rate_mbps, twin_tick


def mk_report(
    ue_id=0,
    cell_id=0,
    tick=1,
    rsrp=-90.0,
    rsrq=-3.0,
    sinr=10.0,
    cqi=9,
    demand=5.0,
    priority=2,
    achieved=0.0,
    neighbors=None,
):
    return MeasurementReport(
        tick=tick,
        ue_id=ue_id,
        serving_cell=cell_id,
        channel=ChannelSample(
            rsrp_dbm=rsrp, rssi_dbm=rsrp + 0.5, rsrq_db=rsrq, sinr_db=sinr, cqi=cqi
        ),
        neighbor_rsrp_dbm=dict(neighbors or {}),
        demand_mbps=demand,
        priority=priority,
        achieved_mbps=achieved,
    )


def mk_cell(cell_id=0, total_prbs=10, position=(0.0, 0.0), tx_dbm=15.0):
    return CellState(cell_id, position, tx_dbm, total_prbs)


def cqi_table_scan(sinr_db: float) -> int:
    """Literal scan of the 16-level decision table with inclusive lower bounds."""
    thresholds = [-6.7 + 1.9 * (k - 1) for k in range(1, 16)]
    cqi = 0
    for k, thr in zip(range(1, 16), thresholds):
        if sinr_db >= thr:
            cqi = k
    return cqi


def allocation_objective(grants, reports, params):
    """Priority-weighted served throughput of an integer PRB allocation."""
    total = 0.0
    for report in reports:
        g = grants.get(report.ue_id, 0)
        rate = (
            params.prb_bandwidth_hz
            * min(
                math.log2(1.0 + 10.0 ** (report.channel.sinr_db / 10.0)),
                [0.0, 0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766,
                 1.9141, 2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547][report.channel.cqi],
            )
            / 1e6
        )
        total += report.priority * min(g * rate, report.demand_mbps)
    return total


def linear_scan_allocation(reports, cells, params, weights=None):
    """Grants of the greedy allocator computed by scanning every UE of the
    cell for every PRB; the strict `>` against a 0.0 start gives ties to the
    lowest ue_id and never grants a UE with utility <= 0."""
    totals = {c.cell_id: c.total_prbs for c in cells}
    grants = {r.ue_id: 0 for r in reports}
    by_cell = {}
    for r in reports:
        by_cell.setdefault(r.serving_cell, []).append(r)
    for cell_id, cell_reports in by_cell.items():
        remaining = {r.ue_id: r.demand_mbps for r in cell_reports}
        rate = {
            r.ue_id: per_prb_rate_mbps(r.channel.sinr_db, r.channel.cqi, params)
            for r in cell_reports
        }
        weight = {}
        for r in cell_reports:
            w = float(r.priority)
            if weights is not None and r.ue_id in weights:
                w = float(weights[r.ue_id])
            weight[r.ue_id] = w
        ue_ids = sorted(remaining)
        for _ in range(totals[cell_id]):
            best_ue = -1
            best_utility = 0.0
            for ue_id in ue_ids:
                utility = weight[ue_id] * min(rate[ue_id], remaining[ue_id])
                if utility > best_utility:
                    best_ue, best_utility = ue_id, utility
            if best_ue < 0:
                break
            grants[best_ue] += 1
            remaining[best_ue] = max(0.0, remaining[best_ue] - rate[best_ue])
    return grants


def brute_force_best_objective(reports, total_prbs, params):
    """Exhaustive search over all integer allocations of at most total_prbs."""
    n = len(reports)
    best = 0.0
    for combo in itertools.product(range(total_prbs + 1), repeat=n):
        if sum(combo) > total_prbs:
            continue
        grants = {r.ue_id: g for r, g in zip(reports, combo)}
        best = max(best, allocation_objective(grants, reports, params))
    return best


def finite_difference_grads(model: MlpModel, x: np.ndarray, y: np.ndarray, eps: float = 1e-5):
    """Central-difference loss gradients for every parameter of the model."""
    grad_w = [np.zeros_like(w) for w in model.weights]
    grad_b = [np.zeros_like(b) for b in model.biases]

    def loss_at():
        loss, _, _ = _loss_grads_arrays(model, x, y)
        return loss

    for l, w in enumerate(model.weights):
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + eps
            up = loss_at()
            w[idx] = orig - eps
            down = loss_at()
            w[idx] = orig
            grad_w[l][idx] = (up - down) / (2 * eps)
    for l, b in enumerate(model.biases):
        for i in range(b.size):
            orig = b[i]
            b[i] = orig + eps
            up = loss_at()
            b[i] = orig - eps
            down = loss_at()
            b[i] = orig
            grad_b[l][i] = (up - down) / (2 * eps)
    return grad_w, grad_b


def max_relative_error(analytic, numeric, floor=1e-8):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def single_row_probs(model: MlpModel, x) -> np.ndarray:
    """Class probabilities of one input row through plain (1, d) matmuls."""
    _, logits = _forward_batch(model, np.asarray(x, dtype=np.float64)[None, :])
    return _softmax(logits)[0]


def per_ue_on_indication(xapp, indication, weights=None):
    """DtXapp.on_indication as a per-UE loop: one feature vector, one
    single-row classification and one debounce update per report."""
    plan, kpis, _ = twin_tick(indication.reports, xapp.cells, xapp.link_params, weights)
    kpi_by_ue = {k.ue_id: k for k in kpis}
    actions = []
    detections = []
    for report in indication.reports:
        features = extract_features(report, kpi_by_ue[report.ue_id], plan)
        probs = single_row_probs(xapp.model, standardize(features, xapp.stats))
        predicted = AnomalyClass(int(np.argmax(probs)))
        state = xapp._debounce.setdefault(report.ue_id, _UeDebounce())
        if predicted == AnomalyClass.NORMAL:
            state.streak_cls = None
            state.streak_len = 0
            state.normal_streak += 1
            if not state.armed and state.normal_streak >= xapp.clear_ticks:
                state.armed = True
            continue
        detections.append(
            Detection(indication.tick, report.ue_id, predicted, tuple(float(p) for p in probs))
        )
        state.normal_streak = 0
        if predicted == state.streak_cls:
            state.streak_len += 1
        else:
            state.streak_cls = predicted
            state.streak_len = 1
        if state.armed and state.streak_len >= xapp.confirm_ticks:
            kind = xapp.policy.action_for(predicted, report)
            if kind is not None:
                actions.append(ControlAction(indication.tick, report.ue_id, kind, predicted))
            state.armed = False
    return plan, actions, detections
