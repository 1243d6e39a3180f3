"""Independent reference computations shared by the unit and acceptance tests.

Everything here deliberately avoids the code paths it checks: brute-force
enumeration and a linear scan for the allocator, central finite differences
for the gradients, a per-layer Adam loop with fresh gradient arrays for
training, a literal threshold-table scan for the CQI mapping, a
per-UE loop of feature vectors and dict-based debounce state for the
xApp's columns (it classifies with the xApp's one `forward_rows` call),
a per-UE loop over Python floats, with one fault corruption per report,
for the columnar simulator step, one add per cell for its interferer sums,
and a t-SNE that allocates a fresh array for every intermediate, where
`evaluation.tsne` writes into preallocated buffers. The network oracles
read reports one UE at a time, as `Report` objects; `mk_batch` and
`report_rows` convert to and from a `ReportBatch`.
"""

import itertools
import math
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from rantwin import radio_model as rm
from rantwin.anomaly import N_FEATURES, AnomalyClass, standardize
from rantwin.errors import ConfigurationError, NumericError, TrainingError
from rantwin.evaluation import (
    _EPS,
    EARLY_EXAGGERATION,
    FINAL_MOMENTUM,
    MOMENTUM,
    Embedding2D,
    TsneConfig,
    conditional_gaussian_probs,
)
from rantwin.mlp import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    MlpModel,
    TrainConfig,
    TrainReport,
    _as_arrays,
    _forward_batch,
    _loss_grads_arrays,
    _softmax,
    forward_rows,
    model_digest,
    predict_batch,
)
from rantwin.radio_model import ChannelColumns, ChannelSample
from rantwin.ran_sim import CellState, ReportBatch, TickKpis
from rantwin.ric import CLEAR_TICKS, CONFIRM_TICKS, ControlAction, Detection, ForceHandover, PrbBoost
from rantwin.twin_engine import per_prb_rate_mbps


# The vectorized link math calls numpy's hypot, log10, power and log2; the
# oracles call `math` and float `**`. Each function is within 1 ulp of the
# exact value, and the chains of a few such steps leave the two sides a few
# ulps apart, so floats of the link model compare within ULPS. A dB figure
# counts the ulps at a magnitude of at least DB_SCALE: RSRQ, SINR and RSSI
# derive from RSRPs of about -60 to -140 dBm, so their rounding error is
# set by that scale, not by their own (an SINR near 0 dB has tiny ulps).
ULPS = 8
DB_SCALE = 128.0


def ulps_apart(actual, expected, scale=0.0):
    """|actual - expected| in ulps of the larger of |actual|, |expected| and
    `scale`, elementwise."""
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(expected, dtype=np.float64)
    return np.abs(a - e) / np.spacing(np.maximum(np.maximum(np.abs(a), np.abs(e)), scale))


def assert_close(actual, expected, scale=DB_SCALE, where="value"):
    """`actual == expected`, except that floats (and float arrays) need only
    lie within ULPS of each other at `scale`. Types, integers, dict keys and
    lengths must match exactly."""
    assert type(actual) is type(expected), f"{where}: {type(actual)} != {type(expected)}"
    if is_dataclass(expected):
        for f in fields(expected):
            assert_close(getattr(actual, f.name), getattr(expected, f.name), scale,
                         f"{where}.{f.name}")
    elif isinstance(expected, dict):
        assert actual.keys() == expected.keys(), where
        for key in expected:
            assert_close(actual[key], expected[key], scale, f"{where}[{key!r}]")
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, scale, f"{where}[{i}]")
    elif isinstance(expected, float) or (isinstance(expected, np.ndarray)
                                         and expected.dtype.kind == "f"):
        assert np.shape(actual) == np.shape(expected), where
        worst = float(np.max(ulps_apart(actual, expected, scale), initial=0.0))
        assert worst <= ULPS, f"{where}: {actual!r} and {expected!r} are {worst} ulps apart"
    elif isinstance(expected, np.ndarray):
        assert np.array_equal(actual, expected), where
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


@dataclass(frozen=True)
class Report:
    """One UE's measurement report, with its neighbour RSRPs as a dict."""

    tick: int
    ue_id: int
    serving_cell: int
    channel: ChannelSample
    neighbor_rsrp_dbm: dict[int, float]
    demand_mbps: float
    priority: int
    achieved_mbps: float


def columns_of(samples) -> ChannelColumns:
    """ChannelColumns whose row i is samples[i]."""
    return ChannelColumns(*(
        np.array([getattr(s, f.name) for s in samples],
                 dtype=np.int64 if f.name == "cqi" else np.float64)
        for f in fields(ChannelSample)
    ))


def mk_batch(reports, tick=1) -> ReportBatch:
    """The reports as one ReportBatch, in their order; `tick` is used only
    when there are none. A cell missing from a report reads -inf RSRP."""
    ticks = {r.tick for r in reports}
    if len(ticks) > 1:
        raise ValueError(f"reports of several ticks: {sorted(ticks)}")
    n_cells = 1 + max(
        [r.serving_cell for r in reports] + [c for r in reports for c in r.neighbor_rsrp_dbm],
        default=0,
    )
    rsrp = np.full((len(reports), n_cells), -np.inf)
    for i, r in enumerate(reports):
        rsrp[i, r.serving_cell] = r.channel.rsrp_dbm
        for cell_id, value in r.neighbor_rsrp_dbm.items():
            rsrp[i, cell_id] = value
    return ReportBatch(
        tick=ticks.pop() if ticks else tick,
        ue_id=np.array([r.ue_id for r in reports], dtype=np.int64),
        serving_cell=np.array([r.serving_cell for r in reports], dtype=np.int64),
        channel=columns_of([r.channel for r in reports]),
        rsrp_dbm=rsrp,
        demand_mbps=np.array([r.demand_mbps for r in reports], dtype=np.float64),
        priority=np.array([r.priority for r in reports], dtype=np.int64),
        achieved_mbps=np.array([r.achieved_mbps for r in reports], dtype=np.float64),
    )


def report_rows(batch: ReportBatch) -> list[Report]:
    """Every row of the batch as a Report; the neighbours are the RSRP
    columns other than the serving cell's."""
    return [
        Report(
            batch.tick, ue_id, serving, batch.channel.row(i),
            {c: r for c, r in enumerate(rsrp) if c != serving}, demand, priority, achieved,
        )
        for i, (ue_id, serving, rsrp, demand, priority, achieved) in enumerate(zip(
            batch.ue_id.tolist(), batch.serving_cell.tolist(), batch.rsrp_dbm.tolist(),
            batch.demand_mbps.tolist(), batch.priority.tolist(), batch.achieved_mbps.tolist(),
        ))
    ]


def weight_array(reports, overrides):
    """One allocation weight per report: its priority unless `overrides`
    (ue_id -> weight) names it; None without overrides."""
    if overrides is None:
        return None
    return np.array([float(overrides.get(r.ue_id, r.priority)) for r in reports])


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
    return Report(
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


def reference_loss_grads(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """Loss and per-layer gradients as fresh arrays, one matmul and one sum
    per layer."""
    n = x.shape[0]
    activations, logits = _forward_batch(model, x)
    probs = _softmax(logits)
    loss = float(-np.log(np.maximum(probs[np.arange(n), y], 1e-300)).mean())

    delta = probs
    delta[np.arange(n), y] -= 1.0
    delta /= n

    grad_w = [np.empty(0)] * len(model.weights)
    grad_b = [np.empty(0)] * len(model.biases)
    for l in range(len(model.weights) - 1, -1, -1):
        grad_w[l] = delta.T @ activations[l]
        grad_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ model.weights[l]) * (activations[l] > 0.0)
    return loss, grad_w, grad_b


def reference_train(model: MlpModel, train_samples, test_samples, config: TrainConfig):
    """`mlp.train` as a per-layer Adam loop over (x, label) pairs: a fresh
    gather of each batch and separate moment arrays for every weight and
    bias, updated in place in the model's own arrays."""
    x_train, y_train = _as_arrays(train_samples, "train set")
    x_test, y_test = _as_arrays(test_samples, "test set")
    n = x_train.shape[0]
    rng = np.random.default_rng(config.seed)

    m_w = [np.zeros_like(w) for w in model.weights]
    v_w = [np.zeros_like(w) for w in model.weights]
    m_b = [np.zeros_like(b) for b in model.biases]
    v_b = [np.zeros_like(b) for b in model.biases]
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, config.learning_rate

    report = TrainReport()
    report.initial_loss, _, _ = reference_loss_grads(model, x_train, y_train)

    step_count = 0
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            loss, grad_w, grad_b = reference_loss_grads(model, x_train[idx], y_train[idx])
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch + 1}")
            epoch_losses.append(loss)
            step_count += 1
            corr1 = 1.0 - b1 ** step_count
            corr2 = 1.0 - b2 ** step_count
            for l in range(len(model.weights)):
                m_w[l] = b1 * m_w[l] + (1 - b1) * grad_w[l]
                v_w[l] = b2 * v_w[l] + (1 - b2) * grad_w[l] ** 2
                model.weights[l] -= lr * (m_w[l] / corr1) / (np.sqrt(v_w[l] / corr2) + eps)
                m_b[l] = b1 * m_b[l] + (1 - b1) * grad_b[l]
                v_b[l] = b2 * v_b[l] + (1 - b2) * grad_b[l] ** 2
                model.biases[l] -= lr * (m_b[l] / corr1) / (np.sqrt(v_b[l] / corr2) + eps)
        report.train_loss.append(float(np.mean(epoch_losses)))
        report.test_accuracy.append(float((predict_batch(model, x_test) == y_test).mean()))

    report.final_loss, _, _ = reference_loss_grads(model, x_train, y_train)
    if not np.isfinite(report.final_loss):
        raise TrainingError(f"non-finite loss at epoch {config.epochs}")
    if report.final_loss >= report.initial_loss:
        raise TrainingError(
            f"training failed to reduce the loss ({report.initial_loss} -> {report.final_loss})"
        )
    report.final_model_hash = model_digest(model)
    return model, report


@dataclass
class UeDebounce:
    streak_cls: AnomalyClass | None = None
    streak_len: int = 0
    normal_streak: int = 0
    armed: bool = True


def policy_action(policy, cause, report):
    """RemediationPolicy.action_for by a scan of the report's neighbour dict:
    the strongest neighbour, ties toward the lowest cell_id."""
    if cause in policy.boost_classes:
        return PrbBoost(policy.boost_factor, policy.boost_duration_ticks)
    if cause in policy.handover_classes and report.neighbor_rsrp_dbm:
        neighbors = report.neighbor_rsrp_dbm
        return ForceHandover(min(neighbors, key=lambda c: (-neighbors[c], c)))
    return None


def per_ue_on_indication(xapp, indication, debounce, weights=None):
    """DtXapp.on_indication as a per-UE loop: linear-scan grants and one
    feature vector per report, one `forward_rows` call on the tick's stacked
    rows (the xApp's batch, so the probabilities compare with ==), then one
    debounce update per report. `debounce` maps ue_id -> UeDebounce and is
    kept by the caller between ticks. Returns (grants, actions,
    detections)."""
    reports = report_rows(indication.reports)
    overrides = None if weights is None else {
        r.ue_id: w for r, w in zip(reports, np.asarray(weights).tolist())
    }
    grants = linear_scan_allocation(reports, xapp.cells, xapp.link_params, overrides)
    totals = {c.cell_id: c.total_prbs for c in xapp.cells}
    rows = []
    for report in reports:
        ch = report.channel
        grant = grants[report.ue_id]
        rows.append(standardize(np.array([
            ch.rsrp_dbm, ch.rsrq_db, ch.sinr_db, float(ch.cqi), report.achieved_mbps,
            grant * per_prb_rate_mbps(ch.sinr_db, ch.cqi, xapp.link_params),
            grant / totals[report.serving_cell], float(report.priority),
        ]), xapp.stats))
    all_probs = forward_rows(xapp.model, np.array(rows).reshape(len(rows), N_FEATURES))
    actions = []
    detections = []
    for report, probs in zip(reports, all_probs):
        predicted = AnomalyClass(int(np.argmax(probs)))
        state = debounce.setdefault(report.ue_id, UeDebounce())
        if predicted == AnomalyClass.NORMAL:
            state.streak_cls = None
            state.streak_len = 0
            state.normal_streak += 1
            if not state.armed and state.normal_streak >= CLEAR_TICKS:
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
        if state.armed and state.streak_len >= CONFIRM_TICKS:
            kind = policy_action(xapp.policy, predicted, report)
            if kind is not None:
                actions.append(ControlAction(indication.tick, report.ue_id, kind, predicted))
            state.armed = False
    return grants, actions, detections


def inject_fault(channel: ChannelSample, spec, rng: np.random.Generator) -> ChannelSample:
    """One report's fault corruption: exactly the measurement family owned
    by the fault class, with one scalar jitter draw. SINR corruption also
    recomputes the CQI by the scalar table lookup."""
    delta = spec.offset_db + float(rng.uniform(-spec.jitter_db, spec.jitter_db))
    if spec.cls == AnomalyClass.RSRP_ERROR:
        return replace(channel, rsrp_dbm=channel.rsrp_dbm + delta)
    if spec.cls == AnomalyClass.RSRQ_ERROR:
        return replace(channel, rsrq_db=min(0.0, channel.rsrq_db + delta))
    if spec.cls == AnomalyClass.SINR_ERROR:
        corrupted = channel.sinr_db + delta
        return replace(channel, sinr_db=corrupted, cqi=rm.cqi_from_sinr(corrupted))
    raise ValueError(f"no fault of class {spec.cls!r}")


def scalar_serving_cell(serving_cell, rsrp_by_cell, hysteresis_db):
    """Keep the serving cell unless a neighbor beats it by more than the
    margin; ties among qualifying neighbors break toward the lowest cell_id."""
    serving_rsrp = rsrp_by_cell[serving_cell]
    best = serving_cell
    best_rsrp = serving_rsrp
    for cell_id in sorted(rsrp_by_cell):
        r = rsrp_by_cell[cell_id]
        if cell_id != serving_cell and r > serving_rsrp + hysteresis_db and r > best_rsrp:
            best, best_rsrp = cell_id, r
    return best


def loop_interferer_sums(mw, serving, noise_mw):
    """`ran_sim._interferer_sums` as one elementwise add per cell column, in
    cell order, with 0.0 for each UE's serving cell."""
    interference = np.zeros(len(serving))
    noise_and_interference = np.full(len(serving), noise_mw)
    for c in range(mw.shape[1]):
        p = np.where(serving == c, 0.0, mw[:, c])
        interference = interference + p
        noise_and_interference = noise_and_interference + p
    return interference, noise_and_interference


def scalar_step(state):
    """ran_sim.step as one loop per UE over Python floats and scalar draws,
    calling the scalar link model of radio_model for every (UE, cell)."""
    cfg = state.config
    link = cfg.link
    new = state.clone()
    new.tick = state.tick + 1
    rng = new.rng
    dt = cfg.tick_ms / 1000.0
    noise_mw = rm.dbm_to_mw(rm.noise_power_per_re_dbm(link))
    n_ues = len(state.serving_cell)

    # (1) mobility with reflective walls
    positions, velocities = [], []
    for (x, y), (vx, vy) in zip(state.position.tolist(), state.velocity.tolist()):
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
        positions.append([x, y])
        velocities.append([vx, vy])

    # (2) shadowing evolution, one scalar draw per (UE, cell)
    rho, sigma = cfg.shadowing_rho, link.shadowing_sigma_db
    shadowing = state.shadowing_db.tolist()
    for row in shadowing:
        for c in range(len(row)):
            innovation = rng.normal(0.0, sigma)
            row[c] = rho * row[c] + math.sqrt(max(0.0, 1.0 - rho * rho)) * innovation

    # (3) reselection, (4) channel sampling
    serving = state.serving_cell.tolist()
    n_handovers = 0
    channels, neighbors = [], []
    for i in range(n_ues):
        rsrp = {}
        for cell in new.cells:
            d = max(math.hypot(positions[i][0] - cell.position[0],
                               positions[i][1] - cell.position[1]), 1e-6)
            rsrp[cell.cell_id] = rm.rsrp_dbm(
                cell.tx_power_per_re_dbm, rm.path_loss_db(d, link), shadowing[i][cell.cell_id]
            )
        chosen = scalar_serving_cell(serving[i], rsrp, cfg.hysteresis_db)
        if chosen != serving[i]:
            n_handovers += 1
            serving[i] = chosen
        serving_mw = rm.dbm_to_mw(rsrp[serving[i]])
        interferers = [rm.dbm_to_mw(rsrp[c.cell_id]) for c in new.cells if c.cell_id != serving[i]]
        sinr = rm.sinr_db(serving_mw, interferers, noise_mw)
        # an explicit loop, not sum(): Python >= 3.12 compensates sum() of floats
        interference = 0.0
        for p in interferers:
            interference += p
        total_mw = serving_mw + interference + noise_mw
        channels.append(
            ChannelSample(
                rsrp_dbm=rsrp[serving[i]],
                rssi_dbm=rm.mw_to_dbm(total_mw),
                rsrq_db=rm.rsrq_db(serving_mw, total_mw),
                sinr_db=sinr,
                cqi=rm.cqi_from_sinr(sinr),
            )
        )
        neighbors.append({cid: r for cid, r in rsrp.items() if cid != serving[i]})

    # (5) fault corruption of the reported channel
    reported = list(channels)
    for i in range(n_ues):
        fault = new.faults.get(i)
        if fault is not None:
            if new.tick <= fault.until_tick:
                reported[i] = inject_fault(reported[i], fault.spec, rng)
            if new.tick >= fault.until_tick:
                del new.faults[i]

    # (6) traffic demand resampling, (7) report emission
    priorities = state.priority.tolist()
    achieved = state.achieved_mbps.tolist()
    demands, reports = [], []
    for i in range(n_ues):
        demands.append(float(rng.exponential(cfg.traffic.mean_demand_mbps[priorities[i] - 1])))
        reports.append(
            Report(
                tick=new.tick,
                ue_id=i,
                serving_cell=serving[i],
                channel=reported[i],
                neighbor_rsrp_dbm=neighbors[i],
                demand_mbps=demands[i],
                priority=priorities[i],
                achieved_mbps=achieved[i],
            )
        )

    new.position = np.array(positions, dtype=np.float64).reshape(n_ues, 2)
    new.velocity = np.array(velocities, dtype=np.float64).reshape(n_ues, 2)
    new.shadowing_db = np.array(shadowing, dtype=np.float64).reshape(state.shadowing_db.shape)
    new.serving_cell = np.array(serving, dtype=np.int64)
    new.demand_mbps = np.array(demands, dtype=np.float64)
    new.last_channel = columns_of(channels)
    return new, reports, TickKpis(tick=new.tick, n_handovers=n_handovers)


def reference_squared_distances(x: np.ndarray) -> np.ndarray:
    sq = (x * x).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def reference_joint_probabilities(points: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized affinities P = (P(j|i) + P(i|j)) / 2n; sums to 1."""
    x = np.asarray(points, dtype=np.float64)
    p_cond, _ = conditional_gaussian_probs(reference_squared_distances(x), perplexity)
    return (p_cond + p_cond.T) / (2.0 * x.shape[0])


def reference_kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float((p[mask] * np.log(p[mask] / np.maximum(q[mask], _EPS))).sum())


def reference_tsne(points: np.ndarray, config: TsneConfig) -> Embedding2D:
    """Exact t-SNE to 2-D.

    Pipeline: pairwise squared distances; per-point bandwidth search to the
    configured perplexity; symmetrized P; seeded Gaussian init (sigma 1e-4);
    gradient descent on KL(P||Q) with a Student-t(1) Q, momentum switching
    from MOMENTUM to FINAL_MOMENTUM when early exaggeration ends, and
    per-coordinate adaptive gains. Returns the embedding plus the KL at
    initialization and after the last iteration (both unexaggerated).
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 4:
        raise ConfigurationError(f"need at least 4 points, got shape {x.shape}")
    n = x.shape[0]
    if config.perplexity >= (n - 1) / 3.0:
        raise ConfigurationError(
            f"perplexity {config.perplexity} infeasible for {n} points "
            f"(must be < (n-1)/3 = {(n - 1) / 3.0:.2f})"
        )

    p = reference_joint_probabilities(x, config.perplexity)
    rng = np.random.default_rng(config.seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2))

    def q_matrix(y_: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = 1.0 / (1.0 + reference_squared_distances(y_))
        np.fill_diagonal(w, 0.0)
        return w / w.sum(), w

    q, _ = q_matrix(y)
    initial_kl = reference_kl_divergence(p, q)

    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    min_gain = 0.01
    for it in range(config.iterations):
        exaggerating = it < config.exaggeration_iters
        p_eff = p * EARLY_EXAGGERATION if exaggerating else p
        momentum = MOMENTUM if exaggerating else FINAL_MOMENTUM

        q, w = q_matrix(y)
        pq = (p_eff - q) * w
        grad = 4.0 * (pq.sum(axis=1)[:, None] * y - pq @ y)

        same_sign = (grad > 0) == (velocity > 0)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        np.clip(gains, min_gain, None, out=gains)
        velocity = momentum * velocity - config.learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)
        if not np.isfinite(y).all():
            raise NumericError(f"non-finite embedding at iteration {it + 1}")

    q, _ = q_matrix(y)
    final_kl = reference_kl_divergence(p, q)
    return Embedding2D(points=y, initial_kl=initial_kl, final_kl=final_kl)
