import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from rantwin import anomaly, mlp, ran_sim, ric, twin_engine
from rantwin.errors import ConfigurationError, DomainError, ProtocolError
from rantwin.ran_sim import AnomalyClass, SimConfig
from rantwin.ric import (
    ControlAction,
    ControlLoop,
    Detection,
    Detections,
    DtXapp,
    EpisodeLog,
    FaultEvent,
    ForceHandover,
    MessageBus,
    PrbBoost,
    ScheduledFault,
    allocation_weights,
    apply_control,
    closed_loop_run,
    fault_windows,
    score_faults,
)

from oracles import (
    linear_scan_allocation,
    mk_batch,
    mk_cell,
    mk_report,
    per_prb_rate_mbps,
    per_ue_on_indication,
    reference_write_episode_jsonl,
    report_rows,
    snapshot,
    unit_stats,
    weight_array,
)

LINK = SimConfig().link


def constant_model(target: int | None):
    """Zero-weight model; with a target class its bias forces that argmax."""
    model = mlp.init_model([], seed=0)
    for w in model.weights:
        w.fill(0.0)
    for b in model.biases:
        b.fill(0.0)
    if target is not None:
        model.biases[-1][target] = 50.0
    return model


def indication_for(tick, n_ues=2, demand=5.0):
    reports = [
        mk_report(ue_id=u, tick=tick, demand=demand, neighbors={1: -95.0, 2: -99.0})
        for u in range(n_ues)
    ]
    return mk_batch(reports)


class TestMessageBus:
    def test_in_order_delivery(self):
        bus = MessageBus()
        sub = bus.subscribe()
        for t in (1, 2, 3):
            bus.publish(mk_batch([], tick=t))
        assert [sub.pop().tick for _ in range(3)] == [1, 2, 3]

    def test_fan_out_to_all_subscribers(self):
        bus = MessageBus()
        a, b = bus.subscribe(), bus.subscribe()
        for t in (1, 2, 3):
            bus.publish(mk_batch([], tick=t))
        assert [a.pop().tick for _ in range(3)] == [1, 2, 3]
        assert [b.pop().tick for _ in range(3)] == [1, 2, 3]

    def test_duplicate_tick_rejected(self):
        bus = MessageBus()
        bus.subscribe()
        bus.publish(mk_batch([], tick=2))
        with pytest.raises(ProtocolError):
            bus.publish(mk_batch([], tick=2))

    def test_regressing_tick_rejected(self):
        bus = MessageBus()
        bus.publish(mk_batch([], tick=5))
        with pytest.raises(ProtocolError):
            bus.publish(mk_batch([], tick=4))

    def test_pop_without_pending_rejected(self):
        bus = MessageBus()
        sub = bus.subscribe()
        with pytest.raises(ProtocolError):
            sub.pop()

    def test_exactly_once(self):
        bus = MessageBus()
        sub = bus.subscribe()
        bus.publish(mk_batch([], tick=1))
        assert sub.pop().tick == 1
        with pytest.raises(ProtocolError):
            sub.pop()


class TestDtXapp:
    def _xapp(self, model, **kwargs):
        cells = [mk_cell(cell_id=0, total_prbs=50), mk_cell(cell_id=1), mk_cell(cell_id=2)]
        return DtXapp(model, unit_stats(), cells, LINK, **kwargs)

    def test_normal_predictions_no_actions(self):
        xapp = self._xapp(constant_model(None))  # uniform probs tie -> Normal
        for t in range(1, 6):
            plan, actions, detections = xapp.on_indication(indication_for(t))
            assert actions == []
            assert list(detections) == []
            assert plan.grants

    def test_confirmation_fires_exactly_once_on_third_tick(self):
        xapp = self._xapp(constant_model(int(AnomalyClass.RSRP_ERROR)))
        all_actions = []
        for t in range(1, 10):
            _, actions, detections = xapp.on_indication(indication_for(t, n_ues=1))
            all_actions.extend(actions)
            assert len(detections) == 1
        assert len(all_actions) == 1
        assert all_actions[0].tick == 3
        assert all_actions[0].cause == AnomalyClass.RSRP_ERROR
        assert isinstance(all_actions[0].kind, ForceHandover)
        assert all_actions[0].kind.target_cell == 1  # strongest neighbor

    def test_flapping_never_confirms(self):
        normal = constant_model(None)
        error = constant_model(int(AnomalyClass.SINR_ERROR))
        xapp = self._xapp(error)
        total = 0
        for t in range(1, 13):
            xapp.model = error if t % 2 else normal
            _, actions, _ = xapp.on_indication(indication_for(t, n_ues=1))
            total += len(actions)
        assert total == 0

    def test_rearm_requires_clear_window(self):
        error = constant_model(int(AnomalyClass.SINR_ERROR))
        normal = constant_model(None)
        xapp = self._xapp(error)
        fired = {}
        t = 0
        # confirm (3 error ticks), then 9 normal ticks (below the 10-tick
        # clear window), then 3 error ticks: still disarmed, no second action
        for phase, (model, ticks) in enumerate(
            [(error, 3), (normal, 9), (error, 3), (normal, 10), (error, 3)]
        ):
            xapp.model = model
            for _ in range(ticks):
                t += 1
                _, actions, _ = xapp.on_indication(indication_for(t, n_ues=1))
                if actions:
                    fired.setdefault(phase, 0)
                    fired[phase] += len(actions)
        # re-armed only after the 10-tick normal window in phase 3
        assert fired == {0: 1, 4: 1}

    def test_sinr_error_gets_prb_boost(self):
        xapp = self._xapp(constant_model(int(AnomalyClass.SINR_ERROR)))
        actions = []
        for t in range(1, 5):
            _, acts, _ = xapp.on_indication(indication_for(t, n_ues=1))
            actions.extend(acts)
        assert len(actions) == 1
        kind = actions[0].kind
        assert isinstance(kind, PrbBoost)
        assert kind.factor == 2.0
        assert kind.duration_ticks == 100

    def test_other_ues_rejected(self):
        xapp = self._xapp(constant_model(None))
        xapp.on_indication(indication_for(1, n_ues=2))
        with pytest.raises(DomainError, match="other UEs"):
            xapp.on_indication(indication_for(2, n_ues=3))
        with pytest.raises(DomainError, match="other UEs"):
            xapp.on_indication(indication_for(2, n_ues=1))

    def test_flagged_and_fired_rows_are_the_ue_ids(self):
        # a linear model that flags priority 4 and reads priority 1 as Normal
        model = constant_model(None)
        rsrp_error = int(AnomalyClass.RSRP_ERROR)
        model.weights[-1][rsrp_error, anomaly.FEATURE_NAMES.index("priority")] = 10.0
        model.biases[-1][rsrp_error] = -25.0
        xapp = self._xapp(model)
        for t in range(1, 4):
            reports = [
                mk_report(ue_id=u, tick=t, priority=p, neighbors={1: -95.0})
                for u, p in enumerate([1, 4, 1, 4, 4])
            ]
            _, actions, detections = xapp.on_indication(mk_batch(reports))
            assert detections.ue_id.tolist() == [1, 3, 4]
        assert [a.ue_id for a in actions] == [1, 3, 4]
        assert {a.tick for a in actions} == {3}

    def test_missing_model_or_stats_rejected(self):
        with pytest.raises(ConfigurationError):
            DtXapp(None, unit_stats(), [mk_cell()], LINK)
        with pytest.raises(ConfigurationError):
            DtXapp(constant_model(None), None, [mk_cell()], LINK)


class TestRemediationPolicy:
    def test_handover_target_is_the_strongest_neighbour(self):
        policy = ric.RemediationPolicy()
        rsrp = np.array([-95.0, -80.0, -90.0, -80.0])
        # cells 1 and 3 tie: the lowest cell_id wins unless it is serving
        for serving, target in ((0, 1), (1, 3), (2, 1), (3, 1)):
            kind = policy.action_for(AnomalyClass.RSRQ_ERROR, rsrp, serving)
            assert kind == ForceHandover(target_cell=target)

    def test_single_cell_has_nowhere_to_steer(self):
        policy = ric.RemediationPolicy()
        assert policy.action_for(AnomalyClass.RSRP_ERROR, np.array([-80.0]), 0) is None
        assert policy.action_for(AnomalyClass.SINR_ERROR, np.array([-80.0]), 0) == PrbBoost(2.0, 100)

    @pytest.mark.parametrize("kwargs", [
        {"boost": (0.5, 100)},
        {"boost": (1.0, 100)},
        {"boost": (math.nan, 10)},
        {"boost": (math.inf, 10)},
        {"boost": (2.0, 0)},
        {"boost": (2.0, 2.5)},
        {"boost": (2.0, True)},
        {"handover_classes": (AnomalyClass.NORMAL, AnomalyClass.RSRP_ERROR)},
        {"boost_classes": (AnomalyClass.NORMAL,)},
        {"boost_classes": (AnomalyClass.SINR_ERROR, AnomalyClass.RSRQ_ERROR)},
    ])
    def test_invalid_policy_rejected_at_construction(self, kwargs):
        # each would otherwise surface mid-episode, or let the boost silently
        # win over the handover for a class listed in both tuples. PrbBoost
        # refuses a bad (factor, duration_ticks) before a policy can hold it.
        if "boost" in kwargs:
            with pytest.raises(DomainError):
                PrbBoost(*kwargs["boost"])
        else:
            with pytest.raises(ConfigurationError):
                ric.RemediationPolicy(**kwargs)

    def test_disjoint_classes_accepted(self):
        policy = ric.RemediationPolicy(
            handover_classes=(AnomalyClass.RSRP_ERROR,),
            boost_classes=(AnomalyClass.SINR_ERROR, AnomalyClass.RSRQ_ERROR),
            boost=PrbBoost(1.5, 1),
        )
        assert policy.action_for(AnomalyClass.RSRQ_ERROR, np.array([-80.0]), 0) == PrbBoost(1.5, 1)


class TestDetections:
    def _ticks_4_to_6(self):
        det = Detections()
        det.append_tick(4, np.array([1, 7]), np.array([3, 1]),
                        np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 1.0, 0.0, 0.0]]))
        det.append_tick(5, np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                        np.zeros((0, anomaly.N_CLASSES)))
        det.append_tick(6, np.array([2]), np.array([2]), np.array([[5e-324, 0.25, 0.75, 0.0]]))
        return det

    def test_rows_read_back(self):
        det = self._ticks_4_to_6()
        assert len(det) == 3
        assert list(det) == [
            Detection(4, 1, AnomalyClass.SINR_ERROR, (0.1, 0.2, 0.3, 0.4)),
            Detection(4, 7, AnomalyClass.RSRP_ERROR, (0.0, 1.0, 0.0, 0.0)),
            Detection(6, 2, AnomalyClass.RSRQ_ERROR, (5e-324, 0.25, 0.75, 0.0)),
        ]

    def test_extend_and_column_equality(self):
        det = self._ticks_4_to_6()
        merged = Detections()
        merged.extend(det)
        assert merged == det
        assert list(merged) == list(det)
        merged.probs[-1] = 1e-300
        assert merged != det
        assert Detections() == Detections()
        assert Detections() != det

    def test_mismatched_columns_rejected(self):
        det = Detections()
        with pytest.raises(DomainError):
            det.append_tick(1, np.array([1, 2]), np.array([1]), np.zeros((2, anomaly.N_CLASSES)))
        with pytest.raises(DomainError):
            det.append_tick(1, np.array([1]), np.array([1]), np.zeros((1, anomaly.N_CLASSES - 1)))
        assert len(det) == 0


class TestBatchedXapp:
    def test_matches_per_ue_loop(self, pipeline):
        # the batched tick must reproduce the per-UE loop bit for bit:
        # probabilities, detections, actions and grants
        config = SimConfig(n_ticks=120, seed=12)
        specs = anomaly.default_fault_specs(duration_ticks=40)
        faults = {
            10: (5, specs[AnomalyClass.RSRP_ERROR]),
            30: (17, specs[AnomalyClass.RSRQ_ERROR]),
            50: (29, specs[AnomalyClass.SINR_ERROR]),
        }
        state = ran_sim.init_sim(config)
        batched = DtXapp(pipeline["model"], pipeline["stats"], state.cells, config.link)
        looped = DtXapp(pipeline["model"], pipeline["stats"], state.cells, config.link)
        debounce = {}
        n_detections = n_actions = 0
        for _ in range(config.n_ticks):
            if state.tick + 1 in faults:
                ran_sim.set_fault(state, *faults[state.tick + 1])
            state, reports, _ = ran_sim.step(state)
            weights = allocation_weights(state)
            plan, actions, detections = batched.on_indication(reports, weights)
            ref_grants, ref_actions, ref_detections = per_ue_on_indication(
                looped, reports, debounce, weights
            )
            assert list(detections) == ref_detections
            assert actions == ref_actions
            assert plan.grants == ref_grants
            expected = linear_scan_allocation(
                report_rows(reports), state.cells, config.link, dict(enumerate(weights.tolist()))
            )
            assert plan.grants == expected
            assert plan.grant.tolist() == [expected[u] for u in range(len(reports))]
            ran_sim.apply_allocation(state, plan, config.link)
            for action in actions:
                apply_control(state, action)
            n_detections += len(detections)
            n_actions += len(actions)
        assert n_detections > 0 and n_actions > 0


class TestApplyControl:
    def test_force_handover_to_current_cell_is_noop(self):
        state = ran_sim.init_sim(SimConfig(n_cells=2, n_ues=3, seed=1))
        before = snapshot(state)
        serving = state.ues[0].serving_cell
        action = ControlAction(1, 0, ForceHandover(serving), AnomalyClass.RSRP_ERROR)
        apply_control(state, action)
        assert snapshot(state) == before

    def test_force_handover_switches_cell(self):
        state = ran_sim.init_sim(SimConfig(n_cells=2, n_ues=3, seed=1))
        target = 1 - state.ues[0].serving_cell
        apply_control(state, ControlAction(1, 0, ForceHandover(target), AnomalyClass.RSRP_ERROR))
        assert state.ues[0].serving_cell == target

    def test_unknown_ids_rejected(self):
        state = ran_sim.init_sim(SimConfig(n_cells=2, n_ues=3, seed=1))
        with pytest.raises(DomainError):
            apply_control(state, ControlAction(1, 99, ForceHandover(0), AnomalyClass.RSRP_ERROR))
        with pytest.raises(DomainError):
            apply_control(state, ControlAction(1, 0, ForceHandover(9), AnomalyClass.RSRP_ERROR))

    def test_boost_raises_contended_grant(self):
        # two equal UEs share one 10-PRB cell; boosting one must not shrink
        # its grant, and the boost wins it the whole cell
        per_prb = per_prb_rate_mbps(30.0, 15, LINK)
        reports = [
            mk_report(ue_id=0, cqi=15, sinr=30.0, demand=20 * per_prb, priority=2),
            mk_report(ue_id=1, cqi=15, sinr=30.0, demand=20 * per_prb, priority=2),
        ]
        cell = mk_cell(total_prbs=10)
        before, _ = twin_engine.twin_tick(mk_batch(reports), [cell], LINK)
        boosted, _ = twin_engine.twin_tick(
            mk_batch(reports), [cell], LINK, weights=weight_array(reports, {0: 2.0, 1: 2.0 * 2.0})
        )
        assert boosted.grants[1] >= before.grants[1]
        assert boosted.grants[1] == 10

    def test_boost_expiry_restores_baseline_weights(self):
        state = ran_sim.init_sim(SimConfig(n_cells=1, n_ues=2, seed=2))
        baseline = allocation_weights(state)
        action = ControlAction(
            state.tick, 0, PrbBoost(2.0, duration_ticks=3), AnomalyClass.SINR_ERROR
        )
        apply_control(state, action)
        boosted = allocation_weights(state)
        assert boosted[0] == pytest.approx(2.0 * baseline[0])
        for _ in range(3):
            state, _, _ = ran_sim.step(state)
            assert allocation_weights(state)[0] == pytest.approx(2.0 * baseline[0])
        state, _, _ = ran_sim.step(state)
        assert np.array_equal(allocation_weights(state), baseline)


class TestClosedLoop:
    def test_empty_schedule(self):
        config = SimConfig(n_cells=2, n_ues=6, n_ticks=30, seed=3)
        log = closed_loop_run(config, constant_model(None), unit_stats(), [])
        assert log.fault_events == []
        assert log.actions == []
        assert list(log.detections) == []
        assert log.n_ticks == 30

    def test_deterministic(self, pipeline):
        config = SimConfig(n_cells=2, n_ues=10, n_ticks=120, seed=4)
        schedule = [
            ScheduledFault(30, 2, anomaly.default_fault_specs()[AnomalyClass.RSRP_ERROR])
        ]
        a = closed_loop_run(config, pipeline["model"], pipeline["stats"], schedule)
        b = closed_loop_run(config, pipeline["model"], pipeline["stats"], schedule)
        assert a.detections == b.detections
        assert a.actions == b.actions
        assert [vars(e) for e in a.fault_events] == [vars(e) for e in b.fault_events]

    def test_loop_safety_with_always_normal_model(self):
        # the detector is the only source of perturbation: an always-Normal
        # model must leave the trajectory identical to the plain sim+twin loop
        config = SimConfig(n_cells=3, n_ues=8, n_ticks=40, seed=5)

        achieved_plain = []
        state = ran_sim.init_sim(config)
        for _ in range(config.n_ticks):
            state, reports, _ = ran_sim.step(state)
            plan, _ = twin_engine.twin_tick(reports, state.cells, config.link)
            ran_sim.apply_allocation(state, plan, config.link)
            achieved_plain.append(state.achieved_mbps.tolist())
        plain_snapshot = snapshot(state)

        achieved_loop = []
        loop = ControlLoop(config, constant_model(None), unit_stats())
        for _ in range(config.n_ticks):
            actions, _ = loop.tick()
            assert actions == []
            achieved_loop.append(loop.state.achieved_mbps.tolist())

        assert achieved_loop == achieved_plain
        assert snapshot(loop.state) == plain_snapshot

    def test_no_op_policy_flags_rows_and_keeps_the_plain_trajectory(self, pipeline):
        # a trained model flags the faulted rows, but a policy with no
        # remedies takes no action, so the run stays draw-aligned with the
        # plain sim+twin loop under the same faults
        config = SimConfig(n_ticks=150, seed=13)
        specs = anomaly.default_fault_specs(duration_ticks=40)
        faults = {
            20: (5, specs[AnomalyClass.RSRP_ERROR]),
            70: (17, specs[AnomalyClass.SINR_ERROR]),
        }

        state = ran_sim.init_sim(config)
        for _ in range(config.n_ticks):
            if state.tick + 1 in faults:
                ran_sim.set_fault(state, *faults[state.tick + 1])
            state, reports, _ = ran_sim.step(state)
            plan, _ = twin_engine.twin_tick(
                reports, state.cells, config.link, weights=allocation_weights(state)
            )
            ran_sim.apply_allocation(state, plan, config.link)
        plain_snapshot = snapshot(state)

        loop = ControlLoop(
            config, pipeline["model"], pipeline["stats"], ric.RemediationPolicy((), ())
        )
        n_detections = 0
        for _ in range(config.n_ticks):
            if loop.state.tick + 1 in faults:
                ran_sim.set_fault(loop.state, *faults[loop.state.tick + 1])
            actions, detections = loop.tick()
            assert actions == []
            n_detections += len(detections)

        assert n_detections > 0
        assert snapshot(loop.state) == plain_snapshot

    def test_single_fault_detected_with_finite_latency(self, pipeline):
        config = SimConfig(n_ticks=200, seed=6)
        spec = anomaly.default_fault_specs()[AnomalyClass.RSRP_ERROR]
        log = closed_loop_run(config, pipeline["model"], pipeline["stats"],
                              [ScheduledFault(60, 7, spec)])
        assert len(log.fault_events) == 1
        event = log.fault_events[0]
        assert event.detect_tick is not None
        assert event.detection_latency_ticks() >= 0
        assert event.action_tick == event.detect_tick

    def test_log_retains_columns_not_objects(self):
        # every row flagged: 50 UEs x 200 ticks = 10,000 detections, which
        # the log keeps in at most 100 B each (56 B of columns)
        config = SimConfig(n_ues=50, n_ticks=200, seed=9)
        model = constant_model(int(AnomalyClass.SINR_ERROR))
        closed_loop_run(dataclasses.replace(config, n_ticks=5), model, unit_stats(), [])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = closed_loop_run(config, model, unit_stats(), [])
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(log.detections) == 10_000
        assert retained <= 100 * len(log.detections)

    def test_bad_schedule_rejected(self):
        config = SimConfig(n_cells=2, n_ues=4, n_ticks=20, seed=7)
        spec = anomaly.default_fault_specs()[AnomalyClass.SINR_ERROR]
        with pytest.raises(ConfigurationError):
            closed_loop_run(config, constant_model(None), unit_stats(),
                            [ScheduledFault(25, 0, spec)])
        with pytest.raises(ConfigurationError):
            closed_loop_run(config, constant_model(None), unit_stats(),
                            [ScheduledFault(5, 11, spec)])

    @pytest.mark.parametrize("onset_tick, ue_id", [(2.5, 1), (3, True)])
    def test_schedule_of_non_integer_ticks_or_ues_rejected(self, onset_tick, ue_id):
        # a fault at tick 2.5 would never be injected, and ue_id True would
        # corrupt every UE's reports
        config = SimConfig(n_cells=2, n_ues=4, n_ticks=20, seed=7)
        spec = anomaly.default_fault_specs()[AnomalyClass.SINR_ERROR]
        with pytest.raises(ConfigurationError, match="must be an integer"):
            closed_loop_run(config, constant_model(None), unit_stats(),
                            [ScheduledFault(onset_tick, ue_id, spec)])

    def test_overlapping_faults_on_one_ue_rejected(self):
        config = SimConfig(n_cells=2, n_ues=4, n_ticks=40, seed=7)
        rsrp, rsrq = (dataclasses.replace(anomaly.default_fault_specs()[c], duration_ticks=10)
                      for c in (AnomalyClass.RSRP_ERROR, AnomalyClass.RSRQ_ERROR))
        schedule = [ScheduledFault(5, 1, rsrp), ScheduledFault(3, 2, rsrq),
                    ScheduledFault(14, 1, rsrq)]
        with pytest.raises(ConfigurationError,
                           match=r"faults 0 and 2 overlap on UE 1: ticks 5\.\.14 and 14\.\.23"):
            closed_loop_run(config, constant_model(None), unit_stats(), schedule)

    def test_back_to_back_faults_on_one_ue_accepted(self):
        config = SimConfig(n_cells=2, n_ues=4, n_ticks=40, seed=7)
        spec = dataclasses.replace(anomaly.default_fault_specs()[AnomalyClass.RSRP_ERROR],
                                   duration_ticks=10)
        log = closed_loop_run(config, constant_model(None), unit_stats(),
                              [ScheduledFault(15, 1, spec), ScheduledFault(5, 1, spec)])
        assert [e.onset_tick for e in log.fault_events] == [15, 5]

    def test_action_scored_in_its_own_fault_window(self):
        # the model fires on every UE at tick 3, after fault 0's one-tick
        # window has ended and inside fault 1's window on the same UE
        config = SimConfig(n_cells=2, n_ues=4, n_ticks=20, seed=7)
        rsrq = anomaly.default_fault_specs()[AnomalyClass.RSRQ_ERROR]
        schedule = [ScheduledFault(1, 1, dataclasses.replace(rsrq, duration_ticks=1)),
                    ScheduledFault(3, 1, dataclasses.replace(rsrq, duration_ticks=5))]
        log = closed_loop_run(config, constant_model(int(AnomalyClass.RSRQ_ERROR)),
                              unit_stats(), schedule)
        assert [(a.tick, a.ue_id) for a in log.actions] == [(3, u) for u in range(4)]
        first, second = log.fault_events
        assert (first.detect_tick, first.action_tick, first.restore_tick) == (None, None, None)
        assert (second.detect_tick, second.action_tick, second.restore_tick) == (3, 3, 8)


def fault(onset_tick, ue_id=1, duration_ticks=5, cls=AnomalyClass.RSRQ_ERROR):
    spec = dataclasses.replace(anomaly.default_fault_specs()[cls], duration_ticks=duration_ticks)
    return ScheduledFault(onset_tick, ue_id, spec)


def handover(tick, ue_id=1, cause=AnomalyClass.RSRQ_ERROR):
    return ControlAction(tick, ue_id, ForceHandover(0), cause)


class TestScoreFaults:
    """score_faults on hand-written actions and achieved_mbps series; row
    t - 1 of `achieved` is tick t."""

    def test_windows_are_cut_at_the_horizon(self):
        ue, first, last = fault_windows([fault(3, ue_id=2), fault(18, ue_id=0)], 20)
        assert ue.tolist() == [2, 0]
        assert first.tolist() == [3, 18]
        assert last.tolist() == [7, 20]

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ConfigurationError, match=r"faults 0 and 1 overlap on UE 1"):
            score_faults([fault(3), fault(7)], [], np.ones((20, 1)))

    @pytest.mark.parametrize("action_tick, acted", [(2, None), (3, 3), (7, 7), (8, None)])
    def test_action_counts_only_inside_the_window(self, action_tick, acted):
        # window 3..7
        (event,) = score_faults([fault(3)], [handover(action_tick)], np.ones((20, 1)))
        assert (event.detect_tick, event.action_tick) == (acted, acted)
        assert event.restore_tick == (None if acted is None else acted + 1)

    def test_action_on_another_ue_or_of_another_class_does_not_count(self):
        actions = [handover(3, ue_id=2), handover(4, cause=AnomalyClass.RSRP_ERROR),
                   ControlAction(5, 1, PrbBoost(2.0, 100), AnomalyClass.SINR_ERROR),
                   handover(6)]
        (event,) = score_faults([fault(3)], actions, np.ones((20, 1)))
        assert (event.detect_tick, event.action_tick) == (6, 6)
        (unacted,) = score_faults([fault(3)], actions[:3], np.ones((20, 1)))
        assert (unacted.detect_tick, unacted.action_tick, unacted.restore_tick) == (None,) * 3

    def test_window_cut_by_the_horizon(self):
        # a 50-tick fault at onset 8 of a 10-tick run owns ticks 8..10
        achieved = np.ones((10, 1))
        (event,) = score_faults([fault(8, duration_ticks=50)], [handover(9)], achieved)
        assert (event.action_tick, event.restore_tick) == (9, 10)
        (event,) = score_faults([fault(8, duration_ticks=50)], [handover(10)], achieved)
        assert (event.action_tick, event.restore_tick) == (10, None)
        (event,) = score_faults([fault(10, duration_ticks=1)], [handover(10)], achieved)
        assert event.action_tick == 10

    @pytest.mark.parametrize("onset_tick, baseline", [(1, 0.0), (2, 1.0), (5, 2.5), (25, 14.5)])
    def test_baseline_is_the_mean_of_up_to_20_ticks_before_onset(self, onset_tick, baseline):
        # the rate at tick t is t: onset 5 averages ticks 1..4, onset 25 ticks 5..24
        achieved = np.arange(1.0, 41.0)[:, None]
        (event,) = score_faults([fault(onset_tick)], [], achieved)
        assert event.baseline_mbps == baseline
        assert (event.detect_tick, event.action_tick, event.restore_tick) == (None,) * 3

    def test_restore_is_strictly_after_the_action_and_may_follow_the_window(self):
        # baseline 10 from ticks 1..2; window 3..4, action at 3, whose own
        # rate already reaches 0.8 x 10; the rate recovers at tick 7
        rates = [10.0, 10.0, 10.0, 1.0, 1.0, 1.0, 9.0, 1.0]
        (event,) = score_faults([fault(3, duration_ticks=2)], [handover(3)],
                                np.array(rates)[:, None])
        assert event.baseline_mbps == 10.0
        assert (event.action_tick, event.restore_tick) == (3, 7)
        assert event.restoration_latency_ticks() == 4

    def test_columns_are_the_scheduled_ues_in_ue_id_order(self):
        # UE 2 is column 0 and UE 7 column 1, whatever the schedule's order
        achieved = np.tile([1.0, 100.0], (10, 1))
        events = score_faults([fault(5, ue_id=7), fault(5, ue_id=2), fault(10, ue_id=7)],
                              [handover(6, ue_id=7), handover(6, ue_id=2)], achieved)
        assert [e.baseline_mbps for e in events] == [100.0, 1.0, 100.0]
        assert [e.fault_id for e in events] == [0, 1, 2]
        assert [e.action_tick for e in events] == [6, 6, None]

    def test_events_are_frozen(self):
        (event,) = score_faults([fault(3)], [handover(3)], np.ones((20, 1)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.detect_tick = 4


class TestMessageSchema:
    def test_control_schema(self):
        boost = ControlAction(4, 2, PrbBoost(2.0, 100), AnomalyClass.SINR_ERROR)
        obj = ric.message_to_dict(boost)
        assert obj == {
            "type": "control", "tick": 4, "ue_id": 2, "cause": 3,
            "kind": "PrbBoost", "factor": 2.0, "duration_ticks": 100,
        }
        handover = ControlAction(5, 1, ForceHandover(2), AnomalyClass.RSRP_ERROR)
        obj = ric.message_to_dict(handover)
        assert obj == {
            "type": "control", "tick": 5, "ue_id": 1, "cause": 1,
            "kind": "ForceHandover", "target_cell": 2,
        }

    def test_episode_files(self, tmp_path, pipeline):
        config = SimConfig(n_cells=2, n_ues=8, n_ticks=80, seed=8)
        spec = anomaly.default_fault_specs()[AnomalyClass.SINR_ERROR]
        log = closed_loop_run(config, pipeline["model"], pipeline["stats"],
                              [ScheduledFault(20, 1, spec)])
        jsonl = tmp_path / "episode.jsonl"
        summary = tmp_path / "summary.csv"
        ric.write_episode_jsonl(log, jsonl)
        ric.write_episode_summary_csv(log, summary)
        lines = summary.read_text().splitlines()
        assert lines[0] == "fault_id,ue_id,class,onset_tick,detect_tick,action_tick,restore_tick"
        assert len(lines) == 2
        assert lines[1].startswith("0,1,3,20,")
        import json as _json

        rows = [_json.loads(line) for line in jsonl.read_text().splitlines()]
        assert {"detection", "fault_event"} <= {r["type"] for r in rows}
        reference = tmp_path / "reference.jsonl"
        reference_write_episode_jsonl(log, reference)
        assert jsonl.read_bytes() == reference.read_bytes()

    def test_episode_writer_matches_json_dumps(self, tmp_path):
        # extreme probabilities, both action kinds and fault events with None
        # ticks
        log = EpisodeLog(n_ticks=900)
        probs = np.array([[5e-324, 1e-300, 0.1, 1.0], [1.0, 0.1, 1e-300, 5e-324],
                          [0.25, 0.25, 0.25, 0.25]])
        for tick in range(1, 401):
            log.detections.append_tick(tick, np.array([0, tick, 2 * tick]), np.array([1, 2, 3]),
                                       np.roll(probs, tick, axis=0))
        assert len(log.detections) == 1200
        log.actions = [
            ControlAction(3, 0, ForceHandover(2), AnomalyClass.RSRP_ERROR),
            ControlAction(5, 2, PrbBoost(2.0, 100), AnomalyClass.SINR_ERROR),
        ]
        log.fault_events = [
            FaultEvent(0, 0, AnomalyClass.RSRP_ERROR, 1, 12.5, 3, 3, 9),
            FaultEvent(1, 4, AnomalyClass.SINR_ERROR, 7, 0.1),
            FaultEvent(2, 2, AnomalyClass.SINR_ERROR, 2, 5e-324, 5, 5, None),
        ]
        ours, reference = tmp_path / "ours.jsonl", tmp_path / "reference.jsonl"
        ric.write_episode_jsonl(log, ours)
        reference_write_episode_jsonl(log, reference)
        assert ours.read_bytes() == reference.read_bytes()
        assert ours.read_bytes().count(b"\n") == 1200 + 2 + 3

    def test_episode_writer_rejects_non_finite_probabilities(self, tmp_path):
        log = EpisodeLog(n_ticks=1)
        log.detections.append_tick(1, np.array([0]), np.array([1]),
                                   np.array([[0.0, np.nan, 0.0, 0.0]]))
        with pytest.raises(DomainError):
            ric.write_episode_jsonl(log, tmp_path / "episode.jsonl")
