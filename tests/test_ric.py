import dataclasses

import numpy as np
import pytest

from rantwin import anomaly, mlp, ran_sim, ric, twin_engine
from rantwin.anomaly import AnomalyClass, FeatureStats
from rantwin.errors import ConfigurationError, DomainError, ProtocolError
from rantwin.ran_sim import SimConfig
from rantwin.ric import (
    ControlAction,
    DtXapp,
    ForceHandover,
    Indication,
    MessageBus,
    PrbBoost,
    ScheduledFault,
    allocation_weights,
    apply_control,
    closed_loop_run,
)

from oracles import (
    linear_scan_allocation,
    mk_batch,
    mk_cell,
    mk_report,
    per_ue_on_indication,
    report_rows,
    weight_array,
)

LINK = SimConfig().link


def unit_stats():
    return FeatureStats(mean=np.zeros(8), std=np.ones(8))


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
    return Indication(tick=tick, reports=mk_batch(reports))


class TestMessageBus:
    def test_in_order_delivery(self):
        bus = MessageBus()
        sub = bus.subscribe()
        for t in (1, 2, 3):
            bus.publish(Indication(tick=t, reports=mk_batch([], tick=t)))
        assert [sub.pop().tick for _ in range(3)] == [1, 2, 3]

    def test_fan_out_to_all_subscribers(self):
        bus = MessageBus()
        a, b = bus.subscribe(), bus.subscribe()
        for t in (1, 2, 3):
            bus.publish(Indication(tick=t, reports=mk_batch([], tick=t)))
        assert [a.pop().tick for _ in range(3)] == [1, 2, 3]
        assert [b.pop().tick for _ in range(3)] == [1, 2, 3]

    def test_duplicate_tick_rejected(self):
        bus = MessageBus()
        bus.subscribe()
        bus.publish(Indication(tick=2, reports=mk_batch([], tick=2)))
        with pytest.raises(ProtocolError):
            bus.publish(Indication(tick=2, reports=mk_batch([], tick=2)))

    def test_regressing_tick_rejected(self):
        bus = MessageBus()
        bus.publish(Indication(tick=5, reports=mk_batch([], tick=5)))
        with pytest.raises(ProtocolError):
            bus.publish(Indication(tick=4, reports=mk_batch([], tick=4)))

    def test_pop_without_pending_rejected(self):
        bus = MessageBus()
        sub = bus.subscribe()
        with pytest.raises(ProtocolError):
            sub.pop()

    def test_exactly_once(self):
        bus = MessageBus()
        sub = bus.subscribe()
        bus.publish(Indication(tick=1, reports=mk_batch([], tick=1)))
        assert sub.pop().tick == 1
        with pytest.raises(ProtocolError):
            sub.pop()

    def test_indication_tick_consistency_enforced(self):
        with pytest.raises(DomainError):
            Indication(tick=2, reports=mk_batch([mk_report(tick=3)]))


class TestDtXapp:
    def _xapp(self, model, **kwargs):
        cells = [mk_cell(cell_id=0, total_prbs=50), mk_cell(cell_id=1), mk_cell(cell_id=2)]
        return DtXapp(model, unit_stats(), cells, LINK, **kwargs)

    def test_normal_predictions_no_actions(self):
        xapp = self._xapp(constant_model(None))  # uniform probs tie -> Normal
        for t in range(1, 6):
            plan, actions, detections = xapp.on_indication(indication_for(t))
            assert actions == []
            assert detections == []
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
        # as many UEs, in another order
        swapped = dataclasses.replace(indication_for(2).reports, ue_id=np.array([1, 0]))
        with pytest.raises(DomainError, match="other UEs"):
            xapp.on_indication(Indication(tick=2, reports=swapped))

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
            indication = Indication(tick=state.tick, reports=reports)
            weights = allocation_weights(state)
            plan, actions, detections = batched.on_indication(indication, weights)
            ref_grants, ref_actions, ref_detections = per_ue_on_indication(
                looped, indication, debounce, weights
            )
            assert detections == ref_detections
            assert actions == ref_actions
            assert plan.grants == ref_grants
            assert plan.grants == linear_scan_allocation(
                report_rows(reports), state.cells, config.link, dict(enumerate(weights.tolist()))
            )
            ran_sim.apply_allocation(state, plan, config.link)
            for action in actions:
                apply_control(state, action)
            n_detections += len(detections)
            n_actions += len(actions)
        assert n_detections > 0 and n_actions > 0


class TestApplyControl:
    def test_force_handover_to_current_cell_is_noop(self):
        state = ran_sim.init_sim(SimConfig(n_cells=2, n_ues=3, seed=1))
        before = state.snapshot()
        serving = state.ues[0].serving_cell
        action = ControlAction(1, 0, ForceHandover(serving), AnomalyClass.RSRP_ERROR)
        apply_control(state, action)
        assert state.snapshot() == before

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
        per_prb = twin_engine.per_prb_rate_mbps(30.0, 15, LINK)
        reports = [
            mk_report(ue_id=0, cqi=15, sinr=30.0, demand=20 * per_prb, priority=2),
            mk_report(ue_id=1, cqi=15, sinr=30.0, demand=20 * per_prb, priority=2),
        ]
        cell = mk_cell(total_prbs=10)
        before, _, _ = twin_engine.twin_tick(mk_batch(reports), [cell], LINK)
        boosted, _, _ = twin_engine.twin_tick(
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
        assert log.detections == []
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
            plan, _, _ = twin_engine.twin_tick(reports, state.cells, config.link)
            ran_sim.apply_allocation(state, plan, config.link)
            achieved_plain.append(state.achieved_mbps.tolist())
        plain_snapshot = state.snapshot()

        achieved_loop = []
        state = ran_sim.init_sim(config)
        bus = MessageBus()
        sub = bus.subscribe()
        xapp = DtXapp(constant_model(None), unit_stats(), state.cells, config.link)
        for _ in range(config.n_ticks):
            state, reports, _ = ran_sim.step(state)
            bus.publish(Indication(tick=state.tick, reports=reports))
            plan, actions, _ = xapp.on_indication(sub.pop(), weights=allocation_weights(state))
            assert actions == []
            ran_sim.apply_allocation(state, plan, config.link)
            achieved_loop.append(state.achieved_mbps.tolist())

        assert achieved_loop == achieved_plain
        assert state.snapshot() == plain_snapshot

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

    def test_bad_schedule_rejected(self):
        config = SimConfig(n_cells=2, n_ues=4, n_ticks=20, seed=7)
        spec = anomaly.default_fault_specs()[AnomalyClass.SINR_ERROR]
        with pytest.raises(ConfigurationError):
            closed_loop_run(config, constant_model(None), unit_stats(),
                            [ScheduledFault(25, 0, spec)])
        with pytest.raises(ConfigurationError):
            closed_loop_run(config, constant_model(None), unit_stats(),
                            [ScheduledFault(5, 11, spec)])


class TestMessageSchema:
    def test_indication_schema(self):
        ind = indication_for(3, n_ues=1)
        obj = ric.message_to_dict(ind)
        assert obj["type"] == "indication"
        assert obj["tick"] == 3
        assert len(obj["reports"]) == 1
        assert obj["reports"][0]["ue_id"] == 0

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
