//! End-to-end telemetry tests: a full WIRE run must produce a loadable
//! Chrome trace, a decision journal that explains every pool change, a
//! round-trippable JSONL event stream, and a per-tick metrics timeseries.

use wire::core::experiment::{cloud_config_for, run_setting, Setting};
use wire::dag::Millis;
use wire::planner::WirePolicy;
use wire::simcloud::{RunResult, Session, TransferModel};
use wire::telemetry::json::Json;
use wire::telemetry::{
    export, json, DecisionAction, TelemetryBuffer, TelemetryEvent, TelemetryHandle,
};
use wire::workloads::WorkloadId;

/// `workload` under the WIRE setting at u = 15 min with full telemetry:
/// engine events, per-tick metrics, the MAPE decision journal and the
/// prediction-quality join all land in the returned buffer.
fn record_wire(workload: WorkloadId, seed: u64) -> (RunResult, TelemetryBuffer) {
    let (wf, prof) = workload.generate(seed);
    let cfg = cloud_config_for(
        Setting::Wire,
        Millis::from_mins(15),
        workload.spec().total_input_bytes,
    );
    let handle = TelemetryHandle::new();
    let result = Session::new(cfg)
        .transfer(TransferModel::default())
        .policy(WirePolicy::default().with_telemetry(handle.clone()))
        .seed(seed)
        .recording(handle.clone())
        .submit(&wf, &prof)
        .run()
        .expect("recorded run completes");
    (result, handle.take())
}

/// A run that both grows and releases instances (epigenomics fans out to
/// hundreds of short tasks, then narrows).
fn recorded() -> (RunResult, TelemetryBuffer) {
    record_wire(WorkloadId::EpigenomicsS, 1)
}

#[test]
fn chrome_trace_is_valid_and_tracks_are_well_formed() {
    let (_, buffer) = recorded();
    let text = export::chrome_trace(&buffer, 4);
    let v = json::parse(&text).expect("chrome trace parses as JSON");
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // per (pid, tid) track, complete slices must not overlap: sorted by ts,
    // each slice starts at or after the previous one ends
    let mut tracks: std::collections::BTreeMap<(u64, u64), Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        if ph == "X" {
            let pid = e.get("pid").and_then(Json::as_u64).expect("pid");
            let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
            let ts = e.get("ts").and_then(Json::as_u64).expect("ts");
            let dur = e.get("dur").and_then(Json::as_u64).expect("dur");
            tracks.entry((pid, tid)).or_default().push((ts, dur));
        }
    }
    assert!(!tracks.is_empty(), "no task slices in the trace");
    for ((pid, tid), mut slices) in tracks {
        slices.sort_unstable();
        let mut prev_end = 0u64;
        for (ts, dur) in slices {
            assert!(
                ts >= prev_end,
                "track {pid}/{tid}: slice at {ts} overlaps previous ending {prev_end}"
            );
            prev_end = ts + dur;
        }
    }
}

#[test]
fn every_pool_change_has_a_journaled_reason() {
    let (_, buffer) = recorded();
    assert!(!buffer.decisions.is_empty());

    // index the journal by tick timestamp
    let by_at: std::collections::HashMap<u64, &DecisionAction> = buffer
        .decisions
        .iter()
        .map(|d| (d.at.as_ms(), &d.action))
        .collect();

    let mut launches_seen = 0u32;
    let mut drains_seen = 0u32;
    for &(at, ev) in &buffer.events {
        match ev {
            // a launch may only happen when that tick's Plan said grow
            TelemetryEvent::InstanceRequested { .. } => {
                launches_seen += 1;
                match by_at.get(&at.as_ms()) {
                    Some(DecisionAction::Grow { launch }) => assert!(*launch >= 1),
                    other => {
                        panic!("instance requested at {at} without a grow decision: {other:?}")
                    }
                }
            }
            // a drain may only happen when that tick's Plan said release
            TelemetryEvent::InstanceDraining { .. } => {
                drains_seen += 1;
                match by_at.get(&at.as_ms()) {
                    Some(DecisionAction::Release { released, .. }) => assert!(*released >= 1),
                    other => {
                        panic!("instance draining at {at} without a release decision: {other:?}")
                    }
                }
            }
            _ => {}
        }
    }
    assert!(launches_seen > 0, "run never scaled out");

    // every release decision carries per-instance Algorithm 2 evidence
    for d in &buffer.decisions {
        if let DecisionAction::Release { .. } = d.action {
            assert!(
                !d.judgements.is_empty(),
                "release decision at {} without judgements",
                d.at
            );
        }
    }
    let _ = drains_seen;
}

#[test]
fn event_stream_round_trips_through_jsonl() {
    let (_, buffer) = recorded();
    let text = export::events_to_jsonl(&buffer);
    let back = export::parse_jsonl(&text).expect("jsonl parses");
    assert_eq!(back, buffer.events);
}

#[test]
fn metrics_csv_carries_prediction_quality_per_tick() {
    let (r, buffer) = recorded();
    let csv = export::metrics_csv(&buffer);
    let mut lines = csv.lines();
    let header = lines.next().expect("header");
    assert!(header.starts_with("tick,at_ms,"));
    for needle in [
        "pred_mae_ms",
        "pred_p90_rel",
        "pool",
        "tasks_completed_total",
    ] {
        assert!(header.contains(needle), "missing column {needle}");
    }
    assert_eq!(lines.count() as u64, r.mape_iterations);
}

#[test]
fn recording_does_not_change_the_simulation() {
    let (recorded_run, _) = recorded();
    let plain = run_setting(
        WorkloadId::EpigenomicsS,
        Setting::Wire,
        Millis::from_mins(15),
        1,
    );
    assert_eq!(plain.makespan, recorded_run.makespan);
    assert_eq!(plain.charging_units, recorded_run.charging_units);
    assert_eq!(plain.restarts, recorded_run.restarts);
}

#[test]
fn telemetry_run_journals_every_tick_and_changes_nothing() {
    let (r, buffer) = record_wire(WorkloadId::Tpch6S, 1);
    assert_eq!(r.task_records.len(), 33);
    assert!(!buffer.events.is_empty());
    // one decision journal entry and one metrics row per MAPE tick
    assert_eq!(buffer.decisions.len() as u64, r.mape_iterations);
    assert_eq!(buffer.ticks.len() as u64, r.mape_iterations);
    assert!(!buffer.quality.samples().is_empty());
    // recording must not perturb the simulation
    let plain = run_setting(WorkloadId::Tpch6S, Setting::Wire, Millis::from_mins(15), 1);
    assert_eq!(plain.makespan, r.makespan);
    assert_eq!(plain.charging_units, r.charging_units);
}
