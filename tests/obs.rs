//! Streaming-observability contract tests.
//!
//! * composition: a [`StreamingRecorder`] teed into a golden WIRE run (next
//!   to the telemetry handle and the chaos invariant checker) must leave
//!   the pinned run digest untouched — observability observes, never
//!   perturbs;
//! * fidelity: the streaming aggregates must agree exactly with the full
//!   in-memory telemetry buffer recorded on the same run;
//! * determinism: the campaign-wide `OBS_snapshot` bytes must be identical
//!   at 1 and 8 worker threads, and identical between cold- and warm-cache
//!   runs (cache-served cells rehydrate their snapshots from disk);
//! * dedupe: the planner's skipping of unchanged predictions must leave the
//!   snapshot bytes of a churning (spot-evicting, OOM-restarting) session
//!   where they were when every prediction was re-sent.

use std::path::PathBuf;

use wire::core::experiment::{cloud_config, cloud_config_for, Setting};
use wire::prelude::*;
use wire::simcloud::RunTrace;
use wire_campaign::{run_campaign, CacheMode, CampaignConfig, Cell};
use wire_chaos::{InvariantChecker, Tee};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Pinned in tests/golden.rs for (TPCH-6 S, seed 1) WITHOUT the streaming
/// recorder attached; copied verbatim — if this constant moves there, move
/// it here too. The test below re-derives the digest with the streaming
/// recorder teed in and must land on the same value.
const TPCH6_SEED1_DIGEST: u64 = 0xd9df99ba218ceefb;

/// Satellite: the streaming recorder rides through the chaos
/// `InvariantChecker` via the existing `Tee` combinator without moving a
/// pinned golden digest, and its aggregates match the full buffer.
#[test]
fn streaming_recorder_composes_without_perturbing_golden_digest() {
    let workload = WorkloadId::Tpch6S;
    let seed = 1;
    let (wf, prof) = workload.generate(seed);
    let cfg = cloud_config_for(
        Setting::Wire,
        Millis::from_mins(15),
        workload.spec().total_input_bytes,
    );
    let handle = TelemetryHandle::new();
    let checker =
        InvariantChecker::new(&cfg).expect_workflow(wf.num_tasks() as u32, wf.num_stages() as u32);
    let obs = StreamingRecorder::new();
    let policy = WirePolicy::default()
        .with_telemetry(handle.clone())
        .with_obs(obs.clone());
    let result = Session::new(cfg)
        .transfer(TransferModel::default())
        .policy(policy)
        .seed(seed)
        .recording(Tee(handle.clone(), Tee(checker.clone(), obs.clone())))
        .submit(&wf, &prof)
        .run()
        .expect("run completes");
    let buffer = handle.take();
    checker.absorb_decisions(&buffer.decisions);
    checker.assert_clean();

    // same blob layout as tests/golden.rs::wire_run_digest
    let mut blob = RunTrace::from_events(&buffer.events).render();
    blob.push_str(&events_to_jsonl(&buffer));
    blob.push_str(&decisions_to_jsonl(&buffer));
    blob.push_str(&format!(
        "units={} makespan={} restarts={} launched={}\n",
        result.charging_units,
        result.makespan.as_ms(),
        result.restarts,
        result.instances_launched
    ));
    assert_eq!(
        fnv1a(blob.as_bytes()),
        TPCH6_SEED1_DIGEST,
        "teeing the streaming recorder into a golden run moved the digest"
    );

    // fidelity: streaming counters agree exactly with the full buffer
    let snap = obs.snapshot();
    for kind in ["task_completed", "mape_tick", "instance_terminated"] {
        let buffered = buffer
            .events
            .iter()
            .filter(|(_, ev)| ev.kind() == kind)
            .count() as u64;
        assert_eq!(snap.counter(kind), buffered, "counter {kind} diverges");
    }
    let execs = &snap.sketches["task_exec_ms"];
    assert_eq!(execs.count, wf.num_tasks() as u64);
    // memoization counters flowed through the planner side-channel
    assert!(snap.health.memo_lookups > 0, "no memo lookups observed");
    assert!(
        snap.health.predictor_observations > 0,
        "no predictor intake observed"
    );
}

/// Ensembles populate the per-tenant and lifecycle aggregates.
#[test]
fn ensemble_populates_tenant_and_slowdown_aggregates() {
    let spec = EnsembleSpec::uniform(
        WorkloadId::Tpch6S,
        4,
        ArrivalProcess::Batch {
            gap: Millis::from_mins(8),
        },
    );
    let rec = StreamingRecorder::new();
    let members = spec.generate(7);
    let mut session = Session::new(cloud_config(Setting::Wire, Millis::from_mins(15)))
        .transfer(TransferModel::default())
        .policy(WirePolicy::default().with_obs(rec.clone()))
        .seed(7)
        .recording(rec.clone());
    for m in &members {
        session = session.submit_at(m.submit_at, &m.workflow, &m.profile);
    }
    let result = session.run().expect("ensemble completes");
    rec.note_session(result.makespan.as_ms(), result.charging_units);
    assert_eq!(result.per_workflow.len(), 4);
    let snap = rec.snapshot();
    assert_eq!(snap.counter("workflow_submitted"), 4);
    assert_eq!(snap.counter("workflow_completed"), 4);
    let completed: u64 = snap.tenants.iter().map(|t| t.completed).sum();
    assert_eq!(completed, 4);
    let slow = &snap.sketches["workflow_slowdown_milli"];
    assert_eq!(slow.count, 4);
    // a shared-pool run can never beat the single-tenant lower bound
    assert!(slow.min >= 1000.0, "slowdown below 1.0x: {}", slow.min);
    // bounded-memory accounting is monotone and live
    assert!(rec.state_bytes() <= rec.peak_state_bytes());
    assert!(rec.health().events_total > 0);
}

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wire-obs-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn snapshot_cells() -> Vec<Cell> {
    let mut cells = vec![
        Cell::grid(WorkloadId::Tpch6S, Setting::Wire, Millis::from_mins(15), 1),
        Cell::grid(
            WorkloadId::Tpch6S,
            Setting::FullSite,
            Millis::from_mins(15),
            1,
        ),
        Cell::grid(
            WorkloadId::PageRankS,
            Setting::ReactiveConserving,
            Millis::from_mins(30),
            2,
        ),
    ];
    let u = Millis::from_secs(60);
    for n in [10, 50] {
        cells.push(Cell::linear(n, u.scale(4.0), u));
    }
    cells
}

/// Satellite: the exported snapshot is byte-identical across thread counts
/// and across cold/warm cache state.
#[test]
fn obs_snapshot_bytes_are_thread_count_and_cache_invariant() {
    let cells = snapshot_cells();

    let uncached = |threads: usize| CampaignConfig {
        threads: Some(threads),
        mode: CacheMode::Off,
        ..Default::default()
    };
    let one = run_campaign(&cells, &uncached(1));
    let eight = run_campaign(&cells, &uncached(8));
    let bytes_one = one.obs.to_json_string();
    assert_eq!(
        bytes_one,
        eight.obs.to_json_string(),
        "OBS snapshot differs between 1 and 8 worker threads"
    );

    let dir = temp_cache("snapshot");
    let cached = CampaignConfig {
        threads: Some(4),
        cache_dir: Some(dir.clone()),
        ..Default::default()
    };
    let cold = run_campaign(&cells, &cached);
    let warm = run_campaign(&cells, &cached);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(cold.executed, cells.len());
    assert_eq!(
        warm.executed, 0,
        "warm run must serve everything from cache"
    );
    assert_eq!(
        cold.obs.to_json_string(),
        warm.obs.to_json_string(),
        "OBS snapshot differs between cold and warm cache"
    );
    assert_eq!(
        bytes_one,
        cold.obs.to_json_string(),
        "OBS snapshot differs between uncached and cached campaigns"
    );

    // and the bytes round-trip through the parser losslessly
    let parsed = wire::obs::ObsSnapshot::from_json_str(&bytes_one).expect("snapshot parses");
    assert_eq!(parsed.to_json_string(), bytes_one);
}

/// `fnv1a` of the `ObsSnapshot` JSON of the session below, recorded before
/// the planner stopped re-sending unchanged predictions to the sink.
const CHURN_OBS_DIGEST: u64 = 0xf5f976c07f0d20fc;

/// The planner sends a prediction to the sink only when it differs from the
/// last one sent for that task. On a two-workflow session with spot
/// evictions and OOM restarts (resubmitted tasks are predicted again while
/// their old estimate is still pending), the snapshot bytes must not move.
#[test]
fn prediction_dedupe_keeps_obs_snapshot_bytes_under_churn() {
    let (epi, epi_prof) = WorkloadId::EpigenomicsS.generate(1);
    let (tpch, tpch_prof) = WorkloadId::Tpch6S.generate(2);
    let mem = MemoryProfile::uniform(epi.num_tasks() + tpch.num_tasks(), 200, 700).unwrap();
    let mut cfg = cloud_config(Setting::Wire, Millis::from_mins(1));
    let slots = cfg.slots_per_instance;
    cfg.families = vec![
        FamilySpec::new("od", slots, 1000),
        FamilySpec::new("spot", slots, 1000)
            .spot(Millis::from_mins(20), 400)
            .memory_mb(800),
    ];
    let steering = SteeringConfig {
        spot_on_demand_floor: Some(0.0),
        memory_blind_families: true,
        ..SteeringConfig::default()
    };
    let obs = StreamingRecorder::new();
    let result = Session::new(cfg)
        .transfer(TransferModel::default())
        .policy(WirePolicy::new(steering).with_obs(obs.clone()))
        .seed(3)
        .memory(mem)
        .recording(obs.clone())
        .submit(&epi, &epi_prof)
        .submit_at(Millis::from_mins(10), &tpch, &tpch_prof)
        .run()
        .expect("run completes despite the churn");
    assert!(result.evictions > 0, "no spot evictions");
    assert!(result.oom_restarts > 0, "no OOM restarts");
    assert_eq!(
        result.task_records.len(),
        epi.num_tasks() + tpch.num_tasks()
    );
    let json = obs.snapshot().to_json_string();
    assert_eq!(
        fnv1a(json.as_bytes()),
        CHURN_OBS_DIGEST,
        "obs snapshot moved: {json}"
    );
}
