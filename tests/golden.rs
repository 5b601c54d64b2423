//! Golden regression tests: exact cost/makespan values for fixed
//! (workload, setting, charging-unit, seed) combinations.
//!
//! These pin the *deterministic* behaviour of the whole stack — generators,
//! transfer model, scheduler, predictor, planner, billing. Any intentional
//! change to defaults or algorithm semantics will trip them; update the
//! constants deliberately (and note why in the commit) rather than loosening
//! the assertions.

use wire::core::experiment::{cloud_config, cloud_config_for, run_setting, Setting};
use wire::prelude::*;
use wire::simcloud::RunTrace;
use wire_chaos::{InvariantChecker, Tee};

const GOLDEN: &[(WorkloadId, Setting, u64, u64, u64, u64)] = &[
    // (workload, setting, u_mins, seed, expected units, expected makespan_ms)
    //
    // Values are pinned against the vendored deterministic RNG
    // (vendor/rand, splitmix64): the original seed constants came from a
    // different generator and were re-derived when the RNG was vendored
    // into the repo. They were derived — and verified to pass — against the
    // PRE-optimization controller (the commit that vendored the RNG), so
    // hot-path commits that claim to change zero decisions must land with
    // these constants untouched.
    (WorkloadId::Tpch6S, Setting::Wire, 15, 1, 1, 886_732),
    (WorkloadId::Tpch6S, Setting::FullSite, 15, 1, 12, 574_631),
    (WorkloadId::PageRankS, Setting::Wire, 1, 2, 21, 1_209_958),
    (
        WorkloadId::PageRankS,
        Setting::ReactiveConserving,
        30,
        2,
        1,
        1_209_958,
    ),
    (WorkloadId::EpigenomicsS, Setting::Wire, 15, 3, 4, 2_642_446),
    (WorkloadId::Tpch1S, Setting::PureReactive, 60, 4, 8, 876_997),
];

#[test]
fn golden_costs_and_makespans() {
    for &(w, s, u, seed, units, makespan_ms) in GOLDEN {
        let r = run_setting(w, s, Millis::from_mins(u), seed);
        assert_eq!(
            r.charging_units,
            units,
            "{} / {} / u={u} / seed={seed}: cost changed",
            w.name(),
            s.label()
        );
        assert_eq!(
            r.makespan.as_ms(),
            makespan_ms,
            "{} / {} / u={u} / seed={seed}: makespan changed",
            w.name(),
            s.label()
        );
    }
}

/// FNV-1a 64 over a byte stream; hand-rolled so the constant is stable
/// across std versions (DefaultHasher makes no such promise).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Pinned digests of the *entire observable output* of a WIRE run: the
/// event trace, the telemetry event stream, the MAPE decision journal, and
/// the billing/makespan summary. Any scratch-buffer or memoization change
/// to the hot path must keep these byte-identical — the optimizations are
/// required to change zero decisions.
const GOLDEN_DIGESTS: &[(WorkloadId, u64, u64)] = &[
    // (workload, seed, fnv1a of trace+events+journal+summary)
    (WorkloadId::Tpch6S, 1, 0xd9df99ba218ceefb),
    (WorkloadId::Tpch6S, 5, 0xaf4ad2e960b231ac),
    (WorkloadId::EpigenomicsS, 3, 0xb25b0846f3907545),
    (WorkloadId::EpigenomicsS, 7, 0x816705b257a73ec7),
];

fn wire_run_digest(workload: WorkloadId, seed: u64) -> u64 {
    let cfg = cloud_config_for(
        Setting::Wire,
        Millis::from_mins(15),
        workload.spec().total_input_bytes,
    );
    wire_run_digest_with(workload, seed, cfg).0
}

fn wire_run_digest_with(workload: WorkloadId, seed: u64, cfg: CloudConfig) -> (u64, RunResult) {
    // Digests flow through the Session builder: the N = 1 session path is
    // required to be bit-identical to the pre-session single-workflow engine.
    let (wf, prof) = workload.generate(seed);
    let handle = TelemetryHandle::new();
    // The invariant checker rides every golden run: recorders are
    // observational, so teeing it in cannot (and must not) move the digest.
    let checker =
        InvariantChecker::new(&cfg).expect_workflow(wf.num_tasks() as u32, wf.num_stages() as u32);
    let policy = WirePolicy::default().with_telemetry(handle.clone());
    let result = Session::new(cfg)
        .transfer(TransferModel::default())
        .policy(policy)
        .seed(seed)
        .recording(Tee(handle.clone(), checker.clone()))
        .submit(&wf, &prof)
        .run()
        .expect("run completes");
    let buffer = handle.take();
    checker.absorb_decisions(&buffer.decisions);
    checker.assert_clean();

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
    (fnv1a(blob.as_bytes()), result)
}

#[test]
fn golden_wire_trace_and_journal_digests() {
    for &(w, seed, expected) in GOLDEN_DIGESTS {
        let digest = wire_run_digest(w, seed);
        assert_eq!(
            digest,
            expected,
            "{} / seed={seed}: run trace, event stream or decision journal changed (digest {digest:#x})",
            w.name()
        );
    }
}

#[test]
fn explicit_legacy_family_row_is_byte_identical_to_the_empty_table() {
    // The differential spine of the heterogeneous-cloud change: spelling the
    // implicit legacy family out as an explicit one-row table (same slots,
    // unit speed, reference price, unlimited memory, no spot tier) must take
    // no new code path. The pinned digests cannot move by a byte, and the
    // bill must resolve to units × the reference price with zero evictions
    // and zero OOM restarts.
    for &(w, seed, expected) in GOLDEN_DIGESTS {
        let mut cfg = cloud_config_for(
            Setting::Wire,
            Millis::from_mins(15),
            w.spec().total_input_bytes,
        );
        cfg.families = vec![FamilySpec::legacy(cfg.slots_per_instance)];
        let (digest, result) = wire_run_digest_with(w, seed, cfg);
        assert_eq!(
            digest,
            expected,
            "{} / seed={seed}: an explicit legacy family row changed the run (digest {digest:#x})",
            w.name()
        );
        assert_eq!(
            result.cost_milli,
            result.charging_units * FamilySpec::LEGACY_PRICE_MILLI,
            "{} / seed={seed}: legacy pricing drifted",
            w.name()
        );
        assert_eq!(result.evictions, 0);
        assert_eq!(result.oom_restarts, 0);
    }
}

#[test]
fn unset_budget_leaves_golden_digests_byte_identical() {
    // The differential spine of the budget-steering change: a cloud with no
    // budget field set must take no new code path — no spend scan, no
    // budget-verdict events, no journal stamps. The pinned digests cannot
    // move by a byte.
    for &(w, seed, expected) in GOLDEN_DIGESTS {
        let cfg = cloud_config_for(
            Setting::Wire,
            Millis::from_mins(15),
            w.spec().total_input_bytes,
        );
        assert!(cfg.budget.is_none(), "default cloud grew a budget");
        let (digest, _) = wire_run_digest_with(w, seed, cfg);
        assert_eq!(
            digest,
            expected,
            "{} / seed={seed}: unconstrained run moved with the budget change (digest {digest:#x})",
            w.name()
        );
    }
}

#[test]
fn infinite_budget_equals_unconstrained_field_for_field() {
    // An explicit infinite ceiling (BudgetConfig::default) turns the ledger
    // on — spend is scanned, verdicts are emitted, decisions are stamped —
    // but the throttle must never bite: every run-level fact matches the
    // unconstrained run exactly. (The digest legitimately differs: the event
    // stream gains budget_verdict entries.)
    for &(w, seed, _) in GOLDEN_DIGESTS {
        let cfg = cloud_config_for(
            Setting::Wire,
            Millis::from_mins(15),
            w.spec().total_input_bytes,
        );
        let (_, base) = wire_run_digest_with(w, seed, cfg.clone());
        let (_, budgeted) = wire_run_digest_with(w, seed, cfg.with_budget(u64::MAX));
        let cell = format!("{} / seed={seed}", w.name());
        assert_eq!(base.charging_units, budgeted.charging_units, "{cell}");
        assert_eq!(base.makespan, budgeted.makespan, "{cell}");
        assert_eq!(base.cost_milli, budgeted.cost_milli, "{cell}");
        assert_eq!(base.restarts, budgeted.restarts, "{cell}");
        assert_eq!(
            base.instances_launched, budgeted.instances_launched,
            "{cell}"
        );
        assert_eq!(base.peak_instances, budgeted.peak_instances, "{cell}");
        assert_eq!(base.instance_time, budgeted.instance_time, "{cell}");
        assert_eq!(base.busy_slot_time, budgeted.busy_slot_time, "{cell}");
        assert_eq!(base.wasted_slot_time, budgeted.wasted_slot_time, "{cell}");
        assert_eq!(base.mape_iterations, budgeted.mape_iterations, "{cell}");
        assert_eq!(base.evictions, budgeted.evictions, "{cell}");
        assert_eq!(base.oom_restarts, budgeted.oom_restarts, "{cell}");
        assert_eq!(base.task_records, budgeted.task_records, "{cell}");
        assert_eq!(base.instance_bills, budgeted.instance_bills, "{cell}");
        assert_eq!(base.pool_timeline, budgeted.pool_timeline, "{cell}");
        assert_eq!(base.per_workflow, budgeted.per_workflow, "{cell}");
    }
}

#[test]
fn golden_wire_beats_full_site_in_the_pinned_cell() {
    // derived sanity on the pinned values: 12× cost gap on TPCH-6 S at u=15
    let wire = GOLDEN[0];
    let full = GOLDEN[1];
    assert_eq!(full.4 / wire.4, 12);
}

/// `fnv1a` of the rendered run trace of the churning session below, pinned
/// when the engine still pushed trace rows through a channel of its own. The
/// trace projected from the telemetry stream must land on the same bytes.
const MIXED_SESSION_TRACE_DIGEST: u64 = 0x71c9874137815d42;

/// The four golden runs never stagger workflows, evict spot instances,
/// OOM-kill tasks, drain instances or crash them; this session does all of
/// that, so every projection rule of `RunTrace::from_events` is pinned.
#[test]
fn mixed_session_trace_digest() {
    let (epi, epi_prof) = WorkloadId::EpigenomicsS.generate(1);
    let (tpch, tpch_prof) = WorkloadId::Tpch6S.generate(2);
    let mem = MemoryProfile::uniform(epi.num_tasks() + tpch.num_tasks(), 200, 700).unwrap();
    // a 70 s tick off the 1-minute charging grid leaves room to drain
    let mut cfg = cloud_config(Setting::Wire, Millis::from_mins(1)).failures(Millis::from_mins(60));
    cfg.mape_interval = Millis::from_secs(70);
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
    let handle = TelemetryHandle::new();
    Session::new(cfg)
        .transfer(TransferModel::default())
        .policy(WirePolicy::new(steering))
        .seed(3)
        .memory(mem)
        .recording(handle.clone())
        .submit(&epi, &epi_prof)
        .submit_at(Millis::from_mins(10), &tpch, &tpch_prof)
        .run()
        .expect("run completes despite the churn");
    let rendered = RunTrace::from_events(&handle.take().events).render();
    for row in [
        "WorkflowSubmitted",
        "WorkflowCompleted",
        "SpotEvicted",
        "TaskOom",
        "InstanceDraining",
        "InstanceFailed",
    ] {
        assert!(rendered.contains(row), "no {row} row in the trace");
    }
    let digest = fnv1a(rendered.as_bytes());
    assert_eq!(
        digest, MIXED_SESSION_TRACE_DIGEST,
        "projected trace moved (digest {digest:#x})"
    );
}
