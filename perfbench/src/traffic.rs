//! `traffic`: 100 tenants × 1 000 Poisson workflow arrivals of one 8-task
//! stage each, WIRE plus the streaming recorder on every tenant pool. Live
//! windows are tiny and ticks are cheap (a few µs), so this workload shows
//! per-event and per-tick fixed costs.
//!
//! Untraced runs call `wire_campaign::run_traffic` on one thread. The traced
//! run rebuilds each tenant session from the same public pieces, with the
//! layer wrappers in place, and folds the same digest; the two digests must
//! agree.

use std::time::Instant;

use wire_campaign::{run_traffic, TrafficSpec};
use wire_obs::{ObsSnapshot, StreamingRecorder};
use wire_planner::WirePolicy;
use wire_simcloud::{Engine, Session, TransferModel};

use crate::trace::{Layers, TimedPolicy, TimedRecorder, TimedScheduler};
use crate::{
    layer_metrics, median, median_layers, metric, peak_rss_mb, Args, Budget, CacheRep, Fnv,
    Outcome, TracedRep,
};

const TOTAL_ARRIVALS: usize = 100_000;
/// `run_traffic`'s digest for the default spec at seed 7.
const SEED7_DIGEST: u64 = 0x5af1_d564_9938_e3c6;
/// Tenant `t`'s session seed is `seed ^ t × TENANT_SALT` in `run_traffic`.
const TENANT_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const SETUP_REPS: usize = 15;

fn spec(seed: u64) -> TrafficSpec {
    TrafficSpec {
        seed,
        ..TrafficSpec::with_total(TOTAL_ARRIVALS)
    }
}

fn tenant_seed(spec: &TrafficSpec, tenant: usize) -> u64 {
    spec.seed ^ (tenant as u64).wrapping_mul(TENANT_SALT)
}

/// The deterministic result of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    digest: u64,
    completed: u64,
    units: u64,
    makespan_ms: u64,
}

/// Input generation up to the first simulated event: the workflow template,
/// every tenant's arrival stream, and every tenant engine, built and dropped
/// unrun.
fn setup(spec: &TrafficSpec) -> f64 {
    let t0 = Instant::now();
    let (wf, prof) = spec.template();
    for t in 0..spec.tenants {
        let obs = StreamingRecorder::new();
        let mut session = Session::new(spec.config())
            .transfer(TransferModel::none())
            .policy(WirePolicy::default().with_obs(obs.clone()))
            .seed(tenant_seed(spec, t))
            .naive_core(false);
        for at in spec.arrival_times(t) {
            session = session.submit_at(at, &wf, &prof);
        }
        let engine = session
            .recording(obs)
            .build()
            .expect("tenant engine builds");
        std::hint::black_box(&engine);
    }
    t0.elapsed().as_secs_f64()
}

fn untraced(spec: &TrafficSpec) -> (f64, Summary) {
    let t0 = Instant::now();
    let r = run_traffic(spec, Some(1));
    let wall = t0.elapsed().as_secs_f64();
    let summary = Summary {
        digest: r.digest,
        completed: r.completed_workflows,
        units: r.charging_units,
        makespan_ms: r.per_tenant.iter().map(|o| o.makespan.as_ms()).sum(),
    };
    (wall, summary)
}

/// One traced run: every tenant through the layer wrappers, folded into the
/// same digest `run_traffic` computes.
fn traced<'l>(spec: &TrafficSpec, layers: &'l Layers) -> (TracedRep<'l>, Summary) {
    let t0 = Instant::now();
    let (wf, prof) = layers.generate.time(|| spec.template());
    let mut merged = ObsSnapshot::default();
    let mut h = Fnv::default();
    let mut s = Summary {
        digest: 0,
        completed: 0,
        units: 0,
        makespan_ms: 0,
    };
    let (mut events, mut memo) = (0u64, (0u64, 0u64));
    for t in 0..spec.tenants {
        let times = layers.generate.time(|| spec.arrival_times(t));
        let obs = StreamingRecorder::new();
        let mut policy = WirePolicy::default().with_obs(obs.clone());
        let cfg = spec.config();
        let sched_cfg = cfg.clone();
        let mut engine = Engine::from_submissions_with(
            times.into_iter().map(|at| (at, &wf, &prof)).collect(),
            cfg,
            TransferModel::none(),
            TimedPolicy::new(&mut policy, layers),
            tenant_seed(spec, t),
            TimedRecorder::new(obs.clone(), &layers.obs),
            |n, st| {
                TimedScheduler::new(
                    sched_cfg.scheduler.build(n, st, &sched_cfg),
                    &layers.scheduler,
                )
            },
        )
        .expect("tenant engine builds");
        engine.naive_core(false);
        let res = engine.run().expect("tenant session completes");
        let (hits, lookups) = policy.memo_stats();
        memo = (memo.0 + hits, memo.1 + lookups);
        let tenant_events = obs.health().events_total;
        let snapshot = obs.snapshot();
        layers.merge.time(|| merged.merge(&snapshot));
        let completed = res.per_workflow.len() as u64;
        for v in [
            t as u64,
            completed,
            res.charging_units,
            res.makespan.as_ms(),
            res.restarts as u64,
            res.mape_iterations,
            tenant_events,
        ] {
            h.u64(v);
        }
        s.completed += completed;
        s.units += res.charging_units;
        s.makespan_ms += res.makespan.as_ms();
        events += tenant_events;
    }
    h.bytes(merged.to_json_string().as_bytes());
    s.digest = h.0;
    let rep = TracedRep {
        layers,
        wall: t0.elapsed().as_secs_f64(),
        other_inside: layers.generate.secs() + layers.merge.secs(),
        events,
        memo,
    };
    (rep, s)
}

fn check(out: &mut Outcome, spec: &TrafficSpec, s: &Summary, first: Option<&Summary>) {
    let total = spec.total_arrivals() as u64;
    out.attempted += total;
    out.failed += total.saturating_sub(s.completed);
    out.check(s.completed == total, || {
        format!("traffic: {} of {total} arrivals completed", s.completed)
    });
    if spec.seed == 7 {
        out.check(s.digest == SEED7_DIGEST, || {
            format!(
                "traffic: digest {:016x}, expected {SEED7_DIGEST:016x}",
                s.digest
            )
        });
    }
    if let Some(f) = first {
        out.check(s == f, || format!("traffic: run moved from {f:?} to {s:?}"));
    }
}

pub fn run(args: &Args) -> Outcome {
    let spec = spec(args.seed);
    let mut out = Outcome::default();
    let mut first: Option<Summary> = None;
    if args.trace {
        let budget = Budget::new(args.seconds, 2);
        let (mut plain, mut timed, mut reps) = (vec![], vec![], vec![]);
        while budget.more(plain.len()) {
            let (wall, s) = untraced(&spec);
            check(&mut out, &spec, &s, first.as_ref());
            first.get_or_insert(s);
            plain.push(wall);
            let layers = Layers::default();
            let (rep, s) = traced(&spec, &layers);
            check(&mut out, &spec, &s, first.as_ref());
            timed.push(rep.wall);
            reps.push(layer_metrics(&rep, CacheRep::default(), &mut out));
        }
        out.metrics = median_layers(reps, &timed, &plain);
        return out;
    }
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup(&spec)).collect();
    let budget = Budget::new(args.seconds, 3);
    let mut walls = vec![];
    while budget.more(walls.len()) {
        let (wall, s) = untraced(&spec);
        check(&mut out, &spec, &s, first.as_ref());
        first.get_or_insert(s);
        walls.push(wall);
    }
    let s = first.expect("at least one run");
    out.metrics = vec![
        metric("setup_s", "s", median(&setups)),
        metric("wall_s", "s", median(&walls)),
        metric("peak_rss_mb", "MiB", peak_rss_mb()),
        metric("sim_cost_units", "units", s.units as f64),
        metric("sim_makespan_s", "s", s.makespan_ms as f64 / 1e3),
    ];
    out.notes = vec![metric(
        "failed_frac",
        "frac",
        out.failed as f64 / out.attempted as f64,
    )];
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing is observational: the traced rebuild of every tenant folds
    /// the digest `run_traffic` reports, and its layer clocks fit inside its
    /// wall time.
    #[test]
    fn traced_run_matches_run_traffic() {
        let spec = TrafficSpec {
            tenants: 3,
            per_tenant: 40,
            ticks_per_tenant: 40 * 2_000 / 150,
            seed: 3,
            ..TrafficSpec::with_total(0)
        };
        let (_, plain) = untraced(&spec);
        let layers = Layers::default();
        let (rep, traced) = traced(&spec, &layers);
        assert_eq!(plain, traced);
        assert_eq!(plain.completed, spec.total_arrivals() as u64);
        let mut out = Outcome::default();
        layer_metrics(&rep, CacheRep::default(), &mut out);
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert!(layers.planner.calls() > 0 && layers.scheduler.calls() > 0);
        assert_eq!(layers.merge.calls(), spec.tenants as u64);
    }
}
