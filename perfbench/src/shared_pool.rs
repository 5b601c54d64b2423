//! `shared_pool`: a thousand Table-I workflows (a round-robin mix of
//! Epigenomics, PageRank and TPC-H 1, S and L) arriving as a Poisson stream
//! with a 60 s mean gap at **one** ExoGENI pool (u = 15 min, site capacity
//! raised to 400), WIRE plus the streaming recorder. Ready queues are deep
//! and every MAPE tick plans over about a hundred thousand live tasks, so
//! this workload shows per-task planner cost: the mirror image of `traffic`.
//!
//! A repetition runs three such pools, each with its own arrival draw, one
//! after another. Set-up (generating a pool's DAGs and building its engine)
//! is timed apart from the runs, which are timed from the first simulated
//! event to the result.

use std::cell::RefCell;
use std::time::Instant;

use wire_chaos::Tee;
use wire_dag::Millis;
use wire_obs::StreamingRecorder;
use wire_planner::WirePolicy;
use wire_simcloud::{CloudConfig, Engine, RunResult, Session, TransferModel};
use wire_workloads::{ArrivalProcess, EnsembleMember, EnsembleSpec, WorkloadId};

use crate::trace::{Layers, TickLog, TimedPolicy, TimedRecorder, TimedScheduler};
use crate::{
    layer_metrics, median, median_layers, metric, peak_rss_mb, percentile, Args, Budget, CacheRep,
    Fnv, Outcome, TracedRep,
};

const WORKFLOWS: u64 = 1_000;
const MIX: [WorkloadId; 6] = [
    WorkloadId::EpigenomicsS,
    WorkloadId::EpigenomicsL,
    WorkloadId::PageRankS,
    WorkloadId::PageRankL,
    WorkloadId::Tpch1S,
    WorkloadId::Tpch1L,
];
const SITE_CAPACITY: u32 = 400;
/// Pools per repetition, each with its own arrival draw. How much the
/// planner works on one pool hinges on how its long Epigenomics L workflows
/// overlap: two seeds measured 31.7 M and 43.5 M live-task visits. Three
/// pools per repetition keep a run's total from hinging on one draw.
const POOLS: u64 = 3;
/// Combined hash of the three pools' `Summary::hash` at seed 7.
const SEED7_HASH: u64 = 0xb604_de9e_2c1d_1a2f;

fn ensemble() -> EnsembleSpec {
    let mix = (0..WORKFLOWS as usize).map(|i| MIX[i % MIX.len()]);
    EnsembleSpec::new(
        mix.collect(),
        ArrivalProcess::Poisson {
            mean_gap: Millis::from_secs(60),
        },
    )
}

/// Pool `k`'s ensemble seed; distinct benchmark seeds share no pool.
fn pool_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(POOLS).wrapping_add(k)
}

fn config() -> CloudConfig {
    CloudConfig {
        site_capacity: SITE_CAPACITY,
        ..CloudConfig::exogeni(Millis::from_mins(15))
    }
}

/// The deterministic result of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    hash: u64,
    completed: u64,
    units: u64,
    makespan_ms: u64,
}

/// Hash of the run's summary fields, its per-workflow outcomes and the
/// streaming recorder's snapshot.
fn summarize(res: &RunResult, obs: &StreamingRecorder) -> Summary {
    let mut h = Fnv::default();
    for v in [
        res.charging_units,
        res.cost_milli,
        res.makespan.as_ms(),
        res.instance_time.as_ms(),
        res.peak_instances as u64,
        res.instances_launched as u64,
        res.busy_slot_time.as_ms(),
        res.wasted_slot_time.as_ms(),
        res.restarts as u64,
        res.failures as u64,
        res.evictions as u64,
        res.mape_iterations,
    ] {
        h.u64(v);
    }
    for w in &res.per_workflow {
        h.u64(w.id.0 as u64);
        h.u64(w.finished_at.as_ms());
    }
    h.bytes(obs.snapshot().to_json_string().as_bytes());
    Summary {
        hash: h.0,
        completed: res.per_workflow.len() as u64,
        units: res.charging_units,
        makespan_ms: res.makespan.as_ms(),
    }
}

/// Input generation up to the first simulated event: every DAG of the
/// ensemble and the engine, built and dropped unrun.
fn setup(seed: u64) -> (f64, Vec<EnsembleMember>) {
    let t0 = Instant::now();
    let members = ensemble().generate(seed);
    let engine = session(&members, seed, StreamingRecorder::new())
        .build()
        .expect("engine builds");
    std::hint::black_box(&engine);
    drop(engine);
    (t0.elapsed().as_secs_f64(), members)
}

fn session(
    members: &[EnsembleMember],
    seed: u64,
    obs: StreamingRecorder,
) -> Session<'_, WirePolicy, StreamingRecorder> {
    let mut s = Session::new(config())
        .transfer(TransferModel::default())
        .policy(WirePolicy::default().with_obs(obs.clone()))
        .seed(seed)
        .recording(obs);
    for m in members {
        s = s.submit_at(m.submit_at, &m.workflow, &m.profile);
    }
    s
}

/// One untraced run: wall time, summary and the engine's per-tick controller
/// times (µs).
fn untraced(members: &[EnsembleMember], seed: u64) -> (f64, Summary, Vec<u64>) {
    let obs = StreamingRecorder::new();
    let ticks = RefCell::new(Vec::new());
    let engine = session(members, seed, obs.clone())
        .recording(Tee(obs.clone(), TickLog(&ticks)))
        .build()
        .expect("engine builds");
    let t0 = Instant::now();
    let res = engine.run().expect("shared pool completes");
    let wall = t0.elapsed().as_secs_f64();
    (wall, summarize(&res, &obs), ticks.into_inner())
}

fn traced<'l>(
    members: &[EnsembleMember],
    seed: u64,
    layers: &'l Layers,
) -> (TracedRep<'l>, Summary) {
    let obs = StreamingRecorder::new();
    let mut policy = WirePolicy::default().with_obs(obs.clone());
    let cfg = config();
    let sched_cfg = cfg.clone();
    let engine = Engine::from_submissions_with(
        members
            .iter()
            .map(|m| (m.submit_at, &m.workflow, &m.profile))
            .collect(),
        cfg,
        TransferModel::default(),
        TimedPolicy::new(&mut policy, layers),
        seed,
        TimedRecorder::new(obs.clone(), &layers.obs),
        |n, st| {
            TimedScheduler::new(
                sched_cfg.scheduler.build(n, st, &sched_cfg),
                &layers.scheduler,
            )
        },
    )
    .expect("engine builds");
    let t0 = Instant::now();
    let res = engine.run().expect("shared pool completes");
    let wall = t0.elapsed().as_secs_f64();
    let rep = TracedRep {
        layers,
        wall,
        other_inside: 0.0,
        events: obs.health().events_total,
        memo: policy.memo_stats(),
    };
    (rep, summarize(&res, &obs))
}

fn check(out: &mut Outcome, s: &Summary, workflows: u64, first: Option<&Summary>) {
    out.attempted += workflows;
    out.failed += workflows.saturating_sub(s.completed);
    out.check(s.completed == workflows, || {
        format!(
            "shared_pool: {} of {workflows} workflows completed",
            s.completed
        )
    });
    if let Some(f) = first {
        out.check(s == f, || {
            format!("shared_pool: run moved from {f:?} to {s:?}")
        });
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut first: Option<Summary> = None;
    if args.trace {
        // the per-layer numbers come from the run's first pool alone
        let seed = pool_seed(args.seed, 0);
        let (_, members) = setup(seed);
        let budget = Budget::new(args.seconds, 2);
        let (mut plain, mut timed, mut reps) = (vec![], vec![], vec![]);
        while budget.more(plain.len()) {
            let (wall, s, _) = untraced(&members, seed);
            check(&mut out, &s, WORKFLOWS, first.as_ref());
            first.get_or_insert(s);
            plain.push(wall);
            let layers = Layers::default();
            // set-up generation is not inside the traced wall; it is
            // reported beside it
            let generated = layers.generate.time(|| ensemble().generate(seed));
            std::hint::black_box(generated);
            let (rep, s) = traced(&members, seed, &layers);
            check(&mut out, &s, WORKFLOWS, first.as_ref());
            timed.push(rep.wall);
            reps.push(layer_metrics(&rep, CacheRep::default(), &mut out));
        }
        out.metrics = median_layers(reps, &timed, &plain);
        return out;
    }
    let budget = Budget::new(args.seconds, 2);
    let (mut setups, mut walls, mut ticks_us) = (vec![], vec![], vec![]);
    while budget.more(walls.len()) {
        let mut h = Fnv::default();
        let mut total = Summary {
            hash: 0,
            completed: 0,
            units: 0,
            makespan_ms: 0,
        };
        let mut wall = 0.0;
        for k in 0..POOLS {
            let seed = pool_seed(args.seed, k);
            let (secs, members) = setup(seed);
            setups.push(secs);
            let (w, s, ticks) = untraced(&members, seed);
            wall += w;
            h.u64(s.hash);
            total.completed += s.completed;
            total.units += s.units;
            total.makespan_ms += s.makespan_ms;
            ticks_us.extend(ticks.into_iter().map(|us| us as f64));
        }
        total.hash = h.0;
        check(&mut out, &total, WORKFLOWS * POOLS, first.as_ref());
        if args.seed == 7 {
            out.check(total.hash == SEED7_HASH, || {
                format!(
                    "shared_pool: hash {:016x}, expected {SEED7_HASH:016x}",
                    total.hash
                )
            });
        }
        first.get_or_insert(total);
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
    out.notes = vec![
        metric("plan_p50_us", "us", percentile(&ticks_us, 0.50)),
        metric("plan_p95_us", "us", percentile(&ticks_us, 0.95)),
        metric("plan_ticks", "count", ticks_us.len() as f64),
        metric(
            "failed_frac",
            "frac",
            out.failed as f64 / out.attempted as f64,
        ),
    ];
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing is observational: the wrapped engine hashes to the same
    /// summary as the plain session, and its layer clocks fit inside its
    /// wall time.
    #[test]
    fn traced_run_matches_plain_session() {
        let seed = 11;
        let members = EnsembleSpec::new(
            vec![
                WorkloadId::PageRankS,
                WorkloadId::Tpch1S,
                WorkloadId::EpigenomicsS,
            ],
            ArrivalProcess::Poisson {
                mean_gap: Millis::from_secs(60),
            },
        )
        .generate(seed);
        let (_, plain, ticks) = untraced(&members, seed);
        assert!(!ticks.is_empty());
        let layers = Layers::default();
        let (rep, traced) = traced(&members, seed, &layers);
        assert_eq!(plain, traced);
        assert_eq!(plain.completed, members.len() as u64);
        let mut out = Outcome::default();
        layer_metrics(&rep, CacheRep::default(), &mut out);
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!(layers.planner.calls() as usize, ticks.len());
    }
}
