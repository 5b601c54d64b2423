//! `campaign`: the Table-I paper grid (8 workloads × 4 policies × 4 charging
//! units × 10 repetitions = 1 280 cells) with the invariant checker on, run
//! **cold** (`execute` + `cache::store`) into an empty scratch cache and then
//! **warm** (`cache::load`) from it. The only workload that uses the campaign
//! cache and the chaos checker, and the one made of many short sessions,
//! most of them baseline policies whose planner is light.
//!
//! The scratch cache lives under `.perfbench_scratch/` in the working
//! directory and is created and deleted outside the timed region.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use wire_campaign::cache::{entry_path, load, store};
use wire_campaign::{cache_key, execute, grid_cells, Cell, CellOutput, PolicyKind};
use wire_chaos::{InvariantChecker, Tee};
use wire_core::experiment::{build_policy, ExperimentGrid};
use wire_dag::{ExecProfile, Millis, Workflow};
use wire_obs::{ObsSnapshot, StreamingRecorder};
use wire_planner::WirePolicy;
use wire_simcloud::{Engine, RunResult, ScalingPolicy};
use wire_telemetry::Recorder;
use wire_workloads::WorkloadId;

use crate::trace::{Clock, Layers, TimedPolicy, TimedRecorder, TimedScheduler};
use crate::{
    layer_metrics, median, median_layers, metric, peak_rss_mb, Args, Budget, CacheRep, Outcome,
    TracedRep,
};

const REPETITIONS: usize = 10;
const SETUP_REPS: usize = 15;
const SCRATCH: &str = ".perfbench_scratch";

/// The paper grid; benchmark seed `n` draws repetition seeds
/// `1000n .. 1000n + 10`, so distinct benchmark seeds share no cell.
fn grid(seed: u64) -> ExperimentGrid {
    ExperimentGrid {
        base_seed: seed.wrapping_mul(1_000),
        ..ExperimentGrid::paper(WorkloadId::ALL.to_vec(), REPETITIONS)
    }
}

/// Input generation: the grid's cells, their cache keys, and each distinct
/// (workload, seed) input DAG, generated once.
fn setup(seed: u64) -> (f64, Vec<Cell>, Vec<u64>) {
    let t0 = Instant::now();
    let grid = grid(seed);
    let cells = grid_cells(&grid);
    let keys: Vec<u64> = cells.iter().map(cache_key).collect();
    // cells run repetition-innermost, so the first `REPETITIONS` cells of
    // each workload's block are its distinct inputs
    let block = grid.settings.len() * grid.charging_units.len() * REPETITIONS;
    for c in cells.chunks(block).flat_map(|b| &b[..REPETITIONS]) {
        std::hint::black_box(c.workload.generate(c.seed));
    }
    (t0.elapsed().as_secs_f64(), cells, keys)
}

/// Layer clocks around the campaign entry points, for a traced cycle.
#[derive(Default)]
struct CycleClocks {
    execute: Clock,
    store: Clock,
    load: Clock,
}

fn timed<T>(clock: Option<&Clock>, f: impl FnOnce() -> T) -> T {
    match clock {
        Some(c) => c.time(f),
        None => f(),
    }
}

/// What one cold + warm cycle measured and produced.
struct Cycle {
    cold_s: f64,
    warm_s: f64,
    cold: Vec<CellOutput>,
    units: u64,
    makespan_ms: u64,
    store_bytes: u64,
    warm_hits: u64,
}

/// Cold: execute every cell with the checker on and store it. Warm: load
/// every cell back. Both fold the cells' snapshots as a campaign does.
/// Output checks land in `out`.
fn cycle(
    cells: &[Cell],
    keys: &[u64],
    dir: &Path,
    clocks: Option<(&CycleClocks, &Clock)>,
    out: &mut Outcome,
) -> Cycle {
    let (cc, merge) = (clocks.map(|c| c.0), clocks.map(|c| c.1));
    fs::create_dir_all(dir).expect("scratch cache directory");
    let mut cold = Vec::with_capacity(cells.len());
    let mut bad = vec![false; cells.len()];
    let mut cold_obs = ObsSnapshot::default();
    let t0 = Instant::now();
    for (i, (cell, &key)) in cells.iter().zip(keys).enumerate() {
        let (o, violations) = timed(cc.map(|c| &c.execute), || execute(cell, true));
        if let Err(e) = timed(cc.map(|c| &c.store), || store(dir, key, &o)) {
            out.problems
                .push(format!("campaign: store {}: {e}", cell.label()));
            bad[i] = true;
        }
        timed(merge, || cold_obs.merge(&o.obs));
        if !violations.is_empty() {
            out.problems.push(format!(
                "campaign: {}: {}",
                cell.label(),
                violations.join("; ")
            ));
            bad[i] = true;
        }
        cold.push(o);
    }
    let cold_s = t0.elapsed().as_secs_f64();
    let mut warm = Vec::with_capacity(cells.len());
    let mut warm_obs = ObsSnapshot::default();
    let t1 = Instant::now();
    for &key in keys {
        let o = timed(cc.map(|c| &c.load), || load(dir, key)).ok();
        if let Some(o) = &o {
            timed(merge, || warm_obs.merge(&o.obs));
        }
        warm.push(o);
    }
    let warm_s = t1.elapsed().as_secs_f64();
    let store_bytes = keys
        .iter()
        .filter_map(|&k| fs::metadata(entry_path(dir, k)).ok())
        .map(|m| m.len())
        .sum();
    fs::remove_dir_all(dir).expect("remove scratch cache");

    let mut warm_hits = 0;
    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        match w {
            Some(w) if w == c => warm_hits += 1,
            Some(_) => {
                out.problems.push(format!(
                    "campaign: {}: warm output differs",
                    cells[i].label()
                ));
                bad[i] = true;
            }
            None => {
                out.problems
                    .push(format!("campaign: {}: warm cache miss", cells[i].label()));
                bad[i] = true;
            }
        }
    }
    out.check(warm_obs == cold_obs, || {
        "campaign: warm merged snapshot differs from cold".to_string()
    });
    out.attempted += cells.len() as u64;
    out.failed += bad.iter().filter(|&&b| b).count() as u64;
    Cycle {
        cold_s,
        warm_s,
        units: cold.iter().map(|o| o.charging_units).sum(),
        makespan_ms: cold.iter().map(|o| o.makespan_ms).sum(),
        cold,
        store_bytes,
        warm_hits,
    }
}

fn run_cell<P: ScalingPolicy, R: Recorder>(
    cell: &Cell,
    input: &(Workflow, ExecProfile),
    policy: P,
    recorder: R,
    layers: &Layers,
) -> RunResult {
    let cfg = cell.cfg.clone();
    Engine::from_submissions_with(
        vec![(Millis::ZERO, &input.0, &input.1)],
        cell.cfg.clone(),
        cell.transfer.model(),
        TimedPolicy::new(policy, layers),
        cell.seed,
        recorder,
        |n, st| TimedScheduler::new(cfg.scheduler.build(n, st, &cfg), &layers.scheduler),
    )
    .expect("cell engine builds")
    .run()
    .unwrap_or_else(|e| panic!("{}: {e}", cell.label()))
}

/// The layer pass: every cell run again through the layer wrappers (policy,
/// scheduler, streaming recorder, invariant checker), as `execute` runs it.
/// Returns each cell's (charging units, makespan) for the transparency check.
fn layer_pass<'l>(
    cells: &[Cell],
    layers: &'l Layers,
    out: &mut Outcome,
) -> (TracedRep<'l>, Vec<(u64, u64)>) {
    let (mut events, mut memo, mut results) = (0u64, (0u64, 0u64), Vec::new());
    let t0 = Instant::now();
    for cell in cells {
        let input = layers.generate.time(|| cell.workload.generate(cell.seed));
        let checker = InvariantChecker::new(&cell.cfg)
            .expect_workflow(input.0.num_tasks() as u32, input.0.num_stages() as u32);
        let obs = StreamingRecorder::new();
        let recorder = Tee(
            TimedRecorder::new(obs.clone(), &layers.obs),
            TimedRecorder::new(checker.clone(), &layers.checker),
        );
        let res = match &cell.policy {
            PolicyKind::Wire(steering) => {
                let mut policy = WirePolicy::new(*steering).with_obs(obs.clone());
                let res = run_cell(cell, &input, &mut policy, recorder, layers);
                let (h, l) = policy.memo_stats();
                memo = (memo.0 + h, memo.1 + l);
                res
            }
            other => run_cell(
                cell,
                &input,
                build_policy(other.setting(), &cell.cfg),
                recorder,
                layers,
            ),
        };
        let report = checker.report();
        out.check(report.is_clean(), || {
            format!("campaign: layer pass {}: {}", cell.label(), report.render())
        });
        events += obs.health().events_total;
        results.push((res.charging_units, res.makespan.as_ms()));
    }
    let rep = TracedRep {
        layers,
        wall: t0.elapsed().as_secs_f64(),
        other_inside: layers.generate.secs(),
        events,
        memo,
    };
    (rep, results)
}

/// Removes this process's scratch directory, and the shared parent once
/// empty, however the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        Scratch(Path::new(SCRATCH).join(std::process::id().to_string()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        let _ = fs::remove_dir(SCRATCH);
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let scratch = Scratch::new();
    let (mut setups, mut cells, mut keys) = (vec![], vec![], vec![]);
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        let (secs, c, k) = setup(args.seed);
        setups.push(secs);
        (cells, keys) = (c, k);
    }
    let mut first: Option<(u64, u64)> = None;
    let mut walls = vec![];
    let mut warms = vec![];
    let mut check_sums = |out: &mut Outcome, c: &Cycle| {
        let sums = (c.units, c.makespan_ms);
        if let Some(f) = first {
            out.check(sums == f, || {
                format!("campaign: totals moved from {f:?} to {sums:?}")
            });
        }
        first.get_or_insert(sums);
    };
    if args.trace {
        let budget = Budget::new(args.seconds, 2);
        let (mut timed_walls, mut reps) = (vec![], vec![]);
        while budget.more(walls.len()) {
            let dir = scratch.0.join(format!("plain{}", walls.len()));
            let c = cycle(&cells, &keys, &dir, None, &mut out);
            check_sums(&mut out, &c);
            walls.push(c.cold_s + c.warm_s);

            let layers = Layers::default();
            let clocks = CycleClocks::default();
            let dir = scratch.0.join(format!("traced{}", reps.len()));
            let c = cycle(
                &cells,
                &keys,
                &dir,
                Some((&clocks, &layers.merge)),
                &mut out,
            );
            check_sums(&mut out, &c);
            let wall = c.cold_s + c.warm_s;
            let clocked = clocks.execute.secs()
                + clocks.store.secs()
                + clocks.load.secs()
                + layers.merge.secs();
            out.check(clocked <= wall, || {
                format!(
                    "layer accounting: campaign calls {clocked:.4}s exceed cycle wall {wall:.4}s"
                )
            });
            timed_walls.push(wall);
            let (rep, per_cell) = layer_pass(&cells, &layers, &mut out);
            let expected: Vec<(u64, u64)> = c
                .cold
                .iter()
                .map(|o| (o.charging_units, o.makespan_ms))
                .collect();
            out.check(per_cell == expected, || {
                "campaign: layer pass results differ from execute".to_string()
            });
            let cache = CacheRep {
                execute_calls: clocks.execute.calls(),
                execute_s: clocks.execute.secs(),
                store_s: clocks.store.secs(),
                store_bytes: c.store_bytes,
                load_s: clocks.load.secs(),
                warm_hit_rate: c.warm_hits as f64 / cells.len() as f64,
            };
            reps.push(layer_metrics(&rep, cache, &mut out));
        }
        out.metrics = median_layers(reps, &timed_walls, &walls);
        return out;
    }
    let budget = Budget::new(args.seconds, 3);
    let mut totals = (0, 0);
    while budget.more(walls.len()) {
        let dir = scratch.0.join(format!("plain{}", walls.len()));
        let c = cycle(&cells, &keys, &dir, None, &mut out);
        check_sums(&mut out, &c);
        walls.push(c.cold_s + c.warm_s);
        warms.push(c.warm_s);
        totals = (c.units, c.makespan_ms);
    }
    out.metrics = vec![
        metric("setup_s", "s", median(&setups)),
        metric("wall_s", "s", median(&walls)),
        metric("peak_rss_mb", "MiB", peak_rss_mb()),
        metric("sim_cost_units", "units", totals.0 as f64),
        metric("sim_makespan_s", "s", totals.1 as f64 / 1e3),
    ];
    out.notes = vec![
        metric("warm_s", "s", median(&warms)),
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

    /// Tracing is observational: a timed cycle produces the same outputs as
    /// a plain one, the layer pass reproduces `execute` cell for cell, and
    /// every clocked layer fits inside its wall time.
    #[test]
    fn traced_cycle_and_layer_pass_match_execute() {
        let grid = ExperimentGrid {
            base_seed: 5,
            ..ExperimentGrid::paper(vec![WorkloadId::Tpch6S, WorkloadId::PageRankS], 1)
        };
        let cells = grid_cells(&grid);
        let keys: Vec<u64> = cells.iter().map(cache_key).collect();
        let scratch = Scratch::new();
        let mut out = Outcome::default();
        let plain = cycle(&cells, &keys, &scratch.0.join("plain"), None, &mut out);
        let layers = Layers::default();
        let clocks = CycleClocks::default();
        let dir = scratch.0.join("traced");
        let traced = cycle(
            &cells,
            &keys,
            &dir,
            Some((&clocks, &layers.merge)),
            &mut out,
        );
        assert!(!dir.exists(), "scratch cache is removed after the cycle");
        assert_eq!(plain.cold, traced.cold);
        assert_eq!(traced.warm_hits, cells.len() as u64);
        assert_eq!(clocks.execute.calls(), cells.len() as u64);
        let (rep, per_cell) = layer_pass(&cells, &layers, &mut out);
        let expected: Vec<(u64, u64)> = plain
            .cold
            .iter()
            .map(|o| (o.charging_units, o.makespan_ms))
            .collect();
        assert_eq!(per_cell, expected);
        layer_metrics(&rep, CacheRep::default(), &mut out);
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!((out.attempted, out.failed), (2 * cells.len() as u64, 0));
    }
}
