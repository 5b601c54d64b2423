//! The repository benchmark: times the WIRE simulator from outside, through
//! its public entry points only, on one worker thread.
//!
//! ```text
//! perfbench --workload <traffic|shared_pool|campaign> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run. Every run checks the program's outputs and exits
//! non-zero when a check fails. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod campaign;
mod shared_pool;
mod trace;
mod traffic;

use std::process::ExitCode;
use std::time::Instant;

use trace::Layers;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 7u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one benchmark run found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// The metrics of the JSON result line.
    pub metrics: Vec<Metric>,
    /// Workload-specific end-to-end numbers printed beside the result line.
    pub notes: Vec<Metric>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Decides when a timed loop stops: after `min` repetitions, once one more
/// repetition of average length would overrun the measuring time.
pub struct Budget {
    start: Instant,
    seconds: f64,
    min: usize,
}

impl Budget {
    pub fn new(seconds: f64, min: usize) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
            min,
        }
    }

    pub fn more(&self, done: usize) -> bool {
        if done < self.min {
            return true;
        }
        let spent = self.start.elapsed().as_secs_f64();
        spent + spent / done as f64 <= self.seconds
    }
}

pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in (0, 1].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a, folded incrementally.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one traced repetition measured, beyond the layer clocks.
pub struct TracedRep<'l> {
    pub layers: &'l Layers,
    /// Wall time of the traced region the layer clocks ran in.
    pub wall: f64,
    /// Clocked time inside `wall` that belongs to no engine layer
    /// (input generation, snapshot merges).
    pub other_inside: f64,
    pub events: u64,
    pub memo: (u64, u64),
}

/// Campaign-layer timings of one traced repetition (zero elsewhere).
#[derive(Default, Clone, Copy)]
pub struct CacheRep {
    pub execute_calls: u64,
    pub execute_s: f64,
    pub store_s: f64,
    pub store_bytes: u64,
    pub load_s: f64,
    pub warm_hit_rate: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced repetition, in a fixed order. Layers
/// the workload does not run read 0. Also checks the layer accounting: the
/// clocked layers fit inside the traced wall time.
pub fn layer_metrics(rep: &TracedRep<'_>, cache: CacheRep, out: &mut Outcome) -> Vec<Metric> {
    let l = rep.layers;
    let busy = l.planner.secs() + l.scheduler.secs() + l.obs.secs() + l.checker.secs();
    let engine_self = rep.wall - busy - rep.other_inside;
    out.check(engine_self >= 0.0, || {
        format!(
            "layer accounting: clocked layers {:.4}s + other {:.4}s exceed traced wall {:.4}s",
            busy, rep.other_inside, rep.wall
        )
    });
    let plan_us: Vec<f64> = l
        .plan_ns
        .borrow()
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let (p50, p95) = if plan_us.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(&plan_us, 0.50), percentile(&plan_us, 0.95))
    };
    vec![
        metric("planner.plan_calls", "count", l.planner.calls() as f64),
        metric("planner.plan_s", "s", l.planner.secs()),
        metric(
            "planner.plan_share",
            "frac",
            ratio(l.planner.secs(), rep.wall),
        ),
        metric("planner.tick_p50_us", "us", p50),
        metric("planner.tick_p95_us", "us", p95),
        metric(
            "planner.ns_per_live_task",
            "ns",
            ratio(l.planner.secs() * 1e9, l.live_tasks.get() as f64),
        ),
        metric(
            "planner.memo_hit_rate",
            "frac",
            ratio(rep.memo.0 as f64, rep.memo.1 as f64),
        ),
        metric("simcloud.events", "count", rep.events as f64),
        metric("simcloud.engine_self_s", "s", engine_self),
        metric(
            "simcloud.engine_ns_per_event",
            "ns",
            ratio(engine_self * 1e9, rep.events as f64),
        ),
        metric(
            "simcloud.scheduler_ops",
            "count",
            l.scheduler.calls() as f64,
        ),
        metric("simcloud.scheduler_s", "s", l.scheduler.secs()),
        metric("obs.record_calls", "count", l.obs.calls() as f64),
        metric("obs.record_s", "s", l.obs.secs()),
        metric("obs.merge_s", "s", l.merge.secs()),
        metric("chaos.check_s", "s", l.checker.secs()),
        metric(
            "campaign.execute_calls",
            "count",
            cache.execute_calls as f64,
        ),
        metric("campaign.execute_s", "s", cache.execute_s),
        metric("campaign.store_s", "s", cache.store_s),
        metric("campaign.store_bytes", "bytes", cache.store_bytes as f64),
        metric("campaign.load_s", "s", cache.load_s),
        metric("campaign.warm_hit_rate", "frac", cache.warm_hit_rate),
        metric("workloads.generate_s", "s", l.generate.secs()),
    ]
}

/// Median of each metric over repetitions that all list the same metrics
/// in the same order, plus `trace.overhead_frac` from the traced and
/// untraced wall times.
pub fn median_layers(reps: Vec<Vec<Metric>>, traced: &[f64], untraced: &[f64]) -> Vec<Metric> {
    let mut merged: Vec<Metric> = reps[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = reps.iter().map(|r| r[i].value).collect();
            metric(m.name, m.unit, median(&values))
        })
        .collect();
    merged.push(metric(
        "trace.overhead_frac",
        "frac",
        median(traced) / median(untraced) - 1.0,
    ));
    merged
}

fn render_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "traffic" => traffic::run(&args),
        "shared_pool" => shared_pool::run(&args),
        "campaign" => campaign::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (traffic, shared_pool, campaign)");
            return ExitCode::from(2);
        }
    };
    for m in out.metrics.iter().chain(&out.notes) {
        println!("# {} {} = {} {}", args.workload, m.name, m.value, m.unit);
    }
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", render_json(&out));
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
