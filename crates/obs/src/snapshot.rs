//! The deterministic, mergeable summary a streaming run exports.
//!
//! An [`ObsSnapshot`] holds only virtual-time facts (event counts, value
//! sketches, windowed rollups, controller-internals that are functions of
//! the simulated run) — never wall-clock measurements — so its rendered
//! JSON is byte-identical for byte-identical runs, regardless of thread
//! count, cache state or host speed. Snapshots merge associatively with
//! the same ordered-merge discipline as campaign shards: merging the
//! snapshots of a split stream equals the snapshot of the combined stream.

use std::collections::BTreeMap;

use wire_telemetry::json::{parse, Json};
use wire_telemetry::Histogram;

/// Format version stamped into the snapshot JSON; bump when the shape
/// changes so stale files fail loudly in `wire report`.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Per-tenant streaming aggregates. Tenancy is synthetic — workflow slot
/// modulo the configured tenant count — which is enough to exercise and
/// validate multi-tenant percentile tracking without a tenancy model in
/// the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantAgg {
    /// Workflows submitted by this tenant.
    pub submitted: u64,
    /// Workflows completed by this tenant.
    pub completed: u64,
    /// Tasks completed that were attributed to this tenant.
    pub tasks_completed: u64,
    /// Total execution milliseconds attributed to this tenant — the
    /// shared-pool cost proxy (billing is pool-global, busy time is not).
    pub busy_ms: u64,
    /// Sketch of per-workflow makespans (ms).
    pub makespan_ms: Histogram,
    /// Sketch of per-workflow slowdowns, in thousandths (makespan ×1000 /
    /// ideal critical-path bound).
    pub slowdown_milli: Histogram,
}

impl Default for TenantAgg {
    fn default() -> Self {
        TenantAgg {
            submitted: 0,
            completed: 0,
            tasks_completed: 0,
            busy_ms: 0,
            makespan_ms: Histogram::new(),
            slowdown_milli: Histogram::new(),
        }
    }
}

impl TenantAgg {
    fn merge(&mut self, other: &TenantAgg) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.tasks_completed += other.tasks_completed;
        self.busy_ms += other.busy_ms;
        self.makespan_ms.merge(&other.makespan_ms);
        self.slowdown_milli.merge(&other.slowdown_milli);
    }
}

/// One virtual-time window's rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAgg {
    /// Workflow arrivals inside the window.
    pub arrivals: u64,
    /// Workflow completions inside the window.
    pub completions: u64,
    /// Task completions inside the window.
    pub tasks_completed: u64,
    /// Execution milliseconds completed inside the window (spend proxy).
    pub busy_ms: u64,
    /// Charging units billed inside the window (instance terminations).
    pub units: u64,
    /// Prediction↔actual joins inside the window.
    pub pred_n: u64,
    /// Sum of absolute prediction errors (ms) — `/ pred_n` is the window MAE.
    pub pred_abs_err_ms_sum: u64,
    /// Sketch of relative prediction errors in thousandths; its mean is the
    /// window MAPE, its p90 the windowed p90 relative error.
    pub pred_rel_milli: Histogram,
}

impl Default for WindowAgg {
    fn default() -> Self {
        WindowAgg {
            arrivals: 0,
            completions: 0,
            tasks_completed: 0,
            busy_ms: 0,
            units: 0,
            pred_n: 0,
            pred_abs_err_ms_sum: 0,
            pred_rel_milli: Histogram::new(),
        }
    }
}

impl WindowAgg {
    /// Fold another window's rollup into this one.
    pub fn merge(&mut self, other: &WindowAgg) {
        self.arrivals += other.arrivals;
        self.completions += other.completions;
        self.tasks_completed += other.tasks_completed;
        self.busy_ms += other.busy_ms;
        self.units += other.units;
        self.pred_n += other.pred_n;
        self.pred_abs_err_ms_sum += other.pred_abs_err_ms_sum;
        self.pred_rel_milli.merge(&other.pred_rel_milli);
    }
}

/// The windowed ring-buffer rollup: at most `capacity` live windows are
/// retained; older windows fold losslessly into the `evicted` coarse total,
/// so memory stays bounded while lifetime totals stay exact.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRollup {
    /// Virtual-time width of one window in milliseconds.
    pub width_ms: u64,
    /// Number of windows folded into `evicted`.
    pub evicted_windows: u64,
    /// Coarse rollup of every evicted window.
    pub evicted: WindowAgg,
    /// Live windows, keyed by absolute window index (`at_ms / width_ms`),
    /// ascending.
    pub live: Vec<(u64, WindowAgg)>,
}

impl WindowRollup {
    /// An empty rollup with the given window width.
    pub fn new(width_ms: u64) -> Self {
        WindowRollup {
            width_ms: width_ms.max(1),
            evicted_windows: 0,
            evicted: WindowAgg::default(),
            live: Vec::new(),
        }
    }

    fn merge(&mut self, other: &WindowRollup) {
        // widths always agree in practice (same config); if they don't,
        // fold everything of the finer side into evicted coarse totals
        if self.width_ms != other.width_ms {
            self.evicted_windows += other.evicted_windows + other.live.len() as u64;
            self.evicted.merge(&other.evicted);
            for (_, w) in &other.live {
                self.evicted.merge(w);
            }
            return;
        }
        self.evicted_windows += other.evicted_windows;
        self.evicted.merge(&other.evicted);
        let mut by_idx: BTreeMap<u64, WindowAgg> = self.live.drain(..).collect();
        for (idx, w) in &other.live {
            by_idx.entry(*idx).or_default().merge(w);
        }
        self.live = by_idx.into_iter().collect();
    }
}

/// Deterministic run-health internals (virtual-time / decision-path facts;
/// wall-clock health lives in [`crate::HealthReport`], outside the snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthAgg {
    /// Prediction-memoization hits in the wire planner.
    pub memo_hits: u64,
    /// Prediction-memoization lookups in the wire planner.
    pub memo_lookups: u64,
    /// Completed-task observations ingested by the online predictor.
    pub predictor_observations: u64,
    /// Sketch of the simulator event-queue depth sampled at MAPE ticks.
    pub queue_depth: Histogram,
    /// Sketch of absolute prediction errors (ms), run-lifetime.
    pub pred_abs_err_ms: Histogram,
    /// Sketch of relative prediction errors (thousandths), run-lifetime.
    pub pred_rel_milli: Histogram,
    /// Whole sessions folded into this snapshot (campaign cells).
    pub sessions: u64,
    /// Authoritative charging units across folded sessions.
    pub session_units: u64,
    /// Sketch of per-session makespans (ms).
    pub session_makespan_ms: Histogram,
}

impl Default for HealthAgg {
    fn default() -> Self {
        HealthAgg {
            memo_hits: 0,
            memo_lookups: 0,
            predictor_observations: 0,
            queue_depth: Histogram::new(),
            pred_abs_err_ms: Histogram::new(),
            pred_rel_milli: Histogram::new(),
            sessions: 0,
            session_units: 0,
            session_makespan_ms: Histogram::new(),
        }
    }
}

impl HealthAgg {
    fn merge(&mut self, other: &HealthAgg) {
        self.memo_hits += other.memo_hits;
        self.memo_lookups += other.memo_lookups;
        self.predictor_observations += other.predictor_observations;
        self.queue_depth.merge(&other.queue_depth);
        self.pred_abs_err_ms.merge(&other.pred_abs_err_ms);
        self.pred_rel_milli.merge(&other.pred_rel_milli);
        self.sessions += other.sessions;
        self.session_units += other.session_units;
        self.session_makespan_ms.merge(&other.session_makespan_ms);
    }
}

/// The deterministic, mergeable summary of one run (or one merged shard
/// set). See the module docs for the determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSnapshot {
    /// Monotonic event counters keyed by event kind (plus derived totals
    /// such as `units_billed_total`).
    pub counters: BTreeMap<String, u64>,
    /// Named value sketches (task exec/transfer times, workflow makespan
    /// and slowdown, pool size at plan time, …).
    pub sketches: BTreeMap<String, Histogram>,
    /// Per-tenant aggregates (slot-modulo tenancy); empty when no
    /// workflow-lifecycle events were observed.
    pub tenants: Vec<TenantAgg>,
    /// Windowed virtual-time rollups.
    pub windows: WindowRollup,
    /// Deterministic run-health internals.
    pub health: HealthAgg,
}

impl Default for ObsSnapshot {
    fn default() -> Self {
        ObsSnapshot {
            counters: BTreeMap::new(),
            sketches: BTreeMap::new(),
            tenants: Vec::new(),
            windows: WindowRollup::new(crate::ObsConfig::default().window_ms),
            health: HealthAgg::default(),
        }
    }
}

impl ObsSnapshot {
    /// Fold another snapshot into this one. Commutative and associative up
    /// to tenant-vector length (shorter sides extend with empty tenants),
    /// so any shard-merge order that is itself deterministic yields a
    /// deterministic result; the campaign folds in spec order.
    pub fn merge(&mut self, other: &ObsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.sketches {
            match self.sketches.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.sketches.insert(k.clone(), h.clone());
                }
            }
        }
        if self.tenants.len() < other.tenants.len() {
            self.tenants
                .resize(other.tenants.len(), TenantAgg::default());
        }
        for (mine, theirs) in self.tenants.iter_mut().zip(other.tenants.iter()) {
            mine.merge(theirs);
        }
        self.windows.merge(&other.windows);
        self.health.merge(&other.health);
    }

    /// Convenience counter lookup (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Render as canonical JSON: fixed field order, sorted map keys, no
    /// whitespace, integers only — byte-identical for equal snapshots.
    pub fn to_json_string(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\"schema\":\"wire-obs-snapshot\",\"version\":");
        s.push_str(&SNAPSHOT_VERSION.to_string());
        s.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{k}\":{v}"));
        }
        s.push_str("},\"sketches\":{");
        for (i, (k, h)) in self.sketches.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{k}\":"));
            render_hist(&mut s, h);
        }
        s.push_str("},\"tenants\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"submitted\":{},\"completed\":{},\"tasks_completed\":{},\"busy_ms\":{},\"makespan_ms\":",
                t.submitted, t.completed, t.tasks_completed, t.busy_ms
            ));
            render_hist(&mut s, &t.makespan_ms);
            s.push_str(",\"slowdown_milli\":");
            render_hist(&mut s, &t.slowdown_milli);
            s.push('}');
        }
        s.push_str("],\"windows\":{\"width_ms\":");
        s.push_str(&self.windows.width_ms.to_string());
        s.push_str(&format!(
            ",\"evicted_windows\":{},\"evicted\":",
            self.windows.evicted_windows
        ));
        render_window(&mut s, &self.windows.evicted);
        s.push_str(",\"live\":[");
        for (i, (idx, w)) in self.windows.live.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{{\"index\":{idx},\"agg\":"));
            render_window(&mut s, w);
            s.push('}');
        }
        let h = &self.health;
        s.push_str("]},\"health\":{");
        s.push_str(&format!(
            "\"memo_hits\":{},\"memo_lookups\":{},\"predictor_observations\":{},\"queue_depth\":",
            h.memo_hits, h.memo_lookups, h.predictor_observations
        ));
        render_hist(&mut s, &h.queue_depth);
        s.push_str(",\"pred_abs_err_ms\":");
        render_hist(&mut s, &h.pred_abs_err_ms);
        s.push_str(",\"pred_rel_milli\":");
        render_hist(&mut s, &h.pred_rel_milli);
        s.push_str(&format!(
            ",\"sessions\":{},\"session_units\":{},\"session_makespan_ms\":",
            h.sessions, h.session_units
        ));
        render_hist(&mut s, &h.session_makespan_ms);
        s.push_str("}}");
        s
    }

    /// Parse a snapshot previously rendered by [`Self::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<ObsSnapshot, String> {
        let v = parse(text)?;
        if v.get("schema").and_then(Json::as_str) != Some("wire-obs-snapshot") {
            return Err("not a wire-obs snapshot (missing schema tag)".to_string());
        }
        let version = v.get("version").and_then(Json::as_u64).unwrap_or(0);
        if version != SNAPSHOT_VERSION as u64 {
            return Err(format!(
                "snapshot version {version} (this build reads {SNAPSHOT_VERSION})"
            ));
        }
        let mut snap = ObsSnapshot::default();
        if let Some(Json::Obj(fields)) = v.get("counters").map(clone_json) {
            for (k, val) in fields {
                snap.counters
                    .insert(k, val.as_u64().ok_or("non-integer counter")?);
            }
        }
        if let Some(Json::Obj(fields)) = v.get("sketches").map(clone_json) {
            for (k, val) in fields {
                snap.sketches.insert(k, parse_hist(&val)?);
            }
        }
        if let Some(arr) = v.get("tenants").and_then(Json::as_arr) {
            for t in arr {
                snap.tenants.push(TenantAgg {
                    submitted: need_u64(t, "submitted")?,
                    completed: need_u64(t, "completed")?,
                    tasks_completed: need_u64(t, "tasks_completed")?,
                    busy_ms: need_u64(t, "busy_ms")?,
                    makespan_ms: parse_hist(t.get("makespan_ms").ok_or("makespan_ms")?)?,
                    slowdown_milli: parse_hist(t.get("slowdown_milli").ok_or("slowdown_milli")?)?,
                });
            }
        }
        if let Some(w) = v.get("windows") {
            let width_ms = need_u64(w, "width_ms")?;
            let evicted_windows = need_u64(w, "evicted_windows")?;
            let evicted = parse_window(w.get("evicted").ok_or("evicted")?)?;
            let mut live = Vec::new();
            for entry in w.get("live").and_then(Json::as_arr).unwrap_or(&[]) {
                let index = need_u64(entry, "index")?;
                // the report prints each window's start time
                if index.checked_mul(width_ms).is_none() {
                    return Err(format!("window {index} starts past the time range"));
                }
                live.push((index, parse_window(entry.get("agg").ok_or("agg")?)?));
            }
            snap.windows = WindowRollup {
                width_ms,
                evicted_windows,
                evicted,
                live,
            };
        }
        if let Some(h) = v.get("health") {
            snap.health = HealthAgg {
                memo_hits: need_u64(h, "memo_hits")?,
                memo_lookups: need_u64(h, "memo_lookups")?,
                predictor_observations: need_u64(h, "predictor_observations")?,
                queue_depth: parse_hist(h.get("queue_depth").ok_or("queue_depth")?)?,
                pred_abs_err_ms: parse_hist(h.get("pred_abs_err_ms").ok_or("pred_abs_err_ms")?)?,
                pred_rel_milli: parse_hist(h.get("pred_rel_milli").ok_or("pred_rel_milli")?)?,
                sessions: need_u64(h, "sessions")?,
                session_units: need_u64(h, "session_units")?,
                session_makespan_ms: parse_hist(
                    h.get("session_makespan_ms").ok_or("session_makespan_ms")?,
                )?,
            };
        }
        Ok(snap)
    }
}

fn clone_json(j: &Json) -> Json {
    j.clone()
}

fn need_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field {key}"))
}

/// Render a histogram as `{"count":..,"sum":..,"min":..,"max":..,
/// "buckets":[[i,c],..]}`. Every observed value in this crate is an integer
/// (milliseconds, thousandths, counts), so sum/min/max round-trip exactly
/// through `u64`.
fn render_hist(out: &mut String, h: &Histogram) {
    let (min, max) = if h.count == 0 {
        (0, 0)
    } else {
        (h.min.round() as u64, h.max.round() as u64)
    };
    out.push_str(&format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
        h.count,
        h.sum.round() as u64,
        min,
        max
    ));
    let mut first = true;
    for (i, &c) in h.buckets().iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("[{i},{c}]"));
    }
    out.push_str("]}");
}

/// Parse a histogram, rejecting shapes no recorder can produce: `min > max`
/// on a non-empty sketch, bucket indices past [`Histogram::NUM_BUCKETS`],
/// and bucket counts that overflow or do not sum to `count`.
fn parse_hist(v: &Json) -> Result<Histogram, String> {
    let count = need_u64(v, "count")?;
    let sum = need_u64(v, "sum")? as f64;
    let min = need_u64(v, "min")?;
    let max = need_u64(v, "max")?;
    if count > 0 && min > max {
        return Err(format!("histogram min {min} exceeds max {max}"));
    }
    let mut sparse = Vec::new();
    let mut bucket_total = 0u64;
    for pair in v.get("buckets").and_then(Json::as_arr).unwrap_or(&[]) {
        let p = pair.as_arr().ok_or("bucket pair")?;
        if p.len() != 2 {
            return Err("bucket pair arity".to_string());
        }
        let i = p[0].as_u64().ok_or("bucket index")?;
        let c = p[1].as_u64().ok_or("bucket count")?;
        if i >= Histogram::NUM_BUCKETS as u64 {
            return Err(format!("bucket index {i} out of range"));
        }
        bucket_total = bucket_total
            .checked_add(c)
            .ok_or("bucket counts overflow")?;
        sparse.push((i as usize, c));
    }
    if bucket_total != count {
        return Err(format!(
            "bucket counts sum to {bucket_total}, histogram count is {count}"
        ));
    }
    Ok(Histogram::from_parts(
        count, sum, min as f64, max as f64, &sparse,
    ))
}

fn render_window(out: &mut String, w: &WindowAgg) {
    out.push_str(&format!(
        "{{\"arrivals\":{},\"completions\":{},\"tasks_completed\":{},\"busy_ms\":{},\"units\":{},\"pred_n\":{},\"pred_abs_err_ms_sum\":{},\"pred_rel_milli\":",
        w.arrivals, w.completions, w.tasks_completed, w.busy_ms, w.units, w.pred_n, w.pred_abs_err_ms_sum
    ));
    render_hist(out, &w.pred_rel_milli);
    out.push('}');
}

fn parse_window(v: &Json) -> Result<WindowAgg, String> {
    Ok(WindowAgg {
        arrivals: need_u64(v, "arrivals")?,
        completions: need_u64(v, "completions")?,
        tasks_completed: need_u64(v, "tasks_completed")?,
        busy_ms: need_u64(v, "busy_ms")?,
        units: need_u64(v, "units")?,
        pred_n: need_u64(v, "pred_n")?,
        pred_abs_err_ms_sum: need_u64(v, "pred_abs_err_ms_sum")?,
        pred_rel_milli: parse_hist(v.get("pred_rel_milli").ok_or("pred_rel_milli")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObsSnapshot {
        let mut s = ObsSnapshot::default();
        s.counters.insert("task_completed".to_string(), 7);
        s.counters.insert("mape_tick".to_string(), 3);
        let mut h = Histogram::new();
        for v in [1.0, 8.0, 120.0] {
            h.observe(v);
        }
        s.sketches.insert("task_exec_ms".to_string(), h.clone());
        let mut t = TenantAgg {
            submitted: 2,
            completed: 2,
            ..TenantAgg::default()
        };
        t.makespan_ms.observe(900.0);
        s.tenants.push(t);
        s.windows = WindowRollup::new(60_000);
        let mut w = WindowAgg {
            arrivals: 2,
            ..WindowAgg::default()
        };
        w.pred_rel_milli.observe(150.0);
        s.windows.live.push((4, w));
        s.health.memo_hits = 5;
        s.health.memo_lookups = 9;
        s.health.queue_depth.observe(12.0);
        s
    }

    #[test]
    fn json_round_trips_exactly() {
        let snap = sample();
        let text = snap.to_json_string();
        let back = ObsSnapshot::from_json_str(&text).expect("parses");
        assert_eq!(back, snap);
        // canonical: render(parse(render(x))) == render(x)
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn merge_of_split_equals_combined() {
        let mut a = sample();
        let b = sample();
        let mut combined = sample();
        combined.merge(&sample());
        a.merge(&b);
        // folding twice from the same base is the same as merging the two
        assert_eq!(a, combined);
        assert_eq!(a.counter("task_completed"), 14);
        assert_eq!(a.health.memo_hits, 10);
        assert_eq!(a.windows.live.len(), 1);
        assert_eq!(a.windows.live[0].1.arrivals, 4);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = sample();
        let before = a.clone();
        a.merge(&ObsSnapshot::default());
        assert_eq!(a, before);
    }

    #[test]
    fn malformed_histograms_are_rejected() {
        let text = sample().to_json_string();
        let good = "\"task_exec_ms\":{\"count\":3,\"sum\":129,\"min\":1,\"max\":120,\"buckets\":[[0,1],[3,1],[6,1]]}";
        assert!(text.contains(good), "{text}");
        for (bad, why) in [
            (
                "\"task_exec_ms\":{\"count\":3,\"sum\":129,\"min\":99,\"max\":1,\"buckets\":[[0,1],[3,1],[6,1]]}",
                "exceeds max",
            ),
            (
                "\"task_exec_ms\":{\"count\":3,\"sum\":129,\"min\":1,\"max\":120,\"buckets\":[[0,1],[3,1],[40,1]]}",
                "out of range",
            ),
            (
                "\"task_exec_ms\":{\"count\":3,\"sum\":129,\"min\":1,\"max\":120,\"buckets\":[[0,1],[3,1],[6,2]]}",
                "sum to 4",
            ),
            (
                "\"task_exec_ms\":{\"count\":3,\"sum\":129,\"min\":1,\"max\":120,\"buckets\":[[0,18446744073709551615],[3,1]]}",
                "overflow",
            ),
        ] {
            let err = ObsSnapshot::from_json_str(&text.replace(good, bad)).unwrap_err();
            assert!(err.contains(why), "{why}: {err}");
        }
    }

    #[test]
    fn window_start_overflow_is_rejected() {
        let text = sample().to_json_string();
        assert!(text.contains("{\"index\":4,"), "{text}");
        let bad = text.replace("{\"index\":4,", "{\"index\":18446744073709551615,");
        let err = ObsSnapshot::from_json_str(&bad).unwrap_err();
        assert!(err.contains("past the time range"), "{err}");
    }

    #[test]
    fn committed_campaign_snapshot_parses() {
        let text = include_str!("../../../results/OBS_snapshot.json");
        let snap = ObsSnapshot::from_json_str(text).expect("committed snapshot parses");
        assert_eq!(snap.to_json_string(), text);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = sample()
            .to_json_string()
            .replace("\"version\":1", "\"version\":99");
        assert!(ObsSnapshot::from_json_str(&text).is_err());
        assert!(ObsSnapshot::from_json_str("{\"x\":1}").is_err());
    }
}
