//! Thin delegating wrappers that time calls into each layer's public
//! interface. Every wrapper forwards to the wrapped value unchanged, so a
//! traced run must produce the same outputs as an untraced one; the
//! transparency test and the per-run digest comparison check exactly that.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use wire_dag::{ExecProfile, Millis, StageId, TaskId};
use wire_simcloud::{MonitorSnapshot, PoolPlan, ScalingPolicy, Scheduler, WorkflowSlot};
use wire_telemetry::{Recorder, TelemetryEvent, TickStats};

/// Busy time and call count of one layer.
#[derive(Debug, Default)]
pub struct Clock {
    busy: Cell<Duration>,
    calls: Cell<u64>,
}

impl Clock {
    /// Run `f`, charging its wall time and one call to this layer.
    #[inline]
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(t0.elapsed());
        out
    }

    #[inline]
    fn add(&self, d: Duration) {
        self.busy.set(self.busy.get() + d);
        self.calls.set(self.calls.get() + 1);
    }

    pub fn secs(&self) -> f64 {
        self.busy.get().as_secs_f64()
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// Every layer clock of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pub planner: Clock,
    /// Latency of every `plan` call, in nanoseconds.
    pub plan_ns: RefCell<Vec<u64>>,
    /// Σ over plan calls of the snapshot's live tasks (`tasks.len() − done_prefix`).
    pub live_tasks: Cell<u64>,
    pub scheduler: Clock,
    pub obs: Clock,
    pub checker: Clock,
    pub merge: Clock,
    pub generate: Clock,
}

/// A [`ScalingPolicy`] that times `plan` and counts the live tasks it saw.
pub struct TimedPolicy<'l, P> {
    inner: P,
    layers: &'l Layers,
}

impl<'l, P> TimedPolicy<'l, P> {
    pub fn new(inner: P, layers: &'l Layers) -> Self {
        TimedPolicy { inner, layers }
    }
}

impl<P: ScalingPolicy> ScalingPolicy for TimedPolicy<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan(&mut self, snapshot: &MonitorSnapshot<'_>) -> PoolPlan {
        let l = self.layers;
        let live = snapshot.tasks.len().saturating_sub(snapshot.done_prefix);
        l.live_tasks.set(l.live_tasks.get() + live as u64);
        let t0 = Instant::now();
        let plan = self.inner.plan(snapshot);
        let dt = t0.elapsed();
        l.planner.add(dt);
        l.plan_ns.borrow_mut().push(dt.as_nanos() as u64);
        plan
    }
}

/// A [`Recorder`] that times every `record` and `tick` call.
pub struct TimedRecorder<'c, R> {
    inner: R,
    clock: &'c Clock,
}

impl<'c, R> TimedRecorder<'c, R> {
    pub fn new(inner: R, clock: &'c Clock) -> Self {
        TimedRecorder { inner, clock }
    }
}

impl<R: Recorder> Recorder for TimedRecorder<'_, R> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, at: Millis, event: TelemetryEvent) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.record(at, event))
    }

    fn tick(&mut self, at: Millis, stats: TickStats) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.tick(at, stats))
    }
}

/// A [`Scheduler`] that times every queue operation. `iter_in_order` is
/// drained eagerly so the time spent walking the queue is charged here.
pub struct TimedScheduler<'c, S> {
    inner: S,
    clock: &'c Clock,
}

impl<'c, S> TimedScheduler<'c, S> {
    pub fn new(inner: S, clock: &'c Clock) -> Self {
        TimedScheduler { inner, clock }
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<'_, S> {
    fn prepare(&mut self, slot: &WorkflowSlot<'_>, profile: &ExecProfile) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.prepare(slot, profile))
    }

    fn push_ready(&mut self, task: TaskId, stage: StageId) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.push_ready(task, stage))
    }

    fn push_resubmit(&mut self, task: TaskId) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.push_resubmit(task))
    }

    fn pop(&mut self) -> Option<TaskId> {
        let inner = &mut self.inner;
        self.clock.time(|| inner.pop())
    }

    fn iter_in_order(&self) -> Box<dyn Iterator<Item = TaskId> + '_> {
        let order: Vec<TaskId> = self.clock.time(|| self.inner.iter_in_order().collect());
        Box::new(order.into_iter())
    }

    fn len(&self) -> usize {
        self.clock.time(|| self.inner.len())
    }

    fn is_empty(&self) -> bool {
        self.clock.time(|| self.inner.is_empty())
    }
}

/// Collects the engine's own per-tick controller time (`TickStats`), the
/// source of the untraced plan-latency percentiles.
pub struct TickLog<'v>(pub &'v RefCell<Vec<u64>>);

impl Recorder for TickLog<'_> {
    fn record(&mut self, _at: Millis, _event: TelemetryEvent) {}

    fn tick(&mut self, _at: Millis, stats: TickStats) {
        self.0.borrow_mut().push(stats.controller_micros);
    }
}
