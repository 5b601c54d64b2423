//! Human-readable run traces, projected from the telemetry event stream.
//!
//! The engine has one emission path, the [`TelemetryEvent`] stream. A
//! [`RunTrace`] is rebuilt from a recorded stream after the run by
//! [`RunTrace::from_events`]; it exists for debugging, examples, utilization
//! plots and `wire run --trace-out`.

use crate::instance::InstanceId;
use wire_dag::{Millis, TaskId, WorkflowId};
use wire_telemetry::TelemetryEvent;

/// One trace row; its `Debug` form is what [`RunTrace::render`] prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    InstanceRequested {
        instance: InstanceId,
    },
    InstanceReady {
        instance: InstanceId,
    },
    InstanceDraining {
        instance: InstanceId,
        until: Millis,
    },
    InstanceTerminated {
        instance: InstanceId,
        units: u64,
    },
    InstanceFailed {
        instance: InstanceId,
    },
    TaskDispatched {
        task: TaskId,
        instance: InstanceId,
    },
    TaskCompleted {
        task: TaskId,
    },
    TaskResubmitted {
        task: TaskId,
        sunk: Millis,
    },
    MapeTick {
        pool: u32,
        launch: u32,
        terminate: u32,
    },
    WorkflowDone,
    /// Multi-workflow sessions only, like the telemetry it projects.
    WorkflowSubmitted {
        workflow: WorkflowId,
        tasks: u32,
    },
    /// Multi-workflow sessions only; `makespan` includes the teardown.
    WorkflowCompleted {
        workflow: WorkflowId,
        makespan: Millis,
    },
    /// Never present on on-demand-only runs.
    SpotEvicted {
        instance: InstanceId,
    },
    /// Never present without a memory profile.
    TaskOom {
        task: TaskId,
        sunk: Millis,
    },
}

/// Time-ordered event trace of a run.
#[derive(Debug, Clone)]
pub struct RunTrace {
    pub events: Vec<(Millis, TraceEvent)>,
}

impl RunTrace {
    /// Project a recorded telemetry stream (e.g. a `TelemetryHandle`'s
    /// buffer) onto trace rows:
    ///
    /// * lifecycle kinds map one-to-one, raw ids wrapped in their newtypes;
    /// * a tick's `pool` counts every live instance (running + launching +
    ///   draining), and `launch`/`terminate` are the plan's sizes;
    /// * `TaskOom` takes its `sunk` time from the `TaskResubmitted` the
    ///   engine emits right after it;
    /// * the trace ends at `WorkflowDone` (the teardown bills that follow
    ///   are not trace rows), and telemetry-only kinds are skipped.
    pub fn from_events(events: &[(Millis, TelemetryEvent)]) -> RunTrace {
        let mut rows = Vec::with_capacity(events.len());
        for (i, &(at, ev)) in events.iter().enumerate() {
            let row = match ev {
                TelemetryEvent::InstanceRequested { instance } => TraceEvent::InstanceRequested {
                    instance: InstanceId(instance),
                },
                TelemetryEvent::InstanceReady { instance } => TraceEvent::InstanceReady {
                    instance: InstanceId(instance),
                },
                TelemetryEvent::InstanceDraining { instance, until } => {
                    TraceEvent::InstanceDraining {
                        instance: InstanceId(instance),
                        until,
                    }
                }
                TelemetryEvent::InstanceTerminated { instance, units } => {
                    TraceEvent::InstanceTerminated {
                        instance: InstanceId(instance),
                        units,
                    }
                }
                TelemetryEvent::InstanceFailed { instance } => TraceEvent::InstanceFailed {
                    instance: InstanceId(instance),
                },
                TelemetryEvent::SpotEvicted { instance } => TraceEvent::SpotEvicted {
                    instance: InstanceId(instance),
                },
                TelemetryEvent::TaskDispatched { task, instance, .. } => {
                    TraceEvent::TaskDispatched {
                        task: TaskId(task),
                        instance: InstanceId(instance),
                    }
                }
                TelemetryEvent::TaskCompleted { task, .. } => {
                    TraceEvent::TaskCompleted { task: TaskId(task) }
                }
                TelemetryEvent::TaskResubmitted { task, sunk, .. } => TraceEvent::TaskResubmitted {
                    task: TaskId(task),
                    sunk,
                },
                TelemetryEvent::TaskOom { task, .. } => {
                    // the kill's own TaskResubmitted follows at once
                    let sunk = match events.get(i + 1) {
                        Some(&(_, TelemetryEvent::TaskResubmitted { sunk, .. })) => sunk,
                        _ => Millis::ZERO,
                    };
                    TraceEvent::TaskOom {
                        task: TaskId(task),
                        sunk,
                    }
                }
                TelemetryEvent::MapeTick {
                    pool,
                    launching,
                    draining,
                    plan_launch,
                    plan_terminate,
                    ..
                } => TraceEvent::MapeTick {
                    pool: pool + launching + draining,
                    launch: plan_launch,
                    terminate: plan_terminate,
                },
                TelemetryEvent::WorkflowSubmitted { workflow, tasks } => {
                    TraceEvent::WorkflowSubmitted {
                        workflow: WorkflowId(workflow),
                        tasks,
                    }
                }
                TelemetryEvent::WorkflowCompleted {
                    workflow, makespan, ..
                } => TraceEvent::WorkflowCompleted {
                    workflow: WorkflowId(workflow),
                    makespan,
                },
                TelemetryEvent::WorkflowDone => {
                    rows.push((at, TraceEvent::WorkflowDone));
                    break;
                }
                TelemetryEvent::RunSetupDone
                | TelemetryEvent::WorkflowReady { .. }
                | TelemetryEvent::ChaosFault { .. }
                | TelemetryEvent::InstanceFamilyAssigned { .. }
                | TelemetryEvent::BudgetVerdict { .. } => continue,
            };
            rows.push((at, row));
        }
        RunTrace { events: rows }
    }

    /// Render a human-readable log (for examples / debugging).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.events.len() * 48);
        for (t, ev) in &self.events {
            let _ = writeln!(out, "[{t:>10}] {ev:?}");
        }
        out
    }

    /// Flatten to CSV: `time_ms,kind,detail` rows for external tooling.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("time_ms,kind,detail\n");
        for (t, ev) in &self.events {
            let (kind, detail) = match ev {
                TraceEvent::InstanceRequested { instance } => {
                    ("instance_requested", format!("{instance}"))
                }
                TraceEvent::InstanceReady { instance } => ("instance_ready", format!("{instance}")),
                TraceEvent::InstanceDraining { instance, until } => {
                    ("instance_draining", format!("{instance} until={until}"))
                }
                TraceEvent::InstanceTerminated { instance, units } => {
                    ("instance_terminated", format!("{instance} units={units}"))
                }
                TraceEvent::InstanceFailed { instance } => {
                    ("instance_failed", format!("{instance}"))
                }
                TraceEvent::TaskDispatched { task, instance } => {
                    ("task_dispatched", format!("{task} on={instance}"))
                }
                TraceEvent::TaskCompleted { task } => ("task_completed", format!("{task}")),
                TraceEvent::TaskResubmitted { task, sunk } => {
                    ("task_resubmitted", format!("{task} sunk={sunk}"))
                }
                TraceEvent::MapeTick {
                    pool,
                    launch,
                    terminate,
                } => (
                    "mape_tick",
                    format!("pool={pool} launch={launch} terminate={terminate}"),
                ),
                TraceEvent::WorkflowDone => ("workflow_done", String::new()),
                TraceEvent::WorkflowSubmitted { workflow, tasks } => {
                    ("workflow_submitted", format!("{workflow} tasks={tasks}"))
                }
                TraceEvent::WorkflowCompleted { workflow, makespan } => (
                    "workflow_completed",
                    format!("{workflow} makespan={makespan}"),
                ),
                TraceEvent::SpotEvicted { instance } => ("spot_evicted", format!("{instance}")),
                TraceEvent::TaskOom { task, sunk } => ("task_oom", format!("{task} sunk={sunk}")),
            };
            let _ = writeln!(out, "{},{kind},{detail}", t.as_ms());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_accumulates_in_order() {
        let s = Millis::from_secs;
        let tr = RunTrace::from_events(&[
            (s(0), TelemetryEvent::RunSetupDone),
            (s(1), TelemetryEvent::InstanceRequested { instance: 0 }),
            (
                s(2),
                TelemetryEvent::MapeTick {
                    pool: 1,
                    launching: 2,
                    draining: 3,
                    ready: 9,
                    running: 9,
                    done: 9,
                    plan_launch: 4,
                    plan_terminate: 5,
                },
            ),
            (
                s(3),
                TelemetryEvent::TaskOom {
                    task: 7,
                    instance: 0,
                    demand_mb: 1,
                    peak_mb: 2,
                },
            ),
            (
                s(3),
                TelemetryEvent::TaskResubmitted {
                    task: 7,
                    instance: 0,
                    slot: 0,
                    sunk: s(6),
                },
            ),
            (s(4), TelemetryEvent::WorkflowDone),
            (
                s(4),
                TelemetryEvent::InstanceTerminated {
                    instance: 0,
                    units: 1,
                },
            ),
        ]);
        assert_eq!(
            tr.events,
            vec![
                (
                    s(1),
                    TraceEvent::InstanceRequested {
                        instance: InstanceId(0)
                    }
                ),
                (
                    s(2),
                    TraceEvent::MapeTick {
                        pool: 6,
                        launch: 4,
                        terminate: 5
                    }
                ),
                (
                    s(3),
                    TraceEvent::TaskOom {
                        task: TaskId(7),
                        sunk: s(6)
                    }
                ),
                (
                    s(3),
                    TraceEvent::TaskResubmitted {
                        task: TaskId(7),
                        sunk: s(6)
                    }
                ),
                (s(4), TraceEvent::WorkflowDone),
            ]
        );
        assert!(tr.render().contains("WorkflowDone"));
        let csv = tr.to_csv();
        assert!(csv.starts_with("time_ms,kind,detail"));
        assert!(csv.contains("instance_requested,i0"));
        assert!(csv.contains("mape_tick,pool=6 launch=4 terminate=5"));
        assert!(csv.contains("workflow_done"));
    }
}
