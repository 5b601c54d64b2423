//! The online workflow simulation of §III-B2.
//!
//! Each MAPE iteration, WIRE simulates the arrived workflows' execution over
//! the next interval (length = the lag time `t`) on the *current* allotment,
//! using the predictor's conservative minimum occupancy estimates. The output
//! is the *upcoming load* `Q_task` — the tasks expected to be active at the
//! start of the target interval, each with its predicted minimum remaining
//! occupancy — plus, per current instance, the *restart cost* (maximum sunk
//! occupancy of any task projected to be running on it at that time,
//! Algorithm 2's `c_j`).
//!
//! The projection assumes the framework's own dispatch order (priority FIFO;
//! §III-D notes the controller's predicted assignment may drift from the true
//! schedule with minor effect). Draining instances are projected to keep
//! their running tasks but accept no new ones.
//!
//! The projection runs every MAPE tick, so it is engineered allocation-free
//! in steady state: callers hold a [`LookaheadScratch`] and use
//! [`lookahead_into`], which reuses every working buffer (event heap, backlog,
//! dependency counters) and the output [`Upcoming`] across ticks. The
//! [`lookahead`] wrapper allocates a fresh scratch per call for one-shot use.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use wire_dag::{Millis, TaskId};
use wire_simcloud::{InstanceId, InstanceStateView, MonitorSnapshot, TaskView};

/// Sentinel for "no entry" in the dense index columns.
const NONE: u32 = u32::MAX;

/// The upcoming load at the start of the next interval.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Upcoming {
    /// `Q_task`: (task, predicted minimum remaining occupancy), in projected
    /// dispatch order — projected-running tasks first, then the queued
    /// backlog.
    pub q_task: Vec<(TaskId, Millis)>,
    /// `c_j` per current instance: the restart cost if the instance were
    /// released at the start of the next interval. Rows are in
    /// `snapshot.instances` order.
    pub restart_cost: Vec<(InstanceId, Millis)>,
    /// Per current instance: predicted occupancy *beyond* the horizon from
    /// the tasks running on it now — the steering policy's "confidence that
    /// the workflow can continue to use it efficiently" (§III-B3). An
    /// instance whose tasks are predicted to keep it busy past the next
    /// interval is not released even when its restart cost is low. Rows are
    /// in `snapshot.instances` order.
    pub projected_busy: Vec<(InstanceId, Millis)>,
    /// The occupancy column of `q_task`, maintained alongside it so
    /// [`Upcoming::occupancies`] is a borrow, not a per-tick clone.
    occ: Vec<Millis>,
    /// Instance id → row in `restart_cost`/`projected_busy` ([`NONE`] when
    /// the id was not in the snapshot), making the `_of` lookups O(1).
    inst_row: Vec<u32>,
}

impl Upcoming {
    /// The occupancy column of `Q_task` (what Algorithm 3 consumes).
    pub fn occupancies(&self) -> &[Millis] {
        &self.occ
    }

    fn row_of(&self, id: InstanceId) -> Option<usize> {
        match self.inst_row.get(id.0 as usize).copied() {
            Some(row) if row != NONE => Some(row as usize),
            _ => None,
        }
    }

    pub fn restart_cost_of(&self, id: InstanceId) -> Option<Millis> {
        self.row_of(id).map(|r| self.restart_cost[r].1)
    }

    pub fn projected_busy_of(&self, id: InstanceId) -> Option<Millis> {
        self.row_of(id).map(|r| self.projected_busy[r].1)
    }
}

/// A projected running task. (Completion times live in the event queue; the
/// struct tracks what the horizon harvest needs.)
#[derive(Debug, Clone, Copy)]
struct SimRunning {
    task: TaskId,
    instance: InstanceId,
    started_at: Millis,
    /// Sunk occupancy the task already had at projection time 0.
    sunk_at_0: Millis,
}

/// Projection events, ordered by (time, kind, id): a slot opening at time τ is
/// offered to the backlog before completions at the same τ are processed —
/// both orders are defensible; this one is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SimEvent {
    SlotOpens { at: Millis, instance: InstanceId },
    Completes { at: Millis, task: TaskId },
}

impl SimEvent {
    fn at(&self) -> Millis {
        match *self {
            SimEvent::SlotOpens { at, .. } | SimEvent::Completes { at, .. } => at,
        }
    }

    fn key(&self) -> (Millis, u8, u32) {
        match *self {
            SimEvent::SlotOpens { at, instance } => (at, 0, instance.0),
            SimEvent::Completes { at, task } => (at, 1, task.0),
        }
    }
}

/// Reusable working state for [`lookahead_into`]: every buffer the projection
/// touches, plus the output [`Upcoming`]. Hold one per control loop and the
/// per-tick projection allocates nothing once the buffers have grown to the
/// workflow's size.
#[derive(Debug, Clone, Default)]
pub struct LookaheadScratch {
    /// Per task: projected to complete within the horizon. Persistent: each
    /// call first clears the marks of the last call's `Completes` events
    /// (still in `event_payload`), so no call pays for the tasks that
    /// finished long ago.
    projected_done: Vec<bool>,
    /// Per task: count of unmet dependencies. Written every call for each
    /// live task (the only rows the completion cascade reads).
    unmet: Vec<u32>,
    /// Queued tasks in the framework's dispatch order.
    backlog: VecDeque<TaskId>,
    /// Projected-running tasks (unordered; see `running_slot`).
    running: Vec<SimRunning>,
    /// Per task: its index in `running`, or [`NONE`] — completions resolve in
    /// O(1) instead of a per-event linear scan of the running set. Persistent
    /// and never reset: a row is only read for a task whose completion event
    /// this call pushed, and pushing it wrote the row.
    running_slot: Vec<u32>,
    /// Event heap entries carry (time, kind, id, payload index): pops stay
    /// ordered and decode is O(1).
    events: BinaryHeap<Reverse<(Millis, u8, u32, u32)>>,
    event_payload: Vec<SimEvent>,
    /// Free slots available now, per accepting instance (FIFO).
    free_now: VecDeque<InstanceId>,
    /// Per snapshot-instance row: is the instance draining?
    draining: Vec<bool>,
    /// Per snapshot-instance row: max projected sunk occupancy at the horizon.
    projected_max: Vec<Millis>,
    /// The output, rebuilt in place each call.
    out: Upcoming,
}

/// Simulate the next `horizon` of execution and return the upcoming load.
///
/// One-shot convenience over [`lookahead_into`]: allocates a fresh
/// [`LookaheadScratch`] per call. Control loops should hold a scratch and
/// call [`lookahead_into`] instead.
pub fn lookahead(
    snapshot: &MonitorSnapshot<'_>,
    remaining: &[Millis],
    values: &[Millis],
    horizon: Millis,
) -> Upcoming {
    let mut scratch = LookaheadScratch::default();
    lookahead_into(&mut scratch, snapshot, remaining, values, horizon);
    scratch.out
}

/// Simulate the next `horizon` of execution into `scratch`, returning the
/// upcoming load borrowed from it.
///
/// Two per-task arrays drive the projection:
///
/// * `remaining[t]` — the predicted minimum *remaining* occupancy (estimate
///   minus observed age for running tasks). This decides *which* tasks
///   complete within the horizon, i.e. the membership of `Q_task`.
/// * `values[t]` — the occupancy each still-active task contributes to
///   `Q_task`: its full current estimate `t_i`. The paper's §III-E arithmetic
///   requires this ("after U/N time units the algorithm predicts that the N
///   tasks of the stage will consume an entire instance-unit": all N tasks are
///   valued at the full estimate, progress is not credited) — valuing active
///   tasks at `t_i − age` instead makes Algorithm 3 treat busy instances as
///   imminently reusable capacity and stalls pool growth at ~N/2.
///
/// Entries for done tasks are ignored.
pub fn lookahead_into<'s>(
    scratch: &'s mut LookaheadScratch,
    snapshot: &MonitorSnapshot<'_>,
    remaining: &[Millis],
    values: &[Millis],
    horizon: Millis,
) -> &'s Upcoming {
    let n = snapshot.tasks.len();
    assert_eq!(remaining.len(), n, "estimate per task required");
    assert_eq!(values.len(), n, "value per task required");

    // Disjoint borrows of every buffer, so the dispatch macro and closures
    // below can mix them freely.
    let LookaheadScratch {
        projected_done,
        unmet,
        backlog,
        running,
        running_slot,
        events,
        event_payload,
        free_now,
        draining,
        projected_max,
        out,
    } = scratch;

    // The per-task columns only ever grow, so a scratch reused on a smaller
    // snapshot keeps valid (reset) rows past its end. Only the rows the last
    // call marked projected-done need resetting, and its completion events
    // name them all. (A separate list of the marks would do too, but that
    // extra buffer, growing mid-run between the large per-task allocations,
    // measured ~3% more peak RSS on a 1 000-workflow shared-pool session.)
    for ev in event_payload.drain(..) {
        if let SimEvent::Completes { task, .. } = ev {
            projected_done[task.index()] = false;
        }
    }
    running.clear();
    if projected_done.len() < n {
        projected_done.resize(n, false);
        unmet.resize(n, 0);
        running_slot.resize(n, NONE);
    }
    events.clear();
    free_now.clear();

    // queued backlog in the framework's dispatch order
    backlog.clear();
    backlog.extend(snapshot.ready_in_dispatch_order.iter().copied());

    // dense per-instance columns, in snapshot.instances row order
    let max_id = snapshot
        .instances
        .iter()
        .map(|iv| iv.id.0 as usize + 1)
        .max()
        .unwrap_or(0);
    out.inst_row.clear();
    out.inst_row.resize(max_id, NONE);
    draining.clear();
    projected_max.clear();
    projected_max.resize(snapshot.instances.len(), Millis::ZERO);
    for (row, iv) in snapshot.instances.iter().enumerate() {
        out.inst_row[iv.id.0 as usize] = row as u32;
        draining.push(matches!(iv.state, InstanceStateView::Draining { .. }));
    }

    let push_event = |events: &mut BinaryHeap<Reverse<(Millis, u8, u32, u32)>>,
                      payloads: &mut Vec<SimEvent>,
                      ev: SimEvent| {
        let (at, kind, id) = ev.key();
        debug_assert!(ev.at() == at);
        events.push(Reverse((at, kind, id, payloads.len() as u32)));
        payloads.push(ev);
    };

    for iv in snapshot.instances {
        match iv.state {
            InstanceStateView::Running { .. } => {
                for _ in 0..iv.free_slots {
                    free_now.push_back(iv.id);
                }
            }
            InstanceStateView::Launching { ready_at } => {
                let at = ready_at.saturating_sub(snapshot.now);
                for _ in 0..iv.free_slots {
                    if at.is_zero() {
                        free_now.push_back(iv.id);
                    } else if at < horizon {
                        push_event(
                            events,
                            event_payload,
                            SimEvent::SlotOpens {
                                at,
                                instance: iv.id,
                            },
                        );
                    }
                }
            }
            InstanceStateView::Draining { .. } => {
                // keeps its running tasks, accepts nothing new
            }
        }
    }

    // One walk over the live tasks: dependency counts for the blocked ones
    // (only they can be released by a projected completion; every other
    // live row is zeroed so no stale count survives), projected-running
    // entries for the running ones. Dependency edges are workflow-local, so
    // predecessors resolve through the task's slot.
    for t in snapshot.live_tasks() {
        let i = t.id.index();
        unmet[i] = match t.view {
            TaskView::Unready => {
                let local = t.slot.local_task(t.id);
                t.slot
                    .workflow
                    .preds(local)
                    .iter()
                    .filter(|&&p| !snapshot.tasks[t.slot.global_task(p).index()].is_done())
                    .count() as u32
            }
            _ => 0,
        };
        if let TaskView::Running {
            instance,
            occupied_for,
            ..
        } = t.view
        {
            // An *overdue* running task (conservative minimum remaining
            // already elapsed) is "about to complete" but has not been
            // observed to — it stays active through the horizon, holding its
            // slot. Without this pin, the oldest half of a stage melts out of
            // Q_task and its slots absorb the backlog, stalling pool growth
            // at ~N/2 (the §III-E arithmetic requires all N active tasks to
            // keep contributing to the predicted load).
            let finish_at = if remaining[i].is_zero() {
                Millis::MAX
            } else {
                remaining[i]
            };
            running_slot[i] = running.len() as u32;
            running.push(SimRunning {
                task: t.id,
                instance,
                started_at: Millis::ZERO,
                sunk_at_0: occupied_for,
            });
            if finish_at < horizon {
                push_event(
                    events,
                    event_payload,
                    SimEvent::Completes {
                        at: finish_at,
                        task: t.id,
                    },
                );
            }
        }
    }

    // dispatch helper: fill currently free slots from the backlog
    macro_rules! dispatch {
        ($now:expr) => {
            while !backlog.is_empty() && !free_now.is_empty() {
                let instance = free_now.pop_front().expect("non-empty");
                let task = backlog.pop_front().expect("non-empty");
                let finish_at = $now + remaining[task.index()];
                running_slot[task.index()] = running.len() as u32;
                running.push(SimRunning {
                    task,
                    instance,
                    started_at: $now,
                    sunk_at_0: Millis::ZERO,
                });
                push_event(
                    events,
                    event_payload,
                    SimEvent::Completes {
                        at: finish_at,
                        task,
                    },
                );
            }
        };
    }

    dispatch!(Millis::ZERO);

    while let Some(&Reverse(key)) = events.peek() {
        if key.0 >= horizon {
            break;
        }
        events.pop();
        let ev = event_payload[key.3 as usize];
        match ev {
            SimEvent::SlotOpens { at, instance } => {
                free_now.push_back(instance);
                dispatch!(at);
            }
            SimEvent::Completes { at, task } => {
                let slot = running_slot[task.index()];
                if slot == NONE {
                    continue; // stale
                }
                let pos = slot as usize;
                let fin = running.swap_remove(pos);
                running_slot[task.index()] = NONE;
                if let Some(moved) = running.get(pos) {
                    running_slot[moved.task.index()] = pos as u32;
                }
                projected_done[task.index()] = true;
                let fin_row = out
                    .inst_row
                    .get(fin.instance.0 as usize)
                    .copied()
                    .unwrap_or(NONE);
                if fin_row == NONE || !draining[fin_row as usize] {
                    free_now.push_back(fin.instance);
                }
                let slot = snapshot.slot_of_task(task);
                for &s in slot.workflow.succs(slot.local_task(task)) {
                    let s = slot.global_task(s);
                    if !snapshot.tasks[s.index()].is_done()
                        && !projected_done[s.index()]
                        && unmet[s.index()] > 0
                    {
                        unmet[s.index()] -= 1;
                        if unmet[s.index()] == 0 {
                            backlog.push_back(s);
                        }
                    }
                }
                dispatch!(at);
            }
        }
    }

    // --- harvest the state at the horizon ----------------------------------
    // task ids are unique, so the unstable sort is deterministic (and does
    // not allocate the merge buffer a stable sort would)
    running.sort_unstable_by_key(|r| r.task);
    out.q_task.clear();
    out.occ.clear();
    out.q_task.reserve(running.len() + backlog.len());
    for r in running.iter() {
        out.q_task.push((r.task, values[r.task.index()]));
    }
    for &t in backlog.iter() {
        out.q_task.push((t, values[t.index()]));
    }
    out.occ.extend(out.q_task.iter().map(|&(_, t)| t));

    // Restart cost `c_j`: the sunk occupancy that would be lost by releasing
    // the instance at the interval start. The projection uses conservative
    // *minimum* remaining occupancies, so a task projected to complete within
    // the horizon may in reality still be running — releasing its instance
    // would throw away its entire sunk cost. The load estimate must stay
    // conservative-low (never over-provision), but the release decision must
    // stay conservative-high: take the max over (a) tasks running *now*
    // assumed to still be occupying their slot at the horizon, and (b) tasks
    // the projection newly placed on the instance.
    //
    // Both per-instance tables are built in single passes over dense row
    // columns: a nested instances × tasks scan makes wide pools (Figure 2's
    // N = 1000 sweeps) quadratic per tick.
    for r in running.iter() {
        let c = r.sunk_at_0 + (horizon - r.started_at);
        let row = out
            .inst_row
            .get(r.instance.0 as usize)
            .copied()
            .unwrap_or(NONE);
        if row != NONE {
            projected_max[row as usize] = projected_max[row as usize].max(c);
        }
    }
    out.restart_cost.clear();
    out.projected_busy.clear();
    for (row, iv) in snapshot.instances.iter().enumerate() {
        let still_running = iv
            .tasks
            .iter()
            .filter_map(|t| match snapshot.tasks[t.index()] {
                TaskView::Running { occupied_for, .. } => Some(occupied_for + horizon),
                _ => None,
            })
            .max()
            .unwrap_or(Millis::ZERO);
        out.restart_cost
            .push((iv.id, projected_max[row].max(still_running)));

        // Predicted occupancy of each instance beyond the horizon, from the
        // tasks running on it at snapshot time (overdue tasks contribute zero
        // here; their protection comes from the pessimistic restart cost).
        let busy = iv
            .tasks
            .iter()
            .map(|t| remaining[t.index()].saturating_sub(horizon))
            .max()
            .unwrap_or(Millis::ZERO);
        out.projected_busy.push((iv.id, busy));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire_dag::{Workflow, WorkflowBuilder};
    use wire_simcloud::{CloudConfig, InstanceView, SnapshotBuffers, WorkflowSlot};

    fn mins(m: u64) -> Millis {
        Millis::from_mins(m)
    }

    /// chain of `n` tasks in one stage
    fn chain(n: usize) -> Workflow {
        let mut b = WorkflowBuilder::new("chain");
        let s = b.add_stage("s");
        let ts: Vec<TaskId> = (0..n).map(|_| b.add_task(s, 0, 0)).collect();
        for w in ts.windows(2) {
            b.add_dep(w[0], w[1]).unwrap();
        }
        b.build().unwrap()
    }

    fn config(l: u32) -> CloudConfig {
        CloudConfig {
            slots_per_instance: l,
            ..CloudConfig::default()
        }
    }

    fn inst(id: u32, state: InstanceStateView, tasks: Vec<TaskId>, l: u32) -> InstanceView {
        let free = l - tasks.len() as u32;
        InstanceView {
            id: InstanceId(id),
            state,
            tasks,
            free_slots: free,
            family: 0,
        }
    }

    fn snapshot<'a>(
        wf: &'a Workflow,
        cfg: &'a CloudConfig,
        tasks: Vec<TaskView>,
        instances: Vec<InstanceView>,
        ready: Vec<TaskId>,
    ) -> MonitorSnapshot<'a> {
        // Snapshots borrow their backing store; leaking the buffers keeps
        // this fixture a one-liner at call sites (test-only, bounded).
        let bufs: &'a SnapshotBuffers = Box::leak(Box::new(SnapshotBuffers {
            tasks,
            instances,
            new_completions: vec![],
            interval_transfers: vec![],
            interval_ooms: 0,
            ready_in_dispatch_order: ready,
            spent_milli: 0,
        }));
        let slots: &'a [WorkflowSlot<'a>] = Box::leak(Box::new([WorkflowSlot::solo(wf)]));
        bufs.snapshot(Millis::ZERO, slots, cfg)
    }

    #[test]
    fn running_task_past_horizon_stays_in_q() {
        let wf = chain(2);
        let cfg = config(1);
        let snap = snapshot(
            &wf,
            &cfg,
            vec![
                TaskView::Running {
                    instance: InstanceId(0),
                    exec_age: mins(2),
                    occupied_for: mins(2),
                },
                TaskView::Unready,
            ],
            vec![inst(
                0,
                InstanceStateView::Running {
                    charge_start: Millis::ZERO,
                },
                vec![TaskId(0)],
                1,
            )],
            vec![],
        );
        // task 0 predicted to need 10 more minutes (12 total); horizon 3 min
        let remaining = vec![mins(10), mins(5)];
        let values = vec![mins(12), mins(5)];
        let up = lookahead(&snap, &remaining, &values, mins(3));
        // still active at the horizon, valued at its full estimate
        assert_eq!(up.q_task, vec![(TaskId(0), mins(12))]);
        assert_eq!(up.occupancies(), &[mins(12)]);
        // restart cost: already sunk 2 min + 3 min of the interval
        assert_eq!(up.restart_cost_of(InstanceId(0)), Some(mins(5)));
        assert_eq!(up.restart_cost_of(InstanceId(9)), None);
    }

    #[test]
    fn completion_within_horizon_cascades_to_successor() {
        let wf = chain(2);
        let cfg = config(1);
        let snap = snapshot(
            &wf,
            &cfg,
            vec![
                TaskView::Running {
                    instance: InstanceId(0),
                    exec_age: mins(9),
                    occupied_for: mins(9),
                },
                TaskView::Unready,
            ],
            vec![inst(
                0,
                InstanceStateView::Running {
                    charge_start: Millis::ZERO,
                },
                vec![TaskId(0)],
                1,
            )],
            vec![],
        );
        // task 0 finishes in 1 min; successor predicted at 5 min
        let remaining = vec![mins(1), mins(5)];
        let values = vec![mins(10), mins(5)];
        let up = lookahead(&snap, &remaining, &values, mins(3));
        // successor started at minute 1, still active, full estimate
        assert_eq!(up.q_task, vec![(TaskId(1), mins(5))]);
        // restart cost stays pessimistic: the predicted completion of task 0
        // (a conservative *minimum*) may not have happened, in which case the
        // instance still holds 9 + 3 = 12 minutes of sunk occupancy
        assert_eq!(up.restart_cost_of(InstanceId(0)), Some(mins(12)));
    }

    #[test]
    fn backlog_remains_when_no_capacity() {
        // 4 ready tasks, one 1-slot instance
        let mut b = WorkflowBuilder::new("fan");
        let s = b.add_stage("s");
        for _ in 0..4 {
            b.add_task(s, 0, 0);
        }
        let wf = b.build().unwrap();
        let cfg = config(1);
        let ready: Vec<TaskId> = wf.task_ids().collect();
        let snap = snapshot(
            &wf,
            &cfg,
            vec![TaskView::Ready; 4],
            vec![inst(
                0,
                InstanceStateView::Running {
                    charge_start: Millis::ZERO,
                },
                vec![],
                1,
            )],
            ready,
        );
        let estimates = vec![mins(10); 4];
        let up = lookahead(&snap, &estimates, &estimates, mins(3));
        // t0 runs; t1..t3 queued; all at full occupancy estimates
        assert_eq!(
            up.q_task,
            vec![
                (TaskId(0), mins(10)),
                (TaskId(1), mins(10)),
                (TaskId(2), mins(10)),
                (TaskId(3), mins(10)),
            ]
        );
    }

    #[test]
    fn launching_instance_opens_mid_horizon() {
        let mut b = WorkflowBuilder::new("fan2");
        let s = b.add_stage("s");
        for _ in 0..2 {
            b.add_task(s, 0, 0);
        }
        let wf = b.build().unwrap();
        let cfg = config(1);
        let snap = snapshot(
            &wf,
            &cfg,
            vec![TaskView::Ready; 2],
            vec![
                inst(
                    0,
                    InstanceStateView::Running {
                        charge_start: Millis::ZERO,
                    },
                    vec![],
                    1,
                ),
                inst(
                    1,
                    InstanceStateView::Launching { ready_at: mins(1) },
                    vec![],
                    1,
                ),
            ],
            wf.task_ids().collect(),
        );
        let estimates = vec![mins(10), mins(10)];
        let up = lookahead(&snap, &estimates, &estimates, mins(3));
        // t0 on i0 from 0, t1 on i1 from minute 1; both active, full values
        assert_eq!(
            up.q_task,
            vec![(TaskId(0), mins(10)), (TaskId(1), mins(10))]
        );
        assert_eq!(up.restart_cost_of(InstanceId(1)), Some(mins(2)));
    }

    #[test]
    fn draining_instance_keeps_task_but_takes_no_new_work() {
        let mut b = WorkflowBuilder::new("fan3");
        let s = b.add_stage("s");
        for _ in 0..2 {
            b.add_task(s, 0, 0);
        }
        let wf = b.build().unwrap();
        let cfg = config(1);
        let snap = snapshot(
            &wf,
            &cfg,
            vec![
                TaskView::Running {
                    instance: InstanceId(0),
                    exec_age: Millis::ZERO,
                    occupied_for: Millis::ZERO,
                },
                TaskView::Ready,
            ],
            vec![inst(
                0,
                InstanceStateView::Draining {
                    terminate_at: mins(10),
                },
                vec![TaskId(0)],
                1,
            )],
            vec![TaskId(1)],
        );
        // t0 completes in 1 min, but the freed draining slot must not take t1
        let estimates = vec![mins(1), mins(1)];
        let up = lookahead(&snap, &estimates, &estimates, mins(3));
        assert_eq!(up.q_task, vec![(TaskId(1), mins(1))]);
    }

    #[test]
    fn zero_estimates_cascade_instantly() {
        // A whole chain of zero-estimate tasks (Policy 1) collapses within the
        // horizon and contributes nothing to the load.
        let wf = chain(5);
        let cfg = config(1);
        let snap = snapshot(
            &wf,
            &cfg,
            {
                let mut v = vec![TaskView::Unready; 5];
                v[0] = TaskView::Ready;
                v
            },
            vec![inst(
                0,
                InstanceStateView::Running {
                    charge_start: Millis::ZERO,
                },
                vec![],
                1,
            )],
            vec![TaskId(0)],
        );
        let estimates = vec![Millis::ZERO; 5];
        let up = lookahead(&snap, &estimates, &estimates, mins(3));
        assert!(up.q_task.is_empty(), "{:?}", up.q_task);
    }

    #[test]
    fn overdue_running_task_stays_active_and_holds_its_slot() {
        // t0 overdue (remaining 0) on the only slot; t1 queued. The overdue
        // task must stay in Q at its full value and its slot must NOT free
        // for t1 — so t1 remains queued, justifying a new instance.
        let wf = chain(2);
        let cfg = config(1);
        let snap = snapshot(
            &wf,
            &cfg,
            vec![
                TaskView::Running {
                    instance: InstanceId(0),
                    exec_age: mins(12),
                    occupied_for: mins(12),
                },
                TaskView::Unready,
            ],
            vec![inst(
                0,
                InstanceStateView::Running {
                    charge_start: Millis::ZERO,
                },
                vec![TaskId(0)],
                1,
            )],
            vec![],
        );
        let remaining = vec![Millis::ZERO, mins(5)];
        let values = vec![mins(10), mins(5)];
        let up = lookahead(&snap, &remaining, &values, mins(3));
        assert_eq!(up.q_task, vec![(TaskId(0), mins(10))]);
        // pinned task keeps its sunk cost growing through the horizon
        assert_eq!(up.restart_cost_of(InstanceId(0)), Some(mins(15)));
    }

    #[test]
    fn estimates_length_is_checked() {
        let wf = chain(2);
        let cfg = config(1);
        let snap = snapshot(&wf, &cfg, vec![TaskView::Ready; 2], vec![], vec![]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lookahead(&snap, &[Millis::ZERO], &[Millis::ZERO], mins(3))
        }));
        assert!(result.is_err());
    }

    #[test]
    fn scratch_reuse_matches_one_shot_results() {
        // The same scratch driven through dissimilar snapshots (different
        // workflow sizes, pool shapes, drain states) must produce exactly what
        // a fresh per-call projection does — stale buffer contents must not
        // leak across ticks.
        let wf_a = chain(4);
        let wf_b = chain(2);
        let cfg = config(2);
        let snap_a = snapshot(
            &wf_a,
            &cfg,
            vec![
                TaskView::Running {
                    instance: InstanceId(3),
                    exec_age: mins(1),
                    occupied_for: mins(1),
                },
                TaskView::Unready,
                TaskView::Unready,
                TaskView::Unready,
            ],
            vec![
                inst(
                    3,
                    InstanceStateView::Running {
                        charge_start: Millis::ZERO,
                    },
                    vec![TaskId(0)],
                    2,
                ),
                inst(
                    5,
                    InstanceStateView::Draining {
                        terminate_at: mins(9),
                    },
                    vec![],
                    2,
                ),
            ],
            vec![],
        );
        let snap_b = snapshot(
            &wf_b,
            &cfg,
            vec![TaskView::Ready, TaskView::Unready],
            vec![inst(
                1,
                InstanceStateView::Running {
                    charge_start: Millis::ZERO,
                },
                vec![],
                2,
            )],
            vec![TaskId(0)],
        );
        let rem_a = vec![mins(2), mins(4), mins(4), mins(4)];
        let val_a = vec![mins(3), mins(4), mins(4), mins(4)];
        let rem_b = vec![mins(7), mins(7)];

        let mut scratch = LookaheadScratch::default();
        for _ in 0..3 {
            let got = lookahead_into(&mut scratch, &snap_a, &rem_a, &val_a, mins(3)).clone();
            assert_eq!(got, lookahead(&snap_a, &rem_a, &val_a, mins(3)));
            let got = lookahead_into(&mut scratch, &snap_b, &rem_b, &rem_b, mins(3)).clone();
            assert_eq!(got, lookahead(&snap_b, &rem_b, &rem_b, mins(3)));
        }
    }
}
