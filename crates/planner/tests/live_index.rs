//! Differential test of the live-task index: on random multi-workflow DAG
//! states, every per-task pass must give the same answer whether the
//! snapshot carries the engine's live index or leaves it out (the
//! `tasks[done_prefix..]` scan). One reused `LookaheadScratch` and one pair
//! of stateful policies are driven through snapshots that grow and shrink,
//! so stale per-task state left by a larger earlier call would show.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use wire_dag::{Millis, StageId, TaskId, Workflow, WorkflowBuilder, WorkflowId};
use wire_obs::StreamingRecorder;
use wire_planner::lookahead::{lookahead, lookahead_into, LookaheadScratch};
use wire_planner::WirePolicy;
use wire_simcloud::{
    CloudConfig, CompletionView, InstanceId, InstanceStateView, InstanceView, MonitorSnapshot,
    ScalingPolicy, SnapshotBuffers, TaskView, WorkflowSlot,
};

/// A random layered DAG: 1–3 stages of 1–6 tasks, each task depending on a
/// random subset of the previous stage.
fn random_workflow(rng: &mut StdRng, name: &str) -> Workflow {
    let mut b = WorkflowBuilder::new(name);
    let mut prev: Vec<TaskId> = Vec::new();
    for s in 0..rng.gen_range(1..4usize) {
        let stage = b.add_stage(format!("s{s}"));
        let mut cur = Vec::new();
        for _ in 0..rng.gen_range(1..7usize) {
            let t = b.add_task(
                stage,
                rng.gen_range(0..5_000u64),
                rng.gen_range(0..5_000u64),
            );
            for &p in &prev {
                if rng.gen_bool(0.4) {
                    b.add_dep(p, t).unwrap();
                }
            }
            cur.push(t);
        }
        prev = cur;
    }
    b.build().unwrap()
}

/// One random session state: the workflows, their slots' bases, and a
/// consistent snapshot backing (a task is Done/Ready/Running only once all
/// its predecessors are Done; running tasks sit on live instances).
struct State {
    workflows: Vec<Workflow>,
    bufs: SnapshotBuffers,
    live: Vec<TaskId>,
    done_prefix: usize,
    cfg: CloudConfig,
    now: Millis,
}

impl State {
    fn random(rng: &mut StdRng, n_workflows: usize, now: Millis) -> State {
        let workflows: Vec<Workflow> = (0..n_workflows)
            .map(|i| random_workflow(rng, &format!("w{i}")))
            .collect();
        let l = rng.gen_range(1..4u32);
        let cfg = CloudConfig {
            slots_per_instance: l,
            ..CloudConfig::default()
        };
        // earlier workflows are further along, as in a streaming session
        let mut tasks: Vec<TaskView> = Vec::new();
        for (w, wf) in workflows.iter().enumerate() {
            let p_done = 0.85 - 0.7 * (w as f64 / n_workflows as f64);
            let base = tasks.len();
            for t in wf.task_ids() {
                let preds_done = wf
                    .preds(t)
                    .iter()
                    .all(|p| tasks[base + p.index()].is_done());
                let view = if !preds_done {
                    TaskView::Unready
                } else if rng.gen_bool(p_done) {
                    TaskView::Done {
                        exec_time: Millis::from_secs(rng.gen_range(1..600u64)),
                        transfer_time: Millis::from_secs(rng.gen_range(0..30u64)),
                    }
                } else if rng.gen_bool(0.5) {
                    TaskView::Ready
                } else {
                    // instance filled in below
                    let exec_age = Millis::from_secs(rng.gen_range(0..900u64));
                    TaskView::Running {
                        instance: InstanceId(0),
                        exec_age,
                        occupied_for: exec_age + Millis::from_secs(rng.gen_range(0..60u64)),
                    }
                };
                tasks.push(view);
            }
        }

        // Running tasks fill Running and Draining instances in order; extra
        // idle Running and Launching instances offer free slots.
        let mut instances: Vec<InstanceView> = Vec::new();
        let running: Vec<usize> = (0..tasks.len())
            .filter(|&i| tasks[i].is_running())
            .collect();
        for chunk in running.chunks(l as usize) {
            let id = InstanceId(instances.len() as u32);
            let state = if rng.gen_bool(0.2) {
                InstanceStateView::Draining {
                    terminate_at: now + Millis::from_mins(rng.gen_range(1..10u64)),
                }
            } else {
                InstanceStateView::Running {
                    charge_start: Millis::from_secs(rng.gen_range(0..=now.as_ms() / 1000)),
                }
            };
            for &i in chunk {
                if let TaskView::Running { instance, .. } = &mut tasks[i] {
                    *instance = id;
                }
            }
            instances.push(InstanceView {
                id,
                state,
                tasks: chunk.iter().map(|&i| TaskId(i as u32)).collect(),
                free_slots: l - chunk.len() as u32,
                family: 0,
            });
        }
        for _ in 0..rng.gen_range(0..3usize) {
            let id = InstanceId(instances.len() as u32);
            let state = if rng.gen_bool(0.5) {
                InstanceStateView::Running {
                    charge_start: Millis::from_secs(rng.gen_range(0..=now.as_ms() / 1000)),
                }
            } else {
                InstanceStateView::Launching {
                    ready_at: now + Millis::from_secs(rng.gen_range(0..400u64)),
                }
            };
            instances.push(InstanceView {
                id,
                state,
                tasks: vec![],
                free_slots: l,
                family: 0,
            });
        }

        let mut ready: Vec<TaskId> = (0..tasks.len())
            .filter(|&i| tasks[i] == TaskView::Ready)
            .map(|i| TaskId(i as u32))
            .collect();
        ready.shuffle(rng);
        let mut completions = Vec::new();
        for (i, t) in tasks.iter().enumerate() {
            if let TaskView::Done {
                exec_time,
                transfer_time,
            } = *t
            {
                if rng.gen_bool(0.3) {
                    completions.push(CompletionView {
                        task: TaskId(i as u32),
                        input_bytes: rng.gen_range(0..5_000u64),
                        exec_time,
                        transfer_time,
                        peak_mb: 0,
                    });
                }
            }
        }
        let live: Vec<TaskId> = (0..tasks.len())
            .filter(|&i| !tasks[i].is_done())
            .map(|i| TaskId(i as u32))
            .collect();
        // the exact watermark, or any sound lower bound of it
        let watermark = tasks.iter().take_while(|t| t.is_done()).count();
        let done_prefix = if rng.gen_bool(0.5) {
            watermark
        } else {
            rng.gen_range(0..=watermark)
        };
        let transfers = (0..rng.gen_range(0..4usize))
            .map(|_| Millis::from_secs(rng.gen_range(0..40u64)))
            .collect();
        State {
            workflows,
            bufs: SnapshotBuffers {
                tasks,
                instances,
                new_completions: completions,
                interval_transfers: transfers,
                interval_ooms: 0,
                ready_in_dispatch_order: ready,
                spent_milli: 0,
            },
            live,
            done_prefix,
            cfg,
            now,
        }
    }

    fn slots(&self) -> Vec<WorkflowSlot<'_>> {
        let (mut task_base, mut stage_base) = (0u32, 0u32);
        self.workflows
            .iter()
            .enumerate()
            .map(|(i, wf)| {
                let slot = WorkflowSlot {
                    id: WorkflowId(i as u32),
                    workflow: wf,
                    submitted_at: Millis::from_mins(i as u64),
                    task_base,
                    stage_base,
                };
                task_base += wf.num_tasks() as u32;
                stage_base += wf.num_stages() as u32;
                slot
            })
            .collect()
    }

    /// The same state with and without the live index.
    fn snapshots<'a>(
        &'a self,
        slots: &'a [WorkflowSlot<'a>],
    ) -> (MonitorSnapshot<'a>, MonitorSnapshot<'a>) {
        let scan = MonitorSnapshot {
            done_prefix: self.done_prefix,
            ..self.bufs.snapshot(self.now, slots, &self.cfg)
        };
        let indexed = MonitorSnapshot {
            live: Some(&self.live),
            ..scan
        };
        (indexed, scan)
    }
}

/// Random estimate columns: some running tasks overdue (zero remaining).
fn estimates(rng: &mut StdRng, n: usize) -> (Vec<Millis>, Vec<Millis>) {
    let remaining = (0..n)
        .map(|_| {
            if rng.gen_bool(0.15) {
                Millis::ZERO
            } else {
                Millis::from_secs(rng.gen_range(1..600u64))
            }
        })
        .collect();
    let values = (0..n)
        .map(|_| Millis::from_secs(rng.gen_range(1..900u64)))
        .collect();
    (remaining, values)
}

/// Workflow counts of successive states: grow, shrink, grow again.
fn sizes(rng: &mut StdRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..6).map(|_| rng.gen_range(1..7usize)).collect();
    v.sort_unstable();
    let mut down: Vec<usize> = (0..4).map(|_| rng.gen_range(1..7usize)).collect();
    down.sort_unstable_by(|a, b| b.cmp(a));
    v.extend(down);
    v.push(rng.gen_range(1..7usize));
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn live_walk_matches_the_scan(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for n_workflows in sizes(&mut rng) {
            let state = State::random(&mut rng, n_workflows, Millis::from_mins(30));
            let slots = state.slots();
            let (indexed, scan) = state.snapshots(&slots);
            let walk = |s: &MonitorSnapshot<'_>| {
                s.live_tasks()
                    .map(|t| (t.id, t.view, t.slot.id, t.stage(), t.spec().input_bytes))
                    .collect::<Vec<(TaskId, TaskView, WorkflowId, StageId, u64)>>()
            };
            let a = walk(&indexed);
            prop_assert_eq!(&a, &walk(&scan));
            for &(id, _, wf, stage, _) in &a {
                prop_assert_eq!(scan.slot_of_task(id).id, wf);
                prop_assert_eq!(scan.stage_of(id), stage);
            }
            prop_assert_eq!(indexed.incomplete_tasks(), scan.incomplete_tasks());
            prop_assert_eq!(indexed.active_tasks(), scan.active_tasks());
            prop_assert_eq!(indexed.workflow_done(), scan.workflow_done());
        }
    }

    #[test]
    fn reused_lookahead_scratch_matches_the_scan(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut with_index = LookaheadScratch::default();
        let mut with_scan = LookaheadScratch::default();
        for n_workflows in sizes(&mut rng) {
            let state = State::random(&mut rng, n_workflows, Millis::from_mins(30));
            let slots = state.slots();
            let (indexed, scan) = state.snapshots(&slots);
            let (remaining, values) = estimates(&mut rng, state.bufs.tasks.len());
            let horizon = state.cfg.mape_interval;
            let fresh = lookahead(&scan, &remaining, &values, horizon);
            let a = lookahead_into(&mut with_index, &indexed, &remaining, &values, horizon);
            prop_assert_eq!(a, &fresh);
            let b = lookahead_into(&mut with_scan, &scan, &remaining, &values, horizon);
            prop_assert_eq!(b, &fresh);
        }
    }

    #[test]
    fn wire_policy_plans_match_the_scan(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (obs_a, obs_b) = (StreamingRecorder::new(), StreamingRecorder::new());
        let mut with_index = WirePolicy::default().with_obs(obs_a.clone());
        let mut with_scan = WirePolicy::default().with_obs(obs_b.clone());
        for (step, n_workflows) in sizes(&mut rng).into_iter().enumerate() {
            let now = Millis::from_mins(3 * (step as u64 + 1));
            let state = State::random(&mut rng, n_workflows, now);
            let slots = state.slots();
            let (indexed, scan) = state.snapshots(&slots);
            prop_assert_eq!(with_index.plan(&indexed), with_scan.plan(&scan));
            prop_assert_eq!(with_index.memo_stats(), with_scan.memo_stats());
            prop_assert_eq!(with_index.policy_uses(), with_scan.policy_uses());
        }
        prop_assert_eq!(
            obs_a.snapshot().to_json_string(),
            obs_b.snapshot().to_json_string()
        );
    }
}
