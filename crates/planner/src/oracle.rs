//! An oracle variant of the WIRE policy with perfect task-occupancy
//! knowledge — the upper bound for the §IV-E robustness claim ("WIRE is
//! robust to imperfect prediction"): if plain WIRE's cost/makespan track the
//! oracle's closely, prediction error is not what limits it.
//!
//! The oracle reads the ground-truth [`ExecProfile`] and the transfer model's
//! expected durations; everything downstream (lookahead, Algorithms 2–3) is
//! identical to [`crate::WirePolicy`].

use crate::lookahead::lookahead;
use crate::steering::{steer, SteeringConfig};
use wire_dag::{ExecProfile, Millis};
use wire_simcloud::{MonitorSnapshot, PoolPlan, ScalingPolicy, TaskView, TransferModel};

/// WIRE with ground-truth occupancy estimates.
#[derive(Debug, Clone)]
pub struct OracleWirePolicy {
    profile: ExecProfile,
    transfer: TransferModel,
    steering: SteeringConfig,
}

impl OracleWirePolicy {
    pub fn new(profile: ExecProfile, transfer: TransferModel) -> Self {
        OracleWirePolicy {
            profile,
            transfer,
            steering: SteeringConfig::default(),
        }
    }

    pub fn with_steering(mut self, steering: SteeringConfig) -> Self {
        self.steering = steering;
        self
    }
}

impl ScalingPolicy for OracleWirePolicy {
    fn name(&self) -> &str {
        "wire-oracle"
    }

    fn plan(&mut self, snapshot: &MonitorSnapshot<'_>) -> PoolPlan {
        // The oracle holds one ground-truth profile, so it is inherently a
        // single-workflow policy; multi-workflow sessions have no slot to
        // hang per-workflow profiles on here.
        let wf = snapshot
            .solo_workflow()
            .expect("oracle policy requires a single-workflow session");
        assert!(
            self.profile.matches(wf),
            "oracle profile must match the workflow"
        );
        let mut remaining = vec![Millis::ZERO; wf.num_tasks()];
        let mut values = vec![Millis::ZERO; wf.num_tasks()];
        // Done rows stay at the zero they were initialised with
        for t in snapshot.live_tasks() {
            let (task, i) = (t.id, t.id.index());
            let spec = t.spec();
            let occupancy = self.profile.exec_time(task)
                + self.transfer.expected(spec.input_bytes)
                + self.transfer.expected(spec.output_bytes);
            match t.view {
                TaskView::Done { .. } => {}
                TaskView::Running { occupied_for, .. } => {
                    remaining[i] = occupancy.saturating_sub(occupied_for);
                    values[i] = occupancy;
                }
                TaskView::Ready | TaskView::Unready => {
                    remaining[i] = occupancy;
                    values[i] = occupancy;
                }
            }
        }
        let up = lookahead(snapshot, &remaining, &values, snapshot.config.mape_interval);
        steer(
            snapshot,
            up.occupancies(),
            &up.restart_cost,
            &up.projected_busy,
            self.steering,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire_simcloud::{CloudConfig, Session};
    use wire_workloads::WorkloadId;

    #[test]
    fn oracle_completes_and_is_competitive() {
        let (wf, prof) = WorkloadId::Tpch6S.generate(3);
        let cfg = CloudConfig {
            charging_unit: Millis::from_mins(15),
            run_setup: Millis::ZERO,
            run_teardown: Millis::ZERO,
            ..CloudConfig::default()
        };
        let tm = TransferModel::default();
        let oracle = Session::new(cfg.clone())
            .transfer(tm.clone())
            .policy(OracleWirePolicy::new(prof.clone(), tm.clone()))
            .seed(3)
            .submit(&wf, &prof)
            .run()
            .unwrap();
        let wire = Session::new(cfg)
            .transfer(tm)
            .policy(crate::WirePolicy::default())
            .seed(3)
            .submit(&wf, &prof)
            .run()
            .unwrap();
        assert_eq!(oracle.task_records.len(), wf.num_tasks());
        // §IV-E robustness: online prediction should not cost much vs oracle
        assert!(
            wire.charging_units <= oracle.charging_units.saturating_mul(2).max(2),
            "wire {} vs oracle {}",
            wire.charging_units,
            oracle.charging_units
        );
    }

    #[test]
    #[should_panic(expected = "oracle profile must match")]
    fn mismatched_profile_is_rejected() {
        let (wf, prof) = WorkloadId::Tpch6S.generate(3);
        let (wf2, _) = WorkloadId::Tpch1S.generate(3);
        let cfg = CloudConfig::default();
        let tm = TransferModel::default();
        // run wf2 with an oracle built from wf's (shorter) profile
        let prof2_bad = prof.clone();
        let bad_prof = wire_dag::ExecProfile::uniform(wf2.num_tasks(), Millis::from_secs(1));
        let _ = Session::new(cfg)
            .transfer(tm.clone())
            .policy(OracleWirePolicy::new(prof2_bad, tm))
            .seed(1)
            .submit(&wf2, &bad_prof)
            .run()
            .map(|_| ());
        let _ = wf;
    }
}
