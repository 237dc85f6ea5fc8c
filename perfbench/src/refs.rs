//! Correctness references, judged outside the timed part.
//!
//! Each reference is made apart from the checking pipeline:
//!
//! * dbsim `SnapshotIsolation` histories are SI by construction
//!   (begin-time snapshots plus first-committer-wins), so the accepting
//!   batch workloads expect an accept;
//! * `faulty_db` keeps only histories that dbsim's operational search
//!   ([`replay_check_si`]) confirms are not SI, and expects a rejection
//!   classified within [`fault_classes`] of the level that produced it;
//! * `live_waves` streams are serial executions (every read returns the
//!   latest committed value), so each checkpoint before the planted lost
//!   update must accept, every checkpoint from the planted wave on must
//!   reject as a lost update, and the hub's duplicate and healed counters
//!   must equal what the delivery plan injected.
//!
//! A judge returns `false` when its reference does not hold; the caller
//! counts that verdict as a failed operation.

use polysi_checker::{Outcome, StreamVerdict};
use polysi_dbsim::testkit::fault_classes;
use polysi_dbsim::{replay_check_si, IsolationLevel as DbLevel, ReplayResult};
use polysi_history::{AxiomViolation, History};

/// State budget of the operational search that confirms a `faulty_db`
/// history anomalous. Every shape the benchmark generates decides well
/// within it (lost-update histories take about a second); a history that
/// exhausts it is not confirmed and is left out of the pool.
pub const REPLAY_BUDGET: usize = 1_000_000;

/// The anomaly class planted in the last wave of every live stream.
pub const PLANTED_CLASS: &str = "lost update";

/// What a batch verdict must be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// The history is SI: the verdict must accept.
    Accept,
    /// The history is anomalous: the verdict must reject, with every
    /// reported class among these.
    Reject(&'static [&'static str]),
}

impl Expect {
    /// The expectation for a history produced by dbsim at `level`.
    pub fn for_level(level: DbLevel) -> Expect {
        if level.is_si_correct() {
            Expect::Accept
        } else {
            Expect::Reject(fault_classes(level))
        }
    }
}

/// Whether dbsim's operational search, independent of the polygraph
/// pipeline, confirms that `h` violates SI.
pub fn confirmed_anomalous(h: &History) -> bool {
    replay_check_si(h, REPLAY_BUDGET) == ReplayResult::NotSi
}

/// The anomaly-class names a batch outcome exhibits: the cycle's
/// classification, or one class per axiom violation.
pub fn observed_classes(outcome: &Outcome) -> Vec<&'static str> {
    match outcome {
        Outcome::Si => vec![],
        Outcome::CyclicViolation(v) => vec![v.anomaly.name()],
        Outcome::AxiomViolations(vs) => vs.iter().map(axiom_class).collect(),
    }
}

fn axiom_class(v: &AxiomViolation) -> &'static str {
    match v {
        AxiomViolation::Int { .. } => "int violation",
        AxiomViolation::AbortedRead { .. } => "aborted read",
        AxiomViolation::IntermediateRead { .. } => "intermediate read",
        AxiomViolation::DuplicateWrite { .. } | AxiomViolation::CompactedDuplicateWrite { .. } => {
            "unique-value violation"
        }
        AxiomViolation::UnknownValueRead { .. } => "unknown-value read",
        AxiomViolation::WroteInitValue { .. } => "wrote-init-value",
        AxiomViolation::FencedRead { .. } => "fenced read",
    }
}

/// Judge one batch verdict against its reference.
pub fn judge_batch(expect: Expect, outcome: &Outcome) -> bool {
    match expect {
        Expect::Accept => matches!(outcome, Outcome::Si),
        Expect::Reject(allowed) => {
            let observed = observed_classes(outcome);
            !observed.is_empty() && observed.iter().all(|c| allowed.contains(c))
        }
    }
}

/// Judge one live checkpoint: before the planted wave it must accept;
/// from the planted wave on it must reject with [`PLANTED_CLASS`].
pub fn judge_checkpoint(after_plant: bool, verdict: &StreamVerdict) -> bool {
    match verdict {
        StreamVerdict::Accepted => !after_plant,
        StreamVerdict::Rejected { anomaly: Some(a), .. } => {
            after_plant && a.name() == PLANTED_CLASS
        }
        StreamVerdict::Rejected { anomaly: None, .. } | StreamVerdict::AxiomViolations { .. } => {
            false
        }
    }
}

/// Judge the hub's fault counters against what the delivery plan injected.
pub fn judge_live_counts(
    injected_duplicates: usize,
    injected_swaps: usize,
    duplicates: usize,
    healed: usize,
) -> bool {
    duplicates == injected_duplicates && healed == injected_swaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysi_checker::engine::{check, EngineOptions, IsolationLevel};
    use polysi_checker::{Anomaly, Outcome};
    use polysi_history::{HistoryBuilder, Key, Value};

    fn lost_update() -> History {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(Key(1), Value(10)).commit();
        b.session();
        b.begin().read(Key(1), Value(10)).write(Key(1), Value(11)).commit();
        b.session();
        b.begin().read(Key(1), Value(10)).write(Key(1), Value(12)).commit();
        b.build()
    }

    fn clean() -> History {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(Key(1), Value(10)).commit();
        b.begin().read(Key(1), Value(10)).write(Key(1), Value(11)).commit();
        b.build()
    }

    fn aborted_read() -> History {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(Key(1), Value(10)).abort();
        b.session();
        b.begin().read(Key(1), Value(10)).commit();
        b.build()
    }

    fn outcome(h: &History) -> Outcome {
        check(h, IsolationLevel::Si, &EngineOptions::default()).outcome
    }

    const LOST_UPDATE_CLASSES: &[&str] = &["lost update"];
    const AXIOM_CLASSES: &[&str] = &["aborted read"];

    #[test]
    fn accept_reference_holds_and_fails_on_an_inverted_verdict() {
        assert!(judge_batch(Expect::Accept, &outcome(&clean())));
        assert!(!judge_batch(Expect::Accept, &outcome(&lost_update())));
        assert!(!judge_batch(Expect::Accept, &outcome(&aborted_read())));
    }

    #[test]
    fn reject_reference_holds_and_fails_on_an_inverted_verdict() {
        assert!(judge_batch(Expect::Reject(LOST_UPDATE_CLASSES), &outcome(&lost_update())));
        assert!(judge_batch(Expect::Reject(AXIOM_CLASSES), &outcome(&aborted_read())));
        assert!(!judge_batch(Expect::Reject(LOST_UPDATE_CLASSES), &outcome(&clean())));
    }

    #[test]
    fn reject_reference_fails_on_a_class_outside_the_allowed_set() {
        assert!(!judge_batch(Expect::Reject(AXIOM_CLASSES), &outcome(&lost_update())));
        assert!(!judge_batch(Expect::Reject(LOST_UPDATE_CLASSES), &outcome(&aborted_read())));
    }

    #[test]
    fn level_expectations_follow_dbsim() {
        assert_eq!(Expect::for_level(DbLevel::SnapshotIsolation), Expect::Accept);
        assert_eq!(
            Expect::for_level(DbLevel::NoWriteConflictDetection),
            Expect::Reject(fault_classes(DbLevel::NoWriteConflictDetection))
        );
    }

    #[test]
    fn operational_reference_separates_clean_from_anomalous() {
        assert!(confirmed_anomalous(&lost_update()));
        assert!(confirmed_anomalous(&aborted_read()));
        assert!(!confirmed_anomalous(&clean()));
    }

    #[test]
    fn checkpoint_reference_holds_and_fails_on_an_inverted_verdict() {
        let planted =
            StreamVerdict::Rejected { anomaly: Some(Anomaly::LostUpdate), first_violation_op: 7 };
        let other =
            StreamVerdict::Rejected { anomaly: Some(Anomaly::LongFork), first_violation_op: 7 };
        assert!(judge_checkpoint(false, &StreamVerdict::Accepted));
        assert!(judge_checkpoint(true, &planted));
        assert!(!judge_checkpoint(true, &StreamVerdict::Accepted));
        assert!(!judge_checkpoint(false, &planted));
        assert!(!judge_checkpoint(true, &other));
        let healable = StreamVerdict::AxiomViolations { violations: vec![], healable: true };
        assert!(!judge_checkpoint(false, &healable));
    }

    #[test]
    fn live_count_reference_fails_on_a_miscount() {
        assert!(judge_live_counts(3, 5, 3, 5));
        assert!(!judge_live_counts(3, 5, 2, 5));
        assert!(!judge_live_counts(3, 5, 3, 6));
    }
}
