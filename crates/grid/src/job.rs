//! Jobs — the unit of user work.
// engine hot path: a failure here is a fallible result, not a panic
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::replication::FileId;
use crate::site::SiteId;
use lsds_core::SimTime;
use std::ops::Deref;
use std::sync::Arc;

/// Identifier of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// A data-processing job as the surveyed simulators model it: CPU work,
/// input files to stage, output volume, and (for economy scheduling)
/// deadline and budget constraints.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique id.
    pub id: JobId,
    /// Submitting user (fair-share and economy policies key on this).
    pub owner: u32,
    /// CPU demand in reference-core seconds (actual runtime scales with
    /// the executing farm's speed).
    pub work: f64,
    /// Input files that must be present (or streamed) at the execution
    /// site before the job starts.
    pub inputs: Vec<FileId>,
    /// Bytes written to the execution site's disk on completion.
    pub output_bytes: f64,
    /// Submission time.
    pub submitted: SimTime,
    /// Wall-clock deadline after submission (economy scheduling).
    pub deadline: Option<f64>,
    /// Maximum spend in grid currency units (economy scheduling).
    pub budget: Option<f64>,
}

impl JobSpec {
    /// A minimal compute-only job.
    pub fn compute(id: u64, owner: u32, work: f64, submitted: SimTime) -> Self {
        JobSpec {
            id: JobId(id),
            owner,
            work,
            inputs: Vec::new(),
            output_bytes: 0.0,
            submitted,
            deadline: None,
            budget: None,
        }
    }
}

/// Lifecycle accounting for a finished job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job.
    pub id: JobId,
    /// Submitting user.
    pub owner: u32,
    /// Where it executed.
    pub site: SiteId,
    /// Submission time.
    pub submitted: SimTime,
    /// When input staging finished and the job entered the CPU queue.
    pub staged: SimTime,
    /// When it began executing.
    pub started: SimTime,
    /// When it finished.
    pub finished: SimTime,
    /// Bytes moved over the WAN to stage inputs.
    pub staged_bytes: f64,
    /// Grid-currency cost charged (economy scheduling; 0 otherwise).
    pub cost: f64,
    /// Whether the deadline (if any) was met.
    pub deadline_met: bool,
}

impl JobRecord {
    /// Total sojourn time: submission to completion.
    pub fn makespan(&self) -> f64 {
        self.finished - self.submitted
    }

    /// Time spent staging input data.
    pub fn stage_time(&self) -> f64 {
        self.staged - self.submitted
    }

    /// Time spent waiting in the CPU queue.
    pub fn queue_time(&self) -> f64 {
        self.started - self.staged
    }

    /// Execution time.
    pub fn exec_time(&self) -> f64 {
        self.finished - self.started
    }
}

/// The finished-job records of a [`crate::GridModel`], shared
/// copy-on-write with the [`crate::GridReport`]s it hands out: a report
/// costs one reference count, not a copy of every record. The model's next
/// push copies the records only while a report taken earlier is still
/// alive, so it never costs more than copying them into that report would
/// have.
#[derive(Debug, Clone, Default)]
pub struct JobRecords(Arc<Vec<JobRecord>>);

impl JobRecords {
    pub(crate) fn push(&mut self, record: JobRecord) {
        Arc::make_mut(&mut self.0).push(record);
    }
}

impl Deref for JobRecords {
    type Target = [JobRecord];

    fn deref(&self) -> &[JobRecord] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a JobRecords {
    type Item = &'a JobRecord;
    type IntoIter = std::slice::Iter<'a, JobRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_time_decomposition() {
        let r = JobRecord {
            id: JobId(1),
            owner: 0,
            site: SiteId(0),
            submitted: SimTime::new(10.0),
            staged: SimTime::new(12.0),
            started: SimTime::new(15.0),
            finished: SimTime::new(20.0),
            staged_bytes: 1.0e6,
            cost: 0.0,
            deadline_met: true,
        };
        assert_eq!(r.makespan(), 10.0);
        assert_eq!(r.stage_time(), 2.0);
        assert_eq!(r.queue_time(), 3.0);
        assert_eq!(r.exec_time(), 5.0);
        assert!((r.stage_time() + r.queue_time() + r.exec_time() - r.makespan()).abs() < 1e-12);
    }

    #[test]
    fn compute_job_constructor() {
        let j = JobSpec::compute(5, 2, 100.0, SimTime::new(1.0));
        assert_eq!(j.id, JobId(5));
        assert!(j.inputs.is_empty());
        assert!(j.deadline.is_none());
    }
}
