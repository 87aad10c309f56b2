//! The daemon's bounded job queue.
//!
//! Two priority lanes (high jobs are popped first), a hard capacity
//! with typed [`rejection`](crate::proto::ErrorCode::QueueFull)
//! instead of unbounded buffering, and a drain mode for graceful
//! shutdown: draining rejects new submissions but lets everything
//! already queued run to completion.
//!
//! Preempted jobs re-enter through [`JobQueue::requeue_preempted`],
//! which bypasses the capacity check (the job already held a slot;
//! bouncing it on re-entry would turn preemption into job loss) and
//! goes to the *front* of the normal lane so a preempted job resumes
//! ahead of later arrivals.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use std::sync::Arc;

use crate::cache::CachedKernel;
use rfv_sim::{Checkpoint, SimConfig};

use crate::proto::{CacheOutcome, JobRequest, JobResult, Priority, ProtoError};
use crate::spec::JobSpec;

/// How a finished job's outcome leaves the worker: a one-shot
/// callback. The multiplexer hands jobs a closure that routes the
/// outcome back to the owning connection (and wakes the event loop);
/// spool-replayed jobs, whose submitter is long gone, use a no-op —
/// their durable record is the spool's `Done` record, appended by the
/// worker itself.
pub type ReplyFn = Box<dyn FnOnce(Result<JobResult, ProtoError>) + Send + 'static>;

/// A fully validated unit of work: by the time a job is constructed,
/// its spec parsed and its config validated, so workers only ever see
/// runnable jobs.
pub struct Job {
    /// The original submission.
    pub request: JobRequest,
    /// Parsed workload spec (kernel construction is infallible).
    pub spec: JobSpec,
    /// The resolved, validated simulator configuration.
    pub config: SimConfig,
    /// Whether the kernel compiles with release-flag metadata.
    pub release_flags: bool,
    /// Routes the outcome back to whoever is waiting (see [`ReplyFn`]).
    pub reply: ReplyFn,
    /// Set when the job was preempted: the snapshot to resume from.
    pub resume: Option<Checkpoint>,
    /// Preemption count so far.
    pub preemptions: u32,
    /// The compiled+predecoded kernel, carried across preemptions so a resumed
    /// job never pays the compile again.
    pub compiled: Option<Arc<CachedKernel>>,
    /// How the compile cache served this job (set with `compiled`).
    pub cache: Option<CacheOutcome>,
    /// The job's spool record id when persistence is on.
    pub spool_id: Option<u64>,
    /// True for jobs rebuilt from the spool after a restart: their
    /// checkpoint (if any) is advisory — a resume failure falls back
    /// to running from scratch instead of failing the job.
    pub spool_restored: bool,
}

/// Why a submission was not accepted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubmitError {
    /// The queue is at capacity.
    Full,
    /// The daemon is draining.
    Draining,
}

/// Outcome of [`JobQueue::submit`]. Rejections hand the job back so
/// the caller can still reply on its channel.
// a Submit lives only for the duration of one match at the submit
// site; indirection would buy nothing
#[allow(clippy::large_enum_variant)]
#[must_use]
pub enum Submit {
    /// The job is queued.
    Accepted,
    /// The job was not queued; here it is, with the reason.
    Rejected(Job, SubmitError),
}

struct Lanes {
    high: VecDeque<Job>,
    normal: VecDeque<Job>,
    draining: bool,
}

impl Lanes {
    fn len(&self) -> usize {
        self.high.len() + self.normal.len()
    }
}

/// A bounded two-lane blocking queue. See the module docs.
pub struct JobQueue {
    lanes: Mutex<Lanes>,
    ready: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// A queue admitting at most `capacity` waiting jobs (minimum 1).
    pub fn new(capacity: usize) -> JobQueue {
        JobQueue {
            lanes: Mutex::new(Lanes {
                high: VecDeque::new(),
                normal: VecDeque::new(),
                draining: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues `job`; see [`Submit`] for the rejection contract.
    pub fn submit(&self, job: Job) -> Submit {
        let mut lanes = self.lanes.lock().expect("queue lock");
        if lanes.draining {
            return Submit::Rejected(job, SubmitError::Draining);
        }
        if lanes.len() >= self.capacity {
            return Submit::Rejected(job, SubmitError::Full);
        }
        match job.request.priority {
            Priority::High => lanes.high.push_back(job),
            Priority::Normal => lanes.normal.push_back(job),
        }
        self.ready.notify_one();
        Submit::Accepted
    }

    /// Re-enqueues a preempted job at the front of the normal lane,
    /// ignoring capacity (the job is being *moved*, not admitted).
    pub fn requeue_preempted(&self, job: Job) {
        let mut lanes = self.lanes.lock().expect("queue lock");
        lanes.normal.push_front(job);
        self.ready.notify_one();
    }

    /// Enqueues a spool-replayed job at the back of its priority
    /// lane, ignoring capacity: the job was admitted by a previous
    /// daemon life, and bouncing it on restart would turn a crash
    /// into job loss.
    pub fn restore(&self, job: Job) {
        let mut lanes = self.lanes.lock().expect("queue lock");
        match job.request.priority {
            Priority::High => lanes.high.push_back(job),
            Priority::Normal => lanes.normal.push_back(job),
        }
        self.ready.notify_one();
    }

    /// Blocks until a job is available (high lane first) or the queue
    /// is draining *and* empty — then `None`: the worker should exit.
    pub fn pop(&self) -> Option<Job> {
        let mut lanes = self.lanes.lock().expect("queue lock");
        loop {
            if let Some(job) = lanes.high.pop_front() {
                return Some(job);
            }
            if let Some(job) = lanes.normal.pop_front() {
                return Some(job);
            }
            if lanes.draining {
                return None;
            }
            lanes = self.ready.wait(lanes).expect("queue lock");
        }
    }

    /// Whether a high-priority job is waiting — the signal a worker
    /// polls between slices to decide whether to preempt its
    /// normal-priority job.
    pub fn has_high_waiting(&self) -> bool {
        !self.lanes.lock().expect("queue lock").high.is_empty()
    }

    /// The configured admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently waiting.
    pub fn len(&self) -> usize {
        self.lanes.lock().expect("queue lock").len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enters drain mode: new submissions are rejected, queued jobs
    /// still run, blocked workers wake so they can observe the drain.
    pub fn drain(&self) {
        self.lanes.lock().expect("queue lock").draining = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn test_job(priority: Priority) -> Job {
        Job {
            request: JobRequest {
                spec: "synth:".into(),
                priority,
                ..JobRequest::default()
            },
            spec: JobSpec::parse("synth:").unwrap(),
            config: SimConfig::baseline_full(),
            release_flags: true,
            reply: Box::new(|_| {}),
            resume: None,
            preemptions: 0,
            compiled: None,
            cache: None,
            spool_id: None,
            spool_restored: false,
        }
    }

    fn accepted(outcome: Submit) {
        assert!(matches!(outcome, Submit::Accepted));
    }

    fn rejected(outcome: Submit) -> (Job, SubmitError) {
        match outcome {
            Submit::Accepted => panic!("expected a rejection"),
            Submit::Rejected(job, err) => (job, err),
        }
    }

    #[test]
    fn capacity_is_enforced_with_job_returned() {
        let q = JobQueue::new(2);
        accepted(q.submit(test_job(Priority::Normal)));
        accepted(q.submit(test_job(Priority::Normal)));
        let (job, err) = rejected(q.submit(test_job(Priority::Normal)));
        assert_eq!(err, SubmitError::Full);
        assert_eq!(job.request.spec, "synth:");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn high_lane_pops_first_and_preempted_jobs_lead_normal() {
        let q = JobQueue::new(8);
        accepted(q.submit(test_job(Priority::Normal)));
        accepted(q.submit(test_job(Priority::High)));
        assert!(q.has_high_waiting());
        let mut preempted = test_job(Priority::Normal);
        preempted.preemptions = 1;
        q.requeue_preempted(preempted);
        assert_eq!(q.pop().unwrap().request.priority, Priority::High);
        assert!(!q.has_high_waiting());
        assert_eq!(q.pop().unwrap().preemptions, 1, "preempted job leads");
        assert_eq!(q.pop().unwrap().preemptions, 0);
    }

    #[test]
    fn drain_rejects_new_but_serves_queued_then_releases_workers() {
        let q = Arc::new(JobQueue::new(8));
        accepted(q.submit(test_job(Priority::Normal)));
        q.drain();
        let (_, err) = rejected(q.submit(test_job(Priority::Normal)));
        assert_eq!(err, SubmitError::Draining);
        assert!(q.pop().is_some(), "queued job survives the drain");
        assert!(q.pop().is_none(), "drained + empty wakes workers with None");
        // a blocked worker also wakes
        let q2 = Arc::new(JobQueue::new(8));
        let qc = Arc::clone(&q2);
        let h = std::thread::spawn(move || qc.pop().is_none());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q2.drain();
        assert!(h.join().unwrap());
    }

    #[test]
    fn requeue_bypasses_capacity() {
        let q = JobQueue::new(1);
        accepted(q.submit(test_job(Priority::Normal)));
        q.requeue_preempted(test_job(Priority::Normal));
        assert_eq!(q.len(), 2, "a moved job never bounces");
    }

    #[test]
    fn restore_bypasses_capacity_and_keeps_lanes() {
        let q = JobQueue::new(1);
        accepted(q.submit(test_job(Priority::Normal)));
        q.restore(test_job(Priority::High));
        q.restore(test_job(Priority::Normal));
        assert_eq!(q.len(), 3, "replayed jobs never bounce on capacity");
        assert_eq!(
            q.pop().unwrap().request.priority,
            Priority::High,
            "a restored high-priority job still leads"
        );
    }
}
