//! The batch engine: a worker pool pulling jobs off a bounded queue and
//! publishing outcomes into an ordered result map, with structured
//! fault tolerance.
//!
//! Design notes:
//!
//! * **Determinism.** Every submitted job gets a monotonically increasing
//!   sequence number; results are keyed by it. However many workers race,
//!   [`BatchEngine::drain`] returns outcomes in submission order, so a
//!   4-worker run is byte-identical to a 1-worker run.
//! * **One attempt per job.** Processors return `Result<O, ServeError>`;
//!   a panic is caught (`catch_unwind`) and folded into
//!   [`ServeError::Fatal`]. The pipeline is a pure in-process function
//!   of the document, so a failed attempt would fail the same way on a
//!   re-run: nothing is retried, and a failure goes straight to the
//!   fallback.
//! * **Soft timeouts.** A job whose attempt overruns its deadline is
//!   quarantined as [`ServeError::Timeout`]. Two detectors can trip it:
//!   a watchdog thread that scans in-flight attempts, and the
//!   overrunning worker itself when its attempt returns. Both go through
//!   one trip handler. The stuck worker cannot be killed; when its
//!   attempt returns to find its in-flight entry gone, the watchdog has
//!   already answered the job and the late result is dropped.
//! * **Degrade, else quarantine.** Every job left without a primary
//!   answer — its attempt failed, or admission control's degrade lane
//!   routed it past the primary — ends in one place: the fallback processor
//!   ([`BatchEngine::with_fallback`]) gets one shot (timeouts excepted),
//!   and its run time is added to the job's latency. An answer
//!   completes the job as [`JobOutcome::Degraded`]; otherwise the job is
//!   recorded in the append-only quarantine ledger and completes as
//!   [`JobOutcome::Failed`], with the error the fallback returned (or,
//!   when it panicked, the error that sent the job there).
//! * **One claim per job.** Every answer path — a shed, an `Ok`, a
//!   failure and a deadline trip — first claims the job's sequence
//!   number, and only the winner runs the fallback, appends to the
//!   ledger or publishes. So the batch always gets exactly one outcome
//!   per sequence number, and every ledger entry has its published
//!   outcome.
//! * **Fault injection.** With [`EngineConfig::faults`] set, the
//!   [`JobCtx`] passed to the processor injects deterministic panics
//!   and latency at named pipeline sites (see
//!   [`crate::faults`]); with it unset the check is one branch.
//! * **One ledger.** Every engine event (submission lane, outcome,
//!   shed, admission degrade, panic, timeout trip, fault trigger,
//!   queue dwell, job latency) is counted once, in the engine's
//!   [`EngineMetrics`]; [`BatchEngine::stats`] is read back from it.
//!   Admission control only decides, and the plan store keeps the plan
//!   counts.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::admit::{AdmitConfig, AdmitController, AdmitDecision, Lane, ShedReason};
use crate::error::{QuarantineEntry, ServeError};
use crate::faults::{FaultPlan, FaultSite};
use crate::obs::EngineMetrics;
use crate::queue::LaneQueue;

/// Worker-pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of worker threads (minimum 1).
    pub workers: usize,
    /// Work-queue capacity; submitters block (backpressure) beyond it.
    pub queue_capacity: usize,
    /// Soft per-job deadline, measured from the moment a worker picks the
    /// job up. A job past it is quarantined. `None` disables the
    /// watchdog.
    pub job_timeout: Option<Duration>,
    /// Deterministic fault injection; `None` (production) costs one
    /// branch per site checkpoint.
    pub faults: Option<FaultPlan>,
    /// Admission control (load shedding, fairness buckets, degrade
    /// routing); `None` admits everything, byte-identical to the
    /// pre-admission engine.
    pub admit: Option<AdmitConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_capacity: 32,
            job_timeout: None,
            faults: None,
            admit: None,
        }
    }
}

/// Per-job context handed to the processor: identifies the job and
/// hosts the fault-injection checkpoints.
#[derive(Clone)]
pub struct JobCtx {
    /// Engine sequence number of the job being processed.
    pub seq: u64,
    faults: Option<FaultPlan>,
    metrics: Arc<EngineMetrics>,
}

impl std::fmt::Debug for JobCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobCtx")
            .field("seq", &self.seq)
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

impl JobCtx {
    /// Builds a context explicitly — for driving processors outside an
    /// engine (direct calls in tests and differential harnesses). It
    /// records into a ledger of its own.
    pub fn new(seq: u64, faults: Option<FaultPlan>) -> Self {
        Self {
            seq,
            faults,
            metrics: Arc::new(EngineMetrics::new()),
        }
    }

    /// The engine's ledger, for processors that record their own events
    /// (routing decisions) against this job.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Fault-injection checkpoint: a no-op unless the engine was
    /// configured with a [`FaultPlan`], in which case the plan's
    /// deterministic decision for `(site, seq)` is applied (sleep or
    /// panic). Each fired decision also bumps the site's fault-trigger
    /// counter.
    pub fn checkpoint(&self, site: FaultSite) {
        let Some(plan) = &self.faults else {
            return;
        };
        if plan.decide(site, self.seq).is_some() {
            self.metrics.on_fault(site);
        }
        plan.apply(site, self.seq);
    }
}

/// Terminal state of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome<O> {
    /// The primary processor returned normally.
    Ok(O),
    /// The primary path gave no answer (its attempt failed, or admission
    /// control routed the job straight to the fallback) but the fallback
    /// produced one.
    Degraded {
        /// The fallback's output.
        output: O,
        /// The error that triggered degradation: the primary attempt's
        /// error, or [`ServeError::Overloaded`] for the degrade lane.
        error: ServeError,
    },
    /// The job got no answer from either path; a matching entry is in
    /// the quarantine ledger.
    Failed(ServeError),
    /// Admission control rejected the job at submit time: it was never
    /// enqueued or processed, its outcome published immediately. Not a
    /// quarantine — resubmit once pressure clears.
    Shed(ShedReason),
}

impl<O> JobOutcome<O> {
    /// `true` for [`JobOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, JobOutcome::Ok(_))
    }

    /// `true` for [`JobOutcome::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, JobOutcome::Degraded { .. })
    }

    /// `true` for [`JobOutcome::Shed`].
    pub fn is_shed(&self) -> bool {
        matches!(self, JobOutcome::Shed(_))
    }

    /// The output, from either the primary ([`JobOutcome::Ok`]) or the
    /// degraded path.
    pub fn output(&self) -> Option<&O> {
        match self {
            JobOutcome::Ok(o) | JobOutcome::Degraded { output: o, .. } => Some(o),
            JobOutcome::Failed(_) | JobOutcome::Shed(_) => None,
        }
    }
}

/// One finished job: outcome plus processing latency of its attempt
/// (queue wait excluded; for a timeout, the elapsed time at the moment
/// the trip fired), including the fallback's run time whenever the
/// fallback ran.
#[derive(Debug, Clone, PartialEq)]
pub struct Completed<O> {
    /// Submission sequence number.
    pub seq: u64,
    /// Terminal state.
    pub outcome: JobOutcome<O>,
    /// Processing latency of the attempt plus, when the fallback ran,
    /// the fallback's own run time.
    pub latency: Duration,
    /// Queue dwell before the job was picked up (zero for shed jobs and
    /// watchdog-decided timeouts). `dwell + latency` is the job's
    /// sojourn time — what a caller actually waited.
    pub dwell: Duration,
}

/// Counters snapshot, read from the engine's [`EngineMetrics`]; see
/// [`BatchEngine::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Jobs accepted by `submit`.
    pub submitted: u64,
    /// Jobs with a published outcome
    /// (`ok + degraded + quarantined + shed`).
    pub completed: u64,
    /// Jobs that finished normally on the primary path.
    pub ok: u64,
    /// Jobs answered by the fallback after the primary path failed.
    pub degraded: u64,
    /// Jobs that ended in the quarantine ledger with no answer.
    pub quarantined: u64,
    /// Panics caught in the primary processor.
    pub panicked: u64,
    /// Deadline trips.
    pub timed_out: u64,
    /// Jobs rejected by admission control (overload or drain).
    pub shed: u64,
    /// Submissions that blocked on a full queue.
    pub queue_stalls: u64,
}

/// One queue entry.
struct QueuedJob<J> {
    seq: u64,
    job: J,
    /// `Some(reason)` routes the job straight to the degradation
    /// fallback (admission's pressure valve); the primary processor
    /// never runs.
    degrade: Option<ShedReason>,
    /// When the entry went onto the queue — queue dwell is measured from
    /// here to the moment a worker picks the job up.
    enqueued: Instant,
}

struct ResultsState<O> {
    map: BTreeMap<u64, Completed<O>>,
    /// Every live seq already claimed — the exactly-once guard.
    done: HashSet<u64>,
    /// Seqs below this have been drained; `done` forgets them to stay
    /// bounded, so claims this old fail by the bound alone.
    drained_upto: u64,
}

type Process<J, O> = Box<dyn Fn(&J, &JobCtx) -> Result<O, ServeError> + Send + Sync>;
type Fallback<J, O> = Box<dyn Fn(&J, &ServeError) -> Result<O, ServeError> + Send + Sync>;

struct Shared<J, O> {
    process: Process<J, O>,
    fallback: Fallback<J, O>,
    queue: LaneQueue<QueuedJob<J>>,
    results: Mutex<ResultsState<O>>,
    results_cv: Condvar,
    /// When each in-flight job's attempt started, by seq: what the
    /// watchdog scans.
    inflight: Mutex<HashMap<u64, Instant>>,
    quarantine: Mutex<Vec<QuarantineEntry>>,
    timeout: Option<Duration>,
    faults: Option<FaultPlan>,
    metrics: Arc<EngineMetrics>,
    admit: Option<AdmitController>,
    /// Once set, every new submission is shed with
    /// [`ShedReason::Draining`]; in-flight and queued work still
    /// completes (the handoff flush).
    draining: AtomicBool,
    stopping: AtomicBool,
}

impl<J, O> Shared<J, O> {
    /// Claims the right to answer `seq`: `true` for the first caller
    /// only, `false` once the seq is claimed or drained. Every answer
    /// path claims before it runs the fallback, appends to the ledger
    /// or publishes.
    fn claim(&self, seq: u64) -> bool {
        let mut results = self.results.lock().unwrap();
        seq >= results.drained_upto && results.done.insert(seq)
    }

    /// Publishes `outcome` for `seq`, which the caller has claimed.
    fn publish(&self, seq: u64, outcome: JobOutcome<O>, latency: Duration, dwell: Duration) {
        let mut results = self.results.lock().unwrap();
        match &outcome {
            JobOutcome::Ok(_) => self.metrics.on_ok(),
            JobOutcome::Degraded { .. } => self.metrics.on_degraded(),
            JobOutcome::Failed(_) => self.metrics.on_quarantined(),
            JobOutcome::Shed(_) => self.metrics.on_shed(),
        }
        // Shed jobs did no work: no latency sample, and no step of the
        // admission controller's latency EWMA (engine progress, not wall
        // clock, advances it), which they would only drag toward zero.
        if !outcome.is_shed() {
            self.metrics.on_job_latency(latency);
            if let Some(admit) = &self.admit {
                admit.on_completion(latency);
            }
        }
        results.map.insert(
            seq,
            Completed {
                seq,
                outcome,
                latency,
                dwell,
            },
        );
        drop(results);
        self.results_cv.notify_all();
    }

    /// Appends `seq` to the quarantine ledger, then publishes it as
    /// [`JobOutcome::Failed`] — in that order, so any observer of the
    /// outcome also sees the ledger entry. The caller has claimed `seq`.
    fn quarantine(&self, seq: u64, error: ServeError, latency: Duration, dwell: Duration) {
        self.quarantine.lock().unwrap().push(QuarantineEntry {
            seq,
            error: error.clone(),
            elapsed: latency,
        });
        self.publish(seq, JobOutcome::Failed(error), latency, dwell);
    }
}

/// A concurrent, fault-tolerant batch processor: submit jobs, harvest
/// outcomes in submission order. Generic over the job and output types
/// so tests can inject slow, flaky or panicking processors; the
/// extraction service plugs a shared-model [`crate::cache::ModelCache`]
/// processor and an XY-cut degradation fallback in.
pub struct BatchEngine<J: Send + 'static, O: Send + 'static> {
    shared: Arc<Shared<J, O>>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    next_seq: AtomicU64,
    next_drain: u64,
}

impl<J: Send + 'static, O: Send + 'static> BatchEngine<J, O> {
    /// Spawns the worker pool (and, with a timeout configured, the
    /// watchdog). `process` runs on worker threads and must therefore be
    /// `Send + Sync`; shared read-only state (the model cache) goes in
    /// via `Arc` capture. Jobs whose attempt fails are quarantined — use
    /// [`BatchEngine::with_fallback`] to degrade them instead.
    pub fn new<F>(config: EngineConfig, process: F) -> Self
    where
        F: Fn(&J, &JobCtx) -> Result<O, ServeError> + Send + Sync + 'static,
    {
        Self::with_fallback(config, process, |_, error| Err(error.clone()))
    }

    /// Like [`BatchEngine::new`], plus a degradation fallback: when a
    /// job's primary attempt fails (other than by timeout), or admission
    /// control routes it to the degrade lane, `fallback` gets
    /// one shot at producing a cheaper answer, given the error that sent
    /// the job there. An `Ok` completes the job as
    /// [`JobOutcome::Degraded`]; an `Err` quarantines it with that error
    /// (return the given error to decline), and a panic quarantines it
    /// with the given error.
    pub fn with_fallback<F, G>(config: EngineConfig, process: F, fallback: G) -> Self
    where
        F: Fn(&J, &JobCtx) -> Result<O, ServeError> + Send + Sync + 'static,
        G: Fn(&J, &ServeError) -> Result<O, ServeError> + Send + Sync + 'static,
    {
        let shared = Arc::new(Shared {
            process: Box::new(process),
            fallback: Box::new(fallback),
            queue: LaneQueue::new(config.queue_capacity),
            results: Mutex::new(ResultsState {
                map: BTreeMap::new(),
                done: HashSet::new(),
                drained_upto: 0,
            }),
            results_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            quarantine: Mutex::new(Vec::new()),
            timeout: config.job_timeout,
            faults: config.faults,
            metrics: Arc::new(EngineMetrics::new()),
            admit: config.admit.map(AdmitController::new),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vs2-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let watchdog = config.job_timeout.map(|timeout| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("vs2-watchdog".into())
                .spawn(move || watchdog_loop(&shared, timeout))
                .expect("spawn watchdog thread")
        });
        Self {
            shared,
            workers,
            watchdog,
            next_seq: AtomicU64::new(0),
            next_drain: 0,
        }
    }

    /// The engine's ledger: every event it counts.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.shared.metrics
    }

    /// Submits an anonymous interactive-lane job, blocking while the
    /// queue is full (backpressure). Returns the job's sequence number.
    ///
    /// # Panics
    /// If called after [`BatchEngine::shutdown`] began (the queue is
    /// closed).
    pub fn submit(&self, job: J) -> u64 {
        self.submit_with(job, None, Lane::Interactive)
    }

    /// Submits a job attributed to `client` on `lane`, running it
    /// through admission control (when configured). The job *always*
    /// gets a sequence number and exactly one outcome: a shed decision
    /// publishes [`JobOutcome::Shed`] immediately instead of enqueuing;
    /// a degrade decision enqueues the job routed straight to the
    /// fallback.
    ///
    /// # Panics
    /// If called after [`BatchEngine::shutdown`] began (the queue is
    /// closed).
    pub fn submit_with(&self, job: J, client: Option<&str>, lane: Lane) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.shared.metrics.on_lane(lane);
        let decision = if self.shared.draining.load(Ordering::Relaxed) {
            AdmitDecision::Shed(ShedReason::Draining)
        } else {
            match &self.shared.admit {
                Some(admit) => admit.decide(client, lane, self.shared.queue.len()),
                None => AdmitDecision::Accept,
            }
        };
        let degrade = match decision {
            AdmitDecision::Shed(reason) => {
                if self.shared.claim(seq) {
                    let shed = JobOutcome::Shed(reason);
                    self.shared
                        .publish(seq, shed, Duration::ZERO, Duration::ZERO);
                }
                return seq;
            }
            AdmitDecision::Degrade(reason) => {
                self.shared.metrics.on_admit_degrade();
                Some(reason)
            }
            AdmitDecision::Accept => None,
        };
        if self
            .shared
            .queue
            .push(
                QueuedJob {
                    seq,
                    job,
                    degrade,
                    enqueued: Instant::now(),
                },
                lane,
            )
            .is_err()
        {
            panic!("submit on a shut-down engine");
        }
        seq
    }

    /// Replays a submission by `client` that a predecessor process
    /// already answered, without submitting or publishing anything: it
    /// burns the sequence number and (with admission control) the
    /// admission tick and bucket token the submission used. Warm-restart
    /// alignment: a successor skipping already-completed wire lines still
    /// consumes the seqs and tokens those lines would have used, so the
    /// seq-keyed fault plan and the tick-keyed token buckets stay
    /// aligned with an uninterrupted run. No counter moves. Incompatible
    /// with [`BatchEngine::drain`] (which would block forever on the hole) —
    /// use [`BatchEngine::wait_result`] per submitted seq instead.
    pub fn skip_submission(&self, client: Option<&str>) -> u64 {
        if let Some(admit) = &self.shared.admit {
            admit.charge(client);
        }
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Enters the draining state: every subsequent submission is shed
    /// with [`ShedReason::Draining`]; queued and in-flight jobs still
    /// complete. Irreversible for the engine's lifetime.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::Relaxed);
    }

    /// `true` once [`BatchEngine::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Relaxed)
    }

    /// Blocks until job `seq`'s outcome is available and removes it.
    /// Waiting on a sequence number that was never submitted (or was
    /// already taken) blocks forever — sequence numbers come from
    /// [`BatchEngine::submit`] and each may be waited on once.
    pub fn wait_result(&self, seq: u64) -> Completed<O> {
        let mut results = self.shared.results.lock().unwrap();
        loop {
            if let Some(done) = results.map.remove(&seq) {
                return done;
            }
            results = self.shared.results_cv.wait(results).unwrap();
        }
    }

    /// Waits for every job submitted so far and returns their outcomes in
    /// submission order. May be called repeatedly; each call covers the
    /// jobs submitted since the previous one. The engine stays usable.
    pub fn drain(&mut self) -> Vec<Completed<O>> {
        let upto = self.next_seq.load(Ordering::Relaxed);
        let mut out = Vec::with_capacity((upto - self.next_drain) as usize);
        for seq in self.next_drain..upto {
            out.push(self.wait_result(seq));
        }
        self.next_drain = upto;
        // Shrink the exactly-once guard: raise the drained bound (so late
        // claims for these seqs fail by the bound check) and forget their
        // `done` entries — under one lock acquisition, so no claim can
        // slip between the steps.
        let mut results = self.shared.results.lock().unwrap();
        results.drained_upto = upto;
        results.done.retain(|&seq| seq >= upto);
        out
    }

    /// Counter snapshot, read from the ledger.
    pub fn stats(&self) -> EngineStats {
        self.shared
            .metrics
            .engine_stats(self.shared.queue.stall_count())
    }

    /// Snapshot of the quarantine ledger, ordered by quarantine time.
    /// The ledger is append-only for the lifetime of the engine — it is
    /// not cleared by [`BatchEngine::drain`].
    pub fn quarantine(&self) -> Vec<QuarantineEntry> {
        self.shared.quarantine.lock().unwrap().clone()
    }

    /// Closes the queue, waits for the workers to finish the backlog and
    /// returns the final counters.
    pub fn shutdown(mut self) -> EngineStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        self.shared.stopping.store(true, Ordering::Relaxed);
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
    }
}

impl<J: Send + 'static, O: Send + 'static> Drop for BatchEngine<J, O> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Ends a job that has no primary answer, unless another path already
/// claimed it: the fallback gets one shot, its run time added to
/// `latency`. An answer publishes [`JobOutcome::Degraded`]; otherwise the
/// job is quarantined with the fallback's error, or with `error` when
/// the fallback panicked.
fn finish_failed<J, O>(
    shared: &Shared<J, O>,
    job: &J,
    seq: u64,
    error: ServeError,
    mut latency: Duration,
    dwell: Duration,
) {
    if !shared.claim(seq) {
        return;
    }
    let start = Instant::now();
    let output = catch_unwind(AssertUnwindSafe(|| (shared.fallback)(job, &error)));
    latency += start.elapsed();
    match output {
        Ok(Ok(output)) => {
            let outcome = JobOutcome::Degraded { output, error };
            shared.publish(seq, outcome, latency, dwell);
        }
        Ok(Err(own)) => shared.quarantine(seq, own, latency, dwell),
        Err(_) => shared.quarantine(seq, error, latency, dwell),
    }
}

/// Handles a deadline overrun of job `seq` for either detector — the
/// watchdog or the overrunning worker itself. The party that claims the
/// seq counts the trip (and the panic, when the overrunning attempt also
/// panicked) and quarantines the job as [`ServeError::Timeout`], with no
/// fallback: the document already burnt its deadline, and the
/// quarantine record *is* the answer.
fn trip_deadline<J, O>(
    shared: &Shared<J, O>,
    seq: u64,
    elapsed: Duration,
    dwell: Duration,
    panicked: bool,
) {
    if !shared.claim(seq) {
        return;
    }
    shared.metrics.on_timeout();
    if panicked {
        shared.metrics.on_panic();
    }
    shared.quarantine(seq, ServeError::Timeout { elapsed }, elapsed, dwell);
}

fn worker_loop<J, O>(shared: &Shared<J, O>) {
    while let Some(queued) = shared.queue.pop() {
        run_job(shared, queued);
    }
}

/// Runs one job's single attempt to a terminal decision.
fn run_job<J, O>(shared: &Shared<J, O>, queued: QueuedJob<J>) {
    let QueuedJob {
        seq,
        job,
        degrade,
        enqueued,
    } = queued;
    let dwell = enqueued.elapsed();
    shared.metrics.on_dwell(dwell);
    // Degrade-routed jobs skip the primary pipeline entirely: one shot
    // at the fallback, no watchdog registration.
    if let Some(reason) = degrade {
        let error = ServeError::Overloaded { reason };
        finish_failed(shared, &job, seq, error, Duration::ZERO, dwell);
        return;
    }
    let start = Instant::now();
    shared.inflight.lock().unwrap().insert(seq, start);
    let ctx = JobCtx {
        seq,
        faults: shared.faults,
        metrics: Arc::clone(&shared.metrics),
    };
    let result = catch_unwind(AssertUnwindSafe(|| (shared.process)(&job, &ctx)));
    // An entry already gone means the watchdog tripped this attempt and
    // answered the job: the late result is dropped.
    if shared.inflight.lock().unwrap().remove(&seq).is_none() {
        return;
    }
    // Measured after the removal, so an attempt the watchdog could have
    // tripped reads as overrun here too: the label does not depend on
    // which detector got there first.
    let latency = start.elapsed();
    if shared.timeout.is_some_and(|t| latency >= t) {
        trip_deadline(shared, seq, latency, dwell, result.is_err());
        return;
    }
    let error = match result {
        Ok(Ok(output)) => {
            if shared.claim(seq) {
                shared.publish(seq, JobOutcome::Ok(output), latency, dwell);
            }
            return;
        }
        Ok(Err(error)) => error,
        Err(payload) => {
            shared.metrics.on_panic();
            ServeError::Fatal(format!("panic: {}", panic_message(&*payload)))
        }
    };
    finish_failed(shared, &job, seq, error, latency, dwell);
}

fn watchdog_loop<J, O>(shared: &Shared<J, O>, timeout: Duration) {
    // Wake often enough that a timeout is detected within ~a quarter of
    // the deadline, but never spin faster than once a millisecond.
    let tick = (timeout / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
    loop {
        std::thread::sleep(tick);
        let now = Instant::now();
        let mut expired = Vec::new();
        shared.inflight.lock().unwrap().retain(|&seq, started| {
            let elapsed = now.duration_since(*started);
            let overrun = elapsed >= timeout;
            if overrun {
                expired.push((seq, elapsed));
            }
            !overrun
        });
        for (seq, elapsed) in expired {
            trip_deadline(shared, seq, elapsed, Duration::ZERO, false);
        }
        if shared.stopping.load(Ordering::Relaxed)
            && shared.queue.is_empty()
            && shared.inflight.lock().unwrap().is_empty()
        {
            return;
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// An engine whose processor never fails.
    fn plain_engine<J, O, F>(workers: usize, queue_capacity: usize, f: F) -> BatchEngine<J, O>
    where
        J: Send + 'static,
        O: Send + 'static,
        F: Fn(&J) -> O + Send + Sync + 'static,
    {
        BatchEngine::new(
            EngineConfig {
                workers,
                queue_capacity,
                job_timeout: None,
                faults: None,
                admit: None,
            },
            move |job, _ctx| Ok(f(job)),
        )
    }

    #[test]
    fn outcomes_arrive_in_submission_order() {
        let mut engine = plain_engine(4, 8, |job: &u64| {
            // Earlier jobs sleep longer, so completion order inverts
            // submission order — drain must still return 0,1,2,…
            std::thread::sleep(Duration::from_millis(20 - job.min(&19)));
            job * 2
        });
        for i in 0..20u64 {
            engine.submit(i);
        }
        let results = engine.drain();
        let values: Vec<u64> = results
            .iter()
            .map(|c| match c.outcome {
                JobOutcome::Ok(v) => v,
                ref other => panic!("unexpected outcome {other:?}"),
            })
            .collect();
        assert_eq!(values, (0..20).map(|i| i * 2).collect::<Vec<_>>());
        assert!(results.iter().all(|c| c.latency > Duration::ZERO));
    }

    #[test]
    fn drain_is_incremental_and_engine_reusable() {
        let mut engine = plain_engine(2, 8, |j: &u32| j + 1);
        engine.submit(1);
        assert_eq!(engine.drain().len(), 1);
        engine.submit(2);
        engine.submit(3);
        let second = engine.drain();
        assert_eq!(second.len(), 2);
        assert_eq!(second[0].seq, 1);
        let stats = engine.shutdown();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.ok, 3);
    }

    #[test]
    fn panicking_job_is_quarantined_not_fatal_to_the_pool() {
        let mut engine = plain_engine(2, 4, |job: &u32| {
            if *job == 13 {
                panic!("poisoned document {job}");
            }
            *job
        });
        for j in [11u32, 13, 17] {
            engine.submit(j);
        }
        let results = engine.drain();
        assert_eq!(results[0].outcome, JobOutcome::Ok(11));
        assert_eq!(
            results[1].outcome,
            JobOutcome::Failed(ServeError::Fatal("panic: poisoned document 13".into()))
        );
        assert_eq!(results[2].outcome, JobOutcome::Ok(17));
        // The pool survives the panic and keeps serving.
        engine.submit(23);
        assert_eq!(engine.drain()[0].outcome, JobOutcome::Ok(23));
        let ledger = engine.quarantine();
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger[0].seq, 1);
        let stats = engine.stats();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.quarantined, 1);
    }

    #[test]
    fn a_failed_attempt_is_never_rerun() {
        // Job 0 returns an error, job 1 panics: each runs its processor
        // once and its fallback once, and degrades.
        let runs: Arc<[AtomicUsize; 2]> = Arc::default();
        let fallbacks: Arc<[AtomicUsize; 2]> = Arc::default();
        let (counted, fell_back) = (Arc::clone(&runs), Arc::clone(&fallbacks));
        let mut engine: BatchEngine<usize, usize> = BatchEngine::with_fallback(
            EngineConfig {
                workers: 2,
                queue_capacity: 4,
                ..EngineConfig::default()
            },
            move |&job: &usize, _ctx| {
                counted[job].fetch_add(1, Ordering::Relaxed);
                if job == 1 {
                    panic!("primary panics");
                }
                Err(ServeError::Fatal("primary fails".into()))
            },
            move |&job: &usize, _| {
                fell_back[job].fetch_add(1, Ordering::Relaxed);
                Ok(job + 100)
            },
        );
        engine.submit(0);
        engine.submit(1);
        let results = engine.drain();
        let errors = [
            ServeError::Fatal("primary fails".into()),
            ServeError::Fatal("panic: primary panics".into()),
        ];
        for (job, (done, error)) in results.iter().zip(errors).enumerate() {
            let degraded = JobOutcome::Degraded {
                output: job + 100,
                error,
            };
            assert_eq!(done.outcome, degraded);
            assert_eq!(runs[job].load(Ordering::Relaxed), 1, "job {job} reran");
            assert_eq!(fallbacks[job].load(Ordering::Relaxed), 1, "job {job}");
        }
        let stats = engine.shutdown();
        assert_eq!(stats.degraded, 2);
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.quarantined, 0);
    }

    #[test]
    fn degraded_latency_covers_the_fallback_run() {
        let mut engine: BatchEngine<u32, u32> = BatchEngine::with_fallback(
            EngineConfig {
                workers: 1,
                queue_capacity: 4,
                ..EngineConfig::default()
            },
            |_job, _ctx| Err(ServeError::Fatal("primary down".into())),
            |job, _| {
                std::thread::sleep(Duration::from_millis(20));
                Ok(*job)
            },
        );
        engine.submit(3);
        let done = &engine.drain()[0];
        assert!(done.outcome.is_degraded(), "{:?}", done.outcome);
        assert!(
            done.latency >= Duration::from_millis(20),
            "latency {:?} must include the fallback run",
            done.latency
        );
    }

    #[test]
    fn failing_fallback_lands_in_quarantine() {
        let mut engine: BatchEngine<u32, u32> = BatchEngine::with_fallback(
            EngineConfig {
                workers: 1,
                queue_capacity: 4,
                ..EngineConfig::default()
            },
            |_job, _ctx| Err(ServeError::Fatal("primary down".into())),
            |job, error| {
                if *job == 0 {
                    panic!("fallback panics too");
                }
                Err(error.clone()) // fallback declines
            },
        );
        engine.submit(0);
        engine.submit(1);
        let results = engine.drain();
        for done in &results {
            assert_eq!(
                done.outcome,
                JobOutcome::Failed(ServeError::Fatal("primary down".into()))
            );
        }
        let ledger = engine.quarantine();
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(engine.stats().quarantined, 2);
    }

    #[test]
    fn slow_job_is_quarantined_as_timeout_on_the_first_trip() {
        let mut engine: BatchEngine<u64, u64> = BatchEngine::new(
            EngineConfig {
                workers: 2,
                queue_capacity: 8,
                job_timeout: Some(Duration::from_millis(40)),
                faults: None,
                admit: None,
            },
            |job, _ctx| {
                if *job == 1 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                Ok(*job)
            },
        );
        let t0 = Instant::now();
        for j in 0..4u64 {
            engine.submit(j);
        }
        let results = engine.drain();
        // The job tripped the watchdog once and was quarantined well
        // before the sleeping worker woke up.
        assert!(t0.elapsed() < Duration::from_millis(350));
        match &results[1].outcome {
            JobOutcome::Failed(ServeError::Timeout { elapsed }) => {
                assert!(*elapsed >= Duration::from_millis(40));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        for i in [0usize, 2, 3] {
            assert_eq!(results[i].outcome, JobOutcome::Ok(i as u64));
        }
        let ledger = engine.quarantine();
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger[0].seq, 1);
        assert_eq!(ledger[0].error.kind(), "timeout");
        let stats = engine.stats();
        assert_eq!(stats.timed_out, 1, "one watchdog trip");
        assert_eq!(stats.ok, 3);
        assert_eq!(stats.quarantined, 1);
    }

    #[test]
    fn timed_out_job_runs_exactly_once() {
        let runs = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&runs);
        let mut engine: BatchEngine<u64, u64> = BatchEngine::new(
            EngineConfig {
                workers: 2,
                queue_capacity: 8,
                job_timeout: Some(Duration::from_millis(30)),
                faults: None,
                admit: None,
            },
            move |job, _ctx| {
                counted.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(150));
                Ok(*job)
            },
        );
        engine.submit(5);
        let results = engine.drain();
        assert!(matches!(
            results[0].outcome,
            JobOutcome::Failed(ServeError::Timeout { .. })
        ));
        let shared = Arc::clone(&engine.shared);
        // Shutdown joins the stuck worker: its late result adds nothing.
        let stats = engine.shutdown();
        assert_eq!(runs.load(Ordering::Relaxed), 1, "the job ran once");
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.completed, 1);
        let ledger = shared.quarantine.lock().unwrap();
        assert_eq!(ledger.len(), 1);
    }

    #[test]
    fn submission_backpressure_blocks_and_is_counted() {
        let engine = Arc::new(plain_engine(1, 1, |_: &u32| {
            std::thread::sleep(Duration::from_millis(15))
        }));
        let submitter = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                for j in 0..6u32 {
                    engine.submit(j);
                }
            })
        };
        submitter.join().unwrap();
        let engine = Arc::into_inner(engine).unwrap();
        let stats = engine.shutdown();
        assert_eq!(stats.ok, 6);
        assert!(
            stats.queue_stalls > 0,
            "a 1-deep queue over a slow worker must stall submissions"
        );
    }

    #[test]
    fn late_result_after_drain_is_not_recounted() {
        // Regression: a watchdog-timed-out job whose worker is still
        // running when the seq is drained used to have its late result
        // re-enter the exactly-once guard and double-count the job.
        let mut engine: BatchEngine<u32, u32> = BatchEngine::new(
            EngineConfig {
                workers: 1,
                queue_capacity: 2,
                job_timeout: Some(Duration::from_millis(10)),
                faults: None,
                admit: None,
            },
            |_job, _ctx| {
                std::thread::sleep(Duration::from_millis(200));
                Ok(1u32)
            },
        );
        engine.submit(0);
        // The watchdog quarantines at ~10ms, long before the worker
        // wakes; drain consumes the seq while the job is still running.
        let results = engine.drain();
        assert!(matches!(
            results[0].outcome,
            JobOutcome::Failed(ServeError::Timeout { .. })
        ));
        // Shutdown joins the worker, whose late publish must be dropped.
        let stats = engine.shutdown();
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.ok, 0);
        assert_eq!(stats.quarantined, 1);
    }

    #[test]
    fn non_string_panic_payload_is_reported() {
        let mut engine = plain_engine(1, 2, |job: &u32| {
            if *job == 1 {
                std::panic::panic_any(7u8);
            }
            *job
        });
        engine.submit(0);
        engine.submit(1);
        let results = engine.drain();
        assert_eq!(results[0].outcome, JobOutcome::Ok(0));
        assert_eq!(
            results[1].outcome,
            JobOutcome::Failed(ServeError::Fatal("panic: non-string panic payload".into()))
        );
        assert_eq!(engine.shutdown().panicked, 1);
    }

    #[test]
    fn checkpoints_are_free_without_a_plan() {
        let ctx = JobCtx::new(0, None);
        for site in FaultSite::all() {
            ctx.checkpoint(site);
        }
    }

    #[test]
    fn rate_limited_jobs_shed_with_published_outcomes() {
        // Bucket of 2, zero refill: the third "flood" job on the
        // interactive lane must shed, with an outcome published
        // immediately (never silently dropped).
        let admit = AdmitConfig::for_queue(8)
            .inert_pressure()
            .with_buckets(2, 0);
        let mut engine: BatchEngine<u32, u32> = BatchEngine::new(
            EngineConfig {
                workers: 1,
                queue_capacity: 8,
                admit: Some(admit),
                ..EngineConfig::default()
            },
            |job, _ctx| Ok(*job),
        );
        for j in 0..4u32 {
            engine.submit_with(j, Some("flood"), Lane::Interactive);
        }
        let results = engine.drain();
        assert_eq!(results[0].outcome, JobOutcome::Ok(0));
        assert_eq!(results[1].outcome, JobOutcome::Ok(1));
        assert_eq!(
            results[2].outcome,
            JobOutcome::Shed(ShedReason::RateLimited)
        );
        assert_eq!(
            results[3].outcome,
            JobOutcome::Shed(ShedReason::RateLimited)
        );
        for shed in &results[2..] {
            assert_eq!(shed.latency, Duration::ZERO);
            assert_eq!(shed.dwell, Duration::ZERO);
        }
        let stats = engine.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.shed, 2);
        assert_eq!(stats.ok, 2);
        assert_eq!(
            stats.completed,
            stats.ok + stats.degraded + stats.quarantined + stats.shed,
            "every job must be accounted exactly once"
        );
        assert!(engine.quarantine().is_empty(), "sheds never hit the ledger");
    }

    #[test]
    fn rate_limited_batch_jobs_degrade_through_the_fallback() {
        let admit = AdmitConfig::for_queue(8)
            .inert_pressure()
            .with_buckets(1, 0);
        let mut engine: BatchEngine<u32, u32> = BatchEngine::with_fallback(
            EngineConfig {
                workers: 2,
                queue_capacity: 8,
                admit: Some(admit),
                ..EngineConfig::default()
            },
            |job, _ctx| Ok(*job),
            |job, _| Ok(job + 100),
        );
        engine.submit_with(1, Some("flood"), Lane::Batch);
        engine.submit_with(2, Some("flood"), Lane::Batch);
        let results = engine.drain();
        assert_eq!(results[0].outcome, JobOutcome::Ok(1));
        match &results[1].outcome {
            JobOutcome::Degraded { output, error } => {
                assert_eq!(*output, 102, "routed straight to the fallback");
                assert_eq!(
                    error,
                    &ServeError::Overloaded {
                        reason: ShedReason::RateLimited
                    }
                );
            }
            other => panic!("expected degraded, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.degraded, 1);
        assert_eq!(stats.shed, 0, "batch over-rate degrades, never sheds");
        assert!(engine.quarantine().is_empty());
    }

    #[test]
    fn degrade_without_fallback_quarantines_as_overloaded() {
        let admit = AdmitConfig::for_queue(8)
            .inert_pressure()
            .with_buckets(1, 0);
        let mut engine: BatchEngine<u32, u32> = BatchEngine::new(
            EngineConfig {
                workers: 1,
                queue_capacity: 8,
                admit: Some(admit),
                ..EngineConfig::default()
            },
            |job, _ctx| Ok(*job),
        );
        engine.submit_with(1, Some("flood"), Lane::Batch);
        engine.submit_with(2, Some("flood"), Lane::Batch);
        let results = engine.drain();
        assert_eq!(
            results[1].outcome,
            JobOutcome::Failed(ServeError::Overloaded {
                reason: ShedReason::RateLimited
            })
        );
        let ledger = engine.quarantine();
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger[0].error.kind(), "overloaded");
    }

    #[test]
    fn draining_sheds_new_work_but_flushes_the_backlog() {
        let mut engine = plain_engine(2, 8, |job: &u32| {
            std::thread::sleep(Duration::from_millis(5));
            job * 2
        });
        for j in 0..4u32 {
            engine.submit(j);
        }
        assert!(!engine.is_draining());
        engine.begin_drain();
        assert!(engine.is_draining());
        for j in 4..6u32 {
            engine.submit(j);
        }
        let results = engine.drain();
        for (i, done) in results.iter().take(4).enumerate() {
            assert_eq!(
                done.outcome,
                JobOutcome::Ok(i as u32 * 2),
                "pre-drain work must flush"
            );
        }
        for done in &results[4..] {
            assert_eq!(done.outcome, JobOutcome::Shed(ShedReason::Draining));
        }
        let stats = engine.stats();
        assert_eq!(stats.ok, 4);
        assert_eq!(stats.shed, 2);
        assert_eq!(stats.completed, 6);
    }

    #[test]
    fn reserve_seq_burns_numbers_without_outcomes() {
        let engine = plain_engine(1, 4, |job: &u32| *job);
        assert_eq!(engine.skip_submission(None), 0);
        assert_eq!(engine.skip_submission(Some("c")), 1);
        let seq = engine.submit(7);
        assert_eq!(seq, 2, "submit continues after the reserved hole");
        assert_eq!(engine.wait_result(seq).outcome, JobOutcome::Ok(7));
        let stats = engine.stats();
        assert_eq!(stats.submitted, 1, "reservations are not submissions");
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn dwell_is_reported_for_processed_jobs() {
        let mut engine = plain_engine(1, 8, |job: &u32| {
            std::thread::sleep(Duration::from_millis(10));
            *job
        });
        for j in 0..3u32 {
            engine.submit(j);
        }
        let results = engine.drain();
        // Job 2 waited behind two 10ms jobs on the single worker.
        assert!(
            results[2].dwell >= Duration::from_millis(15),
            "dwell {:?} must reflect queue wait",
            results[2].dwell
        );
        assert!(results[0].dwell < results[2].dwell);
    }
}
