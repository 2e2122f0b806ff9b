//! Serving-layer observability: the engine's ledger, and per-job span
//! capture for `--trace` output.
//!
//! [`EngineMetrics`] is one table of relaxed atomic counters plus two
//! atomic [`Histogram`]s; recording an event is one atomic add (three
//! for a histogram sample), with no lock. Every engine owns one and
//! always records into it — it is the single source of
//! [`crate::engine::EngineStats`] and of the `{"record":"metrics",...}`
//! tail. It holds no second copy of a count another layer keeps: plan
//! outcomes are counted by the plan store alone, and the tail reads them
//! from its [`CacheSnapshot`] as `plan_cache_*`. [`ObsHub`] is the
//! opt-in part: a span store keyed by engine
//! sequence number that the batch emitter drains to produce
//! `{"record":"span",...}` JSONL lines.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use vs2_core::triage::TriageDecision;
use vs2_obs::export::{counter_json, histogram_json};
use vs2_obs::{Histogram, SpanRecord};

use crate::admit::Lane;
use crate::cache::CacheSnapshot;
use crate::engine::EngineStats;
use crate::faults::FaultSite;

/// Micros of a duration, saturating into `u64`.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The ledger's counters; each indexes [`COUNTER_NAMES`].
#[derive(Clone, Copy)]
enum Counter {
    JobsOk,
    JobsDegraded,
    JobsQuarantined,
    Panics,
    Timeouts,
    FaultsModelBuild,
    FaultsSegment,
    FaultsSelect,
    TriageFull,
    TriageCheap,
    TriageReplay,
    JobsShed,
    AdmitDegrades,
    LaneInteractive,
    LaneBatch,
}

/// Counter names in [`Counter`] order, which is the tail order.
const COUNTER_NAMES: [&str; 15] = [
    "jobs_ok",
    "jobs_degraded",
    "jobs_quarantined",
    "panics",
    "timeouts",
    "faults_model_build",
    "faults_segment",
    "faults_select",
    "triage_full",
    "triage_cheap",
    "triage_replay",
    "jobs_shed",
    "admit_degrades",
    "lane_interactive",
    "lane_batch",
];

/// The serving-layer metric set: queue dwell and job latency histograms,
/// outcome/panic/timeout counters, and per-site fault triggers.
#[derive(Default)]
pub struct EngineMetrics {
    counters: [AtomicU64; COUNTER_NAMES.len()],
    queue_dwell_us: Histogram,
    job_latency_us: Histogram,
}

impl EngineMetrics {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every counter with its total, in tail order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTER_NAMES
            .into_iter()
            .zip(self.counters.iter().map(|c| c.load(Ordering::Relaxed)))
    }

    fn add(&self, counter: Counter) {
        self.counters[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn total(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// The engine counters: submissions are the two lane counts, and
    /// `completed` is `ok + degraded + quarantined + shed`. The queue
    /// keeps its own stall count.
    pub fn engine_stats(&self, queue_stalls: u64) -> EngineStats {
        let ok = self.total(Counter::JobsOk);
        let degraded = self.total(Counter::JobsDegraded);
        let quarantined = self.total(Counter::JobsQuarantined);
        let shed = self.total(Counter::JobsShed);
        EngineStats {
            submitted: self.total(Counter::LaneInteractive) + self.total(Counter::LaneBatch),
            completed: ok + degraded + quarantined + shed,
            ok,
            degraded,
            quarantined,
            panicked: self.total(Counter::Panics),
            timed_out: self.total(Counter::Timeouts),
            shed,
            queue_stalls,
        }
    }

    /// How many times the triage router took `decision`.
    pub fn triage_count(&self, decision: TriageDecision) -> u64 {
        self.total(triage_counter(decision))
    }

    /// Time a job spent queued before a worker picked it up.
    pub fn on_dwell(&self, dwell: Duration) {
        self.queue_dwell_us.observe(micros(dwell));
    }

    /// Processing latency of a job's attempt.
    pub fn on_job_latency(&self, latency: Duration) {
        self.job_latency_us.observe(micros(latency));
    }

    /// A processor panic was caught.
    pub fn on_panic(&self) {
        self.add(Counter::Panics);
    }

    /// A soft-deadline trip fired (it quarantines the job).
    pub fn on_timeout(&self) {
        self.add(Counter::Timeouts);
    }

    /// A job completed on the primary path.
    pub fn on_ok(&self) {
        self.add(Counter::JobsOk);
    }

    /// A job completed via the degradation fallback.
    pub fn on_degraded(&self) {
        self.add(Counter::JobsDegraded);
    }

    /// A job was quarantined with no answer.
    pub fn on_quarantined(&self) {
        self.add(Counter::JobsQuarantined);
    }

    /// A job was shed by admission control.
    pub fn on_shed(&self) {
        self.add(Counter::JobsShed);
    }

    /// Admission routed a job straight to the degradation fallback.
    pub fn on_admit_degrade(&self) {
        self.add(Counter::AdmitDegrades);
    }

    /// A job was submitted on `lane`.
    pub fn on_lane(&self, lane: Lane) {
        self.add(match lane {
            Lane::Interactive => Counter::LaneInteractive,
            Lane::Batch => Counter::LaneBatch,
        });
    }

    /// The triage router decided how a job's segmentation ran.
    pub fn on_triage(&self, decision: TriageDecision) {
        self.add(triage_counter(decision));
    }

    /// An injected fault fired at `site`.
    pub fn on_fault(&self, site: FaultSite) {
        self.add(match site {
            FaultSite::ModelBuild => Counter::FaultsModelBuild,
            FaultSite::Segment => Counter::FaultsSegment,
            FaultSite::Select => Counter::FaultsSelect,
        });
    }

    /// Renders the ledger as `{"record":"metrics",...}` JSONL lines:
    /// every counter in tail order, both levels of the model + plan
    /// cache's counters, then the two histograms.
    pub fn metrics_lines(&self, cache: &CacheSnapshot) -> Vec<String> {
        let mut lines: Vec<String> = self
            .counters()
            .map(|(name, total)| counter_json(name, total))
            .collect();
        lines.push(counter_json("model_cache_hits", cache.model_hits));
        lines.push(counter_json("model_cache_misses", cache.model_misses));
        let p = &cache.plans;
        lines.push(counter_json("plan_cache_hits", p.hits));
        lines.push(counter_json("plan_cache_misses", p.misses));
        lines.push(counter_json(
            "plan_cache_validation_rejects",
            p.validation_rejects,
        ));
        lines.push(counter_json("plan_cache_inserts", p.inserts));
        lines.push(counter_json("plan_cache_evictions", p.evictions));
        lines.push(counter_json("plan_cache_bypasses", p.bypasses));
        lines.push(counter_json("plan_cache_uncacheable", p.uncacheable));
        lines.push(histogram_json(
            "queue_dwell_us",
            &self.queue_dwell_us.snapshot(),
        ));
        lines.push(histogram_json(
            "job_latency_us",
            &self.job_latency_us.snapshot(),
        ));
        lines
    }
}

fn triage_counter(decision: TriageDecision) -> Counter {
    match decision {
        TriageDecision::FullVs2 => Counter::TriageFull,
        TriageDecision::CheapPath => Counter::TriageCheap,
        TriageDecision::PlanReplay => Counter::TriageReplay,
    }
}

/// The `--trace` span store for one [`crate::service::ExtractService`]:
/// with a hub, the service's processor installs a [`vs2_obs::Trace`]
/// around each job and keeps a successful job's spans here for the batch
/// emitter to serialise.
#[derive(Default)]
pub struct ObsHub {
    spans: Mutex<BTreeMap<u64, Vec<SpanRecord>>>,
}

impl ObsHub {
    /// Builds an empty span store.
    pub fn new() -> Arc<Self> {
        Arc::default()
    }

    /// Stores the spans of a successfully extracted job, keyed by engine
    /// sequence number. A job that failed stores none.
    pub fn store_spans(&self, seq: u64, spans: Vec<SpanRecord>) {
        self.spans.lock().unwrap().insert(seq, spans);
    }

    /// Removes and returns the spans stored for `seq`.
    pub fn take_spans(&self, seq: u64) -> Option<Vec<SpanRecord>> {
        self.spans.lock().unwrap().remove(&seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter name and an event that must move only that counter.
    type Event = (&'static str, fn(&EngineMetrics));

    #[test]
    fn each_event_moves_its_named_counter() {
        let events: [Event; 15] = [
            ("jobs_ok", |m| m.on_ok()),
            ("jobs_degraded", |m| m.on_degraded()),
            ("jobs_quarantined", |m| m.on_quarantined()),
            ("panics", |m| m.on_panic()),
            ("timeouts", |m| m.on_timeout()),
            ("faults_model_build", |m| m.on_fault(FaultSite::ModelBuild)),
            ("faults_segment", |m| m.on_fault(FaultSite::Segment)),
            ("faults_select", |m| m.on_fault(FaultSite::Select)),
            ("triage_full", |m| m.on_triage(TriageDecision::FullVs2)),
            ("triage_cheap", |m| m.on_triage(TriageDecision::CheapPath)),
            ("triage_replay", |m| m.on_triage(TriageDecision::PlanReplay)),
            ("jobs_shed", |m| m.on_shed()),
            ("admit_degrades", |m| m.on_admit_degrade()),
            ("lane_interactive", |m| m.on_lane(Lane::Interactive)),
            ("lane_batch", |m| m.on_lane(Lane::Batch)),
        ];
        for (name, event) in events {
            let metrics = EngineMetrics::new();
            event(&metrics);
            let moved: Vec<_> = metrics.counters().filter(|&(_, v)| v > 0).collect();
            assert_eq!(moved, [(name, 1)]);
        }
    }

    #[test]
    fn concurrent_events_are_not_lost() {
        let metrics = EngineMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000 {
                        metrics.on_ok();
                        metrics.on_job_latency(Duration::from_micros(i));
                    }
                });
            }
        });
        assert_eq!(metrics.engine_stats(0).ok, 4000);
        assert_eq!(metrics.job_latency_us.snapshot().count, 4000);
    }
}
