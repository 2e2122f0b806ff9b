//! Serving-layer observability: the engine's ledger over a sharded
//! [`MetricsRegistry`], and per-job span capture for `--trace` output.
//!
//! [`EngineMetrics`] declares the serving metric set once and hands the
//! engine dense counter/histogram ids; the hot path is one relaxed
//! atomic add into the shard addressed by the job's sequence number, so
//! workers never contend on a metrics lock. Every engine owns one and
//! always records into it — it is the single source of
//! [`crate::engine::EngineStats`] and of the `{"record":"metrics",...}`
//! tail. It holds no second copy of a count another layer keeps: plan
//! outcomes are counted by the plan store alone, and the tail reads them
//! from its [`CacheSnapshot`] as `plan_cache_*`. [`ObsHub`] is the
//! opt-in part: a span store keyed by engine
//! sequence number that the batch emitter drains to produce
//! `{"record":"span",...}` JSONL lines.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use vs2_core::triage::TriageDecision;
use vs2_obs::export::{counter_json, histogram_json};
use vs2_obs::{CounterId, HistogramId, MetricsRegistry, MetricsSpec, SpanRecord};

use crate::admit::Lane;
use crate::cache::CacheSnapshot;
use crate::engine::EngineStats;
use crate::faults::FaultSite;

/// Micros of a duration, saturating into `u64`.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The serving-layer metric set: queue dwell and job latency histograms,
/// outcome/retry/panic/timeout counters, and per-site fault triggers.
pub struct EngineMetrics {
    registry: MetricsRegistry,
    queue_dwell_us: HistogramId,
    job_latency_us: HistogramId,
    jobs_ok: CounterId,
    jobs_degraded: CounterId,
    jobs_quarantined: CounterId,
    retries: CounterId,
    panics: CounterId,
    timeouts: CounterId,
    faults_model_build: CounterId,
    faults_segment: CounterId,
    faults_select: CounterId,
    triage_full: CounterId,
    triage_cheap: CounterId,
    triage_replay: CounterId,
    jobs_shed: CounterId,
    admit_degrades: CounterId,
    lane_interactive: CounterId,
    lane_batch: CounterId,
}

impl EngineMetrics {
    /// Builds the metric set over `shards` registry shards (use the
    /// worker count; any stable per-job index works as the shard key).
    pub fn new(shards: usize) -> Self {
        let mut spec = MetricsSpec::new();
        let jobs_ok = spec.counter("jobs_ok");
        let jobs_degraded = spec.counter("jobs_degraded");
        let jobs_quarantined = spec.counter("jobs_quarantined");
        let retries = spec.counter("retries");
        let panics = spec.counter("panics");
        let timeouts = spec.counter("timeouts");
        let faults_model_build = spec.counter("faults_model_build");
        let faults_segment = spec.counter("faults_segment");
        let faults_select = spec.counter("faults_select");
        let triage_full = spec.counter("triage_full");
        let triage_cheap = spec.counter("triage_cheap");
        let triage_replay = spec.counter("triage_replay");
        let jobs_shed = spec.counter("jobs_shed");
        let admit_degrades = spec.counter("admit_degrades");
        let lane_interactive = spec.counter("lane_interactive");
        let lane_batch = spec.counter("lane_batch");
        let queue_dwell_us = spec.histogram("queue_dwell_us");
        let job_latency_us = spec.histogram("job_latency_us");
        Self {
            registry: MetricsRegistry::new(spec, shards),
            queue_dwell_us,
            job_latency_us,
            jobs_ok,
            jobs_degraded,
            jobs_quarantined,
            retries,
            panics,
            timeouts,
            faults_model_build,
            faults_segment,
            faults_select,
            triage_full,
            triage_cheap,
            triage_replay,
            jobs_shed,
            admit_degrades,
            lane_interactive,
            lane_batch,
        }
    }

    /// The backing registry (for scraping and tests).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn total(&self, id: CounterId) -> u64 {
        self.registry.counter_total(id)
    }

    /// The engine counters: submissions are the two lane counts, and
    /// `completed` is `ok + degraded + quarantined + shed`. The queue
    /// keeps its own stall count.
    pub fn engine_stats(&self, queue_stalls: u64) -> EngineStats {
        let ok = self.total(self.jobs_ok);
        let degraded = self.total(self.jobs_degraded);
        let quarantined = self.total(self.jobs_quarantined);
        let shed = self.total(self.jobs_shed);
        EngineStats {
            submitted: self.total(self.lane_interactive) + self.total(self.lane_batch),
            completed: ok + degraded + quarantined + shed,
            ok,
            degraded,
            quarantined,
            retried: self.total(self.retries),
            panicked: self.total(self.panics),
            timed_out: self.total(self.timeouts),
            shed,
            queue_stalls,
        }
    }

    /// How many times the triage router took `decision`.
    pub fn triage_count(&self, decision: TriageDecision) -> u64 {
        self.total(self.triage_id(decision))
    }

    fn triage_id(&self, decision: TriageDecision) -> CounterId {
        match decision {
            TriageDecision::FullVs2 => self.triage_full,
            TriageDecision::CheapPath => self.triage_cheap,
            TriageDecision::PlanReplay => self.triage_replay,
        }
    }

    /// Time a job spent queued before a worker picked it up.
    pub fn on_dwell(&self, seq: u64, dwell: Duration) {
        self.registry
            .observe(seq as usize, self.queue_dwell_us, micros(dwell));
    }

    /// Processing latency of a job's deciding attempt.
    pub fn on_job_latency(&self, seq: u64, latency: Duration) {
        self.registry
            .observe(seq as usize, self.job_latency_us, micros(latency));
    }

    /// A retry was dispatched (a re-run after a transient failure).
    pub fn on_retry(&self, seq: u64) {
        self.registry.counter_add(seq as usize, self.retries, 1);
    }

    /// A processor panic was caught.
    pub fn on_panic(&self, seq: u64) {
        self.registry.counter_add(seq as usize, self.panics, 1);
    }

    /// A soft-deadline trip fired (it quarantines the job).
    pub fn on_timeout(&self, seq: u64) {
        self.registry.counter_add(seq as usize, self.timeouts, 1);
    }

    /// A job completed on the primary path.
    pub fn on_ok(&self, seq: u64) {
        self.registry.counter_add(seq as usize, self.jobs_ok, 1);
    }

    /// A job completed via the degradation fallback.
    pub fn on_degraded(&self, seq: u64) {
        self.registry
            .counter_add(seq as usize, self.jobs_degraded, 1);
    }

    /// A job was quarantined with no answer.
    pub fn on_quarantined(&self, seq: u64) {
        self.registry
            .counter_add(seq as usize, self.jobs_quarantined, 1);
    }

    /// A job was shed by admission control.
    pub fn on_shed(&self, seq: u64) {
        self.registry.counter_add(seq as usize, self.jobs_shed, 1);
    }

    /// Admission routed a job straight to the degradation fallback.
    pub fn on_admit_degrade(&self, seq: u64) {
        self.registry
            .counter_add(seq as usize, self.admit_degrades, 1);
    }

    /// A job was submitted on `lane`.
    pub fn on_lane(&self, seq: u64, lane: Lane) {
        let id = match lane {
            Lane::Interactive => self.lane_interactive,
            Lane::Batch => self.lane_batch,
        };
        self.registry.counter_add(seq as usize, id, 1);
    }

    /// The triage router decided how a job's segmentation ran.
    pub fn on_triage(&self, seq: u64, decision: TriageDecision) {
        self.registry
            .counter_add(seq as usize, self.triage_id(decision), 1);
    }

    /// An injected fault fired at `site`.
    pub fn on_fault(&self, site: FaultSite, seq: u64) {
        let id = match site {
            FaultSite::ModelBuild => self.faults_model_build,
            FaultSite::Segment => self.faults_segment,
            FaultSite::Select => self.faults_select,
        };
        self.registry.counter_add(seq as usize, id, 1);
    }

    /// Renders the ledger as `{"record":"metrics",...}` JSONL lines:
    /// every declared counter and histogram in declaration order, plus
    /// both levels of the model + plan cache's counters.
    pub fn metrics_lines(&self, cache: &CacheSnapshot) -> Vec<String> {
        let reg = &self.registry;
        let mut lines = Vec::new();
        for (name, total) in reg.counters() {
            lines.push(counter_json(name, total));
        }
        lines.push(counter_json("model_cache_hits", cache.model_hits));
        lines.push(counter_json("model_cache_misses", cache.model_misses));
        lines.push(counter_json("model_cache_evictions", cache.model_evictions));
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
        for (name, snap) in reg.histograms() {
            lines.push(histogram_json(name, &snap));
        }
        lines
    }
}

/// The `--trace` span store for one [`crate::service::ExtractService`]:
/// with a hub, the service's processor installs a [`vs2_obs::Trace`]
/// around each job and keeps the deciding attempt's spans here for the
/// batch emitter to serialise.
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
    /// sequence number. A retried job overwrites its failed attempts'
    /// (never stored) slot with the deciding attempt's spans.
    pub fn store_spans(&self, seq: u64, spans: Vec<SpanRecord>) {
        self.spans.lock().unwrap().insert(seq, spans);
    }

    /// Removes and returns the spans stored for `seq`.
    pub fn take_spans(&self, seq: u64) -> Option<Vec<SpanRecord>> {
        self.spans.lock().unwrap().remove(&seq)
    }
}
