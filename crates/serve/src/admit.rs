//! Admission control for the serving tier: load shedding, per-client
//! fairness and priority lanes.
//!
//! The controller sits in front of the work queue and decides, per
//! submission, whether a job is **accepted**, **degraded** (admitted but
//! routed straight to the cheap XY-cut fallback) or **shed** (rejected
//! with a typed [`crate::error::ServeError::Overloaded`], published
//! in-stream — never silently dropped).
//!
//! Determinism is split across two lanes of state:
//!
//! * **Deterministic lane.** Per-client token buckets are refilled by an
//!   *admission tick* counter — one tick per submission — not by wall
//!   clock. Submissions arrive from a single reader thread, so the tick
//!   stream (and with it every bucket decision) is a pure function of
//!   the input order, identical at 1 worker and at 16.
//! * **Pressure lane.** Backlog depth and the completion-latency EWMA
//!   are scheduling-dependent by nature; they gate the watermark levels
//!   ([`PressureLevel`]). At saturation every interactive submission is
//!   shed and every batch one degraded; there is no draw to thin the
//!   sheds. Tests that need whole-run byte determinism use
//!   [`AdmitConfig::inert_pressure`] watermarks so only the
//!   deterministic lane fires; production uses real watermarks and
//!   accepts that *which* job sheds under pressure depends on timing —
//!   the accounting (exactly one outcome per job) never does.
//!
//! The controller decides and counts nothing. The engine's ledger
//! ([`crate::obs::EngineMetrics`]) records each submission's lane,
//! every shed and every admission degrade, and each shed result line
//! names its [`ShedReason`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Queue class of a job. Interactive jobs are preferred by the workers'
/// weighted-pick loop and are only ever shed (never silently delayed
/// behind batch work); batch jobs degrade to the XY-cut fallback under
/// pressure instead of being shed outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Lane {
    /// Latency-sensitive traffic; preferred 3:1 by the worker pick loop.
    #[default]
    Interactive,
    /// Throughput traffic; degrades (cheap path) under pressure.
    Batch,
}

impl Lane {
    /// Stable wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Lane::Interactive => "interactive",
            Lane::Batch => "batch",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Lane> {
        match s {
            "interactive" => Some(Lane::Interactive),
            "batch" => Some(Lane::Batch),
            _ => None,
        }
    }
}

/// Why a job was shed (or degrade-routed) by admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The job's client exceeded its token bucket.
    RateLimited,
    /// Queue backlog crossed a watermark.
    QueueDepth,
    /// The completion-latency EWMA crossed a watermark.
    LatencyEwma,
    /// The engine is draining; no new work is admitted.
    Draining,
}

impl ShedReason {
    /// Stable wire/log name.
    pub fn as_str(&self) -> &'static str {
        match self {
            ShedReason::RateLimited => "rate_limited",
            ShedReason::QueueDepth => "queue_depth",
            ShedReason::LatencyEwma => "latency_ewma",
            ShedReason::Draining => "draining",
        }
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What admission decided for one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// Enqueue normally.
    Accept,
    /// Enqueue, but route straight to the degradation fallback (status
    /// `degraded` on the wire) — the pressure valve for batch traffic.
    Degrade(ShedReason),
    /// Reject with [`crate::error::ServeError::Overloaded`] (status
    /// `shed` on the wire).
    Shed(ShedReason),
}

/// Overall pressure level derived from backlog depth and the
/// completion-latency EWMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// Below every watermark.
    Nominal,
    /// Past the high watermark: batch traffic degrades.
    Elevated,
    /// Past the critical watermark: interactive traffic sheds too.
    Saturated,
}

/// Admission-control configuration. All thresholds are inclusive
/// ("at or past the watermark").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmitConfig {
    /// Token-bucket capacity per client, in whole tokens; `0` disables
    /// per-client fairness entirely.
    pub bucket_capacity: u32,
    /// Bucket refill per admission tick, in **millitokens** (a job costs
    /// 1000). Refill is driven by the submission counter, not wall
    /// clock, so bucket decisions are deterministic.
    pub refill_per_mille: u32,
    /// Backlog depth at which pressure becomes [`PressureLevel::Elevated`].
    pub queue_high: usize,
    /// Backlog depth at which pressure becomes [`PressureLevel::Saturated`].
    /// Keep this strictly below the queue capacity so a shed decision
    /// fires before a submitter could block on a full queue.
    pub queue_critical: usize,
    /// Completion-latency EWMA (µs) for [`PressureLevel::Elevated`].
    pub latency_high_us: u64,
    /// Completion-latency EWMA (µs) for [`PressureLevel::Saturated`].
    pub latency_critical_us: u64,
}

impl Default for AdmitConfig {
    fn default() -> Self {
        Self::for_queue(32)
    }
}

impl AdmitConfig {
    /// Watermarks proportioned to a queue bound: high at 3/4, critical
    /// at 7/8 (strictly below capacity, so shedding always fires before
    /// backpressure blocks a submitter). Fairness buckets start
    /// disabled; latency watermarks default to 50ms / 250ms EWMA.
    pub fn for_queue(queue_capacity: usize) -> Self {
        let cap = queue_capacity.max(2);
        let high = (cap * 3 / 4).max(1);
        let critical = (cap * 7 / 8).clamp(high, cap - 1);
        Self {
            bucket_capacity: 0,
            refill_per_mille: 250,
            queue_high: high,
            queue_critical: critical,
            latency_high_us: 50_000,
            latency_critical_us: 250_000,
        }
    }

    /// Pressure watermarks that can never fire — leaves only the
    /// deterministic lane (token buckets + drain) active. Used by
    /// determinism tests and differential harnesses.
    pub fn inert_pressure(mut self) -> Self {
        self.queue_high = usize::MAX;
        self.queue_critical = usize::MAX;
        self.latency_high_us = u64::MAX;
        self.latency_critical_us = u64::MAX;
        self
    }

    /// Enables per-client token buckets: `capacity` whole tokens,
    /// refilled at `refill_per_mille` millitokens per admission tick.
    pub fn with_buckets(mut self, capacity: u32, refill_per_mille: u32) -> Self {
        self.bucket_capacity = capacity;
        self.refill_per_mille = refill_per_mille;
        self
    }
}

struct Bucket {
    millitokens: u64,
    last_tick: u64,
}

/// The admission controller: token buckets and pressure watermarks. One
/// per engine; consulted on every submission.
pub struct AdmitController {
    config: AdmitConfig,
    /// Admission tick: one per decision, the deterministic clock that
    /// drives bucket refill.
    tick: AtomicU64,
    buckets: Mutex<HashMap<String, Bucket>>,
    /// Completion-latency EWMA in µs (α = 1/8), fed by the engine on
    /// every non-shed publish.
    ewma_us: AtomicU64,
}

impl AdmitController {
    /// Builds a controller over `config`.
    pub fn new(config: AdmitConfig) -> Self {
        Self {
            config,
            tick: AtomicU64::new(0),
            buckets: Mutex::new(HashMap::new()),
            ewma_us: AtomicU64::new(0),
        }
    }

    /// The current completion-latency EWMA, µs.
    pub fn ewma_us(&self) -> u64 {
        self.ewma_us.load(Ordering::Relaxed)
    }

    /// Feeds one completion latency into the EWMA (α = 1/8). Called by
    /// the engine on every non-shed publish — engine progress, not wall
    /// clock, advances the pressure signal.
    pub fn on_completion(&self, latency: Duration) {
        let sample = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let _ = self
            .ewma_us
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(if cur == 0 {
                    sample
                } else {
                    cur - cur / 8 + sample / 8
                })
            });
    }

    /// The pressure level for a backlog of `backlog` jobs, plus the
    /// watermark that produced it (queue depth dominates the EWMA when
    /// both fire).
    pub fn pressure(&self, backlog: usize) -> (PressureLevel, ShedReason) {
        let c = &self.config;
        let ewma = self.ewma_us();
        if backlog >= c.queue_critical {
            (PressureLevel::Saturated, ShedReason::QueueDepth)
        } else if ewma >= c.latency_critical_us {
            (PressureLevel::Saturated, ShedReason::LatencyEwma)
        } else if backlog >= c.queue_high {
            (PressureLevel::Elevated, ShedReason::QueueDepth)
        } else if ewma >= c.latency_high_us {
            (PressureLevel::Elevated, ShedReason::LatencyEwma)
        } else {
            (PressureLevel::Nominal, ShedReason::QueueDepth)
        }
    }

    /// Charges one job to `client`'s token bucket at `tick`. Returns
    /// `false` when the bucket is empty (the client is over its rate).
    fn take_token(&self, client: &str, tick: u64) -> bool {
        let cap_milli = self.config.bucket_capacity as u64 * 1000;
        let mut buckets = self.buckets.lock().unwrap();
        let b = buckets.entry(client.to_string()).or_insert(Bucket {
            millitokens: cap_milli,
            last_tick: tick,
        });
        let elapsed = tick.saturating_sub(b.last_tick);
        b.millitokens = b
            .millitokens
            .saturating_add(elapsed.saturating_mul(self.config.refill_per_mille as u64))
            .min(cap_milli);
        b.last_tick = tick;
        if b.millitokens >= 1000 {
            b.millitokens -= 1000;
            true
        } else {
            false
        }
    }

    /// Advances the admission tick and charges one job to `client`'s
    /// token bucket; `true` when the client is over its rate. This is
    /// the whole deterministic-lane effect of a submission:
    /// [`AdmitController::decide`] starts with it, and a resumed run
    /// calls it alone for each line a predecessor already answered, so
    /// its buckets and tick clock match an uninterrupted run's.
    pub fn charge(&self, client: Option<&str>) -> bool {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        match client {
            Some(c) if self.config.bucket_capacity > 0 => !self.take_token(c, tick),
            _ => false,
        }
    }

    /// Decides one submission. `backlog` is the queue depth sampled just
    /// before the would-be enqueue. Counts nothing: the engine's ledger
    /// records each submission's lane and outcome.
    pub fn decide(&self, client: Option<&str>, lane: Lane, backlog: usize) -> AdmitDecision {
        let over_rate = self.charge(client);
        if over_rate {
            match lane {
                // Fairness never outright drops batch work — it just
                // stops the flooding client from burning full-pipeline
                // capacity.
                Lane::Batch => AdmitDecision::Degrade(ShedReason::RateLimited),
                Lane::Interactive => AdmitDecision::Shed(ShedReason::RateLimited),
            }
        } else {
            match (self.pressure(backlog), lane) {
                ((PressureLevel::Nominal, _), _) => AdmitDecision::Accept,
                ((PressureLevel::Elevated | PressureLevel::Saturated, reason), Lane::Batch) => {
                    AdmitDecision::Degrade(reason)
                }
                ((PressureLevel::Elevated, _), Lane::Interactive) => AdmitDecision::Accept,
                ((PressureLevel::Saturated, reason), Lane::Interactive) => {
                    AdmitDecision::Shed(reason)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inert() -> AdmitConfig {
        AdmitConfig::for_queue(32).inert_pressure()
    }

    #[test]
    fn nominal_traffic_is_accepted() {
        let ctl = AdmitController::new(inert());
        for _ in 0..50 {
            assert_eq!(
                ctl.decide(Some("a"), Lane::Interactive, 0),
                AdmitDecision::Accept
            );
        }
    }

    #[test]
    fn bucket_exhaustion_sheds_interactive_and_degrades_batch() {
        // Capacity 3, zero refill: jobs 0-2 pass, everything after fails
        // the bucket.
        let cfg = inert().with_buckets(3, 0);
        let ctl = AdmitController::new(cfg);
        for _ in 0..3 {
            assert_eq!(
                ctl.decide(Some("flood"), Lane::Interactive, 0),
                AdmitDecision::Accept
            );
        }
        assert_eq!(
            ctl.decide(Some("flood"), Lane::Interactive, 0),
            AdmitDecision::Shed(ShedReason::RateLimited)
        );
        assert_eq!(
            ctl.decide(Some("flood"), Lane::Batch, 0),
            AdmitDecision::Degrade(ShedReason::RateLimited)
        );
        // A different client has its own bucket.
        assert_eq!(
            ctl.decide(Some("other"), Lane::Interactive, 0),
            AdmitDecision::Accept
        );
        // Jobs with no client are never rate limited.
        assert_eq!(
            ctl.decide(None, Lane::Interactive, 0),
            AdmitDecision::Accept
        );
    }

    #[test]
    fn buckets_refill_on_admission_ticks() {
        // Capacity 1, refill 500‰: after spending the token, every
        // second tick earns a whole token back.
        let cfg = inert().with_buckets(1, 500);
        let ctl = AdmitController::new(cfg);
        assert_eq!(
            ctl.decide(Some("a"), Lane::Interactive, 0),
            AdmitDecision::Accept
        );
        assert_eq!(
            ctl.decide(Some("a"), Lane::Interactive, 0),
            AdmitDecision::Shed(ShedReason::RateLimited)
        );
        // Two ticks elapse while another client submits.
        ctl.decide(Some("b"), Lane::Interactive, 0);
        assert_eq!(
            ctl.decide(Some("a"), Lane::Interactive, 0),
            AdmitDecision::Accept,
            "two ticks at 500 millitokens each refill a whole token"
        );
    }

    #[test]
    fn replayed_submissions_tick_and_charge_without_counting() {
        // Capacity 2, refill 500‰: a bare charge spends a token and a
        // tick exactly like a decided submission.
        let replayed = AdmitController::new(inert().with_buckets(2, 500));
        let decided = AdmitController::new(inert().with_buckets(2, 500));
        assert!(!replayed.charge(Some("a")));
        assert!(!replayed.charge(Some("a")));
        assert!(!replayed.charge(None));
        decided.decide(Some("a"), Lane::Batch, 0);
        decided.decide(Some("a"), Lane::Batch, 0);
        decided.decide(None, Lane::Batch, 0);
        for seq in 3..8 {
            assert_eq!(
                replayed.decide(Some("a"), Lane::Interactive, 0),
                decided.decide(Some("a"), Lane::Interactive, 0),
                "seq {seq}"
            );
        }
    }

    #[test]
    fn bucket_decisions_are_a_pure_function_of_the_submission_stream() {
        let run = || {
            let ctl = AdmitController::new(inert().with_buckets(2, 250));
            (0..40u64)
                .map(|seq| {
                    let client = if seq % 5 == 0 { "ui" } else { "flood" };
                    format!("{:?}", ctl.decide(Some(client), Lane::Batch, 0))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn queue_watermarks_gate_the_pressure_level() {
        let cfg = AdmitConfig::for_queue(32);
        assert_eq!(cfg.queue_high, 24);
        assert_eq!(cfg.queue_critical, 28);
        let ctl = AdmitController::new(cfg);
        assert_eq!(ctl.pressure(0).0, PressureLevel::Nominal);
        assert_eq!(ctl.pressure(23).0, PressureLevel::Nominal);
        assert_eq!(ctl.pressure(24).0, PressureLevel::Elevated);
        assert_eq!(
            ctl.pressure(28),
            (PressureLevel::Saturated, ShedReason::QueueDepth)
        );
    }

    #[test]
    fn latency_ewma_gates_the_pressure_level() {
        let ctl = AdmitController::new(AdmitConfig::for_queue(32));
        assert_eq!(ctl.ewma_us(), 0);
        // Drive the EWMA past the critical watermark (250ms).
        for _ in 0..64 {
            ctl.on_completion(Duration::from_millis(400));
        }
        assert!(ctl.ewma_us() >= 250_000, "ewma {}", ctl.ewma_us());
        assert_eq!(
            ctl.pressure(0),
            (PressureLevel::Saturated, ShedReason::LatencyEwma)
        );
        // Fast completions pull it back down.
        for _ in 0..256 {
            ctl.on_completion(Duration::from_micros(100));
        }
        assert_eq!(ctl.pressure(0).0, PressureLevel::Nominal);
    }

    #[test]
    fn saturation_degrades_batch_and_sheds_interactive() {
        let cfg = AdmitConfig::for_queue(8);
        let ctl = AdmitController::new(cfg);
        let deep = cfg.queue_critical;
        assert_eq!(
            ctl.decide(None, Lane::Batch, deep),
            AdmitDecision::Degrade(ShedReason::QueueDepth)
        );
        assert_eq!(
            ctl.decide(None, Lane::Interactive, deep),
            AdmitDecision::Shed(ShedReason::QueueDepth)
        );
        // Elevated (but not saturated) still admits interactive work.
        assert_eq!(
            ctl.decide(None, Lane::Interactive, cfg.queue_high),
            AdmitDecision::Accept
        );
        assert_eq!(
            ctl.decide(None, Lane::Batch, cfg.queue_high),
            AdmitDecision::Degrade(ShedReason::QueueDepth)
        );
    }

    #[test]
    fn snapshot_partitions_decisions() {
        let cfg = AdmitConfig::for_queue(8).with_buckets(1, 0);
        let ctl = AdmitController::new(cfg);
        assert_eq!(
            ctl.decide(Some("a"), Lane::Interactive, 0),
            AdmitDecision::Accept
        );
        assert_eq!(
            ctl.decide(Some("a"), Lane::Interactive, 0),
            AdmitDecision::Shed(ShedReason::RateLimited)
        );
        assert_eq!(
            ctl.decide(Some("b"), Lane::Batch, cfg.queue_critical),
            AdmitDecision::Degrade(ShedReason::QueueDepth)
        );
        assert_eq!(
            ctl.decide(None, Lane::Interactive, cfg.queue_critical),
            AdmitDecision::Shed(ShedReason::QueueDepth)
        );
    }

    #[test]
    fn lane_and_reason_wire_names_are_stable() {
        assert_eq!(Lane::Interactive.as_str(), "interactive");
        assert_eq!(Lane::Batch.as_str(), "batch");
        assert_eq!(Lane::parse("batch"), Some(Lane::Batch));
        assert_eq!(Lane::parse("bulk"), None);
        for r in [
            ShedReason::RateLimited,
            ShedReason::QueueDepth,
            ShedReason::LatencyEwma,
            ShedReason::Draining,
        ] {
            assert!(!r.as_str().is_empty());
            assert_eq!(r.to_string(), r.as_str());
        }
    }
}
