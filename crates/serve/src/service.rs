//! The extraction service: a [`BatchEngine`] whose processor resolves
//! job specs against the shared [`ModelCache`] and runs the VS2
//! pipeline, checkpointing at each fault-injection site, and whose
//! degradation fallback re-runs failed jobs over XY-cut blocks
//! ([`vs2_core::cheap_blocks`], the triage cheap path's segmenter).

use std::sync::Arc;
use std::time::Duration;

use vs2_core::pipeline::Vs2Config;
use vs2_core::plan::PlanConfig;
use vs2_core::Extraction;

use crate::admit::Lane;
use crate::batch::BatchRun;
use crate::cache::{default_config_for, CacheSnapshot, ModelCache};
use crate::engine::{BatchEngine, Completed, EngineConfig, EngineStats};
use crate::error::QuarantineEntry;
use crate::faults::FaultSite;
use crate::handoff::HandoffSnapshot;
use crate::job::JobSpec;
use crate::obs::{EngineMetrics, ObsHub};

/// Service-level switches orthogonal to the engine configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceOptions {
    /// Route segmentation through the per-model plan cache
    /// ([`vs2_core::plan::planned_blocks`]): fingerprint each document,
    /// replay a validated cached plan when one exists, fall back to (and
    /// capture from) full segmentation otherwise. Off by default.
    /// Extractions are byte-identical either way (the conformance suite
    /// enforces it); the switch only trades fingerprint/validate work
    /// for segmentation work on templated traffic.
    pub plan_cache: bool,
    /// Route segmentation through the preserved naive segmenter
    /// ([`vs2_core::segment_naive`]) instead of the default fast path.
    /// Both produce byte-identical layout trees and extractions (the
    /// conformance suite enforces it); the switch only trades speed for
    /// the executable-specification code path, and `vs2d` does not
    /// expose it. Takes precedence over `plan_cache` for the
    /// segmentation stage. Off by default.
    pub naive_segment: bool,
    /// Route segmentation through the layout-complexity triage scorer
    /// ([`vs2_core::routed_blocks_ctx`]): whitespace-regular documents
    /// take the cheap XY-cut path, everything else full VS2 — the
    /// switch behind `vs2d --triage`. Composes with `plan_cache` (full-
    /// routed documents go through the plan cache; the cheap path never
    /// touches it); `naive_segment` takes precedence. Unlike the other
    /// two switches this one trades accuracy on routed documents for
    /// throughput; the conformance
    /// suite pins the trade-off and pins full-routed documents
    /// byte-identical to the unrouted path. Off by default.
    pub triage: bool,
}

/// Learn-once / extract-many document-extraction service.
///
/// `submit` blocks when the work queue is full (backpressure); results
/// come back in submission order regardless of worker count, so batch
/// output is reproducible byte for byte.
///
/// Fault tolerance: the processor is split across the three
/// [`FaultSite`]s (model build → segment → select), and a job whose one
/// primary attempt fails degrades to XY-cut segmentation — the
/// extraction still runs, only the segmentation is the cheap geometric
/// one, exactly as on the triage cheap path. Jobs the
/// fallback cannot save land in the quarantine ledger
/// ([`ExtractService::quarantine`]).
pub struct ExtractService {
    engine: BatchEngine<JobSpec, Vec<Extraction>>,
    cache: Arc<ModelCache>,
    obs: Option<Arc<ObsHub>>,
    model_seed: u64,
    config: Option<Vs2Config>,
}

impl ExtractService {
    /// Builds the service. `config: None` serves each dataset with its
    /// default configuration ([`default_config_for`]); `Some(cfg)`
    /// applies `cfg` verbatim to every dataset. `model_seed` addresses
    /// the holdout corpus used for learning (see
    /// [`ModelCache::model_for`]). `options` picks the segmentation
    /// route (the `vs2d` `--plan-cache` / `--triage` flags, plus the
    /// library-only naive segmenter).
    ///
    /// The engine records queue dwell, latency, panics,
    /// timeouts, outcomes, per-site fault triggers and the routing
    /// decisions below into its ledger ([`Self::metrics`]) whether or
    /// not a `hub` is given. With a `hub`, each successful job's
    /// pipeline spans are also captured for the batch emitter to
    /// serialise (`vs2d --trace`).
    pub fn with_options(
        engine_config: EngineConfig,
        model_seed: u64,
        config: Option<Vs2Config>,
        options: ServiceOptions,
        hub: Option<Arc<ObsHub>>,
    ) -> Self {
        let cache = Arc::new(ModelCache::new());
        let worker_cache = Arc::clone(&cache);
        let fallback_cache = Arc::clone(&cache);
        let worker_hub = hub.clone();
        let plan_config = PlanConfig::default();
        let triage_config = vs2_core::triage::TriageConfig::default();
        let process = move |spec: &JobSpec, ctx: &crate::engine::JobCtx| {
            let run =
                |ctx: &crate::engine::JobCtx| -> Result<Vec<Extraction>, crate::error::ServeError> {
                    spec.validate_geometry()?;
                    // Root span for the serving path; the pipeline stages
                    // (segment / select / assign) nest under it.
                    let _extract_span = vs2_obs::span(vs2_obs::stages::EXTRACT);
                    ctx.checkpoint(FaultSite::ModelBuild);
                    let config = config.unwrap_or_else(|| default_config_for(spec.dataset));
                    let pipeline = worker_cache.pipeline_for(spec.dataset, model_seed, config);
                    let doc = spec.document_arc();
                    ctx.checkpoint(FaultSite::Segment);
                    // Zero-copy path: one DocContext per job carries the
                    // interned tokens, stem/sense tables and memoised
                    // embeddings through segment → select → assign.
                    let dctx = vs2_core::DocContext::build(&doc);
                    // The plan path sits strictly between the Segment and
                    // Select fault sites: a fault before it leaves the
                    // plan store untouched, and a fault after it can only
                    // follow a successful, self-validated capture — so
                    // degraded/quarantined jobs never poison cached plans
                    // (the XY-cut fallback below never touches them).
                    let blocks = if options.naive_segment {
                        // Executable-specification escape hatch: the
                        // naive segmenter over the owned document.
                        vs2_core::logical_blocks_naive(&doc, &pipeline.config.segment)
                    } else if options.triage {
                        // Triage routing: score first, then cheap path
                        // or full segmentation. The plan store only
                        // participates (on the full path) when the plan
                        // cache is also on.
                        let plans = options.plan_cache.then(|| {
                            worker_cache.plan_store_for(spec.dataset, model_seed, &config)
                        });
                        let (blocks, decision, _) = vs2_core::routed_blocks_ctx(
                            &dctx,
                            &pipeline.config.segment,
                            &triage_config,
                            plans.as_ref().map(|s| (&plan_config, &**s)),
                        );
                        ctx.metrics().on_triage(decision);
                        blocks
                    } else if options.plan_cache {
                        let plans = worker_cache.plan_store_for(spec.dataset, model_seed, &config);
                        vs2_core::planned_blocks_ctx(
                            &dctx,
                            &pipeline.config.segment,
                            &plan_config,
                            &plans,
                        )
                        .0
                    } else {
                        vs2_core::logical_blocks_ctx(&dctx, &pipeline.config.segment)
                    };
                    ctx.checkpoint(FaultSite::Select);
                    Ok(pipeline.extract_on_blocks_ctx(&dctx, &blocks))
                };
            match &worker_hub {
                Some(h) => {
                    let trace = vs2_obs::Trace::start();
                    let result = run(ctx);
                    let spans = trace.finish();
                    if result.is_ok() {
                        // A failed job's spans are dropped: its answer
                        // comes from the fallback, which is not traced.
                        h.store_spans(ctx.seq, spans);
                    }
                    result
                }
                None => run(ctx),
            }
        };
        let fallback = move |spec: &JobSpec, _: &crate::error::ServeError| {
            // Degradation path (also the admission degrade lane): same
            // learned pattern inventory and select stage, but
            // segmentation is the triage cheap path's XY-cut, so a
            // degraded answer equals a triage-cheap one. No fault
            // checkpoints here — the fallback must stay reliable under
            // the same plan that broke the primary path. The degrade
            // lane runs only this, so it checks the geometry too.
            spec.validate_geometry()?;
            let config = config.unwrap_or_else(|| default_config_for(spec.dataset));
            let pipeline = fallback_cache.pipeline_for(spec.dataset, model_seed, config);
            // Reuses the Arc the primary attempt already materialised.
            let doc = spec.document_arc();
            let blocks = vs2_core::cheap_blocks(&doc, &triage_config.cheap);
            Ok(pipeline.extract_on_blocks(&doc, &blocks))
        };
        let engine = BatchEngine::with_fallback(engine_config, process, fallback);
        Self {
            engine,
            cache,
            obs: hub,
            model_seed,
            config,
        }
    }

    /// The `--trace` span store, when the service was built with one.
    pub fn obs(&self) -> Option<&Arc<ObsHub>> {
        self.obs.as_ref()
    }

    /// The engine's ledger: outcome, fault, routing and plan counters
    /// plus the dwell and latency histograms.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        self.engine.metrics()
    }

    /// Submits a job (blocking on a full queue); returns its sequence
    /// number.
    pub fn submit(&self, spec: JobSpec) -> u64 {
        self.engine.submit(spec)
    }

    /// Submits a job routing the spec's own `client` / `lane` fields
    /// through admission control; `default_lane` applies when the spec
    /// leaves the lane unset. Returns the job's sequence number (shed
    /// jobs still get one — their outcome is published immediately).
    pub fn submit_spec(&self, spec: JobSpec, default_lane: Lane) -> u64 {
        let lane = spec.lane.unwrap_or(default_lane);
        let client = spec.client.clone();
        self.engine.submit_with(spec, client.as_deref(), lane)
    }

    /// Replays a submission by `client` that a predecessor already
    /// answered, without running it; see [`BatchEngine::skip_submission`].
    pub fn skip_submission(&self, client: Option<&str>) -> u64 {
        self.engine.skip_submission(client)
    }

    /// Stops admitting new work: every subsequent submission is shed
    /// with [`crate::admit::ShedReason::Draining`] while queued and
    /// in-flight jobs run to completion.
    pub fn begin_drain(&self) {
        self.engine.begin_drain()
    }

    /// `true` once [`Self::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.engine.is_draining()
    }

    /// The drain/handoff snapshot to write after `run`: its answered
    /// wire seqs, consumed control lines and quarantine records, merged
    /// with those of the
    /// `predecessor` the run resumed from (so a chain of restarts stays
    /// exactly-once end to end), plus every non-empty plan-cache
    /// namespace ([`ModelCache::export_plan_namespaces`]).
    pub fn handoff_snapshot(
        &self,
        run: &BatchRun,
        predecessor: Option<&HandoffSnapshot>,
    ) -> HandoffSnapshot {
        let mut completed = run.completed.clone();
        let mut controls = run.controls.clone();
        let mut quarantine = run.quarantine_records.clone();
        if let Some(snap) = predecessor {
            completed.extend(snap.completed.iter().copied());
            controls.extend(snap.controls.iter().copied());
            quarantine.extend(snap.quarantine.iter().cloned());
        }
        completed.sort_unstable_by_key(|l| l.seq);
        completed.dedup_by_key(|l| l.seq);
        controls.sort_unstable_by_key(|c| c.line);
        controls.dedup_by_key(|c| c.line);
        quarantine.sort_by_key(|r| r.seq);
        HandoffSnapshot {
            completed,
            controls,
            quarantine,
            plans: self.cache.export_plan_namespaces(),
        }
    }

    /// Warm-starts the plan cache from a handoff snapshot's namespaces
    /// ([`ModelCache::preload_plan_namespace`]); returns the number of
    /// plans admitted. Only namespaces whose model seed and learn
    /// configuration match the ones this service's jobs look up are
    /// admitted; any other namespace is skipped and creates no slot.
    pub fn warm_start(&self, snapshot: &HandoffSnapshot) -> usize {
        snapshot
            .plans
            .iter()
            .map(|ns| {
                let config = self
                    .config
                    .unwrap_or_else(|| default_config_for(ns.dataset));
                self.cache
                    .preload_plan_namespace(ns, self.model_seed, &config)
            })
            .sum()
    }

    /// Blocks until job `seq` finishes; see [`BatchEngine::wait_result`].
    pub fn wait_result(&self, seq: u64) -> Completed<Vec<Extraction>> {
        self.engine.wait_result(seq)
    }

    /// Waits for all submitted jobs, in submission order.
    pub fn drain(&mut self) -> Vec<Completed<Vec<Extraction>>> {
        self.engine.drain()
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Snapshot of the append-only quarantine ledger; see
    /// [`BatchEngine::quarantine`].
    pub fn quarantine(&self) -> Vec<QuarantineEntry> {
        self.engine.quarantine()
    }

    /// Model-cache `(hits, misses)`.
    pub fn cache_counters(&self) -> (u64, u64) {
        self.cache.counters()
    }

    /// Counter snapshot of both cache levels (model slots + plan
    /// namespaces).
    pub fn cache_snapshot(&self) -> CacheSnapshot {
        self.cache.snapshot()
    }

    /// Shuts the worker pool down and returns final counters.
    pub fn shutdown(self) -> EngineStats {
        self.engine.shutdown()
    }
}

/// Latency percentiles over a finished batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 95th percentile, microseconds.
    pub p95_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
}

impl LatencySummary {
    /// Summarises a batch; zeroes when empty.
    pub fn from_latencies(latencies: &[Duration]) -> Self {
        let mut us: Vec<u64> = latencies
            .iter()
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
            .collect();
        us.sort_unstable();
        let pick = |p: f64| -> u64 {
            if us.is_empty() {
                return 0;
            }
            // Nearest-rank percentile.
            let rank = ((p / 100.0) * us.len() as f64).ceil() as usize;
            us[rank.clamp(1, us.len()) - 1]
        };
        Self {
            count: us.len(),
            p50_us: pick(50.0),
            p95_us: pick(95.0),
            p99_us: pick(99.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let lat: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let s = LatencySummary::from_latencies(&lat);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, 50);
        assert_eq!(s.p95_us, 95);
        assert_eq!(s.p99_us, 99);
    }

    #[test]
    fn empty_batch_summarises_to_zeroes() {
        let s = LatencySummary::from_latencies(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.p95_us, 0);
        assert_eq!(s.p99_us, 0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = LatencySummary::from_latencies(&[Duration::from_micros(37)]);
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_us, 37);
        assert_eq!(s.p95_us, 37);
        assert_eq!(s.p99_us, 37);
    }

    fn summary_of(us: &[u64]) -> LatencySummary {
        let lat: Vec<Duration> = us.iter().copied().map(Duration::from_micros).collect();
        LatencySummary::from_latencies(&lat)
    }

    #[test]
    fn three_samples_pick_the_middle_for_p50() {
        // ceil(0.5 * 3) = 2 → the true middle element; tail percentiles
        // hit rank ceil(0.95 * 3) = ceil(0.99 * 3) = 3 → the maximum.
        let s = summary_of(&[30, 10, 20]);
        assert_eq!(s.count, 3);
        assert_eq!(s.p50_us, 20);
        assert_eq!(s.p95_us, 30);
        assert_eq!(s.p99_us, 30);
    }

    #[test]
    fn four_samples_pick_the_lower_middle_for_p50() {
        // ceil(0.5 * 4) = 2 → lower of the two middles (nearest-rank
        // never interpolates); ceil(0.95 * 4) = 4 → the maximum.
        let s = summary_of(&[40, 10, 30, 20]);
        assert_eq!(s.count, 4);
        assert_eq!(s.p50_us, 20);
        assert_eq!(s.p95_us, 40);
        assert_eq!(s.p99_us, 40);
    }

    #[test]
    fn five_samples_pick_the_middle_for_p50() {
        // ceil(0.5 * 5) = 3 → the middle; ceil(0.95 * 5) = 5 → max.
        let s = summary_of(&[50, 10, 40, 20, 30]);
        assert_eq!(s.count, 5);
        assert_eq!(s.p50_us, 30);
        assert_eq!(s.p95_us, 50);
        assert_eq!(s.p99_us, 50);
    }

    #[test]
    fn duplicate_values_do_not_shift_ranks() {
        // Ranks address positions in the sorted multiset, so repeated
        // values are counted once per occurrence, not collapsed.
        let s = summary_of(&[7, 7, 7, 7, 7]);
        assert_eq!(s.p50_us, 7);
        assert_eq!(s.p95_us, 7);
        assert_eq!(s.p99_us, 7);

        // Sorted: [1, 5, 5, 5, 9]; p50 rank 3 lands inside the run of
        // fives, p95/p99 rank 5 on the maximum.
        let s = summary_of(&[5, 9, 5, 1, 5]);
        assert_eq!(s.p50_us, 5);
        assert_eq!(s.p95_us, 9);
        assert_eq!(s.p99_us, 9);
    }

    #[test]
    fn two_samples_split_median_from_tail() {
        let s =
            LatencySummary::from_latencies(&[Duration::from_micros(10), Duration::from_micros(90)]);
        assert_eq!(s.count, 2);
        // Nearest rank: ceil(0.5 * 2) = 1 → first sample; the tail
        // percentiles land on the second.
        assert_eq!(s.p50_us, 10);
        assert_eq!(s.p95_us, 90);
        assert_eq!(s.p99_us, 90);
    }
}
