//! Deterministic fault injection for chaos testing the serving layer.
//!
//! A [`FaultPlan`] is a *pure function* from `(plan seed, site, job seq)`
//! to a fault decision — no wall-clock randomness, no global
//! state. The same plan therefore injects the same faults into the same
//! jobs whatever the worker count or scheduling order, which is what
//! lets the conformance chaos suite assert byte-identical output for a
//! 1-worker and a 4-worker run under the same fault seed.
//!
//! Injection is enabled only through
//! [`crate::engine::EngineConfig::faults`]; with the plan absent the
//! production path pays a single `Option` branch per site.

use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};

/// Named points in the extraction pipeline where faults can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Model lookup/learning (the `ModelCache` path).
    ModelBuild,
    /// VS2-Segment — logical-block decomposition.
    Segment,
    /// VS2-Select — pattern search and candidate assignment.
    Select,
}

impl FaultSite {
    /// Stable site name for error messages and logs.
    pub fn name(&self) -> &'static str {
        match self {
            FaultSite::ModelBuild => "model_build",
            FaultSite::Segment => "segment",
            FaultSite::Select => "select",
        }
    }

    fn index(&self) -> u64 {
        match self {
            FaultSite::ModelBuild => 1,
            FaultSite::Segment => 2,
            FaultSite::Select => 3,
        }
    }

    /// All sites, in pipeline order.
    pub fn all() -> [FaultSite; 3] {
        [FaultSite::ModelBuild, FaultSite::Segment, FaultSite::Select]
    }
}

/// What a fault decision injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (exercises `catch_unwind` isolation and the
    /// degrade fallback).
    Panic,
    /// Sleep for the plan's injected latency, then continue normally
    /// (exercises slow-path scheduling without changing output).
    Latency(Duration),
}

/// A seeded chaos plan: per-site fault probabilities in permille.
///
/// The two rates are evaluated in order (panic, then latency) against
/// one uniform draw in `[0, 1000)`, so their sum must not exceed 1000.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Master seed; every decision derives from it deterministically.
    pub seed: u64,
    /// Probability of an injected panic per site visit, in permille.
    pub panic_per_mille: u32,
    /// Probability of injected latency per site visit, in permille.
    pub latency_per_mille: u32,
    /// Sleep applied when a latency fault fires.
    pub injected_latency: Duration,
}

impl FaultPlan {
    /// The standard chaos-test mix: occasional panics and some
    /// artificial latency.
    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            panic_per_mille: 60,
            latency_per_mille: 100,
            injected_latency: Duration::from_millis(2),
        }
    }

    /// A plan that never fires — used to prove that merely *enabling*
    /// the machinery does not change behaviour.
    pub fn inert(seed: u64) -> Self {
        Self {
            seed,
            panic_per_mille: 0,
            latency_per_mille: 0,
            injected_latency: Duration::ZERO,
        }
    }

    /// The fault (if any) to inject at `site` for job `seq`. Pure and
    /// deterministic: repeated calls with the same arguments always
    /// agree.
    pub fn decide(&self, site: FaultSite, seq: u64) -> Option<FaultKind> {
        let budget = (self.panic_per_mille + self.latency_per_mille) as u64;
        debug_assert!(budget <= 1000, "fault rates exceed 1000 permille");
        if budget == 0 {
            return None;
        }
        // Mix the coordinates with distinct odd multipliers; StdRng's
        // SplitMix64 seeding diffuses the result.
        let mixed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(site.index().wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(seq.wrapping_mul(0x94D0_49BB_1331_11EB));
        let mut rng = StdRng::seed_from_u64(mixed);
        let draw: u64 = rng.gen_range(0u64..1000);
        if draw < self.panic_per_mille as u64 {
            Some(FaultKind::Panic)
        } else if draw < budget {
            Some(FaultKind::Latency(self.injected_latency))
        } else {
            None
        }
    }

    /// Executes the decision for `(site, seq)`: sleeps on a latency
    /// fault, panics on a panic fault, and is a no-op otherwise. This is
    /// what [`crate::engine::JobCtx::checkpoint`] calls.
    pub fn apply(&self, site: FaultSite, seq: u64) {
        match self.decide(site, seq) {
            Some(FaultKind::Latency(d)) if !d.is_zero() => std::thread::sleep(d),
            // The message keeps the `attempt 0` of the attempt-keyed
            // plan format: degraded lines and quarantine records carry
            // it, so chaos output keeps the bytes of that format.
            Some(FaultKind::Panic) => {
                panic!("injected panic at {} (seq {seq}, attempt 0)", site.name())
            }
            Some(FaultKind::Latency(_)) | None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::chaos(42);
        for site in FaultSite::all() {
            for seq in 0..50u64 {
                assert_eq!(plan.decide(site, seq), plan.decide(site, seq));
            }
        }
    }

    #[test]
    fn decisions_vary_by_coordinate() {
        // Not a statistical test — just that seed/site/seq all actually
        // participate in the decision.
        let a = FaultPlan::chaos(1);
        let b = FaultPlan::chaos(2);
        let differs = |f: &dyn Fn(u64) -> Option<FaultKind>,
                       g: &dyn Fn(u64) -> Option<FaultKind>| {
            (0..200).any(|s| f(s) != g(s))
        };
        assert!(differs(&|s| a.decide(FaultSite::Segment, s), &|s| b
            .decide(FaultSite::Segment, s)));
        assert!(differs(&|s| a.decide(FaultSite::Segment, s), &|s| a
            .decide(FaultSite::Select, s)));
    }

    /// The draw of the plan format that also mixed a 0-based attempt
    /// number into the seed, kept verbatim: `attempt` times its
    /// multiplier is 0 at the first attempt, so dropping the coordinate
    /// must leave every first-attempt draw as it was.
    fn attempt_keyed_draw(seed: u64, site: FaultSite, seq: u64, attempt: u32) -> u64 {
        let mixed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(site.index().wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(seq.wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add((attempt as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let mut rng = StdRng::seed_from_u64(mixed);
        rng.gen_range(0u64..1000)
    }

    #[test]
    fn panics_fire_where_the_attempt_keyed_draw_put_them() {
        // The conformance chaos seed, the `vs2d` CLI tests' seed and one
        // more.
        for seed in [0xC4A0_5EED, 0x5, 42] {
            let plan = FaultPlan::chaos(seed);
            let mut panics = 0;
            for site in FaultSite::all() {
                for seq in 0..4096u64 {
                    let draw = attempt_keyed_draw(seed, site, seq, 0);
                    let decision = plan.decide(site, seq);
                    let panicked = decision == Some(FaultKind::Panic);
                    assert_eq!(
                        panicked,
                        draw < 60,
                        "seed {seed:#x}, {}, seq {seq}: draw {draw}",
                        site.name()
                    );
                    // Latency takes the band right after the panic band.
                    let delayed = matches!(decision, Some(FaultKind::Latency(_)));
                    assert_eq!(delayed, (60..160).contains(&draw), "seq {seq}");
                    panics += u32::from(panicked);
                }
            }
            assert!(panics > 0, "seed {seed:#x} panics nowhere");
        }
    }

    #[test]
    fn rates_roughly_respected() {
        let plan = FaultPlan {
            seed: 7,
            panic_per_mille: 0,
            latency_per_mille: 500,
            injected_latency: Duration::ZERO,
        };
        let n = 2000;
        let fired = (0..n)
            .filter(|&s| plan.decide(FaultSite::Select, s).is_some())
            .count();
        let frac = fired as f64 / n as f64;
        assert!((0.4..0.6).contains(&frac), "latency rate off: {frac}");
    }

    #[test]
    fn inert_plan_never_fires() {
        let plan = FaultPlan::inert(99);
        for site in FaultSite::all() {
            for seq in 0..500u64 {
                assert_eq!(plan.decide(site, seq), None);
                plan.apply(site, seq);
            }
        }
    }

    #[test]
    fn apply_matches_decide() {
        let plan = FaultPlan {
            seed: 3,
            panic_per_mille: 1000,
            latency_per_mille: 0,
            injected_latency: Duration::ZERO,
        };
        let payload = std::panic::catch_unwind(|| plan.apply(FaultSite::ModelBuild, 5))
            .expect_err("a 1000 permille panic plan panics");
        let message = payload.downcast_ref::<String>().unwrap();
        assert_eq!(message, "injected panic at model_build (seq 5, attempt 0)");
    }
}
