//! Property tests for the atomic `Histogram`: what it records must equal
//! the single-threaded `HistogramSnapshot::record` reference, and its
//! percentiles must agree with the exact nearest-rank sample percentile
//! to within one bucket.

use proptest::prelude::*;
use vs2_obs::{bucket_of, Histogram, HistogramSnapshot};

/// The nearest-rank percentile computed directly over the raw samples.
fn exact_percentile(values: &[u64], p: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merged_percentiles_match_single_shard_reference(
        values in proptest::collection::vec(0u64..1 << 40, 1..120),
    ) {
        let hist = Histogram::default();
        let mut reference = HistogramSnapshot::empty();
        for &v in &values {
            hist.observe(v);
            reference.record(v);
        }
        let snap = hist.snapshot();
        prop_assert_eq!(&snap, &reference);
        for p in [50.0, 95.0, 99.0] {
            // Same bucketed value as the reference, and within one
            // bucket of the exact nearest-rank sample percentile.
            prop_assert_eq!(snap.percentile(p), reference.percentile(p));
            let exact = exact_percentile(&values, p);
            prop_assert_eq!(bucket_of(snap.percentile(p)), bucket_of(exact));
        }
    }
}
