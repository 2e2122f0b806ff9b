//! The three serving workloads and their seeded job generator.
//!
//! Every job is an inline `{"dataset":..,"doc":{..}}` line, so `vs2d`
//! receives only the generated documents and never runs the synthetic
//! generator itself.

use std::sync::Arc;

use vs2_docmodel::AnnotatedDocument;
use vs2_serve::{JobDocCache, JobSource, JobSpec, ServiceOptions};
use vs2_synth::{generate_one, DatasetConfig, DatasetId};

/// The mixed serving blend: per 16 documents, twelve D4 invoices, two
/// D1 forms, one D2 poster and one D3 flyer, interleaved.
const MIX: [DatasetId; 16] = [
    DatasetId::D4,
    DatasetId::D4,
    DatasetId::D1,
    DatasetId::D4,
    DatasetId::D4,
    DatasetId::D2,
    DatasetId::D4,
    DatasetId::D4,
    DatasetId::D1,
    DatasetId::D4,
    DatasetId::D4,
    DatasetId::D3,
    DatasetId::D4,
    DatasetId::D4,
    DatasetId::D4,
    DatasetId::D4,
];

/// One benchmark workload: an input stream plus the `vs2d` mode it is
/// served in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// D1 tax forms, plain mode: the full segment → select → assign path.
    FormsFull,
    /// The 8-family templated corpus with the plan cache on: read-heavy
    /// plan replay, nearly idle segmenter.
    TemplatedPlan,
    /// The 12:2:1:1 D4:D1:D2:D3 blend with triage and the plan cache on.
    MixedRouted,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FormsFull,
        Workload::TemplatedPlan,
        Workload::MixedRouted,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FormsFull => "forms-full",
            Workload::TemplatedPlan => "templated-plan",
            Workload::MixedRouted => "mixed-routed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `vs2d` flags of the workload's serving mode.
    pub fn vs2d_flags(self) -> &'static [&'static str] {
        match self {
            Workload::FormsFull => &[],
            Workload::TemplatedPlan => &["--plan-cache"],
            Workload::MixedRouted => &["--triage", "--plan-cache"],
        }
    }

    /// The same mode as in-process [`ServiceOptions`].
    pub fn service_options(self) -> ServiceOptions {
        ServiceOptions {
            plan_cache: self != Workload::FormsFull,
            naive_segment: false,
            triage: self == Workload::MixedRouted,
        }
    }

    /// Dataset of the `i`-th document of the stream.
    pub fn dataset_at(self, i: usize) -> DatasetId {
        match self {
            Workload::FormsFull => DatasetId::D1,
            Workload::TemplatedPlan => DatasetId::Templated,
            Workload::MixedRouted => MIX[i % MIX.len()],
        }
    }

    /// The models the workload serves, in first-use order.
    pub fn models(self) -> Vec<DatasetId> {
        let mut out: Vec<DatasetId> = Vec::new();
        for i in 0..MIX.len() {
            let id = self.dataset_at(i);
            if !out.contains(&id) {
                out.push(id);
            }
        }
        out
    }

    /// Documents in one job file. Sized so that one `vs2d` pass over
    /// the file takes about half a second at two workers: short passes
    /// give a run many of them to take the median of.
    pub fn batch_docs(self) -> usize {
        match self {
            Workload::FormsFull => 320,
            Workload::TemplatedPlan => 2400,
            Workload::MixedRouted => 960,
        }
    }

    /// Documents of the in-process replay passes: a prefix of the job
    /// file, long enough to fill the plan store and then read it.
    pub fn trace_docs(self) -> usize {
        match self {
            Workload::FormsFull => 240,
            Workload::TemplatedPlan => 800,
            Workload::MixedRouted => 480,
        }
    }
}

/// One generated job: its dataset, the document with its ground truth,
/// and the job line `vs2d` reads.
pub struct Job {
    /// Dataset the document belongs to (selects the served model).
    pub dataset: DatasetId,
    /// The document and its annotations.
    pub doc: AnnotatedDocument,
    /// The inline job line, without its newline.
    pub line: String,
}

/// The job spec of an inline document.
pub fn inline_spec(dataset: DatasetId, doc: &AnnotatedDocument) -> JobSpec {
    JobSpec {
        job_id: None,
        dataset,
        source: JobSource::Inline(Arc::new(doc.doc.clone())),
        client: None,
        lane: None,
        doc_cache: JobDocCache::default(),
    }
}

fn job(dataset: DatasetId, index: usize, seed: u64) -> Job {
    let doc = generate_one(dataset, index, DatasetConfig::new(1, seed));
    let line = serde_json::to_string(&inline_spec(dataset, &doc)).expect("job spec serialises");
    Job { dataset, doc, line }
}

/// The workload's first `n` jobs under `seed`. The same seed always
/// gives the same jobs.
pub fn jobs(workload: Workload, seed: u64, n: usize) -> Vec<Job> {
    (0..n)
        .map(|i| job(workload.dataset_at(i), i, seed))
        .collect()
}

/// The warm-up jobs: one per model the workload serves, drawn from a
/// stream disjoint from the measured one.
pub fn warmup_jobs(workload: Workload, seed: u64) -> Vec<Job> {
    let warm_seed = seed ^ 0x5741_524D;
    workload
        .models()
        .into_iter()
        .map(|id| job(id, 0, warm_seed))
        .collect()
}

/// A job file: the lines joined with newlines.
pub fn job_file(jobs: &[Job]) -> String {
    let mut out = String::new();
    for j in jobs {
        out.push_str(&j.line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_job_file_and_another_seed_does_not() {
        for w in Workload::ALL {
            let a = job_file(&jobs(w, 7, 20));
            let b = job_file(&jobs(w, 7, 20));
            let c = job_file(&jobs(w, 8, 20));
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
        }
    }

    #[test]
    fn jobs_are_inline_and_name_their_dataset() {
        for w in Workload::ALL {
            for (i, j) in jobs(w, 3, 16).iter().enumerate() {
                assert!(j.line.contains("\"doc\":{"), "{}", w.name());
                assert!(!j.line.contains("doc_index"), "{}", w.name());
                let spec: JobSpec = serde_json::from_str(&j.line).unwrap();
                assert_eq!(spec.dataset, w.dataset_at(i));
            }
        }
    }

    #[test]
    fn the_mixed_blend_serves_four_models() {
        assert_eq!(
            Workload::MixedRouted.models(),
            vec![DatasetId::D4, DatasetId::D1, DatasetId::D2, DatasetId::D3]
        );
        assert_eq!(Workload::FormsFull.models(), vec![DatasetId::D1]);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
