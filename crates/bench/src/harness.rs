//! The experiment harness: shared machinery for regenerating the paper's
//! tables.
//!
//! Protocol notes (see DESIGN.md §4 and EXPERIMENTS.md):
//!
//! * **Phase 1 (Table 5).** Each segmentation algorithm is plugged into
//!   the *same* VS2-Select stage; its per-entity localisation proposals
//!   (the selected logical-block boxes) are matched label-free against
//!   the ground-truth boxes at IoU ≥ 0.65.
//! * **Phase 2 (Tables 6–8).** The end-to-end predictions (label + span
//!   box + text) are matched with label equality plus geometric *or*
//!   textual agreement.

use vs2_baselines::{Extractor, Segmenter};
use vs2_core::pipeline::{Vs2Config, Vs2Pipeline};
use vs2_docmodel::AnnotatedDocument;
use vs2_eval::{evaluate_end_to_end, evaluate_segmentation, ExtractionItem, PrCounts};
pub use vs2_serve::weights_for;
use vs2_serve::ModelCache;
use vs2_synth::{generate, DatasetConfig, DatasetId};

/// Number of documents per dataset in a harness run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Documents per dataset.
    pub n_docs: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            n_docs: 120,
            seed: vs2_serve::DEFAULT_DOC_SEED,
        }
    }
}

/// Builds the learned VS2 pipeline for a dataset: `config` with the
/// dataset's Eq. 2 weights, over the model `vs2d` serves for `seed`
/// ([`ModelCache::pipeline_for`]).
pub fn build_pipeline(dataset: DatasetId, seed: u64, mut config: Vs2Config) -> Vs2Pipeline {
    config.weights = weights_for(dataset);
    ModelCache::new().pipeline_for(dataset, seed, config)
}

/// Generates the evaluation documents of a dataset.
pub fn dataset_docs(dataset: DatasetId, cfg: &RunConfig) -> Vec<AnnotatedDocument> {
    generate(dataset, DatasetConfig::new(cfg.n_docs, cfg.seed))
}

/// Phase-1 scores of one segmentation algorithm on one dataset: the
/// per-entity localisation proposals of the shared Select stage, matched
/// label-free.
pub fn phase1_scores<S: Segmenter + ?Sized>(
    segmenter: &S,
    pipeline: &Vs2Pipeline,
    docs: &[AnnotatedDocument],
) -> PrCounts {
    let mut counts = PrCounts::default();
    for ad in docs {
        let blocks = segmenter.segment(&ad.doc);
        let extractions = pipeline.extract_on_blocks(&ad.doc, &blocks);
        let proposals: Vec<_> = extractions.iter().map(|e| e.block_bbox).collect();
        let truth: Vec<_> = ad.annotations.iter().map(|a| a.bbox).collect();
        counts.add(&evaluate_segmentation(&proposals, &truth));
    }
    counts
}

/// Phase-2 end-to-end scores of an extractor on labelled documents, plus
/// per-document F1 samples (for the §6.4 t-test).
pub fn phase2_scores<E: Extractor + ?Sized>(
    extractor: &E,
    docs: &[AnnotatedDocument],
) -> (PrCounts, Vec<f64>) {
    let mut counts = PrCounts::default();
    let mut per_doc_f1 = Vec::with_capacity(docs.len());
    for ad in docs {
        let preds: Vec<ExtractionItem> = extractor
            .extract(&ad.doc)
            .into_iter()
            .map(|p| ExtractionItem::new(p.entity, p.bbox, p.text))
            .collect();
        let truth: Vec<ExtractionItem> = ad
            .annotations
            .iter()
            .map(|a| ExtractionItem::new(a.entity.clone(), a.bbox, a.text.clone()))
            .collect();
        let c = evaluate_end_to_end(&preds, &truth);
        per_doc_f1.push(c.f1());
        counts.add(&c);
    }
    (counts, per_doc_f1)
}

/// Phase-2 scores restricted to one entity type.
pub fn phase2_scores_for_entity<E: Extractor + ?Sized>(
    extractor: &E,
    docs: &[AnnotatedDocument],
    entity: &str,
) -> PrCounts {
    let mut counts = PrCounts::default();
    for ad in docs {
        let preds: Vec<ExtractionItem> = extractor
            .extract(&ad.doc)
            .into_iter()
            .filter(|p| p.entity == entity)
            .map(|p| ExtractionItem::new(p.entity, p.bbox, p.text))
            .collect();
        let truth: Vec<ExtractionItem> = ad
            .annotations
            .iter()
            .filter(|a| a.entity == entity)
            .map(|a| ExtractionItem::new(a.entity.clone(), a.bbox, a.text.clone()))
            .collect();
        counts.add(&evaluate_end_to_end(&preds, &truth));
    }
    counts
}

/// The full VS2 extractor for phase-2 comparisons.
#[derive(Debug, Clone)]
pub struct Vs2Extractor {
    /// The learned pipeline.
    pub pipeline: Vs2Pipeline,
}

impl Extractor for Vs2Extractor {
    fn name(&self) -> &'static str {
        "VS2"
    }

    fn extract(&self, doc: &vs2_docmodel::Document) -> Vec<vs2_baselines::Prediction> {
        self.pipeline
            .extract(doc)
            .into_iter()
            .map(|e| vs2_baselines::Prediction {
                entity: e.entity,
                text: e.text,
                bbox: e.span_bbox,
            })
            .collect()
    }
}

/// A simple fixed-width table printer with JSON export.
#[derive(Debug, Clone)]
pub struct ResultTable {
    /// Table title (e.g. `Table 5`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (first cell is the row label).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

serde::impl_serde_struct!(ResultTable {
    title,
    headers,
    rows,
    notes
});

impl ResultTable {
    /// Creates a table.
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Self {
        Self {
            title: title.into(),
            headers,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Appends a note.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(c.len());
                } else {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Writes the rendered table and a JSON artefact under `results/`.
    pub fn save(&self, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all("results")?;
        std::fs::write(format!("results/{name}.txt"), self.render())?;
        std::fs::write(
            format!("results/{name}.json"),
            serde_json::to_string_pretty(self).expect("table serialises"),
        )?;
        Ok(())
    }
}

/// Formats a ratio as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering() {
        let mut t = ResultTable::new("Table X", vec!["Algo".into(), "P".into(), "R".into()]);
        t.push_row(vec!["VS2".into(), "95.50".into(), "98.65".into()]);
        t.push_note("sample");
        let s = t.render();
        assert!(s.contains("Table X"));
        assert!(s.contains("VS2"));
        assert!(s.contains("note: sample"));
    }

    #[test]
    fn weights_follow_the_paper() {
        use vs2_core::select::Eq2Weights;
        assert_eq!(weights_for(DatasetId::D2), Eq2Weights::visual_heavy());
        assert_eq!(weights_for(DatasetId::D1), Eq2Weights::balanced());
        assert_eq!(weights_for(DatasetId::D3), Eq2Weights::balanced());
    }

    #[test]
    fn pipeline_builds_for_each_dataset() {
        for id in DatasetId::ALL {
            let p = build_pipeline(id, 7, Vs2Config::default());
            assert!(!p.entities().is_empty(), "{id:?}");
        }
    }

    #[test]
    fn small_phase_runs() {
        let cfg = RunConfig { n_docs: 3, seed: 5 };
        let docs = dataset_docs(DatasetId::D2, &cfg);
        let pipeline = build_pipeline(DatasetId::D2, cfg.seed, Vs2Config::default());
        let seg = vs2_baselines::Vs2Segmenter::default();
        let p1 = phase1_scores(&seg, &pipeline, &docs);
        assert!(p1.true_positives + p1.false_negatives > 0);
        let vs2 = Vs2Extractor { pipeline };
        let (p2, f1s) = phase2_scores(&vs2, &docs);
        assert_eq!(f1s.len(), 3);
        assert!(p2.true_positives + p2.false_negatives > 0);
    }
}
