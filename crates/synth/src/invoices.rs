//! D4: invoices and receipts — the triage workload.
//!
//! The paper's three datasets are all *heterogeneous*; the triage router
//! (`vs2_core::triage`) exists for the opposite traffic class —
//! whitespace-regular, table-dominated billing documents where full VS2
//! segmentation buys nothing over a recursive XY-cut. D4 models that
//! class: per-vendor template families of line-item invoices (style 0)
//! and two-column receipts (style 1), with header metadata and footer
//! totals around a line-item table of distractor rows.
//!
//! ## Geometry contract
//!
//! Like [`crate::templated`], token boxes are template-fixed: every
//! document of a family has bit-identical clean geometry (only glyph
//! content varies), word centroids are locked to the default fingerprint
//! lattice with at least [`CENTROID_MARGIN`] units of clearance, and the
//! per-line token counts are content-independent. Consequently a family
//! shares one layout fingerprint, the triage features are stable under
//! the [`invoice_ocr`] noise channel, and the plan cache composes with
//! cheap-path routing on this corpus.
//!
//! The noise channel deliberately excludes rotation: a rotated scan is
//! exactly the case triage must *not* route cheap (the skew gate sends
//! it to full VS2), and D1 already exercises that path. D4's premise is
//! digitally rendered billing PDFs.
//!
//! Entity schema (six keys, [`entities`]): vendor name, invoice number,
//! invoice date, due date, customer name, total due. Line-item rows are
//! unannotated distractors — their amount tokens carry no `$` sign so
//! the total-due patterns stay anchored on the footer keywords.

use crate::ocr::{self, OcrConfig};
use crate::textgen;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use vs2_docmodel::{AnnotatedDocument, BBox, Document, EntityAnnotation, TextElement};
use vs2_nlp::lexicon::Topic;

/// Entity keys of the D4 IE task.
pub mod entities {
    /// The issuing vendor's name (header).
    pub const VENDOR_NAME: &str = "vendor_name";
    /// The invoice / receipt number.
    pub const INVOICE_NUMBER: &str = "invoice_number";
    /// Issue date.
    pub const INVOICE_DATE: &str = "invoice_date";
    /// Payment due date.
    pub const DUE_DATE: &str = "due_date";
    /// The billed customer's name.
    pub const CUSTOMER_NAME: &str = "customer_name";
    /// The footer's total amount due.
    pub const TOTAL_DUE: &str = "total_due";
    /// All six, in layout order.
    pub const ALL: [&str; 6] = [
        VENDOR_NAME,
        INVOICE_NUMBER,
        INVOICE_DATE,
        DUE_DATE,
        CUSTOMER_NAME,
        TOTAL_DUE,
    ];
}

const PAGE_W: f64 = 612.0;
const PAGE_H: f64 = 792.0;
/// Fingerprint-lattice geometry (default `FingerprintConfig`, 16×16).
const FP_GRID: f64 = 16.0;
const COL_STEP: f64 = PAGE_W / FP_GRID; // 38.25
const ROW_STEP: f64 = PAGE_H / FP_GRID; // 49.5
/// Two words per lattice cell, as in `crate::templated`.
const WORD_PITCH: f64 = COL_STEP / 2.0;

/// Number of vendor template families. Even families render the
/// full-page invoice style, odd families the two-column receipt style.
pub const FAMILIES: usize = 8;
/// Minimum distance every clean word centroid keeps from all
/// fingerprint-cell boundaries (same contract as `crate::templated`).
pub const CENTROID_MARGIN: f64 = 4.0;

/// The D4 noise channel: character substitutions and sub-unit box
/// jitter only — digitally rendered billing documents. No rotation (a
/// skewed page must route to full VS2, which D1 covers) and no
/// drops/merges/splits (those change element counts, breaking the
/// family-fingerprint premise the plan-cache composition relies on).
/// The jitter bound matches `crate::templated::template_ocr` and the
/// same skew-estimator rationale: at 0.25 the estimator stays under
/// `SKEW_EPSILON` on essentially every document, so triage routing is
/// decided by the layout features, not by jitter-induced pseudo-skew.
pub fn invoice_ocr() -> OcrConfig {
    OcrConfig {
        char_sub_rate: 0.02,
        word_drop_rate: 0.0,
        word_merge_rate: 0.0,
        word_split_rate: 0.0,
        bbox_jitter: 0.25,
        rotation_deg: 0.0,
    }
}

/// One fixed-geometry text line of a family template.
struct Line {
    row: usize,
    col: usize,
    tokens: Vec<String>,
    /// `Some((entity, value))` when the line carries an annotation; the
    /// annotation box is the whole line, the text is the value alone
    /// (the flyers convention — phase-2 matching is textual).
    annotate: Option<(&'static str, String)>,
}

/// Layout skeleton shared by every document of one family.
#[derive(Debug, Clone, Copy)]
struct FamilySpec {
    x_off: f64,
    y_off: f64,
    word_w: f64,
    word_h: f64,
    /// Left / right / centre lattice start columns.
    col_left: usize,
    col_right: usize,
    col_mid: usize,
    /// Line-item rows in the table.
    n_items: usize,
}

/// `true` for the two-column receipt style (odd families).
pub fn is_receipt(fam: usize) -> bool {
    (fam % FAMILIES) % 2 == 1
}

fn family_spec(fam: usize) -> FamilySpec {
    let mut rng = StdRng::seed_from_u64(0x1DC0_0000 + (fam % FAMILIES) as u64);
    FamilySpec {
        x_off: [6.0, 8.0, 10.0][rng.gen_range(0..3usize)],
        y_off: [10.0, 14.0, 18.0][rng.gen_range(0..3usize)],
        word_w: [15.0, 16.0, 17.0][rng.gen_range(0..3usize)],
        word_h: [11.0, 12.0, 13.0][rng.gen_range(0..3usize)],
        col_left: rng.gen_range(1..=2),
        col_right: rng.gen_range(8..=9),
        col_mid: rng.gen_range(4..=5),
        n_items: if is_receipt(fam) {
            rng.gen_range(5..=7)
        } else {
            rng.gen_range(4..=6)
        },
    }
}

fn split_tokens(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

/// An unsigned line-item amount, e.g. `12.50` — deliberately without
/// the `$` sign the total-due surface form carries.
fn item_amount(rng: &mut StdRng) -> String {
    format!("{}.{:02}", rng.gen_range(5..400), rng.gen_range(0..100))
}

/// Per-document line content. Token counts per line are fixed given the
/// family, so geometry never depends on the draw.
fn lines(spec: &FamilySpec, receipt: bool, rng: &mut StdRng) -> Vec<Line> {
    let vendor = format!(
        "{} {}",
        textgen::pick_cap(rng, Topic::PersonLast),
        textgen::pick_cap(rng, Topic::Organization)
    );
    let number = textgen::invoice_number(rng);
    let issued = textgen::calendar_date(rng);
    let due = textgen::calendar_date(rng);
    let customer = textgen::person_name(rng);
    let total = textgen::money_amount(rng);
    let subtotal = textgen::money_amount(rng);
    let tax = textgen::money_amount(rng);

    let vendor_tokens = split_tokens(&vendor);
    let number_line = {
        let mut t = vec!["Invoice".to_string(), "No".to_string()];
        t.push(number.clone());
        t
    };
    let date_line = {
        let mut t = vec!["Date".to_string()];
        t.extend(split_tokens(&issued));
        t
    };
    let due_line = {
        let mut t = vec!["Due".to_string()];
        t.extend(split_tokens(&due));
        t
    };
    let customer_line = {
        let mut t = vec!["Bill".to_string(), "To".to_string()];
        t.extend(split_tokens(&customer));
        t
    };
    let total_line = vec!["Total".to_string(), total.clone()];
    let footer = ["Thank", "you", "for", "your", "business"]
        .map(String::from)
        .to_vec();

    let mut out = Vec::new();
    let push = |row: usize,
                col: usize,
                tokens: Vec<String>,
                annotate: Option<(&'static str, String)>,
                out: &mut Vec<Line>| {
        out.push(Line {
            row,
            col,
            tokens,
            annotate,
        });
    };

    if receipt {
        // Two-column receipt: metadata split across the columns, two
        // parallel item columns, centre total, left footer.
        push(
            1,
            spec.col_mid,
            vendor_tokens,
            Some((entities::VENDOR_NAME, vendor)),
            &mut out,
        );
        push(
            2,
            spec.col_left,
            number_line,
            Some((entities::INVOICE_NUMBER, number)),
            &mut out,
        );
        push(
            2,
            spec.col_right,
            date_line,
            Some((entities::INVOICE_DATE, issued)),
            &mut out,
        );
        push(
            3,
            spec.col_left,
            due_line,
            Some((entities::DUE_DATE, due)),
            &mut out,
        );
        push(
            3,
            spec.col_right,
            customer_line,
            Some((entities::CUSTOMER_NAME, customer)),
            &mut out,
        );
        for i in 0..spec.n_items {
            for col in [spec.col_left, spec.col_right] {
                let item = vec![textgen::pick_cap(rng, Topic::Structure), item_amount(rng)];
                push(4 + i, col, item, None, &mut out);
            }
        }
        push(
            12,
            spec.col_mid,
            total_line,
            Some((entities::TOTAL_DUE, total)),
            &mut out,
        );
        push(13, spec.col_left, footer, None, &mut out);
    } else {
        // Full-page invoice: left header/table column, right metadata
        // and totals column, footer row shared between both.
        push(
            1,
            spec.col_left,
            vendor_tokens,
            Some((entities::VENDOR_NAME, vendor)),
            &mut out,
        );
        push(
            2,
            spec.col_right,
            number_line,
            Some((entities::INVOICE_NUMBER, number)),
            &mut out,
        );
        push(
            3,
            spec.col_right,
            date_line,
            Some((entities::INVOICE_DATE, issued)),
            &mut out,
        );
        push(
            4,
            spec.col_right,
            due_line,
            Some((entities::DUE_DATE, due)),
            &mut out,
        );
        push(
            5,
            spec.col_left,
            customer_line,
            Some((entities::CUSTOMER_NAME, customer)),
            &mut out,
        );
        for i in 0..spec.n_items {
            let item = vec![
                rng.gen_range(1..10u32).to_string(),
                textgen::pick_cap(rng, Topic::Structure),
                item_amount(rng),
                item_amount(rng),
            ];
            push(6 + i, spec.col_left, item, None, &mut out);
        }
        push(
            12,
            spec.col_right,
            vec!["Subtotal".to_string(), subtotal],
            None,
            &mut out,
        );
        push(
            13,
            spec.col_right,
            vec!["Tax".to_string(), tax],
            None,
            &mut out,
        );
        push(
            14,
            spec.col_right,
            total_line,
            Some((entities::TOTAL_DUE, total)),
            &mut out,
        );
        push(14, spec.col_left, footer, None, &mut out);
    }
    out
}

/// Builds one clean family document.
fn build(fam: usize, content_index: usize, seed: u64) -> AnnotatedDocument {
    let fam = fam % FAMILIES;
    let spec = family_spec(fam);
    let mut rng = StdRng::seed_from_u64(
        (seed ^ 0x1DC0_1CE5)
            .wrapping_add((content_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let mut doc = Document::new(format!("inv-{fam}-{content_index:04}"), PAGE_W, PAGE_H);
    let mut annotations = Vec::new();
    for line in lines(&spec, is_receipt(fam), &mut rng) {
        let cy = line.row as f64 * ROW_STEP + spec.y_off;
        let mut boxes = Vec::with_capacity(line.tokens.len());
        for (i, w) in line.tokens.iter().enumerate() {
            let cx = line.col as f64 * COL_STEP + spec.x_off + i as f64 * WORD_PITCH;
            let bbox = BBox::new(
                cx - spec.word_w / 2.0,
                cy - spec.word_h / 2.0,
                spec.word_w,
                spec.word_h,
            );
            doc.push_text(TextElement::word(w.clone(), bbox));
            boxes.push(bbox);
        }
        if let Some((entity, value)) = line.annotate {
            let span = BBox::enclosing(boxes.iter()).expect("line has tokens");
            annotations.push(EntityAnnotation::new(entity, span, value));
        }
    }
    AnnotatedDocument { doc, annotations }
}

/// One clean (noise-free) invoice; family = `doc_index % FAMILIES`.
pub fn generate_clean(doc_index: usize, seed: u64) -> AnnotatedDocument {
    build(doc_index % FAMILIES, doc_index, seed)
}

/// Document `doc_index` of the noised D4 stream — the doc-id-addressable
/// entry point, mirroring `dataset::generate_one`.
pub fn generate_one(doc_index: usize, seed: u64) -> AnnotatedDocument {
    let mut rng = StdRng::seed_from_u64(
        (seed ^ 0x1D0C).wrapping_add((doc_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    ocr::apply(&generate_clean(doc_index, seed), &invoice_ocr(), &mut rng)
}

/// `n` noised invoices, round-robin over the families.
pub fn corpus(n: usize, seed: u64) -> Vec<AnnotatedDocument> {
    (0..n).map(|i| generate_one(i, seed)).collect()
}

/// Vendor template family of a corpus document index.
pub fn family_of(doc_index: usize) -> usize {
    doc_index % FAMILIES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_members_share_clean_geometry() {
        for fam in 0..FAMILIES {
            let a = generate_clean(fam, 7);
            let b = generate_clean(fam + FAMILIES, 7);
            assert_eq!(a.doc.texts.len(), b.doc.texts.len(), "family {fam}");
            for (x, y) in a.doc.texts.iter().zip(&b.doc.texts) {
                assert_eq!(x.bbox, y.bbox, "family {fam} geometry drifted");
            }
            let texts_differ = a
                .doc
                .texts
                .iter()
                .zip(&b.doc.texts)
                .any(|(x, y)| x.text != y.text);
            assert!(texts_differ, "family {fam} content is frozen");
        }
    }

    #[test]
    fn centroids_respect_the_lattice_margin() {
        for fam in 0..FAMILIES {
            let d = generate_clean(fam, 7);
            for t in &d.doc.texts {
                let c = t.bbox.centroid();
                for (v, step) in [(c.x, COL_STEP), (c.y, ROW_STEP)] {
                    let r = v.rem_euclid(step);
                    let margin = r.min(step - r);
                    assert!(
                        margin >= CENTROID_MARGIN,
                        "family {fam}: centroid {v} margin {margin}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_six_entities_annotated_once() {
        for i in 0..FAMILIES {
            let d = generate_one(i, 11);
            for e in entities::ALL {
                assert_eq!(d.annotations_for(e).len(), 1, "doc {i} missing {e}");
            }
        }
    }

    #[test]
    fn annotations_carry_bare_values() {
        let d = generate_clean(0, 3);
        for a in &d.annotations {
            match a.entity.as_str() {
                entities::INVOICE_NUMBER => {
                    assert!(a.text.chars().all(|c| c.is_ascii_digit()), "{}", a.text)
                }
                entities::TOTAL_DUE => assert!(a.text.starts_with('$'), "{}", a.text),
                _ => assert!(!a.text.is_empty()),
            }
            // The label prefix stays out of the annotated value.
            assert!(!a.text.contains("Invoice") && !a.text.contains("Total"));
        }
    }

    #[test]
    fn both_styles_render() {
        let invoice = generate_clean(0, 5); // even family: full-page
        let receipt = generate_clean(1, 5); // odd family: two-column
        assert!(!is_receipt(0) && is_receipt(1));
        // The receipt packs two item columns → more lines share a row.
        assert!(!invoice.doc.texts.is_empty() && !receipt.doc.texts.is_empty());
        let rows = |d: &AnnotatedDocument| {
            let mut ys: Vec<i64> = d.doc.texts.iter().map(|t| t.bbox.y as i64).collect();
            ys.sort();
            ys.dedup();
            ys.len()
        };
        assert!(rows(&receipt) < rows(&invoice) + 5);
    }

    #[test]
    fn corpus_is_deterministic_and_noised() {
        let a = corpus(6, 3);
        let b = corpus(6, 3);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.doc, y.doc);
        }
        let clean = generate_clean(0, 3);
        assert!(a[0]
            .doc
            .texts
            .iter()
            .zip(&clean.doc.texts)
            .any(|(n, c)| n.bbox != c.bbox));
    }

    #[test]
    fn noise_channel_preserves_element_count() {
        // No drops/merges/splits: the family-fingerprint premise.
        for i in 0..8 {
            let clean = generate_clean(i, 9);
            let noised = generate_one(i, 9);
            assert_eq!(clean.doc.texts.len(), noised.doc.texts.len());
        }
    }
}
