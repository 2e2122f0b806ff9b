//! The visually rich document: a page plus its atomic elements.

use crate::element::{ElementRef, ImageElement, TextElement};
use crate::geometry::BBox;

/// A visually rich document `D`, modelled as its page extent plus the sets
/// of textual (`A_T`) and image (`A_I`) atomic elements (§4.2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Document {
    /// Stable document identifier (dataset-assigned).
    pub id: String,
    /// Page width in document units.
    pub width: f64,
    /// Page height in document units.
    pub height: f64,
    /// Textual atomic elements (words), in generation order.
    pub texts: Vec<TextElement>,
    /// Image atomic elements.
    pub images: Vec<ImageElement>,
}

impl Document {
    /// Creates an empty page of the given extent.
    pub fn new(id: impl Into<String>, width: f64, height: f64) -> Self {
        Self {
            id: id.into(),
            width,
            height,
            texts: Vec::new(),
            images: Vec::new(),
        }
    }

    /// Bounding box of the whole page.
    pub fn page_bbox(&self) -> BBox {
        BBox::new(0.0, 0.0, self.width, self.height)
    }

    /// Adds a word and returns its reference.
    pub fn push_text(&mut self, t: TextElement) -> ElementRef {
        self.texts.push(t);
        ElementRef::Text(self.texts.len() - 1)
    }

    /// Adds an image and returns its reference.
    pub fn push_image(&mut self, i: ImageElement) -> ElementRef {
        self.images.push(i);
        ElementRef::Image(self.images.len() - 1)
    }

    /// Total number of atomic elements.
    pub fn len(&self) -> usize {
        self.texts.len() + self.images.len()
    }

    /// `true` when the document holds no atomic elements.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty() && self.images.is_empty()
    }

    /// Bounding box of an element reference.
    pub fn bbox_of(&self, r: ElementRef) -> BBox {
        match r {
            ElementRef::Text(i) => self.texts[i].bbox,
            ElementRef::Image(i) => self.images[i].bbox,
        }
    }

    /// Text of an element reference; `None` for images.
    pub fn text_of(&self, r: ElementRef) -> Option<&str> {
        match r {
            ElementRef::Text(i) => Some(self.texts[i].text.as_str()),
            ElementRef::Image(_) => None,
        }
    }

    /// All element references, texts first.
    pub fn element_refs(&self) -> Vec<ElementRef> {
        (0..self.texts.len())
            .map(ElementRef::Text)
            .chain((0..self.images.len()).map(ElementRef::Image))
            .collect()
    }

    /// References of all elements whose bounding box is fully contained in
    /// `area`. This is the "reverse lookup in the list of atomic elements"
    /// of §4.2 used to populate layout-tree nodes.
    pub fn elements_in(&self, area: &BBox) -> Vec<ElementRef> {
        self.element_refs()
            .into_iter()
            .filter(|r| area.contains_box(&self.bbox_of(*r)))
            .collect()
    }

    /// References of all elements whose bounding box intersects `area`.
    pub fn elements_intersecting(&self, area: &BBox) -> Vec<ElementRef> {
        self.element_refs()
            .into_iter()
            .filter(|r| area.intersects(&self.bbox_of(*r)))
            .collect()
    }

    /// Words of the given element references in reading order (line-major:
    /// elements are grouped into lines by vertical overlap, lines sorted
    /// top-to-bottom, words within a line left-to-right). This is the
    /// transcription a text-only pipeline would see for a region.
    pub fn transcribe(&self, refs: &[ElementRef]) -> String {
        let words = self.reading_order(refs);
        let mut out = String::new();
        for (i, r) in words.iter().enumerate() {
            if let ElementRef::Text(t) = r {
                if i > 0 && !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(&self.texts[*t].text);
            }
        }
        out
    }

    /// Transcription of the entire document.
    pub fn transcribe_all(&self) -> String {
        self.transcribe(&self.element_refs())
    }

    /// Sorts the given references into reading order (see
    /// [`Document::transcribe`]). Images participate via their bounding box
    /// but produce no text.
    pub fn reading_order(&self, refs: &[ElementRef]) -> Vec<ElementRef> {
        // Group into lines: two elements are on the same line when their
        // vertical extents overlap by more than half the smaller height.
        // Elements are tagged with a line ordinal in y order; one stable
        // sort by (line, x) then equals sorting each line by x.
        let mut items: Vec<(u32, f64, ElementRef, BBox)> = refs
            .iter()
            .map(|r| (0, 0.0, *r, self.bbox_of(*r)))
            .collect();
        items.sort_by(|a, b| a.3.y.total_cmp(&b.3.y));
        let mut line = 0u32;
        let mut lb: Option<BBox> = None;
        for item in &mut items {
            let b = item.3;
            match &mut lb {
                Some(cur) => {
                    let overlap = (cur.bottom().min(b.bottom()) - cur.y.max(b.y)).max(0.0);
                    let min_h = cur.h.min(b.h).max(1e-9);
                    if overlap / min_h > 0.5 {
                        *cur = cur.union(&b);
                    } else {
                        line += 1;
                        *cur = b;
                    }
                }
                None => lb = Some(b),
            }
            item.0 = line;
            item.1 = b.x;
        }
        items.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        items.into_iter().map(|(_, _, r, _)| r).collect()
    }

    /// Average word density of a region: words per unit area, scaled by
    /// 10⁴ for readability (document units are pixel-like). One of the
    /// interest-point objectives (§5.3.1).
    pub fn word_density(&self, area: &BBox) -> f64 {
        if area.area() <= 0.0 {
            return 0.0;
        }
        let n = self
            .texts
            .iter()
            .filter(|t| area.intersects(&t.bbox))
            .count();
        n as f64 * 1e4 / area.area()
    }

    /// Checks that the geometry can be segmented: a finite, positive page
    /// size, and element boxes with finite coordinates and finite,
    /// non-negative sizes. Returns the first offending field, page size
    /// first, then texts, then images, each in order. Placement on the
    /// page is not checked.
    pub fn validate_geometry(&self) -> Result<(), GeometryError> {
        for (field, value) in [("width", self.width), ("height", self.height)] {
            if !(value.is_finite() && value > 0.0) {
                return Err(GeometryError::PageSize { field, value });
            }
        }
        let boxes = self
            .texts
            .iter()
            .enumerate()
            .map(|(i, t)| (ElementRef::Text(i), t.bbox));
        let images = self.images.iter().enumerate();
        for (element, b) in boxes.chain(images.map(|(i, im)| (ElementRef::Image(i), im.bbox))) {
            for (field, value) in [("x", b.x), ("y", b.y)] {
                if !value.is_finite() {
                    return Err(GeometryError::BoxCoordinate {
                        element,
                        field,
                        value,
                    });
                }
            }
            for (field, value) in [("w", b.w), ("h", b.h)] {
                if !(value.is_finite() && value >= 0.0) {
                    return Err(GeometryError::BoxSize {
                        element,
                        field,
                        value,
                    });
                }
            }
        }
        Ok(())
    }
}

/// A document geometry field that cannot be segmented (see
/// [`Document::validate_geometry`]). `Display` names the field by its
/// path in the serialized document, e.g. `texts[3].bbox.w`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeometryError {
    /// The page `width` or `height` is not finite and positive.
    PageSize {
        /// `"width"` or `"height"`.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A box corner coordinate is not finite.
    BoxCoordinate {
        /// The element whose box it is.
        element: ElementRef,
        /// `"x"` or `"y"`.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A box width or height is not finite and non-negative.
    BoxSize {
        /// The element whose box it is.
        element: ElementRef,
        /// `"w"` or `"h"`.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let element_path = |f: &mut std::fmt::Formatter<'_>, element: &ElementRef| match element {
            ElementRef::Text(i) => write!(f, "texts[{i}]"),
            ElementRef::Image(i) => write!(f, "images[{i}]"),
        };
        match self {
            GeometryError::PageSize { field, value } => {
                write!(
                    f,
                    "{field} = {value}: page size must be finite and positive"
                )
            }
            GeometryError::BoxCoordinate {
                element,
                field,
                value,
            } => {
                element_path(f, element)?;
                write!(f, ".bbox.{field} = {value}: box coordinate must be finite")
            }
            GeometryError::BoxSize {
                element,
                field,
                value,
            } => {
                element_path(f, element)?;
                write!(
                    f,
                    ".bbox.{field} = {value}: box size must be finite and non-negative"
                )
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// A ground-truth named-entity annotation: the smallest bounding box that
/// contains the entity and the expected text (§6.2's annotation protocol).
#[derive(Debug, Clone, PartialEq)]
pub struct EntityAnnotation {
    /// Entity-type key, e.g. `"event_title"` or `"broker_phone"`.
    pub entity: String,
    /// Ground-truth bounding box of the entity text.
    pub bbox: BBox,
    /// Ground-truth text of the entity.
    pub text: String,
}

impl EntityAnnotation {
    /// Creates an annotation.
    pub fn new(entity: impl Into<String>, bbox: BBox, text: impl Into<String>) -> Self {
        Self {
            entity: entity.into(),
            bbox,
            text: text.into(),
        }
    }
}

/// A document paired with its expert annotations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnnotatedDocument {
    /// The document as observed by the extraction pipeline (post-OCR).
    pub doc: Document,
    /// Ground-truth entity annotations (pre-noise coordinates).
    pub annotations: Vec<EntityAnnotation>,
}

impl AnnotatedDocument {
    /// All annotations of a given entity type.
    pub fn annotations_for(&self, entity: &str) -> Vec<&EntityAnnotation> {
        self.annotations
            .iter()
            .filter(|a| a.entity == entity)
            .collect()
    }

    /// Distinct entity types present in this document, sorted.
    pub fn entity_types(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.annotations.iter().map(|a| a.entity.as_str()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_with_words(words: &[(&str, f64, f64, f64, f64)]) -> Document {
        let mut d = Document::new("t", 100.0, 100.0);
        for (w, x, y, ww, h) in words {
            d.push_text(TextElement::word(*w, BBox::new(*x, *y, *ww, *h)));
        }
        d
    }

    #[test]
    fn geometry_validation_names_the_first_bad_field() {
        let ok = doc_with_words(&[("a", 0.0, 0.0, 0.0, 0.0), ("b", -5.0, 300.0, 10.0, 10.0)]);
        assert_eq!(
            ok.validate_geometry(),
            Ok(()),
            "zero size and off-page are fine"
        );
        let mut page = ok.clone();
        page.height = 0.0;
        assert_eq!(
            page.validate_geometry().unwrap_err().to_string(),
            "height = 0: page size must be finite and positive"
        );
        page.width = f64::NAN;
        assert!(page
            .validate_geometry()
            .unwrap_err()
            .to_string()
            .starts_with("width = NaN"));
        let mut coord = ok.clone();
        coord.texts[1].bbox.y = f64::INFINITY;
        assert_eq!(
            coord.validate_geometry().unwrap_err().to_string(),
            "texts[1].bbox.y = inf: box coordinate must be finite"
        );
        let mut size = ok.clone();
        size.push_image(ImageElement::new(7, BBox::default(), Default::default()));
        size.images[0].bbox.h = -2.0;
        assert_eq!(
            size.validate_geometry(),
            Err(GeometryError::BoxSize {
                element: ElementRef::Image(0),
                field: "h",
                value: -2.0,
            })
        );
        size.images[0].bbox.h = 2.0;
        size.images[0].bbox.w = f64::INFINITY;
        assert_eq!(
            size.validate_geometry().unwrap_err().to_string(),
            "images[0].bbox.w = inf: box size must be finite and non-negative"
        );
    }

    #[test]
    fn reading_order_is_line_major() {
        let d = doc_with_words(&[
            ("world", 30.0, 10.0, 20.0, 10.0),
            ("hello", 5.0, 10.0, 20.0, 10.0),
            ("below", 5.0, 40.0, 20.0, 10.0),
        ]);
        assert_eq!(d.transcribe_all(), "hello world below");
    }

    #[test]
    fn reading_order_tolerates_small_vertical_jitter() {
        let d = doc_with_words(&[("b", 30.0, 12.0, 10.0, 10.0), ("a", 5.0, 10.0, 10.0, 10.0)]);
        assert_eq!(d.transcribe_all(), "a b");
    }

    #[test]
    fn elements_in_vs_intersecting() {
        let d = doc_with_words(&[
            ("in", 10.0, 10.0, 10.0, 10.0),
            ("edge", 25.0, 10.0, 10.0, 10.0),
        ]);
        let area = BBox::new(5.0, 5.0, 25.0, 20.0);
        assert_eq!(d.elements_in(&area).len(), 1);
        assert_eq!(d.elements_intersecting(&area).len(), 2);
    }

    #[test]
    fn word_density_scales_with_area() {
        let d = doc_with_words(&[("a", 0.0, 0.0, 5.0, 5.0), ("b", 10.0, 0.0, 5.0, 5.0)]);
        let tight = BBox::new(0.0, 0.0, 20.0, 10.0);
        let loose = BBox::new(0.0, 0.0, 100.0, 100.0);
        assert!(d.word_density(&tight) > d.word_density(&loose));
        assert_eq!(d.word_density(&BBox::new(0.0, 0.0, 0.0, 0.0)), 0.0);
    }

    #[test]
    fn annotated_document_queries() {
        let mut ad = AnnotatedDocument::default();
        ad.annotations.push(EntityAnnotation::new(
            "title",
            BBox::new(0.0, 0.0, 10.0, 10.0),
            "Rust Meetup",
        ));
        ad.annotations.push(EntityAnnotation::new(
            "time",
            BBox::new(0.0, 20.0, 10.0, 10.0),
            "7 PM",
        ));
        assert_eq!(ad.annotations_for("title").len(), 1);
        assert_eq!(ad.entity_types(), vec!["time", "title"]);
    }

    #[test]
    fn document_len_and_bbox_lookup() {
        let mut d = Document::new("x", 50.0, 50.0);
        let t = d.push_text(TextElement::word("w", BBox::new(1.0, 2.0, 3.0, 4.0)));
        let i = d.push_image(ImageElement::new(
            7,
            BBox::new(10.0, 10.0, 5.0, 5.0),
            crate::color::Lab::default(),
        ));
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.bbox_of(t), BBox::new(1.0, 2.0, 3.0, 4.0));
        assert_eq!(d.bbox_of(i), BBox::new(10.0, 10.0, 5.0, 5.0));
        assert_eq!(d.text_of(t), Some("w"));
        assert_eq!(d.text_of(i), None);
    }
}
