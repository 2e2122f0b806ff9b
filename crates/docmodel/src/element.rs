//! Atomic visual content elements (§4.1 of the paper).
//!
//! An *atomic element* is the smallest unit of visual content in a document
//! and is either textual or an image. We deem a *word* the textual element
//! of a document, exactly as the paper does.

use crate::color::Lab;
use crate::geometry::BBox;

/// Markup role hints carried by documents that originate from a structured
/// format (HTML-like flyers in dataset D3, digital PDFs in D2).
///
/// These hints are *not* consumed by VS2 itself — the paper's point is that
/// VS2 relies only on low-level features — but they are what VIPS-style
/// baselines exploit. Scanned documents (dataset D1, mobile captures in D2)
/// carry no markup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarkupClass {
    /// Top-level heading (`<h1>`).
    Heading1,
    /// Second-level heading (`<h2>`/`<h3>`).
    Heading2,
    /// Body paragraph text.
    Paragraph,
    /// List item.
    ListItem,
    /// Table cell.
    TableCell,
    /// Page footer / fine print.
    Footer,
    /// Emphasised inline text.
    Emphasis,
}

/// The smallest element of a document that has textual attributes
/// (§4.1.1): a single word, its bounding box, and the average colour of
/// the enclosed visual area.
#[derive(Debug, Clone, PartialEq)]
pub struct TextElement {
    /// The word as transcribed (possibly corrupted by the OCR channel).
    pub text: String,
    /// Smallest bounding box enclosing the word.
    pub bbox: BBox,
    /// Average colour (CIE Lab) of the enclosed area.
    pub color: Lab,
    /// Nominal font size in document units. For rendered text this equals
    /// the glyph height; it is retained separately because OCR bbox jitter
    /// perturbs `bbox.h` but the generator's intent is useful ground truth
    /// for diagnostics.
    pub font_size: f64,
    /// Markup role hint when the source format provides one.
    pub markup: Option<MarkupClass>,
}

impl TextElement {
    /// Creates a word element with default (black) colour and no markup.
    pub fn word(text: impl Into<String>, bbox: BBox) -> Self {
        Self {
            text: text.into(),
            bbox,
            color: Lab::new(0.0, 0.0, 0.0),
            font_size: bbox.h,
            markup: None,
        }
    }

    /// Builder-style colour assignment.
    pub fn with_color(mut self, color: Lab) -> Self {
        self.color = color;
        self
    }

    /// Builder-style markup assignment.
    pub fn with_markup(mut self, markup: MarkupClass) -> Self {
        self.markup = Some(markup);
        self
    }

    /// Builder-style font-size assignment.
    pub fn with_font_size(mut self, size: f64) -> Self {
        self.font_size = size;
        self
    }
}

/// The transcribed word, so a document's texts can be handed to code that
/// only reads strings without collecting them first.
impl AsRef<str> for TextElement {
    fn as_ref(&self) -> &str {
        &self.text
    }
}

/// An atomic element representing image content (§4.1.2). The bitmap itself
/// is abstracted to an identifier plus its average colour, which is all any
/// algorithm in the paper consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageElement {
    /// Identifier of the underlying bitmap (generator-assigned).
    pub image_id: u64,
    /// Smallest bounding box enclosing the image.
    pub bbox: BBox,
    /// Average colour of the bitmap.
    pub avg_color: Lab,
}

impl ImageElement {
    /// Creates an image element.
    pub fn new(image_id: u64, bbox: BBox, avg_color: Lab) -> Self {
        Self {
            image_id,
            bbox,
            avg_color,
        }
    }
}

/// A reference to an atomic element inside its owning [`crate::Document`],
/// stable across segmentation (elements are never reordered once a document
/// is built).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ElementRef {
    /// Index into [`crate::Document::texts`].
    Text(usize),
    /// Index into [`crate::Document::images`].
    Image(usize),
}

impl ElementRef {
    /// `true` for text elements.
    pub fn is_text(&self) -> bool {
        matches!(self, ElementRef::Text(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_builder_defaults() {
        let w = TextElement::word("hello", BBox::new(0.0, 0.0, 30.0, 12.0));
        assert_eq!(w.text, "hello");
        assert_eq!(w.font_size, 12.0);
        assert!(w.markup.is_none());
    }

    #[test]
    fn builders_chain() {
        let w = TextElement::word("x", BBox::new(0.0, 0.0, 8.0, 10.0))
            .with_color(Lab::new(50.0, 1.0, 1.0))
            .with_markup(MarkupClass::Heading1)
            .with_font_size(24.0);
        assert_eq!(w.markup, Some(MarkupClass::Heading1));
        assert_eq!(w.font_size, 24.0);
        assert_eq!(w.color.l, 50.0);
    }

    #[test]
    fn element_ref_ordering_groups_texts_before_images() {
        let mut refs = vec![
            ElementRef::Image(0),
            ElementRef::Text(3),
            ElementRef::Text(1),
        ];
        refs.sort();
        assert_eq!(
            refs,
            vec![
                ElementRef::Text(1),
                ElementRef::Text(3),
                ElementRef::Image(0)
            ]
        );
        assert!(refs[0].is_text());
        assert!(!ElementRef::Image(9).is_text());
    }
}
