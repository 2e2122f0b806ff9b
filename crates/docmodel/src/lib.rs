//! # vs2-docmodel
//!
//! The document layout model of *VS2* (Sarkhel & Nandi, SIGMOD 2019,
//! "Visual Segmentation for Information Extraction from Heterogeneous
//! Visually Rich Documents"), §4.
//!
//! A visually rich document is modelled as a nested tuple `(C, T)` where
//! `C` is the set of visual contents and `T` their visual organisation:
//!
//! * [`TextElement`] / [`ImageElement`] — the atomic elements (§4.1);
//! * [`Document`] — a page plus its atomic elements;
//! * [`LayoutTree`] — the hierarchical layout tree `T_D` whose leaves are
//!   the *logical blocks* (§4.2);
//! * [`BBox`] / [`Point`] / [`Lab`] — geometry and colour primitives;
//! * [`OccupancyGrid`] — the whitespace raster the cut machinery runs on;
//! * [`arena`] — the per-job interned token arena ([`TokenInterner`]) and
//!   borrowed document view ([`DocView`]) the zero-copy pipeline passes
//!   between stages;
//! * [`svg`] — rendering of documents and block overlays for the paper's
//!   qualitative figures.
//!
//! This crate is dependency-free and deterministic; every downstream crate
//! of the reproduction builds on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod color;
pub mod document;
pub mod element;
pub mod geometry;
pub mod grid;
pub mod layout;
pub mod packed;
#[cfg(feature = "serde")]
mod serde_impls;
pub mod svg;

pub use arena::{DocView, TokenId, TokenInterner};
pub use color::{Lab, Rgb};
pub use document::{AnnotatedDocument, Document, EntityAnnotation, GeometryError};
pub use element::{ElementRef, ImageElement, MarkupClass, TextElement};
pub use geometry::{BBox, Point};
pub use grid::OccupancyGrid;
pub use layout::{LayoutNode, LayoutTree, NodeId};
pub use packed::PackedGrid;

#[cfg(test)]
mod proptests {
    use crate::geometry::BBox;
    use crate::grid::OccupancyGrid;
    use proptest::prelude::*;

    fn arb_bbox() -> impl Strategy<Value = BBox> {
        (0.0..500.0f64, 0.0..500.0f64, 0.1..200.0f64, 0.1..200.0f64)
            .prop_map(|(x, y, w, h)| BBox::new(x, y, w, h))
    }

    proptest! {
        #[test]
        fn iou_is_symmetric(a in arb_bbox(), b in arb_bbox()) {
            prop_assert!((a.iou(&b) - b.iou(&a)).abs() < 1e-12);
        }

        #[test]
        fn iou_is_bounded(a in arb_bbox(), b in arb_bbox()) {
            let v = a.iou(&b);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        }

        #[test]
        fn union_contains_both(a in arb_bbox(), b in arb_bbox()) {
            // `union` recomputes extents as (max - min), which can round a
            // hair below the exact edge; allow one ulp-scale inflation.
            let u = a.union(&b).inflate(1e-9);
            prop_assert!(u.contains_box(&a));
            prop_assert!(u.contains_box(&b));
        }

        #[test]
        fn intersection_contained_in_both(a in arb_bbox(), b in arb_bbox()) {
            if let Some(i) = a.intersection(&b) {
                prop_assert!(a.contains_box(&i));
                prop_assert!(b.contains_box(&i));
            }
        }

        #[test]
        fn distance_zero_iff_touching_or_overlapping(a in arb_bbox(), b in arb_bbox()) {
            let d = a.distance(&b);
            prop_assert!(d >= 0.0);
            if a.intersects(&b) {
                prop_assert_eq!(d, 0.0);
            }
        }

        #[test]
        fn inflate_preserves_centroid(a in arb_bbox(), m in 0.0..50.0f64) {
            let c0 = a.centroid();
            let c1 = a.inflate(m).centroid();
            prop_assert!((c0.x - c1.x).abs() < 1e-9 && (c0.y - c1.y).abs() < 1e-9);
        }

        #[test]
        fn every_box_centroid_cell_is_occupied(b in arb_bbox()) {
            let area = BBox::new(0.0, 0.0, 800.0, 800.0);
            let g = OccupancyGrid::rasterize(&area, &[b], 4.0);
            let c = b.centroid();
            let col = (c.x / 4.0) as usize;
            let row = (c.y / 4.0) as usize;
            prop_assert!(g.is_occupied(col, row));
        }
    }
}
