//! The hierarchical document layout model `T_D = (V, E)` of §4.2.
//!
//! Each node represents a visual area by the smallest bounding box that
//! encloses it; an edge means the child's area is enclosed by the parent's.
//! Non-leaf nodes are nested, semantically diverse areas; leaves are the
//! visually isolated, semantically coherent areas — after segmentation
//! converges, the leaves are the document's *logical blocks*.

use crate::element::ElementRef;
use crate::geometry::BBox;

/// Identifier of a node in a [`LayoutTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A node `n = (B, x, y, width, height)` of the layout tree: the enclosed
/// atomic elements plus the enclosing bounding box.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutNode {
    /// Smallest bounding box enclosing the node's visual area.
    pub bbox: BBox,
    /// Atomic elements appearing within the area.
    pub elements: Vec<ElementRef>,
    /// Child areas, in insertion order.
    pub children: Vec<NodeId>,
    /// Parent area; `None` for the root.
    pub parent: Option<NodeId>,
    /// Marks nodes removed by merge operations; dead nodes are skipped by
    /// all traversals.
    dead: bool,
}

impl LayoutNode {
    /// `true` when the node has no children (and is alive).
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// An arena-allocated layout tree rooted at the whole page.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutTree {
    nodes: Vec<LayoutNode>,
    root: NodeId,
}

impl LayoutTree {
    /// Creates a tree whose root covers `bbox` and owns `elements`.
    pub fn new(bbox: BBox, elements: Vec<ElementRef>) -> Self {
        let root = LayoutNode {
            bbox,
            elements,
            children: Vec::new(),
            parent: None,
            dead: false,
        };
        Self {
            nodes: vec![root],
            root: NodeId(0),
        }
    }

    /// Root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &LayoutNode {
        &self.nodes[id.0]
    }

    /// Number of live nodes. Merging kills nodes without freeing their
    /// arena slots, so this is no bound on [`NodeId`]s: size a per-node
    /// table by [`arena_len`](Self::arena_len).
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| !n.dead).count()
    }

    /// Number of arena slots, dead nodes included: every [`NodeId`] this
    /// tree has issued is below it.
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Adds a child area under `parent` and returns its id.
    pub fn add_child(&mut self, parent: NodeId, bbox: BBox, elements: Vec<ElementRef>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(LayoutNode {
            bbox,
            elements,
            children: Vec::new(),
            parent: Some(parent),
            dead: false,
        });
        self.nodes[parent.0].children.push(id);
        id
    }

    /// Depth of a node (root = 0).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.nodes[cur.0].parent {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the tree: maximum depth over live nodes. Enters the merge
    /// threshold θ_h of §5.1.2.
    pub fn height(&self) -> usize {
        self.live_ids().map(|id| self.depth(id)).max().unwrap_or(0)
    }

    /// All live node ids in arena order.
    pub fn live_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.dead)
            .map(|(i, _)| NodeId(i))
    }

    /// Live leaves — after convergence, the logical blocks of the document.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.live_ids()
            .filter(|id| self.node(*id).is_leaf())
            .collect()
    }

    /// Live siblings of `id` (children of the same parent, excluding `id`).
    pub fn siblings(&self, id: NodeId) -> Vec<NodeId> {
        match self.node(id).parent {
            None => Vec::new(),
            Some(p) => self
                .node(p)
                .children
                .iter()
                .copied()
                .filter(|c| *c != id && !self.nodes[c.0].dead)
                .collect(),
        }
    }

    /// Live nodes at the same depth as `id`, excluding `id` itself. Eq. 1
    /// contrasts siblings with non-sibling nodes on the same level.
    pub fn same_level(&self, id: NodeId) -> Vec<NodeId> {
        let d = self.depth(id);
        self.live_ids()
            .filter(|n| *n != id && self.depth(*n) == d)
            .collect()
    }

    /// Merges `b` into `a`: `a` absorbs `b`'s elements, children and
    /// bounding box, and `b` is removed from the tree. Both must share the
    /// same parent. This is the semantic-merging update of §5.1.2, where
    /// "nodes n_i and n_p are replaced by the merged node".
    ///
    /// # Panics
    /// Panics when the nodes are not siblings or either is the root — a
    /// programmer error in the segmentation driver.
    pub fn merge_siblings(&mut self, a: NodeId, b: NodeId) {
        assert_ne!(a, b, "cannot merge a node with itself");
        let pa = self.node(a).parent.expect("merge target must not be root");
        let pb = self.node(b).parent.expect("merge source must not be root");
        assert_eq!(pa, pb, "merge operands must be siblings");

        let b_node = std::mem::replace(
            &mut self.nodes[b.0],
            LayoutNode {
                bbox: BBox::default(),
                elements: Vec::new(),
                children: Vec::new(),
                parent: None,
                dead: true,
            },
        );
        for c in &b_node.children {
            self.nodes[c.0].parent = Some(a);
        }
        let merged_bbox = self.nodes[a.0].bbox.union(&b_node.bbox);
        let an = &mut self.nodes[a.0];
        an.bbox = merged_bbox;
        an.elements.extend(b_node.elements);
        an.children.extend(b_node.children);
        // Unlink b from the parent's child list.
        let parent = &mut self.nodes[pa.0];
        parent.children.retain(|c| *c != b);
    }

    /// Pre-order traversal of live nodes starting at the root.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            if self.nodes[id.0].dead {
                continue;
            }
            out.push(id);
            // Push children reversed so traversal visits them in order.
            for c in self.node(id).children.iter().rev() {
                stack.push(*c);
            }
        }
        out
    }

    /// Renders an indented textual dump of the tree (for diagnostics and
    /// the Fig. 4 reproduction).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for id in self.preorder() {
            let n = self.node(id);
            let d = self.depth(id);
            out.push_str(&"  ".repeat(d));
            out.push_str(&format!(
                "[{}] bbox=({:.0},{:.0},{:.0},{:.0}) elems={} {}\n",
                id.0,
                n.bbox.x,
                n.bbox.y,
                n.bbox.w,
                n.bbox.h,
                n.elements.len(),
                if n.is_leaf() { "(leaf)" } else { "" }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_tree() -> (LayoutTree, NodeId, NodeId, NodeId) {
        let mut t = LayoutTree::new(BBox::new(0.0, 0.0, 100.0, 100.0), vec![]);
        let a = t.add_child(
            t.root(),
            BBox::new(0.0, 0.0, 50.0, 50.0),
            vec![ElementRef::Text(0)],
        );
        let b = t.add_child(
            t.root(),
            BBox::new(50.0, 0.0, 50.0, 50.0),
            vec![ElementRef::Text(1)],
        );
        let c = t.add_child(
            a,
            BBox::new(0.0, 0.0, 25.0, 25.0),
            vec![ElementRef::Text(2)],
        );
        (t, a, b, c)
    }

    #[test]
    fn arena_len_bounds_ids_after_a_merge_kills_a_node() {
        let (mut t, a, b, _) = simple_tree();
        // Kill the second arena node: the last one stays live.
        t.merge_siblings(b, a);
        assert_eq!(t.len(), 3);
        assert_eq!(t.arena_len(), 4);
        assert!(t.live_ids().all(|id| id.0 < t.arena_len()));
        // A table sized by the live count misses the last live id.
        let last = t.live_ids().last().unwrap();
        assert_eq!(last.0, 3);
        assert!(last.0 >= t.len());
    }

    #[test]
    fn depth_and_height() {
        let (t, a, b, c) = simple_tree();
        assert_eq!(t.depth(t.root()), 0);
        assert_eq!(t.depth(a), 1);
        assert_eq!(t.depth(b), 1);
        assert_eq!(t.depth(c), 2);
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn leaves_and_siblings() {
        let (t, a, b, c) = simple_tree();
        let leaves = t.leaves();
        assert!(leaves.contains(&b) && leaves.contains(&c) && !leaves.contains(&a));
        assert_eq!(t.siblings(a), vec![b]);
        assert_eq!(t.siblings(t.root()), vec![]);
    }

    #[test]
    fn same_level_excludes_self_and_other_depths() {
        let (t, a, b, c) = simple_tree();
        assert_eq!(t.same_level(a), vec![b]);
        assert_eq!(t.same_level(c), vec![]);
    }

    #[test]
    fn merge_absorbs_elements_children_and_bbox() {
        let (mut t, a, b, c) = simple_tree();
        let before_len = t.len();
        t.merge_siblings(a, b);
        assert_eq!(t.len(), before_len - 1);
        let an = t.node(a);
        assert_eq!(an.bbox, BBox::new(0.0, 0.0, 100.0, 50.0));
        assert_eq!(an.elements.len(), 2);
        assert_eq!(t.node(t.root()).children, vec![a]);
        // c stays attached under a.
        assert_eq!(t.node(c).parent, Some(a));
    }

    #[test]
    fn merge_reparents_source_children() {
        let mut t = LayoutTree::new(BBox::new(0.0, 0.0, 10.0, 10.0), vec![]);
        let a = t.add_child(t.root(), BBox::new(0.0, 0.0, 5.0, 5.0), vec![]);
        let b = t.add_child(t.root(), BBox::new(5.0, 0.0, 5.0, 5.0), vec![]);
        let bc = t.add_child(b, BBox::new(5.0, 0.0, 2.0, 2.0), vec![]);
        t.merge_siblings(a, b);
        assert_eq!(t.node(bc).parent, Some(a));
        assert!(t.node(a).children.contains(&bc));
    }

    #[test]
    #[should_panic(expected = "siblings")]
    fn merge_rejects_non_siblings() {
        let (mut t, a, _b, c) = simple_tree();
        // c is a child of a, not a sibling.
        t.merge_siblings(a, c);
    }

    #[test]
    fn preorder_visits_in_document_order() {
        let (t, a, b, c) = simple_tree();
        assert_eq!(t.preorder(), vec![t.root(), a, c, b]);
    }

    #[test]
    fn dump_contains_all_live_nodes() {
        let (t, _, _, _) = simple_tree();
        let s = t.dump();
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("(leaf)"));
    }
}
