//! The traced pass's span tree: one root span per document, one bench
//! span per public call, and the program's own `vs2_obs` spans grafted
//! below the call that produced them.
//!
//! Spans stay in memory while the pass runs and are written out once,
//! as JSON lines, when it ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Id, unique within the whole tree.
    pub id: u32,
    /// The enclosing span; `None` for a document's root.
    pub parent: Option<u32>,
    /// Document the span belongs to.
    pub doc: u32,
    /// Span name: a bench call (`wire.parse`) or a program stage
    /// (`vs2.segment.grid`).
    pub name: &'static str,
    /// Start, nanoseconds from the tree's origin.
    pub start_ns: u64,
    /// End, nanoseconds from the tree's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects the spans of the traced pass.
pub struct SpanTree {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanTree {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanTree {
    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanTree::close`].
    pub fn open(&mut self, name: &'static str, doc: u32, parent: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            doc,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` under a bench span named `name` with a `vs2_obs::Trace`
    /// installed, and grafts the program spans it recorded below the
    /// bench span. Returns `f`'s value and the bench span's id.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        doc: u32,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let id = self.open(name, doc, Some(parent));
        // The trace's own origin is taken inside `Trace::start`, after
        // this instant, so shifting its offsets by `base` keeps every
        // program span inside the bench span.
        let base = self.now_ns();
        let trace = vs2_obs::Trace::start();
        let out = f();
        let records = trace.finish();
        self.close(id);
        let first = self.spans.len() as u32;
        for r in records {
            let parent = r.parent.map_or(id, |p| first + p);
            let start_ns = base + r.start_ns;
            self.spans.push(Span {
                id: first + r.id,
                parent: Some(parent),
                doc,
                name: r.stage,
                start_ns,
                end_ns: start_ns + r.dur_ns,
            });
        }
        (out, id)
    }

    /// The tree as JSON lines, one span a line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"doc\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.doc, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children of one span never overlap (spans nest on a
/// single thread), so their durations simply add up.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// The bench call a span belongs to: the ancestor (or the span itself)
/// that hangs directly below its document's root.
fn call_of(spans: &[Span], mut i: usize) -> Option<usize> {
    loop {
        let p = spans[i].parent? as usize;
        if spans[p].parent.is_none() {
            return Some(i);
        }
        i = p;
    }
}

/// Per document, the summed self time (ns) of every span named `name`
/// inside a bench call named `call`. Documents without such a span
/// read 0.
pub fn self_time_per_doc(spans: &[Span], call: &str, name: &str, docs: u32) -> Vec<u64> {
    let own = self_times(spans);
    let mut per_doc = vec![0u64; docs as usize];
    for (i, (s, t)) in spans.iter().zip(own).enumerate() {
        if s.name == name && call_of(spans, i).is_some_and(|c| spans[c].name == call) {
            per_doc[s.doc as usize] += t;
        }
    }
    per_doc
}

/// Checks the tree's shape: spans are stored at their id, every document
/// has exactly one root, every child belongs to its parent's document
/// and its interval lies inside its parent's.
pub fn check_tree(spans: &[Span], docs: u32) -> Result<(), String> {
    let mut roots: BTreeMap<u32, u32> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.id as usize != i {
            return Err(format!("span {} stored at index {i}", s.id));
        }
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ends before it starts", s.id));
        }
        match s.parent {
            None => *roots.entry(s.doc).or_default() += 1,
            Some(p) => {
                let Some(parent) = spans.get(p as usize).filter(|_| p < s.id) else {
                    return Err(format!("span {} has a missing parent {p}", s.id));
                };
                if parent.doc != s.doc {
                    return Err(format!("span {} crosses documents", s.id));
                }
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {} ({}) lies outside its parent {} ({})",
                        s.id, s.name, p, parent.name
                    ));
                }
            }
        }
    }
    for doc in 0..docs {
        match roots.get(&doc) {
            Some(1) => {}
            n => return Err(format!("document {doc} has {} roots", n.unwrap_or(&0))),
        }
    }
    if roots.len() != docs as usize {
        return Err(format!(
            "{} documents have roots, expected {docs}",
            roots.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, doc: u32, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            doc,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    /// doc 0: root [0,100] ⊃ a [10,50] ⊃ {b [12,20], b [25,45] ⊃ c [30,40]},
    ///        root ⊃ d [60,90]; doc 1: root [200,260] ⊃ b [210,220].
    fn hand_tree() -> Vec<Span> {
        vec![
            span(0, None, 0, "doc", 0, 100),
            span(1, Some(0), 0, "a", 10, 50),
            span(2, Some(1), 0, "b", 12, 20),
            span(3, Some(1), 0, "b", 25, 45),
            span(4, Some(3), 0, "c", 30, 40),
            span(5, Some(0), 0, "d", 60, 90),
            span(6, None, 1, "doc", 200, 260),
            span(7, Some(6), 1, "b", 210, 220),
        ]
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let t = self_times(&hand_tree());
        // root: 100 - (40 + 30); a: 40 - (8 + 20); b: 8; b: 20 - 10; c: 10; d: 30.
        assert_eq!(t, vec![30, 12, 8, 10, 10, 30, 50, 10]);
        let spans = hand_tree();
        // `a` and `d` are the calls of doc 0, `b` the call of doc 1.
        assert_eq!(self_time_per_doc(&spans, "a", "b", 2), vec![18, 0]);
        assert_eq!(self_time_per_doc(&spans, "b", "b", 2), vec![0, 10]);
        assert_eq!(self_time_per_doc(&spans, "a", "c", 2), vec![10, 0]);
        assert_eq!(self_time_per_doc(&spans, "d", "c", 2), vec![0, 0]);
        assert_eq!(self_time_per_doc(&spans, "a", "missing", 2), vec![0, 0]);
        // Self times of a document add up to its root's duration.
        let doc0: u64 = t[..6].iter().sum();
        assert_eq!(doc0, 100);
    }

    #[test]
    fn tree_check_accepts_the_hand_tree_and_rejects_broken_ones() {
        let good = hand_tree();
        assert_eq!(check_tree(&good, 2), Ok(()));

        let mut escaped = good.clone();
        escaped[4].end_ns = 46; // c outlives its parent b [25,45]
        assert!(check_tree(&escaped, 2).is_err());

        let mut two_roots = good.clone();
        two_roots[5].parent = None;
        assert!(check_tree(&two_roots, 2).is_err());

        let mut crossing = good.clone();
        crossing[7].parent = Some(0);
        assert!(check_tree(&crossing, 2).is_err());

        assert!(check_tree(&good[..6], 2).is_err(), "doc 1 has no root");
    }

    #[test]
    fn recorded_calls_nest_program_spans_inside_their_bench_span() {
        let mut tree = SpanTree::default();
        for doc in 0..3u32 {
            let root = tree.open("doc", doc, None);
            let ((), _) = tree.call("outer", doc, root, || {
                let _a = vs2_obs::span("prog.a");
                {
                    let _b = vs2_obs::span("prog.b");
                    std::hint::black_box((0..1000u64).sum::<u64>());
                }
                let _c = vs2_obs::span("prog.c");
            });
            tree.close(root);
        }
        let spans = tree.spans();
        assert_eq!(spans.len(), 3 * 5);
        assert_eq!(check_tree(spans, 3), Ok(()));
        let b = spans.iter().find(|s| s.name == "prog.b").unwrap();
        assert_eq!(spans[b.parent.unwrap() as usize].name, "prog.a");
        let a = spans.iter().find(|s| s.name == "prog.a").unwrap();
        assert_eq!(spans[a.parent.unwrap() as usize].name, "outer");
        assert_eq!(tree.to_jsonl().lines().count(), spans.len());
    }
}
