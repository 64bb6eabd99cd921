//! Hierarchical query traces: a span tree recorded alongside the flat
//! [`PhaseTimes`](crate::PhaseTimes) accounting.
//!
//! The flat per-phase totals (PR 5) say *how much* time a query spent
//! filtering; the tree says *where* — which engine, under which knobs,
//! across how many page visits, with how much I/O per span. `SimClock`
//! owns a [`TraceBuilder`] when tracing is enabled and feeds it the same
//! simulated/wall deltas it adds to `PhaseTimes`, so the tree's phase
//! leaves sum to the flat totals exactly (same additions, same order).
//!
//! Consecutive leaves of the same phase under one parent coalesce into a
//! single node with a `merged` segment count: a 1 000-page filter sweep
//! is one `filter ×1000` node, not a thousand siblings, which keeps
//! retained slow-query trees small without losing any time.

use crate::json::{escape, JsonValue};
use crate::phase::Phase;
use crate::registry::json_f64;
use std::time::Instant;

/// One span in the tree. Leaf spans produced by phase accounting carry
/// their [`Phase`]; explicit spans (engine roots, batch chunks,
/// per-query attribution) carry annotations and counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceNode {
    /// Span name (engine name, phase name, `q3`, ...).
    pub name: String,
    /// The pipeline phase, for leaves recorded by phase accounting.
    pub phase: Option<Phase>,
    /// Simulated seconds spent in this span (inclusive of children).
    pub sim: f64,
    /// Wall-clock seconds spent in this span (inclusive of children).
    pub wall: f64,
    /// Number of coalesced same-phase segments folded into this node.
    pub merged: u64,
    /// Disk seeks issued while the span was open.
    pub seeks: u64,
    /// Blocks read while the span was open.
    pub blocks_read: u64,
    /// Engine/knob/filter annotations, in recording order.
    pub attrs: Vec<(String, String)>,
    /// Candidate/page counters, in recording order.
    pub counters: Vec<(String, u64)>,
    /// Child spans, in recording order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    fn leaf(phase: Phase, sim: f64, wall: f64, seeks: u64, blocks_read: u64) -> Self {
        TraceNode {
            name: phase.name().to_string(),
            phase: Some(phase),
            sim,
            wall,
            merged: 1,
            seeks,
            blocks_read,
            ..TraceNode::default()
        }
    }

    /// Sums the phase-leaf times in this subtree into `sim`/`wall`
    /// accumulators indexed by [`Phase`].
    fn accumulate_phases(&self, sim: &mut [f64; 5], wall: &mut [f64; 5]) {
        if let Some(p) = self.phase {
            sim[p as usize] += self.sim;
            wall[p as usize] += self.wall;
        }
        for c in &self.children {
            c.accumulate_phases(sim, wall);
        }
    }

    /// The sum of counter `key` over this subtree (0 when no node has
    /// it).
    pub fn counter_total(&self, key: &str) -> u64 {
        let own: u64 = self
            .counters
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v)
            .sum();
        own + self
            .children
            .iter()
            .map(|c| c.counter_total(key))
            .sum::<u64>()
    }

    /// Number of nodes in this subtree (including self).
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(TraceNode::node_count)
            .sum::<usize>()
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        if self.merged > 1 {
            out.push_str(&format!(" x{}", self.merged));
        }
        out.push_str(&format!(
            "  sim {:.4} ms  wall {:.4} ms",
            self.sim * 1e3,
            self.wall * 1e3
        ));
        if self.seeks > 0 || self.blocks_read > 0 {
            out.push_str(&format!(
                "  io {} seek(s) {} block(s)",
                self.seeks, self.blocks_read
            ));
        }
        if !self.attrs.is_empty() {
            out.push_str("  [");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&format!("{k}={v}"));
            }
            out.push(']');
        }
        if !self.counters.is_empty() {
            out.push_str("  {");
            for (i, (k, v)) in self.counters.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&format!("{k}={v}"));
            }
            out.push('}');
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }

    /// Serializes this subtree as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.json_into(&mut out);
        out
    }

    fn json_into(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"sim\": {}, \"wall\": {}",
            escape(&self.name),
            json_f64(self.sim),
            json_f64(self.wall)
        ));
        if let Some(p) = self.phase {
            out.push_str(&format!(", \"phase\": \"{}\"", p.name()));
        }
        if self.merged > 1 {
            out.push_str(&format!(", \"merged\": {}", self.merged));
        }
        if self.seeks > 0 {
            out.push_str(&format!(", \"seeks\": {}", self.seeks));
        }
        if self.blocks_read > 0 {
            out.push_str(&format!(", \"blocks_read\": {}", self.blocks_read));
        }
        if !self.attrs.is_empty() {
            out.push_str(", \"attrs\": {");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                out.push_str(&format!("{sep}\"{}\": \"{}\"", escape(k), escape(v)));
            }
            out.push('}');
        }
        if !self.counters.is_empty() {
            out.push_str(", \"counters\": {");
            for (i, (k, v)) in self.counters.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                out.push_str(&format!("{sep}\"{}\": {v}", escape(k)));
            }
            out.push('}');
        }
        if !self.children.is_empty() {
            out.push_str(", \"children\": [");
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                c.json_into(out);
            }
            out.push(']');
        }
        out.push('}');
    }

    /// Rebuilds a node from its [`TraceNode::to_json`] form.
    pub fn from_json(v: &JsonValue) -> Result<TraceNode, String> {
        let name = v
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("trace node missing name")?
            .to_string();
        let phase = match v.get("phase").and_then(JsonValue::as_str) {
            None => None,
            Some(p) => Some(
                crate::phase::PHASES
                    .iter()
                    .copied()
                    .find(|ph| ph.name() == p)
                    .ok_or_else(|| format!("unknown phase `{p}`"))?,
            ),
        };
        let num = |key: &str| v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let int = |key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        let attrs = v
            .get("attrs")
            .and_then(JsonValue::as_obj)
            .map(|fields| {
                fields
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                    .collect()
            })
            .unwrap_or_default();
        let counters = v
            .get("counters")
            .and_then(JsonValue::as_obj)
            .map(|fields| {
                fields
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                    .collect()
            })
            .unwrap_or_default();
        let children = v
            .get("children")
            .and_then(JsonValue::as_arr)
            .map(|items| items.iter().map(TraceNode::from_json).collect())
            .transpose()?
            .unwrap_or_default();
        Ok(TraceNode {
            name,
            phase,
            sim: num("sim"),
            wall: num("wall"),
            merged: int("merged").max(1),
            seeks: int("seeks"),
            blocks_read: int("blocks_read"),
            attrs,
            counters,
            children,
        })
    }
}

/// A completed query trace: the root span plus everything under it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceTree {
    /// The root span (normally named after the driver, with one engine
    /// span beneath it).
    pub root: TraceNode,
}

impl TraceTree {
    /// Per-phase simulated/wall sums over every phase leaf in the tree,
    /// indexed by `Phase as usize`. When every clock charge happened
    /// inside a phase, these equal the flat `PhaseTimes` totals exactly.
    pub fn phase_totals(&self) -> ([f64; 5], [f64; 5]) {
        let mut sim = [0.0; 5];
        let mut wall = [0.0; 5];
        self.root.accumulate_phases(&mut sim, &mut wall);
        (sim, wall)
    }

    /// Total simulated seconds across all phase leaves.
    pub fn total_sim(&self) -> f64 {
        self.phase_totals().0.iter().sum()
    }

    /// Total wall seconds across all phase leaves.
    pub fn total_wall(&self) -> f64 {
        self.phase_totals().1.iter().sum()
    }

    /// Indented text rendering for `iq query --trace-tree`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.root.render_into(&mut out, 0);
        out
    }

    /// Chrome trace-event JSON (the `chrome://tracing` / Perfetto
    /// format): one complete (`"ph": "X"`) event per span, timestamps in
    /// microseconds of *simulated* time laid out depth-first — children
    /// run back-to-back inside their parent, so the nesting renders as
    /// stacked slices on one track.
    pub fn to_chrome_json(&self) -> String {
        let mut events = String::new();
        let mut first = true;
        emit_chrome(&self.root, 0.0, &mut events, &mut first);
        format!("{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{events}\n]}}\n")
    }
}

/// Emits `node` starting at `ts` microseconds and returns its duration
/// in microseconds (at least the sum of its children).
fn emit_chrome(node: &TraceNode, ts: f64, events: &mut String, first: &mut bool) -> f64 {
    let mut child_ts = ts;
    let mut args = String::new();
    let push_arg = |s: String, args: &mut String| {
        if !args.is_empty() {
            args.push_str(", ");
        }
        args.push_str(&s);
    };
    for (k, v) in &node.attrs {
        push_arg(format!("\"{}\": \"{}\"", escape(k), escape(v)), &mut args);
    }
    for (k, v) in &node.counters {
        push_arg(format!("\"{}\": {v}", escape(k)), &mut args);
    }
    if node.merged > 1 {
        push_arg(format!("\"merged\": {}", node.merged), &mut args);
    }
    if node.seeks > 0 {
        push_arg(format!("\"seeks\": {}", node.seeks), &mut args);
    }
    if node.blocks_read > 0 {
        push_arg(format!("\"blocks_read\": {}", node.blocks_read), &mut args);
    }
    push_arg(
        format!("\"wall_ms\": {}", json_f64(node.wall * 1e3)),
        &mut args,
    );
    // Reserve this event's slot before the children so parents precede
    // children in the file; the duration is patched in afterwards via a
    // second pass... instead, compute children first into a scratch.
    let mut child_events = String::new();
    let mut child_first = true;
    for c in &node.children {
        child_ts += emit_chrome(c, child_ts, &mut child_events, &mut child_first);
    }
    let dur = (node.sim * 1e6).max(child_ts - ts);
    if !*first {
        events.push_str(",\n");
    }
    *first = false;
    events.push_str(&format!(
        "{{\"name\": \"{}\", \"cat\": \"query\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
         \"pid\": 1, \"tid\": 1, \"args\": {{{args}}}}}",
        escape(&node.name),
        json_f64(ts),
        json_f64(dur)
    ));
    if !child_events.is_empty() {
        events.push_str(",\n");
        events.push_str(&child_events);
    }
    dur
}

/// An open span: the node under construction plus the clock readings
/// taken when it was opened.
#[derive(Clone, Debug)]
struct Frame {
    node: TraceNode,
    sim0: f64,
    wall0: Instant,
    seeks0: u64,
    blocks0: u64,
}

/// Records a [`TraceTree`] incrementally. `SimClock` owns one of these
/// when tracing is enabled and feeds it clock readings; nothing here
/// reads time on its own (wall instants excepted), so the builder stays
/// consistent with whatever clock drives it.
#[derive(Clone, Debug)]
pub struct TraceBuilder {
    /// Open spans, root first. Never empty.
    stack: Vec<Frame>,
}

impl TraceBuilder {
    /// Starts a trace whose root span opens at the given clock readings.
    pub fn new(name: &str, sim_now: f64, seeks: u64, blocks: u64) -> Self {
        TraceBuilder {
            stack: vec![Frame {
                node: TraceNode {
                    name: name.to_string(),
                    ..TraceNode::default()
                },
                sim0: sim_now,
                wall0: Instant::now(),
                seeks0: seeks,
                blocks0: blocks,
            }],
        }
    }

    /// Opens a child span of the innermost open span.
    pub fn span_begin(&mut self, name: &str, sim_now: f64, seeks: u64, blocks: u64) {
        self.stack.push(Frame {
            node: TraceNode {
                name: name.to_string(),
                ..TraceNode::default()
            },
            sim0: sim_now,
            wall0: Instant::now(),
            seeks0: seeks,
            blocks0: blocks,
        });
    }

    /// Closes the innermost open span (the root never closes this way).
    pub fn span_end(&mut self, sim_now: f64, seeks: u64, blocks: u64) {
        if self.stack.len() < 2 {
            return;
        }
        let f = self.stack.pop().expect("checked non-empty");
        let node = close_frame(f, sim_now, seeks, blocks);
        self.stack
            .last_mut()
            .expect("root remains")
            .node
            .children
            .push(node);
    }

    /// Annotates the innermost open span.
    pub fn attr(&mut self, key: &str, value: &str) {
        let node = &mut self.stack.last_mut().expect("never empty").node;
        node.attrs.push((key.to_string(), value.to_string()));
    }

    /// Adds `n` to a counter on the innermost open span.
    pub fn count(&mut self, key: &str, n: u64) {
        let node = &mut self.stack.last_mut().expect("never empty").node;
        if let Some((_, v)) = node.counters.iter_mut().find(|(k, _)| k == key) {
            *v += n;
        } else {
            node.counters.push((key.to_string(), n));
        }
    }

    /// Records one closed phase segment with externally computed deltas
    /// (the same values `SimClock` adds to its `PhaseTimes`). A segment
    /// coalesces into the previous child when that child is a leaf of
    /// the same phase.
    pub fn phase_leaf(&mut self, phase: Phase, sim: f64, wall: f64, seeks: u64, blocks: u64) {
        let parent = &mut self.stack.last_mut().expect("never empty").node;
        if let Some(last) = parent.children.last_mut() {
            if last.phase == Some(phase) && last.children.is_empty() {
                last.sim += sim;
                last.wall += wall;
                last.merged += 1;
                last.seeks += seeks;
                last.blocks_read += blocks;
                return;
            }
        }
        parent
            .children
            .push(TraceNode::leaf(phase, sim, wall, seeks, blocks));
    }

    /// Attaches an already-built subtree (a batch chunk's trace, a
    /// per-query attribution node) under the innermost open span.
    pub fn add_child_tree(&mut self, node: TraceNode) {
        self.stack
            .last_mut()
            .expect("never empty")
            .node
            .children
            .push(node);
    }

    /// Closes every open span at the given clock readings and returns
    /// the finished tree.
    pub fn finish(mut self, sim_now: f64, seeks: u64, blocks: u64) -> TraceTree {
        while self.stack.len() > 1 {
            self.span_end(sim_now, seeks, blocks);
        }
        let root = close_frame(self.stack.pop().expect("root"), sim_now, seeks, blocks);
        TraceTree { root }
    }

    /// A copy of the tree as it stands, open spans closed at the given
    /// readings (used when one clock absorbs another mid-flight).
    pub fn snapshot_tree(&self, sim_now: f64, seeks: u64, blocks: u64) -> TraceTree {
        self.clone().finish(sim_now, seeks, blocks)
    }
}

fn close_frame(f: Frame, sim_now: f64, seeks: u64, blocks: u64) -> TraceNode {
    let mut node = f.node;
    node.sim = sim_now - f.sim0;
    node.wall = f.wall0.elapsed().as_secs_f64();
    node.merged = node.merged.max(1);
    node.seeks = seeks.saturating_sub(f.seeks0);
    node.blocks_read = blocks.saturating_sub(f.blocks0);
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_tree() -> TraceTree {
        let mut b = TraceBuilder::new("query", 0.0, 0, 0);
        b.span_begin("iqtree", 0.0, 0, 0);
        b.attr("k", "10");
        b.phase_leaf(Phase::Directory, 0.5, 0.001, 2, 2);
        b.phase_leaf(Phase::Filter, 1.0, 0.002, 1, 4);
        b.phase_leaf(Phase::Filter, 0.25, 0.001, 1, 4);
        b.phase_leaf(Phase::Refine, 0.125, 0.0005, 3, 3);
        b.count("pages_processed", 2);
        b.span_end(1.875, 7, 13);
        b.finish(1.875, 7, 13)
    }

    #[test]
    fn phase_leaves_coalesce_and_sum_exactly() {
        let t = sample_tree();
        let engine = &t.root.children[0];
        // directory, filter (x2 merged), refine
        assert_eq!(engine.children.len(), 3);
        assert_eq!(engine.children[1].merged, 2);
        assert_eq!(engine.children[1].sim, 1.25);
        assert_eq!(engine.children[1].blocks_read, 8);
        let (sim, _) = t.phase_totals();
        assert_eq!(sim[Phase::Directory as usize], 0.5);
        assert_eq!(sim[Phase::Filter as usize], 1.25);
        assert_eq!(t.total_sim(), 1.875);
        assert_eq!(t.root.sim, 1.875);
        assert_eq!(t.root.seeks, 7);
    }

    #[test]
    fn render_text_shows_structure() {
        let text = sample_tree().render_text();
        assert!(text.contains("query"));
        assert!(text.contains("  iqtree"));
        assert!(text.contains("    filter x2"));
        assert!(text.contains("[k=10]"));
        assert!(text.contains("pages_processed=2"));
    }

    #[test]
    fn chrome_json_is_valid_and_nested() {
        let doc = sample_tree().to_chrome_json();
        let v = parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 5); // query, iqtree, 3 phase groups
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("ts").unwrap().as_f64().is_some());
            assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
            assert!(e.get("name").unwrap().as_str().is_some());
        }
        // The root's duration covers the engine span's.
        let root_dur = events[0].get("dur").unwrap().as_f64().unwrap();
        let child_dur = events[1].get("dur").unwrap().as_f64().unwrap();
        assert!(root_dur >= child_dur);
    }

    #[test]
    fn node_json_round_trips() {
        let t = sample_tree();
        let doc = t.root.to_json();
        let v = parse(&doc).expect("valid JSON");
        let back = TraceNode::from_json(&v).expect("decodes");
        assert_eq!(back, t.root);
    }

    #[test]
    fn unbalanced_spans_close_on_finish() {
        let mut b = TraceBuilder::new("root", 0.0, 0, 0);
        b.span_begin("open1", 0.0, 0, 0);
        b.span_begin("open2", 1.0, 0, 0);
        let t = b.finish(3.0, 0, 0);
        assert_eq!(t.root.children[0].name, "open1");
        assert_eq!(t.root.children[0].children[0].name, "open2");
        assert_eq!(t.root.sim, 3.0);
        assert_eq!(t.root.children[0].children[0].sim, 2.0);
    }

    #[test]
    fn span_end_on_root_is_a_no_op() {
        let mut b = TraceBuilder::new("root", 0.0, 0, 0);
        b.span_end(1.0, 0, 0);
        let t = b.finish(2.0, 0, 0);
        assert!(t.root.children.is_empty());
    }
}
