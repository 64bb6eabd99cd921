//! Retained slow-query forensics: a 1-in-N sampler plus a bounded
//! in-memory log of the slowest sampled queries, full trace trees
//! included.
//!
//! The sampler decides *which* queries get a trace at all (tracing a
//! query costs allocations, so the unsampled path must stay free); the
//! log then keeps only the top-K slowest by either clock — simulated or
//! wall time — so a query slow in only one of them is kept. Both are
//! cheap enough to leave always-on in drivers: one atomic per query for
//! the sampler, one short mutex hold per *sampled* query for the log.
//!
//! The log serializes to JSON (`iq query`/`iq batch`/`iq bench` persist
//! it next to the index) and loads back via [`SlowLog::load_json`] so
//! `iq stats --slow` can render traces recorded by an earlier process.

use crate::json::{escape, parse, JsonValue};
use crate::registry::json_f64;
use crate::tracetree::{TraceNode, TraceTree};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

/// Default sampling rate: trace one query in this many.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;
/// Default retention: keep this many slowest traces by each clock.
pub const DEFAULT_RETAIN: usize = 16;

/// One retained slow query.
#[derive(Clone, Debug, PartialEq)]
pub struct SlowEntry {
    /// Where the query came from (`"iqtree k=10 q17"`, ...).
    pub label: String,
    /// Total simulated seconds (a retention key and the list order).
    pub sim: f64,
    /// Total wall seconds (the other retention key).
    pub wall: f64,
    /// Sample sequence number (position in the sampled stream).
    pub seq: u64,
    /// The full span tree.
    pub tree: TraceTree,
}

/// Sampler + bounded top-K-slowest retention by both clocks.
pub struct SlowLog {
    sample_every: u64,
    seen: AtomicU64,
    sampled: AtomicU64,
    retain: usize,
    /// Slowest-first by simulated time: the union of the `retain`
    /// slowest by simulated and by wall time, at most `2 × retain`.
    entries: Mutex<Vec<SlowEntry>>,
}

impl SlowLog {
    /// A log sampling 1 in `sample_every` queries and retaining the
    /// `retain` slowest by each clock. `sample_every` of 0 disables
    /// sampling entirely; 1 samples everything.
    pub fn new(sample_every: u64, retain: usize) -> Self {
        SlowLog {
            sample_every,
            seen: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            retain: retain.max(1),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The process-wide slow log (1-in-64 sampling, top-16 retained).
    pub fn global() -> &'static SlowLog {
        static GLOBAL: OnceLock<SlowLog> = OnceLock::new();
        GLOBAL.get_or_init(|| SlowLog::new(DEFAULT_SAMPLE_EVERY, DEFAULT_RETAIN))
    }

    /// Counts one query and reports whether it should be traced. The
    /// first query is always sampled (so short runs still retain
    /// something), then every `sample_every`-th after it.
    pub fn should_sample(&self) -> bool {
        let every = self.sample_every;
        if every == 0 {
            return false;
        }
        let n = self.seen.fetch_add(1, Relaxed);
        n.is_multiple_of(every)
    }

    /// Offers a completed trace; it is retained while it ranks among the
    /// `retain` slowest offered so far by simulated time or by wall time
    /// (ties go to the earlier offer). The plan phase charges no
    /// simulated time, so a plan-bound query can be kept only by wall
    /// time. Returns the sample sequence number assigned to it.
    pub fn offer(&self, label: &str, tree: TraceTree) -> u64 {
        let seq = self.sampled.fetch_add(1, Relaxed);
        let entry = SlowEntry {
            label: label.to_string(),
            sim: tree.root.sim,
            wall: tree.root.wall,
            seq,
            tree,
        };
        let mut entries = self.entries.lock().expect("slow log poisoned");
        let pos = entries
            .iter()
            .position(|e| e.sim < entry.sim)
            .unwrap_or(entries.len());
        entries.insert(pos, entry);
        if entries.len() > self.retain {
            // Keep the first `retain` by simulated time (the list order)
            // plus the `retain` slowest by wall time, the earlier offer
            // first on a tie.
            let mut by_wall: Vec<usize> = (0..entries.len()).collect();
            by_wall.sort_by(|&a, &b| {
                entries[b]
                    .wall
                    .total_cmp(&entries[a].wall)
                    .then(entries[a].seq.cmp(&entries[b].seq))
            });
            let mut keep: Vec<bool> = (0..entries.len()).map(|i| i < self.retain).collect();
            for &i in &by_wall[..self.retain] {
                keep[i] = true;
            }
            let mut flags = keep.into_iter();
            entries.retain(|_| flags.next().unwrap_or(false));
        }
        seq
    }

    /// Queries counted by [`SlowLog::should_sample`] so far.
    pub fn seen(&self) -> u64 {
        self.seen.load(Relaxed)
    }

    /// Retained entries, slowest simulated time first.
    pub fn entries(&self) -> Vec<SlowEntry> {
        self.entries.lock().expect("slow log poisoned").clone()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("slow log poisoned").len()
    }

    /// Whether anything is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all retained entries (the sampler state stays).
    pub fn clear(&self) {
        self.entries.lock().expect("slow log poisoned").clear();
    }

    /// Serializes the retained entries as a JSON document.
    pub fn to_json(&self) -> String {
        let entries = self.entries.lock().expect("slow log poisoned");
        let mut out = String::from("{\n  \"slow_queries\": [\n");
        for (i, e) in entries.iter().enumerate() {
            let sep = if i + 1 == entries.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"sim\": {}, \"wall\": {}, \"seq\": {}, \"trace\": {}}}{sep}\n",
                escape(&e.label),
                json_f64(e.sim),
                json_f64(e.wall),
                e.seq,
                e.tree.root.to_json()
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"seen\": {},\n  \"sample_every\": {},\n  \"retain\": {}\n}}\n",
            self.seen.load(Relaxed),
            self.sample_every,
            self.retain
        ));
        out
    }

    /// Parses a [`SlowLog::to_json`] document back into entries.
    pub fn load_json(doc: &str) -> Result<Vec<SlowEntry>, String> {
        let v = parse(doc)?;
        let items = v
            .get("slow_queries")
            .and_then(JsonValue::as_arr)
            .ok_or("missing slow_queries array")?;
        items
            .iter()
            .map(|item| {
                let root = TraceNode::from_json(item.get("trace").ok_or("entry missing trace")?)?;
                Ok(SlowEntry {
                    label: item
                        .get("label")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string(),
                    sim: item.get("sim").and_then(JsonValue::as_f64).unwrap_or(0.0),
                    wall: item.get("wall").and_then(JsonValue::as_f64).unwrap_or(0.0),
                    seq: item.get("seq").and_then(JsonValue::as_u64).unwrap_or(0),
                    tree: TraceTree { root },
                })
            })
            .collect()
    }

    /// Human-readable rendering for `iq stats --slow`.
    pub fn render_text(&self) -> String {
        render_entries(&self.entries())
    }
}

/// Renders loaded-or-live entries the way `iq stats --slow` prints them.
pub fn render_entries(entries: &[SlowEntry]) -> String {
    if entries.is_empty() {
        return "slow-query log: empty\n".to_string();
    }
    let mut out = format!("slow-query log: {} retained trace(s)\n", entries.len());
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "\n#{} {}  sim {:.4} ms  wall {:.4} ms  (sample {})\n",
            i + 1,
            e.label,
            e.sim * 1e3,
            e.wall * 1e3,
            e.seq
        ));
        for line in e.tree.render_text().lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracetree::TraceBuilder;
    use crate::Phase;

    /// A synthetic tree whose root reads `sim` simulated and `wall` wall
    /// seconds (not the builder's own elapsed time, so both retention
    /// keys are fixed).
    fn timed_tree(sim: f64, wall: f64) -> TraceTree {
        let mut b = TraceBuilder::new("query", 0.0, 0, 0);
        b.phase_leaf(Phase::Filter, sim, wall, 1, 2);
        let mut t = b.finish(sim, 1, 2);
        t.root.wall = wall;
        t
    }

    /// A tree whose wall time ranks like its simulated time.
    fn tree(sim: f64) -> TraceTree {
        timed_tree(sim, sim / 10.0)
    }

    #[test]
    fn sampler_takes_one_in_n() {
        let log = SlowLog::new(4, 8);
        let hits: Vec<bool> = (0..12).map(|_| log.should_sample()).collect();
        assert_eq!(hits.iter().filter(|&&h| h).count(), 3);
        assert!(hits[0], "first query is always sampled");
        assert_eq!(log.seen(), 12);
    }

    #[test]
    fn sampler_disabled_at_zero() {
        let log = SlowLog::new(0, 8);
        assert!(!(0..10).any(|_| log.should_sample()));
    }

    #[test]
    fn retains_top_k_slowest_in_order() {
        let log = SlowLog::new(1, 3);
        for sim in [0.5, 2.0, 1.0, 3.0, 0.1, 2.5] {
            log.offer("q", tree(sim));
        }
        let sims: Vec<f64> = log.entries().iter().map(|e| e.sim).collect();
        assert_eq!(sims, vec![3.0, 2.5, 2.0]);
    }

    /// A query that charges almost no simulated time but the most wall
    /// time (a plan-bound query) is retained next to the top by
    /// simulated time, and leaves once slower wall times push it out.
    #[test]
    fn retains_top_k_by_either_clock() {
        let log = SlowLog::new(1, 2);
        log.offer("sim-heavy-1", timed_tree(3.0, 0.001));
        log.offer("sim-heavy-2", timed_tree(2.0, 0.001));
        log.offer("plan-bound", timed_tree(0.001, 0.5));
        log.offer("fast", timed_tree(0.5, 0.0001));
        let labels =
            |log: &SlowLog| -> Vec<String> { log.entries().into_iter().map(|e| e.label).collect() };
        assert_eq!(
            labels(&log),
            vec!["sim-heavy-1", "sim-heavy-2", "plan-bound"],
            "the sim top 2 plus the wall top 2 (plan-bound, sim-heavy-1 by seq)"
        );
        log.offer("wall-heavy-1", timed_tree(0.002, 0.9));
        log.offer("wall-heavy-2", timed_tree(0.003, 0.8));
        assert_eq!(
            labels(&log),
            vec!["sim-heavy-1", "sim-heavy-2", "wall-heavy-2", "wall-heavy-1"]
        );
        assert!(log.render_text().contains("wall-heavy-1"));
    }

    #[test]
    fn json_round_trips() {
        let log = SlowLog::new(1, 4);
        log.offer("iqtree k=10", tree(1.5));
        log.offer("scan k=1", tree(0.5));
        let doc = log.to_json();
        let back = SlowLog::load_json(&doc).expect("parses");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].label, "iqtree k=10");
        assert_eq!(back[0].sim, 1.5);
        assert_eq!(back[0].tree, log.entries()[0].tree);
    }

    #[test]
    fn render_covers_empty_and_populated() {
        let log = SlowLog::new(1, 2);
        assert!(log.render_text().contains("empty"));
        log.offer("vafile k=5", tree(0.25));
        let text = log.render_text();
        assert!(text.contains("1 retained"));
        assert!(text.contains("vafile k=5"));
        assert!(text.contains("filter"));
    }
}
