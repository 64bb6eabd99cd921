//! Benchmark-owned spans around each public call of the traced run,
//! kept in memory and written out at the end as a Chrome trace-event
//! file (`TraceTree::to_chrome_json`, which Perfetto opens).

use iq_obs::{TraceNode, TraceTree};
use std::time::Instant;

/// Query trace trees kept under their spans; later spans keep only their
/// own times, which bounds the file size on long runs.
const MAX_TREES: usize = 2_000;

pub struct Spans {
    t0: Instant,
    spans: Vec<TraceNode>,
    trees: usize,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            trees: 0,
        }
    }

    /// Records one finished call: `name`, its request id, the wall time it
    /// started at (`start`), its simulated seconds and the library's own
    /// trace of it, when it made one.
    pub fn record(
        &mut self,
        name: &str,
        req: u64,
        start: Instant,
        sim_s: f64,
        tree: Option<TraceTree>,
    ) {
        let wall = start.elapsed().as_secs_f64();
        let offset_ms = start.duration_since(self.t0).as_secs_f64() * 1e3;
        let mut node = TraceNode {
            name: name.to_string(),
            sim: sim_s,
            wall,
            attrs: vec![
                ("req".to_string(), req.to_string()),
                ("start_wall_ms".to_string(), format!("{offset_ms:.3}")),
            ],
            ..TraceNode::default()
        };
        if let Some(t) = tree {
            if self.trees < MAX_TREES {
                self.trees += 1;
                node.children.push(t.root);
            }
        }
        self.spans.push(node);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans under one root named after the run and annotated with
    /// `attrs` (the provenance), as Chrome JSON.
    pub fn to_chrome_json(&self, root: &str, attrs: Vec<(String, String)>) -> String {
        let tree = TraceTree {
            root: TraceNode {
                name: root.to_string(),
                attrs,
                sim: self.spans.iter().map(|s| s.sim).sum(),
                wall: self.spans.iter().map(|s| s.wall).sum(),
                children: self.spans.clone(),
                ..TraceNode::default()
            },
        };
        tree.to_chrome_json()
    }
}
