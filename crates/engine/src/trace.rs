//! The unified per-query work report.

/// What a query actually did — returned in every
/// [`Answer`](crate::Answer) for inspection, tuning and tests.
///
/// The fields are written from the IQ-tree's three-level perspective but
/// apply to every method: a VA-file "page" is an approximation block, a
/// sequential scan processes all pages and refines nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Pages taken past the pruning bound δ: decoded (or answered from
    /// their exact region), or, in the IQ-tree's planned runs, held
    /// undecoded because their MINDIST exceeds U, an upper bound on the
    /// k-th answer's key. A held page is counted once, when it is held,
    /// and never again, even if it is decoded later.
    pub pages_processed: u64,
    /// Pages loaded but skipped (over-read filler or already prunable).
    pub pages_skipped: u64,
    /// Contiguous read sweeps the scheduler issued.
    pub runs: u64,
    /// Refinements: exact points read from the third level and compared
    /// against the query. Only look-ups that produced coordinates count;
    /// a look-up that fails is a skipped point instead.
    pub refinements: u64,
    /// Point approximations that entered the priority list.
    pub approx_enqueued: u64,
    /// Quantized blocks that failed verification or decoding and were
    /// answered from the page's exact (level-3) region instead.
    pub quant_fallbacks: u64,
    /// Pages lost entirely (corrupt level-2 block with no readable exact
    /// backing): their points are missing from the result.
    pub pages_lost: u64,
    /// Points whose exact entry stayed unreadable after retries: a
    /// refinement look-up that failed, or an entry of a level-3 fallback
    /// region that does not decode. These points are missing from the
    /// result. Every k-NN path (the single-query walk, its
    /// `refine_factor` rerank and the shared batch walk) counts this field
    /// and `refinements` the same way.
    pub points_skipped: u64,
    /// Candidates dropped by an approximation knob (`nprobes` truncation
    /// or the `refine_factor` cap), not by the pruning bound.
    pub candidates_skipped: u64,
    /// `1` if the search stopped before its exact termination condition
    /// (ε-termination, time budget, or a knob cap fired); `0` for an
    /// exact-complete search. Sums to a count of early-terminated
    /// queries when traces are merged.
    pub terminated_early: u64,
}

impl QueryTrace {
    /// Whether any corruption degraded this query's result or cost
    /// (fallbacks recover full precision; lost pages and skipped points
    /// mean the result may be partial).
    pub fn degraded(&self) -> bool {
        self.quant_fallbacks > 0 || self.pages_lost > 0 || self.points_skipped > 0
    }

    /// Whether the result is possibly missing points (as opposed to merely
    /// having cost more to compute).
    pub fn partial(&self) -> bool {
        self.pages_lost > 0 || self.points_skipped > 0
    }

    /// The counters as `(name, value)` pairs in declaration order, so
    /// exposition code (trace-tree span counters, JSON output) keeps the
    /// field names in one place.
    pub fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("pages_processed", self.pages_processed),
            ("pages_skipped", self.pages_skipped),
            ("runs", self.runs),
            ("refinements", self.refinements),
            ("approx_enqueued", self.approx_enqueued),
            ("quant_fallbacks", self.quant_fallbacks),
            ("pages_lost", self.pages_lost),
            ("points_skipped", self.points_skipped),
            ("candidates_skipped", self.candidates_skipped),
            ("terminated_early", self.terminated_early),
        ]
    }

    /// Adds `other`'s counters into `self`, e.g. folding per-query traces
    /// into a batch aggregate.
    pub fn merge(&mut self, other: &QueryTrace) {
        self.pages_processed += other.pages_processed;
        self.pages_skipped += other.pages_skipped;
        self.runs += other.runs;
        self.refinements += other.refinements;
        self.approx_enqueued += other.approx_enqueued;
        self.quant_fallbacks += other.quant_fallbacks;
        self.pages_lost += other.pages_lost;
        self.points_skipped += other.points_skipped;
        self.candidates_skipped += other.candidates_skipped;
        self.terminated_early += other.terminated_early;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_field() {
        let a = QueryTrace {
            pages_processed: 1,
            pages_skipped: 2,
            runs: 3,
            refinements: 4,
            approx_enqueued: 5,
            quant_fallbacks: 6,
            pages_lost: 7,
            points_skipped: 8,
            candidates_skipped: 9,
            terminated_early: 1,
        };
        let mut total = a;
        total.merge(&a);
        assert_eq!(
            total,
            QueryTrace {
                pages_processed: 2,
                pages_skipped: 4,
                runs: 6,
                refinements: 8,
                approx_enqueued: 10,
                quant_fallbacks: 12,
                pages_lost: 14,
                points_skipped: 16,
                candidates_skipped: 18,
                terminated_early: 2,
            }
        );
        let mut id = a;
        id.merge(&QueryTrace::default());
        assert_eq!(id, a);
    }
}
