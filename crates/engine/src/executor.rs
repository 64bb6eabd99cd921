//! The shared bound-driven query executor.
//!
//! Every access method in this repo searches the same way: a stream of
//! candidates, each carrying a lower bound on its true distance key, feeds
//! a [`TopK`] whose k-th best exact key is the pruning bound δ. A
//! candidate whose lower bound reaches δ can be discarded; once the
//! *cheapest remaining* candidate is prunable (the streams below deliver
//! candidates in ascending lower-bound order) the search is provably
//! complete. This module owns that control flow — pruning,
//! ε-early-termination, `nprobes` candidate truncation, `refine_factor`
//! partial refinement and the sim-time budget are implemented exactly
//! once — and the engines reduce to *producers*:
//!
//! * the IQ-tree's directory descent and level-2 table scans push pages
//!   and point approximations into [`drive`],
//! * the X-tree's best-first descent pushes directory nodes and data
//!   pages into [`drive`],
//! * the VA-file's approximation sweep hands its sorted candidate list to
//!   [`refine_ascending`],
//! * the sequential scan offers every exact point directly.
//!
//! With [`QueryOptions::default`] all knobs are neutral and the executor
//! reduces bit-for-bit to the exact branch-and-bound loop each engine
//! used to hand-roll (`prune_scale == 1.0` makes every comparison the
//! same float comparison; the caps start at `u64::MAX`; the deadline is
//! `+∞`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{QueryTrace, TopK};
use iq_geometry::Metric;
use iq_storage::SimClock;

/// Approximation knobs for a k-NN search. The default is **exact**: every
/// engine must return the same bits as a sequential scan when given
/// `QueryOptions::default()`.
///
/// The knobs compose; each one bounds the search from a different side:
///
/// * `epsilon` — relative-error early termination. The search stops as
///   soon as no unexplored candidate could improve the k-th answer by
///   more than a factor `1 + epsilon`: every returned distance is within
///   `(1 + epsilon)×` of the true k-th-NN distance.
/// * `nprobes` — candidate-count truncation: at most this many
///   approximation-level candidates (quantized pages for the IQ-tree,
///   data pages for the X-tree, VA-file candidate entries) are probed, in
///   best-bound-first order — the classic IVF `nprobes` trade-off.
/// * `refine_factor` — partial refinement: at most `k × refine_factor`
///   exact-point look-ups are spent (Lance semantics: larger is closer
///   to exact; `1` means *unlimited*, i.e. full bound-driven refinement,
///   which already stops after few look-ups on well-clustered data).
/// * `time_budget` — best answer within a simulated-seconds budget; the
///   search returns whatever the [`TopK`] holds when the clock runs out.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryOptions {
    /// Relative error bound for early termination (`0.0` = exact).
    pub epsilon: f64,
    /// Maximum approximation-level candidates to probe (`None` = all).
    pub nprobes: Option<u64>,
    /// Exact refinements cap multiplier (`1` = unlimited/exact).
    pub refine_factor: u32,
    /// Simulated-time budget in seconds (`None` = unlimited).
    pub time_budget: Option<f64>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self::EXACT
    }
}

impl QueryOptions {
    /// The exact search: every knob neutral.
    pub const EXACT: QueryOptions = QueryOptions {
        epsilon: 0.0,
        nprobes: None,
        refine_factor: 1,
        time_budget: None,
    };

    /// Whether these options demand the exact answer (every knob at a
    /// value that cannot change the result).
    pub fn is_exact(&self) -> bool {
        self.epsilon == 0.0
            && self.nprobes.is_none_or(|m| m == u64::MAX)
            && self.refine_factor <= 1
            && self.time_budget.is_none_or(|b| b == f64::INFINITY)
    }
}

/// A total order over distance keys for candidate heaps. Keys come from
/// MINDIST/metric computations over finite coordinates — query validation
/// admits no other — and are never NaN.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrdKey(pub f64);

impl Eq for OrdKey {}

impl PartialOrd for OrdKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("validated queries have no NaN distance key")
    }
}

/// A min-heap of `(lower_bound, candidate)` items, popped cheapest-first
/// by [`drive`].
pub type CandidateHeap<T> = BinaryHeap<Reverse<(OrdKey, T)>>;

/// One k-NN search's mutable core: the shared [`TopK`], the pruning
/// bound, the knob budgets and the [`QueryTrace`]. Engines construct one
/// per query, stream candidates through [`drive`] / [`refine_ascending`]
/// / [`Executor::offer`], and finish with [`Executor::into_results`].
pub struct Executor {
    top: TopK,
    /// Key-space factor of `(1 + epsilon)`: pruning compares lower
    /// bounds against `bound() / prune_scale`. Exactly `1.0` when
    /// `epsilon == 0` (for every metric, `distance_to_key(1.0) == 1.0`),
    /// so exact-mode comparisons are bit-identical to `lb >= bound()`.
    prune_scale: f64,
    probes_left: u64,
    refines_left: u64,
    deadline: f64,
    /// The work report, written by the executor and the producing engine.
    pub trace: QueryTrace,
    stopped: bool,
}

impl Executor {
    /// Sets up a `k`-NN search under `opts`. The time budget (if any)
    /// starts at the clock's *current* simulated time, so construct the
    /// executor at query entry.
    pub fn new(metric: Metric, k: usize, opts: &QueryOptions, clock: &SimClock) -> Self {
        let prune_scale = metric.distance_to_key(1.0 + opts.epsilon.max(0.0));
        let refines_left = if opts.refine_factor >= 2 {
            (k as u64).saturating_mul(u64::from(opts.refine_factor))
        } else {
            u64::MAX
        };
        let deadline = match opts.time_budget {
            Some(b) if b.is_finite() => clock.total_time() + b,
            _ => f64::INFINITY,
        };
        Self {
            top: TopK::new(k),
            prune_scale,
            probes_left: opts.nprobes.unwrap_or(u64::MAX),
            refines_left,
            deadline,
            trace: QueryTrace::default(),
            stopped: false,
        }
    }

    /// Results currently held (at most `k`).
    pub fn len(&self) -> usize {
        self.top.len()
    }

    /// Whether no result has been found yet.
    pub fn is_empty(&self) -> bool {
        self.top.is_empty()
    }

    /// The pruning bound δ: the k-th best exact key so far (`+∞` while
    /// fewer than `k` results are held).
    pub fn bound(&self) -> f64 {
        self.top.bound()
    }

    /// The effective pruning threshold `δ / (1 + ε)` in key space.
    /// Division by the exact-mode scale `1.0` is a bit-exact identity.
    pub fn prune_threshold(&self) -> f64 {
        self.top.bound() / self.prune_scale
    }

    /// Whether a candidate whose distance key is at least `lower` can be
    /// discarded without changing the (ε-approximate) answer.
    pub fn is_pruned(&self, lower: f64) -> bool {
        lower >= self.prune_threshold()
    }

    /// Offers an exact result; returns whether it entered the top-k.
    pub fn offer(&mut self, key: f64, id: u32) -> bool {
        self.top.insert(key, id)
    }

    /// Whether the simulated-time budget is spent.
    pub fn out_of_time(&self, clock: &SimClock) -> bool {
        clock.total_time() >= self.deadline
    }

    /// Whether the `nprobes` budget is spent.
    pub fn probes_exhausted(&self) -> bool {
        self.probes_left == 0
    }

    /// Remaining `nprobes` budget (`u64::MAX` when unlimited). I/O
    /// planners use this to avoid prefetching candidates the probe
    /// budget can never decode.
    pub fn probes_remaining(&self) -> u64 {
        self.probes_left
    }

    /// Takes one unit of `nprobes` budget. On exhaustion the candidate
    /// is counted skipped and the search marked early-terminated.
    pub fn try_probe(&mut self) -> bool {
        if self.probes_left == 0 {
            self.trace.candidates_skipped += 1;
            self.trace.terminated_early = 1;
            false
        } else {
            self.probes_left -= 1;
            true
        }
    }

    /// Whether the `refine_factor` budget is spent.
    pub fn refines_exhausted(&self) -> bool {
        self.refines_left == 0
    }

    /// Refines one candidate: `fetch` reads the exact point and returns
    /// its distance key (or `None` if the entry is unreadable, which
    /// counts as a skipped point, not a failure). Honors the
    /// `refine_factor` cap. Returns whether an exact key was offered.
    pub fn refine_with(
        &mut self,
        clock: &mut SimClock,
        id: u32,
        fetch: impl FnOnce(&mut SimClock) -> Option<f64>,
    ) -> bool {
        if self.refines_left == 0 {
            self.trace.candidates_skipped += 1;
            self.trace.terminated_early = 1;
            return false;
        }
        self.refines_left -= 1;
        match fetch(clock) {
            Some(key) => {
                self.trace.refinements += 1;
                self.offer(key, id);
                true
            }
            None => {
                self.trace.points_skipped += 1;
                false
            }
        }
    }

    /// Records `n` candidates dropped by a knob (e.g. `nprobes`
    /// truncation of a sorted candidate list) and marks the search
    /// early-terminated.
    pub fn skip_candidates(&mut self, n: u64) {
        if n > 0 {
            self.trace.candidates_skipped += n;
            self.trace.terminated_early = 1;
        }
    }

    /// Marks the search as stopped before its exact termination
    /// condition (ε fired, budget ran out, a cap truncated the stream).
    pub fn note_early_termination(&mut self) {
        self.trace.terminated_early = 1;
    }

    /// Stops the drive loop after the current step (also marks the
    /// search early-terminated).
    pub fn stop(&mut self) {
        self.stopped = true;
        self.trace.terminated_early = 1;
    }

    /// Whether [`Executor::stop`] was called.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// Finishes the search: the results ordered by increasing distance,
    /// plus the trace.
    pub fn into_results(self, metric: Metric) -> (Vec<(u32, f64)>, QueryTrace) {
        (self.top.into_results(metric), self.trace)
    }
}

/// The best-first loop shared by the heap-driven engines (IQ-tree,
/// X-tree): pops the cheapest candidate, terminates when it is prunable
/// (exact completion if the bound itself is reached, ε-termination
/// otherwise) or the time budget is spent, and otherwise hands it to
/// `step`, which may push further candidates.
pub fn drive<T: Ord>(
    exec: &mut Executor,
    clock: &mut SimClock,
    heap: &mut CandidateHeap<T>,
    mut step: impl FnMut(&mut Executor, &mut SimClock, f64, T, &mut CandidateHeap<T>),
) {
    while let Some(Reverse((OrdKey(key), item))) = heap.pop() {
        if exec.is_pruned(key) {
            if key < exec.bound() {
                // Only the ε slack made this prunable: approximate stop.
                exec.note_early_termination();
            }
            break;
        }
        if exec.out_of_time(clock) {
            exec.note_early_termination();
            break;
        }
        step(exec, clock, key, item, heap);
        if exec.stopped {
            break;
        }
    }
}

/// The sorted-sweep loop of filter-and-refine engines (the VA-file):
/// `candidates` is `(lower_bound, id)` in ascending lower-bound order;
/// each is refined through `fetch(clock, position, id)` until the
/// cheapest remaining one is prunable or a budget runs out. `position`
/// indexes `candidates`, so a caller can keep per-candidate locations in
/// a parallel list.
pub fn refine_ascending(
    exec: &mut Executor,
    clock: &mut SimClock,
    candidates: &[(f64, u32)],
    mut fetch: impl FnMut(&mut SimClock, usize, u32) -> Option<f64>,
) {
    for (i, &(lower, id)) in candidates.iter().enumerate() {
        if exec.is_pruned(lower) {
            if lower < exec.bound() {
                exec.note_early_termination();
            }
            break;
        }
        if exec.out_of_time(clock) {
            exec.note_early_termination();
            break;
        }
        if exec.refines_exhausted() {
            exec.skip_candidates((candidates.len() - i) as u64);
            break;
        }
        exec.refine_with(clock, id, |c| fetch(c, i, id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_exec(k: usize) -> Executor {
        Executor::new(
            Metric::Euclidean,
            k,
            &QueryOptions::default(),
            &SimClock::default(),
        )
    }

    #[test]
    fn default_options_are_exact() {
        let d = QueryOptions::default();
        assert!(d.is_exact());
        assert_eq!(d, QueryOptions::EXACT);
        // Explicitly-neutral settings are exact too.
        let neutral = QueryOptions {
            epsilon: 0.0,
            nprobes: Some(u64::MAX),
            refine_factor: 1,
            time_budget: Some(f64::INFINITY),
        };
        assert!(neutral.is_exact());
        // And any turned knob is not.
        assert!(!QueryOptions { epsilon: 0.1, ..d }.is_exact());
        assert!(!QueryOptions {
            nprobes: Some(4),
            ..d
        }
        .is_exact());
        assert!(!QueryOptions {
            refine_factor: 3,
            ..d
        }
        .is_exact());
        assert!(!QueryOptions {
            time_budget: Some(1.0),
            ..d
        }
        .is_exact());
    }

    #[test]
    fn exact_mode_prunes_exactly_at_the_bound() {
        let mut e = exact_exec(2);
        assert!(!e.is_pruned(1e300), "infinite bound prunes nothing");
        e.offer(4.0, 1);
        e.offer(9.0, 2);
        assert_eq!(e.prune_threshold().to_bits(), 9.0f64.to_bits());
        assert!(e.is_pruned(9.0), "lb == bound is prunable");
        assert!(!e.is_pruned(8.999999));
    }

    #[test]
    fn epsilon_tightens_the_threshold() {
        let opts = QueryOptions {
            epsilon: 1.0,
            ..QueryOptions::default()
        };
        let mut e = Executor::new(Metric::Euclidean, 1, &opts, &SimClock::default());
        e.offer(16.0, 7); // distance 4
                          // Key-space scale is (1+ε)² = 4 for Euclidean: threshold 16/4.
        assert!((e.prune_threshold() - 4.0).abs() < 1e-12);
        assert!(e.is_pruned(4.0), "within ε of the bound: prunable");
        assert!(!e.is_pruned(3.9));
    }

    #[test]
    fn drive_pops_in_ascending_key_order_and_stops_at_the_bound() {
        let mut e = exact_exec(1);
        let mut heap: CandidateHeap<u32> = CandidateHeap::new();
        for (key, id) in [(3.0, 3), (1.0, 1), (2.0, 2), (50.0, 50)] {
            heap.push(Reverse((OrdKey(key), id)));
        }
        let mut clock = SimClock::default();
        let mut seen = Vec::new();
        drive(&mut e, &mut clock, &mut heap, |e, _c, key, id, _h| {
            seen.push(id);
            e.offer(key, id);
        });
        // After offering key=1.0 the bound is 1.0; 2.0 is popped and
        // pruned immediately.
        assert_eq!(seen, vec![1]);
        assert_eq!(e.trace.terminated_early, 0, "bound-complete, not early");
        let (res, _) = e.into_results(Metric::Euclidean);
        assert_eq!(res[0].0, 1);
    }

    #[test]
    fn nprobes_cap_counts_skips() {
        let opts = QueryOptions {
            nprobes: Some(2),
            ..QueryOptions::default()
        };
        let mut e = Executor::new(Metric::Euclidean, 1, &opts, &SimClock::default());
        assert!(e.try_probe());
        assert!(e.try_probe());
        assert!(e.probes_exhausted());
        assert!(!e.try_probe());
        assert_eq!(e.trace.candidates_skipped, 1);
        assert_eq!(e.trace.terminated_early, 1);
    }

    #[test]
    fn refine_factor_caps_exact_lookups() {
        let opts = QueryOptions {
            refine_factor: 2,
            ..QueryOptions::default()
        };
        let mut e = Executor::new(Metric::Euclidean, 2, &opts, &SimClock::default());
        let mut clock = SimClock::default();
        let cand: Vec<(f64, u32)> = (0..10).map(|i| (i as f64, i as u32)).collect();
        let mut fetched = 0u32;
        refine_ascending(&mut e, &mut clock, &cand, |_c, i, id| {
            assert_eq!(cand[i].1, id, "position indexes the candidate list");
            fetched += 1;
            Some(1000.0 + f64::from(id))
        });
        // k * refine_factor = 4 look-ups, the rest skipped.
        assert_eq!(fetched, 4);
        assert_eq!(e.trace.refinements, 4);
        assert_eq!(e.trace.candidates_skipped, 6);
        assert_eq!(e.trace.terminated_early, 1);
    }

    #[test]
    fn refine_ascending_stops_at_the_bound_without_early_flag() {
        let mut e = exact_exec(1);
        let mut clock = SimClock::default();
        let cand = vec![(0.5, 1u32), (2.0, 2), (3.0, 3)];
        refine_ascending(&mut e, &mut clock, &cand, |_c, _i, _id| Some(1.0));
        // id 1 refined to key 1.0; the next lower bound 2.0 >= 1.0.
        assert_eq!(e.trace.refinements, 1);
        assert_eq!(e.trace.terminated_early, 0);
    }

    #[test]
    fn time_budget_stops_the_drive() {
        let opts = QueryOptions {
            time_budget: Some(0.0),
            ..QueryOptions::default()
        };
        // Validation rejects 0.0, but the executor itself treats it as
        // an immediately-spent budget — exercise the deadline check.
        let clock = SimClock::default();
        let mut e = Executor::new(Metric::Euclidean, 1, &opts, &clock);
        let mut clock = clock;
        let mut heap: CandidateHeap<u32> = CandidateHeap::new();
        heap.push(Reverse((OrdKey(1.0), 1)));
        let mut stepped = false;
        drive(&mut e, &mut clock, &mut heap, |_e, _c, _k, _id, _h| {
            stepped = true;
        });
        assert!(!stepped, "budget spent before the first step");
        assert_eq!(e.trace.terminated_early, 1);
    }

    #[test]
    fn unreadable_fetch_counts_points_skipped() {
        let mut e = exact_exec(1);
        let mut clock = SimClock::default();
        assert!(!e.refine_with(&mut clock, 9, |_c| None));
        assert_eq!(e.trace.points_skipped, 1);
        assert_eq!(e.trace.refinements, 0);
    }
}
