//! Query processing: nearest-neighbor / k-NN search with the
//! time-optimized page-access strategy (Sections 2.1, 2.2, 3.2) and range
//! queries with optimal batch fetching (Section 2).
//!
//! The priority list holds two kinds of entries (Section 3.2): quantized
//! data pages (keyed by their MBR's MINDIST) and *point approximations* —
//! the grid-cell boxes of individual points, inserted when their page is
//! processed. A point's exact coordinates are read if and only if its box
//! becomes the pivot of the list, which the paper proves unavoidable.
//!
//! Most approximations never become the pivot, so the list keeps only
//! those that can: while a query decodes pages it tracks U, the
//! `budget`-th smallest *settle key* seen so far (the key an
//! approximation is settled at when popped: its cell MAXDIST when popping
//! refines it, its MINDIST under partial refinement). Once the
//! approximations behind U are popped, the result set holds `budget` keys
//! no larger than U, so an approximation whose MINDIST exceeds U is
//! pruned before it could be popped. Such entries wait in a spill list
//! behind a sentinel; if a sentinel is ever popped (a witness's
//! refinement failed under a fault) the spill list returns to the list,
//! and the pops go on exactly as if it had never left.
//!
//! U bounds pages too. Every approximation of a page whose MINDIST exceeds
//! U would be set aside, so a planned run holds such a member undecoded:
//! its probe is spent, its block stays in the query's level-2 buffer, and
//! it returns to the list at its MINDIST, to be decoded from the buffer
//! should it ever pop. By the same argument it pops only when a witness
//! of U failed to settle. Its access probability (eq 2) is 0, so the plan
//! neither prices it nor extends a run over it for its sake.
//!
//! When the pivot is a page and scheduled I/O is enabled, the cumulated-
//! cost-balance algorithm of Section 2.1 extends the read around the pivot
//! in both disk directions: a neighboring page with access probability `a`
//! contributes `t_xfer − a·(t_seek + t_xfer)` to the balance; sequences
//! with negative balance are over-read in the same sweep; the search in
//! either direction stops once the balance exceeds `t_seek`.
//!
//! The balance prices what the device would charge. A block the buffer
//! pool holds ([`iq_storage::BlockDevice::is_resident`]) costs neither
//! `t_seek` nor `t_xfer`, so a resident pivot is read alone with no plan.
//! The check is advisory: a frame evicted between the check and the read
//! changes what the read is charged, never which pages are decoded or
//! what the query returns.
//!
//! A query inside a micro-batch plans no run. U gives it a cheaper tool:
//! once U is finite, every page it can still decode has MINDIST ≤ U, so
//! its page set is known, and the first page it pops whose block the
//! batch's buffer lacks loads that whole set with the optimal batch fetch
//! of Section 2 (Figure 1). The pages are then decoded one at a time, in
//! the same order from the same bytes as without the fetch: only what
//! sits in memory, and so what the reads are charged, changes. A query
//! capped by `nprobes` or a finite time budget reads its pages one at a
//! time, as its knob may never let it decode the rest.

use crate::{IqTree, PageMeta};
use iq_cost::GapSums;
use iq_engine::{
    answer, drive, run_per_query, AccessMethod, Answer, CandidateHeap, Executor, Filter, OrdKey,
    Query, QueryOptions, QueryTrace, Region, TopK,
};
use iq_geometry::Metric;
use iq_obs::{CostPrediction, Phase};
use iq_quantize::{CellMatch, DistTable, QuantPageView, WindowTable, EXACT_BITS};
use iq_storage::{fetch, read_to_vec_retry, BlockBuffer, IqResult, SimClock};
use std::cmp::Reverse;
use std::collections::HashMap;

/// Heap entry target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Item {
    /// The spill sentinel, keyed by the smallest key in the spill list
    /// when it was pushed. Declared first, so `(key, Spill)` pops before
    /// every page or point with the same key: the drive loop's checks on
    /// it see the key of the entry that would have popped next, and
    /// popping it (which moves the spill list into the heap) changes no
    /// outcome.
    Spill,
    /// A quantized data page (by index).
    Page(u32),
    /// A run member held undecoded past U (by page index).
    Held(u32),
    /// A point approximation: `(page, slot, id)` — refined when popped.
    Point(u32, u32, u32),
}

/// Per-query working state that is specific to the IQ-tree producer: the
/// page priority structure and decode scratch. The shared pieces — the
/// top-k, the pruning bound, the knob budgets and the trace — live in the
/// engine-layer [`Executor`], which is threaded alongside.
struct SearchState<'f> {
    /// Pushed-down attribute filter: non-matching points never enter the
    /// result set or the priority list, so the pruning bound (and with it
    /// MINDIST page pruning) derives only from matching points.
    filter: Option<&'f Filter>,
    /// The blocks this query — or its micro-batch — has read.
    reads: &'f mut QueryReads,
    /// MINDIST key of every page.
    page_key: Vec<f64>,
    /// Page indices sorted by ascending MINDIST key (priority order);
    /// built when the query plans its first page run.
    order: Vec<u32>,
    /// Rank of each page in `order` (pages before it are its
    /// higher-priority competitors).
    rank: Vec<u32>,
    /// The eq 5 distributions the plan has built, by (page, radius
    /// class); empty unless page runs are planned.
    gaps: GapSums,
    /// Pages already loaded and processed (or scheduled away).
    processed: Vec<bool>,
    /// Reusable cell-number scratch for the streaming page decoder.
    cells: Vec<u32>,
    /// Reusable coordinate scratch for exact (g = 32) pages and
    /// refinements.
    coords: Vec<f32>,
    /// Reusable per-(query, page-grid) distance-contribution table.
    table: DistTable,
    /// Reusable per-page MINDIST-key scratch for the batch fold kernel.
    keys: Vec<f64>,
    /// Reusable member list of the page run being processed.
    members: Vec<usize>,
    /// Whether popped approximations are settled at their MINDIST
    /// (`refine_factor >= 2`) rather than refined.
    partial: bool,
    /// The size of the result set the query ranks: `k`, or
    /// `k × refine_factor` under partial refinement.
    budget: usize,
    /// The `budget` smallest settle keys of the approximations pushed so
    /// far; its bound is U.
    settle: TopK,
    /// Reusable list of the slots a page settles before its push loop.
    first: Vec<u32>,
    /// Approximations under the pruning bound whose MINDIST exceeded U
    /// when decoded, as `(key, page, slot, id)`.
    spill: Vec<(f64, u32, u32, u32)>,
    /// Key of the newest sentinel guarding `spill` (`+∞` while it is
    /// empty).
    spill_min: f64,
    /// Spilled approximations a sentinel moved back into the heap.
    merged: u64,
    /// Whether `nprobes` caps the query: the plan then prices pages past
    /// U as it would any other.
    capped: bool,
    /// Pages decoded (or recovered from their exact region), held past U,
    /// and decoded after all when their held item popped.
    decoded: u64,
    held: u64,
    unheld: u64,
}

/// The blocks a query has read: its own when it runs alone, its
/// micro-batch's ([`IqTree::run_batch`]) when it runs inside one. A
/// batched query still runs the single-query walk on its own clock —
/// its own MINDIST evaluations, pivot rule, knobs and trace — but a
/// block an earlier query of the batch has read comes from memory, not
/// the device. Only reads that succeeded are kept, and a level-2 block
/// read alone only once it validates, so under faults each query degrades
/// exactly as it would alone. The buffers live for one call, so they hold
/// at most what one query or micro-batch read.
struct QueryReads {
    /// Whether a query has swept the directory.
    directory: bool,
    /// Level-2 blocks: the planned runs of a lone query, the known-set
    /// fetches of batched ones, and single blocks that validated.
    quant: BlockBuffer,
    /// Exact blocks read by refinements.
    exact: BlockBuffer,
}

impl QueryReads {
    fn new(block_size: usize) -> Self {
        Self {
            directory: false,
            quant: BlockBuffer::new(block_size),
            exact: BlockBuffer::new(block_size),
        }
    }
}

impl IqTree {
    /// [`answer`] over this tree's searches; a k-NN query shares its reads
    /// through `shared` when it is given.
    fn answer(
        &self,
        clock: &mut SimClock,
        query: &Query,
        shared: Option<&mut QueryReads>,
    ) -> IqResult<Answer> {
        answer(
            self,
            clock,
            query,
            |clock, q, k, filter, opts| self.search_knn(clock, q, k, filter, opts, shared),
            |clock, region| self.search_region(clock, region),
        )
    }

    /// Shared search core; a pushed-down `filter` drops non-matching points
    /// at page-decode time (level 2), so they never enter the priority list
    /// and are never refined, and `k` counts post-filter results.
    ///
    /// The IQ-tree is a *producer* into the engine-layer [`drive`] loop:
    /// pages and point approximations enter the shared candidate heap, the
    /// executor owns pruning and every approximation knob. Under `opts`,
    /// `nprobes` caps the number of quantized data pages decoded and
    /// `refine_factor` caps exact-point look-ups at `k × refine_factor`.
    ///
    /// Every level-2 and exact read goes through one [`QueryReads`], so
    /// the query reads each block at most once: its own buffers when it
    /// runs alone, the batch's (`shared`) when it runs inside a
    /// micro-batch. There the directory sweep and the blocks of earlier
    /// queries serve it too. The Section 2.1 run extension is planned for
    /// lone queries only, and only around a pivot whose block the buffer
    /// pool does not hold. A batched query instead loads its known page
    /// set with one Figure 1 fetch once U is finite
    /// ([`Self::fetch_known_pages`]), unless `nprobes` or a finite time
    /// budget caps it; either way it decodes its pages one at a time.
    ///
    /// Runs behind [`answer`], which has already checked the query and
    /// answered trivial ones.
    fn search_knn(
        &self,
        clock: &mut SimClock,
        q: &[f32],
        k: usize,
        filter: Option<&Filter>,
        opts: &QueryOptions,
        shared: Option<&mut QueryReads>,
    ) -> (Vec<(u32, f64)>, QueryTrace) {
        // Partial refinement (`refine_factor >= 2`): the quantized phase
        // ranks candidates by their cell lower bound alone — no per-pivot
        // exact reads — and the best `k × refine_factor` are then refined
        // in one block-scheduled batch and reranked. One planned sweep
        // over co-located exact entries replaces up to `k` random seeks.
        let partial = opts.refine_factor >= 2;
        let budget = if partial {
            k.saturating_mul(opts.refine_factor as usize)
        } else {
            k
        };
        let mut exec = Executor::new(self.metric(), budget, opts, clock);
        let mut deferred: HashMap<u32, (u32, u32)> = HashMap::new();
        let mut own;
        let capped = opts.nprobes.is_some_and(|m| m != u64::MAX);
        let (plan_runs, mut fetch_known, reads) = match shared {
            Some(s) => {
                let timed = opts.time_budget.is_some_and(f64::is_finite);
                (false, self.options().scheduled_io && !capped && !timed, s)
            }
            None => {
                own = QueryReads::new(self.block_size());
                (self.options().scheduled_io, false, &mut own)
            }
        };
        clock.phase_begin(Phase::Directory);
        self.charge_directory_scan(clock, !std::mem::replace(&mut reads.directory, true));

        clock.phase_begin(Phase::Plan);
        let metric = self.metric();
        let n_pages = self.pages().len();
        let mut st = SearchState {
            filter,
            reads,
            page_key: Vec::with_capacity(n_pages),
            order: Vec::new(),
            rank: Vec::new(),
            gaps: GapSums::default(),
            processed: vec![false; n_pages],
            cells: Vec::new(),
            coords: Vec::new(),
            table: DistTable::new(),
            keys: Vec::new(),
            members: Vec::new(),
            partial,
            budget,
            settle: TopK::new(budget),
            first: Vec::new(),
            spill: Vec::new(),
            spill_min: f64::INFINITY,
            merged: 0,
            capped,
            decoded: 0,
            held: 0,
            unheld: 0,
        };
        let mut live = Vec::with_capacity(n_pages);
        for (i, meta) in self.pages().iter().enumerate() {
            let key = if meta.count == 0 {
                f64::INFINITY
            } else {
                metric.mindist_key(q, &meta.mbr)
            };
            st.page_key.push(key);
            if key.is_finite() {
                live.push(Reverse((OrdKey(key), Item::Page(i as u32))));
            } else {
                st.processed[i] = true;
            }
        }
        // One O(n) heapify. `(key, item)` orders distinct pages totally, so
        // the pops come out as they would after one push per page.
        let mut heap: CandidateHeap<Item> = CandidateHeap::from(live);

        drive(
            &mut exec,
            clock,
            &mut heap,
            |exec, clock, key, item, heap| {
                match item {
                    Item::Spill => {
                        // Popped only when the approximations behind U did
                        // not all settle (a refinement failed), or when an
                        // earlier sentinel already merged its entries; an
                        // early merge changes no pop either.
                        st.merged += st.spill.len() as u64;
                        heap.extend(st.spill.drain(..).map(|(key, page, slot, id)| {
                            Reverse((OrdKey(key), Item::Point(page, slot, id)))
                        }));
                        st.spill_min = f64::INFINITY;
                    }
                    Item::Page(p) => {
                        let p = p as usize;
                        if st.processed[p] {
                            return;
                        }
                        if exec.probes_exhausted() {
                            // `nprobes` spent: the page is scheduled away before
                            // any I/O is charged for it.
                            st.processed[p] = true;
                            exec.skip_candidates(1);
                            return;
                        }
                        // A pivot the buffer pool holds costs nothing to
                        // read: there is no seek to save, so no run.
                        let block = self.pages()[p].quant_block;
                        if plan_runs && !self.quant_dev().is_resident(block) {
                            self.process_page_run(clock, q, p, &mut st, exec, heap);
                            return;
                        }
                        if fetch_known
                            && st.settle.bound() < f64::INFINITY
                            && !st.reads.quant.contains(block)
                        {
                            // Once: the pages of a run that fails take the
                            // single-block ladder.
                            fetch_known = false;
                            self.fetch_known_pages(clock, p, &mut st, exec);
                        }
                        self.process_single_page(clock, q, p, &mut st, exec, heap);
                    }
                    Item::Held(p) => {
                        // Popped only when a witness of U did not settle
                        // (a refinement failed). The page's probe is spent
                        // and it was counted when held; decode it from the
                        // buffered run, or through the single-block ladder.
                        st.unheld += 1;
                        self.consume_page(clock, q, p as usize, &mut st, exec, heap);
                    }
                    Item::Point(page, slot, id) => {
                        if partial {
                            // Rank by the quantized lower bound now; the exact
                            // read happens later, in one batched sweep.
                            clock.phase_begin(Phase::TopK);
                            deferred.insert(id, (page, slot));
                            exec.offer(key, id);
                            return;
                        }
                        // Refinement: unavoidable once the approximation is the
                        // pivot (Section 3.2). An entry that stays unreadable
                        // after retries is skipped (and counted): the query
                        // completes on the remaining points.
                        clock.phase_begin(Phase::Refine);
                        exec.refine_with(clock, id, |clock| {
                            self.exact_point_key(clock, &mut st, page, slot, q)
                        });
                    }
                }
            },
        );

        clock.span_count("plan.builds", st.gaps.builds());
        clock.span_count("plan.reads", st.gaps.reads());
        // Every approximation under the bound was pushed or spilled, and
        // every spilled one is merged back or still in the spill list.
        let spilled = st.merged + st.spill.len() as u64;
        let pushed = exec.trace.approx_enqueued - spilled + st.merged;
        clock.span_count("filter.pushed", pushed);
        clock.span_count("filter.spilled", spilled);
        clock.span_count("filter.merged", st.merged);
        clock.span_count("filter.pages_decoded", st.decoded);
        clock.span_count("filter.pages_held", st.held);
        clock.span_count("filter.pages_unheld", st.unheld);
        clock.phase_begin(Phase::TopK);
        let (results, mut trace) = exec.into_results(metric);
        if !partial {
            return (results, trace);
        }

        // Rerank: provisional results from exact pages already carry true
        // distances; lower-bound-ranked candidates are refined in one
        // planned batch over the exact file (candidates that stay
        // unreadable after retries are skipped and counted, as in the
        // pivot path). Blocks an earlier query of the micro-batch read
        // are not fetched again.
        clock.phase_begin(Phase::Refine);
        let mut batch: Vec<(usize, usize, u32)> = Vec::new();
        let mut rerank: Vec<(u32, f64)> = Vec::new();
        for (id, d) in results {
            match deferred.get(&id) {
                Some(&(page, slot)) => batch.push((page as usize, slot as usize, id)),
                None => rerank.push((id, d)),
            }
        }
        let unreadable =
            self.refine_batch_with(clock, &mut st.reads.exact, &batch, |id, coords| {
                let d = metric.key_to_distance(metric.distance_key(coords, q));
                rerank.push((id, d));
            });
        trace.refinements += batch.len() as u64 - unreadable;
        trace.points_skipped += unreadable;
        clock.phase_begin(Phase::TopK);
        rerank.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("validated queries have no NaN distance")
                .then(a.0.cmp(&b.0))
        });
        rerank.truncate(k);
        (rerank, trace)
    }

    /// Loads exactly one page (the "standard NN search" ablation, and
    /// every page load inside a micro-batch, from the batch's buffer when
    /// it holds the block). Each page read consumes one unit of the
    /// `nprobes` budget; once spent, the page is scheduled away unread.
    fn process_single_page(
        &self,
        clock: &mut SimClock,
        q: &[f32],
        p: usize,
        st: &mut SearchState<'_>,
        exec: &mut Executor,
        heap: &mut CandidateHeap<Item>,
    ) {
        st.processed[p] = true;
        if !exec.try_probe() {
            return;
        }
        if self.consume_page(clock, q, p, st, exec, heap) {
            exec.trace.pages_processed += 1;
        }
    }

    /// The known-set fetch of a batched query whose U is finite: every page
    /// it can still decode has MINDIST ≤ U and is not pruned, so these
    /// pages and the `pivot` it popped are read with one Figure 1 fetch
    /// (Section 2) into the batch's level-2 buffer, leaving out the blocks
    /// it already holds. Each run read counts in the trace; the pages of a
    /// run that fails miss the buffer and take the single-block ladder of
    /// [`Self::consume_page`].
    fn fetch_known_pages(
        &self,
        clock: &mut SimClock,
        pivot: usize,
        st: &mut SearchState<'_>,
        exec: &mut Executor,
    ) {
        clock.phase_begin(Phase::Filter);
        let u = st.settle.bound();
        let quant = &st.reads.quant;
        let mut positions: Vec<u64> = self
            .pages()
            .iter()
            .enumerate()
            .filter(|&(i, _)| {
                let key = st.page_key[i];
                i == pivot || (!st.processed[i] && key <= u && !exec.is_pruned(key))
            })
            .map(|(_, meta)| meta.quant_block)
            .filter(|&b| !quant.contains(b))
            .collect();
        positions.sort_unstable();
        exec.trace.runs +=
            fetch::fetch_blocks(self.quant_dev(), clock, &positions, &mut st.reads.quant);
    }

    /// The time-optimized strategy: extend the read around the pivot while
    /// the cumulated cost balance stays favorable (Section 2.1), then load
    /// the whole sequence in one sweep and process every unprocessed page
    /// in it. The run stays in the query's level-2 buffer. A member whose
    /// MINDIST exceeds U spends its probe but is held undecoded: the page
    /// returns to the priority list at its MINDIST.
    fn process_page_run(
        &self,
        clock: &mut SimClock,
        q: &[f32],
        pivot: usize,
        st: &mut SearchState<'_>,
        exec: &mut Executor,
        heap: &mut CandidateHeap<Item>,
    ) {
        clock.phase_begin(Phase::Plan);
        let disk = *clock.disk();
        let metric = self.metric();
        let n_pages = self.pages().len();
        let bound = exec.prune_threshold();
        if st.order.is_empty() {
            // Priority order for the access-probability prefix walks, built
            // when the query plans its first run.
            st.order = (0..n_pages as u32).collect();
            st.order.sort_by(|&a, &b| {
                st.page_key[a as usize]
                    .partial_cmp(&st.page_key[b as usize])
                    .expect("validated queries have no NaN distance key")
            });
            st.rank = vec![0u32; n_pages];
            for (pos, &i) in st.order.iter().enumerate() {
                st.rank[i as usize] = pos as u32;
            }
        }

        // Access probability of page i (eq 2) over its unprocessed
        // higher-priority competitors — exactly the prefix of the sorted
        // order before its rank. The product collapses quickly (each
        // intersecting page holds many points), so the walk exits early
        // almost always. Each competitor's eq 5 fraction is read from the
        // query's cache of distributions.
        let pages = self.pages();
        // A page past U would be held, not decoded: it is needed only if a
        // witness of U fails to settle, so its access probability is 0.
        // Under an `nprobes` cap the plan prices it as any other page.
        let u = if st.capped {
            f64::INFINITY
        } else {
            st.settle.bound()
        };
        let prob = |st: &mut SearchState, i: usize| -> f64 {
            let key = st.page_key[i];
            if st.processed[i] || key >= bound || key > u {
                return 0.0; // already processed, prunable or past U
            }
            let SearchState {
                order,
                rank,
                processed,
                gaps,
                ..
            } = st;
            let competitors = order[..rank[i] as usize]
                .iter()
                .map(|&j| j as usize)
                .filter(|&j| !processed[j])
                .map(|j| (j, &pages[j].mbr, pages[j].count as usize));
            gaps.access_probability(metric, q, metric.key_to_distance(key), competitors)
        };

        // `nprobes` caps how many pages will ever be decoded, so the run
        // must not be extended past what the remaining budget can use:
        // pages beyond it would be read as guaranteed-dead filler. The
        // pivot itself consumes one probe. Unlimited budgets leave the
        // extension walk untouched (exact mode stays bit-identical).
        let mut decodable_left = exec.probes_remaining().saturating_sub(1);

        // Forward extension.
        let mut last = pivot;
        let mut ccb = 0.0f64;
        let mut i = pivot + 1;
        while i < n_pages && ccb < disk.t_seek {
            let a = prob(st, i);
            if a > 0.0 {
                if decodable_left == 0 {
                    break;
                }
                decodable_left -= 1;
            }
            ccb += disk.t_xfer - a * (disk.t_seek + disk.t_xfer);
            if ccb < 0.0 {
                last = i;
                ccb = 0.0;
            }
            i += 1;
        }
        // Backward extension.
        let mut first = pivot;
        ccb = 0.0;
        let mut j = pivot as i64 - 1;
        while j >= 0 && ccb < disk.t_seek {
            let a = prob(st, j as usize);
            if a > 0.0 {
                if decodable_left == 0 {
                    break;
                }
                decodable_left -= 1;
            }
            ccb += disk.t_xfer - a * (disk.t_seek + disk.t_xfer);
            if ccb < 0.0 {
                first = j as usize;
                ccb = 0.0;
            }
            j -= 1;
        }

        // One sequential sweep over [first, last] (pages are laid out in
        // index order in the quantized file). Process the loaded pages in
        // MINDIST order, not disk order: the nearest page tightens the
        // pruning bound first, letting the rest of the run be skipped or
        // decoded against a finite bound.
        let mut members = std::mem::take(&mut st.members);
        members.clear();
        members.extend((first..=last).filter(|&p| !st.processed[p]));
        members.sort_by(|&a, &b| {
            st.page_key[a]
                .partial_cmp(&st.page_key[b])
                .expect("validated queries have no NaN distance key")
        });
        let start_block = self.pages()[first].quant_block;
        let run_len = (last - first + 1) as u64;
        clock.phase_begin(Phase::Filter);
        // One corrupt block poisons the whole ranged read: then every member
        // misses the buffer and takes the read ladder's single retried
        // read, so only the bad page pays the fallback, not the entire
        // sweep.
        if let Ok(run) = read_to_vec_retry(self.quant_dev(), clock, start_block, run_len) {
            exec.trace.runs += 1;
            st.reads.quant.keep(start_block, run);
        }
        for &p in &members {
            st.processed[p] = true;
            let key = st.page_key[p];
            if exec.is_pruned(key) {
                exec.trace.pages_skipped += 1;
                continue; // loaded as filler; nothing useful inside
            }
            // The run was read as one sweep, but each *decoded* page still
            // consumes a unit of the `nprobes` budget; members beyond the
            // cap stay undecoded filler.
            if !exec.try_probe() {
                continue;
            }
            if key > st.settle.bound() {
                // Every approximation inside would be set aside: hold the
                // page. Members come in MINDIST order and U only falls, so
                // every later member is held too.
                exec.trace.pages_processed += 1;
                st.held += 1;
                heap.push(Reverse((OrdKey(key), Item::Held(p as u32))));
                continue;
            }
            if self.consume_page(clock, q, p, st, exec, heap) {
                exec.trace.pages_processed += 1;
            }
        }
        st.members = members;
    }

    /// Takes page `p` through the level-2 read ladder
    /// ([`Self::quant_view`]) and feeds its contents to the search: exact
    /// entries update the result set directly, approximations enter the
    /// priority list as point boxes. A page the ladder cannot deliver is
    /// answered from its exact region. A page whose block the query's
    /// level-2 buffer lacks costs one run: the ladder's single-block read.
    ///
    /// This is the level-2 hot loop: the page is streamed through a
    /// header-validated [`iq_quantize::QuantPageView`] and each candidate's
    /// MINDIST comes from the per-(query, grid) [`DistTable`] — no `Vec`
    /// allocations, no MBR construction, no f32 reconstruction, and
    /// bit-identical keys to the naive decode-then-`Metric` path.
    ///
    /// Returns whether the page was taken: decoded, or recovered from its
    /// exact region. The caller counts it as processed.
    fn consume_page(
        &self,
        clock: &mut SimClock,
        q: &[f32],
        p: usize,
        st: &mut SearchState<'_>,
        exec: &mut Executor,
        heap: &mut CandidateHeap<Item>,
    ) -> bool {
        clock.phase_begin(Phase::Filter);
        if !st.reads.quant.contains(self.pages()[p].quant_block) {
            exec.trace.runs += 1;
        }
        let metric = self.metric();
        let SearchState {
            filter,
            reads,
            cells,
            coords,
            table,
            keys,
            partial,
            budget,
            settle,
            first,
            spill,
            spill_min,
            decoded,
            ..
        } = st;
        let filter = *filter;
        let Some(view) = self.quant_view(clock, p, &mut reads.quant) else {
            clock.phase_begin(Phase::Refine);
            let outcome = self.fallback_exact(clock, p, |id, coords| {
                if filter.is_none_or(|f| f.matches(id)) {
                    exec.offer(metric.distance_key(coords, q), id);
                }
            });
            let recovered = note_fallback(&mut exec.trace, outcome);
            *decoded += u64::from(recovered);
            return recovered;
        };
        clock.charge_dist_evals(self.dim(), view.len() as u64);
        *decoded += 1;
        if view.bits() == EXACT_BITS {
            view.for_each_point(coords, |id, p| {
                if filter.is_none_or(|f| f.matches(id)) {
                    exec.offer(metric.distance_key(p, q), id);
                }
            });
        } else {
            let meta: &PageMeta = &self.pages()[p];
            table.build(&meta.mbr, view.bits(), metric, q, view.len());
            // Whole-page decode + batch MINDIST fold: the SIMD kernels in
            // `iq_quantize::simd` unpack every entry's cells in one pass
            // and fold the per-dimension table rows lane-parallel —
            // bit-identical to the per-entry lookup loop.
            view.unpack_all(cells);
            table.mindist_keys(cells, keys);
            // No exact result is offered while filtering approximations, so
            // the pruning threshold is loop-invariant.
            let bound = exec.prune_threshold();
            let dim = self.dim();
            // Filtered-out points never enter the priority list: they are
            // neither refined nor allowed to influence the bound.
            let listed =
                |slot: usize| filter.is_none_or(|f| f.matches(view.id(slot))) && keys[slot] < bound;
            // Only an entry with MINDIST <= U can tighten U, so only these
            // need a settle key.
            let settle_key = |slot: usize| {
                if *partial {
                    keys[slot]
                } else {
                    table.maxdist_key(&cells[slot * dim..(slot + 1) * dim])
                }
            };
            // While U is unbounded, the entries a page stores first would
            // form it, and a page stores near entries together. Settling
            // the page's `budget` smallest keys first makes U independent
            // of the storage order.
            first.clear();
            if settle.bound() == f64::INFINITY {
                first.extend((0..keys.len() as u32).filter(|&slot| listed(slot as usize)));
                if first.len() > *budget {
                    first.select_nth_unstable_by(*budget, |&a, &b| {
                        keys[a as usize].total_cmp(&keys[b as usize])
                    });
                    first.truncate(*budget);
                }
                first.sort_unstable();
                for &slot in first.iter() {
                    settle.insert(settle_key(slot as usize), view.id(slot as usize));
                }
            }
            let mut first = first.iter().peekable();
            let mut u = settle.bound();
            let mut page_min = f64::INFINITY;
            for (slot, &key) in keys.iter().enumerate() {
                if !listed(slot) {
                    continue;
                }
                let settled = first.next_if_eq(&&(slot as u32)).is_some();
                let id = view.id(slot);
                exec.trace.approx_enqueued += 1;
                if key > u {
                    // Pruned before it could pop unless a witness of U
                    // fails to settle: set aside.
                    spill.push((key, p as u32, slot as u32, id));
                    page_min = page_min.min(key);
                    continue;
                }
                if !settled && settle.insert(settle_key(slot), id) {
                    u = settle.bound();
                }
                heap.push(Reverse((
                    OrdKey(key),
                    Item::Point(p as u32, slot as u32, id),
                )));
            }
            if page_min < *spill_min {
                // The spill list's minimum fell: guard it with a new
                // sentinel. An older one, popped later, finds its entry
                // merged back but not yet popped.
                *spill_min = page_min;
                heap.push(Reverse((OrdKey(page_min), Item::Spill)));
            }
        }
        true
    }

    /// The level-2 read ladder every query path shares. The page's block
    /// comes from `quant` — a planned or ranged read that succeeded, or an
    /// earlier single-block read — or else from one retried single-block
    /// read, kept in `quant` once it validates; either way it is then
    /// header-validated. `None` means the page must be answered from its
    /// exact region ([`Self::fallback_exact`]): the block stayed
    /// unreadable (the checksum layer has counted it), or it read fine but
    /// does not decode — corruption that slipped past the checksums,
    /// counted here.
    fn quant_view<'b>(
        &self,
        clock: &mut SimClock,
        p: usize,
        quant: &'b mut BlockBuffer,
    ) -> Option<QuantPageView<'b>> {
        let block = self.pages()[p].quant_block;
        if !quant.contains(block) {
            let bytes = read_to_vec_retry(self.quant_dev(), clock, block, 1).ok()?;
            if self.codec().try_view(&bytes).is_err() {
                clock.note_corrupt_block();
                return None;
            }
            quant.keep(block, bytes);
        }
        let view = self.codec().try_view(quant.block(block)?);
        if view.is_err() {
            clock.note_corrupt_block();
        }
        view.ok()
    }

    /// The level-3 fallback of every query path: the quantized block of
    /// page `p` could not be read or decoded, so the page is answered from
    /// its exact region, whose self-contained `(id, coords)` entries give
    /// full precision, just without approximation pruning. Calls
    /// `visit(id, coords)` for each entry that decodes and charges one
    /// distance evaluation per entry. Returns the number of entries that
    /// do not decode, or `None` when the page is lost: it is stored
    /// exactly at 32 bits (no level 3) or its region stays unreadable.
    fn fallback_exact(
        &self,
        clock: &mut SimClock,
        p: usize,
        mut visit: impl FnMut(u32, &[f32]),
    ) -> Option<u64> {
        let mut undecodable = 0;
        self.for_each_exact_entry(clock, p, |entry| {
            match entry {
                Ok((id, coords)) => visit(id, coords),
                Err(_) => undecodable += 1,
            }
            Ok(())
        })
        .ok()?;
        let count = u64::from(self.pages()[p].count);
        clock.charge_dist_evals(self.dim(), count);
        Some(undecodable)
    }

    /// Refines the point at `(page, slot)` through the query's exact-block
    /// buffer and returns its distance key from `q` (one charged distance
    /// evaluation), or `None` when the entry stays unreadable after
    /// retries.
    fn exact_point_key(
        &self,
        clock: &mut SimClock,
        st: &mut SearchState<'_>,
        page: u32,
        slot: u32,
        q: &[f32],
    ) -> Option<f64> {
        st.coords.resize(self.dim(), 0.0);
        self.read_exact_entry(
            clock,
            &mut st.reads.exact,
            page as usize,
            slot as usize,
            &mut st.coords,
        )
        .ok()?;
        clock.charge_dist_evals(self.dim(), 1);
        Some(self.metric().distance_key(&st.coords, q))
    }

    /// Batch-refines a known set of `(page, slot, id)` candidates through
    /// the exact-block buffer `exact`: plans one optimal fetch over every
    /// exact-file block involved that the buffer lacks (Section 2 — the
    /// positions are known in advance) and keeps the runs it reads, then
    /// calls `visit` with each candidate's id and exact coordinates. A
    /// candidate whose blocks the fetch did not deliver (they lie in a run
    /// that stayed unreadable after retries) reads them with one retried
    /// read. Returns how many candidates stayed unreadable or did not
    /// decode; they are not visited. The refinement step of
    /// `window`/`range` and of the `refine_factor` rerank in k-NN search.
    fn refine_batch_with(
        &self,
        clock: &mut SimClock,
        exact: &mut BlockBuffer,
        refinements: &[(usize, usize, u32)],
        mut visit: impl FnMut(u32, &[f32]),
    ) -> u64 {
        if refinements.is_empty() {
            return 0;
        }
        let bs = self.block_size();
        // Every block a candidate touches that the buffer lacks, in disk
        // order.
        let mut positions: Vec<u64> = Vec::with_capacity(refinements.len() * 2);
        for &(page, slot, _) in refinements {
            let start = self.pages()[page].exact_start;
            let (first, nblocks, _) = self.exact_codec().entry_span(slot, bs);
            positions
                .extend((start + first..start + first + nblocks).filter(|&b| !exact.contains(b)));
        }
        positions.sort_unstable();
        positions.dedup();
        fetch::fetch_blocks(self.exact_dev(), clock, &positions, exact);
        let mut unreadable = 0;
        let mut coords = vec![0.0f32; self.dim()];
        for &(page, slot, id) in refinements {
            if self
                .read_exact_entry(clock, exact, page, slot, &mut coords)
                .is_err()
            {
                unreadable += 1;
                continue;
            }
            clock.charge_dist_evals(self.dim(), 1);
            visit(id, &coords);
        }
        unreadable
    }

    /// All points in a range or window `region` (unordered ids): the
    /// paper's Section 2 query over a page set known in advance. The
    /// candidate pages are the non-empty ones whose MBR meets `region`;
    /// they load with the optimal batch fetch of Figure 1 into the query's
    /// level-2 buffer and go through the level-2 read ladder. Entries of
    /// exact pages, and of pages answered from their exact region, are
    /// hits when their point lies in `region`. Quantized pages are
    /// classified cell box by cell box, a range by both bounds of each box
    /// and a window through the flag-AND row fold. A box inside the region
    /// is a hit as is; a box straddling its boundary is refined in one
    /// batched sweep and verified. The trace counts what the k-NN trace
    /// counts: the level-2 runs read, the pages taken, the fallbacks to and
    /// losses of exact regions, the boxes refined and the points that
    /// stayed unreadable.
    fn search_region(&self, clock: &mut SimClock, region: &Region) -> (Vec<u32>, QueryTrace) {
        clock.phase_begin(Phase::Directory);
        self.charge_directory_scan(clock, true);
        clock.phase_begin(Phase::Plan);
        let candidates: Vec<usize> = self
            .pages()
            .iter()
            .enumerate()
            .filter(|(_, m)| m.count > 0 && region.meets(&m.mbr))
            .map(|(i, _)| i)
            .collect();
        let positions: Vec<u64> = candidates
            .iter()
            .map(|&i| self.pages()[i].quant_block)
            .collect();
        clock.phase_begin(Phase::Filter);
        let mut trace = QueryTrace::default();
        let mut quant = BlockBuffer::new(self.block_size());
        trace.runs = fetch::fetch_blocks(self.quant_dev(), clock, &positions, &mut quant);
        let mut out = Vec::new();
        let mut refinements: Vec<(usize, usize, u32)> = Vec::new();
        // Reusable per-query scratch: the page loop below is allocation-free
        // in the steady state.
        let mut cells: Vec<u32> = Vec::new();
        let mut coords: Vec<f32> = Vec::new();
        let mut matches: Vec<CellMatch> = Vec::new();
        let (mut table, mut wtable) = (DistTable::new(), WindowTable::new());
        let (mut lo_keys, mut hi_keys) = (Vec::new(), Vec::new());
        for &p in &candidates {
            trace.runs += u64::from(!quant.contains(self.pages()[p].quant_block));
            let Some(view) = self.quant_view(clock, p, &mut quant) else {
                let outcome = self.fallback_exact(clock, p, |id, coords| {
                    if region.holds(coords) {
                        out.push(id);
                    }
                });
                trace.pages_processed += u64::from(note_fallback(&mut trace, outcome));
                continue;
            };
            trace.pages_processed += 1;
            clock.charge_dist_evals(self.dim(), view.len() as u64);
            if view.bits() == EXACT_BITS {
                view.for_each_point(&mut coords, |id, p| {
                    if region.holds(p) {
                        out.push(id);
                    }
                });
            } else {
                view.unpack_all(&mut cells);
                let mbr = &self.pages()[p].mbr;
                match *region {
                    Region::Ball {
                        center,
                        key,
                        metric,
                    } => {
                        table.build_bounds(mbr, view.bits(), metric, center, view.len());
                        // Batch fold: MINDIST and MAXDIST keys for the
                        // whole page in one SIMD pass. Both comparisons
                        // stay in the key domain, so a box accepted
                        // without refinement satisfies the same
                        // `distance_key <= key` predicate refinement would
                        // have checked.
                        table.bounds_keys(&cells, &mut lo_keys, &mut hi_keys);
                        matches.clear();
                        matches.extend(lo_keys.iter().zip(&hi_keys).map(|(&lo, &hi)| {
                            match (lo <= key, hi <= key) {
                                (false, _) => CellMatch::Disjoint,
                                (true, true) => CellMatch::Inside,
                                (true, false) => CellMatch::Partial,
                            }
                        }));
                    }
                    // Whole-page classification through the flag-AND row
                    // fold — bit-identical to per-entry `classify`.
                    Region::Window(window) => {
                        wtable.build(mbr, view.bits(), window, view.len());
                        wtable.classify_batch(&cells, &mut matches);
                    }
                }
                for (slot, &m) in matches.iter().enumerate() {
                    match m {
                        CellMatch::Disjoint => {}
                        CellMatch::Inside => out.push(view.id(slot)),
                        CellMatch::Partial => refinements.push((p, slot, view.id(slot))),
                    }
                }
            }
        }
        clock.phase_begin(Phase::Refine);
        trace.approx_enqueued = refinements.len() as u64;
        let mut exact = BlockBuffer::new(self.block_size());
        let unreadable = self.refine_batch_with(clock, &mut exact, &refinements, |id, coords| {
            if region.holds(coords) {
                out.push(id);
            }
        });
        trace.refinements = refinements.len() as u64 - unreadable;
        trace.points_skipped += unreadable;
        (out, trace)
    }

    /// The cost model's prediction of what a `k`-NN query against the
    /// current page configuration will do: how many second-level pages it
    /// reads (eqs 16–18, k-NN sphere per footnote 1) and how long the three
    /// levels take together (eq 23 with the k-NN refinement expectation of
    /// eq 15 summed over live pages). The refinements land on the pages the
    /// query reads, an equal share each, and a query reads each exact
    /// block once, so each read page's share is charged its expected
    /// distinct exact blocks ([`iq_cost::expected_distinct_blocks`], over
    /// the mean exact region), not one random access each;
    /// `refine_pages` still reports the refinements.
    ///
    /// This is the "predicted" side of [`iq_obs::CostAudit`]; the observed
    /// side is the [`QueryTrace`] / [`SimClock`] of a real query.
    pub fn predict_knn_cost(&self, disk: &iq_storage::DiskModel, k: usize) -> CostPrediction {
        self.predict_knn_cost_opts(disk, k, &QueryOptions::EXACT)
    }

    /// [`IqTree::predict_knn_cost`] under approximation [`QueryOptions`]:
    /// `nprobes` caps the expected second-level page count, `refine_factor`
    /// caps the refinement term at `k × refine_factor` exact reads, and a
    /// `time_budget` clips the total. `epsilon` is modeled conservatively
    /// (no reduction): the ε savings depend on the data distribution near
    /// the query, which the page-level model cannot see.
    pub fn predict_knn_cost_opts(
        &self,
        disk: &iq_storage::DiskModel,
        k: usize,
        opts: &QueryOptions,
    ) -> CostPrediction {
        let k = k.max(1);
        let live: Vec<&PageMeta> = self.pages().iter().filter(|p| p.count > 0).collect();
        let n = live.len();
        let mut pages = iq_cost::expected_pages_accessed_knn(self.dir_params(), n, k);
        if let Some(m) = opts.nprobes {
            pages = pages.min(m as f64);
        }
        // Expected refinements (eq 15), summed over the live pages.
        let mut refine_pages: f64 = live
            .iter()
            .map(|meta| {
                iq_cost::expected_refinements_knn(
                    self.refine_params(),
                    &meta.mbr.sides(),
                    meta.count as usize,
                    meta.g,
                    k,
                )
            })
            .sum();
        if opts.refine_factor >= 2 {
            refine_pages = refine_pages.min((k as f64) * f64::from(opts.refine_factor));
        }
        // Refinements land on the pages the query reads (eqs 16–18), and
        // a query reads each exact block once: each read page's share of
        // the refinements costs its expected distinct blocks, each a
        // random access.
        let read_pages = pages.max(1.0);
        let mean_blocks =
            live.iter().map(|m| f64::from(m.exact_blocks)).sum::<f64>() / n.max(1) as f64;
        let refine_blocks = read_pages
            * iq_cost::expected_distinct_blocks(
                mean_blocks.round() as u32,
                refine_pages / read_pages,
            );
        let mut io_seconds = iq_cost::first_level_cost(self.dir_params(), disk, n)
            + iq_cost::directory::second_level_cost_for_k(disk, n, pages)
            + refine_blocks * (disk.t_seek + disk.t_xfer);
        if let Some(b) = opts.time_budget {
            io_seconds = io_seconds.min(b);
        }
        CostPrediction {
            pages,
            io_seconds,
            filter_pages: pages,
            refine_pages,
        }
    }
}

/// Counts the outcome of [`IqTree::fallback_exact`] in `trace`: a
/// recovered page is a quantized fallback whose undecodable entries are
/// skipped points, a lost one a lost page. Returns whether the page was
/// recovered.
fn note_fallback(trace: &mut QueryTrace, outcome: Option<u64>) -> bool {
    match outcome {
        Some(undecodable) => {
            trace.quant_fallbacks += 1;
            trace.points_skipped += undecodable;
            true
        }
        None => {
            trace.pages_lost += 1;
            false
        }
    }
}

/// The IQ-tree's query surface: k-NN, range and window queries, callable
/// through `&dyn AccessMethod` alongside the scan, VA-file and X-tree
/// baselines.
impl AccessMethod for IqTree {
    fn name(&self) -> &'static str {
        "iqtree"
    }

    fn dim(&self) -> usize {
        IqTree::dim(self)
    }

    fn len(&self) -> usize {
        self.n
    }

    fn metric(&self) -> Metric {
        IqTree::metric(self)
    }

    /// k-NN by the priority walk with a pushed-down filter (no top-up
    /// rounds); range and window over their known page set.
    fn run(&self, clock: &mut SimClock, query: &Query) -> IqResult<Answer> {
        self.answer(clock, query, None)
    }

    /// Every query of the micro-batch runs on its own fresh clock, so
    /// results, knobs and time budgets are per query. The valid k-NN
    /// queries of a batch holding two or more run the single-query walk
    /// and share their reads: the directory is swept once, and level-2 and exact blocks
    /// read by one query serve the queries after it. A batched query plans
    /// no Section 2.1 run; once its U is finite it loads its known page
    /// set with one Figure 1 fetch (unless `nprobes` or a finite time
    /// budget caps it) and decodes the pages one at a time. Range and
    /// window queries, and a lone valid k-NN query among them, run as
    /// they do alone.
    fn run_batch(&self, clock: &mut SimClock, queries: &[Query]) -> Vec<IqResult<Answer>> {
        let knn = |q: &&Query| matches!(q, Query::Knn { .. }) && q.validate(self.dim).is_ok();
        let mut shared =
            (queries.iter().filter(knn).count() > 1).then(|| QueryReads::new(self.block_size()));
        run_per_query(clock, queries, |clock, query| {
            self.answer(clock, query, shared.as_mut())
        })
    }

    /// The trait has no disk handle, so the prediction prices I/O on the
    /// default [`iq_storage::DiskModel`] — the model every [`SimClock`] in
    /// the workspace defaults to. Callers with a custom disk should use
    /// [`IqTree::predict_knn_cost_opts`] directly.
    fn cost_prediction(&self, k: usize, opts: &QueryOptions) -> Option<CostPrediction> {
        Some(self.predict_knn_cost_opts(&iq_storage::DiskModel::default(), k, opts))
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::{build_tree, random_ds};
    use crate::IqTreeOptions;
    use iq_engine::{AccessMethod, Filter, Query, QueryOptions, TracedResult};
    use iq_geometry::{Dataset, Metric};
    use iq_storage::SimClock;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The IQ-tree's micro-batch over k-NN queries sharing `k`, `filter`
    /// and `opts`.
    fn multi(
        tree: &crate::IqTree,
        clock: &mut SimClock,
        queries: &[Vec<f32>],
        k: usize,
        filter: Option<&Filter>,
        opts: QueryOptions,
    ) -> Vec<TracedResult> {
        let queries: Vec<Query> = queries
            .iter()
            .map(|q| Query::Knn {
                point: q,
                k,
                filter,
                opts,
            })
            .collect();
        tree.run_batch(clock, &queries)
            .into_iter()
            .map(|r| r.expect("valid query").into_ranked())
            .collect()
    }

    fn brute_knn(ds: &Dataset, q: &[f32], k: usize) -> Vec<(u32, f64)> {
        let m = Metric::Euclidean;
        let mut all: Vec<(u32, f64)> = (0..ds.len())
            .map(|i| (i as u32, m.distance(ds.point(i), q)))
            .collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"));
        all.truncate(k);
        all
    }

    #[test]
    fn nearest_matches_brute_force_all_variants() {
        let ds = random_ds(1_200, 6, 11);
        let variants = [
            IqTreeOptions::default(),
            IqTreeOptions {
                scheduled_io: false,
                ..Default::default()
            },
            IqTreeOptions {
                quantize: false,
                ..Default::default()
            },
            IqTreeOptions {
                quantize: false,
                scheduled_io: false,
                ..Default::default()
            },
        ];
        for (vi, opts) in variants.into_iter().enumerate() {
            let (tree, mut clock) = build_tree(&ds, opts, 1024);
            let mut rng = StdRng::seed_from_u64(42);
            for t in 0..15 {
                let q: Vec<f32> = (0..6).map(|_| rng.gen()).collect();
                let (_, d) = tree
                    .run(&mut clock, &Query::knn(&q, 1))
                    .expect("valid query")
                    .into_ranked()
                    .0[0];
                let expect = brute_knn(&ds, &q, 1)[0];
                assert!(
                    (d - expect.1).abs() < 1e-6,
                    "variant {vi}, query {t}: {d} vs {}",
                    expect.1
                );
            }
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let ds = random_ds(900, 5, 12);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let q = vec![0.37f32; 5];
        let got = tree
            .run(&mut clock, &Query::knn(&q, 11))
            .expect("valid query")
            .into_ranked()
            .0;
        let expect = brute_knn(&ds, &q, 11);
        assert_eq!(got.len(), 11);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g.1 - e.1).abs() < 1e-6, "{got:?}");
        }
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn range_matches_brute_force() {
        let ds = random_ds(1_000, 4, 13);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 512);
        for (q, r) in [
            (vec![0.5f32; 4], 0.3),
            (vec![0.1f32; 4], 0.5),
            (vec![0.9f32; 4], 0.05),
        ] {
            let mut got = tree
                .run(
                    &mut clock,
                    &Query::Range {
                        point: &q,
                        radius: r,
                    },
                )
                .expect("valid query")
                .ids();
            got.sort_unstable();
            let mut expect: Vec<u32> = (0..ds.len() as u32)
                .filter(|&i| Metric::Euclidean.distance(ds.point(i as usize), &q) <= r)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "r={r}");
        }
    }

    #[test]
    fn scheduled_io_reduces_seeks() {
        // In high dimensions many pages must be read; the scheduler should
        // turn most of the random accesses into sweeps.
        let ds = random_ds(6_000, 12, 14);
        let (t_std, mut c_std) = build_tree(
            &ds,
            IqTreeOptions {
                scheduled_io: false,
                ..Default::default()
            },
            1024,
        );
        let (t_opt, mut c_opt) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let q = vec![0.5f32; 12];
        t_std
            .run(&mut c_std, &Query::knn(&q, 1))
            .expect("valid query");
        t_opt
            .run(&mut c_opt, &Query::knn(&q, 1))
            .expect("valid query");
        assert!(
            c_opt.stats().seeks < c_std.stats().seeks,
            "opt {} vs std {} seeks",
            c_opt.stats().seeks,
            c_std.stats().seeks
        );
        assert!(
            c_opt.io_time() <= c_std.io_time(),
            "opt {} vs std {} io seconds",
            c_opt.io_time(),
            c_std.io_time()
        );
    }

    #[test]
    fn empty_k_returns_empty() {
        let ds = random_ds(100, 3, 15);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 512);
        assert!(tree
            .run(&mut clock, &Query::knn(&[0.5, 0.5, 0.5], 0))
            .expect("valid query")
            .is_empty());
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let ds = random_ds(50, 3, 16);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 512);
        let got = tree
            .run(&mut clock, &Query::knn(&[0.5, 0.5, 0.5], 500))
            .expect("valid query")
            .into_ranked()
            .0;
        assert_eq!(got.len(), 50);
    }

    #[test]
    fn maximum_metric_nearest() {
        let ds = random_ds(700, 5, 17);
        let mut clock = SimClock::default();
        let tree = crate::IqTree::build(
            &ds,
            Metric::Maximum,
            IqTreeOptions::default(),
            || Box::new(iq_storage::MemDevice::new(1024)),
            &mut clock,
        );
        let q = vec![0.6f32; 5];
        let (_, d) = tree
            .run(&mut clock, &Query::knn(&q, 1))
            .expect("valid query")
            .into_ranked()
            .0[0];
        let expect = (0..ds.len())
            .map(|i| Metric::Maximum.distance(ds.point(i), &q))
            .fold(f64::INFINITY, f64::min);
        assert!((d - expect).abs() < 1e-6);
    }

    #[test]
    fn query_trace_reports_work() {
        let ds = random_ds(3_000, 8, 19);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let q = vec![0.5f32; 8];
        let (results, trace) = tree
            .run(&mut clock, &Query::knn(&q, 3))
            .expect("valid query")
            .into_ranked();
        assert_eq!(results.len(), 3);
        assert!(trace.pages_processed >= 1);
        assert!(trace.runs >= 1);
        assert!(trace.runs <= clock.stats().seeks + 1);
        // With quantized pages, some approximations must have been
        // enqueued, and the NN itself requires at least one refinement
        // unless its page was exact.
        let any_quantized = tree.pages().iter().any(|p| p.g < 32);
        if any_quantized {
            assert!(trace.approx_enqueued > 0);
        }
        // Trace is consistent with the page universe.
        assert!(trace.pages_processed + trace.pages_skipped <= tree.num_pages() as u64);
    }

    #[test]
    fn standard_mode_traces_one_run_per_page() {
        let ds = random_ds(2_000, 6, 20);
        let opts = IqTreeOptions {
            scheduled_io: false,
            ..Default::default()
        };
        let (tree, mut clock) = build_tree(&ds, opts, 1024);
        let (_, trace) = tree
            .run(&mut clock, &Query::knn(&[0.3f32; 6], 1))
            .expect("valid query")
            .into_ranked();
        assert_eq!(
            trace.runs, trace.pages_processed,
            "one random read per page"
        );
        assert_eq!(trace.pages_skipped, 0);
    }

    #[test]
    fn knn_phase_times_cover_total_query_cost() {
        let ds = random_ds(3_000, 8, 21);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let (results, _) = tree
            .run(&mut clock, &Query::knn(&[0.4f32; 8], 5))
            .expect("valid query")
            .into_ranked();
        assert_eq!(results.len(), 5);
        let phases = clock.phase_times();
        // Every charge inside knn_traced happens inside an open phase, so
        // the per-phase sim times account for the whole query exactly.
        let total = clock.total_time();
        assert!(total > 0.0);
        assert!(
            (phases.total_sim() - total).abs() <= 1e-12 * total.max(1.0),
            "phases {} vs clock {total}",
            phases.total_sim()
        );
        // The level-2 filter did real work, and so did the directory sweep.
        assert!(phases.sim[iq_obs::Phase::Directory.index()] > 0.0);
        assert!(phases.sim[iq_obs::Phase::Filter.index()] > 0.0);
    }

    #[test]
    fn window_and_range_phase_times_cover_total_cost() {
        let ds = random_ds(1_500, 4, 22);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 512);
        tree.run(
            &mut clock,
            &Query::Range {
                point: &[0.5f32; 4],
                radius: 0.25,
            },
        )
        .expect("valid query")
        .ids();
        let total = clock.total_time();
        assert!(total > 0.0);
        assert!((clock.phase_times().total_sim() - total).abs() <= 1e-12 * total);
        clock.reset();
        let w = iq_geometry::Mbr::from_bounds(vec![0.2; 4], vec![0.6; 4]);
        tree.run(&mut clock, &Query::Window(&w))
            .expect("valid query")
            .ids();
        let total = clock.total_time();
        assert!(total > 0.0);
        assert!((clock.phase_times().total_sim() - total).abs() <= 1e-12 * total);
    }

    #[test]
    fn cost_prediction_is_sane() {
        let ds = random_ds(2_000, 8, 23);
        let (tree, _) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let disk = iq_storage::DiskModel::default();
        let base = tree.predict_knn_cost(&disk, 1).pages;
        for k in [1usize, 5, 25] {
            let p = tree.predict_knn_cost(&disk, k);
            assert!(p.pages >= base, "k={k}");
            assert!(p.pages >= 1.0 && p.pages <= tree.num_pages() as f64);
            assert!(p.io_seconds.is_finite() && p.io_seconds > 0.0);
        }
        // The trait hook reports the same pages as the inherent method on
        // the default disk.
        let via_trait = AccessMethod::cost_prediction(&tree, 5, &QueryOptions::EXACT)
            .expect("iq-tree has a model");
        assert_eq!(via_trait.pages, tree.predict_knn_cost(&disk, 5).pages);

        // Knobs cap the prediction from their respective sides.
        let opts = QueryOptions {
            nprobes: Some(2),
            refine_factor: 2,
            time_budget: Some(1e-4),
            ..QueryOptions::EXACT
        };
        let capped = tree.predict_knn_cost_opts(&disk, 25, &opts);
        let exact = tree.predict_knn_cost(&disk, 25);
        assert!(capped.pages <= exact.pages.min(2.0));
        assert!(capped.io_seconds <= exact.io_seconds.min(1e-4));
    }

    /// Refinements land on the pages the query reads: with more than one
    /// expected refinement per read page, several share an exact block,
    /// and the predicted refinement I/O falls below one random access
    /// per refinement.
    #[test]
    fn predicted_refinements_share_blocks_on_read_pages() {
        let ds = random_ds(20_000, 8, 29);
        let (tree, _) = build_tree(&ds, IqTreeOptions::default(), 4096);
        let disk = iq_storage::DiskModel::default();
        let n = tree.pages().iter().filter(|p| p.count > 0).count();
        for k in [100usize, 400] {
            let pred = tree.predict_knn_cost(&disk, k);
            assert!(pred.refine_pages > pred.pages, "k={k}: {pred:?}");
            let refine_io = pred.io_seconds
                - iq_cost::first_level_cost(tree.dir_params(), &disk, n)
                - iq_cost::directory::second_level_cost_for_k(&disk, n, pred.pages);
            let random = pred.refine_pages * (disk.t_seek + disk.t_xfer);
            assert!(
                refine_io > 0.0 && refine_io < random,
                "k={k}: {refine_io} vs {random}"
            );
        }
    }

    /// Sorts by (distance bits, id) so tied distances compare stably
    /// across paths that break ties differently.
    fn canon(mut hits: Vec<(u32, f64)>) -> Vec<(u64, u32)> {
        let mut keyed: Vec<(u64, u32)> = hits.drain(..).map(|(id, d)| (d.to_bits(), id)).collect();
        keyed.sort_unstable();
        keyed
    }

    #[test]
    fn multi_query_knn_matches_single_query_path() {
        let ds = random_ds(2_500, 6, 31);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let mut rng = StdRng::seed_from_u64(77);
        let queries: Vec<Vec<f32>> = (0..7)
            .map(|_| (0..6).map(|_| rng.gen()).collect())
            .collect();
        let mut mc = SimClock::default();
        let multi = multi(&tree, &mut mc, &queries, 9, None, QueryOptions::EXACT);
        assert_eq!(multi.len(), queries.len());
        for (q, (got, trace)) in queries.iter().zip(&multi) {
            let want = tree
                .run(&mut clock, &Query::knn(q, 9))
                .expect("valid query")
                .into_ranked()
                .0;
            assert_eq!(canon(got.clone()), canon(want), "distances must be exact");
            assert!(trace.pages_processed >= 1);
        }
        // The shared walk reads each page at most once for the whole
        // batch: summed runs cannot exceed the page universe.
        let runs: u64 = multi.iter().map(|(_, t)| t.runs).sum();
        assert!(runs <= tree.num_pages() as u64);
    }

    #[test]
    fn multi_query_knn_respects_filter() {
        let ds = random_ds(1_200, 5, 33);
        let (tree, _) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let filter = Filter::from_fn(ds.len(), |id| id % 3 == 0);
        let queries = [vec![0.3f32; 5], vec![0.7f32; 5], vec![0.1f32; 5]];
        let mut mc = SimClock::default();
        let multi = multi(
            &tree,
            &mut mc,
            &queries,
            6,
            Some(&filter),
            QueryOptions::EXACT,
        );
        for (q, (got, _)) in queries.iter().zip(&multi) {
            assert!(got.iter().all(|&(id, _)| id % 3 == 0));
            let mut sc = SimClock::default();
            let want = tree
                .run(
                    &mut sc,
                    &Query::Knn {
                        point: q,
                        k: 6,
                        filter: Some(&filter),
                        opts: QueryOptions::EXACT,
                    },
                )
                .expect("valid query")
                .into_ranked()
                .0;
            assert_eq!(canon(got.clone()), canon(want));
        }
    }

    #[test]
    fn a_lone_knn_query_in_a_mixed_batch_is_charged_as_run() {
        // One valid k-NN query among a rejected one, a range and a window
        // has no other k-NN query to share reads with: it must plan its
        // page runs as it does alone, and every query costs what `run` does.
        let ds = random_ds(2_500, 6, 39);
        let (tree, _) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let q = [0.4f32; 6];
        let short = [0.4f32; 5];
        let w = iq_geometry::Mbr::from_bounds(vec![0.3; 6], vec![0.5; 6]);
        let queries = [
            Query::knn(&short, 5),
            Query::Range {
                point: &q,
                radius: 0.2,
            },
            Query::knn(&q, 9),
            Query::Window(&w),
        ];
        let mut mc = SimClock::default();
        let got = tree.run_batch(&mut mc, &queries);
        let mut sc = SimClock::default();
        for (query, got) in queries.iter().zip(&got) {
            let mut c = SimClock::default();
            let want = tree.run(&mut c, query);
            sc.absorb(&c);
            assert_eq!(*got, want, "{query:?}");
        }
        assert!(got[0].is_err() && got[2].is_ok());
        assert_eq!(mc.stats(), sc.stats());
        assert_eq!(mc.total_time(), sc.total_time());
    }

    #[test]
    fn approximate_micro_batch_matches_solo_runs_and_shares_reads() {
        let ds = random_ds(2_500, 6, 37);
        // A lone query on a scheduled tree spends `nprobes` and ε on the
        // page runs it plans around the pivot; a batched query plans none.
        // Without runs the two walks are the same, so only the shared
        // reads can tell them apart — and they must not change an answer.
        let opts = IqTreeOptions {
            scheduled_io: false,
            ..Default::default()
        };
        let (tree, _) = build_tree(&ds, opts, 1024);
        let mut rng = StdRng::seed_from_u64(79);
        let queries: Vec<Vec<f32>> = (0..8)
            .map(|_| (0..6).map(|_| rng.gen()).collect())
            .collect();
        for opts in [
            QueryOptions {
                nprobes: Some(4),
                refine_factor: 2,
                ..QueryOptions::EXACT
            },
            QueryOptions {
                epsilon: 0.5,
                ..QueryOptions::EXACT
            },
        ] {
            let (mut solo_blocks, mut solo_runs, mut batch_runs) = (0, 0, 0);
            let mut mc = SimClock::default();
            let multi = multi(&tree, &mut mc, &queries, 10, None, opts);
            for (q, (got, trace)) in queries.iter().zip(&multi) {
                let mut sc = SimClock::default();
                let (want, solo) = tree
                    .run(
                        &mut sc,
                        &Query::Knn {
                            point: q,
                            k: 10,
                            filter: None,
                            opts,
                        },
                    )
                    .expect("valid query")
                    .into_ranked();
                assert_eq!(*got, want, "{opts:?}");
                solo_blocks += sc.stats().blocks_read;
                solo_runs += solo.runs;
                batch_runs += trace.runs;
            }
            assert!(
                mc.stats().blocks_read < solo_blocks,
                "{opts:?}: batch read {} blocks, solo runs {solo_blocks}",
                mc.stats().blocks_read
            );
            // Level-2 pages, not just the directory, are shared.
            assert!(batch_runs < solo_runs, "{opts:?}");
        }
    }

    #[test]
    fn approximate_batches_on_a_scheduled_tree_keep_solo_recall() {
        use iq_engine::run_threaded;
        // The default tree plans page runs for a lone query and none for a
        // batched one, so under `nprobes` or ε the two may return different
        // answers. The batched answers must be at least as good.
        let w = iq_data::Workload::generate(4_000, 64, |n| iq_data::cad_like(8, n, 4242));
        let (tree, _) = build_tree(&w.db, IqTreeOptions::default(), 1024);
        let queries: Vec<Vec<f32>> = w.queries.iter().map(<[f32]>::to_vec).collect();
        let k = 10;
        let truth: Vec<Vec<(u32, f64)>> = queries.iter().map(|q| brute_knn(&w.db, q, k)).collect();
        let hits = |got: &[(u32, f64)], want: &[(u32, f64)]| {
            got.iter()
                .filter(|(id, _)| want.iter().any(|(w, _)| w == id))
                .count()
        };
        for opts in [
            QueryOptions {
                nprobes: Some(4),
                refine_factor: 2,
                ..QueryOptions::EXACT
            },
            QueryOptions {
                epsilon: 0.5,
                ..QueryOptions::EXACT
            },
        ] {
            let mut clock = SimClock::default();
            let batch: Vec<Query> = queries
                .iter()
                .map(|q| Query::Knn {
                    point: q,
                    k,
                    filter: None,
                    opts,
                })
                .collect();
            let batched: Vec<TracedResult> = run_threaded(&tree, &mut clock, &batch, 2)
                .into_iter()
                .map(|r| r.expect("valid query").into_ranked())
                .collect();
            let (mut batch_hits, mut solo_hits) = (0, 0);
            for ((q, want), (got, _)) in queries.iter().zip(&truth).zip(&batched) {
                let mut sc = SimClock::default();
                let (solo, _) = tree
                    .run(
                        &mut sc,
                        &Query::Knn {
                            point: q,
                            k,
                            filter: None,
                            opts,
                        },
                    )
                    .expect("valid query")
                    .into_ranked();
                batch_hits += hits(got, want);
                solo_hits += hits(&solo, want);
                assert_eq!(got.len(), k);
                if opts.epsilon > 0.0 {
                    for (g, t) in got.iter().zip(want) {
                        assert!(g.1 <= (1.0 + opts.epsilon) * t.1 + 1e-9, "{opts:?}");
                    }
                }
            }
            assert!(
                batch_hits >= solo_hits,
                "{opts:?}: {batch_hits} < {solo_hits}"
            );
        }
    }

    #[test]
    fn multi_query_knn_k_larger_than_n_returns_all() {
        let ds = random_ds(60, 3, 35);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 512);
        let queries = [vec![0.2f32; 3], vec![0.8f32; 3]];
        let multi = multi(&tree, &mut clock, &queries, 500, None, QueryOptions::EXACT);
        for (got, _) in &multi {
            assert_eq!(got.len(), 60);
        }
    }

    #[test]
    fn query_cost_is_deterministic() {
        let ds = random_ds(2_000, 8, 18);
        let q = vec![0.42f32; 8];
        let (t1, mut c1) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let (t2, mut c2) = build_tree(&ds, IqTreeOptions::default(), 1024);
        t1.run(&mut c1, &Query::knn(&q, 1)).expect("valid query");
        t2.run(&mut c2, &Query::knn(&q, 1)).expect("valid query");
        assert_eq!(c1.io_time(), c2.io_time());
        assert_eq!(c1.stats(), c2.stats());
    }
}
