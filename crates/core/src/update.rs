//! Dynamic maintenance: inserts and deletes (Section 6 of the paper).
//!
//! Inserts descend the flat directory by least volume enlargement. On a
//! quantized-page overflow the paper's question — "whether to split the
//! page or to quantize it at coarser granularity" — is decided by the cost
//! model: the variable (refinement) cost of the coarsened page is compared
//! with that of the two split halves plus the constant cost of one more
//! partition, and the cheaper alternative wins.
//!
//! Exact regions are relocated (appended) when they grow; the blocks they
//! leave behind are tracked in [`IqTree::wasted_exact_blocks`] and
//! reclaimed by a rebuild or a [`IqTree::checkpoint`].
//!
//! With a WAL attached every mutation is one transaction: page loads
//! happen first, the new page images are staged, logged with a commit
//! frame and synced, and only then written to the level files (see
//! [`crate::durability`]). Without a WAL the writes go straight to the
//! devices — the pre-WAL behavior, durable only between operations.

use crate::{IqTree, PageMeta};
use iq_cost::directory;
use iq_geometry::{block_aligned_order, split_in_place, Mbr};
use iq_quantize::EXACT_BITS;
use iq_storage::{IqError, IqResult, SimClock};
use iq_wal::{Level, WalRecord};

/// A fully materialized page during an update or an export: ids plus
/// exact coordinates.
pub(crate) struct LoadedPage {
    pub(crate) ids: Vec<u32>,
    pub(crate) coords: Vec<f32>, // len × dim
}

impl LoadedPage {
    fn point(&self, i: usize, dim: usize) -> &[f32] {
        &self.coords[i * dim..(i + 1) * dim]
    }

    fn mbr(&self, dim: usize) -> Mbr {
        Mbr::of_points(dim, self.coords.chunks_exact(dim))
    }
}

/// A page's new images, encoded once for [`IqTree::store_page`] and
/// [`IqTree::append_page`].
struct PageImage {
    mbr: Mbr,
    /// The quantized block.
    quant: Vec<u8>,
    /// Below [`EXACT_BITS`]: the exact region and its length in blocks.
    exact: Option<(Vec<u8>, u32)>,
}

impl IqTree {
    /// Loads ids and exact coordinates of every point in a page.
    ///
    /// Any unreadable or undecodable block surfaces as a typed error; the
    /// calling operation aborts without having touched the files.
    pub(crate) fn load_page(&self, clock: &mut SimClock, idx: usize) -> IqResult<LoadedPage> {
        let block = self.pages()[idx].quant_block;
        let bytes = iq_storage::read_to_vec_retry(self.quant_dev(), clock, block, 1)?;
        let view = self.codec().try_view(&bytes)?;
        let dim = self.dim();
        let ids: Vec<u32> = (0..view.len()).map(|i| view.id(i)).collect();
        let mut coords = Vec::with_capacity(view.len() * dim);
        if view.bits() == EXACT_BITS {
            view.for_each_point(&mut Vec::new(), |_, p| coords.extend_from_slice(p));
        } else {
            self.for_each_exact_entry(clock, idx, |entry| {
                let (id, point) = entry?;
                let slot = coords.len() / dim;
                debug_assert_eq!(Some(&id), ids.get(slot), "levels 2 and 3 agree on ids");
                coords.extend_from_slice(point);
                Ok(())
            })?;
            if coords.len() != ids.len() * dim {
                return Err(IqError::Decode {
                    detail: format!(
                        "exact region of page {idx} holds {} point(s), its quantized block {}",
                        coords.len() / dim,
                        ids.len()
                    ),
                });
            }
        }
        Ok(LoadedPage { ids, coords })
    }

    /// The new images of `page` at `g` bits. A quantized page stores its
    /// entries in the block-aligned order every page encoder writes.
    fn encode_page(&self, page: &LoadedPage, g: u32) -> PageImage {
        let dim = self.dim();
        let mbr = page.mbr(dim);
        let quantized = g < EXACT_BITS;
        let mut order: Vec<u32> = (0..page.ids.len() as u32).collect();
        if quantized {
            block_aligned_order(
                &mut order,
                &mbr,
                self.exact_codec().entry_bytes(),
                self.block_size(),
                |i| page.point(i as usize, dim),
            );
        }
        let entries = || {
            order
                .iter()
                .map(|&i| (page.ids[i as usize], page.point(i as usize, dim)))
        };
        let quant = self.codec().encode(&mbr, g, entries());
        let exact = quantized.then(|| {
            let bytes = self.exact_codec().encode(entries());
            let nblocks = bytes.len().div_ceil(self.block_size()) as u32;
            (bytes, nblocks)
        });
        PageImage { mbr, quant, exact }
    }

    /// Writes a page's quantized block (in place) and exact region
    /// (appended when it grows or moves), updating the directory entry.
    fn store_page(
        &mut self,
        clock: &mut SimClock,
        idx: usize,
        page: &LoadedPage,
        g: u32,
    ) -> IqResult<()> {
        let PageImage { mbr, quant, exact } = self.encode_page(page, g);
        let old = self.pages()[idx].clone();
        let quant_block = old.quant_block;
        self.dev_write(clock, Level::Quant, quant_block, &quant)?;

        let (exact_start, exact_blocks) = match exact {
            Some((mut bytes, nblocks)) if nblocks == old.exact_blocks && old.g < EXACT_BITS => {
                // Same footprint: overwrite in place.
                bytes.resize(nblocks as usize * self.block_size(), 0);
                self.dev_write(clock, Level::Exact, old.exact_start, &bytes)?;
                (old.exact_start, nblocks)
            }
            Some((bytes, nblocks)) => {
                self.waste_exact(u64::from(old.exact_blocks));
                (self.dev_append(clock, Level::Exact, &bytes)?, nblocks)
            }
            None => {
                self.waste_exact(u64::from(old.exact_blocks));
                (0, 0)
            }
        };

        self.set_page_meta(
            idx,
            PageMeta {
                mbr,
                g,
                count: page.ids.len() as u32,
                quant_block,
                exact_start,
                exact_blocks,
            },
        );
        self.patch_dir_entry(clock, idx)
    }

    /// Appends a brand-new page (quantized block + exact region + directory
    /// entry).
    fn append_page(&mut self, clock: &mut SimClock, page: &LoadedPage, g: u32) -> IqResult<()> {
        let PageImage { mbr, quant, exact } = self.encode_page(page, g);
        let quant_block = self.dev_append(clock, Level::Quant, &quant)?;
        let (exact_start, exact_blocks) = match exact {
            Some((bytes, nblocks)) => (self.dev_append(clock, Level::Exact, &bytes)?, nblocks),
            None => (0, 0),
        };
        self.push_page_meta(PageMeta {
            mbr,
            g,
            count: page.ids.len() as u32,
            quant_block,
            exact_start,
            exact_blocks,
        });
        let idx = self.pages().len() - 1;
        self.patch_dir_entry(clock, idx)
    }

    /// Inserts a point with the given id.
    ///
    /// With a WAL attached the insert is atomic: it is either durably
    /// applied or (on any error) has no effect at all. Without one, an
    /// error can leave the on-disk files mid-operation.
    ///
    /// # Panics
    /// Panics if the tree is empty (build it with at least one point) or
    /// the dimensionality mismatches.
    pub fn insert(&mut self, clock: &mut SimClock, id: u32, p: &[f32]) -> IqResult<()> {
        assert_eq!(p.len(), self.dim(), "point dimensionality mismatch");
        assert!(!self.pages().is_empty(), "insert requires a built tree");
        self.ensure_writable()?;
        self.begin_txn(WalRecord::Insert {
            id: u64::from(id),
            point: p.iter().map(|&c| f64::from(c)).collect(),
        });
        match self.insert_inner(clock, id, p) {
            Ok(()) => self.commit_txn(clock),
            Err(e) => {
                self.abort_txn();
                Err(e)
            }
        }
    }

    fn insert_inner(&mut self, clock: &mut SimClock, id: u32, p: &[f32]) -> IqResult<()> {
        // Choose the non-empty page whose MBR needs least enlargement
        // (cleared pages keep a stale MBR and must never be chosen).
        let idx = self
            .pages()
            .iter()
            .enumerate()
            .filter(|(_, m)| m.count > 0)
            .min_by(|(_, a), (_, b)| {
                let ea = a.mbr.enlargement_for_point(p);
                let eb = b.mbr.enlargement_for_point(p);
                ea.partial_cmp(&eb)
                    .expect("no NaN")
                    .then_with(|| a.mbr.volume().partial_cmp(&b.mbr.volume()).expect("no NaN"))
            })
            .map(|(i, _)| i);
        clock.charge_dist_evals(self.dim(), self.pages().len() as u64);
        // All pages cleared (tree emptied by deletes): revive the first
        // page slot with a fresh single-point page.
        let Some(idx) = idx else {
            let page = LoadedPage {
                ids: vec![id],
                coords: p.to_vec(),
            };
            self.store_page(clock, 0, &page, iq_quantize::EXACT_BITS.min(32))?;
            self.bump_len(1);
            return Ok(());
        };

        let mut page = self.load_page(clock, idx)?;
        page.ids.push(id);
        page.coords.extend_from_slice(p);
        self.bump_len(1);

        let g = self.pages()[idx].g;
        if page.ids.len() <= self.codec().capacity(g) {
            // Fits at the current resolution: re-encode (the MBR and hence
            // the grid may have grown).
            return self.store_page(clock, idx, &page, g);
        }

        // Overflow: split or coarsen, whichever the model prefers
        // (Section 6).
        let dim = self.dim();
        let disk = *clock.disk();
        let refine = *self.refine_params();
        let dirp = *self.dir_params();
        let n_pages = self.pages().len();

        let mbr = page.mbr(dim);
        let coarse_g = self.codec().max_bits_for(page.ids.len());
        let coarsen_cost = coarse_g
            .map(|cg| iq_cost::refinement_cost(&refine, &disk, &mbr.sides(), page.ids.len(), cg));

        // Tentative median split, over slot indices.
        let mut order: Vec<u32> = (0..page.ids.len() as u32).collect();
        let mid = order.len() / 2;
        split_in_place(&mut order, mid, &mbr, |i| page.point(i as usize, dim));
        let take = |slots: &[u32]| -> LoadedPage {
            LoadedPage {
                ids: slots.iter().map(|&i| page.ids[i as usize]).collect(),
                coords: slots
                    .iter()
                    .flat_map(|&i| page.point(i as usize, dim).iter().copied())
                    .collect(),
            }
        };
        let left = take(&order[..mid]);
        let right = take(&order[mid..]);
        let lg = self
            .codec()
            .max_bits_for(left.ids.len())
            .expect("half fits");
        let rg = self
            .codec()
            .max_bits_for(right.ids.len())
            .expect("half fits");
        let split_cost =
            iq_cost::refinement_cost(&refine, &disk, &left.mbr(dim).sides(), left.ids.len(), lg)
                + iq_cost::refinement_cost(
                    &refine,
                    &disk,
                    &right.mbr(dim).sides(),
                    right.ids.len(),
                    rg,
                )
                + (directory::constant_cost(&dirp, &disk, n_pages + 1)
                    - directory::constant_cost(&dirp, &disk, n_pages));

        match coarsen_cost {
            Some(cc) if cc <= split_cost => {
                let cg = coarse_g.expect("some");
                self.note_record(WalRecord::Requantize {
                    page: idx as u64,
                    g: cg,
                });
                self.store_page(clock, idx, &page, cg)
            }
            _ => {
                self.note_record(WalRecord::Split {
                    page: idx as u64,
                    new_page: self.pages().len() as u64,
                });
                self.store_page(clock, idx, &left, lg)?;
                self.append_page(clock, &right, rg)
            }
        }
    }

    /// Deletes the point `id` located at `p`. Returns `true` if it was
    /// found and removed.
    ///
    /// A page left under a quarter of its 1-bit capacity is merged into the
    /// neighboring page whose MBR needs least enlargement, when the
    /// combined population still fits a page and the cost model prefers the
    /// merged configuration (the paper's "undo the split" maintenance,
    /// Section 6).
    ///
    /// With a WAL attached the delete is atomic (all-or-nothing), like
    /// [`IqTree::insert`].
    pub fn delete(&mut self, clock: &mut SimClock, id: u32, p: &[f32]) -> IqResult<bool> {
        assert_eq!(p.len(), self.dim(), "point dimensionality mismatch");
        self.ensure_writable()?;
        let candidates: Vec<usize> = self
            .pages()
            .iter()
            .enumerate()
            .filter(|(_, m)| m.count > 0 && m.mbr.contains_point(p))
            .map(|(i, _)| i)
            .collect();
        clock.charge_dist_evals(self.dim(), self.pages().len() as u64);
        // Find phase: reads only, no transaction yet (a not-found delete
        // must not log anything).
        let mut found = None;
        for idx in candidates {
            let page = self.load_page(clock, idx)?;
            if let Some(pos) = page.ids.iter().position(|&x| x == id) {
                found = Some((idx, page, pos));
                break;
            }
        }
        let Some((idx, page, pos)) = found else {
            return Ok(false);
        };
        self.begin_txn(WalRecord::Delete {
            id: u64::from(id),
            point: p.iter().map(|&c| f64::from(c)).collect(),
        });
        match self.delete_found(clock, idx, page, pos) {
            Ok(()) => {
                self.commit_txn(clock)?;
                Ok(true)
            }
            Err(e) => {
                self.abort_txn();
                Err(e)
            }
        }
    }

    fn delete_found(
        &mut self,
        clock: &mut SimClock,
        idx: usize,
        mut page: LoadedPage,
        pos: usize,
    ) -> IqResult<()> {
        page.ids.remove(pos);
        let dim = self.dim();
        page.coords.drain(pos * dim..(pos + 1) * dim);
        self.bump_len(-1);
        if page.ids.is_empty() {
            self.clear_page(clock, idx)
        } else if self.try_merge_underflow(clock, idx, &page)? {
            Ok(())
        } else {
            // The freed capacity may admit a finer resolution.
            let g = self
                .codec()
                .max_bits_for(page.ids.len())
                .expect("fewer points always fit");
            let g = g.max(self.pages()[idx].g); // never coarsen on delete
            if g != self.pages()[idx].g {
                self.note_record(WalRecord::Requantize {
                    page: idx as u64,
                    g,
                });
            }
            self.store_page(clock, idx, &page, g)
        }
    }

    /// Attempts to merge an underflowing page into its best neighbor.
    /// Returns `Ok(true)` if the merge happened (the caller must not store
    /// the page again).
    fn try_merge_underflow(
        &mut self,
        clock: &mut SimClock,
        idx: usize,
        page: &LoadedPage,
    ) -> IqResult<bool> {
        let underflow = self.codec().capacity(1) / 4;
        if page.ids.len() >= underflow.max(1) {
            return Ok(false);
        }
        let dim = self.dim();
        let my_mbr = page.mbr(dim);
        // Best partner: least enlargement of the union MBR, combined
        // population must fit a 1-bit page.
        let partner = self
            .pages()
            .iter()
            .enumerate()
            .filter(|&(j, m)| {
                j != idx
                    && m.count > 0
                    && (m.count as usize + page.ids.len()) <= self.codec().capacity(1)
            })
            .min_by(|(_, a), (_, b)| {
                let grow = |m: &PageMeta| {
                    let mut u = m.mbr.clone();
                    u.extend_mbr(&my_mbr);
                    u.volume() - m.mbr.volume()
                };
                grow(a).partial_cmp(&grow(b)).expect("no NaN")
            })
            .map(|(j, _)| j);
        clock.charge_dist_evals(dim, self.pages().len() as u64);
        let Some(j) = partner else { return Ok(false) };

        // Model check: merged page at its best resolution vs the two pages
        // separately (plus one partition of constant cost).
        let disk = *clock.disk();
        let refine = *self.refine_params();
        let dirp = *self.dir_params();
        let other = self.load_page(clock, j)?;
        let mut merged = LoadedPage {
            ids: page.ids.clone(),
            coords: page.coords.clone(),
        };
        merged.ids.extend_from_slice(&other.ids);
        merged.coords.extend_from_slice(&other.coords);
        let mg = self
            .codec()
            .max_bits_for(merged.ids.len())
            .expect("checked to fit at 1 bit");
        let merged_mbr = merged.mbr(dim);
        let merged_cost =
            iq_cost::refinement_cost(&refine, &disk, &merged_mbr.sides(), merged.ids.len(), mg);
        let n_pages = self.pages().len();
        let separate_cost = iq_cost::refinement_cost(
            &refine,
            &disk,
            &my_mbr.sides(),
            page.ids.len(),
            self.codec().max_bits_for(page.ids.len()).expect("fits"),
        ) + iq_cost::refinement_cost(
            &refine,
            &disk,
            &other.mbr(dim).sides(),
            other.ids.len(),
            self.pages()[j].g,
        ) + (directory::constant_cost(&dirp, &disk, n_pages)
            - directory::constant_cost(&dirp, &disk, n_pages - 1));
        if merged_cost > separate_cost {
            return Ok(false);
        }
        // Apply: the partner page absorbs everything; this page is cleared.
        self.store_page(clock, j, &merged, mg)?;
        self.clear_page(clock, idx)?;
        Ok(true)
    }

    /// Marks a page empty (its blocks become dead space until a rebuild).
    /// The on-disk quantized block is overwritten with an empty page so no
    /// stale contents can ever be decoded.
    fn clear_page(&mut self, clock: &mut SimClock, idx: usize) -> IqResult<()> {
        let old = self.pages()[idx].clone();
        self.waste_exact(u64::from(old.exact_blocks));
        let empty = {
            let codec = *self.codec();
            codec.encode(&old.mbr, iq_quantize::EXACT_BITS, std::iter::empty())
        };
        let block = old.quant_block;
        self.dev_write(clock, Level::Quant, block, &empty)?;
        self.set_page_meta(
            idx,
            PageMeta {
                mbr: old.mbr,
                g: EXACT_BITS,
                count: 0,
                quant_block: old.quant_block,
                exact_start: 0,
                exact_blocks: 0,
            },
        );
        self.patch_dir_entry(clock, idx)
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::{build_tree, random_ds};
    use crate::IqTreeOptions;
    use iq_engine::{AccessMethod, Query};
    use iq_geometry::{Dataset, Metric};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn brute_nn(ds: &Dataset, q: &[f32]) -> f64 {
        (0..ds.len())
            .map(|i| Metric::Euclidean.distance(ds.point(i), q))
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn inserts_preserve_correctness() {
        let base = random_ds(600, 5, 21);
        let extra = random_ds(400, 5, 22);
        let (mut tree, mut clock) = build_tree(&base, IqTreeOptions::default(), 512);
        for (i, p) in extra.iter().enumerate() {
            tree.insert(&mut clock, (600 + i) as u32, p).unwrap();
        }
        assert_eq!(tree.len(), 1_000);
        let mut all = base.clone();
        for p in extra.iter() {
            all.push(p);
        }
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..10 {
            let q: Vec<f32> = (0..5).map(|_| rng.gen()).collect();
            let (_, d) = tree
                .run(&mut clock, &Query::knn(&q, 1))
                .expect("valid query")
                .into_ranked()
                .0[0];
            assert!((d - brute_nn(&all, &q)).abs() < 1e-6);
        }
        // Page invariants hold.
        let total: u32 = tree.pages().iter().map(|p| p.count).sum();
        assert_eq!(total as usize, tree.len());
    }

    #[test]
    fn overflow_splits_or_coarsens() {
        let base = random_ds(200, 4, 24);
        let (mut tree, mut clock) = build_tree(&base, IqTreeOptions::default(), 512);
        let pages_before = tree.num_pages();
        // Hammer one region so at least one page overflows repeatedly.
        let mut rng = StdRng::seed_from_u64(25);
        for i in 0..800u32 {
            let p: Vec<f32> = (0..4).map(|_| 0.25 + rng.gen::<f32>() * 0.1).collect();
            tree.insert(&mut clock, 200 + i, &p).unwrap();
        }
        assert_eq!(tree.len(), 1_000);
        assert!(
            tree.num_pages() > pages_before,
            "mass inserts must eventually split pages"
        );
    }

    #[test]
    fn delete_removes_points() {
        let ds = random_ds(500, 4, 26);
        let (mut tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 512);
        // Delete the first 100 points.
        for i in 0..100u32 {
            assert!(
                tree.delete(&mut clock, i, ds.point(i as usize)).unwrap(),
                "point {i}"
            );
        }
        assert_eq!(tree.len(), 400);
        // Deleted points no longer appear in results.
        for i in 0..20u32 {
            let got = tree
                .run(&mut clock, &Query::knn(ds.point(i as usize), 3))
                .expect("valid query")
                .into_ranked()
                .0;
            assert!(got.iter().all(|&(id, _)| id >= 100), "{got:?}");
        }
        // Deleting a non-existent point reports false.
        assert!(!tree.delete(&mut clock, 0, ds.point(0)).unwrap());
    }

    #[test]
    fn delete_everything_leaves_empty_tree() {
        let ds = random_ds(80, 3, 27);
        let (mut tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 512);
        for i in 0..80u32 {
            assert!(tree.delete(&mut clock, i, ds.point(i as usize)).unwrap());
        }
        assert!(tree.is_empty());
        assert!(tree
            .run(&mut clock, &Query::knn(&[0.5, 0.5, 0.5], 1))
            .expect("valid query")
            .into_ranked()
            .0
            .first()
            .copied()
            .is_none());
    }

    #[test]
    fn cleared_pages_never_resurrect_points() {
        // Regression: a page emptied by merge/delete keeps a stale MBR; an
        // insert choosing it must not decode its old on-disk contents.
        let ds = random_ds(300, 3, 29);
        let (mut tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 512);
        // Delete points until merges/clears happen.
        for i in 0..250u32 {
            assert!(tree.delete(&mut clock, i, ds.point(i as usize)).unwrap());
        }
        assert_eq!(tree.len(), 50);
        // Insert into the emptied regions.
        for i in 0..200u32 {
            tree.insert(&mut clock, 1_000 + i, ds.point(i as usize))
                .unwrap();
        }
        assert_eq!(tree.len(), 250);
        let total: u32 = tree.pages().iter().map(|p| p.count).sum();
        assert_eq!(total as usize, tree.len());
        // Deleted originals are really gone.
        let hits = tree
            .run(
                &mut clock,
                &Query::Range {
                    point: ds.point(0),
                    radius: 1e-9,
                },
            )
            .expect("valid query")
            .ids();
        assert!(hits.iter().all(|&id| id >= 1_000), "{hits:?}");
    }

    #[test]
    fn deletes_can_trigger_model_approved_merges() {
        // Tight cluster: merging underflowing pages should be attractive.
        let mut ds = random_ds(600, 3, 30);
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for _ in 0..600 {
            use rand::Rng;
            let p: Vec<f32> = (0..3).map(|_| 0.5 + rng.gen::<f32>() * 0.01).collect();
            ds.push(&p);
        }
        let (mut tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 512);
        let pages_before = tree.pages().iter().filter(|p| p.count > 0).count();
        for i in 0..1_000u32 {
            assert!(tree.delete(&mut clock, i, ds.point(i as usize)).unwrap());
        }
        let pages_after = tree.pages().iter().filter(|p| p.count > 0).count();
        assert!(
            pages_after < pages_before,
            "{pages_after} vs {pages_before}"
        );
        assert_eq!(tree.len(), 200);
    }

    #[test]
    fn insert_then_delete_roundtrip() {
        let ds = random_ds(300, 4, 28);
        let (mut tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 512);
        let p = vec![0.111f32, 0.222, 0.333, 0.444];
        tree.insert(&mut clock, 9_999, &p).unwrap();
        let (id, d) = tree
            .run(&mut clock, &Query::knn(&p, 1))
            .expect("valid query")
            .into_ranked()
            .0[0];
        assert_eq!(id, 9_999);
        assert!(d < 1e-6);
        assert!(tree.delete(&mut clock, 9_999, &p).unwrap());
        let (id2, _) = tree
            .run(&mut clock, &Query::knn(&p, 1))
            .expect("valid query")
            .into_ranked()
            .0[0];
        assert_ne!(id2, 9_999);
    }
}
