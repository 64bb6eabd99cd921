//! Bulk maintenance: re-optimization after updates (Section 6).
//!
//! Dynamic updates degrade the structure over time: exact regions orphaned
//! by relocations waste disk, page resolutions drift away from the cost
//! optimum ("when an update modifies the variable cost for a page, it may
//! turn out to be preferable to undo the split for this page, and to split
//! a different page instead"). [`IqTree::rebuild`] restores the global
//! optimum: it extracts all points, reruns the full construction pipeline
//! (initial partitioning + optimal quantization) and swaps in fresh files.

use crate::{IqTree, IqTreeOptions};
use iq_geometry::Dataset;
use iq_storage::{BlockDevice, IqResult, SimClock};

impl IqTree {
    /// Extracts every `(id, point)` currently stored, in page order.
    ///
    /// Reads the whole second level sequentially plus the exact regions of
    /// non-exact pages (all charged to the clock). Unreadable or
    /// undecodable blocks surface as typed errors.
    pub fn export_points(&self, clock: &mut SimClock) -> IqResult<(Vec<u32>, Dataset)> {
        let dim = self.dim();
        let mut ids = Vec::with_capacity(self.n);
        let mut points = Dataset::with_capacity(dim, self.n);
        for idx in 0..self.pages().len() {
            if self.pages()[idx].count == 0 {
                continue;
            }
            let page = self.load_page(clock, idx)?;
            ids.extend_from_slice(&page.ids);
            for p in page.coords.chunks_exact(dim) {
                points.push(p);
            }
        }
        Ok((ids, points))
    }

    /// Rebuilds the tree from its current contents: re-partitions,
    /// re-optimizes the quantization, writes fresh files (reclaiming all
    /// orphaned blocks) and replaces `self`.
    ///
    /// `make_dev` provides the three replacement devices, exactly as in
    /// [`IqTree::build`]. Stored point ids are preserved, as is an
    /// attached WAL: the rebuilt files supersede everything the log
    /// recorded, so the log is emptied and re-attached with the
    /// generation bumped.
    ///
    /// # Panics
    /// Panics if the tree is empty.
    pub fn rebuild(
        &mut self,
        clock: &mut SimClock,
        make_dev: impl FnMut() -> Box<dyn BlockDevice>,
    ) -> IqResult<()> {
        assert!(self.n > 0, "cannot rebuild an empty tree");
        self.ensure_writable()?;
        let (ids, points) = self.export_points(clock)?;
        let opts: IqTreeOptions = *self.options();
        let mut fresh = IqTree::build_with_ids(&points, &ids, self.metric(), opts, make_dev, clock);
        // The fresh files are a complete checkpoint of the data: start a
        // new generation and an empty log.
        fresh.generation = self.generation + 1;
        fresh.write_superblock(clock)?;
        if let Some(mut wal) = self.wal.take() {
            wal.reset(clock)?;
            fresh.wal = Some(wal);
        }
        *self = fresh;
        iq_obs::global().gauge("wasted_exact_blocks").set(0.0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::{build_tree, random_ds};
    use crate::IqTreeOptions;
    use iq_engine::{AccessMethod, Query};
    use iq_storage::MemDevice;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn export_returns_every_point_once() {
        let ds = random_ds(1_500, 5, 81);
        let (tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 1024);
        let (ids, points) = tree.export_points(&mut clock).unwrap();
        assert_eq!(ids.len(), 1_500);
        assert_eq!(points.len(), 1_500);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 1_500, "ids must be unique");
        // Every exported point matches the original (exact pages are
        // bit-exact; refined pages come from the exact file).
        for (&id, p) in ids.iter().zip(points.iter()) {
            assert_eq!(p, ds.point(id as usize), "id {id}");
        }
    }

    #[test]
    fn rebuild_reclaims_waste_and_preserves_answers() {
        let ds = random_ds(2_000, 4, 82);
        let (mut tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 1024);
        // Degrade with updates.
        let mut rng = StdRng::seed_from_u64(83);
        let mut extra = Vec::new();
        for i in 0..500u32 {
            let p: Vec<f32> = (0..4).map(|_| rng.gen()).collect();
            tree.insert(&mut clock, 2_000 + i, &p).unwrap();
            extra.push(p);
        }
        for i in 0..200u32 {
            assert!(tree.delete(&mut clock, i, ds.point(i as usize)).unwrap());
        }
        let wasted_before = tree.wasted_exact_blocks();
        let before: Vec<_> = (0..5)
            .map(|i| {
                tree.run(&mut clock, &Query::knn(&extra[i], 1))
                    .expect("valid query")
                    .into_ranked()
                    .0[0]
            })
            .collect();

        tree.rebuild(&mut clock, || Box::new(MemDevice::new(1024)))
            .unwrap();

        assert_eq!(tree.len(), 2_300);
        assert_eq!(tree.wasted_exact_blocks(), 0);
        let _ = wasted_before; // may be zero if no region moved, that's fine
        for (i, b) in before.iter().enumerate() {
            let a = tree
                .run(&mut clock, &Query::knn(&extra[i], 1))
                .expect("valid query")
                .into_ranked()
                .0[0];
            assert_eq!(a.0, b.0, "query {i}");
            assert!((a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn rebuild_preserves_original_ids() {
        let ds = random_ds(800, 3, 84);
        let (mut tree, mut clock) = build_tree(&ds, IqTreeOptions::default(), 512);
        tree.rebuild(&mut clock, || Box::new(MemDevice::new(512)))
            .unwrap();
        for i in (0..800).step_by(97) {
            let (id, d) = tree
                .run(&mut clock, &Query::knn(ds.point(i), 1))
                .expect("valid query")
                .into_ranked()
                .0[0];
            assert_eq!(id as usize, i);
            assert!(d < 1e-9);
        }
    }
}
