//! Cost-model-vs-observed validation (the `iq-obs` [`CostAudit`] in its
//! intended role): on uniform data — the regime the paper's formulas are
//! derived for — the predicted number of second-level page accesses
//! (eqs 16–18) must track what real queries report in their
//! [`iq_engine::QueryTrace`].
//!
//! The model is an order-of-magnitude instrument, not a simulator: it
//! assumes cubical pages of identical volume, query-follows-data and a
//! sharp pruning sphere, while the real search prunes adaptively page by
//! page. The documented acceptance band is therefore a factor: the mean
//! observed page count must lie within `TOLERANCE_FACTOR`× of the
//! prediction, in both directions, for every tested `k`.

use iq_engine::{AccessMethod, Query};
use iq_geometry::{Dataset, Metric};
use iq_obs::CostAudit;
use iq_storage::{CpuModel, DiskModel, MemDevice, SimClock};
use iq_tree::{IqTree, IqTreeOptions};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Documented tolerance: observed mean within a factor 3 of the predicted
/// page-access count (|log-ratio| ≤ ln 3). See DESIGN.md, "Observability".
const TOLERANCE_FACTOR: f64 = 3.0;

fn uniform_ds(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::new(dim);
    let mut row = vec![0.0f32; dim];
    for _ in 0..n {
        row.fill_with(|| rng.gen());
        ds.push(&row);
    }
    ds
}

#[test]
fn predicted_page_accesses_track_observed_on_uniform_data() {
    let dim = 8;
    let ds = uniform_ds(8_000, dim, 77);
    let disk = DiskModel::default();
    let mut clock = SimClock::new(disk, CpuModel::free());
    let tree = IqTree::build(
        &ds,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || Box::new(MemDevice::new(1024)),
        &mut clock,
    );

    let mut audit = CostAudit::new();
    let mut rng = StdRng::seed_from_u64(4242);
    for k in [1usize, 5, 20] {
        let predicted = tree.predict_knn_cost(&disk, k);
        let queries = 30;
        let mut observed_pages = 0.0;
        for _ in 0..queries {
            let q: Vec<f32> = (0..dim).map(|_| rng.gen()).collect();
            let mut c = SimClock::new(disk, CpuModel::free());
            let (results, trace) = tree
                .run(&mut c, &Query::knn(&q, k))
                .expect("valid query")
                .into_ranked();
            assert_eq!(results.len(), k);
            observed_pages += trace.pages_processed as f64;
        }
        let mean_observed = observed_pages / queries as f64;
        audit.record(&format!("pages_k{k}"), predicted.pages, mean_observed);
    }

    println!("{}", audit.report());
    for k in [1usize, 5, 20] {
        let name = format!("pages_k{k}");
        let s = audit.summary(&name).expect("series recorded");
        let ratio = s.obs_mean / s.pred_mean;
        println!(
            "k={k}: predicted {:.1} pages, observed {:.1} (ratio {ratio:.2})",
            s.pred_mean, s.obs_mean
        );
        assert!(
            (1.0 / TOLERANCE_FACTOR..=TOLERANCE_FACTOR).contains(&ratio),
            "k={k}: observed/predicted ratio {ratio:.2} outside the \
             documented {TOLERANCE_FACTOR}x band \
             (predicted {:.1}, observed {:.1})",
            s.pred_mean,
            s.obs_mean,
        );
    }
}
