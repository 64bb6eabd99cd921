//! Seeded inputs and the correct answers, both made before any timing.

use iq_geometry::{Dataset, Metric};

/// Neighbours asked for by every query.
pub const K: usize = 10;

/// A small deterministic generator (SplitMix64) for the choices the
/// benchmark itself makes: fresh insert points and which point to delete.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 24 random bits, exactly representable.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The `k` nearest of `points` to `q` by brute force, in (distance, id)
/// order, with distances computed exactly as the index computes them
/// (`distance_key`, then `key_to_distance`).
pub fn brute_knn<'a>(
    metric: Metric,
    points: impl Iterator<Item = (u32, &'a [f32])>,
    q: &[f32],
    k: usize,
) -> Vec<(u32, f64)> {
    // The best `k` (key, id) pairs seen so far, ascending.
    let mut best: Vec<(f64, u32)> = Vec::with_capacity(k + 1);
    for (id, p) in points {
        let key = metric.distance_key(p, q);
        if best.len() == k {
            let worst = best[k - 1];
            if (key, id) >= worst {
                continue;
            }
            best.pop();
        }
        let at = best.partition_point(|&e| e < (key, id));
        best.insert(at, (key, id));
    }
    best.into_iter()
        .map(|(key, id)| (id, metric.key_to_distance(key)))
        .collect()
}

/// Brute-force answers for every query of `queries` against `db`
/// (ids are row numbers), split over `threads` threads.
pub fn truth_table(
    metric: Metric,
    db: &Dataset,
    queries: &[Vec<f32>],
    threads: usize,
) -> Vec<Vec<(u32, f64)>> {
    let mut out: Vec<Vec<(u32, f64)>> = vec![Vec::new(); queries.len()];
    let chunk = queries.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for (qs, outs) in queries.chunks(chunk).zip(out.chunks_mut(chunk)) {
            s.spawn(move || {
                for (q, o) in qs.iter().zip(outs.iter_mut()) {
                    let rows = db.iter().enumerate().map(|(i, p)| (i as u32, p));
                    *o = brute_knn(metric, rows, q, K);
                }
            });
        }
    });
    out
}

/// Whether an exact result equals the correct answer: same ids, same
/// distances bit for bit, in (distance, id) order.
pub fn exact_matches(got: &[(u32, f64)], want: &[(u32, f64)]) -> bool {
    let mut got = got.to_vec();
    got.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits())
}

/// Whether an approximate result is well formed: at most `k` distinct
/// ids, each with its true distance from `q`, in ascending distance.
pub fn approx_is_sound(metric: Metric, db: &Dataset, q: &[f32], got: &[(u32, f64)]) -> bool {
    let mut ids: Vec<u32> = got.iter().map(|h| h.0).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len() == got.len()
        && got.len() <= K
        && got.windows(2).all(|w| w[0].1 <= w[1].1)
        && got.iter().all(|&(id, d)| {
            (id as usize) < db.len()
                && metric
                    .key_to_distance(metric.distance_key(db.point(id as usize), q))
                    .to_bits()
                    == d.to_bits()
        })
}

/// Share of the correct answer's ids that `got` contains.
pub fn recall(got: &[(u32, f64)], want: &[(u32, f64)]) -> f64 {
    if want.is_empty() {
        return 1.0;
    }
    let hits = got
        .iter()
        .filter(|g| want.iter().any(|w| w.0 == g.0))
        .count();
    hits as f64 / want.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brute_knn_keeps_the_k_smallest_in_order() {
        let pts: Vec<[f32; 1]> = [5.0, 1.0, 4.0, 2.0, 3.0, 1.0].map(|x| [x]).to_vec();
        let got = brute_knn(
            Metric::Euclidean,
            pts.iter().enumerate().map(|(i, p)| (i as u32, &p[..])),
            &[0.0],
            3,
        );
        assert_eq!(got, vec![(1, 1.0), (5, 1.0), (3, 2.0)]);
    }

    #[test]
    fn exact_match_ignores_tie_order_but_not_distances() {
        let want = vec![(1, 1.0), (5, 1.0), (3, 2.0)];
        assert!(exact_matches(&[(5, 1.0), (1, 1.0), (3, 2.0)], &want));
        assert!(!exact_matches(&[(1, 1.0), (5, 1.0), (3, 2.5)], &want));
        assert!(!exact_matches(&[(1, 1.0), (5, 1.0)], &want));
    }
}
