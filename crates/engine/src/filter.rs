//! Attribute filters and paginated k-NN — the query shapes modern vector
//! stores serve (cf. the Lance query pipeline): "give me the k nearest
//! neighbors *among the rows matching this predicate*, then slice the
//! answer with `limit`/`offset`".
//!
//! A [`Filter`] is a precompiled id-bitset: predicate evaluation happens
//! once, against the attribute table, before the search starts; the search
//! itself only asks `matches(id)` in its hot loops. `k` counts results
//! *after* filtering (the Lance ≥ 0.5.0 convention), and every engine
//! pushes the predicate into its single executor-driven search
//! ([`Query::Knn`](crate::Query::Knn)), skipping non-matching candidates
//! before any refinement I/O is spent on them.

/// A precompiled predicate over point ids: one bit per id in the indexed
/// domain `0..domain`.
///
/// Ids at or beyond the domain never match — a filter compiled against an
/// attribute table of `n` rows is safe to pass to any engine over the same
/// `n` points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Filter {
    bits: Vec<u64>,
    domain: usize,
    matching: usize,
}

impl Filter {
    /// Compiles `pred` over the id domain `0..domain`.
    pub fn from_fn(domain: usize, mut pred: impl FnMut(u32) -> bool) -> Self {
        let mut bits = vec![0u64; domain.div_ceil(64)];
        let mut matching = 0usize;
        for id in 0..domain {
            if pred(id as u32) {
                bits[id / 64] |= 1u64 << (id % 64);
                matching += 1;
            }
        }
        Self {
            bits,
            domain,
            matching,
        }
    }

    /// A filter matching exactly the given ids (out-of-domain ids are
    /// ignored).
    pub fn from_ids(domain: usize, ids: impl IntoIterator<Item = u32>) -> Self {
        let mut bits = vec![0u64; domain.div_ceil(64)];
        let mut matching = 0usize;
        for id in ids {
            let id = id as usize;
            if id < domain {
                let (w, m) = (id / 64, 1u64 << (id % 64));
                if bits[w] & m == 0 {
                    bits[w] |= m;
                    matching += 1;
                }
            }
        }
        Self {
            bits,
            domain,
            matching,
        }
    }

    /// Whether `id` satisfies the predicate.
    #[inline]
    pub fn matches(&self, id: u32) -> bool {
        let id = id as usize;
        id < self.domain && self.bits[id / 64] & (1u64 << (id % 64)) != 0
    }

    /// Size of the id domain the filter was compiled over.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Number of matching ids.
    pub fn matching(&self) -> usize {
        self.matching
    }

    /// Fraction of the domain that matches (`0.0` for an empty domain).
    pub fn selectivity(&self) -> f64 {
        if self.domain == 0 {
            0.0
        } else {
            self.matching as f64 / self.domain as f64
        }
    }
}

/// Pagination of a filtered k-NN result, with the Lance semantics: `k` is
/// the number of post-filter neighbors the search computes exactly;
/// `offset`/`limit` then slice that list. Re-running the same `(q, k,
/// filter)` yields the same list, so disjoint `offset` windows paginate
/// without overlap or gaps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageSpec {
    /// Post-filter neighbors to compute (the pagination universe).
    pub k: usize,
    /// Rows to skip from the front of the computed list.
    pub offset: usize,
    /// Maximum rows to return after the skip (`None` = all remaining).
    pub limit: Option<usize>,
}

impl PageSpec {
    /// Plain top-k: no offset, no limit.
    pub fn top(k: usize) -> Self {
        Self {
            k,
            offset: 0,
            limit: None,
        }
    }

    /// Slices the hits of a `k`-NN answer run with `self.k` to
    /// `[offset, offset + limit)`, after ordering them canonically
    /// (ascending distance, ties by ascending id — engines may break
    /// exact-distance ties differently, so pagination must not depend on
    /// their internal order). Re-running the same query, exact or under
    /// the same approximation knobs, yields the same list, so disjoint
    /// `offset` windows tile it without overlap or gaps.
    pub fn slice(&self, mut hits: Vec<(u32, f64)>) -> Vec<(u32, f64)> {
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        hits.into_iter()
            .skip(self.offset)
            .take(self.limit.unwrap_or(usize::MAX))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_matches() {
        let f = Filter::from_fn(130, |id| id % 3 == 0);
        assert_eq!(f.domain(), 130);
        assert_eq!(f.matching(), 44);
        assert!(f.matches(0));
        assert!(f.matches(129));
        assert!(!f.matches(1));
        assert!(!f.matches(130), "out of domain never matches");
        assert!(!f.matches(1_000_000));
    }

    #[test]
    fn from_ids_dedups_and_clips() {
        let f = Filter::from_ids(10, [3u32, 3, 7, 42]);
        assert_eq!(f.matching(), 2);
        assert!(f.matches(3));
        assert!(f.matches(7));
        assert!(!f.matches(42));
    }

    #[test]
    fn selectivity() {
        let f = Filter::from_fn(100, |id| id < 25);
        assert!((f.selectivity() - 0.25).abs() < 1e-12);
        assert_eq!(Filter::from_fn(0, |_| true).selectivity(), 0.0);
    }
}
