//! One query description in, one fallible answer out.
//!
//! A [`Query`] borrows everything it names — the query point, the filter,
//! the window — so building one costs nothing, and a batch is a slice of
//! them. [`Query::validate`] is the one place a query is checked against
//! the index it runs on; a rejected query is an
//! [`IqError::InvalidQuery`], never a panic and never a silent empty
//! answer.

use crate::{Filter, QueryOptions, QueryTrace, TracedResult};
use iq_geometry::{Mbr, Metric};
use iq_storage::{IqError, IqResult};

/// One query against an [`AccessMethod`](crate::AccessMethod): the three
/// kinds the paper answers over one index.
#[derive(Clone, Copy, Debug)]
pub enum Query<'a> {
    /// The `k` nearest neighbors of `point` among the points matching
    /// `filter` (`None` = every point), under the approximation knobs in
    /// `opts` ([`QueryOptions::EXACT`] = exact). `k` counts results after
    /// filtering. Answered by the priority walk of Section 3.2.
    Knn {
        point: &'a [f32],
        k: usize,
        filter: Option<&'a Filter>,
        opts: QueryOptions,
    },
    /// Every point within `radius` (a finite distance `>= 0`) of `point`
    /// under the index metric.
    Range { point: &'a [f32], radius: f64 },
    /// Every point inside the window, bounds included.
    Window(&'a Mbr),
}

impl<'a> Query<'a> {
    /// The exact, unfiltered `k` nearest neighbors of `point`.
    pub fn knn(point: &'a [f32], k: usize) -> Self {
        Query::Knn {
            point,
            k,
            filter: None,
            opts: QueryOptions::EXACT,
        }
    }

    /// Checks the query against an index of `dim` dimensions: the point
    /// or window must have `dim` finite coordinates, a radius must be
    /// finite and `>= 0`, and the k-NN knobs must be in range (`epsilon`
    /// finite and `>= 0`, `nprobes` and `refine_factor` at least 1, a
    /// time budget `> 0`).
    pub fn validate(&self, dim: usize) -> IqResult<()> {
        let detail = match *self {
            Query::Knn { point, opts, .. } => point_fault(point, dim).or_else(|| knob_fault(&opts)),
            Query::Range { point, radius } => point_fault(point, dim).or_else(|| {
                (!radius.is_finite() || radius < 0.0)
                    .then(|| format!("radius must be finite and >= 0, got {radius}"))
            }),
            Query::Window(w) if w.dim() != dim => Some(format!(
                "window has {} dimensions, index is {dim}-d",
                w.dim()
            )),
            Query::Window(w) => w
                .lbs()
                .iter()
                .chain(w.ubs())
                .any(|x| !x.is_finite())
                .then(|| "window bounds must be finite".to_string()),
        };
        detail.map_or(Ok(()), |detail| Err(IqError::InvalidQuery { detail }))
    }
}

/// Why `point` cannot be a query point of a `dim`-d index, if it cannot.
fn point_fault(point: &[f32], dim: usize) -> Option<String> {
    if point.len() != dim {
        return Some(format!(
            "query has {} coordinates, index is {dim}-d",
            point.len()
        ));
    }
    point
        .iter()
        .any(|x| !x.is_finite())
        .then(|| "query point has a non-finite coordinate".to_string())
}

impl QueryOptions {
    /// Checks the knobs on their own, as [`Query::validate`] does for a
    /// k-NN query: `epsilon` finite and `>= 0`, `nprobes` and
    /// `refine_factor` at least 1, a time budget `> 0`.
    pub fn check(&self) -> IqResult<()> {
        knob_fault(self).map_or(Ok(()), |detail| Err(IqError::InvalidQuery { detail }))
    }
}

/// Why `opts` is out of range, if it is.
fn knob_fault(opts: &QueryOptions) -> Option<String> {
    if !opts.epsilon.is_finite() || opts.epsilon < 0.0 {
        return Some(format!(
            "epsilon must be finite and >= 0, got {}",
            opts.epsilon
        ));
    }
    if opts.nprobes == Some(0) {
        return Some("nprobes must be at least 1".to_string());
    }
    if opts.refine_factor == 0 {
        return Some("refine-factor must be at least 1".to_string());
    }
    match opts.time_budget {
        Some(b) if b.is_nan() || b <= 0.0 => Some(format!("time budget must be > 0, got {b}")),
        _ => None,
    }
}

/// The region of a range or window query, with the two
/// predicates every engine tests it by: whether a page's MBR meets it, and
/// whether a point lies in it.
#[derive(Clone, Copy, Debug)]
pub enum Region<'a> {
    /// The ball of a range query around `center`, its radius held as a
    /// `key` of the index `metric`.
    Ball {
        center: &'a [f32],
        key: f64,
        metric: Metric,
    },
    /// The box of a window query.
    Window(&'a Mbr),
}

impl Region<'_> {
    /// Whether some point of `mbr` may lie in the region.
    pub fn meets(&self, mbr: &Mbr) -> bool {
        match *self {
            Region::Ball {
                center,
                key,
                metric,
            } => metric.mindist_key(center, mbr) <= key,
            Region::Window(w) => mbr.intersects(w),
        }
    }

    /// Whether the point `p` lies in the region.
    pub fn holds(&self, p: &[f32]) -> bool {
        match *self {
            Region::Ball {
                center,
                key,
                metric,
            } => metric.distance_key(p, center) <= key,
            Region::Window(w) => w.contains_point(p),
        }
    }
}

/// The hits of an [`Answer`]: ranked for a k-NN query, bare ids for a
/// range or window query, which compute no distance they do not need.
#[derive(Clone, Debug, PartialEq)]
pub enum Hits {
    /// `(id, distance)` by increasing distance.
    Ranked(Vec<(u32, f64)>),
    /// Ids in no particular order.
    Ids(Vec<u32>),
}

/// What a query returned: its hits and the [`QueryTrace`] of what the
/// search did.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// The hits.
    pub hits: Hits,
    /// The work report.
    pub trace: QueryTrace,
}

impl Answer {
    /// The answer to a query that needs no search: no hits of the query's
    /// kind and an empty trace.
    pub(crate) fn empty(query: &Query) -> Self {
        let hits = match query {
            Query::Knn { .. } => Hits::Ranked(Vec::new()),
            _ => Hits::Ids(Vec::new()),
        };
        Self {
            hits,
            trace: QueryTrace::default(),
        }
    }

    /// Number of hits.
    pub fn len(&self) -> usize {
        match &self.hits {
            Hits::Ranked(h) => h.len(),
            Hits::Ids(h) => h.len(),
        }
    }

    /// Whether there are no hits.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The hit ids, in hit order.
    pub fn ids(&self) -> Vec<u32> {
        match &self.hits {
            Hits::Ranked(h) => h.iter().map(|&(id, _)| id).collect(),
            Hits::Ids(h) => h.clone(),
        }
    }

    /// The ranked hits and the trace of a k-NN answer.
    ///
    /// # Panics
    /// Panics on the answer to a range or window query, which carries no
    /// distances.
    pub fn into_ranked(self) -> TracedResult {
        match self.hits {
            Hits::Ranked(h) => (h, self.trace),
            Hits::Ids(_) => panic!("a range or window answer has no distances"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejected(q: Query) -> String {
        match q.validate(2) {
            Err(IqError::InvalidQuery { detail }) => detail,
            other => panic!("{q:?} passed validation: {other:?}"),
        }
    }

    #[test]
    fn validate_admits_well_formed_queries() {
        let w = Mbr::from_bounds(vec![0.0; 2], vec![1.0; 2]);
        for q in [
            Query::knn(&[0.5, 0.5], 3),
            Query::Range {
                point: &[0.5, 0.5],
                radius: 0.0,
            },
            Query::Window(&w),
        ] {
            assert!(q.validate(2).is_ok(), "{q:?}");
        }
    }

    #[test]
    fn validate_rejects_bad_points_radii_windows_and_knobs() {
        assert_eq!(
            rejected(Query::knn(&[0.5; 3], 1)),
            "query has 3 coordinates, index is 2-d"
        );
        assert!(rejected(Query::knn(&[f32::NAN, 0.5], 1)).contains("non-finite"));
        for radius in [-1.0, f64::NAN, f64::INFINITY] {
            let q = Query::Range {
                point: &[0.5, 0.5],
                radius,
            };
            assert!(rejected(q).contains("radius"), "{radius}");
        }
        let w = Mbr::from_bounds(vec![0.0; 3], vec![1.0; 3]);
        assert!(rejected(Query::Window(&w)).contains("index is 2-d"));
        let w = Mbr::from_bounds(vec![0.0, f32::NEG_INFINITY], vec![1.0; 2]);
        assert!(rejected(Query::Window(&w)).contains("finite"));
        let d = QueryOptions::EXACT;
        for opts in [
            QueryOptions { epsilon: -0.5, ..d },
            QueryOptions {
                epsilon: f64::NAN,
                ..d
            },
            QueryOptions {
                nprobes: Some(0),
                ..d
            },
            QueryOptions {
                refine_factor: 0,
                ..d
            },
            QueryOptions {
                time_budget: Some(0.0),
                ..d
            },
            QueryOptions {
                time_budget: Some(-1.0),
                ..d
            },
        ] {
            let q = Query::Knn {
                point: &[0.5, 0.5],
                k: 1,
                filter: None,
                opts,
            };
            rejected(q);
        }
    }
}
