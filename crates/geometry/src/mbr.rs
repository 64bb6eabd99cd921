//! Minimum bounding rectangles (hyper-rectangles).

/// An axis-aligned minimum bounding rectangle in `R^d`.
///
/// Stored as two coordinate vectors (lower and upper bounds). An `Mbr` may be
/// degenerate (zero extension in some or all dimensions), which happens for
/// pages holding a single point or points sharing a coordinate.
#[derive(Clone, Debug, PartialEq)]
pub struct Mbr {
    lb: Vec<f32>,
    ub: Vec<f32>,
}

impl Mbr {
    /// Creates an MBR from explicit bounds.
    ///
    /// # Panics
    /// Panics if the bounds differ in length, are empty, or `lb[i] > ub[i]`
    /// for some `i`.
    pub fn from_bounds(lb: Vec<f32>, ub: Vec<f32>) -> Self {
        assert_eq!(lb.len(), ub.len(), "bound dimensionality mismatch");
        assert!(!lb.is_empty(), "MBR must have at least one dimension");
        assert!(
            lb.iter().zip(&ub).all(|(l, u)| l <= u),
            "lower bound exceeds upper bound"
        );
        Self { lb, ub }
    }

    /// The "empty" MBR: +inf lower bounds, -inf upper bounds. Extending it
    /// with any point produces that point's degenerate box.
    pub fn empty(dim: usize) -> Self {
        assert!(dim > 0);
        Self {
            lb: vec![f32::INFINITY; dim],
            ub: vec![f32::NEG_INFINITY; dim],
        }
    }

    /// Whether this is the empty MBR (never contains anything).
    pub fn is_empty(&self) -> bool {
        self.lb.iter().zip(&self.ub).any(|(l, u)| l > u)
    }

    /// The tight MBR of a non-empty set of points.
    pub fn of_points<'a>(dim: usize, points: impl Iterator<Item = &'a [f32]>) -> Self {
        let mut mbr = Self::empty(dim);
        for p in points {
            mbr.extend_point(p);
        }
        mbr
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lb.len()
    }

    /// Lower bound in dimension `i`.
    #[inline]
    pub fn lb(&self, i: usize) -> f32 {
        self.lb[i]
    }

    /// Upper bound in dimension `i`.
    #[inline]
    pub fn ub(&self, i: usize) -> f32 {
        self.ub[i]
    }

    /// All lower bounds.
    #[inline]
    pub fn lbs(&self) -> &[f32] {
        &self.lb
    }

    /// All upper bounds.
    #[inline]
    pub fn ubs(&self) -> &[f32] {
        &self.ub
    }

    /// Side length in dimension `i` (zero for the empty MBR).
    #[inline]
    pub fn extent(&self, i: usize) -> f64 {
        (f64::from(self.ub[i]) - f64::from(self.lb[i])).max(0.0)
    }

    /// Every [`Self::extent`] as an `f32`: the page sides the cost model
    /// (`iq_cost`) takes.
    pub fn sides(&self) -> Vec<f32> {
        (0..self.dim()).map(|i| self.extent(i) as f32).collect()
    }

    /// The dimension with the largest extension — the paper's split
    /// dimension choice ("we split the page along the dimension where the
    /// MBR has its largest extension").
    pub fn longest_dim(&self) -> usize {
        (0..self.dim())
            .max_by(|&a, &b| {
                self.extent(a)
                    .partial_cmp(&self.extent(b))
                    .expect("extents are never NaN")
            })
            .expect("MBR has at least one dimension")
    }

    /// Volume `Π (ub_i - lb_i)` (eq 6 denominator). Zero if degenerate.
    pub fn volume(&self) -> f64 {
        (0..self.dim()).map(|i| self.extent(i)).product()
    }

    /// Grows the box to contain `p`.
    pub fn extend_point(&mut self, p: &[f32]) {
        debug_assert_eq!(p.len(), self.dim());
        for (i, &x) in p.iter().enumerate() {
            if x < self.lb[i] {
                self.lb[i] = x;
            }
            if x > self.ub[i] {
                self.ub[i] = x;
            }
        }
    }

    /// Grows the box to contain another box.
    pub fn extend_mbr(&mut self, other: &Mbr) {
        debug_assert_eq!(other.dim(), self.dim());
        for i in 0..self.dim() {
            self.lb[i] = self.lb[i].min(other.lb[i]);
            self.ub[i] = self.ub[i].max(other.ub[i]);
        }
    }

    /// Whether the point lies inside (closed) the box.
    pub fn contains_point(&self, p: &[f32]) -> bool {
        debug_assert_eq!(p.len(), self.dim());
        p.iter()
            .enumerate()
            .all(|(i, &x)| self.lb[i] <= x && x <= self.ub[i])
    }

    /// Whether `other` is fully contained in `self`.
    pub fn contains_mbr(&self, other: &Mbr) -> bool {
        (0..self.dim()).all(|i| self.lb[i] <= other.lb[i] && other.ub[i] <= self.ub[i])
    }

    /// Whether the two boxes intersect (closed).
    pub fn intersects(&self, other: &Mbr) -> bool {
        (0..self.dim()).all(|i| self.lb[i] <= other.ub[i] && other.lb[i] <= self.ub[i])
    }

    /// By how much `self.volume()` would grow if extended to contain `p`.
    pub fn enlargement_for_point(&self, p: &[f32]) -> f64 {
        let mut grown = self.clone();
        grown.extend_point(p);
        grown.volume() - self.volume()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_points_is_tight() {
        let pts: Vec<Vec<f32>> = vec![vec![0.0, 5.0], vec![2.0, 1.0], vec![1.0, 3.0]];
        let mbr = Mbr::of_points(2, pts.iter().map(|p| p.as_slice()));
        assert_eq!(mbr.lbs(), &[0.0, 1.0]);
        assert_eq!(mbr.ubs(), &[2.0, 5.0]);
        assert!((mbr.volume() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_behaves() {
        let mut e = Mbr::empty(2);
        assert!(e.is_empty());
        assert!(!e.contains_point(&[0.0, 0.0]));
        e.extend_point(&[1.0, 2.0]);
        assert!(!e.is_empty());
        assert_eq!(e.lbs(), e.ubs());
        assert_eq!(e.volume(), 0.0);
    }

    #[test]
    fn longest_dim_picks_widest() {
        let mbr = Mbr::from_bounds(vec![0.0, 0.0, 0.0], vec![1.0, 3.0, 2.0]);
        assert_eq!(mbr.longest_dim(), 1);
    }

    #[test]
    fn intersect_and_overlap() {
        let a = Mbr::from_bounds(vec![0.0, 0.0], vec![2.0, 2.0]);
        let b = Mbr::from_bounds(vec![1.0, 1.0], vec![3.0, 3.0]);
        let c = Mbr::from_bounds(vec![5.0, 5.0], vec![6.0, 6.0]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn containment() {
        let a = Mbr::from_bounds(vec![0.0, 0.0], vec![4.0, 4.0]);
        let b = Mbr::from_bounds(vec![1.0, 1.0], vec![2.0, 2.0]);
        assert!(a.contains_mbr(&b));
        assert!(!b.contains_mbr(&a));
        assert!(a.contains_point(&[4.0, 0.0]));
        assert!(!a.contains_point(&[4.1, 0.0]));
    }

    #[test]
    fn enlargement() {
        let a = Mbr::from_bounds(vec![0.0, 0.0], vec![1.0, 1.0]);
        assert_eq!(a.enlargement_for_point(&[0.5, 0.5]), 0.0);
        assert!((a.enlargement_for_point(&[2.0, 1.0]) - 1.0).abs() < 1e-12);
    }
}
