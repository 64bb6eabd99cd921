//! Flat, cache-friendly storage for sets of `d`-dimensional points.

/// A set of `d`-dimensional points stored row-major in one contiguous
/// allocation.
///
/// Index structures in this workspace never own boxed per-point vectors;
/// they either reference rows of a `Dataset` or copy rows into page buffers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Dataset {
    dim: usize,
    data: Vec<f32>,
}

impl Dataset {
    /// Creates an empty dataset of the given dimensionality.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            dim,
            data: Vec::new(),
        }
    }

    /// Creates an empty dataset with capacity for `n` points.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            dim,
            data: Vec::with_capacity(dim * n),
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim`, or if `dim == 0`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        assert_eq!(
            data.len() % dim,
            0,
            "buffer length must be a multiple of dim"
        );
        Self { dim, data }
    }

    /// The dimensionality of every point in the set.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows point `i` as a coordinate slice.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Appends a point.
    ///
    /// # Panics
    /// Panics if `p.len() != self.dim()`.
    #[inline]
    pub fn push(&mut self, p: &[f32]) {
        assert_eq!(p.len(), self.dim, "point dimensionality mismatch");
        self.data.extend_from_slice(p);
    }

    /// Iterates over all points in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Splits off the last `n` points into a separate dataset (useful for
    /// carving a query workload out of a generated set, as the paper does).
    ///
    /// # Panics
    /// Panics if `n > self.len()`.
    pub fn split_off_tail(&mut self, n: usize) -> Dataset {
        assert!(n <= self.len(), "cannot split off more points than stored");
        let at = (self.len() - n) * self.dim;
        let tail = self.data.split_off(at);
        Dataset {
            dim: self.dim,
            data: tail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access() {
        let mut ds = Dataset::new(3);
        ds.push(&[1.0, 2.0, 3.0]);
        ds.push(&[4.0, 5.0, 6.0]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.point(0), &[1.0, 2.0, 3.0]);
        assert_eq!(ds.point(1), &[4.0, 5.0, 6.0]);
        assert!(!ds.is_empty());
    }

    #[test]
    fn from_flat_roundtrip() {
        let ds = Dataset::from_flat(2, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.point(1), &[2.0, 3.0]);
        let rows: Vec<&[f32]> = ds.iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn from_flat_rejects_ragged() {
        let _ = Dataset::from_flat(3, vec![0.0; 4]);
    }

    #[test]
    fn split_off_tail_takes_last_points() {
        let mut ds = Dataset::from_flat(2, vec![0., 0., 1., 1., 2., 2., 3., 3.]);
        let tail = ds.split_off_tail(1);
        assert_eq!(ds.len(), 3);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail.point(0), &[3.0, 3.0]);
    }
}
