//! On-disk representation of X-tree directory nodes and data pages.
//!
//! A directory node and a data page each occupy one block; a data page
//! stores exact points with their ids.
//!
//! Node layout (little endian):
//! `u16 count | u8 leaf_children | u8 pad | count × (u32 child | 2d × f32 mbr)`
//!
//! Data page layout:
//! `u16 count | u16 pad | count × (u32 id | d × f32 coords)`

use iq_geometry::Mbr;

/// Header bytes shared by nodes and data pages.
pub const HEADER_BYTES: usize = 4;

/// One directory entry: a child reference and its MBR.
#[derive(Clone, Debug)]
pub struct DirEntry {
    /// Node id (inner level) or data page id (leaf level).
    pub child: u32,
    /// The child's minimum bounding rectangle.
    pub mbr: Mbr,
}

/// A decoded directory node.
#[derive(Clone, Debug)]
pub struct Node {
    /// Whether the children are data pages (leaf level) rather than nodes.
    pub leaf_children: bool,
    /// The entries.
    pub entries: Vec<DirEntry>,
}

impl Node {
    /// Bytes one entry occupies for dimension `dim`.
    pub fn entry_bytes(dim: usize) -> usize {
        4 + 8 * dim
    }

    /// Entry capacity of one block.
    pub fn capacity(dim: usize, block_size: usize) -> usize {
        (block_size - HEADER_BYTES) / Self::entry_bytes(dim)
    }

    /// The MBR enclosing all entries.
    ///
    /// # Panics
    /// Panics if the node has no entries.
    pub fn mbr(&self) -> Mbr {
        let mut it = self.entries.iter();
        let mut mbr = it.next().expect("node must have entries").mbr.clone();
        for e in it {
            mbr.extend_mbr(&e.mbr);
        }
        mbr
    }

    /// Serializes the node to one block.
    ///
    /// # Panics
    /// Panics if the entries exceed the block's capacity.
    pub fn encode(&self, dim: usize, block_size: usize) -> Vec<u8> {
        assert!(
            self.entries.len() <= Self::capacity(dim, block_size),
            "node overflow: {} entries",
            self.entries.len()
        );
        let mut out = Vec::with_capacity(block_size);
        out.extend_from_slice(&(self.entries.len() as u16).to_le_bytes());
        out.extend_from_slice(&[u8::from(self.leaf_children), 0]);
        for e in &self.entries {
            out.extend_from_slice(&e.child.to_le_bytes());
            for i in 0..dim {
                out.extend_from_slice(&e.mbr.lb(i).to_le_bytes());
            }
            for i in 0..dim {
                out.extend_from_slice(&e.mbr.ub(i).to_le_bytes());
            }
        }
        out.resize(block_size, 0);
        out
    }

    /// Deserializes a node.
    pub fn decode(bytes: &[u8], dim: usize) -> Self {
        let count = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        let leaf_children = bytes[2] != 0;
        let eb = Self::entry_bytes(dim);
        let mut entries = Vec::with_capacity(count);
        for e in 0..count {
            let off = HEADER_BYTES + e * eb;
            let child = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
            let f32_at = |k: usize| {
                f32::from_le_bytes(
                    bytes[off + 4 + 4 * k..off + 8 + 4 * k]
                        .try_into()
                        .expect("4 bytes"),
                )
            };
            let lb: Vec<f32> = (0..dim).map(&f32_at).collect();
            let ub: Vec<f32> = (dim..2 * dim).map(&f32_at).collect();
            entries.push(DirEntry {
                child,
                mbr: Mbr::from_bounds(lb, ub),
            });
        }
        Self {
            leaf_children,
            entries,
        }
    }
}

/// A decoded data page: ids plus flat row-major coordinates.
#[derive(Clone, Debug, Default)]
pub struct DataPage {
    /// Point ids.
    pub ids: Vec<u32>,
    /// Flat `len × dim` coordinates.
    pub coords: Vec<f32>,
}

impl DataPage {
    /// Bytes one point occupies for dimension `dim`.
    pub fn entry_bytes(dim: usize) -> usize {
        4 + 4 * dim
    }

    /// Point capacity of one block.
    pub fn capacity(dim: usize, block_size: usize) -> usize {
        (block_size - HEADER_BYTES) / Self::entry_bytes(dim)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the page is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Coordinates of point `i`.
    pub fn point(&self, i: usize, dim: usize) -> &[f32] {
        &self.coords[i * dim..(i + 1) * dim]
    }

    /// The tight MBR of the page's points.
    ///
    /// # Panics
    /// Panics if the page is empty.
    pub fn mbr(&self, dim: usize) -> Mbr {
        assert!(!self.is_empty(), "empty data page has no MBR");
        Mbr::of_points(dim, self.coords.chunks_exact(dim))
    }

    /// Serializes to one block.
    ///
    /// # Panics
    /// Panics on overflow.
    pub fn encode(&self, dim: usize, block_size: usize) -> Vec<u8> {
        assert!(
            self.len() <= Self::capacity(dim, block_size),
            "data page overflow"
        );
        let mut out = Vec::with_capacity(block_size);
        out.extend_from_slice(&(self.len() as u16).to_le_bytes());
        out.extend_from_slice(&[0, 0]);
        for (i, &id) in self.ids.iter().enumerate() {
            out.extend_from_slice(&id.to_le_bytes());
            for &x in self.point(i, dim) {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        out.resize(block_size, 0);
        out
    }

    /// Deserializes one block.
    pub fn decode(bytes: &[u8], dim: usize) -> Self {
        let count = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        let eb = Self::entry_bytes(dim);
        let mut ids = Vec::with_capacity(count);
        let mut coords = Vec::with_capacity(count * dim);
        for e in 0..count {
            let off = HEADER_BYTES + e * eb;
            ids.push(u32::from_le_bytes(
                bytes[off..off + 4].try_into().expect("4 bytes"),
            ));
            for k in 0..dim {
                coords.push(f32::from_le_bytes(
                    bytes[off + 4 + 4 * k..off + 8 + 4 * k]
                        .try_into()
                        .expect("4 bytes"),
                ));
            }
        }
        Self { ids, coords }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_roundtrip() {
        let dim = 3;
        let node = Node {
            leaf_children: true,
            entries: vec![
                DirEntry {
                    child: 5,
                    mbr: Mbr::from_bounds(vec![0.0, 1.0, 2.0], vec![3.0, 4.0, 5.0]),
                },
                DirEntry {
                    child: 9,
                    mbr: Mbr::from_bounds(vec![-1.0, -2.0, -3.0], vec![0.0, 0.0, 0.0]),
                },
            ],
        };
        let bytes = node.encode(dim, 512);
        assert_eq!(bytes.len(), 512);
        let back = Node::decode(&bytes, dim);
        assert_eq!(back.entries.len(), 2);
        assert!(back.leaf_children);
        assert_eq!(back.entries[0].child, 5);
        assert_eq!(back.entries[1].mbr, node.entries[1].mbr);
    }

    #[test]
    fn node_mbr_unions_entries() {
        let node = Node {
            leaf_children: true,
            entries: vec![
                DirEntry {
                    child: 0,
                    mbr: Mbr::from_bounds(vec![0.0], vec![1.0]),
                },
                DirEntry {
                    child: 1,
                    mbr: Mbr::from_bounds(vec![4.0], vec![5.0]),
                },
            ],
        };
        let m = node.mbr();
        assert_eq!(m.lb(0), 0.0);
        assert_eq!(m.ub(0), 5.0);
    }

    #[test]
    fn data_page_roundtrip() {
        let dim = 4;
        let dp = DataPage {
            ids: vec![10, 20],
            coords: vec![1., 2., 3., 4., 5., 6., 7., 8.],
        };
        let bytes = dp.encode(dim, 256);
        let back = DataPage::decode(&bytes, dim);
        assert_eq!(back.ids, dp.ids);
        assert_eq!(back.point(1, dim), &[5., 6., 7., 8.]);
        assert_eq!(
            back.mbr(dim),
            Mbr::from_bounds(vec![1., 2., 3., 4.], vec![5., 6., 7., 8.])
        );
    }

    #[test]
    fn capacities_are_sane() {
        // d = 16, 8 KiB: data pages hold 120 points, nodes 62 entries.
        assert_eq!(DataPage::capacity(16, 8192), 120);
        assert_eq!(Node::capacity(16, 8192), 62);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn node_encode_rejects_overflow() {
        let dim = 2;
        let cap = Node::capacity(dim, 128);
        let entries: Vec<DirEntry> = (0..=cap as u32)
            .map(|i| DirEntry {
                child: i,
                mbr: Mbr::from_bounds(vec![0.0, 0.0], vec![1.0, 1.0]),
            })
            .collect();
        let node = Node {
            leaf_children: false,
            entries,
        };
        node.encode(dim, 128);
    }
}
