//! On-disk representation of X-tree directory nodes.
//!
//! A directory node occupies one block. Layout (little endian):
//! `u16 count | u8 leaf_children | u8 pad | count × (u32 child | 2d × f32 mbr)`
//!
//! A data page is not defined here: it is the IQ-tree's exact page, a
//! [`iq_quantize::QuantizedPageCodec`] page at `g = 32`
//! ([`iq_quantize::EXACT_BITS`]), one block holding
//! `u16 count | u8 32 | u8 0 | count × (u32 id | d × f32 coords)`.

use iq_geometry::Mbr;

/// Header bytes of a node.
const HEADER_BYTES: usize = 4;

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

    /// Deserializes a node, or `None` when the block does not hold one:
    /// it is too short for a header, claims more entries than it can hold,
    /// or has an entry whose bounds are out of order (a forged or corrupt
    /// block; the X-tree's devices have no checksum layer).
    pub fn decode(bytes: &[u8], dim: usize) -> Option<Self> {
        if bytes.len() < HEADER_BYTES {
            return None;
        }
        let count = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        if count > Self::capacity(dim, bytes.len()) {
            return None;
        }
        let f32s = |b: &[u8]| -> Vec<f32> {
            b.chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect()
        };
        let eb = Self::entry_bytes(dim);
        let mut entries = Vec::with_capacity(count);
        for e in bytes[HEADER_BYTES..HEADER_BYTES + count * eb].chunks_exact(eb) {
            let (lb, ub) = (f32s(&e[4..4 + 4 * dim]), f32s(&e[4 + 4 * dim..]));
            if !lb.iter().zip(&ub).all(|(l, u)| l <= u) {
                return None;
            }
            entries.push(DirEntry {
                child: u32::from_le_bytes(e[..4].try_into().expect("4 bytes")),
                mbr: Mbr::from_bounds(lb, ub),
            });
        }
        Some(Self {
            leaf_children: bytes[2] != 0,
            entries,
        })
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
        let back = Node::decode(&bytes, dim).expect("valid node");
        assert_eq!(back.entries.len(), 2);
        assert!(back.leaf_children);
        assert_eq!(back.entries[0].child, 5);
        assert_eq!(back.entries[1].mbr, node.entries[1].mbr);
    }

    #[test]
    fn forged_nodes_do_not_decode() {
        let dim = 2;
        let node = Node {
            leaf_children: true,
            entries: vec![DirEntry {
                child: 1,
                mbr: Mbr::from_bounds(vec![0.0, 0.0], vec![1.0, 1.0]),
            }],
        };
        let bytes = node.encode(dim, 128);
        assert!(Node::decode(&bytes[..3], dim).is_none(), "no header");
        let mut forged = bytes.clone();
        forged[..2].copy_from_slice(&0xFFFFu16.to_le_bytes());
        assert!(Node::decode(&forged, dim).is_none(), "count past capacity");
        let mut forged = bytes.clone();
        forged[8..12].copy_from_slice(&2.0f32.to_le_bytes());
        assert!(
            Node::decode(&forged, dim).is_none(),
            "lower bound above upper"
        );
        let mut forged = bytes;
        forged[8..12].copy_from_slice(&f32::NAN.to_le_bytes());
        assert!(Node::decode(&forged, dim).is_none(), "NaN bound");
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
    fn capacities_are_sane() {
        // d = 16, 8 KiB: nodes hold 62 entries.
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
