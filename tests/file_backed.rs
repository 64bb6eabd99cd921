//! Integration: the IQ-tree behaves identically on real files and on
//! in-memory devices — same results, same simulated costs (the clock, not
//! the backend, is the source of truth for cost).

mod common;

use common::knn;

use iqtree_repro::data::{self, Workload};

use iqtree_repro::geometry::Metric;
use iqtree_repro::storage::{
    BlockDevice, ChecksummedDevice, FileDevice, IqError, MemDevice, MmapFileDevice, SimClock,
};
use iqtree_repro::tree::{IqTree, IqTreeOptions};
use std::path::PathBuf;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "iqtree-file-backed-{}-{}",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "-")
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn file_and_memory_backends_agree() {
    let w = Workload::generate(4_000, 6, |n| data::uniform(6, n, 17));
    let dir = temp_dir();

    let mut mem_clock = SimClock::default();
    let mem_tree = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || Box::new(MemDevice::new(4096)),
        &mut mem_clock,
    );

    let mut counter = 0;
    let mut file_clock = SimClock::default();
    let file_tree = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || {
            counter += 1;
            let path = dir.join(format!("f{counter}.bin"));
            Box::new(FileDevice::create(&path, 4096).expect("create device file"))
                as Box<dyn BlockDevice>
        },
        &mut file_clock,
    );

    // Identical build costs.
    assert_eq!(mem_clock.io_time(), file_clock.io_time());
    assert_eq!(mem_clock.stats(), file_clock.stats());
    assert_eq!(mem_tree.num_pages(), file_tree.num_pages());

    // Identical query results and costs.
    for q in w.queries.iter() {
        mem_clock.reset();
        file_clock.reset();
        let a = knn(&mem_tree, &mut mem_clock, q, 5).0;
        let b = knn(&file_tree, &mut file_clock, q, 5).0;
        assert_eq!(a, b);
        assert_eq!(mem_clock.io_time(), file_clock.io_time());
        assert_eq!(mem_clock.stats(), file_clock.stats());
    }

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn file_backed_updates_persist_within_session() {
    let w = Workload::generate(2_000, 2, |n| data::uniform(4, n, 23));
    let dir = temp_dir();
    let mut counter = 0;
    let mut clock = SimClock::default();
    let mut tree = IqTree::build(
        &w.db,
        Metric::Euclidean,
        IqTreeOptions::default(),
        || {
            counter += 1;
            let path = dir.join(format!("g{counter}.bin"));
            Box::new(FileDevice::create(&path, 4096).expect("create device file"))
                as Box<dyn BlockDevice>
        },
        &mut clock,
    );
    let p = [0.123f32, 0.456, 0.789, 0.5];
    tree.insert(&mut clock, 777_777, &p).unwrap();
    let (id, d) = knn(&tree, &mut clock, &p, 1).0[0];
    assert_eq!(id, 777_777);
    assert!(d < 1e-6);
    assert!(tree.delete(&mut clock, 777_777, &p).unwrap());
    let (id2, _) = knn(&tree, &mut clock, &p, 1).0[0];
    assert_ne!(id2, 777_777);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The ingestion path end to end: an fvecs dump whose length is not a
/// block multiple is opened read-only via [`MmapFileDevice`], read block
/// by block (the final partial block zero-padded), and decodes back to
/// exactly the dataset that was written.
#[test]
fn mmap_device_ingests_a_partial_final_block_fvecs_file() {
    let ds = data::cad_like(7, 123, 99); // 123 * (4 + 7*4) = 3936 bytes
    let dir = temp_dir();
    let path = dir.join("vectors.fvecs");
    data::write_fvecs(&path, &ds).expect("write fvecs");

    let file_len = std::fs::metadata(&path).unwrap().len();
    assert_ne!(file_len % 1024, 0, "fixture must end mid-block");

    let dev = MmapFileDevice::open(&path, 1024).expect("open mmap device");
    assert_eq!(dev.file_len(), file_len);
    assert_eq!(dev.num_blocks(), file_len.div_ceil(1024));

    let mut clock = SimClock::default();
    let mut bytes = dev
        .read_to_vec(&mut clock, 0, dev.num_blocks())
        .expect("read whole device");
    // Everything past the real file length is padding, not garbage.
    assert!(bytes[file_len as usize..].iter().all(|&b| b == 0));
    bytes.truncate(file_len as usize);

    let decoded = data::ingest::decode_fvecs(&bytes).expect("decode fvecs");
    assert_eq!(decoded.len(), ds.len());
    assert_eq!(decoded.dim(), ds.dim());
    for i in 0..ds.len() {
        assert_eq!(decoded.point(i), ds.point(i), "point {i} round-trips");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Reads take `&self`, so one device can serve many query threads at
/// once. Every thread must see the same bytes and be charged the same
/// simulated cost as a single-threaded baseline.
#[test]
fn mmap_device_serves_concurrent_readers() {
    let dir = temp_dir();
    let path = dir.join("shared.bin");
    let data: Vec<u8> = (0..8192u32).map(|i| (i * 31 % 257) as u8).collect();
    std::fs::write(&path, &data).unwrap();

    let dev = MmapFileDevice::open(&path, 512).expect("open mmap device");
    let mut baseline_clock = SimClock::default();
    let baseline = dev
        .read_to_vec(&mut baseline_clock, 0, dev.num_blocks())
        .expect("baseline read");

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let dev = &dev;
                let baseline = &baseline;
                s.spawn(move || {
                    let mut clock = SimClock::default();
                    // Overlapping ranges on purpose: readers race on the
                    // same blocks, not disjoint partitions.
                    let start = (t % 4) as u64;
                    let n = dev.num_blocks() - start;
                    let got = dev.read_to_vec(&mut clock, start, n).expect("read");
                    assert_eq!(
                        got,
                        baseline[(start as usize) * 512..],
                        "thread {t} saw different bytes"
                    );
                    let mut solo = SimClock::default();
                    dev.read_to_vec(&mut solo, start, n).expect("re-read");
                    assert_eq!(clock.io_time(), solo.io_time());
                    assert_eq!(clock.stats(), solo.stats());
                })
            })
            .collect();
        for h in handles {
            h.join().expect("reader thread panicked");
        }
    });
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Checksum-layer compatibility: blocks written through a
/// `ChecksummedDevice` over a read-write [`FileDevice`] verify when the
/// same file is reopened read-only through [`MmapFileDevice`] under the
/// same checksum layer — and a flipped bit on disk is caught, not served.
#[test]
fn mmap_device_is_compatible_with_the_checksum_layer() {
    let dir = temp_dir();
    let path = dir.join("summed.bin");
    let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 253) as u8).collect();

    let mut writer = ChecksummedDevice::new(Box::new(
        FileDevice::create(&path, 4096).expect("create device file"),
    ));
    let mut clock = SimClock::default();
    writer.append(&mut clock, &payload).expect("append payload");
    let logical_bs = writer.block_size();
    let nblocks = writer.num_blocks();
    drop(writer);

    // Reopen the raw file read-only; the checksum layer sits above the
    // mmap device exactly as it sat above the file device.
    let reader = ChecksummedDevice::new(Box::new(
        MmapFileDevice::open(&path, 4096).expect("reopen via mmap"),
    ));
    assert_eq!(reader.block_size(), logical_bs);
    assert_eq!(reader.num_blocks(), nblocks);
    let mut clock = SimClock::default();
    let got = reader
        .read_to_vec(&mut clock, 0, nblocks)
        .expect("checksums verify through the mmap device");
    assert_eq!(&got[..payload.len()], &payload[..]);
    assert!(got[payload.len()..].iter().all(|&b| b == 0));
    drop(reader);

    // Flip one payload bit on disk; the mmap path must now fail the
    // checksum instead of returning corrupt bytes.
    let mut raw = std::fs::read(&path).unwrap();
    raw[100] ^= 0x40;
    std::fs::write(&path, &raw).unwrap();
    let reader = ChecksummedDevice::new(Box::new(
        MmapFileDevice::open(&path, 4096).expect("reopen corrupted file"),
    ));
    let mut clock = SimClock::default();
    match reader.read_to_vec(&mut clock, 0, 1) {
        Err(IqError::ChecksumMismatch { block: 0, .. }) => {}
        other => panic!("expected a checksum mismatch on block 0, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
