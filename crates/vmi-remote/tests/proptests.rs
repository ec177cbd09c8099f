//! Property tests for the NFS-style layer: the mount must be a transparent
//! window onto the export's data, and the client cache must only ever
//! *reduce* traffic, never corrupt it.

use std::sync::Arc;

use proptest::prelude::*;
use vmi_blockdev::{BlockDev, MemDev, SharedDev};
use vmi_remote::{ExportMedium, NfsExport, NfsMount};
use vmi_sim::{DiskSpec, NetSpec, SimWorld};

const FILE_SIZE: u64 = 1 << 20;

fn setup(content: &[u8]) -> (SimWorld, Arc<NfsMount>, vmi_sim::LinkId) {
    let w = SimWorld::new();
    let d = w.add_disk(DiskSpec {
        seq_bw_bps: 200_000_000,
        seek_ns: 4_000_000,
        short_seek_ns: 1_000_000,
        short_seek_window: 1 << 30,
        per_op_ns: 100_000,
        adjacency_window: 1 << 20,
    });
    let c = w.add_cache(1 << 30, 65536);
    let link = w.add_link(NetSpec::gbe_1());
    let dev: SharedDev = Arc::new(MemDev::from_vec(content.to_vec()));
    let exp = NfsExport::new(w.clone(), 1, dev, 0, ExportMedium::Disk(d), c);
    (w.clone(), NfsMount::new(exp, link), link)
}

proptest! {
    /// Reads through the mount return exactly the export's bytes, for any
    /// access pattern, and simulated time never regresses.
    #[test]
    fn mount_reads_are_transparent(
        reads in proptest::collection::vec((0u64..FILE_SIZE - 70_000, 1usize..70_000), 1..40),
    ) {
        let content: Vec<u8> =
            (0..FILE_SIZE as usize).map(|i| (i % 255) as u8).collect();
        let (w, m, _) = setup(&content);
        let mut buf = vec![0u8; 70_000];
        let mut now = 0u64;
        for &(off, len) in &reads {
            w.begin_op(now);
            m.read_at(&mut buf[..len], off).unwrap();
            let done = w.end_op();
            prop_assert!(done >= now);
            now = done;
            prop_assert_eq!(&buf[..len], &content[off as usize..off as usize + len]);
        }
    }

    /// Repeating a read sequence adds zero network traffic (client cache),
    /// and total traffic is bounded by page-rounded coverage.
    #[test]
    fn client_cache_suppresses_repeats(
        reads in proptest::collection::vec((0u64..FILE_SIZE - 70_000, 1usize..70_000), 1..30),
    ) {
        let content = vec![7u8; FILE_SIZE as usize];
        let (w, m, link) = setup(&content);
        let mut buf = vec![0u8; 70_000];
        let mut now = 0u64;
        let mut run = |w: &SimWorld, m: &NfsMount| {
            for &(off, len) in &reads {
                w.begin_op(now);
                m.read_at(&mut buf[..len], off).unwrap();
                now = w.end_op();
            }
        };
        run(&w, &m);
        let first = w.link_stats(link).bytes;
        run(&w, &m);
        let second = w.link_stats(link).bytes;
        prop_assert_eq!(first, second, "repeat reads must be free");
        // Bound: page-rounded unique coverage.
        let page = vmi_remote::CLIENT_PAGE;
        let mut rs = vmi_trace::RangeSet::new();
        for &(off, len) in &reads {
            rs.insert(off / page * page, (off + len as u64).div_ceil(page) * page);
        }
        prop_assert!(first <= rs.covered(), "traffic {first} > rounded coverage {}", rs.covered());
        prop_assert!(first >= rs.covered() / 8, "implausibly little traffic");
    }

    /// Writes through the mount are durably visible to later reads and
    /// count as received bytes at the export.
    #[test]
    fn mount_writes_roundtrip(
        writes in proptest::collection::vec(
            (0u64..FILE_SIZE - 4096, 1usize..4096, any::<u8>()), 1..20),
    ) {
        let content = vec![0u8; FILE_SIZE as usize];
        let (w, m, _) = setup(&content);
        let mut now = 0u64;
        let mut reference = content;
        for &(off, len, byte) in &writes {
            w.begin_op(now);
            m.write_at(&vec![byte; len], off).unwrap();
            now = w.end_op();
            reference[off as usize..off as usize + len].fill(byte);
        }
        let mut buf = vec![0u8; 8192];
        for &(off, len, _) in &writes {
            w.begin_op(now);
            m.read_at(&mut buf[..len], off).unwrap();
            now = w.end_op();
            prop_assert_eq!(&buf[..len], &reference[off as usize..off as usize + len]);
        }
        let expected: u64 = writes.iter().map(|&(_, l, _)| l as u64).sum();
        prop_assert_eq!(m.export().received_bytes(), expected);
    }
}
