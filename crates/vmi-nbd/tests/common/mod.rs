//! Shared by the serial (`end_to_end`) and pipelined (`pipeline`) wire
//! suites: the frame sizes where header-and-payload framing can go wrong.

use vmi_blockdev::BlockDev;
use vmi_nbd::proto::MAX_REQUEST_BYTES;
use vmi_nbd::NbdClient;

/// Around the 8 KiB `BufWriter`/`BufReader` capacity, a typical large
/// request, and one byte past the request cap (which the client splits).
const FRAMING_SIZES: [usize; 6] = [
    8175,
    8176,
    8192,
    8193,
    65536,
    MAX_REQUEST_BYTES as usize + 1,
];

/// An export large enough for every extent [`assert_framing_round_trips`]
/// touches.
pub const FRAMING_EXPORT_LEN: u64 = 34 << 20;

/// Write then read back each of [`FRAMING_SIZES`] through `client`, at
/// offsets that are not sector-aligned. The reads must return exactly what
/// was written, and so must `export` — the device behind the server — so a
/// fault symmetric in both directions of the wire still shows.
pub fn assert_framing_round_trips(client: &NbdClient, export: &dyn BlockDev) {
    for (i, &len) in FRAMING_SIZES.iter().enumerate() {
        let off = 4093 + i as u64 * 8192;
        let data: Vec<u8> = (0..len).map(|j| ((j * 7 + i) % 253) as u8).collect();
        client.write_at(&data, off).unwrap();
        let mut back = vec![0u8; len];
        client.read_at(&mut back, off).unwrap();
        assert!(back == data, "{len}-byte read did not round-trip");
        export.read_at(&mut back, off).unwrap();
        assert!(back == data, "{len}-byte write did not land intact");
    }
}
