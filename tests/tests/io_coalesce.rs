//! PR-5 acceptance: the extent-coalesced read path must issue ≥ 8× fewer
//! device calls than the scalar path on a cold sequential 1 MiB read over a
//! 512-byte-cluster cache, with bit-identical guest data.

use vmi_bench::io_coalesce::run_io_coalesce;

#[test]
fn coalesced_cold_sequential_read_is_8x_fewer_calls() {
    let rep = run_io_coalesce().unwrap();
    let cold = rep
        .scenarios
        .iter()
        .find(|s| s.name == "cold_seq")
        .expect("cold_seq scenario present");
    assert!(
        cold.call_ratio >= 8.0,
        "cold sequential: {} scalar vs {} coalesced calls = {:.1}x < 8x",
        cold.scalar.total_calls,
        cold.coalesced.total_calls,
        cold.call_ratio
    );
    assert!(
        cold.data_identical,
        "guest data must not depend on the mode"
    );
    // The warm pass (fully mapped clusters) coalesces even harder: one run
    // read per physically contiguous extent.
    let warm = rep.scenarios.iter().find(|s| s.name == "warm_seq").unwrap();
    assert!(warm.call_ratio >= 8.0, "warm ratio {:.1}x", warm.call_ratio);
}
