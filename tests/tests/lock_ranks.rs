//! Cross-check between the two lock-order enforcers: the static manifest
//! (`LOCK_ORDER.toml`, consumed by `vmi-lint`) and the runtime witness
//! (`parking_lot::lockrank` constants in the shim). A rank edited in one
//! place but not the other fails here before it can mislead either tool.

use parking_lot::{lockrank, rank, Mutex};
use vmi_audit::lint::lockorder::Manifest;

fn workspace_manifest() -> Manifest {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../LOCK_ORDER.toml");
    let text = std::fs::read_to_string(path).expect("LOCK_ORDER.toml at repo root");
    Manifest::parse(&text).expect("manifest parses")
}

/// Every class rank in the manifest must be a rank the witness knows, and
/// the witness's name for it must be the class name itself (or a prefix of
/// it, for bands that share a witness label: `dev.counting.write` maps to
/// the witness name `dev.counting`, and the chained-image band 40..=47 all
/// report `qcow.state`).
#[test]
fn manifest_ranks_match_witness_constants() {
    let m = workspace_manifest();
    assert!(!m.classes.is_empty());
    for (class, lc) in &m.classes {
        let witness = lockrank::name(lc.rank);
        assert_ne!(
            witness, "unregistered",
            "class `{class}` rank {} unknown to parking_lot::lockrank",
            lc.rank
        );
        assert!(
            class == witness || class.starts_with(&format!("{witness}.")),
            "class `{class}` (rank {}) maps to witness name `{witness}`",
            lc.rank
        );
    }
}

/// The other direction: every rank the witness names is a manifest class,
/// so a `lockrank` constant left behind after its class is deleted from
/// `LOCK_ORDER.toml` fails here.
#[test]
fn witness_names_are_manifest_classes() {
    let m = workspace_manifest();
    for r in 0..=255 {
        let witness = lockrank::name(r);
        assert!(
            witness == "unregistered" || m.classes.contains_key(witness),
            "witness rank {r} is named `{witness}`, which LOCK_ORDER.toml does not declare"
        );
    }
}

/// Spot-check the constants the workspace registers at construction against
/// the manifest, so renumbering either side trips immediately.
#[test]
fn witness_constants_agree_with_manifest_ranks() {
    let m = workspace_manifest();
    let expect = [
        ("nbd.exports", lockrank::NBD_EXPORTS),
        ("nbd.reader", lockrank::NBD_READER),
        ("nbd.in_service", lockrank::NBD_IN_SERVICE),
        ("engine.queue", lockrank::ENGINE_QUEUE),
        ("nbd.writer", lockrank::NBD_WRITER),
        ("qcow.range", lockrank::QCOW_RANGE),
        ("qcow.state", lockrank::QCOW_STATE),
        ("qcow.shard", lockrank::QCOW_SHARD),
        ("dev.leaf", lockrank::DEV_LEAF),
        ("sim.world", lockrank::SIM_WORLD),
        ("obs.sink", lockrank::OBS_SINK),
    ];
    for (class, rank) in expect {
        assert_eq!(
            m.classes.get(class).map(|c| c.rank),
            Some(rank),
            "manifest rank for `{class}`"
        );
    }
    // The chained-image state band must fit under its declared top.
    const { assert!(lockrank::QCOW_STATE < lockrank::QCOW_STATE_TOP) };
    const { assert!(lockrank::QCOW_STATE_TOP < lockrank::QCOW_SHARD) };
}

/// Ascending acquisition is legal and guards pop on drop.
#[test]
fn witness_accepts_ascending_order() {
    let low = Mutex::new(0u32);
    low.set_rank(lockrank::QCOW_CHAIN);
    let high = Mutex::new(0u32);
    high.set_rank(lockrank::DEV_LEAF);

    {
        let _a = low.lock();
        let _b = high.lock();
        assert_eq!(
            rank::snapshot(),
            vec![lockrank::QCOW_CHAIN, lockrank::DEV_LEAF]
        );
    }
    assert!(rank::snapshot().is_empty(), "guards popped on drop");

    // Release-then-reacquire in the other order is fine too.
    drop(high.lock());
    drop(low.lock());
}

/// Acquiring a lower rank while a higher one is held panics at the
/// acquiring site with both ranks in the message.
#[test]
#[should_panic(expected = "lock-rank violation")]
fn witness_panics_on_rank_inversion() {
    let low = Mutex::new(0u32);
    low.set_rank(lockrank::QCOW_CHAIN);
    let high = Mutex::new(0u32);
    high.set_rank(lockrank::DEV_LEAF);

    let _b = high.lock();
    let _a = low.lock(); // inversion: QCOW_CHAIN < DEV_LEAF
}

/// Equal ranks are an inversion too, unless the class is reentrant
/// (`rank::held_reentrant`, used only by the byte-range lock class).
#[test]
#[should_panic(expected = "lock-rank violation")]
fn witness_panics_on_equal_rank_self_nest() {
    let a = Mutex::new(0u32);
    a.set_rank(lockrank::SIM_WORLD);
    let b = Mutex::new(0u32);
    b.set_rank(lockrank::SIM_WORLD);

    let _x = a.lock();
    let _y = b.lock();
}

/// Unranked locks (rank 0) are exempt: the witness only judges locks that
/// registered a rank, so incremental adoption cannot produce false panics.
#[test]
fn unranked_locks_are_exempt() {
    let ranked = Mutex::new(0u32);
    ranked.set_rank(lockrank::OBS_SINK);
    let unranked = Mutex::new(0u32);

    let _a = ranked.lock();
    let _b = unranked.lock(); // no rank, no check
}
