//! One snippet per rule that clippy enforces for the workspace: raw clocks
//! and sleeps, poisoning `std` locks, and `unwrap`/`expect`/`panic!`/
//! `todo!`/`unimplemented!` in library code. Each must be rejected by
//! `cargo clippy -- -D warnings`. Hand-built span events are rejected by
//! the compiler instead: see the `compile_fail` doctest on `vmi_obs::Event`.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Poisoning `std` locks, by full path and behind the grouped import above.
pub struct Locks {
    pub full: std::sync::Mutex<u32>,
    pub m: Arc<Mutex<u32>>,
    pub rw: std::sync::RwLock<u32>,
}

pub fn unwraps(l: &Locks, v: Option<u32>) -> u32 {
    *l.m.lock().unwrap() + v.unwrap() + v.expect("present")
}

pub fn placeholders(n: u32) {
    match n {
        0 => panic!("library code returns typed errors"),
        1 => todo!(),
        _ => unimplemented!(),
    }
}

pub fn wall_time() -> (Instant, SystemTime) {
    std::thread::sleep(Duration::from_millis(1));
    (std::time::Instant::now(), SystemTime::now())
}
