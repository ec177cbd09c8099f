//! Minimal workspace-local stand-in for the `parking_lot` crate.
//!
//! The container building this repository has no access to crates.io, so the
//! workspace vendors tiny API-compatible shims for its external dependencies.
//! This one wraps `std::sync` primitives and unwraps poison (parking_lot's
//! locks are not poisoning, so panicking on poison matches its abort-ish
//! semantics closely enough for this codebase).
//!
//! # Lock-rank witness
//!
//! On top of the plain facade, every [`Mutex`] and [`RwLock`] can carry a
//! **rank** (see [`lockrank`] for the project-wide table, mirrored in the
//! checked-in `LOCK_ORDER.toml` manifest). Ranked locks participate in a
//! runtime deadlock-order witness: each thread keeps a stack of the ranks it
//! currently holds, and acquiring a lock whose rank is **lower than or equal
//! to** one already held panics immediately — naming both acquisition sites —
//! instead of (possibly much later, possibly only under rare interleavings)
//! deadlocking. The check runs on the *attempt*, before blocking, so a
//! would-deadlock is reported even when the timing happens to be benign.
//!
//! Unranked locks (the default — `rank == 0`) skip the witness entirely; the
//! cost for them is one relaxed atomic load per acquisition. Ranks are
//! registered once at construction via [`Mutex::set_rank`] /
//! [`RwLock::set_rank`], keeping `const fn new` intact.
//!
//! Non-facade synchronisation (the QCOW byte-range locks) joins the same
//! per-thread stack through [`rank::held`] / [`rank::held_reentrant`] tokens.

#![expect(clippy::disallowed_types, reason = "this crate is the std facade")]

use std::sync::atomic::{AtomicU32, Ordering};

/// The project-wide lock-rank table.
///
/// Ranks are strictly ascending along every legal acquisition path: a thread
/// may only acquire a lock whose rank is **greater** than every rank it
/// already holds (the byte-range lock class is re-entrant for siblings and
/// uses [`rank::held_reentrant`]). The authoritative, commented copy of this
/// table — with the static-analysis acquisition patterns — lives in
/// `LOCK_ORDER.toml` at the workspace root; `tests/lock_ranks.rs` asserts the
/// two stay in sync. Gaps between values are deliberate room for growth.
pub mod lockrank {
    /// NBD server export registry.
    pub const NBD_EXPORTS: u32 = 10;
    /// NBD per-connection request reader (held across socket reads, and
    /// across a FLUSH/TRIM barrier's wait and device call).
    pub const NBD_READER: u32 = 12;
    /// NBD per-connection in-service lock: held shared by each request
    /// being served, exclusively by a FLUSH/TRIM/DISC barrier.
    pub const NBD_IN_SERVICE: u32 = 13;
    /// Request-engine submission/completion state.
    pub const ENGINE_QUEUE: u32 = 14;
    /// Request-engine worker-handle list (Debug/shutdown only).
    pub const ENGINE_WORKERS: u32 = 15;
    /// NBD per-connection reply writer.
    pub const NBD_WRITER: u32 = 16;
    /// Cluster experiment warm-cache store.
    pub const CLUSTER_WARM: u32 = 20;
    /// Chain-resolver name → device registry.
    pub const QCOW_CHAIN: u32 = 22;
    /// Byte-range lock (logical; witnessed via a [`super::rank`] token).
    pub const QCOW_RANGE: u32 = 30;
    /// Byte-range admission mutex (`RangeLocks` internal state).
    pub const QCOW_RANGE_ADMISSION: u32 = 32;
    /// ConcurrentImage mutation-order lock.
    pub const QCOW_MUT_ORDER: u32 = 34;
    /// ConcurrentImage L1 snapshot.
    pub const QCOW_L1: u32 = 36;
    /// QcowImage state mutex for the *top* of the deepest supported chain.
    /// A chained image's backing layer is acquired while the front layer's
    /// state is held, so ranks ascend front → base: an image's rank is one
    /// less than its backing image's, floored here.
    pub const QCOW_STATE: u32 = 40;
    /// QcowImage state mutex for a base (chain-less) image; see
    /// [`QCOW_STATE`].
    pub const QCOW_STATE_TOP: u32 = 47;
    /// ConcurrentImage sharded L2-snapshot cache (one rank for all shards:
    /// shards are never nested).
    pub const QCOW_SHARD: u32 = 50;
    /// FaultDev plan list.
    pub const DEV_FAULT: u32 = 60;
    /// RetryDev RNG / sleep-hook state.
    pub const DEV_RETRY: u32 = 62;
    /// CrashDev volatile-buffer state (held across inner-device calls).
    pub const DEV_CRASH: u32 = 64;
    /// CountingDev read histogram.
    pub const DEV_COUNTING: u32 = 68;
    /// CountingDev write histogram (snapshot locks both at once, read
    /// first, so the pair needs two ascending ranks in one class).
    pub const DEV_COUNTING_W: u32 = 69;
    /// Leaf devices: MemDev / FileDev / SparseDev backing storage.
    pub const DEV_LEAF: u32 = 70;
    /// NBD client connection (stream + handle counter).
    pub const NBD_CLIENT: u32 = 72;
    /// Simulation world clock/ledger.
    pub const SIM_WORLD: u32 = 90;
    /// Observability sink (std mutex, manifest-only: not witnessed).
    pub const OBS_SINK: u32 = 100;

    /// Human-readable class name for a rank, for witness panic messages.
    pub fn name(rank: u32) -> &'static str {
        match rank {
            NBD_EXPORTS => "nbd.exports",
            NBD_READER => "nbd.reader",
            NBD_IN_SERVICE => "nbd.in_service",
            ENGINE_QUEUE => "engine.queue",
            ENGINE_WORKERS => "engine.workers",
            NBD_WRITER => "nbd.writer",
            CLUSTER_WARM => "cluster.warm",
            QCOW_CHAIN => "qcow.chain",
            QCOW_RANGE => "qcow.range",
            QCOW_RANGE_ADMISSION => "qcow.range.admission",
            QCOW_MUT_ORDER => "qcow.mut_order",
            QCOW_L1 => "qcow.l1",
            QCOW_STATE..=QCOW_STATE_TOP => "qcow.state",
            QCOW_SHARD => "qcow.shard",
            DEV_FAULT => "dev.fault",
            DEV_RETRY => "dev.retry",
            DEV_CRASH => "dev.crash",
            DEV_COUNTING | DEV_COUNTING_W => "dev.counting",
            DEV_LEAF => "dev.leaf",
            NBD_CLIENT => "nbd.client",
            SIM_WORLD => "sim.world",
            OBS_SINK => "obs.sink",
            _ => "unregistered",
        }
    }
}

/// The per-thread held-rank stack behind the witness.
pub mod rank {
    use std::cell::RefCell;
    use std::marker::PhantomData;
    use std::panic::Location;

    struct Entry {
        rank: u32,
        site: &'static Location<'static>,
        seq: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
        static SEQ: RefCell<u64> = const { RefCell::new(0) };
    }

    /// Proof that the current thread holds a rank; popping happens on drop.
    /// Deliberately `!Send`: the stack is thread-local.
    #[derive(Debug)]
    pub struct Held {
        seq: u64,
        _not_send: PhantomData<*const ()>,
    }

    impl Drop for Held {
        fn drop(&mut self) {
            let seq = self.seq;
            HELD.with(|h| {
                let mut h = h.borrow_mut();
                if let Some(i) = h.iter().rposition(|e| e.seq == seq) {
                    h.remove(i);
                }
            });
        }
    }

    fn push(rank: u32, site: &'static Location<'static>) -> Held {
        let seq = SEQ.with(|s| {
            let mut s = s.borrow_mut();
            *s += 1;
            *s
        });
        HELD.with(|h| h.borrow_mut().push(Entry { rank, site, seq }));
        Held {
            seq,
            _not_send: PhantomData,
        }
    }

    fn check(rank: u32, site: &'static Location<'static>, allow_equal: bool) {
        HELD.with(|h| {
            for e in h.borrow().iter() {
                let violation = if allow_equal {
                    e.rank > rank
                } else {
                    e.rank >= rank
                };
                if violation {
                    panic!(
                        "lock-rank violation: acquiring `{}` (rank {}) at {} \
                         while holding `{}` (rank {}) acquired at {}; lock \
                         order requires ascending ranks (see LOCK_ORDER.toml)",
                        super::lockrank::name(rank),
                        rank,
                        site,
                        super::lockrank::name(e.rank),
                        e.rank,
                        e.site,
                    );
                }
            }
        });
    }

    /// Record an acquisition attempt: panics if the current thread already
    /// holds a rank `>=` the new one, otherwise pushes and returns the token.
    #[track_caller]
    pub fn held(rank: u32) -> Held {
        let site = Location::caller();
        check(rank, site, false);
        push(rank, site)
    }

    /// [`held`], but tolerates *equal* ranks already being held. Used by the
    /// byte-range lock class, where one thread may legally hold several
    /// (disjoint or shared) range guards at once.
    #[track_caller]
    pub fn held_reentrant(rank: u32) -> Held {
        let site = Location::caller();
        check(rank, site, true);
        push(rank, site)
    }

    /// Push without checking — for `try_*` acquisitions, which cannot
    /// deadlock (they fail instead of blocking) but whose guards must still
    /// be on the stack so *later* acquisitions are checked against them.
    #[track_caller]
    pub fn held_unchecked(rank: u32) -> Held {
        push(rank, Location::caller())
    }

    /// Ranks currently held by this thread, innermost last (for tests).
    pub fn snapshot() -> Vec<u32> {
        HELD.with(|h| h.borrow().iter().map(|e| e.rank).collect())
    }
}

/// Shared rank cell: 0 = unranked (witness skipped).
#[derive(Debug, Default)]
struct RankCell(AtomicU32);

impl RankCell {
    const fn new() -> Self {
        Self(AtomicU32::new(0))
    }

    fn get(&self) -> u32 {
        self.0.load(Ordering::Relaxed)
    }

    fn set(&self, rank: u32) {
        self.0.store(rank, Ordering::Relaxed);
    }

    #[track_caller]
    fn enter(&self) -> Option<rank::Held> {
        match self.get() {
            0 => None,
            r => Some(rank::held(r)),
        }
    }

    #[track_caller]
    fn enter_unchecked(&self) -> Option<rank::Held> {
        match self.get() {
            0 => None,
            r => Some(rank::held_unchecked(r)),
        }
    }
}

/// RAII guard for [`Mutex`]; releases the lock (and pops the witness token)
/// on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    // Declared first so the token pops while the lock is still held; either
    // order is sound, this one keeps the stack a strict subset of reality.
    _token: Option<rank::Held>,
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// RAII read guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    _token: Option<rank::Held>,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII write guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    _token: Option<rank::Held>,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Non-poisoning mutex facade over [`std::sync::Mutex`] with an optional
/// lock-rank (see the [module docs](self)).
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    rank: RankCell,
    inner: std::sync::Mutex<T>,
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self {
            rank: RankCell::new(),
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Register this lock in the witness under `rank` (a [`lockrank`]
    /// constant). Call once, at construction time.
    pub fn set_rank(&self, rank: u32) {
        self.rank.set(rank);
    }

    /// The registered rank (0 = unranked).
    pub fn rank(&self) -> u32 {
        self.rank.get()
    }

    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let token = self.rank.enter();
        MutexGuard {
            _token: token,
            inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            _token: self.rank.enter_unchecked(),
            inner,
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// Non-poisoning reader-writer lock facade over [`std::sync::RwLock`] with an
/// optional lock-rank (see the [module docs](self)).
#[derive(Debug)]
pub struct RwLock<T: ?Sized> {
    rank: RankCell,
    inner: std::sync::RwLock<T>,
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        Self {
            rank: RankCell::new(),
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Register this lock in the witness under `rank` (a [`lockrank`]
    /// constant). Call once, at construction time.
    pub fn set_rank(&self, rank: u32) {
        self.rank.set(rank);
    }

    /// The registered rank (0 = unranked).
    pub fn rank(&self) -> u32 {
        self.rank.get()
    }

    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let token = self.rank.enter();
        RwLockReadGuard {
            _token: token,
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let token = self.rank.enter();
        RwLockWriteGuard {
            _token: token,
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }

    #[track_caller]
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let inner = match self.inner.try_read() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(RwLockReadGuard {
            _token: self.rank.enter_unchecked(),
            inner,
        })
    }

    #[track_caller]
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let inner = match self.inner.try_write() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(RwLockWriteGuard {
            _token: self.rank.enter_unchecked(),
            inner,
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// Condition variable facade over [`std::sync::Condvar`].
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Self(std::sync::Condvar::new())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Atomically release the guard's lock and block; the witness token stays
    /// on the stack for the duration (the blocked thread acquires nothing,
    /// and the rank is held again the instant `wait` returns).
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        // Safety dance: std's Condvar consumes and returns the guard; emulate
        // parking_lot's in-place wait by replacing through a raw move.
        take_mut(&mut guard.inner, |g| {
            self.0.wait(g).unwrap_or_else(|e| e.into_inner())
        });
    }
}

fn take_mut<T>(slot: &mut T, f: impl FnOnce(T) -> T) {
    unsafe {
        let old = std::ptr::read(slot);
        let new = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(old)))
            .unwrap_or_else(|_| std::process::abort());
        std::ptr::write(slot, new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_and_rwlock_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let rw = RwLock::new(vec![1, 2]);
        assert_eq!(rw.read().len(), 2);
        rw.write().push(3);
        assert_eq!(rw.read().len(), 3);
    }

    #[test]
    fn unranked_locks_leave_no_trace() {
        let m = Mutex::new(0u8);
        let g = m.lock();
        assert!(rank::snapshot().is_empty());
        drop(g);
    }

    #[test]
    fn ascending_ranks_pass_and_pop() {
        let a = Mutex::new(());
        let b = RwLock::new(());
        a.set_rank(10);
        b.set_rank(20);
        {
            let _ga = a.lock();
            assert_eq!(rank::snapshot(), vec![10]);
            let _gb = b.write();
            assert_eq!(rank::snapshot(), vec![10, 20]);
        }
        assert!(rank::snapshot().is_empty());
    }

    #[test]
    #[should_panic(expected = "lock-rank violation")]
    fn descending_ranks_panic() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        a.set_rank(20);
        b.set_rank(10);
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    #[should_panic(expected = "lock-rank violation")]
    fn equal_ranks_panic() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        a.set_rank(10);
        b.set_rank(10);
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    fn reentrant_tokens_allow_siblings_but_not_descent() {
        let _ra = rank::held_reentrant(30);
        let _rb = rank::held_reentrant(30);
        assert_eq!(rank::snapshot(), vec![30, 30]);
        let up = rank::held(40);
        drop(up);
        drop(_rb);
        drop(_ra);
        assert!(rank::snapshot().is_empty());
    }

    #[test]
    #[should_panic(expected = "lock-rank violation")]
    fn reentrant_token_still_blocks_descent() {
        let _hi = rank::held(50);
        let _lo = rank::held_reentrant(30);
    }

    #[test]
    fn try_lock_pushes_unchecked() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        a.set_rank(20);
        b.set_rank(10);
        let _ga = a.lock();
        // Out-of-order try_lock is legal (it cannot deadlock)...
        let gb = b.try_lock().expect("uncontended");
        assert_eq!(rank::snapshot(), vec![20, 10]);
        drop(gb);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the waiter must block first")]
    fn condvar_wait_keeps_token() {
        use std::sync::Arc;
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        m.set_rank(10);
        let m2 = Arc::clone(&m);
        let cv2 = Arc::clone(&cv);
        let t = std::thread::spawn(move || {
            let mut g = m2.lock();
            while !*g {
                cv2.wait(&mut g);
            }
            assert_eq!(rank::snapshot(), vec![10]);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        *m.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn rank_names_resolve() {
        assert_eq!(lockrank::name(lockrank::QCOW_STATE), "qcow.state");
        assert_eq!(lockrank::name(lockrank::QCOW_STATE_TOP), "qcow.state");
        assert_eq!(lockrank::name(lockrank::DEV_LEAF), "dev.leaf");
        assert_eq!(lockrank::name(3), "unregistered");
    }
}
