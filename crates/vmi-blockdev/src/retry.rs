//! Retry with deterministic backoff for transient block-device faults.
//!
//! The paper's deployment chains reach the base image over NFS (§5) — the
//! one hop in the stack where transient I/O faults are a fact of life.
//! [`RetryDev`] wraps any [`BlockDev`] and retries operations that fail with
//! a *transient* error ([`BlockError::is_transient`]) according to a
//! [`RetryPolicy`]: a bounded number of attempts separated by an exponential
//! backoff schedule with seeded jitter.
//!
//! Everything is deterministic by construction: the jitter RNG is seeded
//! from [`RetryPolicy::seed`], and delays are *charged*, not slept — a
//! pluggable sleep hook receives each backoff duration so tests advance a
//! manual sim clock and the simulator can price the wait, while production
//! callers may actually sleep. With no hook installed the delay is computed
//! (and reported via observability) but costs nothing, which keeps the
//! decorator usable in pure in-memory tests.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{lockrank, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmi_obs::{met, Event, Obs};

use crate::{BlockDev, Result, SharedDev};

/// Deterministic backoff policy for [`RetryDev`].
///
/// Attempt `i` (0-based retry index) waits
/// `min(base_delay_ns << i, max_delay_ns)` scaled by a jitter factor drawn
/// uniformly from `[1 - jitter_frac, 1 + jitter_frac)` using a SplitMix64
/// RNG seeded with `seed`. The full schedule is a pure function of the
/// policy — see [`RetryPolicy::schedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Delay before the first retry, in (simulated) nanoseconds.
    pub base_delay_ns: u64,
    /// Cap applied to the exponential schedule before jitter.
    pub max_delay_ns: u64,
    /// Jitter amplitude as a fraction of the delay (`0.0` = none,
    /// `0.5` = each delay scaled by a factor in `[0.5, 1.5)`).
    pub jitter_frac: f64,
    /// Seed for the jitter RNG; the schedule is a pure function of it.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// Four attempts, 100 µs base doubling to a 10 ms cap, no jitter.
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_delay_ns: 100_000,
            max_delay_ns: 10_000_000,
            jitter_frac: 0.0,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts and the default timings.
    pub fn attempts(max_attempts: u32) -> Self {
        Self {
            max_attempts,
            ..Self::default()
        }
    }

    /// Builder-style seed override (also the jitter stream selector).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style jitter override.
    pub fn with_jitter(mut self, jitter_frac: f64) -> Self {
        self.jitter_frac = jitter_frac;
        self
    }

    /// Raw (pre-jitter) delay for 0-based retry index `i`.
    fn raw_delay_ns(&self, i: u32) -> u64 {
        self.base_delay_ns
            .checked_shl(i)
            .unwrap_or(u64::MAX)
            .min(self.max_delay_ns)
    }

    /// Delay before retry `i` (0-based), drawing jitter from `rng`.
    pub fn delay_ns(&self, i: u32, rng: &mut StdRng) -> u64 {
        let raw = self.raw_delay_ns(i);
        if self.jitter_frac <= 0.0 {
            return raw;
        }
        let amp = self.jitter_frac.min(1.0);
        let factor = 1.0 - amp + 2.0 * amp * rng.gen::<f64>();
        (raw as f64 * factor) as u64
    }

    /// The complete backoff schedule (one delay per possible retry),
    /// computed with a fresh RNG seeded from `self.seed`. Deterministic:
    /// equal policies produce equal schedules.
    pub fn schedule(&self) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.max_attempts.saturating_sub(1))
            .map(|i| self.delay_ns(i, &mut rng))
            .collect()
    }
}

/// Hook invoked with each backoff delay (in nanoseconds) before a retry.
type SleepHook = Box<dyn Fn(u64) + Send + Sync>;

/// Retrying decorator around any [`BlockDev`].
///
/// Transient errors from `read_at`, `write_at`, `set_len` and `flush` are
/// retried up to the policy's attempt budget; permanent errors and
/// exhausted budgets propagate unchanged. Each retry counts
/// [`met::RETRY_ATTEMPTS`] and emits an [`Event::RetryAttempt`].
///
/// Thread-safety: the jitter RNG and sleep hook are mutex-guarded (held
/// only to draw / clone, never across the inner I/O or the sleep itself),
/// and the stats are atomics — concurrent requests retry independently
/// without serializing on each other.
pub struct RetryDev {
    inner: SharedDev,
    policy: RetryPolicy,
    rng: Mutex<StdRng>,
    obs: Obs,
    sleep: Mutex<Option<SleepHook>>,
    retries: AtomicU64,
    exhausted: AtomicU64,
}

impl RetryDev {
    /// Wrap `inner` with `policy` and observability disabled.
    pub fn new(inner: SharedDev, policy: RetryPolicy) -> Self {
        Self::with_obs(inner, policy, Obs::disabled())
    }

    /// Wrap `inner` with `policy`, reporting retries through `obs`.
    pub fn with_obs(inner: SharedDev, policy: RetryPolicy, obs: Obs) -> Self {
        let rng = Mutex::new(StdRng::seed_from_u64(policy.seed));
        rng.set_rank(lockrank::DEV_RETRY);
        let sleep = Mutex::new(None);
        sleep.set_rank(lockrank::DEV_RETRY);
        Self {
            inner,
            policy,
            rng,
            obs,
            sleep,
            retries: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
        }
    }

    /// Install the backoff sleep hook. It receives each computed delay in
    /// nanoseconds; tests typically advance a [`vmi_obs::ManualClock`], the
    /// simulator charges the wait as operation latency.
    pub fn set_sleep_hook(&self, hook: impl Fn(u64) + Send + Sync + 'static) {
        *self.sleep.lock() = Some(Box::new(hook));
    }

    /// Total retries performed (excludes first attempts).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Operations that failed even after the full attempt budget.
    pub fn exhausted(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }

    /// The policy driving this device.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    fn run<T>(&self, op: &'static str, f: impl FnMut() -> Result<T>) -> Result<T> {
        self.run_in(op, None, f)
    }

    fn run_in<T>(
        &self,
        op: &'static str,
        parent: Option<vmi_obs::SpanId>,
        mut f: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let budget = self.policy.max_attempts.max(1);
        let mut attempt: u32 = 0;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt + 1 < budget => {
                    let delay = self.policy.delay_ns(attempt, &mut self.rng.lock());
                    attempt += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.obs.count(met::RETRY_ATTEMPTS, 1);
                    self.obs.emit(|| Event::RetryAttempt {
                        op: op.to_string(),
                        attempt: attempt as u64,
                        delay_ns: delay,
                    });
                    // The backoff wait is a traced child of the operation
                    // that caused it: the span brackets the sleep-hook call,
                    // so under a sim clock its duration is the charged delay.
                    let span = self.obs.span_in(parent, "retry.backoff", || {
                        format!("op={op} attempt={attempt} delay_ns={delay}")
                    });
                    if let Some(hook) = self.sleep.lock().as_ref() {
                        hook(delay);
                    }
                    drop(span);
                }
                Err(e) => {
                    if e.is_transient() {
                        self.exhausted.fetch_add(1, Ordering::Relaxed);
                        self.obs.count(met::RETRY_EXHAUSTED, 1);
                    }
                    return Err(e);
                }
            }
        }
    }
}

impl BlockDev for RetryDev {
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        self.run("read", || self.inner.read_at(buf, off))
    }

    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        self.run("write", || self.inner.write_at(buf, off))
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.run("set_len", || self.inner.set_len(len))
    }

    fn flush(&self) -> Result<()> {
        self.run("flush", || self.inner.flush())
    }

    // A coalesced run retries as a unit: a transient fault anywhere in the
    // run re-issues the whole run, never a partial tail.
    fn read_run_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        self.run("read_run", || self.inner.read_run_at(buf, off))
    }

    fn write_run_at(&self, buf: &[u8], off: u64) -> Result<()> {
        self.run("write_run", || self.inner.write_run_at(buf, off))
    }

    // Span-threaded variants: backoff spans parent under the caller's span,
    // and the parent travels on to the inner device (which may itself be
    // traced, e.g. an image layer over this decorator).
    fn read_at_in(&self, buf: &mut [u8], off: u64, parent: Option<vmi_obs::SpanId>) -> Result<()> {
        self.run_in("read", parent, || self.inner.read_at_in(buf, off, parent))
    }

    fn write_at_in(&self, buf: &[u8], off: u64, parent: Option<vmi_obs::SpanId>) -> Result<()> {
        self.run_in("write", parent, || self.inner.write_at_in(buf, off, parent))
    }

    fn read_run_at_in(
        &self,
        buf: &mut [u8],
        off: u64,
        parent: Option<vmi_obs::SpanId>,
    ) -> Result<()> {
        self.run_in("read_run", parent, || {
            self.inner.read_run_at_in(buf, off, parent)
        })
    }

    fn write_run_at_in(&self, buf: &[u8], off: u64, parent: Option<vmi_obs::SpanId>) -> Result<()> {
        self.run_in("write_run", parent, || {
            self.inner.write_run_at_in(buf, off, parent)
        })
    }

    fn inner_dev(&self) -> Option<&SharedDev> {
        Some(&self.inner)
    }

    fn describe(&self) -> String {
        format!("retry({})", self.inner.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockErrorKind, FaultDev, FaultPlan, FaultSite, MemDev};
    use std::sync::Arc;

    fn flaky(plan: FaultPlan) -> (Arc<FaultDev>, RetryDev) {
        let mem = Arc::new(MemDev::with_len(4096));
        mem.write_at(&[7u8; 512], 0).unwrap();
        let fault = Arc::new(FaultDev::new(mem));
        fault.inject(plan);
        let dev = RetryDev::new(fault.clone(), RetryPolicy::attempts(4));
        (fault, dev)
    }

    #[test]
    fn transient_fault_is_retried_to_success() {
        let (_fault, dev) = flaky(FaultPlan::FailK {
            site: FaultSite::Read,
            k: 2,
            kind: BlockErrorKind::Io,
        });
        let mut buf = [0u8; 512];
        dev.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [7u8; 512]);
        assert_eq!(dev.retries(), 2);
        assert_eq!(dev.exhausted(), 0);
    }

    #[test]
    fn budget_exhaustion_propagates_the_error() {
        let (_fault, dev) = flaky(FaultPlan::FailK {
            site: FaultSite::Read,
            k: 10, // longer than the 4-attempt budget
            kind: BlockErrorKind::Io,
        });
        let mut buf = [0u8; 512];
        let err = dev.read_at(&mut buf, 0).unwrap_err();
        assert_eq!(err.kind(), BlockErrorKind::Io);
        assert_eq!(dev.retries(), 3, "4 attempts = 3 retries");
        assert_eq!(dev.exhausted(), 1);
    }

    #[test]
    fn permanent_errors_fail_fast() {
        let (_fault, dev) = flaky(FaultPlan::NthOp {
            site: FaultSite::Read,
            n: 0,
            kind: BlockErrorKind::Corrupt,
        });
        let mut buf = [0u8; 512];
        let err = dev.read_at(&mut buf, 0).unwrap_err();
        assert_eq!(err.kind(), BlockErrorKind::Corrupt);
        assert_eq!(dev.retries(), 0, "no retry on a permanent error");
    }

    #[test]
    fn flush_and_write_are_retried_too() {
        let (_fault, dev) = flaky(FaultPlan::NthOp {
            site: FaultSite::Flush,
            n: 0,
            kind: BlockErrorKind::Io,
        });
        dev.write_at(&[1u8; 16], 0).unwrap();
        dev.flush().unwrap();
        assert_eq!(dev.retries(), 1);
    }

    #[test]
    fn sleep_hook_receives_the_schedule() {
        let (_fault, dev) = flaky(FaultPlan::FailK {
            site: FaultSite::Read,
            k: 3,
            kind: BlockErrorKind::Io,
        });
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        dev.set_sleep_hook(move |ns| seen2.lock().push(ns));
        let mut buf = [0u8; 16];
        dev.read_at(&mut buf, 0).unwrap();
        let expected = dev.policy().schedule();
        assert_eq!(*seen.lock(), expected[..3].to_vec());
    }

    #[test]
    fn backoff_spans_are_balanced_and_parented() {
        let mem = Arc::new(MemDev::with_len(4096));
        let fault = Arc::new(FaultDev::new(mem));
        fault.inject(FaultPlan::FailK {
            site: FaultSite::Read,
            k: 2,
            kind: BlockErrorKind::Io,
        });
        let sink = vmi_obs::JsonlSink::new();
        let clock = Arc::new(vmi_obs::ManualClock::new(0));
        let obs = Obs::new(clock.clone(), sink.clone());
        let dev = RetryDev::with_obs(fault, RetryPolicy::attempts(4), obs.clone());
        let clock2 = clock.clone();
        dev.set_sleep_hook(move |ns| clock2.advance(ns));

        let root = obs.span("qcow.read", String::new);
        let root_id = root.id().unwrap().0;
        let mut buf = [0u8; 16];
        dev.read_at_in(&mut buf, 0, root.id()).unwrap();
        drop(root);

        let events = sink.events();
        let mut open: Vec<u64> = Vec::new();
        let mut backoffs = 0;
        for (_, e) in &events {
            match e {
                Event::SpanStart {
                    id, parent, kind, ..
                } => {
                    if kind == "retry.backoff" {
                        assert_eq!(*parent, root_id, "backoff parents under the caller");
                        backoffs += 1;
                    }
                    open.push(*id);
                }
                Event::SpanEnd { id, .. } => {
                    assert_eq!(open.pop(), Some(*id), "spans nest properly");
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "every span closed");
        assert_eq!(backoffs, 2, "one backoff span per retry");
        // The backoff span's duration equals the charged delay.
        let schedule = dev.policy().schedule();
        let start = events
            .iter()
            .find(|(_, e)| matches!(e, Event::SpanStart { kind, .. } if kind == "retry.backoff"))
            .map(|(t, _)| *t)
            .unwrap();
        let first_backoff_id = match &events
            .iter()
            .find(|(_, e)| matches!(e, Event::SpanStart { kind, .. } if kind == "retry.backoff"))
            .unwrap()
            .1
        {
            Event::SpanStart { id, .. } => *id,
            _ => unreachable!(),
        };
        let end = events
            .iter()
            .find(|(_, e)| matches!(e, Event::SpanEnd { id, .. } if *id == first_backoff_id))
            .map(|(t, _)| *t)
            .unwrap();
        assert_eq!(end - start, schedule[0]);
    }

    #[test]
    fn schedule_is_exponential_capped_and_deterministic() {
        let p = RetryPolicy {
            max_attempts: 6,
            base_delay_ns: 1_000,
            max_delay_ns: 6_000,
            jitter_frac: 0.0,
            seed: 9,
        };
        assert_eq!(p.schedule(), vec![1_000, 2_000, 4_000, 6_000, 6_000]);
        let jittered = p.clone().with_jitter(0.5);
        assert_eq!(jittered.schedule(), jittered.schedule(), "same seed");
        assert_ne!(
            jittered.schedule(),
            jittered.clone().with_seed(10).schedule(),
            "different seeds diverge"
        );
        for (d, raw) in jittered.schedule().iter().zip(p.schedule()) {
            let lo = raw / 2;
            let hi = raw + raw / 2;
            assert!((lo..=hi).contains(d), "jittered {d} outside [{lo}, {hi}]");
        }
    }
}
