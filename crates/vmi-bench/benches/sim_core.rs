//! Microbenchmarks of the simulation substrate: event queue, disk model,
//! page cache, interval set. These bound how fast the figure harness can
//! evaluate experiment points.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use vmi_sim::{CacheOutcome, Disk, DiskSpec, EventKey, Link, NetSpec, PageCache, Shard};
use vmi_trace::RangeSet;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("push_pop_10k", |b| {
        b.iter(|| {
            let mut q = Shard::default();
            for i in 0..10_000u64 {
                // Pseudo-random times to exercise heap reordering.
                let at = i.wrapping_mul(2654435761) % 1_000_000;
                q.push(
                    EventKey {
                        at,
                        lane: 0,
                        tag: 0,
                        a: i,
                        b: 0,
                    },
                    (),
                );
            }
            let mut last = 0;
            while let Some((key, ())) = q.pop() {
                debug_assert!(key.at >= last);
                last = key.at;
            }
            last
        })
    });
    g.finish();
}

fn bench_disk_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("disk_model");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("sequential_10k", |b| {
        b.iter(|| {
            let mut d = Disk::new(DiskSpec::das4_storage_raid0());
            let mut t = 0;
            for i in 0..10_000u64 {
                t = d.access(t, i * 65536, 65536, false);
            }
            t
        })
    });
    g.bench_function("random_10k", |b| {
        b.iter(|| {
            let mut d = Disk::new(DiskSpec::das4_storage_raid0());
            let mut t = 0;
            for i in 0..10_000u64 {
                t = d.access(
                    t,
                    (i.wrapping_mul(2654435761) % 4096) * (16 << 20),
                    65536,
                    false,
                );
            }
            t
        })
    });
    g.finish();
}

fn bench_link_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("link_model");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("transfer_10k", |b| {
        b.iter(|| {
            let mut l = Link::new(NetSpec::gbe_1());
            let mut t = 0;
            for _ in 0..10_000 {
                t = l.transfer(t, 16 * 1024);
            }
            t
        })
    });
    g.finish();
}

fn bench_page_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("page_cache");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("probe_insert_mixed", |b| {
        b.iter(|| {
            let mut pc = PageCache::new(64 << 20, 65536);
            let mut hits = 0u64;
            for i in 0..10_000u64 {
                let key = (1, i % 2048);
                match pc.probe(key, i) {
                    CacheOutcome::Hit { .. } => hits += 1,
                    CacheOutcome::Miss => pc.insert(key, i),
                }
            }
            hits
        })
    });
    g.finish();
}

fn bench_rangeset(c: &mut Criterion) {
    let mut g = c.benchmark_group("rangeset");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("insert_10k_scattered", |b| {
        b.iter(|| {
            let mut rs = RangeSet::new();
            for i in 0..10_000u64 {
                let s = (i.wrapping_mul(2654435761)) % (1 << 30);
                rs.insert(s, s + 4096);
            }
            rs.covered()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_disk_model,
    bench_link_model,
    bench_page_cache,
    bench_rangeset
);
criterion_main!(benches);
