//! `guest_rw`: a running VM's disk over serial NBD. The server exports a CoW
//! image over a private warm cache over the local base; the guest issues
//! 70 % reads and 30 % writes at extents the boot trace reads, chosen by the
//! seeded stream, and a FLUSH after every 64 writes. One unit is a block of
//! requests on a fresh CoW image, so that every unit allocates and copies
//! up as the first did; the cache container lives as long as the pass.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use vmi_blockdev::{BlockDev, Result, SharedDev};
use vmi_cluster::deploy::{build_chain, ChainSpec, Mode, Placement};
use vmi_nbd::{NbdClient, NbdServer};
use vmi_obs::Obs;

use crate::fixture::{
    cache_layer, Fixture, GuestOp, Oracle, Scratch, UnsyncedFile, XorShift, CACHE_CLUSTER_BITS,
};
use crate::spandev::{Phase, Recorder, Role};
use crate::workload::{check_images, ns_since, Guest, Unit, Workload};

const WRITES_PER_FLUSH: u64 = 64;

pub struct GuestRw<'a> {
    fx: &'a Fixture,
    server: NbdServer,
    rec: Arc<Recorder>,
    cache_path: PathBuf,
    cow_path: PathBuf,
    extents: Vec<GuestOp>,
    ops_per_unit: usize,
    stream: XorShift,
    guest: Guest,
}

impl<'a> GuestRw<'a> {
    pub fn new(
        fx: &'a Fixture,
        dir: &Scratch,
        tag: &str,
        rec: Arc<Recorder>,
        ops_per_unit: usize,
    ) -> Result<Self> {
        let cache_path = dir.path(&format!("{tag}-cache.img"));
        fx.copy_warm_cache(&cache_path)?;
        Ok(Self {
            fx,
            server: NbdServer::start("127.0.0.1:0")?,
            cache_path,
            cow_path: dir.path(&format!("{tag}-cow.img")),
            extents: fx.ops.iter().filter(|o| !o.write).copied().collect(),
            ops_per_unit,
            stream: XorShift::new(fx.seed),
            guest: Guest::new(rec.clone()),
            rec,
        })
    }
}

impl Workload for GuestRw<'_> {
    fn unit(&mut self, mut verify: Option<&mut Oracle>, lat: &mut Vec<u32>) -> Result<Unit> {
        // Deployment is the boots' subject; here it is not timed.
        self.rec.set_phase(Phase::Build);
        let base: SharedDev = self.fx.open_base()?;
        let cache_dev = UnsyncedFile::open(&self.cache_path)?;
        let cow_dev = UnsyncedFile::create(&self.cow_path)?;
        let chain = build_chain(ChainSpec {
            mode: Mode::WarmCache {
                placement: Placement::ComputeDisk,
                quota: self.fx.roomy_quota,
                cluster_bits: CACHE_CLUSTER_BITS,
            },
            profile: &self.fx.profile,
            base_dev: self.rec.wrap(Role::Base, base),
            cache_dev: Some(self.rec.wrap(Role::Cache, cache_dev)),
            cow_dev: self.rec.wrap(Role::Cow, cow_dev),
            cache_read_only: false,
            obs: Obs::disabled(),
        })?;
        // What `NbdServer::add_image` does, with the exported device wrapped.
        self.server
            .add_export("vm", self.rec.wrap(Role::Export, chain.clone()), false);
        let disk = NbdClient::connect(&self.server.addr().to_string(), "vm")?;

        let mut unit = Unit::default();
        let before = self.rec.snapshot();
        let served = self.server.served_requests();
        let mut unflushed = 0;
        let started = Instant::now();
        for _ in 0..self.ops_per_unit {
            let draw = self.stream.next();
            let op = self.extents[(draw >> 8) as usize % self.extents.len()];
            let write = draw % 10 >= 7;
            self.guest
                .request(&disk, write, op, &mut verify, &mut unit, lat);
            unflushed += write as u64;
            if unflushed == WRITES_PER_FLUSH {
                unflushed = 0;
                let t = Instant::now();
                let flushed = disk.flush();
                unit.note_op(true, 0, ns_since(t), flushed.is_ok(), lat);
            }
        }
        unit.wall_ns = ns_since(started);
        unit.devs = self.rec.snapshot().since(&before);
        unit.nbd_requests = self.server.served_requests() - served;
        let cache = cache_layer(&chain)?;
        unit.cor = cache.cor_stats();
        unit.cache_used = cache.cache_used();
        unit.store_bytes = cache.file_size() + chain.file_size();
        if verify.is_some() {
            check_images(&chain, &mut unit)?;
        }
        drop(disk);
        self.server.remove_export("vm");
        Ok(unit)
    }
}
