//! `boot_cold`, `boot_quota`, `boot_warm`: one unit is one VM boot on a
//! compute node — attach the base over NBD, build the chain with
//! `deploy::build_chain`, replay the boot trace on the CoW image.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use vmi_blockdev::{MemDev, Result, SharedDev};
use vmi_cluster::deploy::{build_chain, ChainSpec, Mode, Placement};
use vmi_nbd::{NbdClient, NbdServer};
use vmi_obs::Obs;
use vmi_qcow::QcowImage;

use crate::fixture::{cache_layer, Fixture, Oracle, Scratch, UnsyncedFile, CACHE_CLUSTER_BITS};
use crate::spandev::{Io, Phase, Recorder, Role};
use crate::workload::{check_images, ns_since, Guest, Kind, Unit, Workload};

pub struct Boot<'a> {
    fx: &'a Fixture,
    kind: Kind,
    rec: Arc<Recorder>,
    /// The storage node: the base image as export `base`, served serially.
    server: NbdServer,
    obs: Obs,
    quota: u64,
    cow_path: PathBuf,
    /// `boot_warm`: this node's private copy of the warm cache container.
    warm_copy: PathBuf,
    guest: Guest,
}

impl<'a> Boot<'a> {
    pub fn new(
        fx: &'a Fixture,
        dir: &Scratch,
        tag: &str,
        kind: Kind,
        rec: Arc<Recorder>,
        obs: Obs,
    ) -> Result<Self> {
        let warm_copy = dir.path(&format!("{tag}-cache.img"));
        if kind == Kind::BootWarm {
            fx.copy_warm_cache(&warm_copy)?;
        }
        let server = NbdServer::start("127.0.0.1:0")?;
        let base: SharedDev = fx.open_base()?;
        server.add_export("base", rec.wrap(Role::Export, base), true);
        Ok(Self {
            fx,
            kind,
            server,
            obs,
            quota: match kind {
                Kind::BootQuota => fx.ws_bytes / 2,
                _ => fx.roomy_quota,
            },
            cow_path: dir.path(&format!("{tag}-cow.img")),
            warm_copy,
            guest: Guest::new(rec.clone()),
            rec,
        })
    }

    fn build(&self, base: NbdClient) -> Result<Arc<QcowImage>> {
        let (mode, cache_dev): (Mode, SharedDev) = if self.kind == Kind::BootWarm {
            (
                Mode::WarmCache {
                    placement: Placement::ComputeDisk,
                    quota: self.quota,
                    cluster_bits: CACHE_CLUSTER_BITS,
                },
                UnsyncedFile::open(&self.warm_copy)?,
            )
        } else {
            (
                Mode::ColdCache {
                    placement: Placement::ComputeMem,
                    quota: self.quota,
                    cluster_bits: CACHE_CLUSTER_BITS,
                },
                Arc::new(MemDev::new()),
            )
        };
        let cow_dev = UnsyncedFile::create(&self.cow_path)?;
        build_chain(ChainSpec {
            mode,
            profile: &self.fx.profile,
            base_dev: self.rec.wrap(Role::Base, Arc::new(base)),
            cache_dev: Some(self.rec.wrap(Role::Cache, cache_dev)),
            cow_dev: self.rec.wrap(Role::Cow, cow_dev),
            cache_read_only: false,
            obs: self.obs.clone(),
        })
    }

    /// The invariants of the verification unit; a broken one leaves a
    /// sentence in `unit.broken`.
    fn check_invariants(&self, chain: &QcowImage, unit: &mut Unit) -> Result<()> {
        check_images(chain, unit)?;
        let wire = unit.devs.sum(Role::Export, None, Some(Io::Read)).bytes;
        let broken = match self.kind {
            Kind::BootWarm if wire != 0 => {
                format!("warm boot pulled {wire} bytes from the base export")
            }
            Kind::BootQuota if unit.cache_used > self.quota => {
                format!(
                    "cache uses {} bytes of a quota of {}",
                    unit.cache_used, self.quota
                )
            }
            Kind::BootQuota if unit.cor.fill_rejects == 0 => {
                "quota was never reached: no fill was rejected".into()
            }
            _ => return Ok(()),
        };
        unit.broken.push(broken);
        Ok(())
    }
}

impl Workload for Boot<'_> {
    fn unit(&mut self, mut verify: Option<&mut Oracle>, lat: &mut Vec<u32>) -> Result<Unit> {
        let mut unit = Unit::default();
        let before = self.rec.snapshot();
        let served = self.server.served_requests();
        self.rec.set_phase(Phase::Build);
        let started = Instant::now();
        let base = NbdClient::connect(&self.server.addr().to_string(), "base")?;
        unit.connect_ns = ns_since(started);
        let chain = self.build(base)?;
        unit.build_ns = ns_since(started) - unit.connect_ns;
        for &op in &self.fx.ops {
            self.guest
                .request(chain.as_ref(), op.write, op, &mut verify, &mut unit, lat);
        }
        unit.wall_ns = ns_since(started);
        unit.devs = self.rec.snapshot().since(&before);
        unit.nbd_requests = self.server.served_requests() - served;
        let cache = cache_layer(&chain)?;
        unit.cor = cache.cor_stats();
        unit.cache_used = cache.cache_used();
        unit.store_bytes = cache.file_size() + chain.file_size();
        if verify.is_some() {
            self.check_invariants(&chain, &mut unit)?;
            drop(chain);
            // Immutability with respect to the base: a warm boot leaves its
            // cache container as it found it.
            if self.kind == Kind::BootWarm && !self.fx.warm_cache_unchanged(&self.warm_copy)? {
                unit.broken
                    .push("warm boot changed its cache container".into());
            }
        }
        Ok(unit)
    }
}
