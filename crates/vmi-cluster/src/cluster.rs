//! The one byte-level cluster under every runner.
//!
//! Every point of the paper's evaluation is the same experiment: compute
//! nodes boot VMs through image chains whose bases one storage node exports
//! (§5). [`Cluster`] is that testbed built once — simulated world, storage
//! node, the run's observability handle, a catalog of one boot trace and
//! one base export per VMI, and the compute nodes — with one deploy step
//! ([`Cluster::deploy`], or [`Cluster::deploy_hybrid`] for Algorithm 1's
//! storage-cache branch). The runner (`runner.rs`) calls it at each
//! arrival and decides around it: which node, which [`Mode`], which cache
//! container, when.

use std::sync::Arc;

use vmi_blockdev::{Result, SharedDev, SparseDev};
use vmi_obs::{Obs, RecorderHandle};
use vmi_qcow::{CreateOpts, QcowImage};
use vmi_remote::{NfsExport, NfsMount};
use vmi_sim::{NetSpec, Ns, SimWorld};
use vmi_trace::{BootTrace, VmiProfile};

use crate::deploy::{build_chain, ChainSpec, Mode, WarmCache};
use crate::node::{ComputeNode, StorageNode};
use crate::vm::VmRun;

/// One catalog entry: what every boot of the VMI shares.
pub(crate) struct Vmi {
    /// The boot I/O sequence.
    pub trace: Arc<BootTrace>,
    /// The base image on the storage node's disk.
    pub base: Arc<NfsExport>,
}

/// Where a deployment's cache container comes from. Modes that keep no
/// cache on the node ([`Mode::Qcow2`]) ignore a [`CacheSource::Local`].
pub(crate) enum CacheSource<'a> {
    /// A container private to the compute node, placed on the medium the
    /// mode names.
    Local(Arc<SparseDev>),
    /// A private copy of a warm container, forked when the VM is deployed
    /// and then local like [`CacheSource::Local`].
    Fork(&'a SparseDev),
    /// A warm cache exported from storage memory, mounted read-only and
    /// shared by every node that boots the VMI (Fig. 13 bottom).
    Shared(&'a Arc<NfsExport>),
}

impl CacheSource<'_> {
    /// A new, empty node-local container.
    pub(crate) fn fresh() -> Self {
        Self::Local(Arc::new(SparseDev::new()))
    }
}

/// The simulated testbed of one run.
pub(crate) struct Cluster<'a> {
    /// The shared timeline and resource registry.
    pub world: SimWorld,
    /// The storage node every base (and tmpfs cache) is exported from.
    pub storage: StorageNode,
    /// The run's observability handle, stamped with simulated time.
    pub obs: Obs,
    /// The VMI catalog, indexed by VMI id.
    pub vmis: Vec<Vmi>,
    /// The compute nodes, indexed by node id.
    pub nodes: Vec<ComputeNode>,
    /// The boot workload every VMI of the run shares.
    pub profile: &'a VmiProfile,
}

impl<'a> Cluster<'a> {
    /// Build the testbed: `nodes` compute nodes and one VMI of `profile`
    /// per entry of `trace_seeds`, each with its own trace and base export.
    pub(crate) fn new(
        profile: &'a VmiProfile,
        net: NetSpec,
        recorder: &RecorderHandle,
        nodes: usize,
        trace_seeds: impl IntoIterator<Item = u64>,
    ) -> Self {
        let world = SimWorld::new();
        let obs = recorder.attach(world.obs_clock());
        let mut storage = StorageNode::new(&world, net);
        let vmis = trace_seeds
            .into_iter()
            .map(|seed| Vmi {
                trace: Arc::new(vmi_trace::generate(profile, seed)),
                base: storage.create_base_vmi(profile.virtual_size),
            })
            .collect();
        let nodes = (0..nodes).map(|i| ComputeNode::new(&world, i)).collect();
        Self {
            world,
            storage,
            obs,
            vmis,
            nodes,
            profile,
        }
    }

    /// `export` as a compute node sees it: an NFS mount over the storage NIC.
    pub(crate) fn mount(&self, export: &Arc<NfsExport>) -> SharedDev {
        NfsMount::new(export.clone(), self.storage.nic)
    }

    /// Deploy one VM of `vmi` on `node` at `start_at`: mount the base, place
    /// the cache container, make the CoW file on the node's disk, and build
    /// the `mode` chain. Returns the chain's top image and the boot to run.
    pub(crate) fn deploy(
        &mut self,
        node: usize,
        vmi: usize,
        mode: Mode,
        cache: CacheSource<'_>,
        start_at: Ns,
    ) -> Result<(Arc<QcowImage>, VmRun)> {
        let (cache_dev, cache_read_only) = match cache {
            CacheSource::Shared(export) => (Some(self.mount(export)), true),
            CacheSource::Local(container) => (self.nodes[node].cache_file(mode, container), false),
            CacheSource::Fork(warm) => {
                let container = Arc::new(warm.fork());
                (self.nodes[node].cache_file(mode, container), false)
            }
        };
        let spec = ChainSpec {
            mode,
            profile: self.profile,
            base_dev: self.mount(&self.vmis[vmi].base),
            cache_dev,
            cow_dev: self.nodes[node].disk_file(Arc::new(SparseDev::new()), false),
            cache_read_only,
            obs: self.obs.clone(),
        };
        self.boot(node, vmi, start_at, || build_chain(spec))
    }

    /// Deploy the §6 hybrid chain for `vmi` on `node` at `start_at`: a *new
    /// local cache* in the node's memory, chained to `storage_cache` exported
    /// from the storage node's memory, chained to the base — Algorithm 1's
    /// storage-cache branch (see [`Deploy`](crate::runner::Deploy)). The
    /// local cache starts cold and warms from the remote cache, never from
    /// the storage disk.
    pub(crate) fn deploy_hybrid(
        &mut self,
        node: usize,
        vmi: usize,
        storage_cache: &WarmCache,
        local_quota: u64,
        start_at: Ns,
    ) -> Result<(Arc<QcowImage>, VmRun)> {
        let cache_export = self
            .storage
            .export_on_tmpfs(storage_cache.container.clone() as SharedDev);
        let remote_cache_dev = self.mount(&cache_export);
        let base_dev = self.mount(&self.vmis[vmi].base);
        let vsize = self.profile.virtual_size;
        let local_cache_dev = self.nodes[node].mem_file(Arc::new(SparseDev::new()));
        let cow_dev = self.nodes[node].disk_file(Arc::new(SparseDev::new()), false);
        self.boot(node, vmi, start_at, || {
            // The remote warm cache opens read-only (it is shared).
            let remote_cache = QcowImage::open(remote_cache_dev, Some(base_dev), true)?;
            // "Create NewCache_base on C; Chain NewCache_base to Cache_base".
            let local_cache = QcowImage::create(
                local_cache_dev,
                CreateOpts::cache(vsize, "storage-cache", local_quota),
                Some(remote_cache as SharedDev),
            )?;
            QcowImage::create(
                cow_dev,
                CreateOpts::cow(vsize, "local-cache"),
                Some(local_cache as SharedDev),
            )
        })
    }

    /// Run `build` inside one op window opened at `start_at` and wrap the
    /// chain it returns as a boot of `vmi`. Chain creation is part of the
    /// measured boot (the paper times from "invoking KVM"), so what the
    /// window priced becomes the boot's setup time.
    fn boot(
        &self,
        node: usize,
        vmi: usize,
        start_at: Ns,
        build: impl FnOnce() -> Result<Arc<QcowImage>>,
    ) -> Result<(Arc<QcowImage>, VmRun)> {
        self.world.begin_op(start_at);
        let span = self.obs.span("chain.build", || format!("node={node}"));
        let chain = build();
        drop(span);
        let setup_ns = self.world.end_op() - start_at;
        let chain = chain?;
        let run = VmRun {
            chain: chain.clone() as SharedDev,
            trace: self.vmis[vmi].trace.clone(),
            start_at,
            setup_ns,
        };
        Ok((chain, run))
    }
}
