//! Disaggregated storage tiers for Doppio.
//!
//! The paper's device menu is node-local HDD/SSD behind HDFS. Modern
//! deployments instead read input from a shared object store (S3-like:
//! per-request latency plus a cluster-wide aggregate bandwidth cap),
//! optionally fronted by an Alluxio-style cache tier, or from a shared
//! parallel filesystem (Lustre/burst-buffer shape) on supercomputers.
//!
//! This crate describes those shapes as pure data: a [`StorageProfile`]
//! selects the tier and carries its parameters, and
//! [`StorageProfile::remote_device`] lowers the shared remote side to an
//! ordinary [`DeviceSpec`](doppio_storage::DeviceSpec) whose effective-bandwidth curve encodes the
//! per-request latency (`BW(rs) = rs / (latency + rs / peak)`). The cluster
//! runtime instantiates that spec as one extra processor-sharing rate domain
//! shared by every node — the same machinery as a local disk, so replay,
//! harvest-horizon and bit-identity discipline all apply unchanged.
//!
//! The cache tier stays deterministic because the hit ratio is a pure
//! function of working-set size versus aggregate cache capacity
//! ([`hit_ratio`]), and each flow is split byte-exactly into a hit part
//! (local device speed) and a miss part (remote path) — no sampling.

mod profile;

pub use profile::{
    hit_ratio, CacheSpec, ObjectStoreSpec, ParallelFsSpec, StorageProfile, PROFILE_NAMES,
};
