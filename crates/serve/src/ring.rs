//! Consistent-hash ring for the shard tier.
//!
//! The router places every work request on a shard by its 128-bit
//! [`Fingerprint`] — the same canonical key the memo caches and
//! singleflight already use, so "which shard owns this request" and
//! "which cache entry would hold its result" are one question. A classic
//! vnode ring gives the placement the two properties the tier depends
//! on:
//!
//! * **Determinism** — the ring is a pure function of the shard id list
//!   and the vnode count. Every router instance (and every test) computes
//!   the same assignment; no coordination, no state.
//! * **Minimal disruption** — removing a shard deletes only that shard's
//!   vnodes; every key that hashed between two *surviving* vnodes keeps
//!   its owner. Only the dead shard's keys remap (onto their ring
//!   successors — exactly the failover order the router walks when a
//!   breaker opens).
//!
//! Hashing reuses [`FingerprintBuilder`] (SipHash-flavored 128-bit) for
//! both vnode points and keys, folded to 64 bits; no new hash code, no
//! new dependency.

use doppio_engine::{Fingerprint, FingerprintBuilder};

/// Folds a 128-bit fingerprint to the ring's 64-bit point space.
fn fold(fp: u128) -> u64 {
    ((fp >> 64) ^ fp) as u64
}

/// The ring position of a key.
fn key_point(fp: &Fingerprint) -> u64 {
    fold(fp.as_u128())
}

/// A consistent-hash ring over shard ids with virtual nodes.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard)` sorted by point; a key is owned by the first
    /// point at or after it (wrapping).
    points: Vec<(u64, u32)>,
    shards: Vec<u32>,
    vnodes: u32,
}

/// Default virtual nodes per shard: enough that load imbalance across a
/// handful of shards stays within ~±20 % (`ring_props.rs` pins this).
pub const DEFAULT_VNODES: u32 = 64;

impl HashRing {
    /// Builds the ring for `shards` (ids need not be contiguous) with
    /// `vnodes` virtual nodes each.
    pub fn new(shards: &[u32], vnodes: u32) -> HashRing {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(shards.len() * vnodes as usize);
        for &shard in shards {
            for vnode in 0..vnodes {
                let mut fb = FingerprintBuilder::new();
                fb.write_str("doppio-ring-point");
                fb.write_u64(u64::from(shard));
                fb.write_u64(u64::from(vnode));
                points.push((fold(fb.finish().as_u128()), shard));
            }
        }
        // Ties (vanishingly rare in a 64-bit space) resolve to the lower
        // shard id deterministically via the tuple order.
        points.sort_unstable();
        HashRing {
            points,
            shards: shards.to_vec(),
            vnodes,
        }
    }

    /// The shard ids this ring was built from.
    pub fn shards(&self) -> &[u32] {
        &self.shards
    }

    /// The shard owning `fp`.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty (a router is never built without
    /// shards).
    pub fn shard_for(&self, fp: &Fingerprint) -> u32 {
        self.successor_points(key_point(fp))
            .next()
            .expect("ring has at least one shard")
    }

    /// The first `n` *distinct* shards at or after `fp`'s point, in ring
    /// order. Index 0 is the owner; the rest are the replication and
    /// failover candidates, in the order the router tries them.
    pub fn successors(&self, fp: &Fingerprint, n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n.min(self.shards.len()));
        for shard in self.successor_points(key_point(fp)) {
            if !out.contains(&shard) {
                out.push(shard);
                if out.len() >= n {
                    break;
                }
            }
        }
        out
    }

    /// This ring minus one shard — the post-failure topology. Built from
    /// the same vnode hashes, so surviving shards keep every point they
    /// had (the minimal-disruption property `ring_props.rs` checks).
    pub fn without(&self, shard: u32) -> HashRing {
        let rest: Vec<u32> = self
            .shards
            .iter()
            .copied()
            .filter(|&s| s != shard)
            .collect();
        HashRing::new(&rest, self.vnodes)
    }

    /// This ring plus one shard — the inverse of
    /// [`without`](Self::without), used when a supervised shard restarts
    /// and is re-admitted. The shard's vnode points hash exactly as they
    /// did before removal, so it lands back on the same ring positions
    /// and *reclaims precisely the keys it owned* — every key that never
    /// remapped keeps its owner untouched. `ring.without(s).with(s)`
    /// reproduces the original assignment bit for bit (the id list is
    /// kept in ascending order, and points are order-independent).
    /// Re-adding a present shard is a no-op.
    pub fn with(&self, shard: u32) -> HashRing {
        if self.shards.contains(&shard) {
            return self.clone();
        }
        let mut ids = self.shards.clone();
        let at = ids.partition_point(|&s| s < shard);
        ids.insert(at, shard);
        HashRing::new(&ids, self.vnodes)
    }

    /// Walks ring points starting at the first point `>= point`,
    /// wrapping; yields each point's shard (with repeats).
    fn successor_points(&self, point: u64) -> impl Iterator<Item = u32> + '_ {
        let start = self.points.partition_point(|&(p, _)| p < point);
        self.points[start..]
            .iter()
            .chain(self.points[..start].iter())
            .map(|&(_, shard)| shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_engine::Fingerprintable;

    fn fp(n: u64) -> Fingerprint {
        n.fingerprint()
    }

    #[test]
    fn assignment_is_deterministic_and_total() {
        let a = HashRing::new(&[0, 1, 2], 32);
        let b = HashRing::new(&[0, 1, 2], 32);
        for i in 0..500 {
            let k = fp(i);
            let owner = a.shard_for(&k);
            assert_eq!(owner, b.shard_for(&k));
            assert!(a.shards().contains(&owner));
        }
    }

    #[test]
    fn successors_are_distinct_and_start_at_owner() {
        let ring = HashRing::new(&[0, 1, 2, 3], 16);
        for i in 0..100 {
            let k = fp(i);
            let succ = ring.successors(&k, 3);
            assert_eq!(succ.len(), 3);
            assert_eq!(succ[0], ring.shard_for(&k));
            let mut sorted = succ.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "successors are distinct: {succ:?}");
        }
    }

    #[test]
    fn asking_for_more_successors_than_shards_caps_at_shard_count() {
        let ring = HashRing::new(&[7, 9], 8);
        assert_eq!(ring.successors(&fp(1), 5).len(), 2);
    }

    #[test]
    fn readmission_restores_the_original_assignment_exactly() {
        let ring = HashRing::new(&[0, 1, 2, 3], 16);
        for victim in 0..4u32 {
            let healed = ring.without(victim).with(victim);
            assert_eq!(healed.shards(), ring.shards());
            for i in 0..300 {
                let k = fp(i);
                assert_eq!(healed.shard_for(&k), ring.shard_for(&k));
                assert_eq!(healed.successors(&k, 3), ring.successors(&k, 3));
            }
        }
    }

    #[test]
    fn readmitting_a_present_shard_is_a_no_op() {
        let ring = HashRing::new(&[0, 1, 2], 16);
        let same = ring.with(1);
        assert_eq!(same.shards(), ring.shards());
        for i in 0..100 {
            assert_eq!(same.shard_for(&fp(i)), ring.shard_for(&fp(i)));
        }
    }

    #[test]
    fn readmission_only_moves_keys_back_to_the_recovered_shard() {
        // Keys that survived the outage on another shard either stay
        // put or return to the recovered shard — nobody else's keys
        // move (minimal disruption, both directions).
        let ring = HashRing::new(&[0, 1, 2, 3], 16);
        let degraded = ring.without(2);
        let healed = degraded.with(2);
        for i in 0..300 {
            let k = fp(i);
            let before = degraded.shard_for(&k);
            let after = healed.shard_for(&k);
            assert!(
                after == before || after == 2,
                "key {i} moved {before} -> {after} without involving the recovered shard"
            );
        }
    }
}
