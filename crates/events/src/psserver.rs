//! A processor-sharing resource server with per-flow rate caps.
//!
//! Disks and NICs in the Doppio simulator are capacity-shared resources: at
//! any instant a set of *flows* (outstanding I/O streams) divides the
//! resource's capacity. The division follows max–min fairness ("water
//! filling"): every flow gets an equal share, except that a flow never
//! receives more than its own cap, and capacity freed by capped flows is
//! redistributed to the rest.
//!
//! Units are deliberately abstract ("service units per second"): a disk is a
//! server of capacity 1.0 *device-second per second* where a flow with
//! request size `rs` needs `bytes / BW(rs)` device-seconds, while a NIC is a
//! server of capacity `link_bytes_per_second` where a flow needs plain bytes.
//!
//! # Incremental water-filling
//!
//! Rates are defined by the sequential fill over flows sorted by
//! `(cap, id)` ascending:
//!
//! ```text
//! rc₀ = capacity
//! rateᵢ = min(capᵢ, rcᵢ / (n - i))      (computed in f64, in this order)
//! rcᵢ₊₁ = rcᵢ - rateᵢ
//! ```
//!
//! The fill is *not* recomputed from scratch on every mutation. The server
//! keeps the sorted order, the `rcᵢ` prefix, and per-position *flip
//! thresholds*, and refills only the suffix starting at the first position
//! whose rate can change (see `refill_from` and DESIGN.md §"Scheduler
//! complexity"). The refill performs bit-for-bit the same f64 operations as
//! the full fill, so every rate — and therefore every simulated timestamp —
//! is identical to the naive implementation's. A burst of same-time joins
//! pays one refill, run when something first reads rates (see
//! [`PsServer::add_flow`]).

use std::collections::HashMap;
use std::fmt;

use crate::{SimDuration, SimTime};

/// Handle to a flow registered on a [`PsServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(u64);

/// Parameters of a new flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Total service demand, in the server's service units.
    pub demand: f64,
    /// Maximum service rate this flow can attain on its own, in service
    /// units per second (`f64::INFINITY` for uncapped flows).
    pub cap: f64,
    /// Opaque owner tag returned on completion (e.g. a task or flow-group id).
    pub tag: u64,
}

/// Cold per-flow data, stored in a slab and reached through `order`.
/// The hot per-pump state (residual, rate, reciprocal rate, finish
/// threshold) lives in position-indexed parallel arrays on the server —
/// see the struct-of-arrays note on [`PsServer`].
#[derive(Debug, Clone)]
struct Slot {
    demand: f64,
    cap: f64,
    tag: u64,
    id: u64,
}

/// Relative tolerance used to declare a flow finished despite floating-point
/// drift in rate integration.
const COMPLETION_EPS: f64 = 1e-9;

/// Flow counts beyond this are treated as "this flow can never flip":
/// a threshold of 2⁴⁰ flows is unreachable, and staying far below 2⁵³
/// keeps `m as f64` exact in the threshold search.
const THRESHOLD_CLAMP: u64 = 1 << 40;

/// The smallest time step representable at timestamp `at` (a few ULPs):
/// residual work that would drain faster than this cannot be scheduled as
/// a distinct future event.
#[inline]
fn time_quantum(at: SimTime) -> f64 {
    4.0 * f64::EPSILON * at.as_secs().max(1.0)
}

/// The shared finish predicate: a flow is done when its residual is
/// negligible relative to its demand, or when draining it would take less
/// time than the clock can represent at the current timestamp — without
/// the latter, a rounding residual of a few ULPs would schedule
/// completions at `now + 0` forever (zero-progress livelock).
#[inline]
fn is_finished(remaining: f64, demand: f64, rate: f64, quantum: f64) -> bool {
    remaining <= COMPLETION_EPS * demand.max(1.0) || (rate > 0.0 && remaining / rate <= quantum)
}

/// A processor-sharing server: capacity divided max–min fairly among active
/// flows, each flow optionally rate-capped.
///
/// The server is *passive*: it never touches the event engine. The owning
/// simulation advances it to the current time before mutating it, then asks
/// [`PsServer::next_completion`] when to look again. Between mutations all
/// rates are constant, so the next completion time is exact.
///
/// # Example
///
/// ```
/// use doppio_events::{FlowSpec, PsServer, SimTime};
///
/// // A disk offering 1.0 device-second per second; two identical flows each
/// // needing 2.0 device-seconds, uncapped: they share the capacity and both
/// // finish at t = 4.
/// let mut disk = PsServer::new(1.0);
/// let t0 = SimTime::ZERO;
/// disk.add_flow(t0, FlowSpec { demand: 2.0, cap: f64::INFINITY, tag: 7 });
/// disk.add_flow(t0, FlowSpec { demand: 2.0, cap: f64::INFINITY, tag: 8 });
/// let done = disk.next_completion().unwrap();
/// assert_eq!(done, SimTime::from_secs(4.0));
/// disk.advance(done);
/// assert_eq!(disk.take_completed().len(), 2);
/// ```
pub struct PsServer {
    capacity: f64,
    /// Slab of flow slots; freed slots are recycled via `free`.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Flow id → slot, for the cold paths (`remove_flow`, `flow_rate`).
    lookup: HashMap<u64, u32>,
    /// Active slots sorted by `(cap, id)` ascending — the fill order.
    order: Vec<u32>,
    /// Hot per-flow state in *position* order (struct-of-arrays, parallel
    /// to `order`): the per-pump scan walks these four dense arrays and
    /// never touches the slab. `rem[i]` is the residual demand.
    rem: Vec<f64>,
    /// `rate[i]`: current service rate at position `i`.
    rate: Vec<f64>,
    /// `inv_rate[i] = 1/rate[i]` (∞ for a zero rate), refreshed whenever
    /// the refill writes the rate. Lets the per-pump finish/projection
    /// filter run on multiplications; exact divisions are reserved for the
    /// few flows the filter cannot rule out.
    inv_rate: Vec<f64>,
    /// Server-wide upper bound on the finish predicate's residual
    /// threshold: the max of `COMPLETION_EPS · max(demand, 1)` over every
    /// flow ever admitted. Using one conservative scalar instead of a
    /// per-flow array keeps the scan's eps clause a superset of the exact
    /// predicate while removing a whole array read from the hot loop;
    /// false positives are resolved by the exact predicate.
    eps_any: f64,
    /// `rc_before[i]`: remaining capacity entering position `i` of the fill.
    rc_before: Vec<f64>,
    /// `flip_pmin[i]`: running minimum over positions `0..=i` of the flow
    /// count `n` at which the capped flow at that position would flip to
    /// fair-limited (`u64::MAX` for fair-limited positions). Non-increasing
    /// in `i`, so the first position that flips under a join is found by
    /// binary search.
    flip_pmin: Vec<u64>,
    /// First fair-limited position (`order.len()` when every flow is
    /// capped). Positions before it all run at their cap.
    boundary: usize,
    completed: Vec<(FlowId, u64)>,
    next_id: u64,
    last_advance: SimTime,
    busy: SimDuration,
    served: f64,
    /// True when flow state changed since the last completion scan that
    /// found nothing; a clean server skips the scan entirely.
    dirty: bool,
    /// Cached `next_completion` value, valid while `nc_valid`.
    nc_cache: Option<SimTime>,
    nc_valid: bool,
    /// High-water mark of concurrently active flows since the last
    /// [`PsServer::reset_peak`].
    peak_flows: usize,
    /// Scratch buffers reused across completion scans.
    pos_scratch: Vec<u32>,
    fin_scratch: Vec<(u64, u64)>,
    /// First position a zero-dt completion rescan must re-examine: the
    /// earliest position whose rate was rewritten by a refill since the
    /// last scan. Flows before it have unchanged predicate inputs since a
    /// scan (or horizon bound) already ruled them unfinished at this
    /// timestamp, so a post-mutation harvest only walks the suffix —
    /// keeping same-time join/leave churn O(changed), not O(F). A flush of
    /// deferred joins sets it to what per-join refills would have left
    /// (see `flush_joins`).
    scan_from: usize,
    /// Near-minimum projection candidates `(position, approx_drain)`
    /// gathered during the scan; expected O(log F) entries per scan.
    cand_scratch: Vec<(u32, f64)>,
    /// Sum of the active rates, refreshed by every refill. Lets the
    /// fast-path integration accumulate `served` without a loop-carried
    /// sum (`served` is tolerance-compared observability state; `rem`
    /// keeps the exact chained sequence).
    trate: f64,
    /// True when `nc_cache` predates fast-path integration steps: the
    /// cached value is then a *stale projection* — still a tight lower
    /// bound on the true next completion (see `next_completion_lb`), but
    /// its bits may differ from a fresh projection in the last ULP, so
    /// exact readers recompute.
    nc_stale: bool,
    /// Safe-skip horizon (absolute seconds): a conservative lower bound on
    /// the earliest time any flow's finish predicate could fire, computed by
    /// the last clean scan with generous slack for integration drift (see
    /// the horizon derivation in `scan_flows`). Advances strictly below it
    /// cannot complete anything, so they take the integrate-only fast path.
    /// `NEG_INFINITY` when no clean scan has run since the last mutation.
    horizon: f64,
    /// Remaining fast-path advances the current horizon's drift slack
    /// budgets for; replenished by every clean scan. Bounds the
    /// floating-point drift between a stale projection and a live one.
    skip_budget: u32,
    /// Server-wide lower bound on the drain time of any unfinished flow
    /// under *any* fill: the min of `COMPLETION_EPS · max(demand, 1) /
    /// min(cap, capacity)` over every flow admitted since the server was
    /// last idle. An unfinished flow's residual exceeds its eps bound and
    /// no fill rate exceeds `min(cap, capacity)`, so while this floor is
    /// above the time quantum no rate change can finish a flow at a
    /// zero-dt scan (see `add_flow`'s join deferral).
    drain_floor: f64,
    /// `Some(from)` while joins are deferred: same-time joins have been
    /// inserted but not refilled, and `from` is the earliest position the
    /// pending refill must rewrite (positions before it are capped and
    /// unchanged). Cleared by `flush_joins` before anything reads rates.
    deferred_from: Option<usize>,
}

/// Upper bound on consecutive integrate-only advances between full scans;
/// the drift slack in the horizon and the stale-projection margin are
/// sized for this many steps (with ~500x headroom).
const MAX_SKIPS: u32 = 4096;

impl PsServer {
    /// Creates a server with the given capacity in service units per second.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not finite and positive.
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "server capacity must be finite and positive, got {capacity}"
        );
        PsServer {
            capacity,
            slots: Vec::new(),
            free: Vec::new(),
            lookup: HashMap::new(),
            order: Vec::new(),
            rem: Vec::new(),
            rate: Vec::new(),
            inv_rate: Vec::new(),
            eps_any: COMPLETION_EPS,
            rc_before: Vec::new(),
            flip_pmin: Vec::new(),
            boundary: 0,
            completed: Vec::new(),
            next_id: 0,
            last_advance: SimTime::ZERO,
            busy: SimDuration::ZERO,
            served: 0.0,
            dirty: false,
            nc_cache: None,
            nc_valid: true,
            peak_flows: 0,
            scan_from: 0,
            pos_scratch: Vec::new(),
            fin_scratch: Vec::new(),
            cand_scratch: Vec::new(),
            trate: 0.0,
            nc_stale: false,
            horizon: f64::NEG_INFINITY,
            skip_budget: 0,
            drain_floor: f64::INFINITY,
            deferred_from: None,
        }
    }

    /// The configured capacity, in service units per second.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of in-flight (not yet completed) flows.
    pub fn active_flows(&self) -> usize {
        self.order.len()
    }

    /// Highest number of concurrently active flows observed since the last
    /// [`PsServer::reset_peak`] (event-heap/bloat observability).
    pub fn peak_active_flows(&self) -> usize {
        self.peak_flows
    }

    /// Restarts the flow high-water mark from the current population.
    pub fn reset_peak(&mut self) {
        self.peak_flows = self.order.len();
    }

    /// Total time the server had at least one active flow.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Total service units delivered so far.
    pub fn served_units(&self) -> f64 {
        self.served
    }

    /// Integrates flow progress up to `now`, moving finished flows to the
    /// completed list. Must be called (directly or via `add_flow` /
    /// `remove_flow`) before reading state at a new time.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last advance (time cannot flow backwards).
    #[inline]
    pub fn advance(&mut self, now: SimTime) {
        assert!(
            now >= self.last_advance,
            "PsServer time went backwards: {} -> {now}",
            self.last_advance
        );
        if !self.dirty {
            // A clean server cannot complete anything at the same timestamp
            // again, nor (by the horizon bound) strictly before `horizon` —
            // the full scans at such times are pure integration steps, so
            // the fast path below runs exactly their integration (the same
            // chained `rem -= rate·dt` per pump timestamp, bit-for-bit) and
            // skips the completion filter and projection refresh.
            if now == self.last_advance {
                return;
            }
            if self.order.is_empty() {
                // Idle server: the full advance only moves the clock.
                self.last_advance = now;
                return;
            }
            if now.as_secs() < self.horizon && self.skip_budget > 0 {
                self.skip_budget -= 1;
                let dt = (now - self.last_advance).as_secs();
                self.last_advance = now;
                self.busy += SimDuration::from_secs(dt);
                let n = self.order.len();
                let rem = &mut self.rem[..n];
                let rate = &self.rate[..n];
                for i in 0..n {
                    rem[i] -= rate[i] * dt;
                }
                self.served += self.trate * dt;
                // The cached projection now predates the residuals; it
                // remains a tight lower bound (see `next_completion_lb`).
                self.nc_stale = true;
                return;
            }
        }
        let dt = (now - self.last_advance).as_secs();
        self.last_advance = now;
        if dt == 0.0 {
            self.harvest_completed();
            return;
        }
        if !self.order.is_empty() {
            self.busy += SimDuration::from_secs(dt);
        }
        self.dirty = true;
        self.scan_flows(dt);
    }

    /// Applies a deferred sequence of advance timestamps, performing for
    /// each exactly what [`PsServer::advance`] at that time would have —
    /// the whole point of deferral is that server state afterwards is
    /// bit-identical to having advanced eagerly at every timestamp.
    ///
    /// The one shortcut taken is state-free: an idle *clean* server is
    /// untouched by any advance except for its clock, so the loop
    /// collapses to a single clock move. Batched callers
    /// (`ClusterState`'s pump-log deferral) lean on this to erase the
    /// empty-server advances that dominate a naive per-pump sweep.
    ///
    /// # Panics
    ///
    /// Panics if the timestamps are not non-decreasing from the server's
    /// current clock (time cannot flow backwards).
    pub fn replay(&mut self, times: &[SimTime]) {
        let Some(&last) = times.last() else { return };
        if !self.dirty && self.order.is_empty() {
            assert!(
                times[0] >= self.last_advance && last >= times[0],
                "PsServer time went backwards: {} -> {last}",
                self.last_advance
            );
            self.last_advance = last;
            return;
        }
        for &t in times {
            self.advance(t);
        }
    }

    fn harvest_completed(&mut self) {
        self.scan_flows(0.0);
    }

    /// One fused pass over the active flows: integrates `dt` seconds of
    /// progress (`dt > 0`), collects finished flows, and — when nothing
    /// finished — refreshes the next-completion projection, leaving
    /// [`PsServer::next_completion`] answerable in O(1).
    ///
    /// The pass runs on the dense position-indexed arrays and replaces the
    /// per-flow division of the finish predicate and the projection with a
    /// multiplication by the cached reciprocal rate. The multiplication is
    /// only a *filter*: `rem·inv_rate` approximates `rem/rate` within a few
    /// ULPs, so comparing it against thresholds widened by 1e-12 (orders of
    /// magnitude beyond the error bound) can only produce false positives,
    /// never false negatives. Every flow the filter cannot rule out is then
    /// resolved with the exact division — bit-for-bit the predicate and
    /// projection values the naive scan computes — which in steady state is
    /// a handful of flows instead of all of them.
    fn scan_flows(&mut self, dt: f64) {
        // Nothing changed since a scan that found nothing: the predicate
        // inputs (residuals, rates, the time quantum at `last_advance`)
        // are identical, so the scan would find nothing again.
        if !self.dirty {
            return;
        }
        self.flush_joins();
        let n = self.order.len();
        if n == 0 {
            self.dirty = false;
            self.nc_cache = None;
            self.nc_valid = true;
            self.nc_stale = false;
            self.scan_from = 0;
            self.horizon = f64::INFINITY;
            self.skip_budget = MAX_SKIPS;
            self.drain_floor = f64::INFINITY;
            return;
        }
        // An integrating scan must walk everything; a zero-dt rescan only
        // re-examines positions whose rates a refill rewrote since the
        // last scan (`scan_from`). Reset the watermark now — a refill in
        // the completion branch below lowers it again.
        let from = if dt > 0.0 { 0 } else { self.scan_from };
        self.scan_from = n;
        let quantum = time_quantum(self.last_advance);
        let quantum_hi = quantum * (1.0 + 1e-12);
        self.pos_scratch.clear();
        self.cand_scratch.clear();
        let mut amin = f64::INFINITY;
        // Running upper bound on the candidate-collection cutoff. Flows
        // whose approximate drain lands under it are remembered as
        // projection candidates; since `amin` only shrinks, every flow
        // under the *final* cutoff was necessarily under the running bound
        // when visited, so the candidate list is a superset of the flows
        // the full projection sweep would touch. Expected list length is
        // O(log F) (new minima of a random sequence), so the second full
        // pass over the arrays is gone. The collection slop (1e-8) is much
        // wider than the projection cutoff's (1e-12): integrate-only fast
        // steps drift residuals by at most ~2e-12 relative, so any flow
        // that could later come within the projection cutoff is already
        // within the collection cutoff now — which lets a *stale* cache
        // refresh re-project over just these candidates (see
        // `next_completion`).
        let mut amin_hi = f64::INFINITY;
        // Minimum over positive-rate flows of the (drain-scale) time until
        // the residual could cross the server-wide eps bound, inflated by
        // 1% to absorb integration drift of residuals over up to MAX_SKIPS
        // fast-path steps (drift <= ~2e-12 of demand, i.e. <= 0.2% of the
        // eps bound). Feeds the safe-skip horizon.
        let mut hmin = f64::INFINITY;
        {
            // Slice once so the inner loops index without bounds checks
            // (and the integration auto-vectorizes).
            let rem = &mut self.rem[..n];
            let rate = &self.rate[..n];
            let inv = &self.inv_rate[..n];
            let eps_any = self.eps_any;
            let eps_h = 1.01 * eps_any;
            // One fused pass: integrate, flag possibly-finished flows, and
            // fold the approximate minimum drain time of the rest — a single
            // sweep over the hot arrays instead of two. Per-flow FP
            // operations and `rem` writes are exactly those of the separate
            // passes; the served sum is tolerance-compared observability
            // state, so a local accumulator (reassociating the addition into
            // `served`) is fine while `rem` stays exactly the old chained
            // sequence. `rem·inv_rate` is NaN only for a zero-rate flow with
            // zero residual, which the eps clause flags first; the NaN then
            // loses every `<` comparison, as it must.
            if dt > 0.0 {
                let mut served = 0.0;
                for i in 0..n {
                    let done = rate[i] * dt;
                    let r = rem[i] - done;
                    rem[i] = r;
                    served += done;
                    let approx = r * inv[i];
                    if r <= eps_any || approx <= quantum_hi {
                        self.pos_scratch.push(i as u32);
                    } else if rate[i] > 0.0 {
                        let h = (r - eps_h) * inv[i];
                        if h < hmin {
                            hmin = h;
                        }
                        if approx <= amin_hi {
                            self.cand_scratch.push((i as u32, approx));
                            if approx < amin {
                                amin = approx;
                                amin_hi = amin * (1.0 + 1e-8);
                            }
                        }
                    }
                }
                self.served += served;
            } else {
                for i in from..n {
                    let r = rem[i];
                    let approx = r * inv[i];
                    if r <= eps_any || approx <= quantum_hi {
                        self.pos_scratch.push(i as u32);
                    } else if rate[i] > 0.0 {
                        let h = (r - eps_h) * inv[i];
                        if h < hmin {
                            hmin = h;
                        }
                        if approx <= amin_hi {
                            self.cand_scratch.push((i as u32, approx));
                            if approx < amin {
                                amin = approx;
                                amin_hi = amin * (1.0 + 1e-8);
                            }
                        }
                    }
                }
            }
        }
        // Resolve the flagged flows with the exact predicate; unfinished
        // ones still compete for the projection minimum.
        let mut nf = 0usize;
        for k in 0..self.pos_scratch.len() {
            let i = self.pos_scratch[k] as usize;
            let f = &self.slots[self.order[i] as usize];
            if is_finished(self.rem[i], f.demand, self.rate[i], quantum) {
                self.pos_scratch[nf] = i as u32;
                nf += 1;
            } else if self.rate[i] > 0.0 {
                // Rare path: a flagged-but-unfinished flow competes for
                // the projection unconditionally, and pins the safe-skip
                // horizon at `now` (it may finish at any coming pump).
                let approx = self.rem[i] * self.inv_rate[i];
                self.cand_scratch.push((i as u32, approx));
                if approx < amin {
                    amin = approx;
                }
                hmin = f64::NEG_INFINITY;
            }
        }
        self.pos_scratch.truncate(nf);
        if self.pos_scratch.is_empty() {
            self.dirty = false;
            if from > 0 {
                // Suffix-only rescan: `amin`/`hmin`/the candidate list do
                // not cover the untouched prefix, so the projection and
                // horizon cannot be refreshed from them. Leave them unset;
                // the exact fallback in `next_completion` answers queries
                // and the next integrating advance re-establishes the
                // horizon with a full sweep.
                self.nc_valid = false;
                self.horizon = f64::NEG_INFINITY;
                return;
            }
            // Exact projection over the candidates whose approximate drain
            // is within the filter slop of the minimum: the true minimum's
            // approximation always lands under the cutoff (and therefore in
            // the candidate list), `t` is monotone in the drain, and the
            // min of identical f64 times is order-independent — so this min
            // is bit-equal to the full scan in `next_completion`.
            let cutoff = amin * (1.0 + 1e-12);
            let mut nc_best: Option<SimTime> = None;
            for k in 0..self.cand_scratch.len() {
                let (i, approx) = self.cand_scratch[k];
                if approx <= cutoff {
                    let i = i as usize;
                    let drain = (self.rem[i] / self.rate[i]).max(0.0);
                    let t = self.last_advance + SimDuration::from_secs(drain);
                    nc_best = Some(match nc_best {
                        Some(b) if b <= t => b,
                        _ => t,
                    });
                }
            }
            self.nc_cache = nc_best;
            self.nc_valid = true;
            self.nc_stale = false;
            // Safe-skip horizon: no finish predicate can fire strictly
            // before it, so advances below it are pure integration steps
            // that can be deferred. Derivation (drain scale, seconds past
            // `last_advance`):
            //  * eps clause: the residual of a positive-rate flow reaches
            //    its per-flow threshold (<= eps_any <= eps_h/1.01) no
            //    earlier than `hmin`, which already absorbs residual drift
            //    (<= ~2e-12 of demand over MAX_SKIPS fast-path steps) in eps_h's
            //    inflation.
            //  * quantum clause: a drain reaches the time quantum no
            //    earlier than `amin - 2q` with `q` evaluated at the latest
            //    possible crossing time (the quantum grows with time).
            //  The final (1 - 1e-9) factor covers the horizon arithmetic's
            //  own rounding and the crossing-time drift (<= ~2e-12
            //  relative) with ~500x margin. Zero-rate flows cannot finish
            //  until a mutation reruns the fill, and mutations force a
            //  sync, so they impose no bound.
            let la = self.last_advance.as_secs();
            let hq = if amin.is_finite() {
                let q_cross = 4.0 * f64::EPSILON * (la + amin).max(1.0);
                amin - 2.0 * q_cross
            } else {
                f64::INFINITY
            };
            let hcross = hmin.min(hq);
            self.horizon = if hcross > 0.0 {
                la + hcross * (1.0 - 1e-9)
            } else {
                f64::NEG_INFINITY
            };
            self.skip_budget = MAX_SKIPS;
            return;
        }
        self.fin_scratch.clear();
        for &pos in &self.pos_scratch {
            let si = self.order[pos as usize];
            let f = &self.slots[si as usize];
            self.fin_scratch.push((f.id, f.tag));
            self.lookup.remove(&f.id);
            self.free.push(si);
        }
        for &pos in &self.pos_scratch {
            self.trate -= self.rate[pos as usize];
        }
        // Compact the position-parallel arrays in one pass each (removal
        // positions are ascending).
        compact_sparse(&mut self.order, &self.pos_scratch);
        compact_sparse(&mut self.rem, &self.pos_scratch);
        compact_sparse(&mut self.rate, &self.pos_scratch);
        compact_sparse(&mut self.inv_rate, &self.pos_scratch);
        let first_pos = self.pos_scratch[0] as usize;
        let write = self.order.len();
        self.rc_before.truncate(write);
        self.flip_pmin.truncate(write);
        // Completions are reported in FlowId order (= submission order);
        // they feed the executor's scheduling decisions.
        self.fin_scratch.sort_unstable();
        for &(id, tag) in &self.fin_scratch {
            self.completed.push((FlowId(id), tag));
        }
        // Removing flows only raises fair shares: capped flows before the
        // first removed position stay capped, so the refill starts at the
        // earlier of that position and the fair-limited boundary.
        let start = first_pos.min(self.boundary);
        self.refill_from(start);
        self.nc_valid = false;
        self.horizon = f64::NEG_INFINITY;
        // `dirty` stays true: rates changed, so the next advance (even at
        // the same timestamp) must re-scan, exactly like the naive server.
    }

    /// Registers a new flow at time `now` and returns its id.
    ///
    /// A zero-demand flow completes immediately (it appears in the next
    /// [`PsServer::take_completed`] call without consuming capacity).
    ///
    /// Same-time joins are coalesced: a join that provably cannot change
    /// what a zero-dt scan at `now` finds is inserted without refilling,
    /// and the burst pays one refill when something first reads rates
    /// (`flush_joins`). Rates, completions and cached state are the same
    /// bits as refilling on every join.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is negative/NaN or `cap` is not positive.
    pub fn add_flow(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        assert!(
            spec.demand.is_finite() && spec.demand >= 0.0,
            "flow demand must be finite and non-negative, got {}",
            spec.demand
        );
        assert!(
            spec.cap > 0.0,
            "flow cap must be positive, got {}",
            spec.cap
        );
        // A join may skip its refill (and the next join's zero-dt rescan)
        // only if no flow can finish at a zero-dt scan at `now`, whatever
        // the fill. Fill rates never exceed `min(cap, capacity)` (the
        // remaining capacity only shrinks along the fill), and f64
        // division is monotone, so:
        //  * the new flow (residual = demand) stays unfinished if its
        //    demand clears its eps bound and its fastest possible drain
        //    clears the quantum;
        //  * the flows already present were unfinished at `now` (the
        //    server is clean), so their residuals exceed their eps bounds
        //    and `drain_floor` bounds their fastest possible drain.
        // Under that guard the skipped rescans could find nothing. The
        // guard on present flows is checked when a burst starts; later
        // joins of the burst are covered by their own check.
        let quantum = time_quantum(now);
        let quiet = spec.demand > COMPLETION_EPS * spec.demand.max(1.0)
            && spec.demand / spec.cap.min(self.capacity) > 2.0 * quantum;
        let defer = if self.deferred_from.is_some() && now == self.last_advance && quiet {
            true
        } else {
            self.advance(now);
            quiet && !self.dirty && self.drain_floor > 2.0 * quantum
        };
        let id = self.next_id;
        self.next_id += 1;
        if spec.demand == 0.0 {
            self.completed.push((FlowId(id), spec.tag));
            return FlowId(id);
        }
        let slot = Slot {
            demand: spec.demand,
            cap: spec.cap,
            tag: spec.tag,
            id,
        };
        let si = match self.free.pop() {
            Some(si) => {
                self.slots[si as usize] = slot;
                si
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.lookup.insert(id, si);
        let p = self.position_for(spec.cap, id);
        // A join lowers fair shares. Positions before min(p, boundary) are
        // capped; the first whose cap rises above its new, lower fair share
        // ("flips") is found via the flip-threshold prefix minima. All
        // positions from the earliest change onward are refilled. While
        // joins are deferred the pending refill start plays the boundary's
        // role: positions before it are capped, and their flip thresholds
        // are current.
        let n_new = self.order.len() + 1;
        let limit = p.min(self.deferred_from.unwrap_or(self.boundary));
        let start = self.first_flip_before(limit, n_new as u64);
        self.order.insert(p, si);
        self.rem.insert(p, spec.demand);
        let eps = COMPLETION_EPS * spec.demand.max(1.0);
        self.eps_any = self.eps_any.max(eps);
        self.drain_floor = self.drain_floor.min(eps / spec.cap.min(self.capacity));
        // `rate`/`inv_rate` at `start..` (and `p ≥ start`) are rewritten by
        // the refill, as are `rc_before`/`flip_pmin`, which only need the
        // right length.
        self.rate.insert(p, 0.0);
        self.inv_rate.insert(p, f64::INFINITY);
        self.rc_before.push(0.0);
        self.flip_pmin.push(0);
        if defer {
            self.deferred_from = Some(start);
        } else {
            self.refill_from(start);
        }
        self.dirty = true;
        self.nc_valid = false;
        self.horizon = f64::NEG_INFINITY;
        self.peak_flows = self.peak_flows.max(self.order.len());
        FlowId(id)
    }

    /// Runs the refill a burst of deferred joins left pending, leaving the
    /// server exactly as refilling on every join would have.
    ///
    /// The fill depends only on the final flow set, so one refill from the
    /// earliest pending position yields the same rates, prefixes and
    /// thresholds. The one piece of state that depends on the *order* of
    /// refills is the zero-dt rescan watermark: refilling per join leaves
    /// it at the last join's refill start, and whether that start is 0
    /// decides whether the next same-time rescan refreshes the projection
    /// and horizon. It is 0 exactly when the last join landed at position
    /// 0 or position 0 is fair-limited in the final fill (a capped
    /// position-0 flow that flipped under the last join is fair-limited
    /// now, and one that was fair-limited before stays so). Otherwise the
    /// rescan cannot find a completion (the deferral guard) and refreshes
    /// nothing, so it is skipped altogether.
    fn flush_joins(&mut self) {
        let Some(from) = self.deferred_from.take() else {
            return;
        };
        self.refill_from(from);
        let last_at_front = self.slots[self.order[0] as usize].id + 1 == self.next_id;
        self.scan_from = if last_at_front || self.boundary == 0 {
            0
        } else {
            self.order.len()
        };
    }

    /// Removes a flow before completion (e.g. a cancelled transfer).
    /// Returns the remaining demand, or `None` if the flow was unknown or
    /// already complete.
    pub fn remove_flow(&mut self, now: SimTime, id: FlowId) -> Option<f64> {
        self.advance(now);
        let si = self.lookup.remove(&id.0)?;
        let cap = self.slots[si as usize].cap;
        let p = self.position_for(cap, id.0);
        debug_assert_eq!(self.order[p], si, "order index out of sync");
        let remaining = self.rem[p];
        self.trate -= self.rate[p];
        self.order.remove(p);
        self.rem.remove(p);
        self.rate.remove(p);
        self.inv_rate.remove(p);
        self.rc_before.pop();
        self.flip_pmin.pop();
        self.free.push(si);
        // A leave raises fair shares: capped flows before p stay capped.
        let start = p.min(self.boundary);
        self.refill_from(start);
        self.dirty = true;
        self.nc_valid = false;
        self.horizon = f64::NEG_INFINITY;
        Some(remaining)
    }

    /// Drains the list of flows that have finished since the last call,
    /// returning `(flow id, owner tag)` pairs in completion order.
    pub fn take_completed(&mut self) -> Vec<(FlowId, u64)> {
        std::mem::take(&mut self.completed)
    }

    /// Appends the owner tags of flows finished since the last drain to
    /// `out`, in completion order — the allocation-free fast path of
    /// [`PsServer::take_completed`].
    #[inline]
    pub fn drain_completed_tags(&mut self, out: &mut Vec<u64>) {
        if self.completed.is_empty() {
            return;
        }
        out.extend(self.completed.drain(..).map(|(_, tag)| tag));
    }

    /// Absolute time at which the next flow will finish, assuming no further
    /// mutations. `None` when idle.
    ///
    /// The value is cached between calls and invalidated by any advance or
    /// mutation, so repeated queries of an unchanged server are O(1).
    pub fn next_completion(&mut self) -> Option<SimTime> {
        if self.nc_valid && self.nc_stale {
            // The cache only went stale through integrate-only fast steps:
            // rates and the flow population are unchanged since the last
            // clean scan (mutations clear `nc_valid` instead). All drains
            // shrank by the same elapsed time, up to per-flow integration
            // drift of <= ~2e-12 relative — far inside the 1e-8 candidate
            // collection slop — so every flow that can now be within the
            // 1e-12 projection cutoff is in `cand_scratch`. Re-projecting
            // over the candidates alone is therefore bit-equal to the full
            // sweep, at O(log F) instead of O(F).
            let mut amin = f64::INFINITY;
            for &(i, _) in &self.cand_scratch {
                let approx = self.rem[i as usize] * self.inv_rate[i as usize];
                if approx < amin {
                    amin = approx;
                }
            }
            let cutoff = amin * (1.0 + 1e-12);
            let mut best: Option<SimTime> = None;
            for &(i, _) in &self.cand_scratch {
                let i = i as usize;
                if self.rem[i] * self.inv_rate[i] <= cutoff {
                    let dt = (self.rem[i] / self.rate[i]).max(0.0);
                    let t = self.last_advance + SimDuration::from_secs(dt);
                    best = Some(match best {
                        Some(b) if b <= t => b,
                        _ => t,
                    });
                }
            }
            self.nc_cache = best;
            self.nc_stale = false;
        } else if !self.nc_valid {
            self.flush_joins();
            // Reciprocal-filtered projection: find the approximate minimum
            // drain with multiplications, then take exact divisions only
            // for flows within the filter slop of it — bit-equal to the
            // all-divisions scan by the cutoff argument in `scan_flows`.
            let n = self.order.len();
            let mut amin = f64::INFINITY;
            for i in 0..n {
                if self.rate[i] > 0.0 {
                    let approx = self.rem[i] * self.inv_rate[i];
                    if approx < amin {
                        amin = approx;
                    }
                }
            }
            let cutoff = amin * (1.0 + 1e-12);
            let mut best: Option<SimTime> = None;
            for i in 0..n {
                if self.rate[i] > 0.0 && self.rem[i] * self.inv_rate[i] <= cutoff {
                    let dt = (self.rem[i] / self.rate[i]).max(0.0);
                    let t = self.last_advance + SimDuration::from_secs(dt);
                    best = Some(match best {
                        Some(b) if b <= t => b,
                        _ => t,
                    });
                }
            }
            self.nc_cache = best;
            self.nc_valid = true;
            self.nc_stale = false;
        }
        self.nc_cache
    }

    /// Cheap next-completion estimate for aggregating minima across many
    /// servers without forcing a fresh projection on each.
    ///
    /// Returns `(t, true)` when `t` is the exact next completion time, or
    /// `(t, false)` when `t` is a conservative *lower bound* on it: the
    /// true value is `>= t`. A stale projection differs from a fresh one
    /// only by floating-point drift of the integrated residuals (`<=
    /// ~2e-12` relative over the fast-path budget), bounded here by a
    /// 1e-11 margin. The margin is kept tight on purpose: every server
    /// whose stale bound undercuts the folded minimum must be re-projected,
    /// so a fat margin would drag near-tied servers (common under
    /// symmetric load) into a refresh on every single pump. A caller folding a minimum over servers may therefore
    /// return an exact candidate `m` untouched as long as every stale
    /// bound is `>= m`; otherwise it must sync the offending server (e.g.
    /// via [`PsServer::next_completion`]) and re-fold. `None` means no flow
    /// can complete while the current rates hold.
    #[inline]
    pub fn next_completion_lb(&mut self) -> Option<(SimTime, bool)> {
        if !self.nc_valid {
            return self.next_completion().map(|t| (t, true));
        }
        if !self.nc_stale {
            return self.nc_cache.map(|t| (t, true));
        }
        self.nc_cache
            .map(|t| (SimTime::from_secs(t.as_secs() * (1.0 - 1e-11)), false))
    }

    /// Absolute time (seconds) strictly below which [`PsServer::advance`]
    /// cannot move any flow to the completed list — advances before it
    /// are pure integration, so a caller may defer them without missing
    /// a harvest. This is the safe-skip horizon established by the last
    /// full scan: it bounds *both* finish clauses (the relative-eps one,
    /// which can fire up to `eps·demand/rate` seconds before the
    /// projected completion time, and the time-quantum one), which makes
    /// it strictly stronger than the [`PsServer::next_completion_lb`]
    /// bound for deciding whether an advance can be skipped.
    ///
    /// `NEG_INFINITY` when the answer is unknown (rates changed since
    /// the last scan) or completions await draining; `INFINITY` when the
    /// server is idle or nothing can finish under the current rates.
    pub fn harvest_horizon(&self) -> f64 {
        if self.dirty || !self.completed.is_empty() {
            f64::NEG_INFINITY
        } else if self.order.is_empty() {
            f64::INFINITY
        } else {
            self.horizon
        }
    }

    /// Current service rate of a flow, in units per second.
    pub fn flow_rate(&mut self, id: FlowId) -> Option<f64> {
        self.flush_joins();
        self.lookup.get(&id.0).map(|&si| {
            let f = &self.slots[si as usize];
            self.rate[self.position_for(f.cap, f.id)]
        })
    }

    /// Sum of the rates of all active flows (the server's instantaneous
    /// delivered capacity).
    pub fn total_rate(&mut self) -> f64 {
        self.flush_joins();
        self.rate.iter().sum()
    }

    /// Position of `(cap, id)` in the fill order (binary search).
    fn position_for(&self, cap: f64, id: u64) -> usize {
        self.order.partition_point(|&si| {
            let f = &self.slots[si as usize];
            match f.cap.total_cmp(&cap) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => f.id < id,
                std::cmp::Ordering::Greater => false,
            }
        })
    }

    /// First position `< limit` whose capped flow flips to fair-limited
    /// when the flow count reaches `n_new`; `limit` when none does.
    /// `flip_pmin` is non-increasing, so this is a binary search.
    fn first_flip_before(&self, limit: usize, n_new: u64) -> usize {
        self.flip_pmin[..limit].partition_point(|&pm| pm >= n_new)
    }

    /// Recomputes rates for positions `start..`, reproducing bit-for-bit
    /// the fill a full recomputation would produce there. The caller
    /// guarantees positions before `start` are unaffected (all capped,
    /// with unchanged `rc` prefix) — see the join/leave/harvest call sites.
    fn refill_from(&mut self, start: usize) {
        let n = self.order.len();
        debug_assert!(start <= n);
        debug_assert!(start <= self.boundary || self.boundary >= n);
        self.scan_from = self.scan_from.min(start);
        let mut rc = if start == 0 {
            self.capacity
        } else {
            // Same operands and operation as the fill's `rc -= rate`.
            self.rc_before[start - 1] - self.rate[start - 1]
        };
        self.boundary = n;
        // `trate` is delta-updated with the suffix's old and new sums so a
        // refill touching few positions stays cheap; callers that drop
        // flows subtract the dropped rates before refilling. Drift from
        // the incremental sums only reaches `served` (tolerance-compared),
        // never the residual chain.
        let mut old_sum = 0.0;
        let mut new_sum = 0.0;
        for i in start..n {
            old_sum += self.rate[i];
            self.rc_before[i] = rc;
            let fair_share = rc / (n - i) as f64;
            let cap = self.slots[self.order[i] as usize].cap;
            let rate = cap.min(fair_share);
            self.rate[i] = rate;
            self.inv_rate[i] = 1.0 / rate;
            new_sum += rate;
            rc -= rate;
            let capped = rate == cap;
            let threshold = if capped {
                max_flows_while_capped(self.rc_before[i], cap) + i as u64
            } else {
                if self.boundary == n {
                    self.boundary = i;
                }
                u64::MAX
            };
            let prev = if i == 0 {
                u64::MAX
            } else {
                self.flip_pmin[i - 1]
            };
            self.flip_pmin[i] = prev.min(threshold);
        }
        self.trate += new_sum - old_sum;
    }
}

/// Removes the ascending positions `removed` from `v` with a single
/// write-pointer pass starting at the first removal.
fn compact_sparse<T: Copy>(v: &mut Vec<T>, removed: &[u32]) {
    let first = removed[0] as usize;
    let mut write = first;
    let mut next_rm = 0usize;
    for read in first..v.len() {
        if next_rm < removed.len() && removed[next_rm] as usize == read {
            next_rm += 1;
            continue;
        }
        v[write] = v[read];
        write += 1;
    }
    v.truncate(write);
}

/// Largest flow count `m` for which a flow with this `cap` stays capped
/// given `rc` capacity entering its fill position: max `m ≥ 1` with
/// `cap ≤ rc / (m as f64)` (evaluated in f64, exactly as the fill does).
/// `rc / (m as f64)` is weakly decreasing in `m`, so an initial estimate
/// `rc / cap` is off by at most a couple of ULP-steps.
fn max_flows_while_capped(rc: f64, cap: f64) -> u64 {
    debug_assert!(rc > 0.0 && cap > 0.0 && cap.is_finite());
    let estimate = rc / cap;
    if estimate >= THRESHOLD_CLAMP as f64 {
        return THRESHOLD_CLAMP;
    }
    let mut m = (estimate as u64).max(1);
    while m > 1 && rc / (m as f64) < cap {
        m -= 1;
    }
    while rc / ((m + 1) as f64) >= cap {
        m += 1;
    }
    m
}

impl fmt::Debug for PsServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PsServer")
            .field("capacity", &self.capacity)
            .field("active_flows", &self.order.len())
            .field("last_advance", &self.last_advance)
            .field("busy", &self.busy)
            .finish()
    }
}

#[cfg(test)]
mod naive {
    //! The original O(F log F) water-filling server, kept verbatim as the
    //! reference oracle for the incremental implementation.

    use super::{is_finished, time_quantum, FlowId, FlowSpec};
    use crate::{SimDuration, SimTime};
    use std::collections::HashMap;

    #[derive(Debug)]
    struct Flow {
        remaining: f64,
        demand: f64,
        cap: f64,
        rate: f64,
        tag: u64,
    }

    #[derive(Debug)]
    pub struct NaivePsServer {
        capacity: f64,
        flows: HashMap<FlowId, Flow>,
        completed: Vec<(FlowId, u64)>,
        next_id: u64,
        last_advance: SimTime,
        busy: SimDuration,
        served: f64,
    }

    impl NaivePsServer {
        pub fn new(capacity: f64) -> Self {
            NaivePsServer {
                capacity,
                flows: HashMap::new(),
                completed: Vec::new(),
                next_id: 0,
                last_advance: SimTime::ZERO,
                busy: SimDuration::ZERO,
                served: 0.0,
            }
        }

        pub fn advance(&mut self, now: SimTime) {
            assert!(now >= self.last_advance);
            let dt = (now - self.last_advance).as_secs();
            self.last_advance = now;
            if dt == 0.0 {
                self.harvest_completed();
                return;
            }
            if !self.flows.is_empty() {
                self.busy += SimDuration::from_secs(dt);
            }
            for flow in self.flows.values_mut() {
                let done = flow.rate * dt;
                flow.remaining -= done;
                self.served += done;
            }
            self.harvest_completed();
        }

        fn harvest_completed(&mut self) {
            let quantum = time_quantum(self.last_advance);
            let mut finished: Vec<FlowId> = self
                .flows
                .iter()
                .filter(|(_, f)| is_finished(f.remaining, f.demand, f.rate, quantum))
                .map(|(id, _)| *id)
                .collect();
            if finished.is_empty() {
                return;
            }
            finished.sort_unstable();
            for id in finished {
                let f = self.flows.remove(&id).expect("flow present");
                self.completed.push((id, f.tag));
            }
            self.reassign_rates();
        }

        pub fn add_flow(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
            self.advance(now);
            let id = FlowId(self.next_id);
            self.next_id += 1;
            if spec.demand == 0.0 {
                self.completed.push((id, spec.tag));
                return id;
            }
            self.flows.insert(
                id,
                Flow {
                    remaining: spec.demand,
                    demand: spec.demand,
                    cap: spec.cap,
                    rate: 0.0,
                    tag: spec.tag,
                },
            );
            self.reassign_rates();
            id
        }

        pub fn remove_flow(&mut self, now: SimTime, id: FlowId) -> Option<f64> {
            self.advance(now);
            let flow = self.flows.remove(&id)?;
            self.reassign_rates();
            Some(flow.remaining)
        }

        pub fn take_completed(&mut self) -> Vec<(FlowId, u64)> {
            std::mem::take(&mut self.completed)
        }

        pub fn next_completion(&self) -> Option<SimTime> {
            self.flows
                .values()
                .filter(|f| f.rate > 0.0)
                .map(|f| {
                    let dt = (f.remaining / f.rate).max(0.0);
                    self.last_advance + SimDuration::from_secs(dt)
                })
                .min()
        }

        pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
            self.flows.get(&id).map(|f| f.rate)
        }

        pub fn busy_time(&self) -> SimDuration {
            self.busy
        }

        pub fn served_units(&self) -> f64 {
            self.served
        }

        pub fn active_flows(&self) -> usize {
            self.flows.len()
        }

        fn reassign_rates(&mut self) {
            let n = self.flows.len();
            if n == 0 {
                return;
            }
            let mut order: Vec<FlowId> = self.flows.keys().copied().collect();
            order.sort_by(|a, b| {
                let ca = self.flows[a].cap;
                let cb = self.flows[b].cap;
                ca.total_cmp(&cb).then(a.cmp(b))
            });
            let mut remaining_capacity = self.capacity;
            let mut remaining_flows = n;
            for id in order {
                let fair_share = remaining_capacity / remaining_flows as f64;
                let flow = self.flows.get_mut(&id).expect("flow present");
                let rate = flow.cap.min(fair_share);
                flow.rate = rate;
                remaining_capacity -= rate;
                remaining_flows -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::naive::NaivePsServer;
    use super::*;
    use proptest::prelude::*;

    fn spec(demand: f64, cap: f64) -> FlowSpec {
        FlowSpec {
            demand,
            cap,
            tag: 0,
        }
    }

    #[test]
    fn single_uncapped_flow_gets_full_capacity() {
        let mut s = PsServer::new(2.0);
        s.add_flow(SimTime::ZERO, spec(4.0, f64::INFINITY));
        assert_eq!(s.next_completion(), Some(SimTime::from_secs(2.0)));
    }

    #[test]
    fn capped_flow_limited_to_cap() {
        let mut s = PsServer::new(10.0);
        let id = s.add_flow(SimTime::ZERO, spec(4.0, 2.0));
        assert_eq!(s.flow_rate(id), Some(2.0));
        assert_eq!(s.next_completion(), Some(SimTime::from_secs(2.0)));
    }

    #[test]
    fn break_point_behaviour_matches_paper() {
        // Paper Section IV-A: T = 60 MB/s per core, BW = 120 MB/s => b = 2.
        // With P <= 2 flows each attains T; with P = 4 each gets BW / 4.
        let bw = 120.0;
        let t = 60.0;
        let mut s = PsServer::new(bw);
        let a = s.add_flow(SimTime::ZERO, spec(600.0, t));
        let b = s.add_flow(SimTime::ZERO, spec(600.0, t));
        assert_eq!(s.flow_rate(a), Some(60.0));
        assert_eq!(s.flow_rate(b), Some(60.0));
        let c = s.add_flow(SimTime::ZERO, spec(600.0, t));
        let d = s.add_flow(SimTime::ZERO, spec(600.0, t));
        for id in [a, b, c, d] {
            assert_eq!(s.flow_rate(id), Some(30.0), "4 flows share BW equally");
        }
    }

    #[test]
    fn water_filling_redistributes_capped_slack() {
        // capacity 10, caps [1, inf, inf]: capped flow gets 1, others 4.5 each.
        let mut s = PsServer::new(10.0);
        let a = s.add_flow(SimTime::ZERO, spec(100.0, 1.0));
        let b = s.add_flow(SimTime::ZERO, spec(100.0, f64::INFINITY));
        let c = s.add_flow(SimTime::ZERO, spec(100.0, f64::INFINITY));
        assert_eq!(s.flow_rate(a), Some(1.0));
        assert_eq!(s.flow_rate(b), Some(4.5));
        assert_eq!(s.flow_rate(c), Some(4.5));
        assert!((s.total_rate() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn underloaded_server_is_not_work_conserving_beyond_caps() {
        let mut s = PsServer::new(100.0);
        s.add_flow(SimTime::ZERO, spec(10.0, 3.0));
        s.add_flow(SimTime::ZERO, spec(10.0, 4.0));
        assert!((s.total_rate() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn completion_sequence_and_rate_rescaling() {
        // Two flows, demands 1 and 3, capacity 2, uncapped.
        // Phase 1: both at rate 1; flow A finishes at t=1.
        // Phase 2: B alone at rate 2 with 2 remaining; finishes at t=2.
        let mut s = PsServer::new(2.0);
        s.add_flow(
            SimTime::ZERO,
            FlowSpec {
                demand: 1.0,
                cap: f64::INFINITY,
                tag: 1,
            },
        );
        s.add_flow(
            SimTime::ZERO,
            FlowSpec {
                demand: 3.0,
                cap: f64::INFINITY,
                tag: 2,
            },
        );
        let t1 = s.next_completion().unwrap();
        assert_eq!(t1, SimTime::from_secs(1.0));
        s.advance(t1);
        let done = s.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, 1);
        let t2 = s.next_completion().unwrap();
        assert_eq!(t2, SimTime::from_secs(2.0));
        s.advance(t2);
        assert_eq!(s.take_completed()[0].1, 2);
        assert_eq!(s.active_flows(), 0);
        assert_eq!(s.next_completion(), None);
    }

    #[test]
    fn zero_demand_flow_completes_immediately() {
        let mut s = PsServer::new(1.0);
        s.add_flow(
            SimTime::ZERO,
            FlowSpec {
                demand: 0.0,
                cap: 1.0,
                tag: 42,
            },
        );
        assert_eq!(s.take_completed(), vec![(FlowId(0), 42)]);
        assert_eq!(s.active_flows(), 0);
    }

    #[test]
    fn remove_flow_returns_remaining() {
        let mut s = PsServer::new(1.0);
        let id = s.add_flow(SimTime::ZERO, spec(10.0, f64::INFINITY));
        let left = s.remove_flow(SimTime::from_secs(4.0), id);
        assert!((left.unwrap() - 6.0).abs() < 1e-9);
        assert!(s.remove_flow(SimTime::from_secs(4.0), id).is_none());
    }

    #[test]
    fn busy_time_and_served_units_accumulate() {
        let mut s = PsServer::new(2.0);
        s.add_flow(SimTime::ZERO, spec(4.0, f64::INFINITY));
        s.advance(SimTime::from_secs(2.0));
        s.take_completed();
        s.advance(SimTime::from_secs(5.0)); // idle period
        assert!((s.busy_time().as_secs() - 2.0).abs() < 1e-9);
        assert!((s.served_units() - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn time_cannot_go_backwards() {
        let mut s = PsServer::new(1.0);
        s.advance(SimTime::from_secs(2.0));
        s.advance(SimTime::from_secs(1.0));
    }

    #[test]
    fn late_join_shares_fairly() {
        let mut s = PsServer::new(2.0);
        s.add_flow(
            SimTime::ZERO,
            FlowSpec {
                demand: 4.0,
                cap: f64::INFINITY,
                tag: 1,
            },
        );
        // At t=1, 2 units remain for flow 1; flow 2 joins with demand 2.
        s.add_flow(
            SimTime::from_secs(1.0),
            FlowSpec {
                demand: 2.0,
                cap: f64::INFINITY,
                tag: 2,
            },
        );
        // Both now at rate 1; both finish at t=3.
        assert_eq!(s.next_completion(), Some(SimTime::from_secs(3.0)));
        s.advance(SimTime::from_secs(3.0));
        assert_eq!(s.take_completed().len(), 2);
    }

    #[test]
    fn join_flips_a_capped_flow_to_fair_limited() {
        // capacity 10: one flow capped at 4 (fair 10), then joins push the
        // fair share below 4, flipping it. Threshold bookkeeping must start
        // the refill at the flipped position, not after it.
        let mut s = PsServer::new(10.0);
        let a = s.add_flow(SimTime::ZERO, spec(1e6, 4.0));
        assert_eq!(s.flow_rate(a), Some(4.0));
        let b = s.add_flow(SimTime::ZERO, spec(1e6, f64::INFINITY));
        assert_eq!(s.flow_rate(a), Some(4.0), "fair 5 still above cap 4");
        assert_eq!(s.flow_rate(b), Some(6.0));
        let c = s.add_flow(SimTime::ZERO, spec(1e6, f64::INFINITY));
        // fair = 10/3 < 4: flow a is now fair-limited.
        let fair = 10.0 / 3.0;
        assert_eq!(s.flow_rate(a), Some(fair));
        for id in [b, c] {
            assert!(s.flow_rate(id).unwrap() <= fair + 1e-12);
        }
        assert!((s.total_rate() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn peak_flow_high_water_mark_tracks_and_resets() {
        let mut s = PsServer::new(10.0);
        let a = s.add_flow(SimTime::ZERO, spec(1.0, 1.0));
        let _b = s.add_flow(SimTime::ZERO, spec(1.0, 1.0));
        assert_eq!(s.peak_active_flows(), 2);
        s.remove_flow(SimTime::ZERO, a);
        assert_eq!(s.peak_active_flows(), 2, "peak survives removals");
        s.reset_peak();
        assert_eq!(s.peak_active_flows(), 1);
    }

    #[test]
    fn drain_completed_tags_is_equivalent_to_take_completed() {
        let mut s = PsServer::new(4.0);
        for tag in 10..14 {
            s.add_flow(
                SimTime::ZERO,
                FlowSpec {
                    demand: 1.0,
                    cap: 1.0,
                    tag,
                },
            );
        }
        s.advance(SimTime::from_secs(1.0));
        let mut tags = Vec::new();
        s.drain_completed_tags(&mut tags);
        assert_eq!(tags, vec![10, 11, 12, 13]);
        assert!(s.take_completed().is_empty(), "drain consumed the list");
    }

    #[test]
    fn no_zero_progress_livelock_on_ulp_residuals() {
        // Repeatedly advancing to `next_completion` must terminate even
        // when FP residue leaves a few ULPs of work: the quantum clause of
        // the shared finish predicate harvests such flows instead of
        // scheduling a completion at `now + ~0` forever.
        let mut s = PsServer::new(0.3);
        s.add_flow(SimTime::ZERO, spec(0.1, 0.07));
        s.add_flow(SimTime::ZERO, spec(0.2, f64::INFINITY));
        s.add_flow(SimTime::ZERO, spec(0.30000000000000004, f64::INFINITY));
        let mut steps = 0;
        let mut done = 0;
        while let Some(t) = s.next_completion() {
            s.advance(t);
            done += s.take_completed().len();
            steps += 1;
            assert!(steps < 50, "livelock: {steps} pumps, {done}/3 complete");
        }
        assert_eq!(done, 3);
        assert_eq!(s.active_flows(), 0);
    }

    #[test]
    fn next_completion_projection_uses_the_harvest_predicate() {
        // The projected completion instant must actually complete the flow
        // when advanced to — the projection and the harvest share one
        // finish predicate, so `advance(next_completion())` always makes
        // progress.
        let mut s = PsServer::new(1.0);
        s.add_flow(SimTime::ZERO, spec(1e9 + 0.1, f64::INFINITY));
        let t = s.next_completion().unwrap();
        s.advance(t);
        assert_eq!(s.take_completed().len(), 1);
    }

    /// One random operation on both implementations.
    #[derive(Debug, Clone)]
    enum Op {
        Add { demand: f64, cap: f64 },
        Remove(usize),
        Advance(f64),
        Query,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // (kind, demand-kind, demand, cap-kind, cap, remove-index, dt)
        (
            0u32..10,
            0u32..4,
            0.01f64..50.0,
            0u32..4,
            0.1f64..8.0,
            0usize..64,
            0.0f64..4.0,
        )
            .prop_map(|(kind, dk, d, ck, c, idx, dt)| match kind {
                0..=3 => Op::Add {
                    demand: match dk {
                        0 => 0.0, // zero-demand: completes immediately
                        1 => d * 1e4,
                        _ => d,
                    },
                    cap: match ck {
                        0 => f64::INFINITY,
                        1 => 1.0, // deliberate cap ties
                        _ => c,
                    },
                },
                4 | 5 => Op::Remove(idx),
                6..=8 => Op::Advance(dt),
                _ => Op::Query,
            })
    }

    proptest! {
        /// The incremental server is indistinguishable from the naive
        /// oracle: identical rates (to the bit), identical completion
        /// times (to the bit), identical completion sequences, and
        /// matching busy/served accounting, over random add/remove/advance
        /// sequences including cap ties and zero-demand flows.
        #[test]
        fn incremental_matches_naive_oracle(
            capacity in prop::sample::select(vec![1.0, 3.0, 10.0, 0.7, 64.0]),
            ops in proptest::collection::vec(op_strategy(), 1..60),
        ) {
            let mut fast = PsServer::new(capacity);
            let mut slow = NaivePsServer::new(capacity);
            let mut now = SimTime::ZERO;
            let mut live_ids: Vec<FlowId> = Vec::new();
            for op in ops {
                match op {
                    Op::Add { demand, cap } => {
                        let a = fast.add_flow(now, FlowSpec { demand, cap, tag: 7 });
                        let b = slow.add_flow(now, FlowSpec { demand, cap, tag: 7 });
                        prop_assert_eq!(a, b, "flow ids diverged");
                        live_ids.push(a);
                    }
                    Op::Remove(i) => {
                        if live_ids.is_empty() { continue; }
                        let id = live_ids[i % live_ids.len()];
                        let a = fast.remove_flow(now, id);
                        let b = slow.remove_flow(now, id);
                        match (a, b) {
                            (Some(x), Some(y)) =>
                                prop_assert_eq!(x.to_bits(), y.to_bits(), "residual demand"),
                            (None, None) => {}
                            (a, b) => prop_assert!(false, "remove diverged: {a:?} vs {b:?}"),
                        }
                    }
                    Op::Advance(dt) => {
                        now += SimDuration::from_secs(dt);
                        fast.advance(now);
                        slow.advance(now);
                    }
                    Op::Query => {
                        // exercise the cached next_completion twice
                        let _ = fast.next_completion();
                    }
                }
                // Completion streams must match exactly, order included.
                prop_assert_eq!(fast.take_completed(), slow.take_completed());
                prop_assert_eq!(fast.active_flows(), slow.active_flows());
                let (a, b) = (fast.next_completion(), slow.next_completion());
                match (a, b) {
                    (Some(x), Some(y)) =>
                        prop_assert_eq!(x.as_secs().to_bits(), y.as_secs().to_bits(),
                            "next_completion drifted: {} vs {}", x, y),
                    (None, None) => {}
                    (a, b) => prop_assert!(false, "next_completion diverged: {a:?} vs {b:?}"),
                }
                for id in &live_ids {
                    let (ra, rb) = (fast.flow_rate(*id), slow.flow_rate(*id));
                    match (ra, rb) {
                        (Some(x), Some(y)) =>
                            prop_assert_eq!(x.to_bits(), y.to_bits(), "rate drifted"),
                        (None, None) => {}
                        (ra, rb) => prop_assert!(false, "rate diverged: {ra:?} vs {rb:?}"),
                    }
                }
                prop_assert_eq!(
                    fast.busy_time().as_secs().to_bits(),
                    slow.busy_time().as_secs().to_bits(),
                    "busy time drifted"
                );
                // `served` sums per-flow increments in different orders
                // (slab order vs hash order) — equal up to FP tolerance.
                let (sa, sb) = (fast.served_units(), slow.served_units());
                prop_assert!(
                    (sa - sb).abs() <= 1e-9 * sb.abs().max(1.0),
                    "served drifted: {sa} vs {sb}"
                );
            }
        }
    }

    #[test]
    fn burst_drain_refreshes_the_horizon_only_if_the_last_join_refilled_from_the_front() {
        // A same-time rescan refreshes the projection and the safe-skip
        // horizon only when it covers every position, i.e. when the last
        // join refilled from position 0. A coalesced burst refills from its
        // earliest start, yet must leave the same watermark.
        let drained_horizon = |caps: &[f64]| {
            let mut s = PsServer::new(10.0);
            let now = SimTime::from_secs(1.0);
            s.advance(now);
            for &cap in caps {
                s.add_flow(now, spec(5.0, cap));
            }
            s.advance(now);
            s.harvest_horizon()
        };
        // Last join behind a capped flow that stays capped: no refresh,
        // although the first join refilled from the front.
        assert_eq!(drained_horizon(&[0.1, f64::INFINITY]), f64::NEG_INFINITY);
        // Last join lands at position 0.
        assert!(drained_horizon(&[f64::INFINITY, 0.1]).is_finite());
        // Last join flips the capped position-0 flow to fair-limited.
        assert!(drained_horizon(&[4.0, f64::INFINITY, f64::INFINITY]).is_finite());
    }

    /// One join of a same-time burst.
    #[derive(Debug, Clone, Copy)]
    struct Join {
        demand: f64,
        cap: f64,
    }

    fn join_strategy() -> impl Strategy<Value = Join> {
        (0u32..8, 0.01f64..50.0, 0u32..5, 0.01f64..8.0).prop_map(|(dk, d, ck, c)| Join {
            demand: match dk {
                0 => 0.0,       // zero demand: completes at once
                1 => d * 1e-10, // tiny: under the eps bound or within the quantum
                2 => d * 1e4,
                _ => d,
            },
            cap: match ck {
                0 => f64::INFINITY,
                1 => 1.0,      // deliberate cap ties
                2 => c * 1e-3, // the smallest caps land at position 0
                _ => c,
            },
        })
    }

    /// A round: an optional same-time leave, a burst of joins with no reads
    /// in between, then an advance by `dt` (zero included).
    fn round_strategy() -> impl Strategy<Value = (usize, Vec<Join>, f64)> {
        (
            0usize..96,
            proptest::collection::vec(join_strategy(), 1..12),
            prop::sample::select(vec![0.0, 0.0, 0.05, 0.5, 2.0, 7.0]),
        )
    }

    proptest! {
        /// Same-time join bursts, whose refills are coalesced, are
        /// indistinguishable from the naive oracle's per-join refills:
        /// identical completion streams, rates, next-completion bits and
        /// busy time — including zero and tiny demands (joins that are
        /// never deferred), capped joins landing at position 0, cap ties,
        /// and start times late enough that the time quantum matters.
        #[test]
        fn join_bursts_match_naive_oracle(
            capacity in prop::sample::select(vec![1.0, 3.0, 10.0, 0.7, 1e6]),
            t0 in prop::sample::select(vec![0.0, 1e3, 1e6]),
            rounds in proptest::collection::vec(round_strategy(), 1..10),
        ) {
            let mut fast = PsServer::new(capacity);
            let mut slow = NaivePsServer::new(capacity);
            let mut now = SimTime::from_secs(t0);
            let mut live_ids: Vec<FlowId> = Vec::new();
            for (rm, burst, dt) in rounds {
                if rm < live_ids.len() {
                    let id = live_ids.swap_remove(rm);
                    let a = fast.remove_flow(now, id).map(f64::to_bits);
                    let b = slow.remove_flow(now, id).map(f64::to_bits);
                    prop_assert_eq!(a, b, "remove diverged");
                }
                for j in burst {
                    let spec = FlowSpec { demand: j.demand, cap: j.cap, tag: 3 };
                    let a = fast.add_flow(now, spec);
                    prop_assert_eq!(a, slow.add_flow(now, spec), "flow ids diverged");
                    live_ids.push(a);
                }
                now += SimDuration::from_secs(dt);
                fast.advance(now);
                slow.advance(now);
                let done = fast.take_completed();
                prop_assert_eq!(&done, &slow.take_completed());
                live_ids.retain(|id| !done.iter().any(|(d, _)| d == id));
                prop_assert_eq!(fast.active_flows(), slow.active_flows());
                prop_assert_eq!(
                    fast.next_completion().map(|t| t.as_secs().to_bits()),
                    slow.next_completion().map(|t| t.as_secs().to_bits()),
                    "next_completion drifted"
                );
                for id in &live_ids {
                    prop_assert_eq!(
                        fast.flow_rate(*id).map(f64::to_bits),
                        slow.flow_rate(*id).map(f64::to_bits),
                        "rate drifted"
                    );
                }
                prop_assert_eq!(
                    fast.busy_time().as_secs().to_bits(),
                    slow.busy_time().as_secs().to_bits(),
                    "busy time drifted"
                );
            }
        }

        /// The cached state a burst leaves behind does not depend on
        /// whether anything read the server mid-burst: reading
        /// `next_completion_lb` after every join (which flushes each join
        /// on its own) and reading nothing (one coalesced refill) leave the
        /// same completions, `next_completion_lb` and `harvest_horizon`
        /// after the same-time drain, and the same trajectory afterwards.
        #[test]
        fn mid_burst_reads_leave_the_same_cached_state(
            capacity in prop::sample::select(vec![1.0, 3.0, 10.0, 1e6]),
            t0 in prop::sample::select(vec![0.5, 1e3, 1e6]),
            background in proptest::collection::vec(join_strategy(), 0..10),
            burst in proptest::collection::vec(join_strategy(), 1..14),
        ) {
            let run = |reads: bool| {
                let mut s = PsServer::new(capacity);
                for j in &background {
                    s.add_flow(SimTime::ZERO, FlowSpec { demand: j.demand * 1e3, cap: j.cap, tag: 1 });
                }
                let now = SimTime::from_secs(t0);
                s.advance(now);
                let mut trace = vec![format!("{:?}", s.take_completed())];
                for j in &burst {
                    s.add_flow(now, FlowSpec { demand: j.demand, cap: j.cap, tag: 2 });
                    if reads {
                        let _ = s.next_completion_lb();
                    }
                }
                // The drain: the same-time rescan after the burst.
                s.advance(now);
                trace.push(format!("{:?}", s.take_completed()));
                for step in 0..8 {
                    let lb = s.next_completion_lb().map(|(t, exact)| (t.as_secs().to_bits(), exact));
                    trace.push(format!("{:x} {lb:?}", s.harvest_horizon().to_bits()));
                    let next = match lb {
                        Some((bits, _)) if step % 2 == 0 => f64::from_bits(bits),
                        _ => s.last_advance.as_secs() + 0.25,
                    };
                    s.advance(SimTime::from_secs(next.max(s.last_advance.as_secs())));
                    trace.push(format!("{:?}", s.take_completed()));
                }
                trace
            };
            prop_assert_eq!(run(true), run(false));
        }
    }
}
