//! Device specifications and runtime device state.

use std::fmt;

use doppio_events::{Bytes, FlowId, FlowSpec, PsServer, Rate, SimTime};

use crate::{BandwidthCurve, IoStat};

/// Direction of an I/O transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoDir {
    /// Data read from the device.
    Read,
    /// Data written to the device.
    Write,
}

impl fmt::Display for IoDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoDir::Read => write!(f, "read"),
            IoDir::Write => write!(f, "write"),
        }
    }
}

/// Static description of a storage device: a name plus read and write
/// effective-bandwidth curves.
///
/// Specs are pure data and cheap to clone; a runtime [`Device`] is built
/// from a spec per simulated node.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    name: String,
    read: BandwidthCurve,
    write: BandwidthCurve,
    capacity: Option<Bytes>,
}

impl DeviceSpec {
    /// Creates a device spec from read/write curves.
    pub fn new(name: impl Into<String>, read: BandwidthCurve, write: BandwidthCurve) -> Self {
        DeviceSpec {
            name: name.into(),
            read,
            write,
            capacity: None,
        }
    }

    /// Sets the device capacity (used by the cloud sizing study; `None`
    /// means "large enough", which is what the on-prem experiments assume).
    pub fn with_capacity(mut self, capacity: Bytes) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Device name (e.g. `"WD4000FYYZ"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The read bandwidth curve.
    pub fn read_curve(&self) -> &BandwidthCurve {
        &self.read
    }

    /// The write bandwidth curve.
    pub fn write_curve(&self) -> &BandwidthCurve {
        &self.write
    }

    /// Curve for a given direction.
    pub fn curve(&self, dir: IoDir) -> &BandwidthCurve {
        match dir {
            IoDir::Read => &self.read,
            IoDir::Write => &self.write,
        }
    }

    /// Effective bandwidth for a direction and request size.
    pub fn bandwidth(&self, dir: IoDir, request_size: Bytes) -> Rate {
        self.curve(dir).bandwidth(request_size)
    }

    /// Configured capacity, if any.
    pub fn capacity(&self) -> Option<Bytes> {
        self.capacity
    }
}

impl fmt::Display for DeviceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (read peak {}, write peak {})",
            self.name,
            self.read.peak(),
            self.write.peak()
        )
    }
}

/// Parameters of an I/O transfer submitted to a [`Device`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferSpec {
    /// Transfer direction.
    pub dir: IoDir,
    /// Total bytes to move.
    pub bytes: Bytes,
    /// Request size the stream issues (determines effective bandwidth).
    pub request_size: Bytes,
    /// Per-stream throughput cap — the paper's `T`, the rate one CPU core
    /// can drive this kind of I/O with no device contention. `None` means
    /// the stream can use the device's full effective bandwidth.
    pub stream_cap: Option<Rate>,
    /// Opaque owner tag returned on completion.
    pub tag: u64,
}

/// A runtime storage device: a processor-sharing server over *device time*.
///
/// A stream transferring at request size `rs` needs `1 / BW(rs)` device-
/// seconds per byte, so mixed-request-size workloads compose harmonically —
/// exactly how a real disk's time is consumed. The server capacity is 1.0
/// device-second per second.
///
/// Contention behaviour therefore matches Section IV of the paper: `k`
/// identical streams each capped at byte-rate `T` saturate the device when
/// `k >= b = BW(rs) / T`, after which aggregate throughput stays at
/// `BW(rs)`.
///
/// # Example
///
/// ```
/// use doppio_events::{Bytes, Rate, SimTime};
/// use doppio_storage::{presets, Device, IoDir, TransferSpec};
///
/// let mut ssd = Device::new(presets::ssd_mz7lm());
/// ssd.submit(SimTime::ZERO, TransferSpec {
///     dir: IoDir::Read,
///     bytes: Bytes::from_mib(480),
///     request_size: Bytes::from_kib(30),
///     stream_cap: Some(Rate::mib_per_sec(60.0)), // paper's T for shuffle read
///     tag: 0,
/// });
/// // One capped stream: 480 MiB at 60 MiB/s = 8 s.
/// let done = ssd.next_completion().unwrap();
/// assert!((done.as_secs() - 8.0).abs() < 1e-6);
/// ```
#[derive(Debug)]
pub struct Device {
    spec: DeviceSpec,
    server: PsServer,
    stats: IoStat,
    speed_scale: f64,
}

impl Device {
    /// Creates an idle device from a spec.
    pub fn new(spec: DeviceSpec) -> Self {
        Device {
            spec,
            server: PsServer::new(1.0),
            stats: IoStat::default(),
            speed_scale: 1.0,
        }
    }

    /// The device's static spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// iostat-style counters accumulated so far.
    pub fn stats(&self) -> &IoStat {
        &self.stats
    }

    /// Resets the iostat counters (e.g. between stages, like clearing
    /// `iostat` deltas between profiling windows).
    pub fn reset_stats(&mut self) {
        self.stats = IoStat::default();
    }

    /// Submits a transfer at time `now`; returns the flow id.
    ///
    /// Zero-byte transfers complete immediately.
    ///
    /// # Panics
    ///
    /// Panics if `request_size` is zero while `bytes` is non-zero.
    pub fn submit(&mut self, now: SimTime, t: TransferSpec) -> FlowId {
        if !t.bytes.is_zero() {
            assert!(t.request_size.as_u64() > 0, "request size must be positive");
        }
        let rs = t.request_size.min(t.bytes.max(Bytes::new(1)));
        let bw = self.spec.bandwidth(t.dir, rs).as_bytes_per_sec() * self.speed_scale;
        // Service demand in device-seconds.
        let demand = t.bytes.as_f64() / bw;
        // Per-flow cap in device-time rate: a byte-rate cap of T corresponds
        // to T / BW(rs) device-seconds per second, and no flow can use more
        // than the whole device.
        let cap = match t.stream_cap {
            Some(cap_rate) => (cap_rate.as_bytes_per_sec() / bw).min(1.0),
            None => 1.0,
        };
        self.stats.record(t.dir, t.bytes, rs);
        self.server.add_flow(
            now,
            FlowSpec {
                demand,
                cap,
                tag: t.tag,
            },
        )
    }

    /// Integrates progress up to `now` (see [`PsServer::advance`]).
    #[inline]
    pub fn advance(&mut self, now: SimTime) {
        self.server.advance(now);
    }

    /// Applies a deferred sequence of advance timestamps, bit-identical to
    /// having called [`Device::advance`] at each (see [`PsServer::replay`]).
    #[inline]
    pub fn replay(&mut self, times: &[SimTime]) {
        self.server.replay(times);
    }

    /// Time of the next transfer completion, if any. Cached between calls
    /// on an unchanged device (see [`PsServer::next_completion`]).
    #[inline]
    pub fn next_completion(&mut self) -> Option<SimTime> {
        self.server.next_completion()
    }

    /// Cheap next-completion estimate that never forces deferred
    /// integration — exact when synced, else a conservative lower bound
    /// (see [`PsServer::next_completion_lb`]).
    #[inline]
    pub fn next_completion_lb(&mut self) -> Option<(SimTime, bool)> {
        self.server.next_completion_lb()
    }

    /// Drains completed transfers as `(flow id, tag)` pairs.
    pub fn take_completed(&mut self) -> Vec<(FlowId, u64)> {
        self.server.take_completed()
    }

    /// Absolute time (seconds) strictly below which an advance cannot
    /// complete any transfer (see [`PsServer::harvest_horizon`]).
    #[inline]
    pub fn harvest_horizon(&self) -> f64 {
        self.server.harvest_horizon()
    }

    /// Appends the tags of completed transfers to `out` without allocating
    /// (the hot-path variant of [`Device::take_completed`]).
    #[inline]
    pub fn drain_completed_tags(&mut self, out: &mut Vec<u64>) {
        self.server.drain_completed_tags(out);
    }

    /// Number of in-flight transfers.
    pub fn active_transfers(&self) -> usize {
        self.server.active_flows()
    }

    /// High-water mark of concurrent transfers since the last
    /// [`Device::reset_peak`].
    pub fn peak_transfers(&self) -> usize {
        self.server.peak_active_flows()
    }

    /// Restarts the concurrent-transfer high-water mark (between stages).
    pub fn reset_peak(&mut self) {
        self.server.reset_peak();
    }

    /// Instantaneous byte rate of a specific flow.
    pub fn flow_byte_rate(&mut self, id: FlowId, dir: IoDir, request_size: Bytes) -> Option<Rate> {
        let device_time_rate = self.server.flow_rate(id)?;
        let bw = self.spec.bandwidth(dir, request_size);
        Some(Rate::bytes_per_sec(
            device_time_rate * bw.as_bytes_per_sec(),
        ))
    }

    /// Cancels an in-flight transfer.
    pub fn cancel(&mut self, now: SimTime, id: FlowId) -> bool {
        self.server.remove_flow(now, id).is_some()
    }

    /// Multiplies the device's effective bandwidth by `factor` — the
    /// degraded-disk window of a fault plan. Scales compose
    /// multiplicatively, so a window ends by applying `1.0 / factor`.
    /// Only transfers submitted while a scale is in force are affected;
    /// in-flight transfers keep their original service demand.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn scale_speed(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "speed scale factor must be finite and positive, got {factor}"
        );
        self.speed_scale *= factor;
    }

    /// The current bandwidth multiplier (1.0 = healthy).
    pub fn speed_scale(&self) -> f64 {
        self.speed_scale
    }

    /// Fraction of elapsed time the device was busy (like iostat `%util`).
    pub fn utilization(&self, elapsed: doppio_events::SimDuration) -> f64 {
        if elapsed.as_secs() == 0.0 {
            0.0
        } else {
            (self.server.busy_time().as_secs() / elapsed.as_secs()).min(1.0)
        }
    }
}

impl doppio_engine::Fingerprintable for DeviceSpec {
    fn fingerprint_into(&self, fp: &mut doppio_engine::FingerprintBuilder) {
        fp.write_str(&self.name);
        self.read.fingerprint_into(fp);
        self.write.fingerprint_into(fp);
        self.capacity.fingerprint_into(fp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn drive_to_completion(dev: &mut Device) -> SimTime {
        let mut last = SimTime::ZERO;
        while let Some(t) = dev.next_completion() {
            dev.advance(t);
            dev.take_completed();
            last = t;
        }
        last
    }

    #[test]
    fn single_uncapped_stream_runs_at_effective_bandwidth() {
        let mut hdd = Device::new(presets::hdd_wd4000());
        let rs = Bytes::from_kib(30);
        let bw = hdd.spec().bandwidth(IoDir::Read, rs);
        hdd.submit(
            SimTime::ZERO,
            TransferSpec {
                dir: IoDir::Read,
                bytes: Bytes::from_mib(150),
                request_size: rs,
                stream_cap: None,
                tag: 0,
            },
        );
        let done = drive_to_completion(&mut hdd);
        let expect = Bytes::from_mib(150).as_f64() / bw.as_bytes_per_sec();
        assert!((done.as_secs() - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn speed_scale_stretches_new_transfers_and_windows_compose() {
        let rs = Bytes::from_kib(30);
        let spec = TransferSpec {
            dir: IoDir::Read,
            bytes: Bytes::from_mib(150),
            request_size: rs,
            stream_cap: None,
            tag: 0,
        };
        let mut healthy = Device::new(presets::hdd_wd4000());
        healthy.submit(SimTime::ZERO, spec);
        let baseline = drive_to_completion(&mut healthy).as_secs();

        let mut degraded = Device::new(presets::hdd_wd4000());
        degraded.scale_speed(0.25);
        assert!((degraded.speed_scale() - 0.25).abs() < 1e-12);
        degraded.submit(SimTime::ZERO, spec);
        let slow = drive_to_completion(&mut degraded).as_secs();
        assert!((slow - 4.0 * baseline).abs() / baseline < 1e-9);

        // Closing the window with the reciprocal restores full speed for
        // transfers submitted afterwards.
        degraded.scale_speed(1.0 / 0.25);
        assert!((degraded.speed_scale() - 1.0).abs() < 1e-9);
        let t0 = SimTime::ZERO + doppio_events::SimDuration::from_secs(slow);
        degraded.submit(t0, spec);
        let recovered = drive_to_completion(&mut degraded).as_secs() - slow;
        assert!((recovered - baseline).abs() / baseline < 1e-9);
    }

    #[test]
    fn zero_length_degradation_window_is_a_no_op() {
        // A fault window that opens and closes at the same instant (scale
        // then immediate reciprocal, no submissions in between) must leave
        // transfer timing bit-identical to a device that never degraded.
        let spec = TransferSpec {
            dir: IoDir::Read,
            bytes: Bytes::from_mib(150),
            request_size: Bytes::from_kib(30),
            stream_cap: None,
            tag: 0,
        };
        let mut healthy = Device::new(presets::hdd_wd4000());
        healthy.submit(SimTime::ZERO, spec);
        let baseline = drive_to_completion(&mut healthy).as_secs();

        let mut windowed = Device::new(presets::hdd_wd4000());
        windowed.scale_speed(0.25);
        windowed.scale_speed(1.0 / 0.25); // window closes before any I/O
        assert_eq!(windowed.speed_scale(), 1.0, "0.25 * 4.0 is exact in f64");
        windowed.submit(SimTime::ZERO, spec);
        let after = drive_to_completion(&mut windowed).as_secs();
        assert_eq!(after.to_bits(), baseline.to_bits());
    }

    #[test]
    fn overlapping_degradation_windows_compose_multiplicatively() {
        // Two overlapping windows (0.5 then 0.5) stack to 0.25; closing the
        // first mid-overlap leaves the second's 0.5 in force.
        let spec = TransferSpec {
            dir: IoDir::Read,
            bytes: Bytes::from_mib(150),
            request_size: Bytes::from_kib(30),
            stream_cap: None,
            tag: 0,
        };
        let mut healthy = Device::new(presets::hdd_wd4000());
        healthy.submit(SimTime::ZERO, spec);
        let baseline = drive_to_completion(&mut healthy).as_secs();

        let mut d = Device::new(presets::hdd_wd4000());
        d.scale_speed(0.5); // window A opens
        d.scale_speed(0.5); // window B opens (overlap)
        assert_eq!(d.speed_scale(), 0.25);
        d.submit(SimTime::ZERO, spec);
        let both = drive_to_completion(&mut d).as_secs();
        assert!((both - 4.0 * baseline).abs() / baseline < 1e-9);

        d.scale_speed(1.0 / 0.5); // window A closes, B still open
        assert_eq!(d.speed_scale(), 0.5);
        let t0 = SimTime::ZERO + doppio_events::SimDuration::from_secs(both);
        d.submit(t0, spec);
        let second = drive_to_completion(&mut d).as_secs() - both;
        assert!((second - 2.0 * baseline).abs() / baseline < 1e-9);
    }

    #[test]
    fn concurrent_streams_saturate_at_device_bandwidth() {
        // 8 uncapped streams reading at 30 KB on an HDD finish in the same
        // total time as the aggregate bytes at BW(30 KB): the device is the
        // bottleneck, matching the paper's "b = 1 for HDD shuffle read".
        let mut hdd = Device::new(presets::hdd_wd4000());
        let rs = Bytes::from_kib(30);
        let per_stream = Bytes::from_mib(30);
        for tag in 0..8 {
            hdd.submit(
                SimTime::ZERO,
                TransferSpec {
                    dir: IoDir::Read,
                    bytes: per_stream,
                    request_size: rs,
                    stream_cap: Some(Rate::mib_per_sec(60.0)),
                    tag,
                },
            );
        }
        let done = drive_to_completion(&mut hdd);
        let bw = hdd.spec().bandwidth(IoDir::Read, rs).as_bytes_per_sec();
        let expect = 8.0 * per_stream.as_f64() / bw;
        assert!(
            (done.as_secs() - expect).abs() / expect < 1e-6,
            "makespan {} vs expected {}",
            done.as_secs(),
            expect
        );
    }

    #[test]
    fn break_point_on_ssd_matches_paper() {
        // Paper Section V-A2: SSD shuffle read BW = 480 MB/s, per-core
        // T = 60 MB/s => b = 8. With 4 streams nothing contends.
        let mut ssd = Device::new(presets::ssd_mz7lm());
        let rs = Bytes::from_kib(30);
        let t = Rate::mib_per_sec(60.0);
        let per_stream = Bytes::from_mib(60);
        for tag in 0..4 {
            ssd.submit(
                SimTime::ZERO,
                TransferSpec {
                    dir: IoDir::Read,
                    bytes: per_stream,
                    request_size: rs,
                    stream_cap: Some(t),
                    tag,
                },
            );
        }
        let done = drive_to_completion(&mut ssd);
        assert!(
            (done.as_secs() - 1.0).abs() < 1e-6,
            "each stream runs at its cap"
        );
    }

    #[test]
    fn mixed_request_sizes_compose_harmonically() {
        // A small-request flow consumes far more device time per byte, so a
        // concurrent large-request flow slows down accordingly.
        let mut hdd = Device::new(presets::hdd_wd4000());
        let small = hdd.submit(
            SimTime::ZERO,
            TransferSpec {
                dir: IoDir::Read,
                bytes: Bytes::from_mib(15),
                request_size: Bytes::from_kib(30),
                stream_cap: None,
                tag: 1,
            },
        );
        let big = hdd.submit(
            SimTime::ZERO,
            TransferSpec {
                dir: IoDir::Read,
                bytes: Bytes::from_mib(138),
                request_size: Bytes::from_mib(128),
                stream_cap: None,
                tag: 2,
            },
        );
        // Each gets half the device time; byte rates differ by curve.
        let r_small = hdd
            .flow_byte_rate(small, IoDir::Read, Bytes::from_kib(30))
            .unwrap();
        let r_big = hdd
            .flow_byte_rate(big, IoDir::Read, Bytes::from_mib(128))
            .unwrap();
        let bw_small = hdd.spec().bandwidth(IoDir::Read, Bytes::from_kib(30));
        let bw_big = hdd.spec().bandwidth(IoDir::Read, Bytes::from_mib(128));
        assert!((r_small.as_bytes_per_sec() - bw_small.as_bytes_per_sec() / 2.0).abs() < 1.0);
        assert!((r_big.as_bytes_per_sec() - bw_big.as_bytes_per_sec() / 2.0).abs() < 1.0);
    }

    #[test]
    fn write_uses_write_curve() {
        let spec = presets::hdd_wd4000();
        let r = spec.bandwidth(IoDir::Read, Bytes::from_mib(128));
        let w = spec.bandwidth(IoDir::Write, Bytes::from_mib(128));
        assert!(w < r, "HDD writes slower than reads at large requests");
    }

    #[test]
    fn stats_record_requests_and_bytes() {
        let mut d = Device::new(presets::ssd_mz7lm());
        d.submit(
            SimTime::ZERO,
            TransferSpec {
                dir: IoDir::Read,
                bytes: Bytes::from_mib(30),
                request_size: Bytes::from_kib(30),
                stream_cap: None,
                tag: 0,
            },
        );
        let s = d.stats();
        assert_eq!(s.bytes(IoDir::Read), Bytes::from_mib(30));
        assert_eq!(s.requests(IoDir::Read), 1024);
        assert_eq!(s.avg_request_size(IoDir::Read), Some(Bytes::from_kib(30)));
    }

    #[test]
    fn zero_byte_transfer_completes_immediately() {
        let mut d = Device::new(presets::ssd_mz7lm());
        d.submit(
            SimTime::ZERO,
            TransferSpec {
                dir: IoDir::Write,
                bytes: Bytes::ZERO,
                request_size: Bytes::from_kib(4),
                stream_cap: None,
                tag: 9,
            },
        );
        d.advance(SimTime::ZERO);
        assert_eq!(d.take_completed().len(), 1);
    }

    #[test]
    fn request_size_clamped_to_transfer_size() {
        // A 1 MiB transfer issued with a 128 MiB "request size" really uses
        // 1 MiB requests; it must not borrow the large-request bandwidth.
        let mut d = Device::new(presets::hdd_wd4000());
        d.submit(
            SimTime::ZERO,
            TransferSpec {
                dir: IoDir::Read,
                bytes: Bytes::from_mib(1),
                request_size: Bytes::from_mib(128),
                stream_cap: None,
                tag: 0,
            },
        );
        let done = drive_to_completion(&mut d);
        let bw_1m = d
            .spec()
            .bandwidth(IoDir::Read, Bytes::from_mib(1))
            .as_bytes_per_sec();
        let expect = Bytes::from_mib(1).as_f64() / bw_1m;
        assert!((done.as_secs() - expect).abs() / expect < 1e-9);
    }
}
