//! The simulated SSD device: FTL + timing front-end.
//!
//! [`SsdDevice::submit`] services one byte-addressed read or write. The
//! device is a single server: a request starts at `max(now, busy_until)`
//! and occupies the device for its service time, which is the fixed
//! command overhead plus per-byte cost (the linear response-vs-size law of
//! the paper's Fig. 1) plus any garbage-collection stall the write
//! triggered. Queueing delay therefore emerges naturally when the
//! simulator submits faster than the device drains — exactly the "I/O
//! queue length increases in bursty periods" effect EDC exploits.

use crate::config::{SsdConfig, SECTOR_BYTES};
use crate::fault::{FaultError, FaultPlan, FaultState, FaultStats};
use crate::ftl::{Ftl, FtlStats, IntegrityError};

/// Read or write, at the device level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Device read.
    Read,
    /// Device write (program).
    Write,
}

/// Cumulative device statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceStats {
    /// Host reads served.
    pub reads: u64,
    /// Host writes served.
    pub writes: u64,
    /// Host bytes read.
    pub bytes_read: u64,
    /// Host bytes written.
    pub bytes_written: u64,
    /// Total device-busy time (ns).
    pub busy_ns: u64,
    /// Time spent stalled in GC (ns), included in `busy_ns`.
    pub gc_stall_ns: u64,
}

impl DeviceStats {
    /// Fold another device's counters into this one (array-level
    /// aggregation over members).
    pub fn merge(&mut self, other: &DeviceStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.busy_ns += other.busy_ns;
        self.gc_stall_ns += other.gc_stall_ns;
    }
}

/// One completed I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// When service began (≥ submission time).
    pub start_ns: u64,
    /// When the device finished.
    pub finish_ns: u64,
}

impl Completion {
    /// Latency from a given submission time.
    pub fn latency_from(&self, submit_ns: u64) -> u64 {
        self.finish_ns - submit_ns
    }
}

/// A simulated flash SSD.
///
/// ```
/// use edc_flash::{SsdDevice, SsdConfig, IoKind};
///
/// let mut dev = SsdDevice::new(SsdConfig::default());
/// let w = dev.submit(0, IoKind::Write, 0, 4096);
/// let r = dev.submit(w.finish_ns, IoKind::Read, 0, 4096);
/// assert!(w.finish_ns - w.start_ns > r.finish_ns - r.start_ns); // writes cost more
/// ```
#[derive(Debug, Clone)]
pub struct SsdDevice {
    cfg: SsdConfig,
    ftl: Ftl,
    busy_until: u64,
    stats: DeviceStats,
    failed: bool,
}

impl SsdDevice {
    /// Create a device from `cfg` (validated).
    pub fn new(cfg: SsdConfig) -> Self {
        cfg.validate();
        SsdDevice {
            ftl: Ftl::new(&cfg),
            cfg,
            busy_until: 0,
            stats: DeviceStats::default(),
            failed: false,
        }
    }

    /// Mark the whole device as failed. Every subsequent I/O returns
    /// [`FaultError::DeviceFailed`] until the device is replaced (arrays
    /// replace failed members with a fresh device during rebuild; there is
    /// deliberately no `unfail` — a dead SSD stays dead).
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Whether [`SsdDevice::fail`] was called.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// The device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Cumulative device statistics.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Cumulative FTL statistics (GC, wear, write amplification).
    pub fn ftl_stats(&self) -> FtlStats {
        self.ftl.stats()
    }

    /// Per-block erase counts.
    pub fn erase_counts(&self) -> &[u32] {
        self.ftl.erase_counts()
    }

    /// Earliest time a new request could start service.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Logical capacity in bytes.
    pub fn logical_bytes(&self) -> u64 {
        self.cfg.logical_bytes
    }

    /// Wrap a byte offset into the logical address space, sector-aligned.
    /// Trace offsets routinely exceed the simulated volume; wrapping
    /// preserves locality structure while staying in range.
    pub fn wrap_offset(&self, offset: u64) -> u64 {
        (offset % self.cfg.logical_bytes) / SECTOR_BYTES * SECTOR_BYTES
    }

    /// Injected-fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.ftl.fault_stats()
    }

    /// The live fault-decision stream (for campaigns that need direct
    /// access, e.g. to inspect the power-cut clock).
    pub fn faults_mut(&mut self) -> &mut FaultState {
        self.ftl.faults_mut()
    }

    /// Replace the fault plan, restarting the decision stream. Lets a
    /// campaign precondition fault-free and then arm faults.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.cfg.fault = plan;
        self.ftl.set_fault_plan(plan);
    }

    /// Restore power after a simulated cut (the one-shot cut is disarmed).
    pub fn power_cycle(&mut self) {
        self.ftl.faults_mut().power_cycle();
    }

    /// Check FTL invariants, returning the first violation as data.
    pub fn verify_integrity(&self) -> Result<(), IntegrityError> {
        self.ftl.verify_integrity()
    }

    /// Submit an I/O at time `now_ns`. `offset`/`len` are bytes; the
    /// request must fit in the logical space after wrapping (the tail is
    /// clipped if it would run past the end of the volume).
    ///
    /// # Panics
    /// Panics on zero-length I/O, or if an injected fault fires — arm a
    /// [`FaultPlan`] only together with [`SsdDevice::try_submit`].
    pub fn submit(&mut self, now_ns: u64, kind: IoKind, offset: u64, len: u32) -> Completion {
        self.try_submit(now_ns, kind, offset, len)
            .expect("fault injected — use try_submit with an armed FaultPlan")
    }

    /// Fallible submit: like [`SsdDevice::submit`] but injected faults
    /// come back as typed [`FaultError`]s. Transient read faults are
    /// retried up to the plan's `read_retries` budget before
    /// [`FaultError::ReadFault`] is returned; write-side faults follow
    /// [`Ftl::try_write`] semantics (a power cut aborts mid-range leaving
    /// completed sectors durable).
    pub fn try_submit(
        &mut self,
        now_ns: u64,
        kind: IoKind,
        offset: u64,
        len: u32,
    ) -> Result<Completion, FaultError> {
        assert!(len > 0, "zero-length I/O");
        if self.failed {
            return Err(FaultError::DeviceFailed);
        }
        let offset = self.wrap_offset(offset);
        let max_len = self.cfg.logical_bytes - offset;
        let len = u64::from(len).min(max_len);
        let lsn = offset / SECTOR_BYTES;
        let sectors = Ftl::sectors_for(len);

        let t = &self.cfg.timing;
        let service_ns = match kind {
            IoKind::Read => {
                let faults = self.ftl.faults_mut();
                faults.check_power()?;
                let retries = faults.plan().read_retries;
                let mut attempt = 0;
                while faults.read_fault() {
                    if attempt == retries {
                        return Err(FaultError::ReadFault);
                    }
                    attempt += 1;
                }
                // Reads of unmapped space are served from the zero-fill fast
                // path at the same transfer cost (controller returns zeroes).
                let _ = self.ftl.read(lsn, sectors);
                t.read_overhead_ns + (len as f64 * t.read_ns_per_byte) as u64
            }
            IoKind::Write => {
                let charge = self.ftl.try_write(lsn, sectors)?;
                let base = t.write_overhead_ns + (len as f64 * t.write_ns_per_byte) as u64;
                let gc = charge.erases * t.erase_ns
                    + (charge.migrated_sectors as f64 * SECTOR_BYTES as f64 * t.migrate_ns_per_byte)
                        as u64;
                self.stats.gc_stall_ns += gc;
                base + gc
            }
        };

        let start_ns = now_ns.max(self.busy_until);
        let finish_ns = start_ns + service_ns;
        self.busy_until = finish_ns;
        self.stats.busy_ns += service_ns;
        match kind {
            IoKind::Read => {
                self.stats.reads += 1;
                self.stats.bytes_read += len;
            }
            IoKind::Write => {
                self.stats.writes += 1;
                self.stats.bytes_written += len;
            }
        }
        Ok(Completion { start_ns, finish_ns })
    }

    /// TRIM `len` bytes at `offset`: unmap without writing. Costs only the
    /// command overhead (discards are metadata operations).
    pub fn trim(&mut self, now_ns: u64, offset: u64, len: u32) -> Completion {
        assert!(len > 0, "zero-length trim");
        let offset = self.wrap_offset(offset);
        let len = u64::from(len).min(self.cfg.logical_bytes - offset);
        let lsn = offset / SECTOR_BYTES;
        self.ftl.trim(lsn, Ftl::sectors_for(len));
        let service = self.cfg.timing.write_overhead_ns / 4; // metadata only
        let start_ns = now_ns.max(self.busy_until);
        let finish_ns = start_ns + service;
        self.busy_until = finish_ns;
        self.stats.busy_ns += service;
        Completion { start_ns, finish_ns }
    }

    /// Precondition the device: sequentially write `fraction` of the
    /// logical space so that later experiments run against a filled FTL
    /// (standard SSD benchmarking practice). Does not advance time or
    /// touch host statistics.
    pub fn precondition(&mut self, fraction: f64) {
        assert!((0.0..=1.0).contains(&fraction));
        let sectors = (self.ftl.logical_sectors() as f64 * fraction) as u64;
        if sectors > 0 {
            self.ftl.write(0, sectors);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NandTiming;

    fn dev() -> SsdDevice {
        SsdDevice::new(SsdConfig {
            logical_bytes: 16 << 20, // 16 MiB: tiny and fast
            overprovision: 0.25,
            sectors_per_block: 64,
            gc_low_watermark: 3,
            ..SsdConfig::default()
        })
    }

    #[test]
    fn response_time_linear_in_request_size() {
        // Fig. 1's defining property: service time ≈ a + b·len for both ops.
        let mut d = dev();
        let t = d.config().timing;
        for kind in [IoKind::Read, IoKind::Write] {
            let small = d.submit(d.busy_until(), kind, 0, 4096);
            let small_ns = small.finish_ns - small.start_ns;
            let large = d.submit(d.busy_until(), kind, 0, 65536);
            let large_ns = large.finish_ns - large.start_ns;
            let (overhead, per_byte) = match kind {
                IoKind::Read => (t.read_overhead_ns, t.read_ns_per_byte),
                IoKind::Write => (t.write_overhead_ns, t.write_ns_per_byte),
            };
            assert_eq!(small_ns, overhead + (4096.0 * per_byte) as u64);
            assert_eq!(large_ns, overhead + (65536.0 * per_byte) as u64);
        }
    }

    #[test]
    fn writes_slower_than_reads() {
        let mut d = dev();
        let w = d.submit(0, IoKind::Write, 0, 4096);
        let now = d.busy_until();
        let r = d.submit(now, IoKind::Read, 0, 4096);
        assert!(w.finish_ns - w.start_ns > r.finish_ns - r.start_ns);
    }

    #[test]
    fn queueing_delay_emerges_under_load() {
        let mut d = dev();
        // Two simultaneous submissions: the second must wait.
        let a = d.submit(1000, IoKind::Read, 0, 4096);
        let b = d.submit(1000, IoKind::Read, 8192, 4096);
        assert_eq!(b.start_ns, a.finish_ns);
        assert!(b.latency_from(1000) > a.latency_from(1000));
    }

    #[test]
    fn idle_device_starts_immediately() {
        let mut d = dev();
        let c = d.submit(5_000_000, IoKind::Write, 0, 4096);
        assert_eq!(c.start_ns, 5_000_000);
    }

    #[test]
    fn gc_stall_appears_under_random_overwrites() {
        let mut d = dev();
        d.precondition(1.0);
        let mut x = 7u64;
        let mut now = 0u64;
        for _ in 0..6_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let offset = (x % d.logical_bytes()) / 4096 * 4096;
            let c = d.submit(now, IoKind::Write, offset, 4096);
            now = c.finish_ns;
        }
        assert!(d.stats().gc_stall_ns > 0, "GC stalls expected");
        assert!(d.ftl_stats().erases > 0);
        assert!(d.ftl_stats().write_amplification() > 1.0);
    }

    #[test]
    fn fewer_bytes_written_means_less_gc() {
        // The core premise of compression-for-endurance: identical request
        // pattern at half the size must erase less.
        let run = |len: u32| -> u64 {
            let mut d = dev();
            d.precondition(1.0);
            let mut x = 3u64;
            let mut now = 0u64;
            for _ in 0..8_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let offset = (x % d.logical_bytes()) / 4096 * 4096;
                let c = d.submit(now, IoKind::Write, offset, len);
                now = c.finish_ns;
            }
            d.ftl_stats().erases
        };
        let full = run(4096);
        let half = run(2048);
        assert!(
            half < full,
            "half-size writes must erase less: {half} vs {full}"
        );
    }

    #[test]
    fn wrap_offset_stays_in_volume() {
        let d = dev();
        let cap = d.logical_bytes();
        assert_eq!(d.wrap_offset(0), 0);
        assert_eq!(d.wrap_offset(cap), 0);
        assert_eq!(d.wrap_offset(cap + 4096), 4096);
        assert_eq!(d.wrap_offset(123), 0); // sector-aligned down
    }

    #[test]
    fn tail_clipped_at_volume_end() {
        let mut d = dev();
        let cap = d.logical_bytes();
        // Write that would run past the end: clipped, not panicking.
        let c = d.submit(0, IoKind::Write, cap - 1024, 8192);
        assert!(c.finish_ns > c.start_ns);
        assert_eq!(d.stats().bytes_written, 1024);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = dev();
        d.submit(0, IoKind::Write, 0, 4096);
        d.submit(0, IoKind::Read, 0, 8192);
        let s = d.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_written, 4096);
        assert_eq!(s.bytes_read, 8192);
        assert!(s.busy_ns > 0);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_io_rejected() {
        let mut d = dev();
        d.submit(0, IoKind::Read, 0, 0);
    }

    #[test]
    fn trim_reduces_subsequent_gc() {
        let run = |use_trim: bool| -> u64 {
            let mut d = dev();
            d.precondition(1.0);
            let mut x = 11u64;
            let mut now = 0u64;
            for _ in 0..8000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let offset = (x % d.logical_bytes()) / 4096 * 4096;
                let c = d.submit(now, IoKind::Write, offset, 4096);
                now = c.finish_ns;
                if use_trim {
                    // The layer above declares the old location dead.
                    let t = d.trim(now, (offset + d.logical_bytes() / 2) % d.logical_bytes(), 4096);
                    now = t.finish_ns;
                }
            }
            d.ftl_stats().migrated_sectors
        };
        let without = run(false);
        let with = run(true);
        assert!(with < without, "trim must cut migration: {with} vs {without}");
    }

    #[test]
    fn read_faults_surface_after_retry_budget() {
        let mut d = dev();
        d.submit(0, IoKind::Write, 0, 4096);
        // Every read attempt faults and no retry budget exists: typed error.
        d.set_fault_plan(FaultPlan {
            read_error_rate: 1.0,
            read_retries: 0,
            ..FaultPlan::none()
        });
        assert_eq!(d.try_submit(0, IoKind::Read, 0, 4096), Err(FaultError::ReadFault));
        // A 50% rate with a generous budget always succeeds eventually.
        d.set_fault_plan(FaultPlan {
            seed: 1,
            read_error_rate: 0.5,
            read_retries: 40,
            ..FaultPlan::none()
        });
        for _ in 0..50 {
            d.try_submit(0, IoKind::Read, 0, 4096).expect("retries must absorb a 50% rate");
        }
        assert!(d.fault_stats().read_faults > 0, "50% over 50 reads must fire");
    }

    #[test]
    fn power_cut_then_power_cycle_recovers_device() {
        let mut d = dev();
        d.set_fault_plan(FaultPlan {
            power_cut_after_programs: Some(6),
            ..FaultPlan::none()
        });
        // 4 KiB = 4 sectors: first write fits the budget, second hits the cut.
        d.try_submit(0, IoKind::Write, 0, 4096).expect("within budget");
        let err = d.try_submit(0, IoKind::Write, 8192, 4096).unwrap_err();
        assert_eq!(err, FaultError::PowerCut { after_programs: 6 });
        // Dead until power cycled — reads too.
        assert_eq!(d.try_submit(0, IoKind::Read, 0, 4096), Err(FaultError::PoweredOff));
        d.verify_integrity().expect("cut must not corrupt the FTL");
        d.power_cycle();
        d.try_submit(0, IoKind::Write, 8192, 4096).expect("restored");
        d.verify_integrity().expect("integrity after recovery");
    }

    #[test]
    fn failed_device_refuses_all_io() {
        let mut d = dev();
        d.submit(0, IoKind::Write, 0, 4096);
        d.fail();
        assert!(d.is_failed());
        assert_eq!(d.try_submit(0, IoKind::Read, 0, 4096), Err(FaultError::DeviceFailed));
        assert_eq!(d.try_submit(0, IoKind::Write, 0, 4096), Err(FaultError::DeviceFailed));
        // Stats stop moving once the device is dead.
        assert_eq!(d.stats().reads, 0);
        assert_eq!(d.stats().writes, 1);
    }

    #[test]
    fn device_stats_merge_sums_every_counter() {
        let a = DeviceStats {
            reads: 1,
            writes: 2,
            bytes_read: 3,
            bytes_written: 4,
            busy_ns: 5,
            gc_stall_ns: 6,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(
            b,
            DeviceStats {
                reads: 2,
                writes: 4,
                bytes_read: 6,
                bytes_written: 8,
                busy_ns: 10,
                gc_stall_ns: 12,
            }
        );
    }

    #[test]
    fn custom_timing_respected() {
        let cfg = SsdConfig {
            logical_bytes: 16 << 20,
            overprovision: 0.25,
            sectors_per_block: 64,
            gc_low_watermark: 3,
            wear_level_threshold: 0,
            timing: NandTiming {
                read_overhead_ns: 1000,
                write_overhead_ns: 2000,
                read_ns_per_byte: 1.0,
                write_ns_per_byte: 2.0,
                erase_ns: 10_000,
                migrate_ns_per_byte: 2.0,
            },
            fault: FaultPlan::none(),
        };
        let mut d = SsdDevice::new(cfg);
        let c = d.submit(0, IoKind::Read, 0, 1000);
        assert_eq!(c.finish_ns, 1000 + 1000);
    }
}
