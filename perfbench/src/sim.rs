//! `fin1_sim`: the trace-replay engine behind every paper figure —
//! `TracePreset::Fin1` through `SimScheme` (`Policy::Elastic`) and
//! `edc_sim::replay` on one simulated SSD.

use crate::common::{Latencies, Rep};
use crate::tracer::{Layer, Tracer};
use edc_core::{CalibrationConfig, ContentModel, EdcConfig, Policy, SimConfig, SimScheme};
use edc_datagen::DataMix;
use edc_flash::{IoKind, SsdConfig};
use edc_sim::replay::{replay, CompletedIo, SpaceReport, StorageScheme};
use edc_sim::Storage;
use edc_trace::{OpType, Request, Trace, TracePreset};
use std::sync::Arc;

/// `fin1_sim`: 600 s of `TracePreset::Fin1` (16 GiB volume, wrapped by the
/// scheme onto the device) on a 96 MiB SSD with 7 % over-provisioning,
/// preconditioned to 90 % (the `SimConfig` default), so garbage collection
/// migrates sectors during the run. `EdcPipeline` keeps its device as an
/// in-memory image, so `edc-flash` (FTL, GC, timing) and `edc-sim` are
/// exercised only here. Content compressibility comes from a
/// `ContentModel` calibrated on `DataMix::oltp()` with the workload seed.
pub struct SimWorkload {
    seed: u64,
    trace: Trace,
}

pub fn fin1(seed: u64) -> SimWorkload {
    SimWorkload {
        seed,
        trace: TracePreset::Fin1.generate(600.0, seed),
    }
}

fn ssd() -> SsdConfig {
    SsdConfig {
        logical_bytes: 96 << 20,
        overprovision: 0.07,
        sectors_per_block: 64,
        gc_low_watermark: 4,
        ..SsdConfig::default()
    }
}

/// Wraps the scheme to time each `on_request` call; in a traced run it
/// also re-times the device layer on a shadow SSD of the same shape, fed
/// the number and size of device I/Os each request caused.
struct Timed<'a> {
    inner: SimScheme,
    tr: &'a mut Tracer,
    writes: Latencies,
    reads: Latencies,
    op: u32,
    shadow: Option<Storage>,
    cursor: u64,
}

impl StorageScheme for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_request(&mut self, req: &Request, out: &mut Vec<CompletedIo>) {
        let before = self.inner.storage().stats();
        let s = self.tr.now();
        self.inner.on_request(req, out);
        let e = self.tr.now();
        self.tr.record(Layer::SimRequest, self.op, s, e, 0);
        match req.op {
            OpType::Write => self.writes.push(e - s),
            OpType::Read => self.reads.push(e - s),
        }
        if let Some(dev) = &mut self.shadow {
            let after = self.inner.storage().stats();
            let mut replay_ios = |kind: IoKind, n: u64, bytes: u64| {
                for _ in 0..n {
                    let len = (bytes / n).clamp(512, 1 << 20) as u32;
                    let at = self.cursor % (dev.logical_bytes() - u64::from(len));
                    self.cursor += u64::from(len);
                    let s = self.tr.now();
                    dev.submit(req.arrival_ns, kind, at, len);
                    self.tr
                        .record(Layer::SsdSubmit, self.op, s, self.tr.now(), u64::from(len));
                }
            };
            replay_ios(
                IoKind::Write,
                after.writes - before.writes,
                after.bytes_written - before.bytes_written,
            );
            replay_ios(
                IoKind::Read,
                after.reads - before.reads,
                after.bytes_read - before.bytes_read,
            );
        }
        self.op += 1;
    }

    fn finalize(&mut self, out: &mut Vec<CompletedIo>) {
        self.inner.finalize(out);
    }

    fn storage(&self) -> &Storage {
        self.inner.storage()
    }

    fn space(&self) -> SpaceReport {
        self.inner.space()
    }

    fn cpu_busy_ns(&self) -> u64 {
        self.inner.cpu_busy_ns()
    }
}

impl SimWorkload {
    pub fn len(&self) -> usize {
        self.trace.requests.len()
    }

    pub fn writes(&self) -> usize {
        self.trace
            .requests
            .iter()
            .filter(|r| r.op == OpType::Write)
            .count()
    }

    pub fn rep(&self, tracer: Option<&mut Tracer>) -> Rep {
        let traced = tracer.is_some();
        let mut idle = Tracer::new(false, false);
        let tr = tracer.unwrap_or(&mut idle);
        let mut rep = Rep::default();
        let sim = SimConfig::default();
        let workers = sim.cpu_workers;

        let t0 = std::time::Instant::now();
        let content = Arc::new(ContentModel::calibrate(
            DataMix::oltp(),
            self.seed,
            CalibrationConfig {
                samples: 1,
                small_bytes: 4096,
                large_bytes: 16384,
            },
        ));
        let scheme = SimScheme::new(
            Policy::Elastic(EdcConfig::default()),
            Storage::single(ssd()),
            sim,
            content,
        );
        rep.setup_ns = t0.elapsed().as_nanos() as u64;

        let shadow = traced.then(|| {
            let mut s = Storage::single(ssd());
            s.precondition(SimConfig::default().precondition);
            s
        });
        let mut timed = Timed {
            inner: scheme,
            tr,
            writes: Latencies::default(),
            reads: Latencies::default(),
            op: 0,
            shadow,
            cursor: 0,
        };
        let t1 = std::time::Instant::now();
        let report = replay(&self.trace, &mut timed);
        rep.loop_ns = t1.elapsed().as_nanos() as u64;
        let n = self.trace.requests.len() as u64;
        rep.ops = n;
        rep.attempted = n + 1;
        rep.writes = std::mem::take(&mut timed.writes);
        rep.reads = std::mem::take(&mut timed.reads);

        // Every request completes exactly once, and the FTL stays sound.
        if report.overall.count != n {
            rep.fail(format!(
                "{} completions for {n} requests",
                report.overall.count
            ));
        }
        if let Err(e) = timed.inner.storage().verify_integrity() {
            rep.fail(format!("device integrity: {e:?}"));
        }

        let ftl = report.ftl;
        rep.counts.live_stored_bytes = report.space.physical_bytes;
        rep.counts.live_user_bytes = report.space.logical_bytes;
        rep.counts.ftl_user_sectors = ftl.user_sectors_written;
        rep.counts.ftl_migrated_sectors = ftl.migrated_sectors;
        rep.counts.ftl_erases = ftl.erases;
        rep.counts.ftl_gc_runs = ftl.gc_runs;
        rep.counts.sim_response_ns = report.overall.mean_ns;
        rep.layer
            .push(("ftl.write_amplification", ftl.write_amplification()));
        rep.layer
            .push(("sim.response_ms", report.mean_response_ms()));
        rep.layer.push((
            "sim.cpu_busy_share",
            report.cpu_utilization(self.trace.duration_ns(), workers),
        ));
        rep.layer.push(("sd.merge_rate", timed.inner.merge_rate()));
        rep
    }
}
