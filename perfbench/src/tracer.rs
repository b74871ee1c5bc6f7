//! Spans for the traced run, and the layer mirror that produces them.
//!
//! The store's layers are timed from the benchmark's own code: after each
//! real store call (the op's top-level span), [`Mirror`] re-executes the
//! same decisions through each layer's public type on the exact bytes the
//! op used, timing every call as a child span of that op. The mirror's
//! write results must equal the real store's bit for bit — otherwise the
//! traced run would be timing a different program, and it fails.

use edc_compress::{checksum64, CodecId, CodecRegistry, CompressorState, Estimator};
use edc_core::{
    mapping::MappingEntry, AlgorithmSelector, BlockMap, HeatTracker, MappingJournal, MergedRun,
    PipelineConfig, QuantizedAllocator, RunCache, SequentialityDetector, SlotStore,
    WorkloadMonitor, WriteResult, BLOCK_BYTES,
};
use edc_trace::{OpType, Request};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Every span name. Top-level spans are whole ops; the rest are children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    OpWrite,
    OpRead,
    OpFlush,
    SimRequest,
    Monitor,
    Heat,
    Sd,
    Estimator,
    Selector,
    CompressLzf,
    CompressDeflate,
    CompressOther,
    Allocator,
    Slots,
    Checksum,
    JournalAppend,
    MappingInsert,
    MappingGet,
    CacheLookup,
    CacheInsert,
    CacheInvalidate,
    DecompressLzf,
    DecompressDeflate,
    DecompressOther,
    RingSubmit,
    RingWait,
    SsdSubmit,
}

pub const LAYERS: usize = Layer::SsdSubmit as usize + 1;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::OpWrite => "op.write",
            Layer::OpRead => "op.read",
            Layer::OpFlush => "op.flush",
            Layer::SimRequest => "sim.request",
            Layer::Monitor => "monitor",
            Layer::Heat => "heat.record",
            Layer::Sd => "sd",
            Layer::Estimator => "estimator",
            Layer::Selector => "selector",
            Layer::CompressLzf => "codec.compress.lzf",
            Layer::CompressDeflate => "codec.compress.deflate",
            Layer::CompressOther => "codec.compress.other",
            Layer::Allocator => "allocator",
            Layer::Slots => "slots",
            Layer::Checksum => "checksum",
            Layer::JournalAppend => "journal.append",
            Layer::MappingInsert => "mapping.insert",
            Layer::MappingGet => "mapping.get",
            Layer::CacheLookup => "cache.lookup",
            Layer::CacheInsert => "cache.insert",
            Layer::CacheInvalidate => "cache.invalidate",
            Layer::DecompressLzf => "codec.decompress.lzf",
            Layer::DecompressDeflate => "codec.decompress.deflate",
            Layer::DecompressOther => "codec.decompress.other",
            Layer::RingSubmit => "ring.submit",
            Layer::RingWait => "ring.wait",
            Layer::SsdSubmit => "ssd.submit",
        }
    }

    pub fn is_top(self) -> bool {
        matches!(
            self,
            Layer::OpWrite | Layer::OpRead | Layer::OpFlush | Layer::SimRequest
        )
    }

    fn compress(id: CodecId) -> Layer {
        match id {
            CodecId::Lzf => Layer::CompressLzf,
            CodecId::Deflate => Layer::CompressDeflate,
            _ => Layer::CompressOther,
        }
    }

    fn decompress(id: CodecId) -> Layer {
        match id {
            CodecId::Lzf => Layer::DecompressLzf,
            CodecId::Deflate => Layer::DecompressDeflate,
            _ => Layer::DecompressOther,
        }
    }
}

/// One recorded span. A top-level span's id is its op id; a child names
/// the op (hence the top-level span) that caused it.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer totals: calls, nanoseconds, bytes processed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub calls: u64,
    pub ns: u64,
    pub bytes: u64,
}

/// In-memory span store plus per-layer totals. Inactive tracers (set-up
/// phases) time nothing and keep nothing.
pub struct Tracer {
    epoch: Instant,
    pub active: bool,
    keep_spans: bool,
    spans: Vec<Span>,
    totals: [Total; LAYERS],
    /// Time under top-level spans and under their children.
    top_ns: u64,
    child_ns: u64,
}

impl Tracer {
    pub fn new(active: bool, keep_spans: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            active,
            keep_spans,
            spans: Vec::new(),
            totals: [Total::default(); LAYERS],
            top_ns: 0,
            child_ns: 0,
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span measured by the caller.
    pub fn record(&mut self, layer: Layer, op: u32, start_ns: u64, end_ns: u64, bytes: u64) {
        if !self.active {
            return;
        }
        let ns = end_ns.saturating_sub(start_ns);
        let t = &mut self.totals[layer as usize];
        t.calls += 1;
        t.ns += ns;
        t.bytes += bytes;
        if layer.is_top() {
            self.top_ns += ns;
        } else {
            self.child_ns += ns;
        }
        if self.keep_spans {
            self.spans.push(Span {
                layer,
                op,
                start_ns,
                end_ns,
            });
        }
    }

    /// Time `f` as a `layer` child span of `op`.
    pub fn time<T>(&mut self, layer: Layer, op: u32, bytes: u64, f: impl FnOnce() -> T) -> T {
        if !self.active {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(layer, op, start, end, bytes);
        out
    }

    pub fn total(&self, layer: Layer) -> Total {
        self.totals[layer as usize]
    }

    /// Mean nanoseconds per call of the given layers (0 without calls).
    pub fn mean_ns(&self, layers: &[Layer]) -> f64 {
        let (calls, ns) = layers.iter().fold((0u64, 0u64), |(c, n), &l| {
            (c + self.total(l).calls, n + self.total(l).ns)
        });
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        }
    }

    /// `1 − Σ child span time ÷ Σ top-level span time`.
    pub fn unattributed_share(&self) -> f64 {
        if self.top_ns == 0 {
            0.0
        } else {
            1.0 - self.child_ns as f64 / self.top_ns as f64
        }
    }

    /// A tracer for another thread: same epoch, activity and span keeping,
    /// nothing recorded yet. Hand it back with [`Tracer::join`].
    pub fn fork(&self) -> Self {
        Tracer {
            epoch: self.epoch,
            active: self.active,
            keep_spans: self.keep_spans,
            spans: Vec::new(),
            totals: [Total::default(); LAYERS],
            top_ns: 0,
            child_ns: 0,
        }
    }

    /// Fold a forked tracer back in: its totals and its spans.
    pub fn join(&mut self, other: Tracer) {
        self.absorb(&other);
        self.spans.extend(other.spans);
    }

    /// Fold another tracer's totals into this one (spans are not merged).
    pub fn absorb(&mut self, other: &Tracer) {
        for (a, b) in self.totals.iter_mut().zip(other.totals.iter()) {
            a.calls += b.calls;
            a.ns += b.ns;
            a.bytes += b.bytes;
        }
        self.top_ns += other.top_ns;
        self.child_ns += other.child_ns;
    }

    /// Write the kept spans as TSV: span id, parent span id (empty for a
    /// top-level span), op id, name, start and end in ns.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "span\tparent\top\tname\tstart_ns\tend_ns")?;
        // Children are recorded before or after their op's top-level span,
        // so resolve parents through a first pass over the top-level ids.
        let mut top_of: HashMap<u32, usize> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.layer.is_top() {
                top_of.insert(s.op, i);
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.layer.is_top() {
                String::new()
            } else {
                top_of.get(&s.op).map_or(String::new(), |p| p.to_string())
            };
            writeln!(
                f,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        f.flush()
    }
}

/// Re-executes one `EdcPipeline`'s write and read paths (dedup, parity,
/// hints and faults off, as in every workload here) through the public
/// layer types, in the pipeline's own order, so each call can be timed.
pub struct Mirror {
    monitor: WorkloadMonitor,
    selector: AlgorithmSelector,
    sd: SequentialityDetector,
    estimator: Estimator,
    allocator: QuantizedAllocator,
    slots: SlotStore,
    map: BlockMap,
    journal: MappingJournal,
    cache: RunCache<()>,
    heat: HeatTracker,
    state: CompressorState,
    pending: Vec<u8>,
    comp: Vec<u8>,
    decoded: Vec<u8>,
    /// Payload of every live slot, by device offset.
    payloads: HashMap<u64, Vec<u8>>,
    /// Runs sealed, and how many of them the estimator wrote through.
    pub sealed_runs: u64,
    pub estimator_rejects: u64,
}

impl Mirror {
    /// A mirror of `EdcPipeline::new(capacity_bytes, config)`.
    pub fn new(capacity_bytes: u64, config: &PipelineConfig) -> Self {
        Mirror {
            monitor: WorkloadMonitor::default(),
            selector: AlgorithmSelector::new(config.selector.clone()),
            sd: SequentialityDetector::new(config.sd),
            estimator: Estimator::new(config.estimator),
            allocator: QuantizedAllocator::new(config.alloc),
            slots: SlotStore::new(capacity_bytes),
            map: BlockMap::new(),
            journal: MappingJournal::with_shard(config.journal_shard),
            cache: RunCache::new(config.cache_runs),
            heat: HeatTracker::new(config.heat),
            state: CompressorState::new(),
            pending: Vec::new(),
            comp: Vec::new(),
            decoded: Vec::new(),
            payloads: HashMap::new(),
            sealed_runs: 0,
            estimator_rejects: 0,
        }
    }

    pub fn cache_stats(&self) -> edc_core::CacheStats {
        self.cache.stats()
    }

    pub fn merge_rate(&self) -> f64 {
        self.sd.merge_rate()
    }

    /// `EdcPipeline::write`: returns the runs this write stored.
    pub fn write(
        &mut self,
        tr: &mut Tracer,
        op: u32,
        now_ns: u64,
        offset: u64,
        data: &[u8],
    ) -> Vec<WriteResult> {
        let start = offset / BLOCK_BYTES;
        let blocks = (data.len() as u64 / BLOCK_BYTES) as u32;
        let req = Request {
            arrival_ns: now_ns,
            op: OpType::Write,
            offset,
            len: data.len() as u32,
        };
        tr.time(Layer::Monitor, op, 0, || self.monitor.record(&req));
        tr.time(Layer::Heat, op, 0, || {
            self.heat.record(now_ns, start, u64::from(blocks))
        });
        let sealed = tr.time(Layer::Sd, op, 0, || self.sd.on_write(start, blocks, now_ns));
        let mut out = Vec::new();
        if let Some(run) = sealed {
            let bytes = std::mem::take(&mut self.pending);
            out.push(self.seal_and_store(tr, op, now_ns, run, bytes));
        }
        self.pending.extend_from_slice(data);
        out
    }

    /// `EdcPipeline::flush_all`.
    pub fn flush_all(&mut self, tr: &mut Tracer, op: u32, now_ns: u64) -> Vec<WriteResult> {
        let mut out = Vec::new();
        if let Some(run) = tr.time(Layer::Sd, op, 0, || self.sd.drain()) {
            let bytes = std::mem::take(&mut self.pending);
            out.push(self.seal_and_store(tr, op, now_ns, run, bytes));
        }
        out
    }

    /// `EdcPipeline::read`, minus the byte copies: returns the runs the
    /// read-triggered flush stored.
    pub fn read(
        &mut self,
        tr: &mut Tracer,
        op: u32,
        now_ns: u64,
        offset: u64,
        len: u64,
    ) -> Vec<WriteResult> {
        let req = Request {
            arrival_ns: now_ns,
            op: OpType::Read,
            offset,
            len: len as u32,
        };
        tr.time(Layer::Monitor, op, 0, || self.monitor.record(&req));
        let mut out = Vec::new();
        if let Some(run) = tr.time(Layer::Sd, op, 0, || self.sd.on_read()) {
            let bytes = std::mem::take(&mut self.pending);
            out.push(self.seal_and_store(tr, op, now_ns, run, bytes));
        }
        let start = offset / BLOCK_BYTES;
        let blocks = len / BLOCK_BYTES;
        tr.time(Layer::Heat, op, 0, || {
            self.heat.record(now_ns, start, blocks)
        });
        let mut verified = u64::MAX;
        for b in start..start + blocks {
            let Some(entry) = tr.time(Layer::MappingGet, op, 0, || self.map.get(b)) else {
                continue;
            };
            let off = entry.device_offset;
            if entry.tag == CodecId::None {
                if verified != off {
                    self.checksum(tr, op, &entry);
                    verified = off;
                }
                continue;
            }
            if tr.time(Layer::CacheLookup, op, 0, || {
                self.cache.lookup(off).is_some()
            }) {
                continue;
            }
            self.checksum(tr, op, &entry);
            let payload = &self.payloads[&off];
            let original = (u64::from(entry.run_blocks) * BLOCK_BYTES) as usize;
            let codec = CodecRegistry::get(entry.tag).expect("stored tag names a codec");
            let decoded = &mut self.decoded;
            let ok = tr.time(Layer::decompress(entry.tag), op, original as u64, || {
                codec.decompress_into(payload, original, decoded).is_ok()
            });
            assert!(ok, "mirror payload failed to decode");
            tr.time(Layer::CacheInsert, op, 0, || self.cache.insert(off, ()));
        }
        out
    }

    fn checksum(&self, tr: &mut Tracer, op: u32, entry: &MappingEntry) {
        let payload = &self.payloads[&entry.device_offset];
        let sum = tr.time(Layer::Checksum, op, payload.len() as u64, || {
            checksum64(payload, entry.run_start)
        });
        assert_eq!(sum, entry.checksum, "mirror payload checksum drifted");
    }

    /// `seal_run` then `drain_sealed`/`store_chunk` for one run.
    fn seal_and_store(
        &mut self,
        tr: &mut Tracer,
        op: u32,
        now_ns: u64,
        run: MergedRun,
        bytes: Vec<u8>,
    ) -> WriteResult {
        self.sealed_runs += 1;
        let reject = tr.time(Layer::Estimator, op, bytes.len() as u64, || {
            self.estimator.is_incompressible(&bytes)
        });
        let codec = if reject {
            self.estimator_rejects += 1;
            CodecId::None
        } else {
            let iops = tr.time(Layer::Monitor, op, 0, || {
                self.monitor.calculated_iops(now_ns)
            });
            tr.time(Layer::Selector, op, 0, || self.selector.select(iops))
        };
        let comp = if codec == CodecId::None {
            None
        } else {
            let c = CodecRegistry::get(codec).expect("ladder codec is registered");
            let (state, out) = (&mut self.state, &mut self.comp);
            tr.time(Layer::compress(codec), op, bytes.len() as u64, || {
                c.compress_with(state, &bytes, out)
            });
            Some(self.comp.as_slice())
        };
        let comp_len = comp.map_or(bytes.len(), <[u8]>::len) as u64;
        let prev = tr
            .time(Layer::MappingGet, op, 0, || self.map.get(run.start_block))
            .filter(|e| e.run_start == run.start_block && e.run_blocks == run.blocks);
        let placement = tr.time(Layer::Allocator, op, 0, || {
            self.allocator
                .place(bytes.len() as u64, comp_len, prev.map(|e| e.stored_bytes))
        });
        let (tag, payload): (CodecId, &[u8]) = match comp {
            Some(b) if placement.compressed => (codec, b),
            _ => (CodecId::None, &bytes),
        };
        let stored_bytes = placement.allocated_bytes;
        let device_offset = tr.time(Layer::Slots, op, 0, || {
            self.slots.alloc_run(stored_bytes, run.blocks)
        });
        let checksum = tr.time(Layer::Checksum, op, payload.len() as u64, || {
            checksum64(payload, run.start_block)
        });
        let entry = MappingEntry {
            tag,
            run_start: run.start_block,
            run_blocks: run.blocks,
            device_offset,
            stored_bytes,
            compressed_bytes: payload.len() as u64,
            checksum,
            parity: false,
        };
        tr.time(Layer::JournalAppend, op, 0, || self.journal.append(&entry));
        let olds = tr.time(Layer::MappingInsert, op, 0, || self.map.insert_run(entry));
        for old in olds {
            if let Some((freed, _)) = tr.time(Layer::Slots, op, 0, || {
                self.slots.release_block_ref(old.device_offset)
            }) {
                self.payloads.remove(&freed);
            }
            tr.time(Layer::CacheInvalidate, op, 0, || {
                self.cache.invalidate(old.device_offset)
            });
        }
        self.payloads.insert(device_offset, payload.to_vec());
        WriteResult {
            start_block: run.start_block,
            blocks: run.blocks,
            tag,
            payload_bytes: payload.len() as u64,
            allocated_bytes: placement.allocated_bytes,
        }
    }
}
