//! Sector-mapped flash translation layer with out-of-place updates, greedy
//! garbage collection and wear accounting.
//!
//! The FTL is log-structured: every written sector is appended to the
//! active block; overwriting a logical sector merely invalidates its old
//! physical location (§III-C of the paper: "the FTL ... uses an
//! out-of-place update scheme"). When free blocks fall to the low
//! watermark, greedy GC picks the block with the fewest valid sectors,
//! migrates them and erases it. The write-amplification and erase counts
//! this produces are exactly the channel through which compression buys
//! endurance and tail latency in the paper's argument.

use crate::config::{SsdConfig, SECTOR_BYTES};
use crate::fault::{FaultError, FaultPlan, FaultState, FaultStats};
use core::fmt;
use std::collections::VecDeque;

/// `rmap` marker: physical sector never written since erase.
const FREE: u32 = u32::MAX;
/// `rmap` marker: physical sector holds stale data.
const INVALID: u32 = u32::MAX - 1;
/// `map` marker: logical sector not mapped.
const UNMAPPED: u32 = u32::MAX;

/// Cumulative FTL statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Sectors written on behalf of the host.
    pub user_sectors_written: u64,
    /// Sectors copied by garbage collection.
    pub migrated_sectors: u64,
    /// Blocks erased.
    pub erases: u64,
    /// GC invocations.
    pub gc_runs: u64,
    /// Sectors discarded via TRIM.
    pub trimmed_sectors: u64,
    /// Blocks permanently retired after an erase fault.
    pub retired_blocks: u64,
}

impl FtlStats {
    /// Fold another FTL's counters into this one (array-level aggregation
    /// over member devices).
    pub fn merge(&mut self, other: &FtlStats) {
        self.user_sectors_written += other.user_sectors_written;
        self.migrated_sectors += other.migrated_sectors;
        self.erases += other.erases;
        self.gc_runs += other.gc_runs;
        self.trimmed_sectors += other.trimmed_sectors;
        self.retired_blocks += other.retired_blocks;
    }

    /// Write amplification factor: physical sectors written per user sector.
    pub fn write_amplification(&self) -> f64 {
        if self.user_sectors_written == 0 {
            return 1.0;
        }
        (self.user_sectors_written + self.migrated_sectors) as f64
            / self.user_sectors_written as f64
    }
}

/// Cost incurred by one FTL write call, for the timing layer to charge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteCharge {
    /// Sectors migrated by GC triggered within this call.
    pub migrated_sectors: u64,
    /// Blocks erased within this call.
    pub erases: u64,
}

/// Sector-mapped FTL.
#[derive(Debug, Clone)]
pub struct Ftl {
    sectors_per_block: u32,
    gc_low_watermark: u32,
    wear_level_threshold: u32,
    /// Logical sector -> physical sector.
    map: Vec<u32>,
    /// Physical sector -> logical sector, or FREE/INVALID.
    rmap: Vec<u32>,
    /// Valid sectors per block.
    valid: Vec<u16>,
    /// Erase count per block (wear).
    erase_count: Vec<u32>,
    /// Blocks retired after an erase fault (never reused, never victims).
    retired: Vec<bool>,
    free_blocks: VecDeque<u32>,
    active_block: u32,
    /// Next sector index within the active block.
    write_ptr: u32,
    stats: FtlStats,
    /// Seeded fault-decision stream (inactive by default).
    faults: FaultState,
    /// GC victim index: `bucket[v]` lists the *sealed* blocks (non-active,
    /// non-free, non-retired — i.e. GC candidates) holding exactly `v`
    /// valid sectors. A block enters its bucket when the active block
    /// rotates away from it and leaves when GC picks it; valid-count
    /// *increments* only ever hit the active block (the log appends
    /// there), so sealed blocks only move downward — each move is one
    /// swap_remove + push. Replaces the former O(#blocks) victim scan.
    bucket: Vec<Vec<u32>>,
    /// Position of each sealed block within its bucket (swap_remove index;
    /// meaningless while unsealed).
    bucket_pos: Vec<u32>,
    /// Bucket membership flag per block.
    sealed: Vec<bool>,
    /// Victim-eligibility veto per block. A pinned block never enters the
    /// GC candidate index, so it is never migrated or erased — the hook a
    /// dedup layer uses to keep a physical block untouched while content
    /// stored in it has outstanding extra references.
    pinned: Vec<bool>,
    /// Monotone cursor: no non-empty bucket exists below this index. Pops
    /// advance it, inserts below it pull it back — amortized O(1) victim
    /// selection.
    min_bucket: usize,
}

/// One violated FTL invariant, reported by [`Ftl::verify_integrity`]
/// instead of a panic so callers (tests, the fault campaign) can treat a
/// broken mapping as data rather than an abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityError {
    /// A mapped logical sector's reverse entry does not point back at it.
    RmapMismatch {
        /// The logical sector whose mapping is broken.
        lsn: u64,
        /// The physical sector its map entry names.
        psn: u32,
    },
    /// A block's valid-sector counter disagrees with the reverse map.
    ValidCountMismatch {
        /// The block in question.
        block: u32,
        /// What the counter says.
        recorded: u16,
        /// What the reverse map actually holds.
        actual: u16,
    },
    /// A block on the free list still holds valid data.
    FreeBlockHoldsData {
        /// The offending free-listed block.
        block: u32,
        /// Its (non-zero) valid counter.
        valid: u16,
    },
    /// The total of per-block valid counters disagrees with the number of
    /// mapped logical sectors.
    ValidTotalMismatch {
        /// Sum of valid counters.
        valid: u64,
        /// Mapped logical sectors.
        mapped: u64,
    },
    /// The GC valid-count bucket structure disagrees with per-block state
    /// (membership, bucket index or recorded position) — the incremental
    /// O(1) victim index has drifted from the ground truth.
    GcBucketMismatch {
        /// The block whose bucket state is wrong.
        block: u32,
        /// Which bucket invariant it violates.
        reason: &'static str,
    },
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityError::RmapMismatch { lsn, psn } => {
                write!(f, "rmap of psn {psn} does not point back at lsn {lsn}")
            }
            IntegrityError::ValidCountMismatch { block, recorded, actual } => {
                write!(f, "valid counter of block {block}: recorded {recorded}, actual {actual}")
            }
            IntegrityError::FreeBlockHoldsData { block, valid } => {
                write!(f, "free block {block} holds {valid} valid sectors")
            }
            IntegrityError::ValidTotalMismatch { valid, mapped } => {
                write!(f, "{valid} valid sectors vs {mapped} mapped logical sectors")
            }
            IntegrityError::GcBucketMismatch { block, reason } => {
                write!(f, "GC bucket state of block {block} is wrong: {reason}")
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

impl Ftl {
    /// Build an empty (fully erased) FTL for `cfg`.
    pub fn new(cfg: &SsdConfig) -> Self {
        cfg.validate();
        let blocks = cfg.physical_blocks();
        let sectors_per_block = cfg.sectors_per_block;
        let phys_sectors = blocks as usize * sectors_per_block as usize;
        let free_blocks: VecDeque<u32> = (1..blocks).collect();
        let active_block = 0;
        Ftl {
            sectors_per_block,
            gc_low_watermark: cfg.gc_low_watermark,
            wear_level_threshold: cfg.wear_level_threshold,
            map: vec![UNMAPPED; cfg.logical_sectors() as usize],
            rmap: vec![FREE; phys_sectors],
            valid: vec![0; blocks as usize],
            erase_count: vec![0; blocks as usize],
            retired: vec![false; blocks as usize],
            free_blocks,
            active_block,
            write_ptr: 0,
            stats: FtlStats::default(),
            faults: FaultState::new(cfg.fault),
            bucket: vec![Vec::new(); sectors_per_block as usize + 1],
            bucket_pos: vec![0; blocks as usize],
            sealed: vec![false; blocks as usize],
            pinned: vec![false; blocks as usize],
            min_bucket: sectors_per_block as usize + 1,
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Injected-fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// The live fault-decision stream (the SSD front-end shares it so
    /// device reads and FTL programs draw from one deterministic
    /// sequence).
    pub fn faults_mut(&mut self) -> &mut FaultState {
        &mut self.faults
    }

    /// Replace the fault plan, restarting the decision stream. Lets a
    /// campaign precondition a device fault-free, then arm faults.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultState::new(plan);
    }

    /// Number of logical sectors exported.
    pub fn logical_sectors(&self) -> u64 {
        self.map.len() as u64
    }

    /// Per-block erase counts (wear distribution).
    pub fn erase_counts(&self) -> &[u32] {
        &self.erase_count
    }

    /// Is the logical sector mapped (has it ever been written)?
    pub fn is_mapped(&self, lsn: u64) -> bool {
        self.map[lsn as usize] != UNMAPPED
    }

    /// Number of currently free blocks.
    pub fn free_block_count(&self) -> usize {
        self.free_blocks.len()
    }

    /// Write `count` logical sectors starting at `lsn`, returning the GC
    /// cost incurred.
    ///
    /// # Panics
    /// Panics if the range exceeds the logical capacity, or if an
    /// injected fault fires — arm a [`FaultPlan`] only together with the
    /// fallible [`Ftl::try_write`].
    pub fn write(&mut self, lsn: u64, count: u64) -> WriteCharge {
        self.try_write(lsn, count).expect("fault injected — use try_write with an armed FaultPlan")
    }

    /// Fallible write path: like [`Ftl::write`] but injected faults come
    /// back as typed errors. Program faults are absorbed (the page is
    /// scrapped and the next one tried); power cuts and spare-area
    /// exhaustion abort mid-range, leaving the sectors already written
    /// durable and the rest untouched — exactly what real NAND leaves
    /// behind.
    ///
    /// # Panics
    /// Panics if the range exceeds the logical capacity.
    pub fn try_write(&mut self, lsn: u64, count: u64) -> Result<WriteCharge, FaultError> {
        assert!(
            lsn + count <= self.map.len() as u64,
            "write beyond logical capacity: lsn {lsn} + {count} > {}",
            self.map.len()
        );
        self.faults.check_power()?;
        let mut charge = WriteCharge::default();
        for l in lsn..lsn + count {
            // The power-cut clock ticks before any state changes: a cut
            // between two sector programs leaves the earlier sectors
            // durable and this one entirely unwritten.
            self.faults.program_page()?;
            let psn = self.allocate(&mut charge)?;
            self.invalidate(l);
            self.map[l as usize] = psn;
            self.rmap[psn as usize] = l as u32;
            debug_assert!(!self.sealed[(psn / self.sectors_per_block) as usize]);
            self.valid[(psn / self.sectors_per_block) as usize] += 1;
            self.stats.user_sectors_written += 1;
        }
        Ok(charge)
    }

    /// Read check: returns how many of the `count` sectors at `lsn` are
    /// mapped (reads of never-written space return zeroes in real devices).
    pub fn read(&self, lsn: u64, count: u64) -> u64 {
        assert!(lsn + count <= self.map.len() as u64, "read beyond logical capacity");
        (lsn..lsn + count).filter(|&l| self.is_mapped(l)).count() as u64
    }

    /// TRIM/discard: drop the mapping of `count` sectors at `lsn` without
    /// writing. Discarded sectors become invalid immediately, so GC can
    /// reclaim their blocks without migrating them — the mechanism by
    /// which a compression layer tells the FTL that superseded slots are
    /// dead. Returns the number of sectors actually discarded.
    pub fn trim(&mut self, lsn: u64, count: u64) -> u64 {
        assert!(lsn + count <= self.map.len() as u64, "trim beyond logical capacity");
        let mut dropped = 0;
        for l in lsn..lsn + count {
            if self.is_mapped(l) {
                self.invalidate(l);
                self.map[l as usize] = UNMAPPED;
                dropped += 1;
            }
        }
        self.stats.trimmed_sectors += dropped;
        dropped
    }

    fn invalidate(&mut self, lsn: u64) {
        let old = self.map[lsn as usize];
        if old != UNMAPPED {
            self.rmap[old as usize] = INVALID;
            self.dec_valid(old / self.sectors_per_block);
        }
    }

    /// Decrement a block's valid counter, moving it one bucket down when
    /// it is a sealed GC candidate. (Increments never need the mirror
    /// operation: the log only ever appends to the active block, which is
    /// never sealed.)
    fn dec_valid(&mut self, block: u32) {
        let b = block as usize;
        self.valid[b] -= 1;
        if self.sealed[b] {
            let v = self.valid[b] as usize;
            let pos = self.bucket_pos[b] as usize;
            self.bucket[v + 1].swap_remove(pos);
            if let Some(&moved) = self.bucket[v + 1].get(pos) {
                self.bucket_pos[moved as usize] = pos as u32;
            }
            self.bucket_pos[b] = self.bucket[v].len() as u32;
            self.bucket[v].push(block);
            if v < self.min_bucket {
                self.min_bucket = v;
            }
        }
    }

    /// Veto GC victim selection for `block`: it leaves the candidate
    /// index (if sealed) and re-entry is refused until
    /// [`Ftl::unpin_block`]. Idempotent. The compression layer pins the
    /// blocks of runs with outstanding extra references so shared content
    /// is never relocated or erased behind the refcount ledger's back.
    pub fn pin_block(&mut self, block: u32) {
        let b = block as usize;
        if self.pinned[b] {
            return;
        }
        if self.sealed[b] {
            self.unseal_block(block);
        }
        self.pinned[b] = true;
    }

    /// Lift the veto of [`Ftl::pin_block`]; if the block is currently a
    /// GC candidate (non-active, non-free, non-retired) it re-enters the
    /// victim index at its present valid count. Idempotent.
    pub fn unpin_block(&mut self, block: u32) {
        let b = block as usize;
        if !self.pinned[b] {
            return;
        }
        self.pinned[b] = false;
        let candidate =
            block != self.active_block && !self.retired[b] && !self.free_blocks.contains(&block);
        if candidate {
            self.seal_block(block);
        }
    }

    /// Whether `block` is currently pinned out of GC victim selection.
    pub fn is_pinned(&self, block: u32) -> bool {
        self.pinned[block as usize]
    }

    /// Enter `block` into the GC candidate index (the active block just
    /// rotated away from it). Pinned blocks stay out of the index — they
    /// rejoin on [`Ftl::unpin_block`].
    fn seal_block(&mut self, block: u32) {
        let b = block as usize;
        if self.pinned[b] {
            return;
        }
        debug_assert!(!self.sealed[b] && !self.retired[b], "double seal");
        let v = self.valid[b] as usize;
        self.sealed[b] = true;
        self.bucket_pos[b] = self.bucket[v].len() as u32;
        self.bucket[v].push(block);
        if v < self.min_bucket {
            self.min_bucket = v;
        }
    }

    /// Remove `block` from the GC candidate index (it was picked as a
    /// victim, about to be erased or retired).
    fn unseal_block(&mut self, block: u32) {
        let b = block as usize;
        debug_assert!(self.sealed[b], "unseal of unsealed block");
        let v = self.valid[b] as usize;
        let pos = self.bucket_pos[b] as usize;
        self.bucket[v].swap_remove(pos);
        if let Some(&moved) = self.bucket[v].get(pos) {
            self.bucket_pos[moved as usize] = pos as u32;
        }
        self.sealed[b] = false;
    }

    /// Allocate the next physical sector in the active block, rotating to a
    /// fresh block (and running GC) as needed. Injected program faults are
    /// absorbed here: the faulty page is scrapped (marked stale, reclaimed
    /// at the next erase) and allocation moves on, as a real controller
    /// does. Only spare-area exhaustion is fatal.
    fn allocate(&mut self, charge: &mut WriteCharge) -> Result<u32, FaultError> {
        loop {
            if self.write_ptr == self.sectors_per_block {
                // Active block full: grab the next free block. The full
                // block is sealed into the GC candidate index only once
                // the rotation is certain (GC never victimizes the
                // still-active block, and a worn-out device must not
                // leave its active block sealed).
                self.maybe_gc(charge)?;
                let next = self.free_blocks.pop_front().ok_or(FaultError::WornOut)?;
                self.seal_block(self.active_block);
                self.active_block = next;
                self.write_ptr = 0;
            }
            let psn = self.active_block * self.sectors_per_block + self.write_ptr;
            self.write_ptr += 1;
            if self.faults.program_fault() {
                // Scrapped page: stale until its block is erased.
                self.rmap[psn as usize] = INVALID;
                continue;
            }
            return Ok(psn);
        }
    }

    /// Run greedy GC until the free list is above the watermark.
    ///
    /// Migration copies are controller-internal and intentionally do not
    /// tick the power-cut clock or draw program faults — user-visible
    /// fault semantics stay attached to host writes. Erase faults retire
    /// the victim block permanently (it keeps its stale pages and never
    /// rejoins the free list); a device that retires its whole spare area
    /// reports [`FaultError::WornOut`].
    fn maybe_gc(&mut self, charge: &mut WriteCharge) -> Result<(), FaultError> {
        while self.free_blocks.len() <= self.gc_low_watermark as usize {
            self.stats.gc_runs += 1;
            let victim = self.pick_victim().ok_or(FaultError::WornOut)?;
            // Migrate valid sectors out of the victim.
            let base = victim * self.sectors_per_block;
            for s in 0..self.sectors_per_block {
                let psn = base + s;
                let owner = self.rmap[psn as usize];
                if owner == FREE || owner == INVALID {
                    continue;
                }
                debug_assert_eq!(self.map[owner as usize], psn, "map/rmap out of sync");
                // Append to the log (active block cannot be the victim).
                if self.write_ptr == self.sectors_per_block {
                    let Some(next) = self.free_blocks.pop_front() else {
                        // Out of spare blocks mid-migration. Each sector
                        // moves atomically, so the map is consistent;
                        // re-seal the half-migrated victim at its reduced
                        // valid count so the candidate index stays exact
                        // even on a worn-out device.
                        self.seal_block(victim);
                        return Err(FaultError::WornOut);
                    };
                    self.seal_block(self.active_block);
                    self.active_block = next;
                    self.write_ptr = 0;
                }
                let new_psn = self.active_block * self.sectors_per_block + self.write_ptr;
                self.write_ptr += 1;
                self.map[owner as usize] = new_psn;
                self.rmap[new_psn as usize] = owner;
                self.rmap[psn as usize] = INVALID;
                debug_assert!(!self.sealed[self.active_block as usize]);
                self.valid[(new_psn / self.sectors_per_block) as usize] += 1;
                // The victim was unsealed when picked, so its decrements
                // need no bucket moves.
                self.valid[victim as usize] -= 1;
                self.stats.migrated_sectors += 1;
                charge.migrated_sectors += 1;
            }
            debug_assert_eq!(self.valid[victim as usize], 0);
            if self.faults.erase_fault() {
                // Erase failed: retire the block. Its pages stay marked
                // stale so no invariant ever counts them as usable.
                for s in 0..self.sectors_per_block {
                    self.rmap[(base + s) as usize] = INVALID;
                }
                self.retired[victim as usize] = true;
                self.stats.retired_blocks += 1;
                continue;
            }
            // Erase the victim.
            for s in 0..self.sectors_per_block {
                self.rmap[(base + s) as usize] = FREE;
            }
            self.erase_count[victim as usize] += 1;
            self.stats.erases += 1;
            charge.erases += 1;
            self.free_blocks.push_back(victim);
        }
        Ok(())
    }

    /// Victim selection over the sealed-block bucket index. Normally
    /// greedy: pop any block from the lowest non-empty valid-count bucket
    /// — O(1) amortized via the monotone `min_bucket` cursor, replacing
    /// the former per-call scan of every block (plus a HashSet of the
    /// free list). When static wear leveling is enabled and the erase
    /// spread exceeds the threshold, the coldest sealed block is chosen
    /// instead so its (likely cold) data migrates and the block rejoins
    /// the erase rotation — that rare path keeps its linear scan. The
    /// returned victim leaves the index (it is about to be erased or
    /// retired).
    fn pick_victim(&mut self) -> Option<u32> {
        if self.wear_level_threshold > 0 {
            let max = self.erase_count.iter().copied().max().unwrap_or(0);
            let coldest = (0..self.valid.len() as u32)
                .filter(|&b| self.sealed[b as usize])
                .min_by_key(|&b| self.erase_count[b as usize]);
            if let Some(cold) = coldest {
                if max.saturating_sub(self.erase_count[cold as usize]) > self.wear_level_threshold
                {
                    self.unseal_block(cold);
                    return Some(cold);
                }
            }
        }
        while self.min_bucket < self.bucket.len() && self.bucket[self.min_bucket].is_empty() {
            self.min_bucket += 1;
        }
        if self.min_bucket >= self.bucket.len() {
            return None;
        }
        let victim = *self.bucket[self.min_bucket].last().expect("bucket non-empty");
        self.unseal_block(victim);
        Some(victim)
    }

    /// Sector count corresponding to `bytes`, rounded up.
    pub fn sectors_for(bytes: u64) -> u64 {
        bytes.div_ceil(SECTOR_BYTES).max(1)
    }

    /// Verify internal invariants, reporting the first violation as a
    /// typed [`IntegrityError`] instead of panicking.
    ///
    /// Checked: (1) every mapped logical sector's reverse entry points
    /// back at it, (2) per-block valid counters match the reverse map,
    /// (3) free-listed blocks hold no valid data, (4) total valid sectors
    /// equal the number of mapped logical sectors, (5) the GC bucket
    /// index exactly mirrors per-block state — a block is bucketed iff it
    /// is a GC candidate (non-active, non-free, non-retired, non-pinned),
    /// sits in the bucket named by its valid count, at its recorded
    /// position, exactly once. Intended for tests, debugging, and post-recovery audits in
    /// the fault campaign; cost is O(physical sectors).
    pub fn verify_integrity(&self) -> Result<(), IntegrityError> {
        let mut mapped = 0u64;
        for (lsn, &psn) in self.map.iter().enumerate() {
            if psn != UNMAPPED {
                mapped += 1;
                if self.rmap[psn as usize] != lsn as u32 {
                    return Err(IntegrityError::RmapMismatch { lsn: lsn as u64, psn });
                }
            }
        }
        let mut total_valid = 0u64;
        for b in 0..self.valid.len() as u32 {
            let base = b * self.sectors_per_block;
            let actual = (0..self.sectors_per_block)
                .filter(|&s| {
                    let v = self.rmap[(base + s) as usize];
                    v != FREE && v != INVALID
                })
                .count() as u16;
            if self.valid[b as usize] != actual {
                return Err(IntegrityError::ValidCountMismatch {
                    block: b,
                    recorded: self.valid[b as usize],
                    actual,
                });
            }
            total_valid += u64::from(actual);
        }
        for &b in &self.free_blocks {
            if self.valid[b as usize] != 0 {
                return Err(IntegrityError::FreeBlockHoldsData {
                    block: b,
                    valid: self.valid[b as usize],
                });
            }
        }
        if total_valid != mapped {
            return Err(IntegrityError::ValidTotalMismatch { valid: total_valid, mapped });
        }
        // (5) GC bucket index vs ground truth, both directions.
        let mut is_free = vec![false; self.valid.len()];
        for &b in &self.free_blocks {
            is_free[b as usize] = true;
        }
        for b in 0..self.valid.len() as u32 {
            let candidate = b != self.active_block
                && !is_free[b as usize]
                && !self.retired[b as usize]
                && !self.pinned[b as usize];
            if self.sealed[b as usize] != candidate {
                return Err(IntegrityError::GcBucketMismatch {
                    block: b,
                    reason: "sealed flag disagrees with active/free/retired state",
                });
            }
            if self.sealed[b as usize]
                && self
                    .bucket
                    .get(self.valid[b as usize] as usize)
                    .and_then(|bk| bk.get(self.bucket_pos[b as usize] as usize))
                    != Some(&b)
            {
                return Err(IntegrityError::GcBucketMismatch {
                    block: b,
                    reason: "block missing from the bucket named by its valid count",
                });
            }
        }
        for (v, bk) in self.bucket.iter().enumerate() {
            for (pos, &m) in bk.iter().enumerate() {
                if !self.sealed[m as usize]
                    || self.valid[m as usize] as usize != v
                    || self.bucket_pos[m as usize] as usize != pos
                {
                    return Err(IntegrityError::GcBucketMismatch {
                        block: m,
                        reason: "stale or duplicate bucket membership",
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SsdConfig {
        // 64 blocks of 64 KiB logical + 25% OP: tiny, GC-heavy device.
        SsdConfig {
            logical_bytes: 64 * 64 * 1024,
            overprovision: 0.25,
            sectors_per_block: 64,
            gc_low_watermark: 3,
            ..SsdConfig::default()
        }
    }

    #[test]
    fn fresh_device_is_unmapped() {
        let ftl = Ftl::new(&small_cfg());
        assert!(!ftl.is_mapped(0));
        assert_eq!(ftl.read(0, 100), 0);
        assert_eq!(ftl.stats(), FtlStats::default());
    }

    #[test]
    fn write_maps_sectors() {
        let mut ftl = Ftl::new(&small_cfg());
        let charge = ftl.write(10, 5);
        assert_eq!(charge, WriteCharge::default()); // no GC on fresh device
        assert_eq!(ftl.read(10, 5), 5);
        assert_eq!(ftl.read(0, 10), 0);
        assert_eq!(ftl.stats().user_sectors_written, 5);
    }

    #[test]
    fn overwrite_invalidates_old_location() {
        let mut ftl = Ftl::new(&small_cfg());
        ftl.write(0, 1);
        ftl.write(0, 1);
        assert_eq!(ftl.stats().user_sectors_written, 2);
        // Still exactly one valid copy.
        let total_valid: u32 = ftl.valid.iter().map(|&v| u32::from(v)).sum();
        assert_eq!(total_valid, 1);
    }

    #[test]
    #[should_panic(expected = "beyond logical capacity")]
    fn out_of_range_write_rejected() {
        let mut ftl = Ftl::new(&small_cfg());
        let cap = ftl.logical_sectors();
        ftl.write(cap, 1);
    }

    #[test]
    fn filling_device_triggers_gc() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let cap = ftl.logical_sectors();
        // Fill the logical space twice over, in-place overwrites.
        for round in 0..2 {
            for l in 0..cap {
                ftl.write(l, 1);
            }
            let _ = round;
        }
        let stats = ftl.stats();
        assert!(stats.gc_runs > 0, "GC must have run");
        assert!(stats.erases > 0);
        assert_eq!(stats.user_sectors_written, 2 * cap);
        assert!(ftl.free_block_count() >= cfg.gc_low_watermark as usize);
        // Everything still readable.
        assert_eq!(ftl.read(0, cap), cap);
    }

    #[test]
    fn random_overwrites_preserve_mapping_invariants() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let cap = ftl.logical_sectors();
        let mut x = 0x1234_5678u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let lsn = x % cap;
            let count = 1 + (x >> 32) % 8;
            let count = count.min(cap - lsn);
            ftl.write(lsn, count);
        }
        // Invariant: every mapped lsn's rmap points back at it.
        for (lsn, &psn) in ftl.map.iter().enumerate() {
            if psn != UNMAPPED {
                assert_eq!(ftl.rmap[psn as usize], lsn as u32, "lsn {lsn}");
            }
        }
        // Invariant: per-block valid counts match the rmap.
        for b in 0..ftl.valid.len() {
            let base = b as u32 * ftl.sectors_per_block;
            let actual = (0..ftl.sectors_per_block)
                .filter(|&s| {
                    let v = ftl.rmap[(base + s) as usize];
                    v != FREE && v != INVALID
                })
                .count() as u16;
            assert_eq!(ftl.valid[b], actual, "block {b}");
        }
    }

    #[test]
    fn write_amplification_grows_with_utilization() {
        // A device written once has WAF 1; heavy *random* overwrites raise
        // it above 1 (sequential overwrites invalidate whole blocks and
        // stay near 1 — see `sequential_overwrite_has_low_waf`).
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let cap = ftl.logical_sectors();
        for l in 0..cap {
            ftl.write(l, 1);
        }
        let cold = ftl.stats().write_amplification();
        assert_eq!(cold, 1.0, "first sequential fill must not amplify");
        let mut x = 5u64;
        for _ in 0..4 * cap {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ftl.write(x % cap, 1);
        }
        let hot = ftl.stats().write_amplification();
        assert!(hot > cold, "WAF must grow: {cold} -> {hot}");
    }

    #[test]
    fn sequential_overwrite_has_low_waf() {
        // Perfectly sequential overwrite = whole blocks invalidated at once
        // = near-free GC.
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let cap = ftl.logical_sectors();
        for _ in 0..4 {
            for l in 0..cap {
                ftl.write(l, 1);
            }
        }
        let waf = ftl.stats().write_amplification();
        assert!(waf < 1.1, "sequential WAF should stay near 1, got {waf}");
    }

    #[test]
    fn wear_counts_accumulate() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let cap = ftl.logical_sectors();
        for _ in 0..4 {
            for l in 0..cap {
                ftl.write(l, 1);
            }
        }
        let total: u64 = ftl.erase_counts().iter().map(|&e| u64::from(e)).sum();
        assert_eq!(total, ftl.stats().erases);
        assert!(total > 0);
    }

    #[test]
    fn gc_charge_reported_to_caller() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let cap = ftl.logical_sectors();
        let mut total_charge = WriteCharge::default();
        let mut x = 99u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let c = ftl.write(x % cap, 1);
            total_charge.migrated_sectors += c.migrated_sectors;
            total_charge.erases += c.erases;
        }
        assert_eq!(total_charge.migrated_sectors, ftl.stats().migrated_sectors);
        assert_eq!(total_charge.erases, ftl.stats().erases);
        assert!(total_charge.erases > 0);
    }

    #[test]
    fn trim_unmaps_and_reduces_gc_work() {
        let cfg = small_cfg();
        let cap = Ftl::new(&cfg).logical_sectors();
        // Workload A: overwrite everything twice (live data stays full).
        let mut a = Ftl::new(&cfg);
        for _ in 0..3 {
            for l in 0..cap {
                a.write(l, 1);
            }
        }
        // Workload B: same writes, but half the space is trimmed before
        // each overwrite round — GC migrates far less.
        let mut b = Ftl::new(&cfg);
        for _ in 0..3 {
            for l in 0..cap {
                b.write(l, 1);
            }
            b.trim(0, cap / 2);
        }
        assert!(b.stats().trimmed_sectors > 0);
        assert!(
            b.stats().migrated_sectors <= a.stats().migrated_sectors,
            "trim must not increase migration: {} vs {}",
            b.stats().migrated_sectors,
            a.stats().migrated_sectors
        );
        // Trimmed sectors read as unmapped; the rest stay readable.
        b.trim(0, 4);
        assert_eq!(b.read(0, 4), 0);
        assert_eq!(b.read(cap / 2, 4), 4);
        b.verify_integrity().expect("integrity");
    }

    #[test]
    fn trim_of_unmapped_space_is_noop() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        assert_eq!(ftl.trim(0, 100), 0);
        assert_eq!(ftl.stats().trimmed_sectors, 0);
        ftl.verify_integrity().expect("integrity");
    }

    #[test]
    fn sectors_for_rounds_up() {
        assert_eq!(Ftl::sectors_for(1), 1);
        assert_eq!(Ftl::sectors_for(1024), 1);
        assert_eq!(Ftl::sectors_for(1025), 2);
        assert_eq!(Ftl::sectors_for(4096), 4);
        assert_eq!(Ftl::sectors_for(0), 1);
    }

    #[test]
    fn wear_leveling_bounds_erase_spread() {
        // Hot/cold split: the first half of the logical space is written
        // once (cold), the second half is hammered. Without wear leveling
        // the cold data pins its blocks at zero erases; with it, cold
        // blocks are recycled once the spread exceeds the threshold.
        let run = |threshold: u32| -> (u32, u32) {
            let cfg = SsdConfig { wear_level_threshold: threshold, ..small_cfg() };
            let mut ftl = Ftl::new(&cfg);
            let cap = ftl.logical_sectors();
            for l in 0..cap {
                ftl.write(l, 1);
            }
            let mut x = 9u64;
            for _ in 0..30 * cap {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ftl.write(cap / 2 + x % (cap / 2), 1); // hot half only
            }
            ftl.verify_integrity().expect("integrity");
            let max = ftl.erase_counts().iter().copied().max().unwrap();
            let min = ftl.erase_counts().iter().copied().min().unwrap();
            (max, min)
        };
        let (max_off, min_off) = run(0);
        let (max_on, min_on) = run(8);
        assert_eq!(min_off, 0, "without WL, cold blocks never erase");
        assert!(min_on > 0, "with WL, every block eventually rotates");
        assert!(
            max_on - min_on < max_off - min_off,
            "WL must narrow the spread: {}..{} vs {}..{}",
            min_on,
            max_on,
            min_off,
            max_off
        );
    }

    #[test]
    fn gc_buckets_track_valid_counts_under_heavy_churn() {
        // Random overwrites + trims at high utilization keep GC busy; the
        // incremental bucket index must agree with ground truth at every
        // checkpoint (verify_integrity cross-checks membership, bucket
        // index and recorded position).
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let cap = ftl.logical_sectors();
        let mut x = 0xABCD_EF01u64;
        for i in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let lsn = x % cap;
            if x.is_multiple_of(11) {
                ftl.trim(lsn, (1 + (x >> 32) % 4).min(cap - lsn));
            } else {
                ftl.write(lsn, (1 + (x >> 32) % 8).min(cap - lsn));
            }
            if i % 2_500 == 0 {
                ftl.verify_integrity().expect("bucket index drifted from ground truth");
            }
        }
        ftl.verify_integrity().expect("final state");
        assert!(ftl.stats().gc_runs > 0, "the workload must actually exercise GC");
    }

    #[test]
    fn gc_buckets_consistent_with_wear_leveling_and_erase_faults() {
        // The wear-leveling cold path and erase-fault retirement both pull
        // victims out of the index through unseal; neither may strand
        // stale bucket entries.
        let cfg = SsdConfig {
            wear_level_threshold: 4,
            fault: FaultPlan { erase_error_rate: 0.05, ..FaultPlan::none() },
            ..small_cfg()
        };
        let mut ftl = Ftl::new(&cfg);
        let cap = ftl.logical_sectors();
        let mut x = 77u64;
        for i in 0..25_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match ftl.try_write(cap / 2 + x % (cap / 2), 1) {
                Ok(_) => {}
                Err(FaultError::WornOut) => break,
                Err(e) => panic!("unexpected fault: {e}"),
            }
            if i % 2_500 == 0 {
                ftl.verify_integrity().expect("bucket index drifted");
            }
        }
        ftl.verify_integrity().expect("final state");
    }

    #[test]
    fn verify_integrity_catches_bucket_drift() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let cap = ftl.logical_sectors();
        for _ in 0..2 {
            for l in 0..cap {
                ftl.write(l, 1);
            }
        }
        ftl.verify_integrity().expect("healthy state");
        // Corrupt the index: move a sealed block into the wrong bucket
        // without touching its valid counter.
        let sealed = (0..ftl.sealed.len()).find(|&b| ftl.sealed[b]).expect("a sealed block");
        let v = ftl.valid[sealed] as usize;
        let pos = ftl.bucket_pos[sealed] as usize;
        ftl.bucket[v].swap_remove(pos);
        if let Some(&moved) = ftl.bucket[v].get(pos) {
            ftl.bucket_pos[moved as usize] = pos as u32;
        }
        let wrong = if v == 0 { 1 } else { v - 1 };
        ftl.bucket_pos[sealed] = ftl.bucket[wrong].len() as u32;
        ftl.bucket[wrong].push(sealed as u32);
        let err = ftl.verify_integrity().unwrap_err();
        assert!(
            matches!(err, IntegrityError::GcBucketMismatch { .. }),
            "drift must surface as GcBucketMismatch, got {err}"
        );
        // A stranded sealed flag is caught too.
        let mut ftl2 = Ftl::new(&cfg);
        for l in 0..cap {
            ftl2.write(l, 1);
        }
        let sealed2 = (0..ftl2.sealed.len()).find(|&b| ftl2.sealed[b]).expect("a sealed block");
        ftl2.unseal_block(sealed2 as u32);
        assert!(matches!(
            ftl2.verify_integrity().unwrap_err(),
            IntegrityError::GcBucketMismatch { .. }
        ));
    }

    #[test]
    fn pinned_block_is_never_erased_under_gc_churn() {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg);
        let cap = ftl.logical_sectors();
        for l in 0..cap {
            ftl.write(l, 1);
        }
        // Pin a sealed block that still holds valid data and remember
        // which logical sectors live there.
        let pinned = (0..ftl.sealed.len() as u32)
            .find(|&b| ftl.sealed[b as usize] && ftl.valid[b as usize] > 0)
            .expect("a sealed block with valid data");
        ftl.pin_block(pinned);
        assert!(ftl.is_pinned(pinned));
        ftl.pin_block(pinned); // idempotent
        ftl.verify_integrity().expect("pinning must keep the index exact");
        let base = pinned * ftl.sectors_per_block;
        let residents: Vec<u32> = (0..ftl.sectors_per_block)
            .map(|s| ftl.rmap[(base + s) as usize])
            .filter(|&o| o != FREE && o != INVALID)
            .collect();
        let erases_before = ftl.erase_counts()[pinned as usize];
        // Heavy churn everywhere *except* the resident sectors: GC runs
        // hard but the pinned block must never be victimized.
        let mut x = 0x51ED_B10Cu64;
        for i in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let lsn = x % cap;
            if residents.contains(&(lsn as u32)) {
                continue;
            }
            ftl.write(lsn, 1);
            if i % 5_000 == 0 {
                ftl.verify_integrity().expect("churn checkpoint");
            }
        }
        assert!(ftl.stats().gc_runs > 0, "the workload must exercise GC");
        assert_eq!(
            ftl.erase_counts()[pinned as usize],
            erases_before,
            "a pinned block must never be erased"
        );
        for &lsn in &residents {
            assert_eq!(
                ftl.map[lsn as usize] / ftl.sectors_per_block,
                pinned,
                "resident lsn {lsn} must stay in place (never migrated)"
            );
        }
        // Unpinning returns the block to the rotation; churn may now
        // reclaim it without tripping any invariant.
        ftl.unpin_block(pinned);
        assert!(!ftl.is_pinned(pinned));
        ftl.unpin_block(pinned); // idempotent
        ftl.verify_integrity().expect("unpin must restore the index");
        for _ in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ftl.write(x % cap, 1);
        }
        ftl.verify_integrity().expect("post-unpin churn");
        assert_eq!(ftl.read(0, cap), cap, "no data lost across pin/unpin churn");
    }

    #[test]
    fn waf_of_fresh_device_is_one() {
        let ftl = Ftl::new(&small_cfg());
        assert_eq!(ftl.stats().write_amplification(), 1.0);
    }

    #[test]
    fn power_cut_aborts_write_and_preserves_integrity() {
        let cfg = SsdConfig {
            fault: FaultPlan { power_cut_after_programs: Some(10), ..FaultPlan::none() },
            ..small_cfg()
        };
        let mut ftl = Ftl::new(&cfg);
        // First 10 sector programs succeed, the 11th hits the cut.
        let err = ftl.try_write(0, 20).unwrap_err();
        assert_eq!(err, FaultError::PowerCut { after_programs: 10 });
        assert_eq!(ftl.read(0, 10), 10, "sectors before the cut are durable");
        assert_eq!(ftl.read(10, 10), 0, "sectors after the cut never landed");
        // Everything else rejects until power is restored.
        assert_eq!(ftl.try_write(10, 1).unwrap_err(), FaultError::PoweredOff);
        ftl.verify_integrity().expect("cut must not corrupt the mapping");
        ftl.faults_mut().power_cycle();
        ftl.try_write(10, 10).expect("power restored");
        assert_eq!(ftl.read(0, 20), 20);
    }

    #[test]
    fn program_faults_scrap_pages_but_writes_succeed() {
        let cfg = SsdConfig {
            fault: FaultPlan { program_error_rate: 0.05, ..FaultPlan::none() },
            ..small_cfg()
        };
        let mut ftl = Ftl::new(&cfg);
        let cap = ftl.logical_sectors();
        for round in 0..3u64 {
            for l in 0..cap {
                ftl.try_write(l, 1).expect("program faults are absorbed");
            }
            let _ = round;
        }
        assert!(ftl.fault_stats().program_faults > 0, "5% rate must fire over 3 fills");
        assert_eq!(ftl.read(0, cap), cap);
        ftl.verify_integrity().expect("scrapped pages must not break invariants");
    }

    #[test]
    fn erase_faults_retire_blocks() {
        let cfg = SsdConfig {
            fault: FaultPlan { erase_error_rate: 0.10, ..FaultPlan::none() },
            ..small_cfg()
        };
        let mut ftl = Ftl::new(&cfg);
        let cap = ftl.logical_sectors();
        let mut x = 7u64;
        let mut worn_out = false;
        'outer: for _ in 0..40 * cap {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match ftl.try_write(x % cap, 1) {
                Ok(_) => {}
                Err(FaultError::WornOut) => {
                    worn_out = true;
                    break 'outer;
                }
                Err(e) => panic!("unexpected fault: {e}"),
            }
        }
        assert!(ftl.stats().retired_blocks > 0, "10% erase-fault rate must retire blocks");
        ftl.verify_integrity().expect("retired blocks must not break invariants");
        // Either the device survived with degraded spare area, or it
        // eventually wore out — both are legal ends; silent corruption is not.
        let _ = worn_out;
    }

    #[test]
    fn inactive_fault_plan_changes_nothing() {
        let mut faulty = Ftl::new(&small_cfg());
        let mut clean = Ftl::new(&small_cfg());
        let cap = clean.logical_sectors();
        let mut x = 3u64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let lsn = x % cap;
            assert_eq!(faulty.try_write(lsn, 1).unwrap(), clean.write(lsn, 1));
        }
        assert_eq!(faulty.stats(), clean.stats());
        assert_eq!(faulty.fault_stats(), FaultStats::default());
    }
}
