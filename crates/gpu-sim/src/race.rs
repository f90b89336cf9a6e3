//! Phase-based data-race detection.
//!
//! The simulator runs the lanes of a block *sequentially* within each
//! barrier-delimited phase, so kernels that would be nondeterministic on
//! real SIMT hardware (two lanes touching the same word between two
//! `__syncthreads()`, at least one of them writing) still produce one
//! deterministic answer here — silently masking a real CUDA bug. This
//! module records every shared-memory access (and every *plain*, i.e.
//! non-atomic, global access) a block performs within the current phase
//! and flags conflicting accesses by different lanes, regardless of the
//! order the simulator happened to execute them in:
//!
//! * **write/write** — two lanes plain-store different values to the same
//!   word in one phase (last-writer-wins would be schedule-dependent on
//!   hardware);
//! * **read/write** — one lane plain-stores a word another lane reads in
//!   the same phase (the reader could observe either value). Detection is
//!   symmetric: a read executed *before* the conflicting write is still
//!   reported, because hardware could have ordered the write first.
//!
//! Two exemptions keep common, genuinely benign GPU idioms quiet:
//!
//! * **Atomics synchronize with each other.** Any number of lanes may RMW
//!   the same word atomically; mixing an atomic with a plain access from
//!   another lane is still a race.
//! * **Silent stores are benign.** A store whose value equals the word's
//!   current content (e.g. many lanes raising the same overflow flag to
//!   `1`) cannot change what any racing reader observes and is ignored,
//!   matching the "multiple same-value writers" idiom the kernels in this
//!   workspace were written against.
//!
//! Scope: conflicts are detected *within one block*. Cross-block global
//! races cannot be ordered by `__syncthreads()` at all and are outside
//! the phase model (blocks execute on independent rayon workers); the
//! kernels under test only communicate across blocks through atomics,
//! which are exempt by design.
//!
//! Detection is off by default (a launch pays ~zero cost: one branch per
//! access) and is enabled for every launch on a device via
//! [`Device::with_race_detection`](crate::Device::with_race_detection).
//! A detected race poisons the block like a memory fault and surfaces as
//! [`SimError::DataRace`].

use std::fmt;

use crate::lint::SourceLoc;
use crate::SimError;

/// Classification of a detected conflict: which address space, and
/// whether the conflicting pair was write/write or read/write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// Two lanes plain-stored different values to one shared word.
    SharedWriteWrite,
    /// One lane plain-stored a shared word another lane read (or
    /// atomically updated) in the same phase.
    SharedReadWrite,
    /// Two lanes of one block plain-stored different values to one
    /// global word without an atomic.
    GlobalWriteWrite,
    /// One lane of a block plain-stored a global word another lane of
    /// the same block read in the same phase.
    GlobalReadWrite,
}

impl RaceKind {
    /// Whether the conflicting address is a shared-memory word index
    /// (true) or a global byte address (false).
    pub fn is_shared(self) -> bool {
        matches!(self, RaceKind::SharedWriteWrite | RaceKind::SharedReadWrite)
    }
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RaceKind::SharedWriteWrite => "shared-memory write/write",
            RaceKind::SharedReadWrite => "shared-memory read/write",
            RaceKind::GlobalWriteWrite => "global-memory write/write",
            RaceKind::GlobalReadWrite => "global-memory read/write",
        };
        f.write_str(s)
    }
}

/// One lane access, as seen by the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    Read,
    /// A plain store; `changes_value` is false for silent stores (the
    /// stored value equals the word's current content), which are benign.
    Write {
        changes_value: bool,
    },
    /// An atomic RMW: synchronizes with other atomics, conflicts with
    /// plain accesses from other lanes.
    Atomic,
}

/// Sentinel: no lane recorded.
const NO_LANE: u32 = u32::MAX;

/// Per-word access record for the current phase. `epoch` stamps which
/// phase the record belongs to: a record from an earlier epoch reads as
/// empty, so per-phase reset is O(1) instead of O(words touched).
#[derive(Debug, Clone, Copy)]
struct SlotState {
    epoch: u64,
    /// Up to two distinct lanes that plain-read the word this phase
    /// (two suffice: any write conflicts with a reader other than the
    /// writing lane, and with two distinct readers recorded one of them
    /// always qualifies).
    readers: [u32; 2],
    /// The lane that exclusively plain-stored the word this phase.
    writer: u32,
    /// The first lane that atomically updated the word this phase.
    atomic: u32,
}

impl SlotState {
    /// A record no epoch claims (epochs start at 1).
    const FRESH: SlotState = SlotState::fresh(0);

    const fn fresh(epoch: u64) -> SlotState {
        SlotState {
            epoch,
            readers: [NO_LANE; 2],
            writer: NO_LANE,
            atomic: NO_LANE,
        }
    }

    /// Record `access` by `lane` and return the conflicting lane plus
    /// whether the conflict is read/write (`true`) or write/write
    /// (`false`), if any.
    fn check(&mut self, lane: u32, access: Access) -> Option<(u32, bool)> {
        match access {
            Access::Read => {
                if self.writer != NO_LANE && self.writer != lane {
                    return Some((self.writer, true));
                }
                if self.readers[0] == NO_LANE {
                    self.readers[0] = lane;
                } else if self.readers[0] != lane && self.readers[1] == NO_LANE {
                    self.readers[1] = lane;
                }
                None
            }
            Access::Write { changes_value } => {
                if !changes_value {
                    // Silent store: cannot be observed by any racing
                    // reader or writer.
                    return None;
                }
                if self.writer != NO_LANE && self.writer != lane {
                    return Some((self.writer, false));
                }
                if self.atomic != NO_LANE && self.atomic != lane {
                    return Some((self.atomic, false));
                }
                if let Some(&r) = self.readers.iter().find(|&&r| r != NO_LANE && r != lane) {
                    return Some((r, true));
                }
                self.writer = lane;
                None
            }
            Access::Atomic => {
                if self.writer != NO_LANE && self.writer != lane {
                    return Some((self.writer, false));
                }
                if let Some(&r) = self.readers.iter().find(|&&r| r != NO_LANE && r != lane) {
                    return Some((r, true));
                }
                if self.atomic == NO_LANE {
                    self.atomic = lane;
                }
                None
            }
        }
    }
}

/// One entry of [`GlobalTable`]: a flat byte address and its record.
#[derive(Debug, Clone, Copy)]
struct GlobalSlot {
    addr: u64,
    state: SlotState,
}

/// Open-addressing table over the global byte addresses a block touched
/// with plain accesses this phase: a multiplicative (Fibonacci) hash,
/// linear probing, and the records' epoch stamps as occupancy — a slot
/// stamped with an older epoch is empty. Nothing is ever deleted within
/// an epoch, so every probe chain stays intact, and closing a phase is
/// one epoch bump instead of a table clear. Growing re-inserts only the
/// current epoch's entries. The keys are byte addresses in the
/// simulated device's bounded address space, and colliding keys can
/// only slow a checked run, never change its verdict, so an unkeyed
/// hash is enough.
#[derive(Debug, Default)]
struct GlobalTable {
    /// Power-of-two length (or empty before the first insert).
    slots: Vec<GlobalSlot>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// Entries stamped with the current epoch.
    live: usize,
}

impl GlobalTable {
    const MIN_SLOTS: usize = 64;

    #[inline]
    fn home(&self, addr: u64) -> usize {
        (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Forget every entry: they all belong to finished epochs.
    #[inline]
    fn new_epoch(&mut self) {
        self.live = 0;
    }

    /// The record for `addr` in `epoch`, claimed fresh if absent.
    #[inline]
    fn entry(&mut self, addr: u64, epoch: u64) -> &mut SlotState {
        // Keep the load factor at or below 1/2 so probe runs stay short.
        if (self.live + 1) * 2 > self.slots.len() {
            self.grow(epoch);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(addr);
        loop {
            let slot = &self.slots[i];
            if slot.state.epoch != epoch {
                self.live += 1;
                self.slots[i] = GlobalSlot {
                    addr,
                    state: SlotState::fresh(epoch),
                };
                break;
            }
            if slot.addr == addr {
                break;
            }
            i = (i + 1) & mask;
        }
        &mut self.slots[i].state
    }

    #[cold]
    fn grow(&mut self, epoch: u64) {
        let len = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let old = std::mem::replace(
            &mut self.slots,
            vec![
                GlobalSlot {
                    addr: 0,
                    state: SlotState::FRESH,
                };
                len
            ],
        );
        self.shift = u64::BITS - len.trailing_zeros();
        let mask = len - 1;
        for slot in old.into_iter().filter(|s| s.state.epoch == epoch) {
            let mut i = self.home(slot.addr);
            while self.slots[i].state.epoch == epoch {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

/// The race detector: shared-word and global-word access tables for the
/// current barrier phase, plus running statistics. One tracker lives in
/// each worker's block arena and is [`reset`](RaceTracker::reset) per
/// block, so the tables keep their allocations across blocks.
#[derive(Debug)]
pub(crate) struct RaceTracker {
    /// Stamp of the current phase, monotone across every block this
    /// tracker has served (so a block reset is an epoch bump too).
    epoch: u64,
    /// The current block's phase number (1-based), for diagnostics.
    phase: u64,
    /// Dense table over the block's shared words, epoch-stamped.
    shared: Vec<SlotState>,
    /// Sparse table over the global byte addresses the block touched
    /// with plain accesses this phase.
    global: GlobalTable,
    /// Conflict checks performed (one per tracked access).
    pub checks: u64,
    /// Races found (the block poisons on the first, so 0 or 1).
    pub races: u64,
}

impl Default for RaceTracker {
    fn default() -> Self {
        RaceTracker {
            epoch: 1,
            phase: 1,
            shared: Vec::new(),
            global: GlobalTable::default(),
            checks: 0,
            races: 0,
        }
    }
}

impl RaceTracker {
    #[cfg(test)]
    pub fn new(shared_words: usize) -> Self {
        let mut t = RaceTracker::default();
        t.reset(shared_words);
        t
    }

    /// Start a new block with `shared_words` words of shared memory: no
    /// record of an earlier block survives, and phases count from 1.
    pub fn reset(&mut self, shared_words: usize) {
        self.epoch += 1;
        self.phase = 1;
        // Kept entries carry older epochs, so they read as empty.
        self.shared.resize(shared_words, SlotState::FRESH);
        self.global.new_epoch();
        self.checks = 0;
        self.races = 0;
    }

    /// Advance past a barrier: all access records of the finished phase
    /// become irrelevant.
    pub fn end_phase(&mut self) {
        self.epoch += 1;
        self.phase += 1;
        self.global.new_epoch();
    }

    /// Check one shared-memory access. Returns the error to poison the
    /// block with on conflict.
    pub fn check_shared(&mut self, lane: u32, idx: usize, access: Access) -> Option<SimError> {
        self.checks += 1;
        let epoch = self.epoch;
        let slot = &mut self.shared[idx];
        if slot.epoch != epoch {
            *slot = SlotState::fresh(epoch);
        }
        let (other, read_write) = slot.check(lane, access)?;
        self.races += 1;
        let kind = if read_write {
            RaceKind::SharedReadWrite
        } else {
            RaceKind::SharedWriteWrite
        };
        Some(SimError::DataRace {
            addr: idx as u64,
            kind,
            lanes: (other, lane),
            pc_hint: SourceLoc::Shared {
                phase: self.phase,
                idx,
            }
            .to_string(),
        })
    }

    /// Check one plain global-memory access (`addr` is the flat byte
    /// address; `buffer`/`idx` only feed the diagnostic).
    pub fn check_global(
        &mut self,
        lane: u32,
        addr: u64,
        buffer: &str,
        idx: usize,
        access: Access,
    ) -> Option<SimError> {
        self.checks += 1;
        let (other, read_write) = self.global.entry(addr, self.epoch).check(lane, access)?;
        self.races += 1;
        let kind = if read_write {
            RaceKind::GlobalReadWrite
        } else {
            RaceKind::GlobalWriteWrite
        };
        Some(SimError::DataRace {
            addr,
            kind,
            lanes: (other, lane),
            pc_hint: SourceLoc::Global {
                phase: self.phase,
                buffer,
                idx,
            }
            .to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: Access = Access::Write {
        changes_value: true,
    };
    const SILENT: Access = Access::Write {
        changes_value: false,
    };

    #[test]
    fn same_lane_never_conflicts() {
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(3, 0, W).is_none());
        assert!(t.check_shared(3, 0, Access::Read).is_none());
        assert!(t.check_shared(3, 0, W).is_none());
        assert!(t.check_shared(3, 0, Access::Atomic).is_none());
        assert_eq!(t.races, 0);
        assert_eq!(t.checks, 4);
    }

    #[test]
    fn foreign_read_after_write_is_a_race() {
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(0, 2, W).is_none());
        let err = t.check_shared(1, 2, Access::Read).unwrap();
        match err {
            SimError::DataRace {
                addr, kind, lanes, ..
            } => {
                assert_eq!(addr, 2);
                assert_eq!(kind, RaceKind::SharedReadWrite);
                assert_eq!(lanes, (0, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn foreign_write_after_read_is_a_race_too() {
        // The symmetric case the eager writer-table approach missed: the
        // read executes first, the conflicting write later.
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(5, 1, Access::Read).is_none());
        let err = t.check_shared(9, 1, W).unwrap();
        assert!(matches!(
            err,
            SimError::DataRace {
                kind: RaceKind::SharedReadWrite,
                lanes: (5, 9),
                ..
            }
        ));
    }

    #[test]
    fn conflicting_writes_race_but_silent_stores_do_not() {
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(0, 0, W).is_none());
        assert!(t.check_shared(1, 0, SILENT).is_none(), "same-value store");
        assert!(matches!(
            t.check_shared(2, 0, W),
            Some(SimError::DataRace {
                kind: RaceKind::SharedWriteWrite,
                ..
            })
        ));
    }

    #[test]
    fn atomics_synchronize_with_each_other_but_not_with_plain_ops() {
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(0, 3, Access::Atomic).is_none());
        assert!(t.check_shared(1, 3, Access::Atomic).is_none());
        // Plain write racing the atomics.
        assert!(matches!(
            t.check_shared(2, 3, W),
            Some(SimError::DataRace {
                kind: RaceKind::SharedWriteWrite,
                ..
            })
        ));
    }

    #[test]
    fn read_of_atomically_updated_word_is_a_race() {
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(7, 0, Access::Atomic).is_none());
        // Another lane's atomic after a foreign plain read conflicts.
        let mut t2 = RaceTracker::new(4);
        assert!(t2.check_shared(0, 0, Access::Read).is_none());
        assert!(matches!(
            t2.check_shared(1, 0, Access::Atomic),
            Some(SimError::DataRace {
                kind: RaceKind::SharedReadWrite,
                ..
            })
        ));
        drop(t);
    }

    #[test]
    fn barrier_clears_conflicts() {
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(0, 2, W).is_none());
        t.end_phase();
        // Lane 1 may read what lane 0 wrote before the barrier...
        assert!(t.check_shared(1, 2, Access::Read).is_none());
        // ...but a conflicting write in the *new* phase races with that
        // new read, proving the fresh phase tracks its own accesses.
        assert!(t.check_shared(2, 2, W).is_some());
        assert_eq!(t.races, 1);
    }

    #[test]
    fn global_barrier_clears_conflicts() {
        let mut t = RaceTracker::new(0);
        assert!(t.check_global(0, 512, "buf", 0, W).is_none());
        t.end_phase();
        assert!(t.check_global(1, 512, "buf", 0, Access::Read).is_none());
        assert!(matches!(
            t.check_global(2, 512, "buf", 0, W),
            Some(SimError::DataRace {
                kind: RaceKind::GlobalReadWrite,
                lanes: (1, 2),
                ..
            })
        ));
        assert_eq!(t.races, 1);
    }

    #[test]
    fn grown_global_table_still_catches_the_first_address() {
        let mut t = RaceTracker::new(0);
        let words = 1500u64;
        for i in 0..words {
            assert!(t
                .check_global(0, 4096 + 4 * i, "buf", i as usize, W)
                .is_none());
        }
        assert!(
            t.global.slots.len() > GlobalTable::MIN_SLOTS,
            "the table must have grown past its first allocation"
        );
        assert_eq!(t.global.live, words as usize);
        // The very first record survived every re-insertion.
        let err = t.check_global(1, 4096, "buf", 0, Access::Read).unwrap();
        assert!(matches!(
            err,
            SimError::DataRace {
                addr: 4096,
                kind: RaceKind::GlobalReadWrite,
                lanes: (0, 1),
                ..
            }
        ));
        // And so did the last one.
        let last = 4096 + 4 * (words - 1);
        assert!(t.check_global(2, last, "buf", 0, W).is_some());
    }

    #[test]
    fn reused_tracker_forgets_the_previous_block() {
        let mut t = RaceTracker::new(4);
        assert!(t.check_shared(0, 2, W).is_none());
        assert!(t.check_global(0, 4096, "buf", 0, W).is_none());
        t.end_phase();
        assert!(t.check_global(0, 8192, "buf", 1, W).is_none());
        t.reset(4);
        assert_eq!((t.checks, t.races), (0, 0));
        // Another lane of the next block touches the same words freely.
        assert!(t.check_shared(1, 2, Access::Read).is_none());
        assert!(t.check_global(1, 4096, "buf", 0, Access::Read).is_none());
        assert!(t.check_global(1, 8192, "buf", 1, Access::Read).is_none());
        assert_eq!(t.races, 0);
        // Diagnostics number the new block's phases from 1 again.
        match t.check_global(2, 4096, "buf", 0, W) {
            Some(SimError::DataRace { pc_hint, .. }) => {
                assert_eq!(pc_hint, "phase 1, `buf`[0]");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn global_addresses_tracked_sparsely() {
        let mut t = RaceTracker::new(0);
        assert!(t.check_global(0, 4096, "buf", 0, W).is_none());
        let err = t.check_global(1, 4096, "buf", 0, W).unwrap();
        match err {
            SimError::DataRace {
                addr,
                kind,
                lanes,
                pc_hint,
            } => {
                assert_eq!(addr, 4096);
                assert_eq!(kind, RaceKind::GlobalWriteWrite);
                assert_eq!(lanes, (0, 1));
                assert!(pc_hint.contains("`buf`[0]"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
