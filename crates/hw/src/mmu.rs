//! LEON3-style three-level page-table MMU: the hardware mechanism spatial
//! partitioning is mapped onto.
//!
//! "The high-level abstract spatial partitioning description needs to be
//! mapped in runtime to the specific processor memory protection
//! mechanisms… An example of such mapping is the Gaisler SPARC V8 LEON3
//! three-level page-based MMU core" (Sect. 2.1, Fig. 3). This module models
//! that core:
//!
//! * a **context table** selecting one address space per partition;
//! * three table levels covering a 32-bit virtual space — level 1 indexes
//!   256 × 16 MiB regions, level 2 64 × 256 KiB regions, level 3
//!   64 × 4 KiB pages (the SPARC V8 reference MMU split 8/6/6 + 12-bit
//!   page offset);
//! * leaf entries allowed at **any** level, so large ranges map with one
//!   16 MiB or 256 KiB entry as on the real hardware;
//! * SPARC-style access-permission codes checked against the access kind
//!   and privilege level, raising [`MmuFault::Protection`] on violation —
//!   the event AIR health monitoring classifies as a memory protection
//!   violation;
//! * no translation cache: every access takes the three-level walk and
//!   its permission check, so a partition switch needs no flush and no
//!   translation can outlive its mapping. In the fault campaigns a
//!   partition switch separates almost every pair of translations, so a
//!   cache flushed on each switch would serve no hits.
//!
//! The tables are fixed arrays indexed by address bits, as on the LEON3:
//! each context owns a 256-entry root, and the 64-entry level-2 and
//! level-3 tables of all contexts live in one arena per [`Mmu`], linked by
//! `u32` index. An entry is invalid, a leaf, or a table link, so the walk
//! is at most three array loads and hashes nothing. Addresses at or above
//! 2^32 are outside the space: they translate to
//! [`MmuFault::Unmapped`], and `map`/`unmap` reject ranges reaching past
//! it with [`MapError::OutOfVirtualSpace`].

use std::fmt;

/// Page size at level 3 (4 KiB) and required mapping granularity.
pub const PAGE_SIZE: u64 = 4096;
/// Region covered by one level-2 entry (256 KiB).
pub const L2_REGION: u64 = 64 * PAGE_SIZE;
/// Region covered by one level-1 entry (16 MiB).
pub const L1_REGION: u64 = 64 * L2_REGION;

/// An MMU context: one per partition address space, selected by the
/// context register on partition dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct MmuContextId(pub u32);

impl fmt::Display for MmuContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mmu-ctx{}", self.0)
    }
}

/// The kind of memory access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("read"),
            AccessKind::Write => f.write_str("write"),
            AccessKind::Execute => f.write_str("execute"),
        }
    }
}

/// Privilege level of the access (SPARC supervisor bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Privilege {
    /// Application code.
    User,
    /// POS kernel or AIR PMK code.
    Supervisor,
}

/// Permission triple for one privilege level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AccessPermissions {
    /// Data reads permitted.
    pub read: bool,
    /// Data writes permitted.
    pub write: bool,
    /// Instruction fetches permitted.
    pub execute: bool,
}

impl AccessPermissions {
    /// No access at all.
    pub const NONE: Self = Self {
        read: false,
        write: false,
        execute: false,
    };
    /// Read-only.
    pub const R: Self = Self {
        read: true,
        write: false,
        execute: false,
    };
    /// Read + write.
    pub const RW: Self = Self {
        read: true,
        write: true,
        execute: false,
    };
    /// Read + execute.
    pub const RX: Self = Self {
        read: true,
        write: false,
        execute: true,
    };
    /// Read + write + execute.
    pub const RWX: Self = Self {
        read: true,
        write: true,
        execute: true,
    };

    /// Whether `kind` is permitted.
    pub fn allows(self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.read,
            AccessKind::Write => self.write,
            AccessKind::Execute => self.execute,
        }
    }
}

/// Per-page permissions for both privilege levels, as encoded by the SPARC
/// V8 `ACC` field of a page table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageFlags {
    /// Permissions for user-level accesses.
    pub user: AccessPermissions,
    /// Permissions for supervisor-level accesses.
    pub supervisor: AccessPermissions,
}

impl PageFlags {
    /// Decodes a SPARC V8 reference-MMU `ACC` code (0–7).
    ///
    /// | ACC | user | supervisor |
    /// |-----|------|------------|
    /// | 0 | R | R | | 1 | RW | RW | | 2 | RX | RX | | 3 | RWX | RWX |
    /// | 4 | X | X | | 5 | R | RW | | 6 | — | RX | | 7 | — | RWX |
    ///
    /// # Panics
    ///
    /// Panics if `acc > 7`.
    pub fn from_sparc_acc(acc: u8) -> Self {
        let x = AccessPermissions {
            read: false,
            write: false,
            execute: true,
        };
        match acc {
            0 => Self {
                user: AccessPermissions::R,
                supervisor: AccessPermissions::R,
            },
            1 => Self {
                user: AccessPermissions::RW,
                supervisor: AccessPermissions::RW,
            },
            2 => Self {
                user: AccessPermissions::RX,
                supervisor: AccessPermissions::RX,
            },
            3 => Self {
                user: AccessPermissions::RWX,
                supervisor: AccessPermissions::RWX,
            },
            4 => Self {
                user: x,
                supervisor: x,
            },
            5 => Self {
                user: AccessPermissions::R,
                supervisor: AccessPermissions::RW,
            },
            6 => Self {
                user: AccessPermissions::NONE,
                supervisor: AccessPermissions::RX,
            },
            7 => Self {
                user: AccessPermissions::NONE,
                supervisor: AccessPermissions::RWX,
            },
            other => panic!("SPARC ACC code out of range: {other}"), // lint: allow(panic) -- 3-bit field, values 0..=7 are exhaustive; hardware halt
        }
    }

    /// Permissions applying to accesses at `privilege`.
    pub fn for_privilege(self, privilege: Privilege) -> AccessPermissions {
        match privilege {
            Privilege::User => self.user,
            Privilege::Supervisor => self.supervisor,
        }
    }
}

/// A translation or protection fault, delivered to the PMK as a trap and
/// routed to health monitoring as a (partition-level) memory protection
/// violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MmuFault {
    /// No valid mapping covers the virtual address.
    Unmapped {
        /// Faulting virtual address.
        va: u64,
    },
    /// A mapping exists but forbids this access.
    Protection {
        /// Faulting virtual address.
        va: u64,
        /// The attempted access kind.
        kind: AccessKind,
        /// The privilege level of the attempt.
        privilege: Privilege,
    },
    /// The context register holds an id with no context table entry.
    InvalidContext {
        /// The unknown context.
        context: MmuContextId,
    },
}

impl fmt::Display for MmuFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmuFault::Unmapped { va } => write!(f, "unmapped virtual address {va:#x}"),
            MmuFault::Protection {
                va,
                kind,
                privilege,
            } => write!(
                f,
                "protection violation: {kind} at {va:#x} from {privilege:?} level"
            ),
            MmuFault::InvalidContext { context } => {
                write!(f, "invalid MMU context {context}")
            }
        }
    }
}

impl std::error::Error for MmuFault {}

/// Errors from establishing mappings (integration-time mistakes, distinct
/// from runtime [`MmuFault`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MapError {
    /// Address or size not aligned to [`PAGE_SIZE`].
    Misaligned {
        /// The misaligned value.
        value: u64,
    },
    /// The range overlaps an existing mapping in the same context.
    Overlap {
        /// Start of the conflicting page.
        va: u64,
    },
    /// The context does not exist.
    InvalidContext {
        /// The unknown context.
        context: MmuContextId,
    },
    /// The range wraps past the top of the 32-bit virtual space.
    OutOfVirtualSpace,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Misaligned { value } => {
                write!(f, "value {value:#x} is not 4 KiB-aligned")
            }
            MapError::Overlap { va } => {
                write!(f, "mapping overlaps existing page at {va:#x}")
            }
            MapError::InvalidContext { context } => {
                write!(f, "invalid MMU context {context}")
            }
            MapError::OutOfVirtualSpace => f.write_str("range exceeds the 32-bit virtual space"),
        }
    }
}

impl std::error::Error for MapError {}

/// A leaf page-table entry: physical base plus permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pte {
    pa_base: u64,
    flags: PageFlags,
}

/// One slot of a page table, as in the SPARC V8 reference MMU: invalid,
/// a leaf (PTE) or a link to the next-level table (PTD).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// Nothing is mapped under this slot.
    Invalid,
    /// A leaf covering the slot's whole region.
    Leaf(Pte),
    /// The index of a level-2 or level-3 table in [`Mmu::tables`].
    Table(u32),
}

/// Entries of a level-1 (root) table: one per 16 MiB region.
const ROOT_ENTRIES: usize = 256;
/// Entries of a level-2 or level-3 table.
const TABLE_ENTRIES: usize = 64;
/// The top of the 32-bit virtual space.
const VA_SPACE: u64 = ROOT_ENTRIES as u64 * L1_REGION;

/// A level-1 table: one per context.
type RootTable = [Entry; ROOT_ENTRIES];
/// A level-2 or level-3 table.
type Table = [Entry; TABLE_ENTRIES];

/// The three-level software MMU.
///
/// # Examples
///
/// ```
/// use air_hw::mmu::{AccessKind, Mmu, PageFlags, Privilege, PAGE_SIZE};
///
/// let mut mmu = Mmu::new();
/// let ctx = mmu.create_context();
/// mmu.map(ctx, 0x4000_0000, 0x10_0000, PAGE_SIZE, PageFlags::from_sparc_acc(1))?;
/// let pa = mmu.translate(ctx, 0x4000_0010, AccessKind::Read, Privilege::User)?;
/// assert_eq!(pa, 0x10_0010);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mmu {
    /// Root tables by context id: ids are handed out in order and never
    /// retired, so context `c` lives at index `c.0`.
    roots: Vec<RootTable>,
    /// The level-2 and level-3 tables of every context, linked from the
    /// roots and from each other by [`Entry::Table`] index.
    tables: Vec<Table>,
    /// Indices of cleared tables in `tables`, reused before it grows.
    free: Vec<u32>,
    translations: u64,
    faults: u64,
}

impl Default for Mmu {
    fn default() -> Self {
        Self::new()
    }
}

impl Mmu {
    /// Creates an MMU with no contexts.
    pub fn new() -> Self {
        Self {
            roots: Vec::new(),
            tables: Vec::new(),
            free: Vec::new(),
            translations: 0,
            faults: 0,
        }
    }

    /// Allocates a fresh, empty context (one per partition).
    pub fn create_context(&mut self) -> MmuContextId {
        let id = MmuContextId(self.roots.len() as u32);
        self.roots.push([Entry::Invalid; ROOT_ENTRIES]);
        id
    }

    /// Whether `context` exists.
    pub fn has_context(&self, context: MmuContextId) -> bool {
        (context.0 as usize) < self.roots.len()
    }

    /// Number of translations performed.
    pub fn translations(&self) -> u64 {
        self.translations
    }

    /// Number of faults raised.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Maps `[va, va+size)` to `[pa, pa+size)` in `context` with `flags`.
    ///
    /// Greedily uses 16 MiB level-1 and 256 KiB level-2 leaf entries where
    /// alignment allows, 4 KiB pages otherwise — as an integration tool
    /// would when loading the spatial-partitioning descriptors.
    ///
    /// # Errors
    ///
    /// [`MapError`] on misalignment, overlap with an existing mapping,
    /// unknown context, or virtual-space overflow.
    pub fn map(
        &mut self,
        context: MmuContextId,
        va: u64,
        pa: u64,
        size: u64,
        flags: PageFlags,
    ) -> Result<(), MapError> {
        for value in [va, pa, size] {
            if value % PAGE_SIZE != 0 {
                return Err(MapError::Misaligned { value });
            }
        }
        let end = range_end(va, size)?;
        let c = context.0 as usize;
        if c >= self.roots.len() {
            return Err(MapError::InvalidContext { context });
        }
        // Pre-check the whole range for overlaps so the map is atomic.
        let mut cur = va;
        while cur < end {
            if walk(&self.roots[c], &self.tables, cur).is_some() {
                return Err(MapError::Overlap { va: cur });
            }
            cur += PAGE_SIZE;
        }
        let mut cur_va = va;
        let mut cur_pa = pa;
        while cur_va < end {
            let remaining = end - cur_va;
            let (idx1, idx2, idx3) = split(cur_va);
            let leaf = Entry::Leaf(Pte {
                pa_base: cur_pa,
                flags,
            });
            let step = if cur_va.is_multiple_of(L1_REGION)
                && cur_pa.is_multiple_of(L1_REGION)
                && remaining >= L1_REGION
            {
                let old = std::mem::replace(&mut self.roots[c][idx1], leaf);
                self.release(old);
                L1_REGION
            } else {
                let l2 = self.table_of(self.roots[c][idx1]);
                self.roots[c][idx1] = Entry::Table(l2);
                let l2 = l2 as usize;
                if cur_va.is_multiple_of(L2_REGION)
                    && cur_pa.is_multiple_of(L2_REGION)
                    && remaining >= L2_REGION
                {
                    let old = std::mem::replace(&mut self.tables[l2][idx2], leaf);
                    self.release(old);
                    L2_REGION
                } else {
                    let l3 = self.table_of(self.tables[l2][idx2]);
                    self.tables[l2][idx2] = Entry::Table(l3);
                    self.tables[l3 as usize][idx3] = leaf;
                    PAGE_SIZE
                }
            };
            cur_va += step;
            cur_pa += step;
        }
        Ok(())
    }

    /// The table `entry` links to; a fresh empty one when it links none.
    /// The caller stores the link.
    fn table_of(&mut self, entry: Entry) -> u32 {
        if let Entry::Table(t) = entry {
            return t;
        }
        if let Some(t) = self.free.pop() {
            return t;
        }
        self.tables.push([Entry::Invalid; TABLE_ENTRIES]);
        (self.tables.len() - 1) as u32
    }

    /// Returns the table `old` linked to, and every table below it, to the
    /// free list, cleared. `old` was overwritten by a large leaf; the
    /// overlap pre-check guarantees nothing under it was mapped.
    fn release(&mut self, old: Entry) {
        if let Entry::Table(t) = old {
            let table = std::mem::replace(
                &mut self.tables[t as usize],
                [Entry::Invalid; TABLE_ENTRIES],
            );
            for entry in table {
                self.release(entry);
            }
            self.free.push(t);
        }
    }

    /// Removes every mapping of `[va, va+size)` in `context`.
    ///
    /// Pages in the range that are not mapped are skipped. Large leaf
    /// entries are removed when the range covers their start — partial
    /// unmapping of a 16 MiB/256 KiB leaf is not supported (the descriptor
    /// loader always unmaps what it mapped). Emptied tables stay linked, so
    /// a reload maps into the tables it unmapped from.
    ///
    /// # Errors
    ///
    /// [`MapError::Misaligned`] for unaligned bounds;
    /// [`MapError::OutOfVirtualSpace`] when the range ends past the 32-bit
    /// virtual space; [`MapError::InvalidContext`] when `context` does not
    /// exist.
    pub fn unmap(&mut self, context: MmuContextId, va: u64, size: u64) -> Result<(), MapError> {
        for value in [va, size] {
            if value % PAGE_SIZE != 0 {
                return Err(MapError::Misaligned { value });
            }
        }
        let end = range_end(va, size)?;
        let root = self
            .roots
            .get_mut(context.0 as usize)
            .ok_or(MapError::InvalidContext { context })?;
        let tables = &mut self.tables;
        let mut cur = va;
        while cur < end {
            let (idx1, idx2, idx3) = split(cur);
            cur = match root[idx1] {
                Entry::Leaf(_) if cur.is_multiple_of(L1_REGION) => {
                    root[idx1] = Entry::Invalid;
                    cur + L1_REGION
                }
                Entry::Table(l2) => match tables[l2 as usize][idx2] {
                    Entry::Leaf(_) if cur.is_multiple_of(L2_REGION) => {
                        tables[l2 as usize][idx2] = Entry::Invalid;
                        cur + L2_REGION
                    }
                    Entry::Table(l3) => {
                        tables[l3 as usize][idx3] = Entry::Invalid;
                        cur + PAGE_SIZE
                    }
                    // Unmapped, or inside a 256 KiB leaf the range does
                    // not start at.
                    _ => cur + PAGE_SIZE,
                },
                // Unmapped, or inside a 16 MiB leaf the range does not
                // start at.
                _ => cur + PAGE_SIZE,
            };
        }
        Ok(())
    }

    /// Translates virtual address `va` in `context` for an access of
    /// `kind` at `privilege`, returning the physical address: the
    /// three-level walk, then the permission check of the leaf it ends at.
    ///
    /// # Errors
    ///
    /// [`MmuFault`] when the context is invalid, the address unmapped (any
    /// address at or above 2^32 is), or the page's permissions forbid the
    /// access — the PMK routes the fault to health monitoring.
    pub fn translate(
        &mut self,
        context: MmuContextId,
        va: u64,
        kind: AccessKind,
        privilege: Privilege,
    ) -> Result<u64, MmuFault> {
        self.translations += 1;
        let Some(root) = self.roots.get(context.0 as usize) else {
            self.faults += 1;
            return Err(MmuFault::InvalidContext { context });
        };
        let Some((pte, region_base)) = walk(root, &self.tables, va) else {
            self.faults += 1;
            return Err(MmuFault::Unmapped { va });
        };
        if !pte.flags.for_privilege(privilege).allows(kind) {
            self.faults += 1;
            return Err(MmuFault::Protection {
                va,
                kind,
                privilege,
            });
        }
        Ok(pte.pa_base + (va - region_base))
    }
}

/// The end of `[va, va+size)`, which must not pass the 32-bit space.
fn range_end(va: u64, size: u64) -> Result<u64, MapError> {
    va.checked_add(size)
        .filter(|&end| end <= VA_SPACE)
        .ok_or(MapError::OutOfVirtualSpace)
}

/// Splits a 32-bit virtual address into the three table indices
/// (8 / 6 / 6 bits; the low 12 bits are the page offset). Callers keep
/// `va` below [`VA_SPACE`]: the higher bits are dropped.
fn split(va: u64) -> (usize, usize, usize) {
    let idx1 = ((va >> 24) & 0xff) as usize;
    let idx2 = ((va >> 18) & 0x3f) as usize;
    let idx3 = ((va >> 12) & 0x3f) as usize;
    (idx1, idx2, idx3)
}

/// Walks the tables for `va`; returns the leaf PTE and the base VA of the
/// region it covers. Three array loads at most.
fn walk(root: &RootTable, tables: &[Table], va: u64) -> Option<(Pte, u64)> {
    if va >= VA_SPACE {
        return None;
    }
    let (idx1, idx2, idx3) = split(va);
    let l2 = match root[idx1] {
        Entry::Leaf(pte) => return Some((pte, va & !(L1_REGION - 1))),
        Entry::Table(l2) => l2,
        Entry::Invalid => return None,
    };
    let l3 = match tables[l2 as usize][idx2] {
        Entry::Leaf(pte) => return Some((pte, va & !(L2_REGION - 1))),
        Entry::Table(l3) => l3,
        Entry::Invalid => return None,
    };
    match tables[l3 as usize][idx3] {
        Entry::Leaf(pte) => Some((pte, va & !(PAGE_SIZE - 1))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RW: u8 = 1; // SPARC ACC 1: user RW, supervisor RW

    #[test]
    fn single_page_translation() {
        let mut mmu = Mmu::new();
        let ctx = mmu.create_context();
        mmu.map(
            ctx,
            0x1000,
            0x8000,
            PAGE_SIZE,
            PageFlags::from_sparc_acc(RW),
        )
        .unwrap();
        assert_eq!(
            mmu.translate(ctx, 0x1abc, AccessKind::Read, Privilege::User)
                .unwrap(),
            0x8abc
        );
    }

    #[test]
    fn unmapped_address_faults() {
        let mut mmu = Mmu::new();
        let ctx = mmu.create_context();
        assert_eq!(
            mmu.translate(ctx, 0x0dea_d000, AccessKind::Read, Privilege::User),
            Err(MmuFault::Unmapped { va: 0x0dea_d000 })
        );
        assert_eq!(mmu.faults(), 1);
    }

    #[test]
    fn contexts_are_isolated() {
        // The spatial-partitioning property at hardware level: a mapping in
        // one context is invisible from another.
        let mut mmu = Mmu::new();
        let a = mmu.create_context();
        let b = mmu.create_context();
        mmu.map(a, 0x1000, 0x8000, PAGE_SIZE, PageFlags::from_sparc_acc(RW))
            .unwrap();
        assert!(mmu
            .translate(a, 0x1000, AccessKind::Read, Privilege::User)
            .is_ok());
        assert_eq!(
            mmu.translate(b, 0x1000, AccessKind::Read, Privilege::User),
            Err(MmuFault::Unmapped { va: 0x1000 })
        );
        // Same VA mapped in both, alternating contexts: every translation
        // sees its own context's frame.
        mmu.map(b, 0x1000, 0x9000, PAGE_SIZE, PageFlags::from_sparc_acc(RW))
            .unwrap();
        for _ in 0..4 {
            assert_eq!(
                mmu.translate(a, 0x1000, AccessKind::Read, Privilege::User),
                Ok(0x8000)
            );
            assert_eq!(
                mmu.translate(b, 0x1000, AccessKind::Read, Privilege::User),
                Ok(0x9000)
            );
        }
    }

    #[test]
    fn protection_codes_enforced() {
        let mut mmu = Mmu::new();
        let ctx = mmu.create_context();
        // ACC 6: user none, supervisor RX — a POS kernel text segment.
        mmu.map(
            ctx,
            0x10_0000,
            0x20_0000,
            PAGE_SIZE,
            PageFlags::from_sparc_acc(6),
        )
        .unwrap();
        assert!(matches!(
            mmu.translate(ctx, 0x10_0000, AccessKind::Read, Privilege::User),
            Err(MmuFault::Protection { .. })
        ));
        assert!(mmu
            .translate(ctx, 0x10_0000, AccessKind::Execute, Privilege::Supervisor)
            .is_ok());
        assert!(matches!(
            mmu.translate(ctx, 0x10_0000, AccessKind::Write, Privilege::Supervisor),
            Err(MmuFault::Protection { .. })
        ));
    }

    #[test]
    fn acc5_read_only_for_user_rw_for_supervisor() {
        let mut mmu = Mmu::new();
        let ctx = mmu.create_context();
        mmu.map(ctx, 0x2000, 0x3000, PAGE_SIZE, PageFlags::from_sparc_acc(5))
            .unwrap();
        assert!(mmu
            .translate(ctx, 0x2000, AccessKind::Read, Privilege::User)
            .is_ok());
        assert!(matches!(
            mmu.translate(ctx, 0x2000, AccessKind::Write, Privilege::User),
            Err(MmuFault::Protection { .. })
        ));
        assert!(mmu
            .translate(ctx, 0x2000, AccessKind::Write, Privilege::Supervisor)
            .is_ok());
        // A repeated access is checked again: the earlier successes grant
        // nothing.
        assert!(mmu
            .translate(ctx, 0x2000, AccessKind::Read, Privilege::User)
            .is_ok());
        assert!(matches!(
            mmu.translate(ctx, 0x2000, AccessKind::Write, Privilege::User),
            Err(MmuFault::Protection { .. })
        ));
    }

    #[test]
    fn large_leaves_used_when_aligned() {
        let mut mmu = Mmu::new();
        let ctx = mmu.create_context();
        // 16 MiB aligned and sized: one L1 leaf should cover it.
        mmu.map(
            ctx,
            L1_REGION,
            2 * L1_REGION,
            L1_REGION,
            PageFlags::from_sparc_acc(RW),
        )
        .unwrap();
        let pa = mmu
            .translate(ctx, L1_REGION + 0x1234, AccessKind::Read, Privilege::User)
            .unwrap();
        assert_eq!(pa, 2 * L1_REGION + 0x1234);
        // And the end of the region still translates.
        let pa = mmu
            .translate(
                ctx,
                L1_REGION + L1_REGION - 1,
                AccessKind::Read,
                Privilege::User,
            )
            .unwrap();
        assert_eq!(pa, 2 * L1_REGION + L1_REGION - 1);
    }

    #[test]
    fn mixed_granularity_range() {
        let mut mmu = Mmu::new();
        let ctx = mmu.create_context();
        // 256 KiB + one page, starting 256 KiB-aligned: one L2 leaf + one L3.
        mmu.map(
            ctx,
            L2_REGION,
            0x100_0000,
            L2_REGION + PAGE_SIZE,
            PageFlags::from_sparc_acc(RW),
        )
        .unwrap();
        assert_eq!(
            mmu.translate(ctx, L2_REGION, AccessKind::Read, Privilege::User)
                .unwrap(),
            0x100_0000
        );
        assert_eq!(
            mmu.translate(ctx, 2 * L2_REGION, AccessKind::Read, Privilege::User)
                .unwrap(),
            0x100_0000 + L2_REGION
        );
        assert!(mmu
            .translate(
                ctx,
                2 * L2_REGION + PAGE_SIZE,
                AccessKind::Read,
                Privilege::User
            )
            .is_err());
    }

    #[test]
    fn overlap_rejected_atomically() {
        let mut mmu = Mmu::new();
        let ctx = mmu.create_context();
        mmu.map(
            ctx,
            0x4000,
            0x8000,
            PAGE_SIZE,
            PageFlags::from_sparc_acc(RW),
        )
        .unwrap();
        // Second mapping starts one page earlier and would collide on page 2.
        let err = mmu
            .map(
                ctx,
                0x3000,
                0x9000,
                2 * PAGE_SIZE,
                PageFlags::from_sparc_acc(RW),
            )
            .unwrap_err();
        assert_eq!(err, MapError::Overlap { va: 0x4000 });
        // Atomicity: the non-colliding first page was not installed.
        assert!(mmu
            .translate(ctx, 0x3000, AccessKind::Read, Privilege::User)
            .is_err());
    }

    #[test]
    fn misalignment_rejected() {
        let mut mmu = Mmu::new();
        let ctx = mmu.create_context();
        assert_eq!(
            mmu.map(ctx, 0x100, 0, PAGE_SIZE, PageFlags::from_sparc_acc(RW)),
            Err(MapError::Misaligned { value: 0x100 })
        );
        assert_eq!(
            mmu.map(ctx, 0, 0x10, PAGE_SIZE, PageFlags::from_sparc_acc(RW)),
            Err(MapError::Misaligned { value: 0x10 })
        );
    }

    #[test]
    fn virtual_space_bound() {
        let mut mmu = Mmu::new();
        let ctx = mmu.create_context();
        assert_eq!(
            mmu.map(
                ctx,
                (1 << 32) - PAGE_SIZE,
                0,
                2 * PAGE_SIZE,
                PageFlags::from_sparc_acc(RW)
            ),
            Err(MapError::OutOfVirtualSpace)
        );
    }

    #[test]
    fn unmap_removes_translation() {
        let mut mmu = Mmu::new();
        let ctx = mmu.create_context();
        mmu.map(
            ctx,
            0x5000,
            0x6000,
            2 * PAGE_SIZE,
            PageFlags::from_sparc_acc(RW),
        )
        .unwrap();
        assert!(mmu
            .translate(ctx, 0x5000, AccessKind::Read, Privilege::User)
            .is_ok());
        mmu.unmap(ctx, 0x5000, PAGE_SIZE).unwrap();
        // The very next access faults: nothing outlives the mapping.
        assert_eq!(
            mmu.translate(ctx, 0x5000, AccessKind::Read, Privilege::User),
            Err(MmuFault::Unmapped { va: 0x5000 })
        );
        assert!(mmu
            .translate(ctx, 0x6000, AccessKind::Read, Privilege::User)
            .is_ok());
    }

    #[test]
    fn invalid_context_faults() {
        let mut mmu = Mmu::new();
        let ghost = MmuContextId(99);
        assert_eq!(
            mmu.translate(ghost, 0, AccessKind::Read, Privilege::User),
            Err(MmuFault::InvalidContext { context: ghost })
        );
        assert!(matches!(
            mmu.map(ghost, 0, 0, PAGE_SIZE, PageFlags::from_sparc_acc(RW)),
            Err(MapError::InvalidContext { .. })
        ));
    }

    #[test]
    fn stats_count_translations_and_faults() {
        let mut mmu = Mmu::new();
        let ctx = mmu.create_context();
        mmu.map(
            ctx,
            0x1000,
            0x1000,
            PAGE_SIZE,
            PageFlags::from_sparc_acc(RW),
        )
        .unwrap();
        let _ = mmu.translate(ctx, 0x1000, AccessKind::Read, Privilege::User);
        let _ = mmu.translate(ctx, 0x9000, AccessKind::Read, Privilege::User);
        assert_eq!(mmu.translations(), 2);
        assert_eq!(mmu.faults(), 1);
    }

    #[test]
    fn addresses_above_the_virtual_space_do_not_alias_low_pages() {
        let mut mmu = Mmu::new();
        let ctx = mmu.create_context();
        mmu.map(
            ctx,
            0x1000,
            0x8000,
            PAGE_SIZE,
            PageFlags::from_sparc_acc(RW),
        )
        .unwrap();
        // 0x1_0000_1010 shares its low 32 bits with the mapped page.
        assert_eq!(
            mmu.translate(ctx, 0x1_0000_1010, AccessKind::Write, Privilege::User),
            Err(MmuFault::Unmapped { va: 0x1_0000_1010 })
        );
        assert_eq!(
            mmu.translate(ctx, u64::MAX, AccessKind::Read, Privilege::Supervisor),
            Err(MmuFault::Unmapped { va: u64::MAX })
        );
        // A range running past 2^32 is refused whole: it used to wrap
        // around and remove the mapping at 0x1000.
        assert_eq!(
            mmu.unmap(ctx, 0xFFFF_F000, 0x3000),
            Err(MapError::OutOfVirtualSpace)
        );
        assert_eq!(
            mmu.unmap(ctx, 1 << 32, PAGE_SIZE),
            Err(MapError::OutOfVirtualSpace)
        );
        assert_eq!(
            mmu.unmap(ctx, u64::MAX - (PAGE_SIZE - 1), 2 * PAGE_SIZE),
            Err(MapError::OutOfVirtualSpace)
        );
        assert_eq!(
            mmu.translate(ctx, 0x1010, AccessKind::Write, Privilege::User),
            Ok(0x8010)
        );
        // The last page below the top is still reachable.
        let top_page = (1 << 32) - PAGE_SIZE;
        mmu.map(
            ctx,
            top_page,
            0x9000,
            PAGE_SIZE,
            PageFlags::from_sparc_acc(RW),
        )
        .unwrap();
        assert_eq!(
            mmu.translate(ctx, top_page + 0xfff, AccessKind::Read, Privilege::User),
            Ok(0x9fff)
        );
        mmu.unmap(ctx, top_page, PAGE_SIZE).unwrap();
        assert!(mmu
            .translate(ctx, top_page, AccessKind::Read, Privilege::User)
            .is_err());
    }

    /// The arena's length and how many of its tables are free.
    fn table_census(mmu: &Mmu) -> (usize, usize) {
        (mmu.tables.len(), mmu.free.len())
    }

    #[test]
    fn reload_cycles_keep_the_table_count_constant() {
        // The partition-restart sequence: revoke a page, then unmap and
        // remap every descriptor region (the standard application layout
        // of two partitions, plus one region mapped with a 256 KiB leaf).
        let regions: [(u64, u64); 6] = [
            (0x1000_0000, 0x8000),
            (0x1010_0000, 0x4000),
            (0x4000_0000, 0x4000),
            (0x5000_0000, 0x4000),
            (0x6000_0000, 0x2000),
            (0x7000_0000, L2_REGION),
        ];
        let mut mmu = Mmu::new();
        let contexts = [mmu.create_context(), mmu.create_context()];
        let load = |mmu: &mut Mmu, ctx: MmuContextId| {
            for (i, &(va, size)) in regions.iter().enumerate() {
                let pa = (1 + i as u64) * L1_REGION + u64::from(ctx.0) * L2_REGION;
                mmu.map(ctx, va, pa, size, PageFlags::from_sparc_acc(RW))
                    .unwrap();
            }
        };
        for ctx in contexts {
            load(&mut mmu, ctx);
        }
        let census = table_census(&mmu);
        assert_eq!(
            census,
            (2 * 10, 0),
            "5 level-2 + 5 level-3 tables per context"
        );
        for cycle in 0..10_000u64 {
            let ctx = contexts[(cycle % 2) as usize];
            let (va, size) = regions[(cycle % 6) as usize];
            mmu.unmap(
                ctx,
                va + (cycle % (size / PAGE_SIZE)) * PAGE_SIZE,
                PAGE_SIZE,
            )
            .unwrap();
            for &(va, size) in &regions {
                mmu.unmap(ctx, va, size).unwrap();
            }
            load(&mut mmu, ctx);
            assert_eq!(table_census(&mmu), census, "cycle {cycle}");
        }
        for ctx in contexts {
            for &(va, size) in &regions {
                assert!(mmu
                    .translate(ctx, va + size - 1, AccessKind::Read, Privilege::User)
                    .is_ok());
            }
        }
    }

    #[test]
    fn a_large_leaf_over_emptied_tables_frees_them_for_reuse() {
        let mut mmu = Mmu::new();
        let ctx = mmu.create_context();
        let flags = PageFlags::from_sparc_acc(RW);
        // Page-granular: one level-2 and one level-3 table.
        mmu.map(ctx, L1_REGION, PAGE_SIZE, 2 * PAGE_SIZE, flags)
            .unwrap();
        assert_eq!(table_census(&mmu), (2, 0));
        mmu.unmap(ctx, L1_REGION, 2 * PAGE_SIZE).unwrap();
        // The emptied region remaps as one 16 MiB leaf: both tables go to
        // the free list, and the next page mapping takes them back.
        mmu.map(ctx, L1_REGION, 0, L1_REGION, flags).unwrap();
        assert_eq!(table_census(&mmu), (2, 2));
        assert_eq!(
            mmu.translate(ctx, L1_REGION + 0x1234, AccessKind::Read, Privilege::User),
            Ok(0x1234)
        );
        mmu.map(ctx, 3 * L1_REGION, 0, PAGE_SIZE, flags).unwrap();
        assert_eq!(table_census(&mmu), (2, 0));
        assert_eq!(
            mmu.translate(ctx, 3 * L1_REGION, AccessKind::Read, Privilege::User),
            Ok(0)
        );
        assert!(mmu
            .translate(
                ctx,
                3 * L1_REGION + PAGE_SIZE,
                AccessKind::Read,
                Privilege::User
            )
            .is_err());
    }
}
