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

use std::collections::HashMap;
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

/// One table level: sparse children and leaves.
#[derive(Debug, Clone, Default)]
struct Table {
    /// Leaf entries at this level, by index.
    leaves: HashMap<u16, Pte>,
    /// Next-level tables, by index.
    children: HashMap<u16, Table>,
}

/// Per-context address space: the root (level-1) table.
#[derive(Debug, Clone, Default)]
struct AddressSpace {
    root: Table,
}

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
    /// Address spaces by context id: ids are handed out in order and
    /// never retired, so context `c` lives at index `c.0`.
    contexts: Vec<AddressSpace>,
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
            contexts: Vec::new(),
            translations: 0,
            faults: 0,
        }
    }

    /// Allocates a fresh, empty context (one per partition).
    pub fn create_context(&mut self) -> MmuContextId {
        let id = MmuContextId(self.contexts.len() as u32);
        self.contexts.push(AddressSpace::default());
        id
    }

    /// Whether `context` exists.
    pub fn has_context(&self, context: MmuContextId) -> bool {
        self.space(context).is_some()
    }

    fn space(&self, context: MmuContextId) -> Option<&AddressSpace> {
        self.contexts.get(context.0 as usize)
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
        let end = va.checked_add(size).ok_or(MapError::OutOfVirtualSpace)?;
        if end > 1 << 32 {
            return Err(MapError::OutOfVirtualSpace);
        }
        let space = self
            .contexts
            .get_mut(context.0 as usize)
            .ok_or(MapError::InvalidContext { context })?;
        // Pre-check the whole range for overlaps so the map is atomic.
        let mut cur = va;
        while cur < end {
            if walk(&space.root, cur).is_some() {
                return Err(MapError::Overlap { va: cur });
            }
            cur += PAGE_SIZE;
        }
        let mut cur_va = va;
        let mut cur_pa = pa;
        while cur_va < end {
            let remaining = end - cur_va;
            let (idx1, idx2, idx3) = split(cur_va);
            let step = if cur_va.is_multiple_of(L1_REGION)
                && cur_pa.is_multiple_of(L1_REGION)
                && remaining >= L1_REGION
            {
                space.root.leaves.insert(
                    idx1,
                    Pte {
                        pa_base: cur_pa,
                        flags,
                    },
                );
                L1_REGION
            } else if cur_va.is_multiple_of(L2_REGION)
                && cur_pa.is_multiple_of(L2_REGION)
                && remaining >= L2_REGION
            {
                let l2 = space.root.children.entry(idx1).or_default();
                l2.leaves.insert(
                    idx2,
                    Pte {
                        pa_base: cur_pa,
                        flags,
                    },
                );
                L2_REGION
            } else {
                let l2 = space.root.children.entry(idx1).or_default();
                let l3 = l2.children.entry(idx2).or_default();
                l3.leaves.insert(
                    idx3,
                    Pte {
                        pa_base: cur_pa,
                        flags,
                    },
                );
                PAGE_SIZE
            };
            cur_va += step;
            cur_pa += step;
        }
        Ok(())
    }

    /// Removes every mapping of `[va, va+size)` in `context`.
    ///
    /// Pages in the range that are not mapped are skipped. Large leaf
    /// entries are removed when the range covers their start — partial
    /// unmapping of a 16 MiB/256 KiB leaf is not supported (the descriptor
    /// loader always unmaps what it mapped).
    ///
    /// # Errors
    ///
    /// [`MapError::InvalidContext`] when `context` does not exist;
    /// [`MapError::Misaligned`] for unaligned bounds.
    pub fn unmap(&mut self, context: MmuContextId, va: u64, size: u64) -> Result<(), MapError> {
        for value in [va, size] {
            if value % PAGE_SIZE != 0 {
                return Err(MapError::Misaligned { value });
            }
        }
        let space = self
            .contexts
            .get_mut(context.0 as usize)
            .ok_or(MapError::InvalidContext { context })?;
        let end = va.saturating_add(size);
        let mut cur = va;
        while cur < end {
            let (idx1, idx2, idx3) = split(cur);
            if space.root.leaves.contains_key(&idx1) && cur.is_multiple_of(L1_REGION) {
                space.root.leaves.remove(&idx1);
                cur += L1_REGION;
                continue;
            }
            if let Some(l2) = space.root.children.get_mut(&idx1) {
                if l2.leaves.contains_key(&idx2) && cur.is_multiple_of(L2_REGION) {
                    l2.leaves.remove(&idx2);
                    cur += L2_REGION;
                    continue;
                }
                if let Some(l3) = l2.children.get_mut(&idx2) {
                    l3.leaves.remove(&idx3);
                }
            }
            cur += PAGE_SIZE;
        }
        Ok(())
    }

    /// Translates virtual address `va` in `context` for an access of
    /// `kind` at `privilege`, returning the physical address: the
    /// three-level walk, then the permission check of the leaf it ends at.
    ///
    /// # Errors
    ///
    /// [`MmuFault`] when the context is invalid, the address unmapped, or
    /// the page's permissions forbid the access — the PMK routes the fault
    /// to health monitoring.
    pub fn translate(
        &mut self,
        context: MmuContextId,
        va: u64,
        kind: AccessKind,
        privilege: Privilege,
    ) -> Result<u64, MmuFault> {
        self.translations += 1;
        let Some(space) = self.contexts.get(context.0 as usize) else {
            self.faults += 1;
            return Err(MmuFault::InvalidContext { context });
        };
        let Some((pte, region_base)) = walk(&space.root, va) else {
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

/// Splits a 32-bit virtual address into the three table indices
/// (8 / 6 / 6 bits; the low 12 bits are the page offset).
fn split(va: u64) -> (u16, u16, u16) {
    let idx1 = ((va >> 24) & 0xff) as u16;
    let idx2 = ((va >> 18) & 0x3f) as u16;
    let idx3 = ((va >> 12) & 0x3f) as u16;
    (idx1, idx2, idx3)
}

/// Walks the tables for `va`; returns the leaf PTE and the base VA of the
/// region it covers.
fn walk(root: &Table, va: u64) -> Option<(Pte, u64)> {
    let (idx1, idx2, idx3) = split(va);
    if let Some(pte) = root.leaves.get(&idx1) {
        return Some((*pte, va & !(L1_REGION - 1)));
    }
    let l2 = root.children.get(&idx1)?;
    if let Some(pte) = l2.leaves.get(&idx2) {
        return Some((*pte, va & !(L2_REGION - 1)));
    }
    let l3 = l2.children.get(&idx2)?;
    let pte = l3.leaves.get(&idx3)?;
    Some((*pte, va & !(PAGE_SIZE - 1)))
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
}
