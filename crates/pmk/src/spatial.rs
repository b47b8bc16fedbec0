//! Spatial partitioning: the processor-independent descriptor abstraction
//! of Fig. 3, mapped onto the MMU.
//!
//! "Spatial partitioning requirements are described in runtime through a
//! high-level processor-independent abstraction layer. A set of
//! descriptors is provided per partition, primarily corresponding to the
//! several levels of execution (e.g. application, operating system and AIR
//! PMK) and to its different memory sections (e.g. code, data and stack)"
//! (Sect. 2.1). The [`SpatialManager`] plays the role of the integration
//! loader: it allocates physical memory, creates one MMU context per
//! partition, and installs page mappings whose SPARC ACC codes realise
//! each descriptor's intended protection.

use std::fmt;

use air_hw::mmu::{
    AccessKind, MapError, Mmu, MmuContextId, MmuFault, PageFlags, Privilege, PAGE_SIZE,
};
use air_model::PartitionId;

/// Level of execution a memory region belongs to (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecLevel {
    /// Application code/data: user-level accesses.
    Application,
    /// The partition operating system kernel: supervisor-only.
    PosKernel,
}

/// Memory section kind (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemorySection {
    /// Executable code.
    Code,
    /// Read/write data.
    Data,
    /// Stack space.
    Stack,
}

/// A high-level, processor-independent spatial-partitioning descriptor:
/// one per (execution level, section) region of a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryDescriptor {
    /// The level of execution the region serves.
    pub level: ExecLevel,
    /// The section kind.
    pub section: MemorySection,
    /// Partition-virtual base address (4 KiB-aligned).
    pub virtual_base: u64,
    /// Region size in bytes (4 KiB-aligned).
    pub size: u64,
}

impl MemoryDescriptor {
    /// Creates a descriptor.
    pub const fn new(
        level: ExecLevel,
        section: MemorySection,
        virtual_base: u64,
        size: u64,
    ) -> Self {
        Self {
            level,
            section,
            virtual_base,
            size,
        }
    }

    /// The SPARC V8 `ACC` protection code realising this descriptor:
    ///
    /// * application code — ACC 2 (user RX);
    /// * application data/stack — ACC 1 (user RW);
    /// * POS kernel code — ACC 6 (supervisor RX, no user access);
    /// * POS kernel data/stack — ACC 7 (supervisor RWX, no user access).
    pub fn acc_code(&self) -> u8 {
        match (self.level, self.section) {
            (ExecLevel::Application, MemorySection::Code) => 2,
            (ExecLevel::Application, _) => 1,
            (ExecLevel::PosKernel, MemorySection::Code) => 6,
            (ExecLevel::PosKernel, _) => 7,
        }
    }
}

impl fmt::Display for MemoryDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}/{:?} [{:#x}, {:#x})",
            self.level,
            self.section,
            self.virtual_base,
            self.virtual_base + self.size
        )
    }
}

/// Errors from loading spatial configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpatialError {
    /// Installed physical memory is exhausted.
    OutOfPhysicalMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes remaining.
        remaining: u64,
    },
    /// The underlying MMU rejected a mapping.
    Map(MapError),
    /// The partition was already configured.
    AlreadyConfigured(PartitionId),
    /// The partition has no spatial configuration.
    NotConfigured(PartitionId),
}

impl fmt::Display for SpatialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpatialError::OutOfPhysicalMemory {
                requested,
                remaining,
            } => write!(
                f,
                "out of physical memory: {requested} bytes requested, {remaining} remaining"
            ),
            SpatialError::Map(e) => write!(f, "mapping rejected: {e}"),
            SpatialError::AlreadyConfigured(p) => {
                write!(f, "partition {p} is already spatially configured")
            }
            SpatialError::NotConfigured(p) => {
                write!(f, "partition {p} has no spatial configuration")
            }
        }
    }
}

impl std::error::Error for SpatialError {}

impl From<MapError> for SpatialError {
    fn from(value: MapError) -> Self {
        SpatialError::Map(value)
    }
}

/// A loaded partition's spatial state.
#[derive(Debug)]
struct PartitionSpace {
    context: MmuContextId,
    /// `(descriptor, physical_base)` pairs, for reporting.
    regions: Vec<(MemoryDescriptor, u64)>,
}

/// The spatial-partitioning manager: owns the MMU and the physical-memory
/// allocation map.
///
/// Physical regions are allocated by a bump allocator, so **no two
/// partitions ever share a physical frame** — cross-partition access is
/// impossible by construction on the physical side, and impossible on the
/// virtual side because each partition translates through its own MMU
/// context.
///
/// # Examples
///
/// ```
/// use air_pmk::spatial::{ExecLevel, MemoryDescriptor, MemorySection, SpatialManager};
/// use air_hw::mmu::{AccessKind, Privilege};
/// use air_model::PartitionId;
///
/// let mut spatial = SpatialManager::new(1 << 20); // 1 MiB of RAM
/// let p0 = PartitionId(0);
/// spatial.configure_partition(p0, &[
///     MemoryDescriptor::new(ExecLevel::Application, MemorySection::Code, 0x40000000, 0x2000),
///     MemoryDescriptor::new(ExecLevel::Application, MemorySection::Data, 0x40100000, 0x1000),
/// ])?;
/// let pa = spatial.translate(p0, 0x40000010, AccessKind::Execute, Privilege::User)?;
/// assert!(pa < (1 << 20));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SpatialManager {
    mmu: Mmu,
    /// Loaded partitions by [`PartitionId::as_usize`]; `None` for ids
    /// never configured.
    partitions: Vec<Option<PartitionSpace>>,
    physical_size: u64,
    next_free: u64,
}

impl SpatialManager {
    /// Creates a manager over `physical_size` bytes of RAM.
    pub fn new(physical_size: u64) -> Self {
        Self {
            mmu: Mmu::new(),
            partitions: Vec::new(),
            physical_size,
            // Frame 0 is reserved for the PMK itself.
            next_free: PAGE_SIZE,
        }
    }

    /// Bytes of physical memory not yet allocated.
    pub fn remaining_physical(&self) -> u64 {
        self.physical_size - self.next_free
    }

    /// Loads `descriptors` for `partition`: creates its MMU context,
    /// allocates physical backing, installs the mappings.
    ///
    /// # Errors
    ///
    /// [`SpatialError`] on double configuration, physical exhaustion, or
    /// invalid descriptors (misaligned/overlapping virtual ranges).
    pub fn configure_partition(
        &mut self,
        partition: PartitionId,
        descriptors: &[MemoryDescriptor],
    ) -> Result<MmuContextId, SpatialError> {
        if self.space(partition).is_some() {
            return Err(SpatialError::AlreadyConfigured(partition));
        }
        let context = self.mmu.create_context();
        let mut regions = Vec::with_capacity(descriptors.len());
        for desc in descriptors {
            let size = desc.size.max(PAGE_SIZE).next_multiple_of(PAGE_SIZE);
            if self.next_free + size > self.physical_size {
                return Err(SpatialError::OutOfPhysicalMemory {
                    requested: size,
                    remaining: self.remaining_physical(),
                });
            }
            let pa = self.next_free;
            self.mmu.map(
                context,
                desc.virtual_base,
                pa,
                size,
                PageFlags::from_sparc_acc(desc.acc_code()),
            )?;
            self.next_free += size;
            regions.push((*desc, pa));
        }
        let idx = partition.as_usize();
        if idx >= self.partitions.len() {
            self.partitions.resize_with(idx + 1, || None);
        }
        self.partitions[idx] = Some(PartitionSpace { context, regions });
        Ok(context)
    }

    /// The loaded state of `partition`, if it was configured.
    fn space(&self, partition: PartitionId) -> Option<&PartitionSpace> {
        self.partitions.get(partition.as_usize())?.as_ref()
    }

    /// The MMU context of a configured partition.
    ///
    /// # Errors
    ///
    /// [`SpatialError::NotConfigured`] when the partition was never loaded.
    pub fn context_of(&self, partition: PartitionId) -> Result<MmuContextId, SpatialError> {
        self.space(partition)
            .map(|s| s.context)
            .ok_or(SpatialError::NotConfigured(partition))
    }

    /// Translates an access by `partition` — the runtime spatial check.
    /// A fault is the "memory protection violation" event AIR health
    /// monitoring handles (Sect. 2.4).
    ///
    /// # Errors
    ///
    /// [`MmuFault`] exactly as the hardware would raise it.
    pub fn translate(
        &mut self,
        partition: PartitionId,
        va: u64,
        kind: AccessKind,
        privilege: Privilege,
    ) -> Result<u64, MmuFault> {
        let context = match self.space(partition) {
            Some(s) => s.context,
            // An unconfigured partition has no valid context: fault.
            None => MmuContextId(u32::MAX),
        };
        self.mmu.translate(context, va, kind, privilege)
    }

    /// The `(descriptor, physical_base)` regions loaded for `partition`.
    pub fn regions_of(&self, partition: PartitionId) -> Option<&[(MemoryDescriptor, u64)]> {
        self.space(partition).map(|s| s.regions.as_slice())
    }

    /// Fault injection: revokes the mapping of the single page containing
    /// `va` in `partition`'s context, as if the page table had been
    /// corrupted. The next access through [`translate`](Self::translate)
    /// faults exactly as real hardware would. The descriptor bookkeeping
    /// is untouched, so [`reload_partition`](Self::reload_partition)
    /// restores the mapping.
    ///
    /// # Errors
    ///
    /// [`SpatialError::NotConfigured`] for an unknown partition;
    /// [`SpatialError::Map`] if the MMU rejects the unmap.
    pub fn revoke_page(&mut self, partition: PartitionId, va: u64) -> Result<(), SpatialError> {
        let context = self.context_of(partition)?;
        let page = va & !(PAGE_SIZE - 1);
        self.mmu.unmap(context, page, PAGE_SIZE)?;
        Ok(())
    }

    /// Reinstalls every configured mapping of `partition` from its
    /// descriptors — the spatial half of a partition restart: the
    /// integration loader reloads the partition image, undoing any
    /// revoked/corrupted page mappings. Physical frame assignments are
    /// preserved.
    ///
    /// # Errors
    ///
    /// [`SpatialError::NotConfigured`] for an unknown partition;
    /// [`SpatialError::Map`] if the MMU rejects a mapping.
    pub fn reload_partition(&mut self, partition: PartitionId) -> Result<(), SpatialError> {
        let space = self
            .partitions
            .get(partition.as_usize())
            .and_then(Option::as_ref)
            .ok_or(SpatialError::NotConfigured(partition))?;
        for (desc, pa) in &space.regions {
            let size = desc.size.max(PAGE_SIZE).next_multiple_of(PAGE_SIZE);
            // Unmap tolerates holes, so partially revoked regions reload
            // cleanly; map is atomic over the then-empty range.
            self.mmu.unmap(space.context, desc.virtual_base, size)?;
            self.mmu.map(
                space.context,
                desc.virtual_base,
                *pa,
                size,
                PageFlags::from_sparc_acc(desc.acc_code()),
            )?;
        }
        Ok(())
    }

    /// Translation/fault statistics from the underlying MMU.
    pub fn mmu_stats(&self) -> (u64, u64) {
        (self.mmu.translations(), self.mmu.faults())
    }
}

/// A conventional descriptor set for an application partition: code, data
/// and stack at the canonical AIR virtual layout.
pub fn standard_application_layout(code: u64, data: u64, stack: u64) -> Vec<MemoryDescriptor> {
    vec![
        MemoryDescriptor::new(
            ExecLevel::PosKernel,
            MemorySection::Code,
            0x1000_0000,
            0x8000,
        ),
        MemoryDescriptor::new(
            ExecLevel::PosKernel,
            MemorySection::Data,
            0x1010_0000,
            0x4000,
        ),
        MemoryDescriptor::new(
            ExecLevel::Application,
            MemorySection::Code,
            0x4000_0000,
            code,
        ),
        MemoryDescriptor::new(
            ExecLevel::Application,
            MemorySection::Data,
            0x5000_0000,
            data,
        ),
        MemoryDescriptor::new(
            ExecLevel::Application,
            MemorySection::Stack,
            0x6000_0000,
            stack,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(m: u32) -> PartitionId {
        PartitionId(m)
    }

    fn two_partitions() -> SpatialManager {
        let mut s = SpatialManager::new(4 << 20);
        for m in 0..2 {
            s.configure_partition(p(m), &standard_application_layout(0x4000, 0x4000, 0x2000))
                .unwrap();
        }
        s
    }

    #[test]
    fn partitions_get_disjoint_physical_memory() {
        let s = two_partitions();
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for m in 0..2 {
            for &(desc, pa) in s.regions_of(p(m)).unwrap() {
                ranges.push((pa, pa + desc.size.max(PAGE_SIZE)));
            }
        }
        ranges.sort();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "physical ranges overlap: {w:?}");
        }
    }

    #[test]
    fn cross_partition_virtual_access_faults() {
        // Both partitions use the same virtual layout; each translates to
        // its own physical frames, and neither can see the other's.
        let mut s = two_partitions();
        let a = s
            .translate(p(0), 0x4000_0000, AccessKind::Execute, Privilege::User)
            .unwrap();
        let b = s
            .translate(p(1), 0x4000_0000, AccessKind::Execute, Privilege::User)
            .unwrap();
        assert_ne!(a, b, "same VA, different physical frames");
        // An address only partition 0 maps… is mapped for partition 1 at
        // its own frames too (same layout) — so instead probe an address
        // neither maps, and a kernel address from user level.
        assert!(matches!(
            s.translate(p(0), 0x7000_0000, AccessKind::Read, Privilege::User),
            Err(MmuFault::Unmapped { .. })
        ));
        assert!(matches!(
            s.translate(p(0), 0x1000_0000, AccessKind::Read, Privilege::User),
            Err(MmuFault::Protection { .. })
        ));
    }

    #[test]
    fn section_permissions_follow_descriptors() {
        let mut s = two_partitions();
        // Application code: user may execute, not write.
        assert!(s
            .translate(p(0), 0x4000_0000, AccessKind::Execute, Privilege::User)
            .is_ok());
        assert!(matches!(
            s.translate(p(0), 0x4000_0000, AccessKind::Write, Privilege::User),
            Err(MmuFault::Protection { .. })
        ));
        // Application data: user may write, not execute.
        assert!(s
            .translate(p(0), 0x5000_0000, AccessKind::Write, Privilege::User)
            .is_ok());
        assert!(matches!(
            s.translate(p(0), 0x5000_0000, AccessKind::Execute, Privilege::User),
            Err(MmuFault::Protection { .. })
        ));
        // POS kernel code: supervisor-only execute.
        assert!(s
            .translate(
                p(0),
                0x1000_0000,
                AccessKind::Execute,
                Privilege::Supervisor
            )
            .is_ok());
    }

    #[test]
    fn unconfigured_partition_faults() {
        let mut s = two_partitions();
        assert!(matches!(
            s.translate(p(7), 0x4000_0000, AccessKind::Read, Privilege::User),
            Err(MmuFault::InvalidContext { .. })
        ));
        assert!(matches!(
            s.context_of(p(7)),
            Err(SpatialError::NotConfigured(_))
        ));
    }

    #[test]
    fn double_configuration_rejected() {
        let mut s = two_partitions();
        let err = s
            .configure_partition(p(0), &standard_application_layout(0x1000, 0x1000, 0x1000))
            .unwrap_err();
        assert_eq!(err, SpatialError::AlreadyConfigured(p(0)));
    }

    #[test]
    fn sparse_out_of_order_configuration() {
        let layout = standard_application_layout(0x1000, 0x1000, 0x1000);
        let mut s = SpatialManager::new(4 << 20);
        assert_eq!(s.configure_partition(p(5), &layout), Ok(MmuContextId(0)));
        assert_eq!(s.configure_partition(p(1), &layout), Ok(MmuContextId(1)));
        assert_eq!(s.context_of(p(5)), Ok(MmuContextId(0)));
        assert_eq!(s.context_of(p(1)), Ok(MmuContextId(1)));
        assert_eq!(
            s.configure_partition(p(5), &layout),
            Err(SpatialError::AlreadyConfigured(p(5)))
        );
        assert_eq!(
            s.configure_partition(p(1), &layout),
            Err(SpatialError::AlreadyConfigured(p(1)))
        );
        for gap in [p(0), p(3), p(6), p(1000)] {
            assert_eq!(s.context_of(gap), Err(SpatialError::NotConfigured(gap)));
            assert_eq!(
                s.revoke_page(gap, 0x5000_0000),
                Err(SpatialError::NotConfigured(gap))
            );
            assert_eq!(
                s.reload_partition(gap),
                Err(SpatialError::NotConfigured(gap))
            );
            assert!(s.regions_of(gap).is_none());
            assert!(matches!(
                s.translate(gap, 0x5000_0000, AccessKind::Read, Privilege::User),
                Err(MmuFault::InvalidContext { .. })
            ));
        }
        // The two spaces stay disjoint and independently reloadable.
        let pa5 = s
            .translate(p(5), 0x5000_0000, AccessKind::Read, Privilege::User)
            .unwrap();
        let pa1 = s
            .translate(p(1), 0x5000_0000, AccessKind::Read, Privilege::User)
            .unwrap();
        assert_ne!(pa5, pa1);
        s.revoke_page(p(1), 0x5000_0000).unwrap();
        s.reload_partition(p(1)).unwrap();
        assert_eq!(
            s.translate(p(1), 0x5000_0000, AccessKind::Read, Privilege::User),
            Ok(pa1)
        );
    }

    #[test]
    fn physical_exhaustion_reported() {
        let mut s = SpatialManager::new(64 * 1024);
        let err = s
            .configure_partition(
                p(0),
                &[MemoryDescriptor::new(
                    ExecLevel::Application,
                    MemorySection::Data,
                    0x4000_0000,
                    1 << 20,
                )],
            )
            .unwrap_err();
        assert!(matches!(err, SpatialError::OutOfPhysicalMemory { .. }));
    }

    #[test]
    fn revoked_page_faults_until_reload() {
        let mut s = two_partitions();
        let va = 0x5000_0000u64; // application data base
        assert!(s
            .translate(p(0), va + 0x10, AccessKind::Read, Privilege::User)
            .is_ok());
        s.revoke_page(p(0), va + 0x10).unwrap();
        assert!(matches!(
            s.translate(p(0), va + 0x10, AccessKind::Read, Privilege::User),
            Err(MmuFault::Unmapped { .. })
        ));
        // Other pages of the same region are untouched.
        assert!(s
            .translate(p(0), va + PAGE_SIZE, AccessKind::Read, Privilege::User)
            .is_ok());
        // Reload restores the mapping with the original physical frame.
        let before = s.regions_of(p(0)).unwrap().to_vec();
        s.reload_partition(p(0)).unwrap();
        assert_eq!(s.regions_of(p(0)).unwrap(), &before[..]);
        assert!(s
            .translate(p(0), va + 0x10, AccessKind::Read, Privilege::User)
            .is_ok());
    }

    #[test]
    fn revoke_and_reload_require_configuration() {
        let mut s = two_partitions();
        assert!(matches!(
            s.revoke_page(p(7), 0x5000_0000),
            Err(SpatialError::NotConfigured(_))
        ));
        assert!(matches!(
            s.reload_partition(p(7)),
            Err(SpatialError::NotConfigured(_))
        ));
    }

    #[test]
    fn acc_codes() {
        use ExecLevel::*;
        use MemorySection::*;
        assert_eq!(MemoryDescriptor::new(Application, Code, 0, 0).acc_code(), 2);
        assert_eq!(MemoryDescriptor::new(Application, Data, 0, 0).acc_code(), 1);
        assert_eq!(
            MemoryDescriptor::new(Application, Stack, 0, 0).acc_code(),
            1
        );
        assert_eq!(MemoryDescriptor::new(PosKernel, Code, 0, 0).acc_code(), 6);
        assert_eq!(MemoryDescriptor::new(PosKernel, Data, 0, 0).acc_code(), 7);
    }

    #[test]
    fn frame_zero_reserved_for_pmk() {
        let mut s = SpatialManager::new(1 << 20);
        s.configure_partition(
            p(0),
            &[MemoryDescriptor::new(
                ExecLevel::Application,
                MemorySection::Data,
                0x4000_0000,
                PAGE_SIZE,
            )],
        )
        .unwrap();
        let (_, pa) = s.regions_of(p(0)).unwrap()[0];
        assert!(pa >= PAGE_SIZE, "first frame belongs to the PMK");
    }
}
