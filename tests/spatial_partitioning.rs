//! Spatial-partitioning invariants: "applications running in one partition
//! cannot access addressing spaces outside those belonging to that
//! partition" (Sect. 2.1), and violations flow through health monitoring.

use air_core::prototype::ids::{P1, P2};
use air_core::prototype::PrototypeHarness;
use air_core::TraceEvent;
use air_hm::ErrorId;
use air_hw::mmu::{AccessKind, MapError, MmuFault, Privilege};
use air_model::testkit::TestRng;
use air_pmk::spatial::SpatialError;

#[test]
fn partitions_translate_same_va_to_disjoint_frames() {
    let mut proto = PrototypeHarness::build();
    let spatial = proto.system.spatial_mut();
    let a = spatial
        .translate(P1, 0x4000_0000, AccessKind::Execute, Privilege::User)
        .unwrap();
    let b = spatial
        .translate(P2, 0x4000_0000, AccessKind::Execute, Privilege::User)
        .unwrap();
    assert_ne!(a, b, "same virtual address, physically separated");
}

#[test]
fn all_partition_physical_regions_are_disjoint() {
    let mut proto = PrototypeHarness::build();
    let spatial = proto.system.spatial_mut();
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for m in 0..4u32 {
        for &(desc, pa) in spatial.regions_of(air_model::PartitionId(m)).unwrap() {
            ranges.push((pa, pa + desc.size.max(air_hw::mmu::PAGE_SIZE)));
        }
    }
    ranges.sort();
    for pair in ranges.windows(2) {
        assert!(
            pair[0].1 <= pair[1].0,
            "physical overlap between partition regions: {pair:?}"
        );
    }
}

#[test]
fn user_level_cannot_touch_kernel_regions() {
    let mut proto = PrototypeHarness::build();
    let spatial = proto.system.spatial_mut();
    // The POS kernel code region of the standard layout.
    let err = spatial
        .translate(P1, 0x1000_0000, AccessKind::Read, Privilege::User)
        .unwrap_err();
    assert!(matches!(err, MmuFault::Protection { .. }));
    // Supervisor level may execute it.
    assert!(spatial
        .translate(P1, 0x1000_0000, AccessKind::Execute, Privilege::Supervisor)
        .is_ok());
}

#[test]
fn write_to_code_faults_execute_from_data_faults() {
    let mut proto = PrototypeHarness::build();
    let spatial = proto.system.spatial_mut();
    assert!(matches!(
        spatial.translate(P1, 0x4000_0000, AccessKind::Write, Privilege::User),
        Err(MmuFault::Protection { .. })
    ));
    assert!(matches!(
        spatial.translate(P1, 0x5000_0000, AccessKind::Execute, Privilege::User),
        Err(MmuFault::Protection { .. })
    ));
    assert!(spatial
        .translate(P1, 0x5000_0000, AccessKind::Write, Privilege::User)
        .is_ok());
}

#[test]
fn violation_reaches_health_monitoring_and_restarts_the_partition() {
    // The full containment path: illegal access → MMU fault → HM report →
    // partition-level recovery (the standard table warm-restarts).
    let mut proto = PrototypeHarness::build();
    proto.system.run_for(250); // P2's window under χ1
    let before = proto.system.hm().log().len();
    let err = proto
        .system
        .access_memory(P2, 0xdead_0000, AccessKind::Write, Privilege::User)
        .unwrap_err();
    assert!(matches!(err, MmuFault::Unmapped { .. }));
    assert_eq!(proto.system.hm().log().len(), before + 1);
    assert_eq!(
        proto
            .system
            .hm()
            .log()
            .entries_for(ErrorId::MemoryViolation)
            .count(),
        1
    );
    let restarts: Vec<&TraceEvent> = proto
        .system
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::PartitionRestart { partition, .. } if *partition == P2))
        .collect();
    assert_eq!(restarts.len(), 1, "P2 warm-restarted");
    // The other partitions keep running: fault contained.
    proto.system.run_for(3 * 1300);
    assert_eq!(proto.system.trace().deadline_miss_count(), 0);
}

#[test]
fn legal_accesses_do_not_disturb_anything() {
    let mut proto = PrototypeHarness::build();
    let pa = proto
        .system
        .access_memory(P1, 0x5000_0010, AccessKind::Read, Privilege::User)
        .unwrap();
    assert!(pa > 0);
    assert_eq!(proto.system.hm().log().len(), 0);
}

#[test]
fn addresses_above_the_virtual_space_are_violations_not_aliases() {
    // 0x1_5000_0010 shares its low 32 bits with P1's data at 0x5000_0010,
    // which P1 may read: the access must fault, not reach that frame.
    let mut proto = PrototypeHarness::build();
    let err = proto
        .system
        .access_memory(P1, 0x1_5000_0010, AccessKind::Read, Privilege::User)
        .unwrap_err();
    assert_eq!(err, MmuFault::Unmapped { va: 0x1_5000_0010 });
    assert_eq!(
        proto
            .system
            .hm()
            .log()
            .entries_for(ErrorId::MemoryViolation)
            .count(),
        1
    );
    // Revoking such a page is refused, and leaves the aliased page mapped.
    let spatial = proto.system.spatial_mut();
    assert_eq!(
        spatial.revoke_page(P1, 0x1_5000_0000),
        Err(SpatialError::Map(MapError::OutOfVirtualSpace))
    );
    assert!(spatial
        .translate(P1, 0x5000_0010, AccessKind::Read, Privilege::User)
        .is_ok());
}

/// No partition can ever reach a physical frame belonging to another
/// partition's regions, whatever virtual address it tries.
#[test]
fn no_cross_partition_physical_reach() {
    let mut proto = PrototypeHarness::build();
    let mut rng = TestRng::new(0x5A71);
    for case in 0..256 {
        let va = rng.below(1 << 32);
        let m = rng.below(4) as u32;
        let me = air_model::PartitionId(m);
        // Collect every other partition's physical ranges.
        let mut foreign: Vec<(u64, u64)> = Vec::new();
        for other in 0..4u32 {
            if other == m {
                continue;
            }
            let spatial = proto.system.spatial_mut();
            for &(desc, pa) in spatial.regions_of(air_model::PartitionId(other)).unwrap() {
                foreign.push((pa, pa + desc.size.max(air_hw::mmu::PAGE_SIZE)));
            }
        }
        let spatial = proto.system.spatial_mut();
        for kind in [AccessKind::Read, AccessKind::Write, AccessKind::Execute] {
            if let Ok(pa) = spatial.translate(me, va, kind, Privilege::User) {
                for &(lo, hi) in &foreign {
                    assert!(
                        !(lo <= pa && pa < hi),
                        "case {case}: {me} reached foreign frame {pa:#x} via {va:#x} (seed 0x5A71)"
                    );
                }
            }
        }
    }
}
