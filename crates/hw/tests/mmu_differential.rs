//! Seeded differential test of the LEON3-style MMU, one pinned digest.
//!
//! Each case creates 1–4 contexts and drives a thousand random
//! `map`, `unmap` and `translate` calls over a handful of 16 MiB regions,
//! the last one just below the top of the 32-bit space. Ranges are drawn
//! so that 16 MiB, 256 KiB and 4 KiB leaves all appear, overlaps and
//! misalignments are frequent, unmaps start inside large leaves, and a
//! range mapped as 4 KiB pages is unmapped and remapped as one large
//! leaf. Every return value and the translation and fault counters are
//! folded into one FNV-1a digest. A change to any observable behaviour of
//! the MMU moves it. Every virtual address stays below 2^32.

use std::fmt::Write;

use air_hw::mmu::{
    AccessKind, Mmu, MmuContextId, PageFlags, Privilege, L1_REGION, L2_REGION, PAGE_SIZE,
};

const SEEDS: u64 = 24;
const OPS: usize = 1000;
const TOP: u64 = 1 << 32;
/// The 16 MiB regions the addresses fall in.
const REGIONS: [u64; 4] = [0, 1, 2, 255];

/// FNV-1a over the `Debug` text of the values written into it.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &byte in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// SplitMix64: the hardware crate has no test-kit dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// A virtual address in one of the [`REGIONS`]: 16 MiB-, 256 KiB- or
/// page-aligned, now and then misaligned.
fn pick_va(rng: &mut Rng) -> u64 {
    let base = REGIONS[rng.below(REGIONS.len() as u64) as usize] * L1_REGION;
    let va = match rng.below(4) {
        0 => base,
        1 => base + rng.below(64) * L2_REGION,
        // Pages clustered in the first four 256 KiB regions, so that
        // page mappings collide often.
        _ => base + rng.below(4) * L2_REGION + rng.below(64) * PAGE_SIZE,
    };
    if rng.chance(1, 25) {
        va + 1 + rng.below(PAGE_SIZE - 1)
    } else {
        va
    }
}

fn pick_size(rng: &mut Rng) -> u64 {
    let size = match rng.below(40) {
        0 => 0,
        1..=24 => (1 + rng.below(16)) * PAGE_SIZE,
        25..=29 => L2_REGION,
        30..=33 => L2_REGION + PAGE_SIZE,
        34..=37 => (1 + rng.below(3)) * L2_REGION,
        38 => L1_REGION,
        _ => L1_REGION + L2_REGION,
    };
    if rng.chance(1, 25) {
        size + 1 + rng.below(PAGE_SIZE - 1)
    } else {
        size
    }
}

/// A physical base aligned to 16 MiB, to 256 KiB or to one page only, so
/// that equally aligned virtual ranges map with every leaf size.
fn pick_pa(rng: &mut Rng) -> u64 {
    match rng.below(3) {
        0 => rng.below(64) * L1_REGION,
        1 => rng.below(1 << 10) * L2_REGION,
        _ => rng.below(1 << 16) * PAGE_SIZE,
    }
}

fn pick_flags(rng: &mut Rng) -> PageFlags {
    PageFlags::from_sparc_acc(rng.below(8) as u8)
}

fn pick_access(rng: &mut Rng) -> (AccessKind, Privilege) {
    let kind = [AccessKind::Read, AccessKind::Write, AccessKind::Execute][rng.below(3) as usize];
    let privilege = if rng.chance(1, 2) {
        Privilege::User
    } else {
        Privilege::Supervisor
    };
    (kind, privilege)
}

/// An address to translate: anywhere in a region, or near a drawn
/// address at a byte offset.
fn pick_probe(rng: &mut Rng) -> u64 {
    if rng.chance(1, 3) {
        REGIONS[rng.below(REGIONS.len() as u64) as usize] * L1_REGION + rng.below(L1_REGION)
    } else {
        (pick_va(rng) & !(PAGE_SIZE - 1)) + rng.below(PAGE_SIZE)
    }
}

fn translate(mmu: &mut Mmu, ctx: MmuContextId, rng: &mut Rng, fnv: &mut Fnv) {
    let va = pick_probe(rng);
    let (kind, privilege) = pick_access(rng);
    write!(fnv, "tr{:?};", mmu.translate(ctx, va, kind, privilege)).unwrap();
}

/// Maps a `region`-aligned range as smaller leaves (the physical base is
/// only aligned one level down), unmaps it, then remaps it as one leaf of
/// `region` size.
fn remap_as_large_leaf(
    mmu: &mut Mmu,
    ctx: MmuContextId,
    region: u64,
    rng: &mut Rng,
    fnv: &mut Fnv,
) {
    let base = REGIONS[rng.below(REGIONS.len() as u64) as usize] * L1_REGION;
    let va = if region == L1_REGION {
        base
    } else {
        base + rng.below(64) * L2_REGION
    };
    let small = if region == L1_REGION {
        L2_REGION
    } else {
        PAGE_SIZE
    };
    let flags = pick_flags(rng);
    write!(fnv, "clr{:?};", mmu.unmap(ctx, va, region)).unwrap();
    let pa = rng.below(64) * region + small;
    write!(fnv, "small{:?};", mmu.map(ctx, va, pa, region, flags)).unwrap();
    for _ in 0..3 {
        translate(mmu, ctx, rng, fnv);
    }
    write!(fnv, "unmap{:?};", mmu.unmap(ctx, va, region)).unwrap();
    let pa = rng.below(64) * region;
    write!(fnv, "large{:?};", mmu.map(ctx, va, pa, region, flags)).unwrap();
    let probe = va + rng.below(region);
    write!(
        fnv,
        "tr{:?};",
        mmu.translate(ctx, probe, AccessKind::Read, Privilege::Supervisor)
    )
    .unwrap();
}

fn run_case(seed: u64, fnv: &mut Fnv) {
    let mut rng = Rng(seed);
    let mut mmu = Mmu::new();
    let contexts = 1 + rng.below(4) as u32;
    for _ in 0..contexts {
        write!(fnv, "ctx{:?};", mmu.create_context()).unwrap();
    }
    for _ in 0..OPS {
        // One id past the table now and then, to reach the invalid-context
        // paths.
        let ctx = MmuContextId(if rng.chance(1, 40) {
            contexts
        } else {
            rng.below(u64::from(contexts)) as u32
        });
        match rng.below(80) {
            0..=23 => {
                let va = pick_va(&mut rng);
                let pa = pick_pa(&mut rng);
                let size = pick_size(&mut rng);
                let flags = pick_flags(&mut rng);
                write!(fnv, "map{:?};", mmu.map(ctx, va, pa, size, flags)).unwrap();
            }
            24..=39 => {
                let va = pick_va(&mut rng);
                // Half the unmaps start one page into the drawn address,
                // which puts them inside any large leaf there.
                let va = if rng.chance(1, 2) { va + PAGE_SIZE } else { va };
                let size = pick_size(&mut rng).min(TOP - va);
                write!(fnv, "unmap{:?};", mmu.unmap(ctx, va, size)).unwrap();
            }
            40 | 41 => remap_as_large_leaf(&mut mmu, ctx, L2_REGION, &mut rng, fnv),
            42 => remap_as_large_leaf(&mut mmu, ctx, L1_REGION, &mut rng, fnv),
            _ => translate(&mut mmu, ctx, &mut rng, fnv),
        }
    }
    write!(fnv, "stats{}/{};", mmu.translations(), mmu.faults()).unwrap();
}

fn digest() -> u64 {
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    for seed in 1..=SEEDS {
        run_case(seed, &mut fnv);
    }
    fnv.0
}

#[test]
fn mmu_digest_is_pinned() {
    assert_eq!(digest(), 0xa5a6_30b6_0a1e_a340);
}
