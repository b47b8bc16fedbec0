//! Seeded differential test of the partition OS, one pinned digest per
//! [`PosKind`].
//!
//! Each case creates 1–6 processes with random priorities, some periodic
//! and some aperiodic, then drives a few thousand random operations:
//! every POS service, `announce_ticks` with increments that include 0,
//! and `select_heir`. Every return value, every process status and the
//! running process after each operation are folded into one FNV-1a digest
//! per kind. A change to any service's observable behaviour, for either
//! kind, moves its digest.

use std::fmt::Write;

use air_model::ids::ProcessId;
use air_model::partition::PosKind;
use air_model::process::{Priority, ProcessAttributes, Recurrence};
use air_model::testkit::TestRng;
use air_model::Ticks;
use air_pos::PartitionOs;

const SEEDS: u64 = 50;
const OPS: usize = 3000;

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

fn run_case(kind: PosKind, seed: u64, fnv: &mut Fnv) {
    let mut rng = TestRng::new(seed);
    let mut pos = PartitionOs::new(kind);
    let n = rng.range(1, 7) as u32;
    for i in 0..n {
        let mut attrs = ProcessAttributes::new(format!("p{i}"))
            .with_base_priority(Priority(rng.below(4) as u8));
        if rng.chance(1, 2) {
            attrs = attrs.with_recurrence(Recurrence::Periodic(Ticks(rng.range(3, 40))));
        }
        write!(fnv, "{:?};", pos.create_process(attrs)).unwrap();
    }
    write!(
        fnv,
        "{:?};",
        pos.create_process(ProcessAttributes::new("p0"))
    )
    .unwrap();
    write!(fnv, "{:?}{};", pos.kind(), pos.process_count()).unwrap();

    let mut now = Ticks::ZERO;
    for _ in 0..OPS {
        // One id past the table now and then, to reach the unknown-process paths.
        let p = ProcessId(rng.below(u64::from(n) + 1) as u32);
        let delay = Ticks(if rng.chance(1, 3) {
            0
        } else {
            rng.range(1, 25)
        });
        match rng.below(17) {
            0 => write!(fnv, "start{:?};", pos.start(p, now)),
            // The returned release point is `now + delay`, fixed by the
            // operands, so folding it would add nothing.
            1 => write!(
                fnv,
                "dstart{:?};",
                pos.delayed_start(p, delay, now).map(|_| ())
            ),
            2 => write!(fnv, "stop{:?};", pos.stop(p)),
            3 => write!(fnv, "susp{:?};", pos.suspend(p)),
            4 => write!(fnv, "res{:?};", pos.resume(p, now)),
            5 => {
                let prio = Priority(rng.below(4) as u8);
                write!(fnv, "prio{:?};", pos.set_priority(p, prio))
            }
            6 => write!(fnv, "pwait{:?};", pos.periodic_wait(p, now)),
            7 => write!(fnv, "twait{:?};", pos.timed_wait(p, delay, now)),
            8 => {
                let timeout = rng.chance(1, 2).then(|| now + delay);
                write!(fnv, "block{:?};", pos.block(p, timeout, now))
            }
            9 => write!(fnv, "unblock{:?};", pos.unblock(p, now)),
            10 => write!(fnv, "cause{:?};", pos.take_wake_cause(p)),
            // Arms 11 and 14 drove a PCB deadline copy and a release
            // queue, which the POS no longer has (the PAL owns `D′`). They
            // keep their draws, so the operation stream is unchanged.
            11 => {
                let _ = rng.chance(1, 2);
                write!(fnv, "dl;")
            }
            12 | 13 => {
                now += Ticks([0, 0, 1, 1, 2, 3, 5, 9, 14][rng.below_usize(9)]);
                pos.announce_ticks(now);
                write!(fnv, "tick{now:?};")
            }
            14 => write!(fnv, "rel;"),
            15 => {
                if rng.chance(1, 40) {
                    pos.reset();
                    write!(fnv, "reset;")
                } else {
                    write!(fnv, "name{:?};", pos.process_by_name(&format!("p{}", p.0)))
                }
            }
            _ => write!(fnv, "heir{:?};", pos.select_heir(now)),
        }
        .unwrap();
        for q in 0..=n {
            write!(fnv, "{:?}", pos.status(ProcessId(q))).unwrap();
        }
        write!(fnv, "run{:?};", pos.running()).unwrap();
    }
}

fn digest(kind: PosKind) -> u64 {
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    for seed in 1..=SEEDS {
        run_case(kind, seed, &mut fnv);
    }
    fnv.0
}

#[test]
fn real_time_kind_digest_is_pinned() {
    assert_eq!(digest(PosKind::RealTime), 0xc9d4_78f0_f662_9b20);
}

#[test]
fn generic_kind_digest_is_pinned() {
    assert_eq!(digest(PosKind::GenericNonRealTime), 0x545e_eafc_6d63_3ae1);
}
