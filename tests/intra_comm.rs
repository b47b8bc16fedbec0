//! Intrapartition communication under the real two-level scheduler:
//! blocking buffers, semaphores and events between processes of one
//! partition, driven through the full blocked-caller protocol
//! (block → yield → wake cause → collect delivery).

use std::sync::{Arc, Mutex};

use air_apex::{Outcome, Timeout};
use air_core::workload::{ProcessApi, ProcessBody};
use air_core::{PartitionConfig, ProcessConfig, SystemBuilder};
use air_model::process::{Priority, ProcessAttributes};
use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
use air_model::{Partition, PartitionId, ScheduleId, ScheduleSet, Ticks};
use air_pos::WakeCause;

const P: PartitionId = PartitionId(0);

fn mono_system(
    processes: Vec<ProcessConfig>,
    setup: impl FnOnce(&mut air_apex::IntraPartition),
) -> air_core::AirSystem {
    let schedule = Schedule::new(
        ScheduleId(0),
        "mono",
        Ticks(100),
        vec![PartitionRequirement::new(P, Ticks(100), Ticks(100))],
        vec![TimeWindow::new(P, Ticks(0), Ticks(100))],
    );
    let mut cfg = PartitionConfig::new(Partition::new(P, "SOLO"));
    for p in processes {
        cfg = cfg.with_process(p);
    }
    let mut system = SystemBuilder::new(ScheduleSet::new(vec![schedule]))
        .with_partition(cfg)
        .build()
        .unwrap();
    setup(system.partition_mut(P).intra_mut());
    system
}

/// Produces one buffer message every `period` ticks (busy-waiting between
/// sends, low priority).
struct Producer {
    period: u64,
    next: u64,
    seq: u64,
}

impl ProcessBody for Producer {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        if api.now.as_u64() >= self.next {
            self.next = api.now.as_u64() + self.period;
            let payload = format!("item-{}", self.seq).into_bytes();
            self.seq += 1;
            let (intra, pos) = api.apex.intra_and_pos();
            let _ = intra.send_buffer(api.me, "work", payload, Timeout::Immediate, api.now, pos);
        }
    }
}

/// Blocking consumer: receives with a bounded timeout, collecting
/// deliveries through the wake protocol.
struct Consumer {
    waiting: bool,
    got: Arc<Mutex<Vec<String>>>,
    timeouts: Arc<Mutex<u32>>,
}

impl ProcessBody for Consumer {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        if self.waiting {
            // We are running again: the wait ended. Why?
            match api.apex.take_wake_cause(api.me) {
                Some(WakeCause::Unblocked) => {
                    let msg = api
                        .apex
                        .intra_mut()
                        .take_delivery(api.me)
                        .expect("unblock implies a handoff");
                    self.got
                        .lock()
                        .unwrap()
                        .push(String::from_utf8_lossy(&msg).into_owned());
                }
                Some(WakeCause::Timeout) => {
                    *self.timeouts.lock().unwrap() += 1;
                }
                other => panic!("unexpected wake cause {other:?}"),
            }
            self.waiting = false;
            return;
        }
        let (intra, pos) = api.apex.intra_and_pos();
        match intra.receive_buffer(api.me, "work", Timeout::Bounded(Ticks(40)), api.now, pos) {
            Ok(Outcome::Done(msg)) => self
                .got
                .lock()
                .unwrap()
                .push(String::from_utf8_lossy(&msg).into_owned()),
            Ok(Outcome::Blocked) => self.waiting = true,
            Err(e) => panic!("receive failed: {e}"),
        }
    }
}

#[test]
fn blocking_buffer_producer_consumer() {
    let got = Arc::new(Mutex::new(Vec::new()));
    let timeouts = Arc::new(Mutex::new(0));
    let mut system = mono_system(
        vec![
            // Consumer has the more urgent priority: it blocks, the
            // producer runs, the handoff unblocks the consumer.
            ProcessConfig::new(
                ProcessAttributes::new("consumer").with_base_priority(Priority(1)),
                Consumer {
                    waiting: false,
                    got: Arc::clone(&got),
                    timeouts: Arc::clone(&timeouts),
                },
            ),
            ProcessConfig::new(
                ProcessAttributes::new("producer").with_base_priority(Priority(5)),
                Producer {
                    period: 10,
                    next: 0,
                    seq: 0,
                },
            ),
        ],
        |intra| intra.create_buffer("work", 64, 4).unwrap(),
    );
    system.run_for(500);
    let got = got.lock().unwrap();
    assert!(got.len() >= 40, "consumed {} items", got.len());
    // In-order delivery.
    for (i, item) in got.iter().enumerate() {
        assert_eq!(*item, format!("item-{i}"));
    }
    assert_eq!(system.trace().deadline_miss_count(), 0);
}

#[test]
fn consumer_times_out_without_a_producer() {
    let got = Arc::new(Mutex::new(Vec::new()));
    let timeouts = Arc::new(Mutex::new(0));
    let mut system = mono_system(
        vec![ProcessConfig::new(
            ProcessAttributes::new("consumer").with_base_priority(Priority(1)),
            Consumer {
                waiting: false,
                got: Arc::clone(&got),
                timeouts: Arc::clone(&timeouts),
            },
        )],
        |intra| intra.create_buffer("work", 64, 4).unwrap(),
    );
    system.run_for(300);
    assert!(got.lock().unwrap().is_empty());
    // ~one timeout per 40-tick bound (plus the re-issue ticks).
    let n = *timeouts.lock().unwrap();
    assert!((5..=8).contains(&n), "timeouts = {n}");
}

/// Two contenders around a mutex-like semaphore; a shared "critical
/// section" counter must never see overlap.
struct MutexWorker {
    holding: bool,
    waiting: bool,
    in_critical: Arc<Mutex<u32>>,
    overlaps: Arc<Mutex<u32>>,
    hold_left: u64,
}

impl ProcessBody for MutexWorker {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        if self.waiting {
            if api.apex.take_wake_cause(api.me) == Some(WakeCause::Unblocked) {
                self.waiting = false;
                self.holding = true;
                self.hold_left = 3;
                let mut c = self.in_critical.lock().unwrap();
                if *c != 0 {
                    *self.overlaps.lock().unwrap() += 1;
                }
                *c += 1;
            }
            return;
        }
        if self.holding {
            self.hold_left -= 1;
            if self.hold_left == 0 {
                self.holding = false;
                *self.in_critical.lock().unwrap() -= 1;
                let (intra, pos) = api.apex.intra_and_pos();
                intra.signal_semaphore("mutex", api.now, pos).unwrap();
                // Yield so the peer can take its turn.
                let _ = api.apex.timed_wait(api.me, Ticks(1), api.now);
            }
            return;
        }
        let (intra, pos) = api.apex.intra_and_pos();
        match intra.wait_semaphore(api.me, "mutex", Timeout::Infinite, api.now, pos) {
            Ok(Outcome::Done(())) => {
                self.holding = true;
                self.hold_left = 3;
                let mut c = self.in_critical.lock().unwrap();
                if *c != 0 {
                    *self.overlaps.lock().unwrap() += 1;
                }
                *c += 1;
            }
            Ok(Outcome::Blocked) => self.waiting = true,
            Err(e) => panic!("{e}"),
        }
    }
}

#[test]
fn semaphore_provides_mutual_exclusion() {
    let in_critical = Arc::new(Mutex::new(0));
    let overlaps = Arc::new(Mutex::new(0));
    let make = |prio: u8| {
        ProcessConfig::new(
            ProcessAttributes::new(format!("worker-{prio}")).with_base_priority(Priority(prio)),
            MutexWorker {
                holding: false,
                waiting: false,
                in_critical: Arc::clone(&in_critical),
                overlaps: Arc::clone(&overlaps),
                hold_left: 0,
            },
        )
    };
    let mut system = mono_system(vec![make(1), make(2)], |intra| {
        intra.create_semaphore("mutex", 1, 1).unwrap()
    });
    system.run_for(1000);
    assert_eq!(*overlaps.lock().unwrap(), 0, "critical sections overlapped");
    assert_eq!(system.trace().deadline_miss_count(), 0);
}

/// Waits on the "go" event once, then counts ticks.
struct EventWaiter {
    started: bool,
    waiting: bool,
    progressed: Arc<Mutex<u64>>,
}

impl ProcessBody for EventWaiter {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        if self.waiting {
            let _ = api.apex.take_wake_cause(api.me);
            self.waiting = false;
            self.started = true;
        }
        if self.started {
            *self.progressed.lock().unwrap() += 1;
            return;
        }
        let (intra, pos) = api.apex.intra_and_pos();
        match intra.wait_event(api.me, "go", Timeout::Infinite, api.now, pos) {
            Ok(Outcome::Done(())) => self.started = true,
            Ok(Outcome::Blocked) => self.waiting = true,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Sets the "go" event at t >= 200.
struct EventSetter {
    done: bool,
}

impl ProcessBody for EventSetter {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        if !self.done && api.now >= Ticks(200) {
            let (intra, pos) = api.apex.intra_and_pos();
            intra.set_event("go", api.now, pos).unwrap();
            self.done = true;
        }
        let _ = api.apex.timed_wait(api.me, Ticks(5), api.now);
    }
}

#[test]
fn event_gates_progress_until_set() {
    let progressed = Arc::new(Mutex::new(0u64));
    let mut system = mono_system(
        vec![
            ProcessConfig::new(
                ProcessAttributes::new("waiter").with_base_priority(Priority(1)),
                EventWaiter {
                    started: false,
                    waiting: false,
                    progressed: Arc::clone(&progressed),
                },
            ),
            ProcessConfig::new(
                ProcessAttributes::new("setter").with_base_priority(Priority(5)),
                EventSetter { done: false },
            ),
        ],
        |intra| intra.create_event("go").unwrap(),
    );
    system.run_for(195);
    assert_eq!(*progressed.lock().unwrap(), 0, "gated until the event");
    system.run_for(305);
    assert!(
        *progressed.lock().unwrap() > 200,
        "released after the event"
    );
}
