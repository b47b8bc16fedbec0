//! The VITRAL screen (Fig. 9): the windows exist, show partition output,
//! AIR component activity and health-monitoring events, and render
//! deterministically.

use air_core::prototype::PrototypeHarness;
use air_model::prototype::MTF;

const M: u64 = MTF.as_u64();

#[test]
fn fig9_windows_all_present() {
    let mut proto = PrototypeHarness::build_with_vitral();
    proto.system.run_for(2 * M);
    let frame = proto.system.render_vitral().expect("vitral enabled");
    for title in [
        "P0 AOCS",
        "P1 OBDH",
        "P2 TTC",
        "P3 PAYLOAD-FDIR",
        "AIR PMK",
        "Health Monitor",
    ] {
        assert!(
            frame.contains(title),
            "missing window '{title}' in\n{frame}"
        );
    }
}

#[test]
fn partition_output_lands_in_its_window() {
    let mut proto = PrototypeHarness::build_with_vitral();
    proto.system.run_for(3 * M);
    let frame = proto.system.render_vitral().unwrap();
    // TTC's received telemetry lines show inside the screen.
    assert!(frame.contains("rx frame-"), "{frame}");
    // AIR activity (partition switches) shows in the AIR PMK window.
    assert!(frame.contains("PartitionSwitch"), "{frame}");
}

#[test]
fn deadline_misses_show_in_the_hm_window() {
    let mut proto = PrototypeHarness::build_with_vitral();
    proto.fault.activate();
    proto.system.run_for(3 * M);
    let frame = proto.system.render_vitral().unwrap();
    assert!(frame.contains("DeadlineMiss"), "{frame}");
}

#[test]
fn rendering_is_stable_between_steps() {
    let mut proto = PrototypeHarness::build_with_vitral();
    proto.system.run_for(M);
    let a = proto.system.render_vitral().unwrap();
    let b = proto.system.render_vitral().unwrap();
    assert_eq!(a, b, "no time passed, no new content");
    proto.system.run_for(M);
    let c = proto.system.render_vitral().unwrap();
    assert_ne!(a, c, "new activity must appear");
}

#[test]
fn disabled_vitral_renders_nothing() {
    let mut proto = PrototypeHarness::build();
    proto.system.run_for(10);
    assert!(proto.system.render_vitral().is_none());
}
