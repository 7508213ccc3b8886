//! Allocation-regression pin for the DSP hot paths (DESIGN.md §12).
//!
//! A counting global allocator wraps the system allocator; the single
//! test below warms the workspace/template fast paths and then asserts
//! that steady-state iterations perform **zero** heap allocations:
//!
//! * the five-chirp localization burst through
//!   `Localizer::process_with` on a warmed `DspWorkspace`, with the two
//!   antennas' chains at once (helper free) and in turn (every core
//!   occupied),
//! * the link-side symbol loop: uplink query-tone fetches from the
//!   template cache,
//! * the full Field-2 render: `Network::field2_captures_into` through a
//!   warmed `ChannelWorkspace` + `Field2Burst` — channel synthesis
//!   included (static-scene response cache + hoisted ray tables,
//!   DESIGN.md §13), not just the processing half,
//! * the serving loop (DESIGN.md §15): a whole seeded epoch of
//!   `Localize` sessions through the pooled serving engine — admission,
//!   chains, steal dispatch, scratch checkout, resolutions, report.
//!
//! One test function on purpose: the allocation counter is process-wide,
//! so a second concurrently-running test would pollute the deltas.

use milback::{Fidelity, Network};
use milback_ap::workspace::DspWorkspace;
use milback_dsp::par;
use milback_dsp::template;
use milback_rf::geometry::{deg_to_rad, Pose};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Pass-through allocator that counts heap acquisitions (`alloc`,
/// `alloc_zeroed`, `realloc`); frees are not counted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn warmed_hot_paths_perform_zero_heap_allocations() {
    // ---- five-chirp localization burst ------------------------------
    let pose = Pose::facing_ap(3.0, deg_to_rad(4.0), 0.0);
    let mut net = Network::new(pose, Fidelity::Fast, 0xA110C);
    let (tx, captures) = net.field2_captures(5);
    let localizer = net.localizer();
    let mut ws = DspWorkspace::new();

    // Warm-up: grows the workspace buffers, builds the cached FFT plan
    // and checks the fix against the bits the allocating reference
    // pipeline recorded for this capture.
    let expect = localizer.process_with(&mut ws, &tx, &captures);
    let fix = expect.expect("warm-up localization failed");
    assert_eq!(
        (
            fix.range.to_bits(),
            fix.angle.map(f64::to_bits),
            fix.peak_power.to_bits()
        ),
        (
            0x4007_bf0f_1fb3_7abc,
            Some(0x3fb2_5e20_3547_b15c),
            0x3f34_dd8b_51c1_10aa
        ),
        "warm-up fix moved"
    );
    assert_eq!(localizer.process_with(&mut ws, &tx, &captures), expect);

    // Both paths (DESIGN.md §17.4): the antennas' chains at once while
    // the `par` helper is free (on a multi-core host), then in turn with
    // every core counted busy.
    for cores_busy in [false, true] {
        let _busy = cores_busy.then(|| par::occupy(par::cores()));
        let before = allocs();
        for _ in 0..5 {
            let got = localizer.process_with(&mut ws, &tx, &captures);
            assert_eq!(got, expect);
        }
        assert_eq!(
            allocs() - before,
            0,
            "warmed localization burst allocated on the heap (cores busy: {cores_busy})"
        );
    }

    // ---- link symbol loop: tone templates -----------------------------
    let (fs, fc, f_off, amp, n) = (4e9, 28e9, 150e6, 1.0, 4096);

    // Warm-up: populates the template cache (query tone).
    let tone_ref = template::tone(fs, fc, f_off, amp, n);
    assert_eq!(tone_ref.len(), n);

    let before = allocs();
    for _ in 0..5 {
        let tone = template::tone(fs, fc, f_off, amp, n);
        assert!(std::rc::Rc::ptr_eq(&tone, &tone_ref), "tone cache missed");
    }
    assert_eq!(
        allocs() - before,
        0,
        "warmed link symbol loop allocated on the heap"
    );

    // ---- full Field-2 render: channel synthesis included ------------
    // A caller-owned workspace + burst, so warm-up is explicit. The
    // scene is the clutter-rich indoor default, so this covers the
    // static-response cache, the hoisted ray tables AND the capture
    // noise/jitter loop.
    let mut cw = milback_rf::ChannelWorkspace::default();
    let mut burst = milback::network::Field2Burst::default();
    net.field2_captures_into(&mut cw, 5, &mut burst);
    net.field2_captures_into(&mut cw, 5, &mut burst);
    assert_eq!(burst.captures.len(), 5);

    let before = allocs();
    for _ in 0..3 {
        net.field2_captures_into(&mut cw, 5, &mut burst);
    }
    assert_eq!(
        allocs() - before,
        0,
        "warmed Field-2 render (channel synthesis) allocated on the heap"
    );

    // And the fully-composed trial the batch engine runs: render through
    // the thread-local burst/channel workspaces, process through the
    // thread-local DSP workspace.
    assert!(net.localize().is_some(), "warm-up localize failed");
    let before = allocs();
    for _ in 0..3 {
        assert!(net.localize().is_some(), "steady-state localize failed");
    }
    assert_eq!(
        allocs() - before,
        0,
        "warmed end-to-end localize allocated on the heap"
    );

    // ---- serving loop: pooled sessions through the engine -----------
    // The §15 serving engine's `Localize` service class end to end:
    // admission, per-node chains, the work-stealing dispatch (1 thread
    // = inline), pooled scratch checkout, fault-plan reuse, resolution
    // slots and the report. Epoch 1 grows every pool; a repeat of the
    // same seeded schedule must then allocate nothing.
    use milback::serve::roster;
    use milback::{ServeConfig, ServeEngine, TrafficConfig, TrafficSchedule, Workload};
    let traffic = TrafficConfig {
        nodes: 3,
        sessions: 12,
        rate_hz: 5.0,           // light load: nothing sheds or rejects
        localize_fraction: 1.0, // the zero-allocation service class
        ..TrafficConfig::milback()
    };
    let schedule = TrafficSchedule::generate(&traffic, 0x5E4E);
    assert!(schedule
        .requests
        .iter()
        .all(|r| r.workload == Workload::Localize));
    let mut engine = ServeEngine::new(&roster(traffic.nodes, 0x5E4E), ServeConfig::milback());
    let warm = engine.serve_schedule(&schedule, 1);
    assert_eq!(warm.completed, traffic.sessions, "warm-up epoch degraded");

    let before = allocs();
    let steady = engine.serve_schedule(&schedule, 1);
    assert_eq!(
        allocs() - before,
        0,
        "warmed serving loop allocated on the heap"
    );
    assert_eq!(
        steady.outcome_digest, warm.outcome_digest,
        "serving epochs diverged"
    );

    // ---- serving loop: all three service classes ---------------------
    // The mixed workload exercises `Downlink` and `Uplink` sessions
    // through the same pooled lanes. The link layer proper (captures,
    // modulator schedules, uplink demod scratch, ARQ state) is pooled;
    // the measured steady-state remainder per exchange session lives in
    // the Field-1 mode-signalling / orientation-sensing chain (fresh
    // video and smoothing buffers per chirp) plus the decoded payload
    // handed back in each report. Pinned per exchange so it can only
    // shrink.
    let mixed = TrafficConfig {
        nodes: 3,
        sessions: 12,
        rate_hz: 5.0,           // light load: nothing sheds or rejects
        localize_fraction: 0.4, // all three classes in the mix
        uplink_fraction: 0.5,
        ..TrafficConfig::milback()
    };
    let mixed_schedule = TrafficSchedule::generate(&mixed, 0x5E4F);
    let count = |w: Workload| {
        mixed_schedule
            .requests
            .iter()
            .filter(|r| r.workload == w)
            .count() as u64
    };
    let exchanges = count(Workload::Downlink) + count(Workload::Uplink);
    assert!(count(Workload::Localize) > 0, "mix lost its Localize class");
    assert!(count(Workload::Downlink) > 0, "mix lost its Downlink class");
    assert!(count(Workload::Uplink) > 0, "mix lost its Uplink class");
    let mut mixed_engine = ServeEngine::new(&roster(mixed.nodes, 0x5E4F), ServeConfig::milback());
    let mixed_warm = mixed_engine.serve_schedule(&mixed_schedule, 1);
    assert_eq!(
        mixed_warm.completed, mixed.sessions,
        "warm-up epoch degraded"
    );

    let before = allocs();
    let mixed_steady = mixed_engine.serve_schedule(&mixed_schedule, 1);
    let per_exchange = (allocs() - before) / exchanges;
    assert!(
        per_exchange <= 95,
        "warmed mixed serving loop allocated {per_exchange}/exchange \
         (mode/orientation sensing chain + decoded payload expected)"
    );
    assert_eq!(
        mixed_steady.outcome_digest, mixed_warm.outcome_digest,
        "mixed serving epochs diverged"
    );

    // ---- dense-network fabric round (DESIGN.md §16) ------------------
    // One scheduled polling round end to end: drift (disabled), cell
    // assignment, slot layout, per-slot reseed/clock/interferer fill and
    // the supervised session — all against pooled state. Two nodes with
    // one parked interferer each keeps the shared channel workspace
    // within its cache caps (8 ray entries, 2 statics), so a re-keyed
    // repeat of the warm round must not touch the heap.
    use milback::net::{ap_line, net_roster, Fabric, NetConfig};
    let aps = ap_line(1, 4.0);
    let roster_poses = net_roster(2, &aps, 0x2E7);
    let net_cfg = NetConfig {
        max_interferers: 1,
        localize_fraction: 1.0, // the zero-allocation service class
        ..NetConfig::milback(Fidelity::Fast)
    };
    let mut fabric = Fabric::new(&aps, &roster_poses, net_cfg);
    fabric.reseed(0xFA8);
    let warm_round = fabric.run_round(1);
    assert_eq!(warm_round.sessions, 2, "warm-up round degraded");

    let before = allocs();
    fabric.reseed(0xFA8);
    let steady_round = fabric.run_round(1);
    assert_eq!(
        allocs() - before,
        0,
        "warmed fabric round allocated on the heap"
    );
    assert_eq!(
        steady_round.digest, warm_round.digest,
        "fabric rounds diverged"
    );

    // ---- pooled link layer: downlink ---------------------------------
    // Every per-transfer buffer lives in the network's `LinkScratch`
    // (waveforms, port renders, detector videos, demod/codec scratch),
    // so a warmed downlink's only heap allocation is the decoded payload
    // `Vec<u8>` handed back in the report — exactly one acquisition per
    // transfer.
    let pose = Pose::facing_ap(2.0, 0.0, deg_to_rad(12.0));
    let mut link_net = Network::new(pose, Fidelity::Fast, 0x11A8);
    let payload: Vec<u8> = (0..16).collect();
    for _ in 0..2 {
        let report = link_net.downlink(&payload, 1e6, true).expect("no tones");
        assert_eq!(report.bit_errors, 0, "warm-up downlink degraded");
    }
    let before = allocs();
    for _ in 0..3 {
        let report = link_net.downlink(&payload, 1e6, true).expect("no tones");
        assert_eq!(report.payload.as_deref().unwrap(), &payload[..]);
    }
    assert_eq!(
        allocs() - before,
        3,
        "warmed downlink allocated beyond the decoded payload"
    );

    // ---- pooled link layer: uplink -----------------------------------
    // With the receiver demodulating through the pooled `UplinkScratch`
    // (branch chains, cached anti-alias designs, symbol points,
    // projections, slices), a warmed uplink matches the downlink: the
    // only heap allocation per transfer is the decoded payload `Vec<u8>`
    // handed back in the report.
    for _ in 0..2 {
        let report = link_net.uplink(&payload, 5e6, true).expect("no tones");
        assert_eq!(report.bit_errors, 0, "warm-up uplink degraded");
    }
    let before = allocs();
    let reps = 3u64;
    for _ in 0..reps {
        let report = link_net.uplink(&payload, 5e6, true).expect("no tones");
        assert_eq!(report.payload.as_deref().unwrap(), &payload[..]);
    }
    let per_transfer = (allocs() - before) / reps;
    assert!(
        per_transfer <= 1,
        "warmed uplink allocated {per_transfer}/transfer (decoded payload only expected)"
    );
}
