//! Golden-digest determinism tests for the hot-path optimizations.
//!
//! The timing-wheel calendar, the packet arena and the memoized route
//! tables are pure wall-clock optimizations: they must not change a
//! single output bit. Each test runs a shortened stand-in for one of the
//! headline repro targets (`fig4_8`, `fig4_13`, `load_sweep`) under both
//! calendar backends and asserts the run-cache CSV encodings — which
//! serialize every f64 as its exact bit pattern — are byte-identical.
//! The heap backend exercises none of the wheel/cascade machinery, so
//! agreement here pins the optimized paths to the reference semantics.
//!
//! The per-kind calendar dispatch counts (`FabricStats::events`) must
//! agree across the same variants: they are deterministic host-cost
//! counters, summed over shards.
//!
//! Digests are compared between backends inside one process rather than
//! against hardcoded constants: latency math goes through `ln()`, whose
//! last-ULP behaviour is platform-dependent, so a stored digest would
//! couple the test to one libm build.

use pr_drb::engine::cache::report_to_csv;
use pr_drb::engine::{RunKey, Simulation};
use pr_drb::network::EVENT_KINDS;
use pr_drb::prelude::*;
use pr_drb::simcore::QueueKind;

/// Run `cfg` to completion, returning the report and the fabric's
/// per-kind calendar dispatch counts.
fn run_counted(cfg: SimConfig) -> (RunReport, [u64; EVENT_KINDS.len()]) {
    let (report, stats) = Simulation::new(cfg).run_with_fabric_stats();
    (report, stats.events)
}

/// Run `cfg` under both calendar backends and at 1/2/3/4/8 fabric
/// shards (non-divisor counts included — uneven partitions must not
/// perturb a bit); assert the cache keys and the canonical CSV reports
/// agree byte for byte across every execution variant, and that every
/// variant dispatches the same number of calendar events of each kind.
fn assert_backend_invariant(label: &str, cfg: SimConfig) {
    let mut heap_cfg = cfg.clone();
    heap_cfg.net.queue = QueueKind::Heap;
    let mut wheel_cfg = cfg;
    wheel_cfg.net.queue = QueueKind::Wheel;
    let (kh, kw) = (RunKey::of(&heap_cfg), RunKey::of(&wheel_cfg));
    assert_eq!(
        kh, kw,
        "{label}: the calendar backend must not enter the run-cache key"
    );
    let (heap, ref_events) = run_counted(heap_cfg);
    let reference = report_to_csv(kh, &heap);
    for shards in [1u32, 2, 3, 4, 8] {
        let mut cfg = wheel_cfg.clone();
        cfg.shards = shards;
        assert_eq!(
            RunKey::of(&cfg),
            kh,
            "{label}: the shard count must not enter the run-cache key"
        );
        let (report, events) = run_counted(cfg);
        assert_eq!(
            report_to_csv(kw, &report),
            reference,
            "{label}: wheel-backed run at shards={shards} diverged from \
             the heap reference"
        );
        assert_eq!(
            events, ref_events,
            "{label}: per-kind event counts at shards={shards} differ from \
             the heap reference ({EVENT_KINDS:?})"
        );
    }
    // Optimistic (checkpoint/rollback) execution legs: speculation may
    // only change how much each barrier commits, never what — the
    // committed artifacts must match the serial reference bit for bit
    // on both calendar backends, and the knob (like the shard count)
    // must stay out of the run identity.
    for (shards, queue) in [
        (2u32, QueueKind::Wheel),
        (4, QueueKind::Wheel),
        (4, QueueKind::Heap),
    ] {
        let mut cfg = wheel_cfg.clone();
        cfg.net.queue = queue;
        cfg.shards = shards;
        cfg.speculate = true;
        assert_eq!(
            RunKey::of(&cfg),
            kh,
            "{label}: the speculation knob must not enter the run-cache key"
        );
        let (report, events) = run_counted(cfg);
        assert_eq!(
            report_to_csv(kw, &report),
            reference,
            "{label}: speculative run at shards={shards} ({queue:?}) \
             diverged from the heap reference"
        );
        assert_eq!(
            events, ref_events,
            "{label}: per-kind event counts of the speculative run at \
             shards={shards} ({queue:?}) differ from the heap reference"
        );
    }
}

/// Shortened `fig4_8`: mesh hot-spot situation 1 under DRB — exercises
/// the mesh route tables, MSP headers and the destination-based monitor.
#[test]
fn mesh_hotspot_digest_is_backend_invariant() {
    let mesh = pr_drb::topology::Mesh2D::new(8, 8);
    let scenario = HotSpotScenario::situation1(&mesh);
    let mut cfg = SimConfig::synthetic(
        TopologyKind::Mesh8x8,
        PolicyKind::Drb,
        BurstSchedule::continuous(TrafficPattern::Uniform, 100.0),
        0,
    );
    cfg.workload = Workload::Flows {
        flows: scenario.flows.clone(),
        mbps: 600.0,
        noise_nodes: scenario.noise_nodes.clone(),
        noise_mbps: 40.0,
        msg_bytes: 1024,
    };
    cfg.duration_ns = MILLISECOND / 2;
    cfg.max_ns = 50 * MILLISECOND;
    assert_backend_invariant("fig4_8 stand-in", cfg);
}

/// Shortened `fig4_13`: fat-tree shuffle bursts under PR-DRB — exercises
/// the tree tables (seed routes), the solution database and ACK traffic.
#[test]
fn fat_tree_permutation_digest_is_backend_invariant() {
    let schedule = BurstSchedule::repetitive(TrafficPattern::Shuffle, 600.0, 200_000, 100_000);
    let mut cfg = SimConfig::synthetic(TopologyKind::FatTree443, PolicyKind::PrDrb, schedule, 32);
    cfg.duration_ns = MILLISECOND;
    cfg.max_ns = 200 * MILLISECOND;
    assert_backend_invariant("fig4_13 stand-in", cfg);
}

/// Faulted fat-tree scenario: a seeded mid-run fault plan (link-downs,
/// recoveries and a router-down) under PR-DRB. Fault application is a
/// pure function of the plan and simulated time, so the dropped-packet
/// accounting, the degraded-mode rerouting and the solution
/// invalidations must all land identically under both calendar backends
/// and at every shard count — and the plan must enter the run key (same
/// config minus the plan is a different run).
#[test]
fn faulted_scenario_digest_is_backend_invariant() {
    use pr_drb::topology::{FaultEvent, FaultPlan, RouterId, TimedFault};
    let schedule = BurstSchedule::continuous(TrafficPattern::Shuffle, 400.0);
    let mut cfg = SimConfig::synthetic(TopologyKind::FatTree443, PolicyKind::PrDrb, schedule, 32);
    cfg.duration_ns = MILLISECOND / 2;
    cfg.max_ns = 50 * MILLISECOND;
    let topo = TopologyKind::FatTree443.build();
    let mut events = FaultPlan::seeded(&topo, 7, 4, 50_000, 400_000)
        .events()
        .to_vec();
    events.push(TimedFault {
        at: 150_000,
        fault: FaultEvent::RouterDown {
            router: RouterId(20),
        },
    });
    cfg.faults = FaultPlan::new(events);
    let mut fault_free = cfg.clone();
    fault_free.faults = FaultPlan::none();
    assert_ne!(
        RunKey::of(&cfg),
        RunKey::of(&fault_free),
        "the fault plan must participate in the run-cache key"
    );
    assert_backend_invariant("faulted stand-in", cfg);
}

/// Each collective family (operation × schedule shape) lowered onto the
/// trace player. Collectives run serial by design (the player leaves
/// zero host lookahead), so shard counts 2/4 must fall back to the
/// serial fabric bit-identically — the invariance here proves the
/// fallback, and the calendar backends still both execute for real.
#[test]
fn collective_digest_is_backend_invariant() {
    for (kind, shape) in [
        (CollectiveKind::AllToAll, ScheduleShape::Ring),
        (CollectiveKind::AllToAll, ScheduleShape::Tree),
        (CollectiveKind::AllReduce, ScheduleShape::Ring),
        (CollectiveKind::AllReduce, ScheduleShape::Tree),
    ] {
        let spec = CollectiveSpec::new(kind, shape, 16, 16 * 1024);
        let cfg = SimConfig::collective(TopologyKind::FatTree443, PolicyKind::PrDrb, spec, 2);
        assert_backend_invariant(&format!("collective {}", spec.label()), cfg);
    }
}

/// The mini-app phase loop on the 8×8 mesh under PR-DRB: phase streams
/// consult the program and the phase-boundary wakeups, both host-side
/// and therefore identical under every fabric backend.
#[test]
fn phased_digest_is_backend_invariant() {
    let program = PhaseProgram::mini_app(3, 150_000, 500.0);
    let cfg = SimConfig::phased(TopologyKind::Mesh8x8, PolicyKind::PrDrb, program, 32);
    assert_backend_invariant("mini-app phases", cfg);
}

/// The open-loop heavy-tail workload: per-source sampler substreams are
/// pure functions of the seed, so the arrival process — and with it the
/// whole run — must not depend on the execution backend.
#[test]
fn open_loop_digest_is_backend_invariant() {
    let mut cfg = SimConfig::open_loop(
        TopologyKind::FatTree443,
        PolicyKind::PrDrb,
        OpenLoopSpec::heavy_tail(40_000.0),
        32,
    );
    cfg.duration_ns = MILLISECOND / 2;
    cfg.max_ns = 50 * MILLISECOND;
    assert_backend_invariant("open-loop heavy-tail", cfg);
}

/// Per-link latency classes on a board-assembled mesh: wires crossing a
/// board seam carry a large global-class extra
/// (`NetworkConfig::wire_class_extra_ns`), the strip partitioner snaps
/// its cuts to the seams, and the window driver earns the full
/// inter-board delay as lookahead — the wide-window configuration the
/// parallel fabric is optimized for. The extra delay is physical (it
/// changes every seam crossing's timing), so it must enter the run key,
/// and the wide-window execution must stay bit-identical to serial at
/// every shard count and under both calendar backends.
#[test]
fn board_mesh_latency_class_digest_is_backend_invariant() {
    let schedule = BurstSchedule::continuous(TrafficPattern::Shuffle, 400.0);
    let mut cfg = SimConfig::synthetic(
        TopologyKind::BoardMesh {
            w: 8,
            h: 8,
            board_h: 2,
        },
        PolicyKind::PrDrb,
        schedule,
        32,
    );
    cfg.net.wire_class_extra_ns = [0, 240, 0];
    cfg.duration_ns = MILLISECOND / 2;
    cfg.max_ns = 50 * MILLISECOND;
    let mut flat = cfg.clone();
    flat.net.wire_class_extra_ns = [0, 0, 0];
    assert_ne!(
        RunKey::of(&cfg),
        RunKey::of(&flat),
        "latency-class extras are physical and must enter the run key"
    );
    assert_backend_invariant("board-mesh latency classes", cfg);
}

/// Shortened `load_sweep` point: continuous shuffle near saturation for
/// every policy family member — the deterministic route floods the
/// calendar with far-apart retries, stressing the wheel's overflow path.
#[test]
fn load_sweep_digest_is_backend_invariant() {
    for policy in [
        PolicyKind::Deterministic,
        PolicyKind::Drb,
        PolicyKind::PrDrb,
    ] {
        let schedule = BurstSchedule::continuous(TrafficPattern::Shuffle, 800.0);
        let mut cfg = SimConfig::synthetic(TopologyKind::FatTree443, policy, schedule, 32);
        cfg.duration_ns = MILLISECOND / 2;
        cfg.max_ns = 4000 * MILLISECOND;
        assert_backend_invariant("load_sweep stand-in", cfg);
    }
}
