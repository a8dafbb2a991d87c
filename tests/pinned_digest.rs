//! Absolute output pins for the packet-level model.
//!
//! `golden_digest.rs` compares execution variants (calendar backends,
//! shard counts, speculation) with one another, so a change that
//! shifts every variant alike slips past it. These tests pin what the
//! model *computes* instead: for representative runs they compare a
//! digest of the report against a constant recorded from the reference
//! implementation. Any performance change to the fabric, the
//! engine or the policies must leave every line here unchanged.
//!
//! Pinned per run: the packet counters (messages, offered, accepted,
//! dropped, ACKs, notifications), the simulated end time and truncation
//! flag, the execution time, the global mean latency (exact bits), and
//! the latency quantile sketch (sample total, maximum and an FNV-1a
//! hash of the bucket counts); for some runs also a hash of the
//! per-router contention means (the latency map). Deliberately not
//! pinned: host-side cost counters such as `Fabric::events_processed`
//! and the per-kind dispatch counts in `FabricStats::events`, which
//! event-protocol optimizations lower on purpose.
//!
//! The constants were recorded on x86_64 Linux. Inter-arrival sampling
//! goes through `f64::ln`, whose last-ULP behaviour depends on the
//! platform's libm, so a different platform may need its own recording
//! (the committed `results/` artifacts carry the same dependency).

use pr_drb::prelude::*;
use pr_drb::simcore::hash::StableHasher;
use pr_drb::topology::{FaultEvent, FaultPlan, RouterId, TimedFault, LINK_CLASS_GLOBAL};

/// One-line digest of everything the model computed for `cfg`.
fn digest(cfg: SimConfig) -> String {
    digest_of(&run(cfg))
}

/// [`digest`] of a finished run.
fn digest_of(r: &RunReport) -> String {
    let mut h = StableHasher::new();
    for &c in r.quantiles.counts() {
        h.write_u64(c);
    }
    format!(
        "counters={},{},{},{},{},{} end={} truncated={} exec={:?} lat={:016x} q={},{},{:016x}",
        r.messages,
        r.offered,
        r.accepted,
        r.dropped,
        r.acks_sent,
        r.notifications,
        r.end_ns,
        r.truncated,
        r.exec_time_ns,
        r.global_avg_latency_us.to_bits(),
        r.quantiles.total(),
        r.quantiles.max_ns(),
        h.finish(),
    )
}

/// FNV-1a hash of the per-router contention means (exact bits). Each
/// mean is a `RunningMean` folded in sample order, so it pins the order
/// in which a router moves and transmits packets, not just their count.
fn contention_hash(r: &RunReport) -> String {
    let mut h = StableHasher::new();
    for &v in &r.latency_map.values_us {
        h.write_u64(v.to_bits());
    }
    format!("{:016x}", h.finish())
}

/// Shortened Fig 4.12 hot spot: repetitive shuffle bursts on the 8×8
/// mesh under PR-DRB with the router-threshold monitor armed.
fn mesh_prdrb_hotspot() -> SimConfig {
    let schedule = BurstSchedule::repetitive(TrafficPattern::Shuffle, 600.0, 1_000_000, 500_000);
    let mut cfg = SimConfig::synthetic(TopologyKind::Mesh8x8, PolicyKind::PrDrb, schedule, 64);
    cfg.duration_ns = 2 * MILLISECOND;
    cfg.max_ns = 4000 * MILLISECOND;
    cfg.net.monitor.router_threshold_ns = 4_000;
    cfg.drb.threshold_low_ns = 8_000;
    cfg.drb.threshold_high_ns = 20_000;
    cfg.seed = 0x5eed_0001;
    cfg
}

#[test]
fn mesh_prdrb_hotspot_output_is_pinned() {
    assert_eq!(
        digest(mesh_prdrb_hotspot()),
        "counters=6784,6784,6784,0,6784,1502 end=2259834 truncated=false exec=None lat=40307606cd7bf14b q=6784,118053,331d16e61d30734f"
    );
}

/// The same hot spot's latency map: every router's contention mean.
#[test]
fn mesh_prdrb_hotspot_contention_means_are_pinned() {
    assert_eq!(
        contention_hash(&run(mesh_prdrb_hotspot())),
        "9369dd04c55365f9"
    );
}

/// The hot spot with router-based notification (§3.4.1): congested
/// routers inject predictive ACKs themselves, so the GPA path feeds
/// the output queues from inside a transmit.
#[test]
fn mesh_router_based_output_is_pinned() {
    let schedule = BurstSchedule::repetitive(TrafficPattern::Shuffle, 600.0, 500_000, 250_000);
    let mut cfg = SimConfig::synthetic(TopologyKind::Mesh8x8, PolicyKind::PrDrb, schedule, 64);
    cfg.duration_ns = MILLISECOND;
    cfg.max_ns = 4000 * MILLISECOND;
    cfg.net.monitor.router_threshold_ns = 4_000;
    cfg.drb.router_based = true;
    cfg.seed = 0x5eed_0004;
    let r = run(cfg);
    assert!(r.notifications > 0, "the router-based monitor must fire");
    assert_eq!(
        format!("{} map={}", digest_of(&r), contention_hash(&r)),
        "counters=3087,3087,3087,0,4152,629 end=1295015 truncated=false exec=None lat=402abca900f39141 q=3087,96581,d5773a9b46a70f91 map=517943c610fbc813"
    );
}

/// A POP trace on the fat-tree: the player injects the next message at
/// the instant a receive completes, so host sends land at delivery
/// instants.
#[test]
fn pop_trace_output_is_pinned() {
    let cfg = SimConfig::trace(TopologyKind::FatTree443, PolicyKind::PrDrb, pop(16, 2));
    let r = run(cfg);
    assert_eq!(
        format!("{} map={}", digest_of(&r), contention_hash(&r)),
        "counters=507,1546,1546,0,507,135 end=997268 truncated=false exec=Some(996176) lat=4040fb60d3c36921 q=1546,204804,5762f9d5732f488b map=4fd7007dff247079"
    );
}

/// A mesh with zero wire and header delay: a transmitted header reaches
/// the next router at the instant it leaves, so no same-instant
/// follow-up may run ahead of that arrival.
#[test]
fn zero_delay_mesh_output_is_pinned() {
    let schedule = BurstSchedule::continuous(TrafficPattern::Shuffle, 800.0);
    let mut cfg = SimConfig::synthetic(TopologyKind::Mesh8x8, PolicyKind::PrDrb, schedule, 64);
    cfg.duration_ns = MILLISECOND / 2;
    cfg.max_ns = 400 * MILLISECOND;
    cfg.net.wire_delay_ns = 0;
    cfg.net.header_ns = 0;
    cfg.seed = 0x5eed_0005;
    let r = run(cfg);
    assert_eq!(
        format!("{} map={}", digest_of(&r), contention_hash(&r)),
        "counters=3131,3131,3131,0,3131,655 end=719170 truncated=false exec=None lat=40432d6860846d5a q=3131,303915,e23cf99058bc5641 map=d778ecc465be57a0"
    );
}

/// Zero-delay wires behind a nonzero header time: every hop still
/// takes time, but a credit returns upstream at the instant its input
/// slot frees.
#[test]
fn zero_wire_mesh_output_is_pinned() {
    let schedule = BurstSchedule::continuous(TrafficPattern::Shuffle, 800.0);
    let mut cfg = SimConfig::synthetic(TopologyKind::Mesh8x8, PolicyKind::PrDrb, schedule, 64);
    cfg.duration_ns = MILLISECOND / 2;
    cfg.max_ns = 400 * MILLISECOND;
    cfg.net.wire_delay_ns = 0;
    cfg.seed = 0x5eed_0006;
    let r = run(cfg);
    assert_eq!(
        format!("{} map={}", digest_of(&r), contention_hash(&r)),
        "counters=3143,3143,3143,0,3143,683 end=704209 truncated=false exec=None lat=40450f3e4da06d0e q=3143,327573,52b07ef8582f47b0 map=3cbf23897200b7b5"
    );
}

/// Shortened Fig 4.13: fat-tree shuffle bursts under PR-DRB.
#[test]
fn fat_tree_shuffle_output_is_pinned() {
    let schedule = BurstSchedule::repetitive(TrafficPattern::Shuffle, 600.0, 200_000, 100_000);
    let mut cfg = SimConfig::synthetic(TopologyKind::FatTree443, PolicyKind::PrDrb, schedule, 32);
    cfg.duration_ns = MILLISECOND;
    cfg.max_ns = 200 * MILLISECOND;
    assert_eq!(
        digest(cfg),
        "counters=1277,1277,1277,0,1277,135 end=1439318 truncated=false exec=None lat=4029fedb0236ebb3 q=1277,103569,e1ee3848987f70ad"
    );
}

/// The dragonfly72 noise scenario under UGAL on two shards: a ring
/// stencil plus adversarial shift flows, uniform sprayers on one
/// terminal per group, 500 ns extra on global wires.
#[test]
fn dragonfly_ugal_noise_k2_output_is_pinned() {
    const GROUPS: u32 = 9;
    const PER_GROUP: u32 = 8;
    let peer = |g: u32, k: u32| NodeId(((g + 1) % GROUPS) * PER_GROUP + k);
    let mut cfg = SimConfig::synthetic(
        TopologyKind::Dragonfly { a: 9, r: 4, h: 2 },
        PolicyKind::Ugal,
        BurstSchedule::continuous(TrafficPattern::Uniform, 1.0),
        0,
    );
    cfg.workload = Workload::Flows {
        flows: (0..GROUPS)
            .flat_map(|g| (0..=5).map(move |k| (NodeId(g * PER_GROUP + k), peer(g, k))))
            .collect(),
        mbps: 300.0,
        noise_nodes: (0..GROUPS).map(|g| NodeId(g * PER_GROUP + 7)).collect(),
        noise_mbps: 900.0,
        msg_bytes: 1024,
    };
    cfg.net.wire_class_extra_ns[LINK_CLASS_GLOBAL as usize] = 500;
    cfg.drb.threshold_low_ns = 6_000;
    cfg.drb.threshold_high_ns = 15_000;
    cfg.duration_ns = 100 * MICROSECOND;
    cfg.max_ns = 2000 * MILLISECOND;
    cfg.shards = 2;
    cfg.seed = 0x5eed_0003;
    assert_eq!(
        digest(cfg),
        "counters=360,360,360,0,360,0 end=192832 truncated=false exec=None lat=402bcd4cd37b9ba6 q=360,54687,126b0fbb0f84fdeb"
    );
}

/// A faulted fat-tree run: seeded link failures and recoveries plus a
/// router failure mid-run, under PR-DRB — drops, degraded-mode
/// rerouting and link retraining all feed the pinned counters.
#[test]
fn faulted_fat_tree_output_is_pinned() {
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
    assert_eq!(
        digest(cfg),
        "counters=794,794,789,5,789,72 end=564950 truncated=false exec=None lat=402977faaefa1e53 q=789,62525,c88b0aed7289d1e4"
    );
}
