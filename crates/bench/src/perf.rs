//! `repro bench` — the perf-trajectory harness.
//!
//! A fixed set of hot-path kernels timed on every invocation, so the
//! repo carries a machine-readable record (`results/BENCH_PRDRB.json`)
//! of how fast the simulator core is at each commit:
//!
//! * `event_churn_heap` / `event_churn_wheel` — raw calendar churn
//!   through both [`EventQueue`] backends with a standing population and
//!   the fabric's near/far delay mix. The wheel-over-heap ratio is the
//!   headline number for the timing-wheel optimization.
//! * `mesh_hotspot` — fabric-level hot-spot corridor on the 8×8 mesh
//!   (route tables + packet arena under contention).
//! * `ft_shuffle` — fabric-level shuffle permutation on the 64-node
//!   fat-tree (tree route tables, ascending/descending phases).
//!
//!   These and the other bare-fabric kernels (`dfly_fabric`,
//!   `fabric_parallel_*`) count delivered packets, not calendar
//!   events: an event-protocol change that removes events would
//!   otherwise read as a slow-down while the wall time falls. The
//!   gate matches baselines on (kernel, unit), so a unit change
//!   enters fail-soft as a new kernel.
//! * `pop_trace` — a full POP application trace under PR-DRB through
//!   the whole engine stack (policy, ACKs, player).
//! * `workload_collective` / `workload_phases` / `workload_openloop` —
//!   one full-stack engine run per application-workload family (ring
//!   all-to-all on the fat-tree, the mini-app phase loop on the mesh,
//!   heavy-tailed open-loop arrivals), so the trajectory records the
//!   end-to-end message rate of each generator path.
//! * `dfly_fabric` / `dfly_noise` — the dragonfly extension's hot
//!   paths: a bare-fabric churn over the palm-tree global links
//!   (group-ring stencil plus a rotating all-to-all background on the
//!   72-terminal dragonfly), and a full-stack UGAL run under uniform
//!   load (per-flow EWMA estimators, destination ACKs, Valiant-style
//!   misroutes). New kernels enter the trajectory gate fail-soft: the
//!   first runs on a host record baselines ("new kernel, no baseline")
//!   before the median comparison arms.
//! * `dfly_noise_k1` / `dfly_noise_k2` — the fig_dfly noise scenario
//!   under UGAL through the whole engine, serial and on 2 shards
//!   (speculation off). Its windows hold only microseconds of work,
//!   so the K=2 leg measures the shard pool's per-barrier cost: a pool
//!   that fights its own driver for cores runs it two orders of
//!   magnitude below K=1. The legs must deliver identical data and
//!   ACK counts, and K=2 must reach [`DFLY_SHARD_FLOOR`]× the K=1 rate
//!   on hosts with at least [`DFLY_FLOOR_MIN_CORES`] hardware threads
//!   (`PRDRB_SHARD_FLOOR=enforce|off` overrides).
//! * `fabric_parallel_wide_k{1,2,4}` — a fat-tree hot-spot workload
//!   driven through the conservative-parallel [`ShardedFabric`] at 1, 2
//!   and 4 shards, with the spine on long (global-class) wires so pod
//!   cuts get the full inter-board delay as lookahead. The scenario is
//!   sized so the K=1 leg runs for hundreds of milliseconds — long
//!   enough that a real multi-core speedup is measurable above window
//!   overheads. Event and delivery counts *and* the deterministic
//!   window/handoff aggregates are cross-checked across shard counts,
//!   and each record carries window count, average window width and
//!   barrier-wait time alongside packets/s. The headline is the K=4
//!   self-relative speedup over K=1; on a single-core host the auto
//!   backend degenerates to sequential windowing, so the honest number
//!   there is the windowing overhead (≈1×), not a speedup. On hosts
//!   with more than [`SHARD_FLOOR_MIN_CORES`] cores a
//!   < [`SHARD_SPEEDUP_FLOOR`]× full-mode run fails the bench; hosts
//!   without that headroom (shared CI runners with exactly as many
//!   cores as the K=4 kernel wants are too noisy for a hard wall-clock
//!   gate) report the ratio advisorily. `PRDRB_SHARD_FLOOR=enforce|off`
//!   overrides the auto rule either way, for dedicated perf hardware.
//! * `fabric_parallel_spec_k1` / `fabric_parallel_narrow_k4` /
//!   `fabric_parallel_spec_k4` — the *zero-lookahead* counterpart:
//!   default uniform 10 ns wires, so the conservative window is a
//!   single wire delay and PR 8's backend degenerates to barrier-bound
//!   crawling (`narrow_k4`). Traffic is pod-local shuffle plus two
//!   rare cross-pod flows — exactly the regime the optimistic mode
//!   bets on — and `spec_k4` reruns it with checkpoint/rollback
//!   speculation ([`SpecConfig::default`]). The headline is
//!   speculative-over-conservative at K=4; the floor
//!   ([`SPEC_SPEEDUP_FLOOR`]) is enforced under the same core-count /
//!   `PRDRB_SPEC_FLOOR` rule as the shard floor, and the K=1 leg pins
//!   the determinism cross-check (all three legs must process the
//!   identical event/delivery schedule).
//!
//! `--quick` shrinks every kernel for CI smoke use. The exit code is
//! nonzero when a kernel panics, the smoke thresholds regress, or the
//! trajectory gate ([`crate::analysis`]) finds the run more than 15 %
//! below its own recent median.
//!
//! `results/BENCH_PRDRB.json` is an append-only trajectory: each
//! invocation appends one run record (tagged with a sanitized host
//! name) to the `runs` array instead of overwriting the file, so the
//! artifact carries the perf history of the machine it was grown on.

use crate::analysis::{gate_trajectory, split_runs, trajectory_json};
use crate::report;
use prdrb_apps::pop;
use prdrb_core::PolicyKind;
use prdrb_engine::{RunReport, SimConfig, TopologyKind};
use prdrb_network::{
    Fabric, NetworkConfig, Packet, ParallelStats, ShardedFabric, SpecConfig, EVENT_KINDS,
};
use prdrb_simcore::time::{MICROSECOND, MILLISECOND};
use prdrb_simcore::{EventQueue, QueueKind};
use prdrb_topology::{AnyTopology, NodeId, PathDescriptor, RouteState};
use prdrb_traffic::{
    BurstSchedule, CollectiveKind, CollectiveSpec, OpenLoopSpec, PhaseProgram, ScheduleShape,
    TrafficPattern,
};
use std::time::Instant;

/// One timed kernel result.
struct Kernel {
    name: &'static str,
    /// What `count` counts: "events" (calendar kernels), "packets"
    /// (fabric kernels) or "messages" (engine kernels).
    unit: &'static str,
    count: u64,
    wall_s: f64,
    /// Window/handoff/steal aggregates for sharded kernels.
    shard: Option<ParallelStats>,
    /// Calendar dispatches per event kind (bare-fabric kernels), named
    /// by [`EVENT_KINDS`].
    events: Option<[u64; EVENT_KINDS.len()]>,
}

impl Kernel {
    fn per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.count as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Deterministic delay stream mimicking the fabric's mix: mostly short
/// routing/transmission delays, a slice of far-future retries that take
/// the wheel's overflow path.
fn next_delay(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let r = *state >> 33;
    if r % 16 == 15 {
        100_000 + r % 1_000_000
    } else {
        1 + r % 8_000
    }
}

/// Calendar churn: hold ~4096 live events, pop one / push one `ops`
/// times. Identical op sequence for both backends.
fn event_churn(kind: QueueKind, ops: u64) -> Kernel {
    const POPULATION: u64 = 4096;
    let mut q: EventQueue<u64> = EventQueue::with_kind(kind, POPULATION as usize);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..POPULATION {
        q.schedule_in(next_delay(&mut state), i);
    }
    let t0 = Instant::now();
    for _ in 0..ops {
        let e = q.pop().expect("population never drains");
        q.schedule_in(next_delay(&mut state), e.event);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let name = match kind {
        QueueKind::Heap => "event_churn_heap",
        QueueKind::Wheel => "event_churn_wheel",
    };
    Kernel {
        name,
        unit: "events",
        count: ops,
        wall_s,
        shard: None,
        events: None,
    }
}

/// Drive a bare fabric: inject one packet per flow per round, advance
/// the clock by `gap_ns`, recycle deliveries — the router/NIC hot loop
/// without policy overhead. Counts delivered packets.
fn fabric_kernel(
    name: &'static str,
    topo: AnyTopology,
    flows: &[(NodeId, NodeId)],
    rounds: u32,
    gap_ns: u64,
) -> Kernel {
    let net = NetworkConfig {
        acks_enabled: false,
        ..NetworkConfig::default()
    };
    let mut fabric = Fabric::new(topo, net);
    let mut out = Vec::new();
    let mut delivered = 0u64;
    let t0 = Instant::now();
    let mut now = 0u64;
    for _ in 0..rounds {
        for &(src, dst) in flows {
            let id = fabric.alloc_id();
            fabric.inject(Packet::data(
                id,
                src,
                dst,
                1024,
                now,
                RouteState::new(PathDescriptor::Minimal),
                0,
                id,
                0,
                true,
                false,
            ));
        }
        now += gap_ns;
        fabric.run_until(now);
        fabric.take_deliveries(&mut out);
        delivered += out.len() as u64;
        for d in out.drain(..) {
            fabric.recycle(d.packet);
        }
    }
    fabric.run_to_quiescence(now + 1_000_000_000);
    fabric.take_deliveries(&mut out);
    delivered += out.len() as u64;
    for d in out.drain(..) {
        fabric.recycle(d.packet);
    }
    Kernel {
        name,
        unit: "packets",
        count: delivered,
        wall_s: t0.elapsed().as_secs_f64(),
        shard: None,
        events: Some(fabric.stats.events),
    }
}

/// Hot-spot corridor on the 8×8 mesh: four sources hammer one
/// destination while every node runs a coprime-offset background flow.
fn mesh_hotspot(quick: bool) -> Kernel {
    let mut flows: Vec<(NodeId, NodeId)> = (0..4).map(|i| (NodeId(24 + i), NodeId(23))).collect();
    flows.extend((0..64).map(|i| (NodeId(i), NodeId((i + 13) % 64))));
    fabric_kernel(
        "mesh_hotspot",
        AnyTopology::mesh8x8(),
        &flows,
        if quick { 80 } else { 400 },
        24_000,
    )
}

/// Shuffle permutation on the 64-node fat-tree (6-bit rotate-left).
fn ft_shuffle(quick: bool) -> Kernel {
    let flows: Vec<(NodeId, NodeId)> = (0u32..64)
        .map(|i| (NodeId(i), NodeId(((i << 1) | (i >> 5)) & 63)))
        .filter(|(s, d)| s != d)
        .collect();
    fabric_kernel(
        "ft_shuffle",
        AnyTopology::fat_tree_64(),
        &flows,
        if quick { 120 } else { 600 },
        6_000,
    )
}

/// Full-stack POP trace under PR-DRB (uncached — always a real run).
fn pop_trace(quick: bool) -> Kernel {
    let (ranks, steps) = if quick { (16, 2) } else { (64, 3) };
    engine_kernel(
        "pop_trace",
        SimConfig::trace(
            TopologyKind::FatTree443,
            PolicyKind::PrDrb,
            pop(ranks, steps),
        ),
    )
}

/// Time one full engine run, counting injected messages (uncached).
fn engine_kernel(name: &'static str, cfg: SimConfig) -> Kernel {
    engine_kernel_report(name, cfg).0
}

/// [`engine_kernel`], also handing back the run's report.
fn engine_kernel_report(name: &'static str, cfg: SimConfig) -> (Kernel, RunReport) {
    let t0 = Instant::now();
    let r = prdrb_engine::run(cfg);
    let k = Kernel {
        name,
        unit: "messages",
        count: r.messages,
        wall_s: t0.elapsed().as_secs_f64(),
        shard: None,
        events: None,
    };
    (k, r)
}

/// Ring all-to-all on the fat-tree: the collective lowering plus the
/// trace player's mailbox machinery under PR-DRB.
fn workload_collective(quick: bool) -> Kernel {
    let (ranks, iters) = if quick { (16, 2) } else { (64, 3) };
    let spec = CollectiveSpec::new(
        CollectiveKind::AllToAll,
        ScheduleShape::Ring,
        ranks,
        64 * 1024,
    );
    engine_kernel(
        "workload_collective",
        SimConfig::collective(TopologyKind::FatTree443, PolicyKind::PrDrb, spec, iters),
    )
}

/// The mini-app phase loop on the mesh: phase-boundary wakeups, the
/// pattern-similarity store and the per-phase probe flushes.
fn workload_phases(quick: bool) -> Kernel {
    let iters = if quick { 2 } else { 6 };
    let program = PhaseProgram::mini_app(iters, 150_000, 500.0);
    engine_kernel(
        "workload_phases",
        SimConfig::phased(TopologyKind::Mesh8x8, PolicyKind::PrDrb, program, 32),
    )
}

/// Heavy-tailed open-loop arrivals: per-source sampler substreams plus
/// solution-store eviction churn under a tight capacity bound.
fn workload_openloop(quick: bool) -> Kernel {
    let mut cfg = SimConfig::open_loop(
        TopologyKind::FatTree443,
        PolicyKind::PrDrb,
        OpenLoopSpec::heavy_tail(15_000.0),
        48,
    );
    cfg.duration_ns = if quick { MILLISECOND / 4 } else { MILLISECOND };
    cfg.drb.max_solutions = 64;
    engine_kernel("workload_openloop", cfg)
}

/// Bare-fabric churn on the 72-terminal dragonfly: the fig_dfly ring
/// stencil (one global link per hop by palm-tree construction) under a
/// rotating all-to-all background, so the kernel times the dragonfly
/// route tables and the global-link contention path.
fn dfly_fabric(quick: bool) -> Kernel {
    let mut flows: Vec<(NodeId, NodeId)> = (0u32..9)
        .map(|g| (NodeId(g * 8), NodeId(((g + 1) % 9) * 8)))
        .collect();
    flows.extend(
        (0u32..72)
            .map(|i| (NodeId(i), NodeId((i + 29) % 72)))
            .filter(|(s, d)| s != d),
    );
    fabric_kernel(
        "dfly_fabric",
        TopologyKind::Dragonfly { a: 9, r: 4, h: 2 }.build(),
        &flows,
        if quick { 80 } else { 400 },
        24_000,
    )
}

/// Full-stack UGAL run on the dragonfly under uniform load: per-flow
/// EWMA estimators fed by destination ACKs, with Valiant-style
/// misroutes whenever the minimal estimate degrades — the adaptive
/// baseline's whole decision loop, end to end.
fn dfly_noise(quick: bool) -> Kernel {
    let mut cfg = SimConfig::synthetic(
        TopologyKind::Dragonfly { a: 9, r: 4, h: 2 },
        PolicyKind::Ugal,
        BurstSchedule::continuous(TrafficPattern::Uniform, 600.0),
        72,
    );
    cfg.duration_ns = if quick {
        MILLISECOND / 8
    } else {
        MILLISECOND / 2
    };
    engine_kernel("dfly_noise", cfg)
}

/// The fig_dfly noise scenario under UGAL through the whole engine on
/// the sharded fabric (`dfly_noise_k2`, speculation off) and its
/// serial reference leg (`dfly_noise_k1`), injecting for 1 ms (quick)
/// or 4 ms. Its windows carry a few microseconds of work each, so the
/// K=2 leg times the pool's per-window barrier cost rather than any
/// parallel speedup: a pool that oversubscribes the host shows up here
/// as a K=2 rate orders of magnitude below K=1 ([`DFLY_SHARD_FLOOR`]).
fn dfly_noise_sharded(quick: bool) -> Vec<Kernel> {
    dfly_noise_legs(if quick { 1_000 } else { 4_000 } * MICROSECOND)
}

/// Both [`dfly_noise_sharded`] legs at `inject_ns` of injection.
/// Panics if they deliver different data or ACK counts.
fn dfly_noise_legs(inject_ns: u64) -> Vec<Kernel> {
    let mut kernels = Vec::new();
    let mut reference: Option<(u64, u64)> = None;
    for (name, shards) in [("dfly_noise_k1", 1u32), ("dfly_noise_k2", 2)] {
        let mut cfg = crate::figures::dfly::dfly_cfg(PolicyKind::Ugal, true);
        cfg.duration_ns = inject_ns;
        cfg.shards = shards;
        cfg.speculate = false;
        let (k, r) = engine_kernel_report(name, cfg);
        assert!(!r.truncated, "{name}: run hit its time wall");
        match reference {
            None => reference = Some((r.accepted, r.acks_sent)),
            Some(refr) => assert_eq!(
                (r.accepted, r.acks_sent),
                refr,
                "{name}: sharded deliveries/ACKs diverged from K=1"
            ),
        }
        kernels.push(k);
    }
    kernels
}

/// Drive the conservative-parallel fabric through the same hot loop as
/// [`fabric_kernel`] (counting delivered packets), returning the kernel
/// plus the calendar event count for the cross-shard identity check.
/// The fat-tree spine rides global-class wires (`wire_class_extra_ns`),
/// so the pod partition's all-spine cut earns the long-wire delay as
/// lookahead and windows stay wide enough to amortize the barrier.
fn sharded_kernel(
    name: &'static str,
    shards: u32,
    flows: &[(NodeId, NodeId)],
    rounds: u32,
    gap_ns: u64,
) -> (Kernel, u64) {
    let net = NetworkConfig {
        acks_enabled: false,
        // 800 ns lookahead across the pod cut (wire + global extra):
        // several hundred events per window, enough work per shard-task
        // to amortize the pool's epoch/barrier round trip.
        wire_class_extra_ns: [0, 790, 0],
        ..NetworkConfig::default()
    };
    sharded_kernel_with(name, shards, net, SpecConfig::off(), flows, rounds, gap_ns)
}

/// [`sharded_kernel`] with an explicit link model and speculation
/// tuning — the zero-lookahead speculative kernels use the default
/// uniform-wire `NetworkConfig` (10 ns conservative windows) and
/// switch the optimistic mode on per leg.
fn sharded_kernel_with(
    name: &'static str,
    shards: u32,
    net: NetworkConfig,
    spec: SpecConfig,
    flows: &[(NodeId, NodeId)],
    rounds: u32,
    gap_ns: u64,
) -> (Kernel, u64) {
    let mut fabric = ShardedFabric::new(AnyTopology::fat_tree_64(), net, shards);
    fabric.set_speculation(spec);
    let mut out = Vec::new();
    let mut delivered = 0u64;
    let t0 = Instant::now();
    let mut now = 0u64;
    for _ in 0..rounds {
        for &(src, dst) in flows {
            let id = fabric.alloc_id();
            fabric.inject(Packet::data(
                id,
                src,
                dst,
                1024,
                now,
                RouteState::new(PathDescriptor::Minimal),
                0,
                id,
                0,
                true,
                false,
            ));
        }
        now += gap_ns;
        fabric.run_until(now);
        fabric.take_deliveries(&mut out);
        delivered += out.len() as u64;
        for d in out.drain(..) {
            fabric.recycle(d.packet);
        }
    }
    fabric.run_to_quiescence(now + 1_000_000_000);
    fabric.take_deliveries(&mut out);
    delivered += out.len() as u64;
    for d in out.drain(..) {
        fabric.recycle(d.packet);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = fabric.parallel_stats();
    let k = Kernel {
        name,
        unit: "packets",
        count: delivered,
        wall_s,
        shard: Some(stats),
        events: None,
    };
    (k, fabric.events_processed())
}

/// Fat-tree hot-spot corridor at 1, 2 and 4 shards: four sources hammer
/// one destination under a full shuffle background, sized so the K=1
/// leg runs for hundreds of milliseconds in full mode. Panics if any
/// shard count processes a different event/delivery schedule — the
/// bench doubles as a determinism smoke test.
fn fabric_parallel(quick: bool) -> Vec<Kernel> {
    let mut flows: Vec<(NodeId, NodeId)> = (0..4).map(|i| (NodeId(8 + i), NodeId(7))).collect();
    flows.extend(
        (0u32..64)
            .map(|i| (NodeId(i), NodeId(((i << 1) | (i >> 5)) & 63)))
            .filter(|(s, d)| s != d),
    );
    let rounds = if quick { 60 } else { 3_000 };
    let mut kernels = Vec::new();
    let mut reference: Option<(u64, u64)> = None;
    for (name, shards) in [
        ("fabric_parallel_wide_k1", 1u32),
        ("fabric_parallel_wide_k2", 2),
        ("fabric_parallel_wide_k4", 4),
    ] {
        let (k, events) = sharded_kernel(name, shards, &flows, rounds, 8_000);
        match reference {
            None => reference = Some((events, k.count)),
            Some(refr) => {
                assert_eq!(
                    (events, k.count),
                    refr,
                    "{name}: sharded schedule diverged from K=1"
                );
            }
        }
        kernels.push(k);
    }
    kernels
}

/// Zero-lookahead speculation legs: default uniform 10 ns wires (the
/// conservative window is one wire delay), pod-local shuffle traffic
/// with two rare cross-pod flows. K=1 serial baseline, K=4
/// conservative (`narrow`) and K=4 optimistic (`spec`) must process
/// the identical event/delivery schedule — the bench doubles as the
/// zero-lookahead determinism smoke test — and the speculative leg
/// must actually speculate (≥ 1 committed speculative window).
fn fabric_parallel_spec(quick: bool) -> Vec<Kernel> {
    // Pod-local shuffle: node i talks to another terminal of its own
    // 16-wide pod, so at K=4 (one pod per shard) the bulk of the
    // traffic never crosses the cut...
    let mut flows: Vec<(NodeId, NodeId)> = (0u32..64)
        .map(|i| (NodeId(i), NodeId((i & !15) + ((i + 5) & 15))))
        .collect();
    // ...while two deliberate cross-pod flows keep the boundary-event
    // stream (and the abort path) alive without drowning the bet.
    flows.push((NodeId(0), NodeId(63)));
    flows.push((NodeId(32), NodeId(17)));
    let net = NetworkConfig {
        acks_enabled: false,
        ..NetworkConfig::default()
    };
    let rounds = if quick { 25 } else { 400 };
    let mut kernels = Vec::new();
    let mut reference: Option<(u64, u64)> = None;
    for (name, shards, spec) in [
        ("fabric_parallel_spec_k1", 1u32, SpecConfig::off()),
        ("fabric_parallel_narrow_k4", 4, SpecConfig::off()),
        ("fabric_parallel_spec_k4", 4, SpecConfig::default()),
    ] {
        let (k, events) = sharded_kernel_with(name, shards, net, spec, &flows, rounds, 8_000);
        match reference {
            None => reference = Some((events, k.count)),
            Some(refr) => {
                assert_eq!(
                    (events, k.count),
                    refr,
                    "{name}: schedule diverged from the K=1 baseline"
                );
            }
        }
        if name == "fabric_parallel_spec_k4" {
            let s = k.shard.as_ref().expect("sharded kernels carry aggregates");
            assert!(
                s.spec_commits > 0,
                "speculative leg never committed a speculative window"
            );
        }
        kernels.push(k);
    }
    kernels
}

/// Render one run record for the `runs` trajectory in
/// `results/BENCH_PRDRB.json` (hand-rolled: the workspace deliberately
/// carries no serialization dependency).
fn to_json(
    kernels: &[Kernel],
    churn_speedup: f64,
    shard_speedup: f64,
    spec_speedup: f64,
    quick: bool,
) -> String {
    let mut out = String::from("    {\n");
    out.push_str(&format!("      \"quick\": {quick},\n"));
    out.push_str(&format!("      \"host\": \"{}\",\n", bench_host()));
    out.push_str(&format!(
        "      \"churn_speedup_wheel_over_heap\": {churn_speedup:.3},\n"
    ));
    out.push_str(&format!(
        "      \"shard_speedup_k4_over_k1\": {shard_speedup:.3},\n"
    ));
    out.push_str(&format!(
        "      \"spec_speedup_k4_over_narrow\": {spec_speedup:.3},\n"
    ));
    out.push_str("      \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        let shard = match &k.shard {
            Some(s) => format!(
                ", \"windows\": {}, \"avg_window_ns\": {:.1}, \"handoff_events\": {}, \
                 \"barrier_wait_s\": {:.4}, \"steals\": {}, \"spec_commits\": {}, \
                 \"spec_aborts\": {}, \"spec_replays\": {}, \"spec_depth_sum\": {}",
                s.windows,
                s.avg_width_ns(),
                s.handoff_events,
                s.barrier_wait_ns as f64 / 1e9,
                s.steals,
                s.spec_commits,
                s.spec_aborts,
                s.spec_replays,
                s.spec_depth_sum
            ),
            None => String::new(),
        };
        // Last in the object: the gate reads a kernel's fields up to
        // the first closing brace, which this nested object ends.
        let events = match &k.events {
            Some(ev) => {
                let fields: Vec<String> = EVENT_KINDS
                    .iter()
                    .zip(ev)
                    .map(|(name, n)| format!("\"{name}\": {n}"))
                    .collect();
                format!(", \"events\": {{{}}}", fields.join(", "))
            }
            None => String::new(),
        };
        out.push_str(&format!(
            "        {{\"kernel\": \"{}\", \"unit\": \"{}\", \"count\": {}, \"wall_s\": {:.4}, \"per_sec\": {:.1}{}{}}}{}\n",
            k.name,
            k.unit,
            k.count,
            k.wall_s,
            k.per_sec(),
            shard,
            events,
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }");
    out
}

/// Host tag for the trajectory record, so the regression gate never
/// compares numbers taken on different machines. `PRDRB_BENCH_HOST`
/// overrides (CI sets a stable tag), else `HOSTNAME`, else "unknown".
/// Sanitized to `[A-Za-z0-9._-]` — the trajectory's brace-depth record
/// splitter relies on no string field ever containing a brace, and the
/// JSON writer on no embedded quote.
fn bench_host() -> String {
    let raw = std::env::var("PRDRB_BENCH_HOST")
        .or_else(|_| std::env::var("HOSTNAME"))
        .unwrap_or_else(|_| "unknown".into());
    let cleaned: String = raw
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '-'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "unknown".into()
    } else {
        cleaned
    }
}

/// Append one resilience record to the `results/BENCH_PRDRB.json`
/// trajectory (same append-only `runs` array the perf kernels use), so
/// the recovery-time history rides next to the throughput history.
/// `recs` holds `(pre-fault mean µs, post-fault peak µs, out-of-zone
/// ns, drops)` per report, in report order.
pub fn append_resilience_record(
    fault_ns: u64,
    reports: &[prdrb_engine::RunReport],
    recs: &[(f64, f64, u64, u64)],
) {
    let mut run = String::from("    {\n      \"kind\": \"resilience\",\n");
    run.push_str(&format!("      \"host\": \"{}\",\n", bench_host()));
    run.push_str(&format!(
        "      \"fault_at_ms\": {:.3},\n      \"policies\": [\n",
        fault_ns as f64 / 1e6
    ));
    for (i, (r, &(pre, peak, rec, dropped))) in reports.iter().zip(recs).enumerate() {
        run.push_str(&format!(
            "        {{\"policy\": \"{}\", \"pre_fault_us\": {:.2}, \"post_fault_peak_us\": {:.2}, \
             \"out_of_zone_ms\": {:.3}, \"dropped\": {}, \"solutions_invalidated\": {}}}{}\n",
            r.label,
            pre,
            peak,
            rec as f64 / 1e6,
            dropped,
            r.policy_stats.solutions_invalidated,
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    run.push_str("      ]\n    }");
    let bench_path = crate::results_dir().join("BENCH_PRDRB.json");
    let prior = std::fs::read_to_string(&bench_path)
        .map(|t| split_runs(&t))
        .unwrap_or_default();
    crate::write_artifact("BENCH_PRDRB.json", &trajectory_json(&prior, &run));
}

/// Smoke floor for wheel-backed calendar churn, events/sec. Any release
/// build clears this by two orders of magnitude; tripping it means the
/// wheel path broke badly.
const CHURN_FLOOR_PER_SEC: f64 = 1_000_000.0;
/// The wheel must actually beat the heap; slack below the recorded ~2×+
/// absorbs CI-runner noise.
const CHURN_SPEEDUP_FLOOR: f64 = 1.2;
/// K=4 over K=1 packets/s floor for the wide-window kernels, enforced
/// only on full (non-`--quick`) runs on hosts with *more than*
/// [`SHARD_FLOOR_MIN_CORES`] hardware threads — machines without
/// headroom over the kernel's 4 workers (exactly-4-core shared CI
/// runners included: OS jitter and noisy neighbors there routinely
/// cost more than the margin) report the number advisorily instead of
/// flaking the build. Set `PRDRB_SHARD_FLOOR=enforce` to gate
/// regardless of core count (dedicated perf hardware), `off` to never
/// gate.
pub const SHARD_SPEEDUP_FLOOR: f64 = 1.5;
/// Core count that must be *exceeded* before [`SHARD_SPEEDUP_FLOOR`]
/// is enforced — equal to the K=4 kernel's worker count.
pub const SHARD_FLOOR_MIN_CORES: usize = 4;
/// Speculative-over-conservative packets/s floor at K=4 on the
/// zero-lookahead kernel. Same enforcement rule as the shard floor
/// (full runs on hosts with more than [`SHARD_FLOOR_MIN_CORES`] cores;
/// `PRDRB_SPEC_FLOOR=enforce|off` overrides). Where the floor is
/// enforced, a speculative leg *slower* than the conservative one is
/// additionally called out as a controller breach — there, fewer
/// barriers must at least pay for the checkpoints. On hosts without
/// that core headroom the backend degenerates to sequential windows
/// whose barriers cost nothing, checkpointing is pure overhead by
/// construction, and the sub-1x ratio is reported as informational.
pub const SPEC_SPEEDUP_FLOOR: f64 = 1.2;

/// `dfly_noise_k2` over `dfly_noise_k1` messages/s floor. Its windows
/// carry microseconds of work, so the sharded leg cannot win and a
/// healthy pool lands well below 1× — but a pool that oversubscribes
/// the host's cores pays a scheduler time slice per barrier and falls
/// two orders of magnitude below K=1, which this floor catches.
/// Enforced on quick and full runs alike on hosts with at least
/// [`DFLY_FLOOR_MIN_CORES`] hardware threads (where the auto backend
/// runs the pool); `PRDRB_SHARD_FLOOR=enforce|off` overrides.
pub const DFLY_SHARD_FLOOR: f64 = 0.25;
/// Core count from which [`DFLY_SHARD_FLOOR`] is enforced.
pub const DFLY_FLOOR_MIN_CORES: usize = 2;

/// Run the bench suite; returns the process exit code.
pub fn run_bench(quick: bool) -> i32 {
    let churn_ops = if quick { 200_000 } else { 2_000_000 };
    let heap = event_churn(QueueKind::Heap, churn_ops);
    let wheel = event_churn(QueueKind::Wheel, churn_ops);
    let mut kernels = vec![
        heap,
        wheel,
        mesh_hotspot(quick),
        ft_shuffle(quick),
        pop_trace(quick),
        workload_collective(quick),
        workload_phases(quick),
        workload_openloop(quick),
        dfly_fabric(quick),
        dfly_noise(quick),
    ];
    kernels.extend(dfly_noise_sharded(quick));
    kernels.extend(fabric_parallel(quick));
    kernels.extend(fabric_parallel_spec(quick));
    let speedup = if kernels[0].wall_s > 0.0 {
        kernels[0].wall_s / kernels[1].wall_s.max(1e-12)
    } else {
        0.0
    };
    // Speedups are looked up by kernel name, not position — the suite
    // grows and reorders without silently skewing the headline ratios.
    // A missing name is a harness bug (a renamed kernel would make the
    // ratio garbage and the CI floor vacuous), so it fails loudly.
    let per_sec_of = |name: &str| {
        kernels
            .iter()
            .find(|k| k.name == name)
            .unwrap_or_else(|| panic!("bench kernel `{name}` missing from the suite"))
            .per_sec()
    };
    let shard_speedup =
        per_sec_of("fabric_parallel_wide_k4") / per_sec_of("fabric_parallel_wide_k1").max(1e-12);
    let spec_speedup =
        per_sec_of("fabric_parallel_spec_k4") / per_sec_of("fabric_parallel_narrow_k4").max(1e-12);
    let dfly_ratio = per_sec_of("dfly_noise_k2") / per_sec_of("dfly_noise_k1").max(1e-12);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows: Vec<(String, f64, bool)> = kernels
        .iter()
        .map(|k| (format!("{} ({})", k.name, k.unit), k.wall_s, true))
        .collect();
    print!("{}", report::timing_block("per-kernel wall-clock", &rows));
    for k in &kernels {
        println!("  {:<28} {:>14.0} {}/s", k.name, k.per_sec(), k.unit);
        if let Some(s) = &k.shard {
            println!(
                "  {:<28} {} windows, avg width {:.0} ns, {} handoffs, \
                 barrier wait {:.1} ms, {} steals",
                "",
                s.windows,
                s.avg_width_ns(),
                s.handoff_events,
                s.barrier_wait_ns as f64 / 1e6,
                s.steals
            );
            if s.spec_commits + s.spec_aborts > 0 {
                println!(
                    "  {:<28} speculation: {} committed, {} aborted ({} replays), \
                     {:.0}% commit rate, avg depth {:.0}",
                    "",
                    s.spec_commits,
                    s.spec_aborts,
                    s.spec_replays,
                    100.0 * s.spec_commit_rate(),
                    s.spec_depth_sum as f64 / (s.spec_commits + s.spec_aborts) as f64
                );
            }
        }
    }
    println!(
        "  calendar churn: wheel {:.2}x over heap ({:.2}M vs {:.2}M events/s)",
        speedup,
        kernels[1].per_sec() / 1e6,
        kernels[0].per_sec() / 1e6,
    );
    println!(
        "  sharded fabric: K=4 {shard_speedup:.2}x over K=1 ({cores} worker thread(s) available)"
    );
    println!(
        "  speculation: K=4 optimistic {spec_speedup:.2}x over K=4 conservative \
         on the zero-lookahead kernel"
    );
    println!("  dragonfly noise: K=2 engine run at {dfly_ratio:.2}x the K=1 rate");
    let bench_path = crate::results_dir().join("BENCH_PRDRB.json");
    let prior = std::fs::read_to_string(&bench_path)
        .map(|t| split_runs(&t))
        .unwrap_or_default();
    let run = to_json(&kernels, speedup, shard_speedup, spec_speedup, quick);
    let doc = trajectory_json(&prior, &run);
    let path = crate::write_artifact("BENCH_PRDRB.json", &doc);
    println!("{}", report::cache_line());
    println!("bench artifact: {}", path.display());
    // Gate the run just appended against its trailing history; the
    // verdict is an artifact too, so CI can surface it without rerun.
    let gate = gate_trajectory(&doc);
    let gate_path = crate::write_artifact("BENCH_GATE.txt", &gate.render());
    print!("{}", gate.render());
    println!("gate artifact: {}", gate_path.display());
    if let Some((csv, json)) = crate::export_probe_artifacts() {
        println!("probe artifacts: {} {}", csv.display(), json.display());
    }
    let mut code = 0;
    if gate.failed() {
        eprintln!(
            "FAIL: {} kernel(s) regressed more than {}% vs the trailing median",
            gate.regressions(),
            crate::analysis::GATE_THRESHOLD_PCT
        );
        code = 1;
    }
    if kernels[1].per_sec() < CHURN_FLOOR_PER_SEC {
        eprintln!(
            "FAIL: wheel churn {:.0} events/s below the {:.0} smoke floor",
            kernels[1].per_sec(),
            CHURN_FLOOR_PER_SEC
        );
        code = 1;
    }
    if speedup < CHURN_SPEEDUP_FLOOR {
        eprintln!("FAIL: wheel speedup {speedup:.2}x below the {CHURN_SPEEDUP_FLOOR}x floor");
        code = 1;
    }
    let shard_floor_override = match std::env::var("PRDRB_SHARD_FLOOR").as_deref() {
        Ok("enforce") => Some(true),
        Ok("off") => Some(false),
        _ => None,
    };
    let enforce_shard_floor = shard_floor_override.unwrap_or(cores > SHARD_FLOOR_MIN_CORES);
    if !quick && shard_speedup < SHARD_SPEEDUP_FLOOR {
        if enforce_shard_floor {
            eprintln!(
                "FAIL: shard speedup K=4/K=1 {shard_speedup:.2}x below the \
                 {SHARD_SPEEDUP_FLOOR}x floor on a {cores}-core host"
            );
            code = 1;
        } else {
            println!(
                "  (advisory: shard speedup {shard_speedup:.2}x below the \
                 {SHARD_SPEEDUP_FLOOR}x floor; not enforced without > \
                 {SHARD_FLOOR_MIN_CORES} cores — this host has {cores})"
            );
        }
    }
    if dfly_ratio < DFLY_SHARD_FLOOR {
        if shard_floor_override.unwrap_or(cores >= DFLY_FLOOR_MIN_CORES) {
            eprintln!(
                "FAIL: dfly_noise K=2/K=1 {dfly_ratio:.3}x below the \
                 {DFLY_SHARD_FLOOR}x floor on a {cores}-core host"
            );
            code = 1;
        } else {
            println!(
                "  (advisory: dfly_noise K=2/K=1 {dfly_ratio:.3}x below the \
                 {DFLY_SHARD_FLOOR}x floor; not enforced on a {cores}-core host \
                 or with PRDRB_SHARD_FLOOR=off)"
            );
        }
    }
    let enforce_spec_floor = match std::env::var("PRDRB_SPEC_FLOOR").as_deref() {
        Ok("enforce") => true,
        Ok("off") => false,
        _ => cores > SHARD_FLOOR_MIN_CORES,
    };
    if !quick && spec_speedup < SPEC_SPEEDUP_FLOOR {
        if enforce_spec_floor {
            eprintln!(
                "FAIL: speculative speedup {spec_speedup:.2}x below the \
                 {SPEC_SPEEDUP_FLOOR}x floor over the conservative K=4 leg \
                 on a {cores}-core host"
            );
            code = 1;
        } else {
            println!(
                "  (advisory: speculative speedup {spec_speedup:.2}x below the \
                 {SPEC_SPEEDUP_FLOOR}x floor; not enforced without > \
                 {SHARD_FLOOR_MIN_CORES} cores — this host has {cores})"
            );
        }
        // Never-worse-than-conservative is the controller's contract
        // where speculation has barrier stalls to reclaim — i.e. the
        // same multi-core hosts the wall-clock floor gates. On a host
        // at or below the worker count the backend runs its windows
        // sequentially, barriers cost nothing, and every checkpoint is
        // pure overhead, so a sub-1x ratio there is the expected
        // physics of the mode, not a controller breach (5% slack
        // absorbs scheduler noise on tiny runs either way).
        if spec_speedup < 0.95 {
            if enforce_spec_floor {
                println!(
                    "  (warning: speculative leg ran {spec_speedup:.2}x the conservative \
                     leg — the conservative fallback should prevent this)"
                );
            } else {
                println!(
                    "  (note: on a {cores}-core host the sequential backend has no \
                     barrier stalls for speculation to reclaim, so the checkpoint \
                     cost shows up undiluted; the ratio is informational here)"
                );
            }
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_kernels_run_and_count() {
        let k = event_churn(QueueKind::Wheel, 5_000);
        assert_eq!(k.count, 5_000);
        assert_eq!(k.unit, "events");
    }

    #[test]
    fn fabric_kernels_deliver_every_packet() {
        // Quick sizes: rounds × flows injected, all delivered.
        let k = mesh_hotspot(true);
        assert_eq!((k.unit, k.count), ("packets", 80 * 68));
        // ACKs are off, so every Deliver dispatch is one counted packet;
        // transmit attempts run in per-router batches, never calendared.
        let ev = k.events.expect("fabric kernels count events");
        assert_eq!(ev[7], k.count, "{EVENT_KINDS:?} = {ev:?}");
        assert_eq!(ev[2], 0, "no TryTx dispatches: {ev:?}");
        let k = ft_shuffle(true);
        assert_eq!((k.unit, k.count), ("packets", 120 * 62));
    }

    #[test]
    fn dfly_kernels_process_work() {
        let k = dfly_fabric(true);
        assert_eq!((k.unit, k.count), ("packets", 80 * 81));
        let k = dfly_noise(true);
        assert!(k.count > 0, "messages {}", k.count);
        assert_eq!(k.unit, "messages");
    }

    #[test]
    fn dfly_sharded_legs_agree() {
        // The legs assert identical delivery/ACK counts internally.
        let ks = dfly_noise_legs(100 * MICROSECOND);
        let names: Vec<_> = ks.iter().map(|k| k.name).collect();
        assert_eq!(names, ["dfly_noise_k1", "dfly_noise_k2"]);
        assert_eq!(ks[0].count, ks[1].count, "same messages injected");
        assert!(ks[0].count > 0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let kernels = vec![
            Kernel {
                name: "event_churn_wheel",
                unit: "events",
                count: 10,
                wall_s: 0.5,
                shard: None,
                events: Some([3, 1, 0, 1, 2, 0, 1, 3]),
            },
            Kernel {
                name: "fabric_parallel_wide_k4",
                unit: "events",
                count: 40,
                wall_s: 0.5,
                shard: Some(ParallelStats {
                    windows: 7,
                    width_sum_ns: 1400,
                    handoff_events: 33,
                    barrier_wait_ns: 2_000_000,
                    steals: 5,
                    spec_commits: 3,
                    spec_aborts: 1,
                    spec_replays: 2,
                    spec_depth_sum: 12,
                }),
                events: None,
            },
        ];
        let run = to_json(&kernels, 2.0, 0.98, 1.7, true);
        let doc = trajectory_json(&[], &run);
        assert!(doc.contains("\"schema\": \"prdrb-bench-v2\""));
        assert!(doc.contains("\"per_sec\": 20.0"));
        assert!(doc.contains("\"shard_speedup_k4_over_k1\": 0.980"));
        assert!(doc.contains("\"spec_speedup_k4_over_narrow\": 1.700"));
        assert!(doc.contains("\"windows\": 7"));
        assert!(doc.contains("\"avg_window_ns\": 200.0"));
        assert!(doc.contains("\"handoff_events\": 33"));
        assert!(doc.contains("\"barrier_wait_s\": 0.0020"));
        assert!(doc.contains("\"steals\": 5"));
        assert!(doc.contains("\"spec_commits\": 3"));
        assert!(doc.contains("\"spec_aborts\": 1"));
        assert!(doc.contains("\"spec_replays\": 2"));
        assert!(doc.contains("\"spec_depth_sum\": 12"));
        assert!(doc.contains(
            "\"per_sec\": 20.0, \"events\": {\"Arrive\": 3, \"RouteTick\": 1, \"TryTx\": 0, \
             \"LinkFree\": 1, \"Credit\": 2, \"NicCredit\": 0, \"NicTx\": 1, \"Deliver\": 3}}"
        ));
        assert!(!doc.contains(",\n  ]"), "no trailing comma:\n{doc}");
        // The gate parser must still see both kernels' per_sec fields.
        let parsed = crate::analysis::parse_run(&split_runs(&doc)[0]).unwrap();
        assert_eq!(parsed.kernels.len(), 2);
        assert!((parsed.kernels[1].per_sec - 80.0).abs() < 1e-9);
    }

    #[test]
    fn trajectory_appends_across_invocations() {
        let kernels = vec![Kernel {
            name: "event_churn_wheel",
            unit: "events",
            count: 10,
            wall_s: 0.5,
            shard: None,
            events: None,
        }];
        let first = trajectory_json(&[], &to_json(&kernels, 2.0, 1.0, 1.0, true));
        let second = trajectory_json(&split_runs(&first), &to_json(&kernels, 2.1, 1.1, 1.0, true));
        let runs = split_runs(&second);
        assert_eq!(runs.len(), 2, "both invocations survive:\n{second}");
        assert!(runs[0].contains("\"churn_speedup_wheel_over_heap\": 2.000"));
        assert!(runs[1].contains("\"churn_speedup_wheel_over_heap\": 2.100"));
    }

    #[test]
    fn legacy_v1_artifact_becomes_first_trajectory_entry() {
        let v1 = "{\n  \"schema\": \"prdrb-bench-v1\",\n  \"quick\": true,\n  \
                  \"kernels\": [\n    {\"kernel\": \"x\"}\n  ]\n}\n";
        let prior = split_runs(v1);
        assert_eq!(prior.len(), 1);
        let doc = trajectory_json(&prior, &to_json(&[], 2.0, 1.0, 1.0, true));
        assert!(doc.contains("prdrb-bench-v1"), "legacy record kept:\n{doc}");
        assert_eq!(split_runs(&doc).len(), 2);
    }

    #[test]
    fn sharded_kernels_agree_on_the_schedule() {
        // `fabric_parallel` asserts event/delivery identity across
        // shard counts internally; a tiny run exercises that check.
        let flows = [(NodeId(0), NodeId(9)), (NodeId(3), NodeId(40))];
        let (k1, e1) = sharded_kernel("k1", 1, &flows, 5, 8_000);
        let (k4, e4) = sharded_kernel("k4", 4, &flows, 5, 8_000);
        assert_eq!((e1, k1.count), (e4, k4.count));
        assert_eq!(k1.unit, "packets");
        assert_eq!(k1.count, 10, "every injected packet delivers");
        let s1 = k1.shard.expect("sharded kernels carry aggregates");
        let s4 = k4.shard.expect("sharded kernels carry aggregates");
        assert_eq!(s1.handoff_events, 0, "K=1 has no cut to hand off over");
        assert!(s4.handoff_events > 0, "cross-pod flow must cross the cut");
        assert!(s4.windows > 0);
    }

    #[test]
    fn speculative_kernels_agree_on_the_schedule() {
        // The full `fabric_parallel_spec` suite asserts schedule
        // identity internally; a shrunk run exercises the check plus
        // the speculation aggregates end to end.
        let flows = [
            (NodeId(1), NodeId(6)),
            (NodeId(17), NodeId(22)),
            (NodeId(0), NodeId(63)),
        ];
        let net = NetworkConfig {
            acks_enabled: false,
            ..NetworkConfig::default()
        };
        let (kc, ec) = sharded_kernel_with("narrow", 4, net, SpecConfig::off(), &flows, 6, 8_000);
        let (ks, es) = sharded_kernel_with("spec", 4, net, SpecConfig::default(), &flows, 6, 8_000);
        assert_eq!((ec, kc.count), (es, ks.count));
        let sc = kc.shard.expect("sharded kernels carry aggregates");
        let ss = ks.shard.expect("sharded kernels carry aggregates");
        assert_eq!(sc.spec_commits + sc.spec_aborts, 0, "off means off");
        assert!(ss.spec_commits > 0, "speculation must engage: {ss:?}");
        assert!(
            ss.windows < sc.windows,
            "speculative windows must be wider (fewer): {} vs {}",
            ss.windows,
            sc.windows
        );
    }
}
