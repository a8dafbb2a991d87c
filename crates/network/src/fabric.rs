//! The network fabric: routers, links, NICs and the event loop.
//!
//! Implements the router architecture of Fig 4.5 at packet granularity:
//!
//! * per-input-port, per-virtual-channel FIFO queues gated by
//!   **credit-based flow control** (§2.1.3) so the network is lossless —
//!   the evaluation guarantees offered load equals accepted load (§4.2);
//! * a routing unit with fixed per-hop delay and **round-robin
//!   arbitration** over the input queues (Fig 4.6: "simultaneous requests
//!   are served by round-robin");
//! * per-output-port queues feeding **virtual cut-through** links: the
//!   downstream router receives the header after the wire + header time
//!   and may forward while the tail still serializes, but the full packet
//!   size is reserved downstream on arrival (§2.1.2);
//! * the monitoring modules of the PR-DRB router (Fig 3.19): Latency
//!   Update accumulates queuing delay in the packet header (Eq 3.3),
//!   Contending-Flows Detection fires when an output-queue wait crosses
//!   the threshold, and Generation-of-Predictive-ACKs injects router
//!   notifications in the router-based scheme (§3.4.1).
//!
//! Deadlock freedom: multi-step paths switch to a higher-numbered virtual
//! channel at each intermediate node (the escape-channel-per-segment
//! scheme of §3.2.8), each segment uses minimal static routing, and the
//! VC index only ever increases along a path, so the channel dependency
//! graph is acyclic.

use crate::config::{NetworkConfig, NotifyMode};
use crate::monitor::{contending_flows, dedup_sources};
use crate::packet::{Packet, PacketKind};
use crate::pool::PacketPool;
use prdrb_simcore::stats::{RunningMean, TimeSeries};
use prdrb_simcore::time::{ns_to_us, Time};
use prdrb_simcore::EventQueue;
use prdrb_topology::{
    AnyTopology, Endpoint, FaultEvent, FaultPlan, FaultState, NodeId, PathDescriptor, Port,
    RouteState, RouteTable, RouterId, ShardPlan, Topology,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Virtual channels: one escape layer per multi-step-path segment.
pub const NUM_VCS: usize = 3;

/// Packet-id class flag: destination-generated ACK for data packet `x`
/// carries id `x | ACK_ID_FLAG`. Deriving control-packet ids from
/// content (instead of a shared counter) keeps ids identical between
/// serial and sharded execution, where a counter would be bumped in a
/// different order.
pub const ACK_ID_FLAG: u64 = 1 << 63;

/// Packet-id class flag for router-generated predictive ACKs (GPA,
/// §3.4.1): id = `GPA_ID_FLAG | (router << 8) | port`. At most one GPA
/// volley fires per (router, port, instant) — the link must have just
/// transmitted, and a busy link blocks a second same-instant TryTx — so
/// the id uniquely identifies concurrent control packets.
pub const GPA_ID_FLAG: u64 = 1 << 62;

/// Host-allocated ids must stay below every derived-id class and inside
/// the 29-bit event-key signature window.
const MAX_HOST_ID: u64 = 1 << 27;

/// A packet handed to the host (data at its destination, ACK at the
/// original source).
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Arrival time (tail fully received).
    pub at: Time,
    /// The packet.
    pub packet: Box<Packet>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum NetEvent {
    /// Packet header reaches a router input port.
    Arrive {
        router: RouterId,
        port: Port,
        packet: Box<Packet>,
    },
    /// Run the routing + arbitration stage of a router.
    RouteTick { router: RouterId },
    /// Try to transmit from an output port.
    TryTx { router: RouterId, port: Port },
    /// An output link finished serializing.
    LinkFree { router: RouterId, port: Port },
    /// Credit returned to a router's output port for a downstream VC.
    Credit {
        router: RouterId,
        port: Port,
        vc: u8,
        bytes: u32,
    },
    /// Credit returned to a NIC.
    NicCredit { node: NodeId, vc: u8, bytes: u32 },
    /// Try to inject from a NIC queue.
    NicTx { node: NodeId },
    /// Full packet received by a terminal.
    Deliver { node: NodeId, packet: Box<Packet> },
}

impl NetEvent {
    /// Index of this event's kind in [`EVENT_KINDS`] — also the 3-bit
    /// kind field of its calendar key.
    #[inline]
    fn kind(&self) -> usize {
        match self {
            NetEvent::Arrive { .. } => 0,
            NetEvent::RouteTick { .. } => 1,
            NetEvent::TryTx { .. } => 2,
            NetEvent::LinkFree { .. } => 3,
            NetEvent::Credit { .. } => 4,
            NetEvent::NicCredit { .. } => 5,
            NetEvent::NicTx { .. } => 6,
            NetEvent::Deliver { .. } => 7,
        }
    }
}

/// Names of the fabric's calendar event kinds, in key order: the
/// indices of [`FabricStats::events`].
pub const EVENT_KINDS: [&str; 8] = [
    "Arrive",
    "RouteTick",
    "TryTx",
    "LinkFree",
    "Credit",
    "NicCredit",
    "NicTx",
    "Deliver",
];

/// 29-bit packet-id signature for event keys: the two id-class bits
/// (plain / ACK / GPA) followed by the low 27 id bits. Distinct packets
/// that could meet at one (entity, instant) always differ in it — host
/// ids are unique below [`MAX_HOST_ID`], derived ids are unique per
/// class (see [`ACK_ID_FLAG`] / [`GPA_ID_FLAG`]).
#[inline]
pub(crate) fn id_sig(id: u64) -> u64 {
    ((id >> 62) << 27) | (id & (MAX_HOST_ID - 1))
}

/// The calendar key a delivery's `Deliver` event carried, minus the
/// kind tag (all deliveries share it). Sorting a window's deliveries by
/// `(at, this)` reproduces the serial fabric's pop order, because
/// within one instant the keyed calendar orders `Deliver` events by
/// exactly `node << 37 | id_sig(id)`.
#[inline]
pub(crate) fn delivery_order_key(d: &Delivery) -> (Time, u64) {
    (d.at, (d.packet.dst.0 as u64) << 37 | id_sig(d.packet.id))
}

/// Content-derived calendar key: a total priority over same-instant
/// events that both serial and sharded execution apply, making the pop
/// order independent of insertion order. Any two same-time events with
/// equal keys are interchangeable (identical kind + coordinates + — for
/// packet-carrying events — packet identity), so the residual
/// insertion-order tie-break can never change simulation results.
///
/// Layout: kind (3 bits) | router-or-node (24) | port (8) | vc/id (29).
fn event_key(ev: &NetEvent) -> u64 {
    const KIND: u32 = 61;
    const ENTITY: u32 = 37;
    const PORT: u32 = 29;
    const VC: u32 = 27;
    match *ev {
        NetEvent::Arrive {
            router,
            port,
            ref packet,
        } => (router.0 as u64) << ENTITY | (port.0 as u64) << PORT | id_sig(packet.id),
        NetEvent::RouteTick { router } => 1 << KIND | (router.0 as u64) << ENTITY,
        NetEvent::TryTx { router, port } => {
            2 << KIND | (router.0 as u64) << ENTITY | (port.0 as u64) << PORT
        }
        NetEvent::LinkFree { router, port } => {
            3 << KIND | (router.0 as u64) << ENTITY | (port.0 as u64) << PORT
        }
        NetEvent::Credit {
            router, port, vc, ..
        } => 4 << KIND | (router.0 as u64) << ENTITY | (port.0 as u64) << PORT | (vc as u64) << VC,
        NetEvent::NicCredit { node, vc, .. } => {
            5 << KIND | (node.0 as u64) << ENTITY | (vc as u64) << VC
        }
        NetEvent::NicTx { node } => 6 << KIND | (node.0 as u64) << ENTITY,
        NetEvent::Deliver { node, ref packet } => {
            7 << KIND | (node.0 as u64) << ENTITY | id_sig(packet.id)
        }
    }
}

/// A boundary event bound for another shard, parked in the source
/// shard's outbox until the next window barrier. The destination shard
/// is encoded by the outbox *lane* the event sits in, not stored per
/// event — handoffs move whole lanes, never individual events.
#[derive(Debug, Clone)]
pub(crate) struct StagedEvent {
    /// Fire time (≥ window start + lookahead by construction).
    pub(crate) at: Time,
    /// Pre-computed [`event_key`].
    pub(crate) key: u64,
    /// Fabric clock when the event was staged — the generation time.
    /// Speculative validation keeps a staged event only when its
    /// generation lies at or before the commit horizon (the generating
    /// prefix is the part of the speculative run that survives).
    pub(crate) gen: Time,
    ev: NetEvent,
}

/// Shard identity of a fabric instance running under a [`ShardPlan`].
#[derive(Debug)]
struct ShardCtx {
    id: u32,
    plan: Arc<ShardPlan>,
    /// One outbox lane per destination shard (own lane stays empty).
    /// Lanes are flushed wholesale at each window barrier and keep
    /// their capacity, so steady-state handoffs never allocate.
    outbox: Vec<Vec<StagedEvent>>,
}

#[derive(Debug)]
struct RouterState {
    /// `in_q[port][vc]`.
    in_q: Vec<[VecDeque<Box<Packet>>; NUM_VCS]>,
    /// One bit per input lane (`port * NUM_VCS + vc`): set while the
    /// lane holds packets, so the routing scan skips empty lanes.
    in_occ: u64,
    out_q: Vec<VecDeque<Box<Packet>>>,
    out_bytes: Vec<u32>,
    /// Propagation delay of the wire behind each port — the base
    /// `wire_delay_ns` plus the per-latency-class extra. Precomputed at
    /// build so the hot path never consults the topology.
    wire_ns: Vec<Time>,
    /// Credits toward the downstream input queue per (out port, vc);
    /// `i64::MAX / 2` marks terminal-facing ports (infinite sink).
    credits: Vec<[i64; NUM_VCS]>,
    link_busy_until: Vec<Time>,
    /// One bit per output port: set while a `LinkFree` wake-up for the
    /// port's current busy period (at `link_busy_until`) is pending.
    /// Wake-ups are scheduled on demand — only while packets wait
    /// behind the busy link — so this mask is what keeps the scheduling
    /// sites from duplicating one.
    link_wake: u64,
    /// One bit per output port: a transmit attempt owed to the port at
    /// the current instant. Set where the scheduled protocol would
    /// calendar a same-instant `TryTx`, drained lowest port first at
    /// the end of the dispatch that set it (DESIGN.md §6, "Event
    /// protocol"), so it is empty between dispatches.
    tx_pending: u64,
    route_pending: bool,
    last_notify: Vec<Time>,
    rr_cursor: usize,
    /// Average contention latency at this router (latency-map metric).
    contention: RunningMean,
    series: Option<TimeSeries>,
}

// `Clone` is manual on the router/NIC state so `clone_from` reuses the
// destination's queue and table allocations — the optimistic sharded
// driver refreshes one retained `FabricSnapshot` per shard per
// speculative window, and a derived impl would re-allocate every
// per-port `Vec`/`VecDeque` each time (the dominant checkpoint cost on
// quiet fabrics, where almost nothing is actually queued).
impl Clone for RouterState {
    fn clone(&self) -> Self {
        Self {
            in_q: self.in_q.clone(),
            in_occ: self.in_occ,
            out_q: self.out_q.clone(),
            out_bytes: self.out_bytes.clone(),
            wire_ns: self.wire_ns.clone(),
            credits: self.credits.clone(),
            link_busy_until: self.link_busy_until.clone(),
            link_wake: self.link_wake,
            tx_pending: self.tx_pending,
            route_pending: self.route_pending,
            last_notify: self.last_notify.clone(),
            rr_cursor: self.rr_cursor,
            contention: self.contention,
            series: self.series.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.in_q.clone_from(&src.in_q);
        self.in_occ = src.in_occ;
        self.out_q.clone_from(&src.out_q);
        self.out_bytes.clone_from(&src.out_bytes);
        self.wire_ns.clone_from(&src.wire_ns);
        self.credits.clone_from(&src.credits);
        self.link_busy_until.clone_from(&src.link_busy_until);
        self.link_wake = src.link_wake;
        self.tx_pending = src.tx_pending;
        self.route_pending = src.route_pending;
        self.last_notify.clone_from(&src.last_notify);
        self.rr_cursor = src.rr_cursor;
        self.contention = src.contention;
        self.series.clone_from(&src.series);
    }
}

#[derive(Debug)]
struct NicState {
    queue: VecDeque<Box<Packet>>,
    credits: [i64; NUM_VCS],
    link_busy_until: Time,
    /// Set while a `NicTx` wake-up at `link_busy_until` is pending (the
    /// NIC counterpart of `RouterState::link_wake`).
    wake: bool,
    /// Propagation delay of the terminal attachment wire.
    wire_ns: Time,
}

impl Clone for NicState {
    fn clone(&self) -> Self {
        Self {
            queue: self.queue.clone(),
            credits: self.credits,
            link_busy_until: self.link_busy_until,
            wake: self.wake,
            wire_ns: self.wire_ns,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.queue.clone_from(&src.queue);
        self.credits = src.credits;
        self.link_busy_until = src.link_busy_until;
        self.wake = src.wake;
        self.wire_ns = src.wire_ns;
    }
}

/// Cumulative fabric counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricStats {
    /// Data packets injected at sources.
    pub offered_data: u64,
    /// Data packets received at destinations.
    pub accepted_data: u64,
    /// ACK packets created (destination + router notifications).
    pub acks_sent: u64,
    /// ACK packets received back at sources.
    pub acks_received: u64,
    /// CFD trigger count (congestion notifications).
    pub notifications: u64,
    /// Data packets lost to link/router failures: drained from queues
    /// feeding a dead wire, caught in flight at a dead input, or stuck
    /// at a hop with no live output left. Lossless semantics end at a
    /// dead wire — `offered == accepted + dropped` replaces
    /// `offered == accepted` on faulted runs.
    pub dropped_data: u64,
    /// Control packets (ACKs, predictive notifications) lost the same
    /// ways.
    pub dropped_ctrl: u64,
    /// Calendar events dispatched, per kind ([`EVENT_KINDS`] names the
    /// indices). A host-side cost counter, not model output: it is the
    /// same under both calendar backends and at every shard count, but
    /// event-protocol changes lower it on purpose. Fault-plan events
    /// never enter the calendar, so they have no entry.
    pub events: [u64; EVENT_KINDS.len()],
}

/// A copy of one shard fabric's observable execution state, taken at a
/// speculative window's start and restored on conflict. Everything a
/// dispatched event can read or write is here — router/NIC queues and
/// credits, the calendar (including its scheduled/processed accounting,
/// which the bench harness reports), the clock, the materialized fault
/// view with its replay cursor (a fault landing exactly at a window
/// start mutates state *inside* the window's event loop), and the
/// cumulative counters. Deliberately absent: topology, config, route
/// table (immutable per run), scratch buffers (cleared per use), and
/// the packet pool (reuse is non-observable).
#[derive(Debug)]
pub(crate) struct FabricSnapshot {
    routers: Vec<RouterState>,
    nics: Vec<NicState>,
    q: EventQueue<NetEvent>,
    deliveries: Vec<Delivery>,
    next_id: u64,
    clock: Time,
    fault_cursor: usize,
    faults: FaultState,
    stats: FabricStats,
}

/// The simulated interconnection network.
#[derive(Debug)]
pub struct Fabric {
    topo: AnyTopology,
    cfg: NetworkConfig,
    routers: Vec<RouterState>,
    nics: Vec<NicState>,
    q: EventQueue<NetEvent>,
    deliveries: Vec<Delivery>,
    next_id: u64,
    clock: Time,
    /// Per-run memo of every static routing decision.
    table: RouteTable,
    /// Recycles packet boxes and predictive headers.
    pool: PacketPool,
    /// Scratch for adaptive candidate ports (avoids a per-hop Vec).
    cand_scratch: Vec<Port>,
    /// Scratch for notified sources (router-based scheme).
    src_scratch: Vec<NodeId>,
    /// True when a hop can take zero time: `wire_delay_ns` and
    /// `header_ns` are both zero (class extras only add to the wire). A
    /// transmitted header may then arrive at the instant it leaves, and
    /// its kind-0 `Arrive` keys below every pending event of that
    /// instant, so no same-instant follow-up may run ahead of it: every
    /// fold of the event protocol takes the scheduled path instead.
    zero_hop: bool,
    /// Present when this fabric is one shard of a partitioned run:
    /// events bound for routers/NICs of other shards are staged in the
    /// outbox instead of entering the local calendar.
    shard: Option<ShardCtx>,
    /// Timed fault schedule (usually empty). Applied lazily: every
    /// event in the plan takes effect before any calendar event at
    /// `t >= at` dispatches, and emits no calendar events itself, so
    /// serial and sharded execution see identical fault timing.
    fault_plan: Arc<FaultPlan>,
    /// Index of the next unapplied plan event.
    fault_cursor: usize,
    /// Materialized dead-link / dead-router view at the current time.
    faults: FaultState,
    /// Cumulative counters.
    pub stats: FabricStats,
    /// Incremental-checkpoint epoch: bumped at every snapshot
    /// refresh, never by simulation. A router/NIC stamp equal to the
    /// current epoch means "mutated since the retained snapshot was
    /// last refreshed" — only those entries need re-cloning.
    chk_epoch: u64,
    /// Per-router dirty stamps (see `chk_epoch`).
    touch_rtr: Vec<u64>,
    /// Per-NIC dirty stamps (see `chk_epoch`).
    touch_nic: Vec<u64>,
}

impl Fabric {
    /// Build a fabric over `topo` with configuration `cfg`.
    pub fn new(topo: AnyTopology, cfg: NetworkConfig) -> Self {
        Self::build(topo, cfg, None, Arc::new(FaultPlan::none()))
    }

    /// Build a fabric that replays `faults` as it runs. An empty plan
    /// is byte-identical to [`Self::new`].
    pub fn with_faults(topo: AnyTopology, cfg: NetworkConfig, faults: FaultPlan) -> Self {
        Self::build(topo, cfg, None, Arc::new(faults))
    }

    /// Build shard `id` of a partitioned fabric: a full-size instance
    /// whose event loop only ever touches the routers and NICs the plan
    /// assigns to `id`, and whose cross-shard schedules divert to an
    /// outbox drained by the window driver. Every shard replays the
    /// whole fault plan (state flips are global knowledge; drops only
    /// ever touch owned routers), keeping the per-shard fault views
    /// identical mirrors.
    pub(crate) fn new_sharded(
        topo: AnyTopology,
        cfg: NetworkConfig,
        plan: Arc<ShardPlan>,
        id: u32,
        faults: Arc<FaultPlan>,
    ) -> Self {
        debug_assert!(id < plan.shards());
        let outbox = (0..plan.shards()).map(|_| Vec::new()).collect();
        Self::build(topo, cfg, Some(ShardCtx { id, plan, outbox }), faults)
    }

    fn build(
        topo: AnyTopology,
        cfg: NetworkConfig,
        shard: Option<ShardCtx>,
        fault_plan: Arc<FaultPlan>,
    ) -> Self {
        cfg.validate();
        let nr = topo.num_routers();
        assert!(nr < 1 << 24, "event keys hold 24-bit router ids");
        let mut routers = Vec::with_capacity(nr);
        for r in 0..nr {
            let rid = RouterId(r as u32);
            let ports = topo.num_ports(rid);
            let mut credits = Vec::with_capacity(ports);
            for p in 0..ports {
                match topo.neighbor(rid, Port(p as u8)) {
                    Some(Endpoint::Router(..)) => {
                        credits.push([cfg.input_buf_bytes as i64; NUM_VCS])
                    }
                    // Terminals consume at processor speed; links to
                    // nowhere never transmit anyway.
                    _ => credits.push([i64::MAX / 2; NUM_VCS]),
                }
            }
            debug_assert!(
                ports * NUM_VCS <= 64,
                "input-lane occupancy mask needs ports * NUM_VCS <= 64"
            );
            let wire_ns = (0..ports)
                .map(|p| cfg.link_delay_ns(topo.link_class(rid, Port(p as u8))))
                .collect();
            routers.push(RouterState {
                in_q: (0..ports).map(|_| Default::default()).collect(),
                in_occ: 0,
                out_q: (0..ports).map(|_| VecDeque::new()).collect(),
                out_bytes: vec![0; ports],
                wire_ns,
                credits,
                link_busy_until: vec![0; ports],
                link_wake: 0,
                tx_pending: 0,
                route_pending: false,
                last_notify: vec![0; ports],
                rr_cursor: 0,
                contention: RunningMean::new(),
                series: cfg.contention_series_bucket_ns.map(TimeSeries::new),
            });
        }
        let nics = (0..topo.num_terminals())
            .map(|n| {
                let node = NodeId(n as u32);
                let wire_ns = cfg
                    .link_delay_ns(topo.link_class(topo.router_of(node), topo.terminal_port(node)));
                NicState {
                    queue: VecDeque::new(),
                    credits: [cfg.input_buf_bytes as i64; NUM_VCS],
                    link_busy_until: 0,
                    wake: false,
                    wire_ns,
                }
            })
            .collect();
        let table = RouteTable::build(&topo);
        let faults = FaultState::new(&topo);
        let num_routers = routers.len();
        let num_nics = topo.num_terminals();
        Self {
            topo,
            cfg,
            routers,
            nics,
            q: EventQueue::with_kind(cfg.queue, 1 << 12),
            deliveries: Vec::new(),
            next_id: 1,
            clock: 0,
            table,
            pool: PacketPool::new(),
            cand_scratch: Vec::with_capacity(8),
            src_scratch: Vec::with_capacity(8),
            zero_hop: cfg.wire_delay_ns == 0 && cfg.header_ns == 0,
            shard,
            fault_plan,
            fault_cursor: 0,
            faults,
            stats: FabricStats::default(),
            chk_epoch: 1,
            touch_rtr: vec![0; num_routers],
            touch_nic: vec![0; num_nics],
        }
    }

    /// The topology the fabric runs over.
    pub fn topology(&self) -> &AnyTopology {
        &self.topo
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Current simulated time (time of the last processed event).
    pub fn now(&self) -> Time {
        self.clock
    }

    /// The dead-link / dead-router view at the current time.
    pub fn fault_state(&self) -> &FaultState {
        &self.faults
    }

    /// Apply every plan event with `at <= t`. Called before dispatching
    /// any calendar event at time `t` (and once more at the end of a
    /// bounded run), so the fault timing is a pure function of the plan
    /// — independent of event density, calendar backend or sharding.
    #[inline]
    fn apply_faults_through(&mut self, t: Time) {
        while self.fault_cursor < self.fault_plan.events().len() {
            let tf = self.fault_plan.events()[self.fault_cursor];
            if tf.at > t {
                break;
            }
            self.fault_cursor += 1;
            self.apply_fault(&tf.fault);
        }
    }

    /// Flip the fault state for one event and account the consequences
    /// on this fabric's owned routers: queues feeding (or fed by) a
    /// dead wire are drained with every packet counted as dropped, and
    /// a recovered wire has its sender-side credits re-initialized to a
    /// full buffer — link retraining resets flow control, and the
    /// receive queue is guaranteed empty because arrivals on a dead
    /// wire were dropped and counted.
    fn apply_fault(&mut self, fault: &FaultEvent) {
        match *fault {
            FaultEvent::LinkDown { router, port } => {
                self.faults.apply(&self.topo, fault);
                if let Some(Endpoint::Router(nr, np)) = self.table.neighbor(router, port) {
                    if self.owns(router) {
                        self.drain_port(router, port.idx());
                    }
                    if self.owns(nr) {
                        self.drain_port(nr, np.idx());
                    }
                }
            }
            FaultEvent::LinkUp { router, port } => {
                let was_dead = self.faults.link_dead(router, port);
                self.faults.apply(&self.topo, fault);
                if was_dead && !self.faults.link_dead(router, port) {
                    if let Some(Endpoint::Router(nr, np)) = self.table.neighbor(router, port) {
                        if self.owns(router) {
                            self.reset_credits(router, port.idx());
                        }
                        if self.owns(nr) {
                            self.reset_credits(nr, np.idx());
                        }
                    }
                }
            }
            FaultEvent::RouterDown { router } => {
                self.faults.apply(&self.topo, fault);
                let ports = self.topo.num_ports(router);
                if self.owns(router) {
                    for p in 0..ports {
                        self.drain_port(router, p);
                    }
                }
                for p in 0..ports {
                    if let Some(Endpoint::Router(nr, np)) =
                        self.table.neighbor(router, Port(p as u8))
                    {
                        if self.owns(nr) {
                            self.drain_port(nr, np.idx());
                        }
                    }
                }
            }
        }
    }

    /// Whether this fabric owns router `r`'s state (always true serial;
    /// the plan decides under sharding — drops must be counted exactly
    /// once across shards).
    #[inline]
    fn owns(&self, r: RouterId) -> bool {
        self.shard
            .as_ref()
            .is_none_or(|c| c.plan.shard_of_router(r) == c.id)
    }

    /// Drop every packet queued at `(r, p)` — input lanes and output
    /// queue — clearing occupancy bits and byte accounting. Upstream
    /// credits are *not* returned: the only caller is fault application,
    /// where the upstream link is the dead wire itself (its credits are
    /// re-initialized on recovery) or a permanently dead router.
    fn drain_port(&mut self, r: RouterId, p: usize) {
        self.touch_rtr[r.idx()] = self.chk_epoch;
        for vc in 0..NUM_VCS {
            while let Some(pkt) = self.routers[r.idx()].in_q[p][vc].pop_front() {
                self.drop_boxed(pkt);
            }
            self.routers[r.idx()].in_occ &= !(1 << (p * NUM_VCS + vc));
        }
        while let Some(pkt) = self.routers[r.idx()].out_q[p].pop_front() {
            self.drop_boxed(pkt);
        }
        self.routers[r.idx()].out_bytes[p] = 0;
    }

    /// Re-initialize the credits of output port `p` at `r` to a full
    /// downstream buffer (LinkUp retraining).
    fn reset_credits(&mut self, r: RouterId, p: usize) {
        self.touch_rtr[r.idx()] = self.chk_epoch;
        self.routers[r.idx()].credits[p] = [self.cfg.input_buf_bytes as i64; NUM_VCS];
    }

    /// Count and recycle a packet lost to a fault.
    fn drop_boxed(&mut self, pkt: Box<Packet>) {
        if pkt.is_data() {
            self.stats.dropped_data += 1;
        } else {
            self.stats.dropped_ctrl += 1;
        }
        self.pool.free(pkt);
    }

    /// Allocate a unique packet id.
    pub fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        debug_assert!(id < MAX_HOST_ID, "host packet ids exhausted the key window");
        id
    }

    /// Schedule a fabric event at its content-derived calendar key,
    /// diverting it to the shard outbox when its target router/NIC
    /// belongs to another shard.
    #[inline]
    fn sched(&mut self, at: Time, ev: NetEvent) {
        if let Some(ctx) = self.shard.as_mut() {
            let dst = match &ev {
                NetEvent::Arrive { router, .. }
                | NetEvent::RouteTick { router }
                | NetEvent::TryTx { router, .. }
                | NetEvent::LinkFree { router, .. }
                | NetEvent::Credit { router, .. } => ctx.plan.shard_of_router(*router),
                NetEvent::NicCredit { node, .. }
                | NetEvent::NicTx { node }
                | NetEvent::Deliver { node, .. } => ctx.plan.shard_of_node(*node),
            };
            if dst != ctx.id {
                // Only link-crossing traffic may leave a shard; every
                // other event kind is local by NIC/router co-location.
                debug_assert!(
                    matches!(ev, NetEvent::Arrive { .. } | NetEvent::Credit { .. }),
                    "non-boundary event crossed a shard"
                );
                ctx.outbox[dst as usize].push(StagedEvent {
                    at,
                    key: event_key(&ev),
                    gen: self.clock,
                    ev,
                });
                return;
            }
        }
        let key = event_key(&ev);
        self.q.schedule_keyed(at, key, ev);
    }

    /// Process every local event with time ≤ `wend` (one conservative
    /// window), then seal the calendar at `wend` so a late cross-shard
    /// insertion into the executed range trips the causality assert.
    /// Unlike [`Self::run_until`], the visible clock is *not* advanced
    /// past the last processed event — the window driver owns the
    /// run-level clock semantics. Returns events processed.
    pub(crate) fn run_window(&mut self, wend: Time) -> u64 {
        let n = self.run_window_open(wend);
        self.seal_window(wend);
        n
    }

    /// The event-processing half of [`Self::run_window`]: pop and
    /// dispatch every local event with time ≤ `wend`, but do **not**
    /// seal the calendar there. The speculative driver runs shards open
    /// to an optimistic horizon, decides the commit time at the barrier,
    /// and seals at that (possibly earlier) time — sealing at the
    /// horizon would poison later acceptance of cross-shard events that
    /// land between the commit time and the horizon.
    pub(crate) fn run_window_open(&mut self, wend: Time) -> u64 {
        let mut n = 0;
        while let Some(entry) = self.q.pop_before(wend) {
            self.apply_faults_through(entry.time);
            self.clock = entry.time;
            self.dispatch(entry.event);
            n += 1;
        }
        n
    }

    /// Seal the calendar at `wend`: apply faults up to the boundary and
    /// advance the queue clock so a late cross-shard insertion into the
    /// executed range trips the causality assert.
    pub(crate) fn seal_window(&mut self, wend: Time) {
        self.apply_faults_through(wend);
        self.q.advance_to(wend);
    }

    /// Checkpoint the complete observable execution state: queues,
    /// calendar (with its push/pop accounting), clock, fault view and
    /// counters. The packet pool is deliberately *not* captured — box
    /// reuse is non-observable (`pool::tests::boxes_are_reused_and_fully
    /// _overwritten`), so replay drawing different boxes from the arena
    /// cannot change results, and skipping the free lists keeps the
    /// snapshot proportional to live state.
    pub(crate) fn checkpoint(&mut self) -> FabricSnapshot {
        // A full clone starts a fresh dirty-tracking generation: bump
        // the epoch so subsequent mutations stamp themselves as newer
        // than this snapshot and `checkpoint_into` refreshes exactly
        // them.
        self.chk_epoch += 1;
        FabricSnapshot {
            routers: self.routers.clone(),
            nics: self.nics.clone(),
            q: self.q.clone(),
            deliveries: self.deliveries.clone(),
            next_id: self.next_id,
            clock: self.clock,
            fault_cursor: self.fault_cursor,
            faults: self.faults.clone(),
            stats: self.stats,
        }
    }

    /// Refresh a previously taken snapshot in place. Semantically
    /// identical to `*snap = self.checkpoint()` but reuses the
    /// snapshot's allocations via `clone_from` all the way down
    /// (routers, NICs, the calendar skeleton), so a speculative window
    /// over a quiet fabric costs roughly the live event population, not
    /// the topology size. The driver retains each shard's snapshot
    /// across windows precisely to feed this.
    pub(crate) fn checkpoint_into(&mut self, snap: &mut FabricSnapshot) {
        // Only state mutated since this snapshot's last refresh needs
        // re-cloning; everything else is equal on both sides by
        // induction from the full clone that created the snapshot.
        // The dirty stamps make the refresh cost proportional to one
        // window's activity, not the topology — a shard's foreign
        // routers, and its own quiet ones, are never touched.
        for (r, dst) in snap.routers.iter_mut().enumerate() {
            if self.touch_rtr[r] == self.chk_epoch {
                dst.clone_from(&self.routers[r]);
            }
        }
        for (n, dst) in snap.nics.iter_mut().enumerate() {
            if self.touch_nic[n] == self.chk_epoch {
                dst.clone_from(&self.nics[n]);
            }
        }
        snap.q.clone_from(&self.q);
        snap.deliveries.clone_from(&self.deliveries);
        snap.next_id = self.next_id;
        snap.clock = self.clock;
        snap.fault_cursor = self.fault_cursor;
        snap.faults.clone_from(&self.faults);
        snap.stats = self.stats;
        // Mutations from here on carry the new epoch, so the next
        // refresh re-clones exactly what changed in between.
        self.chk_epoch += 1;
    }

    /// Roll the fabric back to `snap` (taken by [`Self::checkpoint`]
    /// or refreshed by [`Self::checkpoint_into`]), leaving the snapshot
    /// intact so the next speculative window refreshes it in place
    /// instead of paying a full re-clone. The dirty stamps gate the
    /// copy-back exactly as they gate the refresh: an entity the
    /// aborted run never touched is still byte-equal to the snapshot
    /// and is skipped. Stamps are deliberately left as they are — the
    /// next refresh then covers the union of the aborted run and its
    /// replay, a superset of the true diff, which is merely redundant,
    /// never wrong. Boxes live in the discarded speculative state are
    /// dropped rather than pooled; the pool's free lists survive
    /// untouched.
    pub(crate) fn restore_from(&mut self, snap: &FabricSnapshot) {
        for (r, src) in snap.routers.iter().enumerate() {
            if self.touch_rtr[r] == self.chk_epoch {
                self.routers[r].clone_from(src);
            }
        }
        for (n, src) in snap.nics.iter().enumerate() {
            if self.touch_nic[n] == self.chk_epoch {
                self.nics[n].clone_from(src);
            }
        }
        self.q.clone_from(&snap.q);
        self.deliveries.clone_from(&snap.deliveries);
        self.next_id = snap.next_id;
        self.clock = snap.clock;
        self.fault_cursor = snap.fault_cursor;
        self.faults.clone_from(&snap.faults);
        self.stats = snap.stats;
    }

    /// Append the `(gen, at)` pair of every staged outbox event to
    /// `into` — the speculative barrier's validation input. Does not
    /// move the events.
    pub(crate) fn outbox_meta(&self, into: &mut Vec<(Time, Time)>) {
        if let Some(ctx) = self.shard.as_ref() {
            for lane in &ctx.outbox {
                into.extend(lane.iter().map(|s| (s.gen, s.at)));
            }
        }
    }

    /// Discard every staged outbox event (lanes keep their capacity).
    /// Used on rollback: the replayed prefix regenerates exactly the
    /// valid subset, so the speculative outbox is dropped wholesale.
    pub(crate) fn clear_outbox(&mut self) {
        if let Some(ctx) = self.shard.as_mut() {
            for lane in &mut ctx.outbox {
                lane.clear();
            }
        }
    }

    /// Flush the boundary events staged by the last window into the
    /// driver's per-destination-shard lanes (`into[d]` receives this
    /// shard's lane `d` wholesale, appended after whatever earlier
    /// shards put there — source-shard-major order). Both sides keep
    /// their `Vec` capacity, so a steady-state handoff is K pointer
    /// moves plus element memcpys, no per-event routing. Returns the
    /// number of events handed off.
    pub(crate) fn take_outbox(&mut self, into: &mut [Vec<StagedEvent>]) -> u64 {
        let mut moved = 0;
        if let Some(ctx) = self.shard.as_mut() {
            for (d, lane) in ctx.outbox.iter_mut().enumerate() {
                moved += lane.len() as u64;
                into[d].append(lane);
            }
        }
        moved
    }

    /// Accept a boundary event staged by another shard. Its key was
    /// computed at staging time, so the calendar ordering is exactly
    /// what a local schedule would have produced.
    pub(crate) fn accept_staged(&mut self, s: StagedEvent) {
        self.q.schedule_keyed(s.at, s.key, s.ev);
    }

    /// Timestamp of the shard's last processed event (window clock).
    pub(crate) fn event_clock(&self) -> Time {
        self.clock
    }

    /// Inject a packet at its source NIC. `packet.created` must not be in
    /// the fabric's past.
    pub fn inject(&mut self, packet: Packet) {
        debug_assert!(packet.src.idx() < self.nics.len(), "unknown source");
        debug_assert!(packet.dst.idx() < self.nics.len(), "unknown destination");
        if packet.is_data() {
            self.stats.offered_data += 1;
        }
        self.inject2(packet);
    }

    /// Time of the next pending event, if any. Takes `&mut self`
    /// because the timing-wheel calendar advances its cursor lazily on
    /// peeks; observable state is unaffected.
    pub fn next_event_time(&mut self) -> Option<Time> {
        self.q.peek_time()
    }

    /// Process all events with time ≤ `until`. Returns the number of
    /// events processed.
    pub fn run_until(&mut self, until: Time) -> u64 {
        let mut n = 0;
        while let Some(entry) = self.q.pop_before(until) {
            self.apply_faults_through(entry.time);
            self.clock = entry.time;
            self.dispatch(entry.event);
            n += 1;
        }
        self.apply_faults_through(until);
        self.clock = self.clock.max(until);
        n
    }

    /// Process events until either a delivery occurs or `until` is
    /// reached. Returns true when at least one delivery is pending.
    ///
    /// The host loop uses this to react to ACKs and received messages at
    /// their actual timestamps (the trace player must unblock receives
    /// promptly).
    pub fn run_until_delivery(&mut self, until: Time) -> bool {
        while self.deliveries.is_empty() {
            match self.q.pop_before(until) {
                Some(entry) => {
                    self.apply_faults_through(entry.time);
                    self.clock = entry.time;
                    self.dispatch(entry.event);
                }
                None => break,
            }
        }
        if self.deliveries.is_empty() {
            // No event ≤ `until` remains, so time passes to `until`;
            // faults scheduled in the quiet stretch take effect now.
            self.apply_faults_through(until);
            self.clock = self
                .clock
                .max(until.min(self.q.peek_time().unwrap_or(until)));
        }
        !self.deliveries.is_empty()
    }

    /// Drain the network completely (or until `max_t`). Returns the time
    /// of the last event.
    pub fn run_to_quiescence(&mut self, max_t: Time) -> Time {
        while let Some(entry) = self.q.pop_before(max_t) {
            self.apply_faults_through(entry.time);
            self.clock = entry.time;
            self.dispatch(entry.event);
        }
        debug_assert!(
            !self.q.is_empty() || self.no_stranded_packets(),
            "calendar drained with packets still queued at a link"
        );
        self.clock
    }

    /// True when every output queue and every NIC queue is empty. Once
    /// the calendar has drained nothing can move a queued packet any
    /// more, so a non-empty queue then is a packet stranded by a
    /// missing link wake-up. Queues behind dead wires or routers need
    /// no exemption: they are drained at failure and never refilled.
    fn no_stranded_packets(&self) -> bool {
        self.routers
            .iter()
            .all(|r| r.out_q.iter().all(VecDeque::is_empty))
            && self.nics.iter().all(|n| n.queue.is_empty())
    }

    /// Swap the accumulated deliveries into `out` (cleared first). The
    /// host loop reuses one buffer across ticks instead of allocating a
    /// fresh `Vec` per drain; pair with [`Self::recycle`] to return the
    /// packet boxes once processed.
    pub fn take_deliveries(&mut self, out: &mut Vec<Delivery>) {
        out.clear();
        std::mem::swap(out, &mut self.deliveries);
    }

    /// Return a delivered packet's allocations to the fabric's pool.
    pub fn recycle(&mut self, packet: Box<Packet>) {
        self.pool.free(packet);
    }

    /// (boxes handed out, boxes served from the free list) — perf
    /// diagnostics for the bench harness.
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool.allocs, self.pool.reuses)
    }

    /// Calendar events processed so far — the bench harness's events/sec
    /// numerator.
    pub fn events_processed(&self) -> u64 {
        self.q.total_processed()
    }

    /// Average contention latency observed at router `r`, in µs.
    pub fn router_contention_us(&self, r: RouterId) -> f64 {
        self.routers[r.idx()].contention.mean()
    }

    /// Samples folded into router `r`'s contention average.
    pub fn router_contention_count(&self, r: RouterId) -> u64 {
        self.routers[r.idx()].contention.count()
    }

    /// The contention time series of router `r` (present when
    /// `contention_series_bucket_ns` was configured).
    pub fn router_series(&self, r: RouterId) -> Option<&TimeSeries> {
        self.routers[r.idx()].series.as_ref()
    }

    fn dispatch(&mut self, ev: NetEvent) {
        self.stats.events[ev.kind()] += 1;
        // Dirty stamp for incremental checkpoints. Every event mutates
        // at most its own target's router/NIC state — forwarding and
        // credit return reach *other* entities only by scheduling
        // further events — so stamping the target covers every hot-path
        // mutation. The two cold-path mutators outside dispatch (packet
        // injection, fault drains/retraining) stamp at their own sites.
        match &ev {
            NetEvent::Arrive { router, .. }
            | NetEvent::RouteTick { router }
            | NetEvent::TryTx { router, .. }
            | NetEvent::LinkFree { router, .. }
            | NetEvent::Credit { router, .. } => {
                debug_assert_eq!(self.routers[router.idx()].tx_pending, 0, "undrained batch");
                self.touch_rtr[router.idx()] = self.chk_epoch;
            }
            NetEvent::NicCredit { node, .. }
            | NetEvent::NicTx { node }
            | NetEvent::Deliver { node, .. } => self.touch_nic[node.idx()] = self.chk_epoch,
        }
        match ev {
            NetEvent::Arrive {
                router,
                port,
                mut packet,
            } => {
                if self.faults.any()
                    && (self.faults.router_dead(router) || self.faults.link_dead(router, port))
                {
                    // The wire (or the whole router) died while the
                    // packet was in flight: lost, counted. The sender's
                    // consumed credit comes back at link retraining.
                    self.drop_boxed(packet);
                    return;
                }
                packet.queued_at = self.clock;
                packet.decided_port = None;
                let vc = (packet.route.header_id as usize).min(NUM_VCS - 1);
                let r = &mut self.routers[router.idx()];
                r.in_q[port.idx()][vc].push_back(packet);
                r.in_occ |= 1 << (port.idx() * NUM_VCS + vc);
                if !r.route_pending {
                    r.route_pending = true;
                    self.sched(
                        self.clock + self.cfg.routing_delay_ns,
                        NetEvent::RouteTick { router },
                    );
                }
            }
            NetEvent::RouteTick { router } => {
                self.route_tick(router);
                self.drain_tx(router);
            }
            NetEvent::TryTx { router, port } => self.try_tx(router, port),
            // LinkFree and Credit retry their own port's output. A TryTx
            // scheduled now would key (kind 2) below theirs (kinds 3, 4),
            // and every event still pending at this instant keys at or
            // above the one being dispatched, so it would be the very
            // next pop: calling `try_tx` in place is exact (DESIGN.md §6,
            // "Event protocol").
            NetEvent::LinkFree { router, port } => {
                let rs = &mut self.routers[router.idx()];
                // A stale wake-up — the busy period it was scheduled
                // for ended at this instant and the next packet is
                // already on the wire — must not clear the current one.
                if self.clock >= rs.link_busy_until[port.idx()] {
                    rs.link_wake &= !(1 << port.idx());
                }
                self.try_tx(router, port);
                self.drain_tx(router);
            }
            NetEvent::Credit {
                router,
                port,
                vc,
                bytes,
            } => {
                self.routers[router.idx()].credits[port.idx()][vc as usize] += bytes as i64;
                self.try_tx(router, port);
                self.drain_tx(router);
            }
            // The NicTx a credit would schedule keys (kind 6) above the
            // credits still pending on the NIC's other VCs. `nic_tx`
            // gates only on the head packet's VC, so sending between
            // two credits ends in the same state as sending after both.
            NetEvent::NicCredit { node, vc, bytes } => {
                self.nics[node.idx()].credits[vc as usize] += bytes as i64;
                if self.zero_hop {
                    self.sched(self.clock, NetEvent::NicTx { node });
                } else {
                    self.nic_tx(node);
                }
            }
            NetEvent::NicTx { node } => self.nic_tx(node),
            NetEvent::Deliver { node, packet } => self.deliver(node, packet),
        }
    }

    fn nic_tx(&mut self, node: NodeId) {
        let nic = &mut self.nics[node.idx()];
        if self.clock >= nic.link_busy_until {
            // The busy period is over, so any wake-up scheduled for it
            // fires at this instant: this event or a same-key sibling.
            nic.wake = false;
        }
        if self.faults.any() && self.faults.router_dead(self.table.nic_attach(node).0) {
            // The attach router is gone: the NIC can reach nothing.
            // Drain the queue, counting every packet as dropped (future
            // injections drain the same way at their own NicTx).
            while let Some(pkt) = self.nics[node.idx()].queue.pop_front() {
                self.drop_boxed(pkt);
            }
            return;
        }
        let nic = &mut self.nics[node.idx()];
        let Some(head) = nic.queue.front() else {
            return;
        };
        if head.created > self.clock {
            // The head was queued ahead of time (injection enqueues
            // immediately); it must not leave before its creation time.
            let at = head.created;
            self.sched(at, NetEvent::NicTx { node });
            return;
        }
        if self.clock < nic.link_busy_until {
            // The head waits behind the busy link. Transmits only
            // schedule a wake-up when the queue is non-empty, so a
            // packet queued since then makes sure one is pending.
            if !nic.wake {
                nic.wake = true;
                let at = nic.link_busy_until;
                self.sched(at, NetEvent::NicTx { node });
            }
            return;
        }
        let vc = (head.route.header_id as usize).min(NUM_VCS - 1);
        if nic.credits[vc] < head.size as i64 {
            return; // NicCredit will retry
        }
        let mut pkt = nic.queue.pop_front().expect("head");
        nic.credits[vc] -= pkt.size as i64;
        pkt.nic_depart = self.clock;
        let ser = self.cfg.ser_ns(pkt.size);
        nic.link_busy_until = self.clock + ser;
        let wire = nic.wire_ns;
        let (router, port) = self.table.nic_attach(node);
        self.sched(
            self.clock + wire + self.cfg.header_ns,
            NetEvent::Arrive {
                router,
                port,
                packet: pkt,
            },
        );
        // Link free → try the next queued packet, if one waits; a
        // later injection wakes the link through the busy branch.
        let nic = &mut self.nics[node.idx()];
        nic.wake = !nic.queue.is_empty();
        if nic.wake {
            self.sched(self.clock + ser, NetEvent::NicTx { node });
        }
    }

    /// Run the transmit attempts owed to `router` at this instant,
    /// lowest port first — the order in which the calendar would pop
    /// their `TryTx` events. The mask is re-read after every attempt:
    /// `try_tx`'s in-place routing stage can owe ports again, lower
    /// ones included, and a lower-port `TryTx` scheduled then would be
    /// the very next pop. The events keyed between a router's dispatch
    /// and its `TryTx` slot belong to other routers, touch disjoint
    /// state and schedule only content-keyed events, so running the
    /// batch early commutes with them (DESIGN.md §6, "Event protocol").
    fn drain_tx(&mut self, router: RouterId) {
        loop {
            let rs = &mut self.routers[router.idx()];
            let owed = rs.tx_pending;
            if owed == 0 {
                return;
            }
            rs.tx_pending = owed & (owed - 1);
            self.try_tx(router, Port(owed.trailing_zeros() as u8));
        }
    }

    /// Owe `router` a transmit attempt on `port` at this instant: a bit
    /// in the router's batch, or a calendared `TryTx` when hops can take
    /// zero time.
    #[inline]
    fn owe_tx(&mut self, router: RouterId, port: Port) {
        if self.zero_hop {
            self.sched(self.clock, NetEvent::TryTx { router, port });
        } else {
            self.routers[router.idx()].tx_pending |= 1 << port.idx();
        }
    }

    fn route_tick(&mut self, router: RouterId) {
        self.routers[router.idx()].route_pending = false;
        let ports = self.routers[router.idx()].in_q.len();
        let lanes = ports * NUM_VCS;
        #[cfg(feature = "probes")]
        let mut arb_attempts: u64 = 0;
        // Round-robin arbitration: each pass walks `lanes` steps from the
        // (live) cursor, and a move re-bases the cursor just past the
        // winning lane. The occupancy mask lets the walk jump straight to
        // the next non-empty lane — empty lanes never move a packet, so
        // only the step budget must account for them.
        loop {
            let mut moved = false;
            let mut step = 0;
            while step < lanes {
                let occ = self.routers[router.idx()].in_occ;
                if occ == 0 {
                    break;
                }
                // cursor < lanes and step < lanes, so one conditional
                // subtract replaces the (hardware-div) modulo.
                let mut l = self.routers[router.idx()].rr_cursor + step;
                if l >= lanes {
                    l -= lanes;
                }
                let ahead = occ & (!0u64 << l);
                let lane = if ahead != 0 {
                    let lane = ahead.trailing_zeros() as usize;
                    step += lane - l;
                    lane
                } else {
                    let lane = occ.trailing_zeros() as usize;
                    step += lanes - l + lane;
                    lane
                };
                if step >= lanes {
                    break;
                }
                let (p, vc) = (lane / NUM_VCS, lane % NUM_VCS);
                #[cfg(feature = "probes")]
                {
                    arb_attempts += 1;
                }
                if self.try_move_in_to_out(router, p, vc) {
                    self.routers[router.idx()].rr_cursor =
                        if lane + 1 == lanes { 0 } else { lane + 1 };
                    moved = true;
                }
                step += 1;
            }
            if !moved {
                break;
            }
        }
        prdrb_simcore::probe_value!(ArbSteps, router.0, arb_attempts);
    }

    /// Move the head packet of `in_q[p][vc]` to its output queue if there
    /// is room. Returns true when a packet moved.
    fn try_move_in_to_out(&mut self, router: RouterId, p: usize, vc: usize) -> bool {
        let rs = &mut self.routers[router.idx()];
        let Some(head) = rs.in_q[p][vc].front_mut() else {
            return false;
        };
        let out = match head.decided_port {
            Some(op) => op,
            None => {
                let op = if head.route.descriptor == prdrb_topology::PathDescriptor::AdaptiveUp {
                    // Fully adaptive ascent: among the minimal candidate
                    // ports, take the least-occupied output queue
                    // (deterministic tie-break by port index).
                    let cands = &mut self.cand_scratch;
                    self.table
                        .minimal_candidates(&self.topo, router, head.dst, cands);
                    cands
                        .iter()
                        .copied()
                        .min_by_key(|p| (rs.out_bytes[p.idx()], p.idx()))
                        .unwrap_or_else(|| {
                            self.table
                                .next_port(&self.topo, router, head.dst, &mut head.route)
                        })
                } else {
                    self.table
                        .next_port(&self.topo, router, head.dst, &mut head.route)
                };
                head.decided_port = Some(op);
                op
            }
        };
        // Degraded mode: an output whose wire has died is re-decided
        // over the live minimal candidates toward the final destination
        // (lowest live port — deterministic). The remaining multi-step
        // structure may lead straight back into the dead wire, so the
        // diverted packet switches to plain minimal routing on the
        // escape channel; minimal hops strictly close on the
        // destination, so it cannot livelock. A head with no live
        // escape is dropped and counted.
        let out = if self.faults.any() && self.faults.link_dead(router, out) {
            let cands = &mut self.cand_scratch;
            self.table
                .minimal_candidates(&self.topo, router, head.dst, cands);
            let live = cands
                .iter()
                .copied()
                .filter(|&c| !self.faults.link_dead(router, c))
                .min_by_key(|c| c.idx());
            match live {
                Some(c) => {
                    head.route = RouteState::new(PathDescriptor::Minimal);
                    head.decided_port = Some(c);
                    c
                }
                None => return self.drop_head(router, p, vc),
            }
        } else {
            out
        };
        let size = head.size;
        if rs.out_bytes[out.idx()] + size > self.cfg.output_buf_bytes {
            return false;
        }
        let mut pkt = rs.in_q[p][vc].pop_front().expect("head");
        if rs.in_q[p][vc].is_empty() {
            rs.in_occ &= !(1 << (p * NUM_VCS + vc));
        }
        // Contention in the input queue beyond the fixed routing delay.
        let wait = (self.clock - pkt.queued_at).saturating_sub(self.cfg.routing_delay_ns);
        prdrb_simcore::probe_value!(QueueWait, router.0, wait);
        pkt.path_latency += wait;
        pkt.queued_at = self.clock;
        pkt.hops += 1;
        rs.out_bytes[out.idx()] += size;
        rs.out_q[out.idx()].push_back(pkt);
        self.sample_contention(router, wait);
        // Return the credit upstream now that the input slot is free;
        // it travels back over the same physical wire the packet came
        // in on, so it pays that wire's class delay.
        let wire = self.routers[router.idx()].wire_ns[p];
        match self.table.neighbor(router, Port(p as u8)) {
            Some(Endpoint::Router(ur, up)) => self.sched(
                self.clock + wire,
                NetEvent::Credit {
                    router: ur,
                    port: up,
                    vc: vc as u8,
                    bytes: size,
                },
            ),
            Some(Endpoint::Terminal(n)) => self.sched(
                self.clock + wire,
                NetEvent::NicCredit {
                    node: n,
                    vc: vc as u8,
                    bytes: size,
                },
            ),
            None => {}
        }
        self.owe_tx(router, out);
        true
    }

    /// Drop the head of input lane `(p, vc)` at `router` — no live
    /// output remains for it. The freed input slot's credit returns
    /// upstream exactly as a successful move would, so upstream flow
    /// control (over a live wire) stays balanced. Returns true: the
    /// arbitration pass made progress.
    fn drop_head(&mut self, router: RouterId, p: usize, vc: usize) -> bool {
        let rs = &mut self.routers[router.idx()];
        let pkt = rs.in_q[p][vc].pop_front().expect("head");
        if rs.in_q[p][vc].is_empty() {
            rs.in_occ &= !(1 << (p * NUM_VCS + vc));
        }
        let size = pkt.size;
        self.drop_boxed(pkt);
        let wire = self.routers[router.idx()].wire_ns[p];
        match self.table.neighbor(router, Port(p as u8)) {
            Some(Endpoint::Router(ur, up)) => self.sched(
                self.clock + wire,
                NetEvent::Credit {
                    router: ur,
                    port: up,
                    vc: vc as u8,
                    bytes: size,
                },
            ),
            Some(Endpoint::Terminal(n)) => self.sched(
                self.clock + wire,
                NetEvent::NicCredit {
                    node: n,
                    vc: vc as u8,
                    bytes: size,
                },
            ),
            None => {}
        }
        true
    }

    fn try_tx(&mut self, router: RouterId, port: Port) {
        if self.faults.any() && self.faults.link_dead(router, port) {
            // The queue was drained when the wire died and nothing is
            // admitted onto a dead port afterwards; stray TryTx /
            // LinkFree events on it are inert.
            debug_assert!(self.routers[router.idx()].out_q[port.idx()].is_empty());
            return;
        }
        let rs = &mut self.routers[router.idx()];
        let Some(head) = rs.out_q[port.idx()].front() else {
            return;
        };
        if self.clock < rs.link_busy_until[port.idx()] {
            // The head waits behind the busy link. Transmits only
            // schedule a LinkFree when the queue is non-empty, so a
            // packet queued since then makes sure one is pending.
            let bit = 1 << port.idx();
            if rs.link_wake & bit == 0 {
                rs.link_wake |= bit;
                let at = rs.link_busy_until[port.idx()];
                self.sched(at, NetEvent::LinkFree { router, port });
            }
            return;
        }
        let neighbor = self.table.neighbor(router, port);
        let vc = (head.route.header_id as usize).min(NUM_VCS - 1);
        if let Some(Endpoint::Router(..)) = neighbor {
            if rs.credits[port.idx()][vc] < head.size as i64 {
                return; // a Credit event will retry
            }
        }
        let mut pkt = rs.out_q[port.idx()].pop_front().expect("head");
        // Occupancy at transmit time, departing packet included.
        prdrb_simcore::probe_value!(
            LinkOccupancy,
            (router.0 as u64) << 8 | port.0 as u64,
            rs.out_bytes[port.idx()]
        );
        rs.out_bytes[port.idx()] -= pkt.size;
        if matches!(neighbor, Some(Endpoint::Router(..))) {
            rs.credits[port.idx()][vc] -= pkt.size as i64;
        }
        let wait = self.clock - pkt.queued_at;
        prdrb_simcore::probe_value!(OutputWait, router.0, wait);
        pkt.path_latency += wait;
        self.sample_contention(router, wait);
        let ser = self.cfg.ser_ns(pkt.size);
        let rs = &mut self.routers[router.idx()];
        rs.link_busy_until[port.idx()] = self.clock + ser;
        // Wake the link at end-of-serialization only when packets still
        // wait; later arrivals wake it through the busy branch above.
        let bit = 1 << port.idx();
        if rs.out_q[port.idx()].is_empty() {
            rs.link_wake &= !bit;
        } else {
            rs.link_wake |= bit;
            self.sched(self.clock + ser, NetEvent::LinkFree { router, port });
        }
        // Congestion monitoring: the CFD module fires when the output
        // wait crossed the threshold (only for monitored data packets —
        // control traffic is excluded).
        if pkt.is_data() {
            self.monitor_port(router, port, &mut pkt, wait);
        }
        let wire = self.routers[router.idx()].wire_ns[port.idx()];
        match neighbor {
            Some(Endpoint::Terminal(n)) => {
                // Full packet must land before the node consumes it.
                self.sched(
                    self.clock + wire + ser,
                    NetEvent::Deliver {
                        node: n,
                        packet: pkt,
                    },
                );
            }
            Some(Endpoint::Router(nr, np)) => {
                // Cut-through: header hands off while the tail flows.
                self.sched(
                    self.clock + wire + self.cfg.header_ns,
                    NetEvent::Arrive {
                        router: nr,
                        port: np,
                        packet: pkt,
                    },
                );
            }
            None => panic!("transmitting into the void at {router}:{port}"),
        }
        // Output space freed: the routing stage may move more packets.
        // A RouteTick scheduled now keys below every pending event of
        // this instant and below everything this handler scheduled, so
        // it would be the very next pop and runs in place — unless hops
        // can take zero time: an Arrive above may then land at this
        // same instant, its kind-0 key pops first, so the tick queues.
        let rs = &mut self.routers[router.idx()];
        if !rs.route_pending {
            if self.zero_hop {
                rs.route_pending = true;
                self.sched(self.clock, NetEvent::RouteTick { router });
            } else {
                self.route_tick(router);
            }
        }
    }

    /// CFD + GPA: identify contending flows when `wait` crossed the
    /// threshold, honoring the per-port cooldown.
    fn monitor_port(&mut self, router: RouterId, port: Port, pkt: &mut Packet, wait: Time) {
        let mon = self.cfg.monitor;
        if mon.mode == NotifyMode::Off || wait < mon.router_threshold_ns {
            return;
        }
        let rs = &mut self.routers[router.idx()];
        let last = rs.last_notify[port.idx()];
        if last != 0 && self.clock.saturating_sub(last) < mon.cooldown_ns {
            return;
        }
        let flows = contending_flows(
            &rs.out_q[port.idx()],
            Some(pkt),
            mon.min_share,
            mon.max_flows,
        );
        if flows.is_empty() {
            return;
        }
        rs.last_notify[port.idx()] = self.clock;
        self.stats.notifications += 1;
        let mut pairs = self.pool.flow_vec();
        pairs.extend(flows.iter().map(|c| c.flow));
        match mon.mode {
            NotifyMode::Destination => {
                // Ride the leaving packet to its destination; the ACK
                // will carry it back (§3.2.2). Pre-install a pooled
                // header so `attach_flows` never allocates.
                if pkt.predictive.is_none() {
                    pkt.predictive = Some(self.pool.header());
                }
                pkt.attach_flows(router, &pairs, mon.max_flows);
            }
            NotifyMode::Router => {
                // GPA: notify each contending source directly (§3.4.1).
                // Global first-occurrence dedup — `Vec::dedup` only
                // removes *adjacent* repeats, and `pairs` is ordered by
                // occupancy share, so a source contending on two
                // interleaved flows used to receive two ACK volleys
                // under one GPA id, breaking the id-uniqueness
                // invariant of [`GPA_ID_FLAG`].
                let mut sources = std::mem::take(&mut self.src_scratch);
                dedup_sources(&pairs, &mut sources);
                for &src in &sources {
                    // One GPA volley per (router, port, instant); see
                    // [`GPA_ID_FLAG`]. (The per-src Deliver events are
                    // disambiguated by their destination NIC.)
                    let id = GPA_ID_FLAG | (router.0 as u64) << 8 | port.0 as u64;
                    let mut header = self.pool.header();
                    header.flows.extend_from_slice(&pairs);
                    let ack = Packet::predictive_ack_with(
                        id,
                        router,
                        src,
                        header,
                        self.clock,
                        self.cfg.ack_bytes,
                        pkt.dst,
                    );
                    self.stats.acks_sent += 1;
                    self.router_inject(router, ack);
                }
                self.src_scratch = sources;
            }
            NotifyMode::Off => unreachable!(),
        }
        self.pool.free_flow_vec(pairs);
    }

    /// Inject a control packet directly from a router (predictive ACK).
    /// Control packets use a dedicated channel: they bypass output-queue
    /// capacity but share link bandwidth.
    fn router_inject(&mut self, router: RouterId, mut pkt: Packet) {
        let mut out = self
            .table
            .next_port(&self.topo, router, pkt.dst, &mut pkt.route);
        if self.faults.any() && self.faults.link_dead(router, out) {
            // Notification toward a dead wire: divert over the live
            // minimal candidates or count it lost.
            let cands = &mut self.cand_scratch;
            self.table
                .minimal_candidates(&self.topo, router, pkt.dst, cands);
            match cands
                .iter()
                .copied()
                .filter(|&c| !self.faults.link_dead(router, c))
                .min_by_key(|c| c.idx())
            {
                Some(c) => out = c,
                None => {
                    let boxed = self.pool.boxed(pkt);
                    self.drop_boxed(boxed);
                    return;
                }
            }
        }
        pkt.queued_at = self.clock;
        pkt.decided_port = Some(out);
        let boxed = self.pool.boxed(pkt);
        let rs = &mut self.routers[router.idx()];
        rs.out_bytes[out.idx()] += boxed.size;
        rs.out_q[out.idx()].push_back(boxed);
        self.owe_tx(router, out);
    }

    fn deliver(&mut self, node: NodeId, mut packet: Box<Packet>) {
        match packet.kind {
            PacketKind::Data { needs_ack, .. } => {
                self.stats.accepted_data += 1;
                if needs_ack && self.cfg.acks_enabled {
                    // Content-derived id: identical no matter which
                    // execution mode (or shard) creates the ACK.
                    let id = packet.id | ACK_ID_FLAG;
                    let ack = Packet::ack_for(&mut packet, id, self.clock, self.cfg.ack_bytes);
                    self.stats.acks_sent += 1;
                    if self.zero_hop || ack.src == ack.dst {
                        self.inject2(ack);
                    } else {
                        // The ACK's NicTx would key (kind 6) below this
                        // Deliver (kind 7) at this instant: the very
                        // next pop, so it runs in place. A host send
                        // queued at this NIC afterwards finds the link
                        // busy and schedules the same wake-up the
                        // calendared NicTx would have.
                        let boxed = self.pool.boxed(ack);
                        self.nics[node.idx()].queue.push_back(boxed);
                        self.nic_tx(node);
                    }
                }
            }
            PacketKind::Ack { .. } => {
                self.stats.acks_received += 1;
            }
        }
        debug_assert_eq!(packet.dst, node, "misdelivered packet");
        self.deliveries.push(Delivery {
            at: self.clock,
            packet,
        });
    }

    /// Internal injection used by `inject` and ACK generation.
    fn inject2(&mut self, packet: Packet) {
        let at = packet.created.max(self.clock);
        let node = packet.src;
        let packet = self.pool.boxed(packet);
        if packet.src == packet.dst {
            self.sched(
                at + self.cfg.header_ns,
                NetEvent::Deliver {
                    node: packet.dst,
                    packet,
                },
            );
            return;
        }
        self.touch_nic[node.idx()] = self.chk_epoch;
        self.nics[node.idx()].queue.push_back(packet);
        self.sched(at, NetEvent::NicTx { node });
    }

    fn sample_contention(&mut self, router: RouterId, wait: Time) {
        let rs = &mut self.routers[router.idx()];
        let us = ns_to_us(wait);
        rs.contention.push(us);
        if let Some(series) = rs.series.as_mut() {
            series.push(self.clock, us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdrb_simcore::time::MILLISECOND;
    use prdrb_topology::{Mesh2D, TimedFault};

    fn quiet_cfg() -> NetworkConfig {
        NetworkConfig {
            acks_enabled: false,
            ..Default::default()
        }
    }

    fn inject(f: &mut Fabric, src: u32, dst: u32, at: Time) {
        let id = f.alloc_id();
        let size = f.config().packet_bytes;
        f.inject(Packet::data(
            id,
            NodeId(src),
            NodeId(dst),
            size,
            at,
            RouteState::new(PathDescriptor::Minimal),
            0,
            id,
            0,
            true,
            false,
        ));
    }

    /// Delivery times in order, draining the fabric's buffer.
    fn arrival_times(f: &mut Fabric) -> Vec<Time> {
        let mut out = Vec::new();
        f.take_deliveries(&mut out);
        let mut at: Vec<Time> = out.iter().map(|d| d.at).collect();
        at.sort_unstable();
        at
    }

    fn port_toward(topo: &AnyTopology, a: RouterId, b: RouterId) -> Port {
        (0..topo.num_ports(a) as u8)
            .map(Port)
            .find(|&p| matches!(topo.neighbor(a, p), Some(Endpoint::Router(nr, _)) if nr == b))
            .expect("adjacent routers")
    }

    /// `NetEvent::kind` indexes `FabricStats::events` by the same kind
    /// field the calendar key carries, so the counters name what the
    /// calendar orders.
    #[test]
    fn event_kind_is_the_key_kind_field() {
        let pkt = || {
            Box::new(Packet::data(
                1,
                NodeId(0),
                NodeId(1),
                1024,
                0,
                RouteState::new(PathDescriptor::Minimal),
                0,
                1,
                0,
                true,
                false,
            ))
        };
        let (router, port, node) = (RouterId(3), Port(2), NodeId(5));
        let events = [
            NetEvent::Arrive {
                router,
                port,
                packet: pkt(),
            },
            NetEvent::RouteTick { router },
            NetEvent::TryTx { router, port },
            NetEvent::LinkFree { router, port },
            NetEvent::Credit {
                router,
                port,
                vc: 1,
                bytes: 64,
            },
            NetEvent::NicCredit {
                node,
                vc: 1,
                bytes: 64,
            },
            NetEvent::NicTx { node },
            NetEvent::Deliver {
                node,
                packet: pkt(),
            },
        ];
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.kind(), i, "{}", EVENT_KINDS[i]);
            assert_eq!((event_key(ev) >> 61) as usize, i, "{}", EVENT_KINDS[i]);
        }
    }

    /// Three sources converge on one terminal port. Node 1's packet,
    /// one hop closer, transmits into an empty queue, so no wake-up is
    /// scheduled. The packets from nodes 4 and 18, two hops out along
    /// disjoint paths (east and south), then queue behind the busy link
    /// and wake it through the busy branch, and the first of them to
    /// leave schedules the wake-up for the second. Each must leave
    /// exactly when the link frees: arrivals at the sink are back to
    /// back, one serialization apart.
    #[test]
    fn queued_packets_leave_exactly_when_the_link_frees() {
        let mut f = Fabric::new(AnyTopology::mesh8x8(), quiet_cfg());
        for src in [1, 4, 18] {
            inject(&mut f, src, 2, 0);
        }
        let ser = f.config().ser_ns(f.config().packet_bytes);
        let sink = f.topology().terminal_port(NodeId(2));
        let r2 = f.topology().router_of(NodeId(2)).idx();
        // Node 1's packet is on the sink wire; the others are a hop out.
        f.run_until(200);
        let rs = &f.routers[r2];
        assert!(f.now() < rs.link_busy_until[sink.idx()], "link busy");
        assert!(rs.out_q[sink.idx()].is_empty());
        assert_eq!(rs.link_wake, 0, "nothing waits, nothing to wake");
        // Later in the same transmit both packets wait behind it, with
        // exactly one wake-up pending.
        f.run_until(2 * ser / 3);
        let rs = &f.routers[r2];
        assert!(f.now() < rs.link_busy_until[sink.idx()], "link busy");
        assert_eq!(rs.out_q[sink.idx()].len(), 2, "two packets queued");
        assert_eq!(rs.link_wake, 1 << sink.idx(), "one wake-up pending");
        f.run_to_quiescence(MILLISECOND);
        let at = arrival_times(&mut f);
        assert_eq!(at.len(), 3);
        for w in at.windows(2) {
            assert_eq!(w[1] - w[0], ser, "back-to-back departures: {at:?}");
        }
        assert_eq!(f.routers[r2].link_wake, 0, "every wake-up fired");
    }

    /// A multi-fragment message leaves its NIC back to back, and a
    /// fragment queued while the NIC link is busy and its queue empty
    /// still leaves the instant the link frees.
    #[test]
    fn nic_burst_serializes_back_to_back() {
        let mut f = Fabric::new(AnyTopology::mesh8x8(), quiet_cfg());
        let ser = f.config().ser_ns(f.config().packet_bytes);
        for _ in 0..4 {
            inject(&mut f, 0, 63, 0);
        }
        // The fourth fragment is on the wire and the queue is empty: no
        // wake-up is pending until another fragment queues.
        f.run_until(3 * ser + 5);
        assert!(f.nics[0].queue.is_empty());
        assert!(!f.nics[0].wake);
        inject(&mut f, 0, 63, 3 * ser + 10);
        f.run_until(3 * ser + 10);
        assert!(f.nics[0].wake, "the busy branch scheduled a wake-up");
        f.run_to_quiescence(MILLISECOND);
        let at = arrival_times(&mut f);
        assert_eq!(at.len(), 5);
        for w in at.windows(2) {
            assert_eq!(w[1] - w[0], ser, "back-to-back fragments: {at:?}");
        }
        assert!(!f.nics[0].wake);
    }

    /// A wire dies while a wake-up for it is pending: the queue behind
    /// it drains, the stale wake-up fires harmlessly, and after the
    /// wire recovers, traffic contending for it flows back to back.
    #[test]
    fn link_down_with_pending_wake_up_then_recovery() {
        let topo = AnyTopology::mesh8x8();
        let m = Mesh2D::new(8, 8);
        let (a, b) = (m.at(1, 0), m.at(2, 0));
        let p = port_toward(&topo, a, b);
        let (down, up) = (3_000, 50_000);
        let plan = FaultPlan::new(vec![
            TimedFault {
                at: down,
                fault: FaultEvent::LinkDown { router: a, port: p },
            },
            TimedFault {
                at: up,
                fault: FaultEvent::LinkUp { router: a, port: p },
            },
        ]);
        let mut f = Fabric::with_faults(topo, quiet_cfg(), plan);
        // Node 1's packet takes the (1,0)->(2,0) wire first; node 0's
        // queues behind it.
        inject(&mut f, 1, 3, 0);
        inject(&mut f, 0, 3, 0);
        f.run_until(down - 1);
        let ra = &f.routers[a.idx()];
        assert!(!ra.out_q[p.idx()].is_empty(), "a packet waits on the wire");
        assert_ne!(ra.link_wake & 1 << p.idx(), 0, "its wake-up is pending");
        f.run_until(up - 1);
        assert_eq!(f.stats.dropped_data, 1, "the queued packet died");
        assert_eq!(f.routers[a.idx()].link_wake, 0, "stale wake-up fired");
        // After recovery: the same contention, twice over.
        for src in [1, 0, 1, 0] {
            inject(&mut f, src, 3, up + 1_000);
        }
        f.run_to_quiescence(100 * MILLISECOND);
        assert_eq!(f.stats.offered_data, 6);
        assert_eq!(f.stats.accepted_data, 5);
        let at = arrival_times(&mut f);
        let ser = f.config().ser_ns(f.config().packet_bytes);
        let after: Vec<Time> = at.into_iter().filter(|&t| t > up).collect();
        assert_eq!(after.len(), 4);
        for w in after.windows(2) {
            assert_eq!(
                w[1] - w[0],
                ser,
                "recovered wire runs back to back: {after:?}"
            );
        }
    }
}
