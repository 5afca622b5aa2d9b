//! The assembled 3D network: 128 routers in two stacked 8x8 meshes,
//! their network interfaces, the routing/region/parent machinery and
//! the congestion estimators, advanced cycle by cycle.

use crate::arena::Arena;
use crate::audit::{AuditConfig, AuditReport, NetAuditor};
use crate::estimator::{EstimatorState, RcaState, WbEstimator};
use crate::fault::{FaultPlan, FaultState, FaultSummary};
use crate::nic::{DeliveryEvent, Nic};
use crate::packet::{Flit, Packet, TrafficClass, WbTag};
use crate::parent::ParentMap;
use crate::partition::PartitionMap;
use crate::regions::RegionMap;
use crate::router::{link_table, Links, NetView, Router, StepParams, SwitchMove, MAX_BURST, PORTS};
use crate::routing::RoutingTable;
use crate::telemetry::{NetTelemetry, TelemetryConfig, TelemetrySummary};
use crate::workspace::{NocWorkspace, WsView};
use snoc_common::config::{
    ArbitrationPolicy, Estimator, NocConfig, RequestPathMode, SystemConfig, TsbPlacement,
};
use snoc_common::geom::{Coord, Direction, Layer, Mesh};
use snoc_common::ids::{BankId, NodeId, PacketId, RegionId};
use snoc_common::stats::Accumulator;
use snoc_common::Cycle;

/// Construction parameters for a [`Network`].
#[derive(Debug, Clone, Copy)]
pub struct NetworkParams {
    /// Router/topology parameters.
    pub noc: NocConfig,
    /// How core->cache requests cross between dies.
    pub path_mode: RequestPathMode,
    /// Number of logical cache-layer regions.
    pub regions: usize,
    /// TSB placement rule.
    pub placement: TsbPlacement,
    /// Parent-child re-ordering distance (hops).
    pub parent_hops: u32,
    /// Arbitration policy.
    pub arbitration: ArbitrationPolicy,
    /// WB estimator sampling window.
    pub wb_window: u32,
    /// Bank read service latency (for busy prediction).
    pub bank_read_latency: u64,
    /// Bank write service latency (for busy prediction).
    pub bank_write_latency: u64,
    /// NI outbox capacity at cache-layer nodes (bounded: busy banks
    /// push back into the network).
    pub cache_outbox_cap: usize,
    /// NI outbox capacity at core-layer nodes.
    pub core_outbox_cap: usize,
    /// Livelock guard: maximum hold duration at a parent.
    pub max_hold: Cycle,
    /// Release slack for held packets (cycles).
    pub hold_slack: Cycle,
    /// Invariant auditing configuration (`None` = off).
    pub audit: Option<AuditConfig>,
    /// Telemetry collection configuration (`None` = off).
    pub telemetry: Option<TelemetryConfig>,
    /// Fault-injection campaign (`None` = off).
    pub faults: Option<FaultPlan>,
}

/// A one-time snapshot of the NoC environment fallbacks
/// (`SNOC_AUDIT`, `SNOC_TELEMETRY`, `SNOC_FAULTS`, `SNOC_SHARDS`).
///
/// [`NetworkParams::from_config`] historically read those variables at
/// *construction time*, i.e. once per simulation cell. In a
/// long-running multi-tenant process (the sweep server) that is
/// cross-job contamination: an environment mutation between accepting
/// a job and running its cells would alter the accepted job. Capturing
/// the environment once into a `NocEnv` and resolving parameters
/// through [`NetworkParams::resolve`] pins every cell to the snapshot
/// taken at startup. `NocEnv::default()` is the hermetic "no
/// environment" snapshot (everything off, serial stepping).
#[derive(Debug, Clone, Copy, Default)]
pub struct NocEnv {
    /// `SNOC_AUDIT` resolution (`None` = off).
    pub audit: Option<AuditConfig>,
    /// `SNOC_TELEMETRY` resolution (`None` = off).
    pub telemetry: Option<TelemetryConfig>,
    /// `SNOC_FAULTS` resolution (`None` = off).
    pub faults: Option<FaultPlan>,
    /// `SNOC_SHARDS` resolution (`None` = unset, i.e. serial).
    pub shards: Option<usize>,
}

impl NocEnv {
    /// Reads all four fallback variables, once, now.
    pub fn capture() -> Self {
        Self {
            audit: AuditConfig::from_env(),
            telemetry: TelemetryConfig::from_env(),
            faults: FaultPlan::from_env(),
            shards: std::env::var("SNOC_SHARDS")
                .ok()
                .and_then(|v| v.parse().ok()),
        }
    }
}

impl NetworkParams {
    /// Derives the network parameters from a full system
    /// configuration, reading the environment fallbacks *now* (the
    /// historical per-cell behaviour; single-shot binaries and direct
    /// [`Network::new`] users keep it). Multi-cell engines should
    /// capture a [`NocEnv`] once and call [`NetworkParams::resolve`].
    pub fn from_config(cfg: &SystemConfig) -> Self {
        Self::resolve(cfg, &NocEnv::capture())
    }

    /// Derives the network parameters from a full system
    /// configuration, with every environment fallback taken from the
    /// pre-captured `env` snapshot instead of the live process
    /// environment.
    pub fn resolve(cfg: &SystemConfig, env: &NocEnv) -> Self {
        let mut noc = cfg.noc;
        if noc.shards == 0 {
            // Unset in the config: the captured `SNOC_SHARDS` knob
            // decides, defaulting to the serial single partition.
            noc.shards = env.shards.unwrap_or(1);
        }
        Self {
            noc,
            path_mode: cfg.path_mode,
            regions: cfg.regions,
            placement: cfg.tsb_placement,
            parent_hops: cfg.parent_hops,
            arbitration: cfg.arbitration,
            wb_window: cfg.wb_window,
            bank_read_latency: cfg.l2_read_service_latency(),
            bank_write_latency: cfg.l2_write_latency(),
            cache_outbox_cap: 4,
            core_outbox_cap: 64,
            max_hold: 3 * cfg.mem.stt_write_latency,
            hold_slack: cfg.noc.hold_slack,
            audit: env.audit,
            telemetry: env.telemetry,
            faults: env.faults,
        }
    }
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Packets handed to `inject`.
    pub offered: u64,
    /// Packets delivered to endpoint outboxes.
    pub delivered: u64,
    /// End-to-end latency of delivered packets.
    pub latency: Accumulator,
    /// Latency of request-class packets.
    pub request_latency: Accumulator,
    /// Latency of response-class packets.
    pub response_latency: Accumulator,
    /// Latency of coherence-class packets.
    pub coherence_latency: Accumulator,
    /// Flits over horizontal (in-layer) links.
    pub lateral_flits: u64,
    /// Flits over vertical TSV/TSB links.
    pub vertical_flits: u64,
    /// Vertical flits that rode the second lane of a wide TSB.
    pub wide_tsb_flits: u64,
    /// Window-based estimator acks processed.
    pub tag_acks: u64,
}

/// A wake list over `n` indexed components, stored as a bitmask so
/// membership updates are O(1) and iteration visits members in
/// ascending index order — exactly the order the former full scans
/// used, which keeps activity-driven stepping byte-identical to
/// stepping everything and skipping the idle.
#[derive(Debug, Clone)]
struct WakeMask {
    bits: Vec<u64>,
}

impl WakeMask {
    fn new(n: usize) -> Self {
        Self {
            bits: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.bits[i >> 6] |= 1 << (i & 63);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.bits[i >> 6] &= !(1 << (i & 63));
    }

    fn words(&self) -> usize {
        self.bits.len()
    }

    /// Snapshot of one 64-bit word (safe to take while clearing bits
    /// of the same mask or setting bits of *other* masks).
    #[inline]
    fn word(&self, w: usize) -> u64 {
        self.bits[w]
    }
}

/// The network view handed to routers.
struct View<'a> {
    arena: &'a Arena,
    routing: &'a RoutingTable,
    mesh: Mesh,
}

impl NetView for View<'_> {
    fn packet(&self, id: PacketId) -> &Packet {
        self.arena.get(id)
    }
    fn route(&self, at: Coord, packet: &Packet) -> Direction {
        self.routing.next_hop(at, packet)
    }
    fn dest_bank(&self, packet: &Packet) -> Option<BankId> {
        packet.dest_bank(self.mesh)
    }
}

/// Minimum total buffered flits before the partition phase spawns
/// threads: below this the scope/spawn overhead dwarfs the work.
/// Gating on load cannot change outputs — the merge phase replays the
/// partition mailboxes in the same canonical order either way.
const SPAWN_THRESHOLD: usize = 768;

/// Read-only state shared by every partition during the parallel
/// phase of a cycle.
struct StepShared<'a> {
    view: View<'a>,
    now: Cycle,
    router_stages: u64,
    policy: ArbitrationPolicy,
    max_hold: Cycle,
    hold_slack: Cycle,
    tsb_extra: usize,
    wide_down: &'a [bool],
    fault_blocked: Option<&'a [u8]>,
}

/// One partition's mutable slice of the network: its workspace shard,
/// its routers and NICs, its wake masks (local bit indices) and its
/// outbound mailboxes (`moves`, `stamps`), merged serially at the
/// cycle boundary.
struct PartCtx<'a> {
    /// First global router index of the partition.
    start: usize,
    ws: &'a mut NocWorkspace,
    routers: &'a mut [Router],
    nics: &'a mut [Nic],
    inject_wake: &'a mut WakeMask,
    router_wake: &'a mut WakeMask,
    moves: &'a mut Vec<(usize, SwitchMove)>,
    stamps: &'a mut Vec<PacketId>,
}

/// Per-partition mailbox scratch, persistent across cycles.
#[derive(Debug, Default)]
struct PartScratch {
    /// Granted switch moves, in local VA/SA visit order.
    moves: Vec<(usize, SwitchMove)>,
    /// Packets whose head flit entered the network this cycle
    /// (`injected_at` is stamped after the partition barrier).
    stamps: Vec<PacketId>,
}

/// The intra-cycle work of one partition: injection at its NICs, then
/// VC and switch allocation at its routers, all against its own
/// workspace shard. Granted moves land in the partition mailbox; the
/// serial merge phase applies them in (partition, collection) order,
/// which — partitions being contiguous ascending index ranges — is
/// exactly the global ascending order of the serial stepper.
fn step_partition(ctx: &mut PartCtx<'_>, sh: &StepShared<'_>) {
    // Injection: one flit per woken NI per cycle.
    for w in 0..ctx.inject_wake.words() {
        let mut word = ctx.inject_wake.word(w);
        while word != 0 {
            let li = (w << 6) + word.trailing_zeros() as usize;
            word &= word - 1;
            if ctx.nics[li].inject_backlog() == 0 {
                ctx.inject_wake.clear(li);
                continue;
            }
            if ctx.nics[li].inject_step(
                &mut ctx.routers[li],
                ctx.ws,
                sh.view.arena,
                sh.now,
                sh.router_stages,
                ctx.stamps,
            ) {
                ctx.router_wake.set(li);
            }
            if ctx.nics[li].inject_backlog() == 0 {
                ctx.inject_wake.clear(li);
            }
        }
    }

    // VC allocation and switch allocation at every active router.
    for w in 0..ctx.router_wake.words() {
        let mut word = ctx.router_wake.word(w);
        while word != 0 {
            let li = (w << 6) + word.trailing_zeros() as usize;
            word &= word - 1;
            let idx = ctx.start + li;
            if ctx.ws.buffered(idx) == 0 {
                ctx.router_wake.clear(li);
                continue;
            }
            let p = StepParams {
                now: sh.now,
                policy: sh.policy,
                max_hold: sh.max_hold,
                hold_slack: sh.hold_slack,
                wide_down: sh.wide_down[idx],
                tsb_extra: sh.tsb_extra,
                blocked: sh.fault_blocked.map_or(0, |b| b[idx]),
            };
            ctx.routers[li].step_va(ctx.ws, &sh.view, p);
            ctx.routers[li].step_sa(ctx.ws, &sh.view, p, ctx.moves);
        }
    }
}

/// The cycle-level 3D NoC simulator.
#[derive(Debug)]
pub struct Network {
    params: NetworkParams,
    mesh: Mesh,
    pub(crate) routing: RoutingTable,
    parents: ParentMap,
    pub(crate) routers: Vec<Router>,
    /// `links[router][port]`: the router at the far end of each link,
    /// built once from the mesh (credit returns, flit delivery, RCA).
    links: Vec<Links>,
    /// Contiguous band-aligned partitions of the router index space.
    parts: PartitionMap,
    /// The structure-of-arrays stores holding every router's VC
    /// buffer, credit and hold lanes — one shard per partition, each
    /// indexed by *global* router index.
    pub(crate) shards: Vec<NocWorkspace>,
    pub(crate) nics: Vec<Nic>,
    pub(crate) arena: Arena,
    estimator: EstimatorState,
    /// RCA scratch: every router's occupancy byte this cycle.
    rca_occupancy: Vec<u8>,
    /// WB `(parent, child)` estimates changed by a tag ack since the
    /// last refresh of the parents' `child_cong`.
    wb_dirty: Vec<(Coord, BankId)>,
    wide_down: Vec<bool>,
    now: Cycle,
    stats: NetStats,
    /// Per-partition wake lists (local bit indices). Routers that may
    /// have work: a router is woken when a flit enters it and put back
    /// to sleep when visited empty.
    router_wake: Vec<WakeMask>,
    /// NICs with injection backlog (woken on enqueue), per partition.
    nic_inject_wake: Vec<WakeMask>,
    /// NICs with buffered ejection flits (woken on ejection), per
    /// partition.
    nic_eject_wake: Vec<WakeMask>,
    /// Per-partition mailbox scratch, persistent across cycles.
    scratch: Vec<PartScratch>,
    /// Whether the partition phase may use scoped threads (more than
    /// one partition and more than one host core).
    spawn_threads: bool,
    /// Cycles whose partition phase actually ran on spawned threads
    /// (diagnostics: the work gate keeps light cycles inline).
    spawned_cycles: u64,
    /// Indices of parent routers (non-empty child list), ascending.
    parent_idxs: Vec<u32>,
    /// Persistent scratch for the NIC drain credit sink.
    eject_credits: Vec<(usize, u8)>,
    /// Persistent scratch for the NIC drain event sink.
    eject_events: Vec<DeliveryEvent>,
    /// Optional invariant checker, boxed off the hot state.
    auditor: Option<Box<NetAuditor>>,
    /// Optional telemetry collector, boxed off the hot state.
    telemetry: Option<Box<NetTelemetry>>,
    /// Optional fault-injection campaign, boxed off the hot state.
    faults: Option<Box<FaultState>>,
}

impl Network {
    /// Builds the network.
    ///
    /// # Panics
    ///
    /// Panics if the region count cannot tile the mesh.
    pub fn new(params: NetworkParams) -> Self {
        assert!(
            params.noc.tsb_width_factor <= MAX_BURST,
            "tsb_width_factor {} exceeds the supported burst bound {MAX_BURST}",
            params.noc.tsb_width_factor
        );
        let mesh = Mesh::new(params.noc.width, params.noc.height);
        let regions = RegionMap::new(mesh, params.regions, params.placement);
        let parents = ParentMap::new(
            mesh,
            &regions,
            params.parent_hops,
            params.noc.router_stages,
            params.noc.link_latency,
        );
        let n = mesh.nodes_per_layer();

        let mut routers = Vec::with_capacity(2 * n);
        let mut nics = Vec::with_capacity(2 * n);
        let mut wide_down = vec![false; 2 * n];
        for layer in [Layer::Core, Layer::Cache] {
            for node in mesh.nodes() {
                let coord = mesh.coord(node, layer);
                let children = parents
                    .children_of(coord)
                    .map(<[_]>::to_vec)
                    .unwrap_or_default();
                routers.push(Router::new(
                    routers.len(),
                    coord,
                    params.noc.vcs_per_port,
                    params.noc.vc_depth,
                    children,
                ));
                let cap = match layer {
                    Layer::Core => params.core_outbox_cap,
                    Layer::Cache => params.cache_outbox_cap,
                };
                nics.push(Nic::new(
                    coord,
                    params.noc.vcs_per_port,
                    params.noc.vc_depth,
                    params.noc.data_flits,
                    cap,
                ));
            }
        }

        if params.path_mode == RequestPathMode::RegionTsbs {
            for r in 0..regions.regions() {
                let t = regions.tsb_node(snoc_common::ids::RegionId::new(r as u16));
                wide_down[t.index()] = true; // core-layer router above the TSB
            }
        }

        let estimator = match params.arbitration {
            ArbitrationPolicy::BankAware {
                estimator: Estimator::Rca,
            } => EstimatorState::Rca(RcaState::new(2 * n)),
            ArbitrationPolicy::BankAware {
                estimator: Estimator::WindowBased,
            } => {
                let map = parents
                    .parents()
                    .map(|p| {
                        let kids = parents.children_of(p).unwrap().iter().map(|c| c.bank);
                        (p, WbEstimator::new(kids))
                    })
                    .collect();
                EstimatorState::WindowBased(map)
            }
            _ => EstimatorState::Simple,
        };

        let routing = RoutingTable::new(mesh, params.path_mode, regions);
        let parent_idxs = routers
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.children().is_empty())
            .map(|(i, _)| i as u32)
            .collect();
        let telemetry = params.telemetry.map(|cfg| {
            Box::new(NetTelemetry::new(
                cfg,
                routers.len(),
                params.noc.vcs_per_port,
            ))
        });
        if telemetry.is_some() {
            // Routers report VA grants and closed holds through their
            // taps only while a collector is listening.
            for r in &mut routers {
                r.tap = Some(Box::default());
            }
        }
        // Partitions align to bands of two mesh rows (rows of the 2x2
        // router blocks); a `shards` of 0 or 1 is the serial single
        // partition.
        let parts = PartitionMap::new(
            routers.len(),
            2 * params.noc.width as usize,
            params.noc.shards,
        );
        let shards = (0..parts.parts())
            .map(|p| {
                NocWorkspace::with_base(
                    parts.start(p),
                    parts.len(p),
                    params.noc.vcs_per_port,
                    params.noc.vc_depth,
                )
            })
            .collect();
        let spawn_threads = parts.parts() > 1
            && std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) > 1;
        Self {
            params,
            mesh,
            routing,
            parents,
            router_wake: (0..parts.parts())
                .map(|p| WakeMask::new(parts.len(p)))
                .collect(),
            nic_inject_wake: (0..parts.parts())
                .map(|p| WakeMask::new(parts.len(p)))
                .collect(),
            nic_eject_wake: (0..parts.parts())
                .map(|p| WakeMask::new(parts.len(p)))
                .collect(),
            scratch: (0..parts.parts()).map(|_| PartScratch::default()).collect(),
            spawn_threads,
            spawned_cycles: 0,
            parent_idxs,
            eject_credits: Vec::new(),
            eject_events: Vec::new(),
            shards,
            parts,
            links: link_table(mesh),
            rca_occupancy: vec![0; routers.len()],
            wb_dirty: Vec::new(),
            routers,
            nics,
            arena: Arena::new(),
            estimator,
            wide_down,
            now: 0,
            stats: NetStats::default(),
            auditor: params.audit.map(|cfg| Box::new(NetAuditor::new(cfg))),
            telemetry,
            faults: params
                .faults
                .map(|plan| Box::new(FaultState::new(plan, 2 * n))),
        }
    }

    /// The mesh geometry.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The region map in force.
    pub fn regions(&self) -> &RegionMap {
        self.routing.regions()
    }

    /// The parent/child mapping in force.
    pub fn parents(&self) -> &ParentMap {
        &self.parents
    }

    /// The construction parameters.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// Current simulation cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Packets currently in flight (injected or queued, not yet
    /// consumed by an endpoint).
    pub fn in_flight(&self) -> usize {
        self.arena.live()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Cycles whose partition phase ran on spawned threads
    /// (diagnostics; zero when serial or when every cycle stayed under
    /// the work gate).
    pub fn spawned_cycles(&self) -> u64 {
        self.spawned_cycles
    }

    /// The audit report, when auditing is enabled.
    pub fn audit_report(&self) -> Option<&AuditReport> {
        self.auditor.as_deref().map(NetAuditor::report)
    }

    /// Router index for a coordinate.
    pub(crate) fn ridx(&self, c: Coord) -> usize {
        let n = self.mesh.nodes_per_layer();
        let base = if c.layer == Layer::Cache { n } else { 0 };
        base + self.mesh.node(c).index()
    }

    /// Read access to the router at a coordinate.
    pub fn router(&self, c: Coord) -> &Router {
        &self.routers[self.ridx(c)]
    }

    /// The workspace shard owning `router` (global index).
    pub(crate) fn shard(&self, router: usize) -> &NocWorkspace {
        &self.shards[self.parts.of(router)]
    }

    /// A read view over every workspace shard, dispatching global
    /// router indices (instrumentation and conformance tests).
    pub fn ws_view(&self) -> WsView<'_> {
        WsView::new(&self.shards)
    }

    /// Partition of a router, with a branch instead of a table walk on
    /// the serial path (the common case, and the one the perf baseline
    /// gates).
    #[inline]
    fn part_of(&self, idx: usize) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            self.parts.of(idx)
        }
    }

    #[inline]
    fn wake_router(&mut self, idx: usize) {
        if self.router_wake.len() == 1 {
            self.router_wake[0].set(idx);
        } else {
            let p = self.parts.of(idx);
            self.router_wake[p].set(idx - self.parts.start(p));
        }
    }

    #[inline]
    fn wake_nic_inject(&mut self, idx: usize) {
        if self.nic_inject_wake.len() == 1 {
            self.nic_inject_wake[0].set(idx);
        } else {
            let p = self.parts.of(idx);
            self.nic_inject_wake[p].set(idx - self.parts.start(p));
        }
    }

    #[inline]
    fn wake_nic_eject(&mut self, idx: usize) {
        if self.nic_eject_wake.len() == 1 {
            self.nic_eject_wake[0].set(idx);
        } else {
            let p = self.parts.of(idx);
            self.nic_eject_wake[p].set(idx - self.parts.start(p));
        }
    }

    /// Iterates all routers.
    pub fn routers(&self) -> impl Iterator<Item = &Router> {
        self.routers.iter()
    }

    /// Packets waiting in the injection queues of the NI at `at`
    /// (endpoint back-pressure probe).
    pub fn inject_backlog(&self, at: Coord) -> usize {
        self.nics[self.ridx(at)].inject_backlog()
    }

    /// Queues a packet for injection at its source NI; returns its id.
    pub fn inject(&mut self, packet: Packet) -> PacketId {
        let src = packet.src;
        let class = packet.kind.class();
        let id = self.arena.insert(packet);
        if let Some(a) = &mut self.auditor {
            a.note_offered(self.arena.get(id).uid, self.now);
        }
        if let Some(t) = &mut self.telemetry {
            t.note_inject(self.arena.get(id).uid, src, self.now);
        }
        let idx = self.ridx(src);
        self.nics[idx].enqueue(id, class);
        self.wake_nic_inject(idx);
        self.stats.offered += 1;
        id
    }

    /// Takes the packets delivered at a node since the last drain.
    pub fn drain_delivered(&mut self, at: Coord) -> Vec<Packet> {
        self.drain_delivered_up_to(at, usize::MAX)
    }

    /// Takes at most `max` delivered packets at a node; the remainder
    /// stays in the NI outbox and back-pressures the network (the
    /// paper's "queued at the network interface").
    pub fn drain_delivered_up_to(&mut self, at: Coord, max: usize) -> Vec<Packet> {
        let idx = self.ridx(at);
        if self.nics[idx].outbox_len() == 0 {
            // Nothing to take, record or filter (the fault filter draws
            // per packet, so an empty set draws nothing).
            return Vec::new();
        }
        let mut delivered = self.nics[idx].pop_delivered_up_to(&mut self.arena, max);
        for p in &delivered {
            if let Some(a) = &mut self.auditor {
                a.note_delivered(p.uid, self.now);
            }
            let lat = p.net_latency() as f64;
            self.stats.delivered += 1;
            self.stats.latency.record(lat);
            match p.kind.class() {
                TrafficClass::Request => self.stats.request_latency.record(lat),
                TrafficClass::Response => self.stats.response_latency.record(lat),
                TrafficClass::Coherence => self.stats.coherence_latency.record(lat),
            }
            if let Some(t) = &mut self.telemetry {
                let hops = p.src.manhattan(p.dst) + u32::from(p.src.layer != p.dst.layer);
                t.note_deliver(p.uid, at, p.kind.class(), hops, p.net_latency(), self.now);
            }
        }
        // Fault injection: a bank in a dropped-ack episode may lose a
        // request *after* network delivery (the network conserved the
        // packet — the auditor and latency stats above already saw it —
        // but the endpoint never does; the NI timeout re-injects it).
        if let Some(f) = &mut self.faults {
            if f.may_drop() {
                let (mesh, now) = (self.mesh, self.now);
                delivered.retain(|p| f.filter_delivery(p, mesh, now));
            }
        }
        delivered
    }

    /// Advances the network by one cycle.
    ///
    /// The cycle runs in phases. The partition phase — injection plus
    /// VC/switch allocation — touches only partition-local state and
    /// may run one scoped thread per partition; everything that
    /// crosses a partition boundary (link flit transfers, credit
    /// returns, `injected_at` stamps, telemetry taps) is exchanged
    /// through per-partition mailboxes replayed serially in
    /// (partition, collection) order, which equals the global
    /// ascending-index order of the serial stepper — so run
    /// fingerprints are byte-identical at any shard count.
    ///
    /// Each phase walks its wake list instead of every component: the
    /// lists hold a superset of the components with work, are visited
    /// in ascending index order (identical to the former full scans),
    /// and members found idle are dropped — so quiescent corners of
    /// the two meshes cost zero work per cycle.
    pub fn step(&mut self) {
        self.fault_tick();
        let now = self.now;
        self.refresh_child_cong();

        self.step_partitions(now);
        self.merge_partitions(now);
        self.drain_ejection(now);

        // Estimator upkeep.
        if let EstimatorState::Rca(rca) = &mut self.estimator {
            for ws in &self.shards {
                let first = ws.base_router();
                for i in first..first + ws.routers() {
                    self.rca_occupancy[i] = ws.occupancy_byte(i);
                }
            }
            rca.propagate(&self.rca_occupancy, &self.links);
        }
        if now.is_multiple_of(self.params.noc.wb_expire_period) {
            if let EstimatorState::WindowBased(map) = &mut self.estimator {
                for wb in map.values_mut() {
                    wb.expire_stale(now, self.params.noc.wb_tag_timeout);
                }
            }
        }

        // Telemetry sees the same end-of-step state the auditor checks.
        if let Some(t) = &mut self.telemetry {
            t.on_cycle_end(
                now,
                &self.routers,
                &WsView::new(&self.shards),
                self.arena.live(),
                self.stats.delivered,
                &self.wide_down,
            );
        }

        // Invariants hold at end-of-step: flit movement and credit
        // returns are synchronous, so there is no on-the-wire state.
        if let Some(mut a) = self.auditor.take() {
            a.audit_cycle(self);
            self.auditor = Some(a);
        }

        self.now += 1;
    }

    /// The parallel phase: injection and VC/switch allocation per
    /// partition. With one partition (or one host core, or too little
    /// buffered work to amortize a spawn) the partitions step inline
    /// on this thread — same code, same mailboxes, same results.
    #[inline]
    fn step_partitions(&mut self, now: Cycle) {
        let np = self.parts.parts();
        if np == 1 {
            self.step_serial(now);
            return;
        }
        let shared = StepShared {
            view: View {
                arena: &self.arena,
                routing: &self.routing,
                mesh: self.mesh,
            },
            now,
            router_stages: self.params.noc.router_stages,
            policy: self.params.arbitration,
            max_hold: self.params.max_hold,
            hold_slack: self.params.hold_slack,
            tsb_extra: self.params.noc.tsb_width_factor.saturating_sub(1),
            wide_down: &self.wide_down,
            fault_blocked: self.faults.as_deref().map(FaultState::blocked_masks),
        };

        let run_parallel = self.spawn_threads
            && self
                .shards
                .iter()
                .map(NocWorkspace::total_buffered)
                .sum::<usize>()
                >= SPAWN_THRESHOLD;
        let mut ctxs = Vec::with_capacity(np);
        let mut routers = self.routers.as_mut_slice();
        let mut nics = self.nics.as_mut_slice();
        let rest = self
            .shards
            .iter_mut()
            .zip(&mut self.nic_inject_wake)
            .zip(&mut self.router_wake)
            .zip(&mut self.scratch);
        for (p, (((ws, iw), rw), sc)) in rest.enumerate() {
            let len = self.parts.len(p);
            let (r, tail) = std::mem::take(&mut routers).split_at_mut(len);
            routers = tail;
            let (n, tail) = std::mem::take(&mut nics).split_at_mut(len);
            nics = tail;
            ctxs.push(PartCtx {
                start: self.parts.start(p),
                ws,
                routers: r,
                nics: n,
                inject_wake: iw,
                router_wake: rw,
                moves: &mut sc.moves,
                stamps: &mut sc.stamps,
            });
        }
        if run_parallel {
            self.spawned_cycles += 1;
            let sh = &shared;
            std::thread::scope(|s| {
                for ctx in &mut ctxs {
                    s.spawn(move || step_partition(ctx, sh));
                }
            });
        } else {
            for ctx in &mut ctxs {
                step_partition(ctx, &shared);
            }
        }
    }

    /// The single-partition step, inlined over the network's own
    /// fields: the same injection and VA/SA loops as
    /// [`step_partition`] (same visit order, same mailboxes), without
    /// the context indirection — this is the serial hot path the perf
    /// baseline gates.
    #[inline]
    fn step_serial(&mut self, now: Cycle) {
        let ws = &mut self.shards[0];
        let sc = &mut self.scratch[0];
        let iw = &mut self.nic_inject_wake[0];
        let rw = &mut self.router_wake[0];
        let router_stages = self.params.noc.router_stages;

        // Injection: one flit per woken NI per cycle.
        for w in 0..iw.words() {
            let mut word = iw.word(w);
            while word != 0 {
                let i = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                if self.nics[i].inject_backlog() == 0 {
                    iw.clear(i);
                    continue;
                }
                if self.nics[i].inject_step(
                    &mut self.routers[i],
                    ws,
                    &self.arena,
                    now,
                    router_stages,
                    &mut sc.stamps,
                ) {
                    rw.set(i);
                }
                if self.nics[i].inject_backlog() == 0 {
                    iw.clear(i);
                }
            }
        }

        // VC allocation and switch allocation at every active router.
        let view = View {
            arena: &self.arena,
            routing: &self.routing,
            mesh: self.mesh,
        };
        let tsb_extra = self.params.noc.tsb_width_factor.saturating_sub(1);
        let fault_blocked = self.faults.as_deref().map(FaultState::blocked_masks);
        for w in 0..rw.words() {
            let mut word = rw.word(w);
            while word != 0 {
                let idx = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                if ws.buffered(idx) == 0 {
                    rw.clear(idx);
                    continue;
                }
                let p = StepParams {
                    now,
                    policy: self.params.arbitration,
                    max_hold: self.params.max_hold,
                    hold_slack: self.params.hold_slack,
                    wide_down: self.wide_down[idx],
                    tsb_extra,
                    blocked: fault_blocked.map_or(0, |b| b[idx]),
                };
                self.routers[idx].step_va(ws, &view, p);
                self.routers[idx].step_sa(ws, &view, p, &mut sc.moves);
            }
        }
    }

    /// The serial merge at the cycle boundary: apply every partition's
    /// mailbox in (partition, collection) order. Contiguous ascending
    /// partitions make this exactly the order the serial stepper
    /// produces: stamps partition-major = NIC-ascending, taps drained
    /// router-ascending (idle routers hold empty taps), moves
    /// partition-major = VA/SA visit order.
    #[inline]
    fn merge_partitions(&mut self, now: Cycle) {
        for sc in &mut self.scratch {
            for &pid in &sc.stamps {
                self.arena.get_mut(pid).injected_at = now;
            }
            sc.stamps.clear();
        }

        if let Some(t) = &mut self.telemetry {
            for (idx, r) in self.routers.iter_mut().enumerate() {
                let coord = r.coord();
                if let Some(tap) = r.tap.as_mut() {
                    for &(pid, dir, vc) in &tap.va_grants {
                        t.note_va(self.arena.get(pid).uid, coord, dir, vc, now);
                    }
                    for &delay in &tap.hold_delays {
                        t.note_hold(idx, delay);
                    }
                    tap.clear();
                }
            }
        }

        for p in 0..self.scratch.len() {
            let mut moves = std::mem::take(&mut self.scratch[p].moves);
            for (idx, m) in moves.drain(..) {
                self.apply_move(idx, m, now);
            }
            self.scratch[p].moves = moves;
        }
    }

    /// Ejection, assembly and estimator events, partition-major (=
    /// global NIC-ascending order).
    #[inline]
    fn drain_ejection(&mut self, now: Cycle) {
        let mut credits = std::mem::take(&mut self.eject_credits);
        let mut events = std::mem::take(&mut self.eject_events);
        for p in 0..self.parts.parts() {
            let start = self.parts.start(p);
            for w in 0..self.nic_eject_wake[p].words() {
                let mut word = self.nic_eject_wake[p].word(w);
                while word != 0 {
                    let li = (w << 6) + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let i = start + li;
                    credits.clear();
                    self.nics[i].drain_eject(&mut self.arena, now, &mut credits, &mut events);
                    for &(vc, k) in &credits {
                        self.routers[i].return_credit(&mut self.shards[p], Direction::Local, vc, k);
                    }
                    for e in events.drain(..) {
                        self.handle_event(e);
                    }
                    // Draining may have enqueued a tag ack for injection.
                    if self.nics[i].inject_backlog() > 0 {
                        self.nic_inject_wake[p].set(li);
                    }
                    // Back-pressured tails stay buffered and keep the NI
                    // on the wake list.
                    if self.nics[i].eject_buffered() == 0 {
                        self.nic_eject_wake[p].clear(li);
                    }
                }
            }
        }
        self.eject_credits = credits;
        self.eject_events = events;
    }

    /// Runs `cycles` network cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// One cycle of the fault campaign: expire finished episodes, draw
    /// this cycle's events (fixed order, so the schedule is a pure
    /// function of the plan seed), fire the permanent TSB kill, sweep
    /// wedged busy horizons and re-inject due retries. No-op when
    /// injection is off.
    fn fault_tick(&mut self) {
        let Some(mut f) = self.faults.take() else {
            return;
        };
        let now = self.now;
        let plan = *f.plan();
        let n = self.mesh.nodes_per_layer();
        let mut degraded = f.expire(now);

        let (tsb, link, port, bank) = f.draw_events();
        if tsb {
            // A TSB outage severs the vertical hop in both directions:
            // the Down port of the core-layer router above it and the
            // Up port of the cache-layer router below it.
            f.summary.tsb_faults += 1;
            let regions = self.routing.regions();
            let r = f.rng().below(regions.regions());
            let t = regions.tsb_node(RegionId::new(r as u16));
            let until = now + plan.outage_cycles;
            f.push_outage(t.index(), 1 << Direction::Down.port(), until);
            f.push_outage(n + t.index(), 1 << Direction::Up.port(), until);
            degraded = true;
        }
        if link {
            f.summary.link_faults += 1;
            let r = f.rng().below(2 * n);
            let dir = f.draw_lateral();
            f.push_outage(r, 1 << dir.port(), now + plan.outage_cycles);
            degraded = true;
        }
        if port {
            f.summary.port_faults += 1;
            let r = f.rng().below(2 * n);
            let p = f.rng().below(PORTS);
            f.push_outage(r, 1 << p, now + plan.outage_cycles);
            degraded = true;
        }
        if bank {
            f.summary.bank_faults += 1;
            let b = BankId::new(f.rng().below(n) as u16);
            if f.rng().chance(0.5) {
                // Stuck-busy: the parent's prediction wedges far out;
                // the periodic expiry sweep below is what un-wedges it.
                let idx = self.ridx(self.parents.parent_of(b));
                self.routers[idx]
                    .busy
                    .force_busy(b, now + plan.stuck_cycles);
            } else {
                f.push_dropping(b, now + plan.outage_cycles);
            }
            degraded = true;
        }

        if !f.killed {
            if let Some(at) = plan.kill_tsb_at {
                if now >= at
                    && self.params.path_mode == RequestPathMode::RegionTsbs
                    && self.params.regions > 1
                {
                    let regions = self.routing.regions();
                    let victim = RegionId::new(f.rng().below(regions.regions()) as u16);
                    let dead = self.mesh.coord(regions.tsb_node(victim), Layer::Cache);
                    // Re-home onto the nearest surviving TSB (ties break
                    // towards the lowest region index).
                    let survivor = (0..regions.regions() as u16)
                        .filter(|&r| r != victim.raw())
                        .map(|r| regions.tsb_node(RegionId::new(r)))
                        .min_by_key(|&t| dead.manhattan(self.mesh.coord(t, Layer::Cache)));
                    if let Some(survivor) = survivor {
                        self.rehome_region(victim, survivor);
                        f.killed = true;
                        f.summary.rehomed_regions += 1;
                    }
                }
            }
        }

        if plan.expiry_period > 0 && now > 0 && now.is_multiple_of(plan.expiry_period) {
            for &idx in &self.parent_idxs {
                let clamped = self.routers[idx as usize]
                    .busy
                    .expire_stale(now, plan.busy_cap);
                f.summary.busy_expiries += clamped as u64;
            }
        }

        let mut due = Vec::new();
        f.due_retries(now, &mut due);
        for p in due {
            self.inject(p);
        }

        if degraded || f.killed {
            f.summary.degraded_cycles += 1;
        }
        self.faults = Some(f);
    }

    /// Re-homes `region`'s request traffic onto the TSB at `new_tsb`
    /// (fail-stop degradation after a permanent TSB death).
    ///
    /// Rebuilds everything derived from the region map: the memoized
    /// routing table, the parent/child serialization points (and each
    /// router's busy/congestion tables via
    /// [`Router::set_children`]), the wide-TSB lane set and the
    /// window-based estimator state. Router VC and credit state is
    /// untouched, so traffic already in flight drains normally — routes
    /// are recomputed per-position at each VC allocation, stale WB tag
    /// acks are ignored by the estimator's stamp check, and packets
    /// held at a router that stops being a parent release at its next
    /// allocation pass. The dead TSB's port is deliberately *not*
    /// blocked: already-switched flits must drain, and new requests no
    /// longer route through it.
    pub fn rehome_region(&mut self, region: RegionId, new_tsb: NodeId) {
        let mut regions = self.routing.regions().clone();
        regions.retarget_tsb(region, new_tsb);
        let parents = ParentMap::new(
            self.mesh,
            &regions,
            self.params.parent_hops,
            self.params.noc.router_stages,
            self.params.noc.link_latency,
        );
        for r in &mut self.routers {
            let children = parents
                .children_of(r.coord())
                .map(<[_]>::to_vec)
                .unwrap_or_default();
            r.set_children(children);
        }
        self.wide_down.iter_mut().for_each(|w| *w = false);
        if self.params.path_mode == RequestPathMode::RegionTsbs {
            for r in 0..regions.regions() {
                let t = regions.tsb_node(RegionId::new(r as u16));
                self.wide_down[t.index()] = true;
            }
        }
        self.parent_idxs = self
            .routers
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.children().is_empty())
            .map(|(i, _)| i as u32)
            .collect();
        if matches!(self.estimator, EstimatorState::WindowBased(_)) {
            let map = parents
                .parents()
                .map(|p| {
                    let kids = parents.children_of(p).unwrap().iter().map(|c| c.bank);
                    (p, WbEstimator::new(kids))
                })
                .collect();
            self.estimator = EstimatorState::WindowBased(map);
            // `set_children` zeroed every `child_cong`, which is what
            // the fresh estimators report: nothing is left to refresh.
            self.wb_dirty.clear();
        }
        self.parents = parents;
        self.routing = RoutingTable::new(self.mesh, self.params.path_mode, regions);
    }

    /// Switches fault injection on mid-construction (programmatic
    /// alternative to `SNOC_FAULTS`, race-free under parallel sweeps).
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        self.params.faults = Some(plan);
        self.faults = Some(Box::new(FaultState::new(plan, self.routers.len())));
    }

    /// Switches invariant auditing on mid-construction (programmatic
    /// alternative to `SNOC_AUDIT`, race-free under parallel sweeps).
    pub fn enable_audit(&mut self, cfg: AuditConfig) {
        self.params.audit = Some(cfg);
        self.auditor = Some(Box::new(NetAuditor::new(cfg)));
    }

    /// Switches telemetry collection on mid-construction (programmatic
    /// alternative to `SNOC_TELEMETRY`, race-free under parallel
    /// sweeps). Also installs the per-router taps the collector drains.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        self.params.telemetry = Some(cfg);
        self.telemetry = Some(Box::new(NetTelemetry::new(
            cfg,
            self.routers.len(),
            self.params.noc.vcs_per_port,
        )));
        for r in &mut self.routers {
            r.tap = Some(Box::default());
        }
    }

    /// The fault campaign's summary so far, when injection is enabled.
    pub fn fault_summary(&self) -> Option<FaultSummary> {
        self.faults.as_deref().map(|f| f.summary.clone())
    }

    /// Brings the parents' `child_cong` up to date with the estimator
    /// before VA/SA read it: every child under RCA, whose values move
    /// every cycle; under WB only the children whose estimate a tag
    /// ack changed last cycle (see [`Network::handle_event`]).
    fn refresh_child_cong(&mut self) {
        if !self.params.arbitration.is_bank_aware() {
            return;
        }
        match &self.estimator {
            EstimatorState::Simple => {}
            EstimatorState::Rca(rca) => {
                let per_hop = self.params.noc.vc_depth * self.params.noc.vcs_per_port;
                for &idx in &self.parent_idxs {
                    let idx = idx as usize;
                    self.routers[idx].refresh_child_cong_with(|c| {
                        rca.estimate_cycles(idx, c.first_hop, per_hop, c.hops)
                            .min(3 * c.base_latency)
                    });
                }
            }
            EstimatorState::WindowBased(map) => {
                for &(coord, bank) in &self.wb_dirty {
                    let Some(wb) = map.get(&coord) else { continue };
                    let idx = self.ridx(coord);
                    let r = &mut self.routers[idx];
                    if let Some(slot) = r.child_slot(bank) {
                        let base = r.children()[slot].base_latency;
                        r.child_cong[slot] = wb.estimate(bank).min(3 * base);
                    }
                }
                self.wb_dirty.clear();
            }
        }
    }

    fn apply_move(&mut self, idx: usize, m: SwitchMove, now: Cycle) {
        let coord = self.routers[idx].coord();
        let nflits = m.flits.len() as u8;
        let first = m.flits.first();

        // Parent bookkeeping: busy-table update and WB tagging happen
        // when the head flit of a bank request is forwarded by the
        // destination bank's parent.
        if first.head {
            let pid = first.packet;
            let (kind, bank) = {
                let p = self.arena.get(pid);
                (p.kind, p.dest_bank(self.mesh))
            };
            if let Some(bank) = bank {
                if self.routers[idx].manages(bank) {
                    if let EstimatorState::WindowBased(map) = &mut self.estimator {
                        if let Some(wb) = map.get_mut(&coord) {
                            if let Some(stamp) = wb.on_forward(bank, now, self.params.wb_window) {
                                self.arena.get_mut(pid).wb_tag = Some(WbTag {
                                    stamp,
                                    parent: coord,
                                    child: bank,
                                });
                            }
                        }
                    }
                    let service = if kind.is_bank_write() {
                        self.params.bank_write_latency
                    } else {
                        self.params.bank_read_latency
                    };
                    let extra = (kind.flits(self.params.noc.data_flits) - 1) as u64;
                    let view = View {
                        arena: &self.arena,
                        routing: &self.routing,
                        mesh: self.mesh,
                    };
                    let ws = &self.shards[self.part_of(idx)];
                    self.routers[idx].note_forward(
                        ws,
                        bank,
                        kind.is_bank_write(),
                        service,
                        extra,
                        now,
                        &view,
                    );
                }
            }
        }

        if let Some(t) = &mut self.telemetry {
            let uid = self.arena.get(first.packet).uid;
            t.note_link(idx, coord, uid, m.out_dir, m.out_vc, nflits, now);
        }

        // Return credits upstream for the freed buffer slots.
        let (in_port, in_vc, out_vc) = (m.in_port as usize, m.in_vc as usize, m.out_vc as usize);
        let in_dir = Direction::ALL[in_port];
        if in_dir == Direction::Local {
            self.nics[idx].return_credit(in_vc, nflits);
        } else {
            let uidx = self.links[idx][in_port] as usize;
            let up_part = self.part_of(uidx);
            let ws = &mut self.shards[up_part];
            self.routers[uidx].return_credit(ws, in_dir.arrival_port(), in_vc, nflits);
        }

        // Deliver the flits.
        match m.out_dir {
            Direction::Local => {
                for f in m.flits.iter() {
                    self.nics[idx].accept_eject(out_vc, f);
                }
                self.wake_nic_eject(idx);
            }
            dir => {
                let tidx = self.links[idx][dir.port()] as usize;
                let in_port = dir.arrival_port().port();
                let ready = now + self.params.noc.link_latency + self.params.noc.router_stages;
                let to_part = self.part_of(tidx);
                let ws = &mut self.shards[to_part];
                for f in m.flits.iter() {
                    self.routers[tidx].accept(
                        ws,
                        in_port,
                        out_vc,
                        Flit {
                            ready_at: ready,
                            ..f
                        },
                    );
                }
                self.wake_router(tidx);
                if matches!(dir, Direction::Up | Direction::Down) {
                    self.stats.vertical_flits += nflits as u64;
                    if nflits > 1 {
                        self.stats.wide_tsb_flits += (nflits - 1) as u64;
                    }
                } else {
                    self.stats.lateral_flits += nflits as u64;
                }
            }
        }
    }

    fn handle_event(&mut self, event: DeliveryEvent) {
        match event {
            DeliveryEvent::TagAck(tag, when) => {
                // A bank mid dropped-ack episode may swallow its
                // estimator acks; the WB estimator's periodic stale-tag
                // expiry unwedges the prediction.
                if let Some(f) = &mut self.faults {
                    if f.swallow_ack(tag.child) {
                        return;
                    }
                }
                self.stats.tag_acks += 1;
                let base = self
                    .parents
                    .child_info(tag.parent, tag.child)
                    .map(|c| c.base_latency)
                    .unwrap_or(0);
                if let EstimatorState::WindowBased(map) = &mut self.estimator {
                    if let Some(wb) = map.get_mut(&tag.parent) {
                        let before = wb.estimate(tag.child);
                        if let Some(sample) = wb.on_ack(tag.child, tag.stamp, when, base) {
                            // The parent's `child_cong` picks the new
                            // estimate up at the start of the next step.
                            self.wb_dirty.push((tag.parent, tag.child));
                            if let Some(t) = &mut self.telemetry {
                                t.note_estimator(before, sample);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Clears all statistics (end of warm-up); in-flight traffic is
    /// unaffected.
    pub fn reset_stats(&mut self) {
        self.stats = NetStats::default();
        for r in &mut self.routers {
            r.reset_stats();
        }
        if let Some(t) = &mut self.telemetry {
            t.reset();
        }
    }

    /// The collected telemetry so far, when telemetry is enabled.
    pub fn telemetry_summary(&self) -> Option<TelemetrySummary> {
        self.telemetry.as_deref().map(NetTelemetry::summary)
    }

    /// Total packets held at parent routers so far.
    pub fn held_packets(&self) -> u64 {
        self.routers.iter().map(|r| r.stats.held_packets).sum()
    }

    /// Total hold cycles accumulated at parent routers.
    pub fn held_cycles(&self) -> u64 {
        self.routers.iter().map(|r| r.stats.held_cycles).sum()
    }

    /// Bank requests forwarded by parent routers.
    pub fn forwarded_requests(&self) -> u64 {
        self.routers
            .iter()
            .map(|r| r.stats.forwarded_to_children)
            .sum()
    }

    /// Mean number of request packets buffered in a sampled router
    /// whose destination is exactly `hops` (1..=3) away, sampled at
    /// write forwards (Figure 3 inset / Figure 13a).
    pub fn queue_mean_at_hops(&self, hops: u32) -> f64 {
        assert!((1..=3).contains(&hops));
        let sum: u64 = self
            .routers
            .iter()
            .map(|r| r.stats.queue_by_hops[(hops - 1) as usize])
            .sum();
        let n: u64 = self
            .routers
            .iter()
            .map(|r| r.stats.child_queue_samples)
            .sum();
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// [`Network::queue_mean_at_hops`] at the paper's default H = 2.
    pub fn child_queue_mean(&self) -> f64 {
        self.queue_mean_at_hops(2)
    }

    /// Total flits written into router buffers (energy accounting).
    pub fn buffer_writes(&self) -> u64 {
        self.routers.iter().map(|r| r.stats.buffer_writes).sum()
    }

    /// Total crossbar traversals (energy accounting).
    pub fn switch_traversals(&self) -> u64 {
        self.routers.iter().map(|r| r.stats.switch_traversals).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    fn params(mode: RequestPathMode, arbitration: ArbitrationPolicy) -> NetworkParams {
        NetworkParams {
            noc: NocConfig::default(),
            path_mode: mode,
            regions: 4,
            placement: TsbPlacement::Corner,
            parent_hops: 2,
            arbitration,
            wb_window: 100,
            bank_read_latency: 3,
            bank_write_latency: 33,
            cache_outbox_cap: 4,
            core_outbox_cap: 64,
            max_hold: 99,
            hold_slack: 0,
            audit: None,
            telemetry: None,
            faults: None,
        }
    }

    fn core(net: &Network, node: u16) -> Coord {
        net.mesh()
            .coord(snoc_common::ids::NodeId::new(node), Layer::Core)
    }

    fn cache(net: &Network, node: u16) -> Coord {
        net.mesh()
            .coord(snoc_common::ids::NodeId::new(node), Layer::Cache)
    }

    fn deliver(net: &mut Network, at: Coord, max_cycles: u64) -> Vec<Packet> {
        for _ in 0..max_cycles {
            net.step();
            let got = net.drain_delivered(at);
            if !got.is_empty() {
                return got;
            }
        }
        panic!("nothing delivered at {at} within {max_cycles} cycles");
    }

    #[test]
    fn read_request_crosses_the_chip() {
        let mut net = Network::new(params(
            RequestPathMode::AllTsvs,
            ArbitrationPolicy::RoundRobin,
        ));
        let src = core(&net, 0);
        let dst = cache(&net, 63);
        net.inject(Packet::new(PacketKind::BankRead, src, dst, 0x1000, 5));
        let got = deliver(&mut net, dst, 200);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].token, 5);
        assert_eq!(got[0].addr, 0x1000);
        // 15 hops * 3 cycles + endpoint overheads: sane bounds.
        let lat = got[0].net_latency();
        assert!((45..90).contains(&lat), "latency {lat}");
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn data_packet_arrives_intact() {
        let mut net = Network::new(params(
            RequestPathMode::AllTsvs,
            ArbitrationPolicy::RoundRobin,
        ));
        let src = cache(&net, 9);
        let dst = core(&net, 54);
        net.inject(Packet::new(PacketKind::DataReply, src, dst, 0xBEEF, 9));
        let got = deliver(&mut net, dst, 300);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].addr, 0xBEEF);
    }

    #[test]
    fn region_tsb_requests_ride_the_wide_tsb() {
        // Flit combining needs back-to-back flits buffered at the TSB
        // router, which only happens under contention: converge
        // several writebacks from different cores on one region.
        let mut net = Network::new(params(
            RequestPathMode::RegionTsbs,
            ArbitrationPolicy::RoundRobin,
        ));
        let banks = [25u16, 18, 11, 24, 17, 10, 9, 16];
        for (i, &b) in banks.iter().enumerate() {
            let src = core(&net, (i * 9) as u16);
            let dst = cache(&net, b); // all in region 0
            net.inject(Packet::new(
                PacketKind::Writeback,
                src,
                dst,
                i as u64,
                i as u64,
            ));
        }
        net.run(1500);
        let delivered: usize = banks
            .iter()
            .map(|&b| net.drain_delivered(cache(&net, b)).len())
            .sum();
        assert_eq!(delivered, banks.len());
        assert!(
            net.stats().wide_tsb_flits > 0,
            "contended TSB should combine flits"
        );
    }

    #[test]
    fn many_packets_all_arrive_exactly_once() {
        let mut net = Network::new(params(
            RequestPathMode::RegionTsbs,
            ArbitrationPolicy::RoundRobin,
        ));
        let n = 200;
        for i in 0..n {
            let src = core(&net, (i * 7) % 64);
            let dst = cache(&net, (i * 13) % 64);
            net.inject(Packet::new(
                PacketKind::BankRead,
                src,
                dst,
                i as u64,
                i as u64,
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3000 {
            net.step();
            for node in 0..64u16 {
                let at = cache(&net, node);
                for p in net.drain_delivered(at) {
                    assert!(seen.insert(p.token), "duplicate delivery of {}", p.token);
                }
            }
            if seen.len() == n as usize {
                break;
            }
        }
        assert_eq!(seen.len(), n as usize, "all packets delivered");
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn bank_aware_holds_back_to_back_writes() {
        let aware = ArbitrationPolicy::BankAware {
            estimator: Estimator::Simple,
        };
        let mut net = Network::new(params(RequestPathMode::RegionTsbs, aware));
        let src = core(&net, 7);
        let dst = cache(&net, 25); // managed by parent chip node 91
        for i in 0..4 {
            net.inject(Packet::new(PacketKind::Writeback, src, dst, i, i));
        }
        let mut delivered = 0;
        for _ in 0..2000 {
            net.step();
            delivered += net.drain_delivered(dst).len();
            if delivered == 4 {
                break;
            }
        }
        assert_eq!(delivered, 4);
        assert!(
            net.held_packets() >= 1,
            "later writes must be held at the parent"
        );
        assert!(net.held_cycles() > 0);
    }

    #[test]
    fn round_robin_never_holds() {
        let mut net = Network::new(params(
            RequestPathMode::RegionTsbs,
            ArbitrationPolicy::RoundRobin,
        ));
        let src = core(&net, 7);
        let dst = cache(&net, 25);
        for i in 0..4 {
            net.inject(Packet::new(PacketKind::Writeback, src, dst, i, i));
        }
        net.run(1500);
        assert_eq!(net.held_packets(), 0);
    }

    #[test]
    fn wb_estimator_closes_the_tag_loop() {
        let aware = ArbitrationPolicy::BankAware {
            estimator: Estimator::WindowBased,
        };
        let mut p = params(RequestPathMode::RegionTsbs, aware);
        p.wb_window = 2; // tag frequently so the test is quick
        let mut net = Network::new(p);
        let src = core(&net, 7);
        let dst = cache(&net, 25);
        let mut injected = 0u64;
        let mut drained = 0;
        for cycle in 0..3000 {
            if cycle % 20 == 0 && injected < 30 {
                net.inject(Packet::new(
                    PacketKind::BankRead,
                    src,
                    dst,
                    injected,
                    injected,
                ));
                injected += 1;
            }
            net.step();
            drained += net.drain_delivered(dst).len();
        }
        assert_eq!(drained, 30);
        assert!(
            net.stats().tag_acks > 0,
            "acks must flow back to the parent"
        );
        assert_eq!(net.in_flight(), 0, "tag acks are consumed internally");
    }

    #[test]
    fn outbox_backpressure_throttles_delivery() {
        // Never drain the destination: deliveries stop at the outbox
        // cap while the network holds the rest without losing packets.
        let mut net = Network::new(params(
            RequestPathMode::RegionTsbs,
            ArbitrationPolicy::RoundRobin,
        ));
        let dst = cache(&net, 25);
        for i in 0..40 {
            let src = core(&net, (i % 64) as u16);
            net.inject(Packet::new(
                PacketKind::BankRead,
                src,
                dst,
                i as u64,
                i as u64,
            ));
        }
        net.run(2000);
        assert_eq!(net.stats().delivered, 0, "nothing drained yet");
        let got = net.drain_delivered(dst);
        assert_eq!(got.len(), 4, "outbox cap bounds undrained deliveries");
        net.run(500);
        let got2 = net.drain_delivered_up_to(dst, 2);
        assert_eq!(got2.len(), 2, "partial drain respects the bound");
        net.run(500);
        let got3 = net.drain_delivered(dst);
        assert!(
            !got3.is_empty(),
            "backpressured packets flow after draining"
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let aware = ArbitrationPolicy::BankAware {
                estimator: Estimator::WindowBased,
            };
            let mut net = Network::new(params(RequestPathMode::RegionTsbs, aware));
            for i in 0..100u64 {
                let src = core(&net, ((i * 11) % 64) as u16);
                let dst = cache(&net, ((i * 29) % 64) as u16);
                let kind = if i % 3 == 0 {
                    PacketKind::Writeback
                } else {
                    PacketKind::BankRead
                };
                net.inject(Packet::new(kind, src, dst, i, i));
            }
            net.run(2500);
            for node in 0..64u16 {
                let at = cache(&net, node);
                net.drain_delivered(at);
            }
            (
                net.stats().delivered,
                net.stats().latency.mean(),
                net.held_packets(),
                net.stats().vertical_flits,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn audited_mixed_run_is_clean() {
        let aware = ArbitrationPolicy::BankAware {
            estimator: Estimator::WindowBased,
        };
        let mut p = params(RequestPathMode::RegionTsbs, aware);
        p.wb_window = 2;
        p.audit = Some(AuditConfig::default());
        let mut net = Network::new(p);
        for i in 0..100u64 {
            let src = core(&net, ((i * 11) % 64) as u16);
            let dst = cache(&net, ((i * 29) % 64) as u16);
            let kind = if i % 3 == 0 {
                PacketKind::Writeback
            } else {
                PacketKind::BankRead
            };
            net.inject(Packet::new(kind, src, dst, i, i));
        }
        let mut delivered = 0;
        for _ in 0..2500 {
            net.step();
            for node in 0..64u16 {
                let at = cache(&net, node);
                delivered += net.drain_delivered(at).len();
            }
        }
        assert_eq!(delivered, 100);
        let report = net.audit_report().expect("auditor is on");
        assert!(report.violations == 0, "violations: {:?}", report.samples);
        assert!(report.clean());
        assert!(report.checked_cycles == 2500);
    }

    #[test]
    fn auditor_flags_a_packet_past_the_age_bound() {
        let mut p = params(RequestPathMode::RegionTsbs, ArbitrationPolicy::RoundRobin);
        p.audit = Some(AuditConfig {
            max_age: 50,
            ..AuditConfig::default()
        });
        let mut net = Network::new(p);
        let src = core(&net, 7);
        let dst = cache(&net, 25);
        net.inject(Packet::new(PacketKind::BankRead, src, dst, 0, 0));
        // Never drain the destination: the packet sits in the outbox
        // and trips the watchdog.
        net.run(200);
        let report = net.audit_report().unwrap();
        assert_eq!(report.violations, 1, "age bound reported exactly once");
        assert!(report.samples[0].contains("age bound"));
    }

    #[test]
    fn outbox_backpressure_never_drops_a_delivery() {
        // Satellite regression: with the auditor on, saturate one
        // cache NI (cap 4) far beyond its outbox capacity, drain
        // slowly, and verify every offered packet is delivered exactly
        // once with zero conservation violations.
        let mut p = params(RequestPathMode::RegionTsbs, ArbitrationPolicy::RoundRobin);
        p.audit = Some(AuditConfig::default());
        let mut net = Network::new(p);
        let dst = cache(&net, 25);
        for i in 0..40u64 {
            let src = core(&net, (i % 64) as u16);
            net.inject(Packet::new(PacketKind::BankRead, src, dst, i, i));
        }
        let mut seen = std::collections::HashSet::new();
        for cycle in 0..6000 {
            net.step();
            // Drain at most one packet every 16 cycles: the outbox
            // stays pinned at its cap most of the time.
            if cycle % 16 == 0 {
                for packet in net.drain_delivered_up_to(dst, 1) {
                    assert!(seen.insert(packet.token), "duplicate {}", packet.token);
                }
            }
        }
        for packet in net.drain_delivered(dst) {
            assert!(seen.insert(packet.token), "duplicate {}", packet.token);
        }
        assert_eq!(seen.len(), 40, "every offered packet delivered");
        assert_eq!(net.in_flight(), 0);
        let report = net.audit_report().unwrap();
        assert!(report.violations == 0, "violations: {:?}", report.samples);
    }

    #[test]
    fn telemetry_collects_without_changing_the_run() {
        let aware = ArbitrationPolicy::BankAware {
            estimator: Estimator::WindowBased,
        };
        let run = |telemetry: Option<TelemetryConfig>| {
            let mut p = params(RequestPathMode::RegionTsbs, aware);
            p.wb_window = 2;
            p.telemetry = telemetry;
            let mut net = Network::new(p);
            for i in 0..100u64 {
                let src = core(&net, ((i * 11) % 64) as u16);
                let dst = cache(&net, ((i * 29) % 64) as u16);
                let kind = if i % 3 == 0 {
                    PacketKind::Writeback
                } else {
                    PacketKind::BankRead
                };
                net.inject(Packet::new(kind, src, dst, i, i));
            }
            let mut delivered = 0;
            for _ in 0..2500 {
                net.step();
                for node in 0..64u16 {
                    delivered += net.drain_delivered(cache(&net, node)).len();
                }
            }
            let fp = (
                delivered,
                net.stats().latency.mean(),
                net.held_packets(),
                net.stats().vertical_flits,
                net.stats().tag_acks,
            );
            (fp, net.telemetry_summary())
        };
        let (fp_off, none) = run(None);
        let (fp_on, summary) = run(Some(TelemetryConfig::default()));
        assert!(none.is_none());
        assert_eq!(fp_off, fp_on, "collection must not perturb the run");
        let s = summary.expect("telemetry was on");
        assert!(s.epochs_sampled > 0);
        assert_eq!(s.router_util.len(), 128);
        assert_eq!(
            s.class_latency.iter().map(|h| h.total()).sum::<u64>(),
            100,
            "every delivery lands in a class histogram"
        );
        assert_eq!(
            s.hop_latency.iter().map(|h| h.total()).sum::<u64>(),
            100,
            "and in a hop histogram"
        );
        assert!(s.hold_delay.total() > 0, "bank-aware holds were recorded");
        assert!(
            s.trace
                .iter()
                .any(|e| e.stage == crate::telemetry::TraceStage::Deliver),
            "the trace retains deliveries"
        );
        assert!(
            s.link_flits.iter().flatten().sum::<u64>() > 0,
            "link counters move"
        );
    }

    #[test]
    fn blocked_port_outage_delays_but_never_loses_traffic() {
        use crate::fault::FaultPlan;
        // A long outage on the TSB's Down port while requests stream
        // through it: everything still arrives (as backpressure, not
        // loss), and an identical fault-free run is strictly faster.
        let run = |faults: Option<FaultPlan>| {
            let mut p = params(RequestPathMode::RegionTsbs, ArbitrationPolicy::RoundRobin);
            p.faults = faults;
            let mut net = Network::new(p);
            let mut tokens = std::collections::HashSet::new();
            let mut injected = 0u64;
            for cycle in 0..4000u64 {
                // Stream requests so the outages always overlap live
                // traffic somewhere on the chip.
                if cycle % 10 == 0 && injected < 100 {
                    let src = core(&net, ((injected * 7) % 64) as u16);
                    let dst = cache(&net, ((injected * 5) % 64) as u16);
                    net.inject(Packet::new(
                        PacketKind::BankRead,
                        src,
                        dst,
                        injected,
                        injected,
                    ));
                    injected += 1;
                }
                net.step();
                for node in 0..64u16 {
                    for p in net.drain_delivered(cache(&net, node)) {
                        tokens.insert(p.token);
                    }
                }
            }
            (tokens.len(), net.stats().latency.mean(), net.in_flight())
        };
        let plan = FaultPlan {
            tsb_rate: 0.02, // dozens of outages across the run
            link_rate: 0.0,
            port_rate: 0.0,
            bank_rate: 0.0,
            outage_cycles: 100,
            ..FaultPlan::default()
        };
        let (clean_n, clean_lat, clean_flight) = run(None);
        let (fault_n, fault_lat, fault_flight) = run(Some(plan));
        assert_eq!(clean_n, 100);
        assert_eq!(fault_n, 100, "outages delay, never drop");
        assert_eq!((clean_flight, fault_flight), (0, 0));
        assert!(
            fault_lat > clean_lat,
            "outages must cost latency: {fault_lat} vs {clean_lat}"
        );
    }

    #[test]
    fn dropped_requests_are_retried_to_completion() {
        use crate::fault::FaultPlan;
        let mut p = params(RequestPathMode::RegionTsbs, ArbitrationPolicy::RoundRobin);
        // No random events: drive the dropped-ack machinery directly so
        // the retry path is exercised deterministically.
        p.faults = Some(FaultPlan {
            tsb_rate: 0.0,
            link_rate: 0.0,
            port_rate: 0.0,
            bank_rate: 0.0,
            drop_rate: 1.0,
            retry_base: 32,
            retry_cap: 256,
            ..FaultPlan::default()
        });
        p.audit = Some(AuditConfig::default());
        let mut net = Network::new(p);
        let dst = cache(&net, 25);
        let bank = BankId::new(25);
        // The bank drops everything for 300 cycles.
        {
            let f = net.faults.as_mut().unwrap();
            f.push_dropping(bank, 300);
        }
        let src = core(&net, 7);
        net.inject(Packet::new(PacketKind::BankRead, src, dst, 0xAB, 1));
        let mut got = Vec::new();
        for _ in 0..3000 {
            net.step();
            got.extend(net.drain_delivered(dst));
            if !got.is_empty() {
                break;
            }
        }
        assert_eq!(got.len(), 1, "the retried request eventually lands");
        assert_eq!((got[0].addr, got[0].token), (0xAB, 1));
        let s = net.fault_summary().unwrap();
        assert!(s.dropped >= 1, "at least the first attempt was eaten");
        assert_eq!(s.retries, s.dropped, "every drop scheduled a retry");
        assert_eq!(s.abandoned, 0);
        assert!(s.degraded_cycles > 0);
        let report = net.audit_report().unwrap();
        assert!(report.violations == 0, "violations: {:?}", report.samples);
    }

    #[test]
    fn rehoming_moves_request_traffic_onto_the_survivor() {
        let mut net = Network::new(params(
            RequestPathMode::RegionTsbs,
            ArbitrationPolicy::RoundRobin,
        ));
        let victim_bank = NodeId::new(0); // SW region, TSB at node 27
        let victim = net.regions().region_of(victim_bank);
        let dead = net.regions().tsb_node(victim);
        let survivor_region = (0..4u16).map(RegionId::new).find(|&r| r != victim).unwrap();
        let survivor = net.regions().tsb_node(survivor_region);
        net.rehome_region(victim, survivor);
        assert_eq!(net.regions().tsb_node(victim), survivor);
        assert!(!net.regions().is_tsb_node(dead));
        // The dead TSB's core-layer router lost its wide-down lane.
        assert!(!net.wide_down[dead.index()]);
        assert!(net.wide_down[survivor.index()]);
        // Requests into the victim region still arrive, via the
        // survivor's vertical hop.
        let src = core(&net, 63);
        let dst = cache(&net, 0);
        net.inject(Packet::new(PacketKind::BankRead, src, dst, 0xF, 3));
        let got = deliver(&mut net, dst, 400);
        assert_eq!(got.len(), 1);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn killing_a_tsb_mid_run_degrades_gracefully() {
        use crate::fault::FaultPlan;
        let aware = ArbitrationPolicy::BankAware {
            estimator: Estimator::WindowBased,
        };
        let mut p = params(RequestPathMode::RegionTsbs, aware);
        p.wb_window = 2;
        p.faults = Some(FaultPlan {
            tsb_rate: 0.0,
            link_rate: 0.0,
            port_rate: 0.0,
            bank_rate: 0.0,
            kill_tsb_at: Some(500),
            ..FaultPlan::default()
        });
        p.audit = Some(AuditConfig::default());
        let mut net = Network::new(p);
        let mut seen = std::collections::HashSet::new();
        let mut injected = 0u64;
        for cycle in 0..6000u64 {
            // Keep a steady trickle flowing across the kill boundary.
            if cycle % 25 == 0 && injected < 120 {
                let src = core(&net, ((injected * 11) % 64) as u16);
                let dst = cache(&net, ((injected * 29) % 64) as u16);
                let kind = if injected.is_multiple_of(3) {
                    PacketKind::Writeback
                } else {
                    PacketKind::BankRead
                };
                net.inject(Packet::new(kind, src, dst, injected, injected));
                injected += 1;
            }
            net.step();
            for node in 0..64u16 {
                for p in net.drain_delivered(cache(&net, node)) {
                    assert!(seen.insert(p.token), "duplicate {}", p.token);
                }
            }
        }
        assert_eq!(seen.len(), 120, "traffic survives the TSB death");
        assert_eq!(net.in_flight(), 0);
        let s = net.fault_summary().unwrap();
        assert_eq!(s.rehomed_regions, 1);
        assert!(s.degraded_cycles > 0);
        let report = net.audit_report().unwrap();
        assert!(report.violations == 0, "violations: {:?}", report.samples);
    }

    #[test]
    fn faulty_runs_replay_byte_identically_per_seed() {
        use crate::fault::FaultPlan;
        let run = |seed: u64| {
            let aware = ArbitrationPolicy::BankAware {
                estimator: Estimator::WindowBased,
            };
            let mut p = params(RequestPathMode::RegionTsbs, aware);
            p.wb_window = 2;
            p.faults = Some(FaultPlan {
                seed,
                tsb_rate: 2e-3,
                link_rate: 4e-3,
                port_rate: 4e-3,
                bank_rate: 8e-3,
                kill_tsb_at: Some(400),
                ..FaultPlan::default()
            });
            let mut net = Network::new(p);
            for i in 0..100u64 {
                let src = core(&net, ((i * 11) % 64) as u16);
                let dst = cache(&net, ((i * 29) % 64) as u16);
                let kind = if i % 3 == 0 {
                    PacketKind::Writeback
                } else {
                    PacketKind::BankRead
                };
                net.inject(Packet::new(kind, src, dst, i, i));
            }
            let mut tokens: Vec<u64> = Vec::new();
            for _ in 0..4000 {
                net.step();
                for node in 0..64u16 {
                    tokens.extend(
                        net.drain_delivered(cache(&net, node))
                            .iter()
                            .map(|p| p.token),
                    );
                }
            }
            let s = net.fault_summary().unwrap();
            (
                tokens,
                net.stats().latency.mean(),
                net.stats().vertical_flits,
                s.injected(),
                s.dropped,
                s.retries,
                s.degraded_cycles,
            )
        };
        let a = run(7);
        let b = run(7);
        assert!(a.3 > 0, "the campaign injected something");
        assert_eq!(a, b, "same seed, same faults, same run");
        let c = run(8);
        assert_ne!(a, c, "a different seed draws a different schedule");
    }

    #[test]
    fn threaded_partitions_match_the_serial_stepper() {
        // Heavy enough traffic to clear the spawn work gate, so the
        // scoped-thread branch itself is exercised (the host may have
        // one core; `spawn_threads` is forced on to cover it anyway).
        let run = |shards: usize, force_threads: bool| {
            let mut p = params(
                RequestPathMode::RegionTsbs,
                ArbitrationPolicy::BankAware {
                    estimator: Estimator::WindowBased,
                },
            );
            p.wb_window = 2;
            p.noc.shards = shards;
            let mut net = Network::new(p);
            net.spawn_threads = force_threads;
            for i in 0..600u64 {
                let src = core(&net, ((i * 7) % 64) as u16);
                let dst = cache(&net, ((i * 13) % 64) as u16);
                let kind = if i % 2 == 0 {
                    PacketKind::Writeback
                } else {
                    PacketKind::DataReply
                };
                net.inject(Packet::new(kind, src, dst, i, i));
            }
            let mut tokens: Vec<u64> = Vec::new();
            for _ in 0..6000 {
                net.step();
                for node in 0..64u16 {
                    tokens.extend(
                        net.drain_delivered(cache(&net, node))
                            .iter()
                            .map(|p| p.token),
                    );
                }
            }
            assert_eq!(net.in_flight(), 0);
            (
                tokens,
                net.stats().latency.mean(),
                net.stats().vertical_flits,
                net.stats().wide_tsb_flits,
                net.spawned_cycles(),
            )
        };
        let serial = run(1, false);
        let threaded = run(4, true);
        assert_eq!(serial.4, 0, "one partition never spawns");
        assert!(threaded.4 > 0, "the threaded branch must have run");
        assert_eq!(
            (&serial.0, serial.1, serial.2, serial.3),
            (&threaded.0, threaded.1, threaded.2, threaded.3),
            "threaded partitions diverged from the serial stepper"
        );
    }

    #[test]
    fn coherence_traffic_reaches_cores() {
        let mut net = Network::new(params(
            RequestPathMode::RegionTsbs,
            ArbitrationPolicy::RoundRobin,
        ));
        let src = cache(&net, 12);
        let dst = core(&net, 51);
        net.inject(Packet::new(PacketKind::Inv, src, dst, 0xA, 1));
        let got = deliver(&mut net, dst, 200);
        assert_eq!(got[0].kind, PacketKind::Inv);
        assert!(net.stats().coherence_latency.count() == 1);
    }

    /// Every parent's `child_cong` recomputed from scratch by the
    /// per-cycle rule: for every child, the estimator's current
    /// estimate capped at three times the child's base latency.
    fn scratch_child_cong(net: &Network) -> Vec<Vec<Cycle>> {
        let per_hop = net.params.noc.vc_depth * net.params.noc.vcs_per_port;
        net.routers
            .iter()
            .enumerate()
            .map(|(idx, r)| {
                r.children()
                    .iter()
                    .map(|c| match &net.estimator {
                        EstimatorState::Simple => 0,
                        EstimatorState::Rca(rca) => rca
                            .estimate_cycles(idx, c.first_hop, per_hop, c.hops)
                            .min(3 * c.base_latency),
                        EstimatorState::WindowBased(map) => map
                            .get(&r.coord())
                            .expect("every parent has a WB estimator")
                            .estimate(c.bank)
                            .min(3 * c.base_latency),
                    })
                    .collect()
            })
            .collect()
    }

    /// Steps a network under seeded request/reply bank traffic and
    /// checks, every cycle, that the `child_cong` values VA and SA read
    /// during the step equal the from-scratch rule applied to the
    /// estimator state the step started from. Returns the number of
    /// non-zero estimates seen and the network.
    fn run_child_cong_lockstep(
        estimator: Estimator,
        faults: Option<FaultPlan>,
    ) -> (usize, Network) {
        let mut p = params(
            RequestPathMode::RegionTsbs,
            ArbitrationPolicy::BankAware { estimator },
        );
        p.wb_window = 2;
        p.faults = faults;
        let mut net = Network::new(p);
        let mut rng = snoc_common::rng::SimRng::for_stream(0xC0C0, 7);
        let mut expect = scratch_child_cong(&net);
        let mut nonzero = 0;
        for cycle in 0..4000u64 {
            if cycle < 3000 {
                for node in 0..64u16 {
                    if rng.chance(0.03) {
                        let kind = if rng.chance(0.3) {
                            PacketKind::Writeback
                        } else {
                            PacketKind::BankRead
                        };
                        let dst = cache(&net, rng.below(64) as u16);
                        net.inject(Packet::new(kind, core(&net, node), dst, 0, cycle));
                    }
                }
            }
            let rehomed = |n: &Network| n.fault_summary().map_or(0, |f| f.rehomed_regions);
            let before = rehomed(&net);
            net.step();
            if rehomed(&net) != before {
                // A re-homing at the start of this step rebuilt every
                // parent's children and WB state from scratch.
                expect = scratch_child_cong(&net)
                    .into_iter()
                    .map(|kids| vec![0; kids.len()])
                    .collect();
            }
            let got: Vec<Vec<Cycle>> = net.routers.iter().map(|r| r.child_cong.clone()).collect();
            assert_eq!(got, expect, "{estimator:?} cycle {cycle}");
            nonzero += got.iter().flatten().filter(|&&c| c > 0).count();
            for node in 0..64u16 {
                let at = cache(&net, node);
                for req in net.drain_delivered(at) {
                    net.inject(Packet::new(PacketKind::DataReply, at, req.src, 0, 0));
                }
                net.drain_delivered(core(&net, node));
            }
            expect = scratch_child_cong(&net);
        }
        (nonzero, net)
    }

    #[test]
    fn child_cong_upkeep_matches_the_from_scratch_rule() {
        assert_eq!(run_child_cong_lockstep(Estimator::Simple, None).0, 0);
        assert!(run_child_cong_lockstep(Estimator::Rca, None).0 > 0);
        let (nonzero, net) = run_child_cong_lockstep(Estimator::WindowBased, None);
        assert!(nonzero > 0 && net.stats().tag_acks > 100);
        let kill = FaultPlan {
            kill_tsb_at: Some(1200),
            ..FaultPlan::default()
        };
        let (nonzero, net) = run_child_cong_lockstep(Estimator::WindowBased, Some(kill));
        assert!(nonzero > 0);
        assert_eq!(net.fault_summary().unwrap().rehomed_regions, 1);
    }
}
