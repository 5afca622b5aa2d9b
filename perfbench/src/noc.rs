//! `noc_loaded_reads`: a bare `Network` with the paper's recommended
//! SttRam4TsbWb parameters under read-dominated bank traffic.
//!
//! The benchmark's seeded generator is closed loop: each of the 64 core
//! nodes keeps at most [`WINDOW`] requests outstanding and, while under
//! that window, sends a new one with probability [`RATE`] per cycle
//! ([`READ_SHARE`] of them `BankRead`, the rest `BankWrite`) to a
//! uniformly drawn bank. Every request delivered at a bank is answered
//! with a `DataReply` to its core, and every outbox is drained each
//! cycle. After [`INJECT_CYCLES`] cycles the generator stops and the
//! network drains; every packet injected must then have been delivered
//! exactly once, at its destination, with nothing left in flight.
//!
//! One unit is one such episode on a freshly built network; set-up is
//! `Network::new`.

use crate::counts::NetCounts;
use crate::trace::Tracer;
use crate::{stats, Ctx, Outcome};
use snoc_common::geom::{Coord, Layer};
use snoc_core::Scenario;
use snoc_noc::{Network, NetworkParams, NocEnv, Packet, PacketKind};
use std::collections::BTreeMap;
use std::time::Instant;

/// Request probability per core node per cycle while the node
/// is under its window (below saturation on this mesh).
const RATE: f64 = 0.02;
/// Share of requests that are reads.
const READ_SHARE: f64 = 0.95;
/// Outstanding requests allowed per core node.
const WINDOW: u32 = 8;
/// Cycles during which the generator sends requests.
const INJECT_CYCLES: u64 = 20_000;
/// Drain cycles allowed after the generator stops before undelivered
/// packets count as lost.
const DRAIN_CAP: u64 = 100_000;
/// `Network::new` samples taken up front; their median is the set-up
/// time.
const NEW_SAMPLES: usize = 16;

/// SplitMix64: a small, seedable, platform-independent generator.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The network parameters of the workload.
fn params(seed: u64) -> NetworkParams {
    let mut cfg = Scenario::SttRam4TsbWb.config();
    cfg.seed = seed;
    NetworkParams::resolve(&cfg, &NocEnv::default())
}

/// What one episode did.
struct Episode {
    /// Simulated cycles stepped (request phase plus drain).
    cycles: u64,
    /// Wall time of `Network::new`.
    new_s: f64,
    /// Wall time of the stepping loop.
    measure_s: f64,
    /// Packets injected (requests and replies).
    injected: u64,
    /// Packets not delivered exactly once at their destination.
    bad: u64,
    /// Descriptions of the first few bad packets.
    problems: Vec<String>,
    /// Simulated network counts of the episode.
    counts: BTreeMap<&'static str, f64>,
    /// Crossbar traversals (for host time per flit hop).
    traversals: u64,
}

/// Runs one episode. `forget_one` drops the record of the first
/// delivery, which the self-test uses to show a loss is caught.
fn episode(t: &mut Tracer, params: NetworkParams, seed: u64, forget_one: bool) -> Episode {
    let t0 = Instant::now();
    let mut net = t.span("noc.new", |_| Network::new(params));
    let new_s = t0.elapsed().as_secs_f64();
    let mesh = net.mesh();
    let coords = |layer| {
        (0..mesh.height())
            .flat_map(move |y| (0..mesh.width()).map(move |x| Coord::new(x, y, layer)))
            .collect::<Vec<_>>()
    };
    let (cores, banks) = (coords(Layer::Core), coords(Layer::Cache));
    let nodes: Vec<Coord> = cores.iter().chain(&banks).copied().collect();
    let core_index = |c: Coord| c.y as usize * mesh.width() as usize + c.x as usize;

    let mut rng = Rng(seed);
    let mut outstanding = vec![0u32; cores.len()];
    // Per token: destination and delivery count.
    let mut dst_of: Vec<Coord> = Vec::new();
    let mut seen: Vec<u32> = Vec::new();
    let mut misdelivered: Vec<u64> = Vec::new();
    let mut pending: Vec<Packet> = Vec::new();
    let mut got: Vec<(Coord, Packet)> = Vec::new();
    let mut forget = forget_one;
    let mut cycle = 0u64;

    let t1 = Instant::now();
    t.span("bench.episode", |t| loop {
        if cycle < INJECT_CYCLES {
            for (i, &core) in cores.iter().enumerate() {
                if outstanding[i] < WINDOW && rng.unit() < RATE {
                    let kind = if rng.unit() < READ_SHARE {
                        PacketKind::BankRead
                    } else {
                        PacketKind::BankWrite
                    };
                    let dst = banks[rng.below(banks.len())];
                    let token = dst_of.len() as u64;
                    dst_of.push(dst);
                    seen.push(0);
                    pending.push(Packet::new(kind, core, dst, token, token));
                    outstanding[i] += 1;
                }
            }
        }
        if !pending.is_empty() {
            t.calls("noc.inject", pending.len() as u64, || {
                for p in pending.drain(..) {
                    net.inject(p);
                }
            });
        }
        t.call("noc.step", || net.step());
        t.calls("noc.drain", nodes.len() as u64, || {
            for &at in &nodes {
                got.extend(net.drain_delivered(at).into_iter().map(|p| (at, p)));
            }
        });
        for (at, p) in got.drain(..) {
            let token = p.token as usize;
            if token >= seen.len() {
                misdelivered.push(p.token);
                continue;
            }
            if std::mem::take(&mut forget) {
                continue;
            }
            seen[token] += 1;
            if dst_of[token] != at {
                misdelivered.push(p.token);
            }
            match p.kind {
                PacketKind::BankRead | PacketKind::BankWrite => {
                    let reply = dst_of.len() as u64;
                    dst_of.push(p.src);
                    seen.push(0);
                    pending.push(Packet::new(PacketKind::DataReply, at, p.src, p.addr, reply));
                }
                _ => {
                    let i = core_index(at);
                    outstanding[i] = outstanding[i].saturating_sub(1);
                }
            }
        }
        cycle += 1;
        let idle = pending.is_empty() && net.in_flight() == 0;
        if cycle >= INJECT_CYCLES && (idle || cycle >= INJECT_CYCLES + DRAIN_CAP) {
            break;
        }
    });
    let measure_s = t1.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    let mut bad = 0u64;
    for (token, &n) in seen.iter().enumerate() {
        if n != 1 {
            bad += 1;
            if problems.len() < 5 {
                problems.push(format!("packet {token} delivered {n} times"));
            }
        }
    }
    for token in &misdelivered {
        bad += 1;
        if problems.len() < 10 {
            problems.push(format!("packet {token} delivered at the wrong node"));
        }
    }
    let leftover: usize = nodes.iter().map(|&at| net.drain_delivered(at).len()).sum();
    if leftover > 0 || net.in_flight() > 0 {
        bad += 1;
        problems.push(format!(
            "{leftover} packets left in outboxes, {} in flight after the drain",
            net.in_flight()
        ));
    }

    let net_counts = NetCounts::of(&net);
    let mut counts = BTreeMap::from([
        ("noc.held_packets", net.held_packets() as f64),
        ("noc.held_cycles", net.held_cycles() as f64),
        ("noc.req_latency_cyc", net.stats().request_latency.mean()),
        ("noc.resp_latency_cyc", net.stats().response_latency.mean()),
    ]);
    net_counts.insert_into(&mut counts);
    Episode {
        cycles: cycle,
        new_s,
        measure_s,
        injected: seen.len() as u64,
        bad,
        problems,
        counts,
        traversals: net_counts.switch_traversals,
    }
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let params = params(ctx.seed);
    let seed = ctx.seed;
    let perturb = ctx.perturb;
    // Each sample builds into fresh memory: the networks stay alive
    // until all samples are taken, so no construction reuses pages a
    // dropped one left behind.
    let mut alive = Vec::with_capacity(NEW_SAMPLES);
    let setup: Vec<f64> = (0..NEW_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            alive.push(Network::new(params));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    drop(std::hint::black_box(alive));
    let (mut kcps, mut cps) = (Vec::new(), Vec::new());
    let mut first: Option<Episode> = None;
    let mut traced_traversals = 0u64;

    ctx.units(|ctx, traced| {
        let mut off = Tracer::new(false);
        let t = if traced { &mut ctx.tracer } else { &mut off };
        let ep = episode(t, params, seed, perturb);
        out.attempted += ep.injected;
        out.failed += ep.bad;
        for p in &ep.problems {
            out.note(p.clone());
        }
        out.unit_time(traced, ep.measure_s);
        if traced {
            traced_traversals += ep.traversals;
        } else {
            kcps.push(ep.cycles as f64 / ep.measure_s / 1e3);
            cps.push(1.0 / (ep.new_s + ep.measure_s));
        }
        match &first {
            None => first = Some(ep),
            Some(f) if f.counts != ep.counts || f.injected != ep.injected => {
                out.fail("episode counts differ from the first episode's (nondeterministic)");
            }
            Some(_) => {}
        }
    });

    out.e2e.insert("setup_s", stats::median(&setup));
    out.e2e.insert("kcycles_per_s", stats::median(&kcps));
    out.e2e.insert("cells_per_s", stats::median(&cps));
    if let Some(f) = first {
        out.layer.extend(f.counts);
    }
    let t = &ctx.tracer;
    if let (Some(new), Some(step), Some(inject), Some(drain)) = (
        t.stats("noc.new"),
        t.stats("noc.step"),
        t.stats("noc.inject"),
        t.stats("noc.drain"),
    ) {
        out.layer.insert("noc.new_us", new.p50_ns / 1e3);
        out.layer.insert("noc.step_us_p50", step.p50_ns / 1e3);
        out.layer.insert("noc.step_us_p99", step.p99_ns / 1e3);
        out.layer.insert(
            "noc.ns_per_flit_hop",
            step.busy_ns as f64 / traced_traversals.max(1) as f64,
        );
        out.layer.insert("noc.inject_ns", inject.mean_ns());
        out.layer.insert("noc.drain_ns", drain.mean_ns());
    }
    out
}
