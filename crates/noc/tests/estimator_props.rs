//! Property tests for the congestion estimators (hand-rolled with
//! [`SimRng`]; the workspace carries no external property-testing
//! dependency).
//!
//! Two families of properties:
//!
//! * the window-based scheme's 8-bit stamp encode/decode round-trips
//!   for arbitrary RTTs, and the full [`WbEstimator`] agrees with an
//!   independently written reference model over random forward/ack
//!   sequences;
//! * the double-buffered, link-table-driven [`RcaState::propagate`] is
//!   equivalent to a naive reference that clones the whole value table
//!   every cycle and asks for each neighbour through a closure, on
//!   random wirings and on the network's own mesh link tables.

use snoc_common::geom::{Coord, Direction, Layer, Mesh};
use snoc_common::ids::BankId;
use snoc_common::rng::SimRng;
use snoc_noc::estimator::{stamp_elapsed, stamp_of, RcaState, WbEstimator};
use snoc_noc::router::{link_table, Links, NO_LINK, PORTS};

/// Slot order the RCA side wires propagate on (all but `Local`).
const DIRS: [Direction; 6] = [
    Direction::East,
    Direction::West,
    Direction::North,
    Direction::South,
    Direction::Down,
    Direction::Up,
];

#[test]
fn stamp_round_trips_for_arbitrary_rtts() {
    let mut rng = SimRng::for_stream(0xE57, 1);
    for _ in 0..10_000 {
        // Send cycles anywhere in the first 2^48 cycles; RTTs from 0 to
        // well past the 8-bit horizon.
        let sent = rng.bits() >> 16;
        let rtt = rng.bits() >> 52; // 0..4096
        let now = sent + rtt;
        let decoded = stamp_elapsed(stamp_of(sent), now);
        // The 8-bit decode is exactly the RTT modulo 256: short RTTs
        // round-trip losslessly, longer ones alias into the low byte.
        assert_eq!(decoded, rtt % 256, "sent={sent} rtt={rtt}");
        if rtt < 256 {
            assert_eq!(decoded, rtt);
        }
    }
}

#[test]
fn stamp_decode_is_exact_across_the_wrap_boundary() {
    // Deterministic sweep of every (stamp, elapsed) pair — the full
    // input space of the hardware decode is small enough to enumerate.
    for sent in (0..256u64).map(|s| s + 0xABCD00) {
        for elapsed in 0..256u64 {
            assert_eq!(stamp_elapsed(stamp_of(sent), sent + elapsed), elapsed);
        }
    }
}

/// Independent reference model of one parent->child WB lane, written
/// straight from the paper's description rather than the production
/// code: count requests, tag every `window`-th when the lane is idle,
/// and on a matching ack fold `max(0, rtt/2 - base)` into a 3:1
/// smoothed estimate using only the 8-bit stamp arithmetic.
#[derive(Default)]
struct RefLane {
    since_tag: u32,
    outstanding: Option<(u8, u64)>,
    estimate: u64,
}

impl RefLane {
    fn forward(&mut self, now: u64, window: u32) -> Option<u8> {
        self.since_tag += 1;
        if self.since_tag >= window && self.outstanding.is_none() {
            self.since_tag = 0;
            let stamp = (now % 256) as u8;
            self.outstanding = Some((stamp, now));
            Some(stamp)
        } else {
            None
        }
    }

    fn ack(&mut self, stamp: u8, now: u64, base: u64) -> Option<u64> {
        let (expected, sent) = self.outstanding?;
        if expected != stamp {
            return None;
        }
        self.outstanding = None;
        // The stamp only carries 8 bits, so the decoded RTT is the wide
        // RTT modulo 256 — exact below 256 cycles, clamped above.
        let sample = ((now - sent) % 256 / 2).saturating_sub(base);
        self.estimate = if self.estimate == 0 {
            sample
        } else {
            (3 * self.estimate + sample) / 4
        };
        Some(sample)
    }

    fn expire(&mut self, now: u64, timeout: u64) {
        if let Some((_, sent)) = self.outstanding {
            if now - sent > timeout {
                self.outstanding = None;
            }
        }
    }
}

#[test]
fn wb_estimator_matches_the_reference_model() {
    let children = [BankId::new(3), BankId::new(7), BankId::new(11)];
    for seed in 0..20u64 {
        let mut rng = SimRng::for_stream(0x3B, seed);
        let mut wb = WbEstimator::new(children);
        let mut reference: Vec<RefLane> = children.iter().map(|_| RefLane::default()).collect();
        let window = 1 + rng.below(8) as u32;
        let base = rng.below(6) as u64;
        let mut now = 0u64;
        let mut pending: Vec<(usize, u8)> = Vec::new();

        for _ in 0..2_000 {
            // Occasionally jump far enough to wrap the 8-bit stamp.
            now += if rng.chance(0.05) {
                200 + rng.below(400) as u64
            } else {
                1 + rng.below(16) as u64
            };
            let lane = rng.below(children.len());
            let child = children[lane];
            match rng.below(10) {
                0..=5 => {
                    let got = wb.on_forward(child, now, window);
                    let want = reference[lane].forward(now, window);
                    assert_eq!(got, want, "forward lane {lane} at {now}");
                    if let Some(stamp) = got {
                        pending.push((lane, stamp));
                    }
                }
                6..=7 if !pending.is_empty() => {
                    let (lane, stamp) = pending.swap_remove(rng.below(pending.len()));
                    let child = children[lane];
                    let got = wb.on_ack(child, stamp, now, base);
                    let want = reference[lane].ack(stamp, now, base);
                    assert_eq!(got, want, "ack lane {lane} at {now}");
                }
                8 => {
                    // Corrupted or unsolicited acks must change nothing.
                    let stamp = (rng.bits() % 256) as u8;
                    let before = wb.estimate(child);
                    if reference[lane].outstanding.map(|(s, _)| s) != Some(stamp) {
                        assert_eq!(wb.on_ack(child, stamp, now, base), None);
                        assert_eq!(wb.estimate(child), before);
                    }
                    assert_eq!(wb.on_ack(BankId::new(999), stamp, now, base), None);
                }
                _ => {
                    let timeout = 100 + rng.below(400) as u64;
                    wb.expire_stale(now, timeout);
                    for (lane, r) in reference.iter_mut().enumerate() {
                        r.expire(now, timeout);
                        if r.outstanding.is_none() {
                            pending.retain(|&(l, _)| l != lane);
                        }
                    }
                }
            }
            for (lane, child) in children.iter().enumerate() {
                assert_eq!(
                    wb.estimate(*child),
                    reference[lane].estimate,
                    "estimate lane {lane} at {now} (seed {seed})"
                );
            }
        }
    }
}

/// Naive RCA reference: identical blend, but cloning the whole table
/// every cycle instead of double-buffering.
struct NaiveRca {
    values: Vec<[u8; 6]>,
}

impl NaiveRca {
    fn new(routers: usize) -> Self {
        Self {
            values: vec![[0; 6]; routers],
        }
    }

    fn propagate(
        &mut self,
        occupancy: impl Fn(usize) -> u8,
        neighbour: impl Fn(usize, Direction) -> Option<usize>,
    ) {
        let prev = self.values.clone();
        for i in 0..self.values.len() {
            for (slot, dir) in DIRS.into_iter().enumerate() {
                self.values[i][slot] = match neighbour(i, dir) {
                    Some(n) => (occupancy(n) as u16 + prev[n][slot] as u16).div_ceil(2) as u8,
                    None => 0,
                };
            }
        }
    }
}

/// Asserts that every value of `rca` equals the reference's.
fn assert_same_values(rca: &RcaState, naive: &NaiveRca, what: &str) {
    for (i, row) in naive.values.iter().enumerate() {
        for (slot, dir) in DIRS.into_iter().enumerate() {
            assert_eq!(rca.value(i, dir), row[slot], "router {i} {dir:?} ({what})");
        }
    }
}

#[test]
fn rca_double_buffer_matches_the_cloning_reference() {
    for seed in 0..10u64 {
        let mut rng = SimRng::for_stream(0xCA, seed);
        let routers = 4 + rng.below(20);

        // A random (not necessarily mesh-shaped) link table: the
        // propagation rule must hold for any wiring, including cycles
        // and self-referential tangles.
        let mut links: Vec<Links> = vec![[NO_LINK; PORTS]; routers];
        for row in links.iter_mut() {
            for dir in DIRS {
                if rng.chance(0.7) {
                    row[dir.port()] = rng.below(routers) as u32;
                }
            }
        }

        let mut rca = RcaState::new(routers);
        let mut naive = NaiveRca::new(routers);
        for _ in 0..200 {
            let occ: Vec<u8> = (0..routers).map(|_| (rng.bits() % 256) as u8).collect();
            rca.propagate(&occ, &links);
            naive.propagate(
                |i| occ[i],
                |i, d| {
                    Some(links[i][d.port()])
                        .filter(|&n| n != NO_LINK)
                        .map(|n| n as usize)
                },
            );
            assert_same_values(&rca, &naive, &format!("seed {seed}"));
        }
    }
}

#[test]
fn rca_on_mesh_link_tables_matches_the_naive_reference() {
    for side in [4u8, 8, 16] {
        let mesh = Mesh::new(side, side);
        let n = mesh.nodes_per_layer();
        let links = link_table(mesh);
        assert_eq!(links.len(), 2 * n);
        // The reference walks the mesh geometry itself: router `i` is
        // node `i % n` of the core layer for `i < n`, of the cache
        // layer otherwise.
        let coord = |i: usize| {
            let layer = if i < n { Layer::Core } else { Layer::Cache };
            let (x, y) = ((i % n) % side as usize, (i % n) / side as usize);
            Coord::new(x as u8, y as u8, layer)
        };
        let index = |c: Coord| {
            let base = if c.layer == Layer::Cache { n } else { 0 };
            base + c.y as usize * side as usize + c.x as usize
        };
        for (i, row) in links.iter().enumerate() {
            assert_eq!(index(coord(i)), i);
            assert_eq!(row[Direction::Local.port()], NO_LINK);
        }

        let mut rng = SimRng::for_stream(0x3D, side as u64);
        let mut rca = RcaState::new(2 * n);
        let mut naive = NaiveRca::new(2 * n);
        for cycle in 0..60 {
            // Mostly light, occasionally saturated routers.
            let occ: Vec<u8> = (0..2 * n)
                .map(|_| match rng.below(4) {
                    0 => 0,
                    1 => 255,
                    _ => (rng.bits() % 256) as u8,
                })
                .collect();
            rca.propagate(&occ, &links);
            naive.propagate(|i| occ[i], |i, d| mesh.neighbour(coord(i), d).map(index));
            assert_same_values(&rca, &naive, &format!("{side}x{side} cycle {cycle}"));
        }
    }
}
