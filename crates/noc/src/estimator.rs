//! Congestion estimation between a parent router and its child banks
//! (Section 3.5): the Simplistic Scheme, Regional Congestion Awareness
//! and the Window-Based scheme.

use crate::router::{Links, NO_LINK};
use snoc_common::geom::{Coord, Direction};
use snoc_common::ids::BankId;
use snoc_common::Cycle;
use std::collections::HashMap;

/// Width of the RCA side wires and the WB timestamp (8 bits).
pub const STAMP_BITS: u32 = 8;
const STAMP_MASK: u64 = (1 << STAMP_BITS) - 1;

/// Wraps an absolute cycle to the `STAMP_BITS`-bit stamp carried in a
/// header flit.
pub fn stamp_of(cycle: Cycle) -> u8 {
    (cycle & STAMP_MASK) as u8
}

/// The elapsed cycles between a stamp and `now`, accounting for
/// wrap-around of the 8-bit counter. Ambiguity beyond one wrap is
/// unavoidable with a B-bit stamp; the paper's "additional minimal
/// logic" for counter saturation corresponds to this modular decode.
pub fn stamp_elapsed(stamp: u8, now: Cycle) -> Cycle {
    (now.wrapping_sub(stamp as u64)) & STAMP_MASK
}

/// Per-(parent, child) state for the window-based scheme.
#[derive(Debug, Clone, Default)]
struct WbChild {
    /// Requests forwarded since the last tag.
    since_tag: u32,
    /// Outstanding tag: (stamp, absolute send cycle).
    outstanding: Option<(u8, Cycle)>,
    /// Smoothed congestion estimate in cycles.
    estimate: Cycle,
}

/// Window-based congestion estimator state for one parent router.
#[derive(Debug, Clone, Default)]
pub struct WbEstimator {
    children: HashMap<BankId, WbChild>,
}

impl WbEstimator {
    /// Creates state for the given children.
    pub fn new(children: impl IntoIterator<Item = BankId>) -> Self {
        Self {
            children: children
                .into_iter()
                .map(|b| (b, WbChild::default()))
                .collect(),
        }
    }

    /// Called when the parent forwards a request to `child`. Returns
    /// `Some(stamp)` when this request should carry a timestamp (every
    /// `window`-th request, and only when no tag is outstanding).
    pub fn on_forward(&mut self, child: BankId, now: Cycle, window: u32) -> Option<u8> {
        let st = self.children.get_mut(&child)?;
        st.since_tag += 1;
        if st.since_tag >= window && st.outstanding.is_none() {
            st.since_tag = 0;
            let stamp = stamp_of(now);
            st.outstanding = Some((stamp, now));
            Some(stamp)
        } else {
            None
        }
    }

    /// Called when the tag acknowledgement for `child` arrives back at
    /// the parent. `base_one_way` is the uncontended parent->child
    /// latency; congestion = max(0, RTT/2 - base), smoothed 3:1
    /// towards the previous estimate. Returns the congestion sample the
    /// ack produced, or `None` when the ack was ignored (unknown child,
    /// no outstanding tag, or a stamp mismatch).
    pub fn on_ack(
        &mut self,
        child: BankId,
        stamp: u8,
        now: Cycle,
        base_one_way: Cycle,
    ) -> Option<Cycle> {
        let st = self.children.get_mut(&child)?;
        let (expected, sent_at) = st.outstanding?;
        if expected != stamp {
            return None;
        }
        st.outstanding = None;
        // The hardware only carries the 8-bit stamp, so the RTT must
        // come from the modular decode. Short RTTs decode exactly (the
        // wide `sent_at` is kept only to cross-check them); RTTs of 256
        // cycles or more alias into the bottom 8 bits — the decode
        // yields `rtt mod 256`, deliberately clamping ancient acks
        // instead of letting one huge sample swamp the smoothed
        // estimate.
        let elapsed = now.saturating_sub(sent_at);
        let elapsed = if elapsed < (1 << STAMP_BITS) {
            debug_assert_eq!(elapsed, stamp_elapsed(stamp, now));
            elapsed
        } else {
            stamp_elapsed(stamp, now)
        };
        let sample = (elapsed / 2).saturating_sub(base_one_way);
        // Jump on the first observation, then smooth 3:1.
        st.estimate = if st.estimate == 0 {
            sample
        } else {
            (3 * st.estimate + sample) / 4
        };
        Some(sample)
    }

    /// The current congestion estimate towards `child`, in cycles.
    pub fn estimate(&self, child: BankId) -> Cycle {
        self.children.get(&child).map(|s| s.estimate).unwrap_or(0)
    }

    /// Drops an outstanding tag that was never acknowledged within a
    /// timeout (lost to an evicted run); keeps estimates fresh.
    pub fn expire_stale(&mut self, now: Cycle, timeout: Cycle) {
        for st in self.children.values_mut() {
            if let Some((_, sent)) = st.outstanding {
                if now.saturating_sub(sent) > timeout {
                    st.outstanding = None;
                }
            }
        }
    }
}

/// Regional Congestion Awareness (after Gratz et al., HPCA'08).
///
/// Every router keeps one 8-bit congestion value per direction: an
/// equal-weight blend of the *downstream neighbour's* local buffer
/// occupancy and that neighbour's own propagated value in the same
/// direction, refreshed every cycle over dedicated side wires. A parent
/// reads the value along the first hop towards a child and scales it to
/// cycles.
#[derive(Debug, Clone)]
pub struct RcaState {
    /// `values[router][direction port] = aggregated congestion
    /// (0..=255)`, for the six ports that have links (all but `Local`).
    values: Vec<[u8; 6]>,
    /// Double buffer for [`Self::propagate`]: the previous cycle's
    /// values are read from here while the new ones are written into
    /// `values`, avoiding a per-cycle allocation.
    scratch: Vec<[u8; 6]>,
}

impl RcaState {
    /// Creates zeroed state for `routers` routers.
    pub fn new(routers: usize) -> Self {
        Self {
            values: vec![[0; 6]; routers],
            scratch: vec![[0; 6]; routers],
        }
    }

    /// The aggregated congestion value at `router` looking in `dir`.
    ///
    /// # Panics
    ///
    /// Panics on [`Direction::Local`], which has no side wire.
    pub fn value(&self, router: usize, dir: Direction) -> u8 {
        assert!(
            dir != Direction::Local,
            "RCA does not propagate on the local port"
        );
        self.values[router][dir.port()]
    }

    /// Converts an aggregated value into a cycle estimate: the value
    /// is a buffer-occupancy fraction of the downstream routers, so
    /// `fraction x per_hop_flits x hops` approximates the flits queued
    /// ahead along the path (one flit ~ one cycle of wait).
    /// `per_hop_flits` should be the per-port buffering (VCs x depth).
    pub fn estimate_cycles(
        &self,
        router: usize,
        dir: Direction,
        per_hop_flits: usize,
        hops: u32,
    ) -> Cycle {
        let frac = self.value(router, dir) as u64;
        frac * per_hop_flits as u64 * hops as u64 / 255
    }

    /// One propagation step over the link table `links` (see
    /// [`link_table`](crate::router::link_table)). `occupancy[i]` is
    /// router `i`'s local congestion this cycle as a 0..=255 fraction of
    /// buffer capacity.
    pub fn propagate(&mut self, occupancy: &[u8], links: &[Links]) {
        debug_assert_eq!(links.len(), self.values.len());
        debug_assert_eq!(occupancy.len(), self.values.len());
        std::mem::swap(&mut self.values, &mut self.scratch);
        let prev = &self.scratch;
        for (row, out) in links.iter().zip(&mut self.values) {
            for (slot, v) in out.iter_mut().enumerate() {
                let n = row[slot];
                *v = if n == NO_LINK {
                    0
                } else {
                    let n = n as usize;
                    // Round to nearest: truncating division would bias
                    // every hop downwards, and a downstream value of 1
                    // could never propagate past one hop.
                    (u16::from(occupancy[n]) + u16::from(prev[n][slot])).div_ceil(2) as u8
                };
            }
        }
    }
}

/// The congestion-estimation scheme state for the whole network.
#[derive(Debug, Clone)]
pub enum EstimatorState {
    /// Simplistic Scheme: congestion assumed zero.
    Simple,
    /// Regional congestion awareness over side wires.
    Rca(RcaState),
    /// Window-based timestamps; one estimator per parent router.
    WindowBased(HashMap<Coord, WbEstimator>),
}

impl EstimatorState {
    /// A short display name matching the paper's scheme suffixes.
    pub fn name(&self) -> &'static str {
        match self {
            EstimatorState::Simple => "SS",
            EstimatorState::Rca(_) => "RCA",
            EstimatorState::WindowBased(_) => "WB",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_wrap_correctly() {
        assert_eq!(stamp_of(255), 255);
        assert_eq!(stamp_of(256), 0);
        assert_eq!(stamp_elapsed(stamp_of(250), 260), 10);
        assert_eq!(stamp_elapsed(stamp_of(10), 10), 0);
    }

    #[test]
    fn wb_tags_every_window_th_request() {
        let mut wb = WbEstimator::new([BankId::new(1)]);
        let mut tags = 0;
        for i in 0..250u64 {
            if wb.on_forward(BankId::new(1), i, 100).is_some() {
                tags += 1;
                // Acknowledge immediately so the next window can tag.
                assert!(wb.on_ack(BankId::new(1), stamp_of(i), i + 8, 4).is_some());
            }
        }
        assert_eq!(tags, 2);
    }

    #[test]
    fn wb_congestion_is_half_rtt_minus_base() {
        let mut wb = WbEstimator::new([BankId::new(1)]);
        let stamp = loop {
            if let Some(s) = wb.on_forward(BankId::new(1), 1000, 1) {
                break s;
            }
        };
        // RTT of 28 cycles, base one-way 4 => sample = 14 - 4 = 10.
        assert_eq!(wb.on_ack(BankId::new(1), stamp, 1028, 4), Some(10));
        // The first observation is adopted directly.
        assert_eq!(wb.estimate(BankId::new(1)), 10);
        // Subsequent samples are smoothed 3:1.
        let stamp = wb.on_forward(BankId::new(1), 2000, 1).unwrap();
        assert_eq!(wb.on_ack(BankId::new(1), stamp, 2012, 4), Some(2));
        assert_eq!(wb.estimate(BankId::new(1)), (3 * 10 + 2) / 4);
    }

    #[test]
    fn wb_long_rtt_uses_the_stamp_decode() {
        let mut wb = WbEstimator::new([BankId::new(1)]);
        // Forwarded at cycle 1000 => stamp = 1000 mod 256 = 232.
        let stamp = wb.on_forward(BankId::new(1), 1000, 1).unwrap();
        assert_eq!(stamp, stamp_of(1000));
        // The ack limps home 300 cycles later — past what 8 bits can
        // represent. Hardware only has the stamp, so the decode gives
        // (1300 - 232) mod 256 = 44, not the wide 300:
        // sample = 44/2 - 4 = 18.
        assert_eq!(wb.on_ack(BankId::new(1), stamp, 1300, 4), Some(18));
        assert_eq!(wb.estimate(BankId::new(1)), 18);
    }

    #[test]
    fn wb_ignores_mismatched_or_unknown_acks() {
        let mut wb = WbEstimator::new([BankId::new(1)]);
        let stamp = wb.on_forward(BankId::new(1), 5, 1).unwrap();
        assert_eq!(
            wb.on_ack(BankId::new(1), stamp.wrapping_add(1), 20, 4),
            None
        );
        assert_eq!(wb.estimate(BankId::new(1)), 0);
        assert_eq!(wb.on_ack(BankId::new(9), stamp, 20, 4), None);
        // The genuine ack still lands.
        assert!(wb.on_ack(BankId::new(1), stamp, 105, 4).is_some());
        assert!(wb.estimate(BankId::new(1)) > 0);
    }

    #[test]
    fn wb_only_one_outstanding_tag() {
        let mut wb = WbEstimator::new([BankId::new(1)]);
        assert!(wb.on_forward(BankId::new(1), 0, 1).is_some());
        // Second window elapses but the first tag is still in flight.
        assert!(wb.on_forward(BankId::new(1), 1, 1).is_none());
        wb.expire_stale(2000, 1000);
        assert!(wb.on_forward(BankId::new(1), 2001, 1).is_some());
    }

    /// A link table of `routers` unlinked routers with the given
    /// `(from, dir, to)` links added.
    fn links(routers: usize, edges: &[(usize, Direction, usize)]) -> Vec<Links> {
        let mut t = vec![[NO_LINK; crate::router::PORTS]; routers];
        for &(from, dir, to) in edges {
            t[from][dir.port()] = to as u32;
        }
        t
    }

    #[test]
    fn rca_blends_neighbour_occupancy() {
        let mut rca = RcaState::new(2);
        // Router 0's East neighbour is router 1 with occupancy 200.
        let nb = links(2, &[(0, Direction::East, 1)]);
        rca.propagate(&[0, 200], &nb);
        assert_eq!(rca.value(0, Direction::East), 100); // (200 + 0)/2
        rca.propagate(&[0, 200], &nb);
        assert_eq!(rca.value(0, Direction::East), 100); // steady state: (200+0)/2
        assert_eq!(rca.value(0, Direction::West), 0);
        assert_eq!(
            rca.value(1, Direction::East),
            0,
            "boundary has no neighbour"
        );
    }

    #[test]
    fn rca_estimate_scales_with_depth_and_hops() {
        let mut rca = RcaState::new(2);
        let nb = links(2, &[(0, Direction::East, 1)]);
        rca.propagate(&[255, 255], &nb);
        // value = (255+0+1)/2 = 128; 128/255 * 5 * 2 = 5 (integer math).
        assert_eq!(rca.estimate_cycles(0, Direction::East, 5, 2), 5);
        assert_eq!(rca.estimate_cycles(0, Direction::West, 5, 2), 0);
    }

    #[test]
    fn rca_propagates_congestion_upstream_over_multiple_hops() {
        // Chain 0 -E-> 1 -E-> 2, congestion at router 2 only.
        let mut rca = RcaState::new(3);
        let nb = links(3, &[(0, Direction::East, 1), (1, Direction::East, 2)]);
        let occ = [0, 0, 240];
        rca.propagate(&occ, &nb);
        rca.propagate(&occ, &nb);
        assert_eq!(rca.value(1, Direction::East), 120);
        // Router 0 sees it diluted through router 1.
        assert_eq!(rca.value(0, Direction::East), 60);
    }

    #[test]
    #[should_panic(expected = "local port")]
    fn rca_has_no_local_side_wire() {
        RcaState::new(1).value(0, Direction::Local);
    }

    #[test]
    fn estimator_names() {
        assert_eq!(EstimatorState::Simple.name(), "SS");
        assert_eq!(EstimatorState::Rca(RcaState::new(1)).name(), "RCA");
        assert_eq!(EstimatorState::WindowBased(Default::default()).name(), "WB");
    }
}
