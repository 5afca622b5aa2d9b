//! Simulated per-layer counts. They are exact and repeat bit for bit
//! for a given seed, so any change that only speeds up the simulator
//! must leave them unchanged.

use snoc_core::RunMetrics;
use snoc_noc::Network;
use std::collections::BTreeMap;

/// Counts read from one cell's [`RunMetrics`], summed over cells
/// (per-access latencies are averaged over cells instead).
pub fn from_metrics(cells: &[&RunMetrics]) -> BTreeMap<&'static str, f64> {
    let sum = |f: &dyn Fn(&RunMetrics) -> f64| cells.iter().map(|m| f(m)).sum::<f64>();
    let mean = |f: &dyn Fn(&RunMetrics) -> f64| sum(f) / cells.len().max(1) as f64;
    BTreeMap::from([
        (
            "cpu.committed",
            sum(&|m| m.per_core_committed.iter().sum::<u64>() as f64),
        ),
        ("noc.held_packets", sum(&|m| m.held_packets as f64)),
        ("noc.held_cycles", sum(&|m| m.held_cycles as f64)),
        ("noc.req_latency_cyc", mean(&|m| m.net_request_latency)),
        ("noc.resp_latency_cyc", mean(&|m| m.net_response_latency)),
        ("mem.bank_reads", sum(&|m| m.bank_reads as f64)),
        ("mem.bank_writes", sum(&|m| m.bank_writes as f64)),
        ("mem.bank_queue_wait_cyc", mean(&|m| m.bank_queue_wait)),
        ("mem.bank_service_cyc", mean(&|m| m.bank_service)),
        ("mem.mem_fetches", sum(&|m| m.mem_fetches as f64)),
        ("system.uncore_rtt_cyc", mean(&|m| m.uncore_rtt)),
    ])
}

/// The network counters only [`Network`]'s getters expose, since its
/// last statistics reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounts {
    /// Packets taken out of the delivery outboxes.
    pub delivered: u64,
    /// Crossbar traversals (one per flit per router hop).
    pub switch_traversals: u64,
    /// Flits written into router buffers.
    pub buffer_writes: u64,
    /// Flits that crossed between the dies.
    pub vertical_flits: u64,
}

impl NetCounts {
    /// Reads the counters of `net`.
    pub fn of(net: &Network) -> Self {
        Self {
            delivered: net.stats().delivered,
            switch_traversals: net.switch_traversals(),
            buffer_writes: net.buffer_writes(),
            vertical_flits: net.stats().vertical_flits,
        }
    }

    /// Adds `other` in place.
    pub fn add(&mut self, other: NetCounts) {
        self.delivered += other.delivered;
        self.switch_traversals += other.switch_traversals;
        self.buffer_writes += other.buffer_writes;
        self.vertical_flits += other.vertical_flits;
    }

    /// The counters as per-layer metrics.
    pub fn insert_into(self, layer: &mut BTreeMap<&'static str, f64>) {
        layer.insert("noc.delivered", self.delivered as f64);
        layer.insert("noc.switch_traversals", self.switch_traversals as f64);
        layer.insert("noc.buffer_writes", self.buffer_writes as f64);
        layer.insert("noc.vertical_flits", self.vertical_flits as f64);
    }
}
