//! The assembled network: routers, links, NICs and the cycle loop.
//!
//! # The activity-tracked scheduler
//!
//! `Network::step` only visits components that can possibly do work this
//! cycle, tracked in two word-packed bitsets ([`crate::active`]):
//!
//! * **Routers** are active exactly while they hold at least one flit
//!   (input-buffered or staged). A flitless router's step is a no-op by
//!   construction — every pipeline stage starts from buffer occupancy —
//!   and credits arriving at a flitless router only top up counters read
//!   by later allocations, so skipping its step is observationally
//!   equivalent to running it.
//! * **NICs** are active while they have injectable work: a waiting
//!   message can bind to a free VC, or a streaming VC has both flits and
//!   credits. NIC state changes only through its own methods, so an
//!   uninjectable NIC is frozen until an external event re-wakes it.
//!
//! Wake-ups mirror the only events that create work:
//!
//! * a **flit delivery** (link arrival or NIC injection) wakes the
//!   receiving router;
//! * a **message offer** wakes the source NIC;
//! * an **injection credit** returning to the local port wakes the NIC;
//! * router-to-router **credits** are applied immediately to the upstream
//!   router's counters and need no wake: only a router that also holds
//!   flits can act on them, and such a router is already active.
//!
//! Quiescence therefore implies no observable events: with no flits in
//! routers, no deliveries on the wires and no injectable NIC work, no
//! component's step could change any state, so idle cycles cost O(1).
//!
//! Active-set iteration walks set bits in ascending node order, and the
//! skipped components are exactly the no-op ones, so every statistic, RNG
//! draw and arbitration decision is what stepping every component in node
//! order would produce. The golden-fingerprint integration tests
//! (`golden_fingerprints`, `scheduler_equivalence`) pin that behaviour
//! across topologies, patterns, loads and pipelines;
//! [`Network::assert_quiescent`] and the
//! counter-invariant tests check the incremental counters against full
//! scans.
//!
//! # The zero-copy wire and batched commits
//!
//! A flit bound for a neighbor router writes its payload **directly into
//! the input-arena slot it will occupy on arrival** when it wins the
//! crossbar (`Router::reserve_flit` — the slot is computable then and
//! stable until arrival), and its VC-multiplexor launch sends only a
//! packed 4-byte [`crate::delivery::ArrivalEvent`] down the delay ring.
//! When the link delay elapses, the cycle loop chains that cycle's events
//! by destination router and commits them router by router
//! (`Router::commit_flit` flips the flit visible): each receiving router's
//! state is touched once per cycle instead of once per flit, its wake-up
//! bit is set once per batch, and the flit is never copied onto the wire
//! or into the buffer a second time. Credits ride the same packed 4-byte
//! address; ejections ship an 8-byte record (message handle + kind — all
//! the statistics need).
//!
//! Commits may run router by router rather than in launch order because
//! (a) a reserved payload is invisible to the router until its commit — no
//! stage reads past a ring's visible length — and each (port, VC) commits
//! in FIFO order; and (b) routers' states are disjoint (same-cycle arrivals
//! at one router always target distinct input ports — a link carries at
//! most one flit per cycle). Ejections are the exception: they accumulate
//! floating-point latency statistics, whose summation order must not
//! change, so they are sampled in launch (FIFO) order.

use crate::active::ActiveSet;
use crate::delivery::{ArrivalEvent, CreditDelivery, DeliveryQueues, EjectRecord};
use crate::messages::{MessageRecord, MessageStore};
use crate::nic::Nic;
use lapses_core::router::RouterStats;
use lapses_core::router::StepSink;
use lapses_core::router::INFINITE_CREDITS;
use lapses_core::{Flit, MessageId, Router, RouterConfig, RouterTable, TableScheme};
use lapses_sim::{Cycle, Histogram, RunningStats, SimRng};
use lapses_topology::{Mesh, NodeId, Port};
use std::sync::Arc;

/// What happened during one network cycle — the inputs the measurement
/// loop needs for phase and watchdog bookkeeping.
#[derive(Debug, Default, Clone, Copy)]
pub struct CycleSummary {
    /// Measured messages whose tail reached its destination this cycle.
    pub measured_deliveries: u32,
    /// Whether any flit moved or allocation succeeded anywhere.
    pub moved: bool,
}

/// A complete wormhole network: one router and NIC per node, unit-delay
/// links, and credit return paths.
///
/// The network is deliberately policy-free: it moves flits and records
/// latency samples. Traffic generation and the warm-up/measure/drain
/// protocol live in [`crate::experiment`].
pub struct Network {
    mesh: Mesh,
    /// Cached `mesh.ports_per_router()` for the per-visit hot path.
    ports: usize,
    routers: Vec<Router>,
    nics: Vec<Nic>,
    queues: DeliveryQueues,
    program: Arc<dyn TableScheme>,
    lookahead: bool,
    next_msg: u64,
    /// Per-message bookkeeping (source, timestamps, measured flag) behind
    /// the flits' `MsgRef` handles.
    messages: MessageStore,
    /// Network latency (head injection → tail ejection) of measured
    /// messages.
    latency: RunningStats,
    /// Total latency (generation → tail ejection) of measured messages.
    total_latency: RunningStats,
    histogram: Histogram,
    /// Downstream node per `(node, direction port)` — `u32::MAX` for edge
    /// ports. Precomputed so the per-launch hot path never re-derives
    /// coordinates.
    neighbors: Vec<u32>,
    cycles_run: u64,
    measured_flits_ejected: u64,
    /// Routers currently holding flits (see the module docs).
    router_active: ActiveSet,
    /// NICs with injectable work (see the module docs).
    nic_active: ActiveSet,
    /// Flits currently inside routers — the incremental mirror of
    /// "any router non-empty", kept for O(1) [`Network::has_traffic`].
    router_flits: u64,
    /// Messages offered but not yet fully streamed into their source
    /// router — the incremental mirror of summing NIC backlogs, kept for
    /// O(1) [`Network::backlog`].
    backlog_msgs: u64,
    /// Reused per-cycle scratch buffers (hot-loop allocation avoidance).
    scratch_events: Vec<ArrivalEvent>,
    scratch_ejects: Vec<EjectRecord>,
    scratch_credits: Vec<CreditDelivery>,
    /// Per node: (first, last) chained arrival index this cycle, kept as
    /// one pair so each arrival touches a single cache location
    /// (`NONE` when the node has no chain).
    batch_link: Vec<(u32, u32)>,
    /// Per arrival index: next arrival bound for the same router.
    batch_next: Vec<u32>,
    /// Nodes with at least one chained arrival this cycle, in
    /// first-arrival order.
    batch_touched: Vec<u32>,
}

/// Sentinel for the delivery-batching chain links.
const NONE: u32 = u32::MAX;

/// The network's implementation of [`StepSink`]: payloads, launches and
/// credits go straight from the router pipeline stages onto the wires —
/// no staging buffer, no second copy.
struct WireSink<'a> {
    now: Cycle,
    node: usize,
    ports: usize,
    /// The routers before / after the one being stepped (disjoint
    /// borrows), so a launch can reserve the downstream input slot.
    left: &'a mut [Router],
    right: &'a mut [Router],
    queues: &'a mut DeliveryQueues,
    neighbors: &'a [u32],
    nics: &'a mut [Nic],
    nic_active: &'a mut ActiveSet,
    router_flits: &'a mut u64,
}

impl StepSink for WireSink<'_> {
    #[inline]
    fn launch(&mut self, port: Port, _vc: usize, flit: Flit) {
        // Ejection channel toward the local NIC: the sink only samples
        // statistics, so the wire ships the message handle + kind instead
        // of the whole flit.
        debug_assert!(port.is_local(), "neighbor launches are reserved");
        *self.router_flits -= 1;
        self.queues.send_eject(
            self.now,
            EjectRecord {
                rec: flit.rec,
                kind: flit.kind,
            },
        );
    }

    #[inline]
    fn transfer(&mut self, out_port: Port, vc: usize, flit: Flit) {
        // XB time: the payload goes straight to the input ring slot it
        // will occupy at the downstream router.
        let neighbor = self.neighbors[self.node * self.ports + out_port.index()];
        debug_assert_ne!(neighbor, u32::MAX, "transfer over a missing link");
        let dir = out_port.direction().expect("transfer is never local");
        let n = neighbor as usize;
        let downstream = if n < self.node {
            &mut self.left[n]
        } else {
            &mut self.right[n - self.node - 1]
        };
        downstream.reserve_flit(Port::from(dir.opposite()), vc, flit);
    }

    #[inline]
    fn launch_reserved(&mut self, port: Port, vc: usize) {
        // VM time: the payload is already downstream; only a packed
        // 4-byte arrival event rides the delay ring.
        *self.router_flits -= 1;
        let neighbor = self.neighbors[self.node * self.ports + port.index()];
        debug_assert_ne!(neighbor, u32::MAX, "launch over a missing link");
        let dir = port.direction().expect("reserved launches are never local");
        self.queues.send_event(
            self.now,
            ArrivalEvent::new(NodeId(neighbor), Port::from(dir.opposite()), vc as u8),
        );
    }

    #[inline]
    fn credit(&mut self, in_port: Port, vc: usize) {
        match in_port.direction() {
            None => {
                // Injection credit: may unfreeze a credit-starved NIC.
                self.nics[self.node].credit(vc);
                self.nic_active.insert(self.node);
            }
            Some(dir) => {
                let upstream = self.neighbors[self.node * self.ports + in_port.index()];
                debug_assert_ne!(upstream, u32::MAX, "credit over a missing link");
                self.queues.send_credit(
                    self.now,
                    CreditDelivery::new(NodeId(upstream), Port::from(dir.opposite()), vc as u8),
                );
            }
        }
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("mesh", &self.mesh)
            .field("scheme", &self.program.name())
            .field("cycles_run", &self.cycles_run)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Builds the network: a router per node programmed with `program`, a
    /// NIC per node, and credits wired to the downstream buffer depths.
    pub fn new(
        mesh: Mesh,
        router_cfg: RouterConfig,
        program: Arc<dyn TableScheme>,
        link_delay: u64,
        seed: u64,
    ) -> Network {
        assert_eq!(
            program.mesh(),
            &mesh,
            "table program compiled for a different topology"
        );
        assert!(
            mesh.node_count() < 1 << 22,
            "mesh exceeds the packed wire-address budget"
        );
        router_cfg.validate();
        let mut rng = SimRng::from_seed(seed);
        let ports = mesh.ports_per_router();
        let vcs = router_cfg.vcs_per_port;
        let lookahead = router_cfg.pipeline.is_lookahead();

        let mut routers: Vec<Router> = mesh
            .nodes()
            .map(|node| {
                Router::new(
                    node,
                    ports,
                    router_cfg.clone(),
                    RouterTable::new(Arc::clone(&program), node),
                    rng.fork(node.0 as u64),
                )
            })
            .collect();

        // Wire credits: direction ports get the neighbor's input buffer
        // depth, edge ports get zero (never routed to), the ejection port
        // is an infinite sink.
        let direction_ports: Vec<Port> = mesh.direction_ports().collect();
        for node in mesh.nodes() {
            for &port in &direction_ports {
                let dir = port.direction().expect("direction port");
                let credits = if mesh.neighbor(node, dir).is_some() {
                    router_cfg.input_buffer_flits as u32
                } else {
                    0
                };
                for v in 0..vcs {
                    routers[node.index()].set_credits(port, v, credits);
                }
            }
            for v in 0..vcs {
                routers[node.index()].set_credits(Port::LOCAL, v, INFINITE_CREDITS);
            }
        }

        let nics = mesh
            .nodes()
            .map(|_| Nic::new(vcs, router_cfg.input_buffer_flits))
            .collect();

        let node_count = mesh.node_count();
        let mut neighbors = vec![u32::MAX; node_count * ports];
        for node in mesh.nodes() {
            for &port in &direction_ports {
                let dir = port.direction().expect("direction port");
                if let Some(n) = mesh.neighbor(node, dir) {
                    neighbors[node.index() * ports + port.index()] = n.0;
                }
            }
        }
        Network {
            ports,
            routers,
            nics,
            // A flit launched by the VC mux spends `link_delay` cycles on
            // the wire and lands in the downstream buffer during the next
            // cycle's sync stage, so each hop costs the paper's
            // 5 (router) + 1 (link) cycles under PROUD. Credits ride the
            // reverse wire in one cycle.
            queues: DeliveryQueues::new(link_delay + 1, 1),
            program,
            lookahead,
            next_msg: 0,
            messages: MessageStore::new(),
            latency: RunningStats::new(),
            total_latency: RunningStats::new(),
            histogram: Histogram::new(4.0, 2048),
            neighbors,
            cycles_run: 0,
            measured_flits_ejected: 0,
            router_active: ActiveSet::new(node_count),
            nic_active: ActiveSet::new(node_count),
            router_flits: 0,
            backlog_msgs: 0,
            scratch_events: Vec::new(),
            scratch_ejects: Vec::new(),
            scratch_credits: Vec::new(),
            batch_link: vec![(NONE, NONE); node_count],
            batch_next: Vec::new(),
            batch_touched: Vec::new(),
            mesh,
        }
    }

    /// The topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Queues a message at its source NIC. Look-ahead headers get the
    /// source router's candidate entry attached (the injection-time lookup
    /// the SGI SPIDER performs at the source).
    ///
    /// # Panics
    ///
    /// Panics if `src == dest` (patterns never generate self-traffic) or
    /// `length` is zero.
    pub fn offer_message(
        &mut self,
        src: NodeId,
        dest: NodeId,
        length: u32,
        now: Cycle,
        measured: bool,
    ) {
        assert_ne!(src, dest, "self-addressed message");
        let id = MessageId(self.next_msg);
        self.next_msg += 1;
        let rec = self.messages.alloc(MessageRecord {
            src,
            dest,
            length,
            measured,
            created_at: now,
            // Re-stamped when the head actually enters the router.
            injected_at: now,
        });
        let mut flits = Flit::message(id, rec, dest, length);
        if self.lookahead {
            flits[0].lookahead = Some(self.program.entry(src, dest));
        }
        self.nics[src.index()].enqueue(flits);
        self.backlog_msgs += 1;
        self.nic_active.insert(src.index());
    }

    /// Runs one cycle: active routers step, link and credit arrivals are
    /// delivered, active NICs inject, and ejected tails are sampled.
    pub fn step(&mut self, now: Cycle) -> CycleSummary {
        let mut summary = CycleSummary::default();

        // 1. Active routers advance one cycle; payloads, launches and
        //    credits enter the wires. No router bit is *set* during this
        //    phase (arrivals and injections come later), so iterating a
        //    snapshot of each word while clearing drained routers from the
        //    live set is sound.
        for w in 0..self.router_active.word_count() {
            let mut word = self.router_active.word(w);
            while word != 0 {
                let node = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.step_router(node, now, &mut summary);
            }
        }

        // 2. Arrivals due this cycle (swapped out of the ring buckets, not
        //    copied): ejections are sampled in launch order, link arrivals
        //    are committed per destination router and wake it (see the
        //    module docs).
        let mut ejects = std::mem::take(&mut self.scratch_ejects);
        self.queues.swap_ejects(now, &mut ejects);
        for e in &ejects {
            self.eject(e.rec, e.kind, now, &mut summary);
        }
        ejects.clear();
        self.scratch_ejects = ejects;
        let mut events = std::mem::take(&mut self.scratch_events);
        self.queues.swap_events(now, &mut events);
        self.commit_batched(&events, now);
        events.clear();
        self.scratch_events = events;
        let mut credits = std::mem::take(&mut self.scratch_credits);
        self.queues.swap_credits(now, &mut credits);
        for c in credits.drain(..) {
            self.routers[c.node()].accept_credit(c.port(), c.vc());
        }
        self.scratch_credits = credits;

        // 3. Active NICs inject (at most one flit per node per cycle). NIC
        //    bits were set by offers and credit returns before this point.
        for w in 0..self.nic_active.word_count() {
            let mut word = self.nic_active.word(w);
            while word != 0 {
                let node = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.inject_from_nic(node, now, &mut summary);
            }
        }

        self.cycles_run += 1;
        summary
    }

    /// Commits a cycle's arrival events as per-router batches: one
    /// chaining pass buckets them by destination router, then each
    /// touched router commits its whole batch back-to-back and has its
    /// wake-up bit set once.
    fn commit_batched(&mut self, events: &[ArrivalEvent], now: Cycle) {
        if self.batch_next.len() < events.len() {
            self.batch_next.resize(events.len(), NONE);
        }
        for (i, e) in events.iter().enumerate() {
            let node = e.node();
            let i = i as u32;
            let link = &mut self.batch_link[node];
            if link.1 == NONE {
                link.0 = i;
                self.batch_touched.push(node as u32);
            } else {
                self.batch_next[link.1 as usize] = i;
            }
            link.1 = i;
            self.batch_next[i as usize] = NONE;
        }
        let mut touched = std::mem::take(&mut self.batch_touched);
        for &node in &touched {
            let node = node as usize;
            let mut i = self.batch_link[node].0;
            self.batch_link[node] = (NONE, NONE);
            let router = &mut self.routers[node];
            let mut delivered = 0u64;
            while i != NONE {
                let e = events[i as usize];
                router.commit_flit(e.port(), e.vc(), now);
                delivered += 1;
                i = self.batch_next[i as usize];
            }
            self.router_flits += delivered;
            self.router_active.insert(node);
        }
        touched.clear();
        self.batch_touched = touched;
    }

    /// Ejection into the NIC sink: samples measured tails into the
    /// latency statistics and retires the message record.
    #[inline]
    fn eject(
        &mut self,
        handle: lapses_core::MsgRef,
        kind: lapses_core::FlitKind,
        now: Cycle,
        summary: &mut CycleSummary,
    ) {
        let rec = *self.messages.get(handle);
        if rec.measured {
            self.measured_flits_ejected += 1;
        }
        if kind.is_tail() {
            if rec.measured {
                let net_latency = now.duration_since(rec.injected_at) as f64;
                let total = now.duration_since(rec.created_at) as f64;
                self.latency.record(net_latency);
                self.total_latency.record(total);
                self.histogram.record(net_latency);
                summary.measured_deliveries += 1;
            }
            self.messages.retire(handle);
        }
        summary.moved = true;
    }

    /// Steps one router, streaming its launches and credits onto the
    /// wires as the stages produce them ([`WireSink`]). Clears the
    /// router's active bit once it holds no flits.
    fn step_router(&mut self, node: usize, now: Cycle, summary: &mut CycleSummary) {
        let ports = self.ports;
        let (left, rest) = self.routers.split_at_mut(node);
        let (router, right) = rest.split_first_mut().expect("node index in range");
        let mut sink = WireSink {
            now,
            node,
            ports,
            left,
            right,
            queues: &mut self.queues,
            neighbors: &self.neighbors,
            nics: &mut self.nics,
            nic_active: &mut self.nic_active,
            router_flits: &mut self.router_flits,
        };
        summary.moved |= router.step_with(now, &mut sink);
        if router.is_empty() {
            self.router_active.remove(node);
        }
    }

    /// Polls one NIC for an injection, wakes the router on delivery, and
    /// refreshes the NIC's active bit.
    fn inject_from_nic(&mut self, node: usize, now: Cycle, summary: &mut CycleSummary) {
        if let Some((vc, flit)) = self.nics[node].inject() {
            if flit.kind.is_head() {
                // Network latency starts when the head enters the router.
                self.messages.get_mut(flit.rec).injected_at = now;
            }
            if flit.kind.is_tail() {
                self.backlog_msgs -= 1;
            }
            self.routers[node].accept_flit(Port::LOCAL, vc, flit, now);
            self.router_flits += 1;
            self.router_active.insert(node);
            summary.moved = true;
        }
        if !self.nics[node].has_injectable() {
            self.nic_active.remove(node);
        }
    }

    /// Messages waiting or streaming at the NICs (the watchdog's backlog).
    /// O(1): maintained incrementally by offers and tail injections.
    pub fn backlog(&self) -> u64 {
        self.backlog_msgs
    }

    /// Whether any flit is anywhere in the system (for stall detection).
    /// O(1): wires, router occupancy and NIC backlog are all counters.
    pub fn has_traffic(&self) -> bool {
        self.queues.in_flight() > 0 || self.router_flits > 0 || self.backlog_msgs > 0
    }

    /// The O(n) ground truth behind [`Network::has_traffic`], used by
    /// [`Network::assert_quiescent`] and the counter-invariant tests.
    fn scan_traffic(&self) -> bool {
        self.queues.in_flight() > 0
            || self.nics.iter().any(|n| !n.is_idle())
            || self.routers.iter().any(|r| !r.is_empty())
    }

    /// The O(n) ground truth behind [`Network::backlog`].
    #[cfg(test)]
    fn scan_backlog(&self) -> u64 {
        self.nics.iter().map(|n| n.backlog() as u64).sum()
    }

    /// Network-latency statistics of measured messages.
    pub fn latency(&self) -> &RunningStats {
        &self.latency
    }

    /// Total-latency (including source queueing) statistics.
    pub fn total_latency(&self) -> &RunningStats {
        &self.total_latency
    }

    /// Latency histogram for percentile estimation.
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// Cycles simulated so far.
    pub fn cycles_run(&self) -> u64 {
        self.cycles_run
    }

    /// Measured flits ejected so far.
    pub fn measured_flits_ejected(&self) -> u64 {
        self.measured_flits_ejected
    }

    /// Aggregated router activity counters.
    pub fn router_stats(&self) -> RouterStats {
        let mut total = RouterStats::default();
        for r in &self.routers {
            let s = r.stats();
            total.flits_switched += s.flits_switched;
            total.headers_routed += s.headers_routed;
            total.adaptive_allocations += s.adaptive_allocations;
            total.escape_allocations += s.escape_allocations;
            total.selection_stall_cycles += s.selection_stall_cycles;
            total.multi_candidate_decisions += s.multi_candidate_decisions;
        }
        total
    }

    /// Asserts the network is fully quiescent and flow control balanced:
    /// no flits anywhere, every NIC idle, every wired output VC's credit
    /// counter restored to the downstream buffer depth, the incremental
    /// activity counters back at zero, and no message record leaked.
    ///
    /// Catching a credit leak here means some flit consumed buffer space
    /// that was never returned — the classic wormhole flow-control bug.
    ///
    /// # Panics
    ///
    /// Panics (with a description of the leaking channel) if any of those
    /// conditions is violated. Intended for tests and drained simulations.
    pub fn assert_quiescent(&self) {
        assert!(!self.scan_traffic(), "network still holds traffic");
        assert_eq!(self.router_flits, 0, "router flit counter drifted");
        assert_eq!(self.backlog_msgs, 0, "backlog counter drifted");
        assert_eq!(self.messages.live(), 0, "message records leaked");
        let depth = self.routers[0].config().input_buffer_flits as u32;
        for node in self.mesh.nodes() {
            let router = &self.routers[node.index()];
            for port in self.mesh.direction_ports() {
                let dir = port.direction().expect("direction port");
                if self.mesh.neighbor(node, dir).is_none() {
                    continue;
                }
                for v in 0..router.config().vcs_per_port {
                    let credits = router.credits(port, v);
                    assert_eq!(
                        credits, depth,
                        "credit leak at {node} {port} vc{v}: {credits} of {depth}"
                    );
                }
            }
        }
    }

    /// Per-link flit counts as `(node, port, flits)` for utilization
    /// analysis (e.g. the meta-table cluster-boundary congestion).
    pub fn link_loads(&self) -> impl Iterator<Item = (NodeId, Port, u64)> + '_ {
        let ports = self.mesh.ports_per_router();
        self.routers.iter().flat_map(move |r| {
            (0..ports).map(move |p| {
                let port = Port::from_index(p);
                (r.node(), port, r.link_flits(port))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapses_core::tables::FullTable;
    use lapses_routing::DuatoAdaptive;

    fn small_net(cfg: RouterConfig) -> Network {
        let mesh = Mesh::mesh_2d(4, 4);
        let program: Arc<dyn TableScheme> =
            Arc::new(FullTable::program(&mesh, &DuatoAdaptive::new()));
        Network::new(mesh, cfg, program, 1, 42)
    }

    fn run_until_delivered(net: &mut Network, expect: u32, max_cycles: u64) -> u64 {
        let mut delivered = 0;
        for t in 0..max_cycles {
            delivered += net.step(Cycle::new(t)).measured_deliveries;
            if delivered >= expect {
                return t;
            }
        }
        panic!("only {delivered}/{expect} messages delivered in {max_cycles} cycles");
    }

    #[test]
    fn single_message_is_delivered() {
        let mut net = small_net(RouterConfig::paper_adaptive());
        let src = net.mesh().id_at(&[0, 0]).unwrap();
        let dest = net.mesh().id_at(&[3, 3]).unwrap();
        net.offer_message(src, dest, 20, Cycle::ZERO, true);
        run_until_delivered(&mut net, 1, 500);
        assert_eq!(net.latency().count(), 1);
        assert!(!net.has_traffic());
    }

    #[test]
    fn zero_load_latency_matches_pipeline_arithmetic() {
        // h hops => (h+1) routers * 5 cycles + (h+1) links + (L-1)
        // serialization for PROUD.
        let mut net = small_net(RouterConfig::paper_adaptive());
        let src = net.mesh().id_at(&[0, 0]).unwrap();
        let dest = net.mesh().id_at(&[3, 0]).unwrap(); // 3 hops
        let len = 5;
        net.offer_message(src, dest, len, Cycle::ZERO, true);
        run_until_delivered(&mut net, 1, 500);
        let expected = 4.0 * (5.0 + 1.0) + (len as f64 - 1.0);
        assert_eq!(net.latency().mean(), expected);
    }

    #[test]
    fn lookahead_saves_one_cycle_per_router() {
        let latency = |lookahead: bool| {
            let mut net = small_net(RouterConfig::paper_adaptive().with_lookahead(lookahead));
            let src = net.mesh().id_at(&[0, 0]).unwrap();
            let dest = net.mesh().id_at(&[3, 0]).unwrap();
            net.offer_message(src, dest, 5, Cycle::ZERO, true);
            run_until_delivered(&mut net, 1, 500);
            net.latency().mean()
        };
        let proud = latency(false);
        let la = latency(true);
        // 4 routers on the path, one cycle saved per router.
        assert_eq!(proud - la, 4.0);
    }

    #[test]
    fn many_messages_all_arrive() {
        let mut net = small_net(RouterConfig::paper_adaptive());
        let mesh = net.mesh().clone();
        let mut n = 0;
        for src in mesh.nodes() {
            for dest in mesh.nodes() {
                if src != dest && (src.0 + dest.0) % 3 == 0 {
                    net.offer_message(src, dest, 8, Cycle::ZERO, true);
                    n += 1;
                }
            }
        }
        run_until_delivered(&mut net, n, 20_000);
        assert_eq!(net.latency().count(), n as u64);
        assert!(!net.has_traffic());
        net.assert_quiescent();
        // Flits switched at least once per hop.
        assert!(net.router_stats().flits_switched > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mesh = Mesh::mesh_2d(4, 4);
            let program: Arc<dyn TableScheme> =
                Arc::new(FullTable::program(&mesh, &DuatoAdaptive::new()));
            let mut net = Network::new(
                mesh.clone(),
                RouterConfig::paper_adaptive(),
                program,
                1,
                seed,
            );
            for src in mesh.nodes() {
                let dest = NodeId((src.0 + 5) % 16);
                net.offer_message(src, dest, 6, Cycle::ZERO, true);
            }
            run_until_delivered(&mut net, 16, 5_000);
            net.latency().mean()
        };
        assert_eq!(run(1), run(1));
    }

    /// Offers one `len`-flit message from every node `src` toward
    /// `dest(src)` (self-addressed picks are skipped), created at `t`.
    fn offer_wave(net: &mut Network, t: u64, len: u32, dest: impl Fn(u32) -> u32) {
        let mesh = net.mesh().clone();
        for src in mesh.nodes() {
            let dest = NodeId(dest(src.0) % 16);
            if dest != src {
                net.offer_message(src, dest, len, Cycle::new(t), true);
            }
        }
    }

    /// FNV-1a over the little-endian bytes of `w`.
    fn fnv(h: &mut u64, w: u64) {
        for b in w.to_le_bytes() {
            *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Steps a 4×4 PROUD or LA-PROUD network for `cycles` cycles, calling
    /// `traffic` before each cycle to offer that cycle's messages, and
    /// hashes every cycle's summary, traffic flag and backlog, then the
    /// final router statistics, latency bits and per-link loads. The
    /// traffic must have drained by the last cycle.
    fn cycle_trace_hash(lookahead: bool, cycles: u64, traffic: impl Fn(&mut Network, u64)) -> u64 {
        let mut net = small_net(RouterConfig::paper_adaptive().with_lookahead(lookahead));
        let mut h = 0xcbf2_9ce4_8422_2325;
        for t in 0..cycles {
            traffic(&mut net, t);
            let s = net.step(Cycle::new(t));
            fnv(&mut h, s.measured_deliveries as u64);
            fnv(&mut h, s.moved as u64);
            fnv(&mut h, net.has_traffic() as u64);
            fnv(&mut h, net.backlog());
        }
        assert!(!net.has_traffic(), "traffic should have drained");
        net.assert_quiescent();
        let s = net.router_stats();
        for w in [
            s.flits_switched,
            s.headers_routed,
            s.adaptive_allocations,
            s.escape_allocations,
            s.selection_stall_cycles,
            s.multi_candidate_decisions,
        ] {
            fnv(&mut h, w);
        }
        fnv(&mut h, net.latency().count());
        fnv(&mut h, net.latency().mean().to_bits());
        fnv(&mut h, net.latency().max().map_or(0, f64::to_bits));
        fnv(&mut h, net.total_latency().mean().to_bits());
        for (node, port, flits) in net.link_loads() {
            fnv(&mut h, node.0 as u64);
            fnv(&mut h, port.index() as u64);
            fnv(&mut h, flits);
        }
        h
    }

    // The per-cycle pins below are the finest-grained oracle for the cycle
    // loop: any change to a router decision, a delivery, a wake-up or a
    // counter moves the hash of some cycle. Every pin was recorded before
    // the reference paths were deleted, and was reproduced with each of
    // them forced on (the always-step full scan, flit-at-a-time delivery,
    // the staged router walk) alone and all together. Each test below is
    // named for the reference path its traffic stresses.

    #[test]
    fn cycle_loop_is_pinned_cycle_for_cycle() {
        // Every node sends one 8-flit message toward `11 * src + 3`.
        let traffic = |net: &mut Network, t| {
            if t == 0 {
                offer_wave(net, t, 8, |s| s * 11 + 3);
            }
        };
        assert_eq!(
            cycle_trace_hash(false, 3_000, traffic),
            0x721d_a0f3_e0e9_896b,
            "PROUD"
        );
        assert_eq!(
            cycle_trace_hash(true, 3_000, traffic),
            0x6a78_3bd4_bfb0_fabc,
            "LA-PROUD"
        );
    }

    #[test]
    fn scheduler_matches_always_step_cycle_for_cycle() {
        // Three waves separated by idle stretches: routers and NICs drain,
        // leave the active sets, and are woken again by fresh injections.
        let traffic = |net: &mut Network, t| match t {
            0 => offer_wave(net, t, 8, |s| s * 5 + 1),
            400 => offer_wave(net, t, 3, |s| 15 - s),
            1_200 => offer_wave(net, t, 12, |s| s + 9),
            _ => {}
        };
        assert_eq!(
            cycle_trace_hash(false, 3_000, traffic),
            0x33ac_8c18_56f3_ab35,
            "PROUD"
        );
        assert_eq!(
            cycle_trace_hash(true, 3_000, traffic),
            0xb719_faa9_385e_d5a4,
            "LA-PROUD"
        );
    }

    #[test]
    fn batched_delivery_matches_per_flit_cycle_for_cycle() {
        // Two hotspots: flits from every direction converge on nodes 5 and
        // 10, so several links deliver into the same router in one cycle.
        let traffic = |net: &mut Network, t| {
            if t == 0 {
                offer_wave(net, t, 6, |_| 5);
                offer_wave(net, t, 4, |_| 10);
            }
        };
        assert_eq!(
            cycle_trace_hash(false, 3_000, traffic),
            0x08a5_ab89_1e01_848a,
            "PROUD"
        );
        assert_eq!(
            cycle_trace_hash(true, 3_000, traffic),
            0x637f_dffc_7c20_e5c0,
            "LA-PROUD"
        );
    }

    #[test]
    fn fused_pipeline_matches_staged_cycle_for_cycle() {
        // Dense all-pairs contention (a fifth of all pairs at once), so SA,
        // the crossbar and the VC multiplexor see several candidates per
        // cycle.
        let traffic = |net: &mut Network, t| {
            if t == 0 {
                for shift in 1..16 {
                    if shift % 5 == 0 || shift % 3 == 1 {
                        offer_wave(net, t, 8, |s| s + shift);
                    }
                }
            }
        };
        assert_eq!(
            cycle_trace_hash(false, 5_000, traffic),
            0x4a33_d67d_1727_6068,
            "PROUD"
        );
        assert_eq!(
            cycle_trace_hash(true, 5_000, traffic),
            0x16f9_cfd2_103a_bc0d,
            "LA-PROUD"
        );
    }

    #[test]
    fn incremental_counters_match_scans_mid_flight() {
        let mut net = small_net(RouterConfig::paper_adaptive());
        let mesh = net.mesh().clone();
        for src in mesh.nodes() {
            let dest = NodeId((src.0 + 7) % 16);
            if dest != src {
                net.offer_message(src, dest, 12, Cycle::ZERO, true);
            }
        }
        let mut saw_traffic = false;
        for t in 0..5_000 {
            net.step(Cycle::new(t));
            assert_eq!(net.backlog(), net.scan_backlog(), "cycle {t}");
            assert_eq!(net.has_traffic(), net.scan_traffic(), "cycle {t}");
            saw_traffic |= net.has_traffic();
            if !net.has_traffic() {
                break;
            }
        }
        assert!(saw_traffic, "test never observed in-flight traffic");
        net.assert_quiescent();
    }

    #[test]
    fn idle_network_steps_do_no_work() {
        let mut net = small_net(RouterConfig::paper_adaptive());
        for t in 0..100 {
            let summary = net.step(Cycle::new(t));
            assert!(!summary.moved);
            assert_eq!(summary.measured_deliveries, 0);
        }
        assert!(!net.has_traffic());
        net.assert_quiescent();
    }

    #[test]
    fn link_loads_are_recorded() {
        let mut net = small_net(RouterConfig::paper_adaptive());
        let src = net.mesh().id_at(&[0, 0]).unwrap();
        let dest = net.mesh().id_at(&[2, 0]).unwrap();
        net.offer_message(src, dest, 4, Cycle::ZERO, true);
        run_until_delivered(&mut net, 1, 500);
        let px = Port::from(lapses_topology::Direction::plus(0));
        let load_at_origin: u64 = net
            .link_loads()
            .find(|(n, p, _)| *n == src && *p == px)
            .map(|(_, _, f)| f)
            .unwrap();
        assert_eq!(load_at_origin, 4, "all four flits crossed the first link");
    }

    #[test]
    fn lookahead_network_delivers_under_contention() {
        let mut net = small_net(RouterConfig::paper_adaptive().with_lookahead(true));
        let mesh = net.mesh().clone();
        let mut n = 0;
        for src in mesh.nodes() {
            for dest in mesh.nodes() {
                if src != dest && (src.0 * 7 + dest.0) % 5 == 0 {
                    net.offer_message(src, dest, 8, Cycle::ZERO, true);
                    n += 1;
                }
            }
        }
        run_until_delivered(&mut net, n, 20_000);
        assert_eq!(net.latency().count(), n as u64);
    }

    #[test]
    #[should_panic(expected = "self-addressed")]
    fn self_traffic_rejected() {
        let mut net = small_net(RouterConfig::paper_adaptive());
        net.offer_message(NodeId(0), NodeId(0), 4, Cycle::ZERO, true);
    }
}
