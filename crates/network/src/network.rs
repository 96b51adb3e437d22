//! The assembled network: routers, links, NICs and the cycle loop.
//!
//! # The activity-tracked scheduler
//!
//! `Network::step` only visits components that can possibly do work this
//! cycle, tracked per shard (see below) in two word-packed bitsets
//! (the private `active` module) over the shard's node range:
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
//! * router-to-router **credits** are applied to the upstream router's
//!   counters and need no wake: only a router that also holds flits can
//!   act on them, and such a router is already active.
//!
//! Every wake-up is set by the shard that owns the woken component.
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
//! A flit bound for a neighbor router is filed **directly into the
//! input-ring slot it will occupy on arrival** when it wins the crossbar
//! (`Router::reserve_flit` — the slot is computable then and stable until
//! arrival; the slot keeps the kind byte, and a head's routing state joins
//! the VC's head-record queue), and its VC-multiplexor launch sends only a
//! packed 4-byte arrival event, the input `(node, port, vc)` across the
//! link, down the wire. Every wire is one ring type, `DelayRing`: arrival
//! events and ejections (an 8-byte record: message handle + kind, all the
//! statistics need) take `link_delay + 1` cycles, credits (the same
//! 4-byte address, upstream) one, and `WireSink::far_end` alone names
//! the far end of a link.
//! When the link delay elapses, the cycle loop chains that cycle's events
//! by destination router and commits them router by router
//! (`Router::commit_flit` flips the flit visible): each receiving router's
//! state is touched once per cycle instead of once per flit, its wake-up
//! bit is set once per batch, and the flit is never copied onto the wire
//! or into the buffer a second time.
//!
//! Commits may run router by router rather than in launch order because
//! (a) a reserved payload is invisible to the router until its commit — no
//! stage reads past a ring's visible length — and each (port, VC) commits
//! in FIFO order; and (b) routers' states are disjoint (same-cycle arrivals
//! at one router always target distinct input ports — a link carries at
//! most one flit per cycle). Ejections are the exception: they accumulate
//! floating-point latency statistics, whose summation order must not
//! change, so they are sampled in launch (FIFO) order.
//!
//! # The sharded cycle loop
//!
//! Routers interact only over links, and every link takes at least one
//! cycle: an arrival commits `link_delay + 1` cycles after its launch and
//! a credit one cycle after. The network is therefore split into
//! **shards**, contiguous node ranges of equal size. A shard owns its
//! range's routers and NICs, its delivery rings (arrival events and
//! credits bound for its routers, ejections from them), its active sets
//! and its commit-batching scratch, and runs the whole cycle for its range:
//! router walk, arrival commits, credits and NIC injection. Shard 0 runs
//! on the thread calling [`Network::step`]; every further shard runs on a
//! helper thread of its own. A one-shard network runs the same
//! `Shard::step` inline.
//!
//! * **Mailboxes.** Three things can cross a shard boundary: a payload
//!   reservation (`StepSink::transfer`), an arrival event and a credit.
//!   The sending shard collects them per destination shard in an
//!   `Outbox` and posts it when its cycle ends; the owning shard applies
//!   it when its next cycle starts, reserving the payloads and scheduling
//!   the events and credits into its rings stamped with their launch
//!   cycle. Offers for a helper's NICs wait on the calling thread and are
//!   handed over with the next cycle's start.
//! * **One barrier per cycle.** The calling thread releases the helpers,
//!   steps shard 0, and waits until every helper has finished the cycle.
//!   Mailboxes alternate between two slots by step parity, so a cycle's
//!   outbox is never the one being read. Waiting spins briefly, then
//!   yields, and an idle helper parks, so an idle network holds no core.
//! * **The calling thread keeps the statistics.** The message records,
//!   latency statistics and backlog counter stay with the caller. Each
//!   shard reports its cycle's ejections, head-injection stamps, tail
//!   count, progress flag and flit count, and the reports are absorbed in
//!   shard order, which is node order, so floating-point sums see the same
//!   sequence as a one-shard run.
//!
//! **Why the result is exact.** A reserved payload stays invisible until
//! its commit, and its slot `head + len + pending` is stable under
//! everything the owning router does meanwhile, so reserving it at the
//! start of the next cycle instead of mid-walk changes nothing a router
//! can observe; it is applied before its launch can even leave the
//! upstream VC multiplexor. Every input (port, VC) has one upstream
//! router, so its reservations and arrivals keep their FIFO order.
//! Commits and credits at one router commute across ports, so an arrival
//! batch that lists remote arrivals after local ones commits to the same
//! state. Everything that crosses is consumed at least one cycle after it
//! was launched. The per-cycle pins below run at 1, 2 and 3 shards with
//! unchanged hashes.
//!
//! **Shard count.** The process keeps one budget of spare cores,
//! `available_parallelism() - 1`, shared with [`crate::SweepRunner`]
//! workers (see [`crate::SweepRunner::with_threads`]). [`Network::new`]
//! takes `min(spare, nodes / MIN_SHARD_NODES - 1)` helpers and returns
//! them when the network is dropped.

use crate::active::ActiveSet;
use crate::delivery::{DeliveryQueues, EjectRecord, Outbox, WireAddr, NODE_BITS};
use crate::messages::{MessageRecord, MessageStore};
use crate::nic::{Message, Nic};
use crate::sweep::CoreClaim;
use lapses_core::router::RouterStats;
use lapses_core::router::StepSink;
use lapses_core::router::INFINITE_CREDITS;
use lapses_core::{Flit, MsgRef, Router, RouterConfig, TableScheme};
use lapses_sim::{Cycle, Histogram, RunningStats, SimRng};
use lapses_topology::{Mesh, NodeId, Port};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The exclusive limit on a network's node count, 2²²: the packed wire
/// addresses of the credit and arrival rings hold a node in 22 bits.
/// [`Network::new`] panics at or past it; scenario validation reports it
/// as a typed error first.
pub const MAX_NODES: usize = 1 << NODE_BITS;

/// The largest link delay a network accepts, in cycles. Every cycle of
/// delay adds a delivery-ring bucket per shard, each pre-sized for a
/// record per (node, port), so the delay bounds memory up front.
/// [`Network::new`] panics past it; scenario validation reports it as a
/// typed error first.
pub const MAX_LINK_DELAY: u64 = 256;

/// Nodes per shard when the shard count is automatic: a network takes one
/// helper thread per `MIN_SHARD_NODES` nodes beyond the first
/// `MIN_SHARD_NODES`, while spare cores last. Measured on a 2-core host
/// with uniform LA-PROUD traffic: two shards ran an 8×8 mesh at 0.93× the
/// speed of one at load 0.2 (1.26× at 0.6), and 9×9 to 16×16 meshes at
/// 1.19–1.80× at both loads, so 64 nodes stay whole and 80 split.
const MIN_SHARD_NODES: usize = 40;

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
    /// Nodes per shard: node `n` lives in shard `n / span`.
    span: usize,
    /// Shard 0, stepped on the calling thread.
    local: Shard,
    /// Shards 1.., each stepped on its own thread.
    helpers: Vec<Helper>,
    /// The spare cores the helpers run on.
    _cores: CoreClaim,
    ledger: Ledger,
    cycles_run: u64,
}

/// The statistics and counters the calling thread keeps for the whole
/// network, fed by the shards' per-cycle [`Report`]s.
struct Ledger {
    /// Per-message bookkeeping (timestamps, measured flag) behind
    /// the flits' `MsgRef` handles.
    messages: MessageStore,
    /// Network latency (head injection → tail ejection) of measured
    /// messages.
    latency: RunningStats,
    /// Total latency (generation → tail ejection) of measured messages.
    total_latency: RunningStats,
    histogram: Histogram,
    measured_flits_ejected: u64,
    /// Messages offered but not yet fully streamed into their source
    /// router — the incremental mirror of summing NIC backlogs, kept for
    /// O(1) [`Network::backlog`].
    backlog_msgs: u64,
    /// Flits inside routers or on wires after the last cycle (the sum of
    /// the shards' reports), kept for O(1) [`Network::has_traffic`].
    flits: u64,
}

impl Ledger {
    /// Absorbs one shard's report of cycle `now`, leaving it empty.
    fn absorb(&mut self, report: &mut Report, now: Cycle, summary: &mut CycleSummary) {
        for e in report.ejects.drain(..) {
            self.eject(e, now, summary);
        }
        for rec in report.heads.drain(..) {
            // Network latency starts when the head enters the router.
            self.messages.get_mut(rec).injected_at = now;
        }
        self.backlog_msgs -= report.tails;
        self.flits += report.flits;
        summary.moved |= report.moved;
    }

    /// Ejection into the NIC sink: samples measured tails into the
    /// latency statistics and retires the message record.
    #[inline]
    fn eject(&mut self, e: EjectRecord, now: Cycle, summary: &mut CycleSummary) {
        let rec = *self.messages.get(e.rec);
        if rec.measured {
            self.measured_flits_ejected += 1;
        }
        if e.kind.is_tail() {
            if rec.measured {
                let net_latency = now.duration_since(rec.injected_at) as f64;
                let total = now.duration_since(rec.created_at) as f64;
                self.latency.record(net_latency);
                self.total_latency.record(total);
                self.histogram.record(net_latency);
                summary.measured_deliveries += 1;
            }
            self.messages.retire(e.rec);
        }
        summary.moved = true;
    }
}

/// What one shard's cycle produced for the calling thread.
#[derive(Debug, Default)]
struct Report {
    /// Ejections due this cycle, in launch order.
    ejects: Vec<EjectRecord>,
    /// Messages whose head entered a router this cycle.
    heads: Vec<MsgRef>,
    /// Messages whose tail entered a router this cycle.
    tails: u64,
    /// Whether any router moved or any NIC injected.
    moved: bool,
    /// Flits in the shard's routers and on its wires after the cycle,
    /// arrival events posted to other shards included.
    flits: u64,
}

impl Report {
    fn with_capacity(n: usize) -> Report {
        Report {
            ejects: Vec::with_capacity(n),
            heads: Vec::with_capacity(n),
            ..Report::default()
        }
    }
}

/// The mailbox slots between shards, indexed `[parity][src][dst]`: a
/// shard posts its cycle's outboxes to the slots of its step parity, and
/// the receivers drain them at the start of the next step, so the two
/// parities never meet. Each slot is locked once per cycle by each side,
/// never at the same time.
#[derive(Debug)]
struct Mail {
    shards: usize,
    slots: Vec<Mutex<Outbox>>,
}

impl Mail {
    fn slot(&self, parity: u64, src: usize, dst: usize) -> MutexGuard<'_, Outbox> {
        let i = (parity as usize * self.shards + src) * self.shards + dst;
        self.slots[i]
            .lock()
            .expect("a shard panicked holding its mailbox")
    }

    /// Arrival events posted but not yet scheduled by their receivers.
    fn in_flight(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.lock().expect("mailbox poisoned").events.len())
            .sum()
    }
}

/// One contiguous node range of the network and everything that moves
/// flits within it (see the module docs).
struct Shard {
    /// Position in node order; shard 0 runs on the calling thread.
    id: usize,
    /// First node of the range.
    lo: usize,
    /// Nodes per shard, as in [`Network`].
    span: usize,
    /// Cached `mesh.ports_per_router()` for the per-visit hot path.
    ports: usize,
    routers: Vec<Router>,
    nics: Vec<Nic>,
    queues: DeliveryQueues,
    /// Downstream node per `(node - lo, direction port)` — `u32::MAX` for
    /// edge ports. Precomputed so the per-launch hot path never re-derives
    /// coordinates.
    neighbors: Vec<u32>,
    /// Routers currently holding flits (see the module docs).
    router_active: ActiveSet,
    /// NICs with injectable work (see the module docs).
    nic_active: ActiveSet,
    /// Flits currently inside the shard's routers.
    router_flits: u64,
    /// Offers handed over for this cycle.
    offers: Vec<Message>,
    /// This cycle's traffic for each other shard (own entry unused).
    outboxes: Vec<Outbox>,
    mail: Arc<Mail>,
    /// Steps taken so far; its parity picks the mailbox slots.
    steps: u64,
    report: Report,
    /// Reused per-cycle scratch buffer for the arrival events, then the
    /// credits, swapped out of the rings (hot-loop allocation avoidance).
    scratch: Vec<WireAddr>,
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
/// no staging buffer, no second copy. Traffic for another shard goes to
/// its outbox instead.
struct WireSink<'a> {
    now: Cycle,
    /// The stepped router, as an index into the shard.
    node: usize,
    lo: usize,
    span: usize,
    ports: usize,
    /// The routers before / after the one being stepped (disjoint
    /// borrows), so a launch can reserve the downstream input slot.
    left: &'a mut [Router],
    right: &'a mut [Router],
    queues: &'a mut DeliveryQueues,
    neighbors: &'a [u32],
    nic: &'a mut Nic,
    nic_active: &'a mut ActiveSet,
    router_flits: &'a mut u64,
    outboxes: &'a mut [Outbox],
}

impl WireSink<'_> {
    /// Whether global node `n` belongs to this shard.
    #[inline]
    fn is_local(&self, n: usize) -> bool {
        n.wrapping_sub(self.lo) < self.left.len() + 1 + self.right.len()
    }

    /// The outbox toward the shard owning global node `n`.
    #[inline]
    fn outbox(&mut self, n: usize) -> &mut Outbox {
        &mut self.outboxes[n / self.span]
    }

    /// The input `(node, port, vc)` at the far end of the stepped
    /// router's link on direction `port`: the neighbor and its port facing
    /// back. A launch lands there, and a credit for input `port` returns
    /// there.
    #[inline]
    fn far_end(&self, port: Port, vc: usize) -> WireAddr {
        let neighbor = self.neighbors[self.node * self.ports + port.index()];
        debug_assert_ne!(neighbor, u32::MAX, "wire over a missing link");
        let dir = port.direction().expect("the local port has no far end");
        WireAddr::new(NodeId(neighbor), Port::from(dir.opposite()), vc as u8)
    }
}

impl StepSink for WireSink<'_> {
    #[inline]
    fn launch(&mut self, port: Port, _vc: usize, flit: Flit) {
        // Ejection channel toward the local NIC: the sink only samples
        // statistics, so the wire ships the message handle + kind instead
        // of the whole flit.
        debug_assert!(port.is_local(), "neighbor launches are reserved");
        *self.router_flits -= 1;
        self.queues.ejects.send(
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
        let to = self.far_end(out_port, vc);
        let i = to.node().wrapping_sub(self.lo);
        if i < self.node {
            self.left[i].reserve_flit(to.port(), vc, flit);
        } else if let Some(r) = self.right.get_mut(i.wrapping_sub(self.node + 1)) {
            r.reserve_flit(to.port(), vc, flit);
        } else {
            self.outbox(to.node()).reserves.push((to, flit));
        }
    }

    #[inline]
    fn launch_reserved(&mut self, port: Port, vc: usize) {
        // VM time: the payload is already downstream; only a packed
        // 4-byte arrival event rides the delay ring.
        *self.router_flits -= 1;
        let event = self.far_end(port, vc);
        if self.is_local(event.node()) {
            self.queues.events.send(self.now, event);
        } else {
            self.outbox(event.node()).events.push(event);
        }
    }

    #[inline]
    fn credit(&mut self, in_port: Port, vc: usize) {
        if in_port.is_local() {
            // Injection credit: may unfreeze a credit-starved NIC.
            self.nic.credit(vc);
            self.nic_active.insert(self.node);
        } else {
            let credit = self.far_end(in_port, vc);
            if self.is_local(credit.node()) {
                self.queues.credits.send(self.now, credit);
            } else {
                self.outbox(credit.node()).credits.push(credit);
            }
        }
    }
}

impl Shard {
    /// Queues an offered message at its source NIC and wakes the NIC.
    fn enqueue(&mut self, msg: Message) {
        let i = msg.src.index() - self.lo;
        self.nics[i].enqueue(msg);
        self.nic_active.insert(i);
    }

    /// Runs one cycle of the shard: inbound mail and offers are applied,
    /// active routers step, link and credit arrivals are delivered, active
    /// NICs inject, and the outboxes are posted. Leaves the cycle's
    /// [`Report`] in `self.report`, whose vectors must be empty on entry.
    fn step(&mut self, now: Cycle) {
        self.receive();
        self.report.moved = false;
        self.report.tails = 0;

        // 1. Active routers advance one cycle; payloads, launches and
        //    credits enter the wires. No router bit is *set* during this
        //    phase (arrivals and injections come later), so iterating a
        //    snapshot of each word while clearing drained routers from the
        //    live set is sound.
        for w in 0..self.router_active.word_count() {
            let mut word = self.router_active.word(w);
            while word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.step_router(i, now);
            }
        }

        // 2. Arrivals due this cycle (swapped out of the ring buckets, not
        //    copied): ejections go to the report in launch order, link
        //    arrivals are committed per destination router and wake it
        //    (see the module docs).
        self.queues.ejects.swap(now, &mut self.report.ejects);
        let mut arrived = std::mem::take(&mut self.scratch);
        self.queues.events.swap(now, &mut arrived);
        self.commit_batched(&arrived, now);
        arrived.clear();
        self.queues.credits.swap(now, &mut arrived);
        for c in arrived.drain(..) {
            self.routers[c.node() - self.lo].accept_credit(c.port(), c.vc());
        }
        self.scratch = arrived;

        // 3. Active NICs inject (at most one flit per node per cycle). NIC
        //    bits were set by offers and credit returns before this point.
        for w in 0..self.nic_active.word_count() {
            let mut word = self.nic_active.word(w);
            while word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.inject_from_nic(i, now);
            }
        }

        let posted = self.post(now);
        self.report.flits = self.router_flits + self.queues.in_flight() as u64 + posted;
        self.steps += 1;
    }

    /// Enqueues the handed-over offers and applies the mail other shards
    /// posted during the previous step.
    fn receive(&mut self) {
        let mut offers = std::mem::take(&mut self.offers);
        for offer in offers.drain(..) {
            self.enqueue(offer);
        }
        self.offers = offers;
        let parity = (self.steps + 1) & 1;
        for src in (0..self.mail.shards).filter(|&s| s != self.id) {
            let mut mail = self.mail.slot(parity, src, self.id);
            for &(addr, flit) in &mail.reserves {
                self.routers[addr.node() - self.lo].reserve_flit(addr.port(), addr.vc(), flit);
            }
            for &e in &mail.events {
                self.queues.events.send(mail.launched, e);
            }
            for &c in &mail.credits {
                self.queues.credits.send(mail.launched, c);
            }
            mail.clear();
        }
    }

    /// Posts this cycle's outboxes to the receivers' mailbox slots and
    /// returns the number of arrival events posted.
    fn post(&mut self, now: Cycle) -> u64 {
        let parity = self.steps & 1;
        let mut events = 0;
        for (dst, out) in self.outboxes.iter_mut().enumerate() {
            if out.is_empty() {
                continue;
            }
            events += out.events.len() as u64;
            out.launched = now;
            let mut slot = self.mail.slot(parity, self.id, dst);
            debug_assert!(slot.is_empty(), "mailbox slot not drained");
            std::mem::swap(&mut *slot, out);
        }
        events
    }

    /// Commits a cycle's arrival events as per-router batches: one
    /// chaining pass buckets them by destination router, then each
    /// touched router commits its whole batch back-to-back and has its
    /// wake-up bit set once.
    fn commit_batched(&mut self, events: &[WireAddr], now: Cycle) {
        if self.batch_next.len() < events.len() {
            self.batch_next.resize(events.len(), NONE);
        }
        for (i, e) in events.iter().enumerate() {
            let node = e.node() - self.lo;
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

    /// Steps router `i` of the shard, streaming its launches and credits
    /// onto the wires as the stages produce them ([`WireSink`]). Clears
    /// the router's active bit once it holds no flits.
    fn step_router(&mut self, i: usize, now: Cycle) {
        let (left, rest) = self.routers.split_at_mut(i);
        let (router, right) = rest.split_first_mut().expect("node index in range");
        let mut sink = WireSink {
            now,
            node: i,
            lo: self.lo,
            span: self.span,
            ports: self.ports,
            left,
            right,
            queues: &mut self.queues,
            neighbors: &self.neighbors,
            nic: &mut self.nics[i],
            nic_active: &mut self.nic_active,
            router_flits: &mut self.router_flits,
            outboxes: &mut self.outboxes,
        };
        self.report.moved |= router.step_with(now, &mut sink);
        if router.is_empty() {
            self.router_active.remove(i);
        }
    }

    /// Polls NIC `i` of the shard for an injection, wakes the router on
    /// delivery, and refreshes the NIC's active bit.
    fn inject_from_nic(&mut self, i: usize, now: Cycle) {
        if let Some((vc, flit)) = self.nics[i].inject() {
            if flit.kind.is_head() {
                self.report.heads.push(flit.rec);
            }
            if flit.kind.is_tail() {
                self.report.tails += 1;
            }
            self.routers[i].accept_flit(Port::LOCAL, vc, flit, now);
            self.router_flits += 1;
            self.router_active.insert(i);
            self.report.moved = true;
        }
        if !self.nics[i].has_injectable() {
            self.nic_active.remove(i);
        }
    }
}

/// How long to spin before yielding while waiting for the other side of
/// the per-cycle barrier: long enough to cover the calling thread's work
/// between two steps.
const SPIN: Duration = Duration::from_micros(20);
/// How long an idle helper yields before it parks.
const YIELD: Duration = Duration::from_millis(1);

/// A waiter's back-off: spin for [`SPIN`], then yield now and then, until
/// [`YIELD`] has passed and a helper may park.
#[derive(Default)]
struct Backoff {
    spins: u32,
    since: Option<Instant>,
}

impl Backoff {
    /// Waits a moment; returns whether the waiter has waited long enough
    /// to park.
    fn snooze(&mut self) -> bool {
        if self.spins < 64 {
            self.spins += 1;
            std::hint::spin_loop();
            return false;
        }
        self.spins = 0;
        let waited = self.since.get_or_insert_with(Instant::now).elapsed();
        if waited < SPIN {
            return false;
        }
        // Past the spin phase every call yields.
        self.spins = 64;
        thread::yield_now();
        waited >= YIELD
    }
}

/// What the calling thread and one helper share. `go` and `done` form the
/// per-cycle barrier: each is stored with `Release` by one side and loaded
/// with `Acquire` by the other, so a released helper sees the exchange and
/// the mailboxes as they were when its cycle was released, and the calling
/// thread sees everything the helper wrote during the cycle, the
/// mailboxes posted for the next cycle included. `stop` pairs the same
/// way with the helper's last load.
struct Link {
    /// Cycles released so far; the helper runs one step per increment.
    go: AtomicU64,
    /// Cycles the helper has finished.
    done: AtomicU64,
    /// Set when the network is dropped.
    stop: AtomicBool,
    /// The cycle to run and its offers, handed in; the cycle's report,
    /// handed back. Locked once per cycle by each side, never at the same
    /// time.
    exchange: Mutex<Exchange>,
}

struct Exchange {
    now: Cycle,
    offers: Vec<Message>,
    report: Report,
}

/// A shard stepped on its own thread.
struct Helper {
    /// Locked by the helper while it steps, and by the calling thread
    /// only between steps (statistics and quiescence checks).
    shard: Arc<Mutex<Shard>>,
    link: Arc<Link>,
    thread: Option<JoinHandle<()>>,
    /// Offers for this shard's NICs since the last step.
    offers: Vec<Message>,
}

impl Helper {
    fn spawn(shard: Shard) -> Helper {
        let capacity = shard.routers.len();
        let shard = Arc::new(Mutex::new(shard));
        let link = Arc::new(Link {
            go: AtomicU64::new(0),
            done: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            exchange: Mutex::new(Exchange {
                now: Cycle::ZERO,
                offers: Vec::with_capacity(capacity),
                report: Report::with_capacity(capacity),
            }),
        });
        let thread = thread::Builder::new()
            .name("lapses-shard".into())
            .spawn({
                let (shard, link) = (Arc::clone(&shard), Arc::clone(&link));
                move || helper_main(&shard, &link)
            })
            .expect("failed to spawn a network shard thread");
        Helper {
            shard,
            link,
            thread: Some(thread),
            offers: Vec::with_capacity(capacity),
        }
    }

    /// Hands the cycle's offers over and releases step number `epoch`.
    fn release(&mut self, epoch: u64, now: Cycle) {
        {
            let mut ex = self.link.exchange.lock().expect("shard exchange poisoned");
            ex.now = now;
            std::mem::swap(&mut ex.offers, &mut self.offers);
        }
        self.link.go.store(epoch, Ordering::Release);
        if let Some(t) = &self.thread {
            t.thread().unpark();
        }
    }

    /// Waits until the helper has finished step `epoch`. A helper that
    /// died instead re-raises its panic here.
    fn wait(&mut self, epoch: u64) {
        let mut backoff = Backoff::default();
        while self.link.done.load(Ordering::Acquire) != epoch {
            backoff.snooze();
            let thread = self.thread.take_if(|t| t.is_finished());
            match thread.map(JoinHandle::join) {
                Some(Err(panic)) => std::panic::resume_unwind(panic),
                Some(Ok(())) => panic!("network shard thread exited mid-run"),
                None if self.thread.is_none() => panic!("network shard thread is gone"),
                None => {}
            }
        }
    }
}

/// A helper thread: steps its shard once per released cycle until the
/// network is dropped.
fn helper_main(shard: &Mutex<Shard>, link: &Link) {
    let mut seen = 0;
    loop {
        let mut backoff = Backoff::default();
        let epoch = loop {
            if link.stop.load(Ordering::Acquire) {
                return;
            }
            let go = link.go.load(Ordering::Acquire);
            if go != seen {
                break go;
            }
            if backoff.snooze() {
                thread::park();
            }
        };
        seen = epoch;
        let mut shard = shard.lock().expect("shard poisoned");
        let now = {
            let mut ex = link.exchange.lock().expect("shard exchange poisoned");
            std::mem::swap(&mut shard.offers, &mut ex.offers);
            ex.now
        };
        shard.step(now);
        {
            let mut ex = link.exchange.lock().expect("shard exchange poisoned");
            std::mem::swap(&mut shard.report, &mut ex.report);
        }
        drop(shard);
        link.done.store(epoch, Ordering::Release);
    }
}

#[cfg(test)]
thread_local! {
    /// A shard count forced on networks built on this thread (0: automatic).
    static FORCED_SHARDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Runs `f` with every network it builds on this thread split into
/// `shards` shards, whatever the core budget says.
#[cfg(test)]
pub(crate) fn with_shards<R>(shards: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED_SHARDS.set(self.0);
        }
    }
    let _restore = Restore(FORCED_SHARDS.replace(shards));
    f()
}

/// The shard count for a network of `nodes` nodes and the spare cores its
/// helpers run on.
fn plan_shards(nodes: usize) -> (usize, CoreClaim) {
    #[cfg(test)]
    {
        let forced = FORCED_SHARDS.get();
        if forced > 0 {
            return (forced.min(nodes), CoreClaim::take(0));
        }
    }
    let cores = CoreClaim::take((nodes / MIN_SHARD_NODES).saturating_sub(1));
    (cores.cores() + 1, cores)
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("mesh", &self.mesh)
            .field("shards", &(self.helpers.len() + 1))
            .field("cycles_run", &self.cycles_run)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Builds the network: a router per node programmed with `program`, a
    /// NIC per node, and credits wired to the downstream buffer depths.
    /// A network of 80 nodes or more also starts a helper thread per
    /// further shard while spare cores last (see the module docs);
    /// dropping the network joins them.
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
            mesh.node_count() < MAX_NODES,
            "mesh exceeds the packed wire-address budget"
        );
        assert!(
            link_delay <= MAX_LINK_DELAY,
            "link delay {link_delay} exceeds {MAX_LINK_DELAY} cycles"
        );
        router_cfg.validate();
        let mut rng = SimRng::from_seed(seed);
        let ports = mesh.ports_per_router();
        let vcs = router_cfg.vcs_per_port;

        // Wire credits: direction ports get the neighbor's input buffer
        // depth, edge ports get zero (never routed to), the ejection port
        // is an infinite sink.
        let direction_ports: Vec<Port> = mesh.direction_ports().collect();
        let mut router = |node: NodeId| {
            let mut r = Router::new(
                node,
                ports,
                router_cfg.clone(),
                Arc::clone(&program),
                rng.fork(node.0 as u64),
            );
            for &port in &direction_ports {
                let dir = port.direction().expect("direction port");
                let credits = if mesh.neighbor(node, dir).is_some() {
                    router_cfg.input_buffer_flits as u32
                } else {
                    0
                };
                for v in 0..vcs {
                    r.set_credits(port, v, credits);
                }
            }
            for v in 0..vcs {
                r.set_credits(Port::LOCAL, v, INFINITE_CREDITS);
            }
            r
        };

        let node_count = mesh.node_count();
        let (shards, mut cores) = plan_shards(node_count);
        let span = node_count.div_ceil(shards);
        let shards = node_count.div_ceil(span);
        cores.keep(shards - 1);
        let mail = Arc::new(Mail {
            shards,
            slots: (0..2 * shards * shards)
                .map(|_| Mutex::new(Outbox::with_capacity(span)))
                .collect(),
        });
        // Every shard is built here, in node order (the router RNG forks
        // depend on it), so all its buffers come from this thread.
        let mut ranges = (0..shards).map(|id| {
            let lo = id * span;
            let nodes = (lo..node_count.min(lo + span)).map(|i| NodeId(i as u32));
            let n = nodes.len();
            let mut neighbors = vec![u32::MAX; n * ports];
            for (i, node) in nodes.clone().enumerate() {
                for &port in &direction_ports {
                    let dir = port.direction().expect("direction port");
                    if let Some(nb) = mesh.neighbor(node, dir) {
                        neighbors[i * ports + port.index()] = nb.0;
                    }
                }
            }
            Shard {
                id,
                lo,
                span,
                ports,
                routers: nodes.map(&mut router).collect(),
                nics: (0..n)
                    .map(|_| Nic::new(vcs, router_cfg.input_buffer_flits))
                    .collect(),
                // A flit launched by the VC mux spends `link_delay` cycles on
                // the wire and lands in the downstream buffer during the next
                // cycle's sync stage, so each hop costs the paper's 5
                // (router) + 1 (link) cycles under PROUD. Credits ride the
                // reverse wire in one cycle.
                queues: DeliveryQueues::new(link_delay + 1, n * ports),
                neighbors,
                router_active: ActiveSet::new(n),
                nic_active: ActiveSet::new(n),
                router_flits: 0,
                offers: Vec::with_capacity(n),
                outboxes: (0..shards)
                    .map(|dst| Outbox::with_capacity(if dst == id { 0 } else { span }))
                    .collect(),
                mail: Arc::clone(&mail),
                steps: 0,
                report: Report::with_capacity(n),
                scratch: Vec::with_capacity(n * ports),
                batch_link: vec![(NONE, NONE); n],
                batch_next: vec![NONE; n * ports],
                batch_touched: Vec::with_capacity(n),
            }
        });
        let local = ranges.next().expect("at least one shard");
        let helpers = ranges.map(Helper::spawn).collect();

        Network {
            mesh,
            span,
            local,
            helpers,
            _cores: cores,
            ledger: Ledger {
                messages: MessageStore::new(),
                latency: RunningStats::new(),
                total_latency: RunningStats::new(),
                histogram: Histogram::new(4.0, 2048),
                measured_flits_ejected: 0,
                backlog_msgs: 0,
                flits: 0,
            },
            cycles_run: 0,
        }
    }

    /// The topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Queues a message at its source NIC. No routing state is attached:
    /// an LA-PROUD source router decodes the head from its own table as
    /// it lands, which stands for the injection-time lookup the SGI SPIDER
    /// performs at the source.
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
        assert!(length > 0, "empty message");
        let rec = self.ledger.messages.alloc(MessageRecord {
            measured,
            created_at: now,
            // Re-stamped when the head actually enters the router.
            injected_at: now,
        });
        let offer = Message {
            rec,
            src,
            dest,
            length,
        };
        let i = src.index();
        if i < self.span {
            self.local.enqueue(offer);
        } else {
            self.helpers[i / self.span - 1].offers.push(offer);
        }
        self.ledger.backlog_msgs += 1;
    }

    /// Runs one cycle: every shard steps its routers, delivers its link
    /// and credit arrivals and injects from its NICs (see the module
    /// docs), then the shards' ejections are sampled in node order.
    pub fn step(&mut self, now: Cycle) -> CycleSummary {
        let epoch = self.cycles_run + 1;
        for h in &mut self.helpers {
            h.release(epoch, now);
        }
        self.local.step(now);

        let mut summary = CycleSummary::default();
        self.ledger.flits = 0;
        self.ledger
            .absorb(&mut self.local.report, now, &mut summary);
        for h in &mut self.helpers {
            h.wait(epoch);
            let mut ex = h.link.exchange.lock().expect("shard exchange poisoned");
            self.ledger.absorb(&mut ex.report, now, &mut summary);
        }
        self.cycles_run = epoch;
        summary
    }

    /// Runs `f` on every shard in node order. Helpers' shards are locked,
    /// which only happens between steps, while the helpers wait.
    fn for_each_shard(&self, mut f: impl FnMut(&Shard)) {
        f(&self.local);
        for h in &self.helpers {
            f(&h.shard.lock().expect("a network shard thread panicked"));
        }
    }

    /// Messages waiting or streaming at the NICs (the watchdog's backlog).
    /// O(1): maintained incrementally by offers and tail injections.
    pub fn backlog(&self) -> u64 {
        self.ledger.backlog_msgs
    }

    /// Whether any flit is anywhere in the system (for stall detection).
    /// O(1): wires, router occupancy and NIC backlog are all counters.
    pub fn has_traffic(&self) -> bool {
        self.ledger.flits > 0 || self.ledger.backlog_msgs > 0
    }

    /// The O(n) ground truth behind [`Network::has_traffic`], used by
    /// [`Network::assert_quiescent`] and the counter-invariant tests.
    fn scan_traffic(&self) -> bool {
        let mut traffic =
            self.local.mail.in_flight() > 0 || self.helpers.iter().any(|h| !h.offers.is_empty());
        self.for_each_shard(|s| {
            traffic |= s.queues.in_flight() > 0
                || s.nics.iter().any(|n| !n.is_idle())
                || s.routers.iter().any(|r| !r.is_empty());
        });
        traffic
    }

    /// The O(n) ground truth behind [`Network::backlog`].
    #[cfg(test)]
    fn scan_backlog(&self) -> u64 {
        let mut backlog: u64 = self.helpers.iter().map(|h| h.offers.len() as u64).sum();
        self.for_each_shard(|s| backlog += s.nics.iter().map(|n| n.backlog() as u64).sum::<u64>());
        backlog
    }

    /// Network-latency statistics of measured messages.
    pub fn latency(&self) -> &RunningStats {
        &self.ledger.latency
    }

    /// Total-latency (including source queueing) statistics.
    pub fn total_latency(&self) -> &RunningStats {
        &self.ledger.total_latency
    }

    /// Latency histogram for percentile estimation.
    pub fn histogram(&self) -> &Histogram {
        &self.ledger.histogram
    }

    /// Cycles simulated so far.
    pub fn cycles_run(&self) -> u64 {
        self.cycles_run
    }

    /// Measured flits ejected so far.
    pub fn measured_flits_ejected(&self) -> u64 {
        self.ledger.measured_flits_ejected
    }

    /// Aggregated router activity counters.
    pub fn router_stats(&self) -> RouterStats {
        let mut total = RouterStats::default();
        self.for_each_shard(|shard| {
            for r in &shard.routers {
                let s = r.stats();
                total.flits_switched += s.flits_switched;
                total.headers_routed += s.headers_routed;
                total.adaptive_allocations += s.adaptive_allocations;
                total.escape_allocations += s.escape_allocations;
                total.selection_stall_cycles += s.selection_stall_cycles;
                total.multi_candidate_decisions += s.multi_candidate_decisions;
            }
        });
        total
    }

    /// Asserts the network is fully quiescent and flow control balanced:
    /// no flits anywhere, every NIC idle, every wired output VC's credit
    /// counter restored to the downstream buffer depth, the incremental
    /// activity counters back at zero, and no message record or router
    /// head record leaked.
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
        assert_eq!(self.ledger.flits, 0, "router flit counter drifted");
        assert_eq!(self.ledger.backlog_msgs, 0, "backlog counter drifted");
        assert_eq!(self.ledger.messages.live(), 0, "message records leaked");
        self.for_each_shard(|shard| {
            assert_eq!(shard.router_flits, 0, "router flit counter drifted");
            for router in &shard.routers {
                let node = router.node();
                let left = router.head_records();
                assert_eq!(left, 0, "{left} head record(s) left behind at {node}");
                let depth = router.config().input_buffer_flits as u32;
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
        });
    }

    /// Per-link flit counts as `(node, port, flits)` for utilization
    /// analysis (e.g. the meta-table cluster-boundary congestion).
    pub fn link_loads(&self) -> impl Iterator<Item = (NodeId, Port, u64)> + '_ {
        let ports = self.mesh.ports_per_router();
        let mut loads = Vec::with_capacity(self.mesh.node_count() * ports);
        self.for_each_shard(|shard| {
            for r in &shard.routers {
                for p in 0..ports {
                    let port = Port::from_index(p);
                    loads.push((r.node(), port, r.link_flits(port)));
                }
            }
        });
        loads.into_iter()
    }
}

impl Drop for Network {
    /// Stops and joins the helper threads, also when a run is abandoned
    /// mid-flight.
    fn drop(&mut self) {
        for h in &self.helpers {
            h.link.stop.store(true, Ordering::Release);
            if let Some(t) = &h.thread {
                t.thread().unpark();
            }
        }
        for h in &mut self.helpers {
            if let Some(t) = h.thread.take() {
                // A helper's panic has already been reported (or is being
                // re-raised on this thread); dropping must not raise it
                // again.
                let _ = t.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::{Algorithm, TableKind};
    use lapses_core::tables::FullTable;

    fn small_net(cfg: RouterConfig) -> Network {
        let mesh = Mesh::mesh_2d(4, 4);
        let program: Arc<dyn TableScheme> = Arc::new(FullTable::program(&mesh, &Algorithm::Duato));
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
        let latency = |la: bool| {
            let mut net = small_net(RouterConfig::paper_adaptive().with_lookahead(la));
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
                Arc::new(FullTable::program(&mesh, &Algorithm::Duato));
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

    /// The paper's PROUD (`false`) or LA-PROUD (`true`) router.
    fn paper(la: bool) -> RouterConfig {
        RouterConfig::paper_adaptive().with_lookahead(la)
    }

    /// Steps a 4×4 network of `cfg` routers for `cycles` cycles at 1, 2
    /// and 3 shards (3 has a middle shard with two boundaries), and returns
    /// the [`trace_hash`] every shard count must agree on.
    fn cycle_trace_hash(
        cfg: RouterConfig,
        cycles: u64,
        traffic: impl Fn(&mut Network, u64),
    ) -> u64 {
        let hashes: Vec<u64> = (1..=3)
            .map(|shards| {
                with_shards(shards, || {
                    let net = small_net(cfg.clone());
                    assert_eq!(net.helpers.len() + 1, shards);
                    trace_hash(net, cycles, &traffic)
                })
            })
            .collect();
        assert!(
            hashes.iter().all(|&h| h == hashes[0]),
            "hashes at 1, 2 and 3 shards differ: {hashes:x?}"
        );
        hashes[0]
    }

    /// Steps `net` for `cycles` cycles, calling `traffic` before each cycle
    /// to offer that cycle's messages, and hashes every cycle's summary,
    /// traffic flag and backlog, then the final router statistics, latency
    /// bits and per-link loads. The traffic must have drained by the last
    /// cycle.
    fn trace_hash(mut net: Network, cycles: u64, traffic: impl Fn(&mut Network, u64)) -> u64 {
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
            cycle_trace_hash(paper(false), 3_000, traffic),
            0x721d_a0f3_e0e9_896b,
            "PROUD"
        );
        assert_eq!(
            cycle_trace_hash(paper(true), 3_000, traffic),
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
            cycle_trace_hash(paper(false), 3_000, traffic),
            0x33ac_8c18_56f3_ab35,
            "PROUD"
        );
        assert_eq!(
            cycle_trace_hash(paper(true), 3_000, traffic),
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
            cycle_trace_hash(paper(false), 3_000, traffic),
            0x08a5_ab89_1e01_848a,
            "PROUD"
        );
        assert_eq!(
            cycle_trace_hash(paper(true), 3_000, traffic),
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
            cycle_trace_hash(paper(false), 5_000, traffic),
            0x4a33_d67d_1727_6068,
            "PROUD"
        );
        assert_eq!(
            cycle_trace_hash(paper(true), 5_000, traffic),
            0x16f9_cfd2_103a_bc0d,
            "LA-PROUD"
        );
    }

    #[test]
    fn credit_starved_vc_mux_is_pinned_cycle_for_cycle() {
        // Two-flit input buffers and one-flit staging: credits run out after
        // every second flit, so several VCs of one output port hold staged
        // flits when a credit returns and the VC multiplexor picks among
        // them.
        let shallow = |lookahead| RouterConfig {
            input_buffer_flits: 2,
            output_buffer_flits: 1,
            ..paper(lookahead)
        };
        let traffic = |net: &mut Network, t| {
            if t == 0 {
                offer_wave(net, t, 6, |_| 5);
                offer_wave(net, t, 5, |s| s + 3);
                offer_wave(net, t, 4, |s| 15 - s);
            }
        };
        assert_eq!(
            cycle_trace_hash(shallow(false), 5_000, traffic),
            0xc4b2_5f21_57bf_00c8,
            "PROUD"
        );
        assert_eq!(
            cycle_trace_hash(shallow(true), 5_000, traffic),
            0xb9b3_fac3_d7d4_1108,
            "LA-PROUD"
        );
    }

    #[test]
    fn incremental_counters_match_scans_mid_flight() {
        for shards in 1..=3 {
            with_shards(shards, || {
                let mut net = small_net(RouterConfig::paper_adaptive());
                let mut saw_traffic = false;
                for t in 0..5_000 {
                    // A second wave lands while the first is in flight, so
                    // offers wait for helpers between steps.
                    if t == 0 || t == 30 {
                        offer_wave(&mut net, t, 12, |s| s + 7 + t as u32);
                        assert_eq!(net.backlog(), net.scan_backlog(), "offers at {t}");
                    }
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
            });
        }
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
    fn drained_network_leaves_no_head_records() {
        // Single-flit and mixed-length messages from every node, under
        // both pipelines: once drained, no router holds a head record
        // (`assert_quiescent` counts them).
        for lookahead in [false, true] {
            let mut net = small_net(paper(lookahead));
            offer_wave(&mut net, 0, 1, |s| s + 5);
            offer_wave(&mut net, 0, 3, |s| s * 7 + 2);
            offer_wave(&mut net, 0, 1, |s| 15 - s);
            offer_wave(&mut net, 0, 9, |s| s + 11);
            for t in 0..5_000 {
                net.step(Cycle::new(t));
                if !net.has_traffic() {
                    break;
                }
            }
            assert!(!net.has_traffic(), "traffic should have drained");
            net.assert_quiescent();
        }
    }

    #[test]
    #[should_panic(expected = "head record(s) left behind at n5")]
    fn quiescence_catches_a_stranded_head_record() {
        // A head filed into an input ring but never delivered leaves its
        // record behind while no flit is visible anywhere.
        let mut net = small_net(RouterConfig::paper_adaptive());
        let head = Flit::message(MsgRef(0), NodeId(6), 1)[0];
        let east = Port::from(lapses_topology::Direction::plus(0));
        net.local.routers[5].reserve_flit(east, 0, head);
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

    // Shard equivalence: the per-cycle pins above already run at 1, 2 and
    // 3 shards on 4×4 meshes. The tests below repeat the comparison on
    // meshes the automatic shard count splits, and at scenario level.

    /// Per-cycle hash of `scenario`'s network at `shards` shards, under
    /// `cycles / 3` cycles of scattered offers (about eleven messages per
    /// cycle from rotating sources) followed by a drain.
    fn scenario_trace_hash(scenario: &Scenario, shards: usize, cycles: u64) -> u64 {
        with_shards(shards, || {
            let net = scenario.config().build_network();
            assert_eq!(net.helpers.len() + 1, shards);
            let n = net.mesh().node_count() as u64;
            let stride = n / 11;
            trace_hash(net, cycles, |net, t| {
                if t >= cycles / 3 {
                    return;
                }
                for src in (t % stride..n).step_by(stride as usize) {
                    let dest = (src * 31 + t * 17 + 5) % n;
                    if dest != src {
                        let len = 4 + (src + t) as u32 % 5;
                        net.offer_message(
                            NodeId(src as u32),
                            NodeId(dest as u32),
                            len,
                            Cycle::new(t),
                            true,
                        );
                    }
                }
            })
        })
    }

    #[test]
    fn two_shards_match_one_cycle_for_cycle_on_a_16x16_mesh() {
        let scenario = Scenario::builder().lookahead(true).build().unwrap();
        assert_eq!(
            scenario_trace_hash(&scenario, 1, 800),
            scenario_trace_hash(&scenario, 2, 800)
        );
    }

    #[test]
    fn two_shards_match_one_cycle_for_cycle_on_a_faulty_32x32_mesh() {
        let scenario = Scenario::builder()
            .mesh_2d(32, 32)
            .random_faults(64, 1999)
            .algorithm(Algorithm::UpDownAdaptive)
            .table(TableKind::Economical)
            .lookahead(true)
            .build()
            .unwrap();
        assert_eq!(
            scenario_trace_hash(&scenario, 1, 900),
            scenario_trace_hash(&scenario, 2, 900)
        );
    }

    #[test]
    fn scenarios_of_every_kind_run_identically_on_two_shards() {
        let small = || Scenario::builder().message_counts(100, 600).load(0.3);
        let synthetic = small().mesh_2d(8, 8).lookahead(true).build().unwrap();
        let (_, trace) = synthetic.run_capturing();
        let kinds = [
            ("PROUD mesh", small().mesh_2d(8, 8)),
            ("LA-PROUD mesh", small().mesh_2d(8, 8).lookahead(true)),
            ("torus", small().torus_2d(6, 6).vcs(4, 2).lookahead(true)),
            ("3-D mesh", small().topology(Mesh::mesh_3d(4, 4, 4))),
            (
                "faulty up*/down*",
                small()
                    .mesh_2d(8, 8)
                    .random_faults(8, 5)
                    .algorithm(Algorithm::UpDownAdaptive)
                    .table(TableKind::Economical),
            ),
            ("trace replay", small().mesh_2d(8, 8).trace(Arc::new(trace))),
        ];
        for (kind, builder) in kinds {
            let scenario = builder.build().unwrap();
            let one = with_shards(1, || scenario.run());
            let two = with_shards(2, || scenario.run());
            assert!(one.messages > 0, "{kind}: nothing measured");
            assert_eq!(one, two, "{kind}");
        }
    }

    /// Runs `f` on router `node` of a helper's shard, between steps.
    fn with_helper_router<R>(net: &Network, node: usize, f: impl FnOnce(&mut Router) -> R) -> R {
        let h = &net.helpers[node / net.span - 1];
        let mut shard = h.shard.lock().unwrap();
        let lo = shard.lo;
        f(&mut shard.routers[node - lo])
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn a_helper_panic_surfaces_on_the_calling_thread() {
        // Node 8 opens the second of two shards on a 4×4 mesh. Forged
        // credits toward node 9 trip a flow-control assert on the helper
        // thread: a credit overflow (debug) or, once node 8 overruns 9's
        // input ring while 9's ejection port is contended, a ring overflow.
        with_shards(2, || {
            let mut net = small_net(RouterConfig::paper_adaptive());
            let px = Port::from(lapses_topology::Direction::plus(0));
            with_helper_router(&net, 8, |r| {
                for v in 0..r.config().vcs_per_port {
                    r.set_credits(px, v, 1_000);
                }
            });
            for src in [8, 10, 13] {
                for _ in 0..20 {
                    net.offer_message(NodeId(src), NodeId(9), 20, Cycle::ZERO, true);
                }
            }
            for t in 0..5_000 {
                net.step(Cycle::new(t));
            }
        });
    }

    #[test]
    fn dropping_a_network_mid_run_joins_its_helpers() {
        with_shards(3, || {
            let mut net = small_net(RouterConfig::paper_adaptive());
            offer_wave(&mut net, 0, 12, |s| s + 7);
            for t in 0..40 {
                net.step(Cycle::new(t));
            }
            assert!(net.has_traffic(), "the run should still be in flight");
            let held: Vec<_> = net
                .helpers
                .iter()
                .map(|h| (Arc::downgrade(&h.shard), Arc::downgrade(&h.link)))
                .collect();
            assert_eq!(held.len(), 2);
            drop(net);
            // The helper threads held the only other references.
            for (shard, link) in held {
                assert!(shard.upgrade().is_none() && link.upgrade().is_none());
            }
        });
    }
}
