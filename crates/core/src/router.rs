//! The pipelined wormhole router (PROUD / LA-PROUD).
//!
//! One [`Router`] models the paper's five-stage PROUD pipe or the
//! four-stage LA-PROUD pipe at flit granularity:
//!
//! ```text
//! PROUD:     SY → TL → SA → XB → VM        (header, 5 cycles)
//! LA-PROUD:  SY → SA(+TL next hop) → XB → VM (header, 4 cycles)
//! body/tail: SY ············· XB → VM        (bypass path)
//! ```
//!
//! * **SY** — a flit delivered by the link lands in its per-VC input
//!   buffer ([`Router::commit_flit`]);
//! * **TL** — the head's destination indexes this router's routing table
//!   ([`crate::tables::TableScheme::entry`]). In LA-PROUD the upstream
//!   router looked the entry up during its own SA, so this stage
//!   disappears: the head is decoded at SY and may enter SA next cycle;
//! * **SA** — path selection among available candidate ports
//!   ([`crate::psh::PathSelector`]) plus output-VC allocation, with the
//!   Duato escape fallback; in LA-PROUD the lookup *for the next router*
//!   runs here concurrently, so a lookup slower than one cycle delays
//!   allocation (`table_lookup_cycles`);
//! * **XB** — separable (input-first, then output round-robin) switch
//!   allocation moves one flit per input port and per output port per
//!   cycle into the output staging buffers;
//! * **VM** — per physical channel, one staged flit with downstream
//!   credits wins the VC multiplexor and enters the link.
//!
//! Flow control is credit-based: an output VC holds one credit per free
//! slot of the downstream input buffer; popping a flit from an input buffer
//! returns a credit upstream (with the link's one-cycle delay, handled by
//! the network layer).
//!
//! # Kind rings and head records
//!
//! A router stores a flit in two places (see [`crate::flit`]). Every
//! buffered flit is one [`FlitKind`] byte in a dense kind ring — the hot
//! part every stage branches on. The routing state of a message — its
//! record handle and destination — is stored **once, with its head**
//! (§3.2: only the header carries routing state):
//!
//! * each input VC keeps the records of its queued heads in ring order
//!   (a `VecDeque` that grows with the heads actually queued, so a
//!   20-flit message costs one record, not 20 slots), plus the record of
//!   the message now streaming out of it;
//! * each ejection VC keeps the record handle of the message it carries
//!   (its destination is this router).
//!
//! Each (port, VC) owns the fixed kind-ring segment
//! `flat_index * cap .. (flat_index + 1) * cap`, whose cursor lives in
//! the VC's `InputVc`/`OutputVc` header; cursors wrap with a compare
//! instead of a modulo so the hot path never divides. The header arrays,
//! like the rings, hold one entry per live `(port, VC)` — 20 in the
//! paper router — rather than one per [`MAX_VC_SLOTS`] slot, which only
//! bounds the width of the occupancy masks.
//!
//! A flit's lifecycle per hop: it lands in the input ring over the
//! zero-copy wire, where the upstream crossbar pre-writes the kind byte and
//! appends a head's record at the exact slot it will occupy
//! ([`Router::reserve_flit`]) and the link-delay-later arrival merely flips
//! it visible ([`Router::commit_flit`], the **SY** stage). A NIC injection
//! ([`Router::accept_flit`]) makes both calls at once. The **XB** winner
//! pops its kind byte; a head also moves its record from the queue to the
//! VC's streaming record. A flit bound for a neighbor is rebuilt from the
//! kind byte and the streaming record and handed to the sink
//! ([`StepSink::transfer`], which reserves it downstream); the XB stages
//! only the kind byte for the VC multiplexor and frees the input slot
//! (returning a credit upstream). The **VM** grant pops the staging head
//! and announces the launch ([`StepSink::launch_reserved`]), or, on the
//! ejection port, rebuilds the flit from the ejection VC's record for
//! [`StepSink::launch`]. A body or tail flit thus moves one byte per hop.
//! Routing (**TL**/**SA**) reads only the ring head's kind byte plus, for
//! heads, the front record.
//!
//! # Look-ahead is timing, not payload
//!
//! In hardware an LA-PROUD header carries the entry the upstream router
//! fetched for it (§3.2, Fig. 4(b)). The model does not carry it: the
//! table program is static, so the entry fetched upstream is exactly
//! what this router's own table returns for the head's destination. An
//! LA-PROUD router therefore reads its own entry when the head lands
//! (SY) and arms SA for the next cycle, while a PROUD router reads it one
//! TL stage later. Both gate the first allocation on the lookup latency,
//! so §3.2's timing is kept and a header stays 8 bytes of state.
//!
//! # The cycle walk
//!
//! [`Router::step_with`] runs a cycle in reverse pipeline order, so a
//! flit advances at most one stage per cycle: the occupied output ports
//! once (VM), the occupied input ports once (XB proposals, then grants),
//! then **one** combined walk over the occupied, non-streaming input VCs
//! that handles both SA (slots in `Select`) and header decode (slots in
//! `Idle`). A VC slot is in exactly one routing
//! state, so one walk visits each occupied slot once per cycle; the
//! per-cycle constants (`vcs`, masks, pipeline mode) stay in registers
//! across all of it.

use crate::arbiter::rr_grant_mask;
use crate::config::RouterConfig;
use crate::flit::{Flit, FlitKind, MsgRef};
use crate::psh::{PathSelector, PortStatus};
use crate::tables::{RouteEntry, TableScheme};
use lapses_sim::{Cycle, SimRng};
use lapses_topology::{NodeId, Port};
use std::collections::VecDeque;
use std::sync::Arc;

/// Credit sentinel for sinks that can always accept (the ejection port).
pub const INFINITE_CREDITS: u32 = u32::MAX;

/// Routing state of one input virtual channel.
#[derive(Debug, Clone, Copy, PartialEq)]
enum VcState {
    /// No message being routed (buffer may still hold a queued head).
    Idle,
    /// Header decoded, candidates known; waiting to win selection +
    /// VC allocation. The VC's `ready_at` gates the first allocation
    /// attempt on the table-lookup latency (multi-cycle lookups for large
    /// table RAMs).
    Select { entry: RouteEntry },
    /// Path allocated; flits stream through the crossbar.
    Active { out_port: Port, out_vc: u8 },
}

/// Largest number of ports a router can have (local + 2 per dimension).
const MAX_PORTS: usize = lapses_topology::MAX_DIMS * 2 + 1;

/// Largest number of (port, VC) slots a router can have — the width of
/// its occupancy masks. [`Router::new`] panics past it; scenario
/// validation reports it as a typed error first.
pub const MAX_VC_SLOTS: usize = 64;

/// Per-VC input state. The flits themselves live in the router's kind
/// rings and head records; this header only carries the ring cursor and
/// the routing state — 24 packed bytes, so one cache line covers a port.
#[derive(Debug, Clone, Copy)]
struct InputVc {
    state: VcState,
    /// One time gate serving two disjoint states. `Idle`: earliest cycle
    /// the PROUD table-lookup stage may process a queued head (blocks
    /// same-cycle lookup after the previous tail departs). `Select`: the
    /// cycle the in-flight table lookup completes and allocation may
    /// first be attempted.
    ready_at: u64,
    /// Ring cursor into this VC's kind-ring segment.
    head: u16,
    /// Buffered flits.
    len: u16,
    /// Flits already filed behind `len` by
    /// [`Router::reserve_flit`] but not yet visible (still "on the
    /// wire"); made visible in FIFO order by [`Router::commit_flit`].
    pending: u16,
}

const IDLE_INPUT: InputVc = InputVc {
    state: VcState::Idle,
    ready_at: 0,
    head: 0,
    len: 0,
    pending: 0,
};

/// Per-VC output state; staged flits live in the output kind rings.
#[derive(Debug, Clone, Copy)]
struct OutputVc {
    /// Input VC currently holding this output VC, `(port, vc)`.
    owner: Option<(u8, u8)>,
    /// Free buffer slots at the downstream input VC.
    credits: u32,
    /// Ring cursor into this VC's kind-ring segment.
    head: u16,
    /// Staged flits.
    len: u16,
}

const IDLE_OUTPUT: OutputVc = OutputVc {
    owner: None,
    credits: 0,
    head: 0,
    len: 0,
};

/// A message's routing state, stored once per message with its head.
#[derive(Debug, Clone, Copy)]
struct HeadRec {
    rec: MsgRef,
    dest: NodeId,
}

/// Record value of a VC that has streamed nothing yet; never observed.
const NO_REC: HeadRec = HeadRec {
    rec: MsgRef(u32::MAX),
    dest: NodeId(u32::MAX),
};

/// The head records of one input VC.
#[derive(Debug, Clone)]
struct InputRecs {
    /// Records of the heads in the ring (visible or reserved), in ring
    /// order.
    queued: VecDeque<HeadRec>,
    /// Record of the message whose head last left the ring: the message
    /// its body and tail flits belong to.
    streaming: HeadRec,
}

/// A flit entering a link this cycle.
#[derive(Debug, Clone, Copy)]
pub struct Launch {
    /// Output port the flit leaves through.
    pub port: Port,
    /// Virtual channel on that port.
    pub vc: usize,
    /// The flit itself.
    pub flit: Flit,
}

/// Receives a router's per-cycle outputs as the stages produce them —
/// the zero-copy wire protocol.
///
/// A crossbar winner bound for a neighbor hands its payload over at XB
/// time ([`StepSink::transfer`]; the network places it in the downstream
/// input ring), and its later VM grant is announced without the payload
/// ([`StepSink::launch_reserved`]). Ejection-port traffic carries its
/// payload at VM time ([`StepSink::launch`]). Callbacks arrive in
/// deterministic order: VM launches in ascending output-port order, then
/// XB transfers and credits in crossbar grant order.
pub trait StepSink {
    /// A flit enters the ejection channel at `(Port::LOCAL, vc)`.
    fn launch(&mut self, port: Port, vc: usize, flit: Flit);
    /// An input-buffer slot at `(in_port, vc)` freed; credit the upstream.
    fn credit(&mut self, in_port: Port, vc: usize);
    /// A crossbar winner's payload, handed over at XB time for the
    /// downstream input ring behind output `(out_port, vc)`. Never called
    /// for the local (ejection) port.
    fn transfer(&mut self, out_port: Port, vc: usize, flit: Flit);
    /// The oldest flit transferred through `(port, vc)` enters the link.
    fn launch_reserved(&mut self, port: Port, vc: usize);
}

/// Everything a router produced during one cycle, collected into plain
/// buffers: launched flits, credits for upstream, and a progress flag for
/// the watchdog. The convenience sink behind [`Router::step_into`], for tests
/// and microbenchmarks; the network streams onto its wires instead.
#[derive(Debug, Default)]
pub struct StepOutputs {
    /// Flits entering links (or the ejection channel) this cycle.
    pub launches: Vec<Launch>,
    /// Input-buffer slots freed this cycle: `(input port, vc)` pairs whose
    /// upstream neighbor should receive a credit.
    pub credits: Vec<(Port, usize)>,
    /// Whether any flit moved or any allocation succeeded.
    pub moved: bool,
    /// Transferred payloads awaiting their launch, one FIFO per
    /// `(port, vc)` at index `port * MAX_VC_SLOTS + vc`. They outlive a
    /// cycle, so [`StepOutputs::clear`] keeps them.
    staged: Vec<VecDeque<Flit>>,
}

impl StepOutputs {
    /// Empties the per-cycle buffers for reuse, keeping capacity and the
    /// payloads still staged behind the router's VC multiplexors.
    pub fn clear(&mut self) {
        self.launches.clear();
        self.credits.clear();
        self.moved = false;
    }
}

impl StepSink for StepOutputs {
    #[inline]
    fn launch(&mut self, port: Port, vc: usize, flit: Flit) {
        self.launches.push(Launch { port, vc, flit });
    }

    #[inline]
    fn credit(&mut self, in_port: Port, vc: usize) {
        self.credits.push((in_port, vc));
    }

    fn transfer(&mut self, out_port: Port, vc: usize, flit: Flit) {
        let i = out_port.index() * MAX_VC_SLOTS + vc;
        if self.staged.len() <= i {
            self.staged.resize_with(i + 1, VecDeque::new);
        }
        self.staged[i].push_back(flit);
    }

    fn launch_reserved(&mut self, port: Port, vc: usize) {
        let flit = self.staged[port.index() * MAX_VC_SLOTS + vc]
            .pop_front()
            .expect("launch of a transferred flit");
        self.launches.push(Launch { port, vc, flit });
    }
}

/// Aggregate router activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Flits that traversed the crossbar.
    pub flits_switched: u64,
    /// Headers that completed selection + VC allocation.
    pub headers_routed: u64,
    /// Allocations that used an adaptive-class VC.
    pub adaptive_allocations: u64,
    /// Allocations that fell back to the Duato escape VC.
    pub escape_allocations: u64,
    /// Header-cycles spent waiting in the selection stage.
    pub selection_stall_cycles: u64,
    /// Selections where more than one candidate port was available (the
    /// cases where the path-selection heuristic actually decided).
    pub multi_candidate_decisions: u64,
}

/// A cycle-accurate PROUD / LA-PROUD wormhole router.
///
/// The router is driven by the network layer: once per cycle it calls
/// [`Router::step_with`] with its wire sink (stages run in reverse
/// pipeline order so a flit advances one stage per cycle; see the module
/// docs), then commits link arrivals via [`Router::commit_flit`], NIC
/// injections via [`Router::accept_flit`], and returned credits via
/// [`Router::accept_credit`].
pub struct Router {
    // -- Walk-control state, deliberately first: everything the per-cycle
    //    control flow branches on fits in the struct's leading cache
    //    lines, so a lightly-loaded router's step touches very little
    //    memory beyond the flits it actually moves. --
    /// Bit per input VC (flat index): set while its buffer is non-empty.
    in_occupied: u64,
    /// Bit per output VC (flat index): set while its staging buffer is
    /// non-empty.
    out_occupied: u64,
    /// Bit per input port: set while any of its VCs is occupied.
    in_ports: u16,
    /// Bit per output port: set while any of its VCs holds staged flits.
    out_ports: u16,
    /// Bit per output VC (flat index): set while it holds credits — the
    /// VM arbiter's eligibility as a maintained mask, so the grant is one
    /// AND instead of a credit load per candidate.
    credit_ok: u64,
    /// Bit per input VC (flat index): set while the VC is `Active` and
    /// its target staging ring has space — the crossbar input arbiter's
    /// eligibility as a maintained mask (combined with `in_occupied` at
    /// grant time).
    xb_ok: u64,
    /// Bit per output VC (flat index): set while no message owns it —
    /// the VC allocator's eligibility as a maintained mask.
    owner_free: u64,
    /// Bit per input VC (flat index): set while the VC's routing state is
    /// not `Active` (`Idle` or `Select`). ANDed with `in_occupied`, this
    /// is exactly the set of slots the SA/decode walk can act on, so fully
    /// streaming routers skip that walk outright.
    non_active: u64,
    /// Port-local bit pattern of the adaptive-class VCs
    /// (`escape_vcs..vcs`), for masked allocation scans.
    adaptive_mask: u64,
    /// Input buffer depth per VC, in flits (the flow-control window).
    in_cap: u16,
    /// Output staging depth per VC, in flits.
    out_cap: u16,
    /// Input ring segment size per VC: `in_cap + out_cap`, leaving room
    /// for zero-copy reservations made at upstream-crossbar time.
    in_ring: u16,
    /// Cached `cfg.vcs_per_port` (the cfg itself is off the hot path).
    vcs: u8,
    /// Cached port count.
    ports: u8,
    /// Cached `cfg.pipeline.is_lookahead()`: LA-PROUD decodes a head as
    /// it lands (see the module docs).
    decode_at_sy: bool,
    /// Per output port: VC-multiplexor rotation pointer.
    vm_next: [u8; MAX_PORTS],
    /// Per input port: rotation pointer over its VCs' crossbar proposals.
    xb_in_next: [u8; MAX_PORTS],
    /// Per output port: rotation pointer over proposing input ports.
    xb_out_next: [u8; MAX_PORTS],
    /// Per output port: rotation pointer for output-VC allocation.
    vc_alloc_next: [u8; MAX_PORTS],
    /// Flits launched per output port (link-utilization reporting),
    /// counted here — in state the launch already touches — instead of in
    /// a network-global array the hot path would miss on.
    link_flits: [u64; MAX_PORTS],
    /// Per-VC input cursors + routing state, one per `(port, VC)` (flat
    /// index).
    inputs: Box<[InputVc]>,
    /// Per-VC output cursors + credits, one per `(port, VC)`.
    outputs: Box<[OutputVc]>,
    /// Kind bytes of the input-VC flit rings, one contiguous segment per
    /// VC (`vc_index * in_ring ..`).
    in_kind: Box<[FlitKind]>,
    /// Kind bytes of the output staging rings.
    out_kind: Box<[FlitKind]>,
    /// Per input VC: the head records (see the module docs).
    in_recs: Box<[InputRecs]>,
    /// Per ejection VC: the record handle of the message it carries. The
    /// local port is port 0, so ejection VC `v` is output VC `v`.
    eject_rec: Box<[MsgRef]>,
    selector: PathSelector,
    rng: SimRng,
    stats: RouterStats,
    // -- Cold configuration and identity. --
    node: NodeId,
    cfg: RouterConfig,
    /// The table program; this router reads its own entries only.
    program: Arc<dyn TableScheme>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("node", &self.node)
            .field("ports", &self.ports)
            .field("pipeline", &self.cfg.pipeline)
            .field("scheme", &self.program.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Router {
    /// Creates the router of `node` with `ports` ports (local +
    /// directions), reading its routing table from `program`.
    ///
    /// Output-VC credits start at zero; the network layer sets them to the
    /// downstream buffer depths with [`Router::set_credits`] after wiring.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// ([`RouterConfig::validate`]), `ports` is zero, or `node` is outside
    /// the program's topology.
    pub fn new(
        node: NodeId,
        ports: usize,
        cfg: RouterConfig,
        program: Arc<dyn TableScheme>,
        rng: SimRng,
    ) -> Router {
        cfg.validate();
        assert!(ports > 0, "router needs at least one port");
        assert!(ports <= MAX_PORTS, "router exceeds the port budget");
        assert!(
            ports * cfg.vcs_per_port <= MAX_VC_SLOTS,
            "router exceeds the {MAX_VC_SLOTS} (port, VC) occupancy-mask budget"
        );
        assert!(
            node.index() < program.mesh().node_count(),
            "node {node} outside the programmed topology"
        );
        let vcs = cfg.vcs_per_port;
        let in_cap = u16::try_from(cfg.input_buffer_flits).expect("input buffer fits u16");
        let out_cap = u16::try_from(cfg.output_buffer_flits).expect("output buffer fits u16");
        // Input ring segments hold the visible buffer plus every possible
        // zero-copy reservation: a reservation is made when the flit wins
        // the *upstream* crossbar, so up to `out_cap` staged flits plus
        // `in_cap` credited launches can be outstanding per VC.
        let in_ring = in_cap.checked_add(out_cap).expect("ring fits u16");
        let in_slots = ports * vcs * in_ring as usize;
        let out_slots = ports * vcs * out_cap as usize;
        Router {
            in_occupied: 0,
            out_occupied: 0,
            in_ports: 0,
            out_ports: 0,
            credit_ok: 0,
            xb_ok: 0,
            non_active: u64::MAX,
            owner_free: if ports * vcs == 64 {
                u64::MAX
            } else {
                (1u64 << (ports * vcs)) - 1
            },
            adaptive_mask: {
                let all = (1u64 << vcs) - 1;
                let escape = (1u64 << cfg.escape_vcs) - 1;
                all & !escape
            },
            in_cap,
            out_cap,
            in_ring,
            vcs: vcs as u8,
            ports: ports as u8,
            decode_at_sy: cfg.pipeline.is_lookahead(),
            vm_next: [0; MAX_PORTS],
            xb_in_next: [0; MAX_PORTS],
            xb_out_next: [0; MAX_PORTS],
            vc_alloc_next: [0; MAX_PORTS],
            link_flits: [0; MAX_PORTS],
            inputs: vec![IDLE_INPUT; ports * vcs].into_boxed_slice(),
            outputs: vec![IDLE_OUTPUT; ports * vcs].into_boxed_slice(),
            in_kind: vec![FlitKind::Body; in_slots].into_boxed_slice(),
            out_kind: vec![FlitKind::Body; out_slots].into_boxed_slice(),
            in_recs: vec![
                InputRecs {
                    queued: VecDeque::new(),
                    streaming: NO_REC,
                };
                ports * vcs
            ]
            .into_boxed_slice(),
            eject_rec: vec![NO_REC.rec; vcs].into_boxed_slice(),
            selector: PathSelector::new(cfg.path_selection, ports),
            rng,
            stats: RouterStats::default(),
            node,
            cfg,
            program,
        }
    }

    /// The node this router serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.ports as usize
    }

    /// The router's configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Activity counters.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Flits launched through output `port` so far.
    pub fn link_flits(&self, port: Port) -> u64 {
        self.link_flits[port.index()]
    }

    /// Sets the credit budget of output `(port, vc)` — the downstream input
    /// buffer depth, or [`INFINITE_CREDITS`] for the ejection channel.
    pub fn set_credits(&mut self, port: Port, vc: usize, credits: u32) {
        let idx = self.out_idx(port, vc);
        self.outputs[idx].credits = credits;
        if credits > 0 {
            self.credit_ok |= 1 << idx;
        } else {
            self.credit_ok &= !(1 << idx);
        }
    }

    /// Current credits of output `(port, vc)`.
    pub fn credits(&self, port: Port, vc: usize) -> u32 {
        self.outputs[self.out_idx(port, vc)].credits
    }

    /// Whether the router holds no flits at all (input or staged).
    pub fn is_empty(&self) -> bool {
        // A VC holds flits iff its occupancy bit is set, so the masks are
        // the whole truth.
        self.in_occupied == 0 && self.out_occupied == 0
    }

    /// Head records queued in the input VCs — one per head still in an
    /// input ring, visible or reserved. Zero in a drained router: a record
    /// left behind would mean a head vanished without its record.
    pub fn head_records(&self) -> usize {
        self.in_recs.iter().map(|r| r.queued.len()).sum()
    }

    #[inline]
    fn in_idx(&self, port: Port, vc: usize) -> usize {
        debug_assert!(port.index() < self.ports() && vc < self.vcs as usize);
        port.index() * self.vcs as usize + vc
    }

    #[inline]
    fn out_idx(&self, port: Port, vc: usize) -> usize {
        debug_assert!(port.index() < self.ports() && vc < self.vcs as usize);
        port.index() * self.vcs as usize + vc
    }

    // Ring-buffer primitives over the kind rings. Each VC owns the
    // segment `idx * cap .. (idx + 1) * cap`; cursors wrap with a compare
    // instead of a modulo so the hot path never divides.

    /// Files `flit` behind the first `behind` flits (visible or reserved)
    /// of input ring `idx`: its kind byte in that slot and, for a head,
    /// its record at the back of the VC's queue — which keeps the records
    /// in ring order, since flits are filed in ring order.
    #[inline]
    fn in_write(&mut self, idx: usize, behind: u16, flit: Flit) {
        let cap = self.in_ring;
        let mut slot = self.inputs[idx].head + behind;
        if slot >= cap {
            slot -= cap;
        }
        self.in_kind[idx * cap as usize + slot as usize] = flit.kind;
        if flit.kind.is_head() {
            self.in_recs[idx].queued.push_back(HeadRec {
                rec: flit.rec,
                dest: flit.dest,
            });
        }
    }

    /// The record of the head at the front of input ring `idx`.
    #[inline]
    fn front_rec(&self, idx: usize) -> &HeadRec {
        self.in_recs[idx]
            .queued
            .front()
            .expect("a queued head has a record")
    }

    /// Kind-ring index of input ring `idx`'s front slot (requires
    /// `len > 0`).
    #[inline]
    fn ibuf_front_slot(&self, idx: usize) -> usize {
        debug_assert!(self.inputs[idx].len > 0, "no front flit");
        idx * self.in_ring as usize + self.inputs[idx].head as usize
    }

    /// Pops the front kind byte of input ring `in_idx`. A head also moves
    /// its record from the queue to the VC's streaming record, which
    /// then describes every flit up to the tail.
    #[inline]
    fn ibuf_pop(&mut self, in_idx: usize) -> FlitKind {
        let kind = self.in_kind[self.ibuf_front_slot(in_idx)];
        let cap = self.in_ring;
        let ivc = &mut self.inputs[in_idx];
        ivc.head += 1;
        if ivc.head == cap {
            ivc.head = 0;
        }
        ivc.len -= 1;
        if kind.is_head() {
            let recs = &mut self.in_recs[in_idx];
            recs.streaming = recs.queued.pop_front().expect("a queued head has a record");
        }
        kind
    }

    /// Pushes a kind byte onto staging ring `out_idx`.
    #[inline]
    fn obuf_push_kind(&mut self, out_idx: usize, kind: FlitKind) {
        let ocap = self.out_cap;
        let ovc = &mut self.outputs[out_idx];
        debug_assert!(ovc.len < ocap, "staging ring overflow");
        let mut oslot = ovc.head + ovc.len;
        if oslot >= ocap {
            oslot -= ocap;
        }
        ovc.len += 1;
        self.out_kind[out_idx * ocap as usize + oslot as usize] = kind;
    }

    /// SY stage: a flit injected by the local network interface lands in
    /// its input VC buffer — a reservation committed at once (link
    /// arrivals make the two calls a wire delay apart).
    ///
    /// # Panics
    ///
    /// Panics if the buffer overflows (a flow-control violation — the
    /// upstream router sent without credit).
    pub fn accept_flit(&mut self, port: Port, vc: usize, flit: Flit, now: Cycle) {
        debug_assert_eq!(
            self.inputs[self.in_idx(port, vc)].pending,
            0,
            "injection behind a reservation"
        );
        self.reserve_flit(port, vc, flit);
        self.commit_flit(port, vc, now);
    }

    /// Files a flit into the input ring slot it will occupy on arrival
    /// **without making it visible**: the reservation half of the
    /// zero-copy wire (see the `lapses-network` module docs), performed
    /// when the flit wins the *upstream* crossbar. The slot is
    /// `head + len + pending`, which is stable under everything that can
    /// happen between reservation and arrival — pops advance `head` while
    /// shrinking `len`, earlier commits trade `pending` for `len` — so
    /// the kind byte lands exactly where [`Router::commit_flit`] will
    /// expose it, and nothing reads past `len` in the meantime. A head's
    /// record joins the back of the VC's queue. The ring segment is sized
    /// `in_cap + out_cap`, covering every credited launch plus every
    /// upstream-staged flit.
    ///
    /// # Panics
    ///
    /// Panics if the reservation overflows the ring (the upstream staged
    /// or launched more than flow control ever allows).
    pub fn reserve_flit(&mut self, port: Port, vc: usize, flit: Flit) {
        let idx = self.in_idx(port, vc);
        let ivc = &mut self.inputs[idx];
        let behind = ivc.len + ivc.pending;
        assert!(
            behind < self.in_ring,
            "input ring overflow at {} {port} vc{vc}: flow control violated",
            self.node
        );
        ivc.pending += 1;
        self.in_write(idx, behind, flit);
    }

    /// SY stage: makes the oldest reserved flit at `(port, vc)` visible —
    /// the wire delivered it. In LA-PROUD mode a head flit landing at the
    /// front of an idle VC is decoded immediately: its entry arms the
    /// selection stage for the *next* cycle, skipping the table-lookup
    /// stage.
    ///
    /// # Panics
    ///
    /// Panics if the buffer overflows (a flow-control violation).
    pub fn commit_flit(&mut self, port: Port, vc: usize, now: Cycle) {
        let idx = self.in_idx(port, vc);
        let ivc = &mut self.inputs[idx];
        debug_assert!(ivc.pending > 0, "commit without a reservation");
        assert!(
            ivc.len < self.in_cap,
            "input buffer overflow at {} {port} vc{vc}: flow control violated",
            self.node
        );
        ivc.pending -= 1;
        ivc.len += 1;
        self.in_occupied |= 1 << idx;
        self.in_ports |= 1 << port.index();
        if self.decode_at_sy {
            self.decode(idx, now);
        }
    }

    /// Credit returned by the downstream router for output `(port, vc)`.
    pub fn accept_credit(&mut self, port: Port, vc: usize) {
        let idx = self.out_idx(port, vc);
        let o = &mut self.outputs[idx];
        if o.credits != INFINITE_CREDITS {
            o.credits += 1;
            debug_assert!(
                o.credits as usize <= self.cfg.input_buffer_flits,
                "credit overflow on {port} vc{vc}"
            );
        }
        self.credit_ok |= 1 << idx;
    }

    /// Runs one cycle into `out` (its per-cycle buffers cleared first).
    /// `out` must be the same buffer on every cycle of this router: it
    /// holds the payloads staged behind the VC multiplexors.
    pub fn step_into(&mut self, now: Cycle, out: &mut StepOutputs) {
        out.clear();
        out.moved = self.step_with(now, out);
    }

    /// Runs one cycle, streaming launches and credits into `sink` as the
    /// stages produce them (see the module docs for the walk). Returns
    /// whether any flit moved or allocation succeeded. Routers holding no
    /// flits return immediately.
    pub fn step_with<S: StepSink>(&mut self, now: Cycle, sink: &mut S) -> bool {
        if self.in_occupied == 0 && self.out_occupied == 0 {
            return false;
        }
        // VM: per occupied output port, one credited staged flit enters
        // the link; the tail releases the output VC.
        let mut moved = false;
        let mut pmask = self.out_ports;
        while pmask != 0 {
            let p = pmask.trailing_zeros() as usize;
            pmask &= pmask - 1;
            moved |= self.vm_port(p, sink);
        }

        if self.in_occupied != 0 {
            // XB: separable switch allocation (proposals, then grants).
            moved |= self.xb_pass(now, sink);

            // SA + decode in one walk over the occupied input VCs. A slot
            // is in exactly one routing state — Select slots attempt
            // allocation (SA), Idle slots decode a queued header, Active
            // slots cost one branch. Only non-`Active` occupied slots can
            // do that work; fully streaming routers skip the walk entirely.
            let mut occupied = self.in_occupied & self.non_active;
            while occupied != 0 {
                let idx = occupied.trailing_zeros() as usize;
                occupied &= occupied - 1;
                match self.inputs[idx].state {
                    VcState::Select { entry } => {
                        if now.as_u64() >= self.inputs[idx].ready_at {
                            moved |= self.sa_allocate(idx, &entry);
                        }
                    }
                    VcState::Idle => self.decode(idx, now),
                    VcState::Active { .. } => {}
                }
            }
        }
        moved
    }

    /// VM for one output port: grant a credited staged flit the VC mux
    /// and launch it into the link. Returns whether a flit launched.
    #[inline]
    fn vm_port<S: StepSink>(&mut self, p: usize, sink: &mut S) -> bool {
        let vcs = self.vcs as usize;
        let vcmask = (1u64 << vcs) - 1;
        let base = p * vcs;
        let port_mask = (self.out_occupied >> base) & vcmask;
        debug_assert!(port_mask != 0, "stale out_ports bit");
        let granted = rr_grant_mask(
            &mut self.vm_next[p],
            vcs,
            port_mask & ((self.credit_ok >> base) & vcmask),
        );
        let Some(v) = granted else { return false };
        let idx = base + v;
        // Pop the staging ring's front kind byte: a neighbor-bound
        // payload already sits in the downstream input ring, and an
        // ejection is rebuilt from its VC's record.
        let ocap = self.out_cap;
        let (slot, was_full) = {
            let ovc = &mut self.outputs[idx];
            debug_assert!(ovc.len > 0, "staging ring underflow");
            let slot = idx * ocap as usize + ovc.head as usize;
            let was_full = ovc.len == ocap;
            ovc.head += 1;
            if ovc.head == ocap {
                ovc.head = 0;
            }
            ovc.len -= 1;
            (slot, was_full)
        };
        let kind = self.out_kind[slot];
        if self.outputs[idx].len == 0 {
            self.out_occupied &= !(1 << idx);
            if (self.out_occupied >> base) & vcmask == 0 {
                self.out_ports &= !(1 << p);
            }
        }
        let o = &mut self.outputs[idx];
        if o.credits != INFINITE_CREDITS {
            o.credits -= 1;
            if o.credits == 0 {
                self.credit_ok &= !(1 << idx);
            }
        }
        if kind.is_tail() {
            o.owner = None;
            self.owner_free |= 1 << idx;
        }
        self.link_flits[p] += 1;
        if was_full {
            // The staging ring just gained a slot: the input VC streaming
            // into it (its owner, if it is still the active streamer —
            // the owner outlives its tail's crossbar pop) becomes
            // crossbar-eligible again.
            if let Some((op_, ov_)) = self.outputs[idx].owner {
                let owner_idx = op_ as usize * vcs + ov_ as usize;
                let streaming = matches!(
                    self.inputs[owner_idx].state,
                    VcState::Active { out_port, out_vc }
                        if out_port.index() == p && out_vc as usize == v
                );
                if streaming {
                    self.xb_ok |= 1 << owner_idx;
                }
            }
        }
        let port = Port::from_index(p);
        if port.is_local() {
            // The ejecting message's destination is this router.
            let flit = Flit {
                rec: self.eject_rec[v],
                dest: self.node,
                kind,
            };
            sink.launch(port, v, flit);
        } else {
            sink.launch_reserved(port, v);
        }
        true
    }

    /// XB: separable switch allocation. Each occupied input port proposes
    /// one of its VCs (input arbitration), then each requested output port
    /// grants one proposing input (output arbitration); winners move one
    /// flit into staging and free a credit.
    fn xb_pass<S: StepSink>(&mut self, now: Cycle, sink: &mut S) -> bool {
        let vcs = self.vcs as usize;
        let ports = self.ports as usize;
        let vcmask = (1u64 << vcs) - 1;
        let mut moved = false;
        // Input arbitration: proposals are packed small-int arrays (no
        // per-call Option zeroing, no divisions downstream).
        let mut prop_vc = [0u8; MAX_PORTS];
        let mut prop_of = [u16::MAX; MAX_PORTS]; // flat output VC index
        let mut prop_op = [0u8; MAX_PORTS]; // proposal's output port
        let mut req_ports = [0u16; MAX_PORTS]; // per output port: proposers
        let mut requested_outputs = 0u16; // bit per output port
        let mut pmask = self.in_ports;
        while pmask != 0 {
            let p = pmask.trailing_zeros() as usize;
            pmask &= pmask - 1;
            let base = p * vcs;
            let port_mask = (self.in_occupied >> base) & vcmask;
            debug_assert!(port_mask != 0, "stale in_ports bit");
            let granted = rr_grant_mask(
                &mut self.xb_in_next[p],
                vcs,
                port_mask & ((self.xb_ok >> base) & vcmask),
            );
            if let Some(v) = granted {
                let VcState::Active { out_port, out_vc } = self.inputs[base + v].state else {
                    unreachable!("granted VC is active");
                };
                prop_vc[p] = v as u8;
                prop_of[p] = (out_port.index() * vcs + out_vc as usize) as u16;
                prop_op[p] = out_port.index() as u8;
                req_ports[out_port.index()] |= 1 << p;
                requested_outputs |= 1 << out_port.index();
            }
        }
        // Output arbitration: one winning input port per output port.
        let mut omask = requested_outputs;
        while omask != 0 {
            let op = omask.trailing_zeros() as usize;
            omask &= omask - 1;
            let winner = rr_grant_mask(&mut self.xb_out_next[op], ports, req_ports[op] as u64);
            let Some(ip) = winner else { continue };
            let iv = prop_vc[ip] as usize;
            let of = prop_of[ip] as usize;
            debug_assert!(prop_op[ip] as usize == op && of != u16::MAX as usize);
            let in_idx = ip * vcs + iv;
            let kind = self.ibuf_pop(in_idx);
            let msg = self.in_recs[in_idx].streaming;
            if op != Port::LOCAL.index() {
                // Zero-copy wire: hand the flit, rebuilt from the streaming
                // record, to the sink (it goes straight into the downstream
                // input ring).
                let flit = Flit {
                    rec: msg.rec,
                    dest: msg.dest,
                    kind,
                };
                sink.transfer(Port::from_index(op), of - op * vcs, flit);
            } else if kind.is_head() {
                debug_assert_eq!(msg.dest, self.node, "ejecting a message for another node");
                self.eject_rec[of] = msg.rec;
            }
            // Stage only the kind byte for the VC multiplexor.
            self.obuf_push_kind(of, kind);
            if self.inputs[in_idx].len == 0 {
                self.in_occupied &= !(1 << in_idx);
                if (self.in_occupied >> (ip * vcs)) & vcmask == 0 {
                    self.in_ports &= !(1 << ip);
                }
            }
            sink.credit(Port::from_index(ip), iv);
            if kind.is_tail() {
                // The freed VC's next header is decoded by this cycle's
                // SA/decode walk (it runs after XB), so its earliest selection
                // attempt is next cycle — in LA-PROUD. PROUD additionally
                // pays the table-lookup cycle, enforced by `ready_at`.
                let ivc = &mut self.inputs[in_idx];
                ivc.state = VcState::Idle;
                ivc.ready_at = now.as_u64() + 1;
                self.xb_ok &= !(1 << in_idx); // no longer an active streamer
                self.non_active |= 1 << in_idx;
            } else if self.outputs[of].len == self.out_cap {
                // The move filled the staging ring: the streamer stalls
                // until the VC multiplexor frees a slot.
                self.xb_ok &= !(1 << in_idx);
            }
            self.selector
                .note_port_used(Port::from_index(op), now.as_u64(), kind.is_head());
            self.stats.flits_switched += 1;
            self.out_occupied |= 1 << of;
            self.out_ports |= 1 << op;
            moved = true;
        }
        moved
    }

    /// SA for one `Select` input VC whose table lookup has completed:
    /// selection + output-VC allocation with the Duato escape fallback.
    /// Returns whether the allocation succeeded.
    fn sa_allocate(&mut self, idx: usize, entry: &RouteEntry) -> bool {
        let vcs = self.vcs as usize;
        debug_assert!(
            self.in_kind[self.ibuf_front_slot(idx)].is_head(),
            "selection on a non-head flit"
        );
        match self.try_allocate(entry) {
            Some((out_port, out_vc, used_escape)) => {
                let of = out_port.index() * vcs + out_vc;
                self.outputs[of].owner = Some(((idx / vcs) as u8, (idx % vcs) as u8));
                self.owner_free &= !(1 << of);
                self.inputs[idx].state = VcState::Active {
                    out_port,
                    out_vc: out_vc as u8,
                };
                self.non_active &= !(1 << idx);
                if self.outputs[of].len < self.out_cap {
                    self.xb_ok |= 1 << idx;
                } else {
                    self.xb_ok &= !(1 << idx);
                }
                self.stats.headers_routed += 1;
                if used_escape {
                    self.stats.escape_allocations += 1;
                } else {
                    self.stats.adaptive_allocations += 1;
                }
                true
            }
            None => {
                self.stats.selection_stall_cycles += 1;
                false
            }
        }
    }

    /// Decodes the header at the front of `Idle` input VC `idx`: reads
    /// this router's entry for its destination and arms the selection
    /// stage. LA-PROUD decodes as soon as the head is at the front (SY,
    /// see the module docs); PROUD decodes in the walk once the post-tail
    /// blackout (`ready_at`) has passed, which is its TL stage.
    fn decode(&mut self, idx: usize, now: Cycle) {
        let ivc = &self.inputs[idx];
        if ivc.state != VcState::Idle || ivc.len == 0 {
            return;
        }
        if !self.decode_at_sy && now.as_u64() < ivc.ready_at {
            return;
        }
        if !self.in_kind[self.ibuf_front_slot(idx)].is_head() {
            return;
        }
        let entry = self.program.entry(self.node, self.front_rec(idx).dest);
        // A k-cycle lookup started now completes at now + k, and the
        // selection stage may fire from that cycle on: PROUD's own TL
        // lookup, or LA-PROUD's concurrent next-hop lookup, which the
        // outgoing header waits for (k = 1 recovers the paper's pipes).
        let ivc = &mut self.inputs[idx];
        ivc.ready_at = now.as_u64() + self.cfg.table_lookup_cycles as u64;
        ivc.state = VcState::Select { entry };
    }

    /// Tries to reserve an output VC for a header with the given route
    /// entry: adaptive candidates first (through the path-selection
    /// heuristic when several ports are available), then the escape VC of
    /// the entry's dateline subclass. Returns `(port, vc, used_escape)`.
    fn try_allocate(&mut self, entry: &RouteEntry) -> Option<(Port, usize, bool)> {
        let vcs = self.vcs as usize;

        let vcmask = (1u64 << vcs) - 1;

        // Destination reached: any free VC on the local exit port.
        if entry.is_local() {
            let local = Port::LOCAL.index() * vcs;
            let v = rr_grant_mask(
                &mut self.vc_alloc_next[Port::LOCAL.index()],
                vcs,
                (self.owner_free >> local) & vcmask,
            )?;
            return Some((Port::LOCAL, v, false));
        }

        // Adaptive pass: candidate ports with a free adaptive-class VC.
        let mut avail = [Port::LOCAL; lapses_topology::MAX_DIMS * 2 + 1];
        let mut n_avail = 0;
        for p in entry.candidates.iter() {
            let has_free = (self.owner_free >> (p.index() * vcs)) & self.adaptive_mask != 0;
            if has_free {
                avail[n_avail] = p;
                n_avail += 1;
            }
        }
        if n_avail > 0 {
            let chosen = if n_avail == 1 {
                avail[0]
            } else {
                self.stats.multi_candidate_decisions += 1;
                // Snapshot port statuses first to keep the borrow checker
                // (and the hardware analogy: status registers are latched
                // before the selection mux).
                let mut statuses = [PortStatus::default(); lapses_topology::MAX_DIMS * 2 + 1];
                for (i, p) in avail[..n_avail].iter().enumerate() {
                    statuses[i] = self.port_status(*p);
                }
                let avail = &avail[..n_avail];
                self.selector.select(
                    avail,
                    |p| {
                        let i = avail.iter().position(|q| *q == p).expect("candidate");
                        statuses[i]
                    },
                    &mut self.rng,
                )
            };
            let base = chosen.index() * vcs;
            let v = rr_grant_mask(
                &mut self.vc_alloc_next[chosen.index()],
                vcs,
                (self.owner_free >> base) & self.adaptive_mask,
            )
            .expect("an adaptive VC was free");
            return Some((chosen, v, false));
        }

        // Escape pass (Duato's protocol): the deterministic escape route's
        // escape-class VC of the right dateline subclass.
        if self.cfg.escape_vcs > 0 {
            let escape = entry.escape?;
            let sub = entry.escape_subclass as usize % self.cfg.escape_subclasses;
            let base = escape.index() * vcs;
            for v in self.cfg.escape_vcs_for_subclass(sub) {
                if self.owner_free & (1 << (base + v)) != 0 {
                    return Some((escape, v, true));
                }
            }
        }
        None
    }

    /// Live status of an output port for the path-selection heuristics.
    fn port_status(&self, port: Port) -> PortStatus {
        let vcs = self.vcs as usize;
        let base = port.index() * vcs;
        let vcmask = (1u64 << vcs) - 1;
        let mut status = PortStatus {
            active_vcs: (!(self.owner_free >> base) & vcmask).count_ones(),
            ..PortStatus::default()
        };
        for v in 0..vcs {
            let o = &self.outputs[base + v];
            let credits = if o.credits == INFINITE_CREDITS {
                self.cfg.input_buffer_flits as u32
            } else {
                o.credits
            };
            status.credits_sum = status.credits_sum.saturating_add(credits);
            status.credits_max = status.credits_max.max(credits);
        }
        status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, MsgRef};
    use crate::psh::PathSelection;
    use crate::tables::{FullTable, TableScheme};
    use lapses_routing::Algorithm;
    use lapses_topology::{Direction, Mesh};
    use std::sync::Arc;

    /// 1-D four-node mesh: node 1 routes +d0 toward node 3.
    fn line_router(cfg: RouterConfig) -> Router {
        let mesh = Mesh::mesh(&[4]);
        let program: Arc<dyn TableScheme> = Arc::new(FullTable::program(&mesh, &Algorithm::Duato));
        let node = NodeId(1);
        let mut r = Router::new(
            node,
            mesh.ports_per_router(),
            cfg,
            program,
            SimRng::from_seed(1),
        );
        // Give every direction port full credits and the local port
        // infinite credits.
        for p in 0..r.ports() {
            for v in 0..r.config().vcs_per_port {
                let port = Port::from_index(p);
                let credits = if port.is_local() {
                    INFINITE_CREDITS
                } else {
                    20
                };
                r.set_credits(port, v, credits);
            }
        }
        r
    }

    fn message(dest: u32, len: u32) -> Vec<Flit> {
        Flit::message(MsgRef(1), NodeId(dest), len)
    }

    /// Runs cycles `from..=to` into `out`, returning every launch with
    /// its cycle.
    fn run_into(
        router: &mut Router,
        out: &mut StepOutputs,
        from: u64,
        to: u64,
    ) -> Vec<(u64, Launch)> {
        let mut all = Vec::new();
        for t in from..=to {
            router.step_into(Cycle::new(t), out);
            all.extend(out.launches.iter().map(|l| (t, *l)));
        }
        all
    }

    /// [`run_into`] for a router stepped only by this call.
    fn run(router: &mut Router, from: u64, to: u64) -> Vec<(u64, Launch)> {
        run_into(router, &mut StepOutputs::default(), from, to)
    }

    #[test]
    fn proud_header_launches_after_five_stages() {
        let mut r = line_router(RouterConfig::paper_adaptive());
        let flits = message(3, 1);
        // SY at cycle 0.
        r.accept_flit(Port::LOCAL, 0, flits[0], Cycle::ZERO);
        let launches = run(&mut r, 1, 10);
        assert_eq!(launches.len(), 1);
        let (t, l) = &launches[0];
        // TL=1, SA=2, XB=3, VM=4.
        assert_eq!(*t, 4, "PROUD header must launch at cycle 4");
        assert_eq!(l.port, Port::from(Direction::plus(0)));
    }

    #[test]
    fn la_proud_header_saves_one_cycle() {
        let mut r = line_router(RouterConfig::paper_adaptive().with_lookahead(true));
        let flits = message(3, 1);
        r.accept_flit(Port::LOCAL, 0, flits[0], Cycle::ZERO);
        let launches = run(&mut r, 1, 10);
        assert_eq!(launches.len(), 1);
        // SA=1, XB=2, VM=3.
        assert_eq!(launches[0].0, 3, "LA-PROUD header must launch at cycle 3");
    }

    #[test]
    fn body_flits_stream_one_per_cycle() {
        let mut r = line_router(RouterConfig::paper_adaptive());
        let flits = message(3, 4);
        for (i, f) in flits.iter().enumerate() {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::new(i as u64));
        }
        let launches = run(&mut r, 1, 12);
        let times: Vec<u64> = launches.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![4, 5, 6, 7]);
        let sent: Vec<Flit> = launches.iter().map(|(_, l)| l.flit).collect();
        assert_eq!(sent, flits, "flits must stay in order");
    }

    #[test]
    fn tail_releases_input_and_output_vcs() {
        let mut r = line_router(RouterConfig::paper_adaptive());
        let flits = message(3, 2);
        for f in &flits {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
        }
        let launches = run(&mut r, 1, 10);
        assert_eq!(launches.len(), 2);
        // After the tail leaves, every output VC is free again.
        let px = Port::from(Direction::plus(0));
        for v in 0..4 {
            assert!(r.outputs[r.out_idx(px, v)].owner.is_none());
        }
        assert!(r.is_empty());
        assert_eq!(r.stats().headers_routed, 1);
    }

    #[test]
    fn credits_gate_the_vc_mux() {
        let mut r = line_router(RouterConfig::paper_adaptive());
        // Only one credit on every VC of +d0.
        let px = Port::from(Direction::plus(0));
        for v in 0..4 {
            r.set_credits(px, v, 1);
        }
        let flits = message(3, 3);
        for f in &flits {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
        }
        let mut out = StepOutputs::default();
        let launches = run_into(&mut r, &mut out, 1, 10);
        assert_eq!(launches.len(), 1, "only one credit, only one launch");
        // Returning a credit releases the next flit.
        let vc = launches[0].1.vc;
        r.accept_credit(px, vc);
        let more = run_into(&mut r, &mut out, 11, 13);
        assert_eq!(more.len(), 1);
        // The head went first, so the next flit is the second of three.
        assert_eq!(launches[0].1.flit, flits[0]);
        assert_eq!(more[0].1.flit, flits[1]);
    }

    #[test]
    fn escape_fallback_when_adaptive_vcs_busy() {
        // 2 VCs: vc0 escape, vc1 adaptive. Two messages to the same
        // destination: the second must fall back to the escape VC.
        let cfg = RouterConfig::paper_adaptive().with_vcs(2, 1);
        let mut r = line_router(cfg);
        let m1 = message(3, 10); // long enough to hold its VC
        let m2 = Flit::message(MsgRef(2), NodeId(3), 10);
        for f in &m1 {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
        }
        for f in &m2 {
            r.accept_flit(Port::LOCAL, 1, *f, Cycle::ZERO);
        }
        let _ = run(&mut r, 1, 6);
        let s = r.stats();
        assert_eq!(s.adaptive_allocations, 1);
        assert_eq!(s.escape_allocations, 1);
        // The escape allocation went to vc0 of +d0.
        let px = Port::from(Direction::plus(0));
        assert!(r.outputs[r.out_idx(px, 0)].owner.is_some());
        assert!(r.outputs[r.out_idx(px, 1)].owner.is_some());
    }

    #[test]
    fn header_blocks_when_no_vc_available() {
        // 1 VC, no escape: a second message waits for the first tail.
        let cfg = RouterConfig {
            vcs_per_port: 1,
            escape_vcs: 0,
            ..RouterConfig::paper_adaptive()
        };
        let mut r = line_router(cfg);
        let m1 = message(3, 2);
        let m2 = Flit::message(MsgRef(2), NodeId(3), 2);
        // Two messages on the same input VC, back to back.
        for f in m1.iter().chain(&m2) {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
        }
        let launches = run(&mut r, 1, 20);
        assert_eq!(launches.len(), 4);
        // Second header allocates only after the first tail freed the VC.
        assert!(r.stats().selection_stall_cycles > 0 || launches[2].0 > launches[1].0);
        let sent: Vec<Flit> = launches.iter().map(|(_, l)| l.flit).collect();
        assert_eq!(sent, [m1, m2].concat());
    }

    #[test]
    fn local_destination_ejects() {
        let mut r = line_router(RouterConfig::paper_adaptive());
        let flits = message(1, 2); // dest == router node
        let minus = Port::from(Direction::minus(0));
        for f in &flits {
            r.accept_flit(minus, 0, *f, Cycle::ZERO);
        }
        let launches = run(&mut r, 1, 10);
        assert_eq!(launches.len(), 2);
        assert!(launches.iter().all(|(_, l)| l.port.is_local()));
    }

    #[test]
    fn decode_reads_the_routers_own_entry() {
        // A head for the far corner of a 4×4 mesh, injected at (1, 1): the
        // router arms selection with its own entry — at SY in LA-PROUD,
        // one TL stage later in PROUD.
        let mesh = Mesh::mesh_2d(4, 4);
        let program: Arc<dyn TableScheme> = Arc::new(FullTable::program(&mesh, &Algorithm::Duato));
        let node = mesh.id_at(&[1, 1]).unwrap();
        let dest = mesh.id_at(&[3, 3]).unwrap();
        let own = program.entry(node, dest);
        assert_eq!(own.candidates.len(), 2);
        for lookahead in [false, true] {
            let cfg = RouterConfig::paper_adaptive().with_lookahead(lookahead);
            let mut r = Router::new(node, 5, cfg, Arc::clone(&program), SimRng::from_seed(1));
            let head = Flit::message(MsgRef(1), dest, 1)[0];
            r.accept_flit(Port::LOCAL, 0, head, Cycle::ZERO);
            let decoded = |r: &Router| match r.inputs[0].state {
                VcState::Select { entry } => Some(entry),
                _ => None,
            };
            if !lookahead {
                assert_eq!(decoded(&r), None, "PROUD decodes in TL, not SY");
                r.step_into(Cycle::new(1), &mut StepOutputs::default());
            }
            assert_eq!(decoded(&r), Some(own), "lookahead {lookahead}");
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_node_rejected() {
        let mesh = Mesh::mesh_2d(2, 2);
        let program = Arc::new(FullTable::program(&mesh, &Algorithm::Duato));
        let _ = Router::new(
            NodeId(99),
            mesh.ports_per_router(),
            RouterConfig::paper_adaptive(),
            program,
            SimRng::from_seed(1),
        );
    }

    #[test]
    fn credits_are_emitted_when_buffer_slots_free() {
        let mut r = line_router(RouterConfig::paper_adaptive());
        let flits = message(3, 2);
        for f in &flits {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
        }
        let mut out = StepOutputs::default();
        let mut credited = 0;
        for t in 1..=8 {
            r.step_into(Cycle::new(t), &mut out);
            credited += out.credits.len();
        }
        assert_eq!(credited, 2, "each buffered flit frees one slot");
    }

    #[test]
    fn queued_message_pays_tl_in_proud_but_not_la() {
        // Two messages back-to-back on one input VC; measure the gap
        // between the first tail's launch and the second header's launch.
        let gap_for = |cfg: RouterConfig| {
            let mut r = line_router(cfg);
            let m1 = message(3, 2);
            let m2 = Flit::message(MsgRef(2), NodeId(3), 2);
            for f in m1.iter().chain(&m2) {
                r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
            }
            let launches = run(&mut r, 1, 24);
            assert_eq!(launches.len(), 4);
            launches[2].0 - launches[1].0
        };
        let proud = gap_for(RouterConfig::paper_adaptive());
        let la = gap_for(RouterConfig::paper_adaptive().with_lookahead(true));
        assert_eq!(
            proud,
            la + 1,
            "LA-PROUD must save exactly the table-lookup cycle"
        );
    }

    #[test]
    #[should_panic(expected = "flow control violated")]
    fn buffer_overflow_is_detected() {
        let cfg = RouterConfig {
            input_buffer_flits: 2,
            ..RouterConfig::paper_adaptive()
        };
        let mut r = line_router(cfg);
        let flits = message(3, 3);
        for f in &flits {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
        }
    }

    #[test]
    fn multi_candidate_selection_is_counted() {
        // 2-D mesh, quadrant destination: two candidates available.
        let mesh = Mesh::mesh_2d(4, 4);
        let program: Arc<dyn TableScheme> = Arc::new(FullTable::program(&mesh, &Algorithm::Duato));
        let node = mesh.id_at(&[1, 1]).unwrap();
        let mut r = Router::new(
            node,
            mesh.ports_per_router(),
            RouterConfig::paper_adaptive().with_path_selection(PathSelection::Lru),
            program,
            SimRng::from_seed(3),
        );
        for p in 0..r.ports() {
            for v in 0..4 {
                r.set_credits(Port::from_index(p), v, 20);
            }
        }
        let dest = mesh.id_at(&[3, 3]).unwrap();
        let flits = Flit::message(MsgRef(9), dest, 1);
        r.accept_flit(Port::LOCAL, 0, flits[0], Cycle::ZERO);
        let launches = run(&mut r, 1, 6);
        assert_eq!(launches.len(), 1);
        assert_eq!(r.stats().multi_candidate_decisions, 1);
        assert!(!launches[0].1.port.is_local());
    }

    #[test]
    fn flit_kinds_traverse_intact() {
        let mut r = line_router(RouterConfig::paper_adaptive());
        let flits = message(3, 3);
        for f in &flits {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
        }
        let launches = run(&mut r, 1, 10);
        let kinds: Vec<FlitKind> = launches.iter().map(|(_, l)| l.flit.kind).collect();
        assert_eq!(kinds, vec![FlitKind::Head, FlitKind::Body, FlitKind::Tail]);
    }

    #[test]
    fn slow_table_ram_stretches_the_proud_pipeline() {
        // A 2-cycle lookup adds exactly one cycle to the header path.
        let mut r = line_router(RouterConfig::paper_adaptive().with_table_lookup_cycles(2));
        let flits = message(3, 1);
        r.accept_flit(Port::LOCAL, 0, flits[0], Cycle::ZERO);
        let launches = run(&mut r, 1, 10);
        assert_eq!(launches.len(), 1);
        // Baseline PROUD launches at 4; with k=2 at 5.
        assert_eq!(launches[0].0, 5);
    }

    #[test]
    fn slow_table_ram_also_delays_lookahead_headers() {
        // In LA-PROUD the concurrent next-hop lookup gates departure once
        // it exceeds the arbitration cycle: k=2 adds one cycle over the
        // baseline launch at 3.
        let mut r = line_router(
            RouterConfig::paper_adaptive()
                .with_lookahead(true)
                .with_table_lookup_cycles(2),
        );
        let flits = message(3, 1);
        r.accept_flit(Port::LOCAL, 0, flits[0], Cycle::ZERO);
        let launches = run(&mut r, 1, 10);
        assert_eq!(launches.len(), 1);
        assert_eq!(launches[0].0, 4);
    }

    /// FNV-1a over the little-endian bytes of `w`.
    fn fnv(h: &mut u64, w: u64) {
        for b in w.to_le_bytes() {
            *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds four messages over three local VCs and hashes every cycle's
    /// launches (port, VC, every flit field and the flit's launch index
    /// within its message, plus the next hop's entry for an LA-PROUD head
    /// leaving through +d0 — the entry that hop's router decodes) and
    /// credits, then the final statistics.
    /// `starved` gives each +d0 output VC one credit and returns the
    /// credits of each launch in bursts every fourth cycle, so staged
    /// flits of several VCs contend for the VC multiplexor.
    fn launch_credit_hash(la: bool, starved: bool) -> u64 {
        let program = FullTable::program(&Mesh::mesh(&[4]), &Algorithm::Duato);
        let mut r = line_router(RouterConfig::paper_adaptive().with_lookahead(la));
        let px = Port::from(Direction::plus(0));
        if starved {
            for v in 0..4 {
                r.set_credits(px, v, 1);
            }
        }
        for (m, vc, len) in [(1u32, 0usize, 4u32), (2, 1, 1), (3, 2, 6), (4, 0, 2)] {
            let flits = Flit::message(MsgRef(m), NodeId(3), len);
            for (i, f) in flits.iter().enumerate() {
                r.accept_flit(Port::LOCAL, vc, *f, Cycle::new(i as u64));
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325;
        let mut out = StepOutputs::default();
        let mut returns = VecDeque::new();
        // Flits launched so far per message handle, i.e. the launching
        // flit's index within its message. The handle is hashed twice, and
        // an LA-PROUD head's next-hop entry once: the pinned constants date
        // from flits that also carried a message number, which this feed
        // set equal to the handle, and the entry itself.
        let mut launched = [0u32; 5];
        for t in 1..=80u64 {
            while let Some(&(due, vc)) = returns.front() {
                if due > t {
                    break;
                }
                r.accept_credit(px, vc);
                returns.pop_front();
            }
            r.step_into(Cycle::new(t), &mut out);
            for l in &out.launches {
                if starved && l.port == px {
                    returns.push_back(((t / 4 + 1) * 4, l.vc));
                }
                let f = l.flit;
                let seq = launched[f.rec.0 as usize];
                launched[f.rec.0 as usize] += 1;
                for w in [
                    t,
                    l.port.index() as u64,
                    l.vc as u64,
                    f.rec.0 as u64,
                    f.rec.0 as u64,
                ] {
                    fnv(&mut h, w);
                }
                for w in [
                    f.dest.0 as u64,
                    seq as u64,
                    f.kind.is_head() as u64,
                    f.kind.is_tail() as u64,
                ] {
                    fnv(&mut h, w);
                }
                let next_hop = (la && f.kind.is_head() && l.port == px)
                    .then(|| program.entry(NodeId(2), f.dest));
                match next_hop {
                    None => fnv(&mut h, 0),
                    Some(e) => {
                        fnv(&mut h, 1);
                        fnv(&mut h, e.candidates.bits() as u64);
                        fnv(&mut h, e.escape.map_or(u64::MAX, |p| p.index() as u64));
                        fnv(&mut h, e.escape_subclass as u64);
                    }
                }
            }
            for &(port, vc) in &out.credits {
                for w in [t, u64::MAX, port.index() as u64, vc as u64] {
                    fnv(&mut h, w);
                }
            }
        }
        assert!(r.is_empty(), "all traffic must drain");
        let s = r.stats();
        assert!(s.flits_switched > 0, "trace must not be vacuous");
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
        h
    }

    #[test]
    fn launch_and_credit_sequence_is_pinned() {
        // Pinned per cycle, not just in aggregate: any change to a stage's
        // timing or an arbitration decision moves a hash.
        assert_eq!(
            launch_credit_hash(false, false),
            0xab24_ddd6_d95c_8a02,
            "PROUD"
        );
        assert_eq!(
            launch_credit_hash(true, false),
            0x788b_79cf_d119_9b9c,
            "LA-PROUD"
        );
        assert_eq!(
            launch_credit_hash(false, true),
            0xbb17_d4fa_9784_1604,
            "PROUD, starved"
        );
        assert_eq!(
            launch_credit_hash(true, true),
            0x5fe4_e1d2_fdad_2f08,
            "LA, starved"
        );
    }

    #[test]
    fn head_records_follow_their_messages() {
        // Single-flit and mixed-length messages arrive over the zero-copy
        // wire on two VCs of the -d0 port, reservations interleaved with
        // commits and pops, so a ring holds several heads at once. Every
        // launched flit — toward +d0 or into the ejection port — must be
        // the fed one, in order.
        let minus = Port::from(Direction::minus(0));
        // (record, input VC, destination, length); node 1 ejects.
        let msgs = [
            (1u32, 0usize, 3u32, 1u32),
            (2, 0, 1, 1),
            (3, 0, 3, 3),
            (4, 0, 1, 2),
            (5, 1, 2, 1),
            (6, 1, 1, 4),
            (7, 0, 3, 1),
            (8, 1, 3, 2),
            (9, 0, 1, 1),
            (10, 1, 1, 1),
        ];
        for lookahead in [false, true] {
            let mut r = line_router(RouterConfig::paper_adaptive().with_lookahead(lookahead));
            let mut feed = [VecDeque::new(), VecDeque::new()];
            let mut expected = vec![Vec::new(); msgs.len() + 1];
            for &(m, vc, dest, len) in &msgs {
                let flits = Flit::message(MsgRef(m), NodeId(dest), len);
                expected[m as usize].extend_from_slice(&flits);
                feed[vc].extend(flits);
            }
            let mut pending = [0; 2];
            let mut launched = vec![Vec::new(); msgs.len() + 1];
            let mut most_heads = 0;
            let mut out = StepOutputs::default();
            for t in 0..120u64 {
                for vc in 0..2 {
                    if t % 3 != 2 {
                        if let Some(f) = feed[vc].pop_front() {
                            r.reserve_flit(minus, vc, f);
                            pending[vc] += 1;
                        }
                    }
                    if t % 2 == 0 && pending[vc] > 0 {
                        r.commit_flit(minus, vc, Cycle::new(t));
                        pending[vc] -= 1;
                    }
                }
                most_heads = most_heads.max(r.head_records());
                r.step_into(Cycle::new(t), &mut out);
                for l in &out.launches {
                    launched[l.flit.rec.0 as usize].push(l.flit);
                    if !l.port.is_local() {
                        r.accept_credit(l.port, l.vc);
                    }
                }
            }
            assert_eq!(launched, expected, "lookahead {lookahead}");
            assert!(most_heads >= 4, "only {most_heads} heads queued at once");
            assert!(r.is_empty());
            assert_eq!(r.head_records(), 0, "a head record was left behind");
        }
    }

    /// Bytes `r` owns: the struct itself plus its kind rings and head
    /// records (the table program is shared by every router and not
    /// counted). Independent of the host's speed, so CI can pin it.
    fn footprint_bytes(r: &Router) -> usize {
        use std::mem::size_of;
        let queued: usize = r.in_recs.iter().map(|q| q.queued.capacity()).sum();
        size_of::<Router>()
            + r.inputs.len() * size_of::<InputVc>()
            + r.outputs.len() * size_of::<OutputVc>()
            + (r.in_kind.len() + r.out_kind.len()) * size_of::<FlitKind>()
            + r.in_recs.len() * size_of::<InputRecs>()
            + queued * size_of::<HeadRec>()
            + r.eject_rec.len() * size_of::<MsgRef>()
    }

    /// The paper router at the centre of a 4×4 mesh: 5 ports × 4 VCs.
    fn paper_router(cfg: RouterConfig) -> Router {
        let mesh = Mesh::mesh_2d(4, 4);
        let program: Arc<dyn TableScheme> = Arc::new(FullTable::program(&mesh, &Algorithm::Duato));
        let node = NodeId(5);
        Router::new(
            node,
            mesh.ports_per_router(),
            cfg,
            program,
            SimRng::from_seed(1),
        )
    }

    /// Bytes of a fresh paper router on a 64-bit host: the 576-byte
    /// struct, 20 × 24 input and 20 × 12 output VC headers (one per live
    /// `(port, VC)`, not [`MAX_VC_SLOTS`]), 800 + 400 kind bytes, 20 × 40
    /// bytes of head records (an empty queue and the 8-byte streaming
    /// record) and 4 × 4 bytes of ejection records.
    const FOOTPRINT: usize = 3312;

    #[test]
    fn router_footprint_is_pinned() {
        // A flit is its handle, destination and kind; a head record is the
        // handle and destination (no carried look-ahead entry).
        assert_eq!(std::mem::size_of::<Flit>(), 12);
        assert_eq!(std::mem::size_of::<HeadRec>(), 8);
        // A body or tail slot is one kind byte: routing state lives once
        // per message, with its head. Deeper input buffers grow the router
        // by the added kind bytes only (5 ports × 4 VCs × 10 slots), in
        // PROUD and LA-PROUD alike.
        let paper = RouterConfig::paper_adaptive();
        let deeper = RouterConfig {
            input_buffer_flits: 30,
            ..paper.clone()
        };
        for lookahead in [false, true] {
            let base = footprint_bytes(&paper_router(paper.clone().with_lookahead(lookahead)));
            let grown = footprint_bytes(&paper_router(deeper.clone().with_lookahead(lookahead)));
            assert_eq!(grown - base, 5 * 4 * 10, "lookahead {lookahead}");
            assert_eq!(base, FOOTPRINT, "lookahead {lookahead}");
        }
        // A queued 20-flit message costs one head record — at most the
        // queue's first allocation of four — not 20 slots of state.
        let mut r = paper_router(paper);
        for f in Flit::message(MsgRef(1), NodeId(6), 20) {
            r.accept_flit(Port::LOCAL, 0, f, Cycle::ZERO);
        }
        assert_eq!(r.head_records(), 1);
        assert!(footprint_bytes(&r) - FOOTPRINT <= 4 * std::mem::size_of::<HeadRec>());
    }
}
