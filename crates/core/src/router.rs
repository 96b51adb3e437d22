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
//!   buffer ([`Router::accept_flit`]);
//! * **TL** — the head's destination indexes the routing table
//!   ([`crate::tables::RouterTable::entry`]); in LA-PROUD the result was
//!   carried in the header and this stage disappears;
//! * **SA** — path selection among available candidate ports
//!   ([`crate::psh::PathSelector`]) plus output-VC allocation, with the
//!   Duato escape fallback; in LA-PROUD the lookup *for the next router*
//!   runs here concurrently and is written into the outgoing header;
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
//! # The SoA flit arenas and the slot lifecycle
//!
//! All flit storage lives in contiguous **structure-of-arrays arenas**
//! (see [`crate::flit`]). The input rings keep three parallel arrays: a
//! dense one-byte-per-slot array of [`FlitKind`]s — the hot part every
//! stage branches on — an array of 8-byte [`ColdFlit`]s (`rec`, `dest`),
//! and, in LA-PROUD routers only, an array of look-ahead entries that
//! only heads write or read (PROUD allocates it empty). The output
//! staging rings keep kind bytes, plus cold parts for the ejection port.
//! Each (port, VC) owns the fixed arena segment
//! `flat_index * cap .. (flat_index + 1) * cap`, used as a ring whose
//! cursor lives in the VC's `InputVc`/`OutputVc` header; cursors wrap
//! with a compare instead of a modulo so the hot path never divides.
//!
//! A slot's lifecycle per hop: a flit lands in the input ring either via
//! [`Router::accept_flit`] (split and written at the tail on arrival —
//! NIC injection) or over the zero-copy wire, where the upstream crossbar
//! pre-writes the payload into the exact slot it will occupy
//! ([`Router::reserve_flit`]) and the link-delay-later arrival merely
//! flips it visible ([`Router::commit_flit`]) — both are the **SY**
//! stage. The **XB** winner hands its payload to the sink
//! ([`StepSink::transfer`], which reserves it downstream), stages only
//! the kind byte for the VC multiplexor, and frees the input slot
//! (returning a credit upstream); the **VM** grant pops the staging head
//! and announces the launch ([`StepSink::launch_reserved`]). Only the
//! ejection port keeps payloads in the staging ring: its XB winner copies
//! the kind byte and cold part to the staging tail (an ejecting head
//! carries no look-ahead) and its VM grant reassembles the flit for
//! [`StepSink::launch`]. A body or tail flit thus moves 9 bytes per hop.
//! Routing (**TL**/**SA**) reads only the ring head's kind byte plus, for
//! heads, the cold `dest` and the look-ahead entry.
//!
//! # The cycle walk
//!
//! [`Router::step_with`] runs a cycle in reverse pipeline order, so a
//! flit advances at most one stage per cycle: the occupied output ports
//! once (VM), the occupied input ports once (XB proposals, then grants),
//! then **one** combined walk over the occupied, non-streaming input VCs
//! that handles both SA (slots in `Select`) and TL decode / look-ahead
//! promotion (slots in `Idle`). A VC slot is in exactly one routing
//! state, so one walk visits each occupied slot once per cycle; the
//! per-cycle constants (`vcs`, masks, pipeline mode) stay in registers
//! across all of it.

use crate::arbiter::rr_grant_mask;
use crate::config::RouterConfig;
use crate::flit::{ColdFlit, Flit, FlitKind};
use crate::psh::{PathSelector, PortStatus};
use crate::tables::{RouteEntry, RouterTable};
use lapses_sim::{Cycle, SimRng};
use lapses_topology::{NodeId, Port};
use std::collections::VecDeque;

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

/// Per-VC input state. The flit storage itself lives in the router's
/// SoA input arenas; this header only carries the ring cursor and the
/// routing state — 24 packed bytes, so one cache line covers a port.
#[derive(Debug, Clone, Copy)]
struct InputVc {
    state: VcState,
    /// One time gate serving two disjoint states. `Idle`: earliest cycle
    /// the PROUD table-lookup stage may process a queued head (blocks
    /// same-cycle lookup after the previous tail departs). `Select`: the
    /// cycle the in-flight table lookup completes and allocation may
    /// first be attempted.
    ready_at: u64,
    /// Ring cursor into this VC's arena segment.
    head: u16,
    /// Buffered flits.
    len: u16,
    /// Flits whose payload is already written behind `len` by
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

/// Per-VC output state; staged flits live in the SoA output arenas.
#[derive(Debug, Clone, Copy)]
struct OutputVc {
    /// Input VC currently holding this output VC, `(port, vc)`.
    owner: Option<(u8, u8)>,
    /// Free buffer slots at the downstream input VC.
    credits: u32,
    /// Ring cursor into this VC's arena segment.
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

/// Cold-part value used only to initialize arena slots; never observed.
const COLD_FILLER: ColdFlit = ColdFlit {
    rec: crate::flit::MsgRef(u32::MAX),
    dest: NodeId(u32::MAX),
};

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
    /// is exactly the set of slots the SA/TL walk can act on, so fully
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
    /// Cached `cfg.pipeline.is_lookahead()`.
    lookahead: bool,
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
    /// Per-VC input cursors + routing state, inline (no pointer chase);
    /// only the first `ports * vcs` entries are live.
    inputs: [InputVc; MAX_VC_SLOTS],
    /// Per-VC output cursors + credits, inline.
    outputs: [OutputVc; MAX_VC_SLOTS],
    /// Kind bytes of the input-VC flit rings, one contiguous segment per
    /// VC (`vc_index * in_ring ..`).
    in_kind: Box<[FlitKind]>,
    /// Cold parts (`rec`, `dest`) of the input rings.
    in_cold: Box<[ColdFlit]>,
    /// Look-ahead entries of the input rings, written and read at head
    /// slots only; empty in PROUD routers, whose heads carry none.
    in_la: Box<[Option<RouteEntry>]>,
    /// Kind bytes of the output staging rings.
    out_kind: Box<[FlitKind]>,
    /// Cold parts of the ejection port's staging rings — the only
    /// staged payloads (neighbor-bound payloads wait downstream). The
    /// local port is port 0, so its arena slots lead the kind arena's.
    out_cold: Box<[ColdFlit]>,
    selector: PathSelector,
    rng: SimRng,
    stats: RouterStats,
    // -- Cold configuration and identity. --
    node: NodeId,
    cfg: RouterConfig,
    table: RouterTable,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("node", &self.node)
            .field("ports", &self.ports)
            .field("pipeline", &self.cfg.pipeline)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Router {
    /// Creates a router with `ports` ports (local + directions).
    ///
    /// Output-VC credits start at zero; the network layer sets them to the
    /// downstream buffer depths with [`Router::set_credits`] after wiring.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// ([`RouterConfig::validate`]) or `ports` is zero.
    pub fn new(
        node: NodeId,
        ports: usize,
        cfg: RouterConfig,
        table: RouterTable,
        rng: SimRng,
    ) -> Router {
        cfg.validate();
        assert!(ports > 0, "router needs at least one port");
        assert!(ports <= MAX_PORTS, "router exceeds the port budget");
        assert!(
            ports * cfg.vcs_per_port <= MAX_VC_SLOTS,
            "router exceeds the {MAX_VC_SLOTS} (port, VC) occupancy-mask budget"
        );
        assert_eq!(table.node(), node, "table programmed for a different node");
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
        let lookahead = cfg.pipeline.is_lookahead();
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
            lookahead,
            vm_next: [0; MAX_PORTS],
            xb_in_next: [0; MAX_PORTS],
            xb_out_next: [0; MAX_PORTS],
            vc_alloc_next: [0; MAX_PORTS],
            link_flits: [0; MAX_PORTS],
            inputs: [IDLE_INPUT; MAX_VC_SLOTS],
            outputs: [IDLE_OUTPUT; MAX_VC_SLOTS],
            in_kind: vec![FlitKind::Body; in_slots].into_boxed_slice(),
            in_cold: vec![COLD_FILLER; in_slots].into_boxed_slice(),
            in_la: vec![None; if lookahead { in_slots } else { 0 }].into_boxed_slice(),
            out_kind: vec![FlitKind::Body; out_slots].into_boxed_slice(),
            out_cold: vec![COLD_FILLER; vcs * out_cap as usize].into_boxed_slice(),
            selector: PathSelector::new(cfg.path_selection, ports),
            rng,
            stats: RouterStats::default(),
            node,
            cfg,
            table,
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

    // Ring-buffer primitives over the SoA flit arenas. Each VC owns the
    // arena segment `idx * cap .. (idx + 1) * cap`; cursors wrap with a
    // compare instead of a modulo so the hot path never divides.

    #[inline]
    fn ibuf_push(&mut self, idx: usize, flit: Flit) {
        let cap = self.in_ring;
        let vc = &mut self.inputs[idx];
        debug_assert!(vc.len < cap, "input ring overflow");
        let mut slot = vc.head + vc.len;
        if slot >= cap {
            slot -= cap;
        }
        vc.len += 1;
        self.in_write(idx * cap as usize + slot as usize, flit);
    }

    /// Writes `flit` into input arena slot `slot`: the kind byte and cold
    /// part always, the look-ahead entry only for LA-PROUD heads.
    #[inline]
    fn in_write(&mut self, slot: usize, flit: Flit) {
        let (kind, cold, lookahead) = flit.split();
        self.in_kind[slot] = kind;
        self.in_cold[slot] = cold;
        if self.lookahead && kind.is_head() {
            self.in_la[slot] = lookahead;
        }
    }

    /// Reassembles the flit in input arena slot `slot` (inverse of
    /// [`Router::in_write`]; non-heads and PROUD heads carry no
    /// look-ahead).
    #[inline]
    fn in_read(&self, slot: usize) -> Flit {
        let kind = self.in_kind[slot];
        let lookahead = if self.lookahead && kind.is_head() {
            self.in_la[slot]
        } else {
            None
        };
        Flit::assemble(kind, self.in_cold[slot], lookahead)
    }

    /// Arena index of input ring `idx`'s front slot (requires `len > 0`).
    #[inline]
    fn ibuf_front_slot(&self, idx: usize) -> usize {
        debug_assert!(self.inputs[idx].len > 0, "no front flit");
        idx * self.in_ring as usize + self.inputs[idx].head as usize
    }

    /// Advances input ring `in_idx` past its front slot (the flit's
    /// payload has already gone wherever it was needed).
    #[inline]
    fn ibuf_advance(&mut self, in_idx: usize) {
        let cap = self.in_ring;
        let ivc = &mut self.inputs[in_idx];
        debug_assert!(ivc.len > 0, "input ring underflow");
        ivc.head += 1;
        if ivc.head == cap {
            ivc.head = 0;
        }
        ivc.len -= 1;
    }

    /// Pushes a kind byte onto staging ring `out_idx`, returning the
    /// arena slot (so ejection-port callers can fill the cold half).
    #[inline]
    fn obuf_push_kind(&mut self, out_idx: usize, kind: FlitKind) -> usize {
        let ocap = self.out_cap;
        let ovc = &mut self.outputs[out_idx];
        debug_assert!(ovc.len < ocap, "staging ring overflow");
        let mut oslot = ovc.head + ovc.len;
        if oslot >= ocap {
            oslot -= ocap;
        }
        ovc.len += 1;
        let oslot = out_idx * ocap as usize + oslot as usize;
        self.out_kind[oslot] = kind;
        oslot
    }

    /// Pops the front of input ring `in_idx` and pushes it onto staging
    /// ring `out_idx`, copying the kind byte and cold part directly (the
    /// full [`Flit`] is never reassembled mid-router, and an ejecting head
    /// carries no look-ahead). Returns the moved flit's kind. The ejection
    /// port's crossbar move.
    #[inline]
    fn move_in_to_out(&mut self, in_idx: usize, out_idx: usize) -> FlitKind {
        let islot = self.ibuf_front_slot(in_idx);
        let kind = self.in_kind[islot];
        self.ibuf_advance(in_idx);
        let oslot = self.obuf_push_kind(out_idx, kind);
        self.out_cold[oslot] = self.in_cold[islot];
        kind
    }

    /// SY stage: a flit injected by the local network interface lands in
    /// its input VC buffer (link arrivals use [`Router::reserve_flit`] and
    /// [`Router::commit_flit`]).
    ///
    /// In LA-PROUD mode a head flit landing at the front of an idle VC is
    /// decoded immediately: its carried candidate set arms the selection
    /// stage for the *next* cycle, skipping the table-lookup stage.
    ///
    /// # Panics
    ///
    /// Panics if the buffer overflows (a flow-control violation — the
    /// upstream router sent without credit) or, in LA-PROUD mode, if a head
    /// arrives without look-ahead information.
    pub fn accept_flit(&mut self, port: Port, vc: usize, flit: Flit, now: Cycle) {
        let idx = self.in_idx(port, vc);
        assert!(
            self.inputs[idx].len < self.in_cap,
            "input buffer overflow at {} {port} vc{vc}: flow control violated",
            self.node
        );
        self.ibuf_push(idx, flit);
        self.in_occupied |= 1 << idx;
        self.in_ports |= 1 << port.index();
        if self.lookahead {
            self.try_lookahead_promote(idx, now);
        }
    }

    /// Writes a flit's parts into the input ring slot it will occupy on
    /// arrival **without making it visible**: the reservation half of the
    /// zero-copy wire (see the `lapses-network` module docs), performed
    /// when the flit wins the *upstream* crossbar. The slot is
    /// `head + len + pending`, which is stable under everything that can
    /// happen between reservation and arrival — pops advance `head` while
    /// shrinking `len`, earlier commits trade `pending` for `len` — so
    /// the payload lands exactly where [`Router::commit_flit`] will
    /// expose it, and nothing reads past `len` in the meantime. The ring
    /// segment is sized `in_cap + out_cap`, covering every credited
    /// launch plus every upstream-staged flit.
    ///
    /// # Panics
    ///
    /// Panics if the reservation overflows the ring (the upstream staged
    /// or launched more than flow control ever allows).
    pub fn reserve_flit(&mut self, port: Port, vc: usize, flit: Flit) {
        let idx = self.in_idx(port, vc);
        let cap = self.in_ring;
        let ivc = &mut self.inputs[idx];
        assert!(
            ivc.len + ivc.pending < cap,
            "input ring overflow at {} {port} vc{vc}: flow control violated",
            self.node
        );
        let mut slot = ivc.head + ivc.len + ivc.pending;
        if slot >= cap {
            slot -= cap;
        }
        ivc.pending += 1;
        self.in_write(idx * cap as usize + slot as usize, flit);
    }

    /// Makes the oldest reserved flit at `(port, vc)` visible — the wire
    /// delivered it — and runs the same SY-stage bookkeeping as
    /// [`Router::accept_flit`].
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
        if self.lookahead {
            self.try_lookahead_promote(idx, now);
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

            // SA + TL in one walk over the occupied input VCs. A slot is
            // in exactly one routing state — Select slots attempt
            // allocation (SA), Idle slots decode a queued header (TL /
            // look-ahead promote), Active slots cost one branch.
            let lookahead = self.lookahead;
            // Only non-`Active` occupied slots can do SA/TL work; fully
            // streaming routers skip the walk entirely.
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
                    VcState::Idle => {
                        if lookahead {
                            self.try_lookahead_promote(idx, now);
                        } else {
                            self.tl_decode(idx, now);
                        }
                    }
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
        // Pop the staging ring's front: the kind byte always, the cold
        // part only for ejections — a neighbor-bound payload already sits
        // in the downstream input ring.
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
            sink.launch(port, v, Flit::assemble(kind, self.out_cold[slot], None));
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
            let kind = if op != Port::LOCAL.index() {
                // Zero-copy wire: hand the payload to the sink (it goes
                // straight into the downstream input ring) and stage only
                // the kind byte for the VC multiplexor.
                let flit = self.in_read(self.ibuf_front_slot(in_idx));
                let kind = flit.kind;
                sink.transfer(Port::from_index(op), of - op * vcs, flit);
                self.ibuf_advance(in_idx);
                self.obuf_push_kind(of, kind);
                kind
            } else {
                self.move_in_to_out(in_idx, of)
            };
            if self.inputs[in_idx].len == 0 {
                self.in_occupied &= !(1 << in_idx);
                if (self.in_occupied >> (ip * vcs)) & vcmask == 0 {
                    self.in_ports &= !(1 << ip);
                }
            }
            sink.credit(Port::from_index(ip), iv);
            if kind.is_tail() {
                // The freed VC's next header is decoded by this cycle's
                // SA/TL walk (it runs after XB), so its earliest selection
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
    /// selection + output-VC allocation with the Duato escape fallback;
    /// LA-PROUD concurrently performs the next hop's table lookup and
    /// rewrites the header. Returns whether the allocation succeeded.
    fn sa_allocate(&mut self, idx: usize, entry: &RouteEntry) -> bool {
        let vcs = self.vcs as usize;
        let slot = self.ibuf_front_slot(idx);
        debug_assert!(self.in_kind[slot].is_head(), "selection on a non-head flit");
        match self.try_allocate(entry) {
            Some((out_port, out_vc, used_escape)) => {
                let of = out_port.index() * vcs + out_vc;
                self.outputs[of].owner = Some(((idx / vcs) as u8, (idx % vcs) as u8));
                self.owner_free &= !(1 << of);
                if self.lookahead {
                    let dest = self.in_cold[slot].dest;
                    self.in_la[slot] =
                        (!out_port.is_local()).then(|| self.table.lookahead_entry(out_port, dest));
                }
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

    /// PROUD TL for one `Idle` input VC: decode + table lookup when a
    /// queued header has reached the buffer front and the post-tail
    /// blackout (`ready_at`) has passed.
    fn tl_decode(&mut self, idx: usize, now: Cycle) {
        debug_assert_eq!(self.inputs[idx].state, VcState::Idle);
        if now.as_u64() < self.inputs[idx].ready_at || self.inputs[idx].len == 0 {
            return;
        }
        let slot = self.ibuf_front_slot(idx);
        if !self.in_kind[slot].is_head() {
            return;
        }
        let entry = self.table.entry(self.in_cold[slot].dest);
        // The k-cycle lookup starting now completes at now + k; the
        // selection stage may fire from that cycle on (k = 1 recovers
        // the classic one-cycle TL stage).
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

    /// LA-PROUD: if input VC `idx` is idle with a header at the buffer
    /// front, arm the selection stage from the header's carried candidate
    /// information (the look-ahead decode, costing no pipeline stage).
    fn try_lookahead_promote(&mut self, idx: usize, now: Cycle) {
        if self.inputs[idx].state != VcState::Idle || self.inputs[idx].len == 0 {
            return;
        }
        let slot = self.ibuf_front_slot(idx);
        if !self.in_kind[slot].is_head() {
            return;
        }
        let entry = self.in_la[slot].unwrap_or_else(|| {
            panic!(
                "LA-PROUD header {} arrived at {} without look-ahead info",
                self.in_read(slot),
                self.node
            )
        });
        debug_assert_eq!(
            (entry.candidates, entry.escape),
            {
                let direct = self.table.entry(self.in_cold[slot].dest);
                (direct.candidates, direct.escape)
            },
            "carried look-ahead disagrees with a direct lookup at {}",
            self.node
        );
        // The candidates are already decoded; what can stall departure is
        // the *concurrent next-hop lookup*: the outgoing header is complete
        // k cycles after selection starts, so allocation may finish at
        // now + k (k = 1 recovers the zero-overhead look-ahead pipeline).
        let ivc = &mut self.inputs[idx];
        ivc.ready_at = now.as_u64() + self.cfg.table_lookup_cycles as u64;
        ivc.state = VcState::Select { entry };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, MsgRef};
    use crate::psh::PathSelection;
    use crate::tables::{FullTable, TableScheme};
    use lapses_routing::DuatoAdaptive;
    use lapses_topology::{Direction, Mesh};
    use std::sync::Arc;

    /// 1-D four-node mesh: node 1 routes +d0 toward node 3.
    fn line_router(cfg: RouterConfig) -> Router {
        let mesh = Mesh::mesh(&[4]);
        let program: Arc<dyn TableScheme> =
            Arc::new(FullTable::program(&mesh, &DuatoAdaptive::new()));
        let node = NodeId(1);
        let mut r = Router::new(
            node,
            mesh.ports_per_router(),
            cfg,
            RouterTable::new(program, node),
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

    fn with_lookahead(mut flits: Vec<Flit>, router: &Router) -> Vec<Flit> {
        let entry = router.table.entry(flits[0].dest);
        flits[0].lookahead = Some(entry);
        flits
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
        let flits = with_lookahead(message(3, 1), &r);
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
    fn lookahead_header_is_rewritten_per_hop() {
        let mut r = line_router(RouterConfig::paper_adaptive().with_lookahead(true));
        let flits = with_lookahead(message(3, 1), &r);
        r.accept_flit(Port::LOCAL, 0, flits[0], Cycle::ZERO);
        let launches = run(&mut r, 1, 6);
        let out = &launches[0].1.flit;
        // The launched header carries node 2's entry for destination 3.
        let carried = out.lookahead.expect("LA header keeps look-ahead info");
        let mesh = Mesh::mesh(&[4]);
        let program = FullTable::program(&mesh, &DuatoAdaptive::new());
        assert_eq!(carried, program.entry(NodeId(2), NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "without look-ahead info")]
    fn lookahead_header_without_entry_is_rejected() {
        let mut r = line_router(RouterConfig::paper_adaptive().with_lookahead(true));
        r.accept_flit(Port::LOCAL, 0, message(3, 1)[0], Cycle::ZERO);
    }

    #[test]
    fn proud_headers_do_not_carry_lookahead() {
        let mut r = line_router(RouterConfig::paper_adaptive());
        let flits = message(3, 1);
        r.accept_flit(Port::LOCAL, 0, flits[0], Cycle::ZERO);
        let launches = run(&mut r, 1, 6);
        assert!(launches[0].1.flit.lookahead.is_none());
        assert!(r.in_la.is_empty(), "PROUD stores no look-ahead entries");
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
            let lookahead = cfg.pipeline.is_lookahead();
            let mut r = line_router(cfg);
            let m1 = message(3, 2);
            let mut m2 = Flit::message(MsgRef(2), NodeId(3), 2);
            if lookahead {
                m2[0].lookahead = Some(r.table.entry(m2[0].dest));
            }
            let m1 = if lookahead {
                with_lookahead(m1, &r)
            } else {
                m1
            };
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
        let program: Arc<dyn TableScheme> =
            Arc::new(FullTable::program(&mesh, &DuatoAdaptive::new()));
        let node = mesh.id_at(&[1, 1]).unwrap();
        let mut r = Router::new(
            node,
            mesh.ports_per_router(),
            RouterConfig::paper_adaptive().with_path_selection(PathSelection::Lru),
            RouterTable::new(program, node),
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
        let flits = with_lookahead(message(3, 1), &r);
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
    /// within its message) and credits, then the final statistics.
    /// `starved` gives each +d0 output VC one credit and returns the
    /// credits of each launch in bursts every fourth cycle, so staged
    /// flits of several VCs contend for the VC multiplexor.
    fn launch_credit_hash(lookahead: bool, starved: bool) -> u64 {
        let mut r = line_router(RouterConfig::paper_adaptive().with_lookahead(lookahead));
        let px = Port::from(Direction::plus(0));
        if starved {
            for v in 0..4 {
                r.set_credits(px, v, 1);
            }
        }
        for (m, vc, len) in [(1u32, 0usize, 4u32), (2, 1, 1), (3, 2, 6), (4, 0, 2)] {
            let mut flits = Flit::message(MsgRef(m), NodeId(3), len);
            if lookahead {
                flits[0].lookahead = Some(r.table.entry(flits[0].dest));
            }
            for (i, f) in flits.iter().enumerate() {
                r.accept_flit(Port::LOCAL, vc, *f, Cycle::new(i as u64));
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325;
        let mut out = StepOutputs::default();
        let mut returns = VecDeque::new();
        // Flits launched so far per message handle, i.e. the launching
        // flit's index within its message. The handle is hashed twice: the
        // pinned constants date from flits that also carried a message
        // number, which this feed set equal to the handle.
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
                match f.lookahead {
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
    fn soa_arenas_keep_lookahead_rewrites_on_the_cold_side() {
        // SA writes the next hop's entry into the cold half in place; the
        // launched header must carry it even though XB only copies halves.
        let mut r = line_router(RouterConfig::paper_adaptive().with_lookahead(true));
        let flits = with_lookahead(message(3, 2), &r);
        for f in &flits {
            r.accept_flit(Port::LOCAL, 0, *f, Cycle::ZERO);
        }
        let launches = run(&mut r, 1, 8);
        assert_eq!(launches.len(), 2);
        assert!(launches[0].1.flit.lookahead.is_some(), "head keeps entry");
        assert!(launches[1].1.flit.lookahead.is_none(), "tail carries none");
    }
}
