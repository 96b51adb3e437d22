//! Link and credit-return transport with fixed delays.

use lapses_core::{Flit, FlitKind, MsgRef};
use lapses_sim::Cycle;
use lapses_topology::{NodeId, Port};

/// A `(node, port, vc)` address packed into one u32 — the payload of the
/// credit and arrival-event rings, which carry a couple of hundred
/// records per cycle: `node` in the low 22 bits (meshes up to 4M nodes),
/// `port` in 4 bits, `vc` in 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WireAddr(u32);

impl WireAddr {
    #[inline]
    pub fn new(node: NodeId, port: Port, vc: u8) -> WireAddr {
        debug_assert!(node.0 < 1 << 22 && port.index() < 16 && vc < 64);
        WireAddr(node.0 | (port.index() as u32) << 22 | (vc as u32) << 26)
    }

    #[inline]
    pub fn node(self) -> usize {
        (self.0 & ((1 << 22) - 1)) as usize
    }

    #[inline]
    pub fn port(self) -> Port {
        Port::from_index((self.0 >> 22 & 0xF) as usize)
    }

    #[inline]
    pub fn vc(self) -> usize {
        (self.0 >> 26) as usize
    }
}

/// A credit in flight back toward an upstream router output (or the NIC's
/// injection credit pool when the port is the local port).
pub(crate) type CreditDelivery = WireAddr;

/// An ejection in flight toward a NIC sink. The latency statistics only
/// need the message-record handle and the flit's position, so an
/// ejection ships 8 bytes instead of the whole flit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EjectRecord {
    pub rec: MsgRef,
    pub kind: FlitKind,
}

/// An arrival notification for a flit already filed into the destination
/// router's input ring at reservation time (`Router::reserve_flit`: the
/// kind byte in its slot and, for a head, the message's record in the
/// VC's queue): the wire carries a 4-byte address per flit, never the
/// flit itself.
pub(crate) type ArrivalEvent = WireAddr;

/// The traffic one shard of the network launches toward another during
/// one cycle (see the `network` module docs): payloads reserved in the
/// other shard's input rings, arrival events and credits. The receiving
/// shard applies it at the start of its next cycle, scheduling the events
/// and credits as if they had been sent during `launched`.
#[derive(Debug)]
pub(crate) struct Outbox {
    /// `StepSink::transfer` payloads, addressed to an input `(node, port,
    /// vc)` of the receiving shard, in reservation order.
    pub reserves: Vec<(WireAddr, Flit)>,
    pub events: Vec<ArrivalEvent>,
    pub credits: Vec<CreditDelivery>,
    /// The cycle this traffic was launched in.
    pub launched: Cycle,
}

impl Outbox {
    /// An empty outbox with room for `n` records of each kind, so the
    /// thread filling it never allocates.
    pub fn with_capacity(n: usize) -> Outbox {
        Outbox {
            reserves: Vec::with_capacity(n),
            events: Vec::with_capacity(n),
            credits: Vec::with_capacity(n),
            launched: Cycle::ZERO,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.reserves.is_empty() && self.events.is_empty() && self.credits.is_empty()
    }

    /// Empties the outbox, keeping its capacity.
    pub fn clear(&mut self) {
        self.reserves.clear();
        self.events.clear();
        self.credits.clear();
    }
}

/// Fixed-latency pipelines for flits and credits.
///
/// Implemented as per-cycle buckets in a ring: scheduling is O(1) and each
/// cycle's arrivals pop out in FIFO (launch) order, which keeps simulation
/// results independent of router iteration order. Buckets are plain `Vec`s
/// so the network layer can index a cycle's arrivals when it batches them
/// by destination router.
#[derive(Debug)]
pub(crate) struct DeliveryQueues {
    flit_delay: u64,
    credit_delay: u64,
    /// `events[t % ring]` holds the arrival events due at cycle `t`; the
    /// slot for the current cycle is tracked incrementally
    /// (`flit_now`/`flit_slot`) so the hot path never computes a modulo.
    events: Vec<Vec<ArrivalEvent>>,
    /// Ejections bound for the NIC sinks; shares the event ring's delay
    /// and cursor.
    ejects: Vec<Vec<EjectRecord>>,
    credits: Vec<Vec<CreditDelivery>>,
    in_flight_flits: usize,
    /// Cycle `flit_slot` corresponds to. Accesses must be monotone in time.
    flit_now: u64,
    flit_slot: usize,
    credit_now: u64,
    credit_slot: usize,
}

impl DeliveryQueues {
    /// Creates queues with the given one-way delays in cycles (the paper's
    /// link delay is 1; credits also take one cycle back), every bucket
    /// pre-sized for `per_cycle` records.
    ///
    /// # Panics
    ///
    /// Panics if either delay is zero (same-cycle delivery would break the
    /// stage ordering).
    pub fn new(flit_delay: u64, credit_delay: u64, per_cycle: usize) -> DeliveryQueues {
        assert!(flit_delay >= 1, "links need at least one cycle of delay");
        assert!(
            credit_delay >= 1,
            "credits need at least one cycle of delay"
        );
        fn buckets<T>(delay: u64, per_cycle: usize) -> Vec<Vec<T>> {
            (0..=delay).map(|_| Vec::with_capacity(per_cycle)).collect()
        }
        DeliveryQueues {
            flit_delay,
            credit_delay,
            events: buckets(flit_delay, per_cycle),
            ejects: buckets(flit_delay, per_cycle),
            credits: buckets(credit_delay, per_cycle),
            in_flight_flits: 0,
            flit_now: 0,
            flit_slot: 0,
            credit_now: 0,
            credit_slot: 0,
        }
    }

    /// Advances the event ring's "current slot" cursor to `now`. The cycle
    /// loop moves one cycle at a time, so this is one wrapping increment.
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the cursor, in release builds too: an
    /// event stamped earlier would silently land `flit_now - now` buckets
    /// late.
    #[inline]
    fn flit_slot_at(&mut self, now: u64) -> usize {
        assert!(now >= self.flit_now, "delivery time went backwards");
        while self.flit_now < now {
            self.flit_now += 1;
            self.flit_slot += 1;
            if self.flit_slot == self.events.len() {
                self.flit_slot = 0;
            }
        }
        self.flit_slot
    }

    /// Advances the credit ring's cursor to `now`, panicking like
    /// `flit_slot_at` on a credit stamped before it.
    #[inline]
    fn credit_slot_at(&mut self, now: u64) -> usize {
        assert!(now >= self.credit_now, "delivery time went backwards");
        while self.credit_now < now {
            self.credit_now += 1;
            self.credit_slot += 1;
            if self.credit_slot == self.credits.len() {
                self.credit_slot = 0;
            }
        }
        self.credit_slot
    }

    /// Schedules an arrival event for a payload-reserved flit launched
    /// during `now`; it pops out `flit_delay` cycles later.
    pub fn send_event(&mut self, now: Cycle, event: ArrivalEvent) {
        let mut slot = self.flit_slot_at(now.as_u64()) + self.flit_delay as usize;
        if slot >= self.events.len() {
            slot -= self.events.len();
        }
        self.events[slot].push(event);
        self.in_flight_flits += 1;
    }

    /// Swaps the bucket of arrival events due at `now` with `buf` (which
    /// must be empty): the caller gets the arrivals without copying them,
    /// and the bucket inherits `buf`'s capacity for reuse.
    pub fn swap_events(&mut self, now: Cycle, buf: &mut Vec<ArrivalEvent>) {
        debug_assert!(buf.is_empty(), "swap target must be empty");
        let slot = self.flit_slot_at(now.as_u64());
        std::mem::swap(&mut self.events[slot], buf);
        self.in_flight_flits -= buf.len();
    }

    /// Schedules an ejection launched during `now`; it reaches the NIC
    /// sink `flit_delay` cycles later, like a link arrival.
    pub fn send_eject(&mut self, now: Cycle, record: EjectRecord) {
        let mut slot = self.flit_slot_at(now.as_u64()) + self.flit_delay as usize;
        if slot >= self.ejects.len() {
            slot -= self.ejects.len();
        }
        self.ejects[slot].push(record);
        self.in_flight_flits += 1;
    }

    /// Swaps the bucket of ejections due at `now` with `buf` (must be
    /// empty), mirroring [`DeliveryQueues::swap_events`].
    pub fn swap_ejects(&mut self, now: Cycle, buf: &mut Vec<EjectRecord>) {
        debug_assert!(buf.is_empty(), "swap target must be empty");
        let slot = self.flit_slot_at(now.as_u64());
        std::mem::swap(&mut self.ejects[slot], buf);
        self.in_flight_flits -= buf.len();
    }

    /// Schedules a credit emitted during `now`.
    pub fn send_credit(&mut self, now: Cycle, delivery: CreditDelivery) {
        let mut slot = self.credit_slot_at(now.as_u64()) + self.credit_delay as usize;
        if slot >= self.credits.len() {
            slot -= self.credits.len();
        }
        self.credits[slot].push(delivery);
    }

    /// Removes and returns the credits arriving at `now`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn take_credits(&mut self, now: Cycle) -> Vec<CreditDelivery> {
        let slot = self.credit_slot_at(now.as_u64());
        std::mem::take(&mut self.credits[slot])
    }

    /// Swaps the bucket of credits arriving at `now` with `buf` (must be
    /// empty), mirroring [`DeliveryQueues::swap_events`].
    pub fn swap_credits(&mut self, now: Cycle, buf: &mut Vec<CreditDelivery>) {
        debug_assert!(buf.is_empty(), "swap target must be empty");
        let slot = self.credit_slot_at(now.as_u64());
        std::mem::swap(&mut self.credits[slot], buf);
    }

    /// Flits currently on the wire.
    pub fn in_flight(&self) -> usize {
        self.in_flight_flits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(vc: u8) -> ArrivalEvent {
        ArrivalEvent::new(NodeId(2), Port::from_index(1), vc)
    }

    fn arrivals(q: &mut DeliveryQueues, now: u64) -> Vec<ArrivalEvent> {
        let mut buf = Vec::new();
        q.swap_events(Cycle::new(now), &mut buf);
        buf
    }

    #[test]
    fn flits_arrive_after_the_link_delay() {
        let mut q = DeliveryQueues::new(1, 1, 0);
        q.send_event(Cycle::new(5), event(0));
        q.send_eject(
            Cycle::new(5),
            EjectRecord {
                rec: MsgRef(7),
                kind: FlitKind::Tail,
            },
        );
        assert_eq!(q.in_flight(), 2);
        assert!(arrivals(&mut q, 5).is_empty());
        let arrived = arrivals(&mut q, 6);
        assert_eq!(arrived, vec![event(0)]);
        assert_eq!(arrived[0].node(), 2);
        let mut ejects = Vec::new();
        q.swap_ejects(Cycle::new(6), &mut ejects);
        assert_eq!(ejects.len(), 1);
        assert_eq!(ejects[0].rec, MsgRef(7));
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn longer_delays_are_honored() {
        let mut q = DeliveryQueues::new(3, 2, 0);
        q.send_event(Cycle::new(10), event(1));
        q.send_credit(
            Cycle::new(10),
            CreditDelivery::new(NodeId(0), Port::LOCAL, 1),
        );
        assert!(arrivals(&mut q, 12).is_empty());
        assert_eq!(arrivals(&mut q, 13).len(), 1);
        assert!(q.take_credits(Cycle::new(11)).is_empty());
        assert_eq!(q.take_credits(Cycle::new(12)).len(), 1);
    }

    #[test]
    fn same_cycle_deliveries_keep_fifo_order() {
        let mut q = DeliveryQueues::new(1, 1, 0);
        for vc in 0..3 {
            q.send_event(Cycle::new(0), event(vc));
        }
        let vcs: Vec<usize> = arrivals(&mut q, 1).iter().map(|e| e.vc()).collect();
        assert_eq!(vcs, vec![0, 1, 2]);
    }

    #[test]
    fn swap_reuses_the_buffer_capacity() {
        let mut q = DeliveryQueues::new(1, 1, 0);
        for vc in 0..4 {
            q.send_event(Cycle::new(0), event(vc));
        }
        let mut buf = Vec::new();
        q.swap_events(Cycle::new(1), &mut buf);
        assert_eq!(buf.len(), 4);
        assert_eq!(q.in_flight(), 0);
        buf.clear();
        // The bucket inherited the capacity; the next cycle swap returns
        // an empty buffer without touching the allocator.
        q.swap_events(Cycle::new(2), &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    #[should_panic(expected = "delivery time went backwards")]
    fn event_stamped_before_the_cursor_panics() {
        let mut q = DeliveryQueues::new(2, 1, 0);
        let _ = arrivals(&mut q, 7);
        q.send_event(Cycle::new(6), event(0));
    }

    #[test]
    #[should_panic(expected = "delivery time went backwards")]
    fn credit_stamped_before_the_cursor_panics() {
        let mut q = DeliveryQueues::new(1, 1, 0);
        let _ = q.take_credits(Cycle::new(4));
        q.send_credit(
            Cycle::new(3),
            CreditDelivery::new(NodeId(0), Port::LOCAL, 0),
        );
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_delay_rejected() {
        let _ = DeliveryQueues::new(0, 1, 0);
    }
}
