//! Per-message bookkeeping records behind the lean flit hot path.
//!
//! Flits are `Copy` PODs carrying only what the router datapath reads;
//! everything the statistics pipeline needs — generation and injection
//! timestamps and the measurement flag — lives in one
//! [`MessageRecord`] per message, allocated at offer time and retired when
//! the message's tail ejects. Records live in a slab with a free list, so
//! a long simulation recycles a bounded pool instead of growing without
//! limit, and a [`MsgRef`] is a plain index — record access from the
//! ejection path is one array load, never a hash lookup.

use lapses_core::MsgRef;
use lapses_sim::Cycle;

/// Everything the latency statistics need about one message that the
/// flits themselves do not carry. Its route and length travel in the
/// NIC's `Message`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MessageRecord {
    /// Whether the message falls in the measurement window.
    pub measured: bool,
    /// Cycle the message was generated at the source (source queueing
    /// time counts from here).
    pub created_at: Cycle,
    /// Cycle the head flit entered the source router (network latency
    /// starts here); stamped by the network when the NIC injects the head.
    pub injected_at: Cycle,
}

/// Slab of live [`MessageRecord`]s with free-list reuse.
#[derive(Debug, Default)]
pub(crate) struct MessageStore {
    records: Vec<MessageRecord>,
    free: Vec<u32>,
    live: usize,
}

impl MessageStore {
    pub fn new() -> MessageStore {
        MessageStore::default()
    }

    /// Allocates a slot for `record`, reusing a retired slot when one is
    /// available.
    pub fn alloc(&mut self, record: MessageRecord) -> MsgRef {
        self.live += 1;
        match self.free.pop() {
            Some(slot) => {
                self.records[slot as usize] = record;
                MsgRef(slot)
            }
            None => {
                let slot = u32::try_from(self.records.len())
                    .expect("more than u32::MAX messages in flight");
                self.records.push(record);
                MsgRef(slot)
            }
        }
    }

    /// The record behind `rec`.
    ///
    /// # Panics
    ///
    /// Panics if `rec` was never allocated (retired slots return the stale
    /// record — callers must not hold a `MsgRef` past retirement).
    #[inline]
    pub fn get(&self, rec: MsgRef) -> &MessageRecord {
        &self.records[rec.0 as usize]
    }

    /// Mutable access to the record behind `rec`.
    #[inline]
    pub fn get_mut(&mut self, rec: MsgRef) -> &mut MessageRecord {
        &mut self.records[rec.0 as usize]
    }

    /// Returns a retired slot to the free list (called when the message's
    /// tail ejects). The handle must not be used afterwards.
    pub fn retire(&mut self, rec: MsgRef) {
        debug_assert!(self.live > 0, "retire without a live record");
        self.live -= 1;
        self.free.push(rec.0);
    }

    /// Messages currently holding a record.
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of simultaneously live messages (slab capacity).
    #[cfg(test)]
    pub fn slots(&self) -> usize {
        self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(created_at: u64) -> MessageRecord {
        MessageRecord {
            measured: true,
            created_at: Cycle::new(created_at),
            injected_at: Cycle::new(created_at),
        }
    }

    #[test]
    fn message_records_are_24_bytes() {
        assert_eq!(std::mem::size_of::<MessageRecord>(), 24);
    }

    #[test]
    fn alloc_get_retire_roundtrip() {
        let mut store = MessageStore::new();
        let a = store.alloc(record(1));
        let b = store.alloc(record(2));
        assert_ne!(a, b);
        assert_eq!(store.get(a).created_at, Cycle::new(1));
        assert_eq!(store.get(b).created_at, Cycle::new(2));
        assert_eq!(store.live(), 2);
        store.retire(a);
        assert_eq!(store.live(), 1);
    }

    #[test]
    fn retired_slots_are_reused() {
        let mut store = MessageStore::new();
        let a = store.alloc(record(1));
        let _b = store.alloc(record(2));
        store.retire(a);
        let c = store.alloc(record(3));
        assert_eq!(c, a, "free list must hand back the retired slot");
        assert_eq!(store.get(c).created_at, Cycle::new(3));
        assert_eq!(store.slots(), 2, "slab must not grow while slots free");
    }

    #[test]
    fn injected_at_is_updatable() {
        let mut store = MessageStore::new();
        let a = store.alloc(record(10));
        store.get_mut(a).injected_at = Cycle::new(42);
        assert_eq!(store.get(a).injected_at, Cycle::new(42));
        assert_eq!(store.get(a).created_at, Cycle::new(10));
    }
}
