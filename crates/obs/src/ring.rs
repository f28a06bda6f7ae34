//! A bounded ring of structured events.

use std::collections::VecDeque;
use std::sync::Mutex;

use serde::Serialize;

/// One structured event: a monotonically-increasing sequence number, the
/// event kind, and a human-readable detail payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct EventRecord {
    /// Order of occurrence across the whole ring's lifetime (does not
    /// reset when old events are evicted).
    pub seq: u64,
    /// Event kind, dotted like metric names (e.g. `broker.breaker.opened`).
    pub name: String,
    /// Free-form detail.
    pub detail: String,
}

/// A fixed-capacity, thread-safe ring buffer of [`EventRecord`]s: pushing
/// beyond capacity evicts the oldest entry, so memory stays bounded no
/// matter how long the broker runs.
#[derive(Debug)]
pub struct EventRing {
    inner: Mutex<RingState>,
    capacity: usize,
}

#[derive(Debug)]
struct RingState {
    events: VecDeque<EventRecord>,
    next_seq: u64,
    evicted: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        EventRing {
            inner: Mutex::new(RingState {
                events: VecDeque::new(),
                next_seq: 0,
                evicted: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&self, name: &str, detail: &str) {
        let mut state = self.inner.lock().expect("lock poisoned");
        if state.events.len() == self.capacity {
            state.events.pop_front();
            state.evicted += 1;
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.events.push_back(EventRecord {
            seq,
            name: name.to_owned(),
            detail: detail.to_owned(),
        });
    }

    /// The retained events, oldest first (the ring itself is untouched).
    #[must_use]
    pub fn drain_copy(&self) -> Vec<EventRecord> {
        self.inner
            .lock()
            .expect("lock poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Events evicted so far because the ring was full.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.inner.lock().expect("lock poisoned").evicted
    }

    /// Maximum events retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_newest_when_full() {
        let ring = EventRing::new(3);
        for i in 0..5 {
            ring.push("e", &format!("d{i}"));
        }
        let events = ring.drain_copy();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].detail, "d2");
        assert_eq!(events[2].detail, "d4");
        // Sequence numbers keep counting across evictions.
        assert_eq!(events[2].seq, 4);
        assert_eq!(ring.evicted(), 2);
    }

    #[test]
    fn zero_capacity_clamped_to_one() {
        let ring = EventRing::new(0);
        ring.push("a", "1");
        ring.push("b", "2");
        let events = ring.drain_copy();
        assert_eq!(ring.capacity(), 1);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "b");
    }

    #[test]
    fn drain_copy_does_not_consume() {
        let ring = EventRing::new(4);
        ring.push("a", "1");
        assert_eq!(ring.drain_copy().len(), 1);
        assert_eq!(ring.drain_copy().len(), 1);
    }
}
