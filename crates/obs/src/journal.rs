//! A bounded ring-buffer journal of noteworthy events.
//!
//! The journal answers "what went wrong recently" without log scraping:
//! job failures, cache corruption, watchdog trips, and pipeline squashes
//! are noted here with a sequence number and wall-clock timestamp, and
//! the last `cap` of them ride along in every registry snapshot.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (counts events since process start,
    /// including ones that have since been evicted from the ring).
    pub seq: u64,
    /// Wall-clock time the event was noted, in milliseconds since the
    /// Unix epoch (0 if the system clock is before the epoch).
    pub unix_ms: u64,
    /// A short machine-matchable kind, e.g. `job_failed`.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<Event>,
    next_seq: u64,
}

/// A bounded ring buffer of [`Event`]s; oldest entries are dropped once
/// the cap is reached.
#[derive(Debug)]
pub struct Journal {
    ring: Mutex<Ring>,
    cap: usize,
    enabled: Arc<AtomicBool>,
}

impl Journal {
    /// A journal keeping at most `cap` events, gated on the registry's
    /// shared recording flag.
    pub(crate) fn new(cap: usize, enabled: Arc<AtomicBool>) -> Journal {
        Journal {
            ring: Mutex::new(Ring::default()),
            cap: cap.max(1),
            enabled,
        }
    }

    /// Appends an event (no-op while recording is off).
    pub fn note(&self, kind: &str, message: &str) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == self.cap {
            ring.events.pop_front();
        }
        ring.events.push_back(Event {
            seq,
            unix_ms,
            kind: kind.to_string(),
            message: message.to_string(),
        });
    }

    /// The retained events, oldest first.
    pub fn recent(&self) -> Vec<Event> {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        ring.events.iter().cloned().collect()
    }

    /// Total events ever noted (retained or evicted).
    pub fn total(&self) -> u64 {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        ring.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal(cap: usize) -> Journal {
        Journal::new(cap, Arc::new(AtomicBool::new(true)))
    }

    #[test]
    fn keeps_the_most_recent_events_up_to_cap() {
        let j = journal(3);
        for i in 0..5 {
            j.note("k", &format!("event {i}"));
        }
        let recent = j.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].seq, 2);
        assert_eq!(recent[2].seq, 4);
        assert_eq!(recent[2].message, "event 4");
        assert_eq!(j.total(), 5);
    }

    #[test]
    fn events_carry_kind_and_timestamp() {
        let j = journal(8);
        j.note("cache_corrupt", "digest 1234 failed checksum");
        let recent = j.recent();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].kind, "cache_corrupt");
        assert!(recent[0].unix_ms > 0);
    }
}
