//! A bandwidth-contended bus for the timing simulator.

use std::collections::VecDeque;

/// How long a booked slot is remembered: a request more than this many
/// slots past the previous prune forgets every slot more than this many
/// slots behind it.
const PRUNE_SLOTS: u64 = 65536;

/// A slot-based bus occupancy model.
///
/// The paper models "a 32 B wide backside bus clocked at processor
/// frequency and a 32 B memory bus clocked at one fourth processor
/// frequency" with realistic bandwidth contention. Time is divided into
/// *beat slots* of `cycles_per_beat` cycles, each able to carry
/// `width_bytes`. A transfer requested at cycle `now` books its beats in
/// the earliest free slots at or after `now` — transfers scheduled for
/// different times interleave correctly instead of serializing in request
/// order.
///
/// Bookings live in a dense window of slot flags starting at a base slot;
/// every slot outside the window is free. The window spans the slots
/// remembered since the last prune — about `2 × 65 536` slots — unless a
/// request lands far below every remembered booking, which grows it down
/// to that request.
///
/// # Example
///
/// ```
/// use preexec_mem::Bus;
///
/// let mut bus = Bus::new(32, 4); // 32B wide, one beat per 4 cycles
/// let done1 = bus.transfer(100, 64); // two beats -> busy 8 cycles
/// assert_eq!(done1, 108);
/// let done2 = bus.transfer(100, 32); // queues behind the first
/// assert_eq!(done2, 112);
/// // A transfer requested much earlier is NOT blocked by those bookings.
/// assert_eq!(bus.transfer(0, 32), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Bus {
    width_bytes: u64,
    cycles_per_beat: u64,
    /// Whether each slot `base..base + booked.len()` is booked.
    booked: VecDeque<bool>,
    base: u64,
    busy_cycles: u64,
    transfers: u64,
    last_prune: u64,
}

impl Bus {
    /// Creates a bus `width_bytes` wide that moves one beat every
    /// `cycles_per_beat` cycles.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(width_bytes: u64, cycles_per_beat: u64) -> Bus {
        assert!(width_bytes > 0 && cycles_per_beat > 0, "zero bus parameter");
        Bus {
            width_bytes,
            cycles_per_beat,
            booked: VecDeque::new(),
            base: 0,
            busy_cycles: 0,
            transfers: 0,
            last_prune: 0,
        }
    }

    /// Schedules a transfer of `bytes` requested at `now`; returns the
    /// cycle at which the transfer completes. Beats are booked in the
    /// earliest free slots at or after `now`.
    pub fn transfer(&mut self, now: u64, bytes: u64) -> u64 {
        let beats = bytes.div_ceil(self.width_bytes).max(1);
        let now_slot = now / self.cycles_per_beat;
        // Periodically drop slots far in the past so memory stays bounded.
        // Pruning before booking forgets the same slots as pruning after:
        // this request books only slots at or after `now_slot`.
        if now_slot > self.last_prune + PRUNE_SLOTS {
            let keep_from = now_slot - PRUNE_SLOTS;
            while self.base < keep_from && self.booked.pop_front().is_some() {
                self.base += 1;
            }
            self.last_prune = now_slot;
        }
        if self.booked.is_empty() {
            self.base = now_slot;
        }
        // A request below the window books free slots the window must
        // grow down to.
        while self.base > now_slot {
            self.booked.push_front(false);
            self.base -= 1;
        }
        let mut slot = (now_slot - self.base) as usize;
        let mut remaining = beats;
        loop {
            if slot >= self.booked.len() {
                self.booked.resize(slot + 1, false);
            }
            if !self.booked[slot] {
                self.booked[slot] = true;
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
            slot += 1;
        }
        self.busy_cycles += beats * self.cycles_per_beat;
        self.transfers += 1;
        (self.base + slot as u64 + 1) * self.cycles_per_beat
    }

    /// Total cycles of occupancy accumulated (for utilization reporting).
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Number of transfers serviced.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_beat_transfer() {
        let mut b = Bus::new(32, 1);
        assert_eq!(b.transfer(10, 32), 11);
        assert_eq!(b.transfer(10, 1), 12); // rounds up to one beat, queues
    }

    #[test]
    fn contention_serializes() {
        let mut b = Bus::new(32, 4);
        assert_eq!(b.transfer(0, 64), 8);
        assert_eq!(b.transfer(0, 64), 16);
        assert_eq!(b.transfer(100, 64), 108); // idle gap, starts fresh
    }

    #[test]
    fn earlier_requests_use_earlier_slots() {
        let mut b = Bus::new(32, 1);
        // Book the future first.
        assert_eq!(b.transfer(1000, 32), 1001);
        // An earlier request is not blocked by the future booking.
        assert_eq!(b.transfer(5, 32), 6);
        // But the booked future slot stays booked.
        assert_eq!(b.transfer(1000, 32), 1002);
    }

    #[test]
    fn utilization_accounting() {
        let mut b = Bus::new(32, 2);
        b.transfer(0, 32);
        b.transfer(0, 32);
        assert_eq!(b.busy_cycles(), 4);
        assert_eq!(b.transfers(), 2);
    }

    #[test]
    fn multi_beat_spans_slots() {
        let mut b = Bus::new(32, 4);
        // 128 bytes = 4 beats = slots 0..4 -> completes at 16.
        assert_eq!(b.transfer(0, 128), 16);
    }

    #[test]
    #[should_panic(expected = "zero bus parameter")]
    fn zero_width_rejected() {
        let _ = Bus::new(0, 1);
    }
}
