//! Property tests: the set-associative cache, the bus and the MSHR file
//! agree with naive reference models, and memory behaves like a byte
//! array.

use preexec_mem::{Bus, Cache, CacheConfig, Memory, MshrFile};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// A naive fully-explicit reference cache: per set, a vector of (tag,
/// dirty) pairs ordered most-recently-used first.
struct RefCache {
    cfg: CacheConfig,
    sets: Vec<Vec<(u64, bool)>>,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> RefCache {
        RefCache {
            cfg,
            sets: vec![Vec::new(); cfg.num_sets()],
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let block = addr / self.cfg.line_bytes as u64;
        (
            (block as usize) & (self.cfg.num_sets() - 1),
            block / self.cfg.num_sets() as u64,
        )
    }

    fn access(&mut self, addr: u64, write: bool) -> bool {
        let (s, t) = self.set_and_tag(addr);
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|&(tag, _)| tag == t) {
            let (tag, dirty) = set.remove(pos);
            set.insert(0, (tag, dirty || write));
            true
        } else {
            set.insert(0, (t, write));
            set.truncate(self.cfg.assoc);
            false
        }
    }

    fn probe(&self, addr: u64) -> bool {
        let (s, t) = self.set_and_tag(addr);
        self.sets[s].iter().any(|&(tag, _)| tag == t)
    }
}

/// The bus as a set of booked slots: a transfer books the first free
/// slots at or after its own, and a request more than 65 536 slots past
/// the previous prune forgets every slot more than 65 536 slots behind it.
struct RefBus {
    width_bytes: u64,
    cycles_per_beat: u64,
    booked: HashSet<u64>,
    last_prune: u64,
    busy_cycles: u64,
    transfers: u64,
}

impl RefBus {
    fn new(width_bytes: u64, cycles_per_beat: u64) -> RefBus {
        RefBus {
            width_bytes,
            cycles_per_beat,
            booked: HashSet::new(),
            last_prune: 0,
            busy_cycles: 0,
            transfers: 0,
        }
    }

    fn transfer(&mut self, now: u64, bytes: u64) -> u64 {
        let beats = bytes.div_ceil(self.width_bytes).max(1);
        let now_slot = now / self.cycles_per_beat;
        let mut slot = now_slot;
        let mut last_slot = slot;
        let mut remaining = beats;
        while remaining > 0 {
            if self.booked.insert(slot) {
                last_slot = slot;
                remaining -= 1;
            }
            slot += 1;
        }
        self.busy_cycles += beats * self.cycles_per_beat;
        self.transfers += 1;
        if now_slot > self.last_prune + 65536 {
            self.booked.retain(|&s| s + 65536 >= now_slot);
            self.last_prune = now_slot;
        }
        (last_slot + 1) * self.cycles_per_beat
    }
}

/// The MSHR file as a map from block to completion cycle.
struct RefMshr {
    capacity: usize,
    inflight: HashMap<u64, u64>,
    coalesced: u64,
    rejected: u64,
}

impl RefMshr {
    fn request(&mut self, block: u64, completes_at: u64) -> Option<u64> {
        if let Some(&done) = self.inflight.get(&block) {
            self.coalesced += 1;
            return Some(done);
        }
        if self.inflight.len() >= self.capacity {
            self.rejected += 1;
            return None;
        }
        self.inflight.insert(block, completes_at);
        Some(completes_at)
    }
}

proptest! {
    /// Every transfer completes when the naive slot-set model says, over
    /// clustered requests (contention), forward jumps past the prune
    /// horizon, and requests far behind the latest one.
    #[test]
    fn bus_matches_slot_set_model(
        cycles_per_beat in 1u64..5,
        width_bytes in prop::sample::select(vec![8u64, 32]),
        requests in prop::collection::vec((0u8..8, 0u64..400_000, 1u64..200), 1..150)
    ) {
        let mut bus = Bus::new(width_bytes, cycles_per_beat);
        let mut reference = RefBus::new(width_bytes, cycles_per_beat);
        let mut latest = 0u64;
        for (i, &(kind, delta, bytes)) in requests.iter().enumerate() {
            let now = match kind {
                0..=4 => latest + delta % 64,
                5 => latest + 65536 * cycles_per_beat + delta,
                6 => latest.saturating_sub(delta),
                _ => latest + delta % 4096,
            };
            latest = latest.max(now);
            let (got, want) = (bus.transfer(now, bytes), reference.transfer(now, bytes));
            prop_assert_eq!(got, want, "request {} at {} ({} bytes)", i, now, bytes);
        }
        prop_assert_eq!(bus.busy_cycles(), reference.busy_cycles);
        prop_assert_eq!(bus.transfers(), reference.transfers);
    }

    /// Requests, retirements and lookups agree with a map model.
    #[test]
    fn mshr_matches_map_model(
        capacity in 1usize..6,
        ops in prop::collection::vec((0u8..5, 0u64..10, 0u64..300), 1..200)
    ) {
        let mut mshrs = MshrFile::new(capacity);
        let mut reference = RefMshr {
            capacity,
            inflight: HashMap::new(),
            coalesced: 0,
            rejected: 0,
        };
        for (i, &(op, block, t)) in ops.iter().enumerate() {
            let block = block * 64;
            match op {
                0 | 1 => {
                    prop_assert_eq!(mshrs.request(block, t), reference.request(block, t), "op {}", i);
                }
                2 => {
                    mshrs.retire_completed(t);
                    reference.inflight.retain(|_, &mut done| done > t);
                }
                _ => {
                    prop_assert_eq!(mshrs.contains(block), reference.inflight.contains_key(&block));
                    prop_assert_eq!(
                        mshrs.completion_of(block),
                        reference.inflight.get(&block).copied()
                    );
                }
            }
            prop_assert_eq!(
                mshrs.earliest_completion(),
                reference.inflight.values().copied().min(),
                "op {}", i
            );
            prop_assert_eq!(mshrs.occupancy(), reference.inflight.len());
            prop_assert_eq!(mshrs.coalesced(), reference.coalesced);
            prop_assert_eq!(mshrs.rejected(), reference.rejected);
        }
    }

    /// Hit/miss behaviour matches the reference LRU model exactly.
    #[test]
    fn cache_matches_reference(
        accesses in prop::collection::vec((0u64..4096, any::<bool>()), 1..300)
    ) {
        let cfg = CacheConfig::new(512, 32, 2); // 8 sets x 2 ways
        let mut cache = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for (i, &(addr, write)) in accesses.iter().enumerate() {
            let got = cache.access(addr, write).hit;
            let want = reference.access(addr, write);
            prop_assert_eq!(got, want, "access {} at {:#x}", i, addr);
        }
        // Final contents agree too.
        for addr in (0u64..4096).step_by(32) {
            prop_assert_eq!(cache.probe(addr), reference.probe(addr), "{:#x}", addr);
        }
    }

    /// Hit + miss counters always sum to the access count.
    #[test]
    fn cache_counter_conservation(
        accesses in prop::collection::vec(0u64..2048, 1..200)
    ) {
        let mut cache = Cache::new(CacheConfig::new(256, 32, 2));
        for &a in &accesses {
            let _ = cache.access(a, false);
        }
        prop_assert_eq!(cache.hits() + cache.misses(), accesses.len() as u64);
    }

    /// Memory reads back exactly what was written, at every width.
    #[test]
    fn memory_is_a_byte_array(
        writes in prop::collection::vec((0u64..100_000, any::<u64>(), 0u8..3), 1..100)
    ) {
        let mut mem = Memory::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for &(addr, value, width) in &writes {
            match width {
                0 => {
                    mem.write_u8(addr, value as u8);
                    model.insert(addr, value as u8);
                }
                1 => {
                    mem.write_u32(addr, value as u32);
                    for (k, b) in (value as u32).to_le_bytes().iter().enumerate() {
                        model.insert(addr + k as u64, *b);
                    }
                }
                _ => {
                    mem.write_u64(addr, value);
                    for (k, b) in value.to_le_bytes().iter().enumerate() {
                        model.insert(addr + k as u64, *b);
                    }
                }
            }
        }
        for (&addr, &byte) in &model {
            prop_assert_eq!(mem.read_u8(addr), byte, "byte at {:#x}", addr);
        }
    }

    /// A bus transfer never completes before its request, and occupancy
    /// grows monotonically with transfer count.
    #[test]
    fn bus_causality(
        requests in prop::collection::vec((0u64..10_000, 1u64..256), 1..100)
    ) {
        let mut bus = preexec_mem::Bus::new(32, 4);
        for &(now, bytes) in &requests {
            let done = bus.transfer(now, bytes);
            prop_assert!(done > now, "transfer completed at {done} <= request {now}");
        }
        prop_assert_eq!(bus.transfers(), requests.len() as u64);
    }
}
