//! Property tests: the set-associative cache, the bus and the MSHR file
//! agree with naive reference models, and memory behaves like a byte
//! array.

use preexec_isa::Program;
use preexec_mem::{Bus, Cache, CacheConfig, Memory, MshrFile};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A 4 KB page: the segment layouts and whole-region fills below are
/// shaped by it.
const PAGE: u64 = 4096;

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
    rejected: u64,
}

impl RefMshr {
    /// An insert of a block known not to be in flight.
    fn insert(&mut self, block: u64, completes_at: u64) -> Option<u64> {
        if self.inflight.len() >= self.capacity {
            self.rejected += 1;
            return None;
        }
        self.inflight.insert(block, completes_at);
        Some(completes_at)
    }
}

/// Memory as a plain map from address to byte: the segment bytes, then
/// every write on top. Absent addresses read zero. It also keeps the
/// 8-byte granules (`addr >> 3`) that writes touched.
#[derive(Clone)]
struct ByteModel {
    bytes: BTreeMap<u64, u8>,
    written: BTreeSet<u64>,
}

impl ByteModel {
    fn seeded(p: &Program) -> ByteModel {
        let mut bytes = BTreeMap::new();
        for seg in p.data_segments() {
            for (i, &b) in seg.bytes.iter().enumerate() {
                bytes.insert(seg.base.wrapping_add(i as u64), b);
            }
        }
        ByteModel {
            bytes,
            written: BTreeSet::new(),
        }
    }

    /// The little-endian value of the `width` bytes at `addr`.
    fn read(&self, addr: u64, width: u64) -> u64 {
        (0..width).rev().fold(0, |v, i| {
            let b = self.bytes.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
            (v << 8) | u64::from(b)
        })
    }

    fn write(&mut self, addr: u64, width: u64, value: u64) {
        for i in 0..width {
            let a = addr.wrapping_add(i);
            self.bytes.insert(a, (value >> (8 * i)) as u8);
            self.written.insert(a >> 3);
        }
    }
}

fn mem_read(mem: &Memory<'_>, addr: u64, width: u64) -> u64 {
    match width {
        1 => u64::from(mem.read_u8(addr)),
        4 => u64::from(mem.read_u32(addr)),
        _ => mem.read_u64(addr),
    }
}

fn mem_write(mem: &mut Memory<'_>, addr: u64, width: u64, value: u64) {
    match width {
        1 => mem.write_u8(addr, value as u8),
        4 => mem.write_u32(addr, value as u32),
        _ => mem.write_u64(addr, value),
    }
}

/// A segment's bytes: never zero, so they differ from untouched memory.
fn segment_bytes(len: u64, salt: u64) -> Vec<u8> {
    (0..len).map(|i| ((i * 7 + salt) % 251 + 1) as u8).collect()
}

/// Six data segments with the shapes the memory tells apart: `a` starts
/// mid-page, `b` starts in the page where `a` ends (right after it when
/// the gap is 0), `c` follows `b` after a gap, `e` follows `c` and ends
/// inside an 8-byte granule, where `f` starts, and `d` ends just below the
/// top of the address space.
fn segment_layout(
    (a_off, a_len, ab_gap, b_len): (u64, u64, u64, u64),
    (bc_gap, c_len, top_gap, d_len): (u64, u64, u64, u64),
    (e_off, e_len, ef_gap, f_len): (u64, u64, u64, u64),
    salt: u64,
) -> Vec<(u64, Vec<u8>)> {
    let page = PAGE;
    let a_base = 0x40_0000 + a_off;
    let a_len = if (a_base + a_len) % page == 0 {
        a_len - 1
    } else {
        a_len
    };
    let a_end = a_base + a_len;
    let b_base = a_end + ab_gap % (page - a_end % page);
    let c_base = b_base + b_len + bc_gap;
    let e_base = c_base + c_len + e_off;
    let e_len = if (e_base + e_len).is_multiple_of(8) {
        e_len + 1
    } else {
        e_len
    };
    let e_end = e_base + e_len;
    let f_base = e_end + ef_gap % (8 - e_end % 8);
    let d_base = u64::MAX - top_gap - d_len + 1;
    vec![
        (a_base, segment_bytes(a_len, salt)),
        (b_base, segment_bytes(b_len, salt + 50)),
        (c_base, segment_bytes(c_len, salt + 100)),
        (e_base, segment_bytes(e_len, salt + 120)),
        (f_base, segment_bytes(f_len, salt + 140)),
        (d_base, segment_bytes(d_len, salt + 150)),
    ]
}

/// Addresses the accesses cluster around: every segment's edges, the
/// granules and pages around them and its middle, addresses outside
/// every segment, and the top of the address space. Accesses land within
/// 12 bytes of an anchor, so unaligned ones straddle granule edges.
fn anchors(p: &Program) -> Vec<u64> {
    let mask = PAGE - 1;
    let mut out = vec![0, 0x1000, 0x7fff_0000, u64::MAX - 3, u64::MAX];
    for seg in p.data_segments() {
        let end = seg.base.wrapping_add(seg.bytes.len() as u64);
        let middle = seg.base + seg.bytes.len() as u64 / 2;
        out.extend([
            seg.base,
            end,
            seg.base & !7,
            end.wrapping_add(7) & !7,
            seg.base & !mask,
            end.wrapping_add(mask) & !mask,
            middle,
            middle & !7,
        ]);
    }
    out
}

/// Whether every 8-byte granule the `width` bytes at `addr` touch is one
/// that some segment touches.
fn in_segment_granules(p: &Program, addr: u64, width: u64) -> bool {
    [addr, addr.wrapping_add(width - 1)].iter().all(|&a| {
        p.data_segments().iter().any(|seg| {
            let last = seg.base + seg.bytes.len() as u64 - 1;
            (seg.base >> 3..=last >> 3).contains(&(a >> 3))
        })
    })
}

/// Writes every byte of the page holding `addr`, `width` bytes at a time
/// from `shift` bytes below the page, so that unaligned writes straddle
/// every granule edge and both page edges.
fn fill_page(
    mem: &mut Memory<'_>,
    model: &mut ByteModel,
    addr: u64,
    width: u64,
    shift: u64,
    seed: u64,
) {
    let start = (addr & !(PAGE - 1)).wrapping_sub(shift);
    for k in 0..(PAGE + shift).div_ceil(width) {
        let at = start.wrapping_add(k * width);
        let value = seed.wrapping_mul(k + 1).rotate_left(k as u32 % 64);
        mem_write(mem, at, width, value);
        model.write(at, width, value);
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

    /// Inserts of blocks not in flight, retirements and lookups agree
    /// with a map model.
    #[test]
    fn mshr_matches_map_model(
        capacity in 1usize..6,
        ops in prop::collection::vec((0u8..5, 0u64..10, 0u64..300), 1..200)
    ) {
        let mut mshrs = MshrFile::new(capacity);
        let mut reference = RefMshr {
            capacity,
            inflight: HashMap::new(),
            rejected: 0,
        };
        for (i, &(op, block, t)) in ops.iter().enumerate() {
            let block = block * 64;
            match op {
                // `insert` is only for a block not in flight; the timing
                // simulator coalesces with one that is by `completion_of`.
                0 | 1 if !reference.inflight.contains_key(&block) => {
                    prop_assert_eq!(mshrs.insert(block, t), reference.insert(block, t), "op {}", i);
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

    /// Memory is a byte array seeded from the program's data segments.
    /// Over a segment that starts mid-page, two that share a page, two
    /// that share an 8-byte granule, a gap between two and a segment just
    /// below the top of the address space, reads and writes of widths 1,
    /// 4 and 8 clustered on granule edges, page edges, segment edges,
    /// addresses outside every segment and the top of the address space
    /// agree with a plain byte map, and so does an aligned 8-byte read of
    /// every granule a write touched (how the checkpoint recorder reads
    /// them). Writes are sparse, except that about one op in 32 writes
    /// every byte of a page; in half the cases they stay in the segments'
    /// granules. Writes to a clone change neither the original nor the
    /// segment bytes.
    #[test]
    fn memory_is_a_byte_array(
        near in (1u64..4096, 2u64..10_000, 0u64..4096, 1u64..5000),
        far in (1u64..9000, 1u64..3000, 1u64..64, 1u64..300),
        shared in (1u64..3000, 1u64..40, 0u64..8, 1u64..40),
        salt in 0u64..251,
        near_segments in any::<bool>(),
        ops in prop::collection::vec(
            (0usize..128, -12i64..12, any::<u64>(), 0usize..3, 0u8..32),
            1..150
        )
    ) {
        let layout = segment_layout(near, far, shared, salt);
        let mut program = Program::new("image");
        for (base, bytes) in &layout {
            program.add_data(*base, bytes.clone());
        }
        let mut mem = Memory::from_program(&program);
        let mut model = ByteModel::seeded(&program);
        let anchors = anchors(&program);
        for (i, &(at, delta, value, width, kind)) in ops.iter().enumerate() {
            let addr = anchors[at % anchors.len()].wrapping_add_signed(delta);
            let width = [1, 4, 8][width];
            if kind == 31 && !near_segments {
                fill_page(&mut mem, &mut model, addr, width, value % 8, value);
            } else if kind >= 16 {
                // With `near_segments`, writes stay in granules that a
                // segment touches, so no written granule lies wholly
                // outside the segments: reads past a segment's end then
                // see only the stores that share its last granule.
                if near_segments && !in_segment_granules(&program, addr, width) {
                    continue;
                }
                mem_write(&mut mem, addr, width, value);
                model.write(addr, width, value);
            } else {
                prop_assert_eq!(
                    mem_read(&mem, addr, width),
                    model.read(addr, width),
                    "op {}: {}-byte read at {:#x}", i, width, addr
                );
            }
        }
        for &g in &model.written {
            prop_assert_eq!(
                mem.read_u64(g << 3),
                model.read(g << 3, 8),
                "granule {:#x}", g
            );
        }

        let mut clone = mem.clone();
        let mut clone_model = model.clone();
        for (k, &a) in anchors.iter().enumerate() {
            clone.write_u64(a, 0xa5a5_a5a5_0000_0000 | k as u64);
            clone_model.write(a, 8, 0xa5a5_a5a5_0000_0000 | k as u64);
        }
        for &a in &anchors {
            for delta in -12..12 {
                let addr = a.wrapping_add_signed(delta);
                prop_assert_eq!(mem_read(&mem, addr, 1), model.read(addr, 1), "{:#x}", addr);
                prop_assert_eq!(
                    mem_read(&clone, addr, 1),
                    clone_model.read(addr, 1),
                    "clone at {:#x}", addr
                );
            }
        }
        for (seg, (base, bytes)) in program.data_segments().iter().zip(&layout) {
            prop_assert_eq!(seg.base, *base);
            prop_assert!(seg.bytes == *bytes, "segment at {:#x} changed", base);
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
