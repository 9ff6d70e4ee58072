//! Byte-addressable main memory: a program's data segments, read in
//! place, under the 8-byte granules that stores have written.

use preexec_isa::{DataSegment, Program};
use std::collections::BTreeMap;

/// log2 of the granule [`Memory`] keeps written bytes at: 8 bytes, the
/// widest access, and the granule the slicer tracks memory dependences
/// and the checkpoint layer records stores at.
pub const GRANULE_SHIFT: u32 = 3;
/// Granule size in bytes.
pub const GRANULE_SIZE: usize = 1 << GRANULE_SHIFT;
const GRANULE_MASK: u64 = (GRANULE_SIZE - 1) as u64;
/// Granule indices are `addr >> GRANULE_SHIFT`, so they wrap at 2^61.
const GRANULE_INDEX_MASK: u64 = u64::MAX >> GRANULE_SHIFT;

/// The architectural load/store interface the CPU steps against.
///
/// [`Memory`] is the concrete backing store for normal trace runs; the
/// checkpoint/replay layer substitutes a copy-on-write overlay that
/// resolves reads against the granules its checkpoints recorded. Every
/// implementation must be little-endian, wrap addresses at 2^64 and read
/// zeros from addresses that no data segment initialized and no store
/// reached, so the interpreter semantics are identical whichever bus is
/// plugged in.
pub trait MemBus {
    /// Reads one byte.
    fn read_u8(&self, addr: u64) -> u8;
    /// Reads a little-endian `u32`.
    fn read_u32(&self, addr: u64) -> u32;
    /// Reads a little-endian `u64`.
    fn read_u64(&self, addr: u64) -> u64;
    /// Writes one byte.
    fn write_u8(&mut self, addr: u64, value: u8);
    /// Writes a little-endian `u32`.
    fn write_u32(&mut self, addr: u64, value: u32);
    /// Writes a little-endian `u64`.
    fn write_u64(&mut self, addr: u64, value: u64);
}

impl MemBus for Memory<'_> {
    #[inline]
    fn read_u8(&self, addr: u64) -> u8 {
        Memory::read_u8(self, addr)
    }
    #[inline]
    fn read_u32(&self, addr: u64) -> u32 {
        Memory::read_u32(self, addr)
    }
    #[inline]
    fn read_u64(&self, addr: u64) -> u64 {
        Memory::read_u64(self, addr)
    }
    #[inline]
    fn write_u8(&mut self, addr: u64, value: u8) {
        Memory::write_u8(self, addr, value)
    }
    #[inline]
    fn write_u32(&mut self, addr: u64, value: u32) {
        Memory::write_u32(self, addr, value)
    }
    #[inline]
    fn write_u64(&mut self, addr: u64, value: u64) {
        Memory::write_u64(self, addr, value)
    }
}

/// A 64-bit byte-addressable memory over a program's data segments.
///
/// A byte that no store has reached is *pristine*: its segment's byte
/// where a [`DataSegment`] covers it and zero elsewhere, read from the
/// segment in place. Stores write 8-byte granules: the first store into a
/// granule copies that granule's pristine bytes into a B-tree keyed by
/// granule index, which then serves every access to it. The tree grows a
/// node at a time, so it never holds an old and a new table at once, as a
/// hash table that doubles does, and leaves no outgrown blocks behind.
/// Each segment carries a bitmap, one bit per granule it touches, set by
/// the first store into the granule. A read inside a segment is a range
/// check and a bit test, and searches the tree only when its granule was
/// written. A run that never stores holds nothing; one that does holds
/// about 20 to 40 bytes per granule it writes, plus one bitmap bit per
/// granule of every segment it stores into.
///
/// Invariants:
///
/// - segments are borrowed from the program and never written, so clones
///   share them and differ only in their written granules;
/// - segments never overlap ([`Program::add_data`] rejects overlaps), so a
///   byte has at most one segment;
/// - a granule's bit is set in the bitmap of every segment that touches
///   it exactly when the tree holds the granule, and the written
///   granules with a byte outside every segment are counted, so the count
///   is zero while no store reached such a byte;
/// - every byte reads as the last value stored to it, or as its pristine
///   byte if no store reached it;
/// - addresses wrap at 2^64: an access whose bytes run past `u64::MAX`
///   continues at address 0.
///
/// All multi-byte accesses are little-endian and may straddle granule
/// and segment boundaries.
///
/// # Example
///
/// ```
/// use preexec_isa::Program;
/// use preexec_mem::Memory;
///
/// let mut p = Program::new("t");
/// p.add_data(0x2000, vec![1, 2, 3, 4]);
/// let mut m = Memory::from_program(&p);
/// assert_eq!(m.read_u32(0x2000), 0x0403_0201); // segment bytes, little-endian
/// assert_eq!(m.written_bytes(), 0);             // read in place
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x9999), 0);            // untouched memory reads zero
/// assert!(m.written_bytes() < 256);             // one granule, not a page
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory<'p> {
    /// The program's data segments: the pristine bytes.
    segments: &'p [DataSegment],
    /// Per segment, one bit per granule it touches, set once a store
    /// wrote the granule. A segment's bitmap is allocated by its first
    /// store.
    written: Vec<Vec<u64>>,
    /// The current bytes of every written granule, by granule index.
    granules: BTreeMap<u64, [u8; GRANULE_SIZE]>,
    /// How many written granules have a byte outside every segment. While
    /// it is zero, a read outside every segment is zeros.
    loose: usize,
}

impl<'p> Memory<'p> {
    /// Creates a memory with no data segments: every byte reads zero until
    /// it is written.
    pub fn new() -> Memory<'p> {
        Memory::default()
    }

    /// The memory a run of `program` starts from: its data segments, read
    /// in place.
    pub fn from_program(program: &'p Program) -> Memory<'p> {
        let segments = program.data_segments();
        Memory {
            segments,
            written: vec![Vec::new(); segments.len()],
            granules: BTreeMap::new(),
            loose: 0,
        }
    }

    /// Heap bytes the written state holds, estimated: the tree of written
    /// granules (16 bytes of index and bytes per granule, in nodes a
    /// little over half full) and the segments' bitmaps. Zero until the
    /// first store.
    pub fn written_bytes(&self) -> usize {
        let entry_bytes = std::mem::size_of::<(u64, [u8; GRANULE_SIZE])>();
        let bitmaps: usize = self.written.iter().map(Vec::capacity).sum();
        self.granules.len() * entry_bytes * 7 / 4 + bitmaps * std::mem::size_of::<u64>()
    }

    /// Whether a store wrote granule `i` of segment `seg`'s bitmap.
    #[inline]
    fn is_written(&self, seg: usize, i: u64) -> bool {
        self.written[seg]
            .get((i >> 6) as usize)
            .is_some_and(|word| word >> (i & 63) & 1 != 0)
    }

    /// The current bytes of granule `g`.
    fn granule(&self, g: u64) -> [u8; GRANULE_SIZE] {
        match self.granules.get(&g) {
            Some(bytes) => *bytes,
            None => pristine_granule(self.segments, g).0,
        }
    }

    /// Granule `g`, copied from its pristine bytes on the first write,
    /// which also records it in the bitmap of every segment touching it.
    #[inline]
    fn granule_mut(&mut self, g: u64) -> &mut [u8; GRANULE_SIZE] {
        let Memory {
            segments,
            written,
            granules,
            loose,
        } = self;
        granules.entry(g).or_insert_with(|| {
            let (bytes, covered) = pristine_granule(segments, g);
            if covered < GRANULE_SIZE {
                *loose += 1;
            }
            for (seg, bits) in segments.iter().zip(written.iter_mut()) {
                if let Some(i) = granule_index(seg, g) {
                    if bits.is_empty() {
                        *bits = vec![0; granule_count(seg).div_ceil(64) as usize];
                    }
                    bits[(i >> 6) as usize] |= 1 << (i & 63);
                }
            }
            bytes
        })
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    #[inline]
    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let off = (addr & GRANULE_MASK) as usize;
        if off + N <= GRANULE_SIZE {
            let mut outside = true;
            for (s, seg) in self.segments.iter().enumerate() {
                let i = addr.wrapping_sub(seg.base);
                if i < seg.bytes.len() as u64 {
                    // Inside a segment: pristine unless the granule's bit
                    // says a store wrote it.
                    if self.is_written(s, ((seg.base & GRANULE_MASK) + i) >> GRANULE_SHIFT) {
                        return take(&self.granules[&(addr >> GRANULE_SHIFT)], off);
                    }
                    let i = i as usize;
                    if let Some(bytes) = seg.bytes.get(i..i + N) {
                        return take(bytes, 0);
                    }
                    outside = false; // the segment ends inside the read
                    break;
                }
                if seg.base.wrapping_sub(addr) < N as u64 {
                    outside = false; // a segment starts inside the read
                    break;
                }
            }
            if outside && self.loose == 0 {
                // Outside every segment, where no store has written.
                return [0; N];
            }
        }
        // Across a granule, a segment edge or the top of the address
        // space, or outside every segment after a store there.
        let mut buf = [0u8; 2 * GRANULE_SIZE];
        buf[..GRANULE_SIZE].copy_from_slice(&self.granule(addr >> GRANULE_SHIFT));
        if off + N > GRANULE_SIZE {
            let next = addr.wrapping_add(GRANULE_SIZE as u64) >> GRANULE_SHIFT;
            buf[GRANULE_SIZE..].copy_from_slice(&self.granule(next));
        }
        take(&buf, off)
    }

    /// Writes `N` bytes starting at `addr`, into one granule or two.
    #[inline]
    fn write_bytes<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) {
        let off = (addr & GRANULE_MASK) as usize;
        let first = N.min(GRANULE_SIZE - off);
        self.granule_mut(addr >> GRANULE_SHIFT)[off..off + first].copy_from_slice(&bytes[..first]);
        if first < N {
            let next = addr.wrapping_add(GRANULE_SIZE as u64) >> GRANULE_SHIFT;
            self.granule_mut(next)[..N - first].copy_from_slice(&bytes[first..]);
        }
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read_bytes::<1>(addr)[0]
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.write_bytes(addr, [value]);
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes::<4>(addr))
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes::<8>(addr))
    }

    /// Writes a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, value.to_le_bytes());
    }
}

/// The `N` bytes of `bytes` from `off`.
#[inline]
fn take<const N: usize>(bytes: &[u8], off: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&bytes[off..off + N]);
    out
}

/// Number of granules `seg` touches.
fn granule_count(seg: &DataSegment) -> u64 {
    if seg.bytes.is_empty() {
        return 0;
    }
    ((seg.base & GRANULE_MASK) + seg.bytes.len() as u64).div_ceil(GRANULE_SIZE as u64)
}

/// The index of granule `g` in `seg`'s bitmap, if `seg` touches it.
#[inline]
fn granule_index(seg: &DataSegment, g: u64) -> Option<u64> {
    let i = g.wrapping_sub(seg.base >> GRANULE_SHIFT) & GRANULE_INDEX_MASK;
    (i < granule_count(seg)).then_some(i)
}

/// Granule `g` before any store, with how many of its bytes segments
/// cover.
fn pristine_granule(segments: &[DataSegment], g: u64) -> ([u8; GRANULE_SIZE], usize) {
    let mut bytes = [0u8; GRANULE_SIZE];
    let mut covered = 0;
    for seg in segments {
        if let Some((at, part)) = segment_part(seg, g << GRANULE_SHIFT, GRANULE_SIZE) {
            bytes[at..at + part.len()].copy_from_slice(part);
            covered += part.len();
        }
    }
    (bytes, covered)
}

/// The bytes of `seg` that lie in the `size`-byte block at `start`, with
/// the block offset of the first. A segment shorter than 2^64 − `size`
/// cannot both start inside a block and wrap around to its start, so
/// there are two cases.
fn segment_part(seg: &DataSegment, start: u64, size: usize) -> Option<(usize, &[u8])> {
    let len = seg.bytes.len();
    let into_seg = start.wrapping_sub(seg.base);
    if into_seg < len as u64 {
        // The block starts inside the segment.
        let i = into_seg as usize;
        return Some((0, &seg.bytes[i..len.min(i + size)]));
    }
    let into_block = seg.base.wrapping_sub(start);
    if len > 0 && into_block < size as u64 {
        // The segment starts inside the block.
        let at = into_block as usize;
        return Some((at, &seg.bytes[..len.min(size - at)]));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A program with no code and the given data segments.
    fn image(segments: &[(u64, Vec<u8>)]) -> Program {
        let mut p = Program::new("image");
        for (base, bytes) in segments {
            p.add_data(*base, bytes.clone());
        }
        p
    }

    #[test]
    fn zero_initialized() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(12345), 0);
        assert_eq!(m.written_bytes(), 0);
    }

    #[test]
    fn round_trip_widths() {
        let mut m = Memory::new();
        m.write_u8(10, 0xab);
        m.write_u32(100, 0x1234_5678);
        m.write_u64(200, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u32(100), 0x1234_5678);
        assert_eq!(m.read_u64(200), 0x0102_0304_0506_0708);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(3), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = 0x1000 - 4; // straddles a granule (and a page) boundary
        m.write_u64(addr, 0xaabb_ccdd_1122_3344);
        assert_eq!(m.read_u64(addr), 0xaabb_ccdd_1122_3344);
        // Both granules hold their half, and only those two are held.
        assert_eq!(m.read_u64(addr - 4), 0x1122_3344_0000_0000);
        assert_eq!(m.read_u64(addr + 4), 0x0000_0000_aabb_ccdd);
        assert_eq!(m.granules.len(), 2);
    }

    #[test]
    fn segments_read_in_place() {
        let p = image(&[(0x500, vec![1, 2, 3, 4, 5])]);
        let m = Memory::from_program(&p);
        assert_eq!(m.read_u8(0x500), 1);
        assert_eq!(m.read_u8(0x504), 5);
        assert_eq!(m.read_u32(0x501), 0x0504_0302);
        // Straddling the segment's end: the byte past it reads zero.
        assert_eq!(m.read_u32(0x502), 0x0005_0403);
        assert_eq!(m.read_u64(0x4fe), 0x0005_0403_0201_0000);
        assert_eq!(m.written_bytes(), 0);
    }

    #[test]
    fn segment_spanning_many_pages() {
        let bytes: Vec<u8> = (0..3 * 4096 + 7).map(|i| (i % 251) as u8).collect();
        let base = 4096 - 3; // start mid-granule, cover 4+ pages
        let p = image(&[(base, bytes.clone())]);
        let m = Memory::from_program(&p);
        for (i, &b) in bytes.iter().enumerate() {
            assert_eq!(m.read_u8(base + i as u64), b, "byte {i}");
        }
        // Every granule the segment touches reads whole, zero around it.
        let end = base + bytes.len() as u64;
        for g in (base >> GRANULE_SHIFT) - 1..=(end >> GRANULE_SHIFT) + 1 {
            let want = (0..GRANULE_SIZE as u64).rev().fold(0, |v, k| {
                let at = (g << GRANULE_SHIFT) + k;
                let b = at.checked_sub(base).and_then(|i| bytes.get(i as usize));
                (v << 8) | u64::from(b.copied().unwrap_or(0))
            });
            assert_eq!(m.read_u64(g << GRANULE_SHIFT), want, "granule {g:#x}");
        }
        assert_eq!(m.written_bytes(), 0);
    }

    #[test]
    fn first_store_copies_one_granule_and_keeps_its_segment_bytes() {
        let p = image(&[(0x1ff8, (1..=32).collect())]);
        let mut m = Memory::from_program(&p);
        m.write_u8(0x2004, 0xee);
        assert_eq!(m.granules.len(), 1);
        assert_eq!(m.written[0], [1 << 1]);
        assert_eq!(m.read_u64(0x2000), 0x100f_0eee_0c0b_0a09);
        // The neighbouring page is still read from the segment.
        assert_eq!(m.read_u64(0x1ff8), 0x0807_0605_0403_0201);
        assert_eq!(m.read_u64(0x1ffc), 0x0c0b_0a09_0807_0605);
        let clone = m.clone();
        m.write_u8(0x1ff8, 0xaa);
        assert_eq!(clone.read_u8(0x1ff8), 1);
        assert_eq!(p.data_segments()[0].bytes[0], 1);
    }

    #[test]
    fn accesses_wrap_at_the_top_of_the_address_space() {
        let mut m = Memory::new();
        let top = u64::MAX - 3;
        m.write_u64(top, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(top), 0x1122_3344_5566_7788);
        assert_eq!(m.read_u32(top), 0x5566_7788);
        assert_eq!(m.read_u32(0), 0x1122_3344);
        assert_eq!(m.read_u8(u64::MAX), 0x55);
        m.write_u32(u64::MAX - 1, 0xaabb_ccdd);
        assert_eq!(m.read_u64(top), 0x1122_aabb_ccdd_7788);
    }

    #[test]
    fn granules_held_on_write_only() {
        let mut m = Memory::new();
        let _ = m.read_u64(0x8000);
        assert_eq!(m.written_bytes(), 0);
        m.write_u8(0x8000, 1);
        assert!(m.written_bytes() > 0);
        assert_eq!(m.granules.len(), 1);
        assert_eq!(m.loose, 1);
    }

    #[test]
    fn a_granule_shared_by_two_segments_is_marked_in_both() {
        // `a` ends and `b` starts inside granule 0x201 (0x1008..0x1010).
        let p = image(&[(0x1000, vec![1; 11]), (0x100b, vec![2; 13])]);
        let mut m = Memory::from_program(&p);
        assert_eq!(m.read_u64(0x1008), 0x0202_0202_0201_0101);
        m.write_u8(0x100a, 0xaa); // a's last byte
        assert_eq!(m.written[0], [1 << 1]);
        assert_eq!(m.written[1], [1 << 0]);
        assert_eq!(m.loose, 0);
        // b's bytes in the granule read through the written copy.
        assert_eq!(m.read_u32(0x100b), 0x0202_0202);
        assert_eq!(m.read_u64(0x1008), 0x0202_0202_02aa_0101);
    }

    #[test]
    fn a_byte_just_past_a_segment_in_its_last_granule_reads_back() {
        let p = image(&[(0x100, vec![7; 3])]);
        let mut m = Memory::from_program(&p);
        m.write_u8(0x104, 0x55); // outside the segment, in its granule
        assert_eq!(m.loose, 1);
        assert_eq!(m.read_u8(0x104), 0x55);
        assert_eq!(m.read_u32(0x102), 0x0055_0007);
        assert_eq!(m.read_u8(0x103), 0);
    }

    #[test]
    fn scattered_stores_hold_under_a_megabyte() {
        // gap's pattern on train: one 8-byte store into each of 15 000
        // shuffled 32-byte objects of an 8 MB arena. Every store lands in
        // its own granule, and they spread over nearly all 2 048 pages.
        const OBJECTS: u64 = 256 * 1024;
        let base = 0x100_0000;
        let p = image(&[(base, vec![0x5a; (OBJECTS * 32) as usize])]);
        let mut m = Memory::from_program(&p);
        let mut x = 0x6761_7000u64;
        let mut objects: Vec<u64> = (0..OBJECTS).collect();
        for i in (1..objects.len()).rev() {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            objects.swap(i, (x >> 33) as usize % (i + 1));
        }
        let stores = &objects[..15_000];
        for (k, &o) in stores.iter().enumerate() {
            m.write_u64(base + o * 32 + 16, k as u64);
        }
        let pages: std::collections::HashSet<u64> =
            stores.iter().map(|o| (base + o * 32) >> 12).collect();
        assert!(pages.len() > 2_000, "{} pages", pages.len());
        assert_eq!(m.granules.len(), 15_000);
        // A copy of each written page would be 8 MB.
        assert!(m.written_bytes() < 1 << 20, "{} bytes", m.written_bytes());
        for (k, &o) in stores.iter().enumerate() {
            assert_eq!(m.read_u64(base + o * 32 + 16), k as u64);
            assert_eq!(m.read_u64(base + o * 32 + 8), 0x5a5a_5a5a_5a5a_5a5a);
        }
    }
}
