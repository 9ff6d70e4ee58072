//! Byte-addressable main memory: a program's data segments, read in
//! place, under a sparse set of pages that stores have written.

use preexec_isa::{DataSegment, Program};
use std::collections::HashMap;

/// log2 of the page size used by [`Memory`] (and by the checkpoint layer,
/// which snapshots dirty pages at this granularity).
pub const PAGE_SHIFT: u32 = 12;
/// Page size in bytes.
pub const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE - 1) as u64;

/// The architectural load/store interface the CPU steps against.
///
/// [`Memory`] is the concrete backing store for normal trace runs; the
/// checkpoint/replay layer substitutes a copy-on-write overlay that
/// resolves reads against recorded page snapshots. Every implementation
/// must be little-endian, wrap addresses at 2^64 and read zeros from
/// addresses that no data segment initialized and no store reached, so
/// the interpreter semantics are identical whichever bus is plugged in.
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
/// The address space is split into 4 KB pages. A page that no store has
/// touched is *pristine*: its bytes are the program's segment bytes where
/// a [`DataSegment`] covers them and zero elsewhere, and reads take them
/// from the segments in place, after a range check over the segments: no
/// copy, and no hash while no page is written. The first store into a
/// page copies that one page's pristine bytes into a private 4 KB page,
/// which then serves every read and write of it. A run that never stores
/// copies nothing; one that does pays one page copy per page it writes,
/// spread over its stores.
///
/// Invariants:
///
/// - segments are borrowed from the program and never written, so clones
///   share them and differ only in their written pages;
/// - segments never overlap ([`Program::add_data`] rejects overlaps), so a
///   byte has at most one segment;
/// - every byte reads as the last value stored to it, or as its pristine
///   byte if no store reached it;
/// - addresses wrap at 2^64: an access whose bytes run past `u64::MAX`
///   continues at address 0.
///
/// All multi-byte accesses are little-endian and may straddle page and
/// segment boundaries.
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
/// assert_eq!(m.written_pages(), 0);             // read in place
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x9999), 0);            // untouched memory reads zero
/// assert_eq!(m.written_pages(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory<'p> {
    /// The program's data segments: the pristine bytes.
    segments: &'p [DataSegment],
    /// Pages a store has touched, by page index.
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
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
        Memory {
            segments: program.data_segments(),
            pages: HashMap::new(),
        }
    }

    /// Number of written pages: pages a store has touched, each held as a
    /// private 4 KB copy.
    pub fn written_pages(&self) -> usize {
        self.pages.len()
    }

    /// The page holding `addr`, copied from its pristine bytes on the first
    /// write.
    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        let page = addr >> PAGE_SHIFT;
        let segments = self.segments;
        self.pages
            .entry(page)
            .or_insert_with(|| pristine_page(segments, page))
    }

    /// The byte at `addr` before any store.
    #[inline]
    fn pristine_u8(&self, addr: u64) -> u8 {
        for seg in self.segments {
            let i = addr.wrapping_sub(seg.base);
            if i < seg.bytes.len() as u64 {
                return seg.bytes[i as usize];
            }
        }
        0
    }

    /// The `N` bytes at `addr` before any store, unless a segment edge
    /// falls inside them.
    #[inline]
    fn pristine_run<const N: usize>(&self, addr: u64) -> Option<[u8; N]> {
        for seg in self.segments {
            let i = addr.wrapping_sub(seg.base);
            if i < seg.bytes.len() as u64 {
                let i = i as usize;
                return seg.bytes.get(i..i + N)?.try_into().ok();
            }
            if seg.base.wrapping_sub(addr) < N as u64 {
                return None;
            }
        }
        Some([0; N])
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => self.pristine_u8(addr),
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    #[inline]
    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_SIZE {
            if let Some(p) = self.pages.get(&(addr >> PAGE_SHIFT)) {
                let mut out = [0u8; N];
                out.copy_from_slice(&p[off..off + N]);
                return out;
            }
            if let Some(out) = self.pristine_run(addr) {
                return out;
            }
        }
        // Across a page, a segment edge or the top of the address space.
        let mut out = [0u8; N];
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u64));
        }
        out
    }

    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let off = (addr & PAGE_MASK) as usize;
        if off + bytes.len() <= PAGE_SIZE {
            self.page_mut(addr)[off..off + bytes.len()].copy_from_slice(bytes);
            return;
        }
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), b);
        }
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes::<4>(addr))
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes::<8>(addr))
    }

    /// Writes a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// A copy of page `page` (`addr >> PAGE_SHIFT`), if a store or a data
    /// segment touched it. Other pages read as zeros and return `None` —
    /// the checkpoint layer uses this to snapshot only dirtied pages.
    pub fn page_bytes(&self, page: u64) -> Option<Box<[u8; PAGE_SIZE]>> {
        if page >> (u64::BITS - PAGE_SHIFT) != 0 {
            return None; // no such page: its start address would not fit
        }
        match self.pages.get(&page) {
            Some(p) => Some(p.clone()),
            None => self
                .segments
                .iter()
                .any(|seg| segment_part(seg, page).is_some())
                .then(|| pristine_page(self.segments, page)),
        }
    }
}

/// Page `page` before any store: segment bytes where a segment covers it,
/// zero elsewhere.
fn pristine_page(segments: &[DataSegment], page: u64) -> Box<[u8; PAGE_SIZE]> {
    let mut bytes = Box::new([0u8; PAGE_SIZE]);
    for seg in segments {
        if let Some((at, part)) = segment_part(seg, page) {
            bytes[at..at + part.len()].copy_from_slice(part);
        }
    }
    bytes
}

/// The bytes of `seg` that lie in page `page`, with the page offset of the
/// first. A segment shorter than 2^64 − 4 KB cannot both start inside a
/// page and wrap around to its start, so there are two cases.
fn segment_part(seg: &DataSegment, page: u64) -> Option<(usize, &[u8])> {
    let start = page << PAGE_SHIFT;
    let len = seg.bytes.len();
    let into_seg = start.wrapping_sub(seg.base);
    if into_seg < len as u64 {
        // The page starts inside the segment.
        let i = into_seg as usize;
        return Some((0, &seg.bytes[i..len.min(i + PAGE_SIZE)]));
    }
    let into_page = seg.base.wrapping_sub(start);
    if len > 0 && into_page < PAGE_SIZE as u64 {
        // The segment starts inside the page.
        let at = into_page as usize;
        return Some((at, &seg.bytes[..len.min(PAGE_SIZE - at)]));
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
        assert_eq!(m.written_pages(), 0);
        assert_eq!(m.page_bytes(0), None);
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
        let addr = PAGE_SIZE as u64 - 4; // straddles the first page boundary
        m.write_u64(addr, 0xaabb_ccdd_1122_3344);
        assert_eq!(m.read_u64(addr), 0xaabb_ccdd_1122_3344);
        assert_eq!(m.written_pages(), 2);
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
        assert_eq!(m.written_pages(), 0);
    }

    #[test]
    fn segment_spanning_many_pages() {
        let bytes: Vec<u8> = (0..3 * PAGE_SIZE + 7).map(|i| (i % 251) as u8).collect();
        let base = PAGE_SIZE as u64 - 3; // start mid-page, cover 4+ pages
        let p = image(&[(base, bytes.clone())]);
        let m = Memory::from_program(&p);
        for (i, &b) in bytes.iter().enumerate() {
            assert_eq!(m.read_u8(base + i as u64), b, "byte {i}");
        }
        // Every page the segment touches is there, zero-filled around it.
        assert_eq!(m.page_bytes(5), None);
        for page in 0..5u64 {
            let got = m.page_bytes(page).expect("segment page");
            for (off, &g) in got.iter().enumerate() {
                let want = ((page << PAGE_SHIFT) + off as u64)
                    .checked_sub(base)
                    .and_then(|i| bytes.get(i as usize))
                    .copied()
                    .unwrap_or(0);
                assert_eq!(g, want, "page {page} offset {off}");
            }
        }
        assert_eq!(m.written_pages(), 0);
    }

    #[test]
    fn first_store_copies_one_page_and_keeps_its_segment_bytes() {
        let p = image(&[(0x1ff8, (1..=32).collect())]);
        let mut m = Memory::from_program(&p);
        m.write_u8(0x2004, 0xee);
        assert_eq!(m.written_pages(), 1);
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
    fn pages_allocated_on_write_only() {
        let mut m = Memory::new();
        let _ = m.read_u64(0x8000);
        assert_eq!(m.written_pages(), 0);
        m.write_u8(0x8000, 1);
        assert_eq!(m.written_pages(), 1);
    }
}
