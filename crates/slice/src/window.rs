//! The slicing window: a bounded history of dynamic instructions with
//! last-writer tracking, from which backward slices are extracted.

use crate::SliceError;
use preexec_func::DynInst;
use preexec_isa::reg::NUM_REGS;
use preexec_isa::{Inst, Pc};
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// One element of an extracted backward slice.
///
/// Elements are ordered root-first (the problem load is element 0, its
/// earliest producer is last), i.e. in *reverse* program order — the order
/// in which a slice tree path is walked from the root downward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceEntry {
    /// Static PC of the instruction.
    pub pc: Pc,
    /// The instruction.
    pub inst: Inst,
    /// Dynamic-instruction distance from the root load (root = 0).
    pub dist: u64,
    /// Positions (indices into the same slice vector) of the producers of
    /// this instruction's source values that lie within the slice. Producer
    /// positions are always greater than the consumer's position (producers
    /// are earlier in program order, later in the root-first vector).
    pub dep_positions: Vec<u32>,
}

#[derive(Debug, Clone)]
struct WindowEntry {
    seq: u64,
    pc: Pc,
    inst: Inst,
    /// Sequence numbers of the in-window producers of each register source.
    reg_deps: [Option<u64>; 2],
    /// For loads: sequence number of the in-window store that produced the
    /// loaded value, if any.
    mem_dep: Option<u64>,
}

/// Memory dependences are tracked at 8-byte-granule granularity: precise
/// enough for the framework (whose store-load pairs are word/doubleword
/// scalar round-trips) and compact enough to track a whole working set.
/// Shared with the on-demand slicer, whose interval summaries must use
/// the same granularity to resolve the same dependences.
pub(crate) const GRANULE_SHIFT: u32 = 3;

pub(crate) fn granules(addr: u64, width: u8) -> impl Iterator<Item = u64> {
    let first = addr >> GRANULE_SHIFT;
    let last = (addr + width as u64 - 1) >> GRANULE_SHIFT;
    first..=last
}

/// Cap on the ring buffer's *eager* allocation. Scopes up to this size
/// pre-allocate in full (the common case — the paper's default is 1024);
/// larger scopes grow on demand, so a huge scope in a remote job spec
/// costs memory proportional to instructions actually observed, not to
/// the requested scope.
const MAX_EAGER_RING_CAPACITY: usize = 1 << 16;

/// One instruction's dependence record as the slice traversal sees it —
/// the common currency of the windowed and on-demand extractors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EntryView {
    pub pc: Pc,
    pub inst: Inst,
    /// Sequence numbers of the producers of each register source.
    pub reg_deps: [Option<u64>; 2],
    /// For loads: sequence number of the store that produced the value.
    pub mem_dep: Option<u64>,
}

/// The backward-slice traversal shared by [`SliceWindow::try_slice_latest`]
/// and the on-demand slicer: both provide dependence records through
/// `entry`, so a slice of the same root over the same dependences is
/// byte-identical whichever extractor produced it — by construction, not
/// by two traversals kept in sync.
///
/// `entry` is consulted once per visited sequence number, root first;
/// dependences older than `min_seq` (out of scope) are never followed, so
/// `entry` may report them as `None` or as their true (sub-`min_seq`)
/// value interchangeably.
///
/// Every dependence is strictly older than its consumer (DESIGN.md §7.5),
/// so the max-heap worklist pops seqs in non-increasing order: the visited
/// seqs come out strictly descending (a truncated slice keeps the
/// instructions nearest the root), a duplicate pops right after its twin,
/// and no pushed dependence can already be visited. No hashing is needed.
pub(crate) fn slice_from(
    root_seq: u64,
    min_seq: u64,
    max_len: usize,
    mut entry: impl FnMut(u64) -> Result<EntryView, SliceError>,
) -> Result<Vec<SliceEntry>, SliceError> {
    // The root's memory dependence is not followed: only its address
    // computation matters for prefetching.
    let deps = |seq: u64, e: &EntryView| {
        let mem = e.mem_dep.filter(|_| e.inst.op.is_load() && seq != root_seq);
        e.reg_deps.into_iter().flatten().chain(mem)
    };
    let mut heap: BinaryHeap<u64> = BinaryHeap::new();
    // Pre-sized for usual slice lengths; a huge `max_len` grows on demand.
    let cap = max_len.min(256);
    let mut order: Vec<u64> = Vec::with_capacity(cap); // strictly descending
    let mut views: Vec<EntryView> = Vec::with_capacity(cap); // parallel to `order`
    let mut next = Some(root_seq);
    while let Some(seq) = next {
        let e = entry(seq)?;
        for dep in deps(seq, &e) {
            debug_assert!(dep < seq, "dependence {dep} is not older than consumer {seq}");
            if dep >= min_seq {
                heap.push(dep);
            }
        }
        order.push(seq);
        views.push(e);
        next = if order.len() < max_len {
            std::iter::from_fn(|| heap.pop()).find(|s| order.last() != Some(s))
        } else {
            None
        };
    }

    // Build entries with intra-slice dependence positions.
    Ok(order
        .iter()
        .zip(&views)
        .map(|(&seq, e)| {
            let (mut pos, mut n) = ([0u32; 3], 0);
            for dep in deps(seq, e) {
                if let Ok(p) = order.binary_search_by(|probe| dep.cmp(probe)) {
                    if !pos[..n].contains(&(p as u32)) {
                        pos[n] = p as u32;
                        n += 1;
                    }
                }
            }
            pos[..n].sort_unstable();
            let dep_positions = pos[..n].to_vec();
            SliceEntry { pc: e.pc, inst: e.inst, dist: root_seq - seq, dep_positions }
        })
        .collect())
}

/// A ring buffer of the last *scope* dynamic instructions, with register
/// and memory last-writer maps, supporting backward-slice extraction.
///
/// This is the paper's "slicing scope": "the length of the dynamic trace
/// that is examined to construct a p-thread" (§4.4), default 1024.
#[derive(Debug)]
pub struct SliceWindow {
    scope: usize,
    ring: VecDeque<WindowEntry>,
    reg_writer: [Option<u64>; NUM_REGS],
    mem_writer: HashMap<u64, u64>,
    observed: u64,
}

impl SliceWindow {
    /// Creates a window holding the last `scope` instructions.
    ///
    /// # Errors
    ///
    /// Returns [`SliceError::ZeroScope`] if `scope` is zero.
    pub fn try_new(scope: usize) -> Result<SliceWindow, SliceError> {
        if scope == 0 {
            return Err(SliceError::ZeroScope);
        }
        Ok(SliceWindow {
            scope,
            ring: VecDeque::with_capacity(scope.min(MAX_EAGER_RING_CAPACITY)),
            reg_writer: [None; NUM_REGS],
            mem_writer: HashMap::new(),
            observed: 0,
        })
    }

    /// Infallible [`try_new`](Self::try_new).
    ///
    /// # Panics
    ///
    /// Panics if `scope` is zero.
    pub fn new(scope: usize) -> SliceWindow {
        match SliceWindow::try_new(scope) {
            Ok(w) => w,
            Err(e) => panic!("{e}"),
        }
    }

    /// The configured scope.
    pub fn scope(&self) -> usize {
        self.scope
    }

    /// Number of instructions currently held (≤ scope).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The oldest sequence number still in the window.
    fn min_seq(&self) -> u64 {
        self.ring.front().map_or(u64::MAX, |e| e.seq)
    }

    /// Pushes a dynamic instruction into the window, recording its
    /// dependences and updating the last-writer maps.
    pub fn push(&mut self, d: &DynInst) {
        let mut reg_deps = [None; 2];
        for (slot, reg) in [d.inst.rs1, d.inst.rs2].into_iter().enumerate() {
            if let Some(r) = reg {
                if !r.is_zero() {
                    reg_deps[slot] = self.reg_writer[r.index()];
                }
            }
        }
        let mut mem_dep = None;
        if d.inst.op.is_load() {
            let addr = d.addr.expect("load has address");
            let width = d.inst.op.mem_width().expect("load has width");
            mem_dep = granules(addr, width)
                .filter_map(|g| self.mem_writer.get(&g).copied())
                .max();
        }
        if let Some(def) = d.inst.def() {
            self.reg_writer[def.index()] = Some(d.seq);
        }
        if d.inst.op.is_store() {
            let addr = d.addr.expect("store has address");
            let width = d.inst.op.mem_width().expect("store has width");
            for g in granules(addr, width) {
                self.mem_writer.insert(g, d.seq);
            }
        }
        if self.ring.len() == self.scope {
            self.ring.pop_front();
        }
        self.ring.push_back(WindowEntry { seq: d.seq, pc: d.pc, inst: d.inst, reg_deps, mem_dep });

        // Periodically drop memory-writer entries that fell out of scope so
        // the map stays proportional to the write working set of the window.
        self.observed += 1;
        if self.observed.is_multiple_of(self.scope as u64 * 16) {
            let min = self.min_seq();
            self.mem_writer.retain(|_, &mut s| s >= min);
        }
    }

    fn entry(&self, seq: u64) -> Option<&WindowEntry> {
        let min = self.min_seq();
        if seq < min {
            return None;
        }
        let idx = (seq - min) as usize;
        let e = self.ring.get(idx)?;
        debug_assert_eq!(e.seq, seq);
        Some(e)
    }

    /// Extracts the backward data-dependence slice of the most recently
    /// pushed instruction (which must be the problem load), bounded to at
    /// most `max_len` instructions (including the load itself).
    ///
    /// The returned vector is root-first. The root's *memory* dependence is
    /// not followed (only its address computation matters for prefetching);
    /// loads inside the slice follow both their address computation and
    /// their feeding store, enabling store–load pair analysis downstream.
    /// When the budget runs out, the nearest (most recent) producers are
    /// kept — they make the most useful p-thread instructions.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn slice_latest(&self, max_len: usize) -> Vec<SliceEntry> {
        match self.try_slice_latest(max_len) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`slice_latest`](Self::slice_latest).
    ///
    /// # Errors
    ///
    /// Returns [`SliceError::EmptyWindow`] if no instruction has been
    /// pushed yet.
    pub fn try_slice_latest(&self, max_len: usize) -> Result<Vec<SliceEntry>, SliceError> {
        let root = self.ring.back().ok_or(SliceError::EmptyWindow)?;
        let root_seq = root.seq;
        let min_seq = self.min_seq();
        slice_from(root_seq, min_seq, max_len, |seq| {
            let e = self.entry(seq).expect("slice seq within window");
            Ok(EntryView { pc: e.pc, inst: e.inst, reg_deps: e.reg_deps, mem_dep: e.mem_dep })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_func::{run_trace, TraceConfig};
    use preexec_isa::{assemble, Program};

    /// Runs a program and slices at the final load (assumed last non-halt
    /// instruction executed before halt), returning the slice.
    fn trace_into_window(p: &Program, scope: usize) -> SliceWindow {
        let mut w = SliceWindow::new(scope);
        run_trace(p, &TraceConfig::default(), |d| w.push(d));
        w
    }

    #[test]
    fn straight_line_slice() {
        // r3 = (r1 + r2); load r4 <- 0(r3)
        let p = assemble(
            "t",
            "li r1, 0x100\nli r2, 0x20\nadd r3, r1, r2\nld r4, 0(r3)\nhalt",
        )
        .unwrap();
        let mut w = SliceWindow::new(64);
        let mut at_load: Option<Vec<SliceEntry>> = None;
        run_trace(&p, &TraceConfig::default(), |d| {
            w.push(d);
            if d.inst.op.is_load() {
                at_load = Some(w.slice_latest(16));
            }
        });
        let s = at_load.unwrap();
        // Slice: ld (root), add, li r2, li r1 — all four.
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].pc, 3); // root load
        assert_eq!(s[0].dist, 0);
        assert_eq!(s[1].pc, 2); // add
        assert_eq!(s[1].dist, 1);
        // add depends on both li's (positions 2 and 3).
        assert_eq!(s[1].dep_positions, vec![2, 3]);
        // root depends on add (position 1).
        assert_eq!(s[0].dep_positions, vec![1]);
    }

    #[test]
    fn irrelevant_instructions_excluded() {
        let p = assemble(
            "t",
            "li r1, 0x100\nli r9, 7\nadd r9, r9, r9\nld r4, 0(r1)\nhalt",
        )
        .unwrap();
        let mut w = SliceWindow::new(64);
        let mut slice = None;
        run_trace(&p, &TraceConfig::default(), |d| {
            w.push(d);
            if d.inst.op.is_load() {
                slice = Some(w.slice_latest(16));
            }
        });
        let s = slice.unwrap();
        // Only the load and `li r1` are in the address computation.
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].pc, 0);
    }

    #[test]
    fn store_load_dependence_followed_for_inner_loads() {
        // Store an address to memory, load it back, then dereference it:
        // the dereference's slice must include the store and its sources.
        let p = assemble(
            "t",
            "li r1, 0x100\n li r2, 0x4000\n sd r2, 0(r1)\n ld r3, 0(r1)\n ld r4, 0(r3)\n halt",
        )
        .unwrap();
        let mut w = SliceWindow::new(64);
        let mut slice = None;
        run_trace(&p, &TraceConfig::default(), |d| {
            w.push(d);
            if d.pc == 4 {
                slice = Some(w.slice_latest(16));
            }
        });
        let s = slice.unwrap();
        let pcs: Vec<Pc> = s.iter().map(|e| e.pc).collect();
        // root(4) <- ld(3) <- sd(2) <- li r2(1), plus li r1(0) feeding both.
        assert_eq!(pcs, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn root_memory_dependence_not_followed() {
        // A store to the loaded location must NOT enter the root's slice
        // (the root's value is irrelevant; only its address matters).
        let p = assemble(
            "t",
            "li r1, 0x100\n li r2, 99\n sd r2, 0(r1)\n ld r3, 0(r1)\n halt",
        )
        .unwrap();
        let mut w = SliceWindow::new(64);
        let mut slice = None;
        run_trace(&p, &TraceConfig::default(), |d| {
            w.push(d);
            if d.pc == 3 {
                slice = Some(w.slice_latest(16));
            }
        });
        let s = slice.unwrap();
        let pcs: Vec<Pc> = s.iter().map(|e| e.pc).collect();
        assert_eq!(pcs, vec![3, 0]); // load + li r1 only
    }

    #[test]
    fn induction_unrolling_emerges() {
        // Pointer increments accumulate: the slice of the load includes
        // successive copies of the induction `addi`.
        let p = assemble(
            "t",
            "li r1, 0x100000\n li r2, 0\n li r3, 10\n\
             top: bge r2, r3, done\n ld r4, 0(r1)\n addi r1, r1, 8\n addi r2, r2, 1\n j top\n\
             done: halt",
        )
        .unwrap();
        let mut w = SliceWindow::new(1024);
        let mut last = None;
        run_trace(&p, &TraceConfig::default(), |d| {
            w.push(d);
            if d.pc == 4 {
                last = Some(w.slice_latest(8));
            }
        });
        let s = last.unwrap();
        // Root load, then a chain of addi r1 copies (pc 5), then li r1.
        assert_eq!(s[0].pc, 4);
        assert!(s[1..].iter().take(5).all(|e| e.pc == 5));
        assert_eq!(s.len(), 8); // truncated at max_len
    }

    #[test]
    fn truncation_keeps_nearest_producers() {
        let p = assemble(
            "t",
            "li r1, 0x100000\n li r2, 0\n li r3, 50\n\
             top: bge r2, r3, done\n ld r4, 0(r1)\n addi r1, r1, 8\n addi r2, r2, 1\n j top\n\
             done: halt",
        )
        .unwrap();
        let mut w = SliceWindow::new(1024);
        let mut last = None;
        run_trace(&p, &TraceConfig::default(), |d| {
            w.push(d);
            if d.pc == 4 {
                last = Some(w.slice_latest(4));
            }
        });
        let s = last.unwrap();
        assert_eq!(s.len(), 4);
        // Distances strictly increase root-first and stay small (nearest).
        for pair in s.windows(2) {
            assert!(pair[0].dist < pair[1].dist);
        }
    }

    #[test]
    fn scope_limits_history() {
        // With a tiny scope, producers older than the window are dropped.
        let p = assemble(
            "t",
            "li r1, 0x100000\n nop\n nop\n nop\n nop\n nop\n nop\n nop\n ld r2, 0(r1)\n halt",
        )
        .unwrap();
        let mut w = SliceWindow::new(4); // li falls out of the window
        let mut slice = None;
        run_trace(&p, &TraceConfig::default(), |d| {
            w.push(d);
            if d.inst.op.is_load() {
                slice = Some(w.slice_latest(16));
            }
        });
        let s = slice.unwrap();
        assert_eq!(s.len(), 1); // only the root; its producer is out of scope
    }

    #[test]
    fn window_eviction_bounds_len() {
        let p = assemble(
            "t",
            "li r1, 0\n li r2, 1000\n top: bge r1, r2, d\n addi r1, r1, 1\n j top\n d: halt",
        )
        .unwrap();
        let w = trace_into_window(&p, 16);
        assert_eq!(w.len(), 16);
        assert_eq!(w.scope(), 16);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scope_rejected() {
        let _ = SliceWindow::new(0);
    }

    #[test]
    fn try_new_returns_typed_error() {
        assert!(matches!(SliceWindow::try_new(0), Err(crate::SliceError::ZeroScope)));
        assert!(SliceWindow::try_new(1).is_ok());
    }

    #[test]
    fn try_slice_of_empty_window_is_error() {
        let w = SliceWindow::new(8);
        assert!(matches!(
            w.try_slice_latest(4),
            Err(crate::SliceError::EmptyWindow)
        ));
    }
}
