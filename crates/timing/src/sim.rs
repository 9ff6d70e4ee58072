//! The cycle-driven simulation loop.

use crate::memsys::MemStats;
use crate::{BranchPredictor, MachineParams, MemSys, SimError};
use preexec_core::StaticPThread;
use preexec_func::{exec, Cpu};
use preexec_isa::reg::NUM_REGS;
use preexec_isa::{Inst, Op, OpClass, Program};
use preexec_mem::{Memory, MEM_GRANULE_SHIFT};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

/// What the p-threads are allowed to do — the paper's validation modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Full pre-execution: p-threads cost bandwidth and prefetch.
    #[default]
    Normal,
    /// Overhead-only, `execute` variant: p-threads execute as usual but
    /// their loads do not touch the data caches (no pre-execution effect).
    OverheadExecute,
    /// Overhead-only, `sequence` variant: p-thread instructions consume
    /// sequencing cycles and are immediately discarded.
    OverheadSequence,
    /// Latency-tolerance-only: p-threads are not charged for bandwidth.
    LatencyToleranceOnly,
}

/// Configuration of one timing run.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// The machine.
    pub machine: MachineParams,
    /// P-thread mode (ignored when no p-threads are supplied).
    pub mode: SimMode,
    /// Model a perfect L2 for the main thread (Table 1).
    pub perfect_l2: bool,
    /// Stop after this many retired main-thread instructions.
    pub max_insts: u64,
    /// Hard cycle cap (watchdog): a run that hits it ends normally with
    /// [`SimResult::timed_out`] set.
    pub max_cycles: u64,
    /// Per-launch p-thread step watchdog: a context that injects this many
    /// instructions without finishing its body is squashed with
    /// [`SquashReason::BudgetExhausted`].
    pub pthread_step_budget: usize,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            machine: MachineParams::paper_default(),
            mode: SimMode::Normal,
            perfect_l2: false,
            max_insts: u64::MAX,
            max_cycles: 4_000_000_000,
            pthread_step_budget: 4096,
        }
    }
}

/// P-thread loads at or past this address are wild speculative addresses
/// and squash the p-thread (a 48-bit virtual address space, matching
/// common 64-bit implementations). Guest memory would accept any
/// address; the guard exists so that a poisoned pointer chase is
/// *counted* as a fault instead of prefetching from it.
pub const PTHREAD_ADDR_LIMIT: u64 = 1 << 48;

/// Why a speculative p-thread was squashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SquashReason {
    /// A body instruction's opcode does not belong to the class its
    /// encoding claims (e.g. a load opcode in an ALU slot).
    InvalidOpcode,
    /// A body instruction's operands are inconsistent (missing width,
    /// missing register) — typically a corrupted slice file.
    Malformed,
    /// A load computed an address outside the speculative address space
    /// ([`PTHREAD_ADDR_LIMIT`]) — typically a poisoned live-in register.
    BadAddress,
    /// The per-launch step watchdog ran out before the body finished.
    BudgetExhausted,
}

impl fmt::Display for SquashReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SquashReason::InvalidOpcode => "invalid opcode",
            SquashReason::Malformed => "malformed instruction",
            SquashReason::BadAddress => "out-of-range address",
            SquashReason::BudgetExhausted => "step budget exhausted",
        };
        f.write_str(s)
    }
}

/// The outcome of a timing run.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Cycles simulated.
    pub cycles: u64,
    /// Main-thread instructions retired.
    pub insts: u64,
    /// Dynamic p-thread launches that got a context.
    pub launches: u64,
    /// Launch requests dropped because no context was free.
    pub drops: u64,
    /// P-thread instructions injected.
    pub pthread_insts: u64,
    /// Conditional-branch lookups.
    pub branches: u64,
    /// Branch mispredictions (direction or target).
    pub mispredicts: u64,
    /// P-thread contexts squashed on a speculative fault or watchdog
    /// (their prior prefetches remain — squash is recovery, not rollback).
    pub squashes: u64,
    /// Squash breakdown by reason.
    pub squash_reasons: BTreeMap<SquashReason, u64>,
    /// Whether the run hit the `max_cycles` watchdog before the program
    /// drained.
    pub timed_out: bool,
    /// Memory-system statistics.
    pub mem: MemStats,
}

impl SimResult {
    /// Main-thread instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Average dynamic p-thread length (injected instructions per launch).
    pub fn avg_pthread_len(&self) -> f64 {
        if self.launches == 0 {
            0.0
        } else {
            self.pthread_insts as f64 / self.launches as f64
        }
    }

    /// Instruction overhead: p-thread instructions per main-thread
    /// instruction (the figures' "instruction overhead" tick).
    pub fn overhead(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.pthread_insts as f64 / self.insts as f64
        }
    }

    /// Misses covered (fully + partially) by p-threads.
    pub fn covered(&self) -> u64 {
        self.mem.covered_full + self.mem.covered_partial
    }

    /// The program's total would-be L2 misses in this run: uncovered
    /// misses plus covered ones.
    pub fn total_would_be_misses(&self) -> u64 {
        self.mem.l2_misses + self.covered()
    }

    /// Squashes attributed to `reason`.
    pub fn squash_count(&self, reason: SquashReason) -> u64 {
        self.squash_reasons.get(&reason).copied().unwrap_or(0)
    }
}

/// One live p-thread context.
struct Ctx {
    /// The index of its p-thread in the simulation's `pthreads`.
    pthread: usize,
    next: usize,
    regs: [i64; NUM_REGS],
    ready: [u64; NUM_REGS],
    burst_left: u32,
    next_burst: u64,
    store_buffer: HashMap<u64, (i64, u8)>,
}

/// Per-cycle event counts from the current cycle on (DESIGN.md §7.5).
///
/// The counts sit in a ring whose length is a power of two:
/// `ring[(head + i) & (ring.len() - 1)]` is the number of events booked at
/// cycle `now + i` for `i < len`, and every slot from offset `len` on is
/// zero. `pending` is the number booked after `now`. Every booking lands
/// after the current cycle, so the pending count is an occupancy: as the
/// issue ledger it counts the instructions waiting in reservation
/// stations to issue, and as the p-thread register calendar the registers
/// whose values have not yet completed. A fill queued on the bus has no
/// fixed horizon, so a booking past the ring's end doubles the ring.
#[derive(Default)]
struct Calendar {
    now: u64,
    ring: Vec<u32>,
    head: usize,
    len: usize,
    pending: usize,
}

impl Calendar {
    /// The ring slot of cycle `now + i`.
    #[inline]
    fn slot(&self, i: usize) -> usize {
        (self.head + i) & (self.ring.len() - 1)
    }

    /// The events booked at cycle `now + i`.
    #[inline]
    fn count(&self, i: usize) -> u32 {
        self.ring[self.slot(i)]
    }

    /// Moves the current cycle forward to `now`: events at or before it
    /// are no longer pending.
    fn advance(&mut self, now: u64) {
        while self.now < now && self.len > 0 {
            self.ring[self.head] = 0;
            self.head = self.slot(1);
            self.len -= 1;
            self.now += 1;
            if self.len > 0 {
                self.pending -= self.ring[self.head] as usize;
            }
        }
        self.now = now;
    }

    /// Books one event at cycle `at`.
    ///
    /// # Panics
    ///
    /// Panics unless `at` lies after the current cycle.
    fn book(&mut self, at: u64) {
        let i = self.offset(at);
        if i >= self.ring.len() {
            self.grow(i + 1);
        }
        let slot = self.slot(i);
        self.ring[slot] += 1;
        self.len = self.len.max(i + 1);
        self.pending += 1;
    }

    /// Re-lays the ring out from slot 0 with room for at least `min_len`
    /// cycles.
    fn grow(&mut self, min_len: usize) {
        let size = min_len.next_power_of_two().max(2 * self.ring.len());
        let mut ring = vec![0; size];
        for (i, n) in ring.iter_mut().enumerate().take(self.len) {
            *n = self.count(i);
        }
        self.ring = ring;
        self.head = 0;
    }

    /// Books the first cycle at or after `earliest` with fewer than
    /// `width` bookings and returns it: at most `width` instructions may
    /// begin execution in any cycle, shared by all threads.
    ///
    /// # Panics
    ///
    /// Panics unless `earliest` lies after the current cycle.
    fn schedule(&mut self, earliest: u64, width: u32) -> u64 {
        let mut i = self.offset(earliest);
        while i < self.len && self.count(i) >= width {
            i += 1;
        }
        let at = self.now + i as u64;
        self.book(at);
        at
    }

    /// The index of cycle `at`, which must lie after the current cycle.
    fn offset(&self, at: u64) -> usize {
        assert!(
            at > self.now,
            "event at cycle {at} is not after cycle {}",
            self.now
        );
        (at - self.now) as usize
    }

    /// Events booked after the current cycle.
    fn pending(&self) -> usize {
        self.pending
    }

    /// The first cycle after the current one and before `before` with a
    /// booking.
    fn next_event_before(&self, before: u64) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        let span = before.saturating_sub(self.now + 1);
        let end = span.saturating_add(1).min(self.len as u64) as usize;
        (1..end)
            .find(|&i| self.count(i) > 0)
            .map(|i| self.now + i as u64)
    }
}

/// The main thread's store queue: its youngest stores, oldest first, as
/// `(address, width, completion)`, with a count of queued stores per
/// 8-byte granule (DESIGN.md §7.5).
///
/// A load can forward only from a store that holds its first byte, so
/// only from a store that touches the load's granule. The counts sit in a
/// table indexed by the granule's low bits. A load whose slot counts no
/// store skips the scan; a slot shared by another granule costs a scan
/// that finds nothing, never a wrong answer.
struct StoreQueue {
    stores: VecDeque<(u64, u8, u64)>,
    per_granule: Vec<u32>,
}

impl StoreQueue {
    /// Slots in the granule count table.
    const SLOTS: usize = 1024;

    fn new() -> StoreQueue {
        StoreQueue {
            stores: VecDeque::new(),
            per_granule: vec![0; StoreQueue::SLOTS],
        }
    }

    /// The count slot of the granule holding `addr`.
    #[inline]
    fn slot(addr: u64) -> usize {
        (addr >> MEM_GRANULE_SHIFT) as usize & (StoreQueue::SLOTS - 1)
    }

    /// Applies `f` to the count of each of the one or two granules a
    /// `width`-byte store at `addr` touches.
    #[inline]
    fn count(&mut self, addr: u64, width: u8, f: impl Fn(&mut u32)) {
        let first = StoreQueue::slot(addr);
        let last = StoreQueue::slot(addr.wrapping_add(u64::from(width.max(1)) - 1));
        f(&mut self.per_granule[first]);
        if last != first {
            f(&mut self.per_granule[last]);
        }
    }

    fn len(&self) -> usize {
        self.stores.len()
    }

    /// The completion cycle of the oldest store.
    fn front_done(&self) -> Option<u64> {
        self.stores.front().map(|&(_, _, done)| done)
    }

    fn push(&mut self, addr: u64, width: u8, done: u64) {
        self.count(addr, width, |c| *c += 1);
        self.stores.push_back((addr, width, done));
    }

    fn pop_front(&mut self) {
        if let Some((addr, width, _)) = self.stores.pop_front() {
            self.count(addr, width, |c| *c -= 1);
        }
    }

    /// Store-to-load forwarding: the completion of the youngest queued
    /// store that holds all `width` bytes of the load at `addr`. Bytes
    /// wrap at 2^64, as addresses do, so a store at `sa` of `sw` bytes
    /// holds the load when `addr − sa (mod 2^64) ≤ sw − width`.
    #[inline]
    fn forward(&self, addr: u64, width: u8) -> Option<u64> {
        if self.per_granule[StoreQueue::slot(addr)] == 0 {
            return None;
        }
        self.stores
            .iter()
            .rev()
            .find(|&&(sa, sw, _)| sw >= width && addr.wrapping_sub(sa) <= u64::from(sw - width))
            .map(|&(_, _, done)| done)
    }
}

/// Runs `program` on the timing model, pre-executing `pthreads`.
///
/// Returns cycle counts, retirement statistics, p-thread launch/injection
/// statistics, branch statistics and the memory system's coverage
/// accounting. Pass an empty `pthreads` slice for an unassisted (base)
/// run.
///
/// # Panics
///
/// Panics on an invalid machine configuration or a malformed main-thread
/// instruction — use [`try_simulate`] to get those as typed errors.
/// P-thread faults never panic in either form: they squash the context
/// and are counted in [`SimResult::squashes`].
pub fn simulate(program: &Program, pthreads: &[StaticPThread], config: &SimConfig) -> SimResult {
    match try_simulate(program, pthreads, config) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Whether two p-thread sets simulate alike: [`try_simulate`] renders the
/// same [`SimResult`] for either under one program and one [`SimConfig`].
///
/// The simulator reads each p-thread's `trigger` and `body`, in order,
/// and nothing else: `targets`, `dc_trig`, `dc_ptcm` and `advantage` are
/// the selection's bookkeeping, and the order matters because launches
/// at one trigger take free contexts in `pthreads` order. So the sets
/// are alike when they have the same length and each pair has the same
/// trigger and the same body. The simulator is deterministic, so a
/// result simulated for one set stands for the other.
pub fn simulate_alike(a: &[StaticPThread], b: &[StaticPThread]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.trigger == y.trigger && x.body == y.body)
}

/// Fallible [`simulate`].
///
/// # Errors
///
/// Returns [`SimError::Machine`] for an invalid configuration and
/// [`SimError::Exec`] if the *main thread* executes a malformed
/// instruction (p-thread faults squash instead; see [`SimResult`]).
pub fn try_simulate(
    program: &Program,
    pthreads: &[StaticPThread],
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    config.machine.try_validate()?;
    let m = &config.machine;
    let mut cpu = Cpu::new(program);
    let mut mem = Memory::from_program(program);
    let mut memsys = MemSys::new(*m);
    memsys.set_perfect_l2(config.perfect_l2);
    let mut bp = BranchPredictor::new();
    // Issue bookings; the ones after the current cycle occupy
    // reservation stations.
    let mut slots = Calendar::default();

    // P-thread indices by trigger PC, in `pthreads` order. The table is
    // sized by the program, not by the triggers: a PC past the end of the
    // code is renamed only on the halting step, which scans instead.
    let mut by_trigger: Vec<Vec<usize>> = vec![Vec::new(); program.len()];
    for (i, p) in pthreads.iter().enumerate() {
        if let Some(list) = by_trigger.get_mut(p.trigger as usize) {
            list.push(i);
        }
    }

    let mut rob: VecDeque<u64> = VecDeque::with_capacity(m.rob_entries);
    let mut reg_ready = [0u64; NUM_REGS];
    let mut store_queue = StoreQueue::new();
    let mut contexts: Vec<Option<Ctx>> = (0..m.pthread_contexts).map(|_| None).collect();
    // Completion cycles of p-thread register values still in flight.
    let mut pthread_regs = Calendar::default();

    let mut r = SimResult::default();
    let mut cycle: u64 = 0;
    let mut rename_stall_until: u64 = 0;

    loop {
        // 1. Retire main-thread instructions in order.
        let mut retired_now = 0;
        while retired_now < m.width {
            match rob.front() {
                Some(&done) if done <= cycle => {
                    rob.pop_front();
                    r.insts += 1;
                    retired_now += 1;
                }
                _ => break,
            }
        }

        // 2. Free reservation stations whose instructions have issued, and
        // p-thread registers whose values have completed.
        slots.advance(cycle);
        pthread_regs.advance(cycle);

        let mut bandwidth = m.width;
        let injected_before = r.pthread_insts;

        // 3. P-thread injection: bursts of `pthread_burst` per context.
        // Injection is sandboxed: a speculative fault (invalid opcode,
        // malformed operands, wild address) or an exhausted step budget
        // squashes the context — counted, never propagated.
        for slot in contexts.iter_mut() {
            let free_bandwidth = config.mode == SimMode::LatencyToleranceOnly;
            let Some(ctx) = slot else { continue };
            let body = &pthreads[ctx.pthread].body;
            if cycle >= ctx.next_burst && ctx.burst_left == 0 {
                ctx.burst_left = m.pthread_burst;
                ctx.next_burst = cycle + m.pthread_burst as u64;
            }
            let mut squashed: Option<SquashReason> = None;
            while ctx.burst_left > 0 && ctx.next < body.len() {
                if !free_bandwidth && bandwidth == 0 {
                    break;
                }
                if config.mode != SimMode::OverheadSequence {
                    if slots.pending() >= m.rs_entries {
                        break;
                    }
                    if pthread_regs.pending() >= m.pthread_phys_regs {
                        break;
                    }
                }
                if ctx.next >= config.pthread_step_budget {
                    squashed = Some(SquashReason::BudgetExhausted);
                    break;
                }
                let inst = body[ctx.next];
                let outcome = inject_pthread_inst(
                    ctx,
                    inst,
                    cycle,
                    config.mode,
                    m,
                    &mut memsys,
                    &mem,
                    &mut slots,
                    &mut pthread_regs,
                );
                // The faulting instruction still consumed sequencing
                // bandwidth — it was fetched and renamed before the fault.
                r.pthread_insts += 1;
                ctx.next += 1;
                ctx.burst_left -= 1;
                if !free_bandwidth {
                    bandwidth -= 1;
                }
                if let Err(reason) = outcome {
                    squashed = Some(reason);
                    break;
                }
            }
            if let Some(reason) = squashed {
                r.squashes += 1;
                *r.squash_reasons.entry(reason).or_insert(0) += 1;
                *slot = None;
            } else if ctx.next >= body.len() {
                // All instructions renamed: the context frees (paper §4.1).
                *slot = None;
            }
        }

        // 4. Main-thread rename/dispatch.
        while bandwidth > 0 && !cpu.halted() && cycle >= rename_stall_until {
            if rob.len() >= m.rob_entries || slots.pending() >= m.rs_entries {
                break;
            }
            // Structural store-queue check before committing to the step;
            // the next instruction is decoded only while the queue is full.
            if store_queue.len() >= m.store_queue_entries
                && program.get(cpu.pc()).is_some_and(|i| i.op.is_store())
            {
                match store_queue.front_done() {
                    Some(done) if done <= cycle => store_queue.pop_front(),
                    _ => break,
                }
            }

            let out = cpu.try_step(program, &mut mem)?;
            let inst = out.inst;
            let ready = inst
                .uses()
                .map(|reg| reg_ready[reg.index()])
                .fold(0u64, u64::max);
            let earliest = ready.max(cycle + 1);
            let mut mispredicted = false;

            let completion = match inst.class() {
                OpClass::IntAlu | OpClass::IntMul => {
                    let issue = slots.schedule(earliest, m.width);
                    issue + inst.op.exec_latency() as u64
                }
                OpClass::Load => {
                    let issue = slots.schedule(earliest, m.width);
                    let t = issue + m.agen_latency;
                    let addr = out.addr.expect("load has address");
                    let width = inst.op.mem_width().expect("load width");
                    if let Some(fwd) = store_queue.forward(addr, width) {
                        fwd.max(t + m.store_forward_latency)
                    } else {
                        memsys.main_load(t, addr)
                    }
                }
                OpClass::Store => {
                    let issue = slots.schedule(earliest, m.width);
                    let t = issue + m.agen_latency;
                    let addr = out.addr.expect("store has address");
                    let width = inst.op.mem_width().expect("store width");
                    let done = memsys.main_store(t, addr);
                    store_queue.push(addr, width, done);
                    if store_queue.len() > m.store_queue_entries {
                        store_queue.pop_front();
                    }
                    done
                }
                OpClass::Branch => {
                    let issue = slots.schedule(earliest, m.width);
                    r.branches += 1;
                    let correct = bp.predict_and_update(out.pc, out.taken, inst.target);
                    let done = issue + 1;
                    if !correct {
                        r.mispredicts += 1;
                        mispredicted = true;
                        rename_stall_until = done + m.mispredict_penalty();
                    }
                    done
                }
                OpClass::Jump => {
                    let issue = slots.schedule(earliest, m.width);
                    let done = issue + 1;
                    if inst.op == Op::Jr {
                        let correct = bp.predict_indirect(out.pc, cpu.pc());
                        if !correct {
                            r.mispredicts += 1;
                            mispredicted = true;
                            rename_stall_until = done + m.mispredict_penalty();
                        }
                    }
                    done
                }
                OpClass::Other => cycle + 1,
            };

            rob.push_back(completion);
            if let Some(def) = inst.def() {
                reg_ready[def.index()] = completion;
            }
            bandwidth -= 1;

            // P-thread launch at trigger rename.
            let past_end: Vec<usize>;
            let launched = match by_trigger.get(out.pc as usize) {
                Some(list) => list,
                None => {
                    past_end = (0..pthreads.len())
                        .filter(|&i| pthreads[i].trigger == out.pc)
                        .collect();
                    &past_end
                }
            };
            for &pi in launched {
                match contexts.iter_mut().find(|c| c.is_none()) {
                    Some(free) => {
                        r.launches += 1;
                        // Seed values are read through the rename map:
                        // a live-in becomes usable when its main-thread
                        // producer completes, not at launch. Injection
                        // folds ready times from its own cycle, which is
                        // never before the launch, so they need no clamp.
                        *free = Some(Ctx {
                            pthread: pi,
                            next: 0,
                            regs: cpu.snapshot_regs(),
                            ready: reg_ready,
                            burst_left: 0,
                            next_burst: cycle,
                            store_buffer: HashMap::new(),
                        });
                    }
                    None => r.drops += 1,
                }
            }
            if mispredicted || out.halted {
                break;
            }
        }

        cycle += 1;
        let drained = cpu.halted() && rob.is_empty();
        if cycle >= config.max_cycles && !drained {
            // Watchdog: the run did not drain within its cycle budget.
            r.timed_out = true;
            break;
        }
        if drained || r.insts >= config.max_insts {
            break;
        }

        // 5. Idle-cycle skip: after an iteration that retired, renamed and
        // injected nothing and left no p-thread context live, every
        // following iteration changes nothing but the cycle until the next
        // wake-up event (DESIGN.md §7.5).
        let idle = retired_now == 0
            && bandwidth == m.width
            && r.pthread_insts == injected_before
            && contexts.iter().all(Option::is_none);
        if idle {
            let wake = idle_wake(&rob, rename_stall_until, &slots, &store_queue, cycle);
            if let Some(wake) = wake {
                if wake >= config.max_cycles {
                    // The watchdog fires first, at exactly `max_cycles`.
                    cycle = config.max_cycles;
                    r.timed_out = true;
                    break;
                }
                cycle = wake;
            }
        }
    }

    r.cycles = cycle;
    r.mem = *memsys.stats();
    Ok(r)
}

/// The first cycle at or after `cycle` at which an idle machine can act
/// again: the ROB head completes, the rename stall ends, an instruction
/// issues (freeing its reservation station) or the store-queue head
/// completes. Events before `cycle` came due during the idle iteration
/// and blocked nothing.
fn idle_wake(
    rob: &VecDeque<u64>,
    rename_stall_until: u64,
    slots: &Calendar,
    store_queue: &StoreQueue,
    cycle: u64,
) -> Option<u64> {
    let others = [
        rob.front().copied(),
        Some(rename_stall_until),
        store_queue.front_done(),
    ]
    .into_iter()
    .flatten()
    .filter(|&t| t >= cycle)
    .min();
    // The calendar is searched only up to the earliest other event.
    slots
        .next_event_before(others.unwrap_or(u64::MAX))
        .or(others)
}

/// Injects one p-thread instruction: functional execution on the context's
/// private registers (with a private store buffer), then timing.
///
/// Speculative faults are returned as the [`SquashReason`] that should
/// kill the context. The faulting instruction has already consumed its
/// sequencing slot by the time the fault is detected, mirroring a real
/// pipeline where squash happens at execute.
#[allow(clippy::too_many_arguments)]
fn inject_pthread_inst(
    ctx: &mut Ctx,
    inst: Inst,
    cycle: u64,
    mode: SimMode,
    m: &MachineParams,
    memsys: &mut MemSys,
    mem: &Memory<'_>,
    slots: &mut Calendar,
    pthread_regs: &mut Calendar,
) -> Result<(), SquashReason> {
    if mode == SimMode::OverheadSequence {
        return Ok(()); // sequenced and discarded
    }
    let ready = inst
        .uses()
        .map(|reg| ctx.ready[reg.index()])
        .fold(cycle, u64::max);
    let issue = slots.schedule(ready.max(cycle + 1), m.width);

    let a = inst.rs1.map_or(0, |r| ctx.regs[r.index()]);
    let b = inst.rs2.map_or(0, |r| ctx.regs[r.index()]);
    let mut completion = issue + inst.op.exec_latency() as u64;
    let mut result = 0i64;
    let mut writes_def = true;

    match inst.class() {
        OpClass::IntAlu | OpClass::IntMul => {
            result =
                exec::try_alu(inst.op, a, b, inst.imm).map_err(|_| SquashReason::InvalidOpcode)?;
        }
        OpClass::Load => {
            let addr = exec::effective_address(a, inst.imm);
            if addr >= PTHREAD_ADDR_LIMIT {
                // A poisoned pointer chase: squash instead of prefetching
                // from a wild address.
                return Err(SquashReason::BadAddress);
            }
            let width = inst.op.mem_width().ok_or(SquashReason::Malformed)?;
            let t = issue + m.agen_latency;
            // Forward from the p-thread's own speculative store of the
            // same width; otherwise read memory.
            (result, completion) = match ctx.store_buffer.get(&addr) {
                Some(&(v, w)) if w == width => (v, t + m.store_forward_latency),
                _ => (
                    exec::load_value(mem, inst.op, addr).ok_or(SquashReason::Malformed)?,
                    pthread_mem_access(mode, memsys, t, addr),
                ),
            };
        }
        OpClass::Store => {
            // Speculative: buffered locally, never written to memory.
            let addr = exec::effective_address(a, inst.imm);
            let width = inst.op.mem_width().ok_or(SquashReason::Malformed)?;
            ctx.store_buffer.insert(addr, (b, width));
            completion = issue + m.agen_latency + 1;
            writes_def = false;
        }
        // Bodies are control-less; anything else is inert (including
        // jal's link write — the sandbox must not disturb seeded state).
        OpClass::Branch | OpClass::Jump | OpClass::Other => writes_def = false,
    }

    if writes_def {
        if let Some(def) = inst.def() {
            ctx.regs[def.index()] = result;
            ctx.ready[def.index()] = completion;
            pthread_regs.book(completion);
        }
    }
    Ok(())
}

fn pthread_mem_access(mode: SimMode, memsys: &mut MemSys, t: u64, addr: u64) -> u64 {
    match mode {
        SimMode::OverheadExecute => memsys.pthread_load_inert(t),
        _ => memsys.pthread_load(t, addr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_core::Advantage;
    use preexec_isa::{assemble, Pc, Reg};
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The issue ledger the calendar replaced: per-cycle counts in a map,
    /// pruned of past cycles every 65 536 cycles.
    struct MapLedger {
        counts: HashMap<u64, u32>,
        width: u32,
        last_prune: u64,
    }

    impl MapLedger {
        fn schedule(&mut self, earliest: u64, now: u64) -> u64 {
            let mut c = earliest;
            loop {
                let n = self.counts.entry(c).or_insert(0);
                if *n < self.width {
                    *n += 1;
                    break;
                }
                c += 1;
            }
            if now > self.last_prune + 65536 {
                self.counts.retain(|&k, _| k >= now);
                self.last_prune = now;
            }
            c
        }
    }

    proptest! {
        /// As the issue ledger, the calendar books the cycles the map
        /// ledger books, and its pending count and next event are those of
        /// a min-heap of the issue cycles popped up to the current cycle
        /// (the reservation stations it replaced). As the p-thread
        /// register calendar, it tracks a heap of completion cycles.
        #[test]
        fn calendar_matches_heap_and_map_ledger(
            width in 1u32..4,
            steps in prop::collection::vec(
                (0u64..8, prop::collection::vec((any::<bool>(), 1u64..40), 0..6)),
                1..150
            )
        ) {
            let mut slots = Calendar::default();
            let mut regs = Calendar::default();
            let mut ledger = MapLedger {
                counts: HashMap::new(),
                width,
                last_prune: 0,
            };
            let mut rs: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
            let mut reg_heap: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
            let mut now = 0u64;
            for (jump, bookings) in steps {
                // Mostly the next cycle; sometimes an idle skip, rarely a
                // jump past the map ledger's prune horizon.
                now += match jump {
                    0..=4 => 1,
                    5 | 6 => 1 + jump * 7,
                    _ => 70_000,
                };
                slots.advance(now);
                regs.advance(now);
                for heap in [&mut rs, &mut reg_heap] {
                    while matches!(heap.peek(), Some(&Reverse(t)) if t <= now) {
                        heap.pop();
                    }
                }
                prop_assert_eq!(slots.pending(), rs.len());
                prop_assert_eq!(regs.pending(), reg_heap.len());
                let next = rs.peek().map(|&Reverse(t)| t);
                prop_assert_eq!(slots.next_event_before(u64::MAX), next);
                let before = now + 1 + jump * 3;
                prop_assert_eq!(slots.next_event_before(before), next.filter(|&t| t < before));
                prop_assert_eq!(
                    regs.next_event_before(u64::MAX),
                    reg_heap.peek().map(|&Reverse(t)| t)
                );
                for (issue, delta) in bookings {
                    if issue {
                        let at = slots.schedule(now + delta, width);
                        prop_assert_eq!(at, ledger.schedule(now + delta, now));
                        rs.push(Reverse(at));
                    } else {
                        regs.book(now + delta);
                        reg_heap.push(Reverse(now + delta));
                    }
                }
                prop_assert_eq!(slots.pending(), rs.len());
                prop_assert_eq!(regs.pending(), reg_heap.len());
            }
        }

        /// The store queue forwards what a plain scan of its stores
        /// forwards: the youngest store that holds every byte of the load,
        /// as sets of addresses that wrap at 2^64. Accesses cluster on
        /// granule edges, on slots shared by granules 8 KB apart, and on
        /// the top of the address space; the queue keeps its youngest
        /// `cap` stores, so counts are also taken back out.
        #[test]
        fn store_queue_forwards_what_a_plain_scan_forwards(
            cap in 1usize..12,
            ops in prop::collection::vec(
                (any::<bool>(), 0usize..5, -12i64..12, 0usize..3, 0u64..1000),
                1..200
            )
        ) {
            let anchors = [0u64, 0x1000, 0x1000 + 8 * StoreQueue::SLOTS as u64, u64::MAX - 3, 0x7ff8];
            let mut queue = StoreQueue::new();
            let mut plain: VecDeque<(u64, u8, u64)> = VecDeque::new();
            for (i, &(store, at, delta, width, done)) in ops.iter().enumerate() {
                let addr = anchors[at].wrapping_add_signed(delta);
                let width = [1u8, 4, 8][width];
                if store {
                    queue.push(addr, width, done);
                    plain.push_back((addr, width, done));
                    if plain.len() > cap {
                        queue.pop_front();
                        plain.pop_front();
                    }
                } else {
                    let holds = |&&(sa, sw, _): &&(u64, u8, u64)| {
                        (0..u64::from(width)).all(|k| {
                            (0..u64::from(sw)).any(|j| sa.wrapping_add(j) == addr.wrapping_add(k))
                        })
                    };
                    let want = plain.iter().rev().find(holds).map(|&(_, _, d)| d);
                    prop_assert_eq!(queue.forward(addr, width), want, "load {} at {:#x}", i, addr);
                }
                prop_assert_eq!(queue.len(), plain.len());
                prop_assert_eq!(queue.front_done(), plain.front().map(|&(_, _, d)| d));
            }
            while queue.len() > 0 {
                queue.pop_front();
            }
            prop_assert!(queue.per_granule.iter().all(|&c| c == 0));
        }
    }

    #[test]
    fn a_load_that_wraps_past_the_top_forwards_only_from_a_store_holding_its_bytes() {
        let mut queue = StoreQueue::new();
        // A byte in the load's granule makes the queue scan. The eight
        // bytes at address 0 hold none of the four bytes at
        // `u64::MAX - 1`: two at the top, then two at 0 and 1.
        queue.push(u64::MAX - 7, 1, 50);
        queue.push(0, 8, 100);
        assert_eq!(queue.forward(u64::MAX - 1, 4), None);
        // A store that wraps the same way holds them.
        queue.push(u64::MAX - 3, 8, 200);
        assert_eq!(queue.forward(u64::MAX - 1, 4), Some(200));
        assert_eq!(queue.forward(0, 4), Some(200));
        assert_eq!(queue.forward(2, 4), Some(100));
    }

    #[test]
    #[should_panic(expected = "not after cycle")]
    fn calendar_rejects_a_booking_at_the_current_cycle() {
        let mut c = Calendar::default();
        c.advance(10);
        c.book(10);
    }

    fn run(src: &str) -> SimResult {
        let p = assemble("t", src).unwrap();
        simulate(&p, &[], &SimConfig::default())
    }

    /// A loop streaming over memory at 64 B (one L2 line per iteration),
    /// with a dependent ALU chain per iteration so the memory bus has
    /// headroom (otherwise the stream saturates the bus and prefetching
    /// cannot help — the paper's bus-contention effect).
    const STREAM: &str = "
        li r1, 0x100000
        li r2, 0
        li r3, 2048
    top:
        bge r2, r3, done
        ld  r4, 0(r1)
        add r9, r9, r4
        addi r9, r9, 1
        addi r9, r9, 1
        addi r9, r9, 1
        addi r9, r9, 1
        addi r9, r9, 1
        addi r9, r9, 1
        addi r9, r9, 1
        addi r9, r9, 1
        addi r9, r9, 1
        addi r9, r9, 1
        addi r1, r1, 64
        addi r2, r2, 1
        j top
    done:
        halt";

    /// The natural p-thread for STREAM: triggered by the induction addi,
    /// runs several iterations ahead.
    fn stream_pthread(unroll: usize) -> StaticPThread {
        let mut body = Vec::new();
        for _ in 0..unroll {
            body.push(Inst::itype(Op::Addi, Reg::new(1), Reg::new(1), 64));
        }
        body.push(Inst::load(Op::Ld, Reg::new(4), Reg::new(1), 0));
        StaticPThread {
            trigger: 5,
            targets: vec![4],
            body,
            dc_trig: 2048,
            dc_ptcm: 2048,
            advantage: Advantage {
                scdh_pt: 0.0,
                scdh_mt: 0.0,
                lt: 70.0,
                oh: 0.0,
                lt_agg: 0.0,
                oh_agg: 0.0,
                adv_agg: 1.0,
                full_coverage: true,
            },
        }
    }

    #[test]
    fn alu_loop_ipc_reasonable() {
        let r = run("li r1, 10000\nli r2, 0\ntop: addi r2, r2, 1\nblt r2, r1, top\nhalt");
        let ipc = r.ipc();
        // A 2-instruction dependent loop on an 8-wide machine: limited by
        // the addi chain (1/cycle) -> about 2 IPC, minus predictor warmup.
        assert!(ipc > 1.0 && ipc < 4.0, "ipc {ipc}");
    }

    /// A pointer chase through a random permutation — the paper's
    /// archetypal problem load: addresses are serialized (no MLP) and
    /// defeat address prediction. Each iteration also does a dependent
    /// ALU chain, which is the main-thread work a p-thread gets to skip.
    fn chase_program(hops: i64) -> preexec_isa::Program {
        use preexec_isa::ProgramBuilder;
        const ENTRIES: usize = 1 << 16; // 512 KB table, 2x the L2
        const BASE: u64 = 0x100000;
        // Single-cycle random permutation via an LCG-driven Sattolo shuffle.
        let mut perm: Vec<u64> = (0..ENTRIES as u64).collect();
        let mut x: u64 = 0x1234_5678_9abc_def0;
        for i in (1..ENTRIES).rev() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (x >> 33) as usize % i;
            perm.swap(i, j);
        }
        let mut bytes = vec![0u8; ENTRIES * 8];
        for (i, &next) in perm.iter().enumerate() {
            bytes[i * 8..i * 8 + 8].copy_from_slice(&next.to_le_bytes());
        }
        let mut b = ProgramBuilder::new("chase");
        let (tbl, i, n, cur, tmp, acc) = (
            Reg::new(1),
            Reg::new(2),
            Reg::new(3),
            Reg::new(4),
            Reg::new(5),
            Reg::new(9),
        );
        b.li(tbl, BASE as i64);
        b.li(i, 0);
        b.li(n, hops);
        b.li(cur, 0);
        b.label("top");
        b.bge(i, n, "done");
        b.sll(tmp, cur, 3);
        b.add(tmp, tmp, tbl);
        b.ld(cur, 0, tmp); // cur = perm[cur]: the problem load
        b.add(acc, acc, cur);
        for _ in 0..8 {
            b.addi(acc, acc, 1); // dependent main-thread work
        }
        b.addi(i, i, 1);
        b.j("top");
        b.label("done");
        b.halt();
        b.data(BASE, bytes);
        b.build().unwrap()
    }

    /// The natural chase p-thread: triggered at the problem load, its body
    /// chases `k` nodes ahead, skipping the main thread's ALU work.
    fn chase_pthread(k: usize) -> StaticPThread {
        let (tbl, cur, tmp) = (Reg::new(1), Reg::new(4), Reg::new(5));
        let mut body = Vec::new();
        for _ in 0..k {
            body.push(Inst::itype(Op::Sll, tmp, cur, 3));
            body.push(Inst::rtype(Op::Add, tmp, tmp, tbl));
            body.push(Inst::load(Op::Ld, cur, tmp, 0));
        }
        StaticPThread {
            trigger: 7, // the chase load's PC in chase_program
            targets: vec![7],
            body,
            dc_trig: 0,
            dc_ptcm: 0,
            advantage: Advantage {
                scdh_pt: 0.0,
                scdh_mt: 0.0,
                lt: 70.0,
                oh: 0.0,
                lt_agg: 0.0,
                oh_agg: 0.0,
                adv_agg: 1.0,
                full_coverage: true,
            },
        }
    }

    #[test]
    fn pointer_chase_is_memory_bound() {
        let p = chase_program(1500);
        let r = simulate(&p, &[], &SimConfig::default());
        assert!(r.ipc() < 0.5, "serialized misses must hurt: {}", r.ipc());
        assert!(r.mem.l2_misses > 1200, "misses {}", r.mem.l2_misses);
    }

    #[test]
    fn perfect_l2_is_faster() {
        let p = chase_program(1500);
        let base = simulate(&p, &[], &SimConfig::default());
        let perfect = simulate(
            &p,
            &[],
            &SimConfig {
                perfect_l2: true,
                ..SimConfig::default()
            },
        );
        assert!(
            perfect.ipc() > 2.0 * base.ipc(),
            "{} vs {}",
            perfect.ipc(),
            base.ipc()
        );
        assert_eq!(perfect.mem.l2_misses, 0);
    }

    #[test]
    fn pthreads_cover_misses_and_speed_up() {
        let p = chase_program(1500);
        let base = simulate(&p, &[], &SimConfig::default());
        let assisted = simulate(&p, &[chase_pthread(4)], &SimConfig::default());
        assert!(assisted.launches > 1000, "launches {}", assisted.launches);
        assert!(
            assisted.covered() > base.mem.l2_misses / 4,
            "covered {} of {}",
            assisted.covered(),
            base.mem.l2_misses
        );
        assert!(
            assisted.ipc() > 1.1 * base.ipc(),
            "pre-execution should help: {} vs {}",
            assisted.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn only_triggers_and_bodies_in_order_reach_the_simulator() {
        let p = chase_program(600);
        let set = vec![chase_pthread(4), chase_pthread(2)];
        let run = |pthreads: &[StaticPThread]| {
            format!("{:?}", simulate(&p, pthreads, &SimConfig::default()))
        };
        let mut relabelled = set.clone();
        for pt in &mut relabelled {
            pt.targets = vec![0, 1, 2];
            pt.dc_trig += 17;
            pt.dc_ptcm = 3;
            pt.advantage.adv_agg = -5.0;
            pt.advantage.full_coverage = false;
        }
        assert!(simulate_alike(&set, &relabelled));
        assert_eq!(run(&relabelled), run(&set));

        let mut edited = set.clone();
        edited[1].body[0].imm += 1;
        assert!(!simulate_alike(&set, &edited));
        let swapped = vec![set[1].clone(), set[0].clone()];
        assert!(!simulate_alike(&set, &swapped));
        assert!(!simulate_alike(&set, &set[..1]));
    }

    #[test]
    fn deeper_chasing_gives_more_coverage() {
        let p = chase_program(1500);
        let shallow = simulate(&p, &[chase_pthread(1)], &SimConfig::default());
        let deep = simulate(&p, &[chase_pthread(4)], &SimConfig::default());
        assert!(
            deep.mem.covered_full >= shallow.mem.covered_full,
            "deeper lookahead must not fully-cover fewer: {} vs {}",
            deep.mem.covered_full,
            shallow.mem.covered_full
        );
    }

    #[test]
    fn overhead_modes_do_not_prefetch() {
        let p = assemble("t", STREAM).unwrap();
        let pt = stream_pthread(4);
        for mode in [SimMode::OverheadExecute, SimMode::OverheadSequence] {
            let r = simulate(
                &p,
                std::slice::from_ref(&pt),
                &SimConfig {
                    mode,
                    ..SimConfig::default()
                },
            );
            assert_eq!(r.covered(), 0, "{mode:?} must not prefetch");
        }
    }

    #[test]
    fn overhead_modes_slow_down_or_match_base() {
        let p = assemble("t", STREAM).unwrap();
        let base = simulate(&p, &[], &SimConfig::default());
        let pt = stream_pthread(4);
        let oh = simulate(
            &p,
            &[pt],
            &SimConfig {
                mode: SimMode::OverheadExecute,
                ..SimConfig::default()
            },
        );
        assert!(
            oh.ipc() <= base.ipc() * 1.02,
            "{} vs {}",
            oh.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn lt_only_at_least_as_fast_as_normal() {
        let p = assemble("t", STREAM).unwrap();
        let pt = stream_pthread(4);
        let normal = simulate(&p, std::slice::from_ref(&pt), &SimConfig::default());
        let lt = simulate(
            &p,
            &[pt],
            &SimConfig {
                mode: SimMode::LatencyToleranceOnly,
                ..SimConfig::default()
            },
        );
        assert!(
            lt.ipc() >= normal.ipc() * 0.98,
            "{} vs {}",
            lt.ipc(),
            normal.ipc()
        );
    }

    #[test]
    fn context_drops_counted() {
        // A trigger with three p-threads launched every iteration on a
        // 3-context machine: some launch requests must drop.
        let p = assemble("t", STREAM).unwrap();
        let pts: Vec<StaticPThread> = (0..4).map(|_| stream_pthread(8)).collect();
        let r = simulate(&p, &pts, &SimConfig::default());
        assert!(r.drops > 0);
    }

    #[test]
    fn result_accessors() {
        let r = run("li r1, 1\nhalt");
        assert_eq!(r.insts, 2);
        assert!(r.cycles > 0);
        assert_eq!(r.launches, 0);
        assert_eq!(r.avg_pthread_len(), 0.0);
        assert_eq!(r.overhead(), 0.0);
    }

    #[test]
    fn max_insts_respected() {
        let p = assemble("t", STREAM).unwrap();
        let r = simulate(
            &p,
            &[],
            &SimConfig {
                max_insts: 500,
                ..SimConfig::default()
            },
        );
        assert!(r.insts >= 500 && r.insts < 600);
    }

    #[test]
    fn store_forwarding_is_fast() {
        let r = run("li r1, 0x100000\n li r2, 42\n sd r2, 0(r1)\n ld r3, 0(r1)\n halt");
        // The load forwards from the store queue: total run far below a
        // double memory-latency round trip.
        assert!(r.cycles < 100, "cycles {}", r.cycles);
    }

    /// A p-thread whose body chases a register seeded with a wild value.
    fn poisoned_pthread() -> StaticPThread {
        let mut pt = stream_pthread(1);
        // li of a huge address, then a load through it: past the 48-bit
        // speculative address space, this must squash, not prefetch.
        pt.body = vec![
            Inst::li(Reg::new(20), -1),
            Inst::load(Op::Ld, Reg::new(21), Reg::new(20), 0),
        ];
        pt
    }

    #[test]
    fn poisoned_pthread_squashes_and_is_counted() {
        let p = assemble("t", STREAM).unwrap();
        let r = simulate(&p, &[poisoned_pthread()], &SimConfig::default());
        assert!(r.squashes > 0, "wild addresses must squash");
        assert_eq!(r.squashes, r.squash_count(SquashReason::BadAddress));
        // The main thread is unaffected: the program still drains.
        assert!(!r.timed_out);
        assert!(r.insts > 0);
    }

    #[test]
    fn pthread_step_budget_squashes_long_bodies() {
        let p = assemble("t", STREAM).unwrap();
        let pt = stream_pthread(16); // 17-instruction body
        let cfg = SimConfig {
            pthread_step_budget: 4,
            ..SimConfig::default()
        };
        let r = simulate(&p, &[pt], &cfg);
        assert!(r.squash_count(SquashReason::BudgetExhausted) > 0);
        // No context ever injects past its budget.
        assert!(r.avg_pthread_len() <= 4.0, "{}", r.avg_pthread_len());
    }

    #[test]
    fn cycle_watchdog_flags_timeout() {
        let p = assemble("t", STREAM).unwrap();
        let r = simulate(
            &p,
            &[],
            &SimConfig {
                max_cycles: 200,
                ..SimConfig::default()
            },
        );
        assert!(r.timed_out);
        assert_eq!(r.cycles, 200);
        // A drained run is not a timeout.
        let ok = simulate(&p, &[], &SimConfig::default());
        assert!(!ok.timed_out);
    }

    #[test]
    fn try_simulate_rejects_bad_machine() {
        use crate::{MachineError, SimError};
        use preexec_mem::CacheConfig;
        // A store then a load: with no store-queue entry the store could
        // never rename, and the run would spin to the cycle watchdog.
        let p = assemble("t", "li r1, 0x100000\n sd r1, 0(r1)\n ld r2, 0(r1)\n halt").unwrap();
        let ok = MachineParams::paper_default();
        let cases = [
            (MachineParams { width: 0, ..ok }, MachineError::ZeroWidth),
            (
                MachineParams {
                    backside_bus_bytes: 0,
                    ..ok
                },
                MachineError::ZeroBus,
            ),
            (
                MachineParams {
                    mem_bus_bytes: 0,
                    ..ok
                },
                MachineError::ZeroBus,
            ),
            (
                MachineParams {
                    mem_bus_divisor: 0,
                    ..ok
                },
                MachineError::ZeroBus,
            ),
            (
                MachineParams {
                    store_queue_entries: 0,
                    ..ok
                },
                MachineError::ZeroStoreQueue,
            ),
            (
                // Three ways: 1365 sets is not a power of two.
                MachineParams {
                    l2: CacheConfig { assoc: 3, ..ok.l2 },
                    ..ok
                },
                MachineError::CacheGeometry,
            ),
            (
                MachineParams {
                    l1d: CacheConfig {
                        line_bytes: 48,
                        ..ok.l1d
                    },
                    ..ok
                },
                MachineError::CacheGeometry,
            ),
            (
                ok.with_mem_latency(crate::MAX_LATENCY + 1),
                MachineError::LatencyTooLong,
            ),
            (
                MachineParams {
                    agen_latency: u64::MAX,
                    ..ok
                },
                MachineError::LatencyTooLong,
            ),
        ];
        for (machine, want) in cases {
            let cfg = SimConfig {
                machine,
                ..SimConfig::default()
            };
            assert_eq!(
                try_simulate(&p, &[], &cfg).unwrap_err(),
                SimError::Machine(want),
                "{want}"
            );
        }
        let one_entry = SimConfig {
            machine: MachineParams {
                store_queue_entries: 1,
                ..ok
            },
            ..SimConfig::default()
        };
        assert!(!simulate(&p, &[], &one_entry).timed_out);
        // The longest latency allowed still drains.
        let slow = SimConfig {
            machine: ok.with_mem_latency(crate::MAX_LATENCY),
            ..SimConfig::default()
        };
        assert!(!simulate(&p, &[], &slow).timed_out);
    }

    #[test]
    fn squash_free_run_reports_no_squashes() {
        let p = chase_program(200);
        let r = simulate(&p, &[chase_pthread(2)], &SimConfig::default());
        assert_eq!(r.squashes, 0);
        assert!(r.squash_reasons.is_empty());
    }

    #[test]
    fn branch_heavy_code_pays_mispredictions() {
        // Data-dependent branches on an LCG-generated pseudo-random bit.
        let r = run(
            "li r1, 0\n li r2, 6000\n li r5, 12345\n li r8, 6364136223846793005\n li r9, 1442695040888963407\n\
             top: bge r1, r2, done\n\
             mul r5, r5, r8\n add r5, r5, r9\n srl r6, r5, 33\n andi r6, r6, 1\n\
             beq r6, r0, skip\n addi r7, r7, 1\n\
             skip: addi r1, r1, 1\n j top\n done: halt",
        );
        assert!(
            r.mispredicts > 1000,
            "random branch mispredicts: {}",
            r.mispredicts
        );
    }

    /// A p-thread triggered at `trigger` that runs `body`.
    fn body_pthread(trigger: Pc, body: Vec<Inst>) -> StaticPThread {
        StaticPThread {
            trigger,
            body,
            ..stream_pthread(0)
        }
    }

    /// A p-thread triggered at `trigger` whose body prefetches one block
    /// far from the main thread's data.
    fn prefetch_pthread(trigger: Pc) -> StaticPThread {
        body_pthread(
            trigger,
            vec![
                Inst::li(Reg::new(20), 0x20_0000),
                Inst::load(Op::Ld, Reg::new(21), Reg::new(20), 0),
            ],
        )
    }

    #[test]
    fn pthread_stores_stay_private() {
        // The loop runs 300 times only while the word at 0x100000 reads
        // zero: the p-thread's store of 100 there would cut it short if it
        // reached memory.
        let p = assemble(
            "t",
            "li r1, 0x100000\n li r2, 0\n li r3, 300\n\
             top: ld r4, 0(r1)\n add r2, r2, r4\n addi r2, r2, 1\n blt r2, r3, top\n halt",
        )
        .unwrap();
        let store = body_pthread(
            5,
            vec![
                Inst::li(Reg::new(20), 100),
                Inst::store(Op::Sd, Reg::new(20), Reg::new(1), 0),
            ],
        );
        let base = simulate(&p, &[], &SimConfig::default());
        let r = simulate(&p, &[store], &SimConfig::default());
        assert_eq!((r.insts, r.branches), (base.insts, base.branches));
        assert!(r.launches > 100, "launches {}", r.launches);
    }

    #[test]
    fn a_pthread_load_forwards_from_its_own_store_of_the_same_width() {
        let p = assemble("t", STREAM).unwrap();
        let run = |load| {
            let pt = body_pthread(
                5,
                vec![
                    Inst::li(Reg::new(20), 0x20_0000),
                    Inst::store(Op::Sd, Reg::new(20), Reg::new(20), 0),
                    Inst::load(load, Reg::new(21), Reg::new(20), 0),
                ],
            );
            simulate(&p, &[pt], &SimConfig::default())
        };
        let (same, narrower) = (run(Op::Ld), run(Op::Lw));
        assert!(same.launches > 0);
        // Only the narrower load reads memory.
        assert_eq!(same.mem.pthread_loads, 0);
        assert!(narrower.mem.pthread_loads > 0);
    }

    #[test]
    fn pthread_control_flow_is_inert() {
        // The trigger sets r31 to a block that the main thread loads after
        // sixteen fillers, so it renames the load after the p-thread has
        // injected. Taken control flow would skip the p-thread's load of
        // that block, and a jal that wrote its link would move it.
        let src = format!(
            "li r31, 0x200000\n{}ld r4, 0(r31)\nhalt",
            "addi r5, r5, 1\n".repeat(16)
        );
        let p = assemble("t", &src).unwrap();
        let pt = body_pthread(
            0,
            vec![
                Inst::branch(Op::Beq, Reg::ZERO, Reg::ZERO, 99),
                Inst::jump(Op::J, 99),
                Inst::jump(Op::Jal, 99),
                Inst::load(Op::Ld, Reg::new(20), Reg::LINK, 0),
            ],
        );
        let base = simulate(&p, &[], &SimConfig::default());
        let r = simulate(&p, &[pt], &SimConfig::default());
        assert_eq!(base.covered(), 0);
        assert_eq!((r.launches, r.pthread_insts, r.squashes), (1, 4, 0));
        assert_eq!(r.covered(), 1);
    }

    #[test]
    fn trigger_at_the_run_off_the_end_pc_launches_on_the_halting_step() {
        // No `halt`: the CPU runs off the end, and that halting step is
        // renamed at PC 5 — one past the last instruction. The main
        // load's miss keeps the ROB busy while the p-thread injects.
        let p = assemble(
            "t",
            "li r1, 0x100000\n ld r2, 0(r1)\n li r3, 7\n add r4, r2, r3\n addi r5, r4, 1",
        )
        .unwrap();
        let r = simulate(&p, &[prefetch_pthread(5)], &SimConfig::default());
        assert_eq!(r.launches, 1);
        assert_eq!(format!("{r:?}"), RUN_OFF_END);

        // A `jr` far past the end halts there instead.
        let p = assemble("t", "li r1, 0x100000\n ld r2, 0(r1)\n li r3, 5000\n jr r3").unwrap();
        let r = simulate(&p, &[prefetch_pthread(5000)], &SimConfig::default());
        assert_eq!(r.launches, 1);
        assert_eq!(format!("{r:?}"), JR_PAST_END);
    }

    /// The two runs above, recorded from the hash-map trigger lookup.
    const RUN_OFF_END: &str = "SimResult { cycles: 92, insts: 6, launches: 1, drops: 0, pthread_insts: 2, branches: 0, mispredicts: 0, squashes: 0, squash_reasons: {}, timed_out: false, mem: MemStats { loads: 1, stores: 0, l1_misses: 1, l2_misses: 1, covered_full: 0, covered_partial: 0, pthread_loads: 1, pthread_prefetches: 1, pthread_useless: 0, writebacks: 0 } }";
    const JR_PAST_END: &str = "SimResult { cycles: 90, insts: 5, launches: 1, drops: 0, pthread_insts: 2, branches: 0, mispredicts: 1, squashes: 0, squash_reasons: {}, timed_out: false, mem: MemStats { loads: 1, stores: 0, l1_misses: 1, l2_misses: 1, covered_full: 0, covered_partial: 0, pthread_loads: 1, pthread_prefetches: 1, pthread_useless: 0, writebacks: 0 } }";

    #[test]
    fn trigger_at_u32_max_launches_nothing() {
        let p = assemble("t", STREAM).unwrap();
        let base = simulate(&p, &[], &SimConfig::default());
        let r = simulate(&p, &[prefetch_pthread(u32::MAX)], &SimConfig::default());
        assert_eq!(r.launches, 0);
        assert_eq!(format!("{r:?}"), format!("{base:?}"));
    }
}
