//! The engine-agnostic executor core.
//!
//! Every engine family is a thin driver over the routines in this
//! module: instruction-stream sweeps ([`run_task_range`],
//! [`eval_supernode`]), the essential-signal scan
//! ([`sweep_essential`]), successor activation ([`activate`]) and the
//! commit phase ([`commit_full_cycle`], [`commit_essential`]). The
//! routines are generic over small traits so the *same* code runs
//! single-threaded and on the levelized multithreaded full-cycle
//! engine:
//!
//! * [`StateStore`] (from [`crate::storage`]) — plain words vs shared
//!   relaxed atomics for the signal state;
//! * [`ActiveBits`] — the supernode active/fired bitsets, or
//!   [`NoActivation`] for the full-cycle engines, which track none;
//! * [`MemWrite`] — in-place vs atomic memory arenas for the commit
//!   phase's write ports.
//!
//! [`SpinBarrier`] is the level barrier of the parallel engine: a
//! sense-reversing spin barrier, roughly an order of magnitude cheaper
//! per rendezvous than `std::sync::Barrier`, which matters when a
//! design has dozens of levels per simulated cycle.

use crate::compile::{Compiled, TaskKind};
use crate::counters::Counters;
use crate::exec::{self, Ctx, MemStore};
use crate::storage::{MemArena, Slot, Space, StateStore};
use std::sync::atomic::{AtomicUsize, Ordering};

// ---------------------------------------------------------- active bits

/// A word-addressed supernode bitset (the active flags and the fired
/// set).
pub(crate) trait ActiveBits {
    /// Current value of word `w`.
    fn load_word(&self, w: usize) -> u64;
    /// ORs `mask` into word `w`.
    fn or_word(&mut self, w: usize, mask: u64);
    /// Clears the bits of `mask` in word `w`.
    fn clear_word(&mut self, w: usize, mask: u64);

    /// Sets supernode `sn`'s bit.
    #[inline]
    fn set_bit(&mut self, sn: u32) {
        self.or_word((sn >> 6) as usize, 1u64 << (sn & 63));
    }
}

impl ActiveBits for &mut [u64] {
    #[inline(always)]
    fn load_word(&self, w: usize) -> u64 {
        self[w]
    }

    #[inline(always)]
    fn or_word(&mut self, w: usize, mask: u64) {
        self[w] |= mask;
    }

    #[inline(always)]
    fn clear_word(&mut self, w: usize, mask: u64) {
        self[w] &= !mask;
    }
}

/// Activation sink that drops everything: the full-cycle engines
/// evaluate every node every cycle, so nothing tracks activity.
pub(crate) struct NoActivation;

impl ActiveBits for NoActivation {
    #[inline(always)]
    fn load_word(&self, _w: usize) -> u64 {
        0
    }

    #[inline(always)]
    fn or_word(&mut self, _w: usize, _mask: u64) {}

    #[inline(always)]
    fn clear_word(&mut self, _w: usize, _mask: u64) {}
}

// ---------------------------------------------------------- activation

/// Successor activation (§III-B): branchless masked ORs for small
/// fan-outs, a branchy skip of the whole list for large ones.
#[inline]
pub(crate) fn activate<A: ActiveBits>(
    flags: &mut A,
    counters: &mut Counters,
    act_list: &[u32],
    act: (u32, u32),
    branchless: bool,
    changed: bool,
) {
    let (lo, hi) = act;
    if lo == hi {
        return;
    }
    let list = &act_list[lo as usize..hi as usize];
    if branchless {
        // ESSENT-style: unconditional ORs with a change mask.
        let mask = (changed as u64).wrapping_neg();
        for &sn in list {
            flags.or_word((sn >> 6) as usize, (1u64 << (sn & 63)) & mask);
        }
        counters.activation_ops += list.len() as u64;
        if changed {
            counters.activations += list.len() as u64;
        }
    } else {
        // Branchy: skip all work when unchanged.
        counters.activation_ops += 1;
        if changed {
            for &sn in list {
                flags.set_bit(sn);
            }
            counters.activation_ops += list.len() as u64;
            counters.activations += list.len() as u64;
        }
    }
}

// ---------------------------------------------------------- evaluation

/// Compares `result` against `out`; on difference copies and returns
/// `true`.
fn store_if_changed<S: StateStore, M: MemStore>(
    ctx: &mut Ctx<'_, S, M>,
    result: Slot,
    out: Slot,
) -> bool {
    if result == out {
        // value computed in place (pure-alias tasks): treat as changed
        // so successors stay conservative-correct.
        return true;
    }
    let n = out.words as usize;
    let mut changed = false;
    for i in 0..n {
        let new = match result.space {
            Space::State => ctx.state.load(result.off as usize + i),
            Space::Scratch => ctx.scratch[result.off as usize + i],
            Space::Const => ctx.consts[result.off as usize + i],
        };
        let off = out.off as usize + i;
        if ctx.state.load(off) != new {
            ctx.state.store(off, new);
            changed = true;
        }
    }
    changed
}

/// Runs the instruction streams of tasks `[lo, hi)` unconditionally,
/// skipping inputs — the full-cycle sweep shared by the sequential and
/// levelized-parallel drivers (Listing 1).
pub(crate) fn run_task_range<S: StateStore, M: MemStore>(
    ctx: &mut Ctx<'_, S, M>,
    c: &Compiled,
    lo: u32,
    hi: u32,
    counters: &mut Counters,
) {
    for task in &c.tasks[lo as usize..hi as usize] {
        if matches!(task.kind, TaskKind::Input) {
            continue;
        }
        exec::run_task(ctx, &c.image, task.code, task.narrow_only);
        counters.node_evals += 1;
        counters.instrs_executed += task.n_instrs as u64;
    }
}

/// Evaluates one supernode: runs its tasks, compares-and-stores every
/// combinational result, and activates successors on change
/// (Listings 2–3). Marks the supernode in `fired` for register commit.
pub(crate) fn eval_supernode<S, M, A, F>(
    c: &Compiled,
    ctx: &mut Ctx<'_, S, M>,
    flags: &mut A,
    fired: &mut F,
    counters: &mut Counters,
    sn: usize,
) where
    S: StateStore,
    M: MemStore,
    A: ActiveBits,
    F: ActiveBits,
{
    fired.set_bit(sn as u32);
    counters.supernode_evals += 1;
    let (lo, hi) = c.supernode_tasks[sn];
    for task in &c.tasks[lo as usize..hi as usize] {
        if matches!(task.kind, TaskKind::Input) {
            continue;
        }
        counters.node_evals += 1;
        counters.instrs_executed += task.n_instrs as u64;
        exec::run_task(ctx, &c.image, task.code, task.narrow_only);
        if matches!(task.kind, TaskKind::Comb) {
            let changed = store_if_changed(ctx, task.result, task.out);
            if changed {
                counters.value_changes += 1;
            }
            activate(
                flags,
                counters,
                &c.act_list,
                task.act,
                task.branchless,
                changed,
            );
        }
    }
}

// ------------------------------------------------------------- sweeps

/// One essential-signal sweep over every flag word in supernode-topo
/// order (Listings 2 and 4): the sequential essential driver.
///
/// Combinational activation only ever points forward in the supernode
/// topo order, but "forward" can land in the word currently being
/// drained — both modes therefore re-check bits set while processing
/// (clearing each bit before evaluation).
pub(crate) fn sweep_essential<S, M, A, F>(
    c: &Compiled,
    ctx: &mut Ctx<'_, S, M>,
    flags: &mut A,
    fired: &mut F,
    counters: &mut Counters,
    word_skip: bool,
) where
    S: StateStore,
    M: MemStore,
    A: ActiveBits,
    F: ActiveBits,
{
    let num_sn = c.num_supernodes;
    for w in 0..num_sn.div_ceil(64) {
        if word_skip {
            // Listing 4: one condition covers 64 active bits. Always
            // take the lowest *fresh* set bit so evaluation stays in
            // strict supernode-topo order even when processing a bit
            // activates a lower-numbered bit's successor in the same
            // word — a stale snapshot would evaluate out of order and
            // redo work.
            counters.aexam_checks += 1;
            loop {
                let bits = flags.load_word(w);
                if bits == 0 {
                    break;
                }
                let t = bits.trailing_zeros();
                flags.clear_word(w, 1u64 << t);
                counters.aexam_checks += 1;
                eval_supernode(c, ctx, flags, fired, counters, (w * 64) + t as usize);
            }
        } else {
            // ESSENT: one branch per supernode flag, ascending, so
            // forward activations in this word are seen below.
            let base = w * 64;
            let hi = (base + 64).min(num_sn);
            for sn in base..hi {
                counters.aexam_checks += 1;
                if flags.load_word(w) >> (sn - base) & 1 == 1 {
                    flags.clear_word(w, 1u64 << (sn - base));
                    eval_supernode(c, ctx, flags, fired, counters, sn);
                }
            }
        }
    }
}

// ------------------------------------------------------------- commit

/// Mutable memory-arena access for the commit phase, abstracting
/// in-place arenas over the shared atomic image of the parallel
/// engines.
pub(crate) trait MemWrite {
    /// Overwrites entry `addr` of memory `mem` with `data(i)` per
    /// word, masked to the memory width; returns whether the stored
    /// content changed. Out-of-range writes are dropped.
    fn write_entry(&mut self, mem: u32, addr: u64, data: &dyn Fn(usize) -> u64) -> bool;
}

impl MemWrite for &mut [MemArena] {
    fn write_entry(&mut self, mem: u32, addr: u64, data: &dyn Fn(usize) -> u64) -> bool {
        let arena = &mut self[mem as usize];
        let width = arena.width as usize;
        let Some(entry) = arena.entry_mut(addr) else {
            return false;
        };
        let mut changed = false;
        for (i, slot_word) in entry.iter_mut().enumerate() {
            let mut v = data(i);
            let top_bits = width - i * 64;
            if top_bits < 64 {
                v &= (1u64 << top_bits) - 1;
            }
            if *slot_word != v {
                *slot_word = v;
                changed = true;
            }
        }
        changed
    }
}

impl MemWrite for &exec::AtomicMems {
    fn write_entry(&mut self, mem: u32, addr: u64, data: &dyn Fn(usize) -> u64) -> bool {
        let arena = &self.arenas[mem as usize];
        if addr >= arena.depth {
            return false;
        }
        let base = addr as usize * arena.words_per_entry;
        let mut changed = false;
        for i in 0..arena.words_per_entry {
            let mut v = data(i);
            let top_bits = arena.width as usize - i * 64;
            if top_bits < 64 {
                v &= (1u64 << top_bits) - 1;
            }
            let cell = &arena.data[base + i];
            if cell.load(Ordering::Relaxed) != v {
                cell.store(v, Ordering::Relaxed);
                changed = true;
            }
        }
        changed
    }
}

/// Applies all enabled write ports in port order. When `dirty` is
/// provided, memories whose content changed are recorded (so the
/// essential commit can activate their read ports).
pub(crate) fn apply_writes<S: StateStore, W: MemWrite>(
    c: &Compiled,
    st: &S,
    mems: &mut W,
    mut dirty: Option<&mut [bool]>,
) {
    for p in &c.write_ports {
        let en_zero = (0..p.en.words as usize).all(|i| st.load(p.en.off as usize + i) == 0);
        if en_zero {
            continue;
        }
        // Address-style read: saturate when high words are set.
        let mut addr = st.load(p.addr.off as usize);
        if (1..p.addr.words as usize).any(|i| st.load(p.addr.off as usize + i) != 0) {
            addr = u64::MAX;
        }
        let data_words = p.data.words as usize;
        let data_off = p.data.off as usize;
        let data = |i: usize| {
            if i < data_words {
                st.load(data_off + i)
            } else {
                0
            }
        };
        let changed = mems.write_entry(p.mem, addr, &data);
        if changed {
            if let Some(d) = dirty.as_deref_mut() {
                d[p.mem as usize] = true;
            }
        }
    }
}

/// Latches every distinct reset signal's assertion into `asserted`.
/// Must run **before** the first register commit of the cycle: a reset
/// signal may itself be a register (the reset-synchronizer pattern),
/// and its state slot is overwritten mid-commit, so reading it live in
/// [`commit_resets`] would observe the *post-edge* value and apply
/// reset one cycle early. `RefInterp` reads all reset signals pre-edge
/// (compute-then-commit); this snapshot pins the same semantics.
pub(crate) fn snapshot_resets<S: StateStore>(c: &Compiled, st: &S, asserted: &mut Vec<bool>) {
    asserted.clear();
    asserted.extend(
        c.reset_groups
            .iter()
            .map(|g| st.load(g.signal.off as usize) != 0),
    );
}

/// Slow-path reset (Listing 6): one check per distinct reset signal;
/// on an asserted signal, re-initialize its registers. `asserted` is
/// the pre-edge snapshot from [`snapshot_resets`]. The essential
/// engines activate readers of registers that actually changed; the
/// full-cycle engines pass `essential = false` and skip activation
/// bookkeeping entirely.
pub(crate) fn commit_resets<S: StateStore, A: ActiveBits>(
    c: &Compiled,
    st: &mut S,
    flags: &mut A,
    counters: &mut Counters,
    essential: bool,
    asserted: &[bool],
) {
    for (gi, g) in c.reset_groups.iter().enumerate() {
        counters.reset_checks += 1;
        if !asserted[gi] {
            continue;
        }
        for &ri in &g.regs {
            let r = &c.reg_infos[ri as usize];
            let init = r.init.expect("reset reg has init");
            let mut changed = false;
            for i in 0..r.cur.words as usize {
                let new = c.consts[init.off as usize + i];
                let off = r.cur.off as usize + i;
                if st.load(off) != new {
                    st.store(off, new);
                    changed = true;
                }
            }
            if essential && changed {
                activate(flags, counters, &c.act_list, r.act, false, true);
            }
        }
    }
}

/// Full-cycle commit: unconditional register copy, resets, every
/// enabled write port (shared by the sequential and levelized-parallel
/// full-cycle drivers).
pub(crate) fn commit_full_cycle<S: StateStore, W: MemWrite>(
    c: &Compiled,
    st: &mut S,
    mems: &mut W,
    counters: &mut Counters,
    reset_snap: &mut Vec<bool>,
) {
    snapshot_resets(c, st, reset_snap);
    for r in &c.reg_infos {
        for i in 0..r.cur.words as usize {
            let v = st.load(r.shadow.off as usize + i);
            st.store(r.cur.off as usize + i, v);
        }
    }
    commit_resets(c, st, &mut NoActivation, counters, false, reset_snap);
    apply_writes(c, st, mems, None);
}

/// Essential commit: registers of fired supernodes commit on change
/// (waking readers next cycle), then slow-path resets, then memory
/// writes with read-port activation. Consumes (clears) the fired set.
#[allow(clippy::too_many_arguments)]
pub(crate) fn commit_essential<S, W, A, F>(
    c: &Compiled,
    st: &mut S,
    mems: &mut W,
    flags: &mut A,
    fired: &mut F,
    supernode_regs: &[Vec<u32>],
    dirty_mems: &mut [bool],
    counters: &mut Counters,
    reset_snap: &mut Vec<bool>,
) where
    S: StateStore,
    W: MemWrite,
    A: ActiveBits,
    F: ActiveBits,
{
    snapshot_resets(c, st, reset_snap);
    for w in 0..c.num_supernodes.div_ceil(64) {
        let mut bits = fired.load_word(w);
        if bits == 0 {
            continue;
        }
        fired.clear_word(w, bits);
        while bits != 0 {
            let t = bits.trailing_zeros();
            bits &= bits - 1;
            let sn = (w * 64) + t as usize;
            for &ri in &supernode_regs[sn] {
                let r = &c.reg_infos[ri as usize];
                let mut changed = false;
                for i in 0..r.cur.words as usize {
                    let new = st.load(r.shadow.off as usize + i);
                    let off = r.cur.off as usize + i;
                    if st.load(off) != new {
                        st.store(off, new);
                        changed = true;
                    }
                }
                if changed {
                    counters.value_changes += 1;
                    activate(flags, counters, &c.act_list, r.act, false, true);
                }
            }
        }
    }
    commit_resets(c, st, flags, counters, true, reset_snap);
    apply_writes(c, st, mems, Some(dirty_mems));
    for (m, dirty) in dirty_mems.iter_mut().enumerate() {
        if !*dirty {
            continue;
        }
        *dirty = false;
        for &sn in &c.mem_read_act[m] {
            flags.set_bit(sn);
        }
    }
}

// ------------------------------------------------------------ barrier

/// A sense-reversing spin barrier for the level-synchronous parallel
/// engines. `std::sync::Barrier` takes a mutex + condvar per
/// rendezvous; with one barrier per level per cycle that cost
/// dominates low-activity cycles, so the engines spin instead.
pub(crate) struct SpinBarrier {
    total: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    pub(crate) fn new(total: usize) -> SpinBarrier {
        SpinBarrier {
            total,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Blocks until all `total` threads have called `wait` for this
    /// generation. The AcqRel rendezvous publishes every write made
    /// before the barrier to every thread after it.
    ///
    /// Spins briefly, then yields: pure spinning burns whole scheduler
    /// timeslices when threads outnumber cores, turning each barrier
    /// from nanoseconds into milliseconds.
    pub(crate) fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if spins < 128 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_bits_roundtrip() {
        let mut words = vec![0u64; 2];
        let mut bits: &mut [u64] = &mut words;
        bits.set_bit(5);
        bits.set_bit(70);
        assert_eq!(bits.load_word(0), 1 << 5);
        assert_eq!(bits.load_word(1), 1 << 6);
        bits.clear_word(0, 1 << 5);
        assert_eq!(bits.load_word(0), 0);
    }

    #[test]
    fn spin_barrier_synchronizes() {
        let barrier = SpinBarrier::new(4);
        let hits = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    barrier.wait();
                    assert_eq!(hits.load(Ordering::Relaxed), 4);
                    barrier.wait();
                });
            }
        });
    }
}
