//! The bytecode interpreter.
//!
//! The hot path executes the flat execution image ([`crate::image`]):
//! tasks whose encoded units are all *narrow* (every operand fits one
//! word — the overwhelming majority of RTL signals) run on
//! [`run_narrow`], a dispatch loop that never re-checks operand word
//! counts; tasks containing any multi-word unit run on [`run_general`],
//! which additionally resolves [`Op::Wide`] units through the image's
//! side table into the mid-level [`Instr`] interpreter ([`run_instrs`]/
//! `exec_one`). The mid-level interpreter keeps the per-instruction
//! narrow/wide split and the stack-buffered [`gsim_value::words`]
//! kernels — including allocation-free wide division, which spills to
//! the heap only above [`STACK_WORDS`] (2048 bits).
//!
//! The interpreter is generic over [`StateStore`]/[`MemStore`] so the
//! same code runs single-threaded (plain slices) and multithreaded
//! (relaxed atomics with barrier-ordered levels).

use crate::compile::{BinOp, Instr, UnOp};
use crate::image::{EInstr, ExecImage, Op, META_SIGNED, OFF_MASK, SPACE_SHIFT};
use crate::storage::{MemArena, Slot, Space, StateStore};
use gsim_value::{words, words_for};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Stack buffer size for wide operations (2048 bits). Wider values take
/// a heap fallback.
const STACK_WORDS: usize = 32;

/// Read access to simulated memories during the combinational sweep.
pub(crate) trait MemStore {
    /// Copies entry `addr` of memory `mem` into `dst` (zero when out of
    /// range); `dst` is exactly the entry's word count.
    fn read_entry(&self, mem: u32, addr: u64, dst: &mut [u64]);
}

impl MemStore for &[MemArena] {
    #[inline]
    fn read_entry(&self, mem: u32, addr: u64, dst: &mut [u64]) {
        match self[mem as usize].entry(addr) {
            Some(words) => dst.copy_from_slice(words),
            None => dst.fill(0),
        }
    }
}

/// Atomic memory arena used by the multithreaded engine.
pub(crate) struct AtomicMems {
    pub arenas: Vec<AtomicMem>,
}

/// One atomic memory.
pub(crate) struct AtomicMem {
    pub depth: u64,
    pub width: u32,
    pub words_per_entry: usize,
    pub data: Vec<AtomicU64>,
}

impl AtomicMems {
    /// Snapshots `mems` into a shared atomic image for a parallel run,
    /// copying each arena's flat word storage wholesale.
    pub(crate) fn snapshot(mems: &[MemArena]) -> AtomicMems {
        AtomicMems {
            arenas: mems
                .iter()
                .map(|m| AtomicMem {
                    depth: m.depth,
                    width: m.width,
                    words_per_entry: m.words_per_entry(),
                    data: m.words().iter().map(|&w| AtomicU64::new(w)).collect(),
                })
                .collect(),
        }
    }

    /// Copies the image back into `mems` after a parallel run — one
    /// linear pass per arena, no per-entry address lookups.
    pub(crate) fn copy_back(&self, mems: &mut [MemArena]) {
        for (arena, src) in mems.iter_mut().zip(&self.arenas) {
            debug_assert_eq!(arena.words().len(), src.data.len());
            for (w, cell) in arena.words_mut().iter_mut().zip(&src.data) {
                *w = cell.load(AtomicOrdering::Relaxed);
            }
        }
    }
}

impl MemStore for &AtomicMems {
    #[inline]
    fn read_entry(&self, mem: u32, addr: u64, dst: &mut [u64]) {
        let m = &self.arenas[mem as usize];
        if addr >= m.depth {
            dst.fill(0);
            return;
        }
        let base = addr as usize * m.words_per_entry;
        for (i, d) in dst.iter_mut().enumerate() {
            *d = m.data[base + i].load(AtomicOrdering::Relaxed);
        }
    }
}

/// Execution context: arenas the interpreter reads and writes.
pub(crate) struct Ctx<'a, S, M> {
    pub state: S,
    pub scratch: &'a mut [u64],
    pub consts: &'a [u64],
    pub mems: M,
}

impl<S: StateStore, M: MemStore> Ctx<'_, S, M> {
    /// First word of a slot (0 for zero-width).
    #[inline]
    fn word(&self, r: Slot) -> u64 {
        if r.words == 0 {
            return 0;
        }
        match r.space {
            Space::State => self.state.load(r.off as usize),
            Space::Scratch => self.scratch[r.off as usize],
            Space::Const => self.consts[r.off as usize],
        }
    }

    /// Canonical read into `buf` (zero-filled above the slot's words).
    #[inline]
    fn read_into(&self, r: Slot, buf: &mut [u64]) {
        let n = r.words as usize;
        match r.space {
            Space::State => {
                for (i, b) in buf.iter_mut().take(n).enumerate() {
                    *b = self.state.load(r.off as usize + i);
                }
            }
            Space::Scratch => {
                buf[..n].copy_from_slice(&self.scratch[r.off as usize..r.off as usize + n])
            }
            Space::Const => {
                buf[..n].copy_from_slice(&self.consts[r.off as usize..r.off as usize + n])
            }
        }
        for b in buf.iter_mut().skip(n) {
            *b = 0;
        }
    }

    /// Read extended to the full buffer: sign-filled when the slot is
    /// signed, zero-filled otherwise.
    #[inline]
    fn read_ext(&self, r: Slot, buf: &mut [u64]) {
        self.read_into(r, buf);
        if r.signed && r.width > 0 && words::get_bit(buf, r.width - 1) {
            // fill bits above width with ones
            let full = (r.width / 64) as usize;
            let rem = r.width % 64;
            if rem != 0 && full < buf.len() {
                buf[full] |= !((1u64 << rem) - 1);
            }
            for b in buf.iter_mut().skip(full + usize::from(rem != 0)) {
                *b = u64::MAX;
            }
        }
    }

    /// Single-word value sign-extended to 64 bits when signed.
    #[inline]
    fn word_ext(&self, r: Slot) -> u64 {
        let v = self.word(r);
        if r.signed && r.width > 0 && r.width < 64 {
            let sh = 64 - r.width;
            (((v << sh) as i64) >> sh) as u64
        } else {
            v
        }
    }

    /// Address-style read: saturates when high words are set.
    #[inline]
    fn word_sat(&self, r: Slot) -> u64 {
        let first = self.word(r);
        if r.words <= 1 {
            return first;
        }
        let mut buf = [0u64; STACK_WORDS];
        if (r.words as usize) <= STACK_WORDS {
            self.read_into(r, &mut buf[..r.words as usize]);
            if buf[1..r.words as usize].iter().any(|&w| w != 0) {
                return u64::MAX;
            }
            return buf[0];
        }
        first // conservatively: engines never index memories this wide
    }

    /// Writes a single-word value, masking to the slot width.
    #[inline]
    fn write1(&mut self, r: Slot, v: u64) {
        if r.words == 0 {
            return;
        }
        let masked = if r.width >= 64 {
            v
        } else {
            v & ((1u64 << r.width) - 1)
        };
        match r.space {
            Space::State => self.state.store(r.off as usize, masked),
            Space::Scratch => self.scratch[r.off as usize] = masked,
            Space::Const => unreachable!("write to const pool"),
        }
        for i in 1..r.words as usize {
            match r.space {
                Space::State => self.state.store(r.off as usize + i, 0),
                Space::Scratch => self.scratch[r.off as usize + i] = 0,
                Space::Const => unreachable!(),
            }
        }
    }

    /// Writes `buf` (at least `r.words` long), masking to the width.
    #[inline]
    fn write_words(&mut self, r: Slot, buf: &mut [u64]) {
        let n = r.words as usize;
        words::mask_in_place(&mut buf[..n], r.width.min(n as u32 * 64));
        match r.space {
            Space::State => {
                for (i, b) in buf.iter().take(n).enumerate() {
                    self.state.store(r.off as usize + i, *b);
                }
            }
            Space::Scratch => {
                self.scratch[r.off as usize..r.off as usize + n].copy_from_slice(&buf[..n])
            }
            Space::Const => unreachable!("write to const pool"),
        }
    }

    // ----- packed-reference accessors for the encoded interpreter -----

    /// Reads the word behind a packed operand reference. Zero-width
    /// operands were remapped to the const zero word at encode time, so
    /// there is no zero-width guard here.
    #[inline(always)]
    fn pw(&self, p: u32) -> u64 {
        let off = (p & OFF_MASK) as usize;
        match p >> SPACE_SHIFT {
            0 => self.state.load(off),
            1 => self.scratch[off],
            _ => self.consts[off],
        }
    }

    /// Packed read sign-extended to 64 bits per the operand meta byte.
    #[inline(always)]
    fn pw_ext(&self, p: u32, meta: u8) -> u64 {
        let v = self.pw(p);
        let w = (meta & !META_SIGNED) as u32;
        if meta >= META_SIGNED && w < 64 {
            let sh = 64 - w;
            (((v << sh) as i64) >> sh) as u64
        } else {
            v
        }
    }

    /// Packed single-word write, masked to the destination width `w`.
    #[inline(always)]
    fn pw_write(&mut self, p: u32, w: u8, v: u64) {
        let masked = if w >= 64 { v } else { v & ((1u64 << w) - 1) };
        let off = (p & OFF_MASK) as usize;
        match p >> SPACE_SHIFT {
            0 => self.state.store(off, masked),
            _ => self.scratch[off] = masked,
        }
    }
}

#[inline]
fn lowmask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else if w == 0 {
        0
    } else {
        (1u64 << w) - 1
    }
}

/// Executes one task's encoded code range from the execution image,
/// dispatching to the narrow-only fast loop or the general loop.
#[inline]
pub(crate) fn run_task<S: StateStore, M: MemStore>(
    ctx: &mut Ctx<'_, S, M>,
    img: &ExecImage,
    code: (u32, u32),
    narrow_only: bool,
) {
    let code = &img.code[code.0 as usize..code.1 as usize];
    if narrow_only {
        run_narrow(ctx, code);
    } else {
        run_general(ctx, code, &img.wide);
    }
}

/// The narrow-only dispatch loop: every operand is a single word, so no
/// arm ever checks word counts or takes a buffer.
pub(crate) fn run_narrow<S: StateStore, M: MemStore>(ctx: &mut Ctx<'_, S, M>, code: &[EInstr]) {
    exec_encoded::<S, M, false>(ctx, code, &[]);
}

/// The general dispatch loop: narrow arms plus [`Op::Wide`] units
/// resolved through the image's side table.
pub(crate) fn run_general<S: StateStore, M: MemStore>(
    ctx: &mut Ctx<'_, S, M>,
    code: &[EInstr],
    wide: &[Instr],
) {
    exec_encoded::<S, M, true>(ctx, code, wide);
}

/// Shared body of the two dispatch loops, monomorphized on whether wide
/// units can occur.
#[inline(always)]
fn exec_encoded<S: StateStore, M: MemStore, const HAS_WIDE: bool>(
    ctx: &mut Ctx<'_, S, M>,
    code: &[EInstr],
    wide: &[Instr],
) {
    let mut i = 0usize;
    while i < code.len() {
        let ins = code[i];
        i += 1;
        match ins.op {
            Op::Add => {
                let v = ctx
                    .pw_ext(ins.a, ins.xa)
                    .wrapping_add(ctx.pw_ext(ins.b, ins.xb));
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Sub => {
                let v = ctx
                    .pw_ext(ins.a, ins.xa)
                    .wrapping_sub(ctx.pw_ext(ins.b, ins.xb));
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Mul => {
                let v = ctx
                    .pw_ext(ins.a, ins.xa)
                    .wrapping_mul(ctx.pw_ext(ins.b, ins.xb));
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Div => {
                let av = ctx.pw_ext(ins.a, ins.xa);
                let bv = ctx.pw_ext(ins.b, ins.xb);
                let v = if bv == 0 {
                    0
                } else if ins.xa >= META_SIGNED {
                    ((av as i64 as i128) / (bv as i64 as i128)) as u64
                } else {
                    av / bv
                };
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Rem => {
                let av = ctx.pw_ext(ins.a, ins.xa);
                let bv = ctx.pw_ext(ins.b, ins.xb);
                let v = if bv == 0 {
                    av
                } else if ins.xa >= META_SIGNED {
                    ((av as i64 as i128) % (bv as i64 as i128)) as u64
                } else {
                    av % bv
                };
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Lt | Op::Leq | Op::Gt | Op::Geq => {
                let ord = encoded_cmp(ctx, &ins);
                let v = match ins.op {
                    Op::Lt => ord.is_lt(),
                    Op::Leq => ord.is_le(),
                    Op::Gt => ord.is_gt(),
                    _ => ord.is_ge(),
                };
                ctx.pw_write(ins.dst, ins.xd, v as u64);
            }
            Op::Eq => {
                let v = ctx.pw_ext(ins.a, ins.xa) == ctx.pw_ext(ins.b, ins.xb);
                ctx.pw_write(ins.dst, ins.xd, v as u64);
            }
            Op::Neq => {
                let v = ctx.pw_ext(ins.a, ins.xa) != ctx.pw_ext(ins.b, ins.xb);
                ctx.pw_write(ins.dst, ins.xd, v as u64);
            }
            Op::And => {
                let v = ctx.pw_ext(ins.a, ins.xa) & ctx.pw_ext(ins.b, ins.xb);
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Or => {
                let v = ctx.pw_ext(ins.a, ins.xa) | ctx.pw_ext(ins.b, ins.xb);
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Xor => {
                let v = ctx.pw_ext(ins.a, ins.xa) ^ ctx.pw_ext(ins.b, ins.xb);
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Dshl => {
                let sh = ctx.pw_ext(ins.b, ins.xb);
                let v = if sh >= 64 { 0 } else { ctx.pw(ins.a) << sh };
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Dshr => {
                let sh = ctx.pw_ext(ins.b, ins.xb);
                let v = if ins.xa >= META_SIGNED {
                    ((ctx.pw_ext(ins.a, ins.xa) as i64) >> sh.min(63)) as u64
                } else if sh >= 64 {
                    0
                } else {
                    ctx.pw(ins.a) >> sh
                };
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Not => {
                let v = !ctx.pw(ins.a);
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Andr => {
                let v = ctx.pw(ins.a) == lowmask((ins.xa & !META_SIGNED) as u32);
                ctx.pw_write(ins.dst, ins.xd, v as u64);
            }
            Op::Orr => {
                let v = ctx.pw(ins.a) != 0;
                ctx.pw_write(ins.dst, ins.xd, v as u64);
            }
            Op::Xorr => {
                let v = (ctx.pw(ins.a).count_ones() % 2) as u64;
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Neg => {
                let v = ctx.pw_ext(ins.a, ins.xa).wrapping_neg();
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Shl => {
                let v = if ins.b >= 64 {
                    0
                } else {
                    ctx.pw(ins.a) << ins.b
                };
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Shr => {
                let v = if ins.xa >= META_SIGNED {
                    ((ctx.pw_ext(ins.a, ins.xa) as i64) >> ins.b.min(63)) as u64
                } else if ins.b >= 64 {
                    0
                } else {
                    ctx.pw(ins.a) >> ins.b
                };
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Bits => {
                let v = ctx.pw(ins.a) >> ins.b.min(63);
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Copy => {
                let v = ctx.pw(ins.a);
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Sext => {
                // `xa` carries a forced sign bit.
                let v = ctx.pw_ext(ins.a, ins.xa);
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Mux => {
                let ext = code[i];
                i += 1;
                let v = if ctx.pw(ins.a) != 0 {
                    ctx.pw_ext(ins.b, ins.xb)
                } else {
                    ctx.pw_ext(ext.a, ext.xa)
                };
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::Cat => {
                let sh = ins.xb as u32;
                let vb = ctx.pw(ins.b);
                let v = if sh >= 64 {
                    vb
                } else {
                    (ctx.pw(ins.a) << sh) | vb
                };
                ctx.pw_write(ins.dst, ins.xd, v);
            }
            Op::ReadMem => {
                let mut entry = [0u64; 1];
                let addr = ctx.pw(ins.a);
                ctx.mems.read_entry(ins.b, addr, &mut entry);
                ctx.pw_write(ins.dst, ins.xd, entry[0]);
            }
            Op::Ext => unreachable!("extension unit dispatched directly"),
            Op::Wide => {
                if HAS_WIDE {
                    exec_one(ctx, &wide[ins.a as usize]);
                } else {
                    unreachable!("wide unit in a narrow-only task");
                }
            }
        }
    }
}

/// Single-word comparison of an encoded unit's `a`/`b` operands,
/// signedness per operand `a`'s meta byte.
#[inline(always)]
fn encoded_cmp<S: StateStore, M: MemStore>(ctx: &Ctx<'_, S, M>, ins: &EInstr) -> Ordering {
    let av = ctx.pw_ext(ins.a, ins.xa);
    let bv = ctx.pw_ext(ins.b, ins.xb);
    if ins.xa >= META_SIGNED {
        (av as i64).cmp(&(bv as i64))
    } else {
        av.cmp(&bv)
    }
}

/// Executes a mid-level instruction stream — the reference path for
/// unit tests (the engines go through the encoded image; wide units
/// dispatch straight to `exec_one`).
#[cfg(test)]
pub(crate) fn run_instrs<S: StateStore, M: MemStore>(ctx: &mut Ctx<'_, S, M>, instrs: &[Instr]) {
    for instr in instrs {
        exec_one(ctx, instr);
    }
}

fn narrow3(a: Slot, b: Slot, dst: Slot) -> bool {
    a.words <= 1 && b.words <= 1 && dst.words <= 1
}

pub(crate) fn exec_one<S: StateStore, M: MemStore>(ctx: &mut Ctx<'_, S, M>, instr: &Instr) {
    match *instr {
        Instr::Copy { dst, a } => {
            if dst.words <= 1 && a.words <= 1 {
                let v = ctx.word(a);
                ctx.write1(dst, v);
            } else {
                let mut buf = wide_buf(dst.words);
                let n = dst.words as usize;
                // canonical read, truncating or zero-extending
                let mut src = wide_buf(a.words.max(dst.words));
                ctx.read_into(a, src.as_mut());
                buf.as_mut()[..n].copy_from_slice(&src.as_ref()[..n]);
                ctx.write_words(dst, buf.as_mut());
            }
        }
        Instr::Sext { dst, a } => {
            if dst.words <= 1 && a.words <= 1 {
                let v = ctx.word_ext(Slot { signed: true, ..a });
                ctx.write1(dst, v);
            } else {
                let mut src = wide_buf(a.words);
                ctx.read_into(a, src.as_mut());
                let mut buf = wide_buf(dst.words);
                words::sext_copy(
                    &mut buf.as_mut()[..dst.words as usize],
                    &src.as_ref()[..a.words as usize],
                    a.width,
                    dst.width,
                );
                ctx.write_words(dst, buf.as_mut());
            }
        }
        Instr::Bin { op, dst, a, b } => exec_bin(ctx, op, dst, a, b),
        Instr::Un { op, dst, a, imm } => exec_un(ctx, op, dst, a, imm),
        Instr::Mux { dst, sel, t, f } => {
            let take_t = if sel.words <= 1 {
                ctx.word(sel) != 0
            } else {
                let mut buf = wide_buf(sel.words);
                ctx.read_into(sel, buf.as_mut());
                !words::is_zero(&buf.as_ref()[..sel.words as usize])
            };
            write_select(ctx, dst, if take_t { t } else { f });
        }
        Instr::Cat { dst, a, b } => {
            if dst.words <= 1 {
                let v = (ctx.word(a) << b.width) | ctx.word(b);
                ctx.write1(dst, v);
            } else {
                let mut av = wide_buf(a.words);
                ctx.read_into(a, av.as_mut());
                let mut bv = wide_buf(b.words);
                ctx.read_into(b, bv.as_mut());
                let mut buf = wide_buf(dst.words);
                words::cat(
                    &mut buf.as_mut()[..dst.words as usize],
                    &av.as_ref()[..a.words as usize],
                    &bv.as_ref()[..b.words as usize],
                    b.width,
                );
                ctx.write_words(dst, buf.as_mut());
            }
        }
        Instr::ReadMem { dst, mem, addr } => {
            let a = ctx.word_sat(addr);
            let mut buf = wide_buf(dst.words);
            ctx.mems
                .read_entry(mem, a, &mut buf.as_mut()[..dst.words as usize]);
            ctx.write_words(dst, buf.as_mut());
        }
    }
}

fn exec_bin<S: StateStore, M: MemStore>(
    ctx: &mut Ctx<'_, S, M>,
    op: BinOp,
    dst: Slot,
    a: Slot,
    b: Slot,
) {
    let signed = a.signed;
    if narrow3(a, b, dst) {
        let av = ctx.word_ext(a);
        let bv = ctx.word_ext(b);
        let v = match op {
            BinOp::Add => av.wrapping_add(bv),
            BinOp::Sub => av.wrapping_sub(bv),
            BinOp::Mul => av.wrapping_mul(bv),
            BinOp::Div => {
                if bv == 0 {
                    0
                } else if signed {
                    ((av as i64 as i128) / (bv as i64 as i128)) as u64
                } else {
                    av / bv
                }
            }
            BinOp::Rem => {
                if bv == 0 {
                    av
                } else if signed {
                    ((av as i64 as i128) % (bv as i64 as i128)) as u64
                } else {
                    av % bv
                }
            }
            BinOp::Lt => cmp_narrow(av, bv, signed, Ordering::is_lt),
            BinOp::Leq => cmp_narrow(av, bv, signed, Ordering::is_le),
            BinOp::Gt => cmp_narrow(av, bv, signed, Ordering::is_gt),
            BinOp::Geq => cmp_narrow(av, bv, signed, Ordering::is_ge),
            BinOp::Eq => (av == bv) as u64,
            BinOp::Neq => (av != bv) as u64,
            BinOp::And => av & bv,
            BinOp::Or => av | bv,
            BinOp::Xor => av ^ bv,
            BinOp::Dshl => {
                let sh = bv; // b is unsigned
                if sh >= 64 {
                    0
                } else {
                    ctx.word(a) << sh
                }
            }
            BinOp::Dshr => {
                let sh = bv;
                if signed {
                    let ext = ctx.word_ext(a) as i64;
                    (ext >> sh.min(63)) as u64
                } else if sh >= 64 {
                    0
                } else {
                    ctx.word(a) >> sh
                }
            }
        };
        ctx.write1(dst, v);
        return;
    }
    exec_bin_wide(ctx, op, dst, a, b);
}

#[inline]
fn cmp_narrow(av: u64, bv: u64, signed: bool, pick: impl Fn(Ordering) -> bool) -> u64 {
    let ord = if signed {
        (av as i64).cmp(&(bv as i64))
    } else {
        av.cmp(&bv)
    };
    pick(ord) as u64
}

/// Mux-style write-back: the selected arm, extended per its sign, into
/// `dst`.
fn write_select<S: StateStore, M: MemStore>(ctx: &mut Ctx<'_, S, M>, dst: Slot, arm: Slot) {
    if dst.words <= 1 && arm.words <= 1 {
        let v = ctx.word_ext(arm);
        ctx.write1(dst, v);
    } else {
        let mut buf = wide_buf(dst.words.max(arm.words));
        ctx.read_ext(arm, buf.as_mut());
        ctx.write_words(dst, buf.as_mut());
    }
}

#[cold]
fn exec_bin_wide<S: StateStore, M: MemStore>(
    ctx: &mut Ctx<'_, S, M>,
    op: BinOp,
    dst: Slot,
    a: Slot,
    b: Slot,
) {
    let signed = a.signed;
    let n = dst.words.max(a.words).max(b.words) as usize;
    match op {
        BinOp::Add | BinOp::Sub | BinOp::And | BinOp::Or | BinOp::Xor => {
            let mut av = wide_buf(n as u16);
            let mut bv = wide_buf(n as u16);
            ctx.read_ext(a, av.as_mut());
            ctx.read_ext(b, bv.as_mut());
            let mut out = wide_buf(n as u16);
            {
                let (o, x, y) = (&mut out.as_mut()[..n], &av.as_ref()[..n], &bv.as_ref()[..n]);
                match op {
                    BinOp::Add => {
                        words::add(o, x, y);
                    }
                    BinOp::Sub => {
                        words::sub(o, x, y);
                    }
                    BinOp::And => words::and(o, x, y),
                    BinOp::Or => words::or(o, x, y),
                    BinOp::Xor => words::xor(o, x, y),
                    _ => unreachable!(),
                }
            }
            ctx.write_words(dst, out.as_mut());
        }
        BinOp::Mul => {
            let nw = dst.words as usize;
            let mut av = wide_buf(nw as u16);
            let mut bv = wide_buf(nw as u16);
            ctx.read_ext(a, av.as_mut());
            ctx.read_ext(b, bv.as_mut());
            let mut out = wide_buf(nw as u16);
            words::mul(
                &mut out.as_mut()[..nw],
                &av.as_ref()[..nw],
                &bv.as_ref()[..nw],
            );
            ctx.write_words(dst, out.as_mut());
        }
        BinOp::Div | BinOp::Rem => exec_divrem_wide(ctx, op, dst, a, b),
        BinOp::Lt | BinOp::Leq | BinOp::Gt | BinOp::Geq | BinOp::Eq | BinOp::Neq => {
            let mut av = wide_buf(n as u16);
            let mut bv = wide_buf(n as u16);
            ctx.read_ext(a, av.as_mut());
            ctx.read_ext(b, bv.as_mut());
            let ord = if signed {
                words::scmp_extended(&av.as_ref()[..n], &bv.as_ref()[..n])
            } else {
                words::ucmp(&av.as_ref()[..n], &bv.as_ref()[..n])
            };
            let v = match op {
                BinOp::Lt => ord.is_lt(),
                BinOp::Leq => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                BinOp::Geq => ord.is_ge(),
                BinOp::Eq => ord.is_eq(),
                BinOp::Neq => ord.is_ne(),
                _ => unreachable!(),
            };
            ctx.write1(dst, v as u64);
        }
        BinOp::Dshl => {
            let sh = ctx.word_sat(b).min(dst.width as u64) as u32;
            let nw = dst.words as usize;
            let mut av = wide_buf(nw as u16);
            ctx.read_into(a, av.as_mut());
            let mut out = wide_buf(nw as u16);
            words::shl(&mut out.as_mut()[..nw], &av.as_ref()[..nw], sh);
            ctx.write_words(dst, out.as_mut());
        }
        BinOp::Dshr => {
            let sh = ctx.word_sat(b).min(a.width as u64 + 1) as u32;
            let nw = a.words.max(dst.words) as usize;
            let mut av = wide_buf(nw as u16);
            ctx.read_into(a, av.as_mut());
            let mut out = wide_buf(nw as u16);
            if signed {
                words::ashr(
                    &mut out.as_mut()[..nw],
                    &av.as_ref()[..nw],
                    sh.min(a.width),
                    a.width,
                );
            } else {
                words::lshr(&mut out.as_mut()[..nw], &av.as_ref()[..nw], sh);
            }
            ctx.write_words(dst, out.as_mut());
        }
    }
}

/// Multi-word division/remainder on the shared stack buffers — no heap
/// traffic below [`STACK_WORDS`] — matching the
/// [`gsim_value::ops::div`]/[`gsim_value::ops::rem`] reference
/// semantics bit for bit: magnitudes divide, the quotient takes the
/// XOR of the signs, the remainder the dividend's sign, and a zero
/// divisor yields `q = 0, r = a`.
#[cold]
fn exec_divrem_wide<S: StateStore, M: MemStore>(
    ctx: &mut Ctx<'_, S, M>,
    op: BinOp,
    dst: Slot,
    a: Slot,
    b: Slot,
) {
    let signed = a.signed;
    let n = words_for(a.width.max(b.width)).max(1);
    let mut aw = wide_buf(n as u16);
    let mut bw = wide_buf(n as u16);
    ctx.read_into(a, aw.as_mut());
    ctx.read_into(b, bw.as_mut());
    let mut neg_a = false;
    let mut neg_b = false;
    if signed {
        neg_a = magnitude_in_place(aw.as_mut(), a.width);
        neg_b = magnitude_in_place(bw.as_mut(), b.width);
    }
    let b_zero = words::is_zero(&bw.as_ref()[..n]);
    let mut q = wide_buf(n as u16);
    let mut r = wide_buf(n as u16);
    words::udivrem(
        &mut q.as_mut()[..n],
        &mut r.as_mut()[..n],
        &aw.as_ref()[..n],
        &bw.as_ref()[..n],
    );
    let nd = dst.words as usize;
    let copy = n.min(nd);
    let mut out = wide_buf(dst.words);
    if op == BinOp::Div {
        out.as_mut()[..copy].copy_from_slice(&q.as_ref()[..copy]);
        if signed && (neg_a ^ neg_b) && !b_zero {
            neg_in_place(out.as_mut(), nd);
        }
    } else {
        if signed && neg_a && !words::is_zero(&r.as_ref()[..n]) {
            neg_in_place(r.as_mut(), n);
        }
        out.as_mut()[..copy].copy_from_slice(&r.as_ref()[..copy]);
    }
    ctx.write_words(dst, out.as_mut());
}

/// Two's-complement magnitude at `width` bits, in place over the low
/// `words_for(width)` words; returns whether the value was negative.
fn magnitude_in_place(buf: &mut [u64], width: u32) -> bool {
    if width == 0 || !words::get_bit(buf, width - 1) {
        return false;
    }
    let nw = words_for(width);
    neg_in_place(buf, nw);
    words::mask_in_place(&mut buf[..nw], width);
    true
}

/// Two's-complement negation of the low `n` words, in place.
fn neg_in_place(buf: &mut [u64], n: usize) {
    let mut carry = 1u64;
    for w in &mut buf[..n] {
        let (s, c) = (!*w).overflowing_add(carry);
        *w = s;
        carry = c as u64;
    }
}

fn exec_un<S: StateStore, M: MemStore>(
    ctx: &mut Ctx<'_, S, M>,
    op: UnOp,
    dst: Slot,
    a: Slot,
    imm: u32,
) {
    if a.words <= 1 && dst.words <= 1 {
        let v = match op {
            UnOp::Not => !ctx.word(a),
            UnOp::Andr => (ctx.word(a) == lowmask(a.width)) as u64,
            UnOp::Orr => (ctx.word(a) != 0) as u64,
            UnOp::Xorr => (ctx.word(a).count_ones() % 2) as u64,
            UnOp::Neg => ctx.word_ext(a).wrapping_neg(),
            UnOp::Shl => {
                if imm >= 64 {
                    0
                } else {
                    ctx.word(a) << imm
                }
            }
            UnOp::Shr => {
                if a.signed {
                    ((ctx.word_ext(a) as i64) >> imm.min(63)) as u64
                } else if imm >= 64 {
                    0
                } else {
                    ctx.word(a) >> imm
                }
            }
            UnOp::Bits => ctx.word(a) >> imm.min(63),
        };
        ctx.write1(dst, v);
        return;
    }
    exec_un_wide(ctx, op, dst, a, imm);
}

#[cold]
fn exec_un_wide<S: StateStore, M: MemStore>(
    ctx: &mut Ctx<'_, S, M>,
    op: UnOp,
    dst: Slot,
    a: Slot,
    imm: u32,
) {
    let na = a.words as usize;
    let nd = dst.words as usize;
    let mut av = wide_buf(a.words.max(dst.words));
    ctx.read_into(a, av.as_mut());
    match op {
        UnOp::Not => {
            let mut out = wide_buf(dst.words);
            for i in 0..nd {
                out.as_mut()[i] = !av.as_ref()[i];
            }
            ctx.write_words(dst, out.as_mut());
        }
        UnOp::Andr => {
            let v = words::andr(&av.as_ref()[..na], a.width);
            ctx.write1(dst, v as u64);
        }
        UnOp::Orr => {
            let v = words::orr(&av.as_ref()[..na]);
            ctx.write1(dst, v as u64);
        }
        UnOp::Xorr => {
            let v = words::xorr(&av.as_ref()[..na]);
            ctx.write1(dst, v as u64);
        }
        UnOp::Neg => {
            let nw = nd;
            let mut ext = wide_buf(dst.words);
            ctx.read_ext(a, ext.as_mut());
            let mut out = wide_buf(dst.words);
            words::neg(&mut out.as_mut()[..nw], &ext.as_ref()[..nw]);
            ctx.write_words(dst, out.as_mut());
        }
        UnOp::Shl => {
            let mut src = wide_buf(dst.words);
            ctx.read_into(a, src.as_mut());
            let mut out = wide_buf(dst.words);
            words::shl(&mut out.as_mut()[..nd], &src.as_ref()[..nd], imm);
            ctx.write_words(dst, out.as_mut());
        }
        UnOp::Shr => {
            let n = na.max(nd);
            let mut out = wide_buf(n as u16);
            if a.signed {
                words::ashr(
                    &mut out.as_mut()[..na],
                    &av.as_ref()[..na],
                    imm.min(a.width),
                    a.width,
                );
            } else {
                words::lshr(
                    &mut out.as_mut()[..na],
                    &av.as_ref()[..na],
                    imm.min(a.width * 2),
                );
            }
            ctx.write_words(dst, out.as_mut());
        }
        UnOp::Bits => {
            let mut out = wide_buf(dst.words);
            words::extract(&mut out.as_mut()[..nd], &av.as_ref()[..na], imm, dst.width);
            ctx.write_words(dst, out.as_mut());
        }
    }
}

/// A stack buffer for wide values, spilling to the heap past
/// [`STACK_WORDS`].
// The outsized stack variant is the point: wide-op temporaries stay
// allocation-free in the common case, so don't box it away.
#[allow(clippy::large_enum_variant)]
pub(crate) enum WideBuf {
    Stack([u64; STACK_WORDS], usize),
    Heap(Vec<u64>),
}

impl WideBuf {
    #[inline]
    pub(crate) fn as_ref(&self) -> &[u64] {
        match self {
            WideBuf::Stack(a, n) => &a[..*n],
            WideBuf::Heap(v) => v,
        }
    }

    #[inline]
    pub(crate) fn as_mut(&mut self) -> &mut [u64] {
        match self {
            WideBuf::Stack(a, n) => &mut a[..*n],
            WideBuf::Heap(v) => v,
        }
    }
}

#[inline]
pub(crate) fn wide_buf(words: u16) -> WideBuf {
    let n = (words as usize).max(1);
    if n <= STACK_WORDS {
        WideBuf::Stack([0u64; STACK_WORDS], n)
    } else {
        WideBuf::Heap(vec![0u64; n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with(state: Vec<u64>, consts: Vec<u64>) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        (state, vec![0u64; 64], consts)
    }

    fn run(state: &mut [u64], scratch: &mut [u64], consts: &[u64], instrs: &[Instr]) {
        let mems: Vec<MemArena> = Vec::new();
        let mut ctx = Ctx {
            state: &mut state[..],
            scratch: &mut scratch[..],
            consts,
            mems: &mems[..],
        };
        run_instrs(&mut ctx, instrs);
    }

    #[test]
    fn narrow_add_masks() {
        let (mut st, mut sc, cs) = ctx_with(vec![250, 10, 0], vec![]);
        let a = Slot::state(0, 8, false);
        let b = Slot::state(1, 8, false);
        let dst = Slot::state(2, 9, false);
        run(
            &mut st,
            &mut sc,
            &cs,
            &[Instr::Bin {
                op: BinOp::Add,
                dst,
                a,
                b,
            }],
        );
        assert_eq!(st[2], 260);
    }

    #[test]
    fn narrow_signed_div_truncates() {
        // -7 / 2 == -3 at 9 bits
        let (mut st, mut sc, cs) = ctx_with(vec![0xf9, 2, 0], vec![]);
        let a = Slot::state(0, 8, true);
        let b = Slot::state(1, 8, true);
        let dst = Slot::state(2, 9, true);
        run(
            &mut st,
            &mut sc,
            &cs,
            &[Instr::Bin {
                op: BinOp::Div,
                dst,
                a,
                b,
            }],
        );
        assert_eq!(st[2] & 0x1ff, 0x1fd); // -3 masked to 9 bits
    }

    #[test]
    fn wide_add_carries() {
        let (mut st, mut sc, cs) = ctx_with(vec![u64::MAX, 0, 1, 0, 0, 0], vec![]);
        let a = Slot::state(0, 65, false);
        let b = Slot::state(2, 65, false);
        let dst = Slot::state(4, 66, false);
        run(
            &mut st,
            &mut sc,
            &cs,
            &[Instr::Bin {
                op: BinOp::Add,
                dst,
                a,
                b,
            }],
        );
        assert_eq!((st[4], st[5]), (0, 1));
    }

    #[test]
    fn cat_and_bits_roundtrip() {
        let (mut st, mut sc, cs) = ctx_with(vec![0xab, 0xcd, 0, 0], vec![]);
        let a = Slot::state(0, 8, false);
        let b = Slot::state(1, 8, false);
        let cat_dst = Slot::state(2, 16, false);
        let bits_dst = Slot::state(3, 8, false);
        run(
            &mut st,
            &mut sc,
            &cs,
            &[
                Instr::Cat { dst: cat_dst, a, b },
                Instr::Un {
                    op: UnOp::Bits,
                    dst: bits_dst,
                    a: cat_dst,
                    imm: 8,
                },
            ],
        );
        assert_eq!(st[2], 0xabcd);
        assert_eq!(st[3], 0xab);
    }

    #[test]
    fn mux_extends_arms() {
        let (mut st, mut sc, cs) = ctx_with(vec![1, 0x8, 0x00, 0], vec![]);
        let sel = Slot::state(0, 1, false);
        let t = Slot::state(1, 4, true); // 0x8 = -8 as 4-bit signed
        let f = Slot::state(2, 8, true);
        let dst = Slot::state(3, 8, true);
        run(&mut st, &mut sc, &cs, &[Instr::Mux { dst, sel, t, f }]);
        assert_eq!(st[3], 0xf8); // -8 sign-extended to 8 bits
    }

    #[test]
    fn mem_read_in_and_out_of_range() {
        let mut mem = MemArena::new("m".into(), 2, 16);
        mem.load_image(&[0x1234, 0x5678]).unwrap();
        let mems = [mem];
        let mut st = [1u64, 0, 5, 0];
        let mut sc = [0u64; 8];
        let addr = Slot::state(0, 2, false);
        let dst = Slot::state(1, 16, false);
        let bad_addr = Slot::state(2, 4, false);
        let dst2 = Slot::state(3, 16, false);
        let cs: Vec<u64> = vec![];
        let mut ctx = Ctx {
            state: &mut st[..],
            scratch: &mut sc[..],
            consts: &cs,
            mems: &mems[..],
        };
        run_instrs(
            &mut ctx,
            &[
                Instr::ReadMem { dst, mem: 0, addr },
                Instr::ReadMem {
                    dst: dst2,
                    mem: 0,
                    addr: bad_addr,
                },
            ],
        );
        assert_eq!(st[1], 0x5678);
        assert_eq!(st[3], 0, "out-of-range read is zero");
    }

    #[test]
    fn atomic_mems_snapshot_copy_back_roundtrips_bit_exactly() {
        let mut m = MemArena::new("m".into(), 5, 96);
        for a in 0..5 {
            let entry = m.entry_mut(a).unwrap();
            entry[0] = 0xdead_beef_0000_0000 | a;
            entry[1] = (a << 8) | 0xff; // masked region: 96 % 64 = 32 bits
        }
        let before: Vec<u64> = m.words().to_vec();
        let mems = [m];
        let image = AtomicMems::snapshot(&mems);
        // Mutate through the atomic image, as the parallel commit does.
        image.arenas[0].data[2].store(0x1234_5678, AtomicOrdering::Relaxed);
        let mut mems = mems;
        image.copy_back(&mut mems);
        let mut expect = before;
        expect[2] = 0x1234_5678;
        assert_eq!(mems[0].words(), &expect[..], "copy_back must be bit-exact");
        // And an unmodified round trip is the identity.
        let image2 = AtomicMems::snapshot(&mems);
        let again: Vec<u64> = mems[0].words().to_vec();
        image2.copy_back(&mut mems);
        assert_eq!(mems[0].words(), &again[..]);
    }

    #[test]
    fn wide_divrem_stack_path_matches_reference_ops() {
        use gsim_value::{ops, Value};
        // 100-bit operands: exercises exec_divrem_wide directly.
        let a_words = [0xdead_beef_cafe_f00d_u64, 0x0000_000f_ffff_ffff];
        let b_words = [0x0000_0000_abcd_ef01_u64, 0x3];
        let mut st = vec![a_words[0], a_words[1], b_words[0], b_words[1], 0, 0, 0, 0];
        let mut sc = vec![0u64; 8];
        let cs: Vec<u64> = vec![];
        for (signed, op) in [
            (false, BinOp::Div),
            (true, BinOp::Div),
            (false, BinOp::Rem),
            (true, BinOp::Rem),
        ] {
            let a = Slot::state(0, 100, signed);
            let b = Slot::state(2, 100, signed);
            let dst = Slot::state(4, if op == BinOp::Div { 101 } else { 100 }, signed);
            st[4] = 0;
            st[5] = 0;
            run(&mut st, &mut sc, &cs, &[Instr::Bin { op, dst, a, b }]);
            let va = Value::from_words(a_words.to_vec(), 100);
            let vb = Value::from_words(b_words.to_vec(), 100);
            let want = if op == BinOp::Div {
                ops::div(&va, &vb, signed)
            } else {
                ops::rem(&va, &vb, signed)
            }
            .zext_or_trunc(dst.width);
            assert_eq!(
                &st[4..4 + dst.words as usize],
                want.words(),
                "{op:?} signed={signed}"
            );
        }
    }

    #[test]
    fn reductions_narrow_and_wide() {
        let mut st = vec![0xffu64, u64::MAX, u64::MAX, 0, 0, 0];
        let mut sc = vec![0u64; 8];
        let cs: Vec<u64> = vec![];
        let a8 = Slot::state(0, 8, false);
        let wide = Slot::state(1, 128, false);
        let d0 = Slot::state(3, 1, false);
        let d1 = Slot::state(4, 1, false);
        let d2 = Slot::state(5, 1, false);
        run(
            &mut st,
            &mut sc,
            &cs,
            &[
                Instr::Un {
                    op: UnOp::Andr,
                    dst: d0,
                    a: a8,
                    imm: 0,
                },
                Instr::Un {
                    op: UnOp::Andr,
                    dst: d1,
                    a: wide,
                    imm: 0,
                },
                Instr::Un {
                    op: UnOp::Xorr,
                    dst: d2,
                    a: a8,
                    imm: 0,
                },
            ],
        );
        assert_eq!((st[3], st[4], st[5]), (1, 1, 0));
    }
}
