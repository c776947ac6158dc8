//! The flat execution image: one contiguous arena of fixed-size encoded
//! instructions shared by every engine.
//!
//! The compiler lowers each task's mid-level [`Instr`] stream into
//! 16-byte [`EInstr`] units appended to a single `Vec` in schedule
//! order, so the per-cycle sweep streams through one allocation instead
//! of chasing a `Box<[Instr]>` per task. Instructions whose operands all
//! fit one word — the overwhelming majority of RTL signals — are
//! encoded *narrow*: the unit carries packed slot references plus the
//! widths and sign bits the interpreter needs, and the narrow dispatch
//! loop never re-checks operand word counts. Anything multi-word
//! becomes an [`Op::Wide`] unit pointing into a side table of the
//! original [`Instr`]s, executed by the general interpreter.
//!
//! Operand references are packed as `space << 30 | word offset`
//! (state / scratch / const), and zero-width slots are remapped at
//! encode time: reads hit the reserved all-zero word at const-pool
//! offset [`CONST_ZERO_OFF`], and instructions with a zero-width
//! destination are dropped outright (they have no observable effect),
//! so the hot loop carries no zero-width guards at all.
//!
//! Multi-operand instructions (`mux`) occupy two consecutive units; the second is an [`Op::Ext`] carrying the extra
//! operands and is consumed by the first unit's dispatch arm, never
//! dispatched itself.

use crate::compile::{BinOp, Instr, UnOp};
use crate::storage::{Slot, Space};

/// Bit position of the space tag inside a packed operand reference.
pub(crate) const SPACE_SHIFT: u32 = 30;
/// Mask extracting the word offset from a packed operand reference.
pub(crate) const OFF_MASK: u32 = (1 << SPACE_SHIFT) - 1;
/// Space tag of the state arena.
pub(crate) const SPACE_STATE: u32 = 0;
/// Space tag of the scratch arena.
pub(crate) const SPACE_SCRATCH: u32 = 1;
/// Space tag of the const pool.
pub(crate) const SPACE_CONST: u32 = 2;
/// Const-pool offset of the reserved all-zero word that zero-width
/// operand reads are remapped to (the compiler seeds the pool with it).
pub(crate) const CONST_ZERO_OFF: u32 = 0;

/// Sign bit of an operand meta byte (low 7 bits hold the width, 0–64).
pub(crate) const META_SIGNED: u8 = 0x80;

/// Encoded opcode. Everything except [`Op::Wide`] operates on
/// single-word operands; signedness comes from the operand meta bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Op {
    // Binary `a ⊕ b → dst`, masked to the destination width.
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Leq,
    Gt,
    Geq,
    Eq,
    Neq,
    And,
    Or,
    Xor,
    Dshl,
    Dshr,
    // Unary with the immediate in the `b` field.
    Not,
    Andr,
    Orr,
    Xorr,
    Neg,
    Shl,
    Shr,
    Bits,
    Copy,
    Sext,
    /// `a` = selector, `b` = true arm; false arm in the [`Op::Ext`]
    /// unit's `a` field.
    Mux,
    /// `xb` holds the low operand's width (the shift amount).
    Cat,
    /// `a` = address, `b` = memory index.
    ReadMem,
    /// Extension unit carrying extra operands for the preceding unit;
    /// never dispatched directly.
    Ext,
    /// Multi-word instruction: `a` indexes the wide side table.
    Wide,
}

/// One encoded instruction unit (16 bytes).
///
/// Field use varies by opcode; see [`Op`]. `xa`/`xb` are operand meta
/// bytes (width | sign), `xd` the destination width, `dst`/`a`/`b`
/// packed operand references or immediates.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub(crate) struct EInstr {
    pub op: Op,
    pub xa: u8,
    pub xb: u8,
    pub xd: u8,
    pub dst: u32,
    pub a: u32,
    pub b: u32,
}

// The whole point of the encoding: every unit stays within 16 bytes so
// the interpreter streams four instructions per cache line.
const _: () = assert!(std::mem::size_of::<EInstr>() <= 16);

/// The compiled program's code arenas.
#[derive(Debug, Default)]
pub(crate) struct ExecImage {
    /// Contiguous encoded instruction arena, tasks in schedule order.
    pub code: Vec<EInstr>,
    /// Side table of multi-word instructions ([`Op::Wide`] targets).
    pub wide: Vec<Instr>,
}

/// Result of encoding one task's instruction stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaskCode {
    /// Unit range into [`ExecImage::code`].
    pub range: (u32, u32),
    /// Every unit is narrow: the task runs on the fast dispatch loop.
    pub narrow_only: bool,
}

/// Packs a slot reference; zero-width slots read the reserved const
/// zero word.
fn pack(s: Slot) -> u32 {
    if s.words == 0 {
        return (SPACE_CONST << SPACE_SHIFT) | CONST_ZERO_OFF;
    }
    assert!(
        s.off <= OFF_MASK,
        "slot offset {} exceeds the packed 30-bit range",
        s.off
    );
    let tag = match s.space {
        Space::State => SPACE_STATE,
        Space::Scratch => SPACE_SCRATCH,
        Space::Const => SPACE_CONST,
    };
    (tag << SPACE_SHIFT) | s.off
}

/// Operand meta byte: width (≤ 64) plus the sign bit. Zero-width slots
/// (whose packed reference already reads constant zero) claim width 64
/// so the interpreter's sign-extension path never shifts by 64 — the
/// raw zero IS the correct signed value — while the sign bit survives
/// for the comparisons that key signedness on operand `a`'s meta.
fn meta(s: Slot) -> u8 {
    if s.words == 0 {
        return 64 | if s.signed { META_SIGNED } else { 0 };
    }
    debug_assert!(s.width <= 64, "narrow operand wider than a word");
    (s.width as u8) | if s.signed { META_SIGNED } else { 0 }
}

fn narrow(s: Slot) -> bool {
    s.words <= 1
}

/// Destination slot of an instruction (`None` for kinds without one).
fn dst_of(ins: &Instr) -> Slot {
    match *ins {
        Instr::Copy { dst, .. }
        | Instr::Sext { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::Un { dst, .. }
        | Instr::Mux { dst, .. }
        | Instr::Cat { dst, .. }
        | Instr::ReadMem { dst, .. } => dst,
    }
}

fn bin_op(op: BinOp) -> Op {
    match op {
        BinOp::Add => Op::Add,
        BinOp::Sub => Op::Sub,
        BinOp::Mul => Op::Mul,
        BinOp::Div => Op::Div,
        BinOp::Rem => Op::Rem,
        BinOp::Lt => Op::Lt,
        BinOp::Leq => Op::Leq,
        BinOp::Gt => Op::Gt,
        BinOp::Geq => Op::Geq,
        BinOp::Eq => Op::Eq,
        BinOp::Neq => Op::Neq,
        BinOp::And => Op::And,
        BinOp::Or => Op::Or,
        BinOp::Xor => Op::Xor,
        BinOp::Dshl => Op::Dshl,
        BinOp::Dshr => Op::Dshr,
    }
}

fn un_op(op: UnOp) -> Op {
    match op {
        UnOp::Not => Op::Not,
        UnOp::Andr => Op::Andr,
        UnOp::Orr => Op::Orr,
        UnOp::Xorr => Op::Xorr,
        UnOp::Neg => Op::Neg,
        UnOp::Shl => Op::Shl,
        UnOp::Shr => Op::Shr,
        UnOp::Bits => Op::Bits,
    }
}

impl ExecImage {
    /// Appends one task's instruction stream to the arena.
    pub(crate) fn push_task(&mut self, instrs: &[Instr]) -> TaskCode {
        let lo = self.code.len() as u32;
        let mut narrow_only = true;
        for ins in instrs {
            narrow_only &= self.encode(ins);
        }
        TaskCode {
            range: (lo, self.code.len() as u32),
            narrow_only,
        }
    }

    fn push_wide(&mut self, ins: &Instr) -> bool {
        let idx = self.wide.len() as u32;
        self.wide.push(*ins);
        self.code.push(EInstr {
            op: Op::Wide,
            xa: 0,
            xb: 0,
            xd: 0,
            dst: 0,
            a: idx,
            b: 0,
        });
        false
    }

    /// Encodes one instruction; returns whether it was narrow.
    fn encode(&mut self, ins: &Instr) -> bool {
        // A zero-width destination makes the instruction unobservable.
        if dst_of(ins).words == 0 {
            return true;
        }
        match *ins {
            Instr::Copy { dst, a } if narrow(dst) && narrow(a) => {
                self.emit(Op::Copy, dst, a, meta(a), 0, 0);
                true
            }
            Instr::Sext { dst, a } if narrow(dst) && narrow(a) => {
                // The interpreter sign-extends per the meta byte; the
                // semantics force a signed read regardless of the slot.
                self.emit(Op::Sext, dst, a, meta(a) | META_SIGNED, 0, 0);
                true
            }
            Instr::Bin { op, dst, a, b } if narrow(dst) && narrow(a) && narrow(b) => {
                self.code.push(EInstr {
                    op: bin_op(op),
                    xa: meta(a),
                    xb: meta(b),
                    xd: dst.width as u8,
                    dst: pack(dst),
                    a: pack(a),
                    b: pack(b),
                });
                true
            }
            Instr::Un { op, dst, a, imm }
                if narrow(dst) && narrow(a) && !(op == UnOp::Andr && a.words == 0) =>
            {
                // A zero-width andr is vacuously 1; its encoded arm
                // reads the meta width (64 for zero-width operands), so
                // it takes the wide path below, whose mid-level
                // interpreter keeps the reference semantics.
                self.emit(un_op(op), dst, a, meta(a), imm, 0);
                true
            }
            Instr::Mux { dst, sel, t, f }
                if narrow(dst) && narrow(sel) && narrow(t) && narrow(f) =>
            {
                self.code.push(EInstr {
                    op: Op::Mux,
                    xa: 0,
                    xb: meta(t),
                    xd: dst.width as u8,
                    dst: pack(dst),
                    a: pack(sel),
                    b: pack(t),
                });
                self.ext(f, Slot::constant(CONST_ZERO_OFF, 0, false));
                true
            }
            Instr::Cat { dst, a, b } if narrow(dst) && narrow(a) && narrow(b) => {
                self.code.push(EInstr {
                    op: Op::Cat,
                    xa: 0,
                    xb: b.width as u8,
                    xd: dst.width as u8,
                    dst: pack(dst),
                    a: pack(a),
                    b: pack(b),
                });
                true
            }
            Instr::ReadMem { dst, mem, addr } if narrow(dst) && narrow(addr) => {
                self.emit(Op::ReadMem, dst, addr, 0, mem, 0);
                true
            }
            ref wide => self.push_wide(wide),
        }
    }

    /// Single-unit emit with `a` operand + immediate `b`.
    fn emit(&mut self, op: Op, dst: Slot, a: Slot, xa: u8, b: u32, xb: u8) {
        self.code.push(EInstr {
            op,
            xa,
            xb,
            xd: dst.width as u8,
            dst: pack(dst),
            a: pack(a),
            b,
        });
    }

    /// Extension unit carrying two extra operands in `a` and `b`.
    fn ext(&mut self, ea: Slot, eb: Slot) {
        self.code.push(EInstr {
            op: Op::Ext,
            xa: meta(ea),
            xb: meta(eb),
            xd: 0,
            dst: 0,
            a: pack(ea),
            b: pack(eb),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoded_instruction_is_at_most_16_bytes() {
        assert!(std::mem::size_of::<EInstr>() <= 16);
        // And exactly 16 today: four units per cache line.
        assert_eq!(std::mem::size_of::<EInstr>(), 16);
    }

    #[test]
    fn narrow_and_wide_split() {
        let mut img = ExecImage::default();
        let narrow_add = Instr::Bin {
            op: BinOp::Add,
            dst: Slot::state(0, 8, false),
            a: Slot::state(1, 8, false),
            b: Slot::state(2, 8, false),
        };
        let wide_add = Instr::Bin {
            op: BinOp::Add,
            dst: Slot::state(3, 100, false),
            a: Slot::state(5, 100, false),
            b: Slot::state(7, 100, false),
        };
        let tc = img.push_task(&[narrow_add, wide_add]);
        assert!(!tc.narrow_only);
        assert_eq!(tc.range, (0, 2));
        assert_eq!(img.code[0].op, Op::Add);
        assert_eq!(img.code[1].op, Op::Wide);
        assert_eq!(img.wide.len(), 1);
    }

    #[test]
    fn mux_takes_two_units_and_zero_width_drops() {
        let mut img = ExecImage::default();
        let mux = Instr::Mux {
            dst: Slot::state(0, 4, false),
            sel: Slot::state(1, 1, false),
            t: Slot::state(2, 4, false),
            f: Slot::state(3, 4, false),
        };
        let dead = Instr::Copy {
            dst: Slot::state(4, 0, false),
            a: Slot::state(2, 4, false),
        };
        let tc = img.push_task(&[mux, dead]);
        assert!(tc.narrow_only);
        assert_eq!(img.code.len(), 2, "mux + ext, dead copy dropped");
        assert_eq!(img.code[0].op, Op::Mux);
        assert_eq!(img.code[1].op, Op::Ext);
    }

    #[test]
    fn zero_width_operand_reads_const_zero() {
        let mut img = ExecImage::default();
        let cat = Instr::Cat {
            dst: Slot::state(0, 4, false),
            a: Slot::state(1, 4, false),
            b: Slot::scratch(9, 0, false),
        };
        img.push_task(&[cat]);
        let e = img.code[0];
        assert_eq!(e.b >> SPACE_SHIFT, SPACE_CONST);
        assert_eq!(e.b & OFF_MASK, CONST_ZERO_OFF);
    }
}
