//! Bytecode compilation: graph → state layout + flat execution image.
//!
//! Each node compiles to a short mid-level [`Instr`] stream, lowered
//! into the contiguous encoded arena of [`crate::image::ExecImage`];
//! the [`Task`] keeps only a unit range into it. State slots are
//! segregated by role (inputs, register current/shadow pairs,
//! combinational values in sweep order) so the essential sweep and the
//! commit phase each walk contiguous memory.

use crate::image::{ExecImage, TaskCode};
use crate::storage::{MemArena, Slot};
use crate::{CompileError, EngineKind, SimOptions};
use gsim_graph::{Expr, ExprKind, Graph, NodeId, NodeKind, PrimOp, Uses};
use gsim_partition::{Algorithm, Partition, PartitionOptions};
use gsim_value::{words_for, Value};
use std::collections::HashMap;

/// Successor-count threshold of the §III-B activation cost model: at or
/// below this many successors the branchless form (a handful of
/// unconditional OR operations) is cheaper than risking a branch miss;
/// above it, the branch predictor amortizes and branchy activation
/// avoids the per-successor work on unchanged values.
pub(crate) const BRANCHLESS_MAX_SUCCS: usize = 4;

/// Binary operations. Signedness comes from the operand slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
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
}

/// Unary operations; `imm` carries shift amounts / slice offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnOp {
    Not,
    Andr,
    Orr,
    Xorr,
    Neg,
    /// `a << imm`.
    Shl,
    /// `a >> imm` (arithmetic when `a.signed`).
    Shr,
    /// bits extraction: `imm` = lo, width from `dst`.
    Bits,
}

/// One bytecode instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Instr {
    /// Zero-extending (or truncating) copy, masks to `dst.width`.
    Copy {
        dst: Slot,
        a: Slot,
    },
    /// Sign-extending copy from `a.width` to `dst.width`.
    Sext {
        dst: Slot,
        a: Slot,
    },
    Bin {
        op: BinOp,
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    Un {
        op: UnOp,
        dst: Slot,
        a: Slot,
        imm: u32,
    },
    Mux {
        dst: Slot,
        sel: Slot,
        t: Slot,
        f: Slot,
    },
    Cat {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    ReadMem {
        dst: Slot,
        mem: u32,
        addr: Slot,
    },
}

/// What a task is, for engine epilogues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskKind {
    /// No work (top-level inputs).
    Input,
    /// Combinational value (logic, outputs, memory reads).
    Comb,
    /// Register next-value computation into the shadow slot.
    Reg,
    /// Memory write port (index into `write_ports`).
    WritePort(u32),
}

/// One node's compiled evaluation: a unit range into the execution
/// image plus the engine metadata.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Task {
    pub node: u32,
    pub kind: TaskKind,
    /// Encoded unit range into [`Compiled::image`]'s code arena.
    pub code: (u32, u32),
    /// Logical instructions executed per evaluation (multi-unit
    /// encodings count once).
    pub n_instrs: u32,
    /// Every unit is narrow: eligible for the fast dispatch loop.
    pub narrow_only: bool,
    /// Where the instruction stream leaves the value.
    pub result: Slot,
    /// The node's persistent state slot (current value; shadow for regs).
    pub out: Slot,
    /// Range into `Compiled::act_list`: supernodes to activate when the
    /// value changes.
    pub act: (u32, u32),
    /// Activation mode chosen by the cost model.
    pub branchless: bool,
}

/// Register commit metadata.
#[derive(Debug, Clone)]
pub(crate) struct RegInfo {
    pub node: u32,
    pub cur: Slot,
    pub shadow: Slot,
    /// Activation range (readers' supernodes) in `act_list`.
    pub act: (u32, u32),
    /// Reset group index, if the register has slow-path reset.
    pub reset_group: Option<u32>,
    /// Init value slot in the const pool (present iff `reset_group`).
    pub init: Option<Slot>,
}

/// A distinct reset signal and the registers it controls.
#[derive(Debug, Clone)]
pub(crate) struct ResetGroup {
    pub signal: Slot,
    pub regs: Vec<u32>, // indices into reg_infos
}

/// Memory write port metadata.
#[derive(Debug, Clone)]
pub(crate) struct WritePortInfo {
    pub mem: u32,
    pub en: Slot,
    pub addr: Slot,
    pub data: Slot,
}

/// A compiled design ready for execution.
pub(crate) struct Compiled {
    /// The flat execution image every engine runs off.
    pub image: ExecImage,
    pub tasks: Vec<Task>,
    /// Task index ranges per supernode (essential engines).
    pub supernode_tasks: Vec<(u32, u32)>,
    /// Task index ranges per level (multithreaded full-cycle engine).
    pub level_tasks: Vec<(u32, u32)>,
    pub consts: Vec<u64>,
    pub state_words: usize,
    pub scratch_words: usize,
    /// Value slot per node id.
    pub node_slot: Vec<Slot>,
    pub reg_infos: Vec<RegInfo>,
    pub reset_groups: Vec<ResetGroup>,
    pub write_ports: Vec<WritePortInfo>,
    /// Flat activation target list (supernode indices).
    pub act_list: Vec<u32>,
    /// Per input node: activation range in `act_list`.
    pub input_act: HashMap<u32, (u32, u32)>,
    /// Per memory: supernodes of its read ports (activated on writes).
    pub mem_read_act: Vec<Vec<u32>>,
    pub mems: Vec<MemArena>,
    /// Number of supernodes (bits in the active bitset).
    pub num_supernodes: usize,
    /// Name → node id.
    pub names: HashMap<String, u32>,
    /// Node widths/signs for peek/poke.
    pub node_meta: Vec<(u32, bool, bool)>, // (width, signed, is_input)
    /// Named top-level inputs `(name, width)`, declaration order — the
    /// Session trait's introspection surface.
    pub io_inputs: Vec<(String, u32)>,
    /// Portable peekable names `(name, width)`: outputs then inputs,
    /// deduplicated — matches the AoT binary's `signal` table.
    pub io_signals: Vec<(String, u32)>,
    /// Time spent partitioning (for Table III).
    pub partition_time: std::time::Duration,
}

pub(crate) fn compile(graph: &Graph, opts: &SimOptions) -> Result<Compiled, CompileError> {
    graph
        .validate()
        .map_err(|e| CompileError::InvalidGraph(e.to_string()))?;
    if let EngineKind::FullCycleMt { threads } = opts.engine {
        if threads == 0 {
            return Err(CompileError::NoThreads);
        }
    }

    // Schedule: essential uses the partition's supernode order; the
    // full-cycle engines use one supernode per node in topo/level order.
    let (partition, level_bounds) = match opts.engine {
        EngineKind::Essential | EngineKind::Threaded => {
            (gsim_partition::build(graph, &opts.partition), Vec::new())
        }
        EngineKind::FullCycle => (
            gsim_partition::build(
                graph,
                &PartitionOptions {
                    algorithm: Algorithm::None,
                    max_size: 1,
                },
            ),
            Vec::new(),
        ),
        EngineKind::FullCycleMt { .. } => {
            let levels = gsim_graph::Levels::compute(graph)
                .map_err(|e| CompileError::InvalidGraph(e.to_string()))?;
            let mut groups: Vec<Vec<NodeId>> = Vec::new();
            let mut bounds = Vec::new();
            let mut start = 0u32;
            for level in &levels.groups {
                for &id in level {
                    groups.push(vec![id]);
                }
                bounds.push((start, start + level.len() as u32));
                start += level.len() as u32;
            }
            (crate::compile::groups_to_partition(graph, groups), bounds)
        }
    };
    let partition_time = partition.build_time;
    let uses = Uses::build(graph);
    let mut c = Compiler {
        graph,
        opts,
        partition: &partition,
        uses: &uses,
        // Offset 0 is the reserved all-zero word that zero-width
        // operand reads are remapped to at encode time; single-word
        // zero constants intern onto it.
        consts: vec![0],
        const_map: HashMap::from([(vec![0u64], 0u32)]),
        state_words: 0,
        node_slot: vec![Slot::state(0, 0, false); graph.num_nodes()],
        scratch_high: 0,
    };

    // Slot assignment in schedule order (cache locality of the sweep),
    // segregated by state space: top-level inputs first, then register
    // current/shadow pairs (so the commit phase's shadow→current copies
    // walk adjacent words), then combinational values contiguous in
    // sweep order. Write-port staging slots land after everything
    // during task compilation.
    let mut shadow_slots: HashMap<usize, Slot> = HashMap::new();
    for members in &partition.supernodes {
        for &id in members {
            let node = graph.node(id);
            if matches!(node.kind, NodeKind::Input) {
                c.node_slot[id.index()] = c.alloc_state(node.width, node.signed);
            }
        }
    }
    for members in &partition.supernodes {
        for &id in members {
            let node = graph.node(id);
            if node.kind.is_reg() {
                c.node_slot[id.index()] = c.alloc_state(node.width, node.signed);
                shadow_slots.insert(id.index(), c.alloc_state(node.width, node.signed));
            }
        }
    }
    for members in &partition.supernodes {
        for &id in members {
            let node = graph.node(id);
            if !matches!(node.kind, NodeKind::Input) && !node.kind.is_reg() {
                c.node_slot[id.index()] = c.alloc_state(node.width, node.signed);
            }
        }
    }

    // Activation lists.
    let mut act_list: Vec<u32> = Vec::new();
    let mut node_act: Vec<(u32, u32)> = vec![(0, 0); graph.num_nodes()];
    let mut input_act = HashMap::new();
    for id in graph.node_ids() {
        let own = partition.assignment[id.index()];
        let node = graph.node(id);
        // Registers activate at commit (their readers run next cycle,
        // even in the same supernode); inputs activate from pokes, which
        // never execute the supernode's own block — both must include
        // their own supernode in the target list.
        let include_own = node.kind.is_reg() || matches!(node.kind, NodeKind::Input);
        let mut targets: Vec<u32> = uses
            .fanout(id)
            .iter()
            .map(|s| partition.assignment[s.index()])
            .filter(|&sn| include_own || sn != own)
            .collect();
        targets.sort_unstable();
        targets.dedup();
        let start = act_list.len() as u32;
        act_list.extend_from_slice(&targets);
        let range = (start, act_list.len() as u32);
        node_act[id.index()] = range;
        if matches!(node.kind, NodeKind::Input) {
            input_act.insert(id.index() as u32, range);
        }
    }

    // Memory arenas + read-port activation.
    let mems: Vec<MemArena> = graph
        .mems()
        .iter()
        .map(|m| MemArena::new(m.name.clone(), m.depth, m.width))
        .collect();
    let mut mem_read_act: Vec<Vec<u32>> = vec![Vec::new(); mems.len()];
    for (id, node) in graph.iter() {
        if let NodeKind::MemRead { mem } = node.kind {
            mem_read_act[mem.index()].push(partition.assignment[id.index()]);
        }
    }
    for v in &mut mem_read_act {
        v.sort_unstable();
        v.dedup();
    }

    // Compile tasks in schedule order.
    let essential = matches!(opts.engine, EngineKind::Essential | EngineKind::Threaded);
    let mut tasks: Vec<Task> = Vec::new();
    let mut supernode_tasks = Vec::with_capacity(partition.supernodes.len());
    let mut reg_infos: Vec<RegInfo> = Vec::new();
    let mut write_ports: Vec<WritePortInfo> = Vec::new();
    let mut reset_signals: HashMap<u32, u32> = HashMap::new(); // signal node -> group
    let mut reset_groups: Vec<ResetGroup> = Vec::new();

    let mut image = ExecImage::default();
    let supernodes = partition.supernodes.clone();
    for members in &supernodes {
        let start = tasks.len() as u32;
        for &id in members {
            let node = graph.node(id);
            let out = c.node_slot[id.index()];
            let act = node_act[id.index()];
            let branchless = if essential && opts.activation_cost_model {
                (act.1 - act.0) as usize <= BRANCHLESS_MAX_SUCCS
            } else {
                // ESSENT's published technique: always branchless.
                true
            };
            // Per-kind draft: mid-level instruction stream + metadata.
            let (kind, instrs, result, out, act, branchless) = match &node.kind {
                NodeKind::Input => (TaskKind::Input, Vec::new(), out, out, act, branchless),
                NodeKind::Comb | NodeKind::Output | NodeKind::MemRead { .. } => {
                    let mut instrs = Vec::new();
                    let mut scratch = ScratchAlloc::default();
                    let result = match &node.kind {
                        NodeKind::MemRead { mem } => {
                            let addr_expr = node.expr.as_ref().expect("read addr");
                            let addr = c.compile_expr(addr_expr, &mut instrs, &mut scratch);
                            let dst = if essential {
                                scratch.alloc(node.width, false)
                            } else {
                                out
                            };
                            instrs.push(Instr::ReadMem {
                                dst,
                                mem: mem.index() as u32,
                                addr,
                            });
                            dst
                        }
                        _ => {
                            let e = node.expr.as_ref().expect("comb expr");
                            let r = c.compile_expr(e, &mut instrs, &mut scratch);
                            if essential {
                                r
                            } else {
                                if r != out {
                                    instrs.push(copy_or_sext(out, r));
                                }
                                out
                            }
                        }
                    };
                    c.scratch_high = c.scratch_high.max(scratch.high);
                    (TaskKind::Comb, instrs, result, out, act, branchless)
                }
                NodeKind::Reg { reset } => {
                    let mut instrs = Vec::new();
                    let mut scratch = ScratchAlloc::default();
                    let e = node.expr.as_ref().expect("reg next");
                    let shadow = shadow_slots.remove(&id.index()).expect("shadow slot");
                    let r = c.compile_expr(e, &mut instrs, &mut scratch);
                    if r != shadow {
                        instrs.push(copy_or_sext(shadow, r));
                    }
                    c.scratch_high = c.scratch_high.max(scratch.high);
                    let (reset_group, init) = match reset {
                        Some(rr) if opts.reset_slow_path => {
                            let sig_idx = rr.signal.index() as u32;
                            let group = *reset_signals.entry(sig_idx).or_insert_with(|| {
                                let g = reset_groups.len() as u32;
                                reset_groups.push(ResetGroup {
                                    signal: c.node_slot[rr.signal.index()],
                                    regs: Vec::new(),
                                });
                                g
                            });
                            let init_slot = c.intern_const(&rr.init, node.signed);
                            (Some(group), Some(init_slot))
                        }
                        Some(rr) => {
                            // Fast-path reset: fold the mux into the
                            // shadow computation (Listing 5 behaviour)
                            // even though the graph kept metadata.
                            let sel = c.node_slot[rr.signal.index()];
                            let init_slot = c.intern_const(&rr.init, node.signed);
                            instrs.push(Instr::Mux {
                                dst: shadow,
                                sel,
                                t: init_slot,
                                f: shadow,
                            });
                            (None, None)
                        }
                        None => (None, None),
                    };
                    let reg_index = reg_infos.len() as u32;
                    reg_infos.push(RegInfo {
                        node: id.index() as u32,
                        cur: out,
                        shadow,
                        act,
                        reset_group,
                        init,
                    });
                    if let Some(g) = reg_group_of(&reg_infos[reg_index as usize]) {
                        reset_groups[g as usize].regs.push(reg_index);
                    }
                    // Regs activate at commit, not eval.
                    (TaskKind::Reg, instrs, shadow, shadow, (0, 0), true)
                }
                NodeKind::MemWrite { mem } => {
                    let w = node.mem_write_operands().expect("write operands");
                    let mut instrs = Vec::new();
                    let mut scratch = ScratchAlloc::default();
                    let en_slot = c.alloc_state(w.en.width, false);
                    let addr_slot = c.alloc_state(w.addr.width, false);
                    let data_slot = c.alloc_state(w.data.width, false);
                    for (expr, slot) in
                        [(&w.en, en_slot), (&w.addr, addr_slot), (&w.data, data_slot)]
                    {
                        let r = c.compile_expr(expr, &mut instrs, &mut scratch);
                        if r != slot {
                            instrs.push(copy_or_sext(slot, r));
                        }
                    }
                    c.scratch_high = c.scratch_high.max(scratch.high);
                    let port = write_ports.len() as u32;
                    write_ports.push(WritePortInfo {
                        mem: mem.index() as u32,
                        en: en_slot,
                        addr: addr_slot,
                        data: data_slot,
                    });
                    (
                        TaskKind::WritePort(port),
                        instrs,
                        en_slot,
                        en_slot,
                        (0, 0),
                        true,
                    )
                }
            };
            // Lowering into the contiguous image.
            let TaskCode { range, narrow_only } = image.push_task(&instrs);
            tasks.push(Task {
                node: id.index() as u32,
                kind,
                code: range,
                n_instrs: instrs.len() as u32,
                narrow_only,
                result,
                out,
                act,
                branchless,
            });
        }
        supernode_tasks.push((start, tasks.len() as u32));
    }

    let mut names = HashMap::new();
    for (id, node) in graph.iter() {
        if !node.name.is_empty() {
            names.insert(node.name.clone(), id.index() as u32);
        }
    }
    let node_meta = graph
        .node_ids()
        .map(|id| {
            let n = graph.node(id);
            (n.width, n.signed, matches!(n.kind, NodeKind::Input))
        })
        .collect();
    // Introspection metadata for the Session trait: the portable
    // signal surface, in the same order (outputs then inputs,
    // deduplicated) every backend reports.
    let io_inputs: Vec<(String, u32)> = graph
        .inputs()
        .iter()
        .map(|&id| graph.node(id))
        .filter(|n| !n.name.is_empty())
        .map(|n| (n.name.clone(), n.width))
        .collect();
    let mut io_signals: Vec<(String, u32)> = Vec::new();
    for &id in graph.outputs().iter().chain(graph.inputs()) {
        let n = graph.node(id);
        if !n.name.is_empty() && !io_signals.iter().any(|(s, _)| *s == n.name) {
            io_signals.push((n.name.clone(), n.width));
        }
    }

    Ok(Compiled {
        image,
        tasks,
        supernode_tasks,
        level_tasks: level_bounds,
        consts: c.consts,
        state_words: c.state_words,
        scratch_words: c.scratch_high as usize,
        node_slot: c.node_slot,
        reg_infos,
        reset_groups,
        write_ports,
        act_list,
        input_act,
        mem_read_act,
        mems,
        num_supernodes: partition.supernodes.len(),
        names,
        node_meta,
        io_inputs,
        io_signals,
        partition_time,
    })
}

fn reg_group_of(info: &RegInfo) -> Option<u32> {
    info.reset_group
}

/// Builds a `Partition` facade from explicit groups (multithreaded
/// schedule), reusing the partition type for uniform compilation.
fn groups_to_partition(graph: &Graph, groups: Vec<Vec<NodeId>>) -> Partition {
    let mut assignment = vec![0u32; graph.num_nodes()];
    for (i, g) in groups.iter().enumerate() {
        for &id in g {
            assignment[id.index()] = i as u32;
        }
    }
    Partition {
        assignment,
        supernodes: groups,
        build_time: std::time::Duration::ZERO,
        algorithm: Algorithm::None,
    }
}

#[derive(Default)]
struct ScratchAlloc {
    next: u32,
    high: u32,
}

impl ScratchAlloc {
    fn alloc(&mut self, width: u32, signed: bool) -> Slot {
        let words = words_for(width) as u32;
        let slot = Slot::scratch(self.next, width, signed);
        self.next += words;
        self.high = self.high.max(self.next);
        slot
    }
}

struct Compiler<'a> {
    #[allow(dead_code)]
    graph: &'a Graph,
    #[allow(dead_code)]
    opts: &'a SimOptions,
    #[allow(dead_code)]
    partition: &'a Partition,
    #[allow(dead_code)]
    uses: &'a Uses,
    consts: Vec<u64>,
    const_map: HashMap<Vec<u64>, u32>,
    state_words: usize,
    node_slot: Vec<Slot>,
    scratch_high: u32,
}

impl Compiler<'_> {
    fn alloc_state(&mut self, width: u32, signed: bool) -> Slot {
        let slot = Slot::state(self.state_words as u32, width, signed);
        self.state_words += words_for(width);
        slot
    }

    fn intern_const(&mut self, v: &Value, signed: bool) -> Slot {
        let words: Vec<u64> = v.words().to_vec();
        let off = match self.const_map.get(&words) {
            Some(&off) => off,
            None => {
                let off = self.consts.len() as u32;
                self.consts.extend_from_slice(&words);
                self.const_map.insert(words, off);
                off
            }
        };
        Slot::constant(off, v.width(), signed)
    }

    /// Compiles an expression, returning the slot holding its value.
    /// Leaf expressions return their existing slot without copying.
    fn compile_expr(&mut self, e: &Expr, out: &mut Vec<Instr>, scratch: &mut ScratchAlloc) -> Slot {
        match &e.kind {
            ExprKind::Const(v) => self.intern_const(v, e.signed),
            ExprKind::Ref(id) => {
                let mut s = self.node_slot[id.index()];
                debug_assert_eq!(s.width, e.width, "ref width mismatch at {id}");
                s.signed = e.signed;
                s
            }
            ExprKind::Prim(op, args, params) => {
                use PrimOp::*;
                match op {
                    AsUInt | AsSInt => {
                        let mut a = self.compile_expr(&args[0], out, scratch);
                        a.signed = *op == AsSInt;
                        a
                    }
                    Cvt => {
                        let a = self.compile_expr(&args[0], out, scratch);
                        if a.signed {
                            a
                        } else {
                            // zero-extend by one bit; canonical words may
                            // already suffice.
                            let mut widened = a;
                            widened.signed = true;
                            if words_for(e.width) as u16 == a.words {
                                widened.width = e.width;
                                widened
                            } else {
                                let dst = scratch.alloc(e.width, true);
                                out.push(Instr::Copy { dst, a });
                                dst
                            }
                        }
                    }
                    Pad => {
                        let a = self.compile_expr(&args[0], out, scratch);
                        if e.width <= a.width {
                            a
                        } else if a.signed {
                            let dst = scratch.alloc(e.width, true);
                            out.push(Instr::Sext { dst, a });
                            dst
                        } else if words_for(e.width) as u16 == a.words {
                            let mut widened = a;
                            widened.width = e.width;
                            widened
                        } else {
                            let dst = scratch.alloc(e.width, false);
                            out.push(Instr::Copy { dst, a });
                            dst
                        }
                    }
                    Mux => {
                        let sel = self.compile_expr(&args[0], out, scratch);
                        let t = self.compile_expr(&args[1], out, scratch);
                        let f = self.compile_expr(&args[2], out, scratch);
                        let dst = scratch.alloc(e.width, e.signed);
                        out.push(Instr::Mux { dst, sel, t, f });
                        dst
                    }
                    Cat => {
                        let a = self.compile_expr(&args[0], out, scratch);
                        let b = self.compile_expr(&args[1], out, scratch);
                        let dst = scratch.alloc(e.width, e.signed);
                        out.push(Instr::Cat { dst, a, b });
                        dst
                    }
                    Bits => {
                        let a = self.compile_expr(&args[0], out, scratch);
                        let dst = scratch.alloc(e.width, e.signed);
                        out.push(Instr::Un {
                            op: UnOp::Bits,
                            dst,
                            a,
                            imm: params[1],
                        });
                        dst
                    }
                    Head => {
                        let a = self.compile_expr(&args[0], out, scratch);
                        let dst = scratch.alloc(e.width, e.signed);
                        out.push(Instr::Un {
                            op: UnOp::Bits,
                            dst,
                            a,
                            imm: a.width - params[0],
                        });
                        dst
                    }
                    Tail => {
                        let a = self.compile_expr(&args[0], out, scratch);
                        let dst = scratch.alloc(e.width, e.signed);
                        out.push(Instr::Un {
                            op: UnOp::Bits,
                            dst,
                            a,
                            imm: 0,
                        });
                        dst
                    }
                    Shl | Shr => {
                        let a = self.compile_expr(&args[0], out, scratch);
                        let dst = scratch.alloc(e.width, e.signed);
                        out.push(Instr::Un {
                            op: if *op == Shl { UnOp::Shl } else { UnOp::Shr },
                            dst,
                            a,
                            imm: params[0],
                        });
                        dst
                    }
                    Not | Andr | Orr | Xorr | Neg => {
                        let a = self.compile_expr(&args[0], out, scratch);
                        let dst = scratch.alloc(e.width, e.signed);
                        let uop = match op {
                            Not => UnOp::Not,
                            Andr => UnOp::Andr,
                            Orr => UnOp::Orr,
                            Xorr => UnOp::Xorr,
                            _ => UnOp::Neg,
                        };
                        out.push(Instr::Un {
                            op: uop,
                            dst,
                            a,
                            imm: 0,
                        });
                        dst
                    }
                    _ => {
                        let a = self.compile_expr(&args[0], out, scratch);
                        let b = self.compile_expr(&args[1], out, scratch);
                        let dst = scratch.alloc(e.width, e.signed);
                        let bop = match op {
                            Add => BinOp::Add,
                            Sub => BinOp::Sub,
                            Mul => BinOp::Mul,
                            Div => BinOp::Div,
                            Rem => BinOp::Rem,
                            Lt => BinOp::Lt,
                            Leq => BinOp::Leq,
                            Gt => BinOp::Gt,
                            Geq => BinOp::Geq,
                            PrimOp::Eq => BinOp::Eq,
                            Neq => BinOp::Neq,
                            And => BinOp::And,
                            Or => BinOp::Or,
                            Xor => BinOp::Xor,
                            Dshl => BinOp::Dshl,
                            Dshr => BinOp::Dshr,
                            other => unreachable!("op {other} handled above"),
                        };
                        out.push(Instr::Bin { op: bop, dst, a, b });
                        dst
                    }
                }
            }
        }
    }
}

/// Copy that preserves signed interpretation (sign-extends when the
/// source is signed and narrower).
fn copy_or_sext(dst: Slot, a: Slot) -> Instr {
    if a.signed && a.width < dst.width {
        Instr::Sext { dst, a }
    } else {
        Instr::Copy { dst, a }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_counter() {
        let g = gsim_firrtl::compile(
            r#"
circuit C :
  module C :
    input clock : Clock
    input reset : UInt<1>
    output out : UInt<8>
    reg c : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    c <= tail(add(c, UInt<8>(1)), 1)
    out <= c
"#,
        )
        .unwrap();
        let compiled = compile(&g, &SimOptions::default()).unwrap();
        assert_eq!(compiled.reg_infos.len(), 1);
        assert_eq!(compiled.reset_groups.len(), 1);
        assert!(compiled.num_supernodes >= 1);
        assert!(compiled.state_words >= 2);
        // Counter task exists with at least an add.
        assert!(compiled
            .tasks
            .iter()
            .any(|t| matches!(t.kind, TaskKind::Reg)));
    }

    #[test]
    fn fast_path_reset_folds_into_mux() {
        let g = gsim_firrtl::compile(
            r#"
circuit C :
  module C :
    input clock : Clock
    input reset : UInt<1>
    output out : UInt<4>
    reg c : UInt<4>, clock with : (reset => (reset, UInt<4>(5)))
    c <= c
    out <= c
"#,
        )
        .unwrap();
        let opts = SimOptions {
            reset_slow_path: false,
            ..SimOptions::default()
        };
        let compiled = compile(&g, &opts).unwrap();
        assert!(compiled.reset_groups.is_empty());
        let reg_task = compiled
            .tasks
            .iter()
            .find(|t| matches!(t.kind, TaskKind::Reg))
            .unwrap();
        let code = &compiled.image.code[reg_task.code.0 as usize..reg_task.code.1 as usize];
        let has_mux = code.iter().any(|e| {
            matches!(e.op, crate::image::Op::Mux)
                || (matches!(e.op, crate::image::Op::Wide)
                    && matches!(compiled.image.wide[e.a as usize], Instr::Mux { .. }))
        });
        assert!(has_mux, "fast-path reset must compile to a mux");
    }

    #[test]
    fn state_layout_segregates_spaces() {
        let g = gsim_firrtl::compile(
            r#"
circuit L :
  module L :
    input clock : Clock
    input a : UInt<8>
    output y : UInt<8>
    reg r : UInt<8>, clock
    r <= a
    node t = xor(r, a)
    y <= t
"#,
        )
        .unwrap();
        let compiled = compile(&g, &SimOptions::default()).unwrap();
        let mut input_offs = Vec::new();
        let mut comb_offs = Vec::new();
        for t in &compiled.tasks {
            match t.kind {
                TaskKind::Input => input_offs.push(t.out.off),
                TaskKind::Comb => comb_offs.push(t.out.off),
                _ => {}
            }
        }
        let reg = &compiled.reg_infos[0];
        // Inputs come first; register cur/shadow are adjacent and
        // precede combinational values.
        assert!(input_offs.iter().max() < comb_offs.iter().min());
        assert_eq!(reg.shadow.off, reg.cur.off + reg.cur.words as u32);
        assert!(comb_offs.iter().all(|&o| o > reg.shadow.off));
    }

    #[test]
    fn const_pool_dedups() {
        let g = gsim_firrtl::compile(
            r#"
circuit K :
  module K :
    input a : UInt<8>
    output x : UInt<8>
    output y : UInt<8>
    x <= and(a, UInt<8>(77))
    y <= or(a, UInt<8>(77))
"#,
        )
        .unwrap();
        let compiled = compile(&g, &SimOptions::default()).unwrap();
        let count_77 = compiled.consts.iter().filter(|&&w| w == 77).count();
        assert_eq!(count_77, 1, "same constant interned once");
    }

    #[test]
    fn mt_levels_cover_all_tasks() {
        let g = gsim_firrtl::compile(
            r#"
circuit M :
  module M :
    input a : UInt<8>
    output y : UInt<8>
    node t1 = not(a)
    node t2 = xor(t1, a)
    y <= t2
"#,
        )
        .unwrap();
        let compiled = compile(&g, &SimOptions::full_cycle_mt(2)).unwrap();
        let total: u32 = compiled.level_tasks.iter().map(|(a, b)| b - a).sum();
        assert_eq!(total as usize, compiled.tasks.len());
    }
}
