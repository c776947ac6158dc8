//! Shared state-layout computation for the C++ and Rust emitters.
//!
//! Table IV's "data size" is the size of the simulated-state struct the
//! generated code declares. Both emitters — the C++ one used for the
//! resource-usage experiment and the AoT Rust one whose struct actually
//! compiles and runs — derive their field list **and** the reported
//! byte count from this one module, so the number in the table can
//! never diverge from the struct the compiled simulator really uses.
//!
//! The layout is locality-ordered, mirroring the interpreter's state
//! slot layout: top-level inputs first, then register
//! current/shadow *pairs* (the commit phase walks adjacent fields),
//! then the remaining combinational values in schedule (sweep) order.

use gsim_graph::{Graph, NodeId, NodeKind};
use gsim_partition::Partition;

/// One field of the generated state struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutEntry {
    /// The node stored in this field.
    pub node: NodeId,
    /// Value width in bits.
    pub width: u32,
    /// Bytes of storage for the current value.
    pub bytes: usize,
    /// `true` for registers, which get an adjacent `__next` shadow
    /// field of the same size.
    pub is_reg: bool,
}

/// The computed state layout: field order plus the Table IV byte count.
#[derive(Debug, Clone)]
pub struct StateLayout {
    /// Fields in declaration order (inputs, register pairs, then
    /// combinational values in sweep order).
    pub entries: Vec<LayoutEntry>,
    /// Total bytes of simulated state, registers counted twice
    /// (current + shadow), memories excluded — the paper's `sizeof`
    /// metric.
    pub data_bytes: usize,
}

/// Bytes of storage for one value of `width` bits, matching `sizeof`
/// of the narrowest natural C/Rust integer type that holds it
/// (`u8`/`u16`/`u32`/`u64`/`u128`, then whole 64-bit words).
pub fn storage_bytes(width: u32) -> usize {
    match width {
        0 => 0,
        1..=8 => 1,
        9..=16 => 2,
        17..=32 => 4,
        33..=64 => 8,
        _ => gsim_value::words_for(width) * 8,
    }
}

/// Computes the locality-ordered state layout for `graph` scheduled by
/// `partition`. Zero-width nodes and pure sinks (write ports) get no
/// storage and are omitted.
pub fn state_layout(graph: &Graph, partition: &Partition) -> StateLayout {
    let mut entries = Vec::with_capacity(graph.num_nodes());
    let mut placed = vec![false; graph.num_nodes()];
    let push = |entries: &mut Vec<LayoutEntry>, placed: &mut Vec<bool>, id: NodeId| {
        if placed[id.index()] {
            return;
        }
        placed[id.index()] = true;
        let node = graph.node(id);
        if node.width == 0 || matches!(node.kind, NodeKind::MemWrite { .. }) {
            return;
        }
        entries.push(LayoutEntry {
            node: id,
            width: node.width,
            bytes: storage_bytes(node.width),
            is_reg: node.kind.is_reg(),
        });
    };
    // 1. Inputs, in declaration order.
    for &id in graph.inputs() {
        push(&mut entries, &mut placed, id);
    }
    // 2. Registers, in schedule order (current/shadow pairs are
    //    implied by `is_reg`).
    for members in &partition.supernodes {
        for &id in members {
            if graph.node(id).kind.is_reg() {
                push(&mut entries, &mut placed, id);
            }
        }
    }
    // 3. Combinational values in sweep (schedule) order.
    for members in &partition.supernodes {
        for &id in members {
            push(&mut entries, &mut placed, id);
        }
    }
    // 4. Anything the partition did not cover (defensive; partitions
    //    cover every node today).
    for id in graph.node_ids() {
        push(&mut entries, &mut placed, id);
    }
    let data_bytes = entries
        .iter()
        .map(|e| e.bytes * if e.is_reg { 2 } else { 1 })
        .sum();
    StateLayout {
        entries,
        data_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_partition::PartitionOptions;

    #[test]
    fn layout_orders_inputs_regs_comb_and_counts_bytes() {
        let g = gsim_firrtl::compile(
            r#"
circuit D :
  module D :
    input clock : Clock
    input a : UInt<32>
    output y : UInt<32>
    reg r : UInt<32>, clock
    r <= a
    y <= r
"#,
        )
        .unwrap();
        let p = gsim_partition::build(&g, &PartitionOptions::default());
        let l = state_layout(&g, &p);
        // clock (1) + a (4) + r (4 + 4 shadow) + y (4) = 17
        assert_eq!(l.data_bytes, 17);
        // Inputs first, then the register, then combinational values.
        let kinds: Vec<bool> = l.entries.iter().map(|e| e.is_reg).collect();
        let first_reg = kinds.iter().position(|&r| r).unwrap();
        assert!(l.entries[..first_reg]
            .iter()
            .all(|e| matches!(g.node(e.node).kind, NodeKind::Input)));
    }

    #[test]
    fn storage_bytes_tiers() {
        assert_eq!(storage_bytes(0), 0);
        assert_eq!(storage_bytes(1), 1);
        assert_eq!(storage_bytes(8), 1);
        assert_eq!(storage_bytes(9), 2);
        assert_eq!(storage_bytes(32), 4);
        assert_eq!(storage_bytes(33), 8);
        assert_eq!(storage_bytes(65), 16);
        assert_eq!(storage_bytes(129), 24);
    }
}
