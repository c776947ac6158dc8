//! Supernode construction (paper §III-A and Table III).
//!
//! A *supernode* is a set of nodes sharing one active bit: activating any
//! member evaluates them all. Bigger supernodes reduce the active-bit
//! examination cost `Aexam` but can raise the activity factor `af` when
//! weakly-related nodes get grouped. The paper compares three
//! algorithms, all implemented here:
//!
//! * [`Algorithm::Kernighan`] — Kernighan's 1971 optimal sequential
//!   partition: nodes in topological order are cut into contiguous
//!   intervals of bounded size, minimizing cut edges by dynamic
//!   programming.
//! * [`Algorithm::MffcBased`] — ESSENT-style zones from maximum
//!   fanout-free cones: a node joins the zone of its consumers when they
//!   all agree, so every zone is a cone feeding one root.
//! * [`Algorithm::Gsim`] — the paper's enhancement: first group nodes
//!   that are *certain* to activate together (out-degree-1 nodes with
//!   their successor, in-degree-1 nodes with their predecessor, siblings
//!   with identical predecessors — §III-A observations ❶❷❸), protect
//!   those groups, then run the Kernighan DP over the condensed graph.
//! * [`Algorithm::None`] — one node per supernode (the unpartitioned
//!   baseline row of Table III).
//!
//! All algorithms produce supernodes in a valid topological order with
//! members internally ordered, ready for the engine's one-pass sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod kernighan;
pub mod mffc;

use gsim_graph::{Graph, NodeId, Uses};
use std::time::{Duration, Instant};

/// Partitioning algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// One node per supernode.
    None,
    /// Kernighan's sequential-partition DP over the plain topo order.
    Kernighan,
    /// ESSENT-style maximum fanout-free cones.
    MffcBased,
    /// GSIM: correlation pre-grouping + Kernighan DP (the paper's
    /// enhanced algorithm).
    Gsim,
}

impl Algorithm {
    /// Human-readable name matching the paper's Table III rows.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::None => "None",
            Algorithm::Kernighan => "Kernighan",
            Algorithm::MffcBased => "MFFC-based",
            Algorithm::Gsim => "GSIM",
        }
    }
}

/// Partitioning options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionOptions {
    /// The algorithm to use.
    pub algorithm: Algorithm,
    /// Maximum number of nodes per supernode (the paper's command-line
    /// knob; Figure 9 sweeps it). Ignored by [`Algorithm::None`].
    pub max_size: usize,
}

impl PartitionOptions {
    /// The default maximum supernode size, shared by the GSIM and
    /// ESSENT configurations: the paper's optimal range is 20–50
    /// members (Figure 9), and ESSENT's published evaluation uses the
    /// same order of magnitude, so both presets sit at its middle.
    pub const DEFAULT_MAX_SIZE: usize = 30;
}

impl Default for PartitionOptions {
    /// GSIM with [`PartitionOptions::DEFAULT_MAX_SIZE`] — inside the
    /// paper's optimal 20–50 range (Figure 9).
    fn default() -> Self {
        PartitionOptions {
            algorithm: Algorithm::Gsim,
            max_size: PartitionOptions::DEFAULT_MAX_SIZE,
        }
    }
}

/// A supernode partition of a circuit graph.
#[derive(Debug, Clone)]
pub struct Partition {
    /// `assignment[node] = supernode index`.
    pub assignment: Vec<u32>,
    /// Member nodes per supernode; supernodes are topologically ordered
    /// and members are in evaluation order.
    pub supernodes: Vec<Vec<NodeId>>,
    /// Wall-clock time spent partitioning (Table III's "partition
    /// time" column).
    pub build_time: Duration,
    /// The algorithm that produced this partition.
    pub algorithm: Algorithm,
}

impl Partition {
    /// Number of supernodes.
    pub fn len(&self) -> usize {
        self.supernodes.len()
    }

    /// `true` when the partition is empty (empty graph).
    pub fn is_empty(&self) -> bool {
        self.supernodes.is_empty()
    }

    /// Size of the largest supernode.
    pub fn max_supernode_size(&self) -> usize {
        self.supernodes.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Checks structural invariants: every node in exactly one
    /// supernode, assignment consistent, and the supernode order is a
    /// valid schedule (all combinational dependencies point backwards
    /// or within the same supernode).
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic if an invariant is violated (used by
    /// tests and debug assertions).
    pub fn assert_valid(&self, graph: &Graph) {
        let n = graph.num_nodes();
        let mut seen = vec![false; n];
        for (snx, members) in self.supernodes.iter().enumerate() {
            assert!(!members.is_empty(), "supernode {snx} is empty");
            for &m in members {
                assert!(!seen[m.index()], "node {m} appears twice");
                seen[m.index()] = true;
                assert_eq!(
                    self.assignment[m.index()],
                    snx as u32,
                    "assignment mismatch"
                );
            }
        }
        assert!(seen.iter().all(|&s| s), "some nodes unassigned");

        // Scheduling validity: comb dependencies must be evaluated
        // no later than their users.
        let mut pos = vec![(0u32, 0u32); n];
        for (snx, members) in self.supernodes.iter().enumerate() {
            for (i, &m) in members.iter().enumerate() {
                pos[m.index()] = (snx as u32, i as u32);
            }
        }
        for (id, node) in graph.iter() {
            for dep in node.dep_refs() {
                if graph.node(dep).kind.is_comb_like() {
                    assert!(
                        pos[dep.index()] < pos[id.index()],
                        "dependency {dep} of {id} scheduled after it"
                    );
                }
            }
        }
    }
}

/// Builds a partition of `graph`.
pub fn build(graph: &Graph, opts: &PartitionOptions) -> Partition {
    let start = Instant::now();
    let order = gsim_graph::topo::toposort(graph).expect("graph must be acyclic");
    let uses = Uses::build(graph);
    let mut partition = match opts.algorithm {
        Algorithm::None => singletons(graph, &order),
        Algorithm::Kernighan => {
            let items: Vec<Vec<NodeId>> = order.iter().map(|&id| vec![id]).collect();
            kernighan::partition_sequence(graph, &uses, items, opts.max_size)
        }
        Algorithm::MffcBased => mffc::partition(graph, &uses, &order, opts.max_size),
        Algorithm::Gsim => {
            let clusters = cluster::pre_group(graph, &uses, &order, opts.max_size);
            kernighan::partition_sequence(graph, &uses, clusters, opts.max_size)
        }
    };
    partition.build_time = start.elapsed();
    partition.algorithm = opts.algorithm;
    partition
}

/// One node per supernode, in topological order.
fn singletons(graph: &Graph, order: &[NodeId]) -> Partition {
    let mut assignment = vec![0u32; graph.num_nodes()];
    let mut supernodes = Vec::with_capacity(order.len());
    for (i, &id) in order.iter().enumerate() {
        assignment[id.index()] = i as u32;
        supernodes.push(vec![id]);
    }
    Partition {
        assignment,
        supernodes,
        build_time: Duration::ZERO,
        algorithm: Algorithm::None,
    }
}

/// Assembles a `Partition` from supernode member lists that are already
/// in a valid topological order.
pub(crate) fn from_groups(graph: &Graph, groups: Vec<Vec<NodeId>>) -> Partition {
    let mut assignment = vec![u32::MAX; graph.num_nodes()];
    for (snx, members) in groups.iter().enumerate() {
        for &m in members {
            assignment[m.index()] = snx as u32;
        }
    }
    debug_assert!(assignment.iter().all(|&a| a != u32::MAX));
    Partition {
        assignment,
        supernodes: groups,
        build_time: Duration::ZERO,
        algorithm: Algorithm::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_firrtl::compile;

    fn sample_graph() -> Graph {
        compile(
            r#"
circuit P :
  module P :
    input clock : Clock
    input a : UInt<8>
    input b : UInt<8>
    output x : UInt<8>
    output y : UInt<8>
    node s = tail(add(a, b), 1)
    node t = xor(s, UInt<8>(85))
    node u = and(s, b)
    reg r1 : UInt<8>, clock
    reg r2 : UInt<8>, clock
    r1 <= t
    r2 <= u
    x <= r1
    y <= r2
"#,
        )
        .unwrap()
    }

    #[test]
    fn all_algorithms_produce_valid_partitions() {
        let g = sample_graph();
        for alg in [
            Algorithm::None,
            Algorithm::Kernighan,
            Algorithm::MffcBased,
            Algorithm::Gsim,
        ] {
            let p = build(
                &g,
                &PartitionOptions {
                    algorithm: alg,
                    max_size: 4,
                },
            );
            p.assert_valid(&g);
            assert!(p.max_supernode_size() <= 4, "{alg:?} exceeded max size");
        }
    }

    #[test]
    fn none_is_singletons() {
        let g = sample_graph();
        let p = build(
            &g,
            &PartitionOptions {
                algorithm: Algorithm::None,
                max_size: 8,
            },
        );
        assert_eq!(p.len(), g.num_nodes());
        assert_eq!(p.max_supernode_size(), 1);
    }

    #[test]
    fn grouping_reduces_supernode_count() {
        let g = sample_graph();
        let baseline = build(
            &g,
            &PartitionOptions {
                algorithm: Algorithm::None,
                max_size: 1,
            },
        )
        .len();
        for alg in [Algorithm::Kernighan, Algorithm::MffcBased, Algorithm::Gsim] {
            let p = build(
                &g,
                &PartitionOptions {
                    algorithm: alg,
                    max_size: 6,
                },
            );
            assert!(
                p.len() < baseline,
                "{alg:?} produced {} supernodes vs {baseline} nodes",
                p.len()
            );
        }
    }

    #[test]
    fn max_size_one_degenerates_to_singletons() {
        let g = sample_graph();
        for alg in [Algorithm::Kernighan, Algorithm::Gsim, Algorithm::MffcBased] {
            let p = build(
                &g,
                &PartitionOptions {
                    algorithm: alg,
                    max_size: 1,
                },
            );
            p.assert_valid(&g);
            assert_eq!(p.max_supernode_size(), 1);
        }
    }
}
