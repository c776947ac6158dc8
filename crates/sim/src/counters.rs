//! Hardware-independent cost counters.
//!
//! The paper models per-cycle simulation cost as
//! `T = ((E + Asucc) * af + Aexam) * N`. These counters measure each
//! factor directly, so experiments can compare engines and partitioning
//! algorithms without depending on host noise: `node_evals` tracks
//! `E × af × N`, `activation_ops` tracks `Asucc`, `aexam_checks` tracks
//! `Aexam`, and `activity_factor` reports `af`.

/// Runtime counters, updated every cycle by the engines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Completed simulation cycles.
    pub cycles: u64,
    /// Node evaluations performed (the paper's "active node" count).
    pub node_evals: u64,
    /// Supernodes evaluated.
    pub supernode_evals: u64,
    /// Active-bit examinations (`Aexam`): per-flag branches in the
    /// ESSENT mode; word checks plus set-bit visits in the GSIM mode.
    pub aexam_checks: u64,
    /// Successor-activation operations executed (`Asucc`), including
    /// branchless no-ops on unchanged values.
    pub activation_ops: u64,
    /// Activations that actually set a bit ("activation times" in the
    /// paper's Table III).
    pub activations: u64,
    /// Node evaluations whose value changed.
    pub value_changes: u64,
    /// Reset-signal checks (per cycle: registers-with-reset in the fast
    /// path, distinct reset signals in the slow path).
    pub reset_checks: u64,
    /// Bytecode instructions executed.
    pub instrs_executed: u64,
}

impl Counters {
    /// Accumulates `other` into `self` — used by the multithreaded
    /// engine to merge per-thread counters into the simulator's
    /// totals (the per-thread sum is deterministic for a fixed thread
    /// count, so merged stats stay stable run to run).
    pub fn merge(&mut self, other: &Counters) {
        self.cycles += other.cycles;
        self.node_evals += other.node_evals;
        self.supernode_evals += other.supernode_evals;
        self.aexam_checks += other.aexam_checks;
        self.activation_ops += other.activation_ops;
        self.activations += other.activations;
        self.value_changes += other.value_changes;
        self.reset_checks += other.reset_checks;
        self.instrs_executed += other.instrs_executed;
    }

    /// Executed instructions per simulated cycle.
    pub fn instrs_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.instrs_executed as f64 / self.cycles as f64
    }

    /// Activity factor: evaluated nodes / (total nodes × cycles).
    pub fn activity_factor(&self, total_nodes: usize) -> f64 {
        if self.cycles == 0 || total_nodes == 0 {
            return 0.0;
        }
        self.node_evals as f64 / (total_nodes as f64 * self.cycles as f64)
    }

    /// Fraction of examinations among all counted work items — the
    /// paper reports 82% of executed branches being active-bit checks.
    pub fn exam_share(&self) -> f64 {
        let total = self.aexam_checks + self.activation_ops + self.instrs_executed;
        if total == 0 {
            return 0.0;
        }
        self.aexam_checks as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_factor_math() {
        let c = Counters {
            cycles: 10,
            node_evals: 50,
            ..Counters::default()
        };
        assert!((c.activity_factor(100) - 0.05).abs() < 1e-12);
        assert_eq!(Counters::default().activity_factor(100), 0.0);
    }

    #[test]
    fn exam_share_bounds() {
        let c = Counters {
            aexam_checks: 82,
            activation_ops: 10,
            instrs_executed: 8,
            ..Counters::default()
        };
        assert!((c.exam_share() - 0.82).abs() < 1e-12);
    }
}
