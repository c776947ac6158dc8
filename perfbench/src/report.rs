//! The metric catalogue, failure accounting and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`: what a user of the simulator
/// sees. Every untraced run reports all of them. Rates are in host
/// time.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_hz", "cyc/s"),
    ("jit_hz", "cyc/s"),
    ("essent_hz", "cyc/s"),
    ("verilator_hz", "cyc/s"),
    ("vcd_hz", "cyc/s"),
    ("explore_branches_per_s", "1/s"),
    ("req_p50_us", "us"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`: every traced run reports all of
/// them. A layer the workload does not use reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("firrtl.parse_s", "s"),
    ("firrtl.lower_s", "s"),
    ("passes.run_s", "s"),
    ("passes.nodes_removed", "count"),
    ("partition.build_s", "s"),
    ("partition.supernodes", "count"),
    ("partition.mean_supernode_nodes", "count"),
    ("sim.compile_s", "s"),
    ("sim.image_units", "count"),
    ("sim.state_bytes", "B"),
    ("threaded.lower_s", "s"),
    ("sim.gsim.ns_per_cycle", "ns"),
    ("sim.jit.ns_per_cycle", "ns"),
    ("sim.essent.ns_per_cycle", "ns"),
    ("sim.verilator.ns_per_cycle", "ns"),
    ("sim.gsim.ns_per_eval", "ns"),
    ("sim.jit.ns_per_eval", "ns"),
    ("sim.essent.ns_per_eval", "ns"),
    ("sim.verilator.ns_per_eval", "ns"),
    ("sim.evals_per_cycle", "count"),
    ("sim.supernode_evals_per_cycle", "count"),
    ("sim.aexam_per_cycle", "count"),
    ("sim.activation_ops_per_cycle", "count"),
    ("sim.instrs_per_cycle", "count"),
    ("sim.activity_factor", "ratio"),
    ("sim.useful_eval_ratio", "ratio"),
    ("sim.activation_yield", "ratio"),
    ("explore.snapshot_s", "s"),
    ("explore.fork_s", "s"),
    ("explore.restore_s", "s"),
    ("explore.branch_run_s", "s"),
    ("explore.snapshot_owned_bytes", "B"),
    ("explore.retries", "count"),
    ("wave.bytes_per_cycle", "B"),
    ("wave.changes_per_cycle", "count"),
    ("wave.capture_ns_per_cycle", "ns"),
    ("server.open_s", "s"),
    ("server.step_p50_us", "us"),
    ("server.peek_p50_us", "us"),
    ("server.local_us_per_req", "us"),
    ("server.panics", "count"),
    ("host.pinned_cpu", "id"),
    ("host.steal_frac", "ratio"),
    ("host.run_delay_frac", "ratio"),
    ("host.cpu_busy_frac", "ratio"),
    ("sim_hz.round_iqr_frac", "ratio"),
    ("jit_hz.round_iqr_frac", "ratio"),
    ("essent_hz.round_iqr_frac", "ratio"),
    ("verilator_hz.round_iqr_frac", "ratio"),
    ("vcd_hz.round_iqr_frac", "ratio"),
    ("explore_branches_per_s.round_iqr_frac", "ratio"),
    ("req_per_s.round_iqr_frac", "ratio"),
    ("req_p99_us", "us"),
    ("req.samples", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Checked operations: every set-up build, checked cycle, timed
/// round, request and explored branch counts once; a wrong output or
/// an error counts as failed, never as a panic.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was wrong or which returned an error.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation; `ok == false` counts it as failed and
    /// logs `what` (the first few failures only).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("FAILED: {}", what());
            }
        }
        ok
    }

    /// Counts one fallible operation.
    pub fn result<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// A run's metrics by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Renders the result line for the metric set `catalogue`.
///
/// # Errors
///
/// Names a catalogue metric that `values` lacks or holds as a
/// non-finite number — a bug in the benchmark, not in the program.
pub fn result_line(
    ops: Ops,
    catalogue: &[(&str, &str)],
    values: &Metrics,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let v = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not a finite number: {v}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0 && ops.attempted > 0,
        ops.attempted,
        ops.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_every_metric() {
        let mut m = Metrics::new();
        m.insert("a", 1.5);
        m.insert("b", 2.0);
        let line = result_line(
            Ops {
                attempted: 3,
                failed: 0,
            },
            &[("a", "s"), ("b", "1/s")],
            &m,
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"1/s\"}}}"
        );
        m.remove("b");
        assert!(result_line(Ops::default(), &[("b", "s")], &m).is_err());
    }

    #[test]
    fn a_failed_check_is_counted_not_raised() {
        let mut ops = Ops::default();
        assert!(!ops.check(false, || "wrong value".into()));
        assert!(ops.result(Err::<(), _>("boom"), "call").is_none());
        assert_eq!(
            ops,
            Ops {
                attempted: 2,
                failed: 2
            }
        );
    }
}
