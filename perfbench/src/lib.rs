//! The GSIM reproduction's benchmark: two seeded workloads, each run in
//! its own process pinned to one CPU, every configuration of a workload
//! interleaved in short rounds, every rate the 10th percentile of its
//! per-round rates. Each layer is timed from outside, around calls into
//! its public API; a separate traced run records those calls as spans.
//! See `README.md` beside this crate for why it is built this way and
//! what each metric should move.

mod common;
pub mod host;
pub mod report;
pub mod rounds;
pub mod spans;
mod stats;
pub mod svc;
pub mod xs;

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Seed every generated input comes from.
    pub seed: u64,
    /// Seconds of interleaved rounds.
    pub seconds: f64,
    /// The CPU the process is pinned to, if any.
    pub cpu: Option<usize>,
}

/// The workloads, by the names the command line takes.
pub const WORKLOADS: [&str; 2] = ["xs-linux", "svc-cosim"];

/// Runs workload `name`.
///
/// # Errors
///
/// An unknown name, or a workload that could not set up.
pub fn run_workload(
    name: &str,
    cfg: &RunCfg,
    ctx: &mut rounds::Ctx,
) -> Result<report::Metrics, String> {
    match name {
        "xs-linux" => xs::run(cfg, ctx),
        "svc-cosim" => svc::run(cfg, ctx),
        _ => Err(format!("unknown workload {name:?} (one of {WORKLOADS:?})")),
    }
}
