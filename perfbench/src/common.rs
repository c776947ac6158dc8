//! Pieces the workloads share: seeded numbers, preset builds,
//! the counting waveform sink, the layer-by-layer set-up probe, the
//! explore check and probe, and the metrics derived from counters.

use crate::host::HostWindow;
use crate::report::{Metrics, Ops, PER_LAYER};
use crate::rounds::{Ctx, Lane, Sample};
use crate::spans::Spans;
use crate::stats::{iqr_frac, median, percentile};
use gsim::{
    BranchResult, Compiler, Counters, ExploreOptions, Explorer, Graph, Preset, Scenario,
    SimOptions, Simulator, Value, WaveSignal, WaveSink,
};
use gsim_wave::{CountingWriter, VcdWriter};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// splitmix64: the seeded source of every generated input.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` lockstep step sizes in `1..=8` drawn from `seed`: a
/// DiffTest-style testbench advances the design a few cycles between
/// reads.
pub fn step_sizes(seed: u64, n: usize) -> Vec<u64> {
    let base = splitmix64(seed ^ 0x5157_0000_0000);
    (0..n as u64)
        .map(|i| 1 + splitmix64(base.wrapping_add(i)) % 8)
        .collect()
}

/// The four simulator presets a workload compares, with the prefix of
/// their per-layer metric names.
pub const PRESETS: [(Preset, &str); 4] = [
    (Preset::Gsim, "gsim"),
    (Preset::GsimJit, "jit"),
    (Preset::Essent, "essent"),
    (Preset::Verilator, "verilator"),
];

/// The end-to-end rate a preset's lane measures.
pub fn rate_name(preset: Preset) -> &'static str {
    match preset {
        Preset::Gsim => "sim_hz",
        Preset::GsimJit => "jit_hz",
        Preset::Essent => "essent_hz",
        _ => "verilator_hz",
    }
}

/// Builds `graph` under `preset`, counting the build as an operation.
/// Also returns the node count left after the passes.
pub fn build(graph: &Graph, preset: Preset, ops: &mut Ops) -> Option<(Simulator, usize)> {
    ops.result(
        Compiler::new(graph)
            .preset(preset)
            .build()
            .map(|(sim, report)| (sim, report.nodes_after)),
        &format!("build {}", preset.name()),
    )
}

/// Names of the design's outputs: its portable signals that are not
/// inputs.
pub fn output_names(sim: &mut Simulator) -> Vec<String> {
    let inputs: Vec<String> = gsim::Session::inputs(sim)
        .unwrap_or_default()
        .into_iter()
        .map(|s| s.name)
        .collect();
    gsim::Session::signals(sim)
        .unwrap_or_default()
        .into_iter()
        .map(|s| s.name)
        .filter(|n| !inputs.contains(n))
        .collect()
}

/// Holds a reset pulse for two cycles, then releases it.
pub fn reset(sim: &mut Simulator, ops: &mut Ops) {
    ops.result(sim.poke_u64("reset", 1), "poke reset");
    sim.run(2);
    ops.result(sim.poke_u64("reset", 0), "poke reset");
}

/// VCD bytes and value changes a traced run produced.
#[derive(Debug, Clone, Default)]
pub struct WaveCount {
    bytes: CountingWriter,
    changes: Arc<AtomicU64>,
}

impl WaveCount {
    /// A sink that renders VCD into the byte counter and counts value
    /// changes; the text itself is dropped.
    pub fn sink(&self) -> Box<dyn WaveSink> {
        Box::new(CountingSink {
            vcd: VcdWriter::new(self.bytes.clone()),
            changes: Arc::clone(&self.changes),
        })
    }

    /// VCD bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.bytes()
    }

    /// Value changes recorded so far.
    pub fn changes(&self) -> u64 {
        self.changes.load(Ordering::Relaxed)
    }
}

struct CountingSink {
    vcd: VcdWriter<CountingWriter>,
    changes: Arc<AtomicU64>,
}

impl WaveSink for CountingSink {
    fn start(&mut self, top: &str, signals: &[WaveSignal]) -> io::Result<()> {
        self.vcd.start(top, signals)
    }

    fn dumpvars(&mut self, time: u64, values: &[Vec<u64>]) -> io::Result<()> {
        self.vcd.dumpvars(time, values)
    }

    fn change(&mut self, time: u64, signal: usize, words: &[u64]) -> io::Result<()> {
        self.changes.fetch_add(1, Ordering::Relaxed);
        self.vcd.change(time, signal, words)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.vcd.finish()
    }
}

/// Times each layer of the GSIM-JIT set-up separately, `reps` times,
/// calling `gsim_passes::run`, `gsim_partition::build` and
/// `Simulator::compile` directly, and records their medians and
/// sizes. `Simulator::compile` partitions again inside; its time
/// includes that.
pub fn setup_layers(graph: &Graph, reps: usize, spans: &mut Spans, ops: &mut Ops, m: &mut Metrics) {
    let preset = Preset::GsimJit.options();
    let sim_opts = SimOptions::threaded();
    let mut lower = Vec::new();
    for _ in 0..reps {
        let (optimized, _) = spans.time("gsim_passes::run", 0, || {
            gsim_passes::run(graph.clone(), &preset.pass_options())
        });
        let part = spans.time("gsim_partition::build", 0, || {
            gsim_partition::build(&optimized, &preset.partition_options())
        });
        let sim = spans.time("Simulator::compile", 0, || {
            Simulator::compile(&optimized, &sim_opts)
        });
        let Some(sim) = ops.result(sim, "Simulator::compile") else {
            continue;
        };
        lower.push(sim.lowering_time().as_secs_f64());
        m.insert(
            "passes.nodes_removed",
            (graph.num_nodes() - optimized.num_nodes()) as f64,
        );
        m.insert("partition.supernodes", part.len() as f64);
        m.insert(
            "partition.mean_supernode_nodes",
            optimized.num_nodes() as f64 / part.len().max(1) as f64,
        );
        m.insert("sim.image_units", sim.image_units() as f64);
        m.insert("sim.state_bytes", sim.state_bytes() as f64);
    }
    m.insert("passes.run_s", median(&spans.durations("gsim_passes::run")));
    m.insert(
        "partition.build_s",
        median(&spans.durations("gsim_partition::build")),
    );
    m.insert(
        "sim.compile_s",
        median(&spans.durations("Simulator::compile")),
    );
    m.insert("threaded.lower_s", median(&lower));
}

/// What one explored branch must end at: the watched peeks, the
/// cycle and the counters of a sequential replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    cycle: u64,
    peeks: Vec<(String, Value)>,
    counters: Counters,
}

/// Replays branches `0..n` of `base` one after another on `core`
/// (restoring its state in between and at the end): the reference an
/// [`gsim::Explorer`] run from the same state must equal.
pub fn replay_branches(core: &mut Simulator, base: &Scenario, n: usize) -> Vec<Expected> {
    let watch: Vec<String> = gsim::Session::signals(core)
        .unwrap_or_default()
        .into_iter()
        .map(|s| s.name)
        .collect();
    let snap = core.take_snapshot();
    let out = (0..n)
        .map(|i| {
            core.restore_snapshot(snap).expect("own snapshot");
            // A scenario error shows up as a peek mismatch.
            let _ = base.perturb(i as u64).run_for(core, base.cycles());
            Expected {
                cycle: core.cycle(),
                peeks: watch
                    .iter()
                    .map(|w| (w.clone(), core.peek(w).unwrap_or_else(|| Value::zero(1))))
                    .collect(),
                counters: *core.counters(),
            }
        })
        .collect();
    core.restore_snapshot(snap).expect("own snapshot");
    out
}

/// Whether an explored branch equals its sequential replay.
fn branch_matches(b: &BranchResult, want: &Expected) -> bool {
    b.cycle == want.cycle && b.peeks == want.peeks && b.counters == want.counters
}

/// Times `gsim_firrtl::parse` and `gsim_firrtl::lower` on `src`.
pub fn firrtl_layers(src: &str, reps: usize, spans: &mut Spans, m: &mut Metrics) {
    for _ in 0..reps {
        let circuit = spans.time("gsim_firrtl::parse", 0, || gsim_firrtl::parse(src));
        if let Ok(c) = circuit {
            let _ = spans.time("gsim_firrtl::lower", 0, || gsim_firrtl::lower(&c));
        }
    }
    m.insert(
        "firrtl.parse_s",
        median(&spans.durations("gsim_firrtl::parse")),
    );
    m.insert(
        "firrtl.lower_s",
        median(&spans.durations("gsim_firrtl::lower")),
    );
}

/// The `explore_branches_per_s` lane: each unit is one
/// `Explorer::run` with one worker over `expected.len()` perturbed
/// branches of `base` from `core`, every branch checked against its
/// sequential replay. Retries the explorer reports add up in
/// `retries`.
pub fn explore_lane<'a>(
    core: &'a mut Simulator,
    base: &'a Scenario,
    expected: &'a [Expected],
    retries: &'a mut u64,
    workload: &'static str,
) -> Lane<'a> {
    let opts = ExploreOptions {
        workers: 1,
        ..ExploreOptions::default()
    };
    Lane::new(
        "explore_branches_per_s",
        Box::new(move |size, ctx: &mut Ctx| {
            let mut secs = 0.0;
            for _ in 0..size {
                let open = ctx.spans.begin("Explorer::run", ctx.round);
                let t = Instant::now();
                let report =
                    Explorer::new(core)
                        .options(opts.clone())
                        .run(base, expected.len(), None);
                secs += t.elapsed().as_secs_f64();
                ctx.spans.end(open);
                let Some(report) = ctx.ops.result(report, workload) else {
                    continue;
                };
                *retries += report.total_retries();
                for (b, want) in report.branches.iter().zip(expected) {
                    ctx.ops.check(branch_matches(b, want), || {
                        format!("{workload}: branch {} differs from its replay", b.index)
                    });
                }
            }
            Sample::new((size as usize * expected.len()) as f64, secs)
        }),
    )
}

/// Times the explorer's building blocks once each on `core`, from
/// outside: a snapshot, a fork, one branch run on the fork, the
/// memory the fork's snapshot then owns, and a restore.
pub fn explore_probe(core: &mut Simulator, base: &Scenario, spans: &mut Spans, m: &mut Metrics) {
    let reps = 5;
    let mut owned = 0usize;
    for _ in 0..reps {
        let snap = spans.time("Simulator::take_snapshot", 0, || core.take_snapshot());
        let mut fork = spans.time("Simulator::fork", 0, || core.fork());
        let fsnap = fork.take_snapshot();
        spans.time("Scenario::run_for", 0, || {
            let _ = base.perturb(1).run_for(&mut fork, base.cycles());
        });
        owned = fork.snapshot_mem_bytes().0;
        let _ = spans.time("Simulator::restore_snapshot", 0, || {
            fork.restore_snapshot(fsnap)
        });
        let _ = core.restore_snapshot(snap);
    }
    m.insert(
        "explore.snapshot_s",
        median(&spans.durations("Simulator::take_snapshot")),
    );
    m.insert(
        "explore.fork_s",
        median(&spans.durations("Simulator::fork")),
    );
    m.insert(
        "explore.restore_s",
        median(&spans.durations("Simulator::restore_snapshot")),
    );
    m.insert(
        "explore.branch_run_s",
        median(&spans.durations("Scenario::run_for")),
    );
    m.insert("explore.snapshot_owned_bytes", owned as f64);
}

/// Engine counts over a workload's checked prefix, per cycle, from
/// the GSIM preset's counters.
pub fn counter_metrics(c: &Counters, total_nodes: usize, m: &mut Metrics) {
    let cyc = c.cycles.max(1) as f64;
    m.insert("sim.evals_per_cycle", c.node_evals as f64 / cyc);
    m.insert(
        "sim.supernode_evals_per_cycle",
        c.supernode_evals as f64 / cyc,
    );
    m.insert("sim.aexam_per_cycle", c.aexam_checks as f64 / cyc);
    m.insert(
        "sim.activation_ops_per_cycle",
        c.activation_ops as f64 / cyc,
    );
    m.insert("sim.instrs_per_cycle", c.instrs_per_cycle());
    m.insert("sim.activity_factor", c.activity_factor(total_nodes));
    m.insert(
        "sim.useful_eval_ratio",
        c.value_changes as f64 / c.node_evals.max(1) as f64,
    );
    m.insert(
        "sim.activation_yield",
        c.activations as f64 / c.activation_ops.max(1) as f64,
    );
}

/// Rates and per-round spreads of every lane, plus the per-layer
/// figures derived from them. `evals_per_cycle[i]` is preset `i`'s
/// (of [`PRESETS`]) node evaluations per cycle.
pub fn lane_metrics(lanes: &[Lane<'_>], evals_per_cycle: [f64; 4], m: &mut Metrics) {
    for lane in lanes {
        if lane.per_unit {
            m.insert(lane.rate, 1.0 / sustained(&lane.untraced));
            continue;
        }
        m.insert(lane.rate, sustained(&lane.untraced));
        m.insert(iqr_name(lane.rate), iqr_frac(&lane.untraced));
        if !lane.reqs_untraced.is_empty() {
            m.insert("req_per_s", sustained(&lane.reqs_untraced));
            m.insert("req_per_s.round_iqr_frac", iqr_frac(&lane.reqs_untraced));
        }
    }
    for (i, (preset, tag)) in PRESETS.iter().enumerate() {
        let hz = m[rate_name(*preset)];
        m.insert(per_layer(&format!("sim.{tag}.ns_per_cycle")), 1e9 / hz);
        m.insert(
            per_layer(&format!("sim.{tag}.ns_per_eval")),
            1e9 / hz / evals_per_cycle[i].max(1e-9),
        );
    }
    m.insert(
        "wave.capture_ns_per_cycle",
        1e9 / m["vcd_hz"] - 1e9 / m["sim_hz"],
    );
    // The span-recording overhead of the traced run: how much slower
    // its traced rounds served requests than its untraced ones (on
    // svc-cosim a span per call where requests cross the service).
    let overhead = lanes
        .iter()
        .find_map(|l| {
            let (untraced, traced) = if l.rate == "req_per_s" {
                (&l.untraced, &l.traced)
            } else {
                (&l.reqs_untraced, &l.reqs_traced)
            };
            (!traced.is_empty()).then(|| sustained(untraced) / sustained(traced) - 1.0)
        })
        .unwrap_or(0.0);
    m.insert("trace.overhead_frac", overhead);
}

/// The rate a lane sustained in 90% of its rounds: the 10th
/// percentile of its per-round rates. The host runs in fast episodes
/// lasting seconds to tens of seconds; the median follows how much of a
/// run they cover, the slow floor does not.
pub fn sustained(rates: &[f64]) -> f64 {
    percentile(rates, 10.0)
}

fn iqr_name(rate: &str) -> &'static str {
    per_layer(&format!("{rate}.round_iqr_frac"))
}

/// The catalogue's name for a per-layer metric spelled at run time.
fn per_layer(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"))
}

/// Node evaluations per cycle of each preset's counters.
pub fn evals_per_cycle(counters: &[Counters]) -> [f64; 4] {
    std::array::from_fn(|i| {
        let c = &counters[i];
        c.node_evals as f64 / c.cycles.max(1) as f64
    })
}

/// The host record over a window.
pub fn host_metrics(window: &HostWindow, m: &mut Metrics) {
    let h = window.close();
    m.insert("host.steal_frac", h.steal_frac);
    m.insert("host.run_delay_frac", h.run_delay_frac);
    m.insert("host.cpu_busy_frac", h.cpu_busy_frac);
}

/// Request latencies of one run, in microseconds, kept in fixed
/// memory so that `peak_rss_mb` does not grow with the request rate.
#[derive(Debug)]
pub struct Latencies {
    /// This round's latencies.
    round: Vec<f64>,
    /// Each finished round's median latency.
    round_p50: Vec<f64>,
    /// A uniform sample (algorithm R) of every latency of the run.
    sample: Vec<f64>,
    seen: u64,
}

impl Latencies {
    const SAMPLE: usize = 1 << 18;

    /// An empty record; its sample memory is touched up front.
    pub fn new() -> Latencies {
        let mut sample = Vec::with_capacity(Self::SAMPLE);
        sample.resize(Self::SAMPLE, f64::NAN);
        Latencies {
            round: Vec::new(),
            round_p50: Vec::new(),
            sample,
            seen: 0,
        }
    }

    /// Records one request's latency.
    pub fn record(&mut self, us: f64) {
        self.round.push(us);
        let slot = if (self.seen as usize) < Self::SAMPLE {
            Some(self.seen as usize)
        } else {
            let r = splitmix64(self.seen) % (self.seen + 1);
            (r < Self::SAMPLE as u64).then_some(r as usize)
        };
        if let Some(i) = slot {
            self.sample[i] = us;
        }
        self.seen += 1;
    }

    /// Closes the round.
    pub fn end_round(&mut self) {
        if !self.round.is_empty() {
            self.round_p50.push(median(&self.round));
            self.round.clear();
        }
    }

    /// `req_p50_us`: the median latency the requests stayed under in
    /// 90% of the rounds; `req_p99_us`: the 99th percentile of every
    /// request of the run; `req.samples`: how many requests that is.
    pub fn metrics(&self, m: &mut Metrics) {
        let kept = &self.sample[..(self.seen as usize).min(Self::SAMPLE)];
        m.insert("req_p50_us", percentile(&self.round_p50, 90.0));
        m.insert("req_p99_us", percentile(kept, 99.0));
        m.insert("req.samples", self.seen as f64);
    }
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies::new()
    }
}
