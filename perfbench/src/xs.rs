//! `xs-linux`: the XiangShan stand-in of the paper suite driven by the
//! seeded Linux-like opcode stream.
//!
//! The paper's headline scale regime. Set-up is dominated by the
//! passes, partitioning and image building; each cycle by node
//! evaluation and active-bit scans; a fork copies a large state.

use crate::common::{
    build, counter_metrics, evals_per_cycle, explore_lane, explore_probe, host_metrics,
    lane_metrics, output_names, rate_name, replay_branches, reset, setup_layers, step_sizes,
    Latencies, WaveCount, PRESETS,
};
use crate::host::HostWindow;
use crate::report::Metrics;
use crate::rounds::{self, Ctx, Lane, Sample};
use crate::stats::median;
use crate::RunCfg;
use gsim::{Graph, InputHandle, Preset, Scenario, Simulator};
use gsim_workloads::Profile;
use std::time::Instant;

/// Paper-suite scale: XiangShan's 6.2M nodes times this.
const SCALE: f64 = 0.005;
/// Cycles on which all four presets must agree on every output.
const PREFIX: u64 = 256;
/// Stimulus cycles generated from the seed; runs wrap around them.
const RING: usize = 4096;
/// Set-up repeats whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Branches per exploration and cycles per branch: short, so the
/// exploration measures fork and restore as well as the sweep.
const BRANCHES: usize = 8;
const BRANCH_CYCLES: usize = 16;

/// The design: XiangShan from `gsim_designs::paper_suite(SCALE)`.
fn design() -> Graph {
    gsim_designs::paper_suite(SCALE)
        .into_iter()
        .find(|d| d.name == "XiangShan")
        .expect("the paper suite has XiangShan")
        .graph
}

/// The generated inputs of one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// One opcode word per issue lane per cycle.
    pub frames: Vec<Vec<u64>>,
    /// Cycles each lockstep request advances.
    pub steps: Vec<u64>,
}

/// Inputs for `lanes` issue lanes from `seed`.
pub fn inputs(seed: u64, lanes: usize) -> Inputs {
    let mut stim = Profile::linux().stimulus(lanes, seed);
    Inputs {
        frames: (0..RING).map(|_| stim.next_cycle()).collect(),
        steps: step_sizes(seed, RING),
    }
}

fn lane_handles(sim: &Simulator) -> Vec<InputHandle> {
    (0..64)
        .map_while(|l| sim.input_handle(&format!("op_in_{l}")))
        .collect()
}

/// Runs `n` cycles, cycle `c` driven by ring frame `c mod RING`.
fn drive(sim: &mut Simulator, handles: &[InputHandle], frames: &[Vec<u64>], n: u64) {
    sim.run_driven(n, |c, f| {
        let frame = &frames[c as usize % frames.len()];
        for (h, &v) in handles.iter().zip(frame) {
            f.set(*h, v);
        }
    });
}

/// Drives every preset through the prefix, checks each cycle's outputs
/// against the Verilator preset's, and returns each preset's counters
/// over the prefix.
fn check_prefix(sims: &mut [Simulator], inp: &Inputs, ctx: &mut Ctx) -> Vec<gsim::Counters> {
    let outs = output_names(&mut sims[0]);
    let mut rows = Vec::new();
    let mut counters = Vec::new();
    for sim in sims.iter_mut() {
        reset(sim, &mut ctx.ops);
        sim.reset_counters();
        let handles = lane_handles(sim);
        let mut trace = Vec::with_capacity(PREFIX as usize);
        for _ in 0..PREFIX {
            drive(sim, &handles, &inp.frames, 1);
            trace.push(outs.iter().map(|o| sim.peek(o)).collect::<Vec<_>>());
        }
        rows.push(trace);
        counters.push(*sim.counters());
    }
    let reference = rows.len() - 1;
    for (i, trace) in rows.iter().enumerate().take(reference) {
        for (c, row) in trace.iter().enumerate() {
            ctx.ops.check(*row == rows[reference][c], || {
                format!(
                    "xs-linux: {} differs from Verilator at cycle {c}",
                    PRESETS[i].0.name()
                )
            });
        }
    }
    counters
}

/// Runs the workload; see the crate docs for what each metric means.
///
/// # Errors
///
/// A build that fails leaves nothing to measure.
pub fn run(cfg: &RunCfg, ctx: &mut Ctx) -> Result<Metrics, String> {
    let graph = design();
    let mut m = Metrics::new();

    // setup_s: design graph to a GSIM-JIT session ready to step.
    let mut setup = Vec::new();
    let mut jit = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = build(&graph, Preset::GsimJit, &mut ctx.ops);
        setup.push(t.elapsed().as_secs_f64());
        jit = built.or(jit);
    }
    m.insert("setup_s", median(&setup));
    let mut sims = Vec::new();
    let mut gsim_nodes = 0;
    for (preset, _) in PRESETS {
        let (sim, nodes) = match preset {
            Preset::GsimJit => jit.take(),
            _ => build(&graph, preset, &mut ctx.ops),
        }
        .ok_or("xs-linux: a preset failed to build")?;
        if preset == Preset::Gsim {
            gsim_nodes = nodes;
        }
        sims.push(sim);
    }
    let handles: Vec<Vec<InputHandle>> = sims.iter().map(lane_handles).collect();
    let inp = inputs(cfg.seed, handles[0].len());
    let counters = check_prefix(&mut sims, &inp, ctx);
    counter_metrics(&counters[0], gsim_nodes, &mut m);
    let evals = evals_per_cycle(&counters);

    let outs = output_names(&mut sims[0]);
    let probe = outs[0].clone();
    let wave = WaveCount::default();
    let mut vcd = sims[0].fork();
    ctx.spans
        .time("Simulator::trace_start", 0, || {
            vcd.trace_start(Some(&outs), wave.sink())
        })
        .map_err(|e| format!("xs-linux: trace_start: {e}"))?;
    let vcd_from = vcd.cycle();
    let mut core = sims[1].fork();
    let at = core.cycle() as usize;
    let names: Vec<String> = (0..handles[1].len())
        .map(|l| format!("op_in_{l}"))
        .collect();
    let base = Scenario {
        loads: Vec::new(),
        frames: (0..BRANCH_CYCLES)
            .map(|k| {
                let frame = &inp.frames[(at + k) % RING];
                names.iter().cloned().zip(frame.iter().copied()).collect()
            })
            .collect(),
    };
    let expected = replay_branches(&mut core, &base, BRANCHES);
    let mut retries = 0u64;
    let mut lat = Latencies::new();

    let window = HostWindow::open(cfg.cpu);
    {
        let frames = &inp.frames;
        let steps = &inp.steps;
        let mut lockstep = Some((&mut lat, &probe));
        let mut lanes = Vec::new();
        for ((sim, h), (preset, _)) in sims.iter_mut().zip(&handles).zip(PRESETS) {
            let serves = if preset == Preset::GsimJit {
                lockstep.take()
            } else {
                None
            };
            if let Some((lat, probe)) = serves {
                // GSIM-JIT serves lockstep requests: drive the seeded
                // step size, then peek. Its cycles give `jit_hz`, its
                // requests `req_per_s` and `req_p50_us`.
                let mut j = 0usize;
                lanes.push(Lane::new(
                    rate_name(preset),
                    Box::new(move |size, ctx: &mut Ctx| {
                        let (mut cycles, mut secs) = (0, 0.0);
                        for _ in 0..size {
                            let k = steps[j % steps.len()];
                            let t = Instant::now();
                            drive(sim, h, frames, k);
                            let v = sim.peek(probe);
                            let dt = t.elapsed().as_secs_f64();
                            secs += dt;
                            cycles += k;
                            j += 1;
                            if !ctx.calibrating {
                                lat.record(dt * 1e6);
                            }
                            ctx.ops
                                .check(v.is_some(), || format!("xs-linux: peek {probe} failed"));
                        }
                        lat.end_round();
                        Sample {
                            work: cycles as f64,
                            secs,
                            reqs: size,
                        }
                    }),
                ));
                continue;
            }
            lanes.push(Lane::new(
                rate_name(preset),
                Box::new(move |size, _: &mut Ctx| {
                    let t = Instant::now();
                    drive(sim, h, frames, size);
                    Sample::new(size as f64, t.elapsed().as_secs_f64())
                }),
            ));
        }
        let h0 = &handles[0];
        lanes.push(Lane::new(
            "vcd_hz",
            Box::new(|size, _: &mut Ctx| {
                let t = Instant::now();
                drive(&mut vcd, h0, frames, size);
                Sample::new(size as f64, t.elapsed().as_secs_f64())
            }),
        ));
        lanes.push(explore_lane(
            &mut core,
            &base,
            &expected,
            &mut retries,
            "xs-linux explore",
        ));
        rounds::run(&mut lanes, ctx, cfg.seconds);
        lane_metrics(&lanes, evals, &mut m);
    }
    host_metrics(&window, &mut m);

    let traced = (vcd.cycle() - vcd_from).max(1) as f64;
    let stopped = ctx
        .spans
        .time("Simulator::trace_stop", 0, || vcd.trace_stop());
    ctx.ops.result(stopped, "xs-linux trace_stop");
    m.insert("wave.bytes_per_cycle", wave.bytes() as f64 / traced);
    m.insert("wave.changes_per_cycle", wave.changes() as f64 / traced);
    lat.metrics(&mut m);
    m.insert("explore.retries", retries as f64);
    for name in [
        "firrtl.parse_s",
        "firrtl.lower_s",
        "server.open_s",
        "server.step_p50_us",
        "server.peek_p50_us",
        "server.local_us_per_req",
        "server.panics",
    ] {
        // This workload reads no FIRRTL text and uses no service.
        m.insert(name, 0.0);
    }
    if ctx.spans.is_on() {
        setup_layers(&graph, 3, &mut ctx.spans, &mut ctx.ops, &mut m);
        explore_probe(&mut core, &base, &mut ctx.spans, &mut m);
    }
    Ok(m)
}
