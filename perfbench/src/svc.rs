//! `svc-cosim`: DiffTest-style lockstep co-simulation of stuCore. A
//! testbench steps the design a few (seeded) cycles and reads `a0`
//! back, again and again, waiting for each reply.
//!
//! The request rates and latencies go through the service: one client
//! in a closed loop over a Unix socket to an in-process `Server`
//! (`jit` backend). Both busy threads, client and session, share the
//! pinned CPU. The per-preset rates run the same requests on local
//! in-process sessions, so they measure tiny increments with a read
//! after every step rather than long driven runs; a local GSIM-JIT
//! session is the reference every reply is checked against. Before the
//! rounds, a short `coremark_mini` runs to its `ecall` on every local
//! preset and once through the service, and must leave its expected
//! `a0`.

use crate::common::{
    build, counter_metrics, evals_per_cycle, explore_probe, firrtl_layers, host_metrics,
    lane_metrics, output_names, rate_name, reset, setup_layers, step_sizes, Latencies, WaveCount,
    PRESETS,
};
use crate::host::HostWindow;
use crate::report::{Metrics, Ops};
use crate::rounds::{self, Ctx, Lane, Sample};
use crate::stats::median;
use crate::RunCfg;
use gsim::{
    ClientSession, Counters, Endpoint, ExploreOptions, Explorer, Graph, GsimError, Preset,
    Scenario, Server, ServerConfig, Session, Simulator, SnapshotId, Value,
};
use gsim_workloads::programs::{coremark_mini, Program};
use std::path::PathBuf;
use std::time::Instant;

/// Repeats of each timed layer call in the traced run.
const LAYER_REPS: usize = 31;
/// Iterations of the `coremark_mini` run that must halt with its
/// expected `a0` on every engine, and the cycles between halt polls.
const HALT_ITERS: u32 = 20;
const HALT_POLL: u64 = 64;
/// Requests every local preset must answer like the reference before
/// the rounds start.
const PREFIX_REQS: usize = 2048;
/// Lockstep step sizes generated from the seed: one pass over them.
const STEPS: usize = 1 << 15;
/// Cycles the explored session runs into the program before it forks.
const WARM_CYCLES: u64 = 1024;
/// Branches per exploration and cycles per branch.
const BRANCHES: usize = 8;
const BRANCH_CYCLES: u64 = 16;

/// The program: `coremark_mini` long enough never to halt in a run,
/// so every request advances a busy core.
fn program() -> Program {
    coremark_mini(100_000)
}

/// The program that runs to its end on every engine before the rounds.
fn halting_program() -> Program {
    coremark_mini(HALT_ITERS)
}

/// Steps a loaded, reset core until `halt` reads 1, within the
/// program's cycle budget, and checks `a0` against the program's own
/// expected result: one operation.
fn check_halt<S: Session + ?Sized>(s: &mut S, prog: &Program, what: &str, ops: &mut Ops) {
    let mut run = || -> Result<Option<u64>, GsimError> {
        let mut cycles = 0;
        while cycles < prog.max_cycles {
            s.step(HALT_POLL)?;
            cycles += HALT_POLL;
            if s.peek("halt")?.to_u64() == Some(1) {
                return Ok(s.peek("result")?.to_u64());
            }
        }
        Ok(None)
    };
    let a0 = run();
    ops.check(
        matches!(a0, Ok(Some(v)) if v == prog.expected_result),
        || match a0 {
            Ok(Some(v)) => format!(
                "svc-cosim: {what} halted with a0 = {v}, expected {}",
                prog.expected_result
            ),
            Ok(None) => format!(
                "svc-cosim: {what} did not halt within {} cycles",
                prog.max_cycles
            ),
            Err(e) => format!("svc-cosim: {what}: {e}"),
        },
    );
}

/// Lockstep step sizes of one seed.
pub fn steps(seed: u64) -> Vec<u64> {
    step_sizes(seed, STEPS)
}

/// The replies of the reference session: `a0` after each request of
/// one pass over the step sequence from the post-reset state. Every
/// session starts that pass over when it ends, so the reference is
/// computed once and memory stays fixed.
struct Oracle(Vec<u64>);

impl Oracle {
    fn new(mut sim: Simulator, steps: &[u64]) -> Oracle {
        Oracle(
            steps
                .iter()
                .map(|&k| {
                    sim.run(k);
                    sim.peek_u64("result").unwrap_or(u64::MAX)
                })
                .collect(),
        )
    }

    /// Checks replies to requests `from..` (counted modulo the pass),
    /// one operation each.
    fn check(&self, from: usize, got: &[Option<u64>], what: &str, ops: &mut Ops) {
        for (i, &v) in got.iter().enumerate() {
            let j = (from + i) % self.0.len();
            ops.check(v == Some(self.0[j]), || {
                format!(
                    "svc-cosim: {what} reply {j} is {v:?}, reference {}",
                    self.0[j]
                )
            });
        }
    }
}

/// One local preset's request loop.
struct Local {
    sim: Simulator,
    /// The post-reset state each pass over the steps starts from.
    snap: SnapshotId,
    next: usize,
    /// The traced preset captures each pass into this sink.
    trace: Option<(Vec<String>, WaveCount)>,
}

impl Local {
    fn new(mut sim: Simulator) -> Local {
        let snap = sim.take_snapshot();
        Local {
            sim,
            snap,
            next: 0,
            trace: None,
        }
    }

    /// Serves `n` requests; returns the cycles advanced, the timed
    /// seconds and the replies.
    fn serve(&mut self, steps: &[u64], n: u64, ctx: &mut Ctx) -> (u64, f64, Vec<Option<u64>>) {
        let mut replies = Vec::with_capacity(n as usize);
        let mut cycles = 0;
        let t = Instant::now();
        let sim = &mut self.sim;
        for _ in 0..n {
            if self.next == steps.len() {
                self.next = 0;
                if self.trace.is_some() {
                    let stopped = ctx
                        .spans
                        .time("Simulator::trace_stop", ctx.round, || sim.trace_stop());
                    ctx.ops.result(stopped, "svc-cosim trace_stop");
                }
                let _ = sim.restore_snapshot(self.snap);
            }
            if let (0, Some((outs, wave))) = (self.next, &self.trace) {
                let started = ctx.spans.time("Simulator::trace_start", ctx.round, || {
                    sim.trace_start(Some(outs), wave.sink())
                });
                ctx.ops.result(started, "svc-cosim trace_start");
            }
            let k = steps[self.next];
            sim.run(k);
            replies.push(Simulator::peek_u64(sim, "result"));
            cycles += k;
            self.next += 1;
        }
        (cycles, t.elapsed().as_secs_f64(), replies)
    }
}

/// The four local presets of stuCore with the program loaded and out
/// of reset, and the node count the GSIM preset's passes left.
fn build_locals(graph: &Graph, prog: &Program, ops: &mut Ops) -> Option<(Vec<Local>, usize)> {
    let mut locals = Vec::new();
    let mut gsim_nodes = 0;
    for (preset, _) in PRESETS {
        let (mut sim, nodes) = build(graph, preset, ops)?;
        if preset == Preset::Gsim {
            gsim_nodes = nodes;
        }
        load(&mut sim, prog, ops);
        locals.push(Local::new(sim));
    }
    Some((locals, gsim_nodes))
}

/// Loads `prog` into a local core and releases it from reset.
fn load(sim: &mut Simulator, prog: &Program, ops: &mut Ops) {
    ops.result(sim.load_mem("imem", &prog.image), "load imem");
    reset(sim, ops);
}

/// Runs the halting program to its end on a fresh build of every
/// local preset.
fn check_local_halts(graph: &Graph, ops: &mut Ops) {
    let prog = halting_program();
    for (preset, _) in PRESETS {
        if let Some((mut sim, _)) = build(graph, preset, ops) {
            load(&mut sim, &prog, ops);
            check_halt(&mut sim, &prog, &preset.name(), ops);
        }
    }
}

/// The checked prefix: every local preset answers the first requests
/// like the reference. Returns each preset's counters over them.
fn check_prefix(
    locals: &mut [Local],
    steps: &[u64],
    oracle: &Oracle,
    ctx: &mut Ctx,
) -> Vec<Counters> {
    let mut counters = Vec::new();
    for (local, (preset, _)) in locals.iter_mut().zip(PRESETS) {
        local.sim.reset_counters();
        let (_, _, replies) = local.serve(steps, PREFIX_REQS as u64, ctx);
        oracle.check(0, &replies, &preset.name(), &mut ctx.ops);
        counters.push(*local.sim.counters());
    }
    counters
}

/// Every local preset's counters over the checked prefix of `seed`'s
/// requests, and the checks it made.
pub fn prefix_counters(seed: u64) -> (Vec<Counters>, Ops) {
    let graph = gsim_firrtl::compile(&gsim_designs::stu_core_firrtl()).expect("stuCore compiles");
    let steps = steps(seed);
    let mut ctx = Ctx::new(false);
    check_local_halts(&graph, &mut ctx.ops);
    let Some((mut locals, _)) = build_locals(&graph, &program(), &mut ctx.ops) else {
        return (Vec::new(), ctx.ops);
    };
    let oracle = Oracle::new(locals[1].sim.fork(), &steps);
    let counters = check_prefix(&mut locals, &steps, &oracle, &mut ctx);
    (counters, ctx.ops)
}

/// Connects, uploads the design for the `jit` backend, loads the
/// program and releases reset: a remote session ready to step.
fn open_remote(ep: &Endpoint, src: &str, prog: &Program, ctx: &mut Ctx) -> Option<ClientSession> {
    let mut c = ctx.ops.result(ClientSession::connect(ep), "connect")?;
    let open = ctx.spans.begin("ClientSession::open_design", 0);
    let info = c.open_design(src, "jit");
    ctx.spans.end(open);
    ctx.ops.result(info, "open_design")?;
    ctx.ops
        .result(c.load_mem("imem", &prog.image), "remote load imem")?;
    ctx.ops
        .result(c.poke("reset", Value::from_u64(1, 1)), "remote poke reset")?;
    ctx.ops.result(Session::step(&mut c, 2), "remote step")?;
    ctx.ops
        .result(c.poke("reset", Value::from_u64(0, 1)), "remote poke reset")?;
    Some(c)
}

/// Where the service listens and keeps its cache: a run directory in
/// the working directory, one per process.
fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run").join(format!("svc-{}", std::process::id()))
}

/// Runs the workload; see the crate docs for what each metric means.
///
/// # Errors
///
/// A build, or a service that does not start, leaves nothing to
/// measure.
pub fn run(cfg: &RunCfg, ctx: &mut Ctx) -> Result<Metrics, String> {
    let dir = run_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("svc-cosim: {}: {e}", dir.display()))?;
    let server = Server::start(ServerConfig::new(
        Endpoint::Unix(dir.join("sock")),
        dir.join("cache"),
    ))
    .map_err(|e| format!("svc-cosim: server: {e}"));
    let result = server.and_then(|mut server| {
        let r = measure(cfg, ctx, &server);
        server.stop();
        r
    });
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(cfg: &RunCfg, ctx: &mut Ctx, server: &Server) -> Result<Metrics, String> {
    let ep = server.endpoint().clone();
    let src = gsim_designs::stu_core_firrtl();
    let prog = program();
    let steps = steps(cfg.seed);
    let mut m = Metrics::new();

    let mut client = open_remote(&ep, &src, &prog, ctx).ok_or("svc-cosim: no session opened")?;
    let mut explored = open_remote(&ep, &src, &prog, ctx).ok_or("svc-cosim: no session")?;
    ctx.ops
        .result(Session::step(&mut explored, WARM_CYCLES), "remote warm-up");

    let graph = gsim_firrtl::compile(&src).map_err(|e| format!("svc-cosim: {e}"))?;
    check_local_halts(&graph, &mut ctx.ops);
    let halting = halting_program();
    if let Some(mut c) = open_remote(&ep, &src, &halting, ctx) {
        check_halt(&mut c, &halting, "remote jit", &mut ctx.ops);
    }
    let (mut locals, gsim_nodes) =
        build_locals(&graph, &prog, &mut ctx.ops).ok_or("svc-cosim: build failed")?;
    let oracle = Oracle::new(locals[1].sim.fork(), &steps);
    let wave = WaveCount::default();
    let mut vcd = Local::new(locals[0].sim.fork());
    vcd.trace = Some((output_names(&mut vcd.sim), wave.clone()));
    let client_snap = ctx
        .ops
        .result(Session::snapshot(&mut client), "remote snapshot")
        .ok_or("svc-cosim: no remote snapshot")?;
    let mut core = locals[1].sim.fork();
    core.run(WARM_CYCLES);
    let base = Scenario::new()
        .frame(&[("reset", 0)])
        .hold(BRANCH_CYCLES - 1);
    let expected: Vec<String> = Explorer::new(&mut core)
        .options(ExploreOptions {
            workers: 1,
            ..ExploreOptions::default()
        })
        .run(&base, BRANCHES, None)
        .map_err(|e| format!("svc-cosim: local explore: {e}"))?
        .branches
        .iter()
        .map(|b| b.render_wire())
        .collect();

    let counters = check_prefix(&mut locals, &steps, &oracle, ctx);
    counter_metrics(&counters[0], gsim_nodes, &mut m);
    let evals = evals_per_cycle(&counters);

    let mut lat = Latencies::new();
    let mut vcd_cycles = 0u64;
    let mut remote_next = 0usize;
    let window = HostWindow::open(cfg.cpu);
    {
        let steps = &steps;
        let oracle = &oracle;
        let (ep, src, prog) = (&ep, &src, &prog);
        // setup_s: connect to the running service and open a session
        // ready to step, timed open by open.
        let mut lanes = vec![Lane::per_unit(
            "setup_s",
            Box::new(move |size, ctx: &mut Ctx| {
                let mut secs = 0.0;
                for _ in 0..size {
                    let t = Instant::now();
                    let opened = open_remote(ep, src, prog, ctx);
                    secs += t.elapsed().as_secs_f64();
                    drop(opened);
                }
                Sample::new(size as f64, secs)
            }),
        )];
        for (local, (preset, _)) in locals.iter_mut().zip(PRESETS) {
            lanes.push(Lane::new(
                rate_name(preset),
                Box::new(move |size, ctx: &mut Ctx| {
                    let from = local.next;
                    let (cycles, secs, replies) = local.serve(steps, size, ctx);
                    oracle.check(from, &replies, &preset.name(), &mut ctx.ops);
                    Sample::new(cycles as f64, secs)
                }),
            ));
        }
        lanes.push(Lane::new(
            "vcd_hz",
            Box::new(|size, ctx: &mut Ctx| {
                let from = vcd.next;
                let (cycles, secs, replies) = vcd.serve(steps, size, ctx);
                oracle.check(from, &replies, "traced GSIM", &mut ctx.ops);
                vcd_cycles += cycles;
                Sample::new(cycles as f64, secs)
            }),
        ));
        lanes.push(Lane::new(
            "explore_branches_per_s",
            Box::new(|size, ctx: &mut Ctx| {
                let mut secs = 0.0;
                for _ in 0..size {
                    let open = ctx.spans.begin("ClientSession::explore", ctx.round);
                    let t = Instant::now();
                    let lines = explored.explore(&base, BRANCHES);
                    secs += t.elapsed().as_secs_f64();
                    ctx.spans.end(open);
                    if let Some(lines) = ctx.ops.result(lines, "remote explore") {
                        for i in 0..BRANCHES {
                            ctx.ops.check(lines.get(i) == expected.get(i), || {
                                format!("svc-cosim: remote branch {i} differs from the local one")
                            });
                        }
                    }
                }
                Sample::new((size as usize * BRANCHES) as f64, secs)
            }),
        ));
        lanes.push(Lane::new(
            "req_per_s",
            Box::new(|size, ctx: &mut Ctx| {
                let from = remote_next;
                let mut replies = Vec::with_capacity(size as usize);
                let mut secs = 0.0;
                for _ in 0..size {
                    if remote_next == steps.len() {
                        // One pass over the steps done: start it over.
                        let restored = Session::restore(&mut client, client_snap);
                        ctx.ops.result(restored, "remote restore");
                        remote_next = 0;
                    }
                    let k = steps[remote_next];
                    let t = Instant::now();
                    let open = ctx.spans.begin("ClientSession::step", remote_next as u64);
                    let stepped = Session::step(&mut client, k);
                    ctx.spans.end(open);
                    let open = ctx.spans.begin("ClientSession::peek", remote_next as u64);
                    let v = client.peek("result");
                    ctx.spans.end(open);
                    let dt = t.elapsed().as_secs_f64();
                    secs += dt;
                    remote_next += 1;
                    if !ctx.calibrating {
                        lat.record(dt * 1e6);
                    }
                    ctx.ops.result(stepped, "remote step");
                    replies.push(v.ok().and_then(|v| v.to_u64()));
                }
                oracle.check(from, &replies, "remote", &mut ctx.ops);
                lat.end_round();
                Sample::new(size as f64, secs)
            }),
        ));
        rounds::run(&mut lanes, ctx, cfg.seconds);
        lane_metrics(&lanes, evals, &mut m);
    }
    host_metrics(&window, &mut m);
    m.insert(
        "server.open_s",
        median(&ctx.spans.durations("ClientSession::open_design")),
    );
    if vcd.next > 0 {
        let stopped = ctx
            .spans
            .time("Simulator::trace_stop", 0, || vcd.sim.trace_stop());
        ctx.ops.result(stopped, "svc-cosim trace_stop");
    }

    let panics = server.stats().panics;
    ctx.ops.check(panics == 0, || {
        format!("svc-cosim: {panics} session panics")
    });
    m.insert("server.panics", panics as f64);
    let traced = vcd_cycles.max(1) as f64;
    m.insert("wave.bytes_per_cycle", wave.bytes() as f64 / traced);
    m.insert("wave.changes_per_cycle", wave.changes() as f64 / traced);
    lat.metrics(&mut m);
    let mean_step = steps.iter().sum::<u64>() as f64 / steps.len() as f64;
    m.insert("server.local_us_per_req", 1e6 * mean_step / m["jit_hz"]);
    m.insert(
        "server.step_p50_us",
        1e6 * median(&ctx.spans.durations("ClientSession::step")),
    );
    m.insert(
        "server.peek_p50_us",
        1e6 * median(&ctx.spans.durations("ClientSession::peek")),
    );
    // The service reports no per-branch retries over the wire.
    m.insert("explore.retries", 0.0);
    if ctx.spans.is_on() {
        firrtl_layers(&src, LAYER_REPS, &mut ctx.spans, &mut m);
        setup_layers(&graph, LAYER_REPS, &mut ctx.spans, &mut ctx.ops, &mut m);
        explore_probe(&mut core, &base, &mut ctx.spans, &mut m);
    }
    drop((client, explored));
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_expected_result_is_a_failed_operation() {
        let graph =
            gsim_firrtl::compile(&gsim_designs::stu_core_firrtl()).expect("stuCore compiles");
        let right = halting_program();
        let wrong = Program {
            expected_result: right.expected_result ^ 1,
            ..right.clone()
        };
        let mut ops = Ops::default();
        for prog in [&right, &wrong] {
            let (mut sim, _) = build(&graph, Preset::GsimJit, &mut ops).expect("builds");
            load(&mut sim, prog, &mut ops);
            check_halt(&mut sim, prog, "test", &mut ops);
        }
        assert_eq!(ops.failed, 1, "only the wrong expectation fails");
        assert_eq!(
            ops.attempted,
            2 * 5,
            "build, load, two reset pokes, the halt check"
        );
    }

    #[test]
    fn a_wrong_reply_is_a_failed_operation() {
        let oracle = Oracle(vec![1, 2, 3]);
        let mut ops = Ops::default();
        oracle.check(2, &[Some(3), Some(9), None], "test", &mut ops);
        assert_eq!(
            ops,
            Ops {
                attempted: 3,
                failed: 2
            }
        );
    }
}
