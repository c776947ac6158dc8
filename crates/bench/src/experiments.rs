//! The paper's experiments (§IV), one function per table/figure.
//!
//! Every function returns plain data rows; `print_*` helpers render
//! paper-style tables. The `repro` binary wires them to the command
//! line. EXPERIMENTS.md records a full paper-vs-measured comparison.

use crate::harness::{measure_options, measure_preset, RunStats, WorkloadKind, MT_THREADS};
use gsim::{Compiler, EngineChoice, OptOptions, Preset, Session, SupernodeChoice};
use gsim_designs::{paper_suite, SuiteDesign};
use gsim_graph::Graph;
use gsim_workloads::{programs, spec_profiles, Profile};

/// Shared experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Design scale relative to the paper's node counts (1.0 = paper
    /// size; default keeps runs tractable).
    pub scale: f64,
    /// Cycles per measurement for stimulus-driven designs.
    pub cycles: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            scale: 0.02,
            cycles: 2_000,
        }
    }
}

/// Builds the four-design suite once.
pub fn build_suite(cfg: &Config) -> Vec<SuiteDesign> {
    paper_suite(cfg.scale)
}

/// The two main software workloads for a given design (Figure 6's
/// columns): stuCore runs real programs; synthetic cores run stimulus
/// profiles.
pub fn main_workloads(design: &SuiteDesign) -> Vec<WorkloadKind> {
    if design.name == "stuCore" {
        vec![
            WorkloadKind::Program(programs::linux_boot_mini(1_500)),
            WorkloadKind::Program(programs::coremark_mini(40)),
        ]
    } else {
        vec![
            WorkloadKind::Stimulus(Profile::linux()),
            WorkloadKind::Stimulus(Profile::coremark()),
        ]
    }
}

// ---------------------------------------------------------------- Table I

/// One row of Table I.
#[derive(Debug)]
pub struct Table1Row {
    /// Design name.
    pub name: &'static str,
    /// IR nodes.
    pub nodes: usize,
    /// IR edges.
    pub edges: usize,
    /// Verilator-preset speed in Hz (Linux-like workload).
    pub hz: f64,
}

/// Table I: baseline (Verilator-like) speed across design scales.
pub fn table1(suite: &[SuiteDesign], cfg: &Config) -> Vec<Table1Row> {
    suite
        .iter()
        .map(|d| {
            let wl = &main_workloads(d)[0];
            let stats = measure_preset(&d.graph, Preset::Verilator, wl, cfg.cycles);
            Table1Row {
                name: d.name,
                nodes: d.graph.num_nodes(),
                edges: d.graph.num_edges(),
                hz: stats.hz,
            }
        })
        .collect()
}

/// Prints Table I.
pub fn print_table1(rows: &[Table1Row]) {
    println!("Table I: Verilator-like (single thread) simulation speed");
    println!(
        "{:<12} {:>10} {:>10} {:>14}",
        "Name", "IR node", "IR edge", "Speed"
    );
    for r in rows {
        println!(
            "{:<12} {:>10} {:>10} {:>12}",
            r.name,
            r.nodes,
            r.edges,
            format_hz(r.hz)
        );
    }
}

// ------------------------------------------- Table I (thread scaling)

/// Thread counts of the multithreaded full-cycle scaling experiment.
pub const FULL_CYCLE_MT_THREADS: [usize; 3] = [1, 2, 4];

/// One row of the thread-scaling extension of Table I.
#[derive(Debug)]
pub struct ThreadScalingRow {
    /// Engine label.
    pub engine: String,
    /// Worker threads (1 for the sequential full-cycle engine).
    pub threads: usize,
    /// Simulation speed in cycles per second.
    pub hz: f64,
    /// Speedup over the sequential full-cycle engine.
    pub speedup: f64,
}

/// A stimulus personality with a low activity factor — the regime where
/// essential-signal simulation shines.
pub fn low_activity_profile() -> Profile {
    Profile {
        name: "low-activity",
        activity: 0.15,
        hot_set: 64,
        fu_spread: 0.3,
    }
}

fn measure_threads(graph: &Graph, engine: EngineChoice, profile: &Profile, cycles: u64) -> f64 {
    let opts = OptOptions {
        engine,
        ..OptOptions::all()
    };
    let (mut sim, _) = Compiler::new(graph)
        .options(opts)
        .build()
        .expect("compiles");
    // Per-cycle stimulus through the driven-run API: the worker team
    // stays alive for the whole measurement.
    let handles: Vec<_> = (0..64)
        .map_while(|l| sim.input_handle(&format!("op_in_{l}")))
        .collect();
    let mut stim = profile.stimulus(handles.len().max(1), 0xBEEF);
    sim.poke_u64("reset", 1).ok();
    sim.run(2);
    sim.poke_u64("reset", 0).ok();
    // Settle, then warm up untimed (see `harness::WARMUP_CYCLES`).
    sim.run(8);
    sim.run_driven(crate::harness::WARMUP_CYCLES.min(cycles), |_, frame| {
        let ops = stim.next_cycle();
        for (h, &op) in handles.iter().zip(&ops) {
            frame.set(*h, op);
        }
    });
    let start = std::time::Instant::now();
    sim.run_driven(cycles, |_, frame| {
        let ops = stim.next_cycle();
        for (h, &op) in handles.iter().zip(&ops) {
            frame.set(*h, op);
        }
    });
    cycles as f64 / start.elapsed().as_secs_f64().max(1e-12)
}

/// Table I extension: thread scaling of Verilator `--threads N`, the
/// levelized multithreaded full-cycle engine, on a low-activity
/// workload. Row 0 is the sequential full-cycle engine; the rest run
/// `FullCycleMt` at [`FULL_CYCLE_MT_THREADS`]. Scaling past 1.0x
/// requires at least as many host cores as worker threads.
pub fn table1_threads(design: &SuiteDesign, cfg: &Config) -> Vec<ThreadScalingRow> {
    let profile = low_activity_profile();
    let base = measure_threads(&design.graph, EngineChoice::FullCycle, &profile, cfg.cycles);
    let mut rows = vec![ThreadScalingRow {
        engine: "FullCycle".into(),
        threads: 1,
        hz: base,
        speedup: 1.0,
    }];
    for t in FULL_CYCLE_MT_THREADS {
        let hz = measure_threads(
            &design.graph,
            EngineChoice::FullCycleMt(t),
            &profile,
            cfg.cycles,
        );
        rows.push(ThreadScalingRow {
            engine: format!("FullCycleMt-{t}T"),
            threads: t,
            hz,
            speedup: hz / base.max(1e-12),
        });
    }
    rows
}

/// Prints the thread-scaling extension (speeds are cycles per second).
pub fn print_table1_threads(design: &str, rows: &[ThreadScalingRow]) {
    println!("Table I (ext): full-cycle thread scaling on {design}, low-activity workload");
    println!(
        "{:<18} {:>8} {:>18} {:>9}",
        "Engine", "Threads", "Speed (cycles/s)", "Speedup"
    );
    for r in rows {
        println!(
            "{:<18} {:>8} {:>18} {:>8.2}x",
            r.engine,
            r.threads,
            format!("{:.0}", r.hz),
            r.speedup
        );
    }
}

// ------------------------------------------- dispatch breakdown (image)

/// One configuration of the dispatch-breakdown experiment: how the flat
/// execution image's interpreter spends its time.
#[derive(Debug)]
pub struct DispatchRow {
    /// Configuration label.
    pub label: String,
    /// Engine family name.
    pub engine: &'static str,
    /// Simulation speed in cycles per second.
    pub hz: f64,
    /// Executed instructions per simulated cycle.
    pub instrs_per_cycle: f64,
    /// Full counter breakdown for the run.
    pub counters: gsim::Counters,
}

/// Dispatch breakdown on the low-activity workload: the GSIM preset's
/// essential engine and the full-cycle baseline on the same flat
/// image. Reports cycles/sec and instrs/cycle.
pub fn dispatch_breakdown(design: &SuiteDesign, cfg: &Config) -> Vec<DispatchRow> {
    let wl = WorkloadKind::Stimulus(low_activity_profile());
    let configs: [(&'static str, EngineChoice); 2] = [
        ("GSIM", EngineChoice::Essential),
        ("FullCycle", EngineChoice::FullCycle),
    ];
    configs
        .into_iter()
        .map(|(engine, choice)| {
            let opts = OptOptions {
                engine: choice,
                ..OptOptions::all()
            };
            let stats = measure_options(&design.graph, opts, &wl, cfg.cycles);
            DispatchRow {
                label: engine.to_string(),
                engine,
                hz: stats.hz,
                instrs_per_cycle: stats.counters.instrs_per_cycle(),
                counters: stats.counters,
            }
        })
        .collect()
}

/// Prints the dispatch breakdown.
pub fn print_dispatch(design: &str, rows: &[DispatchRow]) {
    println!("Dispatch breakdown on {design} (low-activity workload): flat-image interpreter");
    println!(
        "{:<18} {:>16} {:>12}",
        "config", "speed (cyc/s)", "instrs/cyc"
    );
    for r in rows {
        println!(
            "{:<18} {:>16} {:>12.1}",
            r.label,
            format!("{:.0}", r.hz),
            r.instrs_per_cycle
        );
    }
}

// --------------------------------------------- threaded-code backend

/// One configuration of the threaded-dispatch experiment: the
/// in-process threaded-code backend against the interpreter it lowers
/// from.
#[derive(Debug)]
pub struct ThreadedRow {
    /// Configuration label.
    pub label: String,
    /// Simulation speed in cycles per second.
    pub hz: f64,
    /// Speedup over the interpreter row (row 0 is 1.0 by definition).
    pub speedup: f64,
    /// Time the compile-time lowering pass took, milliseconds (zero
    /// for the interpreter, which never lowers).
    pub lowering_ms: f64,
    /// Full counter breakdown — identical across both rows by the
    /// bit-invisibility contract.
    pub counters: gsim::Counters,
}

/// Measures one engine configuration on the dispatch workload,
/// reporting speed, counters and the threaded lowering time.
fn measure_threaded_config(
    graph: &Graph,
    opts: OptOptions,
    cycles: u64,
) -> (f64, gsim::Counters, f64) {
    let (mut sim, _) = Compiler::new(graph)
        .options(opts)
        .build()
        .expect("compiles");
    let lowering_ms = sim.lowering_time().as_secs_f64() * 1e3;
    let handles: Vec<_> = (0..64)
        .map_while(|l| sim.input_handle(&format!("op_in_{l}")))
        .collect();
    let mut stim = low_activity_profile().stimulus(handles.len().max(1), 0xDEC0DE);
    sim.poke_u64("reset", 1).ok();
    sim.run(2);
    sim.poke_u64("reset", 0).ok();
    sim.run_driven(crate::harness::WARMUP_CYCLES.min(cycles), |_, frame| {
        let ops = stim.next_cycle();
        for (h, &op) in handles.iter().zip(&ops) {
            frame.set(*h, op);
        }
    });
    sim.reset_counters();
    let start = std::time::Instant::now();
    sim.run_driven(cycles, |_, frame| {
        let ops = stim.next_cycle();
        for (h, &op) in handles.iter().zip(&ops) {
            frame.set(*h, op);
        }
    });
    let hz = cycles as f64 / start.elapsed().as_secs_f64().max(1e-12);
    (hz, *sim.counters(), lowering_ms)
}

/// The threaded-code backend on the dispatch workload: the GSIM
/// interpreter and the GSIM-JIT threaded backend. The speedup column
/// is the backend's whole claim; the lowering time is its whole
/// cold-start cost (no rustc anywhere).
pub fn threaded(design: &SuiteDesign, cfg: &Config) -> Vec<ThreadedRow> {
    let configs: [(&str, EngineChoice); 2] = [
        ("GSIM interp", EngineChoice::Essential),
        ("GSIM-JIT", EngineChoice::Threaded),
    ];
    let mut rows: Vec<ThreadedRow> = Vec::new();
    let mut interp_hz = 0.0;
    for (label, engine) in configs {
        let opts = OptOptions {
            engine,
            ..OptOptions::all()
        };
        let (hz, counters, lowering_ms) = measure_threaded_config(&design.graph, opts, cfg.cycles);
        if rows.is_empty() {
            interp_hz = hz;
        }
        rows.push(ThreadedRow {
            label: label.to_string(),
            hz,
            speedup: hz / interp_hz.max(1e-12),
            lowering_ms,
            counters,
        });
    }
    rows
}

/// Prints the threaded-backend rows.
pub fn print_threaded(design: &str, rows: &[ThreadedRow]) {
    println!("Threaded-code backend on {design} (dispatch workload): speed and cold start");
    println!(
        "{:<22} {:>16} {:>9} {:>12} {:>14}",
        "config", "speed (cyc/s)", "speedup", "instrs/cyc", "lowering (ms)"
    );
    for r in rows {
        println!(
            "{:<22} {:>16} {:>8.2}x {:>12.1} {:>14.2}",
            r.label,
            format!("{:.0}", r.hz),
            r.speedup,
            r.counters.instrs_per_cycle(),
            r.lowering_ms
        );
    }
}

// ------------------------------------------------------- AoT backend

/// One design's ahead-of-time compilation + execution measurement
/// (paper Table IV shape: emission/compile resources, plus compiled
/// vs interpreted cycles/s).
#[derive(Debug)]
pub struct AotRow {
    /// Design name.
    pub design: &'static str,
    /// Rust-source emission time (seconds).
    pub emit_s: f64,
    /// `rustc -O` time (seconds).
    pub rustc_s: f64,
    /// Emitted source bytes.
    pub code_bytes: usize,
    /// Native binary bytes.
    pub binary_bytes: u64,
    /// Simulated-state bytes (shared layout with the C++ emitter).
    pub data_bytes: usize,
    /// Compiled-binary speed (cycles/s, self-reported cycle loop).
    pub aot_hz: f64,
    /// Interpreter (GSIM preset) speed on the same stimulus.
    pub interp_hz: f64,
    /// `aot_hz / interp_hz`.
    pub speedup: f64,
}

/// Per-cycle stimulus frames for the AoT/interpreter comparison:
/// a reset pulse, then the low-activity profile on the `op_in_*`
/// lanes (synthetic cores) or held-zero inputs (stuCore, whose work
/// comes from the loaded program).
fn aot_frames(graph: &gsim_graph::Graph, cycles: u64) -> Vec<Vec<(String, u64)>> {
    let lanes: Vec<String> = graph
        .inputs()
        .iter()
        .map(|&i| graph.node(i).name.clone())
        .filter(|n| n.starts_with("op_in_"))
        .collect();
    let mut stim = low_activity_profile().stimulus(lanes.len().max(1), 0xBEEF);
    (0..cycles)
        .map(|c| {
            let mut frame: Vec<(String, u64)> = vec![("reset".into(), u64::from(c < 2))];
            let ops = stim.next_cycle();
            for (name, &v) in lanes.iter().zip(&ops) {
                frame.push((name.clone(), v));
            }
            frame
        })
        .collect()
}

/// AoT backend measurement on `designs` (emit → `rustc -O` → run vs
/// the interpreter on identical stimulus). Returns an empty vector
/// when the host has no `rustc`.
pub fn aot(suite: &[SuiteDesign], cfg: &Config) -> Vec<AotRow> {
    if !gsim_codegen::rustc_available() {
        eprintln!("# aot: rustc unavailable on this host, skipping");
        return Vec::new();
    }
    // stuCore (real CPU running a real program) plus the smallest
    // synthetic core — rustc -O on the larger stand-ins would dominate
    // the whole repro run.
    let picks: Vec<&SuiteDesign> = suite
        .iter()
        .filter(|d| d.name == "stuCore" || d.name == "Rocket")
        .collect();
    let mut rows = Vec::new();
    for d in picks {
        let cycles = cfg.cycles;
        let frames = aot_frames(&d.graph, cycles);
        let loads: Vec<(String, Vec<u64>)> = if d.name == "stuCore" {
            vec![("imem".into(), programs::coremark_mini(20).image)]
        } else {
            Vec::new()
        };
        // Compiled binary.
        let (aot_sim, report) = match Compiler::new(&d.graph).preset(Preset::Gsim).build_aot() {
            Ok(x) => x,
            Err(e) => {
                eprintln!("# aot: {} failed to build: {e}", d.name);
                continue;
            }
        };
        let stim = gsim::Scenario {
            loads: loads.clone(),
            frames: frames.clone(),
        };
        let run = match aot_sim.run(cycles, &stim, false) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("# aot: {} failed to run: {e}", d.name);
                continue;
            }
        };
        let aot_hz = cycles as f64 / run.run_seconds.max(1e-12);
        // Interpreter on the same stimulus, through the same facade.
        let (mut interp, _) = Compiler::new(&d.graph)
            .preset(Preset::Gsim)
            .build()
            .expect("interpreter compiles");
        for (mem, image) in &loads {
            interp.load_mem(mem, image).expect("mem loads");
        }
        let handles: Vec<(usize, gsim::InputHandle)> = frames
            .first()
            .map(|f| {
                f.iter()
                    .enumerate()
                    .filter_map(|(i, (name, _))| interp.input_handle(name).map(|h| (i, h)))
                    .collect()
            })
            .unwrap_or_default();
        let start = std::time::Instant::now();
        interp.run_driven(cycles, |c, frame| {
            if let Some(row) = frames.get(c as usize) {
                for &(i, h) in &handles {
                    frame.set(h, row[i].1);
                }
            }
        });
        let interp_hz = cycles as f64 / start.elapsed().as_secs_f64().max(1e-12);
        rows.push(AotRow {
            design: d.name,
            emit_s: report.emit_time.as_secs_f64(),
            rustc_s: report.rustc_time.as_secs_f64(),
            code_bytes: report.code_bytes,
            binary_bytes: report.binary_bytes,
            data_bytes: report.data_bytes,
            aot_hz,
            interp_hz,
            speedup: aot_hz / interp_hz.max(1e-12),
        });
    }
    rows
}

/// Prints the AoT rows.
pub fn print_aot(rows: &[AotRow]) {
    println!("AoT backend: emit -> rustc -O -> run, vs the interpreter (GSIM preset)");
    if rows.is_empty() {
        println!("  (skipped: rustc unavailable)");
        return;
    }
    println!(
        "{:<10} {:>9} {:>9} {:>10} {:>10} {:>10} {:>14} {:>14} {:>9}",
        "Design",
        "emit (s)",
        "rustc (s)",
        "code",
        "binary",
        "data",
        "aot (cyc/s)",
        "interp",
        "speedup"
    );
    for r in rows {
        println!(
            "{:<10} {:>9.3} {:>9.2} {:>10} {:>10} {:>10} {:>14} {:>14} {:>8.2}x",
            r.design,
            r.emit_s,
            r.rustc_s,
            format_bytes(r.code_bytes),
            format_bytes(r.binary_bytes as usize),
            format_bytes(r.data_bytes),
            format!("{:.0}", r.aot_hz),
            format!("{:.0}", r.interp_hz),
            r.speedup
        );
    }
}

// ------------------------------------------------- persistent session

/// One design's persistent-session amortization measurement: the same
/// interactive poke/step workload through (a) one resident compiled
/// process speaking the `Session` wire protocol, (b) one
/// `AotSim::run` process respawn per step — the only way the batch
/// API could serve reactive stimulus — and (c) the interpreter
/// session, all through the same `&mut dyn Session` trait where
/// applicable.
#[derive(Debug)]
pub struct SessionRow {
    /// Design name.
    pub design: &'static str,
    /// Poke/step iterations in the workload.
    pub steps: u64,
    /// Wall-clock seconds for the persistent AoT session.
    pub persistent_s: f64,
    /// Steps/second through the persistent session.
    pub persistent_hz: f64,
    /// Wall-clock seconds for one process respawn per step. This is a
    /// *lower bound* on the real batch-API cost: each respawned run
    /// restarts from cycle 0, so faithfully reproducing step `i`'s
    /// state would additionally replay `i` cycles (quadratic).
    pub respawn_s: f64,
    /// Steps/second under per-step respawn.
    pub respawn_hz: f64,
    /// Steps/second through the interpreter (GSIM preset) session on
    /// the identical workload, for scale.
    pub interp_hz: f64,
    /// `persistent_hz / respawn_hz` — what keeping the process
    /// resident buys.
    pub speedup: f64,
}

/// Runs the interactive poke/step workload against one session.
fn drive_session_workload(s: &mut dyn gsim::Session, steps: u64) {
    for i in 0..steps {
        s.poke_u64("reset", u64::from(i < 2)).expect("poke reset");
        s.step(1).expect("step");
    }
    let _ = s.peek_u64("halt");
}

/// Persistent-session amortization on stuCore: a 1k-step (capped by
/// `--cycles`) interactive poke/step workload, persistent session vs
/// per-step process respawn. Returns an empty vector when the host
/// has no `rustc`.
pub fn session_amortization(suite: &[SuiteDesign], cfg: &Config) -> Vec<SessionRow> {
    if !gsim_codegen::rustc_available() {
        eprintln!("# session: rustc unavailable on this host, skipping");
        return Vec::new();
    }
    let Some(d) = suite.iter().find(|d| d.name == "stuCore") else {
        return Vec::new();
    };
    let steps = cfg.cycles.clamp(16, 1_000);
    let image = programs::coremark_mini(20).image;
    let loads = vec![("imem".to_string(), image.clone())];
    let (aot_sim, _) = match Compiler::new(&d.graph).preset(Preset::Gsim).build_aot() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("# session: {} failed to build: {e}", d.name);
            return Vec::new();
        }
    };
    // (a) One resident compiled process for the whole workload.
    let mut session = aot_sim.session().expect("spawn server");
    session.load_mem("imem", &image).expect("load imem");
    let t0 = std::time::Instant::now();
    drive_session_workload(&mut session, steps);
    let persistent_s = t0.elapsed().as_secs_f64();
    drop(session);
    // (b) The pre-session way: one `AotSim::run` per step, each a
    // fresh process + stimulus file + report parse.
    let t1 = std::time::Instant::now();
    for i in 0..steps {
        let stim = gsim::Scenario {
            loads: loads.clone(),
            frames: vec![vec![("reset".to_string(), u64::from(i < 2))]],
        };
        aot_sim.run(1, &stim, false).expect("respawned run");
    }
    let respawn_s = t1.elapsed().as_secs_f64();
    // (c) The interpreter session on the identical workload.
    let mut interp = Compiler::new(&d.graph)
        .preset(Preset::Gsim)
        .build_session(EngineChoice::Essential)
        .expect("interpreter session");
    interp.load_mem("imem", &image).expect("load imem");
    let t2 = std::time::Instant::now();
    drive_session_workload(interp.as_mut(), steps);
    let interp_s = t2.elapsed().as_secs_f64();
    let hz = |s: f64| steps as f64 / s.max(1e-12);
    vec![SessionRow {
        design: d.name,
        steps,
        persistent_s,
        persistent_hz: hz(persistent_s),
        respawn_s,
        respawn_hz: hz(respawn_s),
        interp_hz: hz(interp_s),
        speedup: respawn_s.max(1e-12) / persistent_s.max(1e-12),
    }]
}

/// Prints the session-amortization rows.
pub fn print_session(rows: &[SessionRow]) {
    println!("Persistent AoT session vs per-step process respawn (interactive poke/step workload)");
    if rows.is_empty() {
        println!("  (skipped: rustc unavailable)");
        return;
    }
    println!(
        "{:<10} {:>7} {:>14} {:>14} {:>14} {:>9}",
        "Design", "steps", "persist (st/s)", "respawn (st/s)", "interp (st/s)", "speedup"
    );
    for r in rows {
        println!(
            "{:<10} {:>7} {:>14} {:>14} {:>14} {:>8.1}x",
            r.design,
            r.steps,
            format!("{:.0}", r.persistent_hz),
            format!("{:.0}", r.respawn_hz),
            format!("{:.0}", r.interp_hz),
            r.speedup
        );
    }
}

// ------------------------------------------------- simulation service

/// The multi-tenant service measurement: cold-vs-warm cache session
/// startup, sessions/sec, and step-latency percentiles at
/// [`ServiceRow::clients`] concurrent remote sessions.
#[derive(Debug)]
pub struct ServiceRow {
    /// Design name (the service bench's synthetic pipeline).
    pub design: &'static str,
    /// Concurrent client sessions in the throughput phase.
    pub clients: usize,
    /// Cycles each client steps its session.
    pub steps: u64,
    /// First-session startup: `design` upload → `ready`, paying
    /// `rustc` through the artifact cache (a cache miss).
    pub cold_open_s: f64,
    /// Warm startup: the same design again — a cache hit, no `rustc`.
    pub warm_open_s: f64,
    /// `cold_open_s / warm_open_s` — what the artifact cache buys.
    pub warm_speedup: f64,
    /// Complete session lifecycles (connect → design → run → close)
    /// per second with all clients concurrent on the warm cache.
    pub sessions_per_sec: f64,
    /// Median single-`step` round-trip latency, microseconds.
    pub p50_step_us: f64,
    /// 99th-percentile single-`step` round-trip latency, microseconds.
    pub p99_step_us: f64,
    /// Artifact-cache hits over the whole measurement.
    pub hits: u64,
    /// Artifact-cache misses.
    pub misses: u64,
    /// Actual `rustc` invocations (the tentpole claim: 1).
    pub compiles: u64,
    /// LRU evictions (0 at this working-set size).
    pub evictions: u64,
}

/// The service bench's design, as FIRRTL *text* (the wire protocol's
/// `design` payload): a 16-stage 32-bit accumulate pipeline — small
/// enough to compile in seconds, deep enough that a `step` does real
/// work.
fn service_design() -> String {
    let stages = 16;
    let mut s = String::new();
    s.push_str("circuit SvcPipe :\n  module SvcPipe :\n");
    s.push_str("    input clock : Clock\n    input reset : UInt<1>\n");
    s.push_str("    input din : UInt<32>\n    output out : UInt<32>\n");
    for i in 0..stages {
        s.push_str(&format!(
            "    reg r{i} : UInt<32>, clock with : (reset => (reset, UInt<32>(0)))\n"
        ));
    }
    s.push_str("    r0 <= tail(add(din, UInt<32>(1)), 1)\n");
    for i in 1..stages {
        s.push_str(&format!(
            "    r{i} <= tail(add(r{}, UInt<32>({i})), 1)\n",
            i - 1
        ));
    }
    s.push_str(&format!("    out <= r{}\n", stages - 1));
    s
}

/// The `service` experiment: start a real [`gsim::Server`] on a
/// loopback socket, measure cold-vs-warm session startup through the
/// artifact cache, step-latency percentiles, and concurrent-session
/// throughput at 16 clients. Returns an empty vector when the host
/// has no `rustc`.
pub fn service(cfg: &Config) -> Vec<ServiceRow> {
    use gsim::{ClientSession, Endpoint, Server, ServerConfig};
    if !gsim_codegen::rustc_available() {
        eprintln!("# service: rustc unavailable on this host, skipping");
        return Vec::new();
    }
    let clients = 16usize;
    let steps = cfg.cycles.clamp(16, 512);
    let cache_dir = std::env::temp_dir().join(format!("gsim_svc_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut server = match Server::start(ServerConfig::new(
        Endpoint::Tcp("127.0.0.1:0".into()),
        &cache_dir,
    )) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("# service: cannot start server: {e}");
            return Vec::new();
        }
    };
    let ep = server.endpoint().clone();
    let src = service_design();

    // Cold startup: the first session for this design pays rustc.
    let t0 = std::time::Instant::now();
    let mut cold = ClientSession::connect(&ep).expect("connect");
    let info = cold.open_design(&src, "aot").expect("cold open");
    let cold_open_s = t0.elapsed().as_secs_f64();
    assert_eq!(info.status, "miss", "first open must compile");
    drop(cold);

    // Warm startup: same design, published artifact, no rustc.
    let t1 = std::time::Instant::now();
    let mut warm = ClientSession::connect(&ep).expect("connect");
    let info = warm.open_design(&src, "aot").expect("warm open");
    let warm_open_s = t1.elapsed().as_secs_f64();
    assert_eq!(info.status, "hit", "second open must hit the cache");

    // Per-step round-trip latency through the warm session.
    let mut lat_us: Vec<f64> = (0..steps)
        .map(|_| {
            let t = std::time::Instant::now();
            warm.step(1).expect("step");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    lat_us.sort_by(f64::total_cmp);
    let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];
    let (p50_step_us, p99_step_us) = (pct(0.50), pct(0.99));
    drop(warm);

    // Concurrent warm lifecycles: connect → design → run → close.
    let t2 = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut c = ClientSession::connect(&ep).expect("connect");
                let info = c.open_design(&src, "aot").expect("open");
                assert_eq!(info.status, "hit", "concurrent opens ride the cache");
                c.step(steps).expect("run");
                c.peek("out").expect("peek");
            });
        }
    });
    let concurrent_s = t2.elapsed().as_secs_f64();

    let stats = server.stats();
    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
    vec![ServiceRow {
        design: "SvcPipe",
        clients,
        steps,
        cold_open_s,
        warm_open_s,
        warm_speedup: cold_open_s / warm_open_s.max(1e-9),
        sessions_per_sec: clients as f64 / concurrent_s.max(1e-12),
        p50_step_us,
        p99_step_us,
        hits: stats.cache.hits,
        misses: stats.cache.misses,
        compiles: stats.cache.compiles,
        evictions: stats.cache.evictions,
    }]
}

/// Prints the service rows.
pub fn print_service(rows: &[ServiceRow]) {
    println!("Simulation service: cold vs warm session startup, concurrent throughput");
    if rows.is_empty() {
        println!("  (skipped: rustc unavailable)");
        return;
    }
    println!(
        "{:<8} {:>7} {:>10} {:>10} {:>9} {:>10} {:>9} {:>9} {:>16}",
        "Design",
        "clients",
        "cold (s)",
        "warm (s)",
        "speedup",
        "sess/s",
        "p50 (us)",
        "p99 (us)",
        "hit/miss/compile"
    );
    for r in rows {
        println!(
            "{:<8} {:>7} {:>10.3} {:>10.4} {:>8.0}x {:>10.1} {:>9.1} {:>9.1} {:>16}",
            r.design,
            r.clients,
            r.cold_open_s,
            r.warm_open_s,
            r.warm_speedup,
            r.sessions_per_sec,
            r.p50_step_us,
            r.p99_step_us,
            format!("{}/{}/{}", r.hits, r.misses, r.compiles)
        );
    }
}

// ------------------------------------------------- crash recovery

/// The fault-tolerance measurement: kill the AoT child mid-run under
/// a [`gsim::SupervisedSession`], and record how long detection,
/// respawn, checkpoint restore, and journal replay took — plus
/// whether the recovered run ended bit-identical to an uninterrupted
/// one (the property the chaos tests pin; here it is *measured* so a
/// regression shows up in the committed baseline).
#[derive(Debug)]
pub struct RecoveryRow {
    /// Design name.
    pub design: &'static str,
    /// Cycles driven end to end.
    pub cycles: u64,
    /// Cycle after which the child was killed (injected fault).
    pub kill_at: u64,
    /// Seconds from the kill to the supervisor noticing (the failed
    /// operation's latency).
    pub detect_s: f64,
    /// Seconds to respawn the compiled child process.
    pub respawn_s: f64,
    /// Seconds to import the last checkpoint into the fresh child.
    pub restore_s: f64,
    /// Seconds to replay the journaled commands since the checkpoint.
    pub replay_s: f64,
    /// Cycles re-executed during replay (bounded by the checkpoint
    /// cadence).
    pub replayed_cycles: u64,
    /// Detect + respawn + restore + replay.
    pub total_s: f64,
    /// Recoveries performed (1 for this experiment's single kill).
    pub recoveries: u64,
    /// `true` when every signal and every semantic counter of the
    /// recovered run matched the uninterrupted reference exactly.
    pub bit_identical: bool,
}

/// The recovery workload: reset for two cycles, then free-run (inputs
/// hold their last driven values).
fn recovery_scenario() -> gsim::Scenario {
    gsim::Scenario::new()
        .frame(&[("reset", 1)])
        .repeat(1)
        .frame(&[("reset", 0)])
}

/// The `recovery` experiment: run stuCore's AoT session once clean
/// and once under a [`gsim::SupervisedSession`] with the child killed
/// mid-run, and compare the end states. Returns an empty vector when
/// the host has no `rustc`.
pub fn recovery(suite: &[SuiteDesign], cfg: &Config) -> Vec<RecoveryRow> {
    use gsim::{FaultPlan, SessionFactory, SuperviseOptions, SupervisedSession};
    if !gsim_codegen::rustc_available() {
        eprintln!("# recovery: rustc unavailable on this host, skipping");
        return Vec::new();
    }
    let Some(d) = suite.iter().find(|d| d.name == "stuCore") else {
        return Vec::new();
    };
    let cycles = cfg.cycles.clamp(64, 1_000);
    // Off the checkpoint cadence (64) on purpose, so the journal-replay
    // leg of recovery is actually exercised and measured.
    let kill_at = cycles / 2 + 29;
    let image = programs::coremark_mini(20).image;
    let (aot_sim, _) = match Compiler::new(&d.graph).preset(Preset::Gsim).build_aot() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("# recovery: {} failed to build: {e}", d.name);
            return Vec::new();
        }
    };

    // Uninterrupted reference run.
    let mut clean = aot_sim.session().expect("spawn reference session");
    clean.load_mem("imem", &image).expect("load imem");
    recovery_scenario()
        .run_for(&mut clean, cycles)
        .expect("reference run");
    let signals = clean.signals().expect("list signals");
    let reference: Vec<(String, String)> = signals
        .iter()
        .map(|s| {
            let v = clean.peek(&s.name).expect("reference peek");
            (s.name.clone(), format!("{v:x}"))
        })
        .collect();
    let reference_counters = clean.counters().expect("reference counters");
    drop(clean);

    // Supervised run with the child killed after `kill_at` cycles.
    // The fault applies to the first spawn only, so the respawned
    // child survives to the end.
    let plan = FaultPlan {
        kill_child_at_cycle: Some(kill_at),
        ..FaultPlan::default()
    };
    let mut first_spawn = true;
    let factory: SessionFactory = Box::new(move || {
        let p = if first_spawn {
            plan.clone()
        } else {
            FaultPlan::default()
        };
        first_spawn = false;
        let sess = aot_sim.session_with(None, &p)?;
        Ok(Box::new(sess) as Box<dyn Session>)
    });
    let opts = SuperviseOptions {
        checkpoint_every: 64,
        max_recoveries: 3,
    };
    let mut sup = SupervisedSession::new(factory, opts).expect("supervised session");
    sup.load_mem("imem", &image).expect("load imem");
    // Drive in 16-cycle bursts (the interactive pattern): completed
    // bursts accumulate in the journal between checkpoints, so the
    // mid-burst kill exercises checkpoint import *and* journal replay.
    let mut left = cycles;
    let mut first_burst = true;
    while left > 0 {
        let burst = left.min(16);
        // The reset frames land in the first burst; later bursts run
        // with inputs held, which is what the closure drove too.
        let stim = if first_burst {
            recovery_scenario()
        } else {
            gsim::Scenario::new()
        };
        first_burst = false;
        stim.run_for(&mut sup, burst)
            .expect("supervised run must recover");
        left -= burst;
    }
    let recoveries = u64::from(sup.recoveries());
    let stats = sup
        .last_recovery()
        .expect("the injected kill must have triggered a recovery")
        .clone();
    let mut bit_identical = sup.counters().expect("recovered counters") == reference_counters;
    for (name, want) in &reference {
        let got = format!("{:x}", sup.peek(name).expect("recovered peek"));
        if got != *want {
            bit_identical = false;
        }
    }

    vec![RecoveryRow {
        design: d.name,
        cycles,
        kill_at,
        detect_s: stats.detect_s,
        respawn_s: stats.respawn_s,
        restore_s: stats.restore_s,
        replay_s: stats.replay_s,
        replayed_cycles: stats.replayed_cycles,
        total_s: stats.detect_s + stats.total_s(),
        recoveries,
        bit_identical,
    }]
}

/// Prints the recovery rows.
pub fn print_recovery(rows: &[RecoveryRow]) {
    println!("Crash recovery: kill the AoT child mid-run, respawn + replay under supervision");
    if rows.is_empty() {
        println!("  (skipped: rustc unavailable)");
        return;
    }
    println!(
        "{:<10} {:>7} {:>8} {:>10} {:>10} {:>10} {:>10} {:>8} {:>10} {:>10}",
        "Design",
        "cycles",
        "kill@",
        "detect(s)",
        "respawn(s)",
        "restore(s)",
        "replay(s)",
        "replayed",
        "total(s)",
        "identical"
    );
    for r in rows {
        println!(
            "{:<10} {:>7} {:>8} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>8} {:>10.4} {:>10}",
            r.design,
            r.cycles,
            r.kill_at,
            r.detect_s,
            r.respawn_s,
            r.restore_s,
            r.replay_s,
            r.replayed_cycles,
            r.total_s,
            r.bit_identical
        );
    }
}

// ------------------------------------------- scenario exploration

/// One backend's scenario-exploration measurement: `branches`
/// perturbed variants of one stimulus fanned out from a single warmed
/// snapshot, against the cost of opening a cold session per branch.
#[derive(Debug)]
pub struct ExploreRow {
    /// Design name.
    pub design: &'static str,
    /// Backend explored (`interp`, `jit`, or `aot`).
    pub backend: &'static str,
    /// Branches explored.
    pub branches: usize,
    /// Cycles each branch ran past the fork point.
    pub cycles: u64,
    /// Warm-up cycles before the shared snapshot.
    pub warmup: u64,
    /// Wall seconds for the whole exploration.
    pub explore_s: f64,
    /// Branches completed per second.
    pub branches_per_s: f64,
    /// Average seconds per branch (`explore_s / branches`).
    pub branch_s: f64,
    /// Seconds to open + warm a cold session of this backend — what
    /// every branch would pay without fork (includes the one `rustc`
    /// on the aot row).
    pub cold_open_s: f64,
    /// `(cold_open_s + branch_s) / branch_s`: per-branch speedup over
    /// the open-a-cold-session-per-branch alternative.
    pub speedup_vs_cold: f64,
    /// Host-compiler (`rustc`) invocations the whole exploration
    /// needed: 1 on the aot row (the pool is forked siblings of one
    /// compiled binary), 0 on the in-process rows.
    pub compiles: u64,
    /// Worker threads the explorer used.
    pub workers: usize,
    /// Pool sessions obtained by forking the warmed core.
    pub forks: usize,
    /// Pool sessions obtained from the recovery factory.
    pub recoveries: usize,
    /// Fatal-error branch retries (normally 0).
    pub retries: u64,
    /// `true` when every branch's end-state peeks matched a
    /// sequential replay on the reference interpreter exactly.
    pub bit_identical: bool,
    /// Memory-arena bytes the interp core's snapshot privately owned
    /// after the run (copy-on-write; 0 until something writes a
    /// shared arena). Interp row only.
    pub snapshot_owned_bytes: usize,
    /// Memory-arena bytes an eager deep-copy snapshot would have
    /// duplicated. Interp row only.
    pub snapshot_deep_bytes: usize,
}

/// The `explore` experiment: on stuCore (a real CPU with a loaded
/// program image), measure snapshot-fork exploration on every backend
/// and check each branch against a sequential replay on the reference
/// interpreter. Backends that need `rustc` are skipped when the host
/// has none.
pub fn explore(suite: &[SuiteDesign], cfg: &Config) -> Vec<ExploreRow> {
    let Some(d) = suite.iter().find(|d| d.name == "stuCore") else {
        return Vec::new();
    };
    let branches = 8usize;
    let cycles = cfg.cycles.clamp(16, 256);
    let warmup = 8u64;
    let image = programs::coremark_mini(20).image;
    let warm = gsim::Scenario::new()
        .frame(&[("reset", 1)])
        .repeat(1)
        .frame(&[("reset", 0)]);
    let base = gsim::Scenario {
        loads: Vec::new(),
        frames: aot_frames(&d.graph, cycles),
    };
    let watch: Vec<String> = d
        .graph
        .outputs()
        .iter()
        .map(|&o| d.graph.display_name(o))
        .collect();

    // The bit-identity oracle: branch i replayed sequentially on a
    // cold reference interpreter (unoptimized full-cycle preset).
    let reference: Vec<Vec<(String, gsim::Value)>> = (0..branches)
        .map(|i| {
            let (mut r, _) = Compiler::new(&d.graph)
                .preset(Preset::Verilator)
                .build()
                .expect("reference interpreter compiles");
            r.load_mem("imem", &image).expect("load imem");
            warm.run_for(&mut r, warmup).expect("reference warmup");
            base.perturb(i as u64)
                .run_for(&mut r, cycles)
                .expect("reference branch");
            watch
                .iter()
                .map(|n| (n.clone(), Session::peek(&mut r, n).expect("reference peek")))
                .collect()
        })
        .collect();

    let mut rows = Vec::new();
    for (backend, engine) in [
        ("interp", EngineChoice::Essential),
        ("jit", EngineChoice::Threaded),
        ("aot", EngineChoice::Aot),
    ] {
        if engine == EngineChoice::Aot && !gsim_codegen::rustc_available() {
            eprintln!("# explore: rustc unavailable on this host, skipping aot");
            continue;
        }
        // Cold open: build + load + warm — the per-branch price of
        // not forking (the aot row pays its single rustc here).
        let t0 = std::time::Instant::now();
        let mut session = match Compiler::new(&d.graph)
            .preset(Preset::Gsim)
            .build_session(engine)
        {
            Ok(s) => s,
            Err(e) => {
                eprintln!("# explore: {backend} failed to build: {e}");
                continue;
            }
        };
        session.load_mem("imem", &image).expect("load imem");
        warm.run_for(session.as_mut(), warmup).expect("warmup");
        let cold_open_s = t0.elapsed().as_secs_f64();

        let opts = gsim::ExploreOptions {
            watch: watch.clone(),
            ..gsim::ExploreOptions::default()
        };
        let t1 = std::time::Instant::now();
        let report = gsim::Explorer::new(session.as_mut())
            .options(opts)
            .run(&base, branches, None)
            .expect("exploration succeeds");
        let explore_s = t1.elapsed().as_secs_f64();
        let branch_s = explore_s / branches as f64;

        let mut bit_identical = report.branches.len() == branches;
        for b in &report.branches {
            if b.cycle != warmup + cycles || b.peeks != reference[b.index] {
                bit_identical = false;
            }
        }

        // Copy-on-write accounting, on a concrete interpreter core:
        // snapshot, write-heavy run, then ask what the snapshot
        // privately owns vs what a deep clone would have copied.
        let (snapshot_owned_bytes, snapshot_deep_bytes) = if backend == "interp" {
            let (mut sim, _) = Compiler::new(&d.graph)
                .preset(Preset::Gsim)
                .build()
                .expect("interp core compiles");
            sim.load_mem("imem", &image).expect("load imem");
            warm.run_for(&mut sim, warmup).expect("warmup");
            sim.take_snapshot();
            base.run_for(&mut sim, cycles).expect("post-snapshot run");
            sim.snapshot_mem_bytes()
        } else {
            (0, 0)
        };

        rows.push(ExploreRow {
            design: d.name,
            backend,
            branches: report.branches.len(),
            cycles,
            warmup,
            explore_s,
            branches_per_s: report.branches.len() as f64 / explore_s.max(1e-12),
            branch_s,
            cold_open_s,
            speedup_vs_cold: (cold_open_s + branch_s) / branch_s.max(1e-12),
            compiles: u64::from(engine == EngineChoice::Aot),
            workers: report.workers,
            forks: report.forks,
            recoveries: report.recoveries,
            retries: report.total_retries(),
            bit_identical,
            snapshot_owned_bytes,
            snapshot_deep_bytes,
        });
    }
    rows
}

/// Prints the exploration rows.
pub fn print_explore(rows: &[ExploreRow]) {
    println!("Scenario exploration: N branches from one warmed snapshot vs a cold session each");
    if rows.is_empty() {
        println!("  (skipped: suite has no stuCore)");
        return;
    }
    println!(
        "{:<10} {:<7} {:>8} {:>7} {:>10} {:>12} {:>9} {:>8} {:>6} {:>6} {:>8} {:>10}",
        "Design",
        "backend",
        "branches",
        "cycles",
        "branch(s)",
        "cold-open(s)",
        "speedup",
        "compiles",
        "forks",
        "recov",
        "retries",
        "identical"
    );
    for r in rows {
        println!(
            "{:<10} {:<7} {:>8} {:>7} {:>10.4} {:>12.4} {:>8.1}x {:>8} {:>6} {:>6} {:>8} {:>10}",
            r.design,
            r.backend,
            r.branches,
            r.cycles,
            r.branch_s,
            r.cold_open_s,
            r.speedup_vs_cold,
            r.compiles,
            r.forks,
            r.recoveries,
            r.retries,
            r.bit_identical
        );
        if r.backend == "interp" {
            println!(
                "  snapshot mem arenas: {} B owned (copy-on-write) of {} B a deep clone would copy",
                r.snapshot_owned_bytes, r.snapshot_deep_bytes
            );
        }
    }
}

// ------------------------------------------------- waveform capture

/// One tracing configuration of the waveform-overhead experiment:
/// the same design and stimulus with tracing off, tracing a signal
/// subset (the design's outputs), and tracing everything.
#[derive(Debug)]
pub struct WaveRow {
    /// Design name.
    pub design: &'static str,
    /// Tracing mode: `off`, `subset`, or `full`.
    pub mode: &'static str,
    /// Signals captured by the tracer (0 when off).
    pub signals: usize,
    /// Cycles measured.
    pub cycles: u64,
    /// Simulation speed in cycles per second.
    pub hz: f64,
    /// `hz / off_hz` — the fraction of untraced speed this mode
    /// keeps (1.0 on the off row by definition).
    pub relative: f64,
    /// VCD bytes emitted over the measured cycles (0 when off).
    pub vcd_bytes: u64,
    /// `vcd_bytes / cycles`.
    pub bytes_per_cycle: f64,
}

/// Measures one tracing mode: the dispatch workload with an optional
/// change-driven VCD capture into a byte-counting sink (the bytes are
/// counted, not kept, so the sink cost is the stream-encoding cost,
/// not an allocator benchmark).
fn measure_wave_mode(
    graph: &Graph,
    cycles: u64,
    select: Option<&[String]>,
    traced: bool,
) -> (f64, u64, usize) {
    let (mut sim, _) = Compiler::new(graph)
        .preset(Preset::Gsim)
        .build()
        .expect("compiles");
    let handles: Vec<_> = (0..64)
        .map_while(|l| sim.input_handle(&format!("op_in_{l}")))
        .collect();
    let mut stim = low_activity_profile().stimulus(handles.len().max(1), 0xDEC0DE);
    sim.poke_u64("reset", 1).ok();
    sim.run(2);
    sim.poke_u64("reset", 0).ok();
    sim.run_driven(crate::harness::WARMUP_CYCLES.min(cycles), |_, frame| {
        let ops = stim.next_cycle();
        for (h, &op) in handles.iter().zip(&ops) {
            frame.set(*h, op);
        }
    });
    let counter = gsim_wave::CountingWriter::new();
    let mut signals = 0;
    if traced {
        sim.trace_start(select, Box::new(gsim_wave::VcdWriter::new(counter.clone())))
            .expect("trace_start");
        signals = match select {
            Some(names) => names.len(),
            None => Session::signals(&mut sim)
                .expect("signals")
                .iter()
                .filter(|s| s.width > 0)
                .count(),
        };
    }
    let start = std::time::Instant::now();
    sim.run_driven(cycles, |_, frame| {
        let ops = stim.next_cycle();
        for (h, &op) in handles.iter().zip(&ops) {
            frame.set(*h, op);
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    if traced {
        Session::trace_stop(&mut sim).expect("trace_stop");
    }
    (cycles as f64 / seconds.max(1e-12), counter.bytes(), signals)
}

/// The `wave` experiment: tracing overhead on the dispatch workload —
/// off (the zero-cost-when-off claim: the tracer is compiled out of
/// the hot loop, so this row must track the dispatch experiment's
/// untraced speed), the design's outputs only, and a full trace of
/// every named signal, each with VCD bytes per cycle.
pub fn wave(design: &SuiteDesign, cfg: &Config) -> Vec<WaveRow> {
    let outputs: Vec<String> = design
        .graph
        .outputs()
        .iter()
        .map(|&o| design.graph.display_name(o))
        .collect();
    let modes: [(&'static str, Option<&[String]>, bool); 3] = [
        ("off", None, false),
        ("subset", Some(&outputs), true),
        ("full", None, true),
    ];
    let mut rows: Vec<WaveRow> = Vec::new();
    let mut off_hz = 0.0;
    for (mode, select, traced) in modes {
        let (hz, vcd_bytes, signals) = measure_wave_mode(&design.graph, cfg.cycles, select, traced);
        if rows.is_empty() {
            off_hz = hz;
        }
        rows.push(WaveRow {
            design: design.name,
            mode,
            signals,
            cycles: cfg.cycles,
            hz,
            relative: hz / off_hz.max(1e-12),
            vcd_bytes,
            bytes_per_cycle: vcd_bytes as f64 / cfg.cycles.max(1) as f64,
        });
    }
    rows
}

/// Prints the waveform-overhead rows.
pub fn print_wave(design: &str, rows: &[WaveRow]) {
    println!("Waveform capture on {design} (dispatch workload): change-driven VCD overhead");
    println!(
        "{:<8} {:>8} {:>16} {:>9} {:>12} {:>12}",
        "mode", "signals", "speed (cyc/s)", "relative", "VCD bytes", "bytes/cyc"
    );
    for r in rows {
        println!(
            "{:<8} {:>8} {:>16} {:>9} {:>12} {:>12.1}",
            r.mode,
            r.signals,
            format!("{:.0}", r.hz),
            format!("{:.2}x", r.relative),
            r.vcd_bytes,
            r.bytes_per_cycle
        );
    }
}

/// Logical cores of the measurement host — recorded into
/// `BENCH_interp.json` so thread-scaling rows can be judged (an
/// `FullCycleMt` "slowdown" on a 1-core host measures barrier
/// overhead, not the engine).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

// --------------------------------------------------------------- Figure 6

/// One cell of Figure 6: a simulator's speedup on a design/workload.
#[derive(Debug)]
pub struct Fig6Row {
    /// Design name.
    pub design: &'static str,
    /// Workload name.
    pub workload: String,
    /// (simulator label, speedup vs Verilator-1T) pairs.
    pub speedups: Vec<(String, f64)>,
}

/// Figure 6: overall performance of every simulator vs Verilator-1T.
pub fn fig6(suite: &[SuiteDesign], cfg: &Config) -> Vec<Fig6Row> {
    let mut rows = Vec::new();
    for d in suite {
        for wl in main_workloads(d) {
            let base = measure_preset(&d.graph, Preset::Verilator, &wl, cfg.cycles);
            let mut speedups = Vec::new();
            for t in MT_THREADS {
                let s = measure_preset(&d.graph, Preset::VerilatorMt(t), &wl, cfg.cycles);
                speedups.push((format!("Verilator-{t}T"), s.hz / base.hz));
            }
            for preset in [Preset::Essent, Preset::Arcilator, Preset::Gsim] {
                let s = measure_preset(&d.graph, preset, &wl, cfg.cycles);
                speedups.push((preset.name(), s.hz / base.hz));
            }
            rows.push(Fig6Row {
                design: d.name,
                workload: wl.name().to_string(),
                speedups,
            });
        }
    }
    rows
}

/// Prints Figure 6.
pub fn print_fig6(rows: &[Fig6Row]) {
    println!("Figure 6: speedup over single-threaded Verilator-like baseline");
    for r in rows {
        println!("\n[{} / {}]", r.design, r.workload);
        for (sim, x) in &r.speedups {
            println!("  {sim:<16} {x:>7.2}x  {}", bar(*x, 4.0));
        }
    }
}

// --------------------------------------------------------------- Figure 7

/// One SPEC checkpoint's result.
#[derive(Debug)]
pub struct Fig7Row {
    /// Checkpoint name.
    pub checkpoint: String,
    /// Verilator-4T speedup.
    pub v4: f64,
    /// Verilator-8T speedup.
    pub v8: f64,
    /// GSIM speedup.
    pub gsim: f64,
}

/// Figure 7: SPEC CPU2006 checkpoints on the XiangShan-like core.
pub fn fig7(suite: &[SuiteDesign], cfg: &Config) -> Vec<Fig7Row> {
    let xs = suite
        .iter()
        .find(|d| d.name == "XiangShan")
        .expect("suite contains XiangShan");
    let mut rows = Vec::new();
    for profile in spec_profiles() {
        let wl = WorkloadKind::Stimulus(profile.clone());
        let base = measure_preset(&xs.graph, Preset::Verilator, &wl, cfg.cycles);
        let v4 = measure_preset(&xs.graph, Preset::VerilatorMt(4), &wl, cfg.cycles);
        let v8 = measure_preset(&xs.graph, Preset::VerilatorMt(8), &wl, cfg.cycles);
        let gs = measure_preset(&xs.graph, Preset::Gsim, &wl, cfg.cycles);
        rows.push(Fig7Row {
            checkpoint: profile.name.to_string(),
            v4: v4.hz / base.hz,
            v8: v8.hz / base.hz,
            gsim: gs.hz / base.hz,
        });
    }
    rows
}

/// Geometric mean over the checkpoints of one column.
pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut logsum, mut n) = (0.0, 0usize);
    for v in values {
        logsum += v.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (logsum / n as f64).exp()
}

/// Prints Figure 7.
pub fn print_fig7(rows: &[Fig7Row]) {
    println!("Figure 7: SPEC CPU2006 checkpoints on XiangShan-like core");
    println!(
        "{:<22} {:>12} {:>12} {:>8}",
        "checkpoint", "Verilator-4T", "Verilator-8T", "GSIM"
    );
    for r in rows {
        println!(
            "{:<22} {:>12.2} {:>12.2} {:>8.2}",
            r.checkpoint, r.v4, r.v8, r.gsim
        );
    }
    println!(
        "{:<22} {:>12.2} {:>12.2} {:>8.2}",
        "geometric mean",
        geomean(rows.iter().map(|r| r.v4)),
        geomean(rows.iter().map(|r| r.v8)),
        geomean(rows.iter().map(|r| r.gsim)),
    );
}

// --------------------------------------------------------------- Figure 8

/// One design's per-technique breakdown.
#[derive(Debug)]
pub struct Fig8Row {
    /// Design name.
    pub design: &'static str,
    /// (technique, log10 speedup over the previous step) — entry 0 is
    /// the baseline with absolute Hz in the second field instead.
    pub steps: Vec<(String, f64)>,
    /// Baseline speed (Hz).
    pub baseline_hz: f64,
    /// Final speed (Hz).
    pub final_hz: f64,
}

/// Figure 8: incremental per-technique performance breakdown
/// (CoreMark-like workload, as in the paper's §IV-F methodology).
pub fn fig8(suite: &[SuiteDesign], cfg: &Config) -> Vec<Fig8Row> {
    let mut rows = Vec::new();
    for d in suite {
        let wl = main_workloads(d).remove(1); // CoreMark-like
        let mut prev_hz: Option<f64> = None;
        let mut baseline = 0.0;
        let mut steps = Vec::new();
        let mut last = 0.0;
        for (name, opts) in OptOptions::staircase() {
            let stats = measure_options(&d.graph, opts, &wl, cfg.cycles);
            match prev_hz {
                None => baseline = stats.hz,
                Some(p) => steps.push((name.to_string(), (stats.hz / p).log10())),
            }
            prev_hz = Some(stats.hz);
            last = stats.hz;
        }
        rows.push(Fig8Row {
            design: d.name,
            steps,
            baseline_hz: baseline,
            final_hz: last,
        });
    }
    rows
}

/// Prints Figure 8.
pub fn print_fig8(rows: &[Fig8Row]) {
    println!("Figure 8: per-technique breakdown, log10 incremental speedup");
    for r in rows {
        println!(
            "\n[{}]  baseline {}  ->  full GSIM {}  (total {:.2}x)",
            r.design,
            format_hz(r.baseline_hz),
            format_hz(r.final_hz),
            r.final_hz / r.baseline_hz
        );
        for (name, log) in &r.steps {
            println!("  {name:<34} {log:>+7.3}  {}", bar(log.max(0.0), 0.5));
        }
    }
}

// --------------------------------------------------------------- Figure 9

/// Speed vs maximum supernode size for one design.
#[derive(Debug)]
pub struct Fig9Row {
    /// Design name.
    pub design: &'static str,
    /// (max size, speedup normalized to size 100) pairs.
    pub points: Vec<(usize, f64)>,
}

/// The supernode sizes swept (the paper sweeps 0–400).
pub const FIG9_SIZES: [usize; 11] = [1, 5, 10, 20, 30, 40, 50, 100, 200, 300, 400];

/// Figure 9: performance vs maximum supernode size, everything else
/// enabled. Normalized to size 100 (mid-sweep reference).
pub fn fig9(suite: &[SuiteDesign], cfg: &Config) -> Vec<Fig9Row> {
    let mut rows = Vec::new();
    for d in suite {
        let wl = main_workloads(d).remove(1);
        let hz: Vec<(usize, f64)> = FIG9_SIZES
            .iter()
            .map(|&size| {
                let mut opts = OptOptions::all();
                opts.max_supernode_size = size;
                (size, measure_options(&d.graph, opts, &wl, cfg.cycles).hz)
            })
            .collect();
        let reference = hz
            .iter()
            .find(|(s, _)| *s == 100)
            .map(|(_, h)| *h)
            .unwrap_or(hz[0].1);
        rows.push(Fig9Row {
            design: d.name,
            points: hz.into_iter().map(|(s, h)| (s, h / reference)).collect(),
        });
    }
    rows
}

/// Prints Figure 9.
pub fn print_fig9(rows: &[Fig9Row]) {
    println!("Figure 9: speed vs maximum supernode size (normalized to size 100)");
    print!("{:<12}", "max size");
    for s in FIG9_SIZES {
        print!("{s:>7}");
    }
    println!();
    for r in rows {
        print!("{:<12}", r.design);
        for (_, v) in &r.points {
            print!("{v:>7.2}");
        }
        println!();
    }
}

// --------------------------------------------------------------- Table III

/// One partitioning algorithm's row.
#[derive(Debug)]
pub struct Table3Row {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Partition build time (seconds).
    pub partition_s: f64,
    /// Number of supernodes.
    pub supernodes: usize,
    /// Successor activations per cycle (`Asucc` traffic).
    pub activation_per_cycle: f64,
    /// Nodes evaluated per cycle (`E` traffic).
    pub active_per_cycle: f64,
    /// Simulation speed (Hz).
    pub hz: f64,
}

/// Table III: partitioning algorithms on the BOOM-like core running the
/// CoreMark-like workload, with all other optimizations disabled (the
/// paper's §IV-F methodology).
pub fn table3(suite: &[SuiteDesign], cfg: &Config) -> Vec<Table3Row> {
    let boom = suite
        .iter()
        .find(|d| d.name == "BOOM")
        .expect("suite contains BOOM");
    let wl = WorkloadKind::Stimulus(Profile::coremark());
    [
        ("None", SupernodeChoice::None),
        ("Kernighan", SupernodeChoice::Kernighan),
        ("MFFC-based", SupernodeChoice::Mffc),
        ("GSIM", SupernodeChoice::Gsim),
    ]
    .into_iter()
    .map(|(name, choice)| {
        let mut opts = OptOptions::none();
        opts.supernode = choice;
        let stats = measure_options(&boom.graph, opts, &wl, cfg.cycles);
        let c = stats.counters;
        Table3Row {
            algorithm: name,
            partition_s: stats.report.partition_time.as_secs_f64(),
            supernodes: stats.report.supernodes,
            activation_per_cycle: c.activations as f64 / c.cycles.max(1) as f64,
            active_per_cycle: c.node_evals as f64 / c.cycles.max(1) as f64,
            hz: stats.hz,
        }
    })
    .collect()
}

/// Prints Table III.
pub fn print_table3(rows: &[Table3Row]) {
    println!("Table III: partitioning algorithms (BOOM-like, CoreMark-like)");
    println!(
        "{:<12} {:>12} {:>11} {:>16} {:>13} {:>12}",
        "partition", "time (s)", "supernode", "activation/cyc", "active/cyc", "speed"
    );
    for r in rows {
        println!(
            "{:<12} {:>12.3} {:>11} {:>16.1} {:>13.1} {:>12}",
            r.algorithm,
            r.partition_s,
            r.supernodes,
            r.activation_per_cycle,
            r.active_per_cycle,
            format_hz(r.hz)
        );
    }
}

// --------------------------------------------------------------- Table IV

/// One (design, simulator) resource row.
#[derive(Debug)]
pub struct Table4Row {
    /// Design name.
    pub design: &'static str,
    /// Simulator name.
    pub simulator: String,
    /// Emission time (seconds): pass pipeline + C++ emission.
    pub emission_s: f64,
    /// Emitted code size (bytes of C++ source).
    pub code_bytes: usize,
    /// Data size (bytes of simulated state, memories excluded).
    pub data_bytes: usize,
}

/// Table IV: emission time / code size / data size per simulator.
pub fn table4(suite: &[SuiteDesign]) -> Vec<Table4Row> {
    use gsim_codegen::Style;
    let presets = [
        (Preset::Verilator, Style::FullCycle),
        (Preset::Essent, Style::Essential),
        (Preset::Arcilator, Style::FullCycle),
        (Preset::Gsim, Style::Essential),
    ];
    let mut rows = Vec::new();
    for d in suite {
        for (preset, style) in presets {
            let start = std::time::Instant::now();
            let opts = preset.options();
            let pass_opts = gsim_passes::PassOptions {
                expression_simplify: opts.expression_simplify,
                redundant_elim: opts.redundant_elim,
                node_inline: opts.node_inline,
                node_extract: opts.node_extract,
                bit_split: opts.bit_split,
                reset_slow_path: opts.reset_slow_path,
            };
            let (optimized, _) = gsim_passes::run(d.graph.clone(), &pass_opts);
            let partition = gsim_partition::PartitionOptions {
                algorithm: match opts.supernode {
                    SupernodeChoice::None => gsim_partition::Algorithm::None,
                    SupernodeChoice::Kernighan => gsim_partition::Algorithm::Kernighan,
                    SupernodeChoice::Mffc => gsim_partition::Algorithm::MffcBased,
                    SupernodeChoice::Gsim => gsim_partition::Algorithm::Gsim,
                },
                max_size: opts.max_supernode_size,
            };
            let out = gsim_codegen::emit(&optimized, style, &partition);
            rows.push(Table4Row {
                design: d.name,
                simulator: preset.name(),
                emission_s: start.elapsed().as_secs_f64(),
                code_bytes: out.code_bytes,
                data_bytes: out.data_bytes,
            });
        }
    }
    rows
}

/// Prints Table IV.
pub fn print_table4(rows: &[Table4Row]) {
    println!("Table IV: resource usage");
    println!(
        "{:<12} {:<14} {:>14} {:>12} {:>12}",
        "Design", "Simulator", "Emission (s)", "Code size", "Data size"
    );
    for r in rows {
        println!(
            "{:<12} {:<14} {:>14.3} {:>12} {:>12}",
            r.design,
            r.simulator,
            r.emission_s,
            format_bytes(r.code_bytes),
            format_bytes(r.data_bytes)
        );
    }
}

// ------------------------------------------------------------ §II factors

/// The §II-B measurements: activity factor and examination share.
#[derive(Debug)]
pub struct Factors {
    /// Activity factor (paper: ≈4.61% for CoreMark on XiangShan).
    pub activity_factor: f64,
    /// Share of active-bit examinations among counted work items
    /// (paper: 82.26% of executed branches) — measured on the
    /// *unoptimized* essential baseline, where the paper's analysis
    /// applies.
    pub exam_share: f64,
}

/// Measures the §II-B cost-model factors on the XiangShan-like core.
pub fn factors(suite: &[SuiteDesign], cfg: &Config) -> Factors {
    let xs = suite
        .iter()
        .find(|d| d.name == "XiangShan")
        .expect("suite contains XiangShan");
    let wl = WorkloadKind::Stimulus(Profile::coremark());
    // af under the full GSIM configuration; exam share on the
    // unoptimized per-node baseline (Listing 2).
    let gsim = measure_options(&xs.graph, OptOptions::all(), &wl, cfg.cycles);
    let baseline = measure_options(&xs.graph, OptOptions::none(), &wl, cfg.cycles);
    Factors {
        activity_factor: gsim.counters.activity_factor(xs.graph.num_nodes()),
        exam_share: baseline.counters.exam_share(),
    }
}

/// Prints the factors.
pub fn print_factors(f: &Factors) {
    println!("Cost-model factors (paper §II-B):");
    println!(
        "  activity factor af         = {:.2}%   (paper: ~4.61% CoreMark/XiangShan)",
        f.activity_factor * 100.0
    );
    println!(
        "  active-bit examination share = {:.2}%  (paper: 82.26% of branches)",
        f.exam_share * 100.0
    );
}

// ------------------------------------------------------------------ misc

pub(crate) fn format_hz(hz: f64) -> String {
    if hz >= 1e6 {
        format!("{:.2} MHz", hz / 1e6)
    } else if hz >= 1e3 {
        format!("{:.1} kHz", hz / 1e3)
    } else {
        format!("{hz:.0} Hz")
    }
}

pub(crate) fn format_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.1}M", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}K", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

fn bar(value: f64, full_scale: f64) -> String {
    let n = ((value / full_scale) * 40.0).clamp(0.0, 60.0) as usize;
    "#".repeat(n)
}

/// Accumulated totals for RunStats vectors (test helper).
pub fn total_cycles(stats: &[RunStats]) -> u64 {
    stats.iter().map(|s| s.cycles).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> Config {
        Config {
            scale: 0.002,
            cycles: 60,
        }
    }

    #[test]
    fn table1_and_fig6_shapes() {
        let cfg = tiny_cfg();
        let suite = build_suite(&cfg);
        let t1 = table1(&suite, &cfg);
        assert_eq!(t1.len(), 4);
        // Bigger designs simulate slower on the full-cycle baseline.
        assert!(t1[0].hz > t1[3].hz, "stuCore should outpace XiangShan-like");
    }

    #[test]
    fn threaded_rows_cover_interp_and_jit() {
        let cfg = tiny_cfg();
        let suite = build_suite(&cfg);
        let xs = suite.iter().find(|d| d.name == "XiangShan").unwrap();
        let rows = threaded(xs, &cfg);
        assert_eq!(rows.len(), 2, "interp, jit");
        assert!((rows[0].speedup - 1.0).abs() < 1e-9, "interp is the unit");
        assert_eq!(rows[0].lowering_ms, 0.0, "interp never lowers");
        assert!(rows[1].lowering_ms > 0.0, "jit records its lowering pass");
        // Bit-invisibility extends to the workload counters.
        assert_eq!(rows[1].counters, rows[0].counters);
    }

    #[test]
    fn dispatch_breakdown_covers_both_engines() {
        let cfg = tiny_cfg();
        let suite = build_suite(&cfg);
        let xs = suite.iter().find(|d| d.name == "XiangShan").unwrap();
        let rows = dispatch_breakdown(xs, &cfg);
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["GSIM", "FullCycle"]);
        let (gsim, full) = (&rows[0], &rows[1]);
        // The essential engine skips inactive supernodes; the
        // full-cycle baseline evaluates every node every cycle.
        assert!(gsim.instrs_per_cycle < full.instrs_per_cycle);
        assert!(gsim.counters.node_evals < full.counters.node_evals);
        assert_eq!(gsim.counters.cycles, full.counters.cycles);
    }

    #[test]
    fn aot_rows_cover_both_design_classes() {
        if !gsim_codegen::rustc_available() {
            eprintln!("skipping: rustc not available");
            return;
        }
        let cfg = tiny_cfg();
        let suite = build_suite(&cfg);
        let rows = aot(&suite, &cfg);
        assert_eq!(rows.len(), 2, "stuCore + Rocket");
        for r in &rows {
            assert!(r.code_bytes > 0 && r.binary_bytes > 0 && r.data_bytes > 0);
            assert!(r.rustc_s > 0.0);
            assert!(r.aot_hz > 0.0 && r.interp_hz > 0.0);
        }
        assert!(host_cores() >= 1);
    }

    #[test]
    fn fig7_uses_all_checkpoints() {
        let cfg = tiny_cfg();
        let suite = build_suite(&cfg);
        let rows = fig7(&suite, &cfg);
        assert_eq!(rows.len(), 12);
        assert!(geomean(rows.iter().map(|r| r.gsim)) > 0.0);
    }

    #[test]
    fn table3_rows_cover_algorithms() {
        let cfg = tiny_cfg();
        let suite = build_suite(&cfg);
        let rows = table3(&suite, &cfg);
        assert_eq!(rows.len(), 4);
        let none = &rows[0];
        let gsim = &rows[3];
        assert!(gsim.supernodes < none.supernodes);
    }

    #[test]
    fn table4_emits_for_all() {
        let cfg = tiny_cfg();
        let suite = build_suite(&cfg);
        let rows = table4(&suite);
        assert_eq!(rows.len(), 16);
        assert!(rows.iter().all(|r| r.code_bytes > 0));
    }

    #[test]
    fn geomean_math() {
        assert!((geomean([2.0, 8.0].into_iter()) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }
}
