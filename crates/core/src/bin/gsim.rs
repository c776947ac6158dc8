//! `gsim` — command-line front end, mirroring the paper's tool:
//! compile a FIRRTL design, report optimization statistics, optionally
//! simulate and/or emit C++.
//!
//! ```text
//! gsim design.fir [--preset gsim|verilator|essent|arcilator]
//!                 [--backend interp|jit|aot]   # bytecode, threaded-code, or emit+rustc+run
//!                 [--threads N]                # Verilator --threads N (verilator preset)
//!                 [--max-supernode-size N]     # the paper's CLI knob
//!                 [--cycles N]                 # simulate (zero inputs)
//!                 [--vcd out.vcd]              # change-driven waveform capture
//!                 [--emit-cpp out.cc]
//!                 [--emit-rust out.rs]         # the AoT backend's source
//!
//! gsim serve  --socket <ep> --cache-dir <dir>  # multi-tenant simulation service
//!             [--cache-capacity N] [--max-sessions N] [--idle-timeout SECS]
//!
//! gsim client <design.fir> --socket <ep>       # remote session (tests/CI)
//!             [--backend aot|interp|jit] [--cycles N] [--vcd out.vcd]
//!             [--stats] [--shutdown]
//!
//! gsim wavediff <a.vcd> <b.vcd>                # canonicalize + diff two VCDs
//!                                              # (exit 1 when histories differ)
//!
//! gsim explore <design.fir> --branches N       # snapshot-fork scenario exploration
//!             [--backend interp|jit|aot] [--scenario file] [--cycles N]
//!             [--warmup N] [--workers N] [--watch a,b] [--divergence]
//!             [--socket <ep>]                  # run remotely on a service session
//! ```
//!
//! Endpoints are `tcp:<addr>`, `unix:<path>`, or bare forms (a string
//! containing `/` is a Unix socket path, anything else a TCP address).

use gsim::{ClientSession, Compiler, Endpoint, Preset, Server, ServerConfig, Session};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return cmd_serve(&args[1..]),
        Some("client") => return cmd_client(&args[1..]),
        Some("explore") => return cmd_explore(&args[1..]),
        Some("wavediff") => return cmd_wavediff(&args[1..]),
        _ => {}
    }
    let mut input: Option<String> = None;
    let mut preset = Preset::Gsim;
    let mut threads: Option<usize> = None;
    let mut max_size: Option<usize> = None;
    let mut cycles: u64 = 0;
    let mut vcd: Option<String> = None;
    let mut emit_cpp: Option<String> = None;
    let mut emit_rust: Option<String> = None;
    let mut backend = "interp";

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--preset" => {
                preset = match it.next().map(String::as_str) {
                    Some("gsim") => Preset::Gsim,
                    Some("verilator") => Preset::Verilator,
                    Some("essent") => Preset::Essent,
                    Some("arcilator") => Preset::Arcilator,
                    other => die(&format!("unknown preset {other:?}")),
                };
            }
            "--backend" => {
                backend = match it.next().map(String::as_str) {
                    Some("aot") => "aot",
                    Some("interp") => "interp",
                    Some("jit") => "jit",
                    other => die(&format!("unknown backend {other:?} (interp|jit|aot)")),
                };
            }
            "--threads" => {
                let n: usize = parse(it.next(), "--threads");
                if n == 0 {
                    die("--threads needs at least 1");
                }
                threads = Some(n);
            }
            "--max-supernode-size" => {
                max_size = Some(parse(it.next(), "--max-supernode-size"));
            }
            "--cycles" => cycles = parse(it.next(), "--cycles"),
            "--vcd" => vcd = it.next().cloned(),
            "--emit-cpp" => emit_cpp = it.next().cloned(),
            "--emit-rust" => emit_rust = it.next().cloned(),
            "--help" | "-h" => {
                usage();
                return;
            }
            other if !other.starts_with('-') => input = Some(other.to_string()),
            other => die(&format!("unknown flag {other}")),
        }
    }
    let Some(path) = input else {
        usage();
        std::process::exit(2);
    };
    if vcd.is_some() && cycles == 0 {
        die("--vcd captures value changes while simulating; give it --cycles N");
    }
    // `--threads` selects Verilator's levelized multithreaded engine,
    // the paper's multicore baseline; no other preset has one.
    if let Some(n) = threads {
        preset = match preset {
            Preset::Verilator | Preset::VerilatorMt(_) => Preset::VerilatorMt(n),
            other => die(&format!(
                "--threads applies only to the verilator preset (Verilator --threads N), \
                 not {}; use --preset verilator --threads {n}",
                other.name()
            )),
        };
    }
    let mut opts = preset.options();
    if backend == "jit" {
        if threads.is_some() {
            die("--threads does not apply to the jit backend");
        }
        opts.engine = gsim::EngineChoice::Threaded;
    }
    if let Some(n) = max_size {
        opts.max_supernode_size = n;
    }

    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let graph = gsim_firrtl::compile(&src).unwrap_or_else(|e| die(&e));

    if backend == "aot" {
        if threads.is_some() {
            die("--threads does not apply to the aot backend");
        }
        if emit_cpp.is_some() {
            die("--emit-cpp does not apply to the aot backend (use --emit-rust)");
        }
        run_aot(
            &graph,
            &path,
            preset,
            opts,
            cycles,
            vcd.as_deref(),
            emit_rust.as_deref(),
        );
        return;
    }

    let (mut sim, report) = Compiler::new(&graph)
        .options(opts)
        .build()
        .unwrap_or_else(|e| die(&e.to_string()));

    eprintln!("design   : {} ({})", graph.name(), path);
    if backend == "jit" {
        eprintln!("preset   : {} [jit backend]", preset.name());
        eprintln!(
            "threaded : lowered in {:.2} ms",
            sim.lowering_time().as_secs_f64() * 1e3
        );
    } else {
        eprintln!("preset   : {}", preset.name());
    }
    eprintln!(
        "nodes    : {} -> {} ({} edges -> {})",
        report.nodes_before, report.nodes_after, report.edges_before, report.edges_after
    );
    eprintln!("supernodes: {}", report.supernodes);
    eprintln!(
        "compile  : {:.1} ms (partition {:.1} ms), {} instrs ({} image units), {} B state",
        report.compile_time.as_secs_f64() * 1e3,
        report.partition_time.as_secs_f64() * 1e3,
        report.instrs,
        report.image_units,
        report.state_bytes
    );

    if cycles > 0 {
        // Both backends route the actual simulation through the
        // backend-agnostic `Session` trait, so this path and the AoT
        // path below print byte-identical stdout (CI diffs them).
        if let Some(p) = vcd.as_deref() {
            Session::trace_start(&mut sim, None, open_vcd(p))
                .unwrap_or_else(|e| die(&e.to_string()));
        }
        simulate(&mut sim, &graph, cycles, "");
        if let Some(p) = vcd.as_deref() {
            Session::trace_stop(&mut sim).unwrap_or_else(|e| die(&e.to_string()));
            eprintln!("vcd      : {p}");
        }
        let c = Session::counters(&mut sim).unwrap_or_default();
        eprintln!(
            "activity factor: {:.2}%",
            c.activity_factor(report.nodes_after) * 100.0
        );
    }

    if emit_cpp.is_some() || emit_rust.is_some() {
        // Emission uses the same resolved options as the simulation
        // above (preset + ablation flags + --max-supernode-size), so
        // the written source is the program those flags would run.
        let (optimized, _) = gsim_passes::run(graph.clone(), &opts.pass_options());
        let popts = opts.partition_options();
        if let Some(out_path) = emit_cpp {
            let style = match preset {
                Preset::Verilator | Preset::VerilatorMt(_) | Preset::Arcilator => {
                    gsim_codegen::Style::FullCycle
                }
                _ => gsim_codegen::Style::Essential,
            };
            let emitted = gsim_codegen::emit(&optimized, style, &popts);
            std::fs::write(&out_path, &emitted.code)
                .unwrap_or_else(|e| die(&format!("cannot write {out_path}: {e}")));
            eprintln!(
                "emitted  : {out_path} ({} bytes, {:.1} ms)",
                emitted.code_bytes,
                emitted.emit_time.as_secs_f64() * 1e3
            );
        }
        if let Some(out_path) = emit_rust {
            // The AoT backend's source, without invoking rustc.
            let emitted =
                gsim_codegen::emit_rust(&optimized, &popts).unwrap_or_else(|e| die(&e.to_string()));
            std::fs::write(&out_path, &emitted.code)
                .unwrap_or_else(|e| die(&format!("cannot write {out_path}: {e}")));
            eprintln!(
                "emitted  : {out_path} ({} bytes, {:.1} ms)",
                emitted.code_bytes,
                emitted.emit_time.as_secs_f64() * 1e3
            );
        }
    }
}

/// Runs `cycles` cycles through the backend-agnostic [`Session`] trait
/// and prints every named output as `name = <width>'h<hex>` — shared
/// verbatim by the interpreter and AoT paths, which is what makes
/// their stdout diffable.
fn simulate(session: &mut dyn Session, graph: &gsim::Graph, cycles: u64, tag: &str) {
    let start = std::time::Instant::now();
    session.step(cycles).unwrap_or_else(|e| die(&e.to_string()));
    let secs = start.elapsed().as_secs_f64();
    eprintln!(
        "simulated {} cycles in {:.3} s ({:.1} kHz){tag}",
        cycles,
        secs,
        cycles as f64 / secs.max(1e-12) / 1e3
    );
    for &out in graph.outputs() {
        let name = graph.display_name(out);
        if let Ok(v) = session.peek(&name) {
            println!("{name} = {v}");
        }
    }
}

/// The `--backend aot` path: emit → `rustc -O` → spawn the compiled
/// binary in persistent server mode, then drive it through the same
/// [`Session`] trait (and print the same output lines) as the
/// interpreter backend, so the two can be diffed directly.
fn run_aot(
    graph: &gsim::Graph,
    path: &str,
    preset: Preset,
    opts: gsim::OptOptions,
    cycles: u64,
    vcd: Option<&str>,
    emit_rust: Option<&str>,
) {
    let (sim, report) = Compiler::new(graph)
        .options(opts)
        .build_aot()
        .unwrap_or_else(|e| die(&e.to_string()));
    eprintln!("design   : {} ({})", graph.name(), path);
    eprintln!("preset   : {} [aot backend]", preset.name());
    eprintln!(
        "nodes    : {} -> {}",
        report.nodes_before, report.nodes_after
    );
    eprintln!("supernodes: {}", report.supernodes);
    eprintln!(
        "aot      : emitted {} B in {:.1} ms, rustc {:.2} s, binary {} B, {} B state",
        report.code_bytes,
        report.emit_time.as_secs_f64() * 1e3,
        report.rustc_time.as_secs_f64(),
        report.binary_bytes,
        report.data_bytes
    );
    if let Some(out) = emit_rust {
        std::fs::copy(&sim.source_path, out)
            .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
        eprintln!("emitted  : {out}");
    }
    if cycles > 0 {
        let mut session = sim.session().unwrap_or_else(|e| die(&e.to_string()));
        // Tracing goes through the session's wire subscription
        // (`trace on` + streamed `chg` records), so the VCD this
        // writes is the compiled binary's own change detection —
        // diffable bit-for-bit against the interpreter backends'.
        if let Some(p) = vcd {
            session
                .trace_start(None, open_vcd(p))
                .unwrap_or_else(|e| die(&e.to_string()));
        }
        simulate(&mut session, graph, cycles, " [compiled binary]");
        if let Some(p) = vcd {
            session.trace_stop().unwrap_or_else(|e| die(&e.to_string()));
            eprintln!("vcd      : {p}");
        }
    }
}

/// `gsim serve`: run the multi-tenant simulation service in the
/// foreground until a client sends `shutdown`.
fn cmd_serve(args: &[String]) {
    let mut socket: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut cache_capacity: Option<usize> = None;
    let mut max_sessions: Option<usize> = None;
    let mut idle_timeout: Option<u64> = None;
    let mut faults: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = it.next().cloned(),
            "--cache-dir" => cache_dir = it.next().cloned(),
            "--cache-capacity" => cache_capacity = Some(parse(it.next(), "--cache-capacity")),
            "--max-sessions" => max_sessions = Some(parse(it.next(), "--max-sessions")),
            "--idle-timeout" => idle_timeout = Some(parse(it.next(), "--idle-timeout")),
            "--faults" => faults = it.next().cloned(),
            other => die(&format!("unknown serve flag {other}")),
        }
    }
    let socket = socket.unwrap_or_else(|| die("serve needs --socket <endpoint>"));
    let cache_dir = cache_dir.unwrap_or_else(|| die("serve needs --cache-dir <dir>"));
    let mut cfg = ServerConfig::new(Endpoint::parse(&socket), cache_dir);
    if let Some(n) = cache_capacity {
        cfg.cache_capacity = n;
    }
    if let Some(n) = max_sessions {
        cfg.max_sessions = n;
    }
    if let Some(secs) = idle_timeout {
        cfg.idle_timeout = (secs > 0).then(|| std::time::Duration::from_secs(secs));
    }
    // Chaos harnesses inject deterministic faults via --faults or the
    // GSIM_FAULT environment variable (flag wins when both are set).
    cfg.faults = match faults {
        Some(spec) => {
            gsim::FaultPlan::parse(&spec).unwrap_or_else(|e| die(&format!("--faults: {e}")))
        }
        None => gsim::FaultPlan::from_env(),
    };
    let server = Server::start(cfg).unwrap_or_else(|e| die(&format!("cannot start server: {e}")));
    // Parseable readiness line (tests/scripts wait for it).
    println!("listening {}", server.endpoint());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.wait();
}

/// `gsim client`: open one remote session, run it, and print the same
/// `name = value` output lines as the local backends (CI diffs them).
fn cmd_client(args: &[String]) {
    let mut input: Option<String> = None;
    let mut socket: Option<String> = None;
    let mut backend = "aot".to_string();
    let mut cycles: u64 = 0;
    let mut vcd: Option<String> = None;
    let mut stats = false;
    let mut shutdown = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = it.next().cloned(),
            "--backend" => backend = it.next().cloned().unwrap_or(backend),
            "--cycles" => cycles = parse(it.next(), "--cycles"),
            "--vcd" => vcd = it.next().cloned(),
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            other if !other.starts_with('-') => input = Some(other.to_string()),
            other => die(&format!("unknown client flag {other}")),
        }
    }
    if vcd.is_some() && cycles == 0 {
        die("--vcd captures value changes while simulating; give it --cycles N");
    }
    let socket = socket.unwrap_or_else(|| die("client needs --socket <endpoint>"));
    let ep = Endpoint::parse(&socket);
    // Bounded reconnect-with-backoff: rides out a service that is
    // still binding its socket (scripts start `serve` concurrently).
    let mut session =
        ClientSession::connect_with_retry(&ep, 5, std::time::Duration::from_millis(50))
            .unwrap_or_else(|e| die(&format!("cannot connect: {e}")));
    if let Some(path) = input {
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        let info = session
            .open_design(&src, &backend)
            .unwrap_or_else(|e| die(&e.to_string()));
        eprintln!(
            "ready    : key={} status={} ({} ms)",
            info.key, info.status, info.ready_ms
        );
        if cycles > 0 {
            // The remote trace subscription: the server streams `chg`
            // records over the same socket, and the client session
            // reassembles them into the VCD file.
            if let Some(p) = vcd.as_deref() {
                session
                    .trace_start(None, open_vcd(p))
                    .unwrap_or_else(|e| die(&e.to_string()));
            }
            let start = std::time::Instant::now();
            session.step(cycles).unwrap_or_else(|e| die(&e.to_string()));
            let secs = start.elapsed().as_secs_f64();
            eprintln!(
                "simulated {} cycles in {:.3} s ({:.1} kHz) [remote session]",
                cycles,
                secs,
                cycles as f64 / secs.max(1e-12) / 1e3
            );
            if let Some(p) = vcd.as_deref() {
                session.trace_stop().unwrap_or_else(|e| die(&e.to_string()));
                eprintln!("vcd      : {p}");
            }
            // The design's portable signal surface, via the wire-level
            // `list` command: print outputs exactly like the local
            // backends (signals = outputs then inputs, deduplicated).
            let inputs = session.inputs().unwrap_or_else(|e| die(&e.to_string()));
            let signals = session.signals().unwrap_or_else(|e| die(&e.to_string()));
            for sig in &signals {
                if inputs.iter().any(|i| i.name == sig.name) {
                    continue;
                }
                let v = session
                    .peek(&sig.name)
                    .unwrap_or_else(|e| die(&e.to_string()));
                println!("{} = {v}", sig.name);
            }
        }
    }
    if stats {
        let s = session.stats().unwrap_or_else(|e| die(&e.to_string()));
        println!("{}", s.render_wire());
    }
    if shutdown {
        session
            .shutdown_server()
            .unwrap_or_else(|e| die(&e.to_string()));
    }
}

/// `gsim explore`: warm one session, fork it into a worker pool, and
/// run N perturbed variants of a scenario — printing the same
/// canonical `branch` lines locally (via [`gsim::BranchResult`]) and
/// remotely (via the service's `explore` command), so the two modes
/// diff textually.
fn cmd_explore(args: &[String]) {
    let mut input: Option<String> = None;
    let mut socket: Option<String> = None;
    let mut backend = "interp".to_string();
    let mut branches: usize = 8;
    let mut scenario_file: Option<String> = None;
    let mut cycles: u64 = 100;
    let mut warmup: u64 = 0;
    let mut workers: usize = 0;
    let mut watch: Vec<String> = Vec::new();
    let mut divergence = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = it.next().cloned(),
            "--backend" => backend = it.next().cloned().unwrap_or(backend),
            "--branches" => branches = parse(it.next(), "--branches"),
            "--scenario" => scenario_file = it.next().cloned(),
            "--cycles" => cycles = parse(it.next(), "--cycles"),
            "--warmup" => warmup = parse(it.next(), "--warmup"),
            "--workers" => workers = parse(it.next(), "--workers"),
            "--watch" => {
                watch = it
                    .next()
                    .map(|s| s.split(',').map(str::to_string).collect())
                    .unwrap_or_default();
            }
            "--divergence" => divergence = true,
            other if !other.starts_with('-') => input = Some(other.to_string()),
            other => die(&format!("unknown explore flag {other}")),
        }
    }
    let path = input.unwrap_or_else(|| die("explore needs a <design.fir>"));
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));

    // The base scenario: an explicit stimulus file, or a synthesized
    // one driving every data input to 1 for `--cycles` cycles (a
    // frame per cycle, so `perturb` has values to vary).
    let scenario_of = |inputs: &[String]| -> gsim::Scenario {
        match &scenario_file {
            Some(f) => {
                let text = std::fs::read_to_string(f)
                    .unwrap_or_else(|e| die(&format!("cannot read {f}: {e}")));
                gsim::Scenario::parse(&text).unwrap_or_else(|e| die(&e.to_string()))
            }
            None => {
                let frame: Vec<(&str, u64)> = inputs
                    .iter()
                    .filter(|n| n.as_str() != "reset" && n.as_str() != "clock")
                    .map(|n| (n.as_str(), 1))
                    .collect();
                gsim::Scenario::new()
                    .frame(&frame)
                    .repeat(cycles.saturating_sub(1))
            }
        }
    };

    if let Some(socket) = socket {
        // Remote: one service session explores on the server side and
        // streams back the canonical branch lines.
        let ep = gsim::Endpoint::parse(&socket);
        let mut session =
            ClientSession::connect_with_retry(&ep, 5, std::time::Duration::from_millis(50))
                .unwrap_or_else(|e| die(&format!("cannot connect: {e}")));
        let info = session
            .open_design(&src, &backend)
            .unwrap_or_else(|e| die(&e.to_string()));
        eprintln!(
            "ready    : key={} status={} ({} ms)",
            info.key, info.status, info.ready_ms
        );
        if warmup > 0 {
            session.step(warmup).unwrap_or_else(|e| die(&e.to_string()));
        }
        let inputs: Vec<String> = session
            .inputs()
            .unwrap_or_else(|e| die(&e.to_string()))
            .into_iter()
            .map(|i| i.name)
            .collect();
        let sc = scenario_of(&inputs);
        let start = std::time::Instant::now();
        let lines = session
            .explore(&sc, branches)
            .unwrap_or_else(|e| die(&e.to_string()));
        let secs = start.elapsed().as_secs_f64();
        for line in &lines {
            println!("{line}");
        }
        eprintln!(
            "explored {} branches x {} cycles in {:.3} s ({:.1} branches/s) [remote session]",
            lines.len(),
            sc.cycles(),
            secs,
            lines.len() as f64 / secs.max(1e-12)
        );
        return;
    }

    let graph = gsim_firrtl::compile(&src).unwrap_or_else(|e| die(&e));
    let engine = match backend.as_str() {
        "interp" => gsim::EngineChoice::Essential,
        "jit" => gsim::EngineChoice::Threaded,
        "aot" => gsim::EngineChoice::Aot,
        other => die(&format!("unknown backend {other} (interp|jit|aot)")),
    };
    let mut session = Compiler::new(&graph)
        .preset(Preset::Gsim)
        .build_session(engine)
        .unwrap_or_else(|e| die(&e.to_string()));
    if warmup > 0 {
        session.step(warmup).unwrap_or_else(|e| die(&e.to_string()));
    }
    let inputs: Vec<String> = session
        .inputs()
        .unwrap_or_else(|e| die(&e.to_string()))
        .into_iter()
        .map(|i| i.name)
        .collect();
    let sc = scenario_of(&inputs);
    let opts = gsim::ExploreOptions {
        workers,
        watch,
        divergence,
        ..gsim::ExploreOptions::default()
    };
    let start = std::time::Instant::now();
    let report = gsim::Explorer::new(&mut *session)
        .options(opts)
        .run(&sc, branches, None)
        .unwrap_or_else(|e| die(&e.to_string()));
    let secs = start.elapsed().as_secs_f64();
    for b in &report.branches {
        println!("{}", b.render_wire());
        if let Some(d) = b.divergence_cycle {
            eprintln!("  branch {} diverged at cycle {d}", b.index);
        }
    }
    eprintln!(
        "explored {} branches x {} cycles in {:.3} s ({:.1} branches/s; \
         {} workers, {} forks, {} recoveries, {} retries)",
        report.branches.len(),
        sc.cycles(),
        secs,
        report.branches.len() as f64 / secs.max(1e-12),
        report.workers,
        report.forks,
        report.recoveries,
        report.total_retries()
    );
}

/// `gsim wavediff`: parse two VCD files, canonicalize their change
/// histories, and report the differences — the CI matrix's
/// cross-backend correctness check. Exit status 0 means the signal
/// histories are identical; 1 means they differ (each difference on
/// its own stdout line).
fn cmd_wavediff(args: &[String]) {
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
    let [a_path, b_path] = files.as_slice() else {
        die("wavediff needs exactly two .vcd files");
    };
    let read = |p: &str| -> gsim::Wave {
        let text =
            std::fs::read_to_string(p).unwrap_or_else(|e| die(&format!("cannot read {p}: {e}")));
        gsim::parse_vcd(&text).unwrap_or_else(|e| die(&format!("{p}: {e}")))
    };
    let a = read(a_path);
    let b = read(b_path);
    let diffs = gsim::wave_diff(&a, &b);
    if diffs.is_empty() {
        println!(
            "identical: {} signals, {} vs {} change records",
            a.signals.len(),
            a.changes.len(),
            b.changes.len()
        );
        return;
    }
    for d in &diffs {
        println!("{d}");
    }
    eprintln!(
        "error: {} signal histories differ ({a_path} vs {b_path})",
        diffs.len()
    );
    std::process::exit(1);
}

/// Opens a `--vcd` output file as a boxed wave sink for
/// [`Session::trace_start`].
fn open_vcd(path: &str) -> Box<dyn gsim::WaveSink> {
    let f =
        std::fs::File::create(path).unwrap_or_else(|e| die(&format!("cannot create {path}: {e}")));
    Box::new(gsim::VcdWriter::new(std::io::BufWriter::new(f)))
}

fn parse<T: std::str::FromStr>(v: Option<&String>, flag: &str) -> T {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a number")))
}

fn usage() {
    println!(
        "gsim <design.fir> [--preset gsim|verilator|essent|arcilator] \
         [--backend interp|jit|aot] [--threads N] [--max-supernode-size N] \
         [--cycles N] [--vcd out.vcd] \
         [--emit-cpp out.cc] [--emit-rust out.rs]\n\
         gsim serve --socket <ep> --cache-dir <dir> [--cache-capacity N] \
         [--max-sessions N] [--idle-timeout SECS] [--faults SPEC]\n\
         gsim client <design.fir> --socket <ep> [--backend aot|interp|jit] \
         [--cycles N] [--vcd out.vcd] [--stats] [--shutdown]\n\
         gsim explore <design.fir> [--branches N] [--backend interp|jit|aot] \
         [--scenario file] [--cycles N] [--warmup N] [--workers N] \
         [--watch a,b] [--divergence] [--socket <ep>]\n\
         gsim wavediff <a.vcd> <b.vcd>"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}
