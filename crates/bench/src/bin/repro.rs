//! `repro` — regenerates the GSIM paper's tables and figures.
//!
//! ```text
//! repro [all|table1|threads|dispatch|threaded|aot|session|service|recovery|explore|wave|fig6|fig7|fig8|fig9|table3|table4|factors]
//!       [--scale F] [--cycles N] [--json [PATH]]
//! ```
//!
//! `--scale` sizes the synthetic designs relative to the paper's node
//! counts (default 0.02; 1.0 regenerates paper-size designs, including
//! a ~6.2M-node XiangShan stand-in — expect long compile times).
//!
//! `--json` additionally runs the thread-scaling, dispatch-breakdown,
//! threaded-backend, AoT, persistent-session, simulation-service,
//! crash-recovery, scenario-exploration, and waveform-capture
//! experiments and writes their
//! cycles/sec + counter breakdowns (plus `host_cores`, the AoT
//! emit/rustc/size/speed rows, and the session-amortization rows) to
//! `BENCH_interp.json` (or the given path) so CI can track the
//! simulator's performance trajectory. With `GSIM_BENCH_SMOKE=1`
//! the suite shrinks to tiny designs and short runs, unless
//! `--scale` / `--cycles` are given explicitly.

use gsim_bench::experiments as exp;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut cfg = exp::Config::default();
    let mut explicit_size = false;
    let mut json_path: Option<String> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                cfg.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
                explicit_size = true;
            }
            "--cycles" => {
                cfg.cycles = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--cycles needs a number"));
                explicit_size = true;
            }
            "--json" => {
                // Optional path operand.
                let path = match it.peek() {
                    Some(p) if p.ends_with(".json") => it.next().cloned(),
                    _ => None,
                };
                json_path = Some(path.unwrap_or_else(|| "BENCH_interp.json".into()));
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            other if !other.starts_with('-') => which.push(other.to_string()),
            other => die(&format!("unknown flag {other}")),
        }
    }
    let smoke = std::env::var_os("GSIM_BENCH_SMOKE").is_some();
    if smoke && !explicit_size {
        cfg.scale = 0.002;
        cfg.cycles = 256;
    }
    if which.is_empty() && json_path.is_none() {
        which.push("all".into());
    }
    let all = which.iter().any(|w| w == "all");
    let wants = |name: &str| all || which.iter().any(|w| w == name);
    let json = json_path.is_some();

    eprintln!(
        "# building design suite (scale {}, {} cycles per run{})...",
        cfg.scale,
        cfg.cycles,
        if smoke { ", smoke" } else { "" }
    );
    let suite = exp::build_suite(&cfg);
    for d in &suite {
        eprintln!(
            "#   {:<10} {:>8} nodes {:>9} edges (paper: {} nodes)",
            d.name,
            d.graph.num_nodes(),
            d.graph.num_edges(),
            d.paper_nodes
        );
    }
    let xiangshan = || {
        suite
            .iter()
            .find(|d| d.name == "XiangShan")
            .expect("suite contains XiangShan")
    };

    if wants("table1") {
        section("Table I");
        exp::print_table1(&exp::table1(&suite, &cfg));
    }
    // The JSON perf record always carries the thread-scaling and
    // dispatch-breakdown numbers, whether or not they print.
    let mut threads_rows = None;
    if wants("threads") || json {
        threads_rows = Some(exp::table1_threads(xiangshan(), &cfg));
    }
    if wants("threads") {
        section("Table I (thread scaling)");
        exp::print_table1_threads(xiangshan().name, threads_rows.as_ref().unwrap());
    }
    let mut dispatch_rows = None;
    if wants("dispatch") || json {
        dispatch_rows = Some(exp::dispatch_breakdown(xiangshan(), &cfg));
    }
    if wants("dispatch") {
        section("Dispatch breakdown");
        exp::print_dispatch(xiangshan().name, dispatch_rows.as_ref().unwrap());
    }
    let mut threaded_rows = None;
    if wants("threaded") || json {
        threaded_rows = Some(exp::threaded(xiangshan(), &cfg));
    }
    if wants("threaded") {
        section("Threaded-code backend");
        exp::print_threaded(xiangshan().name, threaded_rows.as_ref().unwrap());
    }
    let mut aot_rows = None;
    if wants("aot") || json {
        aot_rows = Some(exp::aot(&suite, &cfg));
    }
    if wants("aot") {
        section("AoT backend");
        exp::print_aot(aot_rows.as_ref().unwrap());
    }
    let mut session_rows = None;
    if wants("session") || json {
        session_rows = Some(exp::session_amortization(&suite, &cfg));
    }
    if wants("session") {
        section("Persistent session");
        exp::print_session(session_rows.as_ref().unwrap());
    }
    let mut service_rows = None;
    if wants("service") || json {
        service_rows = Some(exp::service(&cfg));
    }
    if wants("service") {
        section("Simulation service");
        exp::print_service(service_rows.as_ref().unwrap());
    }
    let mut recovery_rows = None;
    if wants("recovery") || json {
        recovery_rows = Some(exp::recovery(&suite, &cfg));
    }
    if wants("recovery") {
        section("Crash recovery");
        exp::print_recovery(recovery_rows.as_ref().unwrap());
    }
    let mut explore_rows = None;
    if wants("explore") || json {
        explore_rows = Some(exp::explore(&suite, &cfg));
    }
    if wants("explore") {
        section("Scenario exploration");
        exp::print_explore(explore_rows.as_ref().unwrap());
    }
    let mut wave_rows = None;
    if wants("wave") || json {
        wave_rows = Some(exp::wave(xiangshan(), &cfg));
    }
    if wants("wave") {
        section("Waveform capture");
        exp::print_wave(xiangshan().name, wave_rows.as_ref().unwrap());
    }
    if wants("fig6") {
        section("Figure 6");
        exp::print_fig6(&exp::fig6(&suite, &cfg));
    }
    if wants("fig7") {
        section("Figure 7");
        exp::print_fig7(&exp::fig7(&suite, &cfg));
    }
    if wants("fig8") {
        section("Figure 8");
        exp::print_fig8(&exp::fig8(&suite, &cfg));
    }
    if wants("fig9") {
        section("Figure 9");
        exp::print_fig9(&exp::fig9(&suite, &cfg));
    }
    if wants("table3") {
        section("Table III");
        exp::print_table3(&exp::table3(&suite, &cfg));
    }
    if wants("table4") {
        section("Table IV");
        exp::print_table4(&exp::table4(&suite));
    }
    if wants("factors") {
        section("Cost-model factors");
        exp::print_factors(&exp::factors(&suite, &cfg));
    }

    if let Some(path) = json_path {
        let d = xiangshan();
        let body = render_json(
            &cfg,
            smoke,
            d.name,
            d.graph.num_nodes(),
            threads_rows.as_deref().unwrap_or(&[]),
            dispatch_rows.as_deref().unwrap_or(&[]),
            threaded_rows.as_deref().unwrap_or(&[]),
            aot_rows.as_deref().unwrap_or(&[]),
            session_rows.as_deref().unwrap_or(&[]),
            service_rows.as_deref().unwrap_or(&[]),
            recovery_rows.as_deref().unwrap_or(&[]),
            explore_rows.as_deref().unwrap_or(&[]),
            wave_rows.as_deref().unwrap_or(&[]),
        );
        std::fs::write(&path, body).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("# wrote {path}");
    }
}

/// Hand-rolled JSON: the vendored dependency set has no serde, and the
/// schema is small and flat.
#[allow(clippy::too_many_arguments)]
fn render_json(
    cfg: &exp::Config,
    smoke: bool,
    design: &str,
    nodes: usize,
    threads: &[exp::ThreadScalingRow],
    dispatch: &[exp::DispatchRow],
    threaded: &[exp::ThreadedRow],
    aot: &[exp::AotRow],
    session: &[exp::SessionRow],
    service: &[exp::ServiceRow],
    recovery: &[exp::RecoveryRow],
    explore: &[exp::ExploreRow],
    wave: &[exp::WaveRow],
) -> String {
    let host_cores = exp::host_cores();
    let max_threads = threads.iter().map(|r| r.threads).max().unwrap_or(1);
    let threads_note = if host_cores < max_threads {
        format!(
            "measured on a {host_cores}-core host: FullCycleMt rows above {host_cores} \
             worker(s) serialize on the level barriers and measure barrier overhead, \
             not engine scaling"
        )
    } else {
        format!("measured on a {host_cores}-core host; thread counts up to {max_threads} have real cores")
    };
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"gsim-bench-interp/9\",\n");
    s.push_str(&format!(
        "  \"scale\": {}, \"cycles\": {}, \"smoke\": {},\n",
        cfg.scale, cfg.cycles, smoke
    ));
    s.push_str(&format!(
        "  \"design\": \"{design}\", \"nodes\": {nodes},\n"
    ));
    s.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    s.push_str(&format!("  \"threads_note\": \"{threads_note}\",\n"));
    s.push_str("  \"threads\": [\n");
    for (i, r) in threads.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"engine\": \"{}\", \"threads\": {}, \"hz\": {:.1}, \"speedup\": {:.4}}}{}\n",
            r.engine,
            r.threads,
            r.hz,
            r.speedup,
            comma(i, threads.len())
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"aot\": [\n");
    for (i, r) in aot.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"design\": \"{}\", \"emit_s\": {:.4}, \"rustc_s\": {:.3}, \
             \"code_bytes\": {}, \"binary_bytes\": {}, \"data_bytes\": {}, \
             \"aot_hz\": {:.1}, \"interp_hz\": {:.1}, \"speedup\": {:.2}}}{}\n",
            r.design,
            r.emit_s,
            r.rustc_s,
            r.code_bytes,
            r.binary_bytes,
            r.data_bytes,
            r.aot_hz,
            r.interp_hz,
            r.speedup,
            comma(i, aot.len())
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"session\": [\n");
    for (i, r) in session.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"design\": \"{}\", \"steps\": {}, \"persistent_s\": {:.4}, \
             \"persistent_hz\": {:.1}, \"respawn_s\": {:.4}, \"respawn_hz\": {:.1}, \
             \"interp_hz\": {:.1}, \"speedup\": {:.2}}}{}\n",
            r.design,
            r.steps,
            r.persistent_s,
            r.persistent_hz,
            r.respawn_s,
            r.respawn_hz,
            r.interp_hz,
            r.speedup,
            comma(i, session.len())
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"service\": [\n");
    for (i, r) in service.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"design\": \"{}\", \"clients\": {}, \"steps\": {},              \"cold_open_s\": {:.4}, \"warm_open_s\": {:.4}, \"warm_speedup\": {:.1},              \"sessions_per_sec\": {:.2}, \"p50_step_us\": {:.1}, \"p99_step_us\": {:.1},              \"hits\": {}, \"misses\": {}, \"compiles\": {}, \"evictions\": {}}}{}\n",
            r.design,
            r.clients,
            r.steps,
            r.cold_open_s,
            r.warm_open_s,
            r.warm_speedup,
            r.sessions_per_sec,
            r.p50_step_us,
            r.p99_step_us,
            r.hits,
            r.misses,
            r.compiles,
            r.evictions,
            comma(i, service.len())
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"recovery\": [\n");
    for (i, r) in recovery.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"design\": \"{}\", \"cycles\": {}, \"kill_at\": {}, \
             \"detect_s\": {:.4}, \"respawn_s\": {:.4}, \"restore_s\": {:.4}, \
             \"replay_s\": {:.4}, \"replayed_cycles\": {}, \"total_s\": {:.4}, \
             \"recoveries\": {}, \"bit_identical\": {}}}{}\n",
            r.design,
            r.cycles,
            r.kill_at,
            r.detect_s,
            r.respawn_s,
            r.restore_s,
            r.replay_s,
            r.replayed_cycles,
            r.total_s,
            r.recoveries,
            r.bit_identical,
            comma(i, recovery.len())
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"explore\": [\n");
    for (i, r) in explore.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"design\": \"{}\", \"backend\": \"{}\", \"branches\": {}, \
             \"cycles\": {}, \"warmup\": {}, \"explore_s\": {:.4}, \
             \"branches_per_s\": {:.2}, \"branch_s\": {:.5}, \"cold_open_s\": {:.4}, \
             \"speedup_vs_cold\": {:.2}, \"compiles\": {}, \"workers\": {}, \
             \"forks\": {}, \"recoveries\": {}, \"retries\": {}, \
             \"bit_identical\": {}, \"snapshot_owned_bytes\": {}, \
             \"snapshot_deep_bytes\": {}}}{}\n",
            r.design,
            r.backend,
            r.branches,
            r.cycles,
            r.warmup,
            r.explore_s,
            r.branches_per_s,
            r.branch_s,
            r.cold_open_s,
            r.speedup_vs_cold,
            r.compiles,
            r.workers,
            r.forks,
            r.recoveries,
            r.retries,
            r.bit_identical,
            r.snapshot_owned_bytes,
            r.snapshot_deep_bytes,
            comma(i, explore.len())
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"wave\": [\n");
    for (i, r) in wave.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"design\": \"{}\", \"mode\": \"{}\", \"signals\": {}, \
             \"cycles\": {}, \"hz\": {:.1}, \"relative\": {:.4}, \
             \"vcd_bytes\": {}, \"bytes_per_cycle\": {:.2}}}{}\n",
            r.design,
            r.mode,
            r.signals,
            r.cycles,
            r.hz,
            r.relative,
            r.vcd_bytes,
            r.bytes_per_cycle,
            comma(i, wave.len())
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"threaded\": [\n");
    for (i, r) in threaded.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"label\": \"{}\", \"hz\": {:.1}, \"speedup\": {:.3}, \
             \"lowering_ms\": {:.3}, \"counters\": {}}}{}\n",
            r.label,
            r.hz,
            r.speedup,
            r.lowering_ms,
            counters_json(&r.counters),
            comma(i, threaded.len())
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"dispatch\": [\n");
    for (i, r) in dispatch.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"label\": \"{}\", \"engine\": \"{}\", \"hz\": {:.1}, \
             \"instrs_per_cycle\": {:.3}, \"counters\": {}}}{}\n",
            r.label,
            r.engine,
            r.hz,
            r.instrs_per_cycle,
            counters_json(&r.counters),
            comma(i, dispatch.len())
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

fn counters_json(c: &gsim::Counters) -> String {
    format!(
        "{{\"cycles\": {}, \"node_evals\": {}, \"supernode_evals\": {}, \"aexam_checks\": {}, \
         \"activation_ops\": {}, \"activations\": {}, \"value_changes\": {}, \
         \"reset_checks\": {}, \"instrs_executed\": {}}}",
        c.cycles,
        c.node_evals,
        c.supernode_evals,
        c.aexam_checks,
        c.activation_ops,
        c.activations,
        c.value_changes,
        c.reset_checks,
        c.instrs_executed
    )
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

fn section(name: &str) {
    println!("\n{}", "=".repeat(64));
    println!("== {name}");
    println!("{}", "=".repeat(64));
}

fn usage() {
    println!(
        "repro [all|table1|threads|dispatch|threaded|aot|session|service|recovery|explore|wave|fig6|fig7|fig8|fig9|table3|table4|factors] \
         [--scale F] [--cycles N] [--json [PATH]]"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage();
    std::process::exit(2);
}
