//! End-to-end smoke test for the `gsim` CLI binary: compile and
//! simulate a design from `gsim_designs` through the real executable,
//! asserting nonzero simulated cycles and stable optimization stats.

use std::path::PathBuf;
use std::process::Command;

fn write_design(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gsim_cli_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // One file per test: both tests run concurrently in this process,
    // and a shared path would race a writer against the other test's
    // spawned gsim reader.
    let path = dir.join(format!("stu_core_{test}.fir"));
    std::fs::write(&path, gsim_designs::stu_core_firrtl()).unwrap();
    path
}

struct Run {
    stderr: String,
    stdout: String,
}

fn run_gsim(design: &PathBuf, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_gsim"))
        .arg(design)
        .args(extra)
        .output()
        .expect("failed to spawn gsim binary");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "gsim exited with {:?}\nstderr:\n{stderr}\nstdout:\n{stdout}",
        out.status
    );
    Run { stderr, stdout }
}

/// The `nodes`/`supernodes` report lines, i.e. the optimization stats
/// that must not wobble between runs of the same input.
fn stats_lines(stderr: &str) -> Vec<&str> {
    stderr
        .lines()
        .filter(|l| l.starts_with("nodes") || l.starts_with("supernodes"))
        .collect()
}

#[test]
fn cli_simulates_design_with_stable_stats() {
    let design = write_design("stable_stats");
    let args = ["--preset", "gsim", "--cycles", "100"];

    let first = run_gsim(&design, &args);

    // Nonzero simulated cycles, reported on stderr.
    let sim_line = first
        .stderr
        .lines()
        .find(|l| l.starts_with("simulated"))
        .unwrap_or_else(|| panic!("no 'simulated' line in stderr:\n{}", first.stderr));
    let cycles: u64 = sim_line
        .split_whitespace()
        .nth(1)
        .and_then(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("unparseable simulated line: {sim_line}"));
    assert_eq!(cycles, 100, "expected the requested cycle count");

    // The optimization report is present.
    let stats = stats_lines(&first.stderr);
    assert!(
        stats.iter().any(|l| l.starts_with("nodes")),
        "missing nodes line:\n{}",
        first.stderr
    );
    assert!(
        stats.iter().any(|l| l.starts_with("supernodes")),
        "missing supernodes line:\n{}",
        first.stderr
    );

    // Output values are printed for the design's ports.
    assert!(
        first.stdout.lines().any(|l| l.contains(" = ")),
        "no output port values on stdout:\n{}",
        first.stdout
    );

    // Stable: an identical second run reports identical stats and
    // identical simulated outputs (the whole pipeline is deterministic).
    let second = run_gsim(&design, &args);
    assert_eq!(
        stats,
        stats_lines(&second.stderr),
        "optimization stats wobbled"
    );
    assert_eq!(first.stdout, second.stdout, "simulated outputs wobbled");
}

#[test]
fn cli_presets_agree_on_outputs() {
    let design = write_design("presets_agree");
    let gsim_run = run_gsim(&design, &["--preset", "gsim", "--cycles", "64"]);
    let veri_run = run_gsim(&design, &["--preset", "verilator", "--cycles", "64"]);
    assert_eq!(
        gsim_run.stdout, veri_run.stdout,
        "gsim and verilator presets disagree on simulated outputs"
    );
}

#[test]
fn cli_aot_backend_agrees_with_interpreter() {
    if !gsim_codegen::rustc_available() {
        eprintln!("skipping: rustc not available");
        return;
    }
    let design = write_design("aot_backend");
    let interp = run_gsim(&design, &["--preset", "gsim", "--cycles", "64"]);
    let aot = run_gsim(&design, &["--backend", "aot", "--cycles", "64"]);
    // Identical `name = <w>'h<hex>` output lines from both backends.
    assert_eq!(
        interp.stdout, aot.stdout,
        "aot backend disagrees with the interpreter on simulated outputs"
    );
    assert!(
        aot.stderr.contains("aot      : emitted"),
        "missing aot stats line:\n{}",
        aot.stderr
    );
    assert!(
        aot.stderr.contains("[compiled binary]"),
        "missing compiled-binary timing line:\n{}",
        aot.stderr
    );
}

#[test]
fn cli_threads_is_verilator_only() {
    let design = write_design("threads");
    // GSIM has no multithreaded engine: `--threads` must refuse, naming
    // the preset that has one, rather than silently run one thread.
    let out = Command::new(env!("CARGO_BIN_EXE_gsim"))
        .arg(&design)
        .args(["--preset", "gsim", "--threads", "2", "--cycles", "8"])
        .output()
        .expect("failed to spawn gsim binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "gsim --threads must fail:\n{stderr}");
    assert!(
        stderr.contains("error:") && stderr.contains("--preset verilator"),
        "the refusal must name the verilator preset:\n{stderr}"
    );
    // Verilator `--threads N` runs, and agrees with one thread.
    let mt = run_gsim(
        &design,
        &["--preset", "verilator", "--threads", "2", "--cycles", "64"],
    );
    assert!(mt.stderr.contains("Verilator-2T"), "{}", mt.stderr);
    let st = run_gsim(&design, &["--preset", "verilator", "--cycles", "64"]);
    assert_eq!(
        mt.stdout, st.stdout,
        "Verilator-2T disagrees with one thread"
    );
}
