//! `bench_gate` — the CI bench-regression gate.
//!
//! ```text
//! bench_gate --baseline BENCH_interp.json --fresh smoke.json [--fresh2 smoke2.json]
//! ```
//!
//! Checks that a fresh `repro --json` output still carries the full
//! `BENCH_interp.json` schema — every required key, every dispatch
//! label the committed baseline has — and, when a second fresh run is
//! supplied, that the deterministic semantic counters agree between
//! the two runs within a 2× drift bound (they are pinned exactly equal
//! by the test suite; the gate's looser bound keeps it robust to
//! intentional counter-definition changes landing with their own
//! baseline update). Absolute `hz` numbers of fresh runs are *not*
//! gated — CI runners are too noisy — only schema and counter shape
//! are. The *committed baseline*, however, is a reviewed document:
//! its threaded-backend block must back the perf claim (jit speedup
//! of at least [`MIN_THREADED_SPEEDUP`] over the interpreter with a
//! sub-100 ms lowering pass), and its recovery, explore and wave rows
//! must back theirs. A baseline violating them was measured wrong
//! (e.g. the cold-first-config inversion that warmup cycles now
//! prevent) and must not be committed.
//!
//! Exit code 0 = gate passed; 1 = failures (listed on stderr);
//! 2 = usage/IO error.

use gsim_bench::json::{self, Json};

const TOP_KEYS: &[&str] = &[
    "schema",
    "scale",
    "cycles",
    "smoke",
    "design",
    "nodes",
    "host_cores",
    "threads_note",
    "threads",
    "dispatch",
    "threaded",
    "aot",
    "session",
    "service",
    "recovery",
    "explore",
    "wave",
];
const THREAD_ROW_KEYS: &[&str] = &["engine", "threads", "hz", "speedup"];
const DISPATCH_ROW_KEYS: &[&str] = &["label", "engine", "hz", "instrs_per_cycle", "counters"];
const THREADED_ROW_KEYS: &[&str] = &["label", "hz", "speedup", "lowering_ms", "counters"];
const COUNTER_KEYS: &[&str] = &[
    "cycles",
    "node_evals",
    "supernode_evals",
    "aexam_checks",
    "activation_ops",
    "activations",
    "value_changes",
    "reset_checks",
    "instrs_executed",
];
const AOT_ROW_KEYS: &[&str] = &[
    "design",
    "emit_s",
    "rustc_s",
    "code_bytes",
    "binary_bytes",
    "data_bytes",
    "aot_hz",
    "interp_hz",
    "speedup",
];
const SESSION_ROW_KEYS: &[&str] = &[
    "design",
    "steps",
    "persistent_s",
    "persistent_hz",
    "respawn_s",
    "respawn_hz",
    "interp_hz",
    "speedup",
];

const SERVICE_ROW_KEYS: &[&str] = &[
    "design",
    "clients",
    "steps",
    "cold_open_s",
    "warm_open_s",
    "warm_speedup",
    "sessions_per_sec",
    "p50_step_us",
    "p99_step_us",
    "hits",
    "misses",
    "compiles",
    "evictions",
];

const RECOVERY_ROW_KEYS: &[&str] = &[
    "design",
    "cycles",
    "kill_at",
    "detect_s",
    "respawn_s",
    "restore_s",
    "replay_s",
    "replayed_cycles",
    "total_s",
    "recoveries",
    "bit_identical",
];

const EXPLORE_ROW_KEYS: &[&str] = &[
    "design",
    "backend",
    "branches",
    "cycles",
    "warmup",
    "explore_s",
    "branches_per_s",
    "branch_s",
    "cold_open_s",
    "speedup_vs_cold",
    "compiles",
    "workers",
    "forks",
    "recoveries",
    "retries",
    "bit_identical",
    "snapshot_owned_bytes",
    "snapshot_deep_bytes",
];

const WAVE_ROW_KEYS: &[&str] = &[
    "design",
    "mode",
    "signals",
    "cycles",
    "hz",
    "relative",
    "vcd_bytes",
    "bytes_per_cycle",
];

/// Maximum allowed ratio between the two fresh runs' counters.
const MAX_COUNTER_DRIFT: f64 = 2.0;

/// The threaded backend's perf claim, enforced on the committed
/// baseline: at least this speedup over the interpreter. Measured
/// band on the XiangShan dispatch workload is 1.2–1.4x: lowering
/// cuts indirect dispatches ~3x (dispatch fusion) and erases decode,
/// but the whole-cycle number is Amdahl-capped by the shared
/// store/activate epilogue, sweep loop, and commit (~10 us of the
/// ~30 us interp cycle), so the floor sits below the band to absorb
/// host noise.
const MIN_THREADED_SPEEDUP: f64 = 1.10;
/// …with a lowering pass cheaper than this (milliseconds) — the whole
/// point is a cold start with no compile in it.
const MAX_LOWERING_MS: f64 = 100.0;

/// The fault-tolerance claim, enforced on the committed baseline's
/// `recovery` rows: killing the AoT child mid-run must be detected,
/// respawned, restored, and replayed within this many seconds. The
/// measured end-to-end recovery sits well under a second (dominated
/// by the child process respawn); the bound absorbs slow hosts while
/// still catching a recovery path that degenerated into a recompile
/// or a full rerun.
const MAX_RECOVERY_TOTAL_S: f64 = 5.0;

/// The scenario-exploration claim, enforced on the committed
/// baseline's `explore` aot row: forking a warmed compiled session
/// must beat opening a cold session per branch by at least this
/// factor. The cold path pays emit + `rustc -O` + spawn + warmup
/// (seconds); a forked branch pays an export/import round trip plus
/// the branch run (milliseconds), so the real ratio is in the
/// hundreds — 10x is the floor that still catches the pool quietly
/// recompiling per branch.
const MIN_EXPLORE_SPEEDUP_VS_COLD: f64 = 10.0;

/// The waveform subsystem's zero-cost-when-off claim, enforced on the
/// committed baseline: with no trace active, the wave experiment's
/// `off` row must run at least this fraction of the dispatch
/// experiment's untraced "GSIM" speed on the same design and
/// workload. Tracing is gated at lowering time, so the true ratio is
/// ~1.0; the floor absorbs run-to-run noise between the two
/// experiments.
const MIN_WAVE_OFF_RATIO: f64 = 0.95;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline: Option<String> = None;
    let mut fresh: Option<String> = None;
    let mut fresh2: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => baseline = it.next().cloned(),
            "--fresh" => fresh = it.next().cloned(),
            "--fresh2" => fresh2 = it.next().cloned(),
            "--help" | "-h" => {
                usage();
                return;
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    let baseline = baseline.unwrap_or_else(|| die("--baseline is required"));
    let fresh = fresh.unwrap_or_else(|| die("--fresh is required"));

    let base = load(&baseline);
    let new = load(&fresh);
    let mut failures: Vec<String> = Vec::new();

    check_schema(&new, &fresh, &mut failures);
    check_labels(&base, &new, &mut failures);
    check_baseline_claims(&base, &baseline, &mut failures);

    if let Some(fresh2) = fresh2 {
        let new2 = load(&fresh2);
        check_schema(&new2, &fresh2, &mut failures);
        check_counter_drift(&new, &new2, &mut failures);
    }

    if failures.is_empty() {
        println!("bench gate: OK ({fresh} matches the {baseline} schema)");
    } else {
        for f in &failures {
            eprintln!("bench gate FAIL: {f}");
        }
        std::process::exit(1);
    }
}

fn load(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    json::parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

/// Every required key present, with the right container shapes.
fn check_schema(doc: &Json, path: &str, failures: &mut Vec<String>) {
    for &k in TOP_KEYS {
        if doc.get(k).is_none() {
            failures.push(format!("{path}: missing top-level key {k:?}"));
        }
    }
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s.starts_with("gsim-bench-interp/") => {}
        other => failures.push(format!("{path}: unexpected schema tag {other:?}")),
    }
    for (arr_key, row_keys) in [
        ("threads", THREAD_ROW_KEYS),
        ("dispatch", DISPATCH_ROW_KEYS),
        ("threaded", THREADED_ROW_KEYS),
        ("aot", AOT_ROW_KEYS),
        ("session", SESSION_ROW_KEYS),
        ("service", SERVICE_ROW_KEYS),
        ("recovery", RECOVERY_ROW_KEYS),
        ("explore", EXPLORE_ROW_KEYS),
        ("wave", WAVE_ROW_KEYS),
    ] {
        let Some(rows) = doc.get(arr_key).and_then(Json::as_arr) else {
            failures.push(format!("{path}: {arr_key:?} is not an array"));
            continue;
        };
        // The AoT-backed blocks may legitimately be empty on a
        // rustc-less host; `check_labels` still catches them
        // *vanishing* relative to a baseline that has them.
        // (`explore` is not in this list: its interp and jit rows
        // need no rustc, so the block must never be empty.)
        let aot_backed = matches!(arr_key, "aot" | "session" | "service" | "recovery");
        if !aot_backed && rows.is_empty() {
            failures.push(format!("{path}: {arr_key:?} is empty"));
        }
        for (i, row) in rows.iter().enumerate() {
            for &k in row_keys {
                if row.get(k).is_none() {
                    failures.push(format!("{path}: {arr_key}[{i}] missing key {k:?}"));
                }
            }
            if matches!(arr_key, "dispatch" | "threaded") {
                if let Some(c) = row.get("counters") {
                    for &k in COUNTER_KEYS {
                        if c.get(k).is_none() {
                            failures.push(format!("{path}: {arr_key}[{i}].counters missing {k:?}"));
                        }
                    }
                }
            }
        }
    }
}

/// Every dispatch label of the committed baseline must still be
/// produced by a fresh run, and an AoT block present in the baseline
/// cannot silently become empty (configurations cannot vanish).
fn check_labels(base: &Json, new: &Json, failures: &mut Vec<String>) {
    let arr_len =
        |doc: &Json, key: &str| doc.get(key).and_then(Json::as_arr).map_or(0, <[Json]>::len);
    for key in ["aot", "session", "service", "recovery", "explore"] {
        if arr_len(base, key) > 0 && arr_len(new, key) == 0 {
            failures.push(format!(
                "fresh run recorded no {key:?} rows although the baseline has them \
                 (rustc missing on the runner, or the AoT build broke)"
            ));
        }
    }
    let labels = |doc: &Json, key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .map(|rows| {
                rows.iter()
                    .filter_map(|r| r.get("label").and_then(Json::as_str).map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    };
    for key in ["dispatch", "threaded"] {
        let new_labels = labels(new, key);
        for l in labels(base, key) {
            if !new_labels.contains(&l) {
                failures.push(format!(
                    "fresh run lost the {key} configuration {l:?} present in the baseline"
                ));
            }
        }
    }
}

/// The committed baseline must back the threaded backend's perf
/// claim. Fresh CI runs are exempt (noisy runners), but the document
/// the README cites has to hold up.
fn check_baseline_claims(base: &Json, path: &str, failures: &mut Vec<String>) {
    let Some(rows) = base.get("threaded").and_then(Json::as_arr) else {
        return; // missing block already reported by check_schema
    };
    let Some(jit) = rows
        .iter()
        .find(|r| r.get("label").and_then(Json::as_str) == Some("GSIM-JIT"))
    else {
        failures.push(format!("{path}: threaded block has no \"GSIM-JIT\" row"));
        return;
    };
    // NaN (a missing or non-numeric field) must fail both claims.
    let num = |k: &str| jit.get(k).and_then(Json::as_num).unwrap_or(f64::NAN);
    use std::cmp::Ordering::Less;
    let speedup = num("speedup");
    if matches!(
        speedup.partial_cmp(&MIN_THREADED_SPEEDUP),
        None | Some(Less)
    ) {
        failures.push(format!(
            "{path}: committed GSIM-JIT speedup {speedup:.2}x is below the claimed \
             {MIN_THREADED_SPEEDUP}x over the interpreter"
        ));
    }
    let lowering = num("lowering_ms");
    if lowering.partial_cmp(&MAX_LOWERING_MS) != Some(Less) {
        failures.push(format!(
            "{path}: committed GSIM-JIT lowering pass took {lowering:.1} ms \
             (claim: under {MAX_LOWERING_MS} ms)"
        ));
    }
    check_recovery_claims(base, path, failures);
    check_explore_claims(base, path, failures);
    check_wave_claims(base, path, failures);
}

/// The committed baseline's `wave` rows must back the waveform
/// subsystem's claims. Zero-cost-when-off: the off row's speed must
/// be at least [`MIN_WAVE_OFF_RATIO`] of the dispatch experiment's
/// untraced "GSIM" row (same design, same workload, no tracer
/// anywhere) — a lower number means tracing leaked a per-store cost
/// into the hot loop even when no trace is active. Measured-when-on:
/// the traced rows must actually have produced VCD bytes (a full
/// trace that wrote nothing was measured wrong).
fn check_wave_claims(base: &Json, path: &str, failures: &mut Vec<String>) {
    use std::cmp::Ordering::{Greater, Less};
    let Some(rows) = base.get("wave").and_then(Json::as_arr) else {
        return; // missing block already reported by check_schema
    };
    let row = |mode: &str| {
        rows.iter()
            .find(|r| r.get("mode").and_then(Json::as_str) == Some(mode))
    };
    let num = |r: &Json, k: &str| r.get(k).and_then(Json::as_num).unwrap_or(f64::NAN);
    let Some(off) = row("off") else {
        failures.push(format!("{path}: wave block has no \"off\" row"));
        return;
    };
    let dispatch_hz = base
        .get("dispatch")
        .and_then(Json::as_arr)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("label").and_then(Json::as_str) == Some("GSIM"))
        })
        .map_or(f64::NAN, |r| num(r, "hz"));
    let off_hz = num(off, "hz");
    let floor = MIN_WAVE_OFF_RATIO * dispatch_hz;
    if matches!(off_hz.partial_cmp(&floor), None | Some(Less)) {
        failures.push(format!(
            "{path}: wave off row runs at {off_hz:.0} cyc/s vs the dispatch GSIM row's \
             {dispatch_hz:.0} — below the {MIN_WAVE_OFF_RATIO}x zero-cost-when-off floor"
        ));
    }
    for mode in ["subset", "full"] {
        match row(mode) {
            None => failures.push(format!("{path}: wave block has no {mode:?} row")),
            Some(r) => {
                if !matches!(num(r, "vcd_bytes").partial_cmp(&0.0), Some(Greater)) {
                    failures.push(format!(
                        "{path}: wave {mode} row emitted no VCD bytes — the trace was not live"
                    ));
                }
            }
        }
    }
}

/// The committed baseline's `explore` rows must back the
/// snapshot-fork claims: every branch bit-identical to the sequential
/// reference replay on every backend, no fatal-error retries, and on
/// the aot row exactly one host-compiler invocation with a per-branch
/// speedup of at least [`MIN_EXPLORE_SPEEDUP_VS_COLD`] over a cold
/// session per branch.
fn check_explore_claims(base: &Json, path: &str, failures: &mut Vec<String>) {
    use std::cmp::Ordering::Less;
    let Some(rows) = base.get("explore").and_then(Json::as_arr) else {
        return; // missing block already reported by check_schema
    };
    for row in rows {
        let backend = row
            .get("backend")
            .and_then(Json::as_str)
            .unwrap_or("<unnamed>");
        if row.get("bit_identical") != Some(&Json::Bool(true)) {
            failures.push(format!(
                "{path}: explore row {backend:?} is not bit-identical to the \
                 sequential reference replay — forked branches are diverging wrong"
            ));
        }
        let num = |k: &str| row.get(k).and_then(Json::as_num).unwrap_or(f64::NAN);
        if num("retries") != 0.0 {
            failures.push(format!(
                "{path}: explore row {backend:?} needed {} fatal-error retries \
                 on an uninjected run",
                num("retries")
            ));
        }
        if backend == "aot" {
            if num("compiles") != 1.0 {
                failures.push(format!(
                    "{path}: explore aot row recorded {} compiles — the pool must \
                     fork siblings of one compiled binary (expected exactly 1)",
                    num("compiles")
                ));
            }
            let speedup = num("speedup_vs_cold");
            if matches!(
                speedup.partial_cmp(&MIN_EXPLORE_SPEEDUP_VS_COLD),
                None | Some(Less)
            ) {
                failures.push(format!(
                    "{path}: explore aot row's speedup vs a cold session per branch \
                     is {speedup:.1}x (claim: at least {MIN_EXPLORE_SPEEDUP_VS_COLD}x)"
                ));
            }
        }
    }
}

/// The committed baseline's `recovery` rows must back the
/// fault-tolerance claims: recovery is bit-identical to an
/// uninterrupted run and bounded in time. (An empty block is legal —
/// a rustc-less measurement host — and caught by `check_labels` when
/// it *vanishes* relative to a baseline that had rows.)
fn check_recovery_claims(base: &Json, path: &str, failures: &mut Vec<String>) {
    use std::cmp::Ordering::Less;
    let Some(rows) = base.get("recovery").and_then(Json::as_arr) else {
        return; // missing block already reported by check_schema
    };
    for row in rows {
        let design = row
            .get("design")
            .and_then(Json::as_str)
            .unwrap_or("<unnamed>");
        if row.get("bit_identical") != Some(&Json::Bool(true)) {
            failures.push(format!(
                "{path}: recovery row {design:?} is not bit-identical to the \
                 uninterrupted run — replay-based recovery is broken"
            ));
        }
        let total = row
            .get("total_s")
            .and_then(Json::as_num)
            .unwrap_or(f64::NAN);
        if total.partial_cmp(&MAX_RECOVERY_TOTAL_S) != Some(Less) {
            failures.push(format!(
                "{path}: recovery row {design:?} took {total:.2} s end to end \
                 (claim: under {MAX_RECOVERY_TOTAL_S} s)"
            ));
        }
        let recoveries = row
            .get("recoveries")
            .and_then(Json::as_num)
            .unwrap_or(f64::NAN);
        if recoveries != 1.0 {
            failures.push(format!(
                "{path}: recovery row {design:?} recorded {recoveries} recoveries \
                 for one injected kill (expected exactly 1)"
            ));
        }
    }
}

/// The semantic counters of two fresh runs over the same smoke
/// configuration must agree within [`MAX_COUNTER_DRIFT`].
fn check_counter_drift(a: &Json, b: &Json, failures: &mut Vec<String>) {
    let rows = |doc: &Json| -> Vec<(String, Json)> {
        doc.get("dispatch")
            .and_then(Json::as_arr)
            .map(|rows| {
                rows.iter()
                    .filter_map(|r| {
                        Some((
                            r.get("label")?.as_str()?.to_string(),
                            r.get("counters")?.clone(),
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let rb = rows(b);
    for (label, ca) in rows(a) {
        let Some((_, cb)) = rb.iter().find(|(l, _)| *l == label) else {
            failures.push(format!("second run lost dispatch configuration {label:?}"));
            continue;
        };
        for &k in COUNTER_KEYS {
            let (va, vb) = (
                ca.get(k).and_then(Json::as_num).unwrap_or(f64::NAN),
                cb.get(k).and_then(Json::as_num).unwrap_or(f64::NAN),
            );
            if va == 0.0 && vb == 0.0 {
                continue;
            }
            let ratio = if va <= 0.0 || vb <= 0.0 {
                f64::INFINITY
            } else {
                (va / vb).max(vb / va)
            };
            if ratio.is_nan() || ratio > MAX_COUNTER_DRIFT {
                failures.push(format!(
                    "{label:?}: counter {k} drifted {ratio:.2}x between runs ({va} vs {vb}, bound {MAX_COUNTER_DRIFT}x)"
                ));
            }
        }
    }
}

fn usage() {
    println!("bench_gate --baseline BENCH_interp.json --fresh smoke.json [--fresh2 smoke2.json]");
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage();
    std::process::exit(2);
}
