//! `gsim-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress and a metric table on stderr and, as the last line
//! of stdout, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. The traced run also writes its spans to
//! `.bench_run/trace-<workload>-<seed>.json`.

use gsim_perfbench::report::{result_line, END_TO_END, PER_LAYER};
use gsim_perfbench::rounds::Ctx;
use gsim_perfbench::{host, run_workload, RunCfg, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], not {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: gsim-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so every thread inherits the mask.
    let cpu = host::pin_to_one_cpu();
    match cpu {
        Some(c) => eprintln!("# {}: seed {}, pinned to CPU {c}", args.workload, args.seed),
        None => eprintln!("# {}: seed {}, UNPINNED", args.workload, args.seed),
    }
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        cpu,
    };
    let mut ctx = Ctx::new(args.trace);
    let mut m = match run_workload(&args.workload, &cfg, &mut ctx) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    m.insert("peak_rss_mb", host::peak_rss_mb());
    m.insert("host.pinned_cpu", cpu.map_or(-1.0, |c| c as f64));
    m.insert("trace.spans", ctx.spans.spans().len() as f64);
    if args.trace {
        let path = std::path::Path::new(".bench_run")
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(".bench_run")
            .and_then(|()| ctx.spans.write_chrome_trace(&path));
        match written {
            Ok(()) => eprintln!("# spans written to {}", path.display()),
            Err(e) => eprintln!("# spans not written to {}: {e}", path.display()),
        }
        eprintln!(
            "# {:<28} {:>9} {:>12} {:>12}",
            "span", "count", "total s", "self s"
        );
        for (name, t) in ctx.spans.summary() {
            eprintln!(
                "# {name:<28} {:>9} {:>12.6} {:>12.6}",
                t.count, t.total_s, t.self_s
            );
        }
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in catalogue {
        eprintln!(
            "{name:<40} {:>16.6} {unit}",
            m.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    eprintln!(
        "# operations: {} attempted, {} failed",
        ctx.ops.attempted, ctx.ops.failed
    );
    match result_line(ctx.ops, catalogue, &m) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
