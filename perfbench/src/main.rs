//! The AquaModem benchmark: four workloads over the public entry points of
//! the workspace crates, end-to-end metrics with tracing off and per-layer
//! metrics from a separate traced run. See README.md.
//!
//! ```text
//! perfbench --workload <link|transfer|ocean|relay|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--workers <n>] [--smoke]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod bulk;
mod link;
mod ocean;
mod pool;
mod relay;
mod report;
mod transfer;
mod trial;
mod util;
mod workload;

use workload::{measure, zero_fill_layers, Opts, Outcome};

const WORKLOADS: [&str; 4] = ["link", "transfer", "ocean", "relay"];

fn run_one(name: &str, opts: &Opts) -> Outcome {
    match name {
        "link" => measure::<link::Link>(opts),
        "transfer" => measure::<transfer::Transfer>(opts),
        "ocean" => measure::<ocean::Ocean>(opts),
        "relay" => measure::<relay::Relay>(opts),
        _ => unreachable!("workload names are validated before dispatch"),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
         [--workers <n>] [--smoke]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// The commit under test, when the benchmark runs in a git checkout (the
/// search stops at the current directory).
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where a traced run writes its spans: beside the binary, inside the
/// build directory.
fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("spans")))
        .unwrap_or_else(|| std::path::PathBuf::from("spans"));
    dir.join(format!("{workload}-seed{seed}.jsonl"))
}

fn main() {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut workers = aqua_par::Pool::from_env().threads();
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--workers" => {
                workers = value
                    .parse::<usize>()
                    .ok()
                    .filter(|w| *w >= 1)
                    .unwrap_or_else(|| usage("--workers needs a positive integer"))
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let names: Vec<&str> = match workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w if WORKLOADS.contains(&w) => vec![w],
        w => usage(&format!("unknown workload {w}")),
    };
    let opts = Opts {
        seed: seed.unwrap_or_else(|| usage("--seed needs a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
        workers,
        smoke,
    };
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "perfbench workload={workload} seed={} seconds={} trace={} workers={workers} nproc={nproc} \
         commit={} rustc=\"{}\" rustflags=\"{}\"{}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        git_commit(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_RUSTFLAGS"),
        if smoke { " smoke" } else { "" }
    );

    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for name in &names {
        let mut out = run_one(name, &opts);
        if opts.trace {
            zero_fill_layers(&mut out.values);
        }
        for line in &out.lines {
            println!("{line}");
        }
        if let Some(log) = &out.spans {
            let path = spans_path(name, opts.seed);
            match log.write_jsonl(&path) {
                Ok(()) => println!("{name}: spans written to {}", path.display()),
                Err(e) => println!("{name}: could not write spans to {}: {e}", path.display()),
            }
        }
        if opts.trace {
            budgets(name, &out.values);
        }
        for (metric, value, unit) in report::select(&out.values, opts.trace) {
            println!("{name}: {metric} = {value} {unit}");
            let key = if names.len() > 1 {
                format!("{name}.{metric}")
            } else {
                metric
            };
            metrics.push((key, value, unit));
        }
        attempted += out.ops;
        failed += out.failed;
    }
    println!(
        "{}",
        report::result_json(failed == 0, attempted.max(1), failed, &metrics)
    );
}

/// The paper's §3 phone budgets for the receiver stages, as a report (not
/// a gate): adaptation (estimate + select + feedback encode) within 2 ms,
/// packet decode (locate + demodulate) under 20 ms.
fn budgets(name: &str, v: &report::Values) {
    for (metric, limit) in [("rx.adapt_ms", 2.0), ("rx.decode_ms", 20.0)] {
        let x = v.get(metric);
        if x > 0.0 {
            let verdict = if x <= limit { "PASS" } else { "FAIL" };
            println!("{name}: budget {metric} = {x:.3} ms vs {limit} ms: {verdict}");
        }
    }
}
