//! Regenerates the paper's figures as text tables.
//!
//! Usage: `repro [list|all|<experiment>] [quick|standard|full]`
//!
//! Examples:
//!   repro all standard      # every figure at ~40 packets/config
//!   repro fig9 full         # the environments experiment at paper scale
//!   repro list              # list available experiments
//!
//! Bad input (an unknown experiment or size, an extra argument, or an
//! `AQUA_PAR_THREADS` that is not a worker count) exits with status 2
//! before any experiment starts.

use aqua_eval::{engine, experiment, RunSize, EXPERIMENTS};
use aqua_par::Pool;
use std::process::exit;

const USAGE: &str = "usage: repro [list|all|<experiment>] [quick|standard|full]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 2 {
        eprintln!("unexpected argument {:?}\n{USAGE}", args[2]);
        exit(2);
    }
    let size = match args.get(1) {
        None => RunSize::Standard,
        Some(word) => RunSize::parse(word).unwrap_or_else(|| {
            eprintln!("unknown size {word:?}\n{USAGE}");
            exit(2)
        }),
    };
    let selected = match args.first().map_or("all", String::as_str) {
        "list" => {
            for e in EXPERIMENTS {
                println!("{:<12} {:<16} {}", e.name, e.paper_ref, e.what);
            }
            return;
        }
        "all" => EXPERIMENTS,
        name => match experiment(name) {
            Some(e) => std::slice::from_ref(e),
            None => {
                eprintln!("unknown experiment {name:?}; try `repro list`");
                exit(2);
            }
        },
    };

    if let Err(e) = Pool::try_from_env() {
        eprintln!("{e}");
        exit(2);
    }
    let eng = engine::global();
    for e in selected {
        let trials_before = eng.trials_run();
        let start = std::time::Instant::now();
        println!("{}", (e.run)(size));
        let wall = start.elapsed().as_secs_f64();
        let trials = eng.trials_run() - trials_before;
        if trials > 0 {
            eprintln!(
                "[{} took {wall:.1} s — {trials} trials, {:.1} trials/s on {} worker(s)]",
                e.name,
                trials as f64 / wall.max(1e-9),
                eng.workers(),
            );
        } else {
            eprintln!("[{} took {wall:.1} s]", e.name);
        }
    }
}
