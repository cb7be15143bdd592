//! Targeted benchmark subcommands (distinct from the figure-reproducing
//! `repro` binary).
//!
//! ```sh
//! cargo run --release -p bench --bin bench -- kernels          # table
//! cargo run --release -p bench --bin bench -- kernels --json   # + BENCH_kernels.json
//! cargo run --release -p bench --bin bench -- kernels --json out.json
//! ```

use bench::{calibrate, ingest, kernels, obs_overhead, pipeline};
use std::process::ExitCode;

/// The subcommand flags: `--json [path]` and `--quick` everywhere, plus
/// `--chaos-seed <int>` for `pipeline` only.
struct Flags {
    json_path: Option<String>,
    quick: bool,
    chaos_seed: u64,
}

impl Flags {
    /// Writes the artifact when `--json` was given.
    fn write_json(&self, doc: impl FnOnce() -> String) {
        if let Some(path) = &self.json_path {
            dod_obs::write_atomic(std::path::Path::new(path), doc().as_bytes())
                .expect("write json");
            println!("\nwrote {path}");
        }
    }
}

/// Parses `cmd`'s flags; a bare `--json` writes to `default_json`.
/// Errors are printed and answer `None`.
fn parse_flags(cmd: &str, args: &[String], default_json: &str) -> Option<Flags> {
    let mut flags = Flags {
        json_path: None,
        quick: false,
        chaos_seed: 1,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                let path = it.next_if(|a| !a.starts_with("--"));
                flags.json_path = Some(path.map_or(default_json, String::as_str).to_string());
            }
            "--quick" => flags.quick = true,
            "--chaos-seed" if cmd == "pipeline" => {
                let Some(value) = it.next() else {
                    eprintln!("--chaos-seed needs a value");
                    return None;
                };
                match value.parse() {
                    Ok(seed) => flags.chaos_seed = seed,
                    Err(e) => {
                        eprintln!("--chaos-seed: {e}");
                        return None;
                    }
                }
            }
            other => {
                eprintln!("unknown {cmd} flag: {other}");
                return None;
            }
        }
    }
    Some(flags)
}

fn run_kernels(flags: &Flags) -> ExitCode {
    let min_time_s = if flags.quick { 0.05 } else { 0.4 };
    let rows = kernels::run_all(min_time_s);
    println!(
        "{:<22} {:>8} {:>16} {:>16} {:>9}",
        "bench", "backend", "kernel pairs/s", "scalar pairs/s", "speedup"
    );
    for r in &rows {
        println!(
            "{:<22} {:>8} {:>16.3e} {:>16.3e} {:>8.2}x",
            r.name, r.backend, r.pairs_per_sec, r.baseline_pairs_per_sec, r.speedup
        );
    }
    flags.write_json(|| kernels::to_json(&rows));
    ExitCode::SUCCESS
}

fn run_calibrate(flags: &Flags) -> ExitCode {
    let min_time_s = if flags.quick { 0.05 } else { 0.4 };
    let profile = calibrate::run_all(min_time_s);
    print!("{}", calibrate::render_table(&profile));
    flags.write_json(|| profile.to_json());
    ExitCode::SUCCESS
}

fn run_pipeline(flags: &Flags) -> ExitCode {
    let rows = pipeline::run_all(flags.quick, flags.chaos_seed);
    println!(
        "{:<8} {:>10} {:>9} {:>8} {:>11} {:>9} {:>12} {:>12} {:>11}",
        "bench",
        "wall ms",
        "outliers",
        "retries",
        "speculative",
        "spec won",
        "blacklisted",
        "block errors",
        "backoff ms"
    );
    for r in &rows {
        println!(
            "{:<8} {:>10.2} {:>9} {:>8} {:>11} {:>9} {:>12} {:>12} {:>11.2}",
            r.name,
            r.wall_ms,
            r.outliers,
            r.task_retries,
            r.speculative_launched,
            r.speculative_won,
            r.nodes_blacklisted,
            r.block_read_errors,
            r.backoff_ms
        );
    }
    flags.write_json(|| pipeline::to_json(&rows, flags.chaos_seed));
    ExitCode::SUCCESS
}

fn run_obs_overhead(flags: &Flags) -> ExitCode {
    let r = obs_overhead::run(flags.quick);
    println!(
        "{:<12} {:>14} {:>14} {:>10} {:>8}",
        "bench", "null med us", "telemetry us", "overhead", "budget"
    );
    println!(
        "{:<12} {:>14.1} {:>14.1} {:>9.2}% {:>7.1}%",
        "score_batch",
        r.null_us,
        r.telemetry_us,
        r.overhead_pct,
        bench::obs_overhead::OVERHEAD_BUDGET_PCT
    );
    flags.write_json(|| obs_overhead::to_json(&r, flags.quick));
    // Quick runs are smoke tests: too short to hold the budget to, so
    // they report without enforcing.
    if !flags.quick && !r.within_budget {
        eprintln!(
            "telemetry overhead {:.2}% exceeds the {:.1}% budget",
            r.overhead_pct,
            bench::obs_overhead::OVERHEAD_BUDGET_PCT
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run_ingest(flags: &Flags) -> ExitCode {
    let r = ingest::run(flags.quick);
    println!(
        "{:<8} {:>13} {:>13} {:>13} {:>13} {:>7} {:>7}",
        "bench", "inserts/s", "removes/s", "static us", "churn us", "ratio", "epochs"
    );
    println!(
        "{:<8} {:>13.0} {:>13.0} {:>13.1} {:>13.1} {:>6.2}x {:>7}",
        "ingest",
        r.inserts_per_sec,
        r.removes_per_sec,
        r.static_score_us,
        r.churn_score_us,
        r.latency_ratio,
        r.epochs
    );
    flags.write_json(|| ingest::to_json(&r, flags.quick));
    // Quick runs are smoke tests: too short to hold the budget to, so
    // they report without enforcing.
    if !flags.quick && !r.within_budget {
        eprintln!(
            "score latency under churn is {:.2}x the static baseline (budget {:.1}x)",
            r.latency_ratio,
            bench::ingest::LATENCY_BUDGET_X
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map_or("", String::as_str);
    let (default_json, run): (&str, fn(&Flags) -> ExitCode) = match cmd {
        "kernels" => ("BENCH_kernels.json", run_kernels),
        "calibrate" => ("BENCH_calibration.json", run_calibrate),
        "pipeline" => ("BENCH_pipeline.json", run_pipeline),
        "obs-overhead" => ("BENCH_obs_overhead.json", run_obs_overhead),
        "ingest" => ("BENCH_ingest.json", run_ingest),
        _ => {
            eprintln!(
                "usage: bench kernels  [--json [path]] [--quick]\n       \
                 bench calibrate [--json [path]] [--quick]\n       \
                 bench pipeline [--json [path]] [--quick] [--chaos-seed <int>]\n       \
                 bench obs-overhead [--json [path]] [--quick]\n       \
                 bench ingest [--json [path]] [--quick]"
            );
            return ExitCode::FAILURE;
        }
    };
    match parse_flags(cmd, &args[1..], default_json) {
        Some(flags) => run(&flags),
        None => ExitCode::FAILURE,
    }
}
