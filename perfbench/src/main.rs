//! `perfbench` — runs one workload and prints its metrics, ending with
//! one JSON result line.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-2d --seed 1 --seconds 20 --trace 0
//! perfbench --workload all --seed 1 --seconds 20 --trace 0   # every workload
//! perfbench --smoke                                          # quick check
//! perfbench compare a.json b.json                            # two records
//! ```

use perfbench::report::{self, Outcome};
use perfbench::workload::{Scale, Spec, NAMES};
use perfbench::Options;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: perfbench --workload <batch-2d|batch-4d|serve-2d|all> --seed <n> --seconds <n> --trace <0|1> [--out <record.json>]
       perfbench --smoke [--seed <n>]
       perfbench compare <a.json> <b.json>";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !a.smoke && a.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare(&args[1..]);
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcomes = if args.smoke {
        perfbench::smoke(&root, args.seed)
    } else {
        run_workloads(&args, root)
    };
    let outcomes = match outcomes {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for o in &outcomes {
        print!("{}", o.render());
    }
    if let Some(path) = &args.out {
        let [outcome] = outcomes.as_slice() else {
            eprintln!(
                "error: --out records one workload run, not {}",
                outcomes.len()
            );
            return ExitCode::from(2);
        };
        if let Err(e) = std::fs::write(path, outcome.record()) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let attempted = outcomes.iter().map(|o| o.tally.attempted).sum();
    let failed = outcomes.iter().map(|o| o.tally.failed).sum();
    let correct = outcomes.iter().all(Outcome::correct);
    let metrics = if outcomes.len() == 1 {
        outcomes[0].metrics.clone()
    } else {
        // Several workloads: prefix each metric with its workload.
        outcomes
            .iter()
            .flat_map(|o| {
                let trace = o.meta.iter().any(|(k, v)| *k == "trace" && v == "1");
                o.metrics.iter().map(move |m| report::Metric {
                    name: format!(
                        "{}{}.{}",
                        o.workload,
                        if trace { ".traced" } else { "" },
                        m.name
                    ),
                    ..m.clone()
                })
            })
            .collect()
    };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}

fn run_workloads(args: &Args, root: PathBuf) -> Result<Vec<Outcome>, String> {
    let name = args.workload.as_deref().unwrap_or_default();
    let names: Vec<&str> = if name == "all" {
        NAMES.to_vec()
    } else {
        vec![name]
    };
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Full,
        root,
    };
    names
        .into_iter()
        .map(|n| {
            let spec =
                Spec::get(n, Scale::Full).ok_or_else(|| format!("unknown workload {n:?}"))?;
            perfbench::run(&spec, &opts)
        })
        .collect()
}

fn compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    match read(a).and_then(|a| read(b).and_then(|b| report::compare(&a, &b))) {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
