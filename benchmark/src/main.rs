//! The repo benchmark. See `README.md` beside this package.
//!
//! ```text
//! rph-benchmark [run] --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//! rph-benchmark [run] [--seed S] [--seconds T] [--traced] [--smoke]   # every workload
//! rph-benchmark --list | --contract | --glossary
//! rph-benchmark compare A.json B.json
//! ```

mod compare;
mod contract;
mod harness;
mod host;
mod json;
mod metrics;
mod native;
mod probes;
mod report;
mod server;
mod sim;
mod spans;
mod stats;

use harness::{Opts, Setup};
use json::Json;
use std::process::{Command, ExitCode};

/// The seed of a run that names none.
pub const DEFAULT_SEED: u64 = 20_090_922;
/// How long a run measures when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 0.1;

fn setup_of(workload: &str) -> Option<Setup> {
    Some(match workload {
        metrics::NATIVE_COARSE => native::coarse,
        metrics::NATIVE_FINE => native::fine,
        metrics::NATIVE_EDEN => native::eden,
        metrics::SIM_MULTICORE => sim::multicore,
        metrics::SIM_MANYCORE => sim::manycore,
        metrics::SERVER_OPEN => server::open,
        metrics::SERVER_SAT => server::sat,
        _ => return None,
    })
}

struct Cli {
    workload: Option<String>,
    opts: Opts,
    /// Run-all only: also make the traced run of every workload.
    traced_too: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        opts: Opts {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            workers: host::workers(),
        },
        traced_too: false,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if metrics::workload(name).is_none() {
                    return Err(format!("unknown workload {name:?} (see --list)"));
                }
                cli.workload = Some(name.to_string());
            }
            "--seed" => {
                cli.opts.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                cli.opts.seconds = s;
                seconds_given = true;
            }
            "--trace" => {
                cli.opts.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--traced" => cli.traced_too = true,
            "--smoke" => cli.opts.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.opts.smoke && !seconds_given {
        cli.opts.seconds = SMOKE_SECONDS;
    }
    Ok(cli)
}

/// One workload, in this process. Prints the table, then the result
/// line; exits non-zero after printing everything if an operation failed.
fn run_one(workload: &'static str, opts: &Opts) -> ExitCode {
    let setup = setup_of(workload).expect("every listed workload has a set-up");
    let result = harness::run(workload, opts, setup);
    print!("{}", report::render(&result, opts.trace));

    let path = report::result_path(workload, opts.trace);
    let mut written = report::write_file(&path, &report::single_result_file(opts, &result));
    if opts.trace && written.is_ok() {
        let path = report::out_dir().join(format!("trace-{workload}.json"));
        written = report::write_file(&path, &result.spans.to_json(workload));
    }
    if let Err(e) = written {
        eprintln!(
            "warning: could not write under {}: {e}",
            report::out_dir().display()
        );
    }

    println!("{}", report::final_line(&result));
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in its own child process (so that peak memory,
/// memo tables and thread pools of one do not leak into the next), then
/// one merged result file.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut merged: Vec<(String, Json)> = Vec::new();
    let traces: &[bool] = if cli.traced_too {
        &[false, true]
    } else {
        &[false]
    };
    for w in metrics::WORKLOADS {
        let mut sections: Vec<(String, Json)> = Vec::new();
        for &trace in traces {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seed", &cli.opts.seed.to_string()])
                .args(["--seconds", &cli.opts.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if cli.opts.smoke {
                cmd.arg("--smoke");
            }
            // The child inherits standard output: its table and result
            // line appear as they are produced.
            ok &= cmd.status().is_ok_and(|s| s.success());
            let child_file = std::fs::read_to_string(report::result_path(w.name, trace))
                .map_err(|e| e.to_string())
                .and_then(|text| Json::parse(&text));
            match child_file
                .as_ref()
                .ok()
                .and_then(|f| f.get("workloads")?.get(w.name)?.as_obj())
            {
                // Later sections (per_layer) join the earlier ones; the
                // counts of the plain run stay.
                Some(pairs) => {
                    for (k, v) in pairs {
                        if !sections.iter().any(|(have, _)| have == k) {
                            sections.push((k.clone(), v.clone()));
                        }
                    }
                }
                None => {
                    eprintln!("{}: no readable result file", w.name);
                    ok = false;
                }
            }
        }
        merged.push((w.name.to_string(), Json::Obj(sections)));
    }
    let path = report::out_dir().join("result.json");
    match report::write_file(&path, &report::result_file(&cli.opts, merged)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match read(a)
        .and_then(|a| Ok((a, read(b)?)))
        .and_then(|(a, b)| compare::compare(&a, &b))
    {
        Ok((table, regressed)) => {
            print!("{table}");
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match args.first().map(String::as_str) {
        Some("compare") => {
            return match &args[1..] {
                [a, b] => compare_files(a, b),
                _ => {
                    eprintln!("usage: compare A.json B.json");
                    ExitCode::from(2)
                }
            };
        }
        Some("--list") => {
            for w in metrics::WORKLOADS {
                println!("{}", w.name);
            }
            return ExitCode::SUCCESS;
        }
        Some("--contract") => {
            print!("{}", contract::contract().pretty());
            return ExitCode::SUCCESS;
        }
        Some("--glossary") => {
            print!("{}", contract::glossary());
            return ExitCode::SUCCESS;
        }
        Some("run") => &args[1..],
        _ => &args[..],
    };
    let cli = match parse(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(name) => {
            let def = metrics::workload(name).expect("checked while parsing");
            run_one(def.name, &cli.opts)
        }
        None => run_all(&cli),
    }
}

#[cfg(test)]
mod tests;
