//! `flowbench` — the measuring half of the repository benchmark.
//!
//! ```text
//! flowbench gen   --workload W --seed N --dir D
//! flowbench run   --workload W --dir D [--dir D2 ...]
//! flowbench trace --workload W --dir D
//! ```
//!
//! `gen` writes a design of workload `W` for seed `N` as Bookshelf files
//! into `D`. `run` reads the designs back and places each with
//! `Placer::run` (default `EplaceConfig`, one thread) once, and checks
//! every result. `trace` places one
//! design untraced, then replays the flow stage by stage and probes each
//! kernel, timing calls into the crates' public functions. Each command
//! prints one JSON line; `run.py` turns them into the benchmark's result.

mod json;
mod timed;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    dirs: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command (gen, run or trace)")?;
    let mut workload = None;
    let mut seed = 0;
    let mut dirs = Vec::new();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--dir" => dirs.push(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("missing --workload")?,
        seed,
        dirs: if dirs.is_empty() {
            return Err("missing --dir".into());
        } else {
            dirs
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "gen" => {
            let (design, optimum) = args.workload.generate(args.seed);
            args.workload
                .write(&design, optimum, &args.dirs[0])
                .map(|()| {
                    json::Obj::new()
                        .num("optimum_hpwl", optimum.unwrap_or(f64::NAN))
                        .finish()
                })
                .map_err(|e| e.to_string())
        }
        "run" => timed::run(args.workload, &args.dirs),
        "trace" => traced::run(args.workload, &args.dirs[0]),
        other => Err(format!("unknown command {other}")),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("flowbench: {e}");
            ExitCode::FAILURE
        }
    }
}
