//! Command line of the benchmark.
//!
//! ```text
//! xt-benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! xt-benchmark --all [--trace] [--seed N] [--seconds S] [--quick]
//! xt-benchmark --aa [N] [--runs K] [--seed N] [--seconds S]
//! ```

use std::process::Command;

use xt_benchmark::run::{traced, untraced, Options};
use xt_benchmark::{aa, workloads};

const USAGE: &str = "usage: xt-benchmark --workload <name> [--seed N] [--seconds S] \
                     [--trace [0|1]] [--quick]\n       xt-benchmark --all [--trace] ...\n       \
                     xt-benchmark --aa [N] [--runs K] ...";

struct Args {
    workload: Option<String>,
    all: bool,
    aa: Option<usize>,
    runs: usize,
    seconds: Option<f64>,
    options: Options,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        aa: None,
        runs: 1,
        seconds: None,
        options: Options {
            seed: 1,
            seconds: 0.0,
            trace: false,
            quick: false,
        },
    };
    let mut it = std::env::args().skip(1).peekable();
    // A flag's optional numeric value: consumed only when it parses.
    fn optional<T: std::str::FromStr>(
        it: &mut std::iter::Peekable<impl Iterator<Item = String>>,
    ) -> Option<T> {
        let value = it.peek()?.parse().ok()?;
        it.next();
        Some(value)
    }
    while let Some(flag) = it.next() {
        let mut required = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(required("--workload")?),
            "--seed" => {
                args.options.seed = required("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = required("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(seconds);
            }
            "--runs" => {
                args.runs = required("--runs")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--runs needs a count of at least 1")?;
            }
            "--trace" => args.options.trace = optional::<u8>(&mut it).is_none_or(|v| v != 0),
            "--quick" => args.options.quick = true,
            "--all" => args.all = true,
            "--aa" => args.aa = Some(optional::<usize>(&mut it).unwrap_or(2).max(2)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `--all`: one process per workload, so `peak_rss_mb` belongs to the
/// workload and not to whatever ran before it.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut code = 0;
    for spec in workloads::specs() {
        let passes: &[&str] = if args.options.trace {
            &["0", "1"]
        } else {
            &["0"]
        };
        for trace in passes {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", spec.name, "--trace", trace])
                .args(["--seed", &args.options.seed.to_string()])
                .args(["--seconds", &args.options.seconds.to_string()]);
            if args.options.quick {
                child.arg("--quick");
            }
            match child.status() {
                Ok(status) if status.success() => {}
                Ok(status) => code = status.code().unwrap_or(1),
                Err(e) => {
                    eprintln!("error: {e}");
                    code = 2;
                }
            }
            println!();
        }
    }
    code
}

fn main() {
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(sets) = args.aa {
        std::process::exit(aa::run(sets, args.runs, args.options.seed, args.seconds));
    }
    // Without --seconds, measure for as long as BENCHMARK.json says one
    // run measures; --quick caps every workload at about a second.
    args.options.seconds = match (args.seconds, args.options.quick) {
        (Some(seconds), _) => seconds,
        (None, true) => 0.6,
        (None, false) => aa::read_contract().map_or(15.0, |c| c.run_seconds),
    };
    if args.all {
        std::process::exit(run_all(&args));
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("error: no workload named\n{USAGE}");
        std::process::exit(2);
    };
    let Some(spec) = workloads::find(name) else {
        let names: Vec<&str> = workloads::specs().iter().map(|s| s.name).collect();
        eprintln!("error: unknown workload {name}; the workloads are {names:?}");
        std::process::exit(2);
    };
    if args.options.trace {
        traced(&spec, &args.options);
    } else {
        untraced(&spec, &args.options);
    }
}
