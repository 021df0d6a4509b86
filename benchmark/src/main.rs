//! The repo benchmark. Five named workloads drive the crates' front-door
//! public APIs from outside, check every output against the benchmark's
//! own oracle, and end with one JSON result line (see `README.md`).
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload vgg16d_offline --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Without `--workload` every workload runs, one after another, each in
//! its own child process, first untraced then traced.

mod dse;
mod loadgen;
mod metrics;
mod offline;
mod oracle;
mod serve;
mod stats;
mod sys;
mod trace;

use metrics::{Report, END_TO_END, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOCATOR: sys::CountingAlloc = sys::CountingAlloc;

/// What one run was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run; `None` runs them all in child processes.
    workload: Option<String>,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Record spans, count allocations and report per-layer metrics.
    pub trace: bool,
    repeat_check: bool,
    manifest: bool,
}

const USAGE: &str = "usage: wino-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat-check] [--manifest]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat_check: false,
        manifest: false,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.0 == name) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
                    return Err(format!("unknown workload '{name}'; one of {}", names.join(", ")));
                }
                out.workload = Some(name);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&out.seconds) {
                    return Err("--seconds must lie in 1..=60".to_owned());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--repeat-check" => out.repeat_check = true,
            "--manifest" => out.manifest = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(out)
}

/// Sets a workload up from scratch repeatedly — at least three times,
/// then until a second has been spent, at most two hundred times — handing
/// each state but the last to `discard` before the next is built.
/// Returns the last state and the fastest set-up's seconds.
pub fn fastest_setup<S>(mut build: impl FnMut() -> S, mut discard: impl FnMut(S)) -> (S, f64) {
    let mut seconds: Vec<f64> = Vec::new();
    let mut kept = None;
    while another_setup(&seconds) {
        if let Some(previous) = kept.take() {
            discard(previous);
        }
        let start = std::time::Instant::now();
        kept = Some(build());
        seconds.push(start.elapsed().as_secs_f64());
    }
    (kept.expect("at least three set-ups ran"), stats::lowest(&seconds))
}

fn another_setup(setups_s: &[f64]) -> bool {
    setups_s.len() < 3 || (setups_s.len() < 200 && setups_s.iter().sum::<f64>() < 1.0)
}

/// Where traces and result files go: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_owned());
    PathBuf::from(manifest_dir).join("out")
}

/// Runs one workload in this process and prints its result line last.
fn run_workload(name: &str, args: &Args) -> ExitCode {
    println!(
        "workload {name} seed {} seconds {} trace {} threads {} (of {} cores)",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::thread_budget(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let mut report = Report::default();
    let mut trace = trace::Trace::new();
    match name {
        "vgg16d_offline" => offline::run(offline::Network::Vgg16d, args, &mut report, &mut trace),
        "mixed_offline" => {
            offline::run(offline::Network::MixedAlexnet, args, &mut report, &mut trace)
        }
        "serve_steady" => serve::run(serve::Traffic::Steady, args, &mut report, &mut trace),
        "serve_burst" => serve::run(serve::Traffic::Burst, args, &mut report, &mut trace),
        "dse_search" => dse::run(args, &mut report, &mut trace),
        other => unreachable!("parse_args admitted '{other}'"),
    }
    if args.trace {
        let path = out_dir().join(format!("trace-{name}.json"));
        match trace.write(&path) {
            Ok(()) => println!("{} spans written to {}", trace.len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    report.print_human();
    println!("{}", report.result_line(args.trace));
    ExitCode::SUCCESS
}

/// One child run's stdout, echoed as it is captured, or why it failed.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    Ok(stdout)
}

fn result_line(stdout: &str) -> &str {
    stdout.lines().last().unwrap_or("")
}

fn reports_correct(stdout: &str) -> bool {
    result_line(stdout).starts_with("{\"correct\": true")
}

/// Every workload, untraced then traced, one child process at a time.
fn run_all(args: &Args) -> ExitCode {
    let mut results = Vec::new();
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            println!("\n=== {workload} (trace {}) ===", u8::from(trace));
            match run_child(workload, args, trace) {
                Ok(stdout) => {
                    let line = result_line(&stdout);
                    ok &= reports_correct(&stdout);
                    results.push(format!(
                        "{{\"workload\": \"{workload}\", \"trace\": {}, \"seed\": {}, \"result\": {line}}}",
                        u8::from(trace),
                        args.seed
                    ));
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    let path = out_dir().join("results.json");
    let body = format!("[\n{}\n]\n", results.join(",\n"));
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("\nresults written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(first: f64, second: f64, better: &str) -> f64 {
    match better {
        "higher" => (first - second) / first,
        _ => (second - first) / first,
    }
}

/// Two complete sets of untraced runs of this build; fails when any
/// end-to-end metric differs between the sets by more than its bound.
fn repeat_check(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut table = Vec::new();
    for (workload, _) in WORKLOADS {
        let mut sets = Vec::new();
        for set in 1..=2 {
            println!("\n=== {workload} (set {set}) ===");
            match run_child(workload, args, false) {
                Ok(stdout) => sets.push(stdout),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let unresolved = sets.iter().any(|s| s.contains("UNRESOLVED"));
        ok &= sets.iter().all(|s| reports_correct(s));
        for (name, unit, better, bound) in END_TO_END {
            let value = |s: &String| metrics::value_in_line(result_line(s), name).unwrap_or(0.0);
            let (a, b) = (value(&sets[0]), value(&sets[1]));
            let diff = worsening(a, b, better).abs();
            let verdict = match (diff <= bound, unresolved && name.starts_with("op_")) {
                (true, _) => "ok",
                (false, true) => "unresolved",
                (false, false) => {
                    ok = false;
                    "DIFFERS"
                }
            };
            table.push(format!(
                "{workload:<15} {name:<12} {a:>14.4} {b:>14.4} {unit:<4} {:>6.1}% of {:>4.0}%  {verdict}",
                diff * 100.0,
                bound * 100.0
            ));
        }
    }
    println!("\nrepeat check, set 1 against set 2:");
    for row in table {
        println!("{row}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest_json());
        return ExitCode::SUCCESS;
    }
    if args.repeat_check {
        return repeat_check(&args);
    }
    match &args.workload {
        Some(name) => run_workload(name, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse("--workload serve_burst --seed 42 --seconds 20 --trace 1").unwrap();
        assert_eq!(args.workload.as_deref(), Some("serve_burst"));
        assert_eq!((args.seed, args.seconds, args.trace), (42, 20.0, true));
        let defaults = parse("").unwrap();
        assert_eq!((defaults.workload, defaults.seed, defaults.trace), (None, 1, false));
        assert_eq!(defaults.seconds, RUN_SECONDS as f64);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--frobnicate").is_err());
    }

    #[test]
    fn set_up_repeats_at_least_thrice_and_cheap_ones_for_a_second() {
        assert!(another_setup(&[]) && another_setup(&[2.0, 2.0]));
        assert!(!another_setup(&[0.9, 0.9, 0.9]));
        assert!(another_setup(&[0.01; 99]) && !another_setup(&[0.01; 100]));
        assert!(another_setup(&[0.001; 199]) && !another_setup(&[0.001; 200]));
        assert!(!another_setup(&[0.3, 0.3, 0.3, 0.3]));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.1).abs() < 1e-12);
        assert!(worsening(100.0, 110.0, "higher") < 0.0);
    }
}
