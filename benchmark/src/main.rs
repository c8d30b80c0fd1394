//! `tutorial-day`: the repository's end-to-end benchmark.
//!
//! ```text
//! tutorial-day [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! With `--workload`, runs that workload in this process — pinned to one
//! core — and prints its metrics by name, then one JSON object as the last
//! line of standard output. Without it, runs every workload, each in its
//! own pinned child process. See `README.md` for the method.

mod gen;
mod metrics;
mod report;
mod stack;
mod stats;
mod sys;
mod trace;
mod workload;
mod workloads;

use metrics::WORKLOADS;
use std::process::{Command, ExitCode};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload to run; `None` runs all of them.
    pub workload: Option<String>,
    /// Seed of the workload generators.
    pub seed: u64,
    /// Measurement budget in seconds: repetitions continue while another
    /// one still fits (never fewer than the minimum).
    pub seconds: f64,
    /// Report the per-layer metrics from one plain and one traced
    /// repetition, instead of the end-to-end metrics.
    pub trace: bool,
    /// Small sizes, two repetitions: a smoke test, never compared.
    pub quick: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args =
            Args { workload: None, seed: 2024, seconds: 15.0, trace: false, quick: false };
        let mut it = argv.iter().peekable();
        while let Some(flag) = it.next() {
            let mut value =
                |what: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => args.workload = Some(value("a workload name")?),
                "--seed" => {
                    args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    args.seconds =
                        value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    // Bare `--trace` means on; the driver passes 0 or 1.
                    args.trace = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    }
                }
                "--quick" => args.quick = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if let Some(w) = &args.workload {
            if !WORKLOADS.contains(&w.as_str()) {
                return Err(format!("unknown workload {w:?}; choose one of {WORKLOADS:?}"));
            }
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tutorial-day: {e}");
            eprintln!(
                "usage: tutorial-day [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]"
            );
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => {
            // Pin before anything asks for the core count.
            let pinned = sys::pin_to_one_core();
            let ok = report::run_workload(name, &args, pinned);
            ExitCode::from(if ok { 0 } else { 1 })
        }
        None => run_all(&args),
    }
}

/// Run every workload, each in its own child process — which pins itself
/// to one core — so that peak memory and CPU time are per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("tutorial-day: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for name in WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            child.arg("--quick");
        }
        // `status` waits for the child to end.
        match child.status() {
            Ok(s) if s.success() => {}
            Ok(s) => failed.push(format!("{name}: {s}")),
            Err(e) => failed.push(format!("{name}: {e}")),
        }
    }
    if failed.is_empty() {
        println!("tutorial-day: all {} workloads passed", WORKLOADS.len());
        ExitCode::SUCCESS
    } else {
        println!("tutorial-day: FAILED — {}", failed.join("; "));
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload ingest --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("ingest"));
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (7, 20.0, true, false));
        assert!(!parse("--workload catalog --trace 0").unwrap().trace);
    }

    #[test]
    fn defaults_and_bare_trace() {
        let a = parse("").unwrap();
        assert_eq!(
            a,
            Args { workload: None, seed: 2024, seconds: 15.0, trace: false, quick: false }
        );
        let a = parse("--trace --quick").unwrap();
        assert!(a.trace && a.quick);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
