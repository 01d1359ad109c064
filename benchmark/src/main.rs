//! The repo benchmark. One process runs one workload:
//!
//! ```text
//! explore-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! It builds its inputs from `--seed`, sets up, measures for `--seconds`,
//! checks the outputs, prints every metric of the mode by name, and ends
//! with one JSON line. See README.md for the workloads and metrics.

mod digest;
mod gen;
mod report;
mod shadow;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Report, END_TO_END, PER_LAYER};

/// The four workloads, in reporting order.
pub const WORKLOADS: [&str; 4] = [
    "analyst_mixed",
    "scan_cold",
    "ingest_under_read",
    "middleware_insight",
];

/// The seed the pinned result checksums belong to.
pub const DEFAULT_SEED: u64 = 20_150_531;

/// Times each workload sets up per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes: checks outputs, gates nothing.
    pub quick: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 15.0,
            trace: false,
            quick: false,
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => {
                    args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    };
                }
                "--quick" => args.quick = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, not {:?}",
                args.workload
            ));
        }
        if !(args.seconds > 0.0 && args.seconds <= 60.0) {
            return Err(format!(
                "--seconds must be in (0, 60], not {}",
                args.seconds
            ));
        }
        Ok(args)
    }

    pub fn measure(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// `full` rows, or a twentieth of them under `--quick`.
    pub fn rows(&self, full: usize) -> usize {
        if self.quick {
            full / 20
        } else {
            full
        }
    }
}

/// Run `setup` [`SETUPS`] times, dropping each result before the next
/// is built; returns the last one and the median set-up time in seconds.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS > 0"), stats::median(&times))
}

/// Worker threads the served workloads give `ServeEngine`.
pub fn serve_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("explore-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let report: Report = match args.workload.as_str() {
        "analyst_mixed" => workloads::analyst::run(&args),
        "scan_cold" => workloads::scan::run(&args),
        "ingest_under_read" => workloads::ingest::run(&args),
        _ => workloads::middleware::run(&args),
    };
    let catalogue: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "workload {} seed {} seconds {} trace {} quick {} cores {} serve_workers {} stream_hash {:#018x}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.quick,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        serve_workers(),
        gen::stream_hash(&args.workload, args.seed).unwrap_or(0),
    );
    print!("{}", report.human(catalogue));
    for e in &report.errors {
        println!("  OUTPUT CHECK FAILED: {e}");
    }
    println!("{}", report.json(catalogue));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload scan_cold --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload, "scan_cold");
        assert_eq!(a.seed, 7);
        assert_eq!(a.measure(), Duration::from_millis(2500));
        assert!(a.trace && !a.quick);
        assert_eq!(a.rows(1000), 1000);
        let q = parse("--workload scan_cold --quick").unwrap();
        assert_eq!(q.seed, DEFAULT_SEED);
        assert_eq!(q.rows(1000), 50);
    }

    #[test]
    fn rejects_bad_input_where_it_enters() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err(), "workload is required");
        assert!(parse("--workload scan_cold --trace 2").is_err());
        assert!(parse("--workload scan_cold --seconds 0").is_err());
        assert!(parse("--workload scan_cold --seconds 61").is_err());
        assert!(parse("--workload scan_cold --seed").is_err());
        assert!(parse("--workload scan_cold --frobnicate").is_err());
    }

    #[test]
    fn setup_time_is_the_median_of_the_repeats() {
        let mut calls = 0;
        let (last, secs) = timed_setups(|| {
            calls += 1;
            calls
        });
        assert_eq!((last, calls), (SETUPS, SETUPS));
        assert!(secs >= 0.0);
    }
}
