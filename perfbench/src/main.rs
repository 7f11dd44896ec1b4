//! Command line of the benchmark:
//!
//! ```text
//! satpg-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a context line (input digest, sample counts, failures) and,
//! as the last line, the result object with every end-to-end metric
//! (`--trace 0`) or every per-layer metric (`--trace 1`).

use satpg_perfbench::metrics::{END_TO_END, PER_LAYER};
use satpg_perfbench::{run, Options, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0|1)")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mut opts = Options::new(workload, seed, seconds, trace);
    // Traces land beside the build, inside the checkout.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    opts.trace_dir = Some(target.join("perfbench-traces"));
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("satpg-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(out) => {
            println!("{}", out.detail_line());
            println!(
                "{}",
                out.result_line(if opts.trace { PER_LAYER } else { END_TO_END })
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("satpg-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
