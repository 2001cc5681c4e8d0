//! `mwl-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's noise and validity notes (and, traced, the per-layer
//! table), then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

use std::path::PathBuf;
use std::process::ExitCode;

use mwl_benchmark::{check::nproc, run, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required (sweep_small, scale_large)")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mwl-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let trace_path = args.trace.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "trace_{}_seed{}.json",
                args.workload.name(),
                args.seed
            ))
    });
    let outcome = match run(
        args.workload,
        args.seed,
        args.seconds,
        trace_path.as_deref(),
    ) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("mwl-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    for note in &outcome.notes {
        println!("  {note}");
        // Failed checks go to stderr too, where a harness that keeps only
        // the result line still shows them.
        if note.starts_with("CHECK FAILED") {
            eprintln!("mwl-benchmark: {note}");
        }
    }
    if !args.trace {
        println!("  datapath digest {:016x}", outcome.digest);
    }
    print!("{}", outcome.table);
    for m in &outcome.metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
