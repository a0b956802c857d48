//! The repository benchmark. One invocation runs one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-aminer|serve-sweep|serve-mixed|train-condensed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints the machine, the script and output digests, and as its
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — end-to-end metrics with `--trace 0`, per-layer metrics
//! from a traced run with `--trace 1`. Any output mismatch exits 1. See
//! `perfbench/README.md`.

mod machine;
mod metrics;
mod script;
mod stages;
mod stats;
mod trace;
mod workloads;

use machine::Machine;
use metrics::Outcome;
use std::process::ExitCode;

#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("a number of seconds in (0, 120]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {:?}",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(25.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    workloads::quiet_panics();
    let machine = Machine::probe();
    println!("machine {}", machine.to_json());
    let tracer = args.trace.then(trace::Tracer::new);
    let cfg = workloads::RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        tracer: tracer.as_ref(),
    };
    let outcome: Outcome = workloads::run(&args.workload, &cfg);
    if let Some(t) = &tracer {
        let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/traces"))
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match t.write_jsonl(&path) {
            Ok(()) => println!("trace {} ({} spans)", path.display(), t.spans().len()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let line = outcome.result_line(&machine, args.trace);
    for p in &outcome.problems {
        eprintln!("perfbench: MISMATCH: {p}");
    }
    if let Some((p50, p90, ops)) = outcome.wall() {
        let setup = stats::p50(&outcome.setup_wall_s);
        println!(
            "wall setup_s={setup:.3} latency_p50_ms={p50:.3} latency_p90_ms={p90:.3} throughput_ops={ops:.2}"
        );
    }
    println!("script {}", outcome.script_digest);
    println!(
        "outputs ops={} all={} head={}",
        outcome.outputs, outcome.digest_all, outcome.digest_head
    );
    match line {
        Ok(json) => {
            println!("{json}");
            if outcome.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload serve-sweep --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve-sweep".into(),
                seed: 7,
                seconds: 20.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload serve-sweep")).is_err());
        assert!(parse_args(&argv("--workload serve-sweep --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve-sweep --seed")).is_err());
    }
}
