//! End-to-end benchmark of the `iyp` binary over loopback TCP.
//!
//! ```text
//! iypbench --iyp <path to iyp> --work <scratch dir>
//!          --workload lookup|analytics|journal_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report (every metric with unit and sample
//! count, server counters, steadiness flags), then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` carrying the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`) named in `BENCHMARK.json`. Exits 1 when any output
//! check fails, 2 when the run cannot complete.

mod check;
mod procs;
mod streams;
mod trace;
mod util;
mod workloads;

use std::path::PathBuf;
use std::time::Instant;
use workloads::Run;

/// End-to-end metrics every workload reports (`--trace 0`).
const END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_per_s",
    "read_p50_ms",
    "read_p90_ms",
    "peak_rss_mb",
    "snapshot_mb",
];

/// Per-layer metrics every workload reports (`--trace 1`).
const PER_LAYER: [&str; 21] = [
    "graph.snapshot_read_s",
    "graph.snapshot_decode_s",
    "graph.snapshot_encode_s",
    "graph.snapshot_bytes_per_rel",
    "cypher.prepare_us_p50",
    "cypher.exec_ms_p50",
    "cypher.cache_hit_ratio",
    "server.decode_us_p50",
    "server.encode_ms_p50",
    "server.response_bytes_p50",
    "wire.rtt_ms_p50",
    "wire.wait_ms_p50",
    "simnet.world_s",
    "simnet.render_s",
    "crawlers.import_s",
    "crawlers.import_s.openintel.tranco1m",
    "crawlers.import_s.openintel.infra_ns",
    "crawlers.import_s.openintel.dnsgraph",
    "pipeline.refine_s",
    "ontology.validate_s",
    "trace.overhead_read_p50_ms",
];

/// `BENCHMARK.json` lists `lookup` and `journal_mixed`; `analytics` runs
/// the same way on demand (see METRICS.md for why it is not listed).
const WORKLOADS: [&str; 3] = ["lookup", "analytics", "journal_mixed"];

struct Args {
    iyp: PathBuf,
    work: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut iyp, mut work, mut workload) = (None, None, None);
    let (mut seed, mut seconds, mut trace) = (42u64, 20.0f64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--iyp" => iyp = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds must be a number")?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        iyp: iyp.ok_or("--iyp is required")?,
        work: work.ok_or("--work is required")?,
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("iypbench: {e}");
            std::process::exit(2);
        }
    };
    match run(args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("iypbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs one workload; `Ok(false)` when an output check failed.
fn run(args: Args) -> Result<bool, String> {
    let work = args.work.join(&args.workload);
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut run = Run {
        iyp: procs::Iyp {
            bin: std::fs::canonicalize(&args.iyp)
                .map_err(|e| format!("iyp binary {}: {e}", args.iyp.display()))?,
            logs: work.clone(),
        },
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        report: util::Report::default(),
        attempted: 0,
        failed: 0,
        mismatches: Vec::new(),
    };
    let started = Instant::now();
    let outcome = match args.workload.as_str() {
        "lookup" => workloads::lookup(&mut run),
        "analytics" => workloads::analytics(&mut run),
        _ => workloads::journal_mixed(&mut run),
    };
    // Large inputs go; logs and spans stay for inspection.
    for entry in std::fs::read_dir(&work).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            let _ = std::fs::remove_dir_all(&path);
        } else if path.extension().is_some_and(|e| e == "bin") {
            let _ = std::fs::remove_file(&path);
        }
    }
    outcome?;
    workloads::error_rate(&mut run);

    println!(
        "# iypbench workload={} seed={} seconds={} trace={} host_cpus={host_cpus} wall_s={:.1}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        started.elapsed().as_secs_f64()
    );
    print!("{}", run.report.render(&args.workload));
    for m in &run.mismatches {
        println!("mismatch {} {m}", args.workload);
    }

    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = serde_json::Map::new();
    for name in names {
        let m = run
            .report
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        metrics.insert(
            name.to_string(),
            serde_json::json!({ "value": m.value, "unit": m.unit }),
        );
    }
    let correct = run.mismatches.is_empty() && run.failed == 0;
    println!(
        "{}",
        serde_json::json!({
            "correct": correct,
            "attempted": run.attempted.max(1),
            "failed": run.failed,
            "metrics": metrics,
        })
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload names the harness uses are the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn names_match_benchmark_json() {
        let spec: serde_json::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            spec[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| m["name"].as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END.to_vec());
        assert_eq!(names("per_layer"), PER_LAYER.to_vec());
        assert_eq!(names("workloads"), ["lookup", "journal_mixed"]);
        assert!(names("workloads")
            .iter()
            .all(|w| WORKLOADS.contains(&w.as_str())));
    }
}
