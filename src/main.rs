//! `iyp` — the Internet Yellow Pages command-line tool.
//!
//! Mirrors the workflows of §3.1/§6 of the paper:
//!
//! ```text
//! iyp build   [--scale tiny|small|default] [--seed N] [--out FILE] [--journal DIR] [--metrics]
//!             [--chaos SEED]
//! iyp query   [--snapshot FILE] [--cache-mb MB] '<cypher>'
//! iyp profile [--snapshot FILE] [--cache-mb MB] '<cypher>'
//! iyp shell   [--snapshot FILE]
//! iyp serve   [--snapshot FILE] [--addr HOST:PORT] [--max-conns N]
//!             [--query-timeout SECS] [--cache-mb MB] [--journal DIR]
//!             [--fsync always|never|every=N]
//! iyp recover --journal DIR [--out FILE]
//! iyp studies [--snapshot FILE]
//! iyp datasets
//! ```
//!
//! Without `--snapshot`, commands build a fresh small-scale graph.
//! With `--journal`, `serve` runs read-write: writes go through a
//! write-ahead log and survive crashes (see
//! `documentation/durability.md`). The Cypher engine sizes its worker
//! pool from the host (see `documentation/query-engine.md`), and
//! `--max-conns` bounds in-flight server connections. `--query-timeout` cancels read
//! queries past a wall-clock deadline, and `--chaos` injects seeded
//! faults into the build to exercise the fault-tolerant ETL path (see
//! `documentation/fault-tolerance.md`).

use iyp_core::{studies, DatasetId, Iyp, Params, SimConfig};
use iyp_journal::{DurableGraph, FsyncPolicy};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    command: String,
    scale: String,
    seed: u64,
    out: Option<PathBuf>,
    snapshot: Option<PathBuf>,
    addr: String,
    metrics: bool,
    journal: Option<PathBuf>,
    fsync: String,
    max_conns: Option<usize>,
    query_timeout: Option<std::time::Duration>,
    cache_mb: Option<usize>,
    chaos: Option<u64>,
    rest: Vec<String>,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut argv = argv.into_iter();
    let command = argv.next().unwrap_or_else(|| "help".to_string());
    let mut args = Args {
        command,
        scale: "small".into(),
        seed: 42,
        out: None,
        snapshot: None,
        addr: "127.0.0.1:7687".into(),
        metrics: false,
        journal: None,
        fsync: "always".into(),
        max_conns: None,
        query_timeout: None,
        cache_mb: None,
        chaos: None,
        rest: Vec::new(),
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--scale" => args.scale = argv.next().ok_or("--scale needs a value")?,
            "--seed" => {
                args.seed = argv
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed must be an integer")?
            }
            "--out" => args.out = Some(PathBuf::from(argv.next().ok_or("--out needs a path")?)),
            "--snapshot" => {
                args.snapshot = Some(PathBuf::from(argv.next().ok_or("--snapshot needs a path")?))
            }
            "--addr" => args.addr = argv.next().ok_or("--addr needs a value")?,
            "--metrics" => args.metrics = true,
            "--journal" => {
                args.journal = Some(PathBuf::from(argv.next().ok_or("--journal needs a path")?))
            }
            "--fsync" => args.fsync = argv.next().ok_or("--fsync needs a value")?,
            "--max-conns" => {
                args.max_conns = Some(
                    argv.next()
                        .ok_or("--max-conns needs a value")?
                        .parse()
                        .map_err(|_| "--max-conns must be an integer")?,
                )
            }
            "--query-timeout" => {
                let secs: f64 = argv
                    .next()
                    .ok_or("--query-timeout needs a value (seconds)")?
                    .parse()
                    .map_err(|_| "--query-timeout must be a number of seconds")?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err("--query-timeout must be a positive number of seconds".into());
                }
                args.query_timeout = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--cache-mb" => {
                args.cache_mb = Some(
                    argv.next()
                        .ok_or("--cache-mb needs a value (MiB)")?
                        .parse()
                        .map_err(|_| "--cache-mb must be an integer number of MiB")?,
                )
            }
            "--chaos" => {
                args.chaos = Some(
                    argv.next()
                        .ok_or("--chaos needs a seed")?
                        .parse()
                        .map_err(|_| "--chaos must be an integer seed")?,
                )
            }
            other => args.rest.push(other.to_string()),
        }
    }
    Ok(args)
}

fn config_of(scale: &str) -> SimConfig {
    match scale {
        "tiny" => SimConfig::tiny(),
        "default" | "full" => SimConfig::default(),
        _ => SimConfig::small(),
    }
}

fn load_or_build(args: &Args) -> Result<Iyp, String> {
    match &args.snapshot {
        Some(path) => {
            eprintln!("loading snapshot {}...", path.display());
            Iyp::load_snapshot(path).map_err(|e| e.to_string())
        }
        None => {
            eprintln!(
                "building fresh graph ({} scale, seed {})...",
                args.scale, args.seed
            );
            Iyp::build(&config_of(&args.scale), args.seed).map_err(|e| e.to_string())
        }
    }
}

/// How many datasets `--chaos` targets: enough to exercise every fault
/// kind while leaving most of the build clean.
const CHAOS_TARGETS: usize = 8;

fn cmd_build(args: &Args) -> Result<(), String> {
    if args.metrics {
        iyp_telemetry::enable();
    }
    let iyp = match args.chaos {
        None => Iyp::build(&config_of(&args.scale), args.seed).map_err(|e| e.to_string())?,
        Some(chaos_seed) => {
            let world = iyp_core::World::generate(&config_of(&args.scale), args.seed);
            let plan = iyp_core::simnet::FaultPlan::generate(chaos_seed, CHAOS_TARGETS);
            eprintln!(
                "chaos plan (seed {chaos_seed}): {} datasets targeted",
                plan.affected().len()
            );
            let options = iyp_core::BuildOptions::default().with_chaos(plan);
            Iyp::build_from_world(&world, &options).map_err(|e| e.to_string())?
        }
    };
    println!("{}", iyp.report());
    if args.metrics {
        println!("{}", iyp.report().render_timings());
        println!("-- telemetry exposition --");
        print!("{}", iyp_telemetry::render());
    }
    if let Some(out) = &args.out {
        iyp.save_snapshot(out).map_err(|e| e.to_string())?;
        println!("snapshot written to {}", out.display());
    }
    if let Some(dir) = &args.journal {
        let policy = FsyncPolicy::parse(&args.fsync)?;
        iyp.into_durable(dir, policy).map_err(|e| e.to_string())?;
        println!("journal seeded in {} (generation 1)", dir.display());
    }
    Ok(())
}

fn run_and_print(iyp: &Iyp, text: &str) {
    match iyp.query_with(text, &Params::new()) {
        Ok(rs) => {
            print!("{}", rs.render(iyp.graph()));
            println!("({} rows)", rs.rows.len());
        }
        Err(e) => eprintln!("error: {e}"),
    }
}

fn cmd_query(args: &Args) -> Result<(), String> {
    let text = args.rest.join(" ");
    if text.trim().is_empty() {
        return Err("query text required".into());
    }
    let iyp = load_or_build(args)?;
    run_and_print(&iyp, &text);
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let text = args.rest.join(" ");
    if text.trim().is_empty() {
        return Err("query text required".into());
    }
    let iyp = load_or_build(args)?;
    let (rs, plan) = iyp.profile(&text).map_err(|e| e.to_string())?;
    print!("{}", rs.render(iyp.graph()));
    println!("({} rows)\n", rs.rows.len());
    println!("{}", plan.render());
    Ok(())
}

fn cmd_shell(args: &Args) -> Result<(), String> {
    let mut iyp = load_or_build(args)?;
    eprintln!(
        "IYP shell — end queries with ';', type 'quit;' to exit.\n\
         Write clauses (CREATE/MERGE/SET/DELETE) modify this local instance."
    );
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            eprint!("iyp> ");
        } else {
            eprint!("...> ");
        }
        std::io::stderr().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
        buffer.push_str(&line);
        if !buffer.trim_end().ends_with(';') {
            continue;
        }
        let text = buffer.trim().trim_end_matches(';').trim().to_string();
        buffer.clear();
        if text.eq_ignore_ascii_case("quit") || text.eq_ignore_ascii_case("exit") {
            break;
        }
        if text.is_empty() {
            continue;
        }
        // EXPLAIN/PROFILE are read-only introspection — route them
        // through the read path (the write path rejects them).
        let first = text
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_ascii_lowercase();
        if first == "explain" || first == "profile" {
            run_and_print(&iyp, &text);
            continue;
        }
        match iyp.update(&text) {
            Ok((rs, summary)) => {
                if !rs.columns.is_empty() {
                    print!("{}", rs.render(iyp.graph()));
                    println!("({} rows)", rs.rows.len());
                }
                if summary != Default::default() {
                    println!(
                        "+{} nodes, +{} rels, {} props set, -{} nodes, -{} rels",
                        summary.nodes_created,
                        summary.rels_created,
                        summary.props_set,
                        summary.nodes_deleted,
                        summary.rels_deleted
                    );
                }
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    // A serving process records its own metrics: the `stats` command
    // (and the busy-rejection counter) are useless on a recorder
    // that never turned on.
    iyp_telemetry::enable();
    let mut options = iyp_server::ServerOptions::default();
    if let Some(cap) = args.max_conns {
        if cap == 0 {
            return Err("--max-conns must be at least 1".into());
        }
        options.max_connections = cap;
    }
    options.query_timeout = args.query_timeout;
    options.cache_mb = args.cache_mb;
    let server = match &args.journal {
        None => {
            let iyp = load_or_build(args)?;
            let graph = Arc::new(iyp.into_graph());
            let server = iyp_server::Server::start_service_with(
                iyp_server::Service::ReadOnly(graph),
                &args.addr,
                options,
            )
            .map_err(|e| e.to_string())?;
            // "listening on …" must stay machine-parseable: tests and
            // scripts read the bound address from it (port 0 support).
            println!("listening on {}", server.addr());
            println!("serving read-only IYP — protocol: one JSON request per line");
            println!("example: {{\"query\": \"MATCH (a:AS) RETURN count(a)\"}}");
            server
        }
        Some(dir) => {
            let policy = FsyncPolicy::parse(&args.fsync)?;
            let durable = if DurableGraph::exists(dir) {
                let (durable, report) =
                    DurableGraph::open(dir, policy).map_err(|e| e.to_string())?;
                eprintln!(
                    "recovered journal {} (generation {}, {} ops replayed{})",
                    dir.display(),
                    report.generation,
                    report.replay.ops,
                    if report.replay.truncated_bytes > 0 {
                        format!(", {} torn bytes truncated", report.replay.truncated_bytes)
                    } else {
                        String::new()
                    }
                );
                durable
            } else {
                let iyp = load_or_build(args)?;
                eprintln!("seeding journal {} (generation 1)", dir.display());
                DurableGraph::seed(dir, iyp.into_graph(), policy).map_err(|e| e.to_string())?
            };
            let server = iyp_server::Server::start_service_with(
                iyp_server::Service::Durable(Arc::new(durable)),
                &args.addr,
                options,
            )
            .map_err(|e| e.to_string())?;
            println!("listening on {}", server.addr());
            println!("serving journaled IYP — writes: {{\"cmd\": \"write\", \"query\": …}}");
            println!("checkpoint: {{\"cmd\": \"checkpoint\"}}");
            server
        }
    };
    let _server = server;
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_recover(args: &Args) -> Result<(), String> {
    let dir = args.journal.as_ref().ok_or("recover needs --journal DIR")?;
    if !DurableGraph::exists(dir) {
        return Err(format!("no journal state in {}", dir.display()));
    }
    let policy = FsyncPolicy::parse(&args.fsync)?;
    let (durable, report) = DurableGraph::open(dir, policy).map_err(|e| e.to_string())?;
    println!(
        "recovered generation {}: snapshot {}, {} batches / {} ops replayed",
        report.generation,
        if report.snapshot_loaded {
            "loaded"
        } else {
            "none"
        },
        report.replay.batches,
        report.replay.ops
    );
    if report.replay.truncated_bytes > 0 {
        println!(
            "torn tail: {} bytes truncated{}",
            report.replay.truncated_bytes,
            if report.replay.repaired {
                " (repaired)"
            } else {
                ""
            }
        );
    }
    if report.removed_stale_files > 0 {
        println!("removed {} stale files", report.removed_stale_files);
    }
    let generation = durable.checkpoint().map_err(|e| e.to_string())?;
    println!("compacted into generation {generation}");
    let graph = durable.into_graph();
    println!(
        "graph: {} nodes, {} rels",
        graph.node_count(),
        graph.rel_count()
    );
    if let Some(out) = &args.out {
        iyp_graph::snapshot::save_binary(&graph, out).map_err(|e| e.to_string())?;
        println!("snapshot exported to {}", out.display());
    }
    Ok(())
}

fn cmd_studies(args: &Args) -> Result<(), String> {
    let iyp = load_or_build(args)?;
    let g = iyp.graph();
    let r = studies::ripki_study(g);
    println!("== Table 2 (RiPKI) ==");
    println!(
        "invalid {:.2}%  covered {:.1}%  top {:.1}%  bottom {:.1}%  cdn {:.1}%",
        r.invalid_pct, r.covered_pct, r.top_pct, r.bottom_pct, r.cdn_pct
    );
    let bp = studies::best_practices(g);
    println!("\n== Table 3 (DNS best practices) ==");
    println!(
        "coverage {:.1}%  discarded {:.1}%  meet {:.1}%  exceed {:.1}%  not-meet {:.1}%  glue {:.1}%",
        bp.coverage_pct, bp.discarded_pct, bp.meet_pct, bp.exceed_pct, bp.not_meet_pct,
        bp.in_zone_glue_pct
    );
    let si = studies::shared_infrastructure(g);
    println!("\n== Tables 4 & 5 (shared infrastructure) ==");
    println!(
        "cno by NS      med {} max {}",
        si.cno_by_ns.median, si.cno_by_ns.max
    );
    println!(
        "cno by /24     med {} max {}",
        si.cno_by_slash24.median, si.cno_by_slash24.max
    );
    println!(
        "cno by prefix  med {} max {}",
        si.cno_by_prefix.median, si.cno_by_prefix.max
    );
    println!(
        "all by prefix  med {} max {}",
        si.all_by_prefix.median, si.all_by_prefix.max
    );
    println!(
        "all by NS      med {} max {}",
        si.all_by_ns.median, si.all_by_ns.max
    );
    let ns = studies::nameserver_rpki(g);
    let hc = studies::hosting_consolidation(g);
    println!("\n== §5.1 (insights) ==");
    println!(
        "NS prefixes covered {:.1}%  NS domains covered {:.1}%  hosting domains covered {:.1}%",
        ns.prefix_covered_pct, ns.domain_covered_pct, hc.domain_covered_pct
    );
    Ok(())
}

fn cmd_datasets() {
    println!(
        "{:<26} {:<36} {:<9}",
        "Organization", "Dataset", "Frequency"
    );
    for d in iyp_core::simnet::datasets::ALL_DATASETS {
        println!(
            "{:<26} {:<36} {:<9}",
            d.organization(),
            d.name(),
            d.frequency()
        );
    }
    let _ = DatasetId::TrancoList; // referenced for doc purposes
}

fn help() {
    eprintln!(
        "iyp — Internet Yellow Pages
usage:
  iyp build   [--scale tiny|small|default] [--seed N] [--out FILE] [--journal DIR] [--metrics]
              [--chaos SEED]
  iyp query   [--snapshot FILE] [--cache-mb MB] '<cypher>'
  iyp profile [--snapshot FILE] [--cache-mb MB] '<cypher>'
  iyp shell   [--snapshot FILE]
  iyp serve   [--snapshot FILE] [--addr HOST:PORT] [--max-conns N]
              [--query-timeout SECS] [--cache-mb MB] [--journal DIR]
              [--fsync always|never|every=N]
  iyp recover --journal DIR [--out FILE]
  iyp studies [--snapshot FILE]
  iyp datasets"
    );
}

fn run(args: &Args) -> Result<(), String> {
    if let Some(mb) = args.cache_mb {
        // Size the process-global result cache (query/profile/shell go
        // through it); `serve` additionally sizes its own per-service
        // cache via ServerOptions.
        iyp_cypher::cache::global().set_capacity(mb << 20);
    }
    match args.command.as_str() {
        "build" => cmd_build(args),
        "query" => cmd_query(args),
        "profile" => cmd_profile(args),
        "shell" => cmd_shell(args),
        "serve" => cmd_serve(args),
        "recover" => cmd_recover(args),
        "studies" => cmd_studies(args),
        "datasets" => {
            cmd_datasets();
            Ok(())
        }
        "help" | "--help" | "-h" => {
            help();
            Ok(())
        }
        other => {
            help();
            Err(format!("unknown command `{other}`"))
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            help();
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_args_defaults() {
        let a = parse_args(argv(&[])).unwrap();
        assert_eq!(a.command, "help");
        assert_eq!(a.scale, "small");
        assert_eq!(a.seed, 42);
        assert!(!a.metrics);
        assert!(a.rest.is_empty());
    }

    #[test]
    fn parse_args_full_build_invocation() {
        let a = parse_args(argv(&[
            "build",
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--out",
            "x.snap",
            "--metrics",
        ]))
        .unwrap();
        assert_eq!(a.command, "build");
        assert_eq!(a.scale, "tiny");
        assert_eq!(a.seed, 7);
        assert_eq!(a.out, Some(PathBuf::from("x.snap")));
        assert!(a.metrics);
    }

    #[test]
    fn parse_args_journal_flags() {
        let a = parse_args(argv(&[
            "serve",
            "--journal",
            "/tmp/j",
            "--fsync",
            "every=16",
            "--addr",
            "127.0.0.1:0",
        ]))
        .unwrap();
        assert_eq!(a.journal, Some(PathBuf::from("/tmp/j")));
        assert_eq!(a.fsync, "every=16");
        assert_eq!(a.addr, "127.0.0.1:0");
        let d = parse_args(argv(&["serve"])).unwrap();
        assert_eq!(d.journal, None);
        assert_eq!(d.fsync, "always");
        assert!(parse_args(argv(&["serve", "--journal"])).is_err());
    }

    #[test]
    fn parse_args_max_conns() {
        let a = parse_args(argv(&["serve", "--max-conns", "128"])).unwrap();
        assert_eq!(a.max_conns, Some(128));
        let d = parse_args(argv(&["profile", "RETURN 1"])).unwrap();
        assert_eq!(d.max_conns, None);
        assert!(parse_args(argv(&["serve", "--max-conns"])).is_err());
        assert!(parse_args(argv(&["serve", "--max-conns", "-1"])).is_err());
    }

    #[test]
    fn parse_args_query_timeout_and_chaos() {
        let a = parse_args(argv(&["serve", "--query-timeout", "2.5"])).unwrap();
        assert_eq!(
            a.query_timeout,
            Some(std::time::Duration::from_millis(2500))
        );
        let b = parse_args(argv(&["build", "--chaos", "99"])).unwrap();
        assert_eq!(b.chaos, Some(99));
        let d = parse_args(argv(&["serve"])).unwrap();
        assert_eq!(d.query_timeout, None);
        assert_eq!(d.chaos, None);
        assert!(parse_args(argv(&["serve", "--query-timeout"])).is_err());
        assert!(parse_args(argv(&["serve", "--query-timeout", "0"])).is_err());
        assert!(parse_args(argv(&["serve", "--query-timeout", "-3"])).is_err());
        assert!(parse_args(argv(&["serve", "--query-timeout", "soon"])).is_err());
        assert!(parse_args(argv(&["build", "--chaos"])).is_err());
        assert!(parse_args(argv(&["build", "--chaos", "x"])).is_err());
    }

    #[test]
    fn parse_args_cache_mb() {
        let a = parse_args(argv(&["serve", "--cache-mb", "64"])).unwrap();
        assert_eq!(a.cache_mb, Some(64));
        let b = parse_args(argv(&["query", "--cache-mb", "0", "RETURN 1"])).unwrap();
        assert_eq!(b.cache_mb, Some(0), "0 explicitly disables the cache");
        let d = parse_args(argv(&["serve"])).unwrap();
        assert_eq!(d.cache_mb, None);
        assert!(parse_args(argv(&["serve", "--cache-mb"])).is_err());
        assert!(parse_args(argv(&["serve", "--cache-mb", "lots"])).is_err());
        assert!(parse_args(argv(&["serve", "--cache-mb", "-4"])).is_err());
    }

    #[test]
    fn parse_args_collects_query_text() {
        let a = parse_args(argv(&["query", "MATCH (n)", "RETURN n"])).unwrap();
        assert_eq!(a.rest.join(" "), "MATCH (n) RETURN n");
    }

    #[test]
    fn parse_args_rejects_missing_values() {
        assert!(parse_args(argv(&["build", "--seed"])).is_err());
        assert!(parse_args(argv(&["build", "--seed", "NaN"])).is_err());
        assert!(parse_args(argv(&["query", "--snapshot"])).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        let a = parse_args(argv(&["bogus"])).unwrap();
        assert!(run(&a).is_err());
    }
}
