//! The `spade-serve` daemon: load a snapshot (or a whole directory of
//! them) and serve `/explore` until SIGTERM/SIGINT, then drain and exit 0.
//!
//! ```text
//! spade-serve --snapshot data.spade [--addr 127.0.0.1:7878] [--workers N]
//!             [--threads N] [--cache-bytes N] [--max-body-bytes N]
//!             [--drain-secs N] [--request-timeout F] [--admission-capacity N|auto]
//!             [--latency-slo-ms N] [--ledger-capacity N]
//!             [--k N] [--min-support F] [--slow-ms N] [--log-json]
//! spade-serve --snapshot-dir /dir/of/spade/files [--default-graph NAME]
//!             [--graph-memory-budget BYTES] [...]
//! ```
//!
//! `--snapshot-dir` registers every `DIR/*.spade` as a graph named after
//! its file stem, served at `/graphs/{name}/explore`; `--snapshot` may be
//! combined with it (or used alone, the one-graph legacy mode). The
//! default graph — `--default-graph`, else the `--snapshot` stem, else
//! the first name in sorted order — answers the unprefixed legacy routes
//! and is loaded eagerly; everything else opens lazily (memory-mapped).

use spade_serve::catalog::{graph_name_of, scan_snapshot_dir};
use spade_serve::server::{ServeConfig, Server};
use spade_serve::signal;
use std::path::PathBuf;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: spade-serve (--snapshot <path> | --snapshot-dir <dir>) [--addr <host:port>] \
         [--default-graph <name>] [--graph-memory-budget <bytes>] [--workers <n>] \
         [--threads <n>] [--cache-bytes <n>] [--max-body-bytes <n>] [--drain-secs <n>] \
         [--request-timeout <secs>] [--admission-capacity <n|auto>] \
         [--latency-slo-ms <n>] [--ledger-capacity <n>] \
         [--k <n>] [--min-support <f>] [--slow-ms <n>] [--log-json]"
    );
    std::process::exit(2);
}

fn main() {
    let mut snapshot: Option<PathBuf> = None;
    let mut snapshot_dir: Option<PathBuf> = None;
    let mut default_graph: Option<String> = None;
    let mut config = ServeConfig::default();
    let mut base = spade_core::SpadeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match flag {
            "--snapshot" => snapshot = Some(PathBuf::from(value())),
            "--snapshot-dir" => snapshot_dir = Some(PathBuf::from(value())),
            "--default-graph" => default_graph = Some(value()),
            "--graph-memory-budget" => config.graph_memory_budget = parse(&value(), flag),
            "--addr" => config.addr = value(),
            "--workers" => config.workers = parse(&value(), flag),
            "--threads" => config.threads = parse(&value(), flag),
            "--cache-bytes" => config.cache_bytes = parse(&value(), flag),
            "--max-body-bytes" => config.limits.max_body_bytes = parse(&value(), flag),
            "--drain-secs" => {
                config.drain_deadline = Duration::from_secs(parse(&value(), flag))
            }
            "--request-timeout" => {
                let secs: f64 = parse(&value(), flag);
                if secs <= 0.0 || !secs.is_finite() {
                    eprintln!("--request-timeout: must be positive");
                    usage();
                }
                config.request_timeout = Some(Duration::from_secs_f64(secs));
            }
            "--admission-capacity" => {
                // `auto` turns on the closed loop: capacity is seeded from
                // the static estimate and retargeted from the observed
                // per-graph cost profile as requests complete.
                let v = value();
                if v == "auto" {
                    config.admission_auto = true;
                } else {
                    config.admission_capacity = parse(&v, flag);
                }
            }
            "--latency-slo-ms" => {
                let ms: u64 = parse(&value(), flag);
                if ms == 0 {
                    eprintln!("--latency-slo-ms: must be positive");
                    usage();
                }
                config.latency_slo = Some(Duration::from_millis(ms));
            }
            "--ledger-capacity" => config.ledger_capacity = parse(&value(), flag),
            "--slow-ms" => config.slow_ms = parse(&value(), flag),
            "--log-json" => config.log_json = true,
            "--k" => base.k = parse(&value(), flag),
            "--min-support" => base.min_support = parse(&value(), flag),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    if snapshot.is_none() && snapshot_dir.is_none() {
        eprintln!("--snapshot or --snapshot-dir is required");
        usage();
    }

    // Assemble the catalog: every *.spade in --snapshot-dir, plus the
    // explicit --snapshot (which wins a name collision — being named on
    // the command line is the stronger intent).
    let mut graphs: Vec<(String, PathBuf)> = Vec::new();
    if let Some(dir) = &snapshot_dir {
        match scan_snapshot_dir(dir) {
            Ok(found) if found.is_empty() => {
                eprintln!("spade-serve: no *.spade snapshots in {}", dir.display());
                std::process::exit(1);
            }
            Ok(found) => graphs = found,
            Err(e) => {
                eprintln!("spade-serve: cannot scan {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    let snapshot_stem = snapshot.as_deref().map(graph_name_of);
    if let (Some(path), Some(stem)) = (&snapshot, &snapshot_stem) {
        graphs.retain(|(name, _)| name != stem);
        graphs.push((stem.clone(), path.clone()));
    }
    let default_graph = default_graph
        .or(snapshot_stem)
        .or_else(|| graphs.iter().map(|(name, _)| name.clone()).min())
        .expect("graphs is non-empty here");

    signal::install();
    let drain = config.drain_deadline;
    let n_graphs = graphs.len();
    let server = match Server::start_catalog(config, base, graphs, &default_graph) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("spade-serve: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "spade-serve: serving {n_graphs} graph(s), default {default_graph:?}, on http://{}",
        server.local_addr()
    );

    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("spade-serve: shutdown requested, draining (up to {drain:?})");
    let drained = server.shutdown(drain);
    eprintln!(
        "spade-serve: {}",
        if drained { "drained cleanly" } else { "drain deadline hit" }
    );
    std::process::exit(if drained { 0 } else { 1 });
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: invalid value {value:?}");
        usage()
    })
}
