//! `benchmark` — the repo's one pinned benchmark (contract: `/BENCHMARK.json`,
//! guide: `README.md` beside this file).
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark noise [--seed N] [--seconds S]
//! ```
//!
//! One workload per invocation prints, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the five
//! end-to-end metrics with `--trace 0`, every per-layer metric with
//! `--trace 1`. `--workload all` runs the five in turn and ends with a
//! summary object instead; `noise` runs the suite for two sides, three passes
//! each, and holds their medians against the bounds. Everything meant for
//! reading goes to stderr.

mod catalog;
mod cube;
mod daemon;
mod harness;
mod offline;
mod proc;
mod serve;
mod stats;
mod trace;

use catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use harness::{Options, Report, ENGINE_THREADS};
use spade_core::json::{self, JsonWriter};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Default window when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    /// The `noise` subcommand instead of a workload run.
    noise: bool,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        noise: false,
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "noise" => parsed.noise = true,
            "--workload" => parsed.workload = value("--workload")?,
            "--seed" => {
                parsed.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.smoke {
        parsed.seconds = parsed.seconds.min(2.0);
    }
    Ok(parsed)
}

fn options(args: &Args) -> Options {
    Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        // Inside the checkout (the working directory), never /tmp.
        work_dir: PathBuf::from(format!(".bench_work/{}", std::process::id())),
    }
}

fn run_workload(name: &str, opts: &Options) -> Result<Report, String> {
    let report = match name {
        "explore_cold" => harness::run::<serve::ExploreCold>(opts),
        "serve_mixed" => harness::run::<serve::ServeMixed>(opts),
        "cube_dense" => harness::run::<cube::CubeDense>(opts),
        "cube_earlystop" => harness::run::<cube::CubeEarlystop>(opts),
        "offline_build" => harness::run::<offline::OfflineBuild>(opts),
        other => Err(format!("unknown workload {other:?} (one of {:?} or all)", all_names())),
    }?;
    if let Some(stray) =
        report.per_layer.iter().find(|m| !PER_LAYER.iter().any(|(name, ..)| *name == m.name))
    {
        return Err(format!("{} is not in the per-layer catalog", stray.name));
    }
    Ok(report)
}

/// The machine and build a number belongs to.
fn environment(args: &Args) -> String {
    let nproc = proc::allowed_cores().len();
    let tool = |program: &str, argv: &[&str]| {
        Command::new(program)
            .args(argv)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".into())
    };
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("nproc").usize(nproc);
    w.key("engine_threads").usize(ENGINE_THREADS);
    w.key("generator_threads").usize(1);
    w.key("rustc").string(&tool("rustc", &["--version"]));
    w.key("commit").string(&tool("git", &["rev-parse", "--short", "HEAD"]));
    w.key("seed").uint(args.seed);
    w.key("window_seconds").f64(args.seconds);
    w.key("smoke").bool(args.smoke);
    w.end_object();
    w.finish()
}

/// The contract's result object: every end-to-end metric with `--trace 0`,
/// every per-layer metric of the catalog with `--trace 1`.
fn result_line(report: &Report, trace: bool) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("correct").bool(report.correct());
    w.key("attempted").uint(report.attempted);
    w.key("failed").uint(report.failed);
    w.key("metrics").begin_object();
    let mut put = |name: &str, value: f64, unit: &str| {
        w.key(name).begin_object();
        w.key("value").f64(value);
        w.key("unit").string(unit);
        w.end_object();
    };
    if trace {
        for (name, unit, ..) in PER_LAYER {
            let measured = report.per_layer.iter().find(|m| m.name == name);
            put(name, measured.map_or(0.0, |m| m.value), unit);
        }
    } else {
        for m in &report.end_to_end {
            put(m.name, m.value, m.unit);
        }
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// The human-readable side of a report, on stderr.
fn describe(report: &Report) {
    eprintln!(
        "== {}: {} ops attempted, {} failed, {} verified in {} whole cycles",
        report.workload, report.attempted, report.failed, report.samples, report.cycles
    );
    let [q1, q2, q3] = report.latency_quartiles_ms;
    eprintln!(
        "   latency quartiles {q1:.4} / {q2:.4} / {q3:.4} ms; rss reset: {}",
        report.rss_reset
    );
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        eprintln!("   {:36} {:>18.4} {}", m.name, m.value, m.unit);
    }
    if let Some(failure) = &report.first_failure {
        eprintln!("   FIRST FAILED OP: {failure}");
    }
    for violation in &report.violations {
        eprintln!("   VIOLATION: {violation}");
    }
}

/// One workload in this process: pin, run, describe, print the result line.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    // Before anything measures or spawns: everything runs on one core, and
    // the orchestrating modes leave the choice of it to their children.
    let pinned = proc::bench_core().is_some_and(proc::pin_current_thread);
    if !pinned {
        eprintln!(
            "benchmark: not pinned to a core of its own; the OS shares the one it runs on"
        );
    }
    eprintln!("environment {} pinned: {pinned}", environment(args));
    let report = run_workload(name, &options(args))?;
    describe(&report);
    println!("{}", result_line(&report, args.trace));
    Ok(report.correct())
}

fn all_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|(name, _)| *name).collect()
}

/// One workload in a process of its own, as the driver runs it — so that
/// peak memory, allocator state and caches of one workload never carry into
/// the next. Returns the child's result line and whether it exited 0; the
/// child's readable output passes through on stderr.
fn run_child(name: &str, args: &Args) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    let out = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{name}: spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or(format!("{name}: no result ({})", out.status))?;
    Ok((line.to_owned(), out.status.success()))
}

/// `--workload all`: the five in turn, then one summary object.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("environment").raw(&environment(args));
    w.key("workloads").begin_object();
    for name in all_names() {
        let (line, success) = run_child(name, args)?;
        ok &= success;
        w.key(name).raw(&line);
    }
    w.end_object();
    w.key("claim").null();
    w.end_object();
    println!("{}", w.finish());
    Ok(ok)
}

/// Suite passes per side of the A/A comparison.
const NOISE_PASSES: usize = 3;

/// `noise`: the whole suite on the same build for two sides, A and B, in
/// alternating passes (A B A B A B, so a slow spell of the machine falls on
/// both), each side's figure the median of its passes. Prints per workload ×
/// end-to-end metric both medians, their relative difference and the bound;
/// fails on any breach and on any run that was not correct.
fn run_noise(args: &Args) -> Result<bool, String> {
    let names = all_names();
    // [side][workload][metric] → one value per pass.
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; names.len()]; 2];
    let mut ok = true;
    for pass in 0..2 * NOISE_PASSES {
        for (wi, name) in names.iter().enumerate() {
            let (line, success) = run_child(name, args)?;
            if !success {
                ok = false;
                println!("{name:15} pass {pass}: not correct: {line}");
            }
            let doc = json::parse(&line).map_err(|e| format!("{name}: result line: {e}"))?;
            for (mi, spec) in END_TO_END.iter().enumerate() {
                let value = doc
                    .get("metrics")
                    .and_then(|m| m.get(spec.name))
                    .and_then(|m| m.get("value"))
                    .and_then(|v| v.as_f64())
                    .ok_or(format!("{name}: result has no {}", spec.name))?;
                values[pass % 2][wi][mi].push(value);
            }
        }
    }
    println!(
        "{:15} {:17} {:5} {:7} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "unit", "better", "median A", "median B", "diff", "bound"
    );
    for (wi, name) in names.iter().enumerate() {
        for (mi, spec) in END_TO_END.iter().enumerate() {
            let (a, b) = (stats::median(&values[0][wi][mi]), stats::median(&values[1][wi][mi]));
            let diff = (b - a) / a;
            let breach = diff.abs() > spec.bound;
            ok &= !breach;
            println!(
                "{:15} {:17} {:5} {:7} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%{}",
                name,
                spec.name,
                spec.unit,
                spec.better,
                a,
                b,
                diff * 100.0,
                spec.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    println!("noise: {}", if ok { "within bounds" } else { "OUT OF BOUNDS" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        _ if args.noise => run_noise(&args),
        "all" => run_all(&args),
        name => run_one(name, &args),
    };
    // The work directory is per process; its parent stays for the traces.
    let _ = std::fs::remove_dir_all(options(&args).work_dir);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_core::json::Json;

    fn args_of(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let args =
            args_of("--workload serve_mixed --seed 42 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds),
            ("serve_mixed", 42, 10.0)
        );
        assert!(args.trace && !args.smoke);
        assert!(args_of("noise --seconds 15").expect("valid").noise);
        assert_eq!(args_of("--workload all --smoke").expect("valid").seconds, 2.0);
        assert!(args_of("--trace 2").is_err());
        assert!(args_of("--seconds 0").is_err());
        assert!(args_of("--frobnicate").is_err());
    }

    fn names_of(doc: &Json, section: &str) -> Vec<String> {
        doc.get(section)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} array"))
            .iter()
            .map(|entry| entry.get("name").and_then(Json::as_str).expect("name").to_owned())
            .collect()
    }

    /// `/BENCHMARK.json` and the catalog say the same thing.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let manifest_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let path = manifest_dir
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|candidate| candidate.is_file())
            .expect("BENCHMARK.json above the manifest directory");
        let text = std::fs::read_to_string(&path).expect("readable");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");

        assert_eq!(names_of(&doc, "workloads"), all_names());
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names_of(&doc, "end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|(name, ..)| *name).collect();
        assert_eq!(names_of(&doc, "per_layer"), layers);

        let valid = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(all_names().into_iter().chain(e2e).chain(layers).all(valid));

        let entries = doc.get("end_to_end").and_then(Json::as_array).expect("array");
        for (entry, spec) in entries.iter().zip(&END_TO_END) {
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(spec.unit),
                "{}",
                spec.name
            );
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(spec.better));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(spec.bound));
            assert!(spec.bound <= 0.25);
        }
        let entries = doc.get("per_layer").and_then(Json::as_array).expect("array");
        for (entry, (name, unit, better, _)) in entries.iter().zip(PER_LAYER) {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit), "{name}");
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better), "{name}");
        }
        let whys = doc.get("workloads").and_then(Json::as_array).expect("array");
        for (entry, (name, why)) in whys.iter().zip(WORKLOADS) {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(why), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
    }

    /// `--smoke`: every workload end to end at toy sizes — 2 s windows, one
    /// set-up repetition, one traced cycle. The wire workloads need the
    /// daemon binary beside this test executable (`cargo build` first);
    /// without it they are skipped, loudly.
    #[test]
    fn smoke_runs_every_workload() {
        let have_daemon = daemon::binary().is_ok();
        if !have_daemon {
            eprintln!("smoke: no spade-serve beside the test binary, skipping wire workloads");
        }
        let args = args_of("--workload all --seconds 1 --trace 1 --smoke").expect("valid");
        for name in all_names() {
            if !have_daemon && matches!(name, "explore_cold" | "serve_mixed") {
                continue;
            }
            let mut opts = options(&args);
            opts.work_dir = std::env::temp_dir()
                .join(format!("spade-benchmark-smoke-{}", std::process::id()))
                .join(name);
            let report = run_workload(name, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(report.failed, 0, "{name}: {:?}", report.first_failure);
            assert!(report.attempted >= 1 && report.cycles >= 1, "{name}");
            assert_eq!(report.end_to_end.len(), END_TO_END.len(), "{name}");
            for m in &report.end_to_end {
                assert!(
                    m.value > 0.0 && m.value.is_finite(),
                    "{name}: {} = {}",
                    m.name,
                    m.value
                );
            }
            let line = result_line(&report, true);
            let doc = json::parse(&line).expect("result line is JSON");
            let metrics = doc.get("metrics").and_then(Json::as_object).expect("metrics");
            assert_eq!(metrics.len(), PER_LAYER.len(), "{name}");
            for (layer, _, _, owner) in PER_LAYER {
                let value = doc
                    .get("metrics")
                    .and_then(|m| m.get(layer))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("{name}: {layer} missing"));
                assert!(value.is_finite(), "{name}: {layer} = {value}");
                if owner != name && owner != "all" {
                    assert_eq!(value, 0.0, "{name} must not report {owner}'s {layer}");
                }
            }
            let _ = std::fs::remove_dir_all(opts.work_dir.parent().expect("parent"));
        }
    }
}
