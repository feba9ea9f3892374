//! The runner every workload goes through: repeated set-up, one warm-up
//! cycle, a time-bound window that ends on a cycle boundary, and the traced
//! pass. The rules it enforces are the README's "rules that make it repeat".

use crate::proc;
use crate::stats::{check_unimodal, median, percentile, quartiles, tail_percentile};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Threads the program under test may use. The generator is one more thread
/// with one connection; in a closed loop the two alternate, on one core.
/// Thread scaling is out of scope here.
pub const ENGINE_THREADS: usize = 1;

/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 5;

/// Shortest stretch of the window CPU time is read over: the kernel brings a
/// running thread's counter up to date once per scheduler tick (4 ms), so a
/// second resolves it to under half a per cent.
const CPU_SEGMENT_SECS: f64 = 1.0;

/// One named value with its unit, as printed.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Mean ns per call of `f`, over enough calls to fill ~20 ms — for the
/// kernel-sized layer metrics no span could resolve.
pub fn ns_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut calls = 0u64;
    let started = Instant::now();
    while started.elapsed().as_millis() < 20 {
        for _ in 0..16 {
            std::hint::black_box(f());
        }
        calls += 16;
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

/// One verified op as the generator saw it.
pub struct OpSample {
    /// Socket write → last body byte, or call → return.
    pub nanos: u64,
    /// Workload-defined cost class (hit / miss / reload); 0 when there is
    /// only one.
    pub class: u8,
}

/// What the window measured, handed to the workload for its layer metrics.
pub struct Window {
    pub samples: Vec<OpSample>,
    pub wall_secs: f64,
    /// Median latency over every op of the window — what a traced median is
    /// held against (the reported `latency_p50_ms` is the quietest cycle's).
    pub overall_p50_ms: f64,
}

impl Window {
    /// Ascending latencies (ms) of the samples in `class`.
    pub fn class_ms(&self, class: u8) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.nanos as f64 / 1e6)
            .collect();
        ms.sort_by(f64::total_cmp);
        ms
    }
}

/// One benchmark workload. `Fixture` is everything made from the seed
/// before the program under test is touched (corpus, request sequence,
/// oracles); `Self` is the program-side state a set-up repetition builds.
pub trait Workload: Sized {
    type Fixture;
    const NAME: &'static str;

    /// Generates the inputs and oracles. Excluded from `setup_s`, reported
    /// as `datagen.fixture_s`.
    fn fixture(seed: u64, smoke: bool) -> Result<Self::Fixture, String>;

    /// The program-side set-up, from an empty `dir`.
    fn set_up(fixture: &Self::Fixture, dir: &Path) -> Result<Self, String>;

    /// Ops per cycle. Windows hold whole cycles only.
    fn cycle_len(fixture: &Self::Fixture) -> usize;

    /// Runs op `index` of the cycle and checks its output. `Err` is a
    /// failed op (first mismatch text).
    fn op(&mut self, fixture: &Self::Fixture, index: usize) -> Result<OpSample, String>;

    /// The process whose CPU and memory are reported: the daemon child for
    /// wire workloads, `None` (this process) for library workloads.
    fn measured_pid(&self) -> Option<u32>;

    /// Checks that need the whole window (e.g. the hit-ratio band).
    fn check_window(
        &mut self,
        _fixture: &Self::Fixture,
        _window: &Window,
    ) -> Result<(), String> {
        Ok(())
    }

    /// Re-executes one cycle layer by layer under `tracer`.
    fn traced_cycle(
        &mut self,
        fixture: &Self::Fixture,
        tracer: &mut Tracer,
    ) -> Result<(), String>;

    /// The workload's own layer metrics, from the traced pass and window.
    fn layer_metrics(
        &mut self,
        fixture: &Self::Fixture,
        tracer: &Tracer,
        window: &Window,
    ) -> Result<Vec<Metric>, String>;

    /// Traced per-op time (ms) to hold against the untraced reference, as
    /// `(traced, untraced)`; the default compares the tracer's `op` spans
    /// with the window's overall median.
    fn trace_overhead(&self, tracer: &Tracer, window: &Window) -> (f64, f64) {
        (tracer.total_ms("op"), window.overall_p50_ms)
    }
}

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Scratch directory inside the checkout; emptied per set-up repetition.
    pub work_dir: PathBuf,
}

/// The outcome of one workload run, ready to print.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// `bimodal_p50` and window-level check failures.
    pub violations: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub samples: usize,
    pub cycles: u64,
    pub latency_quartiles_ms: [f64; 3],
    pub rss_reset: bool,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

fn empty_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

pub fn run<W: Workload>(opts: &Options) -> Result<Report, String> {
    let t = Instant::now();
    let fixture = W::fixture(opts.seed, opts.smoke)?;
    let fixture_s = t.elapsed().as_secs_f64();
    let cycle_len = W::cycle_len(&fixture);

    // —— set-up, repeated from an empty directory; the window runs against
    // the last repetition. Each repetition ends with the warm-up cycle,
    // where lazy state (graph opens, cache fill, allocator growth) is paid.
    let reps = if opts.smoke || opts.trace { 1 } else { SETUP_REPS };
    let mut setup_secs = Vec::with_capacity(reps);
    let mut workload = None;
    for _ in 0..reps {
        drop(workload.take());
        empty_dir(&opts.work_dir)?;
        let t = Instant::now();
        let mut w = W::set_up(&fixture, &opts.work_dir)?;
        for index in 0..cycle_len {
            w.op(&fixture, index).map_err(|e| format!("warm-up op {index}: {e}"))?;
        }
        setup_secs.push(t.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up repetition");

    // —— the untraced window: whole cycles until the time bound is reached.
    let pid = w.measured_pid();
    let rss_reset = proc::reset_peak_rss(pid);
    let server_cpu_0 = proc::cpu_ms(pid)?;
    let server_ticks_0 = proc::cpu_ticks_ms(pid)?;
    let self_ticks_0 = proc::cpu_ticks_ms(None)?;
    let mut samples: Vec<OpSample> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first_failure = None;
    let mut cpu_error = None;
    let mut marks = vec![Mark { secs: 0.0, ops: 0, cpu_ms: server_cpu_0 }];
    let started = Instant::now();
    let cycles = run_cycles(cycle_len, |step| match step {
        Step::Op(index) => {
            attempted += 1;
            match w.op(&fixture, index) {
                Ok(sample) => samples.push(sample),
                Err(e) => {
                    failed += 1;
                    first_failure.get_or_insert(format!("op {index}: {e}"));
                }
            }
            false
        }
        Step::CycleEnd => {
            let secs = started.elapsed().as_secs_f64();
            match proc::cpu_ms(pid) {
                Ok(cpu_ms) => marks.push(Mark { secs, ops: samples.len(), cpu_ms }),
                Err(e) => cpu_error = Some(e),
            }
            secs >= opts.seconds || cpu_error.is_some()
        }
    });
    if let Some(e) = cpu_error {
        return Err(e);
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let server_cpu_ms = proc::cpu_ms(pid)? - server_cpu_0;
    let server_ticks_ms = proc::cpu_ticks_ms(pid)? - server_ticks_0;
    let self_ticks_ms = proc::cpu_ticks_ms(None)? - self_ticks_0;
    let peak_rss_mb = proc::peak_rss_mib(pid)?;
    if samples.is_empty() {
        return Err(format!(
            "every op failed; first: {}",
            first_failure.unwrap_or_else(|| "none attempted".into())
        ));
    }

    let mut latencies_ms: Vec<f64> = samples.iter().map(|s| s.nanos as f64 / 1e6).collect();

    // The box this runs on drops into a mode up to 1.5× slower for seconds
    // at a time (a busy SMT sibling or neighbour; no steal time shows it),
    // and interference only ever adds time. So each figure is the window's
    // quietest stretch: the lowest median latency of any cycle, the highest
    // rate of any cycle, and the least CPU per op of any segment of a second
    // or more.
    let per_cycle = segments(&marks, 0.0);
    let quietest = per_cycle
        .iter()
        .map(|cycle| {
            let mut ms = latencies_ms[cycle.ops.clone()].to_vec();
            ms.sort_by(f64::total_cmp);
            ms
        })
        .min_by(|a, b| percentile(a, 50.0).total_cmp(&percentile(b, 50.0)))
        .ok_or("no cycle of the window completed an op")?;
    let p50_ms = percentile(&quietest, 50.0);
    let throughput = per_cycle.iter().map(Segment::rate).fold(f64::MIN, f64::max);
    let cpu_per_op = segments(&marks, CPU_SEGMENT_SECS)
        .iter()
        .map(Segment::cpu_ms_per_op)
        .fold(f64::MAX, f64::min);
    let mut violations = Vec::new();
    if let Err((p40, p50, p60)) = check_unimodal(&quietest) {
        violations
            .push(format!("bimodal_p50: p40 {p40:.4} ms, p50 {p50:.4} ms, p60 {p60:.4} ms"));
    }
    // The per-thread counters miss threads that came and went inside the
    // window; the process-wide tick count does not.
    if server_cpu_ms < 0.9 * server_ticks_ms - 20.0 {
        violations.push(format!(
            "cpu_undercount: live threads account for {server_cpu_ms:.0} ms of the \
             {server_ticks_ms:.0} ms the process used"
        ));
    }
    latencies_ms.sort_by(f64::total_cmp);
    let n_ok = samples.len();
    let window = Window { samples, wall_secs, overall_p50_ms: percentile(&latencies_ms, 50.0) };
    if let Err(e) = w.check_window(&fixture, &window) {
        violations.push(e);
    }

    let end_to_end = vec![
        metric("setup_s", median(&setup_secs), "s"),
        metric("latency_p50_ms", p50_ms, "ms"),
        metric("throughput_ops_s", throughput, "1/s"),
        metric("cpu_ms_per_op", cpu_per_op, "ms"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ];

    // —— the traced pass, after the window: at least three cycles, and for a
    // quarter of the window's length so short cycles give a median over many
    // ops.
    let mut per_layer = Vec::new();
    if opts.trace {
        let mut tracer = Tracer::new();
        let min_cycles = if opts.smoke { 1 } else { 3 };
        let started = Instant::now();
        for _ in 0..min_cycles {
            w.traced_cycle(&fixture, &mut tracer)?;
        }
        while !opts.smoke && started.elapsed().as_secs_f64() < opts.seconds / 4.0 {
            w.traced_cycle(&fixture, &mut tracer)?;
        }
        per_layer = w.layer_metrics(&fixture, &tracer, &window)?;
        let (tail_pct, tail_ms) = match tail_percentile(latencies_ms.len()) {
            Some(p) => (p, percentile(&latencies_ms, p)),
            None => (50.0, p50_ms),
        };
        let (traced_ms, untraced_ms) = w.trace_overhead(&tracer, &window);
        // For a library workload generator and program share the process, so
        // the generator's share is the window time spent outside the ops.
        let generator_share = match pid {
            Some(_) => self_ticks_ms / (self_ticks_ms + server_ticks_ms).max(1.0),
            None => 1.0 - latencies_ms.iter().sum::<f64>() / 1e3 / wall_secs,
        };
        per_layer.extend([
            metric("client.latency_tail_ms", tail_ms, "ms"),
            metric("client.latency_tail_pct", tail_pct, "%"),
            metric("client.latency_samples", latencies_ms.len() as f64, "count"),
            metric("client.cycles", cycles as f64, "count"),
            metric("window.wall_s", window.wall_secs, "s"),
            metric("datagen.fixture_s", fixture_s, "s"),
            metric("generator.cpu_share", generator_share, "ratio"),
            metric("trace.overhead_share", (traced_ms - untraced_ms) / untraced_ms, "ratio"),
            metric("trace.ops", f64::from(tracer.ops()), "count"),
        ]);
        let path = opts.work_dir.with_file_name(format!("trace-{}.json", W::NAME));
        std::fs::write(&path, tracer.to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    drop(w);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    Ok(Report {
        workload: W::NAME,
        attempted,
        failed,
        first_failure,
        violations,
        end_to_end,
        per_layer,
        samples: n_ok,
        cycles,
        latency_quartiles_ms: quartiles(&latencies_ms),
        rss_reset,
    })
}

/// A cycle boundary inside the window: time since window start, verified
/// ops so far, CPU the measured process has used so far.
struct Mark {
    secs: f64,
    ops: usize,
    cpu_ms: f64,
}

/// A run of whole cycles inside the window.
#[derive(Debug, PartialEq)]
struct Segment {
    /// Index range into the window's verified ops.
    ops: std::ops::Range<usize>,
    secs: f64,
    cpu_ms: f64,
}

impl Segment {
    fn rate(&self) -> f64 {
        self.ops.len() as f64 / self.secs
    }

    fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_ms / self.ops.len() as f64
    }
}

/// Cuts the window at cycle boundaries into segments of at least `min_secs`
/// (0 = one per cycle); the cycles left over at the end join the last
/// segment, and a window shorter than `min_secs` is one segment. Segments
/// without a verified op are dropped.
fn segments(marks: &[Mark], min_secs: f64) -> Vec<Segment> {
    let mut cuts = vec![0];
    for (i, mark) in marks.iter().enumerate().skip(1) {
        if mark.secs - marks[*cuts.last().expect("seeded")].secs >= min_secs {
            cuts.push(i);
        }
    }
    match cuts.len() {
        1 => cuts.push(marks.len() - 1),
        n => cuts[n - 1] = marks.len() - 1,
    }
    cuts.windows(2)
        .map(|cut| (&marks[cut[0]], &marks[cut[1]]))
        .filter(|(from, to)| to.ops > from.ops)
        .map(|(from, to)| Segment {
            ops: from.ops..to.ops,
            secs: to.secs - from.secs,
            cpu_ms: to.cpu_ms - from.cpu_ms,
        })
        .collect()
}

enum Step {
    /// Run op `index` of the cycle.
    Op(usize),
    /// A cycle just completed; answer whether the window is over.
    CycleEnd,
}

/// Runs whole cycles of `cycle_len` ops until `step(CycleEnd)` says stop, so
/// a window only ever ends on a cycle boundary and always holds at least one
/// cycle: every window has the same op mix whatever its length. Returns the
/// number of cycles.
fn run_cycles(cycle_len: usize, mut step: impl FnMut(Step) -> bool) -> u64 {
    let mut cycles = 0;
    loop {
        for index in 0..cycle_len {
            step(Step::Op(index));
        }
        cycles += 1;
        if step(Step::CycleEnd) {
            return cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ops a window of `budget` time units holds when every op costs 1.
    fn ops_in_window(cycle_len: usize, budget: u64) -> Vec<usize> {
        let mut clock = 0u64;
        let mut ops = Vec::new();
        run_cycles(cycle_len, |step| match step {
            Step::Op(index) => {
                clock += 1;
                ops.push(index);
                false
            }
            Step::CycleEnd => clock >= budget,
        });
        ops
    }

    #[test]
    fn windows_hold_whole_cycles_only() {
        // 10-op cycles against a budget of 25: the window runs on to the end
        // of the third cycle, and stops there.
        assert_eq!(ops_in_window(10, 25).len(), 30);
        assert_eq!(ops_in_window(10, 30).len(), 30);
        assert_eq!(ops_in_window(10, 31).len(), 40);
        // At least one cycle, however short the budget.
        assert_eq!(ops_in_window(500, 0).len(), 500);
        for budget in [1, 7, 99] {
            let ops = ops_in_window(7, budget);
            assert_eq!(ops.len() % 7, 0);
            assert!(ops.chunks(7).all(|cycle| cycle == [0, 1, 2, 3, 4, 5, 6]));
        }
    }

    #[test]
    fn segments_cut_the_window_at_cycle_boundaries() {
        // 0.4 s cycles of 4 ops against a 1 s floor: three cycles a segment,
        // the odd cycles at the end joining the last one.
        let marks: Vec<Mark> = (0..=10)
            .map(|i| Mark {
                secs: 0.4 * f64::from(i),
                ops: 4 * i as usize,
                cpu_ms: 5.0 * f64::from(i),
            })
            .collect();
        let cut = segments(&marks, 1.0);
        let ranges: Vec<_> = cut.iter().map(|s| s.ops.clone()).collect();
        assert_eq!(ranges, [0..12, 12..24, 24..40]);
        assert!(cut.iter().all(|s| (s.rate() - 10.0).abs() < 1e-9));
        assert!(cut.iter().all(|s| (s.cpu_ms_per_op() - 1.25).abs() < 1e-9));
        assert_eq!(segments(&marks, 0.0).len(), 10, "a floor of 0 is one segment per cycle");
        // A slow stretch stays inside its own segments.
        let mut marks = vec![Mark { secs: 0.0, ops: 0, cpu_ms: 0.0 }];
        for cycle in 1..=6 {
            let slow = cycle == 3 || cycle == 4;
            let last = marks.last().expect("seeded");
            marks.push(Mark {
                secs: last.secs + if slow { 3.0 } else { 1.0 },
                ops: last.ops + 10,
                cpu_ms: last.cpu_ms + if slow { 150.0 } else { 50.0 },
            });
        }
        let rates: Vec<f64> = segments(&marks, 1.0).iter().map(Segment::rate).collect();
        assert_eq!(rates.iter().filter(|r| **r == 10.0).count(), 4);
        assert_eq!(rates.iter().cloned().fold(f64::MIN, f64::max), 10.0);
        // A window shorter than the floor is one segment; one without a
        // verified op is none.
        let one =
            [Mark { secs: 0.0, ops: 0, cpu_ms: 0.0 }, Mark { secs: 0.5, ops: 5, cpu_ms: 10.0 }];
        assert_eq!(segments(&one, 1.0), [Segment { ops: 0..5, secs: 0.5, cpu_ms: 10.0 }]);
        let none =
            [Mark { secs: 0.0, ops: 0, cpu_ms: 0.0 }, Mark { secs: 2.0, ops: 0, cpu_ms: 1.0 }];
        assert!(segments(&none, 1.0).is_empty());
    }
}
