//! The repository benchmark: runs one workload of the weak-distance stack
//! for a fixed time, checks every verdict against an independent reference,
//! and prints its metrics as one JSON object on the last line of stdout.
//!
//! ```text
//! cargo run --release --manifest-path wdmbench/Cargo.toml -- \
//!     --workload paper|fpir_corpus|service_campaign --seed N --seconds S --trace 0|1
//! ```
//!
//! A run sets the workload up, then decides the workload's fixed,
//! seed-generated target set over and over ("passes") until `--seconds`
//! have elapsed. Between passes, outside the timed window, it sets the
//! workload up once more (`setup_s` is the median of these set-ups) and
//! runs a durability drill. Where every pass repeats the same searches,
//! each decision and each restart is timed many times over the run and the
//! best of its times is kept; otherwise the run reports medians.
//! With `--trace 1` every other pass is traced: spans around each layer's
//! public calls are kept in memory, written to
//! `<target dir>/wdmbench-out/trace-<workload>.json`, and reduced to the
//! per-layer metrics. See `wdmbench/METRICS.md` for what each metric
//! means and which end-to-end metric it should move.

mod corpus;
mod drill;
mod fpir_corpus;
mod paper;
mod service;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::Value;
use util::{median, quantile};

/// The outcome of one timed decision: one target, or one study that
/// decides several targets at once (an overflow report covers every
/// operation site of its program).
#[derive(Debug, Clone)]
pub struct Verdict {
    pub latency_ms: f64,
    /// Targets this decision covered.
    pub targets: u32,
    /// Targets with a witness that passed replay.
    pub found: u32,
    /// Why the verdict is wrong, if it is.
    pub failure: Option<String>,
}

impl Verdict {
    pub fn ok(latency_ms: f64, targets: u32, found: u32) -> Self {
        Verdict {
            latency_ms,
            targets,
            found,
            failure: None,
        }
    }

    pub fn failed(latency_ms: f64, why: String) -> Self {
        Verdict {
            latency_ms,
            targets: 1,
            found: 0,
            failure: Some(why),
        }
    }
}

/// One decision of the workload's whole target set.
#[derive(Debug, Default)]
pub struct Pass {
    pub verdicts: Vec<Verdict>,
    /// Counters that must repeat exactly from pass to pass (and, for the
    /// service, at one worker as at two).
    pub deterministic: BTreeMap<&'static str, u64>,
}

impl Pass {
    pub fn found(&self) -> u64 {
        self.verdicts.iter().map(|v| v.found as u64).sum()
    }

    pub fn targets(&self) -> u64 {
        self.verdicts.iter().map(|v| v.targets as u64).sum()
    }
}

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A set-up workload.
pub trait Workload {
    /// Decides every target once. `index` counts passes from 0; a
    /// workload whose passes [`repeat`](Workload::repeats) ignores it.
    fn pass(&mut self, index: u64) -> Pass;

    /// Whether every pass repeats pass 0 exactly: the same decisions in the
    /// same order with the same search seeds, and every drill restart the
    /// same work. Each decision is then timed once per pass, and the run
    /// reports for each decision and for the restarts the best of their
    /// times, since a busy machine only ever adds time; every pass must
    /// also repeat pass 0's deterministic counters bit for bit. A workload
    /// that does not repeat pools its timings and reports medians.
    fn repeats(&self) -> bool {
        true
    }

    /// One durability drill: stop with work in flight, restart, and return
    /// for each restart the milliseconds until every in-flight job is back
    /// where it was.
    fn recover_ms(&mut self) -> Result<Vec<f64>, String>;

    /// Called after every pass, outside the timed window.
    fn between_passes(&mut self) {}

    /// Checks run once after timing; returns failure reasons.
    fn final_checks(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Reduces the spans of the traced passes (plus any probes the workload
    /// runs now, traced) to per-layer metrics.
    fn layer_metrics(&mut self, traced: &trace::Drained, out: &mut Metrics);
}

const WORKLOADS: [&str; 3] = ["paper", "fpir_corpus", "service_campaign"];

/// Every per-layer metric a traced run reports, with its unit. A layer a
/// workload bypasses reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("fpir.static_ms", "ms"),
    ("fpir.opt_ms", "ms"),
    ("fpir.opt_kept_ratio", "ratio"),
    ("fpir.insts_per_eval", "insts"),
    ("fpir.opt_insts_saved_frac", "ratio"),
    ("fpir.kernel_ns_per_eval", "ns"),
    ("fpir.interp_ns_per_eval", "ns"),
    ("fpir.kernel_eligible_ratio", "ratio"),
    ("gsl.ns_per_eval", "ns"),
    ("mo.evals", "count"),
    ("mo.ns_per_eval", "ns"),
    ("mo.overhead_ns_per_eval", "ns"),
    ("mo.bh.ns_per_eval", "ns"),
    ("mo.de.ns_per_eval", "ns"),
    ("mo.powell.ns_per_eval", "ns"),
    ("mo.ms.ns_per_eval", "ns"),
    ("mo.rs.ns_per_eval", "ns"),
    ("core.boundary_ms", "ms"),
    ("core.path_ms", "ms"),
    ("core.overflow_ms", "ms"),
    ("core.coverage_ms", "ms"),
    ("core.static_pruned", "count"),
    ("core.found_ratio", "ratio"),
    ("core.evals_per_found", "count"),
    ("core.adaptive_round_us", "us"),
    ("core.adaptive_overhead_us_per_slice", "us"),
    ("core.adaptive_evals_ratio", "ratio"),
    ("core.ckpt_bytes", "bytes"),
    ("core.ckpt_ser_us", "us"),
    ("core.ckpt_restore_us", "us"),
    ("xsat.solve_ms", "ms"),
    ("xsat.sat_ratio", "ratio"),
    ("service.queue_ms", "ms"),
    ("service.turn_ms_p50", "ms"),
    ("service.turn_ms_p90", "ms"),
    ("service.turns_per_job", "count"),
    ("service.ckpt_writes", "count"),
    ("service.ckpt_disk_bytes", "bytes"),
    ("service.replayed_turns", "count"),
    ("service.resume_ms", "ms"),
    ("wire.rtt_us", "us"),
    ("wire.submit_us", "us"),
    ("trace.overhead_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Scratch directory for checkpoints and trace output: next to the
/// benchmark binary, so inside the build directory of the checkout.
pub fn out_dir() -> std::path::PathBuf {
    let base = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|p| p.to_path_buf()))
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    base.join("wdmbench-out")
}

/// A per-process scratch directory under [`out_dir`], removed on drop.
pub struct ScratchDir(pub std::path::PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        "paper" => Ok(Box::new(paper::Paper::setup(seed))),
        "fpir_corpus" => Ok(Box::new(fpir_corpus::FpirCorpus::setup(seed))),
        "service_campaign" => Ok(Box::new(service::Campaign::setup(seed)?)),
        _ => Err(format!("unknown workload {name}")),
    }
}

/// What the final JSON line reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn print_report(report: &Report) {
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // A metric without samples (the median of nothing is NaN)
            // reports 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            let metric = Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(unit.to_string())),
            ]);
            (name.clone(), metric)
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(report.correct)),
        ("attempted".into(), Value::UInt(report.attempted)),
        ("failed".into(), Value::UInt(report.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(
        stdout,
        "{}",
        serde_json::to_string(&line).expect("report renders")
    );
    let _ = stdout.flush();
}

/// Ends the process with a failed result if the run outlives `limit`: a
/// wedged layer must end the run with a reason, never hang it.
fn start_watchdog(
    limit: Duration,
    progress: Arc<Mutex<(u64, u64, String)>>,
    done: Arc<AtomicBool>,
) {
    std::thread::spawn(move || {
        let start = Instant::now();
        while start.elapsed() < limit {
            if done.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        let (attempted, failed, stage) = progress.lock().map(|p| p.clone()).unwrap_or_default();
        eprintln!("watchdog: run exceeded {limit:?} during {stage}; ending it as failed");
        // Exiting skips the scratch directories' destructors.
        let tag = format!("-{}-", std::process::id());
        if let Ok(entries) = std::fs::read_dir(out_dir()) {
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().contains(&tag) {
                    let _ = std::fs::remove_dir_all(entry.path());
                }
            }
        }
        print_report(&Report {
            correct: false,
            attempted: attempted.max(1),
            failed: failed + 1,
            metrics: Vec::new(),
        });
        std::process::exit(3);
    });
}

/// Between-pass probes per run (one set-up sample and one durability
/// drill each): one after each pass up to the maximum, and topped up to the
/// minimum after the last pass.
const MIN_PROBES: usize = 9;
const MAX_PROBES: usize = 30;
/// A set-up sample repeats the set-up until it has timed this much, so a
/// set-up of microseconds is timed over many instances.
const SETUP_SAMPLE_S: f64 = 0.01;

/// Times the workload's set-up: returns seconds per set-up, and the last
/// instance built.
fn setup_sample(name: &str, seed: u64) -> Result<(f64, Box<dyn Workload>), String> {
    let (mut total, mut count) = (0.0, 0u32);
    loop {
        let t = Instant::now();
        let workload = setup(name, seed)?;
        total += t.elapsed().as_secs_f64();
        count += 1;
        if total >= SETUP_SAMPLE_S {
            return Ok((total / count as f64, workload));
        }
    }
}

/// One between-pass probe: a set-up sample and a durability drill.
fn probe(
    args: &Args,
    workload: &mut dyn Workload,
    setups: &mut Vec<f64>,
    recovers: &mut Vec<f64>,
    failures: &mut Vec<String>,
) {
    match setup_sample(&args.workload, args.seed) {
        Ok((s, _)) => setups.push(s),
        Err(e) => failures.push(format!("set-up: {e}")),
    }
    match workload.recover_ms() {
        Ok(ms) => recovers.extend(ms),
        Err(e) => failures.push(format!("durability drill: {e}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wdmbench: {e}");
            std::process::exit(2);
        }
    };
    let progress = Arc::new(Mutex::new((0u64, 0u64, "setup".to_string())));
    let done = Arc::new(AtomicBool::new(false));
    // Runs must end within 180 s: leave room after the measured window for
    // the tail pass, the drills and the final checks.
    let limit = Duration::from_secs_f64((args.seconds + 140.0).min(170.0));
    start_watchdog(limit, Arc::clone(&progress), Arc::clone(&done));
    let stage = |s: &str| {
        if let Ok(mut p) = progress.lock() {
            p.2 = s.to_string();
        }
    };

    let (setup_time, mut workload) = match setup_sample(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("wdmbench: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    let mut setups = vec![setup_time];

    // Timed passes. In a traced run every other pass is traced; untraced
    // passes alone feed the end-to-end numbers. A repeating workload runs
    // at least two passes, so that its determinism is always checked.
    stage("passes");
    let repeats = workload.repeats();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut latencies = Vec::new();
    // Repeating workloads: the best time of each decision so far.
    let mut best: Vec<f64> = Vec::new();
    let mut first: Option<Pass> = None;
    let mut traced = trace::Drained::default();
    let mut traced_passes = 0usize;
    let mut recovers = Vec::new();
    let mut probes = 0usize;
    let start = Instant::now();
    let mut index = 0usize;
    while index < 1 + repeats as usize
        || start.elapsed().as_secs_f64() < args.seconds
        || (args.trace && traced_passes == 0)
    {
        let tracing = args.trace && index % 2 == 1;
        trace::set_enabled(tracing);
        let t = Instant::now();
        let pass = workload.pass(index as u64);
        let wall = t.elapsed().as_secs_f64();
        trace::set_enabled(false);
        workload.between_passes();
        // Probes run between passes, so their samples span the whole run
        // rather than one moment at its start or end.
        if probes < MAX_PROBES {
            probe(
                &args,
                &mut *workload,
                &mut setups,
                &mut recovers,
                &mut failures,
            );
            probes += 1;
        }
        if tracing {
            traced.merge(trace::drain());
            traced_passes += 1;
            traced_walls.push(wall);
        } else {
            walls.push(wall);
            if !repeats {
                latencies.extend(pass.verdicts.iter().map(|v| v.latency_ms));
            } else if best.is_empty() {
                best = pass.verdicts.iter().map(|v| v.latency_ms).collect();
            } else {
                for (b, v) in best.iter_mut().zip(&pass.verdicts) {
                    *b = b.min(v.latency_ms);
                }
            }
        }
        attempted += pass.verdicts.len() as u64;
        for v in &pass.verdicts {
            if let Some(why) = &v.failure {
                failures.push(why.clone());
            }
        }
        match &first {
            None => first = Some(pass),
            Some(first) if repeats => {
                if pass.verdicts.len() != first.verdicts.len()
                    || pass.found() != first.found()
                    || pass.deterministic != first.deterministic
                {
                    failures.push(format!(
                        "pass {index}: {} verdicts, found {}, deterministic counters {:?} differ from pass 0's {} verdicts, found {}, {:?}",
                        pass.verdicts.len(),
                        pass.found(),
                        pass.deterministic,
                        first.verdicts.len(),
                        first.found(),
                        first.deterministic
                    ));
                }
            }
            Some(_) => {}
        }
        if let Ok(mut p) = progress.lock() {
            p.0 = attempted;
            p.1 = failures.len() as u64;
        }
        index += 1;
    }
    let first = first.expect("at least one pass ran");

    stage("durability drill");
    while probes < MIN_PROBES {
        probe(
            &args,
            &mut *workload,
            &mut setups,
            &mut recovers,
            &mut failures,
        );
        probes += 1;
    }
    attempted += probes as u64;

    stage("final checks");
    failures.extend(workload.final_checks());

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if args.trace {
        stage("layer metrics");
        trace::set_enabled(true);
        let mut layer = Metrics::new();
        workload.layer_metrics(&traced, &mut layer);
        trace::set_enabled(false);
        // Outcome counters every workload shares, from the first pass.
        let found = first.found() as f64;
        let counter = |name: &str| first.deterministic.get(name).copied().unwrap_or(0) as f64;
        layer.insert("mo.evals", counter("mo.evals"));
        layer.insert("core.static_pruned", counter("core.static_pruned"));
        layer.insert("core.found_ratio", found / first.targets().max(1) as f64);
        layer.insert("core.evals_per_found", counter("mo.evals") / found.max(1.0));
        layer.insert("trace.overhead_s", trace_overhead(&walls, &traced_walls));
        print_layer_table(&args.workload, &traced, traced_passes);
        write_spans(&args.workload, &traced);
        for &(name, unit) in LAYER_METRICS {
            metrics.push((
                name.to_string(),
                layer.get(name).copied().unwrap_or(0.0),
                unit,
            ));
        }
    } else {
        // A repeating workload's pass time is the sum of its decisions'
        // best times, and its restart time the fastest restart.
        let (wall, recover) = if repeats {
            latencies = best;
            let fastest = recovers.iter().copied().fold(f64::NAN, f64::min);
            (latencies.iter().sum::<f64>() / 1e3, fastest)
        } else {
            (median(&walls), median(&recovers))
        };
        metrics.push(("setup_s".into(), median(&setups), "s"));
        metrics.push(("wall_s".into(), wall, "s"));
        metrics.push(("verdict_p50_ms".into(), quantile(&latencies, 0.5), "ms"));
        metrics.push(("verdict_p90_ms".into(), quantile(&latencies, 0.9), "ms"));
        metrics.push(("targets_found".into(), first.found() as f64, "count"));
        metrics.push(("peak_rss_mb".into(), util::peak_rss_mb(), "MB"));
        metrics.push(("recover_ms".into(), recover, "ms"));
    }
    drop(workload);
    done.store(true, Ordering::SeqCst);

    for why in failures.iter().take(20) {
        eprintln!("FAILED: {why}");
    }
    eprintln!(
        "wdmbench {}: seed {} passes {} ({} traced) verdicts {} failed {}; untraced pass walls (s) {:.3?}",
        args.workload,
        args.seed,
        index,
        traced_passes,
        attempted,
        failures.len(),
        walls
    );
    print_report(&Report {
        correct: failures.is_empty(),
        attempted,
        failed: failures.len() as u64,
        metrics,
    });
}

/// Traced minus untraced pass time. Pass `2k + 1` is traced and sits between
/// untraced passes `2k` and `2k + 2`, so each traced pass is compared with
/// the mean of its neighbours and the machine's drift over the run cancels;
/// the median over traced passes is reported.
fn trace_overhead(walls: &[f64], traced_walls: &[f64]) -> f64 {
    let diffs: Vec<f64> = traced_walls
        .iter()
        .enumerate()
        .filter_map(|(k, t)| {
            let before = walls.get(k)?;
            let after = walls.get(k + 1).unwrap_or(before);
            Some(t - (before + after) / 2.0)
        })
        .collect();
    median(&diffs)
}

/// Prints the per-layer self-time table of the traced passes to stderr.
fn print_layer_table(workload: &str, traced: &trace::Drained, passes: usize) {
    let passes = passes.max(1) as f64;
    eprintln!("per-layer self time, {workload}, mean per traced pass:");
    eprintln!(
        "{:<28} {:>12} {:>12} {:>12}",
        "span", "calls", "total ms", "self ms"
    );
    for (name, (calls, total, selft)) in traced.table() {
        eprintln!(
            "{:<28} {:>12.0} {:>12.3} {:>12.3}",
            name,
            calls as f64 / passes,
            total as f64 / 1e6 / passes,
            selft as f64 / 1e6 / passes
        );
    }
}

/// Writes every recorded span to `trace-<workload>.json` under [`out_dir`].
fn write_spans(workload: &str, traced: &trace::Drained) {
    let dir = out_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let spans = traced
        .spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".into(), Value::Str(s.name.to_string())),
                ("req".into(), Value::UInt(s.req)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
                ("start_ns".into(), Value::UInt(s.start_ns)),
                ("dur_ns".into(), Value::UInt(s.dur_ns)),
                ("self_ns".into(), Value::UInt(s.self_ns)),
            ])
        })
        .collect();
    let leaves = traced
        .leaves
        .iter()
        .map(|(n, l)| {
            let leaf = Value::Object(vec![
                ("ns".into(), Value::UInt(l.ns)),
                ("evals".into(), Value::UInt(l.evals)),
                ("calls".into(), Value::UInt(l.calls)),
            ]);
            (n.to_string(), leaf)
        })
        .collect();
    let doc = Value::Object(vec![
        ("spans".into(), Value::Array(spans)),
        ("leaves".into(), Value::Object(leaves)),
    ]);
    let text = serde_json::to_string(&doc).expect("spans render");
    let path = dir.join(format!("trace-{workload}.json"));
    if std::fs::write(&path, text).is_ok() {
        eprintln!("spans written to {}", path.display());
    }
}
