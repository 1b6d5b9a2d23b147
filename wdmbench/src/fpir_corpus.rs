//! The `fpir_corpus` workload: seeded `fpir` modules ([`crate::corpus`])
//! under boundary, path, overflow and coverage analysis with the default
//! `Auto` kernel and optimization policies.
//!
//! Every witness is replayed on an independent reference: a plain
//! `ModuleProgram` over the same module run through `Analyzable::run`,
//! i.e. the unoptimized scalar interpreter (`KernelPolicy::Never`,
//! `OptPolicy::Never`).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use fp_runtime::{
    Analyzable, BranchEvent, BranchId, KernelPolicy, NullObserver, ObservationSpec, Observer,
    OpEvent, OpId, OptPolicy, ProbeControl, SiteSet,
};
use fpir::ModuleProgram;
use wdm_core::boundary::{BoundaryAnalysis, BoundaryMode, BoundaryWeakDistance};
use wdm_core::coverage::CoverageAnalysis;
use wdm_core::overflow::OverflowDetector;
use wdm_core::path::{Path, PathAnalysis};
use wdm_core::{AnalysisConfig, MinimizationRun, WeakDistance};

use crate::corpus::{self, Planted, SITE_P, SITE_U};
use crate::drill::Drill;
use crate::trace::{self, Timed, FPIR_EVAL};
use crate::util::{fingerprint, Rng};
use crate::{Metrics, Pass, Verdict, Workload};

/// Modules in the corpus.
const MODULES: usize = 96;
/// Per-round evaluation budget of each module, drawn one per stratum, for
/// a module executing `INSTS_PER_BUDGET` instructions per evaluation; a
/// module's budget scales inversely with its measured instruction count.
const BUDGET: (f64, f64) = (600.0, 1_800.0);
const INSTS_PER_BUDGET: f64 = 250.0;
const ROUNDS: usize = 2;
/// Seeded inputs per module for the batch probes; the first
/// `INSTS_SAMPLE` of them also count instructions.
const SAMPLE: usize = 64;
const INSTS_SAMPLE: usize = 16;

struct Entry {
    planted: Planted,
    /// The program the analyses run (kernel and optimizer allowed).
    program: ModuleProgram,
    /// The independent reference: same module, scalar interpreter only.
    reference: ModuleProgram,
    config: AnalysisConfig,
    /// Seeded sample inputs for the probes.
    sample: Vec<Vec<f64>>,
}

impl Entry {
    /// Instructions the reference interpreter executes over the first
    /// `INSTS_SAMPLE` sample inputs (deterministic).
    fn sample_insts(&self) -> u64 {
        self.sample
            .iter()
            .take(INSTS_SAMPLE)
            .map(|x| self.reference.instructions_executed(x).unwrap_or(0))
            .sum()
    }
}

pub struct FpirCorpus {
    entries: Vec<Entry>,
    drill: Drill,
    /// Nanoseconds spent in validation + `ModuleProgram::new` +
    /// `static_info` during set-up.
    static_ns: u64,
}

/// Every branch event of one replay.
#[derive(Default)]
struct Branches(Vec<BranchEvent>);

impl Observer for Branches {
    fn on_branch(&mut self, ev: &BranchEvent) -> ProbeControl {
        self.0.push(*ev);
        ProbeControl::Continue
    }
}

struct Overflows(BTreeSet<OpId>);

impl Observer for Overflows {
    fn on_op(&mut self, ev: &OpEvent) -> ProbeControl {
        if !ev.value.is_finite() || ev.value.abs() >= f64::MAX {
            self.0.insert(ev.id);
        }
        ProbeControl::Continue
    }
}

fn replay_branches(reference: &ModuleProgram, x: &[f64]) -> Vec<BranchEvent> {
    let mut rec = Branches::default();
    reference.run(x, &mut rec);
    rec.0
}

impl FpirCorpus {
    pub fn setup(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let budgets = rng.stratified(MODULES, BUDGET.0, BUDGET.1);
        let mut planted = Vec::with_capacity(MODULES);
        while planted.len() < MODULES {
            for shape in corpus::shapes(&mut rng, MODULES - planted.len()) {
                if let Some(p) = shape.plant() {
                    planted.push(p);
                }
            }
        }
        let mut static_ns = 0u64;
        let entries: Vec<Entry> = planted
            .into_iter()
            .zip(budgets)
            .enumerate()
            .map(|(i, (p, budget))| {
                let t = Instant::now();
                fpir::validate(&p.module).expect("generated module validates");
                let program = ModuleProgram::new(p.module.clone(), "prog")
                    .expect("entry exists")
                    .with_domain(p.shape.domain());
                program.static_info();
                static_ns += t.elapsed().as_nanos() as u64;
                let reference = ModuleProgram::new(p.module.clone(), "prog")
                    .expect("entry exists")
                    .with_domain(p.shape.domain());
                let mut srng = Rng::new(seed ^ (i as u64 + 1).wrapping_mul(0x9E37));
                let sample: Vec<Vec<f64>> = (0..SAMPLE)
                    .map(|_| {
                        p.shape
                            .half_widths
                            .iter()
                            .map(|&d| srng.range(-d, d))
                            .collect()
                    })
                    .collect();
                // Budgets are in units of interpreted instructions, so a
                // module's budget-exhausting targets cost the same however
                // large the module is drawn.
                let mut entry = Entry {
                    config: AnalysisConfig::quick(srng.next_u64() >> 16).with_rounds(ROUNDS),
                    planted: p,
                    program,
                    reference,
                    sample,
                };
                let insts = entry.sample_insts() as f64 / INSTS_SAMPLE as f64;
                let evals = (budget * INSTS_PER_BUDGET / insts.max(1.0)).clamp(200.0, 8_000.0);
                entry.config.max_evals = evals as usize;
                entry
            })
            .collect();
        let tenants = entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let wd: Arc<dyn WeakDistance> = Arc::new(
                    BoundaryWeakDistance::new(e.program.clone())
                        .with_mode(BoundaryMode::Single(BranchId(SITE_U))),
                );
                (format!("module{i}/U"), wd)
            })
            .collect();
        let drill = Drill::new(tenants, seed);
        FpirCorpus {
            entries,
            drill,
            static_ns,
        }
    }
}

/// Decides every target of one module; `program` is the entry's program,
/// possibly wrapped for tracing.
fn module_targets(
    e: &Entry,
    program: &dyn Analyzable,
    m: usize,
    config: &AnalysisConfig,
    pass: &mut Pass,
) {
    let label = |what: &str| format!("module {m} {what}");
    let mut evals = 0u64;
    let mut pruned = 0u64;
    let reachable: Vec<u32> = e.planted.reachable_sites().collect();

    // Boundary value analysis of every labeled branch.
    let boundary = BoundaryAnalysis::new(program);
    let mut sites = vec![SITE_U, SITE_P];
    sites.extend(&reachable);
    for site in sites {
        let t = Instant::now();
        let run = {
            let _span = trace::span("core.boundary", m as u64);
            boundary.find_condition_run(BranchId(site), config)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        evals += run.outcome.evals() as u64;
        pruned += run.statically_pruned() as u64;
        let planted_unreachable = site == SITE_U || site == SITE_P;
        let verdict = judge(
            &label(&format!("boundary b{site}")),
            ms,
            &run,
            planted_unreachable,
            |x| {
                replay_branches(&e.reference, x)
                    .iter()
                    .any(|ev| ev.id.0 == site && ev.lhs == ev.rhs)
            },
        );
        pass.verdicts.push(verdict);
    }

    // Path reachability: the witness's own path (reachable) and a path
    // through the provably dead side of P (infeasible).
    let paths = PathAnalysis::new(program);
    let witness_path: Path = replay_branches(&e.reference, &e.planted.shape.witness)
        .iter()
        .filter(|ev| ev.id.0 != SITE_P)
        .map(|ev| (ev.id, ev.taken))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    for (path, infeasible) in [
        (witness_path, false),
        (vec![(BranchId(SITE_P), true)], true),
    ] {
        let t = Instant::now();
        let run = {
            let _span = trace::span("core.path", m as u64);
            paths.reach_run(&path, config)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        evals += run.outcome.evals() as u64;
        pruned += run.statically_pruned() as u64;
        let verdict = judge(&label("path"), ms, &run, infeasible, |x| {
            let taken = replay_branches(&e.reference, x);
            path.iter().all(|&(site, dir)| {
                let execs: Vec<_> = taken.iter().filter(|ev| ev.id == site).collect();
                !execs.is_empty() && execs.iter().all(|ev| ev.taken == dir)
            })
        });
        pass.verdicts.push(verdict);
    }

    // Algorithm 3 overflow detection: every reported witness must overflow
    // its site on the reference.
    let t = Instant::now();
    let report = {
        let _span = trace::span("core.overflow", m as u64);
        OverflowDetector::new(program).run(config)
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    evals += report.evals as u64;
    pruned += report.statically_pruned as u64;
    let mut failure = None;
    let mut found = 0u32;
    for op in &report.operations {
        let Some(x) = &op.witness else { continue };
        let mut probe = Overflows(BTreeSet::new());
        e.reference.run(x, &mut probe);
        if probe.0.contains(&op.site.id) {
            found += 1;
        } else {
            failure = Some(label(&format!(
                "overflow {}: witness {x:?} fails replay",
                op.site.id
            )));
        }
    }
    pass.verdicts.push(match failure {
        Some(why) => Verdict::failed(ms, why),
        None => Verdict::ok(ms, report.num_ops() as u32, found),
    });

    // Branch coverage, seeded with the centre of the box: the suite must
    // really cover what the report claims, and never the dead side of P.
    let t = Instant::now();
    let report = {
        let _span = trace::span("core.coverage", m as u64);
        let centre = vec![0.0; e.planted.shape.inputs];
        CoverageAnalysis::new(program).run(&[centre], config)
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    pruned += report.statically_pruned as u64;
    let mut replayed: BTreeSet<(BranchId, bool)> = BTreeSet::new();
    for x in &report.suite {
        replayed.extend(
            replay_branches(&e.reference, x)
                .iter()
                .map(|ev| (ev.id, ev.taken)),
        );
    }
    let verdict = if report.covered.contains(&(BranchId(SITE_P), true)) {
        Verdict::failed(
            ms,
            label("coverage: provably dead side of P reported covered"),
        )
    } else if !report.covered.is_subset(&replayed) {
        Verdict::failed(ms, label("coverage: claimed pairs not covered on replay"))
    } else {
        Verdict::ok(ms, report.total_pairs as u32, report.covered.len() as u32)
    };
    pass.verdicts.push(verdict);

    // Coverage reports no evaluation count: its rounds and its suite, bit
    // for bit, stand in for it in the determinism check.
    *pass
        .deterministic
        .entry("core.coverage_rounds")
        .or_insert(0) += report.rounds as u64;
    let suite = pass.deterministic.entry("core.coverage_suite").or_insert(0);
    *suite = report.suite.iter().fold(*suite, |h, x| fingerprint(h, x));

    *pass.deterministic.entry("mo.evals").or_insert(0) += evals;
    *pass.deterministic.entry("core.static_pruned").or_insert(0) += pruned;
}

/// The oracle for one boundary or path target.
fn judge(
    label: &str,
    ms: f64,
    run: &MinimizationRun,
    planted_unreachable: bool,
    replays: impl Fn(&[f64]) -> bool,
) -> Verdict {
    if run.statically_pruned() {
        return if planted_unreachable {
            Verdict::ok(ms, 1, 0)
        } else {
            Verdict::failed(ms, format!("{label}: reachable target statically pruned"))
        };
    }
    match run.outcome.clone().into_input() {
        None => Verdict::ok(ms, 1, 0),
        Some(x) if planted_unreachable => Verdict::failed(
            ms,
            format!("{label}: unreachable target reported found at {x:?}"),
        ),
        Some(x) if replays(&x) => Verdict::ok(ms, 1, 1),
        Some(x) => Verdict::failed(ms, format!("{label}: witness {x:?} fails replay")),
    }
}

impl Workload for FpirCorpus {
    fn pass(&mut self, _index: u64) -> Pass {
        let mut pass = Pass::default();
        let tracing = trace::enabled();
        let mut insts = 0u64;
        for (m, e) in self.entries.iter().enumerate() {
            if tracing {
                let timed = Timed::new(e.program.clone(), FPIR_EVAL);
                module_targets(e, &timed, m, &e.config, &mut pass);
            } else {
                module_targets(e, &e.program, m, &e.config, &mut pass);
            }
            insts += e.sample_insts();
        }
        pass.deterministic.insert("fpir.insts", insts);
        pass
    }

    fn recover_ms(&mut self) -> Result<Vec<f64>, String> {
        self.drill.run()
    }

    fn final_checks(&mut self) -> Vec<String> {
        self.drill.check_repeat().err().into_iter().collect()
    }

    fn layer_metrics(&mut self, traced: &trace::Drained, out: &mut Metrics) {
        trace::analysis_metrics(traced, FPIR_EVAL, out);
        let opt_ns = traced.total_ns("fpir.opt");
        let attempted = traced.counter("fpir.opt_attempted");
        out.insert("fpir.opt_ms", opt_ns as f64 / 1e6 / attempted.max(1.0));
        out.insert(
            "fpir.opt_kept_ratio",
            traced.counter("fpir.opt_kept") / attempted.max(1.0),
        );
        out.insert("fpir.static_ms", self.static_ns as f64 / 1e6);

        // Probes on fixed seeded samples.
        let (mut insts, mut saved_base, mut saved_opt) = (0u64, 0u64, 0u64);
        let (mut kernel_ns, mut interp_ns, mut lanes) = (0u128, 0u128, 0usize);
        let mut eligible = 0usize;
        for e in &self.entries {
            insts += e.sample_insts();
            // Instructions a boundary target's specialization saves.
            let spec = ObservationSpec::branches(SiteSet::Only([SITE_U].into()));
            if let Some((opt, _)) = e.program.specialized_with_stats(&spec, OptPolicy::Auto) {
                for x in e.sample.iter().take(INSTS_SAMPLE) {
                    saved_base += e.program.instructions_executed(x).unwrap_or(0);
                    saved_opt += opt.instructions_executed(x).unwrap_or(0);
                }
            }
            eligible += e.program.kernel_eligible() as usize;
            let mut results = Vec::new();
            for (policy, total) in [
                (KernelPolicy::Auto, &mut kernel_ns),
                (KernelPolicy::Never, &mut interp_ns),
            ] {
                let mut exec = e.program.batch_executor(policy);
                let mut observers: Vec<NullObserver> = vec![NullObserver; e.sample.len()];
                let mut refs: Vec<&mut dyn Observer> = observers
                    .iter_mut()
                    .map(|o| o as &mut dyn Observer)
                    .collect();
                let t = Instant::now();
                for _ in 0..8 {
                    exec.execute_many(&e.sample, &mut refs, &mut results);
                }
                *total += t.elapsed().as_nanos();
            }
            lanes += 8 * e.sample.len();
        }
        let runs = (self.entries.len() * INSTS_SAMPLE) as f64;
        out.insert("fpir.insts_per_eval", insts as f64 / runs);
        out.insert(
            "fpir.opt_insts_saved_frac",
            1.0 - saved_opt as f64 / saved_base.max(1) as f64,
        );
        out.insert(
            "fpir.kernel_ns_per_eval",
            kernel_ns as f64 / lanes.max(1) as f64,
        );
        out.insert(
            "fpir.interp_ns_per_eval",
            interp_ns as f64 / lanes.max(1) as f64,
        );
        out.insert(
            "fpir.kernel_eligible_ratio",
            eligible as f64 / self.entries.len() as f64,
        );
        let e = &self.entries[0];
        let wd = BoundaryWeakDistance::new(e.program.clone())
            .with_mode(BoundaryMode::Single(BranchId(SITE_U)));
        crate::paper::backend_probe(&wd, out);
    }
}
