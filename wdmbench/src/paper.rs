//! The `paper` workload: the paper's own evaluation on the `mini_gsl`
//! closure ports, scaled by seeded repetition.
//!
//! One pass decides, for each of `REPS` seeds drawn from `--seed`:
//!
//! * Table 2 / Fig. 9: boundary value analysis of every `glibc_sin`
//!   range-selection condition on both half-lines (10 targets; the `2^1024`
//!   threshold is unreachable for finite doubles and planted as such);
//! * Tables 3–5: Algorithm 3 overflow detection on Bessel, Hyperg and Airy,
//!   plus the status-convention inconsistency replay;
//! * XSat formulas whose binary64 satisfiability is known.
//!
//! Every witness is replayed on the closure itself: boundary hits through
//! the program's own branch events, overflows through its op events,
//! inconsistencies through the GSL status entry point, XSat models through
//! a hand-written evaluation of the formula.

use std::sync::Arc;
use std::time::Instant;

use fp_runtime::{
    Analyzable, BranchId, BranchSite, Ctx, Interval, Observer, OpEvent, OpId, OpSite, ProbeControl,
};
use mini_gsl::airy::{airy_outcome, AiryAi};
use mini_gsl::bessel::{bessel_outcome, BesselKnuScaled};
use mini_gsl::glibc_sin::{GlibcSin, K_THRESHOLDS};
use mini_gsl::hyperg::{hyperg_outcome, Hyperg2F0};
use mini_gsl::result::SfOutcome;
use wdm_core::boundary::{BoundaryAnalysis, BoundaryMode, BoundaryWeakDistance};
use wdm_core::driver::minimize_weak_distance;
use wdm_core::inconsistency::{find_inconsistencies, StatusOutcome};
use wdm_core::overflow::{OverflowDetector, OverflowWeakDistance};
use wdm_core::{AnalysisConfig, BackendKind, WeakDistance};
use wdm_xsat::{Atom, Clause, Cnf, CnfWeakDistance, Expr, Solver, Verdict as XVerdict};

use crate::drill::Drill;
use crate::trace::{self, Timed, GSL_EVAL};
use crate::util::{fingerprint, Rng};
use crate::{Metrics, Pass, Verdict, Workload};

/// Seeded repetitions of the whole suite per pass.
const REPS: usize = 12;
/// Each repetition scales every budget by its own factor, the midpoint of
/// its stratum of this range, so budget-exhausting targets spread over a
/// continuum of latencies instead of one spike at the tail percentiles,
/// and a pass costs the same whatever the seed.
const BUDGET_SCALE: (f64, f64) = (0.5, 1.5);
/// Per-round evaluation budget of the `sin` conditions, at scale 1.
const SIN_EVALS: f64 = 30_000.0;
const SIN_ROUNDS: usize = 4;
/// Budget of each Algorithm 3 minimization round, at scale 1.
const FPOD_EVALS: f64 = 8_000.0;
const FPOD_ROUNDS: usize = 2;
/// Per-round budget of each XSat solve, at scale 1.
const XSAT_EVALS: f64 = 20_000.0;
const XSAT_ROUNDS: usize = 6;
/// Zero-free tenants of the durability drill (the four kinds, repeated
/// with distinct seeds).
const DRILL_TENANTS: usize = 64;

/// One seeded repetition of the suite.
#[derive(Debug, Clone, Copy)]
struct Rep {
    seed: u64,
    scale: f64,
}

impl Rep {
    fn budget(self, base: f64) -> usize {
        (base * self.scale) as usize
    }
}

/// `GlibcSin` searched on one half-line, which is how Table 2 separates
/// the `+` and `-` boundary values of each condition.
#[derive(Debug, Clone)]
pub struct HalfLine {
    pub negative: bool,
}

impl Analyzable for HalfLine {
    fn name(&self) -> &str {
        if self.negative {
            "glibc sin (x <= 0)"
        } else {
            "glibc sin (x >= 0)"
        }
    }

    fn num_inputs(&self) -> usize {
        1
    }

    fn search_domain(&self) -> Vec<Interval> {
        if self.negative {
            vec![Interval::new(-f64::MAX, 0.0)]
        } else {
            vec![Interval::new(0.0, f64::MAX)]
        }
    }

    fn op_sites(&self) -> Vec<OpSite> {
        GlibcSin::new().op_sites()
    }

    fn branch_sites(&self) -> Vec<BranchSite> {
        GlibcSin::new().branch_sites()
    }

    fn execute(&self, input: &[f64], ctx: &mut Ctx<'_>) -> Option<f64> {
        GlibcSin::new().execute(input, ctx)
    }
}

/// The three GSL functions of the overflow study.
#[derive(Debug, Clone, Copy)]
enum Gsl {
    Bessel,
    Hyperg,
    Airy,
}

impl Gsl {
    const ALL: [Gsl; 3] = [Gsl::Bessel, Gsl::Hyperg, Gsl::Airy];

    fn program(self) -> Box<dyn Analyzable> {
        match self {
            Gsl::Bessel => Box::new(BesselKnuScaled::new()),
            Gsl::Hyperg => Box::new(Hyperg2F0::new()),
            Gsl::Airy => Box::new(AiryAi::new()),
        }
    }

    fn status(self, input: &[f64]) -> SfOutcome {
        match self {
            Gsl::Bessel => bessel_outcome(input),
            Gsl::Hyperg => hyperg_outcome(input),
            Gsl::Airy => airy_outcome(input),
        }
    }
}

/// An XSat formula with its known binary64 answer and an independent
/// evaluation of it.
pub struct Formula {
    pub name: &'static str,
    pub cnf: Cnf,
    pub domain: Vec<Interval>,
    pub sat: bool,
    pub holds: fn(&[f64]) -> bool,
}

pub fn formulas() -> Vec<Formula> {
    let x = || Expr::var(0);
    let y = || Expr::var(1);
    let c = Expr::constant;
    vec![
        Formula {
            name: "x < 1 && x + 1 >= 2",
            cnf: Cnf::new(1)
                .and(Clause::from(Atom::lt(x(), c(1.0))))
                .and(Clause::from(Atom::ge(x() + c(1.0), c(2.0)))),
            domain: vec![Interval::symmetric(10.0)],
            sat: true,
            holds: |v| v[0] < 1.0 && v[0] + 1.0 >= 2.0,
        },
        Formula {
            name: "x*x == 4",
            cnf: Cnf::new(1).and(Clause::from(Atom::eq(x() * x(), c(4.0)))),
            domain: vec![Interval::symmetric(100.0)],
            sat: true,
            holds: |v| v[0] * v[0] == 4.0,
        },
        Formula {
            name: "x*x == 2 (unsat in binary64)",
            cnf: Cnf::new(1).and(Clause::from(Atom::eq(x() * x(), c(2.0)))),
            domain: vec![Interval::symmetric(100.0)],
            sat: false,
            holds: |v| v[0] * v[0] == 2.0,
        },
        Formula {
            name: "x + y == 10 && x - y == 4",
            cnf: Cnf::new(2)
                .and(Clause::from(Atom::eq(x() + y(), c(10.0))))
                .and(Clause::from(Atom::eq(x() - y(), c(4.0)))),
            domain: vec![Interval::symmetric(100.0); 2],
            sat: true,
            holds: |v| v[0] + v[1] == 10.0 && v[0] - v[1] == 4.0,
        },
        Formula {
            name: "x*x == -1 (unsat)",
            cnf: Cnf::new(1).and(Clause::from(Atom::eq(x() * x(), c(-1.0)))),
            domain: vec![Interval::symmetric(100.0)],
            sat: false,
            holds: |v| v[0] * v[0] == -1.0,
        },
        Formula {
            name: "sin(x) <= -0.99 && x >= 3",
            cnf: Cnf::new(1)
                .and(Clause::from(Atom::le(x().sin(), c(-0.99))))
                .and(Clause::from(Atom::ge(x(), c(3.0)))),
            domain: vec![Interval::new(0.0, 100.0)],
            sat: true,
            holds: |v| v[0].sin() <= -0.99 && v[0] >= 3.0,
        },
    ]
}

/// Records whether op site `site` overflowed during one replay.
struct OverflowAt {
    site: OpId,
    hit: bool,
}

impl Observer for OverflowAt {
    fn on_op(&mut self, ev: &OpEvent) -> ProbeControl {
        if ev.id == self.site && (!ev.value.is_finite() || ev.value.abs() >= f64::MAX) {
            self.hit = true;
        }
        ProbeControl::Continue
    }
}

pub struct Paper {
    seeds: Vec<Rep>,
    sin: Vec<HalfLine>,
    gsl: Vec<Box<dyn Analyzable>>,
    formulas: Vec<Formula>,
    drill: Drill,
}

impl Paper {
    pub fn setup(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let seeds = (0..REPS)
            .map(|r| Rep {
                seed: rng.next_u64() >> 16,
                scale: BUDGET_SCALE.0
                    + (BUDGET_SCALE.1 - BUDGET_SCALE.0) * (r as f64 + 0.5) / REPS as f64,
            })
            .collect();
        let sin = vec![HalfLine { negative: false }, HalfLine { negative: true }];
        let gsl: Vec<Box<dyn Analyzable>> = Gsl::ALL.iter().map(|g| g.program()).collect();
        let formulas = formulas();
        let unreachable_sin = |negative: bool| -> Arc<dyn WeakDistance> {
            Arc::new(
                BoundaryWeakDistance::new(HalfLine { negative })
                    .with_mode(BoundaryMode::Single(BranchId(4))),
            )
        };
        let unsat = |f: &Formula| -> Arc<dyn WeakDistance> {
            Arc::new(CnfWeakDistance::new(f.cnf.clone()).with_domain(f.domain.clone()))
        };
        let kinds = [
            ("sin+/2^1024", unreachable_sin(false)),
            ("sin-/2^1024", unreachable_sin(true)),
            ("xsat/x*x==2", unsat(&formulas[2])),
            ("xsat/x*x==-1", unsat(&formulas[4])),
        ];
        let drill = Drill::new(
            (0..DRILL_TENANTS)
                .map(|i| {
                    let (name, wd) = &kinds[i % kinds.len()];
                    (format!("{name}#{i}"), Arc::clone(wd))
                })
                .collect(),
            seed,
        );
        Paper {
            seeds,
            sin,
            gsl,
            formulas,
            drill,
        }
    }

    /// Boundary value analysis of `glibc_sin` condition `i` on one
    /// half-line, replayed through the program's own branch events.
    fn sin_target(&self, program: &dyn Analyzable, i: usize, rep: Rep) -> (Verdict, u64) {
        let analysis = BoundaryAnalysis::new(program);
        let config = AnalysisConfig::quick(rep.seed)
            .with_max_evals(rep.budget(SIN_EVALS))
            .with_rounds(SIN_ROUNDS);
        let t = Instant::now();
        let run = {
            let _span = trace::span("core.boundary", i as u64);
            analysis.find_condition_run(BranchId(i as u32), &config)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let evals = run.outcome.evals() as u64;
        // The last threshold is 2^1024: no finite double reaches it.
        let reachable = K_THRESHOLDS[i] < 0x7ff0_0000;
        let label = format!("glibc_sin k < {:#x} ({})", K_THRESHOLDS[i], program.name());
        let verdict = if run.statically_pruned() && reachable {
            Verdict::failed(ms, format!("{label}: reachable target statically pruned"))
        } else {
            match run.outcome.into_input() {
                None => Verdict::ok(ms, 1, 0),
                Some(_) if !reachable => {
                    Verdict::failed(ms, format!("{label}: unreachable target reported found"))
                }
                Some(x) => {
                    let domain = program.search_domain()[0];
                    if domain.contains(x[0])
                        && analysis
                            .triggered_conditions(&x)
                            .contains(&BranchId(i as u32))
                    {
                        Verdict::ok(ms, 1, 1)
                    } else {
                        Verdict::failed(ms, format!("{label}: witness {x:?} fails replay"))
                    }
                }
            }
        };
        (verdict, evals)
    }

    /// Algorithm 3 on one GSL function plus the inconsistency replay.
    fn fpod_target(&self, program: &dyn Analyzable, which: Gsl, rep: Rep) -> (Verdict, u64, u64) {
        let config = AnalysisConfig::quick(rep.seed)
            .with_max_evals(rep.budget(FPOD_EVALS))
            .with_rounds(FPOD_ROUNDS);
        let t = Instant::now();
        let (report, inconsistencies) = {
            let _span = trace::span("core.overflow", which as u64);
            let report = OverflowDetector::new(program).run(&config);
            let status = |x: &[f64]| {
                let (r, s) = which.status(x);
                StatusOutcome::new(
                    s.is_success(),
                    vec![("val".into(), r.val), ("err".into(), r.err)],
                )
            };
            let found = find_inconsistencies(&program, status, &report.inputs);
            (report, found)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let mut failures = Vec::new();
        let mut found = 0u32;
        for op in &report.operations {
            let Some(x) = &op.witness else { continue };
            let mut probe = OverflowAt {
                site: op.site.id,
                hit: false,
            };
            program.run(x, &mut probe);
            if probe.hit {
                found += 1;
            } else {
                failures.push(format!(
                    "{which:?} op {}: witness {x:?} does not overflow",
                    op.site.id
                ));
            }
        }
        for inc in &inconsistencies {
            let (r, s) = which.status(&inc.input);
            if !(s.is_success() && !(r.val.is_finite() && r.err.is_finite())) {
                failures.push(format!(
                    "{which:?}: inconsistency at {:?} fails status replay",
                    inc.input
                ));
            }
        }
        let verdict = match failures.into_iter().next() {
            Some(why) => Verdict::failed(ms, why),
            None => Verdict::ok(ms, report.num_ops() as u32, found),
        };
        (verdict, report.evals as u64, inconsistencies.len() as u64)
    }

    /// Solves one formula; returns the verdict and a fingerprint of the
    /// solver's answer (model or best assignment, bit for bit).
    fn xsat_target(&self, f: &Formula, rep: Rep) -> (Verdict, u64) {
        let config = AnalysisConfig::quick(rep.seed)
            .with_max_evals(rep.budget(XSAT_EVALS))
            .with_rounds(XSAT_ROUNDS);
        let t = Instant::now();
        let verdict = {
            let _span = trace::span("xsat.solve", 0);
            Solver::new(f.cnf.clone())
                .with_domain(f.domain.clone())
                .solve(&config)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let print = match &verdict {
            XVerdict::Sat(model) => fingerprint(0, model),
            XVerdict::Unknown {
                best_residual,
                best_assignment,
            } => fingerprint(fingerprint(1, &[*best_residual]), best_assignment),
        };
        let verdict = match verdict {
            XVerdict::Sat(model) if !f.sat => Verdict::failed(
                ms,
                format!("{}: expected unsat, reported Sat({model:?})", f.name),
            ),
            XVerdict::Sat(model) if !(f.holds)(&model) => Verdict::failed(
                ms,
                format!("{}: model {model:?} fails direct evaluation", f.name),
            ),
            XVerdict::Sat(_) => Verdict::ok(ms, 1, 1),
            XVerdict::Unknown { .. } => Verdict::ok(ms, 1, 0),
        };
        (verdict, print)
    }
}

impl Workload for Paper {
    fn pass(&mut self, _index: u64) -> Pass {
        let tracing = trace::enabled();
        let timed_sin: Vec<Timed> = self
            .sin
            .iter()
            .map(|p| Timed::new(p.clone(), GSL_EVAL))
            .collect();
        let mut pass = Pass::default();
        let mut evals = 0u64;
        let mut inconsistencies = 0u64;
        let mut xsat = 0u64;
        for (r, &rep) in self.seeds.iter().enumerate() {
            for i in 0..K_THRESHOLDS.len() {
                for (side, program) in self.sin.iter().enumerate() {
                    let program: &dyn Analyzable = if tracing { &timed_sin[side] } else { program };
                    let seed = rep.seed + (i * 2 + side) as u64;
                    let (v, e) = self.sin_target(program, i, Rep { seed, ..rep });
                    evals += e;
                    pass.verdicts.push(v);
                }
            }
            for (k, which) in Gsl::ALL.into_iter().enumerate() {
                let timed;
                let program: &dyn Analyzable = if tracing {
                    timed = Timed::boxed(which.program(), GSL_EVAL);
                    &timed
                } else {
                    &*self.gsl[k]
                };
                let (v, e, inc) = self.fpod_target(
                    program,
                    which,
                    Rep {
                        seed: rep.seed + 100 + k as u64,
                        ..rep
                    },
                );
                evals += e;
                inconsistencies += inc;
                pass.verdicts.push(v);
            }
            for f in &self.formulas {
                let rep = Rep {
                    seed: rep.seed + 200 + r as u64,
                    ..rep
                };
                let (v, print) = self.xsat_target(f, rep);
                xsat = fingerprint(xsat, &[f64::from_bits(print)]);
                pass.verdicts.push(v);
            }
        }
        pass.deterministic.insert("mo.evals", evals);
        pass.deterministic
            .insert("paper.inconsistencies", inconsistencies);
        pass.deterministic.insert("xsat.answers", xsat);
        pass
    }

    fn recover_ms(&mut self) -> Result<Vec<f64>, String> {
        self.drill.run()
    }

    fn final_checks(&mut self) -> Vec<String> {
        self.drill.check_repeat().err().into_iter().collect()
    }

    fn layer_metrics(&mut self, traced: &trace::Drained, out: &mut Metrics) {
        trace::analysis_metrics(traced, GSL_EVAL, out);
        let solves = traced.named("xsat.solve").count().max(1) as f64;
        out.insert(
            "xsat.solve_ms",
            traced.total_ns("xsat.solve") as f64 / 1e6 / solves,
        );

        // Probes on fixed seeded samples.
        out.insert("gsl.ns_per_eval", gsl_probe());
        let sat = self
            .formulas
            .iter()
            .filter(|f| {
                self.xsat_target(
                    f,
                    Rep {
                        seed: 7,
                        scale: 1.0,
                    },
                )
                .0
                .found
                    > 0
            })
            .count();
        out.insert("xsat.sat_ratio", sat as f64 / self.formulas.len() as f64);
        let wd = BoundaryWeakDistance::new(HalfLine { negative: false })
            .with_mode(BoundaryMode::Single(BranchId(4)));
        backend_probe(&wd, out);
    }
}

/// Mean ns per `WeakDistance::eval` of the paper's weak distances over a
/// fixed seeded sample.
fn gsl_probe() -> f64 {
    let wds: Vec<Box<dyn WeakDistance>> = vec![
        Box::new(BoundaryWeakDistance::new(GlibcSin::new())),
        Box::new(OverflowWeakDistance::new(
            BesselKnuScaled::new(),
            Default::default(),
        )),
        Box::new(OverflowWeakDistance::new(
            Hyperg2F0::new(),
            Default::default(),
        )),
        Box::new(OverflowWeakDistance::new(AiryAi::new(), Default::default())),
    ];
    let mut rng = Rng::new(0x6515);
    let points: Vec<Vec<f64>> = (0..20_000)
        .map(|_| (0..3).map(|_| rng.range(-50.0, 50.0)).collect())
        .collect();
    let t = Instant::now();
    let mut sink = 0.0;
    for wd in &wds {
        for p in &points {
            sink += std::hint::black_box(wd.eval(&p[..wd.dim()]));
        }
    }
    std::hint::black_box(sink);
    t.elapsed().as_nanos() as f64 / (points.len() * wds.len()) as f64
}

/// `mo.<backend>.ns_per_eval`: each backend alone on a zero-free weak
/// distance with a fixed budget, wall time over evaluations.
pub fn backend_probe(wd: &dyn WeakDistance, out: &mut Metrics) {
    let names = [
        "mo.bh.ns_per_eval",
        "mo.de.ns_per_eval",
        "mo.powell.ns_per_eval",
        "mo.ms.ns_per_eval",
        "mo.rs.ns_per_eval",
    ];
    for (backend, name) in BackendKind::all().into_iter().zip(names) {
        let config = AnalysisConfig::quick(11)
            .with_backend(backend)
            .with_rounds(2)
            .with_max_evals(20_000);
        let t = Instant::now();
        let run = minimize_weak_distance(wd, &config);
        let evals = run.outcome.evals().max(1) as f64;
        out.insert(name, t.elapsed().as_nanos() as f64 / evals);
    }
}
