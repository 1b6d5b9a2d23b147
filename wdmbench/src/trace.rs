//! In-memory span tracing from the benchmark's side of each layer
//! boundary.
//!
//! A span is opened around a call into a layer's public API and records
//! its name, the request (target) it serves, its parent span and its
//! duration. Calls too fine-grained to keep one record each — single
//! program evaluations — are *leaves*: their time and count are summed per
//! thread and charged to the enclosing span as child time, so a span's self
//! time is its duration minus everything its children (spans and leaves)
//! covered. Tracing is off unless [`set_enabled`] turned it on; a disabled
//! span costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use fp_runtime::{
    Analyzable, BatchExecutor, BranchId, BranchSite, Ctx, Interval, KernelPolicy, ObservationSpec,
    Observer, OpId, OpSite, OptPolicy, Reachability,
};
use wdm_core::WeakDistance;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static COUNTERS: Mutex<BTreeMap<&'static str, f64>> = Mutex::new(BTreeMap::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    /// The target (or request) this span served.
    pub req: u64,
    /// Index of the enclosing span in the same drained batch, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// `dur_ns` minus the time covered by child spans and leaves.
    pub self_ns: u64,
}

struct Open {
    index: usize,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    static LEAVES: RefCell<BTreeMap<&'static str, Leaf>> = const { RefCell::new(BTreeMap::new()) };
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// An open span; closes when dropped.
pub struct Span(Option<()>);

/// Opens a span named `name` for request `req` on this thread.
pub fn span(name: &'static str, req: u64) -> Span {
    if !enabled() {
        return Span(None);
    }
    let start = Instant::now();
    let index = {
        let mut spans = SPANS.lock().expect("span store lock");
        spans.push(SpanRecord {
            name,
            req,
            parent: None,
            start_ns: start.duration_since(epoch()).as_nanos() as u64,
            dur_ns: 0,
            self_ns: 0,
        });
        spans.len() - 1
    };
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().map(|o| o.index);
        SPANS.lock().expect("span store lock")[index].parent = parent;
        stack.push(Open {
            index,
            start,
            child_ns: 0,
        });
    });
    Span(Some(()))
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.0.is_none() {
            return;
        }
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let Some(open) = stack.pop() else { return };
            let dur = open.start.elapsed().as_nanos() as u64;
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += dur;
            }
            if let Some(rec) = SPANS.lock().expect("span store lock").get_mut(open.index) {
                rec.dur_ns = dur;
                rec.self_ns = dur.saturating_sub(open.child_ns);
            }
        });
    }
}

/// Totals of one leaf.
#[derive(Debug, Default, Clone, Copy)]
pub struct Leaf {
    pub ns: u64,
    /// Evaluations covered (a batch call covers many).
    pub evals: u64,
    /// Timed calls.
    pub calls: u64,
}

/// Charges one call of `dur_ns` covering `evals` evaluations to the leaf
/// `name` and to the enclosing span's child time.
pub fn leaf(name: &'static str, dur_ns: u64, evals: u64) {
    STACK.with(|stack| {
        if let Some(top) = stack.borrow_mut().last_mut() {
            top.child_ns += dur_ns;
        }
    });
    LEAVES.with(|leaves| {
        let mut leaves = leaves.borrow_mut();
        let entry = leaves.entry(name).or_default();
        entry.ns += dur_ns;
        entry.evals += evals;
        entry.calls += 1;
    });
}

/// What one timed leaf call adds to the enclosing span's self time, in ns,
/// measured on empty calls; subtracted where a metric divides self time
/// by evaluations.
pub fn leaf_cost_ns() -> f64 {
    const CALLS: u64 = 20_000;
    let on = enabled();
    set_enabled(true);
    let start = Instant::now();
    for _ in 0..CALLS {
        timed_leaf("trace.calibrate", 1, || std::hint::black_box(0));
    }
    let total = start.elapsed().as_nanos() as f64;
    let inner = LEAVES.with(|l| {
        l.borrow_mut()
            .remove("trace.calibrate")
            .unwrap_or_default()
            .ns
    });
    set_enabled(on);
    (total - inner as f64) / CALLS as f64
}

/// Adds `by` to the named counter (traced runs only).
pub fn count(name: &'static str, by: f64) {
    if enabled() {
        *COUNTERS
            .lock()
            .expect("counter lock")
            .entry(name)
            .or_insert(0.0) += by;
    }
}

/// Everything recorded since the last drain.
#[derive(Debug, Default)]
pub struct Drained {
    pub spans: Vec<SpanRecord>,
    /// Leaf totals of the calling thread.
    pub leaves: BTreeMap<&'static str, Leaf>,
    pub counters: BTreeMap<&'static str, f64>,
}

impl Drained {
    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of spans named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.dur_ns).sum()
    }

    /// Total self time of spans named `name`, in ns.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.self_ns).sum()
    }

    pub fn leaf(&self, name: &str) -> Leaf {
        self.leaves.get(name).copied().unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Per-name (calls, total ns, self ns), spans and leaves together.
    pub fn table(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let row = table.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.dur_ns;
            row.2 += s.self_ns;
        }
        for (&name, leaf) in &self.leaves {
            let row = table.entry(name).or_default();
            row.0 += leaf.calls;
            row.1 += leaf.ns;
            row.2 += leaf.ns;
        }
        table
    }

    pub fn merge(&mut self, other: Drained) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (name, leaf) in other.leaves {
            let entry = self.leaves.entry(name).or_default();
            entry.ns += leaf.ns;
            entry.evals += leaf.evals;
            entry.calls += leaf.calls;
        }
        for (name, v) in other.counters {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }
}

/// Takes every closed span, the calling thread's leaves and the counters.
pub fn drain() -> Drained {
    Drained {
        spans: std::mem::take(&mut *SPANS.lock().expect("span store lock")),
        leaves: LEAVES.with(|l| std::mem::take(&mut *l.borrow_mut())),
        counters: std::mem::take(&mut *COUNTERS.lock().expect("counter lock")),
    }
}

/// Times `f` as one call of leaf `name` when tracing is on.
#[inline]
fn timed_leaf<T>(name: &'static str, count: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    leaf(name, start.elapsed().as_nanos() as u64, count);
    out
}

/// The `wdm_core` and `wdm_mo` metrics of a workload whose analysis calls
/// are traced as `core.<analysis>` spans over programs wrapped in
/// [`Timed`] with leaf `eval_leaf`. The optimizer's time (`fpir.opt`) is
/// taken out of the driver's share, and so is the tracer's own cost per
/// timed evaluation call.
pub fn analysis_metrics(traced: &Drained, eval_leaf: &str, out: &mut crate::Metrics) {
    const ANALYSES: [(&str, &str); 4] = [
        ("core.boundary", "core.boundary_ms"),
        ("core.path", "core.path_ms"),
        ("core.overflow", "core.overflow_ms"),
        ("core.coverage", "core.coverage_ms"),
    ];
    let mut analysis_ns = 0u64;
    for (span, metric) in ANALYSES {
        let targets = traced.named(span).count();
        if targets > 0 {
            out.insert(metric, traced.self_ns(span) as f64 / 1e6 / targets as f64);
        }
        analysis_ns += traced.total_ns(span);
    }
    let driver_ns = analysis_ns.saturating_sub(traced.total_ns("fpir.opt")) as f64;
    let leaf = traced.leaf(eval_leaf);
    let evals = leaf.evals.max(1) as f64;
    let tracer_ns = leaf.calls as f64 * leaf_cost_ns();
    out.insert("mo.ns_per_eval", (driver_ns - tracer_ns) / evals);
    out.insert(
        "mo.overhead_ns_per_eval",
        (driver_ns - leaf.ns as f64 - tracer_ns) / evals,
    );
}

/// Leaf names of program executions, by layer.
pub const FPIR_EVAL: &str = "fpir.eval";
pub const GSL_EVAL: &str = "gsl.eval";

/// A program wrapper that forwards every [`Analyzable`] method to the
/// wrapped program and, when tracing is on, charges executions to the leaf
/// `eval_leaf` and specializations to the span `fpir.opt`. Forwarding
/// every method keeps the analyses' behaviour identical to the bare
/// program: static reachability, kernel selection and specialization all
/// still come from the inner program.
pub struct Timed {
    pub inner: Box<dyn Analyzable>,
    pub eval_leaf: &'static str,
}

impl Timed {
    pub fn new(inner: impl Analyzable + 'static, eval_leaf: &'static str) -> Self {
        Self::boxed(Box::new(inner), eval_leaf)
    }

    pub fn boxed(inner: Box<dyn Analyzable>, eval_leaf: &'static str) -> Self {
        Timed { inner, eval_leaf }
    }
}

struct TimedExec<'a> {
    inner: Box<dyn BatchExecutor + 'a>,
    eval_leaf: &'static str,
}

impl BatchExecutor for TimedExec<'_> {
    fn execute_one(&mut self, input: &[f64], observer: &mut dyn Observer) -> Option<f64> {
        let inner = &mut self.inner;
        timed_leaf(self.eval_leaf, 1, || inner.execute_one(input, observer))
    }

    fn execute_many(
        &mut self,
        inputs: &[Vec<f64>],
        observers: &mut [&mut dyn Observer],
        results: &mut Vec<Option<f64>>,
    ) {
        let inner = &mut self.inner;
        timed_leaf(self.eval_leaf, inputs.len() as u64, || {
            inner.execute_many(inputs, observers, results)
        })
    }
}

impl Analyzable for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn search_domain(&self) -> Vec<Interval> {
        self.inner.search_domain()
    }

    fn op_sites(&self) -> Vec<OpSite> {
        self.inner.op_sites()
    }

    fn branch_sites(&self) -> Vec<BranchSite> {
        self.inner.branch_sites()
    }

    fn execute(&self, input: &[f64], ctx: &mut Ctx<'_>) -> Option<f64> {
        timed_leaf(self.eval_leaf, 1, || self.inner.execute(input, ctx))
    }

    fn run(&self, input: &[f64], observer: &mut dyn Observer) -> Option<f64> {
        timed_leaf(self.eval_leaf, 1, || self.inner.run(input, observer))
    }

    fn batch_executor(&self, policy: KernelPolicy) -> Box<dyn BatchExecutor + '_> {
        let inner = self.inner.batch_executor(policy);
        if !enabled() {
            return inner;
        }
        Box::new(TimedExec {
            inner,
            eval_leaf: self.eval_leaf,
        })
    }

    fn branch_side_reachability(&self, site: BranchId, taken: bool) -> Reachability {
        self.inner.branch_side_reachability(site, taken)
    }

    fn branch_boundary_reachability(&self, site: BranchId) -> Reachability {
        self.inner.branch_boundary_reachability(site)
    }

    fn op_site_reachability(&self, site: OpId) -> Reachability {
        self.inner.op_site_reachability(site)
    }

    fn specialize(&self, spec: &ObservationSpec, policy: OptPolicy) -> Option<Box<dyn Analyzable>> {
        if self.eval_leaf != FPIR_EVAL {
            // Closure ports have no optimizing backend.
            return self.inner.specialize(spec, policy);
        }
        let specialized = {
            let _span = span("fpir.opt", 0);
            self.inner.specialize(spec, policy)
        };
        if !matches!(policy, OptPolicy::Never) {
            count("fpir.opt_attempted", 1.0);
            count("fpir.opt_kept", specialized.is_some() as u8 as f64);
        }
        specialized.map(|p| {
            Box::new(Timed {
                inner: p,
                eval_leaf: self.eval_leaf,
            }) as Box<dyn Analyzable>
        })
    }
}

/// A weak-distance wrapper charging evaluations to the leaf `eval_leaf`;
/// used where the benchmark drives an [`wdm_core::AdaptivePortfolio`]
/// itself.
pub struct TimedWd<'a> {
    pub inner: &'a dyn WeakDistance,
    pub eval_leaf: &'static str,
}

impl WeakDistance for TimedWd<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn domain(&self) -> Vec<Interval> {
        self.inner.domain()
    }

    fn eval(&self, x: &[f64]) -> f64 {
        timed_leaf(self.eval_leaf, 1, || self.inner.eval(x))
    }

    fn eval_batch(&self, xs: &[Vec<f64>], out: &mut Vec<f64>) {
        timed_leaf(self.eval_leaf, xs.len() as u64, || {
            self.inner.eval_batch(xs, out)
        })
    }

    fn description(&self) -> String {
        self.inner.description()
    }
}
