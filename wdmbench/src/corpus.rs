//! Seeded generator of the `fpir_corpus` modules, built on
//! `fpir::ModuleBuilder`.
//!
//! Every module is `prog(x0, .., xn)` over the box `[-d_j, d_j]`. Its entry
//! block computes the planted targets; a chain of pure, unlabeled steps
//! then mixes the inputs into a running value `t` (optionally through a
//! stack of helper calls), and the planted reachable branches compare `t`
//! along the way. `t` is finally returned, which no analysis observes, so
//! the optimizer can slice the chain's tail away.
//!
//! Planted targets, with their known answers:
//!
//! * branch `U`: `x0 * x0 < c` where no binary64 `x` has `x * x == c`
//!   (checked at generation) — its boundary is unreachable, but no interval
//!   argument proves it, so the search exhausts its budget;
//! * branch `P`: `|x0| + 1 < 0.5` — boundary and taken side provably
//!   unreachable, so static analysis must prune them at zero evaluations;
//! * branches `R_k` on the chain: the constant is patched to the value `t`
//!   takes at a seeded witness `x*`, so every `R_k` boundary is reachable
//!   (by `x*` at least), as is the path `x*` takes through them;
//! * op site 0, `exp(x0 * k)`, overflows for `x0 > 0.8 d_0`; op site 1,
//!   `x1 * x1`, cannot overflow on the box.
//!
//! Size, branchiness, call depth and shape are drawn one per stratum from
//! continuous ranges ([`RANGES`]), so latencies fill a continuum.

use fp_runtime::{BranchEvent, Cmp, Observer, ProbeControl};
use fpir::{BinOp, FuncId, FunctionBuilder, Module, ModuleBuilder, Reg, UnOp};

use crate::util::Rng;

/// The generator's ranges: name, low, high. Recorded with their reasons in
/// `wdmbench/METRICS.md`.
pub const RANGES: &[(&str, f64, f64)] = &[
    ("inputs", 1.0, 3.999),
    ("half_width_log10", 0.3, 2.0),
    ("chain_steps", 4.0, 48.0),
    ("reachable_branches", 1.0, 4.999),
    ("call_depth", 0.0, 2.999),
    ("helper_steps", 2.0, 12.0),
    ("divergent", 0.0, 1.0),
];

/// Branch sites of every module: `U` = 0, `P` = 1, `R_k` = 2 + k.
pub const SITE_U: u32 = 0;
pub const SITE_P: u32 = 1;
pub const SITE_R0: u32 = 2;

/// The structure of one generated module; constants of the `R_k` branches
/// are supplied at build time.
#[derive(Debug, Clone)]
pub struct Shape {
    pub inputs: usize,
    pub half_widths: Vec<f64>,
    pub witness: Vec<f64>,
    pub divergent: bool,
    pub call_depth: usize,
    pub helper_steps: usize,
    /// Chain steps: (kind, input index, constant a, constant b).
    pub steps: Vec<(u8, usize, f64, f64)>,
    /// Chain positions (after step index) of the `R_k` branches.
    pub reach_at: Vec<usize>,
    /// Chain position of the helper call.
    pub call_at: usize,
    pub unsat_c: f64,
    pub exp_k: f64,
}

/// One generated module with its planted answers.
#[derive(Debug, Clone)]
pub struct Planted {
    pub shape: Shape,
    pub module: Module,
    pub reach_consts: Vec<f64>,
}

impl Planted {
    pub fn reachable_sites(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.reach_consts.len() as u32).map(|k| SITE_R0 + k)
    }
}

/// Whether `x * x == c` has a binary64 solution. Rounded squaring is
/// monotone on `x >= 0`, so only the neighbours of `sqrt(c)` can hit `c`.
pub fn square_hits(c: f64) -> bool {
    if c.is_nan() || c < 0.0 {
        return false;
    }
    let r = c.sqrt();
    let mut x = f64::from_bits(r.to_bits().saturating_sub(3));
    for _ in 0..7 {
        if x * x == c {
            return true;
        }
        x = f64::from_bits(x.to_bits() + 1);
    }
    false
}

/// Draws `n` module shapes, each parameter stratified over the corpus.
pub fn shapes(rng: &mut Rng, n: usize) -> Vec<Shape> {
    let columns: Vec<Vec<f64>> = RANGES
        .iter()
        .map(|&(_, lo, hi)| rng.stratified(n, lo, hi))
        .collect();
    (0..n)
        .map(|i| {
            let col = |name: &str| {
                let k = RANGES
                    .iter()
                    .position(|r| r.0 == name)
                    .expect("known range");
                columns[k][i]
            };
            let inputs = col("inputs") as usize;
            let half_widths: Vec<f64> = (0..inputs)
                .map(|_| 10f64.powf(col("half_width_log10") + rng.range(-0.2, 0.2)))
                .collect();
            // The witness stays inside the middle of the box so the
            // search starts from a fair distance.
            let witness: Vec<f64> = half_widths
                .iter()
                .map(|d| rng.range(-0.7, 0.7) * d)
                .collect();
            let chain = col("chain_steps") as usize;
            let reach = col("reachable_branches") as usize;
            let steps = (0..chain)
                .map(|_| {
                    (
                        rng.below(5) as u8,
                        rng.below(inputs),
                        rng.range(0.3, 0.95),
                        rng.range(-2.0, 2.0),
                    )
                })
                .collect();
            let mut reach_at: Vec<usize> =
                (0..reach).map(|k| (k + 1) * chain / (reach + 1)).collect();
            reach_at.dedup();
            let unsat_c = loop {
                let c = rng.range(0.05, 0.5) * half_widths[0] * half_widths[0];
                if !square_hits(c) {
                    break c;
                }
            };
            Shape {
                inputs,
                exp_k: 712.0 / (0.8 * half_widths[0]),
                half_widths,
                witness,
                divergent: col("divergent") < 0.5,
                call_depth: col("call_depth") as usize,
                helper_steps: col("helper_steps") as usize,
                call_at: rng.below(chain.max(1)),
                steps,
                reach_at,
                unsat_c,
            }
        })
        .collect()
}

/// One pure chain step `t := f(t, x)`.
fn step(f: &mut FunctionBuilder<'_>, kind: u8, t: Reg, x: Reg, a: f64, b: f64) -> Reg {
    let ca = f.constant(a);
    let cb = f.constant(b);
    match kind {
        0 => {
            let ta = f.bin(BinOp::Mul, t, ca, None);
            let xb = f.bin(BinOp::Mul, x, cb, None);
            f.bin(BinOp::Add, ta, xb, None)
        }
        1 => {
            let s = f.un(UnOp::Sin, t, None);
            let sa = f.bin(BinOp::Mul, s, ca, None);
            f.bin(BinOp::Add, sa, x, None)
        }
        2 => {
            let xa = f.bin(BinOp::Mul, x, ca, None);
            let c = f.un(UnOp::Cos, xa, None);
            let ta = f.bin(BinOp::Mul, t, ca, None);
            f.bin(BinOp::Sub, ta, c, None)
        }
        3 => {
            let one = f.constant(1.0);
            let abs = f.un(UnOp::Abs, t, None);
            let shifted = f.bin(BinOp::Add, abs, one, None);
            let root = f.un(UnOp::Sqrt, shifted, None);
            let ra = f.bin(BinOp::Mul, root, ca, None);
            f.bin(BinOp::Add, ra, x, None)
        }
        _ => {
            let ta = f.bin(BinOp::Mul, t, ca, None);
            let m = f.bin(BinOp::Max, ta, x, None);
            f.bin(BinOp::Sub, m, cb, None)
        }
    }
}

impl Shape {
    /// Builds the module with the given `R_k` constants.
    pub fn build(&self, reach_consts: &[f64]) -> Module {
        let mut mb = ModuleBuilder::new();
        // Helpers, innermost first: h_d(t) = helper chain, then a call to
        // h_{d+1}.
        let mut callee: Option<FuncId> = None;
        for depth in (0..self.call_depth).rev() {
            let mut h = mb.function(format!("h{depth}"), 1);
            let mut t = h.param(0);
            for s in 0..self.helper_steps {
                let (kind, _, a, b) = self.steps[(s + depth) % self.steps.len()];
                t = step(&mut h, kind, t, t, a, b);
            }
            if let Some(inner) = callee {
                t = h.call(inner, vec![t]);
            }
            h.ret(Some(t));
            callee = Some(h.finish());
        }

        let mut f = mb.function("prog", self.inputs);
        let xs: Vec<Reg> = (0..self.inputs).map(|j| f.param(j)).collect();
        let x0 = xs[0];
        let x1 = xs[1 % self.inputs];

        // Planted op sites: exp(x0 * k) overflows on part of the box;
        // x1 * x1 never does.
        let k = f.constant(self.exp_k);
        let scaled = f.bin(BinOp::Mul, x0, k, None);
        let e = f.un(UnOp::Exp, scaled, Some(0));
        let sq1 = f.bin(BinOp::Mul, x1, x1, Some(1));

        // Branch U: x0 * x0 < c, boundary unreachable in binary64.
        let sq0 = f.bin(BinOp::Mul, x0, x0, None);
        let c = f.constant(self.unsat_c);
        let (u_then, u_join) = (f.new_block(), f.new_block());
        f.cond_br(Some(SITE_U), sq0, Cmp::Lt, c, u_then, u_join);
        f.switch_to(u_then);
        f.jump(u_join);
        f.switch_to(u_join);

        // Branch P: |x0| + 1 < 0.5, provably never taken.
        let abs = f.un(UnOp::Abs, x0, None);
        let one = f.constant(1.0);
        let half = f.constant(0.5);
        let lifted = f.bin(BinOp::Add, abs, one, None);
        let (p_then, p_join) = (f.new_block(), f.new_block());
        f.cond_br(Some(SITE_P), lifted, Cmp::Lt, half, p_then, p_join);
        f.switch_to(p_then);
        f.jump(p_join);
        f.switch_to(p_join);

        // The chain, seeded from the planted values so they stay live
        // into the return value.
        let small = f.constant(1e-300);
        let e_small = f.bin(BinOp::Mul, e, small, None);
        let e_capped = f.bin(BinOp::Min, e_small, one, None);
        let seed = f.bin(BinOp::Add, x0, e_capped, None);
        let t = f.copy(seed);
        let sq_term = f.bin(BinOp::Mul, sq1, small, None);
        let with_sq = f.bin(BinOp::Add, t, sq_term, None);
        f.assign(t, with_sq);
        let mut next_reach = 0usize;
        for (i, &(kind, j, a, b)) in self.steps.iter().enumerate() {
            let v = step(&mut f, kind, t, xs[j], a, b);
            f.assign(t, v);
            if i == self.call_at {
                if let Some(h) = callee {
                    let r = f.call(h, vec![t]);
                    f.assign(t, r);
                }
            }
            while next_reach < self.reach_at.len() && self.reach_at[next_reach] == i {
                let site = SITE_R0 + next_reach as u32;
                let c = f.constant(reach_consts[next_reach]);
                let (then_bb, else_bb, join) = (f.new_block(), f.new_block(), f.new_block());
                f.cond_br(Some(site), t, Cmp::Lt, c, then_bb, else_bb);
                f.switch_to(then_bb);
                if self.divergent {
                    let ca = f.constant(a);
                    let v = f.bin(BinOp::Mul, t, ca, None);
                    let w = f.un(UnOp::Sin, v, None);
                    let z = f.bin(BinOp::Add, w, xs[j], None);
                    f.assign(t, z);
                }
                f.jump(join);
                f.switch_to(else_bb);
                if self.divergent {
                    let cb = f.constant(b);
                    let v = f.bin(BinOp::Sub, t, cb, None);
                    let w = f.un(UnOp::Cos, v, None);
                    f.assign(t, w);
                }
                f.jump(join);
                f.switch_to(join);
                next_reach += 1;
            }
        }
        f.ret(Some(t));
        f.finish();
        mb.build()
    }

    pub fn domain(&self) -> Vec<fp_runtime::Interval> {
        self.half_widths
            .iter()
            .map(|&d| fp_runtime::Interval::symmetric(d))
            .collect()
    }

    /// Builds the module and patches every `R_k` constant to the value the
    /// branch compares at the witness, in program order (each patch can
    /// change the path, and so the values, of later branches).
    pub fn plant(self) -> Option<Planted> {
        let mut consts = vec![0.0; self.reach_at.len()];
        for k in 0..consts.len() {
            let module = self.build(&consts);
            let program = fpir::ModuleProgram::new(module, "prog")?;
            let mut probe = FirstBranch {
                site: SITE_R0 + k as u32,
                lhs: None,
            };
            fp_runtime::Analyzable::run(&program, &self.witness, &mut probe);
            let lhs = probe.lhs.filter(|v| v.is_finite())?;
            consts[k] = lhs;
        }
        let module = self.build(&consts);
        Some(Planted {
            shape: self,
            module,
            reach_consts: consts,
        })
    }
}

/// Records the left operand of the first execution of one branch site.
struct FirstBranch {
    site: u32,
    lhs: Option<f64>,
}

impl Observer for FirstBranch {
    fn on_branch(&mut self, ev: &BranchEvent) -> ProbeControl {
        if ev.id.0 == self.site && self.lhs.is_none() {
            self.lhs = Some(ev.lhs);
        }
        ProbeControl::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_hits_matches_exact_squares() {
        assert!(square_hits(4.0));
        assert!(square_hits(2.25));
        assert!(!square_hits(2.0));
        assert!(!square_hits(-1.0));
    }
}
