//! Durable-checkpoint drills driven through `wdm_core::AdaptivePortfolio`
//! the way `wdm_service` drives it: a job runs in turns of a few scheduler
//! rounds, and between turns it *is* its checkpoint.
//!
//! * [`Drill`] is the in-process kill+resume drill of the `paper` and
//!   `fpir_corpus` workloads: tenants run a few turns writing a checkpoint
//!   file per turn, everything is dropped, and the timed restart reads,
//!   parses and restores every in-flight tenant.
//! * [`replay`] is the solo replay of one tenant that the service is
//!   bit-identical to by contract; the service workload uses it to measure
//!   checkpoint size and serde cost per turn and to cross-check verdicts.

use std::sync::Arc;
use std::time::Instant;

use fp_runtime::CancelToken;
use serde::Serialize as _;
use wdm_core::WeakDistance;
use wdm_core::{AdaptiveCheckpoint, AdaptivePortfolio, AnalysisConfig, BackendKind, PortfolioRun};

/// Scheduler rounds per turn, as `ServiceConfig` schedules them by default.
const ROUNDS_PER_TURN: usize = 4;
/// Turns each drill tenant runs before the kill.
const TURNS_BEFORE_KILL: u64 = 2;
/// Timed restarts per drill, each from the same checkpoint files: the
/// workload reports the fastest restart of the run.
const RESTARTS: usize = 8;

/// Renders a checkpoint the way the service persists it.
pub fn ckpt_json(name: &str, turns: u64, finished: bool, ckpt: &AdaptiveCheckpoint) -> String {
    let value = serde::Value::Object(vec![
        ("name".to_string(), serde::Value::Str(name.to_string())),
        ("turns".to_string(), serde::Value::UInt(turns)),
        ("finished".to_string(), serde::Value::Bool(finished)),
        ("ckpt".to_string(), ckpt.to_value()),
    ]);
    serde_json::to_string(&value).expect("checkpoint renders as JSON")
}

/// Parses [`ckpt_json`] output back into (turns, checkpoint).
pub fn parse_ckpt(text: &str) -> Option<(u64, AdaptiveCheckpoint)> {
    let value = serde_json::value_from_str(text).ok()?;
    let turns = match value.field("turns") {
        serde::Value::UInt(n) => *n,
        serde::Value::Int(n) if *n >= 0 => *n as u64,
        _ => return None,
    };
    let ckpt = serde_json::from_value(value.field("ckpt")).ok()?;
    Some((turns, ckpt))
}

/// The final run of a solo replay and what its turns cost.
pub struct Replay {
    pub run: PortfolioRun,
    pub costs: Costs,
    /// The terminal checkpoint, rendered as the service persists it.
    pub final_ckpt: Option<String>,
}

/// Turn, checkpoint and round totals of a solo replay.
#[derive(Debug, Default, Clone)]
pub struct Costs {
    pub turns: u64,
    /// Checkpoint JSON bytes written, summed over turns.
    pub ckpt_bytes: u64,
    pub ser_ns: u64,
    pub restore_ns: u64,
    pub rounds: u64,
    pub round_ns: u64,
}

impl Costs {
    pub fn add(&mut self, other: &Costs) {
        self.turns += other.turns;
        self.ckpt_bytes += other.ckpt_bytes;
        self.ser_ns += other.ser_ns;
        self.restore_ns += other.restore_ns;
        self.rounds += other.rounds;
        self.round_ns += other.round_ns;
    }
}

/// Replays one tenant turn by turn exactly as the service schedules it
/// ([`ROUNDS_PER_TURN`] rounds per turn, every backend, restore from the
/// previous turn's checkpoint, snapshot after every unfinished turn).
pub fn replay(name: &str, wd: &dyn WeakDistance, config: &AnalysisConfig) -> Replay {
    let backends = &BackendKind::all();
    let cancel = CancelToken::new();
    let mut stats = Costs::default();
    let mut saved: Option<String> = None;
    loop {
        stats.turns += 1;
        let mut portfolio = match &saved {
            Some(text) => {
                let t = Instant::now();
                let (_, ckpt) = parse_ckpt(text).expect("replay checkpoint parses");
                let p = AdaptivePortfolio::restore(wd, config, backends, &cancel, &ckpt)
                    .expect("replay checkpoint restores");
                stats.restore_ns += t.elapsed().as_nanos() as u64;
                p
            }
            None => AdaptivePortfolio::new(wd, config, backends, &cancel),
        };
        let mut live = true;
        for _ in 0..ROUNDS_PER_TURN {
            let t = Instant::now();
            if !portfolio.round(1) {
                live = false;
                break;
            }
            stats.rounds += 1;
            stats.round_ns += t.elapsed().as_nanos() as u64;
        }
        if live {
            let t = Instant::now();
            match portfolio.checkpoint() {
                Some(ckpt) => {
                    let text = ckpt_json(name, stats.turns, false, &ckpt);
                    stats.ser_ns += t.elapsed().as_nanos() as u64;
                    stats.ckpt_bytes += text.len() as u64;
                    saved = Some(text);
                    continue;
                }
                None => while portfolio.round(1) {},
            }
        }
        portfolio.finalize();
        let final_ckpt = portfolio
            .checkpoint()
            .map(|c| ckpt_json(name, stats.turns, true, &c));
        return Replay {
            run: portfolio.into_run(),
            costs: stats,
            final_ckpt,
        };
    }
}

/// The drill tenants' configuration: small slices (a 512-eval budget gives
/// 64-eval leader slices) and far more rounds than run before the kill, so
/// every tenant is in flight when it comes. Tenant `i` runs with seed
/// offset `i`.
fn config(seed: u64) -> AnalysisConfig {
    AnalysisConfig::quick(seed)
        .with_rounds(64)
        .with_max_evals(512)
}

/// The in-process kill+resume drill over a fixed set of tenants.
pub struct Drill {
    tenants: Vec<(String, Arc<dyn WeakDistance>)>,
    configs: Vec<AnalysisConfig>,
    /// The killed tenants' checkpoint files, written by the first drill.
    killed: Option<Killed>,
}

/// Checkpoint files of tenants killed in flight.
struct Killed {
    dir: crate::ScratchDir,
    /// Each tenant's last checkpoint, as written to `job-<i>.json`.
    texts: Vec<String>,
}

impl Drill {
    pub fn new(tenants: Vec<(String, Arc<dyn WeakDistance>)>, seed: u64) -> Self {
        let configs = (0..tenants.len())
            .map(|i| config(seed).with_seed_offset(i as u64))
            .collect();
        Drill {
            tenants,
            configs,
            killed: None,
        }
    }

    /// Runs every tenant for [`TURNS_BEFORE_KILL`] turns, persisting a
    /// checkpoint file after each turn, then drops everything. Every tenant
    /// is zero-free with a large pool, so all are in flight at the kill.
    fn kill(&self) -> Result<Killed, String> {
        let dir = crate::ScratchDir::new("drill");
        let backends = BackendKind::all();
        let mut texts = Vec::with_capacity(self.tenants.len());
        for (i, (name, wd)) in self.tenants.iter().enumerate() {
            let cancel = CancelToken::new();
            let mut portfolio = AdaptivePortfolio::new(&**wd, &self.configs[i], &backends, &cancel);
            let mut text = String::new();
            for turn in 1..=TURNS_BEFORE_KILL {
                for _ in 0..ROUNDS_PER_TURN {
                    if !portfolio.round(1) {
                        return Err(format!("{name}: finished before the kill"));
                    }
                }
                let ckpt = portfolio
                    .checkpoint()
                    .ok_or_else(|| format!("{name}: no checkpoint at turn {turn}"))?;
                text = ckpt_json(name, turn, false, &ckpt);
                let path = dir.0.join(format!("job-{i}.json"));
                std::fs::write(&path, &text).map_err(|e| format!("{name}: write: {e}"))?;
            }
            texts.push(text);
        }
        Ok(Killed { dir, texts })
    }

    /// Runs the drill once; returns, for each of [`RESTARTS`] restarts,
    /// the milliseconds from the restart until every in-flight tenant is
    /// restored at its last durable turn. The tenants are killed once, by
    /// the first drill of the run; every restart reads the same files.
    pub fn run(&mut self) -> Result<Vec<f64>, String> {
        if self.killed.is_none() {
            self.killed = Some(self.kill()?);
        }
        let killed = self.killed.as_ref().expect("killed above");
        let backends = BackendKind::all();
        let mut samples = Vec::with_capacity(RESTARTS);
        for _ in 0..RESTARTS {
            // Timed: read, parse and restore every in-flight tenant.
            let t = Instant::now();
            let mut restored = Vec::with_capacity(self.tenants.len());
            for (i, (name, wd)) in self.tenants.iter().enumerate() {
                let text = std::fs::read_to_string(killed.dir.0.join(format!("job-{i}.json")))
                    .map_err(|e| format!("{name}: read: {e}"))?;
                let (turns, ckpt) =
                    parse_ckpt(&text).ok_or_else(|| format!("{name}: corrupt checkpoint"))?;
                let portfolio = AdaptivePortfolio::restore(
                    &**wd,
                    &self.configs[i],
                    &backends,
                    &CancelToken::new(),
                    &ckpt,
                )
                .ok_or_else(|| format!("{name}: checkpoint does not restore"))?;
                restored.push((turns, portfolio));
            }
            samples.push(t.elapsed().as_secs_f64() * 1e3);

            // Untimed: each restored state must be exactly the pre-kill state.
            for (((name, _), text), (turns, portfolio)) in
                self.tenants.iter().zip(&killed.texts).zip(&restored)
            {
                let again = portfolio
                    .checkpoint()
                    .map(|c| ckpt_json(name, *turns, false, &c));
                if *turns != TURNS_BEFORE_KILL || again.as_deref() != Some(text.as_str()) {
                    return Err(format!(
                        "{name}: resumed state differs from the pre-kill checkpoint"
                    ));
                }
            }
        }
        Ok(samples)
    }

    /// Runs the tenants up to the kill once more: they must write exactly
    /// the checkpoints the first drill wrote (`core.ckpt_bytes` is
    /// deterministic).
    pub fn check_repeat(&self) -> Result<(), String> {
        let again = self.kill()?;
        match &self.killed {
            Some(first) if first.texts != again.texts => {
                Err("a second kill wrote different checkpoints than the first".to_string())
            }
            _ => Ok(()),
        }
    }
}
