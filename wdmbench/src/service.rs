//! The `service_campaign` workload: a closed loop over the line-JSON TCP
//! front-end (`wdm_service::serve` on loopback).
//!
//! Two client connections each keep one job in flight against a 2-worker
//! service with durable checkpoints at the default cadence: a client sends
//! `submit`, then `wait`, checks the outcome, and only then takes the next
//! job of the pass's seeded mix. A verdict's latency runs from sending the
//! `submit` to receiving the `wait` reply. Every pass runs on a fresh
//! service over a fresh checkpoint directory, started between passes
//! outside the timed window, so job ids, checkpoint files and memory do not
//! grow with the number of passes.
//!
//! Witnesses come back as IEEE-754 bit patterns and are replayed on the
//! tenant's own program; planted zero-free tenants must never report a
//! zero. The durability drill kills a service with jobs in flight and
//! times a restart over the same directory until every job has resumed at
//! its last durable turn.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fp_runtime::{Analyzable, BranchId};
use fpir::ModuleProgram;
use serde::Value;
use wdm_core::boundary::{BoundaryAnalysis, BoundaryMode, BoundaryWeakDistance};
use wdm_core::driver::minimize_weak_distance;
use wdm_core::{AnalysisConfig, BackendKind, WeakDistance};
use wdm_service::{serve, AnalysisService, Catalog, ServiceConfig};
use wdm_xsat::CnfWeakDistance;

use crate::corpus::{self, SITE_U};
use crate::drill;
use crate::paper::{formulas, HalfLine};
use crate::trace::{self, TimedWd};
use crate::util::{median, pass_seed, quantile, Rng};
use crate::{Metrics, Pass, ScratchDir, Verdict, Workload};

/// Pool workers and client connections.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Jobs per pass and tenant. The 12 easy tenants run once and the 8
/// zero-free ones three times each, so zero-free jobs are the majority and
/// the latency percentiles sit inside their continuum of budgets rather
/// than on the edge of the easy jobs' cluster.
const EASY_PER_TENANT: usize = 1;
const ZERO_FREE_PER_TENANT: usize = 3;
/// Per-round budget of each job, drawn one per stratum per tenant.
const BUDGET: (f64, f64) = (3_000.0, 10_000.0);
const EASY_ROUNDS: u64 = 3;
/// Zero-free jobs run about `4/3` turns per round, so this many rounds
/// gives each one about 16 checkpointed turns.
const ZERO_FREE_ROUNDS: u64 = 12;
/// The fpir tenants are shipped programs: generated from a fixed seed, so
/// the catalog is the same whatever `--seed` draws for the job mix.
const CATALOG_SEED: u64 = 0xF1F1;
/// Every wire request gets this long to answer before the verdict counts
/// as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Jobs in flight during the durability drill, and their budget. Many
/// jobs make a restart restore many checkpoints, so its time is mostly
/// that work rather than thread wake-ups.
const DRILL_JOBS: usize = 24;
const DRILL_EVALS: u64 = 4_000;
const DRILL_ROUNDS: u64 = 400;
/// Durable turns each drill job reaches before the first kill.
const DRILL_TURNS: u64 = 2;
/// Timed kill+restart cycles per drill. A run has few drills, so each
/// drill restarts several times.
const RESTARTS: usize = 12;
/// The solo-replay check replays every this-many-th job of the mix.
const SOLO_EVERY: usize = 4;

/// Replays a reported witness on the tenant's own program.
type Replay = Box<dyn Fn(&[f64]) -> bool + Send + Sync>;

/// A catalog problem with its known answer.
struct Tenant {
    name: String,
    wd: Arc<dyn WeakDistance>,
    /// `None`: planted zero-free, a reported zero is wrong.
    replay: Option<Replay>,
}

/// One job of the mix.
#[derive(Debug, Clone)]
struct Job {
    tenant: usize,
    seed: u64,
    rounds: u64,
    max_evals: u64,
}

impl Job {
    fn submit_line(&self, tenants: &[Tenant]) -> String {
        format!(
            "{{\"cmd\":\"submit\",\"problem\":\"{}\",\"seed\":{},\"rounds\":{},\"max_evals\":{}}}",
            tenants[self.tenant].name, self.seed, self.rounds, self.max_evals
        )
    }

    fn config(&self) -> AnalysisConfig {
        AnalysisConfig::quick(self.seed)
            .with_rounds(self.rounds as usize)
            .with_max_evals(self.max_evals as usize)
    }
}

fn tenants() -> Vec<Tenant> {
    let mut out = Vec::new();
    for negative in [false, true] {
        let sign = if negative { '-' } else { '+' };
        for i in 0..5u32 {
            let wd = BoundaryWeakDistance::new(HalfLine { negative })
                .with_mode(BoundaryMode::Single(BranchId(i)));
            let replay: Option<Replay> = (i < 4).then(|| -> Replay {
                Box::new(move |x: &[f64]| {
                    let program = HalfLine { negative };
                    program.search_domain()[0].contains(x[0])
                        && BoundaryAnalysis::new(program)
                            .triggered_conditions(x)
                            .contains(&BranchId(i))
                })
            });
            out.push(Tenant {
                name: format!("sin{sign}/k{i}"),
                wd: Arc::new(wd),
                replay,
            });
        }
    }
    for f in formulas() {
        let holds = f.holds;
        out.push(Tenant {
            name: format!("xsat/{}", f.name),
            wd: Arc::new(CnfWeakDistance::new(f.cnf.clone()).with_domain(f.domain.clone())),
            replay: f.sat.then(|| Box::new(move |x: &[f64]| holds(x)) as Replay),
        });
    }
    // Zero-free fpir tenants: the unreachable boundary U of generated
    // modules, evaluated by the interpreter (or kernel).
    let mut rng = Rng::new(CATALOG_SEED);
    let mut planted = Vec::new();
    while planted.len() < 4 {
        for shape in corpus::shapes(&mut rng, 4 - planted.len()) {
            planted.extend(shape.plant());
        }
    }
    for (m, p) in planted.into_iter().enumerate() {
        let program = ModuleProgram::new(p.module, "prog")
            .expect("entry exists")
            .with_domain(p.shape.domain());
        let wd =
            BoundaryWeakDistance::new(program).with_mode(BoundaryMode::Single(BranchId(SITE_U)));
        out.push(Tenant {
            name: format!("fpir{m}/U"),
            wd: Arc::new(wd),
            replay: None,
        });
    }
    out
}

/// The pass's job mix: every easy tenant `EASY_PER_TENANT` times and every
/// zero-free tenant `ZERO_FREE_PER_TENANT` times, each tenant's budgets at
/// the midpoints of equal strata of [`BUDGET`] (so a pass costs the same
/// whatever the seed), job seeds random.
fn mix(rng: &mut Rng, tenants: &[Tenant]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        let (count, rounds) = match tenant.replay {
            Some(_) => (EASY_PER_TENANT, EASY_ROUNDS),
            None => (ZERO_FREE_PER_TENANT, ZERO_FREE_ROUNDS),
        };
        for k in 0..count {
            let budget = BUDGET.0 + (BUDGET.1 - BUDGET.0) * (k as f64 + 0.5) / count as f64;
            jobs.push(Job {
                tenant: t,
                seed: rng.next_u64() >> 20,
                rounds,
                max_evals: budget as u64,
            });
        }
    }
    jobs
}

/// One line-delimited JSON connection with a read timeout.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(REQUEST_TIMEOUT))
            .map_err(|e| format!("timeout: {e}"))?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("write: {e}"))
    }

    fn read(&mut self) -> Result<Value, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => {
                serde_json::value_from_str(&line).map_err(|e| format!("bad reply {line:?}: {e:?}"))
            }
            Err(e) => Err(format!("no reply within {REQUEST_TIMEOUT:?}: {e}")),
        }
    }

    fn request(&mut self, line: &str) -> Result<Value, String> {
        self.send(line)?;
        let reply = self.read()?;
        match reply.field("ok") {
            Value::Bool(true) => Ok(reply),
            _ => Err(format!("request {line} failed: {reply:?}")),
        }
    }

    /// Sends every line in one write, then reads one successful reply per
    /// line: the server answers each before reading the next, so the
    /// requests are admitted back to back.
    fn pipeline(&mut self, lines: &[String]) -> Result<(), String> {
        let batch: String = lines.iter().map(|l| format!("{l}\n")).collect();
        self.writer
            .write_all(batch.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        for line in lines {
            let reply = self.read()?;
            if !matches!(reply.field("ok"), Value::Bool(true)) {
                return Err(format!("request {line} failed: {reply:?}"));
            }
        }
        Ok(())
    }
}

fn uint(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn bits(v: &Value) -> Option<Vec<f64>> {
    match v {
        Value::Array(items) => items.iter().map(|b| uint(b).map(f64::from_bits)).collect(),
        _ => None,
    }
}

/// A running service behind its wire front-end.
struct Server {
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
    /// The checkpoint directory; handed back by [`Server::stop`].
    dir: Option<ScratchDir>,
}

impl Server {
    fn start(tenants: &[Tenant], workers: usize, dir: ScratchDir) -> Result<Server, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
        let catalog = tenants.iter().fold(Catalog::new(), |c, t| {
            c.register(t.name.clone(), Arc::clone(&t.wd))
        });
        let service =
            AnalysisService::start(ServiceConfig::new(workers).with_checkpoint_dir(&dir.0));
        let thread = std::thread::spawn(move || serve(listener, service, catalog));
        Ok(Server {
            addr,
            thread: Some(thread),
            dir: Some(dir),
        })
    }

    fn dir(&self) -> &std::path::Path {
        &self
            .dir
            .as_ref()
            .expect("a running server owns its directory")
            .0
    }

    /// Stops the server (cancelling anything in flight), waits for it and
    /// hands back its checkpoint directory.
    fn stop(mut self) -> ScratchDir {
        self.shutdown();
        self.dir
            .take()
            .expect("a running server owns its directory")
    }

    fn shutdown(&mut self) {
        if let Some(thread) = self.thread.take() {
            if let Ok(mut c) = Client::connect(self.addr) {
                let _ = c.request("{\"cmd\":\"shutdown\"}");
            }
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What a client saw for one job.
struct Seen {
    job: usize,
    id: u64,
    sent: Instant,
    verdict: Verdict,
    evals: u64,
}

/// A decided job: (index in the mix, service job id, found, evals).
type Decided = (usize, u64, bool, u64);

/// What the service decided for one job, deterministic given the job's
/// seed: its outcome, the turns it ran and its terminal checkpoint file.
#[derive(Debug, Clone, PartialEq)]
struct Facts {
    found: bool,
    evals: u64,
    turns: u64,
    ckpt: String,
}

fn decided(seen: &[Seen]) -> Vec<Decided> {
    seen.iter()
        .map(|s| (s.job, s.id, s.verdict.found > 0, s.evals))
        .collect()
}

/// Reads each decided job's terminal checkpoint file from `dir`; a job
/// without one reports 0 turns and an empty checkpoint.
fn job_facts(dir: &std::path::Path, jobs: &[Decided]) -> BTreeMap<usize, Facts> {
    jobs.iter()
        .map(|&(job, id, found, evals)| {
            let ckpt =
                std::fs::read_to_string(dir.join(format!("job-{id}.json"))).unwrap_or_default();
            let turns = serde_json::value_from_str(&ckpt)
                .ok()
                .and_then(|v| uint(v.field("turns")))
                .unwrap_or(0);
            let facts = Facts {
                found,
                evals,
                turns,
                ckpt,
            };
            (job, facts)
        })
        .collect()
}

pub struct Campaign {
    seed: u64,
    tenants: Arc<Vec<Tenant>>,
    jobs: Arc<Vec<Job>>,
    server: Option<Server>,
    clients: Vec<Client>,
    /// Pass 0's jobs until their checkpoint files are read, then what the
    /// service decided for each, for the worker-count and solo checks.
    unread: Option<Vec<Decided>>,
    first: Option<BTreeMap<usize, Facts>>,
    /// The traced pass in progress: its event stream and submit instants
    /// by job id, collected once the server stops.
    pending: Option<(Stream, Submits)>,
    /// Every traced pass: events with arrival instants, and its submits.
    traced: Vec<(Vec<(Instant, Value)>, Submits)>,
    /// Checkpoint directory bytes after each traced pass.
    ckpt_disk: Vec<u64>,
    /// Every restart of every durability drill.
    drill: Vec<Restart>,
}

type Stream = JoinHandle<Vec<(Instant, Value)>>;

/// A traced pass's submissions: service job id → send instant.
type Submits = BTreeMap<u64, Instant>;

impl Campaign {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let tenants = tenants();
        let jobs = mix(&mut Rng::new(seed), &tenants);
        let server = Server::start(&tenants, WORKERS, ScratchDir::new("service"))?;
        let mut clients = Vec::new();
        for _ in 0..CLIENTS {
            let mut c = Client::connect(server.addr)?;
            c.request("{\"cmd\":\"ping\"}")?;
            clients.push(c);
        }
        Ok(Campaign {
            seed,
            tenants: Arc::new(tenants),
            jobs: Arc::new(jobs),
            server: Some(server),
            clients,
            unread: None,
            first: None,
            pending: None,
            traced: Vec::new(),
            ckpt_disk: Vec::new(),
            drill: Vec::new(),
        })
    }

    /// Runs the whole mix, with the job seeds of pass `index`, through
    /// `clients` in a closed loop. Each pass takes the jobs in its own
    /// seeded order: which jobs share a scheduling cycle sets their
    /// latencies, so a run pools many pairings instead of one.
    fn run_mix(&self, clients: Vec<Client>, index: u64) -> (Vec<Seen>, Vec<Client>) {
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        Rng::new(pass_seed(self.seed, index)).shuffle(&mut order);
        let order = Arc::new(order);
        let next = Arc::new(AtomicUsize::new(0));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let threads: Vec<JoinHandle<Client>> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let (next, seen, order) =
                    (Arc::clone(&next), Arc::clone(&seen), Arc::clone(&order));
                let (tenants, jobs) = (Arc::clone(&self.tenants), Arc::clone(&self.jobs));
                std::thread::spawn(move || {
                    loop {
                        let Some(&j) = order.get(next.fetch_add(1, Ordering::SeqCst)) else {
                            return client;
                        };
                        let job = Job {
                            seed: pass_seed(jobs[j].seed, index),
                            ..jobs[j].clone()
                        };
                        let s = decide(&mut client, &tenants, &job, j, c as u64);
                        let stop = s.verdict.failure.is_some();
                        seen.lock().expect("verdict list lock").push(s);
                        if stop {
                            // A broken connection ends this client's loop;
                            // the failure is already recorded.
                            next.store(jobs.len(), Ordering::SeqCst);
                            return client;
                        }
                    }
                })
            })
            .collect();
        let clients = threads.into_iter().filter_map(|t| t.join().ok()).collect();
        let mut seen = std::mem::take(&mut *seen.lock().expect("verdict list lock"));
        seen.sort_by_key(|s| s.job);
        (seen, clients)
    }
}

/// Submits one job, waits for it and judges the outcome.
fn decide(client: &mut Client, tenants: &[Tenant], job: &Job, j: usize, c: u64) -> Seen {
    let tenant = &tenants[job.tenant];
    let label = format!("job {j} ({})", tenant.name);
    let sent = Instant::now();
    let _span = trace::span("service.job", c);
    let submit = {
        let _span = trace::span("wire.submit", c);
        client.request(&job.submit_line(tenants))
    };
    let result = submit.and_then(|reply| {
        let id = uint(reply.field("id")).ok_or("submit reply has no id")?;
        let _span = trace::span("wire.wait", c);
        client
            .request(&format!("{{\"cmd\":\"wait\",\"id\":{id}}}"))
            .map(|outcome| (id, outcome))
    });
    let ms = sent.elapsed().as_secs_f64() * 1e3;
    let (id, outcome) = match result {
        Ok(r) => r,
        Err(e) => {
            return Seen {
                job: j,
                id: u64::MAX,
                sent,
                verdict: Verdict::failed(ms, format!("{label}: {e}")),
                evals: 0,
            }
        }
    };
    let evals = uint(outcome.field("evals")).unwrap_or(0);
    let found = matches!(outcome.field("found"), Value::Bool(true));
    let verdict = match (&tenant.replay, found) {
        (_, false) => Verdict::ok(ms, 1, 0),
        (None, true) => Verdict::failed(ms, format!("{label}: zero-free tenant reported found")),
        (Some(replay), true) => match bits(outcome.field("input_bits")) {
            Some(x) if replay(&x) => Verdict::ok(ms, 1, 1),
            x => Verdict::failed(ms, format!("{label}: witness {x:?} fails replay")),
        },
    };
    Seen {
        job: j,
        id,
        sent,
        verdict,
        evals,
    }
}

/// Reads one subscription until its server stops; returns the events with
/// their arrival instants.
fn subscribe(addr: SocketAddr) -> Result<JoinHandle<Vec<(Instant, Value)>>, String> {
    let mut stream = Client::connect(addr)?;
    stream.request("{\"cmd\":\"subscribe\"}")?;
    Ok(std::thread::spawn(move || {
        let mut events = Vec::new();
        while let Ok(v) = stream.read() {
            events.push((Instant::now(), v));
        }
        events
    }))
}

fn event_name(v: &Value) -> &str {
    match v.field("event") {
        Value::Str(s) => s,
        _ => "",
    }
}

impl Workload for Campaign {
    fn pass(&mut self, index: u64) -> Pass {
        let tracing = trace::enabled();
        let addr = self.server.as_ref().expect("server running").addr;
        let stream = if tracing { subscribe(addr).ok() } else { None };
        let clients = std::mem::take(&mut self.clients);
        let (seen, clients) = self.run_mix(clients, index);
        self.clients = clients;
        let mut pass = Pass::default();
        let evals = seen.iter().map(|s| s.evals).sum();
        pass.deterministic.insert("mo.evals", evals);
        if index == 0 {
            self.unread = Some(decided(&seen));
        }
        if let Some(stream) = stream {
            // The stream ends when the server stops, which the restart
            // between passes does.
            let submits = seen.iter().map(|s| (s.id, s.sent)).collect();
            self.pending = Some((stream, submits));
        }
        pass.verdicts = seen.into_iter().map(|s| s.verdict).collect();
        pass
    }

    /// Every pass takes the jobs in its own order with its own seeds.
    fn repeats(&self) -> bool {
        false
    }

    fn between_passes(&mut self) {
        // A fresh service and checkpoint directory for the next pass. The
        // server joins every connection on shutdown, so ours close first.
        self.clients.clear();
        let server = self.server.take().expect("server running");
        if let Some(jobs) = self.unread.take() {
            self.first = Some(job_facts(server.dir(), &jobs));
        }
        let dir = server.stop();
        if let Some((stream, submits)) = self.pending.take() {
            self.ckpt_disk.push(dir_bytes(&dir.0));
            if let Ok(events) = stream.join() {
                self.traced.push((events, submits));
            }
        }
        drop(dir);
        let server = Server::start(&self.tenants, WORKERS, ScratchDir::new("service"))
            .expect("service restarts");
        self.clients = (0..CLIENTS)
            .map(|_| Client::connect(server.addr).expect("client reconnects"))
            .collect();
        self.server = Some(server);
    }

    fn recover_ms(&mut self) -> Result<Vec<f64>, String> {
        let restarts = kill_and_resume(&self.tenants)?;
        let ms = restarts.iter().map(|r| r.ms).collect();
        self.drill.extend(restarts);
        Ok(ms)
    }

    /// Pass 0 again, at one worker: every job's outcome, turn count and
    /// terminal checkpoint must repeat bit for bit (deterministic and
    /// worker-count invariant at once). Sampled jobs replayed alone, turn by
    /// turn, must end the same way (multi-tenant ≡ solo).
    fn final_checks(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        let Some(first) = &self.first else {
            return vec!["pass 0 left no checkpoint files to compare".to_string()];
        };
        let result =
            Server::start(&self.tenants, 1, ScratchDir::new("service1")).and_then(|server| {
                let clients = (0..CLIENTS)
                    .map(|_| Client::connect(server.addr))
                    .collect::<Result<Vec<_>, _>>()?;
                let (seen, _) = self.run_mix(clients, 0);
                let facts = job_facts(server.dir(), &decided(&seen));
                failures.extend(seen.into_iter().filter_map(|s| s.verdict.failure));
                Ok(facts)
            });
        match result {
            Ok(one) => {
                for (j, facts) in first {
                    if one.get(j) != Some(facts) {
                        failures.push(format!(
                            "job {j}: outcome, turns or checkpoint at 1 worker differ from 2 workers"
                        ));
                    }
                }
            }
            Err(e) => failures.push(format!("1-worker run: {e}")),
        }
        for (j, job) in self.jobs.iter().enumerate().step_by(SOLO_EVERY) {
            let t = &self.tenants[job.tenant];
            let solo = drill::replay(&t.name, &*t.wd, &job.config());
            let facts = Facts {
                found: solo.run.outcome().is_found(),
                evals: solo.run.outcome().evals() as u64,
                turns: solo.costs.turns,
                ckpt: solo.final_ckpt.unwrap_or_default(),
            };
            if first.get(&j) != Some(&facts) {
                failures.push(format!(
                    "job {j} ({}): service outcome, turns or checkpoint differ from solo replay",
                    t.name
                ));
            }
        }
        failures
    }

    fn layer_metrics(&mut self, traced: &trace::Drained, out: &mut Metrics) {
        // Queue wait and turn gaps from the event streams.
        let (mut queue, mut gaps, mut writes) = (Vec::new(), Vec::new(), 0u64);
        for (events, submits) in &self.traced {
            let mut last: BTreeMap<u64, Instant> = BTreeMap::new();
            for (at, ev) in events {
                let Some(id) = uint(ev.field("job")) else {
                    continue;
                };
                match event_name(ev) {
                    "progress" | "finished" => {
                        match last.get(&id) {
                            Some(prev) => gaps.push(at.duration_since(*prev).as_secs_f64() * 1e3),
                            None => {
                                if let Some(sent) = submits.get(&id) {
                                    queue.push(at.duration_since(*sent).as_secs_f64() * 1e3);
                                }
                            }
                        }
                        last.insert(id, *at);
                    }
                    "checkpointed" => writes += 1,
                    _ => {}
                }
            }
        }
        let chunks = self.traced.len().max(1) as f64;
        out.insert("service.queue_ms", median(&queue));
        out.insert("service.turn_ms_p50", quantile(&gaps, 0.5));
        out.insert("service.turn_ms_p90", quantile(&gaps, 0.9));
        let first = self.first.iter().flat_map(|f| f.values());
        let (jobs, turns) = first.fold((0u64, 0u64), |(n, t), f| (n + 1, t + f.turns));
        out.insert("service.turns_per_job", turns as f64 / jobs.max(1) as f64);
        out.insert("service.ckpt_writes", writes as f64 / chunks);
        out.insert(
            "service.ckpt_disk_bytes",
            self.ckpt_disk.iter().sum::<u64>() as f64 / self.ckpt_disk.len().max(1) as f64,
        );
        let n = self.drill.len().max(1) as f64;
        out.insert(
            "service.replayed_turns",
            self.drill.iter().map(|r| r.replayed as f64).sum::<f64>() / n,
        );
        out.insert(
            "service.resume_ms",
            self.drill.iter().map(|r| r.resubmit_ms).sum::<f64>() / n,
        );
        let submit: Vec<f64> = traced
            .named("wire.submit")
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect();
        out.insert("wire.submit_us", median(&submit));
        out.insert("wire.rtt_us", self.ping_us());

        // Solo replays of sampled tenants: adaptive scheduler, checkpoint
        // serde and the adaptive-vs-best-single evaluation ratio.
        let mut costs = drill::Costs::default();
        let (mut eval_ns, mut adaptive_evals, mut best_single) = (0.0, 0u64, 0u64);
        let leaf_cost = trace::leaf_cost_ns();
        for job in self.jobs.iter().step_by(4) {
            let t = &self.tenants[job.tenant];
            let timed = TimedWd {
                inner: &*t.wd,
                eval_leaf: "service.replay_eval",
            };
            let solo = drill::replay(&t.name, &timed, &job.config());
            let leaf = trace::drain().leaf("service.replay_eval");
            eval_ns += leaf.ns as f64 + leaf.calls as f64 * leaf_cost;
            costs.add(&solo.costs);
        }
        // Adaptive against the best single backend, on the easy tenants
        // (on a zero-free one every policy just spends its budget).
        for job in self
            .jobs
            .iter()
            .filter(|j| self.tenants[j.tenant].replay.is_some())
        {
            let t = &self.tenants[job.tenant];
            let solo = drill::replay(&t.name, &*t.wd, &job.config());
            adaptive_evals += solo.run.outcome().evals() as u64;
            best_single += BackendKind::all()
                .into_iter()
                .map(|b| {
                    let run = minimize_weak_distance(&*t.wd, &job.config().with_backend(b));
                    (!run.outcome.is_found(), run.outcome.evals() as u64)
                })
                .min()
                .map_or(0, |(_, e)| e);
        }
        let turns = costs.turns.max(1) as f64;
        // Every round steps each live arm once: a leader slice plus probes.
        let slices = (costs.rounds * BackendKind::all().len() as u64).max(1) as f64;
        out.insert(
            "core.adaptive_round_us",
            costs.round_ns as f64 / 1e3 / costs.rounds.max(1) as f64,
        );
        out.insert(
            "core.adaptive_overhead_us_per_slice",
            (costs.round_ns as f64 - eval_ns) / 1e3 / slices,
        );
        out.insert(
            "core.adaptive_evals_ratio",
            adaptive_evals as f64 / best_single.max(1) as f64,
        );
        out.insert("core.ckpt_bytes", costs.ckpt_bytes as f64 / turns);
        out.insert("core.ckpt_ser_us", costs.ser_ns as f64 / 1e3 / turns);
        out.insert(
            "core.ckpt_restore_us",
            costs.restore_ns as f64 / 1e3 / turns,
        );
    }
}

impl Drop for Campaign {
    fn drop(&mut self) {
        // The server joins every connection on shutdown: close ours first.
        self.clients.clear();
        self.server.take();
    }
}

/// Total size of the files in `dir`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One timed restart of the durability drill.
struct Restart {
    ms: f64,
    /// Turns restored from disk, summed over the drill's jobs.
    replayed: u64,
    /// Pipelined resubmission time per job (checkpoint read and parse).
    resubmit_ms: f64,
}

/// The durability drill: zero-free jobs run on a server until each has
/// `DRILL_TURNS` durable turns, and the server is killed (shut down,
/// cancelling them). Then, [`RESTARTS`] times, a new server over the same
/// directory is timed from its start until every job was re-admitted at
/// its last durable turn, and is killed again; after the last restart it
/// first waits (untimed) until each job has finished its next turn, as a
/// resumed job must run on.
fn kill_and_resume(tenants: &[Tenant]) -> Result<Vec<Restart>, String> {
    let hard: Vec<usize> = (0..tenants.len())
        .filter(|&t| tenants[t].replay.is_none())
        .collect();
    let submits: Vec<String> = (0..DRILL_JOBS)
        .map(|k| {
            Job {
                tenant: hard[k % hard.len()],
                seed: 1 + k as u64,
                rounds: DRILL_ROUNDS,
                max_evals: DRILL_EVALS,
            }
            .submit_line(tenants)
        })
        .collect();

    // Run until every job has a durable checkpoint at DRILL_TURNS, then
    // kill the server.
    let server = Server::start(tenants, WORKERS, ScratchDir::new("drill"))?;
    let mut control = Client::connect(server.addr)?;
    control.pipeline(&submits)?;
    let deadline = Instant::now() + REQUEST_TIMEOUT;
    while dir_turns(server.dir(), DRILL_JOBS)
        .iter()
        .any(|&t| t < DRILL_TURNS)
    {
        if Instant::now() > deadline {
            return Err("drill jobs never reached their durable turn".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(control);
    let mut dir = server.stop();

    let mut restarts = Vec::with_capacity(RESTARTS);
    for r in 0..RESTARTS {
        let last = r + 1 == RESTARTS;
        let durable = dir_turns(&dir.0, DRILL_JOBS);
        if durable.iter().any(|&t| t < DRILL_TURNS) {
            return Err(format!("drill jobs lost their durable turns: {durable:?}"));
        }
        // Timed: restart over the same directory.
        let t = Instant::now();
        let server = Server::start(tenants, WORKERS, dir)?;
        let mut events = Client::connect(server.addr)?;
        events.request("{\"cmd\":\"subscribe\"}")?;
        let mut control = Client::connect(server.addr)?;
        // A resubmission loads the job's checkpoint before it is answered.
        let sent = Instant::now();
        control.pipeline(&submits)?;
        let resubmit_ms = sent.elapsed().as_secs_f64() * 1e3 / DRILL_JOBS as f64;
        let mut resumed_turn = vec![0u64; DRILL_JOBS];
        let mut admitted = [false; DRILL_JOBS];
        let mut next_turn = [false; DRILL_JOBS];
        let mut ms = None;
        while ms.is_none() || (last && next_turn.iter().any(|d| !d)) {
            let ev = events.read()?;
            let Some(job) = uint(ev.field("job")).map(|j| j as usize) else {
                continue;
            };
            if job >= DRILL_JOBS {
                continue;
            }
            match event_name(&ev) {
                "admitted" => {
                    resumed_turn[job] = uint(ev.field("resumed_at_turn")).unwrap_or(0);
                    admitted[job] = true;
                    if admitted.iter().all(|&a| a) {
                        ms = Some(t.elapsed().as_secs_f64() * 1e3);
                    }
                }
                "progress" => next_turn[job] = true,
                "finished" => return Err(format!("a zero-free drill job finished: {ev:?}")),
                _ => {}
            }
        }
        let ms = ms.expect("the loop ends only once every job is admitted");
        drop((events, control));
        dir = server.stop();
        if resumed_turn != durable {
            return Err(format!(
                "jobs resumed at turns {resumed_turn:?}, durable turns were {durable:?}"
            ));
        }
        restarts.push(Restart {
            ms,
            replayed: resumed_turn.iter().sum(),
            resubmit_ms,
        });
    }
    Ok(restarts)
}

/// The durable turn of each `job-<i>.json` in `dir` (0 when absent).
fn dir_turns(dir: &std::path::Path, jobs: usize) -> Vec<u64> {
    (0..jobs)
        .map(|i| {
            std::fs::read_to_string(dir.join(format!("job-{i}.json")))
                .ok()
                .and_then(|text| drill::parse_ckpt(&text))
                .map_or(0, |(turns, _)| turns)
        })
        .collect()
}

impl Campaign {
    /// Median round trip of a `ping` on the current server, in µs.
    fn ping_us(&self) -> f64 {
        let Some(server) = &self.server else {
            return 0.0;
        };
        let Ok(mut client) = Client::connect(server.addr) else {
            return 0.0;
        };
        const PINGS: usize = 50;
        let mut rtts = Vec::with_capacity(PINGS);
        for _ in 0..PINGS {
            let t = Instant::now();
            if client.request("{\"cmd\":\"ping\"}").is_err() {
                break;
            }
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
        median(&rtts)
    }
}
