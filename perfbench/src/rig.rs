//! The benchmark's own Jakiro rig, assembled only from the layers' public
//! functions so that its calls into each layer can be timed and its
//! responses checked.
//!
//! `spawn_jakiro` cannot be instrumented from outside, so this rig builds
//! the same system step by step: the same cluster, connections, seeds,
//! outlier draws, spawn order and client loop. Its modelled results must
//! therefore equal `spawn_jakiro`'s exactly, which the benchmark checks
//! on every run. Unlike `spawn_jakiro`, each client gets its own span
//! recorder, drained after every call, so every call's phase spans are
//! seen (no ring eviction) and paired with the call that produced them.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

use rand::{Rng, SeedableRng};
use rfp_core::{
    connect, serve_loop, CallResult, RespStatus, RfpConfig, RfpServerConn, RfpTelemetry, REQ_HDR,
    RESP_HDR,
};
use rfp_kvstore::systems::apply_to_partition;
use rfp_kvstore::{
    partition_of, KvRequest, KvResponse, KvStats, KvSystem, Partition, PutOutcome, SystemConfig,
};
use rfp_rnic::{Cluster, ThreadCtx};
use rfp_simnet::{derive_seed, MetricsRegistry, RequestTrace, SimSpan, Simulation, SpanRecorder};
use rfp_workload::{Op, ValueSize};

use crate::tracer::{Kind, Tracer};

/// Output and span checks, accumulated over the measured window.
#[derive(Default)]
pub struct Checks {
    measuring: Cell<bool>,
    /// Keys the store evicted while being preloaded (its buckets hold 8
    /// pairs under strict LRU, so an overfull bucket drops its oldest).
    evicted_at_preload: HashSet<Vec<u8>>,
    /// Calls whose results arrived in the window.
    pub calls: Cell<u64>,
    /// Calls whose response was rejected, undecodable or wrong, or a GET
    /// miss that no eviction explains (see [`Rig::unexplained_misses`]).
    pub failed: Cell<u64>,
    /// GETs answered `NotFound`.
    pub misses: Cell<u64>,
    /// Distinct keys that missed although the preload stored them.
    missed_after_preload: RefCell<HashSet<Vec<u8>>>,
    /// Request spans drained in the window.
    pub spans: Cell<u64>,
    /// Spans without each of the five milestones once, or whose phases
    /// do not sum to their call's latency.
    pub span_errors: Cell<u64>,
    /// Summed phases, ns: write, ring wait, handler, fetch.
    pub phase_ns: [Cell<i64>; 4],
    /// Summed call latency, ns.
    pub latency_ns: Cell<u64>,
}

impl Checks {
    pub fn start(&self) {
        self.measuring.set(true);
    }

    pub fn stop(&self) {
        self.measuring.set(false);
    }

    fn add(cell: &Cell<u64>, n: u64) {
        cell.set(cell.get() + n);
    }

    /// Books one batch of finished calls and the spans drained for them.
    /// A GET must return a value of the configured length whose bytes run
    /// `tag, tag+1, …`, or miss a key the store evicted; a PUT must be
    /// acknowledged.
    fn book(
        &self,
        ops: &[&Op],
        resps: &[Option<KvResponse>],
        value_len: usize,
        latencies: &mut [u64],
        traces: Vec<RequestTrace>,
    ) {
        if !self.measuring.get() {
            return;
        }
        for (op, resp) in ops.iter().zip(resps) {
            let ok = match (op, resp) {
                (Op::Get { .. }, Some(KvResponse::Found(v))) => {
                    v.len() == value_len
                        && v.iter()
                            .enumerate()
                            .all(|(i, &b)| b == v[0].wrapping_add(i as u8))
                }
                (Op::Get { key }, Some(KvResponse::NotFound)) => {
                    Checks::add(&self.misses, 1);
                    if !self.evicted_at_preload.contains(key) {
                        self.missed_after_preload.borrow_mut().insert(key.clone());
                    }
                    true
                }
                (Op::Put { .. }, Some(KvResponse::Stored)) => true,
                _ => false,
            };
            Checks::add(&self.failed, u64::from(!ok));
        }
        Checks::add(&self.calls, latencies.len() as u64);
        Checks::add(&self.spans, traces.len() as u64);
        Checks::add(&self.latency_ns, latencies.iter().sum());
        let mut e2e = Vec::with_capacity(traces.len());
        for t in &traces {
            match phases(t) {
                Some(p) => {
                    for (sum, v) in self.phase_ns.iter().zip(p) {
                        sum.set(sum.get() + v);
                    }
                    e2e.push(p.iter().sum::<i64>() as u64);
                }
                None => Checks::add(&self.span_errors, 1),
            }
        }
        // Pipelined calls finish out of order within a batch, so spans
        // and calls are paired as multisets of latency.
        e2e.sort_unstable();
        latencies.sort_unstable();
        if e2e != latencies {
            Checks::add(&self.span_errors, 1);
        }
    }
}

const MILESTONES: [&str; 5] = [
    "issue",
    "request_written",
    "server_dequeued",
    "response_posted",
    "completed",
];

/// A request span's four phases (ns, signed: the server may dequeue
/// before the client sees its WRITE complete), or `None` unless it has
/// each milestone exactly once. They telescope to `completed - issue`;
/// marks inside a phase (such as `fetch_read`) stay in it.
fn phases(t: &RequestTrace) -> Option<[i64; 4]> {
    let mut at = [0i64; 5];
    for (slot, label) in at.iter_mut().zip(MILESTONES) {
        let mut hits = t.marks().iter().filter(|m| m.1 == label);
        *slot = hits.next()?.0.as_nanos() as i64;
        if hits.next().is_some() {
            return None;
        }
    }
    Some([at[1] - at[0], at[2] - at[1], at[3] - at[2], at[4] - at[3]])
}

/// The rig's own copy of Jakiro's rare slow-request outliers: same seed
/// stream and draws as the shipped system's generator.
struct Outliers {
    rng: rand::rngs::StdRng,
    prob: f64,
    min_ns: u64,
    max_ns: u64,
}

impl Outliers {
    fn new(cfg: &SystemConfig, stream: u64) -> Self {
        let min_ns = cfg.outlier_extra.0.as_nanos();
        Outliers {
            rng: rand::rngs::StdRng::seed_from_u64(derive_seed(cfg.seed, 0xBAD0 + stream)),
            prob: cfg.outlier_prob,
            min_ns,
            max_ns: cfg.outlier_extra.1.as_nanos().max(min_ns + 1),
        }
    }

    fn draw(&mut self) -> SimSpan {
        if self.prob > 0.0 && self.rng.gen::<f64>() < self.prob {
            SimSpan::nanos(self.rng.gen_range(self.min_ns..self.max_ns))
        } else {
            SimSpan::ZERO
        }
    }
}

/// Ring capacities Jakiro sizes for this workload (overload control and
/// integrity off).
fn sized_rfp(cfg: &SystemConfig) -> RfpConfig {
    let max_val = cfg.spec.values.max();
    RfpConfig {
        resp_capacity: (RESP_HDR + 5 + max_val)
            .next_multiple_of(64)
            .max(256)
            .max(cfg.rfp.fetch_size),
        req_capacity: (REQ_HDR + 7 + cfg.spec.key_len + max_val)
            .next_multiple_of(64)
            .max(256),
        ..cfg.rfp.clone()
    }
}

fn fixed_value_len(cfg: &SystemConfig) -> usize {
    match cfg.spec.values {
        ValueSize::Fixed(n) => n,
        ValueSize::Uniform { .. } => panic!("benchmark workloads use fixed-size values"),
    }
}

fn record_outcome(stats: &KvStats, op: &Op, resp: &Option<KvResponse>, latency: SimSpan) {
    stats.completed.incr();
    stats.latency.record(latency);
    match op {
        Op::Get { .. } => {
            stats.gets.incr();
            if matches!(resp, Some(KvResponse::NotFound)) {
                stats.misses.incr();
            }
        }
        Op::Put { .. } => stats.puts.incr(),
    }
}

/// Runs `f` in a child span when tracing, or plainly when not.
fn span<T>(tracer: &Option<Rc<Tracer>>, kind: Kind, task: u16, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.child(kind, task, f),
        None => f(),
    }
}

fn encode(op: &Op) -> Vec<u8> {
    match op {
        Op::Get { key } => KvRequest::Get { key }.encode(),
        Op::Put { key, value } => KvRequest::Put { key, value }.encode(),
    }
}

/// One running rig: the system in `spawn_jakiro`'s shape plus the server
/// threads (for their utilisation) and the checks.
pub struct Rig {
    pub sys: KvSystem,
    pub server_threads: Vec<Rc<ThreadCtx>>,
    pub checks: Rc<Checks>,
    partitions: Vec<Rc<RefCell<Partition>>>,
}

impl Rig {
    pub fn reset_measurements(&self) {
        self.sys.reset_measurements();
        for t in &self.server_threads {
            t.reset_utilization();
        }
    }

    /// Distinct keys that missed although the preload stored them, and
    /// the evictions the store made after the preload. Each such miss
    /// needs an eviction since the preload, so the first may not exceed
    /// the second: a store or routing fault that loses keys shows here.
    pub fn unexplained_misses(&self) -> (u64, u64) {
        let evictions: u64 = self.partitions.iter().map(|p| p.borrow().evictions()).sum();
        let since_preload = evictions - self.checks.evicted_at_preload.len() as u64;
        let missed = self.checks.missed_after_preload.borrow().len() as u64;
        (missed, since_preload)
    }
}

/// Builds Jakiro as `spawn_jakiro` does. With a tracer, every client and
/// server-core future is wrapped in per-poll spans and the layer calls
/// inside them in child spans.
pub fn spawn(sim: &mut Simulation, cfg: &SystemConfig, tracer: Option<Rc<Tracer>>) -> Rig {
    assert!(
        !cfg.rfp.overload.enabled && !cfg.rfp.integrity.enabled,
        "the rig mirrors the plain remote-fetch transport only"
    );
    let cluster = Cluster::new(sim, cfg.profile.clone(), 1 + cfg.client_machines);
    let server_m = cluster.machine(0);
    let stats = Rc::new(KvStats::default());
    let registry = MetricsRegistry::new();
    cluster.attach_metrics(&registry);
    stats.register_into(&registry);

    let per_part = (cfg.spec.key_count as usize * 2 / cfg.server_threads / 8).max(64);
    let partitions: Vec<Rc<RefCell<Partition>>> = (0..cfg.server_threads)
        .map(|_| Rc::new(RefCell::new(Partition::new(per_part))))
        .collect();
    let mut evicted_at_preload = HashSet::new();
    for (key, value) in cfg.spec.generator(cfg.seed).preload(cfg.spec.key_count) {
        let outcome = partitions[partition_of(&key, cfg.server_threads)]
            .borrow_mut()
            .put(&key, &value);
        if let PutOutcome::Evicted { key } = outcome {
            evicted_at_preload.insert(key);
        }
    }

    let rfp_cfg = sized_rfp(cfg);
    let value_len = fixed_value_len(cfg);
    let checks = Rc::new(Checks {
        evicted_at_preload,
        ..Checks::default()
    });
    let mut server_conns: Vec<Vec<Rc<RfpServerConn>>> =
        (0..cfg.server_threads).map(|_| Vec::new()).collect();
    let mut rfp_clients = Vec::new();
    let mut client_threads = Vec::new();

    for m in 0..cfg.client_machines {
        let client_m = cluster.machine(1 + m);
        for t in 0..cfg.clients_per_machine {
            let thread = client_m.thread(format!("c{m}.{t}"));
            client_threads.push(Rc::clone(&thread));
            let idx = m * cfg.clients_per_machine + t;
            // A recorder per client, drained after every call: it never
            // holds more than one window of spans.
            let spans = SpanRecorder::new(rfp_cfg.window.max(1) * 4);
            let ccfg = RfpConfig {
                telemetry: Some(RfpTelemetry {
                    registry: registry.clone(),
                    spans: spans.clone(),
                    prefix: format!("rfp.client.{idx}"),
                    track: idx as u32,
                }),
                conn_id: idx as u32,
                ..rfp_cfg.clone()
            };
            let mut conns = Vec::with_capacity(cfg.server_threads);
            for sconns in server_conns.iter_mut() {
                let (cl, sc) = connect(
                    &client_m,
                    &server_m,
                    cluster.qp(1 + m, 0),
                    cluster.qp(0, 1 + m),
                    ccfg.clone(),
                );
                let cl = Rc::new(cl);
                rfp_clients.push(Rc::clone(&cl));
                conns.push(cl);
                sconns.push(Rc::new(sc));
            }

            let spec = cfg.spec.clone();
            let seed = derive_seed(cfg.seed, (m * 64 + t) as u64 + 1);
            let st = Rc::clone(&stats);
            let checks = Rc::clone(&checks);
            let nthreads = cfg.server_threads;
            let think = cfg.think_time;
            let window = rfp_cfg.window;
            let h = sim.handle();
            let tr = tracer.clone();
            let task = idx as u16;
            let client = async move {
                let mut gen = spec.generator(seed);
                let mut pause_rng =
                    rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 0x0074_6869_6E6B));
                // Books finished calls against the stats and checks, and
                // drains their spans.
                let finish = |ops: &[&Op], outs: &[CallResult], latencies: &mut [u64]| {
                    let resps: Vec<Option<KvResponse>> = span(&tr, Kind::KvCodec, task, || {
                        outs.iter()
                            .map(|o| KvResponse::decode(&o.data).ok())
                            .collect()
                    });
                    for (i, (op, resp)) in ops.iter().zip(&resps).enumerate() {
                        if outs[i].info.status == RespStatus::Ok && resp.is_some() {
                            record_outcome(&st, op, resp, SimSpan::nanos(latencies[i]));
                        }
                    }
                    span(&tr, Kind::Check, task, || {
                        let traces = spans.snapshot();
                        spans.reset();
                        checks.book(ops, &resps, value_len, latencies, traces);
                    });
                };
                loop {
                    if !think.is_zero() {
                        let u: f64 = pause_rng.gen_range(1e-9..1.0);
                        let pause = think.as_nanos() as f64 * -u.ln();
                        h.sleep(SimSpan::from_nanos_f64(pause)).await;
                    }
                    if window > 1 {
                        let ops: Vec<Op> = span(&tr, Kind::NextOp, task, || {
                            (0..window).map(|_| gen.next_op()).collect()
                        });
                        let mut buckets: Vec<Vec<usize>> =
                            (0..nthreads).map(|_| Vec::new()).collect();
                        for (i, op) in ops.iter().enumerate() {
                            buckets[partition_of(op.key(), nthreads)].push(i);
                        }
                        for (p, bucket) in buckets.iter().enumerate() {
                            if bucket.is_empty() {
                                continue;
                            }
                            let reqs: Vec<Vec<u8>> = span(&tr, Kind::KvCodec, task, || {
                                bucket.iter().map(|&i| encode(&ops[i])).collect()
                            });
                            let outs = conns[p].call_pipelined(&thread, &reqs).await;
                            let batch: Vec<&Op> = bucket.iter().map(|&i| &ops[i]).collect();
                            let mut lat: Vec<u64> =
                                outs.iter().map(|o| o.info.latency.as_nanos()).collect();
                            finish(&batch, &outs, &mut lat);
                        }
                        continue;
                    }
                    let op = span(&tr, Kind::NextOp, task, || gen.next_op());
                    let conn = &conns[partition_of(op.key(), nthreads)];
                    let req = span(&tr, Kind::KvCodec, task, || encode(&op));
                    let t0 = h.now();
                    let out = conn.call(&thread, &req).await;
                    let mut lat = vec![(h.now() - t0).as_nanos()];
                    finish(&[&op], std::slice::from_ref(&out), &mut lat);
                }
            };
            match &tracer {
                Some(t) => sim.spawn(t.wrap(Kind::ClientPoll, task, client)),
                None => sim.spawn(client),
            }
        }
    }

    let mut server_threads = Vec::with_capacity(cfg.server_threads);
    for (s, conns) in server_conns.iter().enumerate() {
        let thread = server_m.thread(format!("s{s}"));
        server_threads.push(Rc::clone(&thread));
        let partition = Rc::clone(&partitions[s]);
        let extra = cfg.extra_process;
        let mut outliers = Outliers::new(cfg, s as u64);
        let tr = tracer.clone();
        let task = (cfg.total_clients() + s) as u16;
        let handler = move |req: &[u8]| {
            span(&tr, Kind::KvHandler, task, || {
                let parsed = KvRequest::decode(req).expect("client sent well-formed request");
                let jitter = outliers.draw();
                let (resp, work) = apply_to_partition(&mut partition.borrow_mut(), &parsed);
                (resp.encode(), work + extra + jitter)
            })
        };
        let server = serve_loop(thread, conns.clone(), handler, SimSpan::nanos(100));
        match &tracer {
            Some(t) => sim.spawn(t.wrap(Kind::ServerPoll, task, server)),
            None => sim.spawn(server),
        }
    }

    Rig {
        sys: KvSystem {
            server_machine: server_m,
            cluster,
            stats,
            registry,
            spans: SpanRecorder::new(1),
            client_threads,
            rfp_clients,
            server_conns,
        },
        server_threads,
        checks,
        partitions,
    }
}
