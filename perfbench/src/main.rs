//! Repository benchmark: Jakiro (`rfp_kvstore::spawn_jakiro`) on three
//! closed-loop workloads, reporting what the modelled RDMA cluster
//! achieves (sim metrics, deterministic per seed) and what the simulator
//! costs to run on this host (host metrics).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload get95_peak --seed 42 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times `spawn_jakiro` untraced and prints the end-to-end
//! metrics; `--trace 1` adds traced runs of the benchmark's own rig and
//! prints the per-layer metrics. Every run checks the responses. The
//! last line of standard output is one JSON object. See
//! `perfbench/README.md` for every metric and workload.

mod alloc;
mod rig;
mod tracer;

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use rfp_kvstore::{spawn_jakiro, KvSystem, SystemConfig};
use rfp_simnet::{derive_seed, SimSpan, Simulation};
use rfp_workload::{KeyDist, OpMix, ValueSize, WorkloadSpec};

use tracer::{Kind, Totals, Tracer};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Sim time run before measuring, as `explore` does.
const WARMUP: SimSpan = SimSpan::millis(1);

/// System seeds per run. Sim metrics pool one window of each, so they
/// stay deterministic per benchmark seed while sampling more calls; a
/// run makes at least this many timed repetitions.
const SEEDS: usize = 8;

/// One benchmark workload: a Jakiro configuration and the sim window
/// measured on it, sized for ≥ 30 000 completed calls.
struct Workload {
    name: &'static str,
    window: SimSpan,
    config: fn(u64) -> SystemConfig,
}

fn get95_peak(seed: u64) -> SystemConfig {
    // The paper's headline bar: 6 server threads, 7×5 clients, 95% GET,
    // uniform keys, 20 000 preloaded 16 B keys, 32 B values.
    SystemConfig {
        seed,
        ..SystemConfig::default()
    }
}

fn put50_pipelined(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig {
        clients_per_machine: 1,
        spec: WorkloadSpec {
            key_count: 20_000,
            keys: KeyDist::Zipf(0.99),
            values: ValueSize::Fixed(1024),
            mix: OpMix { get_fraction: 0.5 },
            ..WorkloadSpec::paper_default()
        },
        seed,
        ..SystemConfig::default()
    };
    cfg.rfp.window = 8;
    cfg
}

fn get95_light(seed: u64) -> SystemConfig {
    SystemConfig {
        think_time: SimSpan::micros(20),
        ..get95_peak(seed)
    }
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "get95_peak",
        window: SimSpan::millis(4),
        config: get95_peak,
    },
    Workload {
        name: "put50_pipelined",
        window: SimSpan::millis(8),
        config: put50_pipelined,
    },
    Workload {
        name: "get95_light",
        window: SimSpan::millis(11),
        config: get95_light,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| bad(&"unknown workload"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything the modelled cluster did in one window. Two runs of one
/// configuration must produce equal summaries.
#[derive(Debug, PartialEq)]
struct SimSummary {
    completed: u64,
    gets: u64,
    misses: u64,
    rejected: u64,
    mean_ns: u64,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    max_ns: u64,
    inbound_ops: u64,
    outbound_ops: u64,
    inbound_bytes: u64,
    outbound_bytes: u64,
    inbound_busy_ns: u64,
    outbound_busy_ns: u64,
    client_util_bits: u64,
    served_per_thread: Vec<u64>,
    calls: u64,
    fetch_attempts: u64,
    extra_reads: u64,
    mode_switches: u64,
    doorbells: u64,
    doorbell_reads: u64,
    single_reads: u64,
}

impl SimSummary {
    fn of(sys: &KvSystem) -> Self {
        let s = &sys.stats;
        let pct = |p| s.latency.percentile(p).map_or(0, SimSpan::as_nanos);
        let nic = sys.server_machine.nic();
        let counters = nic.counters();
        let mut sum = SimSummary {
            completed: s.completed.get(),
            gets: s.gets.get(),
            misses: s.misses.get(),
            rejected: s.rejected_busy.get() + s.rejected_shed.get(),
            mean_ns: s.latency.mean().map_or(0, SimSpan::as_nanos),
            p50_ns: pct(50.0),
            p99_ns: pct(99.0),
            p999_ns: pct(99.9),
            max_ns: s.latency.max().map_or(0, SimSpan::as_nanos),
            inbound_ops: counters.inbound_ops,
            outbound_ops: counters.outbound_ops,
            inbound_bytes: counters.inbound_bytes,
            outbound_bytes: counters.outbound_bytes,
            inbound_busy_ns: nic.inbound_busy().as_nanos(),
            outbound_busy_ns: nic.outbound_busy().as_nanos(),
            client_util_bits: sys.mean_client_utilization().to_bits(),
            served_per_thread: sys.served_per_thread(),
            calls: 0,
            fetch_attempts: 0,
            extra_reads: 0,
            mode_switches: 0,
            doorbells: 0,
            doorbell_reads: 0,
            single_reads: 0,
        };
        for c in &sys.rfp_clients {
            let st = c.stats();
            sum.calls += st.calls();
            sum.fetch_attempts += st
                .attempts_histogram()
                .iter()
                .map(|(&a, &n)| a as u64 * n)
                .sum::<u64>();
            sum.extra_reads += st.extra_reads();
            sum.mode_switches += st.switches_to_reply() + st.switches_to_fetch();
            sum.doorbells += st.doorbells();
            sum.doorbell_reads += st.doorbell_reads();
            sum.single_reads += st.single_reads();
        }
        sum
    }

    fn per_op(&self, n: u64) -> f64 {
        n as f64 / self.completed.max(1) as f64
    }
}

/// One timed repetition of the shipped system, untraced.
struct Rep {
    setup_s: f64,
    host_s: f64,
    allocs: u64,
    sim: SimSummary,
    /// Every call latency of the window, ns, sorted.
    latencies: Vec<u64>,
}

fn run_shipped(w: &Workload, cfg: &SystemConfig) -> Rep {
    let t0 = Instant::now();
    let mut sim = Simulation::new(cfg.seed);
    let sys = spawn_jakiro(&mut sim, cfg);
    sim.run_for(WARMUP);
    sys.reset_measurements();
    let setup_s = t0.elapsed().as_secs_f64();
    let a0 = alloc::count();
    let t1 = Instant::now();
    sim.run_for(w.window);
    let host_s = t1.elapsed().as_secs_f64();
    let allocs = alloc::count() - a0;
    let lat = &sys.stats.latency;
    Rep {
        setup_s,
        host_s,
        allocs,
        sim: SimSummary::of(&sys),
        latencies: lat
            .cdf(lat.len())
            .iter()
            .map(|(l, _)| l.as_nanos())
            .collect(),
    }
}

/// One run of the benchmark's rig over the same window.
struct RigRun {
    sim: SimSummary,
    host_s: f64,
    allocs: u64,
    server_util: f64,
    calls: u64,
    failed: u64,
    /// Distinct keys missed though preloaded, and evictions since the
    /// preload (see `Rig::unexplained_misses`).
    missed_keys: (u64, u64),
    spans: u64,
    span_errors: u64,
    phase_ns: [i64; 4],
    latency_ns: u64,
    totals: Totals,
    tracer: Option<Rc<Tracer>>,
}

fn run_rig(w: &Workload, cfg: &SystemConfig, traced: bool) -> RigRun {
    let tracer = traced.then(Tracer::new);
    let mut sim = Simulation::new(cfg.seed);
    let rig = rig::spawn(&mut sim, cfg, tracer.clone());
    sim.run_for(WARMUP);
    rig.reset_measurements();
    rig.checks.start();
    if let Some(t) = &tracer {
        t.start();
    }
    let a0 = alloc::count();
    let t1 = Instant::now();
    sim.run_for(w.window);
    let host_s = t1.elapsed().as_secs_f64();
    let allocs = alloc::count() - a0;
    rig.checks.stop();
    if let Some(t) = &tracer {
        t.stop();
    }
    let c = &rig.checks;
    let server_util = rig
        .server_threads
        .iter()
        .map(|t| t.utilization())
        .sum::<f64>()
        / rig.server_threads.len() as f64;
    RigRun {
        sim: SimSummary::of(&rig.sys),
        host_s,
        allocs,
        server_util,
        calls: c.calls.get(),
        failed: c.failed.get(),
        missed_keys: rig.unexplained_misses(),
        spans: c.spans.get(),
        span_errors: c.span_errors.get(),
        phase_ns: [0, 1, 2, 3].map(|i| c.phase_ns[i].get()),
        latency_ns: c.latency_ns.get(),
        totals: tracer.as_ref().map(|t| t.totals()).unwrap_or_default(),
        tracer,
    }
}

/// Median and quartiles, as Python's `statistics.quantiles(n=4)`
/// (exclusive method) gives them.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |i: usize| {
        let m = (i * (n + 1)) as f64 / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// The process's peak resident set, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Collected output: human-readable lines plus the metrics of the JSON
/// result line.
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    failures: Vec<String>,
    /// Print failed checks only.
    quiet: bool,
}

impl Report {
    /// Prints one metric; `json` puts it in the result line too.
    fn metric(&mut self, name: &str, value: f64, unit: &'static str, about: &str, json: bool) {
        println!("{name:<34} {value:>14.6} {unit:<6} {about}");
        if json {
            self.metrics.push((name.to_string(), value, unit));
        }
    }

    fn check(&mut self, ok: bool, what: String) {
        if !ok || !self.quiet {
            println!("check {:<4} {what}", if ok { "ok" } else { "FAIL" });
        }
        if !ok {
            self.failures.push(what);
        }
    }
}

/// The sim-time checks shared by every run: the rig reproduces the
/// shipped system, and every call it saw checked out.
fn check_rig(report: &mut Report, label: &str, shipped: &SimSummary, run: &RigRun) {
    report.check(
        run.sim == *shipped,
        format!(
            "{label}: completed ops, NIC counters and latency percentiles equal spawn_jakiro's"
        ),
    );
    report.check(
        run.failed == 0 && run.sim.rejected == 0,
        format!(
            "{label}: {} of {} responses rejected, undecodable or wrong",
            run.failed, run.calls
        ),
    );
    let (missed, evictions) = run.missed_keys;
    report.check(
        missed <= evictions,
        format!(
            "{label}: {} GET misses; {missed} distinct keys missed though preloaded, \
             within {evictions} evictions since the preload",
            run.sim.misses
        ),
    );
    report.check(
        run.spans == run.calls && run.calls == run.sim.completed,
        format!(
            "{label}: spans recorded {} vs calls completed {}",
            run.spans, run.calls
        ),
    );
    report.check(
        run.span_errors == 0 && run.phase_ns.iter().sum::<i64>() == run.latency_ns as i64,
        format!(
            "{label}: write + ring_wait + handler + fetch = latency for every call ({} bad spans)",
            run.span_errors
        ),
    );
}

/// The `SEEDS` system seeds of one benchmark seed. The first is the
/// benchmark seed itself, so that window matches `explore --seed`.
fn sub_seeds(seed: u64) -> [u64; SEEDS] {
    std::array::from_fn(|j| {
        if j == 0 {
            seed
        } else {
            derive_seed(seed, j as u64)
        }
    })
}

/// Nearest-rank percentile of sorted samples, as `Histogram::percentile`.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn untraced(args: &Args, report: &mut Report) -> (u64, u64) {
    let w = args.workload;
    let cfgs = sub_seeds(args.seed).map(w.config);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut samples: Vec<u64> = Vec::new();
    let mut rss_mb = 0.0;
    while reps.len() < SEEDS || start.elapsed().as_secs_f64() < args.seconds {
        let rep = run_shipped(w, &cfgs[reps.len() % SEEDS]);
        if reps.len() < SEEDS {
            samples.extend(rep.latencies.iter());
        }
        reps.push(rep);
        // Read once the fixed work (one window per seed) is done, so the
        // figure does not depend on how many repetitions fit the run.
        if reps.len() == SEEDS {
            rss_mb = peak_rss_mb();
        }
    }
    let deterministic = reps
        .iter()
        .enumerate()
        .all(|(i, r)| r.sim == reps[i % SEEDS].sim);
    let windows = &reps[..SEEDS];
    let first = &windows[0].sim;
    let completed: u64 = windows.iter().map(|r| r.sim.completed).sum();
    let rejected: u64 = windows.iter().map(|r| r.sim.rejected).sum();
    let misses: u64 = windows.iter().map(|r| r.sim.misses).sum();
    let gets: u64 = windows.iter().map(|r| r.sim.gets).sum();
    samples.sort_unstable();
    let secs = w.window.as_secs_f64();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let speeds: Vec<f64> = reps
        .iter()
        .map(|r| r.sim.completed as f64 / r.host_s)
        .collect();
    let (s1, s2, s3) = quartiles(&speeds);
    let (u1, u2, u3) = quartiles(&setups);
    let run = run_rig(w, &cfgs[0], false);
    let failed = run.failed + rejected;
    let attempted = completed + rejected;

    println!(
        "# {} seed {}: {SEEDS} windows of {} ms sim (after {} ms warm-up each), one per \
         system seed, {completed} calls; {} timed repetitions",
        w.name,
        args.seed,
        secs * 1e3,
        WARMUP.as_secs_f64() * 1e3,
        reps.len(),
    );
    let us = |ns: u64| ns as f64 / 1e3;
    let mops = completed as f64 / (secs * SEEDS as f64) / 1e6;
    let mean_us = samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1e3;
    report.metric(
        "mops",
        mops,
        "Mops",
        "[sim] completed ops per simulated second",
        true,
    );
    report.metric("mean_us", mean_us, "us", "[sim] mean call latency", true);
    report.metric(
        "p50_us",
        us(percentile(&samples, 50.0)),
        "us",
        "[sim] call latency p50",
        false,
    );
    report.metric(
        "p99_us",
        us(percentile(&samples, 99.0)),
        "us",
        "[sim] call latency p99",
        true,
    );
    report.metric(
        "p999_us",
        us(percentile(&samples, 99.9)),
        "us",
        &format!("[sim] call latency p99.9 over {} calls", samples.len()),
        true,
    );
    report.metric(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        "[sim] rejected, undecodable or wrong responses per call",
        false,
    );
    report.metric(
        "sim_ops_per_host_s",
        s2,
        "1/s",
        &format!(
            "[host] median of {} repetitions, quartiles {s1:.0} .. {s3:.0}",
            reps.len()
        ),
        true,
    );
    report.metric(
        "setup_s",
        u2,
        "s",
        &format!("[host] build + preload + warm-up, median, quartiles {u1:.4} .. {u3:.4}"),
        true,
    );
    report.metric(
        "peak_rss_mb",
        rss_mb,
        "MiB",
        &format!("[host] process VmHWM after the {SEEDS} seeds' windows"),
        true,
    );
    println!(
        "GET misses {misses} of {gets} ({:.4}%): keys the store's 8-slot LRU buckets evicted",
        misses as f64 / gets.max(1) as f64 * 100.0
    );
    let same_as = if w.name == "get95_peak" {
        format!(
            " (= explore --system jakiro --keys 20000 --window-ms {} --seed {})",
            secs * 1e3,
            args.seed
        )
    } else {
        String::new()
    };
    println!(
        "first window alone{same_as}: {:.4} Mops, p50 {:.3} us, p99 {:.3} us, mean {:.3} us",
        first.completed as f64 / secs / 1e6,
        us(first.p50_ns),
        us(first.p99_ns),
        us(first.mean_ns),
    );
    if w.name == "get95_peak" {
        let model = |name: &str, ours: f64, paper: f64, source: &str| {
            println!(
                "model error  {name:<24} {ours:>9.3} vs paper {paper:>7.3} ({:+.1}%, {source})",
                (ours / paper - 1.0) * 100.0
            );
        };
        model("mops", mops, 5.5, "Fig 10, 35 clients");
        model("mean latency us", mean_us, 5.78, "Fig 13");
        let inbound: u64 = windows.iter().map(|r| r.sim.inbound_ops).sum();
        model(
            "rnic.inbound_ops_per_op",
            inbound as f64 / completed as f64,
            2.005,
            "§4.3",
        );
    } else {
        println!("model error  unvalidated (the paper reports no figure for this workload)");
    }
    report.check(
        deterministic,
        format!(
            "{} repetitions over {SEEDS} seeds: each seed's sim results repeat exactly",
            reps.len()
        ),
    );
    check_rig(report, "checking rig", first, &run);
    (attempted, failed)
}

fn traced(args: &Args, report: &mut Report) -> (u64, u64) {
    let w = args.workload;
    let cfg = &(w.config)(args.seed);
    let start = Instant::now();
    let base = run_shipped(w, cfg);
    let mut runs: Vec<RigRun> = Vec::new();
    while runs.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        // Keep only the latest run's spans (written out below); earlier
        // runs keep their totals.
        if let Some(prev) = runs.last_mut() {
            prev.tracer = None;
        }
        runs.push(run_rig(w, cfg, true));
    }
    let sim = &base.sim;
    let ops = sim.completed.max(1) as f64;
    let secs = w.window.as_secs_f64();
    let a = &runs[0];
    let counts = |r: &RigRun| {
        (
            r.totals.count(Kind::ClientPoll),
            r.totals.count(Kind::ServerPoll),
            r.allocs,
            r.sim.inbound_ops,
            r.sim.outbound_ops,
        )
    };
    let median = |f: &dyn Fn(&RigRun) -> f64| quartiles(&runs.iter().map(f).collect::<Vec<_>>()).1;
    let per_op = |ns: u64| ns as f64 / ops;
    let t = |r: &RigRun, k: Kind| r.totals.ns(k);

    println!(
        "# {} seed {}: 1 untraced and {} traced runs of {} ms sim; {} calls per run",
        w.name,
        args.seed,
        runs.len(),
        secs * 1e3,
        sim.completed
    );
    let pipelined_reads = sim.doorbell_reads + sim.single_reads;
    let phase_us = |i: usize| a.phase_ns[i] as f64 / a.calls.max(1) as f64 / 1e3;
    let util = |busy_ns: u64| busy_ns as f64 / w.window.as_nanos() as f64;
    let rows: [(&str, f64, &'static str, &str); 25] = [
        (
            "workload.host_ns_per_op",
            median(&|r| per_op(t(r, Kind::NextOp))),
            "ns",
            "[host] Generator::next_op",
        ),
        (
            "kvstore.host_ns_per_op",
            median(&|r| per_op(t(r, Kind::KvCodec) + t(r, Kind::KvHandler))),
            "ns",
            "[host] server handler + client request encode / response decode",
        ),
        (
            "kvstore.get_hit_frac",
            (sim.gets - sim.misses) as f64 / sim.gets.max(1) as f64,
            "ratio",
            "[sim] GETs that found their preloaded key",
        ),
        (
            "core.client.host_ns_per_op",
            median(&|r| {
                per_op(
                    t(r, Kind::ClientPoll)
                        - t(r, Kind::NextOp)
                        - t(r, Kind::KvCodec)
                        - t(r, Kind::Check),
                )
            }),
            "ns",
            "[host] client future polls, self time",
        ),
        (
            "core.client.polls_per_op",
            a.totals.count(Kind::ClientPoll) as f64 / ops,
            "count",
            "[host] client future polls per call",
        ),
        (
            "core.client.cpu_util",
            f64::from_bits(sim.client_util_bits),
            "ratio",
            "[sim] mean client thread busy share",
        ),
        (
            "core.client.fetch_attempts_per_call",
            sim.fetch_attempts as f64 / sim.calls.max(1) as f64,
            "count",
            "[sim] remote-fetch READs per call (the paper's N)",
        ),
        (
            "core.client.extra_read_frac",
            sim.extra_reads as f64 / sim.calls.max(1) as f64,
            "ratio",
            "[sim] calls needing a second READ (response > F)",
        ),
        (
            "core.client.reads_per_doorbell",
            if pipelined_reads == 0 {
                1.0
            } else {
                pipelined_reads as f64 / (sim.doorbells + sim.single_reads) as f64
            },
            "count",
            "[sim] pipelined fetch READs per doorbell ring (1 when sequential)",
        ),
        (
            "core.client.mode_switches",
            sim.mode_switches as f64,
            "count",
            "[sim] switches between remote fetch and server reply",
        ),
        (
            "core.reactor.host_ns_per_op",
            median(&|r| per_op(t(r, Kind::ServerPoll) - t(r, Kind::KvHandler))),
            "ns",
            "[host] server-core future polls, self time",
        ),
        (
            "core.reactor.polls_per_op",
            a.totals.count(Kind::ServerPoll) as f64 / ops,
            "count",
            "[host] server-core future polls per call",
        ),
        (
            "core.reactor.cpu_util",
            a.server_util,
            "ratio",
            "[sim] mean server thread busy share",
        ),
        (
            "core.reactor.ring_wait_us",
            phase_us(1),
            "us",
            "[sim] span phase request_written -> server_dequeued",
        ),
        (
            "core.reactor.handler_us",
            phase_us(2),
            "us",
            "[sim] span phase server_dequeued -> response_posted",
        ),
        (
            "rnic.inbound_ops_per_op",
            sim.per_op(sim.inbound_ops),
            "count",
            "[sim] server in-bound one-sided ops per call",
        ),
        (
            "rnic.outbound_ops_per_op",
            sim.per_op(sim.outbound_ops),
            "count",
            "[sim] server out-bound one-sided ops per call",
        ),
        (
            "rnic.inbound_bytes_per_op",
            sim.per_op(sim.inbound_bytes),
            "B",
            "[sim] server in-bound payload bytes per call",
        ),
        (
            "rnic.inbound_util",
            util(sim.inbound_busy_ns),
            "ratio",
            "[sim] server NIC in-bound engine busy share",
        ),
        (
            "rnic.outbound_util",
            util(sim.outbound_busy_ns),
            "ratio",
            "[sim] server NIC out-bound engine busy share",
        ),
        (
            "rnic.write_us",
            phase_us(0),
            "us",
            "[sim] span phase issue -> request_written",
        ),
        (
            "rnic.fetch_us",
            phase_us(3),
            "us",
            "[sim] span phase response_posted -> completed (retries included)",
        ),
        (
            "simnet.host_residual_frac",
            median(&|r| {
                let polls = (t(r, Kind::ClientPoll) + t(r, Kind::ServerPoll)) as f64 / 1e9;
                1.0 - polls / r.host_s
            }),
            "ratio",
            "[host] window time outside every wrapped poll (executor, timers, NIC tasks)",
        ),
        (
            "simnet.allocs_per_op",
            base.allocs as f64 / ops,
            "count",
            "[host] heap allocations per call, untraced",
        ),
        (
            "bench.trace_overhead_frac",
            median(&|r| r.host_s / base.host_s - 1.0),
            "ratio",
            "[host] extra host time of a traced window over the untraced one",
        ),
    ];
    for (name, value, unit, about) in rows {
        report.metric(name, value, unit, about, true);
    }
    println!(
        "phases us: write {:.4} + ring_wait {:.4} + handler {:.4} + fetch {:.4} = mean latency {:.4}",
        phase_us(0),
        phase_us(1),
        phase_us(2),
        phase_us(3),
        a.latency_ns as f64 / a.calls.max(1) as f64 / 1e3
    );

    // Every run is checked alike; passing checks print for the first.
    for (i, r) in runs.iter().enumerate() {
        report.quiet = i > 0;
        check_rig(report, &format!("traced run {}", i + 1), sim, r);
    }
    report.quiet = false;
    report.check(
        runs.iter().all(|r| counts(r) == counts(a)),
        format!(
            "{} traced runs: identical (client polls, server polls, allocs, in-bound ops, \
             out-bound ops) {:?}",
            runs.len(),
            counts(a)
        ),
    );
    let last = runs.last().expect("at least two traced runs");
    if let Some(tr) = &last.tracer {
        let path = Path::new("perfbench/out").join(format!("{}.spans", w.name));
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| File::create(&path))
            .and_then(|f| {
                let mut out = BufWriter::new(f);
                tr.write(&mut out)?;
                std::io::Write::flush(&mut out)
            });
        match written {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => report.check(false, format!("writing {}: {e}", path.display())),
        }
    }
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let attempted: u64 = runs.iter().map(|r| r.calls).sum();
    (attempted, failed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report {
        metrics: Vec::new(),
        failures: Vec::new(),
        quiet: false,
    };
    let (attempted, failed) = if args.trace {
        traced(&args, &mut report)
    } else {
        untraced(&args, &mut report)
    };
    let correct = report.failures.is_empty() && failed == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
