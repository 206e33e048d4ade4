//! The traced run: per-layer metrics.
//!
//! Every number is taken from outside the program — by timing calls into
//! a layer's public functions, and by reading what the program already
//! exports (`RunReport` counters and the registry at
//! `ObsLevel::Metrics`, `/metrics`, the span trees at
//! `/debug/trace/<id>`, the campaign journals). Each traced run measures
//! every layer on its workload's own inputs:
//!
//! * the simulator layers on the workload's simulation grid (the Table II
//!   grid, or the grids the service's fills of the workload's keys run),
//!   with the layer costs replayed standalone on the grid's own op
//!   streams;
//! * the service layers on a server that fills the workload's keys with
//!   traced requests and then answers traced warm traffic;
//! * the journal, fit and request-handling paths in-process, on the
//!   journal that server wrote.

use crate::http::{self, Client};
use crate::serve::{self, Key, SWEEP_CLASS, WARM_PREDICT, WARM_SWEEP};
use crate::server::{Server, CONTROL_TIMEOUT};
use crate::sim::{self, Config, GridRun, JOBS};
use crate::spans;
use crate::stats::median;
use crate::Report;
use offchip_bench::campaign::{Campaign, CampaignOptions};
use offchip_cache::{AccessKind, Hierarchy};
use offchip_dram::fcfs::{FcfsController, McConfig};
use offchip_dram::{EnqueueResult, McModel, Request};
use offchip_machine::{Op, Workload};
use offchip_model::{fit_robust_from_sweep, validate, FitProtocol, RobustOptions};
use offchip_obs::ObsLevel;
use offchip_simcore::{CalendarQueue, EventSched, Rng, SimTime};
use offchip_topology::allocation::{self, AllocationPolicy};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Length of each warm probe phase (untraced, then traced).
const PROBE: Duration = Duration::from_secs(2);

/// Traced closed-loop requests whose span trees are fetched.
const SPAN_SAMPLES: usize = 600;

/// Traced fresh-connection requests whose span trees are fetched.
const FRESH_SAMPLES: usize = 100;

/// Ops pulled per thread per round when interleaving threads for the
/// cache replay.
const CHUNK: usize = 64;

/// Ops per replay block.
const BLOCK: usize = 1 << 18;

/// Trace-id ranges of the traced run's request groups.
const TRACE_COLD_A: u64 = 0xA000_0000_0000_0000;
const TRACE_COLD_B: u64 = 0xB000_0000_0000_0000;
const TRACE_WARM: u64 = 0xC000_0000_0000_0000;
const TRACE_SPANS: u64 = 0xD000_0000_0000_0000;
const TRACE_FRESH: u64 = 0xE000_0000_0000_0000;

/// The traced run of `workload`.
pub fn traced(workload: &str, seed: u64, work: &Path, report: &mut Report) -> Result<(), String> {
    let warm_keys = || {
        [WARM_PREDICT, WARM_SWEEP]
            .iter()
            .map(|&(machine, program)| Key {
                machine,
                program: program.to_string(),
                n: 1,
            })
            .collect::<Vec<Key>>()
    };
    let fill_configs = |keys: &[Key]| {
        keys.iter()
            .map(|k| sim::fill_config(k.machine, &k.program))
            .collect()
    };
    let (configs, seeds, keys): (Vec<Config>, Vec<u64>, Vec<Key>) = match workload {
        "sim-contended" => (sim::contended_grid(), sim::sim_seeds(seed), warm_keys()),
        "serve-cold" => {
            let keys = serve::cold_keys(seed);
            (fill_configs(&keys), offchip_bench::seeds(), keys)
        }
        _ => {
            let keys = warm_keys();
            (fill_configs(&keys), offchip_bench::seeds(), keys)
        }
    };
    sim_layers(&configs, &seeds, report)?;
    let journal = work.join("journal");
    std::fs::create_dir_all(&journal).map_err(|e| format!("{}: {e}", journal.display()))?;
    serve_layers(&keys, seed, &journal, report)?;
    offline_layers(&keys, &journal, work, report)
}

/// Standalone costs of one replayed run.
#[derive(Default)]
struct Walk {
    accesses: u64,
    llc_misses: u64,
    cache: Duration,
    dram_calls: u64,
    dram: Duration,
    events: u64,
    sched: Duration,
}

/// The simulator's per-thread stream seed (`sim.rs`, `run_lane`).
fn thread_seed(seed: u64, thread: usize) -> u64 {
    seed ^ (thread as u64).wrapping_mul(0x9E37_79B9)
}

/// Iterates every thread's whole op stream: the number of `next_op`
/// calls the simulator makes for one run, and their host time.
fn drain_ops(w: &dyn Workload, seed: u64) -> (u64, Duration) {
    let (mut ops, mut time) = (0u64, Duration::ZERO);
    for t in 0..w.n_threads() {
        let mut p = w.thread_program(t, thread_seed(seed, t));
        let t0 = Instant::now();
        while let Some(op) = p.next_op() {
            black_box(op);
            ops += 1;
        }
        time += t0.elapsed();
    }
    (ops, time)
}

/// Replays one run's op streams through a fresh cache hierarchy, its
/// misses and write-backs through FCFS controllers (arriving `gap`
/// cycles apart), and one scheduler event per op through a calendar
/// queue holding one pending event per active core. Each layer is timed
/// on its own, block by block.
fn replay_walk(cfg: &Config, w: &dyn Workload, n: usize, seed: u64, gap: u64) -> Walk {
    let m = &cfg.machine;
    let placement = allocation::place(m, AllocationPolicy::FillProcessorFirst, w.n_threads(), n);
    let mut progs: Vec<_> = (0..w.n_threads())
        .map(|t| {
            (
                placement.thread_core[t],
                Some(w.thread_program(t, thread_seed(seed, t))),
            )
        })
        .collect();
    let mut hier = Hierarchy::new(m);
    let mc_cfg = McConfig::from_spec(&m.dram, m.line_bytes());
    let mut mcs: Vec<FcfsController> = (0..m.total_mcs())
        .map(|_| FcfsController::new(mc_cfg))
        .collect();
    let miss_delay = mc_cfg.row_miss_cycles + mc_cfg.transfer_cycles;
    let line_mask = !(u64::from(m.line_bytes()) - 1);
    let mut queue: CalendarQueue<u32> = CalendarQueue::new();
    for slot in 0..n as u32 {
        queue.schedule_at(SimTime::ZERO, slot);
    }
    let mut walk = Walk::default();
    let (mut block, mut delays, mut memory) = (Vec::with_capacity(BLOCK), Vec::new(), Vec::new());
    let (mut clock, mut next_id) = (0u64, 0u64);
    loop {
        block.clear();
        while block.len() < BLOCK && progs.iter().any(|(_, p)| p.is_some()) {
            for (core, prog) in progs.iter_mut() {
                let Some(p) = prog else { continue };
                for _ in 0..CHUNK {
                    match p.next_op() {
                        Some(op) => block.push((*core, op)),
                        None => {
                            *prog = None;
                            break;
                        }
                    }
                }
            }
        }
        if block.is_empty() {
            return walk;
        }

        delays.clear();
        memory.clear();
        let t0 = Instant::now();
        for &(core, op) in &block {
            let delay = match op {
                Op::Access { addr, write, .. } => {
                    walk.accesses += 1;
                    let kind = if write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    let out = hier.access(core, addr, kind);
                    if out.is_llc_miss() {
                        walk.llc_misses += 1;
                        memory.push((addr & line_mask, false));
                        if let Some(victim) = out.llc_writeback {
                            memory.push((victim, true));
                        }
                        miss_delay
                    } else {
                        out.lookup_cycles.max(1)
                    }
                }
                Op::Compute { cycles, .. } => cycles.max(1),
                Op::Barrier => 1,
            };
            delays.push(delay);
        }
        walk.cache += t0.elapsed();

        let t0 = Instant::now();
        for &(line, is_write) in &memory {
            clock += gap;
            let mc = ((line >> 12) % mcs.len() as u64) as usize;
            let req = Request {
                id: next_id,
                line_addr: line,
                is_write,
                network_latency: 0,
            };
            next_id += 1;
            walk.dram_calls += 1;
            if let EnqueueResult::Deferred(Some(at)) = mcs[mc].enqueue(SimTime(clock), req) {
                walk.dram_calls += 1;
                black_box(mcs[mc].wake(at));
            }
        }
        walk.dram += t0.elapsed();

        let t0 = Instant::now();
        for &d in &delays {
            let (t, slot) = queue.pop().expect("one pending event per core");
            queue.schedule_at(SimTime(t.cycles() + d), slot);
        }
        walk.events += delays.len() as u64;
        walk.sched += t0.elapsed();
    }
}

fn ns_per(time: Duration, calls: u64) -> f64 {
    time.as_secs_f64() * 1e9 / calls.max(1) as f64
}

/// Simulator layers: the grid at `ObsLevel::Metrics` for exact in-sim
/// counts and busy time, then standalone replays for per-call costs.
fn sim_layers(configs: &[Config], seeds: &[u64], report: &mut Report) -> Result<(), String> {
    let workloads = sim::build(configs);
    let reg = offchip_obs::registry();
    reg.reset();
    offchip_obs::set_level(ObsLevel::Metrics);
    let grid: GridRun = sim::run_grid(configs, &workloads, seeds, JOBS);
    offchip_obs::set_level(ObsLevel::Off);
    report.attempted += grid.lanes.len() as u64;
    report.failed += sim::check_lanes(configs, &grid.lanes, report) as u64;
    let runs: Vec<_> = grid
        .lanes
        .iter()
        .filter_map(|l| Some((l, l.report.as_ref().ok()?)))
        .collect();
    let sum = |f: fn(&offchip_machine::Counters) -> u64| {
        runs.iter().map(|(_, r)| f(&r.counters)).sum::<u64>()
    };
    let events = sum(|c| c.sim_events);
    let accesses = reg.counter("cache.l1.accesses");
    let issued = sum(|c| c.read_requests + c.write_requests + c.prefetch_requests);
    let mc = |f: fn(&offchip_dram::McStats) -> u64| {
        runs.iter()
            .flat_map(|(_, r)| &r.mc_stats)
            .map(f)
            .sum::<u64>()
    };
    let busy = grid.lanes.iter().map(|l| l.run).sum::<Duration>();
    let busy_ns = busy.as_secs_f64() * 1e9;

    // npb: every stream of every (config, seed), as often as the grid ran it.
    let (mut ops, mut op_time, mut ops_iterated) = (0u64, Duration::ZERO, 0u64);
    for (c, w) in configs.iter().zip(&workloads) {
        for &seed in seeds {
            let (n, t) = drain_ops(w.as_ref(), seed);
            ops += n * c.ns.len() as u64;
            ops_iterated += n;
            op_time += t;
        }
    }
    let next_op_ns = ns_per(op_time, ops_iterated);

    // cache, dram, simcore: one replay per config, at its largest n and
    // first seed, against that run's in-sim miss count.
    let mut total = Walk::default();
    let (mut replayed_misses, mut sim_misses) = (0u64, 0u64);
    for (c, (cfg, w)) in configs.iter().zip(&workloads).enumerate() {
        let n = *cfg.ns.last().expect("configs have core counts");
        let Some((_, r)) = runs
            .iter()
            .find(|(l, _)| l.config == c && l.n == n && l.seed == seeds[0])
        else {
            continue;
        };
        let requests = (r.counters.read_requests + r.counters.write_requests).max(1);
        let walk = replay_walk(
            cfg,
            w.as_ref(),
            n,
            seeds[0],
            (r.makespan.cycles() / requests).max(1),
        );
        replayed_misses += walk.llc_misses;
        sim_misses += r.counters.llc_misses;
        total.accesses += walk.accesses;
        total.cache += walk.cache;
        total.dram_calls += walk.dram_calls;
        total.dram += walk.dram;
        total.events += walk.events;
        total.sched += walk.sched;
    }
    let access_ns = ns_per(total.cache, total.accesses);
    let call_ns = ns_per(total.dram, total.dram_calls);
    let event_ns = ns_per(total.sched, total.events);

    let shares = [
        ("npb.share", next_op_ns * ops as f64 / busy_ns),
        ("cache.share", access_ns * accesses as f64 / busy_ns),
        ("dram.share", call_ns * mc(|s| s.requests) as f64 / busy_ns),
        ("simcore.share", event_ns * events as f64 / busy_ns),
    ];
    // Glue is what the replayed layers leave of the busy time; a layer
    // replay that costs more than the whole simulation did shows up as
    // negative glue.
    let glue = 1.0 - shares.iter().map(|(_, s)| s).sum::<f64>();
    if shares.iter().any(|&(_, s)| !(0.0..=1.0).contains(&s)) || !(0.0..=1.0).contains(&glue) {
        report.fail(&format!(
            "simulator layer shares do not partition the busy time: {shares:?}, glue {glue}"
        ));
    }
    report.note(&format!(
        "simulator: {} runs, busy {:.2} s, wall {:.2} s; shares {shares:?}, glue {glue:.3}",
        runs.len(),
        busy.as_secs_f64(),
        grid.wall.as_secs_f64()
    ));

    let setup_ms: Vec<f64> = grid
        .point_setup
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let queue_wait = reg
        .histogram("dram.queue_wait_cycles")
        .map_or(0.0, |h| h.mean());
    report.metric("npb.ops", ops as f64, "count");
    report.metric("npb.next_op_ns", next_op_ns, "ns");
    report.metric("cache.accesses", accesses as f64, "count");
    report.metric(
        "cache.llc_miss_ratio",
        sum(|c| c.llc_misses) as f64 / sum(|c| c.llc_accesses).max(1) as f64,
        "ratio",
    );
    report.metric("cache.access_ns", access_ns, "ns");
    report.metric(
        "cache.replay_fidelity",
        replayed_misses as f64 / sim_misses.max(1) as f64,
        "ratio",
    );
    report.metric("dram.requests", mc(|s| s.requests) as f64, "count");
    report.metric(
        "dram.row_hit_ratio",
        mc(|s| s.row_hits) as f64 / mc(|s| s.requests).max(1) as f64,
        "ratio",
    );
    report.metric("dram.queue_wait_cycles_mean", queue_wait, "cycles");
    report.metric("dram.call_ns", call_ns, "ns");
    report.metric(
        "topology.remote_ratio",
        sum(|c| c.remote_requests) as f64 / issued.max(1) as f64,
        "ratio",
    );
    report.metric("simcore.events", events as f64, "count");
    report.metric("simcore.event_ns", event_ns, "ns");
    for (name, share) in shares {
        report.metric(name, share, "ratio");
    }
    report.metric(
        "machine.events_per_s",
        events as f64 / busy.as_secs_f64(),
        "1/s",
    );
    report.metric("machine.setup_ms", median(&setup_ms), "ms");
    report.metric("machine.glue_share", glue, "ratio");
    report.metric(
        "machine.mem_stall_share",
        sum(|c| c.mem_stall_cycles) as f64 / sum(|c| c.total_cycles).max(1) as f64,
        "ratio",
    );
    report.metric(
        "pool.busy_ratio",
        grid.busy().as_secs_f64() / (grid.wall.as_secs_f64() * JOBS as f64),
        "ratio",
    );
    Ok(())
}

/// Fetches and parses one trace tree.
fn fetch_trace(c: &mut Client, id: u64) -> Result<Vec<spans::Span>, String> {
    let r = c.call(&http::request(
        "GET",
        &format!("/debug/trace/{id:016x}"),
        "",
        None,
        false,
    ))?;
    if r.status != 200 {
        return Err(format!("trace {id:016x} answered {}", r.status));
    }
    spans::parse_tree(&String::from_utf8_lossy(&r.body))
}

/// Self times (µs) of the spans named `name` in `tree`.
fn self_of(tree: &[spans::Span], name: &str) -> Vec<f64> {
    let own = spans::self_times(tree);
    tree.iter()
        .zip(own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| t as f64)
        .collect()
}

/// Service layers: traced fills of `keys` by two clients, then traced
/// warm traffic, read back from the span trees and `/metrics`.
fn serve_layers(
    keys: &[Key],
    seed: u64,
    journal: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let mut rng = Rng::new(sim::splitmix(seed ^ 0x7ACE));
    let server = Server::start(journal, JOBS)?;

    // Cold: both clients ask every key with tracing on.
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(|| serve::ask_all(&server, keys, Some(TRACE_COLD_B)));
        let mine = serve::ask_all(&server, keys, Some(TRACE_COLD_A));
        (mine, other.join().expect("cold client panicked"))
    });
    for (x, y) in a.iter().zip(&b) {
        report.attempted += 2;
        match (&x.response, &y.response) {
            (Ok(p), Ok(q)) if p.status == 200 && p.body == q.body => {}
            _ => report.failed += 2,
        }
    }
    let mut tc = Client::connect(server.addr, CONTROL_TIMEOUT)?;
    let (mut fill_ms, mut point_ms, mut coalesced, mut waited) =
        (Vec::new(), Vec::new(), 0u32, 0u32);
    for i in 0..keys.len() as u64 {
        for base in [TRACE_COLD_A, TRACE_COLD_B] {
            for s in fetch_trace(&mut tc, base + i)? {
                match s.name.as_str() {
                    "fill" => fill_ms.push(s.dur_us as f64 / 1e3),
                    "sim.point" => point_ms.push(s.dur_us as f64 / 1e3),
                    "fill.wait" => {
                        waited += 1;
                        // A coalesced waiter's wait reports its disposition as `hit`;
                        // a true hit records `cache.hit` instead.
                        coalesced += u32::from(s.detail.contains("disposition=hit"));
                    }
                    _ => {}
                }
            }
        }
    }
    if fill_ms.is_empty() || point_ms.is_empty() {
        return Err("no fill or sim.point span in the cold traces".into());
    }

    // Warm: untraced then traced fixed-rate traffic.
    let refs = serve::warm_up(&server)?;
    let reqs = serve::warm_requests();
    let before = server.counters()?;
    let plain = serve::fixed_rate(&server, &mut rng, PROBE, &reqs, None, &refs);
    let traced = serve::fixed_rate(&server, &mut rng, PROBE, &reqs, Some(TRACE_WARM), &refs);
    let after = server.counters()?;
    for t in [&plain, &traced] {
        report.attempted += (t.keep_alive.attempted + t.fresh.attempted) as u64;
        report.failed += (t.keep_alive.failed + t.fresh.failed) as u64;
    }
    let predict = |t: &serve::WarmTraffic| median(&t.keep_alive.latencies(|c| c != SWEEP_CLASS));

    // Span trees of closed-loop keep-alive requests.
    let mut kc = Client::connect(server.addr, CONTROL_TIMEOUT)?;
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut keep_alive_us, mut sum_mismatch) = (Vec::new(), 0usize);
    for j in 0..SPAN_SAMPLES {
        let class = if j % 10 == 9 {
            SWEEP_CLASS
        } else {
            rng.next_below(SWEEP_CLASS as u64) as usize
        };
        let id = TRACE_SPANS + j as u64;
        let t0 = Instant::now();
        let r = kc.call(&http::with_trace(&reqs[class], id))?;
        let us = t0.elapsed().as_secs_f64() * 1e6;
        report.attempted += 1;
        if r.status != 200 || r.body != refs[class] {
            report.failed += 1;
            continue;
        }
        let tree = fetch_trace(&mut tc, id)?;
        let handle = if class == SWEEP_CLASS {
            "handle.sweep"
        } else {
            "handle.predict"
        };
        if class != SWEEP_CLASS {
            keep_alive_us.push(us);
        }
        by_name
            .entry(handle)
            .or_default()
            .extend(self_of(&tree, "request"));
        by_name
            .entry("parse")
            .or_default()
            .extend(self_of(&tree, "http.parse"));
        by_name
            .entry("write")
            .or_default()
            .extend(self_of(&tree, "response.write"));
        let (sum, root) = spans::self_time_sum_vs_root(&tree).ok_or("trace without a root")?;
        if sum.abs_diff(root) > tree.len() as u64 {
            sum_mismatch += 1;
        }
    }
    if sum_mismatch * 20 > SPAN_SAMPLES {
        report.fail(&format!(
            "span self times did not sum to the request span in {sum_mismatch} of {SPAN_SAMPLES} traces"
        ));
    }

    // Span trees of fresh-connection requests, at seeded gaps so the
    // accept loop's polling phase is sampled evenly.
    let fresh_req = http::request(
        "POST",
        "/predict",
        &http::predict_body(WARM_PREDICT.0, WARM_PREDICT.1, 1),
        None,
        true,
    );
    let mut fresh_us = Vec::new();
    for j in 0..FRESH_SAMPLES {
        std::thread::sleep(Duration::from_micros(rng.next_below(25_000)));
        let id = TRACE_FRESH + j as u64;
        let t0 = Instant::now();
        report.attempted += 1;
        match http::fresh_call(
            server.addr,
            &http::with_trace(&fresh_req, id),
            CONTROL_TIMEOUT,
        ) {
            Ok(r) if r.status == 200 && r.body == refs[0] => {
                fresh_us.push(t0.elapsed().as_secs_f64() * 1e6);
                let tree = fetch_trace(&mut tc, id)?;
                by_name
                    .entry("queue.wait")
                    .or_default()
                    .extend(self_of(&tree, "queue.wait"));
            }
            _ => report.failed += 1,
        }
    }
    server.stop()?;

    let med = |name: &str| {
        by_name
            .get(name)
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
    };
    let med = |name: &str| med(name).ok_or_else(|| format!("no {name} spans"));
    report.metric("serve.fill_ms", median(&fill_ms), "ms");
    report.metric("serve.sim_point_ms", median(&point_ms), "ms");
    report.metric(
        "serve.coalesced_ratio",
        f64::from(coalesced) / f64::from(waited.max(1)),
        "ratio",
    );
    report.metric(
        "serve.accept_us",
        median(&fresh_us) - median(&keep_alive_us),
        "us",
    );
    report.metric("serve.parse_us", med("parse")?, "us");
    report.metric("serve.queue_wait_us", med("queue.wait")?, "us");
    report.metric("serve.handle_us.predict", med("handle.predict")?, "us");
    report.metric("serve.handle_us.sweep", med("handle.sweep")?, "us");
    report.metric("serve.write_us", med("write")?, "us");
    report.metric(
        "serve.cache_hit_ratio",
        serve::hit_ratio(&before, &after),
        "ratio",
    );
    let late = offchip_stats::Summary::new(&plain.keep_alive.lateness_us)
        .percentile(99.0)
        .ok_or("no generator lateness samples")?;
    report.metric("serve.gen_late_us_p99", late, "us");
    report.metric(
        "serve.trace_overhead_us",
        predict(&traced) - predict(&plain),
        "us",
    );
    report.metric(
        "client.sweep_p50_us",
        median(&plain.keep_alive.latencies(|c| c == SWEEP_CLASS)),
        "us",
    );
    report.metric("client.fresh_p50_us", median(&plain.fresh.latency_us), "us");
    Ok(())
}

/// Journal, replay, fit and request-handling costs, in-process, on the
/// journal the traced server wrote.
fn offline_layers(
    keys: &[Key],
    journal: &Path,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    // Journal appends: every recorded record again, fsync'd, into a
    // scratch journal.
    let lines = serve::journal_lines(journal)?;
    let probe = work.join("append-probe.journal");
    let mut file = offchip_json::atomic::open_append(&probe)
        .map_err(|e| format!("{}: {e}", probe.display()))?;
    let mut append_us = Vec::new();
    for line in &lines {
        let t0 = Instant::now();
        offchip_json::atomic::append_line(&mut file, line).map_err(|e| format!("append: {e}"))?;
        append_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    if append_us.is_empty() {
        return Err("the traced server journaled no records".into());
    }

    // Replay and fit: the public campaign and fit path on each key's
    // journal, which must replay without simulating.
    let seeds = offchip_bench::seeds();
    let (mut replay_ms, mut fit_us, mut fit_err) = (Vec::new(), Vec::new(), Vec::new());
    let mut seen = std::collections::BTreeSet::new();
    for key in keys.iter().filter(|k| seen.insert(k.name())) {
        let cfg = sim::fill_config(key.machine, &key.program);
        let w = offchip_bench::build_workload(cfg.spec, cfg.machine.total_cores());
        let opts = CampaignOptions {
            resume: true,
            journal_dir: Some(journal.to_path_buf()),
            ..CampaignOptions::default()
        };
        let t0 = Instant::now();
        let campaign = Campaign::start(&format!("serve-{}-{}", key.machine, key.program), &opts)
            .map_err(|e| format!("campaign {}: {e}", key.name()))?;
        let cs = campaign
            .run_sweep(&cfg.machine, w.as_ref(), &cfg.ns, &seeds, 1)
            .map_err(|e| format!("replay {}: {e}", key.name()))?;
        replay_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        report.attempted += 1;
        if cs.executed != 0 || !cs.errors.is_empty() {
            report.failed += 1;
            report.note(&format!(
                "{}: replay simulated {} runs",
                key.name(),
                cs.executed
            ));
            continue;
        }
        let proto = FitProtocol::for_machine(&cfg.machine.name);
        let t0 = Instant::now();
        let fitted = cs
            .sweep
            .mean_misses()
            .map_err(|e| e.to_string())
            .and_then(|r| {
                fit_robust_from_sweep(
                    &proto,
                    &cs.sweep.cycles_sweep_f64(),
                    r,
                    &RobustOptions::default(),
                )
                .map_err(|e| e.to_string())
            })
            .and_then(|fit| {
                let cycles = cs.sweep.cycles_sweep().map_err(|e| e.to_string())?;
                validate(&fit.model, &cycles).map_err(|e| e.to_string())
            });
        fit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        match fitted {
            Ok(v) => fit_err.extend(v.mean_relative_error.map(|e| e * 100.0)),
            Err(e) => {
                report.failed += 1;
                report.note(&format!("{}: fit failed: {e}", key.name()));
            }
        }
    }

    // Request parsing, in-process.
    let req = http::request(
        "POST",
        "/predict",
        &http::predict_body(WARM_PREDICT.0, WARM_PREDICT.1, 4),
        None,
        false,
    );
    const PARSES: usize = 20_000;
    let wire = req.repeat(PARSES);
    let mut reader = std::io::BufReader::new(std::io::Cursor::new(wire));
    let t0 = Instant::now();
    let mut parsed = 0;
    while let Ok(Some(r)) = offchip_serve::http::read_request(&mut reader, Duration::from_secs(5)) {
        black_box(r);
        parsed += 1;
    }
    let read_request_ns = ns_per(t0.elapsed(), parsed as u64);
    if parsed != PARSES {
        report.fail(&format!("parsed {parsed} of {PARSES} pipelined requests"));
    }

    // The service's handler, in-process, on a model filled from the
    // journal.
    let service = offchip_serve::PredictService::new(offchip_serve::ServiceConfig {
        journal_dir: Some(journal.to_path_buf()),
        jobs: 1,
        ..offchip_serve::ServiceConfig::default()
    });
    let request = offchip_serve::Request {
        method: "POST".into(),
        path: "/predict".into(),
        body: http::predict_body(WARM_PREDICT.0, WARM_PREDICT.1, 4).into_bytes(),
        close: false,
        deadline_ms: None,
        trace: None,
    };
    if service.handle(&request).status != 200 {
        report.fail("in-process /predict did not answer 200");
    }
    const HANDLES: u64 = 20_000;
    let t0 = Instant::now();
    for _ in 0..HANDLES {
        black_box(service.handle(black_box(&request)));
    }
    let handle_ns = ns_per(t0.elapsed(), HANDLES);

    // Histogram observation, on a private registry.
    let registry = offchip_obs::Registry::default();
    const OBSERVES: u64 = 1_000_000;
    let t0 = Instant::now();
    for i in 0..OBSERVES {
        registry.observe("serve.request_latency_us", black_box(i & 1023));
    }
    let observe_ns = ns_per(t0.elapsed(), OBSERVES);

    let bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
    report.metric("bench.journal_append_us", median(&append_us), "us");
    report.metric("bench.journal_records", lines.len() as f64, "count");
    report.metric("bench.journal_bytes", bytes as f64, "B");
    report.metric("bench.replay_ms", median(&replay_ms), "ms");
    report.metric("core.fit_us", median(&fit_us), "us");
    report.metric(
        "core.fit_err_pct",
        fit_err.iter().sum::<f64>() / fit_err.len().max(1) as f64,
        "%",
    );
    report.metric("http.read_request_ns", read_request_ns, "ns");
    report.metric("service.handle_ns", handle_ns, "ns");
    report.metric("obs.observe_ns", observe_ns, "ns");
    Ok(())
}
