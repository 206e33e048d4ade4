//! The `serve-cold` and `serve-warm` workloads: an `offchip-serve`
//! process driven over sockets.

use crate::http::{self, Client, Response};
use crate::loadgen::{self, Planned};
use crate::server::Server;
use crate::sim::{self, splitmix, JOBS};
use crate::stats::{median, Summary, METRIC_TAIL};
use crate::Report;
use offchip_json::Json;
use offchip_simcore::Rng;
use std::path::Path;
use std::time::{Duration, Instant};

/// Server starts whose median time to healthy is `setup_s`.
const STARTS: usize = 31;

/// Cold passes of `serve-cold`, each from an empty journal and in a key
/// order of its own.
const COLD_PASSES: usize = 3;

/// Programs of the cold key set.
const PROGRAMS: [&str; 5] = ["EP", "IS", "FT", "CG", "SP"];

/// Classes of the cold key set.
const CLASSES: [&str; 3] = ["S", "W", "A"];

/// Client socket timeout: a cold fill of the largest key fits well
/// inside it.
const TIMEOUT: Duration = Duration::from_secs(120);

/// Keep-alive rate of the fixed-rate phase, requests per second.
const WARM_RATE: f64 = 5_000.0;

/// Share of the fixed-rate phase that asks `/sweep`.
const SWEEP_SHARE: f64 = 0.1;

/// Fresh-connection rate beside the fixed-rate phase, per second.
const FRESH_RATE: f64 = 20.0;

/// Batches of the closed-loop capacity pass; their median wall time is
/// reported.
const CAPACITY_BATCHES: usize = 15;

/// Requests a capacity client pipelines before reading their answers.
const CAPACITY_DEPTH: usize = 16;

/// Requests per connection per capacity batch.
const CAPACITY_REQS: usize = 8_000;

/// Due-time window whose tail latencies are reported by their median: a
/// scheduling hiccup of the shared host then spoils one window, not the
/// run's tail.
const TAIL_WINDOW: Duration = Duration::from_secs(1);

/// Highest percentile `serve-warm`'s tail reports. The host's speed
/// drifts by about ±10 % over minutes, and the open loop's queueing
/// amplifies the drift in its tail: between ten identical runs the
/// keep-alive p99 moved by 50–150 %, the p90 by 20–27 %, the p75 by 5 %.
const OPEN_LOOP_TAIL: f64 = 75.0;

/// Largest `n` of the warm `/predict` requests.
const WARM_MAX_N: usize = 8;

/// The warm keys: a small UMA key for `/predict`, a 48-core AMD key for
/// `/sweep`.
pub const WARM_PREDICT: (&str, &str) = ("uma", "CG.S");
pub const WARM_SWEEP: (&str, &str) = ("amd", "CG.A");

/// One cold key with the `n` its requests ask for.
#[derive(Debug, Clone)]
pub struct Key {
    pub machine: &'static str,
    pub program: String,
    pub n: usize,
}

impl Key {
    /// The key's `/predict` request, traced when `trace` is given.
    pub fn request(&self, trace: Option<u64>) -> Vec<u8> {
        http::request(
            "POST",
            "/predict",
            &http::predict_body(self.machine, &self.program, self.n),
            trace,
            false,
        )
    }

    /// `machine/program`.
    pub fn name(&self) -> String {
        format!("{}/{}", self.machine, self.program)
    }
}

/// The 45 cold keys in a seeded order, each with a seeded `n`.
pub fn cold_keys(seed: u64) -> Vec<Key> {
    let mut rng = Rng::new(splitmix(seed ^ 0xC01D));
    let mut keys = Vec::new();
    for machine in sim::MACHINES {
        let total = sim::machine(machine).total_cores() as u64;
        for p in PROGRAMS {
            for c in CLASSES {
                keys.push(Key {
                    machine,
                    program: format!("{p}.{c}"),
                    n: 1 + rng.next_below(total) as usize,
                });
            }
        }
    }
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    keys
}

/// Starts and stops `count` servers on `journal`, returning each one's
/// time to healthy in seconds.
fn probe_starts(journal: &Path, count: usize) -> Result<Vec<f64>, String> {
    (0..count)
        .map(|_| {
            let s = Server::start(journal, JOBS)?;
            let t = s.ready_after.as_secs_f64();
            s.stop()?;
            Ok(t)
        })
        .collect()
}

/// Whether a response is a fitted answer (not degraded, not an error).
fn fitted(r: &Response) -> bool {
    r.status == 200 && matches!(r.cache.as_deref(), Some("hit" | "miss"))
}

/// `validation.mean_relative_error` of a `/predict` body, if reported.
pub fn fit_error(body: &[u8]) -> Option<f64> {
    Json::parse(std::str::from_utf8(body).ok()?)
        .ok()?
        .get("validation")?
        .get("mean_relative_error")?
        .as_f64()
}

/// One cold-pass answer.
pub struct ColdAnswer {
    pub response: Result<Response, String>,
    pub latency: Duration,
}

/// Asks every key once on one keep-alive connection, in order.
pub fn ask_all(server: &Server, keys: &[Key], trace_base: Option<u64>) -> Vec<ColdAnswer> {
    let mut client = Client::connect(server.addr, TIMEOUT);
    keys.iter()
        .enumerate()
        .map(|(i, k)| {
            let t = Instant::now();
            let response = match &mut client {
                Ok(c) => c.call(&k.request(trace_base.map(|b| b + i as u64))),
                Err(e) => Err(e.clone()),
            };
            ColdAnswer {
                response,
                latency: t.elapsed(),
            }
        })
        .collect()
}

/// Every line of the campaign journals under `journal`.
pub fn journal_lines(journal: &Path) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    for entry in std::fs::read_dir(journal).map_err(|e| format!("{}: {e}", journal.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "journal") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            lines.extend(text.lines().map(str::to_string));
        }
    }
    Ok(lines)
}

/// The records among journal `lines` and the sum of their `wall_ns`: the
/// host time the fills spent simulating.
fn journal_busy(lines: &[String]) -> (usize, Duration) {
    let walls: Vec<u64> = lines
        .iter()
        .filter_map(|line| {
            let body = line.rsplit_once('#').map_or(line.as_str(), |(b, _)| b);
            Json::parse(body).ok()?.get("wall_ns")?.as_u64()
        })
        .collect();
    (walls.len(), Duration::from_nanos(walls.iter().sum()))
}

/// What one cold pass measured.
struct ColdPass {
    /// Until every key was answered once from the empty journal.
    wall: Duration,
    /// Every cold-pass request, both clients: the key's name and µs.
    latencies_us: Vec<(String, f64)>,
    /// Answering every key again after the restart.
    replay_wall: Duration,
    /// The server's `VmHWM` over both of its lives.
    rss_mb: f64,
    /// `X-Offchip-Cache` of every checked answer, counted.
    dispositions: std::collections::BTreeMap<String, usize>,
    /// Mean relative fit error of each key that reports one, %.
    fit_errors: Vec<f64>,
}

/// One cold pass: two clients fill every key from the empty `journal`,
/// the server restarts on it and one client asks every key again. Each
/// server's time to healthy is pushed onto `ready`.
fn cold_pass(
    keys: &[Key],
    journal: &Path,
    ready: &mut Vec<f64>,
    report: &mut Report,
) -> Result<ColdPass, String> {
    std::fs::create_dir_all(journal).map_err(|e| format!("{}: {e}", journal.display()))?;
    let server = Server::start(journal, JOBS)?;
    ready.push(server.ready_after.as_secs_f64());
    let t0 = Instant::now();
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(|| ask_all(&server, keys, None));
        let mine = ask_all(&server, keys, None);
        (mine, other.join().expect("cold client panicked"))
    });
    let wall = t0.elapsed();
    let (records, busy) = journal_busy(&journal_lines(journal)?);
    report.note(&format!(
        "cold fill journaled {records} runs, simulation busy {:.2} s on {JOBS} workers",
        busy.as_secs_f64()
    ));
    let rss_cold = server.peak_rss_mb()?;
    server.stop()?;

    let server = Server::start(journal, JOBS)?;
    ready.push(server.ready_after.as_secs_f64());
    let t1 = Instant::now();
    let replay = ask_all(&server, keys, None);
    let replay_wall = t1.elapsed();
    let rss_replay = server.peak_rss_mb()?;
    server.stop()?;

    let mut dispositions = std::collections::BTreeMap::new();
    let mut fit_errors = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        report.attempted += 3;
        let reference = match &a[i].response {
            Ok(r) if fitted(r) => r,
            other => {
                report.failed += 3;
                report.note(&format!("{}: cold answer unusable: {other:?}", key.name()));
                continue;
            }
        };
        *dispositions
            .entry(reference.cache.clone().unwrap_or_default())
            .or_insert(0) += 1;
        for (what, answer) in [("coalesced", &b[i]), ("replayed", &replay[i])] {
            match &answer.response {
                Ok(r) if fitted(r) && r.body == reference.body => {
                    *dispositions
                        .entry(r.cache.clone().unwrap_or_default())
                        .or_insert(0) += 1;
                }
                other => {
                    report.failed += 1;
                    report.note(&format!(
                        "{}: {what} answer differs: {:?}",
                        key.name(),
                        other.as_ref().map(|r| r.status)
                    ));
                }
            }
        }
        if let Some(e) = fit_error(&reference.body) {
            fit_errors.push(e * 100.0);
        }
    }
    Ok(ColdPass {
        wall,
        latencies_us: a
            .iter()
            .zip(keys)
            .chain(b.iter().zip(keys))
            .map(|(c, k)| (k.name(), c.latency.as_secs_f64() * 1e6))
            .collect(),
        replay_wall,
        rss_mb: rss_cold.max(rss_replay),
        dispositions,
        fit_errors,
    })
}

/// `serve-cold`: [`COLD_PASSES`] cold passes, each from an empty journal
/// of its own and in a key order of its own. The wall time is the
/// passes' median and the tail is taken over every cold answer. The p50
/// is the median over the keys of each key's median answer: the first
/// request after a server start pays a one-time cost, and the key a
/// pass happens to ask first would otherwise move the p50 across a gap
/// between two keys' fill times.
pub fn cold(seed: u64, work: &Path, report: &mut Report) -> Result<(), String> {
    let probe_journal = work.join("probe");
    std::fs::create_dir_all(&probe_journal)
        .map_err(|e| format!("{}: {e}", probe_journal.display()))?;
    let mut ready = probe_starts(&probe_journal, STARTS - 2 * COLD_PASSES)?;
    let mut passes = Vec::new();
    for p in 0..COLD_PASSES as u64 {
        let keys = cold_keys(seed.wrapping_mul(COLD_PASSES as u64).wrapping_add(p));
        passes.push(cold_pass(
            &keys,
            &work.join(format!("journal-{p}")),
            &mut ready,
            report,
        )?);
    }

    let mut by_key: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (key, us) in passes.iter().flat_map(|p| &p.latencies_us) {
        by_key.entry(key).or_default().push(*us);
    }
    let key_medians: Vec<f64> = by_key.values().map(|v| median(v)).collect();
    let latencies: Vec<f64> = by_key.into_values().flatten().collect();
    let lat = Summary::of(&latencies, METRIC_TAIL).ok_or("too few cold requests for a tail")?;
    if let Some(s) = Summary::of(&latencies, 99.0) {
        report.note(&format!("cold requests: {}", s.describe("µs")));
    }
    for pass in &passes {
        report.note(&format!(
            "cold fill {:.2} s, replay after restart {:.3} s, dispositions {:?}, \
             mean fit error {:.2} % over {} keys",
            pass.wall.as_secs_f64(),
            pass.replay_wall.as_secs_f64(),
            pass.dispositions,
            pass.fit_errors.iter().sum::<f64>() / pass.fit_errors.len().max(1) as f64,
            pass.fit_errors.len()
        ));
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let rss = passes.iter().map(|p| p.rss_mb).fold(0.0, f64::max);
    report.metric("setup_s", median(&ready), "s");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("wall_s", median(&walls), "s");
    report.metric("p50_us", median(&key_medians), "us");
    report.metric("tail_us", lat.tail, "us");
    Ok(())
}

/// The warm request templates: `/predict` of the predict key at n = 1..=8
/// (classes 0..8), then `/sweep` of the sweep key over its whole machine
/// (class 8).
pub fn warm_requests() -> Vec<Vec<u8>> {
    let (pm, pp) = WARM_PREDICT;
    let (sm, sp) = WARM_SWEEP;
    let total = sim::machine(sm).total_cores();
    let mut reqs: Vec<Vec<u8>> = (1..=WARM_MAX_N)
        .map(|n| {
            http::request(
                "POST",
                "/predict",
                &http::predict_body(pm, pp, n),
                None,
                false,
            )
        })
        .collect();
    reqs.push(http::request(
        "POST",
        "/sweep",
        &http::sweep_body(sm, sp, 1, total),
        None,
        false,
    ));
    reqs
}

/// Index of the `/sweep` class in [`warm_requests`].
pub const SWEEP_CLASS: usize = WARM_MAX_N;

/// Fills both warm keys and fetches every warm template's reference
/// body.
pub fn warm_up(server: &Server) -> Result<Vec<Vec<u8>>, String> {
    let mut c = Client::connect(server.addr, TIMEOUT)?;
    let mut refs = Vec::new();
    for req in warm_requests() {
        let r = c.call(&req)?;
        if !fitted(&r) {
            return Err(format!("warm-up answered {} ({:?})", r.status, r.cache));
        }
        refs.push(r.body);
    }
    Ok(refs)
}

/// A seeded fixed-rate plan: `rate` per second for `span`, 10 % `/sweep`,
/// the rest `/predict` with a seeded n.
pub fn warm_plan(rng: &mut Rng, rate: f64, span: Duration) -> Vec<Planned> {
    let count = (rate * span.as_secs_f64()) as usize;
    (0..count)
        .map(|i| Planned {
            due: Duration::from_secs_f64(i as f64 / rate),
            class: if rng.chance(SWEEP_SHARE) {
                SWEEP_CLASS
            } else {
                rng.next_below(WARM_MAX_N as u64) as usize
            },
        })
        .collect()
}

/// What the warm traffic measured.
pub struct WarmTraffic {
    pub keep_alive: loadgen::Outcome,
    pub fresh: loadgen::FreshOutcome,
}

/// The fixed-rate phase: the open loop on one keep-alive connection and,
/// on a second thread, fresh-connection `/predict`s at Poisson times.
pub fn fixed_rate(
    server: &Server,
    rng: &mut Rng,
    span: Duration,
    reqs: &[Vec<u8>],
    trace_base: Option<u64>,
    refs: &[Vec<u8>],
) -> WarmTraffic {
    let plan = warm_plan(rng, WARM_RATE, span);
    let fresh_class = rng.next_below(WARM_MAX_N as u64) as usize;
    let fresh_req = http::request(
        "POST",
        "/predict",
        &http::predict_body(WARM_PREDICT.0, WARM_PREDICT.1, fresh_class + 1),
        None,
        true,
    );
    let dues = loadgen::poisson_dues(rng, FRESH_RATE, span);
    let check = |class: usize, r: &Response| fitted(r) && r.body == refs[class];
    std::thread::scope(|s| {
        let keep_alive = s.spawn(|| {
            loadgen::open_loop(
                server.addr,
                &plan,
                reqs,
                trace_base,
                &check,
                Duration::from_secs(5),
            )
        });
        let fresh = loadgen::fresh_loop(
            server.addr,
            Instant::now(),
            &dues,
            &fresh_req,
            &|r| check(fresh_class, r),
            TIMEOUT,
        );
        WarmTraffic {
            keep_alive: keep_alive.join().expect("open loop panicked"),
            fresh,
        }
    })
}

/// The closed-loop capacity pass: [`CAPACITY_BATCHES`] batches, each
/// two keep-alive connections asking `/predict` [`CAPACITY_REQS`] times
/// back to back, timed from both connections being open to both being
/// done. Returns each batch's wall time and the count of wrong answers.
pub fn capacity(
    server: &Server,
    rng: &mut Rng,
    reqs: &[Vec<u8>],
    refs: &[Vec<u8>],
) -> Result<(Vec<Duration>, u64), String> {
    let (mut walls, mut failed) = (Vec::new(), 0);
    for _ in 0..CAPACITY_BATCHES {
        let classes: Vec<Vec<usize>> = (0..2)
            .map(|_| {
                (0..CAPACITY_REQS)
                    .map(|_| rng.next_below(WARM_MAX_N as u64) as usize)
                    .collect()
            })
            .collect();
        let ready = std::sync::Barrier::new(3);
        let (wall, wrong) = std::thread::scope(|s| {
            let workers: Vec<_> = classes
                .iter()
                .map(|cs| {
                    let ready = &ready;
                    s.spawn(move || -> Result<u64, String> {
                        let client = Client::connect(server.addr, TIMEOUT);
                        ready.wait();
                        let mut c = client?;
                        let mut wrong = 0;
                        for chunk in cs.chunks(CAPACITY_DEPTH) {
                            let wire: Vec<u8> = chunk
                                .iter()
                                .flat_map(|&class| reqs[class].iter().copied())
                                .collect();
                            for (r, &class) in c.pipeline(&wire, chunk.len())?.iter().zip(chunk) {
                                if !(fitted(r) && r.body == refs[class]) {
                                    wrong += 1;
                                }
                            }
                        }
                        Ok(wrong)
                    })
                })
                .collect();
            ready.wait();
            let t0 = Instant::now();
            let wrong = workers
                .into_iter()
                .map(|w| w.join().expect("capacity client panicked"))
                .sum::<Result<u64, String>>();
            (t0.elapsed(), wrong)
        });
        walls.push(wall);
        failed += wrong?;
    }
    Ok((walls, failed))
}

/// Hits over all cache lookups between two `/metrics` readings.
pub fn hit_ratio(
    before: &std::collections::BTreeMap<String, u64>,
    after: &std::collections::BTreeMap<String, u64>,
) -> f64 {
    let delta = |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
    let hits = delta("serve.cache.hit") as f64;
    let lookups = hits + delta("serve.cache.miss") as f64;
    if lookups == 0.0 {
        0.0
    } else {
        hits / lookups
    }
}

/// `serve-warm`: fixed-rate keep-alive `/predict` and `/sweep` with
/// fresh connections beside them, then a capacity pass; no simulation
/// runs after setup.
pub fn warm(seed: u64, seconds: u64, work: &Path, report: &mut Report) -> Result<(), String> {
    let journal = work.join("journal");
    std::fs::create_dir_all(&journal).map_err(|e| format!("{}: {e}", journal.display()))?;
    let mut rng = Rng::new(splitmix(seed ^ 0x3A53));
    let mut ready = probe_starts(&journal, STARTS - 1)?;
    let server = Server::start(&journal, JOBS)?;
    ready.push(server.ready_after.as_secs_f64());
    let t_fill = Instant::now();
    let refs = warm_up(&server)?;
    report.note(&format!(
        "warm fills {:.2} s (not part of any metric)",
        t_fill.elapsed().as_secs_f64()
    ));

    let reqs = warm_requests();
    let before = server.counters()?;
    let traffic = fixed_rate(
        &server,
        &mut rng,
        Duration::from_secs(seconds),
        &reqs,
        None,
        &refs,
    );
    let (cap_walls, cap_failed) = capacity(&server, &mut rng, &reqs, &refs)?;
    let cap_walls: Vec<f64> = cap_walls.iter().map(Duration::as_secs_f64).collect();
    let cap_wall = median(&cap_walls);
    let after = server.counters()?;
    let rss = server.peak_rss_mb()?;
    server.stop()?;

    let ka = &traffic.keep_alive;
    report.attempted +=
        (ka.attempted + traffic.fresh.attempted + 2 * CAPACITY_REQS * CAPACITY_BATCHES) as u64;
    report.failed += (ka.failed + traffic.fresh.failed) as u64 + cap_failed;
    let is_predict = |c: usize| c != SWEEP_CLASS;
    let predict = ka.latencies(is_predict);
    let lat = Summary::of(&predict, 99.0).ok_or("too few /predict answers for a tail")?;
    let tails = ka.window_tails(is_predict, TAIL_WINDOW, OPEN_LOOP_TAIL);
    if tails.is_empty() {
        return Err("no window had enough /predict answers for a tail".into());
    }
    report.note(&format!("keep-alive /predict: {}", lat.describe("µs")));
    report.note(&format!(
        "keep-alive /predict p{OPEN_LOOP_TAIL} per {TAIL_WINDOW:?}: {tails:.0?}"
    ));
    if let Some(s) = Summary::of(&ka.latencies(|c| c == SWEEP_CLASS), 99.0) {
        report.note(&format!("keep-alive /sweep: {}", s.describe("µs")));
    }
    if let Some(s) = Summary::of(&traffic.fresh.latency_us, 99.0) {
        report.note(&format!("fresh-connection /predict: {}", s.describe("µs")));
    }
    if let Some(s) = Summary::of(&ka.lateness_us, 99.0) {
        report.note(&format!("generator lateness: {}", s.describe("µs")));
    }
    if loadgen::backlog_growing(&ka.backlog, WARM_RATE) {
        report.note("the keep-alive backlog grew during the fixed-rate phase");
    }
    let hits = hit_ratio(&before, &after);
    if hits != 1.0 {
        report.fail(&format!("cache hit ratio after warm-up is {hits}, not 1"));
    }
    report.note(&format!(
        "capacity: batches of {} requests on 2 connections, median {cap_wall:.3} s ({:.0} req/s), \
         batch walls {cap_walls:.3?}",
        2 * CAPACITY_REQS,
        (2 * CAPACITY_REQS) as f64 / cap_wall
    ));
    report.metric("setup_s", median(&ready), "s");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("wall_s", cap_wall, "s");
    report.metric("p50_us", lat.p50, "us");
    report.metric("tail_us", median(&tails), "us");
    Ok(())
}
