//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload sim-contended|serve-cold|serve-warm
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload, checks every output, and prints as its last stdout
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! — the end-to-end metrics, or with `--trace 1` the per-layer metrics
//! of a separate traced run. Run it from the repository root (the
//! workloads keep their scratch files under `.bench_work/`). See
//! `perfbench/README.md`.

mod http;
mod layers;
mod loadgen;
mod serve;
mod server;
mod sim;
mod spans;
mod stats;

use std::path::{Path, PathBuf};

/// Scratch directory of the runs, relative to the repository root.
const WORK_ROOT: &str = ".bench_work";

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["sim-contended", "serve-cold", "serve-warm"];

/// What one run found: counts, correctness and metrics.
#[derive(Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Broken checks that are not per-operation failures.
    pub broken: Vec<String>,
    /// `(name, value, unit)` in insertion order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A diagnostic line on stderr.
    pub fn note(&self, line: &str) {
        eprintln!("perfbench: {line}");
    }

    /// Marks the run incorrect.
    pub fn fail(&mut self, why: &str) {
        self.note(&format!("CHECK FAILED: {why}"));
        self.broken.push(why.to_string());
    }

    fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            metrics.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
        }
        Ok(format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.broken.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        ))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// `git rev-parse HEAD` and whether the tree is dirty, when the checkout
/// is a git repository.
fn git_state() -> (String, String) {
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match run(&["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty = run(&["status", "--porcelain"])
                .map_or("unknown".into(), |s| (!s.is_empty()).to_string());
            (rev, dirty)
        }
        None => ("none".into(), "unknown".into()),
    }
}

/// FNV-1a over the relative paths and bytes of every file under `dirs`,
/// in path order: names the source tree even outside git.
fn source_digest(dirs: &[&str]) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// What the host did during a run, read from `/proc`: the CPU time of
/// this process and of the servers it has reaped, and how much of the
/// host's CPU time the hypervisor stole.
struct HostLoad {
    wall: std::time::Instant,
    cpu_ticks: u64,
    stat: Vec<u64>,
}

impl HostLoad {
    /// Clock ticks per second of `/proc` times (USER_HZ).
    const HZ: f64 = 100.0;

    fn now() -> HostLoad {
        // utime, stime, cutime, cstime: fields 14–17 of /proc/self/stat,
        // counted after the parenthesised command name.
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let after_name = stat.rsplit(')').next().unwrap_or("");
        let cpu_ticks = after_name
            .split_whitespace()
            .skip(11)
            .take(4)
            .filter_map(|v| v.parse::<u64>().ok())
            .sum();
        let host = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let stat = host
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        HostLoad {
            wall: std::time::Instant::now(),
            cpu_ticks,
            stat,
        }
    }

    /// One line comparing `self` (the start of a run) with now.
    fn since(&self) -> String {
        let end = HostLoad::now();
        let d = |i: usize| {
            end.stat.get(i).copied().unwrap_or(0) - self.stat.get(i).copied().unwrap_or(0)
        };
        let total: u64 = (0..8).map(d).sum();
        format!(
            "host: wall {:.2} s, cpu {:.2} s (bench and reaped servers), steal {:.1} % of host cpu time",
            self.wall.elapsed().as_secs_f64(),
            (end.cpu_ticks - self.cpu_ticks) as f64 / Self::HZ,
            100.0 * d(7) as f64 / total.max(1) as f64
        )
    }
}

/// A fresh scratch directory for this run under [`WORK_ROOT`].
fn work_dir(workload: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(WORK_ROOT).join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn run(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    match (args.workload.as_str(), args.trace) {
        ("sim-contended", false) => sim::contended(args.seed, report),
        ("serve-cold", false) => serve::cold(args.seed, work, report),
        ("serve-warm", false) => serve::warm(args.seed, args.seconds, work, report),
        (w, true) => layers::traced(w, args.seed, work, report),
        _ => unreachable!("workload validated by parse_args"),
    }
}

fn main() {
    // Only the command line configures a run: settings inherited through
    // the environment (seeds, jobs, observation level, scheduler, fault
    // schedules) would change what is measured.
    for (k, _) in std::env::vars() {
        if k.starts_with("OFFCHIP_") {
            std::env::remove_var(k);
        }
    }
    // The in-process service and campaigns log progress at info level;
    // stdout carries the result, so keep stderr to warnings.
    offchip_obs::set_log_level(offchip_obs::LogLevel::Warn);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let (rev, dirty) = git_state();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "provenance git={rev} dirty={dirty} src={} nproc={nproc} workload={} seed={} seconds={} trace={}",
        source_digest(&["crates", "perfbench/src"]),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = Report::default();
    let load = HostLoad::now();
    let outcome = work_dir(&args.workload).and_then(|work| {
        let r = run(&args, &work, &mut report);
        let _ = std::fs::remove_dir_all(&work);
        // Leaves `.bench_work/` in place while other runs still use it.
        let _ = std::fs::remove_dir(WORK_ROOT);
        r
    });
    report.note(&load.since());
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    match report.to_json() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
