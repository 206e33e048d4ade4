//! The simulator driven in-process through its public API, and the
//! `sim-contended` workload.

use crate::stats::{median, Summary, METRIC_TAIL};
use crate::Report;
use offchip_bench::{build_workload, ProgramSpec};
use offchip_machine::{Counters, LaneRunner, RunReport, SimConfig, Workload};
use offchip_model::FitProtocol;
use offchip_npb::classes::ProblemClass;
use offchip_topology::machines::{self, DEFAULT_EXPERIMENT_SCALE};
use offchip_topology::MachineSpec;
use std::time::{Duration, Instant};

/// The service's machine keys, in grid order.
pub const MACHINES: [&str; 3] = ["uma", "numa", "amd"];

/// Simulation workers: the benchmark is sized for a two-core host.
pub const JOBS: usize = 2;

/// Setup repetitions whose median is reported as `setup_s`.
const SETUP_REPS: usize = 31;

/// A scaled paper machine by service key.
pub fn machine(key: &str) -> MachineSpec {
    let spec = match key {
        "uma" => machines::intel_uma_8(),
        "numa" => machines::intel_numa_24(),
        "amd" => machines::amd_numa_48(),
        other => panic!("unknown machine key {other:?}"),
    };
    spec.scaled(DEFAULT_EXPERIMENT_SCALE)
}

/// One program on one machine and the core counts it runs at.
pub struct Config {
    /// `machine/program`, e.g. `amd/CG.C`.
    pub key: String,
    /// The machine.
    pub machine: MachineSpec,
    /// The program.
    pub spec: ProgramSpec,
    /// Active-core counts, ascending.
    pub ns: Vec<usize>,
}

/// Table II's high-contention configurations: IS.C, FT.C (FT.B on the
/// UMA machine, as `table2` runs it), CG.C and SP.C on the three
/// machines at n ∈ {1, total/2, total}.
pub fn contended_grid() -> Vec<Config> {
    let mut grid = Vec::new();
    for spec in [
        ProgramSpec::Is(ProblemClass::C),
        ProgramSpec::Ft(ProblemClass::C),
        ProgramSpec::Cg(ProblemClass::C),
        ProgramSpec::Sp(ProblemClass::C),
    ] {
        for key in MACHINES {
            let machine = machine(key);
            let spec = match (spec, key) {
                (ProgramSpec::Ft(ProblemClass::C), "uma") => ProgramSpec::Ft(ProblemClass::B),
                (s, _) => s,
            };
            let total = machine.total_cores();
            grid.push(Config {
                key: format!("{key}/{}", spec.name()),
                machine,
                spec,
                ns: vec![1, total / 2, total],
            });
        }
    }
    grid
}

/// The grid a service fill of `machine_key/program` simulates: the fit
/// protocol's input points plus 1 and the full machine.
pub fn fill_config(machine_key: &str, program: &str) -> Config {
    let machine = machine(machine_key);
    let spec = ProgramSpec::parse(program).expect("benchmark keys are valid programs");
    let total = machine.total_cores();
    let mut ns = FitProtocol::for_machine(&machine.name).input_cores;
    ns.extend([1, total]);
    ns.sort_unstable();
    ns.dedup();
    Config {
        key: format!("{machine_key}/{program}"),
        machine,
        spec,
        ns,
    }
}

/// Simulation seeds for a workload seed: the paper's three seeds for
/// seed 0, a seeded variation of them otherwise.
pub fn sim_seeds(workload_seed: u64) -> Vec<u64> {
    offchip_bench::seeds()
        .into_iter()
        .map(|s| {
            if workload_seed == 0 {
                s
            } else {
                s ^ splitmix(workload_seed)
            }
        })
        .collect()
}

/// SplitMix64 finaliser.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One seed lane of one point.
pub struct Lane {
    /// Index into the grid.
    pub config: usize,
    /// Active cores.
    pub n: usize,
    /// Simulation seed.
    pub seed: u64,
    /// The run's report or why it failed.
    pub report: Result<RunReport, String>,
    /// Host time of `run_seed`.
    pub run: Duration,
}

/// A grid's lanes in grid order (config, n, seed), with its timing.
pub struct GridRun {
    /// Every lane.
    pub lanes: Vec<Lane>,
    /// Host time of `LaneRunner::new`, per point.
    pub point_setup: Vec<Duration>,
    /// Wall time of the whole grid.
    pub wall: Duration,
}

impl GridRun {
    /// Sum of lane run times and point setups: the pool's busy time.
    pub fn busy(&self) -> Duration {
        self.lanes.iter().map(|l| l.run).sum::<Duration>()
            + self.point_setup.iter().sum::<Duration>()
    }
}

/// Builds every configuration's workload.
pub fn build(configs: &[Config]) -> Vec<Box<dyn Workload>> {
    configs
        .iter()
        .map(|c| build_workload(c.spec, c.machine.total_cores()))
        .collect()
}

/// Runs the grid as the sweep engine runs a campaign: config by config
/// in grid order, each config's points (n ascending) fanned out across
/// `jobs` workers, a point's seeds run as lanes of one `LaneRunner`.
pub fn run_grid(
    configs: &[Config],
    workloads: &[Box<dyn Workload>],
    seeds: &[u64],
    jobs: usize,
) -> GridRun {
    let mut grid = GridRun {
        lanes: Vec::new(),
        point_setup: Vec::new(),
        wall: Duration::ZERO,
    };
    for (c, cfg) in configs.iter().enumerate() {
        let t0 = Instant::now();
        let per_point = offchip_pool::scoped_map(jobs, &cfg.ns, |_, &n| {
            let sim = SimConfig::new(cfg.machine.clone(), n);
            let t = Instant::now();
            let runner = LaneRunner::new(workloads[c].as_ref(), &sim);
            let setup = t.elapsed();
            let lanes: Vec<Lane> = seeds
                .iter()
                .map(|&seed| {
                    let t = Instant::now();
                    let report = match &runner {
                        Ok(r) => r.run_seed(seed).map_err(|e| e.to_string()),
                        Err(e) => Err(e.to_string()),
                    };
                    Lane {
                        config: c,
                        n,
                        seed,
                        report,
                        run: t.elapsed(),
                    }
                })
                .collect();
            (setup, lanes)
        });
        grid.wall += t0.elapsed();
        for (setup, lanes) in per_point {
            grid.point_setup.push(setup);
            grid.lanes.extend(lanes);
        }
    }
    grid
}

/// The counters a run's statistics consist of, in a fixed order. The
/// event count is left out: a scheduler that retires fewer events for
/// the same statistics must not change the digest.
fn statistic_fields(r: &RunReport) -> [u64; 16] {
    let c: &Counters = &r.counters;
    [
        r.n_cores as u64,
        r.makespan.cycles(),
        c.total_cycles,
        c.work_cycles,
        c.stall_cycles,
        c.mem_stall_cycles,
        c.onchip_stall_cycles,
        c.switch_cycles,
        c.instructions,
        c.llc_misses,
        c.llc_accesses,
        c.read_requests,
        c.write_requests,
        c.remote_requests,
        c.core_time_cycles,
        c.prefetch_requests,
    ]
}

/// FNV-1a over every lane's statistics, in grid order.
pub fn digest(lanes: &[Lane]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for lane in lanes {
        let fields = match &lane.report {
            Ok(r) => statistic_fields(r),
            Err(_) => [u64::MAX; 16],
        };
        for v in fields {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    format!("{h:016x}")
}

/// Checks one report's internal consistency; `Err` names the first
/// violated invariant.
pub fn check_report(r: &RunReport, n: usize) -> Result<(), String> {
    let c = &r.counters;
    let mc_requests: u64 = r.mc_stats.iter().map(|s| s.requests).sum();
    let checks = [
        (r.n_cores == n, "active cores differ from the requested n"),
        (
            c.total_cycles == c.work_cycles + c.stall_cycles,
            "total ≠ work + stall",
        ),
        (
            c.mem_stall_cycles <= c.stall_cycles,
            "memory stall exceeds stall",
        ),
        (
            c.llc_misses <= c.llc_accesses,
            "more LLC misses than accesses",
        ),
        (
            c.remote_requests <= c.read_requests + c.write_requests + c.prefetch_requests,
            "more remote requests than requests",
        ),
        (
            mc_requests == c.read_requests + c.write_requests + c.prefetch_requests,
            "controller requests differ from issued requests",
        ),
        (c.sim_events > 0 && r.makespan.cycles() > 0, "empty run"),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, what)) => Err(format!("{} {}/n={n}: {what}", r.program, r.machine)),
        None => Ok(()),
    }
}

/// Counts lanes that failed or broke an invariant, reporting each.
pub fn check_lanes(configs: &[Config], lanes: &[Lane], report: &mut Report) -> usize {
    let mut failed = 0;
    for lane in lanes {
        let verdict = match &lane.report {
            Ok(r) => check_report(r, lane.n),
            Err(e) => Err(format!(
                "{} n={} failed: {e}",
                configs[lane.config].key, lane.n
            )),
        };
        if let Err(e) = verdict {
            report.note(&format!("run check failed: {e}"));
            failed += 1;
        }
    }
    failed
}

/// The digest committed for seed 0.
const REFERENCE_DIGEST: &str = include_str!("../reference/sim-contended.digest");

/// Peak resident set of this process, in MB.
pub fn own_peak_rss_mb() -> Result<f64, String> {
    crate::server::vm_hwm_mb("/proc/self/status")
}

/// `sim-contended`: the Table II high-contention grid, in-process.
pub fn contended(seed: u64, report: &mut Report) -> Result<(), String> {
    let seeds = sim_seeds(seed);
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let configs = contended_grid();
        let workloads = build(&configs);
        for (c, w) in configs.iter().zip(&workloads) {
            for &n in &c.ns {
                let cfg = SimConfig::new(c.machine.clone(), n);
                LaneRunner::new(w.as_ref(), &cfg).map_err(|e| format!("{} n={n}: {e}", c.key))?;
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
        built = Some((configs, workloads));
    }
    let (configs, workloads) = built.expect("at least one setup repetition");
    let grid = run_grid(&configs, &workloads, &seeds, JOBS);

    report.attempted += grid.lanes.len() as u64;
    report.failed += check_lanes(&configs, &grid.lanes, report) as u64;
    let digest = digest(&grid.lanes);
    report.note(&format!(
        "sim digest {digest} (seed {seed}, sim seeds {seeds:x?})"
    ));
    if seed == 0 && digest != REFERENCE_DIGEST.trim() {
        report.fail(&format!(
            "sim digest {digest} differs from the committed reference {}",
            REFERENCE_DIGEST.trim()
        ));
    }

    let runs_us: Vec<f64> = grid
        .lanes
        .iter()
        .map(|l| l.run.as_secs_f64() * 1e6)
        .collect();
    let lat = Summary::of(&runs_us, METRIC_TAIL).ok_or("too few runs for a tail")?;
    report.note(&format!("per-run host time: {}", lat.describe("µs")));
    report.note(&format!(
        "grid: {} runs in {:.2} s wall, busy {:.2} s on {JOBS} workers",
        grid.lanes.len(),
        grid.wall.as_secs_f64(),
        grid.busy().as_secs_f64()
    ));
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", own_peak_rss_mb()?, "MB");
    report.metric("wall_s", grid.wall.as_secs_f64(), "s");
    report.metric("p50_us", lat.p50, "us");
    report.metric("tail_us", lat.tail, "us");
    Ok(())
}
