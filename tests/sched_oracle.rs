//! The simulator ships one event scheduler, the calendar queue. The
//! binary-heap `EventQueue` is kept as the ordering reference: both must
//! pop every schedule in the same `(time, arrival)` order, so a whole run
//! driven by either returns the same `RunReport` — counters, controller
//! and LLC statistics, placement, miss windows and telemetry alike.
//!
//! This test runs the configurations the golden-artefact and sweep
//! determinism suites pin, plus one sampled, observed AMD point, through
//! both schedulers in process and asserts report equality seed by seed.

use offchip::prelude::*;
use offchip_bench::{build_workload, ProgramSpec};
use offchip_machine::LaneRunner;
use offchip_obs::ObsLevel;

const SCALE: f64 = 1.0 / 64.0;

/// One configuration: a workload on a machine, swept over `ns`, each
/// point run at every seed in `seeds`.
struct Case {
    name: &'static str,
    machine: MachineSpec,
    workload: Box<dyn Workload>,
    ns: &'static [usize],
    seeds: &'static [u64],
    tune: fn(&mut SimConfig),
}

fn defaults(_: &mut SimConfig) {}

fn cases() -> Vec<Case> {
    let uma = || machines::intel_uma_8().scaled(SCALE);
    vec![
        Case {
            name: "cg_uma_sweep",
            machine: uma(),
            workload: build_workload(ProgramSpec::Cg(ProblemClass::S), 8),
            ns: &[1, 2, 4, 8],
            seeds: &[0x0FF_C41B, 7, 11],
            tune: defaults,
        },
        Case {
            name: "sp_numa_frfcfs_firsttouch",
            machine: machines::intel_numa_24().scaled(SCALE),
            workload: build_workload(ProgramSpec::Sp(ProblemClass::S), 24),
            ns: &[1, 12, 24],
            seeds: &[0x0FF_C41B],
            tune: |cfg| {
                cfg.scheduler = McScheduler::FrFcfs;
                cfg.memory_policy = MemoryPolicy::FirstTouch;
            },
        },
        Case {
            name: "scheduler_ablation_fcfs",
            machine: uma(),
            workload: build_workload(ProgramSpec::Sp(ProblemClass::W), 8),
            ns: &[1, 8],
            seeds: &[0x0FF_C41B],
            tune: defaults,
        },
        Case {
            name: "scheduler_ablation_frfcfs",
            machine: uma(),
            workload: build_workload(ProgramSpec::Sp(ProblemClass::W), 8),
            ns: &[1, 8],
            seeds: &[0x0FF_C41B],
            tune: |cfg| cfg.scheduler = McScheduler::FrFcfs,
        },
        Case {
            name: "ft_a_uma",
            machine: uma(),
            workload: Box::new(traces::ft::workload(ProblemClass::A, SCALE, 8)),
            ns: &[6],
            seeds: &[0x0FF_C41B],
            tune: defaults,
        },
        Case {
            name: "cg_w_uma_sweep",
            machine: uma(),
            workload: Box::new(traces::cg::workload(ProblemClass::W, SCALE, 8)),
            ns: &[1, 2, 4, 8],
            seeds: &[7, 11, 13],
            tune: defaults,
        },
        Case {
            name: "cg_amd_observed",
            machine: machines::amd_numa_48().scaled(SCALE),
            workload: Box::new(traces::cg::workload(ProblemClass::S, SCALE, 48)),
            ns: &[12],
            seeds: &[0x0FF_C41B],
            tune: |cfg| {
                *cfg = cfg.clone().with_sampler_5us_scaled();
                cfg.obs = ObsLevel::Metrics;
            },
        },
    ]
}

#[test]
fn heap_oracle_and_calendar_queue_return_equal_reports() {
    let cases = cases();
    let points: Vec<(&Case, usize)> = cases
        .iter()
        .flat_map(|c| c.ns.iter().map(move |&n| (c, n)))
        .collect();
    let jobs = offchip_pool::resolve_jobs(None).expect("OFFCHIP_JOBS");
    offchip_pool::scoped_map(jobs, &points, |_, &(case, n)| {
        let mut cfg = SimConfig::new(case.machine.clone(), n);
        (case.tune)(&mut cfg);
        let runner = LaneRunner::new(case.workload.as_ref(), &cfg).expect("valid config");
        for &seed in case.seeds {
            let calendar = runner.run_seed(seed).expect("no budgets set");
            let heap = runner.run_seed_heap_oracle(seed).expect("no budgets set");
            // The optional sections take part in the comparison only
            // when the configuration asks for them.
            assert_eq!(
                calendar.miss_windows.is_some(),
                cfg.sampler_window.is_some()
            );
            assert_eq!(
                calendar.telemetry.is_some(),
                cfg.obs.at_least(ObsLevel::Metrics)
            );
            assert!(
                calendar == heap,
                "{} n={n} seed={seed:#x}: calendar queue and heap oracle diverged",
                case.name
            );
        }
    });
}
