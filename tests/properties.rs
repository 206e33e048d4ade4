//! Property-based tests over the core data structures and invariants,
//! spanning crates (proptest).

use proptest::prelude::*;

use offchip::cache::{AccessKind, CacheConfig, ReplacementPolicy, SetAssocCache};
use offchip::dram::fcfs::McConfig;
use offchip::dram::mapping::AddressMapping;
use offchip::dram::{EnqueueResult, FcfsController, McModel, Request};
use offchip::model::Mm1Fit;
use offchip::simcore::{CalendarQueue, EventQueue, EventSched, Rng, SimTime};
use offchip::stats::{Ccdf, LineFit, Summary};

/// Schedules event `i` at `times[i]`, then drains `q`, checking that pops
/// come in nondecreasing time order with FIFO ties and that none is lost.
fn check_total_order(mut q: impl EventSched<usize>, times: &[u64]) -> Result<(), TestCaseError> {
    for (i, &t) in times.iter().enumerate() {
        q.schedule_at(SimTime(t), i);
    }
    let mut last = (SimTime::ZERO, 0usize);
    let mut popped = 0;
    while let Some((t, idx)) = q.pop() {
        prop_assert!(t >= last.0);
        if t == last.0 && popped > 0 {
            prop_assert!(idx > last.1, "FIFO tie-break violated");
        }
        last = (t, idx);
        popped += 1;
    }
    prop_assert_eq!(popped, times.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A cache never reports more hits+misses than accesses, its miss
    /// ratio stays in [0,1], and a line just accessed is always resident.
    #[test]
    fn cache_invariants(addrs in prop::collection::vec(0u64..(1 << 22), 1..400),
                        ways in 1usize..8, sets in 1usize..64) {
        let mut cache = SetAssocCache::new(CacheConfig {
            sets, ways, line_bytes: 64, policy: ReplacementPolicy::Lru,
        });
        for (i, &a) in addrs.iter().enumerate() {
            let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
            cache.access(a, kind);
            prop_assert!(cache.probe(a), "line {a:#x} must be resident after access");
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.accesses(), addrs.len() as u64);
        prop_assert!(stats.miss_ratio() >= 0.0 && stats.miss_ratio() <= 1.0);
        prop_assert!(stats.cold_misses <= stats.misses);
        prop_assert!(stats.writebacks <= stats.misses);
    }

    /// FCFS reservations are causal (completion after arrival, service at
    /// least the transfer time) and controller statistics balance.
    #[test]
    fn fcfs_causality(lines in prop::collection::vec(0u64..4096, 1..200),
                      gaps in prop::collection::vec(0u64..300, 1..200)) {
        let cfg = McConfig {
            mapping: AddressMapping::new(2, 4, 64, 2048),
            row_hit_cycles: 40, row_miss_cycles: 110, transfer_cycles: 8,
        };
        let mut mc = FcfsController::new(cfg);
        let mut now = SimTime(0);
        for (i, (&l, &g)) in lines.iter().zip(&gaps).enumerate() {
            now += g;
            let r = mc.enqueue(now, Request {
                id: i as u64, line_addr: l * 64,
                is_write: i % 4 == 0, network_latency: (i as u64 % 3) * 50,
            });
            let EnqueueResult::Completed(done) = r else {
                return Err(TestCaseError::fail("FCFS must reserve immediately"));
            };
            prop_assert!(done >= now + 8, "service at least one transfer");
        }
        let stats = mc.stats();
        prop_assert_eq!(stats.requests, lines.len().min(gaps.len()) as u64);
        prop_assert_eq!(stats.row_hits + stats.row_misses + stats.writes, stats.requests);
    }

    /// Both event queues — the calendar queue the simulator runs on and
    /// the binary-heap reference — pop in nondecreasing time order with
    /// FIFO ties, regardless of insertion order.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..10_000, 1..300)) {
        check_total_order(CalendarQueue::new(), &times)?;
        check_total_order(EventQueue::new(), &times)?;
    }

    /// An M/M/1 fit through exact model data recovers every point it was
    /// not fitted on (interpolation and extrapolation below the pole).
    #[test]
    fn mm1_fit_recovers_model_points(mu in 0.01f64..0.1, l_frac in 0.01f64..0.06,
                                     r in 1e6f64..1e10) {
        let l = mu * l_frac; // pole far beyond the fitted range
        let c = |n: usize| r / (mu - n as f64 * l);
        let fit = Mm1Fit::fit(&[(1, c(1)), (4, c(4))], r).unwrap();
        for n in [2usize, 3, 6, 8, 12] {
            let predicted = fit.predict(n);
            let truth = c(n);
            prop_assert!(((predicted - truth) / truth).abs() < 1e-6,
                "n={n}: {predicted} vs {truth}");
        }
        prop_assert!((fit.mu() - mu).abs() / mu < 1e-6);
        prop_assert!((fit.l() - l).abs() / l < 1e-6);
    }

    /// CCDFs are monotone nonincreasing and bounded by [0, 1].
    #[test]
    fn ccdf_monotone(samples in prop::collection::vec(0u64..5_000, 1..500)) {
        let ccdf = Ccdf::from_samples(&samples);
        let mut prev = 1.0f64;
        for (_, p) in ccdf.points() {
            prop_assert!(p <= prev + 1e-12);
            prop_assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
        let max = *samples.iter().max().unwrap();
        prop_assert_eq!(ccdf.exceedance(max), 0.0);
    }

    /// Summary statistics: mean within [min, max], percentiles ordered.
    #[test]
    fn summary_ordering(values in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let s = Summary::new(&values);
        let (min, max) = (s.min().unwrap(), s.max().unwrap());
        prop_assert!(s.mean() >= min - 1e-9 && s.mean() <= max + 1e-9);
        let p25 = s.percentile(25.0).unwrap();
        let p50 = s.percentile(50.0).unwrap();
        let p75 = s.percentile(75.0).unwrap();
        prop_assert!(min <= p25 && p25 <= p50 && p50 <= p75 && p75 <= max);
    }

    /// Line fits minimise squared error at least as well as the naive
    /// horizontal-mean line.
    #[test]
    fn line_fit_beats_constant(pairs in prop::collection::vec((-100f64..100.0, -100f64..100.0), 3..100)) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        prop_assume!(xs.iter().any(|&x| (x - xs[0]).abs() > 1e-9));
        let fit = LineFit::ordinary(&xs, &ys).unwrap();
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let sse_fit: f64 = xs.iter().zip(&ys).map(|(&x, &y)| (y - fit.predict(x)).powi(2)).sum();
        let sse_mean: f64 = ys.iter().map(|&y| (y - mean).powi(2)).sum();
        prop_assert!(sse_fit <= sse_mean + 1e-6);
        prop_assert!(fit.r_squared >= 0.0 && fit.r_squared <= 1.0 + 1e-12);
    }

    /// The deterministic RNG's range sampling is honest.
    #[test]
    fn rng_ranges(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            let v = rng.range(lo, lo + span);
            prop_assert!(v >= lo && v < lo + span);
        }
    }
}

/// Fault-tolerance properties: the robust fitting pipeline, fed sweeps
/// corrupted by every fault class the injector knows, either returns a
/// physical model with a populated quality ledger or refuses with a typed
/// error — it never panics, and it never emits NaN or a non-positive μ.
mod fault_tolerance_properties {
    use super::*;
    use offchip::model::{fit_robust_from_sweep, FitProtocol, RobustOptions};
    use offchip::perf::FaultSpec;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn faulted_fits_never_yield_nan_or_negative_mu(
            mu in 0.01f64..0.1,
            l_frac in 0.01f64..0.08,
            r in 1e6f64..1e10,
            drop in 0.0f64..0.5,
            jitter in 0.0f64..0.15,
            garbage in 0.0f64..0.3,
            zero in 0.0f64..0.2,
            seed in any::<u64>(),
        ) {
            let l = mu * l_frac;
            let clean: Vec<(usize, f64)> =
                (1..=8).map(|n| (n, r / (mu - n as f64 * l))).collect();
            let spec = FaultSpec { drop, jitter, garbage, zero, seed };
            let sweep = spec.injector().corrupt_sweep(&clean);
            let proto = FitProtocol::intel_uma();
            match fit_robust_from_sweep(&proto, &sweep, r, &RobustOptions::default()) {
                Ok(fit) => {
                    let m = fit.model.mm1();
                    prop_assert!(m.mu().is_finite() && m.mu() > 0.0,
                        "unphysical mu {}", m.mu());
                    prop_assert!(m.l().is_finite());
                    for n in 1..=16usize {
                        prop_assert!(fit.model.predict_c(n).is_finite(),
                            "C({n}) not finite");
                        prop_assert!(fit.model.predict_omega(n).is_finite(),
                            "omega({n}) not finite");
                    }
                    prop_assert!(fit.quality.points_used >= 3);
                    prop_assert!(fit.quality.r_squared.is_finite());
                    prop_assert!(
                        fit.quality.points_used + fit.quality.dropped.len()
                            >= fit.quality.points_supplied,
                        "ledger accounts for every supplied point"
                    );
                }
                Err(e) => {
                    // A refusal must carry an actionable diagnosis.
                    prop_assert!(!e.to_string().is_empty());
                }
            }
        }

        #[test]
        fn injector_is_deterministic_under_any_spec(
            drop in 0.0f64..1.0,
            jitter in 0.0f64..0.5,
            garbage in 0.0f64..1.0,
            zero in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let spec = FaultSpec { drop, jitter, garbage, zero, seed };
            let clean: Vec<(usize, f64)> = (1..=24).map(|n| (n, 1e9 + n as f64)).collect();
            let a = spec.injector().corrupt_sweep(&clean);
            let b = spec.injector().corrupt_sweep(&clean);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.0, y.0);
                prop_assert!(x.1 == y.1 || (x.1.is_nan() && y.1.is_nan()));
            }
        }
    }
}

/// Simulation-level property: for any (small) core count and seed, the
/// simulator conserves instructions and cycles identities.
mod simulation_properties {
    use super::*;
    use offchip::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn counters_conserved(n in 1usize..8, seed in 0u64..1000) {
            let machine = machines::intel_uma_8().scaled(1.0 / 64.0);
            let w = traces::is::workload(ProblemClass::S, 1.0 / 64.0, 8);
            let mut cfg = SimConfig::new(machine, n);
            cfg.seed = seed;
            let r = run(&w, &cfg);
            let c = &r.counters;
            // Identity: total = work + stall, stall decomposes.
            prop_assert_eq!(c.total_cycles, c.work_cycles + c.stall_cycles);
            prop_assert_eq!(
                c.stall_cycles,
                c.mem_stall_cycles + c.onchip_stall_cycles + c.switch_cycles
            );
            // Reads are misses minus coalescing; both bounded.
            prop_assert!(c.read_requests <= c.llc_misses);
            prop_assert!(c.llc_misses <= c.llc_accesses);
            // The makespan bounds per-core time.
            prop_assert!(c.core_time_cycles >= c.total_cycles);
        }
    }
}
