//! `stream-sessions`: `qbss_bench::StreamSession` driven one arrival at
//! a time — the `qbss stream` / `POST /session` path without HTTP.
//!
//! Untraced, the run replays the seed's session pool (AVRQ and OAQ
//! sessions of 1200 dense jobs, BKPQ sessions of 200) in rounds until
//! the window closes, timing every arrival and every finish and keeping
//! each one's cheapest repeat. Each finish must be bit-equal to the
//! batch pipeline on the same instance. Traced, it runs one pass through the sessions (per
//! algorithm arrival percentiles, work counters) and then replays the
//! pool through the streaming core call by call.

use std::time::Instant;

use qbss_bench::StreamSession;
use qbss_core::model::QbssInstance;
use qbss_core::pipeline::{run_evaluated, Algorithm};
use qbss_core::stream::{arrival_ordered, solver_for};

use crate::report::Report;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::{inputs, Opts};

/// Power exponent every session is evaluated at.
pub const ALPHA: f64 = 3.0;

/// One session's measurements.
struct Session {
    pool_index: usize,
    /// Wall time of each `arrive` call, in arrival order (rejected
    /// arrivals included: they count as failures, not as gaps).
    arrive_us: Vec<f64>,
    /// CPU time of the arrival loop.
    arrive_cpu_s: f64,
    finish_ms: f64,
    wall_s: f64,
    /// Energy and peak speed of the finish, or its error.
    result: Result<(f64, f64), String>,
}

/// Feeds one session and finishes it, timing each call.
fn session(
    pool_index: usize,
    alg: Algorithm,
    inst: &QbssInstance,
    report: &mut Report,
) -> Result<Session, String> {
    let jobs = arrival_ordered(inst);
    let mut arrive_us = Vec::with_capacity(jobs.len());
    let started = Instant::now();
    let mut s =
        StreamSession::new(alg, ALPHA).map_err(|e| format!("cannot open a {alg} session: {e}"))?;
    let cpu = crate::process_cpu_seconds();
    for job in jobs {
        let t = Instant::now();
        let r = s.arrive(job);
        arrive_us.push(t.elapsed().as_secs_f64() * 1e6);
        report.attempted += 1;
        match r {
            Ok(delta) => {
                std::hint::black_box(delta);
            }
            Err(e) => report.fail(format!("{alg} arrival of job {} rejected: {e}", job.id)),
        }
    }
    let arrive_cpu_s = crate::process_cpu_seconds() - cpu;
    let t = Instant::now();
    let result = s
        .finish()
        .map(|ev| (ev.energy, ev.max_speed))
        .map_err(|e| e.to_string());
    let finish_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(Session {
        pool_index,
        arrive_us,
        arrive_cpu_s,
        finish_ms,
        wall_s: started.elapsed().as_secs_f64(),
        result,
    })
}

/// Output check, outside the timed windows: each finish is bit-equal
/// (energy and peak speed) to the batch pipeline on the same instance,
/// which runs once per pool session.
struct Checker<'a> {
    pool: &'a [(Algorithm, QbssInstance)],
    expected: Vec<Option<Result<(f64, f64), String>>>,
}

impl<'a> Checker<'a> {
    fn new(pool: &'a [(Algorithm, QbssInstance)]) -> Self {
        Checker {
            pool,
            expected: vec![None; pool.len()],
        }
    }

    fn check(&mut self, s: &Session, report: &mut Report) {
        report.attempted += 1;
        let (alg, inst) = &self.pool[s.pool_index];
        let want = self.expected[s.pool_index].get_or_insert_with(|| {
            run_evaluated(inst, ALPHA, *alg)
                .map(|ev| (ev.energy, ev.max_speed))
                .map_err(|e| e.to_string())
        });
        match (&s.result, want) {
            (Ok(got), Ok(want))
                if got.0.to_bits() == want.0.to_bits() && got.1.to_bits() == want.1.to_bits() => {}
            (Ok(got), Ok(want)) => report.fail(format!(
                "{alg} session {}: finish energy / max speed {got:?} differ from batch {want:?}",
                s.pool_index
            )),
            (Err(e), _) => report.fail(format!(
                "{alg} session {} failed to finish: {e}",
                s.pool_index
            )),
            (Ok(_), Err(e)) => report.fail(format!(
                "{alg} batch run of session {} failed: {e}",
                s.pool_index
            )),
        }
    }
}

/// Runs `stream-sessions`.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let pool = crate::timed_setup(
        &mut report,
        || Ok(inputs::stream_sessions(opts.seed)),
        |p| inputs::instances_hash(p.iter().map(|(_, i)| i)),
    )?;
    report.note(format!(
        "stream-sessions: {} sessions per pass ({}), α = {ALPHA}",
        pool.len(),
        pool.iter()
            .map(|(a, i)| format!("{a} n={}", i.len()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if opts.trace {
        traced(opts, &pool, &mut report)?;
    } else {
        untraced(opts, &pool, &mut report)?;
    }
    Ok(report)
}

fn untraced(
    opts: &Opts,
    pool: &[(Algorithm, QbssInstance)],
    report: &mut Report,
) -> Result<(), String> {
    let ticks = crate::cpu_ticks();
    let deadline = opts.deadline();
    let mut checker = Checker::new(pool);
    // Every session is replayed in rounds until the window closes, and
    // each measurement keeps its cheapest repeat: per arrival (its
    // `arrive` call), per session (the CPU time of its arrival loop, and
    // its finish). Other tenants of a shared host only ever slow a call
    // down, and the rounds spread each call's repeats over the whole
    // window, so a slow spell of several seconds cannot reach all of
    // them.
    let mut best_arrive_us: Vec<Vec<f64>> = pool
        .iter()
        .map(|(_, inst)| vec![f64::INFINITY; inst.len()])
        .collect();
    let mut best_arrive_cpu_s = vec![f64::INFINITY; pool.len()];
    let mut best_finish_ms = vec![f64::INFINITY; pool.len()];
    let mut wall_s = 0.0;
    let mut arrivals = 0;
    let mut rounds = 0;
    while rounds == 0 || Instant::now() < deadline {
        for (k, (alg, inst)) in pool.iter().enumerate() {
            let s = session(k, *alg, inst, report)?;
            checker.check(&s, report);
            for (best, &us) in best_arrive_us[k].iter_mut().zip(&s.arrive_us) {
                *best = best.min(us);
            }
            best_arrive_cpu_s[k] = best_arrive_cpu_s[k].min(s.arrive_cpu_s);
            best_finish_ms[k] = best_finish_ms[k].min(s.finish_ms);
            wall_s += s.wall_s;
            arrivals += s.arrive_us.len();
        }
        rounds += 1;
    }
    let samples: Vec<f64> = best_arrive_us.concat();
    let arrive = Summary::of(&samples).ok_or("no session has arrivals")?;
    let finish = Summary::of(&best_finish_ms).expect("at least one session ran");
    // Arrival events per CPU-second of the arrival path, the
    // streaming-specific part (`sweep-online` measures the finish
    // path). CPU time, because the hypervisor's steal slows the wall
    // clock but is not CPU time.
    let arrive_cpu_s: f64 = best_arrive_cpu_s.iter().sum();
    let per_cpu_s = samples.len() as f64 / arrive_cpu_s.max(1e-9);
    report.set("throughput_per_s", per_cpu_s);
    report.set("latency_ms.p50", arrive.p50 / 1e3);
    report.set("latency_ms.p90", arrive.p90 / 1e3);
    report.set("peak_rss_mb", crate::peak_rss_mb(None)?);
    report.note(format!(
        "{rounds} round(s) through {} sessions; arrival and finish figures are each call's \
         cheapest repeat",
        pool.len()
    ));
    report.note(format!("arrive_us: {}", arrive.describe("us")));
    report.note(format!("arrive_samples {}", arrive.n));
    report.note(format!("finish_ms: {}", finish.describe("ms")));
    report.note(format!(
        "events_per_s {:.3} 1/s on the wall clock ({arrivals} arrivals over {wall_s:.3} s of \
         sessions, finish included); {per_cpu_s:.3} per CPU-second of the arrival path",
        arrivals as f64 / wall_s,
    ));
    crate::note_steal(report, ticks);
    Ok(())
}

fn traced(
    opts: &Opts,
    pool: &[(Algorithm, QbssInstance)],
    report: &mut Report,
) -> Result<(), String> {
    let deadline = opts.deadline();

    // One pass through the sessions: per-algorithm arrival percentiles
    // of the session wrapper, the output check, and the work counters
    // of exactly one pass.
    let before = crate::counters();
    let mut sessions = Vec::new();
    for (k, (alg, inst)) in pool.iter().enumerate() {
        sessions.push(session(k, *alg, inst, report)?);
    }
    let after = crate::counters();
    crate::set_counter_deltas(report, &before, &after);
    let mut checker = Checker::new(pool);
    for s in &sessions {
        checker.check(s, report);
    }
    for alg in inputs::STREAM_ALGS {
        let samples: Vec<f64> = sessions
            .iter()
            .filter(|s| pool[s.pool_index].0 == alg)
            .flat_map(|s| s.arrive_us.iter().copied())
            .collect();
        let sum = Summary::of(&samples).ok_or_else(|| format!("no {alg} arrival was accepted"))?;
        let (p50, p99) = match alg {
            Algorithm::Avrq => (
                "bench.stream.arrive_us.avrq.p50",
                "bench.stream.arrive_us.avrq.p99",
            ),
            Algorithm::Oaq => (
                "bench.stream.arrive_us.oaq.p50",
                "bench.stream.arrive_us.oaq.p99",
            ),
            _ => (
                "bench.stream.arrive_us.bkpq.p50",
                "bench.stream.arrive_us.bkpq.p99",
            ),
        };
        report.set(p50, sum.p50);
        report.set(p99, sum.p99);
        report.note(format!(
            "bench.stream.arrive_us.{}: {}",
            alg.family(),
            sum.describe("us")
        ));
    }
    let finish: Vec<f64> = sessions.iter().map(|s| s.finish_ms).collect();
    report.note(format!(
        "session finish median {:.3} ms",
        stats::median(&finish).unwrap_or(0.0)
    ));

    let mut tracer = Tracer::new(true);
    let seed = opts.seed;
    let walls = crate::replay_pairs(deadline, &mut tracer, |t| replay(t, seed))?;
    crate::finish_traced(opts, report, &tracer, walls)
}

/// One layer-by-layer pass: each session's arrivals straight into the
/// streaming core, then its finish, validation and energy.
fn replay(t: &mut Tracer, seed: u64) -> Result<(), String> {
    let pool = t.call("instances.gen", || inputs::stream_sessions(seed));
    for (alg, inst) in &pool {
        let solver = t.span("core.stream.feed", |t| {
            let mut solver = solver_for(*alg).map_err(|e| e.to_string())?;
            for job in arrival_ordered(inst) {
                t.call("core.stream.arrive", || solver.on_arrival(job))
                    .map_err(|e| e.to_string())?;
            }
            Ok::<_, String>(solver)
        })?;
        let outcome = t
            .call("core.stream.finish", || solver.finish())
            .map_err(|e| format!("{alg}: {e}"))?;
        t.call("core.outcome.validate", || outcome.validate(inst))
            .map_err(|e| format!("{alg}: {e}"))?;
        std::hint::black_box(t.call("core.outcome.energy", || {
            (outcome.energy(ALPHA), outcome.max_speed())
        }));
    }
    std::hint::black_box(t.call("telemetry.counter_values", crate::counters));
    Ok(())
}
