//! `sweep-online` and `sweep-multi`: closed batches through
//! `qbss_bench::engine::run_sweep`, the path behind `qbss sweep` and the
//! paper's tables.
//!
//! Untraced, the run splits the seed's instance pool into fixed-size
//! batches and sweeps them in rounds until the window closes; each
//! batch's sample is its cheapest sweep, in CPU time. Traced, it sweeps the first instances of the pool once
//! (engine instrumentation and work counters) and then replays them
//! layer by layer.

use std::time::Instant;

use qbss_bench::engine::{run_sweep, EngineReport, InstanceSource, SweepSpec};
use qbss_core::model::QbssInstance;
use qbss_core::pipeline::{run_evaluated, Algorithm};
use qbss_core::stream::{arrival_ordered, solver_for};
use speed_scaling::multi::{multi_opt_frank_wolfe, opt_lower_bound};

use crate::report::Report;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{inputs, Opts, Workload};

/// The grid one sweep runs.
struct Shape {
    algorithms: Vec<Algorithm>,
    alphas: Vec<f64>,
    /// Instances per sweep: small, so a round through the pool is
    /// short and every batch is swept many times in a run.
    batch: usize,
    /// Leading pool instances the traced run sweeps and replays (the
    /// whole pool would take minutes to replay call by call).
    traced: usize,
    /// Frank–Wolfe iterations of the multi-machine lower-bound
    /// certificate (0 = off).
    opt_fw_iters: usize,
}

/// Machines of the multi-machine rows.
const MACHINES: usize = 3;
/// Planning iterations of `oaq-m`.
const OAQ_M_FW_ITERS: usize = 10;
/// Certificate iterations (the `POST /sweep` default).
const CERT_FW_ITERS: usize = 8;

fn shape(workload: Workload) -> Shape {
    match workload {
        // BKPQ is left out: one BKPQ cell costs about a hundred OAQ
        // cells at this size and would own the run; `stream-sessions`
        // measures it.
        Workload::SweepOnline => Shape {
            algorithms: vec![Algorithm::Avrq, Algorithm::Oaq],
            alphas: vec![2.0, 3.0],
            batch: 2,
            traced: 32,
            opt_fw_iters: 0,
        },
        _ => Shape {
            algorithms: vec![
                Algorithm::AvrqM { m: MACHINES },
                Algorithm::AvrqMNonmig { m: MACHINES },
                Algorithm::OaqM {
                    m: MACHINES,
                    fw_iters: OAQ_M_FW_ITERS,
                },
            ],
            alphas: vec![3.0],
            batch: 2,
            traced: 12,
            opt_fw_iters: CERT_FW_ITERS,
        },
    }
}

fn spec(shape: &Shape, instances: Vec<QbssInstance>) -> SweepSpec {
    SweepSpec {
        source: InstanceSource::Explicit(instances),
        algorithms: shape.algorithms.clone(),
        alphas: shape.alphas.clone(),
        opt_fw_iters: shape.opt_fw_iters,
    }
}

fn pool(workload: Workload, seed: u64) -> Vec<QbssInstance> {
    if workload == Workload::SweepOnline {
        inputs::sweep_online(seed)
    } else {
        inputs::sweep_multi(seed)
    }
}

/// Output check: every cell evaluated and no proven bound violated.
fn check(engine: &EngineReport, report: &mut Report) {
    report.attempted += engine.records.len() as u64;
    for rec in &engine.records {
        if let Err(e) = &rec.result {
            report.fail(format!(
                "cell (instance {}, alg {}): {e}",
                rec.instance, rec.algorithm
            ));
        }
    }
    for v in engine
        .violations()
        .into_iter()
        .filter(|v| v.starts_with("BOUND VIOLATION"))
    {
        report.fail(v);
    }
}

/// Runs `sweep-online` or `sweep-multi`.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let shape = shape(opts.workload);
    let pool = crate::timed_setup(
        &mut report,
        || Ok(pool(opts.workload, opts.seed)),
        |p| inputs::instances_hash(p),
    )?;
    report.note(format!(
        "{}: {} instances of n={} · {} algorithm(s) × {} α · {} instance(s) per sweep · {} shard(s)",
        opts.workload.name(),
        pool.len(),
        pool[0].len(),
        shape.algorithms.len(),
        shape.alphas.len(),
        shape.batch,
        crate::nproc()
    ));
    if opts.trace {
        traced(opts, &shape, &pool, &mut report)?;
    } else {
        untraced(opts, &shape, &pool, &mut report)?;
    }
    Ok(report)
}

fn untraced(
    opts: &Opts,
    shape: &Shape,
    pool: &[QbssInstance],
    report: &mut Report,
) -> Result<(), String> {
    let shards = crate::nproc();
    let ticks = crate::cpu_ticks();
    let deadline = opts.deadline();
    let specs: Vec<SweepSpec> = pool
        .chunks(shape.batch)
        .map(|batch| spec(shape, batch.to_vec()))
        .collect();
    // Each batch's cost is its cheapest sweep in the window: other
    // tenants of a shared host only ever slow a sweep down, and the
    // rounds spread each batch's repeats over the whole window, so a
    // slow spell of several seconds cannot reach all of them.
    let mut best_cpu_ms = vec![f64::INFINITY; specs.len()];
    let mut cells_per_batch = vec![0; specs.len()];
    let mut sweep_ms = Vec::new();
    let mut rounds = 0;
    while rounds == 0 || Instant::now() < deadline {
        for (b, spec) in specs.iter().enumerate() {
            let t = Instant::now();
            let cpu = crate::process_cpu_seconds();
            let engine =
                run_sweep(spec, shards).map_err(|e| format!("sweep spec rejected: {e}"))?;
            let cpu_ms = (crate::process_cpu_seconds() - cpu) * 1e3;
            sweep_ms.push(t.elapsed().as_secs_f64() * 1e3);
            best_cpu_ms[b] = best_cpu_ms[b].min(cpu_ms);
            cells_per_batch[b] = engine.records.len();
            check(&engine, report);
        }
        rounds += 1;
    }
    // CPU time, not the wall clock: on a shared virtual machine the
    // wall clock of a CPU-bound sweep follows the hypervisor's steal.
    let cost = Summary::of(&best_cpu_ms).expect("at least one batch");
    let wall = Summary::of(&sweep_ms).expect("at least one sweep ran");
    let cells: usize = cells_per_batch.iter().sum();
    let cpu_s: f64 = best_cpu_ms.iter().sum::<f64>() / 1e3;
    let per_cpu_s = cells as f64 / cpu_s.max(1e-9);
    report.set("throughput_per_s", per_cpu_s);
    report.set("latency_ms.p50", cost.p50);
    report.set("latency_ms.p90", cost.p90);
    report.set("peak_rss_mb", crate::peak_rss_mb(None)?);
    report.note(format!(
        "{rounds} round(s) through {} batches: {cells} cells in {cpu_s:.3} s of CPU at each \
         batch's cheapest sweep; {per_cpu_s:.3} cells per CPU-second",
        specs.len()
    ));
    report.note(format!(
        "sweep CPU time, cheapest per batch: {}",
        cost.describe("ms")
    ));
    report.note(format!(
        "cells_per_s (wall clock) {:.3} 1/s; sweep wall time: {}",
        (cells * rounds) as f64 / (sweep_ms.iter().sum::<f64>() / 1e3),
        wall.describe("ms")
    ));
    crate::note_steal(report, ticks);
    Ok(())
}

fn traced(
    opts: &Opts,
    shape: &Shape,
    pool: &[QbssInstance],
    report: &mut Report,
) -> Result<(), String> {
    let deadline = opts.deadline();
    let shards = crate::nproc();

    // One real sweep over the traced instances: engine instrumentation,
    // the output check, and the work counters of exactly one pass.
    let sample = &pool[..shape.traced.min(pool.len())];
    let before = crate::counters();
    let engine = run_sweep(&spec(shape, sample.to_vec()), shards)
        .map_err(|e| format!("sweep spec rejected: {e}"))?;
    let after = crate::counters();
    check(&engine, report);
    crate::set_counter_deltas(report, &before, &after);
    let instr = &engine.instrumentation;
    let busy: Vec<f64> = instr
        .per_shard
        .iter()
        .map(|s| s.busy.as_secs_f64())
        .collect();
    let busy_sum: f64 = busy.iter().sum();
    let busy_mean = busy_sum / busy.len().max(1) as f64;
    let busy_max = busy.iter().copied().fold(0.0, f64::max);
    report.set(
        "bench.engine.overhead_frac",
        1.0 - busy_sum / (instr.wall.as_secs_f64() * instr.shards as f64),
    );
    report.set(
        "bench.engine.shard_imbalance",
        if busy_mean > 0.0 {
            busy_max / busy_mean
        } else {
            1.0
        },
    );
    report.set("bench.engine.cache_hit_rate", instr.cache_hit_rate());
    report.note(format!(
        "engine pass: {} cells in {:.3} s on {} shard(s)",
        instr.cells,
        instr.wall.as_secs_f64(),
        instr.shards
    ));

    let mut tracer = Tracer::new(true);
    let seed = opts.seed;
    let workload = opts.workload;
    let walls = crate::replay_pairs(deadline, &mut tracer, |t| replay(t, workload, seed, shape))?;
    crate::finish_traced(opts, report, &tracer, walls)
}

/// One layer-by-layer pass over the traced instances: what each sweep
/// cell does, call by call.
fn replay(t: &mut Tracer, workload: Workload, seed: u64, shape: &Shape) -> Result<(), String> {
    let pool = t.call("instances.gen", || pool(workload, seed));
    for inst in pool.iter().take(shape.traced) {
        let opt = t.call("speed-scaling.yds.opt", || inst.opt_cache());
        std::hint::black_box(&opt);
        if workload == Workload::SweepMulti {
            for &alpha in &shape.alphas {
                t.call("speed-scaling.multi.fw_lb", || {
                    let clair = inst.clairvoyant_instance();
                    let mut lb = opt_lower_bound(&clair, MACHINES, alpha);
                    if shape.opt_fw_iters > 0 {
                        lb = lb.max(
                            multi_opt_frank_wolfe(&clair, MACHINES, alpha, shape.opt_fw_iters)
                                .lower_bound(),
                        );
                    }
                    std::hint::black_box(lb)
                });
            }
            for &alg in &shape.algorithms {
                for &alpha in &shape.alphas {
                    let name = match alg.family() {
                        "avrq-m" => "core.pipeline.run.avrq-m",
                        "avrq-m-nonmig" => "core.pipeline.run.avrq-m-nonmig",
                        _ => "core.pipeline.run.oaq-m",
                    };
                    let ev = t.call(name, || run_evaluated(inst, alpha, alg));
                    std::hint::black_box(ev.map_err(|e| format!("{alg}: {e}"))?);
                }
            }
            continue;
        }
        for &alg in &shape.algorithms {
            for &alpha in &shape.alphas {
                let solver = t.call("core.stream.feed", || {
                    let mut solver = solver_for(alg).map_err(|e| e.to_string())?;
                    for job in arrival_ordered(inst) {
                        solver.on_arrival(job).map_err(|e| e.to_string())?;
                    }
                    Ok::<_, String>(solver)
                })?;
                let outcome = t
                    .call("core.stream.finish", || solver.finish())
                    .map_err(|e| format!("{alg}: {e}"))?;
                t.call("core.outcome.validate", || outcome.validate(inst))
                    .map_err(|e| format!("{alg}: {e}"))?;
                std::hint::black_box(t.call("core.outcome.energy", || {
                    (outcome.energy(alpha), outcome.max_speed())
                }));
            }
        }
    }
    std::hint::black_box(t.call("telemetry.counter_values", crate::counters));
    Ok(())
}
