//! Seeded inputs: every workload's instances, request bodies and
//! arrival schedules derive from `--seed` alone, so the same seed gives
//! byte-identical inputs and the program under test sees only these.

use qbss_core::model::QbssInstance;
use qbss_core::pipeline::Algorithm;
use qbss_instances::gen::{generate, Compressibility, GenConfig, QueryModel, TimeModel};
use qbss_instances::io;

/// Instances in the `sweep-online` pool (n = 400 each): 24 sweeps of
/// two, so a round through them takes about a second.
pub const ONLINE_POOL: usize = 48;
/// Jobs per `sweep-online` instance.
pub const ONLINE_N: usize = 400;
/// Instances in the `sweep-multi` pool (n = 32 each): 32 sweeps of
/// two. Their cost varies with the instance far more than online
/// sweeps do, so the pool is larger and a round takes a few seconds.
pub const MULTI_POOL: usize = 64;
/// Jobs per `sweep-multi` instance.
pub const MULTI_N: usize = 32;
/// Jobs per AVRQ/OAQ streaming session.
pub const STREAM_N: usize = 1200;
/// Jobs per BKPQ streaming session: BKP's arrival scan is quadratic in
/// the arrived set, so its sessions are shorter.
pub const STREAM_BKPQ_N: usize = 200;
/// Sessions per algorithm in the `stream-sessions` pool.
pub const STREAM_SESSIONS_PER_ALG: usize = 2;
/// `/evaluate` bodies in the `serve-mixed` pool.
pub const EVALUATE_POOL: usize = 384;
/// `/sweep` bodies in the `serve-mixed` pool.
pub const SWEEP_POOL: usize = 96;
/// Jobs per `/evaluate` instance (and per `/sweep` instance).
pub const SERVE_N: usize = 8;

/// splitmix64: decorrelates a base seed from a stream index.
pub fn derive(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for arrival times and mix draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed` and a stream tag.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(derive(seed, stream))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        derive(self.0, 0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given rate.
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// FNV-1a 64 — fingerprints inputs and schedules.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of instances: every field's IEEE bits, in order.
pub fn instances_hash<'a>(instances: impl IntoIterator<Item = &'a QbssInstance>) -> u64 {
    let mut h = Fnv::default();
    for inst in instances {
        for j in &inst.jobs {
            h.eat(&j.id.to_le_bytes());
            for x in [
                j.release,
                j.deadline,
                j.query_load,
                j.upper_bound,
                j.reveal_exact(),
            ] {
                h.eat(&x.to_bits().to_le_bytes());
            }
        }
        h.eat(&[0xff]);
    }
    h.finish()
}

/// The `online` generator family of `qbss sweep --family online` at
/// size `n`.
fn online_family(n: usize, seed: u64) -> GenConfig {
    GenConfig {
        n,
        seed,
        time: TimeModel::from_name("online", n).expect("`online` is a known family"),
        min_w: 0.5,
        max_w: 4.0,
        query: QueryModel::UniformFraction { lo: 0.1, hi: 0.6 },
        compress: Compressibility::Uniform,
    }
}

/// Dense online instances: about sixty jobs active at any time (twelve
/// releases per time unit, windows of 2–8 units).
fn dense_family(n: usize, seed: u64) -> GenConfig {
    GenConfig {
        time: TimeModel::Online {
            horizon: n as f64 / 12.0,
            min_len: 2.0,
            max_len: 8.0,
        },
        ..online_family(n, seed)
    }
}

/// The `sweep-online` instance pool.
pub fn sweep_online(seed: u64) -> Vec<QbssInstance> {
    (0..ONLINE_POOL as u64)
        .map(|i| generate(&online_family(ONLINE_N, derive(seed, i))))
        .collect()
}

/// The `sweep-multi` instance pool.
pub fn sweep_multi(seed: u64) -> Vec<QbssInstance> {
    (0..MULTI_POOL as u64)
        .map(|i| generate(&online_family(MULTI_N, derive(seed, 1_000 + i))))
        .collect()
}

/// The streamed algorithms, in session order.
pub const STREAM_ALGS: [Algorithm; 3] = [Algorithm::Avrq, Algorithm::Oaq, Algorithm::Bkpq];

/// The `stream-sessions` pool: `(algorithm, instance)` per session.
pub fn stream_sessions(seed: u64) -> Vec<(Algorithm, QbssInstance)> {
    let mut out = Vec::new();
    for round in 0..STREAM_SESSIONS_PER_ALG as u64 {
        for (k, alg) in STREAM_ALGS.into_iter().enumerate() {
            let n = if alg == Algorithm::Bkpq {
                STREAM_BKPQ_N
            } else {
                STREAM_N
            };
            let inst = generate(&dense_family(n, derive(seed, 2_000 + 3 * round + k as u64)));
            out.push((alg, inst));
        }
    }
    out
}

/// One request body of the `serve-mixed` pool.
#[derive(Debug, Clone, PartialEq)]
pub struct Body {
    /// Path and query, e.g. `/evaluate?alg=oaq&alpha=3`.
    pub target: String,
    /// The POST body.
    pub body: String,
}

impl Body {
    /// Whether this is a `/sweep` request.
    pub fn is_sweep(&self) -> bool {
        self.target == "/sweep"
    }
}

/// The `serve-mixed` body pool: `/evaluate` bodies (n = 8 online
/// instances, algorithms rotating avrq → bkpq → oaq) followed by
/// `/sweep` bodies in the shape `qbss loadgen` sends.
#[derive(Debug, Clone)]
pub struct ServePool {
    /// `/evaluate` requests.
    pub evaluate: Vec<Body>,
    /// `/sweep` requests.
    pub sweep: Vec<Body>,
}

/// Builds the `serve-mixed` body pool.
pub fn serve_pool(seed: u64) -> ServePool {
    let evaluate = (0..EVALUATE_POOL as u64)
        .map(|i| {
            let inst = generate(&GenConfig::online_default(SERVE_N, derive(seed, 3_000 + i)));
            let alg = ["avrq", "bkpq", "oaq"][(i % 3) as usize];
            Body {
                target: format!("/evaluate?alg={alg}&alpha=3"),
                body: io::to_json(&inst).expect("generated instances are valid"),
            }
        })
        .collect();
    let sweep = (0..SWEEP_POOL as u64)
        .map(|i| Body {
            target: "/sweep".to_string(),
            body: format!(
                "{{\"count\": 3, \"n\": {SERVE_N}, \"seed\": {}, \"alg\": \"avrq,bkpq\", \
                 \"alpha\": [2, 3]}}",
                derive(seed, 4_000 + i) % 100_000
            ),
        })
        .collect();
    ServePool { evaluate, sweep }
}

impl ServePool {
    /// Fingerprint of every body, in pool order.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for b in self.evaluate.iter().chain(&self.sweep) {
            h.eat(b.target.as_bytes());
            h.eat(&[0]);
            h.eat(b.body.as_bytes());
            h.eat(&[0]);
        }
        h.finish()
    }

    /// The body a planned request sends (indices wrap around the pool).
    pub fn get(&self, sweep: bool, index: usize) -> &Body {
        if sweep {
            &self.sweep[index % self.sweep.len()]
        } else {
            &self.evaluate[index % self.evaluate.len()]
        }
    }
}

/// One planned request of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// When the request is due, in µs from the schedule's start.
    pub due_us: u64,
    /// Whether it is a `/sweep` (else `/evaluate`).
    pub sweep: bool,
    /// Index into the matching body pool.
    pub index: usize,
}

/// Share of `/sweep` requests in the mix.
pub const SWEEP_SHARE: f64 = 0.2;

/// A seeded Poisson schedule at `rate` requests/s over `seconds`: about
/// 80% `/evaluate`, 20% `/sweep`, bodies drawn from the pool. `stream`
/// separates schedules of one seed (warm-up, fixed rate, ladder rungs).
pub fn schedule(seed: u64, stream: u64, rate: f64, seconds: f64) -> Vec<Planned> {
    let mut rng = Rng::new(seed, 5_000 + stream);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exp(rate);
        if t >= seconds {
            return out;
        }
        let sweep = rng.unit() < SWEEP_SHARE;
        let len = if sweep { SWEEP_POOL } else { EVALUATE_POOL };
        let index = (rng.unit() * len as f64) as usize;
        out.push(Planned {
            due_us: (t * 1e6) as u64,
            sweep,
            index,
        });
    }
}

/// Fingerprint of a schedule's `(due, target, body)` triples: two runs
/// with the same seed provably send the same traffic when these match.
pub fn schedule_hash(pool: &ServePool, schedule: &[Planned]) -> u64 {
    let mut h = Fnv::default();
    for p in schedule {
        let b = pool.get(p.sweep, p.index);
        h.eat(&p.due_us.to_le_bytes());
        h.eat(b.target.as_bytes());
        h.eat(&[0]);
        h.eat(b.body.as_bytes());
        h.eat(&[0]);
    }
    h.finish()
}
