//! `serve-mixed`: open-loop HTTP traffic against a `qbss serve` child.
//!
//! One generator thread drives the server with seeded Poisson arrivals
//! over non-blocking sockets, with at most `nproc` connections in
//! flight and a fresh connection per request (the server closes each
//! one). About 80% of requests are `POST /evaluate` on n = 8 online
//! instances (algorithms rotating avrq → bkpq → oaq) and 20% are
//! `POST /sweep` in the `qbss loadgen` grid shape. Every request is
//! timed from the moment it was due, so a stall also counts against
//! the requests queued behind it, and the generator reports how late it
//! sent.
//!
//! Untraced, the run measures latency at one fixed rate well below
//! capacity, then searches a fixed ladder of rates for the highest one
//! that meets the latency objective. Traced, it sends a fixed request
//! list one at a time (the server's own `/metrics` histograms give the
//! handler time; the rest is accept wait, queueing and sockets) and
//! replays the same bodies in-process through decode, pipeline, encode
//! and sweep-request parsing.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qbss_bench::engine::run_sweep;
use qbss_bench::request::SweepRequest;
use qbss_core::pipeline::{run_evaluated, Algorithm};
use qbss_instances::io;

use crate::inputs::{self, Body, Planned, ServePool};
use crate::report::Report;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::Opts;

/// Server worker threads (`qbss serve --workers`).
pub const WORKERS: usize = 2;
/// The fixed rate latency is reported at, requests/s: well below the
/// server's capacity, and fast enough that one run collects the 1000
/// samples a p99 needs to keep ten beyond it.
pub const FIXED_RPS: f64 = 100.0;
/// Connections the open-loop generator may hold in flight. A cap of
/// `nproc` would make the generator's own queue, not the server, set
/// the tail: each request holds its connection for up to one 25 ms
/// accept tick, so two connections saturate near 50 rps.
pub const MAX_IN_FLIGHT: usize = 64;
/// The latency objective of the rate ladder: p99 at most this.
pub const SLO_MS: f64 = 50.0;
/// The ladder's lowest rung, requests/s.
pub const RUNG_BASE: f64 = 20.0;
/// Ratio between neighbouring rungs (4% apart).
pub const RUNG_STEP: f64 = 1.04;
/// Highest rung index.
pub const RUNG_MAX: usize = 100;
/// Un-measured warm-up traffic before the fixed-rate phase.
const WARMUP_S: f64 = 0.5;
/// A request with no complete response by then is a transport error.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// How long the generator sleeps when nothing is due or readable.
const POLL: Duration = Duration::from_micros(100);
/// The fixed request list of the traced run: this many `/evaluate`
/// bodies and this many `/sweep` bodies.
const TRACED_EVALUATES: usize = 32;
const TRACED_SWEEPS: usize = 8;

/// The rate of ladder rung `k`.
pub fn rung_rate(k: usize) -> f64 {
    RUNG_BASE * RUNG_STEP.powi(k as i32)
}

/// Finds the `qbss` binary: `--qbss`, else next to this executable or
/// one directory up (where test executables live).
pub fn qbss_binary(opts: &Opts) -> Result<PathBuf, String> {
    if let Some(p) = &opts.qbss {
        return Ok(p.clone());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    exe.ancestors()
        .skip(1)
        .take(2)
        .map(|dir| dir.join("qbss"))
        .find(|p| p.is_file())
        .ok_or_else(|| {
            format!(
                "no qbss binary next to {} (build it with `cargo build --release --bin qbss` \
                 into the same target directory, or pass --qbss PATH)",
                exe.display()
            )
        })
}

/// How long after the server reports its address the first `/readyz`
/// probe goes out: past the accept loop's first look for connections,
/// and well inside its first 25 ms idle tick.
const READY_PROBE_DELAY: Duration = Duration::from_millis(10);

/// A `qbss serve` child process; killed and reaped on drop.
pub struct Server {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `qbss serve` on an ephemeral port with telemetry events
    /// off and waits until `/readyz` answers 200.
    pub fn start(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &WORKERS.to_string(),
            ])
            .env("QBSS_LOG", "off")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                }
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
            stderr: Some(reader),
        };
        server.addr = rx
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| "qbss serve did not report its address within 10 s".to_string())?;
        // The server prints its address just before its accept loop
        // starts, and the loop looks for connections only once per idle
        // tick. A probe racing the loop's first look is answered at once
        // or a whole tick later, which would make start-up time bimodal;
        // probing after the first look always waits for the next tick.
        std::thread::sleep(READY_PROBE_DELAY);
        let t = Instant::now();
        loop {
            if matches!(http(&server.addr, "GET", "/readyz", ""), Ok((200, _))) {
                return Ok(server);
            }
            if t.elapsed() > Duration::from_secs(10) {
                return Err("qbss serve did not become ready within 10 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The server's `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

fn request_bytes(method: &str, target: &str, body: &str) -> Vec<u8> {
    let length = if method == "POST" {
        format!("Content-Length: {}\r\n", body.len())
    } else {
        String::new()
    };
    format!(
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\n{length}Connection: close\r\n\r\n{body}"
    )
    .into_bytes()
}

/// A response's status and body, or why there is none.
pub type Response = Result<(u16, String), String>;

/// Splits a complete response into status and body.
fn parse_response(raw: &[u8]) -> Response {
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response without a header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {}", head.lines().next().unwrap_or("")))?;
    Ok((status, body.to_string()))
}

/// One blocking request on a fresh connection.
pub fn http(addr: &str, method: &str, target: &str, body: &str) -> Response {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.set_write_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let _ = s.set_nodelay(true);
    s.write_all(&request_bytes(method, target, body))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    parse_response(&raw)
}

/// One request of an open-loop run, as the generator saw it.
#[derive(Debug, Clone)]
pub struct Sent {
    /// What was planned.
    pub planned: Planned,
    /// How late the generator sent it, ms after its due time.
    pub late_ms: f64,
    /// Due time to complete response, ms.
    pub latency_ms: f64,
    /// Send to complete response, ms.
    pub client_ms: f64,
    /// Status and body, or the transport error.
    pub response: Response,
}

struct Conn {
    index: usize,
    stream: TcpStream,
    buf: Vec<u8>,
    due: Instant,
    sent: Instant,
}

/// Opens a connection and sends one request; the socket is then
/// switched to non-blocking for the response.
fn open(addr: &str, body: &Body) -> Result<TcpStream, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = s.set_nodelay(true);
    s.set_write_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.write_all(&request_bytes("POST", &body.target, &body.body))
        .map_err(|e| format!("send: {e}"))?;
    s.set_nonblocking(true).map_err(|e| e.to_string())?;
    Ok(s)
}

fn sent(planned: Planned, due: Instant, sent: Instant, response: Response) -> Sent {
    let now = Instant::now();
    Sent {
        planned,
        late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
        latency_ms: now.saturating_duration_since(due).as_secs_f64() * 1e3,
        client_ms: now.saturating_duration_since(sent).as_secs_f64() * 1e3,
        response,
    }
}

/// Reads what a connection has; `Some` once the response is complete
/// (the server closes the connection) or the request failed.
fn poll(c: &mut Conn, chunk: &mut [u8]) -> (bool, Option<Response>) {
    let mut progressed = false;
    loop {
        match c.stream.read(chunk) {
            Ok(0) => return (true, Some(parse_response(&c.buf))),
            Ok(n) => {
                c.buf.extend_from_slice(&chunk[..n]);
                progressed = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let timed_out = c.sent.elapsed() > REQUEST_TIMEOUT;
                return (
                    progressed || timed_out,
                    timed_out.then(|| Err("no complete response within the timeout".to_string())),
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return (true, Some(Err(format!("receive: {e}")))),
        }
    }
}

/// Sends `schedule` open-loop from one thread with at most `max_conns`
/// connections in flight; returns one [`Sent`] per planned request, in
/// schedule order. A request due while every connection is busy waits
/// in the generator, and that wait counts in its latency.
pub fn drive(addr: &str, pool: &ServePool, schedule: &[Planned], max_conns: usize) -> Vec<Sent> {
    let start = Instant::now();
    let due_of = |p: &Planned| start + Duration::from_micros(p.due_us);
    let mut out: Vec<Option<Sent>> = vec![None; schedule.len()];
    let mut active: Vec<Conn> = Vec::with_capacity(max_conns);
    let mut next = 0;
    let mut chunk = vec![0u8; 16 * 1024];
    while next < schedule.len() || !active.is_empty() {
        let mut progressed = false;
        while active.len() < max_conns
            && next < schedule.len()
            && Instant::now() >= due_of(&schedule[next])
        {
            let p = schedule[next];
            let now = Instant::now();
            match open(addr, pool.get(p.sweep, p.index)) {
                Ok(stream) => active.push(Conn {
                    index: next,
                    stream,
                    buf: Vec::new(),
                    due: due_of(&p),
                    sent: now,
                }),
                Err(e) => out[next] = Some(sent(p, due_of(&p), now, Err(e))),
            }
            next += 1;
            progressed = true;
        }
        let mut i = 0;
        while i < active.len() {
            let (moved, done) = poll(&mut active[i], &mut chunk);
            progressed |= moved;
            match done {
                Some(response) => {
                    let c = active.swap_remove(i);
                    out[c.index] = Some(sent(schedule[c.index], c.due, c.sent, response));
                }
                None => i += 1,
            }
        }
        if !progressed {
            let until_due = schedule
                .get(next)
                .filter(|_| active.len() < max_conns)
                .map(|p| due_of(p).saturating_duration_since(Instant::now()));
            std::thread::sleep(until_due.map_or(POLL, |d| d.min(POLL)));
        }
    }
    out.into_iter()
        .map(|s| s.expect("every planned request completes"))
        .collect()
}

/// The value text of the first `"energy": …` field of a JSON body.
fn energy_field(body: &str) -> Option<&str> {
    let rest = body.split_once("\"energy\": ")?.1;
    Some(rest[..rest.find([',', '}'])?].trim())
}

/// Output check of 200 responses against the in-process library:
/// `/evaluate` energies must equal `run_evaluated`'s, and `/sweep`
/// bodies must equal `run_sweep(..).aggregate_json()` for their spec.
/// Expected answers are computed once per pool body.
struct Checker<'a> {
    pool: &'a ServePool,
    expected: HashMap<(bool, usize), Result<String, String>>,
}

impl<'a> Checker<'a> {
    fn new(pool: &'a ServePool) -> Self {
        Checker {
            pool,
            expected: HashMap::new(),
        }
    }

    fn expected(&mut self, sweep: bool, index: usize) -> &Result<String, String> {
        let body = self.pool.get(sweep, index);
        self.expected
            .entry((sweep, index))
            .or_insert_with(|| expected_answer(body))
    }

    /// `Ok` when the response is a 200 with the right answer.
    fn check(&mut self, planned: Planned, response: &Response) -> Result<(), String> {
        let (status, body) = response
            .as_ref()
            .map_err(|e| format!("transport error: {e}"))?;
        if *status != 200 {
            return Err(format!(
                "status {status}: {}",
                body.chars().take(160).collect::<String>()
            ));
        }
        let want = self
            .expected(planned.sweep, planned.index)
            .as_ref()
            .map_err(|e| format!("in-process run failed: {e}"))?;
        let got = if planned.sweep {
            Some(body.as_str())
        } else {
            energy_field(body)
        };
        if got == Some(want.as_str()) {
            Ok(())
        } else if planned.sweep {
            Err(format!(
                "/sweep body #{} differs from the in-process aggregate",
                planned.index
            ))
        } else {
            Err(format!(
                "/evaluate #{}: energy {got:?}, in-process {want}",
                planned.index
            ))
        }
    }
}

/// The answer the server must give for `body`, computed in-process.
fn expected_answer(body: &Body) -> Result<String, String> {
    if body.is_sweep() {
        let req = SweepRequest::from_json(&body.body).map_err(|e| e.to_string())?;
        let report = run_sweep(&req.spec, req.shards).map_err(|e| e.to_string())?;
        Ok(report.aggregate_json())
    } else {
        let inst = io::from_json(&body.body).map_err(|e| e.to_string())?;
        let ev = run_evaluated(&inst, 3.0, evaluate_alg(body)?).map_err(|e| e.to_string())?;
        Ok(qbss_telemetry::json_f64(ev.energy))
    }
}

/// The `alg` query parameter of an `/evaluate` target.
fn evaluate_alg(body: &Body) -> Result<Algorithm, String> {
    let alg = body
        .target
        .split(['?', '&'])
        .find_map(|kv| kv.strip_prefix("alg="))
        .ok_or_else(|| format!("no alg in {}", body.target))?;
    alg.parse().map_err(|e| format!("{e}"))
}

/// Scrapes the server's `/metrics` exposition text.
fn scrape(addr: &str) -> Result<String, String> {
    match http(addr, "GET", "/metrics", "")? {
        (200, body) => Ok(body),
        (status, _) => Err(format!("/metrics answered {status}")),
    }
}

/// The value of sample `name` in exposition text (0 when absent).
fn sample(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Runs `serve-mixed`.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let bin = qbss_binary(opts)?;
    let mut report = Report::default();
    let (pool, server) = crate::timed_setup(
        &mut report,
        || {
            let pool = inputs::serve_pool(opts.seed);
            let server = Server::start(&bin)?;
            Ok((pool, server))
        },
        |(pool, _)| pool.hash(),
    )?;
    report.note(format!(
        "serve-mixed: qbss serve --workers {WORKERS} at {}; {} /evaluate + {} /sweep bodies; \
         at most {MAX_IN_FLIGHT} connections in flight",
        server.addr(),
        pool.evaluate.len(),
        pool.sweep.len(),
    ));
    if opts.trace {
        traced(opts, &pool, &server, &mut report)?;
    } else {
        untraced(opts, &bin, &pool, server, &mut report)?;
    }
    Ok(report)
}

/// Runs one schedule and notes its fingerprint.
fn run_schedule(
    server: &Server,
    pool: &ServePool,
    report: &mut Report,
    label: &str,
    schedule: &[Planned],
) -> Vec<Sent> {
    report.note(format!(
        "{label}: {} requests, schedule fingerprint {:016x}",
        schedule.len(),
        inputs::schedule_hash(pool, schedule)
    ));
    drive(server.addr(), pool, schedule, MAX_IN_FLIGHT)
}

/// One ladder probe's verdict.
struct Probe {
    pass: bool,
    line: String,
}

fn judge(k: usize, sent: &[Sent]) -> Probe {
    let lat: Vec<f64> = sent.iter().map(|s| s.latency_ms).collect();
    let not_ok = sent
        .iter()
        .filter(|s| !matches!(s.response, Ok((200, _))))
        .count();
    let quarter = (sent.len() / 4).max(1);
    let late_tail: Vec<f64> = sent[sent.len().saturating_sub(quarter)..]
        .iter()
        .map(|s| s.late_ms)
        .collect();
    let late_p50 = crate::stats::median(&late_tail).unwrap_or(0.0);
    let Some(sum) = Summary::of(&lat) else {
        return Probe {
            pass: false,
            line: format!("rung {k}: no requests"),
        };
    };
    let pass = not_ok == 0 && sum.p99 <= SLO_MS && late_p50 <= 10.0;
    Probe {
        pass,
        line: format!(
            "rung {k} ({:.2} rps): {} · non-200 {not_ok} · last-quarter lateness p50 {late_p50:.3} ms → {}",
            rung_rate(k),
            sum.describe("ms"),
            if pass { "meets the objective" } else { "misses the objective" }
        ),
    }
}

fn untraced(
    opts: &Opts,
    bin: &Path,
    pool: &ServePool,
    server: Server,
    report: &mut Report,
) -> Result<(), String> {
    let ticks = crate::cpu_ticks();
    let warm = run_schedule(
        &server,
        pool,
        report,
        "warm-up",
        &inputs::schedule(opts.seed, 0, FIXED_RPS, WARMUP_S),
    );

    let fixed_s = 0.6 * opts.seconds;
    let fixed = run_schedule(
        &server,
        pool,
        report,
        &format!("open loop at {FIXED_RPS} rps for {fixed_s:.1} s"),
        &inputs::schedule(opts.seed, 1, FIXED_RPS, fixed_s),
    );
    // The server's high-water mark, then its whole CPU time once it has
    // exited (getrusage of the reaped child is exact, unlike the
    // tick-sampled /proc times). The ladder's overload probes run on a
    // fresh server.
    let rss = crate::peak_rss_mb(Some(server.pid()))?;
    let cpu_before = crate::children_cpu_seconds();
    drop(server);
    let cpu_s = crate::children_cpu_seconds() - cpu_before;
    let served = warm
        .iter()
        .chain(&fixed)
        .filter(|s| matches!(s.response, Ok((200, _))))
        .count();
    let per_cpu_s = served as f64 / cpu_s.max(1e-3);
    report.note(format!(
        "server CPU: {served} answered requests in {cpu_s:.3} s of server CPU = {per_cpu_s:.1} \
         requests per CPU-second"
    ));
    let ladder_server = Server::start(bin)?;
    let (max_rps, ladder_sent) = ladder(opts, pool, &ladder_server, report, 0.3 * opts.seconds);
    drop(ladder_server);

    // Output checks, outside every timed window. Non-200 answers on
    // ladder rungs are the rung's verdict, not failures of the run; a
    // 200 with a wrong answer is a failure anywhere.
    let mut checker = Checker::new(pool);
    for s in warm.iter().chain(&fixed) {
        report.attempted += 1;
        if let Err(e) = checker.check(s.planned, &s.response) {
            report.fail(e);
        }
    }
    for s in &ladder_sent {
        report.attempted += 1;
        if matches!(s.response, Ok((200, _))) {
            if let Err(e) = checker.check(s.planned, &s.response) {
                report.fail(e);
            }
        }
    }

    let lat: Vec<f64> = fixed.iter().map(|s| s.latency_ms).collect();
    let sum = Summary::of(&lat).ok_or("the fixed-rate schedule is empty")?;
    let late_max = fixed.iter().map(|s| s.late_ms).fold(0.0, f64::max);
    // Goodput: answers within the latency objective per second of the
    // fixed-rate window. Requests per server CPU-second (noted above)
    // would measure capacity, but on a shared two-core machine it moved
    // ±20% between runs of the same code.
    let good = fixed
        .iter()
        .filter(|s| matches!(s.response, Ok((200, _))) && s.latency_ms <= SLO_MS)
        .count();
    let goodput = good as f64 / fixed_s;
    report.set("throughput_per_s", goodput);
    report.note(format!(
        "goodput {goodput:.3} 1/s: {good} of {} requests answered 200 within {SLO_MS} ms of their due time",
        fixed.len()
    ));
    report.set("latency_ms.p50", sum.p50);
    report.set("latency_ms.p90", sum.p90);
    report.set("peak_rss_mb", rss);
    report.note(format!(
        "latency_ms at {FIXED_RPS} rps (from due time): {}",
        sum.describe("ms")
    ));
    report.note(format!("lat_samples {}", sum.n));
    report.note(format!(
        "loadgen.late_ms.max {late_max:.3} ms (open loop at {FIXED_RPS} rps)"
    ));
    report.note(format!("max_rps_at_slo {max_rps:.3} 1/s"));
    crate::note_steal(report, ticks);
    Ok(())
}

/// The rate ladder: the highest rung whose p99 (from due time) stays
/// within [`SLO_MS`] with every answer a 200 and no standing generator
/// lateness. Starts at the fixed rate's rung, walks up in doubling
/// steps until a rung misses, then bisects, all within `budget_s`; a
/// search cut short reports the best rung it proved. Returns the rate
/// and every request sent.
fn ladder(
    opts: &Opts,
    pool: &ServePool,
    server: &Server,
    report: &mut Report,
    budget_s: f64,
) -> (f64, Vec<Sent>) {
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
    let probe_s = (budget_s / 6.0).clamp(0.5, 2.0);
    let mut sent_all = Vec::new();
    let mut probe = |k: usize, report: &mut Report| -> bool {
        let sched = inputs::schedule(opts.seed, 100 + k as u64, rung_rate(k), probe_s);
        let sent = drive(server.addr(), pool, &sched, MAX_IN_FLIGHT);
        let verdict = judge(k, &sent);
        report.note(verdict.line);
        sent_all.extend(sent);
        verdict.pass
    };
    let start = ((FIXED_RPS / RUNG_BASE).ln() / RUNG_STEP.ln()).round() as usize;
    let (mut lo, mut hi): (Option<usize>, Option<usize>) = (None, None);
    let mut step = 8;
    let mut k = start.min(RUNG_MAX);
    while Instant::now() < deadline {
        if probe(k, report) {
            lo = Some(k);
            if k == RUNG_MAX {
                break;
            }
            k = (k + step).min(RUNG_MAX);
            step *= 2;
        } else {
            hi = Some(k);
            break;
        }
    }
    if lo.is_none() && hi == Some(start) {
        // Even the fixed rate misses: walk down.
        let mut k = start;
        while k > 0 && lo.is_none() && Instant::now() < deadline {
            k = k.saturating_sub(8);
            if probe(k, report) {
                lo = Some(k);
            } else {
                hi = Some(k);
            }
        }
    }
    while let (Some(l), Some(h)) = (lo, hi) {
        if h - l <= 1 || Instant::now() >= deadline {
            break;
        }
        let mid = (l + h) / 2;
        if probe(mid, report) {
            lo = Some(mid);
        } else {
            hi = Some(mid);
        }
    }
    let resolved = matches!((lo, hi), (Some(l), Some(h)) if h == l + 1) || lo == Some(RUNG_MAX);
    report.note(format!(
        "ladder: highest rung meeting the objective {} ({:.3} rps), lowest missing {}{}",
        lo.map_or("none".to_string(), |l| l.to_string()),
        lo.map_or(0.0, rung_rate),
        hi.map_or("none".to_string(), |h| h.to_string()),
        if resolved {
            ""
        } else {
            " (search cut short by its time budget: a lower bound)"
        }
    ));
    (lo.map_or(0.0, rung_rate), sent_all)
}

fn traced(
    opts: &Opts,
    pool: &ServePool,
    server: &Server,
    report: &mut Report,
) -> Result<(), String> {
    let addr = server.addr();
    let list: Vec<(bool, usize)> = (0..TRACED_EVALUATES)
        .map(|i| (false, i))
        .chain((0..TRACED_SWEEPS).map(|i| (true, i)))
        .collect();
    let metrics_before = scrape(addr)?;
    let mut responses: Vec<(Planned, Response)> = Vec::new();
    let mut client_ms: Vec<f64> = Vec::new();
    let seed = opts.seed;

    // One pass of each half: the request list over HTTP, one at a time,
    // then the same bodies through the library layers in-process.
    let mut pass = |t: &mut Tracer| -> Result<(), String> {
        let pool = t.call("instances.gen", || inputs::serve_pool(seed));
        for &(sweep, index) in &list {
            let b = pool.get(sweep, index);
            let started = Instant::now();
            let response = t.call("cli.serve.request", || {
                http(addr, "POST", &b.target, &b.body)
            });
            client_ms.push(started.elapsed().as_secs_f64() * 1e3);
            responses.push((
                Planned {
                    due_us: 0,
                    sweep,
                    index,
                },
                response,
            ));
        }
        for &(sweep, index) in &list {
            let b = pool.get(sweep, index);
            if sweep {
                let req = t
                    .call("bench.request.parse", || SweepRequest::from_json(&b.body))
                    .map_err(|e| e.to_string())?;
                let agg = t.call("bench.engine.sweep", || {
                    run_sweep(&req.spec, req.shards).map(|r| r.aggregate_json())
                });
                std::hint::black_box(agg.map_err(|e| e.to_string())?);
            } else {
                let inst = t
                    .call("instances.io.decode", || io::from_json(&b.body))
                    .map_err(|e| e.to_string())?;
                let alg = evaluate_alg(b)?;
                let ev = t
                    .call("core.pipeline.run", || run_evaluated(&inst, 3.0, alg))
                    .map_err(|e| e.to_string())?;
                std::hint::black_box(
                    t.call("instances.io.encode", || io::outcome_to_json(&ev.outcome)),
                );
            }
        }
        std::hint::black_box(t.call("telemetry.counter_values", crate::counters));
        Ok(())
    };

    let before = crate::counters();
    pass(&mut Tracer::new(false))?;
    let after = crate::counters();
    crate::set_counter_deltas(report, &before, &after);

    let mut tracer = Tracer::new(true);
    let deadline = Instant::now() + Duration::from_secs_f64(0.8 * opts.seconds);
    let walls = crate::replay_pairs(deadline, &mut tracer, &mut pass)?;

    // A short open-loop phase at the fixed rate for the generator's
    // lateness.
    let open_s = (0.2 * opts.seconds).clamp(0.5, 4.0);
    let sched = inputs::schedule(seed, 2, FIXED_RPS, open_s);
    let open_loop = run_schedule(server, pool, report, "open-loop lateness probe", &sched);
    let late_max = open_loop.iter().map(|s| s.late_ms).fold(0.0, f64::max);
    client_ms.extend(open_loop.iter().map(|s| s.client_ms));
    responses.extend(open_loop.into_iter().map(|s| (s.planned, s.response)));
    report.set("loadgen.late_ms.max", late_max);

    let metrics_after = scrape(addr)?;
    let delta = |name: &str| sample(&metrics_after, name) - sample(&metrics_before, name);
    let mean_ms = |hist: &str| {
        let n = delta(&format!("{hist}_count"));
        if n > 0.0 {
            delta(&format!("{hist}_sum")) / n / 1e3
        } else {
            0.0
        }
    };
    let handler_all = mean_ms("serve_request_dur_us");
    let client_mean = client_ms.iter().sum::<f64>() / client_ms.len().max(1) as f64;
    report.set(
        "cli.serve.handler_ms.evaluate",
        mean_ms("serve_request_dur_us_evaluate"),
    );
    report.set(
        "cli.serve.handler_ms.sweep",
        mean_ms("serve_request_dur_us_sweep"),
    );
    report.set("cli.serve.outside_handler_ms", client_mean - handler_all);
    report.set("cli.serve.shed", delta("serve_shed"));
    report.note(format!(
        "server: {} work requests between scrapes, mean handler {handler_all:.4} ms, mean client \
         round trip {client_mean:.4} ms over {} requests",
        delta("serve_request_dur_us_count"),
        client_ms.len()
    ));

    let mut checker = Checker::new(pool);
    for (planned, response) in &responses {
        report.attempted += 1;
        if let Err(e) = checker.check(*planned, response) {
            report.fail(e);
        }
    }
    crate::finish_traced(opts, report, &tracer, walls)
}
