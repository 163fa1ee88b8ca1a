//! Open-loop serving workloads against a `qsnc serve` child process.
//!
//! One connection and two threads: this thread sends pre-encoded frames on
//! a seeded Poisson schedule, a receiver thread reads replies and
//! bit-compares each against the fixture's expected output. Latency is
//! timed from each request's due time, so a stall also delays the requests
//! queued behind it instead of silently lowering the offered load.

use crate::child::{Result, Serve, ServeSpec};
use crate::fixtures::Fixture;
use crate::report::Report;
use crate::schedule::{self, SplitMix};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::Ctx;
use qsnc_serve::protocol;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// serve_paced offered load: low enough that the server idles between
/// requests and batches stay at size 1.
pub const PACED_RPS: f64 = 500.0;
/// serve_capacity's pinned rate: below the SLO capacity on a 2-core host,
/// so latency there reflects batching and routing rather than overload.
pub const PINNED_RPS: f64 = 1200.0;
/// Share of serve_capacity requests routed to AlexNet.
const ALEXNET_SHARE: f64 = 0.1;
/// Capacity SLO: p90 from due time, failure share. The tail quantile is
/// p90, not p99: on a shared 2-vCPU host a bare 200 µs sleep overshoots by
/// ~0.35 ms at p99 and ~1.2 ms at p99.9, so a p99 verdict flips with
/// outside scheduler noise long before the server saturates.
const SLO_P90_US: f64 = 2000.0;
const SLO_FAILED_FRAC: f64 = 0.001;
/// Ladder: first probe, bracket factor, probes per run.
const LADDER_START_RPS: f64 = 2000.0;
const LADDER_FACTOR: f64 = 1.25;
const LADDER_PROBES: usize = 14;
/// Operator `/metrics` scrape interval.
const SCRAPE_EVERY: Duration = Duration::from_millis(250);
/// Spawn-to-first-reply repetitions behind `setup_s`.
const SETUP_REPS: usize = 9;
/// How long after the last due time a missing reply counts as timed out.
const DRAIN: Duration = Duration::from_millis(500);

const STATUS_OK: u8 = 0;
const STATUS_BUSY: u8 = 1;
const STATUS_UNKNOWN_MODEL: u8 = 4;

/// Pre-encoded request frames and the reply payload each must produce.
pub struct Plan {
    frames: Vec<Vec<u8>>,
    expected: Arc<Vec<Vec<u8>>>,
    /// First frame index of each model.
    offsets: Vec<usize>,
}

impl Plan {
    /// v2 tagged frames for one model, or v3 frames routed by model id
    /// (the position in `fixtures`) when `routed`.
    pub fn new(fixtures: &[&Fixture], routed: bool) -> Plan {
        let mut plan = Plan {
            frames: Vec::new(),
            expected: Arc::new(Vec::new()),
            offsets: Vec::new(),
        };
        let mut expected = Vec::new();
        for (model, fx) in fixtures.iter().enumerate() {
            plan.offsets.push(plan.frames.len());
            for (x, out) in fx.inputs.iter().zip(&fx.expected) {
                let mut frame = Vec::new();
                if routed {
                    protocol::write_request_routed(&mut frame, 0, model as u32, x.as_slice())
                } else {
                    protocol::write_request_tagged(&mut frame, 0, x.as_slice())
                }
                .expect("writing to a Vec cannot fail");
                plan.frames.push(frame);
                expected.push(ok_payload(out));
            }
        }
        plan.expected = Arc::new(expected);
        plan
    }

    /// A seeded arrival schedule at `rate` for `duration`; each request
    /// picks a pool input, from the second model with `share2`.
    pub fn arm(&self, rate: f64, duration: Duration, share2: f64, rng: &mut SplitMix) -> Arm {
        let due = schedule::poisson(rate, duration, rng);
        let frame = due
            .iter()
            .map(|_| {
                let model = usize::from(self.offsets.len() > 1 && rng.unit() <= share2);
                let start = self.offsets[model];
                let end = self
                    .offsets
                    .get(model + 1)
                    .copied()
                    .unwrap_or(self.frames.len());
                (start + rng.below(end - start)) as u32
            })
            .collect();
        Arm { due, frame }
    }
}

/// The reply payload `encode_ok_reply` produces for `logits`.
fn ok_payload(logits: &[f32]) -> Vec<u8> {
    let mut frame = Vec::new();
    protocol::encode_ok_reply(&mut frame, Some(0), argmax(logits), logits);
    frame.split_off(protocol::HEADER_V2_BYTES)
}

/// Lowest index of the largest logit, the server's tie-break.
fn argmax(v: &[f32]) -> u32 {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best as u32
}

/// One schedule: due offsets and the frame each request sends.
pub struct Arm {
    due: Vec<Duration>,
    frame: Vec<u32>,
}

/// What happened to every request of one arm.
#[derive(Default)]
pub struct Outcome {
    pub sent: usize,
    pub ok: usize,
    pub busy: usize,
    pub unknown_model: usize,
    pub mismatched: usize,
    pub other: usize,
    pub timeouts: usize,
    /// Per request, latency from due time in µs; infinite when failed.
    pub latency_us: Vec<f64>,
    pub lag_us: Vec<f64>,
    pub scrape_ms: Vec<f64>,
    pub scrape_failed: usize,
    pub duration: Duration,
    due: Vec<Instant>,
    done: Vec<Option<Instant>>,
}

impl Outcome {
    pub fn failed(&self) -> usize {
        self.sent - self.ok
    }

    /// Latencies of the requests that succeeded.
    pub fn ok_latencies(&self) -> Vec<f64> {
        self.latency_us
            .iter()
            .copied()
            .filter(|l| l.is_finite())
            .collect()
    }

    /// SLO verdict: p90 (failures count as missing it) and failure share
    /// within bounds, and no growing backlog — the last tenth of requests
    /// must still meet the limit at their median.
    pub fn meets_slo(&self) -> bool {
        let n = self.latency_us.len();
        if n == 0 {
            return false;
        }
        let tail = median(&self.latency_us[n - n.div_ceil(10)..]);
        percentile(&self.latency_us, 0.90) <= SLO_P90_US
            && self.failed() as f64 / n as f64 <= SLO_FAILED_FRAC
            && tail <= SLO_P90_US
    }

    pub fn summary(&self, label: &str, rate: f64) -> String {
        let l = self.ok_latencies();
        format!(
            "{label}: offered {rate:.0}/s sent {} ok {} failed {} (busy {}, unknown {}, mismatched {}, timeouts {}, other {}) p50 {:.1}us p90 {:.1}us p99 {:.1}us lag p99 {:.1}us{}",
            self.sent,
            self.ok,
            self.failed(),
            self.busy,
            self.unknown_model,
            self.mismatched,
            self.timeouts,
            self.other,
            percentile(&l, 0.5),
            percentile(&self.latency_us, 0.90),
            percentile(&self.latency_us, 0.99),
            percentile(&self.lag_us, 0.99),
            if self.meets_slo() { " SLO met" } else { " SLO missed" },
        )
    }

    /// Client-side request spans, due time to reply.
    fn record_spans(&self, tracer: &mut Tracer, name: &'static str) {
        for (i, (due, done)) in self.due.iter().zip(&self.done).enumerate() {
            if let Some(done) = done {
                tracer.record(name, *due, *done, None, i as u64);
            }
        }
    }
}

/// Client-timed `GET /metrics` driven without blocking the sender: the
/// request is written when due and the response read whenever the sender
/// is idle, so scraping never delays a send.
struct Scraper {
    addr: SocketAddr,
    next: Instant,
    open: Option<(TcpStream, Instant)>,
    times_ms: Vec<f64>,
    /// Scrapes that failed (connect, write or read error); an operator
    /// scrape failing is recorded, not fatal to the measurement.
    failed: usize,
}

impl Scraper {
    fn poll(&mut self, now: Instant) {
        if let Some((conn, t0)) = self.open.as_mut() {
            let mut buf = [0u8; 16 * 1024];
            loop {
                match conn.read(&mut buf) {
                    Ok(0) => {
                        self.times_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        self.open = None;
                        return;
                    }
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                    Err(_) => {
                        self.failed += 1;
                        self.open = None;
                        return;
                    }
                }
            }
        }
        if now >= self.next {
            self.next += SCRAPE_EVERY;
            let t0 = Instant::now();
            let opened = TcpStream::connect(self.addr).and_then(|mut conn| {
                conn.write_all(
                    b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n",
                )?;
                conn.set_nonblocking(true)?;
                Ok(conn)
            });
            match opened {
                Ok(conn) => self.open = Some((conn, t0)),
                Err(_) => self.failed += 1,
            }
        }
    }

    /// Completes an open scrape, blocking.
    fn finish(&mut self) {
        if let Some((conn, _)) = self.open.as_mut() {
            if conn.set_nonblocking(false).is_err() {
                self.failed += 1;
                self.open = None;
            }
            self.next = Instant::now() + Duration::from_secs(3600);
            while self.open.is_some() {
                self.poll(Instant::now());
            }
        }
    }
}

/// Drives one arm over a fresh connection and accounts for every request.
pub fn drive(
    addr: SocketAddr,
    plan: &mut Plan,
    arm: &Arm,
    scrape: Option<SocketAddr>,
) -> Result<Outcome> {
    let n = arm.due.len();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_read_timeout(Some(Duration::from_millis(5)))
        .map_err(|e| e.to_string())?;
    let start = Instant::now() + Duration::from_millis(5);
    let due: Vec<Instant> = arm.due.iter().map(|d| start + *d).collect();
    let last_due = due.last().copied().unwrap_or(start);
    let sent_all = Arc::new(AtomicBool::new(false));
    let expected = Arc::clone(&plan.expected);
    let frame_of: Arc<Vec<u32>> = Arc::new(arm.frame.clone());
    let receiver = {
        let sent_all = Arc::clone(&sent_all);
        std::thread::spawn(move || receive(reader, n, &expected, &frame_of, &sent_all, last_due))
    };

    let mut scraper = scrape.map(|addr| Scraper {
        addr,
        next: start,
        open: None,
        times_ms: Vec::new(),
        failed: 0,
    });
    let mut lag_us = Vec::with_capacity(n);
    let mut send_err = None;
    for (i, (&at, &f)) in due.iter().zip(&arm.frame).enumerate() {
        if let Some(s) = scraper.as_mut() {
            // Poll the scrape while waiting; the sender spins only in the
            // last stretch before a due time.
            while Instant::now() + Duration::from_micros(300) < at {
                s.poll(Instant::now());
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        schedule::wait_until(at);
        lag_us.push(schedule::lag_us(at, Instant::now()));
        let frame = &mut plan.frames[f as usize];
        frame[6..10].copy_from_slice(&(i as u32).to_le_bytes());
        if let Err(e) = stream.write_all(frame) {
            send_err = Some(format!("send failed after {i} requests: {e}"));
            break;
        }
    }
    let duration = due
        .last()
        .map_or(Duration::ZERO, |d| d.saturating_duration_since(start));
    sent_all.store(true, Ordering::SeqCst);
    if let Some(s) = scraper.as_mut() {
        s.finish();
    }
    let received = receiver.join().expect("receiver thread panicked");
    if let Some(e) = send_err {
        return Err(e);
    }
    let received = received?;
    let mut out = Outcome {
        sent: lag_us.len(),
        lag_us,
        scrape_failed: scraper.as_ref().map_or(0, |s| s.failed),
        scrape_ms: scraper.map_or(Vec::new(), |s| s.times_ms),
        duration,
        ..Outcome::default()
    };
    for (i, r) in received.into_iter().enumerate().take(out.sent) {
        let latency = match r {
            Some((STATUS_OK, true, at)) => {
                out.ok += 1;
                out.done.push(Some(at));
                out.latency_us
                    .push(at.saturating_duration_since(due[i]).as_secs_f64() * 1e6);
                continue;
            }
            Some((STATUS_OK, false, _)) => &mut out.mismatched,
            Some((STATUS_BUSY, _, _)) => &mut out.busy,
            Some((STATUS_UNKNOWN_MODEL, _, _)) => &mut out.unknown_model,
            Some(_) => &mut out.other,
            None => &mut out.timeouts,
        };
        *latency += 1;
        out.done.push(None);
        out.latency_us.push(f64::INFINITY);
    }
    out.due = due[..out.sent].to_vec();
    Ok(out)
}

/// Per request: `(status, payload bit-identical, arrival)`, or `None` when
/// no reply arrived within `DRAIN` of the last send (or of the last due
/// time, if the sender finished early).
type Received = Vec<Option<(u8, bool, Instant)>>;

fn receive(
    mut reader: TcpStream,
    n: usize,
    expected: &[Vec<u8>],
    frame_of: &[u32],
    sent_all: &AtomicBool,
    last_due: Instant,
) -> Result<Received> {
    let mut deadline: Option<Instant> = None;
    let mut got: Received = vec![None; n];
    let mut answered = 0;
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let h = protocol::HEADER_V2_BYTES;
    while answered < n {
        match reader.read(&mut chunk) {
            Ok(0) => {
                return Err(format!(
                    "server closed the connection after {answered} of {n} replies"
                ))
            }
            Ok(k) => {
                let now = Instant::now();
                buf.extend_from_slice(&chunk[..k]);
                let mut at = 0;
                while buf.len() - at >= h {
                    let head = &buf[at..at + h];
                    let len =
                        u32::from_le_bytes(head[10..14].try_into().expect("4 bytes")) as usize;
                    if head[..4] != protocol::MAGIC.to_le_bytes() || head[4] != protocol::VERSION_V2
                    {
                        return Err("malformed reply frame".to_string());
                    }
                    if buf.len() - at < h + len {
                        break;
                    }
                    let tag = u32::from_le_bytes(head[6..10].try_into().expect("4 bytes")) as usize;
                    let status = head[5];
                    let payload = &buf[at + h..at + h + len];
                    if tag >= n || got[tag].is_some() {
                        return Err(format!("reply for unknown or repeated tag {tag}"));
                    }
                    let same = status == STATUS_OK
                        && payload == expected[frame_of[tag] as usize].as_slice();
                    got[tag] = Some((status, same, now));
                    answered += 1;
                    at += h + len;
                }
                buf.drain(..at);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(format!("reading replies: {e}")),
        }
        if deadline.is_none() && sent_all.load(Ordering::SeqCst) {
            deadline = Some(Instant::now().max(last_due) + DRAIN);
        }
        if deadline.is_some_and(|d| Instant::now() > d) {
            break;
        }
    }
    Ok(got)
}

/// Blocking HTTP GET returning the response body.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("admin connect: {e}"))?;
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut text = String::new();
    conn.read_to_string(&mut text).map_err(|e| e.to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("truncated HTTP response")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("GET {path}: {}", head.lines().next().unwrap_or("")));
    }
    Ok(body.to_string())
}

/// Spawns a server and times spawn → first bit-identical Ok reply.
fn spawn_timed(ctx: &Ctx, spec: &ServeSpec, plan: &Plan) -> Result<(Serve, f64)> {
    let t0 = Instant::now();
    let server = Serve::spawn(&ctx.qsnc, spec)?;
    let mut conn = TcpStream::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    conn.write_all(&plan.frames[0]).map_err(|e| e.to_string())?;
    let reply = protocol::read_reply(&mut conn).map_err(|e| format!("first reply: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    let mut payload = reply.argmax.to_le_bytes().to_vec();
    payload.extend_from_slice(&(reply.logits.len() as u32).to_le_bytes());
    payload.extend(reply.logits.iter().flat_map(|v| v.to_le_bytes()));
    if reply.status != protocol::Status::Ok || payload != plan.expected[0] {
        return Err(format!("first reply is not the expected output: {reply:?}"));
    }
    Ok((server, secs))
}

/// `SETUP_REPS` timed start-ups; returns the last server and the median.
fn setup(ctx: &Ctx, spec: &ServeSpec, plan: &Plan, report: &mut Report) -> Result<(Serve, f64)> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (server, secs) = spawn_timed(ctx, spec, plan)?;
        times.push(secs);
        last = Some(server);
    }
    report.note(format!("setup samples (s): {times:?}"));
    Ok((last.expect("SETUP_REPS > 0"), median(&times)))
}

fn paced_spec(fx: &Fixture, traced: bool) -> ServeSpec<'_> {
    ServeSpec {
        artifacts: vec![(None, fx.artifact.clone())],
        admin: traced,
        telemetry: traced,
    }
}

fn capacity_spec(fixtures: &[&Fixture]) -> ServeSpec<'static> {
    ServeSpec {
        artifacts: fixtures
            .iter()
            .map(|f| (Some(f.net.name()), f.artifact.clone()))
            .collect(),
        admin: true,
        telemetry: false,
    }
}

/// A short unrecorded arm so the measured arm starts on a warm server.
fn warm_up(
    server: &mut Serve,
    plan: &mut Plan,
    rate: f64,
    share2: f64,
    rng: &mut SplitMix,
) -> Result<()> {
    let arm = plan.arm(rate, Duration::from_millis(300), share2, rng);
    drive(server.addr, plan, &arm, None)?;
    server.check_alive()
}

fn account(report: &mut Report, o: &Outcome) {
    report.attempted += o.sent as u64;
    report.failed += o.failed() as u64;
    report.check(o.mismatched == 0, || {
        format!("{} replies differ from the expected output", o.mismatched)
    });
}

/// `latency_us` is the p50 from due time. Tails stay in the run record
/// (`summary`) and the traced pass, not in the gated metrics: the host
/// stalls the whole guest for milliseconds in storms lasting minutes, and
/// the p90 of the same workload moved 0.6–3.4 ms between runs with them.
fn latency_metric(report: &mut Report, o: &Outcome) {
    let l = o.ok_latencies();
    report.add("latency_us", percentile(&l, 0.5), "us", l.len());
}

/// serve_paced, untraced.
pub fn paced(ctx: &Ctx, fx: &Fixture, report: &mut Report) -> Result<f64> {
    let mut plan = Plan::new(&[fx], false);
    let mut rng = SplitMix::new(ctx.seed);
    let (mut server, setup_s) = setup(ctx, &paced_spec(fx, false), &plan, report)?;
    warm_up(&mut server, &mut plan, PACED_RPS, 0.0, &mut rng)?;
    let arm = plan.arm(PACED_RPS, ctx.budget(0.8), 0.0, &mut rng);
    let o = drive(server.addr, &mut plan, &arm, None)?;
    server.check_alive()?;
    report.note(o.summary("paced", PACED_RPS));
    account(report, &o);
    report.add("setup_s", setup_s, "s", SETUP_REPS);
    latency_metric(report, &o);
    report.add(
        "throughput_per_s",
        o.ok as f64 / o.duration.as_secs_f64(),
        "1/s",
        o.ok,
    );
    report.add("peak_rss_mb", server.peak_rss_mb(), "MiB", 1);
    Ok(percentile(&o.lag_us, 0.99))
}

/// serve_capacity, untraced: pinned rate, then the SLO ladder.
pub fn capacity(ctx: &Ctx, fixtures: &[&Fixture], report: &mut Report) -> Result<f64> {
    let mut plan = Plan::new(fixtures, true);
    let mut rng = SplitMix::new(ctx.seed);
    let (mut server, setup_s) = setup(ctx, &capacity_spec(fixtures), &plan, report)?;
    let admin = server.admin;
    warm_up(&mut server, &mut plan, PINNED_RPS, ALEXNET_SHARE, &mut rng)?;
    let arm = plan.arm(PINNED_RPS, ctx.budget(0.3), ALEXNET_SHARE, &mut rng);
    let pinned = drive(server.addr, &mut plan, &arm, admin)?;
    server.check_alive()?;
    report.note(pinned.summary("pinned", PINNED_RPS));
    account(report, &pinned);
    let mut lags = pinned.lag_us.clone();

    let probe_len = ctx.budget(0.6 / LADDER_PROBES as f64);
    let mut failure: Option<String> = None;
    let (best, steps) =
        crate::ladder::search(LADDER_START_RPS, LADDER_FACTOR, LADDER_PROBES, |rate| {
            if failure.is_some() {
                return false;
            }
            std::thread::sleep(Duration::from_millis(30));
            let arm = plan.arm(rate, probe_len, ALEXNET_SHARE, &mut rng);
            match drive(server.addr, &mut plan, &arm, admin)
                .and_then(|o| server.check_alive().map(|()| o))
            {
                Ok(o) => {
                    let pass = o.meets_slo();
                    report.note(o.summary("ladder", rate));
                    report.check(o.mismatched == 0, || {
                        format!(
                            "{} ladder replies differ from the expected output",
                            o.mismatched
                        )
                    });
                    if pass {
                        report.attempted += o.sent as u64;
                        report.failed += o.failed() as u64;
                    }
                    lags.extend_from_slice(&o.lag_us);
                    pass
                }
                Err(e) => {
                    failure = Some(e);
                    false
                }
            }
        });
    if let Some(e) = failure {
        return Err(e);
    }
    report.note(format!("ladder steps: {steps:?}"));
    let best = best.ok_or("no ladder rate met the SLO")?;
    report.add("setup_s", setup_s, "s", SETUP_REPS);
    latency_metric(report, &pinned);
    report.add("throughput_per_s", best, "1/s", steps.len());
    report.add("peak_rss_mb", server.peak_rss_mb(), "MiB", 1);
    Ok(percentile(&lags, 0.99))
}

/// Program telemetry recorded since the previous call (a windowed delta
/// through the admin cursor).
fn snapshot(admin: SocketAddr) -> Result<qsnc_telemetry::Snapshot> {
    qsnc_telemetry::Snapshot::from_json(&http_get(admin, "/snapshot?cursor=perfbench")?)
}

fn q50(s: &qsnc_telemetry::Snapshot, name: &str) -> f64 {
    s.quantile_sketch(name)
        .map_or(f64::NAN, |q| q.quantile(0.5))
}

fn hist_mean(s: &qsnc_telemetry::Snapshot, name: &str) -> f64 {
    s.histogram(name)
        .map_or(f64::NAN, |h| h.sum / h.count as f64)
}

/// Traced serving pass: untraced and traced arms of both serve workloads,
/// program telemetry from `/snapshot`, protocol replay. Returns the
/// generator's p99 lag.
pub fn traced(
    ctx: &Ctx,
    fixtures: &[&Fixture],
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<f64> {
    let lenet = fixtures[0];
    let mut rng = SplitMix::new(ctx.seed ^ 0x7ace);
    let mut lags = Vec::new();

    // serve_paced: telemetry off vs recording (plus the admin listener).
    let mut plan = Plan::new(&[lenet], false);
    let mut p50 = [0.0; 2];
    let mut traced_arm = None;
    for (i, traced) in [false, true].into_iter().enumerate() {
        let mut server = Serve::spawn(&ctx.qsnc, &paced_spec(lenet, traced))?;
        warm_up(&mut server, &mut plan, PACED_RPS, 0.0, &mut rng)?;
        if let Some(admin) = server.admin {
            snapshot(admin)?; // opens the delta cursor after warm-up
        }
        let arm = plan.arm(PACED_RPS, ctx.budget(0.2), 0.0, &mut rng);
        let o = drive(server.addr, &mut plan, &arm, None)?;
        server.check_alive()?;
        report.note(o.summary(
            if traced {
                "traced paced"
            } else {
                "untraced paced"
            },
            PACED_RPS,
        ));
        account(report, &o);
        p50[i] = percentile(&o.ok_latencies(), 0.5);
        lags.extend_from_slice(&o.lag_us);
        if traced {
            o.record_spans(tracer, "client.serve_paced.request");
            let snap = snapshot(server.admin.expect("traced server has an admin listener"))?;
            traced_arm = Some((o, snap));
        }
    }
    let (o, snap) = traced_arm.expect("the traced arm ran");
    let n = snap.counter("serve.requests").unwrap_or(0) as usize;
    report.add(
        "serve.latency_us.p50",
        q50(&snap, "serve.latency_us"),
        "us",
        n,
    );
    report.add(
        "serve.latency_us.p99",
        snap.quantile_sketch("serve.latency_us")
            .map_or(f64::NAN, |q| q.quantile(0.99)),
        "us",
        n,
    );
    for stage in ["decode", "queue", "infer", "encode"] {
        report.add(
            format!("serve.stage.{stage}.us.p50"),
            q50(&snap, &format!("serve.stage.{stage}.us")),
            "us",
            n,
        );
    }
    report.add(
        "serve.stage.queue.us.p99",
        snap.quantile_sketch("serve.stage.queue.us")
            .map_or(f64::NAN, |q| q.quantile(0.99)),
        "us",
        n,
    );
    report.add(
        "serve.client_overhead_us.p50",
        percentile(&o.ok_latencies(), 0.5) - q50(&snap, "serve.latency_us"),
        "us",
        o.ok,
    );
    report.add(
        "serve.batch.size.mean",
        hist_mean(&snap, "serve.batch.size"),
        "count",
        n,
    );
    report.add(
        "serve.queue.depth.mean",
        hist_mean(&snap, "serve.queue.depth"),
        "count",
        n,
    );
    report.add(
        "serve.loop.dispatch.us.p50",
        q50(&snap, "serve.loop.dispatch.us"),
        "us",
        n,
    );
    report.add(
        "serve.loop.wakeups_per_request",
        snap.counter("serve.loop.wakeups").unwrap_or(0) as f64 / n.max(1) as f64,
        "ratio",
        n,
    );
    report.add(
        "telemetry.record_overhead_pct",
        (p50[1] / p50[0] - 1.0) * 100.0,
        "%",
        o.ok,
    );
    report.add(
        "bench.trace_overhead_pct.serve_paced",
        (p50[1] / p50[0] - 1.0) * 100.0,
        "%",
        o.ok,
    );

    protocol_replay(&mut plan, lenet.input_len(), report, tracer);

    // serve_capacity at the pinned rate, operator config, with and
    // without the benchmark's own spans.
    let mut plan = Plan::new(fixtures, true);
    let mut server = Serve::spawn(&ctx.qsnc, &capacity_spec(fixtures))?;
    let admin = server
        .admin
        .expect("capacity config runs the admin listener");
    warm_up(&mut server, &mut plan, PINNED_RPS, ALEXNET_SHARE, &mut rng)?;
    snapshot(admin)?;
    let mut cap = Vec::new();
    for traced in [false, true] {
        let arm = plan.arm(PINNED_RPS, ctx.budget(0.1), ALEXNET_SHARE, &mut rng);
        let o = drive(server.addr, &mut plan, &arm, Some(admin))?;
        server.check_alive()?;
        report.note(o.summary(
            if traced {
                "traced pinned"
            } else {
                "untraced pinned"
            },
            PINNED_RPS,
        ));
        account(report, &o);
        lags.extend_from_slice(&o.lag_us);
        if traced {
            o.record_spans(tracer, "client.serve_capacity.request");
        }
        cap.push(o);
    }
    let snap = snapshot(admin)?;
    let overhead =
        percentile(&cap[1].ok_latencies(), 0.5) / percentile(&cap[0].ok_latencies(), 0.5) - 1.0;
    report.add(
        "bench.trace_overhead_pct.serve_capacity",
        overhead * 100.0,
        "%",
        cap[1].ok,
    );
    for fx in fixtures {
        let name = format!("serve.model.{}.infer.us", fx.net.name());
        let count = snap.quantile_sketch(&name).map_or(0, |q| q.count as usize);
        report.add(format!("{name}.p50"), q50(&snap, &name), "us", count);
    }
    let rejected = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let total = snap.counter("serve.requests").unwrap_or(0) as usize;
    report.add("serve.rejected", rejected("serve.rejected"), "count", total);
    report.add(
        "serve.conn.rejected",
        rejected("serve.conn.rejected"),
        "count",
        total,
    );
    let scrapes: Vec<f64> = cap
        .iter()
        .flat_map(|o| o.scrape_ms.iter().copied())
        .collect();
    report.add(
        "telemetry.scrape_ms.p50",
        median(&scrapes),
        "ms",
        scrapes.len(),
    );
    report.note(format!(
        "capacity scrape times (ms): mean {:.3} over {}, {} failed",
        mean(&scrapes),
        scrapes.len(),
        cap.iter().map(|o| o.scrape_failed).sum::<usize>()
    ));
    Ok(percentile(&lags, 0.99))
}

/// `parse_frame` + `decode_infer_payload` and `encode_ok_reply`, replayed
/// in-process on the workload's own frames and expected replies.
fn protocol_replay(plan: &mut Plan, input_len: usize, report: &mut Report, tracer: &mut Tracer) {
    const ROUNDS: usize = 200;
    let mut input = Vec::with_capacity(input_len);
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for frame in &plan.frames {
            let view = protocol::parse_frame(frame)
                .expect("well-formed frame")
                .expect("complete frame");
            let payload = &frame[view.payload_start..view.payload_start + view.payload_len];
            protocol::decode_infer_payload(
                view.op,
                std::hint::black_box(payload),
                input_len,
                &mut input,
            )
            .expect("payload matches the model");
            std::hint::black_box(&input);
        }
    }
    let t1 = Instant::now();
    let decoded = ROUNDS * plan.frames.len();
    let logits: Vec<Vec<f32>> = plan
        .expected
        .iter()
        .map(|p| {
            p[8..]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect()
        })
        .collect();
    let mut out = Vec::with_capacity(256);
    for _ in 0..ROUNDS {
        for l in &logits {
            out.clear();
            protocol::encode_ok_reply(&mut out, Some(7), argmax(l), std::hint::black_box(l));
            std::hint::black_box(&out);
        }
    }
    let t2 = Instant::now();
    tracer.record("serve.protocol.decode", t0, t1, None, 0);
    tracer.record("serve.protocol.encode", t1, t2, None, 0);
    report.add(
        "serve.protocol.decode_ns",
        (t1 - t0).as_nanos() as f64 / decoded as f64,
        "ns",
        decoded,
    );
    report.add(
        "serve.protocol.encode_ns",
        (t2 - t1).as_nanos() as f64 / decoded as f64,
        "ns",
        decoded,
    );
}
