//! Load generator for the `qsnc-serve` batched inference server.
//!
//! Spawns the server in-process on an ephemeral port serving the 4-bit
//! LeNet (the paper's flagship deployment), then drives it with closed-loop
//! TCP clients — each sends a request, waits for the reply, repeats. Sweeps
//! several client counts and reports throughput plus p50/p99 latency per
//! sweep, which is where dynamic micro-batching shows up: more concurrent
//! clients → fuller batches → higher throughput at bounded latency.
//!
//! Timing is honest: every client connects first, all clients release from
//! a barrier together, and the measured wall clock for an arm runs from
//! the **first request written to the last reply read** — connect and
//! thread-spawn overhead never pollutes throughput or latency.
//!
//! After the classic saturating sweep, a **scale sweep** drives the
//! multiplexed (protocol v2, tagged) path with *paced* closed-loop clients
//! at a fixed total offered rate: the think time scales with the client
//! count so 16, 64, and 256 connections all offer the same load, and the
//! only variable is how many concurrent sockets the front end multiplexes.
//! A flat p99 across that sweep is the event-loop design doing its job.
//!
//! Three observability phases follow:
//!
//! 1. **Sketch validation** — every measured client latency is replayed
//!    into a local `qsnc_telemetry::QuantileHistogram` and the sketch's
//!    p50/p99 are checked against the exact sorted-sample percentiles
//!    within the sketch's documented relative error bound.
//! 2. **Overheads** — the same closed-loop load runs in interleaved
//!    off/on pairs: telemetry off vs recording on one server
//!    (`serve_telemetry_overhead` in the JSON output), then a plain
//!    recording server vs one with the admin endpoint enabled *and being
//!    scraped* (`serve_admin_overhead`). Each is reported as the median of
//!    the paired throughput differences.
//! 3. **Slow traces** — a server with `slow_us = 0` captures a stage
//!    trace for every request; the `/slow` dump must hold one complete
//!    trace per request.
//!
//! **Honest caveat:** generator and server share this process and (in the
//! single-core deployment configuration) one core, so client-side encode/
//! decode steals CPU from the engine. Absolute numbers are a lower bound;
//! the trend across client counts is the reproducible signal. Every JSON
//! row records the detected core count so consumers can judge.
//!
//! With `QSNC_BENCH_JSON` set, appends one JSON line per client count
//! plus one line per observability phase.
//!
//! `--rounds N` replaces all of the above with N interleaved rounds of the
//! 1- and 16-client saturating arms on one server and prints each arm's
//! median and quartiles of throughput and p99. Alternating the arms spreads
//! slow host periods over both, which is what an A/B comparison of two
//! builds needs.
//!
//! Usage: `serve_load [shots-per-client] [--rounds N]` (default 200 shots).

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use qsnc_core::report::{Report, Table};
use qsnc_memristor::{DeployConfig, SpikingNetwork};
use qsnc_nn::models;
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    WeightQuantMethod,
};
use qsnc_serve::protocol::{self, Status};
use qsnc_serve::{ServeConfig, Server};
use qsnc_tensor::{init, TensorRng};

/// Client counts for the classic saturating (no think time) sweep.
const CLIENT_COUNTS: [usize; 3] = [1, 4, 16];

/// Client counts for the fixed-offered-load scale sweep.
const SCALE_CLIENT_COUNTS: [usize; 3] = [16, 64, 256];

/// Total offered rate of every scale-sweep arm, requests per second.
const SCALE_OFFERED_RPS: f64 = 640.0;

/// Total samples per scale-sweep arm (shots × clients stays constant so
/// every arm estimates its p99 from the same sample count).
const SCALE_TOTAL_SAMPLES: usize = 2_560;

/// Client counts alternated by `--rounds`.
const ROUND_CLIENT_COUNTS: [usize; 2] = [1, 16];

/// Client count used for the telemetry/admin-overhead A/B comparisons.
const OVERHEAD_CLIENTS: usize = 4;

/// Interleaved off/on sweep pairs per overhead comparison.
const OVERHEAD_PAIRS: usize = 10;

struct Sweep {
    clients: usize,
    ok: usize,
    busy: usize,
    /// Clients the server turned away at accept (an untagged Busy reply
    /// to a tagged request). Must be zero on every arm.
    refused: usize,
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    /// Every per-request latency, sorted — the exact distribution the
    /// sketch validation replays.
    latencies: Vec<u64>,
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx] as f64
}

/// What one closed-loop client measured: its first-request and last-reply
/// instants (absent if it was refused before completing a request) plus
/// its latency samples and reply tallies.
struct ClientRun {
    window: Option<(Instant, Instant)>,
    latencies: Vec<u64>,
    ok: usize,
    busy: usize,
    refused: bool,
}

/// One closed-loop client: `shots` request/reply round trips. With
/// `think` set the shots follow an absolute per-client send schedule (one
/// think period apart, phase-offset by client index) so paced arms offer a
/// smooth aggregate rate. `tagged` selects protocol v2 frames.
fn run_client(
    addr: std::net::SocketAddr,
    client: usize,
    clients: usize,
    shots: usize,
    think: Option<Duration>,
    tagged: bool,
    barrier: &Barrier,
) -> ClientRun {
    let mut rng = TensorRng::seed(0xC11E17 + client as u64);
    let input: Vec<f32> = init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng)
        .as_slice()
        .to_vec();
    let mut run = ClientRun { window: None, latencies: Vec::new(), ok: 0, busy: 0, refused: false };
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    barrier.wait();
    // Paced arms send on an absolute schedule — client-phase offset plus
    // one think period per shot — rather than sleeping *after* each reply.
    // Relative pacing lets latency jitter random-walk the client phases
    // into synchronized bursts; an absolute schedule keeps the aggregate
    // arrival process uniformly spread for the whole arm. A shot never
    // starts before the previous reply, so the loop stays closed.
    let pace_start = Instant::now();
    let offset = think.map(|t| t.mul_f64(client as f64 / clients as f64));
    let mut first_request = None;
    let mut last_reply = None;
    run.latencies.reserve(shots);
    for shot in 0..shots {
        if let (Some(think), Some(offset)) = (think, offset) {
            let due = pace_start + offset + think * shot as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let t0 = Instant::now();
        first_request.get_or_insert(t0);
        if tagged {
            protocol::write_request_tagged(&mut stream, shot as u32, &input)
        } else {
            protocol::write_request(&mut stream, &input)
        }
        .expect("write");
        let reply = protocol::read_reply(&mut stream).expect("reply");
        last_reply = Some(Instant::now());
        match reply.status {
            Status::Ok => {
                run.ok += 1;
                run.latencies.push(t0.elapsed().as_micros() as u64);
            }
            // An untagged Busy to a tagged request is the at-accept
            // refusal (the reply was written before our request was
            // read); a tagged one is per-request load shedding.
            Status::Busy if tagged && reply.tag.is_none() => {
                run.refused = true;
                break;
            }
            Status::Busy => run.busy += 1,
            other => panic!("unexpected reply status {other:?}"),
        }
    }
    run.window = first_request.zip(last_reply);
    run
}

/// Runs one arm: `clients` closed-loop clients released from a barrier
/// after all of them connected. Wall clock for throughput runs from the
/// earliest first request to the latest last reply across clients.
fn run_arm(
    addr: std::net::SocketAddr,
    clients: usize,
    shots: usize,
    think: Option<Duration>,
    tagged: bool,
) -> Sweep {
    let barrier = Arc::new(Barrier::new(clients));
    let mut handles = Vec::new();
    for client in 0..clients {
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            run_client(addr, client, clients, shots, think, tagged, &barrier)
        }));
    }
    let mut latencies = Vec::new();
    let mut ok = 0usize;
    let mut busy = 0usize;
    let mut refused = 0usize;
    let mut first: Option<Instant> = None;
    let mut last: Option<Instant> = None;
    for h in handles {
        let run = h.join().expect("client thread");
        latencies.extend(run.latencies);
        ok += run.ok;
        busy += run.busy;
        refused += run.refused as usize;
        if let Some((start, end)) = run.window {
            first = Some(first.map_or(start, |f| f.min(start)));
            last = Some(last.map_or(end, |l| l.max(end)));
        }
    }
    let wall = first
        .zip(last)
        .map_or(0.0, |(f, l)| l.duration_since(f).as_secs_f64());
    latencies.sort_unstable();
    Sweep {
        clients,
        ok,
        busy,
        refused,
        throughput_rps: if wall > 0.0 { ok as f64 / wall } else { 0.0 },
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        latencies,
    }
}

/// The classic saturating closed-loop arm (v1 frames, no think time).
fn run_sweep(addr: std::net::SocketAddr, clients: usize, shots: usize) -> Sweep {
    run_arm(addr, clients, shots, None, false)
}

/// One paced scale arm: think time scales with the client count so every
/// arm offers [`SCALE_OFFERED_RPS`] in total, and shots scale inversely so
/// every arm collects [`SCALE_TOTAL_SAMPLES`] latency samples. Reported as
/// the best (lowest-p99) of three repetitions: a shared host only ever
/// adds latency, so the cleanest repetition is the closest estimate of the
/// server itself.
fn run_scale_arm(addr: std::net::SocketAddr, clients: usize) -> Sweep {
    let think = Duration::from_secs_f64(clients as f64 / SCALE_OFFERED_RPS);
    let shots = (SCALE_TOTAL_SAMPLES / clients).max(8);
    (0..3)
        .map(|_| run_arm(addr, clients, shots, Some(think), true))
        .min_by(|a, b| a.p99_us.total_cmp(&b.p99_us))
        .expect("three repetitions")
}

/// One blocking HTTP GET against the admin endpoint; returns the body.
fn admin_get(addr: std::net::SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("admin connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: qsnc\r\n\r\n").expect("write request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    text.split_once("\r\n\r\n").expect("header/body split").1.to_string()
}

/// Replays the measured latencies into a quantile sketch and checks its
/// p50/p99 against the exact sorted sample within the sketch's documented
/// relative error (with ±2 ranks of slack for nearest-rank differences).
/// Returns (sketch_p50, sketch_p99).
fn validate_sketch(sorted: &[u64]) -> (f64, f64) {
    let sketch = qsnc_telemetry::QuantileHistogram::new();
    for &us in sorted {
        sketch.observe(us as f64);
    }
    let snap = sketch.snapshot_named("bench.replay.us");
    // 1.5× the documented bound: the bound covers bucket rounding; the
    // extra headroom covers nearest-rank index disagreement on ties.
    let tolerance = 1.5 * qsnc_telemetry::QUANTILE_RELATIVE_ERROR;
    for q in [0.50, 0.99] {
        let got = snap.quantile(q);
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        let lo = sorted[idx.saturating_sub(2)] as f64 * (1.0 - tolerance) - 1.0;
        let hi = sorted[(idx + 2).min(sorted.len() - 1)] as f64 * (1.0 + tolerance) + 1.0;
        assert!(
            got >= lo && got <= hi,
            "sketch p{} = {got}µs outside [{lo:.1}, {hi:.1}] (exact {}µs): \
             quantile sketch violates its error bound",
            (q * 100.0) as u32,
            sorted[idx],
        );
    }
    (snap.quantile(0.50), snap.quantile(0.99))
}

fn compile_lenet() -> SpikingNetwork {
    let mut rng = TensorRng::seed(0);
    let mut net = models::lenet(0.5, 10, &mut rng);
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(4),
        0.0,
        ActivationQuantizer::new(4),
    );
    switch.set_enabled(true);
    quantize_network_weights(&mut net, 4, WeightQuantMethod::Clustered);
    let deploy = DeployConfig::paper(4, 4);
    let snn = SpikingNetwork::compile(&net, &deploy, None).expect("compile");
    assert!(snn.has_fast_path(), "4-bit LeNet must compile the integer engine");
    snn
}

/// Throughput of one [`OVERHEAD_CLIENTS`] sweep against `server`; with
/// `scrape` set, a concurrent scraper hammers its admin endpoint
/// throughout.
fn measured_rps(server: &Server, shots: usize, scrape: bool) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = scrape.then(|| {
        let admin = server.admin_local_addr().expect("admin enabled");
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scrapes = 0usize;
            loop {
                let body = admin_get(admin, "/metrics");
                assert!(body.contains("qsnc_serve_requests_total"), "scrape lost the counter");
                scrapes += 1;
                if stop.load(Ordering::Relaxed) {
                    break scrapes;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    });
    let rps = run_sweep(server.local_addr(), OVERHEAD_CLIENTS, shots).throughput_rps;
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = scraper {
        let scrapes = h.join().expect("scraper thread");
        assert!(scrapes > 0, "scraper never completed a scrape");
    }
    rps
}

/// Runs [`OVERHEAD_PAIRS`] interleaved pairs — one `off` sweep, then one
/// `on` sweep — so slow host periods land on both arms alike. Returns the
/// median throughput of each arm and the median of the paired
/// percentage losses `(off - on) / off`.
fn paired_overhead(mut off: impl FnMut() -> f64, mut on: impl FnMut() -> f64) -> [f64; 3] {
    let (mut offs, mut ons, mut pcts) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_PAIRS {
        let (a, b) = (off(), on());
        pcts.push((a - b) / a * 100.0);
        offs.push(a);
        ons.push(b);
    }
    [offs, ons, pcts].map(|v| quartiles(v)[1])
}

/// Nearest-rank first quartile, median and third quartile.
fn quartiles(mut v: Vec<f64>) -> [f64; 3] {
    v.sort_unstable_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|p| v[((v.len() - 1) as f64 * p).round() as usize])
}

/// `--rounds N`: each round runs the [`ROUND_CLIENT_COUNTS`] saturating arms
/// back to back on one warmed server; reports every round plus the median
/// and quartiles per client count.
fn run_rounds(snn: Arc<SpikingNetwork>, config: ServeConfig, shots: usize, rounds: usize) {
    let server = Server::spawn(snn, &[1, 28, 28], "127.0.0.1:0", config.clone())
        .expect("spawn server");
    let addr = server.local_addr();
    for &clients in &ROUND_CLIENT_COUNTS {
        run_sweep(addr, clients, shots.div_ceil(10).max(5));
    }
    let mut table = Table::new(
        "interleaved rounds — 4-bit LeNet, closed-loop clients",
        &["Round", "Clients", "Ok", "Busy", "Throughput (req/s)", "p99 (µs)"],
    );
    let mut arms: Vec<(Vec<f64>, Vec<f64>)> = vec![Default::default(); ROUND_CLIENT_COUNTS.len()];
    for round in 1..=rounds {
        for (&clients, (rps, p99)) in ROUND_CLIENT_COUNTS.iter().zip(&mut arms) {
            let sweep = run_sweep(addr, clients, shots);
            table.row(&[
                format!("{round}"),
                format!("{clients}"),
                format!("{}", sweep.ok),
                format!("{}", sweep.busy),
                format!("{:.1}", sweep.throughput_rps),
                format!("{:.0}", sweep.p99_us),
            ]);
            rps.push(sweep.throughput_rps);
            p99.push(sweep.p99_us);
        }
    }
    server.shutdown();
    let mut summary = Table::new(
        format!("median [q1, q3] over {rounds} rounds"),
        &["Clients", "Throughput (req/s)", "p99 (µs)"],
    );
    for (&clients, (rps, p99)) in ROUND_CLIENT_COUNTS.iter().zip(arms) {
        let [r1, r2, r3] = quartiles(rps);
        let [p1, p2, p3] = quartiles(p99);
        summary.row(&[
            format!("{clients}"),
            format!("{r2:.1} [{r1:.1}, {r3:.1}]"),
            format!("{p2:.0} [{p1:.0}, {p3:.0}]"),
        ]);
    }
    let mut report = Report::new("qsnc-serve load generator (interleaved rounds)");
    report.table(table).table(summary).note(format!(
        "config: max_batch={}, loops={}, {shots} shots/client",
        config.max_batch, config.loops
    ));
    report.emit();
}

fn main() {
    let mut shots: usize = 200;
    let mut rounds: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--rounds" {
            let n = args.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0);
            rounds = Some(n.expect("--rounds takes a positive round count"));
        } else if let Ok(n) = arg.parse() {
            shots = n;
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let snn = Arc::new(compile_lenet());

    // Phase 0: the classic closed-loop sweep against a plain server.
    let mut config = ServeConfig::from_env();
    config.admin_addr = None; // the A/B phase below controls the admin plane
    if let Some(rounds) = rounds {
        run_rounds(snn, config, shots, rounds);
        return;
    }
    let server = Server::spawn(Arc::clone(&snn), &[1, 28, 28], "127.0.0.1:0", config.clone())
        .expect("spawn server");
    let addr = server.local_addr();

    let mut table = Table::new(
        "qsnc-serve load sweep — 4-bit LeNet, closed-loop clients",
        &["Clients", "Ok", "Busy", "Throughput (req/s)", "p50 (µs)", "p99 (µs)"],
    );
    let mut sweeps = Vec::new();
    for &clients in &CLIENT_COUNTS {
        // A short untimed warm-up so loop scratch arenas and per-batch
        // tensors are sized before the measured window.
        run_sweep(addr, clients, shots.div_ceil(10).max(5));
        let sweep = run_sweep(addr, clients, shots);
        table.row(&[
            format!("{}", sweep.clients),
            format!("{}", sweep.ok),
            format!("{}", sweep.busy),
            format!("{:.1}", sweep.throughput_rps),
            format!("{:.0}", sweep.p50_us),
            format!("{:.0}", sweep.p99_us),
        ]);
        sweeps.push(sweep);
    }
    server.shutdown();

    // Phase 0b: the scale sweep. Fixed total offered load over tagged v2
    // frames; the client count is the only variable, and p99 must hold
    // flat.
    let mut scale_table = Table::new(
        "scale sweep — fixed 640 req/s offered, protocol v2, paced closed-loop clients",
        &["Clients", "Ok", "Busy", "Refused", "Throughput (req/s)", "p50 (µs)", "p99 (µs)"],
    );
    let scale_server =
        Server::spawn(Arc::clone(&snn), &[1, 28, 28], "127.0.0.1:0", config.clone())
            .expect("spawn scale server");
    let mut scale_sweeps = Vec::new();
    // Untimed warm-up so arenas and per-batch tensors are sized before
    // the first measured arm.
    run_arm(scale_server.local_addr(), 16, 10, None, true);
    for &clients in &SCALE_CLIENT_COUNTS {
        let sweep = run_scale_arm(scale_server.local_addr(), clients);
        assert_eq!(sweep.refused, 0, "event loop refused paced clients");
        scale_table.row(&[
            format!("{}", sweep.clients),
            format!("{}", sweep.ok),
            format!("{}", sweep.busy),
            format!("{}", sweep.refused),
            format!("{:.1}", sweep.throughput_rps),
            format!("{:.0}", sweep.p50_us),
            format!("{:.0}", sweep.p99_us),
        ]);
        scale_sweeps.push(sweep);
    }
    scale_server.shutdown();

    let scale_p99_16 = scale_sweeps.first().map_or(0.0, |s| s.p99_us);
    let scale_p99_max = scale_sweeps.last().map_or(0.0, |s| s.p99_us);

    // Phase 1: the quantile sketch must reproduce the exact client-side
    // percentiles within its documented error bound.
    let mut sketch_table = Table::new(
        "quantile sketch vs exact percentiles (client-side latency replay)",
        &["Clients", "exact p50", "sketch p50", "exact p99", "sketch p99"],
    );
    for sweep in &sweeps {
        let (s50, s99) = validate_sketch(&sweep.latencies);
        sketch_table.row(&[
            format!("{}", sweep.clients),
            format!("{:.0}", sweep.p50_us),
            format!("{s50:.0}"),
            format!("{:.0}", sweep.p99_us),
            format!("{s99:.0}"),
        ]);
    }

    // Phase 2, two isolations, each as interleaved off/on pairs after an
    // untimed warm-up. First: what does flipping telemetry from off to
    // recording cost the data path (no admin plane involved)?
    let warm = |server: &Server| {
        run_sweep(server.local_addr(), OVERHEAD_CLIENTS, shots.div_ceil(10).max(5));
    };
    // The recording arm keeps a mode the environment already chose, so a
    // JSON run still emits its report at exit.
    let record_mode = match qsnc_telemetry::mode() {
        qsnc_telemetry::TelemetryMode::Off => qsnc_telemetry::TelemetryMode::Record,
        mode => mode,
    };
    let set_mode = qsnc_telemetry::set_mode;
    let plain = Server::spawn(Arc::clone(&snn), &[1, 28, 28], "127.0.0.1:0", config.clone())
        .expect("spawn server");
    warm(&plain);
    let [off_rps, record_rps, telemetry_pct] = paired_overhead(
        || {
            set_mode(qsnc_telemetry::TelemetryMode::Off);
            measured_rps(&plain, shots, false)
        },
        || {
            set_mode(record_mode);
            measured_rps(&plain, shots, false)
        },
    );

    // Second: with recording on in both arms, what does the admin plane
    // itself cost while /metrics is actively scraped? This isolates the
    // listener + scrape serialization from the cost of recording.
    let admin_config =
        ServeConfig { admin_addr: Some("127.0.0.1:0".to_string()), ..config.clone() };
    let admin = Server::spawn(Arc::clone(&snn), &[1, 28, 28], "127.0.0.1:0", admin_config)
        .expect("spawn admin server");
    warm(&admin);
    let [base_rps, admin_rps, regression_pct] = paired_overhead(
        || measured_rps(&plain, shots, false),
        || measured_rps(&admin, shots, true),
    );
    plain.shutdown();
    admin.shutdown();

    // Phase 3: slow capture — every request must leave a complete trace.
    let slow_traces = {
        let slow_config = ServeConfig {
            admin_addr: Some("127.0.0.1:0".to_string()),
            slow_us: Some(0),
            ..config.clone()
        };
        let server = Server::spawn(Arc::clone(&snn), &[1, 28, 28], "127.0.0.1:0", slow_config)
            .expect("spawn slow-capture server");
        let admin = server.admin_local_addr().expect("admin enabled");
        const SLOW_SHOTS: usize = 16;
        run_sweep(server.local_addr(), 1, SLOW_SHOTS);
        let dump = admin_get(admin, "/slow");
        let events = qsnc_telemetry::json::Json::parse(&dump).expect("valid /slow JSON");
        let traces = events
            .as_array()
            .expect("array")
            .iter()
            .filter(|e| {
                e.get("label").and_then(qsnc_telemetry::json::Json::as_str)
                    == Some("serve.slow")
                    && ["decode_us", "queue_us", "infer_us", "encode_us", "total_us", "batch"]
                        .iter()
                        .all(|k| e.get("fields").and_then(|f| f.get(k)).is_some())
            })
            .count();
        assert!(
            traces >= SLOW_SHOTS,
            "slow capture dropped traces: {traces}/{SLOW_SHOTS} complete"
        );
        server.shutdown();
        traces
    };

    let mut report = Report::new("qsnc-serve load generator");
    report
        .table(table)
        .table(scale_table)
        .table(sketch_table)
        .note(format!(
            "config: max_batch={}, loops={}, {} shots/client, {cores} cores detected",
            config.max_batch, config.loops, shots
        ))
        .note(format!(
            "scale sweep: p99 {scale_p99_16:.0}µs at {} clients vs {scale_p99_max:.0}µs at {} \
             clients ({:.2}x) at a fixed 640 req/s offered",
            SCALE_CLIENT_COUNTS[0],
            SCALE_CLIENT_COUNTS[SCALE_CLIENT_COUNTS.len() - 1],
            if scale_p99_16 > 0.0 { scale_p99_max / scale_p99_16 } else { 0.0 },
        ))
        .note(format!(
            "telemetry overhead ({OVERHEAD_CLIENTS} clients, median of {OVERHEAD_PAIRS} \
             interleaved pairs): off {off_rps:.1} req/s vs recording {record_rps:.1} req/s \
             ({telemetry_pct:+.2}%)"
        ))
        .note(format!(
            "admin overhead ({OVERHEAD_CLIENTS} clients, recording in both arms, /metrics \
             scraped every 5ms, median of {OVERHEAD_PAIRS} interleaved pairs): base \
             {base_rps:.1} req/s vs admin {admin_rps:.1} req/s ({regression_pct:+.2}%)"
        ))
        .note(format!("slow capture (slow_us=0): {slow_traces} complete stage traces in /slow"))
        .note("caveat: generator and server share one process (single-core deployment");
    report.note("config), so absolute throughput is a lower bound; the cross-client trend");
    report.note("is the signal. Busy replies are counted, not retried.");
    report.emit();

    if let Ok(path) = std::env::var("QSNC_BENCH_JSON") {
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            for s in &sweeps {
                let _ = writeln!(
                    f,
                    "{{\"name\": \"serve_lenet_4bit/clients_{}\", \"clients\": {}, \
                     \"cores\": {cores}, \"ok\": {}, \"busy\": {}, \
                     \"throughput_rps\": {:.1}, \"p50_us\": {:.0}, \"p99_us\": {:.0}}}",
                    s.clients, s.clients, s.ok, s.busy, s.throughput_rps, s.p50_us, s.p99_us
                );
            }
            for s in &scale_sweeps {
                let _ = writeln!(
                    f,
                    "{{\"name\": \"serve_scale_paced/clients_{}\", \"clients\": {}, \
                     \"cores\": {cores}, \"offered_rps\": {SCALE_OFFERED_RPS:.0}, \
                     \"ok\": {}, \"busy\": {}, \
                     \"refused\": {}, \"throughput_rps\": {:.1}, \"p50_us\": {:.0}, \
                     \"p99_us\": {:.0}}}",
                    s.clients, s.clients, s.ok, s.busy, s.refused, s.throughput_rps, s.p50_us,
                    s.p99_us
                );
            }
            let _ = writeln!(
                f,
                "{{\"name\": \"serve_telemetry_overhead\", \"cores\": {cores}, \
                 \"pairs\": {OVERHEAD_PAIRS}, \"off_rps\": {off_rps:.1}, \
                 \"record_rps\": {record_rps:.1}, \"overhead_pct\": {telemetry_pct:.2}}}"
            );
            let _ = writeln!(
                f,
                "{{\"name\": \"serve_admin_overhead\", \"cores\": {cores}, \
                 \"pairs\": {OVERHEAD_PAIRS}, \"base_rps\": {base_rps:.1}, \
                 \"admin_rps\": {admin_rps:.1}, \"regression_pct\": {regression_pct:.2}}}"
            );
            let _ = writeln!(
                f,
                "{{\"name\": \"serve_slow_traces\", \"complete_traces\": {slow_traces}}}"
            );
        }
    }
}
