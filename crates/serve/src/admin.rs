//! The admin observability endpoint: live metrics over minimal HTTP/1.1.
//!
//! When [`crate::ServeConfig::admin_addr`] is set, the server binds a
//! second listener that speaks just enough HTTP/1.1 for scrapers and
//! humans with `curl` — one request per connection, no keep-alive, no
//! dependencies. Routes:
//!
//! | route | payload |
//! |---|---|
//! | `GET /metrics` | Prometheus text exposition (version 0.0.4) of the full telemetry snapshot |
//! | `GET /snapshot` | The telemetry JSON document (`Snapshot::to_json`), identical in shape to the `telemetry` section of a deployment report |
//! | `GET /snapshot?cursor=NAME` | Windowed delta since the last scrape that used cursor `NAME` (first use returns everything; see `qsnc_telemetry::snapshot_since`) |
//! | `GET /slow` | Flight-recorder dump: the retained slow-request stage traces as a JSON array |
//! | `GET /healthz` | `ok` |
//! | `GET /models` | JSON array of registered models: id, name, engine version, input dims, quota, in-flight count, swap count, provenance digest |
//! | `POST /models/swap?model=NAME&artifact=PATH` | Hot-swaps model `NAME` to the `.qsnca` artifact at `PATH` (percent-encoded). `200` with the swap report on success; `404` unknown model, `400` artifact/dims rejection |
//!
//! `/models/swap` is the one mutating route and requires `POST`; every
//! other route requires `GET`. The artifact path is read by the serving
//! process, so expose the admin listener only on a trusted interface
//! (the default has no admin plane at all).
//!
//! The exposition maps the frozen dotted taxonomy onto Prometheus names
//! by replacing every non-alphanumeric character with `_` and prefixing
//! `qsnc_`: counters gain a `_total` suffix, fixed-bucket histograms
//! become `histogram` families with cumulative `le` buckets, quantile
//! sketches become `summary` families with `quantile` labels (p50 / p90 /
//! p99 / p99.9), and spans export `qsnc_span_count` / `qsnc_span_total_ns`
//! with a `path` label. Step series are JSON-only — scrape `/snapshot`
//! for those.
//!
//! Each accepted connection is answered on its own short-lived handler
//! thread, so one stalled scraper cannot delay the next `/metrics` poll.
//! A handler gets `SCRAPE_TIMEOUT` (2 s) to read the whole request and
//! again to write the whole response, however slowly the client trickles
//! bytes, and at most `MAX_HANDLERS` run at once: a connection past the
//! cap is answered `503` inline and closed. Delta cursors live behind a
//! mutex shared by the handlers; the data plane never waits on the admin
//! plane.

use crate::registry::{ModelRegistry, ModelStatus};
use qsnc_telemetry::{DeltaCursor, HistogramSnapshot, QuantileSnapshot, Snapshot, SpanSnapshot};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Quantiles exported per sketch on `/metrics`.
const SUMMARY_QUANTILES: &[f64] = &[0.5, 0.9, 0.99, 0.999];

/// Largest request head (request line + headers) the parser accepts.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Deadline for reading a whole request, and again for writing a whole
/// response: a stalled scraper holds a handler thread about twice this
/// long at most.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// Handler threads allowed at once; connections past the cap get `503`.
const MAX_HANDLERS: usize = 16;

/// Binds `addr` and starts the admin thread. Returns the resolved local
/// address (port 0 becomes the actual ephemeral port) and the thread
/// handle; the caller joins it on drain after nudging the listener with a
/// bare connection.
pub(crate) fn spawn(
    addr: &str,
    running: Arc<AtomicBool>,
    registry: Arc<ModelRegistry>,
) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let handle = std::thread::spawn(move || admin_loop(&listener, &running, &registry));
    Ok((local, handle))
}

/// Counts one running handler thread; dropping it frees the slot.
struct HandlerSlot(Arc<AtomicUsize>);

impl Drop for HandlerSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn admin_loop(listener: &TcpListener, running: &AtomicBool, registry: &Arc<ModelRegistry>) {
    let cursors: Arc<Mutex<HashMap<String, DeltaCursor>>> = Arc::new(Mutex::new(HashMap::new()));
    let handlers = Arc::new(AtomicUsize::new(0));
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if !running.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        // Serve even the final connection: a scrape racing shutdown gets
        // its answer, and the drain nudge carries no request so it falls
        // straight through the read. Deadlines bound a stalled client.
        if !running.load(Ordering::SeqCst) {
            // Answer the final scrape inline; there is no one left to
            // accept for while it runs.
            let _ = handle_connection(stream, &cursors, registry);
            break;
        }
        // Only this loop adds handlers, so the check cannot overshoot.
        if handlers.load(Ordering::Acquire) >= MAX_HANDLERS {
            let mut stream = stream;
            let _ = respond(&mut stream, "503 Service Unavailable", "text/plain", "busy\n");
            continue;
        }
        // Handler threads keep the accept loop responsive while a slow
        // scraper trickles its request or reads its response; the cap and
        // the deadlines bound how many there are and how long each lives.
        handlers.fetch_add(1, Ordering::AcqRel);
        let slot = HandlerSlot(Arc::clone(&handlers));
        let cursors = Arc::clone(&cursors);
        let registry = Arc::clone(registry);
        std::thread::spawn(move || {
            let _slot = slot;
            let _ = handle_connection(stream, &cursors, &registry);
        });
    }
}

fn handle_connection(
    mut stream: TcpStream,
    cursors: &Mutex<HashMap<String, DeltaCursor>>,
    registry: &Arc<ModelRegistry>,
) -> io::Result<()> {
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    let deadline = Instant::now() + SCRAPE_TIMEOUT;
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_REQUEST_BYTES {
            return respond(&mut stream, "431 Request Header Fields Too Large", "text/plain", "");
        }
        stream.set_read_timeout(Some(time_left(deadline)?))?;
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(()); // closed before a full request: the drain nudge
        }
        head.extend_from_slice(&buf[..n]);
    }
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return respond(&mut stream, "400 Bad Request", "text/plain", "bad request\n"),
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    if path == "/models/swap" {
        // The one mutating route: POST only, so a stray GET crawler can
        // never trigger a swap.
        if method != "POST" {
            return respond(&mut stream, "405 Method Not Allowed", "text/plain", "POST only\n");
        }
        let model = query.and_then(|q| query_param(q, "model"));
        let artifact = query.and_then(|q| query_param(q, "artifact"));
        let (Some(model), Some(artifact)) = (model, artifact) else {
            return respond(
                &mut stream,
                "400 Bad Request",
                "text/plain",
                "model and artifact query parameters are required\n",
            );
        };
        return match registry.swap_from_artifact(&model, &artifact) {
            Ok(report) => {
                respond(&mut stream, "200 OK", "application/json", &swap_report_json(&report))
            }
            Err(e @ crate::registry::SwapError::UnknownModel(_)) => {
                respond(&mut stream, "404 Not Found", "text/plain", &format!("{e}\n"))
            }
            Err(e) => respond(&mut stream, "400 Bad Request", "text/plain", &format!("{e}\n")),
        };
    }
    if method != "GET" {
        return respond(&mut stream, "405 Method Not Allowed", "text/plain", "GET only\n");
    }
    match path {
        "/metrics" => {
            let body = render_prometheus(&qsnc_telemetry::snapshot());
            respond(&mut stream, "200 OK", "text/plain; version=0.0.4", &body)
        }
        "/snapshot" => {
            let snap = match query.and_then(query_cursor) {
                Some(name) => match cursors.lock() {
                    Ok(mut cursors) => {
                        let cursor = cursors.entry(name).or_default();
                        qsnc_telemetry::snapshot_since(cursor)
                    }
                    // A handler panicked holding the map; serve the full
                    // snapshot rather than nothing.
                    Err(_) => qsnc_telemetry::snapshot(),
                },
                None => qsnc_telemetry::snapshot(),
            };
            respond(&mut stream, "200 OK", "application/json", &snap.to_json().render())
        }
        "/slow" => {
            let events = qsnc_telemetry::flight_events();
            let body = qsnc_telemetry::flight_json(&events).render();
            respond(&mut stream, "200 OK", "application/json", &body)
        }
        "/healthz" => respond(&mut stream, "200 OK", "text/plain", "ok\n"),
        "/models" => {
            respond(&mut stream, "200 OK", "application/json", &models_json(&registry.statuses()))
        }
        _ => respond(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

/// Renders the `/models` payload: one JSON object per registered model,
/// in model-id order. Names need no escaping — the registry only admits
/// `[A-Za-z0-9._-]` — and digests render as fixed-width hex strings
/// (u64s do not survive JSON number parsers intact).
fn models_json(statuses: &[ModelStatus]) -> String {
    let mut out = String::from("[");
    for (i, s) in statuses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let dims =
            s.input_dims.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(",");
        let quota = s.quota.map_or_else(|| "null".to_string(), |q| q.to_string());
        let _ = write!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"version\":{},\"input_dims\":[{}],\"quota\":{},\
             \"inflight\":{},\"swaps\":{},\"checkpoint_digest\":\"{:016x}\"}}",
            s.id, s.name, s.version, dims, quota, s.inflight, s.swaps, s.checkpoint_digest
        );
    }
    out.push(']');
    out
}

/// Renders the `POST /models/swap` success payload.
fn swap_report_json(r: &crate::registry::SwapReport) -> String {
    format!(
        "{{\"model\":\"{}\",\"model_id\":{},\"old_version\":{},\"new_version\":{},\
         \"old_digest\":\"{:016x}\",\"new_digest\":\"{:016x}\",\"drained\":{},\
         \"drain_wait_us\":{}}}",
        r.model,
        r.model_id,
        r.old_version,
        r.new_version,
        r.old_digest,
        r.new_digest,
        r.drained,
        r.drain_wait_us
    )
}

/// Extracts `cursor=NAME` from a query string (no percent-decoding:
/// cursor names are plain identifiers chosen by the scraper).
fn query_cursor(query: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == "cursor" && !v.is_empty()).then(|| v.to_string())
    })
}

/// Extracts `key=VALUE` from a query string with `%XX` decoding — swap
/// artifact paths carry `/` and may carry spaces. A literal `+` stays a
/// `+` (encode spaces as `%20`).
fn query_param(query: &str, key: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key && !v.is_empty()).then(|| percent_decode(v))
    })
}

/// Minimal `%XX` percent-decoding; malformed escapes pass through
/// verbatim rather than erroring (the result then simply names no file).
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            let hex = |b: u8| (b as char).to_digit(16);
            if let (Some(hi), Some(lo)) = (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                out.push((hi * 16 + lo) as u8);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Time left before `deadline`; a passed deadline is a `TimedOut` error.
fn time_left(deadline: Instant) -> io::Result<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(io::ErrorKind::TimedOut.into());
    }
    Ok(left)
}

/// Writes one whole response within [`SCRAPE_TIMEOUT`].
fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let mut wire = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body.as_bytes());
    let deadline = Instant::now() + SCRAPE_TIMEOUT;
    let mut rest = &wire[..];
    while !rest.is_empty() {
        stream.set_write_timeout(Some(time_left(deadline)?))?;
        match stream.write(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => rest = &rest[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Maps a dotted taxonomy name to a Prometheus metric name: every
/// character outside `[A-Za-z0-9]` becomes `_`, prefixed with `qsnc_`
/// (so `serve.stage.infer.us` exports as `qsnc_serve_stage_infer_us`).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("qsnc_");
    out.extend(name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }));
    out
}

/// Escapes a label value per the exposition format.
fn escape_label(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn render_counters(out: &mut String, counters: &[(String, u64)]) {
    for (name, value) in counters {
        let name = prom_name(name);
        let _ = writeln!(out, "# TYPE {name}_total counter");
        let _ = writeln!(out, "{name}_total {value}");
    }
}

fn render_histogram(out: &mut String, h: &HistogramSnapshot) {
    let name = prom_name(&h.name);
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (edge, bucket) in h.edges.iter().zip(&h.buckets) {
        cumulative += bucket;
        let _ = writeln!(out, "{name}_bucket{{le=\"{edge}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{name}_sum {}", h.sum);
    let _ = writeln!(out, "{name}_count {}", h.count);
}

fn render_summary(out: &mut String, q: &QuantileSnapshot) {
    let name = prom_name(&q.name);
    let _ = writeln!(out, "# TYPE {name} summary");
    if q.count > 0 {
        for &quantile in SUMMARY_QUANTILES {
            let _ = writeln!(out, "{name}{{quantile=\"{quantile}\"}} {}", q.quantile(quantile));
        }
    }
    let _ = writeln!(out, "{name}_sum {}", q.sum);
    let _ = writeln!(out, "{name}_count {}", q.count);
}

fn render_spans(out: &mut String, spans: &[SpanSnapshot]) {
    if spans.is_empty() {
        return;
    }
    let _ = writeln!(out, "# TYPE qsnc_span_count counter");
    for s in spans {
        let _ = writeln!(out, "qsnc_span_count{{path=\"{}\"}} {}", escape_label(&s.path), s.count);
    }
    let _ = writeln!(out, "# TYPE qsnc_span_total_ns counter");
    for s in spans {
        let _ = writeln!(
            out,
            "qsnc_span_total_ns{{path=\"{}\"}} {}",
            escape_label(&s.path),
            s.total_ns
        );
    }
}

/// Renders a telemetry snapshot in the Prometheus text exposition format
/// (version 0.0.4) — the `/metrics` payload. Step series are omitted;
/// they do not map onto scrape-time metric families.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    render_counters(&mut out, &snap.counters);
    for h in &snap.histograms {
        render_histogram(&mut out, h);
    }
    for q in &snap.quantiles {
        render_summary(&mut out, q);
    }
    render_spans(&mut out, &snap.spans);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelSpec;

    #[test]
    fn prom_names_are_sanitized_and_prefixed() {
        assert_eq!(prom_name("serve.stage.infer.us"), "qsnc_serve_stage_infer_us");
        assert_eq!(prom_name("serve.latency_us"), "qsnc_serve_latency_us");
    }

    #[test]
    fn cursor_query_parses() {
        assert_eq!(query_cursor("cursor=ci"), Some("ci".to_string()));
        assert_eq!(query_cursor("a=b&cursor=x&c=d"), Some("x".to_string()));
        assert_eq!(query_cursor("cursor="), None);
        assert_eq!(query_cursor("other=1"), None);
    }

    #[test]
    fn exposition_renders_every_instrument_kind() {
        let _guard = qsnc_telemetry::testing::lock();
        qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Record);
        qsnc_telemetry::reset();
        qsnc_telemetry::counter_add("test.admin.hits", 3);
        qsnc_telemetry::observe("test.admin.sizes", 2.0, &[1.0, 4.0]);
        for v in [10.0, 20.0, 30.0, 40.0] {
            qsnc_telemetry::quantile_observe("test.admin.lat.us", v);
        }
        drop(qsnc_telemetry::start_span("test.admin.span"));
        let snap = qsnc_telemetry::snapshot();
        qsnc_telemetry::reset();
        qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Off);

        let text = render_prometheus(&snap);
        assert!(text.contains("# TYPE qsnc_test_admin_hits_total counter"), "{text}");
        assert!(text.contains("qsnc_test_admin_hits_total 3"), "{text}");
        assert!(text.contains("# TYPE qsnc_test_admin_sizes histogram"), "{text}");
        assert!(text.contains("qsnc_test_admin_sizes_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("# TYPE qsnc_test_admin_lat_us summary"), "{text}");
        assert!(text.contains("qsnc_test_admin_lat_us{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("qsnc_test_admin_lat_us_count 4"), "{text}");
        assert!(text.contains("qsnc_span_count{path=\"test.admin.span\"} 1"), "{text}");

        // Exposition well-formedness: every non-comment line is
        // `name{labels} value` with a parseable value.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample line");
            value.parse::<f64>().unwrap_or_else(|_| panic!("bad value in {line:?}"));
        }
    }

    #[test]
    fn empty_snapshot_renders_empty_exposition() {
        let snap = Snapshot::default();
        assert!(render_prometheus(&snap).is_empty());
    }

    #[test]
    fn query_params_percent_decode() {
        assert_eq!(
            query_param("model=canary&artifact=%2Ftmp%2Fa%20b.qsnca", "artifact"),
            Some("/tmp/a b.qsnca".to_string())
        );
        assert_eq!(query_param("model=canary", "model"), Some("canary".to_string()));
        assert_eq!(query_param("model=", "model"), None);
        assert_eq!(query_param("artifact=a", "model"), None);
        // Malformed escapes pass through verbatim; '+' is not a space.
        assert_eq!(percent_decode("a%ZZb+c%2"), "a%ZZb+c%2");
    }

    #[test]
    fn models_json_renders_status_fields() {
        let statuses = vec![ModelStatus {
            id: 0,
            name: "default".to_string(),
            version: 2,
            input_dims: vec![1, 28, 28],
            quota: Some(16),
            inflight: 3,
            swaps: 1,
            checkpoint_digest: 0xdead_beef,
        }];
        let json = models_json(&statuses);
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"name\":\"default\""), "{json}");
        assert!(json.contains("\"version\":2"), "{json}");
        assert!(json.contains("\"input_dims\":[1,28,28]"), "{json}");
        assert!(json.contains("\"quota\":16"), "{json}");
        assert!(json.contains("\"checkpoint_digest\":\"00000000deadbeef\""), "{json}");
    }

    /// Reads until the server closes the connection (or resets it).
    fn read_to_close(mut stream: &TcpStream) -> String {
        let mut text = Vec::new();
        let _ = stream.read_to_end(&mut text);
        String::from_utf8_lossy(&text).into_owned()
    }

    #[test]
    fn handlers_are_capped_and_a_trickled_request_meets_its_deadline() {
        let snn = crate::inflight_tests::served_network(5);
        let specs = vec![ModelSpec::new("m", snn, vec![1, 28, 28])];
        let registry = Arc::new(ModelRegistry::new(specs, None, Duration::from_secs(1)).unwrap());
        let running = Arc::new(AtomicBool::new(true));
        let (addr, admin) = spawn("127.0.0.1:0", Arc::clone(&running), registry).unwrap();
        let connect = || {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            stream
        };

        // The first handler gets a request one byte every 250 ms: no single
        // read waits long, but the whole request would take ~9 s.
        let trickled = connect();
        let writer = trickled.try_clone().unwrap();
        let t0 = Instant::now();
        std::thread::spawn(move || {
            for &byte in b"GET /healthz HTTP/1.1\r\nHost: qsnc\r\n\r\n" {
                if (&writer).write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(250));
            }
        });
        // The other handlers stall on one byte each, filling the cap.
        let stalled: Vec<TcpStream> = (1..MAX_HANDLERS)
            .map(|_| {
                let stream = connect();
                (&stream).write_all(b"G").unwrap();
                stream
            })
            .collect();
        let refused = read_to_close(&connect());
        assert!(refused.starts_with("HTTP/1.1 503"), "past the cap: {refused:?}");

        let trickle_reply = read_to_close(&trickled);
        let held = t0.elapsed();
        assert!(trickle_reply.is_empty(), "a trickled request must not be served: {trickle_reply:?}");
        assert!(held < Duration::from_secs(5), "handler held {held:?} past its deadline");

        // Once the stalled handlers hit their deadline, slots free up.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let stream = connect();
            (&stream).write_all(b"GET /healthz HTTP/1.1\r\nHost: qsnc\r\n\r\n").unwrap();
            let reply = read_to_close(&stream);
            if reply.starts_with("HTTP/1.1 200") {
                break;
            }
            assert!(Instant::now() < deadline, "no handler slot came free: {reply:?}");
            std::thread::sleep(Duration::from_millis(50));
        }
        drop(stalled);
        running.store(false, Ordering::SeqCst);
        drop(TcpStream::connect(addr));
        admin.join().unwrap();
    }
}
