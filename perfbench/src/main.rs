//! qsnc benchmark: open-loop serving of `.qsnca` artifacts and
//! train→deploy, plus a traced pass for per-layer numbers.
//!
//! ```text
//! qsnc-perfbench --workload W --seed N --seconds S --trace 0|1 --qsnc PATH --out DIR
//! ```
//!
//! Workloads (`--trace 0`, end-to-end metrics, tracing off):
//! - `serve_paced`: Poisson arrivals at 500 req/s, v2 frames, one model,
//!   default config with telemetry off. The server idles between
//!   requests, so latency is front end + protocol + flush delay + a
//!   batch-1 engine call.
//! - `serve_capacity` (runs on request; not gated in `BENCHMARK.json`,
//!   because its capacity estimate is too unsteady on a shared 2-vCPU
//!   host): LeNet plus a 10% AlexNet share over v3 routed frames, admin
//!   listener on (telemetry recording) and `/metrics` scraped every
//!   250 ms; a pinned rate, then a bracket-and-staircase search for the
//!   highest rate meeting p90 ≤ 2 ms, ≤ 0.1% failed and no growing backlog.
//! - `train_deploy`: `qsnc train` then `qsnc deploy --artifact` children.
//!
//! `--trace 1` runs the traced pass over every workload plus the
//! in-process engine (batch 1 and 32 against the float forward, stage
//! attribution, kernel ledger) and reports the per-layer metrics, with
//! untraced arms for the tracing overhead. The last line of standard
//! output is the result object; the full record (sample counts, run stamp,
//! ladder steps, ledgers) is written under `DIR/results`, and the traced
//! pass's spans under `DIR/spans`.

mod child;
mod engine;
mod fixtures;
mod ladder;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;
mod train;

use fixtures::{Fixture, Net};
use report::Report;
use std::path::PathBuf;
use std::time::Duration;

pub const WORKLOADS: [&str; 3] = ["serve_paced", "serve_capacity", "train_deploy"];

/// End-to-end metrics every untraced run reports, in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 4] = ["setup_s", "latency_us", "throughput_per_s", "peak_rss_mb"];

/// Shared run parameters.
pub struct Ctx {
    pub qsnc: PathBuf,
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: u64,
}

impl Ctx {
    /// A share of the run's measuring time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds as f64 * share)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    qsnc: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        let i = raw
            .iter()
            .position(|a| a == key)
            .ok_or(format!("missing {key}"))?;
        raw.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{key} needs a value"))
    };
    let num = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("{key} must be a whole number"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
        qsnc: PathBuf::from(get("--qsnc")?),
        out: PathBuf::from(get("--out")?),
    })
}

/// Builds the fixtures for `nets` and records their artifact digests.
fn build_fixtures(ctx: &Ctx, nets: &[Net], report: &mut Report) -> Result<Vec<Fixture>, String> {
    let built = fixtures::build(&ctx.qsnc, &ctx.out, ctx.seed, nets)?;
    for f in &built {
        report.note(format!(
            "fixture {} artifact digest {:016x}",
            f.net.name(),
            f.digest
        ));
    }
    Ok(built)
}

fn refs(fixtures: &[Fixture]) -> Vec<&Fixture> {
    fixtures.iter().collect()
}

/// Runs the requested pass; returns the generator's p99 lag (µs, 0 where
/// no open-loop generator ran).
fn run(
    args: &Args,
    ctx: &Ctx,
    report: &mut Report,
    tracer: &mut trace::Tracer,
) -> Result<f64, String> {
    if args.trace {
        let fx = build_fixtures(ctx, &Net::ALL, report)?;
        engine::traced(ctx, &refs(&fx), report, tracer)?;
        let lag = serve::traced(ctx, &refs(&fx), report, tracer)?;
        train::traced(ctx, report, tracer)?;
        report.add("bench.generator_lag_us.p99", lag, "us", 1);
        return Ok(lag);
    }
    match args.workload.as_str() {
        "serve_paced" => {
            let fx = build_fixtures(ctx, &[Net::Lenet], report)?;
            serve::paced(ctx, &fx[0], report)
        }
        "serve_capacity" => {
            let fx = build_fixtures(ctx, &Net::ALL, report)?;
            serve::capacity(ctx, &refs(&fx), report)
        }
        _ => train::run(ctx, report).map(|()| 0.0),
    }
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    // Program telemetry records only where a traced measurement turns it on.
    qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Off);
    let ctx = Ctx {
        qsnc: args.qsnc.clone(),
        out: args.out.clone(),
        seed: args.seed,
        seconds: args.seconds,
    };
    let mut report = Report::default();
    let mut tracer = trace::Tracer::new(args.trace);
    let lag = match run(&args, &ctx, &mut report, &mut tracer) {
        Ok(lag) => lag,
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload);
            return std::process::ExitCode::FAILURE;
        }
    };
    let expected: Vec<&str> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let reported: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    if reported != expected {
        eprintln!(
            "error: reported metrics {reported:?} differ from the declared list {expected:?}"
        );
        return std::process::ExitCode::FAILURE;
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("error: metric {} is not a finite number", m.name);
        return std::process::ExitCode::FAILURE;
    }
    eprintln!(
        "{} seed {} trace {}:\n{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.table()
    );
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let stamp = report::stamp(&args.workload, args.seed, args.seconds, args.trace, lag);
    let written = std::fs::create_dir_all(ctx.out.join("results"))
        .and_then(|()| {
            std::fs::write(
                ctx.out.join("results").join(format!("{tag}.json")),
                report.record_json(stamp).render_pretty(2),
            )
        })
        .and_then(|()| std::fs::create_dir_all(ctx.out.join("spans")))
        .and_then(|()| {
            if args.trace {
                tracer.write_jsonl(&ctx.out.join("spans").join(format!("{tag}.jsonl")))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "error: cannot write results under {}: {e}",
            ctx.out.display()
        );
        return std::process::ExitCode::FAILURE;
    }
    if args.trace {
        eprintln!("span self times (name, count, total ms, self ms):");
        for (name, n, total, own) in tracer.summary() {
            eprintln!(
                "  {name:<36} {n:>8} {:>10.3} {:>10.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    println!("{}", report.result_json().render());
    std::process::ExitCode::SUCCESS
}

/// Per-layer metrics every traced run reports, in `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 79] = [
    "memristor.engine.us_per_example.lenet.b1",
    "memristor.engine.us_per_example.lenet.b32",
    "memristor.engine.batch_gain.lenet",
    "nn.forward.us_per_example.lenet",
    "memristor.engine.speedup_vs_float.lenet",
    "memristor.load_artifact.us.lenet",
    "memristor.hwmodel.sim_us.lenet",
    "tensor.igemm_wx.gmacs.lenet.conv1",
    "tensor.igemm_wx.macs.lenet.conv1",
    "tensor.igemm_wx.bytes.lenet.conv1",
    "tensor.igemm_wx.gmacs.lenet.conv2",
    "tensor.igemm_wx.macs.lenet.conv2",
    "tensor.igemm_wx.bytes.lenet.conv2",
    "memristor.engine.us_per_example.alexnet.b1",
    "memristor.engine.us_per_example.alexnet.b32",
    "memristor.engine.batch_gain.alexnet",
    "nn.forward.us_per_example.alexnet",
    "memristor.engine.speedup_vs_float.alexnet",
    "memristor.load_artifact.us.alexnet",
    "memristor.hwmodel.sim_us.alexnet",
    "tensor.igemm_wx.gmacs.alexnet.conv1",
    "tensor.igemm_wx.macs.alexnet.conv1",
    "tensor.igemm_wx.bytes.alexnet.conv1",
    "tensor.igemm_wx.gmacs.alexnet.conv2",
    "tensor.igemm_wx.macs.alexnet.conv2",
    "tensor.igemm_wx.bytes.alexnet.conv2",
    "tensor.igemm_wx.gmacs.alexnet.conv3",
    "tensor.igemm_wx.macs.alexnet.conv3",
    "tensor.igemm_wx.bytes.alexnet.conv3",
    "tensor.igemm_wx.gmacs.alexnet.conv4",
    "tensor.igemm_wx.macs.alexnet.conv4",
    "tensor.igemm_wx.bytes.alexnet.conv4",
    "tensor.igemm_wx.gmacs.alexnet.conv5",
    "tensor.igemm_wx.macs.alexnet.conv5",
    "tensor.igemm_wx.bytes.alexnet.conv5",
    "bench.trace_overhead_pct.engine_mix",
    "snc.engine.stage.conv.us.p50",
    "snc.engine.stage.conv.share",
    "snc.engine.stage.pool.us.p50",
    "snc.engine.stage.pool.share",
    "snc.engine.stage.ifc.us.p50",
    "snc.engine.stage.ifc.share",
    "snc.engine.stage.fc.us.p50",
    "snc.engine.stage.fc.share",
    "snc.engine.stage.analog.us.p50",
    "snc.engine.stage.analog.share",
    "tensor.igemm.skip_zeros_share",
    "tensor.scratch.fresh_allocations_per_call",
    "serve.latency_us.p50",
    "serve.latency_us.p99",
    "serve.stage.decode.us.p50",
    "serve.stage.queue.us.p50",
    "serve.stage.infer.us.p50",
    "serve.stage.encode.us.p50",
    "serve.stage.queue.us.p99",
    "serve.client_overhead_us.p50",
    "serve.batch.size.mean",
    "serve.queue.depth.mean",
    "serve.loop.dispatch.us.p50",
    "serve.loop.wakeups_per_request",
    "telemetry.record_overhead_pct",
    "bench.trace_overhead_pct.serve_paced",
    "serve.protocol.decode_ns",
    "serve.protocol.encode_ns",
    "bench.trace_overhead_pct.serve_capacity",
    "serve.model.lenet.infer.us.p50",
    "serve.model.alexnet.infer.us.p50",
    "serve.rejected",
    "serve.conn.rejected",
    "telemetry.scrape_ms.p50",
    "snc.deploy.accuracy_pct",
    "nn.forward.ms_per_epoch",
    "nn.backward.ms_per_epoch",
    "quant.cluster.ms",
    "quant.cluster.iterations",
    "tensor.gemm.skip_zeros_share",
    "snc.compile.ms",
    "bench.trace_overhead_pct.train_deploy",
    "bench.generator_lag_us.p99",
];

#[cfg(test)]
mod tests {
    use qsnc_telemetry::json::Json;

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("BENCHMARK.json lists it")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("every entry is named")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let doc = Json::parse(include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../BENCHMARK.json"
        )))
        .expect("BENCHMARK.json parses");
        // Every gated workload is runnable; serve_capacity runs on request
        // (and inside the traced pass) but is not gated.
        let gated = names(&doc, "workloads");
        assert!(
            gated.iter().all(|w| super::WORKLOADS.contains(&w.as_str())),
            "{gated:?}"
        );
        assert_eq!(names(&doc, "end_to_end"), super::END_TO_END);
        assert_eq!(names(&doc, "per_layer"), super::PER_LAYER);
    }
}
