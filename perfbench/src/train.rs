//! train_deploy: `qsnc train` then `qsnc deploy --artifact` as child
//! processes; the traced pass replays the same training in-process with
//! program telemetry recording.

use crate::child::{self, Result};
use crate::fixtures::{cli_args, Net, BITS};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Ctx;
use qsnc_core::{deploy_to_snc, train_quant_aware, QuantConfig, TrainSettings};
use qsnc_tensor::TensorRng;
use std::path::Path;
use std::time::{Duration, Instant};

/// Training set size and first-phase epochs of every `qsnc train` run.
const EXAMPLES: usize = 1000;
const EPOCHS: usize = 1;
/// `qsnc deploy` repetitions per training run (each is a `setup_s` sample).
const DEPLOYS: usize = 3;

/// Examples × epochs one `qsnc train` run processes: 80% of the set
/// trains, for the regularized epochs plus the quantized fine-tune.
fn trained_examples() -> f64 {
    (EXAMPLES as f64 * 0.8).floor()
        * (EPOCHS + QuantConfig::paper(BITS, BITS).finetune_epochs) as f64
}

fn digest(path: &Path) -> Result<u64> {
    Ok(qsnc_nn::checkpoint_digest(
        &std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?,
    ))
}

/// Spiking accuracy printed by `qsnc deploy`.
fn accuracy(stdout: &str) -> Option<f64> {
    let line = stdout.lines().find(|l| l.starts_with("spiking accuracy"))?;
    line.rsplit(' ').next()?.trim_end_matches('%').parse().ok()
}

struct Pass {
    train_s: Vec<f64>,
    deploy_s: Vec<f64>,
    peak_rss_mb: f64,
    accuracy: f64,
}

/// Train/deploy iterations until `budget` elapses (at least one),
/// checking that every repetition reproduces the same checkpoint,
/// artifact and accuracy.
fn cli_pass(ctx: &Ctx, budget: Duration, report: &mut Report) -> Result<Pass> {
    let dir = ctx
        .out
        .join("train_deploy")
        .join(format!("seed-{}", ctx.seed));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let (train, mut deploy) = cli_args(Net::Lenet, ctx.seed, EXAMPLES, EPOCHS, "td.ck");
    deploy.extend(["--artifact".to_string(), "td.qsnca".to_string()]);
    let mut pass = Pass {
        train_s: Vec::new(),
        deploy_s: Vec::new(),
        peak_rss_mb: 0.0,
        accuracy: f64::NAN,
    };
    let mut first: Option<(u64, u64, f64)> = None;
    let t0 = Instant::now();
    while pass.train_s.is_empty() || t0.elapsed() < budget {
        let run = child::run(&ctx.qsnc, &dir, &train, Duration::from_secs(120))?;
        pass.train_s.push(run.wall.as_secs_f64());
        pass.peak_rss_mb = pass.peak_rss_mb.max(run.peak_rss_mb);
        for _ in 0..DEPLOYS {
            let run = child::run(&ctx.qsnc, &dir, &deploy, Duration::from_secs(60))?;
            pass.deploy_s.push(run.wall.as_secs_f64());
            let got = (
                digest(&dir.join("td.ck"))?,
                digest(&dir.join("td.qsnca"))?,
                accuracy(&run.stdout).unwrap_or(f64::NAN),
            );
            report.attempted += 1;
            match first {
                None => first = Some(got),
                Some(want)
                    if want.0 == got.0
                        && want.1 == got.1
                        && want.2.to_bits() == got.2.to_bits() => {}
                Some(want) => {
                    report.failed += 1;
                    report.check(false, || {
                        format!("train/deploy not reproducible: {want:x?} then {got:x?}")
                    });
                }
            }
        }
    }
    let (ck, artifact, acc) = first.expect("at least one iteration ran");
    report.check(acc.is_finite(), || {
        "qsnc deploy printed no spiking accuracy".to_string()
    });
    report.note(format!(
        "train_deploy: {} trains {:?} s, deploys {:?} s, checkpoint {ck:016x}, artifact {artifact:016x}, accuracy {acc}%",
        pass.train_s.len(),
        pass.train_s,
        pass.deploy_s
    ));
    pass.accuracy = acc;
    Ok(pass)
}

/// train_deploy, untraced.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<()> {
    let pass = cli_pass(ctx, ctx.budget(0.85), report)?;
    let train_us: Vec<f64> = pass.train_s.iter().map(|s| s * 1e6).collect();
    report.add("setup_s", median(&pass.deploy_s), "s", pass.deploy_s.len());
    report.add(
        "latency_us",
        percentile(&train_us, 0.5),
        "us",
        train_us.len(),
    );
    report.add(
        "throughput_per_s",
        trained_examples() * pass.train_s.len() as f64 / pass.train_s.iter().sum::<f64>(),
        "1/s",
        pass.train_s.len(),
    );
    report.add("peak_rss_mb", pass.peak_rss_mb, "MiB", pass.train_s.len());
    Ok(())
}

/// Traced pass: one CLI train for the untraced reference, then the same
/// training and compile in-process with telemetry recording.
pub fn traced(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) -> Result<()> {
    let cli = cli_pass(ctx, Duration::ZERO, report)?;
    report.add("snc.deploy.accuracy_pct", cli.accuracy, "%", 1);

    qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Record);
    qsnc_telemetry::reset();
    let t0 = Instant::now();
    let mut rng = TensorRng::seed(ctx.seed);
    let (train, test) = qsnc_data::synth_digits(EXAMPLES, &mut rng).split(0.8);
    let settings = TrainSettings {
        epochs: EPOCHS,
        ..TrainSettings::default()
    };
    let quant = QuantConfig::paper(BITS, BITS);
    // Same worker count as the CLI children (see `child::run`).
    let model = qsnc_tensor::with_num_threads(crate::engine::threads(), || {
        train_quant_aware(
            Net::Lenet.kind(),
            Net::Lenet.width(),
            &settings,
            &quant,
            &train,
            &test,
            ctx.seed,
        )
    });
    let t1 = Instant::now();
    let root = tracer.record("qsnc_core.train_quant_aware", t0, t1, None, 0);
    let snn = deploy_to_snc(&model.net, &quant, None).map_err(|e| e.to_string());
    tracer.record("qsnc_core.deploy_to_snc", t1, Instant::now(), root, 0);
    let snap = qsnc_telemetry::snapshot();
    qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Off);
    snn?;

    let epochs = snap.span("train.epoch").map_or(0, |s| s.count);
    let per_epoch_ms = |prefix: &str| {
        let ns: u64 = snap
            .spans
            .iter()
            .filter(|s| {
                s.path.starts_with("train.epoch/")
                    && s.path
                        .rsplit('/')
                        .next()
                        .is_some_and(|leaf| leaf.starts_with(prefix))
            })
            .map(|s| s.total_ns)
            .sum();
        ns as f64 / 1e6 / epochs.max(1) as f64
    };
    report.add(
        "nn.forward.ms_per_epoch",
        per_epoch_ms("nn.forward."),
        "ms",
        epochs as usize,
    );
    report.add(
        "nn.backward.ms_per_epoch",
        per_epoch_ms("nn.backward."),
        "ms",
        epochs as usize,
    );
    let span_ms = |leaf: &str| {
        let spans = snap
            .spans
            .iter()
            .filter(|s| s.path.rsplit('/').next() == Some(leaf));
        spans.fold((0.0, 0usize), |(ms, n), s| {
            (ms + s.total_ns as f64 / 1e6, n + s.count as usize)
        })
    };
    let (cluster_ms, clusters) = span_ms("quant.cluster");
    report.add("quant.cluster.ms", cluster_ms, "ms", clusters);
    report.add(
        "quant.cluster.iterations",
        snap.counter("quant.cluster.iterations").unwrap_or(0) as f64,
        "count",
        clusters,
    );
    let calls = snap.counter("tensor.gemm.calls").unwrap_or(0);
    report.add(
        "tensor.gemm.skip_zeros_share",
        snap.counter("tensor.gemm.kernel.skip_zeros").unwrap_or(0) as f64 / calls.max(1) as f64,
        "ratio",
        calls as usize,
    );
    let (compile_ms, compiles) = span_ms("snc.compile");
    report.add("snc.compile.ms", compile_ms, "ms", compiles);
    let traced_s = (t1 - t0).as_secs_f64();
    report.add(
        "bench.trace_overhead_pct.train_deploy",
        (traced_s / cli.train_s[0] - 1.0) * 100.0,
        "%",
        1,
    );
    report.note(format!(
        "in-process traced train {traced_s:.3} s vs CLI train {:.3} s",
        cli.train_s[0]
    ));
    Ok(())
}
