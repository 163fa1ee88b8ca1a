//! Traced in-process engine measurements: engine cost per network and batch
//! size against the float forward, stage attribution over a mixed load,
//! artifact load time and the kernel ledger. No sockets.

use crate::child::Result;
use crate::fixtures::{Fixture, Net, BITS};
use crate::report::Report;
use crate::schedule::SplitMix;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Ctx;
use qsnc_memristor::{load_artifact, network_geometry, HwModel};
use qsnc_nn::{LayerDesc, Mode, Sequential};
use qsnc_quant::{insert_signal_stages, ActivationQuantizer, ActivationRegularizer};
use qsnc_tensor::{Conv2dSpec, PackedCodes, Tensor, TensorRng};
use std::time::{Duration, Instant};

/// Calls per mix round as `(net, batch, calls)`. Weighted so each network
/// takes a similar share of wall time at both batch sizes; the stage
/// attribution and the span overhead are measured over this mix.
const MIX: [(Net, usize, usize); 4] = [
    (Net::Lenet, 1, 64),
    (Net::Lenet, 32, 4),
    (Net::Alexnet, 1, 4),
    (Net::Alexnet, 32, 1),
];

/// One engine call of the mix: which fixture, batch size, pool offset.
#[derive(Clone, Copy)]
struct Call {
    fx: usize,
    batch: usize,
    start: usize,
}

/// A round's calls in seeded order, each with its prepared input.
struct Round {
    calls: Vec<Call>,
    inputs: Vec<Tensor>,
}

fn round(fixtures: &[&Fixture], rng: &mut SplitMix) -> Round {
    let mut calls = Vec::new();
    for (net, batch, n) in MIX {
        let fx = fixtures
            .iter()
            .position(|f| f.net == net)
            .expect("the traced pass builds both fixtures");
        for _ in 0..n {
            calls.push(Call {
                fx,
                batch,
                start: rng.below(fixtures[fx].inputs.len()),
            });
        }
    }
    for i in (1..calls.len()).rev() {
        calls.swap(i, rng.below(i + 1));
    }
    let inputs = calls
        .iter()
        .map(|c| fixtures[c.fx].batch(c.start, c.batch))
        .collect();
    Round { calls, inputs }
}

/// Worker threads for in-process engine and training measurements: one
/// unless `QSNC_THREADS` is set (see `child::run` for why).
pub fn threads() -> usize {
    if std::env::var_os("QSNC_THREADS").is_none() {
        1
    } else {
        qsnc_tensor::num_threads()
    }
}

fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Rebuilds the float network behind a fixture from its checkpoint, the
/// way `qsnc deploy` does, with quantized signals on.
fn float_net(fx: &Fixture, seed: u64) -> Result<Sequential> {
    let mut rng = TensorRng::seed(seed);
    let mut net = qsnc_nn::models::build_model(fx.net.kind(), fx.net.width(), 10, &mut rng);
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(BITS),
        0.0,
        ActivationQuantizer::new(BITS),
    );
    switch.set_enabled(true);
    let bytes = std::fs::read(&fx.checkpoint).map_err(|e| e.to_string())?;
    qsnc_nn::load_params(&mut net, bytes.as_slice()).map_err(|e| e.to_string())?;
    Ok(net)
}

/// Mean µs per example of `f` run over `inputs` until `budget` elapses
/// (at least once over the pool).
fn time_per_example(
    inputs: &[Tensor],
    budget: Duration,
    mut f: impl FnMut(&Tensor),
) -> (f64, usize) {
    let t0 = Instant::now();
    let mut examples = 0;
    while examples == 0 || t0.elapsed() < budget {
        for x in inputs {
            f(x);
            examples += x.dims()[0];
        }
    }
    (t0.elapsed().as_secs_f64() * 1e6 / examples as f64, examples)
}

/// A conv layer's integer GEMM as the engine runs it: `w[out×k] · x[k×pix]`.
struct ConvShape {
    label: String,
    codes: PackedCodes,
    cols: Vec<i32>,
    out_dim: usize,
    k: usize,
    pix: usize,
}

/// Walks the float network layer by layer on `x`, capturing each conv
/// layer's weight codes and im2col'd input spike counts.
fn conv_shapes(net: &mut Sequential, fx: &Fixture, x: &Tensor) -> Vec<ConvShape> {
    let quant = ActivationQuantizer::new(BITS);
    let mut shapes = Vec::new();
    let mut cur = x.clone();
    for layer in net.layers_mut().iter_mut() {
        if let LayerDesc::Conv {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
        } = layer.descriptor()
        {
            let conv = layer
                .as_any()
                .downcast_ref::<qsnc_nn::layers::Conv2d>()
                .expect("conv descriptors come from Conv2d layers");
            let codes = qsnc_quant::cluster_weights(conv.weight(), BITS).codes;
            let k = in_channels * kernel * kernel;
            let packed =
                PackedCodes::try_pack(&codes, out_channels, k).expect("4-bit codes fit i8");
            let (h, w) = (cur.dims()[2], cur.dims()[3]);
            let spec = Conv2dSpec::new(kernel, stride, padding);
            let pix = spec.output_size(h) * spec.output_size(w);
            let counts: Vec<i32> = cur
                .as_slice()
                .iter()
                .map(|&v| quant.spike_count(v) as i32)
                .collect();
            let mut cols = vec![0i32; k * pix];
            qsnc_tensor::im2col_i32(&counts, in_channels, (h, w), spec, &mut cols);
            shapes.push(ConvShape {
                label: format!("{}.conv{}", fx.net.name(), shapes.len() + 1),
                codes: packed,
                cols,
                out_dim: out_channels,
                k,
                pix,
            });
        }
        cur = layer.forward(&cur, Mode::Eval);
    }
    shapes
}

/// Traced engine pass: per-network engine cost at batch 1 and 32, stage
/// attribution from program telemetry, float reference, artifact load,
/// the `igemm_wx` ledger and the simulated hardware windows.
pub fn traced(
    ctx: &Ctx,
    fixtures: &[&Fixture],
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<()> {
    qsnc_tensor::with_num_threads(threads(), || {
        traced_on_threads(ctx, fixtures, report, tracer)
    })
}

fn traced_on_threads(
    ctx: &Ctx,
    fixtures: &[&Fixture],
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<()> {
    // Engine at batch 1 and 32 and the float forward run in alternating
    // slices, so a change in host speed lands on every arm alike.
    const REPS: usize = 5;
    let slice = ctx.budget(0.025 * 3.0 / REPS as f64);
    let mut out = Vec::new();
    let mut wrong = 0u64;
    let mut calls = 0u64;
    for fx in fixtures {
        let name = fx.net.name();
        let batches: Vec<Vec<Tensor>> = [1usize, 32]
            .iter()
            .map(|&b| {
                (0..fx.inputs.len() / b)
                    .map(|j| fx.batch(j * b, b))
                    .collect()
            })
            .collect();
        for (inputs, b) in batches.iter().zip([1usize, 32]) {
            fx.engine.infer_batch_into(&inputs[0], &mut out);
            if !bit_identical(&out, &fx.expected[..b].concat()) {
                wrong += 1;
            }
        }
        let mut net = float_net(fx, ctx.seed)?;
        // Per arm: µs per example of each slice, and examples timed.
        let mut arms = [(Vec::new(), 0usize), (Vec::new(), 0), (Vec::new(), 0)];
        for _ in 0..REPS {
            for (arm, inputs) in arms.iter_mut().zip(&batches) {
                let (per, n) = time_per_example(inputs, slice, |x| {
                    let t0 = Instant::now();
                    fx.engine.infer_batch_into(x, &mut out);
                    tracer.record("engine.infer_batch_into", t0, Instant::now(), None, calls);
                    calls += 1;
                });
                arm.0.push(per);
                arm.1 += n;
            }
            let (per, n) = time_per_example(&fx.inputs, slice, |x| {
                let t0 = Instant::now();
                std::hint::black_box(net.forward(x, Mode::Eval));
                tracer.record("nn.forward", t0, Instant::now(), None, 0);
            });
            arms[2].0.push(per);
            arms[2].1 += n;
        }
        let [b1, b32, float] = arms.map(|(per, n)| (median(&per), n));
        report.add(
            format!("memristor.engine.us_per_example.{name}.b1"),
            b1.0,
            "us",
            b1.1,
        );
        report.add(
            format!("memristor.engine.us_per_example.{name}.b32"),
            b32.0,
            "us",
            b32.1,
        );
        report.add(
            format!("memristor.engine.batch_gain.{name}"),
            b1.0 / b32.0,
            "ratio",
            REPS,
        );
        report.add(
            format!("nn.forward.us_per_example.{name}"),
            float.0,
            "us",
            float.1,
        );
        report.add(
            format!("memristor.engine.speedup_vs_float.{name}"),
            float.0 / b1.0,
            "ratio",
            REPS,
        );

        let loads: Vec<f64> = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                let loaded = load_artifact(&fx.artifact).map(|a| a.network);
                tracer.record("memristor.load_artifact", t0, Instant::now(), None, 0);
                loaded
                    .map(|_| t0.elapsed().as_secs_f64() * 1e6)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_>>()?;
        report.add(
            format!("memristor.load_artifact.us.{name}"),
            median(&loads),
            "us",
            loads.len(),
        );

        ledger(fx, &mut net, ctx, report, tracer);
    }
    report.attempted += calls;
    report.failed += wrong;
    report.check(wrong == 0, || {
        format!("{wrong} traced engine outputs differ from the expected output")
    });

    // The mix with and without the benchmark's per-call spans.
    let mut rng = SplitMix::new(ctx.seed);
    let round = round(fixtures, &mut rng);
    // Interleaved arms, so a change in host speed hits both alike.
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    for _ in 0..4 {
        plain.push(mix_rate(fixtures, &round, ctx.budget(0.008), None));
        spanned.push(mix_rate(
            fixtures,
            &round,
            ctx.budget(0.008),
            Some(&mut *tracer),
        ));
    }
    report.add(
        "bench.trace_overhead_pct.engine_mix",
        (median(&plain) / median(&spanned) - 1.0) * 100.0,
        "%",
        8,
    );

    // Stage attribution from the engine's own telemetry over the mix.
    qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Record);
    qsnc_telemetry::reset();
    let allocs0 = qsnc_tensor::scratch::fresh_allocations();
    let t0 = Instant::now();
    let mut engine_ns = 0u128;
    let mut mix_calls = 0u64;
    while mix_calls == 0 || t0.elapsed() < ctx.budget(0.06) {
        for (c, x) in round.calls.iter().zip(&round.inputs) {
            let t = Instant::now();
            fixtures[c.fx].engine.infer_batch_into(x, &mut out);
            engine_ns += t.elapsed().as_nanos();
            mix_calls += 1;
        }
    }
    let allocs = qsnc_tensor::scratch::fresh_allocations() - allocs0;
    let snap = qsnc_telemetry::snapshot();
    qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Off);
    for stage in ["conv", "pool", "ifc", "fc", "analog"] {
        let q = snap.quantile_sketch(&format!("snc.engine.stage.{stage}.us"));
        let (p50, sum, n) = q.map_or((f64::NAN, 0.0, 0), |q| {
            (q.quantile(0.5), q.sum, q.count as usize)
        });
        report.add(format!("snc.engine.stage.{stage}.us.p50"), p50, "us", n);
        report.add(
            format!("snc.engine.stage.{stage}.share"),
            sum * 1e3 / engine_ns as f64,
            "ratio",
            n,
        );
    }
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    report.add(
        "tensor.igemm.skip_zeros_share",
        counter("tensor.igemm.kernel.skip_zeros") / counter("tensor.igemm.calls"),
        "ratio",
        counter("tensor.igemm.calls") as usize,
    );
    report.add(
        "tensor.scratch.fresh_allocations_per_call",
        allocs as f64 / mix_calls as f64,
        "count",
        mix_calls as usize,
    );
    Ok(())
}

/// Examples per second over whole mix rounds for `budget`, recording a
/// span per call when a tracer is given.
fn mix_rate(
    fixtures: &[&Fixture],
    round: &Round,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
) -> f64 {
    let mut out = Vec::new();
    let t0 = Instant::now();
    let mut examples = 0usize;
    while examples == 0 || t0.elapsed() < budget {
        let r0 = Instant::now();
        let mut spans = Vec::new();
        for (i, (c, x)) in round.calls.iter().zip(&round.inputs).enumerate() {
            let t = Instant::now();
            fixtures[c.fx].engine.infer_batch_into(x, &mut out);
            spans.push((t, Instant::now(), i));
            examples += c.batch;
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            let parent = tracer.record("engine.mix_round", r0, Instant::now(), None, 0);
            for (t, end, i) in spans {
                tracer.record("engine.infer_batch_into", t, end, parent, i as u64);
            }
        }
    }
    examples as f64 / t0.elapsed().as_secs_f64()
}

/// Replays `igemm_wx` at each conv layer's shape (GMAC/s, MACs, computed
/// bytes moved) beside the hardware model's simulated per-layer windows.
fn ledger(fx: &Fixture, net: &mut Sequential, ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) {
    let sim = HwModel::calibrated().breakdown(
        &network_geometry(&net.synaptic_descriptors(), 32),
        BITS,
        BITS,
    );
    let sim_total: f64 = sim.iter().map(|l| f64::from(l.latency_us)).sum();
    report.add(
        format!("memristor.hwmodel.sim_us.{}", fx.net.name()),
        sim_total,
        "us",
        sim.len(),
    );
    let shapes = conv_shapes(net, fx, &fx.inputs[0]);
    for (i, s) in shapes.iter().enumerate() {
        let mut c = vec![0i32; s.out_dim * s.pix];
        let t0 = Instant::now();
        let mut reps = 0u64;
        while reps < 10 || t0.elapsed() < ctx.budget(0.004) {
            c.iter_mut().for_each(|v| *v = 0);
            qsnc_tensor::igemm_wx(
                s.out_dim,
                s.k,
                s.pix,
                &s.codes,
                std::hint::black_box(&s.cols),
                &mut c,
            );
            std::hint::black_box(&c);
            reps += 1;
        }
        let secs = t0.elapsed().as_secs_f64() / reps as f64;
        tracer.record("tensor.igemm_wx", t0, Instant::now(), None, i as u64);
        let macs = (s.out_dim * s.k * s.pix) as f64;
        // i8 weight codes in, i32 columns in, i32 accumulators read and written.
        let bytes = (s.out_dim * s.k + 4 * s.k * s.pix + 8 * s.out_dim * s.pix) as f64;
        report.add(
            format!("tensor.igemm_wx.gmacs.{}", s.label),
            macs / secs / 1e9,
            "GMAC/s",
            reps as usize,
        );
        report.add(
            format!("tensor.igemm_wx.macs.{}", s.label),
            macs,
            "count",
            1,
        );
        report.add(
            format!("tensor.igemm_wx.bytes.{}", s.label),
            bytes,
            "bytes",
            1,
        );
        report.note(format!(
            "ledger {}: out {} k {} pix {} | {:.0} MACs {:.0} B | measured {:.2} us {:.2} GMAC/s | simulated window {:.4} us",
            s.label,
            s.out_dim,
            s.k,
            s.pix,
            macs,
            bytes,
            secs * 1e6,
            macs / secs / 1e9,
            sim.get(i).map_or(f64::NAN, |l| f64::from(l.latency_us)),
        ));
    }
}
