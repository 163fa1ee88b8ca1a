//! End-to-end SIMD × thread-count matrix for the integer fast path.
//!
//! A deployed LeNet's logits must be bit-identical no matter which SIMD
//! level the integer engine's kernels dispatch to and no matter how many
//! pool threads participate: forcing `Scalar`, `Sse2`, or `Avx2` (clamped
//! to what the machine supports) and sweeping 1 vs 4 threads must all
//! reproduce the scalar single-threaded logits exactly — the whole-network
//! analogue of the per-kernel proptests in `qsnc-tensor`.

use qsnc_memristor::{DeployConfig, SpikingNetwork};
use qsnc_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, Relu};
use qsnc_nn::Sequential;
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    WeightQuantMethod,
};
use qsnc_tensor::{parallel, simd, Conv2dSpec, SimdLevel, Tensor, TensorRng};

/// Small random LeNet quantized to `M`-bit signals / `N`-bit weights.
fn deployable_lenet(m: u32, n: u32, rng: &mut TensorRng) -> (Sequential, DeployConfig) {
    let mut net = qsnc_nn::models::lenet(0.25, 10, rng);
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(m),
        0.0,
        ActivationQuantizer::new(m),
    );
    switch.set_enabled(true);
    quantize_network_weights(&mut net, n, WeightQuantMethod::Clustered);
    (net, DeployConfig::paper(n, m))
}

/// Small conv net with an overlapping `MaxPool(3, 2)` over a 12×12 map
/// (floor pooling drops its last row and column) and a `MaxPool(2, 2)`
/// over an odd 5×5 map — the pools the engine fuses into the preceding
/// IFC beyond LeNet's 2×2 pools over even maps. Input is `[B, 1, 14, 14]`.
fn deployable_pool_net(m: u32, n: u32, rng: &mut TensorRng) -> (Sequential, DeployConfig) {
    let mut net = Sequential::new();
    net.push(Conv2d::new("conv1", 1, 4, Conv2dSpec::new(3, 1, 0), rng)); // 14 → 12
    net.push(Relu::new());
    net.push(MaxPool2d::new(3, 2)); // 12 → 5
    net.push(Conv2d::new("conv2", 4, 6, Conv2dSpec::new(3, 1, 1), rng)); // 5 → 5
    net.push(Relu::new());
    net.push(MaxPool2d::new(2, 2)); // 5 → 2
    net.push(Flatten::new());
    net.push(Linear::new("fc", 6 * 2 * 2, 10, rng));
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(m),
        0.0,
        ActivationQuantizer::new(m),
    );
    switch.set_enabled(true);
    quantize_network_weights(&mut net, n, WeightQuantMethod::Clustered);
    (net, DeployConfig::paper(n, m))
}

/// Every SIMD level this machine can execute, scalar included.
fn all_levels() -> Vec<SimdLevel> {
    let top = simd::detected_simd();
    [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= top)
        .collect()
}

#[test]
fn lenet_inference_bit_identical_across_simd_levels_and_threads() {
    let mut rng = TensorRng::seed(42);
    let (net, config) = deployable_lenet(4, 4, &mut rng);
    let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
    assert!(snn.has_fast_path(), "4-bit LeNet must take the integer engine");

    for input_seed in 0..4u64 {
        let mut drng = TensorRng::seed(900 + input_seed);
        let x = qsnc_tensor::init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut drng);

        let oracle = simd::with_simd_level(SimdLevel::Scalar, || {
            parallel::with_num_threads(1, || snn.infer(&x, None))
        });

        for level in all_levels() {
            for threads in [1usize, 4] {
                let got = simd::with_simd_level(level, || {
                    parallel::with_num_threads(threads, || snn.infer(&x, None))
                });
                assert_eq!(got.dims(), oracle.dims());
                for (i, (&r, &f)) in oracle.iter().zip(got.iter()).enumerate() {
                    assert_eq!(
                        r.to_bits(),
                        f.to_bits(),
                        "logit {i} diverged at {level:?} x {threads} threads: {r} vs {f}"
                    );
                }
            }
        }
    }
}

#[test]
fn batched_inference_bit_identical_across_simd_levels_and_threads() {
    let mut rng = TensorRng::seed(11);
    let (net, config) = deployable_lenet(4, 4, &mut rng);
    let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
    assert!(snn.has_fast_path());

    // A batch drives the engine's M = B igemm path (the one the serving
    // layer uses), which takes the SIMD dot kernels on its own route.
    let mut drng = TensorRng::seed(5005);
    let batch = qsnc_tensor::init::uniform([6, 1, 28, 28], 0.0, 1.0, &mut drng);

    let mut oracle = Vec::new();
    let ran = simd::with_simd_level(SimdLevel::Scalar, || {
        parallel::with_num_threads(1, || snn.infer_batch_into(&batch, &mut oracle))
    });
    assert!(ran, "fast path must run the batch");

    for level in all_levels() {
        for threads in [1usize, 4] {
            let mut got = Vec::new();
            let ran = simd::with_simd_level(level, || {
                parallel::with_num_threads(threads, || snn.infer_batch_into(&batch, &mut got))
            });
            assert!(ran);
            assert_eq!(got.len(), oracle.len());
            for (i, (&r, &f)) in oracle.iter().zip(got.iter()).enumerate() {
                assert_eq!(
                    r.to_bits(),
                    f.to_bits(),
                    "batched logit {i} diverged at {level:?} x {threads} threads"
                );
            }
        }
    }
}

#[test]
fn infer_into_bit_identical_across_simd_levels() {
    let mut rng = TensorRng::seed(23);
    let (net, config) = deployable_lenet(3, 5, &mut rng);
    let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
    assert!(snn.has_fast_path());

    let mut drng = TensorRng::seed(77);
    let x = qsnc_tensor::init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut drng);

    let mut oracle = Vec::new();
    let ran = simd::with_simd_level(SimdLevel::Scalar, || {
        parallel::with_num_threads(1, || snn.infer_into(&x, &mut oracle))
    });
    assert!(ran);

    for level in all_levels() {
        let mut buf = Vec::new();
        let ran = simd::with_simd_level(level, || snn.infer_into(&x, &mut buf));
        assert!(ran);
        assert_eq!(buf.len(), oracle.len());
        for (&r, &f) in oracle.iter().zip(buf.iter()) {
            assert_eq!(r.to_bits(), f.to_bits(), "infer_into diverged at {level:?}");
        }
    }
}

#[test]
fn fused_pools_bit_identical_to_reference_across_simd_levels_and_threads() {
    let mut rng = TensorRng::seed(31);
    let (net, config) = deployable_pool_net(4, 4, &mut rng);
    let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
    assert!(snn.has_fast_path(), "the 4-bit pool net must compile");

    let mut drng = TensorRng::seed(4242);
    let xs = qsnc_tensor::init::uniform([5, 1, 14, 14], 0.0, 1.0, &mut drng);
    let examples: Vec<Tensor> = xs
        .as_slice()
        .chunks_exact(14 * 14)
        .map(|x| Tensor::from_vec(x.to_vec(), [1, 1, 14, 14]))
        .collect();
    let reference: Vec<f32> = examples
        .iter()
        .flat_map(|x| snn.infer_reference(x).as_slice().to_vec())
        .collect();

    for level in all_levels() {
        for threads in [1usize, 2] {
            let (single, batched) = simd::with_simd_level(level, || {
                parallel::with_num_threads(threads, || {
                    let mut single = Vec::new();
                    assert!(snn.infer_into(&examples[0], &mut single));
                    let mut batched = Vec::new();
                    assert!(snn.infer_batch_into(&xs, &mut batched));
                    (single, batched)
                })
            });
            for (got, batch) in [(&single, 1usize), (&batched, 5)] {
                assert_eq!(got.len(), 10 * batch);
                for (i, (&r, &f)) in reference.iter().zip(got.iter()).enumerate() {
                    assert_eq!(
                        r.to_bits(),
                        f.to_bits(),
                        "batch {batch} logit {i} diverged at {level:?} x {threads} threads"
                    );
                }
            }
        }
    }
}
