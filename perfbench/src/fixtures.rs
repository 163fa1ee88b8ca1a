//! Deterministic fixtures: the LeNet and AlexNet 4-bit `.qsnca` artifacts,
//! built through the shipped `qsnc train` → `qsnc deploy --artifact` CLI at
//! the workload seed, plus seeded input pools and their expected outputs.

use crate::child::{self, Result};
use qsnc_memristor::{load_artifact, SpikingNetwork};
use qsnc_tensor::{Tensor, TensorRng};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Signal and weight bits of every fixture (the paper's 4-bit deploy).
pub const BITS: u32 = 4;

/// Distinct inputs per model; requests and engine calls cycle through them.
pub const POOL: usize = 64;

/// A network the benchmark deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    Lenet,
    Alexnet,
}

impl Net {
    pub const ALL: [Net; 2] = [Net::Lenet, Net::Alexnet];

    pub fn name(self) -> &'static str {
        match self {
            Net::Lenet => "lenet",
            Net::Alexnet => "alexnet",
        }
    }

    pub fn width(self) -> f32 {
        match self {
            Net::Lenet => 0.5,
            Net::Alexnet => 0.25,
        }
    }

    /// Dataset size for the fixture's training run: enough for a
    /// non-degenerate network, small enough to keep set-up short.
    fn examples(self) -> usize {
        match self {
            Net::Lenet => 600,
            Net::Alexnet => 200,
        }
    }

    pub fn kind(self) -> qsnc_nn::ModelKind {
        match self {
            Net::Lenet => qsnc_nn::ModelKind::Lenet,
            Net::Alexnet => qsnc_nn::ModelKind::Alexnet,
        }
    }

    /// Seeded inputs: sparse digits for LeNet, dense objects for AlexNet,
    /// so the engine's zero-skipping paths see both kinds of input.
    pub fn inputs(self, seed: u64, n: usize) -> Tensor {
        let mut rng = TensorRng::seed(seed ^ 0x1b5e_d00d);
        let data = match self {
            Net::Lenet => qsnc_data::synth_digits(n, &mut rng),
            Net::Alexnet => qsnc_data::synth_objects(n, &mut rng),
        };
        data.images().clone()
    }
}

/// `train` + `deploy` arguments shared by fixtures and the train_deploy
/// workload; `deploy` repeats `--model`/`--width` because checkpoints do not
/// carry them.
pub fn cli_args(
    net: Net,
    seed: u64,
    examples: usize,
    epochs: usize,
    ck: &str,
) -> (Vec<String>, Vec<String>) {
    let common = [
        "--model".to_string(),
        net.name().to_string(),
        "--width".to_string(),
        net.width().to_string(),
        "--bits".to_string(),
        BITS.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--examples".to_string(),
        examples.to_string(),
    ];
    let mut train = vec!["train".to_string()];
    train.extend(common.iter().cloned());
    train.extend([
        "--epochs".to_string(),
        epochs.to_string(),
        "--out".to_string(),
        ck.to_string(),
    ]);
    let mut deploy = vec!["deploy".to_string()];
    deploy.extend(common.iter().cloned());
    deploy.extend(["--checkpoint".to_string(), ck.to_string()]);
    (train, deploy)
}

/// One deployed network with its input pool and expected outputs.
pub struct Fixture {
    pub net: Net,
    pub artifact: PathBuf,
    pub checkpoint: PathBuf,
    /// FNV-1a-64 of the artifact bytes.
    pub digest: u64,
    pub engine: SpikingNetwork,
    /// `[1, …]` example tensors.
    pub inputs: Vec<Tensor>,
    /// Expected output of each input, from the loaded artifact's
    /// `infer_into` (proven bit-identical to `infer_reference`).
    pub expected: Vec<Vec<f32>>,
}

impl Fixture {
    pub fn input_len(&self) -> usize {
        self.inputs[0].len()
    }

    /// A `[n, …]` batch of the pool inputs `start..start + n` (wrapping).
    pub fn batch(&self, start: usize, n: usize) -> Tensor {
        let mut dims = self.inputs[0].dims().to_vec();
        dims[0] = n;
        let mut data = Vec::with_capacity(n * self.input_len());
        for i in 0..n {
            data.extend_from_slice(self.inputs[(start + i) % self.inputs.len()].as_slice());
        }
        Tensor::from_vec(data, dims)
    }
}

fn fnv(path: &Path) -> Result<u64> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(qsnc_nn::checkpoint_digest(&bytes))
}

/// Builds (outside any timed region) the fixtures for `nets` under
/// `out/fixtures/seed-N`, and fails if an artifact's digest differs from
/// the one an earlier run of the same seed recorded.
pub fn build(qsnc: &Path, out: &Path, seed: u64, nets: &[Net]) -> Result<Vec<Fixture>> {
    let dir = out.join("fixtures").join(format!("seed-{seed}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut fixtures = Vec::new();
    for &net in nets {
        let ck = format!("{}.ck", net.name());
        let artifact = dir.join(format!("{}.qsnca", net.name()));
        let (train, mut deploy) = cli_args(net, seed, net.examples(), 1, &ck);
        deploy.extend(["--artifact".to_string(), artifact.display().to_string()]);
        child::run(qsnc, &dir, &train, Duration::from_secs(120))?;
        child::run(qsnc, &dir, &deploy, Duration::from_secs(60))?;
        let digest = fnv(&artifact)?;
        let record = dir.join(format!("{}.digest", net.name()));
        match std::fs::read_to_string(&record) {
            Ok(old) if old.trim() != format!("{digest:016x}") => {
                return Err(format!(
                    "{} artifact for seed {seed} is not deterministic: digest {digest:016x}, an earlier run recorded {}",
                    net.name(),
                    old.trim()
                ))
            }
            Ok(_) => {}
            Err(_) => std::fs::write(&record, format!("{digest:016x}\n")).map_err(|e| e.to_string())?,
        }
        let engine = load_artifact(&artifact)
            .map_err(|e| format!("cannot load {}: {e}", artifact.display()))?
            .network;
        let images = net.inputs(seed, POOL);
        let per = images.len() / POOL;
        let mut dims = images.dims().to_vec();
        dims[0] = 1;
        let inputs: Vec<Tensor> = images
            .as_slice()
            .chunks_exact(per)
            .map(|c| Tensor::from_vec(c.to_vec(), dims.clone()))
            .collect();
        let mut expected = Vec::with_capacity(POOL);
        for x in &inputs {
            let mut out = Vec::new();
            if !engine.infer_into(x, &mut out) {
                return Err(format!("{} artifact has no integer fast path", net.name()));
            }
            expected.push(out);
        }
        fixtures.push(Fixture {
            net,
            artifact,
            checkpoint: dir.join(ck),
            digest,
            engine,
            inputs,
            expected,
        });
    }
    Ok(fixtures)
}
