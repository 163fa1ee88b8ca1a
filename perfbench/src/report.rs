//! Metric collection, the run stamp and the result line.

use qsnc_telemetry::json::Json;
use std::fmt::Write as _;

/// One reported metric with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the outputs were not all correct; empty means correct.
    pub errors: Vec<String>,
    /// Free-form lines (ledgers, ladder steps) kept in the results file.
    pub notes: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        let line = line.into();
        eprintln!("  {line}");
        self.notes.push(line);
    }

    /// Records an output or invariant check; a failed check makes the run
    /// incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.errors.push(msg);
        }
    }

    /// Human-readable metric table (name, value, unit, samples).
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "  {:<48} {:>14.4} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        s
    }

    /// The result object printed as the last line of standard output.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.errors.is_empty())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The full record kept on disk: result plus sample counts, stamp,
    /// errors and notes.
    pub fn record_json(&self, stamp: Json) -> Json {
        let samples = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), Json::Num(m.samples as f64)))
            .collect();
        Json::obj(vec![
            ("result", self.result_json()),
            ("samples", Json::Obj(samples)),
            ("stamp", stamp),
            (
                "errors",
                Json::Arr(self.errors.iter().map(|e| Json::Str(e.clone())).collect()),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::Str(n.clone())).collect()),
            ),
        ])
    }
}

/// What a run's numbers depend on besides the code: core count, SIMD
/// level, revision, seed and every `QSNC_*` variable in effect.
pub fn stamp(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    generator_lag_p99_us: f64,
) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let revision = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("QSNC_"))
        .collect();
    env.sort();
    Json::obj(vec![
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("trace", Json::Bool(trace)),
        ("nproc", Json::Num(nproc as f64)),
        (
            "simd",
            Json::Str(format!("{:?}", qsnc_tensor::detected_simd())),
        ),
        ("revision", Json::Str(revision)),
        ("generator_lag_p99_us", Json::Num(generator_lag_p99_us)),
        (
            "qsnc_env",
            Json::Obj(env.into_iter().map(|(k, v)| (k, Json::Str(v))).collect()),
        ),
    ])
}
