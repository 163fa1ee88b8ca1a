//! Child processes of the `qsnc` binary: timed one-shot commands and a
//! long-running `qsnc serve` that is always killed and reaped.

use std::io::{BufRead as _, BufReader, Read as _};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub type Result<T> = std::result::Result<T, String>;

/// `VmHWM` (peak resident set) of a live process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Outcome of a one-shot command.
#[derive(Debug)]
pub struct Finished {
    pub wall: Duration,
    pub stdout: String,
    /// Last `VmHWM` read while the child ran (it only grows).
    pub peak_rss_mb: f64,
}

/// Runs `qsnc args…` in `dir` with telemetry off, polling its peak RSS,
/// and fails on a non-zero exit or after `timeout`.
///
/// Unless `QSNC_THREADS` is set, the child runs one worker thread: on a
/// shared 2-vCPU host a two-thread training run takes 0.8 s or 1.0 s
/// depending on whether the second vCPU is free, while one thread repeats
/// within a few percent (results are bit-identical at every thread count).
pub fn run(qsnc: &Path, dir: &Path, args: &[String], timeout: Duration) -> Result<Finished> {
    let t0 = Instant::now();
    let mut cmd = Command::new(qsnc);
    if std::env::var_os("QSNC_THREADS").is_none() {
        cmd.env("QSNC_THREADS", "1");
    }
    let mut child = cmd
        .args(args)
        .current_dir(dir)
        .env_remove("QSNC_TELEMETRY")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", qsnc.display()))?;
    let pid = child.id().to_string();
    // Pipes are drained on their own threads so a chatty child never
    // blocks on a full pipe while this thread polls it.
    let mut out = child.stdout.take().expect("stdout is piped");
    let mut err = child.stderr.take().expect("stderr is piped");
    let out_reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = out.read_to_string(&mut s);
        s
    });
    let err_reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = err.read_to_string(&mut s);
        s
    });
    let mut peak = 0.0f64;
    let status = loop {
        if let Some(rss) = peak_rss_mb(&pid) {
            peak = peak.max(rss);
        }
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if t0.elapsed() > timeout => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "qsnc {} timed out after {timeout:?}",
                    args.join(" ")
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => return Err(format!("waiting for qsnc: {e}")),
        }
    };
    let wall = t0.elapsed();
    let stdout = out_reader.join().expect("stdout reader panicked");
    let stderr = err_reader.join().expect("stderr reader panicked");
    if !status.success() {
        return Err(format!(
            "qsnc {} failed ({status}): {}",
            args.join(" "),
            stderr.trim()
        ));
    }
    Ok(Finished {
        wall,
        stdout,
        peak_rss_mb: peak,
    })
}

/// A running `qsnc serve`; dropping it kills and reaps the process.
pub struct Serve {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub admin: Option<SocketAddr>,
}

/// How to start a server.
pub struct ServeSpec<'a> {
    /// `(name, artifact)`; a `None` name registers the artifact bare, as
    /// the default model.
    pub artifacts: Vec<(Option<&'a str>, PathBuf)>,
    pub admin: bool,
    /// Record program telemetry (`QSNC_TELEMETRY=1`).
    pub telemetry: bool,
}

impl Serve {
    pub fn spawn(qsnc: &Path, spec: &ServeSpec) -> Result<Serve> {
        let mut cmd = Command::new(qsnc);
        cmd.arg("serve").args(["--addr", "127.0.0.1:0"]);
        for (name, path) in &spec.artifacts {
            let path = path.display().to_string();
            cmd.arg("--artifact").arg(match name {
                Some(name) => format!("{name}={path}"),
                None => path,
            });
        }
        if spec.admin {
            cmd.args(["--admin", "127.0.0.1:0"]);
        }
        // Only the arguments above decide what serves and what records.
        cmd.env_remove("QSNC_TELEMETRY")
            .env_remove("QSNC_SERVE_ADMIN_ADDR")
            .env_remove("QSNC_SERVE_ARTIFACT");
        if spec.telemetry {
            cmd.env("QSNC_TELEMETRY", "1");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start qsnc serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addr = None;
        let mut admin = None;
        let mut line = String::new();
        while addr.is_none() || (spec.admin && admin.is_none()) {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let status = child.wait().map_err(|e| e.to_string())?;
                return Err(format!("qsnc serve exited during start-up ({status})"));
            }
            let parse = |rest: &str| rest.trim().parse::<SocketAddr>().map_err(|e| e.to_string());
            if let Some(rest) = line.strip_prefix("listening on ") {
                addr = Some(parse(rest)?);
            } else if let Some(rest) = line.strip_prefix("admin on ") {
                admin = Some(parse(rest)?);
            }
        }
        Ok(Serve {
            child,
            _stdout: stdout,
            addr: addr.expect("loop ends with an address"),
            admin,
        })
    }

    /// Fails loudly when the server process has exited.
    pub fn check_alive(&mut self) -> Result<()> {
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!("qsnc serve died ({status})")),
            Err(e) => Err(format!("cannot poll qsnc serve: {e}")),
        }
    }

    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string()).unwrap_or(f64::NAN)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
