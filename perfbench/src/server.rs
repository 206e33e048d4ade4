//! An `offchip-serve` child process: start, readiness, memory, stop.

use crate::http;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Socket timeout for control requests.
pub const CONTROL_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a server may take to become healthy or to drain.
const START_LIMIT: Duration = Duration::from_secs(60);

/// A running server.
pub struct Server {
    child: Child,
    /// Listening address.
    pub addr: SocketAddr,
    /// Spawn to first `/healthz` 200.
    pub ready_after: Duration,
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// The server binary, built into the same target directory as this one
/// (see `run.sh`).
pub fn binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = me.with_file_name("offchip-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} not built", bin.display()))
    }
}

impl Server {
    /// Spawns the server on an ephemeral port with `jobs` fill workers
    /// and `journal_dir`, and waits for its first healthy answer. The
    /// child's environment carries no `OFFCHIP_*` variable, so only the
    /// flags given here configure it.
    pub fn start(journal_dir: &Path, jobs: usize) -> Result<Server, String> {
        let t0 = Instant::now();
        let mut cmd = Command::new(binary()?);
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            &jobs.to_string(),
            "--journal-dir",
        ])
        .arg(journal_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
        for (k, _) in std::env::vars() {
            if k.starts_with("OFFCHIP_") {
                cmd.env_remove(k);
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn offchip-serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.trim()
                .strip_prefix("offchip-serve listening on ")?
                .parse()
                .ok()
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "offchip-serve did not announce its address: {line:?}"
            ));
        };
        let mut server = Server {
            child,
            addr,
            ready_after: Duration::ZERO,
        };
        let health = http::request("GET", "/healthz", "", None, true);
        loop {
            if let Ok(r) = http::fresh_call(addr, &health, CONTROL_TIMEOUT) {
                if r.status == 200 {
                    break;
                }
            }
            if t0.elapsed() > START_LIMIT {
                return Err("offchip-serve never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        server.ready_after = t0.elapsed();
        Ok(server)
    }

    /// Peak resident set (`VmHWM`) of the server so far, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// The counters of `GET /metrics`.
    pub fn counters(&self) -> Result<BTreeMap<String, u64>, String> {
        let req = http::request("GET", "/metrics", "", None, true);
        let r = http::fresh_call(self.addr, &req, CONTROL_TIMEOUT)?;
        let text = String::from_utf8(r.body).map_err(|_| "non-UTF-8 /metrics")?;
        Ok(text
            .lines()
            .filter_map(|l| {
                let mut f = l.split(',');
                (f.next()? == "counter").then_some(())?;
                Some((f.next()?.to_string(), f.next()?.parse().ok()?))
            })
            .collect())
    }

    /// Sends SIGTERM and waits for the drain; the server must exit 0.
    pub fn stop(mut self) -> Result<(), String> {
        let pid = i32::try_from(self.child.id()).map_err(|_| "pid out of range")?;
        // SAFETY: kill(2) takes no pointers; `pid` is our own child,
        // which has not been reaped yet (we still own its `Child`), so
        // the pid cannot have been reused.
        if unsafe { kill(pid, SIGTERM) } != 0 {
            return Err("SIGTERM failed".into());
        }
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("offchip-serve exited with {status}")),
                Ok(None) if t0.elapsed() < START_LIMIT => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("offchip-serve did not drain after SIGTERM".into()),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{status_path}: no VmHWM"))
}
