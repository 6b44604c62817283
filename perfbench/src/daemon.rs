//! The `matchd` child process: launch, address discovery, graceful
//! shutdown and the readings the report takes from it (`/proc`, CPU clock).

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use wiki_serve::client::MatchClient;

/// How long a launch may take before the daemon counts as failed.
const LAUNCH_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a graceful shutdown (including `--persist`) may take.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(60);

/// Worker threads of every daemon the benchmark starts.
pub const WORKERS: usize = 2;

/// How a daemon is configured; turned into `matchd` flags.
#[derive(Debug, Clone, Default)]
pub struct DaemonConfig {
    pub tiers: String,
    pub snapshot_dir: Option<PathBuf>,
    pub persist: bool,
    pub max_resident_mb: Option<u64>,
    pub capacity: Option<usize>,
}

impl DaemonConfig {
    fn args(&self) -> Vec<String> {
        let mut args = vec![
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--workers".to_string(),
            WORKERS.to_string(),
            "--tiers".to_string(),
            self.tiers.clone(),
            // Slow-request lines would only fill the pipe we drain.
            "--log-level".to_string(),
            "off".to_string(),
        ];
        if let Some(dir) = &self.snapshot_dir {
            args.push("--snapshot-dir".to_string());
            args.push(dir.display().to_string());
        }
        if self.persist {
            args.push("--persist".to_string());
        }
        if let Some(mb) = self.max_resident_mb {
            args.push("--max-resident-mb".to_string());
            args.push(mb.to_string());
        }
        if let Some(capacity) = self.capacity {
            args.push("--capacity".to_string());
            args.push(capacity.to_string());
        }
        args
    }
}

/// A running `matchd`. Dropping it kills and reaps the process.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts `matchd` and waits until it listens.
    pub fn launch(binary: &Path, config: &DaemonConfig) -> io::Result<Daemon> {
        let mut child = Command::new(binary)
            .args(config.args())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child
            .stderr
            .take()
            .ok_or_else(|| io::Error::other("matchd stderr was not captured"))?;
        // The listening line carries the ephemeral port; every later line
        // is drained so the daemon can never block on a full pipe.
        let (tx, rx) = mpsc::channel();
        let drain = thread::spawn(move || {
            let mut sent = false;
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if !sent {
                    if let Some(rest) = line.split("listening on http://").nth(1) {
                        let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                        let _ = tx.send(addr);
                        sent = true;
                    }
                }
            }
        });
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            drain: Some(drain),
        };
        match rx.recv_timeout(LAUNCH_TIMEOUT) {
            Ok(addr) if !addr.is_empty() => daemon.addr = addr,
            _ => {
                return Err(io::Error::other(
                    "matchd did not report a listening address",
                ))
            }
        }
        Ok(daemon)
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn client(&self) -> io::Result<MatchClient> {
        MatchClient::new(self.addr.as_str())
    }

    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// The daemon's peak resident set (`VmHWM`), in megabytes.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()?)).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// The daemon's CPU time so far, user plus system over all its
    /// threads, in seconds.
    pub fn cpu_s(&self) -> Option<f64> {
        cpu_seconds(self.pid()?)
    }

    /// `POST /shutdown` and waits for the process to exit (after any
    /// `--persist` writes). Falls back to killing it.
    pub fn shutdown(mut self) -> io::Result<()> {
        let asked = self
            .client()
            .and_then(|mut client| client.request("POST", "/shutdown", None))
            .map(|response| response.is_success())
            .unwrap_or(false);
        let result = self.reap(asked);
        self.join_drain();
        result
    }

    fn reap(&mut self, graceful: bool) -> io::Result<()> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        if graceful {
            let deadline = Instant::now() + SHUTDOWN_TIMEOUT;
            while Instant::now() < deadline {
                if let Some(status) = child.try_wait()? {
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(io::Error::other(format!("matchd exited with {status}")))
                    };
                }
                thread::sleep(Duration::from_millis(5));
            }
        }
        let _ = child.kill();
        child.wait()?;
        if graceful {
            Err(io::Error::other("matchd did not exit after /shutdown"))
        } else {
            Ok(())
        }
    }

    fn join_drain(&mut self) {
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.reap(false);
        self.join_drain();
    }
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_getcpuclockid(pid: i32, clock_id: *mut i32) -> i32;
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds of process `pid`, user plus system over all its threads
/// (exited ones included), read from its POSIX CPU-time clock to the
/// nanosecond. A virtualised kernel with steal-time accounting leaves out
/// the time the host ran something else on the CPU.
fn cpu_seconds(pid: u32) -> Option<f64> {
    let pid = i32::try_from(pid).ok()?;
    let mut clock = 0;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: both calls only write through the pointers given, which
    // point at live locals of the right types.
    let read =
        unsafe { clock_getcpuclockid(pid, &mut clock) == 0 && clock_gettime(clock, &mut ts) == 0 };
    read.then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// Total bytes of the regular files directly under `dir` (0 when absent).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Removes and recreates `dir`, so a workload starts from an empty one.
pub fn fresh_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}
