//! Spawning, probing and killing the real `oblisched-server` binary.

use oblisched_server::{Client, WireRequest, WireResponse};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

extern "C" {
    // glibc; the mask is the first 64 bits of a `cpu_set_t`.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins thread `tid` (0: the calling thread) to `cpu` modulo the CPUs
/// present; `false` when the kernel refuses.
pub fn pin_thread(tid: i32, cpu: usize) -> bool {
    let cpus = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(64);
    let mask: u64 = 1 << (cpu % cpus);
    // SAFETY: `mask` is a live, initialised 8-byte buffer for the whole
    // call; an unknown tid only makes the call fail.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Option<Child>,
    /// The address it listens on.
    pub addr: String,
    log: PathBuf,
    // Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns the daemon over `data_dir` and returns once it announced its
    /// address, which it does after recovering every persisted session.
    /// Its stderr goes to `log`.
    pub fn spawn(bin: &Path, data_dir: &Path, log: &Path) -> Result<Daemon, String> {
        let stderr = File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout was not captured".into());
        };
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            log: log.to_path_buf(),
            _stdout: BufReader::new(stdout),
        };
        let mut line = String::new();
        daemon
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("read daemon announcement: {e}"))?;
        // {"listening":{"addr":"127.0.0.1:PORT"}}
        let addr = line
            .split("\"addr\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .ok_or_else(|| format!("daemon did not announce an address: {line:?}"))?;
        daemon.addr = addr.to_string();
        Ok(daemon)
    }

    /// Connects a new client.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Sends one ping on a fresh connection; `true` on a pong.
    pub fn ping(&self) -> bool {
        self.connect()
            .is_ok_and(|mut c| matches!(c.request(&WireRequest::Ping), Ok(WireResponse::Pong)))
    }

    fn status_field(&self, field: &str) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        status
            .lines()
            .find_map(|line| line.strip_prefix(field))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|value| value.parse().ok())
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        self.status_field("VmHWM:").map(|kib| kib / 1024.0)
    }

    /// Current thread count.
    pub fn threads(&self) -> Option<usize> {
        self.status_field("Threads:").map(|t| t as usize)
    }

    /// Pins each session's daemon threads to the core of its client
    /// thread: session `c`'s actor (named `session-bench-c`) and the
    /// connection thread of client `c` (the `c`-th by thread id among the
    /// unnamed threads other than the main one; clients connect in order)
    /// go to core `c`. Call once every client is connected and no other
    /// connection is open.
    pub fn pin_session_threads(&self) -> bool {
        let Some(pid) = self.child.as_ref().map(Child::id) else {
            return false;
        };
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
            return false;
        };
        let mut connections = Vec::new();
        let mut pinned = true;
        for task in tasks.flatten() {
            let Some(tid) = task
                .file_name()
                .to_str()
                .and_then(|t| t.parse::<i32>().ok())
            else {
                continue;
            };
            let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            if let Some(conn) = comm.trim().strip_prefix("session-bench-") {
                pinned &= conn.parse().is_ok_and(|c| pin_thread(tid, c));
            } else if u32::try_from(tid).is_ok_and(|t| t != pid) {
                connections.push(tid);
            }
        }
        connections.sort_unstable();
        for (conn, tid) in connections.into_iter().enumerate() {
            pinned &= pin_thread(tid, conn);
        }
        pinned
    }

    /// The daemon's stderr so far.
    pub fn log(&self) -> String {
        std::fs::read_to_string(&self.log).unwrap_or_default()
    }

    /// SIGKILLs the daemon and waits for it to end.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}
