//! Running the `iyp` binary under test: `iyp build` and `iyp serve`
//! child processes, their peak memory, SIGKILL and respawn.

use iyp_server::Client;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Environment knobs of the program that the benchmark keeps at their
/// shipped defaults by removing them from every child's environment.
const SCRUBBED_ENV: [&str; 2] = ["IYP_CYPHER_THREADS", "IYP_SCALE"];

/// The `iyp` executable and the directory its logs go to.
pub struct Iyp {
    pub bin: PathBuf,
    pub logs: PathBuf,
}

/// One finished `iyp build`.
pub struct Built {
    pub secs: f64,
    pub peak_rss_mb: f64,
    pub snapshot_bytes: u64,
}

impl Iyp {
    fn command(&self, args: &[String], log: &str) -> Result<Command, String> {
        let log = File::create(self.logs.join(log)).map_err(|e| format!("log file: {e}"))?;
        let mut cmd = Command::new(&self.bin);
        cmd.args(args).stdin(Stdio::null()).stderr(log);
        for var in SCRUBBED_ENV {
            cmd.env_remove(var);
        }
        Ok(cmd)
    }

    /// Runs `iyp build --scale <scale> --seed <seed> --out <out>` and
    /// reports its wall time, peak RSS and snapshot size.
    pub fn build(&self, scale: &str, seed: u64, out: &Path) -> Result<Built, String> {
        let args = [
            "build".to_string(),
            "--scale".into(),
            scale.into(),
            "--seed".into(),
            seed.to_string(),
            "--out".into(),
            out.display().to_string(),
        ];
        let mut cmd = self.command(&args, "build.log")?;
        cmd.stdout(Stdio::null());
        let started = Instant::now();
        let child = cmd.spawn().map_err(|e| format!("spawn iyp build: {e}"))?;
        let (status, peak_rss_kb) = wait_with_rusage(child)?;
        let secs = started.elapsed().as_secs_f64();
        if status != 0 {
            return Err(format!(
                "iyp build exited with wait status {status:#x} (see build.log)"
            ));
        }
        let snapshot_bytes = std::fs::metadata(out)
            .map_err(|e| format!("snapshot {}: {e}", out.display()))?
            .len();
        Ok(Built {
            secs,
            peak_rss_mb: peak_rss_kb as f64 / 1024.0,
            snapshot_bytes,
        })
    }

    /// Spawns `iyp serve <args> --addr 127.0.0.1:0` and waits for its
    /// first PONG. Returns the running server and the seconds from spawn
    /// to that PONG.
    pub fn serve(&self, args: &[String], log: &str) -> Result<(Served, f64), String> {
        let mut full = vec!["serve".to_string()];
        full.extend_from_slice(args);
        full.extend(["--addr".to_string(), "127.0.0.1:0".to_string()]);
        let mut cmd = self.command(&full, log)?;
        cmd.stdout(Stdio::piped());
        let started = Instant::now();
        let mut child = cmd.spawn().map_err(|e| format!("spawn iyp serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut served = Served {
            child,
            _stdout: None,
            addr: String::new(),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout
                .read_line(&mut line)
                .map_err(|e| format!("read serve stdout: {e}"))?;
            if n == 0 {
                return Err(format!("iyp serve exited before listening (see {log})"));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                served.addr = addr.to_string();
                break;
            }
        }
        // The server prints more banner lines; keep the pipe open so
        // those writes never fail.
        served._stdout = Some(stdout);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match Client::connect(served.addr.as_str()) {
                Ok(_) => break,
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("no PONG from {}: {e}", served.addr))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        Ok((served, started.elapsed().as_secs_f64()))
    }
}

/// A running `iyp serve`. Dropping it SIGKILLs the process and reaps it.
pub struct Served {
    child: Child,
    _stdout: Option<BufReader<ChildStdout>>,
    pub addr: String,
}

impl Served {
    pub fn client(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Peak resident memory so far (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// SIGKILLs the server and waits until it is gone.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.reap();
    }
}

#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Waits for `child` and returns its raw wait status and peak RSS in
/// KiB, read from the kernel's accounting of that one process.
fn wait_with_rusage(child: Child) -> Result<(i32, i64), String> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out
        // as the Linux x86-64/aarch64 `int` and `struct rusage` (two
        // timevals, then 14 longs); `pid` is our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((status, usage.maxrss));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {err}"));
        }
    }
}
