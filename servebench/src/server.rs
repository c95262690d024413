//! The system under test: the shipped `rap serve` binary, started as a
//! child process on loopback from the files the offline phase wrote.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

use crate::gen::{self, Offline, Spec};
use crate::stats;

/// `rap serve` settings, passed explicitly so every result names them.
/// They equal the CLI defaults.
pub const THREADS: u32 = 4;
pub const WINDOW: u16 = 8;
const SECRET: &str = "servebench-session-secret";

pub struct ServerProc {
    child: Child,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub audit_log: Option<PathBuf>,
}

impl ServerProc {
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    pub fn cpu_s(&self) -> Option<f64> {
        stats::proc_cpu_s(&self.pid())
    }

    pub fn peak_rss_mb(&self) -> Option<f64> {
        stats::proc_hwm_mb(&self.pid())
    }

    /// Kills the server and waits until it has exited.
    pub fn stop(mut self) {
        self.kill_and_wait();
    }

    fn kill_and_wait(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill_and_wait();
    }
}

/// One timed set-up: the offline phase (link, plus dictionary mining
/// on dictionary workloads), its artifacts written to `dir`, and a
/// `rap serve` start up to its listen line.
pub struct SetUp {
    pub server: ServerProc,
    pub offline: Offline,
    pub seconds: f64,
}

pub fn set_up(rap: &Path, spec: &Spec, dir: &Path, rep: usize) -> Result<SetUp, String> {
    let t = Instant::now();
    let offline = gen::offline(spec);
    let img = dir.join(format!("app-{rep}.img"));
    let map = dir.join(format!("app-{rep}.map"));
    write(&img, offline.linked.image.bytes())?;
    write(&map, rap_link::write_map(&offline.linked.map).as_bytes())?;
    let mut cmd = Command::new(rap);
    cmd.arg("serve")
        .arg(&img)
        .arg(&map)
        .args(["--key", gen::FLEET_KEY_SEED, "--secret", SECRET])
        .args(["--addr", "127.0.0.1:0"])
        .args(["--threads", &THREADS.to_string()])
        .args(["--window", &WINDOW.to_string()]);
    if let Some(dict) = &offline.dict {
        let path = dir.join(format!("app-{rep}.dict"));
        write(&path, dict.to_text().as_bytes())?;
        cmd.arg("--dict").arg(path);
    }
    let audit_log = spec.audit.then(|| dir.join(format!("audit-{rep}.log")));
    if let Some(log) = &audit_log {
        let _ = std::fs::remove_file(log);
        cmd.arg("--audit-log").arg(log);
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", rap.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let addr = match listen_addr(&mut stdout) {
        Ok(addr) => addr,
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(e);
        }
    };
    let seconds = t.elapsed().as_secs_f64();
    Ok(SetUp {
        server: ServerProc {
            child,
            _stdout: stdout,
            addr,
            audit_log,
        },
        offline,
        seconds,
    })
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Reads the server's stdout up to its `listening on ADDR` line.
fn listen_addr(stdout: &mut impl BufRead) -> Result<String, String> {
    let mut line = String::new();
    loop {
        line.clear();
        match stdout.read_line(&mut line) {
            Ok(0) => return Err("rap serve exited before listening".into()),
            Ok(_) => {
                if let Some(addr) = line.trim().strip_prefix("listening on ") {
                    return Ok(addr.to_string());
                }
            }
            Err(e) => return Err(format!("reading rap serve output: {e}")),
        }
    }
}
