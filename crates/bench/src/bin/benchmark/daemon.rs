//! The `spade-serve` child process the wire workloads drive.

use spade_serve::client::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon. Dropping it kills the child and waits for it, so no
/// error path leaves a process behind.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    /// Kept open so the daemon never writes into a closed pipe.
    _stderr: BufReader<ChildStderr>,
}

/// The release `spade-serve` built beside this executable (one directory up
/// when running as a `cargo test` binary under `deps/`).
pub fn binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.ancestors()
        .skip(1)
        .take(2)
        .map(|dir| dir.join("spade-serve"))
        .find(|candidate| candidate.is_file())
        .ok_or_else(|| format!("no spade-serve binary beside {}", exe.display()))
}

impl Daemon {
    /// Spawns the daemon with one worker and one engine thread on a free
    /// loopback port (on the generator's core: a child inherits the pin) and
    /// returns once it reported its address. `args` are the workload's own
    /// flags (snapshot source, cache budget).
    pub fn spawn(args: &[String]) -> Result<Daemon, String> {
        let binary = binary()?;
        let mut child = Command::new(&binary)
            .args(args)
            .args(["--addr", "127.0.0.1:0", "--workers", "1", "--threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        match listen_address(&mut stderr) {
            Ok(addr) => Ok(Daemon { child, addr, _stderr: stderr }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The single keep-alive connection of the closed-loop generator, open
    /// once `/healthz` answered 200. With one worker, every request of a
    /// run — health, explores, reloads, `/stats` — goes through it.
    pub fn connect(&self) -> Result<Client, String> {
        let mut client = Client::new(self.addr).no_retry();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client.get("/healthz") {
                Ok(r) if r.status == 200 => return Ok(client),
                Ok(r) if Instant::now() > deadline => {
                    return Err(format!("/healthz answered {}", r.status));
                }
                Err(e) if Instant::now() > deadline => return Err(format!("/healthz: {e}")),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
}

/// Reads the daemon's stderr up to its
/// `spade-serve: serving N graph(s), default "x", on http://ADDR` line.
fn listen_address(stderr: &mut impl BufRead) -> Result<SocketAddr, String> {
    let mut seen = String::new();
    loop {
        let mut line = String::new();
        if stderr.read_line(&mut line).unwrap_or(0) == 0 {
            return Err(format!("spade-serve exited before listening: {}", seen.trim()));
        }
        if let Some((_, addr)) = line.trim().rsplit_once("on http://") {
            return addr.parse().map_err(|e| format!("bad listen address {addr:?}: {e}"));
        }
        seen.push_str(&line);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // The daemon holds no state worth draining; errors here mean it is
        // already gone.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
