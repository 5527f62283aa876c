//! The server under test runs in a child process of its own, so that its
//! peak RSS is the server's alone. The child builds the catalog, starts
//! `cdb_serve::start` on an ephemeral loopback port, prints the address,
//! and serves until its stdin closes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use cdb_serve::Client;

use crate::catalog;
use crate::config;

/// Child-process entry point (`cdb-perfbench serve --seed S`). Prints the
/// address and the nanoseconds the catalog and server start took.
pub fn serve_child(seed: u64) {
    let t0 = Instant::now();
    let (db, truth) = catalog::build();
    let server = cdb_serve::start("127.0.0.1:0", db, truth, config::serve_config(seed))
        .expect("bind a loopback port");
    let setup_ns = t0.elapsed().as_nanos();
    let mut out = std::io::stdout().lock();
    writeln!(out, "addr {} {setup_ns}", server.addr()).expect("write the address to the parent");
    out.flush().expect("flush the address to the parent");
    drop(out);
    // Serve until the parent closes our stdin (or dies).
    let mut sink = Vec::new();
    let _ = std::io::stdin().lock().read_to_end(&mut sink);
    server.shutdown();
}

/// A running server child, as seen from the benchmark process.
pub struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    /// The server's loopback address.
    pub addr: SocketAddr,
    /// Seconds of dataset generation, catalog merge and server start (in
    /// the child) plus the first request until it is answered. Process
    /// creation is left out: it is the benchmark's cost, not the server's.
    pub setup_s: f64,
}

impl ServerProcess {
    /// Spawn a server child and wait until it answers `GET /healthz`.
    pub fn start(seed: u64) -> std::io::Result<ServerProcess> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(["serve", "--seed", &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let t0 = Instant::now();
        let parsed = line.trim().strip_prefix("addr ").and_then(|rest| {
            let (addr, ns) = rest.split_once(' ')?;
            Some((addr.parse::<SocketAddr>().ok()?, ns.parse::<u64>().ok()?))
        });
        let (addr, child_ns) = match parsed {
            Some(p) => p,
            None => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other(format!("server child said {line:?}")));
            }
        };
        let mut server = ServerProcess { child, stdin, addr, setup_s: 0.0 };
        let mut client = Client::new(addr);
        loop {
            match client.request("GET", "/healthz", None) {
                Ok(r) if r.status == 200 => break,
                _ if t0.elapsed() > Duration::from_secs(30) => {
                    server.kill();
                    return Err(std::io::Error::other("server never answered /healthz"));
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        server.setup_s = child_ns as f64 / 1e9 + t0.elapsed().as_secs_f64();
        Ok(server)
    }

    /// Start `n` servers one after another, keep the last, and return it
    /// with the setup time of every start.
    pub fn start_several(seed: u64, n: usize) -> std::io::Result<(ServerProcess, Vec<f64>)> {
        let mut setups = Vec::with_capacity(n);
        let mut last: Option<ServerProcess> = None;
        for _ in 0..n.max(1) {
            if let Some(prev) = last.take() {
                prev.stop();
            }
            let s = ServerProcess::start(seed)?;
            setups.push(s.setup_s);
            last = Some(s);
        }
        Ok((last.expect("at least one start"), setups))
    }

    /// A `/proc/<pid>/status` field of the child, in MB (`VmHWM`, `VmRSS`).
    pub fn memory_mb(&self, field: &str) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with(field))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// CPU seconds (user + system, all threads) the child has used, from
    /// `/proc/<pid>/stat` (in USER_HZ = 100 ticks per second).
    pub fn cpu_s(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).ok()?;
        let rest = stat.rsplit_once(')')?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
        // utime and stime are fields 14 and 15; `rest` starts at field 3.
        Some((ticks(11)? + ticks(12)?) / 100.0)
    }

    /// Close the child's stdin so it shuts down, and wait for it; kill it
    /// if it has not exited within ten seconds.
    pub fn stop(mut self) {
        drop(self.stdin.take());
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
    }

    /// Kill the child now (a run that overran its deadline): every open
    /// stream then ends, which unblocks the client threads.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // A run that panicked must not leave its server behind.
        if let Ok(None) = self.child.try_wait() {
            drop(self.stdin.take());
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
