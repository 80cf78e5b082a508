//! The system under test: `ktg index` and `ktg serve` child processes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take to print its address or to exit.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(60);

/// Files of one run, all inside the run's work directory.
pub struct Paths {
    pub edges: PathBuf,
    pub keywords: PathBuf,
    pub bundle: PathBuf,
    /// Copy of the freshly indexed bundle: checkpoints rewrite `bundle`,
    /// the in-process replays start from this one.
    pub original: PathBuf,
    pub wal: PathBuf,
    /// Log and bundle the traced replay checkpoints into.
    pub trace_wal: PathBuf,
    pub trace_bundle: PathBuf,
}

impl Paths {
    pub fn in_dir(dir: &Path) -> Self {
        Paths {
            edges: dir.join("edges.txt"),
            keywords: dir.join("keywords.txt"),
            bundle: dir.join("net.bundle"),
            original: dir.join("original.bundle"),
            wal: dir.join("updates.wal"),
            trace_wal: dir.join("trace.wal"),
            trace_bundle: dir.join("trace.bundle"),
        }
    }
}

/// `ktg index --bundle` from the text files.
pub fn build_bundle(ktg: &Path, paths: &Paths) -> Result<(), String> {
    let status = Command::new(ktg)
        .arg("index")
        .arg("--edges")
        .arg(&paths.edges)
        .arg("--keywords")
        .arg(&paths.keywords)
        .arg("--bundle")
        .arg(&paths.bundle)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn ktg index: {e}"))?;
    if !status.success() {
        return Err(format!("ktg index exited with {status}"));
    }
    Ok(())
}

/// A running `ktg serve` process; killed and reaped if dropped while
/// still running.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `ktg serve --bundle` on an ephemeral loopback port and
    /// returns once `/health` reports `serving`. `checkpoint_every` turns
    /// on `--wal --wal-sync always` with a fresh log.
    pub fn start(
        ktg: &Path,
        paths: &Paths,
        workers: usize,
        checkpoint_every: Option<u64>,
    ) -> Result<Server, String> {
        let mut cmd = Command::new(ktg);
        cmd.arg("serve")
            .arg("--bundle")
            .arg(&paths.bundle)
            .args(["--bind", "127.0.0.1:0", "--threads", "1"])
            .args(["--workers", &workers.to_string()]);
        if let Some(every) = checkpoint_every {
            drop(std::fs::remove_file(&paths.wal));
            cmd.arg("--wal")
                .arg(&paths.wal)
                .args(["--wal-sync", "always", "--checkpoint-every", &every.to_string()]);
        }
        let mut child =
            cmd.stdout(Stdio::piped()).spawn().map_err(|e| format!("spawn ktg serve: {e}"))?;
        let stdout = child.stdout.take().ok_or("ktg serve has no stdout")?;
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        server.addr = server.read_addr()?;
        server.wait_serving()?;
        Ok(server)
    }

    /// Scrapes `serving on HOST:PORT (...)` from the server's stdout.
    fn read_addr(&mut self) -> Result<SocketAddr, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("read server stdout: {e}"))?;
            if n == 0 {
                return Err("ktg serve exited before binding".to_string());
            }
            if let Some(rest) = line.strip_prefix("serving on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                return addr.parse().map_err(|e| format!("bad server address `{addr}`: {e}"));
            }
        }
    }

    fn wait_serving(&self) -> Result<(), String> {
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        while Instant::now() < deadline {
            if self.control("/health")?.contains("\"state\":\"serving\"") {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("ktg serve never reported the serving state".to_string())
    }

    /// One control line over a fresh connection; returns the block.
    pub fn control(&self, line: &str) -> Result<String, String> {
        let mut stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.write_all(format!("{line}\n").as_bytes()).map_err(|e| e.to_string())?;
        let mut reply = Vec::new();
        let mut buf = [0u8; 4096];
        while !(reply.ends_with(b"\n.\n") || reply == b".\n") {
            let n = stream.read(&mut buf).map_err(|e| format!("read {line}: {e}"))?;
            if n == 0 {
                break;
            }
            reply.extend_from_slice(&buf[..n]);
        }
        Ok(String::from_utf8_lossy(&reply).into_owned())
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server status: {e}"))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or("no VmHWM line in the server's status")?;
        Ok(kb / 1024.0)
    }

    /// `/shutdown`, then waits for the process to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.control("/shutdown")?;
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("ktg serve exited with {status}")),
                None if Instant::now() > deadline => {
                    return Err("ktg serve did not exit after /shutdown".to_string())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            drop(self.child.kill());
            drop(self.child.wait());
        }
    }
}
