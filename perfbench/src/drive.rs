//! The load generator: one closed-loop connection over loopback, every
//! response checked against the reference rendering.

use crate::spec::{Kind, Line};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// One answered line: its position in the phase's lines, its kind and
/// its client-side round trip (write to the final `.`).
pub struct Sample {
    pub line: usize,
    pub kind: Kind,
    pub nanos: u64,
}

/// What one phase sent and got back.
#[derive(Default)]
pub struct Phase {
    /// Round trips of the lines answered with the reference bytes.
    pub samples: Vec<Sample>,
    pub sent: usize,
    /// Lines with no response, or a response other than the reference.
    pub failed: usize,
    pub first_failure: Option<String>,
}

impl Phase {
    fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }
}

/// Sends `lines` in order over one connection, each only after the
/// previous response block has ended.
pub fn run(addr: SocketAddr, lines: &[Line], expected: &[String]) -> Phase {
    let mut phase = Phase::default();
    let mut stream = match TcpStream::connect(addr).and_then(|s| s.set_nodelay(true).map(|()| s)) {
        Ok(stream) => Some(stream),
        Err(e) => {
            phase.first_failure = Some(format!("connect: {e}"));
            None
        }
    };
    let mut request = Vec::with_capacity(256);
    let mut block = Vec::with_capacity(4096);
    for (at, line) in lines.iter().enumerate() {
        phase.sent += 1;
        let Some(conn) = stream.as_mut() else {
            phase.fail(|| "connection lost".to_string());
            continue;
        };
        request.clear();
        request.extend_from_slice(line.text.as_bytes());
        request.push(b'\n');
        let clock = Instant::now();
        let answered = conn.write_all(&request).and_then(|()| read_block(conn, &mut block));
        let nanos = clock.elapsed().as_nanos() as u64;
        match answered {
            Ok(()) => {
                let body = String::from_utf8_lossy(&block[..block.len() - 2]);
                if normalize(&body) == expected[line.expect] {
                    phase.samples.push(Sample { line: at, kind: line.kind, nanos });
                } else {
                    phase.fail(|| format!("`{}` answered `{}`", line.text, body.trim_end()));
                }
            }
            Err(e) => {
                phase.fail(|| format!("`{}`: {e}", line.text));
                stream = None;
            }
        }
    }
    phase
}

/// Reads one response block, terminator included, into `block`. In a
/// closed loop the server sends nothing after the terminator.
fn read_block(stream: &mut TcpStream, block: &mut Vec<u8>) -> std::io::Result<()> {
    block.clear();
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        block.extend_from_slice(&chunk[..n]);
        if block.ends_with(b"\n.\n") || block.as_slice() == b".\n" {
            return Ok(());
        }
    }
}

/// A response block without what legitimately differs between the
/// reference and a served answer: the `[N]` item number (per connection
/// on the server) and the ` [cached]` marker.
pub fn normalize(body: &str) -> String {
    let (first, rest) = body.split_once('\n').unwrap_or((body, ""));
    let first = match first.strip_prefix('[').and_then(|s| s.split_once("] ")) {
        Some((_, after)) => after,
        None => first,
    };
    format!("{}\n{rest}", first.replace(" [cached]", ""))
}
