//! E11 harness: closed-loop overload generator for the control plane.
//!
//! Drives a running Chronos Control server with `clients` concurrent
//! threads, each performing connection-per-request GETs (`Connection:
//! close`) so every request passes through admission control instead of
//! pinning a keep-alive worker. Accepted (2xx) responses record their
//! latency; typed `429 overloaded` / `503 draining` sheds and transport
//! errors are counted separately, so the report separates *goodput* from
//! *offered load*.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chronos_json::{obj, Value};

/// Socket timeout for one benchmark request (never hit in a healthy run;
/// converts a wedged server into counted errors instead of a stuck bench).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Backoff after a shed when the server sent no usable Retry-After hint.
const DEFAULT_SHED_BACKOFF: Duration = Duration::from_millis(5);

/// Cap on how long a client honors a shed hint (keeps the bench moving).
const MAX_SHED_BACKOFF: Duration = Duration::from_millis(100);

/// The outcome of one closed-loop request.
enum Outcome {
    /// 2xx: latency of the full connect→response cycle.
    Ok(Duration),
    /// Typed shed (429 or 503) with the server's Retry-After hint.
    Shed(Option<Duration>),
    /// Transport failure or unexpected status.
    Error,
}

/// One measured load point: `clients` closed-loop threads for `duration`.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    pub clients: usize,
    pub ok: u64,
    pub shed: u64,
    pub errors: u64,
    /// Accepted responses per second (goodput).
    pub goodput_per_sec: f64,
    /// Latency percentiles over accepted responses only.
    pub p50_ms: f64,
    pub p99_ms: f64,
}

impl LoadPoint {
    /// JSON row for `BENCH_overload.json`.
    pub fn to_json(&self) -> Value {
        obj! {
            "clients" => self.clients as i64,
            "ok" => self.ok as i64,
            "shed" => self.shed as i64,
            "errors" => self.errors as i64,
            "goodput_per_sec" => self.goodput_per_sec,
            "p50_ms" => self.p50_ms,
            "p99_ms" => self.p99_ms,
        }
    }
}

/// The `p`-th percentile (0..=100) of an unsorted latency sample, in ms.
pub fn percentile_ms(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    samples[rank.min(samples.len() - 1)]
}

/// Performs one `GET path` with `Connection: close`, classifying the
/// response by status line.
fn one_request(addr: SocketAddr, path: &str, token: &str) -> Outcome {
    let started = Instant::now();
    let Ok(stream) = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT) else {
        return Outcome::Error;
    };
    let _ = stream.set_read_timeout(Some(REQUEST_TIMEOUT));
    let _ = stream.set_write_timeout(Some(REQUEST_TIMEOUT));
    let mut stream = stream;
    let request = format!(
        "GET {path} HTTP/1.1\r\nHost: bench\r\nX-Chronos-Token: {token}\r\nConnection: close\r\n\r\n"
    );
    if stream.write_all(request.as_bytes()).is_err() {
        return Outcome::Error;
    }
    // The server closes after the response (Connection: close), so read
    // to EOF and parse the status line.
    let mut body = Vec::new();
    if stream.read_to_end(&mut body).is_err() || body.is_empty() {
        return Outcome::Error;
    }
    let head = String::from_utf8_lossy(&body[..body.len().min(512)]).into_owned();
    let status = head.split_whitespace().nth(1).and_then(|s| s.parse::<u16>().ok()).unwrap_or(0);
    match status {
        200..=299 => Outcome::Ok(started.elapsed()),
        429 | 503 => Outcome::Shed(retry_after_ms(&head)),
        _ => Outcome::Error,
    }
}

/// Parses the millisecond-precision Retry-After hint out of a shed
/// response head.
fn retry_after_ms(head: &str) -> Option<Duration> {
    head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        if !name.eq_ignore_ascii_case("x-chronos-retry-after-ms") {
            return None;
        }
        value.trim().parse::<u64>().ok().map(Duration::from_millis)
    })
}

/// Runs `clients` closed-loop threads against `addr` for `duration`,
/// each looping `GET path` back-to-back, and aggregates the point.
pub fn run_load(
    addr: SocketAddr,
    path: &str,
    token: &str,
    clients: usize,
    duration: Duration,
) -> LoadPoint {
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let path = path.to_string();
            let token = token.to_string();
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut shed = 0u64;
                let mut errors = 0u64;
                let mut latencies: Vec<f64> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    match one_request(addr, &path, &token) {
                        Outcome::Ok(elapsed) => {
                            ok += 1;
                            latencies.push(elapsed.as_secs_f64() * 1e3);
                        }
                        Outcome::Shed(hint) => {
                            shed += 1;
                            // A cooperating client honors Retry-After
                            // instead of hammering the event loop.
                            let backoff =
                                hint.unwrap_or(DEFAULT_SHED_BACKOFF).min(MAX_SHED_BACKOFF);
                            std::thread::sleep(backoff);
                        }
                        Outcome::Error => errors += 1,
                    }
                }
                (ok, shed, errors, latencies)
            })
        })
        .collect();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut errors = 0u64;
    let mut latencies: Vec<f64> = Vec::new();
    for handle in handles {
        let (o, s, e, mut l) = handle.join().expect("load thread panicked");
        ok += o;
        shed += s;
        errors += e;
        latencies.append(&mut l);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let p50 = percentile_ms(&mut latencies, 50.0);
    let p99 = percentile_ms(&mut latencies, 99.0);
    LoadPoint {
        clients,
        ok,
        shed,
        errors,
        goodput_per_sec: ok as f64 / elapsed.max(1e-9),
        p50_ms: p50,
        p99_ms: p99,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile_ms(&mut [], 99.0), 0.0);
        let mut one = [7.0];
        assert_eq!(percentile_ms(&mut one, 50.0), 7.0);
        let mut v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_ms(&mut v, 99.0), 99.0);
        assert_eq!(percentile_ms(&mut v, 50.0), 51.0);
    }
}
