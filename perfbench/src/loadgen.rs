//! Load generators with accounting.
//!
//! The open loop sends each request at its due time whether or not
//! earlier ones were answered, on one pipelined keep-alive connection and
//! one thread. Every latency is measured from the request's *due* time,
//! so a stall is charged to every request queued behind it, and the
//! generator records how late it sent each request and how the backlog
//! (sent but unanswered) evolved.

use crate::http::{self, Response, ResponseParser};
use crate::stats::Summary;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One scheduled request: when it is due (from the loop's start) and
/// which request template it sends.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// Offset from the loop's start.
    pub due: Duration,
    /// Index into the request templates.
    pub class: usize,
}

/// One correct answer.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Request class.
    pub class: usize,
    /// When the request was due, seconds from the loop's start.
    pub due_s: f64,
    /// µs from due time to the complete answer.
    pub latency_us: f64,
}

/// What one open loop measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The requests whose answer passed the check, in due order.
    pub answers: Vec<Answer>,
    /// Per request sent: µs between its due time and its send.
    pub lateness_us: Vec<f64>,
    /// Requests planned.
    pub attempted: usize,
    /// Requests refused, unanswered, answered wrongly or answered after
    /// the grace period.
    pub failed: usize,
    /// `(seconds since start, requests sent but unanswered)`, sampled
    /// every [`BACKLOG_SAMPLE`] while requests are still due.
    pub backlog: Vec<(f64, usize)>,
}

/// Backlog sampling interval.
const BACKLOG_SAMPLE: Duration = Duration::from_millis(10);

/// Shortest read timeout the loop sets (a zero timeout is an error).
const MIN_WAIT: Duration = Duration::from_micros(20);

extern "C" {
    fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
}

/// Asks the kernel to wake this thread's sleeps within 1 ns of their
/// deadline instead of the default 50 µs slack, so the generator's own
/// oversleep does not read as server latency.
fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: `prctl` is declared with libc's variadic signature.
    // PR_SET_TIMERSLACK reads one `unsigned long` (the slack in ns) and no
    // pointers, and only changes the calling thread's timer slack; a
    // failure leaves the default slack, which is harmless.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

/// Runs `plan` (sorted by due time) against `addr`. `check(class, resp)`
/// decides whether an answer is correct. With `trace_base`, request `i`
/// carries trace id `trace_base + i`. Requests unanswered `grace` after
/// the last due time count as failed.
pub fn open_loop(
    addr: SocketAddr,
    plan: &[Planned],
    reqs: &[Vec<u8>],
    trace_base: Option<u64>,
    check: &dyn Fn(usize, &Response) -> bool,
    grace: Duration,
) -> Outcome {
    tight_timer_slack();
    let mut out = Outcome {
        attempted: plan.len(),
        ..Outcome::default()
    };
    let Ok(mut stream) = http::connect(addr, grace) else {
        out.failed = plan.len();
        return out;
    };
    let end = plan.last().map_or(Duration::ZERO, |p| p.due) + grace;
    let mut parser = ResponseParser::default();
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut batch = Vec::new();
    let (mut next, mut answered) = (0usize, 0usize);
    let mut next_sample = Duration::ZERO;
    let start = Instant::now();
    loop {
        let now = start.elapsed();
        batch.clear();
        while next < plan.len() && plan[next].due <= now {
            let template = &reqs[plan[next].class];
            match trace_base {
                Some(base) => batch.extend(http::with_trace(template, base + next as u64)),
                None => batch.extend_from_slice(template),
            }
            out.lateness_us
                .push((now - plan[next].due).as_secs_f64() * 1e6);
            pending.push_back(next);
            next += 1;
        }
        if !batch.is_empty() && stream.write_all(&batch).is_err() {
            break;
        }
        // Sample while requests are still being offered; the drain after
        // the last one says nothing about whether the server kept up.
        while next < plan.len() && now >= next_sample {
            out.backlog
                .push((next_sample.as_secs_f64(), next - answered));
            next_sample += BACKLOG_SAMPLE;
        }
        if next == plan.len() && pending.is_empty() {
            break;
        }
        if now >= end {
            break;
        }
        if pending.is_empty() {
            std::thread::sleep(plan[next].due.saturating_sub(start.elapsed()));
            continue;
        }
        let until = if next < plan.len() {
            plan[next].due
        } else {
            end
        };
        let wait = until.saturating_sub(start.elapsed()).max(MIN_WAIT);
        if stream.set_read_timeout(Some(wait)).is_err() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let t = start.elapsed();
                parser.feed(&chunk[..n]);
                loop {
                    match parser.next_response() {
                        Ok(Some(resp)) => {
                            let Some(i) = pending.pop_front() else {
                                out.failed += 1;
                                continue;
                            };
                            answered += 1;
                            let p = plan[i];
                            if check(p.class, &resp) {
                                out.answers.push(Answer {
                                    class: p.class,
                                    due_s: p.due.as_secs_f64(),
                                    latency_us: (t - p.due).as_secs_f64() * 1e6,
                                });
                            } else {
                                out.failed += 1;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            out.failed += pending.len() + plan.len() - next;
                            return out;
                        }
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    // Whatever is still pending or was never sent failed.
    out.failed += pending.len() + plan.len() - next;
    out
}

impl Outcome {
    /// Latencies (µs) of the answers whose class passes `pick`.
    pub fn latencies(&self, pick: impl Fn(usize) -> bool) -> Vec<f64> {
        self.answers
            .iter()
            .filter(|a| pick(a.class))
            .map(|a| a.latency_us)
            .collect()
    }

    /// The tail latency (see [`Summary`], capped at `max_pct`) of each
    /// `window` of due time, over the answers whose class passes `pick`;
    /// windows too sparse for a tail are skipped.
    pub fn window_tails(
        &self,
        pick: impl Fn(usize) -> bool,
        window: Duration,
        max_pct: f64,
    ) -> Vec<f64> {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for a in self.answers.iter().filter(|a| pick(a.class)) {
            let w = (a.due_s / window.as_secs_f64()) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(a.latency_us);
        }
        windows
            .iter()
            .filter_map(|w| Summary::of(w, max_pct))
            .map(|s| s.tail)
            .collect()
    }
}

/// Whether the backlog grew over the run: after a 10 % warm-up, the mean
/// of the last third exceeds the mean of the first third by more than
/// one millisecond of offered requests (and at least two).
pub fn backlog_growing(samples: &[(f64, usize)], rate_per_s: f64) -> bool {
    let skip = samples.len() / 10;
    let s = &samples[skip..];
    if s.len() < 3 {
        return false;
    }
    let third = s.len() / 3;
    let mean =
        |xs: &[(f64, usize)]| xs.iter().map(|&(_, b)| b as f64).sum::<f64>() / xs.len() as f64;
    let (first, last) = (mean(&s[..third]), mean(&s[s.len() - third..]));
    last > first + (rate_per_s * 1e-3).max(2.0)
}

/// What the fresh-connection loop measured.
#[derive(Debug, Default)]
pub struct FreshOutcome {
    /// µs from due time to the complete answer.
    pub latency_us: Vec<f64>,
    /// Requests attempted.
    pub attempted: usize,
    /// Requests that failed or answered wrongly.
    pub failed: usize,
}

/// One connection at a time: at each due time (from `start`), connect,
/// send `req`, read the answer, close.
pub fn fresh_loop(
    addr: SocketAddr,
    start: Instant,
    dues: &[Duration],
    req: &[u8],
    check: &dyn Fn(&Response) -> bool,
    timeout: Duration,
) -> FreshOutcome {
    tight_timer_slack();
    let mut out = FreshOutcome {
        attempted: dues.len(),
        ..FreshOutcome::default()
    };
    for &due in dues {
        std::thread::sleep(due.saturating_sub(start.elapsed()));
        match http::fresh_call(addr, req, timeout) {
            Ok(resp) if check(&resp) => {
                out.latency_us
                    .push(start.elapsed().saturating_sub(due).as_secs_f64() * 1e6);
            }
            _ => out.failed += 1,
        }
    }
    out
}

/// Seeded Poisson arrival times at `rate` per second over `span`.
pub fn poisson_dues(rng: &mut offchip_simcore::Rng, rate: f64, span: Duration) -> Vec<Duration> {
    let mut t = 0.0;
    let mut dues = Vec::new();
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= span.as_secs_f64() {
            return dues;
        }
        dues.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Answers every request with `ok`, sleeping `delay(i)` before the
    /// answer to request `i`; returns the address it listens on.
    fn responder(delay: fn(usize) -> Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            let (mut buf, mut chunk, mut i) = (Vec::new(), [0u8; 4096], 0);
            loop {
                while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    let head = String::from_utf8_lossy(&buf[..end]).to_string();
                    let len: usize = head
                        .lines()
                        .find_map(|l| l.strip_prefix("Content-Length: "))
                        .map_or(0, |v| v.trim().parse().unwrap());
                    if buf.len() < end + 4 + len {
                        break;
                    }
                    buf.drain(..end + 4 + len);
                    std::thread::sleep(delay(i));
                    i += 1;
                    if s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                        .is_err()
                    {
                        return;
                    }
                }
                match s.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
            }
        });
        addr
    }

    fn every_ms(n: usize) -> Vec<Planned> {
        (0..n)
            .map(|i| Planned {
                due: Duration::from_millis(i as u64),
                class: 0,
            })
            .collect()
    }

    fn ok(_: usize, r: &Response) -> bool {
        r.status == 200 && r.body == b"ok"
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // Request 20 stalls the responder for 60 ms; requests are due
        // every millisecond.
        let addr = responder(|i| {
            if i == 20 {
                Duration::from_millis(60)
            } else {
                Duration::ZERO
            }
        });
        let reqs = vec![http::request("POST", "/x", "{}", None, false)];
        let out = open_loop(
            addr,
            &every_ms(150),
            &reqs,
            None,
            &ok,
            Duration::from_secs(5),
        );
        assert_eq!((out.attempted, out.failed), (150, 0));
        let lat = out.latencies(|_| true);
        // The stalled request and the ones due during the stall wait for
        // it: request 20+k was due k ms after the stall began, so it
        // still waits about 60 − k ms.
        assert!(lat[20] >= 60_000.0, "stalled request {} µs", lat[20]);
        assert!(
            lat[30] >= 45_000.0,
            "10 ms behind the stall: {} µs",
            lat[30]
        );
        assert!(
            lat[50] >= 25_000.0,
            "30 ms behind the stall: {} µs",
            lat[50]
        );
        // Long after the stall the queue has drained again.
        assert!(lat[140] < 20_000.0, "after the stall: {} µs", lat[140]);
        // The sender itself was not held up: the stall is the server's.
        let late_p50 = crate::stats::median(&out.lateness_us);
        assert!(late_p50 < 5_000.0, "generator lateness p50 {late_p50} µs");
        // The backlog peaked during the stall and then drained.
        let peak = out.backlog.iter().map(|&(_, b)| b).max().unwrap();
        assert!(peak >= 40, "backlog peak {peak}");
        assert!(!backlog_growing(&out.backlog, 1000.0));
    }

    #[test]
    fn a_responder_slower_than_the_rate_grows_the_backlog() {
        let addr = responder(|_| Duration::from_micros(2_000));
        let reqs = vec![http::request("POST", "/x", "{}", None, false)];
        let out = open_loop(
            addr,
            &every_ms(300),
            &reqs,
            None,
            &ok,
            Duration::from_secs(5),
        );
        assert_eq!(out.failed, 0);
        assert!(backlog_growing(&out.backlog, 1000.0));
    }

    #[test]
    fn unanswered_requests_count_as_failed() {
        let addr = responder(|i| {
            if i == 5 {
                Duration::from_secs(3)
            } else {
                Duration::ZERO
            }
        });
        let reqs = vec![http::request("POST", "/x", "{}", None, false)];
        let out = open_loop(
            addr,
            &every_ms(10),
            &reqs,
            None,
            &ok,
            Duration::from_millis(200),
        );
        assert_eq!(out.answers.len(), 5);
        assert_eq!(out.failed, 5);
    }

    #[test]
    fn poisson_dues_are_seeded_and_near_the_rate() {
        let span = Duration::from_secs(100);
        let a = poisson_dues(&mut offchip_simcore::Rng::new(7), 50.0, span);
        let b = poisson_dues(&mut offchip_simcore::Rng::new(7), 50.0, span);
        assert_eq!(a, b);
        assert!((4_700..5_300).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
