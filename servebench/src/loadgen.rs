//! The load generator: one connection slot per core, each running a
//! stream of device sessions against `rap serve` over loopback.
//!
//! A session is `HELLO` with a seed-derived device id, pipelined rounds
//! at the server's window, then a clean close (write side shut, read to
//! EOF), after which the slot rotates to the next device. Each slot
//! runs a sender (signs the next round as soon as a challenge is free,
//! then writes it when it is due) and a receiver (blocks on the socket,
//! hands challenges to the sender, checks verdicts). The standard
//! library has no readiness polling, so the two directions of a slot
//! are two threads.
//!
//! In saturation blocks the sender writes as soon as it holds a
//! challenge (closed loop: the window stays full). In paced blocks
//! rounds fall due on a fixed per-slot schedule (open loop) and each
//! round's latency runs from its due time to its verdict.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use rap_serve::frame::{
    decode_challenge, decode_error, decode_frame, encode_frame, encode_hello, Frame, FrameError,
    FrameType, DEFAULT_MAX_FRAME_LEN,
};
use rap_serve::Verdict;
use rap_track::Challenge;

use crate::gen::{Evidence, Expect, SlotPlan, Spec};
use crate::server::WINDOW;
use crate::stats::PacedRound;

/// Socket deadline; a stalled server fails the round instead of
/// hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Failure messages kept per slot for the report.
const KEEP_FAILURES: usize = 5;

/// What the generator does at a point of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Closed loop, not reported.
    Warm,
    /// Closed loop, measured as saturation window `i`.
    Saturate(usize),
    /// No new rounds: the saturation block drains before pacing.
    Gap,
    /// Open loop on the per-slot schedule.
    Paced,
    End,
}

/// The run's timeline: a warm-up, then `CYCLES` cycles of a saturation
/// block, a short drain gap and a paced block. Interleaving the two
/// loads spreads each one's samples over the whole run, so a slow
/// stretch of a shared host weighs on both alike and the per-window
/// medians ride it out.
#[derive(Debug, Clone)]
pub struct Schedule {
    segments: Vec<(Instant, Instant, Mode)>,
}

impl Schedule {
    pub const WARM_SHARE: f64 = 0.08;
    pub const CYCLES: usize = 8;
    /// Shares of one cycle.
    pub const SAT_SHARE: f64 = 0.45;
    pub const GAP_SHARE: f64 = 0.02;

    pub fn new(start: Instant, seconds: f64) -> Schedule {
        let span = |share: f64| Duration::from_secs_f64(seconds * share);
        let mut segments = Vec::new();
        let mut t = start;
        let mut push = |len: Duration, mode: Mode| {
            segments.push((t, t + len, mode));
            t += len;
        };
        push(span(Self::WARM_SHARE), Mode::Warm);
        let cycle = (1.0 - Self::WARM_SHARE) / Self::CYCLES as f64;
        for i in 0..Self::CYCLES {
            push(span(cycle * Self::SAT_SHARE), Mode::Saturate(i));
            push(span(cycle * Self::GAP_SHARE), Mode::Gap);
            push(
                span(cycle * (1.0 - Self::SAT_SHARE - Self::GAP_SHARE)),
                Mode::Paced,
            );
        }
        Schedule { segments }
    }

    /// The segment `t` falls in: its index, start, end and mode.
    pub fn at(&self, t: Instant) -> (usize, Instant, Instant, Mode) {
        self.segments
            .iter()
            .enumerate()
            .find(|(_, (_, end, _))| t < *end)
            .map_or((self.segments.len(), t, t, Mode::End), |(i, &(s, e, m))| {
                (i, s, e, m)
            })
    }

    /// The saturation windows, in order.
    pub fn windows(&self) -> Vec<(Instant, Instant)> {
        self.segments
            .iter()
            .filter(|(_, _, m)| matches!(m, Mode::Saturate(_)))
            .map(|&(s, e, _)| (s, e))
            .collect()
    }

    /// End of the warm-up.
    pub fn measured_from(&self) -> Instant {
        self.segments[0].1
    }

    pub fn end(&self) -> Instant {
        self.segments.last().map_or_else(Instant::now, |s| s.1)
    }
}

pub struct Load<'a> {
    pub addr: &'a str,
    pub spec: Spec,
    pub evidence: &'a Evidence,
    /// The verdict every untampered round must get.
    pub benign: Expect,
    pub seed: u64,
    pub slots: usize,
    pub schedule: Schedule,
}

/// What one slot saw.
#[derive(Debug, Default)]
pub struct SlotResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub verdicts: u64,
    pub tampered_rejected: u64,
    /// Verdicts that arrived in each saturation window.
    pub sat_verdicts: Vec<u64>,
    pub paced: Vec<PacedRound>,
    /// Connect to first `CHALLENGE`, for sessions opened after warm-up.
    pub handshakes_us: Vec<f64>,
    pub sign_ns: u64,
    pub signs: u64,
    pub sessions: u64,
}

impl SlotResult {
    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.failures.len() < KEEP_FAILURES {
            self.failures.push(why);
        }
    }

    pub fn merge(&mut self, other: SlotResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < KEEP_FAILURES {
                self.failures.push(f);
            }
        }
        self.verdicts += other.verdicts;
        self.tampered_rejected += other.tampered_rejected;
        add_windows(&mut self.sat_verdicts, &other.sat_verdicts);
        self.paced.extend(other.paced);
        self.handshakes_us.extend(other.handshakes_us);
        self.sign_ns += other.sign_ns;
        self.signs += other.signs;
        self.sessions += other.sessions;
    }
}

fn add_windows(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (a, b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

pub fn run(load: &Load<'_>) -> SlotResult {
    let results: Vec<SlotResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..load.slots)
            .map(|slot| s.spawn(move || run_slot(load, slot)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("slot thread panicked"))
            .collect()
    });
    let mut total = SlotResult::default();
    for r in results {
        total.merge(r);
    }
    total
}

/// Per-slot state that outlives a session.
struct Slot<'a> {
    load: &'a Load<'a>,
    plan: SlotPlan,
    plan_slot: usize,
    /// Rounds prepared so far (the tamper plan's index).
    round: u64,
    /// The last challenge this slot consumed: what a stale round signs.
    stale: Challenge,
    /// The paced schedule: the next due time, the paced segment that
    /// set the schedule and that segment's end, and this slot's
    /// interval.
    next_due: Instant,
    due_segment: usize,
    due_end: Instant,
    interval: Duration,
    done: bool,
}

fn run_slot(load: &Load<'_>, slot: usize) -> SlotResult {
    let plan = SlotPlan::new(load.seed, slot as u64, load.spec.tamper);
    let interval = Duration::from_secs_f64(load.slots as f64 / load.spec.paced_rate);
    let now = Instant::now();
    let mut state = Slot {
        load,
        stale: plan.initial_stale(),
        plan,
        plan_slot: slot,
        round: 0,
        // No paced block yet: nothing is owed.
        next_due: now,
        due_segment: usize::MAX,
        due_end: now,
        interval,
        done: false,
    };
    let mut result = SlotResult::default();
    let mut session = 0;
    while !state.done && Instant::now() < load.schedule.end() {
        let device = state.plan.device(session);
        run_session(&mut state, &device, &mut result);
        session += 1;
        result.sessions += 1;
    }
    result
}

/// One round in flight, as the receiver needs to judge and time it.
struct RoundMeta {
    expect: Expect,
    tampered: bool,
    due: Option<Instant>,
    sent: Instant,
}

fn run_session(state: &mut Slot<'_>, device: &str, result: &mut SlotResult) {
    let load = state.load;
    let connect_start = Instant::now();
    let stream = match open(load.addr, device) {
        Ok(s) => s,
        Err(e) => {
            result.attempted += 1;
            result.fail(1, format!("connect as {device}: {e}"));
            std::thread::sleep(Duration::from_millis(10));
            return;
        }
    };
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            result.attempted += 1;
            result.fail(1, format!("socket clone: {e}"));
            return;
        }
    };
    let (chal_tx, chal_rx) = mpsc::channel();
    let (meta_tx, meta_rx) = mpsc::channel();
    let schedule = &load.schedule;
    let (sent, sender_error, received) = std::thread::scope(|s| {
        let receiver = s.spawn(move || receive(reader_stream, chal_tx, meta_rx, schedule));
        let (sent, sender_error) = send_rounds(state, &stream, &chal_rx, &meta_tx, result);
        // Clean close: the server judges what it has, answers, parks
        // the session and closes, which ends the receiver.
        let _ = stream.shutdown(Shutdown::Write);
        drop(meta_tx);
        (
            sent,
            sender_error,
            receiver.join().expect("receiver panicked"),
        )
    });
    result.attempted += sent;
    result.verdicts += received.verdicts;
    result.tampered_rejected += received.tampered_rejected;
    add_windows(&mut result.sat_verdicts, &received.sat_verdicts);
    result.paced.extend(received.paced);
    if let Some(first) = received.first_challenge {
        if connect_start >= schedule.measured_from() {
            result
                .handshakes_us
                .push(crate::stats::us(first - connect_start));
        }
    }
    for why in received.wrong {
        result.fail(1, format!("{device}: {why}"));
    }
    let missing = sent.saturating_sub(received.verdicts);
    if missing > 0 {
        let why = received
            .error
            .or(sender_error)
            .unwrap_or_else(|| "connection closed early".into());
        result.fail(
            missing,
            format!("{device}: {missing} verdict(s) missing: {why}"),
        );
    }
}

fn open(addr: &str, device: &str) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(&encode_frame(
        FrameType::Hello,
        &encode_hello(WINDOW, device),
    ))?;
    Ok(stream)
}

/// Sends up to one session's rounds. Returns how many were written and
/// why sending stopped early, if it did.
fn send_rounds(
    state: &mut Slot<'_>,
    mut stream: &TcpStream,
    chal_rx: &Receiver<Challenge>,
    meta_tx: &Sender<RoundMeta>,
    result: &mut SlotResult,
) -> (u64, Option<String>) {
    let load = state.load;
    let mut sent = 0;
    while sent < load.spec.rounds_per_session {
        // Sign as soon as the window frees a challenge.
        let chal = match chal_rx.recv_timeout(IO_TIMEOUT) {
            Ok(chal) => chal,
            Err(RecvTimeoutError::Timeout) => return (sent, Some("no challenge".into())),
            // The receiver ended; it reports why.
            Err(RecvTimeoutError::Disconnected) => return (sent, None),
        };
        let tamper = state.plan.tamper(state.round);
        state.round += 1;
        let t = Instant::now();
        let payload = load.evidence.payload(chal, tamper, state.stale);
        let frame = encode_frame(FrameType::Attest, &payload);
        result.sign_ns += t.elapsed().as_nanos() as u64;
        result.signs += 1;
        state.stale = chal;

        let Some(due) = when_to_send(state) else {
            return (sent, None);
        };
        let meta = RoundMeta {
            expect: tamper.map_or_else(|| load.benign.clone(), |t| t.expected()),
            tampered: tamper.is_some(),
            due,
            sent: Instant::now(),
        };
        if meta_tx.send(meta).is_err() {
            return (sent, None);
        }
        sent += 1;
        if let Err(e) = stream.write_all(&frame) {
            return (sent, Some(format!("write: {e}")));
        }
    }
    (sent, None)
}

/// Waits until the prepared round may be written: at once in a closed
/// loop (`Some(None)`), at its due time when paced (`Some(Some(due))`),
/// or never once the run is over (`None`, which also ends the slot).
/// Every round a paced block scheduled is sent, late if need be, even
/// after the block has ended: dropping the rounds a stall delayed would
/// hide the stall.
fn when_to_send(state: &mut Slot<'_>) -> Option<Option<Instant>> {
    let schedule = &state.load.schedule;
    loop {
        if state.next_due < state.due_end {
            let due = state.next_due;
            state.next_due += state.interval;
            sleep_until(due);
            return Some(Some(due));
        }
        let (segment, start, end, mode) = schedule.at(Instant::now());
        match mode {
            Mode::Warm | Mode::Saturate(_) => return Some(None),
            Mode::Gap => sleep_until(end),
            Mode::Paced if state.due_segment != segment => {
                // A new paced block: slots are staggered evenly inside
                // one interval.
                let slot = state.plan_slot as f64 / state.load.slots as f64;
                state.due_segment = segment;
                state.next_due = start + state.interval.mul_f64(slot);
                state.due_end = end;
            }
            // This block's schedule is spent.
            Mode::Paced => sleep_until(end),
            Mode::End => {
                state.done = true;
                return None;
            }
        }
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// What the receiver of one session saw.
#[derive(Default)]
struct Received {
    verdicts: u64,
    tampered_rejected: u64,
    sat_verdicts: Vec<u64>,
    paced: Vec<PacedRound>,
    first_challenge: Option<Instant>,
    wrong: Vec<String>,
    error: Option<String>,
}

fn receive(
    mut stream: TcpStream,
    chal_tx: Sender<Challenge>,
    meta_rx: Receiver<RoundMeta>,
    schedule: &Schedule,
) -> Received {
    let mut out = Received {
        sat_verdicts: vec![0; Schedule::CYCLES],
        ..Received::default()
    };
    let mut frames = FrameReader::default();
    loop {
        let frame = match frames.next(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => return out,
            Err(e) => {
                out.error = Some(e);
                return out;
            }
        };
        match frame.frame_type {
            FrameType::Session => {}
            FrameType::Challenge => {
                out.first_challenge.get_or_insert_with(Instant::now);
                match decode_challenge(&frame.payload) {
                    // The sender may already be done with the session.
                    Ok(chal) => drop(chal_tx.send(chal)),
                    Err(e) => {
                        out.error = Some(format!("bad CHALLENGE: {e}"));
                        return out;
                    }
                }
            }
            FrameType::Verdict => {
                let done = Instant::now();
                let Ok(meta) = meta_rx.recv() else {
                    out.error = Some("VERDICT for a round never sent".into());
                    return out;
                };
                out.verdicts += 1;
                if let (_, _, _, Mode::Saturate(w)) = schedule.at(done) {
                    out.sat_verdicts[w] += 1;
                }
                if let Some(due) = meta.due {
                    out.paced.push(PacedRound {
                        due,
                        sent: meta.sent,
                        done,
                    });
                }
                match Verdict::decode(&frame.payload) {
                    Ok(v)
                        if meta
                            .expect
                            .matches(v.accepted, v.events, v.steps, &v.detail) =>
                    {
                        if meta.tampered {
                            out.tampered_rejected += 1;
                        }
                    }
                    Ok(v) => out.wrong.push(format!(
                        "wrong verdict: expected {:?}, got accepted={} events={} steps={} `{}`",
                        meta.expect, v.accepted, v.events, v.steps, v.detail
                    )),
                    Err(e) => out.wrong.push(format!("bad VERDICT: {e}")),
                }
            }
            FrameType::Error => {
                out.error = Some(match decode_error(&frame.payload) {
                    Ok((code, msg)) => format!("server error ({code}): {msg}"),
                    Err(e) => format!("bad ERROR frame: {e}"),
                });
                return out;
            }
            other => {
                out.error = Some(format!("unexpected {other:?} frame"));
                return out;
            }
        }
    }
}

/// A receive buffer yielding whole frames.
#[derive(Default)]
struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    /// The next frame; `Ok(None)` at a clean end of stream.
    fn next(&mut self, r: &mut impl Read) -> Result<Option<Frame>, String> {
        loop {
            match decode_frame(&self.buf[self.start..], DEFAULT_MAX_FRAME_LEN) {
                Ok((frame, used)) => {
                    self.start += used;
                    return Ok(Some(frame));
                }
                Err(FrameError::Truncated { .. }) => {}
                Err(e) => return Err(format!("bad frame: {e}")),
            }
            self.buf.drain(..self.start);
            self.start = 0;
            let old = self.buf.len();
            self.buf.resize(old + 64 * 1024, 0);
            let n = r.read(&mut self.buf[old..]);
            self.buf.truncate(old + *n.as_ref().unwrap_or(&0));
            match n {
                Ok(0) if self.buf.is_empty() => return Ok(None),
                Ok(0) => return Err("stream ended inside a frame".into()),
                Ok(_) => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_interleaves_saturation_and_paced_blocks() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 30.0);
        let windows = s.windows();
        assert_eq!(windows.len(), Schedule::CYCLES);
        assert_eq!(windows[0].0, s.measured_from());
        let secs = |t: Instant| (t - t0).as_secs_f64();
        assert!((secs(s.measured_from()) - 30.0 * Schedule::WARM_SHARE).abs() < 1e-6);
        assert!((secs(s.end()) - 30.0).abs() < 1e-6);
        let mut paced = 0.0;
        for (i, &(start, end)) in windows.iter().enumerate() {
            assert_eq!(s.at(start).3, Mode::Saturate(i));
            assert_eq!(s.at(end).3, Mode::Gap);
            let (_, p0, p1, mode) = s.at(s.at(end).2);
            assert_eq!(mode, Mode::Paced);
            paced += secs(p1) - secs(p0);
        }
        let sat: f64 = windows.iter().map(|&(a, b)| secs(b) - secs(a)).sum();
        assert!((sat - 30.0 * 0.92 * 0.45).abs() < 1e-3, "{sat}");
        assert!((paced - 30.0 * 0.92 * 0.53).abs() < 1e-3, "{paced}");
        assert_eq!(s.at(t0).3, Mode::Warm);
        assert_eq!(s.at(s.end()).3, Mode::End);
    }
}
