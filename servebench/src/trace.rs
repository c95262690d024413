//! The traced run: the workload's generated rounds sent through each
//! layer's public functions in the order the server calls them, with a
//! span around every call, next to an untraced reference that calls
//! `VerifierSession::check_response_record` the way the server does.
//!
//! Per round: frame decode → `decode_stream` → report MAC → replay
//! (`Verifier::begin` + `ReplaySession::run`) → report re-encode and
//! hash → seal → audit append (and one flush per window-sized batch) →
//! verdict encode. `Verifier::begin` authenticates every report itself,
//! so the MAC pass is also timed on its own just before `begin`; the
//! `verifier.begin_ns` row is `begin` minus that pass.

use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use rap_audit::AuditLog;
use rap_crypto::sha256;
use rap_serve::frame::{decode_frame, encode_frame, FrameType, DEFAULT_MAX_FRAME_LEN};
use rap_serve::Verdict;
use rap_track::{
    decode_stream, encode_stream, stats_digest, Challenge, VerdictDraft, Verifier, VerifierSession,
    VerifierStats,
};

use crate::gen::{fleet_key, Evidence, Expect, SlotPlan, Spec};
use crate::server::WINDOW;
use crate::stats::median;

/// The traced layers, in call order.
pub const LAYERS: [&str; 11] = [
    "serve.frame_decode",
    "wire.decode",
    "crypto.mac",
    "verifier.begin",
    "verifier.replay",
    "wire.encode",
    "crypto.report_hash",
    "verdict.seal",
    "audit.append",
    "audit.flush",
    "serve.verdict_encode",
];

/// The traced layers that `check_response_record` performs.
const CHECK_LAYERS: [&str; 5] = [
    "verifier.begin",
    "verifier.replay",
    "wire.encode",
    "crypto.report_hash",
    "verdict.seal",
];

/// The largest gap allowed between the traced sum of the layers inside
/// `check_response_record` and the untraced call.
pub const CLOSURE_TOLERANCE_PCT: f64 = 15.0;

const WARM_ROUNDS: u64 = 64;
const MAX_ROUNDS: u64 = 4000;
const BUDGET: Duration = Duration::from_millis(2500);

/// One span: a layer call inside one traced round.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub round: u64,
    pub layer: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Traced {
    pub rounds: u64,
    pub spans: Vec<Span>,
    /// Mean nanoseconds per round of each layer in [`LAYERS`]
    /// (`audit.flush` per batch).
    pub layer_ns: Vec<(&'static str, f64)>,
    /// Medians over rounds: the untraced `check_response_record` and
    /// the traced layers inside it. Medians, so that a round the host
    /// preempted does not decide the closure.
    pub check_ns: f64,
    pub traced_check_ns: f64,
    pub server_sum_ns: f64,
    pub steps: f64,
    pub ns_per_step: f64,
    pub cache_hit_ratio: f64,
    pub live_step_share: f64,
    pub dict_hits: f64,
    pub hashed_bytes: f64,
    pub record_bytes: f64,
    pub audit_bytes_per_record: f64,
    pub wrong: Vec<String>,
}

impl Traced {
    pub fn layer(&self, name: &str) -> f64 {
        self.layer_ns
            .iter()
            .find(|(l, _)| *l == name)
            .map_or(0.0, |(_, ns)| *ns)
    }

    /// Gap of the traced check layers against the untraced call, in
    /// percent of the untraced call.
    pub fn overhead_pct(&self) -> f64 {
        100.0 * (self.traced_check_ns - self.check_ns) / self.check_ns
    }

    pub fn closes(&self) -> bool {
        self.overhead_pct().abs() <= CLOSURE_TOLERANCE_PCT
    }

    /// Writes the spans as CSV: round, layer, parent, start, end (ns
    /// from the start of the traced run). Each round has a `round` span
    /// covering its layer calls; `crypto.mac` names `verifier.begin` as
    /// its parent because `begin` performs the same pass internally.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "round,layer,parent,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{}",
                s.round, s.layer, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

struct Recorder {
    epoch: Instant,
    round: u64,
    spans: Vec<Span>,
}

impl Recorder {
    fn span<T>(&mut self, layer: &'static str, parent: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            round: self.round,
            layer,
            parent,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
        out
    }
}

fn verdict_matches(expect: &Expect, v: &Verdict) -> bool {
    expect.matches(v.accepted, v.events, v.steps, &v.detail)
}

pub fn run(
    spec: &Spec,
    verifier: &Verifier,
    evidence: &Evidence,
    benign: &Expect,
    seed: u64,
    audit_path: &Path,
) -> std::io::Result<Traced> {
    let key = fleet_key();
    let device = SlotPlan::new(seed, 0, spec.tamper).device(0);
    let mut plan = SlotPlan::new(seed, 0, spec.tamper);
    let mut session = VerifierSession::from_verifier(verifier.clone(), b"servebench-trace");
    let _ = std::fs::remove_file(audit_path);
    let mut log = AuditLog::create(audit_path)?;
    let log_start = std::fs::metadata(audit_path)?.len();

    let mut rec = Recorder {
        epoch: Instant::now(),
        round: 0,
        spans: Vec::new(),
    };
    let mut sums = vec![0.0f64; LAYERS.len()];
    let mut batches = 0u64;
    let mut checked_ns = Vec::new();
    let mut traced_check_ns = Vec::new();
    let mut total = VerifierStats::default();
    let (mut dict_hits, mut hashed, mut record_bytes) = (0u64, 0u64, 0u64);
    let mut wrong = Vec::new();
    let mut stale_traced = plan.initial_stale();
    let mut stale_checked = plan.initial_stale();
    let mut rounds = 0u64;
    let mut index = 0u64;
    let started = Instant::now();
    while index < WARM_ROUNDS + MAX_ROUNDS && (index < WARM_ROUNDS || started.elapsed() < BUDGET) {
        let tamper = plan.tamper(index);
        let expect = tamper.map_or_else(|| benign.clone(), |t| t.expected());
        let timed = index >= WARM_ROUNDS;
        if index == WARM_ROUNDS {
            rec.epoch = Instant::now();
        }

        // Untraced reference: the server's own call.
        let chal = session.issue_windowed_challenge();
        let reports = evidence.respond(chal, tamper, stale_checked);
        stale_checked = chal;
        let t = Instant::now();
        let (record, _) = black_box(session.check_response_record(&device, &reports));
        let checked = t.elapsed().as_nanos() as f64;
        if !verdict_matches(&expect, &Verdict::from_record(&record)) {
            wrong.push(format!(
                "untraced check: expected {expect:?}, got {}",
                record.render()
            ));
        }

        // Traced: the same round, one span per layer call.
        let chal = Challenge(sha256(&index.to_le_bytes()));
        let frame_bytes = encode_frame(
            FrameType::Attest,
            &evidence.payload(chal, tamper, stale_traced),
        );
        stale_traced = chal;
        let first = rec.spans.len();
        rec.round = index;
        let (frame, _) = rec
            .span("serve.frame_decode", "round", || {
                decode_frame(&frame_bytes, DEFAULT_MAX_FRAME_LEN)
            })
            .expect("generated frames decode");
        let reports = rec
            .span("wire.decode", "round", || decode_stream(&frame.payload))
            .expect("generated streams decode");
        rec.span("crypto.mac", "verifier.begin", || {
            black_box(reports.iter().all(|r| r.authenticate(&key)))
        });
        let before = verifier.stats();
        let begun = rec.span("verifier.begin", "round", || verifier.begin(chal, &reports));
        let result = rec.span("verifier.replay", "round", || match begun {
            Ok(replay) => replay.run(),
            Err(v) => Err(v),
        });
        let after = verifier.stats();
        let bytes = rec.span("wire.encode", "round", || encode_stream(&reports));
        let report_hash = rec.span("crypto.report_hash", "round", || sha256(&bytes));
        let mut draft = VerdictDraft {
            device: device.clone(),
            chal,
            report_hash,
            stats_digest: stats_digest(&after),
            dict_hits: reports.iter().map(|r| r.log.dict_hits.len() as u32).sum(),
            cache_hits: after.cache_hits,
            cache_misses: after.cache_misses,
            seq: index + 1,
            ..VerdictDraft::default()
        };
        match &result {
            Ok(path) => {
                draft.accepted = true;
                draft.events = path.events.len() as u32;
                draft.steps = path.steps;
            }
            Err(v) => {
                draft.kind = v.kind().to_string();
                draft.detail = v.to_string();
            }
        }
        let record = rec.span("verdict.seal", "round", || verifier.seal_verdict(draft));
        rec.span("audit.append", "round", || log.append_record(&record));
        let flush = (index + 1).is_multiple_of(u64::from(WINDOW));
        if flush {
            rec.span("audit.flush", "round", || log.flush())?;
        }
        let verdict = Verdict::from_record(&record);
        let out = rec.span("serve.verdict_encode", "round", || {
            encode_frame(FrameType::Verdict, &verdict.encode())
        });
        black_box(out);
        if !verdict_matches(&expect, &verdict) {
            wrong.push(format!(
                "traced layers: expected {expect:?}, got {}",
                record.render()
            ));
        }

        if timed {
            rounds += 1;
            batches += u64::from(flush);
            checked_ns.push(checked);
            let mut inside_check = 0.0;
            for s in &rec.spans[first..] {
                let i = LAYERS
                    .iter()
                    .position(|l| *l == s.layer)
                    .expect("known layer");
                let ns = (s.end_ns - s.start_ns) as f64;
                sums[i] += ns;
                if CHECK_LAYERS.contains(&s.layer) {
                    inside_check += ns;
                }
            }
            traced_check_ns.push(inside_check);
            total.cache_hits += after.cache_hits - before.cache_hits;
            total.cache_misses += after.cache_misses - before.cache_misses;
            total.cached_steps += after.cached_steps - before.cached_steps;
            total.live_steps += after.live_steps - before.live_steps;
            dict_hits += reports
                .iter()
                .map(|r| r.log.dict_hits.len() as u64)
                .sum::<u64>();
            hashed +=
                reports.iter().map(|r| r.wire_bytes() as u64).sum::<u64>() + bytes.len() as u64;
            record_bytes += record.encode().len() as u64;
            // The round's own span, parent of the layer calls.
            let (start_ns, end_ns) = (
                rec.spans[first].start_ns,
                rec.spans[rec.spans.len() - 1].end_ns,
            );
            rec.spans.push(Span {
                round: index,
                layer: "round",
                parent: "",
                start_ns,
                end_ns,
            });
        } else {
            rec.spans.truncate(first);
        }
        index += 1;
    }
    log.flush()?;
    let log_bytes = std::fs::metadata(audit_path)?.len() - log_start;
    let _ = std::fs::remove_file(audit_path);

    let n = rounds.max(1) as f64;
    let layer_ns: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .zip(&sums)
        .map(|(l, s)| {
            let per = if *l == "audit.flush" {
                batches.max(1) as f64
            } else {
                n
            };
            (*l, s / per)
        })
        .collect();
    let get = |name: &str| layer_ns.iter().find(|(l, _)| *l == name).unwrap().1;
    let check_layers_ns: f64 = CHECK_LAYERS.iter().map(|l| get(l)).sum();
    let audit_ns = if spec.audit {
        get("audit.append") + get("audit.flush") / f64::from(WINDOW)
    } else {
        0.0
    };
    let server_sum_ns = get("serve.frame_decode")
        + get("wire.decode")
        + check_layers_ns
        + audit_ns
        + get("serve.verdict_encode");
    let steps = (total.cached_steps + total.live_steps) as f64;
    let lookups = (total.cache_hits + total.cache_misses) as f64;
    Ok(Traced {
        rounds,
        spans: rec.spans,
        check_ns: median(&checked_ns),
        traced_check_ns: median(&traced_check_ns),
        server_sum_ns,
        steps: steps / n,
        ns_per_step: if steps > 0.0 {
            get("verifier.replay") * n / steps
        } else {
            0.0
        },
        cache_hit_ratio: if lookups > 0.0 {
            total.cache_hits as f64 / lookups
        } else {
            0.0
        },
        live_step_share: if steps > 0.0 {
            total.live_steps as f64 / steps
        } else {
            0.0
        },
        dict_hits: dict_hits as f64 / n,
        hashed_bytes: hashed as f64 / n,
        record_bytes: record_bytes as f64 / n,
        audit_bytes_per_record: log_bytes as f64 / (rounds + WARM_ROUNDS) as f64,
        layer_ns,
        wrong,
    })
}
