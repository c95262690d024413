//! Audit-chain cost: what sealing every verdict and hash-chaining it
//! to disk adds to the attestation pipeline.
//!
//! Three measurements:
//!
//! * `seal` — sealed [`VerdictRecord`] construction (HMAC over the
//!   canonical encoding), records per second;
//! * `append` — batched [`AuditLog`] appends with one flush per batch,
//!   the exact write discipline `rap-serve` uses per drain tick;
//! * `replay` — offline [`ChainVerifier`] scans of the written log,
//!   with the seal key (the `rap audit verify --key` path).
//!
//! A trailing pair of back-to-back pipelined_8 loopback serve runs
//! measures the end-to-end overhead of `--audit-log`: every round's
//! sealed record appended and flushed once per drain tick. The
//! throughput delta lands in `BENCH_audit.json` as
//! `audit_seal_overhead_pct` and is gated at
//! [`MAX_AUDIT_OVERHEAD_PCT`] under `--enforce` on multi-core hosts.

use std::sync::Mutex;

use rap_audit::{AuditLog, ChainVerifier};
use rap_bench::fixtures::{
    bench_key, bench_server_config, bench_verifier, deployed, drive_pipelined, CachedResponder,
};
use rap_bench::harness::{host_cores, BenchArgs, BenchGroup, BenchReport};
use rap_obs::Json;
use rap_serve::{Server, ServerConfig};
use rap_track::{verdict_seal_key, Challenge, VerdictDraft, VerdictRecord};

/// Rounds per client per sample (full mode).
const ROUNDS_PER_CLIENT: usize = 16;

/// The gate: maximum pipelined-throughput regression at 8 clients with
/// `--audit-log` sealing and chaining every round.
const MAX_AUDIT_OVERHEAD_PCT: f64 = 5.0;

fn draft(seq: u64) -> VerdictDraft {
    VerdictDraft {
        device: format!("bench-dev-{}", seq % 16),
        chal: Challenge::from_seed(seq),
        accepted: !seq.is_multiple_of(7),
        kind: if seq.is_multiple_of(7) {
            "return-mismatch".to_string()
        } else {
            String::new()
        },
        events: 128,
        steps: 4096,
        cache_hits: seq,
        seq,
        ..VerdictDraft::default()
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rap-audit-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn main() {
    let args = BenchArgs::parse();
    let seal_key = verdict_seal_key(&bench_key());
    let batch: usize = if args.quick { 512 } else { 4096 };
    // rap-serve flushes once per drain tick; 32 records per flush is a
    // busy tick at 8 pipelined clients.
    let flush_every = 32;

    let group = BenchGroup::new("audit").samples(if args.quick { 2 } else { 3 });
    let mut report = BenchReport::default();

    // Record sealing (HMAC over the canonical encoding).
    let stats = group.bench("seal", || {
        for seq in 0..batch as u64 {
            std::hint::black_box(VerdictRecord::seal(&seal_key, draft(seq)));
        }
    });
    let seal_per_sec = batch as f64 / stats.median.as_secs_f64();
    report.record_with(
        "audit/seal",
        stats,
        [
            ("records", Json::Uint(batch as u64)),
            ("records_per_sec", Json::Num(seal_per_sec)),
        ],
    );

    // Batched appends, one fsyncless flush per `flush_every` records.
    let records: Vec<VerdictRecord> = (0..batch as u64)
        .map(|seq| VerdictRecord::seal(&seal_key, draft(seq)))
        .collect();
    let log_path = tmp("bench.ralog");
    let stats = group.bench("append", || {
        let mut log = AuditLog::create(&log_path).expect("log creates");
        for chunk in records.chunks(flush_every) {
            for record in chunk {
                log.append_record(record);
            }
            log.flush().expect("flush succeeds");
        }
    });
    let append_per_sec = batch as f64 / stats.median.as_secs_f64();
    report.record_with(
        "audit/append",
        stats,
        [
            ("records", Json::Uint(batch as u64)),
            ("flush_every", Json::Uint(flush_every as u64)),
            ("records_per_sec", Json::Num(append_per_sec)),
        ],
    );

    // Offline replay with seal re-checking (`rap audit verify --key`).
    let log_bytes = std::fs::read(&log_path).expect("log written");
    let verifier = ChainVerifier::with_seal_key(seal_key.clone());
    let stats = group.bench("replay", || {
        let report = verifier.verify_bytes(&log_bytes);
        assert!(report.ok(), "{:?}", report.first_break);
        assert_eq!(report.entries, batch as u64);
    });
    let replay_per_sec = batch as f64 / stats.median.as_secs_f64();
    report.record_with(
        "audit/replay",
        stats,
        [
            ("records", Json::Uint(batch as u64)),
            ("log_bytes", Json::Uint(log_bytes.len() as u64)),
            ("records_per_sec", Json::Num(replay_per_sec)),
        ],
    );

    println!(
        "seal: {seal_per_sec:.0}/s  append: {append_per_sec:.0}/s  replay: {replay_per_sec:.0}/s"
    );

    // End-to-end: pipelined_8 loopback serve, audit off vs. on.
    let (linked, w) = deployed();
    let responder = CachedResponder::new(&linked, &w);
    let rounds = if args.quick { 8 } else { ROUNDS_PER_CLIENT };
    let mut per_secs = Vec::new();
    for (case, with_audit) in [("pipelined_8_base", false), ("pipelined_8_audit", true)] {
        let audit_path = tmp(&format!("{case}.ralog"));
        std::fs::remove_file(&audit_path).ok();
        let server = Server::start(
            bench_verifier(&linked),
            "127.0.0.1:0",
            ServerConfig {
                audit_log: with_audit.then(|| audit_path.clone()),
                ..bench_server_config()
            },
        )
        .expect("server binds");
        let addr = server.local_addr();

        let lat = Mutex::new(Vec::new());
        let stats = group.bench(case, || drive_pipelined(addr, &responder, 8, rounds, &lat));
        let median = stats.median.as_secs_f64();
        let per_sec = if median > 0.0 {
            (8 * rounds) as f64 / median
        } else {
            f64::INFINITY
        };

        let mut extras = vec![
            ("mode", Json::Str("pipelined".to_owned())),
            ("clients", Json::Uint(8)),
            ("rounds_per_client", Json::Uint(rounds as u64)),
            ("audit", Json::Bool(with_audit)),
            ("verifications_per_sec", Json::Num(per_sec)),
        ];
        if with_audit {
            let base = per_secs[0];
            let overhead_pct = if base > 0.0 {
                (1.0 - per_sec / base) * 100.0
            } else {
                0.0
            };
            println!(
                "audit seal+append overhead: {overhead_pct:.2}% \
                 ({base:.0} -> {per_sec:.0} verifications/s)"
            );
            extras.push(("audit_seal_overhead_pct", Json::Num(overhead_pct)));
            // Like the admin-scrape gate in benches/serve.rs: on small
            // hosts the comparison measures the scheduler, not the
            // append path; only gate where the signal is real.
            if args.enforce && host_cores() >= 4 && overhead_pct > MAX_AUDIT_OVERHEAD_PCT {
                eprintln!(
                    "FAIL: audit logging costs {overhead_pct:.2}% pipelined throughput, \
                     above the {MAX_AUDIT_OVERHEAD_PCT}% gate"
                );
                std::process::exit(1);
            }
            if args.enforce && host_cores() >= 4 {
                println!("gate: audit overhead <= {MAX_AUDIT_OVERHEAD_PCT}% — ok");
            }
        }
        report.record_with(&format!("audit/{case}"), stats, extras);
        per_secs.push(per_sec);

        let server_stats = server.shutdown();
        assert_eq!(server_stats.verdicts_rejected, 0, "{server_stats:?}");
        if with_audit {
            // The log the run produced must itself verify: the bench
            // doubles as an end-to-end integrity check.
            let seal = verdict_seal_key(&bench_key());
            let chain = ChainVerifier::with_seal_key(seal)
                .verify_file(&audit_path)
                .expect("audit log readable");
            assert!(chain.ok(), "served log broke: {:?}", chain.first_break);
            // One entry per served round; the closure runs once per
            // sample (plus warmups), so at least one full batch landed.
            assert!(
                chain.entries >= (8 * rounds) as u64,
                "only {} audit entries for {} rounds per run",
                chain.entries,
                8 * rounds
            );
        }
    }

    if let Some(path) = &args.json_out {
        report.write(path).expect("write bench json");
        println!("wrote {path}");
    }
}
