//! Served-round benchmark for RAP-Track's verifier service.
//!
//! ```text
//! servebench --rap <path to rap> --workload <name> --seed <n>
//!            --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Sets `rap serve` up several times (offline phase plus server start),
//! drives the last server with [`loadgen`] through a warm-up and
//! alternating closed-loop saturation and open-loop paced blocks, checks
//! every verdict (and, with an audit log, the whole chain), and prints
//! the end-to-end metrics. `--trace 1` adds the traced per-layer run
//! of [`trace`] and prints the per-layer metrics instead. The last
//! stdout line is the JSON result; a human table goes to stderr and the
//! full record (seed, host, settings, sample counts) to `--out`.

mod gen;
mod loadgen;
mod server;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rap_audit::ChainVerifier;
use rap_track::{verdict_seal_key, Challenge, Verifier};

use gen::{Evidence, Expect, Spec};
use stats::{median, summarize_paced};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Attested executions per run; `prover.attest_ms` is their median.
const ATTEST_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    rap: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut rap = None;
    let mut out = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--rap" => rap = Some(PathBuf::from(value()?)),
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seconds: u64 = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
        rap: rap.ok_or("missing --rap")?,
        out,
    })
}

fn main() {
    let code = match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("servebench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let spec = gen::spec(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = gen::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload `{}` (one of {names:?})", args.workload)
    })?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = args.out.join(format!("work-{}-{}", spec.name, args.seed));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;

    // Set-up, several times; the last server serves the run.
    let mut setup_s = Vec::new();
    let mut link_ms = Vec::new();
    let mut mine_ms = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let s = server::set_up(&args.rap, &spec, &work, rep)?;
        setup_s.push(s.seconds);
        link_ms.push(s.offline.link_ms);
        mine_ms.push(s.offline.mine_ms);
        if let Some(prev) = last.replace(s) {
            prev.server.stop();
        }
    }
    let server::SetUp {
        server, offline, ..
    } = last.expect("at least one set-up");

    // The prover side, and the verdict honest evidence must get.
    let mut attest_ms = Vec::new();
    let mut evidence = None;
    for _ in 0..ATTEST_REPS {
        let ev = Evidence::attest(&spec, &offline);
        attest_ms.push(ev.attest_ms);
        evidence = Some(ev);
    }
    let evidence = evidence.expect("at least one attestation");
    let mut builder = Verifier::builder()
        .key(gen::fleet_key())
        .image(offline.linked.image.clone())
        .map(offline.linked.map.clone());
    if let Some(dict) = &offline.dict {
        builder = builder.dict(dict.clone());
    }
    let verifier = builder.build().map_err(|e| e.to_string())?;
    let probe = Challenge::from_seed(args.seed);
    let path = verifier
        .verify(probe, &evidence.respond(probe, None, probe))
        .map_err(|v| format!("honest evidence does not verify offline: {v}"))?;
    let benign = Expect::Accept {
        events: path.events.len() as u32,
        steps: path.steps,
    };
    let prover = prover_costs(&spec, &offline, &evidence)?;

    // The load.
    let schedule = loadgen::Schedule::new(
        Instant::now() + Duration::from_millis(20),
        args.seconds as f64,
    );
    let windows = schedule.windows();
    let load = loadgen::Load {
        addr: &server.addr,
        spec,
        evidence: &evidence,
        benign: benign.clone(),
        seed: args.seed,
        slots: nproc,
        schedule,
    };
    let self_pid = std::process::id().to_string();
    let sample = || (server.cpu_s(), stats::proc_cpu_s(&self_pid), Instant::now());
    let (result, samples) = std::thread::scope(|s| {
        let handle = s.spawn(|| loadgen::run(&load));
        let samples: Vec<_> = windows
            .iter()
            .map(|&(start, end)| {
                sleep_until(start);
                let a = sample();
                sleep_until(end);
                (a, sample())
            })
            .collect();
        (handle.join().expect("load generator panicked"), samples)
    });
    let rss_mb = server.peak_rss_mb();
    let audit_log = server.audit_log.clone();
    server.stop();

    let mut problems: Vec<String> = result.failures.clone();
    if result.failed > 0 {
        problems.insert(
            0,
            format!("{} of {} rounds failed", result.failed, result.attempted),
        );
    }
    let audit = audit_log.map(|log| check_audit(&log, result.verdicts));
    if let Some(Err(e)) = &audit {
        problems.push(e.clone());
    }

    // Per saturation window: rounds/s, server CPU us per round, and the
    // generator's share of the host.
    let mut rates = Vec::new();
    let mut cpu_per_round = Vec::new();
    let mut gen_share = Vec::new();
    for (w, (a, b)) in samples.iter().enumerate() {
        let wall = (b.2 - a.2).as_secs_f64();
        let rounds = result.sat_verdicts.get(w).copied().unwrap_or(0) as f64;
        let (Some(s0), Some(s1), Some(g0), Some(g1)) = (a.0, b.0, a.1, b.1) else {
            return Err("cannot read /proc CPU times".into());
        };
        rates.push(rounds / wall);
        cpu_per_round.push((s1 - s0) * 1e6 / rounds.max(1.0));
        gen_share.push((g1 - g0) / (wall * nproc as f64));
    }
    let sat_verdicts: u64 = result.sat_verdicts.iter().sum();
    let paced = summarize_paced(&result.paced);
    // Measurement caveats: reported, but the program's outputs were
    // still right.
    let mut warnings = Vec::new();
    if !stats::supports(paced.samples, 99.0) {
        warnings.push(format!(
            "{} paced samples: too few for a p99 with {} beyond it",
            paced.samples,
            stats::MIN_BEYOND
        ));
    }
    let server_cpu_us = median(&cpu_per_round);
    let handshakes = stats::sorted(result.handshakes_us.clone());
    let payload = evidence.payload(probe, None, probe).len() as f64;

    let e2e = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("verify_per_s", median(&rates), "rounds/s"),
        metric("server_cpu_us_per_round", server_cpu_us, "us"),
        metric("round_p50_us", paced.p50_us, "us"),
        metric("round_p99_us", paced.p99_us, "us"),
        metric(
            "server_peak_rss_mb",
            rss_mb.ok_or("cannot read the server's VmHWM")?,
            "MB",
        ),
        metric("wire_bytes_per_round", payload, "bytes"),
        metric("prover_cycle_overhead_pct", prover.cycle_overhead_pct, "%"),
        metric("code_overhead_pct", prover.code_overhead_pct, "%"),
    ];
    let failed_frac = result.failed as f64 / result.attempted.max(1) as f64;

    let traced = if args.trace {
        let t = trace::run(
            &spec,
            &verifier,
            &evidence,
            &benign,
            args.seed,
            &work.join("trace-audit.log"),
        )
        .map_err(|e| format!("traced run: {e}"))?;
        problems.extend(t.wrong.iter().take(5).cloned());
        if !t.closes() {
            warnings.push(format!(
                "traced layers miss the untraced check by {:+.1}% (tolerance {}%)",
                t.overhead_pct(),
                trace::CLOSURE_TOLERANCE_PCT
            ));
        }
        t.write_spans(
            &args
                .out
                .join(format!("spans-{}-{}.csv", spec.name, args.seed)),
        )
        .map_err(|e| format!("writing spans: {e}"))?;
        Some(t)
    } else {
        None
    };
    let per_layer = traced.as_ref().map(|t| {
        let sign_us = result.sign_ns as f64 / 1e3 / result.signs.max(1) as f64;
        vec![
            metric("serve.frame_decode_ns", t.layer("serve.frame_decode"), "ns"),
            metric(
                "serve.verdict_encode_ns",
                t.layer("serve.verdict_encode"),
                "ns",
            ),
            metric(
                "serve.handshake_p50_us",
                stats::percentile(&handshakes, 50.0),
                "us",
            ),
            metric(
                "serve.handshake_p99_us",
                stats::percentile(&handshakes, 99.0),
                "us",
            ),
            metric(
                "serve.residual_us",
                server_cpu_us - t.server_sum_ns / 1e3,
                "us",
            ),
            metric("wire.decode_ns", t.layer("wire.decode"), "ns"),
            metric("wire.encode_ns", t.layer("wire.encode"), "ns"),
            metric("crypto.mac_ns", t.layer("crypto.mac"), "ns"),
            metric("crypto.report_hash_ns", t.layer("crypto.report_hash"), "ns"),
            metric("crypto.hashed_bytes", t.hashed_bytes, "bytes"),
            metric(
                "verifier.begin_ns",
                t.layer("verifier.begin") - t.layer("crypto.mac"),
                "ns",
            ),
            metric("verifier.replay_ns", t.layer("verifier.replay"), "ns"),
            metric("verifier.steps", t.steps, "count"),
            metric("verifier.ns_per_step", t.ns_per_step, "ns"),
            metric("verifier.cache_hit_ratio", t.cache_hit_ratio, "ratio"),
            metric("verifier.live_step_share", t.live_step_share, "ratio"),
            metric("verifier.dict_hits", t.dict_hits, "count"),
            metric("verdict.seal_ns", t.layer("verdict.seal"), "ns"),
            metric("verdict.record_bytes", t.record_bytes, "bytes"),
            metric("session.check_ns", t.check_ns, "ns"),
            metric("audit.append_ns", t.layer("audit.append"), "ns"),
            metric("audit.flush_ns", t.layer("audit.flush"), "ns"),
            metric("audit.bytes_per_record", t.audit_bytes_per_record, "bytes"),
            metric("prover.attest_ms", median(&attest_ms), "ms"),
            metric(
                "prover.sim_instrs_per_s",
                evidence.sim_instrs as f64 / (median(&attest_ms) / 1e3),
                "instrs/s",
            ),
            metric("prover.reports", evidence.reports() as f64, "count"),
            metric("link.ms", median(&link_ms), "ms"),
            metric("dict.mine_ms", median(&mine_ms), "ms"),
            metric("loadgen.sign_us", sign_us, "us"),
            metric("loadgen.lag_p99_us", paced.lag_p99_us, "us"),
            metric("loadgen.cpu_share", median(&gen_share), "ratio"),
            metric("trace.server_sum_us", t.server_sum_ns / 1e3, "us"),
            metric("trace.overhead_pct", t.overhead_pct(), "%"),
        ]
    });

    let correct = problems.is_empty();
    let reported = per_layer.as_ref().unwrap_or(&e2e);
    for m in reported {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
    }

    // The human table and the full record.
    let rev = git_revision();
    let mut table = String::new();
    let _ = writeln!(
        table,
        "servebench {} seed={} seconds={} nproc={nproc} rev={rev} server: --threads {} --window {}",
        spec.name,
        args.seed,
        args.seconds,
        server::THREADS,
        server::WINDOW
    );
    for m in e2e.iter().chain(per_layer.iter().flatten()) {
        let _ = writeln!(table, "  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(table, "  {:<28} {:>16.6} ratio", "failed_frac", failed_frac);
    let _ = writeln!(
        table,
        "  attempted={} failed={} verdicts={} tampered_rejected={} sessions={} saturation_rounds={} paced_samples={} tail=p{} {:.1}us handshakes={}",
        result.attempted,
        result.failed,
        result.verdicts,
        result.tampered_rejected,
        result.sessions,
        sat_verdicts,
        paced.samples,
        paced.tail_p.unwrap_or(0.0),
        paced.tail_us,
        handshakes.len()
    );
    if let Some(t) = &traced {
        let _ = writeln!(
            table,
            "  traced {} rounds: layers inside check {:.0} ns vs untraced session.check_ns {:.0} ns ({:+.1}%, tolerance {}%: {})",
            t.rounds,
            t.traced_check_ns,
            t.check_ns,
            t.overhead_pct(),
            trace::CLOSURE_TOLERANCE_PCT,
            if t.closes() { "closes" } else { "DOES NOT CLOSE" }
        );
    }
    for w in &warnings {
        let _ = writeln!(table, "  warning: {w}");
    }
    for p in &problems {
        let _ = writeln!(table, "  FAILED: {p}");
    }
    eprint!("{table}");

    let record = full_record(
        &args,
        &spec,
        nproc,
        &rev,
        &e2e,
        per_layer.as_deref(),
        failed_frac,
        &result,
        (&rates, &cpu_per_round),
        &paced,
        handshakes.len(),
        traced.as_ref(),
        &problems,
        &warnings,
    );
    let record_path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&record_path, record)
        .map_err(|e| format!("cannot write {}: {e}", record_path.display()))?;
    let _ = std::fs::remove_dir_all(&work);

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.attempted,
        result.failed,
        metrics_json(reported)
    );
    Ok(if correct { 0 } else { 1 })
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

struct ProverCosts {
    cycle_overhead_pct: f64,
    code_overhead_pct: f64,
}

/// RAP-Track's cost on the device: simulated cycles against the plain
/// run of the original program (paper Fig. 8), and linked against
/// original code bytes (Fig. 10).
fn prover_costs(spec: &Spec, offline: &gen::Offline, ev: &Evidence) -> Result<ProverCosts, String> {
    let w = gen::workload(spec);
    let original = w.module.assemble(0).map_err(|e| e.to_string())?;
    let mut machine = mcu_sim::Machine::new(original.clone());
    (w.attach)(&mut machine);
    let plain = machine
        .run(&mut mcu_sim::NullSecureWorld, w.max_instrs)
        .map_err(|e| format!("plain run: {e}"))?;
    let original_bytes = f64::from(original.end() - original.base());
    let linked = &offline.linked.image;
    let linked_bytes = f64::from(linked.end() - linked.base());
    Ok(ProverCosts {
        cycle_overhead_pct: 100.0 * (ev.cycles as f64 - plain.cycles as f64) / plain.cycles as f64,
        code_overhead_pct: 100.0 * (linked_bytes - original_bytes) / original_bytes,
    })
}

/// Replays the server's audit log under the fleet's seal key: the chain
/// must verify, every seal must check out, and there must be exactly
/// one entry per verdict the generator received.
fn check_audit(log: &Path, verdicts: u64) -> Result<u64, String> {
    let key = verdict_seal_key(&gen::fleet_key());
    let report = ChainVerifier::with_seal_key(key)
        .verify_file(log)
        .map_err(|e| format!("reading audit log: {e}"))?;
    if let Some(b) = &report.first_break {
        return Err(format!(
            "audit chain broken after {} entries: {b:?}",
            report.entries
        ));
    }
    if report.entries != verdicts {
        return Err(format!(
            "audit log holds {} entries for {verdicts} verdicts received",
            report.entries
        ));
    }
    Ok(report.entries)
}

fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite `f64` as a JSON number, with every digit Rust prints.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
    items.join(", ")
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[allow(clippy::too_many_arguments)]
fn full_record(
    args: &Args,
    spec: &Spec,
    nproc: usize,
    rev: &str,
    e2e: &[Metric],
    per_layer: Option<&[Metric]>,
    failed_frac: f64,
    result: &loadgen::SlotResult,
    windows: (&[f64], &[f64]),
    paced: &stats::PacedSummary,
    handshakes: usize,
    traced: Option<&trace::Traced>,
    problems: &[String],
    warnings: &[String],
) -> String {
    let problems: Vec<String> = problems.iter().map(|p| json_str(p)).collect();
    let warnings: Vec<String> = warnings.iter().map(|w| json_str(w)).collect();
    let closure = traced.map_or("null".into(), |t| {
        format!(
            "{{\"rounds\": {}, \"traced_check_ns\": {}, \"session_check_ns\": {}, \"gap_pct\": {}, \"tolerance_pct\": {}, \"closes\": {}}}",
            t.rounds,
            json_num(t.traced_check_ns),
            json_num(t.check_ns),
            json_num(t.overhead_pct()),
            json_num(trace::CLOSURE_TOLERANCE_PCT),
            t.closes()
        )
    });
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"git_revision\": {}, \
\"server\": {{\"threads\": {}, \"window\": {}, \"audit_log\": {}, \"dict\": {}}}, \
\"load\": {{\"slots\": {nproc}, \"rounds_per_session\": {}, \"paced_rate_per_s\": {}, \"warm_share\": {}, \"cycles\": {}, \"saturation_share_of_cycle\": {}, \"gap_share_of_cycle\": {}}}, \
\"samples\": {{\"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \"verdicts\": {}, \"tampered_rejected\": {}, \"sessions\": {}, \"saturation_rounds\": {}, \"saturation_window_rates\": [{}], \"saturation_window_cpu_us\": [{}], \"paced\": {}, \"paced_tail_percentile\": {}, \"paced_tail_us\": {}, \"handshakes\": {handshakes}}}, \
\"end_to_end\": {}, \"per_layer\": {}, \"closure\": {closure}, \"problems\": [{}], \"warnings\": [{}]}}\n",
        json_str(spec.name),
        args.seed,
        args.seconds,
        args.trace,
        json_str(rev),
        server::THREADS,
        server::WINDOW,
        spec.audit,
        spec.dict,
        spec.rounds_per_session,
        json_num(spec.paced_rate),
        json_num(loadgen::Schedule::WARM_SHARE),
        loadgen::Schedule::CYCLES,
        json_num(loadgen::Schedule::SAT_SHARE),
        json_num(loadgen::Schedule::GAP_SHARE),
        result.attempted,
        result.failed,
        json_num(failed_frac),
        result.verdicts,
        result.tampered_rejected,
        result.sessions,
        result.sat_verdicts.iter().sum::<u64>(),
        list(windows.0),
        list(windows.1),
        paced.samples,
        paced.tail_p.map_or("null".into(), json_num),
        json_num(paced.tail_us),
        metrics_json(e2e),
        per_layer.map_or("null".into(), metrics_json),
        problems.join(", "),
        warnings.join(", ")
    )
}
