//! # rap-bench — the evaluation harness
//!
//! Reduces every (workload × CFA configuration) pair to a
//! [`rap_track::Metrics`] record and renders the paper's figures:
//!
//! | figure | series |
//! |---|---|
//! | Fig. 1a | naive-MTB `CF_Log` size vs instrumentation-based CFA |
//! | Fig. 1b | instrumentation-based CFA runtime vs naive MTB |
//! | Fig. 8 | CPU cycles: baseline / naive MTB / RAP-Track / TRACES |
//! | Fig. 9 | `CF_Log` bytes: naive MTB / RAP-Track / TRACES (+ §V-B) |
//! | Fig. 10 | code size: original / RAP-Track / TRACES |
//! | §V-B | partial-report transmissions with the 4 KiB MTB SRAM |
//!
//! Used by the `figures` binary, the dependency-free benches under
//! `benches/` (see [`harness`], with shared setup in [`fixtures`]) and
//! the integration tests.

#![warn(missing_docs)]

pub mod fixtures;
pub mod harness;

use cfa_baselines::{instrument, run_naive_mtb, run_plain, TracesConfig};
use rap_link::{link, ClassifyOptions, LinkOptions, TransformOptions};
use rap_track::{device_key, CfaEngine, Challenge, EngineConfig, Metrics};
use workloads::Workload;

/// The MTB trace-SRAM capacity of the paper's prototype (4 KiB).
pub const MTB_SRAM_BYTES: usize = 4096;

/// Every configuration's metrics for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: &'static str,
    /// Unmodified application, no CFA.
    pub plain: Metrics,
    /// Naive MTB (`TSTARTEN`) tracing.
    pub naive: Metrics,
    /// RAP-Track.
    pub rap: Metrics,
    /// TRACES-style instrumentation CFA.
    pub traces: Metrics,
    /// §V-B instrumentation-equivalent variant.
    pub instr_equiv: Metrics,
}

/// Measures the plain baseline.
///
/// # Panics
///
/// Panics when the workload fails to assemble or run — a harness
/// configuration error.
pub fn measure_plain(w: &Workload) -> Metrics {
    let image = w.module.assemble(0).expect("workload assembles");
    let code_bytes = image.end() - image.base();
    let run = run_plain(&image, w.max_instrs, w.attach).expect("plain runs");
    Metrics {
        cycles: run.cycles,
        instrs: run.instrs,
        cflog_bytes: 0,
        code_bytes,
        transmissions: 0,
    }
}

/// Measures the naive-MTB baseline.
///
/// # Panics
///
/// Panics on assembly or execution failure.
pub fn measure_naive(w: &Workload) -> Metrics {
    let image = w.module.assemble(0).expect("workload assembles");
    let code_bytes = image.end() - image.base();
    let run = run_naive_mtb(&image, w.max_instrs, w.attach).expect("naive runs");
    Metrics {
        cycles: run.cycles,
        instrs: run.instrs,
        cflog_bytes: run.cflog_bytes,
        code_bytes,
        transmissions: run.transmissions,
    }
}

/// Measures RAP-Track with explicit link options (ablation entry point).
///
/// # Panics
///
/// Panics on link, assembly or execution failure.
pub fn measure_rap_with(w: &Workload, options: LinkOptions) -> Metrics {
    let linked = link(&w.module, 0, options).expect("workload links");
    let engine = CfaEngine::new(device_key("bench"));
    let mut machine = mcu_sim::Machine::new(linked.image.clone());
    (w.attach)(&mut machine);
    let att = engine
        .attest(
            &mut machine,
            &linked.map,
            Challenge::from_seed(0),
            EngineConfig {
                max_instrs: w.max_instrs * 2,
                watermark: None,
            },
        )
        .expect("attestation runs");
    // CF_Log size from the monotonic hardware counter (unaffected by
    // buffer wrap) plus the Secure-World loop records.
    let mtb_bytes = machine.fabric.mtb().total_recorded() as usize * 8;
    let loop_bytes = att.combined_log().loop_records.len() * rap_track::CfLog::LOOP_RECORD_BYTES;
    let cflog_bytes = mtb_bytes + loop_bytes;
    Metrics {
        cycles: att.outcome.cycles,
        instrs: att.outcome.instrs,
        cflog_bytes,
        code_bytes: linked.image.end() - linked.image.base(),
        transmissions: cflog_bytes.div_ceil(MTB_SRAM_BYTES).max(1),
    }
}

/// Measures RAP-Track with default options.
pub fn measure_rap(w: &Workload) -> Metrics {
    measure_rap_with(w, LinkOptions::default())
}

/// Measures a TRACES-style instrumentation run.
///
/// # Panics
///
/// Panics on instrumentation or execution failure.
pub fn measure_traces_with(w: &Workload, config: TracesConfig) -> Metrics {
    let program = instrument(&w.module, 0, config).expect("workload instruments");
    let run = cfa_baselines::run(&program, w.max_instrs * 4, w.attach).expect("traces runs");
    Metrics {
        cycles: run.cycles,
        instrs: run.instrs,
        cflog_bytes: run.cflog_bytes,
        code_bytes: program.image.end() - program.image.base(),
        transmissions: run.transmissions,
    }
}

/// Measures TRACES with its default optimizations.
pub fn measure_traces(w: &Workload) -> Metrics {
    measure_traces_with(w, TracesConfig::default())
}

/// Measures the §V-B instrumentation-equivalent variant.
pub fn measure_instr_equiv(w: &Workload) -> Metrics {
    measure_traces_with(w, TracesConfig::instrumentation_equivalent())
}

/// Measures all configurations of one workload.
pub fn measure(w: &Workload) -> WorkloadReport {
    WorkloadReport {
        name: w.name,
        plain: measure_plain(w),
        naive: measure_naive(w),
        rap: measure_rap(w),
        traces: measure_traces(w),
        instr_equiv: measure_instr_equiv(w),
    }
}

/// Measures every workload.
pub fn measure_all() -> Vec<WorkloadReport> {
    workloads::all().iter().map(measure).collect()
}

/// Link options with the §IV-D loop optimization disabled (ablation).
pub fn options_no_loop_opt() -> LinkOptions {
    LinkOptions {
        classify: ClassifyOptions {
            loop_opt: false,
            static_loop_elision: false,
        },
        transform: TransformOptions::default(),
    }
}

/// Serializes one [`Metrics`] record via the in-repo JSON writer.
pub fn metrics_to_json(m: &Metrics) -> rap_obs::Json {
    use rap_obs::Json;
    Json::obj([
        ("cycles", Json::Uint(m.cycles)),
        ("instrs", Json::Uint(m.instrs)),
        ("cflog_bytes", Json::Uint(m.cflog_bytes as u64)),
        ("code_bytes", Json::Uint(u64::from(m.code_bytes))),
        ("transmissions", Json::Uint(m.transmissions as u64)),
    ])
}

/// Serializes the full figure series (every workload × configuration)
/// for the `figures --json` artifact.
pub fn reports_to_json(reports: &[WorkloadReport]) -> rap_obs::Json {
    use rap_obs::Json;
    Json::obj([(
        "workloads",
        Json::Arr(
            reports
                .iter()
                .map(|r| {
                    Json::obj([
                        ("name", Json::Str(r.name.to_string())),
                        ("plain", metrics_to_json(&r.plain)),
                        ("naive", metrics_to_json(&r.naive)),
                        ("rap", metrics_to_json(&r.rap)),
                        ("traces", metrics_to_json(&r.traces)),
                        ("instr_equiv", metrics_to_json(&r.instr_equiv)),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Renders one figure row set as an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        line.trim_end().to_owned() + "\n"
    };
    out.push_str(&fmt_row(
        headers.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push_str(&fmt_row(
        widths.iter().map(|w| "-".repeat(*w)).collect(),
        &widths,
    ));
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_smallest_workload() {
        let w = workloads::temperature::workload();
        let report = measure(&w);
        // Fig. 8 ordering: plain = naive ≤ rap < traces.
        assert_eq!(report.plain.cycles, report.naive.cycles);
        assert!(report.rap.cycles >= report.plain.cycles);
        assert!(report.traces.cycles > report.rap.cycles);
        // Fig. 9 ordering: rap ≪ naive.
        assert!(report.naive.cflog_bytes > report.rap.cflog_bytes);
        // Fig. 10: both CFA variants grow the code.
        assert!(report.rap.code_bytes > report.plain.code_bytes);
        assert!(report.traces.code_bytes > report.plain.code_bytes);
    }

    #[test]
    fn ablation_options_disable_loop_plans() {
        let w = workloads::ultrasonic::workload();
        let with = measure_rap(&w);
        let without = measure_rap_with(&w, options_no_loop_opt());
        // Without §IV-D the echo-wait iterations are logged one by one.
        assert!(
            without.cflog_bytes > 4 * with.cflog_bytes,
            "loop opt should shrink the log: {} vs {}",
            without.cflog_bytes,
            with.cflog_bytes
        );
        assert!(without.cycles >= with.cycles);
    }

    #[test]
    fn metrics_serialize_via_repo_json() {
        let m = Metrics {
            cycles: 5,
            cflog_bytes: 64,
            ..Metrics::default()
        };
        let text = metrics_to_json(&m).to_compact();
        let doc = rap_obs::json::parse(&text).unwrap();
        assert_eq!(doc.get("cycles").and_then(rap_obs::Json::as_u64), Some(5));
        assert_eq!(
            doc.get("cflog_bytes").and_then(rap_obs::Json::as_u64),
            Some(64)
        );
    }

    #[test]
    fn table_rendering_aligns() {
        let table = render_table(
            &["app", "value"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("app"));
        assert!(lines[2].starts_with("x"));
    }
}
