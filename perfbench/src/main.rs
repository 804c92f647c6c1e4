//! Measurement binary of the repository benchmark. `perfbench/run.py`
//! builds it, runs it once per repeat so that each workload run has its
//! own process, and aggregates what it prints.
//!
//! ```text
//! perfbench run   <workload> <seed>             untraced run: host cost + virtual metrics
//! perfbench trace <workload> <seed> <spans.json> untraced + traced run + layer probes
//! ```
//!
//! Each command prints one JSON object on stdout.

mod json;
mod probes;
mod run;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use siperf_simcore::time::SimDuration;
use siperf_workload::Scenario;

use json::Obj;
use run::{measure, virtual_metrics, window_counts, Measured};
use workloads::Workload;

/// Virtual length of one traced slice.
const SLICE: SimDuration = SimDuration::from_millis(50);

fn host_metrics(m: &Measured, s: &Scenario) -> Obj {
    Obj::new()
        .num("setup_s", m.setup.as_secs_f64())
        .num("window_host_s", m.window_host.as_secs_f64())
        .num("window_from_virt_s", s.measure_from.as_secs_f64())
        .num("window_virt_s", s.measure.as_secs_f64())
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn cmd_run(wl: Workload, seed: u64) -> String {
    let s = wl.scenario(seed);
    let (m, _) = measure(&s, None);
    Obj::new()
        .str("workload", wl.name())
        .int("seed", seed)
        .obj("host", host_metrics(&m, &s))
        .int("peak_rss_kib", peak_rss_kib())
        .str("fingerprint", &run::digest(&m.report))
        .obj("virt", virtual_metrics(wl, &s, &m))
        .finish()
}

fn cmd_trace(wl: Workload, seed: u64, spans_path: &Path) -> Result<String, String> {
    let s = wl.scenario(seed);
    let (plain, _) = measure(&s, None);
    let (traced, trace) = measure(&s, Some(SLICE));
    let trace = trace.expect("a sliced run keeps its spans");
    let digest = run::digest(&plain.report);
    if run::digest(&traced.report) != digest {
        return Err("the traced run diverged from the untraced run of the same seed".into());
    }
    trace
        .write(spans_path)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    let (open_at, close_at) = s.window();
    let slices = trace.slice_ms(open_at, close_at);
    let probe_in = probes::Inputs::from_run(&s, &plain);
    let probe_out = probes::run_all(&probe_in, seed);
    Ok(Obj::new()
        .str("workload", wl.name())
        .int("seed", seed)
        .str("fingerprint", &digest)
        .obj("untraced", host_metrics(&plain, &s))
        .obj("traced", host_metrics(&traced, &s))
        .raw(
            "slice_ms",
            &json::array(slices.iter().map(|v| v.to_string())),
        )
        .int("spans", trace.spans.len() as u64)
        .obj("counts", window_counts(&s, &plain))
        .obj("probe_inputs", probe_in.to_json())
        .obj("probes", probe_out)
        .obj("virt", virtual_metrics(wl, &s, &plain))
        .finish())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage =
        "usage: perfbench run <workload> <seed> | perfbench trace <workload> <seed> <spans.json>";
    let parsed = match args.as_slice() {
        [cmd, wl, seed, rest @ ..] => Workload::from_name(wl)
            .zip(seed.parse::<u64>().ok())
            .map(|(wl, seed)| (cmd.as_str(), wl, seed, rest)),
        _ => None,
    };
    let result = match parsed {
        Some(("run", wl, seed, [])) => Ok(cmd_run(wl, seed)),
        Some(("trace", wl, seed, [path])) => cmd_trace(wl, seed, Path::new(path)),
        _ => Err(usage.to_string()),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
