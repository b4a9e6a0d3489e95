//! Tap-replay benchmark for the vcaml monitor.
//!
//! ```sh
//! cargo run --release --offline --manifest-path tapbench/Cargo.toml -- \
//!     --workload steady_tap --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Builds the workload's capture from `--seed`, trains the model, then
//! replays the capture through the production monitor path for
//! `--seconds` and prints the end-to-end metrics (`--trace 0`) or times
//! each layer from the benchmark's own code (`--trace 1`). The last line
//! of standard output is one JSON object; the exit code is 1 when an
//! output check fails. See `tapbench/README.md`.

mod e2e;
mod input;
mod layers;
mod model;
mod sys;
mod workload;

use e2e::Length;
use input::Capture;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Drive, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const MIB: f64 = 1024.0 * 1024.0;
/// Share of a closed-loop workload's run spent measuring report lag
/// (rounded to whole passes, at least one).
const LAG_SHARE: f64 = 0.5;
/// Replay speed of a closed-loop workload's lag phase: the capture's own
/// real-time rate, where the wait for each window's closing packet —
/// fixed by the capture — dominates, rather than CPU contention on the
/// host.
const LAG_SPEED: f64 = 1.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::named(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Metrics in output order: name, value, unit.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tapbench: {e}");
            eprintln!(
                "usage: tapbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                workload::WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    println!(
        "tapbench workload={} seed={} seconds={} trace={} cores={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::cores()
    );
    let cap = Arc::new(Capture::build(w.mix, args.seed));
    println!(
        "input: {} frames per pass ({} call, {} probe, {} non-UDP), {:.1} MB, {} call flows, passes {} s apart",
        cap.frames(),
        cap.call_frames,
        cap.probe_frames,
        cap.tcp_frames,
        cap.bytes() as f64 / MIB,
        cap.call_flows(),
        cap.pass_secs
    );
    // The memory baseline: RSS once the input is built.
    sys::trim_heap();
    let rss0 = sys::rss_bytes();
    let corpus = model::corpus();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let forest = model::train(&corpus);
        let runner = w.runner(&forest);
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((forest, runner));
    }
    drop(corpus);
    let (forest, runner) = ready.expect("at least one set-up");
    let seconds = Duration::from_secs(args.seconds);
    let (metrics, attempted, failed, violations) = if args.trace {
        drop(runner);
        layers::run(&w, &cap, &forest, seconds)
    } else {
        let setup = Setup {
            forest,
            runner,
            setup_s,
            rss0,
        };
        end_to_end(&w, args.seed, &cap, setup, seconds)
    };
    for v in &violations {
        println!("CHECK FAILED: {v}");
    }
    let correct = violations.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "{name} is not finite");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// What set-up leaves for the untraced run.
struct Setup {
    forest: vcaml_mlcore::RandomForest,
    /// The runner built by the last set-up repetition.
    runner: vcaml::MonitorRunner,
    /// Set-up time of each repetition, seconds.
    setup_s: Vec<f64>,
    /// RSS once the input was built, bytes.
    rss0: u64,
}

/// The untraced run: one timed replay, then the determinism checks.
fn end_to_end(
    w: &Workload,
    seed: u64,
    cap: &Arc<Capture>,
    setup: Setup,
    seconds: Duration,
) -> (Metrics, u64, u64, Vec<String>) {
    let Setup {
        forest,
        runner,
        mut setup_s,
        rss0,
    } = setup;
    let forest = &forest;
    // Closed-loop workloads measure throughput, CPU and memory closed
    // loop, then report lag in an open-loop phase at the capture's
    // real-time rate: at saturation, lag only measures how full the
    // ingest buffers happen to run. The open-loop workload measures
    // everything in one run.
    let (length, lag_passes) = match w.drive {
        Drive::ClosedLoop => (
            Length::Wall(seconds.mul_f64(1.0 - LAG_SHARE)),
            Some(cap.passes_for(seconds.mul_f64(LAG_SHARE), LAG_SPEED)),
        ),
        Drive::OpenLoop { speed } => (Length::Passes(cap.passes_for(seconds, speed)), None),
    };
    let out = e2e::run(cap, runner, w.drive, length, e2e::Probe::Memory(rss0));
    let lag_run = lag_passes.map(|n| {
        e2e::run(
            cap,
            w.runner(forest),
            Drive::OpenLoop { speed: LAG_SPEED },
            Length::Passes(n),
            e2e::Probe::None,
        )
    });
    let lag_out = lag_run.as_ref().unwrap_or(&out);
    let mut violations = out.violations();
    if let Some(l) = &lag_run {
        violations.extend(l.violations());
    }
    // Two further one-pass runs must agree exactly; closed loop, since
    // pacing changes timing, never results.
    let verify: Vec<_> = (0..2)
        .map(|_| {
            e2e::run(
                cap,
                w.runner(forest),
                Drive::ClosedLoop,
                Length::Passes(1),
                e2e::Probe::None,
            )
        })
        .collect();
    for v in &verify {
        violations.extend(v.violations());
    }
    let mae = [verify[0].audit.fps_mae(), verify[1].audit.fps_mae()];
    if signature(&verify[0]) != signature(&verify[1]) || (mae[0] - mae[1]).abs() > 1e-9 * mae[0] {
        violations.push(format!(
            "two runs of one pass disagree: {:?} vs {:?}",
            signature(&verify[0]),
            signature(&verify[1])
        ));
    }
    if Capture::build(w.mix, seed).digest() != cap.digest() {
        violations.push("the same seed built a different input".into());
    }
    if Capture::build(w.mix, seed.wrapping_add(1)).digest() == cap.digest() {
        violations.push("seeds differing by one built the same input".into());
    }

    let s = &out.report.stats;
    let a = &out.audit;
    let mut lags = lag_out.audit.lags_ms.clone();
    if lags.is_empty() {
        violations.push("no report lag was measured".into());
        lags.push(0.0);
    }
    // Both timed phases count toward the attempted work and its failures.
    let attempted = out.offered + lag_run.as_ref().map_or(0, |l| l.offered);
    let failed = out.failed() + lag_run.as_ref().map_or(0, e2e::Outcome::failed);
    println!(
        "run: {} frames offered over {} passes in {:.3} s; {} routed, {} parse drops; {} flows opened, {} evicted; {} events",
        out.offered,
        out.passes(),
        out.wall.as_secs_f64(),
        s.packets,
        s.parse_drops,
        s.flows_opened,
        s.flows_evicted,
        out.report.events
    );
    let mut pass_cpu = out.pass_values(|_, cpu| cpu.as_nanos() as f64 / cap.frames() as f64);
    if !pass_cpu.is_empty() {
        println!(
            "whole run: {:.0} frames/s, {:.1} ns CPU per frame; per pass p10/p50/p90 {:.1}/{:.1}/{:.1} ns",
            out.overall_pps(),
            out.overall_cpu_ns(),
            sys::percentile(&mut pass_cpu, 10.0),
            sys::percentile(&mut pass_cpu, 50.0),
            sys::percentile(&mut pass_cpu, 90.0)
        );
    }
    println!(
        "windows: {} standalone, {} sealed by eviction; {} with truth; {} lag samples, {} idle, {} unmatched; failed_ratio {}",
        a.standalone_windows,
        a.evicted_windows,
        a.fps_n,
        lags.len(),
        lag_out.audit.idle_windows,
        lag_out.audit.unmatched_windows,
        failed as f64 / attempted.max(1) as f64
    );
    if let Some(late) = &lag_out.late {
        println!(
            "open loop: {} frames at {:.0} frames/s, generator p99 lateness {} ms",
            lag_out.offered,
            lag_out.overall_pps(),
            late.p99_ms()
        );
    }
    let metrics = vec![
        ("throughput_pps", out.throughput_pps(cap.frames()), "1/s"),
        ("cpu_ns_per_pkt", out.cpu_ns_per_pkt(cap.frames()), "ns"),
        (
            "report_lag_p50_ms",
            sys::chunked_percentile(&lags, 50.0),
            "ms",
        ),
        (
            "report_lag_p99_ms",
            sys::chunked_percentile(&lags, 99.0),
            "ms",
        ),
        ("fps_mae", a.fps_mae(), "fps"),
        (
            "ok_ratio",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        ("mem_peak_mb", out.mem_peak_mb, "MB"),
        ("setup_s", sys::median(&mut setup_s), "s"),
    ];
    (metrics, attempted, failed, violations)
}

/// What two runs of the same input must agree on exactly.
/// (The fps error sums in event order, which differs between threaded
/// runs in its last bits, so it is compared apart with a tolerance.)
fn signature(o: &e2e::Outcome) -> (Vec<u64>, Vec<(String, u64)>) {
    let s = &o.report.stats;
    let mut per_flow: Vec<(String, u64)> = o
        .audit
        .per_flow
        .iter()
        .map(|(k, n)| (k.to_string(), *n))
        .collect();
    per_flow.sort();
    let counts = vec![
        o.offered,
        s.packets,
        s.parse_drops,
        s.window_reports,
        s.flows_opened,
        o.report.events,
    ];
    (counts, per_flow)
}
