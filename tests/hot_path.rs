//! Allocation discipline on the steady-state per-packet path.
//!
//! A counting global allocator meters every heap allocation made by the
//! current thread. After a warmup phase (first half of a trace) has grown
//! every scratch buffer, ring, and accumulator to its steady-state
//! capacity, pushing a packet that does **not** seal a window must make
//! zero heap allocations — for all four estimation methods. Packets that
//! do seal a window are exempt: a sealed [`WindowReport`] legitimately
//! owns a fresh feature vector.
//!
//! ML engines run in [`StatsMode::Sketch`], the strict-O(1) configuration
//! (exact mode keeps unbounded per-window sets by design).
//!
//! The same allocator also meters bytes: opening a flow on a monitor with
//! a trained model attached must not copy the model into the flow.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{IpAddr, Ipv4Addr};
use vcaml_suite::datasets::{inlab_corpus, CorpusConfig};
use vcaml_suite::features::StatsMode;
use vcaml_suite::mlcore::{Dataset, RandomForest, RandomForestParams, Task};
use vcaml_suite::netpkt::{FlowKey, Timestamp};
use vcaml_suite::rtp::VcaKind;
use vcaml_suite::vcaml::engine::{
    IpUdpHeuristicEngine, IpUdpMlEngine, RtpHeuristicEngine, RtpMlEngine,
};
use vcaml_suite::vcaml::{
    EngineConfig, EstimationMethod, Method, MonitorBuilder, QoeEstimator, Trace, TracePacket,
    WindowReport,
};

/// Wraps the system allocator with per-thread allocation and byte
/// counters. The counters only advance while the owning thread has armed
/// them, so parallel test threads never pollute each other's
/// measurements.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_if_armed(bytes: usize) {
    if ARMED.with(Cell::get) {
        ALLOCS.with(|a| a.set(a.get() + 1));
        BYTES.with(|b| b.set(b.get() + bytes as u64));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_armed(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with the counters armed and returns how many heap
/// allocations it made on this thread, and how many bytes they asked for
/// (a `realloc` counts its new size).
fn meter<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let allocs = ALLOCS.with(Cell::get);
    let bytes = BYTES.with(Cell::get);
    ARMED.with(|c| c.set(true));
    let out = f();
    ARMED.with(|c| c.set(false));
    (
        ALLOCS.with(Cell::get) - allocs,
        BYTES.with(Cell::get) - bytes,
        out,
    )
}

/// Runs `f` with the counters armed and returns how many heap
/// allocations it made on this thread.
fn metered<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let (allocs, _, out) = meter(f);
    (allocs, out)
}

fn trace(vca: VcaKind) -> Trace {
    inlab_corpus(
        vca,
        &CorpusConfig {
            n_calls: 1,
            min_secs: 20,
            max_secs: 20,
            seed: 0x607_9a7,
        },
    )
    .remove(0)
}

/// Warm an engine on the first half of a trace, then assert that every
/// non-sealing push in the second half allocates nothing.
fn assert_alloc_free_steady_state<E: QoeEstimator>(mut engine: E, trace: &Trace, label: &str) {
    let mid = trace.packets.len() / 2;
    let mut out: Vec<WindowReport> = Vec::with_capacity(64);
    for p in &trace.packets[..mid] {
        engine.push_into(p, &mut out);
        out.clear();
    }

    let mut steady = 0usize;
    let mut dirty = Vec::new();
    for (i, p) in trace.packets[mid..].iter().enumerate() {
        let (allocs, ()) = metered(|| engine.push_into(p, &mut out));
        if out.is_empty() {
            // No window sealed: the pure per-packet path must be heap-silent.
            steady += 1;
            if allocs > 0 {
                dirty.push((mid + i, allocs));
            }
        }
        out.clear();
    }

    assert!(
        steady > 100,
        "{label}: trace too short to exercise the steady state ({steady} packets)"
    );
    assert!(
        dirty.is_empty(),
        "{label}: {} of {steady} steady-state packets allocated: {:?}",
        dirty.len(),
        &dirty[..dirty.len().min(8)]
    );
}

fn sketch_config(vca: VcaKind) -> EngineConfig {
    EngineConfig {
        stats: StatsMode::Sketch,
        ..EngineConfig::paper(vca)
    }
}

/// The meter itself must see allocations, or every test above is vacuous.
#[test]
fn allocation_meter_detects_heap_traffic() {
    let (allocs, bytes, v) = meter(|| Vec::<u64>::with_capacity(32));
    assert!(allocs >= 1, "counting allocator missed a Vec allocation");
    assert!(
        bytes >= 256,
        "byte meter missed a 256-byte allocation ({bytes})"
    );
    drop(v);
    let (quiet, ()) = metered(|| ());
    assert_eq!(quiet, 0, "counter advanced with no allocation");
}

#[test]
fn ipudp_heuristic_steady_state_is_alloc_free() {
    let t = trace(VcaKind::Meet);
    let engine = IpUdpHeuristicEngine::new(sketch_config(VcaKind::Meet));
    assert_alloc_free_steady_state(engine, &t, "IpUdpHeuristic");
}

#[test]
fn rtp_heuristic_steady_state_is_alloc_free() {
    let t = trace(VcaKind::Meet);
    let engine = RtpHeuristicEngine::new(sketch_config(VcaKind::Meet), t.payload_map);
    assert_alloc_free_steady_state(engine, &t, "RtpHeuristic");
}

#[test]
fn ipudp_ml_steady_state_is_alloc_free() {
    let t = trace(VcaKind::Teams);
    let engine = IpUdpMlEngine::new(sketch_config(VcaKind::Teams));
    assert_alloc_free_steady_state(engine, &t, "IpUdpMl");
}

#[test]
fn rtp_ml_steady_state_is_alloc_free() {
    let t = trace(VcaKind::Teams);
    let engine = RtpMlEngine::new(sketch_config(VcaKind::Teams), t.payload_map);
    assert_alloc_free_steady_state(engine, &t, "RtpMl");
}

/// A 40-tree forest on the 14 IP/UDP feature columns, fitted to a
/// synthetic target with enough structure that its trees grow deep:
/// a deep copy of it is megabytes, far above the per-flow bound below.
fn ipudp_width_forest() -> RandomForest {
    let mut data = Dataset::new((0..14).map(|i| format!("f{i}")).collect());
    for i in 0..2000u64 {
        let row: Vec<f64> = (0..14u64)
            .map(|j| ((i * (2 * j + 7) + j * j) % 101) as f64)
            .collect();
        let fps = 5.0 + row[0] * 0.2 + (row[1] * row[2]).sqrt() * 0.1 + (i % 13) as f64;
        data.push(&row, fps);
    }
    RandomForest::fit(&data, Task::Regression, &RandomForestParams::default())
}

/// Opening a flow must not copy the attached model: every flow's engine
/// shares the monitor's one forest, so a flow open costs the engine's own
/// state (a few KiB), not the forest's (about 1 MB per copy).
#[test]
fn ipudp_ml_flow_open_does_not_copy_the_model() {
    const FLOWS: u16 = 1000;
    const MAX_BYTES_PER_FLOW: u64 = 64 * 1024;
    // Inline monitor: every flow open runs on this (metered) thread.
    let mut m = MonitorBuilder::new(VcaKind::Teams)
        .method(EstimationMethod::Fixed(Method::IpUdpMl))
        .model(ipudp_width_forest())
        .threads(1)
        .build();
    let server = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1));
    let packet = TracePacket {
        ts: Timestamp::from_micros(0),
        size: 1100,
        rtp: None,
        truth_media: None,
    };
    let (_, bytes, ()) = meter(|| {
        for n in 0..FLOWS {
            let client = IpAddr::V4(Ipv4Addr::new(10, 0, (n >> 8) as u8, n as u8));
            let (flow, _) = FlowKey::canonical(client, 50_000, server, 3478, 17);
            m.ingest_packet(flow, packet);
        }
    });
    assert_eq!(m.stats().flows_opened, u64::from(FLOWS));
    let per_flow = bytes / u64::from(FLOWS);
    assert!(
        per_flow < MAX_BYTES_PER_FLOW,
        "opening a flow allocated {per_flow} bytes (bound {MAX_BYTES_PER_FLOW})"
    );
    // The bound is only meaningful if the model really is attached.
    let reports: Vec<WindowReport> = m
        .finish()
        .iter()
        .flat_map(|e| e.final_reports().to_vec())
        .collect();
    assert_eq!(reports.len(), usize::from(FLOWS));
    assert!(reports.iter().all(|r| r.model_fps.is_some()));
}
