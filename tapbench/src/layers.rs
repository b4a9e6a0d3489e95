//! The traced run: times each layer from the benchmark's own code by
//! calling the layers' public functions on the workload's capture, one
//! layer at a time, and reconciles the per-stage sum with the untraced
//! end-to-end CPU cost.
//!
//! Layers are timed per batch of `BATCH` packets (or events), never per
//! call: one clock read costs about as much as a header parse.

use crate::e2e::{self, Length};
use crate::input::{self, Capture, LoopReader, PassMarks, Stop};
use crate::sys;
use crate::workload::{Drive, Workload, LIVE_SPEED, MODEL_METHOD};
use crate::Metrics;
use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vcaml::api::{build_engine, BoxedEngine, ParseDropReason};
use vcaml::engine::FlowTable;
use vcaml::source::SourcePacket;
use vcaml::{
    AlertThresholds, CountingSink, EngineConfig, EventBus, EventFilter, EventSink, EvictReason,
    JsonLinesSink, MediaClassifier, Method, PacketSource, PcapFileSource, QoeEstimator, QoeEvent,
    TracePacket, WindowReport,
};
use vcaml_features::IpUdpFeatureAcc;
use vcaml_mlcore::RandomForest;
use vcaml_netpkt::pcap::PcapRecord;
use vcaml_netpkt::{FlowKey, Timestamp, UdpDatagram};
use vcaml_rtp::{PayloadMap, RtpHeader, VcaKind};

/// Packets (or events) per timed batch.
const BATCH: usize = 64;
/// Packets of probation before the auto method settles a flow.
const PROBATION: usize = vcaml::api::RTP_PROBATION_PACKETS;

thread_local! {
    /// Whether the staged replay reads the clock (off for the untimed
    /// replay that measures the tracing overhead).
    static TIMED: Cell<bool> = const { Cell::new(true) };
    /// Engine calls that crossed into a new window: (count, ns).
    static SEALS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Runs `f`, adding its duration to `acc` when the replay is timed.
fn stage<R>(acc: &mut u64, f: impl FnOnce() -> R) -> R {
    if TIMED.get() {
        let t = Instant::now();
        let r = f();
        *acc += t.elapsed().as_nanos() as u64;
        r
    } else {
        f()
    }
}

/// An engine that times only its window-crossing calls (the ones that
/// seal a window), so per-window cost is measured without a clock read
/// on every packet.
struct Sealing {
    engine: BoxedEngine,
    /// Bounds of the window the last packet fell in, µs.
    lo: i64,
    hi: i64,
}

impl Sealing {
    fn timed(&mut self, f: impl FnOnce(&mut BoxedEngine)) {
        if TIMED.get() {
            let t = Instant::now();
            f(&mut self.engine);
            let ns = t.elapsed().as_nanos() as u64;
            SEALS.set((SEALS.get().0 + 1, SEALS.get().1 + ns));
        } else {
            f(&mut self.engine);
        }
    }
}

impl QoeEstimator for Sealing {
    fn method(&self) -> Method {
        self.engine.method()
    }

    fn push_into(&mut self, pkt: &TracePacket, out: &mut Vec<WindowReport>) {
        let us = pkt.ts.as_micros();
        if us >= self.lo && us < self.hi {
            self.engine.push_into(pkt, out);
        } else {
            self.lo = us - us.rem_euclid(1_000_000);
            self.hi = self.lo + 1_000_000;
            self.timed(|e| e.push_into(pkt, out));
        }
    }

    fn finish_into(&mut self, out: &mut Vec<WindowReport>) {
        self.timed(|e| e.finish_into(out));
    }

    fn empty_report(&self, window: u64) -> WindowReport {
        self.engine.empty_report(window)
    }

    fn state_bytes(&self) -> usize {
        self.engine.state_bytes()
    }
}

/// A flow-table payload that does no work: the table's own cost.
struct Null;

impl QoeEstimator for Null {
    fn method(&self) -> Method {
        MODEL_METHOD
    }

    fn push_into(&mut self, _pkt: &TracePacket, _out: &mut Vec<WindowReport>) {}

    fn finish_into(&mut self, _out: &mut Vec<WindowReport>) {}

    fn empty_report(&self, window: u64) -> WindowReport {
        WindowReport {
            window,
            method: MODEL_METHOD,
            estimate: None,
            features: None,
            model_fps: None,
            video_packets: 0,
        }
    }
}

/// Counts bytes written.
#[derive(Clone, Default)]
struct ByteCount(Arc<AtomicU64>);

impl Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .fetch_add(buf.len() as u64, std::sync::atomic::Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Time per stage over the timed batches, ns.
#[derive(Default, Debug)]
struct StageTimes {
    source: u64,
    parse: u64,
    rtp: u64,
    route: u64,
    table: u64,
    engine: u64,
    event: u64,
    bus: u64,
    json: u64,
}

/// The work a set of batches did.
#[derive(Default, Debug, Clone, Copy)]
struct Counts {
    batches: u64,
    frames: u64,
    datagrams: u64,
    drops: u64,
    /// Drops for any reason but "not UDP" (the captures hold none).
    malformed: u64,
    rtp_ok: u64,
    events: u64,
    windows: u64,
    opened: u64,
    evicted: u64,
}

impl Counts {
    fn add(&mut self, o: Counts) {
        self.batches += o.batches;
        self.frames += o.frames;
        self.datagrams += o.datagrams;
        self.drops += o.drops;
        self.malformed += o.malformed;
        self.rtp_ok += o.rtp_ok;
        self.events += o.events;
        self.windows += o.windows;
        self.opened += o.opened;
        self.evicted += o.evicted;
    }
}

/// Pulls one batch of records from an endless source.
fn pull(source: &mut PcapFileSource<LoopReader>) -> Vec<PcapRecord> {
    (0..BATCH)
        .map(|_| match source.next_packet().expect("in-memory pcap") {
            Some(SourcePacket::Record { record, .. }) => record,
            _ => unreachable!("the capture loops without end"),
        })
        .collect()
}

/// Settles each auto-method flow the way probation does: the preferred
/// RTP method when a majority of its first packets parse as RTP.
fn auto_methods(cap: &Arc<Capture>) -> HashMap<FlowKey, Method> {
    let mut source = input::pcap_source(cap, Stop::Passes(1), PassMarks::default());
    let mut seen: HashMap<FlowKey, (usize, usize)> = HashMap::new();
    while let Some(SourcePacket::Record { record, .. }) =
        source.next_packet().expect("in-memory pcap")
    {
        if let Ok(Some(dg)) = UdpDatagram::parse_shared(&record.data) {
            let e = seen.entry(dg.flow_key().0).or_default();
            if e.0 < PROBATION {
                e.0 += 1;
                e.1 += usize::from(RtpHeader::parse(&dg.payload).is_ok());
            }
        }
    }
    seen.into_iter()
        .map(|(k, (n, ok))| {
            let rtp = ok as f64 / n as f64 >= vcaml::api::RTP_CONFIDENCE;
            (
                k,
                if rtp {
                    Method::RtpHeuristic
                } else {
                    Method::IpUdpHeuristic
                },
            )
        })
        .collect()
}

/// The per-layer replay: every stage of the production path, run by the
/// benchmark one layer at a time over each batch.
struct Staged {
    source: PcapFileSource<LoopReader>,
    wants_rtp: bool,
    null_table: FlowTable<Null>,
    table: FlowTable<Sealing>,
    /// Keys the table's factory built an engine for since the last batch.
    opened: Arc<Mutex<Vec<FlowKey>>>,
    bus: EventBus,
    json: JsonLinesSink<ByteCount>,
    json_bytes: ByteCount,
    next_sweep: Option<i64>,
    t: StageTimes,
    /// Per-flow state bytes at each idle sweep.
    state_bytes: Vec<f64>,
}

impl Staged {
    fn new(w: &Workload, cap: &Arc<Capture>, forest: &RandomForest) -> Staged {
        let config = EngineConfig::paper(VcaKind::Teams);
        let payload_map = PayloadMap::lab(VcaKind::Teams);
        let idle = Timestamp::from_secs(w.idle_secs.unwrap_or(60));
        let methods = (!w.ml).then(|| auto_methods(cap));
        let model = w.ml.then(|| forest.clone());
        let opened = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&opened);
        let table = FlowTable::new(8, idle, move |key: &FlowKey| {
            let method = match &methods {
                Some(m) => m.get(key).copied().unwrap_or(Method::IpUdpHeuristic),
                None => MODEL_METHOD,
            };
            seen.lock().expect("opened list").push(*key);
            Sealing {
                engine: build_engine(method, config, payload_map, model.as_ref()),
                lo: 1,
                hi: 0,
            }
        });
        let mut bus = EventBus::new(AlertThresholds::new());
        bus.subscribe(EventFilter::all(), CountingSink::default());
        let json_bytes = ByteCount::default();
        Staged {
            source: input::pcap_source(cap, Stop::Passes(u64::MAX), PassMarks::default()),
            wants_rtp: w.wants_rtp(),
            null_table: FlowTable::new(8, idle, |_: &FlowKey| Null),
            table,
            opened,
            bus,
            json: JsonLinesSink::new(json_bytes.clone()),
            json_bytes,
            next_sweep: None,
            t: StageTimes::default(),
            state_bytes: Vec::new(),
        }
    }

    /// Replays one batch through every stage, returning the work done.
    fn batch(&mut self) -> Counts {
        let mut n = Counts {
            batches: 1,
            ..Counts::default()
        };
        let t = &mut self.t;
        let source = &mut self.source;
        let records = stage(&mut t.source, || pull(source));
        let parsed: Vec<_> = stage(&mut t.parse, || {
            records
                .iter()
                .map(|r| UdpDatagram::parse_shared(&r.data))
                .collect::<Vec<_>>()
        });
        n.frames = records.len() as u64;
        let rtp: Vec<Option<RtpHeader>> = stage(&mut t.rtp, || {
            parsed
                .iter()
                .map(|p| match p {
                    Ok(Some(dg)) => RtpHeader::parse(&dg.payload).ok(),
                    _ => None,
                })
                .collect()
        });
        let wants_rtp = self.wants_rtp;
        let routed: Vec<(u64, FlowKey, TracePacket)> = stage(&mut t.route, || {
            parsed
                .iter()
                .zip(&records)
                .zip(&rtp)
                .filter_map(|((p, rec), rtp)| match p {
                    Ok(Some(dg)) => {
                        let flow = dg.flow_key().0;
                        let pkt = TracePacket {
                            ts: rec.ts,
                            size: dg.ip_total_len,
                            rtp: if wants_rtp { *rtp } else { None },
                            truth_media: None,
                        };
                        Some((flow.hash64(), flow, pkt))
                    }
                    _ => None,
                })
                .collect()
        });
        n.datagrams = routed.len() as u64;
        n.rtp_ok = rtp.iter().filter(|r| r.is_some()).count() as u64;
        let drops: Vec<(Timestamp, ParseDropReason)> = parsed
            .iter()
            .zip(&records)
            .filter_map(|(p, rec)| match p {
                Ok(Some(_)) => None,
                Ok(None) => Some((rec.ts, ParseDropReason::NotUdp)),
                Err(e) => Some((rec.ts, ParseDropReason::from(e))),
            })
            .collect();
        n.drops = drops.len() as u64;
        n.malformed = drops
            .iter()
            .filter(|(_, r)| *r != ParseDropReason::NotUdp)
            .count() as u64;
        // Idle sweeps run on the same stream-time cadence as the
        // monitor's (once per second of stream time).
        let now = routed.last().map(|(_, _, p)| p.ts.as_micros());
        let sweep = match (now, self.next_sweep) {
            (Some(now), Some(at)) if now >= at => Some(now),
            (Some(now), None) => {
                self.next_sweep = Some(now + 1_000_000);
                None
            }
            _ => None,
        };
        let null_table = &mut self.null_table;
        stage(&mut t.table, || {
            let mut out = Vec::new();
            for (hash, flow, pkt) in &routed {
                null_table.push_hashed_into(*hash, *flow, pkt, &mut out);
            }
            if let Some(now) = sweep {
                null_table.evict_idle(Timestamp::from_micros(now));
            }
        });
        let table = &mut self.table;
        let (reports, evicted) = stage(&mut t.engine, || {
            let mut out = Vec::new();
            let mut reports = Vec::new();
            for (hash, flow, pkt) in &routed {
                table.push_hashed_into(*hash, *flow, pkt, &mut out);
                reports.extend(out.drain(..).map(|r| (*flow, r)));
            }
            let evicted = sweep.map(|now| table.evict_idle(Timestamp::from_micros(now)));
            (reports, evicted.unwrap_or_default())
        });
        if let Some(now) = sweep {
            self.next_sweep = Some(now + 1_000_000);
            if !self.table.is_empty() {
                self.state_bytes
                    .push(self.table.state_bytes() as f64 / self.table.len() as f64);
            }
        }
        // Each new flow opens at its first packet in this batch.
        let opened: Vec<(FlowKey, Timestamp)> =
            std::mem::take(&mut *self.opened.lock().expect("opened list"))
                .into_iter()
                .map(|key| {
                    let first = routed.iter().find(|(_, k, _)| *k == key);
                    (
                        key,
                        first.map_or(Timestamp::from_micros(0), |(_, _, p)| p.ts),
                    )
                })
                .collect();
        n.opened = opened.len() as u64;
        n.evicted = evicted.len() as u64;
        n.windows = (reports.len() + evicted.iter().map(|(_, r)| r.len()).sum::<usize>()) as u64;
        let events: Vec<Arc<QoeEvent>> = stage(&mut t.event, || {
            let mut events = Vec::with_capacity(drops.len() + reports.len());
            events.extend(
                drops
                    .into_iter()
                    .map(|(ts, reason)| Arc::new(QoeEvent::ParseDrop { ts, reason })),
            );
            events.extend(
                opened
                    .into_iter()
                    .map(|(flow, ts)| Arc::new(QoeEvent::FlowOpened { flow, ts })),
            );
            events.extend(reports.into_iter().map(|(flow, report)| {
                Arc::new(QoeEvent::WindowReport {
                    flow,
                    report,
                    provisional: false,
                })
            }));
            events.extend(evicted.into_iter().map(|(flow, final_reports)| {
                Arc::new(QoeEvent::FlowEvicted {
                    flow,
                    reason: EvictReason::Idle,
                    final_reports,
                })
            }));
            events
        });
        n.events = events.len() as u64;
        let bus = &mut self.bus;
        stage(&mut t.bus, || {
            for e in &events {
                bus.publish(e);
            }
        });
        let json = &mut self.json;
        stage(&mut t.json, || {
            for e in &events {
                json.on_event(e);
            }
        });
        n
    }
}

/// One per-layer replay: timed and untimed batches alternate, so the
/// tracing overhead is measured against the same stretch of time and
/// input rather than against a second run.
struct Replay {
    staged: Staged,
    timed: Counts,
    untimed: Counts,
    timed_wall: Duration,
    untimed_wall: Duration,
}

impl Replay {
    fn run(w: &Workload, cap: &Arc<Capture>, forest: &RandomForest, budget: Duration) -> Replay {
        let mut r = Replay {
            staged: Staged::new(w, cap, forest),
            timed: Counts::default(),
            untimed: Counts::default(),
            timed_wall: Duration::ZERO,
            untimed_wall: Duration::ZERO,
        };
        SEALS.set((0, 0));
        let start = Instant::now();
        while start.elapsed() < budget || r.untimed.batches < r.timed.batches {
            let timed = r.timed.batches <= r.untimed.batches;
            TIMED.set(timed);
            let t = Instant::now();
            let n = r.staged.batch();
            let wall = t.elapsed();
            if timed {
                r.timed.add(n);
                r.timed_wall += wall;
            } else {
                r.untimed.add(n);
                r.untimed_wall += wall;
            }
        }
        TIMED.set(true);
        r
    }

    /// Extra wall time per batch that the stage clocks cost, %.
    fn overhead_pct(&self) -> f64 {
        let per_batch = |wall: Duration, c: &Counts| wall.as_secs_f64() / c.batches.max(1) as f64;
        (per_batch(self.timed_wall, &self.timed) / per_batch(self.untimed_wall, &self.untimed)
            - 1.0)
            * 100.0
    }
}

/// Caller-side `Monitor::ingest_pcap_record` on the workload's own
/// monitor configuration, timed per batch; events are drained between
/// batches, outside the timed region. Returns ns per frame.
fn caller_ingest(w: &Workload, cap: &Arc<Capture>, forest: &RandomForest, budget: Duration) -> f64 {
    let mut monitor = w.builder(forest).build();
    let mut source = input::pcap_source(cap, Stop::Passes(u64::MAX), PassMarks::default());
    let link = source.link_type();
    let (mut ns, mut frames) = (0u64, 0u64);
    let start = Instant::now();
    while start.elapsed() < budget {
        let records = pull(&mut source);
        let t = Instant::now();
        for r in &records {
            monitor.ingest_pcap_record(link, r);
        }
        ns += t.elapsed().as_nanos() as u64;
        frames += records.len() as u64;
        monitor.drain_shared().for_each(drop);
    }
    drop(monitor.finish_shared());
    ns as f64 / frames as f64
}

/// Repeats `f` in batches of `n` until `budget` has passed (after one
/// warm-up batch); the median batch's ns per call.
fn per_call<T>(budget: Duration, n: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut batch = || {
        let t = Instant::now();
        let kept: Vec<T> = (0..n).map(|_| f()).collect();
        let ns = t.elapsed().as_nanos() as f64 / n as f64;
        drop(std::hint::black_box(kept));
        ns
    };
    batch();
    let mut per_batch = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || per_batch.len() < 3 {
        per_batch.push(batch());
    }
    sys::median(&mut per_batch)
}

/// IP/UDP feature extraction and model prediction per window, over every
/// (flow, window) of one pass of the capture.
fn window_costs(cap: &Arc<Capture>, forest: &RandomForest) -> (f64, f64) {
    let config = EngineConfig::paper(VcaKind::Teams);
    let classifier = MediaClassifier::new(config.vmin);
    let mut source = input::pcap_source(cap, Stop::Passes(1), PassMarks::default());
    let mut accs: HashMap<(FlowKey, i64), IpUdpFeatureAcc> = HashMap::new();
    while let Some(SourcePacket::Record { record, .. }) =
        source.next_packet().expect("in-memory pcap")
    {
        if let Ok(Some(dg)) = UdpDatagram::parse_shared(&record.data) {
            let pkt = TracePacket {
                ts: record.ts,
                size: dg.ip_total_len,
                rtp: None,
                truth_media: None,
            };
            let acc = accs
                .entry((dg.flow_key().0, record.ts.as_micros() / 1_000_000))
                .or_insert_with(|| IpUdpFeatureAcc::new(config.stats, config.theta_iat_us));
            if classifier.is_video(&pkt) {
                acc.push(pkt.ts, pkt.size);
            }
        }
    }
    let accs: Vec<IpUdpFeatureAcc> = accs.into_values().collect();
    let window_secs = f64::from(config.window_secs);
    let mut rows = Vec::with_capacity(accs.len());
    let t = Instant::now();
    for acc in &accs {
        rows.push(acc.features(window_secs));
    }
    let features_ns = t.elapsed().as_nanos() as f64 / accs.len() as f64;
    let t = Instant::now();
    let mut sum = 0.0;
    for row in &rows {
        sum += forest.predict(row);
    }
    std::hint::black_box(sum);
    let predict_ns = t.elapsed().as_nanos() as f64 / rows.len() as f64;
    (features_ns, predict_ns)
}

/// The bare open-loop generator (no monitor) on this workload's capture
/// at `speed`: its p99 lateness, ms.
fn generator_p99_ms(cap: &Arc<Capture>, speed: f64, budget: Duration) -> f64 {
    let mut source = input::pcap_source(cap, Stop::Passes(u64::MAX), PassMarks::default());
    let mut late = Vec::new();
    let start = Instant::now();
    let mut first = None;
    while start.elapsed() < budget {
        let Some(pkt) = source.next_packet().expect("in-memory pcap") else {
            break;
        };
        let ts = pkt.ts().as_micros();
        let first_ts = *first.get_or_insert(ts);
        let due = start + Duration::from_nanos(((ts - first_ts) as f64 * 1_000.0 / speed) as u64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        late.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
    }
    sys::percentile(&mut late, 99.0)
}

/// The traced run. Its time splits into an untraced end-to-end phase
/// (reference CPU cost, queue depth, event rate; 30%), the per-layer
/// replay with timed and untimed batches alternating (tracing overhead;
/// 50%), the caller-side monitor ingest (15%), and per-flow / per-window
/// micro-measurements.
pub fn run(
    w: &Workload,
    cap: &Arc<Capture>,
    forest: &RandomForest,
    seconds: Duration,
) -> (Metrics, u64, u64, Vec<String>) {
    let clock_ns = sys::clock_read_ns();
    let e2e_len = match w.drive {
        Drive::ClosedLoop => Length::Wall(seconds.mul_f64(0.3)),
        Drive::OpenLoop { speed } => Length::Passes(cap.passes_for(seconds.mul_f64(0.3), speed)),
    };
    let reference = e2e::run(cap, w.runner(forest), w.drive, e2e_len, e2e::Probe::Pending);
    let mut violations = reference.violations();
    let cpu_ns_per_pkt = reference.cpu_ns_per_pkt(cap.frames());

    let replay = Replay::run(w, cap, forest, seconds.mul_f64(0.5));
    let (seal_calls, seal_ns) = SEALS.get();
    let mut all = replay.timed;
    all.add(replay.untimed);
    if all.drops + all.datagrams != all.frames {
        violations.push(format!(
            "staged replay: {} drops + {} datagrams != {} frames",
            all.drops, all.datagrams, all.frames
        ));
    }
    if all.malformed != 0 {
        violations.push(format!(
            "staged replay: {} drops were not non-UDP frames",
            all.malformed
        ));
    }
    // Stage times cover the timed batches only; so do their counts.
    let (t, n) = (&replay.staged.t, &replay.timed);

    let ingest_ns = caller_ingest(w, cap, forest, seconds.mul_f64(0.15));
    let method = if w.ml {
        MODEL_METHOD
    } else {
        Method::RtpHeuristic
    };
    let model = w.ml.then_some(forest);
    let config = EngineConfig::paper(VcaKind::Teams);
    let payload_map = PayloadMap::lab(VcaKind::Teams);
    let build_ns = per_call(Duration::from_millis(100), 16, || {
        build_engine(method, config, payload_map, model)
    });
    let clone_ns = per_call(Duration::from_millis(100), 16, || forest.clone());
    let (features_ns, predict_ns) = window_costs(cap, forest);
    let late_p99_ms = match (&reference.late, w.drive) {
        (Some(late), _) => late.p99_ms(),
        (None, Drive::ClosedLoop) => generator_p99_ms(cap, LIVE_SPEED, Duration::from_millis(300)),
        (None, Drive::OpenLoop { .. }) => unreachable!("open-loop runs record lateness"),
    };

    let frames = n.frames as f64;
    let per_frame = |ns: u64| ns as f64 / frames;
    let per_event = |ns: u64| ns as f64 / n.events.max(1) as f64;
    // The engine stage ran the real table: its own cost is the null
    // table's, and the clock reads around window-crossing calls are ours.
    let engine_ns = t
        .engine
        .saturating_sub(t.table + seal_calls * clock_ns as u64);
    let plain_push = engine_ns.saturating_sub(seal_ns) as f64
        / (n.datagrams.saturating_sub(seal_calls)).max(1) as f64;
    let seal_per_window =
        (seal_ns as f64 - seal_calls as f64 * (clock_ns + plain_push)) / n.windows.max(1) as f64;
    let route = per_frame(t.route);
    let parse = per_frame(t.parse);
    let rtp = per_frame(t.rtp);
    let stage_sum = per_frame(t.source)
        + parse
        + route
        + if w.wants_rtp() { rtp } else { 0.0 }
        + per_frame(t.table)
        + per_frame(engine_ns)
        + per_frame(t.event)
        + per_frame(t.bus)
        + per_frame(t.json);
    let windows_per_frame = n.windows as f64 / frames;
    let overhead_pct = replay.overhead_pct();
    let offered = reference.offered.max(1) as f64;
    let s = &reference.report.stats;
    println!(
        "reference: {} frames in {:.3} s, {:.1} ns CPU per frame; staged: {} frames ({} datagrams, {} flows opened, {} evicted, {} windows, {} events) in {} timed batches ({:.3} s) and {} untimed ({:.3} s)",
        reference.offered,
        reference.wall.as_secs_f64(),
        cpu_ns_per_pkt,
        all.frames,
        all.datagrams,
        all.opened,
        all.evicted,
        all.windows,
        all.events,
        replay.timed.batches,
        replay.timed_wall.as_secs_f64(),
        replay.untimed.batches,
        replay.untimed_wall.as_secs_f64()
    );
    println!(
        "stage sum {stage_sum:.1} ns/frame vs untraced {cpu_ns_per_pkt:.1} ns/frame CPU: residual {:.1} ns/frame; tracing overhead {overhead_pct:.2}%; clock read {clock_ns:.1} ns; rtp attempt {} in the sum",
        cpu_ns_per_pkt - stage_sum,
        if w.wants_rtp() { "counted" } else { "not counted (bypassed)" }
    );
    let metrics = vec![
        ("source.ns_per_pkt", per_frame(t.source), "ns"),
        ("netpkt.parse_ns_per_pkt", parse, "ns"),
        (
            "netpkt.drop_ratio",
            all.drops as f64 / all.frames as f64,
            "ratio",
        ),
        ("rtp.attempt_ns_per_pkt", rtp, "ns"),
        (
            "rtp.ok_ratio",
            all.rtp_ok as f64 / all.datagrams.max(1) as f64,
            "ratio",
        ),
        ("api.route_ns_per_pkt", route, "ns"),
        ("api.ingest_ns_per_pkt", ingest_ns, "ns"),
        (
            "api.handoff_wait_ns_per_pkt",
            ingest_ns - parse - route,
            "ns",
        ),
        ("engine.table_ns_per_pkt", per_frame(t.table), "ns"),
        ("engine.push_ns_per_pkt", per_frame(engine_ns), "ns"),
        ("engine.seal_ns_per_window", seal_per_window, "ns"),
        ("engine.build_us_per_flow", build_ns / 1e3, "us"),
        ("mlcore.clone_us_per_flow", clone_ns / 1e3, "us"),
        (
            "engine.flows_opened",
            s.flows_opened as f64 / offered * 1e6,
            "1/Mpkt",
        ),
        (
            "engine.flows_evicted",
            s.flows_evicted as f64 / offered * 1e6,
            "1/Mpkt",
        ),
        (
            "engine.state_bytes_per_flow",
            mean(&replay.staged.state_bytes),
            "bytes",
        ),
        ("features.ipudp_ns_per_window", features_ns, "ns"),
        ("mlcore.predict_ns_per_window", predict_ns, "ns"),
        (
            "mlcore.window_share_pct",
            (features_ns + predict_ns) * windows_per_frame / cpu_ns_per_pkt * 100.0,
            "%",
        ),
        ("api.event_ns_per_event", per_event(t.event), "ns"),
        (
            "backpressure.pending_max",
            reference.pending_max as f64,
            "count",
        ),
        (
            "bus.events_per_kpkt",
            reference.report.events as f64 / offered * 1e3,
            "1/kpkt",
        ),
        ("bus.publish_ns_per_event", per_event(t.bus), "ns"),
        ("sink.json_ns_per_event", per_event(t.json), "ns"),
        (
            "sink.bytes_per_event",
            replay
                .staged
                .json_bytes
                .0
                .load(std::sync::atomic::Ordering::Relaxed) as f64
                / all.events.max(1) as f64,
            "bytes",
        ),
        ("source.late_p99_ms", late_p99_ms, "ms"),
        ("trace.clock_ns_per_read", clock_ns, "ns"),
        ("trace.stage_sum_ns_per_pkt", stage_sum, "ns"),
        ("trace.cpu_ns_per_pkt", cpu_ns_per_pkt, "ns"),
        (
            "trace.residual_ns_per_pkt",
            cpu_ns_per_pkt - stage_sum,
            "ns",
        ),
        ("trace.overhead_pct", overhead_pct, "%"),
    ];
    let failed = reference.failed();
    (metrics, reference.offered, failed, violations)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
