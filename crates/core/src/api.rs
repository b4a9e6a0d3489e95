//! The public monitoring facade: raw packets in, typed QoE events out.
//!
//! This module is the stable contract of the crate. A [`MonitorBuilder`]
//! turns typed configuration — estimation method (with RTP-confidence
//! fallback), window length, engine configuration ([`EngineConfig`],
//! which carries the `StatsMode`), idle-eviction policy, optional
//! max-lag flush — into a [`Monitor`] that owns the flow demultiplexer and
//! per-flow engines internally. Ingestion accepts raw link-layer bytes,
//! raw IP bytes, decoded [`CapturedPacket`]s, or pre-parsed
//! [`TracePacket`]s (for simulated feeds), performing the layered
//! eth→ip→udp parse and the RTP parse-attempt itself; callers never touch
//! `netpkt` internals. Output is a stream of [`QoeEvent`]s — window
//! reports, flow lifecycle, classified parse drops — drained as an
//! iterator (or published to subscribers by
//! [`MonitorRunner`](crate::runner::MonitorRunner)), and serializable as
//! JSON lines for dashboards and log shippers.
//!
//! The monitor scales across cores: [`MonitorBuilder::threads`] pins
//! flow-table shards to dedicated worker threads — each packet is hashed
//! by flow to one worker over a bounded channel, each worker runs its
//! flows' engines, windowing, and eviction independently, and the merged
//! event stream preserves per-flow ordering with window-exact parity
//! against the sequential monitor (a tested invariant). The outgoing
//! event queue is bounded ([`MonitorBuilder::queue_capacity`]) with an
//! explicit [`OverflowPolicy`]: `Block` for end-to-end backpressure,
//! `DropOldest` for bounded memory with exact loss accounting via
//! [`QoeEvent::Dropped`] markers.
//!
//! The raw engines and `FlowTable` in [`crate::engine`] remain public for
//! parity tests and benchmarks but are documented-unstable; everything
//! else should come through here.
//!
//! ```
//! use vcaml::api::{EstimationMethod, MonitorBuilder, QoeEvent};
//! use vcaml::{Method, TracePacket};
//! use vcaml_netpkt::{FlowKey, Timestamp};
//! use vcaml_rtp::VcaKind;
//!
//! let mut monitor = MonitorBuilder::new(VcaKind::Teams)
//!     .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
//!     .build();
//! let (flow, _) = FlowKey::canonical(
//!     "10.0.0.1".parse().unwrap(), 50_000,
//!     "203.0.113.1".parse().unwrap(), 3_478, 17);
//! // 3 seconds of 30 fps video, two ~1.1 kB packets per frame.
//! for f in 0..90i64 {
//!     for i in 0..2i64 {
//!         monitor.ingest_packet(flow, TracePacket {
//!             ts: Timestamp::from_micros(f * 33_333 + i * 300),
//!             size: 1_100 + (f % 7) as u16,
//!             rtp: None,
//!             truth_media: None,
//!         });
//!     }
//! }
//! let events: Vec<QoeEvent> = monitor.finish();
//! assert!(events.iter().any(|e| matches!(e, QoeEvent::FlowOpened { .. })));
//! // Mid-stream windows arrive as WindowReport events; the sealed tail
//! // rides on the end-of-stream FlowEvicted event.
//! let windows: usize = events.iter().map(|e| match e {
//!     QoeEvent::WindowReport { .. } => 1,
//!     QoeEvent::FlowEvicted { final_reports, .. } => final_reports.len(),
//!     _ => 0,
//! }).sum();
//! assert_eq!(windows, 3, "one report per elapsed second");
//! ```

use crate::backpressure::EventQueue;
pub use crate::backpressure::OverflowPolicy;
use crate::control::{ControlShared, MonitorHandle};
use crate::engine::{EngineConfig, FlowTable, QoeEstimator, WindowReport};
use crate::engine::{IpUdpHeuristicEngine, IpUdpMlEngine, RtpHeuristicEngine, RtpMlEngine};
use crate::pipeline::Method;
use crate::source::SourcePacket;
use crate::trace::TracePacket;
use serde::{Map, Serialize, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use vcaml_mlcore::RandomForest;
use vcaml_netpkt::pcap::PcapRecord;
use vcaml_netpkt::{CapturedPacket, Error as NetError, FlowKey, LinkType, Timestamp, UdpDatagram};
use vcaml_rtp::{PayloadMap, RtpHeader, VcaKind};

/// A per-flow estimator behind the facade. `Send` so a threaded monitor
/// can run engines on its shard workers.
pub type BoxedEngine = Box<dyn QoeEstimator + Send>;

/// Packets buffered per flow before the RTP-confidence decision is made
/// (auto method selection only).
pub const RTP_PROBATION_PACKETS: usize = 16;

/// Fraction of probation packets that must parse as RTP for a flow to be
/// assigned the RTP variant of an auto method. A majority suffices:
/// real sessions lead with STUN/DTLS handshake packets that are not RTP,
/// and the IP/UDP fallback is always sound, so the preference only needs
/// media to be genuinely visible.
pub const RTP_CONFIDENCE: f64 = 0.5;

/// Packets between RTP-confidence re-probes on a flow that auto method
/// selection resolved to its IP/UDP fallback. A flow that led with a
/// non-RTP handshake (STUN/DTLS) and only then started media gets its
/// RTP engine after at most this many post-probation packets instead of
/// keeping the fallback forever.
pub const RTP_REPROBE_PACKETS: u32 = 256;

/// Flow-table sub-shards per monitor: all of them inline, or an equal
/// share (at least one) per shard worker.
const TABLE_SHARDS: usize = 8;

/// How often (in stream time) the monitor sweeps for idle flows.
const EVICT_CHECK_US: i64 = 1_000_000;

/// Default bound on the outgoing event queue (see
/// [`MonitorBuilder::queue_capacity`]).
pub const DEFAULT_QUEUE_CAPACITY: usize = 65_536;

/// Packets accumulated per shard before a batch is sent to its worker
/// (threaded monitors only). Batching amortizes the channel hand-off —
/// the dominant dispatch cost, so it is sized generously;
/// [`Monitor::drain_events`] and [`Monitor::finish`] flush partial
/// batches, so no packet waits forever.
const INGEST_BATCH: usize = 512;

/// How a [`Monitor`] picks the estimation method for each flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimationMethod {
    /// Every flow gets the named method.
    Fixed(Method),
    /// RTP Heuristic for flows whose early packets parse as RTP with
    /// confidence (a monitor inside the application's trust boundary),
    /// IP/UDP Heuristic otherwise.
    AutoHeuristic,
    /// RTP ML when RTP parses with confidence, IP/UDP ML otherwise.
    AutoMl,
}

impl EstimationMethod {
    /// Whether per-flow probation is needed before the method is known.
    fn is_auto(&self) -> bool {
        !matches!(self, EstimationMethod::Fixed(_))
    }

    /// The method used when RTP cannot be parsed confidently (and the
    /// factory default for fixed selection).
    fn fallback(&self) -> Method {
        match self {
            EstimationMethod::Fixed(m) => *m,
            EstimationMethod::AutoHeuristic => Method::IpUdpHeuristic,
            EstimationMethod::AutoMl => Method::IpUdpMl,
        }
    }

    /// The method used when RTP parses with confidence.
    fn preferred(&self) -> Method {
        match self {
            EstimationMethod::Fixed(m) => *m,
            EstimationMethod::AutoHeuristic => Method::RtpHeuristic,
            EstimationMethod::AutoMl => Method::RtpMl,
        }
    }
}

/// Why a raw packet was not ingested. Every packet offered to a
/// [`Monitor`] is either routed to a flow or accounted for with one of
/// these in a [`QoeEvent::ParseDrop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseDropReason {
    /// The buffer ended before a protocol header did.
    Truncated {
        /// Protocol layer that ran out of bytes.
        layer: &'static str,
    },
    /// A header field violated the codec's constraints (bad IHL, bad
    /// version, length mismatch, unsupported fragmentation, ...).
    Malformed {
        /// Protocol layer that failed to decode.
        layer: &'static str,
        /// The violated constraint.
        what: &'static str,
    },
    /// A header checksum did not verify.
    Checksum {
        /// Protocol layer whose checksum failed.
        layer: &'static str,
    },
    /// Well-formed, but not a UDP packet (ARP, TCP, ICMP, non-IP
    /// ethertype) — VCA media is UDP, so the monitor skips it.
    NotUdp,
    /// Capture timestamp before the epoch; outside every window.
    NegativeTimestamp,
}

impl ParseDropReason {
    /// Short machine-readable tag used in JSON output.
    pub fn tag(&self) -> &'static str {
        match self {
            ParseDropReason::Truncated { .. } => "truncated",
            ParseDropReason::Malformed { .. } => "malformed",
            ParseDropReason::Checksum { .. } => "checksum",
            ParseDropReason::NotUdp => "not_udp",
            ParseDropReason::NegativeTimestamp => "negative_timestamp",
        }
    }
}

impl From<&NetError> for ParseDropReason {
    fn from(e: &NetError) -> Self {
        match *e {
            NetError::Truncated { layer, .. } => ParseDropReason::Truncated { layer },
            NetError::Malformed { layer, what } => ParseDropReason::Malformed { layer, what },
            NetError::Checksum { layer } => ParseDropReason::Checksum { layer },
            // Unreachable from in-memory parsing; classified for totality.
            NetError::BadMagic(_) => ParseDropReason::Malformed {
                layer: "pcap",
                what: "bad magic",
            },
            NetError::Io(_) => ParseDropReason::Malformed {
                layer: "io",
                what: "read error",
            },
        }
    }
}

/// Why a flow left the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// No packet for longer than the idle timeout.
    Idle,
    /// [`Monitor::finish`] sealed every remaining flow.
    EndOfStream,
    /// An operator asked for the flow via
    /// [`MonitorHandle::evict_flow`](crate::control::MonitorHandle::evict_flow).
    Requested,
}

/// Deep copies of [`QoeEvent`] made over the process lifetime — the
/// enforcement hook for the event bus's zero-copy contract.
///
/// Events travel the whole delivery path (collector queue → runner →
/// every subscriber) as shared [`Arc<QoeEvent>`]s, so the per-event
/// fan-out never clones; this counter proves it. Consumers that take
/// owned copies for themselves (an example stashing events, a test
/// comparing streams) do count — the counter measures clones, not
/// blame.
static QOE_EVENT_CLONES: AtomicU64 = AtomicU64::new(0);

/// Total deep copies of [`QoeEvent`] made by this process so far. The
/// delivery path performs none (a tested invariant); consumers taking
/// owned copies for themselves do count — the counter measures clones,
/// not blame.
pub fn qoe_event_clone_count() -> u64 {
    QOE_EVENT_CLONES.load(Relaxed)
}

/// One event from the monitor's structured output stream.
#[derive(Debug)]
pub enum QoeEvent {
    /// First packet of a new flow was seen.
    FlowOpened {
        /// The flow's canonical 5-tuple.
        flow: FlowKey,
        /// Capture time of the first packet.
        ts: Timestamp,
    },
    /// A prediction window was emitted for a flow.
    WindowReport {
        /// The flow the window belongs to.
        flow: FlowKey,
        /// The window's metrics (estimate or feature vector, per method).
        report: WindowReport,
        /// True for max-lag flush snapshots: the metrics are lower bounds
        /// that a later final report for the same window supersedes.
        provisional: bool,
    },
    /// A flow was sealed; its remaining windows ride along so the tail of
    /// every call is observable even if the caller never polls.
    FlowEvicted {
        /// The flow's canonical 5-tuple.
        flow: FlowKey,
        /// Idle timeout or end of stream.
        reason: EvictReason,
        /// The flow's final windows, flushed by sealing.
        final_reports: Vec<WindowReport>,
    },
    /// A packet could not be ingested; the reason classifies the drop.
    ParseDrop {
        /// Capture time of the dropped packet.
        ts: Timestamp,
        /// Why it was dropped.
        reason: ParseDropReason,
    },
    /// Events were discarded because the bounded event queue overflowed
    /// under [`OverflowPolicy::DropOldest`]. The marker leads the next
    /// drained batch: everything it counts was older than the events
    /// that follow it, and `count` is exact.
    Dropped {
        /// How many events were discarded since the last drain.
        count: u64,
        /// Flow-attributed breakdown of `count`, sorted by flow —
        /// dashboards can show *which* flows lost freshness. Events with
        /// no flow (parse drops) are in `count` but not listed here, and
        /// attribution is bounded (4096 flows per interval) so `count`
        /// can exceed the breakdown's sum under extreme flow churn.
        per_flow: Vec<(FlowKey, u64)>,
    },
}

impl Clone for QoeEvent {
    /// A counted deep copy (see [`qoe_event_clone_count`]): the event
    /// bus never calls this on a delivery path — shared events clone the
    /// `Arc`, not the payload.
    fn clone(&self) -> Self {
        QOE_EVENT_CLONES.fetch_add(1, Relaxed);
        match self {
            QoeEvent::FlowOpened { flow, ts } => QoeEvent::FlowOpened {
                flow: *flow,
                ts: *ts,
            },
            QoeEvent::WindowReport {
                flow,
                report,
                provisional,
            } => QoeEvent::WindowReport {
                flow: *flow,
                report: report.clone(),
                provisional: *provisional,
            },
            QoeEvent::FlowEvicted {
                flow,
                reason,
                final_reports,
            } => QoeEvent::FlowEvicted {
                flow: *flow,
                reason: *reason,
                final_reports: final_reports.clone(),
            },
            QoeEvent::ParseDrop { ts, reason } => QoeEvent::ParseDrop {
                ts: *ts,
                reason: *reason,
            },
            QoeEvent::Dropped { count, per_flow } => QoeEvent::Dropped {
                count: *count,
                per_flow: per_flow.clone(),
            },
        }
    }
}

impl QoeEvent {
    /// Machine-readable event tag (the `type` field of the JSON form).
    pub fn tag(&self) -> &'static str {
        match self {
            QoeEvent::FlowOpened { .. } => "flow_opened",
            QoeEvent::WindowReport { .. } => "window_report",
            QoeEvent::FlowEvicted { .. } => "flow_evicted",
            QoeEvent::ParseDrop { .. } => "parse_drop",
            QoeEvent::Dropped { .. } => "dropped",
        }
    }

    /// One compact JSON object per event — the JSON-lines form consumed
    /// by dashboards and log shippers.
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("event serialization is infallible") // lint: allow(no-unwrap-in-lib) -- serializing an in-memory event via the serde shim cannot fail
    }

    /// The flow this event belongs to (`None` for [`QoeEvent::ParseDrop`],
    /// which happens before flow attribution, and [`QoeEvent::Dropped`],
    /// which aggregates across flows).
    pub fn flow(&self) -> Option<FlowKey> {
        match self {
            QoeEvent::FlowOpened { flow, .. }
            | QoeEvent::WindowReport { flow, .. }
            | QoeEvent::FlowEvicted { flow, .. } => Some(*flow),
            QoeEvent::ParseDrop { .. } | QoeEvent::Dropped { .. } => None,
        }
    }

    /// The *finalized* window reports this event carries: the single
    /// report of a non-provisional [`QoeEvent::WindowReport`], or an
    /// eviction's sealed tail. Empty for everything else (including
    /// provisional max-lag snapshots, which a later final report
    /// supersedes) — so summing this across a monitor's whole event
    /// stream yields each flow's windows exactly once.
    pub fn final_reports(&self) -> &[WindowReport] {
        match self {
            QoeEvent::WindowReport {
                report,
                provisional: false,
                ..
            } => std::slice::from_ref(report),
            QoeEvent::FlowEvicted { final_reports, .. } => final_reports,
            QoeEvent::WindowReport { .. }
            | QoeEvent::FlowOpened { .. }
            | QoeEvent::ParseDrop { .. }
            | QoeEvent::Dropped { .. } => &[],
        }
    }
}

impl Serialize for QoeEvent {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("type".into(), Value::String(self.tag().into()));
        match self {
            QoeEvent::FlowOpened { flow, ts } => {
                m.insert("flow".into(), Value::String(flow.to_string()));
                m.insert("ts_us".into(), ts.as_micros().to_value());
            }
            QoeEvent::WindowReport {
                flow,
                report,
                provisional,
            } => {
                m.insert("flow".into(), Value::String(flow.to_string()));
                m.insert("provisional".into(), Value::Bool(*provisional));
                m.insert("report".into(), report.to_value());
            }
            QoeEvent::FlowEvicted {
                flow,
                reason,
                final_reports,
            } => {
                m.insert("flow".into(), Value::String(flow.to_string()));
                m.insert(
                    "reason".into(),
                    Value::String(
                        match reason {
                            EvictReason::Idle => "idle",
                            EvictReason::EndOfStream => "end_of_stream",
                            EvictReason::Requested => "requested",
                        }
                        .into(),
                    ),
                );
                m.insert("final_reports".into(), final_reports.to_value());
            }
            QoeEvent::ParseDrop { ts, reason } => {
                m.insert("ts_us".into(), ts.as_micros().to_value());
                m.insert("reason".into(), Value::String(reason.tag().into()));
                match reason {
                    ParseDropReason::Truncated { layer } | ParseDropReason::Checksum { layer } => {
                        m.insert("layer".into(), Value::String((*layer).into()));
                    }
                    ParseDropReason::Malformed { layer, what } => {
                        m.insert("layer".into(), Value::String((*layer).into()));
                        m.insert("what".into(), Value::String((*what).into()));
                    }
                    _ => {}
                }
            }
            QoeEvent::Dropped { count, per_flow } => {
                m.insert("count".into(), count.to_value());
                if !per_flow.is_empty() {
                    let mut flows = Map::new();
                    for (flow, n) in per_flow {
                        flows.insert(flow.to_string(), n.to_value());
                    }
                    m.insert("per_flow".into(), Value::Object(flows));
                }
            }
        }
        Value::Object(m)
    }
}

/// Running counters over everything a [`Monitor`] has seen.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MonitorStats {
    /// Packets routed to a flow engine.
    pub packets: u64,
    /// Packets dropped at parse time (see [`QoeEvent::ParseDrop`]).
    pub parse_drops: u64,
    /// Flows opened.
    pub flows_opened: u64,
    /// Flows evicted (idle or end of stream).
    pub flows_evicted: u64,
    /// Final window reports emitted.
    pub window_reports: u64,
    /// Provisional (max-lag flush or method-upgrade boundary) reports
    /// emitted.
    pub provisional_reports: u64,
    /// Events discarded by the bounded event queue
    /// ([`OverflowPolicy::DropOldest`] only).
    pub events_dropped: u64,
    /// Flow-attributed breakdown of `events_dropped`, sorted by flow.
    /// Events with no flow (parse drops) are counted in `events_dropped`
    /// but not listed here, and attribution is bounded (4096 flows over
    /// the monitor's lifetime) so long-running monitors with endless
    /// flow churn keep O(1) accounting state.
    pub dropped_by_flow: Vec<(FlowKey, u64)>,
}

/// Shared, thread-safe counter cells behind [`MonitorStats`]: shard
/// workers bump them from their own threads, the monitor snapshots them
/// on [`Monitor::stats`]. On a threaded monitor the snapshot is
/// eventually consistent — packets still queued on a shard channel are
/// not yet counted.
#[derive(Debug, Default)]
pub(crate) struct StatsCells {
    packets: AtomicU64,
    parse_drops: AtomicU64,
    flows_opened: AtomicU64,
    flows_evicted: AtomicU64,
    window_reports: AtomicU64,
    provisional_reports: AtomicU64,
}

impl StatsCells {
    pub(crate) fn snapshot(
        &self,
        events_dropped: u64,
        dropped_by_flow: Vec<(FlowKey, u64)>,
    ) -> MonitorStats {
        MonitorStats {
            packets: self.packets.load(Relaxed),
            parse_drops: self.parse_drops.load(Relaxed),
            flows_opened: self.flows_opened.load(Relaxed),
            flows_evicted: self.flows_evicted.load(Relaxed),
            window_reports: self.window_reports.load(Relaxed),
            provisional_reports: self.provisional_reports.load(Relaxed),
            events_dropped,
            dropped_by_flow,
        }
    }
}

/// Typed configuration for a [`Monitor`].
///
/// Construct with [`MonitorBuilder::new`], chain the knobs you care
/// about, and [`MonitorBuilder::build`]. Every knob has a paper-faithful
/// default for the chosen VCA.
pub struct MonitorBuilder {
    vca: VcaKind,
    method: EstimationMethod,
    config: EngineConfig,
    payload_map: PayloadMap,
    model: Option<RandomForest>,
    threads: usize,
    queue_capacity: usize,
    overflow: OverflowPolicy,
    idle_timeout: Timestamp,
    flush_after: Option<u32>,
}

impl MonitorBuilder {
    /// Starts from the paper's configuration for a VCA: auto method
    /// selection (RTP when it parses, IP/UDP otherwise), exact statistics,
    /// 1-second windows, 8 shards on one thread, a
    /// [`DEFAULT_QUEUE_CAPACITY`]-event queue with [`OverflowPolicy::Block`],
    /// 60-second idle eviction, no max-lag flush.
    pub fn new(vca: VcaKind) -> Self {
        MonitorBuilder {
            vca,
            method: EstimationMethod::AutoHeuristic,
            config: EngineConfig::paper(vca),
            payload_map: PayloadMap::lab(vca),
            model: None,
            threads: 1,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            overflow: OverflowPolicy::Block,
            idle_timeout: Timestamp::from_secs(60),
            flush_after: None,
        }
    }

    /// Selects the estimation method (fixed, or RTP-confidence auto).
    pub fn method(mut self, method: EstimationMethod) -> Self {
        self.method = method;
        self
    }

    /// Prediction window length in seconds (default 1).
    pub fn window_secs(mut self, secs: u32) -> Self {
        assert!(secs > 0, "zero window");
        self.config.window_secs = secs;
        self
    }

    /// Replaces the full engine configuration (power users; the other
    /// knobs are views onto it).
    pub fn engine_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Payload-type → media mapping for the RTP methods (default: the
    /// lab mapping of the chosen VCA).
    pub fn payload_map(mut self, map: PayloadMap) -> Self {
        self.payload_map = map;
        self
    }

    /// Attaches a trained frame-rate model; ML engines include its
    /// prediction in every report.
    ///
    /// The model is shared read-only by every shard and every flow: a
    /// monitor holds one copy of the forest, not one per flow (cloning a
    /// [`RandomForest`] only bumps a reference count). Per-flow state
    /// accounting ([`FlowTable::state_bytes`]) therefore excludes it by
    /// design.
    ///
    /// An engine attaches the model only when the model's feature width
    /// ([`RandomForest::n_features`]) matches its own feature vector:
    /// under [`EstimationMethod::AutoMl`] an IP/UDP model predicts on
    /// `IpUdpMl` flows while `RtpMl` flows report `model_fps: None`, and
    /// vice versa.
    pub fn model(mut self, model: RandomForest) -> Self {
        self.model = Some(model);
        self
    }

    /// Number of shard worker threads (default 1 = fully inline, no
    /// threads spawned). With `n ≥ 2` the monitor hashes each packet's
    /// flow to one of `n` dedicated shard workers over a bounded channel;
    /// each worker runs its flows' engines, windowing, probation, and
    /// idle eviction independently, and the merged event stream preserves
    /// per-flow ordering (a flow lives on exactly one worker).
    ///
    /// `n == 0` means *auto*: size the workers from
    /// [`std::thread::available_parallelism`] at [`MonitorBuilder::build`]
    /// time (1 worker per core, inline when only one core is visible).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Bound on the outgoing event queue, in events (default
    /// [`DEFAULT_QUEUE_CAPACITY`]). Also sizes the per-worker ingest
    /// channels of a threaded monitor, so one knob controls end-to-end
    /// buffering. What happens at the bound is the
    /// [`MonitorBuilder::overflow`] policy.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        assert!(n >= 1, "zero queue capacity");
        self.queue_capacity = n;
        self
    }

    /// Overflow policy of the bounded event queue (default
    /// [`OverflowPolicy::Block`]): block producers until the consumer
    /// drains, or drop the oldest events and account for them with a
    /// [`QoeEvent::Dropped`] marker.
    pub fn overflow(mut self, policy: OverflowPolicy) -> Self {
        self.overflow = policy;
        self
    }

    /// Evicts flows with no packet for this long, sealing their final
    /// windows into a [`QoeEvent::FlowEvicted`] (default 60 s).
    pub fn idle_timeout(mut self, timeout: Timestamp) -> Self {
        assert!(timeout.as_micros() > 0, "non-positive idle timeout");
        self.idle_timeout = timeout;
        self
    }

    /// Max-lag flush: after `k` packets on a flow without a finalized
    /// window, emit provisional snapshots of its pending windows (marked
    /// `provisional`; a later final report supersedes them). Default off —
    /// exactness-first consumers see only final windows.
    pub fn flush_after_packets(mut self, k: u32) -> Self {
        assert!(k > 0, "zero flush threshold");
        self.flush_after = Some(k);
        self
    }

    /// Constructs the monitor, spawning its shard workers when
    /// [`MonitorBuilder::threads`] resolves to ≥ 2 (`threads(0)` sizes
    /// them from [`std::thread::available_parallelism`]).
    pub fn build(self) -> Monitor {
        let threads = match self.threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        };
        let inline = threads == 1;
        let wants_rtp = self.method.is_auto()
            || matches!(
                self.method,
                EstimationMethod::Fixed(Method::RtpHeuristic | Method::RtpMl)
            );
        let stats = Arc::new(StatsCells::default());
        // One bounded channel per shard worker; they share the event
        // queue's capacity knob (counted in batches) so one bound governs
        // the pipeline.
        let channel_batches = (self.queue_capacity / INGEST_BATCH).max(1);
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..if inline { 0 } else { threads })
            .map(|_| sync_channel::<ShardMsg>(channel_batches))
            .unzip();
        let control = Arc::new(ControlShared::new(senders.clone()));
        // A single-threaded monitor must never park on its own queue
        // (the producer is the consumer), so Block only waits when shard
        // workers exist.
        let queue = Arc::new(EventQueue::new(self.queue_capacity, self.overflow, !inline));
        let shard_state = |n_shards: usize, worker: usize| ShardState {
            worker,
            method: self.method,
            config: self.config,
            payload_map: self.payload_map,
            model: self.model.clone(),
            idle_timeout_us: self.idle_timeout.as_micros(),
            flush_after: self.flush_after,
            window_us: i64::from(self.config.window_secs) * 1_000_000,
            // The facade always inserts engines explicitly (method
            // selection can depend on probation evidence, not just the
            // key), so the table's first-sight factory must never fire.
            table: FlowTable::new(n_shards, self.idle_timeout, |_: &FlowKey| {
                unreachable!("the facade inserts engines explicitly")
            }),
            pending: HashMap::new(),
            now: None,
            behind_streak: 0,
            last_evict_us: i64::MIN,
            stats: Arc::clone(&stats),
            control: Arc::clone(&control),
            out: Vec::new(),
            reports: Vec::new(),
            snapshots: Vec::new(),
        };
        let dispatch = if inline {
            Dispatch::Inline(Box::new(shard_state(TABLE_SHARDS, 0)))
        } else {
            let inner_shards = (TABLE_SHARDS / threads).max(1);
            let handles = receivers
                .into_iter()
                .enumerate()
                .map(|(worker, rx)| {
                    let state = shard_state(inner_shards, worker);
                    let queue = Arc::clone(&queue);
                    std::thread::Builder::new()
                        .name(format!("vcaml-shard-{worker}"))
                        .spawn(move || worker_loop(state, rx, &queue))
                        .expect("spawn shard worker") // lint: allow(no-unwrap-in-lib) -- spawn fails only on OS thread exhaustion; no recovery at this layer
                })
                .collect();
            let router = IngestRouter {
                wants_rtp,
                stats: Arc::clone(&stats),
                control: Arc::clone(&control),
                queue: Arc::clone(&queue),
                batches: senders.iter().map(|_| Vec::new()).collect(),
                senders,
                drops: Vec::new(),
                // This router's caller also drains the queue, so under
                // Block it stages events rather than wait on a worker
                // parked on that queue (see `IngestRouter::send`).
                stage_on_full: self.overflow == OverflowPolicy::Block,
                staged: Vec::new(),
            };
            Dispatch::Threaded { router, handles }
        };
        Monitor {
            wants_rtp,
            method: self.method,
            vca: self.vca,
            stats,
            queue,
            control,
            dispatch,
        }
    }
}

impl std::fmt::Debug for MonitorBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorBuilder")
            .field("vca", &self.vca)
            .field("method", &self.method)
            .field("window_secs", &self.config.window_secs)
            .field("threads", &self.threads)
            .field("queue_capacity", &self.queue_capacity)
            .field("overflow", &self.overflow)
            .field("idle_timeout_us", &self.idle_timeout.as_micros())
            .field("flush_after", &self.flush_after)
            .finish_non_exhaustive()
    }
}

/// Takes an event out of its delivery `Arc`. On the `Monitor`-owned
/// drain paths the monitor holds the only reference, so this is a move,
/// not a copy; the clone fallback only runs when a caller has stashed
/// another handle to the same event (their copy, their cost).
fn unshare(event: Arc<QoeEvent>) -> QoeEvent {
    Arc::try_unwrap(event).unwrap_or_else(|shared| (*shared).clone())
}

/// Builds one per-flow engine for a resolved method — the single
/// construction point for the raw engines (the batch pipeline and the
/// monitor both come through here).
pub fn build_engine(
    method: Method,
    config: EngineConfig,
    payload_map: PayloadMap,
    model: Option<&RandomForest>,
) -> BoxedEngine {
    match method {
        Method::IpUdpHeuristic => Box::new(IpUdpHeuristicEngine::new(config)),
        Method::RtpHeuristic => Box::new(RtpHeuristicEngine::new(config, payload_map)),
        Method::IpUdpMl => {
            let engine = IpUdpMlEngine::new(config);
            Box::new(match model {
                Some(m) => engine.with_model(m.clone()),
                None => engine,
            })
        }
        Method::RtpMl => {
            let engine = RtpMlEngine::new(config, payload_map);
            Box::new(match model {
                Some(m) => engine.with_model(m.clone()),
                None => engine,
            })
        }
    }
}

/// A flow's engine plus the facade's per-flow bookkeeping, stored
/// together in the flow table's entry slab — the steady-state per-packet
/// path pays exactly one hash and one probe, with no side map to rehash
/// the key into.
struct TrackedEngine {
    engine: BoxedEngine,
    /// Packets pushed since the last finalized window (max-lag flush).
    since_report: u32,
    /// Post-probation RTP re-probe counters: `Some` only for auto-method
    /// flows that resolved to the IP/UDP fallback, which keep watching
    /// for late-blooming RTP (see [`RTP_REPROBE_PACKETS`]).
    reprobe: Option<Reprobe>,
}

impl TrackedEngine {
    fn new(engine: BoxedEngine) -> Self {
        TrackedEngine {
            engine,
            since_report: 0,
            reprobe: None,
        }
    }
}

/// Forwarding impl so the flow table can seal, flush, and account a
/// tracked entry exactly like a bare engine.
impl QoeEstimator for TrackedEngine {
    fn method(&self) -> Method {
        self.engine.method()
    }

    fn push_into(&mut self, pkt: &TracePacket, out: &mut Vec<WindowReport>) {
        self.engine.push_into(pkt, out);
    }

    fn finish_into(&mut self, out: &mut Vec<WindowReport>) {
        self.engine.finish_into(out);
    }

    fn empty_report(&self, window: u64) -> WindowReport {
        self.engine.empty_report(window)
    }

    fn provisional_into(&self, out: &mut Vec<WindowReport>) {
        self.engine.provisional_into(out);
    }

    fn state_bytes(&self) -> usize {
        // The entry slab already accounts for this struct's inline size.
        self.engine.state_bytes()
    }
}

/// Rolling RTP-confidence evidence over the current re-probe interval.
#[derive(Default)]
struct Reprobe {
    /// Packets seen this interval.
    seen: u32,
    /// Of those, how many parsed as RTP.
    rtp_ok: u32,
}

/// A flow still in RTP-confidence probation: packets buffered until the
/// method decision.
struct PendingFlow {
    packets: Vec<TracePacket>,
    rtp_ok: usize,
    last_seen: Timestamp,
}

impl PendingFlow {
    fn confident_rtp(&self) -> bool {
        !self.packets.is_empty() && self.rtp_ok as f64 / self.packets.len() as f64 >= RTP_CONFIDENCE
    }
}

/// One packet routed to a shard worker, carrying the
/// [`FlowKey::hash64`] the router already computed — workers reuse it
/// for the table probe, so a key is hashed exactly once per packet.
type RoutedPacket = (u64, FlowKey, TracePacket);

/// One message on a shard worker's bounded ingest channel. The channel
/// disconnecting (every router and control waker dropped) is the end of
/// stream: the worker seals every flow and exits.
pub(crate) enum ShardMsg {
    /// Packets for this worker's flows, in arrival order.
    Batch(Vec<RoutedPacket>),
    /// Wake-up for an idle worker: its control mailbox has a request.
    Control,
}

/// How packets reach the per-flow engines: on the caller's thread, or
/// hashed across dedicated shard workers.
enum Dispatch {
    /// `threads == 1`: one shard state driven inline — no threads, no
    /// channels, identical to the pre-parallel monitor.
    Inline(Box<ShardState>),
    /// `threads ≥ 2`: the monitor's own ingest router plus the workers
    /// it feeds.
    Threaded {
        router: IngestRouter,
        handles: Vec<JoinHandle<()>>,
    },
    /// Placeholder after [`Monitor::finish`] has taken the dispatch
    /// state (so the monitor's `Drop` has nothing left to reap).
    Done,
}

/// A shard worker's main loop: ingest batches until every sender is
/// gone, applying the shard's control mailbox after every message (a
/// batch, or the wake-up an idle shard gets when a request is posted),
/// then seal every flow and deliver the tail.
fn worker_loop(mut state: ShardState, rx: Receiver<ShardMsg>, queue: &EventQueue) {
    while let Ok(msg) = rx.recv() {
        if let ShardMsg::Batch(batch) = msg {
            let n = batch.len() as u64;
            state.ingest_batch(batch);
            state.control.depth_sub(state.worker, n);
        }
        state.apply_control();
        queue.push_batch(state.take_events());
    }
    state.finish();
    queue.push_batch(state.take_events());
}

/// A passive QoE monitor: feed it raw packets, read typed [`QoeEvent`]s.
///
/// Owns the sharded flow table and one estimation engine per active flow;
/// flows idle past the configured timeout are evicted with their final
/// windows attached to the eviction event, so no tail report is ever
/// silently lost. With [`MonitorBuilder::threads`] ≥ 2 the flow table is
/// partitioned across dedicated worker threads behind bounded channels,
/// and the event stream is bounded by
/// [`MonitorBuilder::queue_capacity`] under an explicit
/// [`OverflowPolicy`]. See [`MonitorBuilder`] for configuration and the
/// [module docs](self) for a runnable example.
pub struct Monitor {
    method: EstimationMethod,
    /// Whether any configured method can consume an RTP header — gates
    /// the per-packet RTP parse-attempt on the raw ingestion path.
    wants_rtp: bool,
    vca: VcaKind,
    stats: Arc<StatsCells>,
    /// The bounded collector every shard pushes into.
    queue: Arc<EventQueue>,
    /// Control-plane cells shared with every [`MonitorHandle`].
    control: Arc<ControlShared>,
    dispatch: Dispatch,
}

/// The per-worker slice of the monitor: a partition of the flow table
/// plus everything per-flow processing needs — probation buffers,
/// max-lag flush bookkeeping, the bounded-advance stream clock, and the
/// idle-eviction sweep. `Send`, so it runs inline or on a worker thread
/// unchanged; because a flow is hashed to exactly one shard, per-flow
/// results are identical either way (the tested parallel-vs-sequential
/// parity invariant).
struct ShardState {
    method: EstimationMethod,
    config: EngineConfig,
    payload_map: PayloadMap,
    model: Option<RandomForest>,
    idle_timeout_us: i64,
    flush_after: Option<u32>,
    /// Window length in µs, for anchoring method upgrades.
    window_us: i64,
    /// This shard's worker index (0 on an inline monitor) — its control
    /// mailbox and the slot it publishes its flow footprint under.
    worker: usize,
    /// Per-flow engines *and* facade bookkeeping, together in the table's
    /// entry slab: one [`FlowKey::hash64`] and one probe per packet.
    table: FlowTable<TrackedEngine>,
    pending: HashMap<FlowKey, PendingFlow>,
    /// Stream clock: max ingest timestamp, bounded-advance so one corrupt
    /// far-future timestamp cannot mass-evict healthy flows. Per shard —
    /// a shard's clock advances only on its own flows' packets.
    now: Option<Timestamp>,
    /// Consecutive packets arriving more than one idle timeout behind
    /// `now` — corroboration that `now` itself came from a corrupt
    /// timestamp and must re-anchor backward.
    behind_streak: u32,
    last_evict_us: i64,
    stats: Arc<StatsCells>,
    /// Control-plane cells, including this shard's request mailbox.
    control: Arc<ControlShared>,
    /// Events produced since the last `take_events` (per-flow order is
    /// append order). Wrapped at emission: the `Arc` is the unit of
    /// delivery everywhere downstream.
    out: Vec<Arc<QoeEvent>>,
    /// Scratch for finalized windows, drained after every engine borrow
    /// and kept warm — the per-packet path allocates no report buffer.
    reports: Vec<WindowReport>,
    /// Scratch for provisional (max-lag flush) snapshots, same lifecycle.
    snapshots: Vec<WindowReport>,
}

impl Monitor {
    /// Shorthand for [`MonitorBuilder::new`].
    pub fn builder(vca: VcaKind) -> MonitorBuilder {
        MonitorBuilder::new(vca)
    }

    /// A cloneable live [`MonitorHandle`]: snapshot counters, force a
    /// provisional flush, evict a flow, retune alert thresholds, or
    /// request a graceful stop — from any thread, without touching the
    /// monitor's `&mut` ingest surface. Each shard has a control
    /// mailbox: a shard worker empties its own after every batch, and an
    /// idle worker is woken to do so; an inline monitor applies requests
    /// on its next `ingest`/`drain` call. The handle stays readable
    /// after [`Monitor::finish`], and holding one never keeps a dropped
    /// monitor's workers alive.
    pub fn handle(&self) -> MonitorHandle {
        MonitorHandle {
            control: Arc::clone(&self.control),
            stats: Arc::clone(&self.stats),
            queue: Arc::clone(&self.queue),
        }
    }

    /// The VCA profile the monitor was configured for.
    pub fn vca(&self) -> VcaKind {
        self.vca
    }

    /// Running ingest/emit counters. On a threaded monitor the snapshot
    /// is eventually consistent: packets still queued on a shard channel
    /// are not yet counted ([`Monitor::finish`] settles everything).
    pub fn stats(&self) -> MonitorStats {
        self.stats
            .snapshot(self.queue.dropped_total(), self.queue.dropped_by_flow())
    }

    /// Flows currently tracked (probation included). Exact on an inline
    /// monitor; derived from the opened/evicted counters (and therefore
    /// eventually consistent) on a threaded one.
    pub fn active_flows(&self) -> usize {
        match &self.dispatch {
            Dispatch::Inline(shard) => shard.table.len() + shard.pending.len(),
            Dispatch::Done => 0,
            Dispatch::Threaded { .. } => {
                let opened = self.stats.flows_opened.load(Relaxed);
                let evicted = self.stats.flows_evicted.load(Relaxed);
                opened.saturating_sub(evicted) as usize
            }
        }
    }

    /// Queued events not yet drained (on a threaded monitor, what the
    /// shard workers have delivered so far).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Drains every queued event, oldest first. Flushes any partially
    /// filled ingest batches first, so a threaded monitor's workers see
    /// every packet ingested before the drain; events for packets a
    /// worker has not yet processed arrive on a later drain (per-flow
    /// order is always preserved). When events were discarded under
    /// [`OverflowPolicy::DropOldest`], the batch leads with a
    /// [`QoeEvent::Dropped`] marker counting them.
    pub fn drain_events(&mut self) -> impl Iterator<Item = QoeEvent> + '_ {
        self.drain_pending().into_iter().map(unshare)
    }

    /// [`Monitor::drain_events`] without unsharing: the events come out
    /// as the [`Arc`]s the delivery path carries, so a fan-out consumer
    /// (the runner's event bus) can hand the same allocation to any
    /// number of subscribers.
    pub fn drain_shared(&mut self) -> impl Iterator<Item = Arc<QoeEvent>> + '_ {
        self.drain_pending().into_iter()
    }

    /// Flushes ingest batches (threaded) or applies pending control
    /// requests (inline), then takes the router's staged events followed
    /// by everything queued.
    fn drain_pending(&mut self) -> Vec<Arc<QoeEvent>> {
        let mut staged = match &mut self.dispatch {
            Dispatch::Inline(shard) => {
                shard.apply_control();
                self.queue.push_batch(shard.take_events());
                Vec::new()
            }
            Dispatch::Threaded { router, .. } => {
                router.flush();
                std::mem::take(&mut router.staged)
            }
            Dispatch::Done => Vec::new(),
        };
        let queued = self.queue.drain();
        if staged.is_empty() {
            return queued;
        }
        staged.extend(queued);
        staged
    }

    // -- ingestion ---------------------------------------------------------

    /// Ingests one raw link-layer (Ethernet II) frame.
    pub fn ingest_frame(&mut self, ts: Timestamp, frame: &[u8]) {
        let parsed = parse_frame(ts, frame, self.wants_rtp);
        self.route(ts, parsed);
    }

    /// Ingests one raw IP packet (pcap `LINKTYPE_RAW` and friends).
    pub fn ingest_ip(&mut self, ts: Timestamp, bytes: &[u8]) {
        let parsed = parse_ip(ts, bytes, self.wants_rtp);
        self.route(ts, parsed);
    }

    /// Ingests one pcap record, dispatching on the file's link type.
    pub fn ingest_pcap_record(&mut self, link: LinkType, rec: &PcapRecord) {
        let parsed = parse_record(link, rec, self.wants_rtp);
        self.route(rec.ts, parsed);
    }

    /// Ingests one decoded capture (timestamp + UDP datagram).
    pub fn ingest_captured(&mut self, cap: &CapturedPacket) {
        let parsed = datagram_packet(cap.ts, &cap.datagram, self.wants_rtp);
        self.route(cap.ts, Ok(parsed));
    }

    /// Ingests one pre-parsed packet on an explicit flow — the entry point
    /// for simulated feeds and replays that never materialized wire bytes.
    ///
    /// On a threaded monitor this hashes the flow to its shard worker and
    /// enqueues the packet on that worker's bounded channel (batched);
    /// when the channel is full the call waits for the worker to catch
    /// up — ingest-side backpressure regardless of the event queue's
    /// overflow policy. While waiting it drains any ready events into
    /// the staging buffer (returned by the next
    /// [`Monitor::drain_events`]), so a worker parked on a full `Block`
    /// queue is always woken and the pipeline cannot deadlock on itself.
    pub fn ingest_packet(&mut self, flow: FlowKey, pkt: TracePacket) {
        self.route(pkt.ts, Ok((flow, pkt)));
    }

    /// Ingests one packet from a [`crate::source::PacketSource`] — the
    /// runner's sequential path.
    pub(crate) fn ingest_source(&mut self, pkt: SourcePacket) {
        let (ts, parsed) = parse_source(pkt, self.wants_rtp);
        self.route(ts, parsed);
    }

    /// Hands one parse outcome to the threaded router, or runs it through
    /// the inline shard and delivers what it produced.
    fn route(&mut self, ts: Timestamp, parsed: Parsed) {
        match &mut self.dispatch {
            Dispatch::Threaded { router, .. } => router.route(ts, parsed),
            Dispatch::Inline(shard) => {
                match admit(parsed) {
                    Ok((flow, pkt)) => shard.ingest(flow, pkt),
                    Err(reason) => {
                        shard.stats.parse_drops.fetch_add(1, Relaxed);
                        shard.emit(QoeEvent::ParseDrop { ts, reason });
                    }
                }
                shard.apply_control();
                self.queue.push_batch(shard.take_events());
            }
            Dispatch::Done => unreachable!("monitor already finished"),
        }
    }

    /// Seals and reports every remaining flow, returning all queued
    /// events. On a threaded monitor this flushes every pending ingest
    /// batch, disconnects each shard worker's channel (end of stream),
    /// joins them, and drains whatever they delivered — the end-of-stream
    /// flush neither blocks on nor is dropped by the bounded queue.
    pub fn finish(self) -> Vec<QoeEvent> {
        self.finish_shared().into_iter().map(unshare).collect()
    }

    /// [`Monitor::finish`] without unsharing — the runner's event bus
    /// consumes this so end-of-stream tails fan out allocation-free.
    pub fn finish_shared(mut self) -> Vec<Arc<QoeEvent>> {
        // Lift the queue bound (and both overflow policies) first:
        // workers flushing their sealed tails must neither park against
        // a queue nobody is draining yet nor have those tails shed by
        // DropOldest — the end-of-stream flush is lossless by contract.
        self.queue.release();
        let mut out = Vec::new();
        match std::mem::replace(&mut self.dispatch, Dispatch::Done) {
            Dispatch::Inline(mut shard) => {
                shard.finish();
                self.queue.push_batch(shard.take_events());
            }
            Dispatch::Threaded {
                mut router,
                handles,
            } => {
                // The released queue never parks a worker, so every
                // channel drains and this flush completes.
                router.flush();
                out = std::mem::take(&mut router.staged);
                drop(router);
                self.control.close();
                for handle in handles {
                    handle.join().expect("shard worker panicked"); // lint: allow(no-unwrap-in-lib) -- join re-raises a worker panic instead of hiding it
                }
            }
            Dispatch::Done => unreachable!("finish runs once"),
        }
        out.extend(self.queue.drain());
        out
    }

    /// A new ingest router on a threaded monitor's shard channels (`None`
    /// when the monitor is inline). This is how
    /// [`crate::runner::MonitorRunner`] runs one ingest thread per
    /// source: each router parses and flow-hashes its own packets and
    /// feeds the shard channels directly, so the serial dispatch section
    /// scales with the number of sources. See [`IngestRouter`] for the
    /// concurrent-drainer requirement its holder takes on.
    pub(crate) fn ingest_router(&self) -> Option<IngestRouter> {
        match &self.dispatch {
            Dispatch::Threaded { router, .. } => Some(router.fork()),
            Dispatch::Inline(_) | Dispatch::Done => None,
        }
    }
}

// -- stateless raw-bytes decode (Monitor + IngestRouter share it) ----------

/// A parse outcome: a flow-keyed packet, or why it was dropped.
type Parsed = Result<(FlowKey, TracePacket), ParseDropReason>;

/// Decodes one Ethernet II frame into a flow-keyed [`TracePacket`],
/// attempting the RTP parse when any configured method consumes it.
fn parse_frame(ts: Timestamp, frame: &[u8], wants_rtp: bool) -> Parsed {
    match UdpDatagram::parse(frame) {
        Ok(Some(dg)) => Ok(datagram_packet(ts, &dg, wants_rtp)),
        Ok(None) => Err(ParseDropReason::NotUdp),
        Err(e) => Err(ParseDropReason::from(&e)),
    }
}

/// Decodes one raw IP packet (v4 or v6 by version nibble).
fn parse_ip(ts: Timestamp, bytes: &[u8], wants_rtp: bool) -> Parsed {
    let parsed = match bytes.first().map(|b| b >> 4) {
        Some(4) => UdpDatagram::parse_ipv4(bytes),
        Some(6) => UdpDatagram::parse_ipv6(bytes),
        Some(_) => Err(NetError::Malformed {
            layer: "ip",
            what: "version is neither 4 nor 6",
        }),
        None => Err(NetError::Truncated {
            layer: "ip",
            needed: 1,
            got: 0,
        }),
    };
    match parsed {
        Ok(Some(dg)) => Ok(datagram_packet(ts, &dg, wants_rtp)),
        Ok(None) => Err(ParseDropReason::NotUdp),
        Err(e) => Err(ParseDropReason::from(&e)),
    }
}

/// Decodes one pcap record, dispatching on the file's link type. The
/// record's buffer is `Bytes`-backed, so the decoded datagram's payload
/// is a zero-copy slice of it — no per-packet payload allocation.
fn parse_record(link: LinkType, rec: &PcapRecord, wants_rtp: bool) -> Parsed {
    let parsed = match link {
        LinkType::Ethernet => UdpDatagram::parse_shared(&rec.data),
        LinkType::RawIp => match rec.data.first().map(|b| b >> 4) {
            Some(4) => UdpDatagram::parse_ipv4_shared(&rec.data),
            Some(6) => UdpDatagram::parse_ipv6_shared(&rec.data),
            Some(_) => Err(NetError::Malformed {
                layer: "ip",
                what: "version is neither 4 nor 6",
            }),
            None => Err(NetError::Truncated {
                layer: "ip",
                needed: 1,
                got: 0,
            }),
        },
        LinkType::Other(_) => {
            return Err(ParseDropReason::Malformed {
                layer: "pcap",
                what: "unsupported link type",
            })
        }
    };
    match parsed {
        Ok(Some(dg)) => Ok(datagram_packet(rec.ts, &dg, wants_rtp)),
        Ok(None) => Err(ParseDropReason::NotUdp),
        Err(e) => Err(ParseDropReason::from(&e)),
    }
}

/// Flow-keys a decoded datagram and runs the RTP parse-attempt: the
/// attempt's confidence decides the method for auto-configured monitors,
/// and the header feeds the RTP engines. Non-RTP payloads simply leave
/// `rtp` empty; fixed IP/UDP monitors (the paper's no-RTP-access
/// deployment) skip the attempt entirely — nothing consumes it.
fn datagram_packet(ts: Timestamp, dg: &UdpDatagram, wants_rtp: bool) -> (FlowKey, TracePacket) {
    let (flow, _) = dg.flow_key();
    let rtp = if wants_rtp {
        RtpHeader::parse(&dg.payload).ok()
    } else {
        None
    };
    (
        flow,
        TracePacket {
            ts,
            size: dg.ip_total_len,
            rtp,
            truth_media: None,
        },
    )
}

/// Parses one source packet, returning its capture time with the outcome.
fn parse_source(pkt: SourcePacket, wants_rtp: bool) -> (Timestamp, Parsed) {
    match pkt {
        SourcePacket::Record { link, record } => {
            (record.ts, parse_record(link, &record, wants_rtp))
        }
        SourcePacket::Captured(cap) => (
            cap.ts,
            Ok(datagram_packet(cap.ts, &cap.datagram, wants_rtp)),
        ),
        SourcePacket::Parsed { flow, packet } => (packet.ts, Ok((flow, packet))),
    }
}

/// The admission check every ingest path applies after parsing: a packet
/// stamped before the epoch falls outside every window.
fn admit(parsed: Parsed) -> Parsed {
    parsed.and_then(|(flow, pkt)| {
        if pkt.ts.as_micros() < 0 {
            Err(ParseDropReason::NegativeTimestamp)
        } else {
            Ok((flow, pkt))
        }
    })
}

/// A threaded monitor's ingest router: parse outcome in, flow-hashed
/// [`INGEST_BATCH`]-packet batches out to the shard workers' bounded
/// channels, with parse drops counted and delivered in batches too. The
/// monitor owns one, and [`Monitor::ingest_router`] forks one per
/// runner source, so N sources ingest in parallel without sharing the
/// monitor's `&mut self`. Per-flow packet order within one router is
/// preserved end-to-end (same hash, same channel, same worker); packets
/// for one flow split across routers interleave in channel-arrival order.
///
/// A full channel is ingest-side backpressure. A forked router waits on
/// it, so its holder must guarantee a concurrent drainer (the runner's
/// event loop) or a `Block` queue can park the pipeline; this is why
/// routers are crate-internal. The monitor's own router serves a caller
/// that is itself the drainer, so it stages instead (see
/// [`IngestRouter::send`]).
pub(crate) struct IngestRouter {
    wants_rtp: bool,
    stats: Arc<StatsCells>,
    control: Arc<ControlShared>,
    queue: Arc<EventQueue>,
    senders: Vec<SyncSender<ShardMsg>>,
    batches: Vec<Vec<RoutedPacket>>,
    /// Parse-drop events not yet delivered: handed over once per
    /// [`INGEST_BATCH`] drops and on every [`IngestRouter::flush`], so a
    /// TCP-heavy tap takes the event-queue lock once per batch rather
    /// than once per dropped frame.
    drops: Vec<Arc<QoeEvent>>,
    /// Set on the monitor's own router under [`OverflowPolicy::Block`]:
    /// its caller drains the queue, so a full channel is answered by
    /// draining into `staged` and drops never wait on the queue.
    stage_on_full: bool,
    /// Events drained while waiting on a full channel, returned ahead of
    /// the queue by the monitor's next drain.
    staged: Vec<Arc<QoeEvent>>,
}

impl IngestRouter {
    /// A new router on the same shard channels for a thread whose events
    /// someone else drains: it waits on a full channel instead of staging.
    fn fork(&self) -> Self {
        IngestRouter {
            wants_rtp: self.wants_rtp,
            stats: Arc::clone(&self.stats),
            control: Arc::clone(&self.control),
            queue: Arc::clone(&self.queue),
            senders: self.senders.clone(),
            batches: self.senders.iter().map(|_| Vec::new()).collect(),
            drops: Vec::new(),
            stage_on_full: false,
            staged: Vec::new(),
        }
    }

    /// Ingests one packet from a [`crate::source::PacketSource`].
    pub(crate) fn ingest(&mut self, pkt: SourcePacket) {
        let (ts, parsed) = parse_source(pkt, self.wants_rtp);
        self.route(ts, parsed);
    }

    /// Batches an admitted packet for its flow's worker, or accounts for
    /// the drop.
    fn route(&mut self, ts: Timestamp, parsed: Parsed) {
        match admit(parsed) {
            Ok((flow, pkt)) => {
                let hash = flow.hash64();
                let worker = worker_of(hash, self.senders.len());
                self.batches[worker].push((hash, flow, pkt));
                if self.batches[worker].len() >= INGEST_BATCH {
                    let batch = std::mem::replace(
                        &mut self.batches[worker],
                        Vec::with_capacity(INGEST_BATCH),
                    );
                    self.send(worker, batch);
                }
            }
            Err(reason) => {
                self.stats.parse_drops.fetch_add(1, Relaxed);
                self.drops
                    .push(Arc::new(QoeEvent::ParseDrop { ts, reason }));
                if self.drops.len() >= INGEST_BATCH {
                    self.deliver_drops();
                }
            }
        }
    }

    /// Sends every partially filled batch to its shard worker and
    /// delivers any pending parse drops. Call before dropping the router
    /// so no tail packet is left behind.
    pub(crate) fn flush(&mut self) {
        self.deliver_drops();
        for worker in 0..self.senders.len() {
            if !self.batches[worker].is_empty() {
                let batch = std::mem::take(&mut self.batches[worker]);
                self.send(worker, batch);
            }
        }
    }

    fn deliver_drops(&mut self) {
        let drops = std::mem::take(&mut self.drops);
        // The monitor's own caller *is* the queue's consumer: parking
        // against a full Block queue would be waiting on itself.
        if self.stage_on_full {
            self.queue.push_nowait(drops);
        } else {
            self.queue.push_batch(drops);
        }
    }

    /// Hands one batch to a shard worker without ever deadlocking on our
    /// own pipeline. Under [`OverflowPolicy::Block`] a worker can be
    /// parked on the full event queue while this router waits on that
    /// worker's full channel — each waiting on the other — so when the
    /// caller is also the drainer (`stage_on_full`) a full channel is
    /// answered by draining the queue, which wakes the worker, and
    /// staging the events for the caller's next drain. Otherwise a plain
    /// blocking send is both safe and required: draining would quietly
    /// turn the bounded queue into unbounded staging.
    fn send(&mut self, worker: usize, batch: Vec<RoutedPacket>) {
        self.control.depth_add(worker, batch.len() as u64);
        let mut msg = ShardMsg::Batch(batch);
        if !self.stage_on_full {
            self.senders[worker]
                .send(msg)
                .expect("shard workers outlive ingest routers"); // lint: allow(no-unwrap-in-lib) -- shard workers are joined only after every router is dropped
            return;
        }
        loop {
            match self.senders[worker].try_send(msg) {
                Ok(()) => return,
                Err(TrySendError::Full(back)) => {
                    msg = back;
                    let events = self.queue.drain();
                    if events.is_empty() {
                        // Channel full, queue empty: the worker is mid-batch.
                        std::thread::yield_now();
                    }
                    self.staged.extend(events);
                }
                Err(TrySendError::Disconnected(_)) => {
                    unreachable!("shard workers outlive ingest routers")
                }
            }
        }
    }
}

/// Stable flow → worker routing: the low bits of the one
/// [`FlowKey::hash64`] computed per packet on the routing thread. The
/// hash rides the channel with the packet; inside a worker the table's
/// shard selection takes the top 16 bits and slot probing starts from
/// bits 16.., so the three routing layers stay uncorrelated while the key
/// is hashed exactly once (see [`FlowTable`]). Control requests for a
/// flow reach the same worker's mailbox through it.
pub(crate) fn worker_of(hash: u64, n_workers: usize) -> usize {
    (hash % n_workers as u64) as usize
}

impl ShardState {
    /// Routes one packet through probation, re-probe, its flow engine,
    /// and the idle sweep. The caller has already rejected negative
    /// timestamps.
    fn ingest(&mut self, flow: FlowKey, pkt: TracePacket) {
        self.stats.packets.fetch_add(1, Relaxed);
        self.ingest_hashed(flow.hash64(), flow, pkt);
    }

    /// Batch form of [`Self::ingest`]: the packet counter is bumped once
    /// for the whole batch, and each packet reuses the route hash the
    /// dispatching thread already computed.
    fn ingest_batch(&mut self, batch: Vec<RoutedPacket>) {
        self.stats.packets.fetch_add(batch.len() as u64, Relaxed);
        for (hash, flow, pkt) in batch {
            self.ingest_hashed(hash, flow, pkt);
        }
    }

    fn ingest_hashed(&mut self, hash: u64, flow: FlowKey, pkt: TracePacket) {
        self.advance_clock(pkt.ts);
        if !self.push_established(hash, flow, &pkt) {
            self.ingest_cold(hash, flow, pkt);
        }
        self.maybe_evict();
    }

    /// The steady-state per-packet path: one table probe finds the flow's
    /// engine *and* its bookkeeping; finalized windows land in the warm
    /// scratch buffer and are emitted after the borrow ends. Returns
    /// `false` when the flow is not established (new or in probation).
    fn push_established(&mut self, hash: u64, flow: FlowKey, pkt: &TracePacket) -> bool {
        let mut reports = std::mem::take(&mut self.reports);
        let mut snapshots = std::mem::take(&mut self.snapshots);
        let flush_after = self.flush_after;
        let mut upgrade = false;
        let found = match self.table.get_mut_seen_hashed(hash, &flow, pkt.ts) {
            None => false,
            Some(tracked) => {
                // Post-probation RTP re-probe bookkeeping (auto-method
                // fallback flows only; `None` for everyone else).
                if let Some(reprobe) = tracked.reprobe.as_mut() {
                    reprobe.seen += 1;
                    reprobe.rtp_ok += u32::from(pkt.rtp.is_some());
                    if reprobe.seen >= RTP_REPROBE_PACKETS {
                        if reprobe.rtp_ok as f64 / reprobe.seen as f64 >= RTP_CONFIDENCE {
                            upgrade = true;
                        } else {
                            *reprobe = Reprobe::default();
                        }
                    }
                }
                if !upgrade {
                    tracked.engine.push_into(pkt, &mut reports);
                    if let Some(k) = flush_after {
                        tracked.since_report = if reports.is_empty() {
                            tracked.since_report + 1
                        } else {
                            0
                        };
                        if tracked.since_report >= k {
                            tracked.since_report = 0;
                            tracked.engine.provisional_into(&mut snapshots);
                        }
                    }
                }
                true
            }
        };
        for report in reports.drain(..) {
            self.emit_window(flow, report, false);
        }
        for report in snapshots.drain(..) {
            self.emit_window(flow, report, true);
        }
        self.reports = reports;
        self.snapshots = snapshots;
        if upgrade {
            self.upgrade_flow(hash, flow, pkt);
        }
        found
    }

    /// Off the fast path: the flow has no engine yet — it is brand new,
    /// or still buffering toward the RTP-confidence decision.
    fn ingest_cold(&mut self, hash: u64, flow: FlowKey, pkt: TracePacket) {
        let needs_probation = self.method.is_auto();
        let is_new = !self.pending.contains_key(&flow);
        if is_new {
            self.stats.flows_opened.fetch_add(1, Relaxed);
            self.emit(QoeEvent::FlowOpened { flow, ts: pkt.ts });
            if !needs_probation {
                let engine = build_engine(
                    self.method.fallback(),
                    self.config,
                    self.payload_map,
                    self.model.as_ref(),
                );
                self.table
                    .insert_hashed(hash, flow, TrackedEngine::new(engine), pkt.ts);
                self.push_established(hash, flow, &pkt);
                return;
            }
        }
        let pending = self.pending.entry(flow).or_insert_with(|| PendingFlow {
            packets: Vec::with_capacity(RTP_PROBATION_PACKETS),
            rtp_ok: 0,
            last_seen: pkt.ts,
        });
        pending.rtp_ok += usize::from(pkt.rtp.is_some());
        // Bounded advance, like FlowTable's last_seen: one corrupt
        // far-future timestamp must not exempt the flow from the
        // idle sweep forever.
        let bound = pending
            .last_seen
            .as_micros()
            .saturating_add(self.idle_timeout_us);
        pending.last_seen = pending
            .last_seen
            .max(Timestamp::from_micros(pkt.ts.as_micros().min(bound)));
        pending.packets.push(pkt);
        if pending.packets.len() >= RTP_PROBATION_PACKETS {
            self.resolve_pending(flow);
        }
    }

    /// Seals and reports every remaining flow (end of stream).
    fn finish(&mut self) {
        let keys: Vec<FlowKey> = self.pending.keys().copied().collect();
        for flow in keys {
            self.resolve_pending(flow);
        }
        for (flow, final_reports) in self.table.drain_finish_all() {
            self.seal_flow(flow, EvictReason::EndOfStream, final_reports);
        }
    }

    /// Takes the events produced since the last call, in emission order.
    fn take_events(&mut self) -> Vec<Arc<QoeEvent>> {
        std::mem::take(&mut self.out)
    }

    /// Applies and empties this shard's control mailbox
    /// ([`MonitorHandle`]): a forced provisional flush of every flow,
    /// then the requested evictions (all of flows this shard owns).
    /// Cheap when nothing is pending — one relaxed atomic load.
    fn apply_control(&mut self) {
        if let Some(requests) = self.control.take_requests(self.worker) {
            if requests.flush {
                self.flush_all_provisional();
            }
            for flow in requests.evict {
                self.evict(flow, EvictReason::Requested);
            }
        }
    }

    /// Emits provisional snapshots of every tracked flow's pending
    /// windows — [`MonitorHandle::force_flush`], with the same
    /// supersede-later semantics as the builder's max-lag flush.
    fn flush_all_provisional(&mut self) {
        let mut buf = std::mem::take(&mut self.snapshots);
        let mut snapshots = Vec::new();
        self.table.for_each_mut(|flow, engine| {
            engine.provisional_into(&mut buf);
            snapshots.extend(buf.drain(..).map(|report| (*flow, report)));
        });
        self.snapshots = buf;
        for (flow, report) in snapshots {
            self.emit_window(flow, report, true);
        }
    }

    /// Advances the stream clock by at most one idle timeout per packet,
    /// so a single corrupt far-future timestamp (which the engines
    /// quarantine) cannot fast-forward time and mass-evict healthy flows.
    /// The inverse corruption — the *first* packet carrying the bogus
    /// timestamp — would otherwise pin the clock forever (sane traffic is
    /// all "in the past", and a pinned clock never sweeps idle flows
    /// again); when enough consecutive packets agree the clock is more
    /// than one idle timeout ahead of reality, it re-anchors backward.
    fn advance_clock(&mut self, ts: Timestamp) {
        let Some(now) = self.now else {
            self.now = Some(ts);
            return;
        };
        if now.as_micros().saturating_sub(ts.as_micros()) > self.idle_timeout_us {
            self.behind_streak += 1;
            if self.behind_streak >= crate::engine::DISCONTINUITY_CORROBORATION {
                self.behind_streak = 0;
                self.now = Some(ts);
                self.last_evict_us = self.last_evict_us.min(ts.as_micros());
            }
            return;
        }
        self.behind_streak = 0;
        self.now = Some(
            now.max(Timestamp::from_micros(
                ts.as_micros()
                    .min(now.as_micros().saturating_add(self.idle_timeout_us)),
            )),
        );
    }

    /// Decides a probation flow's method from its RTP parse confidence,
    /// builds the engine, and replays the buffered packets through it.
    /// A flow resolved to the fallback keeps re-probing for RTP (see
    /// [`RTP_REPROBE_PACKETS`]); one resolved to the RTP variant is
    /// settled for good.
    fn resolve_pending(&mut self, flow: FlowKey) {
        let Some(pending) = self.pending.remove(&flow) else {
            return;
        };
        let confident = pending.confident_rtp();
        let method = if confident {
            self.method.preferred()
        } else {
            self.method.fallback()
        };
        let engine = build_engine(method, self.config, self.payload_map, self.model.as_ref());
        let first_seen = pending.packets.first().map_or(pending.last_seen, |p| p.ts);
        let hash = flow.hash64();
        self.table.insert_hashed(
            hash,
            flow,
            TrackedEngine {
                engine,
                since_report: 0,
                // A flow resolved to the fallback keeps watching for
                // late-blooming RTP; one resolved to the preferred
                // method is settled for good.
                reprobe: (!confident && self.method.preferred() != method).then(Reprobe::default),
            },
            first_seen,
        );
        // Replay the probation buffer through the decided engine; the
        // max-lag accounting sees the burst as one push of N packets.
        let mut reports = std::mem::take(&mut self.reports);
        let mut snapshots = std::mem::take(&mut self.snapshots);
        for pkt in &pending.packets {
            let tracked = self
                .table
                .get_mut_seen_hashed(hash, &flow, pkt.ts)
                .expect("just inserted"); // lint: allow(no-unwrap-in-lib) -- probation flow was inserted into the table just above
            tracked.engine.push_into(pkt, &mut reports);
        }
        if let Some(k) = self.flush_after {
            let tracked = self
                .table
                .get_mut_hashed(hash, &flow)
                .expect("just inserted"); // lint: allow(no-unwrap-in-lib) -- probation flow was inserted into the table just above
            tracked.since_report = if reports.is_empty() {
                pending.packets.len() as u32
            } else {
                0
            };
            if tracked.since_report >= k {
                tracked.since_report = 0;
                tracked.engine.provisional_into(&mut snapshots);
            }
        }
        for report in reports.drain(..) {
            self.emit_window(flow, report, false);
        }
        for report in snapshots.drain(..) {
            self.emit_window(flow, report, true);
        }
        self.reports = reports;
        self.snapshots = snapshots;
    }

    /// Post-probation RTP upgrade, reached when [`Self::push_established`]
    /// finds a fallback-resolved auto flow confidently RTP over the
    /// re-probe interval just seen (see [`RTP_REPROBE_PACKETS`]). The old
    /// engine's pending windows flush first — final up to the upgrade
    /// boundary, `provisional` for the boundary window itself, which the
    /// new engine (anchored at this packet) will finalize — so every
    /// window still appears in [`QoeEvent::final_reports`] exactly once.
    /// The seam is visible to consumers as the report's `method` changing
    /// mid-flow; the triggering packet replays into the new engine.
    fn upgrade_flow(&mut self, hash: u64, flow: FlowKey, pkt: &TracePacket) {
        let Some(reports) = self.remove_finished(hash, &flow) else {
            return;
        };
        // The new engine anchors at this packet's window; the old
        // engine's flush can reach at most that window (its packets are
        // all older), so exactly the boundary overlap is provisional.
        let anchor = (pkt.ts.as_micros().div_euclid(self.window_us)) as u64;
        for report in reports {
            let provisional = report.window >= anchor;
            self.emit_window(flow, report, provisional);
        }
        let engine = build_engine(
            self.method.preferred(),
            self.config,
            self.payload_map,
            self.model.as_ref(),
        );
        self.table
            .insert_hashed(hash, flow, TrackedEngine::new(engine), pkt.ts);
        self.push_established(hash, flow, pkt);
    }

    /// Periodic idle sweep over both established and probation flows.
    fn maybe_evict(&mut self) {
        let Some(now) = self.now else { return };
        if now.as_micros().saturating_sub(self.last_evict_us) < EVICT_CHECK_US {
            return;
        }
        self.last_evict_us = now.as_micros();
        for (flow, final_reports) in self.table.evict_idle(now) {
            self.seal_flow(flow, EvictReason::Idle, final_reports);
        }
        // Like FlowTable::evict_idle: reclaim probation flows that went
        // idle, and ones whose last_seen claims to be from far in the
        // future (a corrupt timestamp that slipped in before clamping).
        let deadline = now.as_micros() - self.idle_timeout_us;
        let future_bound = now.as_micros().saturating_add(self.idle_timeout_us);
        let stale: Vec<FlowKey> = self
            .pending
            .iter()
            .filter(|(_, p)| {
                p.last_seen.as_micros() < deadline || p.last_seen.as_micros() > future_bound
            })
            .map(|(k, _)| *k)
            .collect();
        for flow in stale {
            self.evict(flow, EvictReason::Idle);
        }
        // Piggyback the bytes-per-flow gauge on the sweep cadence: the
        // survivors' engine state is what the monitor is resident for.
        self.control.set_flow_footprint(
            self.worker,
            self.table.state_bytes() as u64,
            self.table.len() as u64,
        );
    }

    /// Seals one flow now — on operator request
    /// ([`MonitorHandle::evict_flow`]) or when the idle sweep finds it
    /// stale in probation. A flow still in probation is resolved first
    /// with whatever evidence exists (its buffered packets replay through
    /// the decided engine), so even a young flow's windows surface.
    /// Unknown flows are ignored.
    fn evict(&mut self, flow: FlowKey, reason: EvictReason) {
        self.resolve_pending(flow);
        if let Some(final_reports) = self.remove_finished(flow.hash64(), &flow) {
            self.seal_flow(flow, reason, final_reports);
        }
    }

    /// Removes an established flow from the table and flushes its
    /// engine's remaining windows.
    fn remove_finished(&mut self, hash: u64, flow: &FlowKey) -> Option<Vec<WindowReport>> {
        let mut tracked = self.table.remove_hashed(hash, flow)?;
        let mut reports = Vec::new();
        tracked.finish_into(&mut reports);
        Some(reports)
    }

    fn seal_flow(&mut self, flow: FlowKey, reason: EvictReason, final_reports: Vec<WindowReport>) {
        self.stats.flows_evicted.fetch_add(1, Relaxed);
        self.stats
            .window_reports
            .fetch_add(final_reports.len() as u64, Relaxed);
        self.emit(QoeEvent::FlowEvicted {
            flow,
            reason,
            final_reports,
        });
    }

    /// Emits one window report, counted as final or provisional.
    fn emit_window(&mut self, flow: FlowKey, report: WindowReport, provisional: bool) {
        let counter = if provisional {
            &self.stats.provisional_reports
        } else {
            &self.stats.window_reports
        };
        counter.fetch_add(1, Relaxed);
        self.emit(QoeEvent::WindowReport {
            flow,
            report,
            provisional,
        });
    }

    fn emit(&mut self, event: QoeEvent) {
        self.out.push(Arc::new(event));
    }
}

impl Drop for Monitor {
    /// A monitor dropped without [`Monitor::finish`] (caller panic,
    /// early return) must not leak shard workers parked on the bounded
    /// queue: release the queue so nothing waits, disconnect the
    /// channels (the router's senders and every handle's wakers) so the
    /// workers run their end-of-stream seal and exit, and reap the
    /// threads. The tail events land in the released queue and are
    /// dropped with it — only `finish` promises delivery.
    fn drop(&mut self) {
        self.queue.release();
        self.control.close();
        if let Dispatch::Threaded { router, handles } =
            std::mem::replace(&mut self.dispatch, Dispatch::Done)
        {
            drop(router);
            for handle in handles {
                // Don't double-panic out of a Drop during unwinding.
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let threads = match &self.dispatch {
            Dispatch::Inline(_) => 1,
            Dispatch::Threaded { router, .. } => router.senders.len(),
            Dispatch::Done => 0,
        };
        f.debug_struct("Monitor")
            .field("vca", &self.vca)
            .field("method", &self.method)
            .field("threads", &threads)
            .field("active_flows", &self.active_flows())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};

    fn flow_key(n: u8) -> FlowKey {
        let client = IpAddr::V4(Ipv4Addr::new(10, 0, 0, n));
        let server = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1));
        FlowKey::canonical(server, 3478, client, 50_000 + u16::from(n), 17).0
    }

    fn pkt(us: i64, size: u16) -> TracePacket {
        TracePacket {
            ts: Timestamp::from_micros(us),
            size,
            rtp: None,
            truth_media: None,
        }
    }

    fn video_stream(secs: i64) -> Vec<TracePacket> {
        let mut out = Vec::new();
        for f in 0..secs * 30 {
            let t0 = f * 33_333;
            let size = 1000 + ((f % 9) * 13) as u16;
            out.push(pkt(t0, size));
            out.push(pkt(t0 + 300, size));
        }
        out
    }

    fn fixed(method: Method) -> MonitorBuilder {
        MonitorBuilder::new(VcaKind::Teams).method(EstimationMethod::Fixed(method))
    }

    fn window_reports(events: &[QoeEvent]) -> Vec<&WindowReport> {
        events
            .iter()
            .filter_map(|e| match e {
                QoeEvent::WindowReport {
                    report,
                    provisional: false,
                    ..
                } => Some(report),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn builder_defaults_are_paper_shaped() {
        let m = MonitorBuilder::new(VcaKind::Webex).build();
        assert_eq!(m.vca(), VcaKind::Webex);
        assert_eq!(m.active_flows(), 0);
        assert_eq!(m.stats().packets, 0);
        assert_eq!(m.pending_events(), 0);
    }

    #[test]
    fn threads_zero_sizes_workers_from_available_parallelism() {
        let want = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let mut m = fixed(Method::IpUdpHeuristic).threads(0).build();
        assert!(
            format!("{m:?}").contains(&format!("threads: {want}")),
            "auto thread count must match available parallelism"
        );
        let flow = flow_key(1);
        for p in video_stream(2) {
            m.ingest_packet(flow, p);
        }
        let events = m.finish();
        assert!(events
            .iter()
            .any(|e| matches!(e, QoeEvent::FlowEvicted { .. })));
    }

    #[test]
    fn single_flow_emits_open_windows_and_seal() {
        let mut m = fixed(Method::IpUdpHeuristic).build();
        let flow = flow_key(1);
        for p in video_stream(4) {
            m.ingest_packet(flow, p);
        }
        let events = m.finish();
        assert!(matches!(events[0], QoeEvent::FlowOpened { .. }));
        // Mid-stream windows arrive as WindowReport events; the sealed
        // tail rides on the eviction event. Together: one per second.
        let (reason, final_reports) = events
            .iter()
            .find_map(|e| match e {
                QoeEvent::FlowEvicted {
                    reason,
                    final_reports,
                    ..
                } => Some((reason, final_reports)),
                _ => None,
            })
            .expect("finish seals the flow");
        assert_eq!(*reason, EvictReason::EndOfStream);
        let mut windows: Vec<u64> = window_reports(&events)
            .iter()
            .map(|r| r.window)
            .chain(final_reports.iter().map(|r| r.window))
            .collect();
        windows.sort_unstable();
        assert_eq!(windows, vec![0, 1, 2, 3]);
    }

    #[test]
    fn idle_eviction_surfaces_tail_reports() {
        let mut m = fixed(Method::IpUdpHeuristic)
            .idle_timeout(Timestamp::from_secs(5))
            .build();
        let a = flow_key(1);
        let b = flow_key(2);
        for p in video_stream(2) {
            m.ingest_packet(a, p);
        }
        // Flow B keeps the clock moving long after A went idle.
        for s in 0..10i64 {
            m.ingest_packet(b, pkt(2_000_000 + s * 1_000_000, 1100));
        }
        let events: Vec<QoeEvent> = m.drain_events().collect();
        let idle_evictions: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                QoeEvent::FlowEvicted {
                    flow,
                    reason: EvictReason::Idle,
                    final_reports,
                } => Some((flow, final_reports)),
                _ => None,
            })
            .collect();
        assert_eq!(idle_evictions.len(), 1);
        assert_eq!(*idle_evictions[0].0, a);
        assert!(
            !idle_evictions[0].1.is_empty(),
            "tail windows ride on the eviction event"
        );
    }

    #[test]
    fn auto_method_picks_rtp_for_rtp_flows() {
        use vcaml_rtp::RtpHeader;
        let mut m = MonitorBuilder::new(VcaKind::Teams)
            .method(EstimationMethod::AutoHeuristic)
            .build();
        let rtp_flow = flow_key(1);
        let plain_flow = flow_key(2);
        for f in 0..60i64 {
            let t0 = f * 33_333;
            for i in 0..2u16 {
                let mut p = pkt(t0 + i64::from(i) * 300, 1100);
                p.rtp = Some(RtpHeader::basic(
                    102,
                    (f * 2) as u16 + i,
                    (f * 3000) as u32,
                    1,
                    i == 1,
                ));
                m.ingest_packet(rtp_flow, p);
                m.ingest_packet(plain_flow, pkt(t0 + i64::from(i) * 300, 1100));
            }
        }
        let events = m.finish();
        let method_of = |flow: FlowKey| {
            events
                .iter()
                .find_map(|e| match e {
                    QoeEvent::WindowReport {
                        flow: f, report, ..
                    } if *f == flow => Some(report.method),
                    _ => None,
                })
                .expect("flow reported")
        };
        assert_eq!(method_of(rtp_flow), Method::RtpHeuristic);
        assert_eq!(method_of(plain_flow), Method::IpUdpHeuristic);
    }

    /// A forest fitted on `width` synthetic features.
    fn forest_of_width(width: usize) -> RandomForest {
        use vcaml_mlcore::{Dataset, RandomForestParams, Task};
        let mut data = Dataset::new((0..width).map(|i| format!("f{i}")).collect());
        for i in 0..64 {
            let row: Vec<f64> = (0..width).map(|j| ((i * (j + 3)) % 17) as f64).collect();
            data.push(&row, 20.0 + (i % 11) as f64);
        }
        let params = RandomForestParams {
            n_trees: 4,
            ..Default::default()
        };
        RandomForest::fit(&data, Task::Regression, &params)
    }

    /// Every final report of `flow` in an event stream.
    fn final_reports_of(events: &[QoeEvent], flow: FlowKey) -> Vec<&WindowReport> {
        events
            .iter()
            .filter(|e| e.flow() == Some(flow))
            .flat_map(QoeEvent::final_reports)
            .collect()
    }

    #[test]
    fn auto_ml_attaches_the_model_only_to_matching_widths() {
        use vcaml_rtp::RtpHeader;
        let ipudp_model = forest_of_width(14);
        let mut m = MonitorBuilder::new(VcaKind::Teams)
            .method(EstimationMethod::AutoMl)
            .model(ipudp_model)
            .build();
        let rtp_flow = flow_key(1);
        let plain_flow = flow_key(2);
        for f in 0..90i64 {
            let t0 = f * 33_333;
            for i in 0..2u16 {
                let mut p = pkt(t0 + i64::from(i) * 300, 1100);
                p.rtp = Some(RtpHeader::basic(
                    102,
                    (f * 2) as u16 + i,
                    (f * 3000) as u32,
                    1,
                    i == 1,
                ));
                m.ingest_packet(rtp_flow, p);
                m.ingest_packet(plain_flow, pkt(t0 + i64::from(i) * 300, 1100));
            }
        }
        let events = m.finish();
        let plain = final_reports_of(&events, plain_flow);
        assert!(!plain.is_empty());
        assert!(plain
            .iter()
            .all(|r| r.method == Method::IpUdpMl && r.model_fps.is_some()));
        let rtp = final_reports_of(&events, rtp_flow);
        assert!(!rtp.is_empty());
        assert!(rtp
            .iter()
            .all(|r| r.method == Method::RtpMl && r.model_fps.is_none()));
    }

    #[test]
    fn wide_model_on_an_ipudp_flow_reports_none_without_panicking() {
        let mut m = fixed(Method::IpUdpMl)
            .model(forest_of_width(24))
            .threads(2)
            .build();
        let flow = flow_key(1);
        for p in video_stream(3) {
            m.ingest_packet(flow, p);
        }
        let events = m.finish();
        let reports = final_reports_of(&events, flow);
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|r| r.model_fps.is_none()));
    }

    #[test]
    fn probation_replay_matches_direct_engine() {
        // Auto selection buffers the first packets; the replay must make
        // the flow's reports identical to a never-buffered run.
        let mut auto = MonitorBuilder::new(VcaKind::Teams)
            .method(EstimationMethod::AutoHeuristic)
            .build();
        let mut direct = fixed(Method::IpUdpHeuristic).build();
        let flow = flow_key(1);
        for p in video_stream(3) {
            auto.ingest_packet(flow, p);
            direct.ingest_packet(flow, p);
        }
        let a = auto.finish();
        let d = direct.finish();
        let aw = window_reports(&a);
        let dw = window_reports(&d);
        assert_eq!(aw.len(), dw.len());
        for (x, y) in aw.iter().zip(&dw) {
            assert_eq!(x.window, y.window);
            assert_eq!(x.estimate.unwrap(), y.estimate.unwrap());
        }
    }

    #[test]
    fn flush_after_packets_emits_provisional_windows() {
        let mut m = fixed(Method::IpUdpHeuristic)
            .flush_after_packets(16)
            .build();
        let flow = flow_key(1);
        // One frame per second: nothing finalizes for a long time, so the
        // max-lag flush is the only source of freshness.
        for s in 0..3i64 {
            for i in 0..20i64 {
                m.ingest_packet(flow, pkt(s * 1_000_000 + i * 40_000, 1100));
            }
        }
        let events: Vec<QoeEvent> = m.drain_events().collect();
        let provisional = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    QoeEvent::WindowReport {
                        provisional: true,
                        ..
                    }
                )
            })
            .count();
        assert!(provisional > 0, "expected provisional snapshots");
        assert!(m.stats().provisional_reports as usize == provisional);
    }

    #[test]
    fn default_has_no_provisional_reports() {
        let mut m = fixed(Method::IpUdpHeuristic).build();
        let flow = flow_key(1);
        for p in video_stream(5) {
            m.ingest_packet(flow, p);
        }
        let events = m.finish();
        assert!(events.iter().all(|e| !matches!(
            e,
            QoeEvent::WindowReport {
                provisional: true,
                ..
            }
        )));
    }

    #[test]
    fn negative_timestamps_classified() {
        let mut m = fixed(Method::IpUdpHeuristic).build();
        m.ingest_packet(flow_key(1), pkt(-5, 1100));
        let events: Vec<QoeEvent> = m.drain_events().collect();
        assert!(matches!(
            events[0],
            QoeEvent::ParseDrop {
                reason: ParseDropReason::NegativeTimestamp,
                ..
            }
        ));
        assert_eq!(m.stats().parse_drops, 1);
        assert_eq!(m.active_flows(), 0);
    }

    #[test]
    fn raw_frame_ingestion_parses_and_routes() {
        use vcaml_netpkt::{EtherType, EthernetRepr, Ipv4Repr, MacAddr, UdpRepr};
        let payload = [0x16u8; 40]; // DTLS-looking, not RTP
        let eth = EthernetRepr {
            src: MacAddr([2, 0, 0, 0, 0, 1]),
            dst: MacAddr([2, 0, 0, 0, 0, 2]),
            ethertype: EtherType::Ipv4,
        };
        let mut frame = vec![0u8; 14 + 20 + 8 + payload.len()];
        eth.emit(&mut frame);
        Ipv4Repr {
            src: [10, 0, 0, 1],
            dst: [10, 0, 0, 2],
            protocol: vcaml_netpkt::IP_PROTO_UDP,
            payload_len: 8 + payload.len(),
            ttl: 64,
            ident: 7,
        }
        .emit(&mut frame[14..]);
        frame[42..].copy_from_slice(&payload);
        UdpRepr {
            src_port: 40000,
            dst_port: 50000,
        }
        .emit_v4(
            &mut frame[34..],
            payload.len(),
            [10, 0, 0, 1],
            [10, 0, 0, 2],
        );

        let mut m = fixed(Method::IpUdpHeuristic).build();
        m.ingest_frame(Timestamp::from_millis(1), &frame);
        assert_eq!(m.stats().packets, 1);
        assert_eq!(m.active_flows(), 1);

        // Truncating below the Ethernet header classifies as truncated.
        m.ingest_frame(Timestamp::from_millis(2), &frame[..10]);
        assert_eq!(m.stats().parse_drops, 1);
        let events: Vec<QoeEvent> = m.drain_events().collect();
        assert!(events.iter().any(|e| matches!(
            e,
            QoeEvent::ParseDrop {
                reason: ParseDropReason::Truncated { .. },
                ..
            }
        )));
    }

    #[test]
    fn json_lines_are_one_object_per_event() {
        let mut m = fixed(Method::IpUdpHeuristic).build();
        let flow = flow_key(1);
        for p in video_stream(2) {
            m.ingest_packet(flow, p);
        }
        m.ingest_packet(flow, pkt(-1, 100));
        for e in m.finish() {
            let line = e.to_json_line();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'), "single line: {line}");
            assert!(line.contains("\"type\""), "{line}");
        }
    }

    #[test]
    fn corrupt_first_timestamp_does_not_pin_the_clock() {
        // A corrupt far-future timestamp on the very first packet must
        // not anchor the stream clock a year ahead: sane traffic "in the
        // past" re-anchors it backward, so idle sweeps keep working.
        let year_us = 365 * 24 * 3_600i64 * 1_000_000;
        let mut m = fixed(Method::IpUdpHeuristic)
            .idle_timeout(Timestamp::from_secs(5))
            .build();
        let a = flow_key(1);
        let b = flow_key(2);
        m.ingest_packet(a, pkt(year_us, 1100));
        for p in video_stream(2) {
            m.ingest_packet(a, p);
        }
        // Flow B keeps the (re-anchored) clock moving after A goes idle.
        for s in 0..10i64 {
            m.ingest_packet(b, pkt(2_000_000 + s * 1_000_000, 1100));
        }
        let idle_evictions = m
            .drain_events()
            .filter(|e| {
                matches!(
                    e,
                    QoeEvent::FlowEvicted {
                        reason: EvictReason::Idle,
                        ..
                    }
                )
            })
            .count();
        assert!(
            idle_evictions >= 1,
            "idle sweeps must survive the corruption"
        );
        assert_eq!(m.active_flows(), 1, "only the live flow remains");
    }

    /// Finalized windows per flow, from a finished monitor's events.
    fn windows_by_flow(events: &[QoeEvent]) -> HashMap<FlowKey, Vec<WindowReport>> {
        let mut out: HashMap<FlowKey, Vec<WindowReport>> = HashMap::new();
        for e in events {
            if let Some(flow) = e.flow() {
                out.entry(flow)
                    .or_default()
                    .extend_from_slice(e.final_reports());
            }
        }
        for reports in out.values_mut() {
            reports.sort_by_key(|r| r.window);
        }
        out
    }

    #[test]
    fn threaded_monitor_matches_inline_windows() {
        let feed: Vec<(FlowKey, TracePacket)> = {
            let mut feed = Vec::new();
            for n in 1..=8u8 {
                for p in video_stream(3) {
                    let mut q = p;
                    q.size = q.size.saturating_add(u16::from(n) * 10);
                    feed.push((flow_key(n), q));
                }
            }
            feed.sort_by_key(|(_, p)| p.ts);
            feed
        };
        let run = |threads: usize| {
            let mut m = fixed(Method::IpUdpHeuristic).threads(threads).build();
            for (flow, p) in &feed {
                m.ingest_packet(*flow, *p);
            }
            m.finish()
        };
        let inline = windows_by_flow(&run(1));
        let threaded = windows_by_flow(&run(4));
        assert_eq!(inline.len(), 8);
        assert_eq!(threaded.len(), 8);
        for (flow, want) in &inline {
            let got = &threaded[flow];
            assert_eq!(got.len(), want.len(), "flow {flow}");
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.window, w.window, "flow {flow}");
                assert_eq!(g.estimate, w.estimate, "flow {flow} window {}", g.window);
            }
        }
    }

    #[test]
    fn threaded_monitor_preserves_per_flow_event_order() {
        let mut m = fixed(Method::IpUdpHeuristic).threads(3).build();
        let flows: Vec<FlowKey> = (1..=6).map(flow_key).collect();
        for p in video_stream(3) {
            for flow in &flows {
                m.ingest_packet(*flow, p);
            }
        }
        let mut seen_open: HashMap<FlowKey, bool> = HashMap::new();
        let mut last_window: HashMap<FlowKey, u64> = HashMap::new();
        let mut sealed: HashMap<FlowKey, bool> = HashMap::new();
        for e in m.finish() {
            match &e {
                QoeEvent::FlowOpened { flow, .. } => {
                    assert!(!seen_open.contains_key(flow), "duplicate open");
                    seen_open.insert(*flow, true);
                }
                QoeEvent::WindowReport { flow, report, .. } => {
                    assert!(seen_open[flow], "report before open");
                    assert!(!sealed.contains_key(flow), "report after seal");
                    if let Some(prev) = last_window.get(flow) {
                        assert!(report.window > *prev, "windows out of order");
                    }
                    last_window.insert(*flow, report.window);
                }
                QoeEvent::FlowEvicted { flow, .. } => {
                    assert!(seen_open[flow], "evict before open");
                    sealed.insert(*flow, true);
                }
                _ => {}
            }
        }
        assert_eq!(sealed.len(), 6, "every flow sealed exactly once");
    }

    #[test]
    fn drop_oldest_bounds_queue_and_accounts_drops() {
        // Reference: unbounded run counts every event the feed produces.
        let mut reference = fixed(Method::IpUdpHeuristic).build();
        let flow = flow_key(1);
        for p in video_stream(5) {
            reference.ingest_packet(flow, p);
        }
        let total = reference.drain_events().count();
        assert!(total > 4, "feed produces enough events to overflow");

        let mut m = fixed(Method::IpUdpHeuristic)
            .queue_capacity(3)
            .overflow(OverflowPolicy::DropOldest)
            .build();
        for p in video_stream(5) {
            m.ingest_packet(flow, p);
        }
        let drained: Vec<QoeEvent> = m.drain_events().collect();
        let QoeEvent::Dropped {
            count,
            ref per_flow,
        } = drained[0]
        else {
            panic!("drain must lead with the drop marker");
        };
        assert_eq!(drained.len() - 1, 3, "queue stayed at capacity");
        assert_eq!(
            count as usize + (drained.len() - 1),
            total,
            "dropped + kept == every event emitted"
        );
        let stats = m.stats();
        assert_eq!(stats.events_dropped, count);
        // Every shed event belonged to the one flow in the feed, so the
        // per-flow breakdown accounts for the full count in both the
        // marker and the stats snapshot.
        assert_eq!(per_flow.len(), 1);
        assert_eq!(per_flow[0], (flow, count));
        assert_eq!(stats.dropped_by_flow, *per_flow);
    }

    #[test]
    fn inline_block_policy_never_loses_events() {
        // The single-threaded producer cannot park on its own queue:
        // Block grows past the bound instead, so nothing is lost.
        let mut bounded = fixed(Method::IpUdpHeuristic).queue_capacity(2).build();
        let mut unbounded = fixed(Method::IpUdpHeuristic).build();
        let flow = flow_key(1);
        for p in video_stream(4) {
            bounded.ingest_packet(flow, p);
            unbounded.ingest_packet(flow, p);
        }
        assert_eq!(bounded.finish().len(), unbounded.finish().len());
    }

    #[test]
    fn reprobe_upgrades_late_rtp_flow() {
        use vcaml_rtp::RtpHeader;
        let mut m = MonitorBuilder::new(VcaKind::Teams)
            .method(EstimationMethod::AutoHeuristic)
            .build();
        let flow = flow_key(1);
        // A DTLS-style handshake long enough to flunk probation…
        for i in 0..RTP_PROBATION_PACKETS as i64 {
            m.ingest_packet(flow, pkt(i * 10_000, 900));
        }
        // …then real RTP media at 30 fps, two packets per frame, for
        // comfortably more than one re-probe interval.
        let frames = (RTP_REPROBE_PACKETS as i64) * 2;
        for f in 0..frames {
            let t0 = 200_000 + f * 33_333;
            for i in 0..2i64 {
                let mut p = pkt(t0 + i * 300, 1100);
                p.rtp = Some(RtpHeader::basic(
                    102,
                    (f * 2 + i) as u16,
                    (f * 3000) as u32,
                    1,
                    i == 1,
                ));
                m.ingest_packet(flow, p);
            }
        }
        let events = m.finish();
        let methods: Vec<Method> = events
            .iter()
            .flat_map(|e| e.final_reports())
            .map(|r| r.method)
            .collect();
        assert!(
            methods.contains(&Method::IpUdpHeuristic),
            "early windows use the fallback: {methods:?}"
        );
        assert!(
            methods.contains(&Method::RtpHeuristic),
            "re-probe upgrades to the RTP engine: {methods:?}"
        );
        // The upgrade seam must not double-report: every finalized
        // window index appears exactly once.
        let mut windows: Vec<u64> = events
            .iter()
            .flat_map(|e| e.final_reports())
            .map(|r| r.window)
            .collect();
        let n = windows.len();
        windows.sort_unstable();
        windows.dedup();
        assert_eq!(windows.len(), n, "no duplicate final windows at the seam");
        // Once upgraded, the flow stays upgraded.
        let last_fallback = methods.iter().rposition(|m| *m == Method::IpUdpHeuristic);
        let first_rtp = methods.iter().position(|m| *m == Method::RtpHeuristic);
        assert!(last_fallback.unwrap() < first_rtp.unwrap());
    }

    #[test]
    fn fixed_methods_never_reprobe() {
        // A fixed IP/UDP monitor must keep its engine even on pure RTP
        // traffic (the paper's no-RTP-access deployment).
        use vcaml_rtp::RtpHeader;
        let mut m = fixed(Method::IpUdpHeuristic).build();
        let flow = flow_key(1);
        for f in 0..(RTP_REPROBE_PACKETS as i64 * 2) {
            let mut p = pkt(f * 16_000, 1100);
            p.rtp = Some(RtpHeader::basic(102, f as u16, (f * 1500) as u32, 1, true));
            m.ingest_packet(flow, p);
        }
        for e in m.finish() {
            for r in e.final_reports() {
                assert_eq!(r.method, Method::IpUdpHeuristic);
            }
        }
    }

    /// A long-lived monitor receiving endless eviction requests keeps no
    /// state for them once applied: each shard's mailbox is emptied on
    /// application, and only the owner of a flow ever sees its request.
    #[test]
    fn control_requests_leave_no_state_once_applied() {
        for threads in [1, 2] {
            let mut m = fixed(Method::IpUdpHeuristic).threads(threads).build();
            let live = flow_key(1);
            for p in video_stream(2) {
                m.ingest_packet(live, p);
            }
            let mut events: Vec<QoeEvent> = m.drain_events().collect();
            let handle = m.handle();
            for n in 0..100_000u32 {
                let client = IpAddr::V4(Ipv4Addr::from(0x0a00_0000 | (n >> 16)));
                let (ghost, _) = FlowKey::canonical(
                    client,
                    n as u16,
                    IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
                    9,
                    17,
                );
                handle.evict_flow(ghost);
            }
            handle.evict_flow(live);
            let mailboxes_empty = |m: &Monitor| {
                m.control.mailboxes.iter().all(|mailbox| {
                    let requests = mailbox.requests.lock().unwrap();
                    !requests.flush && requests.evict.is_empty()
                })
            };
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            loop {
                events.extend(m.drain_events());
                let sealed = events
                    .iter()
                    .any(|e| matches!(e, QoeEvent::FlowEvicted { .. }));
                if (sealed && mailboxes_empty(&m)) || std::time::Instant::now() > deadline {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            assert!(
                mailboxes_empty(&m),
                "threads={threads}: requests left behind"
            );
            events.extend(m.finish());
            let requested = events
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        QoeEvent::FlowEvicted {
                            reason: EvictReason::Requested,
                            ..
                        }
                    )
                })
                .count();
            assert_eq!(requested, 1, "threads={threads}");
        }
    }

    #[test]
    fn corrupt_future_timestamp_does_not_mass_evict() {
        let mut m = fixed(Method::IpUdpHeuristic)
            .idle_timeout(Timestamp::from_secs(30))
            .build();
        let flow = flow_key(1);
        m.ingest_packet(flow, pkt(0, 1100));
        // A year-ahead corrupt timestamp advances the clock by at most one
        // idle timeout, so the healthy flow survives the next sweep.
        let year_us = 365 * 24 * 3_600i64 * 1_000_000;
        m.ingest_packet(flow, pkt(year_us, 1100));
        m.ingest_packet(flow, pkt(1_000_000, 1100));
        assert_eq!(m.active_flows(), 1);
        let evicted = m
            .drain_events()
            .filter(|e| matches!(e, QoeEvent::FlowEvicted { .. }))
            .count();
        assert_eq!(evicted, 0);
    }
}
