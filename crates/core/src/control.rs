//! The live control plane: observe and steer a running monitor.
//!
//! A [`MonitorHandle`] is a cheap, cloneable, thread-safe view onto a
//! [`Monitor`](crate::api::Monitor) — obtained from
//! [`Monitor::handle`](crate::api::Monitor::handle), from
//! [`MonitorRunner::handle`](crate::runner::MonitorRunner::handle), or
//! from a spawned
//! [`RunningMonitor`](crate::runner::RunningMonitor) — that stays valid
//! for the monitor's whole life (and keeps its counters readable after
//! `finish`). It exposes:
//!
//! * [`MonitorHandle::stats_snapshot`] — a consistent-enough live
//!   [`MonitorSnapshot`]: the running [`MonitorStats`] counters, flows
//!   live, undrained events, and the per-shard ingest-channel depths of
//!   a threaded monitor;
//! * [`MonitorHandle::force_flush`] — ask every shard for provisional
//!   snapshots of its pending windows (freshness on demand, same
//!   semantics as the builder's max-lag flush);
//! * [`MonitorHandle::evict_flow`] — seal one flow now, surfacing its
//!   tail windows as a [`QoeEvent::FlowEvicted`](crate::api::QoeEvent)
//!   with [`EvictReason::Requested`](crate::api::EvictReason);
//! * [`MonitorHandle::set_alert_fps`] — retune the live
//!   [`AlertThresholds`] every severity-filtered subscriber and shared
//!   [`AlertSink`](crate::sink::AlertSink) reads;
//! * [`MonitorHandle::stop`] — gracefully stop a run: ingest threads stop
//!   pulling from their sources, in-flight packets are flushed, and the
//!   monitor seals every flow — no event produced before the stop is
//!   lost (a tested invariant).
//!
//! Control requests go to per-shard mailboxes, applied by whichever
//! thread owns the flow state: a shard worker after every batch (an idle
//! worker is woken), an inline monitor on its next `ingest`/`drain`
//! call. Posting never blocks, and applying a mailbox empties it, so
//! control state stays bounded however many requests a long-lived
//! monitor receives. Handles never touch engines directly, and a
//! dropped or forgotten handle costs nothing.

use crate::api::{worker_of, MonitorStats, QoeEvent, ShardMsg, StatsCells};
use crate::backpressure::EventQueue;
use crate::bus::{AlertThresholds, Severity};
use crate::pipeline::Method;
use serde::{Map, Serialize, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex, PoisonError};
use vcaml_netpkt::FlowKey;
use vcaml_vcasim::VcaProfile;

/// Shared control cells between a monitor's owner-side state (shard
/// workers or the inline shard) and every [`MonitorHandle`].
#[derive(Debug)]
pub(crate) struct ControlShared {
    /// Graceful-stop flag; the runner's ingest loops check it between
    /// packets.
    stop: AtomicBool,
    /// One control mailbox per shard (one on an inline monitor).
    pub(crate) mailboxes: Vec<Mailbox>,
    /// Wake-up senders into each shard worker's channel (empty on an
    /// inline monitor); `None` once the monitor has shut down, so a
    /// surviving handle neither keeps workers alive nor queues requests
    /// nobody will apply.
    wakers: Mutex<Option<Vec<SyncSender<ShardMsg>>>>,
    /// Live alert thresholds (severity classification + shared sinks).
    pub(crate) thresholds: AlertThresholds,
    /// Per-worker ingest backlog, in packets handed to the worker's
    /// channel and not yet processed. Empty on an inline monitor.
    depths: Vec<AtomicU64>,
    /// Per-worker tracked-flow footprint in bytes (engine state plus
    /// table overhead), refreshed by each shard's idle sweep. One slot
    /// even on an inline monitor (its shard publishes as worker 0).
    flow_bytes: Vec<AtomicU64>,
    /// Flows counted into the matching `flow_bytes` slot.
    flow_counts: Vec<AtomicU64>,
    /// Events published by the bus, by [`Severity`] slot
    /// ([`Severity::index`]). Written only by the drain thread (where
    /// severity is classified, exactly once per event); read by
    /// snapshots and the metrics exporter.
    severity_counts: [AtomicU64; 3],
    /// Finalized window reports by [`Method`] slot ([`Method::index`]),
    /// same writer discipline as `severity_counts`.
    windows_by_method: [AtomicU64; 4],
}

/// One shard's pending control requests.
#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    /// Whether `requests` holds anything — the lock-free check an inline
    /// monitor pays per packet. Written under the `requests` lock, and a
    /// reader that sees it set takes that lock before reading anything,
    /// so it publishes no data of its own (`Relaxed`).
    pending: AtomicBool,
    /// Every update is one flag store or one push, so a lock poisoned by
    /// a panic elsewhere still guards valid requests and is recovered.
    pub(crate) requests: Mutex<Requests>,
}

/// What a mailbox holds between two applications by its shard.
#[derive(Debug, Default)]
pub(crate) struct Requests {
    /// A provisional flush of every flow is due.
    pub(crate) flush: bool,
    /// Flows to seal now, all owned by this shard.
    pub(crate) evict: Vec<FlowKey>,
}

impl ControlShared {
    /// Cells for a monitor whose shard workers listen on `wakers` (none
    /// for an inline monitor).
    pub(crate) fn new(wakers: Vec<SyncSender<ShardMsg>>) -> Self {
        let workers = wakers.len();
        ControlShared {
            stop: AtomicBool::new(false),
            mailboxes: (0..workers.max(1)).map(|_| Mailbox::default()).collect(),
            wakers: Mutex::new(Some(wakers)),
            thresholds: AlertThresholds::new(),
            depths: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            flow_bytes: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            flow_counts: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            severity_counts: Default::default(),
            windows_by_method: Default::default(),
        }
    }

    /// Folds one published event into the drain-side telemetry: its
    /// severity count, and one window count per finalized report.
    /// Called by the bus on the drain thread only.
    pub(crate) fn record_published(&self, event: &QoeEvent, severity: Severity) {
        self.severity_counts[severity.index()].fetch_add(1, Relaxed);
        for report in event.final_reports() {
            self.windows_by_method[report.method.index()].fetch_add(1, Relaxed);
        }
    }

    /// Published-event counts by [`Severity`] slot.
    pub(crate) fn severity_counts(&self) -> [u64; 3] {
        self.severity_counts.each_ref().map(|c| c.load(Relaxed))
    }

    /// Finalized-window counts by [`Method`] slot.
    pub(crate) fn windows_by_method(&self) -> [u64; 4] {
        self.windows_by_method.each_ref().map(|c| c.load(Relaxed))
    }

    pub(crate) fn stop_requested(&self) -> bool {
        self.stop.load(Relaxed)
    }

    /// Adds a request to `shard`'s mailbox and wakes its worker. Never
    /// blocks: the wake-up is a `try_send`, and a full channel already
    /// guarantees the worker another pass over its mailbox. A no-op once
    /// the monitor has shut down.
    fn post(&self, shard: usize, add: impl FnOnce(&mut Requests)) {
        let wakers = self.wakers.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(wakers) = wakers.as_ref() else {
            return;
        };
        let mailbox = &self.mailboxes[shard];
        let mut requests = mailbox
            .requests
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        add(&mut requests);
        mailbox.pending.store(true, Relaxed);
        drop(requests);
        if let Some(waker) = wakers.get(shard) {
            let _ = waker.try_send(ShardMsg::Control);
        }
    }

    /// Empties `shard`'s mailbox, returning what it held (`None`, after
    /// one relaxed load, when nothing is pending).
    pub(crate) fn take_requests(&self, shard: usize) -> Option<Requests> {
        let mailbox = &self.mailboxes[shard];
        if !mailbox.pending.load(Relaxed) {
            return None;
        }
        let mut requests = mailbox
            .requests
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        mailbox.pending.store(false, Relaxed);
        Some(std::mem::take(&mut *requests))
    }

    /// Drops the wakers at shutdown, so the workers' channels can
    /// disconnect and later requests are discarded.
    pub(crate) fn close(&self) {
        *self.wakers.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Records `n` packets handed to `worker`'s channel.
    pub(crate) fn depth_add(&self, worker: usize, n: u64) {
        if let Some(cell) = self.depths.get(worker) {
            cell.fetch_add(n, Relaxed);
        }
    }

    /// Records `n` packets processed by `worker`.
    pub(crate) fn depth_sub(&self, worker: usize, n: u64) {
        if let Some(cell) = self.depths.get(worker) {
            cell.fetch_sub(n, Relaxed);
        }
    }

    /// Publishes `worker`'s tracked-flow footprint (idle-sweep cadence:
    /// once per stream-second of that shard's traffic).
    pub(crate) fn set_flow_footprint(&self, worker: usize, bytes: u64, flows: u64) {
        if let Some(cell) = self.flow_bytes.get(worker) {
            cell.store(bytes, Relaxed);
        }
        if let Some(cell) = self.flow_counts.get(worker) {
            cell.store(flows, Relaxed);
        }
    }

    /// Summed footprint across workers: `(bytes, flows)`.
    pub(crate) fn flow_footprint(&self) -> (u64, u64) {
        let bytes = self.flow_bytes.iter().map(|c| c.load(Relaxed)).sum();
        let flows = self.flow_counts.iter().map(|c| c.load(Relaxed)).sum();
        (bytes, flows)
    }
}

/// A live, consistent-enough snapshot of a monitor's state, taken by
/// [`MonitorHandle::stats_snapshot`]. On a threaded monitor the counters
/// are eventually consistent (packets still queued on a shard channel
/// are not yet counted); after `finish` everything is settled.
#[derive(Debug, Clone)]
pub struct MonitorSnapshot {
    /// The running ingest/emit counters.
    pub stats: MonitorStats,
    /// Flows currently tracked (opened minus evicted).
    pub flows_live: u64,
    /// Events queued for the consumer and not yet drained.
    pub pending_events: usize,
    /// Per-shard-worker ingest backlog, in packets handed to the worker
    /// and not yet processed. Empty on an inline monitor.
    pub shard_depths: Vec<u64>,
    /// Estimated resident bytes per tracked flow: engine state plus flow
    /// table overhead, averaged over the flows live at the last idle
    /// sweep (0 until a shard has swept). [`StatsMode::Sketch`]
    /// engines hold this constant regardless of window content — the
    /// strictly-O(1)-per-flow deployment story.
    ///
    /// [`StatsMode::Sketch`]: vcaml_features::StatsMode::Sketch
    pub bytes_per_flow: u64,
    /// The live alert frame-rate bar, if one is set.
    pub alert_fps: Option<f64>,
    /// The live alert bitrate floor (kbps), if one is set.
    pub alert_min_kbps: Option<f64>,
    /// The live resolution-class floor (frame height), if one is set.
    pub alert_resolution_floor: Option<u32>,
    /// Events published on the bus so far, by severity
    /// ([`Severity::ALL`] order: info, warning, critical). All zero
    /// until a drain loop with an attached bus has run.
    pub events_by_severity: [u64; 3],
    /// Finalized window reports published on the bus, by method
    /// ([`Method::ALL`] order). Same caveat as `events_by_severity`.
    pub windows_by_method: [u64; 4],
    /// Whether a graceful stop has been requested.
    pub stop_requested: bool,
}

impl MonitorSnapshot {
    /// One compact JSON object (`"type":"stats"`), the JSON-lines form
    /// the CLI's `--stats-every` emits to stderr.
    pub fn to_json_line(&self) -> String {
        // lint: allow(no-unwrap-in-lib) -- serializing an in-memory snapshot via the serde shim cannot fail
        serde_json::to_string(self).expect("snapshot serialization is infallible")
    }
}

impl Serialize for MonitorSnapshot {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("type".into(), Value::String("stats".into()));
        m.insert("stats".into(), self.stats.to_value());
        m.insert("flows_live".into(), self.flows_live.to_value());
        m.insert("pending_events".into(), self.pending_events.to_value());
        m.insert(
            "shard_depths".into(),
            Value::Array(self.shard_depths.iter().map(|d| d.to_value()).collect()),
        );
        m.insert("bytes_per_flow".into(), self.bytes_per_flow.to_value());
        if let Some(fps) = self.alert_fps {
            m.insert("alert_fps".into(), fps.to_value());
        }
        if let Some(kbps) = self.alert_min_kbps {
            m.insert("alert_min_kbps".into(), kbps.to_value());
        }
        if let Some(height) = self.alert_resolution_floor {
            m.insert("alert_resolution_floor".into(), height.to_value());
        }
        let mut sev = Map::new();
        for s in Severity::ALL {
            sev.insert(
                s.name().into(),
                self.events_by_severity[s.index()].to_value(),
            );
        }
        m.insert("events_by_severity".into(), Value::Object(sev));
        let mut methods = Map::new();
        for method in Method::ALL {
            methods.insert(
                method.slug().into(),
                self.windows_by_method[method.index()].to_value(),
            );
        }
        m.insert("windows_by_method".into(), Value::Object(methods));
        m.insert("stop_requested".into(), Value::Bool(self.stop_requested));
        Value::Object(m)
    }
}

/// A cloneable live handle onto a monitor: snapshot its counters, force
/// a flush, evict a flow, retune alert thresholds, request a graceful
/// stop. See the [module docs](self) for semantics and timing.
#[derive(Clone)]
pub struct MonitorHandle {
    pub(crate) control: Arc<ControlShared>,
    pub(crate) stats: Arc<StatsCells>,
    pub(crate) queue: Arc<EventQueue>,
}

impl MonitorHandle {
    /// Takes a live [`MonitorSnapshot`]. Never blocks the data path
    /// (counter loads plus one short queue lock).
    pub fn stats_snapshot(&self) -> MonitorSnapshot {
        let stats = self
            .stats
            .snapshot(self.queue.dropped_total(), self.queue.dropped_by_flow());
        let flows_live = stats.flows_opened.saturating_sub(stats.flows_evicted);
        let (footprint_bytes, footprint_flows) = self.control.flow_footprint();
        MonitorSnapshot {
            flows_live,
            bytes_per_flow: footprint_bytes
                .checked_div(footprint_flows)
                .unwrap_or_default(),
            pending_events: self.queue.len(),
            shard_depths: self
                .control
                .depths
                .iter()
                .map(|d| d.load(Relaxed))
                .collect(),
            alert_fps: self.alert_fps(),
            alert_min_kbps: self.alert_min_kbps(),
            alert_resolution_floor: self.control.thresholds.resolution_floor(),
            events_by_severity: self.control.severity_counts(),
            windows_by_method: self.control.windows_by_method(),
            stop_requested: self.control.stop_requested(),
            stats,
        }
    }

    /// Asks every shard to emit provisional snapshots of its flows'
    /// pending windows (marked `provisional: true`, superseded by later
    /// final reports — the same contract as the builder's
    /// `flush_after_packets`). Posted to every shard's mailbox, where
    /// repeated requests coalesce; a shard worker applies it after its
    /// current batch (an idle one is woken), an inline monitor on its
    /// next `ingest`/`drain` call. Never blocks.
    pub fn force_flush(&self) {
        for shard in 0..self.control.mailboxes.len() {
            self.control.post(shard, |r| r.flush = true);
        }
    }

    /// Asks the owning shard to seal `flow` now: its engine is finished
    /// and the tail windows surface as a `FlowEvicted` event with
    /// [`EvictReason::Requested`](crate::api::EvictReason::Requested).
    /// Unknown flows are ignored. Posted only to the mailbox of the shard
    /// that owns the flow; same application timing as
    /// [`MonitorHandle::force_flush`], and never blocks.
    pub fn evict_flow(&self, flow: FlowKey) {
        let shard = worker_of(flow.hash64(), self.control.mailboxes.len());
        self.control.post(shard, |r| r.evict.push(flow));
    }

    /// The live [`AlertThresholds`] (a shared handle: retuning through
    /// it is visible to the bus and every shared alert sink).
    pub fn alert_thresholds(&self) -> AlertThresholds {
        self.control.thresholds.clone()
    }

    /// Retunes the alert frame-rate bar, effective from the next event.
    pub fn set_alert_fps(&self, fps: f64) {
        self.control.thresholds.set_fps(fps);
    }

    /// The live alert frame-rate bar, if one is set.
    pub fn alert_fps(&self) -> Option<f64> {
        let fps = self.control.thresholds.fps();
        (fps > f64::NEG_INFINITY).then_some(fps)
    }

    /// Retunes the alert bitrate floor (kbps), effective from the next
    /// event: finalized windows estimating below it classify as
    /// [`Severity::Warning`] and trip shared alert sinks.
    pub fn set_alert_min_kbps(&self, kbps: f64) {
        self.control.thresholds.set_min_kbps(kbps);
    }

    /// The live alert bitrate floor (kbps), if one is set.
    pub fn alert_min_kbps(&self) -> Option<f64> {
        let kbps = self.control.thresholds.min_kbps();
        (kbps > f64::NEG_INFINITY).then_some(kbps)
    }

    /// Sets the resolution-class floor: `height` is mapped through
    /// `ladder` (the VCA's bitrate ladder) to a kbps bound once, here,
    /// so per-event classification stays lock-free. Height 0 clears the
    /// floor. See
    /// [`AlertThresholds::set_resolution_floor`](crate::bus::AlertThresholds::set_resolution_floor).
    pub fn set_alert_resolution_floor(&self, height: u32, ladder: &VcaProfile) {
        self.control.thresholds.set_resolution_floor(height, ladder);
    }

    /// The live resolution-class floor (frame height), if one is set.
    pub fn alert_resolution_floor(&self) -> Option<u32> {
        self.control.thresholds.resolution_floor()
    }

    /// Requests a graceful stop: every ingest thread stops pulling from
    /// its source at the next packet boundary, in-flight packets are
    /// flushed to the shards, and the run seals every flow — events
    /// already produced are all delivered. Idempotent; never blocks.
    pub fn stop(&self) {
        self.control.stop.store(true, Relaxed);
    }

    /// Whether a graceful stop has been requested.
    pub fn stop_requested(&self) -> bool {
        self.control.stop_requested()
    }

    /// The shared control cells — in-crate only, for wiring a bus's
    /// drain-side telemetry back into this monitor's snapshots.
    pub(crate) fn control_cells(&self) -> Arc<ControlShared> {
        Arc::clone(&self.control)
    }

    /// A minimal stop-flag view for sources that sleep (see
    /// [`Paced::with_stop`](crate::source::Paced::with_stop)).
    pub fn stop_token(&self) -> StopToken {
        StopToken {
            control: Arc::clone(&self.control),
        }
    }
}

impl std::fmt::Debug for MonitorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorHandle")
            .field("snapshot", &self.stats_snapshot())
            .finish_non_exhaustive()
    }
}

/// A cloneable view of just the graceful-stop flag, for packet sources
/// that wait (real-time pacing, future live taps) and must notice a
/// [`MonitorHandle::stop`] without polling the full handle.
#[derive(Clone)]
pub struct StopToken {
    control: Arc<ControlShared>,
}

impl StopToken {
    /// Whether a graceful stop has been requested.
    pub fn is_stopped(&self) -> bool {
        self.control.stop_requested()
    }
}

impl std::fmt::Debug for StopToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StopToken")
            .field("stopped", &self.is_stopped())
            .finish()
    }
}
