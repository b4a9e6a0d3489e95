//! One run of the production path — `PcapFileSource → parse → route →
//! shard hand-off → FlowTable → engine → seal → event queue → EventBus →
//! sink` — driven by `MonitorRunner::run`, with an audit subscriber that
//! checks every final window it sees.

use crate::input::{self, Capture, LoopReader, PassMarks, Stop};
use crate::sys;
use crate::workload::{Drive, MODEL_METHOD};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use vcaml::bus::EventKind;
use vcaml::sink::report_fps;
use vcaml::source::SourcePacket;
use vcaml::{
    EventFilter, EventSink, JsonLinesSink, MonitorRunner, PacketSource, PcapFileSource, QoeEvent,
    RunnerReport, WindowReport,
};
use vcaml_netpkt::{Error as NetError, FlowKey};

/// The open-loop schedule: capture time `ts` is due `(ts - first_ts) /
/// speed` after the tap's first pull.
struct Schedule {
    first_ts_us: i64,
    speed: f64,
}

impl Schedule {
    fn due_nanos(&self, ts_us: i64) -> u64 {
        ((ts_us - self.first_ts_us).max(0) as f64 * 1_000.0 / self.speed) as u64
    }
}

/// Generator lateness histogram: 10 µs buckets up to one second.
pub struct Lateness {
    buckets: Vec<u32>,
    n: u64,
}

const LATE_BUCKET_US: u64 = 10;

impl Lateness {
    fn new() -> Lateness {
        Lateness {
            buckets: vec![0; 100_000],
            n: 0,
        }
    }

    fn record(&mut self, late: Duration) {
        self.n += 1;
        let last = self.buckets.len() - 1;
        self.buckets[((late.as_micros() as u64 / LATE_BUCKET_US) as usize).min(last)] += 1;
    }

    /// The p99 lateness, ms (upper edge of its bucket).
    pub fn p99_ms(&self) -> f64 {
        let target = (self.n as f64 * 0.99).ceil() as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += u64::from(b);
            if seen >= target {
                return ((i as u64 + 1) * LATE_BUCKET_US) as f64 / 1_000.0;
            }
        }
        (self.buckets.len() as u64 * LATE_BUCKET_US) as f64 / 1_000.0
    }
}

/// When the tap offered the last packet of each call-flow window: written
/// by the tap on its ingest thread, read by the audit sink on the drain
/// thread. Each slot keeps its last `PASS_RING` passes, each entry packing
/// `(pass + 1) << PASS_SHIFT | nanos since origin`, so a report may trail
/// its packets by several passes and still find its offer time.
struct Offers {
    origin: OnceLock<Instant>,
    slots: Vec<AtomicU64>,
}

const PASS_SHIFT: u32 = 44;
const PASS_RING: usize = 16;

impl Offers {
    fn new(slots: usize) -> Offers {
        Offers {
            origin: OnceLock::new(),
            slots: (0..slots * PASS_RING).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn entry(slot: u32, pass: u64) -> usize {
        slot as usize * PASS_RING + (pass % PASS_RING as u64) as usize
    }

    /// Records that `slot`'s packet of `pass` was offered at `at`.
    fn offer(&self, slot: u32, pass: u64, at: Instant) {
        let origin = *self.origin.get().expect("set before any offer");
        let nanos = (at - origin).as_nanos() as u64;
        self.slots[Self::entry(slot, pass)].store((pass + 1) << PASS_SHIFT | nanos, Relaxed);
    }

    /// When `slot`'s packet of `pass` was offered, if it has been.
    fn offered(&self, slot: u32, pass: u64) -> Option<Instant> {
        let v = self.slots[Self::entry(slot, pass)].load(Relaxed);
        (v >> PASS_SHIFT == pass + 1).then(|| {
            *self.origin.get().expect("set before any offer")
                + Duration::from_nanos(v & ((1 << PASS_SHIFT) - 1))
        })
    }
}

/// The emulated tap: pulls the looping capture through `PcapFileSource`
/// and notes when each window-closing call packet was offered. Closed
/// loop it offers every packet as soon as it is pulled; open loop it
/// reports `is_live()`, sleeps until each packet is due, never releases
/// one early, and records how late it ran.
struct Tap {
    inner: PcapFileSource<LoopReader>,
    cap: Arc<Capture>,
    index: usize,
    pass: u64,
    offers: Arc<Offers>,
    schedule: Option<Schedule>,
    late: Option<Lateness>,
    late_out: Arc<Mutex<Option<Lateness>>>,
}

impl PacketSource for Tap {
    fn next_packet(&mut self) -> Result<Option<SourcePacket>, NetError> {
        let Some(pkt) = self.inner.next_packet()? else {
            *self.late_out.lock().expect("lateness slot") = self.late.take();
            return Ok(None);
        };
        let origin = *self.offers.origin.get_or_init(Instant::now);
        let slot = self.cap.record_slot(self.index);
        let offered = match &self.schedule {
            Some(schedule) => {
                let due = origin + Duration::from_nanos(schedule.due_nanos(pkt.ts().as_micros()));
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                if let Some(late) = &mut self.late {
                    late.record(Instant::now().saturating_duration_since(due));
                }
                Some(due)
            }
            None => slot.map(|_| Instant::now()),
        };
        if let (Some(slot), Some(at)) = (slot, offered) {
            self.offers.offer(slot, self.pass, at);
        }
        self.index += 1;
        if self.index as u64 == self.cap.frames() {
            self.index = 0;
            self.pass += 1;
        }
        Ok(Some(pkt))
    }

    fn is_live(&self) -> bool {
        self.schedule.is_some()
    }
}

/// What the audit subscriber saw over a run.
#[derive(Debug, Default, Clone)]
pub struct Audit {
    /// Final windows from standalone `WindowReport` events.
    pub standalone_windows: u64,
    /// Final windows carried by `FlowEvicted` events (sealed by idle
    /// eviction or end of stream).
    pub evicted_windows: u64,
    /// Windows skipped within a flow's lifetime.
    pub missing: u64,
    /// Windows reported twice (or out of order) within a lifetime.
    pub duplicated: u64,
    /// `model_fps` values from a method the model was not trained for.
    pub wrong_model: u64,
    /// `FlowOpened` for a flow whose previous lifetime never ended.
    pub reopened: u64,
    /// Flow lifetimes opened and sealed.
    pub opened: u64,
    /// Flow lifetimes sealed.
    pub sealed: u64,
    /// Sum of |reported fps − truth| over windows with truth.
    pub fps_abs_err: f64,
    /// Windows with truth.
    pub fps_n: u64,
    /// Report lag of call-flow windows finalized by a later packet, ms:
    /// from when the window's last packet was offered to the final report
    /// at this sink. Windows sealed by eviction or end of stream are not
    /// included.
    pub lags_ms: Vec<f64>,
    /// Standalone final windows with no packet of their own (idle
    /// windows and probes), which have no offer time.
    pub idle_windows: u64,
    /// Standalone final windows whose offer time was already overwritten
    /// by a later pass (none expected).
    pub unmatched_windows: u64,
    /// Final windows per flow key, summed over lifetimes.
    pub per_flow: HashMap<FlowKey, u64>,
}

impl Audit {
    /// Mean absolute frame-rate error against simulator truth.
    pub fn fps_mae(&self) -> f64 {
        self.fps_abs_err / self.fps_n.max(1) as f64
    }
}

/// Checks every final window as it reaches the bus: per-flow contiguity,
/// model provenance, accuracy against truth, and (open loop) report lag.
struct AuditSink {
    cap: Arc<Capture>,
    offers: Arc<Offers>,
    /// Next expected window per live flow lifetime (`None` until its
    /// first report).
    open: HashMap<FlowKey, Option<u64>>,
    audit: Audit,
    out: Arc<Mutex<Option<Audit>>>,
}

impl AuditSink {
    fn check(&mut self, flow: FlowKey, r: &WindowReport, sealed: bool) {
        let a = &mut self.audit;
        if sealed {
            a.evicted_windows += 1;
        } else {
            a.standalone_windows += 1;
        }
        *a.per_flow.entry(flow).or_default() += 1;
        match self.open.get_mut(&flow) {
            Some(next) => {
                match *next {
                    Some(n) if r.window < n => a.duplicated += 1,
                    Some(n) => a.missing += r.window - n,
                    None => {}
                }
                *next = Some(r.window + 1);
            }
            // A report for a flow that was never opened.
            None => a.missing += 1,
        }
        if r.model_fps.is_some() && r.method != MODEL_METHOD {
            a.wrong_model += 1;
        }
        if let (Some(fps), Some(truth)) = (report_fps(r), self.cap.truth_fps(&flow, r.window)) {
            a.fps_abs_err += (fps - truth).abs();
            a.fps_n += 1;
        }
        if !sealed {
            match self.cap.window_slot(&flow, r.window) {
                None => a.idle_windows += 1,
                Some((slot, pass)) => match self.offers.offered(slot, pass) {
                    Some(at) => a
                        .lags_ms
                        .push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3),
                    None => a.unmatched_windows += 1,
                },
            }
        }
    }
}

impl EventSink for AuditSink {
    fn on_event(&mut self, event: &Arc<QoeEvent>) {
        match &**event {
            QoeEvent::FlowOpened { flow, .. } => {
                self.audit.opened += 1;
                if self.open.insert(*flow, None).is_some() {
                    self.audit.reopened += 1;
                }
            }
            QoeEvent::WindowReport {
                flow,
                report,
                provisional: false,
            } => self.check(*flow, report, false),
            QoeEvent::FlowEvicted {
                flow,
                final_reports,
                ..
            } => {
                for r in final_reports {
                    self.check(*flow, r, true);
                }
                self.audit.sealed += 1;
                self.open.remove(flow);
            }
            _ => {}
        }
    }

    fn flush(&mut self) {
        *self.out.lock().expect("audit slot") = Some(std::mem::take(&mut self.audit));
    }
}

/// Accepts every byte and keeps none (the JSON-lines sink's writer).
struct Discard;

impl std::io::Write for Discard {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// How long a run lasts.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// Closed loop until this much wall time has passed (rounded up to a
    /// whole pass).
    Wall(Duration),
    /// Exactly this many passes of the capture.
    Passes(u64),
}

/// The measured outcome of one run.
pub struct Outcome {
    /// Frames pulled from the source.
    pub offered: u64,
    /// Wall time of `MonitorRunner::run`.
    pub wall: Duration,
    /// Process CPU (user + sys) over the run.
    pub cpu: Duration,
    /// Wall clock and process CPU at the start and the end of every pass
    /// (see [`PassMarks`]).
    pub marks: Vec<(Instant, Duration)>,
    /// The runner's settled report.
    pub report: RunnerReport,
    /// What the audit subscriber saw.
    pub audit: Audit,
    /// Generator lateness (open loop only).
    pub late: Option<Lateness>,
    /// Largest sampled `pending_events` ([`Probe::Pending`]).
    pub pending_max: usize,
    /// Peak RSS over the run above the [`Probe::Memory`] baseline, MiB.
    pub mem_peak_mb: f64,
}

impl Outcome {
    /// Passes of the capture replayed in full.
    pub fn passes(&self) -> usize {
        self.marks.len().saturating_sub(1)
    }

    /// Offered frames per wall second over the whole run.
    pub fn overall_pps(&self) -> f64 {
        self.offered as f64 / self.wall.as_secs_f64()
    }

    /// Process CPU per offered frame over the whole run, ns.
    pub fn overall_cpu_ns(&self) -> f64 {
        self.cpu.as_nanos() as f64 / self.offered.max(1) as f64
    }

    /// Median over passes of the frames offered per wall second: a pass
    /// slowed by another tenant of the host moves it less than the
    /// whole-run ratio.
    pub fn throughput_pps(&self, frames_per_pass: u64) -> f64 {
        self.per_pass(|wall, _| frames_per_pass as f64 / wall.as_secs_f64())
            .unwrap_or_else(|| self.overall_pps())
    }

    /// Median over passes of process CPU per offered frame, ns.
    pub fn cpu_ns_per_pkt(&self, frames_per_pass: u64) -> f64 {
        self.per_pass(|_, cpu| cpu.as_nanos() as f64 / frames_per_pass as f64)
            .unwrap_or_else(|| self.overall_cpu_ns())
    }

    fn per_pass(&self, f: impl Fn(Duration, Duration) -> f64) -> Option<f64> {
        let mut v = self.pass_values(f);
        (!v.is_empty()).then(|| sys::median(&mut v))
    }

    /// `f(wall, cpu)` of every completed pass, in pass order.
    pub fn pass_values(&self, f: impl Fn(Duration, Duration) -> f64) -> Vec<f64> {
        self.marks
            .windows(2)
            .map(|m| f(m[1].0 - m[0].0, m[1].1 - m[0].1))
            .collect()
    }

    /// Output-check violations; empty when the run is correct.
    pub fn violations(&self) -> Vec<String> {
        let s = &self.report.stats;
        let a = &self.audit;
        let mut v = Vec::new();
        if s.packets + s.parse_drops != self.offered {
            v.push(format!(
                "routed {} + parse-dropped {} != offered {}",
                s.packets, s.parse_drops, self.offered
            ));
        }
        if s.events_dropped != 0 {
            v.push(format!("{} events shed under Block", s.events_dropped));
        }
        if a.missing + a.duplicated != 0 {
            v.push(format!(
                "{} missing and {} duplicated final windows",
                a.missing, a.duplicated
            ));
        }
        if a.wrong_model != 0 {
            v.push(format!(
                "{} model_fps values from a method the model was not trained for",
                a.wrong_model
            ));
        }
        if a.reopened != 0 || a.opened != a.sealed || a.opened != s.flows_opened {
            v.push(format!(
                "flow lifetimes: {} opened on the bus ({} reopened), {} sealed, {} per stats",
                a.opened, a.reopened, a.sealed, s.flows_opened
            ));
        }
        if a.standalone_windows + a.evicted_windows != s.window_reports {
            v.push(format!(
                "{} final windows on the bus, {} counted by the monitor",
                a.standalone_windows + a.evicted_windows,
                s.window_reports
            ));
        }
        v
    }

    /// Offered frames neither routed nor parse-dropped, plus final windows
    /// missing, duplicated or shed.
    pub fn failed(&self) -> u64 {
        let s = &self.report.stats;
        let a = &self.audit;
        self.offered.abs_diff(s.packets + s.parse_drops)
            + a.missing
            + a.duplicated
            + a.wrong_model
            + s.events_dropped
    }
}

/// What a run measures besides its timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Nothing more.
    None,
    /// Peak RSS over the run above this baseline (bytes). The heap is
    /// trimmed and the kernel's peak mark reset just before the run.
    Memory(u64),
    /// The event queue depth, polled every millisecond.
    Pending,
}

/// Replays the capture through `runner` (whose monitor is already built)
/// into a JSON-lines sink and the audit subscriber, driven as `drive`
/// says.
pub fn run(
    cap: &Arc<Capture>,
    runner: MonitorRunner,
    drive: Drive,
    length: Length,
    probe: Probe,
) -> Outcome {
    let marks = PassMarks::default();
    let stop = match length {
        Length::Passes(n) => Stop::Passes(n),
        Length::Wall(d) => Stop::Deadline(Instant::now() + d),
    };
    let offers = Arc::new(Offers::new(cap.slots()));
    let late_out = Arc::new(Mutex::new(None));
    let schedule = match drive {
        Drive::OpenLoop { speed } => Some(Schedule {
            first_ts_us: cap.first_ts_us,
            speed,
        }),
        Drive::ClosedLoop => None,
    };
    let tap = Tap {
        inner: input::pcap_source(cap, stop, Arc::clone(&marks)),
        cap: Arc::clone(cap),
        index: 0,
        pass: 0,
        offers: Arc::clone(&offers),
        late: schedule.as_ref().map(|_| Lateness::new()),
        schedule,
        late_out: Arc::clone(&late_out),
    };
    let audit_out = Arc::new(Mutex::new(None));
    let audit = AuditSink {
        cap: Arc::clone(cap),
        offers,
        open: HashMap::new(),
        audit: Audit::default(),
        out: Arc::clone(&audit_out),
    };
    let runner = runner
        .source(tap)
        .sink(JsonLinesSink::new(Discard))
        .subscribe(
            EventFilter::all().kinds([
                EventKind::FlowOpened,
                EventKind::WindowReport,
                EventKind::FlowEvicted,
            ]),
            audit,
        );
    let handle = runner.handle();
    let done = AtomicBool::new(false);
    let rss0 = match probe {
        Probe::Memory(rss0) => {
            sys::trim_heap();
            sys::reset_peak_rss();
            Some(rss0)
        }
        Probe::None | Probe::Pending => None,
    };
    let cpu0 = sys::process_cpu();
    let t0 = Instant::now();
    let (report, pending_max) = std::thread::scope(|scope| {
        let sampler = (probe == Probe::Pending).then(|| {
            scope.spawn(|| {
                let mut max = 0;
                while !done.load(Relaxed) {
                    max = max.max(handle.stats_snapshot().pending_events);
                    std::thread::sleep(Duration::from_millis(1));
                }
                max
            })
        });
        let report = runner.run();
        done.store(true, Relaxed);
        let max = sampler.map_or(0, |s| s.join().expect("pending sampler"));
        (report, max)
    });
    let wall = t0.elapsed();
    let cpu = sys::process_cpu() - cpu0;
    let mem_peak_mb = rss0.map_or(0.0, |rss0| {
        sys::peak_rss_bytes().saturating_sub(rss0) as f64 / (1024.0 * 1024.0)
    });
    let audit = audit_out
        .lock()
        .expect("audit slot")
        .take()
        .expect("the runner flushes its sinks");
    let late = late_out.lock().expect("lateness slot").take();
    let taken = std::mem::take(&mut *marks.lock().expect("pass marks"));
    Outcome {
        offered: report.sources.iter().map(|s| s.packets).sum(),
        wall,
        cpu,
        marks: taken,
        report,
        audit,
        late,
        pending_max,
        mem_peak_mb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcaml::Method;

    fn report(window: u64, method: Method, model_fps: Option<f64>) -> WindowReport {
        WindowReport {
            window,
            method,
            estimate: None,
            features: None,
            model_fps,
            video_packets: 0,
        }
    }

    #[test]
    fn audit_flags_gaps_duplicates_and_foreign_model_output() {
        let cap = Arc::new(Capture::build(crate::input::Mix::Calls64, 1));
        let out = Arc::new(Mutex::new(None));
        let mut sink = AuditSink {
            cap: Arc::clone(&cap),
            offers: Arc::new(Offers::new(cap.slots())),
            open: HashMap::new(),
            audit: Audit::default(),
            out: Arc::clone(&out),
        };
        let flow = FlowKey::canonical(
            std::net::IpAddr::from([10, 0, 0, 1]),
            1,
            std::net::IpAddr::from([10, 0, 0, 2]),
            2,
            17,
        )
        .0;
        let ts = vcaml_netpkt::Timestamp::from_micros(0);
        let events = [
            QoeEvent::FlowOpened { flow, ts },
            QoeEvent::WindowReport {
                flow,
                report: report(0, MODEL_METHOD, Some(30.0)),
                provisional: false,
            },
            // Window 1 is skipped, window 2 arrives twice.
            QoeEvent::WindowReport {
                flow,
                report: report(2, MODEL_METHOD, Some(30.0)),
                provisional: false,
            },
            QoeEvent::WindowReport {
                flow,
                report: report(2, Method::RtpMl, Some(30.0)),
                provisional: false,
            },
            QoeEvent::FlowEvicted {
                flow,
                reason: vcaml::EvictReason::EndOfStream,
                final_reports: vec![report(3, MODEL_METHOD, None)],
            },
        ];
        for e in events {
            sink.on_event(&Arc::new(e));
        }
        sink.flush();
        let a = out.lock().expect("audit").take().expect("flushed");
        assert_eq!((a.missing, a.duplicated, a.wrong_model), (1, 1, 1));
        assert_eq!((a.opened, a.sealed, a.reopened), (1, 1, 0));
        assert_eq!((a.standalone_windows, a.evicted_windows), (3, 1));
    }
}
