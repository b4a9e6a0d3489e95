//! The four workloads: which capture each replays, how, and through
//! which monitor configuration.

use crate::input::Mix;
use vcaml::{EstimationMethod, Method, MonitorBuilder, MonitorRunner};
use vcaml_mlcore::RandomForest;
use vcaml_netpkt::Timestamp;
use vcaml_rtp::VcaKind;

/// How packets are offered to the monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// As fast as the monitor takes them (the capture loops until the
    /// run's deadline).
    ClosedLoop,
    /// On the capture's own schedule, sped up by this factor, from a
    /// source that reports `is_live()`.
    OpenLoop {
        /// Replay speed relative to capture time.
        speed: f64,
    },
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The capture it replays.
    pub mix: Mix,
    /// Open or closed loop.
    pub drive: Drive,
    /// `MonitorBuilder::threads` (0 = one worker per core).
    pub threads: usize,
    /// Whether the header-only ML method runs with the trained model
    /// (otherwise `AutoHeuristic`, the CLI default, runs without one).
    pub ml: bool,
    /// Idle timeout, seconds (`None` keeps the builder's default).
    pub idle_secs: Option<i64>,
}

/// `live_tap`'s replay speed relative to capture time (≈ 130 k frames/s).
pub const LIVE_SPEED: f64 = 10.0;

/// Every workload. `BENCHMARK.json` gates all but `steady_tap_1t`, whose
/// single busy thread tracks this host's speed swings (see README).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady_tap",
        mix: Mix::Calls64,
        drive: Drive::ClosedLoop,
        threads: 0,
        ml: true,
        idle_secs: None,
    },
    Workload {
        name: "steady_tap_1t",
        mix: Mix::Calls64,
        drive: Drive::ClosedLoop,
        threads: 1,
        ml: true,
        idle_secs: None,
    },
    Workload {
        name: "churn_tap",
        mix: Mix::Churn,
        drive: Drive::ClosedLoop,
        threads: 0,
        ml: true,
        idle_secs: Some(1),
    },
    Workload {
        name: "live_tap",
        mix: Mix::Calls64,
        drive: Drive::OpenLoop { speed: LIVE_SPEED },
        threads: 0,
        ml: false,
        idle_secs: None,
    },
];

/// The method a model-bearing workload runs, and the only one the model
/// is trained for.
pub const MODEL_METHOD: Method = Method::IpUdpMl;

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The estimation method the monitor runs.
    ///
    /// `AutoMl` is never used with a model: `MonitorBuilder::model` hands
    /// one forest to both `IpUdpMl` flows (14 features) and `RtpMl` flows
    /// (24 features), and `RandomForest::predict` does not check the row
    /// width, so an IP/UDP model silently mispredicts RTP rows.
    pub fn method(&self) -> EstimationMethod {
        if self.ml {
            EstimationMethod::Fixed(MODEL_METHOD)
        } else {
            EstimationMethod::AutoHeuristic
        }
    }

    /// Whether the monitor attempts an RTP parse on every packet.
    pub fn wants_rtp(&self) -> bool {
        !self.ml
    }

    /// The monitor configuration, with the model attached when the
    /// method uses one.
    pub fn builder(&self, model: &RandomForest) -> MonitorBuilder {
        let mut b = MonitorBuilder::new(VcaKind::Teams)
            .method(self.method())
            .threads(self.threads);
        if self.ml {
            b = b.model(model.clone());
        }
        if let Some(secs) = self.idle_secs {
            b = b.idle_timeout(Timestamp::from_secs(secs));
        }
        b
    }

    /// A runner over a freshly built monitor (sources and sinks are
    /// attached by the caller).
    pub fn runner(&self, model: &RandomForest) -> MonitorRunner {
        MonitorRunner::new(self.builder(model))
    }
}
