//! Facade/engine parity: a `vcaml::api::Monitor` must reproduce, window
//! for window, what a directly-driven `QoeEstimator` produces for the
//! same packets — for all four methods, on realistic simulated traffic,
//! through both the pre-parsed and the raw-datagram ingestion paths —
//! and raw-IP ingestion must agree with link-layer ingestion.

// Test target: panicking is the idiomatic failure mode.
#![allow(clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use vcaml_suite::datasets::{inlab_corpus, to_core_trace, CorpusConfig};
use vcaml_suite::netpkt::{
    Error as NetError, EtherType, EthernetRepr, FlowKey, Ipv4Repr, Ipv6Repr, MacAddr, Timestamp,
    UdpRepr,
};
use vcaml_suite::rtp::VcaKind;
use vcaml_suite::vcaml::api::build_engine;
use vcaml_suite::vcaml::{
    EngineConfig, EstimationMethod, Method, MonitorBuilder, ParseDropReason, QoeEvent, Trace,
    WindowReport,
};
use vcaml_suite::vcasim::{Session, SessionConfig, VcaProfile};

fn corpus(vca: VcaKind, seed: u64, n: usize) -> Vec<Trace> {
    inlab_corpus(
        vca,
        &CorpusConfig {
            n_calls: n,
            min_secs: 15,
            max_secs: 25,
            seed,
        },
    )
}

fn flow_key() -> FlowKey {
    FlowKey::canonical(
        "203.0.113.1".parse().unwrap(),
        3478,
        "10.0.0.1".parse().unwrap(),
        50_000,
        17,
    )
    .0
}

/// Every finalized window a finished monitor produced, by index.
fn monitor_windows(events: Vec<QoeEvent>) -> BTreeMap<u64, WindowReport> {
    let mut out = BTreeMap::new();
    for event in events {
        for report in event.final_reports() {
            assert!(
                out.insert(report.window, report.clone()).is_none(),
                "duplicate final window"
            );
        }
    }
    out
}

fn assert_reports_equal(got: &BTreeMap<u64, WindowReport>, want: &[WindowReport], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: window count");
    for w in want {
        let g = got.get(&w.window).unwrap_or_else(|| {
            panic!("{ctx}: missing window {}", w.window);
        });
        assert_eq!(g.method, w.method, "{ctx}: window {}", w.window);
        assert_eq!(g.estimate, w.estimate, "{ctx}: window {}", w.window);
        assert_eq!(g.features, w.features, "{ctx}: window {}", w.window);
        assert_eq!(
            g.video_packets, w.video_packets,
            "{ctx}: window {}",
            w.window
        );
    }
}

/// The facade's event stream must equal a direct engine drive for every
/// method — same windows, same estimates, same feature vectors.
#[test]
fn monitor_matches_direct_engine_for_all_methods() {
    for vca in VcaKind::ALL {
        let config = EngineConfig::paper(vca);
        for trace in &corpus(vca, 23, 2) {
            for method in Method::ALL {
                let mut engine = build_engine(method, config, trace.payload_map, None);
                let mut want = Vec::new();
                for p in &trace.packets {
                    engine.push_into(p, &mut want);
                }
                engine.finish_into(&mut want);

                let mut monitor = MonitorBuilder::new(vca)
                    .method(EstimationMethod::Fixed(method))
                    .payload_map(trace.payload_map)
                    .build();
                let flow = flow_key();
                for p in &trace.packets {
                    monitor.ingest_packet(flow, *p);
                }
                let got = monitor_windows(monitor.finish());
                assert_reports_equal(&got, &want, &format!("{vca} {method:?}"));
            }
        }
    }
}

/// The raw-datagram path (RTP parse-attempt included) must agree with the
/// pre-parsed path: ingesting a session's captured wire datagrams yields
/// the same windows as replaying its decoded trace through an engine.
#[test]
fn raw_ingestion_matches_preparsed_trace() {
    let vca = VcaKind::Teams;
    let profile = VcaProfile::lab(vca);
    let session = Session::new(SessionConfig {
        profile: profile.clone(),
        schedule: vcaml_suite::netem::synth_ndt_schedule(5, 20),
        duration_secs: 20,
        seed: 5,
        link: vcaml_suite::netem::LinkConfig::default(),
    })
    .run();
    let trace = to_core_trace(&session, profile.payload_map);
    let captured = session.to_captured();
    let config = EngineConfig::paper(vca);

    for method in Method::ALL {
        let mut engine = build_engine(method, config, trace.payload_map, None);
        let mut want = Vec::new();
        for p in &trace.packets {
            engine.push_into(p, &mut want);
        }
        engine.finish_into(&mut want);

        let mut monitor = MonitorBuilder::new(vca)
            .method(EstimationMethod::Fixed(method))
            .payload_map(trace.payload_map)
            .build();
        for cap in &captured {
            monitor.ingest_captured(cap);
        }
        assert_eq!(monitor.stats().parse_drops, 0, "{method:?}: clean feed");
        let got = monitor_windows(monitor.finish());
        assert_reports_equal(&got, &want, &format!("raw {method:?}"));
    }
}

/// One UDP datagram carrying `payload_len` zero bytes, as an Ethernet
/// frame over IPv4 or IPv6; the raw IP packet starts at byte 14. The UDP
/// checksum covers an IPv4 pseudo-header either way; the monitor does not
/// verify it.
fn udp_frame(payload_len: usize, v6: bool) -> Vec<u8> {
    let ip_len = if v6 { 40 } else { 20 };
    let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let mut frame = vec![0u8; 14 + ip_len + 8 + payload_len];
    EthernetRepr {
        src: MacAddr([2, 0, 0, 0, 0, 1]),
        dst: MacAddr([2, 0, 0, 0, 0, 2]),
        ethertype: if v6 { EtherType::Ipv6 } else { EtherType::Ipv4 },
    }
    .emit(&mut frame);
    UdpRepr {
        src_port: 50_000,
        dst_port: 3478,
    }
    .emit_v4(
        &mut frame[14 + ip_len..],
        payload_len,
        src.octets(),
        dst.octets(),
    );
    if v6 {
        Ipv6Repr {
            src: src.to_ipv6_mapped().octets(),
            dst: dst.to_ipv6_mapped().octets(),
            next_header: 17,
            payload_len: 8 + payload_len,
            hop_limit: 64,
        }
        .emit(&mut frame[14..]);
    } else {
        Ipv4Repr {
            src: src.octets(),
            dst: dst.octets(),
            protocol: 17,
            payload_len: 8 + payload_len,
            ttl: 64,
            ident: 1,
        }
        .emit(&mut frame[14..]);
    }
    frame
}

/// Raw-IP ingestion agrees with link-layer ingestion of the same packets,
/// for UDP in IPv4 and in IPv6, and classifies an unknown IP version and
/// an empty buffer as parse drops.
#[test]
fn raw_ip_ingestion_matches_frame_ingestion() {
    let vca = VcaKind::Teams;
    for v6 in [false, true] {
        let mut by_ip = MonitorBuilder::new(vca).build();
        let mut by_frame = MonitorBuilder::new(vca).build();
        // 3 s of 30 fps video: two packets per frame, sizes varying by frame.
        for i in 0..180i64 {
            let frame = udp_frame(900 + (i as usize / 2 % 9) * 13, v6);
            let ts = Timestamp::from_micros(i * 16_667);
            by_ip.ingest_ip(ts, &frame[14..]);
            by_frame.ingest_frame(ts, &frame);
        }
        assert_eq!(by_ip.stats().parse_drops, 0, "v6 {v6}: clean feed");
        let want: Vec<WindowReport> = monitor_windows(by_frame.finish()).into_values().collect();
        assert!(!want.is_empty(), "v6 {v6}: windows emitted");
        assert_reports_equal(&monitor_windows(by_ip.finish()), &want, &format!("v6 {v6}"));
    }

    let mut monitor = MonitorBuilder::new(vca).build();
    monitor.ingest_ip(Timestamp::from_millis(1), &[0x50; 28]);
    monitor.ingest_ip(Timestamp::from_millis(2), &[]);
    let drops: Vec<ParseDropReason> = monitor
        .finish()
        .into_iter()
        .filter_map(|e| match e {
            QoeEvent::ParseDrop { reason, .. } => Some(reason),
            _ => None,
        })
        .collect();
    let bad_version = NetError::Malformed {
        layer: "ip",
        what: "version is neither 4 nor 6",
    };
    let empty = NetError::Truncated {
        layer: "ip",
        needed: 1,
        got: 0,
    };
    assert_eq!(
        drops,
        [
            ParseDropReason::from(&bad_version),
            ParseDropReason::from(&empty)
        ]
    );
}

/// Auto selection must not change the numbers, only the method: a flow
/// resolved to its RTP variant reports the same windows as a fixed RTP
/// monitor fed the same packets.
#[test]
fn auto_selection_preserves_window_exactness() {
    let vca = VcaKind::Meet;
    let trace = &corpus(vca, 31, 1)[0];
    let run = |method: EstimationMethod| {
        let mut monitor = MonitorBuilder::new(vca)
            .method(method)
            .payload_map(trace.payload_map)
            .build();
        let flow = flow_key();
        for p in &trace.packets {
            monitor.ingest_packet(flow, *p);
        }
        monitor_windows(monitor.finish())
    };
    let auto = run(EstimationMethod::AutoHeuristic);
    let resolved_method = auto.values().next().expect("windows emitted").method;
    let fixed = run(EstimationMethod::Fixed(resolved_method));
    assert_eq!(auto.len(), fixed.len());
    for (w, r) in &auto {
        assert_eq!(r.estimate, fixed[w].estimate, "window {w}");
    }
}
