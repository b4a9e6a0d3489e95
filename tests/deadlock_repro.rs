use std::net::{IpAddr, Ipv4Addr};
use vcaml::{EstimationMethod, Method, MonitorBuilder, OverflowPolicy, TracePacket};
use vcaml_netpkt::{FlowKey, Timestamp};

#[test]
fn parse_drop_on_full_queue_threaded_block() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut m = MonitorBuilder::new(vcaml_rtp::VcaKind::Meet)
            .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
            .threads(2)
            .queue_capacity(1)
            .overflow(OverflowPolicy::Block)
            .build();
        let (flow, _) = FlowKey::canonical(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            5000,
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            5001,
            17,
        );
        // >512 packets so a batch flushes to the worker, which emits
        // events and parks on the size-1 queue.
        for i in 0..2000i64 {
            let p = TracePacket {
                ts: Timestamp::from_micros(i * 40_000),
                size: 1200,
                rtp: None,
                truth_media: None,
            };
            m.ingest_packet(flow, p);
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
        // Queue is now full; a parse drop must not hang the caller.
        let p = TracePacket {
            ts: Timestamp::from_micros(-1),
            size: 100,
            rtp: None,
            truth_media: None,
        };
        m.ingest_packet(flow, p);
        drop(m);
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("monitor deadlocked on parse drop with full Block queue");
}

/// Same parked pipeline as above: the worker waits on the size-1 `Block`
/// queue and its channel is full. Control requests from the ingesting
/// thread — the queue's only drainer — must return at once (a request
/// sent in-band on the full channel would hang here), and the monitor
/// must still finish.
#[test]
fn control_requests_never_block_the_ingesting_thread() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut m = MonitorBuilder::new(vcaml_rtp::VcaKind::Meet)
            .method(EstimationMethod::Fixed(Method::IpUdpHeuristic))
            .threads(2)
            .queue_capacity(1)
            .overflow(OverflowPolicy::Block)
            .build();
        let (flow, _) = FlowKey::canonical(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            5000,
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            5001,
            17,
        );
        for i in 0..2000i64 {
            let p = TracePacket {
                ts: Timestamp::from_micros(i * 40_000),
                size: 1200,
                rtp: None,
                truth_media: None,
            };
            m.ingest_packet(flow, p);
        }
        // Wait for the parked state: the size-1 queue is full and the
        // worker's channel still holds a batch it has not taken.
        let handle = m.handle();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let parked = loop {
            let snap = handle.stats_snapshot();
            if snap.pending_events >= 1 && snap.shard_depths.iter().any(|&d| d > 0) {
                break true;
            }
            if std::time::Instant::now() > deadline {
                break false;
            }
            std::thread::yield_now();
        };
        assert!(parked, "the pipeline never parked");
        handle.force_flush();
        handle.evict_flow(flow);
        let events = m.finish();
        let requested = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    vcaml::QoeEvent::FlowEvicted {
                        reason: vcaml::EvictReason::Requested,
                        ..
                    }
                )
            })
            .count();
        done_tx.send(requested).unwrap();
    });
    let requested = done_rx
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("control request blocked the ingesting thread");
    assert_eq!(requested, 1, "the eviction request is applied once");
}
