//! Workload inputs: simulated Teams calls (plus background traffic) framed
//! as Ethernet/IPv4 and held in memory as one pass of a classic pcap, and
//! the reader that loops that pass with a per-pass time offset.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::Read;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vcaml::PcapFileSource;
use vcaml_netem::{synth_ndt_schedule, LinkConfig};
use vcaml_netpkt::{
    EtherType, EthernetRepr, FlowKey, Ipv4Repr, LinkType, MacAddr, PcapWriter, UdpRepr,
    IP_PROTO_UDP,
};
use vcaml_rtp::VcaKind;
use vcaml_vcasim::{Session, SessionConfig, SessionTrace, VcaProfile};

const US: i64 = 1_000_000;
const IP_PROTO_TCP: u8 = 6;
const ETH_IP_UDP: usize = 14 + 20 + 8;
/// Byte offset of the first record (after the pcap global header).
const GLOBAL_HEADER: usize = 24;
const SERVER: [u8; 4] = [203, 0, 113, 10];
const SERVER_PORT: u16 = 3478;
const NO_SLOT: u32 = u32::MAX;

/// Shape of one workload's capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 64 concurrent Teams calls, each looping with a staggered start.
    Calls64,
    /// A TCP-heavy ISP tap: short staggered calls, header-sized and
    /// MTU-sized TCP, and single-packet UDP probes.
    Churn,
}

/// Simulator truth and packet timing of one call's flow.
pub struct CallFlow {
    /// Second of the pass at which the call starts.
    start_sec: u32,
    /// Ground-truth frame rate per call second.
    fps: Vec<f64>,
    /// Per window of the pass, the slot of the flow's last packet in it
    /// (`None` for windows without packets).
    window_slot: Vec<Option<u32>>,
}

/// One pass of a workload's capture, plus what the checks need to know
/// about it.
pub struct Capture {
    /// The pass as a classic pcap: global header, then records in
    /// timestamp order.
    pcap: Vec<u8>,
    /// Byte offset of every record header in `pcap`.
    records: Vec<usize>,
    /// Stream-time offset between consecutive passes, whole seconds.
    pub pass_secs: u32,
    /// Timestamp of the first record of the first pass, µs.
    pub first_ts_us: i64,
    /// Call flows by canonical key.
    flows: HashMap<FlowKey, CallFlow>,
    /// Per record, the slot it fills when it is the last packet of its
    /// call flow's window (`NO_SLOT` otherwise).
    record_slot: Vec<u32>,
    /// Number of slots (call-flow windows with packets, per pass).
    slots: usize,
    /// UDP frames per pass that belong to calls.
    pub call_frames: u64,
    /// Single-packet UDP probe frames (each its own flow) per pass.
    pub probe_frames: u64,
    /// Non-UDP frames per pass.
    pub tcp_frames: u64,
}

/// One frame to write, in pass order.
struct Pending {
    ts_us: i64,
    kind: FrameKind,
}

enum FrameKind {
    Call {
        call: u32,
        pkt: u32,
    },
    Tcp {
        len: u16,
        src: [u8; 4],
        dst: [u8; 4],
    },
    Probe {
        src: [u8; 4],
        port: u16,
    },
}

impl Capture {
    /// Builds the capture for `mix` from `seed`; equal seeds give
    /// byte-identical captures.
    pub fn build(mix: Mix, seed: u64) -> Capture {
        match mix {
            Mix::Calls64 => calls64(seed),
            Mix::Churn => churn(seed),
        }
    }

    /// Frames per pass.
    pub fn frames(&self) -> u64 {
        self.records.len() as u64
    }

    /// Pcap bytes per pass.
    pub fn bytes(&self) -> usize {
        self.pcap.len()
    }

    /// A 64-bit digest of the capture bytes (determinism checks).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut chunks = self.pcap.chunks_exact(8);
        for c in &mut chunks {
            let word = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            h = (h ^ word)
                .wrapping_mul(0x0000_0100_0000_01b3)
                .rotate_left(29);
        }
        for &b in chunks.remainder() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Ground-truth frame rate for a flow's window (absolute window
    /// index of 1-second windows), when the window lies inside its call.
    pub fn truth_fps(&self, flow: &FlowKey, window: u64) -> Option<f64> {
        let call = self.flows.get(flow)?;
        let p = u64::from(self.pass_secs);
        let sec = (window % p + p - u64::from(call.start_sec)) % p;
        call.fps.get(sec as usize).copied()
    }

    /// The slot of the flow's last packet in `window` (absolute index)
    /// and the pass it falls in, or `None` when the flow sent nothing in
    /// that window.
    pub fn window_slot(&self, flow: &FlowKey, window: u64) -> Option<(u32, u64)> {
        let call = self.flows.get(flow)?;
        let p = u64::from(self.pass_secs);
        let slot = (*call.window_slot.get((window % p) as usize)?)?;
        Some((slot, window / p))
    }

    /// Number of slots (call-flow windows with packets, per pass).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The slot record `index` (within its pass) fills, if any.
    pub fn record_slot(&self, index: usize) -> Option<u32> {
        self.record_slot
            .get(index)
            .copied()
            .filter(|&s| s != NO_SLOT)
    }

    /// Whole passes of open-loop replay at `speed` that best fill
    /// `budget` (at least one).
    pub fn passes_for(&self, budget: Duration, speed: f64) -> u64 {
        ((budget.as_secs_f64() * speed / f64::from(self.pass_secs)).round() as u64).max(1)
    }

    /// Number of call flows.
    pub fn call_flows(&self) -> usize {
        self.flows.len()
    }
}

/// Simulates call number `call` of the call library. The library is
/// fixed: every seed replays the same calls (same bitrates, packet sizes
/// and truth), and the seed arranges them — start offsets, background
/// traffic, probes — so a seed changes the interleaving the monitor sees,
/// not the amount or the accuracy of the work it does.
fn simulate(call: u64, secs: u32) -> SessionTrace {
    let seed = 0x5eed_0000 + call;
    Session::new(SessionConfig {
        profile: VcaProfile::lab(VcaKind::Teams),
        schedule: synth_ndt_schedule(seed, secs as usize),
        duration_secs: secs,
        seed: seed ^ 0xca11,
        link: LinkConfig::default(),
    })
    .run()
}

fn client(call: u32) -> ([u8; 4], u16) {
    (
        [10, 64, (call >> 8) as u8, (call & 0xff) as u8],
        50_000 + call as u16,
    )
}

fn call_key(call: u32) -> FlowKey {
    let (ip, port) = client(call);
    FlowKey::canonical(
        IpAddr::V4(Ipv4Addr::from(SERVER)),
        SERVER_PORT,
        IpAddr::V4(Ipv4Addr::from(ip)),
        port,
        IP_PROTO_UDP,
    )
    .0
}

/// 64 concurrent calls, each looping a 10-second call seamlessly: the
/// pass is as long as a call, every call starts at a whole second of it
/// and wraps around its end, so consecutive passes continue each call
/// with no gap, and windows stay aligned with the simulator's per-second
/// truth. (Packets arriving after the call's last second are left out.)
fn calls64(seed: u64) -> Capture {
    const CALLS: u32 = 64;
    const PASS_SECS: u32 = 10;
    let pass_us = i64::from(PASS_SECS) * US;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0064_ca11);
    let sessions: Vec<SessionTrace> = (0..CALLS)
        .map(|c| simulate(u64::from(c), PASS_SECS))
        .collect();
    let starts: Vec<u32> = (0..CALLS).map(|_| rng.gen_range(0..PASS_SECS)).collect();
    let mut frames = Vec::new();
    for (c, s) in sessions.iter().enumerate() {
        let offset = i64::from(starts[c]) * US;
        for (i, p) in s.packets.iter().enumerate() {
            let ts = p.arrival_ts.as_micros();
            if ts < pass_us {
                frames.push(Pending {
                    ts_us: (ts + offset) % pass_us,
                    kind: FrameKind::Call {
                        call: c as u32,
                        pkt: i as u32,
                    },
                });
            }
        }
    }
    assemble(frames, &sessions, &starts, PASS_SECS)
}

/// A TCP-heavy tap: 72 short calls (2–5 s) start at random whole seconds
/// of a 12-second span so a few dozen are live at once; about 80% of all
/// frames are TCP (mostly header-sized, 10% MTU-sized) and 1 frame in
/// 200 is a single-packet UDP probe with a 5-tuple of its own. Passes are
/// 15 s apart, so the monitor's 1-second idle timeout evicts every flow
/// between passes and each pass opens its flows afresh.
fn churn(seed: u64) -> Capture {
    const CALLS: u32 = 72;
    const SPAN_SECS: u32 = 12;
    const PASS_SECS: u32 = 15;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4_u64.rotate_left(40));
    // Call lengths belong to the fixed call library.
    let mut lengths = StdRng::seed_from_u64(0x1e_4675);
    let mut sessions = Vec::with_capacity(CALLS as usize);
    let mut starts = Vec::with_capacity(CALLS as usize);
    let mut frames = Vec::new();
    for c in 0..CALLS {
        let secs = lengths.gen_range(2..=5u32);
        // Calls begin after the first second, which only probes and TCP
        // occupy: probes advance every shard's clock past the previous
        // pass, so its flows are swept before any call key recurs.
        let start = rng.gen_range(1..=SPAN_SECS - secs);
        let s = simulate(u64::from(c), secs);
        for (i, p) in s.packets.iter().enumerate() {
            frames.push(Pending {
                ts_us: p.arrival_ts.as_micros().min(i64::from(secs) * US - 1)
                    + i64::from(start) * US,
                kind: FrameKind::Call {
                    call: c,
                    pkt: i as u32,
                },
            });
        }
        sessions.push(s);
        starts.push(start);
    }
    let call_frames = frames.len() as u64;
    // Calls are 19.5% of frames, probes 0.5%, TCP the remaining 80%.
    let total = (call_frames as f64 / 0.195).round() as u64;
    let probes = total / 200;
    let span_us = i64::from(SPAN_SECS) * US;
    for i in 0..probes {
        frames.push(Pending {
            ts_us: rng.gen_range(0..span_us),
            kind: FrameKind::Probe {
                src: [100, 64 + (i >> 16) as u8, (i >> 8) as u8, i as u8],
                port: rng.gen_range(1024..=65_535u16),
            },
        });
    }
    for _ in 0..total - call_frames - probes {
        let len = if rng.gen_bool(0.1) { 1514 } else { 66 };
        frames.push(Pending {
            ts_us: rng.gen_range(0..span_us),
            kind: FrameKind::Tcp {
                len,
                src: [198, 18, rng.gen_range(0..=255u8), rng.gen_range(1..=254u8)],
                dst: [192, 0, 2, rng.gen_range(1..=254u8)],
            },
        });
    }
    assemble(frames, &sessions, &starts, PASS_SECS)
}

/// Orders the frames, writes them as pcap records, and indexes the truth
/// and per-window packet timing of every call flow.
fn assemble(
    mut frames: Vec<Pending>,
    sessions: &[SessionTrace],
    starts: &[u32],
    pass_secs: u32,
) -> Capture {
    // Stable: equal timestamps keep generation order, so the capture is a
    // pure function of the seed.
    frames.sort_by_key(|f| f.ts_us);
    let mut flows: HashMap<FlowKey, CallFlow> = sessions
        .iter()
        .enumerate()
        .map(|(c, s)| {
            (
                call_key(c as u32),
                CallFlow {
                    start_sec: starts[c],
                    fps: s.truth.iter().map(|t| t.fps).collect(),
                    window_slot: vec![None; pass_secs as usize],
                },
            )
        })
        .collect();
    let eth = EthernetRepr {
        src: MacAddr([0x02, 0, 0, 0, 0, 0x01]),
        dst: MacAddr([0x02, 0, 0, 0, 0, 0x02]),
        ethertype: EtherType::Ipv4,
    };
    let mut pcap = PcapWriter::new(Vec::new(), LinkType::Ethernet)
        .expect("pcap header")
        .finish()
        .expect("in-memory pcap");
    let mut records = Vec::with_capacity(frames.len());
    let mut record_slot = vec![NO_SLOT; frames.len()];
    let mut slot_record: Vec<usize> = Vec::new();
    let (mut call_frames, mut probe_frames, mut tcp_frames) = (0, 0, 0);
    let mut frame = Vec::with_capacity(1514);
    for (index, f) in frames.iter().enumerate() {
        frame.clear();
        match f.kind {
            FrameKind::Call { call, pkt } => {
                let p = &sessions[call as usize].packets[pkt as usize];
                let (ip, port) = client(call);
                let payload_len = usize::from(p.ip_total_len) - 28;
                udp_frame(&mut frame, &eth, SERVER, ip, payload_len);
                let payload = &mut frame[ETH_IP_UDP..];
                match p.rtp {
                    Some(h) => h.emit(payload),
                    // DTLS-looking first byte: never parses as RTP.
                    None if !payload.is_empty() => payload[0] = 0x16,
                    None => {}
                }
                udp_checksum(&mut frame, SERVER, SERVER_PORT, ip, port);
                let flow = flows.get_mut(&call_key(call)).expect("call flow indexed");
                let slot = &mut flow.window_slot[(f.ts_us / US) as usize];
                // A later packet of the same window takes the slot over.
                let id = match *slot {
                    Some(id) => {
                        record_slot[slot_record[id as usize]] = NO_SLOT;
                        slot_record[id as usize] = index;
                        id
                    }
                    None => {
                        slot_record.push(index);
                        (slot_record.len() - 1) as u32
                    }
                };
                *slot = Some(id);
                record_slot[index] = id;
                call_frames += 1;
            }
            FrameKind::Probe { src, port } => {
                let dst = [198, 51, 100, 1];
                udp_frame(&mut frame, &eth, src, dst, 40);
                udp_checksum(&mut frame, src, port, dst, 53);
                probe_frames += 1;
            }
            FrameKind::Tcp { len, src, dst } => {
                tcp_frame(&mut frame, &eth, src, dst, usize::from(len));
                tcp_frames += 1;
            }
        }
        records.push(pcap.len());
        let secs = f.ts_us / US;
        pcap.extend_from_slice(&(secs as u32).to_le_bytes());
        pcap.extend_from_slice(&((f.ts_us - secs * US) as u32).to_le_bytes());
        pcap.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        pcap.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        pcap.extend_from_slice(&frame);
    }
    pcap.shrink_to_fit();
    Capture {
        first_ts_us: frames.first().map_or(0, |f| f.ts_us),
        pcap,
        records,
        pass_secs,
        flows,
        record_slot,
        slots: slot_record.len(),
        call_frames,
        probe_frames,
        tcp_frames,
    }
}

/// Ethernet and IPv4 headers, then room for the UDP header and
/// `payload_len` zero bytes ([`udp_checksum`] writes the UDP header once
/// the payload is in place).
fn udp_frame(
    frame: &mut Vec<u8>,
    eth: &EthernetRepr,
    src: [u8; 4],
    dst: [u8; 4],
    payload_len: usize,
) {
    frame.resize(ETH_IP_UDP + payload_len, 0);
    eth.emit(frame);
    Ipv4Repr {
        src,
        dst,
        protocol: IP_PROTO_UDP,
        payload_len: 8 + payload_len,
        ttl: 58,
        ident: 0,
    }
    .emit(&mut frame[14..]);
}

/// Writes the UDP header (with checksum) once the payload is in place.
fn udp_checksum(frame: &mut [u8], src: [u8; 4], src_port: u16, dst: [u8; 4], dst_port: u16) {
    let payload_len = frame.len() - ETH_IP_UDP;
    UdpRepr { src_port, dst_port }.emit_v4(&mut frame[34..], payload_len, src, dst);
}

/// Ethernet + IPv4 + a minimal TCP ACK header, zero-padded to `len` bytes.
fn tcp_frame(frame: &mut Vec<u8>, eth: &EthernetRepr, src: [u8; 4], dst: [u8; 4], len: usize) {
    frame.resize(len, 0);
    eth.emit(frame);
    Ipv4Repr {
        src,
        dst,
        protocol: IP_PROTO_TCP,
        payload_len: len - 34,
        ttl: 60,
        ident: 0,
    }
    .emit(&mut frame[14..]);
    let tcp = &mut frame[34..];
    tcp[0..2].copy_from_slice(&443u16.to_be_bytes());
    tcp[2..4].copy_from_slice(&51_000u16.to_be_bytes());
    tcp[12] = 8 << 4; // 32-byte header (timestamps option)
    tcp[13] = 0x10; // ACK
}

/// When a [`LoopReader`] ends its stream.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After exactly this many passes.
    Passes(u64),
    /// At the first pass boundary after this instant.
    Deadline(Instant),
}

/// Wall clock and process CPU when the reader started the first pass
/// and when it finished each pass.
pub type PassMarks = Arc<Mutex<Vec<(Instant, Duration)>>>;

/// The capture looped until `stop`, as the production `PcapFileSource`.
pub fn pcap_source(cap: &Arc<Capture>, stop: Stop, marks: PassMarks) -> PcapFileSource<LoopReader> {
    PcapFileSource::new(LoopReader::new(Arc::clone(cap), stop, marks))
        .expect("the capture starts with a pcap header")
}

/// Serves the capture's pass over and over as one pcap stream, adding the
/// pass offset to every record's seconds field, until its [`Stop`].
/// The stream always ends on a pass boundary.
pub struct LoopReader {
    cap: Arc<Capture>,
    pos: usize,
    next_record: usize,
    pass: u64,
    stop: Stop,
    marks: PassMarks,
}

impl LoopReader {
    /// A reader over `cap`, noting pass boundaries in `marks`.
    pub fn new(cap: Arc<Capture>, stop: Stop, marks: PassMarks) -> LoopReader {
        LoopReader {
            cap,
            pos: 0,
            next_record: 0,
            pass: 0,
            stop,
            marks,
        }
    }

    fn mark(&self) {
        let mark = (Instant::now(), crate::sys::process_cpu());
        self.marks.lock().expect("pass marks").push(mark);
    }

    /// Starts the next pass, or reports the end of the stream.
    fn wrap(&mut self) -> bool {
        self.pass += 1;
        self.mark();
        let more = match self.stop {
            Stop::Passes(n) => self.pass < n,
            Stop::Deadline(at) => Instant::now() < at,
        };
        if more {
            self.pos = GLOBAL_HEADER;
            self.next_record = 0;
        }
        more
    }
}

impl Read for LoopReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.cap.pcap.len() && !self.wrap() {
            return Ok(0);
        }
        if self.pos == GLOBAL_HEADER && self.pass == 0 && self.next_record == 0 {
            self.mark();
        }
        let pcap = &self.cap.pcap;
        let mut n = out.len().min(pcap.len() - self.pos);
        // Never split a record's seconds field across two reads.
        if let Some(&rec) = self.cap.records.get(self.next_record) {
            if rec > self.pos && rec < self.pos + n && rec + 4 > self.pos + n {
                n = rec - self.pos;
            }
        }
        out[..n].copy_from_slice(&pcap[self.pos..self.pos + n]);
        let offset = (self.pass * u64::from(self.cap.pass_secs)) as u32;
        while let Some(&rec) = self.cap.records.get(self.next_record) {
            if rec >= self.pos + n {
                break;
            }
            let at = rec - self.pos;
            if at + 4 > n {
                return Err(std::io::Error::other("read buffer splits a record header"));
            }
            let secs = u32::from_le_bytes(out[at..at + 4].try_into().expect("4 bytes"));
            out[at..at + 4].copy_from_slice(&(secs + offset).to_le_bytes());
            self.next_record += 1;
        }
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcaml::source::SourcePacket;
    use vcaml::PacketSource;

    #[test]
    fn loop_reader_offsets_every_pass_and_ends_on_a_boundary() {
        let cap = Arc::new(Capture::build(Mix::Calls64, 3));
        let marks = PassMarks::default();
        let mut source = pcap_source(&cap, Stop::Passes(2), Arc::clone(&marks));
        let mut ts = Vec::new();
        while let Some(SourcePacket::Record { record, .. }) = source.next_packet().expect("read") {
            ts.push(record.ts.as_micros());
        }
        let n = cap.frames() as usize;
        assert_eq!(ts.len(), 2 * n, "exactly two passes");
        let offset = i64::from(cap.pass_secs) * US;
        assert!((0..n).all(|i| ts[n + i] == ts[i] + offset));
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "capture order");
        assert_eq!(
            marks.lock().expect("marks").len(),
            3,
            "start and two pass ends"
        );
    }

    #[test]
    fn seeds_arrange_the_same_call_library() {
        let a = Capture::build(Mix::Churn, 5);
        let b = Capture::build(Mix::Churn, 5);
        let c = Capture::build(Mix::Churn, 6);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(
            a.call_frames, c.call_frames,
            "same calls, other arrangement"
        );
        let tcp_share = a.tcp_frames as f64 / a.frames() as f64;
        assert!((0.79..0.81).contains(&tcp_share), "{tcp_share}");
    }
}
