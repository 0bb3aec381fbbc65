//! The incast experiment: synchronized reads through one switch port.
//!
//! Reproduces report Fig. 9 / \[Phanishayee08\] / \[Vasudevan09\]: a client
//! fetches a data block striped over N servers; each barrier round all
//! N servers answer at once through the client's single switch port,
//! whose shallow output buffer tail-drops the synchronized burst.
//! Flows that lose their whole window stall a full RTO while the link
//! idles — goodput collapses by an order of magnitude as N grows. The
//! studied fix: microsecond-granularity RTO minimums (1 ms instead of
//! 200 ms), plus timeout randomization at very large N.

use crate::tcp::{Flow, RtoPolicy};
use obs::trace::{Phase, TraceSink};
use simkit::{EventQueue, Rng, SimDuration, SimTime};
use std::collections::VecDeque;

/// Incast scenario parameters.
#[derive(Debug, Clone)]
pub struct IncastConfig {
    /// Number of servers striping the data block.
    pub senders: usize,
    /// Bottleneck link rate, bits/sec.
    pub link_bps: f64,
    /// MTU-sized packet, bytes.
    pub packet_bytes: u32,
    /// Switch output-port buffer, in packets.
    pub buffer_packets: usize,
    /// Baseline round-trip time excluding queueing.
    pub base_rtt: SimDuration,
    /// Server Request Unit: bytes each server sends per block.
    pub sru_bytes: u64,
    /// Barrier rounds to run.
    pub blocks: u32,
    pub rto: RtoPolicy,
    pub seed: u64,
    /// Causal trace sink: per-packet queue/transmit spans plus drop and
    /// RTO markers. Disabled by default — use a bounded sink to capture.
    pub trace: TraceSink,
}

impl IncastConfig {
    /// The FAST'08 testbed shape: 1 GbE, shallow 64-packet port buffer,
    /// 256 KiB SRU.
    pub fn gbe(senders: usize, rto: RtoPolicy) -> Self {
        IncastConfig {
            senders,
            link_bps: 1.0e9,
            packet_bytes: 1500,
            buffer_packets: 64,
            base_rtt: SimDuration::from_micros(100),
            sru_bytes: 256 << 10,
            blocks: 4,
            rto,
            seed: 42,
            trace: TraceSink::disabled(),
        }
    }

    /// The SIGCOMM'09 10 GbE scenario for kiloserver fan-in.
    pub fn ten_gbe(senders: usize, rto: RtoPolicy) -> Self {
        IncastConfig {
            senders,
            link_bps: 10.0e9,
            packet_bytes: 1500,
            buffer_packets: 256,
            base_rtt: SimDuration::from_micros(40),
            sru_bytes: 64 << 10,
            blocks: 4,
            rto,
            seed: 42,
            trace: TraceSink::disabled(),
        }
    }

    fn sru_packets(&self) -> u32 {
        (self.sru_bytes.div_ceil(self.packet_bytes as u64)) as u32
    }

    fn slot(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.packet_bytes as f64 * 8.0 / self.link_bps)
    }
}

/// Outcome of one incast run.
#[derive(Debug, Clone)]
pub struct IncastReport {
    pub makespan: SimDuration,
    pub goodput_bps: f64,
    pub timeouts: u64,
    pub drops: u64,
    pub packets: u64,
}

impl IncastReport {
    /// Goodput as a fraction of the link rate.
    pub fn efficiency(&self, cfg: &IncastConfig) -> f64 {
        self.goodput_bps / cfg.link_bps
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Link finished serializing the head-of-queue packet.
    Dequeue,
    /// Cumulative ack `upto` reaches `flow`.
    Ack { flow: usize, upto: u32 },
    /// Retransmission timer armed for `deadline` fires at `flow`.
    Rto { flow: usize, deadline: SimTime },
}

struct Sim {
    cfg: IncastConfig,
    flows: Vec<Flow>,
    /// Switch output queue: (flow, seq, enqueue time).
    queue: VecDeque<(usize, u32, SimTime)>,
    link_busy: bool,
    q: EventQueue<Ev>,
    rng: Rng,
    blocks_left: u32,
    drops: u64,
    sent: u64,
}

impl Sim {
    fn new(cfg: IncastConfig) -> Self {
        let flows = (0..cfg.senders).map(|_| Flow::new(cfg.sru_packets())).collect();
        let rng = Rng::new(cfg.seed);
        let blocks = cfg.blocks;
        Sim {
            cfg,
            flows,
            queue: VecDeque::new(),
            link_busy: false,
            q: EventQueue::new(),
            rng,
            blocks_left: blocks,
            drops: 0,
            sent: 0,
        }
    }

    /// Let `flow` inject as much of its window as the buffer admits.
    fn inject(&mut self, flow: usize, now: SimTime) {
        while self.flows[flow].has_sendable() {
            let seq = self.flows[flow].pop_send().expect("has_sendable lied");
            self.flows[flow].packets_sent += 1;
            self.sent += 1;
            if self.queue.len() < self.cfg.buffer_packets {
                self.queue.push_back((flow, seq, now));
                if !self.link_busy {
                    self.link_busy = true;
                    self.q.schedule(now + self.cfg.slot(), Ev::Dequeue);
                }
            } else {
                // Tail drop at the switch.
                self.flows[flow].packets_dropped += 1;
                self.drops += 1;
                if self.cfg.trace.enabled() {
                    self.cfg.trace.record(
                        "pkt.drop",
                        Phase::Other,
                        &format!("flow.{flow}"),
                        now.0,
                        now.0,
                        0,
                    );
                }
            }
        }
        // Arm the retransmission timer if data is outstanding and no
        // timer pending.
        let f = &mut self.flows[flow];
        if !f.done() && f.rto_deadline == SimTime::NEVER {
            let deadline = now + self.cfg.base_rtt + self.cfg.rto.draw(&mut self.rng);
            f.rto_deadline = deadline;
            self.q.schedule(deadline, Ev::Rto { flow, deadline });
        }
    }

    fn all_done(&self) -> bool {
        self.flows.iter().all(|f| f.done())
    }

    fn run(mut self) -> IncastReport {
        let start = SimTime::ZERO;
        for f in 0..self.cfg.senders {
            self.inject(f, start);
        }
        let mut end = start;
        while let Some((now, ev)) = self.q.pop() {
            match ev {
                Ev::Dequeue => {
                    if let Some((flow, seq, enq)) = self.queue.pop_front() {
                        // Every arriving packet generates a cumulative
                        // ack — duplicates included (they drive fast
                        // retransmit).
                        let upto = self.flows[flow].receive(seq);
                        self.q.schedule(now + self.cfg.base_rtt, Ev::Ack { flow, upto });
                        if self.cfg.trace.enabled() {
                            // The packet sat queued until the link
                            // started serializing it one slot ago.
                            let xmit_start = SimTime(now.0.saturating_sub(self.cfg.slot().0));
                            let track = format!("flow.{flow}");
                            let pkt = self.cfg.trace.record(
                                "pkt",
                                Phase::Network,
                                &track,
                                enq.0,
                                now.0,
                                0,
                            );
                            if xmit_start > enq {
                                self.cfg.trace.record(
                                    "pkt.queue",
                                    Phase::Queue,
                                    &track,
                                    enq.0,
                                    xmit_start.0,
                                    pkt,
                                );
                            }
                            self.cfg.trace.record(
                                "pkt.xmit",
                                Phase::Transfer,
                                "switch",
                                xmit_start.0.max(enq.0),
                                now.0,
                                pkt,
                            );
                        }
                    }
                    if self.queue.is_empty() {
                        self.link_busy = false;
                    } else {
                        self.q.schedule(now + self.cfg.slot(), Ev::Dequeue);
                    }
                }
                Ev::Ack { flow, upto } => {
                    let advanced = self.flows[flow].ack(upto);
                    if self.flows[flow].done() {
                        self.flows[flow].rto_deadline = SimTime::NEVER;
                        if self.all_done() {
                            end = now;
                            self.blocks_left -= 1;
                            if self.blocks_left > 0 {
                                // Barrier passed: synchronized next
                                // block request to every server.
                                let total = self.cfg.sru_packets();
                                for f in 0..self.cfg.senders {
                                    self.flows[f].next_block(total);
                                }
                                for f in 0..self.cfg.senders {
                                    self.inject(f, now);
                                }
                            }
                        }
                        continue;
                    }
                    if advanced {
                        // Progress: push the timer out.
                        let deadline = now + self.cfg.base_rtt + self.cfg.rto.draw(&mut self.rng);
                        self.flows[flow].rto_deadline = deadline;
                        self.q.schedule(deadline, Ev::Rto { flow, deadline });
                    }
                    // Dup acks may have armed a fast retransmit; either
                    // way the window may have opened.
                    self.inject(flow, now);
                }
                Ev::Rto { flow, deadline } => {
                    let f = &mut self.flows[flow];
                    if f.done() || f.rto_deadline != deadline {
                        continue; // stale timer
                    }
                    f.on_timeout();
                    f.rto_deadline = SimTime::NEVER;
                    if self.cfg.trace.enabled() {
                        self.cfg.trace.record(
                            "flow.rto",
                            Phase::Retry,
                            &format!("flow.{flow}"),
                            now.0,
                            now.0,
                            0,
                        );
                    }
                    self.inject(flow, now);
                }
            }
        }
        let makespan = end.since(start);
        let app_bytes = self.cfg.senders as u64 * self.cfg.sru_bytes * self.cfg.blocks as u64;
        let goodput_bps =
            if makespan.is_zero() { 0.0 } else { app_bytes as f64 * 8.0 / makespan.as_secs_f64() };
        IncastReport {
            makespan,
            goodput_bps,
            timeouts: self.flows.iter().map(|f| f.timeouts as u64).sum(),
            drops: self.drops,
            packets: self.sent,
        }
    }
}

/// Run one incast scenario.
pub fn run_incast(cfg: &IncastConfig) -> IncastReport {
    Sim::new(cfg.clone()).run()
}

/// Sweep sender counts; returns `(senders, goodput Mbps)` — the Fig. 9
/// series.
pub fn goodput_sweep(counts: &[usize], mk: impl Fn(usize) -> IncastConfig) -> Vec<(usize, f64)> {
    counts.iter().map(|&n| (n, run_incast(&mk(n)).goodput_bps / 1e6)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sender_uses_most_of_the_link() {
        let rep = run_incast(&IncastConfig::gbe(1, RtoPolicy::legacy_200ms()));
        assert!(rep.timeouts == 0, "lone flow should not time out");
        let eff = rep.efficiency(&IncastConfig::gbe(1, RtoPolicy::legacy_200ms()));
        assert!(eff > 0.5, "single-flow efficiency {eff}");
    }

    #[test]
    fn few_senders_fill_the_link() {
        let cfg = IncastConfig::gbe(4, RtoPolicy::legacy_200ms());
        let rep = run_incast(&cfg);
        assert!(rep.efficiency(&cfg) > 0.7, "4 senders: {}", rep.efficiency(&cfg));
    }

    #[test]
    fn goodput_collapses_with_many_senders_at_200ms() {
        let cfg = IncastConfig::gbe(32, RtoPolicy::legacy_200ms());
        let rep = run_incast(&cfg);
        assert!(rep.timeouts > 0, "no timeouts at 32-way fan-in?");
        assert!(
            rep.efficiency(&cfg) < 0.25,
            "expected collapse, got {:.0} Mbps",
            rep.goodput_bps / 1e6
        );
    }

    #[test]
    fn one_millisecond_rto_repairs_collapse() {
        let slow = run_incast(&IncastConfig::gbe(32, RtoPolicy::legacy_200ms()));
        let fast = run_incast(&IncastConfig::gbe(32, RtoPolicy::hires_1ms()));
        assert!(
            fast.goodput_bps > 4.0 * slow.goodput_bps,
            "1 ms RTO should restore goodput: {:.0} vs {:.0} Mbps",
            fast.goodput_bps / 1e6,
            slow.goodput_bps / 1e6
        );
    }

    #[test]
    fn collapse_deepens_as_senders_grow() {
        let sweep =
            goodput_sweep(&[4, 16, 40], |n| IncastConfig::gbe(n, RtoPolicy::legacy_200ms()));
        assert!(sweep[0].1 > sweep[2].1, "goodput should fall with fan-in: {sweep:?}");
    }

    #[test]
    fn randomization_helps_at_10gbe_scale() {
        let fixed = run_incast(&IncastConfig::ten_gbe(256, RtoPolicy::hires_1ms()));
        let rand = run_incast(&IncastConfig::ten_gbe(256, RtoPolicy::hires_1ms_randomized()));
        // Synchronized retransmissions re-collide; randomization must
        // not be worse and usually wins.
        assert!(rand.goodput_bps >= fixed.goodput_bps * 0.9);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = run_incast(&IncastConfig::gbe(16, RtoPolicy::hires_1ms_randomized()));
        let b = run_incast(&IncastConfig::gbe(16, RtoPolicy::hires_1ms_randomized()));
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.timeouts, b.timeouts);
    }

    #[test]
    fn incast_trace_captures_queue_drops_and_timeouts() {
        let plain = run_incast(&IncastConfig::gbe(32, RtoPolicy::legacy_200ms()));
        let mut cfg = IncastConfig::gbe(32, RtoPolicy::legacy_200ms());
        cfg.trace = TraceSink::bounded(1 << 18);
        let sink = cfg.trace.clone();
        let rep = run_incast(&cfg);
        assert_eq!(rep.makespan, plain.makespan, "tracing must not perturb the run");
        let spans = sink.snapshot();
        assert_eq!(sink.dropped(), 0, "sink too small for this scenario");
        obs::trace::validate(&spans).expect("well-formed packet trace");
        assert!(spans.iter().any(|s| s.name == "pkt.queue"), "no queueing under incast?");
        assert_eq!(spans.iter().filter(|s| s.name == "pkt.drop").count() as u64, rep.drops);
        assert_eq!(spans.iter().filter(|s| s.name == "flow.rto").count() as u64, rep.timeouts);
        // Delivered packets all have a span on their flow's track.
        let pkts = spans.iter().filter(|s| s.name == "pkt").count() as u64;
        assert_eq!(pkts, rep.packets - rep.drops);
    }

    #[test]
    fn conservation_no_lost_progress() {
        let cfg = IncastConfig::gbe(8, RtoPolicy::hires_1ms());
        let rep = run_incast(&cfg);
        // Every app byte must eventually be delivered: sent >= needed,
        // and sent - drops >= needed (retransmissions cover drops).
        let needed = cfg.senders as u64 * cfg.sru_packets() as u64 * cfg.blocks as u64;
        assert!(rep.packets >= needed);
        assert!(rep.packets - rep.drops >= needed);
    }
}
