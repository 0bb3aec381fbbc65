//! Why pNFS: NAS funnels every byte through the server; pNFS clients
//! go to the data servers directly.
//!
//! The report (§2.2): "By separating data and metadata access, pNFS
//! eliminates the server bottlenecks inherent to NAS access methods"
//! and "promises state of the art performance \[and\] massive
//! scalability". This model measures exactly that crossover: aggregate
//! read bandwidth as client count grows, for plain NFS (one server's
//! NIC serializes all data) versus pNFS (a LAYOUTGET round trip at the
//! MDS, then striped direct access to N data servers).

use crate::layout::{IoMode, LayoutManager};
use simkit::{SimDuration, SimTime, Timeline};

/// Which protocol the clients use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessProtocol {
    /// Plain NFS: every byte proxied through the single server.
    Nfs,
    /// NFSv4.1 pNFS: layouts from the MDS, data direct from the data
    /// servers.
    Pnfs,
}

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    pub clients: usize,
    pub data_servers: usize,
    /// Bytes each client reads.
    pub bytes_per_client: u64,
    /// Per-request transfer unit.
    pub rpc_size: u64,
    /// Server/data-server NIC bandwidth, bytes/sec.
    pub server_bw: f64,
    /// Client NIC bandwidth, bytes/sec.
    pub client_bw: f64,
    /// Per-RPC latency (request processing + round trip).
    pub rpc_latency: SimDuration,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig {
            clients: 16,
            data_servers: 8,
            bytes_per_client: 256 << 20,
            rpc_size: 1 << 20,
            server_bw: 1.0e9,
            client_bw: 1.0e9,
            rpc_latency: SimDuration::from_micros(200),
        }
    }
}

/// Outcome of one run.
#[derive(Debug, Clone, Copy)]
pub struct ScalingReport {
    pub makespan: SimDuration,
    pub aggregate_bps: f64,
    pub layout_grants: u64,
    pub layout_recalls: u64,
}

/// Run the aggregate-read experiment.
pub fn run_access(cfg: &ScalingConfig, protocol: AccessProtocol) -> ScalingReport {
    let mut mds = Timeline::new();
    let mut layouts = LayoutManager::new();
    let mut data_servers = vec![Timeline::new(); cfg.data_servers];
    let mut nfs_server = Timeline::new();
    let mut end = SimTime::ZERO;

    // Earliest-ready scheduling across clients so shared-resource
    // reservations happen in global time order (clients interleave on
    // the server timelines instead of queueing whole transfers).
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    struct ClientState {
        link: Timeline,
        remaining: u64,
        rpc_idx: u64,
    }
    let mut clients: Vec<ClientState> = (0..cfg.clients)
        .map(|c| {
            let mut t = SimTime::ZERO;
            if protocol == AccessProtocol::Pnfs {
                // One LAYOUTGET covering the whole region this client
                // reads (the MDS is out of the data path afterwards).
                let (_, granted) = mds.reserve(t, cfg.rpc_latency);
                layouts
                    .layout_get(c as u32, c as u64, 0, cfg.bytes_per_client, IoMode::Read)
                    .expect("read layouts never conflict");
                t = granted;
            }
            let mut link = Timeline::new();
            link.delay_until(t);
            ClientState { link, remaining: cfg.bytes_per_client, rpc_idx: 0 }
        })
        .collect();
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> =
        clients.iter().enumerate().map(|(c, st)| Reverse((st.link.free_at(), c))).collect();
    while let Some(Reverse((ready, c))) = heap.pop() {
        let st = &mut clients[c];
        if st.remaining == 0 {
            end = end.max_of(ready);
            continue;
        }
        let chunk = cfg.rpc_size.min(st.remaining);
        st.remaining -= chunk;
        let svc = SimDuration::for_bytes(chunk, cfg.server_bw) + cfg.rpc_latency;
        let served = match protocol {
            AccessProtocol::Nfs => {
                // All clients share the one server NIC.
                let (_, done) = nfs_server.reserve(ready, svc);
                done
            }
            AccessProtocol::Pnfs => {
                // Stripe unit i comes straight from data server
                // i mod N; clients spread across them.
                let ds = (st.rpc_idx as usize + c) % cfg.data_servers;
                let (_, done) = data_servers[ds].reserve(ready, svc);
                done
            }
        };
        // Client NIC receives the chunk.
        let (_, got) = st.link.reserve(served, SimDuration::for_bytes(chunk, cfg.client_bw));
        st.rpc_idx += 1;
        heap.push(Reverse((got, c)));
    }
    let makespan = end.since(SimTime::ZERO);
    let total = cfg.clients as u64 * cfg.bytes_per_client;
    ScalingReport {
        makespan,
        aggregate_bps: makespan.throughput(total),
        layout_grants: layouts.grants_issued,
        layout_recalls: layouts.recalls_issued,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pnfs_scales_past_the_single_server() {
        let cfg = ScalingConfig::default();
        let nfs = run_access(&cfg, AccessProtocol::Nfs);
        let pnfs = run_access(&cfg, AccessProtocol::Pnfs);
        // One 1 GB/s server vs eight: ~8x.
        let ratio = pnfs.aggregate_bps / nfs.aggregate_bps;
        assert!(ratio > 5.0, "pNFS should scale with data servers: {ratio:.1}x");
        assert_eq!(pnfs.layout_grants, cfg.clients as u64);
        assert_eq!(pnfs.layout_recalls, 0);
    }

    #[test]
    fn nfs_is_capped_at_one_nic() {
        let cfg = ScalingConfig::default();
        let rep = run_access(&cfg, AccessProtocol::Nfs);
        assert!(rep.aggregate_bps <= cfg.server_bw * 1.01);
    }

    #[test]
    fn single_client_sees_little_difference() {
        // With one client, its own NIC is the bottleneck either way.
        let cfg = ScalingConfig { clients: 1, ..Default::default() };
        let nfs = run_access(&cfg, AccessProtocol::Nfs);
        let pnfs = run_access(&cfg, AccessProtocol::Pnfs);
        let ratio = pnfs.aggregate_bps / nfs.aggregate_bps;
        assert!((0.8..1.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn pnfs_aggregate_grows_with_data_servers() {
        let bw = |ds: usize| {
            let cfg = ScalingConfig { data_servers: ds, clients: 32, ..Default::default() };
            run_access(&cfg, AccessProtocol::Pnfs).aggregate_bps
        };
        let b2 = bw(2);
        let b8 = bw(8);
        assert!(b8 > 3.0 * b2, "scaling broken: {b2} -> {b8}");
    }
}
