//! Sharded parallel tick engine with deterministic merge.
//!
//! ## Execution model
//!
//! The network is partitioned into `effective_shards()` contiguous *bands*
//! of routers (and their NIs — `concentration` nodes per router on a
//! concentrated mesh), each owned by a persistent worker thread for
//! the duration of a *segment* (a span of cycles bounded by the oracle's
//! end-of-cycle scan schedule). Each cycle:
//!
//! 1. The **coordinator** (the caller's thread) consumes last cycle's
//!    ejected flits (latency recording, reply generation — sequential,
//!    exactly the scalar order), asks the traffic source for this cycle's
//!    packets in ascending node order (packet ids and RNG draws are
//!    order-sensitive), and routes last cycle's boundary flits/credits plus
//!    the fresh packets to their owning bands over per-band channels.
//! 2. Each **worker** runs the full reverse-dataflow pipeline over its band
//!    — deliver, SA (+ST), VA, RC, injection, state update — using the
//!    shared band-scoped phase functions of [`crate::network`]. Flits that
//!    cross a band boundary, returned credits, ejected flits, buffered
//!    oracle events and stat deltas go into a [`PhaseOut`] sink.
//! 3. The coordinator receives one sink per band **in band-index order**
//!    (plain blocking `recv` per band — a fixed reduction order, never a
//!    racy first-come drain) and merges: queues are concatenated in band
//!    order (bands are contiguous and ascending, so concatenation equals
//!    the scalar engine's single ascending sweep), counters are summed, and
//!    oracle events are replayed band by band.
//!
//! Determinism therefore never depends on thread scheduling: every
//! cross-band interaction funnels through the coordinator's fixed-order
//! merge, and each band's internal work is sequential. `SimStats::digest`
//! is bit-identical to the scalar engine at every shard count (asserted by
//! `tests/sharded.rs` across schemes, routings and shard counts).
//!
//! ## Fast-forward
//!
//! Workers report an *idle span* with every cycle: whether their band is
//! quiescent (no occupied VC, no dirty router), whether their NI backlogs
//! are empty, and the earliest pending reply. When every band is idle, no
//! traffic is in flight between bands and the source promises silence, the
//! coordinator merges the per-shard spans into one global jump — the
//! sharded analogue of the scalar engine's idle fast-forward — without
//! waking a single worker. Between segments the scalar fast-forward runs
//! as usual.
//!
//! ## Scope
//!
//! Configurations that thread per-cycle global state through the mesh
//! (analysis instrumentation, fault timelines, injected frozen-allocator
//! faults) fall back to the scalar engine via
//! [`Network::effective_shards`]; link traversal then always takes exactly
//! one cycle, which the workers assert.

use crate::arbitration::PriorityPolicy;
use crate::config::SimConfig;
use crate::flit::PacketInfo;
use crate::ids::{NodeId, Port};
use crate::network::{
    replay_notes, InFlight, Network, OracleNote, PhaseOut, ReplySchedule, SaCand, VaReq,
};
use crate::node::Node;
use crate::region::RegionMap;
use crate::router::Router;
use crate::routing::RoutingAlgorithm;
use std::sync::mpsc::{channel, Receiver, Sender};

/// Everything one band needs to execute one cycle.
struct CycleCmd {
    cycle: u64,
    /// Credits returned to this band's routers (global indices).
    credits: Vec<(usize, Port, usize)>,
    /// Flits arriving at this band's routers this cycle (global indices).
    arrivals: Vec<InFlight>,
    /// Replies this band's NIs must schedule (from last cycle's ejects).
    replies: Vec<ReplySchedule>,
    /// Freshly generated packets for this band's NIs, ascending.
    enqueues: Vec<(u32, PacketInfo)>,
    /// Full previous-cycle congestion view (adaptive routing reads remote
    /// entries).
    congestion: Vec<u16>,
}

/// One band's per-cycle output.
struct ShardOut {
    out: PhaseOut,
    /// The band's slice of the end-of-cycle congestion view.
    congestion: Vec<u16>,
    /// No occupied VC and no dirty router anywhere in the band.
    quiescent: bool,
    /// Every NI backlog in the band is empty.
    backlog_empty: bool,
    /// Earliest pending NI reply in the band, if any.
    next_reply: Option<u64>,
}

enum ShardMsg {
    Cycle(Box<ShardOut>),
    /// Sent once when the command channel closes: the band's state comes
    /// home for reassembly.
    Done(Vec<Router>, Vec<Node>),
}

/// Per-band idle information retained between cycles for the merged jump.
struct IdleInfo {
    quiescent: bool,
    backlog_empty: bool,
    next_reply: Option<u64>,
}

struct WorkerCfg<'a> {
    cfg: &'a SimConfig,
    region: &'a RegionMap,
    routing: &'a dyn RoutingAlgorithm,
    policy: &'a dyn PriorityPolicy,
    base: usize,
    num_apps: usize,
    record_notes: bool,
    force_exhaustive: bool,
    may_skip_updates: bool,
}

/// A worker owns one contiguous band of routers and NIs and runs the full
/// pipeline over it each commanded cycle. Exits (returning its state) when
/// the command channel closes.
fn worker_loop(
    w: &WorkerCfg<'_>,
    mut routers: Vec<Router>,
    mut nodes: Vec<Node>,
    rx: &Receiver<CycleCmd>,
    tx: &Sender<ShardMsg>,
) {
    let base = w.base;
    // Nodes are banded alongside their router: `concentration` nodes per
    // router, so the band's first node is `base * concentration`.
    let node_base = base * w.cfg.concentration();
    let mut sa_scratch: Vec<SaCand> = Vec::new();
    let mut va_scratch: Vec<VaReq> = Vec::new();
    while let Ok(cmd) = rx.recv() {
        let cycle = cmd.cycle;
        let mut out = PhaseOut::new(w.num_apps, w.record_notes);
        // Deliver: credits first (they free space SA may use this cycle).
        for (r, port, vc) in cmd.credits {
            routers[r - base].return_credit(port, vc);
        }
        for a in &cmd.arrivals {
            debug_assert_eq!(
                a.arrive, cycle,
                "sharded engine requires single-cycle links (no fault state)"
            );
            let newly = Network::apply_arrival(w.cfg, &mut routers[a.dst_router - base], a);
            if out.record_notes {
                let id = a.dst_router as NodeId;
                out.notes.push(OracleNote::Arrival {
                    router: id,
                    port: a.in_port,
                    vc: a.vc,
                    flit: a.flit,
                });
                if newly {
                    out.notes.push(OracleNote::Occupancy {
                        router: id,
                        port: a.in_port,
                        vc: a.vc,
                        occupied: true,
                    });
                }
            }
        }
        for rs in &cmd.replies {
            nodes[rs.node - node_base]
                .schedule_reply(rs.ready, rs.id, rs.dst, rs.app, rs.class, rs.size);
        }
        Network::sa_band(
            w.cfg,
            w.policy,
            &mut routers,
            base,
            cycle,
            w.force_exhaustive,
            None,
            None,
            None,
            &mut sa_scratch,
            &mut out,
        );
        Network::va_band(
            w.cfg,
            w.region,
            w.routing,
            w.policy,
            &cmd.congestion,
            &mut routers,
            w.force_exhaustive,
            &mut va_scratch,
            &mut out.router_cycles_skipped,
        );
        Network::rc_band(
            w.cfg,
            w.routing,
            &mut routers,
            base,
            w.force_exhaustive,
            None,
            &mut out.router_cycles_skipped,
        );
        Network::inject_band(
            w.cfg,
            &mut nodes,
            &mut routers,
            base,
            cycle,
            &cmd.enqueues,
            None,
            &mut out,
        );
        // Skipped routers keep their previous congestion export.
        let mut cong_band = cmd.congestion[base..base + routers.len()].to_vec();
        Network::update_band(
            w.policy,
            &mut routers,
            &mut cong_band,
            w.may_skip_updates,
            cycle,
            None,
            &mut out.state_updates_skipped,
        );
        let quiescent = routers.iter().all(|r| r.occ_vcs == 0 && !r.occ_dirty);
        let mut backlog_empty = true;
        let mut next_reply: Option<u64> = None;
        for n in &nodes {
            if n.backlog() > 0 {
                backlog_empty = false;
            }
            if let Some(r) = n.next_reply_ready() {
                next_reply = Some(next_reply.map_or(r, |c| c.min(r)));
            }
        }
        if tx
            .send(ShardMsg::Cycle(Box::new(ShardOut {
                out,
                congestion: cong_band,
                quiescent,
                backlog_empty,
                next_reply,
            })))
            .is_err()
        {
            break; // coordinator gone (panic unwinding) — stop quietly
        }
    }
    let _ = tx.send(ShardMsg::Done(routers, nodes));
}

/// Run `cycles` cycles on the sharded engine. Digest-equivalent to
/// [`Network::run_scalar`]; see the module docs for the argument.
pub(crate) fn run_sharded(net: &mut Network, cycles: u64) {
    let end = net.cycle() + cycles;
    while net.cycle() < end {
        // Between segments the scalar idle fast-forward applies unchanged.
        if let Some(target) = net.fast_forward_target(end) {
            net.fast_forward_to(target);
            continue;
        }
        // A segment ends right after the next oracle scan cycle, so the
        // scan runs against fully reassembled state; without an oracle the
        // whole window is one segment.
        let seg_start = net.cycle();
        let stop = match net.oracle_check_interval() {
            Some(k) => end.min(seg_start.next_multiple_of(k) + 1),
            None => end,
        };
        run_segment(net, stop);
    }
}

fn run_segment(net: &mut Network, stop: u64) {
    let num_shards = net.effective_shards();
    let n = net.routers.len();
    let chunk = n.div_ceil(num_shards);
    // Router bands come from the topology (uniform `chunk`-sized spans of
    // the row-major router order, so `router / chunk` routes work to its
    // band); each band also owns the `concentration` nodes per router.
    let bounds = crate::topology::contiguous_bands(&net.cfg, num_shards);
    let num_bands = bounds.len();
    let conc = net.cfg.concentration();
    let num_apps = net.stats.injected_packets.len();
    let record_notes = net.oracle.is_some();
    let force_exhaustive = net.force_exhaustive;
    let may_skip_updates = !force_exhaustive && net.policy_idempotent;
    let ff_ok = net.fast_forward && !force_exhaustive && net.policy_idempotent;
    let seg_start = net.cycle();

    // Take the per-band state and the pending queues; everything flows back
    // at segment end.
    let routers_owned = std::mem::take(&mut net.routers);
    let nodes_owned = std::mem::take(&mut net.nodes);
    let mut pend_inflight = std::mem::take(&mut net.in_flight);
    let mut pend_credits = std::mem::take(&mut net.credit_q);
    let mut pend_ejects = std::mem::take(&mut net.eject_q);

    // Disjoint field borrows: shared config/algorithms for the workers,
    // mutable global state for the coordinator.
    let cfg = &net.cfg;
    let region = &net.region;
    let routing: &dyn RoutingAlgorithm = &*net.routing;
    let policy: &dyn PriorityPolicy = &*net.policy;
    let source = &mut net.source;
    let stats = &mut net.stats;
    let oracle = &mut net.oracle;
    let next_pkt_id = &mut net.next_pkt_id;
    let rngs = &mut net.rngs;
    let congestion = &mut net.congestion;

    let (new_routers, new_nodes) = std::thread::scope(|s| {
        let mut cmd_txs: Vec<Sender<CycleCmd>> = Vec::with_capacity(num_bands);
        let mut out_rxs: Vec<Receiver<ShardMsg>> = Vec::with_capacity(num_bands);
        {
            let mut riter = routers_owned.into_iter();
            let mut niter = nodes_owned.into_iter();
            for &(lo, hi) in &bounds {
                let r_band: Vec<Router> = riter.by_ref().take(hi - lo).collect();
                let n_band: Vec<Node> = niter.by_ref().take((hi - lo) * conc).collect();
                let (ctx, crx) = channel::<CycleCmd>();
                let (otx, orx) = channel::<ShardMsg>();
                cmd_txs.push(ctx);
                out_rxs.push(orx);
                let wcfg = WorkerCfg {
                    cfg,
                    region,
                    routing,
                    policy,
                    base: lo,
                    num_apps,
                    record_notes,
                    force_exhaustive,
                    may_skip_updates,
                };
                s.spawn(move || worker_loop(&wcfg, r_band, n_band, &crx, &otx));
            }
        }

        let mut last_infos: Option<Vec<IdleInfo>> = None;
        let mut gen_buf: Vec<(u32, PacketInfo)> = Vec::new();
        let mut arr_bands: Vec<Vec<InFlight>> = (0..num_bands).map(|_| Vec::new()).collect();
        let mut cred_bands: Vec<Vec<(usize, Port, usize)>> =
            (0..num_bands).map(|_| Vec::new()).collect();
        let mut rep_bands: Vec<Vec<ReplySchedule>> = (0..num_bands).map(|_| Vec::new()).collect();
        let mut enq_bands: Vec<Vec<(u32, PacketInfo)>> =
            (0..num_bands).map(|_| Vec::new()).collect();
        let mut t = seg_start;
        while t < stop {
            // Merged per-shard idle spans → one global jump (needs every
            // band idle since its last cycle and nothing pending between
            // bands; the source must promise silence without side effects).
            if ff_ok
                && pend_inflight.is_empty()
                && pend_credits.is_empty()
                && pend_ejects.is_empty()
            {
                if let Some(infos) = &last_infos {
                    if infos.iter().all(|i| i.quiescent && i.backlog_empty) {
                        if let Some(next_src) = source.next_injection_cycle(t) {
                            let mut target = stop.min(next_src);
                            for i in infos {
                                if let Some(r) = i.next_reply {
                                    target = target.min(r);
                                }
                            }
                            if target > t {
                                stats.idle_cycles_skipped += target - t;
                                t = target;
                                continue;
                            }
                        }
                    }
                }
            }
            // Consume last cycle's ejected flits — sequential, the exact
            // scalar order (eject queue order, before this cycle's
            // generation so packet ids interleave identically).
            for (nidx, flit) in pend_ejects.drain(..) {
                if let Some(rs) = Network::consume_ejected_core(
                    t,
                    nidx,
                    flit,
                    stats,
                    oracle.as_deref_mut(),
                    &mut **source,
                    next_pkt_id,
                    None,
                ) {
                    rep_bands[rs.node / conc / chunk].push(rs);
                }
            }
            Network::generate_packets(
                cfg,
                &mut **source,
                rngs,
                stats,
                next_pkt_id,
                None,
                t,
                &mut gen_buf,
            );
            // Route pending work to its owning band (stable partition:
            // per-band relative order is preserved).
            for a in pend_inflight.drain(..) {
                arr_bands[a.dst_router / chunk].push(a);
            }
            for c in pend_credits.drain(..) {
                cred_bands[c.0 / chunk].push(c);
            }
            for &e in &gen_buf {
                enq_bands[e.0 as usize / conc / chunk].push(e);
            }
            for (b, tx) in cmd_txs.iter().enumerate() {
                let cmd = CycleCmd {
                    cycle: t,
                    credits: std::mem::take(&mut cred_bands[b]),
                    arrivals: std::mem::take(&mut arr_bands[b]),
                    replies: std::mem::take(&mut rep_bands[b]),
                    enqueues: std::mem::take(&mut enq_bands[b]),
                    congestion: congestion.clone(),
                };
                tx.send(cmd).expect("worker alive");
            }
            // Fixed reduction order: band 0, band 1, … — blocking recv per
            // band, so merge order never depends on thread scheduling.
            let mut infos = Vec::with_capacity(num_bands);
            let mut progress = false;
            for (b, rx) in out_rxs.iter().enumerate() {
                let msg = rx.recv().expect("worker alive");
                let ShardMsg::Cycle(so) = msg else {
                    unreachable!("worker sent Done while commands pending")
                };
                let so = *so;
                // Contiguous ascending bands ⇒ concatenation equals the
                // scalar engine's single ascending sweep order.
                pend_inflight.extend(so.out.in_flight);
                pend_ejects.extend(so.out.eject);
                pend_credits.extend(so.out.credit);
                stats.router_cycles_skipped += so.out.router_cycles_skipped;
                stats.state_updates_skipped += so.out.state_updates_skipped;
                stats.injected_flits += so.out.injected_flits;
                for (a, cnt) in so.out.injected_packets.iter().enumerate() {
                    stats.injected_packets[a] += cnt;
                }
                progress |= so.out.progress;
                if let Some(o) = oracle.as_deref_mut() {
                    replay_notes(o, cfg, &so.out.notes, t);
                }
                let (lo, hi) = bounds[b];
                congestion[lo..hi].copy_from_slice(&so.congestion);
                infos.push(IdleInfo {
                    quiescent: so.quiescent,
                    backlog_empty: so.backlog_empty,
                    next_reply: so.next_reply,
                });
            }
            if progress {
                stats.last_progress = t;
            }
            last_infos = Some(infos);
            t += 1;
        }

        // Closing the command channels is the shutdown signal; each worker
        // answers with its state, collected in band order.
        drop(cmd_txs);
        let mut new_routers: Vec<Router> = Vec::with_capacity(n);
        let mut new_nodes: Vec<Node> = Vec::with_capacity(n * conc);
        for rx in &out_rxs {
            match rx.recv().expect("worker sends Done") {
                ShardMsg::Done(r, nd) => {
                    new_routers.extend(r);
                    new_nodes.extend(nd);
                }
                ShardMsg::Cycle(_) => unreachable!("unexpected cycle output after shutdown"),
            }
        }
        (new_routers, new_nodes)
    });

    net.routers = new_routers;
    net.nodes = new_nodes;
    net.in_flight = pend_inflight;
    net.credit_q = pend_credits;
    net.eject_q = pend_ejects;
    net.rebuild_masks();
    net.cycle = stop;
    // Replay the oracle scan the segment was sized around, against the
    // reassembled state and with the scan cycle's clock — the identical
    // schedule the scalar engine's per-tick (interval-gated) flush
    // produces.
    if let Some(k) = net.oracle_check_interval() {
        let last = stop - 1;
        if last.is_multiple_of(k) {
            net.cycle = last;
            net.flush_oracle(false);
            net.cycle = stop;
        }
    }
}
