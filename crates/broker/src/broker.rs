//! The broker node: connection manager, protocol state machine, and
//! lifecycle.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::{Buf, BufMut, Bytes};
use crossbeam::channel::{unbounded, Receiver, Sender};
use linkcast::{LinkTarget, MatchCache, RouteScratch, RoutingFabric, TreeId};
use linkcast_matching::{MatchStats, PstOptions};
use linkcast_types::{
    wire, BrokerId, ClientId, Event, LinkId, SchemaId, SchemaRegistry, SubscriberId, Subscription,
    SubscriptionId,
};
use parking_lot::{Mutex, RwLock};

use crate::control::{SubIdAllocator, TombstoneSet, SUB_COUNTER_BITS, SUB_ID_SPACE};
use crate::counters::{BrokerStats, Derived, Gauges, StatsInner};
use crate::engine::MatchingEngine;
use crate::log::{AckLog, EventLog};
use crate::outbox::{ConnId, Outbox, Sink};
use crate::protocol::{self, BrokerToBroker, BrokerToClient, ClientToBroker};
use crate::storage::{self, Storage, WalOp};
use crate::tcp::TcpTransport;
use crate::transport::{self, Transport};

/// How many received `Forward` frames a broker lets accumulate before it
/// pushes a cumulative `FwdAck` back over the link (the GC tick flushes
/// whatever is left, so acks also flow on idle links).
const FWD_ACK_EVERY: u64 = 64;

/// Initial (and minimum) redial backoff for supervised links.
const LINK_REDIAL_MIN: Duration = Duration::from_millis(50);
/// Redial backoff ceiling.
const LINK_REDIAL_MAX: Duration = Duration::from_secs(2);
/// How long a supervised link must survive before the redial backoff
/// resets to the minimum. A neighbor that accepts the TCP handshake and
/// then immediately dies (crash loop) keeps backing off instead of being
/// hot-redialed at the minimum interval forever.
const LINK_STABILITY_WINDOW: Duration = Duration::from_secs(2);

/// Saturating millisecond conversion for intervals stored in atomics.
fn duration_to_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX).max(1)
}

/// Stretches a redial backoff by a deterministic pseudo-random factor in
/// `[1.0, 1.5)`, advancing `state` (splitmix64) on each call. Without
/// jitter every supervisor redials a recovering neighbor in lockstep —
/// the escalation ladder is deterministic and shared — so a broker
/// coming back from a crash takes the whole mesh's dials in one burst.
/// Seeding `state` per (local, neighbor) pair decorrelates the herd
/// while keeping every schedule reproducible.
fn jittered_backoff(backoff: Duration, state: &mut u64) -> Duration {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let ms = duration_to_ms(backoff);
    // Up to +50% in whole milliseconds; `ms / 2 + 1` keeps the modulus
    // nonzero for sub-2ms backoffs.
    let extra = z % (ms / 2 + 1);
    Duration::from_millis(ms.saturating_add(extra))
}

/// Per-link jitter seed: distinct for every (local, neighbor) pair so
/// supervisors that share an escalation ladder still spread their dials.
fn jitter_seed(me: BrokerId, neighbor: BrokerId) -> u64 {
    (u64::from(me.raw()) << 32) ^ u64::from(neighbor.raw()) ^ 0x5851_f42d_4c95_7f2d
}

/// Seed for the heartbeat ping jitter stream: derived from the redial
/// seed for the same (local, neighbor) pair but offset so the two
/// schedules draw from decorrelated splitmix64 sequences — a link's ping
/// cadence must not mirror its redial cadence.
fn heartbeat_jitter_seed(me: BrokerId, neighbor: BrokerId) -> u64 {
    jitter_seed(me, neighbor) ^ 0x9e37_79b9_7f4a_7c15
}

/// Configuration of one broker node.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// This broker's identity in the topology.
    pub broker: BrokerId,
    /// Shared topology + spanning trees (identical on every node).
    pub fabric: Arc<RoutingFabric>,
    /// Information spaces served.
    pub registry: Arc<SchemaRegistry>,
    /// PST options for the matching engine.
    pub options: PstOptions,
    /// Listen address; use port 0 to let the OS pick.
    pub listen: SocketAddr,
    /// The network the node binds and dials through:
    /// [`TcpTransport`] (the default) for real sockets, or a
    /// [`SimNet`](crate::SimNet) host for deterministic in-process
    /// clusters.
    pub transport: Arc<dyn Transport>,
    /// Size of the sending-thread pool.
    pub sender_threads: usize,
    /// Garbage-collection period for client event logs.
    pub gc_interval: Duration,
    /// Maximum retained entries per client log (older unacknowledged
    /// entries are dropped and counted as lost).
    pub log_bound: usize,
    /// How long a disconnected client's log is retained before the garbage
    /// collector reclaims it entirely. A client reconnecting later starts a
    /// fresh session (sequence numbers restart).
    pub client_ttl: Duration,
    /// Number of matching-worker shards. With the default `1`, matching
    /// runs inline on the engine thread and every operation is processed in
    /// arrival order. With `N > 1`, events are matched on a pool of worker
    /// threads sharded by information space (schema id modulo `N`):
    /// same-space events keep their order, but an event may be matched
    /// after a subscribe/unsubscribe that arrived behind it — a throughput
    /// mode for publish-heavy workloads, not a different protocol.
    ///
    /// Sharding pays on match-heavy tables and costs on light fan-out. On
    /// the `benchmark/` chain (2 cores), 4 shards against 1 raised
    /// `match_heavy` throughput (deep decoy tables, the arena walk
    /// dominates) and lowered `fanout_light` throughput (no decoys, the
    /// cross-thread hand-off outweighs the walk it offloads); see
    /// `EXPERIMENTS.md` E7.
    pub match_shards: usize,
    /// Capacity of each match shard's result cache (entries), keyed by the
    /// event's *tested* attribute values and invalidated wholesale when the
    /// subscription set changes generation. `0` disables caching.
    pub match_cache_cap: usize,
    /// Maximum retained entries per broker-link spool. Events routed
    /// toward a neighbor are held (as stitched `Forward` frames) until the
    /// neighbor's cumulative acknowledgment; while a link is down the
    /// spool keeps growing up to this bound, after which the oldest
    /// unacknowledged frames are dropped and counted in
    /// [`BrokerStats::dropped_spool_overflow`].
    pub link_spool_bound: usize,
    /// How long a broker link may sit with no *received* traffic before the
    /// engine probes it with a `Ping`. Doubles as the heartbeat timer's
    /// tick period, so detection granularity is one interval. This is the
    /// initial value; [`BrokerNode::set_heartbeat_interval`] retunes a
    /// running node.
    pub heartbeat_interval: Duration,
    /// How long a broker link may stay completely silent (no frames at
    /// all — a live peer answers pings) before it is declared dead and torn
    /// down. The link spool keeps every unacknowledged frame, so the redial
    /// handshake retransmits and nothing is lost. Should be several
    /// heartbeat intervals.
    pub liveness_timeout: Duration,
    /// Per-connection cap on queued outgoing bytes. A client that crosses
    /// it (a subscriber that stopped reading) is evicted with a final
    /// `Error` frame; a broker peer that crosses it is disconnected and its
    /// spool retransmits after the redial. Either way one stalled consumer
    /// costs at most this much memory, not the broker.
    pub conn_queue_bound: u64,
    /// Graceful-shutdown drain deadline: how long [`BrokerNode::shutdown`]
    /// waits for queued frames (final acks, tail-of-stream deliveries) to
    /// flush before cutting stragglers off.
    pub drain_timeout: Duration,
    /// How long a dialed neighbor may take to send its first frame (the
    /// `Hello` handshake answer) before the link supervisor gives up and
    /// redials with backoff. A peer that accepts the TCP connection and
    /// then stalls would otherwise wedge the link forever.
    pub link_handshake_timeout: Duration,
    /// SO_SNDTIMEO applied to every TCP connection: a peer that stops
    /// reading while the kernel send buffer is full fails the write (and is
    /// disconnected) instead of wedging a sender-pool thread indefinitely.
    pub write_stall_timeout: Duration,
    /// Durable storage for crash consistency, or `None` (the default) for
    /// a purely in-memory broker. With storage configured, every routed
    /// event's spool appends and receive mark commit to a write-ahead log
    /// before its `Forward` frames reach the wire, control state
    /// (subscriptions, id allocator, incarnation, link windows) checkpoints
    /// to snapshots, and boot becomes recovery: load the snapshot, replay
    /// the WAL suffix, discard torn tails, and resume the *same*
    /// incarnation — to peers a crash looks like a long link stall, not a
    /// restart. See `DESIGN.md` §14.
    pub storage: Option<Arc<dyn Storage>>,
    /// Snapshot cadence with storage configured: after this many WAL
    /// records the broker checkpoints a snapshot and truncates the log,
    /// bounding both recovery replay time and WAL growth.
    pub snapshot_every: u64,
    /// Consecutive failed redials of a supervised link
    /// ([`BrokerNode::connect_to_persistent`]) after which the dialing
    /// broker declares the link dead and floods a `LinkDown` statement,
    /// triggering a topology repair: every broker recomputes its spanning
    /// forest over the surviving graph and routing cuts over under a new
    /// topology epoch (see `DESIGN.md` §15). `0` (the default) disables
    /// escalation — transient flaps then rely on spool-and-retransmit
    /// alone, which on a non-redundant (tree) topology is the only option
    /// anyway: repair can reroute only while the surviving graph stays
    /// connected. Escalation fires once per down episode; a successful
    /// handshake re-arms it.
    pub repair_after: u32,
    /// With storage configured: fsync the WAL before journaled `Forward`
    /// frames reach the wire (fsync-on-commit — a torn tail record can
    /// only ever describe frames no peer received). Disabling trades the
    /// power-cut guarantee for process-crash-only durability at much lower
    /// latency. `BENCH_broker_pipeline.json` records the retired
    /// `durability` leg's gap (`wal_overhead_pct`); `benchmark/` measures
    /// the durable path live with `--workload durable_churn`.
    pub wal_sync: bool,
}

impl BrokerConfig {
    /// A localhost configuration with OS-assigned port and default tuning.
    pub fn localhost(
        broker: BrokerId,
        fabric: Arc<RoutingFabric>,
        registry: Arc<SchemaRegistry>,
    ) -> Self {
        BrokerConfig {
            broker,
            fabric,
            registry,
            options: PstOptions::default(),
            // analyzer:allow(panic): startup-time parse of a literal address, not dataflow
            listen: "127.0.0.1:0".parse().expect("valid literal address"),
            transport: Arc::new(TcpTransport),
            sender_threads: 2,
            gc_interval: Duration::from_millis(250),
            log_bound: 4096,
            client_ttl: Duration::from_secs(3600),
            match_shards: 1,
            match_cache_cap: 0,
            link_spool_bound: 32768,
            heartbeat_interval: Duration::from_millis(500),
            liveness_timeout: Duration::from_secs(5),
            conn_queue_bound: 8 * 1024 * 1024,
            drain_timeout: Duration::from_secs(1),
            link_handshake_timeout: Duration::from_secs(2),
            write_stall_timeout: Duration::from_secs(5),
            repair_after: 0,
            storage: None,
            snapshot_every: 256,
            wal_sync: true,
        }
    }
}

pub(crate) enum Command {
    /// A frame payload (length prefix stripped) from a connection.
    Frame(ConnId, Bytes),
    /// The dialing side knows which neighbor it reached.
    DialedNeighbor(ConnId, BrokerId),
    /// A connection died (reader EOF/error or writer failure).
    Disconnected(ConnId),
    /// A matching-worker shard finished routing an event; the engine thread
    /// performs the dispatch (log appends and connection lookups stay
    /// single-threaded).
    Routed {
        event: Event,
        tree: TreeId,
        /// The event's wire encoding, sliced from the incoming frame.
        body: Bytes,
        links: Vec<LinkId>,
        /// Where the event entered routing: `Some((neighbor, seq,
        /// incarnation))` for a `Forward` from a peer, `None` for a local
        /// publish. Dispatch journals the receive mark from this, so the
        /// provenance must ride through the matching shards with the event.
        source: Option<(BrokerId, u64, u64)>,
        /// The topology epoch the links were computed under. A shard
        /// result that crosses an epoch flip in flight carries a stale
        /// epoch; the engine discards its links and re-matches inline
        /// under the repaired trees instead of dispatching over dead
        /// edges.
        epoch: u64,
    },
    /// A supervised link's redial escalation crossed
    /// [`BrokerConfig::repair_after`] consecutive failures (or an
    /// operator called [`BrokerNode::mark_link_down`]): declare the edge
    /// to this neighbor dead, flood the `LinkDown` statement, and repair
    /// the topology around it.
    LinkUnreachable(BrokerId),
    /// Periodic garbage collection of client logs.
    GcTick,
    /// Periodic liveness timer: ping idle broker links, tear down links
    /// silent past the liveness timeout.
    HeartbeatTick,
    /// A connection's outgoing queue crossed
    /// [`BrokerConfig::conn_queue_bound`] (reported once by the outbox);
    /// the engine picks the policy — client eviction or peer disconnect.
    QueueOverflow(ConnId),
    /// Stop the engine loop.
    Shutdown,
    /// Crash-stop the engine loop (fault injection): exit immediately,
    /// without the final ack flush a graceful `Shutdown` performs.
    Crash,
}

/// One unit of work for a matching-worker shard.
struct MatchJob {
    event: Event,
    tree: TreeId,
    /// The event's wire encoding, carried through so dispatch never
    /// re-serializes.
    body: Bytes,
    /// Provenance for the WAL receive mark; see [`Command::Routed`].
    source: Option<(BrokerId, u64, u64)>,
    /// Topology epoch at enqueue time; see [`Command::Routed`].
    epoch: u64,
}

enum Peer {
    Client(ClientId),
    Broker(BrokerId),
}

struct ClientState {
    conn: Option<ConnId>,
    log: EventLog,
    /// When the client's connection dropped (None while connected).
    disconnected_at: Option<std::time::Instant>,
}

/// A running broker node (also its handle: inspect stats, connect
/// neighbors, open local connections, shut down).
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use linkcast::{NetworkBuilder, RoutingFabric};
/// use linkcast_types::{EventSchema, SchemaRegistry, ValueKind};
/// use linkcast_broker::{BrokerConfig, BrokerNode};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetworkBuilder::new();
/// let b0 = b.add_broker();
/// let _client = b.add_client(b0)?;
/// let fabric = RoutingFabric::new_all_roots(b.build()?)?;
/// let mut registry = SchemaRegistry::new();
/// registry.register(
///     EventSchema::builder("trades")
///         .attribute("issue", ValueKind::Str)
///         .build()?,
/// )?;
/// let node = BrokerNode::start(BrokerConfig::localhost(b0, fabric, Arc::new(registry)))?;
/// println!("listening on {}", node.addr());
/// node.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct BrokerNode {
    broker: BrokerId,
    addr: SocketAddr,
    registry: Arc<SchemaRegistry>,
    cmd_tx: Sender<Command>,
    outbox: Arc<Outbox>,
    stats: Arc<StatsInner>,
    match_stats: Arc<Vec<Mutex<MatchStats>>>,
    shutdown: Arc<AtomicBool>,
    next_conn: Arc<AtomicU64>,
    /// [`BrokerConfig::transport`], kept for outbound dials.
    transport: Arc<dyn Transport>,
    /// [`BrokerConfig::drain_timeout`], kept for the shutdown path.
    drain_timeout: Duration,
    /// [`BrokerConfig::link_handshake_timeout`], kept for link supervisors.
    link_handshake_timeout: Duration,
    /// Current heartbeat probe interval in milliseconds, shared with the
    /// ticker thread and the engine loop so it can be retuned at runtime.
    heartbeat_ms: Arc<AtomicU64>,
    /// Current topology epoch, stored by the engine loop on every
    /// link-state flip and sampled by [`stats`](Self::stats). Equal
    /// epochs across brokers mean identical link-state tables, hence
    /// identical repaired forests — the cluster-convergence signal.
    topology_epoch: Arc<AtomicU64>,
    /// [`BrokerConfig::repair_after`], kept for link supervisors.
    repair_after: u32,
    engine_thread: Option<std::thread::JoinHandle<()>>,
    /// Joined on shutdown so the listener is unbound before `shutdown`
    /// returns — a restart re-binding the same address must not race the
    /// old acceptor's last wakeup.
    acceptor_thread: Option<std::thread::JoinHandle<()>>,
}

impl BrokerNode {
    /// Starts the node: binds the listener, spawns the engine loop, the
    /// sender pool, the acceptor, and the GC ticker.
    ///
    /// # Errors
    ///
    /// I/O errors from binding, or engine construction errors (boxed).
    pub fn start(config: BrokerConfig) -> Result<BrokerNode, Box<dyn std::error::Error>> {
        let listener = config.transport.bind(config.listen)?;
        let addr = listener.local_addr()?;

        let (cmd_tx, cmd_rx) = unbounded::<Command>();
        let (dead_tx, dead_rx) = unbounded::<ConnId>();
        let (overflow_tx, overflow_rx) = unbounded::<ConnId>();
        let outbox = Outbox::new(
            config.sender_threads.max(1),
            config.conn_queue_bound,
            Some(config.write_stall_timeout),
            dead_tx,
            overflow_tx,
        )?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsInner::default());
        let next_conn = Arc::new(AtomicU64::new(1));

        // Forward writer deaths into the command stream.
        {
            let cmd_tx = cmd_tx.clone();
            std::thread::Builder::new()
                .name("dead-conn-fwd".into())
                .spawn(move || {
                    for conn in dead_rx.iter() {
                        if cmd_tx.send(Command::Disconnected(conn)).is_err() {
                            break;
                        }
                    }
                })?;
        }

        // Forward queue overflows into the command stream (the engine owns
        // the peer table, so only it can pick eviction vs. disconnect).
        {
            let cmd_tx = cmd_tx.clone();
            std::thread::Builder::new()
                .name("overflow-fwd".into())
                .spawn(move || {
                    for conn in overflow_rx.iter() {
                        if cmd_tx.send(Command::QueueOverflow(conn)).is_err() {
                            break;
                        }
                    }
                })?;
        }

        // GC ticker.
        {
            let cmd_tx = cmd_tx.clone();
            let shutdown = Arc::clone(&shutdown);
            let interval = config.gc_interval;
            std::thread::Builder::new()
                .name("gc-ticker".into())
                .spawn(move || {
                    while !shutdown.load(Ordering::Acquire) {
                        std::thread::sleep(interval);
                        if cmd_tx.send(Command::GcTick).is_err() {
                            break;
                        }
                    }
                })?;
        }

        // Heartbeat ticker: the engine thread does the actual liveness
        // bookkeeping; this thread only provides the clock edge. The
        // interval lives in a shared atomic so `set_heartbeat_interval`
        // can retune a running node; sleeping in short quanta (rather
        // than one full interval) bounds how long a retune takes to bite.
        let heartbeat_ms = Arc::new(AtomicU64::new(duration_to_ms(config.heartbeat_interval)));
        {
            let cmd_tx = cmd_tx.clone();
            let shutdown = Arc::clone(&shutdown);
            let heartbeat_ms = Arc::clone(&heartbeat_ms);
            std::thread::Builder::new()
                .name("heartbeat-ticker".into())
                .spawn(move || {
                    let mut last_tick = std::time::Instant::now();
                    while !shutdown.load(Ordering::Acquire) {
                        let interval =
                            Duration::from_millis(heartbeat_ms.load(Ordering::Relaxed).max(1));
                        std::thread::sleep(interval.min(Duration::from_millis(100)));
                        if last_tick.elapsed() < interval {
                            continue;
                        }
                        last_tick = std::time::Instant::now();
                        if cmd_tx.send(Command::HeartbeatTick).is_err() {
                            break;
                        }
                    }
                })?;
        }

        // Acceptor.
        let acceptor_thread = transport::spawn_acceptor(
            listener,
            cmd_tx.clone(),
            Arc::clone(&outbox),
            Arc::clone(&next_conn),
            Arc::clone(&shutdown),
        )?;

        // Durable-state recovery, before the engine loop exists: load the
        // snapshot, replay the WAL suffix on top (discarding torn tails),
        // and resume the recovered incarnation so peers' cumulative acks
        // stay valid. With no storage configured this is a fresh boot.
        let recovered = match &config.storage {
            Some(st) => recover(st.as_ref(), &config.registry, &stats)?,
            None => Recovered::fresh(),
        };

        // Matching engine, shared read-mostly between the engine thread
        // (writes on subscribe/unsubscribe, reads when matching inline) and
        // the matching-worker shards (reads only).
        let engine = Arc::new(RwLock::new(MatchingEngine::new(
            config.broker,
            &config.fabric,
            Arc::clone(&config.registry),
            config.options.clone(),
        )?));
        if !recovered.subscriptions.is_empty() {
            // Re-install the checkpointed subscription set. Failures are
            // skipped rather than fatal (a subscription that no longer
            // parses against the fabric is better dropped than blocking
            // boot); the anti-entropy resync heals any gap from peers.
            let mut eng = engine.write();
            for (schema, subscription) in &recovered.subscriptions {
                let _ = eng.subscribe(*schema, subscription.clone());
            }
            stats
                .subscriptions
                .store(eng.subscription_count() as u64, Ordering::Relaxed);
        }
        if let Some(st) = &config.storage {
            // Commit recovery: a boot snapshot of the merged state, then
            // truncate the WAL it absorbed. Snapshot-then-truncate order
            // makes a cut between the two steps harmless — the old records
            // replay idempotently on top of the new snapshot. Only after
            // this point may the engine talk to peers (the snapshot is
            // what makes the resumed incarnation durable).
            let snapshot = encode_snapshot(
                recovered.incarnation,
                &recovered.sub_ids,
                &recovered.tombstones,
                &recovered.recv_from,
                &recovered.spools,
                &recovered.subscriptions,
            );
            st.write_snapshot(STATE_SNAPSHOT, &snapshot)?;
            st.truncate(WAL_LOG)?;
            stats.snapshot_writes.fetch_add(1, Ordering::Relaxed);
        }
        let Recovered {
            incarnation,
            sub_ids,
            tombstones,
            recv_from,
            spools,
            subscriptions: _,
        } = recovered;
        let shards = config.match_shards.max(1);
        let match_stats: Arc<Vec<Mutex<MatchStats>>> =
            Arc::new((0..shards).map(|_| Mutex::new(MatchStats::new())).collect());

        // Matching-worker shards (only when configured): each worker owns
        // the PST walk for its share of the information spaces and hands
        // the routed link set back to the engine thread for dispatch.
        let mut shard_txs: Vec<Sender<MatchJob>> = Vec::new();
        if config.match_shards > 1 {
            for shard in 0..config.match_shards {
                let (tx, rx) = unbounded::<MatchJob>();
                let engine = Arc::clone(&engine);
                let cmd_tx = cmd_tx.clone();
                let shard_stats = Arc::clone(&match_stats);
                let cache_cap = config.match_cache_cap;
                std::thread::Builder::new()
                    .name(format!("match-{}-{shard}", config.broker))
                    .spawn(move || {
                        // Shard-owned, so no lock guards the cache or the
                        // scratch masks: each worker serializes its own
                        // information spaces by construction.
                        let mut cache = MatchCache::new(cache_cap);
                        let mut scratch = RouteScratch::new();
                        for job in rx.iter() {
                            let mut local = MatchStats::new();
                            let mut links = Vec::new();
                            engine.read().route_cached(
                                &job.event,
                                job.tree,
                                1,
                                &mut cache,
                                &mut scratch,
                                &mut local,
                                &mut links,
                            );
                            if let Some(shard_stats) = shard_stats.get(shard) {
                                *shard_stats.lock() += local;
                            }
                            let routed = Command::Routed {
                                event: job.event,
                                tree: job.tree,
                                body: job.body,
                                links,
                                source: job.source,
                                epoch: job.epoch,
                            };
                            if cmd_tx.send(routed).is_err() {
                                break;
                            }
                        }
                    })?;
                shard_txs.push(tx);
            }
        }

        // Engine loop.
        let topology_epoch = Arc::new(AtomicU64::new(0));
        let engine_thread = {
            let outbox = Arc::clone(&outbox);
            let stats = Arc::clone(&stats);
            let match_stats = Arc::clone(&match_stats);
            let config2 = config.clone();
            let heartbeat_ms = Arc::clone(&heartbeat_ms);
            let topology_epoch = Arc::clone(&topology_epoch);
            std::thread::Builder::new()
                .name(format!("broker-{}", config.broker))
                .spawn(move || {
                    let durable = config2.storage.clone().map(|st| Durable {
                        storage: st,
                        records_since_snapshot: 0,
                        buf: Vec::new(),
                    });
                    EngineLoop {
                        match_cache: MatchCache::new(config2.match_cache_cap),
                        route_scratch: RouteScratch::new(),
                        fabric: Arc::clone(&config2.fabric),
                        link_state: crate::repair::LinkStateTable::default(),
                        epoch: 0,
                        epoch_gauge: topology_epoch,
                        ping_jitter: HashMap::new(),
                        config: config2,
                        incarnation,
                        engine,
                        outbox,
                        stats,
                        match_stats,
                        shard_txs,
                        conns: HashMap::new(),
                        clients: HashMap::new(),
                        neighbors: HashMap::new(),
                        awaiting_hello: HashSet::new(),
                        spools,
                        recv_from,
                        tombstones,
                        sub_ids,
                        last_heard: HashMap::new(),
                        heartbeat_ms,
                        durable,
                    }
                    .run(cmd_rx)
                })?
        };

        Ok(BrokerNode {
            broker: config.broker,
            addr,
            registry: config.registry,
            cmd_tx,
            outbox,
            stats,
            match_stats,
            shutdown,
            next_conn,
            transport: config.transport,
            drain_timeout: config.drain_timeout,
            link_handshake_timeout: config.link_handshake_timeout,
            heartbeat_ms,
            topology_epoch,
            repair_after: config.repair_after,
            engine_thread: Some(engine_thread),
            acceptor_thread: Some(acceptor_thread),
        })
    }

    /// This broker's id.
    pub fn broker(&self) -> BrokerId {
        self.broker
    }

    /// Retunes the heartbeat probe interval on a running node (ops tuning
    /// without a restart; benches use it to toggle the sweep). Takes
    /// effect within one ticker quantum (at most ~100 ms). The liveness
    /// timeout is a detection policy, not a tuning knob, and stays fixed.
    pub fn set_heartbeat_interval(&self, interval: Duration) {
        self.heartbeat_ms
            .store(duration_to_ms(interval), Ordering::Relaxed);
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The information spaces served.
    pub fn registry(&self) -> &Arc<SchemaRegistry> {
        &self.registry
    }

    /// Dials a neighbor broker and performs the broker-protocol handshake.
    /// Call once per topology link (one side suffices; conventionally the
    /// higher-id broker dials).
    ///
    /// # Errors
    ///
    /// Connection I/O errors.
    pub fn connect_to(&self, neighbor: BrokerId, addr: SocketAddr) -> std::io::Result<()> {
        let connection = self.transport.dial(addr)?;
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        self.outbox.register(conn, Sink::Link(connection.writer));
        // The engine sends the `Hello` when it processes `DialedNeighbor`:
        // the handshake carries per-link sequence state only the engine
        // thread knows.
        let _ = self.cmd_tx.send(Command::DialedNeighbor(conn, neighbor));
        transport::spawn_reader(
            connection.reader,
            conn,
            self.cmd_tx.clone(),
            Arc::clone(&self.shutdown),
        );
        Ok(())
    }

    /// Like [`BrokerNode::connect_to`], but supervised: if the link drops
    /// (or the first dial fails), a background thread redials with
    /// exponential backoff until the node shuts down. The backoff resets
    /// only after a link has survived a stability window, so a neighbor
    /// stuck in an accept-then-crash loop is not hot-redialed at the
    /// minimum interval. On every (re-)establishment both sides exchange
    /// `Hello` handshakes that resync their full subscription sets *and*
    /// their per-link spool state: events routed toward the neighbor while
    /// the link was down were spooled (up to
    /// [`BrokerConfig::link_spool_bound`]) and are retransmitted after the
    /// handshake, with receiver-side sequence dedup discarding any copies
    /// that had already crossed before the flap — at-least-once across the
    /// link, exactly-once into client logs.
    pub fn connect_to_persistent(&self, neighbor: BrokerId, addr: SocketAddr) {
        let cmd_tx = self.cmd_tx.clone();
        let outbox = Arc::clone(&self.outbox);
        let next_conn = Arc::clone(&self.next_conn);
        let shutdown = Arc::clone(&self.shutdown);
        let transport = Arc::clone(&self.transport);
        let handshake_timeout = self.link_handshake_timeout;
        let repair_after = self.repair_after;
        let me = self.broker;
        let _ = std::thread::Builder::new()
            .name(format!("link-{me}-{neighbor}"))
            .spawn(move || {
                let mut backoff = LINK_REDIAL_MIN;
                let mut jitter = jitter_seed(me, neighbor);
                // Consecutive redial failures since the link last completed
                // a handshake; crossing `repair_after` escalates ONCE per
                // down episode to a `LinkDown` topology repair. A
                // successful handshake re-arms the escalation.
                let mut failures: u32 = 0;
                let mut escalated = false;
                while !shutdown.load(Ordering::Acquire) {
                    // Dial failures (including per-connection setup inside
                    // the transport) back off instead of spin-dialing.
                    // Never panic here — that would kill the supervisor
                    // thread and orphan the link forever.
                    let Ok(connection) = transport.dial(addr) else {
                        failures = failures.saturating_add(1);
                        if repair_after > 0 && failures >= repair_after && !escalated {
                            escalated = true;
                            if cmd_tx.send(Command::LinkUnreachable(neighbor)).is_err() {
                                return;
                            }
                        }
                        std::thread::sleep(jittered_backoff(backoff, &mut jitter));
                        backoff = (backoff * 2).min(LINK_REDIAL_MAX);
                        continue;
                    };
                    let mut reader = connection.reader;
                    let conn = next_conn.fetch_add(1, Ordering::Relaxed);
                    outbox.register(conn, crate::outbox::Sink::Link(connection.writer));
                    // The engine answers `DialedNeighbor` with the `Hello`
                    // handshake (it owns the spool/sequence state).
                    if cmd_tx
                        .send(Command::DialedNeighbor(conn, neighbor))
                        .is_err()
                    {
                        return;
                    }
                    let established = std::time::Instant::now();
                    // A peer that accepted the dial owes us its `Hello` (its
                    // first frame) within the handshake deadline; one that
                    // accepts and then stalls must not wedge this supervisor.
                    let handshake_deadline = established + handshake_timeout;
                    let mut greeted = false;
                    // Inline read loop; on link death, fall through to redial.
                    loop {
                        if shutdown.load(Ordering::Acquire) {
                            return;
                        }
                        match transport::read_frame(&mut reader) {
                            Ok(Some(payload)) => {
                                if !greeted {
                                    greeted = true;
                                    // The peer answered: the down episode
                                    // (if any) is over; re-arm escalation.
                                    failures = 0;
                                    escalated = false;
                                }
                                if cmd_tx.send(Command::Frame(conn, payload)).is_err() {
                                    return;
                                }
                            }
                            Ok(None) => {
                                if !greeted && std::time::Instant::now() >= handshake_deadline {
                                    // Handshake never completed: tear the
                                    // conn down (the engine unregisters it,
                                    // closing the socket) and take the
                                    // backoff path like a failed dial.
                                    let _ = cmd_tx.send(Command::Disconnected(conn));
                                    break;
                                }
                                continue;
                            }
                            Err(_) => {
                                let _ = cmd_tx.send(Command::Disconnected(conn));
                                break;
                            }
                        }
                    }
                    // Only a link that proved stable (handshake included)
                    // earns a backoff reset; an accept-then-die or
                    // accept-then-stall neighbor keeps escalating.
                    backoff = if greeted && established.elapsed() >= LINK_STABILITY_WINDOW {
                        LINK_REDIAL_MIN
                    } else {
                        (backoff * 2).min(LINK_REDIAL_MAX)
                    };
                    if !greeted {
                        // Accept-then-stall counts toward repair escalation
                        // like a refused dial: the link is not usable.
                        failures = failures.saturating_add(1);
                        if repair_after > 0 && failures >= repair_after && !escalated {
                            escalated = true;
                            if cmd_tx.send(Command::LinkUnreachable(neighbor)).is_err() {
                                return;
                            }
                        }
                    }
                    std::thread::sleep(jittered_backoff(backoff, &mut jitter));
                }
            });
    }

    /// Operator escalation: declare the link to `neighbor` dead *now*,
    /// without waiting for [`BrokerConfig::repair_after`] redial
    /// failures. The broker floods a `LinkDown` statement and repairs
    /// its topology exactly as if the link supervisor had escalated.
    ///
    /// A link whose connection is currently live (handshake complete) is
    /// left alone — marking a healthy link down is a no-op, which also
    /// makes a stale supervisor escalation racing a reconnect harmless.
    /// The repair undoes itself when the link next completes a `Hello`
    /// handshake (a `LinkUp` statement floods).
    pub fn mark_link_down(&self, neighbor: BrokerId) {
        let _ = self.cmd_tx.send(Command::LinkUnreachable(neighbor));
    }

    /// Opens an in-process connection (bypassing TCP). The returned pair is
    /// a sender for client frames and a receiver of broker frames — used by
    /// tests and the throughput benchmark.
    pub fn open_local(&self) -> LocalConn {
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = unbounded::<Bytes>();
        self.outbox.register(conn, Sink::Chan(tx));
        LocalConn {
            conn,
            cmd_tx: self.cmd_tx.clone(),
            rx,
            registry: Arc::clone(&self.registry),
        }
    }

    /// A snapshot of the broker's counters.
    pub fn stats(&self) -> BrokerStats {
        let (queued_frames, queued_bytes) = self.outbox.queue_depth();
        let matching = self.match_stats();
        self.stats.broker_stats(
            Derived {
                match_cache_hits: matching.cache_hits,
                match_cache_misses: matching.cache_misses,
                match_cache_invalidations: matching.cache_invalidations,
            },
            Gauges {
                queued_frames,
                queued_bytes,
                connections: self.outbox.connections(),
                topology_epoch: self.topology_epoch.load(Ordering::Relaxed),
            },
        )
    }

    /// Aggregated matching cost across the inline path and every
    /// matching-worker shard.
    pub fn match_stats(&self) -> MatchStats {
        let mut total = MatchStats::new();
        for shard_stats in self.match_stats.iter() {
            total += *shard_stats.lock();
        }
        total
    }

    /// Stops the node: the engine loop exits, the acceptor stops, reader
    /// threads wind down at their next poll.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // The flag stops the acceptor (no new connections join the drain)
        // and winds reader threads down at their next poll.
        self.shutdown.store(true, Ordering::Release);
        let _ = self.cmd_tx.send(Command::Shutdown);
        if let Some(t) = self.engine_thread.take() {
            // The engine flushes its final cumulative acks before exiting,
            // so they are in the outbox queues when the drain starts.
            let _ = t.join();
        }
        if let Some(t) = self.acceptor_thread.take() {
            // Bounded by one accept quantum: joining proves the listener is
            // dropped, so the address is free the moment shutdown returns.
            let _ = t.join();
        }
        // Drain phase: flush every queue with a deadline and FIN each peer
        // as its queue empties, so neighbors trim their spools and restarts
        // don't open on avoidable retransmit storms. Stragglers past the
        // deadline are cut off; the sender pool winds down either way.
        self.outbox.drain_all(self.drain_timeout);
    }

    /// Crash-stops the node (fault injection): no final ack flush, no
    /// queue drain, no checkpoint — in-memory state dies as a power cut
    /// would take it, and the next start recovers from exactly what
    /// [`BrokerConfig::storage`] holds. Production shutdown is
    /// [`BrokerNode::shutdown`]; this exists so crash-consistency tests
    /// exercise the recovery path honestly.
    pub fn crash(mut self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = self.cmd_tx.send(Command::Crash);
        if let Some(t) = self.engine_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.acceptor_thread.take() {
            let _ = t.join();
        }
        // Instant transport teardown: queued frames (including any acks a
        // graceful drain would have delivered) are discarded, sockets FIN.
        self.outbox.close();
        // `Drop` still runs `shutdown_inner`, which is a no-op by now: the
        // threads are joined and `drain_all` on a closed outbox sees no
        // connections.
    }
}

impl Drop for BrokerNode {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for BrokerNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerNode")
            .field("broker", &self.broker)
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// An in-process connection to a broker (see [`BrokerNode::open_local`]).
pub struct LocalConn {
    conn: ConnId,
    cmd_tx: Sender<Command>,
    rx: Receiver<Bytes>,
    registry: Arc<SchemaRegistry>,
}

impl LocalConn {
    /// Sends a client-protocol message to the broker.
    pub fn send(&self, message: &ClientToBroker) {
        let frame = message.encode();
        // The engine expects the payload without the length prefix.
        let payload = frame.slice(4..);
        let _ = self.cmd_tx.send(Command::Frame(self.conn, payload));
    }

    /// Receives the next broker-protocol message, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`crate::ClientError`] on timeout or malformed frames.
    pub fn recv(&self, timeout: Duration) -> Result<BrokerToClient, crate::ClientError> {
        let frame = self
            .rx
            .recv_timeout(timeout)
            .map_err(|_| crate::ClientError::Timeout)?;
        let payload = frame.slice(4..);
        BrokerToClient::decode(payload, &self.registry)
            .map_err(|e| crate::ClientError::Protocol(e.to_string()))
    }
}

impl Drop for LocalConn {
    fn drop(&mut self) {
        let _ = self.cmd_tx.send(Command::Disconnected(self.conn));
    }
}

/// Mints a nonzero nonce for one broker lifetime: a process-wide counter
/// in the high bits (restarts within one process — the common test and
/// embedded-cluster case — always differ) salted with startup time in the
/// low bits (so counter collisions across separate processes still
/// differ in practice).
fn mint_incarnation() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::from(d.subsec_nanos()));
    (COUNTER.fetch_add(1, Ordering::Relaxed) << 32) | (nanos & 0xffff_ffff)
}

/// Name of the broker's single write-ahead log inside its [`Storage`].
const WAL_LOG: &str = "wal";
/// Name of the broker's control-state snapshot slot.
const STATE_SNAPSHOT: &str = "state";
/// Upper bound on any count field in a snapshot. Snapshots are
/// self-written (never peer input), so a larger count only ever means
/// corruption — reject the snapshot rather than trust the length.
const MAX_SNAPSHOT_ITEMS: u32 = 1 << 24;

/// Durable-state bookkeeping on the engine thread (present only with
/// [`BrokerConfig::storage`] configured).
struct Durable {
    storage: Arc<dyn Storage>,
    /// WAL records appended since the last checkpoint; reaching
    /// [`BrokerConfig::snapshot_every`] triggers the next one.
    records_since_snapshot: u64,
    /// Reusable record-encoding buffer.
    buf: Vec<u8>,
}

/// Broker state rebuilt by [`recover`] (or minted fresh) and handed to
/// the engine loop at boot.
struct Recovered {
    incarnation: u64,
    sub_ids: SubIdAllocator,
    tombstones: TombstoneSet,
    recv_from: HashMap<BrokerId, NeighborRecv>,
    spools: HashMap<BrokerId, AckLog<Bytes>>,
    subscriptions: Vec<(SchemaId, Subscription)>,
}

impl Recovered {
    /// A fresh boot: new incarnation, empty state.
    fn fresh() -> Self {
        Recovered {
            incarnation: mint_incarnation(),
            sub_ids: SubIdAllocator::new(),
            tombstones: TombstoneSet::default(),
            recv_from: HashMap::new(),
            spools: HashMap::new(),
            subscriptions: Vec::new(),
        }
    }
}

/// Encodes the full control-state snapshot: incarnation, id allocator,
/// tombstones, per-neighbor receive windows (their *durable* marks — a
/// mark may never outrun the journaled effects it stands for), per-
/// neighbor spools (unacknowledged frames only), and the subscription
/// set. The layout is internal to this module; [`decode_snapshot`] is the
/// only reader.
fn encode_snapshot(
    incarnation: u64,
    sub_ids: &SubIdAllocator,
    tombstones: &TombstoneSet,
    recv_from: &HashMap<BrokerId, NeighborRecv>,
    spools: &HashMap<BrokerId, AckLog<Bytes>>,
    subscriptions: &[(SchemaId, Subscription)],
) -> Vec<u8> {
    let mut b: Vec<u8> = Vec::new();
    b.put_u64_le(incarnation);
    let (counter, free) = sub_ids.checkpoint();
    b.put_u32_le(counter);
    b.put_u32_le(free.len() as u32);
    for raw in free {
        b.put_u32_le(raw);
    }
    let tombs = tombstones.checkpoint();
    b.put_u32_le(tombs.len() as u32);
    for id in tombs {
        b.put_u32_le(id.raw());
    }
    b.put_u32_le(recv_from.len() as u32);
    for (broker, recv) in recv_from {
        b.put_u32_le(broker.raw());
        b.put_u64_le(recv.peer_incarnation);
        b.put_u64_le(recv.durable_seq);
    }
    b.put_u32_le(spools.len() as u32);
    for (broker, spool) in spools {
        b.put_u32_le(broker.raw());
        let acked = spool.acked();
        b.put_u64_le(acked);
        let frames: Vec<&Bytes> = spool.replay_after(acked).map(|(_, f)| f).collect();
        b.put_u32_le(frames.len() as u32);
        for frame in frames {
            b.put_u32_le(frame.len() as u32);
            b.extend_from_slice(frame);
        }
    }
    b.put_u32_le(subscriptions.len() as u32);
    for (schema, subscription) in subscriptions {
        b.put_u32_le(schema.raw());
        wire::put_subscription(&mut b, subscription);
    }
    b
}

/// Reads a length-prefixed count, rejecting corrupt (absurdly large)
/// values before any caller sizes a loop by them.
fn snap_count(buf: &mut &[u8]) -> Option<u32> {
    if buf.remaining() < 4 {
        return None;
    }
    let n = buf.get_u32_le();
    if n > MAX_SNAPSHOT_ITEMS {
        return None;
    }
    Some(n)
}

/// Decodes a snapshot written by [`encode_snapshot`]. Returns `None` on
/// any structural violation: the caller falls back to a fresh boot (a new
/// incarnation makes the discarded sequence space inert network-wide,
/// so a corrupt snapshot costs durability, never correctness).
fn decode_snapshot(mut data: &[u8], registry: &SchemaRegistry) -> Option<Recovered> {
    let buf = &mut data;
    if buf.remaining() < 8 + 4 {
        return None;
    }
    let incarnation = buf.get_u64_le();
    let counter = buf.get_u32_le();
    let n_free = snap_count(buf)?;
    let mut free = Vec::new();
    for _ in 0..n_free {
        if buf.remaining() < 4 {
            return None;
        }
        free.push(buf.get_u32_le());
    }
    let sub_ids = SubIdAllocator::restore(counter, free);
    let n_tombs = snap_count(buf)?;
    let mut tombstones = TombstoneSet::default();
    for _ in 0..n_tombs {
        if buf.remaining() < 4 {
            return None;
        }
        tombstones.insert(SubscriptionId::new(buf.get_u32_le()));
    }
    let n_recv = snap_count(buf)?;
    let mut recv_from = HashMap::new();
    for _ in 0..n_recv {
        if buf.remaining() < 4 + 8 + 8 {
            return None;
        }
        let broker = BrokerId::new(buf.get_u32_le());
        let peer_incarnation = buf.get_u64_le();
        let seq = buf.get_u64_le();
        recv_from.insert(
            broker,
            NeighborRecv {
                seq,
                durable_seq: seq,
                acked_sent: 0,
                peer_incarnation,
            },
        );
    }
    let n_spools = snap_count(buf)?;
    let mut spools = HashMap::new();
    for _ in 0..n_spools {
        if buf.remaining() < 4 + 8 {
            return None;
        }
        let broker = BrokerId::new(buf.get_u32_le());
        let acked = buf.get_u64_le();
        let mut spool = AckLog::with_base(acked);
        let n_frames = snap_count(buf)?;
        for _ in 0..n_frames {
            if buf.remaining() < 4 {
                return None;
            }
            let len = buf.get_u32_le() as usize;
            if len > crate::protocol::MAX_FRAME {
                return None;
            }
            let head = buf.get(..len)?;
            spool.append(Bytes::copy_from_slice(head));
            buf.advance(len);
        }
        spools.insert(broker, spool);
    }
    let n_subs = snap_count(buf)?;
    let mut subscriptions = Vec::new();
    for _ in 0..n_subs {
        if buf.remaining() < 4 {
            return None;
        }
        let schema_id = SchemaId::new(buf.get_u32_le());
        let schema = registry.get(schema_id)?;
        let subscription = wire::get_subscription(buf, schema).ok()?;
        subscriptions.push((schema_id, subscription));
    }
    Some(Recovered {
        incarnation,
        sub_ids,
        tombstones,
        recv_from,
        spools,
        subscriptions,
    })
}

/// Rebuilds broker state from storage: snapshot first, then the WAL
/// suffix replayed idempotently on top (duplicate appends dedup by
/// sequence, receive marks and trims are cumulative). Torn or corrupt
/// tail records are discarded, never replayed as data. A missing or
/// undecodable snapshot falls back to a fresh boot — with a *new*
/// incarnation, so nothing of the dead sequence space leaks.
fn recover(
    st: &dyn Storage,
    registry: &SchemaRegistry,
    stats: &StatsInner,
) -> std::io::Result<Recovered> {
    let snap = st.read_snapshot(STATE_SNAPSHOT)?;
    let wal = st.read(WAL_LOG)?;
    let had_state = snap.is_some() || !wal.is_empty();
    let mut recovered = snap
        .and_then(|bytes| decode_snapshot(&bytes, registry))
        .unwrap_or_else(Recovered::fresh);
    let (records, torn) = storage::decode_records(&wal);
    stats
        .torn_records_discarded
        .fetch_add(torn, Ordering::Relaxed);
    'records: for record in records {
        let Some(ops) = storage::decode_ops(&record) else {
            // CRC-valid but semantically undecodable: version skew or a
            // writer bug. Everything after it is unordered relative to the
            // lost batch, so stop — same policy as a torn tail.
            stats.torn_records_discarded.fetch_add(1, Ordering::Relaxed);
            break 'records;
        };
        stats.wal_replayed.fetch_add(1, Ordering::Relaxed);
        for op in ops {
            match op {
                WalOp::RecvMark {
                    from,
                    incarnation,
                    seq,
                } => {
                    let recv = recovered.recv_from.entry(BrokerId::new(from)).or_default();
                    if recv.peer_incarnation == incarnation {
                        recv.seq = recv.seq.max(seq);
                    } else {
                        // The peer restarted after the snapshot: later
                        // marks count a fresh sequence space.
                        recv.peer_incarnation = incarnation;
                        recv.seq = seq;
                    }
                    recv.durable_seq = recv.seq;
                }
                WalOp::Append {
                    neighbor,
                    seq,
                    frame,
                } => {
                    let spool = recovered.spools.entry(BrokerId::new(neighbor)).or_default();
                    // Idempotent replay: a record surviving both in the
                    // boot snapshot and in an untruncated WAL (cut between
                    // snapshot-commit and truncate) must not double-append.
                    if seq == spool.last_seq() + 1 {
                        spool.append(frame);
                    }
                }
                WalOp::Trim { neighbor, acked } => {
                    if let Some(spool) = recovered.spools.get_mut(&BrokerId::new(neighbor)) {
                        spool.ack(acked);
                        spool.collect();
                    }
                }
            }
        }
    }
    if had_state {
        stats.recoveries.fetch_add(1, Ordering::Relaxed);
    }
    Ok(recovered)
}

struct EngineLoop {
    config: BrokerConfig,
    /// This broker lifetime's nonce, announced in every link `Hello` so
    /// peers can tell a restart (fresh sequence space, empty spool) from
    /// a mere reconnect. See [`BrokerToBroker::Hello`].
    incarnation: u64,
    engine: Arc<RwLock<MatchingEngine>>,
    outbox: Arc<Outbox>,
    stats: Arc<StatsInner>,
    /// Per-shard matching cost (slot 0 doubles as the inline path's slot).
    match_stats: Arc<Vec<Mutex<MatchStats>>>,
    /// Matching-worker inboxes; empty means matching runs inline.
    shard_txs: Vec<Sender<MatchJob>>,
    /// The inline path's match-result cache (engine-thread-owned; the
    /// worker shards each own their own — no lock anywhere).
    match_cache: MatchCache,
    /// The inline path's reusable matching buffers (scratch masks, walk
    /// frames, parallel worker state).
    route_scratch: RouteScratch,
    conns: HashMap<ConnId, Peer>,
    clients: HashMap<ClientId, ClientState>,
    neighbors: HashMap<BrokerId, ConnId>,
    /// Dialed neighbor conns whose peer `Hello` has not arrived yet.
    /// `Forward` traffic is held back (it stays in the spool) until the
    /// handshake completes: sending fresh higher-seq frames before
    /// `retransmit_spool` replays the backlog would make the receiver's
    /// cumulative dedup drop the retransmissions as duplicates — silent
    /// event loss on every reconnect that overlaps a dispatch.
    awaiting_hello: HashSet<ConnId>,
    /// Per-neighbor send-side spool: stitched `Forward` frames retained
    /// until the neighbor's cumulative `FwdAck`, replayed after a link
    /// flap. Keyed by broker (not conn) so the spool survives the link.
    spools: HashMap<BrokerId, AckLog<Bytes>>,
    /// Per-neighbor receive-side sequence window for dedup and ack pacing.
    recv_from: HashMap<BrokerId, NeighborRecv>,
    /// Removed subscription ids, so the anti-entropy resync cannot
    /// resurrect an unsubscribe that flooded while a link was down.
    tombstones: TombstoneSet,
    sub_ids: SubIdAllocator,
    /// When each connection last produced a frame (any frame — heartbeats
    /// only guarantee an idle link still produces *some*). The heartbeat
    /// tick reads the broker-link entries; client entries exist only so
    /// `handle_frame` can update blindly, and are dropped in `forget_conn`.
    last_heard: HashMap<ConnId, std::time::Instant>,
    /// Current heartbeat probe interval in milliseconds (shared with the
    /// ticker thread; retunable via [`BrokerNode::set_heartbeat_interval`]).
    heartbeat_ms: Arc<AtomicU64>,
    /// WAL + snapshot bookkeeping; `None` without
    /// [`BrokerConfig::storage`], and every journaling call is a no-op.
    durable: Option<Durable>,
    /// The routing fabric currently in force: [`BrokerConfig::fabric`]
    /// at boot, swapped for a rebuild over the surviving graph on every
    /// topology repair. Routing, dispatch, and the tree-bound check all
    /// read this — never `config.fabric` — so a repair cuts the whole
    /// data plane over atomically (single-threaded engine loop).
    fabric: Arc<RoutingFabric>,
    /// Flooded link-state statements folded into per-edge versions; the
    /// source of truth for `epoch` and the dead-edge exclusion set.
    link_state: crate::repair::LinkStateTable,
    /// Current topology epoch (`link_state.epoch()`), stitched into
    /// every outgoing `Forward` frame and compared against incoming
    /// ones. Plain engine-thread copy of `epoch_gauge`.
    epoch: u64,
    /// Shared copy of `epoch` for [`BrokerNode::stats`].
    epoch_gauge: Arc<AtomicU64>,
    /// Per-neighbor splitmix64 state for jittering the heartbeat ping
    /// schedule, seeded deterministically per (local, neighbor) pair —
    /// same rationale as the redial jitter: without it every broker
    /// pings every link on the same clock edge and the probe traffic
    /// arrives mesh-wide in lockstep bursts.
    ping_jitter: HashMap<BrokerId, u64>,
}

/// Receive-side state for one neighbor link.
#[derive(Debug, Default)]
struct NeighborRecv {
    /// Highest event sequence accepted from this neighbor. Lower or equal
    /// sequences are retransmissions and are dropped (the link is a TCP
    /// stream, so arrival is FIFO and a cumulative mark suffices).
    seq: u64,
    /// Highest sequence whose receive mark is durable (equal to `seq`
    /// when no storage is configured). Acks and `Hello` high-water marks
    /// advertise *this*, never `seq`: an ack makes the peer trim its
    /// spool, so it must only cover frames a crash here cannot lose.
    durable_seq: u64,
    /// Highest sequence we have acknowledged back to the neighbor.
    acked_sent: u64,
    /// The neighbor incarnation `seq` was accumulated under (0 = none
    /// seen yet). A handshake announcing a different incarnation resets
    /// the window: the neighbor restarted, its sequence space is fresh,
    /// and the old high-water mark would dedup-drop live frames.
    peer_incarnation: u64,
}

impl EngineLoop {
    fn run(mut self, cmd_rx: Receiver<Command>) {
        for command in cmd_rx.iter() {
            match command {
                Command::Frame(conn, payload) => self.handle_frame(conn, payload),
                Command::DialedNeighbor(conn, neighbor) => {
                    self.conns.insert(conn, Peer::Broker(neighbor));
                    self.install_neighbor_conn(neighbor, conn);
                    // Start the liveness clock: the peer owes us its Hello.
                    self.last_heard.insert(conn, std::time::Instant::now());
                    // Control traffic (Hello, resync, floods) flows right
                    // away, but Forward dispatch stays spooled-only until
                    // the peer's Hello arrives and the spool is replayed —
                    // see `awaiting_hello`.
                    self.awaiting_hello.insert(conn);
                    self.send_hello(conn, neighbor);
                    self.resync_subscriptions(conn);
                    // Link-state statements must precede any spool
                    // retransmission on this conn (FIFO link): a peer
                    // that rebooted at epoch 0 flips forward before it
                    // processes replayed frames stitched under the
                    // current epoch.
                    self.resync_link_state(conn);
                }
                Command::Disconnected(conn) => self.handle_disconnect(conn),
                Command::Routed {
                    event,
                    tree,
                    body,
                    links,
                    source,
                    epoch,
                } => {
                    if epoch == self.epoch {
                        self.dispatch(&event, tree, &body, links, source);
                    } else {
                        // The shard matched under a topology that has
                        // since been repaired: its links may cross dead
                        // edges or miss the new trees. Discard them and
                        // re-match inline under the current engine.
                        self.rematch_stale(&event, &body, source);
                    }
                }
                Command::LinkUnreachable(neighbor) => self.handle_link_unreachable(neighbor),
                Command::GcTick => self.collect_garbage(),
                Command::HeartbeatTick => self.heartbeat_tick(),
                Command::QueueOverflow(conn) => self.handle_queue_overflow(conn),
                Command::Shutdown => {
                    // Final courtesy: push cumulative acks for everything
                    // received but not yet acked, so surviving neighbors
                    // trim their spools instead of retransmitting the tail
                    // at our restart. The frames flush in the drain phase.
                    self.flush_forward_acks();
                    break;
                }
                Command::Crash => {
                    // Fault injection: die as a power cut would — no ack
                    // flush, no checkpoint. Whatever the WAL and the last
                    // snapshot hold is what recovery gets.
                    break;
                }
            }
        }
        // Dropping self drops the shard senders; workers drain and exit.
    }

    fn handle_frame(&mut self, conn: ConnId, payload: Bytes) {
        let Some(&tag) = payload.first() else {
            return;
        };
        // Any decodable-or-not frame proves the peer's send path is alive;
        // the heartbeat tick consumes this for broker links.
        self.last_heard.insert(conn, std::time::Instant::now());
        if tag < 0x10 {
            // `payload` is cloned (a refcount bump) so the data-plane arms
            // can slice the already-encoded event body out of it instead of
            // re-serializing the decoded event.
            match ClientToBroker::decode(payload.clone(), &self.config.registry) {
                Ok(ClientToBroker::Publish { event }) => {
                    let body = payload.slice(protocol::PUBLISH_BODY_OFFSET..);
                    self.handle_publish(conn, event, body);
                }
                Ok(msg) => self.handle_client(conn, msg),
                Err(e) => self.protocol_error_disconnect(conn, e.to_string()),
            }
        } else if (0x21..=0x2f).contains(&tag) {
            match BrokerToBroker::decode(payload.clone(), &self.config.registry) {
                Ok(BrokerToBroker::Forward {
                    tree,
                    seq,
                    epoch,
                    event,
                }) => {
                    let body = payload.slice(protocol::FORWARD_BODY_OFFSET..);
                    self.handle_forward(conn, tree, seq, epoch, event, body);
                }
                Ok(msg) => self.handle_broker(conn, msg),
                Err(e) => self.protocol_error_disconnect(conn, e.to_string()),
            }
        } else {
            self.protocol_error_disconnect(conn, format!("unexpected message tag {tag:#x}"));
        }
    }

    /// A peer sent something undecodable. A corrupt payload means the
    /// stream's framing can no longer be trusted, so rather than guess at
    /// the next message boundary the broker counts the error and drops the
    /// connection — the socket shutdown is what the peer observes (a
    /// dialing neighbor's link supervisor sees the EOF and redials with a
    /// fresh handshake). Clients additionally get the reason as an `Error`
    /// frame, flushed before the FIN; broker peers do not, because
    /// `BrokerToClient::Error` is an unexpected tag on a broker-broker
    /// link and would itself count as a protocol error on the remote side.
    /// Semantically invalid but *well-formed* requests (unknown schema on
    /// subscribe, publish before hello) go through `client_error` instead
    /// and keep the connection.
    fn protocol_error_disconnect(&mut self, conn: ConnId, message: String) {
        self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        if matches!(self.conns.get(&conn), Some(Peer::Broker(_))) {
            self.handle_disconnect(conn);
            return;
        }
        self.client_error(conn, message);
        self.outbox.close_after_flush(conn);
        self.forget_conn(conn);
    }

    fn handle_publish(&mut self, conn: ConnId, event: Event, body: Bytes) {
        if self.client_of(conn).is_none() {
            self.client_error(conn, "publish before hello".into());
            return;
        }
        // Reject events too large to re-stitch as Forward/Deliver frames
        // before they enter routing; an unchecked body would either
        // truncate the `u32` length prefix or flap the downstream link
        // (retransmit → peer reject → disconnect → retransmit) forever.
        if let Err(e) = crate::protocol::check_event_body(body.len()) {
            self.client_error(conn, e.to_string());
            return;
        }
        let tree = match self.fabric.tree_for(self.config.broker) {
            Ok(t) => t,
            Err(e) => {
                self.client_error(conn, e.to_string());
                return;
            }
        };
        self.stats.published.fetch_add(1, Ordering::Relaxed);
        self.route_and_dispatch(event, tree, body, None);
    }

    fn handle_client(&mut self, conn: ConnId, message: ClientToBroker) {
        match message {
            ClientToBroker::Hello {
                client,
                resume_from,
            } => {
                let home = self.config.fabric.network().home_broker(client);
                if home != Some(self.config.broker) {
                    self.client_error(
                        conn,
                        format!(
                            "client {client} is not homed at broker {}",
                            self.config.broker
                        ),
                    );
                    return;
                }
                self.conns.insert(conn, Peer::Client(client));
                let state = self.clients.entry(client).or_insert_with(|| ClientState {
                    conn: None,
                    log: EventLog::new(),
                    disconnected_at: None,
                });
                state.conn = Some(conn);
                state.disconnected_at = None;
                state.log.ack(resume_from);
                let acked = state.log.acked();
                self.outbox.send(
                    conn,
                    BrokerToClient::Welcome {
                        client,
                        resume_from: acked,
                    }
                    .encode(),
                );
                // Replay what the client missed while disconnected.
                let frames: Vec<Bytes> = state
                    .log
                    .replay_after(acked)
                    .map(|(seq, event)| {
                        BrokerToClient::Deliver {
                            seq,
                            event: event.clone(),
                        }
                        .encode()
                    })
                    .collect();
                for frame in frames {
                    self.outbox.send(conn, frame);
                }
            }
            ClientToBroker::Subscribe { schema, expression } => {
                let Some(client) = self.client_of(conn) else {
                    self.client_error(conn, "subscribe before hello".into());
                    return;
                };
                let predicate = match self.engine.read().parse_subscription(schema, &expression) {
                    Ok(p) => p,
                    Err(e) => {
                        self.client_error(conn, e.to_string());
                        return;
                    }
                };
                // Globally unique id: 12 bits of broker, 20 bits of
                // per-broker counter (recycled after unsubscribe, so churn
                // never wedges the broker — only concurrency is capped).
                let Some(raw) = self.sub_ids.allocate() else {
                    self.client_error(conn, "subscription id space exhausted".into());
                    return;
                };
                let id = SubscriptionId::new((self.config.broker.raw() << SUB_COUNTER_BITS) | raw);
                // A recycled id must not be shadowed by its previous life's
                // tombstone.
                self.tombstones.remove(id);
                let subscription =
                    Subscription::new(id, SubscriberId::new(self.config.broker, client), predicate);
                let result = {
                    let mut engine = self.engine.write();
                    let r = engine.subscribe(schema, subscription.clone());
                    (r, engine.subscription_count())
                };
                match result.0 {
                    Ok(()) => {
                        self.stats
                            .subscriptions
                            .store(result.1 as u64, Ordering::Relaxed);
                        self.outbox
                            .send(conn, BrokerToClient::SubAck { id }.encode());
                        // Control plane: flood to every neighbor.
                        self.flood_broker_message(
                            &BrokerToBroker::SubAdd {
                                schema,
                                subscription,
                                resync: false,
                            },
                            None,
                        );
                        self.checkpoint_subscriptions();
                    }
                    Err(e) => self.client_error(conn, e.to_string()),
                }
            }
            ClientToBroker::Unsubscribe { id } => {
                let Some(client) = self.client_of(conn) else {
                    self.client_error(conn, "unsubscribe before hello".into());
                    return;
                };
                let owned = self
                    .engine
                    .read()
                    .subscription(id)
                    .is_some_and(|s| s.subscriber().client == client);
                if !owned {
                    self.client_error(conn, format!("subscription {id} is not yours"));
                    return;
                }
                let remaining = {
                    let mut engine = self.engine.write();
                    engine.unsubscribe(id);
                    engine.subscription_count()
                };
                self.stats
                    .subscriptions
                    .store(remaining as u64, Ordering::Relaxed);
                // Tombstone the id (so a resync while some link is down
                // cannot resurrect it) and recycle its counter half.
                self.tombstones.insert(id);
                self.sub_ids.free(id.raw() & (SUB_ID_SPACE - 1));
                self.outbox
                    .send(conn, BrokerToClient::UnsubAck { id }.encode());
                self.flood_broker_message(&BrokerToBroker::SubRemove { id }, None);
                self.checkpoint_subscriptions();
            }
            ClientToBroker::Publish { event } => {
                // Normally intercepted in `handle_frame` with the body
                // sliced from the wire; this arm only serves locally
                // constructed messages, so it pays one serialization.
                let body = protocol::encode_event_body(&event);
                self.handle_publish(conn, event, body);
            }
            ClientToBroker::Ack { seq } => {
                if let Some(client) = self.client_of(conn) {
                    if let Some(state) = self.clients.get_mut(&client) {
                        state.log.ack(seq);
                    }
                }
            }
            ClientToBroker::StatsRequest => {
                let mut matching = MatchStats::new();
                for shard_stats in self.match_stats.iter() {
                    matching += *shard_stats.lock();
                }
                // `subscriptions` reads the stored gauge rather than
                // re-counting under the engine lock; it is refreshed on
                // every subscription change.
                let counters = self.stats.counters(Derived {
                    match_cache_hits: matching.cache_hits,
                    match_cache_misses: matching.cache_misses,
                    match_cache_invalidations: matching.cache_invalidations,
                });
                let frame = BrokerToClient::Stats(counters).encode();
                self.outbox.send(conn, frame);
            }
        }
    }

    fn handle_broker(&mut self, conn: ConnId, message: BrokerToBroker) {
        match message {
            BrokerToBroker::Hello {
                broker,
                incarnation,
                last_recv,
                last_recv_incarnation,
                send_seq,
            } => {
                // Reply with our own handshake only on a conn we have not
                // already greeted (the dialer side greeted on
                // `DialedNeighbor`); otherwise the pair would ping-pong
                // Hellos forever.
                let known = matches!(self.conns.get(&conn), Some(Peer::Broker(b)) if *b == broker);
                self.conns.insert(conn, Peer::Broker(broker));
                self.install_neighbor_conn(broker, conn);
                // Handshake complete: retransmit_spool (below) replays the
                // backlog over this conn, after which dispatch may send
                // fresh frames on it directly.
                self.awaiting_hello.remove(&conn);
                let recv = self.recv_from.entry(broker).or_default();
                if recv.peer_incarnation != incarnation {
                    // A new peer lifetime (restart, or first contact): its
                    // sequence space starts over, so the old high-water
                    // mark is meaningless — holding onto it would dedup-
                    // drop the fresh stream.
                    recv.peer_incarnation = incarnation;
                    recv.seq = 0;
                    recv.durable_seq = 0;
                    recv.acked_sent = 0;
                } else if send_seq < recv.seq {
                    // Same lifetime but its send sequence regressed —
                    // should be impossible, kept as an independent guard
                    // against the silent-drop failure mode.
                    recv.seq = send_seq;
                    recv.durable_seq = recv.durable_seq.min(send_seq);
                    recv.acked_sent = recv.acked_sent.min(send_seq);
                }
                if !known {
                    self.send_hello(conn, broker);
                    // Anti-entropy: a (re-)connecting neighbor may have
                    // missed subscription traffic (e.g. it restarted);
                    // replay the full set. Duplicates are dropped by the
                    // flood dedup, dead ids by the tombstone filter.
                    self.resync_subscriptions(conn);
                    // Same for link-state statements, and strictly before
                    // the spool retransmission below: the peer must reach
                    // our epoch before it processes replayed frames.
                    self.resync_link_state(conn);
                }
                // The peer's `last_recv` is also a cumulative ack: trim the
                // spool, then retransmit everything it missed. But only if
                // it counts *our* frames: a mark recorded against an
                // earlier incarnation of us refers to a dead sequence
                // space — trimming by it would discard frames the peer
                // never saw (e.g. a frame spooled right after restart,
                // "acked" by a stale mark the old lifetime earned).
                let effective_last_recv = if last_recv_incarnation == self.incarnation {
                    last_recv
                } else {
                    0
                };
                // Apply the ack before any repair flip below: frames the
                // peer already received must not look pending to the epoch
                // flip's re-homing sweep, or they would be re-dispatched
                // as duplicates.
                if let Some(spool) = self.spools.get_mut(&broker) {
                    spool.ack(effective_last_recv);
                    spool.collect();
                    let acked = spool.acked();
                    self.wal_commit_trim(broker, acked);
                }
                // A Hello on this link proves the edge is live again: if
                // our table says it is down, originate the LinkUp
                // statement. Both endpoints may do so concurrently — the
                // strictly-monotone apply test makes the duplicate
                // converge instead of ping-ponging.
                let me = self.config.broker;
                let (a, b) = crate::repair::normalize_edge(me, broker);
                let (ver, down) = self.link_state.get(a, b);
                if down {
                    self.apply_link_state(a, b, ver.saturating_add(1), false, None);
                }
                self.retransmit_spool(broker, conn, effective_last_recv);
            }
            BrokerToBroker::FwdAck { seq } => {
                if let Some(Peer::Broker(broker)) = self.conns.get(&conn) {
                    let broker = *broker;
                    let acked = if let Some(spool) = self.spools.get_mut(&broker) {
                        spool.ack(seq);
                        spool.collect();
                        Some(spool.acked())
                    } else {
                        None
                    };
                    if let Some(acked) = acked {
                        self.wal_commit_trim(broker, acked);
                    }
                }
            }
            BrokerToBroker::Forward {
                tree,
                seq,
                epoch,
                event,
            } => {
                // Normally intercepted in `handle_frame` with the body
                // sliced from the wire; this arm only serves locally
                // constructed messages, so it pays one serialization.
                let body = protocol::encode_event_body(&event);
                self.handle_forward(conn, tree, seq, epoch, event, body);
            }
            BrokerToBroker::SubAdd {
                schema,
                subscription,
                resync,
            } => {
                let id = subscription.id();
                // A resynced add may be a resurrection: the neighbor never
                // saw the `SubRemove` that flooded while its link was down.
                // Ignoring it is not enough — the neighbor (and everything
                // behind it) still *holds* the stale subscription and would
                // keep routing on it forever. Push the removal back on the
                // same link; the receiver un-installs it and floods the
                // removal onward, so the partition-missed `SubRemove`
                // finally reaches every stale copy.
                if resync && self.tombstones.contains(id) {
                    self.outbox
                        .send(conn, BrokerToBroker::SubRemove { id }.encode());
                    return;
                }
                if self.engine.read().knows(id) {
                    return; // flood dedup on cyclic broker graphs
                }
                if !resync {
                    // A fresh add recycles the id: its previous life's
                    // tombstone no longer applies.
                    self.tombstones.remove(id);
                }
                let (installed, count) = {
                    let mut engine = self.engine.write();
                    let ok = engine.subscribe(schema, subscription.clone()).is_ok();
                    (ok, engine.subscription_count())
                };
                if installed {
                    self.stats
                        .subscriptions
                        .store(count as u64, Ordering::Relaxed);
                    self.flood_broker_message(
                        &BrokerToBroker::SubAdd {
                            schema,
                            subscription,
                            resync,
                        },
                        Some(conn),
                    );
                    self.checkpoint_subscriptions();
                } else {
                    debug_assert!(false, "replicated subscription {id} failed to install");
                }
            }
            BrokerToBroker::Ping => {
                // Answer on the same conn: the pong's arrival refreshes the
                // peer's liveness clock for this link.
                self.outbox.send(conn, BrokerToBroker::Pong.encode());
            }
            BrokerToBroker::Pong => {
                // Its arrival already refreshed `last_heard` in
                // `handle_frame`; there is nothing else to do.
            }
            BrokerToBroker::LinkDown { a, b, ver } => {
                self.handle_link_statement(conn, a, b, ver, true);
            }
            BrokerToBroker::LinkUp { a, b, ver } => {
                self.handle_link_statement(conn, a, b, ver, false);
            }
            BrokerToBroker::SubRemove { id } => {
                // Tombstone-insert doubles as flood dedup: a removal we
                // already tombstoned has already been flooded onward.
                let newly_tombstoned = self.tombstones.insert(id);
                let (removed, count) = {
                    let mut engine = self.engine.write();
                    let ok = engine.unsubscribe(id);
                    (ok, engine.subscription_count())
                };
                if removed {
                    self.stats
                        .subscriptions
                        .store(count as u64, Ordering::Relaxed);
                }
                if removed || newly_tombstoned {
                    self.flood_broker_message(&BrokerToBroker::SubRemove { id }, Some(conn));
                    self.checkpoint_subscriptions();
                }
            }
        }
    }

    /// Makes `conn` the single live conn for `broker`, tearing down any
    /// older conn to the same neighbor. Exactly one TCP stream per
    /// neighbor may carry sequenced `Forward` traffic: if an old stream
    /// lingered (e.g. its death is still undetected when the peer redials),
    /// frames could interleave across two streams and break the
    /// FIFO-arrival assumption the cumulative seq dedup relies on.
    fn install_neighbor_conn(&mut self, broker: BrokerId, conn: ConnId) {
        if let Some(old) = self.neighbors.insert(broker, conn) {
            if old != conn {
                self.outbox.unregister(old);
                self.conns.remove(&old);
                self.awaiting_hello.remove(&old);
                self.last_heard.remove(&old);
            }
        }
    }

    /// Sends the link handshake: our receive high-water mark (so the peer
    /// trims and retransmits its spool) and our send sequence (so the peer
    /// can detect that we restarted and reset its dedup window).
    fn send_hello(&mut self, conn: ConnId, neighbor: BrokerId) {
        // Advertise the *durable* receive mark: the peer trims its spool
        // by it, so it must never cover frames a crash here could lose.
        let (last_recv, last_recv_incarnation) = self
            .recv_from
            .get(&neighbor)
            .map_or((0, 0), |r| (r.durable_seq, r.peer_incarnation));
        let send_seq = self.spools.get(&neighbor).map_or(0, |s| s.last_seq());
        self.outbox.send(
            conn,
            BrokerToBroker::Hello {
                broker: self.config.broker,
                incarnation: self.incarnation,
                last_recv,
                last_recv_incarnation,
                send_seq,
            }
            .encode(),
        );
    }

    /// Trims the spool for `neighbor` to the peer's cumulative `last_recv`
    /// and retransmits every frame past it over `conn`.
    fn retransmit_spool(&mut self, neighbor: BrokerId, conn: ConnId, last_recv: u64) {
        let Some(spool) = self.spools.get_mut(&neighbor) else {
            return;
        };
        spool.ack(last_recv);
        spool.collect();
        let acked = spool.acked();
        let frames: Vec<Bytes> = spool
            .replay_after(acked)
            .map(|(_, frame)| frame.clone())
            .collect();
        self.wal_commit_trim(neighbor, acked);
        if frames.is_empty() {
            return;
        }
        self.stats
            .retransmitted
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
        for frame in frames {
            self.outbox.send(conn, frame);
        }
    }

    /// An inbound `Forward`: dedup against the per-neighbor receive window,
    /// pace a cumulative `FwdAck` back, then route.
    fn handle_forward(
        &mut self,
        conn: ConnId,
        tree: TreeId,
        seq: u64,
        epoch: u64,
        event: Event,
        body: Bytes,
    ) {
        // Epoch check FIRST, before the tree-bound check: a frame stitched
        // under a different topology epoch refers to trees that no longer
        // exist here (its tree index may not even be in range of the
        // repaired forest). Dropping it is safe precisely because it is
        // *not* acked and does *not* advance the receive window: the frame
        // stays pending in the sender's spool, and the sender's own epoch
        // flip re-homes every pending frame down its repaired trees (see
        // `rehome_spools` and DESIGN.md §15).
        if epoch != self.epoch {
            self.stats.stale_epoch_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // The tree id arrives as a raw index; an out-of-range value from a
        // corrupt or hostile peer would panic deep inside the matching
        // engine's per-tree tables. Treat it like any other undecodable
        // frame: count it and cut the link.
        if tree.index() >= self.fabric.forest().len() {
            self.protocol_error_disconnect(
                conn,
                format!("forward on unknown spanning tree {}", tree.index()),
            );
            return;
        }
        let source;
        {
            let Some(Peer::Broker(broker)) = self.conns.get(&conn) else {
                // Not a registered broker peer — most likely an old stream
                // torn down when the neighbor redialed (see
                // `install_neighbor_conn`). Routing it would bypass the
                // dedup window; drop it instead (the live stream replays
                // anything unacknowledged).
                return;
            };
            let broker = *broker;
            let journaling = self.durable.is_some();
            let recv = self.recv_from.entry(broker).or_default();
            if seq <= recv.seq {
                // A retransmission of a frame that already crossed before
                // the flap: the spool is at-least-once, dedup restores
                // exactly-once into the routing layer.
                return;
            }
            recv.seq = seq;
            source = Some((broker, seq, recv.peer_incarnation));
            if !journaling {
                // Without storage the receive mark is "durable" the moment
                // it lands in memory; with storage, `dispatch` advances
                // `durable_seq` (and paces the ack) only after the WAL
                // record holding this mark has committed.
                recv.durable_seq = seq;
                if recv.durable_seq - recv.acked_sent >= FWD_ACK_EVERY {
                    recv.acked_sent = recv.durable_seq;
                    let ack = BrokerToBroker::FwdAck {
                        seq: recv.acked_sent,
                    }
                    .encode();
                    self.outbox.send(conn, ack);
                }
            }
        }
        self.route_and_dispatch(event, tree, body, source);
    }

    /// Link matching plus dispatch. `body` is the event's wire encoding
    /// (sliced from the incoming frame, or encoded exactly once for local
    /// messages); it rides through matching untouched so dispatch can
    /// stitch outgoing frames without re-serializing.
    ///
    /// With matching workers configured, the match runs on the shard owning
    /// the event's information space and the link set comes back as
    /// [`Command::Routed`]; otherwise everything happens inline, in arrival
    /// order.
    fn route_and_dispatch(
        &mut self,
        event: Event,
        tree: TreeId,
        body: Bytes,
        source: Option<(BrokerId, u64, u64)>,
    ) {
        if let Some(tx) = {
            let shards = self.shard_txs.len();
            (shards > 0).then(|| event.schema().id().raw() as usize % shards)
        }
        .and_then(|shard| self.shard_txs.get(shard))
        {
            let _ = tx.send(MatchJob {
                event,
                tree,
                body,
                source,
                epoch: self.epoch,
            });
            return;
        }
        let links = self.route_inline(&event, tree);
        self.dispatch(&event, tree, &body, links, source);
    }

    /// The inline matching path: the engine-thread-owned cache and
    /// scratch buffers, cost accounted to shard slot 0. Factored out of
    /// [`route_and_dispatch`](Self::route_and_dispatch) because the
    /// repair paths (stale shard results, spool re-homing) must re-match
    /// synchronously under the current topology regardless of the
    /// configured shard count.
    fn route_inline(&mut self, event: &Event, tree: TreeId) -> Vec<LinkId> {
        let mut stats = MatchStats::new();
        let mut links = Vec::new();
        self.engine.read().route_cached(
            event,
            tree,
            1,
            &mut self.match_cache,
            &mut self.route_scratch,
            &mut stats,
            &mut links,
        );
        if let Some(shard_stats) = self.match_stats.first() {
            *shard_stats.lock() += stats;
        }
        links
    }

    /// A matching-worker shard handed back a link set computed under a
    /// topology epoch that has since flipped: the links may cross dead
    /// edges or miss the repaired trees entirely. The shard's answer is
    /// discarded and the event re-matched inline under this broker's own
    /// tree in the current fabric — correct for delivery (the tree spans
    /// every reachable broker) at the cost of possibly re-covering
    /// subtrees the old dispatch already reached; the transition window
    /// is at-least-once by design (receiver dedup and client logs keep
    /// client-visible delivery exactly-once in the quiescent cases, see
    /// DESIGN.md §15). The link back toward the frame's source is
    /// excluded — the tree discipline never returns an event to its
    /// sender.
    fn rematch_stale(&mut self, event: &Event, body: &Bytes, source: Option<(BrokerId, u64, u64)>) {
        self.stats.rerouted_frames.fetch_add(1, Ordering::Relaxed);
        let Ok(tree) = self.fabric.tree_for(self.config.broker) else {
            return;
        };
        let mut links = self.route_inline(event, tree);
        if let Some((from, _, _)) = source {
            let fabric = Arc::clone(&self.fabric);
            let network = fabric.network();
            links.retain(|&link| {
                !matches!(
                    network.link_target(self.config.broker, link),
                    LinkTarget::Broker(n) if n == from
                )
            });
        }
        self.dispatch(event, tree, body, links, source);
    }

    /// Dispatches a routed event: per-neighbor `Forward` frames (each link
    /// carries its own sequence header around the shared, already-encoded
    /// body) and one `Deliver` header per client around the same body.
    /// Runs on the engine thread only (log/spool appends and connection
    /// lookups are single-threaded).
    ///
    /// With storage configured, the event's spool appends and its receive
    /// mark (`source`) commit as **one WAL record** before any `Forward`
    /// frame reaches the wire — the record is the atomicity unit, so a
    /// power cut either keeps the whole batch or loses a batch no peer
    /// ever saw (the sender's spool retransmits it). Client deliveries are
    /// volatile by design (client logs live outside the storage contract).
    fn dispatch(
        &mut self,
        event: &Event,
        tree: TreeId,
        body: &Bytes,
        links: Vec<LinkId>,
        source: Option<(BrokerId, u64, u64)>,
    ) {
        let fabric = Arc::clone(&self.fabric);
        let network = fabric.network();
        let journaling = self.durable.is_some();
        let mut wal_ops: Vec<WalOp> = Vec::new();
        // Broker sends deferred until the WAL record commits; client
        // deliveries go out immediately.
        let mut deferred: Vec<(ConnId, Bytes)> = Vec::new();
        for link in links {
            match network.link_target(self.config.broker, link) {
                LinkTarget::Broker(neighbor) => {
                    // Spool first: the frame must survive a flap whether or
                    // not the link is currently up. An unconnected neighbor
                    // is no longer a silent drop — the spool replays after
                    // the reconnect handshake.
                    let spool = self.spools.entry(neighbor).or_default();
                    let seq = spool.last_seq() + 1;
                    let frame = protocol::forward_frame(tree, seq, self.epoch, body);
                    spool.append(frame.clone());
                    if journaling {
                        wal_ops.push(WalOp::Append {
                            neighbor: neighbor.raw(),
                            seq,
                            frame: frame.clone(),
                        });
                    }
                    self.stats.spooled.fetch_add(1, Ordering::Relaxed);
                    if spool.len() > self.config.link_spool_bound {
                        let before = spool.lost();
                        spool.enforce_bound(self.config.link_spool_bound);
                        let dropped = spool.lost() - before;
                        self.stats
                            .dropped_spool_overflow
                            .fetch_add(dropped, Ordering::Relaxed);
                    }
                    // Direct sends wait for the reconnect handshake: on a
                    // conn still awaiting the peer's Hello the frame stays
                    // spool-only and `retransmit_spool` replays it in
                    // sequence order once the handshake lands (fresh
                    // higher-seq frames ahead of the replayed backlog would
                    // be mis-dropped by the receiver's cumulative dedup).
                    if let Some(&conn) = self.neighbors.get(&neighbor) {
                        if !self.awaiting_hello.contains(&conn) {
                            self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                            if journaling {
                                deferred.push((conn, frame));
                            } else {
                                self.outbox.send(conn, frame);
                            }
                        }
                    }
                }
                LinkTarget::Client(client) => {
                    let state = self.clients.entry(client).or_insert_with(|| ClientState {
                        conn: None,
                        log: EventLog::new(),
                        disconnected_at: Some(std::time::Instant::now()),
                    });
                    let seq = state.log.append(event.clone());
                    self.stats.delivered.fetch_add(1, Ordering::Relaxed);
                    if let Some(conn) = state.conn {
                        self.outbox.send(conn, protocol::deliver_frame(seq, body));
                    }
                }
            }
        }
        if journaling {
            // The receive mark is journaled even when the event matched no
            // links: `durable_seq` (and with it ack pacing and the `Hello`
            // high-water mark) may only ever advance through the WAL.
            if let Some((from, seq, peer_incarnation)) = source {
                wal_ops.push(WalOp::RecvMark {
                    from: from.raw(),
                    incarnation: peer_incarnation,
                    seq,
                });
            }
            if !wal_ops.is_empty() {
                let sync = self.config.wal_sync;
                self.wal_commit(&wal_ops, sync);
            }
            if let Some((from, seq, peer_incarnation)) = source {
                if let Some(recv) = self.recv_from.get_mut(&from) {
                    // Skip if the peer restarted between receive and
                    // dispatch (shards > 1): the mark counts a dead
                    // sequence space and must not move the live window.
                    if recv.peer_incarnation == peer_incarnation {
                        recv.durable_seq = recv.durable_seq.max(seq);
                        if recv.durable_seq - recv.acked_sent >= FWD_ACK_EVERY {
                            recv.acked_sent = recv.durable_seq;
                            if let Some(&conn) = self.neighbors.get(&from) {
                                let ack = BrokerToBroker::FwdAck {
                                    seq: recv.acked_sent,
                                }
                                .encode();
                                self.outbox.send(conn, ack);
                            }
                        }
                    }
                }
            }
            for (conn, frame) in deferred {
                self.outbox.send(conn, frame);
            }
            self.maybe_snapshot();
        }
    }

    /// Appends one WAL record holding `ops` — the atomicity unit: recovery
    /// replays a record wholly or not at all, so everything that must
    /// survive together (an event's spool appends plus its receive mark)
    /// rides in one record. `sync` makes it durable before returning;
    /// trims pass `false` since losing one only re-replays already-acked
    /// frames, which the receiver's dedup discards.
    ///
    /// Storage errors are swallowed: a broker cannot un-route mid-event,
    /// and availability wins over durability by design (a persistently
    /// failing `FsStorage` surfaces at the next recovery). See DESIGN.md
    /// §14.
    fn wal_commit(&mut self, ops: &[WalOp], sync: bool) {
        let Some(d) = self.durable.as_mut() else {
            return;
        };
        let payload = storage::encode_ops(ops);
        d.buf.clear();
        storage::encode_record(&payload, &mut d.buf);
        let _ = d.storage.append(WAL_LOG, &d.buf);
        if sync {
            let _ = d.storage.sync(WAL_LOG);
        }
        d.records_since_snapshot += 1;
        self.stats.wal_appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Journals a spool trim (unsynced — see [`EngineLoop::wal_commit`]).
    fn wal_commit_trim(&mut self, neighbor: BrokerId, acked: u64) {
        if self.durable.is_some() {
            self.wal_commit(
                &[WalOp::Trim {
                    neighbor: neighbor.raw(),
                    acked,
                }],
                false,
            );
            self.maybe_snapshot();
        }
    }

    /// Checkpoints once the WAL has grown past the configured cadence.
    fn maybe_snapshot(&mut self) {
        let due = self
            .durable
            .as_ref()
            .is_some_and(|d| d.records_since_snapshot >= self.config.snapshot_every.max(1));
        if due {
            self.checkpoint();
        }
    }

    /// Writes a full-state snapshot and truncates the WAL it absorbs.
    /// Snapshot-then-truncate order makes a cut between the two steps
    /// harmless: the old records replay idempotently on top of the new
    /// snapshot. A failed snapshot write leaves the WAL alone (nothing is
    /// lost; the log just keeps growing until a write succeeds).
    fn checkpoint(&mut self) {
        // Snapshot under the engine read guard, encode with it dropped —
        // same discipline as `resync_subscriptions`.
        let subscriptions = {
            let engine = self.engine.read();
            engine.all_subscriptions()
        };
        let snapshot = encode_snapshot(
            self.incarnation,
            &self.sub_ids,
            &self.tombstones,
            &self.recv_from,
            &self.spools,
            &subscriptions,
        );
        let Some(d) = self.durable.as_mut() else {
            return;
        };
        if d.storage.write_snapshot(STATE_SNAPSHOT, &snapshot).is_ok() {
            let _ = d.storage.truncate(WAL_LOG);
            self.stats.snapshot_writes.fetch_add(1, Ordering::Relaxed);
        }
        d.records_since_snapshot = 0;
    }

    /// Checkpoints after a subscription-table, tombstone, or id-allocator
    /// change. Unlike spool traffic, control-plane state has no WAL ops —
    /// the snapshot is its only durable home — so waiting for the record
    /// cadence would leave a window where a crash resurrects a removed
    /// subscription. Resurrection is the one divergence the anti-entropy
    /// resync cannot heal: neighbors can re-add what the crash forgot,
    /// but nothing removes an extra the crash brought back (its
    /// `SubRemove` flooded and died long ago). Subscription churn is rare
    /// relative to event traffic (the paper's operating assumption), so
    /// the eager snapshot is cheap.
    fn checkpoint_subscriptions(&mut self) {
        if self.durable.is_some() {
            self.checkpoint();
        }
    }

    /// Sends every known subscription to a newly established broker link.
    /// Marked `resync` so the receiver filters them against its tombstones
    /// instead of resurrecting subscriptions removed while the link was
    /// down.
    fn resync_subscriptions(&self, conn: ConnId) {
        // Snapshot under the read guard, then send with the guard dropped:
        // outbox sends while holding `engine` would stall the matching
        // shards behind a transport hiccup.
        let subscriptions = {
            let engine = self.engine.read();
            engine.all_subscriptions()
        };
        for (schema, subscription) in subscriptions {
            self.outbox.send(
                conn,
                BrokerToBroker::SubAdd {
                    schema,
                    subscription,
                    resync: true,
                }
                .encode(),
            );
        }
    }

    fn flood_broker_message(&self, message: &BrokerToBroker, except: Option<ConnId>) {
        let targets: Vec<ConnId> = self
            .neighbors
            .values()
            .copied()
            .filter(|&conn| Some(conn) != except)
            .collect();
        if targets.is_empty() {
            return;
        }
        let frame = message.encode();
        self.outbox.send_many(&targets, &frame);
    }

    /// A link supervisor crossed [`BrokerConfig::repair_after`]
    /// consecutive redial failures (or the operator called
    /// [`BrokerNode::mark_link_down`]): originate the `LinkDown`
    /// statement for the edge between this broker and `neighbor`.
    fn handle_link_unreachable(&mut self, neighbor: BrokerId) {
        let me = self.config.broker;
        let network = self.fabric.network();
        // Only real topology edges can be declared dead; and a link whose
        // connection is currently live (handshake complete) is
        // demonstrably not unreachable — a stale supervisor escalation
        // racing a reconnect must not take a healthy link down.
        if neighbor == me || network.link_to_broker(me, neighbor).is_none() {
            return;
        }
        if let Some(&conn) = self.neighbors.get(&neighbor) {
            if !self.awaiting_hello.contains(&conn) {
                return;
            }
        }
        let (a, b) = crate::repair::normalize_edge(me, neighbor);
        let (ver, down) = self.link_state.get(a, b);
        if down {
            return; // already repaired around in a previous episode
        }
        self.apply_link_state(a, b, ver.saturating_add(1), true, None);
    }

    /// A flooded `LinkDown`/`LinkUp` statement arrived from a peer.
    /// Statements about edges outside the shared static topology are
    /// silently ignored (they cannot affect any tree this broker could
    /// compute); everything else goes through the apply test.
    fn handle_link_statement(
        &mut self,
        conn: ConnId,
        a: BrokerId,
        b: BrokerId,
        ver: u64,
        down: bool,
    ) {
        if !matches!(self.conns.get(&conn), Some(Peer::Broker(_))) {
            return; // link-state is broker-to-broker control traffic only
        }
        let network = self.fabric.network();
        let count = network.broker_count();
        // Endpoints come straight off the wire: bound-check before any
        // adjacency lookup (those index per-broker tables).
        if a.index() >= count || b.index() >= count || a == b {
            return;
        }
        if network.link_to_broker(a, b).is_none() {
            return;
        }
        let (a, b) = crate::repair::normalize_edge(a, b);
        self.apply_link_state(a, b, ver, down, Some(conn));
    }

    /// Folds one link-state statement into the table and, if it applied,
    /// performs the topology cutover: rebuild the spanning forest over
    /// the surviving graph, rebuild the matching engines' link spaces,
    /// flip the epoch, flood the statement onward, re-home every pending
    /// spooled frame down the repaired trees, and re-propagate
    /// subscription state over edges that just became tree-adjacent.
    ///
    /// Ordering inside this method is load-bearing (DESIGN.md §15): the
    /// flood (step 5) must precede the re-homing sweep (step 6) so that
    /// on every FIFO link the statement outruns any frame stitched under
    /// the new epoch — receivers flip before they see the frames.
    fn apply_link_state(
        &mut self,
        a: BrokerId,
        b: BrokerId,
        ver: u64,
        down: bool,
        from: Option<ConnId>,
    ) {
        // Speculative apply: only commit the table once the fabric
        // rebuild has succeeded, so the table never disagrees with the
        // fabric actually in force.
        let mut table = self.link_state.clone();
        if !table.apply(a, b, ver, down) {
            return; // stale or duplicate — already known, flood stops here
        }
        let Ok(fabric) = self.fabric.rebuild_excluding(&table.dead_edges()) else {
            // Unreachable with a fabric whose roots all exist in the
            // (immutable) network; bail without committing the statement.
            debug_assert!(false, "spanning-forest recompute failed");
            return;
        };
        let old_fabric = Arc::clone(&self.fabric);
        // Rebuild the matching engines in place: each per-space engine
        // swaps its link space and bumps its generation, so the match
        // caches (engine-thread and shard-owned alike) can never serve a
        // link set computed against the dead topology.
        self.engine
            .write()
            .rebuild_topology(self.config.broker, &fabric);
        self.link_state = table;
        self.fabric = fabric;
        self.epoch = self.link_state.epoch();
        self.epoch_gauge.store(self.epoch, Ordering::Relaxed);
        self.stats.epoch_flips.fetch_add(1, Ordering::Relaxed);
        if from.is_none() {
            self.stats.repairs_initiated.fetch_add(1, Ordering::Relaxed);
        }
        let statement = if down {
            BrokerToBroker::LinkDown { a, b, ver }
        } else {
            BrokerToBroker::LinkUp { a, b, ver }
        };
        self.flood_broker_message(&statement, from);
        self.rehome_spools();
        // Subscription state lives where the old trees put it; edges that
        // are tree-adjacent in the repaired forest but were not in the
        // old one have never carried this broker's subscription set.
        // Re-propagate over exactly those (the resync flag routes the
        // adds through the receiver's tombstone filter, so removals that
        // flooded before the repair stay removed).
        let me = self.config.broker;
        let resync: Vec<ConnId> = self
            .neighbors
            .iter()
            .filter(|&(&n, _)| {
                self.fabric.forest().tree_adjacent(me, n)
                    && !old_fabric.forest().tree_adjacent(me, n)
            })
            .map(|(_, &conn)| conn)
            .collect();
        for conn in resync {
            self.resync_subscriptions(conn);
        }
    }

    /// The epoch-flip sweep: every frame still pending (unacked) in any
    /// neighbor spool was stitched under a dead topology — receivers
    /// drop it on sight (stale epoch) and will never ack it. Pull each
    /// one out, trim the spools (journaled), and re-dispatch its event
    /// down this broker's tree in the repaired fabric, **broker links
    /// only**: the local client deliveries from its first dispatch
    /// already happened and client logs must not see it twice.
    ///
    /// Re-homing is what makes the stale-epoch drop lossless: a pending
    /// frame is either re-sent here (under the new epoch, with a fresh
    /// spool sequence) or provably unreachable (its subscribers sit in a
    /// component the surviving graph no longer connects). Subtrees the
    /// old dispatch already covered may be covered again — receiver
    /// sequence dedup cannot catch a re-homed frame (fresh sequence), so
    /// transition windows are at-least-once into routing; quiescent cuts
    /// (nothing pending except toward the dead link) stay exactly-once.
    fn rehome_spools(&mut self) {
        let me = self.config.broker;
        let Ok(tree) = self.fabric.tree_for(me) else {
            return;
        };
        let mut pending: Vec<Bytes> = Vec::new();
        let mut trims: Vec<(BrokerId, u64)> = Vec::new();
        for (&neighbor, spool) in self.spools.iter_mut() {
            let acked = spool.acked();
            let frames: Vec<Bytes> = spool
                .replay_after(acked)
                .map(|(_, frame)| frame.clone())
                .collect();
            if frames.is_empty() {
                continue;
            }
            spool.ack(spool.last_seq());
            spool.collect();
            trims.push((neighbor, spool.acked()));
            pending.extend(frames);
        }
        for (neighbor, acked) in trims {
            self.wal_commit_trim(neighbor, acked);
        }
        for frame in pending {
            // Spooled frames are full wire frames (length prefix + payload).
            let payload = frame.slice(4..);
            let Ok(BrokerToBroker::Forward { event, .. }) =
                BrokerToBroker::decode(payload.clone(), &self.config.registry)
            else {
                // A frame this broker stitched always decodes; skip
                // defensively rather than poison the sweep.
                continue;
            };
            let body = payload.slice(protocol::FORWARD_BODY_OFFSET..);
            self.stats.rerouted_frames.fetch_add(1, Ordering::Relaxed);
            let links = self.route_inline(&event, tree);
            let fabric = Arc::clone(&self.fabric);
            let network = fabric.network();
            let broker_links: Vec<LinkId> = links
                .into_iter()
                .filter(|&link| matches!(network.link_target(me, link), LinkTarget::Broker(_)))
                .collect();
            if broker_links.is_empty() {
                continue;
            }
            self.dispatch(&event, tree, &body, broker_links, None);
        }
    }

    /// Replays every link-state statement with a non-zero version to a
    /// (re)connecting neighbor, exactly like the subscription resync: a
    /// peer that rebooted (epoch 0, empty table) or sat out a repair
    /// behind a partition applies what it is missing and flips forward;
    /// a peer that already knows everything rejects them all in the
    /// apply test and the flood stops. Must be sent before any spool
    /// retransmission on the same conn — FIFO ordering is what
    /// guarantees the peer reaches our epoch before our replayed frames.
    fn resync_link_state(&self, conn: ConnId) {
        for s in self.link_state.statements() {
            let statement = if s.down {
                BrokerToBroker::LinkDown {
                    a: s.a,
                    b: s.b,
                    ver: s.ver,
                }
            } else {
                BrokerToBroker::LinkUp {
                    a: s.a,
                    b: s.b,
                    ver: s.ver,
                }
            };
            self.outbox.send(conn, statement.encode());
        }
    }

    fn client_of(&self, conn: ConnId) -> Option<ClientId> {
        match self.conns.get(&conn) {
            Some(Peer::Client(c)) => Some(*c),
            _ => None,
        }
    }

    fn client_error(&self, conn: ConnId, message: String) {
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
        self.outbox
            .send(conn, BrokerToClient::Error { message }.encode());
    }

    /// One heartbeat-timer edge: walk the broker links, tear down any that
    /// stayed completely silent past the liveness timeout (half-open and
    /// stalled peers the kernel never reports — the spool keeps their
    /// frames and the redial handshake retransmits), and ping the merely
    /// idle ones so a live peer always has something to answer.
    fn heartbeat_tick(&mut self) {
        let now = std::time::Instant::now();
        let me = self.config.broker;
        // Snapshot: teardown mutates `neighbors`.
        let links: Vec<(BrokerId, ConnId)> = self.neighbors.iter().map(|(&b, &c)| (b, c)).collect();
        for (neighbor, conn) in links {
            let idle = match self.last_heard.get(&conn) {
                Some(&at) => now.saturating_duration_since(at),
                None => {
                    // A link installed before this feature had a clock (or
                    // raced the tick): start one now.
                    self.last_heard.insert(conn, now);
                    continue;
                }
            };
            if idle >= self.config.liveness_timeout {
                self.stats.liveness_timeouts.fetch_add(1, Ordering::Relaxed);
                // Immediate teardown (not flush-then-close): the peer is
                // unresponsive, and unregistering shuts the socket so both
                // our reader and a dialing supervisor notice and redial.
                self.handle_disconnect(conn);
            } else {
                // Jitter the ping threshold per link and per tick (same
                // splitmix64 draw as the redial jitter, distinct seed):
                // with a fixed threshold every broker pings every idle
                // link on the same timer edge and the whole mesh's probe
                // traffic lands in lockstep bursts. The draw stays within
                // [interval, 1.5*interval), so detection latency is still
                // bounded by the same order of one heartbeat interval.
                let interval =
                    Duration::from_millis(self.heartbeat_ms.load(Ordering::Relaxed).max(1));
                let state = self
                    .ping_jitter
                    .entry(neighbor)
                    .or_insert_with(|| heartbeat_jitter_seed(me, neighbor));
                let threshold = jittered_backoff(interval, state);
                if idle >= threshold {
                    self.stats.pings_sent.fetch_add(1, Ordering::Relaxed);
                    self.outbox.send(conn, BrokerToBroker::Ping.encode());
                }
            }
        }
    }

    /// A connection overran [`BrokerConfig::conn_queue_bound`]. Clients are
    /// evicted with a final flushed `Error` frame (their event logs survive
    /// for replay on reconnect); broker peers are disconnected without
    /// ceremony — their spools hold every unacknowledged frame and the
    /// redial handshake retransmits, so overflow costs a reconnect, not
    /// events.
    fn handle_queue_overflow(&mut self, conn: ConnId) {
        match self.conns.get(&conn) {
            Some(Peer::Client(_)) => {
                self.stats
                    .evicted_slow_consumers
                    .fetch_add(1, Ordering::Relaxed);
                let notice = BrokerToClient::Error {
                    message: "evicted: outgoing queue exceeded conn_queue_bound".into(),
                }
                .encode();
                self.outbox.evict(conn, Some(notice));
                self.forget_conn(conn);
            }
            Some(Peer::Broker(_)) => {
                self.stats
                    .peer_overflow_disconnects
                    .fetch_add(1, Ordering::Relaxed);
                self.handle_disconnect(conn);
            }
            None => {
                // Overflow before the peer even said hello: nothing owed.
                self.outbox.evict(conn, None);
            }
        }
    }

    /// Pushes a cumulative `FwdAck` to every neighbor we owe one (received
    /// frames not yet acknowledged). Shared by the GC tick (idle links
    /// below the ack cadence) and the shutdown path.
    fn flush_forward_acks(&mut self) {
        for (&broker, recv) in self.recv_from.iter_mut() {
            // Acks advertise the durable mark only: a crash must never be
            // able to lose a frame a peer already trimmed on our word.
            if recv.durable_seq > recv.acked_sent {
                if let Some(&conn) = self.neighbors.get(&broker) {
                    recv.acked_sent = recv.durable_seq;
                    self.outbox.send(
                        conn,
                        BrokerToBroker::FwdAck {
                            seq: recv.acked_sent,
                        }
                        .encode(),
                    );
                }
            }
        }
    }

    fn handle_disconnect(&mut self, conn: ConnId) {
        self.outbox.unregister(conn);
        self.forget_conn(conn);
    }

    /// Engine-side teardown shared by the immediate
    /// ([`handle_disconnect`](Self::handle_disconnect)) and flush-then-
    /// close (`protocol_error_disconnect`) paths: drops the routing state
    /// for `conn` without touching the transport.
    fn forget_conn(&mut self, conn: ConnId) {
        self.awaiting_hello.remove(&conn);
        self.last_heard.remove(&conn);
        match self.conns.remove(&conn) {
            Some(Peer::Client(client)) => {
                if let Some(state) = self.clients.get_mut(&client) {
                    if state.conn == Some(conn) {
                        // Keep the log: deliveries continue to accumulate
                        // for replay on reconnect (until the TTL).
                        state.conn = None;
                        state.disconnected_at = Some(std::time::Instant::now());
                    }
                }
            }
            Some(Peer::Broker(broker)) if self.neighbors.get(&broker) == Some(&conn) => {
                self.neighbors.remove(&broker);
            }
            _ => {}
        }
    }

    fn collect_garbage(&mut self) {
        let ttl = self.config.client_ttl;
        self.clients.retain(|_, state| {
            state.log.collect();
            state.log.enforce_bound(self.config.log_bound);
            // Reclaim state for clients gone longer than the TTL.
            state.disconnected_at.is_none_or(|at| at.elapsed() <= ttl)
        });
        // Flush pending forward acks, so a link that went quiet below the
        // ack cadence still lets the neighbor trim its spool.
        self.flush_forward_acks();
        // Trim acknowledged spool entries and enforce the per-link bound
        // for neighbors that stay down.
        let mut trims: Vec<(BrokerId, u64)> = Vec::new();
        for (&broker, spool) in self.spools.iter_mut() {
            let acked_before = spool.acked();
            spool.collect();
            let before = spool.lost();
            spool.enforce_bound(self.config.link_spool_bound);
            let dropped = spool.lost() - before;
            self.stats
                .dropped_spool_overflow
                .fetch_add(dropped, Ordering::Relaxed);
            // Bound enforcement can advance the ack floor (dropped-as-lost
            // frames); journal it so recovery agrees with memory.
            if spool.acked() != acked_before {
                trims.push((broker, spool.acked()));
            }
        }
        for (broker, acked) in trims {
            self.wal_commit_trim(broker, acked);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{PowerCut, SimStorage};
    use linkcast_types::{EventSchema, ValueKind};

    fn registry() -> SchemaRegistry {
        let mut r = SchemaRegistry::new();
        r.register(
            EventSchema::builder("trades")
                .attribute("issue", ValueKind::Str)
                .attribute("volume", ValueKind::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        r
    }

    fn subscription(reg: &SchemaRegistry, id: u32) -> (SchemaId, Subscription) {
        let schema_id = SchemaId::new(0);
        let schema = reg.get(schema_id).unwrap();
        let sub = Subscription::new(
            SubscriptionId::new(id),
            SubscriberId::new(BrokerId::new(1), ClientId::new(2)),
            linkcast_types::parse_predicate(schema, "volume > 10").unwrap(),
        );
        (schema_id, sub)
    }

    /// One WAL record, encoded the way `wal_commit` writes it.
    fn record(ops: &[WalOp]) -> Vec<u8> {
        let payload = storage::encode_ops(ops);
        let mut out = Vec::new();
        storage::encode_record(&payload, &mut out);
        out
    }

    #[test]
    fn redial_jitter_stays_in_band_and_spreads_the_herd() {
        // In-band: every jittered value lands in [backoff, 1.5*backoff].
        for base in [LINK_REDIAL_MIN, Duration::from_millis(400), LINK_REDIAL_MAX] {
            let mut state = jitter_seed(BrokerId::new(1), BrokerId::new(2));
            for _ in 0..64 {
                let j = jittered_backoff(base, &mut state);
                assert!(j >= base, "{j:?} < {base:?}");
                assert!(
                    j <= base + base / 2 + Duration::from_millis(1),
                    "{j:?} too far over {base:?}"
                );
            }
        }
        // Spread: the first redial of distinct (local, neighbor) pairs —
        // the lockstep moment after a hub crash — must not collapse onto
        // one instant. Demand a majority of distinct values across 16
        // supervisors (50ms base gives 26 possible slots).
        let base = LINK_REDIAL_MIN;
        let firsts: std::collections::HashSet<Duration> = (0..16)
            .map(|n| {
                let mut state = jitter_seed(BrokerId::new(n), BrokerId::new(0));
                jittered_backoff(base, &mut state)
            })
            .collect();
        assert!(
            firsts.len() >= 8,
            "only {} distinct first backoffs",
            firsts.len()
        );
        // And successive redials of one supervisor spread too.
        let mut state = jitter_seed(BrokerId::new(3), BrokerId::new(0));
        let series: std::collections::HashSet<Duration> = (0..16)
            .map(|_| jittered_backoff(base, &mut state))
            .collect();
        assert!(
            series.len() >= 8,
            "only {} distinct successive backoffs",
            series.len()
        );
    }

    #[test]
    fn heartbeat_jitter_stays_in_band_and_decorrelates_from_redials() {
        // In-band: every jittered ping threshold lands in
        // [interval, 1.5*interval] — detection latency stays bounded by
        // the same order of one heartbeat interval.
        for base in [
            Duration::from_millis(100),
            Duration::from_millis(500),
            Duration::from_secs(2),
        ] {
            let mut state = heartbeat_jitter_seed(BrokerId::new(1), BrokerId::new(2));
            for _ in 0..64 {
                let j = jittered_backoff(base, &mut state);
                assert!(j >= base, "{j:?} < {base:?}");
                assert!(
                    j <= base + base / 2 + Duration::from_millis(1),
                    "{j:?} too far over {base:?}"
                );
            }
        }
        // Spread: distinct links draw distinct first thresholds, so the
        // mesh's pings do not land on one timer edge.
        let base = Duration::from_millis(500);
        let firsts: std::collections::HashSet<Duration> = (0..16)
            .map(|n| {
                let mut state = heartbeat_jitter_seed(BrokerId::new(n), BrokerId::new(0));
                jittered_backoff(base, &mut state)
            })
            .collect();
        assert!(
            firsts.len() >= 8,
            "only {} distinct ping thresholds",
            firsts.len()
        );
        // Decorrelated from the redial stream: the same (local, neighbor)
        // pair must not draw the same schedule for pings as for redials.
        let mut redial = jitter_seed(BrokerId::new(1), BrokerId::new(2));
        let mut ping = heartbeat_jitter_seed(BrokerId::new(1), BrokerId::new(2));
        let redials: Vec<Duration> = (0..8)
            .map(|_| jittered_backoff(base, &mut redial))
            .collect();
        let pings: Vec<Duration> = (0..8).map(|_| jittered_backoff(base, &mut ping)).collect();
        assert_ne!(redials, pings, "ping jitter mirrors the redial jitter");
    }

    #[test]
    fn snapshot_roundtrips_full_state() {
        let reg = registry();
        let mut sub_ids = SubIdAllocator::new();
        let a = sub_ids.allocate().unwrap();
        let _b = sub_ids.allocate().unwrap();
        sub_ids.free(a);
        let mut tombstones = TombstoneSet::default();
        tombstones.insert(SubscriptionId::new(77));
        let mut recv_from = HashMap::new();
        recv_from.insert(
            BrokerId::new(3),
            NeighborRecv {
                seq: 9,
                durable_seq: 9,
                acked_sent: 0,
                peer_incarnation: 0xabc,
            },
        );
        let mut spools = HashMap::new();
        let mut spool: AckLog<Bytes> = AckLog::new();
        spool.append(Bytes::from_static(b"one"));
        spool.append(Bytes::from_static(b"two"));
        spool.append(Bytes::from_static(b"three"));
        spool.ack(1);
        spools.insert(BrokerId::new(4), spool);
        let subs = vec![subscription(&reg, 5)];

        let bytes = encode_snapshot(0xfeed, &sub_ids, &tombstones, &recv_from, &spools, &subs);
        let back = decode_snapshot(&bytes, &reg).expect("snapshot decodes");

        assert_eq!(back.incarnation, 0xfeed);
        assert_eq!(back.sub_ids.checkpoint(), sub_ids.checkpoint());
        assert!(back.tombstones.contains(SubscriptionId::new(77)));
        let recv = back.recv_from.get(&BrokerId::new(3)).unwrap();
        assert_eq!(
            (recv.seq, recv.durable_seq, recv.peer_incarnation),
            (9, 9, 0xabc)
        );
        // Acked-sent restarts at zero: the next flush re-advertises the
        // durable mark, which is harmless (cumulative acks clamp).
        assert_eq!(recv.acked_sent, 0);
        let spool = back.spools.get(&BrokerId::new(4)).unwrap();
        // Only unacknowledged frames survive, in the same sequence space.
        assert_eq!(spool.acked(), 1);
        assert_eq!(spool.last_seq(), 3);
        let frames: Vec<&Bytes> = spool.replay_after(1).map(|(_, f)| f).collect();
        assert_eq!(
            frames,
            vec![&Bytes::from_static(b"two"), &Bytes::from_static(b"three")]
        );
        assert_eq!(back.subscriptions.len(), 1);
        assert_eq!(
            back.subscriptions.first().unwrap().1.id(),
            SubscriptionId::new(5)
        );
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_fresh_boot() {
        let reg = registry();
        assert!(decode_snapshot(&[1, 2, 3], &reg).is_none());
        let st = SimStorage::default();
        st.write_snapshot(STATE_SNAPSHOT, &[9, 9, 9, 9]).unwrap();
        let stats = StatsInner::default();
        let r = recover(&st, &reg, &stats).unwrap();
        // Fresh state, fresh incarnation — but the boot still counts as a
        // recovery attempt (durable state existed).
        assert!(r.spools.is_empty());
        assert_ne!(r.incarnation, 0);
        assert_eq!(stats.recoveries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fresh_storage_recovers_to_fresh_boot_without_counting() {
        let reg = registry();
        let st = SimStorage::default();
        let stats = StatsInner::default();
        let r = recover(&st, &reg, &stats).unwrap();
        assert!(r.recv_from.is_empty());
        assert_eq!(stats.recoveries.load(Ordering::Relaxed), 0);
        assert_eq!(stats.wal_replayed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn recover_replays_wal_suffix_on_top_of_snapshot() {
        let reg = registry();
        let st = SimStorage::default();
        // Snapshot: incarnation 7, one spool with one unacked frame.
        let mut spools = HashMap::new();
        let mut spool: AckLog<Bytes> = AckLog::new();
        spool.append(Bytes::from_static(b"f1"));
        spools.insert(BrokerId::new(2), spool);
        let snap = encode_snapshot(
            7,
            &SubIdAllocator::new(),
            &TombstoneSet::default(),
            &HashMap::new(),
            &spools,
            &[],
        );
        st.write_snapshot(STATE_SNAPSHOT, &snap).unwrap();
        // WAL suffix: one more append + a receive mark, then a trim.
        st.append(
            WAL_LOG,
            &record(&[
                WalOp::Append {
                    neighbor: 2,
                    seq: 2,
                    frame: Bytes::from_static(b"f2"),
                },
                WalOp::RecvMark {
                    from: 3,
                    incarnation: 0xabc,
                    seq: 5,
                },
            ]),
        )
        .unwrap();
        st.append(
            WAL_LOG,
            &record(&[WalOp::Trim {
                neighbor: 2,
                acked: 1,
            }]),
        )
        .unwrap();
        st.sync(WAL_LOG).unwrap();

        let stats = StatsInner::default();
        let r = recover(&st, &reg, &stats).unwrap();
        assert_eq!(r.incarnation, 7);
        let spool = r.spools.get(&BrokerId::new(2)).unwrap();
        assert_eq!((spool.acked(), spool.last_seq()), (1, 2));
        let frames: Vec<&Bytes> = spool.replay_after(1).map(|(_, f)| f).collect();
        assert_eq!(frames, vec![&Bytes::from_static(b"f2")]);
        let recv = r.recv_from.get(&BrokerId::new(3)).unwrap();
        assert_eq!(
            (recv.seq, recv.durable_seq, recv.peer_incarnation),
            (5, 5, 0xabc)
        );
        assert_eq!(stats.recoveries.load(Ordering::Relaxed), 1);
        assert_eq!(stats.wal_replayed.load(Ordering::Relaxed), 2);
        assert_eq!(stats.torn_records_discarded.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn snapshot_torn_cut_recovers_from_previous_snapshot_and_wal() {
        // A cut that interrupts the snapshot rename itself (no storage op
        // followed the write) reverts the slot to its previous contents.
        // The WAL was not yet truncated — the truncate would have
        // committed the rename — so the previous snapshot plus the full
        // WAL reconstructs the state the torn snapshot described.
        let reg = registry();
        let st = SimStorage::default();
        let old = encode_snapshot(
            7,
            &SubIdAllocator::new(),
            &TombstoneSet::default(),
            &HashMap::new(),
            &HashMap::new(),
            &[],
        );
        st.write_snapshot(STATE_SNAPSHOT, &old).unwrap();
        st.append(
            WAL_LOG,
            &record(&[WalOp::RecvMark {
                from: 3,
                incarnation: 0xabc,
                seq: 4,
            }]),
        )
        .unwrap();
        st.sync(WAL_LOG).unwrap();
        // The interrupted checkpoint (a decodable snapshot with a
        // recognizably different incarnation, so a failed revert shows).
        let torn = encode_snapshot(
            9,
            &SubIdAllocator::new(),
            &TombstoneSet::default(),
            &HashMap::new(),
            &HashMap::new(),
            &[],
        );
        st.write_snapshot(STATE_SNAPSHOT, &torn).unwrap();
        st.power_cut(PowerCut::SnapshotTorn);

        let stats = StatsInner::default();
        let r = recover(&st, &reg, &stats).unwrap();
        assert_eq!(
            r.incarnation, 7,
            "torn rename must revert to the committed snapshot"
        );
        let recv = r.recv_from.get(&BrokerId::new(3)).unwrap();
        assert_eq!((recv.seq, recv.durable_seq), (4, 4));
        assert_eq!(stats.wal_replayed.load(Ordering::Relaxed), 1);
        assert_eq!(stats.recoveries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn wal_replay_is_idempotent_over_an_untruncated_log() {
        // A cut between boot-snapshot commit and WAL truncate leaves the
        // absorbed records behind: replaying them on top of the snapshot
        // that already contains their effects must change nothing.
        let reg = registry();
        let st = SimStorage::default();
        let append = record(&[
            WalOp::Append {
                neighbor: 2,
                seq: 1,
                frame: Bytes::from_static(b"f1"),
            },
            WalOp::RecvMark {
                from: 3,
                incarnation: 0xabc,
                seq: 4,
            },
        ]);
        st.append(WAL_LOG, &append).unwrap();
        st.sync(WAL_LOG).unwrap();
        let stats = StatsInner::default();
        let first = recover(&st, &reg, &stats).unwrap();
        // Simulate the boot snapshot without the truncate.
        let snap = encode_snapshot(
            first.incarnation,
            &first.sub_ids,
            &first.tombstones,
            &first.recv_from,
            &first.spools,
            &[],
        );
        st.write_snapshot(STATE_SNAPSHOT, &snap).unwrap();
        let second = recover(&st, &reg, &stats).unwrap();
        assert_eq!(second.incarnation, first.incarnation);
        let spool = second.spools.get(&BrokerId::new(2)).unwrap();
        assert_eq!((spool.acked(), spool.last_seq(), spool.len()), (0, 1, 1));
        let recv = second.recv_from.get(&BrokerId::new(3)).unwrap();
        assert_eq!(recv.seq, 4);
    }

    #[test]
    fn torn_tail_record_is_discarded_on_recovery_not_replayed() {
        let reg = registry();
        let st = SimStorage::default();
        st.append(
            WAL_LOG,
            &record(&[WalOp::Append {
                neighbor: 2,
                seq: 1,
                frame: Bytes::from_static(b"durable"),
            }]),
        )
        .unwrap();
        st.sync(WAL_LOG).unwrap();
        // The second record never syncs; the power cut tears it.
        st.append(
            WAL_LOG,
            &record(&[WalOp::Append {
                neighbor: 2,
                seq: 2,
                frame: Bytes::from_static(b"torn"),
            }]),
        )
        .unwrap();
        st.power_cut(PowerCut::TornTail);

        let stats = StatsInner::default();
        let r = recover(&st, &reg, &stats).unwrap();
        let spool = r.spools.get(&BrokerId::new(2)).unwrap();
        assert_eq!(
            spool.last_seq(),
            1,
            "torn append must not be replayed as data"
        );
        assert_eq!(stats.torn_records_discarded.load(Ordering::Relaxed), 1);
        assert_eq!(stats.wal_replayed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn lost_suffix_reverts_to_synced_prefix_on_recovery() {
        let reg = registry();
        let st = SimStorage::default();
        st.append(
            WAL_LOG,
            &record(&[WalOp::RecvMark {
                from: 3,
                incarnation: 1,
                seq: 10,
            }]),
        )
        .unwrap();
        st.sync(WAL_LOG).unwrap();
        st.append(
            WAL_LOG,
            &record(&[WalOp::RecvMark {
                from: 3,
                incarnation: 1,
                seq: 20,
            }]),
        )
        .unwrap();
        st.power_cut(PowerCut::LostSuffix);

        let stats = StatsInner::default();
        let r = recover(&st, &reg, &stats).unwrap();
        let recv = r.recv_from.get(&BrokerId::new(3)).unwrap();
        assert_eq!(
            recv.durable_seq, 10,
            "unsynced mark must not survive the cut"
        );
    }

    #[test]
    fn recv_mark_replay_tracks_peer_restarts_in_order() {
        let reg = registry();
        let st = SimStorage::default();
        // Peer incarnation A reaches seq 10, restarts as B, reaches seq 2.
        st.append(
            WAL_LOG,
            &record(&[WalOp::RecvMark {
                from: 3,
                incarnation: 0xa,
                seq: 10,
            }]),
        )
        .unwrap();
        st.append(
            WAL_LOG,
            &record(&[WalOp::RecvMark {
                from: 3,
                incarnation: 0xb,
                seq: 2,
            }]),
        )
        .unwrap();
        st.sync(WAL_LOG).unwrap();
        let stats = StatsInner::default();
        let r = recover(&st, &reg, &stats).unwrap();
        let recv = r.recv_from.get(&BrokerId::new(3)).unwrap();
        assert_eq!((recv.peer_incarnation, recv.seq), (0xb, 2));
    }
}
