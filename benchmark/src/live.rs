//! The live cluster: a three-broker TCP chain over loopback, its clients,
//! and the two load phases driven through the public client API.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use linkcast::{NetworkBuilder, RoutingFabric};
use linkcast_broker::{BrokerConfig, BrokerNode, Client, ClientError, FsStorage, Storage};
use linkcast_types::{BrokerId, SchemaId, SchemaRegistry, SubscriptionId, Value};

use crate::cpu;
use crate::trace::{self, Span, Spans};
use crate::workload::{self, Entry, Generator, Oracle, Roles, Spec, BROKERS, DUE, SEQ};

/// How long a receive call may block: the transport's read quantum.
const RECV_QUANTUM: Duration = Duration::from_millis(200);
/// Closed-loop warm-up before the first measured window.
const WARMUP: Duration = Duration::from_millis(500);
/// How long in-flight events may take to complete after a phase.
const SETTLE: Duration = Duration::from_secs(30);
/// Subscription changes per round on workloads without a churn thread,
/// and the rate they are issued at.
const PROBE_CHANGES: usize = 100;
const PROBE_RATE: f64 = 500.0;
/// Ledger capacity in events.
const MAX_EVENTS: usize = 1 << 23;

/// The network every workload runs on: a chain A - B - C, one publisher on
/// A, one receiving subscriber per broker, the decoy clients spread
/// round-robin, and a churn client on B.
pub fn topology(spec: &Spec) -> (Arc<RoutingFabric>, Vec<BrokerId>, Roles) {
    let mut net = NetworkBuilder::new();
    let brokers: Vec<BrokerId> = (0..BROKERS).map(|_| net.add_broker()).collect();
    for pair in brokers.windows(2) {
        net.connect(pair[0], pair[1], 5.0).expect("chain link");
    }
    let publisher = net.add_client(brokers[0]).expect("client");
    let subscribers = brokers
        .iter()
        .map(|&b| net.add_client(b).expect("client"))
        .collect();
    let decoys = (0..spec.decoy_clients)
        .map(|i| {
            (
                i % BROKERS,
                net.add_client(brokers[i % BROKERS]).expect("client"),
            )
        })
        .collect();
    let churn = net.add_client(brokers[1]).expect("client");
    let fabric = RoutingFabric::new_all_roots(net.build().expect("network")).expect("fabric");
    (
        fabric,
        brokers,
        Roles {
            publisher,
            subscribers,
            decoys,
            churn,
        },
    )
}

pub struct Cluster {
    pub nodes: Vec<BrokerNode>,
    publisher: Client,
    subscribers: Vec<Client>,
    /// Decoy clients stay connected but hold no thread.
    decoys: Vec<Client>,
    churn: Client,
    wal_dirs: Vec<PathBuf>,
}

/// Starts the cluster and issues the whole table; returns it with the
/// seconds from the first broker start until every broker's subscription
/// count has converged.
pub fn start(
    spec: &Spec,
    registry: &Arc<SchemaRegistry>,
    fabric: &Arc<RoutingFabric>,
    brokers: &[BrokerId],
    roles: &Roles,
    entries: &[Entry],
    wal_root: &Path,
) -> Result<(Cluster, f64), String> {
    let wal_dirs: Vec<PathBuf> = if spec.durable {
        (0..BROKERS)
            .map(|i| wal_root.join(format!("broker{i}")))
            .collect()
    } else {
        Vec::new()
    };
    for dir in &wal_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    let t0 = Instant::now();
    let mut nodes = Vec::new();
    for (i, &b) in brokers.iter().enumerate() {
        let mut config = BrokerConfig::localhost(b, Arc::clone(fabric), Arc::clone(registry));
        if spec.durable {
            let storage = FsStorage::open(&wal_dirs[i]).map_err(|e| format!("wal dir: {e}"))?;
            config.storage = Some(Arc::new(storage) as Arc<dyn Storage>);
        }
        nodes.push(BrokerNode::start(config).map_err(|e| format!("broker start: {e}"))?);
    }
    for i in 0..BROKERS - 1 {
        nodes[i].connect_to_persistent(brokers[i + 1], nodes[i + 1].addr());
    }
    let connect = |b: usize, id| {
        Client::connect(nodes[b].addr(), id, 0, Arc::clone(registry))
            .map_err(|e| format!("client connect: {e}"))
    };
    let publisher = connect(0, roles.publisher)?;
    let mut subscribers = Vec::new();
    for (b, &id) in roles.subscribers.iter().enumerate() {
        subscribers.push(connect(b, id)?);
    }
    let mut decoys = Vec::new();
    for &(b, id) in &roles.decoys {
        decoys.push(connect(b, id)?);
    }
    let churn = connect(1, roles.churn)?;
    for e in entries {
        let client = match e.receiver {
            Some(k) => &mut subscribers[k],
            None => {
                let slot = roles
                    .decoys
                    .iter()
                    .position(|&(_, id)| id == e.client)
                    .expect("decoy client exists");
                &mut decoys[slot]
            }
        };
        client
            .subscribe(SchemaId::new(e.space as u32), &e.expression)
            .map_err(|err| format!("subscribe: {err}"))?;
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    for node in &nodes {
        while node.stats().subscriptions < entries.len() as u64 {
            if Instant::now() > deadline {
                return Err("subscription flood did not converge".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    Ok((
        Cluster {
            nodes,
            publisher,
            subscribers,
            decoys,
            churn,
            wal_dirs,
        },
        setup_s,
    ))
}

impl Cluster {
    pub fn shutdown(self) {
        drop(self.publisher);
        drop(self.subscribers);
        drop(self.decoys);
        drop(self.churn);
        for node in self.nodes {
            node.shutdown();
        }
        for dir in &self.wal_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Per-event delivery bookkeeping, indexed by sequence id. An expected
/// mask holds one bit per receiving subscriber plus [`OPEN_LOOP`].
struct Ledger {
    expected: Vec<AtomicU8>,
    received: Vec<AtomicU8>,
    remaining: Vec<AtomicU8>,
    completed: Mutex<u64>,
    wake: Condvar,
    /// The completion count a blocked publisher waits for (`u64::MAX`
    /// when none waits): completions notify only once it is reached.
    wake_at: AtomicU64,
    spurious: AtomicU64,
    duplicate: AtomicU64,
    errors: AtomicU64,
}

/// Expected-mask flag: the event belongs to an open-loop window, so its
/// receipts are latency samples.
const OPEN_LOOP: u8 = 0x80;

impl Ledger {
    fn new() -> Ledger {
        let zeros = || (0..MAX_EVENTS).map(|_| AtomicU8::new(0)).collect();
        Ledger {
            expected: zeros(),
            received: zeros(),
            remaining: zeros(),
            completed: Mutex::new(0),
            wake: Condvar::new(),
            wake_at: AtomicU64::new(u64::MAX),
            spurious: AtomicU64::new(0),
            duplicate: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    fn completed(&self) -> u64 {
        *self.completed.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn complete_one(&self) {
        let mut done = self.completed.lock().unwrap_or_else(|e| e.into_inner());
        *done += 1;
        if *done >= self.wake_at.load(Ordering::Relaxed) {
            self.wake.notify_one();
        }
    }

    fn expect(&self, seq: u64, mask: u8, open: bool) {
        let i = seq as usize;
        let flag = if open { OPEN_LOOP } else { 0 };
        self.expected[i].store(mask | flag, Ordering::Release);
        self.remaining[i].store(mask.count_ones() as u8, Ordering::Release);
        if mask == 0 {
            self.complete_one();
        }
    }

    /// Records subscriber `k` receiving event `seq`. For an expected first
    /// delivery, returns whether the event is an open-loop one.
    fn receive(&self, k: usize, seq: u64) -> Option<bool> {
        let bit = 1u8 << k;
        let Some(expected) = self.expected.get(seq as usize) else {
            self.spurious.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let expected = expected.load(Ordering::Acquire);
        if expected & bit == 0 {
            self.spurious.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let i = seq as usize;
        if self.received[i].fetch_or(bit, Ordering::AcqRel) & bit != 0 {
            self.duplicate.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if self.remaining[i].fetch_sub(1, Ordering::AcqRel) == 1 {
            self.complete_one();
        }
        Some(expected & OPEN_LOOP != 0)
    }

    /// Blocks until `target` events have completed; false if `deadline`
    /// passes first.
    fn wait_for(&self, target: u64, deadline: Instant) -> bool {
        let mut done = self.completed.lock().unwrap_or_else(|e| e.into_inner());
        while *done < target {
            let now = Instant::now();
            if now >= deadline {
                self.wake_at.store(u64::MAX, Ordering::Relaxed);
                return false;
            }
            self.wake_at.store(target, Ordering::Relaxed);
            done = self
                .wake
                .wait_timeout(done, (deadline - now).min(Duration::from_millis(100)))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        self.wake_at.store(u64::MAX, Ordering::Relaxed);
        true
    }

    /// Expected deliveries that never arrived, over events `0..published`.
    fn missing(&self, published: u64) -> u64 {
        (0..published as usize)
            .map(|i| {
                let e = self.expected[i].load(Ordering::Acquire) & !OPEN_LOOP;
                let r = self.received[i].load(Ordering::Acquire);
                u64::from((e & !r).count_ones())
            })
            .sum()
    }
}

/// Cluster-wide counter totals at one instant.
#[derive(Clone, Default)]
pub struct Counters {
    pub forwarded: u64,
    pub delivered: u64,
    pub retransmitted: u64,
    pub dropped_spool_overflow: u64,
    pub evicted_slow_consumers: u64,
    pub protocol_errors: u64,
    pub wal_appends: u64,
    pub snapshot_writes: u64,
    pub match_events: u64,
    pub steps: u64,
    pub comparisons: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Counters {
    fn read(nodes: &[BrokerNode]) -> Counters {
        let mut c = Counters::default();
        for node in nodes {
            let s = node.stats();
            c.forwarded += s.forwarded;
            c.delivered += s.delivered;
            c.retransmitted += s.retransmitted;
            c.dropped_spool_overflow += s.dropped_spool_overflow;
            c.evicted_slow_consumers += s.evicted_slow_consumers;
            c.protocol_errors += s.protocol_errors;
            c.wal_appends += s.wal_appends;
            c.snapshot_writes += s.snapshot_writes;
            let m = node.match_stats();
            c.match_events += m.events;
            c.steps += m.steps;
            c.comparisons += m.comparisons;
            c.cache_hits += m.cache_hits;
            c.cache_misses += m.cache_misses;
        }
        c
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            forwarded: self.forwarded - before.forwarded,
            delivered: self.delivered - before.delivered,
            retransmitted: self.retransmitted - before.retransmitted,
            dropped_spool_overflow: self.dropped_spool_overflow - before.dropped_spool_overflow,
            evicted_slow_consumers: self.evicted_slow_consumers - before.evicted_slow_consumers,
            protocol_errors: self.protocol_errors - before.protocol_errors,
            wal_appends: self.wal_appends - before.wal_appends,
            snapshot_writes: self.snapshot_writes - before.snapshot_writes,
            match_events: self.match_events - before.match_events,
            steps: self.steps - before.steps,
            comparisons: self.comparisons - before.comparisons,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
        }
    }
}

/// The state at one window boundary.
struct Mark {
    at: Instant,
    completed: u64,
    cpu: cpu::Snapshot,
    counters: Counters,
}

impl Mark {
    fn take(ledger: &Ledger, nodes: &[BrokerNode]) -> Mark {
        Mark {
            at: Instant::now(),
            completed: ledger.completed(),
            cpu: cpu::snapshot(),
            counters: Counters::read(nodes),
        }
    }
}

/// One closed-loop measurement window.
pub struct Window {
    pub secs: f64,
    pub completed: u64,
    pub cpu_ns: HashMap<cpu::Role, u64>,
    pub counters: Counters,
    /// Spans were recorded during this window.
    pub traced: bool,
}

impl Window {
    fn between(a: &Mark, b: &Mark, traced: bool) -> Window {
        Window {
            secs: (b.at - a.at).as_secs_f64(),
            completed: b.completed - a.completed,
            cpu_ns: cpu::delta(&a.cpu, &b.cpu),
            counters: b.counters.since(&a.counters),
            traced,
        }
    }

    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.secs
    }

    /// CPU microseconds per completed event of the given roles.
    pub fn cpu_us(&self, roles: &[cpu::Role]) -> f64 {
        let ns: u64 = roles.iter().map(|r| self.cpu_ns[r]).sum();
        ns as f64 / 1000.0 / self.completed.max(1) as f64
    }
}

/// What the live phases measured.
pub struct Live {
    /// `plan.slices` closed-loop windows per round, in order.
    pub windows: Vec<Window>,
    /// Per round, open-loop latency from due time to receipt for every
    /// expected delivery, microseconds.
    pub latency_us: Vec<Vec<f64>>,
    /// Open loop: how late each publish started after its due time.
    pub late_us: Vec<f64>,
    /// Subscription-change round trips: `(was a subscribe, microseconds)`.
    pub sub_changes: Vec<(bool, f64)>,
    pub published: u64,
    pub missing: u64,
    pub duplicate: u64,
    pub spurious: u64,
    pub errors: u64,
    /// Deliveries the brokers made to clients that are not receivers.
    pub decoy_deliveries: u64,
    /// Counter deltas over all rounds.
    pub totals: Counters,
    pub queued_frames_max: u64,
    pub repeat_share: f64,
    pub spans: Spans,
}

/// Timing of the measured rounds.
pub struct Plan {
    pub rounds: usize,
    /// Closed-loop phase per round.
    pub closed: Duration,
    /// Measurement windows each closed-loop phase is cut into.
    pub slices: usize,
    /// Open-loop window per round.
    pub open: Duration,
    /// Record spans: every other round's closed-loop phase (the rest
    /// measure the tracing overhead by difference), every open window and
    /// probe.
    pub traced: bool,
}

/// What the publisher thread hands back.
struct Published {
    windows: Vec<Window>,
    /// Per round, the open-loop sequence ids `[start, end)`.
    open_ranges: Vec<(u64, u64)>,
    late_us: Vec<f64>,
    /// The per-round subscription-change probe (no churn thread).
    probe: Churn,
    published: u64,
    spans: Spans,
}

/// Runs `plan.rounds` rounds, each a closed-loop phase measured in
/// `plan.slices` windows, an open-loop window at the workload's offered
/// rate and — for workloads without a churn thread — 100 paced
/// subscription changes. Interleaving spreads
/// every metric's samples over the whole run, so one burst of machine
/// noise moves one round, not one metric.
pub fn run(
    cluster: Cluster,
    spec: &Spec,
    mut generator: Generator,
    mut oracle: Oracle,
    plan: &Plan,
    seed: u64,
) -> (Live, Cluster) {
    let Cluster {
        nodes,
        mut publisher,
        subscribers,
        decoys,
        mut churn,
        wal_dirs,
    } = cluster;
    let ledger = Ledger::new();
    let stop_drains = AtomicBool::new(false);
    let stop_churn = AtomicBool::new(false);
    let publishing = AtomicBool::new(true);
    let queued_max = AtomicU64::new(0);
    let base = Counters::read(&nodes);
    let churning = spec.churn_per_sec > 0.0;

    let mut live = std::thread::scope(|s| {
        let drains: Vec<_> = subscribers
            .into_iter()
            .enumerate()
            .map(|(k, mut client)| {
                let (ledger, stop) = (&ledger, &stop_drains);
                std::thread::Builder::new()
                    .name(format!("bench-drain-{k}"))
                    .spawn_scoped(s, move || drain(k, &mut client, ledger, stop))
                    .expect("spawn drain")
            })
            .collect();
        let (churn_thread, probe_client) = if churning {
            let (stop, rate, client) = (&stop_churn, spec.churn_per_sec, &mut churn);
            let t = std::thread::Builder::new()
                .name("bench-churn".into())
                .spawn_scoped(s, move || churn_loop(client, rate, seed, stop))
                .expect("spawn churn");
            (Some(t), None)
        } else {
            (None, Some(&mut churn))
        };
        let publisher_thread = {
            let (ledger, nodes, publishing) = (&ledger, &nodes, &publishing);
            let (gen, oracle, publisher) = (&mut generator, &mut oracle, &mut publisher);
            std::thread::Builder::new()
                .name("bench-pub".into())
                .spawn_scoped(s, move || {
                    let out = publish_rounds(
                        publisher,
                        probe_client,
                        gen,
                        oracle,
                        ledger,
                        nodes,
                        spec,
                        plan,
                        seed,
                    );
                    publishing.store(false, Ordering::Release);
                    out
                })
                .expect("spawn publisher")
        };
        // The main thread samples the outbox gauge while the load runs.
        while publishing.load(Ordering::Acquire) {
            let queued: u64 = nodes.iter().map(|n| n.stats().queued_frames).sum();
            queued_max.fetch_max(queued, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(50));
        }
        let mut out = publisher_thread.join().expect("publisher thread");
        stop_churn.store(true, Ordering::Release);
        let churn = match churn_thread {
            Some(t) => t.join().expect("churn thread"),
            None => std::mem::take(&mut out.probe),
        };
        out.spans.0.extend(churn.spans.0);
        let (sub_changes, errors) = (churn.samples, churn.errors);
        // A short grace so a late duplicate or spurious delivery still
        // reaches a drain before the counts are taken.
        std::thread::sleep(Duration::from_millis(300));
        stop_drains.store(true, Ordering::Release);
        let mut samples: Vec<(u64, f64)> = Vec::new();
        let mut firsts = 0u64;
        for d in drains {
            let (lat, drain_spans, n) = d.join().expect("drain thread");
            samples.extend(lat);
            out.spans.0.extend(drain_spans.0);
            firsts += n;
        }
        let latency_us = out
            .open_ranges
            .iter()
            .map(|&(a, b)| {
                samples
                    .iter()
                    .filter(|(seq, _)| (a..b).contains(seq))
                    .map(|&(_, us)| us)
                    .collect()
            })
            .collect();
        let duplicate = ledger.duplicate.load(Ordering::Relaxed);
        let spurious = ledger.spurious.load(Ordering::Relaxed);
        let totals = Counters::read(&nodes).since(&base);
        let missing = ledger.missing(out.published);
        Live {
            windows: out.windows,
            latency_us,
            late_us: out.late_us,
            sub_changes,
            published: out.published,
            missing,
            duplicate,
            spurious,
            errors: errors + ledger.errors.load(Ordering::Relaxed),
            // Every delivery a broker counted either reached a receiving
            // subscriber (a first receipt, a duplicate or a spurious one),
            // was lost on the way (missing), or went to a decoy or the
            // churn client.
            decoy_deliveries: totals
                .delivered
                .saturating_sub(firsts + duplicate + spurious + missing),
            totals,
            queued_frames_max: queued_max.load(Ordering::Relaxed),
            repeat_share: 0.0,
            spans: out.spans,
        }
    });
    live.repeat_share = generator.repeat_share();
    (
        live,
        Cluster {
            nodes,
            publisher,
            subscribers: Vec::new(),
            decoys,
            churn,
            wal_dirs,
        },
    )
}

/// A receiving subscriber's drain loop. Returns `(seq, latency)` for its
/// open-loop receipts, its spans, and how many first deliveries it saw.
fn drain(
    k: usize,
    client: &mut Client,
    ledger: &Ledger,
    stop: &AtomicBool,
) -> (Vec<(u64, f64)>, Spans, u64) {
    let mut latencies = Vec::new();
    let mut spans = Spans::default();
    let mut firsts = 0u64;
    loop {
        let start_ns = trace::now_ns();
        match client.recv(RECV_QUANTUM) {
            Ok((_, event)) => {
                let at = trace::now_ns();
                let (Some(Value::Int(seq)), Some(Value::Int(due))) =
                    (event.value(SEQ), event.value(DUE))
                else {
                    ledger.spurious.fetch_add(1, Ordering::Relaxed);
                    continue;
                };
                let seq = *seq as u64;
                if let Some(open) = ledger.receive(k, seq) {
                    firsts += 1;
                    if open {
                        latencies.push((seq, at.saturating_sub(*due as u64) as f64 / 1000.0));
                    }
                }
                spans.push(Span {
                    name: "client.recv",
                    start_ns,
                    end_ns: at,
                    id: (seq << 2) | (k as u64 + 1),
                    parent: seq << 2,
                    event: seq,
                });
            }
            Err(ClientError::Timeout) => {
                if stop.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(_) => {
                ledger.errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    (latencies, spans, firsts)
}

/// The publisher's state across rounds.
struct Source<'a> {
    publisher: &'a mut Client,
    generator: &'a mut Generator,
    oracle: &'a mut Oracle,
    ledger: &'a Ledger,
    spans: Spans,
    seq: u64,
}

impl Source<'_> {
    /// Publishes the next event, due at `due_ns`, under the ledger.
    fn publish(&mut self, parent: u64, due_ns: u64, open: bool) {
        let seq = self.seq;
        let (space, event) = self.generator.event(seq, due_ns);
        self.ledger
            .expect(seq, self.oracle.expected(space, &event), open);
        let start_ns = trace::now_ns();
        if self.publisher.publish(&event).is_err() {
            self.ledger.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.spans.push(Span {
            name: "client.publish",
            start_ns,
            end_ns: trace::now_ns(),
            id: seq << 2,
            parent,
            event: seq,
        });
        self.seq += 1;
    }

    /// Closed loop until `end`: between `window / 2` and `window` events
    /// in flight. A full window blocks the publisher on the ledger's
    /// condition variable until half of it has completed, so it wakes
    /// once per half window rather than once per event.
    fn closed_loop(&mut self, window: u64, end: Instant) -> bool {
        let id = trace::next_id();
        let start_ns = trace::now_ns();
        let mut ok = true;
        while Instant::now() < end && (self.seq as usize) < MAX_EVENTS {
            let full = self.seq >= self.ledger.completed() + window;
            if full && !self.ledger.wait_for(self.seq - window / 2, end + SETTLE) {
                ok = false;
                break;
            }
            self.publish(id, trace::now_ns(), false);
        }
        self.phase_span("phase.closed_loop", id, start_ns);
        ok
    }

    /// Open loop: one event every `1/rate` seconds for `len`, stamped with
    /// its due time; a late generator publishes at once and the latency
    /// includes the lag. Returns the sequence range published.
    fn open_loop(&mut self, rate: f64, len: Duration, late_us: &mut Vec<f64>) -> (u64, u64) {
        let id = trace::next_id();
        let first = self.seq;
        let period_ns = (1e9 / rate) as u64;
        let start_ns = trace::now_ns() + 1_000_000;
        let count = (len.as_secs_f64() * rate) as u64;
        for i in 0..count {
            if self.seq as usize >= MAX_EVENTS {
                break;
            }
            let due = start_ns + i * period_ns;
            let now = trace::now_ns();
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            late_us.push(trace::now_ns().saturating_sub(due) as f64 / 1000.0);
            self.publish(id, due, true);
        }
        self.phase_span("phase.open_loop", id, start_ns);
        (first, self.seq)
    }

    /// Waits until every published event has completed.
    fn settle(&self) -> bool {
        self.ledger.wait_for(self.seq, Instant::now() + SETTLE)
    }

    fn phase_span(&mut self, name: &'static str, id: u64, start_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: trace::now_ns(),
            id,
            parent: 0,
            event: 0,
        });
    }
}

#[allow(clippy::too_many_arguments)]
fn publish_rounds(
    publisher: &mut Client,
    mut probe: Option<&mut Client>,
    generator: &mut Generator,
    oracle: &mut Oracle,
    ledger: &Ledger,
    nodes: &[BrokerNode],
    spec: &Spec,
    plan: &Plan,
    seed: u64,
) -> Published {
    let mut src = Source {
        publisher,
        generator,
        oracle,
        ledger,
        spans: Spans::default(),
        seq: 0,
    };
    let mut out = Published {
        windows: Vec::new(),
        open_ranges: Vec::new(),
        late_us: Vec::new(),
        probe: Churn::default(),
        published: 0,
        spans: Spans::default(),
    };
    src.closed_loop(spec.window, Instant::now() + WARMUP);
    for round in 0..plan.rounds {
        let traced = plan.traced && round % 2 == 1;
        trace::ON.store(traced, Ordering::Relaxed);
        let mut before = Mark::take(ledger, nodes);
        let start = before.at;
        let mut ok = true;
        for slice in 1..=plan.slices as u32 {
            let end = start + plan.closed * slice / plan.slices as u32;
            ok = src.closed_loop(spec.window, end);
            let after = Mark::take(ledger, nodes);
            out.windows.push(Window::between(&before, &after, traced));
            before = after;
            if !ok {
                break;
            }
        }
        trace::ON.store(plan.traced, Ordering::Relaxed);
        if !ok || !src.settle() {
            break;
        }
        let range = src.open_loop(spec.open_rate, plan.open, &mut out.late_us);
        out.open_ranges.push(range);
        if !src.settle() {
            break;
        }
        if let Some(client) = probe.as_deref_mut() {
            out.probe
                .run(client, PROBE_RATE, seed, |i| i < PROBE_CHANGES as u64);
        }
    }
    out.published = src.seq;
    out.spans = src.spans;
    out
}

/// Subscription changes at a fixed rate: alternating subscribe and
/// unsubscribe of never-matching decoy chains, each round trip timed.
/// Pacing lets every change's flood settle before the next, so a sample
/// times one change rather than a queue of them.
#[derive(Default)]
struct Churn {
    live: Option<SubscriptionId>,
    step: u64,
    /// `(was a subscribe, microseconds)` per completed change.
    samples: Vec<(bool, f64)>,
    errors: u64,
    spans: Spans,
}

impl Churn {
    /// Issues changes every `1/rate` seconds while `more(changes issued
    /// so far in this call)` holds.
    fn run(
        &mut self,
        client: &mut Client,
        rate: f64,
        seed: u64,
        mut more: impl FnMut(u64) -> bool,
    ) {
        let period = Duration::from_secs_f64(1.0 / rate);
        let start = Instant::now();
        let mut i = 0u64;
        while more(i) {
            let due = start + period * i as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            match self.change(client, seed) {
                Ok(sample) => self.samples.push(sample),
                Err(_) => self.errors += 1,
            }
            i += 1;
        }
    }

    /// One change: subscribe when nothing is live, else unsubscribe what is.
    fn change(&mut self, client: &mut Client, seed: u64) -> Result<(bool, f64), ClientError> {
        let start_ns = trace::now_ns();
        let name = match self.live.take() {
            Some(id) => {
                client.unsubscribe(id)?;
                "client.unsubscribe"
            }
            None => {
                let space = SchemaId::new((self.step / 2 % workload::SPACES as u64) as u32);
                let j = 1 << 40 | (seed & 0xffff) << 20 | self.step;
                self.live = Some(client.subscribe(space, &workload::decoy_chain(j))?);
                "client.subscribe"
            }
        };
        self.step += 1;
        let end_ns = trace::now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            id: trace::next_id(),
            parent: 0,
            event: 0,
        });
        Ok((
            name == "client.subscribe",
            (end_ns - start_ns) as f64 / 1000.0,
        ))
    }
}

/// The churn thread: changes at `rate` until `stop`.
fn churn_loop(client: &mut Client, rate: f64, seed: u64, stop: &AtomicBool) -> Churn {
    let mut churn = Churn::default();
    churn.run(client, rate, seed, |_| !stop.load(Ordering::Acquire));
    if let Some(id) = churn.live.take() {
        let _ = client.unsubscribe(id);
    }
    churn
}
