//! Workload definitions: the schema, the subscription table, the seeded
//! event generator and the delivery oracle.
//!
//! Every workload runs on the same topology — a three-broker chain with one
//! receiving subscriber per broker on every information space — and differs
//! in its decoy table, its event content and whether the brokers keep a WAL.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use linkcast_matching::{Matcher, NaiveMatcher};
use linkcast_types::{
    parse_predicate, AttrTest, BrokerId, ClientId, Event, EventSchema, SchemaId, SchemaRegistry,
    SubscriberId, Subscription, SubscriptionId, Value, ValueKind,
};
use linkcast_workload::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Information spaces (one schema each).
pub const SPACES: usize = 4;
/// Brokers in the chain A - B - C.
pub const BROKERS: usize = 3;

/// Attribute positions in every space's schema. `volume` and `a1..a6` are
/// the tested content; `seq`, `due` and `payload` are never tested by any
/// subscription, so they change neither matching work nor repetition.
pub const VOLUME: usize = 0;
pub const SEQ: usize = 7;
pub const DUE: usize = 8;

/// How event volumes are drawn.
#[derive(Clone, Copy)]
pub enum Volumes {
    /// Zipf-skewed ranks over a small domain: content recurs.
    Zipf { domain: u64 },
    /// A seeded bijection of the sequence id over `0..2^30`: every event's
    /// tested content is distinct.
    Distinct,
}

/// One named workload.
#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Deep-chain decoy subscriptions per space.
    pub decoys_per_space: usize,
    /// Dedicated clients the decoys are spread over (distinct subscribers
    /// keep annotation pruning from collapsing the chains).
    pub decoy_clients: usize,
    pub volumes: Volumes,
    /// Untested payload length in bytes.
    pub payload_bytes: usize,
    /// An `FsStorage` WAL on every broker.
    pub durable: bool,
    /// Subscription changes per second issued by the churn thread during
    /// both phases (0 = no churn thread).
    pub churn_per_sec: f64,
    /// Offered rate of the open-loop phase, events per second.
    pub open_rate: f64,
    /// In-flight window of the closed-loop phase, events.
    pub window: u64,
}

pub const WORKLOADS: [Spec; 3] = [
    // 256 chains per space rather than the paper-scale 1024: at 1024 the
    // brokers hold ~380 MiB and the walk is bound by a last-level cache
    // shared with the rest of the machine, so its cost swung by a third
    // between runs minutes apart; at 256 (~41 MiB) the walk still
    // dominates the per-event cost. 256 in flight keeps both cores busy
    // (at 32 their use dipped from 0.9 to 0.8 while the host was busy).
    Spec {
        name: "match_heavy",
        decoys_per_space: 256,
        decoy_clients: 96,
        volumes: Volumes::Zipf { domain: 64 },
        payload_bytes: 16,
        durable: false,
        churn_per_sec: 0.0,
        open_rate: 1000.0,
        window: 256,
    },
    // A deep window keeps every stage of the chain busy: at 64 in flight
    // the cheap events drained the queues, the threads slept between
    // bursts and throughput (under half that at 4096) followed how fast
    // the host woke them.
    Spec {
        name: "fanout_light",
        decoys_per_space: 0,
        decoy_clients: 0,
        volumes: Volumes::Distinct,
        payload_bytes: 0,
        durable: false,
        churn_per_sec: 0.0,
        open_rate: 2000.0,
        window: 4096,
    },
    Spec {
        name: "durable_churn",
        decoys_per_space: 32,
        decoy_clients: 12,
        volumes: Volumes::Distinct,
        payload_bytes: 1024,
        durable: true,
        churn_per_sec: 40.0,
        open_rate: 200.0,
        window: 32,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

pub fn registry() -> Arc<SchemaRegistry> {
    let mut r = SchemaRegistry::new();
    for i in 0..SPACES {
        let mut b = EventSchema::builder(format!("space{i}")).attribute("volume", ValueKind::Int);
        for k in 1..=6 {
            b = b.attribute(format!("a{k}").as_str(), ValueKind::Int);
        }
        let schema = b
            .attribute("seq", ValueKind::Int)
            .attribute("due", ValueKind::Int)
            .attribute("payload", ValueKind::Str)
            .build()
            .expect("benchmark schema is valid");
        r.register(schema).expect("distinct schema names");
    }
    Arc::new(r)
}

/// The client ids of the topology, assigned by `NetworkBuilder`.
pub struct Roles {
    pub publisher: ClientId,
    /// One receiving subscriber per broker, indexed by broker position.
    pub subscribers: Vec<ClientId>,
    /// `(broker position, client)` per decoy client.
    pub decoys: Vec<(usize, ClientId)>,
    /// The churn client (homed on the middle broker).
    pub churn: ClientId,
}

/// One subscription the benchmark issues: who, where and what.
pub struct Entry {
    pub broker: usize,
    pub client: ClientId,
    pub space: usize,
    pub expression: String,
    /// `Some(k)` for receiving subscriber `k`, `None` for a decoy.
    pub receiver: Option<usize>,
}

/// The receiving subscriber on broker `b`: broker A's takes every event,
/// B's and C's take overlapping volume ranges, so the expected subscriber
/// set varies per event.
fn receiver_expression(b: usize, domain: u64) -> String {
    match b {
        0 => "volume >= 0".to_string(),
        1 => format!("volume < {}", domain * 5 / 8),
        _ => format!("volume >= {}", (domain * 3 / 10).max(2)),
    }
}

/// The `j`-th deep-chain decoy: six satisfied range tests with distinct
/// constants (so factoring cannot merge the chains) and a final test no
/// generated event satisfies, so the walk descends the whole chain and the
/// decoy never receives anything.
pub fn decoy_chain(j: u64) -> String {
    let mut p = format!("volume >= -{j} & ");
    for k in 1..=5u64 {
        p.push_str(&format!("a{k} >= -{} & ", 7 * j + k));
    }
    p.push_str(&format!("a6 >= {}", 100_000 + j));
    p
}

fn volume_domain(spec: &Spec) -> u64 {
    match spec.volumes {
        Volumes::Zipf { domain } => domain,
        Volumes::Distinct => 1 << 30,
    }
}

/// The subscription table of a workload: receivers first, then decoys.
/// `decoy_base` offsets the decoy constants by seed.
pub fn table(spec: &Spec, roles: &Roles, decoy_base: u64) -> Vec<Entry> {
    let domain = volume_domain(spec);
    let mut out = Vec::new();
    for (b, &client) in roles.subscribers.iter().enumerate() {
        for space in 0..SPACES {
            out.push(Entry {
                broker: b,
                client,
                space,
                expression: receiver_expression(b, domain),
                receiver: Some(b),
            });
        }
    }
    for space in 0..SPACES {
        for j in 0..spec.decoys_per_space {
            let (broker, client) = roles.decoys[j % roles.decoys.len()];
            let global = (space * spec.decoys_per_space + j) as u64;
            out.push(Entry {
                broker,
                client,
                space,
                expression: decoy_chain(decoy_base + global),
                receiver: None,
            });
        }
    }
    out
}

/// Parsed subscriptions, as every broker holds them after the flood.
pub fn subscriptions(
    registry: &SchemaRegistry,
    brokers: &[BrokerId],
    entries: &[Entry],
) -> Vec<(SchemaId, Subscription)> {
    entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let schema = SchemaId::new(e.space as u32);
            let predicate =
                parse_predicate(registry.get(schema).expect("registered"), &e.expression)
                    .expect("benchmark predicates parse");
            let id = SubscriptionId::new(i as u32 + 1);
            let subscriber = SubscriberId::new(brokers[e.broker], e.client);
            (schema, Subscription::new(id, subscriber, predicate))
        })
        .collect()
}

/// The delivery oracle: a linear-scan matcher per space over the whole
/// table, mapping each event to the bitmask of receiving subscribers that
/// must get it.
pub struct Oracle {
    matchers: Vec<NaiveMatcher>,
    receiver_of: HashMap<SubscriptionId, Option<usize>>,
    /// Memo keyed by the event's tested attribute values (every predicate
    /// leaves `seq`, `due` and `payload` untested, checked at build).
    memo: HashMap<(usize, Vec<i64>), u8>,
}

impl Oracle {
    pub fn new(
        registry: &SchemaRegistry,
        entries: &[Entry],
        subs: &[(SchemaId, Subscription)],
    ) -> Oracle {
        let mut matchers: Vec<NaiveMatcher> = (0..SPACES)
            .map(|s| NaiveMatcher::new(registry.get(SchemaId::new(s as u32)).unwrap().clone()))
            .collect();
        let mut receiver_of = HashMap::new();
        for ((schema, sub), entry) in subs.iter().zip(entries) {
            for untested in [SEQ, DUE, SEQ + 2] {
                assert!(
                    matches!(sub.predicate().tests()[untested], AttrTest::Any),
                    "a subscription tests an untested attribute"
                );
            }
            receiver_of.insert(sub.id(), entry.receiver);
            matchers[schema.index()]
                .insert(sub.clone())
                .expect("oracle insert");
        }
        Oracle {
            matchers,
            receiver_of,
            memo: HashMap::new(),
        }
    }

    /// Expected receivers of `event` as a bitmask over broker positions.
    ///
    /// # Panics
    ///
    /// If a decoy matches: the workload would no longer be what it claims.
    pub fn expected(&mut self, space: usize, event: &Event) -> u8 {
        let key: Vec<i64> = (VOLUME..SEQ)
            .map(|i| match event.value(i) {
                Some(Value::Int(v)) => *v,
                _ => i64::MIN,
            })
            .collect();
        if let Some(mask) = self.memo.get(&(space, key.clone())) {
            return *mask;
        }
        let mut mask = 0u8;
        for id in self.matchers[space].matches(event) {
            match self.receiver_of[&id] {
                Some(k) => mask |= 1 << k,
                None => panic!("decoy subscription {id} matches a generated event"),
            }
        }
        if self.memo.len() < 4096 {
            self.memo.insert((space, key), mask);
        }
        mask
    }
}

/// The seeded event generator.
pub struct Generator {
    /// Zipf-ranked volumes; `None` draws distinct ones.
    zipf: Option<Zipf>,
    rng: StdRng,
    mask: i64,
    attrs: [i64; 6],
    payloads: Vec<Value>,
    payload_zipf: Zipf,
    seen: HashSet<(usize, i64)>,
    generated: u64,
    repeats: u64,
    registry: Arc<SchemaRegistry>,
}

impl Generator {
    pub fn new(spec: &Spec, seed: u64, registry: Arc<SchemaRegistry>) -> Generator {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6c69_6e6b_6361_7374);
        let mask = rng.random_range(0..(1i64 << 30));
        let mut attrs = [0i64; 6];
        for a in &mut attrs {
            *a = rng.random_range(0..1000);
        }
        // A pool of payloads drawn by Zipf rank: bodies recur like real
        // messages, but the payload is never tested, so repetition in it
        // is invisible to matching.
        let payloads = (0..64)
            .map(|_| {
                let s: String = (0..spec.payload_bytes)
                    .map(|_| char::from(b'a' + rng.random_range(0..26u8)))
                    .collect();
                Value::str(s.as_str())
            })
            .collect();
        Generator {
            zipf: match spec.volumes {
                Volumes::Zipf { domain } => Some(Zipf::new(domain as usize, 1.0)),
                Volumes::Distinct => None,
            },
            rng,
            mask,
            attrs,
            payloads,
            payload_zipf: Zipf::new(64, 1.0),
            seen: HashSet::new(),
            generated: 0,
            repeats: 0,
            registry,
        }
    }

    /// The event with sequence id `seq`, due at `due_ns`, and its space.
    pub fn event(&mut self, seq: u64, due_ns: u64) -> (usize, Event) {
        let space = (seq % SPACES as u64) as usize;
        self.generated += 1;
        let volume = match &self.zipf {
            Some(z) => {
                let v = z.sample(&mut self.rng) as i64;
                if !self.seen.insert((space, v)) {
                    self.repeats += 1;
                }
                v
            }
            // Multiplying by an odd constant and masking by a constant
            // are bijections modulo 2^30, so no volume ever repeats.
            None => ((seq as i64).wrapping_mul(0x9E37_79B1) ^ self.mask) & ((1 << 30) - 1),
        };
        let payload = self.payloads[self.payload_zipf.sample(&mut self.rng)].clone();
        let schema = self
            .registry
            .get(SchemaId::new(space as u32))
            .expect("registered space");
        let mut values = Vec::with_capacity(10);
        values.push(Value::Int(volume));
        values.extend(self.attrs.iter().map(|&a| Value::Int(a)));
        values.push(Value::Int(seq as i64));
        values.push(Value::Int(due_ns as i64));
        values.push(payload);
        (
            space,
            Event::from_values(schema, values).expect("generated event fits its schema"),
        )
    }

    /// Share of generated events whose tested content appeared before —
    /// the share a result cache could serve.
    pub fn repeat_share(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.repeats as f64 / self.generated as f64
        }
    }
}
