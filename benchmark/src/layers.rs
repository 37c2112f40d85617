//! Single-layer replays on the workload's own table and events: the
//! arena walk, engine routing, incremental arena mutation, the event
//! codec, frame decoding, and WAL/snapshot storage. Every timed batch is a
//! span under one root span per layer; each result is the median batch.

use std::path::Path;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use linkcast::{LinkMatchEngine, LinkSpace, MatchCache, RouteScratch, RoutingFabric};
use linkcast_broker::{BrokerToBroker, BrokerToClient, FsStorage, MatchingEngine, Storage};
use linkcast_matching::{MatchStats, PstOptions};
use linkcast_types::{
    parse_predicate, wire, BrokerId, Event, SchemaId, SchemaRegistry, SubscriberId, Subscription,
    SubscriptionId,
};

use crate::trace::{self, Span, Spans};
use crate::workload::{self, SPACES};

/// Repetitions of each replay batch.
const ROUNDS: usize = 7;
/// Subscribe/unsubscribe pairs in the mutation replay.
const MUTATIONS: usize = 100;
/// `append` + `sync` calls in the WAL replay.
const SYNCS: usize = 60;
/// Snapshot writes in the snapshot replay.
const SNAPSHOTS: usize = 8;

pub struct Layers {
    pub match_ns: f64,
    pub route_ns: f64,
    pub subscribe_us: f64,
    pub unsubscribe_us: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub event_bytes: f64,
    pub frame_decode_ns: f64,
    pub append_sync_us: f64,
    pub snapshot_write_ms: f64,
}

pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of the `name` spans' durations divided by `per`, in `unit_ns`.
fn per_call(spans: &Spans, name: &str, per: usize, unit_ns: f64) -> f64 {
    median(spans.durations(name)) / per.max(1) as f64 / unit_ns
}

#[allow(clippy::too_many_arguments)]
pub fn replay(
    registry: &Arc<SchemaRegistry>,
    fabric: &Arc<RoutingFabric>,
    brokers: &[BrokerId],
    subs: &[(SchemaId, Subscription)],
    events: &[(usize, Event)],
    work: &Path,
    spans: &mut Spans,
) -> std::io::Result<Layers> {
    let tree = fabric.tree_for(brokers[0]).expect("publisher tree");
    let root = trace::next_id();
    let replay_start = trace::now_ns();
    let n = events.len();

    // core: the arena walk at every chain position.
    let mut mutation_engine = None;
    for &broker in brokers {
        let mut engines: Vec<LinkMatchEngine> = (0..SPACES)
            .map(|s| {
                let schema = registry
                    .get(SchemaId::new(s as u32))
                    .expect("space")
                    .clone();
                let space = LinkSpace::build(fabric.network(), fabric.forest(), broker);
                LinkMatchEngine::new(broker, schema, PstOptions::default(), space).expect("engine")
            })
            .collect();
        for (schema, sub) in subs {
            engines[schema.index()]
                .subscribe(sub.clone())
                .expect("subscribe");
        }
        let (mut scratch, mut stats, mut out) =
            (RouteScratch::new(), MatchStats::new(), Vec::new());
        for _ in 0..ROUNDS {
            spans.time("replay.core.match_links_into", root, || {
                for (space, event) in events {
                    engines[*space].match_links_into(
                        event,
                        tree,
                        &mut scratch,
                        &mut stats,
                        &mut out,
                    );
                }
            });
        }
        if mutation_engine.is_none() {
            mutation_engine = Some(engines.swap_remove(0));
        }
    }
    let match_ns = per_call(spans, "replay.core.match_links_into", n, 1.0);

    // broker engine: `route_cached` at defaults (one matching thread, the
    // result cache disabled) at every chain position.
    for &broker in brokers {
        let mut engine =
            MatchingEngine::new(broker, fabric, Arc::clone(registry), PstOptions::default())
                .expect("matching engine");
        for (schema, sub) in subs {
            engine.subscribe(*schema, sub.clone()).expect("subscribe");
        }
        let mut cache = MatchCache::new(0);
        let (mut scratch, mut stats, mut out) =
            (RouteScratch::new(), MatchStats::new(), Vec::new());
        for _ in 0..ROUNDS {
            spans.time("replay.broker.route_cached", root, || {
                for (_, event) in events {
                    engine.route_cached(
                        event,
                        tree,
                        1,
                        &mut cache,
                        &mut scratch,
                        &mut stats,
                        &mut out,
                    );
                }
            });
        }
    }
    let route_ns = per_call(spans, "replay.broker.route_cached", n, 1.0);

    // core: incremental arena mutation on the full table (space 0 at A).
    let mut engine = mutation_engine.expect("at least one broker");
    let schema = registry.get(SchemaId::new(0)).expect("space");
    let subscriber = SubscriberId::new(brokers[1], linkcast_types::ClientId::new(u32::MAX));
    for i in 0..MUTATIONS {
        let id = SubscriptionId::new(u32::MAX - i as u32);
        let predicate = parse_predicate(schema, &workload::decoy_chain((1 << 39) + i as u64))
            .expect("decoy parses");
        let sub = Subscription::new(id, subscriber, predicate);
        spans.time("replay.core.subscribe", root, || {
            engine.subscribe(sub).expect("subscribe")
        });
        spans.time("replay.core.unsubscribe", root, || engine.unsubscribe(id));
    }
    let subscribe_us = per_call(spans, "replay.core.subscribe", 1, 1e3);
    let unsubscribe_us = per_call(spans, "replay.core.unsubscribe", 1, 1e3);

    // types.wire: the event codec.
    let encoded: Vec<Bytes> = events
        .iter()
        .map(|(_, e)| {
            let mut b = BytesMut::new();
            wire::put_event(&mut b, e);
            b.freeze()
        })
        .collect();
    let event_bytes = encoded.iter().map(Bytes::len).sum::<usize>() as f64 / n.max(1) as f64;
    for _ in 0..ROUNDS {
        spans.time("replay.types.put_event", root, || {
            let mut b = BytesMut::with_capacity(4096);
            for (_, e) in events {
                b.clear();
                wire::put_event(&mut b, e);
            }
        });
        spans.time("replay.types.get_event", root, || {
            for body in &encoded {
                let mut buf = body.clone();
                wire::get_event(&mut buf, registry).expect("decodes");
            }
        });
    }
    let encode_ns = per_call(spans, "replay.types.put_event", n, 1.0);
    let decode_ns = per_call(spans, "replay.types.get_event", n, 1.0);

    // broker.protocol: decoding the frames an event travels in (a broker
    // `Forward` and a client `Deliver`), length prefix stripped.
    let payloads: Vec<(Bytes, Bytes)> = events
        .iter()
        .enumerate()
        .map(|(i, (_, e))| {
            let fwd = BrokerToBroker::Forward {
                tree,
                seq: i as u64 + 1,
                epoch: 0,
                event: e.clone(),
            }
            .encode()
            .slice(4..);
            let dlv = BrokerToClient::Deliver {
                seq: i as u64 + 1,
                event: e.clone(),
            }
            .encode()
            .slice(4..);
            (fwd, dlv)
        })
        .collect();
    for _ in 0..ROUNDS {
        spans.time("replay.broker.frame_decode", root, || {
            for (fwd, dlv) in &payloads {
                BrokerToBroker::decode(fwd.clone(), registry).expect("forward decodes");
                BrokerToClient::decode(dlv.clone(), registry).expect("deliver decodes");
            }
        });
    }
    let frame_decode_ns = per_call(spans, "replay.broker.frame_decode", 2 * n, 1.0);

    // broker.storage: one WAL record of the workload's size appended and
    // synced, and a snapshot of the workload's table.
    let dir = work.join("replay_storage");
    let _ = std::fs::remove_dir_all(&dir);
    let storage = FsStorage::open(&dir)?;
    let record = vec![0x5au8; payloads.first().map_or(64, |(f, _)| f.len() + 16)];
    for _ in 0..SYNCS {
        spans.time("replay.storage.append_sync", root, || {
            storage.append("bench", &record)?;
            storage.sync("bench")
        })?;
    }
    let snapshot_len: usize = 64
        + subs
            .iter()
            .map(|(_, sub)| {
                let mut b = BytesMut::new();
                wire::put_subscription(&mut b, sub);
                4 + b.len()
            })
            .sum::<usize>();
    let snapshot = vec![0xa5u8; snapshot_len];
    for _ in 0..SNAPSHOTS {
        spans.time("replay.storage.write_snapshot", root, || {
            storage.write_snapshot("bench", &snapshot)
        })?;
    }
    drop(storage);
    let _ = std::fs::remove_dir_all(&dir);
    let append_sync_us = per_call(spans, "replay.storage.append_sync", 1, 1e3);
    let snapshot_write_ms = per_call(spans, "replay.storage.write_snapshot", 1, 1e6);

    spans.push(Span {
        name: "replay",
        start_ns: replay_start,
        end_ns: trace::now_ns(),
        id: root,
        parent: 0,
        event: 0,
    });
    Ok(Layers {
        match_ns,
        route_ns,
        subscribe_us,
        unsubscribe_us,
        encode_ns,
        decode_ns,
        event_bytes,
        frame_decode_ns,
        append_sync_us,
        snapshot_write_ms,
    })
}
