//! Property test for the broker dataflow: over random subscription/event
//! workloads on a three-broker chain, the TCP prototype must deliver
//! exactly the flooding baseline's post-filter set — every matching
//! subscriber sees every event exactly once (one Deliver frame per client
//! link) — and must emit exactly as many broker-to-broker Forward frames
//! as the in-process protocol oracle ([`ContentRouter`]) predicts (one
//! frame per matched spanning-tree link). Both the inline matching path
//! (`match_shards = 1`, the seed behavior) and the sharded worker path
//! (`match_shards = 4`) are exercised.

use std::sync::Arc;
use std::time::{Duration, Instant};

use linkcast::{ContentRouter, EventRouter, FloodingRouter, NetworkBuilder, RoutingFabric};
use linkcast_broker::{BrokerConfig, BrokerNode, Client};
use linkcast_matching::PstOptions;
use linkcast_types::{
    parse_predicate, ClientId, Event, EventSchema, SchemaId, SchemaRegistry, Value, ValueKind,
};
use proptest::prelude::*;

const ISSUES: [&str; 3] = ["AAA", "BBB", "CCC"];
/// Two subscriber clients per broker on the A - B - C chain.
const SUBSCRIBERS: usize = 6;

#[derive(Debug, Clone)]
struct Workload {
    /// `(subscriber index, expression)` pairs, registered before any event.
    subs: Vec<(usize, String)>,
    /// `(issue index, volume)` pairs published in order from broker A.
    events: Vec<(usize, i64)>,
}

fn expr_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..8).prop_map(|k| format!("volume >= {k}")),
        (0i64..8).prop_map(|k| format!("volume = {k}")),
        (1i64..8).prop_map(|k| format!("volume < {k}")),
        (0usize..3).prop_map(|i| format!("issue = \"{}\"", ISSUES[i])),
        ((0usize..3), (0i64..8))
            .prop_map(|(i, k)| format!("issue = \"{}\" & volume > {k}", ISSUES[i])),
    ]
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (
        proptest::collection::vec(((0usize..SUBSCRIBERS), expr_strategy()), 1..8),
        proptest::collection::vec(((0usize..3), 0i64..8), 1..10),
    )
        .prop_map(|(subs, events)| Workload { subs, events })
}

fn schema() -> EventSchema {
    EventSchema::builder("trades")
        .attribute("issue", ValueKind::Str)
        .attribute("volume", ValueKind::Int)
        // Unique per published event and never tested by a predicate:
        // identifies deliveries so exactly-once can be asserted.
        .attribute("seq", ValueKind::Int)
        .build()
        .unwrap()
}

fn run_workload(workload: &Workload, match_shards: usize) {
    let schema = schema();
    let mut r = SchemaRegistry::new();
    r.register(schema.clone()).unwrap();
    let registry = Arc::new(r);
    let trades = SchemaId::new(0);

    let mut net = NetworkBuilder::new();
    let a = net.add_broker();
    let b = net.add_broker();
    let c = net.add_broker();
    net.connect(a, b, 5.0).unwrap();
    net.connect(b, c, 5.0).unwrap();
    let publisher_id = net.add_client(a).unwrap();
    let subscriber_ids: Vec<ClientId> = [a, a, b, b, c, c]
        .iter()
        .map(|&broker| net.add_client(broker).unwrap())
        .collect();
    let fabric = RoutingFabric::new_all_roots(net.build().unwrap()).unwrap();

    // Oracles: the flooding baseline defines the correct delivered set
    // (clients filter for themselves, so recipients are exact); the
    // in-process protocol router predicts the Forward frame count.
    let mut flood =
        FloodingRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
    let mut content =
        ContentRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
    for (idx, expr) in &workload.subs {
        let predicate = parse_predicate(&schema, expr).unwrap();
        flood
            .subscribe(subscriber_ids[*idx], predicate.clone())
            .unwrap();
        content.subscribe(subscriber_ids[*idx], predicate).unwrap();
    }

    let events: Vec<Event> = workload
        .events
        .iter()
        .enumerate()
        .map(|(seq, (issue, volume))| {
            Event::from_values(
                &schema,
                [
                    Value::str(ISSUES[*issue]),
                    Value::Int(*volume),
                    Value::Int(seq as i64),
                ],
            )
            .unwrap()
        })
        .collect();
    let mut expected_forwards = 0u64;
    let mut expected_delivered = 0u64;
    // expected_seqs[i] = the events subscriber i must receive, in order.
    let mut expected_seqs: Vec<Vec<i64>> = vec![Vec::new(); SUBSCRIBERS];
    for (seq, event) in events.iter().enumerate() {
        let delivery = flood.publish(a, event).unwrap();
        expected_forwards += content.publish(a, event).unwrap().broker_messages;
        for recipient in &delivery.recipients {
            let idx = subscriber_ids.iter().position(|c| c == recipient).unwrap();
            expected_seqs[idx].push(seq as i64);
            expected_delivered += 1;
        }
    }

    let node_for = |broker, fabric: &Arc<RoutingFabric>| {
        let mut config = BrokerConfig::localhost(broker, fabric.clone(), Arc::clone(&registry));
        config.match_shards = match_shards;
        BrokerNode::start(config).unwrap()
    };
    let node_a = node_for(a, &fabric);
    let node_b = node_for(b, &fabric);
    let node_c = node_for(c, &fabric);
    node_a.connect_to_persistent(b, node_b.addr());
    node_b.connect_to_persistent(c, node_c.addr());
    let nodes = [&node_a, &node_b, &node_c];
    let addrs = [
        node_a.addr(),
        node_a.addr(),
        node_b.addr(),
        node_b.addr(),
        node_c.addr(),
        node_c.addr(),
    ];

    let mut subscribers: Vec<Client> = subscriber_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| Client::connect(addrs[i], id, 0, Arc::clone(&registry)).unwrap())
        .collect();
    for (idx, expr) in &workload.subs {
        subscribers[*idx].subscribe(trades, expr).unwrap();
    }
    // All subscriptions must have flooded everywhere before the first
    // publish: the sharded path does not order matching against
    // subscription changes, so the workload keeps the set static.
    let deadline = Instant::now() + Duration::from_secs(10);
    for node in nodes {
        while node.stats().subscriptions < workload.subs.len() as u64 {
            assert!(Instant::now() < deadline, "subscription flood stalled");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    let mut publisher =
        Client::connect(node_a.addr(), publisher_id, 0, Arc::clone(&registry)).unwrap();
    for event in &events {
        publisher.publish(event).unwrap();
    }

    // Exactly-once per client link: each subscriber receives precisely its
    // expected events (identified by seq), in publish order, and nothing
    // more afterward.
    for (idx, subscriber) in subscribers.iter_mut().enumerate() {
        let mut got = Vec::new();
        while got.len() < expected_seqs[idx].len() {
            let (_, event) = subscriber
                .recv(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("subscriber {idx} missing deliveries: {e}"));
            got.push(event.value_by_name("seq").unwrap().as_int().unwrap());
        }
        assert_eq!(got, expected_seqs[idx], "subscriber {idx} delivered set");
        assert!(
            subscriber.recv(Duration::from_millis(150)).is_err(),
            "subscriber {idx} got an extra delivery"
        );
    }

    // Exactly one Forward frame per matched tree link: the cluster's
    // forwarded counters converge to the oracle's frame count and stay
    // there (an event matching nobody may still be in flight when the last
    // delivery lands, hence the short poll).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let forwarded: u64 = nodes.iter().map(|n| n.stats().forwarded).sum();
        if forwarded == expected_forwards || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50));
    let forwarded: u64 = nodes.iter().map(|n| n.stats().forwarded).sum();
    assert_eq!(forwarded, expected_forwards, "Forward frames per link");
    let delivered: u64 = nodes.iter().map(|n| n.stats().delivered).sum();
    assert_eq!(delivered, expected_delivered, "Deliver frames per link");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The seed path: inline matching on the engine thread.
    #[test]
    fn inline_path_matches_flooding_baseline(workload in workload_strategy()) {
        run_workload(&workload, 1);
    }

    /// The pipelined path: four matching shards.
    #[test]
    fn sharded_path_matches_flooding_baseline(workload in workload_strategy()) {
        run_workload(&workload, 4);
    }
}
