//! In-crate tests for the link-matching engine and routers.

use linkcast_matching::{MatchStats, OrderPolicy, PstOptions};
use linkcast_types::{
    AttrTest, BrokerId, ClientId, Event, EventSchema, Predicate, Trit, Value, ValueKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{
    ContentRouter, EventRouter, FloodingRouter, LinkMatchEngine, LinkSpace, MatchFirstRouter,
    NetworkBuilder, RoutingFabric,
};

/// Three integer attributes with domain 0..3.
fn small_schema() -> EventSchema {
    let mut b = EventSchema::builder("small");
    for name in ["x", "y", "z"] {
        b = b.attribute_with_domain(name, ValueKind::Int, (0..3).map(Value::Int));
    }
    b.build().unwrap()
}

fn int_event(schema: &EventSchema, values: &[i64]) -> Event {
    Event::from_values(schema, values.iter().map(|v| Value::Int(*v))).unwrap()
}

fn int_predicate(schema: &EventSchema, tests: &[Option<i64>]) -> Predicate {
    Predicate::from_tests(
        schema,
        tests.iter().map(|t| match t {
            Some(v) => AttrTest::Eq(Value::Int(*v)),
            None => AttrTest::Any,
        }),
    )
    .unwrap()
}

/// B0 - B1 - B2 line with one client per broker; publishers at B0.
fn line_fabric() -> (std::sync::Arc<RoutingFabric>, Vec<BrokerId>, Vec<ClientId>) {
    let mut b = NetworkBuilder::new();
    let brokers = b.add_brokers(3);
    b.connect(brokers[0], brokers[1], 10.0).unwrap();
    b.connect(brokers[1], brokers[2], 10.0).unwrap();
    let clients = brokers
        .iter()
        .map(|&id| b.add_client(id).unwrap())
        .collect();
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    (fabric, brokers, clients)
}

#[test]
fn engine_routes_by_subscription_location() {
    let (fabric, brokers, clients) = line_fabric();
    let schema = small_schema();
    let mut router =
        ContentRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
    // c2 (at B2) wants x=1; c0 (at B0) wants x=2; c1 (at B1) wants anything.
    router
        .subscribe(clients[2], int_predicate(&schema, &[Some(1), None, None]))
        .unwrap();
    router
        .subscribe(clients[0], int_predicate(&schema, &[Some(2), None, None]))
        .unwrap();
    router
        .subscribe(clients[1], int_predicate(&schema, &[None, None, None]))
        .unwrap();

    let d = router
        .publish(brokers[0], &int_event(&schema, &[1, 0, 0]))
        .unwrap();
    assert_eq!(d.recipients, vec![clients[1], clients[2]]);
    // B0→B1 and B1→B2: exactly two broker messages, one per link.
    assert_eq!(d.broker_messages, 2);
    assert_eq!(d.client_messages, 2);
    assert_eq!(d.max_hops, 2);

    let d = router
        .publish(brokers[0], &int_event(&schema, &[2, 0, 0]))
        .unwrap();
    assert_eq!(d.recipients, vec![clients[0], clients[1]]);
    // x=2 interests only B0's and B1's clients: the B1→B2 link stays idle.
    assert_eq!(d.broker_messages, 1);
}

#[test]
fn engine_annotations_distinguish_links() {
    let (fabric, brokers, clients) = line_fabric();
    let schema = small_schema();
    let space = LinkSpace::build(fabric.network(), fabric.forest(), brokers[0]);
    assert_eq!(space.class_count(), 1);
    let mut engine =
        LinkMatchEngine::new(brokers[0], schema.clone(), PstOptions::default(), space).unwrap();
    let sub = |id: u32, client: ClientId, tests: &[Option<i64>]| {
        let home = fabric.network().home_broker(client).unwrap();
        linkcast_types::Subscription::new(
            linkcast_types::SubscriptionId::new(id),
            linkcast_types::SubscriberId::new(home, client),
            int_predicate(&schema, tests),
        )
    };
    engine
        .subscribe(sub(0, clients[2], &[Some(1), None, None]))
        .unwrap();
    engine
        .subscribe(sub(1, clients[0], &[Some(1), None, None]))
        .unwrap();

    // B0's links: [broker B1, client c0]. The root annotation must be
    // Maybe/Maybe: whether either link gets the event depends on x.
    let (_, root) = engine.pst().roots().next().unwrap();
    let ann = engine.annotation(root).unwrap();
    assert_eq!(ann.get(0), Trit::Maybe);
    assert_eq!(ann.get(1), Trit::Maybe);

    // After the x=1 test the annotation (of the x=1 child) is Yes/Yes.
    let child = engine.pst().node(root).eq_child(&Value::Int(1)).unwrap();
    let ann = engine.annotation(child).unwrap();
    assert_eq!(ann.get(0), Trit::Yes);
    assert_eq!(ann.get(1), Trit::Yes);
}

#[test]
fn exhaustive_value_branches_stay_yes() {
    // Subscriptions cover the whole domain of x for the same remote client:
    // the root annotation must be a hard Yes on the remote link (no Maybe
    // degradation), thanks to the finite-domain exhaustiveness rule.
    let (fabric, brokers, clients) = line_fabric();
    let schema = small_schema();
    let space = LinkSpace::build(fabric.network(), fabric.forest(), brokers[0]);
    let mut engine =
        LinkMatchEngine::new(brokers[0], schema.clone(), PstOptions::default(), space).unwrap();
    for v in 0..3 {
        let home = fabric.network().home_broker(clients[2]).unwrap();
        engine
            .subscribe(linkcast_types::Subscription::new(
                linkcast_types::SubscriptionId::new(v as u32),
                linkcast_types::SubscriberId::new(home, clients[2]),
                int_predicate(&schema, &[Some(v), None, None]),
            ))
            .unwrap();
    }
    let (_, root) = engine.pst().roots().next().unwrap();
    let ann = engine.annotation(root).unwrap();
    let b1_link = fabric
        .network()
        .link_to_broker(brokers[0], brokers[1])
        .unwrap();
    assert_eq!(ann.get(b1_link.index()), Trit::Yes);

    // A single matching step should suffice: the mask fully refines at the
    // root.
    let mut stats = MatchStats::new();
    let tree = fabric.tree_for(brokers[0]).unwrap();
    let links = engine.match_links(&int_event(&schema, &[0, 0, 0]), tree, &mut stats);
    assert_eq!(links, vec![b1_link]);
    assert_eq!(stats.steps, 1, "fully refined at the root");
}

#[test]
fn unsubscribe_reannotates() {
    let (fabric, brokers, clients) = line_fabric();
    let schema = small_schema();
    let mut router =
        ContentRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
    let id = router
        .subscribe(clients[2], int_predicate(&schema, &[Some(1), None, None]))
        .unwrap();
    let event = int_event(&schema, &[1, 0, 0]);
    assert_eq!(
        router.publish(brokers[0], &event).unwrap().recipients,
        vec![clients[2]]
    );
    assert!(router.unsubscribe(id));
    assert!(!router.unsubscribe(id));
    let d = router.publish(brokers[0], &event).unwrap();
    assert!(d.recipients.is_empty());
    assert_eq!(d.broker_messages, 0, "no traffic for no subscribers");
}

#[test]
fn publishers_at_any_broker() {
    let (fabric, brokers, clients) = line_fabric();
    let schema = small_schema();
    let mut router =
        ContentRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
    router
        .subscribe(clients[0], int_predicate(&schema, &[Some(1), None, None]))
        .unwrap();
    // Publishing from B2 must reach the subscriber at B0 across two hops.
    let d = router
        .publish(brokers[2], &int_event(&schema, &[1, 2, 2]))
        .unwrap();
    assert_eq!(d.recipients, vec![clients[0]]);
    assert_eq!(d.max_hops, 2);
}

/// Builds a random tree-shaped broker network with 2 clients per broker.
fn random_tree_network(
    rng: &mut StdRng,
    brokers: usize,
) -> (std::sync::Arc<RoutingFabric>, Vec<ClientId>) {
    let mut b = NetworkBuilder::new();
    let ids = b.add_brokers(brokers);
    for i in 1..brokers {
        let parent = rng.random_range(0..i);
        b.connect(ids[i], ids[parent], 1.0 + rng.random_range(0..50) as f64)
            .unwrap();
    }
    let mut clients = Vec::new();
    for &id in &ids {
        clients.extend(b.add_clients(id, 2).unwrap());
    }
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    (fabric, clients)
}

/// The golden invariant: link matching, flooding, match-first, and a naive
/// global evaluation all deliver to exactly the same clients.
#[test]
fn protocols_agree_on_random_tree_networks() {
    let mut rng = StdRng::seed_from_u64(2024);
    let schema = small_schema();
    for round in 0..8 {
        let (fabric, clients) = random_tree_network(&mut rng, 3 + round % 6);
        let options = PstOptions::default();
        let mut link = ContentRouter::new(fabric.clone(), schema.clone(), options.clone()).unwrap();
        let mut flood =
            FloodingRouter::new(fabric.clone(), schema.clone(), options.clone()).unwrap();
        let mut first = MatchFirstRouter::new(fabric.clone(), schema.clone(), options).unwrap();

        let mut oracle: Vec<(ClientId, Predicate)> = Vec::new();
        for &client in &clients {
            for _ in 0..rng.random_range(0..3) {
                let tests: Vec<Option<i64>> = (0..3)
                    .map(|_| {
                        if rng.random_bool(0.6) {
                            Some(rng.random_range(0..3))
                        } else {
                            None
                        }
                    })
                    .collect();
                let p = int_predicate(&schema, &tests);
                link.subscribe(client, p.clone()).unwrap();
                flood.subscribe(client, p.clone()).unwrap();
                first.subscribe(client, p.clone()).unwrap();
                oracle.push((client, p));
            }
        }

        for _ in 0..30 {
            let publisher =
                BrokerId::new(rng.random_range(0..fabric.network().broker_count()) as u32);
            let values: Vec<i64> = (0..3).map(|_| rng.random_range(0..3)).collect();
            let event = int_event(&schema, &values);
            let d_link = link.publish(publisher, &event).unwrap();
            let d_flood = flood.publish(publisher, &event).unwrap();
            let d_first = first.publish(publisher, &event).unwrap();

            let mut expected: Vec<ClientId> = oracle
                .iter()
                .filter(|(_, p)| p.matches(&event))
                .map(|(c, _)| *c)
                .collect();
            expected.sort_unstable();
            expected.dedup();

            assert_eq!(d_link.recipients, expected, "link matching (round {round})");
            assert_eq!(d_flood.recipients, expected, "flooding (round {round})");
            assert_eq!(d_first.recipients, expected, "match-first (round {round})");

            // At most one copy per link: never more broker messages than
            // broker links (tree edges).
            let edges = fabric.network().broker_count() as u64 - 1;
            assert!(d_link.broker_messages <= edges);
            // Flooding always uses every tree edge.
            assert_eq!(d_flood.broker_messages, edges);
            // Link matching never uses more links than flooding.
            assert!(d_link.broker_messages <= d_flood.broker_messages);
            // Link matching and flooding carry no destination lists.
            assert_eq!(d_link.payload_units, 0);
            assert_eq!(d_flood.payload_units, 0);
            // Match-first pays list overhead whenever remote delivery happens.
            if d_first.broker_messages > 0 {
                assert!(d_first.payload_units > 0);
            }
        }
    }
}

/// Virtual links: on a cyclic topology, different spanning trees route the
/// same destination over different links of a broker; the class mechanism
/// must keep delivery exact from every publisher.
#[test]
fn protocols_agree_on_cyclic_topologies() {
    let mut rng = StdRng::seed_from_u64(7);
    let schema = small_schema();
    // A ring of 6 brokers plus two chords.
    let mut b = NetworkBuilder::new();
    let ids = b.add_brokers(6);
    for i in 0..6 {
        b.connect(ids[i], ids[(i + 1) % 6], 10.0).unwrap();
    }
    b.connect(ids[0], ids[3], 15.0).unwrap();
    b.connect(ids[1], ids[4], 35.0).unwrap();
    let mut clients = Vec::new();
    for &id in &ids {
        clients.extend(b.add_clients(id, 2).unwrap());
    }
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    assert!(fabric.forest().len() > 1, "cycles yield multiple trees");

    let mut router =
        ContentRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
    let mut oracle: Vec<(ClientId, Predicate)> = Vec::new();
    for &client in &clients {
        let tests: Vec<Option<i64>> = (0..3)
            .map(|_| {
                if rng.random_bool(0.5) {
                    Some(rng.random_range(0..3))
                } else {
                    None
                }
            })
            .collect();
        let p = int_predicate(&schema, &tests);
        router.subscribe(client, p.clone()).unwrap();
        oracle.push((client, p));
    }
    for publisher in fabric.network().brokers() {
        for _ in 0..10 {
            let values: Vec<i64> = (0..3).map(|_| rng.random_range(0..3)).collect();
            let event = int_event(&schema, &values);
            let d = router.publish(publisher, &event).unwrap();
            let mut expected: Vec<ClientId> = oracle
                .iter()
                .filter(|(_, p)| p.matches(&event))
                .map(|(c, _)| *c)
                .collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(d.recipients, expected, "publisher {publisher}");
        }
    }
}

#[test]
fn factoring_and_ordering_options_preserve_routing() {
    let mut rng = StdRng::seed_from_u64(77);
    let schema = small_schema();
    let (fabric, clients) = random_tree_network(&mut rng, 5);
    let configs = [
        PstOptions::default(),
        PstOptions::default().with_factoring(1),
        PstOptions::default().with_factoring(2),
        PstOptions::default()
            .with_order(OrderPolicy::Explicit(vec![2, 0, 1]))
            .with_trivial_test_elimination(true),
    ];
    let mut routers: Vec<ContentRouter> = configs
        .iter()
        .map(|o| ContentRouter::new(fabric.clone(), schema.clone(), o.clone()).unwrap())
        .collect();
    for &client in &clients {
        let tests: Vec<Option<i64>> = (0..3)
            .map(|_| {
                if rng.random_bool(0.6) {
                    Some(rng.random_range(0..3))
                } else {
                    None
                }
            })
            .collect();
        let p = int_predicate(&schema, &tests);
        for r in &mut routers {
            r.subscribe(client, p.clone()).unwrap();
        }
    }
    for _ in 0..40 {
        let publisher = BrokerId::new(rng.random_range(0..fabric.network().broker_count()) as u32);
        let values: Vec<i64> = (0..3).map(|_| rng.random_range(0..3)).collect();
        let event = int_event(&schema, &values);
        let reference = routers[0].publish(publisher, &event).unwrap();
        for (i, r) in routers.iter().enumerate().skip(1) {
            let d = r.publish(publisher, &event).unwrap();
            assert_eq!(d.recipients, reference.recipients, "config {i}");
        }
    }
}

#[test]
fn single_broker_network_degenerates_to_local_matching() {
    let schema = small_schema();
    let mut b = NetworkBuilder::new();
    let b0 = b.add_broker();
    let c0 = b.add_client(b0).unwrap();
    let c1 = b.add_client(b0).unwrap();
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    let mut router = ContentRouter::new(fabric, schema.clone(), PstOptions::default()).unwrap();
    router
        .subscribe(c0, int_predicate(&schema, &[Some(1), None, None]))
        .unwrap();
    router
        .subscribe(c1, int_predicate(&schema, &[Some(2), None, None]))
        .unwrap();
    let d = router
        .publish(BrokerId::new(0), &int_event(&schema, &[1, 0, 0]))
        .unwrap();
    assert_eq!(d.recipients, vec![c0]);
    assert_eq!(d.broker_messages, 0);
    assert_eq!(d.max_hops, 0);
    assert_eq!(router.subscription_count(), 2);
}

#[test]
fn range_subscriptions_route_correctly() {
    let (fabric, brokers, clients) = line_fabric();
    let schema = small_schema();
    let mut router =
        ContentRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
    let pred = Predicate::from_tests(
        &schema,
        [
            AttrTest::Ge(Value::Int(1)),
            AttrTest::Any,
            AttrTest::Between(Value::Int(0), Value::Int(1)),
        ],
    )
    .unwrap();
    router.subscribe(clients[2], pred).unwrap();
    assert_eq!(
        router
            .publish(brokers[0], &int_event(&schema, &[1, 0, 1]))
            .unwrap()
            .recipients,
        vec![clients[2]]
    );
    assert!(router
        .publish(brokers[0], &int_event(&schema, &[0, 0, 1]))
        .unwrap()
        .recipients
        .is_empty());
    assert!(router
        .publish(brokers[0], &int_event(&schema, &[1, 0, 2]))
        .unwrap()
        .recipients
        .is_empty());
}

#[test]
fn publishing_from_a_broker_without_a_tree_fails_cleanly() {
    let schema = small_schema();
    let mut b = NetworkBuilder::new();
    let brokers = b.add_brokers(2);
    b.connect(brokers[0], brokers[1], 5.0).unwrap();
    let client = b.add_client(brokers[1]).unwrap();
    // Trees only for B0: B1 hosts no publishers.
    let fabric = RoutingFabric::new(b.build().unwrap(), &[brokers[0]]).unwrap();
    let mut router =
        ContentRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
    router
        .subscribe(client, int_predicate(&schema, &[None, None, None]))
        .unwrap();
    let event = int_event(&schema, &[0, 0, 0]);
    assert!(router.publish(brokers[0], &event).is_ok());
    let err = router.publish(brokers[1], &event).unwrap_err();
    assert!(matches!(err, crate::CoreError::Unknown(_)), "{err:?}");
}

#[test]
fn subscribing_an_unknown_client_fails_cleanly() {
    let (fabric, _, _) = line_fabric();
    let schema = small_schema();
    let mut router =
        ContentRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
    let err = router
        .subscribe(
            ClientId::new(999),
            int_predicate(&schema, &[None, None, None]),
        )
        .unwrap_err();
    assert!(matches!(err, crate::CoreError::Unknown(_)));
    // Baselines agree.
    let mut flood =
        FloodingRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
    assert!(flood
        .subscribe(
            ClientId::new(999),
            int_predicate(&schema, &[None, None, None])
        )
        .is_err());
    let mut first =
        MatchFirstRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
    assert!(first
        .subscribe(
            ClientId::new(999),
            int_predicate(&schema, &[None, None, None])
        )
        .is_err());
}

#[test]
fn match_first_groups_destinations_per_child_link() {
    // One subscriber on each of two branches below the publisher: the
    // destination list must split into one message per child, each carrying
    // one destination entry.
    let schema = small_schema();
    let mut b = NetworkBuilder::new();
    let hub = b.add_broker();
    let left = b.add_broker();
    let right = b.add_broker();
    b.connect(hub, left, 5.0).unwrap();
    b.connect(hub, right, 5.0).unwrap();
    let c_left = b.add_client(left).unwrap();
    let c_right = b.add_client(right).unwrap();
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    let mut first =
        MatchFirstRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
    first
        .subscribe(c_left, int_predicate(&schema, &[None, None, None]))
        .unwrap();
    first
        .subscribe(c_right, int_predicate(&schema, &[None, None, None]))
        .unwrap();
    let d = first.publish(hub, &int_event(&schema, &[0, 0, 0])).unwrap();
    assert_eq!(d.recipients, vec![c_left, c_right]);
    assert_eq!(d.broker_messages, 2, "one copy per child link");
    assert_eq!(d.payload_units, 2, "one destination entry per copy");
}

#[test]
fn flooding_counts_prefilter_client_copies() {
    let (fabric, brokers, clients) = line_fabric();
    let schema = small_schema();
    let mut flood =
        FloodingRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
    // One selective subscriber; flooding still pushes a copy to all 3
    // clients and lets them filter.
    flood
        .subscribe(clients[2], int_predicate(&schema, &[Some(1), None, None]))
        .unwrap();
    let d = flood
        .publish(brokers[0], &int_event(&schema, &[1, 0, 0]))
        .unwrap();
    assert_eq!(d.recipients, vec![clients[2]], "post-filter outcome");
    assert_eq!(d.client_messages, 3, "pre-filter copies to every client");
    assert_eq!(d.broker_messages, 2, "every tree edge");
    let d = flood
        .publish(brokers[0], &int_event(&schema, &[2, 0, 0]))
        .unwrap();
    assert!(d.recipients.is_empty());
    assert_eq!(
        d.client_messages, 3,
        "flooding wastes the same copies regardless"
    );
}

#[test]
fn transit_brokers_without_clients_forward_correctly() {
    // B0 (publisher+client) - B1 (pure transit, no clients) - B2 (client).
    let schema = small_schema();
    let mut b = NetworkBuilder::new();
    let brokers = b.add_brokers(3);
    b.connect(brokers[0], brokers[1], 5.0).unwrap();
    b.connect(brokers[1], brokers[2], 5.0).unwrap();
    let c0 = b.add_client(brokers[0]).unwrap();
    let c2 = b.add_client(brokers[2]).unwrap();
    let fabric = RoutingFabric::new_all_roots(b.build().unwrap()).unwrap();
    assert_eq!(fabric.network().clients_of(brokers[1]).len(), 0);

    let mut router =
        ContentRouter::new(fabric.clone(), schema.clone(), PstOptions::default()).unwrap();
    router
        .subscribe(c2, int_predicate(&schema, &[Some(1), None, None]))
        .unwrap();
    router
        .subscribe(c0, int_predicate(&schema, &[Some(2), None, None]))
        .unwrap();
    let d = router
        .publish(brokers[0], &int_event(&schema, &[1, 0, 0]))
        .unwrap();
    assert_eq!(d.recipients, vec![c2]);
    assert_eq!(d.broker_messages, 2, "via the transit broker");
    // Publishing from the transit broker itself also works.
    let d = router
        .publish(brokers[1], &int_event(&schema, &[2, 0, 0]))
        .unwrap();
    assert_eq!(d.recipients, vec![c0]);
}

#[test]
fn with_subscriptions_builds_annotated_engine() {
    let (fabric, brokers, clients) = line_fabric();
    let schema = small_schema();
    let space = LinkSpace::build(fabric.network(), fabric.forest(), brokers[0]);
    let subs: Vec<linkcast_types::Subscription> = (0..3)
        .map(|v| {
            linkcast_types::Subscription::new(
                linkcast_types::SubscriptionId::new(v as u32),
                linkcast_types::SubscriberId::new(
                    fabric.network().home_broker(clients[2]).unwrap(),
                    clients[2],
                ),
                int_predicate(&schema, &[Some(v), None, None]),
            )
        })
        .collect();
    // Built in bulk (FewestStarsFirst derives its order from this set).
    let engine = LinkMatchEngine::with_subscriptions(
        brokers[0],
        schema.clone(),
        PstOptions::default().with_order(OrderPolicy::FewestStarsFirst),
        space,
        subs,
    )
    .unwrap();
    assert_eq!(engine.subscription_count(), 3);
    let tree = fabric.tree_for(brokers[0]).unwrap();
    let links = engine.match_links_simple(&int_event(&schema, &[1, 0, 0]), tree);
    assert_eq!(links.len(), 1, "toward the subscriber's broker");
    assert!(
        engine
            .match_links_simple(&int_event(&schema, &[1, 2, 2]), tree)
            .len()
            == 1
    );
}

#[test]
fn rebuild_annotations_is_idempotent() {
    let (fabric, brokers, clients) = line_fabric();
    let schema = small_schema();
    let space = LinkSpace::build(fabric.network(), fabric.forest(), brokers[0]);
    let mut engine =
        LinkMatchEngine::new(brokers[0], schema.clone(), PstOptions::default(), space).unwrap();
    let home = fabric.network().home_broker(clients[2]).unwrap();
    engine
        .subscribe(linkcast_types::Subscription::new(
            linkcast_types::SubscriptionId::new(0),
            linkcast_types::SubscriberId::new(home, clients[2]),
            int_predicate(&schema, &[Some(1), None, None]),
        ))
        .unwrap();
    let tree = fabric.tree_for(brokers[0]).unwrap();
    let event = int_event(&schema, &[1, 0, 0]);
    let before = engine.match_links_simple(&event, tree);
    engine.rebuild_annotations();
    assert_eq!(engine.match_links_simple(&event, tree), before);
    // Annotations exist for every live node after the rebuild.
    for id in engine.pst().postorder() {
        assert!(engine.annotation(id).is_some(), "{id} unannotated");
    }
}

/// The arena walk must reproduce the recursive §3.3 search bit-for-bit:
/// same links from every publisher/tree/event across option configs, and —
/// when trivial-test elimination is off, so no skip chains are collapsed —
/// the same step and comparison counts.
#[test]
fn arena_walk_agrees_with_recursive_search() {
    let mut rng = StdRng::seed_from_u64(4242);
    let schema = small_schema();
    let configs = [
        PstOptions::default(),
        PstOptions::default().with_factoring(1),
        PstOptions::default()
            .with_order(OrderPolicy::Explicit(vec![2, 0, 1]))
            .with_trivial_test_elimination(true),
    ];
    for (ci, options) in configs.iter().enumerate() {
        let (fabric, clients) = random_tree_network(&mut rng, 5);
        let broker = fabric.network().brokers().next().unwrap();
        let space = LinkSpace::build(fabric.network(), fabric.forest(), broker);
        let mut engine =
            LinkMatchEngine::new(broker, schema.clone(), options.clone(), space).unwrap();
        let mut next_id = 0u32;
        for &client in &clients {
            for _ in 0..rng.random_range(0..3) {
                let tests: Vec<Option<i64>> = (0..3)
                    .map(|_| rng.random_bool(0.6).then(|| rng.random_range(0..3)))
                    .collect();
                let home = fabric.network().home_broker(client).unwrap();
                engine
                    .subscribe(linkcast_types::Subscription::new(
                        linkcast_types::SubscriptionId::new(next_id),
                        linkcast_types::SubscriberId::new(home, client),
                        int_predicate(&schema, &tests),
                    ))
                    .unwrap();
                next_id += 1;
            }
        }
        let mut scratch = crate::RouteScratch::new();
        let mut out = Vec::new();
        let tree = fabric.tree_for(broker).unwrap();
        for _ in 0..40 {
            let values: Vec<i64> = (0..3).map(|_| rng.random_range(0..3)).collect();
            let event = int_event(&schema, &values);
            let mut rec_stats = MatchStats::new();
            let expected = engine.match_links(&event, tree, &mut rec_stats);
            let mut arena_stats = MatchStats::new();
            engine.match_links_into(&event, tree, &mut scratch, &mut arena_stats, &mut out);
            assert_eq!(out, expected, "config {ci}, event {values:?}");
            if !options.eliminate_trivial_tests {
                assert_eq!(arena_stats, rec_stats, "config {ci}, event {values:?}");
            }
        }
    }
}

/// Subscribe/unsubscribe churn: the arena (incrementally patched or
/// rebuilt) must track the mutable PST exactly, and the generation counter
/// must tick on every mutation.
#[test]
fn arena_tracks_subscription_churn() {
    let mut rng = StdRng::seed_from_u64(1717);
    let schema = small_schema();
    let (fabric, clients) = random_tree_network(&mut rng, 4);
    let broker = fabric.network().brokers().next().unwrap();
    let space = LinkSpace::build(fabric.network(), fabric.forest(), broker);
    let mut engine = LinkMatchEngine::new(
        broker,
        schema.clone(),
        PstOptions::default().with_factoring(1),
        space,
    )
    .unwrap();
    let tree = fabric.tree_for(broker).unwrap();
    let mut scratch = crate::RouteScratch::new();
    let mut out = Vec::new();
    let mut live: Vec<u32> = Vec::new();
    let mut next_id = 0u32;
    for step in 0..200 {
        let before = engine.generation();
        if live.is_empty() || rng.random_bool(0.6) {
            let client = clients[rng.random_range(0..clients.len())];
            let tests: Vec<Option<i64>> = (0..3)
                .map(|_| rng.random_bool(0.6).then(|| rng.random_range(0..3)))
                .collect();
            let home = fabric.network().home_broker(client).unwrap();
            engine
                .subscribe(linkcast_types::Subscription::new(
                    linkcast_types::SubscriptionId::new(next_id),
                    linkcast_types::SubscriberId::new(home, client),
                    int_predicate(&schema, &tests),
                ))
                .unwrap();
            live.push(next_id);
            next_id += 1;
        } else {
            let id = live.swap_remove(rng.random_range(0..live.len()));
            assert!(engine.unsubscribe(linkcast_types::SubscriptionId::new(id)));
        }
        assert_eq!(engine.generation(), before + 1, "step {step}");
        for _ in 0..5 {
            let values: Vec<i64> = (0..3).map(|_| rng.random_range(0..3)).collect();
            let event = int_event(&schema, &values);
            let expected = engine.match_links_simple(&event, tree);
            let mut stats = MatchStats::new();
            engine.match_links_into(&event, tree, &mut scratch, &mut stats, &mut out);
            assert_eq!(out, expected, "step {step}, event {values:?}");
        }
    }
}

/// Direct structural soundness of [`LinkSpace`] on random cyclic networks:
/// masks and leaf vectors stay inside the active tree's class block, local
/// clients are always mapped via their client link, and downstream
/// destinations map to the spanning tree's next hop.
#[test]
fn link_space_structure_is_sound_on_random_networks() {
    let mut rng = StdRng::seed_from_u64(91);
    for round in 0..10 {
        // Random tree plus a couple of chords.
        let n = 3 + round % 5;
        let mut b = NetworkBuilder::new();
        let ids = b.add_brokers(n);
        for i in 1..n {
            b.connect(
                ids[i],
                ids[rng.random_range(0..i)],
                1.0 + rng.random_range(0..40) as f64,
            )
            .unwrap();
        }
        for _ in 0..2 {
            let (x, y) = (rng.random_range(0..n), rng.random_range(0..n));
            if x != y {
                let _ = b.connect(ids[x], ids[y], 5.0);
            }
        }
        let mut clients = Vec::new();
        for &id in &ids {
            clients.extend(b.add_clients(id, 2).unwrap());
        }
        let network = b.build().unwrap();
        let forest = crate::SpanningForest::compute_all(&network).unwrap();

        for broker in network.brokers() {
            let space = LinkSpace::build(&network, &forest, broker);
            let links = network.link_count(broker);
            assert_eq!(space.width(), space.class_count() * links);

            for (tree_id, tree) in forest.iter() {
                let class = space.class(tree_id);
                let mask = space.init_mask(tree_id);
                assert_eq!(mask.len(), space.width());
                // Every Maybe lies inside the active class block.
                for position in mask.maybe_indices() {
                    assert!(
                        position / links == class,
                        "round {round}: {broker} {tree_id}: Maybe at {position} outside class {class}"
                    );
                }
                assert!(!mask.has_yes(), "init masks are Maybe/No only");

                // Leaf vectors: local clients map through their client
                // link; downstream clients map through the tree next hop.
                for &client in &clients {
                    let vector = space.leaf_vector(client);
                    let home = network.home_broker(client).unwrap();
                    let in_class: Vec<usize> = vector
                        .yes_indices()
                        .filter(|p| p / links == class)
                        .collect();
                    assert!(in_class.len() <= 1, "one link per class");
                    if home == broker {
                        let expect = network.link_to_client(broker, client).unwrap();
                        assert_eq!(
                            in_class,
                            vec![class * links + expect.index()],
                            "local clients use their client link"
                        );
                    } else if let Some(child) = tree.child_toward(broker, home) {
                        let expect = network.link_to_broker(broker, child).unwrap();
                        assert_eq!(
                            in_class,
                            vec![class * links + expect.index()],
                            "downstream clients use the tree next hop"
                        );
                    }
                }
            }
        }
    }
}
