//! The Fig. 7 "matching engine": subscription manager + event parser over
//! one link-matching engine per information space.

use std::sync::Arc;

use linkcast::{
    CoreError, LinkMatchEngine, LinkSpace, MatchCache, Result, RouteScratch, RoutingFabric, TreeId,
};
use linkcast_matching::{MatchStats, PstOptions};
use linkcast_types::{
    parse_predicate, BrokerId, Event, LinkId, Predicate, SchemaId, SchemaRegistry, Subscription,
    SubscriptionId,
};

/// A broker's matching engine: "a subscription manager, and an event
/// parser" (§4.2), serving every registered information space.
///
/// The subscription manager "receives a subscription from a client, parses
/// the subscription expression, and adds the subscription to the matching
/// tree"; the event parser validates incoming events against their schema
/// (done at decode time by [`linkcast_types::wire::get_event`], re-checked
/// here for locally constructed events).
#[derive(Debug)]
pub struct MatchingEngine {
    registry: Arc<SchemaRegistry>,
    /// One annotated PST per information space, indexed by schema id.
    engines: Vec<LinkMatchEngine>,
    /// Which schema each subscription id belongs to (for removal).
    subscription_schema: std::collections::HashMap<SubscriptionId, SchemaId>,
}

impl MatchingEngine {
    /// Builds the engine for `broker` over all schemas in `registry`.
    ///
    /// # Errors
    ///
    /// Any link-matching engine construction error.
    pub fn new(
        broker: BrokerId,
        fabric: &RoutingFabric,
        registry: Arc<SchemaRegistry>,
        options: PstOptions,
    ) -> Result<Self> {
        let mut engines = Vec::with_capacity(registry.len());
        for schema in registry.iter() {
            let space = LinkSpace::build(fabric.network(), fabric.forest(), broker);
            engines.push(LinkMatchEngine::new(
                broker,
                schema.clone(),
                options.clone(),
                space,
            )?);
        }
        Ok(MatchingEngine {
            registry,
            engines,
            subscription_schema: std::collections::HashMap::new(),
        })
    }

    /// The schema registry (information spaces) this engine serves.
    pub fn registry(&self) -> &SchemaRegistry {
        &self.registry
    }

    /// Rebuilds every per-space engine over a repaired routing fabric
    /// (topology repair: some links declared dead, spanning forest
    /// recomputed over the surviving graph).
    ///
    /// Subscriptions are preserved — only the link space (tree shapes,
    /// init masks, virtual-link classes) is rederived. Each underlying
    /// [`LinkMatchEngine`] bumps its generation in place, so match
    /// caches keyed by [`generation`](Self::generation) are invalidated
    /// without any risk of generation collision from a fresh engine.
    pub fn rebuild_topology(&mut self, broker: BrokerId, fabric: &RoutingFabric) {
        for engine in &mut self.engines {
            let space = LinkSpace::build(fabric.network(), fabric.forest(), broker);
            engine.rebuild_space(space);
        }
    }

    /// Parses a subscription expression against an information space.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unknown`] for unknown schemas, or parse errors.
    pub fn parse_subscription(&self, schema: SchemaId, expression: &str) -> Result<Predicate> {
        let schema = self
            .registry
            .get(schema)
            .ok_or_else(|| CoreError::Unknown(format!("information space {schema}")))?;
        parse_predicate(schema, expression).map_err(CoreError::Types)
    }

    /// Registers a subscription in the given information space.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unknown`] for unknown schemas, plus matcher errors
    /// (duplicates, arity mismatches).
    pub fn subscribe(&mut self, schema: SchemaId, subscription: Subscription) -> Result<()> {
        let engine = self
            .engines
            .get_mut(schema.index())
            .ok_or_else(|| CoreError::Unknown(format!("information space {schema}")))?;
        let id = subscription.id();
        engine.subscribe(subscription)?;
        self.subscription_schema.insert(id, schema);
        Ok(())
    }

    /// Removes a subscription, returning whether it was registered.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let Some(schema) = self.subscription_schema.remove(&id) else {
            return false;
        };
        match self.engines.get_mut(schema.index()) {
            Some(engine) => engine.unsubscribe(id),
            None => false,
        }
    }

    /// Whether a subscription id is registered (used to stop control-plane
    /// flooding).
    pub fn knows(&self, id: SubscriptionId) -> bool {
        self.subscription_schema.contains_key(&id)
    }

    /// Total registered subscriptions across all information spaces.
    pub fn subscription_count(&self) -> usize {
        self.engines
            .iter()
            .map(LinkMatchEngine::subscription_count)
            .sum()
    }

    /// Link matching for one event: the links the event must be forwarded
    /// on, per its own schema's annotated tree. This is the recursive
    /// reference walk ([`LinkMatchEngine::match_links`]); the broker routes
    /// through [`route_cached`](Self::route_cached).
    pub fn route(&self, event: &Event, tree: TreeId, stats: &mut MatchStats) -> Vec<LinkId> {
        let schema = event.schema().id();
        match self.engines.get(schema.index()) {
            Some(engine) => engine.match_links(event, tree, stats),
            None => Vec::new(),
        }
    }

    /// Sum of the per-space engine generations. Bumps on every
    /// subscription add/remove and every re-annotation in any information
    /// space, so a [`MatchCache`] keyed by this value can never serve a
    /// link set computed against a stale subscription set.
    pub fn generation(&self) -> u64 {
        self.engines.iter().map(LinkMatchEngine::generation).sum()
    }

    /// [`route`](Self::route) through the flattened arena walk, reusing
    /// `scratch` across calls and memoizing the link set in `cache` keyed
    /// by the event's *tested* attribute values.
    ///
    /// The caller owns both `cache` and `scratch` (one pair per match
    /// shard in the broker — plain shard-local data, no locks). A
    /// disabled cache (capacity 0) degrades to the plain arena walk.
    ///
    /// `_threads` is ignored: the walk is always sequential. It is kept
    /// only because the standalone `benchmark/` package passes it, and
    /// that package is edited only by changes to the benchmark itself; it
    /// goes with the next one.
    #[allow(clippy::too_many_arguments)] // shard-local state threaded explicitly: no lock, no struct
    pub fn route_cached(
        &self,
        event: &Event,
        tree: TreeId,
        _threads: usize,
        cache: &mut MatchCache,
        scratch: &mut RouteScratch,
        stats: &mut MatchStats,
        out: &mut Vec<LinkId>,
    ) {
        out.clear();
        let schema = event.schema().id();
        let Some(engine) = self.engines.get(schema.index()) else {
            return;
        };
        let generation = self.generation();
        if let Some(links) = cache.lookup(
            generation,
            schema.index(),
            tree,
            event,
            engine.tested_attributes(),
            stats,
        ) {
            stats.events += 1;
            out.extend_from_slice(links);
            return;
        }
        engine.match_links_into(event, tree, scratch, stats, out);
        cache.insert(
            generation,
            schema.index(),
            tree,
            event,
            engine.tested_attributes(),
            out,
        );
    }

    /// Looks up a registered subscription.
    pub fn subscription(&self, id: SubscriptionId) -> Option<&Subscription> {
        let schema = self.subscription_schema.get(&id)?;
        self.engines.get(schema.index())?.subscription(id)
    }

    /// Every registered subscription with its information space — the
    /// payload of the anti-entropy resync sent when a broker link
    /// (re-)establishes.
    pub fn all_subscriptions(&self) -> Vec<(SchemaId, Subscription)> {
        let mut out: Vec<(SchemaId, Subscription)> = self
            .subscription_schema
            .iter()
            .filter_map(|(id, schema)| {
                self.engines
                    .get(schema.index())?
                    .subscription(*id)
                    .map(|s| (*schema, s.clone()))
            })
            .collect();
        out.sort_by_key(|(_, s)| s.id());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkcast::NetworkBuilder;
    use linkcast_types::{ClientId, EventSchema, SubscriberId, Value, ValueKind};

    fn registry() -> Arc<SchemaRegistry> {
        let mut r = SchemaRegistry::new();
        r.register(
            EventSchema::builder("trades")
                .attribute("issue", ValueKind::Str)
                .attribute("volume", ValueKind::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        r.register(
            EventSchema::builder("quotes")
                .attribute("bid", ValueKind::Dollar)
                .build()
                .unwrap(),
        )
        .unwrap();
        Arc::new(r)
    }

    fn world() -> (Arc<RoutingFabric>, ClientId, ClientId) {
        let mut b = NetworkBuilder::new();
        let b0 = b.add_broker();
        let b1 = b.add_broker();
        b.connect(b0, b1, 5.0).unwrap();
        let local = b.add_client(b0).unwrap();
        let remote = b.add_client(b1).unwrap();
        (
            RoutingFabric::new_all_roots(b.build().unwrap()).unwrap(),
            local,
            remote,
        )
    }

    #[test]
    fn multiple_information_spaces_are_independent() {
        let (fabric, local, _remote) = world();
        let registry = registry();
        let mut engine = MatchingEngine::new(
            BrokerId::new(0),
            &fabric,
            Arc::clone(&registry),
            PstOptions::default(),
        )
        .unwrap();

        let trades = registry.get_by_name("trades").unwrap().clone();
        let quotes = registry.get_by_name("quotes").unwrap().clone();
        let p_trades = engine
            .parse_subscription(trades.id(), "volume > 100")
            .unwrap();
        engine
            .subscribe(
                trades.id(),
                Subscription::new(
                    SubscriptionId::new(1),
                    SubscriberId::new(BrokerId::new(0), local),
                    p_trades,
                ),
            )
            .unwrap();

        let tree = fabric.tree_for(BrokerId::new(0)).unwrap();
        let trade = Event::from_values(&trades, [Value::str("IBM"), Value::Int(500)]).unwrap();
        let quote = Event::from_values(&quotes, [Value::Dollar(100)]).unwrap();
        let mut stats = MatchStats::new();
        assert_eq!(engine.route(&trade, tree, &mut stats).len(), 1);
        assert!(engine.route(&quote, tree, &mut stats).is_empty());
        assert_eq!(engine.subscription_count(), 1);
        assert!(engine.knows(SubscriptionId::new(1)));
        assert!(engine.subscription(SubscriptionId::new(1)).is_some());
    }

    #[test]
    fn unsubscribe_routes_nothing() {
        let (fabric, local, _) = world();
        let registry = registry();
        let trades = registry.get_by_name("trades").unwrap().clone();
        let mut engine = MatchingEngine::new(
            BrokerId::new(0),
            &fabric,
            Arc::clone(&registry),
            PstOptions::default(),
        )
        .unwrap();
        let p = engine
            .parse_subscription(trades.id(), "volume > 0")
            .unwrap();
        engine
            .subscribe(
                trades.id(),
                Subscription::new(
                    SubscriptionId::new(1),
                    SubscriberId::new(BrokerId::new(0), local),
                    p,
                ),
            )
            .unwrap();
        assert!(engine.unsubscribe(SubscriptionId::new(1)));
        assert!(!engine.unsubscribe(SubscriptionId::new(1)));
        let tree = fabric.tree_for(BrokerId::new(0)).unwrap();
        let trade = Event::from_values(&trades, [Value::str("IBM"), Value::Int(500)]).unwrap();
        let mut stats = MatchStats::new();
        assert!(engine.route(&trade, tree, &mut stats).is_empty());
    }

    #[test]
    fn errors_are_reported() {
        let (fabric, _, _) = world();
        let registry = registry();
        let engine = MatchingEngine::new(
            BrokerId::new(0),
            &fabric,
            Arc::clone(&registry),
            PstOptions::default(),
        )
        .unwrap();
        assert!(engine
            .parse_subscription(SchemaId::new(9), "volume > 0")
            .is_err());
        assert!(engine
            .parse_subscription(SchemaId::new(0), "nonsense >>>")
            .is_err());
    }
}
