//! The per-broker link-matching engine: an annotated parallel search tree.

use std::collections::HashMap;

use linkcast_matching::{MatchStats, Matcher, NodeId, Pst, PstOptions};
use linkcast_types::{ClientId, Event, EventSchema, LinkId, Subscription, SubscriptionId, TritVec};

use crate::{LinkSpace, MatchArena, MatchScratch, Result, TreeId};

/// Reusable buffers for the engine's allocation-free match path: the
/// arena walk's mask pool. Owned per matching shard (or per bench thread)
/// and handed down by `&mut` — shard-private plain data, no lock.
#[derive(Debug, Default)]
pub struct RouteScratch {
    walk: MatchScratch,
}

impl RouteScratch {
    /// A fresh, empty scratch set.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One broker's routing engine (§3): the full subscription set organized as
/// a PST, annotated with trit vectors over the broker's [`LinkSpace`], plus
/// the mask-refinement search of §3.3 that decides which links receive an
/// event.
///
/// "Each broker in the network has a copy of all the subscriptions,
/// organized into a PST" (§3.1) — the engine *is* that copy, specialized to
/// its broker's outgoing links.
///
/// # Example
///
/// ```
/// use linkcast::{NetworkBuilder, SpanningForest, LinkSpace, LinkMatchEngine};
/// use linkcast_matching::PstOptions;
/// use linkcast_types::{EventSchema, ValueKind, Value, Event, Predicate,
///     Subscription, SubscriptionId, SubscriberId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetworkBuilder::new();
/// let b0 = b.add_broker();
/// let b1 = b.add_broker();
/// b.connect(b0, b1, 10.0)?;
/// let alice = b.add_client(b1)?;
/// let network = b.build()?;
/// let forest = SpanningForest::compute(&network, &[b0])?;
/// let tree = forest.tree_for_root(b0).unwrap();
///
/// let schema = EventSchema::builder("s")
///     .attribute("x", ValueKind::Int)
///     .build()?;
/// let space = LinkSpace::build(&network, &forest, b0);
/// let mut engine = LinkMatchEngine::new(b0, schema.clone(), PstOptions::default(), space)?;
///
/// engine.subscribe(Subscription::new(
///     SubscriptionId::new(0),
///     SubscriberId::new(b1, alice),
///     Predicate::builder(&schema).eq("x", Value::Int(7))?.build(),
/// ))?;
///
/// let hit = Event::from_values(&schema, [Value::Int(7)])?;
/// let miss = Event::from_values(&schema, [Value::Int(8)])?;
/// assert_eq!(engine.match_links_simple(&hit, tree).len(), 1);
/// assert!(engine.match_links_simple(&miss, tree).is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LinkMatchEngine {
    broker: linkcast_types::BrokerId,
    space: LinkSpace,
    pst: Pst,
    /// Annotation per PST node, indexed by [`NodeId::index`].
    annotations: Vec<Option<TritVec>>,
    /// Memoized leaf vectors per subscriber client.
    leaf_cache: HashMap<ClientId, TritVec>,
    /// The flattened match-time view of `pst` + `annotations`, kept in
    /// lock-step with them on every mutation.
    arena: MatchArena,
    /// Bumped on every subscription add/remove/re-annotation; a
    /// [`MatchCache`](crate::MatchCache) keyed under an old generation
    /// flushes itself on its next lookup.
    generation: u64,
}

impl LinkMatchEngine {
    /// Creates an engine for `broker` with an empty subscription set.
    ///
    /// # Errors
    ///
    /// Any PST construction error (see [`Pst::new`]).
    pub fn new(
        broker: linkcast_types::BrokerId,
        schema: EventSchema,
        options: PstOptions,
        space: LinkSpace,
    ) -> Result<Self> {
        let pst = Pst::new(schema, options)?;
        let arena = MatchArena::build(&pst, &[], &space);
        Ok(LinkMatchEngine {
            broker,
            space,
            pst,
            annotations: Vec::new(),
            leaf_cache: HashMap::new(),
            arena,
            generation: 0,
        })
    }

    /// Creates an engine pre-loaded with a subscription set (the attribute
    /// order heuristic, if configured, derives from this set).
    ///
    /// # Errors
    ///
    /// Any PST construction or insertion error.
    pub fn with_subscriptions(
        broker: linkcast_types::BrokerId,
        schema: EventSchema,
        options: PstOptions,
        space: LinkSpace,
        subscriptions: impl IntoIterator<Item = Subscription>,
    ) -> Result<Self> {
        let pst = Pst::build(schema, subscriptions, options)?;
        let mut engine = LinkMatchEngine {
            broker,
            space,
            pst,
            annotations: Vec::new(),
            leaf_cache: HashMap::new(),
            arena: MatchArena::default(),
            generation: 0,
        };
        engine.annotate_all();
        engine.rebuild_arena();
        Ok(engine)
    }

    /// The broker this engine routes for.
    pub fn broker(&self) -> linkcast_types::BrokerId {
        self.broker
    }

    /// The engine's link space.
    pub fn space(&self) -> &LinkSpace {
        &self.space
    }

    /// The underlying (annotated) parallel search tree.
    pub fn pst(&self) -> &Pst {
        &self.pst
    }

    /// Number of registered subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.pst.len()
    }

    /// Registers a subscription and incrementally re-annotates the paths it
    /// touched.
    ///
    /// # Errors
    ///
    /// Duplicate ids or schema mismatches, from the PST.
    pub fn subscribe(&mut self, subscription: Subscription) -> Result<()> {
        let report = self.pst.insert_reported(subscription)?;
        for path in &report.paths {
            self.annotate_path(path);
        }
        self.generation += 1;
        if !self
            .arena
            .apply_mutation(&self.pst, &report, &self.annotations)
        {
            self.rebuild_arena();
        }
        Ok(())
    }

    /// Removes a subscription, pruning and re-annotating. Returns whether
    /// the id was registered.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let Some(report) = self.pst.remove_reported(id) else {
            return false;
        };
        for freed in &report.freed {
            if let Some(slot) = self.annotations.get_mut(freed.index()) {
                *slot = None;
            }
        }
        for path in &report.paths {
            self.annotate_path(path);
        }
        self.generation += 1;
        if !self
            .arena
            .apply_mutation(&self.pst, &report, &self.annotations)
        {
            self.rebuild_arena();
        }
        true
    }

    /// The annotation of a PST node, if computed.
    pub fn annotation(&self, id: NodeId) -> Option<&TritVec> {
        self.annotations.get(id.index()).and_then(|a| a.as_ref())
    }

    /// Link matching (§3.3): refines `tree`'s initialization mask through
    /// the annotated PST until no `Maybe` remains, returning the physical
    /// links the event must be forwarded on (broker links and/or local
    /// client links).
    pub fn match_links(&self, event: &Event, tree: TreeId, stats: &mut MatchStats) -> Vec<LinkId> {
        stats.events += 1;
        let mask = self.space.init_mask(tree).clone();
        if !mask.has_maybe() {
            // Nothing is downstream of this broker on this tree.
            return Vec::new();
        }
        let Some(root) = self.pst.root_for_event(event) else {
            // No subscription exists under the event's factor key.
            return Vec::new();
        };
        let refined = self.subsearch(root, mask, event, stats);
        self.space.links_to_send(&refined)
    }

    /// [`match_links`](Self::match_links) without stats collection.
    pub fn match_links_simple(&self, event: &Event, tree: TreeId) -> Vec<LinkId> {
        let mut stats = MatchStats::new();
        self.match_links(event, tree, &mut stats)
    }

    /// [`match_links`](Self::match_links) over the flattened
    /// [`MatchArena`]: the same §3.3 refinement as an explicit work-stack
    /// walk over contiguous index arrays, drawing every mask from
    /// `scratch` and writing the link set into `out` (cleared first). The
    /// steady-state path allocates nothing.
    pub fn match_links_into(
        &self,
        event: &Event,
        tree: TreeId,
        scratch: &mut RouteScratch,
        stats: &mut MatchStats,
        out: &mut Vec<LinkId>,
    ) {
        out.clear();
        stats.events += 1;
        let init = self.space.init_mask(tree);
        if !init.has_maybe() {
            // Nothing is downstream of this broker on this tree.
            return;
        }
        scratch.walk.seed(init);
        if !self.arena.search(event, &mut scratch.walk, stats) {
            // No subscription exists under the event's factor key.
            return;
        }
        if let Some(refined) = scratch.walk.result() {
            self.space.links_to_send_into(refined, out);
        }
    }

    /// Runs the §2 centralized matching over the full tree (no trits),
    /// returning matched subscription ids — used by the match-first
    /// baseline and by the Chart 2 "centralized" series.
    pub fn match_subscriptions(
        &self,
        event: &Event,
        stats: &mut MatchStats,
    ) -> Vec<SubscriptionId> {
        self.pst.matches_with_stats(event, stats)
    }

    /// Looks up a registered subscription.
    pub fn subscription(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.pst.subscription(id)
    }

    /// The flattened match-time view of the annotated PST.
    pub fn arena(&self) -> &MatchArena {
        &self.arena
    }

    /// Monotonic subscription-set generation: bumped on every subscribe,
    /// unsubscribe, and re-annotation. A [`MatchCache`](crate::MatchCache)
    /// presents this on lookup; a mismatch flushes the cache, so no memoized
    /// result can outlive the subscription set it was computed under.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The attribute indices that can influence this engine's match results
    /// (sorted) — the correct and minimal match-cache key schema.
    pub fn tested_attributes(&self) -> &[usize] {
        self.arena.tested_attributes()
    }

    /// Recompiles the arena from the current PST and annotations.
    fn rebuild_arena(&mut self) {
        self.arena = MatchArena::build(&self.pst, &self.annotations, &self.space);
    }

    fn subsearch(
        &self,
        id: NodeId,
        mask: TritVec,
        event: &Event,
        stats: &mut MatchStats,
    ) -> TritVec {
        stats.steps += 1;
        let annotation = self.annotations[id.index()]
            .as_ref()
            .expect("live nodes are annotated");
        // §3.3 step 2: replace every Maybe by the node's annotation trit.
        let mut mask = mask.refine(annotation);
        if !mask.has_maybe() {
            return mask;
        }
        let node = self.pst.node(id);
        debug_assert!(
            !node.is_leaf(),
            "leaf annotations are Yes/No-only, so refinement terminates there"
        );
        let attr = node.attribute().expect("interior node tests an attribute");
        let value = &event.values()[attr];

        // §3.3 step 3: subsearch each applicable child with a copy of the
        // mask, absorbing Yes trits as subsearches return.
        stats.comparisons += 1;
        if let Some(child) = node.eq_child(value) {
            let sub = self.subsearch(child, mask.clone(), event, stats);
            mask = mask.absorb_yes(&sub);
            if !mask.has_maybe() {
                return mask;
            }
        }
        for (test, child) in node.range_edges() {
            stats.comparisons += 1;
            if test.matches(value) {
                let sub = self.subsearch(*child, mask.clone(), event, stats);
                mask = mask.absorb_yes(&sub);
                if !mask.has_maybe() {
                    return mask;
                }
            }
        }
        if let Some(star) = node.star() {
            let sub = self.subsearch(star, mask.clone(), event, stats);
            mask = mask.absorb_yes(&sub);
        }
        // End of step 3: remaining Maybes become No.
        mask.maybes_to_no()
    }

    /// Recomputes every node's annotation (post-order, children first).
    fn annotate_all(&mut self) {
        self.annotations = vec![None; self.pst.arena_size()];
        for id in self.pst.postorder() {
            let v = self.compute_annotation(id);
            self.set_annotation(id, v);
        }
    }

    /// Re-annotates the nodes of one root-to-leaf path, bottom-up. Nodes off
    /// the path are unaffected by the mutation (a node's annotation depends
    /// only on its descendants).
    fn annotate_path(&mut self, path: &[NodeId]) {
        for &id in path.iter().rev() {
            let v = self.compute_annotation(id);
            self.set_annotation(id, v);
        }
    }

    fn set_annotation(&mut self, id: NodeId, v: TritVec) {
        if self.annotations.len() <= id.index() {
            self.annotations.resize(id.index() + 1, None);
        }
        self.annotations[id.index()] = Some(v);
    }

    /// §3.1: leaves get `Yes` per link reaching one of their subscribers;
    /// interior nodes combine children with *Alternative Combine* (value
    /// branches, plus an implicit all-`No` alternative when the branches do
    /// not exhaust the attribute's domain) and *Parallel Combine* (the `*`
    /// branch).
    fn compute_annotation(&self, id: NodeId) -> TritVec {
        let width = self.space.width();
        let node = self.pst.node(id);
        if node.is_leaf() {
            let mut v = TritVec::no(width);
            for sub_id in node.subscription_ids() {
                let sub = self
                    .pst
                    .subscription(*sub_id)
                    .expect("leaf subscriptions are registered");
                let client = sub.subscriber().client;
                let leaf = match self.leaf_cache.get(&client) {
                    Some(cached) => cached.clone(),
                    None => self.space.leaf_vector(client),
                };
                v = v.parallel(&leaf);
            }
            return v;
        }

        let child_ann = |child: NodeId| -> &TritVec {
            self.annotations[child.index()]
                .as_ref()
                .expect("children are annotated before parents")
        };
        let mut alt: Option<TritVec> = None;
        let fold = |v: &TritVec, alt: &mut Option<TritVec>| match alt {
            None => *alt = Some(v.clone()),
            Some(a) => *a = a.alternative(v),
        };
        for (_, child) in node.eq_edges() {
            fold(child_ann(*child), &mut alt);
        }
        for (_, child) in node.range_edges() {
            fold(child_ann(*child), &mut alt);
        }
        if !self.branches_exhaust_domain(&node) {
            fold(&TritVec::no(width), &mut alt);
        }
        let alt = alt.unwrap_or_else(|| TritVec::no(width));
        match node.star() {
            Some(star) => alt.parallel(child_ann(star)),
            None => alt,
        }
    }

    /// Whether a node's value branches cover every value of the tested
    /// attribute's (finite) domain. Attributes without declared domains are
    /// never exhaustive.
    fn branches_exhaust_domain(&self, node: &linkcast_matching::NodeRef<'_>) -> bool {
        let Some(attr) = node.attribute() else {
            return false;
        };
        let Some(domain) = self.pst.schema().attribute(attr).and_then(|a| a.domain()) else {
            return false;
        };
        domain.iter().all(|v| {
            node.eq_child(v).is_some() || node.range_edges().iter().any(|(t, _)| t.matches(v))
        })
    }

    /// Swaps in a new link space (topology repair) and rebuilds every
    /// derived structure: leaf vectors, annotations, and the flattened
    /// arena. The engine's generation counter keeps counting up from its
    /// current value, so match-cache entries minted under the old space
    /// are invalidated rather than aliased.
    pub fn rebuild_space(&mut self, space: LinkSpace) {
        self.space = space;
        self.rebuild_annotations();
    }

    /// Refreshes the leaf-vector cache (call after the link space changes;
    /// topology is otherwise static in this reproduction).
    pub fn rebuild_annotations(&mut self) {
        self.leaf_cache.clear();
        for client in self.collect_clients() {
            let v = self.space.leaf_vector(client);
            self.leaf_cache.insert(client, v);
        }
        self.annotate_all();
        self.generation += 1;
        self.rebuild_arena();
    }

    fn collect_clients(&self) -> Vec<ClientId> {
        let mut clients: Vec<ClientId> = self
            .pst
            .subscriptions()
            .map(|s| s.subscriber().client)
            .collect();
        clients.sort_unstable();
        clients.dedup();
        clients
    }
}
