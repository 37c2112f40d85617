//! PST match-time traversal.

use linkcast_types::{Event, SubscriptionId};

use super::{NodeId, Pst};
use crate::MatchStats;

impl Pst {
    /// Follows all satisfied root-to-leaf paths, collecting the
    /// subscriptions at every reached leaf (§2's parallel search).
    pub(crate) fn match_collect(
        &self,
        event: &Event,
        stats: &mut MatchStats,
    ) -> Vec<SubscriptionId> {
        stats.events += 1;
        let Some(root) = self.root_for_event(event) else {
            return Vec::new();
        };
        let skipping = self.options.eliminate_trivial_tests;
        let mut out = Vec::new();
        let mut stack = vec![self.effective(root, skipping)];
        self.run_stack(&mut stack, event, stats, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Depth-first search driver: pops nodes, visits them, pushes children,
    /// collects leaf subscriptions.
    fn run_stack(
        &self,
        stack: &mut Vec<NodeId>,
        event: &Event,
        stats: &mut MatchStats,
        out: &mut Vec<SubscriptionId>,
    ) {
        while let Some(id) = stack.pop() {
            self.visit(id, event, stats, stack, out);
        }
    }

    /// Visits one node: a leaf contributes its subscriptions; an interior
    /// node pushes the children its test selects.
    fn visit(
        &self,
        id: NodeId,
        event: &Event,
        stats: &mut MatchStats,
        stack: &mut Vec<NodeId>,
        out: &mut Vec<SubscriptionId>,
    ) {
        let skipping = self.options.eliminate_trivial_tests;
        stats.steps += 1;
        let node = self.node_inner(id);
        if node.level as usize == self.depth() {
            stats.leaf_hits += 1;
            out.extend_from_slice(&node.subs);
            return;
        }
        let attr = self.order[node.level as usize];
        let value = &event.values()[attr];
        stats.comparisons += 1;
        if let Ok(i) = node.eq_edges.binary_search_by(|(v, _)| v.cmp(value)) {
            stack.push(self.effective(node.eq_edges[i].1, skipping));
        }
        for (test, child) in &node.range_edges {
            stats.comparisons += 1;
            if test.matches(value) {
                stack.push(self.effective(*child, skipping));
            }
        }
        if let Some(star) = node.star {
            stack.push(self.effective(star, skipping));
        }
    }

    /// Resolves trivial-test-elimination skips: the node actually worth
    /// visiting when a search would enter `id`.
    #[inline]
    fn effective(&self, id: NodeId, skipping: bool) -> NodeId {
        if skipping {
            self.node_inner(id).skip.unwrap_or(id)
        } else {
            id
        }
    }
}
