//! Matching engines for content-based subscriptions.
//!
//! This crate implements the single-broker matching problem of the paper's
//! §2: given an event and a (large) set of subscriptions, find every
//! subscription whose predicate the event satisfies.
//!
//! Three engines are provided behind the [`Matcher`] trait:
//!
//! - [`Pst`] — the paper's **parallel search tree**: subscriptions are sorted
//!   into a tree in which each level tests one attribute and each
//!   subscription is a root-to-leaf path; matching follows all satisfied
//!   paths at once, sharing work across subscriptions with common prefixes.
//!   Supports the paper's optimizations: *factoring* (§2.1.1), *trivial test
//!   elimination* (§2.1.2), and configurable attribute ordering (fewest
//!   don't-cares near the root).
//! - [`NaiveMatcher`] — a linear scan over all subscriptions; the obvious
//!   baseline and the correctness oracle for property tests.
//! - [`GatingMatcher`] — the predicate-indexing algorithm of Hanson et
//!   al. (SIGMOD 1990), discussed in the paper's related work: one *gating
//!   test* per subscription is indexed; candidates selected by the gating
//!   test have their *residual tests* evaluated one by one.
//!
//! # Example
//!
//! ```
//! use linkcast_types::{EventSchema, ValueKind, Value, Event, Subscription,
//!     SubscriptionId, SubscriberId, BrokerId, ClientId, parse_predicate};
//! use linkcast_matching::{Matcher, Pst, PstOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let schema = EventSchema::builder("trades")
//!     .attribute("issue", ValueKind::Str)
//!     .attribute("price", ValueKind::Dollar)
//!     .attribute("volume", ValueKind::Int)
//!     .build()?;
//!
//! let mut pst = Pst::new(schema.clone(), PstOptions::default())?;
//! let pred = parse_predicate(&schema, r#"issue = "IBM" & volume > 1000"#)?;
//! pst.insert(Subscription::new(
//!     SubscriptionId::new(0),
//!     SubscriberId::new(BrokerId::new(0), ClientId::new(0)),
//!     pred,
//! ))?;
//!
//! let event = Event::from_values(
//!     &schema,
//!     [Value::str("IBM"), Value::dollar(99, 0), Value::Int(5000)],
//! )?;
//! assert_eq!(pst.matches(&event), vec![SubscriptionId::new(0)]);
//! # Ok(())
//! # }
//! ```

mod compact;
mod dot;
mod gating;
mod matcher;
mod naive;
mod psg;
mod pst;
mod stats;

pub use compact::compact_subscriptions;
pub use gating::GatingMatcher;
pub use matcher::{Matcher, MatcherError};
pub use naive::NaiveMatcher;
pub use psg::Psg;
pub use pst::{MutationReport, NodeId, NodeRef, OrderPolicy, Pst, PstOptions, PstSummary};
pub use stats::MatchStats;
