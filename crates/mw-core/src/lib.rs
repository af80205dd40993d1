//! The MiddleWhere Location Service — the paper's primary contribution
//! (§4), assembled from the workspace substrates.
//!
//! "The Location Service is the source of location information for all
//! location-sensitive applications." It:
//!
//! 1. fuses data from multiple sensors and resolves conflicts
//!    (`mw-fusion`),
//! 2. answers object-based and region-based queries,
//! 3. accepts subscriptions for location-based conditions and notifies
//!    applications when they become true (push via `mw-bus`),
//! 4. supports creating spatial regions and attaching properties,
//! 5. supports adding static objects with spatial properties
//!    (`mw-spatial-db`),
//! 6. deduces higher-level spatial relationships (`mw-reasoning`),
//!    with probabilities attached.
//!
//! The entry point is [`LocationService`]. Applications discover it
//! through the bus and interact in pull (queries) or push (subscriptions)
//! mode, exactly as Gaia applications did through CORBA in the original
//! deployment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fix;
mod grid;
pub mod ident;
pub mod prelude;
mod query;
mod relations;
mod rules;
mod service;
mod subscription;
mod symbolic;
mod world;

pub use error::CoreError;
pub use fix::{LocationFix, Notification};
pub use ident::Interner;
pub use query::{AnswerQuality, LocationQuery, QueryAnswer, QueryTarget};
pub use relations::{CoLocation, ObjectRelation, RegionRelation};
pub use rules::{Predicate, Rule, RuleBuilder};
pub use service::{
    DegradationPolicy, LocationRequest, LocationResponse, LocationService, PartitionState,
    SharedNotification,
};
pub use subscription::{
    DeliveryPolicy, SubscriptionId, SubscriptionSpec, SubscriptionSpecBuilder, SubscriptionTrigger,
};
pub use symbolic::SymbolicLattice;
pub use world::WorldModel;

/// The bus topic on which the Location Service publishes
/// [`Notification`]s.
pub const NOTIFICATION_TOPIC: &str = "middlewhere.notifications";

/// The bus service name under which the Location Service registers its
/// query endpoint.
pub const LOCATION_SERVICE_NAME: &str = "middlewhere.location";
