//! One-import surface for applications: the query facade plus the rule
//! builder, with the geometry and time types their signatures use.
//!
//! ```
//! use mw_core::prelude::*;
//!
//! let icu = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
//! let rule = Rule::when(
//!     Predicate::in_region(icu, 0.5).for_at_least(SimDuration::from_secs(30.0)),
//! )
//! .object("doctor")
//! .build()
//! .unwrap();
//! assert_eq!(rule.object, Some("doctor".into()));
//! ```

pub use crate::{
    AnswerQuality, CoreError, DeliveryPolicy, LocationFix, LocationQuery, LocationService,
    Notification, Predicate, QueryAnswer, QueryTarget, Rule, RuleBuilder, SubscriptionId,
    SubscriptionSpec, SubscriptionTrigger,
};

pub use mw_geometry::{Point, Rect};
pub use mw_model::{SimDuration, SimTime};
pub use mw_sensors::MobileObjectId;
