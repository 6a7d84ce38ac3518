//! # osp-core — cost-sharing mechanisms for shared cloud optimizations
//!
//! This crate implements the primary contribution of *"How to Price
//! Shared Optimizations in the Cloud"* (Upadhyaya, Balazinska, Suciu;
//! VLDB 2012): a family of truthful, cost-recovering mechanisms that
//! decide **which optimizations a cloud data service should implement
//! and how to split their cost** among selfish users.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`shapley`] | Mechanism 1 — the Shapley Value Mechanism |
//! | [`addoff`] | §4.2 — offline, additive optimizations |
//! | [`addon`] | §5, Mechanism 2 — online, additive |
//! | [`substoff`] | §6.1, Mechanism 3 — offline, substitutable |
//! | [`subston`] | §6.2, Mechanism 4 — online, substitutable |
//! | [`game`] | §3 — games, bids, alternatives, grant pairs |
//! | [`strategy`] | §§4–6 — lying agents for truthfulness experiments |
//! | [`audit`] | Eq. 4 & friends as executable checks |
//! | [`welfare`] | first-best bounds for the efficiency-gap ablation |
//! | [`moulin`] | the general Moulin family (egalitarian + weighted rules) |
//! | [`vcg`] | VCG/Clarke pricing — efficient + truthful, *not* budget-balanced |
//!
//! ## Quick example
//!
//! ```
//! use osp_core::prelude::*;
//!
//! // One optimization costing $100, three users worth $40 each:
//! // no one can afford it alone, together they pay $33.33… each.
//! let mut game = AdditiveOfflineGame::new(vec![Money::from_dollars(100)])?;
//! for u in 0..3 {
//!     game.bid(UserId(u), OptId(0), Money::from_dollars(40))?;
//! }
//! let outcome = addoff::run(&game);
//! assert!(outcome.implemented.contains_key(&OptId(0)));
//! assert_eq!(outcome.total_paid_by(UserId(0)) * 3, Money::from_dollars(100));
//! # Ok::<(), osp_core::MechanismError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addoff;
pub mod addon;
pub mod audit;
pub mod error;
pub mod game;
pub mod moulin;
pub mod pipeline;
pub mod shapley;
pub mod strategy;
pub mod substoff;
pub mod subston;
pub mod vcg;
pub mod welfare;

pub use error::{MechanismError, Result};

/// The longest horizon an online game ([`addon::AddOnState`],
/// [`subston::SubstOnState`]) accepts. AddOn indexes arrivals and
/// expiries by slot, so an empty game's two per-slot vectors cost
/// about 3 MB at this bound; the registered workloads run at most 120
/// slots.
pub const MAX_HORIZON: u32 = 1 << 16;

/// [`MechanismError::HorizonTooLong`] unless `horizon ≤ MAX_HORIZON`.
pub(crate) fn check_horizon(horizon: u32) -> Result<()> {
    if horizon > MAX_HORIZON {
        return Err(MechanismError::HorizonTooLong {
            horizon,
            max: MAX_HORIZON,
        });
    }
    Ok(())
}

/// One-stop imports for examples and downstream crates.
pub mod prelude {
    pub use crate::addoff::{self, OfflineOutcome};
    pub use crate::addon::{self, AddOnOutcome, AddOnState, MultiAddOnOutcome};
    pub use crate::audit;
    pub use crate::error::{MechanismError, Result};
    pub use crate::game::{
        AddOnGame, AdditiveOfflineGame, OnlineBid, SubstBid, SubstOffGame, SubstOnGame,
        SubstOnlineBid,
    };
    pub use crate::moulin::{self, CostSharing, EgalitarianSharing, WeightedSharing};
    pub use crate::shapley::{self, Engine, ShapleyBid, ShapleyOutcome, Solution, Solver};
    pub use crate::strategy::{self, Strategy};
    pub use crate::substoff::{self, SubstOffOutcome, TieBreak};
    pub use crate::subston::{self, SubstOnOutcome, SubstOnState};
    pub use crate::vcg::{self, VcgOutcome};
    pub use crate::welfare;
    pub use osp_econ::schedule::SlotSeries;
    pub use osp_econ::{Ledger, Money, OptId, Ratio, SlotId, Stats, UserId, ValueSchedule};
}
