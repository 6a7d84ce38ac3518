//! Typed errors for game construction and online interaction.

use std::fmt;

use osp_econ::schedule::ScheduleError;
use osp_econ::{Money, OptId, SlotId, UserId};

/// Everything that can go wrong when building a game or interacting
/// with an online mechanism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MechanismError {
    /// Optimization costs must be strictly positive (§3: `C_j > 0`).
    NonPositiveCost {
        /// The offending optimization.
        opt: OptId,
        /// The offending cost.
        cost: Money,
    },
    /// Bids must be non-negative (§3: `v_ij ≥ 0`).
    NegativeBid {
        /// Bidding user.
        user: UserId,
        /// Optimization bid on.
        opt: OptId,
        /// The offending amount.
        amount: Money,
    },
    /// An optimization id outside the game's `J`.
    UnknownOpt {
        /// The offending id.
        opt: OptId,
        /// Number of optimizations in the game.
        num_opts: u32,
    },
    /// A user id that the mechanism has not seen.
    UnknownUser {
        /// The offending id.
        user: UserId,
    },
    /// The same user bid twice (one bid per identity; Sybil attacks are
    /// modeled as *distinct* user ids, see `strategy::sybil`).
    DuplicateUser {
        /// The duplicated id.
        user: UserId,
    },
    /// §5.1: "a bid cannot be retroactive (`s_i < t`)".
    RetroactiveBid {
        /// Bidding user.
        user: UserId,
        /// The slot the bid starts at.
        start: SlotId,
        /// The mechanism's current slot.
        now: SlotId,
    },
    /// §5.1: "users are allowed to revise their future bids *upwards*".
    DownwardRevision {
        /// Revising user.
        user: UserId,
        /// Slot whose value would decrease.
        slot: SlotId,
        /// Previously declared value.
        old: Money,
        /// Attempted new value.
        new: Money,
    },
    /// The bid series extends past the game horizon.
    BeyondHorizon {
        /// Bidding user.
        user: UserId,
        /// Last slot of the bid.
        end: SlotId,
        /// The game horizon `z`.
        horizon: u32,
    },
    /// An online game's horizon above [`crate::MAX_HORIZON`]: its
    /// per-slot indexes would be sized for slots no bid can use.
    HorizonTooLong {
        /// The requested horizon `z`.
        horizon: u32,
        /// The largest accepted horizon.
        max: u32,
    },
    /// Advancing past the final slot.
    HorizonExhausted {
        /// The game horizon `z`.
        horizon: u32,
    },
    /// A substitutable bid with an empty substitute set.
    EmptySubstituteSet {
        /// Bidding user.
        user: UserId,
    },
    /// An invalid value series (propagated from `osp-econ`).
    Schedule(ScheduleError),
}

impl fmt::Display for MechanismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MechanismError::NonPositiveCost { opt, cost } => {
                write!(f, "cost of {opt} must be positive, got {cost}")
            }
            MechanismError::NegativeBid { user, opt, amount } => {
                write!(f, "negative bid {amount} by {user} on {opt}")
            }
            MechanismError::UnknownOpt { opt, num_opts } => {
                write!(f, "{opt} outside game with {num_opts} optimizations")
            }
            MechanismError::UnknownUser { user } => write!(f, "unknown user {user}"),
            MechanismError::DuplicateUser { user } => {
                write!(f, "user {user} already has a bid")
            }
            MechanismError::RetroactiveBid { user, start, now } => {
                write!(f, "{user} bid starting {start}, but it is already {now}")
            }
            MechanismError::DownwardRevision {
                user,
                slot,
                old,
                new,
            } => write!(
                f,
                "{user} tried to lower bid at {slot} from {old} to {new}; revisions must be upward"
            ),
            MechanismError::BeyondHorizon { user, end, horizon } => {
                write!(f, "{user} bid through {end}, beyond horizon {horizon}")
            }
            MechanismError::HorizonTooLong { horizon, max } => {
                write!(f, "horizon {horizon} exceeds the maximum of {max} slots")
            }
            MechanismError::HorizonExhausted { horizon } => {
                write!(f, "all {horizon} slots already processed")
            }
            MechanismError::EmptySubstituteSet { user } => {
                write!(f, "{user} submitted an empty substitute set")
            }
            MechanismError::Schedule(e) => write!(f, "invalid value series: {e}"),
        }
    }
}

impl std::error::Error for MechanismError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MechanismError::Schedule(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScheduleError> for MechanismError {
    fn from(e: ScheduleError) -> Self {
        MechanismError::Schedule(e)
    }
}

/// Crate-wide result alias.
pub type Result<T, E = MechanismError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MechanismError::RetroactiveBid {
            user: UserId(2),
            start: SlotId(1),
            now: SlotId(3),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("u2") && msg.contains("t1") && msg.contains("t3"),
            "{msg}"
        );
    }

    #[test]
    fn schedule_errors_convert() {
        let e: MechanismError = ScheduleError::EmptySeries.into();
        assert!(matches!(e, MechanismError::Schedule(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
