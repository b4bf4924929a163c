//! The fixed global clock.
//!
//! The paper assumes a single global clock whose value is readable through
//! the `time` data item. We use a deterministic logical clock so that every
//! experiment replays bit-for-bit; workloads advance it explicitly.

use tdb_relation::Timestamp;

use crate::error::{EngineError, Result};

/// A monotone logical clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clock {
    now: Timestamp,
}

impl Clock {
    /// Starts the clock at `start`.
    pub fn starting_at(start: Timestamp) -> Clock {
        Clock { now: start }
    }

    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Advances to an absolute instant; must not move backwards (equal is
    /// allowed — several events may occur at one instant).
    pub fn advance_to(&mut self, t: Timestamp) -> Result<()> {
        if t < self.now {
            return Err(EngineError::ClockNotMonotonic {
                now: self.now.0,
                requested: t.0,
            });
        }
        self.now = t;
        Ok(())
    }

    /// Advances by a non-negative number of clock units.
    pub fn advance_by(&mut self, delta: i64) -> Result<Timestamp> {
        if delta < 0 {
            return Err(EngineError::ClockNotMonotonic {
                now: self.now.0,
                requested: self.now.0.saturating_add(delta),
            });
        }
        self.now = self.now.plus(delta);
        Ok(self.now)
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::starting_at(Timestamp(0))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn monotonicity_enforced() {
        let mut c = Clock::default();
        c.advance_to(Timestamp(5)).unwrap();
        c.advance_to(Timestamp(5)).unwrap();
        assert!(c.advance_to(Timestamp(4)).is_err());
        assert_eq!(c.now(), Timestamp(5));
    }

    #[test]
    fn advance_by() {
        let mut c = Clock::starting_at(Timestamp(10));
        assert_eq!(c.advance_by(7).unwrap(), Timestamp(17));
        assert!(c.advance_by(-1).is_err());
    }
}
