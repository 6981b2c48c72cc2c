//! Properties: named checks over a run's trace.
//!
//! One interface serves every check the project makes of a simulated
//! system: the timing constraints a model declares (the paper's
//! "automatic verification of timing constraints by simulation") and the
//! schedule explorer's invariant oracles. A model declares its properties
//! once; the same ones are then checked after a plain run and on every
//! schedule the explorer reaches.

use rtsim_kernel::SimTime;

use crate::recorder::Trace;

/// One verdict of a property on one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The reporting property's [name](Property::name).
    pub property: String,
    /// Whether the trace satisfies what this finding checked.
    pub holds: bool,
    /// Human-readable detail: the measured value, or the breach.
    pub message: String,
}

/// A named check over a trace.
///
/// A property reports as many findings as suits it: a timing constraint
/// one verdict, pass or fail; an invariant oracle one failing finding per
/// breach, and none when it holds.
pub trait Property: Send + Sync {
    /// Stable name used in reports and counterexamples.
    fn name(&self) -> &str;

    /// Checks `trace`, recorded over `[0, horizon]`.
    fn check(&self, trace: &Trace, horizon: SimTime) -> Vec<Finding>;

    /// A finding of this property.
    fn finding(&self, holds: bool, message: String) -> Finding {
        Finding {
            property: self.name().to_owned(),
            holds,
            message,
        }
    }
}
