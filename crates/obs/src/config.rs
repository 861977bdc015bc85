//! Declarative observability configuration, threaded through
//! `RuntimeConfig::builder()`.
//!
//! The config is plain data (`Clone + Debug + PartialEq`), so a
//! `RuntimeConfig` holding an [`ObsConfig`] stays cloneable and comparable.
//! The runtime builds the [`Tracer`] it describes at construction time.

use std::path::PathBuf;

use crate::trace::Tracer;

/// Top-level observability switchboard. `Default` is everything off: no
/// tracer. The runtime's stats structs are counted regardless; nothing
/// here configures them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Write the trace as JSON lines to this file (truncated at open).
    pub trace: Option<PathBuf>,
    /// Trace lines kept in memory for the post-mortem dump; 0 keeps none.
    pub flight_capacity: usize,
}

impl ObsConfig {
    /// Everything off.
    pub fn disabled() -> ObsConfig {
        ObsConfig::default()
    }

    /// The tracer this config describes: `None` when it asks for neither a
    /// trace file nor a ring.
    pub fn tracer(&self) -> Option<Tracer> {
        if self.trace.is_none() && self.flight_capacity == 0 {
            return None;
        }
        let file = self.trace.as_ref().map(|path| {
            std::fs::File::create(path)
                .unwrap_or_else(|e| panic!("create trace file {}: {e}", path.display()))
        });
        Some(Tracer::new(file, self.flight_capacity))
    }
}
