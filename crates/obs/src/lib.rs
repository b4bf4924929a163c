//! # tdb-obs
//!
//! The observability subsystem: a lock-sharded metrics registry (counters,
//! gauges, log-bucketed histograms) with Prometheus-style text exposition
//! and a JSON snapshot API, plus structured tracing spans with a
//! ring-buffer recorder and a slow-rule log.
//!
//! The crate is zero-dependency (std only) and designed so instrumentation
//! compiles to near-no-ops when observability is off:
//!
//! * a process-global enable flag ([`enabled`]) gates every free-function
//!   instrumentation site behind one relaxed atomic load;
//! * per-component instrumentation (e.g. the rule manager's dispatch
//!   metrics) resolves an [`ObsConfig`] once at construction into
//!   `Option<Arc<…>>` handles — disabled means `None`, and the hot path
//!   pays a single branch.
//!
//! Metric handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`s
//! over atomics: callers fetch them once from a [`Registry`] (by name +
//! labels) and then update lock-free. The registry lock is only taken at
//! handle-creation and exposition time.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod histogram;
pub mod registry;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

pub use histogram::{Histogram, HistogramSnapshot, LocalHistogram, BUCKETS};
pub use registry::{Counter, Gauge, MetricSnapshot, MetricValue, Registry, RegistrySnapshot};
pub use trace::{SlowRule, Span, SpanRecord};

/// Process-global observability switch. Off by default: every
/// free-function instrumentation site loads this (relaxed) before doing
/// anything else.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the process-global instrumentation on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether process-global instrumentation is on (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-global registry, shared by every instrumented layer so one
/// [`Registry::render_prometheus`] call spans core, storage and
/// readset metrics.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A monotonic clock probe for instrumentation. Returns `None` under miri
/// (whose isolation forbids clock reads) so instrumented code stays
/// miri-clean; timing simply records nothing there.
#[inline]
pub fn now() -> Option<std::time::Instant> {
    if cfg!(miri) {
        None
    } else {
        Some(std::time::Instant::now())
    }
}

/// Nanoseconds since `t0` (`0` when the probe was unavailable), saturated
/// into `u64`.
#[inline]
pub fn elapsed_ns(t0: Option<std::time::Instant>) -> u64 {
    t0.map_or(0, |t| {
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
    })
}

/// How a component wires itself to the observability subsystem.
///
/// `enable: None` (the default) follows the process-global flag at the
/// moment the component is constructed; `Some(bool)` overrides it either
/// way. `registry: None` uses the process-global registry; tests that need
/// isolated counters can pass their own.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// `None` = follow [`enabled`] at construction; `Some` overrides.
    pub enable: Option<bool>,
    /// Full rule evaluations slower than this land in the slow-rule log
    /// ([`trace::slow_rules`]); `0` disables the slow log.
    pub slow_rule_ns: u64,
    /// Metrics sink; `None` = the process-global registry.
    pub registry: Option<Arc<Registry>>,
}

impl ObsConfig {
    /// Follow the process-global flag (the default).
    pub fn inherit() -> ObsConfig {
        ObsConfig::default()
    }

    /// Explicitly on, regardless of the global flag.
    pub fn on() -> ObsConfig {
        ObsConfig {
            enable: Some(true),
            ..ObsConfig::default()
        }
    }

    /// Explicitly off, regardless of the global flag.
    pub fn off() -> ObsConfig {
        ObsConfig {
            enable: Some(false),
            ..ObsConfig::default()
        }
    }

    /// On, recording into `registry` instead of the global one.
    pub fn with_registry(registry: Arc<Registry>) -> ObsConfig {
        ObsConfig {
            enable: Some(true),
            slow_rule_ns: 0,
            registry: Some(registry),
        }
    }

    /// Whether a component built with this config should instrument.
    pub fn is_enabled(&self) -> bool {
        self.enable.unwrap_or_else(enabled)
    }

    /// The registry a component built with this config records into.
    pub fn registry(&self) -> &Registry {
        match &self.registry {
            Some(r) => r,
            None => global(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn obs_config_resolution() {
        assert!(ObsConfig::on().is_enabled());
        assert!(!ObsConfig::off().is_enabled());
        // inherit() follows the flag at the time of the call.
        let inherit = ObsConfig::inherit();
        assert_eq!(inherit.is_enabled(), enabled());
    }

    #[test]
    fn private_registry_is_isolated() {
        let reg = Arc::new(Registry::new());
        let cfg = ObsConfig::with_registry(reg.clone());
        cfg.registry().counter("tdb_test_isolated_total").add(3);
        assert_eq!(reg.snapshot().counter("tdb_test_isolated_total"), Some(3));
        assert_eq!(
            global().snapshot().counter("tdb_test_isolated_total"),
            None,
            "private registry must not leak into the global one"
        );
    }

    #[test]
    fn elapsed_is_zero_without_probe() {
        assert_eq!(elapsed_ns(None), 0);
    }
}
