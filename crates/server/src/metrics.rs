//! Server-side observability: request counters, latency histograms,
//! connection/tenant gauges — all registered in the shared `tdb-obs`
//! registry so one `Metrics` request (or scrape of the daemon's output)
//! sees the server *and* every tenant's manager-level instrumentation in a
//! single exposition.
//!
//! Naming: `tdb_server_*` for server-owned series; per-tenant gauges carry
//! a `tenant` label (`tdb_server_tenant_states{tenant="acme"}`), matching
//! the labeled-family support in [`tdb_obs::Registry::render_prometheus`].

use std::sync::Arc;

use tdb_obs::{elapsed_ns, global, now, Counter, Gauge, Histogram};
use tdb_relation::Timestamp;

use crate::job::REQUEST_KINDS;

/// One request kind's `tdb_server_requests{kind}` counter and
/// `tdb_server_request_ns{kind}` histogram.
#[derive(Debug, Clone)]
struct KindMetrics {
    kind: &'static str,
    requests: Counter,
    latency: Arc<Histogram>,
}

impl KindMetrics {
    fn resolve(kind: &'static str) -> KindMetrics {
        let r = global();
        KindMetrics {
            kind,
            requests: r.counter_with("tdb_server_requests", &[("kind", kind)]),
            latency: r.histogram_with("tdb_server_request_ns", &[("kind", kind)]),
        }
    }
}

/// Pre-resolved handles for the per-request hot path.
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    pub connections_open: Gauge,
    pub connections_total: Counter,
    pub requests_total: Counter,
    pub request_errors: Counter,
    pub frames_rejected: Counter,
    pub tenants: Gauge,
    pub subscriptions: Gauge,
    pub firings_streamed: Counter,
    /// Outbound-queue stall episodes (a connection crossed its soft
    /// backpressure limit).
    pub conn_backpressure: Counter,
    /// Valid-time stream events by phase: announced-before-the-watermark
    /// firings, definite confirmations, and retroactive retractions.
    pub vt_tentative: Counter,
    pub vt_confirmed: Counter,
    pub vt_retractions: Counter,
    /// One entry per wire request kind, resolved up front so a reply
    /// touches no registry lock.
    kinds: Vec<KindMetrics>,
}

impl ServerMetrics {
    /// Resolves every handle from the global registry.
    pub fn resolve() -> ServerMetrics {
        let r = global();
        ServerMetrics {
            connections_open: r.gauge("tdb_server_connections_open"),
            connections_total: r.counter("tdb_server_connections_total"),
            requests_total: r.counter("tdb_server_requests_total"),
            request_errors: r.counter("tdb_server_request_errors_total"),
            frames_rejected: r.counter("tdb_server_frames_rejected_total"),
            tenants: r.gauge("tdb_server_tenants"),
            subscriptions: r.gauge("tdb_server_subscriptions"),
            firings_streamed: r.counter("tdb_server_firings_streamed_total"),
            conn_backpressure: r.counter("tdb_server_conn_backpressure_total"),
            vt_tentative: r.counter("tdb_vt_tentative_total"),
            vt_confirmed: r.counter("tdb_vt_confirmed_total"),
            vt_retractions: r.counter("tdb_vt_retractions_total"),
            kinds: REQUEST_KINDS
                .iter()
                .map(|k| KindMetrics::resolve(k))
                .collect(),
        }
    }

    /// Records one serviced request: a per-kind counter and its latency.
    pub fn observe_request(&self, kind: &'static str, t0: Option<std::time::Instant>, ok: bool) {
        self.requests_total.inc();
        if !ok {
            self.request_errors.inc();
        }
        let ns = elapsed_ns(t0);
        let observe = |k: &KindMetrics| {
            k.requests.inc();
            k.latency.observe(ns);
        };
        match self.kinds.iter().find(|k| k.kind == kind) {
            Some(k) => observe(k),
            // Not a wire kind (a probe): resolve it on the spot.
            None => observe(&KindMetrics::resolve(kind)),
        }
    }
}

/// Starts a latency measurement (None under miri — records 0).
pub fn request_timer() -> Option<std::time::Instant> {
    now()
}

/// One tenant's gauges under its `tenant` label, resolved once when the
/// tenant is built; they live in the [`Tenant`](crate::tenant::Tenant) and
/// are dropped with it.
#[derive(Debug)]
pub struct TenantGauges {
    states: Gauge,
    live_states: Gauge,
    rules: Gauge,
    firings: Gauge,
    retained: Gauge,
    wal_bytes: Gauge,
    batch_safety: Gauge,
    /// Valid-time tenants only: `W = now − Δ`, the instant up to which the
    /// firing stream is definite.
    vt_watermark: Option<Gauge>,
}

fn as_i64(v: usize) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

impl TenantGauges {
    pub fn resolve(name: &str, vt: bool) -> TenantGauges {
        let r = global();
        let labels: &[(&str, &str)] = &[("tenant", name)];
        TenantGauges {
            states: r.gauge_with("tdb_server_tenant_states", labels),
            live_states: r.gauge_with("tdb_server_tenant_live_states", labels),
            rules: r.gauge_with("tdb_server_tenant_rules", labels),
            firings: r.gauge_with("tdb_server_tenant_firings", labels),
            retained: r.gauge_with("tdb_server_tenant_retained", labels),
            wal_bytes: r.gauge_with("tdb_server_tenant_wal_bytes", labels),
            batch_safety: r.gauge_with("tdb_server_batch_safety", labels),
            vt_watermark: vt.then(|| r.gauge_with("tdb_server_vt_watermark", labels)),
        }
    }

    /// The O(1) values, set after every commit (`stats.retained` is not
    /// read).
    pub fn set_quick(&self, stats: &tdb_core::ShardStats, watermark: Option<Timestamp>) {
        self.states.set(as_i64(stats.states));
        self.live_states.set(as_i64(stats.live_states));
        self.rules.set(as_i64(stats.rules));
        self.firings.set(as_i64(stats.firings));
        // Batch-safety certificate as a scalar: 0 = exact, k ≥ 1 =
        // stratified with k strata, -1 = cascade-required.
        self.batch_safety.set(stats.batch_safety.gauge_value());
        if let (Some(g), Some(w)) = (&self.vt_watermark, watermark) {
            g.set(w.0);
        }
    }

    /// The values that cost a residual-DAG walk and a `read_dir`; set on
    /// the poller's sweep tick and whenever `TenantStats` is served.
    pub fn set_slow(&self, retained: usize, wal_bytes: u64) {
        self.retained.set(as_i64(retained));
        self.wal_bytes
            .set(i64::try_from(wal_bytes).unwrap_or(i64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_observation_lands_in_registry() {
        let m = ServerMetrics::resolve();
        let errors = m.request_errors.get();
        // A kind of its own: other tests in this process serve real
        // requests concurrently, so only this family's count is exact.
        m.observe_request("probe", request_timer(), true);
        m.observe_request("probe", request_timer(), false);
        let snap = global().snapshot();
        assert!(snap.counter_family("tdb_server_requests_total") >= 2);
        assert!(snap.counter_family("tdb_server_request_errors_total") > errors);
        let text = snap.render_prometheus();
        assert!(
            text.contains("tdb_server_requests{kind=\"probe\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn tenant_gauges_carry_tenant_label() {
        let stats = tdb_core::ShardStats {
            states: 3,
            live_states: 1,
            rules: 2,
            firings: 1,
            retained: 8,
            now: Timestamp(5),
            batch_safety: tdb_core::BatchCertificate::Stratified { strata: 2 },
        };
        let gauges = TenantGauges::resolve("acme", false);
        gauges.set_quick(&stats, None);
        gauges.set_slow(stats.retained, 4096);
        let text = global().snapshot().render_prometheus();
        assert!(
            text.contains("tdb_server_tenant_states{tenant=\"acme\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("tdb_server_tenant_live_states{tenant=\"acme\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("tdb_server_tenant_wal_bytes{tenant=\"acme\"} 4096"),
            "{text}"
        );
        assert!(
            text.contains("tdb_server_batch_safety{tenant=\"acme\"} 2"),
            "{text}"
        );
    }
}
