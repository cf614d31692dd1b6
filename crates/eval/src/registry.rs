//! Multi-tenant histogram registry: one published snapshot per tenant.
//!
//! The paper's histograms are per-(table, column-set) structures; a
//! serving tier holds many of them behind one surface. The [`Registry`]
//! owns one [`SnapshotCell`] of [`FrozenHistogram`] per [`TenantKey`],
//! routes mixed-tenant estimate batches to the right snapshot
//! ([`Registry::estimate_batch_routed`], preserving the estimator zoo's
//! clear-then-fill contract), and hands all of its cells to the serving
//! engine as one [`CellBackend`]. Tenant epochs are the cells' own publish
//! counters: contiguous from 1, one per [`Registry::publish`].
//!
//! Routing is total: a query naming an unknown tenant, or a rect whose
//! dimensionality differs from its tenant's histogram, is a
//! [`RouteError`] — never a panic inside the batch kernel and never a
//! silent zero from the scalar walk.

use std::collections::BTreeMap;

use sth_geometry::Rect;
use sth_histogram::{FrozenHistogram, StHoles};
use sth_platform::obs;
use sth_platform::snap::{SnapshotCell, SnapshotGuard};
use sth_query::Estimator;
use sth_serve::{route_batch, CellBackend, TenantId};

/// Identity of one histogram tenant: the table it models and the column
/// subspace (ascending dimension indices) it covers.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantKey {
    /// Table (or dataset) name.
    pub table: String,
    /// Column subspace the histogram covers, as dimension indices.
    pub subspace: Vec<u32>,
}

impl TenantKey {
    /// Convenience constructor.
    pub fn new(table: impl Into<String>, subspace: impl Into<Vec<u32>>) -> Self {
        Self { table: table.into(), subspace: subspace.into() }
    }
}

impl std::fmt::Display for TenantKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[", self.table)?;
        for (i, d) in self.subspace.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Why a query cannot be routed to a tenant's snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// The query names a tenant id the registry never handed out.
    UnknownTenant {
        /// The offending id.
        tenant: TenantId,
        /// Tenants registered (valid ids are `0..tenants`).
        tenants: usize,
    },
    /// The query's dimensionality differs from the tenant's histogram.
    DimensionMismatch {
        /// The tenant the query was routed to.
        tenant: TenantId,
        /// The tenant histogram's dimensionality.
        expected: usize,
        /// The query rect's dimensionality.
        got: usize,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::UnknownTenant { tenant, tenants } => {
                write!(f, "unknown tenant {tenant} (registry holds {tenants})")
            }
            RouteError::DimensionMismatch { tenant, expected, got } => {
                write!(f, "tenant {tenant} is {expected}-d but the query is {got}-d")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// The multi-tenant histogram registry. See the module docs.
#[derive(Default)]
pub struct Registry {
    keys: Vec<TenantKey>,
    ndims: Vec<usize>,
    cells: Vec<SnapshotCell<FrozenHistogram>>,
    by_key: BTreeMap<TenantKey, TenantId>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tenant at its initial histogram state, published at
    /// epoch 1 (the [`SnapshotCell`] convention).
    ///
    /// Panics on a duplicate key — tenant identity is the registry's one
    /// uniqueness invariant.
    pub fn register(&mut self, key: TenantKey, hist: &StHoles) -> TenantId {
        assert!(!self.by_key.contains_key(&key), "tenant {key} is already registered");
        let id = self.cells.len();
        self.ndims.push(Estimator::ndim(hist));
        self.cells.push(SnapshotCell::new(hist.freeze()));
        self.keys.push(key.clone());
        self.by_key.insert(key, id);
        id
    }

    /// Publishes the tenant's current histogram state and returns the new
    /// tenant epoch. Concurrent publishers are safe: the cell bumps its
    /// epoch under its write lock, so epochs stay unique and monotone.
    pub fn publish(&self, id: TenantId, hist: &StHoles) -> u64 {
        assert_eq!(
            Estimator::ndim(hist),
            self.ndims[id],
            "tenant {} cannot change dimensionality",
            self.keys[id]
        );
        self.cells[id].publish(hist.freeze())
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.cells.len()
    }

    /// The key of a registered tenant.
    pub fn key(&self, id: TenantId) -> &TenantKey {
        &self.keys[id]
    }

    /// Looks a tenant up by key.
    pub fn id_of(&self, key: &TenantKey) -> Option<TenantId> {
        self.by_key.get(key).copied()
    }

    /// Pins the tenant's current snapshot.
    pub fn load(&self, id: TenantId) -> SnapshotGuard<FrozenHistogram> {
        self.cells[id].load()
    }

    /// The tenant's current epoch (1 + publishes since registration).
    pub fn tenant_epoch(&self, id: TenantId) -> u64 {
        self.cells[id].epoch()
    }

    /// Every tenant's cell as one serving-engine backend: engine tenant
    /// `t` is registry tenant `t`.
    pub fn backend(&self) -> CellBackend<'_> {
        CellBackend::new(&self.cells)
    }

    /// Checks that `q` can be routed to tenant `id`: the tenant exists and
    /// its histogram has `q`'s dimensionality.
    pub fn check_route(&self, id: TenantId, q: &Rect) -> Result<(), RouteError> {
        let expected = *self
            .ndims
            .get(id)
            .ok_or(RouteError::UnknownTenant { tenant: id, tenants: self.tenant_count() })?;
        if q.ndim() != expected {
            return Err(RouteError::DimensionMismatch { tenant: id, expected, got: q.ndim() });
        }
        Ok(())
    }

    /// Routes a mixed-tenant batch: splits by tenant, pins each tenant's
    /// snapshot once, answers each sub-batch through the batch path
    /// (kernel-sized sub-batches ride the lane kernel), and scatters the
    /// results back in input order. Clears then fills `out`.
    ///
    /// Every query is checked with [`Registry::check_route`] before any is
    /// answered; on error `out` is left empty.
    ///
    /// Bit-identical to estimating each query alone against its tenant:
    /// the batch kernel is proven per-query bit-identical to the scalar
    /// walk, so no grouping decision can move an estimate's bits.
    pub fn estimate_batch_routed(
        &self,
        batch: &[(TenantId, Rect)],
        out: &mut Vec<f64>,
    ) -> Result<(), RouteError> {
        out.clear();
        for (id, q) in batch {
            self.check_route(*id, q)?;
        }
        obs::incr(obs::Counter::RegistryRoutes);
        out.resize(batch.len(), 0.0);
        let mut rects = Vec::new();
        let mut sub = Vec::new();
        for (id, idxs) in route_batch(batch) {
            let snap = self.load(id);
            rects.clear();
            rects.extend(idxs.iter().map(|&j| batch[j].1.clone()));
            snap.estimate_batch(&rects, &mut sub);
            for (&j, v) in idxs.iter().zip(&sub) {
                out[j] = *v;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sth_data::cross::CrossSpec;
    use sth_index::KdCountTree;
    use sth_query::{CardinalityEstimator, SelfTuning, WorkloadSpec};

    fn trained(seed: u64, queries: usize) -> StHoles {
        let data = CrossSpec::cross2d().scaled(0.04).generate();
        let index = KdCountTree::build(&data);
        let wl = WorkloadSpec::paper(0.01, seed).generate(data.domain(), None);
        let mut hist = sth_core::build_uninitialized(&data, 48);
        for q in wl.queries().iter().take(queries) {
            hist.refine(q.rect(), &index);
        }
        hist
    }

    #[test]
    fn register_and_lookup() {
        let hist = trained(11, 10);
        let mut reg = Registry::new();
        let a = reg.register(TenantKey::new("orders", vec![0, 1]), &hist);
        let b = reg.register(TenantKey::new("orders", vec![0, 2]), &hist);
        assert_eq!(reg.tenant_count(), 2);
        assert_ne!(a, b);
        assert_eq!(reg.id_of(&TenantKey::new("orders", vec![0, 2])), Some(b));
        assert_eq!(reg.id_of(&TenantKey::new("orders", vec![9])), None);
        assert_eq!(reg.key(a).to_string(), "orders[0,1]");
        assert_eq!(reg.tenant_epoch(a), 1);
        assert_eq!(reg.publish(a, &hist), 2);
        assert_eq!(reg.tenant_epoch(a), 2);
        assert_eq!(reg.tenant_epoch(b), 1, "publishing one tenant leaves the others alone");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_key_panics() {
        let hist = trained(11, 5);
        let mut reg = Registry::new();
        reg.register(TenantKey::new("t", vec![0]), &hist);
        reg.register(TenantKey::new("t", vec![0]), &hist);
    }

    #[test]
    fn routed_batches_are_bit_identical_to_per_tenant_estimates() {
        let mut reg = Registry::new();
        let mut frozen = Vec::new();
        for seed in [23u64, 29, 31] {
            let hist = trained(seed, 25);
            reg.register(TenantKey::new(format!("t{seed}"), vec![0, 1]), &hist);
            frozen.push(hist.freeze());
        }
        // A mixed batch cycling through tenants, kernel-sized per tenant.
        let mut batch = Vec::new();
        for i in 0..30 {
            let lo = (i % 10) as f64 * 9.0;
            batch.push((i % 3, Rect::from_bounds(&[lo, lo * 0.3], &[lo + 20.0, lo * 0.3 + 30.0])));
        }
        let mut routed = vec![f64::NAN; 2]; // stale garbage: must clear
        reg.estimate_batch_routed(&batch, &mut routed).expect("valid batch");
        assert_eq!(routed.len(), batch.len());
        for (j, (id, q)) in batch.iter().enumerate() {
            let direct = frozen[*id].estimate(q);
            assert_eq!(routed[j].to_bits(), direct.to_bits(), "query {j} (tenant {id}) drifted");
            assert_eq!(reg.load(*id).estimate(q).to_bits(), direct.to_bits());
        }
    }

    #[test]
    fn bad_routes_are_errors_not_answers() {
        let mut reg = Registry::new();
        reg.register(TenantKey::new("t", vec![0, 1]), &trained(37, 10));
        let ok = Rect::from_bounds(&[0.0, 0.0], &[10.0, 10.0]);
        let flat = Rect::from_bounds(&[0.0], &[10.0]);
        let mut out = vec![1.0; 3];
        assert_eq!(
            reg.estimate_batch_routed(&[(0, ok.clone()), (1, ok.clone())], &mut out),
            Err(RouteError::UnknownTenant { tenant: 1, tenants: 1 })
        );
        assert!(out.is_empty(), "a refused batch leaves no partial answers");
        assert_eq!(
            reg.estimate_batch_routed(&[(0, flat)], &mut out),
            Err(RouteError::DimensionMismatch { tenant: 0, expected: 2, got: 1 })
        );
        assert_eq!(reg.estimate_batch_routed(&[], &mut out), Ok(()));
        assert!(out.is_empty());
    }
}
