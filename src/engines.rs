//! Engine factory: every access method of the evaluation behind one
//! trait object.
//!
//! The four engines — the IQ-tree and its three baselines — all implement
//! [`AccessMethod`], so drivers (CLI, benches, conformance tests) can hold
//! a `Box<dyn AccessMethod>` and stay engine-agnostic. This module is the
//! one place that knows how to construct each of them from a dataset.

use iq_engine::AccessMethod;
use iq_geometry::{Dataset, Metric};
use iq_scan::SeqScan;
use iq_storage::{BlockDevice, SimClock};
use iq_tree::{IqTree, IqTreeOptions};
use iq_vafile::VaFile;
use iq_xtree::XTree;

/// Which access method to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's contribution (three-level compressed index).
    IqTree,
    /// VA-file baseline (filter-and-refine over bit approximations).
    VaFile,
    /// X-tree baseline (hierarchical directory, bulk-loaded, query-only).
    XTree,
    /// Sequential scan baseline.
    Scan,
}

impl EngineKind {
    /// Every engine, in the order the paper's figures report them.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::IqTree,
        EngineKind::XTree,
        EngineKind::VaFile,
        EngineKind::Scan,
    ];

    /// The engine's canonical name (matches [`AccessMethod::name`]).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::IqTree => "iqtree",
            EngineKind::VaFile => "vafile",
            EngineKind::XTree => "xtree",
            EngineKind::Scan => "scan",
        }
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "iqtree" => Ok(EngineKind::IqTree),
            "vafile" => Ok(EngineKind::VaFile),
            "xtree" => Ok(EngineKind::XTree),
            "scan" => Ok(EngineKind::Scan),
            other => Err(format!(
                "unknown engine `{other}` (use iqtree, vafile, xtree or scan)"
            )),
        }
    }
}

/// Per-engine construction knobs; the defaults match the paper's setup.
/// The X-tree and the scan take none: the X-tree is bulk-loaded with the
/// IQ-tree's partitioning and only queried.
#[derive(Clone, Debug, Default)]
pub struct EngineOptions {
    /// IQ-tree options (quantization, scheduled I/O, cache, ...).
    pub iq: IqTreeOptions,
    /// VA-file bits per dimension; `None` picks them with the cost model
    /// from the data's fractal dimension.
    pub va_bits: Option<u32>,
}

/// Builds engine `kind` over `ds` with default options, writing its files
/// through devices from `make_dev`.
pub fn build_engine(
    kind: EngineKind,
    ds: &Dataset,
    metric: Metric,
    make_dev: impl FnMut() -> Box<dyn BlockDevice>,
    clock: &mut SimClock,
) -> Box<dyn AccessMethod> {
    build_engine_with(kind, ds, metric, EngineOptions::default(), make_dev, clock)
}

/// Builds engine `kind` over `ds` with explicit [`EngineOptions`].
pub fn build_engine_with(
    kind: EngineKind,
    ds: &Dataset,
    metric: Metric,
    opts: EngineOptions,
    mut make_dev: impl FnMut() -> Box<dyn BlockDevice>,
    clock: &mut SimClock,
) -> Box<dyn AccessMethod> {
    match kind {
        EngineKind::IqTree => Box::new(IqTree::build(ds, metric, opts.iq, &mut make_dev, clock)),
        EngineKind::VaFile => {
            let bits = opts.va_bits.unwrap_or_else(|| {
                let df = iq_data::correlation_dimension_auto(ds);
                iq_vafile::auto_bits(clock.disk(), clock.cpu(), ds, df)
            });
            Box::new(VaFile::build(
                ds,
                metric,
                bits,
                make_dev(),
                make_dev(),
                clock,
            ))
        }
        EngineKind::XTree => Box::new(XTree::build(ds, metric, make_dev(), make_dev(), clock)),
        EngineKind::Scan => Box::new(SeqScan::build(ds, metric, make_dev(), clock)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_engine::Query;
    use iq_storage::MemDevice;

    #[test]
    fn factory_builds_every_engine() {
        let ds = iq_data::uniform(4, 400, 9);
        for kind in EngineKind::ALL {
            let mut clock = SimClock::default();
            let eng = build_engine(
                kind,
                &ds,
                Metric::Euclidean,
                || Box::new(MemDevice::new(4096)),
                &mut clock,
            );
            assert_eq!(eng.name(), kind.name());
            assert_eq!(eng.len(), 400);
            assert_eq!(eng.dim(), 4);
            clock.reset();
            let (id, d) = eng
                .run(&mut clock, &Query::knn(ds.point(7), 1))
                .expect("valid query")
                .into_ranked()
                .0[0];
            assert_eq!(id, 7, "{}", kind.name());
            assert!(d.abs() < 1e-9);
        }
    }

    #[test]
    fn engine_kind_round_trips_through_parse() {
        for kind in EngineKind::ALL {
            assert_eq!(kind.name().parse::<EngineKind>(), Ok(kind));
        }
        assert!("btree".parse::<EngineKind>().is_err());
    }
}
