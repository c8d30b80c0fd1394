//! # nsdf
//!
//! Umbrella crate for **nsdf-rs** — a from-scratch Rust reproduction of the
//! system stack taught in *Leveraging National Science Data Fabric Services
//! to Train Data Scientists* (Taufer et al., SC 2024): the OpenVisus-class
//! IDX multi-resolution data fabric, the GEOtiled terrain pipeline, the
//! NSDF storage/catalog/network services, a headless dashboard, and the
//! four-step tutorial workflow that ties them together.
//!
//! Each subsystem lives in its own crate and is re-exported here; the
//! [`prelude`] pulls in the types most programs need.
//!
//! ```
//! use nsdf::prelude::*;
//!
//! // Generate terrain, publish it as an IDX dataset, and query a region.
//! let dem = DemConfig::conus_like(128, 128, 7).generate();
//! let store: std::sync::Arc<dyn ObjectStore> = std::sync::Arc::new(MemoryStore::new());
//! let meta = IdxMeta::new_2d(
//!     "demo", 128, 128,
//!     vec![Field::new("elevation", DType::F32).unwrap()],
//!     10, Codec::ShuffleLzss { sample_size: 4 },
//! ).unwrap();
//! let ds = IdxDataset::create(store, "demo", meta).unwrap();
//! ds.write_raster("elevation", 0, &dem).unwrap();
//! let (overview, stats) = ds
//!     .read_box::<f32>("elevation", 0, ds.bounds(), ds.max_level() - 4)
//!     .unwrap();
//! assert_eq!(overview.shape(), (32, 32));
//! assert!(stats.blocks_touched > 0);
//! ```

pub use nsdf_catalog as catalog;
pub use nsdf_cloud as cloud;
pub use nsdf_compress as compress;
pub use nsdf_core as core;
pub use nsdf_dashboard as dashboard;
pub use nsdf_fuse as fuse;
pub use nsdf_geotiled as geotiled;
pub use nsdf_hz as hz;
pub use nsdf_idx as idx;
pub use nsdf_plugin as plugin;
pub use nsdf_somospie as somospie;
pub use nsdf_storage as storage;
pub use nsdf_tiff as tiff;
pub use nsdf_util as util;
pub use nsdf_workflow as workflow;

/// The types most nsdf-rs programs need.
pub mod prelude {
    pub use nsdf_catalog::{Catalog, Record};
    pub use nsdf_cloud::{provision, ClusterRequest, Provider};
    pub use nsdf_compress::{Codec, CompressionStats};
    pub use nsdf_core::{
        run_terrain_dag, run_tutorial, DagConfig, DagReport, NsdfClient, Session, SurveyModel,
        TutorialConfig,
    };
    pub use nsdf_dashboard::{Colormap, Dashboard, Image, RangeMode, VolumeExplorer};
    pub use nsdf_fuse::{Mapping, VirtualFs};
    pub use nsdf_geotiled::{
        compute_terrain, compute_terrain_tiled, DemConfig, DemEdit, Sun, TerrainParam, TilePlan,
    };
    pub use nsdf_hz::{BitMask, HzCurve};
    pub use nsdf_idx::{CancelToken, Field, IdxDataset, IdxMeta, QuerySession, SessionStats};
    pub use nsdf_plugin::{run_campaign, select_entry_point, Testbed};
    pub use nsdf_somospie::{downscale_knn, KnnRegressor, SyntheticTruth};
    pub use nsdf_storage::{
        CloudStore, FleetSim, FleetSpec, LocalStore, MemoryStore, NetworkProfile, ObjectStore,
        SchedConfig, SchedStore, Scheduler, TenantPolicy, TierCache,
    };
    pub use nsdf_tiff::{read_tiff, tiff_info, write_tiff, TiffCompression};
    pub use nsdf_util::{
        AccuracyReport, Box2i, DType, GeoTransform, MetricsSnapshot, NsdfError, Obs, Raster,
        Result, SimClock,
    };
    pub use nsdf_workflow::{
        Artifact, GraphRun, Manifest, RunOptions, TaskGraph, TaskOutput, TaskStatus,
    };
}
