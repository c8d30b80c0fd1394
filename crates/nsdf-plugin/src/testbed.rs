//! The geo-distributed NSDF testbed model.
//!
//! NSDF-Plugin (paper §III-B) monitors throughput and latency "across
//! eight diverse locations in the United States, leveraging resources like
//! Internet2 and Open Science Grid". This module models those eight sites
//! with real coordinates and a physical link model: base RTT from
//! great-circle fibre distance (light in glass ≈ 2/3 c, times a routing
//! detour factor) plus per-hop processing, and per-link provisioned
//! bandwidth limited by the slower endpoint.

use nsdf_storage::NetworkProfile;
use nsdf_util::{haversine_km, LatLon, NsdfError, Result};

/// Speed of light in fibre, km per millisecond.
const FIBRE_KM_PER_MS: f64 = 200.0;
/// Paths are never great circles; typical detour multiplier.
const ROUTE_DETOUR: f64 = 1.4;
/// Fixed per-path processing/queueing latency (ms, one way).
const PATH_OVERHEAD_MS: f64 = 1.5;

/// One NSDF entry-point site.
#[derive(Debug, Clone, PartialEq)]
pub struct Site {
    /// Short site name.
    pub name: String,
    /// Geographic location.
    pub loc: LatLon,
    /// Provisioned uplink bandwidth in Gbit/s.
    pub uplink_gbps: f64,
}

impl Site {
    /// Construct a site.
    pub fn new(name: impl Into<String>, lat: f64, lon: f64, uplink_gbps: f64) -> Site {
        Site { name: name.into(), loc: LatLon::new(lat, lon), uplink_gbps }
    }
}

/// The testbed: a set of sites and the link model between them.
#[derive(Debug, Clone)]
pub struct Testbed {
    sites: Vec<Site>,
}

impl Testbed {
    /// The eight-site US testbed the NSDF-Plugin deployment spans.
    pub fn nsdf_default() -> Testbed {
        Testbed {
            sites: vec![
                Site::new("utah", 40.76, -111.89, 100.0),
                Site::new("sdsc", 32.88, -117.24, 100.0),
                Site::new("utk", 35.96, -83.92, 40.0),
                Site::new("umich", 42.29, -83.72, 100.0),
                Site::new("clemson", 34.68, -82.84, 40.0),
                Site::new("jhu", 39.33, -76.62, 40.0),
                Site::new("mghpcc", 42.20, -72.60, 100.0),
                Site::new("tacc", 30.39, -97.73, 100.0),
            ],
        }
    }

    /// Build a custom testbed.
    pub fn new(sites: Vec<Site>) -> Result<Testbed> {
        if sites.len() < 2 {
            return Err(NsdfError::invalid("testbed needs at least two sites"));
        }
        let mut names: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != sites.len() {
            return Err(NsdfError::invalid("duplicate site names"));
        }
        Ok(Testbed { sites })
    }

    /// All sites.
    pub(crate) fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Look up a site by name.
    pub(crate) fn site(&self, name: &str) -> Result<&Site> {
        self.sites
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| NsdfError::not_found(format!("site {name:?}")))
    }

    /// Great-circle distance between two sites (km).
    pub(crate) fn distance_km(&self, a: &str, b: &str) -> Result<f64> {
        Ok(haversine_km(self.site(a)?.loc, self.site(b)?.loc))
    }

    /// Modelled round-trip time between two sites (ms).
    pub(crate) fn rtt_ms(&self, a: &str, b: &str) -> Result<f64> {
        if a == b {
            return Ok(0.2); // intra-site
        }
        let d = self.distance_km(a, b)?;
        Ok(2.0 * (d * ROUTE_DETOUR / FIBRE_KM_PER_MS + PATH_OVERHEAD_MS))
    }

    /// Modelled sustainable bandwidth between two sites (Gbit/s): the
    /// slower endpoint's uplink, derated for wide-area sharing.
    pub(crate) fn bandwidth_gbps(&self, a: &str, b: &str) -> Result<f64> {
        let sa = self.site(a)?;
        let sb = self.site(b)?;
        if a == b {
            return Ok(sa.uplink_gbps);
        }
        Ok(sa.uplink_gbps.min(sb.uplink_gbps) * 0.6)
    }

    /// A [`NetworkProfile`] for the `a -> b` path, usable with
    /// [`nsdf_storage::CloudStore`] to stream data between entry points.
    pub fn link_profile(&self, a: &str, b: &str) -> Result<NetworkProfile> {
        Ok(NetworkProfile {
            name: format!("{a}->{b}"),
            rtt_ms: self.rtt_ms(a, b)?,
            bandwidth_mbps: self.bandwidth_gbps(a, b)? * 1000.0,
            jitter: 0.10,
            streams: 4,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_testbed_has_eight_sites() {
        let tb = Testbed::nsdf_default();
        assert_eq!(tb.sites().len(), 8);
        assert!(tb.site("utah").is_ok());
        assert!(tb.site("mars").unwrap_err().is_not_found());
    }

    #[test]
    fn rtt_scales_with_distance() {
        let tb = Testbed::nsdf_default();
        // Coast-to-coast (SDSC to MGHPCC) beats a regional pair (UTK-Clemson).
        let far = tb.rtt_ms("sdsc", "mghpcc").unwrap();
        let near = tb.rtt_ms("utk", "clemson").unwrap();
        assert!(far > near * 2.0, "far {far} near {near}");
        // Symmetric.
        assert_eq!(far, tb.rtt_ms("mghpcc", "sdsc").unwrap());
        // Plausible absolute values: tens of ms coast to coast.
        assert!((20.0..90.0).contains(&far), "rtt {far}");
    }

    #[test]
    fn bandwidth_limited_by_slower_endpoint() {
        let tb = Testbed::nsdf_default();
        let bw = tb.bandwidth_gbps("utah", "utk").unwrap();
        assert!(bw <= 40.0);
        let bw2 = tb.bandwidth_gbps("utah", "sdsc").unwrap();
        assert!(bw2 > bw);
    }

    #[test]
    fn intra_site_is_fast() {
        let tb = Testbed::nsdf_default();
        assert!(tb.rtt_ms("utah", "utah").unwrap() < 1.0);
        assert_eq!(tb.bandwidth_gbps("utah", "utah").unwrap(), 100.0);
    }

    #[test]
    fn link_profile_is_usable() {
        let tb = Testbed::nsdf_default();
        let p = tb.link_profile("utk", "utah").unwrap();
        assert!(p.rtt_ms > 0.0);
        assert!(p.bandwidth_mbps > 0.0);
        assert_eq!(p.name, "utk->utah");
    }

    #[test]
    fn custom_testbed_validation() {
        assert!(Testbed::new(vec![Site::new("solo", 0.0, 0.0, 1.0)]).is_err());
        let dup = vec![Site::new("a", 0.0, 0.0, 1.0), Site::new("a", 1.0, 1.0, 1.0)];
        assert!(Testbed::new(dup).is_err());
    }
}
