//! Cloud providers: the academic and commercial capacity pools NSDF-Cloud
//! federates (paper ref \[5\]).
//!
//! Each provider exposes a node flavour with a provisioning latency, an
//! hourly cost (0 for allocation-based academic clouds), and a capacity
//! cap — the three parameters that drive every ad-hoc-cluster trade-off
//! the service exists to navigate.

use nsdf_util::{NsdfError, Result};

/// Funding model of a provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProviderKind {
    /// Allocation-based academic cloud (Jetstream/Chameleon/CloudLab-class).
    Academic,
    /// Pay-per-hour commercial cloud.
    Commercial,
}

/// One capacity pool.
#[derive(Debug, Clone, PartialEq)]
pub struct Provider {
    /// Provider name.
    pub name: String,
    /// Funding model.
    pub kind: ProviderKind,
    /// Seconds to provision one node (image boot + contextualisation).
    pub provision_secs: f64,
    /// Cost per node-hour in dollars (0 for academic allocations).
    pub cost_per_node_hour: f64,
    /// Maximum concurrent nodes grantable to one user.
    pub max_nodes: u32,
    /// Relative single-node compute speed (1.0 = reference core).
    pub node_speed: f64,
}

impl Provider {
    /// Validate parameter sanity: every number finite, none negative, and
    /// a positive node speed.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(NsdfError::invalid("provider needs a name"));
        }
        let values = [self.provision_secs, self.cost_per_node_hour, self.node_speed];
        if !values.iter().all(|v| (0.0..f64::INFINITY).contains(v)) || self.node_speed == 0.0 {
            return Err(NsdfError::invalid(format!(
                "provider {:?} has invalid parameters",
                self.name
            )));
        }
        if self.max_nodes == 0 {
            return Err(NsdfError::invalid(format!("provider {:?} grants no nodes", self.name)));
        }
        Ok(())
    }

    /// The federation NSDF-Cloud describes: three academic pools plus one
    /// commercial burst pool, with realistic provisioning/cost shapes.
    pub fn nsdf_federation() -> Vec<Provider> {
        vec![
            Provider {
                name: "jetstream".into(),
                kind: ProviderKind::Academic,
                provision_secs: 120.0,
                cost_per_node_hour: 0.0,
                max_nodes: 16,
                node_speed: 1.0,
            },
            Provider {
                name: "chameleon".into(),
                kind: ProviderKind::Academic,
                provision_secs: 300.0,
                cost_per_node_hour: 0.0,
                max_nodes: 8,
                node_speed: 1.2,
            },
            Provider {
                name: "cloudlab".into(),
                kind: ProviderKind::Academic,
                provision_secs: 240.0,
                cost_per_node_hour: 0.0,
                max_nodes: 12,
                node_speed: 1.1,
            },
            Provider {
                name: "commercial".into(),
                kind: ProviderKind::Commercial,
                provision_secs: 45.0,
                cost_per_node_hour: 0.68,
                max_nodes: 64,
                node_speed: 1.3,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn federation_is_valid() {
        let f = Provider::nsdf_federation();
        assert_eq!(f.len(), 4);
        for p in &f {
            p.validate().unwrap();
        }
        assert!(f.iter().any(|p| p.kind == ProviderKind::Commercial));
        assert!(f.iter().filter(|p| p.kind == ProviderKind::Academic).count() >= 3);
    }

    #[test]
    fn validation_catches_nonsense() {
        let mut p = Provider::nsdf_federation().remove(0);
        p.max_nodes = 0;
        assert!(p.validate().is_err());
        p.max_nodes = 4;
        p.node_speed = 0.0;
        assert!(p.validate().is_err());
        p.node_speed = 1.0;
        p.name.clear();
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_requires_finite_numbers() {
        let p = Provider::nsdf_federation().remove(0);
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(Provider { provision_secs: bad, ..p.clone() }.validate().is_err());
            assert!(Provider { cost_per_node_hour: bad, ..p.clone() }.validate().is_err());
            assert!(Provider { node_speed: bad, ..p.clone() }.validate().is_err());
        }
        p.validate().unwrap();
    }
}
